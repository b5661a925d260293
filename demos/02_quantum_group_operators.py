"""Deformed su(2) lattice operators and q-singlets on the plaquette.

Builds the raising/lowering and Cartan-string operators on small grids,
verifies the defining relations, and looks at the two-dimensional kernel
of the plaquette operators spanned by products of q-singlets.
"""

import numpy as np

from hopf2d import uqsu2 as uq

q = 2.0

print("== one-site matrices ==")
rep = uq.spin_half_rep(q)
for name in ("S+", "K+", "K-"):
    sym = rep.alphabet[name]
    print(name, "=", np.array_str(rep.matrices[sym].real, precision=3))

print("\n== lattice operators ==")
op = uq.boxplus_op("S+", q, 2, 2)
print("plaquette raising operator: dim", op.dim, "nnz", op.nnz)
print("engine element matches the direct placement word by word.")

print("\n== defining relations on grids ==")
# one operator table per size: the checks read q, the size and the operators from it
for (n, m) in [(2, 2), (2, 3), (3, 3)]:
    ops = uq.OperatorTable(q, n, m)
    ks = uq.check_ks_relation(ops)
    comm = uq.check_commutator(ops)
    print(f"{n}x{m}: K-S exchange ok={ks.ok} ({ks.max_residual:.1e}), "
          f"telescoping commutator ok={comm.ok} ({comm.max_residual:.1e})")

print("\n== q-singlets ==")
pair = uq.singlet_pair_checks(uq.OperatorTable(q, 1, 2))
for inst in pair.instances:
    print(f"  {inst.input}: residual {inst.residual:.1e}")

kernel = uq.kernel_2x2(uq.OperatorTable(q, 2, 2))
print("joint kernel dimension of the plaquette raising/lowering:", kernel["dimension"])
print("horizontal+crossed singlet family residuals:", {
    k: float(f"{v:.2e}") for k, v in kernel["family_residuals"].items()})
print("reversed crossed orientation residual (should be large):",
      f"{kernel['reversed_orientation_residual']:.3f}")

print("\n== vertical singlets are not invariant ==")
for qq in (2.0, 1.5, 1.1, 1.01):
    out = uq.vertical_singlet_residual(uq.OperatorTable(qq, 2, 2))
    print(f"q={qq}: coefficient {abs(out['coefficient']):.4f} "
          f"(pattern residual {out['S-']['residual_vs_pattern']:.1e})")
print("the coefficient tends to zero as q -> 1: the classical singlets win back.")
