"""The plaquette R-matrix as a product of six pair R-matrices.

The pair R-matrix intertwines the coproduct with its permuted version;
conjugating the plaquette element by pair R-matrices in the right order
swaps all K letters, which identifies the plaquette R-matrix as a six-fold
product.  Its semiclassical expansion reproduces the signed sum of
classical r-matrices.
"""

import numpy as np

from hopf2d import rmatrix as rm
from hopf2d.uqsu2 import OperatorTable

q = 1.5

print("== the pair R-matrix ==")
print(np.array_str(rm.r_matrix(2.0).real, precision=3))
res = np.abs(rm.r_matrix(q) - rm.r_matrix_factorized(q)).max()
print(f"closed form == factorized form: residual {res:.1e}")
two_site = OperatorTable(q, 1, 2)  # two_site[gen] is gen's two-site coproduct
for gen in ("S+", "S-"):
    res = np.abs(rm.r_matrix(q) @ two_site[gen].toarray()
                 - rm.delta_perm(two_site, gen) @ rm.r_matrix(q)).max()
    print(f"pair intertwining for {gen}: residual {res:.1e}")

print("\n== the conjugation chain ==")
# each word prints top row first, rows split by '/': the sites 1 2 / 3 4
plaquette = OperatorTable(q, 2, 2)
chain = rm.conjugation_chain(plaquette, "S+")
print("the plaquette element:", chain["steps"][0])
for k, (words, (pair, mode)) in enumerate(zip(chain["steps"][1:], rm.CHAIN_STEPS)):
    arrow = f"R{pair[0]}{pair[1]}" + ("(.)R^-1" if mode == "conj" else "^-1(.)R")
    print(f"step {k + 1} {arrow}: residual {chain['residuals'][k]:.1e}")
    print("    ", words)

print("\n== the plaquette intertwining ==")
big = rm.r2d(q)
for gen in ("S+", "S-"):
    display, perm = rm.plaquette_pair(plaquette, gen)
    res = np.abs(big @ display - perm @ big).max()
    print(f"plaquette intertwining for {gen}: residual {res:.1e}")

print("\n== semiclassical limit ==")
report = rm.check_semiclassical([0.2, 0.1, 0.05, 0.025, 0.0125])
for inst in report.instances:
    if "slope" in inst.details:
        print(f"{inst.input}: {inst.details['slope']:.3f}")
classical = rm.classical_identities_residual()
print("exact classical identities:", {k: float(f"{v:.1e}") for k, v in classical.items()})
