"""The deformed-su(2) lattice relations on whole sparse matrices.

A max-entry oracle for the MPO checks of ``uqsu2``: it reads the operators
of an ``OperatorTable`` (each built by ``linops.kron_terms`` from the
table's element) and forms both sides of each relation as scipy products.
The powers of q are written out here, not read from ``uqsu2``.
"""

# K S = q**power S K, in the report order of uqsu2.check_ks_relation
KS_POWERS = {"K+*S+": 1, "K+*S-": -1, "K-*S+": -1, "K-*S-": 1}


def relation_sides(ops, powers=KS_POWERS):
    """{label: (lhs, rhs)} of the four KS relations, with ``powers`` of q,
    and of the commutator (label ``"commutator"``), as scipy CSR matrices.
    The commutator's sides are S+ S- and S- S+ + (K+2 - K-2)/(q - 1/q), as
    the check compares them."""
    q = complex(ops.q)
    sides = {}
    for label, power in powers.items():
        k, s = (ops[name].mat for name in label.split("*"))
        sides[label] = (k @ s, q ** power * (s @ k))
    sp_, sm_ = ops["S+"].mat, ops["S-"].mat
    sides["commutator"] = (sp_ @ sm_, sm_ @ sp_ + (ops["K+2"].mat - ops["K-2"].mat)
                           * (1.0 / (q - 1.0 / q)))
    return sides


def max_entry_residuals(ops):
    """{label: max |lhs - rhs| over the entries} of every relation."""
    out = {}
    for label, (lhs, rhs) in relation_sides(ops).items():
        diff = abs(lhs - rhs)
        out[label] = float(diff.max()) if diff.nnz else 0.0
    return out
