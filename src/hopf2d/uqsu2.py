"""Numeric deformed-su(2) lattice operators in the spin-1/2 representation.

Basis convention: |0> is spin up (Sz = +1/2) and is the first basis vector;
site 1 is the leftmost Kronecker factor.  The 2 x 2 plaquette labels used
in the singlet and R-matrix sections follow the top-row-first numbering

    1 2
    3 4

mapped onto the internal bottom-row-first linear order by
:data:`DISPLAY_TO_LINEAR_2X2`.

Every deformed-su(2) element is grown and represented by one step, an
:class:`OperatorTable` of one (q, n, m), the :class:`coalgebra.OperatorTable`
that serves every example: it builds one example at q and the spin-1/2
representation of that example's alphabet, grows every generator it is
asked for from that example once (:meth:`OperatorTable.element`), and
builds each lattice operator on its first lookup, once.  The one step it
adds is uq's own: every element it hands out is compared word by word with
the placement construction when it is grown.  :func:`boxplus_op` is a
one-off table's lookup.  A q-singlet on one site pair or a product of them
on many comes from :func:`singlet_product`.

The relation checks :func:`check_ks_relation` and :func:`check_commutator`
build no operator: they read the table's elements and representation,
turn each element into an MPO (:mod:`hopf2d.automata`) and compare the two
sides of each identity by their relative Frobenius distance, at any
lattice size.  The operator budget is :func:`linops.require_budget`, which
:func:`linops.kron_terms` enforces for every operator the library builds;
a table also meets it on an operator's first lookup, before it grows the
element, so an operator past the budget is refused before anything is
grown.

One q rule holds at every entry point, through :func:`instances.regular_q`
and :func:`instances.nonsingular_q`: a q that is not finite is a
:class:`coalgebra.ConfigurationError`; q = 0, and q**2 = 1 wherever
1/(q - 1/q) appears (the commutator, the q-singlets and the checks built on
them), is a :class:`coalgebra.SingularParameterError`.  A check reads its
q from its table, so the table refuses a q that is not finite, or 0, when
it is made, and a check that needs 1/(q - 1/q) refuses a table at
q**2 = 1 before it touches an operator.

The checks and the R-matrix entry points of :mod:`hopf2d.rmatrix` take
one :class:`OperatorTable`, ``ops``, first, and read their q, their size
and their operators and elements from it; one that runs at a fixed size
(1 x 2 or 2 x 2) refuses a table of another size with a ``ValueError``
naming both.  Every later call given the same table shares what it has
built.  The CLI keeps one table per distinct (q, size) that a ``verify``
check runs at, shared by every check that runs there, and drops it before
it builds the next.  No table outlives its caller: nothing is cached
across calls.
"""

from __future__ import annotations

import cmath
import itertools

import numpy as np

from . import coalgebra
from .automata import relative_difference, witness_entry
from .coalgebra import CheckReport, _instance, worst_residual
from .grids import EQ_TOL, Alphabet, FormalSum, GridWord, sum_difference, worst_word
from .instances import UQ_NAMES, make_uq_symbolic, nonsingular_q, regular_q
from .linops import Representation, SparseOperator

# display plaquette label -> linear site index (bottom row first)
DISPLAY_TO_LINEAR_2X2 = {1: 3, 2: 4, 3: 1, 4: 2}

# the q-independent spin-1/2 matrices, shared read-only by every representation
ID2 = np.eye(2, dtype=complex)
SP = np.array([[0, 1], [0, 0]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)
SZ = np.diag([0.5, -0.5]).astype(complex)
for _mat in (ID2, SP, SM, SZ):
    _mat.flags.writeable = False

def spin_half_rep(q, alphabet=None) -> Representation:
    """Spin-1/2 matrices for the deformed-su(2) alphabet at a given q.

    Without ``alphabet`` the symbols are a fresh alphabet of the names and
    ids that :func:`make_uq_symbolic` uses, without building the example.
    """
    q = regular_q(q)
    if alphabet is None:
        alphabet = Alphabet(UQ_NAMES)
    rq = cmath.sqrt(q)
    mats = {
        "1": ID2,
        "S+": SP,
        "S-": SM,
        "Sz": SZ,
        "K+": np.diag([rq, 1 / rq]),
        "K-": np.diag([1 / rq, rq]),
        "K+2": np.diag([q, 1 / q]),
        "K-2": np.diag([1 / q, q]),
    }
    return Representation(alphabet, mats)


def _placement(gen: str, alphabet: Alphabet, shape) -> FormalSum:
    """Placement construction: the generator at one site, the matching
    group-like letters before and after it in linear order (K- and K+ around
    S+ and S-, 1 around Sz), or one constant word for 1 and the K letters;
    the names are looked up in ``alphabet``."""
    sites = shape.sites
    if gen in ("S+", "S-", "Sz"):
        before, after = ("1", "1") if gen == "Sz" else ("K-", "K+")
        names = [[before] * k + [gen] + [after] * (sites - k - 1) for k in range(sites)]
    else:
        names = [[gen] * sites]
    return FormalSum(shape, [(GridWord(shape, alphabet.words(word)), 1.0) for word in names])


def boxplus_op(gen: str, q, n: int, m: int) -> SparseOperator:
    """Lattice operator for one generator, built through a one-off
    :class:`OperatorTable` of (q, n, m)."""
    return OperatorTable(q, n, m)[gen]


class OperatorTable(coalgebra.OperatorTable):
    """The lattice elements and operators of one (q, n, m), by generator
    name: a :class:`coalgebra.OperatorTable` of one deformed-su(2) example
    at q in its spin-1/2 representation ``rep``.

    It is made after the q rule, checked before it builds its example.
    Every element it hands out is compared word by word with the
    independent placement construction :func:`_placement` when it is
    grown, whether or not an operator is built from it, and a mismatch
    raises and names the worst word.  An operator is evaluated on its first
    lookup, once, within the operator budget, as in every table.
    """

    def __init__(self, q, n: int, m: int):
        self.q = q = regular_q(q)
        example = make_uq_symbolic(q)
        super().__init__(example, spin_half_rep(q, example.alphabet), n, m)

    def element(self, gen) -> FormalSum:
        """The element of generator ``gen``, grown as in every table and
        compared with its placement on the call that grows it."""
        grown = gen in self._elements
        element = super().element(gen)
        if not grown:
            placed = _placement(gen, self.rep.alphabet, element.shape)
            res = sum_difference(element, placed)
            if not res <= EQ_TOL:
                del self._elements[gen]  # handed out by no later call either
                raise AssertionError(f"engine vs placement mismatch for {gen}: {res}, worst "
                                     f"word (engine vs placement) {worst_word(element, placed)}")
        return element


def _require_size(ops, n: int, m: int):
    """The guard of the fixed-size checks: a table of another size than
    n x m raises ``ValueError`` naming both sizes."""
    if (ops.n, ops.m) != (n, m):
        raise ValueError(f"operator table of {ops.n}x{ops.m} used at {n}x{m}")


# the lattice relations K S = q**power S K, as (K, S, power), in report order
KS_RELATIONS = (("K+", "S+", 1), ("K+", "S-", -1), ("K-", "S+", -1), ("K-", "S-", 1))


def check_ks_relation(ops, tol=EQ_TOL) -> CheckReport:
    """K S = q^(+-1) S K lifted to the whole lattice, one instance for each
    of :data:`KS_RELATIONS`, with residual ||K S - q^(+-1) S K||_F / ||K S||_F
    (:func:`_relation`).  Both sides are products of the MPOs of the table's
    elements (:meth:`coalgebra.OperatorTable.mpo`), so no operator of
    dimension 2**sites is built.  The q, the size and the elements come
    from ``ops``, an :class:`OperatorTable`.
    """
    instances = []
    for kname, sname, power in KS_RELATIONS:
        k, s = ops.mpo(kname), ops.mpo(sname)
        instances.append(_relation(f"{kname}*{sname}", k @ s, (s @ k) * ops.q ** power, tol))
    return CheckReport("ks_relation", [(ops.n, ops.m)], instances)


def check_commutator(ops, tol=EQ_TOL) -> CheckReport:
    """[raise, lower] telescopes to the difference of squared K strings,
    compared as S+ S- = S- S+ + (K+2 - K-2)/(q - 1/q): the residual is
    ||[S+, S-] - (K+2 - K-2)/(q - 1/q)||_F / ||S+ S-||_F, from the MPOs as in
    :func:`check_ks_relation`.  [S+, S-] itself vanishes at q = +-i on an
    even number of sites, so it is no scale to state the residual against.
    The q, the size and the elements come from ``ops``; a q with q**2 = 1 is
    refused first.
    """
    q = nonsingular_q(ops.q)
    sp_, sm_, kp2, km2 = (ops.mpo(g) for g in ("S+", "S-", "K+2", "K-2"))
    inst = _relation(f"commutator q={q:g}", sp_ @ sm_,
                     sm_ @ sp_ - (km2 - kp2) * (1.0 / (q - 1.0 / q)), tol)
    return CheckReport("commutator", [(ops.n, ops.m)], [inst])


def _relation(label, lhs, rhs, tol):
    """The instance of one operator identity lhs = rhs, given as MPOs: its
    residual is ||lhs - rhs||_F / ||lhs||_F, which ``details.residual`` names,
    and a failing one names a witness entry (:func:`automata.witness_entry`)."""
    inst = _instance(label, relative_difference(lhs, rhs), tol,
                     lambda: {"witness_entry": witness_entry(lhs, rhs)})
    inst.details = {"residual": "frobenius_relative", **inst.details}
    return inst


# ---------------------------------------------------------------------------
# q-singlets


def _pair_product(pairs, total_sites) -> np.ndarray:
    """Product of two-site factors on disjoint ordered pairs of linear sites.

    ``pairs`` lists ``((i, j), amplitude)`` with 1-based sites i, j and
    ``amplitude`` mapping the pair's bits (bi, bj) to a number (a missing
    pattern is 0); sites outside every pair are spin up.  Each basis state's
    amplitude is the Python product of its factors in pair order.
    """
    covered = [s for pair, _ in pairs for s in pair]
    if len(set(covered)) != len(covered):
        raise ValueError("pairs must be disjoint")
    psi = np.zeros(2 ** total_sites, dtype=complex)
    for bits in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=len(pairs)):
        amp, b = 1.0 + 0j, 0
        for ((i, j), amplitude), (bi, bj) in zip(pairs, bits):
            amp *= amplitude.get((bi, bj), 0j)
            b |= bi << (total_sites - i) | bj << (total_sites - j)
        psi[b] = amp
    return psi


def singlet_product(q, pairs, total_sites) -> np.ndarray:
    """Product of q-singlets on disjoint ordered pairs of linear sites
    (1-based); sites outside every pair are spin up.

    The normalized two-site q-singlet is (q^(1/2) |01> - q^(-1/2) |10>) /
    sqrt(q - 1/q).
    """
    q = nonsingular_q(q)
    den = cmath.sqrt(q - 1.0 / q)
    amplitudes = {(0, 1): cmath.sqrt(q) / den, (1, 0): -1.0 / cmath.sqrt(q) / den}
    return _pair_product([(pair, amplitudes) for pair in pairs], total_sites)


def singlet_pair_checks(ops, tol=EQ_TOL) -> CheckReport:
    """The two-site singlet identities: K fixes it, raising/lowering kill it,
    and K- x K+ maps it onto the inverse-q singlet with the stated ratio.
    The q, the two-site coproducts and the K matrices come from ``ops``, an
    :class:`OperatorTable` of 1 x 2."""
    q = nonsingular_q(ops.q)
    _require_size(ops, 1, 2)
    instances = []
    s = singlet_product(q, [(1, 2)], 2)
    for gen in ("S+", "S-"):
        res = float(np.abs(ops[gen].toarray() @ s).max())
        instances.append(_instance(f"annihilation {gen}", res, tol))
    for gen in ("K+", "K-"):
        res = float(np.abs(ops[gen].toarray() @ s - s).max())
        instances.append(_instance(f"invariance {gen}", res, tol))
    km = ops.rep.matrices[ops.rep.alphabet["K-"]]
    kp = ops.rep.matrices[ops.rep.alphabet["K+"]]
    lhs = np.kron(km, kp) @ s
    ratio = cmath.sqrt(1.0 / q - q) / cmath.sqrt(q - 1.0 / q)
    rhs = ratio * singlet_product(1.0 / q, [(1, 2)], 2)
    instances.append(_instance("K-xK+ inversion", float(np.abs(lhs - rhs).max()), tol))
    return CheckReport("singlet_pair", [(1, 2)], instances)


_PATTERNS = {"01+10": {(0, 1): 1.0, (1, 0): 1.0}, "11": {(1, 1): 1.0}, "00": {(0, 0): 1.0}}


def _display_state(specs) -> np.ndarray:
    """Four-site basis pattern from display-label constraints.

    ``specs`` maps the display pair (i, j) to one of '01+10', '11', '00'.
    """
    return _pair_product(
        [((DISPLAY_TO_LINEAR_2X2[i], DISPLAY_TO_LINEAR_2X2[j]), _PATTERNS[kind])
         for (i, j), kind in specs.items()], 4)


def vertical_singlet_residual(ops, tol=EQ_TOL) -> dict:
    """Image of two vertical q-singlets under the plaquette operators.

    The vertical singlets sit on display columns (3,1) and (4,2), bottom site
    first; one overall normalization 1/sqrt(q - 1/q) is stripped so the
    component magnitude is exactly (q^(1/2) - q^(-1/2))/sqrt(q - 1/q).
    Returns the measured coefficient, its predicted value and the residual
    against the signed support pattern.  The q and the operators come from
    ``ops``, an :class:`OperatorTable` of 2 x 2.
    """
    q = nonsingular_q(ops.q)
    _require_size(ops, 2, 2)
    pairs = [(DISPLAY_TO_LINEAR_2X2[3], DISPLAY_TO_LINEAR_2X2[1]),
             (DISPLAY_TO_LINEAR_2X2[4], DISPLAY_TO_LINEAR_2X2[2])]
    psi = singlet_product(q, pairs, 4) * cmath.sqrt(q - 1.0 / q)
    coef = (cmath.sqrt(q) - 1.0 / cmath.sqrt(q)) / cmath.sqrt(q - 1.0 / q)
    out = {"coefficient": coef}
    patterns = {
        "S-": _display_state({(1, 3): "11", (2, 4): "01+10"})
        - _display_state({(1, 3): "01+10", (2, 4): "11"}),
        "S+": _display_state({(1, 3): "01+10", (2, 4): "00"})
        - _display_state({(1, 3): "00", (2, 4): "01+10"}),
    }
    for gen, pattern in patterns.items():
        w = ops[gen].mat @ psi
        support = np.abs(w[np.abs(pattern) > 0.5])
        measured = float(support.mean()) if support.size else 0.0
        res = float(np.abs(w - coef * pattern).max())
        out[gen] = {
            "residual_vs_pattern": res,
            "measured_coefficient": measured,
            "pass": _instance(gen, res, tol).passed,
        }
    return out


def kernel_2x2(ops, svd_tol=1e-10) -> dict:
    """Joint null space of the 2 x 2 plaquette raising/lowering operators.

    Computed by SVD of the stacked 32 x 16 matrix with a relative singular
    value threshold; if an operator holds an entry that is not finite (an
    overflowing q), no SVD runs and the dimension is None.  Also measures
    the two-parameter singlet family that spans the kernel (horizontal pair
    and crossed pair, orientations as printed) and the reversed-orientation
    control, each residual the worst of its S+ and S- residual
    (:func:`coalgebra.worst_residual`).  The q and the operators come from
    ``ops`` as in :func:`vertical_singlet_residual`.
    """
    q = nonsingular_q(ops.q)
    _require_size(ops, 2, 2)
    sp_op, sm_op = ops["S+"].toarray(), ops["S-"].toarray()
    stacked = np.vstack([sp_op, sm_op])
    dim, basis = None, np.zeros((16, 0))
    if np.isfinite(stacked).all():
        _, sigma, vh = np.linalg.svd(stacked)
        cutoff = svd_tol * (sigma.max() if sigma.size else 1.0)
        dim = int(np.sum(sigma < cutoff)) + (16 - len(sigma))
        if dim:
            basis = vh.conj().T[:, 16 - dim:]

    def lin(pairs_display):
        return [(DISPLAY_TO_LINEAR_2X2[i], DISPLAY_TO_LINEAR_2X2[j]) for i, j in pairs_display]

    horizontal = singlet_product(q, lin([(1, 2), (3, 4)]), 4)
    crossed = singlet_product(q, lin([(3, 2), (4, 1)]), 4)
    reversed_crossed = singlet_product(q, lin([(2, 3), (1, 4)]), 4)

    def residual(state):
        return worst_residual([float(np.abs(op @ state).max()) for op in (sp_op, sm_op)])[1]

    family = {}
    for label, (alpha, beta) in {"(1,0)": (1, 0), "(0,1)": (0, 1), "(1,1)": (1, 1)}.items():
        family[label] = residual(alpha * horizontal + beta * crossed)
    return {
        "dimension": dim,
        "basis": basis,
        "family_residuals": family,
        "reversed_orientation_residual": residual(reversed_crossed),
    }

