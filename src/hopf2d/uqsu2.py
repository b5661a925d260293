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
asked for from that example once (:meth:`coalgebra.OperatorTable.element`),
and builds each lattice operator on its first lookup, once.  The one step
it adds is uq's own: before the evaluation, the element is compared word by
word with the placement construction.  :func:`boxplus_op` is a one-off
table's lookup.  A q-singlet on one site pair or a product of them on many
comes from :func:`singlet_product`.

The operator budget is :func:`linops.require_budget`, which
:func:`linops.kron_terms` enforces for every operator the library builds.
A table also calls it when it is made, so a size past the budget is
refused before the table builds its example or grows anything.

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
import scipy.sparse as sp

from . import coalgebra
from .coalgebra import CheckReport, _instance, worst_residual
from .grids import EQ_TOL, Alphabet, FormalSum, GridWord, sum_difference, worst_word
from .instances import UQ_NAMES, make_uq_symbolic, nonsingular_q, regular_q
from .linops import Representation, SparseOperator, evaluate, require_budget, worst_entry

# display plaquette label -> linear site index (bottom row first)
DISPLAY_TO_LINEAR_2X2 = {1: 3, 2: 4, 3: 1, 4: 2}

# the q-independent spin-1/2 matrices, shared read-only by every representation
ID2 = np.eye(2, dtype=complex)
SP = np.array([[0, 1], [0, 0]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)
SZ = np.diag([0.5, -0.5]).astype(complex)
for _mat in (ID2, SP, SM, SZ):
    _mat.flags.writeable = False

# rows per block of the commutator check, whose peak memory is that of one
# block's products: a 4x4 `verify --checks ks,commutator` process takes
# about 1.3 s and 115 MiB peak resident memory, as much as building its
# operators (medians of 9 runs; whole-matrix products took 1.4 s and 340
# MiB); at 3x4 a single 4096-row block added 9 MiB to the operators' peak
BLOCK_ROWS = 1024


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
    """The lattice operators of one (q, n, m), by generator name: a
    :class:`coalgebra.OperatorTable` of one deformed-su(2) example at q in
    its spin-1/2 representation ``rep``.

    It is made after the q rule and the operator budget
    (:func:`linops.require_budget`), both checked before it builds its
    example.  On an operator's first lookup its element is compared word by
    word with the independent placement construction :func:`_placement`,
    and a mismatch raises and names the worst word; otherwise the element
    is evaluated, once, as in every table.
    """

    def __init__(self, q, n: int, m: int):
        self.q = q = regular_q(q)
        require_budget(f"an operator table at {n}x{m}", 2, n * m)
        example = make_uq_symbolic(q)
        super().__init__(example, spin_half_rep(q, example.alphabet), n, m)

    def __missing__(self, gen):
        element = self.element(gen)
        placed = _placement(gen, self.rep.alphabet, element.shape)
        res = sum_difference(element, placed)
        if not res <= EQ_TOL:
            raise AssertionError(f"engine vs placement mismatch for {gen}: {res}, "
                                 f"worst word (engine vs placement) {worst_word(element, placed)}")
        return super().__missing__(gen)


def _require_size(ops, n: int, m: int):
    """The guard of the fixed-size checks: a table of another size than
    n x m raises ``ValueError`` naming both sizes."""
    if (ops.n, ops.m) != (n, m):
        raise ValueError(f"operator table of {ops.n}x{ops.m} used at {n}x{m}")


def _diagonal(op: SparseOperator) -> np.ndarray:
    """The diagonal of an operator that stores no nonzero entry off it."""
    mat = op.mat
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    if np.any(mat.data[mat.indices != rows] != 0):  # NaN != 0 too
        raise AssertionError("K string stores an off-diagonal entry")
    return mat.diagonal()


def _on_coordinates(mat, data) -> SparseOperator:
    """The operator with ``data`` at the stored coordinates of ``mat``, in their
    order.  It shares ``mat``'s index arrays, so it is only to be read:
    :func:`worst_entry` leaves it as it is."""
    return SparseOperator._wrap(sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape))


def check_ks_relation(ops, tol=EQ_TOL) -> CheckReport:
    """K S = q^(+-1) S K lifted to the whole lattice, max-entry residual.

    The K strings are diagonal, so no sparse product is formed: ``K S`` is
    S's stored entries scaled by K at their row and ``S K`` the same entries
    scaled by K at their column.  Each entry is the one product that
    ``K @ S`` and ``S @ K`` would form, and both sides keep S's coordinates,
    so the residual compares the two arrays entry by entry, the one
    subtraction per entry of ``(K S - q^(+-1) S K).max_abs()``.  Only a
    failing relation wraps them as operators (:func:`_on_coordinates`), for
    :func:`worst_entry`.  The q, the size and the operators come from
    ``ops``, an :class:`OperatorTable`.
    """
    q, instances = ops.q, []
    # S+ and S- first: built after the K strings, they raised the peak
    # memory of a 4x4 `verify --checks ks` run from 115 to 135 MiB
    s = {g: ops[g].mat for g in ("S+", "S-")}
    k = {g: _diagonal(ops[g]) for g in ("K+", "K-")}
    for alpha, kname in ((1, "K+"), (-1, "K-")):
        for sign, sname in ((1, "S+"), (-1, "S-")):
            mat = s[sname]
            lhs = np.repeat(k[kname], np.diff(mat.indptr))  # K at each entry's row
            lhs *= mat.data
            rhs = k[kname][mat.indices]  # K at each entry's column
            np.multiply(mat.data, rhs, out=rhs)
            rhs *= q ** (sign * alpha)
            with np.errstate(invalid="ignore", over="ignore"):  # as quiet as scipy's a - b
                res = float(np.abs(lhs - rhs).max(initial=0.0))
            instances.append(_instance(f"{kname}*{sname}", res, tol, lambda: {
                "worst_entry": worst_entry(_on_coordinates(mat, lhs), _on_coordinates(mat, rhs))}))
    return CheckReport("ks_relation", [(ops.n, ops.m)], instances)


def check_commutator(ops, tol=EQ_TOL) -> CheckReport:
    """[raise, lower] telescopes to the difference of squared K strings.

    The residual is accumulated over blocks of :data:`BLOCK_ROWS` rows: each
    block forms ``S+[B] @ S- - S-[B] @ S+`` and subtracts the block's rows of
    ``(K+2 - K-2) * (1/(q - 1/q))``, so no full-size product is built.  Every
    entry is the same arithmetic as in the whole-matrix difference.  A
    failing instance names the first worst entry in row-major order, NaN
    before any number, as :func:`worst_entry` does on the whole matrices.
    The q, the size and the operators come from ``ops`` as in
    :func:`check_ks_relation`.
    """
    q = nonsingular_q(ops.q)
    sp_, sm_, kp2, km2 = (ops[g].mat for g in ("S+", "S-", "K+2", "K-2"))
    scale = 1.0 / (q - 1.0 / q)

    def block(start):
        b = slice(start, start + BLOCK_ROWS)
        return (SparseOperator._wrap(sp_[b] @ sm_ - sm_[b] @ sp_),
                SparseOperator._wrap((kp2[b] - km2[b]) * scale))

    starts = range(0, sp_.shape[0], BLOCK_ROWS)
    worst, res = worst_residual([(a - b).max_abs() for a, b in map(block, starts)])
    start = starts[worst]

    def where():
        entry = worst_entry(*block(start))
        entry["row"] += start
        return {"worst_entry": entry}

    inst = _instance(f"commutator q={q:g}", res, tol, where)
    return CheckReport("commutator", [(ops.n, ops.m)], [inst])


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

