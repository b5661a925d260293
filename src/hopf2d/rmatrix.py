"""The two-site R-matrix, its four-site plaquette analogue and the
semiclassical classical-r checks.

Everything in this module uses the plaquette site labels

    1 2
    3 4

as tensor positions 1..4 (display layout), so products like R_12 R_34 read
literally.  Lattice elements built in the engine's bottom-row-first linear
order are converted through :data:`uqsu2.DISPLAY_TO_LINEAR_2X2`.

:func:`embed` places a one- or two-site operator on the plaquette through
:func:`linops.kron_terms`, one matrix-unit term per nonzero entry.  The
plaquette R-matrix :func:`r2d` is the conjugator of the six steps of
:data:`CHAIN_STEPS`, which carry the plaquette element to its permuted
version, and the plaquette classical r is the matching signed sum of pair
r's.  :func:`conjugation_chain` runs those steps on the engine's own 2 x 2
element and checks that it ends at the permuted element: that element with
every K letter swapped.  The entry points that read the engine's
elements, :func:`delta_perm` at 1 x 2, :func:`plaquette_pair` and
:func:`conjugation_chain` at 2 x 2, take one table, ``ops``, an
:class:`uqsu2.OperatorTable`, first, read their q, their elements and
their representation from it and refuse a table of another size.  A
caller that shares one table per (q, size) builds one example there and
grows each element once.
"""

from __future__ import annotations

import cmath
from functools import reduce
import math

import numpy as np

from .coalgebra import CheckInstance, CheckReport
from .grids import FormalSum, GridWord, sums_equal, worst_word
from .instances import regular_q
from .linops import Representation, evaluate, kron_terms
from .uqsu2 import DISPLAY_TO_LINEAR_2X2, ID2, SM, SP, SZ, _require_size

_UNITS = [[np.outer(ID2[a], ID2[b]) for b in (0, 1)] for a in (0, 1)]  # |a><b| on one site


def r_matrix(q) -> np.ndarray:
    """Closed-form two-site R-matrix in the spin-1/2 representation."""
    q = regular_q(q)
    return np.array(
        [
            [q, 0, 0, 0],
            [0, 1, q - 1.0 / q, 0],
            [0, 0, 1, 0],
            [0, 0, 0, q],
        ],
        dtype=complex,
    )


def r_matrix_factorized(q) -> np.ndarray:
    """The same operator as q^(2 Sz x Sz) q^(1/2) (1 + (q - 1/q) S+ x S-)."""
    q = regular_q(q)
    logq = cmath.log(q)
    diag = np.exp(2.0 * logq * np.kron(SZ, SZ).diagonal())
    core = np.eye(4, dtype=complex) + (q - 1.0 / q) * np.kron(SP, SM)
    return np.diag(diag) * cmath.exp(0.5 * logq) @ core


def delta_perm(ops, gen: str) -> np.ndarray:
    """Permuted coproduct: the 1 x 2 element of S+ or S- in ``ops``, a
    table of 1 x 2, with its K letters swapped.  The coproduct itself is
    ``ops[gen].toarray()``."""
    _require_size(ops, 1, 2)
    if gen not in ("S+", "S-"):
        raise ValueError(f"no permuted coproduct for {gen!r}")
    return evaluate(_permuted(ops.element(gen), _k_swap(ops.rep.alphabet)), ops.rep).toarray()


def embed(mat: np.ndarray, *sites: int) -> np.ndarray:
    """Place an operator on k of the four plaquette sites: ``mat`` is
    2**k x 2**k and ``sites`` lists the (1-based) tensor positions of its
    k factors, first factor first.

    One Kronecker term per nonzero entry (r, c) of ``mat``: on the t-th
    listed site the matrix unit |r_t><c_t| of the t-th bits of r and c
    (the first site the most significant), the identity elsewhere.
    """
    terms = []
    for r, c in zip(*np.nonzero(mat)):
        factors = [ID2] * 4
        for t, site in enumerate(reversed(sites)):
            factors[site - 1] = _UNITS[(r >> t) & 1][(c >> t) & 1]
        terms.append((mat[r, c], factors))
    return kron_terms(terms, 2, 4).toarray()


# the six-step conjugation chain: R_pair (.) R_pair^-1 for conj, the inverse for inv
CHAIN_STEPS = (((1, 2), "conj"), ((3, 4), "conj"), ((2, 3), "inv"),
               ((1, 3), "inv"), ((2, 4), "inv"), ((1, 4), "inv"))


def _step(q, pair, mode):
    """A chain step's conjugator and its inverse: (R_pair, R_pair^-1) for
    'conj', (R_pair^-1, R_pair) for 'inv'."""
    rp = embed(r_matrix(q), *pair)
    rinv = np.linalg.inv(rp)
    return (rp, rinv) if mode == "conj" else (rinv, rp)


def r2d(q) -> np.ndarray:
    """Plaquette R-matrix: the conjugator of :data:`CHAIN_STEPS`, the product
    of the steps' conjugators with the first step rightmost."""
    q = regular_q(q)
    return reduce(np.matmul, [_step(q, pair, mode)[0] for pair, mode in reversed(CHAIN_STEPS)])


def _signed_pair_sum(pair_op) -> np.ndarray:
    """Sum of ``pair_op(i, j)`` over :data:`CHAIN_STEPS`: + for conj, - for inv."""
    return sum((1 if mode == "conj" else -1) * pair_op(*pair) for pair, mode in CHAIN_STEPS)


def evaluate_display_2x2(s: FormalSum, rep: Representation) -> np.ndarray:
    """Evaluate a 2 x 2 formal sum with tensor positions in display layout:
    ordinary evaluation of the sum with its cells reordered display first."""

    def to_display(word):
        return GridWord(word.shape, tuple(word.cells[DISPLAY_TO_LINEAR_2X2[k] - 1]
                                          for k in (1, 2, 3, 4)))

    return evaluate(s.map_words(to_display), rep).toarray()


def _k_swap(al) -> dict:
    """K+ and K- of alphabet ``al`` trading places."""
    return {al["K+"]: al["K-"], al["K-"]: al["K+"]}


def _permuted(s: FormalSum, swap: dict) -> FormalSum:
    """``s`` with every letter of ``swap`` swapped in its grids."""
    return s.map_words(lambda word: GridWord(word.shape, tuple(swap.get(c, c)
                                                               for c in word.cells)))


def plaquette_pair(ops, gen: str) -> tuple[np.ndarray, np.ndarray]:
    """The 2 x 2 lattice generator and its permuted element as 16 x 16
    operators in display layout, grown and evaluated from ``ops``, a table
    of 2 x 2."""
    _require_size(ops, 2, 2)
    s, rep = ops.element(gen), ops.rep
    return (evaluate_display_2x2(s, rep),
            evaluate_display_2x2(_permuted(s, _k_swap(rep.alphabet)), rep))


def classical_r() -> np.ndarray:
    """First-order coefficient of the two-site R-matrix in log q."""
    return 0.25 * np.eye(4, dtype=complex) + np.kron(SZ, SZ) + np.kron(SP, SM)


def classical_r2d() -> np.ndarray:
    """Signed six-pair sum solving the plaquette first-order intertwining."""
    r = classical_r()
    return _signed_pair_sum(lambda i, j: embed(r, i, j))


def classical_identities_residual() -> dict:
    """Exact first-order identities for the classical r-matrices.

    Two-site: [r, S1 + S2] = -S1 Sz2 + Sz1 S2 for both raising/lowering.
    Four-site: [r_plaquette, sum S] equals the matching signed sum of
    single-pair right sides.
    """
    out = {}
    for name, s in (("S+", SP), ("S-", SM)):
        r = classical_r()
        lhs = r @ (np.kron(s, ID2) + np.kron(ID2, s)) - (np.kron(s, ID2) + np.kron(ID2, s)) @ r
        rhs = -np.kron(s, SZ) + np.kron(SZ, s)
        out[f"pair {name}"] = float(np.abs(lhs - rhs).max())

        def a_pm(i, j):
            return -embed(s, i) @ embed(SZ, j) + embed(SZ, i) @ embed(s, j)

        total = sum(embed(s, k) for k in range(1, 5))
        rb = classical_r2d()
        lhs4 = rb @ total - total @ rb
        rhs4 = _signed_pair_sum(a_pm)
        out[f"plaquette {name}"] = float(np.abs(lhs4 - rhs4).max())
        rhs_lit = (
            embed(s, 1) @ (-embed(SZ, 2) + embed(SZ, 3) + embed(SZ, 4))
            + embed(s, 2) @ (embed(SZ, 1) + embed(SZ, 3) + embed(SZ, 4))
            - embed(s, 3) @ (embed(SZ, 1) + embed(SZ, 2) + embed(SZ, 4))
            - embed(s, 4) @ (embed(SZ, 1) + embed(SZ, 2) - embed(SZ, 3))
        )
        out[f"plaquette literal {name}"] = float(np.abs(lhs4 - rhs_lit).max())
    return out


def _traceless(m):
    n = m.shape[0]
    return m - (np.trace(m) / n) * np.eye(n, dtype=complex)


def check_semiclassical(h_values) -> CheckReport:
    """Difference quotients of R and the plaquette R converge to their
    classical r-matrices at first order in h = log q: the slope of log error
    against log h lies in [0.9, 1.1]."""
    hs = sorted(float(h) for h in h_values)
    if len(hs) < 4 or hs[0] <= 1e-4 or hs[-1] >= 0.3:
        raise ValueError("need at least 4 h values inside (1e-4, 0.3)")
    instances = []
    r1, r2 = classical_r(), classical_r2d()
    errs1, errs2 = [], []
    for h in hs:
        q = math.exp(h)
        e1 = np.abs((r_matrix(q) - np.eye(4)) / (2 * h) - r1).max()
        e2 = np.abs((r2d(q) - np.eye(16)) / (2 * h) - r2).max()
        errs1.append(float(e1))
        errs2.append(float(e2))
    for label, errs in (("pair", errs1), ("plaquette", errs2)):
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        ok = 0.9 <= slope <= 1.1
        instances.append(
            CheckInstance(
                f"{label} slope", ok, abs(slope - 1.0),
                {"slope": slope, "h": hs, "error": errs},
            )
        )
    # Richardson pair at the two smallest h: the error roughly halves
    ratio1 = errs1[1] / errs1[0] if errs1[0] else float("inf")
    hr = hs[1] / hs[0]
    instances.append(
        CheckInstance("pair refinement", abs(ratio1 - hr) < 0.35 * hr, abs(ratio1 - hr),
                      {"ratio": ratio1, "h_ratio": hr})
    )
    # traceless extrapolation hits the plaquette classical r
    h0 = hs[0]
    x_h = (r2d(math.exp(2 * h0)) - np.eye(16)) / (4 * h0)
    x_h2 = (r2d(math.exp(h0)) - np.eye(16)) / (2 * h0)
    extrap = 2 * x_h2 - x_h
    err_extrap = float(np.abs(_traceless(extrap) - _traceless(r2)).max())
    instances.append(
        CheckInstance("plaquette extrapolation", err_extrap < errs2[0], err_extrap,
                      {"plain_error": errs2[0]})
    )
    return CheckReport("semiclassical", [(1, 2), (2, 2)], instances)


# ---------------------------------------------------------------------------
# the conjugation chain on the engine's plaquette element


def _chain_transform(s: FormalSum, pair, mode, flip) -> FormalSum:
    """Apply one conjugation step to a 2 x 2 sum of S+/S- and K letters.

    The display pair (i, j) names two cells of every word through
    :data:`DISPLAY_TO_LINEAR_2X2`.  A word carrying the standard pair
    pattern (S K+ or K- S, S being S+ or S-) swaps to the permuted one
    (S K- or K+ S) under ``mode='conj'`` and back under ``mode='inv'``: the
    K letter beside the S trades places with the other through ``flip``.
    Same-letter pairs are spectators.  Anything else is rejected: the chain
    only ever meets these two cases.
    """
    li, lj = (DISPLAY_TO_LINEAR_2X2[k] - 1 for k in pair)
    # the K letter the step swaps: right of an S, and left of one
    right, left = ("K+", "K-") if mode == "conj" else ("K-", "K+")

    def step(word):
        cells = list(word.cells)
        a, b = cells[li].name, cells[lj].name
        s_first = a in ("S+", "S-")
        if s_first or b in ("S+", "S-"):
            k, want = (lj, right) if s_first else (li, left)
            if cells[k].name != want:
                raise ValueError(f"pair {pair} pattern {(a, b)} breaks the chain")
            cells[k] = flip[cells[k]]
        elif a != b:
            raise ValueError(f"mixed spectator K pair on {pair}")
        return GridWord(word.shape, tuple(cells))

    return s.map_words(step)


def conjugation_chain(ops, sgen="S+"):
    """Run the six conjugation steps on the plaquette element, returning
    the sums, residuals and the chain's conjugator.

    The chain starts from the 2 x 2 element of ``sgen`` that ``ops``, an
    :class:`uqsu2.OperatorTable` of 2 x 2, grows, and rewrites its words
    one step of :data:`CHAIN_STEPS` at a time, so ``steps`` holds seven
    :class:`FormalSum` s.  Each step's sum, evaluated by
    :func:`evaluate_display_2x2` into ``operators``, is compared numerically
    against the actual conjugation of the previous operator; the last sum
    must equal the first with every K letter swapped, or ``ValueError``
    names the word where they differ most.  ``conjugator`` is the product
    of the steps' conjugators at ``ops.q`` in :func:`r2d`'s order, so it is
    ``r2d(ops.q)`` bit for bit.
    """
    _require_size(ops, 2, 2)
    s, rep = ops.element(sgen), ops.rep
    flip = _k_swap(rep.alphabet)
    steps, operators = [s], [evaluate_display_2x2(s, rep)]
    residuals, gs = [], []
    for (pair, mode) in CHAIN_STEPS:
        s = _chain_transform(s, pair, mode, flip)
        steps.append(s)
        g, ginv = _step(ops.q, pair, mode)
        gs.append(g)
        cur = evaluate_display_2x2(s, rep)
        residuals.append(float(np.abs(cur - g @ operators[-1] @ ginv).max()))
        operators.append(cur)
    want = _permuted(steps[0], flip)
    if not sums_equal(s, want):
        worst = worst_word(s, want)
        raise ValueError(f"the chain ends off the permuted element at [{worst['word']}]: "
                         f"coefficient {worst['got']}, want {worst['want']}")
    return {"steps": steps, "residuals": residuals, "operators": operators,
            "conjugator": reduce(np.matmul, gs[::-1])}
