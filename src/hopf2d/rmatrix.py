"""The two-site R-matrix, its four-site plaquette analogue and the
semiclassical classical-r checks.

Everything in this module uses the plaquette site labels

    1 2
    3 4

as tensor positions 1..4 (display layout), so products like R_12 R_34 read
literally.  Lattice elements built in the engine's bottom-row-first linear
order are converted through :data:`uqsu2.DISPLAY_TO_LINEAR_2X2`.

A pair operator is placed on its two sites by :func:`linops.kron_terms`,
one Kronecker term per nonzero entry.  The plaquette R-matrix :func:`r2d`
is the conjugator of the six steps of :data:`CHAIN_STEPS`, which carry the
plaquette element to its permuted version, and the plaquette classical r
is the matching signed sum of pair r's.
"""

from __future__ import annotations

import cmath
from functools import reduce
import math

import numpy as np

from .coalgebra import CheckInstance, CheckReport, _Timer, boxplus
from .grids import FormalSum, GridWord
from .instances import make_uq_symbolic
from .linops import Representation, evaluate, kron_terms
from .uqsu2 import DISPLAY_TO_LINEAR_2X2, spin_half_rep, _require_regular
from .uqsu2 import delta_op as delta_2site  # the two-site coproduct, dense 4 x 4

SZ = np.diag([0.5, -0.5]).astype(complex)
SP = np.array([[0, 1], [0, 0]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
_UNITS = [[np.outer(ID2[a], ID2[b]) for b in (0, 1)] for a in (0, 1)]  # |a><b| on one site


def r_matrix(q) -> np.ndarray:
    """Closed-form two-site R-matrix in the spin-1/2 representation."""
    q = _require_regular(q)
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
    q = _require_regular(q)
    logq = cmath.log(q)
    diag = np.exp(2.0 * logq * np.kron(SZ, SZ).diagonal())
    core = np.eye(4, dtype=complex) + (q - 1.0 / q) * np.kron(SP, SM)
    return np.diag(diag) * cmath.exp(0.5 * logq) @ core


def delta_perm(gen: str, q) -> np.ndarray:
    """Permuted coproduct: the 1 x 2 element of S+ or S- with its K letters
    swapped; a group-like K letter's is its coproduct."""
    q = _require_regular(q)
    if gen in ("K+", "K-"):
        return delta_2site(gen, q)
    if gen not in ("S+", "S-"):
        raise ValueError(f"no permuted coproduct for {gen!r}")
    return evaluate(boxplus_perm_sum(gen, q, 1, 2), spin_half_rep(q)).toarray()


def embed_pair(mat4: np.ndarray, i: int, j: int, n_sites: int = 4) -> np.ndarray:
    """Place a two-site operator on (1-based) tensor positions i and j.

    One Kronecker term per nonzero entry (r, c) of ``mat4``, whose row bits
    are r = 2 r_i + r_j and column bits c = 2 c_i + c_j: the matrix unit
    |r_i><c_i| on site i, |r_j><c_j| on site j and the identity elsewhere.
    """
    terms = []
    for r, c in zip(*np.nonzero(mat4)):
        factors = [ID2] * n_sites
        factors[i - 1] = _UNITS[r >> 1][c >> 1]
        factors[j - 1] = _UNITS[r & 1][c & 1]
        terms.append((mat4[r, c], factors))
    return kron_terms(terms, 2, n_sites).toarray()


def r_pair(q, i, j) -> np.ndarray:
    return embed_pair(r_matrix(q), i, j)


# the six-step conjugation chain: R_pair (.) R_pair^-1 for conj, the inverse for inv
CHAIN_STEPS = (((1, 2), "conj"), ((3, 4), "conj"), ((2, 3), "inv"),
               ((1, 3), "inv"), ((2, 4), "inv"), ((1, 4), "inv"))


def _step(q, pair, mode):
    """A chain step's conjugator and its inverse: (R_pair, R_pair^-1) for
    'conj', (R_pair^-1, R_pair) for 'inv'."""
    rp = r_pair(q, *pair)
    rinv = np.linalg.inv(rp)
    return (rp, rinv) if mode == "conj" else (rinv, rp)


def r2d(q) -> np.ndarray:
    """Plaquette R-matrix: the conjugator of :data:`CHAIN_STEPS`, the product
    of the steps' conjugators with the first step rightmost."""
    q = _require_regular(q)
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


def boxplus_2x2_display(gen: str, q) -> np.ndarray:
    """The 2 x 2 lattice generator as a 16 x 16 operator in display layout."""
    ex = make_uq_symbolic(q)
    rep = spin_half_rep(q, ex.alphabet)
    return evaluate_display_2x2(boxplus(ex, gen, 2, 2), rep)


def boxplus_perm_sum(gen: str, q, n: int = 2, m: int = 2) -> FormalSum:
    """The permuted n x m element: every K letter swapped in the grids."""
    ex = make_uq_symbolic(q)
    al = ex.alphabet
    swap = {al["K+"]: al["K-"], al["K-"]: al["K+"]}

    def flip(word):
        return GridWord(word.shape, tuple(swap.get(c, c) for c in word.cells))

    return boxplus(ex, gen, n, m).map_words(flip)


def boxplus_perm(gen: str, q) -> np.ndarray:
    """Permuted plaquette operator (16 x 16, display layout)."""
    ex = make_uq_symbolic(q)
    rep = spin_half_rep(q, ex.alphabet)
    return evaluate_display_2x2(boxplus_perm_sum(gen, q), rep)


def classical_r() -> np.ndarray:
    """First-order coefficient of the two-site R-matrix in log q."""
    return 0.25 * np.eye(4, dtype=complex) + np.kron(SZ, SZ) + np.kron(SP, SM)


def classical_r2d() -> np.ndarray:
    """Signed six-pair sum solving the plaquette first-order intertwining."""
    r = classical_r()
    return _signed_pair_sum(lambda i, j: embed_pair(r, i, j))


def single_site(mat, i, n_sites=4) -> np.ndarray:
    """``mat`` on tensor position i (1-based), the identity elsewhere."""
    return kron_terms([(1.0, [mat if k == i else ID2 for k in range(1, n_sites + 1)])],
                      2, n_sites).toarray()


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
            return -single_site(s, i) @ single_site(SZ, j) + single_site(SZ, i) @ single_site(s, j)

        total = sum(single_site(s, k) for k in range(1, 5))
        rb = classical_r2d()
        lhs4 = rb @ total - total @ rb
        rhs4 = _signed_pair_sum(a_pm)
        out[f"plaquette {name}"] = float(np.abs(lhs4 - rhs4).max())
        rhs_lit = (
            single_site(s, 1) @ (-single_site(SZ, 2) + single_site(SZ, 3) + single_site(SZ, 4))
            + single_site(s, 2) @ (single_site(SZ, 1) + single_site(SZ, 3) + single_site(SZ, 4))
            - single_site(s, 3) @ (single_site(SZ, 1) + single_site(SZ, 2) + single_site(SZ, 4))
            - single_site(s, 4) @ (single_site(SZ, 1) + single_site(SZ, 2) - single_site(SZ, 3))
        )
        out[f"plaquette literal {name}"] = float(np.abs(lhs4 - rhs_lit).max())
    return out


def _traceless(m):
    n = m.shape[0]
    return m - (np.trace(m) / n) * np.eye(n, dtype=complex)


def check_semiclassical(h_values, tol_slope=(0.9, 1.1)) -> CheckReport:
    """Difference quotients of R and the plaquette R converge to their
    classical r-matrices at first order in h = log q."""
    hs = sorted(float(h) for h in h_values)
    if len(hs) < 4 or hs[0] <= 1e-4 or hs[-1] >= 0.3:
        raise ValueError("need at least 4 h values inside (1e-4, 0.3)")
    instances = []
    with _Timer() as t:
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
            ok = tol_slope[0] <= slope <= tol_slope[1]
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
    return CheckReport("semiclassical", [(1, 2), (2, 2)], instances, t.elapsed)


# ---------------------------------------------------------------------------
# the conjugation chain on symbolic grids


def _chain_transform(grids, pair, mode):
    """Apply one conjugation step to symbolic plaquette grids.

    ``grids`` is a list of dicts {display site: letter} with letters among
    'S', 'K+', 'K-'.  Terms carrying the standard pair pattern swap to the
    permuted one under ``mode='conj'`` and back under ``mode='inv'``;
    same-letter K pairs are spectators.  Anything else is rejected: the
    chain only ever meets these two cases.
    """
    i, j = pair
    out = []
    for term in grids:
        a, b = term[i], term[j]
        new = dict(term)
        if "S" in (a, b):
            if mode == "conj":
                mapping = {("S", "K+"): ("S", "K-"), ("K-", "S"): ("K+", "S")}
            else:
                mapping = {("S", "K-"): ("S", "K+"), ("K+", "S"): ("K-", "S")}
            if (a, b) not in mapping:
                raise ValueError(f"pair {pair} pattern {(a, b)} breaks the chain")
            new[i], new[j] = mapping[(a, b)]
        elif a != b:
            raise ValueError(f"mixed spectator K pair on {pair}")
        out.append(new)
    return out


def plaquette_grids() -> list:
    """The four symbolic plaquette grids, in display labels."""
    return [
        {1: "S", 2: "K+", 3: "K-", 4: "K-"},
        {1: "K-", 2: "S", 3: "K-", 4: "K-"},
        {1: "K+", 2: "K+", 3: "S", 4: "K+"},
        {1: "K+", 2: "K+", 3: "K-", 4: "S"},
    ]


def _grids_operator(grids, q, sgen) -> np.ndarray:
    rep = spin_half_rep(q)
    mats = {s.name: rep.matrices[s] for s in rep.alphabet}
    terms = [(1.0, [mats[sgen if term[k] == "S" else term[k]] for k in (1, 2, 3, 4)])
             for term in grids]
    return kron_terms(terms, 2, 4).toarray()


def conjugation_chain(q, sgen="S+"):
    """Run the six conjugation steps, returning symbolic grids, residuals
    and the chain's conjugator.

    Each step's symbolic grid sum is compared numerically against the
    actual conjugation of the previous operator; the final grids must be
    the permuted plaquette element.  ``conjugator`` is the product of the
    steps' conjugators in :func:`r2d`'s order, so it is ``r2d(q)`` bit for bit.
    """
    q = _require_regular(q)
    grids = plaquette_grids()
    ops = [_grids_operator(grids, q, sgen)]
    steps = [grids]
    residuals, gs = [], []
    for (pair, mode) in CHAIN_STEPS:
        grids = _chain_transform(grids, pair, mode)
        steps.append(grids)
        g, ginv = _step(q, pair, mode)
        gs.append(g)
        conj = g @ ops[-1] @ ginv
        cur = _grids_operator(grids, q, sgen)
        residuals.append(float(np.abs(cur - conj).max()))
        ops.append(cur)
    return {"steps": steps, "residuals": residuals, "operators": ops,
            "conjugator": reduce(np.matmul, gs[::-1])}
