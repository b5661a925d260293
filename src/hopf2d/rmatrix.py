"""The two-site R-matrix, its four-site plaquette analogue and the
semiclassical classical-r checks.

Everything in this module uses the plaquette site labels

    1 2
    3 4

as tensor positions 1..4 (display layout), so products like R_12 R_34 read
literally.  Lattice elements built in the engine's bottom-row-first linear
order are converted through :data:`uqsu2.DISPLAY_TO_LINEAR_2X2`.
"""

from __future__ import annotations

import cmath
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
    """Permuted coproduct: the K letters swap roles across the pair."""
    q = _require_regular(q)
    rep = spin_half_rep(q)
    mats = {s.name: rep.matrices[s] for s in rep.alphabet}
    if gen in ("S+", "S-"):
        return np.kron(mats[gen], mats["K-"]) + np.kron(mats["K+"], mats[gen])
    if gen in ("K+", "K-"):
        return np.kron(mats[gen], mats[gen])
    raise ValueError(f"no permuted coproduct for {gen!r}")


def site_permutation_matrix(new_to_old, d=2) -> np.ndarray:
    """Permutation matrix sending |b_old> to the reordered |b_new>.

    ``new_to_old[k]`` is the old tensor position (0-based) that the new
    position k reads from.
    """
    n = len(new_to_old)
    dim = d ** n
    P = np.zeros((dim, dim), dtype=complex)
    # entry bn of the transposed index array is the old state b that bn reads
    old = np.arange(dim).reshape((d,) * n).transpose(new_to_old).ravel()
    P[np.arange(dim), old] = 1.0
    return P


def embed_pair(mat4: np.ndarray, i: int, j: int, n_sites: int = 4) -> np.ndarray:
    """Embed a two-site operator on (1-based) tensor positions i and j.

    Built by conjugating with an explicit site permutation so non-adjacent
    pairs keep the literal product order.
    """
    rest = [k for k in range(n_sites) if k not in (i - 1, j - 1)]
    new_to_old = [i - 1, j - 1] + rest
    P = site_permutation_matrix(new_to_old)
    big = np.kron(mat4, np.eye(2 ** (n_sites - 2), dtype=complex))
    return P.conj().T @ big @ P


def r_pair(q, i, j) -> np.ndarray:
    return embed_pair(r_matrix(q), i, j)


def r2d(q) -> np.ndarray:
    """Plaquette R-matrix as the six-factor product of pair R-matrices."""
    q = _require_regular(q)
    inv = np.linalg.inv
    return (
        inv(r_pair(q, 1, 4))
        @ inv(r_pair(q, 2, 4))
        @ inv(r_pair(q, 1, 3))
        @ inv(r_pair(q, 2, 3))
        @ r_pair(q, 3, 4)
        @ r_pair(q, 1, 2)
    )


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


def boxplus_perm_sum(gen: str, q) -> FormalSum:
    """The permuted plaquette element: every K letter swapped in the grids."""
    ex = make_uq_symbolic(q)
    al = ex.alphabet
    swap = {al["K+"]: al["K-"], al["K-"]: al["K+"]}

    def flip(word):
        return GridWord(word.shape, tuple(swap.get(c, c) for c in word.cells))

    return boxplus(ex, gen, 2, 2).map_words(flip)


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

    def rr(i, j):
        return embed_pair(classical_r(), i, j)

    return rr(1, 2) + rr(3, 4) - rr(1, 4) - rr(1, 3) - rr(2, 3) - rr(2, 4)


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
        rhs4 = a_pm(1, 2) + a_pm(3, 4) - a_pm(1, 4) - a_pm(1, 3) - a_pm(2, 3) - a_pm(2, 4)
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
# the six-step conjugation chain


CHAIN_STEPS = (
    ((1, 2), "conj"),
    ((3, 4), "conj"),
    ((2, 3), "inv"),
    ((1, 3), "inv"),
    ((2, 4), "inv"),
    ((1, 4), "inv"),
)


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


def plaquette_grids(gen: str = "S") -> list:
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
    """Run the six conjugation steps, returning symbolic grids and residuals.

    Each step's symbolic grid sum is compared numerically against the
    actual conjugation of the previous operator; the final grids must be
    the permuted plaquette element.
    """
    q = _require_regular(q)
    grids = plaquette_grids()
    ops = [_grids_operator(grids, q, sgen)]
    steps = [grids]
    residuals = []
    for (pair, mode) in CHAIN_STEPS:
        grids = _chain_transform(grids, pair, mode)
        steps.append(grids)
        rp = r_pair(q, *pair)
        prev = ops[-1]
        conj = rp @ prev @ np.linalg.inv(rp) if mode == "conj" else np.linalg.inv(rp) @ prev @ rp
        cur = _grids_operator(grids, q, sgen)
        residuals.append(float(np.abs(cur - conj).max()))
        ops.append(cur)
    return {"steps": steps, "residuals": residuals, "operators": ops}
