import cmath
import math
import re

import numpy as np
import pytest

from hopf2d import rmatrix as rm
from hopf2d.grids import FormalSum, GridShape, GridWord
from hopf2d.instances import make_uq_symbolic
from hopf2d.uqsu2 import OperatorTable, spin_half_rep


def seeded_qs(count=20, seed=11):
    rng = np.random.RandomState(seed)
    qs = [complex(x) for x in rng.uniform(0.5, 2.0, count // 2)]
    qs += [r * cmath.exp(1j * t)
           for r, t in zip(rng.uniform(0.5, 2.0, count - count // 2),
                           rng.uniform(0.2, 2.8, count - count // 2))]
    return qs


def test_r_matrix_q2_literal():
    expected = np.array([
        [2, 0, 0, 0],
        [0, 1, 1.5, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 2],
    ])
    assert np.allclose(rm.r_matrix(2.0), expected)


def test_r_matrix_undeformed_is_identity():
    assert np.allclose(rm.r_matrix(1.0), np.eye(4))
    assert np.allclose(rm.r2d(1.0), np.eye(16))


def test_closed_equals_factorized():
    for q in [2.0, math.exp(0.3)] + seeded_qs(6):
        assert np.abs(rm.r_matrix(q) - rm.r_matrix_factorized(q)).max() < 1e-12


def test_pair_intertwining_seeded():
    for q in seeded_qs(20):
        r, ops = rm.r_matrix(q), OperatorTable(q, 1, 2)
        for gen in ("S+", "S-"):
            res = np.abs(r @ ops[gen].toarray() - rm.delta_perm(ops, gen) @ r).max()
            assert res < 1e-12, (q, gen, res)


def test_delta_perm_swap_conjugation():
    swap = np.array([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ], dtype=complex)
    for q in (2.0, 0.7):
        ops = OperatorTable(q, 1, 2)
        for gen in ("S+", "S-"):
            direct = rm.delta_perm(ops, gen)
            conj = swap @ ops[gen].toarray() @ swap
            assert np.abs(direct - conj).max() < 1e-12
    undeformed = OperatorTable(1.0, 1, 2)
    assert np.allclose(rm.delta_perm(undeformed, "S+"), undeformed["S+"].toarray())


def test_embed_pair_oracle():
    # a dense, complex, non-Hermitian pair operator on every ordered pair:
    # the entry at row bits b and column bits c (site 1 the most significant)
    # reads a[2 b_i + b_j, 2 c_i + c_j] when b and c agree off the pair, else 0
    rng = np.random.RandomState(5)
    a = rng.uniform(0.5, 2.0, (4, 4)) + 1j * rng.uniform(-2.0, -0.5, (4, 4))
    assert not np.allclose(a, a.conj().T)
    bits = [[(b >> (3 - k)) & 1 for k in range(4)] for b in range(16)]
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            rest = [k for k in range(4) if k not in (i - 1, j - 1)]
            ref = np.zeros((16, 16), dtype=complex)
            for r in range(16):
                for c in range(16):
                    br, bc = bits[r], bits[c]
                    if all(br[k] == bc[k] for k in rest):
                        ref[r, c] = a[2 * br[i - 1] + br[j - 1], 2 * bc[i - 1] + bc[j - 1]]
            assert np.array_equal(rm.embed(a, i, j), ref), (i, j)


def test_plaquette_intertwining_exact():
    for q in [1.5] + seeded_qs(20):
        big, ops = rm.r2d(q), OperatorTable(q, 2, 2)
        for gen in ("S+", "S-"):
            display, perm = rm.plaquette_pair(ops, gen)
            res = np.abs(big @ display - perm @ big).max()
            assert res < 1e-10, (q, gen, res)


def test_plaquette_r_invertible():
    for q in seeded_qs(10):
        big = rm.r2d(q)
        assert np.linalg.cond(big) < 1e8


def test_permuted_plaquette_decomposition():
    # perm-pair on the top row with K-pair below, plus the mirror
    for q in (1.5, 2.0):
        rep = spin_half_rep(q)
        m = {s.name: rep.matrices[s] for s in rep.alphabet}
        pair, plaquette = OperatorTable(q, 1, 2), OperatorTable(q, 2, 2)
        for gen in ("S+", "S-"):
            top_perm = rm.delta_perm(pair, gen)
            kplus = np.kron(m["K+"], m["K+"])
            kminus = np.kron(m["K-"], m["K-"])
            composed = np.kron(top_perm, kplus) + np.kron(kminus, top_perm)
            assert np.abs(rm.plaquette_pair(plaquette, gen)[1] - composed).max() < 1e-12


def test_permuted_plaquette_symbol_swap_oracle():
    # swapping the K letters twice gives back the plaquette element
    from hopf2d.coalgebra import boxplus
    from hopf2d.grids import GridWord, sums_equal
    from hopf2d.instances import make_uq_symbolic

    for q in (1.5, 0.8):
        ex = make_uq_symbolic(q)
        al = ex.alphabet
        swap = {al["K+"]: al["K-"], al["K-"]: al["K+"]}
        for gen in ("S+", "S-"):
            grids = rm._permuted(boxplus(ex, gen, 2, 2), swap)
            back = grids.map_words(
                lambda w: GridWord(w.shape, tuple(swap.get(c, c) for c in w.cells)))
            assert sums_equal(back, boxplus(ex, gen, 2, 2))


FROZEN_CHAIN = [
    # printed intermediate sums: site -> letter, display layout (1 2 / 3 4)
    [{1: "S", 2: "K+", 3: "K-", 4: "K-"}, {1: "K-", 2: "S", 3: "K-", 4: "K-"},
     {1: "K+", 2: "K+", 3: "S", 4: "K+"}, {1: "K+", 2: "K+", 3: "K-", 4: "S"}],
    [{1: "S", 2: "K-", 3: "K-", 4: "K-"}, {1: "K+", 2: "S", 3: "K-", 4: "K-"},
     {1: "K+", 2: "K+", 3: "S", 4: "K+"}, {1: "K+", 2: "K+", 3: "K-", 4: "S"}],
    [{1: "S", 2: "K-", 3: "K-", 4: "K-"}, {1: "K+", 2: "S", 3: "K-", 4: "K-"},
     {1: "K+", 2: "K+", 3: "S", 4: "K-"}, {1: "K+", 2: "K+", 3: "K+", 4: "S"}],
    [{1: "S", 2: "K-", 3: "K-", 4: "K-"}, {1: "K+", 2: "S", 3: "K+", 4: "K-"},
     {1: "K+", 2: "K-", 3: "S", 4: "K-"}, {1: "K+", 2: "K+", 3: "K+", 4: "S"}],
    [{1: "S", 2: "K-", 3: "K+", 4: "K-"}, {1: "K+", 2: "S", 3: "K+", 4: "K-"},
     {1: "K-", 2: "K-", 3: "S", 4: "K-"}, {1: "K+", 2: "K+", 3: "K+", 4: "S"}],
    [{1: "S", 2: "K-", 3: "K+", 4: "K-"}, {1: "K+", 2: "S", 3: "K+", 4: "K+"},
     {1: "K-", 2: "K-", 3: "S", 4: "K-"}, {1: "K+", 2: "K-", 3: "K+", 4: "S"}],
    [{1: "S", 2: "K-", 3: "K+", 4: "K+"}, {1: "K+", 2: "S", 3: "K+", 4: "K+"},
     {1: "K-", 2: "K-", 3: "S", 4: "K-"}, {1: "K-", 2: "K-", 3: "K+", 4: "S"}],
]


def _normalize(grids):
    """A printed step, or a chain sum read as one: each word's four display
    sites with S+/S- read as "S", every coefficient exactly 1."""
    if isinstance(grids, rm.FormalSum):
        assert all(c == 1 for _, c in grids.items()), grids
        grids = [{k: "S" if w.cells[i - 1].name in ("S+", "S-") else w.cells[i - 1].name
                  for k, i in rm.DISPLAY_TO_LINEAR_2X2.items()} for w in grids]
    return sorted(tuple(sorted(t.items())) for t in grids)


def test_conjugation_chain_reproduces_printed_grids():
    chain = rm.conjugation_chain(OperatorTable(1.5, 2, 2), "S+")
    assert len(chain["steps"]) == 7
    for got, want in zip(chain["steps"], FROZEN_CHAIN):
        assert _normalize(got) == _normalize(want)
    assert max(chain["residuals"]) < 1e-12


def test_conjugation_chain_ends_at_permuted_element():
    for q in (1.5, 2.0, cmath.exp(0.3j)):
        ops = OperatorTable(q, 2, 2)
        for gen in ("S+", "S-"):
            chain = rm.conjugation_chain(ops, gen)
            assert max(chain["residuals"]) < 1e-10
            assert np.abs(chain["operators"][-1] - rm.plaquette_pair(ops, gen)[1]).max() < 1e-12


@pytest.mark.parametrize("k", range(len(rm.CHAIN_STEPS)))
def test_a_flipped_step_mode_breaks_the_chain_at_its_pair(monkeypatch, k):
    steps = list(rm.CHAIN_STEPS)
    pair, mode = steps[k]
    steps[k] = (pair, "inv" if mode == "conj" else "conj")
    monkeypatch.setattr(rm, "CHAIN_STEPS", tuple(steps))
    with pytest.raises(ValueError, match=re.escape(f"pair {pair} pattern")):
        rm.conjugation_chain(OperatorTable(1.5, 2, 2), "S+")


@pytest.mark.parametrize("sgen", ["S+", "S-"])
def test_a_chain_short_of_its_last_step_ends_off_the_permuted_element(monkeypatch, sgen):
    monkeypatch.setattr(rm, "CHAIN_STEPS", rm.CHAIN_STEPS[:-1])
    word = re.escape(f"[K+ K-/K+ {sgen}]")  # display layout: its S on site 4 of pair (1, 4)
    with pytest.raises(ValueError, match=f"ends off the permuted element at {word}"):
        rm.conjugation_chain(OperatorTable(1.5, 2, 2), sgen)


@pytest.mark.parametrize("q", [1.37, 0.8 + 0.6j])
def test_the_chain_conjugator_is_r2d_bit_for_bit(q):
    got, want = rm.conjugation_chain(OperatorTable(q, 2, 2), "S+")["conjugator"], rm.r2d(q)
    assert got.dtype == want.dtype and got.shape == want.shape == (16, 16)
    assert got.tobytes() == want.tobytes()


def test_classical_r_entries():
    expected = np.array([
        [0.5, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0.5],
    ])
    assert np.allclose(rm.classical_r(), expected)


def test_classical_identities_exact():
    residuals = rm.classical_identities_residual()
    assert max(residuals.values()) < 1e-12


def test_semiclassical_slopes():
    report = rm.check_semiclassical([0.2, 0.1, 0.05, 0.025, 0.0125])
    assert report.ok
    slopes = {i.input: i.details.get("slope") for i in report.instances if "slope" in i.details}
    assert 0.9 <= slopes["pair slope"] <= 1.1
    assert 0.9 <= slopes["plaquette slope"] <= 1.1


def test_semiclassical_rejects_bad_grid():
    with pytest.raises(ValueError):
        rm.check_semiclassical([0.2, 0.1])


def test_permuted_plaquette_undeformed_is_plain():
    # at q = 1 the K letters coincide, so the swap does nothing
    ops = OperatorTable(1.0, 2, 2)
    for gen in ("S+", "S-"):
        display, perm = rm.plaquette_pair(ops, gen)
        assert np.abs(perm - display).max() < 1e-14


def test_pair_conjugation_identities():
    # the two 4x4 conjugation identities powering the chain, as printed:
    # R (S1 K2+ + K1- S2) R^-1 = S1 K2- + K1+ S2, and the inverse version
    for q in (1.5, 2.0, 0.7):
        rep = spin_half_rep(q)
        m = {s.name: rep.matrices[s] for s in rep.alphabet}
        r = rm.r_matrix(q)
        rinv = np.linalg.inv(r)
        for gen in ("S+", "S-"):
            std = np.kron(m[gen], m["K+"]) + np.kron(m["K-"], m[gen])
            per = np.kron(m[gen], m["K-"]) + np.kron(m["K+"], m[gen])
            assert np.abs(r @ std @ rinv - per).max() < 1e-12
            assert np.abs(rinv @ per @ r - std).max() < 1e-12


def test_single_site_matches_its_loop_reference():
    rng = np.random.RandomState(6)
    dense = rng.uniform(0.5, 2.0, (2, 2)) + 1j * rng.uniform(-2.0, -0.5, (2, 2))
    for mat in (rm.SZ, rm.SP, rm.SM, rm.ID2, dense):
        for i in range(1, 5):
            ref = np.ones((1, 1))
            for k in range(1, 5):
                ref = np.kron(ref, mat if k == i else rm.ID2)
            assert np.array_equal(rm.embed(mat, i), ref), (mat, i)


def test_a_chain_step_refuses_a_mixed_spectator_k_pair():
    al = make_uq_symbolic(1.5).alphabet
    li, lj = (rm.DISPLAY_TO_LINEAR_2X2[k] - 1 for k in (1, 2))
    cells = [al["1"]] * 4
    cells[li], cells[lj] = al["K+"], al["K-"]
    s = FormalSum.unit(GridWord(GridShape(2, 2), tuple(cells)))
    with pytest.raises(ValueError, match=re.escape("mixed spectator K pair on (1, 2)")):
        rm._chain_transform(s, (1, 2), "conj", rm._k_swap(al))


def test_only_s_plus_and_s_minus_have_a_permuted_coproduct():
    with pytest.raises(ValueError, match="no permuted coproduct for 'K\\+'"):
        rm.delta_perm(OperatorTable(1.5, 1, 2), "K+")
