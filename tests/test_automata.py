import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopf2d import automata, uqsu2 as uq
from hopf2d.cli import _taft
from hopf2d.coalgebra import OperatorTable
from hopf2d.grids import FormalSum, GridShape, GridWord
from hopf2d.instances import UQ_NAMES, regular_rep
from hopf2d.linops import RepresentationError, evaluate


def dense(op: automata.MPO) -> np.ndarray:
    """The MPO contracted to its full matrix, site 1 the leftmost factor."""
    sites, _, d, _, _ = op.tensors.shape
    acc = np.einsum("a,arcb->rcb", op.left, op.tensors[0])
    for w in op.tensors[1:]:
        acc = np.einsum("rcb,bxyd->rxcyd", acc, w).reshape(acc.shape[0] * d,
                                                          acc.shape[1] * d, -1)
    return acc @ op.right


@pytest.mark.parametrize("size", [(1, 1), (2, 2), (3, 4), (6, 6), (10, 10)])
def test_placed_generators_have_two_states_and_k_strings_one(size):
    ops = uq.OperatorTable(1.3, *size)
    states = {gen: automata.Automaton(ops.element(gen)).states for gen in UQ_NAMES}
    sites = size[0] * size[1]
    assert states == {gen: 1 if gen in ("1", "K+", "K-", "K+2", "K-2") or sites == 1 else 2
                      for gen in UQ_NAMES}


@pytest.mark.parametrize("q", [1.3, 0.7 + 0.2j])
@pytest.mark.parametrize("size", [(1, 2), (2, 2), (2, 3)])
def test_the_mpo_of_every_element_is_its_evaluated_operator(q, size):
    ops = uq.OperatorTable(q, *size)
    for gen in UQ_NAMES:
        assert np.abs(dense(ops.mpo(gen)) - ops[gen].toarray()).max() < 1e-13, gen


@pytest.mark.parametrize("n, size", [(2, (2, 2)), (3, (1, 2)), (3, (2, 1))])
def test_the_mpo_of_every_taft_element_is_its_evaluated_operator(n, size):
    # the regular representation: one site of dimension n**2
    taft = _taft(n)
    table = OperatorTable(taft, regular_rep(taft), *size)
    for sym in taft.grow_symbols:
        assert np.abs(dense(table.mpo(sym)) - table[sym].toarray()).max() < 1e-13, sym


@st.composite
def _sum_pairs(draw):
    """Two formal sums of random uq words on one row of 1 to 5 sites, with
    coefficients from a small pool, so that prefixes, suffixes and
    coefficients repeat, and a spin-1/2 representation."""
    shape = GridShape(1, draw(st.integers(1, 5)))
    rep = uq.spin_half_rep(draw(st.sampled_from([1.3, 0.6 + 0.5j, cmath.exp(2j)])))
    letters = [rep.alphabet[name] for name in ("1", "S+", "S-", "Sz", "K+")]
    pool = [1.0, -1.0, 0.5j, 2.0 - 1.0j]
    word = st.lists(st.sampled_from(letters), min_size=shape.sites,
                    max_size=shape.sites).map(tuple)

    def one_sum():
        words = draw(st.lists(word, max_size=12, unique=True))
        return FormalSum(shape, [(GridWord(shape, w), draw(st.sampled_from(pool)))
                                 for w in words])

    return one_sum(), one_sum(), rep


@settings(max_examples=80, deadline=None)
@given(_sum_pairs())
def test_automaton_products_and_differences_match_the_dense_matrices(pair):
    s, t, rep = pair
    a, b = automata.Automaton(s).mpo(rep), automata.Automaton(t).mpo(rep)
    want_a, want_b = evaluate(s, rep).toarray(), evaluate(t, rep).toarray()
    assert np.abs(dense(a) - want_a).max() < 1e-13
    assert np.abs(dense(b) - want_b).max() < 1e-13
    assert np.abs(dense(a @ b) - want_a @ want_b).max() < 1e-12
    assert np.abs(dense(a - b * 0.5j) - (want_a - 0.5j * want_b)).max() < 1e-13
    norm_a, norm_diff = np.linalg.norm(want_a), np.linalg.norm(want_a - want_b)
    res = automata.relative_difference(a, b)
    if norm_a == 0:
        assert res == (0.0 if norm_diff == 0 else math.inf)
    else:
        assert abs(res - norm_diff / norm_a) <= 1e-12 * max(1.0, norm_diff / norm_a)
    if norm_diff > 0:
        witness = automata.witness_entry(a, b)
        row, col = witness["row"], witness["col"]
        assert complex(*witness["lhs"]) == pytest.approx(want_a[row, col], abs=1e-12)
        assert complex(*witness["rhs"]) == pytest.approx(want_b[row, col], abs=1e-12)
        # each step keeps at least 1/d**2 of the weight: the entry is no roundoff
        assert abs(want_a[row, col] - want_b[row, col]) >= 0.99 * norm_diff / 2 ** s.shape.sites
        assert automata.witness_entry(a, b) == witness


@pytest.mark.parametrize("size", [(2, 2), (4, 5), (10, 10)])
def test_a_tiny_relative_difference_is_measured_not_rounded_away(size):
    # a norm from squared norms would read 1e-12 as noise of order 1e-8
    s = uq.OperatorTable(0.7 + 0.2j, *size).mpo("S+")
    for delta in (1e-12, 1e-9):
        assert abs(automata.relative_difference(s, s * (1 + delta)) - delta) < 1e-14


def test_a_letter_the_representation_names_otherwise_is_refused():
    ops = uq.OperatorTable(1.3, 2, 2)
    other = uq.spin_half_rep(1.3, type(ops.rep.alphabet)(["1", "S-", "S+", "Sz", "K+",
                                                           "K-", "K+2", "K-2"]))
    with pytest.raises(RepresentationError):
        automata.Automaton(ops.element("S+")).mpo(other)


def test_the_empty_sum_is_the_zero_mpo():
    rep = uq.spin_half_rep(1.3)
    zero = automata.Automaton(FormalSum(GridShape(2, 2), [])).mpo(rep)
    assert np.abs(dense(zero)).max() == 0.0
    shape = GridShape(2, 2)
    one = automata.Automaton(FormalSum(shape, [(GridWord(shape, rep.alphabet.words(["1"] * 4)),
                                                1.0)])).mpo(rep)
    assert automata.relative_difference(one, zero) == 1.0
    assert automata.relative_difference(zero, one) == math.inf
    assert automata.relative_difference(zero, zero) == 0.0


def test_a_non_finite_number_gives_nan_and_no_witness():
    s = uq.OperatorTable(cmath.exp(0.3j), 2, 2).mpo("S+")
    bad = automata.MPO(s.tensors.copy(), s.left, s.right)
    bad.tensors[1, 0, 0, 0, 0] = math.nan
    assert math.isnan(automata.relative_difference(s, bad))
    assert automata.witness_entry(s, bad) == {}
