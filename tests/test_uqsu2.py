import cmath
import functools
import itertools
import json
import math
import re
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from hopf2d.coalgebra import (
    ConfigurationError,
    SingularParameterError,
    boxplus,
    check_antipode,
    check_counit,
)
from hopf2d.linops import ResourceLimitError, SparseOperator, worst_entry
from hopf2d import cli, linops, rmatrix as rm, uqsu2 as uq
from hopf2d.grids import FormalSum, GridWord, sum_difference
from hopf2d.instances import UQ_NAMES, make_uq_symbolic


def test_spin_half_rep_invariants():
    q = 2.0
    rep = uq.spin_half_rep(q)
    m = {s.name: rep.matrices[s] for s in rep.alphabet}
    assert np.allclose(m["K+"], np.diag([math.sqrt(2), 1 / math.sqrt(2)]))
    assert np.allclose(m["K+"] @ m["K-"], np.eye(2))
    assert np.allclose(m["K+"] @ m["S+"], q * m["S+"] @ m["K+"])
    assert np.allclose(m["K+"] @ m["S-"], m["S-"] @ m["K+"] / q)
    comm = m["S+"] @ m["S-"] - m["S-"] @ m["S+"]
    assert np.allclose(comm, np.diag([1.0, -1.0]))
    assert np.allclose(comm, (m["K+2"] - m["K-2"]) / (q - 1 / q))


def test_spin_half_rep_limits():
    rep1 = uq.spin_half_rep(1.0)
    m = {s.name: rep1.matrices[s] for s in rep1.alphabet}
    assert np.allclose(m["K+"], np.eye(2))
    rep4 = uq.spin_half_rep(4.0)
    m4 = {s.name: rep4.matrices[s] for s in rep4.alphabet}
    assert np.allclose(m4["K+"], np.diag([2.0, 0.5]))
    with pytest.raises(SingularParameterError):
        uq.spin_half_rep(0.0)


def _on_table(check, n, m):
    """``check`` on a new operator table of q at n x m, as a function of q."""
    return lambda q: check(uq.OperatorTable(q, n, m))


# every entry point that takes q, under the one q rule of instances.regular_q;
# a check reads its q from its table, so the table refuses the q first
Q_ENTRY_POINTS = {
    "make_uq_symbolic": make_uq_symbolic,
    "spin_half_rep": uq.spin_half_rep,
    "boxplus_op": lambda q: uq.boxplus_op("S+", q, 2, 2),
    "OperatorTable": lambda q: uq.OperatorTable(q, 2, 2),
    "check_ks_relation": _on_table(uq.check_ks_relation, 2, 2),
    "singlet_product": lambda q: uq.singlet_product(q, [(1, 2)], 2),
    "singlet_pair_checks": _on_table(uq.singlet_pair_checks, 1, 2),
    "r_matrix": rm.r_matrix,
    "conjugation_chain": _on_table(rm.conjugation_chain, 2, 2),
}

# the entry points where 1/(q - 1/q) appears, under instances.nonsingular_q;
# a table at q = +-1 is legal, and the check refuses it
NONSINGULAR_ENTRY_POINTS = {
    "singlet_product": Q_ENTRY_POINTS["singlet_product"],
    "singlet_pair_checks": Q_ENTRY_POINTS["singlet_pair_checks"],
    "vertical_singlet_residual": _on_table(uq.vertical_singlet_residual, 2, 2),
    "check_commutator": _on_table(uq.check_commutator, 2, 2),
    "kernel_2x2": _on_table(uq.kernel_2x2, 2, 2),
}

# the entry points that run at one size, each with its size
FIXED_SIZE_ENTRY_POINTS = {
    "singlet_pair_checks": (uq.singlet_pair_checks, (1, 2)),
    "vertical_singlet_residual": (uq.vertical_singlet_residual, (2, 2)),
    "kernel_2x2": (uq.kernel_2x2, (2, 2)),
    "delta_perm": (lambda ops: rm.delta_perm(ops, "S+"), (1, 2)),
    "plaquette_pair": (lambda ops: rm.plaquette_pair(ops, "S+"), (2, 2)),
    "conjugation_chain": (rm.conjugation_chain, (2, 2)),
}


@pytest.mark.parametrize("q", [math.nan, math.inf, complex(1.3, math.nan), complex(-math.inf, 1)])
def test_non_finite_q_is_a_configuration_error(q):
    # a NaN q must stop here, not reach the representation, whose K matrices
    # would carry it into the operators as NaN entries
    for build in Q_ENTRY_POINTS.values():
        with pytest.raises(ConfigurationError, match="finite"):
            build(q)


@pytest.mark.parametrize("entry", sorted(Q_ENTRY_POINTS))
def test_zero_q_is_a_singular_parameter_at_every_entry_point(entry):
    with pytest.raises(SingularParameterError, match="nonzero"):
        Q_ENTRY_POINTS[entry](0.0)


@pytest.mark.parametrize("entry", sorted(NONSINGULAR_ENTRY_POINTS))
@pytest.mark.parametrize("q", [1 + 1e-13, -1.0, complex(-1, 1e-13)])
def test_q_squared_one_is_singular_wherever_one_over_q_minus_inverse_q_appears(entry, q):
    with pytest.raises(SingularParameterError, match=r"q\*\*2 = 1"):
        NONSINGULAR_ENTRY_POINTS[entry](q)


@pytest.mark.parametrize("entry, size", [("check_commutator", (2, 2)), ("kernel_2x2", (2, 2)),
                                         ("singlet_pair_checks", (1, 2)),
                                         ("vertical_singlet_residual", (2, 2))])
def test_a_table_at_q_squared_one_is_refused_before_any_operator_is_built(entry, size):
    table = uq.OperatorTable(-1.0, *size)
    with pytest.raises(SingularParameterError, match=r"q\*\*2 = 1"):
        getattr(uq, entry)(table)
    assert not table


@pytest.mark.parametrize("entry", sorted(FIXED_SIZE_ENTRY_POINTS))
def test_a_table_of_another_size_is_refused_naming_both_sizes(entry):
    check, (n, m) = FIXED_SIZE_ENTRY_POINTS[entry]
    other = (2, 2) if (n, m) == (1, 2) else (1, 2)
    table = uq.OperatorTable(1.3, *other)
    with pytest.raises(ValueError, match=f"operator table of {other[0]}x{other[1]} "
                                         f"used at {n}x{m}"):
        check(table)
    assert not table


def test_spin_half_rep_names_the_example_symbols_without_building_it(monkeypatch):
    want = [(int(s), s.name) for s in make_uq_symbolic(1.3).alphabet]

    def refuse(q):
        raise AssertionError("spin_half_rep built an example")

    monkeypatch.setattr(uq, "make_uq_symbolic", refuse)
    assert [(int(s), s.name) for s in uq.spin_half_rep(1.3).alphabet] == want


def test_boxplus_op_q1_is_plain_sum():
    got = uq.boxplus_op("S+", 1.0, 2, 2)
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    plain = sum(
        np.kron(np.kron(np.eye(2 ** k), sp), np.eye(2 ** (3 - k))) for k in range(4)
    )
    assert np.abs(got.toarray() - plain).max() < 1e-14
    kop = uq.boxplus_op("K+", 1.0, 2, 2)
    assert np.abs(kop.toarray() - np.eye(16)).max() < 1e-14


def test_boxplus_op_size_cap():
    with pytest.raises(ResourceLimitError):
        uq.boxplus_op("S+", 2.0, 4, 5)
    with pytest.raises(ResourceLimitError):  # the first size past the cap
        uq.boxplus_op("S+", 2.0, 1, uq.SITE_CAP + 1)


def test_a_table_builds_one_example_for_every_generator(monkeypatch):
    built = []

    def make(q):
        built.append(q)
        return make_uq_symbolic(q)

    monkeypatch.setattr(uq, "make_uq_symbolic", make)
    table = uq.OperatorTable(1.3, 2, 3)
    assert built == [1.3]
    for gen in UQ_NAMES:
        table[gen]
        table.element(gen)
    assert sorted(table) == sorted(UQ_NAMES)
    assert built == [1.3]
    assert table.rep.alphabet is table.example.alphabet


def test_a_table_checks_q_and_the_cap_before_it_grows_anything(monkeypatch):
    def refuse(q):
        raise AssertionError("the table built an example")

    monkeypatch.setattr(uq, "make_uq_symbolic", refuse)
    with pytest.raises(ResourceLimitError):
        uq.OperatorTable(2.0, 4, 5)
    with pytest.raises(ConfigurationError):  # the q rule comes before the cap
        uq.OperatorTable(math.nan, 4, 5)


def _dense_placement(gen, q, n, m) -> np.ndarray:
    """The generator placed on an n x m lattice with dense ``np.kron``: at one
    site with K- before and K+ after it for S+ and S-, 1 around Sz, and on
    every site for 1 and the K letters."""
    rep = uq.spin_half_rep(q)
    mats = {s.name: rep.matrices[s] for s in rep.alphabet}
    sites = n * m
    if gen in ("S+", "S-", "Sz"):
        before, after = ("1", "1") if gen == "Sz" else ("K-", "K+")
        words = [[before] * k + [gen] + [after] * (sites - k - 1) for k in range(sites)]
    else:
        words = [[gen] * sites]
    return sum(functools.reduce(np.kron, [mats[name] for name in word]) for word in words)


@settings(max_examples=12, deadline=None)
@given(st.one_of(
    st.floats(min_value=0.5, max_value=2.0).map(complex),
    st.floats(min_value=0.2, max_value=math.pi - 0.2).map(lambda t: cmath.exp(1j * t)),
), st.sampled_from([(1, 2), (2, 2), (3, 2), (3, 3)]))
def test_boxplus_engine_matches_placement(q, size):
    n, m = size
    for gen in UQ_NAMES:
        got = uq.boxplus_op(gen, q, n, m).toarray()
        assert np.abs(got - _dense_placement(gen, q, n, m)).max() < 1e-10, gen


def test_placement_equals_the_grown_element_at_every_shape_up_to_the_cap():
    for q in (1.3, 0.7 + 0.2j):
        for n in range(1, uq.SITE_CAP + 1):
            for m in range(1, uq.SITE_CAP // n + 1):
                table = uq.OperatorTable(q, n, m)
                for gen in UQ_NAMES:
                    element = table.element(gen)
                    placed = uq._placement(gen, table.rep.alphabet, element.shape)
                    assert sum_difference(element, placed) == 0.0, (q, gen, n, m)


def test_boxplus_op_runs_kron_terms_once(monkeypatch):
    real, calls = linops.kron_terms, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linops, "kron_terms", counted)
    # a build through a kron_terms imported into uqsu2 counts too
    monkeypatch.setattr(uq, "kron_terms", counted, raising=False)
    uq.boxplus_op("S+", 1.3, 2, 3)
    assert len(calls) == 1


def test_ks_relation_and_commutator():
    for q, n, m in ((2.0, 2, 2), (1.1, 2, 2), (cmath.exp(1j * math.pi / 5), 2, 2), (1.1, 3, 2)):
        ops = uq.OperatorTable(q, n, m)
        assert uq.check_ks_relation(ops).ok
        assert uq.check_commutator(ops).ok


def test_ks_relation_and_commutator_at_the_16_site_cap():
    ops = uq.OperatorTable(1.3, 4, 4)
    assert uq.check_ks_relation(ops).ok
    assert uq.check_commutator(ops).ok


def test_ks_relation_and_commutator_at_the_18_site_cap():
    ops = uq.OperatorTable(1.3, 3, 6)
    assert uq.check_commutator(ops).ok
    assert uq.check_ks_relation(ops).ok


BUILD = uq.OperatorTable.__missing__


def _planted(gen, entry, delta=0.5):
    """``OperatorTable.__missing__`` with ``delta`` added at one entry of one generator."""
    return _planted_at(gen, {entry: delta})


def _planted_at(gen, deltas):
    """``OperatorTable.__missing__`` with ``deltas[entry]`` added at each
    entry of one generator; the table keeps the planted operator."""
    def missing(table, g):
        out = BUILD(table, g)
        if g != gen:
            return out
        mat = out.mat.tolil()
        for entry, delta in deltas.items():
            mat[entry] += delta
        op = table[g] = SparseOperator(mat)
        return op
    return missing


def _assert_names(inst, entry):
    worst = inst.details["worst_entry"]
    assert (worst["row"], worst["col"]) == entry
    lhs, rhs = complex(*worst["lhs"]), complex(*worst["rhs"])
    assert abs(abs(lhs - rhs) - inst.residual) <= 1e-12


def test_failing_ks_relation_names_the_planted_entry(monkeypatch):
    monkeypatch.setattr(uq.OperatorTable, "__missing__", _planted("S+", (5, 5)))
    report = uq.check_ks_relation(uq.OperatorTable(1.3, 2, 2))
    failing = [i for i in report.instances if not i.passed]
    assert sorted(i.input for i in failing) == ["K+*S+", "K-*S+"]
    for inst in failing:
        _assert_names(inst, (5, 5))
    assert all(not i.details for i in report.instances if i.passed)


def test_failing_commutator_names_the_planted_entry(monkeypatch):
    monkeypatch.setattr(uq.OperatorTable, "__missing__", _planted("K+2", (9, 9)))
    (inst,) = uq.check_commutator(uq.OperatorTable(1.3, 2, 2)).instances
    assert not inst.passed
    _assert_names(inst, (9, 9))


def _whole_matrix_sides(q, ops):
    """The (lhs, rhs) pairs of the four KS relations and the commutator, in
    report order, as whole-matrix sparse products: the reference the scaled
    and blocked checks must reproduce."""
    q = complex(q)
    for alpha, kname in ((1, "K+"), (-1, "K-")):
        for sign, sname in ((1, "S+"), (-1, "S-")):
            yield ops[kname] @ ops[sname], (q ** (sign * alpha)) * (ops[sname] @ ops[kname])
    sp_, sm_ = ops["S+"], ops["S-"]
    yield sp_ @ sm_ - sm_ @ sp_, (ops["K+2"] - ops["K-2"]) * (1.0 / (q - 1.0 / q))


def _checked_instances(ops):
    return uq.check_ks_relation(ops).instances + uq.check_commutator(ops).instances


def _same_as_whole_matrix(q, n, m):
    """Each instance has the residual bits and ``worst_entry`` of the whole-matrix check."""
    ops = uq.OperatorTable(q, n, m)
    for inst, (lhs, rhs) in zip(_checked_instances(ops), _whole_matrix_sides(q, ops)):
        assert _bits(inst.residual) == _bits((lhs - rhs).max_abs()), inst.input
        want = {} if inst.passed else {"worst_entry": worst_entry(lhs, rhs)}
        assert repr(inst.details) == repr(want), inst.input  # repr: nan == nan


def _bits(x):
    return struct.pack("<d", x)


DIM_3X4 = 2 ** 12


def test_planted_entries_at_block_edges_are_named(monkeypatch):
    b = uq.BLOCK_ROWS
    assert DIM_3X4 >= 3 * b  # 3x4 spans a first, a middle and a last block
    # the last row, the first row of a block (on and off the diagonal) and the
    # last row before that block boundary
    for entry in ((DIM_3X4 - 1, DIM_3X4 - 1), (b, b), (2 * b, 7), (b - 1, b - 1)):
        monkeypatch.setattr(uq.OperatorTable, "__missing__", _planted("K+2", entry))
        (inst,) = uq.check_commutator(uq.OperatorTable(1.3, 3, 4)).instances
        assert not inst.passed
        _assert_names(inst, entry)
        _same_as_whole_matrix(1.3, 3, 4)
        if entry[0] == entry[1]:
            monkeypatch.setattr(uq.OperatorTable, "__missing__", _planted("S+", entry))
            report = uq.check_ks_relation(uq.OperatorTable(1.3, 3, 4))
            assert sorted(i.input for i in report.instances if not i.passed) == ["K+*S+", "K-*S+"]
            for inst in report.instances:
                if not inst.passed:
                    _assert_names(inst, entry)
            _same_as_whole_matrix(1.3, 3, 4)


def test_nan_in_the_last_block_fails_the_checks(monkeypatch):
    entry = (DIM_3X4 - 2, DIM_3X4 - 2)
    monkeypatch.setattr(uq.OperatorTable, "__missing__", _planted("S+", entry, math.nan))
    ks = uq.check_ks_relation(uq.OperatorTable(1.3, 3, 4))
    (comm,) = uq.check_commutator(uq.OperatorTable(1.3, 3, 4)).instances
    for inst in [comm] + [i for i in ks.instances if i.input == "K+*S+"]:
        assert math.isnan(inst.residual) and not inst.passed
    assert math.isnan(ks.max_residual)
    _same_as_whole_matrix(1.3, 3, 4)
    # a NaN in the last block beats a larger finite residual in the first one
    monkeypatch.setattr(uq.OperatorTable, "__missing__",
                        _planted_at("K+2", {(5, 5): 1e6, entry: math.nan}))
    (comm,) = uq.check_commutator(uq.OperatorTable(1.3, 3, 4)).instances
    assert math.isnan(comm.residual) and not comm.passed
    worst = comm.details["worst_entry"]
    assert (worst["row"], worst["col"]) == entry and math.isnan(worst["rhs"][0])
    _same_as_whole_matrix(1.3, 3, 4)


_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
                   st.floats(-4, 4))


@st.composite
def _ks_tables(draw):
    """A 1 x 2 operator table at a real q whose S+ and S- store any
    duplicate-free coordinates (none at all, zeros, NaN and inf included),
    columns in any order, and whose K strings store every diagonal entry,
    zero or not.  Real K entries and a real q keep the scaled entries free
    of rounding differences between numpy's and scipy's complex products."""
    table, n = uq.OperatorTable(draw(st.sampled_from([1.3, -0.7, 2.0])), 1, 2), 4
    for g in ("S+", "S-"):
        rows = [draw(st.permutations(range(n)))[:draw(st.integers(0, n))] for _ in range(n)]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        indices = np.array([c for r in rows for c in r], dtype=np.int32)
        data = np.array([complex(draw(_VALUE), draw(_VALUE)) for _ in indices], dtype=complex)
        table[g] = SparseOperator._wrap(sp.csr_matrix((data, indices, indptr), shape=(n, n)))
    for g in ("K+", "K-"):
        diagonal = np.array([draw(_VALUE) for _ in range(n)], dtype=complex)
        table[g] = SparseOperator._wrap(
            sp.csr_matrix((diagonal, np.arange(n), np.arange(n + 1)), shape=(n, n)))
    return table


@settings(max_examples=200, deadline=None)
@given(_ks_tables())
def test_ks_array_comparison_has_the_bits_of_the_whole_matrix_difference(table):
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and inf - inf
        report = uq.check_ks_relation(table)
        for inst, (lhs, rhs) in zip(report.instances,
                                    itertools.islice(_whole_matrix_sides(table.q, table), 4)):
            want = (lhs - rhs).max_abs()
            dense = np.abs(lhs.toarray() - rhs.toarray()).max()
            if np.isnan(want) or np.isnan(dense):
                assert np.isnan(inst.residual) and np.isnan(want) and np.isnan(dense)
            else:
                assert _bits(inst.residual) == _bits(want) == _bits(dense), inst.input
            assert inst.passed == (want <= uq.EQ_TOL), inst.input


def test_a_passing_ks_relation_wraps_no_operator(monkeypatch):
    monkeypatch.setattr(uq, "_on_coordinates", lambda *args: pytest.fail("wrapped an operator"))
    assert uq.check_ks_relation(uq.OperatorTable(1.3, 3, 4)).ok


def test_ks_relation_refuses_a_k_string_off_the_diagonal(monkeypatch):
    monkeypatch.setattr(uq.OperatorTable, "__missing__", _planted("K-", (1, 0)))
    with pytest.raises(AssertionError, match="off-diagonal"):
        uq.check_ks_relation(uq.OperatorTable(1.3, 2, 2))


_REAL_Q = st.floats(min_value=0.2, max_value=5.0).filter(lambda x: abs(x - 1) > 1e-3)


@settings(max_examples=25, deadline=None)
@given(_REAL_Q, st.booleans(), st.sampled_from([(2, 2), (3, 4)]))
def test_real_q_residuals_have_the_bits_of_the_whole_matrix_checks(x, negative, size):
    _same_as_whole_matrix(-x if negative else x, *size)


@settings(max_examples=1, deadline=None)
@example(-0.8)
@given(_REAL_Q)
def test_real_q_residuals_have_the_bits_of_the_whole_matrix_checks_at_4x4(x):
    _same_as_whole_matrix(x, 4, 4)


# the scaled K S and S K entries come from numpy's complex product, not
# scipy's: for complex q they may differ in the last bits
KS_ROUNDING = 4 * np.finfo(float).eps


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=0.1, max_value=3.0),
       st.sampled_from([(2, 2), (3, 4)]))
def test_complex_q_ks_residuals_agree_with_the_products_to_rounding(r, theta, size):
    q = r * cmath.exp(1j * theta)
    ops = uq.OperatorTable(q, *size)
    *ks, comm = _checked_instances(ops)
    *ks_sides, comm_sides = _whole_matrix_sides(q, ops)
    for inst, (lhs, rhs) in zip(ks, ks_sides):
        largest = max(lhs.max_abs(), rhs.max_abs())
        assert abs(inst.residual - (lhs - rhs).max_abs()) <= KS_ROUNDING * largest
    lhs, rhs = comm_sides
    assert _bits(comm.residual) == _bits((lhs - rhs).max_abs())


def _plant(monkeypatch, plant):
    """Make the engine grow S+ on 2 x 2 with one word error: ``plant`` is
    "swap" (K+ for K- at the first site of K- S+ K+ K+, linear order),
    "drop" (that word left out) or "coefficient" (its coefficient 2.0).
    Returns the word the mismatch names and its engine and placement
    coefficients."""
    ex = make_uq_symbolic(1.3)
    grown = boxplus(ex, "S+", 2, 2)
    terms = dict(grown.unordered_items())
    word = GridWord(grown.shape, ex.alphabet.words(["K-", "S+", "K+", "K+"]))
    assert terms[word] == 1.0
    if plant == "swap":
        swapped = GridWord(grown.shape, ex.alphabet.words(["K+", "S+", "K+", "K+"]))
        terms[swapped] = terms.pop(word)
        named, got, want = swapped, 1.0, 0.0
    elif plant == "drop":
        del terms[word]
        named, got, want = word, 0.0, 1.0
    else:
        terms[word] = 2.0
        named, got, want = word, 2.0, 1.0
    monkeypatch.setattr(uq.coalgebra, "boxplus", lambda *args: FormalSum(grown.shape, terms))
    return named, got, want


@pytest.mark.parametrize("plant", ["swap", "drop", "coefficient"])
def test_word_mismatch_names_the_planted_word(monkeypatch, plant):
    named, got, want = _plant(monkeypatch, plant)
    message = f"'word': '{named!r}', 'got': [{got}, 0.0], 'want': [{want}, 0.0]"
    with pytest.raises(AssertionError, match=re.escape(message)):
        uq.boxplus_op("S+", 1.3, 2, 2)


def test_build_op_surfaces_a_planted_word_as_the_engine_error(monkeypatch, tmp_path):
    named, _, _ = _plant(monkeypatch, "swap")
    out = tmp_path / "operators"
    with pytest.raises(AssertionError, match=re.escape(f"'word': '{named!r}'")):
        cli.main(["build-op", "--gen", "S+", "--q", "1.3", "--size", "2x2", "--out", str(out)])
    assert not out.exists()


def _counting(monkeypatch):
    """Patch ``OperatorTable.__missing__`` to count its builds per (gen, q, n, m)."""
    calls = {}

    def missing(table, gen):
        key = (gen, complex(table.q), table.n, table.m)
        calls[key] = calls.get(key, 0) + 1
        return BUILD(table, gen)

    monkeypatch.setattr(uq.OperatorTable, "__missing__", missing)
    return calls


def test_checks_sharing_a_table_build_each_operator_once(monkeypatch):
    calls = _counting(monkeypatch)
    ops = uq.OperatorTable(1.3, 2, 3)
    assert uq.check_ks_relation(ops).ok
    assert uq.check_commutator(ops).ok
    assert calls == {(g, 1.3, 2, 3): 1 for g in ("K+", "K-", "S+", "S-", "K+2", "K-2")}
    plaquette = uq.OperatorTable(1.3, 2, 2)
    uq.kernel_2x2(plaquette)
    uq.vertical_singlet_residual(plaquette)
    assert sorted(plaquette) == ["S+", "S-"]
    assert calls[("S+", 1.3, 2, 2)] == calls[("S-", 1.3, 2, 2)] == 1


def test_commutator_rejects_singular_q():
    with pytest.raises(SingularParameterError):
        uq.check_commutator(uq.OperatorTable(1.0, 2, 2))
    with pytest.raises(SingularParameterError):
        uq.check_commutator(uq.OperatorTable(-1.0, 2, 2))


def test_telescoping_residual_flat_in_q():
    # residual stays at machine-epsilon scale even for large q
    res = []
    for q in (1.5, 3.0, 8.0):
        report = uq.check_commutator(uq.OperatorTable(q, 2, 2), tol=1e-8)
        res.append(report.max_residual)
    assert max(res) < 1e-10 * 8 ** 2


# ---------------------------------------------------------------------------
# q-singlets


def test_singlet_pair_identities():
    for q in (2.0, 3.0, cmath.exp(1j * math.pi / 5)):
        assert uq.singlet_pair_checks(uq.OperatorTable(q, 1, 2)).ok


def test_singlet_inversion_ratio_branch_q2():
    # at q = 2 the ratio sqrt(1/q - q)/sqrt(q - 1/q) is the imaginary unit
    q = 2.0
    s = uq.singlet_product(q, [(1, 2)], 2)
    rep = uq.spin_half_rep(q)
    km = rep.matrices[rep.alphabet["K-"]]
    kp = rep.matrices[rep.alphabet["K+"]]
    lhs = np.kron(km, kp) @ s
    assert np.abs(lhs - 1j * uq.singlet_product(0.5, [(1, 2)], 2)).max() < 1e-12


def test_singlet_singular_normalization():
    with pytest.raises(SingularParameterError):
        uq.singlet_product(1.0, [(1, 2)], 2)


def test_kernel_2x2_dimension_and_family():
    rng = np.random.RandomState(3)
    qs = [complex(x) for x in rng.uniform(1.2, 2.5, 5)]
    qs += [cmath.exp(1j * t) for t in rng.uniform(0.3, 2.5, 5)]
    for q in qs:
        k = uq.kernel_2x2(uq.OperatorTable(q, 2, 2))
        assert k["dimension"] == 2, q
        assert max(k["family_residuals"].values()) < 1e-10
        assert k["reversed_orientation_residual"] > 1e-2


def test_kernel_q1_su2_decomposition():
    # undeformed: half**4 = 0 (x2) + 1 (x3) + 2; joint kernel of totals is 2
    k = uq.kernel_2x2(uq.OperatorTable(1.0 + 1e-8, 2, 2))  # just off the singular normalization
    assert k["dimension"] == 2
    sp = uq.boxplus_op("S+", 1.0, 2, 2).toarray()
    sm = uq.boxplus_op("S-", 1.0, 2, 2).toarray()
    stacked = np.vstack([sp, sm])
    sigma = np.linalg.svd(stacked, compute_uv=False)
    assert int((sigma < 1e-10 * sigma.max()).sum()) + 16 - len(sigma) == 2


def test_an_inf_in_one_stored_entry_of_s_minus_fails_the_kernel_as_nan(tmp_path, monkeypatch):
    entry = tuple(np.argwhere(uq.boxplus_op("S-", 2.0, 2, 2).toarray())[0].tolist())
    monkeypatch.setattr(uq.OperatorTable, "__missing__", _planted_at("S-", {entry: math.inf}))
    out = tmp_path / "r"
    argv = ["verify", "--example", "uq", "--q", "2.0", "--checks", "kernel", "--out", str(out)]
    assert cli.main(argv) == 1
    (inst,) = json.loads((out / "kernel.json").read_text())["instances"]
    assert (inst["pass"], inst["residual"]) == (False, "nan")
    assert inst["details"] == {"basis": [], "dimension": None}  # not measured


def test_vertical_singlet_residual_matches_coefficient():
    for q in (2.0, 3.0, cmath.exp(1j * math.pi / 5)):
        out = uq.vertical_singlet_residual(uq.OperatorTable(q, 2, 2))
        for gen in ("S+", "S-"):
            assert out[gen]["pass"], (q, gen, out[gen])
            assert abs(out[gen]["measured_coefficient"] - abs(out["coefficient"])) < 1e-10


def test_vertical_singlet_coefficient_vanishes_towards_q1():
    values = [abs(uq.vertical_singlet_residual(uq.OperatorTable(q, 2, 2))["coefficient"])
              for q in (1.5, 1.1, 1.01)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.08


# ---------------------------------------------------------------------------
# counit and antipode families


def test_counit_antipode_families():
    for q in (2.0, 1.3, cmath.exp(0.4j)):
        ex = make_uq_symbolic(q)
        rep = uq.spin_half_rep(q, ex.alphabet)
        for n in (1, 2, 3):
            for direction in ("x", "y"):
                assert check_counit(ex, direction, n, tol=1e-10).ok
                assert check_antipode(ex, rep, direction, n, tol=1e-10).ok


def test_engine_matches_placement_all_shapes_up_to_nine_sites():
    q = 1.7
    shapes = [(n, m) for n in range(1, 10) for m in range(1, 10) if n * m <= 9]
    for (n, m) in shapes:
        for gen in UQ_NAMES:
            got = uq.boxplus_op(gen, q, n, m).toarray()
            assert np.abs(got - _dense_placement(gen, q, n, m)).max() < 1e-10, (gen, n, m)


def test_singlet_identities_below_unit_q():
    # 0 < q < 1 makes the normalization imaginary; identities hold as stated
    assert uq.singlet_pair_checks(uq.OperatorTable(0.5, 1, 2)).ok
    out = uq.vertical_singlet_residual(uq.OperatorTable(0.5, 2, 2))
    assert out["S+"]["pass"] and out["S-"]["pass"]


def test_singlet_states_match_the_basis_state_loop():
    q = 0.848 + 0.530j
    # the normalized two-site singlet (q^(1/2) |01> - q^(-1/2) |10>) / sqrt(q - 1/q)
    den = cmath.sqrt(q - 1.0 / q)
    amplitude = {(0, 1): cmath.sqrt(q) / den, (1, 0): -1.0 / cmath.sqrt(q) / den}
    for sites, pairs in ((2, [(1, 2)]), (3, [(3, 1)]), (4, [(3, 1), (4, 2)]),
                         (4, [(1, 2), (3, 4)]), (4, [(3, 2), (4, 1)])):
        ref = np.zeros(2 ** sites, dtype=complex)
        for b in range(2 ** sites):
            bits = [(b >> (sites - 1 - s)) & 1 for s in range(sites)]
            amp = 1.0 + 0j
            for i, j in pairs:
                amp *= amplitude.get((bits[i - 1], bits[j - 1]), 0j)
            covered = {s for pair in pairs for s in pair}
            ref[b] = 0j if any(bits[s - 1] for s in range(1, sites + 1) if s not in covered) else amp
        assert np.array_equal(uq.singlet_product(q, pairs, sites), ref)


def test_singlet_pairs_must_be_disjoint():
    with pytest.raises(ValueError, match="pairs must be disjoint"):
        uq.singlet_product(1.3, [(1, 2), (2, 3)], 3)
