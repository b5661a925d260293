import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hopf2d.grids import Alphabet, FormalSum, GridShape, GridWord, join, word1
from hopf2d import linops
from hopf2d.linops import (
    Representation,
    RepresentationError,
    ResourceLimitError,
    SparseOperator,
    evaluate,
    kron_terms,
    worst_entry,
    read_matrix_market,
)
from hopf2d.instances import make_cyclic_group, make_pivot, make_uq_symbolic, regular_rep
from hopf2d.uqsu2 import boxplus_op, spin_half_rep
from hopf2d.coalgebra import boxplus, check_antipode, check_homomorphism


@pytest.fixture(scope="module")
def uq2():
    ex = make_uq_symbolic(2.0)
    return ex, spin_half_rep(2.0, ex.alphabet)


def test_evaluate_kplus_diagonal():
    q = 4.0
    ex = make_uq_symbolic(q)
    rep = spin_half_rep(q, ex.alphabet)
    op = evaluate(FormalSum.unit(word1(ex.alphabet["K+"])), rep)
    assert np.allclose(op.toarray(), np.diag([2.0, 0.5]))


def test_evaluate_q1_plaquette_k_is_identity():
    ex = make_uq_symbolic(1.0)
    rep = spin_half_rep(1.0, ex.alphabet)
    op = evaluate(boxplus(ex, "K+", 2, 2), rep)
    assert np.allclose(op.toarray(), np.eye(16))


def test_evaluate_2x2_splus_matches_hand_kronecker(uq2):
    ex, rep = uq2
    mats = {s.name: rep.matrices[s] for s in rep.alphabet}

    def kron4(names):
        out = mats[names[0]]
        for nm in names[1:]:
            out = np.kron(out, mats[nm])
        return out

    # the four plaquette grids as (bottom row, top row); linear order is
    # bottom row then top row
    terms = [
        (("K-", "K-"), ("S+", "K+")),
        (("K-", "K-"), ("K-", "S+")),
        (("S+", "K+"), ("K+", "K+")),
        (("K-", "S+"), ("K+", "K+")),
    ]
    hand = sum(kron4(bot + top) for bot, top in terms)
    op = evaluate(boxplus(ex, "S+", 2, 2), rep)
    assert (op - type(op)(hand)).max_abs() < 1e-12


def test_evaluate_unknown_symbol():
    ab = Alphabet(["u", "w"])
    rep = Representation(ab, {"u": np.eye(2)})
    with pytest.raises(RepresentationError):
        evaluate(FormalSum.unit(word1(ab["w"])), rep)


def test_evaluate_rejects_a_sum_of_another_alphabet():
    # symbols compare as their ids: pivot's a, b, v are ids 0-2, which the
    # deformed-su(2) alphabet names 1, S+, S-
    s = boxplus(make_pivot(theta=0.0), "v", 1, 2)
    with pytest.raises(RepresentationError, match="symbol id 0 is 'a' in the sum but '1' "):
        evaluate(s, spin_half_rep(1.3))


@settings(max_examples=20, deadline=None)
@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_evaluate_linear(al, be):
    ex = make_uq_symbolic(1.5)
    rep = spin_half_rep(1.5, ex.alphabet)
    x = boxplus(ex, "S+", 1, 2)
    y = boxplus(ex, "K-", 1, 2)
    lhs = evaluate(x * al + y * be, rep)
    rhs = evaluate(x, rep) * al + evaluate(y, rep) * be
    assert (lhs - rhs).max_abs() <= 1e-10 * (1 + abs(al) + abs(be))


def test_concat_evaluate_consistency_1x2_2x1(uq2):
    ex, rep = uq2
    for sym1 in ("S+", "K-"):
        for sym2 in ("K+", "S-"):
            u, w = word1(ex.alphabet[sym1]), word1(ex.alphabet[sym2])
            m1 = rep.matrices[ex.alphabet[sym1]]
            m2 = rep.matrices[ex.alphabet[sym2]]
            got_h = evaluate(FormalSum.unit(join("x", u, w)), rep).toarray()
            assert np.allclose(got_h, np.kron(m1, m2))
            got_v = evaluate(FormalSum.unit(join("y", u, w)), rep).toarray()
            # first factor is the bottom row = earlier linear site = left factor
            assert np.allclose(got_v, np.kron(m1, m2))


def test_concat_evaluate_2x2_interleaving(uq2):
    # columns interleave: kron of column evaluations needs the middle swap
    ex, rep = uq2
    al = ex.alphabet
    left = GridWord(GridShape(2, 1), (al["S+"], al["K+"]))
    right = GridWord(GridShape(2, 1), (al["K-"], al["K-"]))
    combined = evaluate(FormalSum.unit(join("x", left, right)), rep).toarray()
    kron_cols = np.kron(evaluate(FormalSum.unit(left), rep).toarray(),
                        evaluate(FormalSum.unit(right), rep).toarray())
    swap_mid = np.zeros((16, 16))
    for b in range(16):
        bits = [(b >> k) & 1 for k in (3, 2, 1, 0)]
        bits[1], bits[2] = bits[2], bits[1]
        b2 = sum(v << k for v, k in zip(bits, (3, 2, 1, 0)))
        swap_mid[b2, b] = 1
    assert np.allclose(combined, swap_mid @ kron_cols @ swap_mid.T)


def test_matrix_market_round_trip(tmp_path, uq2):
    ex, rep = uq2
    op = evaluate(boxplus(ex, "S-", 2, 2), rep)
    path = tmp_path / "op.mtx"
    op.write_matrix_market(path)
    header = path.read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix coordinate complex general"
    back = read_matrix_market(path)
    assert np.abs((back - op.mat).toarray()).max() < 1e-15


def test_matrix_market_complex_entries(tmp_path):
    ab = Alphabet(["u"])
    rep = Representation(ab, {"u": np.array([[1j, 0], [2 - 3j, 0]])})
    op = evaluate(FormalSum.unit(word1(ab["u"])), rep)
    path = tmp_path / "c.mtx"
    op.write_matrix_market(path)
    back = read_matrix_market(path).toarray()
    assert back[0, 0] == 1j and back[1, 0] == 2 - 3j


def _write_matrix_market_per_entry(mat, path):
    """The per-entry writer the formatted-once writer replaced, as its oracle:
    every nonzero entry of ``mat``, duplicates summed, in row-major order."""
    coo = sp.coo_matrix(mat)
    coo.sum_duplicates()
    coo.eliminate_zeros()
    order = np.lexsort((coo.col, coo.row))
    data = coo.data[order]
    cells = zip((coo.row[order] + 1).tolist(), (coo.col[order] + 1).tolist(),
                data.real.tolist(), data.imag.tolist())
    body = ("%d %d %.17g %.17g\n" * coo.nnz) % tuple(x for cell in cells for x in cell)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate complex general\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        fh.write(body)


_SPECIAL = [0.0, -0.0, 1.0, -2.5, 1e-300, np.inf, -np.inf, np.nan,
            np.frombuffer(np.uint64(0xFFF8000000000001).tobytes())[0]]  # NaN, other payload


def _random_csr(rng, n, nnz, pool):
    vals = rng.choice(pool, nnz) if pool is not None else (
        rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz))
    return sp.csr_matrix((vals, (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
                         shape=(n, n))


def _writer_cases():
    rng = np.random.default_rng(9)
    few = np.array([0.5 - 1j, 2.0, -1j, 1e-17 + 3j])
    special = np.array([complex(a, b) for a in _SPECIAL for b in _SPECIAL])
    coo = sp.coo_matrix((np.array([1 + 1j, 2.0, -0.0 + 1j, 1e-16, 3j]),
                         (np.array([2, 0, 2, 0, 1]), np.array([1, 3, 1, 3, 0]))), shape=(3, 4))
    dense = rng.standard_normal((16, 16)) * (rng.random((16, 16)) < 0.3)
    return {
        "few distinct values": _random_csr(rng, 300, 2000, few),
        "all values distinct": _random_csr(rng, 300, 2000, None),
        "nan, inf and signed zeros": sp.csr_matrix(
            (special, (np.arange(special.size) // 9, np.arange(special.size) % 9)), shape=(9, 9)),
        "coo with duplicates": coo,
        "csr with unsorted columns": sp.csr_matrix(
            (np.array([1j, 2.0, 3.0]), np.array([2, 0, 1]), np.array([0, 2, 3])), shape=(2, 3)),
        "dense array": dense + 1j * dense[::-1],
        "dense real array": dense,
        "empty": sp.csr_matrix((5, 7), dtype=complex),
        "1x1": np.array([[-0.0 + 2.5j]]),
    }


@pytest.mark.parametrize("case", sorted(_writer_cases()))
def test_matrix_market_writer_matches_the_per_entry_writer(tmp_path, case):
    mat = _writer_cases()[case]
    got, want = tmp_path / "got.mtx", tmp_path / "want.mtx"
    nnz = SparseOperator(mat).write_matrix_market(got)
    _write_matrix_market_per_entry(mat, want)
    assert got.read_bytes() == want.read_bytes()
    assert nnz == int(got.read_text().splitlines()[1].split()[2])
    back = read_matrix_market(got).toarray()
    ref = sp.coo_matrix(mat).toarray()
    assert back.shape == ref.shape
    np.testing.assert_array_equal(back, ref)  # NaN equals NaN here


# ---------------------------------------------------------------------------
# the Kronecker kernel against a dense numpy oracle

_entry = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2, allow_nan=False,
                                                   allow_infinity=False))


@st.composite
def _kron_sums(draw):
    """(d, sites, terms, matrices): dense or non-monomial complex factors with
    zero entries, shared between terms, and possibly no terms at all."""
    d = draw(st.sampled_from([2, 3]))
    sites = draw(st.integers(1, 4))
    mats = draw(st.lists(st.lists(_entry, min_size=d * d, max_size=d * d)
                         .map(lambda e: np.array(e, dtype=complex).reshape(d, d)),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(_entry, st.lists(st.integers(0, len(mats) - 1),
                                                     min_size=sites, max_size=sites)),
                          max_size=4))
    return d, sites, [(c, [mats[i] for i in idx]) for c, idx in picks], mats


def _numpy_kron_sum(terms, d, sites):
    out = np.zeros((d ** sites, d ** sites), dtype=complex)
    for coeff, factors in terms:
        acc = factors[0]
        for f in factors[1:]:
            acc = np.kron(acc, f)
        out += coeff * acc
    return out


@settings(max_examples=80, deadline=None)
@given(_kron_sums())
def test_kron_terms_and_evaluate_match_numpy_kron_chain(case):
    d, sites, terms, mats = case
    want = _numpy_kron_sum(terms, d, sites)
    atol = 1e-13 * (1.0 + np.abs(want).max())
    got = kron_terms(terms, d, sites)
    assert got.dim == d ** sites
    assert np.allclose(got.toarray(), want, rtol=0, atol=atol)

    # the same terms as a formal sum on a 1 x sites strip
    ab = Alphabet([f"m{i}" for i in range(len(mats))])
    rep = Representation(ab, {f"m{i}": m for i, m in enumerate(mats)})
    shape = GridShape(1, sites)
    sym = {id(m): ab[f"m{i}"] for i, m in enumerate(mats)}
    s = FormalSum(shape, [(GridWord(shape, tuple(sym[id(f)] for f in factors)), c)
                          for c, factors in terms])
    oracle = _numpy_kron_sum([(c, [rep[x] for x in w.cells]) for w, c in s.items()], d, sites)
    assert np.allclose(evaluate(s, rep).toarray(), oracle, rtol=0, atol=atol)


@pytest.mark.parametrize("copies", [1, 2])
def test_kron_terms_stores_each_sum_as_added_to_zero(copies):
    # (0 - 2j) * (0 - 3j) = -6 - 0j: accumulated from zero, as with repeated
    # coordinates (copies=2), and without a repeat, its -0.0 part reads +0.0
    a, b = np.diag([complex(0, -2), 1.0]), np.diag([complex(0, -3), -1.0])
    want = np.zeros((4, 4), dtype=complex)
    for _ in range(copies):
        want += 1.0 * np.kron(a, b)
    got = kron_terms([(1.0, [a, b])] * copies, 2, 2)
    assert got.nnz == 4  # stored row-major; toarray would add each entry to a zero
    assert np.array_equal(got.mat.data.view(np.int64), want[want != 0].view(np.int64))


def test_kron_terms_rejects_wrong_factor_count_and_shape():
    with pytest.raises(ValueError):
        kron_terms([(1.0, [np.eye(2)])], 2, 2)
    with pytest.raises(ValueError):
        kron_terms([(1.0, [np.eye(3), np.eye(3)])], 2, 2)


def test_kron_terms_refuses_a_32_site_operator_by_the_budget():
    # one nonzero per factor: cheap to expand, but 2**32 is past the budget
    raising = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ResourceLimitError):
        kron_terms([(1.0, [raising] * 32)], 2, 32)


def test_kron_terms_refuses_past_the_budget_before_it_reads_a_term():
    class Unread:
        def __iter__(self):
            raise AssertionError("a term was read past the budget")

    for d, sites in ((2, linops.SITE_CAP + 1), (4, linops.SITE_CAP // 2 + 1)):
        with pytest.raises(ResourceLimitError,
                           match=re.escape(f"needs dimension {d}**{sites}, past the budget 2**18")):
            kron_terms(Unread(), d, sites)


@pytest.mark.parametrize("d, sites", [(2, 18), (4, 9)])
def test_kron_terms_builds_at_exactly_the_budget(d, sites):
    raising = np.eye(d, k=1)  # d - 1 nonzeros: (d - 1)**sites entries
    op = kron_terms([(1.0, [raising] * sites)], d, sites)
    assert op.dim == 2 ** linops.SITE_CAP and op.nnz == (d - 1) ** sites


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_kron_terms_identity_is_scipys_bit_for_bit(d):
    got = kron_terms([(1.0, [np.eye(d)] * 3)], d, 3).mat
    want = sp.identity(d ** 3, dtype=complex, format="csr")
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def _group3():
    ex = make_cyclic_group(3)
    return ex, regular_rep(ex)


@pytest.mark.parametrize("build", [
    lambda uq: evaluate(boxplus(uq[0], "K+", 1, 19), uq[1]),
    lambda uq: check_homomorphism(*_group3(), 1, 12, [("g", "g")]),
    lambda uq: check_antipode(*_group3(), "x", 12),
], ids=["evaluate", "homomorphism", "antipode"])
def test_library_operators_meet_the_one_budget(uq2, build):
    with pytest.raises(ResourceLimitError, match=re.escape("past the budget 2**18")):
        build(uq2)


def test_worst_entry_names_largest_difference():
    a = SparseOperator(np.diag([1.0, 2.0, 3.0]))
    b = SparseOperator(np.diag([1.0, 2.5, 3.0]) + np.eye(3, k=1) * 0.1)
    assert worst_entry(a, b) == {"row": 1, "col": 1, "lhs": [2.0, 0.0], "rhs": [2.5, 0.0]}
    assert worst_entry(a, a) == {}


# ---------------------------------------------------------------------------
# canonical form at the output boundaries only


def test_constructor_leaves_the_callers_matrix_alone():
    # row 0 stores (0, 1) = 1 before a stored zero at (0, 0)
    m = sp.csr_matrix((np.array([1.0, 0.0, 2.0], dtype=complex), np.array([1, 0, 0]),
                       np.array([0, 2, 3])), shape=(2, 2))
    op = SparseOperator(m)
    assert m.nnz == 3 and m.indices.tolist() == [1, 0, 0]
    assert m.data.tolist() == [1, 0, 2]
    assert op.nnz == 2 and op.entries() == [(0, 1, 1), (1, 0, 2)]
    m.data[:] = 99
    assert op.entries() == [(0, 1, 1), (1, 0, 2)]


def _lazy_operators():
    """Arithmetic and kernel results that are not in canonical form, by name,
    and a canonical operator whose largest entries tie within each row."""
    sp_, sm_ = boxplus_op("S+", 1.0, 2, 3), boxplus_op("S-", 1.0, 2, 3)
    raising, k = np.array([[0, 1], [0, 0]]), np.diag([2.0, 0.5])
    return {
        "unsorted product": lambda: sm_ @ sp_,
        "difference with cancellations": lambda: sm_ @ sp_ - sp_ @ sm_,
        "stored zeros of a scalar multiple": lambda: (sm_ @ sp_) * 0.0,
        "stored zeros of cancelling terms": lambda: kron_terms(
            [(1.0, [raising] + [k] * 5), (-1.0, [raising] + [k] * 5),
             (1.0, [k] * 5 + [raising])], 2, 6),
    }, SparseOperator((sp_ + sm_).mat)


def test_nnz_leaves_an_unsorted_product_as_it_is():
    sp_, sm_ = boxplus_op("S+", 1.0, 2, 3), boxplus_op("S-", 1.0, 2, 3)
    op = sm_ @ sp_
    assert not op.mat.has_sorted_indices
    indices, data = op.mat.indices.copy(), op.mat.data.copy()
    assert op.nnz == SparseOperator(op.mat).nnz
    assert np.array_equal(op.mat.indices, indices)
    assert np.array_equal(op.mat.data.view(np.int64), data.view(np.int64))
    assert not op.mat.has_sorted_indices


@pytest.mark.parametrize("case", sorted(_lazy_operators()[0]))
def test_output_boundaries_read_like_the_canonical_operator(tmp_path, case):
    cases, hopping = _lazy_operators()
    make = cases[case]
    eager = SparseOperator(make().mat)
    if case == "unsorted product":
        assert not make().mat.has_sorted_indices  # the case this test is about
    assert make().nnz == eager.nnz
    assert make().entries() == eager.entries()
    zero = SparseOperator(sp.csr_matrix(eager.mat.shape, dtype=complex))
    for other in (zero, hopping):  # at q = 1 the hopping entries all tie at 1
        assert worst_entry(make(), other) == worst_entry(eager, other)
        assert worst_entry(other, make()) == worst_entry(other, eager)
    got, want = tmp_path / "lazy.mtx", tmp_path / "eager.mtx"
    assert make().write_matrix_market(got) == eager.write_matrix_market(want)
    assert got.read_bytes() == want.read_bytes()


def test_output_boundaries_read_the_same_twice(tmp_path):
    sp_, sm_ = boxplus_op("S+", 1.0, 2, 3), boxplus_op("S-", 1.0, 2, 3)

    def make():  # an unsorted product holding stored zeros
        op = sm_ @ sp_
        op.mat.data[::3] = 0.0
        return op

    assert not make().mat.has_sorted_indices and np.count_nonzero(make().mat.data == 0)
    op, want = make(), SparseOperator(make().mat).entries()
    assert op.entries() == op.entries() == want
    op, paths = make(), [tmp_path / "first.mtx", tmp_path / "second.mtx"]
    assert [op.write_matrix_market(path) for path in paths] == [len(want)] * 2
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("matrices, fragment", [
    ({"a": np.zeros((2, 3))}, "is not square"),
    ({"a": np.eye(2), "b": np.eye(3)}, "all matrices must share one dimension"),
], ids=["not-square", "two-dimensions"])
def test_a_representation_refuses_matrices_it_cannot_hold(matrices, fragment):
    with pytest.raises(ValueError, match=fragment):
        Representation(Alphabet(["a", "b"]), matrices)

