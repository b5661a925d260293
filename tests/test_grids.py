import json

import pytest
from hypothesis import given, settings, strategies as st

from hopf2d.grids import (
    Alphabet,
    FormalSum,
    GridShape,
    GridWord,
    NonFiniteError,
    ShapeError,
    SiteRangeError,
    concat_h,
    concat_v,
    site_index,
    sum_difference,
    sums_equal,
    word1,
)

AB = Alphabet(["a", "b", "v"])
A, B, V = AB["a"], AB["b"], AB["v"]


def w(rows):
    return GridWord.from_rows_top_down(AB, rows)


def test_site_index_layout_3x3():
    shape = GridShape(3, 3)
    # bottom row is 1 2 3, top row is 7 8 9
    assert site_index(1, 1, shape) == 1
    assert site_index(3, 3, shape) == 9
    assert site_index(2, 2, shape) == 5
    assert site_index(1, 1, GridShape(1, 1)) == 1


def test_site_index_bijective_up_to_4x4():
    for n in range(1, 5):
        for m in range(1, 5):
            shape = GridShape(n, m)
            seen = {site_index(i, j, shape)
                    for i in range(1, n + 1) for j in range(1, m + 1)}
            assert seen == set(range(1, n * m + 1))


def test_site_index_range_errors():
    with pytest.raises(SiteRangeError):
        site_index(0, 1, GridShape(2, 2))
    with pytest.raises(SiteRangeError):
        site_index(1, 3, GridShape(2, 2))


def test_gridword_row_col_accessors():
    word = w([["b", "b"], ["a", "v"]])
    assert word.cell(1, 2) is V
    assert word.row(2).cells == (B, B)
    assert word.col(2).cells == (V, B)
    assert word.rows_top_down() == [["b", "b"], ["a", "v"]]


def test_formal_sum_linearity_basics():
    s = FormalSum.unit(word1(V), 2.0) + FormalSum.unit(word1(V), 3.0)
    assert s.coeff(word1(V)) == 5.0
    zero = (FormalSum.unit(word1(V)) + FormalSum.unit(word1(A))) * 0.0
    assert len(zero) == 0
    cancel = FormalSum.unit(word1(V)) + FormalSum.unit(word1(V), -1.0)
    assert len(cancel) == 0


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        FormalSum.unit(word1(V)) + FormalSum.unit(w([["a", "b"]]))


coeffs = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
cells3 = st.tuples(*[st.sampled_from([A, B, V])] * 3)


def sum_1x3(draw_terms):
    shape = GridShape(1, 3)
    return FormalSum(shape, [(GridWord(shape, c), k) for c, k in draw_terms])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(cells3, coeffs), max_size=4),
       st.lists(st.tuples(cells3, coeffs), max_size=4), coeffs)
def test_add_scale_commute(t1, t2, c):
    x, y = sum_1x3(t1), sum_1x3(t2)
    assert sum_difference((x + y) * c, x * c + y * c) <= 1e-12 * (1 + abs(c))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(cells3, coeffs), max_size=3),
       st.lists(st.tuples(cells3, coeffs), max_size=3),
       st.lists(st.tuples(cells3, coeffs), max_size=3))
def test_concat_h_bilinear(t1, t2, t3):
    x, y, z = sum_1x3(t1), sum_1x3(t2), sum_1x3(t3)
    lhs = concat_h(x + y, z)
    rhs = concat_h(x, z) + concat_h(y, z)
    assert sum_difference(lhs, rhs) <= 1e-9


def test_concat_layouts():
    col_v = FormalSum.unit(word1(V))
    col_b = FormalSum.unit(word1(B))
    horizontal = concat_h(col_v, col_b)
    assert list(horizontal)[0].rows_top_down() == [["v", "b"]]
    vertical = concat_v(col_v, col_b)  # first factor is the bottom row
    assert list(vertical)[0].rows_top_down() == [["b"], ["v"]]


def test_concat_v_shape_error():
    with pytest.raises(ShapeError):
        concat_v(FormalSum.unit(w([["a", "b"]])), FormalSum.unit(word1(V)))


def test_sums_equal_tolerance_and_support():
    x = FormalSum.unit(word1(B))
    assert sums_equal(x, x, 1e-10)
    y = FormalSum.unit(word1(B), 1 + 1e-12)
    assert sums_equal(x, y, 1e-10)
    assert not sums_equal(FormalSum.unit(word1(V)), FormalSum.unit(word1(A)), 1e-3)


def test_json_round_trip():
    shape = GridShape(2, 2)
    s = FormalSum(shape, [(w([["b", "b"], ["v", "b"]]), 1.5 - 0.5j),
                          (w([["a", "a"], ["a", "v"]]), 2.0)])
    data = s.to_json()
    obj = json.loads(data)
    assert obj["shape"] == [2, 2]
    back = FormalSum.from_json(data, AB)
    assert sums_equal(s, back, 0.0)


def test_term_iteration_deterministic():
    shape = GridShape(1, 2)
    s = FormalSum(shape, [(GridWord(shape, (V, B)), 1.0), (GridWord(shape, (A, V)), 1.0)])
    assert [tuple(c.name for c in word.cells) for word in s] == [("a", "v"), ("v", "b")]


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1, float("-inf")),
                                 complex(float("nan"), 1)])
def test_non_finite_coefficient_raises(bad):
    with pytest.raises(NonFiniteError):
        FormalSum.unit(word1(V), bad)
    # a NaN must not vanish and so compare equal to zero
    with pytest.raises(ValueError):
        sums_equal(FormalSum.unit(word1(V)) * bad, FormalSum.zero(GridShape(1, 1)))


def test_overflow_to_infinity_raises():
    big = FormalSum.unit(word1(V), 1e308)
    with pytest.raises(NonFiniteError):
        big + big


shapes = st.sampled_from([GridShape(1, 3), GridShape(3, 1)])


@settings(max_examples=80, deadline=None)
@given(cells3, cells3, shapes, shapes)
def test_gridword_hash_eq_contract(c1, c2, s1, s2):
    w1, w2 = GridWord(s1, c1), GridWord(s2, c2)
    assert (w1 == w2) == (s1 == s2 and c1 == c2)
    if w1 == w2:
        assert hash(w1) == hash(w2)
    assert GridWord(s1, c1) == w1 and hash(GridWord(s1, c1)) == hash(w1)
    assert w1 != c1 and w1 != (s1, c1) and w1 is not None
    assert len({w1, w2, GridWord(s1, c1)}) == (1 if w1 == w2 else 2)


def test_gridword_is_immutable():
    word = w([["a", "v"]])
    with pytest.raises(AttributeError):
        word.cells = (B, B)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(cells3, coeffs), max_size=6))
def test_json_round_trip_property(terms):
    s = sum_1x3(terms)
    back = FormalSum.from_json(s.to_json(), AB)
    assert sums_equal(s, back, 0.0)
    assert back.to_json() == s.to_json()


def test_planar_shapes_keep_their_repr_json_hash_and_key():
    shape = GridShape(3, 4)
    assert (shape.rows, shape.cols, shape.sites, repr(shape)) == (3, 4, 12, "3x4")
    assert shape.extents == (3, 4) and shape == GridShape(3, 4) and shape != GridShape(4, 3)
    word = w([["a", "v"], ["b", "b"]])
    assert hash(word) == hash((2, 2, B.id, B.id, A.id, V.id))
    assert word._key() == (2, 2, (B.id, B.id, A.id, V.id))
    assert json.loads(FormalSum.unit(word).to_json())["shape"] == [2, 2]
    with pytest.raises(AttributeError):
        shape.extents = (1, 1)
    for bad in [(0, 2), (2,), (1, 1, 1, 1)]:
        with pytest.raises(ValueError):
            GridShape(*bad)


def test_cube_shapes_name_their_axes_and_print_every_layer():
    shape = GridShape(2, 3, 4)
    assert (repr(shape), shape.sites, shape.rows, shape.cols) == ("2x3x4", 24, 3, 4)
    assert [shape.axis(a) for a in "xyz"] == [2, 1, 0]
    assert shape.resized("z", 5) == GridShape(5, 3, 4)
    assert shape.coords[:2] == ((1, 1, 1), (2, 1, 1)) and shape.coords[-1] == (4, 3, 2)
    with pytest.raises(ShapeError):
        GridShape(3, 4).axis("z")
    # cells in linear order: x fastest, then y, then z
    cube = GridWord(GridShape(2, 2, 2), (A, A, A, A, A, V, B, B))
    assert repr(cube) == "a a/a a | b b/a v"
    assert cube.slice("z", 2).cells == (A, V, B, B)
    assert cube.slice("y", 1) == GridWord(GridShape(2, 1, 2), (A, A, A, V))
    assert cube.slice("x", 2) == GridWord(GridShape(2, 2, 1), (A, A, V, B))
    with pytest.raises(SiteRangeError):
        cube.slice("x", 3)
    s = FormalSum.unit(cube, 0.5j)
    assert sums_equal(FormalSum.from_json(s.to_json(), AB), s, 0.0)


def test_planar_site_accessors_refuse_a_cube_word():
    cube = GridWord(GridShape(2, 1, 1), (A, B))
    for read in (lambda: site_index(1, 1, cube.shape), lambda: cube.cell(1, 1),
                 cube.rows_top_down):
        with pytest.raises(ShapeError):
            read()
    assert repr(cube) == "a | b"
