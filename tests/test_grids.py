import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from hopf2d import grids
from hopf2d.coalgebra import CoalgebraExample, Splitter, boxplus, check_xy_compat, grow
from hopf2d.grids import (
    Alphabet,
    FormalSum,
    GridShape,
    GridWord,
    NonFiniteError,
    ShapeError,
    SiteRangeError,
    join,
    site_index,
    sum_difference,
    sums_equal,
    word1,
)
from hopf2d.instances import make_pivot, make_uq_symbolic

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
    assert word.slice("y", 2).cells == (B, B)
    assert word.slice("x", 2).cells == (V, B)
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


def joined(axis, a, b):
    """Every term of ``a`` joined along ``axis`` with every term of ``b``,
    the products of their coefficients summed by one constructor."""
    k = a.shape.axis(axis)
    shape = a.shape.resized(axis, a.shape.extents[k] + b.shape.extents[k])
    return FormalSum(shape, [(join(axis, wa, wb), ca * cb)
                             for wa, ca in a.unordered_items() for wb, cb in b.unordered_items()])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(cells3, coeffs), max_size=3),
       st.lists(st.tuples(cells3, coeffs), max_size=3),
       st.lists(st.tuples(cells3, coeffs), max_size=3))
def test_concat_h_bilinear(t1, t2, t3):
    x, y, z = sum_1x3(t1), sum_1x3(t2), sum_1x3(t3)
    lhs = joined("x", x + y, z)
    rhs = joined("x", x, z) + joined("x", y, z)
    assert sum_difference(lhs, rhs) <= 1e-9


def test_concat_layouts():
    col_v = FormalSum.unit(word1(V))
    col_b = FormalSum.unit(word1(B))
    horizontal = joined("x", col_v, col_b)
    assert list(horizontal)[0].rows_top_down() == [["v", "b"]]
    vertical = joined("y", col_v, col_b)  # first factor is the bottom row
    assert list(vertical)[0].rows_top_down() == [["b"], ["v"]]


def test_concat_v_shape_error():
    with pytest.raises(ShapeError):
        join("y", w([["a", "b"]]), word1(V))


def _union_difference(a, b):
    """Max coefficient mismatch over the union of both supports."""
    words = {w for w, _ in a.unordered_items()} | {w for w, _ in b.unordered_items()}
    return max((abs(a.coeff(w) - b.coeff(w)) for w in words), default=0.0)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(cells3, coeffs), max_size=5),
       st.lists(st.tuples(cells3, coeffs), max_size=5), st.booleans())
def test_sum_difference_is_the_max_over_the_union_of_supports(t1, t2, disjoint):
    if disjoint:  # only the first sum has words starting with v
        t1 = [((V,) + c[1:], k) for c, k in t1]
        t2 = [(c, k) for c, k in t2 if c[0] != V]
    x, y = sum_1x3(t1), sum_1x3(t2)
    for a, b in ((x, y), (y, x), (x, x), (x, x * 1.5)):
        assert sum_difference(a, b) == _union_difference(a, b)
    column = FormalSum(GridShape(3, 1), [(GridWord(GridShape(3, 1), c), k) for c, k in t2])
    assert sum_difference(x, column) == float("inf")


def test_sums_equal_tolerance_and_support():
    x = FormalSum.unit(word1(B))
    assert sums_equal(x, x)
    y = FormalSum.unit(word1(B), 1 + 1e-12)
    assert sums_equal(x, y)
    assert not sums_equal(x, FormalSum.unit(word1(B), 1 + 2 * grids.EQ_TOL))
    assert sum_difference(FormalSum.unit(word1(V)), FormalSum.unit(word1(A))) > 1e-3


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
        sums_equal(FormalSum.unit(word1(V)) * bad, FormalSum(GridShape(1, 1)))


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


def test_planar_shapes_keep_their_repr_json_hash_and_key():
    shape = GridShape(3, 4)
    assert (shape.rows, shape.cols, shape.sites, repr(shape)) == (3, 4, 12, "3x4")
    assert shape.extents == (3, 4) and shape == GridShape(3, 4) and shape != GridShape(4, 3)
    word = w([["a", "v"], ["b", "b"]])
    # the hash is the site polynomial sum (id + 1)·bx^(x-1)·by^(y-1) mod 2^61 - 1,
    # and a word held as columns weights each column's hash by bx^(x-1)
    bx, by, _ = grids._BASES
    P = 2 ** 61 - 1
    col1, col2 = (B.id + 1) + (A.id + 1) * by, (B.id + 1) + (V.id + 1) * by
    assert hash(word.slice("x", 1)) == col1 % P == 1089357896855742842
    assert hash(word.slice("x", 2)) == col2 % P == 962230681353534571
    assert hash(word) == (col1 + bx * col2) % P == 517395355789816751
    assert hash(_by_x_slices(word)) == hash(word)
    assert hash(word.slice("y", 2)) == 1045315497510195590
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
    assert json.loads(s.to_json()) == {"shape": [2, 2, 2], "terms": [
        {"cells": ["a", "a", "a", "a", "a", "v", "b", "b"], "re": 0.0, "im": 0.5}]}


def test_planar_site_accessors_refuse_a_cube_word():
    cube = GridWord(GridShape(2, 1, 1), (A, B))
    for read in (lambda: site_index(1, 1, cube.shape), lambda: cube.cell(1, 1),
                 cube.rows_top_down):
        with pytest.raises(ShapeError):
            read()
    assert repr(cube) == "a | b"


# -- words held as x-slices ---------------------------------------------------

REPR_SHAPES = [GridShape(*e) for e in [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 4), (4, 2),
                                       (2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3)]]


@st.composite
def words(draw):
    shape = draw(st.sampled_from(REPR_SHAPES))
    return GridWord(shape, tuple(draw(st.lists(st.sampled_from([A, B, V]), min_size=shape.sites,
                                               max_size=shape.sites))))


def _on_slice(word, axis, k):
    """The cells of ``word`` whose coordinate along ``axis`` is ``k``, in site order."""
    i = "xyz".index(axis)
    return tuple(c for c, p in zip(word.cells, word.shape.coords) if p[i] == k)


def _same_word(got, want):
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.cells == want.cells
    assert got._key() == want._key()
    assert repr(got) == repr(want)


def _by_x_slices(word):
    """``word`` rebuilt by joining its x-slices left to right."""
    out = word.slice("x", 1)
    for k in range(2, word.shape.cols + 1):
        out = join("x", out, word.slice("x", k))
    return out


def _copier():
    """An example whose splitter along each axis doubles a slice as two copies."""
    splitters = {axis: Splitter(axis, lambda s, axis=axis: FormalSum.unit(join(axis, s, s)),
                                lambda s: True) for axis in "xyz"}
    return CoalgebraExample("copier", AB, splitters, {}, {})


@settings(max_examples=120, deadline=None)
@given(words())
def test_a_word_is_the_same_word_however_it_was_reached(word):
    shape = word.shape
    axes = "xyz"[:len(shape.extents)]
    _same_word(_by_x_slices(word), word)
    # one cell changed, the word differs whichever way either is held
    other = GridWord(shape, (B if word.cells[0] != B else A,) + word.cells[1:])
    for x in (word, _by_x_slices(word)):
        for y in (other, _by_x_slices(other)):
            assert x != y and y != x
    for held in (word, _by_x_slices(word)):
        for name in ("shape", "cells", "other"):
            with pytest.raises(AttributeError):
                setattr(held, name, None)
    for axis in axes:
        e = shape.extents[shape.axis(axis)]
        for k in range(1, e + 1):
            part = shape.resized(axis, 1)
            _same_word(word.slice(axis, k), GridWord(part, _on_slice(word, axis, k)))
            _same_word(_by_x_slices(word).slice(axis, k), word.slice(axis, k))
        for bad in (0, e + 1):
            for held in (word, _by_x_slices(word)):
                with pytest.raises(SiteRangeError):
                    held.slice(axis, bad)
        if e > 1:  # the first slice joined to the rest along the axis
            first = GridWord(shape.resized(axis, 1), _on_slice(word, axis, 1))
            i = "xyz".index(axis)
            rest = GridWord(shape.resized(axis, e - 1), tuple(
                c for c, p in zip(word.cells, shape.coords) if p[i] > 1))
            _same_word(join(axis, first, rest), word)
    # growth along each axis at each slice: the slice followed by its copy
    ex = _copier()
    cells = dict(zip(shape.coords, word.cells))
    for axis in axes:
        i = "xyz".index(axis)
        for k in range(1, shape.extents[shape.axis(axis)] + 1):
            grown = shape.resized(axis, shape.extents[shape.axis(axis)] + 1)
            want = GridWord(grown, tuple(
                cells[q[:i] + (q[i] - (q[i] > k),) + q[i + 1:]] for q in grown.coords))
            for held in (word, _by_x_slices(word)):
                (got, c), = grow(ex, FormalSum.unit(held), axis, k).unordered_items()
                assert c == 1
                _same_word(got, want)
                # and once more along x, from the grown word whichever way it is held
                (again, _), = grow(ex, FormalSum.unit(got), "x").unordered_items()
                (want2, _), = grow(ex, FormalSum.unit(want), "x").unordered_items()
                _same_word(again, want2)


def test_hash_and_growth_do_not_depend_on_the_string_hash_seed():
    import os
    import subprocess
    import sys

    import hopf2d

    script = (
        "import hashlib\n"
        "from hopf2d.coalgebra import boxplus\n"
        "from hopf2d.grids import GridShape, GridWord\n"
        "from hopf2d.instances import make_pivot\n"
        "ex = make_pivot(theta=0.0)\n"
        "a, b, v = ex.alphabet.symbols\n"
        "print(hash(GridWord(GridShape(2, 3), (a, b, v, b, b, a))))\n"
        "s = boxplus(ex, 'v', 4, 5, order='x_first')\n"
        "print(hashlib.sha256(s.to_json().encode()).hexdigest())\n"
        "print(hashlib.sha256(repr(list(s.unordered_items())).encode()).hexdigest())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopf2d.__file__)))
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                   capture_output=True, text=True, timeout=60).stdout)
    assert outs[0] == outs[1] and len(outs[0].split()) == 3


def test_symbols_are_their_ids_and_keep_their_names():
    import copy
    import pickle

    other = Alphabet(["a", "x"])
    assert A.id == 0 and int(A) == 0 and hash(A) == 0 and hash(V) == V.id == 2
    assert A == AB["a"] and A == other["a"] and A != "a"
    # a symbol compares and orders as its id, whatever its name or alphabet
    assert A == 0 and B == other["x"] and hash(other["x"]) == hash(B) == 1
    assert (str(A), repr(V), f"{B}*{V:>3}", bool(A)) == ("a", "v", "b*  v", True)
    assert sorted([V, other["x"], A]) == [A, other["x"], V]  # by id
    assert A < other["x"] < V and not A < A and A <= A and V >= B and A < 1 < V
    assert {A, other["a"], 0} == {0} and len({B, other["x"]}) == 1
    with pytest.raises(AttributeError):
        A.name = "z"
    for back in (copy.copy(V), pickle.loads(pickle.dumps(V))):
        assert back == V and back.name == "v" and back.id == 2


# -- one growth step -------------------------------------------------------------


def _grown_by_coords(word, axis, k, block):
    """``word`` with its slice ``k`` along ``axis`` replaced by ``block``,
    built cell by cell from site coordinates."""
    i, shape = "xyz".index(axis), word.shape
    grown = shape.resized(axis, shape.extents[shape.axis(axis)] + 1)
    cells = dict(zip(shape.coords, word.cells))
    inner = dict(zip(block.shape.coords, block.cells))
    return GridWord(grown, tuple(
        cells[q] if q[i] < k else
        inner[q[:i] + (q[i] - k + 1,) + q[i + 1:]] if q[i] <= k + 1 else
        cells[q[:i] + (q[i] - 1,) + q[i + 1:]] for q in grown.coords))


def _merging(c1, c2):
    """An example splitting a slice s as c1·(s then s) + c2·(all a then all b):
    the second term drops s, so input terms that differ only on the split
    slice land on one word and merge."""
    def rule(s, axis):
        const = [GridWord(s.shape, (sym,) * s.shape.sites) for sym in (A, B)]
        return FormalSum(s.shape.slicing(axis, 1).grown,
                         [(join(axis, s, s), c1), (join(axis, *const), c2)])

    splitters = {axis: Splitter(axis, lambda s, axis=axis: rule(s, axis), lambda s: True)
                 for axis in "xyz"}
    return CoalgebraExample("merging", AB, splitters, {}, {})


def _bits(items):
    return [(word, word.cells, c.real.hex(), c.imag.hex()) for word, c in items]


@settings(max_examples=60, deadline=None)
@given(st.data(), words(), coeffs, coeffs)
def test_a_growth_step_is_the_sum_built_from_coordinates(data, base, c1, c2):
    shape = base.shape
    ex = _merging(c1, c2)
    for axis in "xyz"[:len(shape.extents)]:
        i = "xyz".index(axis)
        for k in range(1, shape.extents[shape.axis(axis)] + 1):
            # base and copies of it changed on slice k (these merge) or anywhere
            variants = data.draw(st.lists(st.tuples(
                st.lists(st.sampled_from([A, B, V]), min_size=shape.sites, max_size=shape.sites),
                st.booleans(), coeffs, st.booleans()), min_size=1, max_size=5))
            terms = []
            for cells, on_slice, coeff, by_slices in variants:
                if on_slice:
                    cells = [n if p[i] == k else c for c, n, p in zip(base.cells, cells, shape.coords)]
                word = GridWord(shape, tuple(cells))
                terms.append((_by_x_slices(word) if by_slices else word, coeff))
            s = FormalSum(shape, terms)
            split = ex.splitter(axis)
            want = FormalSum(shape.resized(axis, shape.extents[shape.axis(axis)] + 1), [
                (_grown_by_coords(word, axis, k, b), coeff * c)
                for word, coeff in s.unordered_items()
                for b, c in split(word.slice(axis, k)).unordered_items()])
            got = grow(ex, s, axis, k)
            assert got.shape == want.shape
            assert _bits(got.unordered_items()) == _bits(want.unordered_items())
            # the hash a step sets is the one the grown word's cells or x-slices give
            for word, _ in got.unordered_items():
                assert hash(word) == hash(GridWord(word.shape, word.cells))
                assert hash(word) == hash(_by_x_slices(GridWord(word.shape, word.cells)))


# a column grows through its cells, a row held as x-slices through its x-slices
@pytest.mark.parametrize("axis, shape, held", [("y", GridShape(2, 1), lambda word: word),
                                               ("x", GridShape(1, 2), _by_x_slices)])
def test_a_growth_step_names_the_word_an_overflow_or_nan_reaches(axis, shape, held):
    def grown(cells):
        word = GridWord(shape.resized(axis, 3), cells)
        return re.escape(f"[{word!r}]")

    def terms(*pairs):
        return FormalSum(shape, [(held(GridWord(shape, cells)), c) for cells, c in pairs])

    with pytest.raises(NonFiniteError, match=r"\(inf\+0j\) of " + grown((A, V, V))):
        grow(_merging(1e10, 0.0), terms(((A, V), 1e300)), axis)
    # +inf and -inf from two terms that merge on one word sum to NaN
    with pytest.raises(NonFiniteError, match=r"\(nan\+0j\) of " + grown((A, A, B))):
        grow(_merging(1.0, 1e10), terms(((A, V), 1e300), ((A, B), -1e300)), axis)
    # and an exact cancellation drops the word
    got = grow(_merging(1.0, 0.5), terms(((A, V), 2.0), ((A, B), -2.0)), axis)
    assert [word.cells for word, _ in got.unordered_items()] == [(A, V, V), (A, B, B)]
    assert [c for _, c in got.unordered_items()] == [2, -2]
    # coefficients are summed from 0j: the -0.0 real part of 1j·(-1) reads +0.0
    (_, c), = grow(_merging(-1.0, 0.0), terms(((A, V), 1j)), axis).unordered_items()
    assert c == -1j and math.copysign(1.0, c.real) == 1.0


def test_a_growth_step_refuses_a_sum_of_another_shape():
    s = FormalSum.unit(GridWord(GridShape(2, 3), (A,) * 6))
    for axis in "xy":
        with pytest.raises(ShapeError, match="2x3 sum has no slice of 3x2"):
            GridShape(3, 2).slicing(axis, 1).grow(s, _merging(1.0, 1.0).splitter(axis))


def test_a_sum_leaves_the_dict_it_was_built_from_untouched():
    small, kept = word1(A), word1(V)
    terms = {small: 1e-20, kept: 2}
    s = FormalSum(GridShape(1, 1), terms)
    assert terms == {small: 1e-20, kept: 2} and list(terms) == [small, kept]
    assert dict(s.unordered_items()) == {kept: 2 + 0j}
    total = s + s
    assert dict(s.unordered_items()) == {kept: 2 + 0j} and total.coeff(kept) == 4


# -- colliding hashes ------------------------------------------------------------


def _xy_compat_runs():
    """check_xy_compat's reports and every sum boxplus grows at 5 x 5 for
    pivot(0) and uq, from fresh examples, with coefficient bits."""
    out = []
    for make, sym in ((lambda: make_pivot(theta=0.0), "v"), (lambda: make_uq_symbolic(1.3), "S+")):
        out.append(check_xy_compat(make(), 5, 5).to_json())
        for order in ("y_first", "x_first"):
            s = boxplus(make(), sym, 5, 5, order=order)
            out.append([(w.cells, c.real.hex(), c.imag.hex()) for w, c in s.unordered_items()])
    return out


@pytest.mark.parametrize("modulus, bases", [(1, None), (7, (3, 5, 2))])
def test_words_that_collide_all_the_time_give_the_same_sums_and_reports(modulus, bases):
    """With a modulus of 1 every word hashes to 0, with 7 to one of seven
    values: equality, which compares cells or x-slices, still decides every
    merge, so sums, their order and reports stay as they are."""
    want = _xy_compat_runs()
    saved = grids._P, grids._BASES

    def reset(p, b):
        grids._P, grids._BASES = p, b
        grids._weights.cache_clear()
        grids.slicing.cache_clear()

    reset(modulus, bases or saved[1])
    try:
        assert hash(GridWord(GridShape(2, 3), (A, B, V, V, B, A))) < modulus
        test_a_growth_step_is_the_sum_built_from_coordinates()
        test_a_word_is_the_same_word_however_it_was_reached()
        assert _xy_compat_runs() == want
    finally:
        reset(*saved)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: Alphabet(["a", ""]), ValueError, "symbol names must be nonempty"),
    (lambda: Alphabet(["a", "b", "a"]), ValueError, "duplicate symbol name 'a'"),
    (lambda: Alphabet(["a"])["zz"], KeyError, "unknown symbol 'zz'"),
    (lambda: GridWord(GridShape(2, 2), tuple(Alphabet(["a"]).symbols)), ShapeError,
     "1 cells do not fill 2x2"),
    (lambda: GridWord.from_rows_top_down(Alphabet(["a", "b"]), [["a", "b"], ["a"]]), ShapeError,
     "ragged rows"),
    (lambda: FormalSum(GridShape(1, 2), [(word1(Alphabet(["a"])["a"]), 1.0)]), ShapeError,
     "term shape 1x1 != sum shape 1x2"),
], ids=["empty-name", "duplicate-name", "unknown-name", "short-cells", "ragged-rows",
        "term-shape"])
def test_each_refused_input_raises_its_error(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
