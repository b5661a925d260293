import cmath
import math

import pytest

from hopf2d.coalgebra import ConfigurationError, apply_splitter, boxplus, check_xy_compat
from hopf2d.grids import FormalSum, GridShape, GridWord, sums_equal
from hopf2d.instances import (
    PivotConfig,
    TaftConfig,
    example_from_config,
    half_plane_grid,
    make_cross,
    make_cyclic_group,
    make_lie_like,
    make_pivot,
    make_quasi1d_group,
    make_quasi1d_lie,
    make_taft,
    make_uq_symbolic,
    quantize_theta,
    reading_order_key,
)


def w(ex, rows):
    return GridWord.from_rows_top_down(ex.alphabet, rows)


def test_group_like_boxplus_is_power():
    ex = make_cyclic_group(3)
    s = boxplus(ex, "g", 2, 3)
    assert len(s) == 1
    assert all(c.name == "g" for c in list(s)[0].cells)


def test_lie_like_boxplus_spreads_single_site():
    ex = make_lie_like(["a"])
    s = boxplus(ex, "a", 2, 2)
    assert len(s) == 4
    for term in s:
        names = [c.name for c in term.cells]
        assert names.count("a") == 1 and names.count("1") == 3
    assert len(boxplus(ex, "a", 1, 1)) == 1


def test_quasi1d_group_column_constant_grids():
    ex = make_quasi1d_group()
    s = boxplus(ex, "v", 3, 3)
    # one term per Sweedler letter position: a..a v b..b across columns
    assert len(s) == 3
    for term in s:
        cols = [{term.cell(i, j).name for i in range(1, 4)} for j in range(1, 4)]
        assert all(len(c) == 1 for c in cols)
        letters = [c.pop() for c in cols]
        k = letters.index("v")
        assert all(l == "a" for l in letters[:k]) and all(l == "b" for l in letters[k + 1:])


def test_quasi1d_lie_row_embedded_grids():
    ex = make_quasi1d_lie()
    s = boxplus(ex, "v", 3, 3)
    # v-row at each height, unit rows elsewhere, inner coproduct across the row
    assert len(s) == 9
    for term in s:
        rows = [[term.cell(i, j).name for j in range(1, 4)] for i in range(1, 4)]
        nontrivial = [r for r in rows if set(r) != {"1"}]
        assert len(nontrivial) == 1
        row = nontrivial[0]
        k = row.index("v")
        assert all(c == "a" for c in row[:k]) and all(c == "b" for c in row[k + 1:])


def test_quasi1d_lie_rejects_bad_unit_rule():
    with pytest.raises(ConfigurationError):
        make_quasi1d_lie(inner={"1": [(1.0, "1", "a")], "a": [(1.0, "a", "a")]},
                         inner_counit={"1": 1.0, "a": 1.0},
                         names=["1", "a"])


def test_cross_boxplus_3x3():
    ex = make_cross()
    s = boxplus(ex, "v", 3, 3)
    assert len(s) == 9
    for term in s:
        # locate the mark; arms must be t above, b below, l left, r right
        pos = [(i, j) for i in range(1, 4) for j in range(1, 4)
               if term.cell(i, j).name == "v"]
        assert len(pos) == 1
        (vi, vj) = pos[0]
        for i in range(1, 4):
            for j in range(1, 4):
                name = term.cell(i, j).name
                if (i, j) == (vi, vj):
                    continue
                if j == vj:
                    assert name == ("t" if i > vi else "b")
                elif i == vi:
                    assert name == ("r" if j > vj else "l")
                else:
                    assert name == "1"


def test_cross_splitters_printed_rules():
    ex = make_cross()
    out = apply_splitter(ex, "x", w(ex, [["t"], ["v"], ["b"]]))
    expected = FormalSum(GridShape(3, 2), [
        (w(ex, [["t", "1"], ["v", "r"], ["b", "1"]]), 1.0),
        (w(ex, [["1", "t"], ["l", "v"], ["1", "b"]]), 1.0),
    ])
    assert sums_equal(out, expected)
    doubled = apply_splitter(ex, "x", w(ex, [["1"], ["r"], ["1"]]))
    assert len(doubled) == 1
    assert list(doubled)[0].rows_top_down() == [["1", "1"], ["r", "r"], ["1", "1"]]


def test_cross_counit_families():
    ex = make_cross()
    assert ex.counit("x")(w(ex, [["t"], ["v"], ["b"]])) == 0.0
    assert ex.counit("x")(w(ex, [["1"], ["l"], ["1"]])) == 1.0
    assert ex.counit("y")(w(ex, [["l", "v", "r"]])) == 0.0
    assert ex.counit("y")(w(ex, [["1", "t", "1"]])) == 1.0


# ---------------------------------------------------------------------------
# angle-generalized instance


def test_theta_validation():
    assert abs(quantize_theta(math.pi / 4) - math.pi / 4) < 1e-12
    with pytest.raises(ConfigurationError):
        make_pivot(PivotConfig(theta=0.1))


def test_half_plane_grid_reproduces_published_4x4():
    grid = half_plane_grid(math.pi / 4, GridShape(4, 4), (3, 2))
    assert grid.rows_top_down() == [
        ["b", "b", "b", "a"],
        ["b", "v", "a", "a"],
        ["a", "a", "a", "a"],
        ["a", "a", "a", "a"],
    ]


def test_half_plane_theta0_matches_boxplus_everywhere():
    ex = make_pivot(theta=0.0)
    for n in range(1, 5):
        for m in range(1, 5):
            s = boxplus(ex, "v", n, m)
            assert len(s) == n * m
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    grid = half_plane_grid(0.0, GridShape(n, m), (i, j), ex.alphabet)
                    assert s.coeff(grid) == 1.0


def test_half_plane_assignments_distinguish_angles():
    # the last angle before a full turn differs from angle zero
    shape = GridShape(4, 4)
    differs = False
    for i in range(1, 5):
        for j in range(1, 5):
            if half_plane_grid(0.0, shape, (i, j)) != half_plane_grid(15 * math.pi / 8, shape, (i, j)):
                differs = True
    assert differs


def test_theta_pivot_boxplus_is_reordered_1d_coproduct():
    # every angle: n*m unit terms, letters sorted along the induced order
    for k in range(16):
        theta = k * math.pi / 8
        ex = make_pivot(theta=theta)
        key = reading_order_key(theta)
        s = boxplus(ex, "v", 3, 3)
        assert len(s) == 9
        for term in s:
            sites = sorted(
                [(i, j) for i in range(1, 4) for j in range(1, 4)],
                key=lambda ij: key(ij[1], ij[0]),
            )
            letters = [term.cell(i, j).name for (i, j) in sites]
            pos = letters.index("v")
            assert all(c == "a" for c in letters[:pos])
            assert all(c == "b" for c in letters[pos + 1:])


def test_theta_pivot_axioms_pass_all_angles():
    for k in range(0, 16, 3):
        ex = make_pivot(theta=k * math.pi / 8)
        assert check_xy_compat(ex, 3, 3).ok, k


# ---------------------------------------------------------------------------
# Taft instance


def test_taft_config_validation():
    with pytest.raises(ConfigurationError):
        TaftConfig(2, 1.0)          # not primitive
    with pytest.raises(ConfigurationError):
        TaftConfig(3, -1.0)         # not a cube root
    TaftConfig(3, cmath.exp(2j * math.pi / 3))


def test_taft_products_normal_form():
    ex = make_taft(TaftConfig(2, -1.0))
    al = ex.alphabet
    prod = ex.multiplication(al["x"], al["g"])
    term, coeff = prod.items()[0]
    assert term.cells[0].name == "gx" and coeff == -1.0
    assert len(ex.multiplication(al["x"], al["x"])) == 0  # x**2 = 0
    ex3 = make_taft(TaftConfig(3, cmath.exp(2j * math.pi / 3)))
    sq = ex3.multiplication(ex3.alphabet["x"], ex3.alphabet["x"])
    assert sq.items()[0][0].cells[0].name == "x2"


def test_taft_boxplus_g_power():
    ex = make_taft(TaftConfig(2, -1.0))
    s = boxplus(ex, "g", 2, 2)
    assert len(s) == 1 and all(c.name == "g" for c in list(s)[0].cells)


def test_taft_counit():
    ex = make_taft(TaftConfig(2, -1.0))
    al = ex.alphabet
    one_site = lambda s: GridWord(GridShape(1, 1), (al[s],))
    assert ex.counit("x")(one_site("x")) == 0.0
    assert ex.counit("x")(one_site("g")) == 1.0
    assert ex.counit("x")(one_site("1")) == 1.0


def test_taft_homomorphism_regular_rep():
    from hopf2d.coalgebra import check_homomorphism
    from hopf2d.instances import taft_regular_rep
    from hopf2d.linops import evaluate, operator_difference
    import itertools

    for n, om in [(2, -1.0 + 0j), (3, cmath.exp(2j * math.pi / 3))]:
        ex = make_taft(TaftConfig(n, om))
        rep = taft_regular_rep(ex)
        pairs = list(itertools.product(["1", "g", "x"], repeat=2))
        assert check_homomorphism(ex, rep, 2, 2, pairs).ok, n
        # the lattice operators inherit x g = omega g x
        bx = lambda s: evaluate(boxplus(ex, s, 2, 2), rep)
        assert operator_difference(bx("x") @ bx("g"), om * (bx("g") @ bx("x"))) < 1e-10


def test_taft_antipode_both_directions():
    from hopf2d.coalgebra import check_antipode
    from hopf2d.instances import taft_regular_rep

    for n, om in [(2, -1.0 + 0j), (3, cmath.exp(2j * math.pi / 3))]:
        ex = make_taft(TaftConfig(n, om))
        rep = taft_regular_rep(ex)
        for direction in "xy":
            for k in (1, 2):
                assert check_antipode(ex, rep, direction, k).ok, (n, direction, k)


def test_group_like_homomorphism_and_antipode():
    from hopf2d.coalgebra import check_antipode, check_homomorphism
    from hopf2d.instances import cyclic_regular_rep
    import itertools

    ex = make_cyclic_group(3)
    rep = cyclic_regular_rep(ex)
    pairs = list(itertools.product(["1", "g", "g2"], repeat=2))
    assert check_homomorphism(ex, rep, 2, 2, pairs).ok
    for direction in "xy":
        assert check_antipode(ex, rep, direction, 2).ok


# ---------------------------------------------------------------------------
# symbolic quantum-group instance


def test_uq_boxplus_plaquette_grids():
    ex = make_uq_symbolic(2.0)
    s = boxplus(ex, "S+", 2, 2)
    expected = FormalSum(GridShape(2, 2), [
        (w(ex, [["S+", "K+"], ["K-", "K-"]]), 1.0),
        (w(ex, [["K-", "S+"], ["K-", "K-"]]), 1.0),
        (w(ex, [["K+", "K+"], ["S+", "K+"]]), 1.0),
        (w(ex, [["K+", "K+"], ["K-", "S+"]]), 1.0),
    ])
    assert sums_equal(s, expected)


def test_uq_k_and_sz_patterns():
    ex = make_uq_symbolic(1.3)
    for name in ("K+", "K-", "K+2", "K-2"):
        s = boxplus(ex, name, 2, 3)
        assert len(s) == 1 and all(c.name == name for c in list(s)[0].cells)
    s = boxplus(ex, "Sz", 2, 3)
    assert len(s) == 6
    for term in s:
        names = [c.name for c in term.cells]
        assert names.count("Sz") == 1 and names.count("1") == 5


def test_uq_invalid_q():
    with pytest.raises(ConfigurationError):
        make_uq_symbolic(0.0)


# ---------------------------------------------------------------------------
# config selection


def test_example_from_config():
    assert example_from_config({"example": "pivot", "theta_over_pi": 0.25}).meta["theta"] == pytest.approx(math.pi / 4)
    assert example_from_config({"example": "taft", "n": 2}).name == "taft(n=2)"
    ex = example_from_config({"example": "uq", "q_re": 1.3, "q_im": 0.0})
    assert ex.meta["q"] == 1.3
    for kind in ("group", "lie", "quasi1d-group", "quasi1d-lie", "cross"):
        example_from_config({"example": kind})
    with pytest.raises(ConfigurationError):
        example_from_config({"example": "nope"})
