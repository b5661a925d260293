import cmath
import itertools
import math

import numpy as np
import pytest

from hopf2d.coalgebra import (
    ConfigurationError,
    CounitRule,
    DomainError,
    SingularParameterError,
    Splitter,
    apply_splitter,
    boxplus,
    check_antipode,
    check_homomorphism,
    check_xy_compat,
)
from hopf2d.grids import (
    AXES,
    Alphabet,
    FormalSum,
    GridShape,
    GridWord,
    NonFiniteError,
    join,
    sums_equal,
    word1,
)
from hopf2d.instances import (
    MarkedFamily,
    PivotConfig,
    TaftConfig,
    half_plane_grid,
    make_cross,
    make_cyclic_group,
    make_group_like,
    make_lie_like,
    make_pivot,
    make_quasi1d_group,
    make_quasi1d_lie,
    make_taft,
    make_uq_symbolic,
    quantize_theta,
    reading_order_key,
    regular_rep,
    taft_basis_name,
)
from hopf2d.linops import Representation, evaluate


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


# an inner rule that copies v, unlike the default one, which marks v between a and b
COPY_V = ({"v": [(1.0, "v", "v")], "a": [(1.0, "a", "a")], "b": [(1.0, "b", "b")]},
          {"v": 1.0, "a": 1.0, "b": 1.0}, ["a", "b", "v"])


def _with_unit(inner, counit, names):
    return {**inner, "1": [(1.0, "1", "1")]}, {**counit, "1": 1.0}, ["1", *names]


@pytest.mark.parametrize("make, rule", [(make_quasi1d_group, COPY_V),
                                        (make_quasi1d_lie, _with_unit(*COPY_V))],
                         ids=["group", "lie"])
@pytest.mark.parametrize("given, missing", [
    ({"inner"}, "inner_counit, names"), ({"inner", "inner_counit"}, "names"),
    ({"names"}, "inner, inner_counit"), ({"inner_counit", "names"}, "inner"),
])
def test_a_quasi1d_rule_goes_with_its_counit_and_names(make, rule, given, missing):
    kwargs = dict(zip(("inner", "inner_counit", "names"), rule))
    ex = make(**kwargs)  # all three: the given rule splits v, so v v
    split = apply_splitter(ex, "x", word1(ex.alphabet["v"]))
    assert [w.cells for w in split] == [(ex.alphabet["v"],) * 2]
    with pytest.raises(ConfigurationError, match=f"missing {missing}$"):
        make(**{key: value for key, value in kwargs.items() if key in given})


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


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_is_a_configuration_error(theta):
    # checked before round(), which raises ValueError on nan and OverflowError on inf
    with pytest.raises(ConfigurationError, match="finite"):
        quantize_theta(theta)
    with pytest.raises(ConfigurationError, match="finite"):
        make_pivot(theta=theta)


def test_a_config_and_a_theta_together_are_a_configuration_error():
    with pytest.raises(ConfigurationError, match="cfg or theta, not both"):
        make_pivot(PivotConfig(theta=0.0), theta=math.pi / 4)
    assert make_pivot(PivotConfig(theta=math.pi / 4)).name == make_pivot(theta=math.pi / 4).name


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


def test_non_finite_taft_omega_never_vanishes():
    for omega in (math.nan, complex(math.nan, 1.0), math.inf, complex(1.0, -math.inf)):
        with pytest.raises(ConfigurationError, match="root of unity"):
            TaftConfig(3, omega)
    # past the config check, a NaN coefficient of the 1-site coproduct raises
    # instead of dropping its term: x2 has three terms, (1, x2), (x, xg), (x2, g2)
    cfg = TaftConfig(3, cmath.exp(2j * math.pi / 3))
    ex = make_taft(cfg)
    assert len(ex.meta["delta_1site"][ex.alphabet["x2"]]) == 3
    for omega in (math.nan, complex(math.nan, 1.0)):
        cfg.omega = omega
        with pytest.raises(NonFiniteError):
            make_taft(cfg)


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


def _cyclic_positions_rep(ex):
    """The regular representation as read from alphabet positions, (i + j) % k:
    right only for a cyclic group whose symbols are listed as its powers."""
    k = len(ex.alphabet)
    mats = {}
    for i, s in enumerate(ex.alphabet):
        m = np.zeros((k, k), dtype=complex)
        for j in range(k):
            m[(i + j) % k, j] = 1.0
        mats[s] = m
    return Representation(ex.alphabet, mats)


def _taft_products_rep(ex):
    """The regular representation as read from the sorted products, by position."""
    basis = list(ex.alphabet.symbols)
    pos = {s: k for k, s in enumerate(basis)}
    mats = {}
    for h in basis:
        m = np.zeros((len(basis), len(basis)), dtype=complex)
        for e in basis:
            for word, c in ex.multiplication(h, e).items():
                m[pos[word.cells[0]], pos[e]] = c
        mats[h] = m
    return Representation(ex.alphabet, mats)


@pytest.mark.parametrize("ex,oracle", [
    *[(make_cyclic_group(k), _cyclic_positions_rep) for k in (2, 3, 4, 5)],
    (make_taft(TaftConfig(2, -1.0)), _taft_products_rep),
    (make_taft(TaftConfig(3, cmath.exp(2j * math.pi / 3))), _taft_products_rep),
], ids=["group2", "group3", "group4", "group5", "taft2", "taft3"])
def test_regular_rep_is_the_old_constructions_bit_for_bit(ex, oracle):
    got, want = regular_rep(ex), oracle(ex)
    assert got.alphabet is ex.alphabet and got.dim == len(ex.alphabet)
    assert list(got.matrices) == list(want.matrices) == list(ex.alphabet.symbols)
    assert all(got[s].tobytes() == want[s].tobytes() for s in ex.alphabet)


def test_regular_rep_needs_a_multiplication_rule():
    with pytest.raises(ConfigurationError, match="carries no multiplication rule"):
        regular_rep(make_pivot())


def test_taft_homomorphism_regular_rep():
    for n, om in [(2, -1.0 + 0j), (3, cmath.exp(2j * math.pi / 3))]:
        ex = make_taft(TaftConfig(n, om))
        rep = regular_rep(ex)
        pairs = list(itertools.product(["1", "g", "x"], repeat=2))
        assert check_homomorphism(ex, rep, 2, 2, pairs).ok, n
        # the lattice operators inherit x g = omega g x
        bx = lambda s: evaluate(boxplus(ex, s, 2, 2), rep)
        assert (bx("x") @ bx("g") - om * (bx("g") @ bx("x"))).max_abs() < 1e-10


def test_taft_antipode_both_directions():
    for n, om in [(2, -1.0 + 0j), (3, cmath.exp(2j * math.pi / 3))]:
        ex = make_taft(TaftConfig(n, om))
        rep = regular_rep(ex)
        for direction in "xy":
            for k in (1, 2):
                assert check_antipode(ex, rep, direction, k).ok, (n, direction, k)


def test_group_like_homomorphism_and_antipode():
    ex = make_cyclic_group(3)
    rep = regular_rep(ex)
    pairs = list(itertools.product(["1", "g", "g2"], repeat=2))
    assert check_homomorphism(ex, rep, 2, 2, pairs).ok
    for direction in "xy":
        assert check_antipode(ex, rep, direction, 2).ok


def test_klein_four_group_passes_in_its_regular_representation():
    names = ["1", "a", "b", "c"]  # a b = c: the product is the xor of the positions
    ex = make_group_like(names, {(u, w): names[i ^ j] for i, u in enumerate(names)
                                 for j, w in enumerate(names)}, "1")
    pairs = list(itertools.product(names, repeat=2))
    rep = regular_rep(ex)
    assert check_homomorphism(ex, rep, 2, 2, pairs).ok
    assert all(check_antipode(ex, rep, direction, 2).ok for direction in "xy")
    # read from positions as if the group were cyclic, both checks fail
    wrong = _cyclic_positions_rep(ex)
    assert not check_homomorphism(ex, wrong, 2, 2, pairs).ok
    assert not all(check_antipode(ex, wrong, direction, 2).ok for direction in "xy")


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
    with pytest.raises(SingularParameterError):
        make_uq_symbolic(0.0)
    with pytest.raises(ConfigurationError):
        make_uq_symbolic(complex(1.0, math.inf))


# ---------------------------------------------------------------------------
# marked-family rules against the site-by-site classification they replace


class ClassifyingFamily:
    """The marked-family domain, splitters, counits and samples as they were
    computed before the per-shape tables: every call classifies the word
    site by site through ``key``.  The reference the tables must equal."""

    def __init__(self, family):
        self.markers, self.cut_pairs = family.markers, family.cut_pairs
        self.grouplike, self.key = family.grouplike, family.key

    def _classify(self, word):
        """Return ('marker', pos, sym) or ('free', None, None); None if invalid."""
        pos = word.shape.coords
        marked = [(p, c) for p, c in zip(pos, word.cells) if c in self.markers]
        if len(marked) > 1:
            return None
        if len(marked) == 1:
            (p0, v) = marked[0]
            a, b = self.markers[v]
            k0 = self.key(*p0)
            for p, c in zip(pos, word.cells):
                if p == p0:
                    continue
                want = a if self.key(*p) < k0 else b
                if c != want:
                    return None
            return ("marker", p0, v)
        letters = set(word.cells)
        if len(letters) == 1 and next(iter(letters)) in self.grouplike:
            return ("free", None, None)
        for a, b in self.cut_pairs:
            if letters <= {a, b}:
                ordered = sorted(zip(pos, word.cells), key=lambda pc: self.key(*pc[0]))
                seen_b = False
                ok = True
                for _, c in ordered:
                    if c == b:
                        seen_b = True
                    elif seen_b:
                        ok = False
                        break
                if ok:
                    return ("free", None, None)
        return None

    def domain(self, word):
        return self._classify(word) is not None

    def splitter(self, axis):
        i = AXES.index(axis)

        def split(word):
            kind = self._classify(word)
            shape = word.shape.resized(axis, 2)
            if kind[0] == "free":
                return FormalSum.unit(join(axis, word, word))
            _, p0, v = kind
            a, b = self.markers[v]
            terms = []
            for c in (1, 2):
                landing = p0[:i] + (c,) + p0[i + 1:]
                kl = self.key(*landing)
                cells = tuple(
                    v if p == landing else (a if self.key(*p) < kl else b)
                    for p in shape.coords
                )
                terms.append((GridWord(shape, cells), 1.0))
            return FormalSum(shape, terms)

        return Splitter(axis, split, self.domain)

    def counit(self, axis):
        def eps(word):
            kind = self._classify(word)
            return 0.0 if kind[0] == "marker" else 1.0

        return CounitRule(axis, eps, self.domain)

    def samples(self, direction, n):
        shape = GridShape(n, n).resized(direction, 1)
        pos = shape.coords
        ordered = sorted(pos, key=lambda p: self.key(*p))
        out = []

        def build(assign):
            lookup = dict(assign)
            return GridWord(shape, tuple(lookup[p] for p in pos))

        for v, (a, b) in self.markers.items():
            for i in range(n):
                assign = [(p, a) for p in ordered[:i]] + [(ordered[i], v)] + [
                    (p, b) for p in ordered[i + 1:]
                ]
                out.append(build(assign))
        for a, b in self.cut_pairs:
            for t in range(n + 1):
                assign = [(p, a) for p in ordered[:t]] + [(p, b) for p in ordered[t:]]
                out.append(build(assign))
        cut_letters = {s for pair in self.cut_pairs for s in pair}
        for g in sorted(self.grouplike, key=lambda s: s.id):
            if g not in cut_letters:
                out.append(build([(p, g) for p in pos]))
        return list(dict.fromkeys(out))


def _marked_families():
    """The marked families with their slice shapes of at most 4 sites per axis:
    pivot at every angle, taft(2), taft(3), uq and the cube, plus a family
    whose templates may hold a second marker and one whose key ties sites."""
    planar = {axis: [GridShape(k, k).resized(axis, 1) for k in range(1, 5)] for axis in "xy"}
    cube = {axis: [s for s in (GridShape(*e) for e in itertools.product(range(1, 5), repeat=3))
                   if s.sites <= 4 and s.extents[s.axis(axis)] == 1] for axis in AXES}
    out = []
    for k in range(16):
        ex = make_pivot(theta=k * math.pi / 8)
        out.append((f"pivot{k}pi/8", ex.alphabet, ex.meta["family"], planar))
    for ex in (make_taft(TaftConfig(2, -1.0)),
               make_taft(TaftConfig(3, cmath.exp(2j * math.pi / 3))),
               make_uq_symbolic(1.3)):
        out.append((ex.name, ex.alphabet, ex.meta["family"], planar))
    al = Alphabet(["a", "b", "v"])
    a, b, v = al.symbols
    out.append(("cube", al, MarkedFamily({v: (a, b)}, [(a, b)], {a, b},
                                         lambda x, y, z: (z, y, x)), cube))
    out.append(("tied", al, MarkedFamily({v: (a, b)}, [(a, b)], {a, b}, lambda x, y: (y,)),
                planar))
    al = Alphabet(["a", "b", "v", "w"])
    a, b, v, w = al.symbols
    out.append(("chained", al, MarkedFamily({v: (a, w), w: (a, b)}, [(a, b), (w, b)], {a, b, w},
                                            reading_order_key(0.0)), planar))
    return [pytest.param(*p, id=p[0]) for p in out]


def _outcome(call, word):
    """What a rule gives for ``word``: a sum's shape and terms, a number, or
    the DomainError text."""
    try:
        out = call(word)
    except DomainError as exc:
        return "DomainError", str(exc)
    if isinstance(out, FormalSum):
        return out.shape, dict(out.unordered_items())
    return out


@pytest.mark.parametrize("label, alphabet, family, shapes", _marked_families())
def test_marked_family_tables_equal_the_site_by_site_rules(label, alphabet, family, shapes):
    oracle = ClassifyingFamily(family)
    in_domain = 0
    for axis, axis_shapes in shapes.items():
        rules = [(family.splitter(axis), oracle.splitter(axis)),
                 (family.counit(axis), oracle.counit(axis))]
        for shape in axis_shapes:
            for cells in itertools.product(alphabet.symbols, repeat=shape.sites):
                word = GridWord(shape, cells)
                assert family.domain(word) == oracle.domain(word), (axis, word)
                in_domain += oracle.domain(word)
                for got, want in rules:
                    assert _outcome(got, word) == _outcome(want, word), (axis, word)
    assert in_domain > 0
    # the cube samples no 3D slices; the old samples of the other two leave the domain
    if label not in ("cube", "tied", "chained"):
        for axis in shapes:
            for n in range(1, 5):
                assert family.samples(axis, n) == oracle.samples(axis, n), (axis, n)


# ---------------------------------------------------------------------------
# Taft tables against the FormalSum products they were built from


def _taft_reference(ex, n, omega):
    """(product, antipode rules by axis, delta_1site) of the Taft example
    built with FormalSum products, the way the constructor once built them."""
    al = ex.alphabet
    idx = {(i, j): al[taft_basis_name(i, j)] for j in range(n) for i in range(n)}
    exponents = {sym: ij for ij, sym in idx.items()}
    one, g, x = idx[(0, 0)], idx[(1, 0)], idx[(0, 1)]

    def product(u, w):
        (i1, j1), (i2, j2) = exponents[u], exponents[w]
        if j1 + j2 >= n:
            return FormalSum(GridShape(1, 1))
        coef = omega ** (j1 * i2)
        sym = idx[((i1 + i2) % n, j1 + j2)]
        return FormalSum.unit(GridWord(GridShape(1, 1), (sym,)), coef)

    anti_table = {}
    for (i, j), sym in idx.items():
        coef, cur = 1.0 + 0j, idx[(0, 0)]
        for _ in range(j):
            coef *= -1.0
            for term, c in product(cur, x).items():
                cur, coef = term.cells[0], coef * c
            for term, c in product(cur, idx[((n - 1) % n, 0)]).items():
                cur, coef = term.cells[0], coef * c
        for _ in range(i):
            for term, c in product(cur, idx[(n - 1, 0)]).items():
                cur, coef = term.cells[0], coef * c
        anti_table[sym] = (coef, cur)
    ginv = idx[(n - 1, 0)]

    def anti_x(word):
        coef = 1.0 + 0j
        cells = []
        for c in word.cells:
            k, s = anti_table[c]
            coef *= k
            cells.append(s)
        return FormalSum.unit(GridWord(word.shape, tuple(cells)), coef)

    def anti_y(word):
        if not any(c == x for c in word.cells):
            return anti_x(word)
        coef, cells = -1.0 + 0j, []
        for u in word.cells:
            for term, c in product(u, ginv).items():
                cells.append(term.cells[0])
                coef *= c
        return FormalSum.unit(GridWord(word.shape, tuple(cells)), coef)

    def tensor_mul(acc, factor):
        out = {}
        for (u1, u2), c in acc.items():
            for (w1, w2), d in factor.items():
                for t1, c1 in product(u1, w1).items():
                    for t2, c2 in product(u2, w2).items():
                        k = (t1.cells[0], t2.cells[0])
                        out[k] = out.get(k, 0j) + c * d * c1 * c2
        return {k: v for k, v in out.items() if abs(v) > 1e-14}

    delta_g = {(g, g): 1.0 + 0j}
    delta_x = {(one, x): 1.0 + 0j, (x, g): 1.0 + 0j}
    delta_1site = {}
    for (i, j), sym in idx.items():
        acc = {(one, one): 1.0 + 0j}
        for _ in range(i):
            acc = tensor_mul(acc, delta_g)
        for _ in range(j):
            acc = tensor_mul(acc, delta_x)
        delta_1site[sym] = [(c, s1, s2) for (s1, s2), c in acc.items()]
    return product, {"x": anti_x, "y": anti_y}, delta_1site


def _bits(c):
    """A complex number's bits, signed zeros included."""
    c = complex(c)
    return c.real.hex(), c.imag.hex()


def _sum_bits(s):
    return s.shape, [(w, _bits(c)) for w, c in s.items()]


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
def test_taft_tables_keep_the_bits_of_the_formal_sum_products(n, k):
    omega = cmath.exp(2j * math.pi * k / n)
    for om in ([omega, -1.0] if n == 2 else [omega]):
        ex = make_taft(TaftConfig(n, om))
        product, antipode, delta_1site = _taft_reference(ex, n, complex(om))
        delta = ex.meta["delta_1site"]
        assert list(delta) == list(delta_1site)
        for sym, pairs in delta_1site.items():
            assert delta[sym] == pairs
            assert [(_bits(c), s1, s2) for c, s1, s2 in delta[sym]] == [
                (_bits(c), s1, s2) for c, s1, s2 in pairs]
        for u in ex.alphabet:
            for axis in "xy":
                got, want = ex.antipode(axis, word1(u)), antipode[axis](word1(u))
                assert got.items() == want.items()
                assert _sum_bits(got) == _sum_bits(want)
            for v in ex.alphabet:
                got, want = ex.multiplication(u, v), product(u, v)
                assert got.items() == want.items()
                assert _sum_bits(got) == _sum_bits(want)


def _group_without_inverse():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"}
    make_group_like(["e", "g"], table=table, unit="e")


@pytest.mark.parametrize("call, fragment", [
    (_group_without_inverse, "group table has no inverse for some symbol"),
    (lambda: TaftConfig(n=1), "order must be at least 2"),
], ids=["no-inverse", "taft-order"])
def test_each_refused_input_raises_its_error(call, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        call()
