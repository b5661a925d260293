"""Constructors for the concrete 2D coalgebra and bialgebra instances.

Most examples follow a common recipe: one marked symbol is spread over the
lattice with an "earlier" letter filling the sites that precede it in a
linear order and a "later" letter on the sites that follow it.  The linear
order is a lattice reading order (primary axis plus two sweep directions)
selected by an angle; angle zero gives the bottom-row-first, left-to-right
order.  Group-like letters double literally.  A marked family
(:class:`MarkedFamily`) lists the finite domain of each slice shape the first
time it meets the shape, so classifying a slice word is one dict lookup.

The half-plane assignment (letter "b" on the disk section between the
angles [theta, theta+pi) around the marked site) is exposed separately as
:func:`half_plane_grid`.  For axis-aligned angles it coincides with the
reading-order construction at every size; for diagonal angles the two
agree on 2 x 2 lattices but differ beyond, and only the reading order
admits row/column growth maps (see the package docs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import cmath
import math

import numpy as np

from .coalgebra import (
    AntipodeRule,
    CoalgebraExample,
    ConfigurationError,
    CounitRule,
    MultiplicationRule,
    SingularParameterError,
    Splitter,
    _cellwise_splitter,
)
from .grids import Alphabet, FormalSum, GridShape, GridWord, _drop_small, join
from .linops import Representation

THETA_STEP = math.pi / 8.0


# ---------------------------------------------------------------------------
# angles, half planes and reading orders


def quantize_theta(theta: float) -> float:
    """Validate and snap an angle to the pi/8 grid in [0, 2*pi)."""
    if not math.isfinite(theta):
        raise ConfigurationError(f"theta must be finite, got {theta}")
    k = theta / THETA_STEP
    if abs(k - round(k)) > 1e-9:
        raise ConfigurationError(f"theta must be a multiple of pi/8, got {theta}")
    return (int(round(k)) % 16) * THETA_STEP


def half_plane_after(theta: float, dx: int, dy: int) -> bool:
    """Is the offset (dx, dy) inside the half plane [theta, theta + pi)?

    Ties at angle exactly theta count as inside (so for theta = 0 the site
    to the right of the mark gets the later letter, as in the base layout).
    """
    ux, uy = math.cos(theta), math.sin(theta)
    cross = ux * dy - uy * dx
    if abs(cross) <= 1e-9:
        return ux * dx + uy * dy > 0
    return cross > 0


def reading_order_key(theta: float):
    """The insertion-stable lattice reading order induced by an angle.

    Determined by the half-plane relation on the four axis neighbors, with
    the primary axis chosen so the diagonal neighbors are consistent.
    Returns a key function (x, y) -> sortable tuple.
    """
    theta = quantize_theta(theta)
    after_r = half_plane_after(theta, 1, 0)
    after_u = half_plane_after(theta, 0, 1)
    after_d1 = half_plane_after(theta, 1, 1)
    after_d2 = half_plane_after(theta, -1, 1)
    sx = 1 if after_r else -1
    sy = 1 if after_u else -1
    if after_d1 == after_u and after_d2 == after_u:
        return lambda x, y: (sy * y, sx * x)
    if after_d1 == after_r and after_d2 != after_r:
        return lambda x, y: (sx * x, sy * y)
    raise ConfigurationError(f"no consistent reading order for theta={theta}")


def half_plane_grid(theta: float, shape: GridShape, vsite, alphabet: Alphabet | None = None) -> GridWord:
    """The disk-section assignment around a marked site.

    ``vsite`` is (row from bottom, column).  Sites whose direction from the
    mark lies in [theta, theta+pi) get "b", the rest "a".
    """
    theta = quantize_theta(theta)
    if alphabet is None:
        alphabet = Alphabet(["a", "b", "v"])
    i0, j0 = vsite
    cells = []
    for i in range(1, shape.rows + 1):
        for j in range(1, shape.cols + 1):
            if (i, j) == (i0, j0):
                cells.append(alphabet["v"])
            elif half_plane_after(theta, j - j0, i - i0):
                cells.append(alphabet["b"])
            else:
                cells.append(alphabet["a"])
    return GridWord(shape, tuple(cells))


# ---------------------------------------------------------------------------
# the marked-symbol splitter family


@dataclass
class MarkedFamily:
    """Splitter data for marked-symbol examples.

    ``markers`` maps each marked symbol to its (earlier, later) letter pair;
    ``cut_pairs`` lists letter pairs whose monotone mixed slices are valid;
    ``grouplike`` symbols double literally as constant slices.  ``key`` maps
    site coordinates (x, y[, z]), read from the word's shape, to a sortable
    reading order.

    On each slice shape the domain is finite: every marker at every site,
    with its earlier letter on the sites before it in reading order and its
    later letter on the rest (a word holding a second marker is out), every
    cut of a cut pair (earlier letter on a prefix of the reading order,
    later letter on the rest) and every group-like constant.  On the first
    use of a shape the family ranks its sites, calling ``key`` once per
    site, and lists that domain in a dict from cells to class.  The domain,
    the counits and the splitters then classify a word with one lookup, and
    a marked split lays out its two terms by the ranks of the doubled block.
    The tables hold cells, not words or sums, and live as long as the family.
    """

    markers: dict
    cut_pairs: list
    grouplike: set
    key: object
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _rank(self, shape) -> tuple:
        """Each site's place in the reading order, in linear site order;
        sites with equal keys share a place."""
        rank = self._ranks.get(shape.extents)
        if rank is None:
            keys = [self.key(*p) for p in shape.coords]
            place = {k: r for r, k in enumerate(sorted(set(keys)))}
            rank = self._ranks[shape.extents] = tuple(map(place.__getitem__, keys))
        return rank

    def _placed(self, shape, site, v) -> tuple:
        """The cells of ``shape`` holding marker ``v`` at 0-based ``site``,
        its earlier letter on the sites before it in reading order and its
        later letter on the others."""
        a, b = self.markers[v]
        rank = self._rank(shape)
        mark = rank[site]
        cells = tuple(a if r < mark else b for r in rank)
        return cells[:site] + (v,) + cells[site + 1:]

    def _table(self, shape) -> dict:
        """The shape's domain, cells -> (site, marker) for a marked slice and
        None for a free one, in sample order: markers outer and sites in
        reading order, then the cuts, then the group-like constants."""
        table = self._tables.get(shape.extents)
        if table is None:
            rank = self._rank(shape)
            order = sorted(range(len(rank)), key=rank.__getitem__)
            marks = lambda cells: sum(c in self.markers for c in cells)
            table = self._tables[shape.extents] = {}
            for v in self.markers:
                for site in order:
                    cells = self._placed(shape, site, v)
                    if marks(cells) == 1:
                        table[cells] = (site, v)
            free = []
            for a, b in self.cut_pairs:
                cells = [b] * len(rank)
                free.append(tuple(cells))
                for site in order:
                    cells[site] = a
                    free.append(tuple(cells))
            free += [(g,) * len(rank) for g in sorted(self.grouplike)]
            for cells in free:
                if not marks(cells):
                    table.setdefault(cells, None)
        return table

    def domain(self, word):
        return word.cells in self._table(word.shape)

    def splitter(self, axis) -> Splitter:
        def split(word):
            shape = word.shape
            marked = self._table(shape)[word.cells]
            if marked is None:
                return FormalSum.unit(join(axis, word, word))
            site, v = marked
            # in the block, each run of ``inner`` consecutive slice sites
            # sits right before its copy
            inner = math.prod(shape.extents[shape.axis(axis) + 1:])
            first = site + site // inner * inner
            grown = shape.slicing(axis, 1).grown
            return FormalSum(grown, [(GridWord(grown, self._placed(grown, landing, v)), 1.0)
                                     for landing in (first, first + inner)])

        return Splitter(axis, split, self.domain)

    def counit(self, axis) -> CounitRule:
        def eps(word):
            return 1.0 if self._table(word.shape)[word.cells] is None else 0.0

        return CounitRule(axis, eps, self.domain)

    def samples(self, direction, n):
        """Canonical in-domain slice words: every marker position plus all cuts."""
        shape = _slice_shape(direction, n)
        return [GridWord(shape, cells) for cells in self._table(shape)]

    def example(self, name, alphabet, **kw) -> CoalgebraExample:
        """The planar example with this family's splitters, counits and samples."""
        return CoalgebraExample(name, alphabet, **_planar_tables(lambda axis: (
            self.splitter(axis), self.counit(axis), lambda n: self.samples(axis, n))), **kw)


# ---------------------------------------------------------------------------
# per-axis example tables and sample words


def _planar_tables(rules) -> dict:
    """The splitters, counits and samplers tables of an example whose
    ``rules(axis)`` gives the (splitter, counit, sampler) of each planar axis."""
    per_axis = {axis: rules(axis) for axis in "xy"}
    return {table: {axis: r[k] for axis, r in per_axis.items()}
            for k, table in enumerate(("splitters", "counits", "samplers"))}


def _slice_shape(axis, n) -> GridShape:
    """The planar slice of n sites along the other axis, extent 1 along ``axis``."""
    return GridShape(n, n).resized(axis, 1)


def _spread(n, p, before, mark, after) -> tuple:
    """n cells: ``mark`` at 0-based position p, ``before`` and ``after`` around it."""
    return (before,) * p + (mark,) + (after,) * (n - p - 1)


def _constant_samples(axis, letters):
    """Sampler of the constant slices along ``axis``, one per letter."""
    return lambda n: [GridWord(_slice_shape(axis, n), (s,) * n) for s in letters]


def _one_letter_samples(axis, unit, letters):
    """Sampler of the slices along ``axis`` holding one letter at one site on a
    unit background, letters outer, without repeats (a unit letter gives
    the unit slice once)."""
    return lambda n: [GridWord(_slice_shape(axis, n), cells) for cells in dict.fromkeys(
        _spread(n, p, unit, s, unit) for s in letters for p in range(n))]


# ---------------------------------------------------------------------------
# cellwise tables and sitewise rules (group-like and primitive coproducts)


def _sitewise_rule(table):
    """Word rule applying ``symbol -> (coeff, symbol)`` on every site."""

    def anti(word):
        coef = 1.0 + 0j
        cells = []
        for c in word.cells:
            k, s = table[c]
            coef *= k
            cells.append(s)
        return FormalSum.unit(GridWord(word.shape, tuple(cells)), coef)

    return anti


def _sitewise_antipode(table) -> AntipodeRule:
    """Same sitewise antipode in both directions (cellwise splitters)."""
    return AntipodeRule(dict.fromkeys("xy", _sitewise_rule(table)))


def _cellwise_tables(rules, eps_table, sampler) -> dict:
    """Tables of an example whose splitters split every cell by the total
    1-site ``rules`` and whose counits multiply ``eps_table`` over the cells,
    alike along both planar axes; ``sampler(axis)`` gives the samples."""
    total = lambda w: True
    eps = _product_counit(eps_table)
    return _planar_tables(lambda axis: (
        _cellwise_splitter(axis, rules, total), CounitRule(axis, eps, total), sampler(axis)))


def _product_counit(eps_table) -> object:
    def eps(word):
        val = 1.0 + 0j
        for c in word.cells:
            val *= eps_table[c]
        return val

    return eps


# ---------------------------------------------------------------------------
# group-like and Lie-like instances


def make_group_like(names, table, unit) -> CoalgebraExample:
    """Every basis symbol is group-like; both splitters copy slices verbatim.

    ``table`` is the multiplication table {(name, name): name} with unit
    ``unit``; the example carries its multiplication rule and the inverse
    antipode.
    """
    alphabet = Alphabet(names)
    rules = {s: [(1.0, s, s)] for s in alphabet}
    unit_sym = alphabet[unit]
    lookup = {(alphabet[u], alphabet[w]): alphabet[p] for (u, w), p in table.items()}

    def product(u, w):
        return FormalSum.unit(GridWord(GridShape(1, 1), (lookup[(u, w)],)))

    inverse = {}
    for (u, w), p in lookup.items():
        if p == unit_sym:
            inverse[u] = w
    if set(inverse) != set(alphabet.symbols):
        raise ConfigurationError("group table has no inverse for some symbol")

    return CoalgebraExample(
        "group_like", alphabet,
        **_cellwise_tables(rules, {s: 1.0 for s in alphabet},
                           lambda axis: _constant_samples(axis, alphabet)),
        multiplication=MultiplicationRule(product),
        antipode=_sitewise_antipode({s: (1.0, inverse[s]) for s in alphabet}),
        grow_symbols=tuple(alphabet.symbols),
    )


def make_cyclic_group(k: int) -> CoalgebraExample:
    """Group-like example over the cyclic group of order k, with table."""
    names = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, k)]
    table = {}
    for i in range(k):
        for j in range(k):
            table[(names[i], names[j])] = names[(i + j) % k]
    return make_group_like(names, table=table, unit="1")


def make_lie_like(primitive_names, unit="1") -> CoalgebraExample:
    """Cellwise primitive coproduct: the unit is group-like, the rest primitive."""
    alphabet = Alphabet([unit] + list(primitive_names))
    u = alphabet[unit]
    rules = {u: [(1.0, u, u)]}
    for s in alphabet:
        if s != u:
            rules[s] = [(1.0, u, s), (1.0, s, u)]
    return CoalgebraExample(
        "lie_like", alphabet,
        **_cellwise_tables(rules, {s: (1.0 if s == u else 0.0) for s in alphabet},
                           lambda axis: _one_letter_samples(axis, u, alphabet)),
        antipode=_sitewise_antipode({s: ((1.0, s) if s == u else (-1.0, s)) for s in alphabet}),
        grow_symbols=tuple(alphabet.symbols),
    )


# ---------------------------------------------------------------------------
# quasi-1D constructions: one direction total, the other on its image


def _inner_rules(alphabet, inner):
    """Normalize {name: [(coef, name, name)]} to symbol-keyed Sweedler rules."""
    rules = {}
    for name, pairs in inner.items():
        rules[alphabet[name]] = [(c, alphabet[s1], alphabet[s2]) for c, s1, s2 in pairs]
    return rules


def _quasi1d_rule(inner, inner_counit, names, *units):
    """The inner rule, its counit and the names, given all three or none.
    None gives the default rule, v marked between a and b, with each of
    ``units`` group-like in front.  Any other choice is a
    :class:`ConfigurationError` naming what is missing."""
    given = {"inner": inner, "inner_counit": inner_counit, "names": names}
    missing = [key for key, value in given.items() if value is None]
    if 0 < len(missing) < len(given):
        raise ConfigurationError(f"the quasi-1D inner rule, its counit and names go together; "
                                 f"missing {', '.join(missing)}")
    if missing:
        letters = ("a", "b", *units)
        inner = {"v": [(1.0, "a", "v"), (1.0, "v", "b")], **{s: [(1.0, s, s)] for s in letters}}
        inner_counit, names = {"v": 0.0, **dict.fromkeys(letters, 1.0)}, [*units, "a", "b", "v"]
    return inner, inner_counit, names


def make_quasi1d_group(inner=None, inner_counit=None, names=None) -> CoalgebraExample:
    """Vertical splitter copies rows verbatim; the horizontal one acts on
    constant columns through an arbitrary inner 1D coproduct.  The inner
    rule, its counit and the names go together (:func:`_quasi1d_rule`)."""
    inner, inner_counit, names = _quasi1d_rule(inner, inner_counit, names)
    alphabet = Alphabet(names)
    rules = _inner_rules(alphabet, inner)
    eps_in = {alphabet[k]: complex(v) for k, v in inner_counit.items()}

    copy_rules = {s: [(1.0, s, s)] for s in alphabet}
    total = lambda w: True

    def const_domain(word):
        return len(set(word.cells)) == 1 and word.cells[0] in rules

    def split_x(word):
        n = len(word.cells)
        sym = word.cells[0]
        terms = []
        for c, s1, s2 in rules[sym]:
            terms.append((join("x", GridWord(word.shape, (s1,) * n),
                                GridWord(word.shape, (s2,) * n)), c))
        return FormalSum(GridShape(n, 2), terms)

    return CoalgebraExample(
        "quasi1d_group", alphabet,
        splitters={"x": Splitter("x", split_x, const_domain),
                   "y": _cellwise_splitter("y", copy_rules, total)},
        counits={"x": CounitRule("x", lambda w: eps_in[w.cells[0]], const_domain),
                 "y": CounitRule("y", lambda w: 1.0, total)},
        samplers={"x": _constant_samples("x", [s for s in alphabet if s in rules]),
                  "y": _constant_samples("y", alphabet)},
        grow_symbols=tuple(s for s in alphabet.symbols if s in rules),
    )


def make_quasi1d_lie(inner=None, inner_counit=None, names=None, unit="1") -> CoalgebraExample:
    """Vertical splitter embeds a row next to a unit row; horizontal one is
    the cellwise inner coproduct.  The inner coproduct must fix the unit.
    The inner rule, its counit and the names go together
    (:func:`_quasi1d_rule`); the default rule has ``unit`` in front."""
    inner, inner_counit, names = _quasi1d_rule(inner, inner_counit, names, unit)
    alphabet = Alphabet(names)
    u = alphabet[unit]
    rules = _inner_rules(alphabet, inner)
    if rules.get(u) != [(1.0, u, u)]:
        raise ConfigurationError("the inner coproduct must send the unit to unit x unit")
    eps_in = {alphabet[k]: complex(v) for k, v in inner_counit.items()}
    total = lambda w: True

    def split_y(word):
        m = len(word.cells)
        shape = GridShape(2, m)
        ones = (u,) * m
        if all(c == u for c in word.cells):
            return FormalSum.unit(GridWord(shape, ones + ones))
        w = tuple(word.cells)
        return FormalSum(shape, [(GridWord(shape, ones + w), 1.0),
                                 (GridWord(shape, w + ones), 1.0)])

    return CoalgebraExample(
        "quasi1d_lie", alphabet,
        splitters={"x": _cellwise_splitter("x", rules), "y": Splitter("y", split_y, total)},
        counits={"x": CounitRule("x", _product_counit(eps_in),
                                 lambda w: all(c in eps_in for c in w.cells)),
                 "y": CounitRule("y", lambda w: 1.0 if all(c == u for c in w.cells) else 0.0,
                                 total)},
        samplers={"x": _one_letter_samples("x", u, [s for s in alphabet if s in rules]),
                  "y": _one_letter_samples("y", u, [u, *alphabet])},
        grow_symbols=tuple(alphabet.symbols),
    )


# ---------------------------------------------------------------------------
# the cross-shaped instance


def make_cross() -> CoalgebraExample:
    """Six-letter instance spreading a mark into a cross of t, b, l, r arms."""
    alphabet = Alphabet(["1", "t", "b", "r", "l", "v"])
    one, t_, b_, r_, l_, v_ = (alphabet[n] for n in ["1", "t", "b", "r", "l", "v"])
    # per axis: the letters before and after the mark along a marked slice,
    # and the arm letters of the first and second copy across it
    letters = {"x": ((b_, t_), (l_, r_)), "y": ((l_, r_), (b_, t_))}
    return CoalgebraExample(
        "cross", alphabet,
        **_planar_tables(lambda axis: _cross_rules(axis, one, v_, *letters[axis])),
        grow_symbols=tuple(alphabet.symbols))


def _cross_rules(axis, one, v, along, across):
    """The cross instance's (splitter, counit, sampler) along ``axis``.

    A marked slice holds v with ``along = (before, after)`` on either side;
    splitting it puts the slice in one copy and, in the other, a unit
    slice with the arm letter of ``across = (first, second)`` level with
    the mark.  A slice without v over the other letters doubles literally.
    """
    before, after = along
    first_arm, second_arm = across
    free = {one, before, after, first_arm, second_arm}

    def mark(word):
        """The mark's 0-based position, -1 for a free slice, None off the domain."""
        cells = tuple(word.cells)
        if v not in cells:
            return -1 if set(cells) <= free else None
        p = cells.index(v)
        return p if cells == _spread(len(cells), p, before, v, after) else None

    def split(word):
        p = mark(word)
        if p < 0:
            return FormalSum.unit(join(axis, word, word))
        arm = lambda letter: GridWord(word.shape, _spread(len(word.cells), p, one, letter, one))
        return FormalSum(word.shape.slicing(axis, 1).grown,
                         [(join(axis, word, arm(second_arm)), 1.0),
                          (join(axis, arm(first_arm), word), 1.0)])

    def samples(n):
        shape = _slice_shape(axis, n)
        out = [GridWord(shape, cells) for p in range(n) for cells in (
            _spread(n, p, before, v, after), _spread(n, p, one, second_arm, one),
            _spread(n, p, one, first_arm, one))]
        return out + [GridWord(shape, (s,) * n) for s in (one, after, before)]

    in_domain = lambda w: mark(w) is not None
    return (Splitter(axis, split, in_domain),
            CounitRule(axis, lambda w: 0.0 if mark(w) >= 0 else 1.0, in_domain), samples)


# ---------------------------------------------------------------------------
# the marked-symbol ("pivot") instance and its angle generalization


@dataclass
class PivotConfig:
    symbols: tuple = ("a", "b", "v")
    theta: float = 0.0


def make_pivot(cfg: PivotConfig | None = None, theta: float | None = None) -> CoalgebraExample:
    """Marked-symbol instance: "a" before the mark, "b" after, in the
    reading order induced by the angle (theta = 0: bottom rows first,
    left to right).  ``theta`` stands for ``PivotConfig(theta=theta)``, so
    giving both is a :class:`ConfigurationError`."""
    if cfg is None:
        cfg = PivotConfig(theta=theta or 0.0)
    elif theta is not None:
        raise ConfigurationError("make_pivot takes cfg or theta, not both")
    theta_q = quantize_theta(cfg.theta)
    alphabet = Alphabet(list(cfg.symbols))
    a, b, v = (alphabet[n] for n in cfg.symbols)
    family = MarkedFamily(
        markers={v: (a, b)},
        cut_pairs=[(a, b)],
        grouplike={a, b},
        key=reading_order_key(theta_q),
    )
    ex = family.example(f"pivot(theta={theta_q:g})", alphabet, grow_symbols=(a, b, v))
    ex.meta = {"theta": theta_q, "family": family}
    return ex


# ---------------------------------------------------------------------------
# Taft bialgebra instance


@dataclass
class TaftConfig:
    n: int = 2
    omega: complex = -1.0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError("order must be at least 2")
        w = complex(self.omega)
        if not cmath.isfinite(w) or abs(w ** self.n - 1) > 1e-12:
            raise ConfigurationError("omega must be an n-th root of unity")
        for k in range(1, self.n):
            if abs(w ** k - 1) < 1e-12:
                raise ConfigurationError("omega must be a primitive n-th root")


def taft_basis_name(i: int, j: int) -> str:
    if i == 0 and j == 0:
        return "1"
    gpart = "" if i == 0 else ("g" if i == 1 else f"g{i}")
    xpart = "" if j == 0 else ("x" if j == 1 else f"x{j}")
    return gpart + xpart


def make_taft(cfg: TaftConfig) -> CoalgebraExample:
    """Marked-symbol instance over the n^2-dimensional basis g^i x^j, with
    normal-form multiplication (x g = omega g x, g^n = 1, x^n = 0) and the
    antipode forced by the Hopf axioms.  The antipode table and the 1-site
    coproduct ``meta['delta_1site']`` multiply basis elements by exponent
    arithmetic, one normal-form product at a time."""
    n, omega = cfg.n, complex(cfg.omega)
    names = [taft_basis_name(i, j) for j in range(n) for i in range(n)]
    alphabet = Alphabet(names)
    idx = {(i, j): alphabet[taft_basis_name(i, j)] for j in range(n) for i in range(n)}
    exponents = {sym: ij for ij, sym in idx.items()}
    one, g, x = idx[(0, 0)], idx[(1, 0)], idx[(0, 1)]

    def mul(u, w):
        """``u w`` in normal form as (symbol, coefficient), None where it vanishes."""
        (i1, j1), (i2, j2) = exponents[u], exponents[w]
        if j1 + j2 >= n:
            return None
        return idx[((i1 + i2) % n, j1 + j2)], omega ** (j1 * i2)

    def product(u, w):
        uw = mul(u, w)
        if uw is None:
            return FormalSum(GridShape(1, 1))
        return FormalSum.unit(GridWord(GridShape(1, 1), uw[:1]), uw[1])

    mult = MultiplicationRule(product)
    ginv = idx[(n - 1, 0)]

    # S(g^i x^j) = S(x)^j S(g)^i with S(g) = g^(n-1), S(x) = -x g^(n-1); no
    # factor vanishes, since the x exponent stays below j < n
    anti_table = {}
    for (i, j), sym in idx.items():
        coef, cur = 1.0 + 0j, one
        for _ in range(j):
            coef *= -1.0
            for w in (x, ginv):
                cur, c = mul(cur, w)
                coef *= c
        for _ in range(i):
            cur, c = mul(cur, ginv)
            coef *= c
        anti_table[sym] = (coef, cur)

    family = MarkedFamily(
        markers={x: (one, g)},
        cut_pairs=[(one, g)],
        grouplike={one, g},
        key=reading_order_key(0.0),
    )
    sitewise = _sitewise_rule(anti_table)

    def anti_y(word):
        # marked rows embed the whole slice: S(row) = -(S(1).u.S(g) per site)
        if not any(c == x for c in word.cells):
            return sitewise(word)
        coef, cells = -1.0 + 0j, []
        for u in word.cells:
            s, c = mul(u, ginv)
            cells.append(s)
            coef *= c
        return FormalSum.unit(GridWord(word.shape, tuple(cells)), coef)

    def tensor_mul(acc, factor):
        out = {}
        for (u1, u2), c in acc.items():
            for (w1, w2), d in factor.items():
                p1, p2 = mul(u1, w1), mul(u2, w2)
                if p1 is not None and p2 is not None:
                    k = (p1[0], p2[0])
                    out[k] = out.get(k, 0j) + c * d * p1[1] * p2[1]
        return _drop_small(out)

    # full 1-site coproduct on the basis: delta(g^i x^j) = (g x g)^i (1 x x + x x g)^j,
    # each entry one factor past an earlier one: (i, j) from (i, j-1), (i, 0) from (i-1, 0)
    delta_g = {(g, g): 1.0 + 0j}
    delta_x = {(one, x): 1.0 + 0j, (x, g): 1.0 + 0j}
    deltas, delta_1site = {(0, 0): {(one, one): 1.0 + 0j}}, {}
    for (i, j), sym in idx.items():
        if j:
            deltas[i, j] = tensor_mul(deltas[i, j - 1], delta_x)
        elif i:
            deltas[i, j] = tensor_mul(deltas[i - 1, j], delta_g)
        delta_1site[sym] = [(c, s1, s2) for (s1, s2), c in deltas[i, j].items()]

    ex = family.example(f"taft(n={n})", alphabet,
                        multiplication=mult,
                        antipode=AntipodeRule({"x": sitewise, "y": anti_y}),
                        grow_symbols=(one, g, x))
    ex.meta = {"taft": cfg, "family": family, "delta_1site": delta_1site}
    return ex


def regular_rep(ex: CoalgebraExample) -> Representation:
    """Left regular representation of an example's multiplication rule: one
    basis vector per alphabet symbol, in id order, and each symbol h sent to
    the matrix of e -> h e."""
    if ex.multiplication is None:
        raise ConfigurationError(f"{ex.name} carries no multiplication rule")
    basis = ex.alphabet.symbols
    mats = {}
    for h in basis:
        mat = mats[h] = np.zeros((len(basis), len(basis)), dtype=complex)
        for e in basis:
            for word, c in ex.multiplication(h, e).unordered_items():
                mat[word.cells[0], e] = c
    return Representation(ex.alphabet, mats)


# ---------------------------------------------------------------------------
# the symbolic quantum-group instance


# the deformed-su(2) alphabet, in id order; shared with uqsu2.spin_half_rep
UQ_NAMES = ("1", "S+", "S-", "Sz", "K+", "K-", "K+2", "K-2")


def regular_q(q) -> complex:
    """``q`` as a complex number: a non-finite q is a
    :class:`ConfigurationError` and q = 0 a :class:`SingularParameterError`."""
    q = complex(q)
    if not cmath.isfinite(q):
        raise ConfigurationError(f"q must be finite, got {q}")
    if q == 0:
        raise SingularParameterError("q must be nonzero")
    return q


def nonsingular_q(q) -> complex:
    """:func:`regular_q`, and q**2 = 1, where 1/(q - 1/q) is singular, a
    :class:`SingularParameterError` too."""
    q = regular_q(q)
    if abs(q * q - 1.0) <= 1e-12:
        raise SingularParameterError("q**2 = 1 makes 1/(q - 1/q) singular")
    return q


def make_uq_symbolic(q: complex) -> CoalgebraExample:
    """Deformed su(2) generators on the lattice, as a marked-symbol instance.

    Raising/lowering marks spread with K- before and K+ after; the Cartan
    mark spreads with identities; K letters and their squares are
    group-like.  The deformation parameter enters the antipode scaling and
    downstream numeric checks only; it must pass :func:`regular_q`.
    """
    q = regular_q(q)
    alphabet = Alphabet(UQ_NAMES)
    one, sp, sm, sz, kp, km, kp2, km2 = alphabet.symbols
    family = MarkedFamily(
        markers={sp: (km, kp), sm: (km, kp), sz: (one, one)},
        cut_pairs=[(km, kp), (km2, kp2)],
        grouplike={one, kp, km, kp2, km2},
        key=reading_order_key(0.0),
    )
    sitewise = _sitewise_rule({
        one: (1.0, one),
        sp: (-q, sp),
        sm: (-1.0 / q, sm),
        sz: (-1.0, sz),
        kp: (1.0, km),
        km: (1.0, kp),
        kp2: (1.0, km2),
        km2: (1.0, kp2),
    })
    scale = {sp: -q, sm: -1.0 / q, sz: -1.0 + 0j}

    def anti_y(word):
        # marked rows keep their K letters and only pick up the mark's scale
        marks = [c for c in word.cells if c in scale]
        if not marks:
            return sitewise(word)
        return FormalSum.unit(word, scale[marks[0]])

    ex = family.example(f"uq(q={q:g})", alphabet,
                        antipode=AntipodeRule({"x": sitewise, "y": anti_y}),
                        grow_symbols=tuple(alphabet.symbols))
    ex.meta = {"q": q, "family": family}
    return ex

