"""The lattice coproduct engine and its axiom checks.

A coalgebra instance supplies its partial splitter maps, counits, sample
words and antipode as tables keyed by lattice axis: the x-splitter doubles
an n x 1 column into an n x 2 block, the y-splitter a 1 x m row into a
2 x m block, and a cube's z-splitter a single layer into two.  Asking for
an axis the instance lacks raises ``ValueError``.  Growing a single symbol
by repeatedly splitting slices along the axes produces the lattice
elements checked here for quasi-1D associativity, xy-compatibility,
counit, homomorphism and antipode laws, and the marked-symbol cube; growth
that leaves a splitter's domain fails the check instance that needed it.

Tensor-factor convention: the first factor of a split is the earlier block
in linear site order, i.e. the left column for x-splits, the bottom row for
y-splits and the lower layer for z-splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
import json
import math
import time

from .grids import (
    AXES,
    EQ_TOL,
    Alphabet,
    FormalSum,
    GridShape,
    GridWord,
    ShapeError,
    Symbol,
    join,
    sum_difference,
    word1,
    worst_word,
)
from .linops import (Representation, evaluate, identity_operator, kron_terms,
                     operator_difference, worst_entry)


class DomainError(ValueError):
    """Input outside a partial map's domain.  Expected behavior, not a bug."""


class ConfigurationError(ValueError):
    """The example lacks data (multiplication, antipode) required by a check."""


class SingularParameterError(ValueError):
    """A parameter value makes a required expression singular."""


@dataclass
class Splitter:
    """Partial map doubling a slice of extent 1 along its axis ('x' doubles
    a column, 'y' a row, 'z' a layer) into a block of extent 2.

    ``rule`` and ``domain`` must be pure functions of the word, and the
    :class:`FormalSum` a rule returns is immutable, like every sum.  So each
    in-domain word is checked and split once: the result is stored in this
    splitter's memo, keyed by the word, and later calls with an equal word
    return the stored sum.  The check raises :class:`ShapeError` for a word
    whose extent along the axis is not 1 and for a result whose extent is
    not 2, and :class:`DomainError` for an out-of-domain word; none of these
    enter the memo, so they raise on every call.  The memo belongs to the
    splitter and so lives exactly as long as the example that holds it.
    """

    direction: str
    rule: object          # GridWord -> FormalSum over the doubled shape
    domain: object        # GridWord -> bool
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, word: GridWord) -> FormalSum:
        out = self._memo.get(word)
        if out is None:
            axis, shape = self.direction, word.shape
            if shape.extents[shape.axis(axis)] != 1:
                raise ShapeError(f"{axis}-splitter wants extent 1 along {axis}, got {shape}")
            if not self.domain(word):
                raise DomainError(f"{word!r} outside the {axis}-splitter domain")
            out, want = self.rule(word), shape.slicing(axis, 1).grown
            if out.shape != want:
                raise ShapeError(f"splitter returned {out.shape}, expected {want}")
            self._memo[word] = out
        return out


def _cellwise_splitter(direction, rules, domain=None) -> Splitter:
    """Split every cell independently by 1-site Sweedler rules."""

    def split(word):
        combos = [(1.0 + 0j, (), ())]
        for c in word.cells:
            combos = [
                (coef * rc, firsts + (s1,), seconds + (s2,))
                for coef, firsts, seconds in combos
                for rc, s1, s2 in rules[c]
            ]
        return FormalSum(word.shape.slicing(direction, 1).grown,
                         [(join(direction, GridWord(word.shape, f), GridWord(word.shape, s)), coef)
                          for coef, f, s in combos])

    if domain is None:
        domain = lambda w: all(c in rules for c in w.cells)
    return Splitter(direction, split, domain)


@dataclass
class CounitRule:
    """Partial counit on slice words, memoized like :class:`Splitter`.

    ``rule`` and ``domain`` must be pure functions of the word; each
    in-domain word's value is computed once and stored, and an
    out-of-domain word raises :class:`DomainError` on every call.
    """

    direction: str
    rule: object          # GridWord -> complex
    domain: object
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, word: GridWord) -> complex:
        out = self._memo.get(word)
        if out is None:
            if not self.domain(word):
                raise DomainError(f"{word!r} outside the {self.direction}-counit domain")
            out = self._memo[word] = complex(self.rule(word))
        return out


@dataclass
class MultiplicationRule:
    """Sitewise product via structure constants on the symbol basis."""

    unit: Symbol
    product: object       # (Symbol, Symbol) -> FormalSum over 1x1 words

    def __call__(self, u: Symbol, w: Symbol) -> FormalSum:
        return self.product(u, w)


@dataclass
class AntipodeRule:
    """Axis-indexed antipode on slice words.

    Cellwise splitters admit a sitewise antipode; splitters that embed the
    whole slice (the vertical ones here) need their own family rule, so
    ``rules`` holds one partial function per axis.
    """

    rules: dict           # axis -> (GridWord -> FormalSum of the same shape)

    def __call__(self, direction: str, word: GridWord) -> FormalSum:
        return _along(self.rules, "the antipode", "rule", direction)(word)


@dataclass
class CoalgebraExample:
    """An alphabet with per-axis splitter, counit and sample tables and
    optional algebra data.

    ``splitters``, ``counits`` and ``samplers`` are keyed by axis name: a
    planar example fills them for x and y, and a cube example adds its
    z-splitter.  A sampler maps n to slice words of n sites along its axis,
    each in that axis's splitter and counit domains.  Asking for an axis
    the example lacks raises :class:`ValueError`.
    """

    name: str
    alphabet: object
    splitters: dict       # axis -> Splitter
    counits: dict         # axis -> CounitRule
    samplers: dict        # axis -> (n -> list[GridWord])
    multiplication: MultiplicationRule | None = None
    antipode: AntipodeRule | None = None
    unit: Symbol | None = None
    grow_symbols: tuple = ()
    meta: dict = field(default_factory=dict)

    def splitter(self, axis) -> Splitter:
        return _along(self.splitters, self.name, "splitter", axis)

    def counit(self, axis) -> CounitRule:
        return _along(self.counits, self.name, "counit", axis)

    def samples(self, direction, n):
        return _along(self.samplers, self.name, "samples", direction)(n)


def _along(table, owner, kind, axis):
    """``table[axis]``; a :class:`ValueError` naming ``owner`` if it has none."""
    try:
        return table[axis]
    except KeyError:
        raise ValueError(f"{owner} has no {kind} along axis {axis!r}") from None


def apply_splitter(ex: CoalgebraExample, axis: str, word: GridWord) -> FormalSum:
    """Apply the axis's splitter to a slice word (extent 1 along ``axis``).

    The splitter raises :class:`ShapeError` unless the word has extent 1
    along the axis and the result extent 2.
    """
    return ex.splitter(axis)(word)


def grow(ex: CoalgebraExample, s: FormalSum, axis: str, block: int | None = None) -> FormalSum:
    """Split one slice along ``axis`` of every term, splicing the result in place.

    ``block`` is the 1-based slice to split (a column for 'x', a row for
    'y', a layer for 'z'); the default is the last one, matching boundary
    growth.  The step is one pass of :meth:`~hopf2d.grids.Slicing.grow`:
    the splitter is called once per term, and the grown terms are merged
    into one dict as they are made.  Along x, a term held as x-slices hands
    the splitter the column it holds and is spliced in O(m) for m columns.
    """
    extent = s.shape.extents[s.shape.axis(axis)]
    return s.shape.slicing(axis, extent if block is None else block).grow(s, ex.splitter(axis))


def boxplus(ex: CoalgebraExample, v: Symbol, n: int, m: int, order: str = "y_first") -> FormalSum:
    """Grow a single symbol to the n x m lattice element.

    The canonical path grows the column to height n first, then the rows to
    width m; ``order='x_first'`` does the opposite.  Growth-order
    independence is a checked property, not an assumption.
    """
    if isinstance(v, str):
        v = ex.alphabet[v]
    if order not in ("y_first", "x_first"):
        raise ValueError(f"unknown growth order {order!r}")
    steps = "y" * (n - 1) + "x" * (m - 1)
    return _grown(ex, FormalSum.unit(word1(v)), steps if order == "y_first" else steps[::-1])


def _grown(ex, s: FormalSum, axes) -> FormalSum:
    """``s`` grown by one slice along each axis of ``axes`` in turn."""
    for axis in axes:
        s = grow(ex, s, axis)
    return s


def boxplus_sum(ex: CoalgebraExample, s: FormalSum, n: int, m: int) -> FormalSum:
    """Linear extension of :func:`boxplus` to a 1 x 1 formal sum.

    A symbol whose 1 x 1 word is outside the domain of the first splitter
    :func:`boxplus` grows it through (a product of generators) falls back to
    the rearranged 1D coproduct when the example carries a 1-site Sweedler
    rule in ``meta['delta_1site']``.  A :class:`DomainError` met later in the
    growth of any other symbol propagates.
    """
    if s.shape != GridShape(1, 1):
        raise ShapeError("boxplus_sum wants a 1 x 1 sum")
    rule = ex.meta.get("delta_1site")
    first = "y" if n > 1 else "x" if m > 1 else None  # boxplus grows the column first
    terms = []
    for word, coeff in s.unordered_items():
        sym = word.cells[0]
        if rule is not None and first is not None and not ex.splitter(first).domain(word):
            grown = boxplus_from_1d(rule, sym, n, m, key=ex.meta.get("order_key"))
        else:
            grown = boxplus(ex, sym, n, m)
        terms += _scaled(grown, coeff)
    return FormalSum(GridShape(n, m), terms)


def _scaled(s: FormalSum, scalar):
    """The terms of ``scalar * s``, unordered, for one merged build by the caller."""
    return ((w, c * scalar) for w, c in s.unordered_items())


def boxplus_from_1d(delta_rule, sym: Symbol, n: int, m: int, key=None) -> FormalSum:
    """Rearrange the (n*m - 1)-fold 1D coproduct onto the lattice.

    ``delta_rule`` maps a symbol to Sweedler pairs [(coeff, s1, s2)];
    factor k of the iterated coproduct lands on the k-th lattice site in
    the reading order given by ``key`` (default: bottom rows first, left
    to right).  This is the identification making the lattice elements an
    algebra homomorphism image of the 1D bialgebra, and serves as an
    independent oracle for the grown elements.
    """
    sites = n * m
    terms = {(sym,): 1.0 + 0j}
    for _ in range(sites - 1):
        new = {}
        for word, coeff in terms.items():
            for c, s1, s2 in delta_rule[word[0]]:
                grownw = (s1, s2) + word[1:]
                new[grownw] = new.get(grownw, 0j) + coeff * c
        terms = new
    shape = GridShape(n, m)
    if key is None:
        key = lambda x, y: (y, x)
    order = sorted(
        ((i, j) for i in range(1, n + 1) for j in range(1, m + 1)),
        key=lambda ij: key(ij[1], ij[0]),
    )
    rank = {site: k for k, site in enumerate(order)}
    factor = [rank[(i, j)] for i in range(1, n + 1) for j in range(1, m + 1)]
    # the map onto the grid is one-to-one, so no two terms share a grid word
    return FormalSum(shape, [(GridWord(shape, tuple(word[k] for k in factor)), coeff)
                             for word, coeff in terms.items()])


# ---------------------------------------------------------------------------
# check reports


@dataclass
class CheckInstance:
    input: str
    passed: bool
    residual: float
    details: dict = field(default_factory=dict)


@dataclass
class CheckReport:
    check: str
    sizes: list
    instances: list
    elapsed: float = 0.0

    @property
    def max_residual(self) -> float:
        """Largest instance residual; NaN if any residual is NaN, 0.0 if there are none."""
        residuals = [i.residual for i in self.instances]
        if any(r != r for r in residuals):
            return math.nan
        return max(residuals, default=0.0)

    @property
    def ok(self) -> bool:
        return all(i.passed for i in self.instances)

    def to_json(self) -> str:
        obj = {
            "check": self.check,
            "sizes": [list(s) for s in self.sizes],
            "instances": [
                {"input": i.input, "pass": i.passed, "residual": i.residual, **(
                    {"details": i.details} if i.details else {})}
                for i in self.instances
            ],
            "max_residual": self.max_residual,
        }
        return json.dumps(_json_numbers(obj), sort_keys=True, allow_nan=False)


def _json_numbers(value):
    """``value`` with every non-finite float spelled as a string ('nan', 'inf',
    '-inf'), which standard JSON has no number for."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {k: _json_numbers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_numbers(v) for v in value]
    return value


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


# ---------------------------------------------------------------------------
# axiom checks


def check_quasi_1d_assoc(ex, direction, n, words=None, tol=EQ_TOL) -> CheckReport:
    """(split x id) o split == (id x split) o split on the given slice words.

    The two sides grow the split word's first and second slice.  A word
    outside the splitter domain raises :class:`DomainError`; growth that
    leaves it fails the word's instance (see :func:`_checked`).
    """
    if words is None:
        words = ex.samples(direction, n)
    instances = []
    with _Timer() as t:
        for w in words:
            label, doubled = repr(w), apply_splitter(ex, direction, w)
            instances.append(_checked(label, lambda: _compared(
                label, grow(ex, doubled, direction, 1), grow(ex, doubled, direction, 2), tol)))
    return CheckReport("quasi_1d_assoc_" + direction, _slice_sizes(direction, n), instances,
                       t.elapsed)


def _slice_sizes(direction, n):
    """The report sizes of a check on planar slices of n sites along ``direction``."""
    return [GridShape(n, n).resized(direction, 1).extents]


def _compared(label, got: FormalSum, want: FormalSum, tol, res=None) -> CheckInstance:
    """The instance comparing two sums; a failing one names its worst word.

    ``res`` is the residual when the caller has it already.
    """
    if res is None:
        res = sum_difference(got, want)
    if res <= tol:
        return CheckInstance(label, True, res)
    return CheckInstance(label, False, res, {"worst_word": worst_word(got, want)})


def _checked(label, compare) -> CheckInstance:
    """The instance ``compare()`` returns, or, when it leaves a partial map's
    domain, a failing one with residual inf whose ``domain_error`` detail
    names the word."""
    try:
        return compare()
    except DomainError as exc:
        return CheckInstance(label, False, math.inf, {"domain_error": str(exc)})


def _halves(axis, block: GridWord):
    """The two slice factors of a doubled block, earlier one first."""
    return block.slice(axis, 1), block.slice(axis, 2)


def check_xy_compat(ex, n, m, symbols=None, tol=EQ_TOL) -> CheckReport:
    """Corner growth in both orders, per symbol, at every size up to n x m.

    At every corner (k, l) with 1 <= k < n and 1 <= l < m, the canonical
    k x l element is grown by a row and then a column, and by a column and
    then a row.  The two results must agree, and the first must equal the
    canonical (k+1) x (l+1) element.  The (1, 1) corner is the base case
    ``base2x2``, where the first result is the canonical 2 x 2 element
    itself; it runs even when n or m is 1.  Every sum is grown once per
    symbol, from the longest grown prefix of its axis sequence; the
    canonical k x l element grows the column first, then the rows, exactly
    as :func:`boxplus` grows it.  Growth that leaves a splitter's domain
    fails the instances that need it (see :func:`_checked`).  The report
    names the single size [n, m], which stands for every size up to n x m.
    """
    if symbols is None:
        symbols = ex.grow_symbols
    corners = [(k, l) for k in range(1, n) for l in range(1, m)] or [(1, 1)]
    instances = []
    with _Timer() as t:
        for sym in symbols:
            sym = ex.alphabet[sym] if isinstance(sym, str) else sym
            grown = {"": FormalSum.unit(word1(sym))}  # axis sequence -> sum

            def along(axes):
                if axes not in grown:
                    grown[axes] = grow(ex, along(axes[:-1]), axes[-1])
                return grown[axes]

            def compared(label, got, want):
                return _checked(label, lambda: _compared(label, along(got), along(want), tol))

            for k, l in corners:
                base = "y" * (k - 1) + "x" * (l - 1)
                if (k, l) == (1, 1):
                    instances.append(compared(f"base2x2:{sym}", base + "yx", base + "xy"))
                    continue
                instances.append(compared(f"corner{k}x{l}:{sym}", base + "yx", base + "xy"))
                instances.append(compared(f"corner{k}x{l}:{sym}:vs_canonical", base + "yx",
                                          "y" * k + "x" * l))
    return CheckReport("xy_compat", [(n, m)], instances, t.elapsed)


def check_counit(ex, direction, n, words=None, tol=EQ_TOL) -> CheckReport:
    """Both one-sided counit contractions undo the splitter on the given words.

    A failing instance names the worst word of the worse side.  A word
    outside the splitter domain raises :class:`DomainError`; a split half
    outside the counit domain fails the word's instance (see :func:`_checked`).
    """
    if words is None:
        words = ex.samples(direction, n)
    eps = ex.counit(direction)

    def contracted(label, w, doubled):
        left, right = [], []
        for b, c in doubled.unordered_items():
            first, second = _halves(direction, b)
            left.append((second, c * eps(first)))
            right.append((first, c * eps(second)))
        target = FormalSum.unit(w)
        sides = [FormalSum(w.shape, left), FormalSum(w.shape, right)]
        gaps = [sum_difference(side, target) for side in sides]
        worse = 1 if gaps[1] > gaps[0] else 0
        return _compared(label, sides[worse], target, tol, max(gaps))

    instances = []
    with _Timer() as t:
        for w in words:
            label, doubled = repr(w), apply_splitter(ex, direction, w)
            instances.append(_checked(label, lambda: contracted(label, w, doubled)))
    return CheckReport("counit_" + direction, _slice_sizes(direction, n), instances, t.elapsed)


def check_homomorphism(ex, rep: Representation, n, m, pairs, tol=EQ_TOL) -> CheckReport:
    """boxplus(u) . boxplus(w) == boxplus(u w) as operators in ``rep``.

    Growth that leaves a splitter's domain fails the pair's instance (see
    :func:`_checked`).
    """
    if ex.multiplication is None:
        raise ConfigurationError(f"{ex.name} carries no multiplication rule")

    def compared(u, w):
        lhs = evaluate(boxplus(ex, u, n, m), rep) @ evaluate(boxplus(ex, w, n, m), rep)
        rhs = evaluate(boxplus_sum(ex, ex.multiplication(u, w), n, m), rep)
        res = operator_difference(lhs, rhs)
        return CheckInstance(f"{u}*{w}", res <= tol, res)

    instances = []
    with _Timer() as t:
        for u, w in pairs:
            u = ex.alphabet[u] if isinstance(u, str) else u
            w = ex.alphabet[w] if isinstance(w, str) else w
            instances.append(_checked(f"{u}*{w}", lambda: compared(u, w)))
    return CheckReport("homomorphism", [(n, m)], instances, t.elapsed)


def check_antipode(ex, rep: Representation, direction, n, words=None, tol=EQ_TOL) -> CheckReport:
    """mu (S x id) split == counit times identity, numerically in ``rep``.

    Two words of one shape multiply site by site, so each side is one
    :func:`kron_terms` sum whose factors are the products ``rep[x] @ rep[y]``.
    A failing instance names the worst side's worst entry (:func:`worst_entry`).
    """
    if ex.antipode is None:
        raise ConfigurationError(f"{ex.name} carries no antipode rule")
    if words is None:
        words = ex.samples(direction, n)
    eps = ex.counit(direction)

    def sitewise(coeff, u, w):  # the term of coeff * (u . w)
        return coeff, [rep[x] @ rep[y] for x, y in zip(u.cells, w.cells)]

    instances = []
    with _Timer() as t:
        for w in words:
            left, right = [], []
            for b, c in apply_splitter(ex, direction, w).unordered_items():
                first, second = _halves(direction, b)
                left += [sitewise(c * a, u, second)
                         for u, a in ex.antipode(direction, first).unordered_items()]
                right += [sitewise(c * a, first, u)
                          for u, a in ex.antipode(direction, second).unordered_items()]
            target = eps(w) * identity_operator(rep.dim ** w.shape.sites)
            sides = [kron_terms(terms, rep.dim, w.shape.sites) for terms in (left, right)]
            gaps = [operator_difference(side, target) for side in sides]
            worse = 0 if gaps[0] >= gaps[1] or gaps[0] != gaps[0] else 1  # NaN is worse
            inst = CheckInstance(repr(w), gaps[worse] <= tol, gaps[worse])
            if not inst.passed:
                inst.details["worst_entry"] = worst_entry(sides[worse], target)
            instances.append(inst)
    return CheckReport("antipode_" + direction, _slice_sizes(direction, n), instances, t.elapsed)


# ---------------------------------------------------------------------------
# the dual algebra of grid functionals


def _as_functional(f):
    """Normalize a functional given as a callable or a dict keyed by symbol name."""
    if callable(f):
        return f

    def lookup(sym, table=f):
        if sym.name in table:
            return complex(table[sym.name])
        return complex(table.get(sym, 0.0))

    return lookup


def matrix_element_functional(rep: Representation, bra, ket):
    """Per-site functional sym -> <bra| M_sym |ket> from dual/state vectors."""
    import numpy as np

    bra = np.asarray(bra, dtype=complex).reshape(1, -1)
    ket = np.asarray(ket, dtype=complex).reshape(-1, 1)

    def f(sym):
        return complex((bra @ rep[sym] @ ket)[0, 0])

    return f


def dual_product(functionals, ex, v, n, m, gathering="cols") -> complex:
    """Evaluate a grid of linear functionals on the grown lattice element.

    ``functionals[i-1][j-1]`` acts on the site at row i (bottom first),
    column j; entries map symbols to numbers (dict keyed by symbol name, or
    a callable).  ``gathering`` selects the growth path used to build the
    element: 'cols' grows the column first, 'rows' the row first.  The two
    gatherings agreeing is the dual-associativity statement under test.
    """
    if len(functionals) != n or any(len(r) != m for r in functionals):
        raise ShapeError("functional grid does not match the lattice size")
    fs = [[_as_functional(f) for f in row] for row in functionals]
    order = "y_first" if gathering == "cols" else "x_first"
    element = boxplus(ex, v, n, m, order=order)
    total = 0j
    for word, coeff in element.items():
        val = coeff
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                val *= fs[i - 1][j - 1](word.cell(i, j))
        total += val
    return total


# ---------------------------------------------------------------------------
# the cocommutativity proposition for factorized splitters


def _pair_sum(pairs, swapped=False) -> FormalSum:
    shape = GridShape(1, 2)
    terms = []
    for c, s1, s2 in pairs:
        cells = (s2, s1) if swapped else (s1, s2)
        terms.append((GridWord(shape, cells), c))
    return FormalSum(shape, terms)


def check_trivial_proposition(dx, dy, instance_syms, tol=EQ_TOL) -> CheckReport:
    """Test the factorized xy-compatibility premise and its consequences.

    ``dx``/``dy`` map each symbol to Sweedler pairs ``[(coeff, s1, s2)]``
    read as 1-site splitter rules.  For each instance the premise
    (dy x dy) dx == (dx x dx) dy is measured; when it holds on every
    instance, the conclusions dx == dy and dx == dx-opposite are asserted
    as literal rule equalities on those instances.
    """
    split_x, split_y = _cellwise_splitter("x", dx), _cellwise_splitter("y", dy)
    row, column = GridShape(1, 2), GridShape(2, 1)
    instances = []
    with _Timer() as t:
        results = []
        shape = GridShape(2, 2)
        for sym in instance_syms:
            # dx gives a 1 x 2 row whose cells dy splits, dy a 2 x 1 column for dx
            lhs = FormalSum(shape, [t for c, s1, s2 in dx[sym]
                                    for t in _scaled(split_y(GridWord(row, (s1, s2))), c)])
            rhs = FormalSum(shape, [t for c, s1, s2 in dy[sym]
                                    for t in _scaled(split_x(GridWord(column, (s1, s2))), c)])
            res = sum_difference(lhs, rhs)
            results.append((sym, res <= tol, res))
        premise_all = all(h for _, h, _ in results)
        for sym, holds, res in results:
            details = {"premise_holds": holds}
            passed = True
            if premise_all:
                same = sum_difference(_pair_sum(dx[sym]), _pair_sum(dy[sym]))
                cocomm = sum_difference(_pair_sum(dx[sym]), _pair_sum(dx[sym], swapped=True))
                details["dx_eq_dy_residual"] = same
                details["cocommutative_residual"] = cocomm
                passed = same <= tol and cocomm <= tol
                res = max(res, same, cocomm)
            instances.append(CheckInstance(str(sym), passed, res, details))
    return CheckReport("trivial_proposition", [(2, 2)], instances, t.elapsed)


# ---------------------------------------------------------------------------
# the marked-symbol cube


CUBE_SIZES = (2, 3, 4)


def cube_xyz_compat(tol=EQ_TOL) -> CheckReport:
    """Every axis order grows the k x k x k marked-symbol cube to one sum.

    The cube's splitters are the marked-symbol family under the reading key
    (z, y, x): x fastest, then y, then z, which is the linear site order.
    For k in :data:`CUBE_SIZES` each symbol grows along all six axis orders,
    each axis to extent k in turn.  The grown ``v`` must be the oracle: v at
    one site, ``a`` on every site before it and ``b`` on every site after
    it in reading order, each with coefficient 1; ``a`` and ``b`` must fill
    the cube.  The 2 x 2 x 2 instances are labelled by the symbol alone,
    larger ones as ``symbol:kxkxk``; a failing instance names its worst word,
    or the word that left a splitter's domain (see :func:`_checked`).
    """
    from .instances import MarkedFamily

    alphabet = Alphabet(["a", "b", "v"])
    a, b, v = alphabet.symbols
    key = lambda x, y, z: (z, y, x)
    family = MarkedFamily(markers={v: (a, b)}, cut_pairs=[(a, b)], grouplike={a, b}, key=key)
    ex = family.example("cube", alphabet)
    ex.splitters["z"] = family.splitter("z")
    orders = list(permutations(AXES))
    instances = []
    with _Timer() as t:
        for k in CUBE_SIZES:
            shape = GridShape(k, k, k)
            for sym in (v, a, b):
                if sym == v:
                    want = FormalSum(shape, [
                        (GridWord(shape, tuple(v if s == p else (a if key(*s) < key(*p) else b)
                                               for s in shape.coords)), 1.0)
                        for p in shape.coords])
                else:
                    want = FormalSum.unit(GridWord(shape, (sym,) * shape.sites))
                label = str(sym) if k == 2 else f"{sym}:{shape}"

                def compared():
                    got = [_grown(ex, FormalSum.unit(GridWord(GridShape(1, 1, 1), (sym,))),
                                  "".join(axis * (k - 1) for axis in order)) for order in orders]
                    gaps = [sum_difference(g, want) for g in got]
                    worst = max(range(len(got)), key=gaps.__getitem__)
                    inst = _compared(label, got[worst], want, tol, gaps[worst])
                    if sym == v:
                        inst.details["terms"] = len(got[worst])
                    return inst

                instances.append(_checked(label, compared))
    return CheckReport("cube_xyz_compat", [(k, k, k) for k in CUBE_SIZES], instances, t.elapsed)
