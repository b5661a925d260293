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
One :class:`OperatorTable` of an example, a representation and a size
grows each element once and evaluates each generator once; the
homomorphism check reads its operators from one, and the deformed-su(2)
table of :mod:`hopf2d.uqsu2` is one with a placement check added.

Tensor-factor convention: the first factor of a split is the earlier block
in linear site order, i.e. the left column for x-splits, the bottom row for
y-splits and the lower layer for z-splits.

One verdict rule holds for every check instance of one residual and one
bound, in this package and its CLI.  The instance passes when its residual
is at most the bound (:func:`_instance`); a NaN residual fails and is
written as ``"nan"``.  The worst of several residuals is the first NaN,
else the first largest (:func:`worst_residual`, what ``np.argmax`` picks).
An instance whose growth left a partial map's domain fails at any bound
(:func:`_checked`).  Only the compound verdicts of the ``kernel`` and
``proposition`` checks and the slope windows of ``semiclassical`` weigh
more than one residual against one bound.  The ``kernel`` residual is the
worst, by the same rule, of its singlet family's residuals, each the worst
of its S+ and S- residual; a kernel whose operators are not finite has no
measured dimension, and its residual is NaN.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations
import json
import math

import numpy as np

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
    slicing,
    sum_difference,
    word1,
    worst_word,
)
from .automata import MPO, Automaton
from .linops import (Representation, RepresentationError, evaluate, kron_terms, require_budget,
                     worst_entry)


class DomainError(ValueError):
    """Input outside a partial map's domain.  Expected behavior, not a bug."""


class ConfigurationError(ValueError):
    """The example lacks data (multiplication, antipode) required by a check."""


class SingularParameterError(ValueError):
    """A parameter value makes a required expression singular."""


_memo_tables = partial(defaultdict, dict)  # shape extents -> cells -> stored value


@dataclass
class Splitter:
    """Partial map doubling a slice of extent 1 along its axis ('x' doubles
    a column, 'y' a row, 'z' a layer) into a block of extent 2.

    ``rule`` and ``domain`` must be pure functions of the word, and the
    :class:`FormalSum` a rule returns is immutable, like every sum.  So each
    in-domain word is checked and split once, and the sum and the word's
    hash are stored in this splitter's memo under the word's shape extents
    and then its cells, a tuple hashed and compared in C, which is how
    :meth:`~hopf2d.grids.Slicing.grow` finds a slice without making a word
    of it.  The check raises :class:`ShapeError` for a word whose extent
    along the axis is not 1 and for a result whose extent is not 2, and
    :class:`DomainError` for an out-of-domain word; none of these enter the
    memo, so they raise on every call.  The memo belongs to the splitter and
    so lives exactly as long as the example that holds it.
    """

    direction: str
    rule: object          # GridWord -> FormalSum over the doubled shape
    domain: object        # GridWord -> bool
    _memo: dict = field(default_factory=_memo_tables, init=False, repr=False, compare=False)

    def __call__(self, word: GridWord) -> FormalSum:
        table, cells = self._memo[word.shape.extents], word.cells
        entry = table.get(cells)
        if entry is None:
            axis, shape = self.direction, word.shape
            if shape.extents[shape.axis(axis)] != 1:
                raise ShapeError(f"{axis}-splitter wants extent 1 along {axis}, got {shape}")
            if not self.domain(word):
                raise DomainError(f"{word!r} outside the {axis}-splitter domain")
            out, want = self.rule(word), shape.slicing(axis, 1).grown
            if out.shape.extents != want.extents:
                raise ShapeError(f"splitter returned {out.shape}, expected {want}")
            entry = table[cells] = (out, hash(word))
        return entry[0]


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
    _memo: dict = field(default_factory=_memo_tables, init=False, repr=False, compare=False)

    def __call__(self, word: GridWord) -> complex:
        table, cells = self._memo[word.shape.extents], word.cells
        out = table.get(cells)
        if out is None:
            if not self.domain(word):
                raise DomainError(f"{word!r} outside the {self.direction}-counit domain")
            out = table[cells] = complex(self.rule(word))
        return out


@dataclass
class MultiplicationRule:
    """Sitewise product via structure constants on the symbol basis."""

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
    return slicing(s.shape.extents, axis, block).grow(s, ex.splitter(axis))


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


def boxplus_from_1d(delta_rule, sym: Symbol, n: int, m: int) -> FormalSum:
    """Rearrange the (n*m - 1)-fold 1D coproduct onto the lattice.

    ``delta_rule`` maps a symbol to Sweedler pairs [(coeff, s1, s2)];
    factor k of the iterated coproduct (0-based) lands on linear site k + 1,
    i.e. bottom row first, left to right.  This is the identification making
    the lattice elements an algebra homomorphism image of the 1D bialgebra,
    and serves as an independent oracle for the grown elements.
    """
    terms = {(sym,): 1.0 + 0j}
    for _ in range(n * m - 1):
        new = {}
        for word, coeff in terms.items():
            for c, s1, s2 in delta_rule[word[0]]:
                grownw = (s1, s2) + word[1:]
                new[grownw] = new.get(grownw, 0j) + coeff * c
        terms = new
    shape = GridShape(n, m)
    return FormalSum(shape, [(GridWord(shape, word), coeff) for word, coeff in terms.items()])


class OperatorTable(dict):
    """The operators of one example's elements at n x m in one
    representation ``rep``, by the name or symbol they were looked up with.

    :meth:`element` grows each symbol once and keeps it.  A generator's
    operator is evaluated on its first lookup, once, and later lookups
    return the same operator; it lives as long as the table, as the
    elements do.  :meth:`product` returns a kept operator for a product
    that is one of its symbols, or evaluates the product from the kept
    elements of its symbols.  Every evaluation meets the operator budget
    that :func:`linops.kron_terms` enforces, and a generator's first lookup
    meets it before its element is grown.
    """

    def __init__(self, ex: CoalgebraExample, rep: Representation, n: int, m: int):
        super().__init__()
        self.example, self.rep, self.n, self.m = ex, rep, n, m
        self._elements, self._mpos = {}, {}

    def element(self, sym) -> FormalSum:
        """The n x m element of a symbol, given as a symbol or its name,
        grown on the first call and kept for the later ones.

        A symbol whose 1 x 1 word is outside the domain of the first
        splitter :func:`boxplus` grows it through (a product of generators)
        takes the rearranged 1D coproduct (:func:`boxplus_from_1d`) when the
        example carries a 1-site Sweedler rule in ``meta['delta_1site']``.
        Any other symbol grows through :func:`boxplus`, and a
        :class:`DomainError` met later in its growth propagates.
        """
        if sym not in self._elements:
            ex, rule, n, m = self.example, self.example.meta.get("delta_1site"), self.n, self.m
            v = ex.alphabet[sym] if isinstance(sym, str) else sym
            first = "y" if n > 1 else "x" if m > 1 else None  # boxplus grows the column first
            inside = rule is None or first is None or ex.splitter(first).domain(word1(v))
            self._elements[sym] = boxplus(ex, sym, n, m) if inside else boxplus_from_1d(rule, v, n, m)
        return self._elements[sym]

    def mpo(self, sym) -> MPO:
        """The MPO of a symbol's element in ``rep`` (:mod:`hopf2d.automata`),
        built from the kept element on the first call and kept.  No
        operator of the full dimension is built, so no budget applies."""
        if sym not in self._mpos:
            self._mpos[sym] = Automaton(self.element(sym)).mpo(self.rep)
        return self._mpos[sym]

    def __missing__(self, gen):
        require_budget(f"an operator table at {self.n}x{self.m}", self.rep.dim, self.n * self.m)
        op = self[gen] = evaluate(self.element(gen), self.rep)
        return op

    def product(self, u: Symbol, w: Symbol):
        """The operator of the product u w.  A product that is one symbol
        with coefficient 1, whose operator the table holds, is that kept
        operator; any other is the sum of its symbols' elements, each
        scaled by its coefficient, evaluated on every call and not kept.  A
        product that is not a 1 x 1 sum raises :class:`ShapeError`."""
        s = self.example.multiplication(u, w)
        if s.shape != GridShape(1, 1):
            raise ShapeError(f"the product {u}*{w} is {s.shape}, not a 1 x 1 sum")
        items = list(s.unordered_items())
        if len(items) == 1 and items[0][1] == 1 and items[0][0].cells[0] in self:
            return self[items[0][0].cells[0]]
        terms = [(t, c * coeff) for word, coeff in items
                 for t, c in self.element(word.cells[0]).unordered_items()]
        return evaluate(FormalSum(GridShape(self.n, self.m), terms), self.rep)


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

    @property
    def max_residual(self) -> float:
        """The worst instance residual (:func:`worst_residual`), 0.0 if there are none."""
        residuals = [i.residual for i in self.instances]
        return worst_residual(residuals)[1] if residuals else 0.0

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


def _instance(label, res, tol, where=dict) -> CheckInstance:
    """The instance of residual ``res``: passing if ``res <= tol``, else
    failing with the details that ``where()`` returns (NaN fails).  Every
    verdict of one residual against one bound is made here."""
    if res <= tol:
        return CheckInstance(label, True, res)
    return CheckInstance(label, False, res, where())


def worst_residual(residuals) -> tuple:
    """The worst of a non-empty sequence of residuals as (index, residual):
    the first NaN, else the first largest, which is what ``np.argmax`` picks."""
    worst = 0
    for i, res in enumerate(residuals):
        if res != res:
            return i, res
        if res > residuals[worst]:
            worst = i
    return worst, residuals[worst]


# ---------------------------------------------------------------------------
# axiom checks


def check_quasi_1d_assoc(ex, direction, n, tol=EQ_TOL) -> CheckReport:
    """(split x id) o split == (id x split) o split on the sample slice words.

    It runs through :func:`_slice_report`, and the two sides grow the split
    word's first and second slice with :func:`grow`.  A word outside the
    splitter domain raises :class:`DomainError`; growth that leaves it fails
    the word's instance (see :func:`_checked`).
    """
    def compared(label, w, doubled):
        return _checked(label, lambda: _compared(
            label, grow(ex, doubled, direction, 1), grow(ex, doubled, direction, 2), tol))

    return _slice_report("quasi_1d_assoc", ex, direction, n, compared)


def _slice_report(name, ex, direction, n, instance) -> CheckReport:
    """The report ``name_direction`` of ``instance(label, w, doubled)`` for
    each sample word ``w`` of n sites along ``direction``, in sample order:
    ``label`` is ``repr(w)`` and ``doubled`` the word split by
    :func:`apply_splitter`, which raises :class:`DomainError` for a sample
    outside the splitter domain.  The report names the one slice size."""
    instances = [instance(repr(w), w, apply_splitter(ex, direction, w))
                 for w in ex.samples(direction, n)]
    return CheckReport(f"{name}_{direction}", [GridShape(n, n).resized(direction, 1).extents],
                       instances)


def _compared(label, got: FormalSum, want: FormalSum, tol, res=None) -> CheckInstance:
    """The instance comparing two sums; a failing one names its worst word.

    ``res`` is the residual when the caller has it already.
    """
    if res is None:
        res = sum_difference(got, want)
    return _instance(label, res, tol, lambda: {"worst_word": worst_word(got, want)})


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


def check_xy_compat(ex, n, m, tol=EQ_TOL) -> CheckReport:
    """Corner growth in both orders, per symbol of ``ex.grow_symbols``, at
    every size up to n x m.

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
    corners = [(k, l) for k in range(1, n) for l in range(1, m)] or [(1, 1)]
    instances = []
    for sym in ex.grow_symbols:
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
    return CheckReport("xy_compat", [(n, m)], instances)


def check_counit(ex, direction, n, tol=EQ_TOL) -> CheckReport:
    """Both one-sided counit contractions undo the splitter on the sample words.

    It runs through :func:`_slice_report`.  A failing instance names the
    worst word of the worse side.  A word outside the splitter domain raises
    :class:`DomainError`; a split half outside the counit domain fails the
    word's instance (see :func:`_checked`).
    """
    eps = ex.counit(direction)

    def contracted(label, w, doubled):
        left, right = [], []
        for b, c in doubled.unordered_items():
            first, second = _halves(direction, b)
            left.append((second, c * eps(first)))
            right.append((first, c * eps(second)))
        target = FormalSum.unit(w)
        sides = [FormalSum(w.shape, left), FormalSum(w.shape, right)]
        worse, res = worst_residual([sum_difference(side, target) for side in sides])
        return _compared(label, sides[worse], target, tol, res)

    return _slice_report("counit", ex, direction, n, lambda label, w, doubled: _checked(
        label, lambda: contracted(label, w, doubled)))


def check_homomorphism(ex, rep: Representation, n, m, pairs, tol=EQ_TOL) -> CheckReport:
    """boxplus(u) . boxplus(w) == boxplus(u w) as operators in ``rep``.

    Every operator comes from one :class:`OperatorTable` of the example, so
    each generator is grown and evaluated once, and each product is the
    kept operator of a generator already looked up, when it is that one
    generator with coefficient 1, or is evaluated from the kept elements of
    its symbols (:meth:`OperatorTable.product`).  A failing instance
    names its worst entry (:func:`worst_entry`).  Growth that leaves a
    splitter's domain fails the pair's instance (see :func:`_checked`).  An
    example whose alphabet names an id differently from ``rep``'s raises
    :class:`linops.RepresentationError`.
    """
    if ex.multiplication is None:
        raise ConfigurationError(f"{ex.name} carries no multiplication rule")
    rep.alphabet.require_names(ex.alphabet, "the example's alphabet", "the representation",
                               RepresentationError)
    ops = OperatorTable(ex, rep, n, m)

    def compared(u, w):
        lhs, rhs = ops[u] @ ops[w], ops.product(u, w)
        return _instance(f"{u}*{w}", (lhs - rhs).max_abs(), tol,
                         lambda: {"worst_entry": worst_entry(lhs, rhs)})

    instances = []
    for u, w in pairs:
        u = ex.alphabet[u] if isinstance(u, str) else u
        w = ex.alphabet[w] if isinstance(w, str) else w
        instances.append(_checked(f"{u}*{w}", lambda: compared(u, w)))
    return CheckReport("homomorphism", [(n, m)], instances)


def check_antipode(ex, rep: Representation, direction, n, tol=EQ_TOL) -> CheckReport:
    """mu (S x id) split == counit times identity, numerically in ``rep``, on
    the sample slice words.

    It runs through :func:`_slice_report`.  Two words of one shape multiply
    site by site, so each side is one :func:`kron_terms` sum whose factors
    are the products ``rep[x] @ rep[y]``, and the identity they are compared
    with is one too, so the operator budget refuses a slice too long for
    it before any sample is expanded.  A failing instance names the worst
    side's worst entry (:func:`worst_entry`).  A :class:`DomainError`
    propagates, as a bug in the engine.  An example whose alphabet names an
    id differently from ``rep``'s raises :class:`linops.RepresentationError`.
    """
    if ex.antipode is None:
        raise ConfigurationError(f"{ex.name} carries no antipode rule")
    rep.alphabet.require_names(ex.alphabet, "the example's alphabet", "the representation",
                               RepresentationError)
    eps = ex.counit(direction)

    def sitewise(coeff, u, w):  # the term of coeff * (u . w)
        return coeff, [rep[x] @ rep[y] for x, y in zip(u.cells, w.cells)]

    # every sample is a slice of n sites
    identity = kron_terms([(1.0, [np.eye(rep.dim)] * n)], rep.dim, n)

    def compared(label, w, doubled):
        left, right = [], []
        for b, c in doubled.unordered_items():
            first, second = _halves(direction, b)
            left += [sitewise(c * a, u, second)
                     for u, a in ex.antipode(direction, first).unordered_items()]
            right += [sitewise(c * a, first, u)
                      for u, a in ex.antipode(direction, second).unordered_items()]
        target = eps(w) * identity
        sides = [kron_terms(terms, rep.dim, w.shape.sites) for terms in (left, right)]
        worse, res = worst_residual([(side - target).max_abs() for side in sides])
        return _instance(label, res, tol,
                         lambda: {"worst_entry": worst_entry(sides[worse], target)})

    return _slice_report("antipode", ex, direction, n, compared)


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
    for word, coeff in element.unordered_items():
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
    read as 1-site rules of two cellwise splitters, held by one example.
    For each instance the premise (dy x dy) dx == (dx x dx) dy is measured
    on the symbol grown by :func:`grow` along x then y and along y then x;
    when it holds on every instance, the conclusions dx == dy and
    dx == dx-opposite are asserted as literal rule equalities on those
    instances.
    """
    ex = CoalgebraExample("trivial_proposition", None, {
        "x": _cellwise_splitter("x", dx), "y": _cellwise_splitter("y", dy)}, {}, {})
    instances = []
    results = []
    for sym in instance_syms:
        unit = FormalSum.unit(word1(sym))
        res = sum_difference(_grown(ex, unit, "xy"), _grown(ex, unit, "yx"))
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
            res = worst_residual([res, same, cocomm])[1]
        instances.append(CheckInstance(str(sym), passed, res, details))
    return CheckReport("trivial_proposition", [(2, 2)], instances)


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
                worst, res = worst_residual([sum_difference(g, want) for g in got])
                inst = _compared(label, got[worst], want, tol, res)
                if sym == v:
                    inst.details["terms"] = len(got[worst])
                return inst

            instances.append(_checked(label, compared))
    return CheckReport("cube_xyz_compat", [(k, k, k) for k in CUBE_SIZES], instances)
