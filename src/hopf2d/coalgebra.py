"""The 2D coproduct engine and its axiom checks.

A coalgebra instance supplies two families of partial splitter maps: the
horizontal one doubles an n x 1 column into an n x 2 block, the vertical
one doubles a 1 x m row into a 2 x m block.  Growing a single symbol by
repeatedly splitting row and column slices produces the lattice elements
checked here for quasi-1D associativity, xy-compatibility, counit,
homomorphism and antipode laws.

Tensor-factor convention: the first factor of a split is the earlier block
in linear site order, i.e. the left column for horizontal splits and the
bottom row for vertical ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
import time

from .grids import (
    EQ_TOL,
    FormalSum,
    GridShape,
    GridWord,
    ShapeError,
    Symbol,
    concat_h,
    concat_v,
    sum_difference,
    word1,
    worst_word,
)
from .linops import Representation, evaluate, identity_operator, operator_difference


class DomainError(ValueError):
    """Input outside a partial map's domain.  Expected behavior, not a bug."""


class ConfigurationError(ValueError):
    """The example lacks data (multiplication, antipode) required by a check."""


class SingularParameterError(ValueError):
    """A parameter value makes a required expression singular."""


@dataclass
class Splitter:
    """Partial map doubling a column (direction 'x') or row (direction 'y').

    ``rule`` and ``domain`` must be pure functions of the word, and the
    :class:`FormalSum` a rule returns is immutable, like every sum.  So each
    in-domain word is tested and split once: the result is stored in this
    splitter's memo, keyed by the word, and later calls with an equal word
    return the stored sum.  An out-of-domain word never enters the memo and
    raises :class:`DomainError` on every call.  The memo belongs to the
    splitter and so lives exactly as long as the example that holds it.
    """

    direction: str
    rule: object          # GridWord -> FormalSum over the doubled shape
    domain: object        # GridWord -> bool
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, word: GridWord) -> FormalSum:
        out = self._memo.get(word)
        if out is None:
            if not self.domain(word):
                raise DomainError(f"{word!r} outside the {self.direction}-splitter domain")
            out = self._memo[word] = self.rule(word)
        return out


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
    """Direction-indexed antipode on slice words.

    Cellwise splitters admit a sitewise antipode; splitters that embed the
    whole slice (the vertical ones here) need their own family rule, so the
    two directions carry separate partial functions.
    """

    rule_x: object        # GridWord -> FormalSum of the same shape
    rule_y: object

    def __call__(self, direction: str, word: GridWord) -> FormalSum:
        rule = self.rule_x if direction == "x" else self.rule_y
        return rule(word)


@dataclass
class CoalgebraExample:
    """An alphabet with splitter, counit and optional algebra data."""

    name: str
    alphabet: object
    splitter_x: Splitter
    splitter_y: Splitter
    counit_x: CounitRule
    counit_y: CounitRule
    multiplication: MultiplicationRule | None = None
    antipode: AntipodeRule | None = None
    unit: Symbol | None = None
    grow_symbols: tuple = ()
    sample_columns: object = None   # n -> list[GridWord] in the x-domain
    sample_rows: object = None      # m -> list[GridWord] in the y-domain
    meta: dict = field(default_factory=dict)

    def splitter(self, direction) -> Splitter:
        return self.splitter_x if direction == "x" else self.splitter_y

    def counit(self, direction) -> CounitRule:
        return self.counit_x if direction == "x" else self.counit_y

    def samples(self, direction, n):
        fn = self.sample_columns if direction == "x" else self.sample_rows
        if fn is None:
            return []
        return fn(n)


def apply_splitter(ex: CoalgebraExample, direction: str, word: GridWord) -> FormalSum:
    """Apply the direction's splitter to a single column/row word."""
    if direction == "x":
        if word.shape.cols != 1:
            raise ShapeError(f"x-splitter wants an n x 1 column, got {word.shape}")
        out = ex.splitter_x(word)
        expect = GridShape(word.shape.rows, 2)
    elif direction == "y":
        if word.shape.rows != 1:
            raise ShapeError(f"y-splitter wants a 1 x m row, got {word.shape}")
        out = ex.splitter_y(word)
        expect = GridShape(2, word.shape.cols)
    else:
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    if out.shape != expect:
        raise ShapeError(f"splitter returned {out.shape}, expected {expect}")
    return out


def _splice_cols(word: GridWord, j: int, block: GridWord, shape: GridShape) -> GridWord:
    """Replace column j of ``word`` by the two columns of ``block`` (``shape`` is n x (m+1))."""
    m = word.shape.cols
    cells, pairs = word.cells, block.cells
    out = []
    for off in range(word.shape.rows):
        row = off * m
        out += cells[row:row + j - 1]
        out += pairs[2 * off:2 * off + 2]
        out += cells[row + j:row + m]
    return GridWord(shape, tuple(out))


def _splice_rows(word: GridWord, i: int, block: GridWord, shape: GridShape) -> GridWord:
    """Replace row i of ``word`` by the two rows of ``block`` (``shape`` is (n+1) x m)."""
    m = word.shape.cols
    cells = word.cells
    return GridWord(shape, cells[:(i - 1) * m] + block.cells + cells[i * m:])


def grow(ex: CoalgebraExample, s: FormalSum, direction: str, block: int | None = None) -> FormalSum:
    """Split one row or column slice of every term, splicing the result in place.

    ``block`` is the 1-based column (direction 'x') or row ('y') to split;
    the default is the last one, matching boundary growth.  The spliced
    terms of all input terms are merged by one :class:`FormalSum` build.
    """
    n, m = s.shape.rows, s.shape.cols
    if direction == "x":
        k = m if block is None else block
        shape, take, splice = GridShape(n, m + 1), GridWord.col, _splice_cols
    elif direction == "y":
        k = n if block is None else block
        shape, take, splice = GridShape(n + 1, m), GridWord.row, _splice_rows
    else:
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    return FormalSum(shape, ((splice(word, k, b, shape), coeff * c)
                             for word, coeff in s.unordered_items()
                             for b, c in apply_splitter(ex, direction, take(word, k)).unordered_items()))


def boxplus(ex: CoalgebraExample, v: Symbol, n: int, m: int, order: str = "y_first") -> FormalSum:
    """Grow a single symbol to the n x m lattice element.

    The canonical path grows the column to height n first, then the rows to
    width m; ``order='x_first'`` does the opposite.  Growth-order
    independence is a checked property, not an assumption.
    """
    if isinstance(v, str):
        v = ex.alphabet[v]
    s = FormalSum.unit(word1(v))
    if order == "y_first":
        for _ in range(n - 1):
            s = grow(ex, s, "y")
        for _ in range(m - 1):
            s = grow(ex, s, "x")
    elif order == "x_first":
        for _ in range(m - 1):
            s = grow(ex, s, "x")
        for _ in range(n - 1):
            s = grow(ex, s, "y")
    else:
        raise ValueError(f"unknown growth order {order!r}")
    return s


def boxplus_sum(ex: CoalgebraExample, s: FormalSum, n: int, m: int) -> FormalSum:
    """Linear extension of :func:`boxplus` to a 1 x 1 formal sum.

    Symbols outside the splitter domain (products of generators) fall back
    to the rearranged 1D coproduct when the example carries a 1-site
    Sweedler rule in ``meta['delta_1site']``.
    """
    if s.shape != GridShape(1, 1):
        raise ShapeError("boxplus_sum wants a 1 x 1 sum")
    terms = []
    for word, coeff in s.unordered_items():
        sym = word.cells[0]
        try:
            grown = boxplus(ex, sym, n, m)
        except DomainError:
            rule = ex.meta.get("delta_1site")
            if rule is None:
                raise
            grown = boxplus_from_1d(rule, sym, n, m, key=ex.meta.get("order_key"))
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
    out = {}
    for word, coeff in terms.items():
        cells = tuple(
            word[rank[(i, j)]]
            for i in range(1, n + 1)
            for j in range(1, m + 1)
        )
        gw = GridWord(shape, cells)
        out[gw] = out.get(gw, 0j) + coeff
    return FormalSum(shape, out)


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

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


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
    """(split x id) o split == (id x split) o split on the given slice words."""
    if words is None:
        words = ex.samples(direction, n)
    instances = []
    with _Timer() as t:
        for w in words:
            left, right = [], []
            for b, c in apply_splitter(ex, direction, w).unordered_items():
                first, second = _halves(direction, b)
                left += _scaled(_attach(direction, apply_splitter(ex, direction, first), second,
                                        second_last=True), c)
                right += _scaled(_attach(direction, apply_splitter(ex, direction, second), first,
                                         second_last=False), c)
            shape = _triple_shape(direction, w.shape)
            instances.append(_compared(repr(w), FormalSum(shape, left), FormalSum(shape, right),
                                       tol))
    sizes = [(n, 1)] if direction == "x" else [(1, n)]
    return CheckReport("quasi_1d_assoc_" + direction, sizes, instances, t.elapsed)


def _compared(label, got: FormalSum, want: FormalSum, tol, res=None) -> CheckInstance:
    """The instance comparing two sums; a failing one names its worst word.

    ``res`` is the residual when the caller has it already.
    """
    if res is None:
        res = sum_difference(got, want)
    if res <= tol:
        return CheckInstance(label, True, res)
    return CheckInstance(label, False, res, {"worst_word": worst_word(got, want)})


def _triple_shape(direction, slice_shape):
    if direction == "x":
        return GridShape(slice_shape.rows, 3)
    return GridShape(3, slice_shape.cols)


def _halves(direction, block: GridWord):
    """The two slice factors of a doubled block, earlier one first."""
    if direction == "x":
        return block.col(1), block.col(2)
    return block.row(1), block.row(2)


def _attach(direction, doubled: FormalSum, other: GridWord, second_last: bool):
    """Juxtapose a doubled slice with a spectator slice on the proper side."""
    other_sum = FormalSum.unit(other)
    if direction == "x":
        return concat_h(doubled, other_sum) if second_last else concat_h(other_sum, doubled)
    return concat_v(doubled, other_sum) if second_last else concat_v(other_sum, doubled)


def check_xy_compat(ex, n, m, symbols=None, tol=EQ_TOL) -> CheckReport:
    """Corner growth in both orders, per symbol, at every size up to n x m.

    At every corner (k, l) with 1 <= k < n and 1 <= l < m, the canonical
    k x l element is grown by a row and then a column, and by a column and
    then a row.  The two results must agree, and the first must equal the
    canonical (k+1) x (l+1) element.  The (1, 1) corner is the base case
    ``base2x2``, where the first result is the canonical 2 x 2 element
    itself; it runs even when n or m is 1.  The canonical elements are
    grown once, as one table: the column first, then each row by
    ``grow(..., "x")``, exactly as :func:`boxplus` grows them.  The report
    names the single size [n, m], which stands for every size up to n x m.
    """
    if symbols is None:
        symbols = ex.grow_symbols
    corners = [(k, l) for k in range(1, n) for l in range(1, m)] or [(1, 1)]
    rows, cols = max(k for k, _ in corners) + 1, max(l for _, l in corners) + 1
    instances = []
    with _Timer() as t:
        for sym in symbols:
            sym = ex.alphabet[sym] if isinstance(sym, str) else sym
            table, column = {}, FormalSum.unit(word1(sym))
            for k in range(1, rows + 1):
                if k > 1:
                    column = grow(ex, column, "y")
                table[k, 1] = column
                for l in range(2, cols + 1):
                    table[k, l] = grow(ex, table[k, l - 1], "x")
            for k, l in corners:
                base = table[k, l]
                path_a = grow(ex, grow(ex, base, "y"), "x")
                path_b = grow(ex, grow(ex, base, "x"), "y")
                if (k, l) == (1, 1):
                    instances.append(_compared(f"base2x2:{sym}", path_a, path_b, tol))
                    continue
                instances.append(_compared(f"corner{k}x{l}:{sym}", path_a, path_b, tol))
                instances.append(_compared(f"corner{k}x{l}:{sym}:vs_canonical", path_a,
                                           table[k + 1, l + 1], tol))
    return CheckReport("xy_compat", [(n, m)], instances, t.elapsed)


def check_counit(ex, direction, n, words=None, tol=EQ_TOL) -> CheckReport:
    """Both one-sided counit contractions undo the splitter on the given words.

    A failing instance names the worst word of the worse side.
    """
    if words is None:
        words = ex.samples(direction, n)
    eps = ex.counit(direction)
    instances = []
    with _Timer() as t:
        for w in words:
            left, right = [], []
            for b, c in apply_splitter(ex, direction, w).unordered_items():
                first, second = _halves(direction, b)
                left.append((second, c * eps(first)))
                right.append((first, c * eps(second)))
            target = FormalSum.unit(w)
            sides = [FormalSum(w.shape, left), FormalSum(w.shape, right)]
            gaps = [sum_difference(side, target) for side in sides]
            worse = 1 if gaps[1] > gaps[0] else 0
            instances.append(_compared(repr(w), sides[worse], target, tol, max(gaps)))
    sizes = [(n, 1)] if direction == "x" else [(1, n)]
    return CheckReport("counit_" + direction, sizes, instances, t.elapsed)


def check_homomorphism(ex, rep: Representation, n, m, pairs, tol=EQ_TOL) -> CheckReport:
    """boxplus(u) . boxplus(w) == boxplus(u w) as operators in ``rep``."""
    if ex.multiplication is None:
        raise ConfigurationError(f"{ex.name} carries no multiplication rule")
    instances = []
    with _Timer() as t:
        for u, w in pairs:
            u = ex.alphabet[u] if isinstance(u, str) else u
            w = ex.alphabet[w] if isinstance(w, str) else w
            lhs = evaluate(boxplus(ex, u, n, m), rep) @ evaluate(boxplus(ex, w, n, m), rep)
            rhs = evaluate(boxplus_sum(ex, ex.multiplication(u, w), n, m), rep)
            res = operator_difference(lhs, rhs)
            instances.append(CheckInstance(f"{u}*{w}", res <= tol, res))
    return CheckReport("homomorphism", [(n, m)], instances, t.elapsed)


def check_antipode(ex, rep: Representation, direction, n, words=None, tol=EQ_TOL) -> CheckReport:
    """mu (S x id) split == counit times identity, numerically in ``rep``."""
    if ex.antipode is None:
        raise ConfigurationError(f"{ex.name} carries no antipode rule")
    if words is None:
        words = ex.samples(direction, n)
    eps = ex.counit(direction)
    instances = []
    with _Timer() as t:
        for w in words:
            doubled = apply_splitter(ex, direction, w)
            dim = rep.dim ** n
            left = identity_operator(dim) * 0.0
            right = identity_operator(dim) * 0.0
            for b, c in doubled.items():
                first, second = _halves(direction, b)
                left = left + c * (evaluate(ex.antipode(direction, first), rep)
                                   @ evaluate(FormalSum.unit(second), rep))
                right = right + c * (evaluate(FormalSum.unit(first), rep)
                                     @ evaluate(ex.antipode(direction, second), rep))
            target = eps(w) * identity_operator(dim)
            res = max(operator_difference(left, target), operator_difference(right, target))
            instances.append(CheckInstance(repr(w), res <= tol, res))
    sizes = [(n, 1)] if direction == "x" else [(1, n)]
    return CheckReport("antipode_" + direction, sizes, instances, t.elapsed)


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


def _cellwise_vertical(dy, left, right):
    """Split both cells of a horizontal pair vertically into a 2 x 2 sum."""
    shape = GridShape(2, 2)
    return FormalSum(shape, [(GridWord(shape, (l1, r1, l2, r2)), cl * cr)
                             for cl, l1, l2 in dy[left] for cr, r1, r2 in dy[right]])


def _cellwise_horizontal(dx, bottom, top):
    shape = GridShape(2, 2)
    return FormalSum(shape, [(GridWord(shape, (b1, b2, t1, t2)), cb * ct)
                             for cb, b1, b2 in dx[bottom] for ct, t1, t2 in dx[top]])


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
    instances = []
    with _Timer() as t:
        results = []
        shape = GridShape(2, 2)
        for sym in instance_syms:
            lhs = FormalSum(shape, [t for c, s1, s2 in dx[sym]
                                    for t in _scaled(_cellwise_vertical(dy, s1, s2), c)])
            rhs = FormalSum(shape, [t for c, s1, s2 in dy[sym]
                                    for t in _scaled(_cellwise_horizontal(dx, s1, s2), c)])
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
# the 2 x 2 x 2 cube for the marked-symbol construction


def _cube_index(site):
    """Linear order on the cube: x fastest, then y, then z."""
    x, y, z = site
    return (z - 1) * 4 + (y - 1) * 2 + x


def _cube_sites(extents):
    ex, ey, ez = extents
    return sorted(
        [(x, y, z) for x in range(1, ex + 1) for y in range(1, ey + 1) for z in range(1, ez + 1)],
        key=_cube_index,
    )


def _cube_grow(terms, sites, extents, axis, syms):
    """Double the current box along ``axis`` with the marked-symbol rule.

    ``terms`` maps cell tuples (aligned with ``sites``) to coefficients.
    A term holding the marked symbol v lands it in either copy, with every
    other site getting ``a`` before it and ``b`` after it in linear order;
    a constant term is doubled literally.
    """
    a, b, v = syms
    ax = "xyz".index(axis)
    if extents[ax] != 1:
        raise DomainError(f"cube axis {axis} already grown")
    new_extents = tuple(e * 2 if k == ax else e for k, e in enumerate(extents))
    new_sites = _cube_sites(new_extents)
    out = {}
    for cells, coeff in terms.items():
        term = dict(zip(sites, cells))
        vpos = [s for s, sym in term.items() if sym == v]
        if len(vpos) > 1:
            raise DomainError("multiple marked symbols in a cube term")
        if vpos:
            for c in (1, 2):
                landing = tuple(c if k == ax else coord for k, coord in enumerate(vpos[0]))
                word = tuple(
                    v if s == landing
                    else (a if _cube_index(s) < _cube_index(landing) else b)
                    for s in new_sites
                )
                out[word] = out.get(word, 0j) + coeff
        else:
            letters = set(term.values())
            if len(letters) != 1:
                raise DomainError("mixed marked-free cube slice")
            letter = letters.pop()
            word = tuple(letter for _ in new_sites)
            out[word] = out.get(word, 0j) + coeff
    return out, new_sites, new_extents


def _cube_terms(start_sym, order, syms):
    """Grow one symbol from a single site along the given axis order."""
    extents = (1, 1, 1)
    sites = [(1, 1, 1)]
    terms = {(start_sym,): 1.0 + 0j}
    for axis in order:
        terms, sites, extents = _cube_grow(terms, sites, extents, axis, syms)
    return terms


def _cube_diff(t1, t2):
    words = set(t1) | set(t2)
    if not words:
        return 0.0
    return max(abs(complex(t1.get(w, 0)) - complex(t2.get(w, 0))) for w in words)


def cube_xyz_compat(tol=EQ_TOL) -> CheckReport:
    """Three growth orders of the 2x2x2 marked-symbol cube agree.

    Sites are ordered x fastest, then y, then z; the marked symbol is
    preceded by ``a`` and followed by ``b`` in that order.  The oracle for
    the marked symbol is the 7-fold 1D coproduct rearranged onto the cube.
    """
    from .grids import Alphabet

    alphabet = Alphabet(["a", "b", "v"])
    a, b, v = alphabet["a"], alphabet["b"], alphabet["v"]
    orders = [("x", "y", "z"), ("x", "z", "y"), ("z", "y", "x")]
    instances = []
    with _Timer() as t:
        for sym in (v, a, b):
            grown = [_cube_terms(sym, order, (a, b, v)) for order in orders]
            res = max(_cube_diff(grown[0], grown[1]), _cube_diff(grown[0], grown[2]))
            details = {}
            if sym == v:
                sites = _cube_sites((2, 2, 2))
                oracle = {}
                for p in sites:
                    word = tuple(
                        v if s == p else (a if _cube_index(s) < _cube_index(p) else b)
                        for s in sites
                    )
                    oracle[word] = 1.0
                res = max(res, _cube_diff(grown[0], oracle))
                details = {"terms": len(grown[0])}
            else:
                expected = {tuple(sym for _ in range(8)): 1.0}
                res = max(res, _cube_diff(grown[0], expected))
            instances.append(CheckInstance(str(sym), res <= tol, res, details))
    return CheckReport("cube_xyz_compat", [(2, 2)], instances, t.elapsed)
