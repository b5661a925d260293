"""Formal sums of symbol-labeled lattice grids.

The basic objects are grids of algebra symbols on an n x m square lattice
and finite complex-linear combinations of such grids.  Sites are numbered
linearly starting at the bottom-left corner, running left to right along a
row and then jumping to the row above, so for a 3 x 3 grid::

    7 8 9
    4 5 6
    1 2 3

``GridWord.cells`` lists a word's symbols in this linear order.  A
:class:`GridShape` lists its extents slowest axis first, so the same order
carries over to a stack of such grids (a cube): axis ``x`` runs along the
last extent, ``y`` along the one before it and ``z`` along the one before
that.

How words are stored.  A word is the tuple of its x-slices: its columns on
a plane, its ``(l, n, 1)`` slices in a cube, each itself a word one slice
wide whose hash is taken over its symbol ids.  A wider word's hash is taken
over its extents and its x-slices' hashes, so it is the same however the
word was made.  A word holds its x-slices, its cells or both, and builds
the missing view on first use and keeps it.  Growth along x (a
:class:`Slicing` step) hands the splitter the column the word holds and
replaces that one x-slice by the block's two: O(m) for m x-slices, and the
grown word shares every other x-slice object with the word it came from.
Its cells are built only if they are read.  A step along y or z changes
every x-slice, so it gathers the cells through index maps, O(n·m), as a
step along x does on a word that holds only cells; the grown word holds
cells, and its x-slices are built when they are asked for.  Growing a
column first and then its rows (``y_first``) therefore costs O(m) per term
in every x-step.

Formal sums are accumulated one way throughout the package: the terms of a
result, repeats allowed, are merged into one dict in the order they come,
and one filter canonicalizes that dict once, dropping coefficients of
magnitude at most ``CANON_TOL`` and raising :class:`NonFiniteError` on a
NaN or infinite one.  The :class:`FormalSum` constructor does this for the
terms a caller collects; a growth step (:meth:`Slicing.grow`) and ``+``
merge as they go and keep the filtered dict.  Adding sums term by term in a
loop would rebuild that dict on every step.  Internal loops walk the terms
unordered; sorting happens only at output, in :meth:`FormalSum.items`,
iteration, ``repr`` and JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product
import json
import math
import operator
from operator import attrgetter, itemgetter
import sys

# Coefficients below this magnitude are dropped during canonicalization.
CANON_TOL = 1e-14
# Default tolerance for comparing formal sums coefficientwise.
EQ_TOL = 1e-10
_FLOAT_MAX = sys.float_info.max
# axis names, fastest first: x is a shape's last extent, y the one before it
AXES = ("x", "y", "z")


class ShapeError(ValueError):
    """Operands live on incompatible grid shapes."""


class SiteRangeError(ValueError):
    """A lattice coordinate is outside the grid."""


class NonFiniteError(ValueError):
    """A formal sum coefficient is NaN or infinite."""


class Symbol(int):
    """A named generator, identified by a small integer id within its alphabet.

    A symbol is its id as an ``int``, so a word's cells hash as their ids in
    C, without an attribute lookup per cell.  Otherwise it behaves as a
    (id, name) record: it equals only a symbol of the same id and name,
    orders by (id, name), is true, and prints as its name.
    """

    def __new__(cls, id: int, name: str):
        sym = super().__new__(cls, id)
        object.__setattr__(sym, "name", name)
        object.__setattr__(sym, "_record", (int(id), name))  # compared in C
        return sym

    def __setattr__(self, key, value):
        raise AttributeError(f"Symbol is immutable; cannot set {key!r}")

    id = property(int.__int__, doc="The symbol's id within its alphabet.")
    __hash__ = int.__hash__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._record == other._record

    def __ne__(self, other):
        return not self == other

    def _compare(self, other, op):
        if other.__class__ is not self.__class__:  # not NotImplemented: int would answer
            raise TypeError(f"cannot order a symbol and {type(other).__name__!r}")
        return op(self._record, other._record)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __bool__(self):
        return True

    def __repr__(self):
        return self.name

    __str__ = __repr__

    def __format__(self, spec):
        return format(self.name, spec)

    def __reduce__(self):
        return Symbol, (int(self), self.name)


class Alphabet:
    """An ordered set of symbols with lookup by name."""

    def __init__(self, names):
        seen = set()
        for n in names:
            if not n:
                raise ValueError("symbol names must be nonempty")
            if n in seen:
                raise ValueError(f"duplicate symbol name {n!r}")
            seen.add(n)
        self.symbols = tuple(Symbol(i, n) for i, n in enumerate(names))
        self._by_name = {s.name: s for s in self.symbols}

    def __getitem__(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def __contains__(self, name):
        return name in self._by_name

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def words(self, cells) -> tuple[Symbol, ...]:
        """Map an iterable of names to a tuple of symbols."""
        return tuple(self[c] if isinstance(c, str) else c for c in cells)


@dataclass(frozen=True, order=True, init=False)
class GridShape:
    """The extents of a grid, slowest axis first: ``GridShape(n, m)`` has n
    rows of m columns, ``GridShape(l, n, m)`` stacks l such layers.
    ``rows`` and ``cols`` are the y and x extents."""

    extents: tuple
    sites: int = field(compare=False)

    def __init__(self, *extents):
        if not 2 <= len(extents) <= len(AXES) or min(extents) < 1:
            raise ValueError(f"grid shape must be 2 or 3 positive extents, got {extents}")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "sites", math.prod(extents))

    rows = property(lambda self: self.extents[-2])
    cols = property(lambda self: self.extents[-1])

    def __repr__(self):
        return "x".join(map(str, self.extents))

    def axis(self, name) -> int:
        """The position in ``extents`` of the axis called ``name``."""
        a = len(self.extents) - 1 - AXES.index(name) if name in AXES else -1
        if a < 0:
            raise ShapeError(f"a {self} grid has no axis {name!r}")
        return a

    def resized(self, axis, extent) -> "GridShape":
        """This shape with ``extent`` along ``axis``."""
        a = self.axis(axis)
        return GridShape(*self.extents[:a], extent, *self.extents[a + 1:])

    @property
    def coords(self):
        """Site coordinates (x, y[, z]), 1-based, in linear site order."""
        return _coords(self.extents)

    def slicing(self, axis, k) -> "Slicing":
        """Slice ``k`` (1-based) along ``axis`` of this shape's words."""
        return _slicings(self.extents, self.axis(axis), k)


# Growth and the checks ask for the same few slicings and coordinate lists
# over and over: a benchmark workload uses at most 48 distinct slicings and 16
# coordinate lists (the cube check 63 and 40), each thousands of times a
# second.  Building them on every call made the axiom suite 30% slower.
@lru_cache(maxsize=256)
def _coords(extents):
    return tuple(p[::-1] for p in product(*(range(1, e + 1) for e in extents)))


@lru_cache(maxsize=256)
def _slicing(extents, a, k):
    """``(part, grown, take, put)`` of slice ``k`` along extent ``a``: the
    slice's shape, the shape with the slice doubled, and the index maps
    that take the slice's cells out of a word's (``take(cells)``) and put a
    doubled block's cells in their place (``put(cells + block)``)."""
    e = extents[a]
    if not 1 <= k <= e:
        raise SiteRangeError(f"slice {k} outside 1..{e}")
    outer, inner = math.prod(extents[:a]), math.prod(extents[a + 1:])
    size = outer * e * inner
    take, put = [], []
    for o in range(outer):
        start = o * e * inner
        take += range(start + (k - 1) * inner, start + k * inner)
        put += range(start, start + (k - 1) * inner)
        put += range(size + 2 * o * inner, size + 2 * (o + 1) * inner)
        put += range(start + k * inner, start + e * inner)
    # itemgetter gathers cells several times faster than tuple(map(...)); with
    # the latter, growth ran 25% slower
    get = itemgetter(*take)  # a tuple from two or more indices, the bare cell from one
    shape = lambda x: GridShape(*extents[:a], x, *extents[a + 1:])
    return (shape(1), shape(e + 1), get if len(take) > 1 else lambda cells: (get(cells),),
            itemgetter(*put))


@lru_cache(maxsize=256)
def _slicings(extents, a, k):
    """The :class:`Slicing` of slice ``k`` along extent ``a``; it holds
    shapes and index maps, no words, so one serves every caller."""
    return Slicing(extents, a, k)


_HASH = attrgetter("_hash")
_CELLS = attrgetter("_cells")


def site_index(i: int, j: int, shape: GridShape) -> int:
    """Linear index (1-based) of the site at row ``i`` (from the bottom), column ``j``
    of a planar grid."""
    if len(shape.extents) != 2:
        raise ShapeError(f"site ({i},{j}) names no single site of a {shape} grid")
    if not (1 <= i <= shape.rows and 1 <= j <= shape.cols):
        raise SiteRangeError(f"site ({i},{j}) outside {shape}")
    return (i - 1) * shape.cols + j


class GridWord:
    """One lattice configuration: a symbol on every site of a grid.

    A word is the tuple of its x-slices (see the module docstring): its hash
    is taken over its extents and their hashes, computed once, because every
    accumulation step probes a dict with it.  It keeps two views, the
    x-slices and ``cells`` in linear site order (bottom row first); a word
    made from cells builds its x-slices on first use, and a word made by
    splicing x-slices builds its cells on first use.  How a word was made
    never shows: it equals another word of the same shape and cells, and
    nothing else, and is immutable.
    """

    # ``shape`` and ``cells`` are read-only properties over slots that only
    # _from_cells and _from_slices set, and _x_slices and ``cells`` fill in
    # (a ``__setattr__`` refusing every assignment made words three times
    # slower to build).  ``_slices`` stays None on a word one x-slice wide:
    # it is its own x-slice.
    __slots__ = ("_shape", "_slices", "_cells", "_hash")

    def __new__(cls, shape: GridShape, cells: tuple[Symbol, ...]):
        cells = tuple(cells)
        if len(cells) != shape.sites:
            raise ShapeError(f"{len(cells)} cells do not fill {shape}")
        return _from_cells(shape, cells)

    shape = property(attrgetter("_shape"), doc="The word's :class:`GridShape`.")

    @property
    def cells(self) -> tuple[Symbol, ...]:
        """The symbols in linear site order."""
        cells = self._cells
        if cells is None:
            cells = self._cells = tuple(chain.from_iterable(zip(*map(_CELLS, self._slices))))
        return cells

    def _x_slices(self) -> tuple["GridWord", ...]:
        """The x-slices, left to right, each of extent 1 along x."""
        slices = self._slices
        if slices is None:
            extents = self._shape.extents
            m = extents[-1]
            if m == 1:
                return (self,)
            part = _slicing(extents, len(extents) - 1, 1)[0]
            slices = self._slices = tuple(_from_cells(part, self._cells[j::m]) for j in range(m))
        return slices

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, GridWord):
            return NotImplemented
        if self._hash != other._hash or self._shape.extents != other._shape.extents:
            return False
        a, b = self._slices, other._slices
        if a is not None and b is not None:
            return a == b
        return (self._cells or self.cells) == (other._cells or other.cells)

    def cell(self, i, j):
        return self.cells[site_index(i, j, self.shape) - 1]

    def slice(self, axis, k) -> "GridWord":
        """The word on slice ``k`` (1-based) along ``axis``, extent 1 there."""
        return self._shape.slicing(axis, k).cut(self)

    def row(self, i) -> "GridWord":
        """The 1 x m row word at height ``i`` (1 = bottom)."""
        return self.slice("y", i)

    def col(self, j) -> "GridWord":
        """The n x 1 column word at column ``j`` (1 = leftmost)."""
        return self.slice("x", j)

    def rows_top_down(self):
        """Rows of a planar word as lists of names, top row first (the layout
        grids are displayed in)."""
        return [[self.cell(i, j).name for j in range(1, self.shape.cols + 1)]
                for i in range(self.shape.rows, 0, -1)]

    @staticmethod
    def from_rows_top_down(alphabet: Alphabet, rows) -> "GridWord":
        """Build a word from rows listed top first, as displayed in print."""
        n, m = len(rows), len(rows[0])
        if any(len(r) != m for r in rows):
            raise ShapeError("ragged rows")
        cells = []
        for r in reversed(rows):
            cells.extend(alphabet.words(r))
        return GridWord(GridShape(n, m), tuple(cells))

    def _key(self):
        return (*self._shape.extents, tuple(map(operator.index, self.cells)))

    def __lt__(self, other):
        return self._key() < other._key()

    def __repr__(self):
        """Rows top first, separated by '/'; the layers of a cube z = 1 first,
        separated by ' | '."""
        names = [c.name for c in self.cells]
        m, layer = self.shape.cols, self.shape.rows * self.shape.cols
        return " | ".join("/".join(" ".join(names[r:r + m])
                                   for r in range(start + layer - m, start - 1, -m))
                          for start in range(0, len(names), layer))


def _from_slices(shape: GridShape, slices) -> GridWord:
    """The word of ``shape``, two or more x-slices wide, with these x-slices."""
    word = _new(GridWord)
    word._shape, word._slices, word._cells = shape, slices, None
    word._hash = hash((*shape.extents, *map(_HASH, slices)))
    return word


def _from_cells(shape: GridShape, cells: tuple) -> GridWord:
    """The word of ``shape`` with these cells, as many as its sites.

    Its hash is the one its x-slices give it: over the symbol ids if it is
    one x-slice wide, else over its extents and the hashes of its x-slices.
    """
    word = _new(GridWord)
    word._shape, word._slices, word._cells = shape, None, cells
    extents = shape.extents
    m = extents[-1]
    word._hash = (hash(cells) if m == 1 else
                  hash((*extents, *map(hash, map(cells.__getitem__, _strides(m))))))
    return word


@lru_cache(maxsize=None)
def _strides(m):
    """The slices picking each of m x-slices out of a cell tuple."""
    return tuple(slice(j, None, m) for j in range(m))


_new = object.__new__


class Slicing:
    """Slice ``k`` (1-based) along extent ``a`` of the words of one shape,
    from :meth:`GridShape.slicing`.

    ``part`` is the shape of the slice (extent 1 along the axis) and
    ``grown`` the shape with the slice doubled (extent 2 in its place).
    :meth:`cut` takes the slice out of a word, and :meth:`grow` runs a whole
    growth step: it replaces the slice of every term by the blocks, words
    of shape ``grown.resized(axis, 2)``, that a splitter makes of it.

    Along x, on a word that holds its x-slices (or is one), cutting and
    splicing are tuple operations on them, O(m) for m x-slices, and the
    grown word holds x-slices too.  Otherwise, along y and z (where every
    x-slice changes) and on a word that holds only its cells, both gather
    the word's cells through index maps and make the new word from its
    cells, so each word keeps the view it was made with.
    """

    __slots__ = ("part", "grown", "_extents", "_k", "_take", "_put")

    def __init__(self, extents, a, k):
        self.part, self.grown, self._take, self._put = _slicing(extents, a, k)
        self._extents = extents
        self._k = k if a == len(extents) - 1 else None  # along x

    def _held(self, word: GridWord):
        """The word's x-slices if this is an x-slicing and it holds them or is one."""
        if self._k is not None:
            return word._slices or ((word,) if word._shape.extents[-1] == 1 else None)

    def cut(self, word: GridWord) -> GridWord:
        slices = self._held(word)
        if slices is not None:
            return slices[self._k - 1]
        return _from_cells(self.part, self._take(word._cells or word.cells))

    def grow(self, s: "FormalSum", split) -> "FormalSum":
        """One growth step: the sum of c·c'·(w with b in place of its slice)
        over the terms c·w of ``s`` and c'·b of ``split(slice of w)``, with
        ``split`` called once per term and the grown words, built to shape
        and so not checked again, merged in the order they are made."""
        if s.shape.extents != self._extents:
            raise ShapeError(f"a {s.shape} sum has no slice of {GridShape(*self._extents)}")
        k, grown, put = self._k, self.grown, self._put
        acc = {}
        get = acc.get
        for word, coeff in s._terms.items():
            slices = self._held(word)
            if slices is not None:
                head, tail = slices[:k - 1], slices[k:]
                for b, c in split(slices[k - 1])._terms.items():
                    w = _from_slices(grown, head + (b._slices or b._x_slices()) + tail)
                    acc[w] = get(w, 0j) + coeff * c
            else:
                cells = word._cells or word.cells
                for b, c in split(_from_cells(self.part, self._take(cells)))._terms.items():
                    w = _from_cells(grown, put(cells + (b._cells or b.cells)))
                    acc[w] = get(w, 0j) + coeff * c
        return _made(grown, _drop_small(acc))


def word1(sym: Symbol) -> GridWord:
    """The 1 x 1 word holding a single symbol."""
    return GridWord(GridShape(1, 1), (sym,))


class FormalSum:
    """A finite complex-linear combination of grid words of a common shape.

    Instances are canonical (duplicate words merged, coefficients below
    ``CANON_TOL`` dropped) and treated as immutable.  Every coefficient is
    finite: a NaN or infinite one raises :class:`NonFiniteError` instead of
    vanishing.

    The constructor is the accumulator: ``terms`` may repeat words, and a
    caller combining many terms passes them all to one constructor call
    rather than adding sums in a loop.  Terms are stored unordered;
    :meth:`unordered_items` serves internal loops, while :meth:`items`,
    iteration, ``repr`` and :meth:`to_json` sort.
    """

    __slots__ = ("shape", "_terms")

    def __init__(self, shape: GridShape, terms=None):
        self.shape = shape
        acc = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for word, coeff in items:
                if word.shape is not shape and word.shape != shape:
                    raise ShapeError(f"term shape {word.shape} != sum shape {shape}")
                acc[word] = acc.get(word, 0j) + complex(coeff)
        self._terms = _drop_small(acc)

    @staticmethod
    def unit(word: GridWord, coeff=1.0) -> "FormalSum":
        return FormalSum(word.shape, [(word, coeff)])

    @staticmethod
    def zero(shape: GridShape) -> "FormalSum":
        return FormalSum(shape)

    def items(self):
        """Terms in deterministic (lexicographic) order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0]._key())

    def unordered_items(self):
        """Terms in no guaranteed order, for loops whose result does not depend on it."""
        return self._terms.items()

    def coeff(self, word: GridWord) -> complex:
        return self._terms.get(word, 0j)

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(sorted(self._terms, key=lambda w: w._key()))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape} sums")
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms.get(w, 0j) + c
        return _made(self.shape, _drop_small(terms))

    def __sub__(self, other):
        return self + other * (-1)

    def __mul__(self, scalar) -> "FormalSum":
        return FormalSum(self.shape, {w: c * scalar for w, c in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if not self._terms:
            return f"0[{self.shape}]"
        bits = []
        for w, c in self.items():
            bits.append(f"({c:g})·[{w}]" if c != 1 else f"[{w}]")
        return " + ".join(bits)

    def map_words(self, fn) -> "FormalSum":
        """Apply ``word -> word`` (shape-preserving) to every term."""
        return FormalSum(self.shape, [(fn(w), c) for w, c in self._terms.items()])

    def to_json(self) -> str:
        terms = [
            {"cells": [s.name for s in w.cells], "re": c.real, "im": c.imag}
            for w, c in self.items()
        ]
        return json.dumps(
            {"shape": list(self.shape.extents), "terms": terms},
            sort_keys=True,
        )

    @staticmethod
    def from_json(data: str, alphabet: Alphabet) -> "FormalSum":
        obj = json.loads(data)
        shape = GridShape(*obj["shape"])
        terms = []
        for t in obj["terms"]:
            word = GridWord(shape, alphabet.words(t["cells"]))
            terms.append((word, complex(t["re"], t["im"])))
        return FormalSum(shape, terms)


def _drop_small(acc: dict) -> dict:
    """Canonicalize merged terms in place: drop each word whose coefficient
    has magnitude at most ``CANON_TOL``; raise :class:`NonFiniteError`
    naming the first word whose coefficient is NaN or infinite."""
    small = []
    for word, c in acc.items():
        mag = abs(c)
        if not mag <= _FLOAT_MAX:  # NaN or infinite
            raise NonFiniteError(f"coefficient {c} of [{word!r}] is not finite")
        if mag <= CANON_TOL:
            small.append(word)
    for word in small:
        del acc[word]
    return acc


def _made(shape: GridShape, terms: dict) -> FormalSum:
    """The sum of ``shape`` that owns ``terms``, canonical words of that shape."""
    out = _new(FormalSum)
    out.shape, out._terms = shape, terms
    return out


def sums_equal(a: FormalSum, b: FormalSum, tol: float = EQ_TOL) -> bool:
    """True iff shapes match and coefficients agree within ``tol`` on the union of terms."""
    return sum_difference(a, b) <= tol if a.shape == b.shape else False


def sum_difference(a: FormalSum, b: FormalSum) -> float:
    """Max coefficient mismatch over the union of terms (inf on shape mismatch)."""
    if a.shape != b.shape:
        return float("inf")
    ta, tb = a._terms, b._terms
    return max(chain((abs(c - tb.get(w, 0j)) for w, c in ta.items()),
                     (abs(c) for w, c in tb.items() if w not in ta)), default=0.0)


def worst_word(got: FormalSum, want: FormalSum) -> dict:
    """Where two sums of one shape differ most: the word and both
    coefficients as [real, imag]; empty if they are equal.  Ties go to the
    first word in sorted order."""
    worst, gap = None, 0.0
    for w in sorted(set(got._terms) | set(want._terms), key=GridWord._key):
        d = abs(got.coeff(w) - want.coeff(w))
        if d > gap:
            worst, gap = w, d
    if worst is None:
        return {}
    g, t = got.coeff(worst), want.coeff(worst)
    return {"word": repr(worst), "got": [g.real, g.imag], "want": [t.real, t.imag]}


def join(axis, first: GridWord, second: GridWord) -> GridWord:
    """The word holding ``second`` after ``first`` along ``axis``: to its
    right ('x'), above it ('y') or on top of it ('z')."""
    shape = _joined(axis, first.shape.extents, second.shape.extents)
    if axis == "x":
        return _from_slices(shape, first._x_slices() + second._x_slices())
    outer = math.prod(shape.extents[:shape.axis(axis)])
    na, nb = first.shape.sites // outer, second.shape.sites // outer
    a, b = first.cells, second.cells
    return GridWord(shape, tuple(
        c for o in range(outer) for c in a[o * na:(o + 1) * na] + b[o * nb:(o + 1) * nb]))


# A fresh example splits each distinct slice word once, and every free or
# cellwise split joins two slices, so one example asks for the same few
# joined shapes over and over; building one cost four GridShapes.
@lru_cache(maxsize=256)
def _joined(axis, a: tuple, b: tuple) -> GridShape:
    """The shape joining shapes of extents ``a`` and ``b`` along ``axis``."""
    a, b = GridShape(*a), GridShape(*b)
    if a.resized(axis, 1) != b.resized(axis, 1):
        raise ShapeError(f"cannot join {a} and {b} along {axis}")
    return a.resized(axis, a.extents[a.axis(axis)] + b.extents[b.axis(axis)])


def concat_h(a: FormalSum, b: FormalSum) -> FormalSum:
    """Juxtapose two sums side by side (``a`` on the left); bilinear."""
    return _concat("x", a, b)


def concat_v(a: FormalSum, b: FormalSum) -> FormalSum:
    """Stack two sums vertically (``a`` at the bottom); bilinear."""
    return _concat("y", a, b)


def _concat(axis, a: FormalSum, b: FormalSum) -> FormalSum:
    return FormalSum(_joined(axis, a.shape.extents, b.shape.extents),
                     [(join(axis, wa, wb), ca * cb)
                      for wa, ca in a._terms.items() for wb, cb in b._terms.items()])
