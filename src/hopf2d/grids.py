"""Formal sums of symbol-labeled lattice grids.

The basic objects are grids of algebra symbols on an n x m square lattice
and finite complex-linear combinations of such grids.  Sites are numbered
linearly starting at the bottom-left corner, running left to right along a
row and then jumping to the row above, so for a 3 x 3 grid::

    7 8 9
    4 5 6
    1 2 3

Cells of a :class:`GridWord` are stored in this linear order.  A
:class:`GridShape` lists its extents slowest axis first, so the same order
carries over to a stack of such grids (a cube): axis ``x`` runs along the
last extent, ``y`` along the one before it and ``z`` along the one before
that.

Formal sums are accumulated one way throughout the package: collect every
(word, coefficient) term of a result, repeats allowed, and build the
:class:`FormalSum` once from them; its constructor merges duplicates in one
dict.  Adding sums term by term in a loop would rebuild that dict on every
step.  Internal loops walk the terms unordered; sorting happens only at
output, in :meth:`FormalSum.items`, iteration, ``repr`` and JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
import json
import math
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


@dataclass(frozen=True, order=True)
class Symbol:
    """A named generator, identified by a small integer id within its alphabet."""

    id: int
    name: str

    def __repr__(self):
        return self.name


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

    def slicing(self, axis, k):
        """Slice ``k`` (1-based) along ``axis`` as ``(part, grown, take, put)``.

        ``take(cells)`` gives the slice's cells, a word of shape ``part``
        (extent 1 along the axis).  ``put(cells + block)`` replaces the
        slice by a doubled block (extent 2) and gives the cells of the grown
        word, of shape ``grown``.
        """
        return _slicing(self.extents, self.axis(axis), k)


# Growth and the checks ask for the same few slicings and coordinate lists
# over and over: a benchmark workload uses at most 48 distinct slicings and 16
# coordinate lists (the cube check 63 and 40), each thousands of times a
# second.  Building them on every call made the axiom suite 30% slower.
@lru_cache(maxsize=256)
def _coords(extents):
    return tuple(p[::-1] for p in product(*(range(1, e + 1) for e in extents)))


@lru_cache(maxsize=256)
def _slicing(extents, a, k):
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


_SYMBOL_ID = attrgetter("id")


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

    ``cells`` is stored in linear site order (bottom row first).  Words are
    immutable; their hash is computed once, from the shape and the symbol
    ids, because every accumulation step probes a dict with them.  A word
    equals another word of the same shape and cells, and nothing else.
    """

    __slots__ = ("shape", "cells", "_hash")

    def __init__(self, shape: GridShape, cells: tuple[Symbol, ...]):
        if len(cells) != shape.sites:
            raise ShapeError(f"{len(cells)} cells do not fill {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_hash", hash((*shape.extents, *map(_SYMBOL_ID, cells))))

    def __setattr__(self, name, value):
        raise AttributeError(f"GridWord is immutable; cannot set {name!r}")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, GridWord):
            return NotImplemented
        return (self._hash == other._hash
                and self.shape == other.shape
                and self.cells == other.cells)

    def cell(self, i, j):
        return self.cells[site_index(i, j, self.shape) - 1]

    def slice(self, axis, k) -> "GridWord":
        """The word on slice ``k`` (1-based) along ``axis``, extent 1 there."""
        part, _, take, _ = self.shape.slicing(axis, k)
        return GridWord(part, take(self.cells))

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
        return (*self.shape.extents, tuple(map(_SYMBOL_ID, self.cells)))

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
        kept = {}
        for word, c in acc.items():
            mag = abs(c)
            if not mag <= _FLOAT_MAX:  # NaN or infinite
                raise NonFiniteError(f"coefficient {c} of [{word!r}] is not finite")
            if mag > CANON_TOL:
                kept[word] = c
        self._terms = kept

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
        return FormalSum(self.shape, terms)

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


def sums_equal(a: FormalSum, b: FormalSum, tol: float = EQ_TOL) -> bool:
    """True iff shapes match and coefficients agree within ``tol`` on the union of terms."""
    return sum_difference(a, b) <= tol if a.shape == b.shape else False


def sum_difference(a: FormalSum, b: FormalSum) -> float:
    """Max coefficient mismatch over the union of terms (inf on shape mismatch)."""
    if a.shape != b.shape:
        return float("inf")
    words = set(a._terms) | set(b._terms)
    if not words:
        return 0.0
    return max(abs(a.coeff(w) - b.coeff(w)) for w in words)


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
    shape = _joined(axis, first.shape, second.shape)
    outer = math.prod(shape.extents[:shape.axis(axis)])
    na, nb = first.shape.sites // outer, second.shape.sites // outer
    return GridWord(shape, tuple(
        c for o in range(outer)
        for c in first.cells[o * na:(o + 1) * na] + second.cells[o * nb:(o + 1) * nb]))


def _joined(axis, a: GridShape, b: GridShape) -> GridShape:
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
    return FormalSum(_joined(axis, a.shape, b.shape),
                     [(join(axis, wa, wb), ca * cb)
                      for wa, ca in a._terms.items() for wb, cb in b._terms.items()])
