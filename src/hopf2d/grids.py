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

How words are stored.  A word holds its x-slices (its columns on a plane,
its ``(l, n, 1)`` slices in a cube, each itself a word one slice wide), its
cells, or both, and builds the missing view on first use and keeps it.
Every word hashes to one polynomial over its sites, the two-dimensional
rolling hash of Karp and Rabin (IBM J. Res. Dev. 31, 249 (1987))::

    H = sum over sites of (symbol id + 1)·b_x^(x-1)·b_y^(y-1)[·b_z^(z-1)]  mod 2^61 - 1

From cells it is a dot product with the shape's site weights, from
x-slices ``sum_j b_x^(j-1)·H(slice j)``, so it is the same however the
word was made.  A growth step (a :class:`Slicing` step) finds each term's
slice in the splitter's memo by its cells and makes a word of the slice
only on a miss.  Along x the slice is the column the word holds, and the
step replaces that one x-slice by the block's two: O(m) for m x-slices, and
the grown word shares every other x-slice object with the word it came
from.  Its cells are built only if they are read.  A step along y or z
changes every x-slice, so it gathers the cells through index maps, O(n·m),
as a step along x does on a word that holds only cells; the grown word
holds cells, and its x-slices are built when they are asked for.  A step
on the last slice k along axis a, which is every boundary step, takes each
grown word's hash from the word's, the cut slice's and the block's in
O(1): ``H + b_a^(k-1)·(H(block) - H(cut))``; only growth of an inner slice
hashes the grown word afresh.  Growing a column first and then its rows
(``y_first``) therefore costs O(m) per term in every x-step, while growing
the rows first pays O(n·m) per term in every y-step to gather the cells.

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
from itertools import chain, filterfalse, product, repeat
import json
import math
from operator import attrgetter, itemgetter, mul, sub
import sys

# Coefficients below this magnitude are dropped during canonicalization.
CANON_TOL = 1e-14
# Tolerance of sums_equal, and the default residual bound of the checks.
EQ_TOL = 1e-10
_FLOAT_MAX = sys.float_info.max
# axis names, fastest first: x is a shape's last extent, y the one before it
AXES = ("x", "y", "z")
# Word hashes are taken mod 2^61 - 1, Python's own int-hash modulus, with one
# base per axis in AXES order (see the module docstring).  The bases are
# arbitrary: equality never trusts a hash, so no sum depends on them.
_P = sys.hash_info.modulus
_BASES = (0x1A2B3C4D5E6F7081, 0x0F1E2D3C4B5A6978, 0x13579BDF02468ACE)


class ShapeError(ValueError):
    """Operands live on incompatible grid shapes."""


class SiteRangeError(ValueError):
    """A lattice coordinate is outside the grid."""


class NonFiniteError(ValueError):
    """A formal sum coefficient is NaN or infinite."""


class Symbol(int):
    """A named generator, identified by a small integer id within its alphabet.

    A symbol is its id as an ``int``: it equals, hashes and orders as that
    id, in C, so a word's cells hash and compare without a Python call per
    cell.  Symbols of two alphabets with the same id are therefore equal,
    and a symbol equals its id as an ``int``; code where two alphabets meet
    checks their names with :meth:`Alphabet.require_names`.  A symbol is true,
    prints as its name and is immutable.
    """

    def __new__(cls, id: int, name: str):
        sym = super().__new__(cls, id)
        object.__setattr__(sym, "name", name)
        return sym

    def __setattr__(self, key, value):
        raise AttributeError(f"Symbol is immutable; cannot set {key!r}")

    id = property(int.__int__, doc="The symbol's id within its alphabet.")

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

    def require_names(self, symbols, where: str, own: str, error: type[Exception]):
        """Raise ``error`` naming the first of ``symbols`` whose id this
        alphabet, called ``own``, names differently from ``where``.
        Symbols compare as their ids, so the words of two alphabets mean
        the same only where the names agree; an id past this alphabet's
        last symbol is not checked."""
        names = self.symbols
        bad = next((s for s in symbols if s < len(names) and s.name != names[s].name), None)
        if bad is not None:
            raise error(f"symbol id {int(bad)} is {bad.name!r} in {where} but "
                        f"{names[bad].name!r} in {own}")


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
        return _axis(self.extents, name)

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
        return slicing(self.extents, axis, k)


def _axis(extents, name) -> int:
    a = len(extents) - 1 - AXES.index(name) if name in AXES else -1
    if a < 0:
        raise ShapeError(f"a {'x'.join(map(str, extents))} grid has no axis {name!r}")
    return a


# Growth and the checks ask for the same few slicings, coordinate lists and
# weight lists over and over: a benchmark workload asks for at most 67
# distinct slicings and 19 coordinate and weight lists (the cube check 103
# and 40), each thousands of times a second.  Building them on every call
# made the axiom suite 30% slower.
@lru_cache(maxsize=256)
def _coords(extents):
    return tuple(p[::-1] for p in product(*(range(1, e + 1) for e in extents)))


@lru_cache(maxsize=256)
def _weights(extents):
    """Each site's hash weight b_x^(x-1)·b_y^(y-1)[·b_z^(z-1)] mod ``_P`` in
    linear site order, and their sum mod ``_P``."""
    weights = tuple(math.prod(pow(b, c - 1, _P) for b, c in zip(_BASES, p)) % _P
                    for p in _coords(extents))
    return weights, sum(weights) % _P


@lru_cache(maxsize=256)
def slicing(extents, axis, k=None) -> "Slicing":
    """The :class:`Slicing` of slice ``k`` (1-based; None for the last one)
    along ``axis`` of the words of these extents.  It holds shapes, index
    maps and hash factors, no words, so one serves every caller."""
    a = _axis(extents, axis)
    return Slicing(extents, a, extents[a] if k is None else k)


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

    A word keeps two views, its x-slices and ``cells`` in linear site order
    (bottom row first); a word made from cells builds its x-slices on first
    use, and a word made by splicing x-slices builds its cells on first use.
    Its hash is the site polynomial of the module docstring, set once when
    the word is made, because every accumulation step probes a dict with it;
    a growth step sets it from the word it grew, the cut slice and the block.
    How a word was made never shows: it equals another word of the same
    shape and cells, and nothing else, which equality decides by comparing
    x-slices or cells (a hash only tells unequal words apart), and it is
    immutable.
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
            part = slicing(extents, "x", 1).part
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
        return (*self._shape.extents, self.cells)

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


def _from_slices(shape: GridShape, slices, h=None) -> GridWord:
    """The word of ``shape``, two or more x-slices wide, with these x-slices
    and hash ``h``; by default ``sum_j b_x^(j-1)·H(slice j)``, the x-slice
    hashes weighted as the sites of the bottom row are."""
    word = _new(GridWord)
    word._shape, word._slices, word._cells = shape, slices, None
    word._hash = (sum(map(mul, _weights(shape.extents)[0], map(_HASH, slices))) % _P
                  if h is None else h)
    return word


def _from_cells(shape: GridShape, cells: tuple, h=None) -> GridWord:
    """The word of ``shape`` with these cells, as many as its sites, and
    hash ``h``; by default the dot product of the symbol ids + 1 with the
    shape's site weights."""
    word = _new(GridWord)
    word._shape, word._slices, word._cells = shape, None, cells
    if h is None:
        weights, total = _weights(shape.extents)
        h = (sum(map(mul, weights, cells)) + total) % _P
    word._hash = h
    return word


_new = object.__new__


class Slicing:
    """Slice ``k`` (1-based) along extent ``a`` of the words of one shape,
    from :func:`slicing` or :meth:`GridShape.slicing`.

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
    cells, so each word keeps the view it was made with.  On the last slice
    a grown word's hash is the word's plus the block's less the cut slice's,
    both shifted to the slice by b_a^(k-1) (see the module docstring).
    """

    __slots__ = ("part", "grown", "_extents", "_k", "_take", "_put", "_shift")

    def __init__(self, extents, a, k):
        # take(cells) gathers the slice's cells out of a word's, put(cells + block)
        # puts a doubled block's cells in their place
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
        self._take = get if len(take) > 1 else lambda cells: (get(cells),)
        self._put = itemgetter(*put)
        self.part = GridShape(*extents[:a], 1, *extents[a + 1:])
        self.grown = GridShape(*extents[:a], e + 1, *extents[a + 1:])
        self._extents = extents
        self._k = k if a == len(extents) - 1 else None  # along x
        # the hash factor of the slice's position, None on an inner slice, whose
        # successors move along the axis, so grown words are hashed afresh
        self._shift = pow(_BASES[len(extents) - 1 - a], k - 1, _P) if k == e else None

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
        over the terms c·w of ``s`` and c'·b of ``split(slice of w)``, the
        grown words, built to shape and so not checked again, merged in the
        order they are made.  ``split`` is a
        :class:`~hopf2d.coalgebra.Splitter`: each slice is found in its memo
        by cells, and only a slice it lacks is made a word and handed to
        ``split``, which checks, splits and stores it."""
        if s.shape.extents != self._extents:
            raise ShapeError(f"a {s.shape} sum has no slice of {GridShape(*self._extents)}")
        k, grown, put, shift, part = self._k, self.grown, self._put, self._shift, self.part
        table = split._memo[part.extents]
        acc = {}
        get = acc.get
        h = None
        for word, coeff in s._terms.items():
            slices = self._held(word)
            cells = None if slices is not None else word._cells or word.cells
            # a word one x-slice wide always holds its cells
            key = slices[k - 1]._cells if cells is None else self._take(cells)
            entry = table.get(key)
            if entry is None:
                split(slices[k - 1] if cells is None else _from_cells(part, key))
                entry = table[key]
            out, cut_hash = entry
            if shift is not None:
                base = word._hash - shift * cut_hash
            if cells is None:
                head, tail = slices[:k - 1], slices[k:]
                for b, c in out._terms.items():
                    if shift is not None:
                        h = (base + shift * b._hash) % _P
                    w = _from_slices(grown, head + (b._slices or b._x_slices()) + tail, h)
                    acc[w] = get(w, 0j) + coeff * c
            else:
                for b, c in out._terms.items():
                    if shift is not None:
                        h = (base + shift * b._hash) % _P
                    w = _from_cells(grown, put(cells + (b._cells or b.cells)), h)
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


def sums_equal(a: FormalSum, b: FormalSum) -> bool:
    """True iff shapes match and coefficients agree within ``EQ_TOL`` on the union of terms."""
    return sum_difference(a, b) <= EQ_TOL


def sum_difference(a: FormalSum, b: FormalSum) -> float:
    """Max coefficient mismatch over the union of terms (inf on shape mismatch)."""
    if a.shape != b.shape:
        return float("inf")
    ta, tb = a._terms, b._terms
    return max(chain(map(abs, map(sub, ta.values(), map(tb.get, ta, repeat(0j)))),
                     map(abs, map(tb.__getitem__, filterfalse(ta.__contains__, tb)))),
               default=0.0)


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

