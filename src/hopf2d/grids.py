"""Formal sums of symbol-labeled lattice grids.

The basic objects are grids of algebra symbols on an n x m square lattice
and finite complex-linear combinations of such grids.  Sites are numbered
linearly starting at the bottom-left corner, running left to right along a
row and then jumping to the row above, so for a 3 x 3 grid::

    7 8 9
    4 5 6
    1 2 3

Cells of a :class:`GridWord` are stored in this linear order.

Formal sums are accumulated one way throughout the package: collect every
(word, coefficient) term of a result, repeats allowed, and build the
:class:`FormalSum` once from them; its constructor merges duplicates in one
dict.  Adding sums term by term in a loop would rebuild that dict on every
step.  Internal loops walk the terms unordered; sorting happens only at
output, in :meth:`FormalSum.items`, iteration, ``repr`` and JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
from operator import attrgetter
import sys

# Coefficients below this magnitude are dropped during canonicalization.
CANON_TOL = 1e-14
# Default tolerance for comparing formal sums coefficientwise.
EQ_TOL = 1e-10
_FLOAT_MAX = sys.float_info.max


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


@dataclass(frozen=True, order=True)
class GridShape:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid shape must be positive, got {self}")

    @property
    def sites(self):
        return self.rows * self.cols

    def __repr__(self):
        return f"{self.rows}x{self.cols}"


_SYMBOL_ID = attrgetter("id")


def site_index(i: int, j: int, shape: GridShape) -> int:
    """Linear index (1-based) of the site at row ``i`` (from the bottom), column ``j``."""
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
        if len(cells) != shape.rows * shape.cols:
            raise ShapeError(f"{len(cells)} cells do not fill {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_hash",
                           hash((shape.rows, shape.cols, *map(_SYMBOL_ID, cells))))

    def __setattr__(self, name, value):
        raise AttributeError(f"GridWord is immutable; cannot set {name!r}")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, GridWord):
            return NotImplemented
        return (self._hash == other._hash and self.shape == other.shape
                and self.cells == other.cells)

    def cell(self, i, j):
        return self.cells[site_index(i, j, self.shape) - 1]

    def row(self, i) -> "GridWord":
        """The 1 x m row word at height ``i`` (1 = bottom)."""
        m = self.shape.cols
        off = (i - 1) * m
        return GridWord(GridShape(1, m), self.cells[off:off + m])

    def col(self, j) -> "GridWord":
        """The n x 1 column word at column ``j`` (1 = leftmost)."""
        if not 1 <= j <= self.shape.cols:
            raise SiteRangeError(f"column {j} outside {self.shape}")
        return GridWord(GridShape(self.shape.rows, 1), self.cells[j - 1::self.shape.cols])

    def rows_top_down(self):
        """Rows as lists of names, top row first (the layout grids are displayed in)."""
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
        return (self.shape.rows, self.shape.cols, tuple(map(_SYMBOL_ID, self.cells)))

    def __lt__(self, other):
        return self._key() < other._key()

    def __repr__(self):
        return "/".join(" ".join(r) for r in self.rows_top_down())


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
            {"shape": [self.shape.rows, self.shape.cols], "terms": terms},
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


def concat_h(a: FormalSum, b: FormalSum) -> FormalSum:
    """Juxtapose two sums side by side (``a`` on the left); bilinear."""
    if a.shape.rows != b.shape.rows:
        raise ShapeError(f"row mismatch: {a.shape} vs {b.shape}")
    ma, mb = a.shape.cols, b.shape.cols
    shape = GridShape(a.shape.rows, ma + mb)
    offsets = range(a.shape.rows)
    b_rows = [([wb.cells[k * mb:(k + 1) * mb] for k in offsets], cb)
              for wb, cb in b._terms.items()]
    terms = []
    for wa, ca in a._terms.items():
        a_rows = [wa.cells[k * ma:(k + 1) * ma] for k in offsets]
        for rows, cb in b_rows:
            cells = []
            for ra, rb in zip(a_rows, rows):
                cells += ra
                cells += rb
            terms.append((GridWord(shape, tuple(cells)), ca * cb))
    return FormalSum(shape, terms)


def concat_v(a: FormalSum, b: FormalSum) -> FormalSum:
    """Stack two sums vertically (``a`` at the bottom); bilinear."""
    if a.shape.cols != b.shape.cols:
        raise ShapeError(f"column mismatch: {a.shape} vs {b.shape}")
    shape = GridShape(a.shape.rows + b.shape.rows, a.shape.cols)
    terms = []
    for wa, ca in a._terms.items():
        for wb, cb in b._terms.items():
            terms.append((GridWord(shape, wa.cells + wb.cells), ca * cb))
    return FormalSum(shape, terms)
