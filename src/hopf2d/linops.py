"""Numeric evaluation of formal sums as sparse lattice operators.

A :class:`Representation` sends every alphabet symbol to a d x d complex
matrix; a grid word then maps to the Kronecker product of its cell matrices
taken in linear site order (site 1 = leftmost Kronecker factor), and a
formal sum to the corresponding linear combination.

Every :class:`SparseOperator` stores at most one entry per coordinate, so
its entry count ``nnz`` is the count of its nonzero stored values, read
without reordering anything.  Canonical form (sorted columns in each row, no
stored zeros) is established only where order can be seen: ``entries``,
``write_matrix_market`` and :func:`worst_entry`.

Two operators are compared one way: by the max-abs entry of their
difference, ``(a - b).max_abs()``, with :func:`worst_entry` naming where a
failing comparison is worst.  The deformed-su(2) relation checks build no
operator: they compare matrix product operators (:mod:`hopf2d.automata`).

Every operator the library builds from a lattice description (a grown
element, an antipode side and its identity target, an embedded R-matrix)
is built by one kernel, :func:`kron_terms`, and that kernel enforces the
one operator budget, :func:`require_budget`: d**sites <= 2**SITE_CAP,
read from the dimension alone before any array is allocated.  The CLI
calls the same function for every run before any check starts, so that a
run past it is refused before it has written or computed anything.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import scipy.sparse as sp

from .grids import Alphabet, FormalSum, Symbol


class RepresentationError(ValueError):
    """A symbol has no matrix in the representation."""


class ResourceLimitError(ValueError):
    """Requested work exceeds a size cap: the operator budget of
    :func:`require_budget`, which :func:`kron_terms` enforces for every
    operator the library builds, the regular representation's
    :data:`REP_ENTRY_CAP`, or a PEPS row table's cap."""


# site cap for lattice operators, from measured work: at 18 sites (dimension
# 2**18 = 262144) a `build-op --gen S+ --size 3x6` process takes 1.5 s and
# 445 MiB peak resident memory, writing 2.36 million entries (min of 3 runs
# on a 2-core x86 machine); `verify --checks ks,commutator` builds no
# operator and is not capped, where its 3x6 run built six and took about
# 3.0 s and 315 MiB (median of 5), and at 20 sites (4x5) 33 s and 1.2 GiB
SITE_CAP = 18

# entry cap of a representation's own matrices, d dense d x d ones for the
# regular representation (d**3 entries), from measured work: `verify
# --example taft --taft-n N --sizes 1x1 --checks antipode` (d = N**2) peaks
# at 57, 94, 196, 279 and 333 MiB for N = 8, 12, 16, 18 and 19 (one fresh
# process each on a 2-core x86 machine), so the cap keeps N <= 18 (d**3 =
# 3.4e7), under the 315 MiB that the site cap's 3x6 `verify --checks
# ks,commutator` run took when it built operators; N = 30 (d**3 = 7.3e8)
# would allocate 10.9 GiB
REP_ENTRY_CAP = 40 * 2 ** 20


def require_budget(what: str, dim: int, sites: int):
    """The one operator budget: ``what`` on ``sites`` sites of dimension
    ``dim`` needs dim**sites <= 2**SITE_CAP, or raises
    :class:`ResourceLimitError` naming ``what`` and the dimension.  It is
    read from the dimension alone, before anything is built."""
    if dim ** sites > 2 ** SITE_CAP:
        raise ResourceLimitError(f"{what} needs dimension {dim}**{sites}, "
                                 f"past the budget 2**{SITE_CAP}")


class Representation:
    """Mapping symbol -> d x d complex matrix over a common alphabet."""

    def __init__(self, alphabet: Alphabet, matrices):
        self.alphabet = alphabet
        self.matrices = {}
        dim = None
        for sym, mat in matrices.items():
            if isinstance(sym, str):
                sym = alphabet[sym]
            m = np.asarray(mat, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"matrix for {sym} is not square")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError("all matrices must share one dimension")
            self.matrices[sym] = m
        self.dim = dim

    def __getitem__(self, sym: Symbol):
        try:
            return self.matrices[sym]
        except KeyError:
            raise RepresentationError(f"no matrix for symbol {sym}") from None


class SparseOperator:
    """Sparse complex operator on the lattice Hilbert space.

    Thin wrapper around a CSR matrix that stores at most one entry per
    coordinate.  The constructor canonicalizes its own copy of the argument
    (sorted columns, no stored zeros).  Results of ``+ - * @`` and
    :func:`kron_terms` wrap scipy's duplicate-free result as it comes,
    columns possibly unsorted and zeros possibly stored; neither changes
    what ``max_abs``, ``toarray`` and ``mat @ v`` return.  ``nnz`` counts
    the nonzero stored values (NaN counts) and leaves the matrix as it is;
    ``entries`` and ``write_matrix_market`` canonicalize in place first.
    """

    def __init__(self, mat):
        self.mat = sp.csr_matrix(mat, dtype=complex, copy=True)
        self._canonicalize()

    @classmethod
    def _wrap(cls, mat):
        """An operator around a duplicate-free complex CSR matrix that nothing
        else holds, taken as it is."""
        op = cls.__new__(cls)
        op.mat = mat
        return op

    def _canonicalize(self):
        """Sort each row's columns and drop stored zeros, in place; return the
        matrix.  On a matrix scipy has marked canonical, ``sum_duplicates``
        returns at once."""
        self.mat.sum_duplicates()
        self.mat.eliminate_zeros()
        return self.mat

    @property
    def dim(self):
        return self.mat.shape[0]

    @property
    def nnz(self):
        return int(np.count_nonzero(self.mat.data))

    def entries(self):
        """Canonical coordinate list [(row, col, value)], row-major sorted, 0-based."""
        mat = self._canonicalize()
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        return list(zip(rows.tolist(), mat.indices.tolist(), mat.data.tolist()))

    def toarray(self):
        return self.mat.toarray()

    def __add__(self, other):
        return SparseOperator._wrap(self.mat + other.mat)

    def __sub__(self, other):
        return SparseOperator._wrap(self.mat - other.mat)

    def __mul__(self, scalar):
        return SparseOperator._wrap(self.mat * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return SparseOperator._wrap(self.mat @ other.mat)

    def max_abs(self):
        return 0.0 if self.mat.nnz == 0 else float(np.abs(self.mat.data).max())

    def write_matrix_market(self, path) -> int:
        return write_matrix_market(self._canonicalize(), path)


def worst_entry(a: SparseOperator, b: SparseOperator) -> dict:
    """Where a and b differ most: the 0-based (row, col) and both values as
    [real, imag]; empty if they are equal.  Ties go to the first entry in
    row-major order."""
    diff = (a - b)._canonicalize()
    if diff.nnz == 0:
        return {}
    k = int(np.argmax(np.abs(diff.data)))
    row = int(np.searchsorted(diff.indptr, k, side="right") - 1)
    col = int(diff.indices[k])
    va, vb = complex(a.mat[row, col]), complex(b.mat[row, col])
    return {"row": row, "col": col, "lhs": [va.real, va.imag], "rhs": [vb.real, vb.imag]}


def kron_terms(terms, d: int, sites: int) -> SparseOperator:
    """Sum of ``coeff * M_1 (x) ... (x) M_sites`` over ``(coeff, [M_1, ..., M_sites])``.

    Every factor is a d x d matrix, dense or not; site 1 is the leftmost
    factor.  Each term is expanded as numpy coordinate arrays, one factor at
    a time: with ``key = row * d**sites + col``, a factor's nonzeros (fr, fc,
    fv) turn ``key`` into ``key[:, None] * d + (fr * d**sites + fc)`` and the
    values into ``v[:, None] * fv``.  All terms are then summed into one CSR
    matrix of dimension d**sites.  Entries that several terms share are added
    in term order, so the result equals accumulating the terms' Kronecker
    products one after another.  An operator past the budget
    (:func:`require_budget`) raises before any array is built; within it,
    every key is below 2**(2 * SITE_CAP) and fits int64.
    """
    require_budget(f"an operator on {sites} sites", d, sites)
    dim = d ** sites
    coords = {}  # id(matrix) -> (matrix, key offsets, values); the matrix pins the id
    keys, vals = [], []
    for coeff, factors in terms:
        if len(factors) != sites:
            raise ValueError(f"term has {len(factors)} factors, expected {sites}")
        key = np.zeros(1, dtype=np.int64)
        v = None
        for f in factors:
            hit = coords.get(id(f))
            if hit is None:
                m = np.asarray(f, dtype=complex)
                if m.shape != (d, d):
                    raise ValueError(f"factor of shape {m.shape}, expected {(d, d)}")
                fr, fc = np.nonzero(m)
                hit = coords[id(f)] = (f, fr * dim + fc, m[fr, fc])
            _, off, fv = hit
            key = (key[:, None] * d + off).ravel()
            v = fv if v is None else (v[:, None] * fv).ravel()
        keys.append(key)
        vals.append(np.full(1, coeff, dtype=complex) if v is None else v * coeff)
    if not vals:
        return SparseOperator._wrap(sp.csr_matrix((dim, dim), dtype=complex))
    key, val = np.concatenate(keys), np.concatenate(vals)
    del keys, vals  # the per-term pieces, before the sort's copies
    order = np.argsort(key, kind="stable")  # each term's keys come in long sorted runs
    key, val = key[order], val[order]
    del order
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if first.all():  # no coordinate repeats: each entry is its one value
        uniq, data = key, val
        data += 0.0  # as 0 + v in the scatter-add below: -0.0 parts become 0.0
    else:
        uniq = key[first]
        data = np.zeros(len(uniq), dtype=complex)
        # unbuffered and, the sort being stable, in term order within each entry
        np.add.at(data, np.cumsum(first) - 1, val)
    indptr = np.searchsorted(uniq, np.arange(dim + 1, dtype=np.int64) * dim)
    return SparseOperator._wrap(sp.csr_matrix((data, uniq % dim, indptr), shape=(dim, dim)))


def evaluate(s: FormalSum, rep: Representation) -> SparseOperator:
    """Evaluate a formal sum in a representation as a sparse operator of
    dimension d**(n*m).  A cell whose id the representation's alphabet
    names differently raises :class:`RepresentationError`."""
    rep.alphabet.require_names(set(chain.from_iterable(w.cells for w, _ in s.unordered_items())),
                               "the sum", "the representation", RepresentationError)
    terms = [(coeff, [rep[c] for c in word.cells]) for word, coeff in s.unordered_items()]
    return kron_terms(terms, rep.dim, s.shape.sites)


def write_matrix_market(mat, path) -> int:
    """Write the canonical complex CSR matrix of a :class:`SparseOperator`
    (as :meth:`SparseOperator.write_matrix_market` hands it over) in Matrix
    Market coordinate format, 1-based, and return the number of entries.

    Entries go out in row-major order.  Each line reads as
    ``"%d %d %.17g %.17g\n"`` of its row, column, real and imaginary part,
    but no text is formatted twice: the 1-based labels ``1 `` to
    ``max(shape) `` are formatted once, each row's label is repeated for
    its entries and the column labels are indexed, and each distinct
    (real, imaginary) pair is formatted once, values told apart by their
    bit patterns, so ``-0.0`` and ``0.0`` or NaNs of different payload keep
    their own text.  The body is one join over an object array that holds,
    for every entry, its row, column and value texts.
    """
    col, data = mat.indices, mat.data
    nnz = len(data)
    bits = np.ascontiguousarray(data, dtype=complex).view(np.int64).reshape(nnz, 2)
    _, re_key = np.unique(bits[:, 0], return_inverse=True)
    _, im_key = np.unique(bits[:, 1], return_inverse=True)
    _, first, value = np.unique(re_key * nnz + im_key, return_index=True, return_inverse=True)
    values = ["%.17g %.17g\n" % (re, im) for re, im in bits[first].view(np.float64).tolist()]
    # every line's three parts refer to the distinct texts, so no line is built
    parts = np.empty((nnz, 3), dtype=object)
    labels = np.array([f"{i} " for i in range(1, max(mat.shape) + 1)], dtype=object)
    parts[:, 0] = np.repeat(labels[:mat.shape[0]], np.diff(mat.indptr))
    parts[:, 1] = labels[col]
    parts[:, 2] = np.array(values, dtype=object)[value]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate complex general\n")
        fh.write(f"{mat.shape[0]} {mat.shape[1]} {nnz}\n")
        fh.write("".join(parts.ravel().tolist()))
    return nnz


def read_matrix_market(path):
    """Read back a coordinate complex general file as a CSR matrix."""
    import scipy.io

    return sp.csr_matrix(scipy.io.mmread(path))
