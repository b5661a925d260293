"""Formal sums as fixed-length weighted automata, and the matrix product
operators (MPOs) that they become in a representation.

A formal sum over N sites, read in linear site order, is a layered weighted
automaton.  Its states at cut k are the classes of the words' k-letter
prefixes: two prefixes share a class when the same suffixes follow them
with the same coefficients (the same residual).  The merge compares
letters and coefficients only, so it is exact.  Every path starts at the
one state of cut 0, reads one letter per site, and ends at a state of cut
N whose final weight is the coefficient of the word it spelled.  A placed
deformed-su(2) generator (K- ... K- S± K+ ... K+) has 2 states at every
inner cut, and a K string 1.

In a representation the automaton is an MPO (Crosswhite & Bacon, PRA 78,
012356 (2008); Schollwöck, Ann. Phys. 326, 96 (2011)).  Site k holds a
(D, d, d, D) tensor, the sum of its letters' d x d matrices over the
transitions between the D states of the cuts on either side, and the
operator is the sum over bond paths of the Kronecker products of those
matrices, site 1 the leftmost factor as in :func:`linops.kron_terms`.  A
product of MPOs multiplies the bonds, a difference stacks them, and a
scalar multiple scales the left boundary vector.

Two MPOs are compared by the Frobenius norm of their difference relative to
the first, from one left-canonical QR sweep, the orthogonalisation step of
TT-rounding (Oseledets, SIAM J. Sci. Comput. 33, 2295 (2011)).  Each step
keeps only the R factor, so no norm is a difference of squared norms.  A
failing comparison names one entry where the two differ
(:func:`witness_entry`), with both sides' values contracted from their MPOs.
Nothing here builds a matrix of dimension d**N.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import FormalSum
from .linops import Representation, RepresentationError


class Automaton:
    """The fixed-length weighted automaton of one formal sum.

    ``letters`` are the distinct symbols of its words, by id.  Every cut
    has ``states`` states, the most that any cut needs; the others are
    never reached.  ``weights[k, a, l, b]`` is 1 where state a of cut k reads
    ``letters[l]`` at site k + 1 and goes to state b of cut k + 1, else 0.
    Paths start at state 0 of cut 0, and ``final[b]`` is the weight of state
    b of cut N.
    """

    def __init__(self, s: FormalSum):
        words = [(word.cells, coeff) for word, coeff in s.unordered_items()]
        sites = s.shape.sites
        self.letters = tuple(sorted({c for cells, _ in words for c in cells}))
        index = {c: i for i, c in enumerate(self.letters)}
        # prefix ids, left to right: prefixes[k][i] names word i's first k letters
        prefixes = [[0] * len(words)]
        for k in range(sites):
            ids = {}
            prefixes.append([ids.setdefault((p, cells[k]), len(ids))
                             for p, (cells, _) in zip(prefixes[k], words)])
        # residual classes, right to left: at cut N a word's class is its
        # coefficient's, at cut k its prefix's set of (letter, next class)
        coeffs = {}
        classes = [[coeffs.setdefault(coeff, len(coeffs)) for _, coeff in words]]
        for k in range(sites - 1, -1, -1):
            follow = {}
            for p, (cells, _), c in zip(prefixes[k], words, classes[-1]):
                follow.setdefault(p, set()).add((cells[k], c))
            ids = {}
            residual = {p: ids.setdefault(frozenset(f), len(ids)) for p, f in follow.items()}
            classes.append([residual[p] for p in prefixes[k]])
        classes.reverse()
        cls = np.array(classes, dtype=np.intp).reshape(sites + 1, len(words))
        self.states = int(cls.max()) + 1 if cls.size else 1
        self.weights = np.zeros((sites, self.states, len(self.letters), self.states))
        letter = np.array([[index[c] for c in cells] for cells, _ in words],
                          dtype=np.intp).reshape(len(words), sites)
        self.weights[np.arange(sites)[:, None], cls[:-1], letter.T, cls[1:]] = 1.0
        self.final = np.zeros(self.states, dtype=complex)
        for coeff, c in coeffs.items():
            self.final[c] = coeff

    def mpo(self, rep: Representation) -> MPO:
        """The MPO of the sum in ``rep``.  A letter whose id the
        representation's alphabet names differently raises
        :class:`RepresentationError`, as :func:`linops.evaluate` does."""
        rep.alphabet.require_names(set(self.letters), "the sum", "the representation",
                                   RepresentationError)
        mats = np.array([rep[c] for c in self.letters], dtype=complex).reshape(-1, rep.dim, rep.dim)
        left = np.zeros(self.states, dtype=complex)
        left[0] = 1.0
        return MPO(np.einsum("kalb,lrc->karcb", self.weights, mats), left, self.final)


class MPO:
    """left[a_0] W_1[a_0, :, :, a_1] (x) ... (x) W_N[a_{N-1}, :, :, a_N] right[a_N],
    summed over the bond indices: ``tensors`` is (N, D, d, d, D), row index
    before column index at every site, and ``left`` and ``right`` are (D,)."""

    __slots__ = ("tensors", "left", "right")

    def __init__(self, tensors, left, right):
        self.tensors, self.left, self.right = tensors, left, right

    def __matmul__(self, other: MPO) -> MPO:
        """The operator product: bond pairs (a, b), summed over the middle index."""
        sites, da, d, _, _ = self.tensors.shape
        db = other.tensors.shape[1]
        tensors = np.einsum("kirmx,kjmcy->kijrcxy", self.tensors, other.tensors)
        return MPO(tensors.reshape(sites, da * db, d, d, da * db),
                   np.outer(self.left, other.left).ravel(), np.outer(self.right, other.right).ravel())

    def __sub__(self, other: MPO) -> MPO:
        """The difference: both bond spaces stacked, this one's first."""
        sites, da, d, _, _ = self.tensors.shape
        db = other.tensors.shape[1]
        tensors = np.zeros((sites, da + db, d, d, da + db), dtype=complex)
        tensors[:, :da, :, :, :da] = self.tensors
        tensors[:, da:, :, :, da:] = other.tensors
        return MPO(tensors, np.concatenate([self.left, -other.left]),
                   np.concatenate([self.right, other.right]))

    def __mul__(self, scalar) -> MPO:
        return MPO(self.tensors, self.left * scalar, self.right)

    def entry(self, rows, cols) -> complex:
        """The entry at the row and column given as one digit per site, site 1 first."""
        v = self.left
        for mat in self.tensors[np.arange(len(rows)), :, rows, cols, :]:
            v = v @ mat
        return complex(v @ self.right)


def _sweep(op: MPO, keep_q=False):
    """The left-canonical QR sweep of ``op``: (the last R factor, the Q
    factors if ``keep_q``), or None once a step meets a number that is not
    finite, before it is factored."""
    r, qs = op.left[None, :], []
    bond = op.tensors.shape[1]
    for w in op.tensors:
        m = (r @ w.reshape(bond, -1)).reshape(-1, bond)
        if not np.isfinite(m).all():
            return None
        if keep_q:
            q, r = np.linalg.qr(m)
            qs.append(q)
        else:
            r = np.linalg.qr(m, mode="r")
    return r, qs


def relative_difference(a: MPO, b: MPO) -> float:
    """||a - b||_F / ||a||_F from one QR sweep of ``a - b``, NaN once a
    number is not finite.

    ``a - b`` holds a's bonds first, and Householder QR factors its columns
    in order, so the first columns of every R factor are those of a's own
    sweep: the one sweep gives both norms.  When ||a||_F is 0 the result is
    0 if b is 0 too, else infinite.
    """
    diff = a - b
    swept = _sweep(diff)
    if swept is None:
        return math.nan
    r, _ = swept
    num = float(np.linalg.norm(r @ diff.right))
    den = float(np.linalg.norm(r[:, :a.tensors.shape[1]] @ a.right))
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.nan
    return num / den if den else (0.0 if num == 0 else math.inf)


def witness_entry(a: MPO, b: MPO) -> dict:
    """One entry where a and b differ: the 0-based (row, col) and both values
    as [real, imag], contracted from ``a`` and ``b``; empty once a number of
    the sweep is not finite.

    The entry is read from the left-canonical form of ``a - b``, last site
    first: at each site the (row digit, column digit) pair whose slice holds
    the most of the remaining Frobenius weight, the first such pair on a
    tie.  Every step keeps at least 1/d**2 of that weight, so the entry is
    nonzero whenever ``a - b`` is, and it is the same for the same input.
    """
    diff = a - b
    swept = _sweep(diff, keep_q=True)
    if swept is None:
        return {}
    r, qs = swept
    d = a.tensors.shape[2]
    u, digits = r @ diff.right, []
    for q in reversed(qs):
        w = (q @ u).reshape(-1, d * d)
        sigma = int(np.argmax((w.real ** 2 + w.imag ** 2).sum(axis=0)))
        digits.append(sigma)
        u = w[:, sigma]
    rows, cols = zip(*(divmod(sigma, d) for sigma in reversed(digits)))
    va, vb = a.entry(rows, cols), b.entry(rows, cols)
    row = col = 0
    for rd, cd in zip(rows, cols):
        row, col = row * d + rd, col * d + cd
    return {"row": row, "col": col, "lhs": [va.real, va.imag], "rhs": [vb.real, vb.imag]}
