"""Exact contraction of boundary-decorated PEPS over a symbolic physical space.

A tensor assigns amplitudes to (physical symbol, left, top, right, bottom)
bond tuples; contracting an n x m patch sums over all internal bond
assignments (internal bonds match right-of-left to left-of-right and
top-of-lower to bottom-of-upper) and closes the open perimeter with
boundary matrices traced against a corner matrix.  The perimeter is walked
left column bottom to top, top row left to right, right column top to
bottom, bottom row right to left.

Both :func:`contract` and :func:`solve_boundary` enumerate patches with one
row-transfer sweep (:func:`_sweep`), and the sweep runs one transfer step
(:func:`_chains`) twice: a row of width m is a chain of site tiles joined
left to right where one site's right bond meets the next one's left, and a
patch is a chain of row tiles joined bottom to top where one row's tops meet
the next one's bottoms.  Each join sums out the bonds it covers, so rows are
built once with their internal horizontal bonds summed out, and each
internal vertical bond is summed out as soon as the next row covers it.
What survives of an n x m patch is its grid word and its perimeter bond
pattern, the four bond tuples (lefts, tops, rights, bottoms) the chains
already carry, so each (word, pattern) pair is enumerated once, however
many bond assignments lead to it.  Only the consumers turn a pattern into
walk order: :func:`contract` for its trace cycle, :func:`solve_boundary`
for its rows.  A list of sizes, as :func:`check_peps_vs_boxplus` and
:func:`solve_boundary` take it, is swept once per width, over every height
asked at that width; :func:`contract` is the one-size case of that step.

A :class:`BoundarySpec` is the one reader of the boundary format.  It
drops a None bond entry, so a missing key is the one spelling of a bond a
side annihilates, and it converts each matrix once, when it is built, into
the arrays and trace factors the sweep, the trace and JSON read.  A chi = 1
boundary, such as d4's, has 1 x 1 matrices, and :func:`contract`
traces its perimeter as the product of their entries: Python complex
products from 1, in the order the matrix products take.  A 1 x 1 matrix
product is that same complex product, so the trace keeps the matrix path's
bits; ``tests/test_peps.py`` checks this bit for bit against numpy's ``@``
on weights whose products are exact, which holds whatever the BLAS, and to
1e-15 on random weights, where a BLAS that fuses multiply-adds may round
differently.  Wider boundaries keep numpy's matrix products, whose sums a
Python 2 x 2 product would round differently.

Output is a formal sum over symbol grids, directly comparable with the
grown coalgebra elements: its words hold the tensor's own symbols, which
compare as their ids, so :func:`check_peps_vs_boxplus` and
:func:`solve_boundary` first check that the symbols they compare against
name each id as the tensor's alphabet does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
import json
from math import prod

import numpy as np

from .coalgebra import CheckReport, ConfigurationError, _compared, _json_numbers, boxplus
from .grids import EQ_TOL, Alphabet, FormalSum, GridShape, _from_cells
from .linops import ResourceLimitError

# budget on the states of one sweep step (partial rows or partial patches),
# from measured work on a 2-core Intel Xeon machine: a dense bond-dimension-3
# tensor over three symbols passes it in 0.23 s (1x3 rows, 3x1 patches) to
# 0.48 s (2x2 patches), min of 3, at about 95 MiB peak resident memory, while
# the shipped d4 tensor needs 570 states at 6 x 6 and 15350 at 10 x 10, where
# a whole contract takes 0.16 s (min of 5)
SWEEP_STATE_CAP = 100_000


@dataclass
class PepsTensor:
    alphabet: Alphabet
    bond_dim: int
    components: dict  # (phys name, l, t, r, b) -> complex

    def __post_init__(self):
        for key in self.components:
            phys, l, t, r, b = key
            if phys not in self.alphabet:
                raise ConfigurationError(f"unknown physical symbol {phys!r}")
            if not all(0 <= x < self.bond_dim for x in (l, t, r, b)):
                raise ConfigurationError(f"bond index out of range in {key}")


@dataclass
class BoundarySpec:
    """Per-side boundary matrices and the closing corner matrix.

    ``sides[s][bond]`` is a chi x chi array for s in 'l', 't', 'r', 'b'; a
    bond without a key is one the side annihilates, and a None entry given
    for a bond is dropped, so a missing key is the one way to spell it.
    Trivial boundaries use chi = 1.  Unset sides (None) leave the boundary
    incomplete.  A matrix that is not chi x chi raises
    :class:`ConfigurationError` naming its side and bond, or the corner; an
    unset one (None) is not checked.

    The spec reads the caller's matrices once, into complex arrays held in
    its own dicts, and prepares the trace factors :func:`contract` reads:
    complex numbers at chi = 1, the arrays otherwise.  A spec is not changed
    after construction.
    """

    chi: int = 1
    sides: dict = field(default_factory=dict)
    corner: object = None  # chi x chi array, or None while unsolved

    def __post_init__(self):
        want = (self.chi, self.chi)

        def read(mat, where):
            if np.shape(mat) != want:
                raise ConfigurationError(f"boundary {where}: a {np.shape(mat)} matrix, "
                                         f"not chi x chi = {want}")
            return np.array(mat, dtype=complex)

        self.sides = {s: None if table is None else
                      {bond: read(mat, f"side {s!r} bond {bond}")
                       for bond, mat in table.items() if mat is not None}
                      for s, table in self.sides.items()}
        self.corner = None if self.corner is None else read(self.corner, "corner")
        factor = np.ndarray.item if self.chi == 1 else np.asarray
        self._factors = {s: {bond: factor(mat) for bond, mat in table.items()}
                         for s, table in self.sides.items() if table is not None}
        self._corner_factor = None if self.corner is None else factor(self.corner)

    def complete(self) -> bool:
        return self.corner is not None and all(
            self.sides.get(s) is not None for s in "ltrb"
        )

    def to_json(self) -> str:
        def enc(arr):
            return [[[float(x.real), float(x.imag)] for x in row] for row in arr]

        obj = {"chi": self.chi, "corner": None if self.corner is None else enc(self.corner),
               "sides": {s: {str(k): enc(v) for k, v in table.items()}
                         for s, table in self.sides.items() if table is not None}}
        return json.dumps(_json_numbers(obj), sort_keys=True, allow_nan=False)


@dataclass
class PepsInstance:
    tensor: PepsTensor
    boundary: BoundarySpec


def _chains(tiles, ok_in, ok_out, lengths, what):
    """Chains of ``tiles``, each tile joined where its in bonds equal the
    out bonds of the chain so far.

    A chain is ``(pieces, in bonds, sides a, sides b, out bonds)`` and a tile
    a chain of one piece, both given as ``(chain, amplitude)`` pairs.  A join
    concatenates the pieces and both sides, keeps the chain's in bonds, takes
    the tile's out bonds and multiplies the amplitudes.  Chains that agree on
    all five are one, their amplitudes summed, in the order of their first
    join.  Only tiles whose in bonds pass ``ok_in`` start a chain.  For each
    length in ``lengths``, in increasing order, yields ``(length, items)``:
    the ``(chain, amplitude)`` pairs whose out bonds pass ``ok_out``.  A set
    of bonds passes a bond tuple whose every bond it holds; None passes
    every tuple.  A step holding more than :data:`SWEEP_STATE_CAP` chains
    raises :class:`ResourceLimitError` naming ``what``, formatted with the
    length.
    """
    joins, chains = {}, {}
    for tile, amp in tiles:
        i = tile[1]
        joins.setdefault(i, []).append((tile, amp))
        if ok_in is None or ok_in.issuperset(i):
            chains[tile] = amp
    for k in range(1, max(lengths, default=0) + 1):
        if k > 1:
            nxt = {}
            for (pieces, i, sa, sb, o), amp in chains.items():
                for (piece, _, a, b, out), tamp in joins.get(o, ()):
                    key = (pieces + piece, i, sa + a, sb + b, out)
                    old = nxt.get(key)
                    if old is None:
                        if len(nxt) >= SWEEP_STATE_CAP:
                            raise ResourceLimitError(f"{what.format(k)} pass the "
                                                     f"{SWEEP_STATE_CAP}-state sweep budget")
                        nxt[key] = amp * tamp
                    else:
                        nxt[key] = old + amp * tamp
            chains = nxt
        if k in lengths:
            yield k, (chains.items() if ok_out is None else
                      [item for item in chains.items() if ok_out.issuperset(item[0][4])])


def _sweep(tensor: PepsTensor, boundary: BoundarySpec, m: int, heights):
    """Bond-consistent m-wide patches, swept one row at a time.

    Yields ``(n, {grid word: {perimeter pattern: amplitude}})`` for each n in
    ``heights``, in increasing order.  A pattern is the bond tuples
    ``(lefts, tops, rights, bottoms)``: lefts and rights bottom to top, tops
    and bottoms left to right; the amplitude sums the component products
    over every internal bond assignment.  Both stages are :func:`_chains`:
    a row is a chain of site tiles joined left to right, a patch a chain of
    row tiles joined bottom to top.  A side whose table is set prunes the
    bonds it annihilates, the left and bottom at a chain's start, the right
    and top at its end; an unset side (None) prunes nothing.  Words and
    patterns appear in the order of their first assignment in row-major
    site order, components in the tensor's insertion order.  A step holding
    more than :data:`SWEEP_STATE_CAP` states raises
    :class:`ResourceLimitError`.  The states hold symbol names, a patch's
    rows as ids of distinct row words; a yielded word's cells are the
    symbols of the tensor's alphabet.
    """
    shapes = {n: GridShape(n, m) for n in heights}
    ok_l, ok_t, ok_r, ok_b = (None if boundary.sides.get(s) is None else set(boundary.sides[s])
                              for s in "ltrb")
    # a site tile: (phys,), its left, bottom, top and right bond
    sites = [(((phys,), (l,), (b,), (t,), (r,)), val)
             for (phys, l, t, r, b), val in tensor.components.items()]
    ((_, rows),) = _chains(sites, ok_l, ok_r, [m], f"partial rows of width {m}")
    # a row tile: an id that stands for the row's cells, its bottoms, left,
    # right and tops, so a patch step extends the chain's pieces by one id
    row_ids = {}
    tiles = [((row_ids.setdefault(cells, (len(row_ids),)), bs, l, r, ts), amp)
             for (cells, l, bs, ts, r), amp in rows]
    row_syms = [tensor.alphabet.words(cells) for cells in row_ids]
    for n, patches in _chains(tiles, ok_b, ok_t, shapes, f"{{}}-row patches of width {m}"):
        table, words = {}, {}
        for (ids, bs, ls, rs, ts), amp in patches:
            patterns = words.get(ids)
            if patterns is None:
                cells = tuple(chain.from_iterable(map(row_syms.__getitem__, ids)))
                patterns = words[ids] = table[_from_cells(shapes[n], cells)] = {}
            patterns[(ls, ts, rs, bs)] = amp
        yield n, table


def _tables(tensor: PepsTensor, boundary: BoundarySpec, sizes) -> list:
    """The :func:`_sweep` table of each size in ``sizes``, in list order and
    with its repeats, from one sweep per width over every height asked at
    that width."""
    swept = {(n, m): table for m in dict.fromkeys(m for _, m in sizes)
             for n, table in _sweep(tensor, boundary, m, {h for h, w in sizes if w == m})}
    return [swept[size] for size in sizes]


def _contracted(inst: PepsInstance, sizes, rotate: int = 0) -> list:
    """:func:`contract` of each size in ``sizes``, in list order and with
    its repeats, from the tables of :func:`_tables`."""
    boundary = inst.boundary
    if not boundary.complete():
        raise ConfigurationError("boundary specification is incomplete")
    # every side is set, so the sweep left no annihilated bond
    left, top, right, bottom = (boundary._factors[s] for s in "ltrb")
    corner, scalar = boundary._corner_factor, boundary.chi == 1
    sums = []
    for (n, m), table in zip(sizes, _tables(inst.tensor, boundary, sizes)):
        k = rotate % (2 * (n + m) + 1)
        traces, terms = {}, []
        for word, patterns in table.items():
            for pattern, amp in patterns.items():
                tr = traces.get(pattern)
                if tr is None:
                    ls, ts, rs, bs = pattern
                    cycle = ([left[b] for b in ls] + [top[b] for b in ts]
                             + [right[b] for b in rs[::-1]] + [bottom[b] for b in bs[::-1]]
                             + [corner])
                    if scalar:
                        tr = prod(cycle[k:] + cycle[:k], start=1 + 0j)
                    else:
                        acc = np.eye(boundary.chi, dtype=complex)
                        for mat in cycle[k:] + cycle[:k]:
                            acc = acc @ mat
                        tr = complex(np.trace(acc))
                    traces[pattern] = tr
                terms.append((word, tr * amp))
        sums.append(FormalSum(GridShape(n, m), terms))
    return sums


def contract(inst: PepsInstance, n: int, m: int, rotate: int = 0) -> FormalSum:
    """Exact contraction of an n x m patch into a symbolic formal sum.

    Each distinct perimeter pattern is traced once, its cycle walking the
    lefts, the tops, the rights reversed, the bottoms reversed, then the
    corner, as ``np.eye(chi)`` times the cycle's matrices, left to right,
    then the trace.  At chi = 1 the matrices are single complex numbers and
    the trace is their product from ``1 + 0j``, in the same order: a 1 x 1
    matrix product computes the same complex product, without numpy's
    per-call setup, which dominated a small patch's contraction.  The
    factors are the ones the boundary prepared when it was built.  A
    non-finite weight makes the product non-finite, and with it every word
    total it enters.  The contributions of a word are summed before
    :class:`grids.FormalSum` drops a total of magnitude at most
    :data:`grids.CANON_TOL` or raises :class:`grids.NonFiniteError` on a
    non-finite one.  ``rotate`` shifts the starting point of the closed
    perimeter cycle; by cyclicity of the trace the result must not depend
    on it.  An incomplete boundary raises :class:`ConfigurationError`
    before anything is swept.
    """
    (out,) = _contracted(inst, [(n, m)], rotate)
    return out


# ---------------------------------------------------------------------------
# the two shipped tensors


def _pivot_alphabet():
    return Alphabet(["a", "b", "v"])


# The published component list admits spurious grids from 2 x 2 up: two
# marks can chain along a diagonal because the interior after-region entry
# carries the same vertical bond (3) as the mark's upward wake, so a second
# mark's wake is absorbed one row below.  Giving that entry its own
# vertical bond value restores injectivity; exactness of the contraction
# against the grown elements is then exhaustive-checked for all patches up
# to 6 x 6 (test_d4_exact_to_6x6 in tests/test_peps.py).
# D4_PUBLISHED_COMPONENTS keeps the verbatim list.
D4_PUBLISHED_COMPONENTS = {
    ("b", 1, 2, 1, 2): 1.0,
    ("b", 1, 3, 3, 3): 1.0,
    ("b", 3, 3, 3, 3): 1.0,
    ("a", 0, 2, 0, 0): 1.0,
    ("v", 0, 3, 3, 0): 1.0,
    ("b", 3, 3, 3, 1): 1.0,
    ("a", 0, 0, 0, 0): 1.0,
    ("a", 0, 0, 2, 0): 1.0,
    ("a", 2, 1, 2, 1): 1.0,
}

D4_COMPONENTS = {
    (("b", 3, 1, 3, 1) if k == ("b", 3, 3, 3, 3) else k): v
    for k, v in D4_PUBLISHED_COMPONENTS.items()
}

D2_COMPONENTS = {
    ("v", 0, 1, 1, 0): 1.0,
    ("b", 1, 1, 1, 0): 1.0,
    ("b", 1, 1, 1, 1): 1.0,
    ("a", 0, 0, 0, 0): 1.0,
    ("a", 0, 1, 0, 0): 1.0,
}


def d4_instance() -> PepsInstance:
    """Bond-dimension-4 tensor with a trivial product boundary."""
    one = np.eye(1, dtype=complex)
    boundary = BoundarySpec(
        chi=1,
        sides={
            "l": {0: one, 1: one},
            "b": {0: one, 1: one},
            "t": {2: one, 3: one},
            "r": {2: one, 3: one},
        },
        corner=one,
    )
    return PepsInstance(PepsTensor(_pivot_alphabet(), 4, dict(D4_COMPONENTS)), boundary)


def d2_instance() -> PepsInstance:
    """Bond-dimension-2 tensor; left/right boundary and corner left unsolved.

    The top boundary selects bond 1, the bottom bond 0; the remaining
    pieces are the free slots :func:`solve_boundary` fills (or refutes).
    """
    eye = np.eye(2, dtype=complex)
    boundary = BoundarySpec(
        chi=2,
        sides={"t": {1: eye}, "b": {0: eye}, "l": None, "r": None},
        corner=None,
    )
    return PepsInstance(PepsTensor(_pivot_alphabet(), 2, dict(D2_COMPONENTS)), boundary)


def component_order(tensor: PepsTensor):
    """Canonical component listing: the mark component first, rest sorted."""
    return sorted(tensor.components, key=lambda k: (k[0] != "v", k))


def mutate_drop(inst: PepsInstance, index: int) -> PepsInstance:
    """Copy of the instance with one tensor component removed.

    Indices follow :func:`component_order`, so index 0 drops the mark.
    """
    keys = component_order(inst.tensor)
    if not 0 <= index < len(keys):
        raise ConfigurationError(f"component index {index} out of range")
    comps = dict(inst.tensor.components)
    del comps[keys[index]]
    tensor = PepsTensor(inst.tensor.alphabet, inst.tensor.bond_dim, comps)
    return PepsInstance(tensor, inst.boundary)


# ---------------------------------------------------------------------------
# boundary completion for the bond-dimension-2 tensor


@dataclass
class BoundarySolveResult:
    feasible: bool
    boundary: BoundarySpec | None
    sizes: list
    residual: float
    solution_space_dim: int | None
    certificate: dict | None
    parameters: dict | None

    @property
    def ok(self):
        # either outcome is a valid deliverable; ok means internally consistent
        return self.feasible or self.certificate is not None

    def to_json(self) -> str:
        obj = {
            "feasible": self.feasible,
            "sizes": [list(s) for s in self.sizes],
            "residual": self.residual,
            "solution_space_dim": self.solution_space_dim,
            "certificate": self.certificate,
            "parameters": self.parameters,
            "boundary": json.loads(self.boundary.to_json()) if self.boundary else None,
        }
        return json.dumps(_json_numbers(obj), sort_keys=True, allow_nan=False)


def solve_boundary(inst: PepsInstance, targets: dict, sizes) -> BoundarySolveResult:
    """Solve for the free left/right boundary of a partially specified
    instance against the target formal sums of ``sizes``, or certify the
    attempt hopeless.

    Ansatz: a chi = 2 boundary in which unexcited bonds pass through and
    each bond value contributes one nilpotent excitation, closed by a
    lowering corner matrix, so exactly one excited bond survives the
    perimeter trace.  The trace is then linear in the excitation
    amplitudes (beta per left bond, delta per right bond) and matching all
    grid coefficients is a linear least-squares problem.

    If the pattern-multiplicity table itself is inconsistent (two grids
    whose constraint rows are proportional but whose targets are not), no
    boundary of any kind can reproduce the targets; the returned
    certificate records such a pair.  A target symbol whose id the
    tensor's alphabet names differently raises :class:`ConfigurationError`.
    """
    tensor, boundary = inst.tensor, inst.boundary
    nb = tensor.bond_dim
    # unknowns: beta[bond] for left edges, then delta[bond] for right edges
    tensor.alphabet.require_names({c for target in targets.values()
                                   for w, _ in target.unordered_items() for c in w.cells},
                                  "the targets", "the tensor's alphabet", ConfigurationError)
    tables = list(zip(sizes, _tables(tensor, boundary, sizes)))
    rows, rhs = [], []
    for size, table in tables:
        target = targets[size]
        words = set(table) | set(target._terms)
        for word in sorted(words, key=lambda w: w._key()):
            row = [0j] * (2 * nb)
            for (ls, _, rs, _), amp in table.get(word, {}).items():
                for bond in ls:
                    row[bond] += amp
                for bond in rs[::-1]:
                    row[nb + bond] += amp
            rows.append(row)
            rhs.append(target.coeff(word))
    a = np.array(rows, dtype=complex)
    b = np.array(rhs)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.abs(a @ sol - b).max()) if len(b) else 0.0
    if residual <= EQ_TOL:
        rank = np.linalg.matrix_rank(a, tol=1e-10)
        eye = np.eye(2, dtype=complex)
        sig_plus = np.array([[0, 1], [0, 0]], dtype=complex)
        sides = dict(boundary.sides)
        sides["l"] = {bnd: eye + sol[bnd] * sig_plus for bnd in range(nb)}
        sides["r"] = {bnd: eye + sol[nb + bnd] * sig_plus for bnd in range(nb)}
        completed = BoundarySpec(2, sides, np.array([[0, 0], [1, 0]], dtype=complex))
        params = {
            "beta": [complex(c) for c in sol[:nb]],
            "delta": [complex(c) for c in sol[nb:]],
        }
        return BoundarySolveResult(
            True, completed, list(sizes), residual,
            int(2 * nb - rank), None,
            {k: [[c.real, c.imag] for c in v] for k, v in params.items()},
        )
    certificate = _infeasibility_certificate(tables, targets)
    return BoundarySolveResult(
        False, None, list(sizes), residual, None, certificate, None
    )


def _infeasibility_certificate(tables, targets):
    """Two grids with proportional pattern-multiplicity rows but targets
    violating the same proportion: no perimeter weighting can match both."""
    for size, table in tables:
        target = targets[size]
        grids = sorted(table, key=lambda w: w._key())
        for i, g1 in enumerate(grids):
            for g2 in grids[i + 1:]:
                p1, p2 = table[g1], table[g2]
                if set(p1) != set(p2):
                    continue
                ratios = {complex(p2[k] / p1[k]) for k in p1 if abs(p1[k]) > 1e-14}
                if len(ratios) != 1:
                    continue
                lam = ratios.pop()
                t1, t2 = target.coeff(g1), target.coeff(g2)
                if abs(t2 - lam * t1) > EQ_TOL:
                    return {
                        "size": list(size),
                        "grid_1": repr(g1),
                        "grid_2": repr(g2),
                        "multiplicity_ratio": [lam.real, lam.imag],
                        "target_1": [t1.real, t1.imag],
                        "target_2": [t2.real, t2.imag],
                        "shared_patterns": len(p1),
                    }
    return None


def check_peps_vs_boxplus(inst, example, v, sizes, tol=EQ_TOL) -> CheckReport:
    """Contracted patches match the grown coalgebra elements, term by term.

    An example whose alphabet names an id of the tensor's alphabet
    differently raises :class:`ConfigurationError`."""
    inst.tensor.alphabet.require_names(example.alphabet, "the example's alphabet",
                                       "the tensor's alphabet", ConfigurationError)
    instances = [_compared(f"{n}x{m}", got, boxplus(example, v, n, m), tol)
                 for (n, m), got in zip(sizes, _contracted(inst, sizes))]
    return CheckReport("peps_vs_boxplus", list(sizes), instances)
