import cmath
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopf2d.coalgebra import ConfigurationError, boxplus
from hopf2d.grids import Alphabet, FormalSum, GridShape, GridWord, NonFiniteError, sum_difference
from hopf2d.instances import PivotConfig, make_pivot
from hopf2d.linops import ResourceLimitError
from hopf2d import cli, grids, peps

PIVOT = make_pivot(theta=0.0)
ALL_SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]


def test_d4_published_pins():
    # the verbatim published table: nine entries, the mark component present
    assert len(peps.D4_PUBLISHED_COMPONENTS) == 9
    assert ("v", 0, 3, 3, 0) in peps.D4_PUBLISHED_COMPONENTS
    # the shipped tensor keeps both pins and the boundary selectors
    inst = peps.d4_instance()
    assert len(inst.tensor.components) == 9
    assert ("v", 0, 3, 3, 0) in inst.tensor.components
    assert set(inst.boundary.sides["l"]) == {0, 1}
    assert set(inst.boundary.sides["b"]) == {0, 1}
    assert set(inst.boundary.sides["t"]) == {2, 3}
    assert set(inst.boundary.sides["r"]) == {2, 3}


def test_d4_small_patches():
    inst = peps.d4_instance()
    got = peps.contract(inst, 1, 1)
    assert len(got) == 1 and list(got)[0].cells[0].name == "v"
    got = peps.contract(inst, 1, 2)
    expect = boxplus(PIVOT, "v", 1, 2)
    assert sum_difference(got, expect) <= 1e-12
    got = peps.contract(inst, 2, 1)
    assert sum_difference(got, boxplus(PIVOT, "v", 2, 1)) <= 1e-12


def test_d4_reproduces_grown_elements_everywhere():
    inst = peps.d4_instance()
    report = peps.check_peps_vs_boxplus(inst, PIVOT, "v", ALL_SIZES, tol=1e-12)
    assert report.ok
    for (n, m) in ALL_SIZES:
        got = peps.contract(inst, n, m)
        assert len(got) == n * m
        assert all(abs(c - 1.0) < 1e-12 for _, c in got.items())


def test_published_interior_entry_leaks_double_marks():
    # regression record: the verbatim published table admits a spurious
    # two-mark grid at 2 x 2 (the reason the shipped tensor recolors one
    # vertical bond)
    tensor = peps.PepsTensor(peps._pivot_alphabet(), 4, dict(peps.D4_PUBLISHED_COMPONENTS))
    inst = peps.PepsInstance(tensor, peps.d4_instance().boundary)
    got = peps.contract(inst, 2, 2)
    spurious = GridWord.from_rows_top_down(tensor.alphabet, [["v", "b"], ["a", "v"]])
    assert got.coeff(spurious) == 1.0
    assert sum_difference(got, boxplus(PIVOT, "v", 2, 2)) > 1e-10


@pytest.fixture
def sweeps(monkeypatch):
    """The (width, heights) of every :func:`peps._sweep` call, in call order."""
    real, calls = peps._sweep, []

    def counted(tensor, boundary, m, heights):
        calls.append((m, sorted(heights)))
        return real(tensor, boundary, m, heights)

    monkeypatch.setattr(peps, "_sweep", counted)
    return calls


def test_d4_exact_to_6x6(sweeps):
    sizes = [(n, m) for n in range(1, 7) for m in range(1, 7)]
    report = peps.check_peps_vs_boxplus(peps.d4_instance(), PIVOT, "v", sizes, tol=1e-12)
    assert report.ok and len(report.instances) == 36
    # one sweep per width, over every height
    assert sweeps == [(m, list(range(1, 7))) for m in range(1, 7)]


def test_a_size_list_is_swept_once_per_width(sweeps, tmp_path):
    assert cli.main(["peps", "--rep", "d4", "--sizes", "1x1,1x2,2x2,3x3",
                     "--out", str(tmp_path / "r")]) == 0
    assert sweeps == [(1, [1]), (2, [1, 2]), (3, [3])]
    # a repeated size is one more instance, not one more sweep
    sweeps.clear()
    sizes = [(2, 2), (1, 1), (2, 2), (1, 2)]
    report = peps.check_peps_vs_boxplus(peps.d4_instance(), PIVOT, "v", sizes)
    assert report.ok and [i.input for i in report.instances] == ["2x2", "1x1", "2x2", "1x2"]
    assert report.sizes == sizes
    assert sweeps == [(2, [1, 2]), (1, [1])]


def _dense_d3():
    """All 243 components of a bond-dimension-3 tensor over three symbols."""
    comps = {(p, l, t, r, b): 1.0 + 0.1j * (l - r)
             for p in "abv" for l, t, r, b in itertools.product(range(3), repeat=4)}
    tensor = peps.PepsTensor(peps._pivot_alphabet(), 3, comps)
    one = np.eye(1, dtype=complex)
    return peps.PepsInstance(
        tensor, peps.BoundarySpec(1, {s: {k: one for k in range(3)} for s in "ltrb"}, one))


def test_contract_caps():
    # a 1x3 row of the dense tensor has 3**11 bond-consistent states, past
    # the sweep budget, and so has a 3x1 column; each message names the
    # stage that overflowed.  The d4 tensor at the same sizes has a handful
    inst = _dense_d3()
    rows = "partial rows of width 3 pass the 100000-state sweep budget"
    with pytest.raises(ResourceLimitError, match=rows):
        peps.contract(inst, 1, 3)
    open_sides = peps.BoundarySpec(1, dict(inst.boundary.sides, l=None, r=None))
    target = FormalSum(GridShape(1, 3))
    with pytest.raises(ResourceLimitError, match=rows):
        peps.solve_boundary(peps.PepsInstance(inst.tensor, open_sides), {(1, 3): target}, [(1, 3)])
    with pytest.raises(ResourceLimitError,
                       match="3-row patches of width 1 pass the 100000-state sweep budget"):
        peps.contract(inst, 3, 1)
    assert len(peps.contract(peps.d4_instance(), 1, 3)) == 3
    assert len(peps.contract(peps.d4_instance(), 3, 1)) == 3


def test_non_finite_numbers_raise():
    inst = peps.d4_instance()
    comps = dict(inst.tensor.components)
    comps[("a", 0, 0, 0, 0)] = float("nan")
    nan_inst = peps.PepsInstance(peps.PepsTensor(inst.tensor.alphabet, 4, comps), inst.boundary)
    with pytest.raises(NonFiniteError):
        peps.contract(nan_inst, 2, 2)
    inf_corner = peps.BoundarySpec(1, inst.boundary.sides, np.array([[float("inf")]]))
    with pytest.raises(NonFiniteError), np.errstate(invalid="ignore"):
        peps.contract(peps.PepsInstance(inst.tensor, inf_corner), 1, 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
@pytest.mark.parametrize("side", ["l", "t", "r", "b", "corner"])
def test_non_finite_boundary_weights_raise(side, bad):
    # each chi = 1 weight of d4's boundary in turn, and its corner
    inst = peps.d4_instance()
    bonds = [None] if side == "corner" else list(inst.boundary.sides[side])
    for bond in bonds:
        sides = {s: dict(table) for s, table in inst.boundary.sides.items()}
        corner = inst.boundary.corner
        if bond is None:
            corner = np.array([[bad]])
        else:
            sides[side][bond] = np.array([[bad]])
        spoilt = peps.PepsInstance(inst.tensor, peps.BoundarySpec(1, sides, corner))
        with pytest.raises(NonFiniteError, match=r"of \[.+\] is not finite"):
            peps.contract(spoilt, 2, 2)


@pytest.mark.parametrize("mark,kept", [(grids.CANON_TOL, []),
                                        (1.0000001e-14, [["a", "v"], ["v", "b"]])])
def test_contract_drops_contributions_up_to_the_canonical_tolerance(mark, kept):
    # at 1 x 2 each word's coefficient is the mark component itself
    inst = peps.d4_instance()
    comps = dict(inst.tensor.components)
    comps[("v", 0, 3, 3, 0)] = mark
    scaled = peps.PepsInstance(peps.PepsTensor(inst.tensor.alphabet, 4, comps), inst.boundary)
    got = peps.contract(scaled, 1, 2)
    assert [[c.name for c in word.cells] for word, _ in got.items()] == kept
    assert all(c == mark for _, c in got.items())


@pytest.mark.parametrize("amp,want", [(grids.CANON_TOL / 2, 0.0),
                                      (grids.CANON_TOL, 2 * grids.CANON_TOL),
                                      (1.0000001e-14, 2.0000002e-14)])
def test_contract_filters_each_word_total(amp, want):
    # two bond assignments give the 1 x 1 word 'a'; only their sum meets
    # the canonical filter, so two at CANON_TOL give 2e-14, not nothing
    one = np.eye(1, dtype=complex)
    tensor = peps.PepsTensor(Alphabet(["a"]), 2, {("a", 0, 0, 0, 0): amp, ("a", 1, 1, 1, 1): amp})
    boundary = peps.BoundarySpec(1, {s: {0: one, 1: one} for s in "ltrb"}, one)
    got = peps.contract(peps.PepsInstance(tensor, boundary), 1, 1)
    assert [c for _, c in got.items()] == ([want] if want else [])


def test_corner_linearity():
    # scaling the corner scales the whole sum: the trace is linear in it
    inst = peps.d4_instance()
    scaled = peps.PepsInstance(
        inst.tensor,
        peps.BoundarySpec(1, inst.boundary.sides, np.array([[2.5 - 1j]])),
    )
    a = peps.contract(inst, 2, 2)
    b = peps.contract(scaled, 2, 2)
    assert sum_difference(b, a * (2.5 - 1j)) <= 1e-12


def test_outputs_distinguish_targets():
    # selector sets aimed at the three physical letters give distinct outputs
    inst = peps.d4_instance()
    one = np.eye(1, dtype=complex)
    a_selectors = peps.BoundarySpec(1, {
        "l": {0: one}, "b": {0: one}, "t": {0: one, 1: one, 2: one}, "r": {0: one, 2: one},
    }, one)
    a_inst = peps.PepsInstance(inst.tensor, a_selectors)
    out_a = peps.contract(a_inst, 1, 1)
    out_v = peps.contract(inst, 1, 1)
    assert sum_difference(out_a, out_v) > 1e-10
    assert {t.cells[0].name for t in out_a} == {"a"}


def test_mutation_indexing_and_detection():
    inst = peps.d4_instance()
    order = peps.component_order(inst.tensor)
    assert order[0][0] == "v"
    mutated = peps.mutate_drop(inst, 0)
    report = peps.check_peps_vs_boxplus(mutated, PIVOT, "v", [(1, 1), (1, 2)])
    assert not report.ok  # detected at a size <= 1x2
    # a failing instance names its worst word with both coefficients
    worst = report.instances[1].details["worst_word"]
    want = boxplus(PIVOT, "v", 1, 2)
    assert worst["word"] in {repr(w) for w in want}
    assert worst["got"] == [0.0, 0.0] and worst["want"] == [1.0, 0.0]
    passing = peps.check_peps_vs_boxplus(inst, PIVOT, "v", [(1, 2)])
    assert passing.ok and passing.instances[0].details == {}
    for k in range(9):
        mutated = peps.mutate_drop(inst, k)
        report = peps.check_peps_vs_boxplus(mutated, PIVOT, "v", ALL_SIZES)
        assert not report.ok, k
    with pytest.raises(ConfigurationError):
        peps.mutate_drop(inst, 9)


def test_tensor_and_boundary_json_spell_non_finite_numbers():
    spec = peps.BoundarySpec(1, {"l": {0: np.array([[float("inf")]])}, "t": None},
                             np.array([[complex(float("nan"), float("-inf"))]]))
    text = spec.to_json()
    assert "NaN" not in text and "Infinity" not in text
    obj = json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c} in JSON"))
    assert obj == {"chi": 1, "sides": {"l": {"0": [[["inf", 0.0]]]}},
                   "corner": [[["nan", "-inf"]]]}


@pytest.mark.parametrize("chi, dim", [(1, 2), (3, 1)])
def test_boundary_matrices_that_are_not_chi_by_chi_are_config_errors(chi, dim):
    # d4's bonds with chi = 1 and 2 x 2 matrices, or chi = 3 and 1 x 1 ones,
    # fail when the spec is built, naming the side and bond or the corner
    sides = peps.d4_instance().boundary.sides
    good, bad = np.eye(chi, dtype=complex), np.eye(dim, dtype=complex)

    def spec(bad_at=None, corner=good):
        tables = {s: {b: (bad if (s, b) == bad_at else good) for b in t}
                  for s, t in sides.items()}
        return peps.BoundarySpec(chi, tables, corner)

    with pytest.raises(ConfigurationError, match=r"side 'l' bond 0: a \(%d, %d\)" % (dim, dim)):
        peps.BoundarySpec(chi, {s: {b: bad for b in t} for s, t in sides.items()}, bad)
    for s, table in sides.items():
        for bond in table:
            with pytest.raises(ConfigurationError, match=rf"side '{s}' bond {bond}:"):
                spec(bad_at=(s, bond))
    with pytest.raises(ConfigurationError, match="corner"):
        spec(corner=bad)
    inst = peps.PepsInstance(peps.d4_instance().tensor, spec())
    assert len(peps.contract(inst, 2, 2)) > 0
    # unset sides and unset matrices stay allowed
    peps.BoundarySpec(chi, {"l": None, "t": {0: None, 1: good}}, None)


def test_a_none_bond_entry_is_a_missing_key():
    # d4's boundary with an explicit None at an annihilated bond of each side
    base = peps.d4_instance()
    dropped = {"l": 2, "b": 3, "t": 0, "r": 1}
    given = {s: {**table, dropped[s]: None} for s, table in base.boundary.sides.items()}
    spec = peps.BoundarySpec(1, given, base.boundary.corner)
    assert given["l"][2] is None  # the caller's dicts are left as they are
    assert {s: set(t) for s, t in spec.sides.items()} == {
        s: set(t) for s, t in base.boundary.sides.items()}
    assert spec.to_json() == base.boundary.to_json()
    for n, m in [(1, 1), (2, 3), (3, 3)]:
        got = peps.contract(peps.PepsInstance(base.tensor, spec), n, m, rotate=n)
        assert _bits(got) == _bits(peps.contract(base, n, m, rotate=n))
    # and d2's: solved, certified and written alike
    d2 = peps.d2_instance()
    sides = dict(d2.boundary.sides, t={1: np.eye(2), 0: None})
    with_none = peps.PepsInstance(d2.tensor, peps.BoundarySpec(2, sides))
    for sizes in ([(1, 1), (1, 2), (2, 1), (1, 3)], [(1, 1), (2, 2), (3, 3)]):
        targets = {s: boxplus(PIVOT, "v", *s) for s in sizes}
        assert (peps.solve_boundary(with_none, targets, sizes).to_json()
                == peps.solve_boundary(d2, targets, sizes).to_json())


# ---------------------------------------------------------------------------
# the chi = 2 tensor and its boundary solver


def test_d2_pins_and_incompleteness():
    inst = peps.d2_instance()
    assert len(inst.tensor.components) == 5
    assert ("v", 0, 1, 1, 0) in inst.tensor.components
    assert set(inst.boundary.sides["t"]) == {1}
    assert set(inst.boundary.sides["b"]) == {0}
    with pytest.raises(ConfigurationError):
        peps.contract(inst, 1, 1)


def test_d2_solver_feasible_on_strips():
    inst = peps.d2_instance()
    sizes = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
    targets = {s: boxplus(PIVOT, "v", *s) for s in sizes}
    result = peps.solve_boundary(inst, targets, sizes)
    assert result.feasible
    assert result.residual < 1e-10
    assert result.solution_space_dim >= 1
    completed = peps.PepsInstance(inst.tensor, result.boundary)
    for s in sizes:
        assert sum_difference(peps.contract(completed, *s), targets[s]) <= 1e-10
    # trace cyclicity: rotating the perimeter start leaves the result fixed
    base = peps.contract(completed, 2, 1)
    for k in (1, 3, 5):
        assert sum_difference(peps.contract(completed, 2, 1, rotate=k), base) <= 1e-12


def test_peps_words_share_the_target_symbols():
    # the tensors have their own alphabet; their words meet the grown targets'
    # through int's C-level comparisons, which see only the ids
    assert grids.Symbol.__eq__ is int.__eq__
    assert grids.Symbol.__hash__ is int.__hash__
    assert grids.Symbol.__lt__ is int.__lt__
    sizes = [(n, m) for n in range(1, 4) for m in range(1, 4)]
    targets = {s: boxplus(PIVOT, "v", *s) for s in sizes}
    assert peps.solve_boundary(peps.d2_instance(), targets, sizes).certificate is not None
    assert peps.check_peps_vs_boxplus(peps.d4_instance(), PIVOT, "v", sizes).ok
    got = peps.contract(peps.d4_instance(), 2, 2)
    assert {c.name for w in got for c in w.cells} == {"a", "b", "v"}
    assert sum_difference(got, targets[(2, 2)]) == 0.0


@pytest.mark.parametrize("names, mark, where, named", [
    (("x", "y", "z"), "z", 0, "'x'"),
    (("a", "b", "w"), "w", 2, "'w'"),
    (("b", "a", "v"), "v", 0, "'b'"),
])
def test_an_example_naming_the_tensors_ids_otherwise_is_a_config_error(names, mark, where,
                                                                         named):
    # symbols compare as their ids, so without the name check a renamed
    # example would pass against d4 and share d2's certificate
    ex = make_pivot(PivotConfig(names, 0.0))
    tensor_name = repr(peps.d4_instance().tensor.alphabet.symbols[where].name)
    with pytest.raises(ConfigurationError, match=f"symbol id {where} is {named} in the "
                                                 f"example's alphabet but {tensor_name}"):
        peps.check_peps_vs_boxplus(peps.d4_instance(), ex, mark, [(1, 1), (2, 2), (3, 3)])
    sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
    targets = {s: boxplus(ex, mark, *s) for s in sizes}
    with pytest.raises(ConfigurationError, match=f"symbol id {where} is {named} in the "
                                                 f"targets but {tensor_name}"):
        peps.solve_boundary(peps.d2_instance(), targets, sizes)


def test_d2_solver_scaled_target_scales_corner_linearly():
    inst = peps.d2_instance()
    sizes = [(1, 1), (1, 2), (2, 1)]
    targets = {s: boxplus(PIVOT, "v", *s) * 2.0 for s in sizes}
    result = peps.solve_boundary(inst, targets, sizes)
    assert result.feasible
    completed = peps.PepsInstance(inst.tensor, result.boundary)
    for s in sizes:
        assert sum_difference(peps.contract(completed, *s), targets[s]) <= 1e-10


def test_d2_solver_certifies_infeasibility_with_plaquette():
    inst = peps.d2_instance()
    sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
    targets = {s: boxplus(PIVOT, "v", *s) for s in sizes}
    result = peps.solve_boundary(inst, targets, sizes)
    assert not result.feasible
    cert = result.certificate
    assert cert is not None and cert["size"] == [2, 2]
    lam = complex(*cert["multiplicity_ratio"])
    t1 = complex(*cert["target_1"])
    t2 = complex(*cert["target_2"])
    assert abs(t2 - lam * t1) > 1e-6
    # the report serializes
    obj = json.loads(result.to_json())
    assert obj["feasible"] is False


def test_d2_solve_pins_every_size_to_5x5():
    # the exact bits of the solve past the pinned peps-d2 report's 3 x 3:
    # every size to 5 x 5 is infeasible, the strips alone are solvable
    sizes = [(n, m) for n in range(1, 6) for m in range(1, 6)]
    targets = {s: boxplus(PIVOT, "v", *s) for s in sizes}
    result = peps.solve_boundary(peps.d2_instance(), targets, sizes)
    assert (result.feasible, result.solution_space_dim) == (False, None)
    assert float.hex(result.residual) == "0x1.f4a97034aedd9p-1"
    cert = result.certificate
    assert (cert["size"], cert["grid_1"], cert["grid_2"], cert["shared_patterns"]) == (
        [2, 2], "a v/a a", "v b/a a", 1)
    assert cert["multiplicity_ratio"] == [2.0, 0.0]
    assert cert["target_1"] == cert["target_2"] == [1.0, 0.0]
    strips = [(1, k) for k in range(1, 6)] + [(k, 1) for k in range(2, 6)]
    result = peps.solve_boundary(peps.d2_instance(), {s: targets[s] for s in strips}, strips)
    assert (result.feasible, result.solution_space_dim) == (True, 1)
    assert float.hex(result.residual) == "0x1.c000000000000p-49"
    hexed = {k: [[float.hex(x) for x in c] for c in v] for k, v in result.parameters.items()}
    assert hexed == {
        "beta": [["0x1.ffffffffffffdp-2", "0x0.0p+0"], ["-0x1.0000000000002p-1", "0x0.0p+0"]],
        "delta": [["-0x1.0000000000002p-1", "0x0.0p+0"], ["0x1.0000000000002p-1", "0x0.0p+0"]],
    }


def test_solve_result_json_spells_non_finite_numbers():
    res = peps.BoundarySolveResult(False, None, [(1, 1)], float("nan"), None, None,
                                   {"beta": [[float("inf"), 0.0]]})
    text = res.to_json()
    assert "NaN" not in text and "Infinity" not in text
    obj = json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c} in JSON"))
    assert obj["residual"] == "nan"
    assert obj["parameters"]["beta"] == [["inf", 0.0]]


# ---------------------------------------------------------------------------
# the row sweep against a brute-force oracle


ORACLE_SIZES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def _oracle_table(tensor, boundary, n, m):
    """{word: {pattern: amplitude}} from every component assignment, in the
    order of itertools.product over the sites, bottom row first."""
    site = {(i, j): i * m + j for i in range(n) for j in range(m)}
    pairs = ([(site[(i, j)], 3, site[(i, j + 1)], 1) for i in range(n) for j in range(m - 1)]
             + [(site[(i, j)], 2, site[(i + 1, j)], 4) for i in range(n - 1) for j in range(m)])
    edges = ([("l", site[(i, 0)], 1) for i in range(n)]
             + [("t", site[(n - 1, j)], 2) for j in range(m)]
             + [("r", site[(i, m - 1)], 3) for i in reversed(range(n))]
             + [("b", site[(0, j)], 4) for j in reversed(range(m))])
    out = {}
    for choice in itertools.product(list(tensor.components.items()), repeat=n * m):
        keys = [key for key, _ in choice]
        if any(keys[a][x] != keys[b][y] for a, x, b, y in pairs):
            continue
        pattern = tuple((s, keys[k][x]) for s, k, x in edges)
        if any(boundary.sides.get(s) is not None and boundary.sides[s].get(b) is None
               for s, b in pattern):
            continue
        amp = 1.0 + 0j
        for _, val in choice:
            amp *= val
        word = GridWord(GridShape(n, m), tuple(tensor.alphabet[key[0]] for key in keys))
        patterns = out.setdefault(word, {})
        patterns[pattern] = patterns.get(pattern, 0j) + amp
    return out


def _oracle_contract(tensor, boundary, n, m, table):
    terms = []
    for word, patterns in table.items():
        for pattern, amp in patterns.items():
            acc = np.eye(boundary.chi, dtype=complex)
            for s, b in pattern:
                acc = acc @ boundary.sides[s][b]
            terms.append((word, complex(np.trace(acc @ boundary.corner)) * amp))
    return FormalSum(GridShape(n, m), terms)


@st.composite
def _small_instances(draw):
    d = draw(st.integers(2, 3))
    bond = st.integers(0, d - 1)
    # one component with four equal bonds tiles every patch by itself; a
    # pair of twins that swap one internal bond for another gives two bond
    # assignments of the same word and perimeter, which the sweep must add
    same, other = draw(bond), draw(bond)
    keys = [("x", same, same, same, same)] + draw(st.sampled_from([
        [], [("x", same, same, other, same), ("x", other, same, same, same)],
        [("x", same, other, same, same), ("x", same, same, same, other)]]))
    keys += draw(st.lists(st.tuples(st.sampled_from("xy"), bond, bond, bond, bond),
                          max_size=3))
    amp = st.complex_numbers(min_magnitude=0.3, max_magnitude=2.0,
                             allow_nan=False, allow_infinity=False)
    tensor = peps.PepsTensor(Alphabet(["x", "y"]), d, {k: draw(amp) for k in keys})
    chi = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def mat():
        return rng.normal(size=(chi, chi)) + 1j * rng.normal(size=(chi, chi))

    sides = {}
    for s in "ltrb":
        kept = draw(st.one_of(st.just(set(range(d))), st.sets(bond)))
        sides[s] = {b: mat() for b in kept}
    unset = draw(st.sets(st.sampled_from("ltrb")))
    open_sides = {s: (None if s in unset else t) for s, t in sides.items()}
    return (tensor, peps.BoundarySpec(chi, open_sides),
            peps.BoundarySpec(chi, sides, mat()), draw(st.integers(0, 20)))


def _walk(pattern):
    """A sweep pattern as the oracle's perimeter walk of (side, bond) pairs."""
    ls, ts, rs, bs = pattern
    return (*(("l", b) for b in ls), *(("t", b) for b in ts),
            *(("r", b) for b in rs[::-1]), *(("b", b) for b in bs[::-1]))


def _table_bits(table):
    return [(word, [(p, a.real.hex(), a.imag.hex()) for p, a in patterns.items()])
            for word, patterns in table.items()]


def _close(a, b):
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


@pytest.mark.parametrize("n, m", ORACLE_SIZES)
@settings(max_examples=25, deadline=None)
@given(case=_small_instances())
def test_sweep_and_contract_match_brute_force(n, m, case):
    tensor, open_spec, full_spec, rotate = case
    # sweep tables at every height up to n, unset sides pruning nothing
    for h, table in peps._sweep(tensor, open_spec, m, range(1, n + 1)):
        want = _oracle_table(tensor, open_spec, h, m)
        assert list(table) == list(want)
        for word, patterns in want.items():
            walked = {_walk(p): a for p, a in table[word].items()}
            assert list(walked) == list(patterns)
            assert all(_close(walked[p], a) for p, a in patterns.items())
    # a size list, widths mixed and one size repeated, has each size's own
    # one-height sweep table, bit for bit
    sizes = [(h, w) for h in range(n, 0, -1) for w in range(1, m + 1)] + [(n, m)]
    for spec in (open_spec, full_spec):
        listed = peps._tables(tensor, spec, sizes)
        for (h, w), table in zip(sizes, listed):
            ((_, alone),) = peps._sweep(tensor, spec, w, [h])
            assert _table_bits(table) == _table_bits(alone)
    # the contraction of the complete boundary, perimeter start rotated
    table = _oracle_table(tensor, full_spec, n, m)
    got = peps.contract(peps.PepsInstance(tensor, full_spec), n, m, rotate=rotate)
    want = _oracle_contract(tensor, full_spec, n, m, table)
    scale = 1.0 + max((abs(c) for _, c in want.unordered_items()), default=0.0)
    assert sum_difference(got, want) <= 1e-10 * scale


def _matrix_trace_reference(inst, n, m, rotate):
    """:func:`peps.contract` with every pattern traced as chi x chi
    matrices: ``np.eye(chi)`` times the rotated cycle, left to right, with
    ``@``."""
    spec = inst.boundary
    ((_, table),) = peps._sweep(inst.tensor, spec, m, [n])
    k = rotate % (2 * (n + m) + 1)
    terms = []
    for word, patterns in table.items():
        for pattern, amp in patterns.items():
            cycle = [spec.sides[s][b] for s, b in _walk(pattern)] + [spec.corner]
            acc = np.eye(spec.chi, dtype=complex)
            for mat in cycle[k:] + cycle[:k]:
                acc = acc @ np.asarray(mat, dtype=complex)
            terms.append((word, complex(np.trace(acc)) * amp))
    return FormalSum(GridShape(n, m), terms)


def _bits(s):
    return [(w, c.real.hex(), c.imag.hex()) for w, c in s.unordered_items()]


def _chi1_instance(rng, weight):
    """d4's components and a chi = 1 boundary, all drawn by ``weight``; each
    side keeps each of the four bonds with probability 3/4."""
    base = peps.d4_instance()
    comps = {key: weight() for key in base.tensor.components}
    sides = {s: {b: np.array([[weight()]]) for b in range(4) if rng.random() < 0.75}
             for s in "ltrb"}
    return peps.PepsInstance(peps.PepsTensor(base.tensor.alphabet, 4, comps),
                             peps.BoundarySpec(1, sides, np.array([[weight()]])))


SCALAR_SIZES = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
EXACT_WEIGHTS = [1, -1, 1j, -1j, 2, -2, 0.5, -0.5]


@pytest.mark.parametrize("seed", range(8))
def test_scalar_trace_has_the_bits_of_the_1x1_products(seed):
    # every product of these weights is exact, so the two traces must agree
    # bit for bit whatever the matrix product's rounding on this platform
    rng = np.random.default_rng(seed)
    inst = _chi1_instance(rng, lambda: complex(EXACT_WEIGHTS[rng.integers(8)]))
    for n, m in SCALAR_SIZES:
        for rotate in range(2 * (n + m) + 1):
            got = peps.contract(inst, n, m, rotate=rotate)
            assert _bits(got) == _bits(_matrix_trace_reference(inst, n, m, rotate))


@pytest.mark.parametrize("seed", range(4))
def test_scalar_trace_matches_the_1x1_products_for_random_weights(seed):
    rng = np.random.default_rng(100 + seed)
    inst = _chi1_instance(rng, lambda: complex(*rng.normal(size=2)))
    for n, m in SCALAR_SIZES:
        for rotate in range(2 * (n + m) + 1):
            got = peps.contract(inst, n, m, rotate=rotate)
            want = _matrix_trace_reference(inst, n, m, rotate)
            scale = max((abs(c) for _, c in want.unordered_items()), default=0.0)
            assert list(got._terms) == list(want._terms)
            assert sum_difference(got, want) <= 1e-15 * scale


GAUGE_SIZES = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
gauge_entries = st.lists(
    st.builds(cmath.rect, st.floats(0.5, 2.0), st.floats(0.0, 2 * cmath.pi)),
    min_size=4, max_size=4)


def _gauged_d4(g, h):
    """d4 under diagonal bond gauges: g on the horizontal bonds, h on the
    vertical ones; the 1 x 1 side matrices absorb what the perimeter leaves."""
    base = peps.d4_instance()
    comps = {(p, l, t, r, b): val * g[r] / g[l] * h[t] / h[b]
             for (p, l, t, r, b), val in base.tensor.components.items()}
    scale = {"l": lambda k: g[k], "r": lambda k: 1 / g[k],
             "b": lambda k: h[k], "t": lambda k: 1 / h[k]}
    sides = {s: {k: np.array([[scale[s](k)]], dtype=complex) for k in table}
             for s, table in base.boundary.sides.items()}
    return peps.PepsInstance(peps.PepsTensor(base.tensor.alphabet, 4, comps),
                             peps.BoundarySpec(1, sides, np.eye(1, dtype=complex)))


@settings(max_examples=25, deadline=None)
@given(gauge_entries, gauge_entries)
def test_every_mutation_of_a_gauged_d4_is_caught(g, h):
    inst = _gauged_d4(g, h)
    assert peps.check_peps_vs_boxplus(inst, PIVOT, "v", GAUGE_SIZES).ok
    for k, key in enumerate(peps.component_order(inst.tensor)):
        assert not peps.check_peps_vs_boxplus(
            peps.mutate_drop(inst, k), PIVOT, "v", GAUGE_SIZES).ok, key
        comps = dict(inst.tensor.components)
        comps[key] *= 1 + 1e-8
        nudged = peps.PepsInstance(peps.PepsTensor(inst.tensor.alphabet, 4, comps),
                                   inst.boundary)
        report = peps.check_peps_vs_boxplus(nudged, PIVOT, "v", GAUGE_SIZES)
        failed = [i for i in report.instances if not i.passed]
        assert failed, key
        assert all(i.details["worst_word"]["word"] for i in failed)


@pytest.mark.parametrize("components, fragment", [
    ({("zz", 0, 0, 0, 0): 1.0}, "unknown physical symbol 'zz'"),
    ({("v", 0, 0, 0, 2): 1.0}, "bond index out of range in ('v', 0, 0, 0, 2)"),
], ids=["unknown-symbol", "bond-range"])
def test_a_tensor_refuses_components_outside_its_alphabet_and_bonds(components, fragment):
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        peps.PepsTensor(Alphabet(["a", "b", "v"]), 2, components)
