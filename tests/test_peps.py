import json

import numpy as np
import pytest

from hopf2d.coalgebra import ConfigurationError, boxplus
from hopf2d.grids import GridWord, sums_equal
from hopf2d.instances import make_pivot
from hopf2d.linops import ResourceLimitError
from hopf2d import peps

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
    assert sums_equal(got, expect, 1e-12)
    got = peps.contract(inst, 2, 1)
    assert sums_equal(got, boxplus(PIVOT, "v", 2, 1), 1e-12)


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
    assert not sums_equal(got, boxplus(PIVOT, "v", 2, 2), 1e-10)


def test_contract_caps():
    inst = peps.d4_instance()
    with pytest.raises(ResourceLimitError):
        peps.contract(inst, 4, 3)


def test_corner_linearity():
    # scaling the corner scales the whole sum: the trace is linear in it
    inst = peps.d4_instance()
    scaled = peps.PepsInstance(
        inst.tensor,
        peps.BoundarySpec(1, inst.boundary.sides, np.array([[2.5 - 1j]])),
    )
    a = peps.contract(inst, 2, 2)
    b = peps.contract(scaled, 2, 2)
    assert sums_equal(b, a * (2.5 - 1j), 1e-12)


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
    assert not sums_equal(out_a, out_v, 1e-10)
    assert {t.cells[0].name for t in out_a} == {"a"}


def test_mutation_indexing_and_detection():
    inst = peps.d4_instance()
    order = peps.component_order(inst.tensor)
    assert order[0][0] == "v"
    mutated = peps.mutate_drop(inst, 0)
    report = peps.check_peps_vs_boxplus(mutated, PIVOT, "v", [(1, 1), (1, 2)])
    assert not report.ok  # detected at a size <= 1x2
    for k in range(9):
        mutated = peps.mutate_drop(inst, k)
        report = peps.check_peps_vs_boxplus(mutated, PIVOT, "v", ALL_SIZES)
        assert not report.ok, k
    with pytest.raises(ConfigurationError):
        peps.mutate_drop(inst, 9)


def test_tensor_json_round_trip():
    inst = peps.d4_instance()
    back = peps.PepsTensor.from_json(inst.tensor.to_json())
    assert back.components == inst.tensor.components
    spec = inst.boundary
    back_spec = peps.BoundarySpec.from_json(spec.to_json())
    assert back_spec.chi == spec.chi
    for side in "ltrb":
        assert set(back_spec.sides[side]) == set(spec.sides[side])


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
        assert sums_equal(peps.contract(completed, *s), targets[s], 1e-10)
    # trace cyclicity: rotating the perimeter start leaves the result fixed
    base = peps.contract(completed, 2, 1)
    for k in (1, 3, 5):
        assert sums_equal(peps.contract(completed, 2, 1, rotate=k), base, 1e-12)


def test_d2_solver_scaled_target_scales_corner_linearly():
    inst = peps.d2_instance()
    sizes = [(1, 1), (1, 2), (2, 1)]
    targets = {s: boxplus(PIVOT, "v", *s) * 2.0 for s in sizes}
    result = peps.solve_boundary(inst, targets, sizes)
    assert result.feasible
    completed = peps.PepsInstance(inst.tensor, result.boundary)
    for s in sizes:
        assert sums_equal(peps.contract(completed, *s), targets[s], 1e-10)


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


def test_solve_result_json_spells_non_finite_numbers():
    res = peps.BoundarySolveResult(False, None, [(1, 1)], float("nan"), None, None,
                                   {"beta": [[float("inf"), 0.0]]})
    text = res.to_json()
    assert "NaN" not in text and "Infinity" not in text
    obj = json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c} in JSON"))
    assert obj["residual"] == "nan"
    assert obj["parameters"]["beta"] == [["inf", 0.0]]
