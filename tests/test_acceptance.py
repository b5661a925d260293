"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else; every expected value is either
computed by an independent oracle inside the test or frozen from a verified
source display.
"""

import cmath
import math
import os
import time

import numpy as np

from hopf2d.coalgebra import (
    apply_splitter,
    boxplus,
    check_counit,
    check_quasi_1d_assoc,
    check_trivial_proposition,
    check_xy_compat,
    cube_xyz_compat,
)
from hopf2d.cli import main
from hopf2d.grids import GridShape, word1
from hopf2d.instances import (
    TaftConfig,
    half_plane_grid,
    make_cross,
    make_cyclic_group,
    make_lie_like,
    make_pivot,
    make_quasi1d_group,
    make_quasi1d_lie,
    make_taft,
    make_uq_symbolic,
)
from hopf2d import peps
from hopf2d import rmatrix as rm
from hopf2d import uqsu2 as uq


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d}: {status} ({detail})")
    assert ok, detail


def seeded_qs(count, seed=42, unit_circle=True):
    rng = np.random.RandomState(seed)
    qs = [complex(x) for x in rng.uniform(0.5, 2.0, count // 2)]
    if unit_circle:
        qs += [cmath.exp(1j * t) for t in rng.uniform(0.15, math.pi - 0.15,
                                                      count - count // 2)]
    else:
        qs += [complex(x) for x in rng.uniform(0.5, 2.0, count - count // 2)]
    return qs


def test_c01_axiom_suite():
    t0 = time.perf_counter()
    examples = {
        "group-like": make_cyclic_group(3),
        "lie-like": make_lie_like(["a", "c"]),
        "quasi1d-group": make_quasi1d_group(),
        "quasi1d-lie": make_quasi1d_lie(),
        "cross": make_cross(),
        "pivot(0)": make_pivot(theta=0.0),
        "pivot(pi/4)": make_pivot(theta=math.pi / 4),
        "taft(2)": make_taft(TaftConfig(2, -1.0)),
        "taft(3)": make_taft(TaftConfig(3, cmath.exp(2j * math.pi / 3))),
        "uq(2)": make_uq_symbolic(2.0),
    }
    worst = 0.0
    for name, ex in examples.items():
        for direction in "xy":
            for n in (1, 2, 3):
                r = check_quasi_1d_assoc(ex, direction, n, tol=1e-10)
                assert r.ok, (name, "assoc", direction, n)
                worst = max(worst, r.max_residual)
                r = check_counit(ex, direction, n, tol=1e-10)
                assert r.ok, (name, "counit", direction, n)
                worst = max(worst, r.max_residual)
        r = check_xy_compat(ex, 3, 3, tol=1e-10)
        assert r.ok, (name, "xycompat")
        worst = max(worst, r.max_residual)
    elapsed = time.perf_counter() - t0
    _line(1, worst < 1e-10 and elapsed < 30.0,
          f"10 examples, max residual {worst:.2e}, {elapsed:.1f}s")


def test_c02_pivot_structure_exhaustive():
    ex = make_pivot(theta=0.0)
    checked = 0
    for n in range(1, 5):
        for m in range(1, 5):
            s = boxplus(ex, "v", n, m)
            assert len(s) == n * m, (n, m)
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    grid = half_plane_grid(0.0, GridShape(n, m), (i, j), ex.alphabet)
                    assert s.coeff(grid) == 1.0, (n, m, i, j)
                    checked += 1
    _line(2, True, f"{checked} patterns over all sizes <= 4x4")


def test_c03_uq_bialgebra_relations():
    t0 = time.perf_counter()
    qs = seeded_qs(10, seed=42)
    worst = 0.0
    for q in qs:
        for (n, m) in [(2, 2), (2, 3), (3, 3)]:
            ops = uq.OperatorTable(q, n, m)
            r1 = uq.check_ks_relation(ops, tol=1e-10)
            r2 = uq.check_commutator(ops, tol=1e-10)
            assert r1.ok and r2.ok, (q, n, m)
            worst = max(worst, r1.max_residual, r2.max_residual)
    elapsed = time.perf_counter() - t0
    _line(3, worst < 1e-10 and elapsed < 60.0,
          f"10 q values x 3 sizes, max residual {worst:.2e}, {elapsed:.1f}s")


def test_c04_q_singlets():
    qs = [2.0, 3.0, cmath.exp(1j * math.pi / 5)]
    worst = 0.0
    for q in qs:
        pair = uq.singlet_pair_checks(uq.OperatorTable(q, 1, 2), tol=1e-10)
        assert pair.ok, q
        worst = max(worst, pair.max_residual)
        plaquette = uq.OperatorTable(q, 2, 2)
        kernel = uq.kernel_2x2(plaquette, svd_tol=1e-10)
        assert kernel["dimension"] == 2, q
        assert max(kernel["family_residuals"].values()) < 1e-10, q
        vert = uq.vertical_singlet_residual(plaquette, tol=1e-10)
        coef = abs(vert["coefficient"])
        for gen in ("S+", "S-"):
            assert vert[gen]["residual_vs_pattern"] < 1e-10, (q, gen)
            assert abs(vert[gen]["measured_coefficient"] - coef) < 1e-10, (q, gen)
    coefs = [abs(uq.vertical_singlet_residual(uq.OperatorTable(q, 2, 2))["coefficient"])
             for q in (1.5, 1.1, 1.01)]
    assert coefs[0] > coefs[1] > coefs[2]
    _line(4, True, f"kernel dim 2, vertical coefficient {coefs[0]:.3f} > "
                   f"{coefs[1]:.3f} > {coefs[2]:.3f} -> 0")


def test_c05_rmatrix_1d():
    worst = 0.0
    for q in seeded_qs(20, seed=42):
        r, ops = rm.r_matrix(q), uq.OperatorTable(q, 1, 2)
        res = float(np.abs(r - rm.r_matrix_factorized(q)).max())
        worst = max(worst, res)
        for gen in ("S+", "S-"):
            res = float(np.abs(r @ ops[gen].toarray() - rm.delta_perm(ops, gen) @ r).max())
            worst = max(worst, res)
    _line(5, worst < 1e-12, f"20 seeded q, max residual {worst:.2e}")


def test_c06_rmatrix_2d():
    from tests.test_rmatrix import FROZEN_CHAIN, _normalize

    worst = 0.0
    for q in seeded_qs(20, seed=42):
        big, ops = rm.r2d(q), uq.OperatorTable(q, 2, 2)
        for gen in ("S+", "S-"):
            display, perm = rm.plaquette_pair(ops, gen)
            res = float(np.abs(big @ display - perm @ big).max())
            worst = max(worst, res)
    chain = rm.conjugation_chain(uq.OperatorTable(1.5, 2, 2), "S+")
    symbolic_ok = all(
        _normalize(got) == _normalize(want)
        for got, want in zip(chain["steps"], FROZEN_CHAIN)
    )
    worst = max(worst, max(chain["residuals"]))
    _line(6, worst < 1e-10 and symbolic_ok,
          f"intertwining residual {worst:.2e}, chain grids reproduced: {symbolic_ok}")


def test_c07_semiclassical():
    report = rm.check_semiclassical([0.2, 0.1, 0.05, 0.025, 0.0125])
    slopes = {i.input: i.details["slope"] for i in report.instances if "slope" in i.details}
    ok_slopes = all(0.9 <= s <= 1.1 for s in slopes.values())
    classical = rm.classical_identities_residual()
    ok_classical = max(classical.values()) < 1e-12
    _line(7, report.ok and ok_slopes and ok_classical,
          f"slopes {slopes['pair slope']:.3f}/{slopes['plaquette slope']:.3f}, "
          f"classical residual {max(classical.values()):.2e}")


def test_c08_peps():
    pivot = make_pivot(theta=0.0)
    sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    inst = peps.d4_instance()
    report = peps.check_peps_vs_boxplus(inst, pivot, "v", sizes, tol=1e-12)
    assert report.ok
    mutated = peps.mutate_drop(inst, 0)
    mut_report = peps.check_peps_vs_boxplus(mutated, pivot, "v", [(1, 1), (1, 2)])
    assert not mut_report.ok
    targets = {s: boxplus(pivot, "v", *s) for s in sizes}
    solve = peps.solve_boundary(peps.d2_instance(), targets, sizes)
    deliverable = solve.feasible or solve.certificate is not None
    _line(8, report.ok and not mut_report.ok and deliverable,
          f"d4 exact at 7 sizes; mutation caught at <=1x2; "
          f"d2 {'solved' if solve.feasible else 'certified infeasible at ' + str(solve.certificate['size'])}")


def test_c09_negative_controls():
    def rules_for(ex, syms):
        dx, dy = {}, {}
        for name in syms:
            sym = ex.alphabet[name]
            sx = apply_splitter(ex, "x", word1(sym))
            dx[sym] = [(c, t.cells[0], t.cells[1]) for t, c in sx.items()]
            sy = apply_splitter(ex, "y", word1(sym))
            dy[sym] = [(c, t.cells[0], t.cells[1]) for t, c in sy.items()]
        return dx, dy

    uq_ex = make_uq_symbolic(2.0)
    dx, dy = rules_for(uq_ex, ["S+", "S-", "K+", "K-"])
    uq_report = check_trivial_proposition(dx, dy, list(dx))
    uq_fails = not all(i.details["premise_holds"] for i in uq_report.instances)

    group = make_cyclic_group(3)
    dx, dy = rules_for(group, ["1", "g", "g2"])
    group_report = check_trivial_proposition(dx, dy, list(dx))
    lie = make_lie_like(["a", "c"])
    dx, dy = rules_for(lie, ["1", "a", "c"])
    lie_report = check_trivial_proposition(dx, dy, list(dx))
    holds = group_report.ok and lie_report.ok and all(
        i.details["premise_holds"]
        for i in group_report.instances + lie_report.instances
    )
    cube = cube_xyz_compat()
    _line(9, uq_fails and holds and cube.ok,
          f"uq premise fails: {uq_fails}; group/lie hold: {holds}; cube: {cube.ok}")


def test_c10_determinism(tmp_path):
    args = ["verify", "--example", "uq", "--checks", "ks,kernel,singlets,rmatrix2d",
            "--sizes", "2x2", "--seed", "42"]
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(args + ["--out", str(out)]) == 0
        blob = {}
        for name in sorted(os.listdir(out)):
            with open(out / name, "rb") as fh:
                blob[name] = fh.read()
        outs.append(blob)
    identical = outs[0] == outs[1]
    _line(10, identical, f"{len(outs[0])} report files byte-identical")
