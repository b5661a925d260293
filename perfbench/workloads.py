"""The four benchmark workloads: per-pass inputs, timed jobs, output checks.

A workload has a ``setup`` (work done once per run, outside the passes) and
a ``jobs`` function that draws one pass's inputs from a seeded generator and
returns the jobs of that pass.  Each job's ``run`` calls into hopf2d and
returns its output; ``check`` judges that output afterwards, outside the
timed region, and returns a list of ``(label, passed)`` verdicts.

Every pass builds its instances afresh and draws fresh parameters (q values,
symbol names, tensor scales), so no pass repeats an earlier pass's input and
a memo kept across calls cannot score a gain a one-shot CLI user would not
get.  hopf2d modules are reached through the ``lib`` namespace at call time,
which is where the tracer patches them.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os

import numpy as np
import scipy.sparse as sp

TOL = 1e-10

# Reading orders of the grown marked-symbol elements, as (row, col) keys with
# rows counted from the bottom.  Angle 0 reads rows bottom first, left to
# right; angle pi/4 reads rows bottom first, right to left (the README's
# notes on the shipped data: diagonal angles grow along the reading order).
ROW_LEFT_TO_RIGHT = lambda i, j: (i, j)
ROW_RIGHT_TO_LEFT = lambda i, j: (i, -j)

# The sizes below set each workload's jobs; predictions.json lists them.
GROW_PIVOT0 = (10, 10)
GROW_OTHERS = (8, 8)
AXIOM_SLICES = (1, 2, 3, 4)
AXIOM_XY = (5, 5)
OPERATOR_SIZES = ((2, 2), (2, 3), (3, 3), (3, 4))
EXPORT_SIZE = (3, 4)
PEPS_CONTRACT_SIZES = tuple((n, m) for n in range(1, 4) for m in range(1, 4))
PEPS_SOLVE_SIZES = tuple((n, m) for n in range(1, 6) for m in range(1, 6))


class Job:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class Workload:
    def __init__(self, name, largest, jobs, setup=None):
        self.name, self.largest, self.jobs = name, largest, jobs
        self.setup = setup or (lambda lib: None)


# -- inputs -------------------------------------------------------------------


def fresh_names(rng, letters):
    """Distinct symbol names sharing one random tag, e.g. ('a3f9c01', 'b3f9c01')."""
    tag = f"{rng.randrange(16 ** 6):06x}"
    return tuple(letter + tag for letter in letters)


def fresh_q(rng):
    """A real deformation parameter away from the singular points q = +-1."""
    q = rng.uniform(1.2, 2.0)
    return q if rng.random() < 0.5 else 1.0 / q


def fresh_scale(rng):
    return rng.uniform(0.9, 1.1)


def _terms(s):
    """A formal sum's terms keyed by cell names."""
    return {tuple(c.name for c in w.cells): complex(v) for w, v in s.items()}


def _same_terms(got, want, tol=TOL):
    words = set(got) | set(want)
    return all(abs(got.get(w, 0j) - want.get(w, 0j)) <= tol for w in words)


def _placement(s, n, m, mark, before, after, key=ROW_LEFT_TO_RIGHT):
    """Is ``s`` the n x m marked-symbol element: the mark once on each site,
    ``before`` on the sites preceding it in the reading order, ``after`` on
    the sites following it, every coefficient 1?"""
    sites = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    want = {}
    for p in sites:
        cells = tuple(mark if x == p else (before if key(*x) < key(*p) else after)
                      for x in sites)
        want[cells] = 1.0
    return (s.shape.rows, s.shape.cols) == (n, m) and _same_terms(_terms(s), want)


# -- grow ---------------------------------------------------------------------


def grow_jobs(lib, state, rng, workdir):
    co, ins = lib.coalgebra, lib.instances
    piv0, piv45, lie = fresh_names(rng, "abv"), fresh_names(rng, "abv"), fresh_names(rng, "ua")
    q = fresh_q(rng)
    omega = cmath.exp(2j * math.pi * rng.choice((1, 2)) / 3)
    n0, m0 = GROW_PIVOT0
    n, m = GROW_OTHERS

    def pivot0():
        return co.boxplus(ins.make_pivot(ins.PivotConfig(piv0, 0.0)), piv0[2], n0, m0)

    def check_pivot0(s):
        a, b, v = piv0
        rename = {"a": a, "b": b, "v": v}
        got = _terms(s)
        shape = lib.grids.GridShape(n0, m0)
        half_plane = all(
            abs(got.get(tuple(rename[c.name] for c in
                              ins.half_plane_grid(0.0, shape, (i, j)).cells), 0j) - 1) <= TOL
            for i in range(1, n0 + 1) for j in range(1, m0 + 1))
        return [("pivot0_v: placement", _placement(s, n0, m0, v, a, b)),
                ("pivot0_v: half-plane grids", half_plane)]

    def pivot45():
        return co.boxplus(ins.make_pivot(ins.PivotConfig(piv45, math.pi / 4)), piv45[2], n, m)

    def uq():
        return co.boxplus(ins.make_uq_symbolic(q), "S+", n, m)

    def lie_a():
        return co.boxplus(ins.make_lie_like([lie[1]], unit=lie[0]), lie[1], n, m)

    def taft():
        return co.boxplus(ins.make_taft(ins.TaftConfig(3, omega)), "x", n, m)

    def check_taft(s):
        ex = ins.make_taft(ins.TaftConfig(3, omega))
        oracle = co.boxplus_from_1d(ex.meta["delta_1site"], ex.alphabet["x"], n, m)
        return [("taft3_x: placement", _placement(s, n, m, "x", "1", "g")),
                ("taft3_x: 1D coproduct oracle", _same_terms(_terms(s), _terms(oracle)))]

    return [
        Job(f"pivot0_v_{n0}x{m0}", pivot0, check_pivot0),
        Job(f"pivot45_v_{n}x{m}", pivot45, lambda s: [
            ("pivot45_v: placement",
             _placement(s, n, m, piv45[2], piv45[0], piv45[1], ROW_RIGHT_TO_LEFT))]),
        Job(f"uq_S+_{n}x{m}", uq, lambda s: [
            ("uq_S+: placement", _placement(s, n, m, "S+", "K-", "K+"))]),
        Job(f"lie_a_{n}x{m}", lie_a, lambda s: [
            ("lie_a: placement", _placement(s, n, m, lie[1], lie[0], lie[0]))]),
        Job(f"taft3_x_{n}x{m}", taft, check_taft),
    ]


# -- axioms -------------------------------------------------------------------


def _axiom_instances(lib, rng):
    """The ten-instance axiom suite, with fresh names wherever a constructor
    takes them and a fresh q for the deformed-su(2) instance."""
    ins = lib.instances
    g = fresh_names(rng, ("e", "g", "h"))
    table = {(g[i], g[j]): g[(i + j) % 3] for i in range(3) for j in range(3)}
    lie = fresh_names(rng, ("u", "a", "c"))
    a, b, v = fresh_names(rng, "abv")
    inner = {v: [(1.0, a, v), (1.0, v, b)], a: [(1.0, a, a)], b: [(1.0, b, b)]}
    counit = {v: 0.0, a: 1.0, b: 1.0}
    u = "u" + a[1:]
    piv0, piv45 = fresh_names(rng, "abv"), fresh_names(rng, "abv")
    omega = cmath.exp(2j * math.pi * rng.choice((1, 2)) / 3)
    q = fresh_q(rng)
    return {
        "group": lambda: ins.make_group_like(list(g), table=table, unit=g[0]),
        "lie": lambda: ins.make_lie_like(list(lie[1:]), unit=lie[0]),
        "quasi1d_group": lambda: ins.make_quasi1d_group(inner, counit, [a, b, v]),
        "quasi1d_lie": lambda: ins.make_quasi1d_lie(
            {**inner, u: [(1.0, u, u)]}, {**counit, u: 1.0}, [u, a, b, v], unit=u),
        "cross": ins.make_cross,
        "pivot0": lambda: ins.make_pivot(ins.PivotConfig(piv0, 0.0)),
        "pivot45": lambda: ins.make_pivot(ins.PivotConfig(piv45, math.pi / 4)),
        "taft2": lambda: ins.make_taft(ins.TaftConfig(2, -1.0)),
        "taft3": lambda: ins.make_taft(ins.TaftConfig(3, omega)),
        "uq": lambda: ins.make_uq_symbolic(q),
    }


def _reports_pass(label, reports):
    """One verdict per check instance, plus one per report that it is nonempty."""
    out = []
    for r in reports:
        out.append((f"{label}: {r.check} has instances", len(r.instances) > 0))
        out += [(f"{label}: {r.check} {i.input}", bool(i.passed) and i.residual <= TOL)
                for i in r.instances]
    return out


def axiom_jobs(lib, state, rng, workdir):
    co = lib.coalgebra
    jobs = []
    for name, make in _axiom_instances(lib, rng).items():
        def slices(make=make):
            ex = make()
            return [check(ex, d, k, tol=TOL) for d in "xy" for k in AXIOM_SLICES
                    for check in (co.check_quasi_1d_assoc, co.check_counit)]

        def xy(make=make):
            return [co.check_xy_compat(make(), *AXIOM_XY, tol=TOL)]

        jobs.append(Job(f"{name}_assoc_counit", slices,
                        lambda r, label=f"{name}_assoc_counit": _reports_pass(label, r)))
        xy_name = f"{name}_xycompat_{AXIOM_XY[0]}x{AXIOM_XY[1]}"
        jobs.append(Job(xy_name, xy, lambda r, label=xy_name: _reports_pass(label, r)))
    return jobs


# -- operators ----------------------------------------------------------------


def _cli(lib, argv):
    """Run a README command in-process, keeping its console lines out of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return lib.cli.main(argv)


def _verify_check(label, outdir, expected):
    def check(rc):
        out = [(f"{label}: exit code 0", rc == 0)]
        for stem in expected:
            path = os.path.join(outdir, stem + ".json")
            if not os.path.exists(path):
                out.append((f"{label}: {stem} report written", False))
                continue
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            out.append((f"{label}: {stem} has instances", len(rep["instances"]) > 0))
            out += [(f"{label}: {stem} {i['input']}", i["pass"] is True and i["residual"] <= TOL)
                    for i in rep["instances"]]
        return out

    return check


def raising_operator(q, sites):
    """Independent oracle for the lattice S+ as (rows, cols, values).

    Site 1 is the most significant bit and |0> is spin up, so S+ at site k
    clears bit k; the sites before it carry K- = diag(q^-1/2, q^1/2) and the
    sites after it K+ = diag(q^1/2, q^-1/2).
    """
    rq = cmath.sqrt(q)
    cols = np.arange(2 ** sites)
    bits = (cols[:, None] >> (sites - 1 - np.arange(sites))) & 1
    rows, cs, vals = [], [], []
    for k in range(sites):
        sel = bits[:, k] == 1
        amp = np.prod(np.where(bits[sel, :k] == 1, rq, 1 / rq), axis=1) * np.prod(
            np.where(bits[sel, k + 1:] == 1, 1 / rq, rq), axis=1)
        rows.append(cols[sel] - (1 << (sites - 1 - k)))
        cs.append(cols[sel])
        vals.append(amp)
    return np.concatenate(rows), np.concatenate(cs), np.concatenate(vals)


def operator_jobs(lib, state, rng, workdir):
    q = fresh_q(rng)
    qarg = repr(q)
    jobs = []

    def verify(label, checks, extra, expected):
        outdir = os.path.join(workdir, label)
        argv = ["verify", "--example", "uq", "--q", qarg, "--checks", checks,
                "--out", outdir, *extra]
        jobs.append(Job(label, lambda: _cli(lib, argv), _verify_check(label, outdir, expected)))

    for n, m in OPERATOR_SIZES:
        verify(f"ks_commutator_{n}x{m}", "ks,commutator", ["--sizes", f"{n}x{m}"],
               ("ks", "commutator"))
    verify("kernel_singlets", "kernel,singlets", [], ("kernel", "singlets"))
    verify("rmatrix2d", "rmatrix2d", [], ("rmatrix2d",))

    n, m = EXPORT_SIZE
    outdir = os.path.join(workdir, "build_op")

    def export():
        rc = _cli(lib, ["build-op", "--gen", "S+", "--q", qarg, "--size", f"{n}x{m}",
                        "--out", outdir])
        return rc, lib.linops.read_matrix_market(os.path.join(outdir, f"boxplus_Sp_{n}x{m}.mtx"))

    def check_export(out):
        rc, mat = out
        rows, cols, vals = raising_operator(q, n * m)
        want = sp.csr_matrix((vals, (rows, cols)), shape=(2 ** (n * m),) * 2)
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        diff = abs(mat - want).max() if mat.shape == want.shape else float("inf")
        return [("build_op: exit code 0", rc == 0),
                ("build_op: read-back equals the S+ oracle", bool(diff <= TOL)),
                ("build_op: manifest dim and nnz",
                 manifest["dim"] == want.shape[0] and manifest["nnz"] == want.nnz)]

    jobs.append(Job(f"build_op_S+_{n}x{m}", export, check_export))
    return jobs


# -- peps ---------------------------------------------------------------------


def peps_setup(lib):
    """Grow the targets once per run: the pivot(0) element at every solved size."""
    ex = lib.instances.make_pivot(theta=0.0)
    return {size: lib.coalgebra.boxplus(ex, "v", *size) for size in PEPS_SOLVE_SIZES}


def _scaled(lib, inst, scale, rng):
    """The instance with every tensor component scaled, in shuffled order.

    An n x m contraction then scales by ``scale ** (n * m)``.
    """
    keys = list(inst.tensor.components)
    rng.shuffle(keys)
    t = inst.tensor
    comps = {k: t.components[k] * scale for k in keys}
    return lib.peps.PepsInstance(lib.peps.PepsTensor(t.alphabet, t.bond_dim, comps),
                                 inst.boundary)


def _matches_target(got, target, factor):
    want = {w: c * factor for w, c in _terms(target).items()}
    return _same_terms(_terms(got), want, TOL * max(1.0, abs(factor)))


def peps_jobs(lib, targets, rng, workdir):
    pp = lib.peps
    s4, s2 = fresh_scale(rng), fresh_scale(rng)
    d4 = _scaled(lib, pp.d4_instance(), s4, rng)
    d2 = _scaled(lib, pp.d2_instance(), s2, rng)
    rotate = rng.randrange(64)
    solve_targets = {size: targets[size] * (s2 ** (size[0] * size[1]))
                     for size in PEPS_SOLVE_SIZES}

    def contract():
        return [pp.contract(d4, n, m, rotate=rotate) for n, m in PEPS_CONTRACT_SIZES]

    def check_contract(outs):
        return [(f"d4 {n}x{m}: equals the grown target",
                 _matches_target(got, targets[(n, m)], s4 ** (n * m)))
                for (n, m), got in zip(PEPS_CONTRACT_SIZES, outs)]

    def drops():
        return [[pp.contract(pp.mutate_drop(d4, k), n, m) for n, m in PEPS_CONTRACT_SIZES]
                for k in range(len(d4.tensor.components))]

    def check_drops(outs):
        return [(f"d4 drop {k}: caught", not all(
            _matches_target(got, targets[(n, m)], s4 ** (n * m))
            for (n, m), got in zip(PEPS_CONTRACT_SIZES, per_drop)))
            for k, per_drop in enumerate(outs)]

    def solve():
        return pp.solve_boundary(d2, solve_targets, list(PEPS_SOLVE_SIZES))

    def check_solve(res):
        out = [("d2 solve: solution or certificate", res.ok)]
        if res.feasible:
            done = pp.PepsInstance(d2.tensor, res.boundary)
            out.append(("d2 solve: residual", res.residual <= TOL))
            out += [(f"d2 solve {n}x{m}: boundary reproduces the target",
                     _matches_target(pp.contract(done, n, m), targets[(n, m)], s2 ** (n * m)))
                    for n, m in PEPS_CONTRACT_SIZES]
        elif res.certificate is not None:
            cert = res.certificate
            size = tuple(cert["size"])
            coeffs = {repr(w): complex(c) for w, c in solve_targets[size].items()} \
                if size in solve_targets else {}
            t1, t2 = complex(*cert["target_1"]), complex(*cert["target_2"])
            lam = complex(*cert["multiplicity_ratio"])
            out.append(("d2 solve: certificate matches the targets",
                        size in solve_targets
                        and abs(coeffs.get(cert["grid_1"], 0j) - t1) <= TOL
                        and abs(coeffs.get(cert["grid_2"], 0j) - t2) <= TOL
                        and abs(t2 - lam * t1) > TOL))
        return out

    return [
        Job("d4_contract_le3x3", contract, check_contract),
        Job("d4_drops_le3x3", drops, check_drops),
        Job("d2_solve_le5x5", solve, check_solve),
    ]


WORKLOADS = {
    "grow": Workload("grow", f"pivot0_v_{GROW_PIVOT0[0]}x{GROW_PIVOT0[1]}", grow_jobs),
    "axioms": Workload("axioms", f"uq_xycompat_{AXIOM_XY[0]}x{AXIOM_XY[1]}", axiom_jobs),
    "operators": Workload("operators", "ks_commutator_3x4", operator_jobs),
    "peps": Workload("peps", "d2_solve_le5x5", peps_jobs, peps_setup),
}
