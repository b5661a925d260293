"""Command-line front door: run axiom suites, export operators, PEPS checks.

Subcommands::

    hopf2d verify   --example pivot --sizes 2x2,3x3 --checks assoc,xycompat,counit
    hopf2d build-op --gen S+ --q 1.3 --size 2x3
    hopf2d peps     --rep d4 --sizes 1x1,1x2,2x2

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
Growth that leaves a splitter's domain fails its check instance (residual
inf, ``details.domain_error``).  Any other exception (a ``ShapeError``
inside a check, or a sample word outside its own splitter's domain, say) is
a bug in the engine, not in the configuration, and propagates with its
traceback.
Reports are deterministic for a fixed config and seed (stable key order,
seed echoed, no timestamps).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from . import uqsu2
from . import rmatrix as rmx
from . import peps as pepsmod
from .coalgebra import (
    CheckInstance,
    CheckReport,
    ConfigurationError,
    DomainError,
    SingularParameterError,
    _Timer,
    apply_splitter,
    boxplus,
    check_counit,
    check_antipode,
    check_homomorphism,
    check_quasi_1d_assoc,
    check_trivial_proposition,
    check_xy_compat,
    cube_xyz_compat,
)
from .grids import word1
from .instances import (
    cyclic_regular_rep,
    example_from_config,
    taft_regular_rep,
)
from .linops import ResourceLimitError, write_matrix_market


class CliConfigError(Exception):
    pass


def _parse_sizes(text):
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip().lower()
        try:
            n, m = chunk.split("x")
            sizes.append((int(n), int(m)))
        except ValueError:
            raise CliConfigError(f"bad size {chunk!r}, expected NxM")
    if not sizes or any(n < 1 or m < 1 for n, m in sizes):
        raise CliConfigError("sizes must be positive NxM pairs")
    return sizes


def _parse_q_list(values, seed, count=10):
    if values:
        out = []
        for v in values:
            try:
                out.append(complex(v))
            except ValueError:
                raise CliConfigError(f"bad q value {v!r}")
        return out
    rng = np.random.RandomState(seed)
    qs = []
    for _ in range(count // 2):
        qs.append(complex(rng.uniform(0.5, 2.0)))
    for _ in range(count - count // 2):
        qs.append(cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1)))
    return qs


def _example_config(args):
    cfg = {"example": args.example}
    if args.example == "pivot":
        cfg["theta_over_pi"] = args.theta_over_pi or 0.0
    if args.example == "taft":
        cfg["n"] = args.taft_n or 2
    if args.example == "uq":
        q = _parse_q_list(args.q, args.seed, 1)[0]
        cfg["q_re"], cfg["q_im"] = q.real, q.imag
    return cfg


def _one_site_rules(ex):
    """Extract 1-site Sweedler rules from the splitters, where defined."""
    dx, dy = {}, {}
    for sym in ex.grow_symbols:
        try:
            sx = apply_splitter(ex, "x", word1(sym))
            dx[sym] = [(c, w.cells[0], w.cells[1]) for w, c in sx.items()]
            sy = apply_splitter(ex, "y", word1(sym))
            dy[sym] = [(c, w.cells[0], w.cells[1]) for w, c in sy.items()]
        except DomainError:
            continue
    return dx, dy


def _rep_for(ex, example_kind):
    if example_kind == "taft":
        return taft_regular_rep(ex)
    if example_kind == "group":
        return cyclic_regular_rep(ex)
    if example_kind == "uq":
        return uqsu2.spin_half_rep(ex.meta["q"], ex.alphabet)
    raise CliConfigError(f"no canonical representation for example {example_kind!r}")


def _run_checks(args, report_meta):
    sizes = _parse_sizes(args.sizes or "2x2,3x3")
    checks = (args.checks or "assoc,xycompat,counit").split(",")
    tol = args.tol
    ex = example_from_config(_example_config(args))
    max_n = max(n for n, _ in sizes)
    max_m = max(m for _, m in sizes)
    qs = uq_reports = None
    names = [c.strip() for c in checks if c.strip()]
    reports = []
    for name in names:
        if name == "assoc":
            for direction, extent in (("x", max_n), ("y", max_m)):
                for k in range(1, extent + 1):
                    reports.append(check_quasi_1d_assoc(ex, direction, k, tol=tol))
        elif name == "xycompat":
            reports.append(check_xy_compat(ex, max_n, max_m, tol=tol))
        elif name == "counit":
            for direction, extent in (("x", max_n), ("y", max_m)):
                for k in range(1, extent + 1):
                    reports.append(check_counit(ex, direction, k, tol=tol))
        elif name == "homomorphism":
            rep = _rep_for(ex, args.example)
            syms = [s.name for s in ex.grow_symbols]
            pairs = [(u, w) for u in syms for w in syms]
            reports.append(check_homomorphism(ex, rep, min(max_n, 2), min(max_m, 2), pairs, tol=tol))
        elif name == "antipode":
            rep = _rep_for(ex, args.example)
            for direction in ("x", "y"):
                reports.append(check_antipode(ex, rep, direction, min(max_n, 3), tol=tol))
        elif name == "proposition":
            dx, dy = _one_site_rules(ex)
            common = [s for s in dx if s in dy]
            reports.append(check_trivial_proposition(dx, dy, common, tol=tol))
        elif name == "cube":
            reports.append(cube_xyz_compat(tol=tol))
        elif name in ("ks", "commutator", "kernel", "singlets"):
            if args.example != "uq":
                raise CliConfigError(f"check {name!r} needs --example uq")
            qs = qs or _parse_q_list(args.q, args.seed)
            uq_reports = uq_reports or _uq_checks(names, qs, sizes, tol)
            reports.append(uq_reports[name])
        elif name in ("rmatrix1d", "rmatrix2d", "semiclassical"):
            qs = qs or _parse_q_list(args.q, args.seed, 20)
            reports.append(_rmatrix_check(name, qs, tol))
        else:
            raise CliConfigError(f"unknown check {name!r}")
    return ex, reports


def _uq_checks(names, qs, sizes, tol):
    """The deformed-su(2) operator checks among ``names``, one report each.

    The loop runs over q, then size, then check, and every check of one
    (q, size) step takes its operators from one :class:`uqsu2.OperatorTable`,
    dropped when the step ends; ``kernel`` and ``singlets`` run at the
    (q, 2x2) step.  Each report lists its instances q first, then size.
    Neither check forms an array larger than S+ or S-, so a step's peak
    memory is that of building its operators; both checks build S+ and S-
    first, which keeps it lowest, and the order of the checks in a step does
    not change it.
    """
    per_size = [nm for nm in ("commutator", "ks") if nm in names]
    per_q = [nm for nm in ("kernel", "singlets") if nm in names]
    steps = [(size, list(per_size)) for size in sizes]
    if per_q:  # at the first 2x2 step, or at one of their own
        at_2x2 = next((checks for size, checks in steps if size == (2, 2)), None)
        if at_2x2 is None:
            steps.append(((2, 2), at_2x2 := []))
        at_2x2 += per_q
    instances = {name: [] for name in per_size + per_q}
    elapsed = dict.fromkeys(instances, 0.0)
    for q in qs:
        for (n, m), checks in steps:
            ops = uqsu2.OperatorTable(q, n, m)
            for name in checks:
                with _Timer() as t:
                    instances[name] += _uq_instances(name, q, n, m, ops, tol)
                elapsed[name] += t.elapsed
    return {name: CheckReport(name, list(sizes), instances[name], elapsed[name])
            for name in instances}


def _uq_instances(name, q, n, m, ops, tol):
    if name == "ks":
        return _prefixed(uqsu2.check_ks_relation(q, n, m, tol=tol, ops=ops), f"q={q:g},{n}x{m}")
    if name == "commutator":
        return _prefixed(uqsu2.check_commutator(q, n, m, tol=tol, ops=ops), f"q={q:g},{n}x{m}")
    if name == "kernel":
        k = uqsu2.kernel_2x2(q, ops=ops)
        ok = k["dimension"] == 2 and all(v <= tol for v in k["family_residuals"].values())
        res = max(k["family_residuals"].values())
        basis = [[[c.real, c.imag] for c in col] for col in np.asarray(k["basis"]).T]
        return [CheckInstance(f"q={q:g}", ok, res, {"dimension": k["dimension"], "basis": basis})]
    out = _prefixed(uqsu2.singlet_pair_checks(q, tol=tol), f"q={q:g}")
    vres = uqsu2.vertical_singlet_residual(q, tol=tol, ops=ops)
    return out + [CheckInstance(f"q={q:g} vertical {gen}", vres[gen]["pass"],
                                vres[gen]["residual_vs_pattern"]) for gen in ("S+", "S-")]


def _rmatrix_check(name, qs, tol):
    instances = []
    with _Timer() as t:
        if name == "semiclassical":
            return rmx.check_semiclassical([0.2, 0.1, 0.05, 0.025, 0.0125])
        for q in qs:
            if name == "rmatrix1d":
                r = rmx.r_matrix(q)
                res = float(np.abs(r - rmx.r_matrix_factorized(q)).max())
                instances.append(CheckInstance(f"q={q:g} closed==factorized", res <= 1e-12, res))
                for gen in ("S+", "S-"):
                    res = float(np.abs(r @ rmx.delta_2site(gen, q)
                                       - rmx.delta_perm(gen, q) @ r).max())
                    instances.append(CheckInstance(f"q={q:g} intertwine {gen}", res <= 1e-12, res))
            else:
                chain = rmx.conjugation_chain(q, "S+")
                big = chain["conjugator"]  # r2d(q), from the chain's own steps
                for gen in ("S+", "S-"):
                    res = float(np.abs(big @ rmx.boxplus_2x2_display(gen, q)
                                       - rmx.boxplus_perm(gen, q) @ big).max())
                    instances.append(CheckInstance(f"q={q:g} intertwine {gen}", res <= tol, res))
                res = max(chain["residuals"])
                instances.append(CheckInstance(f"q={q:g} chain", res <= tol, res))
    return CheckReport(name, [(2, 2)], instances, t.elapsed)


def _prefixed(report, prefix):
    for inst in report.instances:
        inst.input = f"{prefix}:{inst.input}"
    return report.instances


def cmd_verify(args) -> int:
    ex, reports = _run_checks(args, None)
    outdir = args.out or "reports"
    os.makedirs(outdir, exist_ok=True)
    all_ok = True
    counters = {}
    for rep in reports:
        stem = rep.check
        counters[stem] = counters.get(stem, 0) + 1
        if counters[stem] > 1:
            stem = f"{stem}_{counters[stem]}"
        payload = json.loads(rep.to_json())
        payload["example"] = ex.name
        payload["seed"] = args.seed
        path = os.path.join(outdir, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
        status = "pass" if rep.ok else "FAIL"
        print(f"{rep.check}: {status} (max residual {rep.max_residual:.3e})")
        all_ok = all_ok and rep.ok
    return 0 if all_ok else 1


def cmd_build_op(args) -> int:
    outdir = args.out or "operators"
    os.makedirs(outdir, exist_ok=True)
    qs = _parse_q_list(args.q, args.seed, 1)
    q = qs[0]
    if args.rmatrix2d:
        mat = rmx.r2d(q)
        name = f"rmatrix2d_q{q.real:g}{'+' if q.imag >= 0 else ''}{q.imag:g}j.mtx"
        path = os.path.join(outdir, name)
        nnz = write_matrix_market(np.asarray(mat), path)
        manifest = {"generator": "rmatrix2d", "q": [q.real, q.imag], "n": 2, "m": 2,
                    "dim": 16, "nnz": nnz, "file": name}
    else:
        if not args.gen:
            raise CliConfigError("build-op needs --gen or --rmatrix2d")
        sizes = _parse_sizes(args.size or "2x2")
        n, m = sizes[0]
        op = uqsu2.boxplus_op(args.gen, q, n, m)
        name = f"boxplus_{args.gen.replace('+', 'p').replace('-', 'm')}_{n}x{m}.mtx"
        path = os.path.join(outdir, name)
        nnz = op.write_matrix_market(path)
        manifest = {"generator": args.gen, "q": [q.real, q.imag], "n": n, "m": m,
                    "dim": op.dim, "nnz": nnz, "file": name}
    mpath = os.path.join(outdir, "manifest.json")
    with open(mpath, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    print(f"wrote {manifest['file']} (dim {manifest['dim']}, nnz {manifest['nnz']})")
    return 0


def cmd_peps(args) -> int:
    from .instances import make_pivot

    outdir = args.out or "reports"
    os.makedirs(outdir, exist_ok=True)
    ex = make_pivot(theta=0.0)
    sizes = _parse_sizes(args.sizes or "1x1,1x2,2x1,2x2,3x3")
    if args.rep == "d4":
        inst = pepsmod.d4_instance()
        if args.mutate:
            kind, _, idx = args.mutate.partition(":")
            if kind != "drop" or not idx.isdigit():
                raise CliConfigError(f"unknown mutation {args.mutate!r}, expected drop:K")
            inst = pepsmod.mutate_drop(inst, int(idx))
        report = pepsmod.check_peps_vs_boxplus(inst, ex, "v", sizes, tol=args.tol)
        path = os.path.join(outdir, "peps_d4.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"peps d4: {'pass' if report.ok else 'FAIL'} (max residual {report.max_residual:.3e})")
        return 0 if report.ok else 1
    if args.rep == "d2":
        inst = pepsmod.d2_instance()
        if not args.solve_boundary:
            raise CliConfigError("the d2 tensor has an unsolved boundary; use --solve-boundary")
        targets = {s: boxplus(ex, "v", *s) for s in sizes}
        result = pepsmod.solve_boundary(inst, targets, sizes)
        path = os.path.join(outdir, "boundary_d2.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
        if result.feasible:
            print(f"boundary solved (solution space dim {result.solution_space_dim})")
        else:
            print("boundary infeasible; certificate written")
        return 0
    raise CliConfigError(f"unknown PEPS representation {args.rep!r}")


def build_parser():
    parser = argparse.ArgumentParser(prog="hopf2d")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--q", action="append", default=None)
        p.add_argument("--config", default=None)

    v = sub.add_parser("verify", help="run axiom and relation checks")
    common(v)
    v.add_argument("--example", default="pivot",
                   choices=["pivot", "taft", "uq", "group", "lie",
                            "quasi1d-group", "quasi1d-lie", "cross"])
    v.add_argument("--sizes", default=None)
    v.add_argument("--checks", default=None)
    v.add_argument("--theta-over-pi", type=float, default=None)
    v.add_argument("--taft-n", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("build-op", help="export lattice operators as Matrix Market")
    common(b)
    b.add_argument("--gen", default=None)
    b.add_argument("--size", default=None)
    b.add_argument("--rmatrix2d", action="store_true")
    b.set_defaults(fn=cmd_build_op)

    p = sub.add_parser("peps", help="PEPS contraction checks and boundary solving")
    common(p)
    p.add_argument("--rep", default="d4", choices=["d4", "d2"])
    p.add_argument("--sizes", default=None)
    p.add_argument("--solve-boundary", action="store_true")
    p.add_argument("--mutate", default=None)
    p.set_defaults(fn=cmd_peps)
    return parser


def _apply_config_file(args, argv):
    """Fill the options not given on the command line ``argv`` from the
    ``--config`` JSON file.

    An option counts as given when a parse whose defaults are all
    suppressed records it, so an explicit flag wins even when its value
    equals the default.  Each config value goes through the same conversion
    as on the command line: the option's ``type`` and ``choices``, with
    lists of sizes, checks and q values joined as their flags spell them.
    A value the parser would reject is a :class:`CliConfigError`.
    """
    if not args.config:
        return args
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliConfigError(f"config file {args.config}: {exc}") from None
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions if hasattr(args, a.dest)}
    for action in actions.values():
        action.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        action = actions.get(attr)
        if action is None:
            raise CliConfigError(f"unknown config key {key!r}")
        if attr not in given:
            setattr(args, attr, _config_value(action, key, value))
    return args


def _config_value(action, key, value):
    """A config-file value as the parser would have stored it from the flag."""
    if value is None:
        return None
    if action.nargs == 0:  # store_true flags
        if not isinstance(value, bool):
            raise CliConfigError(f"config key {key!r} wants true or false, got {value!r}")
        return value
    convert = action.type or str
    try:
        if action.dest == "sizes" and isinstance(value, list):
            value = ",".join(f"{n}x{m}" for n, m in value)
        elif action.dest == "checks" and isinstance(value, list):
            value = ",".join(value)
        if isinstance(action, argparse._AppendAction):
            return [convert(str(v)) for v in (value if isinstance(value, list) else [value])]
        value = convert(str(value))
    except (TypeError, ValueError) as exc:
        raise CliConfigError(f"bad config value for {key!r}: {value!r} ({exc})") from None
    if action.choices is not None and value not in action.choices:
        raise CliConfigError(f"config key {key!r} must be one of {sorted(action.choices)}, "
                             f"got {value!r}")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, argv)
        return args.fn(args)
    except (CliConfigError, ConfigurationError, SingularParameterError,
            ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
