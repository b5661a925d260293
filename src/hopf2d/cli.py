"""Command-line front door: run axiom suites, export operators, PEPS checks.

Subcommands::

    hopf2d verify   --example pivot --sizes 2x2,3x3 --checks assoc,xycompat,counit
    hopf2d build-op --gen S+ --q 1.3 --size 2x3
    hopf2d peps     --rep d4 --sizes 1x1,1x2,2x2

One rule (:func:`_runs`) gives the sizes each ``verify`` check runs at,
and its reports name exactly those.  With n and m the largest row and
column counts of ``--sizes``: ``assoc`` and ``counit`` run on columns
(k x 1) of every length k up to n and rows (1 x k) up to m; ``xycompat``
and ``homomorphism`` at n x m; ``antipode`` on columns of n sites and rows
of m sites; ``ks`` and ``commutator`` at each size asked; ``kernel`` and
``rmatrix2d`` at 2x2, ``rmatrix1d`` at 1x2 and ``singlets`` at 1x2 and 2x2.
The deformed-su(2) checks need ``--example uq``, as ``semiclassical`` does;
each runs at its own q list, and every check that runs at one (q, size)
shares one :class:`uqsu2.OperatorTable` there (:func:`_uq_checks`), the
one input from which it reads its q, its size and its operators;
``homomorphism`` reads its operators from one
:class:`coalgebra.OperatorTable`, the table that every example uses and
the uq one extends.  ``ks`` and ``commutator`` build no operator: they
compare the MPOs of the table's elements (:mod:`hopf2d.automata`), so they
run at any size.  The checks that build operators (``homomorphism``,
``antipode`` and the other deformed-su(2) checks) work in one
representation: the left regular one of an example with a multiplication
rule (``taft``, ``group``; :func:`instances.regular_rep`), spin-1/2 for
``uq``.  Every operator the library builds meets one budget,
:func:`linops.require_budget`, which :func:`linops.kron_terms` enforces:
with d the dimension of one site in that representation, d**sites <=
2**SITE_CAP.  This module calls it too, for every run of a check that
builds operators, from d alone, so that a run past it is refused before
the representation is built or any check starts: it exits 2 and writes
nothing.  ``build-op`` meets the same budget, with the same message,
through its :class:`uqsu2.OperatorTable`.  README.md gives the time and
memory of runs near the budget.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
Every subcommand runs with numpy's overflow and invalid value warnings off
(:func:`main`; a library caller keeps them): a number that overflows fails
its check instance through its residual (NaN is written ``"nan"``), with
no warning or traceback, and ``build-op`` exits 1, writing nothing, when a
stored value is not finite; the one line it prints names the first such
entry, row-major.
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
    _instance,
    apply_splitter,
    boxplus,
    check_counit,
    check_antipode,
    check_homomorphism,
    check_quasi_1d_assoc,
    check_trivial_proposition,
    check_xy_compat,
    cube_xyz_compat,
    worst_residual,
)
from .grids import EQ_TOL, word1
from .instances import (
    UQ_NAMES,
    TaftConfig,
    make_cross,
    make_cyclic_group,
    make_lie_like,
    make_pivot,
    make_quasi1d_group,
    make_quasi1d_lie,
    make_taft,
    make_uq_symbolic,
    regular_rep,
)
from .linops import REP_ENTRY_CAP, ResourceLimitError, SparseOperator, require_budget


def _unrepeated(values, labels, what):
    """``values``, or a :class:`ConfigurationError` naming the first one that
    repeats an earlier one, by its label in ``labels``."""
    seen = set()
    for value, label in zip(values, labels):
        if value in seen:
            raise ConfigurationError(f"repeated {what} {label!r}")
        seen.add(value)
    return values


def _parse_sizes(text):
    sizes, chunks = [], [chunk.strip().lower() for chunk in text.split(",")]
    for chunk in chunks:
        try:
            n, m = chunk.split("x")
            sizes.append((int(n), int(m)))
        except ValueError:
            raise ConfigurationError(f"bad size {chunk!r}, expected NxM")
    if not sizes or any(n < 1 or m < 1 for n, m in sizes):
        raise ConfigurationError("sizes must be positive NxM pairs")
    return _unrepeated(sizes, chunks, "size")


def _parse_q_list(values, seed, count=10):
    if values:
        out = []
        for v in values:
            try:
                out.append(complex(v))
            except ValueError:
                raise ConfigurationError(f"bad q value {v!r}")
        return _unrepeated(out, values, "q value")
    rng = np.random.RandomState(seed)
    qs = []
    for _ in range(count // 2):
        qs.append(complex(rng.uniform(0.5, 2.0)))
    for _ in range(count - count // 2):
        qs.append(cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1)))
    return qs


def _tolerance(args):
    """``--tol``, or ``EQ_TOL`` when it is not given.  A given bound must be a
    finite number >= 0: a NaN or negative one fails every check, an infinite
    one passes every check."""
    if args.tol is None:
        return EQ_TOL
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ConfigurationError(f"--tol must be finite and non-negative, got {args.tol!r}")
    return args.tol


def _taft(n):
    return make_taft(TaftConfig(n=n, omega=-1.0 + 0j if n == 2 else cmath.exp(2j * math.pi / n)))


# the --example choices and their constructors; pivot reads --theta-over-pi,
# taft --taft-n and uq its first --q (or the first q of --seed's draw)
_EXAMPLES = {
    "pivot": lambda args: make_pivot(theta=(args.theta_over_pi or 0.0) * math.pi),
    "taft": lambda args: _taft(args.taft_n or 2),
    "uq": lambda args: make_uq_symbolic(_parse_q_list(args.q, args.seed, 1)[0]),
    "group": lambda args: make_cyclic_group(3),
    "lie": lambda args: make_lie_like(["a", "c"]),
    "quasi1d-group": lambda args: make_quasi1d_group(),
    "quasi1d-lie": lambda args: make_quasi1d_lie(),
    "cross": lambda args: make_cross(),
}


def _make_example(args):
    """The example ``--example`` names.  ``--theta-over-pi`` without
    ``--example pivot``, ``--taft-n`` without ``--example taft``, or ``--q``
    without ``--example uq``, is a :class:`ConfigurationError`: no other example
    reads them."""
    for flag, value, reader in (("--theta-over-pi", args.theta_over_pi, "pivot"),
                                ("--taft-n", args.taft_n, "taft"), ("--q", args.q, "uq")):
        if value is not None and args.example != reader:
            raise ConfigurationError(f"{flag} goes with --example {reader}; "
                                     f"--example {args.example} does not read it")
    return _EXAMPLES[args.example](args)


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


def _rep_for(ex, example_kind, built):
    """The representation of the checks that build operators: the regular
    one of an example with a multiplication rule, spin-1/2 for uq.  It is
    built only once every (check, n, m) run in ``built`` has passed the
    budget from the site dimension alone, and the regular one only once its
    own d**3 entries have passed :data:`linops.REP_ENTRY_CAP`."""
    if ex.multiplication is not None:
        dim, make = len(ex.alphabet), regular_rep
    elif example_kind == "uq":
        dim, make = 2, lambda ex: uqsu2.spin_half_rep(ex.meta["q"], ex.alphabet)
    else:
        raise ConfigurationError(f"no canonical representation for example {example_kind!r}")
    for name, n, m in built:
        require_budget(f"check {name!r} at {n}x{m}", dim, n * m)
    if ex.multiplication is not None and dim ** 3 > REP_ENTRY_CAP:
        raise ResourceLimitError(f"the regular representation of {ex.name} needs {dim}**3 "
                                 f"entries, past the budget {REP_ENTRY_CAP}")
    return make(ex)


def _runs(name, sizes):
    """The runs of check ``name`` given ``--sizes``, each (direction, n, m)
    with direction None for a check on whole n x m lattices: the one size
    rule of the module docstring, read by both the run and the report.  A
    check that does not read ``--sizes`` has no runs here."""
    max_n, max_m = max(n for n, _ in sizes), max(m for _, m in sizes)
    slices = [("x", k, 1) for k in range(1, max_n + 1)] + [("y", 1, k) for k in range(1, max_m + 1)]
    largest, each = [(None, max_n, max_m)], [(None, n, m) for n, m in sizes]
    rule = {"assoc": slices, "counit": slices, "xycompat": largest, "homomorphism": largest,
            "antipode": [("x", max_n, 1), ("y", 1, max_m)], "ks": each, "commutator": each,
            "kernel": [(None, 2, 2)], "singlets": [(None, 1, 2), (None, 2, 2)],
            "rmatrix1d": [(None, 1, 2)], "rmatrix2d": [(None, 2, 2)],
            **dict.fromkeys(("proposition", "cube", "semiclassical"), [])}
    if name not in rule:
        raise ConfigurationError(f"unknown check {name!r}")
    return rule[name]


def _run_checks(args):
    """The example and the reports of ``--checks``, run at the sizes
    :func:`_runs` gives them once every run of a check that builds
    operators has passed the budget (:func:`_rep_for`)."""
    sizes = _parse_sizes(args.sizes or "2x2,3x3")
    checks = (args.checks or "assoc,xycompat,counit").split(",")
    names = [c.strip() for c in checks if c.strip()]
    _unrepeated(names, names, "check")
    if not names:
        raise ConfigurationError(f"--checks {args.checks!r} names no check")
    tol = _tolerance(args)
    uq_only = [name for name in names if name in ("ks", "commutator", "kernel", "singlets",
                                                  "rmatrix1d", "rmatrix2d", "semiclassical")]
    if uq_only and args.example != "uq":
        raise ConfigurationError(f"check {uq_only[0]!r} needs --example uq")
    ex = _make_example(args)
    runs = {name: _runs(name, sizes) for name in names}
    uq_names = [name for name in uq_only if runs[name]]
    # the checks that build operators: ks and commutator compare MPOs instead
    builds = {"homomorphism", "antipode", *uq_names} - {"ks", "commutator"}
    built = [(name, n, m) for name in names if name in builds for _, n, m in runs[name]]
    rep = _rep_for(ex, args.example, built) if built else None
    # ten seeded q for the relation checks, twenty for the R-matrix checks
    qs = {name: _parse_q_list(args.q, args.seed, 20 if name.startswith("rmatrix") else 10)
          for name in uq_names}
    uq_reports = _uq_checks({name: runs[name] for name in uq_names}, qs, tol)
    reports = []
    for name in names:
        if name in ("assoc", "counit"):
            check = check_quasi_1d_assoc if name == "assoc" else check_counit
            reports += [check(ex, d, n if d == "x" else m, tol=tol) for d, n, m in runs[name]]
        elif name == "xycompat":
            reports += [check_xy_compat(ex, n, m, tol=tol) for _, n, m in runs[name]]
        elif name == "homomorphism":
            pairs = [(u, w) for u in ex.grow_symbols for w in ex.grow_symbols]
            reports += [check_homomorphism(ex, rep, n, m, pairs, tol=tol) for _, n, m in runs[name]]
        elif name == "antipode":
            reports += [check_antipode(ex, rep, d, n if d == "x" else m, tol=tol)
                        for d, n, m in runs[name]]
        elif name == "proposition":
            dx, dy = _one_site_rules(ex)
            common = [s for s in dx if s in dy]
            reports.append(check_trivial_proposition(dx, dy, common, tol=tol))
        elif name == "cube":
            reports.append(cube_xyz_compat(tol=tol))
        elif name == "semiclassical":
            reports.append(rmx.check_semiclassical([0.2, 0.1, 0.05, 0.025, 0.0125]))
        else:
            reports.append(uq_reports[name])
    return ex, reports


def _uq_checks(runs, qs, tol):
    """The deformed-su(2) checks, one report each, from their runs
    (:func:`_runs`) and their q lists by check name.

    Each distinct (q, size) step that some check runs at makes one
    :class:`uqsu2.OperatorTable`, which builds one example and each operator
    once for every check that runs there, and is dropped before the next
    step's table is built.  A q whose numbers overflow fails its checks
    through their residuals (NaN is written ``"nan"``), with no warning or
    traceback, under the numeric guard of :func:`main`.  Each report names
    its check's sizes and lists its instances in the order of its own q
    list, then of those sizes.  ``ks`` and ``commutator`` share the MPOs of
    a step's table, and build no operator: at 6x6 both take 0.34 s and
    52 MiB peak resident memory in one fresh process, interpreter start
    included.
    """
    steps = {}
    for name, check_runs in runs.items():
        for q in qs[name]:
            for _, n, m in check_runs:
                steps.setdefault((q, n, m), []).append(name)
    done = {}
    for (q, n, m), names in steps.items():
        ops = uqsu2.OperatorTable(q, n, m)
        for name in names:
            done[name, q, n, m] = _uq_instances(name, ops, tol)
        del ops
    return {name: CheckReport(name, [(n, m) for _, n, m in check_runs],
                              [inst for q in qs[name] for _, n, m in check_runs
                               for inst in done[name, q, n, m]])
            for name, check_runs in runs.items()}


def _uq_instances(name, ops, tol):
    """The instances of check ``name`` at the q and size of table ``ops``."""
    q, n, m = ops.q, ops.n, ops.m
    if name == "ks":
        return _prefixed(uqsu2.check_ks_relation(ops, tol), f"q={q:g},{n}x{m}")
    if name == "commutator":
        return _prefixed(uqsu2.check_commutator(ops, tol), f"q={q:g},{n}x{m}")
    if name == "kernel":
        k = uqsu2.kernel_2x2(ops)
        dim = k["dimension"]
        # the reversed-orientation control must leave the kernel
        ok = (dim == 2 and all(v <= tol for v in k["family_residuals"].values())
              and k["reversed_orientation_residual"] > tol)
        # operators that are not finite measure no dimension: the residual is NaN
        res = math.nan if dim is None else worst_residual(list(k["family_residuals"].values()))[1]
        basis = [[[c.real, c.imag] for c in col] for col in np.asarray(k["basis"]).T]
        return [CheckInstance(f"q={q:g}", ok, res, {"dimension": dim, "basis": basis})]
    if name == "singlets":
        if (n, m) == (1, 2):
            return _prefixed(uqsu2.singlet_pair_checks(ops, tol), f"q={q:g}")
        vres = uqsu2.vertical_singlet_residual(ops, tol)
        return [_instance(f"q={q:g} vertical {gen}", vres[gen]["residual_vs_pattern"], tol)
                for gen in ("S+", "S-")]
    if name == "rmatrix1d":
        # the two-site checks keep their own 1e-12 ceiling; --tol can only tighten it
        tol_1d = min(tol, 1e-12)
        r = rmx.r_matrix(q)
        res = float(np.abs(r - rmx.r_matrix_factorized(q)).max())
        instances = [_instance(f"q={q:g} closed==factorized", res, tol_1d)]
        for gen in ("S+", "S-"):
            res = float(np.abs(r @ ops[gen].toarray() - rmx.delta_perm(ops, gen) @ r).max())
            instances.append(_instance(f"q={q:g} intertwine {gen}", res, tol_1d))
        return instances
    chain = rmx.conjugation_chain(ops, "S+")
    big = chain["conjugator"]  # r2d(q), from the chain's own steps
    ends = chain["operators"]  # S+'s plaquette element first, its permuted one last
    instances = []
    for gen, (display, perm) in (("S+", (ends[0], ends[-1])),
                                 ("S-", rmx.plaquette_pair(ops, "S-"))):
        res = float(np.abs(big @ display - perm @ big).max())
        instances.append(_instance(f"q={q:g} intertwine {gen}", res, tol))
    return instances + [_instance(f"q={q:g} chain", worst_residual(chain["residuals"])[1], tol)]


def _prefixed(report, prefix):
    for inst in report.instances:
        inst.input = f"{prefix}:{inst.input}"
    return report.instances


def cmd_verify(args) -> int:
    ex, reports = _run_checks(args)
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
        _write_report(args, stem + ".json", json.dumps(payload, sort_keys=True))
        status = "pass" if rep.ok else "FAIL"
        print(f"{rep.check}: {status} (max residual {rep.max_residual:.3e})")
        all_ok = all_ok and rep.ok
    return 0 if all_ok else 1


def cmd_build_op(args) -> int:
    q, *more = _parse_q_list(args.q, args.seed, 1)
    if more:
        raise ConfigurationError(f"--q takes one value, got {args.q!r}")
    if args.rmatrix2d:
        for flag, value in (("--gen", args.gen), ("--size", args.size)):
            if value is not None:
                raise ConfigurationError(f"{flag} goes without --rmatrix2d; the 2x2 R-matrix "
                                         f"does not read it")
        gen, (n, m) = "rmatrix2d", (2, 2)
        name = f"rmatrix2d_q{q.real:g}{'+' if q.imag >= 0 else ''}{q.imag:g}j.mtx"
    else:
        if not args.gen:
            raise ConfigurationError("build-op needs --gen or --rmatrix2d")
        if args.gen not in UQ_NAMES:
            raise ConfigurationError(f"unknown generator {args.gen!r}; "
                                     f"--gen takes {', '.join(UQ_NAMES)}")
        sizes = _parse_sizes(args.size or "2x2")
        if len(sizes) > 1:
            raise ConfigurationError(f"--size takes one size, got {args.size!r}")
        gen, ((n, m),) = args.gen, sizes
        name = f"boxplus_{gen.replace('+', 'p').replace('-', 'm')}_{n}x{m}.mtx"
    op = SparseOperator(rmx.r2d(q)) if args.rmatrix2d else uqsu2.boxplus_op(gen, q, n, m)
    if not np.isfinite(op.mat.data).all():
        row, col, value = next(e for e in op.entries() if not cmath.isfinite(e[2]))
        print(f"error: {name} not written: its entry at row {row}, column {col} "
              f"(0-based) is {value}, not finite", file=sys.stderr)
        return 1
    outdir = args.out or "operators"
    os.makedirs(outdir, exist_ok=True)
    nnz = op.write_matrix_market(os.path.join(outdir, name))
    manifest = {"generator": gen, "q": [q.real, q.imag], "n": n, "m": m,
                "dim": op.dim, "nnz": nnz, "file": name}
    mpath = os.path.join(outdir, "manifest.json")
    with open(mpath, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    print(f"wrote {manifest['file']} (dim {manifest['dim']}, nnz {manifest['nnz']})")
    return 0


def cmd_peps(args) -> int:
    ex = make_pivot(theta=0.0)
    sizes = _parse_sizes(args.sizes or "1x1,1x2,2x1,2x2,3x3")
    if args.rep == "d4":
        if args.solve_boundary:
            raise ConfigurationError("--solve-boundary goes with --rep d2; d4's boundary is given")
        tol = _tolerance(args)
        inst = pepsmod.d4_instance()
        if args.mutate:
            kind, _, idx = args.mutate.partition(":")
            if kind != "drop" or not idx.isdigit():
                raise ConfigurationError(f"unknown mutation {args.mutate!r}, expected drop:K")
            inst = pepsmod.mutate_drop(inst, int(idx))
        report = pepsmod.check_peps_vs_boxplus(inst, ex, "v", sizes, tol=tol)
        _write_report(args, "peps_d4.json", report.to_json())
        print(f"peps d4: {'pass' if report.ok else 'FAIL'} (max residual {report.max_residual:.3e})")
        return 0 if report.ok else 1
    for flag, value in (("--tol", args.tol), ("--mutate", args.mutate)):
        if value is not None:
            raise ConfigurationError(f"{flag} goes with --rep d4; --rep d2 does not read it")
    if not args.solve_boundary:
        raise ConfigurationError("the d2 tensor has an unsolved boundary; use --solve-boundary")
    targets = {s: boxplus(ex, "v", *s) for s in sizes}
    result = pepsmod.solve_boundary(pepsmod.d2_instance(), targets, sizes)
    _write_report(args, "boundary_d2.json", result.to_json())
    if result.feasible:
        print(f"boundary solved (solution space dim {result.solution_space_dim})")
    else:
        print("boundary infeasible; certificate written")
    return 0


def _write_report(args, name, text):
    """Write one report file into ``--out`` (default ``reports``), made only now."""
    outdir = args.out or "reports"
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def build_parser():
    parser = argparse.ArgumentParser(prog="hopf2d")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)

    def tol(p):
        p.add_argument("--tol", type=float, default=None,
                       help="residual bound of every check; rmatrix1d uses min(TOL, 1e-12), "
                            "semiclassical uses its own slope window [0.9, 1.1] and "
                            "refinement bounds instead")

    def q_list(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--q", action="append", default=None)

    v = sub.add_parser("verify", help="run axiom and relation checks")
    common(v)
    tol(v)
    q_list(v)
    v.add_argument("--example", default="pivot",
                   choices=list(_EXAMPLES))
    v.add_argument("--sizes", default=None)
    v.add_argument("--checks", default=None)
    v.add_argument("--theta-over-pi", type=float, default=None)
    v.add_argument("--taft-n", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("build-op", help="export lattice operators as Matrix Market")
    common(b)
    q_list(b)
    b.add_argument("--gen", default=None)
    b.add_argument("--size", default=None)
    b.add_argument("--rmatrix2d", action="store_true")
    b.set_defaults(fn=cmd_build_op)

    p = sub.add_parser("peps", help="PEPS contraction checks and boundary solving")
    common(p)
    tol(p)
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
    A value the parser would reject is a :class:`ConfigurationError`.
    """
    if not args.config:
        return args
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {args.config}: {exc}") from None
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
            raise ConfigurationError(f"unknown config key {key!r}")
        if attr not in given:
            setattr(args, attr, _config_value(action, key, value))
    return args


def _config_value(action, key, value):
    """A config-file value as the parser would have stored it from the flag."""
    if value is None:
        return None
    if action.nargs == 0:  # store_true flags
        if not isinstance(value, bool):
            raise ConfigurationError(f"config key {key!r} wants true or false, got {value!r}")
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
        raise ConfigurationError(f"bad config value for {key!r}: {value!r} ({exc})") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigurationError(f"config key {key!r} must be one of {sorted(action.choices)}, "
                                 f"got {value!r}")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, argv)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails as "nan"
            return args.fn(args)
    except (ConfigurationError, SingularParameterError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
