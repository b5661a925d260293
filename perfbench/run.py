"""hopf2d benchmark: one workload per run, from the repository root.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 20 --trace 0

Workloads: grow, axioms, operators, peps (see workloads.py and
BENCHMARK.json).  Load comes from one closed-loop caller in this process: a
job starts when the previous one returns.  A run is set-up, one warm-up
pass, then timed passes over the workload's job list until ``--seconds``
have elapsed; every pass draws fresh inputs from the seed and pass index,
and every output is checked after the pass, outside the timed region.

Times are reported in calibrated seconds.  On the 2-core reference machine
the speed of the whole guest drifts by 20-30% within seconds (other guests
on the host), while a short fixed pure-Python loop run next to the work
slows by the same factor: over one minute the ratio of a growth or PEPS job
to the loop stayed within 2-4% while either alone moved by up to 60%.  The
loop is timed before and after every job and every set-up step, and each
wall time is scaled by ``CAL_NOMINAL_S`` over the mean of the two loop
times around it; a pass time is the sum of its calibrated job times.  The
raw wall times are printed next to the calibrated ones.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics of the traced passes and the tracing overhead
against the untraced ones; the spans of the first traced pass are written to
``.perfbench/trace-<workload>.jsonl``.  Lines before the last one give the
readable table, the environment record and a summary object.
"""

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up is repeated this many times in a run and its median reported.
SETUP_REPEATS = 5
# Time of calibrate() on the reference machine when the host is quiet.
CAL_NOMINAL_S = 0.015
LIBRARY = ("grids", "linops", "coalgebra", "instances", "uqsu2", "rmatrix", "peps", "cli")
END_TO_END = (("pass_s", "s"), ("largest_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("passed_ratio", "1"))


def calibrate():
    """Wall time of a fixed loop of tuple hashing and dict updates."""
    t0 = time.perf_counter()
    d = {}
    for i in range(60000):
        k = (i % 977, i % 13, "x")
        d[k] = d.get(k, 0) + 1
    return time.perf_counter() - t0


def scale(before, after):
    return CAL_NOMINAL_S / (0.5 * (before + after))


def load_library():
    """Import hopf2d afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "hopf2d" or n.startswith("hopf2d.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{n: importlib.import_module(f"hopf2d.{n}") for n in LIBRARY})
    if Path(lib.grids.__file__).resolve().parent != SRC / "hopf2d":
        raise ImportError(f"hopf2d imported from {lib.grids.__file__}, not from {SRC}")
    return lib


def median(values):
    return statistics.median(values) if values else float("nan")


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    p = int(100 * (1 - 10 / n)) if n else 0
    return p if p >= 50 else None


def openblas_threads():
    """Thread count of every loaded OpenBLAS, read through its own API."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(args, passes):
    import numpy
    import scipy

    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        rev = head.read_text().strip()
        ref = ROOT / ".git" / rev[5:]
        if rev.startswith("ref: ") and ref.is_file():
            rev = ref.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "hopf2d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": openblas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "cal_nominal_s": CAL_NOMINAL_S,
    }


def check_outputs(outputs, plant=None):
    """Judge a pass's outputs; returns (attempted, failed, failure labels)."""
    attempted = failed = 0
    failures = []
    for job, out, err in outputs:
        if err is None and plant is not None:
            out = plant(job.name, out)
        if err is not None:
            verdicts = [(f"{job.name}: raised {type(err).__name__}: {err}", False)]
        else:
            try:
                verdicts = job.check(out) or [(f"{job.name}: no verdicts", False)]
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                verdicts = [(f"{job.name}: check raised {type(exc).__name__}: {exc}", False)]
        attempted += len(verdicts)
        for label, ok in verdicts:
            if not ok:
                failed += 1
                failures.append(label)
    return attempted, failed, failures


def run_pass(jobs, tracer=None):
    """Run one pass's jobs back to back, timing the calibration loop before
    each job and after the last.  Returns calibrated job times, wall job
    times and the outputs."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    outputs, walls, cals = [], {}, [calibrate()]
    for job in jobs:
        with span(f"bench.job.{job.name}"):
            t0 = time.perf_counter()
            try:
                out, err = job.run(), None
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                out, err = None, exc
            walls[job.name] = time.perf_counter() - t0
        cals.append(calibrate())
        outputs.append((job, out, err))
    times = {name: t * scale(cals[k], cals[k + 1]) for k, (name, t) in enumerate(walls.items())}
    return times, walls, outputs


def measure(workload_name, seed, seconds, trace=False, plant=None, startup_s=0.0,
            cal=None):
    """Set up, warm up and run timed passes for ``seconds``; return the result dict.

    ``startup_s`` is the calibrated time from process start to the
    third-party imports done, paid once per process and added to the median
    set-up time; ``cal`` is the calibration loop timed right after them.
    ``plant`` may replace a job's output before it is checked.
    """
    import workloads

    cal = cal or calibrate()
    workload = workloads.WORKLOADS[workload_name]
    setup_walls, setups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = load_library()
        state = workload.setup(lib)
        setup_walls.append(time.perf_counter() - t0)
        before, cal = cal, calibrate()
        setups.append(setup_walls[-1] * scale(before, cal))
    setup_s = startup_s + median(setups)

    tracing = tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer({n: getattr(lib, n) for n in tracing.LAYERS})
    workdir = str(OUT / f"work-{os.getpid()}")
    attempted = failed = 0
    failures = []
    walls, passes, traced, job_times, layer_passes = [], [], [], {}, []
    try:
        index, deadline = 0, None
        while True:
            is_traced = tracer is not None and index > 0 and index % 2 == 0
            rng = random.Random(f"{seed}:{workload_name}:{index}")
            passdir = os.path.join(workdir, f"pass{index}")
            jobs = workload.jobs(lib, state, rng, passdir)
            if is_traced:
                tracer.install(index)
            times, job_walls, outputs = run_pass(jobs, tracer if is_traced else None)
            spans = tracer.uninstall() if is_traced else None
            a, f, labels = check_outputs(outputs, plant)
            shutil.rmtree(passdir, ignore_errors=True)
            attempted, failed = attempted + a, failed + f
            failures += labels
            pass_s, pass_wall = sum(times.values()), sum(job_walls.values())
            if spans is not None:
                metrics = tracing.pass_metrics(*spans)
                for name in tracing.SELF_TIME:
                    metrics[name] *= pass_s / pass_wall
                layer_passes.append(metrics)
                traced.append(pass_s)
                del spans
            elif index > 0:
                walls.append(pass_wall)
                passes.append(pass_s)
                for name, t in times.items():
                    job_times.setdefault(name, []).append(t)
            if index == 0:
                deadline = time.perf_counter() + seconds
            index += 1
            enough = passes and (traced or tracer is None)
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": workload_name,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_samples": setups,
        "setup_wall_samples": setup_walls,
        "pass_wall_times": walls,
        "pass_times": passes,
        "largest_times": job_times.get(workload.largest, []),
        "job_median_s": {name: median(ts) for name, ts in job_times.items()},
    }
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["end_to_end"] = {
        "pass_s": median(passes),
        "largest_s": median(result["largest_times"]),
        "setup_s": setup_s,
        "peak_rss_mib": rss_kib / 1024.0,
        "passed_ratio": 1.0 - failed / attempted if attempted else 0.0,
    }
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracing, layer_passes, passes, traced)
        result["trace_file"] = str(OUT / f"trace-{workload_name}.jsonl")
        result["trace_bindings"] = tracer.bindings()
        tracer.write(result["trace_file"])
    return result


def layer_metrics(tracing, per_pass, untraced, traced):
    """Medians over the traced passes; counts from the first traced pass."""
    out = {}
    for name, _, _ in tracing.PER_LAYER:
        if name in tracing.FIRST_PASS:
            out[name] = per_pass[0][name]
        elif name in per_pass[0]:
            out[name] = median([m[name] for m in per_pass])
    out["traced_pass_s"] = median(traced)
    out["untraced_pass_s"] = median(untraced)
    out["trace_overhead"] = out["traced_pass_s"] / out["untraced_pass_s"] - 1.0
    return out


def report(args, result):
    """Print the readable table, the environment and summary lines, then the result line."""
    units = dict(END_TO_END)
    n = result["passes"]
    print(f"hopf2d benchmark: workload {args.workload}, seed {args.seed}, "
          f"{n} timed passes, trace {'on' if args.trace else 'off'}")
    samples = {"pass_s": len(result["pass_times"]),
               "largest_s": len(result["largest_times"]),
               "setup_s": len(result["setup_samples"])}
    for name, value in result["end_to_end"].items():
        extra = f"  (median of {samples[name]})" if name in samples else ""
        print(f"  {name:<14} {value:.6g} {units[name]}{extra}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_ratio':<14} {ratio:.6g} 1  ({result['failed']} failed / "
          f"{result['attempted']} attempted output checks)")
    print(f"  {'pass_wall_s':<14} {median(result['pass_wall_times']):.6g} s  (uncalibrated)")
    p = tail_percentile(n)
    if p is not None:
        tail = statistics.quantiles(result["pass_times"], n=100)[p - 1]
        print(f"  pass_s p{p}    {tail:.6g} s")
    for label in result["failures"]:
        print(f"  FAILED {label}", file=sys.stderr)
    if args.trace:
        import tracer as tracing

        for name, unit, _ in tracing.PER_LAYER:
            print(f"  {name:<26} {result['per_layer'][name]:.6g} {unit}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    print("env " + json.dumps(environment(args, n), sort_keys=True))
    print("summary " + json.dumps(result, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0 and result["attempted"] > 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grow", "axioms", "operators", "peps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopf2d" / "__init__.py").is_file():
        print(f"error: no hopf2d sources under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded BLAS: the machine has two cores and one caller.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    before_cal = time.perf_counter()
    cal_before = calibrate()
    t_imports = time.perf_counter()
    import numpy  # noqa: F401  the library's third-party imports, paid once
    import scipy.sparse  # noqa: F401

    startup_wall = (before_cal - _T0) + (time.perf_counter() - t_imports)
    cal = calibrate()
    sys.path[:0] = [str(SRC), str(HERE)]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     startup_s=startup_wall * scale(cal_before, cal), cal=cal)
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
