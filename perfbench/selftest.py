"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

It checks that
- a short run of each workload prints every metric named in BENCHMARK.json
  with its unit, in the readable table and in the result line, with every
  output check passing;
- two traced runs with the same seed report identical counts;
- a planted wrong output on each workload drives the failed ratio above 0;
- without the hopf2d sources the benchmark exits nonzero and prints no result.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHORT = "1"
SEED = "7"


def bench(args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result_line(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


def check_printed(spec, problems):
    counts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer"), ("1", None)):
            rc, lines, err = bench(["--workload", workload, "--seed", SEED,
                                    "--seconds", SHORT, "--trace", trace])
            if rc != 0:
                problems.append(f"{workload} trace {trace}: exit {rc}: {err[-500:]}")
                continue
            out = result_line(lines)
            if not (out["correct"] and out["attempted"] > 0 and out["failed"] == 0):
                problems.append(f"{workload} trace {trace}: output checks failed: {out}")
            if key is None:
                if counts[workload] != first_pass_counts(out):
                    problems.append(f"{workload}: counts differ between two traced runs")
                continue
            table = "\n".join(lines[:-1])
            names = {m["name"]: m["unit"] for m in spec[key]}
            if set(out["metrics"]) != set(names):
                problems.append(f"{workload} trace {trace}: metrics {sorted(out['metrics'])} "
                                f"!= {sorted(names)}")
            for name, unit in names.items():
                got = out["metrics"].get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload}: {name} printed as {got}")
                if f"{name} " not in table:
                    problems.append(f"{workload}: {name} missing from the table")
            if trace == "0" and "failed_ratio" not in table:
                problems.append(f"{workload}: failed_ratio missing from the table")
            if trace == "1":
                counts[workload] = first_pass_counts(out)


def first_pass_counts(out):
    sys.path.insert(0, str(HERE))
    import tracer

    return {k: v["value"] for k, v in out["metrics"].items() if k in tracer.FIRST_PASS}


def _corrupt_sum(s, factor=1.5):
    items = s.items()
    return type(s)(s.shape, [(w, c * factor if k == 0 else c) for k, (w, c) in enumerate(items)])


def _corrupt_reports(reports):
    reports[0].instances[0].residual = 1.0
    return reports


def _corrupt_export(out):
    rc, mat = out
    mat = mat.copy()
    mat.data[0] *= 1.5
    return rc, mat


PLANTS = {
    "grow": ("pivot0_v_10x10", _corrupt_sum),
    "axioms": ("uq_assoc_counit", _corrupt_reports),
    "operators": ("build_op_S+_3x4", _corrupt_export),
    "peps": ("d4_contract_le3x3", lambda outs: outs[:-1] + [_corrupt_sum(outs[-1])]),
}


def check_planted(problems):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run

    for workload, (job, corrupt) in PLANTS.items():
        def plant(name, out, job=job, corrupt=corrupt):
            return corrupt(out) if name == job else out

        result = run.measure(workload, int(SEED), 0.1, plant=plant)
        ratio = result["failed"] / result["attempted"]
        if not ratio > 0:
            problems.append(f"{workload}: planted fault in {job} left failed_ratio at {ratio}")
        if result["end_to_end"]["passed_ratio"] >= 1.0:
            problems.append(f"{workload}: planted fault left passed_ratio at 1")


def check_without_sources(problems):
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines, _ = bench(["--workload", "grow", "--seed", SEED, "--seconds", SHORT,
                              "--trace", "0"], cwd=bare, script=bare / HERE.name / "run.py")
        if rc == 0 or any(line.startswith("{") for line in lines):
            problems.append(f"without sources: exit {rc}, output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    check_without_sources(problems)
    check_printed(spec, problems)
    check_planted(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
