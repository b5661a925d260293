import json
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import hopf2d
from hopf2d import cli, linops
from hopf2d.cli import main
from hopf2d.coalgebra import DomainError, MultiplicationRule, check_antipode
from hopf2d.grids import ShapeError
from hopf2d.instances import taft_basis_name
from hopf2d.linops import SparseOperator, read_matrix_market


def read_all(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_verify_pivot_suite(tmp_path):
    out = tmp_path / "r"
    code = main(["verify", "--example", "pivot", "--sizes", "2x2,3x3",
                 "--checks", "assoc,xycompat,counit", "--out", str(out)])
    assert code == 0
    reports = read_all(out)
    assert "xy_compat.json" in reports
    payload = json.loads(reports["xy_compat.json"])
    assert payload["max_residual"] == 0.0
    assert payload["seed"] == 42


def test_verify_uq_checks(tmp_path):
    code = main(["verify", "--example", "uq", "--q", "2.0",
                 "--checks", "ks,commutator,kernel", "--sizes", "2x2",
                 "--out", str(tmp_path / "r")])
    assert code == 0


def test_verify_uq_builds_each_operator_once_per_q_and_size(tmp_path, monkeypatch):
    real, calls, built = cli.uqsu2.OperatorTable.__missing__, {}, []

    def missing(table, gen):
        step = (complex(table.q), table.n, table.m)
        # every operator of an earlier (q, size) step is gone before this one's are built
        assert all(ref() is None for s, ref in built if s != step), (gen, step)
        calls[(gen, *step)] = calls.get((gen, *step), 0) + 1
        out = real(table, gen)
        built.append((step, weakref.ref(out)))
        return out

    monkeypatch.setattr(cli.uqsu2.OperatorTable, "__missing__", missing)
    argv = ["verify", "--example", "uq", "--checks", "ks,commutator,kernel,singlets",
            "--sizes", "2x2,2x3", "--out", str(tmp_path / "r")]
    assert main(argv[:3] + ["--q", "1.3"] + argv[3:]) == 0
    # ks and commutator build no operator: the kernel's S+ and S- at 2x2 and
    # the singlet pair checks' four at 1x2 are all, and nothing at 2x3
    assert calls == ({(g, 1.3, 2, 2): 1 for g in ("S+", "S-")}
                     | {(g, 1.3, 1, 2): 1 for g in ("S+", "S-", "K+", "K-")})
    calls.clear()
    assert main(argv[:3] + ["--q", "1.3", "--q", "0.7"] + argv[3:]) == 0
    assert set(calls.values()) == {1} and len(calls) == 12
    # the default lists: 10 seeded q for kernel, 20 for rmatrix2d, 5 of them shared
    calls.clear()
    assert main(argv[:3] + ["--checks", "kernel,rmatrix2d", "--out", str(tmp_path / "d")]) == 0
    kernel_qs, rmatrix_qs = cli._parse_q_list(None, 42, 10), cli._parse_q_list(None, 42, 20)
    assert len(set(kernel_qs) & set(rmatrix_qs)) == 5
    assert calls == {(g, q, 2, 2): 1 for g in ("S+", "S-") for q in kernel_qs}
    # and one table, so one example, at each of the 25 distinct q, besides the CLI's own
    examples = _counted_examples(monkeypatch)
    assert main(argv[:3] + ["--checks", "kernel,rmatrix2d", "--out", str(tmp_path / "e")]) == 0
    assert len(examples) == 1 + 25


def _counted_examples(monkeypatch):
    """Record the q of every deformed-su(2) example the CLI and its checks build."""
    real, built = cli.make_uq_symbolic, []

    def make(q):
        built.append(q)
        return real(q)

    for module in (cli, cli.uqsu2):
        monkeypatch.setattr(module, "make_uq_symbolic", make)
    return built


@pytest.mark.parametrize("checks, examples", [
    # the CLI's example, the 2x2 and 3x3 tables and the singlets' 1x2 table
    ("ks,commutator,kernel,singlets", 4),
    # no 3x3 table: that step runs no check
    ("kernel,singlets", 3),
    # the CLI's example, the 1x2 table and the 2x2 table
    ("rmatrix1d,rmatrix2d", 3),
    # one table per (q, size), shared by the relation and the R-matrix checks
    ("kernel,singlets,rmatrix1d,rmatrix2d", 3),
])
def test_verify_uq_builds_one_example_per_q_and_size(tmp_path, monkeypatch, checks, examples):
    built = _counted_examples(monkeypatch)
    assert main(["verify", "--example", "uq", "--q", "2.0", "--checks", checks,
                 "--out", str(tmp_path / "r")]) == 0
    assert len(built) == examples and set(built) == {2.0}


def test_the_readme_rmatrix_run_builds_one_example_per_q_and_size(tmp_path, monkeypatch):
    built = _counted_examples(monkeypatch)
    assert main(["verify", "--example", "uq", "--checks", "rmatrix1d,rmatrix2d,semiclassical",
                 "--out", str(tmp_path / "r")]) == 0
    # the CLI's example, then a 1x2 and a 2x2 table at each of the 20 seeded q
    assert len(built) == 41
    assert all(built.count(q) == 2 for q in cli._parse_q_list(None, 42, 20))


def test_the_rmatrix_checks_grow_each_element_once(tmp_path, monkeypatch):
    # rmatrix1d's permuted coproduct reads the element its operator was built from
    real, grown = cli.uqsu2.coalgebra.boxplus, []

    def counted(ex, gen, n, m):
        grown.append((gen, n, m))
        return real(ex, gen, n, m)

    monkeypatch.setattr(cli.uqsu2.coalgebra, "boxplus", counted)
    assert main(["verify", "--example", "uq", "--q", "1.3", "--checks", "rmatrix1d,rmatrix2d",
                 "--out", str(tmp_path / "r")]) == 0
    assert sorted(grown) == [(g, n, 2) for g in ("S+", "S-") for n in (1, 2)]


def test_a_nan_in_the_chain_residuals_is_the_chain_residual(tmp_path, monkeypatch):
    # planted values: the real chain only reaches NaN through overflowing products
    real = cli.rmx.conjugation_chain

    def planted(*args, **kwargs):
        return {**real(*args, **kwargs), "residuals": [1.0, float("nan"), 1.0]}

    monkeypatch.setattr(cli.rmx, "conjugation_chain", planted)
    out = tmp_path / "r"
    assert main(["verify", "--example", "uq", "--q", "1.3", "--checks", "rmatrix2d",
                 "--out", str(out)]) == 1
    report = json.loads(read_all(out)["rmatrix2d.json"])
    assert [(i["input"], i["pass"], i["residual"]) for i in report["instances"]
            if not i["pass"]] == [("q=1.3+0j chain", False, "nan")]
    assert report["max_residual"] == "nan"


@pytest.mark.parametrize("q, check, failed", [
    ("1e-125", "rmatrix2d", "q=1e-125+0j chain"),
    ("1e-300", "kernel", "q=1e-300+0j"),
])
def test_an_overflowing_q_writes_a_failing_report_and_no_warning(tmp_path, q, check, failed):
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--example", "uq", "--q", q, "--checks", check,
                     "--out", str(out)]) == 1
    report = json.loads(read_all(out)[f"{check}.json"])
    assert {i["input"]: i["residual"] for i in report["instances"]}[failed] == "nan"
    assert report["max_residual"] == "nan"
    if check == "kernel":
        assert report["instances"][0]["details"] == {"basis": [], "dimension": None}


def test_an_overflowing_antipode_run_writes_both_reports_and_no_warning(tmp_path):
    # the antipode runs outside the deformed-su(2) steps: the one numeric
    # guard around every subcommand covers it too
    out = tmp_path / "r"
    argv = ["verify", "--example", "uq", "--q", "1e160", "--sizes", "3x3", "--checks", "antipode"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(out)]) == 1
    reports = read_all(out)
    assert sorted(reports) == ["antipode_x.json", "antipode_y.json"]
    worst = {name: json.loads(text)["max_residual"] for name, text in reports.items()}
    assert worst["antipode_y.json"] == "nan"
    assert not all(i["pass"] for i in json.loads(reports["antipode_y.json"])["instances"])
    # a library caller keeps numpy's warnings
    ex = cli.make_uq_symbolic(1e160)
    with pytest.warns(RuntimeWarning):
        check_antipode(ex, cli.uqsu2.spin_half_rep(1e160, ex.alphabet), "y", 3)


def test_shared_tables_keep_every_report_byte(tmp_path):
    argv = ["verify", "--example", "uq", "--q", "1.3", "--checks"]
    together, apart = tmp_path / "together", tmp_path / "apart"
    assert main(argv + ["kernel,singlets,rmatrix1d,rmatrix2d", "--out", str(together)]) == 0
    assert main(argv + ["kernel,singlets", "--out", str(apart)]) == 0
    assert main(argv + ["rmatrix1d,rmatrix2d", "--out", str(apart)]) == 0
    assert read_all(together) == read_all(apart)


def test_kernel_and_singlets_name_the_sizes_they_run_at(tmp_path):
    out = tmp_path / "r"
    assert main(["verify", "--example", "uq", "--q", "2.0", "--checks", "kernel,singlets",
                 "--sizes", "3x3", "--out", str(out)]) == 0
    assert json.loads((out / "kernel.json").read_text())["sizes"] == [[2, 2]]
    assert json.loads((out / "singlets.json").read_text())["sizes"] == [[1, 2], [2, 2]]


def _slice(direction, k):
    return (k, 1) if direction == "x" else (1, k)


# check -> (its example's options, the dimension of one site in the example's
# representation for checks that build operators, and each library function
# it calls with the size one call runs at, from the call's arguments)
RULE_CHECKS = {
    "assoc": ([], None, {(cli, "check_quasi_1d_assoc"): lambda ex, d, k, **_: _slice(d, k)}),
    "counit": ([], None, {(cli, "check_counit"): lambda ex, d, k, **_: _slice(d, k)}),
    "xycompat": ([], None, {(cli, "check_xy_compat"): lambda ex, n, m, **_: (n, m)}),
    "homomorphism": (["--example", "taft"], 4,
                     {(cli, "check_homomorphism"): lambda ex, rep, n, m, pairs, **_: (n, m)}),
    "antipode": (["--example", "taft"], 4,
                 {(cli, "check_antipode"): lambda ex, rep, d, k, **_: _slice(d, k)}),
    # ks and commutator build no operator, so no budget applies to them
    "ks": (["--example", "uq", "--q", "1.3"], None,
           {(cli.uqsu2, "check_ks_relation"): lambda ops, *_: (ops.n, ops.m)}),
    "commutator": (["--example", "uq", "--q", "1.3"], None,
                   {(cli.uqsu2, "check_commutator"): lambda ops, *_: (ops.n, ops.m)}),
    "kernel": (["--example", "uq", "--q", "1.3"], 2,
               {(cli.uqsu2, "kernel_2x2"): lambda ops, *_: (ops.n, ops.m)}),
    "singlets": (["--example", "uq", "--q", "1.3"], 2,
                 {(cli.uqsu2, "singlet_pair_checks"): lambda ops, *_: (ops.n, ops.m),
                  (cli.uqsu2, "vertical_singlet_residual"): lambda ops, *_: (ops.n, ops.m)}),
    # delta_perm runs once for each generator: the S+ call stands for the run
    "rmatrix1d": (["--example", "uq", "--q", "1.3"], 2,
                  {(cli.rmx, "delta_perm"): lambda ops, gen: (ops.n, ops.m)
                   if gen == "S+" else None}),
    "rmatrix2d": (["--example", "uq", "--q", "1.3"], 2,
                  {(cli.rmx, "conjugation_chain"): lambda ops, *_: (ops.n, ops.m)}),
}


def _ruled_sizes(check, sizes):
    """The sizes ``check`` must run at and name for ``--sizes``: slices of
    every length up to each axis's extent, the largest extents, slices of
    the largest extent along each axis, each size asked, or fixed sizes."""
    max_n, max_m = max(n for n, _ in sizes), max(m for _, m in sizes)
    slices = [(k, 1) for k in range(1, max_n + 1)] + [(1, k) for k in range(1, max_m + 1)]
    return {"assoc": slices, "counit": slices, "xycompat": [(max_n, max_m)],
            "homomorphism": [(max_n, max_m)], "antipode": [(max_n, 1), (1, max_m)],
            "ks": sizes, "commutator": sizes, "kernel": [(2, 2)],
            "singlets": [(1, 2), (2, 2)], "rmatrix1d": [(1, 2)], "rmatrix2d": [(2, 2)]}[check]


def _recorded_calls(monkeypatch, functions):
    """Record the size of every call of ``functions`` (as in RULE_CHECKS)
    that stands for a run: one whose size is not None."""
    ran = []
    for (module, name), size_of in functions.items():
        def wrapped(*args, real=getattr(module, name), size_of=size_of, **kwargs):
            size = size_of(*args, **kwargs)
            if size is not None:
                ran.append(size)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    return ran


@pytest.mark.parametrize("sizes", ["1x5", "5x1", "2x2,3x4"])
@pytest.mark.parametrize("check", list(RULE_CHECKS))
def test_every_check_runs_at_the_sizes_its_reports_name(tmp_path, monkeypatch, check, sizes):
    options, dim, functions = RULE_CHECKS[check]
    ran = _recorded_calls(monkeypatch, functions)
    want = _ruled_sizes(check, [tuple(map(int, s.split("x"))) for s in sizes.split(",")])
    out = tmp_path / "r"
    code = main(["verify", *options, "--sizes", sizes, "--checks", check, "--out", str(out)])
    if dim is not None and any(dim ** (n * m) > 2 ** linops.SITE_CAP for n, m in want):
        assert (code, ran, out.exists()) == (2, [], False)  # past the budget: nothing runs
        return
    assert code == 0
    named = [tuple(size) for report in read_all(out).values()
             for size in json.loads(report)["sizes"]]
    assert sorted(ran) == sorted(named) == sorted(want)


def _planted_taft(monkeypatch, plant):
    """Make ``--example taft`` build taft(n) with ``plant(ex, exponents)``
    applied, ``exponents`` mapping each basis symbol g^i x^j to (i, j)."""
    real = cli.make_taft

    def make(cfg):
        ex = real(cfg)
        plant(ex, {ex.alphabet[taft_basis_name(i, j)]: (i, j)
                   for i in range(cfg.n) for j in range(cfg.n)})
        return ex

    monkeypatch.setattr(cli, "make_taft", make)


def test_a_wrong_taft_omega_exponent_fails_homomorphism_at_3x3(tmp_path, monkeypatch):
    def plant(ex, exponents):  # x g = omega^2 g x instead of omega g x
        real, omega = ex.multiplication, ex.meta["taft"].omega
        ex.multiplication = MultiplicationRule(
            lambda u, w: real(u, w) * omega ** (exponents[u][1] * exponents[w][0]))

    _planted_taft(monkeypatch, plant)
    out = tmp_path / "r"
    assert main(["verify", "--example", "taft", "--sizes", "3x3", "--checks", "homomorphism",
                 "--out", str(out)]) == 1
    report = json.loads((out / "homomorphism.json").read_text())
    assert report["sizes"] == [[3, 3]]
    failed = [i for i in report["instances"] if not i["pass"]]
    assert failed and all(set(i["details"]["worst_entry"]) == {"row", "col", "lhs", "rhs"}
                          for i in failed)
    assert failed[0]["details"]["worst_entry"]["lhs"] != failed[0]["details"]["worst_entry"]["rhs"]


def test_a_flipped_antipode_sign_fails_on_5_site_slices(tmp_path, monkeypatch):
    def plant(ex, exponents):  # a marked row's antipode loses its minus sign
        rules = ex.antipode.rules
        real = rules["y"]
        rules["y"] = lambda word: real(word) * (-1 if any(exponents[c][1] for c in word.cells)
                                               else 1)

    _planted_taft(monkeypatch, plant)
    out = tmp_path / "r"
    assert main(["verify", "--example", "taft", "--sizes", "1x5", "--checks", "antipode",
                 "--out", str(out)]) == 1
    by_axis = {axis: json.loads((out / f"antipode_{axis}.json").read_text()) for axis in "xy"}
    assert all(i["pass"] for i in by_axis["x"]["instances"]) and by_axis["x"]["sizes"] == [[1, 1]]
    assert by_axis["y"]["sizes"] == [[1, 5]]
    failed = [i for i in by_axis["y"]["instances"] if not i["pass"]]
    assert failed and all(set(i["details"]["worst_entry"]) == {"row", "col", "lhs", "rhs"}
                          for i in failed)


@pytest.mark.parametrize("argv", [
    ["--example", "taft", "--sizes", "4x4", "--checks", "homomorphism"],
    ["--example", "taft", "--sizes", "4x4", "--checks", "counit,antipode,homomorphism"],
    ["--example", "taft", "--taft-n", "3", "--checks", "homomorphism"],
    ["--example", "uq", "--q", "1.3", "--sizes", "2x2,19x1", "--checks", "antipode"],
    ["--example", "taft", "--taft-n", "30", "--checks", "antipode"],
])
def test_a_run_past_the_budget_is_a_configuration_error_before_any_check(
        tmp_path, monkeypatch, capsys, argv):
    checks = argv[argv.index("--checks") + 1].split(",")
    ran = _recorded_calls(monkeypatch, {key: size_of for check in checks
                                        for key, size_of in RULE_CHECKS[check][2].items()})
    # the budget is read from the site dimension: no representation is built
    refuse = lambda *args: pytest.fail("a representation was built past the budget")
    monkeypatch.setattr(cli, "regular_rep", refuse)
    monkeypatch.setattr(cli.uqsu2, "spin_half_rep", refuse)
    out = tmp_path / "r"
    assert main(["verify", *argv, "--out", str(out)]) == 2
    assert ran == [] and not out.exists()
    assert "past the budget 2**18" in capsys.readouterr().err


class _Built(Exception):
    pass


def test_the_budget_counts_the_regular_representations_own_entries(
        tmp_path, monkeypatch, capsys):
    def built(ex):
        raise _Built(ex.name)

    argv = ["verify", "--example", "taft", "--sizes", "1x1", "--checks", "antipode"]
    assert main([*argv, "--taft-n", "12", "--out", str(tmp_path / "12")]) == 0
    monkeypatch.setattr(cli, "regular_rep", built)
    # taft-n 18 (d**3 = 324**3) is within the cap and gets to build
    with pytest.raises(_Built, match=r"taft\(n=18\)"):
        main([*argv, "--taft-n", "18", "--out", str(tmp_path / "18")])
    for n in ("19", "30"):
        out = tmp_path / n
        assert main([*argv, "--taft-n", n, "--out", str(out)]) == 2 and not out.exists()
        d = int(n) ** 2
        assert capsys.readouterr().err == (
            f"error: the regular representation of taft(n={n}) needs {d}**3 entries, "
            f"past the budget {linops.REP_ENTRY_CAP}\n")


def test_build_op_and_verify_report_the_budget_alike(tmp_path, capsys):
    said = []
    # 21-site columns: antipode_x runs on them, and build-op builds one
    for argv, what in ((["build-op", "--gen", "S+", "--q", "1.3", "--size", "21x1"],
                        "an operator table"),
                       (["verify", "--example", "uq", "--q", "1.3", "--checks", "antipode",
                         "--sizes", "21x1"], "check 'antipode'")):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} at 21x1"), err
        said.append(err[len(f"error: {what}"):])
    assert said[0] == said[1] == " at 21x1 needs dimension 2**21, past the budget 2**18\n"


@pytest.mark.parametrize("size", ["4x5", "6x6"])
def test_ks_and_commutator_run_past_the_operator_budget(tmp_path, size):
    out = tmp_path / "r"
    assert main(["verify", "--example", "uq", "--q", "1.3", "--sizes", size,
                 "--checks", "ks,commutator", "--out", str(out)]) == 0
    n, m = map(int, size.split("x"))
    for name in ("ks.json", "commutator.json"):
        report = json.loads((out / name).read_text())
        assert report["sizes"] == [[n, m]] and report["instances"]
        assert all(i["pass"] and i["details"] == {"residual": "frobenius_relative"}
                   for i in report["instances"])


def test_an_overflowing_q_fails_ks_and_commutator_as_nan_without_a_traceback(tmp_path):
    # K strings on 9 sites at q = 1e160 pass 1e308: every residual is NaN
    out = tmp_path / "r"
    argv = ["verify", "--example", "uq", "--q", "1e160", "--sizes", "3x3",
            "--checks", "ks,commutator", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", "import sys; from hopf2d.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv],
                          env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
                               "PYTHONPATH": os.path.dirname(os.path.dirname(hopf2d.__file__))},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "LinAlgError" not in proc.stderr
    assert proc.stderr == ""
    for name in ("ks.json", "commutator.json"):
        report = json.loads((out / name).read_text())
        assert report["sizes"] == [[3, 3]] and report["max_residual"] == "nan"
        assert report["instances"] and all(i["residual"] == "nan" and not i["pass"]
                                           for i in report["instances"])


def test_verify_singular_q_is_config_error(tmp_path, capsys):
    code = main(["verify", "--example", "uq", "--q", "1.0",
                 "--checks", "commutator", "--sizes", "2x2",
                 "--out", str(tmp_path / "r")])
    assert code == 2
    # q = 0 stops the example itself; q**2 = 1 stops whatever divides by q - 1/q
    for k, (q, checks, says) in enumerate([("0", "assoc", "q must be nonzero"),
                                           ("1.0000000000001", "singlets", "singular")]):
        out = tmp_path / str(k)
        assert main(["verify", "--example", "uq", "--q", q, "--checks", checks,
                     "--out", str(out)]) == 2
        assert says in capsys.readouterr().err
        assert not out.exists()


def test_verify_unknown_check(tmp_path):
    code = main(["verify", "--example", "pivot", "--checks", "nonsense",
                 "--out", str(tmp_path / "r")])
    assert code == 2


@pytest.mark.parametrize("check", ["ks", "kernel", "rmatrix1d", "rmatrix2d", "semiclassical"])
def test_a_deformed_su2_check_needs_the_uq_example(tmp_path, capsys, check):
    out = tmp_path / "r"
    assert main(["verify", "--example", "pivot", "--q", "1.3", "--checks", check,
                 "--out", str(out)]) == 2
    assert f"check {check!r} needs --example uq" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("checks", [",", " , "])
def test_an_empty_check_list_is_a_configuration_error(tmp_path, capsys, checks):
    out = tmp_path / "r"
    assert main(["verify", "--sizes", "2x2", "--checks", checks, "--out", str(out)]) == 2
    assert "names no check" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["verify", "--sizes", "2x2,2x2", "--checks", "counit"], "repeated size '2x2'"),
    (["verify", "--sizes", "1x2, 2X2,2x2", "--checks", "counit"], "repeated size '2x2'"),
    (["verify", "--example", "uq", "--q", "2.0", "--sizes", "2x2", "--checks", "ks,ks"],
     "repeated check 'ks'"),
    (["verify", "--sizes", "2x2", "--checks", "counit, counit"], "repeated check 'counit'"),
    (["verify", "--example", "uq", "--q", "2", "--q", "2.0", "--sizes", "2x2", "--checks", "ks"],
     "repeated q value '2.0'"),
    (["build-op", "--gen", "S+", "--q", "1.3", "--q", "1.3"], "repeated q value '1.3'"),
    (["peps", "--rep", "d4", "--sizes", "1x1,1x1"], "repeated size '1x1'"),
])
def test_a_repeated_value_is_a_configuration_error(tmp_path, capsys, argv, named):
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_kernel_fails_when_its_reversed_orientation_control_stays_in_the_kernel(
        tmp_path, monkeypatch):
    real = cli.uqsu2.kernel_2x2

    def kernel(ops, *args):
        return {**real(ops, *args), "reversed_orientation_residual": 0.0}

    argv = ["verify", "--example", "uq", "--q", "2.0", "--checks", "kernel",
            "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    monkeypatch.setattr(cli.uqsu2, "kernel_2x2", kernel)
    assert main(argv) == 1


def test_verify_rmatrix_and_semiclassical(tmp_path):
    code = main(["verify", "--example", "uq", "--checks",
                 "rmatrix1d,rmatrix2d,semiclassical", "--out", str(tmp_path / "r")])
    assert code == 0


def test_rmatrix1d_honours_tol(tmp_path):
    # residuals of about 2.2e-16 pass the default bound but not a tighter --tol
    out = tmp_path / "r"
    argv = ["verify", "--example", "uq", "--checks", "rmatrix1d", "--q", "1.37"]
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv + ["--tol", "1e-300", "--out", str(out)]) == 1
    report = json.loads((out / "rmatrix1d.json").read_text())
    assert report["sizes"] == [[1, 2]]
    assert not any(inst["pass"] for inst in report["instances"])


def test_rmatrix2d_fails_on_a_wrong_chain_conjugator(tmp_path, monkeypatch):
    # the pair (2, 3) step conjugates the wrong way round: the chain's words still
    # reach the permuted element, but its residual and the plaquette R-matrix fail
    real = cli.rmx._step

    def step(q, pair, mode):
        g, ginv = real(q, pair, mode)
        return (ginv, g) if pair == (2, 3) else (g, ginv)

    argv = ["verify", "--example", "uq", "--checks", "rmatrix2d", "--q", "1.5",
            "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    monkeypatch.setattr(cli.rmx, "_step", step)
    assert main(argv) == 1
    report = json.loads((tmp_path / "r" / "rmatrix2d.json").read_text())
    assert not any(inst["pass"] for inst in report["instances"])


def test_build_op_writes_matrix_and_manifest(tmp_path):
    out = tmp_path / "ops"
    code = main(["build-op", "--gen", "S+", "--q", "1.3", "--size", "2x3",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dim"] == 64
    mat = read_matrix_market(out / manifest["file"])
    assert mat.shape == (64, 64)
    assert mat.nnz == manifest["nnz"]


def test_build_op_k_diagonal(tmp_path):
    out = tmp_path / "ops"
    code = main(["build-op", "--gen", "K+", "--q", "2", "--size", "2x2",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    mat = read_matrix_market(out / manifest["file"]).toarray()
    assert np.allclose(mat, np.diag(np.diag(mat)))
    # diagonal entries are powers q^((n0 - n1)/2)
    diag = np.diag(mat)
    expected = [2.0 ** ((4 - 2 * bin(b).count("1")) / 2) for b in range(16)]
    assert np.allclose(sorted(diag.real), sorted(expected))


def test_build_op_rmatrix2d(tmp_path):
    out = tmp_path / "ops"
    code = main(["build-op", "--rmatrix2d", "--q", "1.5", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dim"] == 16
    mat = read_matrix_market(out / manifest["file"])
    assert mat.shape == (16, 16)
    header = (out / manifest["file"]).read_text().splitlines()[1]
    assert int(header.split()[2]) == manifest["nnz"]


def test_build_op_size_cap(tmp_path):
    code = main(["build-op", "--gen", "S+", "--q", "1.3", "--size", "4x5",
                 "--out", str(tmp_path / "ops")])
    assert code == 2


def test_build_op_unknown_generator_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "ops"
    code = main(["build-op", "--gen", "Q", "--q", "1.3", "--size", "2x2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("error: unknown generator 'Q'")
    assert all(gen in err for gen in ("S+", "S-", "Sz", "K+2", "K-2"))


def test_config_errors_leave_no_output_directory(tmp_path):
    runs = [["build-op", "--gen", "S+", "--q", "1.3", "--size", "4x5"],
            ["build-op", "--rmatrix2d", "--q", "0"],
            ["peps", "--rep", "d2"],
            ["peps", "--rep", "d4", "--mutate", "drop:x", "--sizes", "1x2"],
            ["peps", "--rep", "d4", "--sizes", "2y2"],
            ["verify", "--example", "pivot", "--checks", "nonsense"]]
    for k, argv in enumerate(runs):
        out = tmp_path / str(k)
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists(), argv


@pytest.mark.parametrize("argv", [
    ["verify", "--theta-over-pi", "nan"],
    ["verify", "--theta-over-pi", "inf"],
    ["verify", "--example", "uq", "--q", "nan", "--checks", "ks", "--sizes", "2x2"],
    ["verify", "--example", "uq", "--q", "1e400", "--checks", "commutator", "--sizes", "2x2"],
    ["verify", "--example", "uq", "--q", "nan", "--checks", "rmatrix1d"],
    ["build-op", "--gen", "S+", "--q", "nan"],
    ["build-op", "--rmatrix2d", "--q", "inf"],
    ["verify", "--theta-over-pi=-inf"],
])
def test_non_finite_parameters_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--sizes", "2x2", "--checks", "counit", "--tol", "nan"],
    ["verify", "--sizes", "2x2", "--checks", "counit", "--tol", "-1"],
    ["verify", "--sizes", "2x2", "--checks", "counit", "--tol", "inf"],
    ["peps", "--rep", "d4", "--sizes", "2x2", "--tol", "-1"],
    ["peps", "--rep", "d4", "--sizes", "1x1", "--tol", "nan"],
])
def test_non_finite_or_negative_tolerances_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    assert "--tol must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_tolerance_from_the_config_file_is_a_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rep": "d4", "sizes": [[1, 1]], "tol": -1e-3}))
    out = tmp_path / "r"
    assert main(["peps", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_default_q_lists_do_not_depend_on_the_check_order(tmp_path):
    argv = ["verify", "--example", "uq", "--sizes", "2x2", "--checks"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["ks,rmatrix1d", "--out", str(a)]) == 0
    assert main(argv + ["rmatrix1d,ks", "--out", str(b)]) == 0
    assert read_all(a) == read_all(b)
    # ten default q for the operator checks, twenty for the R-matrix checks
    assert len(json.loads((a / "ks.json").read_text())["instances"]) == 10 * 4
    assert len(json.loads((a / "rmatrix1d.json").read_text())["instances"]) == 20 * 3


@pytest.mark.parametrize("argv", [
    ["peps", "--rep", "d4", "--sizes", "1x1", "--q", "1.3"],
    ["peps", "--rep", "d4", "--sizes", "1x1", "--seed", "7"],
    ["build-op", "--gen", "S+", "--q", "1.3", "--tol", "1e-9"],
])
def test_options_a_subcommand_does_not_read_are_rejected(tmp_path, capsys, argv):
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


D2_SOLVE = ["peps", "--rep", "d2", "--solve-boundary", "--sizes", "1x1,2x2"]


@pytest.mark.parametrize("argv, flag", [
    (D2_SOLVE + ["--tol", "0.5"], "--tol"),
    (D2_SOLVE + ["--tol", "1e-10"], "--tol"),  # given, even at the value d4 defaults to
    (D2_SOLVE + ["--mutate", "drop:3"], "--mutate"),
    (["peps", "--rep", "d4", "--solve-boundary", "--sizes", "1x1"], "--solve-boundary"),
])
def test_peps_options_its_rep_does_not_read_are_config_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {flag} goes with --rep" in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_a_subcommand_does_not_read_are_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    for argv, bad in ((["peps", "--rep", "d4", "--sizes", "1x1"], {"q": "1.3"}),
                      (["peps", "--rep", "d4", "--sizes", "1x1"], {"seed": 7}),
                      (["build-op", "--gen", "S+", "--q", "1.3"], {"tol": 1e-9}),
                      (D2_SOLVE, {"tol": 0.5}), (D2_SOLVE, {"mutate": "drop:3"}),
                      (["peps", "--sizes", "1x1"], {"rep": "d2", "solve_boundary": True,
                                                    "tol": 1e-10}),
                      (["peps", "--rep", "d4", "--sizes", "1x1"], {"solve_boundary": True})):
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "r"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2, bad
        assert not out.exists(), bad
    # a key left null in the file is not given
    cfg.write_text(json.dumps({"tol": None, "mutate": None}))
    for argv in (D2_SOLVE, ["peps", "--rep", "d4", "--sizes", "1x1"]):
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / argv[2])]) == 0


def _example(*argv):
    return cli._make_example(cli.build_parser().parse_args(["verify", *argv]))


def test_each_example_is_built_from_the_options_it_reads(tmp_path):
    assert _example("--theta-over-pi", "0.25").meta["theta"] == pytest.approx(np.pi / 4)
    assert _example("--example", "taft", "--taft-n", "2").name == "taft(n=2)"
    assert _example("--example", "taft", "--taft-n", "3").name == "taft(n=3)"
    assert _example("--example", "uq", "--q", "1.3").meta["q"] == 1.3
    names = {kind: _example("--example", kind).name
             for kind in ("pivot", "taft", "group", "lie", "quasi1d-group", "quasi1d-lie", "cross")}
    assert names == {"pivot": "pivot(theta=0)", "taft": "taft(n=2)", "group": "group_like",
                     "lie": "lie_like", "quasi1d-group": "quasi1d_group",
                     "quasi1d-lie": "quasi1d_lie", "cross": "cross"}
    cfg = tmp_path / "cfg.json"
    for kind in ("nope", "quasi1d_group", "quasi1d_lie"):  # the parser's choices only
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--example", kind, "--out", str(tmp_path / "a")])
        assert exc.value.code == 2
        cfg.write_text(json.dumps({"example": kind}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("argv, cfg, flag", [
    (["--example", "taft", "--theta-over-pi", "0.25"], {}, "--theta-over-pi"),
    (["--example", "pivot", "--taft-n", "3"], {}, "--taft-n"),
    (["--taft-n", "2"], {}, "--taft-n"),  # pivot is the default example
    (["--example", "uq", "--q", "1.3", "--theta-over-pi", "0"], {}, "--theta-over-pi"),
    (["--example", "cross"], {"theta_over_pi": 0.0}, "--theta-over-pi"),
    ([], {"example": "taft", "theta_over_pi": 0.25}, "--theta-over-pi"),
    (["--example", "lie"], {"taft_n": 2}, "--taft-n"),
    (["--example", "pivot", "--q", "1.3"], {}, "--q"),
    (["--example", "taft"], {"q": 1.3}, "--q"),
])
def test_example_options_another_example_reads_are_config_errors(tmp_path, capsys, argv, cfg,
                                                                   flag):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert main(["verify", *argv, "--sizes", "2x2", "--checks", "counit",
                 "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {flag} goes with --example" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, cfg, message", [
    (["--rmatrix2d", "--gen", "S+", "--q", "1.5"], {}, "--gen goes without --rmatrix2d"),
    (["--rmatrix2d", "--size", "3x3", "--q", "1.5"], {}, "--size goes without --rmatrix2d"),
    (["--gen", "S+", "--q", "1.3", "--size", "2x2,2x3"], {}, "--size takes one size"),
    (["--rmatrix2d", "--q", "1.5"], {"gen": "S+"}, "--gen goes without --rmatrix2d"),
    (["--rmatrix2d", "--q", "1.5"], {"size": "2x2"}, "--size goes without --rmatrix2d"),
    (["--gen", "S+", "--q", "1.5"], {"rmatrix2d": True}, "--gen goes without --rmatrix2d"),
    (["--gen", "S+", "--q", "1.3"], {"size": "2x2,2x3"}, "--size takes one size"),
    (["--gen", "S+", "--q", "1.3", "--q", "2.0", "--size", "1x2"], {}, "--q takes one value"),
    (["--rmatrix2d", "--q", "1.3", "--q", "2.0"], {}, "--q takes one value"),
    (["--gen", "S+", "--size", "1x2"], {"q": [1.3, 2.0]}, "--q takes one value"),
])
def test_build_op_options_its_run_does_not_read_are_config_errors(tmp_path, capsys, argv, cfg,
                                                                    message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "r"
    assert main(["build-op", *argv, "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_peps_d4_pass_and_mutation(tmp_path):
    assert main(["peps", "--rep", "d4", "--sizes", "1x1,1x2,2x2,3x3",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["peps", "--rep", "d4", "--mutate", "drop:0", "--sizes", "1x2",
                 "--out", str(tmp_path / "b")]) == 1


def test_peps_d2_solver(tmp_path):
    out = tmp_path / "d2"
    assert main(["peps", "--rep", "d2", "--solve-boundary",
                 "--sizes", "1x1,1x2,2x1,2x2,3x3", "--out", str(out)]) == 0
    report = json.loads((out / "boundary_d2.json").read_text())
    assert report["feasible"] is False
    assert report["certificate"]["size"] == [2, 2]
    # strips-only solve writes a completion
    out2 = tmp_path / "d2b"
    assert main(["peps", "--rep", "d2", "--solve-boundary",
                 "--sizes", "1x1,1x2,2x1", "--out", str(out2)]) == 0
    report2 = json.loads((out2 / "boundary_d2.json").read_text())
    assert report2["feasible"] is True
    assert report2["boundary"] is not None


def test_peps_d2_without_solve_is_config_error(tmp_path):
    assert main(["peps", "--rep", "d2", "--out", str(tmp_path / "x")]) == 2


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "example": "pivot", "theta_over_pi": 0.25,
        "sizes": [[2, 2]], "checks": ["xycompat"],
    }))
    out = tmp_path / "r"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "xy_compat.json").read_text())
    assert "0.785398" in payload["example"]


def test_reports_byte_identical_across_runs(tmp_path):
    args = ["verify", "--example", "uq", "--checks",
            "ks,kernel,rmatrix1d", "--sizes", "2x2", "--seed", "7"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read_all(out1) == read_all(out2)


def test_engine_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken_check(*args, **kwargs):
        raise DomainError("engine bug inside a check")

    monkeypatch.setattr(cli, "check_xy_compat", broken_check)
    with pytest.raises(DomainError):
        main(["verify", "--example", "pivot", "--sizes", "2x2", "--checks", "xycompat",
              "--out", str(tmp_path / "r")])


def test_growth_out_of_the_domain_is_a_failed_check(tmp_path, monkeypatch):
    from tests.test_coalgebra import _out_of_domain_pivot

    monkeypatch.setattr(cli, "_make_example", lambda args: _out_of_domain_pivot())
    out = tmp_path / "r"
    assert main(["verify", "--sizes", "3x3", "--checks", "assoc,xycompat,counit",
                 "--out", str(out)]) == 1
    reports = {name: json.loads(text) for name, text in read_all(out).items()}
    assert len(reports) == 13
    failed = {name: [i["details"]["domain_error"] for i in rep["instances"]
                     if i["residual"] == "inf"]
              for name, rep in reports.items() if rep["max_residual"] == "inf"}
    assert failed == {
        "quasi_1d_assoc_x_2.json": ["v/b outside the x-splitter domain"],
        "quasi_1d_assoc_x_3.json": ["b/v/b outside the x-splitter domain",
                                    "v/a/b outside the x-splitter domain"],
        "counit_x_2.json": ["v/b outside the x-counit domain"],
        "counit_x_3.json": ["b/v/b outside the x-counit domain",
                            "v/a/b outside the x-counit domain"],
        "xy_compat.json": ["v/b outside the x-splitter domain"]
        + ["b/v/b outside the x-splitter domain"] * 2}


def test_rule_extraction_skips_only_domain_errors(tmp_path, monkeypatch):
    args = ["verify", "--example", "pivot", "--checks", "proposition",
            "--out", str(tmp_path / "r")]

    def raising(exc):
        def splitter(*args, **kwargs):
            raise exc
        return splitter

    monkeypatch.setattr(cli, "apply_splitter", raising(DomainError("no 1-site rule")))
    assert main(args) == 0  # symbols without 1-site rules are skipped
    monkeypatch.setattr(cli, "apply_splitter", raising(ShapeError("wrong split shape")))
    with pytest.raises(ShapeError):
        main(args)


def test_bad_config_file_and_mutation_are_config_errors(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
    cfg.write_text(json.dumps({"example": "pivot", "theta_over_pi": "quarter"}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    for bad in ({"tol": "abc"}, {"seed": "x"}, {"seed": 4.5}, {"example": "nope"},
                {"sizes": [[2]]}):
        cfg.write_text(json.dumps(bad))
        assert main(["verify", "--config", str(cfg), "--checks", "counit",
                     "--out", str(tmp_path / "d")]) == 2, bad
        assert not (tmp_path / "d").exists(), bad
    cfg.write_text(json.dumps({"solve_boundary": "yes"}))
    assert main(["peps", "--rep", "d2", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
    assert main(["peps", "--rep", "d4", "--mutate", "drop:x", "--sizes", "1x2",
                 "--out", str(tmp_path / "c")]) == 2


def test_config_values_get_the_parser_types(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "7", "tol": "1e-9", "sizes": [[2, 2]],
                               "checks": ["counit"]}))
    out = tmp_path / "r"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "counit_x.json").read_text())
    assert payload["seed"] == 7


def test_xycompat_covers_every_size_up_to_the_largest(tmp_path):
    out = tmp_path / "r"
    assert main(["verify", "--sizes", "2x5", "--checks", "xycompat", "--out", str(out)]) == 0
    payload = json.loads((out / "xy_compat.json").read_text())
    assert payload["sizes"] == [[2, 5]]
    inputs = {i["input"] for i in payload["instances"]}
    assert {f"corner1x{l}:v:vs_canonical" for l in (2, 3, 4)} <= inputs


def test_explicit_flags_beat_the_config_file_even_at_their_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    out = tmp_path / "r"
    assert main(["verify", "--sizes", "2x2", "--checks", "counit", "--seed", "42",
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "counit_x.json").read_text())["seed"] == 42
    cfg.write_text(json.dumps({"seed": 7, "example": "cross", "solve_boundary": True}))
    assert main(["verify", "--sizes", "2x2", "--checks", "counit", "--example", "pivot",
                 "--config", str(cfg), "--out", str(out)]) == 2  # no such verify option
    cfg.write_text(json.dumps({"seed": 7, "example": "cross"}))
    assert main(["verify", "--sizes", "2x2", "--checks", "counit", "--example", "pivot",
                 "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "counit_x.json").read_text())
    assert (payload["seed"], payload["example"]) == (7, "pivot(theta=0)")


@pytest.mark.parametrize("argv, fragment", [
    (["verify", "--sizes", "0x2"], "sizes must be positive NxM pairs"),
    (["verify", "--example", "uq", "--q", "abc", "--checks", "ks"], "bad q value 'abc'"),
    (["verify", "--example", "pivot", "--checks", "homomorphism"],
     "no canonical representation for example 'pivot'"),
    (["build-op", "--q", "1.3"], "build-op needs --gen or --rmatrix2d"),
], ids=["zero-size", "bad-q", "no-representation", "build-op-nothing"])
def test_each_refused_input_exits_2_and_writes_nothing(tmp_path, capsys, argv, fragment):
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {fragment}\n"
    assert not out.exists()


def test_verify_runs_the_cube(tmp_path):
    out = tmp_path / "r"
    assert main(["verify", "--example", "pivot", "--checks", "cube", "--out", str(out)]) == 0
    report = json.loads(read_all(out)["cube_xyz_compat.json"])
    assert report["sizes"] == [[k, k, k] for k in (2, 3, 4)] and report["max_residual"] == 0.0


@pytest.mark.parametrize("argv, name, row, col", [
    (["--gen", "S+", "--q", "1e-300", "--size", "2x2"], "boxplus_Sp_2x2.mtx", 0, 1),
    (["--rmatrix2d", "--q", "1e-300"], "rmatrix2d_q1e-300+0j.mtx", 0, 0),
], ids=["S+", "rmatrix2d"])
def test_build_op_refuses_an_overflowed_operator(tmp_path, capsys, argv, name, row, col):
    out = tmp_path / "ops"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["build-op", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"error: {name} not written: its entry at row {row}, column {col} "
                            f"(0-based) is (nan+nanj), not finite\n")


def test_build_op_names_the_first_nonfinite_entry_in_row_major_order(tmp_path, capsys,
                                                                      monkeypatch):
    # row 1 holds its columns unsorted: column 3 (inf) is stored before column 0 (nan)
    mat = sp.csr_matrix((np.array([1.0, 2.0, np.inf, np.nan, 3.0], dtype=complex),
                         np.array([0, 2, 3, 0, 1]), np.array([0, 2, 5, 5, 5])), shape=(4, 4))
    monkeypatch.setattr(cli.uqsu2, "boxplus_op", lambda *_: SparseOperator._wrap(mat))
    out = tmp_path / "ops"
    assert main(["build-op", "--gen", "S+", "--q", "1.3", "--out", str(out)]) == 1
    assert "its entry at row 1, column 0 (0-based) is (nan+0j)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
def test_build_op_names_the_row_major_first_of_two_nonfinite_entries_in_one_row(
        tmp_path, capsys, monkeypatch, order):
    # row 0 stores a zero that canonical form drops, shifting every later
    # entry; row 2 holds 1 at column 0, -inf at 1 and nan at 3, stored in
    # each column order ``order`` gives
    cols = np.array([0, 1, 3])[order]
    vals = np.array([1.0, -np.inf, complex(np.nan, 2.0)])[order]
    mat = sp.csr_matrix((np.concatenate([[0.0], vals]).astype(complex),
                         np.concatenate([[2], cols]), np.array([0, 1, 1, 4, 4])), shape=(4, 4))
    monkeypatch.setattr(cli.uqsu2, "boxplus_op", lambda *_: SparseOperator._wrap(mat))
    out = tmp_path / "ops"
    assert main(["build-op", "--gen", "S+", "--q", "1.3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: boxplus_Sp_2x2.mtx not written: its entry at "
                                       "row 2, column 1 (0-based) is (-inf+0j), not finite\n")
    assert not out.exists()
