import cmath
import dataclasses
import hashlib
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopf2d.coalgebra import (
    AntipodeRule,
    CheckInstance,
    CheckReport,
    ConfigurationError,
    DomainError,
    MultiplicationRule,
    OperatorTable,
    Splitter,
    apply_splitter,
    boxplus,
    boxplus_from_1d,
    check_antipode,
    check_counit,
    check_homomorphism,
    check_quasi_1d_assoc,
    check_trivial_proposition,
    check_xy_compat,
    cube_xyz_compat,
    dual_product,
    grow,
    _cellwise_splitter,
    worst_residual,
)
from hopf2d.grids import (EQ_TOL, Alphabet, FormalSum, GridShape, GridWord, ShapeError, join,
                          slicing, sum_difference, sums_equal, word1)
from hopf2d.instances import (
    make_cross,
    make_cyclic_group,
    make_lie_like,
    make_pivot,
    make_quasi1d_group,
    make_quasi1d_lie,
    make_taft,
    make_uq_symbolic,
    TaftConfig,
    regular_rep,
)
from hopf2d import coalgebra
from hopf2d.linops import Representation, RepresentationError, evaluate

PIVOT = make_pivot(theta=0.0)
AB = PIVOT.alphabet


def w(ex, rows):
    return GridWord.from_rows_top_down(ex.alphabet, rows)


def test_pivot_x_splitter_printed_rule():
    # column (b, v, a) top-down doubles into the two-term sum
    col = w(PIVOT, [["b"], ["v"], ["a"]])
    out = apply_splitter(PIVOT, "x", col)
    expected = FormalSum(GridShape(3, 2), [
        (w(PIVOT, [["b", "b"], ["v", "b"], ["a", "a"]]), 1.0),
        (w(PIVOT, [["b", "b"], ["a", "v"], ["a", "a"]]), 1.0),
    ])
    assert sums_equal(out, expected)


def test_pivot_y_splitter_printed_rule():
    row = w(PIVOT, [["a", "v", "b"]])
    out = apply_splitter(PIVOT, "y", row)
    expected = FormalSum(GridShape(2, 3), [
        (w(PIVOT, [["b", "b", "b"], ["a", "v", "b"]]), 1.0),
        (w(PIVOT, [["a", "v", "b"], ["a", "a", "a"]]), 1.0),
    ])
    assert sums_equal(out, expected)


def test_pivot_splitter_domain_error():
    bad = w(PIVOT, [["a"], ["b"]])  # b above is fine; a above b is not
    bad = w(PIVOT, [["a"], ["v"], ["b"]])  # a above v: wrong side
    with pytest.raises(DomainError):
        apply_splitter(PIVOT, "x", bad)


def test_group_like_splitter():
    ex = make_cyclic_group(3)
    col = GridWord(GridShape(2, 1), (ex.alphabet["g"], ex.alphabet["g"]))
    out = apply_splitter(ex, "x", col)
    assert len(out) == 1
    term = list(out)[0]
    assert term.rows_top_down() == [["g", "g"], ["g", "g"]]


def test_boxplus_pivot_2x2_and_patterns():
    s = boxplus(PIVOT, "v", 2, 2)
    assert len(s) == 4
    expected_rows = [
        [["b", "b"], ["v", "b"]],
        [["b", "b"], ["a", "v"]],
        [["v", "b"], ["a", "a"]],
        [["a", "v"], ["a", "a"]],
    ]
    for rows in expected_rows:
        assert s.coeff(w(PIVOT, rows)) == 1.0


def test_boxplus_pivot_corner_symbols():
    s = boxplus(PIVOT, "a", 3, 3)
    assert len(s) == 1
    term = list(s)[0]
    assert all(c.name == "a" for c in term.cells)


def test_boxplus_taft_eqx_pattern():
    ex = make_taft(TaftConfig(2, -1.0))
    s = boxplus(ex, "x", 2, 2)
    assert len(s) == 4
    # ones before the mark, g after, in reading order
    for term in s:
        cells = [c.name for c in term.cells]
        k = cells.index("x")
        assert all(c == "1" for c in cells[:k])
        assert all(c == "g" for c in cells[k + 1:])


def test_growth_order_independence_random_paths():
    rng = random.Random(7)
    for ex, sym in [(PIVOT, "v"), (make_cross(), "v"),
                    (make_taft(TaftConfig(2, -1.0)), "x"),
                    (make_uq_symbolic(2.0), "S-")]:
        target = boxplus(ex, sym, 3, 3)
        for _ in range(4):
            moves = ["y", "y", "x", "x"]
            rng.shuffle(moves)
            s = FormalSum.unit(word1(ex.alphabet[sym]))
            for d in moves:
                blocks = s.shape.cols if d == "x" else s.shape.rows
                s = grow(ex, s, d, block=rng.randint(1, blocks))
            assert sums_equal(s, target)


def test_boxplus_from_1d_matches_engine():
    ex = make_taft(TaftConfig(3, complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))))
    for sym in ("1", "g", "x"):
        got = boxplus_from_1d(ex.meta["delta_1site"], ex.alphabet[sym], 2, 3)
        assert sum_difference(got, boxplus(ex, sym, 2, 3)) <= 1e-12


def test_counit_contraction_shrinks_lattice():
    # contracting the last column of the grown element gives the narrower one
    for n, m in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        s = boxplus(PIVOT, "v", n, m)
        eps = PIVOT.counit("x")
        terms = []
        for term, c in s.items():
            val = eps(term.slice("x", m))
            rest = GridWord(GridShape(n, m - 1), tuple(
                term.cell(i, j) for i in range(1, n + 1) for j in range(1, m)
            ))
            terms.append((rest, c * val))
        reduced = FormalSum(GridShape(n, m - 1), terms)
        assert sums_equal(reduced, boxplus(PIVOT, "v", n, m - 1))


def test_axiom_suite_all_instances():
    examples = [PIVOT, make_pivot(theta=math.pi / 4), make_cross(),
                make_quasi1d_group(), make_quasi1d_lie(),
                make_lie_like(["a", "c"]), make_cyclic_group(3),
                make_taft(TaftConfig(2, -1.0)), make_uq_symbolic(2.0)]
    for ex in examples:
        for direction in "xy":
            for n in (1, 2, 3):
                assert check_quasi_1d_assoc(ex, direction, n).ok, (ex.name, direction, n)
                assert check_counit(ex, direction, n).ok, (ex.name, direction, n)
        assert check_xy_compat(ex, 3, 3).ok, ex.name


# ---------------------------------------------------------------------------
# dual algebra of grid functionals


def indicator(name):
    return {name: 1.0}


def test_dual_product_gatherings_agree_2x2():
    eps = {"a": 1.0, "b": 1.0, "v": 0.0}
    functionals = [[indicator("v"), {"b": 1.0}], [eps, eps]]
    cols = dual_product(functionals, PIVOT, "v", 2, 2, gathering="cols")
    rows = dual_product(functionals, PIVOT, "v", 2, 2, gathering="rows")
    assert abs(cols - rows) < 1e-12


def test_dual_product_3x2_identity():
    eps = {"a": 1.0, "b": 1.0, "v": 0.0}
    functionals = [[eps, indicator("v"), {"b": 1.0}],
                   [{"b": 1.0}, {"b": 1.0}, {"b": 1.0}]]
    cols = dual_product(functionals, PIVOT, "v", 2, 3, gathering="cols")
    rows = dual_product(functionals, PIVOT, "v", 2, 3, gathering="rows")
    assert abs(cols - rows) < 1e-12
    # the picked grid appears exactly once
    assert abs(cols - 1.0) < 1e-12


def test_dual_product_all_counits_vanish_on_mark():
    eps = {"a": 1.0, "b": 1.0, "v": 0.0}
    functionals = [[eps, eps], [eps, eps]]
    val = dual_product(functionals, PIVOT, "v", 2, 2)
    assert abs(val) < 1e-12


# ---------------------------------------------------------------------------
# the factorized-coproduct proposition


def _rules_from(ex, syms):
    dx, dy = {}, {}
    for s in syms:
        sym = ex.alphabet[s]
        sx = apply_splitter(ex, "x", word1(sym))
        dx[sym] = [(c, t.cells[0], t.cells[1]) for t, c in sx.items()]
        sy = apply_splitter(ex, "y", word1(sym))
        dy[sym] = [(c, t.cells[0], t.cells[1]) for t, c in sy.items()]
    return dx, dy


def test_proposition_group_like_premise_holds():
    ex = make_cyclic_group(3)
    dx, dy = _rules_from(ex, ["1", "g", "g2"])
    report = check_trivial_proposition(dx, dy, list(dx))
    assert report.ok
    assert all(i.details["premise_holds"] for i in report.instances)


def test_proposition_lie_like_premise_holds():
    ex = make_lie_like(["a", "c"])
    dx, dy = _rules_from(ex, ["1", "a", "c"])
    report = check_trivial_proposition(dx, dy, list(dx))
    assert report.ok
    assert all(i.details["premise_holds"] for i in report.instances)


def test_proposition_uq_premise_fails():
    ex = make_uq_symbolic(2.0)
    dx, dy = _rules_from(ex, ["S+", "S-", "K+", "K-"])
    report = check_trivial_proposition(dx, dy, list(dx))
    marks = {str(s): i.details["premise_holds"]
             for s, i in zip(dx, report.instances)}
    assert not marks["S+"] and not marks["S-"]


def _lie_rep(ex):
    """a -> the raising matrix, the unit -> the identity."""
    from hopf2d.linops import Representation

    return Representation(ex.alphabet, {"1": np.eye(2), "a": [[0, 1], [0, 0]]})


def test_planted_lie_antipode_fails_both_directions_and_names_its_worst_entry():
    # S(a) = +a: mu (S x id) of a column with a at one site is 2 a there, not 0
    ex = make_lie_like(["a"])
    rep = _lie_rep(ex)
    for direction in "xy":
        assert check_antipode(ex, rep, direction, 3).ok
    ex.antipode = AntipodeRule(dict.fromkeys("xy", FormalSum.unit))
    for direction in "xy":
        report = check_antipode(ex, rep, direction, 3)
        failed = [i for i in report.instances if not i.passed]
        assert len(failed) == 3, direction  # a at each of the three sites
        for inst in failed:
            assert inst.residual == 2.0
            worst = inst.details["worst_entry"]
            assert sorted(worst) == ["col", "lhs", "rhs", "row"]
            assert worst["lhs"] == [2.0, 0.0] and worst["rhs"] == [0.0, 0.0]
        assert all(i.details == {} for i in report.instances if i.passed)


def test_planted_uq_antipode_scale_fails_both_directions():
    # the S+ scale -1/q in place of -q, on both axes
    from hopf2d.uqsu2 import spin_half_rep

    q = 1.3
    ex = make_uq_symbolic(q)
    rep = spin_half_rep(q, ex.alphabet)
    honest, sp_ = ex.antipode, ex.alphabet["S+"]
    ex.antipode = AntipodeRule({
        axis: (lambda w, axis=axis: honest(axis, w) * (q ** -2 if sp_ in w.cells else 1.0))
        for axis in "xy"})
    for direction in "xy":
        report = check_antipode(ex, rep, direction, 2)
        failed = {i.input: i for i in report.instances if not i.passed}
        assert failed and all("S+" in label for label in failed), direction
        for inst in failed.values():
            assert math.isfinite(inst.residual) and inst.residual > 1e-3
            assert sorted(inst.details["worst_entry"]) == ["col", "lhs", "rhs", "row"]


def test_cube_xyz_compat():
    report = cube_xyz_compat()
    assert report.ok
    mark_instance = report.instances[0]
    assert mark_instance.details["terms"] == 8


def test_dual_product_from_representation_vectors():
    # functionals built as matrix elements in a representation
    from hopf2d.instances import make_uq_symbolic
    from hopf2d.uqsu2 import spin_half_rep

    ex = make_uq_symbolic(2.0)
    rep = spin_half_rep(2.0, ex.alphabet)
    up, down = 0, 1
    # <up| M |down> picks the raising entry; diagonal letters weight by K
    f_raise = lambda sym: complex(rep[sym][up, down])
    f_diag = lambda sym: complex(rep[sym][up, up])
    functionals = [[f_raise, f_diag], [f_diag, f_diag]]
    cols = dual_product(functionals, ex, "S+", 2, 2, gathering="cols")
    rows = dual_product(functionals, ex, "S+", 2, 2, gathering="rows")
    assert abs(cols - rows) < 1e-12
    # only the term with the mark at the bottom-left site survives,
    # weighted by the three diagonal K entries
    q = 2.0
    expected = q ** 0.5 * q ** 0.5 * q ** 0.5
    assert abs(cols - expected) < 1e-12


def test_growth_order_independence_remaining_instances():
    rng = random.Random(11)
    cases = [(make_quasi1d_group(), "v"), (make_quasi1d_lie(), "v"),
             (make_lie_like(["a", "c"]), "a"), (make_cyclic_group(3), "g"),
             (make_uq_symbolic(1.5), "Sz")]
    for ex, sym in cases:
        target = boxplus(ex, sym, 3, 3)
        for _ in range(3):
            moves = ["y", "y", "x", "x"]
            rng.shuffle(moves)
            s = FormalSum.unit(word1(ex.alphabet[sym]))
            for d in moves:
                blocks = s.shape.cols if d == "x" else s.shape.rows
                s = grow(ex, s, d, block=rng.randint(1, blocks))
            assert sums_equal(s, target), (ex.name, sym)


TAFT3 = make_taft(TaftConfig(3, complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))))
ORDER_CASES = [(PIVOT, "v"), (make_pivot(theta=math.pi / 4), "v"), (make_uq_symbolic(1.7), "S+"),
               (TAFT3, "x"), (make_lie_like(["a", "c"]), "a")]
sizes = st.integers(min_value=1, max_value=5)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(ORDER_CASES))), sizes, sizes)
def test_growth_order_independence_property(case, n, m):
    ex, sym = ORDER_CASES[case]
    a = boxplus(ex, sym, n, m, order="y_first")
    b = boxplus(ex, sym, n, m, order="x_first")
    assert (a.shape.rows, a.shape.cols) == (n, m)
    assert sums_equal(a, b), (ex.name, n, m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["1", "g", "x"]), sizes, sizes)
def test_taft_engine_matches_1d_oracle_property(sym, n, m):
    got = boxplus(TAFT3, sym, n, m)
    oracle = boxplus_from_1d(TAFT3.meta["delta_1site"], TAFT3.alphabet[sym], n, m)
    assert sum_difference(got, oracle) <= 1e-12


def test_pivot_growth_12x12_placement_terms():
    n = m = 12
    s = boxplus(PIVOT, "v", n, m)
    assert len(s) == n * m
    a, b, v = (AB[c] for c in "abv")
    for k in range(n * m):  # mark at linear site k, a before it, b after it
        cells = (a,) * k + (v,) + (b,) * (n * m - k - 1)
        assert s.coeff(GridWord(GridShape(n, m), cells)) == 1.0


def test_grow_builds_without_adding_sums(monkeypatch):
    def no_add(self, other):
        raise AssertionError("grow added sums term by term")

    expected = boxplus(PIVOT, "v", 3, 4)
    monkeypatch.setattr(FormalSum, "__add__", no_add)
    got = boxplus(make_pivot(theta=0.0), "v", 3, 4)
    assert got.items() == expected.items()


def test_report_nan_residual_is_not_hidden():
    report = CheckReport("demo", [(1, 1)], [
        CheckInstance("ok", True, 1e-13),
        CheckInstance("broken", math.nan <= 1e-10, math.nan, {"worst": math.inf}),
    ])
    assert not report.ok
    assert math.isnan(report.max_residual)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    obj = json.loads(report.to_json(), parse_constant=reject)
    assert obj["max_residual"] == "nan"
    assert obj["instances"][1]["residual"] == "nan"
    assert obj["instances"][1]["details"] == {"worst": "inf"}
    assert obj["instances"][0]["residual"] == 1e-13


def test_report_finite_json_unchanged():
    report = CheckReport("demo", [(2, 2)], [CheckInstance("a", True, 0.0),
                                            CheckInstance("b", True, 2.5e-16)])
    assert report.max_residual == 2.5e-16
    assert report.to_json() == json.dumps({
        "check": "demo", "sizes": [[2, 2]], "max_residual": 2.5e-16,
        "instances": [{"input": "a", "pass": True, "residual": 0.0},
                      {"input": "b", "pass": True, "residual": 2.5e-16}]}, sort_keys=True)



def _argmax(rs):
    a = np.array(rs)
    return int(np.argmax(a)), float(a.max())


# the reductions that worst_residual replaced, by their old site, each as
# (lengths it was applied to or None for any, residuals -> (index or None, value))
REPLACED_REDUCTIONS = {
    "CheckReport.max_residual": (None, lambda rs: (
        None, math.nan if any(r != r for r in rs) else max(rs, default=0.0))),
    "check_counit": ({2}, lambda rs: (1 if rs[1] > rs[0] else 0, max(rs))),
    "check_antipode": ({2}, lambda rs: (
        (i := 0 if rs[0] >= rs[1] or rs[0] != rs[0] else 1), rs[i])),
    "check_trivial_proposition": ({3}, lambda rs: (None, max(rs[0], rs[1], rs[2]))),
    "cube_xyz_compat": (None, lambda rs: (
        (i := max(range(len(rs)), key=rs.__getitem__)), rs[i])),
    "check_commutator": (None, _argmax),
    "kernel and chain": (None, lambda rs: (None, max(rs))),
}
ties = st.sampled_from([0.0, 1e-13, 1.0, math.inf])
finite_or_inf = st.one_of(ties, st.floats(min_value=0.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_or_inf, min_size=1, max_size=6))
def test_worst_residual_is_every_replaced_reduction_on_numbers(rs):
    index, value = worst_residual(rs)
    for name, (lengths, oracle) in REPLACED_REDUCTIONS.items():
        if lengths is None or len(rs) in lengths:
            want_index, want_value = oracle(rs)
            assert value == want_value, name
            if want_index is not None:
                assert index == want_index, name
    assert rs[index] == value and index == rs.index(max(rs))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(finite_or_inf, st.just(math.nan)), min_size=1, max_size=6)
       .filter(lambda rs: any(r != r for r in rs)))
def test_worst_residual_is_the_first_nan(rs):
    index, value = worst_residual(rs)
    assert math.isnan(value) and index == next(i for i, r in enumerate(rs) if r != r)
    assert index == _argmax(rs)[0]


def test_a_domain_error_fails_at_any_bound():
    ex = _out_of_domain_pivot()
    for tol in (1e-10, 1e308, math.inf):
        report = check_quasi_1d_assoc(ex, "x", 2, tol=tol)
        failed = [(i.input, i.residual, i.details) for i in report.instances if not i.passed]
        assert failed == [("v/a", math.inf, {"domain_error": "v/b outside the x-splitter domain"})]
        assert report.max_residual == math.inf


# ---------------------------------------------------------------------------
# memoized splitters and counits


def _counting(rule, runs):
    def counted(word):
        runs[word] += 1
        return rule(word)
    return counted


def _memo_words(rule):
    """(shape extents, cells) of every word a splitter's or counit's memo holds."""
    return {(ext, cells) for ext, table in rule._memo.items() for cells in table}


def test_splitter_rule_runs_once_per_distinct_word():
    ex = make_pivot(theta=0.0)
    runs = {"x": Counter(), "y": Counter()}
    ex.splitters["x"] = Splitter("x", _counting(ex.splitter("x").rule, runs["x"]),
                                 ex.splitter("x").domain)
    ex.splitters["y"] = Splitter("y", _counting(ex.splitter("y").rule, runs["y"]),
                                 ex.splitter("y").domain)
    assert boxplus(ex, "v", 5, 5).items() == boxplus(make_pivot(theta=0.0), "v", 5, 5).items()
    # apply_splitter meets the columns growth split, and growth the one it split first
    for word in list(runs["x"]):
        apply_splitter(ex, "x", word)
    apply_splitter(ex, "x", w(ex, [["b"], ["v"], ["a"], ["a"]]))
    assert check_xy_compat(ex, 4, 5).ok
    for d in "xy":
        assert set(runs[d].values()) == {1}
        split = {(word.shape.extents, word.cells) for word in runs[d]}
        assert split == _memo_words(ex.splitter(d))
    # the 5 x 5 growth makes 1+2+3+4 row splits and 5+10+15+20 column splits
    assert sum(len(r) for r in runs.values()) < 60


def _grow_with(split, s):
    """``s`` grown by its last x-slice through ``split``."""
    return slicing(s.shape.extents, "x").grow(s, split)


def test_equal_cells_of_different_shapes_are_different_memo_entries():
    """A cube's x-splitter meets the cells (a, v) as a z-stack (2x1x1) and as
    a y-stack (1x2x1): each gets its own entry and its own blocks, whichever
    came first, through the splitter and through growth alike."""
    from hopf2d.instances import MarkedFamily

    def family():
        return MarkedFamily(markers={cv: (ca, cb)}, cut_pairs=[(ca, cb)], grouplike={ca, cb},
                            key=lambda x, y, z: (z, y, x))

    alphabet = Alphabet(["a", "b", "v"])
    ca, cb, cv = alphabet.symbols
    words = [GridWord(GridShape(2, 1, 1), (ca, cv)), GridWord(GridShape(1, 2, 1), (ca, cv))]
    fresh = [family().splitter("x")(word) for word in words]
    assert fresh[0].shape != fresh[1].shape
    for first in (0, 1):
        split = family().splitter("x")
        order = (first, 1 - first)
        for i in order:
            assert split(words[i]).items() == fresh[i].items()
        assert _memo_words(split) == {((2, 1, 1), (ca, cv)), ((1, 2, 1), (ca, cv))}
        for i in order:
            grown = _grow_with(split, FormalSum.unit(words[i]))
            want = _grow_with(family().splitter("x"), FormalSum.unit(words[i]))
            assert grown.items() == want.items()
            assert set(grown.unordered_items()) == set(fresh[i].unordered_items())


def test_out_of_domain_words_never_enter_the_memo():
    ex = make_pivot(theta=0.0)
    bad = w(ex, [["a"], ["v"], ["b"]])  # a above v: wrong side
    for rule in (ex.splitter("x"), ex.counit("x")):
        for _ in range(2):
            with pytest.raises(DomainError):
                rule(bad)
        assert not _memo_words(rule)
    # growth reaches the bad column held as an x-slice and gathered from cells
    a, b, v = ex.alphabet.symbols
    held = FormalSum.unit(join("x", w(ex, [["b"], ["v"], ["a"]]), bad))
    gathered = FormalSum.unit(GridWord(GridShape(3, 2), (a, b, v, v, b, a)))
    assert held.items() == gathered.items()
    for s in (held, gathered, FormalSum.unit(bad)):
        for _ in range(2):
            with pytest.raises(DomainError, match="a/v/b outside the x-splitter domain"):
                grow(ex, s, "x")
    assert ((3, 1), bad.cells) not in _memo_words(ex.splitter("x"))
    # growth out of the domain fails the same instances with the same words on a warm memo
    planted = _out_of_domain_pivot()
    reports = [check_xy_compat(planted, 3, 3).to_json() for _ in range(2)]
    assert reports[0] == reports[1]
    assert [i["details"]["domain_error"] for i in json.loads(reports[1])["instances"]
            if "domain_error" in i.get("details", {})] == [
        "v/b outside the x-splitter domain", "b/v/b outside the x-splitter domain",
        "b/v/b outside the x-splitter domain"]
    assert ((2, 1), (b, v)) not in _memo_words(planted.splitter("x"))


def _cube_example():
    """The marked-symbol cube of :func:`cube_xyz_compat`, with its z-splitter."""
    from hopf2d.instances import MarkedFamily

    alphabet = Alphabet(["a", "b", "v"])
    a, b, v = alphabet.symbols
    family = MarkedFamily(markers={v: (a, b)}, cut_pairs=[(a, b)], grouplike={a, b},
                          key=lambda x, y, z: (z, y, x))
    ex = family.example("cube", alphabet)
    ex.splitters["z"] = family.splitter("z")
    return ex


GROWN = {"pivot": lambda: make_pivot(theta=0.0), "uq": lambda: make_uq_symbolic(1.3),
         "taft": lambda: make_taft(TaftConfig(3, cmath.exp(2j * math.pi / 3))),
         "cube": _cube_example}
WARM = {name: make() for name, make in GROWN.items()}  # memos kept across examples


def _grown_bits(grow_step):
    """The terms of ``grow_step()`` in ``unordered_items()`` order, with word
    hashes and coefficient bits, or the message of the DomainError it raised."""
    try:
        s = grow_step()
    except DomainError as exc:
        return None, str(exc)
    return s, [(word.shape.extents, word.cells, hash(word), c.real.hex(), c.imag.hex())
               for word, c in s.unordered_items()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GROWN)), st.data())
def test_growth_through_a_warm_memo_is_bit_identical_to_fresh_growth(name, data):
    """Growth on an example whose memos earlier growth filled gives the same
    words, order, hashes and coefficient bits at every step, inner slices
    included, as growth with a fresh example per step."""
    warm = WARM[name]
    sym = data.draw(st.sampled_from(warm.alphabet.symbols))
    s = FormalSum.unit(GridWord(GridShape(*(1,) * (3 if name == "cube" else 2)), (sym,)))
    for _ in range(data.draw(st.integers(1, 6))):
        axis = data.draw(st.sampled_from(sorted(warm.splitters)))
        extent = s.shape.extents[s.shape.axis(axis)]
        if extent == 4:
            continue
        block = data.draw(st.integers(1, extent))
        fresh = _grown_bits(lambda: grow(GROWN[name](), s, axis, block))
        s, got = _grown_bits(lambda: grow(warm, s, axis, block))
        assert got == fresh[1]
        if s is None:
            break


def test_examples_from_one_constructor_share_no_memo():
    first, second = make_pivot(theta=0.0), make_pivot(theta=0.0)
    boxplus(first, "v", 3, 3)
    assert check_counit(first, "y", 3).ok
    assert first.splitter("x")._memo and first.splitter("y")._memo and first.counit("y")._memo
    for rule in (second.splitter("x"), second.splitter("y"), second.counit("x"),
                 second.counit("y")):
        assert rule._memo == {}


def _planted_pivot():
    """pivot(0) whose x-splitter returns the split of the column b/b doubled."""
    ex = make_pivot(theta=0.0)
    bb = w(ex, [["b"], ["b"]])
    honest = ex.splitter("x")
    ex.splitters["x"] = Splitter("x", lambda word: honest.rule(word) * (2 if word == bb else 1),
                                 honest.domain)
    return ex


def _growing_v(ex):
    """A copy of ``ex`` whose xy-compatibility check grows only the symbol v."""
    return dataclasses.replace(ex, grow_symbols=(ex.alphabet["v"],))


def test_xy_compat_walks_every_corner():
    report = check_xy_compat(_growing_v(make_pivot(theta=0.0)), 2, 3)
    assert [i.input for i in report.instances] == [
        "base2x2:v", "corner1x2:v", "corner1x2:v:vs_canonical"]
    assert report.sizes == [(2, 3)]
    corners = {i.input.split(":")[0] for i in check_xy_compat(PIVOT, 4, 3).instances}
    assert corners == {"base2x2"} | {f"corner{k}x{l}" for k in (1, 2, 3) for l in (1, 2)} - {
        "corner1x1"}
    assert [i.input for i in check_xy_compat(_growing_v(PIVOT), 1, 4).instances] == [
        "base2x2:v"]


def test_planted_splitter_fails_and_names_its_worst_word():
    ex = _planted_pivot()
    reports = [check_xy_compat(_growing_v(ex), 2, 3), check_quasi_1d_assoc(ex, "x", 2),
               check_counit(ex, "x", 2)]
    failed = {r.check: [i.input for i in r.instances if not i.passed] for r in reports}
    assert failed == {"xy_compat": ["corner1x2:v"], "quasi_1d_assoc_x": ["b/v"],
                      "counit_x": ["b/b"]}
    for r in reports:
        for inst in r.instances:
            if inst.passed:
                assert inst.details == {}
            else:
                worst = inst.details["worst_word"]
                assert sorted(worst) == ["got", "want", "word"]
                assert abs(complex(*worst["got"]) - complex(*worst["want"])) == inst.residual
    counit_worst = reports[2].instances[2].details["worst_word"]
    assert counit_worst == {"word": "b/b", "got": [2.0, 0.0], "want": [1.0, 0.0]}
    honest = check_xy_compat(_growing_v(make_pivot(theta=0.0)), 2, 3)
    assert honest.ok and all(i.details == {} for i in honest.instances)


def _out_of_domain_pivot():
    """pivot(0) whose x-split of a column of height >= 2 writes ``b`` at the
    bottom of the right copy, where the honest split has ``a``, whenever the
    mark lands there: growth then meets the column v/b."""
    ex = make_pivot(theta=0.0)
    a, b, v = ex.alphabet.symbols
    honest = ex.splitter("x")

    def rule(word):
        out = honest.rule(word)
        if word.shape.rows == 1:
            return out
        return FormalSum(out.shape, [
            (GridWord(t.shape, t.cells[:1] + (b,) + t.cells[2:])
             if v in t.cells[1::2] and t.cells[1] == a else t, c)
            for t, c in out.unordered_items()])

    ex.splitters["x"] = Splitter("x", rule, honest.domain)
    return ex


def test_growth_out_of_the_domain_fails_the_instance_and_names_the_word():
    ex, honest = _out_of_domain_pivot(), make_pivot(theta=0.0)
    checks = [lambda e: check_xy_compat(e, 3, 3), lambda e: check_quasi_1d_assoc(e, "x", 2),
              lambda e: check_counit(e, "x", 2)]
    errors = {}
    for check in checks:
        report, want = check(ex), check(honest)
        assert not report.ok and want.ok
        assert [i.input for i in report.instances] == [i.input for i in want.instances]
        for inst in report.instances:
            if "domain_error" in inst.details:
                assert not inst.passed and inst.residual == math.inf
                errors.setdefault(report.check, []).append(
                    (inst.input, inst.details["domain_error"]))
        assert json.loads(report.to_json())["max_residual"] == "inf"
    assert errors == {
        "xy_compat": [("corner1x2:v:vs_canonical", "v/b outside the x-splitter domain"),
                      ("corner2x2:v", "b/v/b outside the x-splitter domain"),
                      ("corner2x2:v:vs_canonical", "b/v/b outside the x-splitter domain")],
        "quasi_1d_assoc_x": [("v/a", "v/b outside the x-splitter domain")],
        "counit_x": [("v/a", "v/b outside the x-counit domain")]}
    outside = [w(ex, [["a"], ["v"]])]  # a above v: a sample word off the domain still raises
    ex.samplers["x"] = lambda n: outside
    for check in (check_quasi_1d_assoc, check_counit):
        with pytest.raises(DomainError):
            check(ex, "x", 2)


SHIPPED = [make_cyclic_group(3), make_lie_like(["a", "c"]), make_quasi1d_group(),
           make_quasi1d_lie(), make_cross(), make_pivot(theta=0.0), make_pivot(theta=math.pi / 4),
           make_taft(TaftConfig(2, -1.0)), make_taft(TaftConfig(3, cmath.exp(2j * math.pi / 3))),
           make_uq_symbolic(1.7)]


def _contract_last(s: FormalSum, direction, eps) -> FormalSum:
    """Apply the counit to the last column ('x') or the top row ('y') of every term."""
    n, m = s.shape.rows, s.shape.cols
    if direction == "x":
        shape = GridShape(n, m - 1)
        return FormalSum(shape, [
            (GridWord(shape, tuple(c for i in range(n) for c in word.cells[i * m:(i + 1) * m - 1])),
             coeff * eps(word.slice("x", m))) for word, coeff in s.unordered_items()])
    shape = GridShape(n - 1, m)
    return FormalSum(shape, [(GridWord(shape, word.cells[:(n - 1) * m]),
                              coeff * eps(word.slice("y", n)))
                             for word, coeff in s.unordered_items()])


@pytest.mark.parametrize("ex", SHIPPED, ids=lambda ex: ex.name)
@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=4))
def test_counit_undoes_growth_property(ex, short, long):
    for sym in ex.grow_symbols:
        got = _contract_last(boxplus(ex, sym, short, long), "x", ex.counit("x"))
        assert sum_difference(got, boxplus(ex, sym, short, long - 1)) == 0.0, (sym, short, long)
        got = _contract_last(boxplus(ex, sym, long, short, order="x_first"), "y", ex.counit("y"))
        want = boxplus(ex, sym, long - 1, short, order="x_first")
        assert sum_difference(got, want) == 0.0, (sym, long, short)


def _growth_dump(ex) -> str:
    """Every grow symbol of ``ex`` grown to every size up to 4 x 4 in both
    orders, one line per term with its coefficient as float hex."""
    lines = []
    for sym in ex.grow_symbols:
        for n in range(1, 5):
            for m in range(1, 5):
                for order in ("y_first", "x_first"):
                    lines.append(f"{sym} {n}x{m} {order}")
                    lines += [f"{word!r} {c.real.hex()} {c.imag.hex()}"
                              for word, c in boxplus(ex, sym, n, m, order=order).items()]
    return "\n".join(lines)


# sha256 of _growth_dump per shipped instance, pinned from the growth engine
# that walked columns and rows with separate splice helpers
GROWTH_DIGESTS = {
    "group_like": "e606d458dddc26d92103a6d4522ac951bf57a246a45fa1a1d1f35dadf89ca85c",
    "lie_like": "ad4c78f5acdb2cf9413ff6c26d5595c09537567896ef8a5e96fb250b27b8b852",
    "quasi1d_group": "7143208511994a8e49c1755fe4eeaf3678f949b8a9d4ee9fdc31d149e25d80bc",
    "quasi1d_lie": "69668b286c7a162ef1dbc8ddf63f3fd6afe8807086707581cff51b34ff3e06a9",
    "cross": "4cdfdaaef9d3f5144975971ac782e4cdb1c2ea8b56e833ddf19ebdd40bdaa8ff",
    "pivot(theta=0)": "d973ef0276ed745a7983d4083c35d0709a5b563c4730b597912951428a1dd184",
    "pivot(theta=0.785398)": "e057d2052904fd2929d7f5d6750f9c16d9645a6e3883889e3ce96c9b8cc455f3",
    "taft(n=2)": "1b996993f0e84656d9feca1300406f44896e9738238ff90a183e333624eb29c7",
    "taft(n=3)": "1b996993f0e84656d9feca1300406f44896e9738238ff90a183e333624eb29c7",
    "uq(q=1.7+0j)": "62d187159e12b4d1f90fd1f1d166dca7ae49e44e627541b34e8e34c14f9d20a9",
}


@pytest.mark.parametrize("ex", SHIPPED, ids=lambda ex: ex.name)
def test_grown_sums_are_byte_identical(ex):
    digest = hashlib.sha256(_growth_dump(ex).encode()).hexdigest()
    assert digest == GROWTH_DIGESTS[ex.name]


def test_cube_report_names_every_size_and_order():
    report = cube_xyz_compat()
    assert report.sizes == [(2, 2, 2), (3, 3, 3), (4, 4, 4)]
    assert json.loads(report.to_json())["sizes"] == [[2, 2, 2], [3, 3, 3], [4, 4, 4]]
    assert [i.input for i in report.instances] == [
        "v", "a", "b", "v:3x3x3", "a:3x3x3", "b:3x3x3", "v:4x4x4", "a:4x4x4", "b:4x4x4"]
    assert [i.details for i in report.instances if i.input[0] == "v"] == [
        {"terms": 8}, {"terms": 27}, {"terms": 64}]
    assert report.ok and report.max_residual == 0.0


def _cube_example():
    from hopf2d.grids import Alphabet
    from hopf2d.instances import MarkedFamily

    alphabet = Alphabet(["a", "b", "v"])
    a, b, v = alphabet.symbols
    family = MarkedFamily({v: (a, b)}, [(a, b)], {a, b}, lambda x, y, z: (z, y, x))
    ex = family.example("cube", alphabet)
    ex.splitters["z"] = family.splitter("z")
    return ex, (a, b, v)


def test_cube_grows_through_the_planar_engine_in_an_interleaved_order():
    ex, (a, b, v) = _cube_example()
    s = FormalSum.unit(GridWord(GridShape(1, 1, 1), (v,)))
    for axis in "xyzxyz":
        s = grow(ex, s, axis)
    shape = GridShape(3, 3, 3)
    assert s.shape == shape and len(s) == 27
    for p in range(27):
        cells = (a,) * p + (v,) + (b,) * (26 - p)
        assert s.coeff(GridWord(shape, cells)) == 1.0
    with pytest.raises(ValueError):
        PIVOT.splitter("z")
    with pytest.raises(ShapeError):
        grow(PIVOT, boxplus(PIVOT, "v", 2, 2), "z")
    with pytest.raises(ShapeError):
        apply_splitter(ex, "z", s.items()[0][0].slice("x", 1))  # extent 3 along z
    with pytest.raises(ShapeError):
        apply_splitter(PIVOT, "x", w(PIVOT, [["a", "b"]]))


def test_planted_z_splitter_fails_the_cube_and_names_its_word(monkeypatch):
    from hopf2d.instances import MarkedFamily

    honest = MarkedFamily.splitter

    def planted(self, axis):
        """Once x and y are grown, a mark landing in the upper copy of a
        layer gets ``b`` on the lower copy's last site, where ``a`` belongs."""
        split = honest(self, axis)
        if axis != "z":
            return split
        (v, (a, b)), = self.markers.items()

        def rule(word):
            out = split.rule(word)
            _, ny, nx = word.shape.extents
            if ny != nx or nx == 1:
                return out
            half = word.shape.sites
            return FormalSum(out.shape, [
                (GridWord(out.shape, t.cells[:half - 1] + (b,) + t.cells[half:])
                 if v in t.cells[half:] else t, c)
                for t, c in out.unordered_items()])

        return Splitter("z", rule, split.domain)

    monkeypatch.setattr(MarkedFamily, "splitter", planted)
    report = cube_xyz_compat()
    failed = {i.input: i.details["worst_word"] for i in report.instances if not i.passed}
    assert sorted(failed) == ["v", "v:3x3x3", "v:4x4x4"]
    assert failed["v"] == {"word": "a a/a a | a v/a a", "got": [0.0, 0.0], "want": [1.0, 0.0]}
    assert all(worst["word"].count(" | ") == int(k[-1]) - 1
               for k, worst in failed.items() if k != "v")


def test_planted_z_splitter_that_leaves_the_domain_fails_the_cube(monkeypatch):
    from hopf2d.instances import MarkedFamily

    honest = MarkedFamily.splitter

    def planted(self, axis):
        """A mark landing in the upper copy of a layer, past its first site,
        gets ``b`` on the site before it, where ``a`` belongs."""
        split = honest(self, axis)
        if axis != "z":
            return split
        (v, (a, b)), = self.markers.items()

        def rule(word):
            out, terms = split.rule(word), []
            for t, c in out.unordered_items():
                p = t.cells.index(v) if v in t.cells else 0
                if p > word.shape.sites:
                    t = GridWord(t.shape, t.cells[:p - 1] + (b,) + t.cells[p:])
                terms.append((t, c))
            return FormalSum(out.shape, terms)

        return Splitter("z", rule, split.domain)

    monkeypatch.setattr(MarkedFamily, "splitter", planted)
    report = cube_xyz_compat()
    assert len(report.instances) == 9
    failed = {i.input: i for i in report.instances if not i.passed}
    assert sorted(failed) == ["v", "v:3x3x3", "v:4x4x4"]
    assert failed["v"].residual == math.inf
    assert failed["v"].details == {"domain_error": "a a | b v outside the y-splitter domain"}


@pytest.mark.parametrize("ex", SHIPPED, ids=lambda ex: ex.name)
def test_samples_are_distinct_slices_in_both_domains_of_their_axis(ex):
    for axis in ex.samplers:
        for n in range(1, 5):
            words = ex.samples(axis, n)
            assert words and len(set(words)) == len(words), (axis, n)
            for word in words:
                assert word.shape.extents[word.shape.axis(axis)] == 1
                assert ex.splitter(axis).domain(word), (axis, word)
                assert ex.counit(axis).domain(word), (axis, word)


def test_samples_and_rules_exist_only_along_the_example_axes():
    assert PIVOT.samples("x", 2) and PIVOT.samples("y", 2)
    uq = make_uq_symbolic(1.3)
    for read in (lambda: PIVOT.samples("z", 2), lambda: PIVOT.splitter("z"),
                 lambda: PIVOT.counit("w"), lambda: uq.antipode("z", word1(uq.alphabet["1"]))):
        with pytest.raises(ValueError):
            read()


def _out_of_domain_taft():
    """taft(2) whose x-split of a column of height >= 2 writes ``g`` at the
    bottom of the right copy, where the honest split has ``1``, whenever the
    mark lands there: growth of ``x`` then meets the column x/g."""
    ex = make_taft(TaftConfig(2, -1.0))
    one, g, x = (ex.alphabet[s] for s in ("1", "g", "x"))
    honest = ex.splitter("x")

    def rule(word):
        out = honest.rule(word)
        if word.shape.rows == 1:
            return out
        return FormalSum(out.shape, [
            (GridWord(t.shape, t.cells[:1] + (g,) + t.cells[2:])
             if x in t.cells[1::2] and t.cells[1] == one else t, c)
            for t, c in out.unordered_items()])

    ex.splitters["x"] = Splitter("x", rule, honest.domain)
    return ex


def test_only_symbols_outside_the_first_splitter_fall_back_to_the_1d_rule():
    ex = _out_of_domain_taft()
    x, gx = ex.alphabet["x"], ex.alphabet["gx"]
    with pytest.raises(DomainError, match="x/g outside the x-splitter domain"):
        boxplus(ex, x, 2, 3)
    table = OperatorTable(ex, regular_rep(ex), 2, 3)
    # x is in the y-splitter's domain, so its growth error is not papered over
    with pytest.raises(DomainError, match="x/g outside the x-splitter domain"):
        table.element(x)
    # gx is outside it: the product symbol still takes the 1D rule, by symbol or by name
    want = boxplus_from_1d(ex.meta["delta_1site"], gx, 2, 3)
    assert sum_difference(table.element(gx), want) == 0.0
    assert sum_difference(table.element("gx"), want) == 0.0
    report = check_homomorphism(ex, regular_rep(ex), 2, 3, [("g", "g"), ("x", "g")])
    assert [(i.input, i.passed, i.residual) for i in report.instances] == [
        ("g*g", True, 0.0), ("x*g", False, math.inf)]
    assert report.instances[1].details == {"domain_error": "x/g outside the x-splitter domain"}
    assert json.loads(report.to_json())["max_residual"] == "inf"
    honest = make_taft(TaftConfig(2, -1.0))
    assert check_homomorphism(honest, regular_rep(honest), 2, 3, [("x", "g")]).ok


def test_a_failing_homomorphism_pair_names_its_worst_entry():
    ex = make_cyclic_group(3)
    one, g, g2 = ex.alphabet.symbols
    honest = ex.multiplication
    # the honest group's representation: one read from the planted table
    # below is not associative, so the honest g*g2 pair would fail in it too
    rep = regular_rep(ex)
    # plant a wrong product: g * g gives the unit instead of g2
    ex.multiplication = MultiplicationRule(
        lambda u, w: FormalSum.unit(word1(one)) if (u, w) == (g, g) else honest(u, w))
    report = check_homomorphism(ex, rep, 2, 2, [("g", "g"), ("g", "g2")])
    bad, good = report.instances
    assert (bad.input, bad.passed, good.input, good.passed) == ("g*g", False, "g*g2", True)
    entry = bad.details["worst_entry"]
    assert set(bad.details) == {"worst_entry"}
    assert set(entry) == {"row", "col", "lhs", "rhs"}
    assert abs(complex(*entry["lhs"]) - complex(*entry["rhs"])) == bad.residual == 1.0
    assert good.details == {} and good.residual == 0.0
    written = json.loads(report.to_json())["instances"]
    assert ["details" in i for i in written] == [True, False]


def _counted(monkeypatch, *names):
    """Count the calls of each named function at its binding in the coalgebra module."""
    calls = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(coalgebra, name, counting(name, getattr(coalgebra, name)))
    return calls


def test_homomorphism_grows_and_evaluates_each_generator_once(monkeypatch):
    ex = make_taft(TaftConfig(2, -1.0))
    rep = regular_rep(ex)
    pairs = [(u, w) for u in ex.grow_symbols for w in ex.grow_symbols]
    calls = _counted(monkeypatch, "evaluate", "boxplus", "boxplus_from_1d")
    report = check_homomorphism(ex, rep, 2, 2, pairs)
    assert report.ok and len(report.instances) == 9
    # the three generators are evaluated, and the three products that are
    # not one generator with coefficient 1 (g*x = gx, x*g = -gx, x*x = 0);
    # the other six are the generators' kept operators.  The generators
    # 1, g and x are grown once each, and gx, which only the products
    # hold, takes the 1D rule once
    assert calls == {"evaluate": 6, "boxplus": 3, "boxplus_from_1d": 1}
    # every product of the group is one of its elements: only the three
    # generators are evaluated
    group = make_cyclic_group(3)
    calls.clear()
    pairs = [(u, w) for u in group.grow_symbols for w in group.grow_symbols]
    assert check_homomorphism(group, regular_rep(group), 2, 2, pairs).ok
    assert calls == {"evaluate": 3, "boxplus": 3}


def test_a_table_keeps_each_element_and_operator_it_builds(monkeypatch):
    ex = make_cyclic_group(3)
    rep = regular_rep(ex)
    table = OperatorTable(ex, rep, 2, 2)
    calls = _counted(monkeypatch, "evaluate", "boxplus")
    g = ex.alphabet["g"]
    assert table[g] is table[g] and table.element(g) is table.element(g)
    for sym in ex.grow_symbols:
        want = evaluate(boxplus(ex, sym, 2, 2), rep)
        assert (table[sym] - want).max_abs() == 0.0
    # the test's own calls above go through the linops and coalgebra names
    # it imported, so the counts are the table's: one growth and one
    # evaluation per generator
    assert calls == {"evaluate": 3, "boxplus": 3}


def _placement(shape, mark, before, after, key):
    """The marked-symbol element: the mark once on each site, ``before`` on
    the sites preceding it under ``key`` (row, col), ``after`` on the rest."""
    sites = [(i, j) for i in range(1, shape.rows + 1) for j in range(1, shape.cols + 1)]
    return FormalSum(shape, [
        (GridWord(shape, tuple(mark if q == p else (before if key(*q) < key(*p) else after)
                               for q in sites)), 1.0) for p in sites])


@pytest.mark.parametrize("theta,key", [(0.0, lambda i, j: (i, j)),
                                       (math.pi / 4, lambda i, j: (i, -j))],
                         ids=["theta=0", "theta=pi/4"])
@pytest.mark.parametrize("order", ["y_first", "x_first"])
def test_pivot_16x16_is_its_placement_in_both_orders(theta, key, order):
    ex = make_pivot(theta=theta)
    a, b, v = ex.alphabet.symbols
    got = boxplus(ex, v, 16, 16, order=order)
    assert len(got) == 256 and all(c == 1 for _, c in got.unordered_items())
    assert sum_difference(got, _placement(GridShape(16, 16), v, a, b, key)) == 0.0


def test_uq_and_taft_12x12_match_their_oracles():
    uq = make_uq_symbolic(1.7)
    got = boxplus(uq, "S+", 12, 12)
    al = uq.alphabet
    want = _placement(GridShape(12, 12), al["S+"], al["K-"], al["K+"], lambda i, j: (i, j))
    assert len(got) == 144 and sum_difference(got, want) == 0.0
    taft = make_taft(TaftConfig(3, cmath.exp(2j * math.pi / 3)))
    got = boxplus(taft, "x", 12, 12)
    want = boxplus_from_1d(taft.meta["delta_1site"], taft.alphabet["x"], 12, 12)
    assert len(got) == 144 and all(c == 1 for _, c in got.unordered_items())
    assert sum_difference(got, want) == 0.0


def test_checks_reject_a_representation_naming_the_ids_otherwise():
    ex = make_cyclic_group(3)
    rep = regular_rep(ex)
    renamed = Representation(Alphabet(["1", "h", "h2"]), rep.matrices)
    match = "symbol id 1 is 'g' in the example's alphabet but 'h' "
    with pytest.raises(RepresentationError, match=match):
        check_homomorphism(ex, renamed, 2, 2, [("g", "g")])
    with pytest.raises(RepresentationError, match=match):
        check_antipode(ex, renamed, "x", 2)
    assert check_homomorphism(ex, rep, 2, 2, [("g", "g")]).ok and check_antipode(ex, rep, "x", 2).ok


def _wrong_shape_split():
    split = Splitter("x", lambda w: FormalSum.unit(w), lambda w: True)  # 1 x 1, not 1 x 2
    split(word1(PIVOT.alphabet["v"]))


def _wide_product():
    ex = make_cyclic_group(3)
    g = ex.alphabet["g"]
    # a planted rule whose product is a 1 x 2 sum, not a 1 x 1 one
    ex.multiplication = MultiplicationRule(lambda u, w: boxplus(ex, u, 1, 2))
    OperatorTable(ex, regular_rep(ex), 2, 2).product(g, g)


@pytest.mark.parametrize("call, error, fragment", [
    (_wrong_shape_split, ShapeError, "splitter returned 1x1, expected 1x2"),
    (lambda: boxplus(PIVOT, "v", 2, 2, order="diagonal"), ValueError,
     "unknown growth order 'diagonal'"),
    (_wide_product, ShapeError, "the product g*g is 1x2, not a 1 x 1 sum"),
    (lambda: check_homomorphism(make_lie_like(["a"]), None, 2, 2, []), ConfigurationError,
     "lie_like carries no multiplication rule"),
    (lambda: check_antipode(make_quasi1d_group(), None, "x", 2), ConfigurationError,
     "quasi1d_group carries no antipode rule"),
    (lambda: dual_product([[{}], [{}]], PIVOT, "v", 2, 2), ShapeError,
     "functional grid does not match"),
], ids=["splitter-shape", "growth-order", "product-shape", "no-multiplication",
        "no-antipode", "functional-grid"])
def test_each_refused_input_raises_its_error(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("example", [
    make_cyclic_group(3), make_lie_like(["a", "c"]), make_uq_symbolic(1.3),
    make_taft(TaftConfig(3, cmath.exp(2j * math.pi / 3))), make_pivot(theta=math.pi / 4),
], ids=lambda ex: ex.name)
def test_the_grown_premise_keeps_the_bits_of_the_hand_built_one(example):
    """The premise residual, measured on the symbol grown x then y and y then
    x, has the bits of splitting hand-built rows and columns cell by cell."""
    dx, dy = _rules_from(example, [s.name for s in example.grow_symbols])
    split_x, split_y = _cellwise_splitter("x", dx), _cellwise_splitter("y", dy)

    def hand_built(rules, split, shape):
        return FormalSum(GridShape(2, 2), [(w, c * a) for a, s1, s2 in rules
                                           for w, c in split(GridWord(shape, (s1, s2))).items()])

    report = check_trivial_proposition(dx, dy, list(dx))
    premise = [sum_difference(hand_built(dx[sym], split_y, GridShape(1, 2)),
                              hand_built(dy[sym], split_x, GridShape(2, 1))) for sym in dx]
    assert [i.details["premise_holds"] for i in report.instances] == [r <= EQ_TOL for r in premise]
    if not all(r <= EQ_TOL for r in premise):
        assert [i.residual for i in report.instances] == premise
