import json

import pytest

from regroot import (
    Case,
    Transformation,
    VerifyReport,
    suite_counting,
    suite_full_tn,
    suite_gap,
    suite_lower_bound,
    suite_min_dfa,
    suite_start_final_variation,
    suite_unary,
)
from regroot import verify
from regroot.dfa import chain_dfa
from regroot.verify import SUITES


def case_by_name(report, name):
    for c in report.cases:
        if c.name == name:
            return c
    raise KeyError(name)


class TestReportPlumbing:
    def test_pass_fail_aggregation(self):
        good = Case("x", True, "1", "1", 0.0)
        bad = Case("y", False, "1", "2", 0.0)
        assert VerifyReport("s", {}, (good,)).passed
        assert not VerifyReport("s", {}, (good, bad)).passed

    def test_to_dict_schema(self):
        r = VerifyReport("s", {"n": 3}, (Case("x", True, "1", "1", 0.25),))
        d = r.to_dict()
        assert set(d) == {"suite", "params", "cases", "pass"}
        assert d["cases"][0] == {
            "name": "x",
            "passed": True,
            "expected": "1",
            "measured": "1",
            "seconds": 0.25,
        }
        json.dumps(d)  # serializable

    def test_format_table_marks_failures(self):
        r = VerifyReport("s", {}, (Case("x", False, "1", "2", 0.0),))
        text = r.format_table()
        assert "FAIL" in text and "expected 1" in text and "measured 2" in text


class TestEquivalenceStructure:
    # The equivalence-structure cases are part of the min-dfa suite.
    def test_2_3(self):
        r = suite_min_dfa(2, 3)
        assert r.passed
        assert case_by_name(r, "two-element-classes").measured == "10"
        assert case_by_name(r, "class-count").measured == "1847"

    def test_budget_and_input_checks(self):
        with pytest.raises(ValueError):
            suite_min_dfa(2, 2)
        with pytest.raises(ValueError):
            suite_min_dfa(3, 2)  # needs l >= 3
        with pytest.raises(ValueError):
            suite_min_dfa(4, 5)  # over the n <= 7 budget


class TestMinDfa:
    def test_2_3(self):
        r = suite_min_dfa(2, 3)
        assert r.passed
        assert [c.name for c in r.cases] == [
            "class-count",
            "monoid-size-vs-formula",
            "no-larger-classes",
            "pair-shape",
            "root-state-complexity",
            "two-element-classes",
        ]
        assert case_by_name(r, "monoid-size-vs-formula").expected == "1857"
        assert case_by_name(r, "root-state-complexity").measured == "1847"

    def test_a_wrong_complement_fails_pair_shape(self, monkeypatch):
        monkeypatch.setattr(Transformation, "complement", lambda self: self)
        r = suite_min_dfa(2, 3)
        assert not r.passed
        assert [c.name for c in r.cases if not c.passed] == ["pair-shape"]
        assert case_by_name(r, "pair-shape").measured == "violation found"


class TestFullTn:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 24), (4, 250)])
    def test_small_degrees(self, n, expected):
        r = suite_full_tn(n)
        assert r.passed
        assert case_by_name(r, "root-state-complexity").measured == str(expected)

    def test_budget(self):
        # T_7 is within the budget, though the default runs stop at 6.
        _, budget, runs = SUITES["full-tn"]
        assert budget(7) == 7
        assert max(runs) == (6,)
        with pytest.raises(ValueError, match="1 <= n <= 7, got 8"):
            suite_full_tn(8)
        with pytest.raises(ValueError):
            suite_full_tn(0)


class TestStartFinalVariation:
    def test_2_3(self):
        r = suite_start_final_variation(2, 3)
        assert r.passed
        assert case_by_name(r, "baseline").measured == "1847"
        assert len(r.cases) == 6  # baseline + one case per start state

    def test_budget(self):
        with pytest.raises(ValueError):
            suite_start_final_variation(3, 4)  # n = 7 > 5


class TestUnary:
    def test_small_run(self):
        r = suite_unary(6, seed=0, samples=25)
        assert r.passed
        assert case_by_name(r, "single-word-n=04").passed

    def test_deterministic(self):
        r1 = suite_unary(4, seed=3, samples=10)
        r2 = suite_unary(4, seed=3, samples=10)
        assert [c.name for c in r1.cases] == [c.name for c in r2.cases]
        assert [c.measured for c in r1.cases] == [c.measured for c in r2.cases]

    def test_budget(self):
        with pytest.raises(ValueError):
            suite_unary(15)

    def test_a_wrong_unary_root_fails_every_random_case(self, monkeypatch):
        # The empty language is the root of no sample with a final state.
        monkeypatch.setattr(verify, "unary_root", lambda d: chain_dfa(0, 1, set(), d.alphabet))
        r = suite_unary(4, seed=0, samples=20)
        assert not r.passed
        random_cases = [c for c in r.cases if c.name.startswith("random-n=")]
        assert [c.name for c in random_cases] == ["random-n=02", "random-n=03", "random-n=04"]
        assert not any(c.passed for c in random_cases)


class TestCountingSuites:
    def test_gap_reduced_budget(self):
        r = suite_gap(10)
        assert r.passed
        assert case_by_name(r, "enumeration-crosscheck-n=7").expected == "218074"
        assert case_by_name(r, "formula-vs-enumeration-(2,5)").measured == "610871"
        assert case_by_name(r, "formula-vs-enumeration-(5,2)").measured == "392797"

    def test_lower_bound_reduced_budget(self):
        r = suite_lower_bound(12)
        assert r.passed

    def test_budgets_enforced(self):
        with pytest.raises(ValueError):
            suite_gap(101)
        with pytest.raises(ValueError):
            suite_gap(6)
        with pytest.raises(ValueError):
            suite_lower_bound(144)


def test_counting_suite_passes():
    r = suite_counting()
    assert r.passed
    names = [c.name for c in r.cases]
    assert names == sorted(names)
    # (2,3) and (3,4) are enumerated by the min-dfa suite, (2,5) and (5,2)
    # by the gap suite.
    assert [n for n in names if n.startswith("formula-vs-enumeration")] == [
        "formula-vs-enumeration-(3,2)"
    ]


def test_every_default_run_is_within_its_budget():
    for _, budget, runs in SUITES.values():
        assert runs
        for run in runs:
            budget(*run)
    assert SUITES["min-dfa"][2] == ((2, 3), (3, 4))
