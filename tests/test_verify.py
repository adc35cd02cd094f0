import json
import math
from unittest.mock import patch

import pytest

from regroot import RootAutomaton, Transformation, verify
from regroot.counting import _ukl_terms
from regroot.dfa import chain_dfa
from regroot.monoid import tn_generators
from regroot.verify import (
    SUITES,
    Case,
    VerifyReport,
    _merge_report,
    suite_counting,
    suite_full_tn,
    suite_gap,
    suite_lower_bound,
    suite_min_dfa,
    suite_start_final_variation,
    suite_unary,
)

from conftest import spy_refinements


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
            "rank-profile-vs-formula",
            "root-state-complexity",
            "two-element-classes",
        ]
        assert case_by_name(r, "monoid-size-vs-formula").expected == "1857"
        assert case_by_name(r, "rank-profile-vs-formula").expected == "{1: 5, 2: 280, 3: 1134, 4: 432, 5: 6}"
        assert case_by_name(r, "root-state-complexity").measured == "1847"

    @pytest.mark.parametrize(
        "run", [lambda: suite_min_dfa(2, 3), lambda: suite_full_tn(3)], ids=["min-dfa", "full-tn"]
    )
    def test_a_wrong_complement_fails_pair_shape(self, monkeypatch, run):
        monkeypatch.setattr(Transformation, "complement", lambda self: self)
        r = run()
        assert not r.passed
        assert [c.name for c in r.cases if not c.passed] == ["pair-shape"]
        assert case_by_name(r, "pair-shape").measured == "violation found"


class TestMergeReport:
    # Two-generated monoids larger than any U_{k,l} of their degree: at
    # degree 5 those are U_{2,3} (1,857) and U_{3,2} (1,433), and degree 6
    # has no coprime split with both cycles of length at least 2.  Their
    # elements of each rank, counted once by closure.
    RANKS = {
        ((4, 3, 1, 4, 2), (5, 3, 4, 1, 2)): {1: 5, 2: 300, 3: 1200, 4: 600, 5: 5},
        ((1, 1, 2, 3, 4), (2, 3, 5, 1, 4)): {1: 5, 2: 300, 3: 1200, 4: 600, 5: 5},
        ((2, 4, 6, 5, 3, 1), (6, 2, 5, 6, 1, 4)): {1: 6, 2: 930, 3: 10080, 4: 16920, 5: 4320, 6: 6},
    }

    @pytest.mark.parametrize(
        "gens,size,states,pairs",
        [
            (((4, 3, 1, 4, 2), (5, 3, 4, 1, 2)), 2110, 2100, 10),
            (((1, 1, 2, 3, 4), (2, 3, 5, 1, 4)), 2110, 2100, 10),
            (((2, 4, 6, 5, 3, 1), (6, 2, 5, 6, 1, 4)), 32262, 32247, 15),
        ],
    )
    def test_other_generator_sets(self, gens, size, states, pairs):
        ranks = self.RANKS[gens]
        assert sum(ranks.values()) == size
        r = _merge_report("pair", {}, [Transformation(g) for g in gens], ranks)
        assert r.passed
        assert len(r.cases) == 7
        assert case_by_name(r, "monoid-size-vs-formula").measured == str(size)
        assert case_by_name(r, "root-state-complexity").measured == str(states)
        assert case_by_name(r, "two-element-classes").measured == str(pairs)

    def test_a_wrong_size_fails_the_two_size_cases(self):
        # One map too many at rank 3 also fails the rank profile.
        r = _merge_report("full-tn", {"n": 3}, tn_generators(3), {1: 3, 2: 18, 3: 7})
        failed = [c.name for c in r.cases if not c.passed]
        assert failed == ["monoid-size-vs-formula", "rank-profile-vs-formula", "root-state-complexity"]
        assert case_by_name(r, "root-state-complexity").expected == "25"

    def test_a_wrong_rank_profile_of_the_right_size_fails_only_that_case(self):
        r = _merge_report("full-tn", {"n": 3}, tn_generators(3), {1: 4, 2: 17, 3: 6})
        assert [c.name for c in r.cases if not c.passed] == ["rank-profile-vs-formula"]
        assert case_by_name(r, "rank-profile-vs-formula").measured == "{1: 3, 2: 18, 3: 6}"


class TestFullTn:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 24), (4, 250)])
    def test_small_degrees(self, n, expected):
        r = suite_full_tn(n)
        assert r.passed
        assert [c.name for c in r.cases] == [
            "class-count",
            "monoid-size-vs-formula",
            "no-larger-classes",
            "pair-shape",
            "rank-profile-vs-formula",
            "root-state-complexity",
            "two-element-classes",
        ]
        assert case_by_name(r, "root-state-complexity").measured == str(expected)
        assert case_by_name(r, "two-element-classes").measured == str(math.comb(n, 2))

    def test_budget(self):
        # T_7 is within the budget, though the default runs stop at 6.
        entry = SUITES["full-tn"]
        assert entry.budget(7) == 7
        assert max(entry.defaults) == (6,)
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

    def test_one_root_automaton_serves_every_assignment(self):
        with patch.object(verify, "root_automaton", wraps=verify.root_automaton) as spy:
            assert suite_start_final_variation(2, 3).passed
        assert spy.call_count == 1


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
        for samples in (0, -3, 1001):
            with pytest.raises(ValueError, match=f"1 <= samples <= 1000, got {samples}"):
                suite_unary(4, samples=samples)
        with pytest.raises(ValueError, match="samples 2.5 is not an integer"):
            suite_unary(4, samples=2.5)

    def test_a_wrong_unary_root_fails_every_random_case(self, monkeypatch):
        # The empty language is the root of no sample with a final state.
        monkeypatch.setattr(verify, "unary_root", lambda d: chain_dfa(0, 1, set(), d.alphabet))
        r = suite_unary(4, seed=0, samples=20)
        assert not r.passed
        random_cases = [c for c in r.cases if c.name.startswith("random-n=")]
        assert [c.name for c in random_cases] == ["random-n=02", "random-n=03", "random-n=04"]
        assert not any(c.passed for c in random_cases)

    def test_a_root_larger_than_the_language_fails_every_random_case(self, monkeypatch):
        # Both constructions agree on a 5-cycle, which no sample of at most
        # 4 states needs.
        five = chain_dfa(0, 5, {5})
        monkeypatch.setattr(verify, "unary_root", lambda d: five)
        monkeypatch.setattr(verify, "root_automaton", lambda d: RootAutomaton(five, None))
        r = suite_unary(4, samples=5)
        single = [c for c in r.cases if c.name.startswith("single-word-n=")]
        random_cases = [c for c in r.cases if c.name.startswith("random-n=")]
        assert [c.measured for c in single] == [f"sc {n}, root sc 5, agree True" for n in (2, 3, 4)]
        assert [c.measured for c in random_cases] == ["0 agreements"] * 3

    def test_a_disagreement_names_a_shortest_word(self, monkeypatch):
        # The empty language against the roots of {}, {a} and {aa}: the
        # root of {aa} holds a, since a a = aa.
        monkeypatch.setattr(verify, "unary_root", lambda d: chain_dfa(0, 1, set(), d.alphabet))
        r = suite_unary(4, samples=20)
        single = [c.measured for c in r.cases if c.name.startswith("single-word-n=")]
        assert single == [
            "sc 2, root sc 1, agree False, differs on the empty word",
            "sc 3, root sc 1, agree False, differs on a",
            "sc 4, root sc 1, agree False, differs on a",
        ]
        random_cases = [c.measured for c in r.cases if c.name.startswith("random-n=")]
        assert all(", differs on " in m for m in random_cases)

    def test_two_refinements_per_dfa(self):
        # 3 single words and 3 * 10 random samples: the language and its
        # root by divisor marking are minimized, and the generic
        # construction is compared by the union-find walk.
        with spy_refinements() as (arrays, lists):
            suite_unary(4, samples=10)
        assert arrays.call_count + lists.call_count == 2 * 33


class TestCountingSuites:
    def test_gap_reduced_budget(self):
        r = suite_gap(10)
        assert r.passed
        assert case_by_name(r, "enumeration-crosscheck-n=7").expected == "218074"
        assert case_by_name(r, "formula-vs-enumeration-(2,5)").measured == "610871"
        assert case_by_name(r, "formula-vs-enumeration-(5,2)").measured == "392797"
        assert case_by_name(r, "rank-profile-vs-formula-(2,5)").passed
        assert case_by_name(r, "rank-profile-vs-formula-(5,2)").passed

    def test_a_wrong_rank_count_fails_only_the_rank_cases(self, monkeypatch):
        # A constant map counted at rank 2 leaves every size unchanged.
        def moved(k, l):
            ranks = _ukl_terms(k, l)
            return {**ranks, 1: ranks[1] - 1, 2: ranks[2] + 1}

        monkeypatch.setattr(verify, "_ukl_terms", moved)
        r = suite_gap(10)
        assert [c.name for c in r.cases if not c.passed] == [
            "rank-profile-vs-formula-(2,5)",
            "rank-profile-vs-formula-(5,2)",
        ]

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
    assert [n for n in names if n.startswith("rank-profile")] == ["rank-profile-vs-formula-(3,2)"]


def test_every_default_run_is_within_its_budget():
    for entry in SUITES.values():
        assert entry.defaults
        for run in entry.defaults:
            entry.budget(*run)
    assert SUITES["min-dfa"].defaults == ((2, 3), (3, 4))
