import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from regroot import (
    Transformation,
    binomial,
    cycle_pair,
    hk_lower_bound,
    largest_two_generated,
    parse,
    stirling2,
    tn_generators,
    ukl_gap,
    ukl_generators,
    ukl_size_formula,
    verify,
)
from regroot import cli
from regroot.cli import main
from regroot.counting import BEST_SPLIT_MAX_N, UKL_MAX_N, _ukl_terms
from regroot.monoid import DEFAULT_MAX_ELEMENTS

from conftest import EXAMPLE_DFA_TEXT

UNARY_AA = """\
states 4
alphabet a
start 1
finals 3
trans a 2 3 4 4
"""

EMPTY_LANG = """\
states 2
alphabet a
start 1
finals
trans a 2 2
"""


@pytest.fixture
def example_path(tmp_path):
    p = tmp_path / "example.dfa"
    p.write_text(EXAMPLE_DFA_TEXT)
    return str(p)


@pytest.fixture
def unary_path(tmp_path):
    p = tmp_path / "aa.dfa"
    p.write_text(UNARY_AA)
    return str(p)


class TestRoot:
    def test_minimized_root_of_example(self, example_path, tmp_path, capsys):
        out = tmp_path / "root.dfa"
        assert main(["root", example_path, "--minimize", "-o", str(out)]) == 0
        assert capsys.readouterr().out == "states=1847\n"
        d = parse(out.read_text())
        assert d.n == 1847

    def test_unminimized_prints_monoid_size(self, example_path, capsys):
        assert main(["root", example_path]) == 0
        assert capsys.readouterr().out == "states=1857\n"

    def test_empty_language(self, tmp_path, capsys):
        p = tmp_path / "empty.dfa"
        p.write_text(EMPTY_LANG)
        out = tmp_path / "out.dfa"
        assert main(["root", str(p), "--minimize", "-o", str(out)]) == 0
        assert capsys.readouterr().out == "states=1\n"
        assert parse(out.read_text()).finals.tolist() == []

    def test_missing_file(self, capsys):
        assert main(["root", "/nonexistent/x.dfa"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.dfa"
        p.write_text(EXAMPLE_DFA_TEXT.replace("trans a 2 1 4 5 3", "trans a 2 1 4 5 6"))
        assert main(["root", str(p)]) == 2
        err = capsys.readouterr().err
        assert "line 6" in err and "out of range" in err

    def test_budget_exceeded(self, example_path, capsys):
        assert main(["root", example_path, "--max-elements", "100"]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["2.0 1.0", "True False", "2 3", "2 1 1", "2 0_2", "+2 2", "2 \uff12"])
    def test_bad_transition_row_exits_2(self, tmp_path, capsys, row):
        p = tmp_path / "bad.dfa"
        p.write_text(EMPTY_LANG.replace("trans a 2 2", f"trans a {row}"))
        assert main(["root", str(p), "--minimize"]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_cap_below_one_is_rejected(self, example_path, capsys):
        assert main(["root", example_path, "--max-elements", "-5"]) == 2
        err = capsys.readouterr().err
        assert "-5" in err and "positive" in err and "exceeds" not in err


class TestUnaryRootAndMinimize:
    def test_unary_root(self, unary_path, tmp_path, capsys):
        out = tmp_path / "r.dfa"
        assert main(["unary-root", unary_path, "-o", str(out)]) == 0
        assert capsys.readouterr().out == "states=4\n"
        assert parse(out.read_text()).finals.tolist() == [2, 3]

    def test_unary_root_rejects_two_letters(self, example_path, capsys):
        assert main(["unary-root", example_path]) == 2

    def test_minimize(self, tmp_path, capsys):
        p = tmp_path / "d.dfa"
        p.write_text("states 2\nalphabet a\nstart 1\nfinals 1 2\ntrans a 1 2\n")
        assert main(["minimize", str(p)]) == 0
        assert capsys.readouterr().out == "states=1\n"


class TestMonoid:
    def test_example(self, example_path, capsys):
        assert main(["monoid", example_path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "size=1857"
        assert "rank 5: 6" in out  # the six powers of the double cycle

    def test_identity_histogram(self, tmp_path, capsys):
        p = tmp_path / "id.dfa"
        p.write_text("states 3\nalphabet a\nstart 1\nfinals\ntrans a 1 2 3\n")
        assert main(["monoid", str(p)]) == 0
        assert capsys.readouterr().out == "size=1\nrank 3: 1\n"

    def test_unary_cycle(self, tmp_path, capsys):
        p = tmp_path / "c5.dfa"
        p.write_text("states 5\nalphabet a\nstart 1\nfinals\ntrans a 2 3 4 5 1\n")
        assert main(["monoid", str(p)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "size=5"


class TestUkl:
    def test_formula_and_enumeration_agree(self, capsys):
        assert main(["ukl", "-k", "2", "-l", "3", "--enumerate"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["formula=1857", "closure=1857", "AGREE", "ranks=AGREE"]

    def test_json_mode(self, capsys):
        assert main(["ukl", "-k", "2", "-l", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"k": 2, "l": 3, "formula": 1857}

    @pytest.mark.parametrize("argv, line", [
        (["-k", "3", "-l", "4"], '{"k": 3, "l": 4, "formula": 607285}'),
        (["-k", "2", "-l", "3", "--enumerate"],
         '{"k": 2, "l": 3, "formula": 1857, "closure": 1857, "agree": true, "ranks_agree": true}'),
        (["-n", "7"], '{"n": 7, "k": 2, "l": 5, "formula": 610871, "predicted_root_states": 610850}'),
    ])
    def test_json_lines(self, argv, line, capsys):
        assert main(["ukl", *argv, "--json"]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_best_split_for_n(self, capsys):
        assert main(["ukl", "-n", "7"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "best k=2 l=5"
        assert out[1] == "formula=610871"
        assert out[2] == "predicted_root_states=610850"

    def test_non_coprime_rejected(self, capsys):
        assert main(["ukl", "-k", "2", "-l", "4"]) == 2

    def test_best_split_at_the_bound_and_past_it(self, capsys):
        assert main(["ukl", "-n", str(BEST_SPLIT_MAX_N)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "best k=99 l=101"
        over = BEST_SPLIT_MAX_N + 1
        assert main(["ukl", "-n", str(over)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: best_coprime_pair searches splits up to n = {BEST_SPLIT_MAX_N}, got n = {over}\n"
        )

    def test_formula_at_the_bound_and_past_it(self, capsys):
        k, l = UKL_MAX_N // 2 - 1, UKL_MAX_N // 2 + 1
        assert main(["ukl", "-k", str(k), "-l", str(l)]) == 0
        assert capsys.readouterr().out == f"formula={ukl_size_formula(k, l)}\n"
        over = UKL_MAX_N + 1
        assert main(["ukl", "-k", str(over // 2), "-l", str(over - over // 2), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the size formula is evaluated up to n = k + l = {UKL_MAX_N}, got n = {over}\n"
        )

    @pytest.mark.parametrize("argv, flag", [
        (["--enumerate"], "--enumerate"),
        (["-k", "3"], "-k"),
        (["-l", "4", "--json"], "-l"),
    ])
    def test_n_takes_no_other_option(self, argv, flag, capsys):
        assert main(["ukl", "-n", "7", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: -n takes no {flag}\n"

    def test_requires_n_xor_kl(self, capsys):
        assert main(["ukl"]) == 2
        assert main(["ukl", "-k", "2"]) == 2
        assert main(["ukl", "-n", "7", "-k", "2", "-l", "5"]) == 2

    def test_enumeration_that_disagrees_fails(self, monkeypatch, capsys):
        # The closure of the double cycle alone: its 6 powers, not |U_{2,3}|.
        full = verify.closure
        monkeypatch.setattr(verify, "closure", lambda gens: full(gens[:1]))
        assert main(["ukl", "-k", "2", "-l", "3", "--enumerate"]) == 1
        assert capsys.readouterr().out == "formula=1857\nclosure=6\nDISAGREE\nranks=DISAGREE\n"
        assert main(["ukl", "-k", "2", "-l", "3", "--enumerate", "--json"]) == 1
        assert capsys.readouterr().out == (
            '{"k": 2, "l": 3, "formula": 1857, "closure": 6, "agree": false, "ranks_agree": false}\n'
        )

    def test_enumeration_that_disagrees_only_by_rank_fails(self, monkeypatch, capsys):
        # One constant map counted at rank 2: the size still agrees.
        def moved(k, l):
            ranks = _ukl_terms(k, l)
            return {**ranks, 1: ranks[1] - 1, 2: ranks[2] + 1}

        monkeypatch.setattr(cli, "_ukl_terms", moved)
        assert main(["ukl", "-k", "2", "-l", "3", "--enumerate"]) == 1
        assert capsys.readouterr().out == "formula=1857\nclosure=1857\nAGREE\nranks=DISAGREE\n"
        assert main(["ukl", "-k", "2", "-l", "3", "--enumerate", "--json"]) == 1
        assert capsys.readouterr().out == (
            '{"k": 2, "l": 3, "formula": 1857, "closure": 1857, "agree": true, "ranks_agree": false}\n'
        )

    @pytest.mark.parametrize("k, l", [(3, 5), (4, 9)])
    def test_enumeration_past_the_cap_is_refused_before_closure(self, k, l, monkeypatch, capsys):
        def refuse(gens):
            raise AssertionError("closure called")

        monkeypatch.setattr(verify, "closure", refuse)
        assert main(["ukl", "-k", str(k), "-l", str(l), "--enumerate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --enumerate is refused: the formula gives {ukl_size_formula(k, l)} elements, "
            f"past the closure cap of {DEFAULT_MAX_ELEMENTS}\n"
        )

    def test_enumeration_under_the_cap_still_runs(self, capsys):
        assert ukl_size_formula(2, 5) == 610_871 <= DEFAULT_MAX_ELEMENTS
        assert main(["ukl", "-k", "2", "-l", "5", "--enumerate"]) == 0
        assert capsys.readouterr().out == "formula=610871\nclosure=610871\nAGREE\nranks=AGREE\n"


class TestScalars:
    def test_stirling(self, capsys):
        assert main(["stirling", "--n", "4", "--k", "2"]) == 0
        assert capsys.readouterr().out == "7\n"

    def test_stirling_past_the_row_bound_is_usage_error(self, capsys):
        assert main(["stirling", "--n", "2001", "--k", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2000" in err

    def test_bound_is_negative_at_seven(self, capsys):
        assert main(["bound", "--n", "7"]) == 0
        assert float(capsys.readouterr().out) < 0

    def test_bound_past_float_range_is_usage_error(self, capsys):
        assert main(["bound", "--n", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "143" in err
        assert "Traceback" not in err

    def test_integers_of_any_length_are_printed(self, monkeypatch, capsys):
        # A real Stirling number of over 4,300 digits takes a memo table
        # of gigabytes, so the computed value is stood in for.
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(cli, "stirling2", lambda n, k: 7 * 10**5000)
        assert main(["stirling", "--n", "3000", "--k", "1500"]) == 0
        assert capsys.readouterr().out == "7" + "0" * 5000 + "\n"
        assert sys.get_int_max_str_digits() == limit

    def test_largest2(self, capsys):
        assert main(["largest2", "--n", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "max=4"

    def test_largest2_budget(self, capsys):
        assert main(["largest2", "--n", "5"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_largest2_witness(self, capsys):
        assert main(["largest2", "--n", "3"]) == 0
        assert capsys.readouterr().out == "max=24\ngenerators [1 1 2] [2 3 1]\n"


def full_tn_params(n):
    return verify.suite_full_tn(n).params


def start_final_params(k, l):
    return verify.suite_start_final_variation(k, l).params


def unary_params(seed):
    return verify.suite_unary(2, seed=seed, samples=1).params


# Each function behind a command, its integer arguments, and which one to
# replace; a bool or a float there is refused, a numpy integer is read.
INTEGER_ARGUMENTS = [
    (tn_generators, (3,), 0),
    (largest_two_generated, (2,), 0),
    (cycle_pair, (2, 3), 0),
    (cycle_pair, (2, 3), 1),
    (stirling2, (4, 2), 0),
    (stirling2, (4, 2), 1),
    (binomial, (5, 2), 0),
    (binomial, (5, 2), 1),
    (Transformation((2, 1)).__pow__, (3,), 0),
    (ukl_size_formula, (2, 3), 0),
    (ukl_size_formula, (2, 3), 1),
    (ukl_generators, (2, 3), 1),
    (ukl_gap, (7,), 0),
    (hk_lower_bound, (8,), 0),
    (full_tn_params, (3,), 0),
    (start_final_params, (2, 3), 0),
    (unary_params, (3,), 0),
]
_IDS = [f"{fn.__name__}-{slot}" for fn, _, slot in INTEGER_ARGUMENTS]


def _replaced(args, slot, value):
    return args[:slot] + (value,) + args[slot + 1 :]


@pytest.mark.parametrize("fn, args, slot", INTEGER_ARGUMENTS, ids=_IDS)
@pytest.mark.parametrize("kind", [bool, float])
def test_bools_and_floats_are_refused(fn, args, slot, kind):
    with pytest.raises(ValueError, match="is not an integer"):
        fn(*_replaced(args, slot, kind(args[slot])))


@pytest.mark.parametrize("fn, args, slot", INTEGER_ARGUMENTS, ids=_IDS)
def test_numpy_integers_are_read(fn, args, slot):
    assert fn(*_replaced(args, slot, np.int64(args[slot]))) == fn(*args)


class TestVerify:
    def test_full_tn_small(self, capsys):
        assert main(["verify", "--suite", "full-tn", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("suite full-tn") == 3
        assert "FAIL" not in out

    def test_json_schema(self, capsys):
        assert main(["verify", "--suite", "lower-bound", "--max-n", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        report = payload["reports"][0]
        assert set(report) == {"suite", "params", "cases", "pass"}
        assert report["suite"] == "lower-bound"

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_over_budget_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "full-tn", "--max-n", "9"]) == 2

    def test_budget_is_checked_before_any_run(self, monkeypatch, capsys):
        calls = []
        entry = verify.SUITES["full-tn"]
        monkeypatch.setitem(verify.SUITES, "full-tn", replace(entry, run=lambda n: calls.append(n)))
        assert main(["verify", "--suite", "full-tn", "--max-n", "9"]) == 2
        assert calls == []
        assert "1 <= n <= 7, got 8" in capsys.readouterr().err

    def test_all_runs_the_table_defaults_after_every_budget(self, monkeypatch, capsys):
        events = []
        for name, entry in list(verify.SUITES.items()):

            def budget(*run, name=name, check=entry.budget):
                events.append(("budget", name, run))
                check(*run)

            def suite(*run, name=name):
                events.append(("suite", name, run))
                return verify.VerifyReport(name, {})

            monkeypatch.setitem(verify.SUITES, name, replace(entry, run=suite, budget=budget))
        assert main(["verify", "--suite", "all", "--json"]) == 0
        want = [(name, run) for name, entry in verify.SUITES.items() for run in entry.defaults]
        assert [(name, run) for kind, name, run in events if kind == "suite"] == want
        assert [kind for kind, _, _ in events] == ["budget"] * len(want) + ["suite"] * len(want)

    @pytest.mark.parametrize("suite", ["full-tn", "min-dfa", "unary", "gap", "lower-bound"])
    def test_max_n_zero_is_not_the_default(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--max-n", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_equivalence_cases_print_under_min_dfa(self, capsys):
        assert main(["verify", "--suite", "equivalence"]) == 2
        assert main(["verify", "--suite", "min-dfa", "--max-n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("suite min-dfa") == 1
        assert "two-element-classes" in out and "expected 10  measured 10" in out

    def test_pair_selection(self, capsys):
        assert main(["verify", "--suite", "min-dfa", "-k", "2", "-l", "3"]) == 0
        assert "suite min-dfa" in capsys.readouterr().out

    def test_incomplete_pair(self, capsys):
        assert main(["verify", "--suite", "min-dfa", "-k", "2"]) == 2

    def test_start_final_pair_selection(self, capsys):
        assert main(["verify", "--suite", "start-final", "-k", "2", "-l", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("suite start-final-variation  k=2 l=3\n")
        assert "FAIL" not in out

    def test_counting_runs_its_default(self, capsys):
        assert main(["verify", "--suite", "counting"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("suite counting\n")
        assert "=> PASS (6/6 cases)" in out

    @pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "5"], 5)])
    def test_unary_reads_the_seed(self, argv, seed, capsys):
        assert main(["verify", "--suite", "unary", "--max-n", "2", "--json", *argv]) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["params"] == {"max_n": 2, "seed": seed, "samples": 200}

    # Each option that the chosen suite does not read, and the error it gets.
    REFUSED = {
        "counting-max-n": (["counting", "--max-n", "3"], "--suite counting takes no --max-n"),
        "counting-seed": (["counting", "--seed", "1"], "--suite counting takes no --seed"),
        "start-final-max-n": (["start-final", "--max-n", "3"], "--suite start-final takes no --max-n"),
        "start-final-k-only": (["start-final", "-k", "3"], "pass both -k and -l"),
        "start-final-l-only": (["start-final", "-l", "3"], "pass both -k and -l"),
        "unary-k": (["unary", "--max-n", "4", "-k", "9"], "--suite unary takes no -k"),
        "gap-seed": (["gap", "--max-n", "8", "--seed", "5"], "--suite gap takes no --seed"),
        "lower-bound-l": (["lower-bound", "-l", "3"], "--suite lower-bound takes no -l"),
        "full-tn-k": (["full-tn", "-k", "2", "-l", "3"], "--suite full-tn takes no -k"),
        "min-dfa-seed": (["min-dfa", "--seed", "1"], "--suite min-dfa takes no --seed"),
        "min-dfa-pair-and-max-n": (["min-dfa", "-k", "2", "-l", "3", "--max-n", "5"],
                                   "--max-n cannot be combined with -k and -l"),
        "all-max-n": (["all", "--max-n", "3"], "--suite all takes no --max-n"),
        "all-seed": (["all", "--seed", "0"], "--suite all takes no --seed"),
        "all-k": (["all", "-k", "2"], "--suite all takes no -k"),
        "all-l": (["all", "-l", "3"], "--suite all takes no -l"),
    }

    @pytest.mark.parametrize("argv, message", REFUSED.values(), ids=REFUSED)
    def test_options_the_suite_does_not_read_are_refused(self, argv, message, capsys):
        assert main(["verify", "--suite", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["root", "--help"]) == 0


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_import_regroot_loads_neither_the_suites_nor_the_cli():
    # A fresh interpreter, so no other test's imports count.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import regroot, sys; print(*sorted(m for m in sys.modules if m.startswith('regroot.')))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "regroot.dfa" in loaded.stdout.split()
    assert not {"regroot.verify", "regroot.cli"} & set(loaded.stdout.split())
