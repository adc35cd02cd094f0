import hashlib
import itertools
import math
import os
import subprocess
import sys

import pytest

from regroot import (
    best_coprime_pair,
    binomial,
    closure,
    hk_bracket,
    hk_lower_bound,
    stirling2,
    ukl_gap,
    ukl_generators,
    ukl_size_formula,
)
from regroot import counting
from regroot.counting import BEST_SPLIT_MAX_N, HK_MAX_N, STIRLING_MAX_N, UKL_MAX_N


def partitions_into_blocks(items, k):
    """Enumerate set partitions of `items` into exactly k nonempty blocks."""
    if not items:
        if k == 0:
            yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions_into_blocks(rest, k - 1):
        yield [[first]] + part
    for part in partitions_into_blocks(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def ukl_size_by_terms(k, l):
    """The closed form for |U_{k,l}| term by term, one stirling2 call per product."""
    n = k + l
    total = k * l
    for i in range(1, n + 1):
        outer = binomial(n, i) - binomial(k, i - l)
        inner = stirling2(n, i) - sum(
            stirling2(k, r) * stirling2(l, i - r) for r in range(1, i + 1)
        )
        total += outer * inner * math.factorial(i)
    return total


COPRIME_TO_40 = [
    (k, l) for k, l in itertools.product(range(2, 41), repeat=2) if math.gcd(k, l) == 1
]


class TestStirling:
    def test_edges(self):
        assert stirling2(0, 0) == 1
        for n in range(1, 12):
            assert stirling2(n, n) == 1
            assert stirling2(n, 1) == 1
            assert stirling2(n, 0) == 0
        assert stirling2(3, 5) == 0

    def test_small_values_against_enumeration(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                count = sum(1 for _ in partitions_into_blocks(list(range(n)), k))
                assert stirling2(n, k) == count

    def test_four_choose_two_blocks(self):
        assert stirling2(4, 2) == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)
        with pytest.raises(ValueError):
            stirling2(3, -1)

    def test_rows_past_the_bound_are_refused_before_any_is_added(self):
        rows = len(counting._stirling_rows)
        with pytest.raises(ValueError, match=f"n = {STIRLING_MAX_N}"):
            stirling2(STIRLING_MAX_N + 1, 3)
        assert len(counting._stirling_rows) == rows
        assert stirling2(STIRLING_MAX_N + 1, STIRLING_MAX_N + 2) == 0

    def test_rows_asked_in_any_order_match_the_explicit_sum(self, monkeypatch):
        # Each new row starts from the nearest kept row below it.
        monkeypatch.setattr(counting, "_stirling_rows", {0: [1]})
        for n in (40, 20, 50, 21, 1):
            k = min(n, 7)
            explicit = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
            assert stirling2(n, k) == explicit // math.factorial(k)
        assert sorted(counting._stirling_rows) == [0, 1, 20, 21, 40, 50]

    def test_a_cold_row_holds_only_the_previous_row(self):
        # In a fresh interpreter, so that no row is kept yet.  The whole
        # triangle up to row 600 peaks at about 40 MiB traced.
        code = (
            "import tracemalloc; from regroot import stirling2; tracemalloc.start(); "
            "stirling2(600, 200); print(tracemalloc.get_traced_memory()[1])"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(counting.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert int(out.stdout) < 5 * 2**20

    def test_big_row_is_exact(self):
        # row sums are Bell numbers; B(25) is known exactly
        assert sum(stirling2(25, k) for k in range(26)) == 4638590332229999353

    def test_two_step_split_identity(self):
        for n in range(2, 61):
            for i in range(2, n + 1):
                assert stirling2(n, i) == (
                    stirling2(n - 2, i - 2)
                    + (2 * i - 1) * stirling2(n - 2, i - 1)
                    + i * i * stirling2(n - 2, i)
                )


class TestBinomialFactorial:
    def test_values(self):
        assert binomial(7, 2) == 21
        assert binomial(5, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(4, 7) == 0
        assert binomial(4, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_function_count_identity(self):
        for n in range(1, 13):
            for m in range(1, 13):
                total = sum(
                    binomial(m, i) * math.factorial(i) * stirling2(n, i)
                    for i in range(n + 1)
                )
                assert total == m**n


class TestUklSizeFormula:
    def test_degree_five_against_enumeration(self):
        assert ukl_size_formula(2, 3) == len(closure(ukl_generators(2, 3))) == 1857
        assert ukl_size_formula(3, 2) == len(closure(ukl_generators(3, 2))) == 1433

    def test_degree_seven_is_asymmetric(self):
        assert ukl_size_formula(2, 5) == 610871
        assert ukl_size_formula(5, 2) == 392797
        assert ukl_size_formula(3, 4) == 607285
        assert ukl_size_formula(4, 3) == 532675

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ukl_size_formula(2, 4)
        with pytest.raises(ValueError):
            ukl_size_formula(1, 3)

    def test_never_exceeds_the_full_monoid(self):
        for k, l in itertools.product(range(2, 13), repeat=2):
            if math.gcd(k, l) == 1:
                n = k + l
                assert ukl_size_formula(k, l) <= n**n


class TestRowForm:
    """The formula on whole Stirling rows against its term-by-term reference."""

    def test_coprime_pairs_to_forty(self):
        for k, l in COPRIME_TO_40:
            assert ukl_size_formula(k, l) == ukl_size_by_terms(k, l), (k, l)

    def test_pairs_that_are_not_coprime(self):
        # ukl_gap reads the unchecked form at (2, n-2) and (n-2, 2).
        for k, l in [(2, 6), (6, 2), (2, 2), (4, 6), (6, 9), (1, 1), (1, 5), (5, 1)]:
            assert counting._ukl_size_raw(k, l) == ukl_size_by_terms(k, l), (k, l)

    def test_gap_to_a_hundred(self):
        for n in range(5, 101):
            assert ukl_gap(n) == ukl_size_by_terms(2, n - 2) - ukl_size_by_terms(n - 2, 2), n

    def test_table_to_forty_is_pinned(self):
        table = "".join(f"{k} {l} {ukl_size_formula(k, l)}\n" for k, l in COPRIME_TO_40)
        assert hashlib.sha256(table.encode()).hexdigest() == (
            "718c0e9fb7edab42bae98b60c8b7967f6ea236b16b24986f1bcba264eaef17c9"
        )

    def test_a_pair_past_the_stirling_bound_builds_no_row(self):
        rows = len(counting._stirling_rows)
        with pytest.raises(ValueError, match=f"up to n = k \\+ l = {UKL_MAX_N}, got n = {STIRLING_MAX_N + 1}"):
            ukl_size_formula(1000, STIRLING_MAX_N - 999)
        assert len(counting._stirling_rows) == rows


class TestBudget:
    """The formula is evaluated up to n = k + l = UKL_MAX_N and refused past it."""

    def test_at_the_bound(self):
        assert BEST_SPLIT_MAX_N <= UKL_MAX_N < STIRLING_MAX_N
        n = UKL_MAX_N
        size = ukl_size_formula(n // 2 - 1, n // 2 + 1)
        assert binomial(n, 2) < size < n**n
        assert ukl_gap(n) >= binomial(n, 2)

    @pytest.mark.parametrize("f, args", [
        (ukl_size_formula, (UKL_MAX_N // 2, UKL_MAX_N // 2 + 1)),
        (ukl_gap, (UKL_MAX_N + 1,)),
        (counting._ukl_size_raw, (UKL_MAX_N - 1, 2)),
    ])
    def test_one_past_the_bound_builds_no_row(self, f, args):
        rows = len(counting._stirling_rows)
        with pytest.raises(ValueError, match=f"up to n = k \\+ l = {UKL_MAX_N}, got n = {UKL_MAX_N + 1}$"):
            f(*args)
        assert len(counting._stirling_rows) == rows


class TestGap:
    def test_at_seven(self):
        assert ukl_gap(7) == 610871 - 392797 == 218074
        assert ukl_gap(7) >= binomial(7, 2)

    def test_holds_through_forty(self):
        for n in range(7, 41):
            assert ukl_gap(n) >= binomial(n, 2)

    def test_at_five_against_enumeration(self):
        enum = len(closure(ukl_generators(2, 3))) - len(closure(ukl_generators(3, 2)))
        assert ukl_gap(5) == enum == 424

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ukl_gap(4)


class TestLowerBound:
    def test_negative_at_seven(self):
        assert hk_lower_bound(7) < 0

    def test_bracket_increases_toward_one(self):
        values = [hk_bracket(n) for n in range(7, 201)]
        assert all(b < c for b, c in zip(values, values[1:]))
        assert 0.75 < values[-1] < 1

    def test_best_formula_beats_bound(self):
        for n in range(7, 31):
            best = max(
                ukl_size_formula(k, n - k)
                for k in range(2, n - 1)
                if math.gcd(k, n - k) == 1
            )
            assert best >= hk_lower_bound(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            hk_lower_bound(6)

    def test_largest_n_is_finite_and_the_next_refused(self):
        assert HK_MAX_N == 143
        assert math.isfinite(hk_lower_bound(143))
        with pytest.raises(ValueError, match="above n = 143"):
            hk_lower_bound(144)


class TestBestCoprimePair:
    def test_five_has_one_candidate(self):
        assert best_coprime_pair(5) == (2, 3)

    def test_seven_prefers_the_small_cycle(self):
        assert best_coprime_pair(7) == (2, 5)

    def test_matches_direct_maximization(self):
        for n in range(5, 26):
            try:
                k, l = best_coprime_pair(n)
            except ValueError:
                assert n == 6  # the only n >= 5 with no coprime split k>=2, l>=3
                continue
            best = max(
                (ukl_size_formula(kk, n - kk), -kk)
                for kk in range(2, n - 2)
                if n - kk >= 3 and math.gcd(kk, n - kk) == 1
            )
            assert ukl_size_formula(k, l) == best[0] and k == -best[1]

    def test_predicted_minimal_root_size(self):
        k, l = best_coprime_pair(7)
        assert ukl_size_formula(k, l) - binomial(7, 2) == 610850

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            best_coprime_pair(4)

    def test_largest_n_is_searched_and_the_next_refused_before_any_row(self):
        assert BEST_SPLIT_MAX_N >= HK_MAX_N
        assert best_coprime_pair(BEST_SPLIT_MAX_N) == (99, 101)
        rows = len(counting._stirling_rows)
        over = BEST_SPLIT_MAX_N + 1
        with pytest.raises(ValueError, match=f"up to n = {BEST_SPLIT_MAX_N}, got n = {over}"):
            best_coprime_pair(over)
        assert len(counting._stirling_rows) == rows
