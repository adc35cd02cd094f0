"""Exact big-integer combinatorics for monoid sizes.

Everything here is exact integer arithmetic except the analytic lower
bound, which is an inequality check and is evaluated in floating point.
"""

from __future__ import annotations

import math
from operator import add, mul

from .transform import _as_int

# The rows of the Stirling triangle that callers asked for, by n; row n
# holds the values for k = 0..n and is stored only when complete.
_stirling_rows: dict[int, list[int]] = {0: [1]}
# The largest n served: a new row takes O(n^2) big-integer steps from the
# nearest kept row, about 2.5 s from row 0 to row 2,000.
STIRLING_MAX_N = 2_000


def _stirling_row(n: int) -> list[int]:
    # Row n of the Stirling triangle, S(n, 0..n), for 0 <= n.  A
    # ValueError for n > STIRLING_MAX_N, as the recurrence up to n would
    # take too long.  Only the previous row is held on the way to row n,
    # which is then kept.
    row = _stirling_rows.get(n)
    if row is None:
        if n > STIRLING_MAX_N:
            raise ValueError(f"stirling2 computes rows up to n = {STIRLING_MAX_N}, got n = {n}")
        m = max(filter(n.__gt__, list(_stirling_rows)))  # the nearest kept row below
        row = _stirling_rows[m]
        for m in range(m + 1, n + 1):
            row = [0, *map(add, row, map(mul, range(1, m), row[1:])), 1]
        _stirling_rows[n] = row
    return row


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks.

    Zero whenever k > n or k < 1 (except the empty partition at n = k = 0).
    A ValueError for n > STIRLING_MAX_N otherwise.
    """
    if type(n) is not int or type(k) is not int:
        n, k = _as_int(n, "n"), _as_int(k, "k")
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be nonnegative integers, got ({n!r}, {k!r})")
    if k > n or (n > 0 and k < 1):
        return 0
    return _stirling_row(n)[k]


def binomial(n: int, k: int) -> int:
    if type(n) is not int or type(k) is not int:
        n, k = _as_int(n, "n"), _as_int(k, "k")
    if n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _ukl_size_raw(k: int, l: int) -> int:
    # Closed form for the size of the two-generated near-full monoid:
    #   kl + sum_i (C(n,i) - C(k,i-l)) (S(n,i) - sum_r S(k,r) S(l,i-r)) i!
    # Evaluated for any k, l >= 1 with k + l <= UKL_MAX_N on whole Stirling
    # rows; an n past the bound is refused before any row is built.  The
    # convolution term for i is the dot product of S(k, r) over
    # lo <= r <= hi with S(l, i - r), read from the reversed row l.
    n = k + l
    if n > UKL_MAX_N:
        raise ValueError(f"the size formula is evaluated up to n = k + l = {UKL_MAX_N}, got n = {n}")
    row_n = _stirling_row(n)
    row_k = _stirling_row(k)
    rev_l = _stirling_row(l)[::-1]  # rev_l[l - s] = S(l, s)
    total = k * l
    factorial = 1
    for i in range(1, n + 1):
        factorial *= i
        lo, hi = max(1, i - l), min(k, i - 1)
        inner = row_n[i] - sum(map(mul, row_k[lo : hi + 1], rev_l[l - i + lo : l - i + hi + 1]))
        outer = math.comb(n, i) - (math.comb(k, i - l) if i >= l else 0)
        total += outer * inner * factorial
    return total


def _check_kl(k: int, l: int) -> tuple[int, int]:
    # The cycle lengths k, l >= 2 of a two-generated monoid, coprime, as ints.
    k, l = _as_int(k, "cycle length"), _as_int(l, "cycle length")
    if k < 2 or l < 2:
        raise ValueError(f"need cycle lengths k, l >= 2, got ({k}, {l})")
    if math.gcd(k, l) != 1:
        raise ValueError(f"cycle lengths must be coprime, got ({k}, {l})")
    return k, l


def ukl_size_formula(k: int, l: int) -> int:
    """Exact size of the two-generated monoid for coprime k, l >= 2.

    Defined for k + l <= UKL_MAX_N.
    """
    k, l = _check_kl(k, l)
    return _ukl_size_raw(k, l)


def ukl_gap(n: int) -> int:
    """Size difference between the (2, n-2) and (n-2, 2) monoids, 5 <= n <= UKL_MAX_N."""
    n = _as_int(n, "n")
    if n < 5:
        raise ValueError(f"need n >= 5, got {n!r}")
    return _ukl_size_raw(2, n - 2) - _ukl_size_raw(n - 2, 2)


def hk_bracket(n: int) -> float:
    """The parenthesized factor of the analytic lower bound; tends to 1."""
    n = _as_int(n, "n")
    if n < 7:
        raise ValueError(f"the analytic bound needs n >= 7, got {n!r}")
    e112 = math.exp(1 / 12)
    return 1.0 - math.sqrt(2) * (2 / math.e) ** (n / 2) * e112 - math.sqrt(8) / math.sqrt(n) * e112


# The largest n whose n^n is a finite float.
HK_MAX_N = 143


def hk_lower_bound(n: int) -> float:
    """Analytic lower bound n^n * (1 - sqrt(2)(2/e)^(n/2)e^(1/12) - sqrt(8)e^(1/12)/sqrt(n)).

    May be negative for small n, in which case it holds trivially.
    Defined for 7 <= n <= HK_MAX_N.
    """
    n = _as_int(n, "n")
    if n > HK_MAX_N:
        raise ValueError(f"n^n overflows a float above n = {HK_MAX_N}, got {n}")
    return hk_bracket(n) * float(n) ** n


# The largest n = k + l at which the U_{k,l} formula is evaluated: its rows
# and convolution take O(n^2) steps on integers of up to thousands of
# digits, about 0.1 s at n = 400 from an empty row cache on a 2-core box
# (0.3 s at n = 600, about 35 s at n = 1,999).
UKL_MAX_N = 400

# The largest n whose splits are searched: the search evaluates the formula
# at up to n - 4 splits, each in O(n^2) big-integer steps, and takes
# 0.3-0.4 s at n = 200 (2 s at n = 320) on a 2-core box.  It covers every
# n that hk_lower_bound serves.
BEST_SPLIT_MAX_N = 200


def best_coprime_pair(n: int) -> tuple[int, int]:
    """The coprime split k >= 2, l >= 3 of n maximizing the size formula.

    Ties break toward smaller k.  Defined for 5 <= n <= BEST_SPLIT_MAX_N.
    """
    n = _as_int(n, "n")
    if n < 5:
        raise ValueError(f"no valid split below n = 5, got {n!r}")
    if n > BEST_SPLIT_MAX_N:
        raise ValueError(f"best_coprime_pair searches splits up to n = {BEST_SPLIT_MAX_N}, got n = {n}")
    splits = [(k, n - k) for k in range(2, n - 2) if math.gcd(k, n - k) == 1]
    if not splits:
        raise ValueError(f"no coprime split with k >= 2, l >= 3 for n = {n}")
    return max(splits, key=lambda kl: _ukl_size_raw(*kl))
