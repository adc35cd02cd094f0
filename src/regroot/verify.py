"""Executable reproduction suites with structured pass/fail reports.

Each suite checks one family of claims about root(L), the two-generated
monoids, or the counting formulas, and returns a VerifyReport: one Case
per check, with the expected and measured values rendered as strings so
reports serialize cleanly.  All randomness is seeded and every suite is
deterministic given its parameters.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .counting import (
    HK_MAX_N,
    _check_kl,
    _ukl_terms,
    best_coprime_pair,
    binomial,
    hk_lower_bound,
    stirling2,
    ukl_gap,
    ukl_size_formula,
)
from .dfa import Dfa, _distinguishing_word, chain_dfa, minimize, nerode_partition
from .monoid import closure, dfa_based_on, tn_generators, ukl_generators
from .root import _accepting_rows, root_automaton, unary_root
from .transform import _as_int


@dataclass(frozen=True)
class Case:
    name: str
    passed: bool
    expected: str
    measured: str
    seconds: float

    def to_dict(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 6)}


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    params: dict = field(compare=False)
    cases: tuple[Case, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "cases": [c.to_dict() for c in self.cases],
            "pass": self.passed,
        }

    def format_table(self) -> str:
        header = f"suite {self.suite}  " + " ".join(
            f"{k}={v}" for k, v in sorted(self.params.items())
        )
        lines = [header.rstrip()]
        for c in self.cases:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  {tag}  {c.name:<34} expected {c.expected}  measured {c.measured}"
                f"  [{c.seconds:.2f}s]"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  => {verdict} ({sum(c.passed for c in self.cases)}/{len(self.cases)} cases)")
        return "\n".join(lines)


class _Recorder:
    def __init__(self):
        self.cases: list[Case] = []
        self._t0 = time.perf_counter()

    def add(self, name: str, passed: bool, expected, measured) -> None:
        t1 = time.perf_counter()
        self.cases.append(Case(name, bool(passed), str(expected), str(measured), t1 - self._t0))
        self._t0 = t1

    def report(self, suite: str, params: dict) -> VerifyReport:
        return VerifyReport(suite, params, tuple(sorted(self.cases, key=lambda c: c.name)))


def _check_pair(k: int, l: int, max_total: int) -> int:
    k, l = _check_kl(k, l)
    if l < 3:
        raise ValueError(f"need l >= 3, got ({k}, {l})")
    n = k + l
    if n > max_total:
        raise ValueError(f"pair ({k}, {l}) is over the budget of k + l <= {max_total}")
    return n


def _check_range(suite: str, param: str, value, lo: int, hi: int) -> int:
    value = _as_int(value, param)
    if not lo <= value <= hi:
        raise ValueError(f"{suite} is budgeted to {lo} <= {param} <= {hi}, got {value!r}")
    return value


# The budget of each suite, a check of its positional arguments that it
# makes before any work.
_budget_full_tn = partial(_check_range, "full-monoid check", "n", lo=1, hi=7)
_budget_min_dfa = partial(_check_pair, max_total=7)
_budget_start_final = partial(_check_pair, max_total=5)
_budget_unary = partial(_check_range, "unary suite", "max_n", lo=2, hi=14)
_budget_gap = partial(_check_range, "gap suite", "max_n", lo=7, hi=100)
_budget_lower_bound = partial(_check_range, "lower-bound suite", "max_n", lo=7, hi=HK_MAX_N)


def _enumeration(rec: _Recorder, gens, ranks: dict[int, int], size_case: str, rank_case: str):
    # M = <gens> by one closure, its size and its count of each rank
    # recorded against ranks, the expected counts, under the names given;
    # returns M and whether each of the two agrees.
    m = closure(gens)
    size = sum(ranks.values())
    size_ok = len(m) == size
    rec.add(size_case, size_ok, size, len(m))
    measured = m.rank_histogram()
    ranks_ok = measured == ranks
    rec.add(rank_case, ranks_ok, ranks, measured)
    return m, size_ok, ranks_ok


def _merge_report(suite: str, params: dict, gens, ranks: dict[int, int]) -> VerifyReport:
    """Minimal root automaton of M = <gens>: |M| - C(n,2) states, and which merge.

    ranks is the expected count of M's elements of each rank, so that their
    sum is the expected |M|, and n is the degree of gens.  One closure, one
    root construction and one Nerode refinement give every case; the
    number of classes is the size of the minimal DFA.  Exactly C(n,2)
    two-element classes must appear, each consisting of a rank-2 map whose
    value at the start state is unique, paired with its complement; every
    other class must be a singleton.
    """
    rec = _Recorder()
    m, _, _ = _enumeration(rec, gens, ranks, "monoid-size-vs-formula", "rank-profile-vs-formula")

    ra = root_automaton(dfa_based_on(gens), monoid=m)
    states, cls = nerode_partition(ra.dfa)
    sizes = np.bincount(cls)
    want_pairs = binomial(m.degree, 2)
    want = sum(ranks.values()) - want_pairs
    rec.add("root-state-complexity", len(sizes) == want, want, len(sizes))

    two = np.flatnonzero(sizes[cls] == 2)
    pairs = states[two][np.lexsort((states[two], cls[two]))].reshape(-1, 2).tolist()
    rec.add("two-element-classes", len(pairs) == want_pairs, want_pairs, len(pairs))

    shape_ok = True
    for b in pairs:
        eta = ra.element_of(b[0])
        theta = ra.element_of(b[1])
        if eta.rank() != 2 or eta.complement() != theta or not eta.is_unique(eta(1)):
            shape_ok = False
            break
    rec.add(
        "pair-shape",
        shape_ok,
        "each pair = {rank-2 eta with eta(1) unique, its complement}",
        "all conform" if shape_ok else "violation found",
    )

    larger = np.count_nonzero(sizes > 2)
    rec.add("no-larger-classes", not larger, 0, larger)

    want_classes = len(m) - want_pairs
    rec.add("class-count", len(sizes) == want_classes, want_classes, len(sizes))
    return rec.report(suite, params)


def suite_min_dfa(k: int, l: int) -> VerifyReport:
    """The merge report of U_{k,l}, whose ranks are counted by _ukl_terms(k, l)."""
    _budget_min_dfa(k, l)
    return _merge_report("min-dfa", {"k": k, "l": l}, ukl_generators(k, l), _ukl_terms(k, l))


def suite_full_tn(n: int) -> VerifyReport:
    """Tightness of the n^n - C(n,2) bound: the merge report of T_n's generators.

    T_n has C(n,r) r! S(n,r) maps of rank r, n^n in all.
    """
    n = _budget_full_tn(n)
    ranks = {r: binomial(n, r) * math.factorial(r) * stirling2(n, r) for r in range(1, n + 1)}
    return _merge_report("full-tn", {"n": n}, tn_generators(n), ranks)


def suite_start_final_variation(k: int, l: int) -> VerifyReport:
    """No start/final assignment beats the canonical one-state-one-final choice.

    Only the finals of the root automaton depend on the source DFA's start
    and finals, so one root automaton of U_{k,l} serves every assignment,
    with its finals marked again for each.
    """
    n = _budget_start_final(k, l)
    rec = _Recorder()
    ra = root_automaton(dfa_based_on(ukl_generators(k, l)))
    baseline = minimize(ra.dfa).n
    want = len(ra.monoid) - binomial(n, 2)
    rec.add("baseline", baseline == want, want, baseline)

    rows = ra.monoid.rows
    for z0 in range(1, n + 1):
        worst = 0
        for bits in range(2**n):
            finals = [q for q in range(1, n + 1) if bits >> (q - 1) & 1]
            marked = np.flatnonzero(_accepting_rows(rows, z0, finals)) + 1
            worst = max(worst, minimize(replace(ra.dfa, finals=marked)).n)
        rec.add(f"start-z0={z0}", worst <= baseline, f"all {2**n} final sets <= {baseline}", f"max {worst}")
    return rec.report("start-final-variation", {"k": k, "l": l})


def _unary_case(d: Dfa) -> tuple[int, int, str | None]:
    # The state complexity of d, that of its root by divisor marking, and
    # None if the generic monoid construction gives the same language, or
    # else a shortest word on which the two differ.
    root = minimize(unary_root(d))
    word = _distinguishing_word(root, root_automaton(d).dfa)
    return minimize(d).n, root.n, None if word is None else "".join(word) or "the empty word"


def _differs_on(word: str | None) -> str:
    return "" if word is None else f", differs on {word}"


def suite_unary(max_n: int = 12, *, seed: int = 0, samples: int = 200) -> VerifyReport:
    """One-letter languages: tightness family plus randomized agreement.

    For each n the n-state DFA for the single word a^(n-2) must keep state
    complexity n after taking the root.  Random tail/loop automata check
    that the divisor-marking construction matches the generic monoid
    construction and never needs more states than the original language.
    """
    max_n = _budget_unary(max_n)
    samples = _check_range("unary suite", "samples", samples, lo=1, hi=1000)
    seed = _as_int(seed, "seed")
    rec = _Recorder()
    for n in range(2, max_n + 1):
        sc, root_sc, differs = _unary_case(chain_dfa(n - 1, 1, {n - 1}))  # a^(n-2), then a dead loop
        rec.add(
            f"single-word-n={n:02d}",
            sc == n and root_sc == n and differs is None,
            f"sc {n}, root sc {n}, constructions agree",
            f"sc {sc}, root sc {root_sc}, agree {differs is None}" + _differs_on(differs),
        )
    for n in range(2, min(max_n, 12) + 1):
        rng = random.Random(seed * 10_000 + n)
        bad, first = 0, None
        for _ in range(samples):
            tail = rng.randrange(n)
            loop = rng.randint(1, n - tail)
            finals = {q for q in range(1, tail + loop + 1) if rng.random() < 0.5}
            sc, root_sc, differs = _unary_case(chain_dfa(tail, loop, finals))
            bad += differs is not None or root_sc > sc
            first = first or differs
        rec.add(
            f"random-n={n:02d}",
            bad == 0,
            f"{samples} agreements",
            f"{samples - bad} agreements" + _differs_on(first),
        )
    return rec.report("unary", {"max_n": max_n, "seed": seed, "samples": samples})


def _set_partition_count(n: int, k: int) -> int:
    # Independent counting route: surjections onto k labeled blocks, then
    # divide by the k! block orderings.
    if n == 0 and k == 0:
        return 1
    if k > n or k < 1:
        return 0
    surj = sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
    return surj // math.factorial(k)


def suite_counting() -> VerifyReport:
    """Counting layer: recurrences, identities, and formula-vs-enumeration."""
    rec = _Recorder()

    ok = all(
        stirling2(n, k) == _set_partition_count(n, k)
        for n in range(0, 11)
        for k in range(0, n + 2)
    )
    rec.add("stirling-vs-surjection-count", ok, "equal for n <= 10", "equal" if ok else "mismatch")

    ok = all(
        stirling2(n, i)
        == stirling2(n - 2, i - 2) + (2 * i - 1) * stirling2(n - 2, i - 1) + i * i * stirling2(n - 2, i)
        for n in range(2, 61)
        for i in range(2, n + 1)
    )
    rec.add(
        "two-step-split-identity",
        ok,
        "S(n,i) == S(n-2,i-2) + (2i-1) S(n-2,i-1) + i^2 S(n-2,i), n <= 60",
        "holds" if ok else "fails",
    )

    ok = all(
        sum(binomial(m, i) * math.factorial(i) * stirling2(n, i) for i in range(0, n + 1)) == m**n
        for n in range(1, 13)
        for m in range(1, 13)
    )
    rec.add("function-count-identity", ok, "sum C(m,i) i! S(n,i) == m^n, n,m <= 12", "holds" if ok else "fails")

    _enumeration(rec, ukl_generators(3, 2), _ukl_terms(3, 2),
                 "formula-vs-enumeration-(3,2)", "rank-profile-vs-formula-(3,2)")

    ok = all(
        ukl_size_formula(k, l) <= (k + l) ** (k + l)
        for k in range(2, 11)
        for l in range(2, 11)
        if math.gcd(k, l) == 1
    )
    rec.add("formula-below-full-monoid", ok, "size <= n^n for k,l <= 10", "holds" if ok else "fails")
    return rec.report("counting", {})


def suite_gap(max_n: int = 40) -> VerifyReport:
    """The (2, n-2) monoid beats the (n-2, 2) one by at least C(n,2)."""
    max_n = _budget_gap(max_n)
    rec = _Recorder()
    worst = min(ukl_gap(n) - binomial(n, 2) for n in range(7, max_n + 1))
    rec.add("gap-at-least-binom", worst >= 0, f"gap - C(n,2) >= 0 for 7 <= n <= {max_n}", f"min margin {worst}")

    big, small = (
        len(_enumeration(rec, ukl_generators(k, l), _ukl_terms(k, l),
                         f"formula-vs-enumeration-({k},{l})", f"rank-profile-vs-formula-({k},{l})")[0])
        for k, l in [(2, 5), (5, 2)]
    )
    enum_gap = big - small
    rec.add("enumeration-crosscheck-n=7", enum_gap == ukl_gap(7), ukl_gap(7), enum_gap)
    return rec.report("gap", {"max_n": max_n})


def suite_lower_bound(max_n: int = 30) -> VerifyReport:
    """Best coprime split beats the analytic lower bound for 7 <= n <= max_n."""
    max_n = _budget_lower_bound(max_n)
    rec = _Recorder()
    # best_coprime_pair leaves out the split (n-2, 2), but where that is
    # coprime, n is odd and the gap lemma puts it below (2, n-2).
    pairs = [(ukl_size_formula(*best_coprime_pair(n)), hk_lower_bound(n)) for n in range(7, max_n + 1)]
    ok = all(best >= bound for best, bound in pairs)
    closest = min(best - bound for best, bound in pairs)
    rec.add(
        "analytic-lower-bound",
        ok,
        f"max |U| >= bound for 7 <= n <= {max_n}",
        f"holds, min slack {closest:.3g}" if ok else "violated",
    )
    return rec.report("lower-bound", {"max_n": max_n})


@dataclass(frozen=True)
class Suite:
    """One `verify --suite` name.  A new non-default run is one more entry, with its budget.

    Each run is a tuple of positional arguments for run, which budget checks
    before any work.  `--suite all` makes the defaults, in table order;
    options names the verify options that the suite reads, by argparse dest,
    and select(N, defaults) gives the runs of `--max-n N`.
    """

    run: Callable[..., VerifyReport]
    budget: Callable[..., object]
    defaults: tuple[tuple, ...]
    options: tuple[str, ...] = ()
    select: Callable[[int, tuple], list[tuple]] = lambda max_n, defaults: [(max_n,)]


SUITES = {
    "full-tn": Suite(suite_full_tn, _budget_full_tn, tuple((n,) for n in range(1, 7)), ("max_n",),
                     lambda max_n, defaults: [(n,) for n in range(1, max_n + 1)]),
    "min-dfa": Suite(suite_min_dfa, _budget_min_dfa, ((2, 3), (3, 4)), ("max_n", "k", "l"),
                     lambda max_n, defaults: [(k, l) for k, l in defaults if k + l <= max_n]),
    "start-final": Suite(suite_start_final_variation, _budget_start_final, ((2, 3),), ("k", "l")),
    "unary": Suite(suite_unary, _budget_unary, ((12,),), ("max_n", "seed")),
    "counting": Suite(suite_counting, lambda: None, ((),)),
    "gap": Suite(suite_gap, _budget_gap, ((40,),), ("max_n",)),
    "lower-bound": Suite(suite_lower_bound, _budget_lower_bound, ((30,),), ("max_n",)),
}
