"""End-to-end acceptance checks, one per headline claim.

Each test prints a single ACCEPTANCE line (run pytest with -s to see them
all); the asserted values are exact, never tolerances.  Where a verify
suite checks a claim, the test runs that suite and pins the paper's
constants, as literals, on the expected and measured values it reports.

Two checks concern the two-step split of the Stirling recurrence.  8b
checks the correct split, whose last coefficient is i**2.  8c checks that
the form as stated, with (i-1) as the last coefficient, is refuted, and
exactly where: expanding the recurrence twice shows that the stated form
falls short of S(n, i) by (i**2 - i + 1) * S(n-2, i), so it fails exactly
when 2 <= i <= n-2 and holds at i in {n-1, n}, where S(n-2, i) = 0.  Its
first counterexample is n=4, i=2 (claimed 4, true value 7).  8c passes
when the program matches that record.
"""

import random
from unittest.mock import patch

import numpy as np
import pytest

from regroot import (
    accepts,
    closure,
    equivalent,
    largest_two_generated,
    minimize,
    root_automaton,
    root_member_oracle,
    stirling2,
)
from regroot.dfa import Dfa
from regroot.verify import (
    suite_counting,
    suite_full_tn,
    suite_gap,
    suite_lower_bound,
    suite_min_dfa,
    suite_unary,
)


def report(name, ok, details):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({details})")
    return ok


def cases(report):
    return {c.name: c for c in report.cases}


@pytest.fixture(scope="module")
def u34_run():
    # The U_{3,4} report, and whether any sort took the argsort fallback.
    with patch.object(np, "argsort", wraps=np.argsort) as spy:
        return cases(suite_min_dfa(3, 4)), spy.called


@pytest.fixture(scope="module")
def u34(u34_run):
    return u34_run[0]


def test_full_tn_tightness():
    measured = {}
    runs = ((4, "256", "250", "6"), (5, "3125", "3115", "10"), (6, "46656", "46641", "15"))
    for n, size, states, pairs in runs:
        c = cases(suite_full_tn(n))
        assert c["monoid-size-vs-formula"].measured == c["monoid-size-vs-formula"].expected == size
        assert c["root-state-complexity"].expected == states
        assert c["two-element-classes"].measured == c["two-element-classes"].expected == pairs
        assert c["no-larger-classes"].measured == "0"
        measured[n] = c["root-state-complexity"].measured
    ok = measured == {4: "250", 5: "3115", 6: "46641"}
    assert report("1 full-monoid tightness", ok, f"n=4,5,6 -> {measured}")


def _min_dfa_ok(c, size, states):
    size_case, sc_case = c["monoid-size-vs-formula"], c["root-state-complexity"]
    ok = size_case.measured == size_case.expected == size and sc_case.measured == sc_case.expected == states
    return ok, f"|M|={size_case.measured}, formula={size_case.expected}, sc={sc_case.measured}"


def test_min_dfa_theorem_2_3():
    ok, details = _min_dfa_ok(cases(suite_min_dfa(2, 3)), "1857", "1847")
    assert report("2a minimal root automaton (2,3)", ok, details)


def test_min_dfa_theorem_3_4(u34):
    ok, details = _min_dfa_ok(u34, "607285", "607264")
    assert report("2b minimal root automaton (3,4)", ok, details)


def _equivalence_structure_ok(c, npairs, nclasses):
    pairs, larger = c["two-element-classes"], c["no-larger-classes"]
    shapes_ok = c["pair-shape"].passed and c["pair-shape"].measured == "all conform"
    ok = (
        pairs.measured == pairs.expected == npairs
        and larger.measured == larger.expected == "0"
        and shapes_ok
        and c["class-count"].measured == c["class-count"].expected == nclasses
    )
    return ok, f"{pairs.measured} complement pairs, {larger.measured} larger classes, shapes ok: {shapes_ok}"


def test_equivalence_class_structure_2_3():
    ok, details = _equivalence_structure_ok(cases(suite_min_dfa(2, 3)), "10", "1847")
    assert report("3a equivalence classes (2,3)", ok, details)


def test_equivalence_class_structure_3_4(u34):
    ok, details = _equivalence_structure_ok(u34, "21", "607264")
    assert report("3b equivalence classes (3,4)", ok, details)


def test_u34_minimization_packs_every_sort(u34_run):
    # At U_{3,4} every key bound packs, so no sort falls back to argsort.
    assert not u34_run[1]


def test_gap_lemma():
    c = cases(suite_gap(40))
    margin, enum = c["gap-at-least-binom"], c["enumeration-crosscheck-n=7"]
    ok = (
        margin.passed
        and margin.expected == "gap - C(n,2) >= 0 for 7 <= n <= 40"
        and enum.measured == enum.expected == "218074"
        and c["formula-vs-enumeration-(2,5)"].measured == "610871"
        and c["formula-vs-enumeration-(5,2)"].measured == "392797"
    )
    assert report(
        "4 size gap of the mirrored pair",
        ok,
        f"{margin.measured} over n=7..40; enumerated gap at n=7: {enum.measured}",
    )


def test_analytic_lower_bound():
    c = cases(suite_lower_bound(30))["analytic-lower-bound"]
    ok = c.passed and c.expected == "max |U| >= bound for 7 <= n <= 30" and c.measured.startswith("holds")
    assert report("5 analytic lower bound n=7..30", ok, c.measured)


def test_unary_tightness_and_agreement():
    r = suite_unary(14, seed=0, samples=200)
    singles = [c for c in r.cases if c.name.startswith("single-word")]
    randoms = [c for c in r.cases if c.name.startswith("random")]
    ok = r.passed and len(singles) == 13 and len(randoms) == 11
    assert report(
        "6 one-letter languages",
        ok,
        f"{len(singles)} single-word sizes kept, {len(randoms)}x200 random agreements",
    )


def _random_dfa(rng, max_states=6, max_letters=3):
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_letters)
    alphabet = tuple("abc"[:k])
    delta = tuple(tuple(rng.randint(1, n) for _ in range(n)) for _ in range(k))
    start = rng.randint(1, n)
    finals = frozenset(q for q in range(1, n + 1) if rng.random() < 0.5)
    return Dfa(n, alphabet, delta, start, finals)


def test_power_oracle_soundness_containment_idempotence():
    rng = random.Random(0)
    dfas = 500
    words_per_dfa = 30
    checked = contained = 0
    for i in range(dfas):
        d = _random_dfa(rng)
        ra = root_automaton(d)
        for _ in range(words_per_dfa):
            w = tuple(rng.choice(d.alphabet) for _ in range(rng.randint(0, 8)))
            assert accepts(ra.dfa, w) == root_member_oracle(d, w)
            checked += 1
            if accepts(d, w):
                assert accepts(ra.dfa, w)
                contained += 1
        if i < 40 and d.n <= 3:
            once = minimize(ra.dfa)
            assert equivalent(minimize(root_automaton(once).dfa), once)
    ok = checked == dfas * words_per_dfa
    assert report(
        "7 power oracle soundness",
        ok,
        f"{checked} word checks over {dfas} automata, {contained} containment hits, idempotence sampled",
    )


def test_stirling_function_count_identity():
    c = cases(suite_counting())["function-count-identity"]
    ok = c.passed and c.expected == "sum C(m,i) i! S(n,i) == m^n, n,m <= 12" and c.measured == "holds"
    assert report("8a map-counting identity", ok, "sum C(m,i) i! S(n,i) == m^n for n,m <= 12")


def test_stirling_split_identity_corrected():
    c = cases(suite_counting())["two-step-split-identity"]
    ok = (
        c.passed
        and c.expected == "S(n,i) == S(n-2,i-2) + (2i-1) S(n-2,i-1) + i^2 S(n-2,i), n <= 60"
        and c.measured == "holds"
    )
    assert report("8b two-step split, i^2 coefficient", ok, "holds for 2 <= i <= n <= 60")


def test_stirling_split_identity_as_stated():
    # The expected pairs, count, counterexample and gap come from the algebra
    # in the module docstring, not from running the stated form.
    def stated(n, i):
        return stirling2(n - 2, i - 2) + (2 * i - 1) * stirling2(n - 2, i - 1) + (i - 1) * stirling2(n - 2, i)

    pairs = [(n, i) for n in range(2, 61) for i in range(2, n + 1)]
    failures = [(n, i) for n, i in pairs if stirling2(n, i) != stated(n, i)]
    first = failures[0] if failures else None
    claimed, true = (stated(*first), stirling2(*first)) if first else (None, None)
    ok = (
        failures == [(n, i) for n in range(2, 61) for i in range(2, n - 1)]
        and len(failures) == 1653
        and first == (4, 2)
        and (claimed, true) == (4, 7)
        and all(stirling2(n, i) - stated(n, i) == (i * i - i + 1) * stirling2(n - 2, i) for n, i in pairs)
    )
    assert report(
        "8c two-step split, (i-1) coefficient as stated, refuted",
        ok,
        f"{len(failures)} failing pairs, first counterexample {first}: claimed {claimed}, true {true}",
    )


def test_largest_two_generated_substitute():
    # Desk-scale stand-in for the out-of-reach maximality claims: exhaustive
    # search over all generator pairs at tiny degrees.
    expected = {1: 1, 2: 4, 3: 24, 4: 176}
    measured = {}
    for n in range(1, 5):
        size, gens = largest_two_generated(n)
        assert len(closure(list(gens))) == size
        measured[n] = size
    ok = measured == expected and all(
        measured[n] < n**n for n in (3, 4)
    )
    assert report("largest two-generated (substitute)", ok, f"maxima {measured}")
