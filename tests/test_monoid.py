import itertools
import math
import random
import re

import numpy as np
import pytest

from regroot import (
    ClosureBudgetError,
    Transformation,
    closure,
    cycle_pair,
    dfa_based_on,
    identity,
    largest_two_generated,
    stirling2,
    tn_generators,
    transformation_monoid,
    ukl_generators,
    ukl_member,
    ukl_member_mask,
)
from regroot import monoid
from regroot.monoid import _alpha_power_rows


def all_maps(n):
    return [Transformation(t) for t in itertools.product(range(1, n + 1), repeat=n)]


def all_rows(n):
    # The n^n image rows of degree n as an (n^n, n) uint8 array, in
    # lexicographic order.
    return np.indices((n,) * n, dtype=np.uint8).reshape(n, -1).T + 1


class TestClosure:
    def test_t3_is_everything(self):
        m = closure(tn_generators(3))
        assert len(m) == 27
        assert sorted(m) == sorted(all_maps(3))

    def test_t4_size(self):
        assert len(closure(tn_generators(4))) == 256

    def test_identity_alone(self):
        m = closure([identity(4)])
        assert len(m) == 1
        assert m.element(0) == identity(4)

    def test_contains_generators_and_identity(self):
        a, b = ukl_generators(2, 3)
        m = closure([a, b])
        assert a in m and b in m and identity(5) in m

    def test_generator_order_and_duplicates_do_not_matter(self):
        a, b = ukl_generators(2, 3)
        m1 = closure([a, b])
        m2 = closure([b, a, b, a])
        assert len(m1) == len(m2)
        assert list(m1) == list(m2)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            closure([identity(3), identity(4)])

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            closure([])

    def test_budget_cap(self):
        with pytest.raises(ClosureBudgetError):
            closure(tn_generators(4), max_elements=100)

    @pytest.mark.parametrize("cap", [0, -5, 2.5, True])
    def test_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match=f"positive integer, got {cap}"):
            closure(tn_generators(2), max_elements=cap)

    def test_budget_cap_is_the_final_size(self):
        assert len(closure(tn_generators(4), max_elements=256)) == 256
        with pytest.raises(ClosureBudgetError, match="cap of 255 elements"):
            closure(tn_generators(4), max_elements=255)

    def test_closed_under_sampled_products(self):
        a, b = ukl_generators(2, 3)
        m = closure([a, b])
        rng = random.Random(1)
        for _ in range(200):
            f = m.element(rng.randrange(len(m)))
            g = m.element(rng.randrange(len(m)))
            assert f * g in m

    def test_element_numbering_starts_at_identity(self):
        m = closure(tn_generators(3))
        assert m.element(0) == identity(3)
        rest = [m.element(i) for i in range(1, len(m))]
        assert rest == sorted(rest)
        assert m.index_of(identity(3)) == 0

    @pytest.mark.parametrize("i", [True, 1.0])
    def test_element_number_must_be_an_integer(self, i):
        m = closure(tn_generators(2))
        with pytest.raises(ValueError, match=f"element number {i} is not an integer"):
            m.element(i)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_element_number_must_be_in_range(self, i):
        m = closure(tn_generators(2))
        with pytest.raises(ValueError, match=rf"element number {i} out of range 0\.\.3"):
            m.element(i)

    def test_index_of_rejects_outsiders(self):
        m = closure([identity(2)])
        with pytest.raises(ValueError):
            m.index_of(Transformation([2, 1]))

    def test_element_is_the_transformation_of_its_row(self):
        m = closure(ukl_generators(2, 3))
        for i in (0, 1, len(m) // 2, len(m) - 1):
            f = m.element(i)
            assert type(f) is Transformation
            assert f == tuple(m.rows[i].tolist())

    def test_right_translation_refuses_another_degree(self):
        m = closure(tn_generators(3))
        with pytest.raises(ValueError, match="degree mismatch: 4 vs 3"):
            m.right_translation(identity(4))

    @pytest.mark.parametrize("row", [(1, 2, 3, 1), (1, 2), (1, 2, 0), (0, 1, 2), (1, 2, 300)])
    def test_rows_of_other_shapes_are_not_members(self, row):
        m = closure(tn_generators(3))
        assert row not in m
        with pytest.raises(ValueError, match="not an element"):
            m.index_of(row)


class TestRankHistogram:
    @pytest.mark.parametrize("n", [4, 5])
    def test_full_monoid_counts_maps_by_rank(self, n):
        # a map of rank r: choose its image, then a surjection onto it
        want = {r: math.comb(n, r) * math.factorial(r) * stirling2(n, r) for r in range(1, n + 1)}
        assert closure(tn_generators(n)).rank_histogram() == want


class TestTransformationMonoid:
    def test_example_dfa(self, example_dfa):
        assert len(transformation_monoid(example_dfa)) == 1857

    def test_identity_dfa(self):
        d = dfa_based_on([identity(3)])
        m = transformation_monoid(d)
        assert len(m) == 1
        assert m.rank_histogram() == {3: 1}

    def test_unary_cycle(self):
        d = dfa_based_on([cycle_pair(1, 4)])  # a five-cycle via (1)(2 3 4 5)? no:
        # cycle_pair(1,4) fixes point 1; use a plain 5-cycle instead
        five_cycle = Transformation([2, 3, 4, 5, 1])
        m = transformation_monoid(dfa_based_on([five_cycle]))
        assert len(m) == 5


class TestTnGenerators:
    @pytest.mark.parametrize("n,size", [(1, 1), (2, 4), (3, 27), (4, 256), (5, 3125)])
    def test_generated_sizes(self, n, size):
        gens = tn_generators(n)
        assert len(gens) == min(n, 3)
        assert len(closure(gens)) == size

    def test_ranks_of_standard_generators(self):
        swap, cyc, collapse = tn_generators(5)
        assert swap.rank() == 5 and cyc.rank() == 5
        assert collapse.rank() == 4

    def test_degree_below_one_is_refused(self):
        with pytest.raises(ValueError, match="invalid degree 0"):
            tn_generators(0)


# The coprime pairs k, l >= 2 with k + l <= 9.
COPRIME_PAIRS_TO_9 = [
    (k, n - k) for n in range(5, 10) for k in range(2, n - 1) if math.gcd(k, n - k) == 1
]


def searched_pi2(k, l):
    # pi1 = (1 2 ... k) on 1..n-1, and the lexicographically first
    # permutation pi2 of 1..n-1 with which it generates all of S_{n-1},
    # found by closing the pair for each candidate in turn.
    m = k + l - 1
    pi1 = Transformation([*range(2, k + 1), 1, *range(k + 1, m + 1)])
    full = math.factorial(m)
    for cand in itertools.permutations(range(1, m + 1)):
        if len(closure([pi1, Transformation(cand)], max_elements=full + 1)) == full:
            return pi1, Transformation(cand)
    raise AssertionError(f"no second generator for ({k}, {l})")


class TestUklGenerators:
    def test_alpha_for_2_3(self):
        a, b = ukl_generators(2, 3)
        assert a == (2, 1, 4, 5, 3)

    def test_beta_repeats_first_image_at_top(self):
        for k, l in [(2, 3), (3, 4), (2, 5)]:
            _, b = ukl_generators(k, l)
            n = k + l
            assert b[n - 1] == b[0]
            assert b.rank() == n - 1

    @pytest.mark.parametrize("k, l", COPRIME_PAIRS_TO_9)
    def test_closed_form_is_the_lexicographic_search(self, k, l):
        pi1, searched = searched_pi2(k, l)
        alpha, beta = ukl_generators(k, l)
        assert alpha == cycle_pair(k, l)
        assert beta == Transformation((*searched, searched[0]))
        pi2 = Transformation(tuple(beta)[:-1])
        assert len(closure([pi1, pi2])) == math.factorial(k + l - 1)

    @pytest.mark.parametrize("k, l", [(3, 7), (4, 9), (127, 128)])
    def test_closed_form_runs_no_closure(self, k, l, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ukl_generators called closure")

        monkeypatch.setattr(monoid, "closure", refuse)
        _, beta = ukl_generators(k, l)
        n = k + l
        assert beta.rank() == n - 1
        assert beta(n) == 1
        moved = [p for p in range(1, n) if beta(p) != p]
        cycle = [moved[0]]
        while beta(cycle[-1]) != moved[0]:
            cycle.append(beta(cycle[-1]))
        assert sorted(cycle) == moved == list(range(moved[0], n))
        # The k-cycle pi1 or the cycle pi2 has even length, so is an odd
        # permutation, and the pair does not lie in A_{n-1}.
        assert k % 2 == 0 or len(cycle) % 2 == 0

    def test_rejects_degenerate_or_non_coprime(self):
        with pytest.raises(ValueError):
            ukl_generators(2, 2)
        with pytest.raises(ValueError):
            ukl_generators(1, 4)
        with pytest.raises(ValueError):
            ukl_generators(3, 6)

    def test_closure_matches_size_formula(self):
        from regroot import ukl_size_formula

        assert len(closure(ukl_generators(2, 3))) == ukl_size_formula(2, 3) == 1857


class TestUklMember:
    def test_alpha_and_its_powers(self):
        a, _ = ukl_generators(2, 3)
        assert ukl_member(a, 2, 3)
        assert ukl_member(identity(5), 2, 3)
        assert ukl_member(a**4, 2, 3)

    def test_beta(self):
        _, b = ukl_generators(2, 3)
        assert ukl_member(b, 2, 3)

    def test_power_of_alpha_includes_the_half_cycle(self):
        # the cube of (1 2)(3 4 5) is the bare transposition (1 2)
        assert ukl_member(Transformation([2, 1, 3, 4, 5]), 2, 3)

    def test_non_member_permutation(self):
        # (1 3) is a permutation but not a power of the double cycle
        assert not ukl_member(Transformation([3, 2, 1, 4, 5]), 2, 3)

    def test_merge_must_cross_the_cycle_boundary(self):
        # merges only inside {1, 2} and misses a high point: still out
        assert not ukl_member(Transformation([1, 1, 3, 4, 4]), 2, 3)
        # cross merge with a missing high point: in
        assert ukl_member(Transformation([3, 1, 3, 4, 4]), 2, 3)

    def test_membership_set_equals_closure_at_2_3(self):
        members = {t for t in all_maps(5) if ukl_member(t, 2, 3)}
        m = closure(ukl_generators(2, 3))
        assert members == set(m)
        rows = all_rows(5)
        assert ukl_member_mask(rows, 2, 3).tolist() == [ukl_member(t, 2, 3) for t in rows.tolist()]

    def test_membership_count_equals_closure_at_3_4(self):
        rows = all_rows(7)
        members = rows[ukl_member_mask(rows, 3, 4)]
        # |U_{3,4}| by closure is pinned by test_acceptance's min-dfa check.
        assert len(members) == 607285
        # members are sorted, and so are the closure's rows after its identity.
        keys = np.sort(closure(ukl_generators(3, 4)).rows.view("S7").ravel())
        assert np.array_equal(members.view("S7").ravel(), keys)

    @pytest.mark.parametrize("k, l", [(2, 3), (3, 2), (3, 4), (4, 3), (2, 5), (5, 2)])
    def test_mask_agrees_with_the_scalar_form_on_a_sample(self, k, l):
        n = k + l
        sample = np.random.default_rng(k * 10 + l).integers(1, n + 1, size=(1000, n))
        # Random rows are almost never permutations: add the powers of the
        # double cycle, and permutations that are not.
        powers = np.array(sorted(_alpha_power_rows(k, l)))
        others = np.array(list(itertools.islice(itertools.permutations(range(1, n + 1)), 200)))
        rows = np.concatenate([sample, powers, others])
        mask = ukl_member_mask(rows, k, l)
        assert mask.tolist() == [ukl_member(t, k, l) for t in rows.tolist()]
        assert mask[1000 : 1000 + k * l].all()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (np.ones((3, 4), int), "need an (m, 5) array of image rows, got shape (3, 4)"),
            (np.ones(5, int), "need an (m, 5) array of image rows, got shape (5,)"),
            (np.full((2, 5), 6), "image value 6 out of range 1..5"),
            (np.zeros((2, 5), np.uint8), "image value 0 out of range 1..5"),
            (np.ones((2, 5)), "image rows must be integers, got float64"),
            (np.ones((2, 5), bool), "image rows must be integers, got bool"),
        ],
    )
    def test_mask_refuses_arrays_that_are_not_rows(self, rows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ukl_member_mask(rows, 2, 3)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            ukl_member(identity(4), 2, 3)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((9, 9, 9, 9, 9), "image value 9 out of range 1..5"),
            ((0, 0, 0, 0, 0), "image value 0 out of range 1..5"),
            ((1.0, 1, 1, 1, 1), "image value 1.0 is not an integer"),
            ((True, 1, 1, 1, 1), "image value True is not an integer"),
        ],
    )
    def test_rows_that_are_not_maps_are_refused(self, row, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ukl_member(row, 2, 3)

    def test_alpha_powers_are_the_closure_of_alpha(self):
        for k, l in itertools.product(range(2, 9), repeat=2):
            if math.gcd(k, l) == 1:
                alpha = cycle_pair(k, l)
                powers = {tuple(alpha**i) for i in range(k * l)}
                assert _alpha_power_rows(k, l) == powers


class TestLargestTwoGenerated:
    def test_tiny_degrees(self):
        assert largest_two_generated(1)[0] == 1
        assert largest_two_generated(2)[0] == 4

    def test_degree_three(self):
        size, (f, g) = largest_two_generated(3)
        assert size == 24
        assert len(closure([f, g])) == 24

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            largest_two_generated(5)

    def test_degree_below_one_is_refused(self):
        with pytest.raises(ValueError, match="invalid degree 0"):
            largest_two_generated(0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force_over_ordered_pairs(self, n):
        maps = all_maps(n)
        best = max(len(closure([f, g])) for f in maps for g in maps)
        assert largest_two_generated(n)[0] == best

    def test_witness_regenerates_the_maximum(self):
        size, gens = largest_two_generated(2)
        assert len(closure(list(gens))) == size


class TestDfaBasedOn:
    def test_defaults(self):
        a, b = ukl_generators(2, 3)
        d = dfa_based_on([a, b])
        assert d.alphabet == ("a", "b")
        assert d.start == 1
        assert d.finals == {1}
        assert d.delta == (tuple(a), tuple(b))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            dfa_based_on([identity(2), identity(3)])

    def test_more_maps_than_default_letters(self):
        assert dfa_based_on([identity(2)] * 26).alphabet[-1] == "z"
        with pytest.raises(ValueError, match="too many generators"):
            dfa_based_on([identity(2)] * 27)

    def test_monoid_of_based_dfa_is_the_closure(self):
        gens = tn_generators(3)
        d = dfa_based_on(gens)
        assert len(transformation_monoid(d)) == 27
