import random
import re

import pytest
from hypothesis import given, settings

from regroot import (
    Dfa,
    Transformation,
    accepting_transformation,
    accepts,
    closure,
    cycle_pair,
    dfa_based_on,
    equivalent,
    identity,
    minimize,
    root_automaton,
    root_member_oracle,
    root_state_complexity,
    tn_generators,
    transformation_monoid,
    ukl_generators,
    unary_root,
)

from conftest import small_dfas
from test_dfa import chain_dfa, single_word_dfa

ALPHA = Transformation([2, 1, 4, 5, 3])


class TestAcceptingTransformation:
    def test_identity_on_final_start(self):
        assert accepting_transformation(identity(3), 2, {2})
        assert not accepting_transformation(identity(3), 1, {2})

    def test_constant_to_non_final(self):
        f = Transformation([3, 3, 3])
        assert not accepting_transformation(f, 1, {1, 2})
        assert accepting_transformation(f, 1, {3})

    def test_alpha_returns_to_start(self):
        assert accepting_transformation(ALPHA, 1, {1})

    def test_needs_a_positive_iterate(self):
        # f fixes nothing in finals along the walk from 2
        f = Transformation([1, 1, 2])
        assert not accepting_transformation(f, 2, {2})

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            accepting_transformation(identity(3), 4, {1})

    @pytest.mark.parametrize("q0", [1.0, True])
    def test_rejects_non_integer_start(self, q0):
        with pytest.raises(ValueError, match=f"state {q0} is not an integer"):
            accepting_transformation((2, 1), q0, {1})

    @pytest.mark.parametrize(
        "row, message",
        [
            ((2, 9), "image value 9 out of range 1..2"),
            ((0, 1), "image value 0 out of range 1..2"),
            ((2.0, 1), "image value 2.0 is not an integer"),
            ((True, 1), "image value True is not an integer"),
        ],
    )
    def test_rejects_rows_that_are_not_maps(self, row, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            accepting_transformation(row, 1, {2})


class TestRootAutomaton:
    def test_example_dfa_state_count(self, example_dfa):
        ra = root_automaton(example_dfa)
        assert ra.dfa.n == 1857
        assert ra.dfa.start == 1
        assert ra.element_of(1) == identity(5)

    @pytest.mark.parametrize("state", [0, 1858])
    def test_element_of_refuses_states_out_of_range(self, example_dfa, state):
        ra = root_automaton(example_dfa)
        with pytest.raises(ValueError, match=rf"^state {state} out of range 1\.\.1857$"):
            ra.element_of(state)

    def test_empty_language_accepts_nothing(self, example_dfa):
        d = Dfa(5, example_dfa.alphabet, example_dfa.delta, 1, frozenset())
        ra = root_automaton(d)
        assert ra.dfa.finals == frozenset()

    def test_unary_two_letter_word_language(self):
        d = single_word_dfa(4)  # {aa}
        ra = root_automaton(d)
        # root({aa}) = {a, aa}
        target = Dfa(4, ("a",), ((2, 3, 4, 4),), 1, frozenset({2, 3}))
        assert equivalent(ra.dfa, target)

    def test_transitions_compose_on_the_right(self, example_dfa):
        ra = root_automaton(example_dfa)
        for letter_pos, letter in enumerate(example_dfa.alphabet):
            g = example_dfa.letter_transformation(letter)
            for s in (1, 2, 57, 1857):
                t = ra.dfa.delta[letter_pos][s - 1]
                assert ra.element_of(t) == ra.element_of(s) * g

    def test_precomputed_monoid_is_accepted(self, example_dfa):
        m = transformation_monoid(example_dfa)
        ra = root_automaton(example_dfa, monoid=m)
        assert ra.monoid is m

    def test_precomputed_monoid_degree_checked(self, example_dfa):
        with pytest.raises(ValueError):
            root_automaton(example_dfa, monoid=transformation_monoid(single_word_dfa(3)))

    def test_precomputed_monoid_missing_a_product(self):
        # the powers of the double cycle alone miss every product with beta
        d = dfa_based_on(ukl_generators(2, 3))
        with pytest.raises(ValueError, match="not closed"):
            root_automaton(d, monoid=closure([cycle_pair(2, 3)]))

    def test_containment_of_the_base_language(self, example_dfa):
        ra = root_automaton(example_dfa)
        for w in ["", "aa", "abab", "bbbb", "ba"]:
            if accepts(example_dfa, w):
                assert accepts(ra.dfa, w)


class TestRootMemberOracle:
    def test_square_root_of_the_two_letter_word(self):
        d = single_word_dfa(4)  # {aa}
        assert root_member_oracle(d, "a")
        assert root_member_oracle(d, "aa")
        assert not root_member_oracle(d, "aaa")

    def test_members_of_l_are_roots(self, example_dfa):
        for w in ["", "aa", "abab"]:
            if accepts(example_dfa, w):
                assert root_member_oracle(example_dfa, w)

    def test_word_as_tuple(self, example_dfa):
        assert root_member_oracle(example_dfa, ("a",))


class TestUnaryRoot:
    def test_two_letter_word_language(self):
        d = single_word_dfa(4)  # {aa}
        r = unary_root(d)
        assert r.finals == {2, 3}
        assert minimize(r).n == 4

    def test_loop_offset_marks_residues(self):
        # pure 4-loop accepting lengths 2, 6, 10, ...
        d = chain_dfa(0, 4, {3})
        r = unary_root(d)
        assert r.finals == {2, 3, 4}  # residues 1, 2, 3; residue 0 stays out

    def test_loop_offset_against_brute_force(self):
        d = chain_dfa(0, 4, {3})
        r = unary_root(d)
        for s in range(1, 30):
            expect = any((4 * k + 2) % s == 0 for k in range(0, 60))
            assert accepts(r, "a" * s) == expect

    def test_empty_language_stays_empty(self):
        d = chain_dfa(2, 3, ())
        r = unary_root(d)
        assert r.finals == frozenset()

    def test_epsilon_only_language(self):
        d = single_word_dfa(2)  # {""}
        r = unary_root(d)
        assert accepts(r, "")
        assert minimize(r).n == 2

    def test_requires_one_letter(self, example_dfa):
        with pytest.raises(ValueError):
            unary_root(example_dfa)

    def test_every_chain_to_seven_states_against_the_oracle(self):
        # Every tail length and final set of 1..7 states: 1,538 DFAs.
        count = 0
        for m in range(1, 8):
            for tail in range(m):
                for bits in range(2**m):
                    d = chain_dfa(tail, m - tail, [q for q in range(1, m + 1) if bits >> (q - 1) & 1])
                    r = unary_root(d)
                    assert accepts(r, "") == accepts(d, ""), (tail, m, bits)
                    for s in range(1, 2 * m + 1):
                        assert accepts(r, "a" * s) == root_member_oracle(d, "a" * s), (tail, m, bits, s)
                    count += 1
        assert count == 1538

    @pytest.mark.parametrize("finals", [range(1, 254, 2), [251], [250], []])
    def test_a_long_tail_against_the_generic_construction(self, finals):
        # 253 states, within the degree cap of 255 that the generic
        # construction works under: every other state, the loop entry alone,
        # the last tail state alone (the divisors of 249) and none.
        d = chain_dfa(250, 3, finals)
        assert equivalent(unary_root(d), root_automaton(d).dfa)

    def test_a_tail_of_three_thousand_states(self):
        # Every other state final accepts every even length: each a^s has a
        # power in L, and so does the empty word.
        every_other = chain_dfa(3000, 2, range(1, 3003, 2))
        assert equivalent(unary_root(every_other), chain_dfa(0, 1, {1}))
        # No final tail state: L holds the lengths 3001 + 3i, so a^s is in
        # the root iff 3 does not divide s.
        no_tail = chain_dfa(3000, 3, {3002})
        assert equivalent(unary_root(no_tail), chain_dfa(1, 3, {2, 3}))

    def test_agrees_with_generic_construction(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 9)
            tail = rng.randrange(n)
            loop = rng.randint(1, n - tail)
            finals = {q for q in range(1, tail + loop + 1) if rng.random() < 0.5}
            d = chain_dfa(tail, loop, finals)
            assert equivalent(unary_root(d), root_automaton(d).dfa)
            assert minimize(unary_root(d)).n <= minimize(d).n


class TestRootStateComplexity:
    def test_single_state(self):
        assert root_state_complexity(dfa_based_on([identity(1)])) == 1

    def test_full_monoid_on_four_points(self):
        assert root_state_complexity(dfa_based_on(tn_generators(4))) == 250

    def test_example_dfa(self, example_dfa):
        assert root_state_complexity(example_dfa) == 1847


@given(small_dfas(max_states=4, max_letters=2))
@settings(max_examples=40, deadline=None)
def test_root_acceptance_equals_power_oracle(d):
    ra = root_automaton(d)
    words = [()]
    frontier = [()]
    for _ in range(3):
        frontier = [w + (a,) for w in frontier for a in d.alphabet]
        words.extend(frontier)
    for w in words:
        assert accepts(ra.dfa, w) == root_member_oracle(d, w)


@given(small_dfas(max_states=3, max_letters=2))
@settings(max_examples=25, deadline=None)
def test_root_is_idempotent(d):
    once = root_automaton(d).dfa
    twice = root_automaton(once).dfa
    assert equivalent(minimize(twice), minimize(once))
