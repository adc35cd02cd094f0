"""equivalent and _distinguishing_word against a plain product search.

The reference walks pairs of states breadth first from the two starts,
with no union-find, so the first pair that disagrees on acceptance gives
a shortest word that exactly one automaton accepts.
"""

from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroot import Dfa, accepts, dfa, equivalent, minimize
from regroot.dfa import _distinguishing_word

from conftest import spy_refinements


def shortest_word(d1: Dfa, d2: Dfa):
    start = (d1.start, d2.start)
    came_from = {start: None}
    queue = [start]
    for p, q in queue:
        if (p in d1.finals) != (q in d2.finals):
            word = []
            while came_from[p, q] is not None:
                (p, q), a = came_from[p, q]
                word.append(a)
            return tuple(reversed(word))
        for a in d1.alphabet:
            pair = (int(d1.delta[d1.letter_index(a), p - 1]), int(d2.delta[d2.letter_index(a), q - 1]))
            if pair not in came_from:
                came_from[pair] = ((p, q), a)
                queue.append(pair)
    return None


def in_order_of(d2: Dfa, alphabet) -> Dfa:
    # d2 with its letters, and rows, in the order of alphabet.
    rows = [d2.delta[d2.letter_index(a)] for a in alphabet]
    return Dfa(d2.n, alphabet, rows, d2.start, d2.finals)


@st.composite
def dfas_over(draw, letters, max_states=6):
    n = draw(st.integers(1, max_states))
    delta = [[draw(st.integers(1, n)) for _ in range(n)] for _ in letters]
    finals = draw(
        st.one_of(
            st.just(()),
            st.just(range(1, n + 1)),
            st.frozensets(st.integers(1, n)),
        )
    )
    return Dfa(n, letters, delta, draw(st.integers(1, n)), finals)


@st.composite
def dfa_pairs(draw):
    """Two DFAs over the same letters, each listing them in its own order.

    The second is an unrelated DFA, often of another size, or a relabelled
    copy of the first with unreachable states added and maybe one final
    state flipped, so equal languages come up as often as unequal ones.
    """
    letters = tuple("abc"[: draw(st.integers(1, 3))])
    d1 = draw(dfas_over(letters))
    if draw(st.booleans()):
        d2 = draw(dfas_over(letters))
    else:
        extra = draw(st.integers(0, 3))
        n = d1.n + extra
        perm = draw(st.permutations(range(1, n + 1)))  # state q becomes perm[q - 1]
        rows = [[0] * n for _ in letters]
        for j, row in enumerate(d1.delta.tolist()):
            for q in range(1, n + 1):
                # States past d1.n are unreachable, and lead anywhere.
                target = row[q - 1] if q <= d1.n else draw(st.integers(1, n))
                rows[j][perm[q - 1] - 1] = perm[target - 1]
        finals = {perm[q - 1] for q in d1.finals.tolist()}
        finals |= {perm[q - 1] for q in range(d1.n + 1, n + 1) if draw(st.booleans())}
        if draw(st.booleans()):
            finals ^= {draw(st.integers(1, n))}
        d2 = Dfa(n, letters, rows, perm[d1.start - 1], finals)
    return d1, in_order_of(d2, draw(st.permutations(letters)))


@pytest.mark.parametrize("limit", [dfa._WALK_LIMIT, 0], ids=["walk", "minimize"])
@given(pair=dfa_pairs())
@settings(max_examples=300)
def test_equivalent_on_both_sides_of_the_limit(limit, pair):
    d1, d2 = pair
    want = shortest_word(d1, d2) is None
    assert want == (minimize(d1) == minimize(in_order_of(d2, d1.alphabet)))
    with patch.object(dfa, "_WALK_LIMIT", limit):
        assert equivalent(d1, d2) == want
        assert equivalent(d2, d1) == want


@given(dfa_pairs())
@settings(max_examples=300)
def test_the_word_is_a_shortest_one_that_tells_the_two_apart(pair):
    d1, d2 = pair
    d2 = in_order_of(d2, d1.alphabet)
    word, want = _distinguishing_word(d1, d2), shortest_word(d1, d2)
    if want is None:
        assert word is None
    else:
        assert accepts(d1, word) != accepts(d2, word)
        assert len(word) == len(want)


def test_the_word_on_a_small_example():
    # (ab)* against (ab)* plus (ab)+b, which first differ on abb.
    d1 = Dfa(3, ("a", "b"), ((2, 3, 3), (3, 1, 3)), 1, {1})
    d2 = Dfa(5, ("a", "b"), ((2, 3, 3, 2, 3), (3, 4, 3, 5, 3)), 1, {1, 4, 5})
    assert _distinguishing_word(d1, d2) == ("a", "b", "b")
    assert _distinguishing_word(d2, d1) == ("a", "b", "b")
    assert _distinguishing_word(d1, replace(d1, finals=())) == ()
    assert _distinguishing_word(d1, d1) is None


@pytest.mark.parametrize("letters", [("a", "b"), ("b", "a")])
def test_the_word_is_found_breadth_first(letters):
    # {xx, yyyy} for letters (x, y) against the empty language: a walk
    # that went deep first, in either letter order, would find a word of
    # four letters in one of the two orders.
    rows = ((2, 3, 8, 8, 8, 8, 8, 8), (4, 8, 8, 5, 6, 7, 8, 8))
    two_words = Dfa(8, letters, rows, 1, {3, 7})
    empty = Dfa(1, letters, ((1,), (1,)), 1, ())
    assert _distinguishing_word(two_words, empty) == (letters[0],) * 2
    assert _distinguishing_word(empty, two_words) == (letters[0],) * 2


@pytest.mark.parametrize("extra, minimizes", [(0, 0), (1, 2)])
def test_the_limit_is_in_transitions(extra, minimizes):
    # Two 2-letter automata of 2,046 and 2 + extra states, both of the
    # empty language: at the limit the walk decides, one state past it
    # two minimizations do.
    cycle = Dfa(2046, ("a", "b"), [[q % 2046 + 1 for q in range(1, 2047)]] * 2, 1, ())
    other = Dfa(2 + extra, ("b", "a"), [[1] * (2 + extra)] * 2, 1, ())
    assert (cycle.n + 2) * 2 == dfa._WALK_LIMIT
    with spy_refinements() as (arrays, lists):
        assert equivalent(cycle, other)
    assert arrays.call_count + lists.call_count == minimizes
