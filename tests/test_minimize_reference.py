"""minimize and nerode_partition against a pure-Python reference.

The reference runs Moore refinement on dict signatures over the states
reachable from the start, then numbers the classes by the first reach of
their members, breadth first with letters in alphabet order.
"""

import random
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroot import Dfa, dfa, dfa_based_on, minimize, nerode_partition, root_automaton, ukl_generators
from regroot.dfa import _reachable, chain_dfa

from conftest import counter_dfa, random_dfa, small_dfas


def reference_minimize(d: Dfa) -> tuple[Dfa, list[int], list[int]]:
    order = [d.start]
    for q in order:
        for row in d.delta:
            if row[q - 1] not in order:
                order.append(row[q - 1])
    block = {q: q in d.finals for q in order}
    while True:
        signature = {q: (block[q],) + tuple(block[row[q - 1]] for row in d.delta) for q in order}
        ids: dict[tuple, int] = {}
        refined = {q: ids.setdefault(signature[q], len(ids)) for q in order}
        if len(ids) == len(set(block.values())):
            break
        block = refined
    number: dict = {}
    reps = []
    for q in order:
        if block[q] not in number:
            number[block[q]] = len(reps) + 1
            reps.append(q)
    delta = tuple(tuple(number[block[row[q - 1]]] for q in reps) for row in d.delta)
    finals = frozenset(number[block[q]] for q in reps if q in d.finals)
    return Dfa(len(reps), d.alphabet, delta, 1, finals), order, [number[block[q]] for q in order]


def check(d: Dfa) -> None:
    want_dfa, want_order, want_numbers = reference_minimize(d)
    assert minimize(d) == want_dfa
    states, cls = nerode_partition(d)
    assert states.tolist() == want_order
    assert (cls + 1).tolist() == want_numbers


@given(small_dfas(max_states=8))
@settings(max_examples=300)
def test_small_dfas(d):
    check(d)


@given(small_dfas(max_states=8), st.sampled_from(["empty", "full"]))
def test_empty_and_full_final_sets(d, which):
    check(replace(d, finals=() if which == "empty" else range(1, d.n + 1)))


@given(small_dfas(max_states=8, max_letters=1))
def test_unary_dfas(d):
    check(d)


@given(small_dfas(max_states=1))
def test_one_state_dfas(d):
    check(d)


@given(small_dfas(max_states=4), st.integers(1, 4))
def test_unreachable_states(d, extra):
    # States n+1..n+extra are never reached from the start; each maps to
    # itself on every letter and the first of them is final.
    n = d.n + extra
    delta = tuple(tuple(row) + tuple(range(d.n + 1, n + 1)) for row in d.delta)
    check(Dfa(n, d.alphabet, delta, d.start, (*d.finals, d.n + 1)))


@pytest.fixture(scope="module")
def u23_root():
    return root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa


def test_u23_root_automaton(u23_root):
    check(u23_root)
    assert minimize(u23_root).n == 1847


def test_u23_root_automaton_is_above_the_level_walk_threshold(u23_root):
    # So test_u23_root_automaton checks levels read one state at a time
    # and levels read with numpy, on 1,857 states.
    assert {type(piece) for piece in _reachable(u23_root)} == {list, np.ndarray}


# Key limits patched down: at 0 every sort is a stable argsort, and at the
# others the sorts of one DFA mix packed sorts and argsorts, and a round
# ranks between folds.
LIMITS = [0, 2**8, 2**16]


def argsorts_past_the_limit(d, limit):
    # check(d) with the key limit patched; the number of fallback sorts.
    with patch.object(dfa, "_KEY_LIMIT", limit), patch.object(np, "argsort", wraps=np.argsort) as spy:
        check(d)
    return spy.call_count


@given(small_dfas(max_states=8), st.sampled_from(LIMITS))
@settings(max_examples=200)
def test_small_dfas_past_the_packing_limit(d, limit):
    argsorts = argsorts_past_the_limit(d, limit)
    assert argsorts or limit  # at 0, every sort is an argsort


@pytest.mark.parametrize("limit", LIMITS)
def test_u23_root_automaton_past_the_packing_limit(u23_root, limit):
    assert argsorts_past_the_limit(u23_root, limit)


def signature_width(letters, depth):
    # The bits of the signature of words of length at most depth.
    return sum(letters**i for i in range(depth + 1))


@given(small_dfas(max_states=8, max_letters=4), st.data())
@settings(max_examples=200)
def test_small_dfas_from_each_signature_depth(d, data):
    # The key limit is patched so that the signature pass packs up to this
    # depth and no further; it stops earlier, two short of the reachable
    # state count, where Moore's partition is already the Nerode one.  Its
    # rank, the first, has the bound of that depth's width.  Keys are
    # int64, so only depths whose limit is at most 2**63 are drawn: four
    # letters at depth 3 would need 2**85 and more.
    reached = sum(map(len, _reachable(d)))

    def limit_at(depth):
        return 1 << signature_width(len(d.alphabet), depth) << reached.bit_length()

    depth = data.draw(st.sampled_from([t for t in range(4) if limit_at(t) <= 2**63]), label="depth")
    limit = limit_at(depth)
    with patch.object(dfa, "_KEY_LIMIT", limit), patch.object(dfa, "_dense_rank", wraps=dfa._dense_rank) as spy:
        check(d)
    ran = min(depth, max(reached - 2, 0))
    assert spy.call_args_list[0].args[1] == 1 << signature_width(len(d.alphabet), ran)


def test_four_letters_at_the_shipped_limit():
    # Five classes.  A limit patched to 2**88 lets the signature pass run
    # to depth 3, whose int64 signature overflows and merges two of them.
    d = Dfa(5, ("a", "b", "c", "d"), [[1, 1, 1, 1, 1], [1, 3, 4, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 5, 1]], 2, [5])
    check(d)
    assert minimize(d).n == 5


def test_chain_is_split_by_the_signature_pass_alone():
    # The pass reaches depth 48 on 50 states, where the distance to the
    # final state tells every state apart, so its rank is the only one.
    d = chain_dfa(0, 50, {50})
    with patch.object(dfa, "_dense_rank", wraps=dfa._dense_rank) as spy:
        assert minimize(d).n == 50
    assert spy.call_count == 1
    check(d)


def test_deep_walk_above_the_threshold():
    d = counter_dfa(1_200, 5)
    check(d)
    assert minimize(d).n == 5


def test_random_dfa_above_the_threshold():
    check(replace(random_dfa(2_000, 3, seed=3), finals=range(1, 400)))


def test_chain_splits_one_singleton_a_round():
    # The 64 states of the cycle are told apart by their distance to the
    # final state, one per round, so the keyed states shrink by one.
    d = chain_dfa(0, 64, {64})
    check(d)
    assert minimize(d).n == 64


def test_chain_keeps_pairs_keyed_to_the_end():
    # States q and q + 32 are equivalent, so 32 classes of two stay keyed
    # in every round while the distance to a final state splits them.
    d = chain_dfa(0, 64, {32, 64})
    check(d)
    assert minimize(d).n == 32


def test_many_letters_rank_keys_between_folds():
    # 70 letters fold more classes than an int64 key can hold, so the key
    # is ranked between folds.
    rng = random.Random(4)
    n, alphabet = 30, tuple(f"x{i}" for i in range(70))
    delta = [[rng.choice((1, 2, rng.randint(1, n))) for _ in range(n)] for _ in alphabet]
    check(Dfa(n, alphabet, delta, 1, range(1, n, 3)))
