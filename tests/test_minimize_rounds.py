"""The Moore rounds of the array refinement, counted and sized.

_partition keys each round on a state's acceptance and its successors'
classes, so a round whose key packs is one rank, and the pieces reuse the
ids of the classes they split, so the ids stay 0..ncls-1.  The rounds are
counted against a pure-Python Moore refinement with the same stop rule.
"""

import random
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroot import Dfa, dfa, dfa_based_on, minimize, nerode_partition, root_automaton, ukl_generators
from regroot.dfa import _KEY_LIMIT, _reachable, chain_dfa

from conftest import counter_dfa, random_dfa, small_dfas
from test_minimize_reference import LIMITS, check


def moore_end(d: Dfa, depth: int) -> tuple[int, str]:
    # The rounds _partition runs after a signature pass to this depth, and
    # how they end: from Moore's P_depth, one round a level, until P has
    # "one class", every class has one state ("singletons"), depth reaches
    # the reachable state count less 2 ("depth"), or a round splits no
    # class ("no split").
    order = [q for piece in _reachable(d) for q in piece]
    finals = set(d.finals.tolist())
    rows = d.delta.tolist()

    def refine(block):
        ids: dict[tuple, int] = {}
        return {q: ids.setdefault((q in finals, *(block[row[q - 1]] for row in rows)), len(ids)) for q in order}

    block = {q: int(q in finals) for q in order}
    for _ in range(depth):
        block = refine(block)
    rounds = 0
    while True:
        count = len(set(block.values()))
        if count == 1:
            return rounds, "one class"
        if count == len(order):
            return rounds, "singletons"
        if depth >= len(order) - 2:
            return rounds, "depth"
        depth, rounds = depth + 1, rounds + 1
        refined = refine(block)
        if len(set(refined.values())) == count:
            return rounds, "no split"
        block = refined


def ranks_and_depth(d: Dfa, limit: int = _KEY_LIMIT) -> tuple[int, int]:
    # The calls of _dense_rank by nerode_partition(d) under this key limit,
    # and the depth its signature pass reached.
    depths = []

    def signature(succ, fin, real=dfa._signature_classes):
        cls, depth = real(succ, fin)
        depths.append(depth)
        return cls, depth

    with (
        patch.object(dfa, "_KEY_LIMIT", limit),
        patch.object(dfa, "_dense_rank", wraps=dfa._dense_rank) as ranks,
        patch.object(dfa, "_signature_classes", signature),
    ):
        nerode_partition(d)
    return ranks.call_count, depths[0]


def ranks_and_rounds(d: Dfa, limit: int = _KEY_LIMIT) -> tuple[int, int]:
    # The calls of _dense_rank by nerode_partition(d) under this key limit,
    # and the rounds the reference counts after its signature pass.
    ranks, depth = ranks_and_depth(d, limit)
    return ranks, moore_end(d, depth)[0]


def relabelled(d: Dfa, seed: int) -> Dfa:
    # d with its states renamed by a seeded permutation, so that the first
    # member of a class reached is seldom its lowest state.
    perm = np.array([0, *random.Random(seed).sample(range(1, d.n + 1), d.n)], dtype=np.int32)
    delta = np.empty_like(d.delta)
    delta[:, perm[1:] - 1] = perm[d.delta]
    return Dfa(d.n, d.alphabet, delta, int(perm[d.start]), perm[d.finals])


@pytest.mark.parametrize(
    "make, limit, end",
    [
        (lambda: replace(random_dfa(200, 2, seed=5), finals=range(1, 201)), _KEY_LIMIT, "one class"),
        (lambda: random_dfa(200, 2, seed=5), 0, "one class"),
        (lambda: chain_dfa(0, 40, {10, 30}), _KEY_LIMIT, "depth"),
        (lambda: chain_dfa(5, 40, {3, 15, 35}), _KEY_LIMIT, "depth"),
        (lambda: chain_dfa(0, 64, {32, 64}), 2**13, "no split"),
        (lambda: chain_dfa(0, 64, {32, 64}), 0, "no split"),
        (lambda: root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa, _KEY_LIMIT, "no split"),
        (lambda: root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa, 2**16, "no split"),
        (lambda: chain_dfa(0, 64, {64}), 0, "singletons"),
    ],
    ids=["all-final", "no-final", "paired-cycle", "tail-and-paired-cycle", "paired-chain", "paired-chain-0", "u23-root", "u23-root-2**16", "chain"],
)
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_numbering_from_each_end_of_the_rounds(make, limit, end, seed):
    # The classes are numbered from the states still keyed when the rounds
    # stop, whichever way they stop; the reference numbers them from first
    # reach.  Relabelled, most classes reach a higher state first.
    d = make() if seed is None else relabelled(make(), seed)
    assert moore_end(d, ranks_and_depth(d, limit)[1])[1] == end
    with patch.object(dfa, "_KEY_LIMIT", limit), patch.object(dfa, "_LIST_LIMIT", 0):
        check(d)
    states, cls = nerode_partition(d)
    first = states[np.unique(cls, return_index=True)[1]]
    lowest = np.full(cls.max() + 1, d.n + 1)
    np.minimum.at(lowest, cls, states)
    assert seed is None or end == "singletons" or np.any(first != lowest)


@pytest.fixture(scope="module")
def u23_root():
    return root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa


def test_u23_root_automaton_ranks_once_a_round(u23_root):
    ranks, rounds = ranks_and_rounds(u23_root)
    assert rounds >= 2
    assert ranks == 1 + rounds


@pytest.mark.parametrize("limit, least", [(_KEY_LIMIT, 1), (2**13, 20)])
def test_chain_with_paired_finals_ranks_once_a_round(limit, least):
    # At 2**13 the signature pass stops at depth 5, and each of the rounds
    # after it keys all 64 states below 2 * 32, which packs, where a key
    # that began with the old class, below 32**2, would not.
    ranks, rounds = ranks_and_rounds(chain_dfa(0, 64, {32, 64}), limit)
    assert rounds >= least
    assert ranks == 1 + rounds


def test_many_letters_rank_between_folds():
    # 70 letters over 30 states: 2 * ncls**70 is far past an int64, so a
    # round ranks between folds, and still ends with the reference's
    # classes.
    rng = random.Random(4)
    n, alphabet = 30, tuple(f"x{i}" for i in range(70))
    delta = [[rng.choice((1, 2, rng.randint(1, n))) for _ in range(n)] for _ in alphabet]
    d = Dfa(n, alphabet, delta, 1, range(1, n, 3))
    check(d)
    ranks, rounds = ranks_and_rounds(d)
    assert rounds >= 1
    assert ranks > 1 + rounds


def final_bound(d: Dfa, limit: int) -> int:
    # The bound of the last _first_index call of nerode_partition(d),
    # which numbers the classes: the count of ids the rounds used.
    with (
        patch.object(dfa, "_KEY_LIMIT", limit),
        patch.object(dfa, "_first_index", wraps=dfa._first_index) as spy,
    ):
        nerode_partition(d)
    return spy.call_args_list[-1].args[1]


@pytest.mark.parametrize("limit", [_KEY_LIMIT, *LIMITS])
@pytest.mark.parametrize(
    "make",
    [
        lambda: chain_dfa(0, 64, {32, 64}),
        lambda: chain_dfa(0, 64, {64}),
        lambda: counter_dfa(1_200, 5),
        lambda: Dfa(2_000, ("a", "b", "c"), random_dfa(2_000, 3, seed=3).delta, 1, range(1, 400)),
        lambda: root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa,
    ],
    ids=["paired-chain", "chain", "counter", "random", "u23-root"],
)
def test_ids_stay_compact(make, limit):
    d = make()
    assert final_bound(d, limit) == minimize(d).n


@given(small_dfas(max_states=8, max_letters=4), st.sampled_from([_KEY_LIMIT, *LIMITS]))
@settings(max_examples=200)
def test_small_dfas_ids_stay_compact(d, limit):
    assert final_bound(d, limit) == minimize(d).n
