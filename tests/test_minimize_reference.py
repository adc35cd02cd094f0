"""minimize and nerode_partition against a pure-Python reference.

The reference runs Moore refinement on dict signatures over the states
reachable from the start, then numbers the classes by the first reach of
their members, breadth first with letters in alphabet order.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from regroot import Dfa, dfa_based_on, minimize, nerode_partition, root_automaton, ukl_generators

from conftest import small_dfas


def reference_minimize(d: Dfa) -> tuple[Dfa, list[list[int]]]:
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
    blocks = sorted(sorted(q for q in order if block[q] == b) for b in number)
    return Dfa(len(reps), d.alphabet, delta, 1, finals), blocks


def check(d: Dfa) -> None:
    want_dfa, want_blocks = reference_minimize(d)
    assert minimize(d) == want_dfa
    assert nerode_partition(d) == want_blocks


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
    delta = tuple(row + tuple(range(d.n + 1, n + 1)) for row in d.delta)
    check(Dfa(n, d.alphabet, delta, d.start, d.finals | {d.n + 1}))


def test_u23_root_automaton():
    d = root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa
    check(d)
    assert minimize(d).n == 1847
