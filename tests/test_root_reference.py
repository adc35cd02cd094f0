"""closure and root_automaton against tuple references.

The references are the plain forms of both constructions: a breadth-first
closure over image-row tuples with a set of the rows seen, and a root
automaton whose letter rows look each product f * g up in a dict of the
element numbers and whose finals come from accepting_transformation, one
element at a time.

Both constructions have two paths, chosen by the monoid: wide closure
levels and large right translations of degree at most 8 run on dense maps
over the base-n codes, and the rest on keys.  The cases below name the
path they take, on each side of that crossover.

root_automaton has two paths of its own: a monoid of at most
root._BYTES_LIMIT bytes of rows is built on bytes, and a larger one on
arrays.  check builds every automaton both ways, the second with the limit
patched to 0, since nearly every small DFA would take the bytes path.
"""

import itertools
import random
from collections import deque
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroot import (
    ClosureBudgetError,
    Dfa,
    Transformation,
    accepting_transformation,
    closure,
    cycle_pair,
    dfa_based_on,
    root_automaton,
    root_member_oracle,
    tn_generators,
    transformation_monoid,
    ukl_generators,
)
from regroot import monoid, root

from conftest import small_dfas


def reference_closure(gens) -> list[tuple[int, ...]]:
    gens = list(dict.fromkeys(tuple(g) for g in gens))
    ident = tuple(range(1, len(gens[0]) + 1))
    seen = {ident}
    queue = deque([ident])
    while queue:
        f = queue.popleft()
        for g in gens:
            h = tuple(g[x - 1] for x in f)
            if h not in seen:
                seen.add(h)
                queue.append(h)
    seen.discard(ident)
    return [ident] + sorted(seen)


def reference_root(d: Dfa, rows: list[tuple[int, ...]]) -> Dfa:
    index = {row: i for i, row in enumerate(rows)}
    try:
        delta = tuple(
            tuple(index[tuple(g[x - 1] for x in f)] + 1 for f in rows) for g in d.delta
        )
    except KeyError:
        raise ValueError("not closed") from None
    finals = frozenset(
        s for s, f in enumerate(rows, 1) if accepting_transformation(f, d.start, d.finals)
    )
    return Dfa(len(rows), d.alphabet, delta, 1, finals)


def on_arrays():
    # root_automaton takes the array path whatever the monoid's size.
    return patch.object(root, "_BYTES_LIMIT", 0)


def both_paths(d: Dfa) -> tuple:
    # root_automaton(d) as shipped, and on arrays.
    shipped = root_automaton(d)
    with on_arrays():
        return shipped, root_automaton(d)


def check(d: Dfa) -> None:
    m = transformation_monoid(d)
    rows = reference_closure(d.delta)
    assert list(m) == rows
    expected = reference_root(d, rows)
    for ra in both_paths(d):
        assert ra.dfa == expected


@given(small_dfas(max_states=5))
@settings(max_examples=200, deadline=None)
def test_small_dfas(d):
    check(d)


@given(small_dfas(max_states=5), st.sampled_from(["empty", "full"]))
@settings(deadline=None)
def test_empty_and_full_final_sets(d, which):
    check(replace(d, finals=() if which == "empty" else range(1, d.n + 1)))


@given(small_dfas(max_states=8, max_letters=1))
@settings(deadline=None)
def test_unary_dfas(d):
    check(d)


@given(small_dfas(max_states=1))
@settings(deadline=None)
def test_one_state_dfas(d):
    check(d)


@given(small_dfas(max_states=4), st.integers(1, 3))
@settings(deadline=None)
def test_unreachable_states(d, extra):
    # States n+1..n+extra are never reached from the start; each maps to
    # itself on every letter and the first of them is final.
    n = d.n + extra
    delta = tuple(tuple(row) + tuple(range(d.n + 1, n + 1)) for row in d.delta)
    check(Dfa(n, d.alphabet, delta, d.start, (*d.finals, d.n + 1)))


@pytest.mark.parametrize("k,l", [(9, 11), (64, 67)])
def test_high_degree_cycle_pairs(k, l):
    # Degree 20, and degree 131 where images above 127 test that the keys
    # order as unsigned bytes.
    gens = [cycle_pair(k, l)]
    rows = reference_closure(gens)
    m = closure(gens)
    assert len(m) == k * l
    assert list(m) == rows
    d = replace(dfa_based_on(gens), finals={1, k + 1})
    assert root_automaton(d, monoid=m).dfa == reference_root(d, rows)


def test_u23_with_every_start():
    d = dfa_based_on(ukl_generators(2, 3))
    rows = reference_closure(d.delta)
    m = closure(d.delta)
    assert list(m) == rows
    for z0 in range(1, 6):
        dz = replace(d, start=z0, finals={z0, 5})
        assert root_automaton(dz, monoid=m).dfa == reference_root(dz, rows)


def test_monoid_missing_a_product():
    d = dfa_based_on(ukl_generators(2, 3))
    rows = reference_closure([cycle_pair(2, 3)])
    with pytest.raises(ValueError, match="not closed"):
        reference_root(d, rows)
    m = closure([cycle_pair(2, 3)])
    assert m.rows.size <= root._BYTES_LIMIT
    with pytest.raises(ValueError, match="not closed") as on_bytes:
        root_automaton(d, monoid=m)
    with on_arrays(), pytest.raises(ValueError, match="not closed") as arrays:
        root_automaton(d, monoid=m)
    assert str(on_bytes.value) == str(arrays.value)


# Two-letter monoids of degree 8 with 32 and 33 elements: 256 bytes of rows,
# exactly the limit, and one row past it.
AT_THE_LIMIT = [(6, 8, 1, 1, 5, 1, 5, 5), (4, 6, 7, 5, 4, 2, 6, 4)]
ONE_ROW_PAST = [(4, 6, 3, 3, 8, 3, 7, 4), (1, 1, 7, 1, 3, 2, 7, 5)]


@pytest.mark.parametrize(
    "gens, size, on_bytes",
    [
        ([tuple(range(2, 17)) + (1,)], 256, True),  # a 16-cycle
        (AT_THE_LIMIT, 256, True),
        (ONE_ROW_PAST, 264, False),
    ],
    ids=["cycle-16", "at-the-limit", "one-row-past"],
)
def test_each_side_of_the_bytes_limit(gens, size, on_bytes, monkeypatch):
    assert root._BYTES_LIMIT == 256
    calls = []
    real = root._root_few
    monkeypatch.setattr(root, "_root_few", lambda m, d: calls.append(m) or real(m, d))
    d = replace(dfa_based_on(gens), finals={2, 5})
    assert closure(gens).rows.size == size
    expected = reference_root(d, reference_closure(gens))
    for ra in both_paths(d):
        assert ra.dfa == expected
    assert len(calls) == on_bytes


@given(small_dfas(max_states=4, max_letters=2))
@settings(max_examples=100, deadline=None)
def test_finals_element_by_element(d):
    for ra in both_paths(d):
        for s in range(1, ra.dfa.n + 1):
            f = ra.element_of(s)
            assert (s in ra.dfa.finals) == accepting_transformation(f, d.start, d.finals)


@given(small_dfas(max_states=4, max_letters=2))
@settings(max_examples=50, deadline=None)
def test_finals_against_the_power_oracle(d):
    # Every state is an element of the monoid, so some word reaches it;
    # the state is final iff that word is in root(L).
    for ra in both_paths(d):
        word = {1: ()}
        queue = deque([1])
        while queue:
            s = queue.popleft()
            for a, row in zip(d.alphabet, ra.dfa.delta):
                if row[s - 1] not in word:
                    word[row[s - 1]] = word[s] + (a,)
                    queue.append(row[s - 1])
        assert len(word) == ra.dfa.n
        for s, w in word.items():
            assert (s in ra.dfa.finals) == root_member_oracle(d, w)


def spy_dense_pays(monkeypatch, map_bytes: int) -> list[int]:
    # The degree of each _dense_pays call about map_bytes bytes per code
    # that says yes.
    calls = []
    real = monoid._dense_pays

    def spy(n, products, code_bytes):
        pays = real(n, products, code_bytes)
        if pays and code_bytes == map_bytes:
            calls.append(n)
        return pays

    monkeypatch.setattr(monoid, "_dense_pays", spy)
    return calls


@pytest.fixture
def dense_closures(monkeypatch):
    # The degree of each closure that runs its wide levels on the dense map:
    # closure asks _dense_pays about one byte per code until it says yes.
    return spy_dense_pays(monkeypatch, 1)


@pytest.fixture
def dense_lookups(monkeypatch):
    # The degree of each lookup that gathers through the int32 number map:
    # TransMonoid._numbers asks _dense_pays about four bytes per code.
    return spy_dense_pays(monkeypatch, 4)


# T_5 x C_4 on degree 9: 12,260 elements, so wide enough for the dense
# maps, but 9^9 codes are over their byte budget.
DEGREE_9 = [
    Transformation((2, 1, 3, 4, 5, 7, 8, 9, 6)),
    Transformation((2, 3, 4, 5, 1, 6, 7, 8, 9)),
    Transformation((1, 2, 3, 4, 1, 6, 7, 8, 9)),
]


@pytest.mark.parametrize(
    "gens",
    [
        [Transformation([*range(2, 10), 1])],
        [Transformation([2, 1, *range(3, 10)]), Transformation([1, 1, *range(3, 10)])],
    ],
    ids=["9-cycle", "swap-and-merge"],
)
def test_degree_9_on_codes_against_keys(gens, dense_lookups, monkeypatch):
    # Forced onto codes from the first level, with a byte budget past
    # closure's 9^9-byte bool map but short of a lookup's 4 * 9^9-byte
    # number map, so the right translations search the codes.  Image 9 is
    # bit 8 of a rank mask, past a uint8.
    d = dfa_based_on(gens)
    keys = closure(gens)
    for name, value in {"_DENSE_WIDTH": -1, "_DENSE_SPREAD": 10**18, "_NUMBER_SPREAD": 10**18, "_DENSE_BYTES": 4 * 10**8}.items():
        monkeypatch.setattr(monoid, name, value)
    m = closure(gens)
    assert m._on_codes and not keys._on_codes
    assert m.rank_histogram() == keys.rank_histogram()
    want = root_automaton(d, monoid=keys).dfa
    assert root_automaton(d, monoid=m).dfa == want
    with on_arrays():
        assert root_automaton(d, monoid=m).dfa == want
    assert dense_lookups == []


@pytest.mark.parametrize(
    "gens, dense",
    [
        (tn_generators(3), False),
        (tn_generators(4), False),
        (tn_generators(5), True),
        (tn_generators(6), True),
        (ukl_generators(2, 3), True),
        (DEGREE_9, False),
    ],
    ids=["T3", "T4", "T5", "T6", "U23", "degree-9"],
)
def test_each_side_of_the_crossover(gens, dense, dense_closures, dense_lookups):
    m = closure(gens)
    d = replace(dfa_based_on(gens), finals={1, 2})
    ra = root_automaton(d, monoid=m)
    assert bool(dense_closures) == dense
    assert bool(dense_lookups) == dense
    rows = reference_closure(gens)
    assert list(m) == rows
    assert ra.dfa == reference_root(d, rows)


def test_u34_dense_against_keys(dense_closures, dense_lookups, monkeypatch):
    # The tuple references take seconds at 607,285 elements; the key path,
    # which they check above, stands in for them.
    gens = ukl_generators(3, 4)
    m = closure(gens)
    dense = m.right_translations(gens)
    assert dense_closures == [7] and dense_lookups == [7]
    monkeypatch.setattr(monoid, "_DENSE_BYTES", 0)
    keys = closure(gens)
    assert dense_closures == [7]
    assert keys.rows.tobytes() == m.rows.tobytes()
    for g, row in zip(gens, dense):
        assert keys.right_translations([g])[0].tolist() == row.tolist()
    assert dense_lookups == [7]


# Two-letter groups of degree 8: A_8 (20,160 elements) and S_8 (40,320),
# whose right translations of 40,320 and 80,640 products are past the
# number map's switch at the closure's price, and short of its own.  The
# map's 64 MiB of fresh pages cost about 10 ms a lookup, the search 2-3 ms.
DEGREE_8_GROUPS = {
    "A8": [Transformation((8, 1, 6, 5, 2, 3, 4, 7)), Transformation((8, 7, 4, 3, 2, 5, 1, 6))],
    "S8": [Transformation((2, 3, 4, 5, 6, 7, 8, 1)), Transformation((1, 3, 4, 5, 6, 7, 8, 2))],
}


@pytest.mark.parametrize("name, size", [("A8", 20_160), ("S8", 40_320)])
def test_degree_8_groups_search_their_codes(name, size, dense_closures, dense_lookups, monkeypatch):
    gens = DEGREE_8_GROUPS[name]
    m = closure(gens)
    assert m._on_codes and len(m) == size and dense_closures == [8]
    assert 2 * size > monoid._DENSE_WIDTH + 4 * 8**8 // monoid._DENSE_SPREAD
    d = dfa_based_on(gens)
    searched = root_automaton(d, monoid=m).dfa
    assert dense_lookups == []
    monkeypatch.setattr(monoid, "_NUMBER_SPREAD", monoid._DENSE_SPREAD)
    assert root_automaton(d, monoid=m).dfa == searched
    assert dense_lookups == [8]


def test_cap_on_the_dense_path(dense_closures):
    gens = tn_generators(5)
    assert len(closure(gens, max_elements=3125)) == 3125
    with pytest.raises(ClosureBudgetError, match="cap of 3124 elements"):
        closure(gens, max_elements=3124)
    assert dense_closures == [5, 5]


def test_closure_wide_from_its_first_level(dense_closures, monkeypatch):
    # 514 distinct generators of degree 5 make level 0 wider than
    # 512 + 5^5 // 2048 products, so the map starts from the identity alone.
    # Maps of rank at most 3 close to a proper submonoid of T_5.
    maps = [f for f in itertools.product(range(1, 6), repeat=5) if len(set(f)) <= 3]
    gens = random.Random(5).sample(maps, 514)
    assert len(gens) > monoid._DENSE_WIDTH + 5**5 // monoid._DENSE_SPREAD
    m = closure(gens)
    assert dense_closures == [5]
    with pytest.raises(ClosureBudgetError, match=f"cap of {len(m) - 1} elements"):
        closure(gens, max_elements=len(m) - 1)
    assert closure(gens, max_elements=len(m)).rows.tobytes() == m.rows.tobytes()
    assert dense_closures == [5, 5, 5]
    monkeypatch.setattr(monoid, "_DENSE_BYTES", 0)
    assert closure(gens).rows.tobytes() == m.rows.tobytes()
    assert dense_closures == [5, 5, 5]


def test_dense_translation_of_a_monoid_missing_a_product(dense_lookups):
    m = closure(ukl_generators(2, 3))
    with pytest.raises(ValueError, match="not closed"):
        m.right_translations([Transformation((3, 2, 1, 4, 5))])
    assert dense_lookups == [5]
    with pytest.raises(ValueError, match="not closed"):
        root_automaton(dfa_based_on(tn_generators(5)), monoid=m)
