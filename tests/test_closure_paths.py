"""closure on both of its paths against a plain-Python reference.

closure runs its narrow levels on a set of packed rows and, from the first
level wide enough for the dense map (n <= 8), the rest on base-n codes,
each level two table gathers per generator.  Patched, the crossover
constants force the code path from the first level or forbid it, so every
case below runs on both paths.

A monoid built on the code path keeps its codes for its whole life: its
size, lookups, right translations and rank histogram read them, and each
read of its rows decodes them anew.  The tests below hold such a monoid
against the same monoid built on rows.
"""

import math
import random
import re
from collections import Counter, deque
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroot import (
    ClosureBudgetError,
    Transformation,
    closure,
    counting,
    dfa_based_on,
    identity,
    monoid,
    root_automaton,
    stirling2,
    tn_generators,
    ukl_generators,
)

from conftest import transformations

PATHS = ["codes", "keys"]
CAP = 2_000


@contextmanager
def on_path(path: str):
    # The code path forced from the first level, or forbidden; the code
    # tables spied to tell which path ran.
    with ExitStack() as stack:
        if path == "codes":
            stack.enter_context(patch.object(monoid, "_DENSE_WIDTH", -1))
            stack.enter_context(patch.object(monoid, "_DENSE_SPREAD", 10**18))
            stack.enter_context(patch.object(monoid, "_NUMBER_SPREAD", 10**18))
        else:
            stack.enter_context(patch.object(monoid, "_DENSE_BYTES", 0))
        yield stack.enter_context(patch.object(monoid, "_halves", wraps=monoid._halves))


def closure_on(path: str, gens, cap: int = monoid.DEFAULT_MAX_ELEMENTS):
    with on_path(path) as halves:
        m = closure(gens, max_elements=cap)
    assert halves.called == (path == "codes")
    return m


def reference_closure(gens, cap: int) -> list[Transformation] | None:
    # Breadth-first search over Transformation products, in canonical
    # order: the identity, then the rest sorted.  None past the cap.
    ident = identity(len(gens[0]))
    seen = {ident}
    queue = deque([ident])
    while queue:
        f = queue.popleft()
        for g in gens:
            h = f * g
            if h not in seen:
                seen.add(h)
                queue.append(h)
        if len(seen) > cap:
            return None
    seen.discard(ident)
    return [ident] + sorted(seen, key=tuple)


@st.composite
def generator_sets(draw):
    # 1 to 3 maps of one degree 1..8; about half of them map into a few
    # points, so that degrees 7 and 8 also give monoids under the cap.
    n = draw(st.integers(1, 8))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            gens.append(draw(transformations(n)))
        else:
            image = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
            gens.append(Transformation(draw(st.lists(st.sampled_from(image), min_size=n, max_size=n))))
    return gens


@given(gens=generator_sets())
@settings(max_examples=200, deadline=None)
def test_both_paths_against_the_reference(gens):
    want = reference_closure(gens, CAP)
    if want is None:
        for path in PATHS:
            with pytest.raises(ClosureBudgetError, match=f"cap of {CAP} elements"):
                closure_on(path, gens, CAP)
        return
    want = np.array(want, np.uint8).reshape(len(want), len(gens[0]))
    for path in PATHS:
        assert closure_on(path, gens, CAP).rows.tobytes() == want.tobytes(), path


def code(row) -> int:
    n = len(row)
    return sum((v - 1) * n ** (n - 1 - i) for i, v in enumerate(row))


def check_tables(g: Transformation, fs: list[Transformation]):
    # The codes of f * g from g's code tables, against the products.
    n = len(g)
    got = monoid._products(np.array([code(f) for f in fs], np.int32), [monoid._halves(monoid._table(g), n)], n)
    assert got.tolist() == [code(f * g) for f in fs]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_code_tables_on_every_map(n):
    maps = [Transformation(monoid._decode(np.array([c]), n)[0].tolist()) for c in range(n**n)]
    for g in maps:
        check_tables(g, maps)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_code_tables_on_samples(n):
    rng = random.Random(n)
    for _ in range(20):
        g = Transformation([rng.randint(1, n) for _ in range(n)])
        check_tables(g, [Transformation([rng.randint(1, n) for _ in range(n)]) for _ in range(500)])


def test_decode_inverts_the_codes():
    # Every digit boundary n^k - 1, n^k of the shared digit loop, and a sample.
    for n in range(1, 9):
        edges = {c for k in range(1, n) for c in (n**k - 1, n**k)}
        codes = np.array(sorted({0, n**n - 1} | edges | set(random.Random(n).sample(range(n**n), min(n**n, 1000)))))
        rows = monoid._decode(codes, n)
        assert [code(row) for row in rows.tolist()] == codes.tolist()
        assert monoid._codes(rows).tolist() == codes.tolist()


# T_4, U_{2,3} and the cyclic group of an 8-cycle: degrees 4, 5 and 8.
CAPPED = [tn_generators(4), list(ukl_generators(2, 3)), [Transformation([2, 3, 4, 5, 6, 7, 8, 1])]]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("gens", CAPPED, ids=["T4", "U23", "C8"])
def test_cap_at_its_boundary(path, gens):
    size = len(reference_closure(gens, 10**6))
    assert len(closure_on(path, gens, size)) == size
    with pytest.raises(ClosureBudgetError, match=f"cap of {size - 1} elements"):
        closure_on(path, gens, size - 1)


def random_generators(rng: random.Random, n: int) -> list[Transformation]:
    # 1 to 3 maps of degree n: a permutation, or a map into 1 to n of the points.
    gens = []
    for _ in range(rng.randint(1, 3)):
        image = rng.sample(range(1, n + 1), rng.randint(1, n))
        row = rng.sample(range(1, n + 1), n) if rng.random() < 0.4 else [rng.choice(image) for _ in range(n)]
        gens.append(Transformation(row))
    return gens


def seeded_pair(seed: int):
    # A generator set of degree 2..8, seed by seed, redrawn until its monoid
    # has at least min(n^n / 2, 100) elements and at most CAP, and that monoid
    # built on codes and on rows.
    rng = random.Random(seed)
    n = 2 + seed % 7
    while True:
        gens = random_generators(rng, n)
        try:
            rows = closure_on("keys", gens, CAP)
        except ClosureBudgetError:
            continue
        if len(rows) >= min(n**n // 2, 100):
            return gens, closure_on("codes", gens, CAP), rows


def ranks_by_rows(m) -> dict[int, int]:
    # The rank histogram of m counted row by row in Python, ranks ascending.
    return dict(sorted(Counter(len(set(row)) for row in m).items()))


# Lookups on the dense number map alone, or on the codes and keys alone.
LOOKUPS = {
    "map": {"_DENSE_WIDTH": -1, "_DENSE_SPREAD": 10**18, "_NUMBER_SPREAD": 10**18},
    "search": {"_DENSE_BYTES": 0},
}


@pytest.mark.parametrize("lookups", LOOKUPS)
@pytest.mark.parametrize("seed", range(21))
def test_coded_monoid_against_rows(seed, lookups):
    gens, coded, rows = seeded_pair(seed)
    n = rows.degree
    assert coded._on_codes and not rows._on_codes
    rng = random.Random(-seed)
    strangers = [tuple(rng.randint(0, n + 1) for _ in range(n)) for _ in range(50)] + [(1,) * (n + 1)]
    strangers = [f for f in strangers if f not in set(rows)]
    loose = []  # maps under which the monoid is not closed
    for _ in range(20):
        g = Transformation([rng.randint(1, n) for _ in range(n)])
        if any(tuple(Transformation(f) * g) not in rows for f in rows):
            loose.append(g)
    d = dfa_based_on(gens)
    with patch.multiple(monoid, **LOOKUPS[lookups]):
        for m in (coded, rows, coded):  # coded twice: before and after its rows are read
            assert len(m) == len(rows)
            assert m.rank_histogram() == rows.rank_histogram() == ranks_by_rows(rows)
            for i, f in enumerate(rows):
                assert f in m and m.index_of(f) == i
                assert m.element(i) == rows.element(i)
            for f in strangers:
                assert f not in m
                with pytest.raises(ValueError, match="not an element"):
                    m.index_of(f)
            for g in gens:
                assert m.right_translations([g]).tolist() == rows.right_translations([g]).tolist()
            for g in loose:
                with pytest.raises(ValueError, match="not closed"):
                    m.right_translations([g])
            table = m.right_translations(gens)
            assert table.tolist() == [m.right_translations([g])[0].tolist() for g in gens]
            assert table.tolist() == rows.right_translations(gens).tolist()
            if loose:
                with pytest.raises(ValueError, match=re.escape(f"by {tuple(loose[0])}")):
                    m.right_translations([*gens, *loose, *gens])
            with pytest.raises(ValueError, match="need at least one map"):
                m.right_translations([])
            with pytest.raises(ValueError, match="degree mismatch"):
                m.right_translations([gens[0], identity(n + 1)])
            assert root_automaton(d, monoid=m).dfa == root_automaton(d, monoid=rows).dfa
            assert set(vars(m)) == {"degree", "_store", "_on_codes"}
            assert m._on_codes == (m is coded)
            assert list(m) == list(rows)
            assert m.rows.tobytes() == rows.rows.tobytes()
            assert m._on_codes == (m is coded) and not m.rows.flags.writeable


def test_coded_monoid_decodes_no_element():
    # Counting U_{2,5}, its ranks, element(i) and index_of decode no code of
    # the monoid, only code tables of at most 7^4 codes; its root automaton
    # decodes the monoid once, for the finals, a block of _RANK_BLOCK codes
    # at a time, and leaves it coded.
    gens = ukl_generators(2, 5)
    m = closure(gens)
    with patch.object(monoid, "_decode", wraps=monoid._decode) as spy:
        assert len(closure(gens)) == len(m) == 610_871
        assert m.rank_histogram() == counting._ukl_terms(2, 5)
        assert m.index_of(m.element(300_000)) == 300_000
        tables = spy.call_count
        ra = root_automaton(dfa_based_on(gens), monoid=m)
    assert ra.monoid is m and ra.dfa.n == len(m) and m._on_codes
    decoded = [call.args[0] for call in spy.call_args_list]
    assert all(len(codes) <= 7**4 and not np.shares_memory(codes, m._store) for codes in decoded[:tables])
    blocks = [codes for codes in decoded[tables:] if np.shares_memory(codes, m._store)]
    assert all(len(codes) <= 7**4 for codes in decoded[tables:] if not np.shares_memory(codes, m._store))
    assert [len(codes) for codes in blocks] == [min(monoid._RANK_BLOCK, len(m) - s) for s in range(0, len(m), monoid._RANK_BLOCK)]
    assert np.array_equal(np.concatenate(blocks), m._store)


# The rank histogram of a coded monoid, whose rows stay undecoded, ranks
# ascending as the CLI prints them; the random monoids above hold it against
# the row sort.
@pytest.mark.parametrize("n", range(1, 8))
def test_ranks_of_the_full_monoid_on_codes(n):
    # A map of rank r: choose its image, then a surjection onto it.
    m = closure_on("codes", tn_generators(n))
    got = m.rank_histogram()
    assert m._on_codes and list(got) == sorted(got)
    assert got == {r: math.comb(n, r) * math.factorial(r) * stirling2(n, r) for r in range(1, n + 1)}


@pytest.mark.parametrize("k, l", [(k, l) for k in range(2, 6) for l in range(2, 8 - k) if math.gcd(k, l) == 1])
def test_ranks_of_ukl_on_codes(k, l):
    m = closure_on("codes", ukl_generators(k, l))
    got = m.rank_histogram()
    assert m._on_codes and list(got) == sorted(got)
    assert got == counting._ukl_terms(k, l)


@pytest.mark.parametrize("n", [9, 10, 255])
def test_no_degree_past_8_reaches_the_codes(n):
    # Closure's bool map of degree 9, 9^9 bytes, is past the memory budget
    # of _DENSE_BYTES as shipped: no closure of degree 9 or more goes onto
    # codes, however wide its levels.
    assert not any(monoid._dense_pays(n, p, 1) for p in [10**k for k in range(13)])


@pytest.mark.parametrize("n", [8, 9, 10, 11, 255])
def test_no_budget_puts_degree_10_on_the_codes(n):
    # Degree 9 is the last whose codes an int32 holds: with every map within
    # the budget and any pass wide enough, degree 10 and up still keep keys.
    with patch.multiple(monoid, _DENSE_WIDTH=-1, _DENSE_SPREAD=10**1000, _NUMBER_SPREAD=10**1000, _DENSE_BYTES=10**1000):
        for p in (0, 10**6):
            for b in (1, 4):
                assert monoid._dense_pays(n, p, b) == (n <= 9)


@pytest.mark.parametrize("code_bytes, spread", [(1, "_DENSE_SPREAD"), (4, "_NUMBER_SPREAD")])
@pytest.mark.parametrize("n", range(1, 11))
def test_as_shipped_both_maps_run_up_to_degree_8(n, code_bytes, spread):
    # Each map fits _DENSE_BYTES as shipped up to n = 8, the int32 number map
    # too (4 * 8^8 bytes), so closure and lookups switch at the same degrees,
    # each map at its own price.
    edge = monoid._DENSE_WIDTH + code_bytes * n**n // getattr(monoid, spread)
    for p in (edge - 1, edge, edge + 1):
        assert monoid._dense_pays(n, p, code_bytes) == (n <= 8 and p > edge)
