"""closure on both of its paths against a plain-Python reference.

closure runs its narrow levels on a set of packed rows and, from the first
level wide enough for the dense map (n <= 8), the rest on base-n codes,
each level two table gathers per generator.  Patched, the crossover
constants force the code path from the first level or forbid it, so every
case below runs on both paths.
"""

import random
from collections import deque
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroot import ClosureBudgetError, Transformation, closure, identity, monoid, tn_generators, ukl_generators

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
    for n in range(1, 9):
        codes = np.array(sorted({0, n**n - 1} | set(random.Random(n).sample(range(n**n), min(n**n, 1000)))))
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
