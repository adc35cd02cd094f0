import random
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import strategies as st

from regroot import Dfa, Transformation, dfa


def transformations(degree: int) -> st.SearchStrategy[Transformation]:
    return st.lists(
        st.integers(1, degree), min_size=degree, max_size=degree
    ).map(Transformation)


@st.composite
def same_degree_triples(draw, max_degree=7):
    n = draw(st.integers(1, max_degree))
    return tuple(draw(transformations(n)) for _ in range(3))


@st.composite
def small_dfas(draw, max_states=5, max_letters=3):
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    alphabet = tuple("abcd"[:k])
    delta = tuple(
        tuple(draw(st.integers(1, n)) for _ in range(n)) for _ in range(k)
    )
    start = draw(st.integers(1, n))
    finals = frozenset(q for q in range(1, n + 1) if draw(st.booleans()))
    return Dfa(n, alphabet, delta, start, finals)


@contextmanager
def spy_refinements():
    # The two refinements of minimize, on arrays (_partition) and on lists
    # (_minimize_few), spied while the block runs.
    with (
        patch.object(dfa, "_partition", wraps=dfa._partition) as arrays,
        patch.object(dfa, "_minimize_few", wraps=dfa._minimize_few) as lists,
    ):
        yield arrays, lists


def random_dfa(n, letters, seed):
    rng = random.Random(seed)
    delta = [[rng.randint(1, n) for _ in range(n)] for _ in range(letters)]
    return Dfa(n, tuple("abc"[:letters]), delta, 1, ())


def counter_dfa(n, period):
    # a walks a path into a loop of `period` states, b goes back to the
    # start; the walk from the start is n - 1 levels deep.
    a = tuple(range(2, n + 1)) + (n - period + 1,)
    return Dfa(n, ("a", "b"), (a, (1,) * n), 1, range(period, n + 1, period))


EXAMPLE_DFA_TEXT = """\
# five points, double cycle against a collapsing map
states 5
alphabet a b
start 1
finals 1
trans a 2 1 4 5 3
trans b 2 3 4 1 2
"""


@pytest.fixture
def example_dfa():
    from regroot import parse

    return parse(EXAMPLE_DFA_TEXT)
