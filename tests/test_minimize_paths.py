"""minimize on both of its paths against the pure-Python reference.

minimize refines a DFA of at most dfa._LIST_LIMIT transitions on Python
lists (_minimize_few) and a larger one on arrays (_partition).  Patched to
0, the limit sends small DFAs to the array path; patched high, it sends
DFAs of up to 40 states to the list path.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroot import Dfa, dfa, dfa_based_on, minimize, root_automaton, ukl_generators
from regroot.dfa import chain_dfa

from conftest import spy_refinements
from test_minimize_reference import reference_minimize

HIGH = 10**9


def minimize_and_path(d: Dfa) -> tuple[Dfa, str]:
    # minimize(d), and the path that refined it, told by spying both.
    with spy_refinements() as (arrays, lists):
        out = minimize(d)
    assert lists.call_count + arrays.call_count == 1
    return out, "lists" if lists.call_count else "arrays"


def minimize_on(path: str, d: Dfa) -> Dfa:
    # minimize(d) with the limit patched to force one path.
    with patch.object(dfa, "_LIST_LIMIT", HIGH if path == "lists" else 0):
        out, taken = minimize_and_path(d)
    assert taken == path
    return out


@st.composite
def dfas(draw, max_states):
    # 1 to max_states states, 1 to 3 letters and random, empty or full
    # final sets, then up to 3 states that the start never reaches.
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, 3))
    extra = draw(st.integers(0, 3))
    total = n + extra
    delta = [[draw(st.integers(1, n)) for _ in range(n)] + [draw(st.integers(1, total)) for _ in range(extra)] for _ in range(k)]
    which = draw(st.sampled_from(["random", "empty", "full"]))
    if which == "random":
        finals = [q for q in range(1, total + 1) if draw(st.booleans())]
    else:
        finals = [] if which == "empty" else range(1, total + 1)
    return Dfa(total, tuple("abc"[:k]), delta, draw(st.integers(1, n)), finals)


@pytest.mark.parametrize("path", ["lists", "arrays"])
@given(d=dfas(max_states=40))
@settings(max_examples=300)
def test_each_path_against_the_reference(path, d):
    assert minimize_on(path, d) == reference_minimize(d)[0]


@pytest.mark.parametrize("path", ["lists", "arrays"])
@given(d=dfas(max_states=1))
def test_one_state(path, d):
    assert minimize_on(path, d) == reference_minimize(d)[0]


@pytest.mark.parametrize("path", ["lists", "arrays"])
@pytest.mark.parametrize("finals", [{40}, {20, 40}, set(), range(1, 41)])
def test_cycles_of_every_depth(path, finals):
    # The 40-cycle with one final state needs 38 Moore rounds.
    d = chain_dfa(0, 40, finals)
    assert minimize_on(path, d) == reference_minimize(d)[0]


def test_u23_root_automaton_on_lists():
    # 1,857 states, whose levels _reachable returns as lists and arrays,
    # refined on lists to the 1,847 states of the array path.
    d = root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa
    out = minimize_on("lists", d)
    assert out.n == 1847
    assert out == minimize_on("arrays", d)


@pytest.mark.parametrize("letters", [1, 2])
def test_the_limit_is_in_transitions(letters):
    # At the limit, n times letters, the list path refines; one state
    # more and the array path does.  Every letter walks the same cycle.
    n = dfa._LIST_LIMIT // letters
    for states, path in ((n, "lists"), (n + 1, "arrays")):
        row = chain_dfa(0, states, ()).delta[0]
        out, taken = minimize_and_path(Dfa(states, tuple("ab"[:letters]), [row] * letters, 1, [states]))
        assert (out.n, taken) == (states, path)
