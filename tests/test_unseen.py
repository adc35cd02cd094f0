"""dfa._unseen, the filter of closure's and the first-reach walk's levels.

_unseen(values, seen) selects values[~seen[values]] by index, _RANK_BLOCK
values at a time, and moves them to the front of values.  The block is
patched down to 7 so that short inputs run several blocks, and one closure
and one minimize run through it so.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regroot import dfa, dfa_based_on, monoid, root_automaton, ukl_generators
from regroot.dfa import _unseen

from test_closure_paths import closure_on
from test_minimize_reference import check
from test_root_reference import reference_closure


@st.composite
def values_and_maps(draw):
    size = draw(st.integers(1, 60))
    dtype = draw(st.sampled_from([np.int32, np.intp]))
    values = np.array(draw(st.lists(st.integers(0, size - 1), max_size=100)), dtype=dtype)
    fill = draw(st.sampled_from(["none", "all", "some"]))
    if fill == "some":
        seen = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    else:
        seen = np.full(size, fill == "all")
    return values, seen


@given(values_and_maps(), st.sampled_from([7, 1 << 16]))
@example((np.empty(0, np.int32), np.zeros(5, bool)), 7)
@example((np.empty(0, np.int32), np.ones(5, bool)), 1 << 16)
@settings(max_examples=300)
def test_unseen_selects_what_a_boolean_index_does(values_seen, block):
    # The kept values in order, at the front of values, and the rest of
    # values and all of seen as they were.
    values, seen = values_seen
    want, before, unread = values[~seen[values]], seen.copy(), values.copy()
    with patch.object(dfa, "_RANK_BLOCK", block):
        got = _unseen(values, seen)
    assert got.dtype == values.dtype
    assert got.tolist() == want.tolist()
    assert got.size == 0 or np.shares_memory(got, values)
    assert values[len(got) :].tolist() == unread[len(got) :].tolist()
    assert np.array_equal(seen, before)


def test_closure_on_codes_in_short_blocks():
    # U_{2,3}'s levels on codes are hundreds of products, so each is
    # filtered in many blocks of 7.
    gens = ukl_generators(2, 3)
    with patch.object(dfa, "_RANK_BLOCK", 7), patch.object(monoid, "_unseen", wraps=_unseen) as spy:
        m = closure_on("codes", gens)
    assert spy.call_count and max(len(call.args[0]) for call in spy.call_args_list) > 7
    assert list(m) == reference_closure(gens)


def test_minimize_reference_in_short_blocks():
    # The root DFA of U_{2,3} has levels of up to 263 states, each walked
    # by a numpy pass whose successors are filtered in blocks of 7.
    d = root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa
    with patch.object(dfa, "_RANK_BLOCK", 7), patch.object(dfa, "_unseen", wraps=_unseen) as spy:
        check(d)
    assert spy.call_count and max(len(call.args[0]) for call in spy.call_args_list) > 7
