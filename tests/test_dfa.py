import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regroot import (
    Dfa,
    DfaParseError,
    accepts,
    dfa,
    dfa_based_on,
    equivalent,
    identity,
    minimize,
    nerode_partition,
    parse,
    root_automaton,
    serialize,
    ukl_generators,
    unary_structure,
    word_transformation,
)
from regroot.dfa import _KEY_LIMIT, _PASS_READS, _dense_rank, _first_index, _reachable

from conftest import EXAMPLE_DFA_TEXT, counter_dfa, random_dfa, small_dfas


def chain_dfa(tail, loop, finals):
    m = tail + loop
    row = tuple(i + 2 for i in range(m - 1)) + (tail + 1,)
    return Dfa(m, ("a",), (row,), 1, frozenset(finals))


def single_word_dfa(n):
    # n states for the one-word language a^(n-2)
    return chain_dfa(n - 1, 1, {n - 1})


class TestParse:
    def test_example_file(self, example_dfa):
        d = example_dfa
        assert d.n == 5
        assert d.alphabet == ("a", "b")
        assert d.start == 1
        assert d.finals.tolist() == [1]
        assert d.delta[0].tolist() == [2, 1, 4, 5, 3]
        assert d.delta[1].tolist() == [2, 3, 4, 1, 2]

    def test_round_trip(self, example_dfa):
        assert parse(serialize(example_dfa)) == example_dfa

    @given(small_dfas(max_states=8))
    def test_round_trip_is_equal_with_an_equal_hash(self, d):
        back = parse(serialize(d))
        assert back == d and hash(back) == hash(d)

    def test_round_trip_through_the_digit_matrix(self):
        # Rows of 1..2,000 states, with 1- to 4-digit states in one row,
        # are written by the digit matrix and read back unchanged.
        d = replace(random_dfa(2_000, 2, seed=5), finals=range(1, 2_001, 7))
        text = serialize(d)
        assert parse(text) == d
        assert text.splitlines()[3] == "finals " + " ".join(str(q) for q in range(1, 2_001, 7))

    def test_round_trip_ignores_comments_and_blanks(self, example_dfa):
        assert serialize(parse(EXAMPLE_DFA_TEXT)) == serialize(example_dfa)

    def test_accepts_bytes(self, example_dfa):
        assert parse(EXAMPLE_DFA_TEXT.encode()) == example_dfa

    def test_state_out_of_range(self):
        text = EXAMPLE_DFA_TEXT.replace("trans a 2 1 4 5 3", "trans a 2 1 4 5 6")
        with pytest.raises(DfaParseError, match=r"state 6 out of range"):
            parse(text)

    def test_error_carries_line_number(self):
        text = EXAMPLE_DFA_TEXT.replace("trans a 2 1 4 5 3", "trans a 2 1 4 5 6")
        with pytest.raises(DfaParseError, match=r"line 6"):
            parse(text)

    def test_duplicate_letter(self):
        with pytest.raises(DfaParseError, match="duplicate letter"):
            parse("states 1\nalphabet a a\nstart 1\nfinals\ntrans a 1\n")

    def test_duplicate_trans(self):
        with pytest.raises(DfaParseError, match="duplicate 'trans'"):
            parse("states 1\nalphabet a\nstart 1\nfinals\ntrans a 1\ntrans a 1\n")

    def test_missing_sections(self):
        with pytest.raises(DfaParseError, match="missing 'states'"):
            parse("alphabet a\nstart 1\nfinals\ntrans a 1\n")
        with pytest.raises(DfaParseError, match="missing 'trans' line for letter 'b'"):
            parse("states 1\nalphabet a b\nstart 1\nfinals\ntrans a 1\n")

    def test_wrong_arity(self):
        with pytest.raises(DfaParseError, match="expected 2 successors"):
            parse("states 2\nalphabet a\nstart 1\nfinals\ntrans a 1\n")

    def test_junk_keyword_and_non_integer(self):
        with pytest.raises(DfaParseError, match="unknown keyword"):
            parse("states 1\nbogus x\n")
        with pytest.raises(DfaParseError, match="expected an integer"):
            parse("states one\n")

    @pytest.mark.parametrize("letter", ["x_1", "+", "\u03b1", "\uff11"])
    def test_any_letter_round_trips(self, letter):
        # Only the integer tokens of a line are held to ASCII digits.
        d = Dfa(2, (letter, "b"), [[2, 1], [1, 1]], 2, [1])
        assert parse(serialize(d)) == d

    def test_the_message_names_the_token_and_the_line(self):
        with pytest.raises(DfaParseError, match=r"^line 5: expected an integer in ASCII digits, got '0_2'$"):
            parse("states 2\nalphabet a\nstart 1\nfinals 2\ntrans a 0_2 1\n")

    def test_empty_finals_allowed(self):
        d = parse("states 1\nalphabet a\nstart 1\nfinals\ntrans a 1\n")
        assert d.finals.tolist() == []
        assert parse(serialize(d)) == d


SMALL_TEXT = "states 2\nalphabet a\nstart 1\nfinals 2\ntrans a 2 1\n"


def _edited(old, new):
    assert old in SMALL_TEXT
    return SMALL_TEXT.replace(old, new)


# Each input error of parse: the text, a piece of the message and the line
# number the error carries, None where no single line is at fault.
PARSE_ERRORS = {
    "second-states": (SMALL_TEXT + "states 2\n", "duplicate 'states' line", 6),
    "second-alphabet": (SMALL_TEXT + "alphabet a\n", "duplicate 'alphabet' line", 6),
    "second-start": (SMALL_TEXT + "start 1\n", "duplicate 'start' line", 6),
    "second-finals": (SMALL_TEXT + "finals 1\n", "duplicate 'finals' line", 6),
    "states-two-tokens": (_edited("states 2", "states 2 3"), "'states' expects one integer", 1),
    "start-two-tokens": (_edited("start 1", "start 1 2"), "'start' expects one integer", 3),
    "states-zero": ("states 0\n", "state count 0 must be positive", 1),
    "empty-alphabet": (_edited("alphabet a", "alphabet"), "'alphabet' expects at least one letter", 2),
    "bare-trans": (SMALL_TEXT + "trans\n", "'trans' expects a letter and successor states", 6),
    "missing-alphabet": (_edited("alphabet a\n", ""), "missing 'alphabet' line", None),
    "missing-start": (_edited("start 1\n", ""), "missing 'start' line", None),
    "missing-finals": (_edited("finals 2\n", ""), "missing 'finals' line", None),
    "letter-not-in-alphabet": (SMALL_TEXT + "trans b 1 1\n", "letter 'b' not in alphabet", 6),
    "start-out-of-range": (_edited("start 1", "start 3"), "state 3 out of range 1..2", None),
    "final-out-of-range": (_edited("finals 2", "finals 2 4"), "state 4 out of range 1..2", None),
    # int() takes each of these, but serialize never writes them.
    "full-width-digit": (_edited("start 1", "start \uff11"), "got '\uff11'", 3),
    "arabic-indic-digit": (_edited("trans a 2 1", "trans a 2 \u0661"), "got '\u0661'", 5),
    "underscore": (_edited("finals 2", "finals 0_2"), "got '0_2'", 4),
    "plus-sign": (_edited("trans a 2 1", "trans a +2 1"), "got '+2'", 5),
    "plus-count": (_edited("states 2", "states +2"), "got '+2'", 1),
    # Nor does int() take these.
    "inner-minus": (_edited("trans a 2 1", "trans a 2 1-1"), "got '1-1'", 5),
    "lone-minus": (_edited("finals 2", "finals -"), "got '-'", 4),
    "double-minus": (_edited("trans a 2 1", "trans a --2 1"), "got '--2'", 5),
    # A leading minus is read, so a negative state is out of range.
    "negative-state": (_edited("trans a 2 1", "trans a -1 1"), "state -1 out of range 1..2", 5),
    "negative-count": (_edited("states 2", "states -1"), "state count -1 must be positive", 1),
    # A letter may hold any character; the states after it may not.
    "digit-after-odd-letter": (
        "states 2\nalphabet x_+ y\nstart 1\nfinals 2\ntrans x_+ 2 1\ntrans y 1 \uff12\n",
        "got '\uff12'",
        6,
    ),
}


@pytest.mark.parametrize("text, message, line", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_input_errors(text, message, line):
    with pytest.raises(DfaParseError) as info:
        parse(text)
    assert message in str(info.value)
    assert info.value.line == line


# Each input error of the Dfa constructor, with a piece of its message.
DFA_ERRORS = {
    "no-states": ((0, ("a",), ((),), 1, ()), "a DFA needs at least one state"),
    "empty-alphabet": ((1, (), (), 1, ()), "alphabet must not be empty"),
    "letter-of-two-tokens": ((1, ("a b",), ((1,),), 1, ()), "letter 'a b' is not a single token"),
    "empty-letter": ((1, ("",), ((1,),), 1, ()), "letter '' is not a single token"),
    "int-letter": ((2, (1,), [[2, 1]], 1, []), "letter 1 is not a single token"),
    "none-letter": ((2, (None,), [[2, 1]], 1, []), "letter None is not a single token"),
    "bytes-letter": ((2, ("a", b"b"), [[2, 1], [1, 2]], 1, []), "letter b'b' is not a single token"),
    "too-few-rows": ((1, ("a", "b"), ((1,),), 1, ()), "need exactly one transition row per letter"),
    "short-row": ((2, ("a",), ((1,),), 1, ()), "transition row for 'a' has 1 entries, expected 2"),
}


@pytest.mark.parametrize("args, message", DFA_ERRORS.values(), ids=DFA_ERRORS)
def test_dfa_input_errors(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Dfa(*args)


def test_word_transformation_refuses_degrees_over_255():
    d = Dfa(256, ("a",), (tuple(range(1, 257)),), 1, ())
    with pytest.raises(ValueError, match="degree 256 exceed.* supported maximum 255"):
        word_transformation(d, "a")


@given(small_dfas())
def test_serialize_parse_round_trip(d):
    assert parse(serialize(d)) == d


class TestRun:
    def test_empty_word_is_identity(self, example_dfa):
        assert word_transformation(example_dfa, "") == identity(5)

    def test_word_ab(self, example_dfa):
        assert word_transformation(example_dfa, "ab") == (3, 2, 1, 2, 4)

    def test_single_letter(self, example_dfa):
        assert word_transformation(example_dfa, "a") == (2, 1, 4, 5, 3)

    def test_unknown_letter(self, example_dfa):
        with pytest.raises(ValueError, match="unknown letter"):
            word_transformation(example_dfa, "ax")
        with pytest.raises(ValueError, match="unknown letter"):
            accepts(example_dfa, "q")

    def test_accepts(self, example_dfa):
        assert accepts(example_dfa, "aa")
        assert accepts(example_dfa, "")
        assert not accepts(example_dfa, "b")
        assert not accepts(example_dfa, "a")

    @given(small_dfas())
    def test_word_map_is_a_morphism(self, d):
        w1 = d.alphabet * 2
        u = word_transformation(d, w1)
        for a in d.alphabet:
            assert word_transformation(d, tuple(w1) + (a,)) == u * word_transformation(d, (a,))

    @given(small_dfas())
    def test_acceptance_matches_word_map(self, d):
        for w in [(), d.alphabet[:1] * 3, d.alphabet]:
            f = word_transformation(d, w)
            assert accepts(d, w) == (f(d.start) in d.finals)


class TestMinimize:
    def test_single_word_chain_is_already_minimal(self):
        for n in range(2, 9):
            assert minimize(single_word_dfa(n)).n == n

    def test_idempotent(self, example_dfa):
        m = minimize(example_dfa)
        assert minimize(m) == m

    def test_all_final_self_loops_collapse(self):
        d = Dfa(2, ("a",), ((1, 2),), 1, frozenset({1, 2}))
        assert minimize(d).n == 1

    def test_unreachable_states_are_dropped(self):
        # state 3 is unreachable and would otherwise split the partition
        d = Dfa(3, ("a",), ((2, 1, 3),), 1, frozenset({3}))
        m = minimize(d)
        assert m.n == 1
        assert m.finals.tolist() == []

    def test_empty_language_minimizes_to_sink(self):
        d = Dfa(4, ("a", "b"), ((2, 3, 4, 1), (3, 4, 1, 2)), 1, frozenset())
        assert minimize(d).n == 1

    @pytest.mark.parametrize("final", [True, False])
    def test_one_class_ends_the_refinement_after_the_signature_pass(self, final):
        # Every state final, or none: P_0 is the Nerode partition, so the
        # signature pass makes the only rank and no round keys a state.
        d = random_dfa(2 * dfa._FEW, 2, seed=5)
        d = replace(d, finals=range(1, d.n + 1) if final else ())
        assert sum(map(len, _reachable(d))) >= dfa._FEW
        with patch.object(dfa, "_dense_rank", wraps=dfa._dense_rank) as spy:
            m = minimize(d)
        assert m.n == 1 and m.finals.tolist() == ([1] if final else [])
        assert spy.call_count == 1

    @given(small_dfas())
    @settings(max_examples=60)
    def test_minimization_preserves_language(self, d):
        assert equivalent(d, minimize(d))

    @given(small_dfas())
    @settings(max_examples=60)
    def test_minimal_form_is_canonical(self, d):
        m = minimize(d)
        assert minimize(m) == m

    @given(small_dfas(), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_relabelled_states_minimize_alike(self, d, rng):
        perm = list(range(1, d.n + 1))
        rng.shuffle(perm)
        new = {q: perm[q - 1] for q in range(1, d.n + 1)}
        old = {p: q for q, p in new.items()}
        delta = tuple(tuple(new[row[old[p] - 1]] for p in range(1, d.n + 1)) for row in d.delta)
        relabelled = Dfa(d.n, d.alphabet, delta, new[d.start], frozenset(new[q] for q in d.finals))
        assert minimize(relabelled) == minimize(d)

    @given(small_dfas())
    @settings(max_examples=60)
    def test_class_count_is_the_minimal_size(self, d):
        _, cls = nerode_partition(d)
        assert cls.max() + 1 == minimize(d).n


def bfs_order(d):
    # The plain scalar breadth-first walk, as in reference_minimize.
    order, seen = [d.start], {d.start}
    for q in order:
        for row in d.delta:
            if row[q - 1] not in seen:
                seen.add(row[q - 1])
                order.append(row[q - 1])
    return order


def walk(d):
    pieces = _reachable(d)
    return np.concatenate(pieces).tolist(), pieces


class TestReachLevels:
    @given(small_dfas(max_states=8), st.integers(0, 3), st.sampled_from([0, 1, 2, 5, _PASS_READS]))
    @settings(max_examples=300)
    def test_matches_the_scalar_walk(self, d, extra, reads):
        # States n+1..n+extra map to themselves and are never reached.  A
        # small width constant sends the levels of a small DFA through numpy.
        n = d.n + extra
        d = Dfa(n, d.alphabet, [tuple(row) + tuple(range(d.n + 1, n + 1)) for row in d.delta], d.start, ())
        with patch.object(dfa, "_PASS_READS", reads):
            assert walk(d)[0] == bfs_order(d)

    def test_u23_root_automaton_has_narrow_and_wide_levels(self):
        d = root_automaton(dfa_based_on(ukl_generators(2, 3))).dfa
        order, pieces = walk(d)
        assert order == bfs_order(d)
        assert {type(p) for p in pieces} == {list, np.ndarray}

    def test_random_dfa_above_the_threshold(self):
        d = random_dfa(3_000, 3, seed=8)
        order, pieces = walk(d)
        assert order == bfs_order(d)
        # All but the first few levels go through numpy.
        assert sum(len(p) for p in pieces if isinstance(p, np.ndarray)) > 0.9 * len(order)

    def test_deep_walk_stays_scalar(self):
        d = counter_dfa(20_000, 5)
        order, pieces = walk(d)
        assert order == bfs_order(d)
        assert len(pieces) == 1


@st.composite
def bounded_keys(draw):
    # int64 keys below a bound: a few values, many repeats, or keys just
    # under the largest bound that packs at this size, or one past it.
    size = draw(st.integers(0, 40))
    packs = _KEY_LIMIT >> size.bit_length()
    bound = draw(st.sampled_from([1, 3, size + 1, packs, packs + 1, _KEY_LIMIT]))
    low = draw(st.sampled_from([0, max(bound - 4, 0)]))
    keys = draw(st.lists(st.integers(low, bound - 1), min_size=size, max_size=size))
    return np.array(keys, dtype=np.int64), bound


# The largest bound under which five keys pack, and five keys just under it.
PACKS_FIVE = _KEY_LIMIT >> 3
UNDER = PACKS_FIVE - 1 - np.array([0, 2, 0, 1, 2])


class TestPackedSort:
    @given(bounded_keys())
    @settings(max_examples=300)
    @example((np.array([], dtype=np.int64), 1))
    @example((np.array([], dtype=np.int64), _KEY_LIMIT))
    @example((np.array([7], dtype=np.int64), 8))
    @example((np.zeros(9, dtype=np.int64), 1))
    @example((UNDER, PACKS_FIVE))
    @example((UNDER, PACKS_FIVE + 1))
    def test_matches_np_unique(self, case):
        key, bound = case
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        with patch.object(np, "argsort", wraps=np.argsort) as spy:
            assert _first_index(key, bound).tolist() == first.tolist()
            assert _dense_rank(key, bound).tolist() == inverse.tolist()
        # Packing is chosen from the bound alone.
        assert spy.called == (bound > _KEY_LIMIT >> key.size.bit_length())


class TestEquivalent:
    def test_renamed_states(self, example_dfa):
        # swap state names 2 and 3
        ren = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5}
        delta = tuple(
            tuple(ren[row[{1: 1, 2: 3, 3: 2, 4: 4, 5: 5}[q] - 1]] for q in range(1, 6))
            for row in example_dfa.delta
        )
        other = Dfa(5, example_dfa.alphabet, delta, 1, frozenset({1}))
        assert equivalent(example_dfa, other)

    def test_different_languages(self):
        d1 = single_word_dfa(3)  # {a}
        d2 = single_word_dfa(4)  # {aa}
        assert not equivalent(d1, d2)

    def test_alphabet_order_is_normalized(self, example_dfa):
        flipped = Dfa(
            5,
            ("b", "a"),
            (example_dfa.delta[1], example_dfa.delta[0]),
            1,
            frozenset({1}),
        )
        assert equivalent(example_dfa, flipped)

    def test_alphabet_mismatch(self, example_dfa):
        d = Dfa(1, ("c",), ((1,),), 1, frozenset())
        with pytest.raises(ValueError, match="alphabet mismatch"):
            equivalent(example_dfa, d)

    @pytest.mark.parametrize("swap", [False, True])
    def test_a_value_that_is_not_a_dfa(self, example_dfa, swap):
        pair = ("x", example_dfa) if swap else (example_dfa, "x")
        with pytest.raises(ValueError, match="equivalent compares two Dfa values"):
            equivalent(*pair)


class TestUnaryStructure:
    def test_tail_then_self_loop(self):
        assert unary_structure(single_word_dfa(4)) == (3, 1, 4)

    def test_pure_cycle(self):
        assert unary_structure(chain_dfa(0, 5, ())) == (0, 5, 1)

    def test_self_loop(self):
        assert unary_structure(chain_dfa(0, 1, ())) == (0, 1, 1)

    def test_requires_one_letter(self, example_dfa):
        with pytest.raises(ValueError):
            unary_structure(example_dfa)

    def test_ignores_unreachable_states(self):
        d = Dfa(4, ("a",), ((2, 1, 4, 3),), 1, frozenset())
        assert unary_structure(d) == (0, 2, 1)


def test_nerode_partition_blocks():
    # two interchangeable final states
    d = Dfa(3, ("a",), ((2, 3, 2),), 1, frozenset({2, 3}))
    states, cls = nerode_partition(d)
    assert states.tolist() == [1, 2, 3]
    assert cls.tolist() == [0, 1, 1]


@pytest.mark.parametrize("call", [minimize, nerode_partition, serialize])
@pytest.mark.parametrize("d", [None, "1 a\n", ((2, 1),)], ids=["None", "text", "rows"])
def test_anything_but_a_dfa_is_refused(call, d):
    with pytest.raises(ValueError, match=f"^{call.__name__} needs a Dfa, got {type(d).__name__}$"):
        call(d)


@pytest.mark.parametrize("call", [accepts, word_transformation])
@pytest.mark.parametrize("d", [None, "1 a\n", ((2, 1),)], ids=["None", "text", "rows"])
def test_anything_but_a_dfa_is_refused_with_a_word(call, d):
    with pytest.raises(ValueError, match=f"^{call.__name__} needs a Dfa, got {type(d).__name__}$"):
        call(d, "a")


@pytest.mark.parametrize("text", [5, None, ["states 1"]], ids=["int", "None", "list"])
def test_parse_refuses_anything_but_text(text):
    with pytest.raises(DfaParseError, match=f"^parse needs str, bytes or bytearray, got {type(text).__name__}$"):
        parse(text)


def test_validation_rejects_broken_tables():
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((1, 3),), 1, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a", "a"), ((1, 2), (1, 2)), 1, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((1, 2),), 3, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((1, 2),), 1, frozenset({5}))


class TestStatesAreIntegers:
    # Every state passes through operator.index: integer types are stored
    # as ints, and bools and floats are refused with a ValueError.
    def test_float_start_is_rejected(self):
        with pytest.raises(ValueError, match=r"start state 1\.0 is not an integer"):
            Dfa(2, ("a",), ((2, 1),), 1.0, frozenset())

    def test_bool_start_is_rejected(self):
        with pytest.raises(ValueError, match="start state True is not an integer"):
            Dfa(2, ("a",), ((2, 1),), True, frozenset())

    def test_bool_final_is_rejected(self):
        with pytest.raises(ValueError, match="state True is not an integer"):
            Dfa(2, ("a",), ((2, 1),), 1, frozenset({True}))

    def test_bool_successor_is_rejected(self):
        with pytest.raises(ValueError, match="state True is not an integer"):
            Dfa(2, ("a",), ((2, True),), 1, frozenset())

    def test_numpy_integers_are_stored_as_a_read_only_int32_array(self):
        d = Dfa(np.int64(2), ("a",), (np.array([2, 1]),), np.int64(1), {np.int64(2)})
        assert d == Dfa(2, ("a",), ((2, 1),), 1, frozenset({2}))
        assert {type(q) for q in (d.n, d.start)} == {int}
        assert d.delta.dtype == d.finals.dtype == np.int32
        assert not d.delta.flags.writeable and not d.finals.flags.writeable

    def test_writing_to_the_arrays_raises(self, example_dfa):
        # The example's arrays are built from lists, and its root
        # automaton's, of 1,857 states, from arrays.
        for d in (example_dfa, root_automaton(example_dfa).dfa):
            with pytest.raises(ValueError, match="read-only"):
                d.delta[0, 0] = 3
            with pytest.raises(ValueError, match="read-only"):
                d.finals[0] = 3

    @pytest.mark.parametrize("n", [2, 100])
    def test_the_callers_arrays_are_copied(self, n):
        delta, finals = np.array([[*range(2, n + 1), 1]]), np.arange(1, n + 1)
        d = Dfa(n, ("a",), delta, 1, finals)
        want = Dfa(n, ("a",), delta.tolist(), 1, finals.tolist())
        delta[0, 0], finals[0] = 1, 2
        assert d == want

    @pytest.mark.parametrize("finals", [
        [3, 1, 3], (3, 1, 3), np.array([3, 1, 3]), np.array([3, 1, 3], np.uint8), np.tile([3, 1, 3], 30),
    ])
    def test_finals_come_out_sorted_and_unique(self, finals):
        d = Dfa(3, ("a",), ((2, 3, 1),), 1, finals)
        assert d.finals.tolist() == [1, 3]
        assert d == Dfa(3, ("a",), ((2, 3, 1),), 1, {1, 3})

    @pytest.mark.parametrize("delta, message", [
        ([[2.0, 1.0]], r"state 2\.0 is not an integer"),
        ([[True, False]], "state True is not an integer"),
        ([[2, 3]], r"state 3 out of range 1\.\.2"),
        ([[2, 0]], r"state 0 out of range 1\.\.2"),
        ([[2, 1], [1, 2]], "need exactly one transition row per letter"),
        ([[2, 1, 1]], "transition row for 'a' has 3 entries, expected 2"),
    ])
    def test_arrays_are_refused_as_lists_are(self, delta, message):
        for given in (delta, np.array(delta)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Dfa(2, ("a",), given, 1, ())

    @pytest.mark.parametrize("bad, dtype, message", [
        (71, int, r"state 71 out of range 1\.\.70"),
        (0, int, r"state 0 out of range 1\.\.70"),
        (70, float, r"state 2\.0 is not an integer"),
    ])
    def test_big_arrays_are_refused_as_lists_are(self, bad, dtype, message):
        # 70 states, past the size where arrays are checked by min and max.
        row = np.array([*range(2, 71), bad], dtype)
        for given in ([row.tolist()], row[None]):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Dfa(70, ("a",), given, 1, ())
        for given in (row.tolist(), row):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Dfa(70, ("a",), [[*range(2, 71), 1]], 1, given)
        with pytest.raises(ValueError, match="^need exactly one transition row per letter$"):
            Dfa(70, ("a",), np.array([[*range(2, 71), 1]] * 2), 1, ())

    @pytest.mark.parametrize("finals, message", [
        ([2.0], r"state 2\.0 is not an integer"),
        ([True], "state True is not an integer"),
        ([1, 3], r"state 3 out of range 1\.\.2"),
    ])
    def test_final_arrays_are_refused_as_lists_are(self, finals, message):
        for given in (finals, np.array(finals)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Dfa(2, ("a",), ((2, 1),), 1, given)

    def test_numpy_integer_out_of_range_names_it(self):
        with pytest.raises(ValueError, match=r"start state 3 out of range 1\.\.2"):
            Dfa(2, ("a",), ((2, 1),), np.int64(3), frozenset())
