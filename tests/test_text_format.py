"""The text format read and written on arrays, against the list paths.

serialize writes a row of _FEW or more states through _decimal's digit
matrix, and parse reads an ASCII line of _LONG_LINE or more characters
through _read_decimal.  Each is checked against the plain Python form:
str.join of str() for writing, str.split and int() for reading.
"""

import random
import sys
from unittest.mock import patch

import numpy as np
import pytest

from regroot import Dfa, DfaParseError, dfa, parse, serialize
from regroot.cli import main

from conftest import random_dfa
from test_dfa import PARSE_ERRORS

# The last state of each decimal width and the first of the next, up to the
# largest int32.
WIDTH_EDGES = [e for w in range(1, 10) for e in (10**w - 1, 10**w)] + [2**31 - 1]


def _joined(states):
    return " ".join(map(str, states.tolist()))


class TestDecimal:
    @pytest.mark.parametrize("edge", WIDTH_EDGES)
    def test_each_width_edge_against_join(self, edge):
        # The edge, its neighbours and small states, in a row long enough
        # for the digit matrix: every width from 1 to the edge's own.
        rng = random.Random(edge)
        states = [edge, edge - 1, 1, 9, 10] + [rng.randint(1, edge) for _ in range(dfa._FEW)]
        rng.shuffle(states)
        row = np.array(states, dtype=np.int32)
        assert dfa._decimal(row) == _joined(row)

    @pytest.mark.parametrize("size", [dfa._FEW - 1, dfa._FEW])
    def test_either_side_of_few(self, size):
        rng = np.random.default_rng(size)
        row = rng.integers(1, 2**31, size, dtype=np.int64).astype(np.int32)
        row[0] = 2**31 - 1
        assert dfa._decimal(row) == _joined(row)

    def test_empty_finals_with_a_big_delta(self):
        d = random_dfa(3 * dfa._FEW, 2, seed=7)
        text = serialize(d)
        assert "\nfinals\n" in text
        assert parse(text) == d

    def test_round_trip_across_five_and_six_digits(self):
        n = 100_050
        rng = np.random.default_rng(11)
        delta = rng.integers(1, n + 1, (2, n))
        finals = np.flatnonzero(rng.random(n) < 0.3) + 1
        d = Dfa(n, ("a", "b"), delta, 99_999, finals)
        text = serialize(d)
        assert " 99999 " in text and " 100000 " in text
        assert parse(text) == d


    @pytest.mark.parametrize("size", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_long_rows_in_blocks(self, size):
        # serialize writes a row in blocks of 2^16 states.  Rows of either
        # side of one block and past three, with states of every width up to
        # the row's own, and a first block of one digit, narrower than the
        # next; the finals, every third state, are a row past one block too.
        rng = np.random.default_rng(size)
        mixed = np.minimum(rng.integers(1, 10, size) * 10 ** rng.integers(0, len(str(size)), size), size)
        narrow = rng.integers(1, size + 1, size)
        narrow[: 2**16] = rng.integers(1, 10, min(size, 2**16))
        d = Dfa(size, ("a", "b"), [mixed, narrow], 1, range(1, size + 1, 3))
        text = serialize(d)
        assert parse(text) == d
        lines = text.splitlines()
        assert lines[3] == "finals " + _joined(d.finals)
        assert lines[4:] == ["trans a " + _joined(d.delta[0]), "trans b " + _joined(d.delta[1])]


def _outcome(text, long_line):
    # parse with the array reader from long_line characters: the Dfa, or
    # the message and line of its error.
    with patch.object(dfa, "_LONG_LINE", long_line):
        try:
            return parse(text)
        except DfaParseError as exc:
            return str(exc), exc.line


# The line path only, and every ASCII line read on arrays.
LISTS, ARRAYS = sys.maxsize, 0


def _padded(text, pad):
    return "".join(line + pad + "\n" for line in text.splitlines())


class TestReaderErrors:
    @pytest.mark.parametrize("text, message, line", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
    @pytest.mark.parametrize("pad", ["", " " * dfa._LONG_LINE, "\t \x1f" * dfa._LONG_LINE])
    def test_every_parse_error_on_arrays(self, text, message, line, pad):
        # Every line padded past the limit, or the limit patched to 0.
        text = _padded(text, pad)
        long_line = dfa._LONG_LINE if pad else ARRAYS
        with patch.object(dfa, "_read_decimal", wraps=dfa._read_decimal) as reader:
            got = _outcome(text, long_line)
        assert not isinstance(got, Dfa)
        assert message in got[0] and got[1] == line
        assert got == _outcome(text, LISTS)
        # Only a bad 'states' line is refused before any integer is read.
        assert reader.called or text.startswith("states 2 3")

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1-1", "expected an integer in ASCII digits, got '1-1'"),
            ("+2", "expected an integer in ASCII digits, got '+2'"),
            ("0_2", "expected an integer in ASCII digits, got '0_2'"),
            ("\uff12", "expected an integer in ASCII digits, got '\uff12'"),
            ("x", "expected an integer in ASCII digits, got 'x'"),
            ("-5", "state -5 out of range 1..10000"),
            ("0", "state 0 out of range 1..10000"),
            ("10001", "state 10001 out of range 1..10000"),
            ("0" * 30 + "10001", "state 10001 out of range 1..10000"),
            ("9" * 19, f"state {'9' * 19} out of range 1..10000"),
            ("9" * 641, "expected an integer of at most 640 characters, got 641"),
        ],
    )
    def test_a_bad_token_in_a_long_line(self, where, bad, message):
        n = 10_000
        row = [str(q) for q in random.Random(n).choices(range(1, n + 1), k=n)]
        row[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = bad
        text = f"states {n}\nalphabet a\nstart 1\nfinals 1\ntrans a {' '.join(row)}\n"
        got = _outcome(text, dfa._LONG_LINE)
        assert message in got[0] and got[1] == 5
        assert got == _outcome(text, LISTS)

    def test_the_first_state_out_of_range_is_named(self):
        n = 5_000
        row = ["1"] * n
        row[100], row[3_000] = "7000", "0"
        text = f"states {n}\nalphabet a\nstart 1\nfinals 1\ntrans a {' '.join(row)}\n"
        assert _outcome(text, ARRAYS) == _outcome(text, LISTS) == ("line 5: state 7000 out of range 1..5000", 5)


def _reformatted(d, rng):
    # serialize(d) with random separators, leading zeros, trailing blanks,
    # comment and blank lines, and LF, CRLF or bare CR line ends.
    seps = [" ", "  ", "\t", " \t ", "\x1f", "   \x1f\t"]
    lines = []
    for line in serialize(d).splitlines():
        key, *words = line.split()
        if key == "trans":
            head, words = [key, words[0]], words[1:]
        else:
            head = [key]
        if key != "alphabet":
            words = ["0" * rng.choice([0, 0, 0, 1, 3, 12]) + w for w in words]
        out = head[0]
        for w in head[1:] + words:
            out += rng.choice(seps) + w
        lines.append(out + rng.choice(["", " ", "\t\t", " \x1f "]))
        if rng.random() < 0.5:
            lines.append(rng.choice(["", "# a comment 1 2 3", "   ", "#"]))
    return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_texts_parse_alike_on_both_paths(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 5, dfa._FEW - 1, dfa._FEW, 300, 3_000])
    d = random_dfa(n, rng.randint(1, 3), seed)
    finals = [q for q in range(1, n + 1) if rng.random() < 0.4]
    d = Dfa(d.n, d.alphabet, d.delta, rng.randint(1, n), finals)
    text = _reformatted(d, rng)
    with patch.object(dfa, "_read_decimal", wraps=dfa._read_decimal) as reader:
        arrays = _outcome(text, ARRAYS)
    assert reader.called
    assert arrays == _outcome(text, LISTS) == _outcome(text, dfa._LONG_LINE) == d


def test_wide_tokens_are_read_on_int64_or_left_to_the_line_path():
    assert dfa._read_decimal("1 2 " + "9" * 9).dtype == np.int32
    assert dfa._read_decimal("1 2147483648 4294967296").tolist() == [1, 2**31, 2**32]
    wide = dfa._read_decimal("1 2 " + "9" * 18 + " 00" + "9" * 16)
    assert wide.dtype == np.int64 and wide.tolist() == [1, 2, 10**18 - 1, 10**16 - 1]
    # Leading zeros count: a token of 19 characters is left to the line path.
    assert dfa._read_decimal("1 2 " + "9" * 19) is None
    assert dfa._read_decimal("1 2 0" + "9" * 18) is None
    assert dfa._read_decimal("1 2 - 3") is None
    assert dfa._read_decimal("") is None
    assert dfa._read_decimal(" \t\x1f ").tolist() == []


class TestLongTokens:
    # A decimal token past _INT_CHARS is a DfaParseError with a shortened
    # token, on any path and whatever the interpreter's limit on int().
    ROW = "states 2\nalphabet a\nstart 1\nfinals 2\ntrans a 2 " + "9" * 5000 + "\n"
    STATES = "states " + "9" * 5000 + "\n"

    @pytest.mark.parametrize("text, line", [(ROW, 5), (STATES, 1)], ids=["row", "states"])
    @pytest.mark.parametrize("long_line", [LISTS, ARRAYS])
    def test_library(self, text, line, long_line):
        got = _outcome(text, long_line)
        assert got[1] == line
        assert got[0] == f"line {line}: expected an integer of at most 640 characters, got 5,000: '{'9' * 20}'..."

    def test_cli_exits_2_with_a_short_message(self, tmp_path, capsys):
        path = tmp_path / "long.dfa"
        path.write_text(self.ROW)
        assert main(["minimize", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 5: expected an integer of at most 640 characters, got 5,000")
        assert "Traceback" not in err and len(err) < 200

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int() of a str")
    @pytest.mark.parametrize("limit", [0, 640])
    def test_640_characters_are_read_whatever_the_limit(self, limit):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            ok = _outcome(self.ROW.replace("9" * 5000, "9" * 640), LISTS)
            long = _outcome(self.ROW.replace("9" * 5000, "9" * 641), LISTS)
        finally:
            sys.set_int_max_str_digits(saved)
        assert ok[0].startswith("line 5: state 999") and ok[0].endswith(" out of range 1..2")
        assert long[0].startswith("line 5: expected an integer of at most 640 characters, got 641")
