"""Complete deterministic finite automata.

States are named 1..n.  The text format is line oriented, UTF-8, with
``#`` starting a comment line and blank lines ignored::

    states 5
    alphabet a b
    start 1
    finals 1
    trans a 2 1 4 5 3
    trans b 2 3 4 1 2

There is exactly one ``trans`` line per alphabet letter; the i-th integer
on a ``trans x`` line is the successor of state i on letter x.  ``finals``
lists zero or more states.  Only complete transition tables are accepted.

Words are separated by any whitespace that str.split splits on: spaces,
tabs, \\x1f and the Unicode spaces such as U+00A0.  Lines end at any break
that str.splitlines knows, so CRLF and a bare CR end a line too.  A
letter may be any word.  An integer is ASCII digits, leading zeros allowed,
of at most 640 characters; a minus sign before them is read only so that a
negative state is refused as out of range.  serialize writes one space
between words and LF line ends.

A Dfa holds its transitions as one read-only (letters, n) int32 array and
its final states as a read-only, sorted, duplicate-free int32 array, so an
automaton of 10^7 states goes from the root construction through
minimize to the text format without a Python int per transition.  The
text format is read and written on arrays too: serialize writes a row of
64 or more states from a matrix of digits, at most 2^16 states at a time,
and parse reads the integers of an ASCII line of 768 or more characters
from its bytes, with no str or Python int per state.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .transform import Transformation, _as_int, _as_points, identity


class DfaParseError(ValueError):
    """Malformed DFA text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False, init=False)
class Dfa:
    """Complete DFA: delta[i, q-1] is the successor of state q on alphabet[i].

    delta is a read-only (len(alphabet), n) int32 array, and finals a
    read-only int32 array of the final states, sorted and without
    duplicates.  Each may be given as an integer array or as Python
    sequences, and the Dfa holds its own copy.  Two Dfas are equal when n,
    alphabet, start and the bytes of both arrays are.
    """

    n: int
    alphabet: tuple[str, ...]
    delta: np.ndarray
    start: int
    finals: np.ndarray

    def __init__(self, n, alphabet, delta, start, finals):
        n = _as_int(n, "state count")
        alphabet = tuple(alphabet)
        if n < 1:
            raise ValueError("a DFA needs at least one state")
        if not alphabet:
            raise ValueError("alphabet must not be empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        for a in alphabet:
            if not isinstance(a, str) or not a or a.split() != [a]:
                raise ValueError(f"letter {a!r} is not a single token")
        delta = _state_table(delta, n, alphabet)
        start = _as_int(start, "start state")
        if not 1 <= start <= n:
            raise ValueError(f"start state {start} out of range 1..{n}")
        finals = _state_set(finals, n)
        # Each field is set once, past the frozen __setattr__.
        self.__dict__.update(n=n, alphabet=alphabet, delta=delta, start=start, finals=finals)

    def _key(self) -> tuple:
        return self.n, self.alphabet, self.start, self.delta.tobytes(), self.finals.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dfa):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def letter_index(self, a: str) -> int:
        try:
            return self.alphabet.index(a)
        except ValueError:
            raise ValueError(f"unknown letter {a!r}") from None

    def letter_transformation(self, a: str) -> Transformation:
        return Transformation(self.delta[self.letter_index(a)].tolist())


# numpy's fixed cost per call is worth about this many entries of a Python
# list, so an array of fewer entries is checked, read and written as a list.
# One row of n random states in 1..n, best of 15 loops pinned to one core
# of a 2-core x86-64 box: the Dfa constructor's check of a one-letter delta,
# _decimal against " ".join, and _read_decimal against split and int():
#
#   entries  chars   Dfa lists / arrays   write join / array   read split / array
#      16       39       11.6 / 14.9 us        2.6 / 14.3 us        2.6 / 21.0 us
#      32       86       14.9 / 14.9 us        4.5 / 13.3 us        4.6 / 19.6 us
#      64      180       22.0 / 15.4 us        8.5 / 13.6 us        9.0 / 21.6 us
#      96      276       28.3 / 15.7 us       12.8 / 13.7 us       14.0 / 21.4 us
#     128      398       34.7 / 15.5 us       17.5 / 22.7 us       19.6 / 30.4 us
#     192      660       44.7 / 14.6 us       26.9 / 20.1 us       32.3 / 30.0 us
#     256      920       54.6 / 14.1 us       39.2 / 24.9 us       44.7 / 37.5 us
#     384    1,432       88.3 / 16.2 us       74.1 / 36.4 us       75.5 / 53.1 us
#     512    1,948      114.5 / 16.4 us       90.5 / 30.0 us       85.2 / 41.9 us
#
# The constructor crosses at 32-64 entries, writing at about 128 and
# reading at about 200 (660-920 characters).  Raising _FEW to 128 would
# save writing at most 6 us a row of 64-127 entries and cost the
# constructor as much, so it stays; parse reads a line on arrays from
# _LONG_LINE characters, its own limit.
_FEW = 64


def _big_array(values, ndim: int, n: int) -> bool:
    # Whether values is an ndim-dimensional integer array of at least _FEW
    # entries, all in 1..n, checked by one min and max.
    return (
        isinstance(values, np.ndarray)
        and values.ndim == ndim
        and values.size >= _FEW
        and values.dtype.kind in "iu"
        and 1 <= values.min()
        and values.max() <= n
    )


def _state_table(delta, n: int, alphabet: tuple[str, ...]) -> np.ndarray:
    # delta as a new read-only (letters, n) int32 array.  A big integer
    # array of that shape is copied.  Anything else, an array through
    # tolist, is read as rows of states, and its first bad row or state is
    # the ValueError, as for the same rows given as lists.
    if _big_array(delta, 2, n) and delta.shape == (len(alphabet), n):
        table = delta.astype(np.int32, order="C")
    else:
        if isinstance(delta, np.ndarray):
            delta = delta.tolist()
        rows = [tuple(row) for row in delta]
        if len(rows) != len(alphabet):
            raise ValueError("need exactly one transition row per letter")
        for a, row in zip(alphabet, rows):
            if len(row) != n:
                raise ValueError(f"transition row for {a!r} has {len(row)} entries, expected {n}")
        # Every state passes through operator.index, so bools and floats
        # are refused.
        table = np.array([_as_points(row, n, "state") for row in rows], dtype=np.int32)
    table.setflags(write=False)
    return table


def _state_set(finals, n: int) -> np.ndarray:
    # finals as a new read-only int32 array, sorted and without duplicates.
    # A big strictly increasing integer array is copied, and anything else
    # is read as _state_table reads delta, then sorted and deduplicated.
    if _big_array(finals, 1, n) and not np.count_nonzero(finals[1:] <= finals[:-1]):
        states = finals.astype(np.int32)
    else:
        if isinstance(finals, np.ndarray):
            finals = finals.tolist()
        states = np.array(sorted(set(_as_points(finals, n, "state"))), dtype=np.int32)
    states.setflags(write=False)
    return states


# An integer of the text format: ASCII digits after at most one minus
# sign, which parse keeps so that -1 is refused as out of range.
_DECIMAL = re.compile(r"-?[0-9]+")

# The most characters parse takes in one integer.  640 is the lowest limit
# on the digits of int() of a str that Python lets a program set, so int()
# takes every integer parse accepts, whatever the limit is.
_INT_CHARS = 640

# parse reads the integers of an ASCII line of at least this many characters
# on arrays (_read_decimal), and of a shorter one by split and int(); the
# crossover table is in the comment on _FEW.
_LONG_LINE = 768

# bytes.translate reads a byte through this table as its digit, _SPACE
# where str.split splits an ASCII str, or _OTHER.
_SPACE, _OTHER = 10, 11
_BYTE_CLASS = bytes(b - 48 if 48 <= b <= 57 else _SPACE if chr(b).isspace() else _OTHER for b in range(256))

# The most digits _read_decimal reads in one integer: 10**18 - 1 fits int64.
_ARRAY_DIGITS = 18


def _read_decimal(text: str) -> np.ndarray | None:
    # The whitespace-separated integers of an ASCII str as an int32 array
    # (int64 past nine digits), or None where a byte is neither an ASCII
    # digit nor whitespace or an integer has more than _ARRAY_DIGITS digits.
    # The tokens are the runs of digits, bounded by the edges of the digit
    # mask, and each is summed place by place from its last digit.
    values = np.frombuffer(text.encode("ascii").translate(_BYTE_CLASS), dtype=np.uint8)
    if not len(values) or values.max() == _OTHER:
        return None
    digit = np.zeros(len(values) + 2, dtype=bool)
    np.less(values, _SPACE, out=digit[1:-1])
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    ends = edges[1::2]
    lengths = ends - edges[::2]
    width = int(lengths.max(initial=0))
    if width > _ARRAY_DIGITS:
        return None
    dtype = np.int32 if width <= 9 else np.int64
    out = np.zeros(len(ends), dtype=dtype)
    place = np.empty(len(ends), dtype=np.uint8)
    scaled = np.empty_like(out)
    at = ends - 1
    for k in range(width):
        # Where a token has no digit k places from its end, the byte read
        # is a separator or an earlier token's, and counts as 0.
        np.take(values, at, out=place, mode="clip")
        place[lengths <= k] = 0
        np.multiply(place, 10**k, out=scaled, dtype=dtype)
        out += scaled
        at -= 1
    return out


def parse(text) -> Dfa:
    """Parse the text format above into a Dfa, from str, bytes or bytearray."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    elif not isinstance(text, str):
        raise DfaParseError(f"parse needs str, bytes or bytearray, got {type(text).__name__}")
    header: dict[str, list | np.ndarray | None] = dict.fromkeys(("states", "alphabet", "start", "finals"))
    trans: dict[str, tuple[list[int] | np.ndarray, int]] = {}

    def want_ints(rest: str, lineno: int) -> list[int] | np.ndarray:
        # The integers of the rest of a line: an array of _FEW or more
        # read by _read_decimal, or else a list.  int() also takes a plus
        # sign, underscores and non-ASCII digits, so it reads only an ASCII
        # line with none of them.  Any other line, or one it refuses, is
        # read token by token, and its first bad token is the error.
        if len(rest) >= _LONG_LINE and rest.isascii():
            values = _read_decimal(rest)
            if values is not None:
                return values if len(values) >= _FEW else values.tolist()
        tokens = rest.split()
        if (len(rest) <= _INT_CHARS or max(map(len, tokens), default=0) <= _INT_CHARS) and (
            rest.isascii() and "_" not in rest and "+" not in rest
        ):
            try:
                return list(map(int, tokens))
            except ValueError:
                pass
        for token in tokens:
            if not _DECIMAL.fullmatch(token):
                raise DfaParseError(f"expected an integer in ASCII digits, got {token!r}", lineno)
            if len(token) > _INT_CHARS:
                raise DfaParseError(
                    f"expected an integer of at most {_INT_CHARS} characters, got {len(token):,}: {token[:20]!r}...",
                    lineno,
                )
        return list(map(int, tokens))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # The keyword, then the rest of the line unsplit, so that a long
        # line's integers are read in one pass.
        key, rest = _first_word(raw)
        if not key or key.startswith("#"):
            continue
        if key == "trans":
            letter, rest = _first_word(rest)
            if not letter:
                raise DfaParseError("'trans' expects a letter and successor states", lineno)
            if letter in trans:
                raise DfaParseError(f"duplicate 'trans' line for letter {letter!r}", lineno)
            trans[letter] = (want_ints(rest, lineno), lineno)
            continue
        if key not in header:
            raise DfaParseError(f"unknown keyword {key!r}", lineno)
        if header[key] is not None:
            raise DfaParseError(f"duplicate {key!r} line", lineno)
        if key == "alphabet":
            args = rest.split()
            if not args:
                raise DfaParseError("'alphabet' expects at least one letter", lineno)
            if len(set(args)) != len(args):
                raise DfaParseError("duplicate letter in alphabet", lineno)
            header[key] = args
            continue
        if key != "finals" and len(rest.split()) != 1:
            raise DfaParseError(f"{key!r} expects one integer", lineno)
        header[key] = want_ints(rest, lineno)
        if key == "states" and header[key][0] < 1:
            raise DfaParseError(f"state count {header[key][0]} must be positive", lineno)

    for key, value in header.items():
        if value is None:
            raise DfaParseError(f"missing {key!r} line")
    (n,), alphabet, (start,), finals = header.values()
    for letter, (row, lineno) in trans.items():
        if letter not in alphabet:
            raise DfaParseError(f"letter {letter!r} not in alphabet", lineno)
        if len(row) != n:
            raise DfaParseError(f"expected {n} successors, got {len(row)}", lineno)
        low, high = (row.min(), row.max()) if isinstance(row, np.ndarray) else (min(row), max(row))
        if low < 1 or high > n:
            q = next(q for q in list(row) if not 1 <= q <= n)
            raise DfaParseError(f"state {q} out of range 1..{n}", lineno)
    for letter in alphabet:
        if letter not in trans:
            raise DfaParseError(f"missing 'trans' line for letter {letter!r}")
    # The start and final states are checked by Dfa, with no line to name.
    try:
        rows = [trans[a][0] for a in alphabet]
        return Dfa(n, alphabet, np.array(rows, dtype=np.int32) if n >= _FEW else rows, start, finals)
    except ValueError as exc:
        raise DfaParseError(str(exc)) from None


def _first_word(line: str) -> tuple[str, str]:
    # The first whitespace-separated word of line and the rest after it,
    # or two empty strings for a blank line.
    words = line.split(None, 1)
    return (words[0], words[1] if len(words) > 1 else "") if words else ("", "")


def serialize(d: Dfa) -> str:
    """Render a Dfa in the text format; parse(serialize(d)) == d."""
    _need_dfa(d, "serialize")
    # One join of all the pieces, so that each long row is copied once.
    parts = [f"states {d.n}\nalphabet {' '.join(d.alphabet)}\nstart {d.start}\nfinals"]
    if len(d.finals):
        parts += _blocks(d.finals)
    for a, row in zip(d.alphabet, d.delta):
        parts += ["\ntrans ", a, *_blocks(row)]
    parts.append("\n")
    return "".join(parts)


def _blocks(states: np.ndarray) -> list[str]:
    # A space before the text of each block of 2^16 states, so that no
    # temporary of _decimal spans a longer row.  A row of one block skips
    # the loop, which costs the many small DFAs about 1 us a row.
    if len(states) <= 1 << 16:
        return [" ", _decimal(states)]
    return [s for i in range(0, len(states), 1 << 16) for s in (" ", _decimal(states[i : i + (1 << 16)]))]


def _decimal(states: np.ndarray) -> str:
    # The positive integers of a 1-D array in decimal, space separated.  A
    # big array is a matrix of one state per line, its digits (_digits) and
    # a space, with the leading zeros masked out of the bytes it joins.
    # serialize passes a long row in blocks (_blocks), so the matrix, the
    # mask and the text are each at most 2^16 states long.
    if len(states) < _FEW:
        return " ".join(map(str, states.tolist()))
    width = len(str(states.max()))
    chars = np.empty((len(states), width + 1), dtype=np.uint8)
    _digits(states, 10, chars[:, :width])
    chars += ord("0")
    chars[:, width] = ord(" ")
    keep = np.ones(chars.shape, dtype=bool)
    for i in range(width - 1):
        np.greater_equal(states, 10 ** (width - 1 - i), out=keep[:, i])
    return str(chars[keep][:-1].data, "ascii")


def _digits(values: np.ndarray, base: int, out: np.ndarray) -> None:
    # The last out.shape[1] base-`base` digits of each value in 0..2^31 - 1,
    # most significant first, into the rows of the uint8 matrix out.  They
    # are taken from the last, in int32, where division is faster than in
    # int64, as rest - (rest // base) base, without numpy's slower remainder.
    rest = values.astype(np.int32)
    high = np.empty_like(rest)
    digit = np.empty_like(rest)
    for i in range(out.shape[1] - 1, -1, -1):
        np.floor_divide(rest, base, out=high)
        np.multiply(high, base, out=digit)
        np.subtract(rest, digit, out=digit)
        out[:, i] = digit
        rest, high = high, rest


def word_transformation(d: Dfa, w) -> Transformation:
    """The state map induced by reading w; the empty word gives the identity."""
    _need_dfa(d, "word_transformation")
    return reduce(operator.mul, (d.letter_transformation(a) for a in w), identity(d.n))


def accepts(d: Dfa, w) -> bool:
    _need_dfa(d, "accepts")
    delta = memoryview(d.delta)
    q = d.start
    for a in w:
        q = delta[d.letter_index(a), q - 1]
    return q in d.finals


# The fixed cost of one numpy pass over a level, in scalar successor reads.
_PASS_READS = 100

# The filters of closure and _reachable (_unseen), root_automaton's finals
# and rank_histogram read this many values at a time.
_RANK_BLOCK = 1 << 16


def _unseen(values: np.ndarray, seen: np.ndarray) -> np.ndarray:
    # values[~seen[values]]: the values whose entry in the bool map seen is
    # False, in their order, selected by index and moved to the front of
    # values, whose prefix of them is returned; the rest of values is left
    # as it was.  Each block of _RANK_BLOCK values is cast to intp once, so
    # that neither the take nor compress's index of the kept places spans
    # all of values, and no temporary outlives its block (see _partition's
    # Memory paragraph).
    end = 0
    for start in range(0, len(values), _RANK_BLOCK):
        part = values[start : start + _RANK_BLOCK]
        new = seen.take(part.astype(np.intp))
        np.logical_not(new, out=new)
        kept = part.compress(new)
        values[end : end + len(kept)] = kept
        end += len(kept)
    return values[:end]


def _reachable(d: Dfa) -> list:
    """The states reachable from the start, in _partition's order, in pieces.

    A list holds each run of levels read one state at a time, through a
    flat memoryview of d.delta, and an array each level found by a pass
    over d.delta.  A pass gathers the level's successors, parent-major and
    letter-minor, drops the states already seen, and keeps each other
    state at its first occurrence.  _first_index finds those by one
    np.sort of each state packed with its position (see _KEY_LIMIT),
    below (n + 1) << bits; the states at the first positions, in their
    order, are the next level.
    """
    # The successor of q on letter j is flat[j n - 1 + q], a Python int.
    flat = memoryview(d.delta.ravel())
    bases = range(-1, d.delta.size - 1, d.n)
    wide = _PASS_READS // len(bases)
    seen = bytearray(d.n + 1)
    seen[d.start] = True
    order, pieces = [d.start], []
    while order:
        pieces.append(order)
        end = 0
        for i, q in enumerate(order):
            if i == end:  # order[i:] is the next level
                end = len(order)
                if end - i > wide:
                    break
            for base in bases:
                r = flat[base + q]
                if not seen[r]:
                    seen[r] = True
                    order.append(r)
        else:
            break
        mask = np.frombuffer(seen, dtype=bool)
        level = np.array(order[i:])
        while True:
            met = d.delta.take(level - 1, axis=1).T.ravel()  # parent-major, letter-minor
            met = _unseen(met, mask)
            keep = np.zeros(len(met), dtype=bool)
            keep[_first_index(met, d.n + 1)] = True
            level = met.compress(keep)
            mask[level] = True
            if len(level) <= wide:
                break
            pieces.append(level)
        order = level.tolist()
    return pieces


# Keys are integers, widened to int64 to pack, and stay below this.  A
# sort of n keys below a bound b packs each with its position, key << bits
# | position where bits = n.bit_length(), if b << bits does not pass this
# either, and is an argsort if it does.  The choice is made from the
# bound, never from the largest key seen.
_KEY_LIMIT = 2**63


def _sorted_runs(key: np.ndarray, bound: int, kind: str | None) -> tuple[np.ndarray, np.ndarray]:
    # The positions of key, where 0 <= key < bound, in sorted order, and a
    # mask of the places in that order where a new key starts.  A packed
    # sort is stable; a key whose bound does not pack is sorted by argsort
    # of this kind.  _first_index needs a stable order, since it reads the
    # first position of each key off it, and _dense_rank any order, since
    # equal keys get the same rank wherever they fall.
    bits = key.size.bit_length()
    if bound <= _KEY_LIMIT >> bits:
        ranked = key.astype(np.int64, copy=False) << bits
        ranked |= np.arange(key.size)
        ranked.sort()
        order = ranked & ((1 << bits) - 1)
        ranked >>= bits
    else:
        order = np.argsort(key, kind=kind)
        ranked = key[order]
    starts = np.empty(key.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    return order, starts


def _first_index(key: np.ndarray, bound: int) -> np.ndarray:
    # np.unique(key, return_index=True)[1]: the first position of each
    # distinct key, in key order.
    order, starts = _sorted_runs(key, bound, "stable")
    return order.compress(starts)


def _dense_rank(key: np.ndarray, bound: int) -> np.ndarray:
    # np.unique(key, return_inverse=True)[1], without the fixed cost of
    # np.unique, which dominates on the tiny arrays of small DFAs.
    order, starts = _sorted_runs(key, bound, None)
    starts[:1] = False  # the first run is rank 0
    rank = np.empty(key.size, dtype=np.int32)
    rank[order] = np.add.accumulate(starts, dtype=np.int32)
    return rank


def _signature_classes(succ: np.ndarray, fin: np.ndarray) -> tuple[np.ndarray, int]:
    # Moore's partition P_depth as class ids 0..ncls-1, and depth, from the
    # rank of one packed signature per state (see _partition).  A step
    # builds the wider signature in the buffer of the one before last, and
    # gathers and shifts each letter's field in one more.  All three are
    # freed on return, before the rounds reach their peak memory.
    sig, width, depth = fin.astype(np.int64), 1, 0
    packs = _KEY_LIMIT >> fin.size.bit_length()
    wider, field = np.empty_like(sig), np.empty_like(sig)
    while depth < fin.size - 2 and 1 << (1 + len(succ) * width) <= packs:
        np.copyto(wider, fin)
        for j, s in enumerate(succ):
            sig.take(s, out=field, mode="wrap")
            field <<= 1 + j * width
            wider |= field
        sig, wider, width, depth = wider, sig, 1 + len(succ) * width, depth + 1
    del wider, field
    return _dense_rank(sig, 1 << width), depth


def _partition(d: Dfa) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The reachable states in first-reach order, arrays over them, and reps.

    succ[j, i] is the 0-based position in that order of the successor of
    states[i] on letter j, fin[i] tells whether states[i] is final, and
    cls[i] in 0..ncls-1 is its Nerode class.  Classes are numbered by first
    reach: reps[c] is the position of the first member of class c, so reps
    is increasing and cls[reps[c]] == c.

    Reachability.  Breadth first from the start, letters in alphabet
    order, so the order is that of first reach by lexicographically
    smallest words.  Level t + 1 is the successors of level t,
    parent-major and letter-minor, less the states of levels 0..t, each
    kept at its first occurrence.  _reachable reads a level whose width,
    states times letters, is at most _PASS_READS one state at a time, and
    a wider one with a numpy pass that builds the next level.  Columns are
    gathered with take(idx, axis=1), several times faster than x[:, idx]
    on a scattered idx.

    Refinement.  First a signature pass: sig[i] is an integer whose bit b
    tells whether the b-th word of length at most depth takes states[i]
    to a final state.  At depth 0 sig is fin, of width w = 1 bit; each
    step sets sig to fin | sig[succ[0]] << 1 | sig[succ[1]] << (1 + w) |
    ..., bit 0 for the empty word and a field of w bits for the words
    after each letter in turn, so the width becomes 1 + k w for k letters.
    The fields do not overlap because sig < 2**w, so two states have equal
    sig exactly when every word of length at most depth leads both to
    final states or both not: sig is Moore's partition P_depth.  The pass
    stops before a width whose bound 2**w would not pack in one rank
    (see _KEY_LIMIT), or at depth len(states) - 2, when P_depth is
    already the Nerode partition: while the partition still refines,
    each of Moore's rounds adds a class to the at most two of P_0.  One
    rank of sig gives the classes of P_depth, with ids 0..ncls-1.  A
    P_depth of one class is already the Nerode partition: P_0 then has one
    class too, every state final or none, and no round splits it.

    Then Moore rounds on 1-D keys from P_depth, each one level deeper,
    until a round splits no class or depth reaches len(states) - 2.  A
    state's key starts as fin, and each letter in turn folds the
    successor's class into it, key * ncls + cls[succ[j]], which is
    injective because cls < ncls; the successors are gathered one letter
    at a time.  The classes entering a round are exactly Moore's P_d,
    since the signature pass and every round before compute it exactly.
    So two states get equal keys exactly when they agree on acceptance
    and on the P_d class after every letter, which is P_{d + 1}.  That
    refines P_d, so states of two old classes never share a key, and the
    old class need not be folded in.  A round tracks a bound on its keys,
    2 before the first fold, and ranks them after the last letter and
    before a fold that would take the bound past top.  A rank packs each
    key with its position, so top is the largest bound that packs,
    _KEY_LIMIT >> live.size.bit_length().  A fold thus stays below top or
    below live.size * ncls, and a rank whose bound does not pack is an
    argsort.  A class of one state never splits again, so each round keys
    only the states of the other classes, whose ids, free, it replaces.
    The pieces of one class need not have adjacent ranks, so the first
    free.size ranks take the ids in free and the others fresh ids from
    ncls up: the ids stay compact, and those of the states not keyed stay
    valid.  A round of as many pieces as free ids has split no class, and
    ends the refinement.

    The ids of the refinement depend on how it went, the signature pass
    included, but the partition it ends with does not: it is the Nerode
    partition.  However the rounds end, live holds exactly the states of
    the classes of two or more states, in increasing order, and every
    other state is alone in its class and its own first member.  So reps
    are the positions outside live and, in live, the first position of
    each id, found by _first_index over cls[live]: 42 states at U_{3,4},
    where a sort of all 607,285 took 14 ms.  Last, a scatter of
    0..ncls-1 to cls[reps] renumbers the classes in the order of reps, in
    place, which depends on the partition alone.

    Memory.  Every per-state value is below the state count, so states,
    pos, succ, cls, the ids and the ranks of _dense_rank are int32, as
    d.delta is; only the packed signatures and keys are int64, since they
    pack several fields or a position.  Keys fold in place, the signature
    pass gathers its shifted fields into one reused buffer, and free is
    freed before the renumbering.  An int32 index is gathered through
    take(..., mode="wrap"), the fastest form on the tiny arrays of small
    DFAs.  take copies such an index to intp before it gathers, 8 bytes
    an index for the moment, where fancy indexing casts it in buffers; an
    index read several times is cast to intp once.

    A filter whose mask is unpredictable selects by index, a.compress(mask)
    or _unseen, not a[mask]: the rounds' live filter, the first-reach
    walk's filter and keep mask, and closure's level filter.  On 600,000
    int32 values, 30-70% of them seen, values[~seen[values]] took 5.0-5.7
    ms and _unseen 1.9-2.4 ms (numpy 2.4, best of 21 on one core of a
    2-core x86-64 box).  compress gathers through an intp index of the
    kept places, and take copies an int32 index to intp, so _unseen, whose
    values may be a whole closure level, works _RANK_BLOCK values at a
    time and moves the kept ones into values: closing T_8 and reading its
    ranks peaked at 135 MB, against 171 MB with each level filtered whole.
    A mask that is nearly all True, as closure's dedupe of sorted codes,
    selects faster as a[mask].
    """
    states = np.concatenate(_reachable(d))
    pos = np.zeros(d.n + 1, dtype=np.int32)
    pos[states] = np.arange(len(states), dtype=np.int32)
    succ = d.delta.take(states - 1, axis=1, mode="wrap")
    pos.take(succ, out=succ, mode="wrap")
    del pos
    fin = np.zeros(d.n + 1, dtype=bool)
    fin[d.finals.astype(np.intp)] = True  # int32 indices assign slowly
    fin = fin[states]
    states = states.astype(np.int32)
    cls, depth = _signature_classes(succ, fin)
    ncls = int(cls.max()) + 1
    many = np.bincount(cls, minlength=ncls) > 1
    live, free = np.flatnonzero(many.take(cls, mode="wrap")), np.flatnonzero(many)
    del many
    while ncls > 1 and live.size and depth < len(states) - 2:
        depth += 1
        top = _KEY_LIMIT >> live.size.bit_length()
        key, bound = fin[live].astype(np.int64), 2
        gathered = np.empty(live.size, dtype=np.int32)
        for row in succ:
            if bound > top // ncls:
                key[:], bound = _dense_rank(key, bound), live.size
            row.take(live, out=gathered, mode="wrap")
            cls.take(gathered, out=gathered, mode="wrap")
            key *= ncls
            key += gathered
            bound *= ncls
        del gathered
        key = _dense_rank(key, bound)
        pieces = int(key.max()) + 1
        if pieces == free.size:
            break
        key = key.astype(np.intp)  # one cast for the three reads below
        ids = np.concatenate((free, np.arange(ncls, ncls + pieces - free.size)), dtype=np.int32)
        ncls += pieces - free.size
        cls[live] = ids[key]
        many = np.bincount(key) > 1
        live, free = live.compress(many.take(key)), ids[many]
        del many
    del free
    first = np.ones(len(states), dtype=bool)
    first[live] = False
    first[live[_first_index(cls[live], ncls)]] = True
    del live
    reps = np.flatnonzero(first)
    number = np.empty(ncls, dtype=np.int32)
    number[cls[reps].astype(np.intp)] = np.arange(ncls, dtype=np.int32)  # int32 indices assign slowly
    number.take(cls, out=cls, mode="wrap")
    return states, succ, fin, cls, reps


def _tables(*dfas: Dfa) -> tuple[list[list[int]], bytearray]:
    # The disjoint union of dfas, over the same letters in the same order,
    # as Python lists.  The states of each follow those of the ones before
    # it, so the first keeps its numbers.  rows[j][q] is the successor of
    # state q on letter j, rows[j][0] is unused, and fin[q] is 1 for a
    # final state q and 0 for any other.
    rows = [[0] for _ in dfas[0].alphabet]
    fin = bytearray(1)
    for d in dfas:
        base = len(fin) - 1
        for row, more in zip(rows, (d.delta + base if base else d.delta).tolist()):
            row += more
        fin += bytes(d.n)
        for q in d.finals.tolist():
            fin[base + q] = 1
    return rows, fin


def _minimize_few(d: Dfa) -> Dfa:
    """minimize for a DFA of at most _LIST_LIMIT transitions, on lists.

    The reachable states come from _reachable as one list, since no level
    of a DFA of at most _PASS_READS transitions is wider than that; the
    pieces of a larger DFA, which minimize leaves to _partition, are
    joined.  Moore rounds start from the acceptance of each state.  A
    round gives each state the tuple of its class and its successors'
    classes, and numbers the distinct tuples in first-reach order.  The
    rounds stop when one splits no class, or when every class has one
    state.  The last numbering is then the canonical one of _partition,
    so the result is equal to the array path's.
    """
    rows, fin = _tables(d)
    order, *wide = _reachable(d)
    if wide:
        order += np.concatenate(wide).tolist()
    pos = [0] * (d.n + 1)
    for i, q in enumerate(order):
        pos[q] = i
    succ = [[pos[row[q]] for q in order] for row in rows]
    cls = [fin[q] for q in order]
    count = len(set(cls))
    while True:
        ids: dict[tuple, int] = {}
        cls = [ids.setdefault(key, len(ids)) for key in zip(cls, *([cls[s] for s in row] for row in succ))]
        if len(ids) == count or len(ids) == len(cls):
            break
        count = len(ids)
    reps: list[int] = []
    for i, c in enumerate(cls):
        if c == len(reps):
            reps.append(i)
    delta = [[cls[row[i]] + 1 for i in reps] for row in succ]
    return Dfa(len(reps), d.alphabet, delta, 1, [c + 1 for c, i in enumerate(reps) if fin[order[i]]])


# minimize takes _minimize_few for a DFA of at most this many transitions,
# n times letters, and _partition above it.  Moore rounds on lists cost
# O(n^2 k) where the array path pays numpy's fixed cost per call, so the
# crossover is lowest where the refinement is deepest.  Measured as the
# best of 7 alternating loops, pinned to one core of a 2-core x86-64 box.
# "cycle" is the n-cycle with one final state, on a for one letter and
# with the other letters back to the start, which needs n - 2 rounds;
# "random" is 50 random DFAs with random final sets:
#
#   letters  states  transitions  cycle list / array  random list / array
#   1           8          8          36 /  70 us         21 /  57 us
#   1          16         16          84 / 111 us         23 /  60 us
#   1          24         24         139 / 129 us         29 /  67 us
#   1          32         32         212 / 158 us         33 /  78 us
#   1          48         48         456 / 261 us         35 /  83 us
#   2           8         16          67 / 230 us         54 / 129 us
#   2          16         32         105 / 408 us         43 /  90 us
#   2          24         48         185 / 584 us         98 / 148 us
#   2          32         64         307 / 1,158 us      110 / 168 us
#   3           8         24          92 / 290 us         62 / 141 us
#   3          11         33         133 / 449 us         73 / 148 us
#   3          16         48         211 / 712 us         71 / 154 us
#
# The list path wins everywhere but on the deepest one-letter cycles past
# about 24 states, where the array path's signature pass splits the whole
# chain in one rank; 32 bounds that loss to a third.  The limit stays at
# or below _PASS_READS, so that _reachable returns one list.  _FEW, at
# 64, would send one-letter cycles of 33 to 64 states to the slower path.
_LIST_LIMIT = 32


def minimize(d: Dfa) -> Dfa:
    """Unique minimal complete DFA for the same language, in canonical form.

    Unreachable states are dropped, equivalent states merged, and the
    result is renumbered by order of first reach via lexicographically
    smallest words, so two equivalent inputs minimize to equal values.

    Two paths, chosen by size, give equal results.  A DFA of at most
    _LIST_LIMIT transitions, n times the number of letters, is refined on
    Python lists (_minimize_few), and numpy only reads its arrays and
    builds the result's.  A larger one is refined on arrays (_partition),
    and the result's delta and finals are read off those arrays at the
    class representatives with no Python int per state.  The crossover
    table is in the comment on _LIST_LIMIT.
    """
    _need_dfa(d, "minimize")
    if d.delta.size <= _LIST_LIMIT:
        return _minimize_few(d)
    _, succ, fin, cls, reps = _partition(d)
    delta = succ.take(reps, axis=1, mode="wrap")
    cls.take(delta, out=delta, mode="wrap")
    delta += 1
    return Dfa(len(reps), d.alphabet, delta, 1, np.flatnonzero(fin[reps]) + 1)


def nerode_partition(d: Dfa) -> tuple[np.ndarray, np.ndarray]:
    """The reachable states in first-reach order, and the class of each.

    State states[i] of d becomes state cls[i] + 1 of minimize(d).  Both
    arrays are int32.
    """
    _need_dfa(d, "nerode_partition")
    states, _, _, cls, _ = _partition(d)
    return states, cls


def _distinguishing_word(d1: Dfa, d2: Dfa) -> tuple[str, ...] | None:
    """A shortest word that exactly one of d1 and d2 accepts, or None.

    Hopcroft and Karp's test ("A linear algorithm for testing equivalence
    of finite automata", 1971), for two DFAs whose alphabets are equal in
    order.  A union-find over the disjoint union of the states, d1's as
    1..n1 and d2's as n1 + 1..n1 + n2, starts with every state alone.
    Pairs (p, q) are walked breadth first from the two starts; each letter
    leads to a pair of successors, and one whose classes differ has its
    classes merged and is walked in turn.  Every merge checks that the
    two states agree on acceptance, so each class is all final or all not,
    and the walk stops at the first merge that disagrees.  With no such
    merge, the classes are stable under every letter and hold the starts
    together: the languages are equal.

    The walk is breadth first, so the word it finds is a shortest one.  A
    pair it skips at depth t is joined by a chain of merged pairs of depth
    at most t, and a word that tells the skipped pair apart tells some
    pair of the chain apart, so a skip never hides a shorter word.  Each
    merged pair keeps the pair and the letter it came from, which spell
    the word back to the starts.
    """
    succ, fin = _tables(d1, d2)
    p, q = d1.start, d1.n + d2.start
    if fin[p] != fin[q]:
        return ()
    parent = list(range(len(fin)))
    parent[q] = p
    pairs, came_from = [(p, q)], [None]
    for i, (p, q) in enumerate(pairs):  # pairs grows as the walk goes
        for j, row in enumerate(succ):
            r, s = row[p], row[q]
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]  # path halving
            while parent[s] != s:
                parent[s] = s = parent[parent[s]]
            if r == s:
                continue
            if fin[r] != fin[s]:
                word = [j]
                while came_from[i] is not None:
                    i, j = came_from[i]
                    word.append(j)
                return tuple(d1.alphabet[j] for j in reversed(word))
            parent[s] = r
            pairs.append((row[p], row[q]))
            came_from.append((i, j))
    return None


# equivalent decides by _distinguishing_word while the pair has at most
# this many transitions, (n1 + n2) * letters, and by comparing the two
# minimal forms above it.  Measured on a random DFA against a relabelled
# copy, so that the walk is full, median of 4 seeds, 2-core x86-64 box:
#
#   letters  transitions  minimize comparison  union-find walk
#   1            4,096          4.3 ms             2.1 ms
#   1           32,768         26.2 ms            28.5 ms
#   2            2,048          840 us             435 us
#   2            4,096          705 us             632 us
#   2            5,120          782 us             832 us
#   2            8,192        1,172 us           1,610 us
#   3            3,072          618 us             514 us
#   3            4,608          656 us             792 us
#   3            9,216        1,566 us           2,467 us
#
# The walk wins up to about 4,500 transitions with two or three letters.
# With one letter the minimize comparison walks a long chain one state at
# a time, and the walk wins up to about 25,000; one limit in transitions
# keeps the rule simple at the cost of that range.
_WALK_LIMIT = 4_096


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality of two DFAs over the same letters, in any order.

    Two paths, chosen by size.  A pair of at most 4,096 transitions, (n1 +
    n2) times the number of letters, is decided by Hopcroft and Karp's
    union-find walk, which stops at the first pair of states that disagree
    on acceptance.  A larger pair is decided by comparing the canonical
    minimal forms, whose refinement runs on arrays and is the faster one
    there.  Anything but two Dfas, or two alphabets that are not the same
    set of letters, is a ValueError.
    """
    if not isinstance(d1, Dfa) or not isinstance(d2, Dfa):
        raise ValueError("equivalent compares two Dfa values")
    if set(d1.alphabet) != set(d2.alphabet):
        raise ValueError("alphabet mismatch")
    if d2.alphabet != d1.alphabet:
        perm = [d2.alphabet.index(a) for a in d1.alphabet]
        d2 = Dfa(d2.n, d1.alphabet, d2.delta[perm], d2.start, d2.finals)
    if (d1.n + d2.n) * len(d1.alphabet) <= _WALK_LIMIT:
        return _distinguishing_word(d1, d2) is None
    return minimize(d1) == minimize(d2)


def _need_dfa(d, caller: str) -> None:
    # Anything but a Dfa is the ValueError, not an AttributeError further in.
    if not isinstance(d, Dfa):
        raise ValueError(f"{caller} needs a Dfa, got {type(d).__name__}")


def _unary_chain(d: Dfa, caller: str) -> tuple[list[int], int]:
    # The reachable states of a one-letter DFA in path order, and the index
    # j of the loop entry in that path (the tail length).  With one letter
    # the reachable states are the path from the start, and the loop entry
    # is the successor of its last state.  Each level holds one state, so
    # the walk is one scalar run.
    _need_dfa(d, caller)
    if len(d.alphabet) != 1:
        raise ValueError(f"{caller} needs a one-letter alphabet")
    (path,) = _reachable(d)
    return path, path.index(memoryview(d.delta)[0, path[-1] - 1])


def unary_structure(d: Dfa) -> tuple[int, int, int]:
    """(tail length, loop length, loop entry state) of a one-letter DFA."""
    path, j = _unary_chain(d, "unary_structure")
    return j, len(path) - j, path[j]


def chain_dfa(tail: int, loop: int, finals, alphabet: tuple[str, ...] = ("a",)) -> Dfa:
    """One-letter DFA from state 1 along a tail of `tail` states into a `loop`-cycle."""
    m = tail + loop
    row = tuple(range(2, m + 1)) + (tail + 1,)
    return Dfa(m, alphabet, (row,), 1, finals)
