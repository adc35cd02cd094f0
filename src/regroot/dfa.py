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
"""

from __future__ import annotations

import operator
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


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: delta[i][q-1] is the successor of state q on alphabet[i]."""

    n: int
    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    start: int
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "state count"))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        delta = tuple(tuple(row) for row in self.delta)
        if self.n < 1:
            raise ValueError("a DFA needs at least one state")
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        for a in self.alphabet:
            if not a or a.split() != [a]:
                raise ValueError(f"letter {a!r} is not a single token")
        if len(delta) != len(self.alphabet):
            raise ValueError("need exactly one transition row per letter")
        for a, row in zip(self.alphabet, delta):
            if len(row) != self.n:
                raise ValueError(f"transition row for {a!r} has {len(row)} entries, expected {self.n}")
        # Every state passes through operator.index, so numpy integers are
        # stored as ints and bools and floats are refused.
        object.__setattr__(self, "delta", tuple(_as_points(row, self.n, "state") for row in delta))
        object.__setattr__(self, "start", _as_int(self.start, "start state"))
        if not 1 <= self.start <= self.n:
            raise ValueError(f"start state {self.start} out of range 1..{self.n}")
        object.__setattr__(self, "finals", frozenset(_as_points(self.finals, self.n, "state")))

    def letter_index(self, a: str) -> int:
        try:
            return self.alphabet.index(a)
        except ValueError:
            raise ValueError(f"unknown letter {a!r}") from None

    def letter_transformation(self, a: str) -> Transformation:
        return Transformation(self.delta[self.letter_index(a)])


def parse(text) -> Dfa:
    """Parse the text format above into a Dfa."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    header: dict[str, list | None] = dict.fromkeys(("states", "alphabet", "start", "finals"))
    trans: dict[str, tuple[tuple[int, ...], int]] = {}

    def want_int(token: str, lineno: int) -> int:
        try:
            return int(token)
        except ValueError:
            raise DfaParseError(f"expected an integer, got {token!r}", lineno) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *args = line.split()
        if key == "trans":
            if not args:
                raise DfaParseError("'trans' expects a letter and successor states", lineno)
            if args[0] in trans:
                raise DfaParseError(f"duplicate 'trans' line for letter {args[0]!r}", lineno)
            trans[args[0]] = (tuple(want_int(tok, lineno) for tok in args[1:]), lineno)
            continue
        if key not in header:
            raise DfaParseError(f"unknown keyword {key!r}", lineno)
        if header[key] is not None:
            raise DfaParseError(f"duplicate {key!r} line", lineno)
        if key in ("states", "start") and len(args) != 1:
            raise DfaParseError(f"{key!r} expects one integer", lineno)
        if key == "alphabet":
            if not args:
                raise DfaParseError("'alphabet' expects at least one letter", lineno)
            if len(set(args)) != len(args):
                raise DfaParseError("duplicate letter in alphabet", lineno)
            header[key] = args
        else:
            header[key] = [want_int(tok, lineno) for tok in args]
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
        for q in row:
            if not 1 <= q <= n:
                raise DfaParseError(f"state {q} out of range 1..{n}", lineno)
    for letter in alphabet:
        if letter not in trans:
            raise DfaParseError(f"missing 'trans' line for letter {letter!r}")
    # The start and final states are checked by Dfa, with no line to name.
    try:
        return Dfa(n, alphabet, [trans[a][0] for a in alphabet], start, finals)
    except ValueError as exc:
        raise DfaParseError(str(exc)) from None


def serialize(d: Dfa) -> str:
    """Render a Dfa in the text format; parse(serialize(d)) == d."""
    lines = [
        f"states {d.n}",
        "alphabet " + " ".join(d.alphabet),
        f"start {d.start}",
        ("finals " + " ".join(str(q) for q in sorted(d.finals))).rstrip(),
    ]
    for a, row in zip(d.alphabet, d.delta):
        lines.append(f"trans {a} " + " ".join(str(q) for q in row))
    return "\n".join(lines) + "\n"


def word_transformation(d: Dfa, w) -> Transformation:
    """The state map induced by reading w; the empty word gives the identity."""
    return reduce(operator.mul, (d.letter_transformation(a) for a in w), identity(d.n))


def accepts(d: Dfa, w) -> bool:
    q = d.start
    for a in w:
        q = d.delta[d.letter_index(a)][q - 1]
    return q in d.finals


# The fixed cost of one numpy pass over a level, in scalar successor reads.
_PASS_READS = 100


def _reachable(d: Dfa, delta: np.ndarray | None = None) -> list:
    """The states reachable from the start, in _partition's order, in pieces.

    A list holds each run of levels read one state at a time, and an
    array each level found by a pass over delta = np.array(d.delta),
    which is built here if a level needs it and it is not given.
    """
    rows = d.delta
    wide = _PASS_READS // len(rows)
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
            for row in rows:
                r = row[q - 1]
                if not seen[r]:
                    seen[r] = True
                    order.append(r)
        else:
            break
        if delta is None:
            delta = np.array(rows, dtype=np.int64)
        mask = np.frombuffer(seen, dtype=bool)
        level = np.array(order[i:])
        while True:
            met = delta[:, level - 1].T.ravel()  # parent-major, letter-minor
            met = met[~mask[met]]
            _, first = np.unique(met, return_index=True)
            level = met[np.sort(first)]
            mask[level] = True
            if len(level) <= wide:
                break
            pieces.append(level)
        order = level.tolist()
    return pieces


# Keys are int64; a key that would pass this is first replaced by its rank.
_KEY_LIMIT = 2**63 - 1


def _dense_rank(key: np.ndarray) -> np.ndarray:
    # np.unique(key, return_inverse=True)[1], without the fixed cost of
    # np.unique, which dominates on the tiny arrays of small DFAs.
    order = np.argsort(key)
    step = np.empty(key.size, dtype=np.int64)
    step[0] = 0
    ranked = key[order]
    np.not_equal(ranked[1:], ranked[:-1], out=step[1:])
    rank = np.empty_like(step)
    rank[order] = np.cumsum(step)
    return rank


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
    a wider one with a numpy pass that builds the next level.

    Refinement.  Moore rounds on 1-D keys: each letter in turn folds the
    successor's class into the key, key * ncls + cls[succ[j]], which is
    injective because cls < ncls.  The key is replaced by its rank before
    a fold that could pass the int64 range, and after the last letter.
    A state's new class depends only on its old class and its
    successors' classes, so a class of one state never splits again, and
    each round keys only the states of the other classes.  Folding starts
    from the old class, so the pieces of one class have consecutive
    ranks.  The first piece keeps the class's id and the others take
    fresh ids from ncls up: the ids stay compact, and those of the
    states not keyed stay valid.  A round that splits no class ends the
    refinement.  Last, the classes are renumbered by their representatives.
    """
    delta = np.array(d.delta, dtype=np.int64)
    states = np.concatenate(_reachable(d, delta))
    pos = np.zeros(d.n + 1, dtype=np.int64)
    pos[states] = np.arange(len(states))
    succ = pos[delta[:, states - 1]]
    fin = np.zeros(d.n + 1, dtype=bool)
    fin[list(d.finals)] = True
    fin = fin[states]
    cls = (fin != fin[0]).astype(np.int64)
    ncls = int(cls.max()) + 1
    live = np.flatnonzero(np.bincount(cls)[cls] > 1)
    while live.size:
        key, bound = cls[live], ncls
        for s in succ[:, live]:
            if bound > _KEY_LIMIT // ncls:
                key, bound = _dense_rank(key), live.size
            key, bound = key * ncls + cls[s], bound * ncls
        key = _dense_rank(key)
        piece_cls = np.empty(int(key.max()) + 1, dtype=np.int64)
        piece_cls[key] = cls[live]
        fresh = np.flatnonzero(piece_cls[1:] == piece_cls[:-1]) + 1
        if not fresh.size:
            break
        piece_cls[fresh] = np.arange(ncls, ncls + fresh.size)
        ncls += fresh.size
        cls[live] = piece_cls[key]
        live = live[np.bincount(key)[key] > 1]
    _, reps = np.unique(cls, return_index=True)
    reps.sort()
    # cls[reps] lists the refinement's ids in the new order; argsort inverts it.
    return states, succ, fin, np.argsort(cls[reps])[cls], reps


def minimize(d: Dfa) -> Dfa:
    """Unique minimal complete DFA for the same language, in canonical form.

    Unreachable states are dropped, equivalent states merged, and the
    result is renumbered by order of first reach via lexicographically
    smallest words, so two equivalent inputs minimize to equal values.
    """
    _, succ, fin, cls, reps = _partition(d)
    delta = (cls[succ[:, reps]] + 1).tolist()
    finals = (np.flatnonzero(fin[reps]) + 1).tolist()
    return Dfa(len(reps), d.alphabet, delta, 1, finals)


def nerode_partition(d: Dfa) -> tuple[np.ndarray, np.ndarray]:
    """The reachable states in first-reach order, and the class of each.

    State states[i] of d becomes state cls[i] + 1 of minimize(d).
    """
    states, _, _, cls, _ = _partition(d)
    return states, cls


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality, via comparison of canonical minimal forms."""
    if set(d1.alphabet) != set(d2.alphabet):
        raise ValueError("alphabet mismatch")
    if d2.alphabet != d1.alphabet:
        perm = [d2.alphabet.index(a) for a in d1.alphabet]
        d2 = Dfa(d2.n, d1.alphabet, tuple(d2.delta[i] for i in perm), d2.start, d2.finals)
    return minimize(d1) == minimize(d2)


def _unary_chain(d: Dfa, caller: str) -> tuple[list[int], int]:
    # The reachable states of a one-letter DFA in path order, and the index
    # j of the loop entry in that path (the tail length).  With one letter
    # the reachable states are the path from the start, and the loop entry
    # is the successor of its last state.  Each level holds one state, so
    # the walk is one scalar run.
    if len(d.alphabet) != 1:
        raise ValueError(f"{caller} needs a one-letter alphabet")
    (path,) = _reachable(d)
    return path, path.index(d.delta[0][path[-1] - 1])


def unary_structure(d: Dfa) -> tuple[int, int, int]:
    """(tail length, loop length, loop entry state) of a one-letter DFA."""
    path, j = _unary_chain(d, "unary_structure")
    return j, len(path) - j, path[j]


def chain_dfa(tail: int, loop: int, finals, alphabet: tuple[str, ...] = ("a",)) -> Dfa:
    """One-letter DFA from state 1 along a tail of `tail` states into a `loop`-cycle."""
    m = tail + loop
    row = tuple(range(2, m + 1)) + (tail + 1,)
    return Dfa(m, alphabet, (row,), 1, frozenset(finals))
