"""Constructions for root(L) = { w : some positive power of w lies in L }.

The generic construction runs the subject DFA's transformation monoid as
a new state set: reading a word moves from the identity to the state map
the word induces, and a map is accepting when some positive iterate of it
takes the original start state into the original finals.  Only reachable
maps, i.e. the transformation monoid, are ever materialized.

A letter acting as g moves element f to f * g, so its transition row is
the row of the right Cayley graph for g.  The products are made and
numbered on one of two paths, chosen by the bytes of rows.  A small
monoid keeps its packed rows as bytes, translates them through the
bytes.translate table of g, looks each product up in a dict and marks
each final by the scalar walk of accepting_transformation; a larger one
takes every letter's row from one TransMonoid.right_translations call, in
the monoid's own form (`monoid` has the details), and marks the finals by
iterating q -> f(q) degree-many times over _RANK_BLOCK rows at a time,
decoding only that block of a coded monoid's codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dfa import _RANK_BLOCK, Dfa, _need_dfa, _unary_chain, accepts, chain_dfa, minimize
from .monoid import DEFAULT_MAX_ELEMENTS, TransMonoid, _table, transformation_monoid
from .transform import Transformation, _as_int


@dataclass(frozen=True)
class RootAutomaton:
    """Power automaton over the monoid of a source DFA, recognizing root(L).

    State s of `dfa` corresponds to monoid element s-1; state 1 is the
    identity and is the start state.
    """

    dfa: Dfa
    monoid: TransMonoid

    def element_of(self, state: int) -> Transformation:
        """The transformation behind a state of the underlying Dfa."""
        state = _as_int(state, "state")
        if not 1 <= state <= len(self.monoid):
            raise ValueError(f"state {state} out of range 1..{len(self.monoid)}")
        return self.monoid.element(state - 1)


def accepting_transformation(f, q0: int, finals) -> bool:
    """True iff some positive iterate of f maps q0 into finals.

    Walks q0, f(q0), f(f(q0)), ...; after degree-many applications the
    trajectory has visited every state it ever will.  An f that is not a
    Transformation is checked as one; finals that are not an iterable of
    states are a ValueError.
    """
    row = f if isinstance(f, Transformation) else Transformation(f)
    if type(q0) is not int:
        q0 = _as_int(q0, "state")
    if not 1 <= q0 <= len(row):
        raise ValueError(f"state {q0} out of range 1..{len(row)}")
    if type(finals) is not frozenset:
        try:
            finals = frozenset(finals)
        except TypeError:
            raise ValueError(f"finals must be an iterable of states, got {finals!r}") from None
    return _reaches(row, q0, finals)


def _reaches(row, q0: int, finals) -> bool:
    # accepting_transformation's walk on checked arguments: row is a
    # sequence of the images 1..n (a tuple, or the bytes of a packed row)
    # and finals a set.
    q = row[q0 - 1]
    for _ in row:  # len(row) steps
        if q in finals:
            return True
        q = row[q - 1]
    return False


# root_automaton builds a monoid of at most this many bytes of rows,
# len(m) * degree, on bytes (_root_few), and a larger one on arrays.
# Measured per call with the monoid given, on 40 random DFAs per row (1 to
# 40 states with one letter, 1 to 12 with more), median of 5 seeds, 2-core
# x86-64 box:
#
#   letters  bytes of rows   arrays    bytes
#   1            1-64          61 us     20 us
#   1           65-128         90 us     30 us
#   1          129-256        101 us     33 us
#   1          257-512        181 us     43 us
#   1          513-1,024      211 us     62 us
#   2            1-64          75 us     27 us
#   2           65-128         96 us     54 us
#   2          129-256        105 us     76 us
#   2          257-512        111 us    106 us
#   2          513-1,024      131 us    233 us
#   3            1-64          92 us     31 us
#   3           65-128        107 us     72 us
#   3          129-256        122 us    118 us
#   3          257-512        141 us    211 us
#   3          513-1,024      174 us    314 us
#
# Each letter costs the bytes path one dict lookup per element and the
# array path one fixed run of numpy calls, so the crossover falls as
# letters are added: past 1,024 bytes with one letter, about 512 with two
# and 256 with three.  One limit in bytes keeps the rule simple at the
# cost of one- and two-letter monoids just past it.
_BYTES_LIMIT = 256


def root_automaton(d: Dfa, *, monoid: TransMonoid | None = None,
                   max_elements: int = DEFAULT_MAX_ELEMENTS) -> RootAutomaton:
    """Build the automaton recognizing root(L(d)).

    A precomputed transformation monoid of d may be passed; only its
    closure is shared, and each call builds the table and finals anew.  A
    monoid missing a product of an element with a letter map is a
    ValueError, as are a d that is no Dfa and a monoid that is no TransMonoid.

    Two paths, chosen by the bytes of rows, len(monoid) * degree, give
    equal results.  A monoid of at most _BYTES_LIMIT bytes is built on
    Python bytes, lists and one dict (_root_few), with no numpy pass; a
    larger one on arrays, through one TransMonoid.right_translations call
    and _accepting_rows on blocks of _RANK_BLOCK rows.  The crossover table
    is in the comment on _BYTES_LIMIT.
    """
    _need_dfa(d, "root_automaton")
    if monoid is not None and not isinstance(monoid, TransMonoid):
        raise ValueError(f"monoid must be a TransMonoid, got {type(monoid).__name__}")
    m = monoid if monoid is not None else transformation_monoid(d, max_elements=max_elements)
    if m.degree != d.n:
        raise ValueError(f"monoid degree {m.degree} does not match DFA size {d.n}")
    if len(m) * m.degree <= _BYTES_LIMIT:
        delta, finals = _root_few(m, d)
    else:
        delta = m.right_translations(d.delta.tolist())
        hit = np.empty(len(m), dtype=bool)
        for start in range(0, len(m), _RANK_BLOCK):
            rows = m._rows(start, start + _RANK_BLOCK)
            hit[start : start + len(rows)] = _accepting_rows(rows, d.start, d.finals)
        finals = np.flatnonzero(hit) + 1
    return RootAutomaton(dfa=Dfa(len(m), d.alphabet, delta, 1, finals), monoid=m)


def _root_few(m: TransMonoid, d: Dfa) -> tuple[list[list[int]], list[int]]:
    # root_automaton's delta and finals on bytes.  The rows are slices of
    # one packed buffer, numbered by a dict; each letter's products are one
    # bytes.translate of the buffer, cut the same way, and one lookup each.
    n = m.degree
    packed = m.rows.tobytes()
    cuts = range(0, len(packed), n)
    rows = [packed[i : i + n] for i in cuts]
    number = {row: s for s, row in enumerate(rows, 1)}
    delta = []
    for g in d.delta.tolist():
        products = packed.translate(_table(g))
        try:
            delta.append([number[products[i : i + n]] for i in cuts])
        except KeyError:
            m.right_translations([g])  # a product is no element: its "not closed" error
            raise
    finals = frozenset(d.finals.tolist())
    return delta, [s for s, row in enumerate(rows, 1) if _reaches(row, d.start, finals)]


def _accepting_rows(rows: np.ndarray, q0: int, finals) -> np.ndarray:
    # accepting_transformation(f, q0, finals) for every image row f of
    # rows at once.  q[i] walks the trajectory of q0 under row i: f(x) of
    # row i sits at flat position base[i] + x, with base[i] = i*n - 1.
    m, n = rows.shape
    is_final = np.zeros(n + 1, dtype=bool)
    is_final[np.asarray(finals, dtype=np.intp)] = True  # int32 indices assign slowly
    flat = rows.ravel()
    base = np.arange(-1, m * n - 1, n)
    q = flat[base + q0]
    hit = is_final[q]
    for _ in range(n - 1):
        q = flat[base + q]
        hit |= is_final[q]
    return hit


def root_member_oracle(d: Dfa, w) -> bool:
    """Brute-force membership in root(L(d)): try w^1 .. w^n directly.

    The cutoff at n = d.n is sound because the states reached by the
    successive powers of w start repeating within n steps.
    """
    _need_dfa(d, "root_member_oracle")
    return any(accepts(d, w * m) for m in range(1, d.n + 1))


def unary_root(d: Dfa) -> Dfa:
    """Root of a one-letter language: a^s is in it iff s divides an accepted length.

    Keeps the reachable tail-and-loop chain of d (renumbered 1.. in path
    order, with tail length j and loop length l) and recomputes finals.
    State 1 keeps the start's status, since only the empty word powers to
    the empty word.  For s >= 1, state s + 1 is final iff a final tail
    position lies among s, 2s, ... below j, or gcd(l, s) divides the
    first-reach length b of a final loop state: that state accepts the
    lengths b, b+l, b+2l, ..., and some multiple of s is one of them iff
    gcd(l, s) divides b.
    """
    chain, j = _unary_chain(d, "unary_root")
    l = len(chain) - j
    accepting = set(d.finals.tolist())
    final = bytes(q in accepting for q in chain)
    # gcd(l, s) divides b iff it divides gcd(l, b).
    loop = {math.gcd(l, b) for b in range(j, len(chain)) if final[b]}
    finals = {1} if final[0] else set()
    for s in range(1, len(chain)):
        g = math.gcd(l, s)
        if 1 in final[s:j:s] or any(c % g == 0 for c in loop):
            finals.add(s + 1)
    return chain_dfa(j, l, finals, d.alphabet)


def root_state_complexity(d: Dfa) -> int:
    """Number of states of the minimal DFA for root(L(d))."""
    _need_dfa(d, "root_state_complexity")
    return minimize(root_automaton(d).dfa).n
