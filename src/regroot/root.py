"""Constructions for root(L) = { w : some positive power of w lies in L }.

The generic construction runs the subject DFA's transformation monoid as
a new state set: reading a word moves from the identity to the state map
the word induces, and a map is accepting when some positive iterate of it
takes the original start state into the original finals.  Only reachable
maps, i.e. the transformation monoid, are ever materialized.

The construction works on the monoid's packed image rows: a letter
acting as g moves element f to f * g, so its transition row is
TransMonoid.right_translation(g), the row of the right Cayley graph for
g; `monoid` describes how that finds the numbers of the products.  The
finals come from iterating q -> f(q) degree-many times over all rows at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dfa import Dfa, _unary_chain, accepts, chain_dfa, minimize
from .monoid import DEFAULT_MAX_ELEMENTS, TransMonoid, transformation_monoid
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
    Transformation is checked as one.
    """
    row = f if isinstance(f, Transformation) else Transformation(f)
    if type(q0) is not int:
        q0 = _as_int(q0, "state")
    if not 1 <= q0 <= len(row):
        raise ValueError(f"state {q0} out of range 1..{len(row)}")
    finals = frozenset(finals)
    q = row[q0 - 1]
    for _ in range(len(row)):
        if q in finals:
            return True
        q = row[q - 1]
    return False


def root_automaton(d: Dfa, *, monoid: TransMonoid | None = None,
                   max_elements: int = DEFAULT_MAX_ELEMENTS) -> RootAutomaton:
    """Build the automaton recognizing root(L(d)).

    A precomputed transformation monoid of d may be passed to share work
    across calls that differ only in start or final states; a monoid that
    misses a product of an element with a letter map is a ValueError.
    """
    m = monoid if monoid is not None else transformation_monoid(d, max_elements=max_elements)
    if m.degree != d.n:
        raise ValueError(f"monoid degree {m.degree} does not match DFA size {d.n}")
    delta = [m.right_translation(g).tolist() for g in d.delta]
    finals = np.flatnonzero(_accepting_rows(m.rows, d.start, d.finals)) + 1
    dfa = Dfa(len(m), d.alphabet, delta, 1, finals.tolist())
    return RootAutomaton(dfa=dfa, monoid=m)


def _accepting_rows(rows: np.ndarray, q0: int, finals) -> np.ndarray:
    # accepting_transformation(f, q0, finals) for every image row f of
    # rows at once.  A point x of row i sits at flat position p = i*n + x-1;
    # step[p] is the flat position of f(x) in the same row and final[p]
    # tells whether f(x) is final, so p walks the trajectory of q0 under
    # every f in step.
    m, n = rows.shape
    is_final = np.zeros(n + 1, dtype=bool)
    is_final[list(finals)] = True
    row_start = np.arange(-1, m * n - 1, n)
    step = (rows + row_start[:, None]).ravel()
    final = is_final[rows].ravel()
    p = row_start + q0
    hit = final[p]
    for _ in range(n - 1):
        p = step[p]
        hit |= final[p]
    return hit


def root_member_oracle(d: Dfa, w) -> bool:
    """Brute-force membership in root(L(d)): try w^1 .. w^n directly.

    The cutoff at n = d.n is sound because the states reached by the
    successive powers of w start repeating within n steps.
    """
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
    final = bytes(q in d.finals for q in chain)
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
    return minimize(root_automaton(d).dfa).n
