"""Transformation monoids: closure enumeration and generator families.

The closure of a generator set is computed by a breadth-first work queue,
composing each frontier element with each generator on the right; every
product of generators is reachable that way.  Elements are deduplicated
by their image rows and stored identity-first, the rest in lexicographic
order, so the result does not depend on generator order.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import lru_cache

from .dfa import Dfa
from .transform import Transformation, _make, cycle_pair, identity

DEFAULT_MAX_ELEMENTS = 2_000_000
LARGEST2_MAX_N = 4

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class ClosureBudgetError(RuntimeError):
    """Raised when a closure would exceed its element cap."""


class TransMonoid:
    """A composition-closed set of equal-degree transformations.

    Always contains the identity.  Elements are numbered 0..len-1 with the
    identity at 0 and the rest sorted lexicographically; this canonical
    numbering doubles as the state numbering of root automata.
    """

    def __init__(self, degree: int, rows: list[tuple[int, ...]], generators):
        self.degree = degree
        self.generators = tuple(generators)
        self._rows = rows
        self._index = {row: i for i, row in enumerate(rows)}

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        """The elements in order, as their stored image rows.

        The rows are plain tuples, which compare and hash equal to the
        Transformation of the same images; element(i) returns that.
        """
        return iter(self._rows)

    def __contains__(self, f) -> bool:
        return tuple(f) in self._index

    def element(self, i: int) -> Transformation:
        return _make(self._rows[i])

    def index_of(self, f) -> int:
        try:
            return self._index[tuple(f)]
        except KeyError:
            raise ValueError(f"{tuple(f)} is not an element of this monoid") from None

    def right_translation(self, g) -> tuple[int, ...]:
        """The number plus one of f * g for each element f, in element order.

        That is the transition row of a letter acting as g in the root
        automaton, whose state s is element s - 1.
        """
        index = self._index
        try:
            return tuple(index[tuple(g[x - 1] for x in f)] + 1 for f in self._rows)
        except KeyError:
            raise ValueError(f"this monoid is not closed under multiplication by {tuple(g)}") from None

    def rank_histogram(self) -> dict[int, int]:
        """Count of elements per rank."""
        hist: dict[int, int] = {}
        for row in self._rows:
            r = len(set(row))
            hist[r] = hist.get(r, 0) + 1
        return dict(sorted(hist.items()))

    def __repr__(self) -> str:
        gens = ", ".join(g.one_row() for g in self.generators)
        return f"TransMonoid(degree={self.degree}, size={len(self)}, generators=[{gens}])"


def closure(gens, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> TransMonoid:
    """Least composition-closed superset of the generators plus identity."""
    gens = [g if isinstance(g, Transformation) else Transformation(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    if not isinstance(max_elements, int) or max_elements < 1:
        raise ValueError(f"the element cap must be a positive integer, got {max_elements!r}")
    n = gens[0].degree
    for g in gens:
        if g.degree != n:
            raise ValueError(f"degree mismatch: {g.degree} vs {n}")
    gen_rows = list(dict.fromkeys(tuple(g) for g in gens))
    ident = tuple(range(1, n + 1))
    seen = {ident}
    queue = deque([ident])
    while queue:
        f = queue.popleft()
        for g in gen_rows:
            h = tuple(g[x - 1] for x in f)
            if h not in seen:
                if len(seen) >= max_elements:
                    raise ClosureBudgetError(
                        f"closure exceeds the cap of {max_elements} elements"
                    )
                seen.add(h)
                queue.append(h)
    seen.discard(ident)
    rows = [ident] + sorted(seen)
    return TransMonoid(n, rows, gens)


def transformation_monoid(d: Dfa, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> TransMonoid:
    """Closure of the per-letter state maps of a DFA."""
    return closure([d.letter_transformation(a) for a in d.alphabet], max_elements=max_elements)


def tn_generators(n: int) -> list[Transformation]:
    """A minimal generating set of the full monoid of maps on {1..n}.

    For n >= 3 this is the transposition (1 2), the n-cycle (1 2 ... n)
    and the rank-(n-1) map sending n to 1; smaller n need fewer maps.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"invalid degree {n!r}")
    if n == 1:
        return [identity(1)]
    if n == 2:
        return [Transformation((2, 1)), Transformation((1, 1))]
    swap = _make([2, 1] + list(range(3, n + 1)))
    cyc = _make(list(range(2, n + 1)) + [1])
    collapse = _make(list(range(1, n)) + [1])
    return [swap, cyc, collapse]


def _validate_kl(k: int, l: int) -> None:
    if not (isinstance(k, int) and isinstance(l, int)) or k < 2 or l < 2:
        raise ValueError(f"need cycle lengths k, l >= 2, got ({k}, {l})")
    if math.gcd(k, l) != 1:
        raise ValueError(f"cycle lengths must be coprime, got ({k}, {l})")


@lru_cache(maxsize=None)
def _pi2(k: int, l: int) -> tuple[int, ...]:
    # Lexicographically smallest permutation of {1..n-1} that together with
    # the k-cycle (1 2 ... k) generates the whole symmetric group there.
    n = k + l
    m = n - 1
    pi1 = _make([(i + 1) % k + 1 for i in range(k)] + list(range(k + 1, m + 1)))
    full = math.factorial(m)
    for cand in itertools.permutations(range(1, m + 1)):
        if len(closure([pi1, _make(cand)], max_elements=full + 1)) == full:
            return cand
    raise AssertionError(f"no second generator found for ({k}, {l})")


def ukl_generators(k: int, l: int) -> tuple[Transformation, Transformation]:
    """The double cycle and collapsing map generating the near-full monoid.

    The first generator is (1 2 ... k)(k+1 ... k+l).  The second agrees on
    1..n-1 with a permutation completing the k-cycle to the full symmetric
    group on n-1 points, and repeats that permutation's first value at n.
    """
    _validate_kl(k, l)
    alpha = cycle_pair(k, l)
    pi2 = _pi2(k, l)
    beta = _make(list(pi2) + [pi2[0]])
    return alpha, beta


@lru_cache(maxsize=None)
def _alpha_power_rows(k: int, l: int) -> frozenset[tuple[int, ...]]:
    return frozenset(tuple(f) for f in closure([cycle_pair(k, l)]))


def ukl_member(g, k: int, l: int) -> bool:
    """Membership test for the two-generated near-full monoid, by definition.

    True iff g is a power of the double cycle, or g merges some point of
    {1..k} with some point of {k+1..n} while missing some point of
    {k+1..n} from its image.
    """
    _validate_kl(k, l)
    n = k + l
    row = tuple(g)
    if len(row) != n:
        raise ValueError(f"degree mismatch: {len(row)} vs {n}")
    if row in _alpha_power_rows(k, l):
        return True
    img = set(row)
    if all(m in img for m in range(k + 1, n + 1)):
        return False
    return any(row[i] == row[j] for i in range(k) for j in range(k, n))


def largest_two_generated(n: int) -> tuple[int, tuple[Transformation, Transformation]]:
    """Exhaustive maximum closure size over all generator pairs of degree n.

    The search runs over all unordered pairs in index space with a
    precomputed composition table; n is budgeted to LARGEST2_MAX_N because
    the pair count grows as n^(2n).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"invalid degree {n!r}")
    if n > LARGEST2_MAX_N:
        raise ValueError(
            f"exhaustive pair search at degree {n} is over the budget of n <= {LARGEST2_MAX_N}"
        )
    els = sorted(itertools.product(range(1, n + 1), repeat=n))
    index = {e: i for i, e in enumerate(els)}
    size = len(els)
    table = [
        [index[tuple(g[x - 1] for x in f)] for g in els]
        for f in els
    ]
    ident = index[tuple(range(1, n + 1))]
    best = 0
    witness = (ident, ident)
    for i in range(size):
        for j in range(i, size):
            seen = bytearray(size)
            stack = [ident]
            seen[ident] = 1
            count = 1
            while stack:
                x = stack.pop()
                row = table[x]
                for g in (i, j):
                    y = row[g]
                    if not seen[y]:
                        seen[y] = 1
                        count += 1
                        stack.append(y)
            if count > best:
                best = count
                witness = (i, j)
    return best, (_make(els[witness[0]]), _make(els[witness[1]]))


def dfa_based_on(gens, start: int = 1, finals=(1,), letters: tuple[str, ...] | None = None) -> Dfa:
    """DFA whose letter maps are the given transformations, one letter each."""
    gens = [g if isinstance(g, Transformation) else Transformation(g) for g in gens]
    if not gens:
        raise ValueError("need at least one transformation")
    n = gens[0].degree
    for g in gens:
        if g.degree != n:
            raise ValueError(f"degree mismatch: {g.degree} vs {n}")
    if letters is None:
        if len(gens) > len(_LETTERS):
            raise ValueError("too many generators for the default alphabet")
        letters = tuple(_LETTERS[: len(gens)])
    return Dfa(n, letters, tuple(tuple(g) for g in gens), start, frozenset(finals))
