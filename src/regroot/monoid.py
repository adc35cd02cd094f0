"""Transformation monoids: closure enumeration and generator families.

A monoid of degree n is stored as one (m, n) uint8 array of 1-based image
rows: the identity first, then the other elements sorted
lexicographically, so the numbering does not depend on generator order.
Two indexes lead from a row to its number.

Keys, for every degree.  Each row's n bytes, read as a numpy ``S{n}``
string, are its key.  numpy compares such strings bytewise as unsigned
values, so key order is the lexicographic order of the rows; the images
are 1..n <= MAX_DEGREE = 255 and never 0, so the trailing NULs numpy
strips from ``S`` values never merge two keys.  A key is looked up by a
binary search among the sorted keys.

Codes, for n <= 8.  A row's base-n code is sum (row[i] - 1) n^(n-1-i), in
0..n^n - 1; codes also order as the rows do lexicographically.  Dense maps
indexed by code stand in for the keys where they pay: a bool map of the
codes found, and an int32 map from code to element number plus one.

The closure of a generator set is one breadth-first loop, a level at a
time: the level's rows, packed into one bytes buffer, are composed with
each generator g by a single ``bytes.translate`` through the 256-byte
table v -> g(v).  The products are deduplicated against the rows found
so far, held as a set of keys and, from the first level wide enough for
the dense map, as the bool map.  Every product of generators is reachable
that way.  The canonical order is read off at the end: the sorted keys,
or the map's codes in order, the same rows either way.

One lookup, TransMonoid._numbers, takes packed rows to their element
numbers plus one, 0 for a row that is no element; it alone chooses
between the int32 map and the keys.  index_of, membership and the right
translations go through it.  A right translation, one row of the right
Cayley graph (Froidure and Pin, "Algorithms for computing finite
semigroups", 1997), is one lookup of all the products f * g at once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .counting import _check_kl
from .dfa import Dfa
from .transform import Transformation, _as_int, _as_points, cycle_pair, identity

DEFAULT_MAX_ELEMENTS = 2_000_000
LARGEST2_MAX_N = 4

# Dense maps over the n^n base-n codes may take _DENSE_BYTES together: n^n
# for closure's bool map and 4 n^n for TransMonoid's int32 number map, so
# n <= 8; larger degrees always keep the set of keys and the key search.
# A pass over p products (a closure level, a right translation) runs on a
# map of b bytes when p > _DENSE_WIDTH + b // _DENSE_SPREAD: numpy's fixed
# cost per pass is worth _DENSE_WIDTH products on keys, and the map's
# zeroed pages about one product per _DENSE_SPREAD bytes.
_DENSE_BYTES = 100_000_000
_DENSE_WIDTH = 512
_DENSE_SPREAD = 2048

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class ClosureBudgetError(RuntimeError):
    """Raised when a closure would exceed its element cap."""


class TransMonoid:
    """A composition-closed set of equal-degree transformations.

    Always contains the identity.  Elements are numbered 0..len-1 with the
    identity at 0 and the rest sorted lexicographically; this canonical
    numbering doubles as the state numbering of root automata.  `rows` is
    the read-only (len, degree) uint8 array of their image rows.
    """

    def __init__(self, rows: np.ndarray):
        self.degree = rows.shape[1]
        rows.flags.writeable = False
        self.rows = rows
        self._keys = rows.view(f"S{self.degree}").ravel()
        self._number = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        """The elements in order, as tuples of their image rows.

        The tuples compare and hash equal to the Transformation of the
        same images; element(i) returns that.
        """
        return map(tuple, self.rows.tolist())

    def __contains__(self, f) -> bool:
        return self._lookup(f) > 0

    def element(self, i: int) -> Transformation:
        i = _as_int(i, "element number")
        if not 0 <= i < len(self.rows):
            raise ValueError(f"element number {i} out of range 0..{len(self.rows) - 1}")
        return Transformation(self.rows[i].tolist())

    def index_of(self, f) -> int:
        i = self._lookup(f) - 1
        if i < 0:
            raise ValueError(f"{tuple(f)} is not an element of this monoid")
        return i

    def _lookup(self, f) -> int:
        # The element number plus one of the row f, or 0 where it is none.
        row = tuple(f)
        try:
            packed = bytes(row)
        except (TypeError, ValueError):
            return 0
        return int(self._numbers(packed)[0]) if len(packed) == self.degree else 0

    def _numbers(self, packed: bytes) -> np.ndarray:
        # The element number plus one of each row packed in `packed`, or 0
        # where the row is no element: a gather through the dense number map
        # where it pays, else a binary search of the keys.  Keys hold no 0
        # byte, so NUL-padded values never match by accident.
        n = self.degree
        if _dense_pays(n, len(packed) // n, 4):
            if self._number is None:
                self._number = np.zeros(n**n, np.int32)
                self._number[_codes(self.rows)] = np.arange(1, len(self.rows) + 1)
            return self._number[_codes(_unpack(packed, n))]
        keys = np.frombuffer(packed, self._keys.dtype)
        own = self._keys
        pos = np.searchsorted(own[1:], keys) + 1  # own[1:] is sorted
        pos[keys == own[0]] = 0
        np.minimum(pos, len(own) - 1, out=pos)
        return np.where(own[pos] == keys, pos + 1, 0)

    def right_translation(self, g) -> np.ndarray:
        """The number plus one of f * g for each element f, as an array in
        element order.

        That is the transition row of a letter acting as g in the root
        automaton, whose state s is element s - 1.
        """
        g = g if isinstance(g, Transformation) else Transformation(g)
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        pos = self._numbers(self.rows.tobytes().translate(_table(g)))
        if not pos.all():
            raise ValueError(f"this monoid is not closed under multiplication by {tuple(g)}")
        return pos

    def rank_histogram(self) -> dict[int, int]:
        """Count of elements per rank."""
        ordered = np.sort(self.rows, axis=1)
        ranks = 1 + np.count_nonzero(np.diff(ordered, axis=1), axis=1)
        return {r: c for r, c in enumerate(np.bincount(ranks).tolist()) if c}


def _table(g: Transformation) -> bytes:
    # The bytes.translate table of v -> g(v), so translating a packed row
    # f gives the row of f * g; 0 and the values above the degree never
    # occur in a row.
    return bytes(1) + bytes(g) + bytes(255 - len(g))


def _dense_pays(n: int, products: int, code_bytes: int) -> bool:
    # Whether a pass over this many products of degree n runs on a dense
    # map of code_bytes bytes per code.
    if 5 * n**n > _DENSE_BYTES:
        return False
    return products > _DENSE_WIDTH + code_bytes * n**n // _DENSE_SPREAD


def _one_degree(maps, empty: str) -> tuple[list[Transformation], int]:
    # The maps as Transformations and their one degree; no maps at all is
    # the ValueError `empty`.
    maps = [f if isinstance(f, Transformation) else Transformation(f) for f in maps]
    if not maps:
        raise ValueError(empty)
    n = maps[0].degree
    for f in maps:
        if f.degree != n:
            raise ValueError(f"degree mismatch: {f.degree} vs {n}")
    return maps, n


def closure(gens, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> TransMonoid:
    """Least composition-closed superset of the generators plus identity."""
    gens, n = _one_degree(gens, "need at least one generator")
    try:
        cap = _as_int(max_elements, "element cap")
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"the element cap must be a positive integer, got {max_elements!r}")
    tables = [_table(g) for g in dict.fromkeys(gens)]
    key = np.dtype(f"S{n}")
    ident = bytes(range(1, n + 1))
    seen = {ident}  # the rows found, until the first wide level
    known = None  # from then on, the bool map of the codes found
    size = 1
    frontier = ident
    while frontier:
        products = b"".join(frontier.translate(t) for t in tables)
        if known is None and _dense_pays(n, len(products) // n, 1):
            known = np.zeros(n**n, bool)
            known[_codes(_unpack(b"".join(seen), n))] = True
        if known is None:
            fresh = set(np.frombuffer(products, key).tolist())
            fresh -= seen
            seen |= fresh
            frontier = b"".join(fresh)
        else:
            codes = _codes(_unpack(products, n))
            fresh = np.sort(codes[~known[codes]])  # np.unique is far slower
            first = np.ones(len(fresh), bool)
            first[1:] = fresh[1:] != fresh[:-1]
            fresh = fresh[first]
            known[fresh] = True
            frontier = _decode(fresh, n).tobytes()
        size += len(fresh)
        if size > cap:
            raise ClosureBudgetError(f"closure exceeds the cap of {cap} elements")
    if known is None:
        seen.remove(ident)
        rest = np.sort(np.frombuffer(b"".join(seen), key))
    else:
        known[_codes(_unpack(ident, n))] = False
        rest = _decode(np.flatnonzero(known), n)
    rows = np.frombuffer(ident + rest.tobytes(), np.uint8).reshape(-1, n)
    return TransMonoid(rows)


def _unpack(packed: bytes, n: int) -> np.ndarray:
    return np.frombuffer(packed, np.uint8).reshape(-1, n)


def _codes(rows: np.ndarray) -> np.ndarray:
    # The base-n code sum (row[i] - 1) n^(n-1-i) of each row, in int32, one
    # column at a time: codes order as the rows do lexicographically.
    n = rows.shape[1]
    code = rows[:, 0].astype(np.int32)
    for i in range(1, n):
        code *= n
        code += rows[:, i]
    code -= sum(n**i for i in range(n))
    return code


def _decode(codes: np.ndarray, n: int) -> np.ndarray:
    # The (len(codes), n) uint8 rows of the base-n codes, worked in int32,
    # where division is faster than in np.flatnonzero's int64.
    rows = np.empty((len(codes), n), np.uint8)
    rest = codes.astype(np.int32)
    for i in range(n - 1, -1, -1):
        rows[:, i] = rest % n
        rest //= n
    rows += 1
    return rows


def transformation_monoid(d: Dfa, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> TransMonoid:
    """Closure of the per-letter state maps of a DFA."""
    return closure([d.letter_transformation(a) for a in d.alphabet], max_elements=max_elements)


def tn_generators(n: int) -> list[Transformation]:
    """A minimal generating set of the full monoid of maps on {1..n}.

    For n >= 3 this is the transposition (1 2), the n-cycle (1 2 ... n)
    and the rank-(n-1) map sending n to 1; smaller n need fewer maps.
    """
    n = _as_int(n, "degree")
    if n < 1:
        raise ValueError(f"invalid degree {n!r}")
    if n == 1:
        return [identity(1)]
    if n == 2:
        return [Transformation((2, 1)), Transformation((1, 1))]
    swap = Transformation([2, 1] + list(range(3, n + 1)))
    cyc = Transformation(list(range(2, n + 1)) + [1])
    collapse = Transformation(list(range(1, n)) + [1])
    return [swap, cyc, collapse]


def ukl_generators(k: int, l: int) -> tuple[Transformation, Transformation]:
    """The double cycle and collapsing map generating the near-full monoid.

    The first generator is alpha = (1 2 ... k)(k+1 ... k+l).  The second,
    beta, is on 1..n-1 the cycle pi2 = (j j+1 ... n-1), with j = k if k or
    l is even and j = k - 1 if both are odd, and beta(n) = 1.  pi2 is the
    lexicographically smallest permutation of 1..n-1 that completes the
    k-cycle pi1 = (1 2 ... k) to the whole symmetric group S_{n-1}:
    - transitivity forces pi2 to act as one cycle on the points it moves
      past k;
    - two cycles that share one point generate A_{n-1} or S_{n-1}, so
      j = k works exactly when one of the two cycles is odd;
    - when k and l are both odd, the same argument starting at k - 1 gives
      the even-length cycle (k-1 ... n-1), which is an odd permutation.
    """
    k, l = _check_kl(k, l)
    n = k + l
    j = k - 1 if k % 2 and l % 2 else k
    return cycle_pair(k, l), Transformation([*range(1, j), *range(j + 1, n), j, 1])


@lru_cache(maxsize=None)
def _alpha_power_rows(k: int, l: int) -> frozenset[tuple[int, ...]]:
    return frozenset(tuple(f) for f in closure([cycle_pair(k, l)]))


def ukl_member(g, k: int, l: int) -> bool:
    """Membership test for the two-generated near-full monoid, by definition.

    True iff g is a power of the double cycle, or g merges some point of
    {1..k} with some point of {k+1..n} while missing some point of
    {k+1..n} from its image.
    """
    k, l = _check_kl(k, l)
    n = k + l
    row = tuple(g)
    if len(row) != n:
        raise ValueError(f"degree mismatch: {len(row)} vs {n}")
    row = _as_points(row, n, "image value")
    if row in _alpha_power_rows(k, l):
        return True
    img = set(row)
    if all(m in img for m in range(k + 1, n + 1)):
        return False
    return any(row[i] == row[j] for i in range(k) for j in range(k, n))


def ukl_member_mask(rows, k: int, l: int) -> np.ndarray:
    """ukl_member for every row of an (m, k + l) integer array, as a bool mask."""
    k, l = _check_kl(k, l)
    n = k + l
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"need an (m, {n}) array of image rows, got shape {rows.shape}")
    if rows.dtype.kind not in "iu":
        raise ValueError(f"image rows must be integers, got {rows.dtype}")
    bad = (rows < 1) | (rows > n)
    if bad.any():
        raise ValueError(f"image value {rows[bad][0]} out of range 1..{n}")
    r = rows.astype(np.int16)
    # alpha^t sends i <= k to (i - 1 + t) mod k + 1 and i > k to
    # k + (i - k - 1 + t) mod l + 1.  Read t mod k off the image of 1 and
    # t mod l off that of k + 1; k and l are coprime, so every such pair
    # is one power.
    low = (np.arange(k) + r[:, :1] - 1) % k + 1
    high = (np.arange(l) + r[:, k : k + 1] - k - 1) % l + k + 1
    power = (r[:, :k] == low).all(axis=1) & (r[:, k:] == high).all(axis=1)
    misses = np.zeros(len(r), bool)
    for p in range(k + 1, n + 1):
        misses |= ~(r == p).any(axis=1)
    merges = np.zeros(len(r), bool)
    for i in range(k):
        for j in range(k, n):
            merges |= r[:, i] == r[:, j]
    return power | misses & merges


def largest_two_generated(n: int) -> tuple[int, tuple[Transformation, Transformation]]:
    """Exhaustive maximum closure size over the generator pairs of degree n.

    Conjugating f and g by one permutation s conjugates the whole monoid
    they generate, so its size stays the same, and every pair is conjugate
    to one whose f is the lexicographically smallest map of its class under
    S_n (1, 3, 7 and 19 classes for n = 1..4).  So f runs over those maps
    and g over all n^n maps in sorted order; the first maximum is returned.
    n is budgeted to LARGEST2_MAX_N, as the pairs grow as n^n per class.
    """
    n = _as_int(n, "degree")
    if n < 1:
        raise ValueError(f"invalid degree {n!r}")
    if n > LARGEST2_MAX_N:
        raise ValueError(
            f"exhaustive pair search at degree {n} is over the budget of n <= {LARGEST2_MAX_N}"
        )
    # Row r of `rows` is the map number r in sorted order, of code r; with
    # p[0] = 0, p[f[p^-1]] is f with each point i renamed p[i].
    rows = _decode(np.arange(n**n, dtype=np.int32), n)
    perms = [np.array((0,) + p, np.uint8) for p in itertools.permutations(range(1, n + 1))]
    smallest = np.min([_codes(p[rows[:, np.argsort(p[1:])]]) for p in perms], axis=0)
    maps = [Transformation(row) for row in rows.tolist()]
    firsts = [maps[r] for r in np.unique(smallest).tolist()]
    sized = ((len(closure(fg)), fg) for fg in itertools.product(firsts, maps))
    return max(sized, key=lambda size_pair: size_pair[0])


def dfa_based_on(gens) -> Dfa:
    """DFA whose letters a, b, ... act as gens in turn, with start state 1 and finals {1}."""
    gens, n = _one_degree(gens, "need at least one transformation")
    if len(gens) > len(_LETTERS):
        raise ValueError("too many generators for the default alphabet")
    return Dfa(n, tuple(_LETTERS[: len(gens)]), tuple(tuple(g) for g in gens), 1, {1})
