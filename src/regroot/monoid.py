"""Transformation monoids: closure enumeration and generator families.

A monoid of degree n lists its elements in one canonical order: the
identity first, then the other elements sorted lexicographically, so the
numbering does not depend on generator order.  It keeps, for its whole
life, the form closure built it in: an (m, n) uint8 array of 1-based image
rows, or, for a monoid that closure built on codes (below), an int32 array
of their base-n codes, 4 bytes an element against n.  A coded monoid's
size, lookups, right translations and rank histogram read the codes, and
each read of its rows decodes them anew.  A monoid holds that store and
nothing else.  Two indexes lead from a row to its number.

Keys, for every degree.  Each row's n bytes, read as a numpy ``S{n}``
string, are its key.  numpy compares such strings bytewise as unsigned
values, so key order is the lexicographic order of the rows; the images
are 1..n <= MAX_DEGREE = 255 and never 0, so the trailing NULs numpy
strips from ``S`` values never merge two keys.  A key is looked up by a
binary search among the sorted keys.

Codes, for the degrees whose dense maps fit a byte budget: n <= 8 as
shipped, and at most 9, the largest degree whose codes an int32 holds.  A
row's base-n code is sum (row[i] - 1) n^(n-1-i), in 0..n^n - 1; codes
also order as the rows do lexicographically, so a coded monoid looks a
code up by a binary search among its own.  Dense maps indexed by code
stand in for the searches where they pay: closure's bool map of the codes
found, and a coded monoid's int32 map from code to element number plus
one, built for one lookup.  A generator g acts on a code digit by digit,
so with h = ceil(n / 2) two tables give the code of f * g from that of f:
one over the n^h values of the last h digits, one over the n^(n-h) values
of the first n - h, 4,096 entries each at n = 8.  Two tables of the same
shape give the image set of each half as a 16-bit mask, so a code's rank
is the popcount of their OR.  All four are read off one decoding of
the halves (_half_rows), and codes become rows through dfa._digits, the
digit loop of the decimal writer.

The closure of a generator set is one breadth-first loop, a level at a
time, on one of two representations.  Narrow levels are packed rows: the
level's rows, in one bytes buffer, are composed with each generator g by a
single ``bytes.translate`` through the 256-byte table v -> g(v), and the
products are deduplicated against a set of keys.  From the first level
wide enough for the bool map, the level is an int32 array of codes: its
products under g are two gathers through g's code tables, deduplicated
against the map, and no row is built.  Every product of generators is
reachable that way.  The canonical order is read off at the end: the
sorted keys, which make the rows, or the map's codes in order, which the
monoid keeps as they are.

One lookup, TransMonoid._numbers, takes codes of a coded monoid, or keys
of any other, to their element numbers plus one, 0 for one that is no
element; it alone chooses between the int32 map and a binary search.
index_of, membership and right_translations go through it.  The last
gives a root automaton's whole table, rows of the right Cayley graph
(Froidure and Pin, "Algorithms for computing finite semigroups", 1997),
from one lookup of every product f * g, made as closure makes a level:
one _products call over all the maps' code tables, or bytes.translate.
"""

from __future__ import annotations

import itertools

import numpy as np

from .counting import _check_kl
from .dfa import _RANK_BLOCK, Dfa, _digits, _need_dfa, _unseen
from .transform import Transformation, _as_int, cycle_pair, identity

DEFAULT_MAX_ELEMENTS = 2_000_000
LARGEST2_MAX_N = 4

# A dense map over the n^n base-n codes may take _DENSE_BYTES: n^n for
# closure's bool map, 4 n^n for the int32 number map of a lookup; the two
# never exist at once.  So both run up to n = 8, and larger degrees keep the
# set of keys and the key search.  A budget of 9^9 bytes or more puts n = 9
# closures on codes; no budget puts n >= 10 there, whose codes overflow an
# int32.
# A pass over p products (a closure level, a table of right translations)
# runs on a map of b bytes when p > _DENSE_WIDTH + b // spread: numpy's
# fixed cost per pass is worth _DENSE_WIDTH products on keys, and the map's
# zeroed pages about one product per spread bytes, _DENSE_SPREAD for
# closure's bool map and _NUMBER_SPREAD for the number map.
#
# Closure time in us, median over 8 random generator sets per row (1-3
# maps, each a permutation or a map into 1..n of the points; best of 5 on
# one pinned core): on keys alone, as shipped (switch above the products
# given), and on codes from the first level.
#
#   n  switch  elements          keys  shipped   codes
#   5     513  500-1,500          781      700     880
#              1,500-3,000      1,728    1,375   1,241
#              3,000-6,000      3,055    1,211   1,183
#   6     534  500-1,500        1,008    1,124   1,201
#              1,500-3,000      2,589    1,453   1,335
#              6,000-12,000     9,017    1,983   1,824
#   7     914  500-1,500          785      714   1,048
#              1,500-3,000      1,598    2,004   1,550
#              6,000-12,000     7,538    2,142   2,808
#   8   8,704  3,000-6,000      3,840    4,006   7,378
#              6,000-12,000     6,090    5,980   5,117
#              12,000-25,000   15,877   12,885   6,690
#              25,000-60,000   32,994   17,089   7,594
#
# A switch at 256 products was within the noise of the shipped rule at
# n = 5..7.  At n = 8 one at about 2,048 products would halve the closures
# of 12,000 elements and more.
#
# The int32 number map of a lookup has its own price, one product per
# _NUMBER_SPREAD bytes.  Its 64 MiB at n = 8 are past the 32 MiB mmap
# threshold that importing regroot sets, so each lookup maps fresh pages and
# the kernel zeroes every page the scatter touches; a smaller map is zeroed
# in the heap.  Lookup time in ms, map against search, on the products of
# each monoid's generators, repeated to the count given (best of 7, one
# pinned core):
#
#   n  monoid (elements)      products    map / search   switch, 2048 -> 128
#   5  U_{2,3} (1,857)             250   0.03 / 0.05          518 -> 609
#                                2,000   0.04 / 0.11
#   6  S_6 (720)                   250   0.05 / 0.06          603 -> 1,970
#                                2,000   0.06 / 0.09
#   7  S_7 (5,040)               8,000   0.28 / 0.26        2,120 -> 26,247
#                               16,000   0.34 / 0.43
#      T_6 on 7 points (46,656) 16,000   0.47 / 0.42
#                               32,000   0.48 / 0.78
#   8  A_8 (20,160)             80,000   8.9 / 2.1         33,280 -> 524,800
#                              320,000  10.1 / 8.6
#                              480,000  10.4 / 12.7
#      S_8 (40,320)            480,000  12.3 / 11.2
#                              640,000  12.1 / 15.0
#      U_{3,4} on 8 points     480,000  15.1 / 13.7
#        (607,285)             640,000  17.0 / 18.7
#
# One price cannot fit both sides of the mmap threshold.  128 puts n = 8 at
# its crossover, 400,000-640,000 products, where a wrong choice costs up to
# 9 ms a lookup; n = 6 and 7 then search up to 0.2 ms too long a lookup
# between their crossovers, below 250 and at 8,000-32,000 products, and
# their new switches.  A_8's and S_8's root automata (40,320 and 80,640 products)
# now search, and U_{3,4}'s (1,214,570 at n = 7) still takes the map.
_DENSE_BYTES = 100_000_000
_DENSE_WIDTH = 512
_DENSE_SPREAD = 2048
_NUMBER_SPREAD = 128

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class ClosureBudgetError(ValueError):
    """Raised when a closure would exceed its element cap."""


class TransMonoid:
    """A composition-closed set of equal-degree transformations.

    Always contains the identity.  Elements are numbered 0..len-1 with the
    identity at 0 and the rest sorted lexicographically; this canonical
    numbering doubles as the state numbering of root automata.  `rows` is
    the read-only (len, degree) uint8 array of their image rows.  A monoid
    keeps the form closure built it in, and nothing else: its rows, or for
    a monoid built on codes their int32 codes in the same order, which each
    read of `rows` decodes anew.
    """

    def __init__(self, store: np.ndarray, degree: int):
        # store is the (len, degree) uint8 rows or the (len,) int32 codes.
        store.flags.writeable = False
        self.degree = degree
        self._store = store
        self._on_codes = store.ndim == 1

    @property
    def rows(self) -> np.ndarray:
        if not self._on_codes:
            return self._store
        rows = _decode(self._store, self.degree)
        rows.flags.writeable = False
        return rows

    def _rows(self, start: int, stop: int) -> np.ndarray:
        # The rows of elements start..stop - 1, a coded monoid's decoded anew.
        part = self._store[start:stop]
        return _decode(part, self.degree) if self._on_codes else part

    def __len__(self) -> int:
        return len(self._store)

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
        if not 0 <= i < len(self):
            raise ValueError(f"element number {i} out of range 0..{len(self) - 1}")
        if not self._on_codes:
            return Transformation(self._store[i].tolist())
        n, code, row = self.degree, int(self._store[i]), []
        for _ in range(n):
            code, digit = divmod(code, n)
            row.append(digit + 1)
        return Transformation(row[::-1])

    def index_of(self, f) -> int:
        i = self._lookup(f) - 1
        if i < 0:
            raise ValueError(f"{tuple(f)} is not an element of this monoid")
        return i

    def _lookup(self, f) -> int:
        # The element number plus one of the row f, or 0 where it is none.
        # A row with an image outside 1..n would code as some other row.
        row = tuple(f)
        try:
            packed = bytes(row)
        except (TypeError, ValueError):
            return 0
        n = self.degree
        if len(packed) != n or min(packed) < 1 or max(packed) > n:
            return 0
        query = _codes(_unpack(packed, n)) if self._on_codes else np.frombuffer(packed, f"S{n}")
        return int(self._numbers(query)[0])

    def _numbers(self, query: np.ndarray) -> np.ndarray:
        # The element number plus one of each query, or 0 where it is no
        # element.  Queries come in the store's form: codes, looked up by a
        # gather through the dense number map where it pays, else by a
        # binary search of the codes; or the S{n} keys of rows, by a binary
        # search of the monoid's keys.  The rows' images are in 1..n; keys
        # hold no 0 byte, so NUL-padded values never match by accident.
        n = self.degree
        own = self._store
        if self._on_codes and _dense_pays(n, len(query), 4):
            number = np.zeros(n**n, np.int32)
            number[own] = np.arange(1, len(own) + 1)
            return number[query]
        if not self._on_codes:
            own = own.view(query.dtype).ravel()
        pos = np.searchsorted(own[1:], query) + 1  # own[1:] is sorted
        pos[query == own[0]] = 0
        np.minimum(pos, len(own) - 1, out=pos)
        return np.where(own[pos] == query, pos + 1, 0)

    def right_translations(self, maps) -> np.ndarray:
        """A (len(maps), len) array: row j holds the number plus one of
        f * maps[j] for each element f, in element order.

        That is the transition table of the root automaton whose letters
        act as the maps, and whose state s is element s - 1.
        """
        maps, n = _one_degree(maps, "need at least one map")
        if n != self.degree:
            raise ValueError(f"degree mismatch: {n} vs {self.degree}")
        if self._on_codes:
            query = _products(self._store, [_halves(_table(g), n) for g in maps], n)
        else:
            packed = self._store.tobytes()
            query = np.frombuffer(b"".join(packed.translate(_table(g)) for g in maps), f"S{n}")
        pos = self._numbers(query).reshape(len(maps), -1)
        for g, row in zip(maps, pos):
            if not row.all():
                raise ValueError(f"this monoid is not closed under multiplication by {tuple(g)}")
        return pos

    def rank_histogram(self) -> dict[int, int]:
        """Count of elements per rank."""
        if not self._on_codes:
            ordered = np.sort(self._store, axis=1)
            counts = np.bincount(1 + np.count_nonzero(np.diff(ordered, axis=1), axis=1)).tolist()
        else:
            counts = _rank_counts(self._store, self.degree)
        return {r: c for r, c in enumerate(counts) if c}


def _table(g: Transformation) -> bytes:
    # The bytes.translate table of v -> g(v), so translating a packed row
    # f gives the row of f * g; 0 and the values above the degree never
    # occur in a row.
    return bytes(1) + bytes(g) + bytes(255 - len(g))


def _dense_pays(n: int, products: int, code_bytes: int) -> bool:
    # Whether a pass over this many products of degree n runs on a dense
    # map of code_bytes bytes per code: closure's bool map (1) or the int32
    # number map (4).
    size = code_bytes * n**n
    spread = _DENSE_SPREAD if code_bytes == 1 else _NUMBER_SPREAD
    return n <= 9 and size <= _DENSE_BYTES and products > _DENSE_WIDTH + size // spread


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
    frontier = ident  # packed rows, then from the first wide level codes
    while len(frontier):
        if known is None and _dense_pays(n, len(frontier) // n * len(tables), 1):
            known = np.zeros(n**n, bool)
            known[_codes(_unpack(b"".join(seen), n))] = True
            halves = [_halves(t, n) for t in tables]
            frontier = _codes(_unpack(frontier, n))
        if known is None:
            products = b"".join(frontier.translate(t) for t in tables)
            fresh = set(np.frombuffer(products, key).tolist())
            fresh -= seen
            seen |= fresh
            frontier = b"".join(fresh)
        else:
            # The products not yet found are selected by index and moved to
            # the front of the products (dfa._unseen), sorted there and
            # deduplicated into the next frontier, as np.unique is far
            # slower.  No other name holds the products, so they are freed
            # with the level: closing T_8 and reading its ranks peaked at
            # 135 MB, against 145 MB with a sorted copy and the products
            # kept until the next level.  Nearly every sorted code is a
            # first occurrence, and so dense a mask selects faster as a
            # boolean index.
            fresh = _unseen(_products(frontier, halves, n), known)
            fresh.sort()
            first = np.ones(len(fresh), bool)
            first[1:] = fresh[1:] != fresh[:-1]
            fresh = fresh[first]
            known[fresh] = True
            frontier = fresh
        size += len(fresh)
        if size > cap:
            raise ClosureBudgetError(f"closure exceeds the cap of {cap} elements")
    if known is None:
        seen.remove(ident)
        rest = np.sort(np.frombuffer(b"".join(seen), key))
        return TransMonoid(np.frombuffer(ident + rest.tobytes(), np.uint8).reshape(-1, n), n)
    # The identity's code first, then the others in order, which the monoid
    # keeps: no row is decoded here.  The map is read in slices of 2^20
    # codes, so that no int64 array of every code is built.
    codes = np.empty(size, np.int32)
    codes[:1] = _codes(_unpack(ident, n))
    known[codes[0]] = False
    end = 1
    for start in range(0, len(known), 1 << 20):
        found = np.flatnonzero(known[start : start + (1 << 20)])
        found += start
        codes[end : end + len(found)] = found
        end += len(found)
    return TransMonoid(codes, n)


def _halves(table: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    # The code tables of one generator g, given by its translate table: with
    # h = ceil(n / 2), code c = hi n^h + lo has the product code
    # high[hi] + low[lo], g applied digit by digit.  low[lo] is the code of
    # g on the last h digits, high[hi] that of g on the first n - h, times
    # n^h.  Both are read off the rows of _half_rows.
    unit = n ** ((n + 1) // 2)
    high, low = (_codes(_unpack(rows.tobytes().translate(table), n)) for rows in _half_rows(n))
    low %= unit
    high -= high % unit
    return high, low


def _half_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    # The rows of the codes hi n^h and lo, h = ceil(n / 2), for every hi and
    # lo that _split gives: each half as a whole row, its other digits 0.
    unit = n ** ((n + 1) // 2)
    return _decode(np.arange(0, n**n, unit), n), _decode(np.arange(unit), n)


def _products(codes: np.ndarray, halves, n: int) -> np.ndarray:
    # The codes of f * g for each code f and each generator's code tables
    # (high, low) in turn, in one int32 array: two gathers per generator.
    # Every index is in range; take writes straight into `out` in any mode
    # but "raise", which buffers it.
    hi, lo = _split(codes, n)
    out = np.empty(len(halves) * len(codes), np.int32)
    part = np.empty_like(codes)
    for i, (high, low) in enumerate(halves):
        dest = out[i * len(codes) : (i + 1) * len(codes)]
        high.take(hi, out=dest, mode="wrap")
        low.take(lo, out=part, mode="wrap")
        dest += part
    return out


def _split(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # The halves hi and lo of each code c = hi n^h + lo, h = ceil(n / 2):
    # the indexes into the tables of _halves and _rank_counts, in intp, which
    # take and indexing would otherwise copy them to on every gather.
    unit = n ** ((n + 1) // 2)
    hi = np.floor_divide(codes, unit, dtype=np.intp)
    lo = hi * unit
    np.subtract(codes, lo, out=lo)
    return hi, lo


def _rank_counts(codes: np.ndarray, n: int) -> list[int]:
    # The count of the codes of each rank 0..n.  The image set of a code's
    # last h digits is a 16-bit mask (_image_masks), bit v - 1 for image
    # v, read from a table over the n^h values of lo; that of its first
    # n - h digits from one over the n^(n-h) values of hi, both read off
    # _half_rows.  The codes are counted by the OR of their two masks, and
    # the 2^n masks by their popcounts.  Blocks of _RANK_BLOCK codes keep
    # the temporaries small: at T_8 closure and ranks peak at 282 MB RSS,
    # against 394 MB in one pass.
    h = (n + 1) // 2
    high_rows, low_rows = _half_rows(n)
    high = _image_masks(high_rows[:, : n - h])
    low = _image_masks(low_rows[:, n - h :])
    by_mask = np.zeros(1 << n, np.int64)
    for start in range(0, len(codes), _RANK_BLOCK):
        hi, lo = _split(codes[start : start + _RANK_BLOCK], n)
        masks = high[hi]
        masks |= low[lo]
        by_mask += np.bincount(masks, minlength=1 << n)
    counts = [0] * (n + 1)
    for v, c in enumerate(by_mask.tolist()):
        counts[v.bit_count()] += c
    return counts


def _image_masks(rows: np.ndarray) -> np.ndarray:
    # The image set of each row of images 1..9 at most, bit v - 1 for v.
    return np.bitwise_or.reduce(np.uint16(1) << (rows - 1), axis=1)


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
    # The (len(codes), n) uint8 rows of the base-n codes, by _digits.
    rows = np.empty((len(codes), n), np.uint8)
    _digits(codes, n, rows)
    rows += 1
    return rows


def transformation_monoid(d: Dfa, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> TransMonoid:
    """Closure of the per-letter state maps of a DFA."""
    _need_dfa(d, "transformation_monoid")
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


def ukl_member(g, k: int, l: int) -> bool:
    """Membership test for the two-generated near-full monoid, by definition.

    True iff g is a power of the double cycle, or g merges some point of
    {1..k} with some point of {k+1..n} while missing some point of
    {k+1..n} from its image.  This is ukl_member_mask on the one row g,
    once g has passed the checks of a Transformation of degree k + l.
    """
    k, l = _check_kl(k, l)
    n = k + l
    row = tuple(g)
    if len(row) != n:
        raise ValueError(f"degree mismatch: {len(row)} vs {n}")
    return bool(ukl_member_mask(np.array([Transformation(row)]), k, l)[0])


def ukl_member_mask(rows, k: int, l: int) -> np.ndarray:
    """The rule of ukl_member for every row of an (m, k + l) integer array, as a bool mask."""
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
    low = (np.arange(k, dtype=np.int16) + r[:, :1] - 1) % k + 1
    high = (np.arange(l, dtype=np.int16) + r[:, k : k + 1] - k - 1) % l + k + 1
    power = (r[:, :k] == low).all(axis=1) & (r[:, k:] == high).all(axis=1)
    # The image table: entry (v, j) has bit 1 when a point of 1..k in row j
    # maps to v, and bit 2 when a point of k+1..n does.  Row j misses a high
    # point where one of entries k+1..n of table column j is 0, and merges
    # across where some entry of that column is 3.  The columns of r scatter
    # in one at a time, widened to intp first, so the offsets v m + j take m
    # words, not m n, and do not wrap in int16 whatever numpy's promotion.
    m = len(r)
    table = np.zeros((n + 1, m), np.uint8)
    flat = table.ravel()
    base = np.arange(m, dtype=np.intp)
    for i in range(n):
        flat[r[:, i].astype(np.intp) * m + base] |= 1 if i < k else 2
    misses = (table[k + 1 :] == 0).any(axis=0)
    merges = (table == 3).any(axis=0)
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
