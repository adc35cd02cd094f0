"""Transformations of a finite set {1..n}.

A transformation is a total self-map of Z_n = {1, ..., n}, stored as its
image row: entry i (1-indexed) is the image of point i.  Composition is
written left to right, i.e. ``(f * g)(q) == g(f(q))``: f acts first.
"""

from __future__ import annotations

import operator

MAX_DEGREE = 255


def _as_int(v, what: str) -> int:
    # v as a plain int; bools, floats and other non-integers are refused.
    if type(v) is not bool:
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"{what} {v!r} is not an integer")


def _as_points(values, n: int, what: str) -> tuple[int, ...]:
    # The values as plain ints in 1..n, numpy integers included; a
    # ValueError names the first value that is not.  Rows of plain ints
    # in range, the common case, return after one pass.
    out = tuple(values)
    for v in out:
        if type(v) is not int or not 1 <= v <= n:
            break
    else:
        return out
    out = tuple(_as_int(v, what) for v in out)
    for v in out:
        if not 1 <= v <= n:
            raise ValueError(f"{what} {v} out of range 1..{n}")
    return out


class Transformation(tuple):
    """Immutable total self-map of {1..n}, represented by its image row.

    Behaves as a tuple of the images of 1..n, so equality, hashing and
    ordering (lexicographic on the image row) come for free.  ``f * g``
    composes with f applied first, matching left-to-right word reading.
    """

    __slots__ = ()

    def __new__(cls, images) -> "Transformation":
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("a transformation needs degree at least 1")
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
        return tuple.__new__(cls, _as_points(images, n, "image value"))

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, point: int) -> int:
        """Image of a point, 1-indexed."""
        point = _as_int(point, "point")
        if not 1 <= point <= len(self):
            raise ValueError(f"point {point} outside 1..{len(self)}")
        return self[point - 1]

    def __mul__(self, other: "Transformation") -> "Transformation":
        """Composition, self first: (self * other)(q) == other(self(q))."""
        if not isinstance(other, Transformation):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(
                f"degree mismatch: {len(self)} vs {len(other)}"
            )
        return Transformation(other[x - 1] for x in self)

    def __pow__(self, m: int) -> "Transformation":
        """m-fold composition with itself; the 0th power is the identity."""
        m = _as_int(m, "exponent")
        if m < 0:
            raise ValueError("power expects a nonnegative integer exponent")
        result = identity(len(self))
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def image(self) -> frozenset[int]:
        return frozenset(self)

    def rank(self) -> int:
        return len(set(self))

    def is_unique(self, k: int) -> bool:
        """True iff k has exactly one preimage.

        A point with no preimage at all is not considered unique; only
        image points can be unique.
        """
        return self.count(k) == 1

    def complement(self) -> "Transformation":
        """For a rank-2 map with image {i, j}, swap i and j on outputs."""
        img = set(self)
        if len(img) != 2:
            raise ValueError(f"complement needs rank 2, got rank {len(img)}")
        i, j = sorted(img)
        return Transformation(j if v == i else i for v in self)

    def one_row(self) -> str:
        """One-row rendering, e.g. '[2 1 4 5 3]'."""
        return "[" + " ".join(str(v) for v in self) + "]"

    def __repr__(self) -> str:
        return f"Transformation({list(self)!r})"


def identity(n: int) -> Transformation:
    n = _as_int(n, "degree")
    if n < 1:
        raise ValueError(f"invalid degree {n!r}: need a positive integer")
    if n > MAX_DEGREE:  # before a huge n builds a row for Transformation to refuse
        raise ValueError(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
    return Transformation(range(1, n + 1))


def cycle_pair(k: int, l: int) -> Transformation:
    """The permutation (1 2 ... k)(k+1 k+2 ... k+l) of degree k + l."""
    k, l = _as_int(k, "cycle length"), _as_int(l, "cycle length")
    if k < 1 or l < 1:
        raise ValueError("cycle lengths must be positive integers")
    n = k + l
    if n > MAX_DEGREE:  # before a huge n builds a row for Transformation to refuse
        raise ValueError(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
    row = [0] * n
    for i in range(k):
        row[i] = (i + 1) % k + 1
    for i in range(l):
        row[k + i] = k + (i + 1) % l + 1
    return Transformation(row)
