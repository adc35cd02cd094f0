import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regroot import Transformation, cycle_pair, identity

from conftest import same_degree_triples, transformations

ALPHA = Transformation([2, 1, 4, 5, 3])
BETA = Transformation([2, 3, 4, 1, 2])


def test_identity_values():
    assert identity(3) == (1, 2, 3)
    assert identity(1) == (1,)


def test_identity_rejects_bad_degree():
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError):
        identity(-2)
    with pytest.raises(ValueError):
        identity(256)


@pytest.mark.parametrize("n", [True, 2.0])
def test_identity_rejects_non_integer_degree(n):
    with pytest.raises(ValueError, match=f"degree {n} is not an integer"):
        identity(n)


def test_validation_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        Transformation([1, 4, 2])
    with pytest.raises(ValueError):
        Transformation([0, 1])
    with pytest.raises(ValueError):
        Transformation([])


def test_degree_above_the_maximum_is_refused():
    with pytest.raises(ValueError, match="degree 256 exceeds the supported maximum 255"):
        Transformation(range(1, 257))
    with pytest.raises(ValueError, match="degree 300 exceeds the supported maximum 255"):
        cycle_pair(200, 100)


def test_bool_images_are_rejected():
    with pytest.raises(ValueError, match="image value True is not an integer"):
        Transformation((True, True))


def test_float_images_are_rejected():
    with pytest.raises(ValueError, match=r"image value 2\.0 is not an integer"):
        Transformation((1, 2.0))


def test_numpy_images_are_stored_as_ints():
    f = Transformation(np.array([2, 1, 1]))
    assert f == (2, 1, 1)
    assert {type(v) for v in f} == {int}


def test_compose_applies_left_operand_first():
    assert ALPHA * BETA == (3, 2, 1, 2, 4)
    # the other order differs
    assert BETA * ALPHA == (1, 4, 5, 2, 1)


def test_compose_identity_is_neutral():
    assert identity(5) * BETA == BETA
    assert BETA * identity(5) == BETA


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        ALPHA * identity(4)


def test_compose_with_a_plain_tuple_is_a_type_error():
    with pytest.raises(TypeError):
        Transformation((2, 1)) * (1, 2)


@given(same_degree_triples())
def test_compose_is_associative(triple):
    f, g, h = triple
    assert (f * g) * h == f * (g * h)


def test_application_is_one_indexed():
    assert ALPHA(1) == 2
    assert ALPHA(5) == 3
    with pytest.raises(ValueError):
        ALPHA(0)
    with pytest.raises(ValueError):
        ALPHA(6)


@pytest.mark.parametrize("point", [True, False, 1.0, "1", None])
def test_application_refuses_non_integer_points(point):
    with pytest.raises(ValueError, match=re.escape(f"point {point!r} is not an integer")):
        Transformation((2, 1))(point)


def test_application_reads_numpy_integers():
    assert Transformation((2, 1))(np.int64(2)) == 1
    assert Transformation((2, 1))(np.uint8(1)) == 2
    with pytest.raises(ValueError, match=r"point 3 outside 1\.\.2"):
        Transformation((2, 1))(np.int64(3))


def test_image_and_rank():
    assert BETA.image() == {1, 2, 3, 4}
    assert BETA.rank() == 4
    assert identity(4).image() == {1, 2, 3, 4}
    assert identity(7).rank() == 7
    assert Transformation([1, 1, 1]).image() == {1}
    assert Transformation([3, 3, 3, 3, 3]).rank() == 1


def test_power_basics():
    assert ALPHA**6 == identity(5)  # cycle lengths 2 and 3
    assert ALPHA**1 == ALPHA
    assert ALPHA**0 == identity(5)
    with pytest.raises(ValueError):
        ALPHA ** (-1)


@given(transformations(6), st.integers(0, 8), st.integers(0, 8))
def test_power_adds_exponents(f, a, b):
    assert f ** (a + b) == (f**a) * (f**b)


@given(same_degree_triples())
def test_rank_never_grows_under_composition(triple):
    f, g, _ = triple
    h = f * g
    assert h.rank() <= min(f.rank(), g.rank())
    assert h.image() == frozenset(g(x) for x in f.image())


def test_is_unique():
    assert Transformation([3, 2, 2]).is_unique(3)
    assert not Transformation([2, 2, 3]).is_unique(2)
    assert not BETA.is_unique(2)  # preimages 1 and 5
    # a point outside the image is not unique
    assert not Transformation([2, 2, 3]).is_unique(1)


def test_complement_worked_example():
    rho = Transformation([3, 3, 2, 2, 2])
    assert rho.complement() == (2, 2, 3, 3, 3)


def test_complement_requires_rank_two():
    with pytest.raises(ValueError):
        identity(3).complement()
    with pytest.raises(ValueError):
        Transformation([1, 1, 1]).complement()


@st.composite
def rank_two_maps(draw, max_degree=7):
    n = draw(st.integers(2, max_degree))
    i, j = sorted(draw(st.sets(st.integers(1, n), min_size=2, max_size=2)))
    # force both image points to appear
    row = [i, j] + [draw(st.sampled_from([i, j])) for _ in range(n - 2)]
    perm = draw(st.permutations(range(n)))
    return Transformation([row[p] for p in perm])


@given(rank_two_maps())
def test_complement_is_an_involution(f):
    bar = f.complement()
    assert bar.complement() == f
    assert bar.rank() == 2
    assert bar.image() == f.image()


def test_cycle_pair():
    assert cycle_pair(2, 3) == ALPHA
    assert cycle_pair(1, 1) == (1, 2)
    assert cycle_pair(3, 4) == (2, 3, 1, 5, 6, 7, 4)
    with pytest.raises(ValueError):
        cycle_pair(0, 3)


@given(st.integers(1, 5), st.integers(1, 5))
def test_cycle_pair_order(k, l):
    f = cycle_pair(k, l)
    assert f ** math.lcm(k, l) == identity(k + l)


def test_value_semantics_and_ordering():
    assert Transformation([1, 2]) == Transformation((1, 2))
    assert hash(ALPHA) == hash((2, 1, 4, 5, 3))
    assert Transformation([1, 1]) < Transformation([1, 2])
    assert sorted([BETA, ALPHA])[0] == ALPHA


def test_rendering():
    assert ALPHA.one_row() == "[2 1 4 5 3]"
    assert repr(ALPHA) == "Transformation([2, 1, 4, 5, 3])"
