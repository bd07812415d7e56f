"""Rational polyhedral cones: double description, containment, transforms."""

import random
from fractions import Fraction

import pytest

from k3cone import (
    DimensionMismatch,
    Isometry,
    Lattice,
    cone_from_inequalities,
    contains,
    interiors_disjoint,
    intersection,
    transform_cone,
)

from conftest import GRAM_P, GRAM_R, GRAM_U


def test_single_halfplane():
    lat = Lattice(GRAM_U)
    c = cone_from_inequalities(lat, [(-1, 1)])
    assert c.rays == ((1, 0),)
    assert c.lineality == ((1, 1),)
    assert not c.pointed
    assert c.full_dim
    assert c.normals == ((-1, 1),)


def test_opposite_halfplanes_collapse_to_line():
    lat = Lattice(GRAM_U)
    c = cone_from_inequalities(lat, [(-1, 1), (1, -1)])
    assert c.rays == ()
    assert c.lineality == ((1, 1),)
    assert not c.full_dim
    assert c.dimension() == 1


def test_full_space_cone():
    lat = Lattice(GRAM_U)
    c = cone_from_inequalities(lat, [])
    assert c.is_full_space
    assert c.rays == ()
    assert len(c.lineality) == 2


def test_chamber_cone_desk_values():
    lat = Lattice(GRAM_P)
    c = cone_from_inequalities(lat, [(0, -1), (2, 3)])
    assert c.rays == ((1, 0), (3, 4))
    assert c.pointed and c.full_dim
    assert c.normals == ((0, -1), (2, 3))


def test_contains_uses_pairing_inequalities():
    lat = Lattice(GRAM_P)
    c = cone_from_inequalities(lat, [(0, -1), (2, 3)])
    assert contains(lat, c, (1, 0))
    assert contains(lat, c, (3, 4))  # boundary counts
    assert contains(lat, c, (2, 1))
    assert not contains(lat, c, (0, 1))
    assert not contains(lat, c, (-1, 0))


def test_rays_generate_their_cone():
    """Every nonnegative integer combination of rays lies back in the cone."""
    rng = random.Random(5)
    lat = Lattice(GRAM_P)
    c = cone_from_inequalities(lat, [(0, -1), (2, 3)])
    for _ in range(50):
        coeffs = [rng.randint(0, 9) for _ in c.rays]
        v = tuple(sum(a * r[i] for a, r in zip(coeffs, c.rays)) for i in range(2))
        assert contains(lat, c, v)


def test_intersection():
    lat = Lattice(GRAM_P)
    chamber = cone_from_inequalities(lat, [(0, -1), (2, 3)])
    half = cone_from_inequalities(lat, [(1, 0)])
    both = intersection(lat, chamber, half)
    assert both.rays == ((1, 0), (3, 4))
    # cutting with an opposite halfplane leaves only the face where (2,3) vanishes
    face = intersection(lat, chamber, cone_from_inequalities(lat, [(-2, -3)]))
    assert face.rays == ((3, 4),)
    assert face.dimension() == 1


def test_normals_rejected_on_wrong_rank():
    lat = Lattice(GRAM_U)
    with pytest.raises(DimensionMismatch):
        cone_from_inequalities(lat, [(1, 0, 0)])


def test_transform_cone_covariance():
    """transform_cone(g . C) must equal the cone cut by transformed normals."""
    lat = Lattice(GRAM_P)
    g = Isometry(lat, ((3, -2), (4, -3)))
    c = cone_from_inequalities(lat, [(0, -1), (2, 3)])
    moved = transform_cone(lat, c, g)
    assert moved.rays == tuple(sorted(map(g.apply, c.rays)))
    # membership transports: x in C iff g(x) in g(C)
    rng = random.Random(17)
    for _ in range(100):
        x = tuple(rng.randint(-9, 9) for _ in range(2))
        assert contains(lat, c, x) == contains(lat, moved, g.apply(x))


def test_transform_cone_canonicalizes():
    lat = Lattice(GRAM_P)
    g = Isometry(lat, ((3, -2), (4, -3)))
    c = cone_from_inequalities(lat, [(0, -1), (2, 3)])
    round_trip = transform_cone(lat, transform_cone(lat, c, g), g.inverse())
    assert round_trip.rays == c.rays
    assert round_trip.lineality == c.lineality


def test_interiors_disjoint():
    lat = Lattice(GRAM_U)
    a = cone_from_inequalities(lat, [(1, 0), (0, 1)])
    b = cone_from_inequalities(lat, [(-1, 0), (0, -1)])
    assert interiors_disjoint(lat, a, b)
    # sharing a boundary ray is still disjoint in the interior
    upper = cone_from_inequalities(lat, [(1, 0)])
    lower = cone_from_inequalities(lat, [(-1, 0)])
    assert interiors_disjoint(lat, upper, lower)
    assert not interiors_disjoint(lat, a, a)
    assert not interiors_disjoint(lat, a, upper)


def test_lineality_vectors_satisfy_all_normals_with_equality():
    lat = Lattice(GRAM_R)
    c = cone_from_inequalities(lat, [(1, 1)])
    for ell in c.lineality:
        assert lat.pairing((1, 1), ell) == 0
    # and interior points exist on the normal's positive side
    assert c.full_dim
