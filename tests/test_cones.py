"""Rational polyhedral cones: the double description and its translates."""

import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from k3cone import DimensionMismatch, Lattice, cone_from_inequalities
from k3cone.cones import DoubleDescription

from conftest import GRAM_P, GRAM_R, GRAM_U

import oracles


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
    halves = [cone_from_inequalities(lat, [n]) for n in ((-1, 1), (1, -1))]
    assert oracles.meet_dimension(lat, *halves) == 1


def test_full_space_cone():
    lat = Lattice(GRAM_U)
    c = cone_from_inequalities(lat, [])
    assert c.normals == ()
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
    # (3, 4) is on the boundary, which counts
    for x, inside in (((1, 0), True), ((3, 4), True), ((2, 1), True), ((0, 1), False),
                      ((-1, 0), False)):
        assert all(oracles.pairing(GRAM_P, x, n) >= 0 for n in c.normals) == inside, x


def test_rays_generate_their_cone():
    """Every nonnegative integer combination of rays lies back in the cone."""
    rng = random.Random(5)
    lat = Lattice(GRAM_P)
    c = cone_from_inequalities(lat, [(0, -1), (2, 3)])
    for _ in range(50):
        coeffs = [rng.randint(0, 9) for _ in c.rays]
        v = tuple(sum(a * r[i] for a, r in zip(coeffs, c.rays)) for i in range(2))
        assert all(oracles.pairing(GRAM_P, v, n) >= 0 for n in c.normals)


def test_normals_rejected_on_wrong_rank():
    lat = Lattice(GRAM_U)
    with pytest.raises(DimensionMismatch):
        cone_from_inequalities(lat, [(1, 0, 0)])


def test_lineality_vectors_satisfy_all_normals_with_equality():
    lat = Lattice(GRAM_R)
    c = cone_from_inequalities(lat, [(1, 1)])
    for ell in c.lineality:
        assert lat.pairing((1, 1), ell) == 0
    # and interior points exist on the normal's positive side
    assert c.full_dim


def test_redundant_row_of_a_wedge_is_no_facet():
    """A full-dimensional cone with lineality stores its facets only."""
    lat = Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -4)))
    c = cone_from_inequalities(lat, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert c.rays == ((0, -1, 0), (1, 0, 0))
    assert c.lineality == ((0, 0, 1),)
    assert c.full_dim
    assert c.normals == ((0, 1, 0), (1, 0, 0))


def test_half_line_keeps_its_facet():
    """The single row of a pointed half-line is tight on no ray and is its facet."""
    lat = Lattice(((2,),))
    c = cone_from_inequalities(lat, [(3,)])
    assert c.rays == ((1,),) and c.pointed and c.full_dim
    assert c.normals == ((1,),)
    assert any(oracles.pairing(lat.gram, (-1,), n) < 0 for n in c.normals)


# ---------------------------------------------------------------- against ranks

LATTICES = {
    2: (GRAM_U, GRAM_P, GRAM_R),
    3: (((2, 0, 0), (0, -2, 0), (0, 0, -4)), ((0, 1, 0), (1, 0, 0), (0, 0, -2))),
    4: (((2, 0, 0, 0), (0, -2, 1, 0), (0, 1, -2, 0), (0, 0, 0, -4)),),
    5: (((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, -2, 0, 0), (0, 0, 0, -2, 0),
         (0, 0, 0, 0, -2)),),
}


@st.composite
def row_systems(draw):
    """A lattice of rank 2..5 and rows, some opposite, duplicated, scaled or
    sums of two others, so that pointed cones, cones with lineality and
    lower-dimensional cones all occur."""
    rank = draw(st.integers(2, 5))
    gram = draw(st.sampled_from(LATTICES[rank]))
    unit = (1,) + (0,) * (rank - 1)
    vectors = st.tuples(*[st.integers(-2, 2)] * rank).map(lambda v: v if any(v) else unit)
    rows = draw(st.lists(vectors, min_size=1, max_size=rank + 1))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        new = draw(st.sampled_from((
            tuple(-x for x in a),
            a,
            tuple(2 * x for x in a),
            tuple(x + y for x, y in zip(a, b)),
        )))
        if any(new):
            rows.append(new)
    return Lattice(gram), draw(st.permutations(rows))


def _rank(rows):
    return len(oracles.rref_over_q(rows)[0]) if rows else 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=row_systems())
def test_double_description_agrees_with_ranks(system):
    lat, rows = system
    _assert_agrees_with_ranks(lat, rows, cone_from_inequalities(lat, rows))


def _assert_agrees_with_ranks(lat, rows, c):
    """The cone ``c`` of ``rows`` against the rank oracle and a box of points."""
    n = lat.rank
    lin = list(c.lineality)
    event("lower-dimensional" if not c.full_dim else "lineality" if lin else "pointed")
    for r in c.rays:
        assert all(lat.pairing(r, row) >= 0 for row in rows)
    for l in lin:
        assert all(lat.pairing(l, row) == 0 for row in rows)
    # every ray is extreme: its tight rows cut a line in the quotient by L
    for r in c.rays:
        tight = [row for row in rows if lat.pairing(r, row) == 0]
        assert _rank(tight) == n - len(lin) - 1
    assert c.full_dim == (_rank(list(c.rays) + lin) == n)
    primitive = {tuple(x // math.gcd(*row) for x in row) for row in rows}
    if c.full_dim:
        facets = {
            row for row in primitive
            if _rank([r for r in c.rays if lat.pairing(r, row) == 0] + lin) == n - 1
        }
        assert set(c.normals) == facets and len(c.normals) == len(facets)
    else:
        assert set(c.normals) <= primitive
    # x . n is the dot product of x with G n, since G is symmetric
    normals = [oracles.apply_matrix(lat.gram, f) for f in c.normals]
    duals = [oracles.apply_matrix(lat.gram, row) for row in rows]
    for x in itertools.product((-1, 0, 1), repeat=n):
        inside = all(sum(map(mul, x, f)) >= 0 for f in normals)
        assert inside == all(sum(map(mul, x, g)) >= 0 for g in duals)


def _mirror(gram, v):
    """The reflection x -> x - 2 (x.v) / (v.v) v in a vector v of norm 2 or -2."""
    n, c = len(v), 2 // oracles.norm(gram, v)
    gv = [sum(gram[i][j] * v[j] for j in range(n)) for i in range(n)]
    return tuple(tuple(int(i == j) - c * v[i] * gv[j] for j in range(n)) for i in range(n))


def _primitive(v):
    return tuple(x // math.gcd(*v) for x in v)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(system=row_systems(), data=st.data())
def test_moved_facets_cut_out_the_moved_cone(system, data):
    """An isometry g of a full-dimensional cone C: the cone cut by the
    g-images of C's facets has them for facets, the g-image of C's
    lineality for lineality, and the g-images of C's rays for rays (modulo
    the lineality when there is one).  So a facet set decides g(C) = C."""
    lat, rows = system
    n = lat.rank
    c = cone_from_inequalities(lat, rows)
    assume(c.full_dim)
    mirrors = [v for v in itertools.product((-1, 0, 1), repeat=n) if abs(lat.norm(v)) == 2]
    g = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for v in data.draw(st.lists(st.sampled_from(mirrors), max_size=4)):
        g = oracles.matrix_product(_mirror(lat.gram, v), g)
    if data.draw(st.booleans()):
        g = tuple(tuple(-x for x in row) for row in g)
    moved = cone_from_inequalities(lat, [oracles.apply_matrix(g, f) for f in c.normals])
    lin = [oracles.apply_matrix(g, l) for l in c.lineality]
    rays = [_primitive(oracles.apply_matrix(g, r)) for r in c.rays]
    event("lineality" if lin else "pointed")
    assert moved.full_dim
    assert moved.normals == tuple(sorted(map(_primitive, (
        oracles.apply_matrix(g, f) for f in c.normals))))
    assert len(moved.lineality) == len(lin) == _rank(lin)
    assert _rank(list(moved.lineality) + lin) == len(lin)
    if not lin:
        assert moved.rays == tuple(sorted(rays))
    assert len(moved.rays) == len(rays)
    for r in rays:  # each image ray lies in the moved cone and is extreme there
        tight = [f for f in moved.normals if oracles.pairing(lat.gram, r, f) == 0]
        assert all(oracles.pairing(lat.gram, r, f) >= 0 for f in moved.normals)
        assert _rank(tight) == n - len(lin) - 1


def _assert_carried_state(dd):
    """The two facts certification reads: each ray's dual, and its tight rows' bits."""
    lat = dd.lat
    assert len(dd.duals) == len(dd.masks) == len(dd.rays)
    for r, g, m in zip(dd.rays, dd.duals, dd.masks):
        assert g == lat._dual(r)
        for k, n in enumerate(dd.normals):
            assert (m >> k & 1) == (lat.pairing(n, r) == 0), (r, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=row_systems())
def test_double_description_carries_duals_and_masks(system):
    lat, rows = system
    dd = DoubleDescription(lat)
    for row in rows:
        dd.add([row])
        _assert_carried_state(dd)


def test_double_description_carries_duals_and_masks_on_a_random_system():
    """Forty random rows, each positive on one point, so the cone stays full."""
    rng = random.Random(27)
    lat, inside = Lattice(LATTICES[5][0]), (3, 2, 1, 0, -1)
    dd = DoubleDescription(lat)
    while len(dd.normals) < 40:
        row = tuple(rng.randint(-3, 3) for _ in range(5))
        if lat.pairing(row, inside) > 0:
            dd.add([row])
            _assert_carried_state(dd)
    cone = dd.cone()
    assert cone.pointed and cone.full_dim and len(cone.rays) > 10


def _ua1(k):
    """The Gram matrix of U + A1^k, of rank k + 2."""
    n = k + 2
    return tuple(
        tuple(1 if {i, j} == {0, 1} else -2 if i == j > 1 else 0 for j in range(n))
        for i in range(n)
    )


@st.composite
def ua1_row_systems(draw):
    """U + A1^k at ranks 6..9: rows positive on one point, so that their cone
    is full-dimensional with many rays, then up to two free rows."""
    lat = Lattice(_ua1(draw(st.integers(4, 7))))
    n = lat.rank
    unit = (1,) + (0,) * (n - 1)
    vectors = st.tuples(*[st.integers(-2, 2)] * n).map(lambda v: v if any(v) else unit)
    point = draw(vectors)
    rows = []
    for v in draw(st.lists(vectors, min_size=n + 2, max_size=n + 6)):
        side = lat.pairing(v, point)
        if side:  # oriented to the point's side
            rows.append(v if side > 0 else tuple(-x for x in v))
    rows += draw(st.lists(vectors, max_size=2))
    return lat, draw(st.permutations(rows))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(system=ua1_row_systems())
def test_tight_ray_sets_agree_with_ranks_up_to_rank_nine(system):
    """Adjacency and facets by tight-ray sets, on cones with many rays; the
    carried state holds after every row."""
    lat, rows = system
    dd = DoubleDescription(lat)
    for row in dict.fromkeys(map(_primitive, rows)):
        dd.add([row])
        _assert_carried_state(dd)
    event(f"{len(dd.rays) // 20 * 20}+ rays")
    _assert_agrees_with_ranks(lat, rows, dd.cone())
