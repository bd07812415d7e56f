"""Chamber walks and certified wall discovery."""

import functools
import itertools
import json
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import oracles as O
from k3cone import (
    AmpleOnWall,
    GeometryError,
    Lattice,
    build_group,
    cone_from_inequalities,
    enumeration,
    nef_test,
    nef_walls,
    nodal_orbits,
    replace,
    roots_up_to_degree,
    sterk_domain,
    verify_fundamental,
    verify_generator,
    walk_to_nef,
    weyl,
)

from conftest import (
    AMPLE_P,
    AMPLE_R,
    AMPLE_U,
    GRAM_P,
    GRAM_R,
    GRAM_U,
    PROBLEMS,
    changed_basis,
    gram_ua1,
    random_even_hyperbolic,
    separating_bound,
)

# rank-3 worked example: U + <-2>, ample chosen off every wall
GRAM_3 = ((0, 1, 0), (1, 0, 0), (0, 0, -2))
AMPLE_3 = (4, 3, 1)


# ---------------------------------------------------------------- walks


def test_walk_desk_values():
    latU = Lattice(GRAM_U)
    assert walk_to_nef(latU, AMPLE_U, (1, 3)) == ((3, 1), ((-1, 1),))
    assert walk_to_nef(latU, AMPLE_U, (5, 1)) == ((5, 1), ())
    latP = Lattice(GRAM_P)
    assert walk_to_nef(latP, AMPLE_P, (8, 11)) == ((4, 5), ((2, 3),))
    assert walk_to_nef(latP, AMPLE_P, (1, -1)) == ((1, 1), ((0, -1),))
    latR = Lattice(GRAM_R)
    # no roots, so every positive-cone point is already nef
    assert walk_to_nef(latR, AMPLE_R, (-1, 8)) == ((-1, 8), ())


def test_walk_rank3_value():
    lat = Lattice(GRAM_3)
    end, word = walk_to_nef(lat, AMPLE_3, (4, 3, 2))
    assert (end, word) == ((3, 3, 1), ((1, 0, 1),))
    assert end == O.walk(GRAM_3, AMPLE_3, (4, 3, 2), 12)


def test_walk_rejects_points_outside_positive_cone():
    lat = Lattice(GRAM_U)
    with pytest.raises(GeometryError):
        walk_to_nef(lat, AMPLE_U, (1, -1))


def _walk_contract(lat, ample, x):
    """Endpoint nef, strict degree descent, and exact word replay."""
    end, word = walk_to_nef(lat, ample, x)
    assert nef_test(lat, ample, end)
    assert O.reflect_word(lat.gram, word, x) == end
    y = tuple(x)
    prev = lat.pairing(ample, y)
    for delta in word:
        assert lat.norm(delta) == -2
        assert lat.pairing(y, delta) < 0  # the wall really separates
        y = tuple(y[i] + lat.pairing(y, delta) * delta[i] for i in range(lat.rank))
        deg = lat.pairing(ample, y)
        assert deg < prev
        prev = deg
    assert y == end


@pytest.mark.parametrize(
    "gram,ample",
    [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P), (GRAM_R, AMPLE_R), (GRAM_3, AMPLE_3)],
    ids=["U", "P", "R", "rank3"],
)
def test_walk_contract_random_points(gram, ample):
    rng = random.Random(101)
    lat = Lattice(gram)
    done = 0
    while done < 200:
        x = tuple(rng.randint(-12, 12) for _ in range(lat.rank))
        if lat.norm(x) < 0 or lat.pairing(ample, x) <= 0:
            continue
        _walk_contract(lat, ample, x)
        done += 1


def test_walk_contract_random_lattices():
    rng = random.Random(59)
    built = 0
    while built < 8:
        got = random_even_hyperbolic(rng)
        if got is None:
            continue
        lat, ample = got
        built += 1
        done = 0
        attempts = 0
        while done < 25 and attempts < 4000:
            attempts += 1
            x = tuple(rng.randint(-10, 10) for _ in range(lat.rank))
            if lat.norm(x) < 0 or lat.pairing(ample, x) <= 0:
                continue
            _walk_contract(lat, ample, x)
            done += 1
        assert done == 25


# ---------------------------------------------------------------- certified walls


def test_nef_walls_U():
    lat = Lattice(GRAM_U)
    nef = nef_walls(lat, AMPLE_U)
    assert nef.walls == ((-1, 1),)
    assert nef.rays == ((1, 0), (1, 1))
    assert nef.complete and nef.stable
    assert nef.certification_bound == 8
    assert nef.witnesses == (((-1, 1), (1, 1)),)
    assert nef.cone.rays == ((1, 0), (1, 1))


def test_nef_walls_P():
    lat = Lattice(GRAM_P)
    nef = nef_walls(lat, AMPLE_P)
    assert nef.walls == ((0, -1), (2, 3))
    assert nef.rays == ((1, 0), (3, 4))
    assert nef.complete and nef.stable
    assert nef.witnesses == (((0, -1), (1, 0)), ((2, 3), (3, 4)))


def test_nef_walls_R_non_polyhedral():
    """No roots at all: the chamber is the whole (round, irrational) cone."""
    lat = Lattice(GRAM_R)
    nef = nef_walls(lat, AMPLE_R)
    assert nef.walls == ()
    assert nef.rays == ()
    assert not nef.complete  # honest flag: emptiness is evidence, not proof
    assert nef.stable
    assert nef.cone is None
    assert nef.certification_bound == 72


def test_nef_walls_rank3():
    lat = Lattice(GRAM_3)
    nef = nef_walls(lat, AMPLE_3)
    assert nef.walls == ((-1, 1, 0), (0, 0, -1), (1, 0, 1))
    assert nef.rays == ((1, 0, 0), (1, 1, 0), (2, 2, 1))
    assert nef.complete


def test_nef_walls_match_discrete_chamber_oracle():
    for gram, ample in [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P)]:
        roots, walls, extremes = O.chamber_2d(gram, ample, 40)
        nef = nef_walls(Lattice(gram), ample)
        assert sorted(nef.walls) == sorted(walls)
        assert tuple(sorted(nef.rays)) == extremes


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_nef_walls_match_discrete_chamber_oracle_on_random_rank2(seed):
    """Certified rank-2 chambers whose walls and rays fit the oracle's box."""
    box = 20
    lat, ample = random_even_hyperbolic(random.Random(seed), rank=2)
    roots, walls, extremes = O.chamber_2d(lat.gram, ample, box)
    assume(roots)
    nef = nef_walls(lat, ample, ceiling=3)
    assume(nef.complete)
    assume(all(abs(c) <= box for v in nef.walls + nef.rays for c in v))
    assert sorted(nef.walls) == sorted(walls)
    assert nef.rays == extremes


def _assert_incremental_equals_batch(lat, ample, nef):
    batch = cone_from_inequalities(
        lat, roots_up_to_degree(lat, ample, nef.certification_bound)
    )
    assert nef.cone.rays == batch.rays
    assert nef.cone.normals == batch.normals
    assert nef.cone.lineality == batch.lineality == ()


def _fixture(name):
    data = json.loads((PROBLEMS / f"{name}.json").read_text())
    return tuple(map(tuple, data["gram"])), tuple(data["ample"])


@pytest.mark.parametrize(
    "gram,ample",
    [(gram_ua1(k), (4, 3) + (1,) * k) for k in (1, 2, 3, 4)] + [_fixture("rank5_supersingular")],
    ids=["UA1", "UA1^2", "UA1^3", "UA1^4", "rank5"],
)
def test_incremental_walls_equal_batch_double_description(gram, ample):
    """The marks fed in degree order cut the cone one batch DD cuts."""
    lat = Lattice(gram)
    nef = nef_walls(lat, ample)
    assert nef.complete
    _assert_incremental_equals_batch(lat, ample, nef)


def test_u_e8_chamber_equals_batch_double_description():
    """U+E8(-1) at the Weyl vector: ten walls, each of degree 1.

    The first bound 2 rho^2 = 2480 is far out of reach of a batch
    enumeration, but a certified cone implies every root, so the batch cone
    of the roots up to any degree past the walls' is the same cone.
    """
    gram, rho = _fixture("u_e8")
    lat = Lattice(gram)
    nef = nef_walls(lat, rho)
    assert nef.complete and nef.stable
    assert nef.certification_bound == 2 * lat.norm(rho) == 2480
    assert len(nef.walls) == len(nef.rays) == 10
    assert all(lat.pairing(rho, w) == 1 for w in nef.walls)
    batch = cone_from_inequalities(lat, roots_up_to_degree(lat, rho, 16))
    assert (nef.cone.rays, nef.cone.normals) == (batch.rays, batch.normals)


# ------------------------------------------------------ walks by the walls

WALL_CHAMBERS = {
    "U": (GRAM_U, AMPLE_U),
    "P": (GRAM_P, AMPLE_P),
    **{f"UA1^{k}": (gram_ua1(k), (4, 3) + (1,) * k) for k in (1, 2, 3)},
    "rank5": _fixture("rank5_supersingular"),
    "u_e8": _fixture("u_e8"),
}


@functools.lru_cache(maxsize=None)
def _certified(name, sign):
    """(lat, ample, nef) of a fixture chamber; sign -1 reads it in the basis
    -e_i, which reverses the lex order, so ties settle on other roots."""
    gram, ample = WALL_CHAMBERS[name]
    lat, ample = Lattice(gram), tuple(sign * a for a in ample)
    nef = nef_walls(lat, ample)
    assert nef.complete
    return lat, ample, nef


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(WALL_CHAMBERS)),
    sign=st.sampled_from((1, -1)),
    coeffs=st.lists(st.integers(-4, 4), min_size=10, max_size=10),
    scatter=st.lists(st.integers(0, 9), max_size=2),
)
def test_walk_by_walls_equals_walk_by_root_prefix(name, sign, coeffs, scatter):
    """A certified chamber's walls pick the same roots as the root prefix."""
    lat, ample, nef = _certified(name, sign)
    # the least multiple of H that brings the offset into the positive cone
    x = tuple(coeffs[: lat.rank])
    while lat.norm(x) < 0 or lat.pairing(ample, x) <= 0:
        x = tuple(a + b for a, b in zip(x, ample))
    for i in scatter:  # reflections keep the positive cone, and add steps
        wall = nef.walls[i % len(nef.walls)]
        x = tuple(a + lat.pairing(x, wall) * b for a, b in zip(x, wall))
    assert walk_to_nef(lat, ample, x, nef) == walk_to_nef(lat, ample, x)


def test_walk_by_walls_settles_ties_at_codimension_two_faces():
    """x = (m + 1) p - H, with p the sum of the rays on two walls, leaves the
    chamber at p, where every wall through p ties.

    The prefix rule picks the lex-least separating root through p, which in
    the reversed basis of U+E8(-1) is often not a wall: only closing the tied
    walls under their reflections finds it.
    """
    ties = closed = 0
    for name in ("UA1^1", "UA1^2", "UA1^3", "rank5", "u_e8"):
        for sign in (1, -1):
            lat, ample, nef = _certified(name, sign)
            for w1, w2 in itertools.combinations(nef.walls, 2):
                face = [r for r in nef.rays if lat.pairing(r, w1) == 0 == lat.pairing(r, w2)]
                p = tuple(map(sum, zip(*face)))
                if not face or lat.norm(p) <= 0:
                    continue
                for m in (1, 2, 5):
                    x = tuple((m + 1) * a - b for a, b in zip(p, ample))
                    if lat.norm(x) < 0 or lat.pairing(ample, x) <= 0:
                        continue
                    # p is in the chamber, and the walls through it all separate x
                    assert all(lat.pairing(w, p) >= 0 for w in nef.walls)
                    tied = [w for w in nef.walls if lat.pairing(w, p) == 0]
                    assert len(tied) >= 2
                    assert all(lat.pairing(w, x) < 0 for w in tied)
                    end, word = walk_to_nef(lat, ample, x, nef)
                    assert (end, word) == walk_to_nef(lat, ample, x)
                    assert lat.pairing(word[0], p) == 0
                    ties += 1
                    closed += word[0] not in tied
    assert ties > 300 and closed > 0


def test_walk_rejects_a_chamber_not_of_its_ample_class():
    """Walls of a neighbouring chamber, or of a lattice of another rank, would
    stop the walk outside the ample chamber; they raise instead."""
    lat, ample, nef = _certified("UA1^2", 1)
    wall = nef.walls[0]
    beyond = tuple(a + lat.pairing(ample, wall) * b for a, b in zip(ample, wall))
    neighbour = nef_walls(lat, beyond)
    assert neighbour.complete and tuple(-a for a in wall) in neighbour.walls
    x = tuple(3 * a for a in beyond)
    for other in (neighbour, _certified("UA1^1", 1)[2]):
        with pytest.raises(GeometryError, match="not the ample chamber"):
            walk_to_nef(lat, ample, x, other)
    # a multiple of the ample class has the same chamber
    twice = tuple(2 * a for a in ample)
    assert walk_to_nef(lat, twice, x, nef) == walk_to_nef(lat, twice, x)


def test_every_chamber_consumer_rejects_a_chamber_not_of_its_ample_class():
    """Generators, domains, their certificates and the nodal table check a
    handed-in chamber as walks do, so none answers from a neighbour's."""
    lat, ample, nef = _certified("UA1^2", 1)
    wall = nef.walls[0]
    neighbour = nef_walls(lat, tuple(a + lat.pairing(ample, wall) * b for a, b in zip(ample, wall)))
    swap = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    group = build_group(lat, ample, [swap], nef)
    domain = sterk_domain(lat, ample, group, nef)
    assert verify_fundamental(lat, ample, group, domain, nef).ok
    for other in (neighbour, _certified("UA1^1", 1)[2]):
        for call in (
            lambda: verify_generator(lat, ample, swap, other),
            lambda: build_group(lat, ample, [swap], other),
            lambda: sterk_domain(lat, ample, group, other),
            lambda: verify_fundamental(lat, ample, group, domain, other),
            lambda: nodal_orbits(lat, ample, group, other, domain),
        ):
            with pytest.raises(GeometryError, match="not the ample chamber"):
                call()


def test_every_chamber_consumer_checks_an_uncertified_chamber_s_walls():
    """Without a cone the walls are checked: every wall ``nef_walls`` accepts
    pairs > 0 with H, so H's own walls pass each consumer and the walks,
    while the neighbour chamber's, one of which pairs < 0 with H, and a wall
    of the wrong length are refused.  (The nodal table of walls not known to
    be all of them has the same entries but is not stable.)"""
    lat, ample, nef = _certified("UA1^2", 1)
    wall = nef.walls[0]
    neighbour = nef_walls(lat, tuple(a + lat.pairing(ample, wall) * b for a, b in zip(ample, wall)))
    own, other = (replace(n, cone=None) for n in (nef, neighbour))
    assert any(lat.pairing(ample, w) < 0 for w in other.walls)
    swap = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    group = build_group(lat, ample, [swap], nef)
    domain = sterk_domain(lat, ample, group, nef)
    x = (12, 9, 3, 3)

    def consumers(chamber):
        return (
            lambda: build_group(lat, ample, [swap], chamber),
            lambda: sterk_domain(lat, ample, group, chamber),
            lambda: verify_fundamental(lat, ample, group, domain, chamber),
            lambda: walk_to_nef(lat, ample, x, chamber),
            lambda: nodal_orbits(lat, ample, group, chamber, domain).entries,
        )

    assert [call() for call in consumers(own)] == [
        group,
        replace(domain, nef=own),
        verify_fundamental(lat, ample, group, domain, nef),
        walk_to_nef(lat, ample, x, nef),
        nodal_orbits(lat, ample, group, nef, domain).entries,
    ]
    for bad in (other, replace(own, walls=own.walls + ((1, 0, 0),))):
        for call in consumers(bad):
            with pytest.raises(GeometryError, match="not the ample chamber"):
                call()


@pytest.mark.parametrize("k", [3, 4, 5])
def test_certification_scans_a_root_prefix_below_the_bound(k):
    """A chamber certified early leaves the stream short of the first bound."""
    lat, ample = Lattice(gram_ua1(k)), (4, 3) + (1,) * k
    enumeration._slice_for.cache_clear()
    nef = nef_walls(lat, ample)
    assert nef.complete
    assert nef.certification_bound == 2 * lat.norm(ample)
    scanned = len(enumeration._slice_for(lat, ample).streams[-2][1]) - 1
    assert scanned < nef.certification_bound


def test_rootless_rank2_with_isotropic_rays_certifies():
    """The two rational isotropic rays alone cut out the chamber, and certify.

    Both rows go in before the first mark, which adds no root, so the cone
    must count as changed there.
    """
    lat = Lattice(((0, 2), (2, 0)))
    assert roots_up_to_degree(lat, (1, 1), 40) == ()
    nef = nef_walls(lat, (1, 1))
    assert nef.complete
    assert nef.walls == () and nef.witnesses == ()
    assert nef.rays == ((0, 1), (1, 0))
    assert all(lat.norm(r) == 0 for r in nef.rays)
    assert nef.certification_bound == 8


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(3, 4), spread=st.integers(2, 3))
def test_incremental_walls_equal_batch_on_random_lattices(seed, rank, spread):
    lat, ample = random_even_hyperbolic(random.Random(seed), rank=rank, spread=spread)
    # higher ceilings on random rank-4 bases can spend seconds enumerating
    nef = nef_walls(lat, ample, ceiling=3 if rank == 3 else 1)
    assume(nef.complete)
    _assert_incremental_equals_batch(lat, ample, nef)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 4), ceiling=st.integers(0, 3))
def test_vinberg_acceptance_equals_the_root_scan_reference(seed, rank, ceiling):
    """Accepted walls give the certified chamber and the partial answer that
    cutting by every root and scanning roots for certificates gives."""
    lat, ample = random_even_hyperbolic(random.Random(seed), rank=rank, spread=8 - rank)
    nef = nef_walls(lat, ample, ceiling)
    event("certified" if nef.complete else "partial" if nef.walls else "no walls")
    assert nef == O.nef_walls_by_root_scans(lat, ample, ceiling)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 4))
def test_distinct_roots_of_equal_degree_pair_non_negatively(seed, rank):
    """Their difference lies in the negative definite H-perp, and is no root
    there, since H lies on no wall."""
    lat, ample = random_even_hyperbolic(random.Random(seed), rank=rank, spread=8 - rank)
    roots = roots_up_to_degree(lat, ample, 2 * lat.norm(ample))
    for _, same in itertools.groupby(sorted(roots, key=lambda d: lat.pairing(ample, d)),
                                     key=lambda d: lat.pairing(ample, d)):
        assert all(lat.pairing(a, b) >= 0 for a, b in itertools.combinations(same, 2))


def test_walls_certify_without_a_ray_search(monkeypatch):
    """A cone whose facets are all walls needs no nef_test; a rank-2 cone with
    an isotropic facet still runs one per ray."""
    calls = []
    original = weyl.nef_test
    monkeypatch.setattr(weyl, "nef_test", lambda *a: calls.append(a) or original(*a))
    for gram, ample in [(gram_ua1(k), (4, 3) + (1,) * k) for k in (1, 2, 3, 4)] + [_fixture("u_e8")]:
        assert nef_walls(Lattice(gram), ample).complete
    assert calls == []
    nef = nef_walls(Lattice(GRAM_U), AMPLE_U)
    assert nef.complete and (1, 0) in nef.rays and len(calls) == len(nef.rays)


def test_ample_on_a_wall_raises():
    """(0, 0, 1) is a root of U+A1 orthogonal to H = (1, 1, 0), so H lies in
    no open chamber, and no wall rule applies."""
    lat, ample = Lattice(gram_ua1(1)), (1, 1, 0)
    assert lat.pairing(ample, (0, 0, 1)) == 0
    with pytest.raises(AmpleOnWall) as exc:
        nef_walls(lat, ample, 2)
    assert lat.norm(exc.value.root) == -2
    assert lat.pairing(ample, exc.value.root) == 0


def test_wall_witnesses_lie_on_their_facets():
    for gram, ample in [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P), (GRAM_3, AMPLE_3)]:
        lat = Lattice(gram)
        nef = nef_walls(lat, ample)
        assert len(nef.witnesses) == len(nef.walls)
        for wall, point in nef.witnesses:
            assert lat.pairing(wall, point) == 0
            assert lat.pairing(ample, point) > 0
            assert lat.norm(point) >= 0
            for other in nef.walls:
                if other != wall:
                    assert lat.pairing(other, point) > 0


def _assert_witnesses_are_facet_ray_sums(lat, ample, nef):
    """Each witness is the sum of its facet's rays, nef, and on no other root
    of degree up to its separating bound."""
    assert nef.complete and len(nef.witnesses) == len(nef.walls)
    for wall, w in nef.witnesses:
        tight = [r for r in nef.rays if lat.pairing(r, wall) == 0]
        assert w == tuple(map(sum, zip(*tight)))
        assert nef_test(lat, ample, w)
        bound = separating_bound(lat, ample, w)
        roots = roots_up_to_degree(lat, ample, bound)
        assert [d for d in roots if lat.pairing(d, w) == 0] == [wall]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 3))
def test_certified_witnesses_on_random_lattices(seed, rank):
    lat, ample = random_even_hyperbolic(random.Random(seed), rank=rank)
    nef = nef_walls(lat, ample, ceiling=3)
    assume(nef.complete)
    _assert_witnesses_are_facet_ray_sums(lat, ample, nef)


@pytest.mark.parametrize(
    "gram,ample",
    [(gram_ua1(k), (4, 3) + (1,) * k) for k in (1, 2, 3, 4)] + [_fixture("u_e8")],
    ids=["UA1", "UA1^2", "UA1^3", "UA1^4", "u_e8"],
)
def test_certified_witnesses(gram, ample):
    lat = Lattice(gram)
    _assert_witnesses_are_facet_ray_sums(lat, ample, nef_walls(lat, ample))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    diagonal=st.sampled_from([(2, -4, -6), (2, -2, -6)]),
)
def test_partial_witnesses_are_nef_with_separating_bound_their_degree(seed, diagonal):
    """w = 2H + d delta with d = H.delta has separating bound exactly d, so
    the roots up to the last mark already decide that w is nef."""
    gram = tuple(
        tuple(x if i == j else 0 for j in range(3)) for i, x in enumerate(diagonal)
    )
    gram, ample, _ = changed_basis(random.Random(seed), gram, (3, 1, 1))
    lat = Lattice(gram)
    nef = nef_walls(lat, ample, ceiling=1)
    assert not nef.complete and nef.walls
    assert [wall for wall, _ in nef.witnesses] == list(nef.walls)
    for wall, w in nef.witnesses:
        degree = lat.pairing(ample, wall)
        assert w == tuple(2 * h + degree * d for h, d in zip(ample, wall))
        assert separating_bound(lat, ample, w) == degree
        assert nef_test(lat, ample, w)


def test_rays_pass_nef_test():
    for gram, ample in [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P), (GRAM_3, AMPLE_3)]:
        lat = Lattice(gram)
        nef = nef_walls(lat, ample)
        for r in nef.rays:
            assert nef_test(lat, ample, r)
            assert lat.norm(r) >= 0


def test_ceiling_zero_gives_honest_partial_on_R():
    lat = Lattice(GRAM_R)
    nef = nef_walls(lat, AMPLE_R, ceiling=0)
    assert nef.walls == ()
    assert not nef.complete
    assert nef.stable
    assert nef.certification_bound == 36  # 2 * norm(H), no doublings allowed


def test_ceiling_zero_still_certifies_small_chambers():
    # the base bound 2*norm(H) already covers every wall of these fixtures
    for gram, ample in [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P), (GRAM_3, AMPLE_3)]:
        nef = nef_walls(Lattice(gram), ample, ceiling=0)
        assert nef.complete


def test_nef_test_values():
    latP = Lattice(GRAM_P)
    assert nef_test(latP, AMPLE_P, (1, 0))
    assert nef_test(latP, AMPLE_P, (2, 1))
    assert not nef_test(latP, AMPLE_P, (8, 11))


def test_walk_words_apply_in_word_order():
    """A walk's word replays first entry first; reversed, it misses the end."""
    lat = Lattice(GRAM_3)
    x = (1, 1, -1)
    end, word = walk_to_nef(lat, AMPLE_3, x)
    assert (end, word) == ((1, 0, 0), ((0, 0, -1), (1, 0, 1), (-1, 1, 0)))
    assert O.reflect_word(GRAM_3, word, x) == end
    assert O.reflect_word(GRAM_3, word[::-1], x) != end
