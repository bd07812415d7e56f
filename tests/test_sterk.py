"""Orbit-cut fundamental domains and their certificates.

The domain is the part of the ample chamber on the near side of every
half-space H . (h - H) >= 0, h ranging over the degree-capped group orbit of
the ample class; saturation means no generator lowers an extreme ray's degree.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from k3cone import (
    CoverageFailure,
    DimensionMismatch,
    GeometryError,
    Lattice,
    OppositeCone,
    OutsidePositiveCone,
    SterkDomain,
    ZeroVector,
    build_group,
    cone_from_inequalities,
    elliptic_orbits,
    genus_orbits,
    nef_test,
    nef_walls,
    orbit_of_ample,
    primitive_ray,
    reduce_to_domain,
    replace,
    sterk_domain,
    verify_fundamental,
)
from k3cone import sterk
from k3cone.sterk import _cut_separates, _reducer, group_words

from conftest import AMPLE_P, AMPLE_R, AMPLE_U, GAMMA_P, GRAM_P, GRAM_R, GRAM_U, G_R, SWAP

# diag(2, -6): no roots, so the chamber is the positive cone; its group is
# generated by the Pell automorph and the flip y -> -y
GRAM_D = ((2, 0), (0, -6))
PELL = ((2, 3), (1, 2))
FLIP = ((1, 0), (0, -1))
# rank-2 (gram, ample, generators) cases; R13, D41, D51 and D52 are where a
# greedy generator descent stopped outside the domain
RANK2 = {
    "P": (GRAM_P, (2, 1), (GAMMA_P,)),
    "R": (GRAM_R, (1, 1), (G_R, SWAP)),
    "R13": (GRAM_R, (1, 3), (G_R, SWAP)),
    "D41": (GRAM_D, (4, 1), (PELL, FLIP)),
    "D51": (GRAM_D, (5, 1), (PELL, FLIP)),
    "D52": (GRAM_D, (5, 2), (PELL, FLIP)),
}


@lru_cache(maxsize=None)
def _setup(name):
    gram, ample, gens = RANK2[name]
    lat = Lattice(gram)
    nef = nef_walls(lat, ample)
    grp = build_group(lat, ample, gens, nef)
    return lat, ample, grp, nef, sterk_domain(lat, ample, grp, nef)


def test_domain_U_trivial_group(setups):
    lat, ample, grp, nef, dom = setups["U"]
    assert dom.rays == ((1, 0), (1, 1))
    assert dom.cuts == ()
    assert dom.orbit_bound == 16  # 4 * norm(H), no doubling needed
    assert dom.orbit_size == 1
    assert dom.saturated


def test_domain_P(setups):
    lat, ample, grp, nef, dom = setups["P"]
    assert dom.rays == ((1, 0), (1, 1))
    assert [(c.normal, c.orbit_point, c.word) for c in dom.cuts] == [((1, 2), (4, 5), (0,))]
    assert dom.orbit_bound == 56
    assert dom.orbit_size == 2
    assert dom.saturated
    # discrete oracle agrees on the extreme directions
    assert O.sterk_extremes_2d(GRAM_P, AMPLE_P, grp.matrices(), dom.orbit_bound, 40) == (
        (1, 0),
        (1, 1),
    )


def test_domain_R(setups):
    lat, ample, grp, nef, dom = setups["R"]
    assert dom.rays == ((0, 1), (1, 0))
    assert [(c.normal, c.orbit_point, c.word) for c in dom.cuts] == [
        ((-2, 7), (-1, 8), (0,)),
        ((7, -2), (8, -1), (2,)),
    ]
    assert dom.orbit_bound == 72
    assert dom.orbit_size == 3
    assert dom.saturated
    assert O.sterk_extremes_2d(GRAM_R, AMPLE_R, grp.matrices(), dom.orbit_bound, 40) == (
        (0, 1),
        (1, 0),
    )


def test_cut_words_replay(setups):
    """Each cut records the orbit point and the generator word producing it."""
    for name in ("P", "R"):
        lat, ample, grp, nef, dom = setups[name]
        mats = grp.matrices()
        for cut in dom.cuts:
            p = tuple(ample)
            for i in cut.word:
                p = O.apply_matrix(mats[i], p)
            assert p == cut.orbit_point
            diff = tuple(cut.orbit_point[i] - ample[i] for i in range(2))
            from k3cone import primitive_ray

            assert primitive_ray(diff) == cut.normal


def test_ample_strictly_interior(setups):
    # two ample-orbit points of equal norm pair strictly above the norm,
    # so H . (h - H) > 0 automatically: H can never sit on a cut wall
    for name in ("U", "P", "R"):
        lat, ample, grp, nef, dom = setups[name]
        for n in dom.cone.normals:
            assert lat.pairing(ample, n) > 0


def test_orbit_of_ample_values(setups):
    _, _, grpP, _, _ = setups["P"]
    latP = Lattice(GRAM_P)
    assert orbit_of_ample(latP, AMPLE_P, grpP, 56) == {(2, 1): (), (4, 5): (0,)}
    _, _, grpR, _, _ = setups["R"]
    latR = Lattice(GRAM_R)
    assert orbit_of_ample(latR, AMPLE_R, grpR, 72) == {
        (1, 1): (),
        (-1, 8): (0,),
        (8, -1): (2,),
    }


def test_orbit_matches_bfs_oracle(setups):
    _, _, grpR, _, dom = setups["R"]
    got = set(orbit_of_ample(Lattice(GRAM_R), AMPLE_R, grpR, dom.orbit_bound))
    want = O.degree_capped_orbit(GRAM_R, AMPLE_R, grpR.matrices(), dom.orbit_bound)
    assert got == want


# ---------------------------------------------------------------- reduction


def _replay(gram, mats, x, reflections, word):
    """Apply the reflections, then the generator matrices, in order."""
    for d in reflections:
        c = O.pairing(gram, x, d)
        x = tuple(a + c * b for a, b in zip(x, d))
    for i in word:
        x = O.apply_matrix(mats[i], x)
    return x


@pytest.mark.parametrize(
    "name, x", [("D41", (41, 17)), ("D41", (44, 17)), ("R13", (-1, 16)), ("R13", (-25, 173))]
)
def test_reduce_reaches_domain_where_no_generator_lowers(name, x):
    # greedy generator descent stops outside the domain on these classes, at
    # a point no generator lowers; the inverse of a cut's orbit element does
    lat, ample, grp, nef, dom = _setup(name)
    end, reflections, word = reduce_to_domain(lat, ample, grp, dom, x)
    assert all(O.pairing(lat.gram, end, n) >= 0 for n in dom.cone.normals)
    assert _replay(lat.gram, grp.matrices(), x, reflections, word) == end


def test_hand_built_domain_out_of_reach_raises_coverage_failure(setups):
    latP, ampleP, grpP, nefP, domP = setups["P"]
    # a strict sub-cone of the true domain, with no cuts to descend by:
    # the domain ray (1, 0) is already of least degree in its orbit
    narrow = cone_from_inequalities(latP, [(1, 2), (-1, -4)])
    assert narrow.rays == ((1, 1), (2, 1))
    fake = SterkDomain(cone=narrow, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    with pytest.raises(CoverageFailure) as exc:
        reduce_to_domain(latP, ampleP, grpP, fake, (1, 0))
    assert exc.value.reduced == (1, 0)


def test_coverage_reports_the_out_of_reach_domain(setups):
    # the chamber ray (1, 0) is a ray of the cone where reductions stop, and
    # the narrow domain misses it; the shared reducer confirms the failure
    latP, ampleP, grpP, nefP, _ = setups["P"]
    narrow = cone_from_inequalities(latP, [(1, 2), (-1, -4)])
    fake = SterkDomain(cone=narrow, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    cert = verify_fundamental(latP, ampleP, grpP, fake, nefP, samples=40, word_length=2, seed=1)
    assert not cert.coverage_ok
    assert cert.coverage_failures == ((1, 0),)
    for x in cert.coverage_failures:
        with pytest.raises(CoverageFailure):
            reduce_to_domain(latP, ampleP, grpP, fake, x)


def _positive(lat, ample, x):
    """x moved into the positive cone by adding multiples of H (H is interior)."""
    while lat.norm(x) < 0 or lat.pairing(ample, x) <= 0:
        x = tuple(a + h for a, h in zip(x, ample))
    return x


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(RANK2)),
    xs=st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=8),
)
def test_shared_reducer_carries_no_state_between_classes(name, xs):
    lat, ample, grp, nef, dom = _setup(name)
    xs = [_positive(lat, ample, x) for x in xs]
    separate = [reduce_to_domain(lat, ample, grp, dom, x) for x in xs]
    reduce = _reducer(lat, ample, grp, dom)
    assert [reduce(x) for x in xs] == separate
    assert [reduce(x) for x in reversed(xs)] == separate[::-1]


def test_reducer_keeps_the_positive_closure_check(setups):
    lat, ample, grp, nef, dom = setups["P"]
    reduce = _reducer(lat, ample, grp, dom)
    for x, error in (((0, 0), ZeroVector), ((0, 1), OutsidePositiveCone), ((-2, -1), OppositeCone)):
        with pytest.raises(error):
            reduce_to_domain(lat, ample, grp, dom, x)
        with pytest.raises(error):
            reduce(x)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(RANK2)),
    x=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    scatter=st.lists(st.integers(0, 5), max_size=6),
)
def test_reduce_is_least_degree_in_its_word_ball(name, x, scatter):
    lat, ample, grp, nef, dom = _setup(name)
    # H is interior to the positive cone, so x + kH enters it for some k
    while lat.norm(x) < 0 or lat.pairing(ample, x) <= 0:
        x = tuple(a + h for a, h in zip(x, ample))
    mats = grp.matrices()
    for i in scatter:
        x = O.apply_matrix(mats[i % len(mats)], x)
    end, reflections, word = reduce_to_domain(lat, ample, grp, dom, x)
    assert _replay(lat.gram, mats, x, reflections, word) == end
    # the walk by the recorded chamber's walls picks the roots the root prefix picks
    assert dom.nef is nef
    by_prefix = reduce_to_domain(lat, ample, grp, replace(dom, nef=None), x)
    assert by_prefix == (end, reflections, word)
    degree = O.pairing(lat.gram, ample, end)
    assert all(O.pairing(lat.gram, ample, y) >= degree for y in O.orbit_ball(mats, end, 4))


def test_reduce_to_domain_desk_values(setups):
    latP, ampleP, grpP, nefP, domP = setups["P"]
    assert reduce_to_domain(latP, ampleP, grpP, domP, (8, 11)) == ((2, 1), ((2, 3),), (0,))
    latR, ampleR, grpR, nefR, domR = setups["R"]
    assert reduce_to_domain(latR, ampleR, grpR, domR, (-1, 8)) == ((1, 1), (), (2,))


def test_reduce_lands_inside(setups):
    rng = random.Random(13)
    for name in ("U", "P", "R"):
        lat, ample, grp, nef, dom = setups[name]
        done = 0
        while done < 60:
            x = tuple(rng.randint(-10, 10) for _ in range(2))
            if lat.norm(x) < 0 or lat.pairing(ample, x) <= 0:
                continue
            end, reflections, word = reduce_to_domain(lat, ample, grp, dom, x)
            assert all(O.pairing(lat.gram, end, n) >= 0 for n in dom.cone.normals)
            done += 1


# ---------------------------------------------------------------- certificates


def test_fundamental_certificates_pass(setups):
    for name in ("U", "P", "R"):
        lat, ample, grp, nef, dom = setups[name]
        cert = verify_fundamental(lat, ample, grp, dom, nef, samples=60, word_length=3, seed=0)
        assert cert.rays_nef, name
        assert cert.coverage_ok and cert.coverage_failures == (), name
        assert cert.tiling_ok and cert.tiling_overlaps == (), name
        assert cert.ok, name
        assert (cert.samples, cert.word_length, cert.seed) == (60, 3, 0)


def test_R_swap_is_a_recorded_stabilizer(setups):
    """The coordinate swap fixes H and maps the R domain onto itself exactly;
    the certificate reports it as a stabilizer instead of a tiling failure."""
    lat, ample, grp, nef, dom = setups["R"]
    cert = verify_fundamental(lat, ample, grp, dom, nef, samples=30, word_length=3, seed=0)
    assert (1,) in cert.stabilizer_words  # generator index of the swap
    assert cert.tiling_ok


@pytest.mark.parametrize(
    "name, seed",
    [("D41", 0), ("D51", 0), ("D52", 0)] + [("R13", seed) for seed in (6, 9, 11, 12, 14)],
)
def test_fundamental_certificate_holds_where_greedy_descent_stuck(name, seed):
    lat, ample, grp, nef, dom = _setup(name)
    cert = verify_fundamental(lat, ample, grp, dom, nef, samples=200, seed=seed)
    assert cert.coverage_failures == ()
    assert cert.ok


@pytest.mark.parametrize(
    "name, seed",
    [(n, 0) for n in "UPR"]
    + [(n, seed) for n in ("D41", "D51", "D52", "R13") for seed in (0, 6, 9, 11, 12, 14)],
)
def test_scattered_samples_reduce_into_the_domain(setups, name, seed):
    """A sampled oracle for the exact coverage check: chamber classes (the
    ample class and the domain rays, where the chamber is round) scattered
    by random generator words all reduce into the domain."""
    lat, ample, grp, nef, dom = setups[name] if name in setups else _setup(name)
    basis = nef.rays or (ample,) + dom.rays
    for x in O.scattered_samples(basis, grp.gens, 200, 3, seed):
        end, reflections, word = reduce_to_domain(lat, ample, grp, dom, x)
        assert all(O.pairing(lat.gram, end, n) >= 0 for n in dom.cone.normals), x
        assert _replay(lat.gram, grp.gens, x, reflections, word) == end


def test_coverage_is_decided_not_sampled(setups):
    """A hand-built L_P domain without its ray (1, 1): (1, 1) lies in the
    chamber and no move lowers it, so its reduction stops outside.  The
    certificate says so at every sample count and seed, zero included."""
    lat, ample, grp, nef, _ = setups["P"]
    cone = cone_from_inequalities(lat, [(0, -1), (19, 40)])
    assert cone.rays == ((1, 0), (20, 19))
    fake = SterkDomain(cone=cone, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    certs = {
        (samples, seed): verify_fundamental(lat, ample, grp, fake, nef, samples=samples, seed=seed)
        for samples in (0, 40, 200)
        for seed in (0, 1, 7)
    }
    for (samples, seed), cert in certs.items():
        assert (cert.samples, cert.seed) == (samples, seed)
        assert replace(cert, samples=0, seed=0) == certs[0, 0]
    assert not certs[0, 0].coverage_ok
    assert certs[0, 0].coverage_failures == ((1, 1),)


def test_coverage_reads_the_lineality_of_the_stopping_cone(setups):
    """With the swap alone on L_R, no move lowers any class and the chamber
    is round, so the cone where reductions stop is the whole plane: it has
    no ray, only lineality.  The wedge x1 >= 0, 7 x1 + 2 x2 >= 0 misses the
    positive class (-1, 7), whose reduction stops where it starts."""
    lat, ample, _, nef, _ = setups["R"]
    swap_only = build_group(lat, ample, [SWAP], nef)
    wedge = cone_from_inequalities(lat, [(0, 1), (-2, 7)])
    fake = SterkDomain(cone=wedge, cuts=(), orbit_bound=72, orbit_size=1, saturated=True)
    with pytest.raises(CoverageFailure):
        reduce_to_domain(lat, ample, swap_only, fake, (-1, 7))
    cert = verify_fundamental(lat, ample, swap_only, fake, nef, samples=0, word_length=1)
    assert not cert.coverage_ok
    assert cert.coverage_failures == ()


def test_coverage_ok_false_with_no_failures_leaves_coverage_undecided(setups):
    """The coverage test is sufficient, not necessary.  With the swap alone
    on L_R the stopping cone is the whole plane, which the half-plane
    x . H >= 0 does not contain, so coverage reads False; but the plane's
    part outside that half lies outside the positive cone, so there is no
    failure, and positive classes do reduce into the half-plane."""
    lat, ample, _, nef, _ = setups["R"]
    swap_only = build_group(lat, ample, [SWAP], nef)
    half = cone_from_inequalities(lat, [(1, 1)])
    fake = SterkDomain(cone=half, cuts=(), orbit_bound=72, orbit_size=1, saturated=True)
    cert = verify_fundamental(lat, ample, swap_only, fake, nef, samples=0, word_length=1)
    assert not cert.coverage_ok
    assert cert.coverage_failures == ()
    # (7, -1) and (-1, 7) have norm 2 and pair 54 with H, so their cone is positive
    for x in O.scattered_samples(((7, -1), (-1, 7)), swap_only.gens, 100, 3, 0):
        assert O.norm(lat.gram, x) > 0 and O.pairing(lat.gram, ample, x) > 0
        end, _, _ = reduce_to_domain(lat, ample, swap_only, fake, x)
        assert all(O.pairing(lat.gram, end, n) >= 0 for n in half.normals), x


@pytest.mark.parametrize(
    "name, ample",
    [("L_R", (1, 1))] + [("diag(2,-6)", ample) for ample in ((1, 0), (2, 1), (3, 1), (4, 1))],
)
def test_coverage_on_a_chamber_that_is_not_certified(setups, name, ample):
    """Round chambers: no walls, so the cone where reductions stop is cut by
    the moves' rows alone, and it still lies in the domain.  diag(2,-6) at
    (4, 1) is where greedy generator descent stopped outside the domain."""
    if name == "L_R":
        lat, ample, grp, nef, dom = setups["R"]
    else:
        lat = Lattice(GRAM_D)
        nef = nef_walls(lat, ample)
        grp = build_group(lat, ample, (PELL, FLIP), nef)
        dom = sterk_domain(lat, ample, grp, nef)
    assert nef.walls == () and not nef.complete
    cert = verify_fundamental(lat, ample, grp, dom, nef, samples=0)
    assert cert.coverage_ok and cert.coverage_failures == ()
    if ample == (4, 1):
        assert cert.ok


def test_overlapping_domain_fails_tiling(setups):
    latP, ampleP, grpP, nefP, domP = setups["P"]
    # widen the true domain past its cut: the gamma_P translate now overlaps
    wide = cone_from_inequalities(latP, [(0, -1), (5, 8)])
    assert wide.rays == ((1, 0), (4, 5))
    fake = SterkDomain(cone=wide, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    cert = verify_fundamental(latP, ampleP, grpP, fake, nefP, samples=40, word_length=2, seed=1)
    assert not cert.tiling_ok
    assert (0,) in cert.tiling_overlaps
    assert not cert.ok
    # coverage still passes: the true domain sits inside the widened cone
    assert cert.coverage_ok
    # the ray (4, 5) = gamma_P(H) pairs -8 with gamma_P(H) - H, so the cut does
    # not settle the word; the facets and their images cut out a
    # full-dimensional cone, which the double description finds
    cut = tuple(a - b for a, b in zip(O.apply_matrix(GAMMA_P, ampleP), ampleP))
    assert O.pairing(GRAM_P, (4, 5), cut) == -8
    translate = cone_from_inequalities(latP, [O.apply_matrix(GAMMA_P, n) for n in wide.normals])
    assert O.meet_dimension(latP, wide, translate) == 2


@pytest.mark.parametrize(
    "normals, rays",
    [([(0, 1), (0, -1), (1, 0)], ((1, 0),)), ([(1, 0), (-1, 0)], ())],
    ids=["half-line", "line"],
)
def test_domain_that_is_not_full_dimensional_raises(setups, normals, rays):
    """The half-line through (1, 0) lies on the near side of the cut of
    gamma_P(H) = (4, 5), and its image through (3, 4) on the far side; tiles
    must still be full-dimensional, so a domain that is not raises before
    the rays or the facets decide any word."""
    latP, ampleP, grpP, nefP, _ = setups["P"]
    cone = cone_from_inequalities(latP, normals)
    assert cone.rays == rays
    assert not cone.full_dim
    fake = SterkDomain(cone=cone, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    with pytest.raises(GeometryError):
        verify_fundamental(latP, ampleP, grpP, fake, nefP, samples=0, word_length=2)


def test_a_domain_with_lineality_is_matched_by_its_facets(setups):
    """The half-plane x . H >= 0 on L_R has the lineality (1, -1), so its
    ray representative is not canonical: the swap maps it onto itself with
    the representative (0, 1) in place of (1, 0).  Its facet is fixed, so
    that translate is a stabilizer, not an overlap.  The half-plane is not
    pointed, so its ray settles no word: every other word moves the facet,
    and two half-planes meet in dimension 2."""
    lat, ample, grp, nef, _ = setups["R"]
    half = cone_from_inequalities(lat, [(1, 1)])
    assert (half.rays, half.lineality, half.full_dim) == (((1, 0),), ((1, -1),), True)
    assert O.apply_matrix(SWAP, (1, 0)) == (0, 1)
    assert [O.apply_matrix(SWAP, n) for n in half.normals] == [(1, 1)]
    fake = SterkDomain(cone=half, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    cert = verify_fundamental(lat, ample, grp, fake, nef, samples=0, word_length=1)
    assert grp.gens[1] == SWAP
    assert (1,) in cert.stabilizer_words
    assert (1,) not in cert.tiling_overlaps
    cert = verify_fundamental(lat, ample, grp, fake, nef, samples=0, word_length=2)
    assert cert.tiling_overlaps == ((0, 0), (1, 0), (0,), (0, 1), (2,), (2, 2))
    assert cert.stabilizer_words == ((1,),)


def test_a_word_that_fixes_H_has_no_separating_cut(setups):
    """The swap fixes H = (1, 1) on L_R, so its cut h - H is zero and pairs
    to 0 with every ray: it would pass for a cut that separates the wedge
    with rays (0, 1) and (2, -7) from its image, with rays (1, 0) and
    (-7, 2).  Their interiors meet, and the double description says so."""
    lat, ample, grp, nef, _ = setups["R"]
    wedge = cone_from_inequalities(lat, [(0, 1), (-2, 7)])
    assert wedge.rays == ((0, 1), (2, -7)) and wedge.pointed and wedge.full_dim
    translate = cone_from_inequalities(lat, [O.apply_matrix(SWAP, n) for n in wedge.normals])
    assert translate.rays == ((-7, 2), (1, 0))
    assert O.meet_dimension(lat, wedge, translate) == 2
    fake = SterkDomain(cone=wedge, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    cert = verify_fundamental(lat, ample, grp, fake, nef, samples=0, word_length=1)
    assert grp.gens[1] == SWAP
    assert (1,) in cert.tiling_overlaps


@pytest.mark.parametrize(
    "source, name", [("rank2", n) for n in sorted(RANK2)] + [("fixture", n) for n in "UPR"]
)
def test_the_separating_cut_decides_every_translate(setups, source, name):
    """For each word g of length <= 4 that is not a stabilizer, the cut of
    h = gH != H has the domain D on its near side and gD on its far side, so
    D and gD share no interior point; the meet of their facets agrees."""
    lat, ample, grp, nef, dom = _setup(name) if source == "rank2" else setups[name]
    cone = dom.cone
    assert cone.pointed and cone.full_dim
    for g, word in group_words(grp, 4):
        translate = cone_from_inequalities(lat, [O.apply_matrix(g, n) for n in cone.normals])
        if translate.normals == cone.normals:
            continue
        h = O.apply_matrix(g, ample)
        assert h != tuple(ample), word
        cut = tuple(a - b for a, b in zip(h, ample))
        assert all(O.pairing(lat.gram, r, cut) >= 0 for r in cone.rays), word
        assert all(O.pairing(lat.gram, r, cut) <= 0 for r in translate.rays), word
        assert O.meet_dimension(lat, cone, translate) < lat.rank, word


def test_domain_ray_outside_the_positive_cone_is_not_nef(setups):
    """A hand-built domain whose ray (0, 1) has norm -2 reports rays_nef
    false instead of raising OutsidePositiveCone."""
    latP, ampleP, grpP, nefP, _ = setups["P"]
    quadrant = cone_from_inequalities(latP, [(1, 0), (0, -1)])
    assert quadrant.rays == ((0, 1), (1, 0))
    assert latP.norm((0, 1)) < 0
    fake = SterkDomain(cone=quadrant, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    cert = verify_fundamental(latP, ampleP, grpP, fake, nefP, samples=20, word_length=2, seed=1)
    assert not cert.rays_nef
    assert not cert.ok


def test_domain_ray_outside_the_certified_chamber_is_not_nef(setups):
    """A hand-built domain whose ray (1, -1) lies in the positive cone but
    beyond the chamber wall (0, -1): the certified chamber's facets, not
    the positive cone alone, decide that the ray is not nef."""
    latP, ampleP, grpP, nefP, _ = setups["P"]
    assert nefP.complete and (0, -1) in nefP.cone.normals
    wide = cone_from_inequalities(latP, [(1, -2), (1, 2)])
    assert wide.rays == ((1, -1), (1, 1))
    assert all(latP.norm(r) > 0 and latP.pairing(ampleP, r) > 0 for r in wide.rays)
    assert not nef_test(latP, ampleP, (1, -1))
    fake = SterkDomain(cone=wide, cuts=(), orbit_bound=56, orbit_size=2, saturated=True)
    cert = verify_fundamental(latP, ampleP, grpP, fake, nefP, samples=0, word_length=1)
    assert not cert.rays_nef
    assert not cert.ok


def test_bound_exhausted_carries_partial(setups):
    latP, ampleP, grpP, nefP, _ = setups["P"]
    partial = sterk_domain(latP, ampleP, grpP, nefP, bound=1, ceiling=0)
    assert partial is not None
    assert not partial.saturated
    assert partial.rays == ((1, 0), (3, 4))  # bare chamber, cuts not yet found
    assert partial.orbit_bound == 1


def test_bound_exhausted_partial_none_when_nothing_valid():
    # non-polyhedral chamber and no group: no attempt yields a pointed cone
    latR = Lattice(GRAM_R)
    nefR = nef_walls(latR, AMPLE_R)
    empty = build_group(latR, AMPLE_R, [], nefR)
    assert sterk_domain(latR, AMPLE_R, empty, nefR, ceiling=0) is None


def test_negative_ceiling_raises(setups):
    """A negative ceiling is an error, not a search of no doublings that
    quietly returns None; so is a bound below 1, which doubling never grows
    and which would return the unsaturated bare chamber."""
    latP, ampleP, grpP, nefP, _ = setups["P"]
    for kwargs in ({"ceiling": -1}, {"bound": 0, "ceiling": 12}, {"bound": -5, "ceiling": 12}):
        with pytest.raises(GeometryError):
            sterk_domain(latP, ampleP, grpP, nefP, **kwargs)
    assert sterk_domain(latP, ampleP, grpP, nefP, bound=1, ceiling=0) is not None


@pytest.mark.parametrize("kwargs", [{"samples": -3}, {"word_length": -1}, {"samples": -1, "word_length": -1}])
def test_negative_sample_count_or_word_length_raises(setups, kwargs):
    """Both are input errors: the sample count is only echoed, and a
    negative word length would spell no tiling words."""
    lat, ample, grp, nef, dom = setups["R"]
    with pytest.raises(GeometryError):
        verify_fundamental(lat, ample, grp, dom, nef, **{"samples": 5, **kwargs})


def test_bad_ample_class_raises_at_entry(setups):
    # the reducer takes a validated ample class; each entry point validates it
    lat, _, grp, nef, dom = setups["R"]
    for ample in ((1, 1, 0), (1.0, 1)):
        with pytest.raises(DimensionMismatch):
            verify_fundamental(lat, ample, grp, dom, nef, samples=5)
        with pytest.raises(DimensionMismatch):
            elliptic_orbits(lat, ample, grp, dom)
        with pytest.raises(DimensionMismatch):
            genus_orbits(lat, ample, grp, nef, dom, 2)


def _ua2_swap():
    """U + A1^2 at H = (4, 3, 1, 1), with the swap of the A1 coordinates."""
    lat = Lattice(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2)))
    ample = (4, 3, 1, 1)
    nef = nef_walls(lat, ample)
    swap = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    grp = build_group(lat, ample, [swap], nef)
    return lat, ample, grp, nef, sterk_domain(lat, ample, grp, nef)


@pytest.mark.parametrize("name", ["U", "P", "R", "UA1^2", "D41", "P partial"])
def test_grown_domain_equals_the_rebuilt_one(setups, name):
    """The one growing double description gives the cone that the chamber
    and every orbit cut at the domain's bound give from scratch, and the
    cuts are the orbit cuts on its facets."""
    if name in setups:
        lat, ample, grp, nef, dom = setups[name]
    elif name == "UA1^2":
        lat, ample, grp, nef, dom = _ua2_swap()
    elif name == "D41":
        lat, ample, grp, nef, dom = _setup(name)
    else:  # L_P's partial domain
        lat, ample, grp, nef, _ = setups["P"]
        dom = sterk_domain(lat, ample, grp, nef, bound=1, ceiling=0)
    orbit = orbit_of_ample(lat, ample, grp, dom.orbit_bound)
    cuts = [
        (primitive_ray(tuple(a - b for a, b in zip(h, ample))), h, word)
        for h, word in sorted(orbit.items())
        if h != ample
    ]
    chamber = nef.cone.normals if nef.complete else nef.walls
    rebuilt = cone_from_inequalities(lat, tuple(chamber) + tuple(n for n, _, _ in cuts))
    assert dom.cone == rebuilt
    assert [(c.normal, c.orbit_point, c.word) for c in dom.cuts] == [
        c for c in cuts if c[0] in rebuilt.normals
    ]


def test_group_words_enumerates_distinct_elements(setups):
    _, _, grpR, _, _ = setups["R"]
    singles = group_words(grpR, 1)
    assert [w for _, w in singles] == [(0,), (1,), (2,)]
    pairs = group_words(grpR, 2)
    mats = {g for g, _ in pairs}
    assert len(pairs) == len(mats)  # no duplicate group elements
    for g, word in pairs:
        m = ((1, 0), (0, 1))
        for i in word:
            m = tuple(
                tuple(sum(grpR.matrices()[i][r][k] * m[k][c] for k in range(2)) for c in range(2))
                for r in range(2)
            )
        assert m == g
        assert g != ((1, 0), (0, 1))


def test_coverage_of_a_built_domain_needs_no_double_description(domain_pool, monkeypatch):
    """Every domain ``sterk_domain`` returns has only rows of the stopping
    cone K for facets, so K lies in it and coverage holds with no double
    description built."""
    built = dict(domain_pool)
    built["UA1^2", None] = _ua2_swap()

    def refuse(*args):
        raise AssertionError("coverage built a double description")

    monkeypatch.setattr(sterk, "DoubleDescription", refuse)
    for key, (lat, ample, grp, nef, dom) in built.items():
        cert = verify_fundamental(lat, ample, grp, dom, nef, samples=0, word_length=2)
        assert cert.ok and cert.coverage_failures == (), key


def test_cut_test_agrees_with_the_images_test(domain_pool):
    """The cut of h = gH, read from G r . h and r . g^T G H, separates a
    cone's rays from their g-images exactly when the images say so, on every
    word up to length 4, for each domain and each certified chamber, which
    the cut of a word often does not separate; a stabilizer of H never is."""
    seen = set()
    for key, (lat, ample, grp, nef, dom) in domain_pool.items():
        gh = O.apply_matrix(lat.gram, ample)
        for cone in (dom.rays, nef.rays):
            rays = [(r, O.apply_matrix(lat.gram, r), O.pairing(lat.gram, ample, r)) for r in cone]
            for g, word in group_words(grp, 4):
                h = O.apply_matrix(g, ample)
                cut = tuple(a - b for a, b in zip(h, ample))
                direct = (
                    h != ample
                    and all(O.pairing(lat.gram, cut, r) >= 0 for r in cone)
                    and all(O.pairing(lat.gram, cut, O.apply_matrix(g, r)) <= 0 for r in cone)
                )
                assert _cut_separates(ample, gh, g, rays) == direct, (key, cone, word)
                seen.add((direct, h == ample))
    assert seen == {(True, False), (False, False), (False, True)}
