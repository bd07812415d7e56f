"""Polyhedral fundamental domains cut out by an ample orbit.

The domain is the part of the ample chamber on the near side of every orbit
point of the ample class: x satisfies x.(h - H) >= 0 for each orbit point h.
Only finitely many orbit points matter; we take all of them up to a degree
cap, check that the resulting cone is pointed, full-dimensional, spanned by
rays that pass the chamber membership test, and that no ray can still be
moved down by a generator (descent stability).  If any check fails the cap
doubles, up to the shared doubling ceiling.  Running out is not an error: the
answer is then the last candidate that failed only descent stability, flagged
``saturated=False``, or None when no doubling gave a candidate.

Reduction into the domain is walk-then-descend: reflections bring a class
into the chamber (by the walls of the chamber the domain records, when it
is certified), then generators lower its degree and, where none does, the
inverse of a cut's orbit element does.  A class that neither lowers lies in
the domain, so the reduction always lands there.  One prepared reducer per
(lattice, ample class, group, domain) does every reduction: it builds G H,
the chamber's wall check and the sorted move table once, then checks each
class's positive closure and each endpoint's membership in the domain.
``reduce_to_domain`` builds one and applies it once; the sampled coverage
check and the orbit tables build one per call and apply it to every class.
``verify_fundamental`` spot-checks the two fundamental-domain properties
(coverage on random samples, disjoint interiors of translates) and returns
a certificate of what was actually established.  Each translate gD is
decided exactly, first by a separating cut: for h = gH != H, a domain D of
Dirichlet type lies in {x : x.(h - H) >= 0} and gD in {y : y.(h - H) <= 0},
so D and gD share no interior point.  The check runs on D's rays and their
images, which generate D and gD when D is pointed.  Only a word the cut does
not settle, which a hand-built domain allows, costs a double description of
D and gD together.
"""

from __future__ import annotations

import random
from functools import partial
from operator import mul

from . import linalg
from .cones import DoubleDescription, RationalCone, interiors_disjoint, transform_cone
from .enumeration import _positive_closure
from .errors import BrokenInvariant, CoverageFailure, GeometryError
from .groups import GroupGenerators, word_search
from .lattice import Lattice, Record, Vec, as_vector, primitive_ray
from .weyl import ORBIT_BOUND_FACTOR, Bounds, NefDescription, _nef_rays, _walker


class OrbitCut(Record):
    """One inequality of the domain, with the orbit point that produced it."""

    normal: Vec
    orbit_point: Vec
    word: tuple[int, ...]


class SterkDomain(Record):
    """The domain's cone and cuts; ``nef`` is the chamber it was cut from."""

    cone: RationalCone
    cuts: tuple[OrbitCut, ...]
    orbit_bound: int
    orbit_size: int
    saturated: bool
    nef: NefDescription | None = None

    @property
    def rays(self) -> tuple[Vec, ...]:
        return self.cone.rays


def orbit_of_ample(
    lat: Lattice, ample: Vec, group: GroupGenerators, cap: int
) -> dict[Vec, tuple[int, ...]]:
    """Breadth-first orbit of the ample class, kept while degree <= cap.

    Returns each orbit point with a shortest generator word reaching it.
    """
    moves = [partial(linalg.mat_vec, m) for m in group.matrices()]
    return word_search(moves, tuple(ample), keep=lambda y: lat._pair(ample, y) <= cap)


def sterk_domain(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    nef: NefDescription,
    bound: int | None = None,
    ceiling: int = Bounds.ceiling,
) -> SterkDomain | None:
    """The domain, its unsaturated partial, or None (see the module docstring).

    One double description takes the chamber rows (the facets of a certified
    chamber, else the accepted walls) once and each doubling's orbit cuts;
    it drops a row it already implies.  A negative ceiling raises
    GeometryError, and so does a bound below 1, which doubling never grows.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    if ceiling < 0:
        raise GeometryError(f"doubling ceiling {ceiling} is negative")
    bound = ORBIT_BOUND_FACTOR * lat.norm(ample) if bound is None else bound
    if bound < 1:
        raise GeometryError(f"orbit bound {bound} is below 1")
    dd = DoubleDescription(lat)
    dd.add(nef.cone.normals if nef.complete else nef.walls)
    last = None
    for _ in range(ceiling + 1):
        # a larger cap can give an orbit point a shorter word, so the BFS reruns
        orbit = orbit_of_ample(lat, ample, group, bound)
        cuts = []
        for h, word in sorted(orbit.items()):
            if h == ample:
                continue
            diff = tuple(a - b for a, b in zip(h, ample))
            # reverse Cauchy-Schwarz: distinct same-norm points of one
            # component pair strictly above the norm, so H stays interior
            if lat.pairing(ample, diff) <= 0:
                raise BrokenInvariant(f"orbit point {h} at the ample degree")
            cuts.append(OrbitCut(primitive_ray(diff), h, word))
        dd.add(c.normal for c in cuts)
        cone = dd.cone()
        if cone.pointed and cone.full_dim and _nef_rays(lat, ample, cone.rays):
            stable = all(
                lat._pair(ample, linalg.mat_vec(g, r)) >= lat._pair(ample, r)
                for r in cone.rays
                for g in group.gens
            )
            facets = set(cone.normals)
            active = tuple(c for c in cuts if c.normal in facets)
            last = SterkDomain(cone, active, bound, len(orbit), stable, nef)
            if stable:
                return last
        bound *= 2
    return last


def reduce_to_domain(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    domain: SterkDomain,
    x,
) -> tuple[Vec, tuple[Vec, ...], tuple[int, ...]]:
    """Move a positive-closure class into the domain.

    Reflections walk x into the chamber.  Then, while some move strictly
    lowers the degree, one is applied: the generator with the least image
    degree (then the smaller index) if any lowers it, else the cut inverse
    with the least image degree (then the shorter, smaller word).  For a cut
    with orbit point h = gamma(H), gamma^-1 sends the degree H.y to h.y, so
    a class no move lowers satisfies every cut.  Generators go first, so a
    class they alone bring into the domain keeps its generator-only word.

    Returns ``(point, reflections, generator word)``; applying the recorded
    reflections to x, then the generators, in order, yields the point.
    Raises CoverageFailure when the endpoint misses the domain, which only a
    hand-built domain not cut out by its own cuts allows.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    return _reducer(lat, ample, group, domain)(as_vector(x, lat.rank))


def _reducer(lat: Lattice, ample: Vec, group: GroupGenerators, domain: SterkDomain):
    """``reduce(x)`` for ``reduce_to_domain`` on one validated ample class.

    The walk's chamber data and the sorted move table are built once, here,
    so a caller reducing many classes into one domain builds them once.
    ``reduce`` checks that its class lies in the positive closure and that
    the endpoint lies in the domain, as ``reduce_to_domain`` does.
    """
    walk = _walker(lat, ample, domain.nef)
    mats, inv = group.gens, group.inverses
    # (word, row) in two tiers, generators before cut inverses; a move m sends
    # the degree H.y to m^-1(H).y, the dot product of y with G m^-1(H)
    tiers = (
        [((i,), lat._dual(linalg.mat_vec(mats[j], ample))) for i, j in enumerate(inv)],
        sorted(
            ((tuple(inv[i] for i in reversed(c.word)), lat._dual(c.orbit_point))
             for c in domain.cuts),
            key=lambda m: (len(m[0]), m[0]),
        ),
    )
    dual_ample = lat._dual(ample)
    # n.y is the dot product of y with G n, since G is symmetric
    dual_normals = [lat._dual(n) for n in domain.cone.normals]

    def reduce(x: Vec) -> tuple[Vec, tuple[Vec, ...], tuple[int, ...]]:
        y, reflections = walk(_positive_closure(lat, ample, x))
        degree = sum(map(mul, dual_ample, y))
        word = ()
        while True:
            # the first tier with a move that lowers the degree gives the move
            # of least image degree, the first (shortest, smallest word) of equals
            for tier in tiers:
                move = None
                for w, row in tier:
                    if (d := sum(map(mul, row, y))) < degree:
                        degree, move = d, w
                if move:
                    break
            else:
                break  # no move lowers the degree
            for i in move:
                y = linalg.mat_vec(mats[i], y)
            word += move
        if any(sum(map(mul, n, y)) < 0 for n in dual_normals):
            raise CoverageFailure(x, y)
        return y, reflections, word

    return reduce


class FundamentalCertificate(Record):
    """What the sampled checks established.

    ``stabilizer_words`` lists group elements that carry the domain onto
    itself exactly; a fundamental domain tolerates these (they are its own
    finite symmetries), so they do not count as tiling failures.
    """

    rays_nef: bool
    coverage_ok: bool
    coverage_failures: tuple[Vec, ...]
    tiling_ok: bool
    tiling_overlaps: tuple[tuple[int, ...], ...]
    stabilizer_words: tuple[tuple[int, ...], ...]
    samples: int
    word_length: int
    seed: int

    @property
    def ok(self) -> bool:
        return self.rays_nef and self.coverage_ok and self.tiling_ok


def group_words(group: GroupGenerators, length: int):
    """``(matrix, word)`` for each distinct non-identity group element spelled
    by a word up to ``length``, sorted by matrix."""
    identity = linalg.identity(group.lattice.rank)
    elements = word_search(
        [partial(linalg.mat_mul, g) for g in group.gens], identity, depth=length
    )
    del elements[identity]
    return sorted(elements.items())


def _cut_separates(lat: Lattice, ample: Vec, g, rays, images) -> bool:
    """Whether the cut of h = gH separates a cone's rays from their images:
    h != H, the rays pair >= 0 with h - H and the images pair <= 0."""
    h = linalg.mat_vec(g, ample)
    if h == ample:
        return False
    cut = lat._dual(tuple(a - b for a, b in zip(h, ample)))
    return all(sum(map(mul, cut, r)) >= 0 for r in rays) and all(
        sum(map(mul, cut, y)) <= 0 for y in images
    )


def verify_fundamental(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    domain: SterkDomain,
    nef: NefDescription,
    samples: int = Bounds.samples,
    word_length: int = Bounds.word_length,
    seed: int = Bounds.seed,
) -> FundamentalCertificate:
    """Sampled coverage plus pairwise-disjointness of word translates.

    Coverage draws non-negative integer combinations of the chamber rays
    (of the ample class and the domain rays, when the chamber is round),
    scatters them by random generator words, and reduces each back into the
    domain.  On a domain from ``sterk_domain`` coverage holds by
    construction, so the samples cross-check the reduction.  Tiling checks
    every distinct group element spelled by a word of at most
    ``word_length`` generators: its translate of the domain must either
    coincide with the domain (a stabilizer symmetry, e.g. a generator fixing
    the ample class) or meet it in no interior point.  On a pointed domain
    the cut of h = gH != H decides the second exactly, when the domain's
    rays pair >= 0 with h - H and their images pair <= 0; only a word the
    cut does not settle runs the double description of the domain and its
    translate.  A negative ``samples`` or ``word_length`` raises
    GeometryError, and so does a domain that is not full-dimensional, at its
    first word that is not a stabilizer.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    if samples < 0:
        raise GeometryError(f"sample count {samples} is negative")
    if word_length < 0:
        raise GeometryError(f"word length {word_length} is negative")
    rays_nef = _nef_rays(lat, ample, domain.cone.rays)

    basis = nef.rays or (ample,) + domain.cone.rays
    columns = tuple(zip(*basis))
    rng = random.Random(seed)
    reduce = _reducer(lat, ample, group, domain)
    failures = []
    for _ in range(samples):
        coeffs = [rng.randint(0, 6) for _ in basis]
        if not any(coeffs):
            coeffs[rng.randrange(len(basis))] = 1
        x = tuple(sum(map(mul, coeffs, col)) for col in columns)
        for _ in range(rng.randint(0, word_length)):
            if group.gens:
                x = linalg.mat_vec(group.gens[rng.randrange(len(group.gens))], x)
        try:
            reduce(x)
        except CoverageFailure:
            failures.append(x)
    coverage_ok = not failures

    cone = domain.cone
    # the rays generate a pointed cone, so they decide its stabilizers and
    # cuts; a cone that is not full-dimensional is left to the guard in
    # interiors_disjoint, since the cut would pass it
    by_rays = cone.pointed and cone.full_dim
    overlaps = []
    stabilizers = []
    for g, word in group_words(group, word_length):
        if by_rays:
            images = [linalg.mat_vec(g, r) for r in cone.rays]
            if tuple(sorted(map(primitive_ray, images))) == cone.rays:
                stabilizers.append(word)
                continue
            if _cut_separates(lat, ample, g, cone.rays, images):
                continue
        translate = transform_cone(lat, cone, g)
        # the facets decide a full-dimensional cone; its rays are canonical
        # only when it is pointed
        same = translate.normals == cone.normals if cone.full_dim else translate.rays == cone.rays
        if same and translate.lineality == cone.lineality:
            stabilizers.append(word)
        elif not interiors_disjoint(lat, cone, translate):
            overlaps.append(word)
    tiling_ok = not overlaps

    return FundamentalCertificate(
        rays_nef=rays_nef,
        coverage_ok=coverage_ok,
        coverage_failures=tuple(failures),
        tiling_ok=tiling_ok,
        tiling_overlaps=tuple(overlaps),
        stabilizer_words=tuple(stabilizers),
        samples=samples,
        word_length=word_length,
        seed=seed,
    )
