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
the domain, so the reduction always lands there.
``verify_fundamental`` spot-checks the two fundamental-domain properties
(coverage on random samples, disjoint interiors of translates) and returns
a certificate of what was actually established.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from operator import mul

from . import linalg
from .cones import (
    DoubleDescription,
    RationalCone,
    contains,
    interiors_disjoint,
    transform_cone,
)
from .errors import BrokenInvariant, CoverageFailure, GeometryError
from .groups import GroupGenerators, word_search
from .lattice import Isometry, Lattice, Vec, as_vector, primitive_ray
from .weyl import ORBIT_BOUND_FACTOR, Bounds, NefDescription, _nef_rays, walk_to_nef


@dataclass(frozen=True)
class OrbitCut:
    """One inequality of the domain, with the orbit point that produced it."""

    normal: Vec
    orbit_point: Vec
    word: tuple[int, ...]


@dataclass(frozen=True)
class SterkDomain:
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
    GeometryError.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    if ceiling < 0:
        raise GeometryError(f"doubling ceiling {ceiling} is negative")
    bound = ORBIT_BOUND_FACTOR * lat.norm(ample) if bound is None else bound
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
                lat._pair(ample, g.apply(r)) >= lat._pair(ample, r)
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
    y, reflections = walk_to_nef(lat, ample, x, domain.nef)
    mats, inv = group.matrices(), group.inverses
    # (tier, word, row): generators are tier 0, cut inverses tier 1; a move m
    # sends the degree H.y to m^-1(H).y, the dot product of y with G m^-1(H)
    moves = sorted(
        [(0, (i,), lat._dual(linalg.mat_vec(mats[j], ample))) for i, j in enumerate(inv)]
        + [(1, tuple(inv[i] for i in reversed(c.word)), lat._dual(c.orbit_point))
           for c in domain.cuts],
        key=lambda m: (m[0], len(m[1]), m[1]),
    )
    degree = lat._pair(ample, y)
    word = ()
    while True:
        lower = [(t, d, w) for t, w, row in moves if (d := sum(map(mul, row, y))) < degree]
        if not lower:
            break
        # min keeps the first of equal (tier, degree): the shortest, smallest word
        _, degree, w = min(lower, key=lambda m: m[:2])
        for i in w:
            y = linalg.mat_vec(mats[i], y)
        word += w
    if not contains(lat, domain.cone, y):
        raise CoverageFailure(x, y)
    return y, reflections, word


@dataclass(frozen=True)
class FundamentalCertificate:
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
    """Distinct non-identity group elements spelled by words up to ``length``."""
    lat = group.lattice
    identity = linalg.identity(lat.rank)
    elements = word_search(
        [lambda m, g=g.matrix: linalg.mat_mul(g, m) for g in group.gens],
        identity,
        depth=length,
    )
    del elements[identity]
    return [(Isometry(lat, m), w) for m, w in sorted(elements.items())]


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
    the ample class) or meet it in no interior point.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    rays_nef = _nef_rays(lat, ample, domain.cone.rays)

    basis = nef.rays or (ample,) + domain.cone.rays
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        coeffs = [rng.randint(0, 6) for _ in basis]
        if not any(coeffs):
            coeffs[rng.randrange(len(basis))] = 1
        x = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(lat.rank))
        for _ in range(rng.randint(0, word_length)):
            g = group.gens[rng.randrange(len(group.gens))] if group.gens else None
            if g is not None:
                x = g.apply(x)
        try:
            reduce_to_domain(lat, ample, group, domain, x)
        except CoverageFailure:
            failures.append(x)
    coverage_ok = not failures

    overlaps = []
    stabilizers = []
    for g, word in group_words(group, word_length):
        translate = transform_cone(lat, domain.cone, g)
        if (
            translate.rays == domain.cone.rays
            and translate.lineality == domain.cone.lineality
        ):
            stabilizers.append(word)
        elif not interiors_disjoint(lat, domain.cone, translate):
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
