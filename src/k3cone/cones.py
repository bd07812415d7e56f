"""Rational polyhedral cones by incremental double description.

Cones are cut out by pairing inequalities ``x . n >= 0`` whose normals ``n``
are lattice vectors; the euclidean normal of such a wall is ``G n``.  All
arithmetic is on integers, with fraction-free elimination for ranks and the
canonical lineality, and rays come back primitive and lex-sorted.

``DoubleDescription`` is the one implementation of the incremental method
(Fukuda & Prodon 1996).  Its state is the rays and lineality of the cone cut
out so far and the rows kept so far; ``add`` cuts it by more rows, one at a
time, and ``cone`` finishes it.  ``cone_from_inequalities`` validates and
deduplicates its normals, adds them, and finishes.  ``nef_walls`` keeps one
state across its doublings and adds only the walls each doubling accepts.

A row that vanishes on the lineality and on which no ray is negative is
implied by the cone so far, and stays implied, because adding rows only
shrinks the cone.  It is dropped without a step and never scanned again.
Dropping it changes nothing downstream: an implied row is never a facet
(facet normals of a full-dimensional cone are unique, and distinct primitive
normals are never parallel), and the rank of the rows tight on a face is the
same with or without rows the cone implies.  So the adjacency and facet tests
look at the kept rows only.  Each ray carries the set of kept rows it is
tight on, as a bit mask.  On a pointed cone two rays are adjacent exactly
when no third ray is tight on every row they share (the combinatorial test);
with lineality present the rank of the shared rows decides.

The round positive cone is never materialized here; callers that need it use
the predicate ``x.x >= 0 and x.H > 0`` directly and only hand in polyhedral
sub-cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import linalg
from .errors import GeometryError, ZeroVector
from .lattice import Isometry, Lattice, Vec, as_vector, primitive_ray


@dataclass(frozen=True)
class RationalCone:
    """rays + lineality generate the cone; normals cut it out."""

    rank: int
    normals: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    full_dim: bool

    @property
    def pointed(self) -> bool:
        return not self.lineality

    @property
    def is_full_space(self) -> bool:
        return not self.normals

    def dimension(self) -> int:
        gens = list(self.rays) + list(self.lineality)
        return linalg.matrix_rank(gens) if gens else 0


class DoubleDescription:
    """The running state of {x : x . n >= 0 for every normal n added}.

    ``rays`` and ``lineality`` generate the cone cut out so far, and
    ``normals`` are the rows kept so far.  ``duals[i]`` is ``G rays[i]``, so a
    row pairs with a ray in one dot product, and ``masks[i]`` has bit k set
    when ``rays[i]`` is tight on ``normals[k]``.
    """

    def __init__(self, lat: Lattice):
        self.lat = lat
        self.rays: list[Vec] = []
        self.duals: list[Vec] = []
        self.masks: list[int] = []
        self.lineality: list[Vec] = list(linalg.identity(lat.rank))
        self.normals: list[Vec] = []

    def add(self, normals) -> int:
        """Cut by each normal in turn; returns how many were kept."""
        kept = 0
        for n in normals:
            if self._cut(n):
                self.normals.append(n)
                kept += 1
        return kept

    def _cut(self, n) -> bool:
        """One double-description step; False when the row is implied and dropped."""
        lat, rays, masks = self.lat, self.rays, self.masks
        bit = 1 << len(self.normals)
        pivot = next((l for l in self.lineality if lat._pair(n, l)), None)
        if pivot is not None:
            ap = lat._pair(n, pivot)
            if ap < 0:
                pivot, ap = tuple(-x for x in pivot), -ap

            def project(v, dot):  # onto the row's hyperplane, along the pivot
                w = tuple(ap * x - dot * p for x, p in zip(v, pivot))
                return primitive_ray(w) if any(w) else None

            opposite = tuple(-x for x in pivot)
            lin = [
                project(l, lat._pair(n, l))
                for l in self.lineality
                if l != pivot and l != opposite
            ]
            # earlier rows vanish on the pivot, so a projected ray keeps its
            # tight set and gains this row; the pivot is tight on every earlier row
            fresh: dict[Vec, int] = {}
            for r, g, m in zip(rays, self.duals, masks):
                proj = project(r, sum(map(mul, n, g)))
                if proj is not None:
                    fresh.setdefault(proj, m | bit)
            fresh.setdefault(pivot, bit - 1)
            self.lineality = [l for l in lin if l is not None]
            self._set_rays(fresh)
            return True
        dots = [sum(map(mul, n, g)) for g in self.duals]
        if not dots or min(dots) >= 0:
            return False  # the cone already satisfies the row, and only shrinks
        kept, plus, minus = {}, [], []
        for i, d in enumerate(dots):
            if d > 0:
                kept[rays[i]] = masks[i]
                plus.append(i)
            elif d == 0:
                kept[rays[i]] = masks[i] | bit
            else:
                minus.append(i)
        fresh = {}
        for i in plus:
            for j in minus:
                common = masks[i] & masks[j]
                if not self._adjacent(i, j, common):
                    continue
                comb = primitive_ray(
                    tuple(dots[i] * y - dots[j] * x for x, y in zip(rays[i], rays[j]))
                )
                if comb not in kept:
                    fresh.setdefault(comb, common | bit)
        kept.update(fresh)
        self._set_rays(kept)
        return True

    def _set_rays(self, masked: dict) -> None:
        self.rays, self.masks = list(masked), list(masked.values())
        self.duals = [self.lat._dual(r) for r in self.rays]

    def _adjacent(self, i: int, j: int, common: int) -> bool:
        """Whether rays i and j span a 2-face, given the rows tight on both."""
        want = self.lat.rank - len(self.lineality) - 2
        if common.bit_count() < want:
            return False
        if not self.lineality:
            # pointed: the 2-face of i and j has no third extreme ray
            return not any(
                m & common == common
                for k, m in enumerate(self.masks)
                if k != i and k != j
            )
        tight = [c for k, c in enumerate(self.normals) if common >> k & 1]
        return linalg.matrix_rank(tight) == want if tight else want == 0

    def facets(self) -> tuple[Vec, ...]:
        """The kept normals tight on a full facet, sorted (full-dimensional cones)."""
        if not self.lineality:
            # pointed: a row's tight rays span its face, and every smaller
            # face lies in a facet, whose tight rays form a strictly larger set
            faces = [
                sum(1 << i for i, m in enumerate(self.masks) if m >> k & 1)
                for k in range(len(self.normals))
            ]
            return tuple(sorted(
                n for n, f in zip(self.normals, faces)
                if f and not any(f & g == f and f != g for g in faces)
            ))
        rank, out = self.lat.rank, []
        for k, n in enumerate(self.normals):
            tight = [r for r, m in zip(self.rays, self.masks) if m >> k & 1]
            tight += self.lineality
            if tight and linalg.matrix_rank(tight) == rank - 1:
                out.append(n)
        return tuple(sorted(out))

    def cone(self, normals=None) -> RationalCone:
        """The cone so far: sorted rays, canonical lineality, facet normals.

        The stored normals are the facets when the cone is pointed and
        full-dimensional, and otherwise ``normals`` (default: the kept rows).
        """
        rank = self.lat.rank
        rays = tuple(sorted(self.rays))
        lineality = _canonical_lineality(self.lineality)
        full_dim = linalg.matrix_rank(list(rays) + list(lineality)) == rank
        if full_dim and not lineality:
            stored = self.facets()
        else:
            stored = tuple(sorted(self.normals if normals is None else normals))
        return RationalCone(rank, stored, rays, lineality, full_dim)


def _canonical_lineality(lin):
    """Primitive rows of the reduced echelon basis, each with a positive pivot."""
    rows, _, d = linalg.echelon(lin)
    sign = 1 if d > 0 else -1
    return tuple(sorted(primitive_ray([sign * x for x in row]) for row in rows))


def cone_from_inequalities(lat: Lattice, normals) -> RationalCone:
    """The cone {x : x . n >= 0 for every normal n}.

    Stored normals are the irredundant facet set when the result is pointed
    and full-dimensional, the deduplicated input otherwise.  No normals at
    all yields the full space, flagged via ``is_full_space``.
    """
    seen: dict[Vec, None] = {}
    for n in normals:
        v = as_vector(n, lat.rank, "cone normal")
        if all(c == 0 for c in v):
            raise ZeroVector("zero vector cannot be a wall normal")
        seen[primitive_ray(v)] = None
    dd = DoubleDescription(lat)
    dd.add(seen)
    return dd.cone(seen)


def contains(lat: Lattice, cone: RationalCone, x) -> bool:
    """Membership in the closed cone (boundary included)."""
    gx = lat._dual(as_vector(x, lat.rank))
    return all(sum(map(mul, n, gx)) >= 0 for n in cone.normals)


def intersection(lat: Lattice, a: RationalCone, b: RationalCone) -> RationalCone:
    return cone_from_inequalities(lat, tuple(a.normals) + tuple(b.normals))


def interiors_disjoint(lat: Lattice, a: RationalCone, b: RationalCone) -> bool:
    """Whether two full-dimensional cones share no interior point."""
    if not (a.full_dim and b.full_dim):
        raise GeometryError("interiors_disjoint requires full-dimensional cones")
    return not intersection(lat, a, b).full_dim


def transform_cone(lat: Lattice, cone: RationalCone, iso: Isometry) -> RationalCone:
    """The image cone g(C).  Pairing-normals transform by g itself."""
    rays = tuple(sorted(primitive_ray(iso.apply(r)) for r in cone.rays))
    normals = tuple(sorted(primitive_ray(iso.apply(n)) for n in cone.normals))
    lineality = _canonical_lineality([iso.apply(l) for l in cone.lineality])
    return RationalCone(cone.rank, normals, rays, lineality, cone.full_dim)
