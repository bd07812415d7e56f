"""Rational polyhedral cones by incremental double description.

Cones are cut out by pairing inequalities ``x . n >= 0`` whose normals ``n``
are lattice vectors; the euclidean normal of such a wall is ``G n``.  All
arithmetic is on integers, with fraction-free elimination for the canonical
lineality, and rays come back primitive and lex-sorted.

``DoubleDescription`` is the one implementation of the incremental method
(Fukuda & Prodon 1996).  Its state is the rays and lineality of the cone cut
out so far and the rows kept so far; ``add`` cuts it by more rows, one at a
time, and ``cone`` finishes it.  ``cone_from_inequalities`` validates and
deduplicates its normals, adds them, and finishes.  ``nef_walls`` keeps one
state across its doublings and adds only the walls each doubling accepts.
Ray duals ``G r`` are carried across cuts: a cut multiplies by G only its
new rays, and its row while the cone has lineality, for the pivot search.

A row that vanishes on the lineality and on which no ray is negative is
implied by the cone so far, and stays implied, because adding rows only
shrinks the cone.  It is dropped without a step and never scanned again, so
the kept rows alone cut out the cone.  Each ray carries the set of kept rows
it is tight on, as a bit mask, and these masks are the only face test.

They suffice because every kept row vanishes on the current lineality L: a
row that needs no pivot already vanishes on L, and a pivot step shrinks L to
the new row's hyperplane.  So the rows factor through the pointed quotient
C/L, the rays stand for its extreme rays, and the masks give its face
lattice.  Read row by row, the masks give each kept row its tight-ray set,
a bit set over the rays, and these sets decide adjacency and facets.  Three
consequences:

* two rays are adjacent exactly when they share at least rank - dim L - 2
  rows and the tight-ray sets of the rows they share meet in those two rays
  alone;
* the facets are the rows whose tight-ray sets are maximal among the kept
  rows' sets; a half-space's single row is tight on no ray and is its facet;
* the cone is full-dimensional exactly when no kept row is tight on every
  ray: a system without an implicit equality has an interior point.

The round positive cone is never materialized here; callers that need it use
the predicate ``x.x >= 0 and x.H > 0`` directly and only hand in polyhedral
sub-cones.  No cone operations live here either: an isometry g moves a
normal by g itself, so a translate g(C) is cut out by the images of C's normals.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, mul

from . import linalg
from .errors import ZeroVector
from .lattice import Lattice, Record, Vec, as_vector, primitive_ray


class RationalCone(Record):
    """rays + lineality generate the cone; normals cut it out."""

    normals: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    full_dim: bool

    @property
    def pointed(self) -> bool:
        return not self.lineality


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
        rays, duals, masks = self.rays, self.duals, self.masks
        bit = 1 << len(self.normals)
        # only the pivot search reads G n, so a pointed cone never computes it
        gn = self.lat._dual(n) if self.lineality else None
        ldots = [(l, sum(map(mul, gn, l))) for l in self.lineality]
        pivot, ap = next(((l, d) for l, d in ldots if d), (None, 0))
        if pivot is not None:
            if ap < 0:
                pivot, ap = tuple(-x for x in pivot), -ap

            def project(v, dot):  # onto the row's hyperplane, along the pivot
                w = tuple([ap * x - dot * p for x, p in zip(v, pivot)])
                return primitive_ray(w) if any(w) else None

            # earlier rows vanish on the pivot, so a projected ray keeps its
            # tight set and gains this row; the pivot is tight on every earlier row
            fresh: dict[Vec, int] = {}
            for r, g, m in zip(rays, duals, masks):
                proj = project(r, sum(map(mul, n, g)))
                if proj is not None:
                    fresh.setdefault(proj, m | bit)
            fresh.setdefault(pivot, bit - 1)
            # the pivot itself projects to zero and drops out
            lin = [project(l, d) for l, d in ldots]
            self.lineality = [l for l in lin if l is not None]
            self._set_rays({}, fresh)
            return True
        dots = [sum(map(mul, n, g)) for g in duals]
        if not dots or min(dots) >= 0:
            return False  # the cone already satisfies the row, and only shrinks
        plus = [i for i, d in enumerate(dots) if d > 0]
        minus = [i for i, d in enumerate(dots) if d < 0]
        kept = {rays[i]: (masks[i] | bit if d == 0 else masks[i], duals[i])
                for i, d in enumerate(dots) if d >= 0}
        fresh = {}
        need = self.lat.rank - len(self.lineality) - 2
        tight = self._tight_sets()
        everything = (1 << len(rays)) - 1
        for i in plus:
            for j in minus:
                common = masks[i] & masks[j]
                if common.bit_count() < need:
                    continue
                # adjacent: the rays tight on every row i and j share are i and j alone
                pair, face, rows = 1 << i | 1 << j, everything, common
                while rows and face != pair:
                    low = rows & -rows
                    face &= tight[low.bit_length() - 1]
                    rows ^= low
                if face != pair:
                    continue
                comb = primitive_ray(
                    tuple([dots[i] * y - dots[j] * x for x, y in zip(rays[i], rays[j])])
                )
                if comb not in kept:
                    fresh.setdefault(comb, common | bit)
        self._set_rays(kept, fresh)
        return True

    def _set_rays(self, kept: dict, fresh: dict) -> None:
        """The kept rays, each with its mask and dual, then the new rays with their masks."""
        self.rays = [*kept, *fresh]
        self.masks = [m for m, _ in kept.values()] + list(fresh.values())
        self.duals = [g for _, g in kept.values()] + [self.lat._dual(r) for r in fresh]

    def _tight_sets(self) -> list[int]:
        """For each kept row, the rays tight on it, as a bit set over ray indices."""
        # every mask as bin(2**k | mask), k + 3 characters: "0b1", then the digits
        # of rows k - 1 down to 0.  Joined from the last ray, row r's digits
        # are every (k + 3)-th character, ray 0 last, and read in C
        k = len(self.normals)
        digits = "".join(map(bin, map((1 << k).__or__, reversed(self.masks))))
        return [int(digits[k + 2 - row::k + 3] or "0", 2) for row in range(k)]

    def facets(self) -> tuple[Vec, ...]:
        """The kept normals tight on a full facet, sorted (full-dimensional cones).

        A row's tight rays span its face modulo the lineality, and every
        proper face lies in a facet, whose tight rays form a larger set.
        """
        faces = self._tight_sets()
        return tuple(sorted(
            n for n, f in zip(self.normals, faces)
            if not any(f & g == f and f != g for g in faces)
        ))

    def cone(self) -> RationalCone:
        """The cone so far: sorted rays, canonical lineality, stored normals.

        The stored normals are the facets when the cone is full-dimensional
        and the kept rows otherwise.  A row the earlier rows implied is not
        kept, so a cone of lower dimension can store fewer rows than it was
        given.
        """
        full_dim = not reduce(and_, self.masks, (1 << len(self.normals)) - 1)
        stored = self.facets() if full_dim else tuple(sorted(self.normals))
        return RationalCone(
            stored,
            tuple(sorted(self.rays)),
            _canonical_lineality(self.lineality),
            full_dim,
        )


def _canonical_lineality(lin):
    """Primitive rows of the reduced echelon basis, each with a positive pivot."""
    rows, _, d = linalg.echelon(lin)
    sign = 1 if d > 0 else -1
    return tuple(sorted(primitive_ray([sign * x for x in row]) for row in rows))


def cone_from_inequalities(lat: Lattice, normals) -> RationalCone:
    """The cone {x : x . n >= 0 for every normal n}.

    Stored normals are the irredundant facet set when the result is
    full-dimensional, lineality or not: on diag(2, -2, -4) the rows
    (1, 0, 0), (0, 1, 0) and (1, 1, 0) cut out a wedge with lineality, and
    only the first two are stored.  Otherwise they are the primitive rows the
    double description kept, which cut out the same cone but omit each row
    the rows before it imply.  No normals at all yields the full space: no
    rays, no normals, and the whole lattice for lineality.
    """
    seen: dict[Vec, None] = {}
    for n in normals:
        v = as_vector(n, lat.rank, "cone normal")
        if all(c == 0 for c in v):
            raise ZeroVector("zero vector cannot be a wall normal")
        seen[primitive_ray(v)] = None
    dd = DoubleDescription(lat)
    dd.add(seen)
    return dd.cone()
