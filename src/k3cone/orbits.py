"""Orbit classification of curve classes under the chamber-preserving group.

Three kinds of classes are classified up to the group action: the chamber
walls themselves (norm -2, "nodal"), primitive isotropic chamber classes
("elliptic"), and classes of norm 2g-2 for a genus g >= 2.  Norm 0 and -2
queries delegate to the dedicated kinds.

Canonicalization is reduce-into-the-domain: walk into the chamber, then
descend into the Sterk domain by the generators and the inverses of its
cuts.  Distinct reduced representatives can still lie in one orbit when
they sit on the domain boundary, so a bounded breadth-first ball over
generator words (length <= ``MERGE_DEPTH``) merges such coincidences; the class
representative is the (degree, lex)-least member.
Tables carry a stability flag — whether doubling the search bound changes
the representative set — and are never silently claimed complete.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import gcd

from . import linalg
from .enumeration import classes_up_to_degree, isotropics_up_to_degree
from .errors import GeometryError, UnboundedQuery
from .groups import GroupGenerators, word_search
from .lattice import Lattice, Record, Vec, as_vector
from .sterk import SterkDomain, _reducer
from .weyl import MERGE_DEPTH, ORBIT_BOUND_FACTOR, NefDescription


class OrbitEntry(Record):
    """One orbit: its canonical representative and how it was reached."""

    representative: Vec
    source: Vec
    reflections: tuple[Vec, ...]
    word: tuple[int, ...]
    members: tuple[Vec, ...]


class OrbitTable(Record):
    kind: str
    genus: int | None
    entries: tuple[OrbitEntry, ...]
    search_bound: int | None
    stable: bool

    @property
    def representatives(self) -> tuple[Vec, ...]:
        return tuple(e.representative for e in self.entries)


def _merge_classes(lat: Lattice, ample, group, reduced: dict[Vec, list]) -> list:
    """Union reduced representatives identified by a bounded word ball."""
    reps = sorted(reduced)
    parent = {r: r for r in reps}

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    # a and b are joined when either lies in the other's generator-word ball
    # (words of length <= MERGE_DEPTH); the partition depends only on that
    # edge set, so one pass over each ball finds it
    moves = [partial(linalg.mat_vec, m) for m in group.matrices()]
    for r in reps:
        for y in word_search(moves, r, depth=MERGE_DEPTH):
            if y in parent:
                parent[find(y)] = find(r)
    groups: dict[Vec, list[Vec]] = {}
    for r in reps:
        groups.setdefault(find(r), []).append(r)
    entries = []
    for members in groups.values():
        canonical = min(members, key=lambda v: (lat._pair(ample, v), v))
        source, reflections, word = reduced[canonical][0]
        all_sources = tuple(
            s for m in sorted(members) for (s, _, _) in reduced[m]
        )
        entries.append(
            OrbitEntry(canonical, source, reflections, word, all_sources)
        )
    entries.sort(key=lambda e: (lat._pair(ample, e.representative), e.representative))
    return entries


def nodal_orbits(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    nef: NefDescription,
    domain: SterkDomain,
) -> OrbitTable:
    """Orbits of chamber walls.

    Each wall is carried to a canonical position by reducing its facet
    witness point into the domain and applying the same word to the wall
    vector; walls meeting in one orbit then coincide or are merged by the
    word ball.  An empty wall list gives the (valid) empty table.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    stable = nef.complete or nef.looks_round
    if not nef.walls:
        return OrbitTable("nodal", None, (), nef.certification_bound, stable)
    witnesses = dict(nef.witnesses)
    mats = group.matrices()
    reduce = _reducer(lat, ample, group, domain)
    reduced: dict[Vec, list] = {}
    for wall in nef.walls:
        witness = witnesses.get(wall)
        if witness is None:
            raise GeometryError(f"no facet witness recorded for wall {wall}")
        _, reflections, word = reduce(witness)
        canonical = wall
        for delta in reflections:  # s_delta(v) = v + (v . delta) delta
            dot = lat._pair(canonical, delta)
            canonical = tuple(v + dot * d for v, d in zip(canonical, delta))
        for idx in word:
            canonical = linalg.mat_vec(mats[idx], canonical)
        reduced.setdefault(canonical, []).append((wall, reflections, word))
    entries = _merge_classes(lat, ample, group, reduced)
    return OrbitTable(
        "nodal", None, tuple(entries), nef.certification_bound, stable
    )


def check_table_bound(bound: int | None) -> None:
    """Raise UnboundedQuery for a table bound below 1; None means the default."""
    if bound is not None and bound < 1:
        raise UnboundedQuery(f"the degree bound {bound} is below 1, which doubling never grows")


def _stable_table(lat, ample, group, domain, kind, genus, bound) -> OrbitTable:
    """The table up to the degree bound, stable when doubling it adds no orbit.

    The norm 2g-2 classes (primitive isotropic ones when genus is None) are
    reduced once, up to twice the bound.  The bound's table merges the
    sources of degree <= bound, in lex order; the doubled table only supplies
    the representative set that decides stability.  A bound below 1 raises
    UnboundedQuery: doubling it does not grow it, so its empty table would
    be compared with itself.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    if bound is None:
        bound = ORBIT_BOUND_FACTOR * lat.norm(ample)
    check_table_bound(bound)
    if genus is None:
        classes = isotropics_up_to_degree(lat, ample, 2 * bound)
    else:
        classes = classes_up_to_degree(lat, ample, 2 * genus - 2, 2 * bound)
    reduce = _reducer(lat, ample, group, domain)
    low, doubled = {}, {}
    for x in classes:
        z, reflections, word = reduce(x)
        doubled.setdefault(z, []).append((x, reflections, word))
        if lat._pair(ample, x) <= bound:
            low.setdefault(z, []).append((x, reflections, word))
    entries = tuple(_merge_classes(lat, ample, group, low))
    stable = {e.representative for e in entries} == {
        e.representative for e in _merge_classes(lat, ample, group, doubled)
    }
    return OrbitTable(kind, genus, entries, bound, stable)


def elliptic_orbits(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    domain: SterkDomain,
    bound: int | None = None,
) -> OrbitTable:
    """Orbits of primitive isotropic chamber classes up to the degree bound."""
    return _stable_table(lat, ample, group, domain, "elliptic", None, bound)


def genus_orbits(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    nef: NefDescription,
    domain: SterkDomain,
    genus: int,
    bound: int | None = None,
) -> OrbitTable:
    """Orbits of chamber classes of norm 2g-2; a lattice-level upper
    classification (no irreducibility is decided here).

    Genus 0 and 1 delegate to the wall and isotropic classifications.
    """
    if genus < 0:
        raise GeometryError("genus must be non-negative")
    if genus == 0:
        return nodal_orbits(lat, ample, group, nef, domain)
    if genus == 1:
        return elliptic_orbits(lat, ample, group, domain, bound)
    return _stable_table(lat, ample, group, domain, "genus", genus, bound)


ISOTROPY_ADVICE = (
    "an indefinite even lattice of rank 5 or more always represents zero; "
    "raise the coordinate bound to locate an isotropic vector"
)


def find_isotropic(lat: Lattice, box: int) -> Vec | None:
    """A primitive isotropic vector with coordinates in [-box, box], if any.

    Deterministic choice: smallest coordinate 1-norm, ties broken by
    lexicographically largest, so standard basis vectors win when the Gram
    matrix has a zero on the diagonal, and of v and -v the one whose first
    non-zero coordinate is positive wins.  Returns None when the box has no
    isotropic vector; that is a bounded search outcome, not a proof.
    """
    if box < 1:
        raise UnboundedQuery("the coordinate bound must be at least 1")
    found = (
        v for v in itertools.product(range(-box, box + 1), repeat=lat.rank)
        if gcd(*v) == 1 and lat.norm(v) == 0
    )
    return min(found, key=lambda v: (sum(map(abs, v)), tuple(-c for c in v)), default=None)
