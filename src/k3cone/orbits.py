"""Orbit classification of curve classes under the chamber-preserving group.

The classes of arithmetic genus g, of norm 2g-2, are classified up to the
group action, one table per genus: the chamber walls themselves at genus 0
("nodal"), primitive isotropic chamber classes at genus 1 ("elliptic"), and
the classes of norm 2g-2 at g >= 2 ("genus").  ``genus_orbits`` decides the
kind, checks the query and refuses a domain that is not fundamental.

Canonicalization is reduce-into-the-domain: walk into the chamber, then
descend into the Sterk domain by the generators and the inverses of its
cuts.  Distinct reduced representatives can still lie in one orbit when
they sit on the domain boundary, so a bounded breadth-first ball over
generator words (length <= ``MERGE_DEPTH``) merges such coincidences; the class
representative is the (degree, lex)-least member.
Tables carry a stability flag — whether doubling the search bound changes
the representative set — and are never silently claimed complete.  The
domain decides the flag when no class of the table's norm in it has degree
above the search bound (``_reach``): a reduction ends at such a class, which
is its own reduction, so doubling the bound adds no representative.  Its
rays decide that for elliptic tables on any pointed domain in the closed
positive cone, and for genus tables on one whose rays all have positive
norm; a domain with an isotropic ray (a cusp) leaves genus tables to the
doubled search.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import gcd, isqrt

from . import linalg
from .enumeration import classes_up_to_degree, isotropics_up_to_degree
from .errors import GeometryError, UnboundedQuery
from .groups import GroupGenerators, word_search
from .lattice import Lattice, Record, Vec, as_vector, replace
from .sterk import SterkDomain, _reducer
from .weyl import MERGE_DEPTH, ORBIT_BOUND_FACTOR, NefDescription, _chamber


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


def _wall_orbits(lat, ample, group, nef, domain) -> tuple:
    """The wall orbits, the certification bound and whether the walls are final.

    Each wall is carried to a canonical position by reducing its facet
    witness point into the domain and applying the same word to the wall
    vector; walls meeting in one orbit then coincide or are merged by the
    word ball.  An empty wall list gives the (valid) empty table.
    """
    witnesses = dict(nef.witnesses)
    mats = group.matrices()
    # the walks use the chamber whose walls the table reads; the walker checks it
    reduce = _reducer(lat, ample, group, replace(domain, nef=nef))
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
    entries = tuple(_merge_classes(lat, ample, group, reduced))
    return entries, nef.certification_bound, nef.complete or nef.looks_round


def _reach(lat, ample, domain, genus) -> int | None:
    """A degree that no class of norm 2g-2 in the domain exceeds (no primitive
    one at genus 1), or None when the domain's rays give none.

    The domain must be pointed, so its rays generate it, with every ray r in
    the closed positive cone: r.r >= 0 and r.H > 0.  At genus 1 a primitive
    isotropic class of the domain is one of its isotropic rays, because
    distinct rays pair > 0, so the bound is their largest degree, or 0.  At
    genus g >= 2 every ray needs r.r > 0: x.x is concave on the slice
    x.H = 1, as H-perp is negative definite, so x.x >= (x.H)^2 min r.r /
    (r.H)^2 on the domain, and a class of norm n = 2g-2 has
    (x.H)^2 <= max n (r.H)^2 / r.r.
    """
    if not domain.cone.pointed:
        return None
    pairs = [(lat._pair(r, r), lat._pair(ample, r)) for r in domain.cone.rays]
    if any(n < 0 or d <= 0 for n, d in pairs):
        return None
    if genus == 1:
        return max((d for n, d in pairs if n == 0), default=0)
    if any(n == 0 for n, _ in pairs):
        return None
    return isqrt(max((2 * (genus - 1) * d * d // n for n, d in pairs), default=0))


def _class_orbits(lat, ample, group, domain, genus, bound) -> tuple:
    """The orbits up to the degree bound, the bound, and whether doubling it
    adds no orbit.

    When the domain's ``_reach`` is within the bound, the norm 2g-2 classes
    (primitive isotropic ones at genus 1) are reduced up to the bound only,
    and the table is stable.  A reduction ends at a class z of the domain,
    of degree <= the bound, which lies in the chamber the group keeps and
    which no move lowers, or the descent would not have stopped there; so z
    reduces to itself, the doubled search reduces to the same classes, and
    the merges agree.  Otherwise the classes are reduced once, up to twice
    the bound; the bound's table merges the sources of degree <= bound, in
    lex order, and the doubled table only supplies the representative set
    that decides stability.
    """
    if bound is None:
        bound = ORBIT_BOUND_FACTOR * lat.norm(ample)
    reach = _reach(lat, ample, domain, genus)
    settled = reach is not None and reach <= bound
    top = bound if settled else 2 * bound
    if genus == 1:
        classes = isotropics_up_to_degree(lat, ample, top)
    else:
        classes = classes_up_to_degree(lat, ample, 2 * genus - 2, top)
    reduce = _reducer(lat, ample, group, domain)
    low, doubled = {}, {}
    for x in classes:
        z, reflections, word = reduce(x)
        doubled.setdefault(z, []).append((x, reflections, word))
        if lat._pair(ample, x) <= bound:
            low.setdefault(z, []).append((x, reflections, word))
    entries = tuple(_merge_classes(lat, ample, group, low))
    stable = settled or {e.representative for e in entries} == {
        e.representative for e in _merge_classes(lat, ample, group, doubled)
    }
    return entries, bound, stable


def check_table(genus: int, bound: int | None) -> None:
    """Raise GeometryError for a negative genus, and UnboundedQuery for a bound
    below 1 at genus >= 1, since doubling it would compare its empty table
    with itself; None means the default bound, and genus 0 reads no bound."""
    if genus < 0:
        raise GeometryError("genus must be non-negative")
    if genus >= 1 and bound is not None and bound < 1:
        raise UnboundedQuery(f"the degree bound {bound} is below 1, which doubling never grows")


def nodal_orbits(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    nef: NefDescription,
    domain: SterkDomain | None,
) -> OrbitTable:
    """Orbits of chamber walls: the genus 0 table of ``genus_orbits``."""
    return genus_orbits(lat, ample, group, nef, domain, 0)


def elliptic_orbits(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    domain: SterkDomain | None,
    bound: int | None = None,
) -> OrbitTable:
    """Orbits of primitive isotropic chamber classes up to the degree bound:
    the genus 1 table of ``genus_orbits``, which reads no wall data."""
    return genus_orbits(lat, ample, group, None, domain, 1, bound)


def genus_orbits(
    lat: Lattice,
    ample,
    group: GroupGenerators,
    nef: NefDescription | None,
    domain: SterkDomain | None,
    genus: int,
    bound: int | None = None,
) -> OrbitTable:
    """Orbits of chamber classes of norm 2g-2, the one entry to every table.

    Genus 0 is the ``"nodal"`` table of the walls in ``nef``, which takes no
    bound; genus 1 the ``"elliptic"`` table of primitive isotropic classes;
    genus g >= 2 the ``"genus"`` table, a lattice-level upper classification
    (no irreducibility is decided here), the only kind that reports its
    genus.  ``check_table`` raises first, then, at genus 0, a missing
    chamber or one not H's.  A domain that is None or unsaturated is not a
    fundamental domain, so no table is read from it: the table is empty,
    has no search bound and is not stable.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    check_table(genus, bound)
    if genus == 0 and nef is None:
        raise GeometryError("the nodal table reads the walls of a chamber, and none was given")
    if domain is None or not domain.saturated:
        if genus == 0:  # no walk checks the chamber here
            _chamber(lat, lat._dual(ample), nef)
        found = (), None, False
    elif genus == 0:
        found = _wall_orbits(lat, ample, group, nef, domain)
    else:
        found = _class_orbits(lat, ample, group, domain, genus, bound)
    kind = "nodal" if genus == 0 else "elliptic" if genus == 1 else "genus"
    return OrbitTable(kind, genus if genus >= 2 else None, *found)


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
