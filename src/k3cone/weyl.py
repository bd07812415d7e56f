"""Weyl-chamber geometry: reflection walks and certified nef walls.

The ample chamber (``Nef``) is the set of positive-cone points on which every
root of positive degree pairs non-negatively.  Walking a point into the
chamber reflects it across separating walls in the order the straight segment
from the ample class crosses them; the degree drops by at least one per step,
so a walk of degree ``d`` finishes in at most ``d`` reflections.  One integer
loop does every walk.  A walker prepared once per (lattice, ample class,
chamber) holds G H, H^2 and the checked walls; ``walk_to_nef`` validates
its input once and runs one, and a reducer into a Sterk domain keeps one
for all of its classes.  The loop compares crossing parameters by
cross-multiplication and reflects inline.  Its candidates are
the roots up to the separating bound, or, once the chamber is certified,
only its walls: the segment leaves the open chamber, which meets no root
hyperplane, through the wall it crosses first.  Walls tied there meet at an
exit point of positive norm, whose roots form a finite root system with the
tied walls as simple roots, so closing them under their own reflections
recovers every root the segment crosses there.

Wall discovery reads the root stream in degree order up to root-degree
marks: the powers of two below the first bound ``2 H^2``, then that bound
and its doublings.  It decides walls by Vinberg's rule (Vinberg 1972): a
root is a wall when it pairs >= 0 with every wall accepted so far.  The
accepted walls cut one double description (``cones.DoubleDescription``),
whose cone is certified whenever it changed.  With H off every root
hyperplane (``check_off_walls``):

* **Ties.**  Distinct roots of equal degree pair >= 0: their difference
  lies in the negative definite ``H-perp``, so they pair >= -1, and -1
  would make the difference a root orthogonal to H.  So the rule needs no
  order among equal degrees.
* **Walls are accepted.**  Walls pair >= 0 two by two, so every wall is
  accepted.  Any other root is a non-negative integer combination of at
  least two walls (Vinberg), each of smaller degree, and its norm -2 makes
  it pair negatively with one of them: accepted roots are walls.
* **Certificate.**  A pointed, full-dimensional cone cut by walls, whose
  rays lie in the closed positive cone, contains the chamber.  A wall
  missing from its facets would pair >= 0 with every facet and so lie in
  the cone, which a class of norm -2 cannot.  So the cone is the chamber.
  In rank 2, rational isotropic boundary rays go in first as inequalities;
  a cone with such a facet, which is no root, is certified by a
  ``nef_test`` on each ray instead.
* **Partial witness.**  For a wall delta of degree d, ``2H + d delta`` has
  norm ``4 H^2 + 2 d^2 > 0`` and pairs ``2 alpha.H + d alpha.delta > 0``
  with every other wall alpha: it lies in the chamber, on delta's facet only.

A certified wall's witness is the sum of its facet's rays instead, read
from the double description's masks: the rays whose mask has the wall's
bit.  The rays' norms and degrees come from their duals, which the double
description carries.  A certified cone implies every root, so a chamber
certified from a short root prefix is reported with the first bound, as if
the prefix had reached it.
When certification runs out of doublings, the partial answer is the accepted
walls, sorted, with their witnesses.  A rootless stretch from the first
bound that stays empty across one doubling is reported as a round chamber
with the bound on record: honest, but no certificate
(``NefDescription.looks_round``).
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .cones import DoubleDescription, RationalCone
from .enumeration import (
    _degree_bound,
    _root_stream,
    _separating,
    check_off_walls,
    check_positive_closure,
    rational_isotropic_rays,
)
from .errors import BrokenInvariant, GeometryError
from .lattice import Lattice, Record, Vec, as_vector


class Bounds(Record):
    """The table of default bounds; its class attributes are the defaults.

    ``ceiling`` counts the bound doublings a search makes before it gives up;
    ``enumeration`` is the degree bound of root and orbit-table searches
    (None: a multiple of H^2, below); ``word_length`` bounds the tiling words
    of ``verify_fundamental``, which echoes ``samples`` and ``seed``.  A
    problem file's ``bounds`` overrides them (``problem.parse_problem``).
    """

    ceiling: int = 12
    enumeration: int | None = None
    samples: int = 200
    word_length: int = 3
    seed: int = 0


ROOT_BOUND_FACTOR = 2  # the first root-degree bound, as a multiple of H^2
ORBIT_BOUND_FACTOR = 4  # the orbit and class degree bound, as a multiple of H^2
MERGE_DEPTH = 4  # the word length of the balls that merge orbit classes
ISOTROPY_BOX = 10  # the coordinate box of the isotropic search
DOT_WORD_LENGTH = 2  # the word length of the translates drawn by ``sterk --dot``


class NefDescription(Record):
    """Wall data for the ample chamber; ``cone`` is the certified chamber.

    Without a cone the walls are the partial answer: the walls up to the
    last mark with exact witnesses, whose completeness is unknown.  ``stable`` is False when the
    last doubling still reached new roots.
    """

    walls: tuple[Vec, ...]
    witnesses: tuple[tuple[Vec, Vec], ...]
    certification_bound: int
    cone: RationalCone | None = None
    stable: bool = True

    @property
    def complete(self) -> bool:
        """Whether the walls are certified to be all of them."""
        return self.cone is not None

    @property
    def rays(self) -> tuple[Vec, ...]:
        return () if self.cone is None else self.cone.rays

    @property
    def looks_round(self) -> bool:
        """No walls found, and the last doubling reached no new root."""
        return not (self.complete or self.walls) and self.stable


def walk_to_nef(
    lat: Lattice, ample, x, nef: NefDescription | None = None
) -> tuple[Vec, tuple[Vec, ...]]:
    """Reflect x into the ample chamber; returns (endpoint, reflection word).

    The word lists the roots reflected in, in application order.  Among the
    separating roots of the current point, the one whose wall the segment
    [H, x] crosses first is chosen; ties go to the lex-smallest root.  The
    crossing parameter of delta is ``dh / (dh - dx)`` (``dh = delta.H > 0 >
    dx = delta.x``), compared by integer cross-multiplication.

    With a certified chamber ``nef`` of (lat, ample) the candidates are its
    walls instead of the root prefix up to the separating bound (an
    uncertified ``nef`` leaves the prefix in place): the open
    chamber meets no root hyperplane, so the segment leaves it through the
    wall it crosses first.  Walls tied there meet at an exit point p of
    positive norm, so the roots through p form a finite root system of which
    the tied walls are simple roots.  Closed under their own reflections,
    they give every root through p; the lex-least of them with
    ``delta.H > 0 > delta.x`` is the root the prefix rule picks.  A certified
    ``nef`` with a wall of the wrong rank or of degree <= 0 is not the
    chamber of (lat, ample) and raises GeometryError.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    x = check_positive_closure(lat, ample, x)
    return _walker(lat, ample, nef)(x)


def _walker(lat: Lattice, ample: Vec, nef: NefDescription | None):
    """``walk(x)`` for ``walk_to_nef`` on one validated ample class and chamber.

    G H, H^2 and the certified walls' check are built once, here; ``walk``
    takes a class that passed ``check_positive_closure`` and validates
    nothing.
    """
    gh = lat._dual(ample)
    h2 = sum(map(mul, ample, gh))
    walls = nef.walls if nef is not None and nef.complete else None
    # certified walls that all pair positively with H cut out H's chamber
    if walls is not None and any(
        len(w) != lat.rank or sum(map(mul, w, gh)) <= 0 for w in walls
    ):
        raise GeometryError("the chamber given is not the ample chamber of this lattice")

    def walk(x: Vec) -> tuple[Vec, tuple[Vec, ...]]:
        budget = sum(map(mul, x, gh))
        word = []
        while True:
            gx = lat._dual(x)
            if walls is None:
                hx, x2 = sum(map(mul, ample, gx)), sum(map(mul, x, gx))
                candidates = _root_stream(lat, ample, _degree_bound(h2, hx, x2))
            else:
                candidates = walls
            # the least crossing so far is bh / (bh - bx); 1 / (1 - 0) is x
            # itself, beyond every separating wall
            tied, bh, bx = [], 1, 0
            for delta in candidates:
                dx = sum(map(mul, delta, gx))
                if dx >= 0:
                    continue
                dh = sum(map(mul, delta, gh))
                c = dh * (bh - bx) - bh * (dh - dx)
                if c < 0:
                    tied, bh, bx = [delta], dh, dx
                elif c == 0:
                    tied.append(delta)
            if not tied:
                return x, tuple(word)
            if walls is not None and len(tied) > 1:
                # the prefix holds every tied root; the walls only the simple ones
                tied = [d for d in _root_closure(lat, tuple(tied))
                        if sum(map(mul, d, gh)) > 0 > sum(map(mul, d, gx))]
            delta = min(tied)
            c = sum(map(mul, delta, gx))
            x = tuple(a + c * b for a, b in zip(x, delta))
            word.append(delta)
            if len(word) > budget:
                raise BrokenInvariant(f"walk exceeded its degree budget of {budget} steps")

    return walk


@lru_cache(maxsize=1024)
def _root_closure(lat: Lattice, simple: tuple[Vec, ...]) -> frozenset[Vec]:
    """The roots reached from ``simple`` by their own reflections; finite here.

    Walls meeting at an exit point form a face of the chamber, and a chamber
    has finitely many faces, so walks keep asking for the same few closures:
    the rank-5 fixture's elliptic table asks 377,128 times for 27 of them,
    and 3,000 walks in U+E8(-1) ask 60,126 times for 774.  The cap holds
    those 774 and bounds the memory of a process that walks many lattices.
    """
    duals = [(s, lat._dual(s)) for s in simple]
    seen, frontier = set(simple), list(simple)
    while frontier:
        new = []
        for v in frontier:
            for s, gs in duals:
                c = sum(map(mul, v, gs))
                w = tuple(a + c * b for a, b in zip(v, s))
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return frozenset(seen)


def nef_test(lat: Lattice, ample, x) -> bool:
    """Whether x lies in the closed ample chamber; stops at the first separating root."""
    ample = as_vector(ample, lat.rank, "ample class")
    x = check_positive_closure(lat, ample, x)
    return next(_separating(lat, ample, x), None) is None


def _nef_rays(lat, ample, rays, chamber: RationalCone | None) -> bool:
    """Whether the rays are nef: in the closed positive cone (False, not an error,
    if not), then inside the certified ``chamber``, which is Nef, else by ``nef_test``."""
    if not all(lat._pair(r, r) >= 0 and lat._pair(ample, r) > 0 for r in rays):
        return False
    if chamber is None:
        return all(nef_test(lat, ample, r) for r in rays)
    return all(lat._pair(n, r) >= 0 for n in chamber.normals for r in rays)


def _certified_description(lat, ample, bound, dd: DoubleDescription):
    """The certified chamber when the pointed cone ``dd`` cut so far is it; None when not yet."""
    rays = zip(dd.rays, dd.duals)  # r.r and H.r from the carried duals
    if not all(sum(map(mul, r, g)) >= 0 and sum(map(mul, ample, g)) > 0 for r, g in rays):
        return None
    cone = dd.cone()
    if not cone.full_dim:
        return None
    walls = tuple(n for n in cone.normals if lat._pair(n, n) == -2)
    # facets that are all walls make the cone the chamber once its rays are in
    # the positive cone; an isotropic facet is no wall, so then the search decides
    if len(walls) < len(cone.normals) and not all(nef_test(lat, ample, r) for r in dd.rays):
        return None
    witnesses = []
    for wall in walls:
        bit = 1 << dd.normals.index(wall)
        tight = [r for r, m in zip(dd.rays, dd.masks) if m & bit]
        witnesses.append((wall, tuple(map(sum, zip(*tight)))))
    return NefDescription(walls, tuple(witnesses), bound, cone)


def _degree_marks(first: int, ceiling: int):
    """The powers of two below ``first``, then ``first * 2**step`` for each step."""
    mark = 1
    while mark < first:
        yield mark
        mark *= 2
    for step in range(ceiling + 1):
        yield first << step


def nef_walls(lat: Lattice, ample, ceiling: int | None = None) -> NefDescription:
    """Discover the chamber walls over doubling root-degree marks.

    Reads the roots up to each mark in degree order, accepts walls by
    Vinberg's rule and certifies the cone they cut whenever it changed (see
    the module docstring).  A certified chamber is reported with the larger
    of the mark and the first bound.  From the first bound on, a rootless
    bound that survives one doubling is a round chamber, and the last mark
    ends the search with the accepted walls as the partial result.  An ample
    class orthogonal to a root raises AmpleOnWall.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    h2 = lat._pair(ample, ample)
    if h2 <= 0:
        raise GeometryError("wall discovery needs an ample class of positive norm")
    check_off_walls(lat, ample)
    ceiling = Bounds.ceiling if ceiling is None else ceiling
    if ceiling < 0:
        raise GeometryError(f"doubling ceiling {ceiling} is negative")
    first = ROOT_BOUND_FACTOR * h2
    dd, roots, walls = DoubleDescription(lat), [], []
    # certification depends on the cone alone, so it waits for a changed cone
    dirty = lat.rank == 2 and dd.add(rational_isotropic_rays(lat, ample)) > 0
    for bound in _degree_marks(first, ceiling):
        fed, roots = len(roots), _root_stream(lat, ample, bound)
        accepted = len(walls)
        for delta in roots[fed:]:
            g = lat._dual(delta)
            if all(sum(map(mul, w, g)) >= 0 for w in walls):
                walls.append(delta)
        dirty = dd.add(walls[accepted:]) > 0 or dirty
        if dirty and not dd.lineality:
            dirty = False
            certified = _certified_description(lat, ample, max(bound, first), dd)
            if certified is not None:
                return certified
        if not roots and bound > first:
            return NefDescription((), (), bound)
    stable = not roots or lat._pair(ample, roots[-1]) <= bound // 2
    walls.sort()
    degrees = [lat._pair(ample, d) for d in walls]
    witnesses = tuple((d, tuple(2 * h + k * x for h, x in zip(ample, d)))
                      for d, k in zip(walls, degrees))
    return NefDescription(tuple(walls), witnesses, bound, stable=stable)
