"""Polyhedral fundamental domains cut out by an ample orbit.

The domain is the part of the ample chamber on the near side of every orbit
point of the ample class: x satisfies x.(h - H) >= 0 for each orbit point h.
Only finitely many orbit points matter; we take all of them up to a degree
cap, check that the resulting cone is pointed, full-dimensional, spanned by
nef rays (which a certified chamber's facets decide, else each ray's search),
and that no ray can still be moved down by a generator (descent stability).
If any check fails the cap doubles, up to the shared doubling ceiling.
Running out is not an error: the answer is then the last candidate that
failed only descent stability, flagged ``saturated=False``, or None when no
doubling gave a candidate.

Reduction into the domain is walk-then-descend: reflections bring a class
into the chamber (by the walls of the chamber the domain records, when it
is certified), then generators lower its degree and, where none does, the
inverse of a cut's orbit element does.  A class that neither lowers lies in
the domain, so the reduction always lands there.  One prepared reducer per
(lattice, ample class, group, domain) does every reduction: it builds G H,
the chamber's wall check and the sorted move table once, then checks each
class's positive closure and each endpoint's membership in the domain.
``reduce_to_domain`` builds one and applies it once; the orbit tables build
one per call and apply it to every class.  ``verify_fundamental`` decides
coverage, not by samples: a reduction stops in the cone K of the chamber
rows and the rows m^-1(H) - H of the moves m.  K lies in the domain D when
its rows include every facet of D, as they do for each domain
``sterk_domain`` returns; otherwise one double description of K decides.
Each translate gD of a word ball is decided exactly.  A pointed D's rays
and their images generate D and gD, so they settle most words first: for
h = gH != H, a domain of Dirichlet type lies in {x : x.(h - H) >= 0} and gD
in {y : y.(h - H) <= 0}, which two dot products per ray decide without
computing any image.  D's facets decide the rest, the stabilizers and what
only a hand-built domain leaves: g carries them onto gD's, and one double
description of both sets decides whether D and gD overlap.
"""

from __future__ import annotations

from functools import partial
from operator import mul

from . import linalg
from .cones import DoubleDescription, RationalCone, cone_from_inequalities
from .enumeration import _positive_closure
from .errors import BrokenInvariant, CoverageFailure, GeometryError
from .groups import GroupGenerators, word_search
from .lattice import Lattice, Record, Vec, as_vector, primitive_ray
from .weyl import ORBIT_BOUND_FACTOR, Bounds, NefDescription, _chamber, _nef_rays, _walker


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
    it drops a row it already implies.  A negative ceiling, a bound below 1,
    which doubling never grows, or a chamber not H's raises GeometryError.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    chamber = _chamber(lat, lat._dual(ample), nef)
    if ceiling < 0:
        raise GeometryError(f"doubling ceiling {ceiling} is negative")
    bound = ORBIT_BOUND_FACTOR * lat.norm(ample) if bound is None else bound
    if bound < 1:
        raise GeometryError(f"orbit bound {bound} is below 1")
    dd = DoubleDescription(lat)
    dd.add(nef.walls if chamber is None else chamber.normals)
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
        if cone.pointed and cone.full_dim and _nef_rays(lat, ample, cone.rays, chamber):
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
    """What the checks established; ``samples`` and ``seed`` are echoed only.

    ``coverage_ok`` is sufficient, not necessary: False with no
    ``coverage_failures`` leaves coverage undecided.  ``stabilizer_words``
    lists group elements that carry the domain onto itself exactly; a
    fundamental domain tolerates these (they are its own finite symmetries),
    so they do not count as tiling failures.
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


def _cut_separates(ample: Vec, gh: Vec, g, rays) -> bool:
    """Whether the cut of h = gH separates a cone's rays from their g-images:
    h != H, the rays pair >= 0 with h - H and the images pair <= 0.

    ``gh`` is G H and ``rays`` holds ``(r, G r, r.H)`` for each ray r.  An
    isometry keeps (g r).h = r.H, and (g r).H is the dot product of r with
    g^T G H, so each ray reads two dot products and no image: (G r).h >= r.H
    and r.(g^T G H) >= r.H.
    """
    h = linalg.mat_vec(g, ample)
    if h == ample:
        return False
    up = linalg.mat_vec(linalg.transpose(g), gh)
    return all(sum(map(mul, gr, h)) >= d and sum(map(mul, r, up)) >= d for r, gr, d in rays)


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
    """Exact coverage plus pairwise-disjointness of word translates.

    ``coverage_ok`` holds exactly when the cone K where reductions stop
    (see the module docstring) lies in the domain: K's rays pair >= 0 with
    the domain's facets, and its lineality pairs 0.  A domain from
    ``sterk_domain`` has only chamber rows and active cuts for facets, which
    are rows of K, so K lies in it and no double description is built.
    ``coverage_failures`` lists the rays of K outside the domain
    that lie in the closed positive cone and fail to reduce into it; on a
    certified chamber each is its own endpoint.  Only such a ray builds a
    reducer, so only then does a ``domain.nef`` that is not the chamber of
    (lat, ample) raise GeometryError.  The test is sufficient, not
    necessary: on L_R with only the swap, the half-plane x.H >= 0 reads
    False with no failures, yet positive classes reduce into it.  Tiling
    checks every distinct group element spelled by a word of at most
    ``word_length`` generators: its translate of the domain must either
    coincide with the domain (a stabilizer symmetry, e.g. a generator fixing
    the ample class) or meet it in no interior point.  A cut between a
    pointed domain's rays and their images settles a word first and the
    facets decide the rest, as the module docstring says.  ``samples`` and
    ``seed`` are only echoed.  A negative ``samples`` or ``word_length``
    raises GeometryError, and so does a domain that is not full-dimensional,
    before any word, when the ball has one, and so does a chamber not H's.
    ``nef`` decides ``rays_nef``, as in ``sterk_domain``.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    gh = lat._dual(ample)
    chamber = _chamber(lat, gh, nef)
    if samples < 0:
        raise GeometryError(f"sample count {samples} is negative")
    if word_length < 0:
        raise GeometryError(f"word length {word_length} is negative")
    rays_nef = _nef_rays(lat, ample, domain.cone.rays, chamber)

    # m^-1(H) for each move m: a generator's inverse applied to H, or a cut's orbit point
    images = [linalg.mat_vec(group.gens[j], ample) for j in group.inverses]
    images += [c.orbit_point for c in domain.cuts]
    rows = list(nef.walls if chamber is None else chamber.normals)
    rows += [primitive_ray(tuple(a - b for a, b in zip(h, ample))) for h in images if h != ample]
    outside, coverage_ok = [], True
    # K is cut out by its rows, so rows that include every facet of D put K
    # in D; only a domain cut by other rows needs K's double description
    if not set(domain.cone.normals) <= set(rows):
        dd = DoubleDescription(lat)
        dd.add(rows)
        normals = [lat._dual(n) for n in domain.cone.normals]
        outside = sorted(r for r in dd.rays if any(sum(map(mul, n, r)) < 0 for n in normals))
        coverage_ok = not (
            outside or any(sum(map(mul, n, l)) for l in dd.lineality for n in normals)
        )
    positive = [r for r in outside if lat._pair(r, r) >= 0 and lat._pair(ample, r) > 0]
    failures = []
    if positive:  # only these need a reducer
        reduce = _reducer(lat, ample, group, domain)
        for r in positive:
            try:
                reduce(r)
            except CoverageFailure:
                failures.append(r)

    cone = domain.cone
    words = group_words(group, word_length)
    if words and not cone.full_dim:
        raise GeometryError("tiling needs a full-dimensional domain")
    overlaps = []
    stabilizers = []
    rays = [(r, lat._dual(r), lat._pair(ample, r)) for r in cone.rays]
    for g, word in words:
        # the rays of a pointed cone generate it, so a cut between them and
        # their images settles the word first; it never settles a stabilizer
        if cone.pointed and _cut_separates(ample, gh, g, rays):
            continue
        # an isometry carries D's facets onto gD's, and the facets of a
        # full-dimensional cone are canonical
        moved = tuple(sorted(primitive_ray(linalg.mat_vec(g, n)) for n in cone.normals))
        if moved == cone.normals:
            stabilizers.append(word)
        elif cone_from_inequalities(lat, cone.normals + moved).full_dim:
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
