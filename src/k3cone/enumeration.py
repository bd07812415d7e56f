"""Exact enumeration of lattice vectors by norm and degree.

The key observation: for an ample class H, the affine slice ``{x : x.H = d}``
becomes, after splitting off H, a coset of the negative definite sublattice
``H-perp``.  Enumerating a fixed norm on such a slice is a bounded search, run
as an integer-scaled Fincke-Pohst enumeration (Fincke & Pohst, Math. Comp. 44,
1985): the fraction-free LDL^T split of the slice form is computed once per
(L, H) and scaled to integers, so the search compares integers against
``isqrt`` bounds and builds no fraction at all.  Centres are incremental
(Agrell, Eriksson, Vardy & Zeger, IEEE Trans. Inf. Theory 48, 2002): a node
hands each lower coordinate its centre moved by the one term of the
coordinate it fixed, and the last two levels run as one loop that solves the
last coordinate in closed form.  Each (L, H) also keeps one degree-ordered
stream per norm -- the vectors found so far and the degree scanned up to --
which degree-bounded queries extend past that mark and slice.

The same completeness argument powers ``separating_roots``: a root delta with
``delta.H > 0 > delta.x`` vanishes somewhere on the segment [H, x], and at a
point ``u`` of positive norm Cauchy-Schwarz inside ``u-perp`` bounds the
degree of delta by ``(delta.H)^2 <= 2((H.u)^2/u^2 - H^2)``.  That rational
function of the segment parameter s never decreases: the linear factor of its
derivative's numerator is ``2 s ((x.H)^2 - H^2 x^2)``, which reverse
Cauchy-Schwarz makes non-negative.  So its maximum is at x, and the bound is
the integer ``isqrt(floor(2((x.H)^2 - H^2 x^2) / x^2))``.  For isotropic x the
same inequality collapses to the closed bound ``delta.H <= x.H``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from . import linalg
from .errors import (
    AmpleOnWall,
    DimensionMismatch,
    NonPositiveAmple,
    OppositeCone,
    OutsidePositiveCone,
    UnboundedQuery,
    ZeroVector,
)
from .lattice import Lattice, Vec, as_vector, primitive_ray

ROOT_NORM = -2


class _Slice:
    """Integer search data and the degree-ordered streams for one (L, H).

    A point of degree ``k * content`` is ``k * base + c . kernel``; its norm
    is ``n`` exactly when ``(c - z)^T Q (c - z) = radius`` for the definite
    ``Q = -(A|kernel) = U^T D U``, whose ``U`` and ``D`` are read from the
    minors of ``linalg.ldl``.  ``delta``, ``p`` and ``lc`` clear the
    denominators of ``Q^-1``, ``U`` and ``D``, so the search runs on integers.
    """

    def __init__(self, lat: Lattice, ample: Vec):
        self.form = lat._dual(ample)  # degree(x) = form . x
        self.content, cols = linalg.split_linear_form(self.form)
        if self.content == 0:
            raise ZeroVector("the degree form vanishes: the ample class is zero")
        self.base = cols[0]  # degree(base) = content
        self.kernel = cols[1:]  # saturated basis of the degree-zero sublattice
        self.columns = tuple(zip(*self.kernel))  # x[r] = point[r] + coeffs . columns[r]
        duals = [lat._dual(b) for b in self.kernel]
        neg = [[-sum(map(mul, a, g)) for g in duals] for a in self.kernel]
        minors, rows = linalg.ldl(neg)  # fraction-free, once per (L, H)
        if len(minors) < len(neg) or any(x <= 0 for x in minors):
            raise NonPositiveAmple("the slice form is not definite: H^2 <= 0")
        adj, det = linalg.scaled_inverse(neg)  # Q^-1 = adj / det, fraction-free
        delta = abs(det) // gcd(det, *(x for row in adj for x in row))
        # U[k][i] = rows[k][i] / m_k and D_k = m_k / m_(k-1), for the minors m
        lower = (1,) + minors[:-1]
        p = lcm(*(m // gcd(m, *row) for m, row in zip(minors, rows)))
        lc = lcm(*(m // gcd(m, x) for m, x in zip(lower, minors)))
        self.pu = [[p * x // m for x in row] for m, row in zip(minors, rows)]
        self.diag = [lc * x // m for m, x in zip(lower, minors)]
        self.delta, self.p, self.top = delta, p, p * p * delta * lc
        # at degree k * content: delta * z = k * centre and
        # delta * radius = k^2 * quad - delta * norm
        lin = [sum(map(mul, self.base, g)) for g in duals]
        self.centre = [sum(map(mul, row, lin)) * delta // det for row in adj]
        self.quad = delta * lat._pair(self.base, self.base)
        self.quad += sum(map(mul, self.centre, lin))
        # pu is p times the unit upper triangular U, so s = p * delta times the
        # centre of coordinate l, once the c_j above it are fixed, is
        # k * shift[l] - sum_j steps[j][l] * c_j
        self.shift = [sum(map(mul, row, self.centre)) for row in self.pu]
        self.steps = [[delta * row[j] for row in self.pu[:j]] for j in range(len(neg))]
        self.streams: dict[int, list] = {}

    def query(self, norm: int, degree: int) -> tuple[Vec, ...]:
        """All x with x.x == norm and x.H == degree, lex-sorted; integers only.

        Centres are incremental (Agrell et al. 2002), and the level-1 loop
        solves the last coordinate in closed form, so a leaf costs no call.
        """
        if degree % self.content != 0:
            return ()
        k = degree // self.content
        dr = k * k * self.quad - self.delta * norm
        if dr < 0:
            return ()
        point = tuple([k * c for c in self.base])
        m, diag, steps, columns = len(self.kernel), self.diag, self.steps, self.columns
        if m == 0:
            return (point,) if dr == 0 else ()
        s, d0, rest = self.p * self.delta, diag[0], self.top * dr
        mids = [k * x for x in self.shift]
        if m == 1:  # the one coordinate must use up the radius exactly
            e, mid0 = isqrt(rest // d0), mids[0]
            ts = [t for t in {(mid0 - e) // s, (mid0 + e) // s} if d0 * (s * t - mid0) ** 2 == rest]
            return tuple(sorted(tuple([x + t * b for x, (b,) in zip(point, columns)]) for t in ts))
        coeffs, out = [0] * m, []

        def descend(i: int, mids: list, rest: int):
            # mids[l], for l <= i: s times coordinate l's centre given those above i
            mid, di, step = mids[i], diag[i], steps[i]
            w = isqrt(rest // di)
            for t in range(-((w - mid) // s), (mid + w) // s + 1):
                coeffs[i] = t
                r = rest - di * (s * t - mid) ** 2
                if i > 1:
                    descend(i - 1, [a - b * t for a, b in zip(mids, step)], r)
                    continue
                # levels 1 and 0 in one loop: the last coordinate in closed form
                mid0 = mids[0] - step[0] * t
                e = isqrt(r // d0)
                for t0 in {(mid0 - e) // s, (mid0 + e) // s}:
                    if d0 * (s * t0 - mid0) ** 2 == r:
                        coeffs[0] = t0
                        out.append(tuple([
                            x + sum(map(mul, coeffs, c)) for x, c in zip(point, columns)
                        ]))

        descend(m - 1, mids, rest)
        return tuple(sorted(out))

    def stream(self, norm: int, bound: int) -> list[Vec]:
        """The vectors of this norm with 0 < degree <= bound, in degree order.

        Each norm keeps one list of the vectors found so far and the degree it
        is scanned up to; a larger bound extends it, a smaller one slices it.
        """
        entry = self.streams.setdefault(norm, [[], 0])
        found = entry[0]
        for d in range(entry[1] + 1, bound + 1):
            found.extend(self.query(norm, d))
            entry[1] = d
        end = bisect_right(found, bound, key=lambda v: sum(map(mul, self.form, v)))
        return found[:end]


@lru_cache(maxsize=64)
def _slice_for(lat: Lattice, ample: Vec) -> _Slice:
    return _Slice(lat, ample)


def classes_up_to_degree(lat: Lattice, ample, norm: int, bound: int) -> tuple[Vec, ...]:
    """All x with x.x == norm and 0 < x.H <= bound, lex-sorted."""
    if bound < 0:
        raise UnboundedQuery(f"degree bound {bound} is negative")
    ample = as_vector(ample, lat.rank, "ample class")
    return tuple(sorted(_slice_for(lat, ample).stream(norm, bound)))


def roots_up_to_degree(lat: Lattice, ample, bound: int) -> tuple[Vec, ...]:
    """Roots delta (delta.delta = -2) with 0 < delta.H <= bound."""
    return classes_up_to_degree(lat, ample, ROOT_NORM, bound)


def isotropics_up_to_degree(lat: Lattice, ample, bound: int) -> tuple[Vec, ...]:
    """Primitive isotropic classes with 0 < e.H <= bound."""
    return tuple(v for v in classes_up_to_degree(lat, ample, 0, bound) if gcd(*v) == 1)


def check_positive_closure(lat: Lattice, ample, x) -> Vec:
    """Assert x lies in the closed positive cone on the ample side."""
    x = as_vector(x, lat.rank)
    return _positive_closure(lat, as_vector(ample, lat.rank), x)


def _positive_closure(lat: Lattice, ample: Vec, x: Vec) -> Vec:
    """``check_positive_closure`` without re-validation, for tuples the package built."""
    if not any(x):
        raise ZeroVector("the zero class is not a cone point")
    gx = lat._dual(x)
    n = sum(map(mul, x, gx))
    if n < 0:
        raise OutsidePositiveCone(f"{x} has self-pairing {n} < 0")
    if sum(map(mul, ample, gx)) < 0:
        raise OppositeCone(f"{x} lies in the component opposite the ample class")
    # degree zero cannot happen here: a nonzero vector of non-negative norm
    # orthogonal to H would contradict signature (1, rank-1)
    return x


def check_off_walls(lat: Lattice, ample: Vec) -> None:
    """Raise AmpleOnWall for a root orthogonal to H: a finite, definite search."""
    on_wall = _slice_for(lat, ample).query(ROOT_NORM, 0)
    if on_wall:
        raise AmpleOnWall(on_wall[0])


def _degree_bound(h2: int, hx: int, x2: int) -> int:
    """The separating bound from H^2, x.H and x^2 of a checked x."""
    if x2 == 0:
        return hx
    # (H.u)^2 / u^2 grows along u = (1-s) H + s x, so its maximum is at x;
    # reverse Cauchy-Schwarz makes hx^2 >= h2 x2
    return isqrt(2 * (hx * hx - h2 * x2) // x2)


def separating_roots(lat: Lattice, ample, x) -> tuple[Vec, ...]:
    """All roots delta with delta.H > 0 > delta.x, lex-sorted.  Complete."""
    ample = as_vector(ample, lat.rank, "ample class")
    x = check_positive_closure(lat, ample, x)
    return tuple(sorted(_separating(lat, ample, x)))


def _separating(lat: Lattice, ample: Vec, x: Vec):
    """The roots separating a checked x from H, lazily, in degree order."""
    gx = lat._dual(x)
    hx, x2 = sum(map(mul, ample, gx)), sum(map(mul, x, gx))
    bound = _degree_bound(lat._pair(ample, ample), hx, x2)
    return (d for d in _root_stream(lat, ample, bound) if sum(map(mul, d, gx)) < 0)


def _root_stream(lat: Lattice, ample: Vec, bound: int) -> list[Vec]:
    """The roots of ``roots_up_to_degree`` in degree order, unchecked and unsorted."""
    return _slice_for(lat, ample).stream(ROOT_NORM, bound)


def rational_isotropic_rays(lat: Lattice, ample) -> tuple[Vec, ...]:
    """Rank 2 only: the isotropic boundary rays, when they are rational.

    Returns both primitive isotropic vectors oriented into the ample
    component, or () when the binary form's discriminant is not a square.
    """
    if lat.rank != 2:
        raise DimensionMismatch("isotropic boundary rays are a rank-2 notion")
    ample = as_vector(ample, lat.rank, "ample class")
    a, b, c = lat.gram[0][0], lat.gram[0][1], lat.gram[1][1]
    disc = b * b - a * c  # -det(G) > 0 in hyperbolic signature
    r = isqrt(disc)
    if r * r != disc:
        return ()
    if a == 0:
        dirs = [(1, 0), primitive_ray((-c, 2 * b))]
    else:
        dirs = [primitive_ray((-b + r, a)), primitive_ray((-b - r, a))]
    oriented = set()
    for e in dirs:
        if lat.pairing(ample, e) < 0:
            e = tuple(-t for t in e)
        oriented.add(e)
    return tuple(sorted(oriented))
