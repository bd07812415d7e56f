"""Exact enumeration of lattice vectors by norm and degree.

The key observation: for an ample class H, the affine slice ``{x : x.H = d}``
becomes, after splitting off H, a coset of the negative definite sublattice
``H-perp``.  Enumerating a fixed norm on such a slice is a bounded search, run
here with an exact rational Cholesky split (no floats, fractions only).

The same completeness argument powers ``separating_roots``: a root delta with
``delta.H > 0 > delta.x`` vanishes somewhere on the segment [H, x], and at a
point ``u`` of positive norm Cauchy-Schwarz inside ``u-perp`` bounds the
degree of delta by ``(delta.H)^2 <= 2((H.u)^2/u^2 - H^2)``.  Maximizing that
rational function over the segment is exact: the derivative numerator is
linear in the segment parameter, so one interior critical point plus the two
endpoints decide the maximum.  For isotropic x the same inequality collapses
to the closed bound ``delta.H <= x.H``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import linalg
from .errors import (
    OppositeCone,
    OutsidePositiveCone,
    UnboundedQuery,
    ZeroVector,
)
from .lattice import Lattice, Vec, as_vector, primitive_ray

ROOT_NORM = -2


class _Slice:
    """Shared decomposition data for all (norm, degree) queries on (L, H)."""

    def __init__(self, lat: Lattice, ample: Vec):
        self.lat = lat
        self.ample = ample
        form = lat.gram_vec(ample)  # degree(x) = form . x
        self.content, cols = linalg.split_linear_form(form)
        assert self.content > 0, "degree form vanished on a nondegenerate lattice"
        self.base = cols[0]  # degree(base) = content
        self.kernel = cols[1:]  # saturated basis of the degree-zero sublattice
        m = len(self.kernel)
        neg = [
            [-lat.pairing(self.kernel[i], self.kernel[j]) for j in range(m)]
            for i in range(m)
        ]
        # rational Cholesky of the positive definite -(A|kernel)
        q = [[Fraction(neg[i][j]) for j in range(m)] for i in range(m)]
        ratios = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            assert q[i][i] > 0, "slice form is not definite"
            for j in range(i + 1, m):
                ratios[i][j] = q[i][j] / q[i][i]
            for j in range(i + 1, m):
                for k in range(j, m):
                    q[j][k] -= ratios[i][j] * q[i][k]
        self.neg_inverse = linalg.inverse(neg)
        self.diag = [q[i][i] for i in range(m)]
        self.ratios = ratios

    def query(self, norm: int, degree: int) -> tuple[Vec, ...]:
        if degree % self.content != 0:
            return ()
        point = tuple((degree // self.content) * c for c in self.base)
        m = len(self.kernel)
        if m == 0:
            return (point,) if self.lat.norm(point) == norm else ()
        lin = [self.lat.pairing(point, b) for b in self.kernel]
        center = linalg.mat_vec(self.neg_inverse, lin)
        radius = self.lat.norm(point) - norm + sum(
            c * b for c, b in zip(center, lin)
        )
        if radius < 0:
            return ()
        out = []
        coeffs = [0] * m

        def descend(i: int, remaining: Fraction):
            converted = [Fraction(coeffs[j]) - center[j] for j in range(i + 1, m)]
            shift = sum(
                self.ratios[i][j] * c for j, c in zip(range(i + 1, m), converted)
            )
            mid = center[i] - shift
            bound = remaining / self.diag[i]
            lo = linalg.ceil_minus_sqrt(mid, bound)
            hi = linalg.floor_plus_sqrt(mid, bound)
            for t in range(lo, hi + 1):
                coeffs[i] = t
                offset = Fraction(t) - mid
                rest = remaining - self.diag[i] * offset * offset
                if i == 0:
                    if rest == 0:
                        out.append(
                            tuple(
                                point[r]
                                + sum(coeffs[j] * self.kernel[j][r] for j in range(m))
                                for r in range(self.lat.rank)
                            )
                        )
                else:
                    descend(i - 1, rest)

        descend(m - 1, Fraction(radius))
        return tuple(sorted(out))


@lru_cache(maxsize=64)
def _slice_for(lat: Lattice, ample: Vec) -> _Slice:
    return _Slice(lat, ample)


def vectors_norm_degree(lat: Lattice, ample, norm: int, degree: int) -> tuple[Vec, ...]:
    """All x with x.x == norm and x.H == degree, lex-sorted.  Complete."""
    ample = as_vector(ample, lat.rank, "ample class")
    return _slice_for(lat, ample).query(norm, degree)


def classes_up_to_degree(
    lat: Lattice, ample, norm: int, bound: int, primitive_only: bool = False
) -> tuple[Vec, ...]:
    """All x with x.x == norm and 0 < x.H <= bound, lex-sorted."""
    if bound < 0:
        raise UnboundedQuery(f"degree bound {bound} is negative")
    ample = as_vector(ample, lat.rank, "ample class")
    sl = _slice_for(lat, ample)
    found = []
    for d in range(1, bound + 1):
        for v in sl.query(norm, d):
            if primitive_only and linalg.vec_gcd(v) != 1:
                continue
            found.append(v)
    return tuple(sorted(found))


def roots_up_to_degree(lat: Lattice, ample, bound: int) -> tuple[Vec, ...]:
    """Roots delta (delta.delta = -2) with 0 < delta.H <= bound."""
    return classes_up_to_degree(lat, ample, ROOT_NORM, bound)


def isotropics_up_to_degree(lat: Lattice, ample, bound: int) -> tuple[Vec, ...]:
    """Primitive isotropic classes with 0 < e.H <= bound."""
    return classes_up_to_degree(lat, ample, 0, bound, primitive_only=True)


def check_positive_closure(lat: Lattice, ample, x) -> Vec:
    """Assert x lies in the closed positive cone on the ample side."""
    x = as_vector(x, lat.rank)
    if all(c == 0 for c in x):
        raise ZeroVector("the zero class is not a cone point")
    n = lat.norm(x)
    if n < 0:
        raise OutsidePositiveCone(f"{x} has self-pairing {n} < 0")
    if lat.pairing(ample, x) < 0:
        raise OppositeCone(f"{x} lies in the component opposite the ample class")
    # degree zero cannot happen here: a nonzero vector of non-negative norm
    # orthogonal to H would contradict signature (1, rank-1)
    return x


def separating_degree_bound(lat: Lattice, ample, x) -> int:
    """Certified upper bound for delta.H over roots separating x from H."""
    ample = as_vector(ample, lat.rank, "ample class")
    x = check_positive_closure(lat, ample, x)
    h2 = lat.norm(ample)
    hx = lat.pairing(ample, x)
    x2 = lat.norm(x)
    if x2 == 0:
        return hx
    # f(s) = (H.u)^2 / u^2 along u = (1-s) H + s x; maximize exactly
    n0, n1 = Fraction(h2), Fraction(hx - h2)  # N(s) = n0 + n1 s
    d0 = Fraction(h2)
    d1 = Fraction(2 * (hx - h2))
    d2 = Fraction(h2 - 2 * hx + x2)  # D(s) = d0 + d1 s + d2 s^2

    def n_of(s):
        return n0 + n1 * s

    def d_of(s):
        return d0 + d1 * s + d2 * s * s

    candidates = [Fraction(0), Fraction(1)]
    # numerator of f' is N (2 N' D - N D'); the second factor is linear in s
    p0 = 2 * n1 * d0 - n0 * d1
    p1 = 2 * n1 * d1 - n0 * 2 * d2 - n1 * d1
    if p1 != 0:
        s = -p0 / p1
        if 0 < s < 1 and d_of(s) > 0:
            candidates.append(s)
    best = max(n_of(s) * n_of(s) / d_of(s) for s in candidates)
    return linalg.floor_sqrt(2 * (best - h2))


def separating_roots(lat: Lattice, ample, x) -> tuple[Vec, ...]:
    """All roots delta with delta.H > 0 > delta.x, lex-sorted.  Complete."""
    x = as_vector(x, lat.rank)
    bound = separating_degree_bound(lat, ample, x)
    return tuple(
        d for d in roots_up_to_degree(lat, ample, bound) if lat.pairing(d, x) < 0
    )


def rational_isotropic_rays(lat: Lattice, ample) -> tuple[Vec, ...]:
    """Rank 2 only: the isotropic boundary rays, when they are rational.

    Returns both primitive isotropic vectors oriented into the ample
    component, or () when the binary form's discriminant is not a square.
    """
    assert lat.rank == 2, "isotropic boundary rays are a rank-2 notion"
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
