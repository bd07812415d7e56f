"""Exact linear algebra over Python integers and fractions.

Everything in here is dense and small: ambient ranks stay in single digits,
so clarity wins over asymptotics.  No floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import NotUnimodular

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def vec_gcd(v) -> int:
    g = 0
    for c in v:
        g = math.gcd(g, abs(c))
    return g


def rref(rows):
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def matrix_rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[0])


def inverse(m):
    """Exact inverse of a nonsingular square matrix, as rows of Fractions."""
    n = len(m)
    rows, pivots = rref([list(row) + list(e) for row, e in zip(m, identity(n))])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def invert_unimodular(m):
    """Exact inverse of an integer matrix with determinant +-1."""
    inv = inverse(m)
    if any(x.denominator != 1 for row in inv for x in row):
        raise NotUnimodular("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inv)


def signature(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia via symmetric Gaussian reduction.

    Congruence transformations only, all arithmetic in Fraction, so the
    result is exact for any symmetric integer matrix.
    """
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is None:
            # all active diagonal entries vanish: either the block is zero,
            # or an off-diagonal entry can be folded onto the diagonal
            pair = next(
                ((i, j) for i in active for j in active if j != i and a[i][j] != 0),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            continue
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            if a[i][k] != 0:
                f = a[i][k] / d
                for c in range(n):
                    a[i][c] -= f * a[k][c]
                for r in range(n):
                    a[r][i] -= f * a[r][k]
    return pos, neg, zero


def split_linear_form(c):
    """Unimodular column basis adapted to the form c.x.

    Returns ``(g, cols)`` where ``g = gcd(c) >= 0`` and ``cols`` is a basis of
    Z^n with c.cols[0] = g and c.cols[i] = 0 for i >= 1.  The tail columns are
    therefore an (exact, saturated) basis of the integer kernel of c.
    """
    n = len(c)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    c = list(c)
    for i in range(1, n):
        a, b = c[0], c[i]
        if b == 0:
            continue
        g, s, t = egcd(a, b)
        u, v = a // g, b // g
        col0 = [s * cols[0][r] + t * cols[i][r] for r in range(n)]
        coli = [-v * cols[0][r] + u * cols[i][r] for r in range(n)]
        cols[0], cols[i] = col0, coli
        c[0], c[i] = g, 0
    if c[0] < 0:
        c[0] = -c[0]
        cols[0] = [-x for x in cols[0]]
    return c[0], tuple(tuple(col) for col in cols)

