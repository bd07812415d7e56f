"""Exact linear algebra over Python integers.

Everything in here is dense and small: ambient ranks stay in single digits,
so clarity wins over asymptotics.  No floats anywhere, and every entry is
an integer: row elimination (``echelon``) and symmetric elimination
(``ldl``) are fraction-free, and inverses come scaled to integers
(``scaled_inverse``).
"""

from __future__ import annotations

from operator import mul

from .errors import NotUnimodular

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def identity(n: int) -> Mat:
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


def transpose(m):
    return tuple(zip(*m))


# the kernels build their tuples from lists: a generator per entry or row
# costs a frame, which here is most of the work
def mat_vec(m, v):
    return tuple([sum(map(mul, row, v)) for row in m])


def mat_mul(a, b):
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


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


def echelon(rows):
    """Gauss-Jordan elimination, fraction-free (Bareiss, Math. Comp. 22, 1968).

    Returns ``(rows, pivots, d)``: the non-zero rows of ``d`` times the
    reduced row echelon form over Q, their pivot columns, and ``d``, the last
    pivot (``d == 1`` when there is none).  Every entry is, up to sign, a
    minor of the row-swapped input, so every division is exact and no
    fraction is built; each pivot entry equals ``d``.
    """
    m = [list(row) for row in rows]
    pivots, d, r = [], 1, 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        pivot = m[r]
        a = pivot[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(a * x - f * y) // d for x, y in zip(row, pivot)]
        pivots.append(c)
        d, r = a, r + 1
    return m[:r], pivots, d


def scaled_inverse(m):
    """``(adj, d)``: integer rows with ``m^-1 == adj / d``, where ``d == +-det(m)``.

    Raises ``ZeroDivisionError`` when the square matrix ``m`` is singular.
    """
    n = len(m)
    rows, pivots, d = echelon([list(row) + list(e) for row, e in zip(m, identity(n))])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows), d


def invert_unimodular(m):
    """Exact inverse of an integer matrix with determinant +-1."""
    adj, d = scaled_inverse(m)
    if abs(d) != 1:
        raise NotUnimodular("matrix is not unimodular")
    return tuple(tuple(d * x for x in row) for row in adj)


def ldl(sym):
    """Symmetric elimination, fraction-free, of a symmetric matrix: ``(minors, rows)``.

    Congruence transformations only, in integers: the Bareiss step of
    ``echelon`` applied to rows and columns at once.  Each step pivots on the
    first remaining index whose diagonal entry is non-zero; when every
    remaining diagonal entry vanishes, an off-diagonal entry is folded onto
    the diagonal first, and a zero remaining block stops the elimination.
    ``minors[k]`` is the k-th pivot, a leading principal minor in pivot
    order, and ``rows[k]`` its pivot row, zero off the columns still active.
    A fold is a congruence on unpivoted indices, so it leaves the earlier
    minors alone and every division stays exact.  The congruent diagonal is
    ``minors[k] / minors[k-1]`` (with ``minors[-1] == 1``).  A definite
    matrix never folds: its pivots come in index order and
    ``sym[i][j] == sum(rows[k][i] * rows[k][j] / (minors[k-1] * minors[k]))``.
    """
    n = len(sym)
    a = [list(row) for row in sym]
    active = list(range(n))
    minors, rows, prev = [], [], 1
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is None:
            pair = next(
                ((i, j) for i in active for j in active if j != i and a[i][j] != 0),
                None,
            )
            if pair is None:  # the remaining block is zero
                break
            i, j = pair
            for c in active:
                a[i][c] += a[j][c]
            for r in active:
                a[r][i] += a[r][j]
            continue
        pivot, d = a[k], a[k][k]
        rows.append(tuple([pivot[c] if c in active else 0 for c in range(n)]))
        active.remove(k)
        # only the remaining block is read again: it becomes d times the Schur complement
        for i in active:
            row, f = a[i], pivot[i]
            for c in active:
                row[c] = (d * row[c] - f * pivot[c]) // prev
        minors.append(d)
        prev = d
    return tuple(minors), tuple(rows)


def signature(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix, exactly."""
    minors = ldl(gram)[0]
    signs = [a * b for a, b in zip((1,) + minors, minors)]
    return sum(s > 0 for s in signs), sum(s < 0 for s in signs), len(gram) - len(minors)


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

