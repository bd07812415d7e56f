"""Independent brute-force oracles used to cross-check the exact algorithms.

Everything in this module is deliberately dumb: box searches over integer
grids (numpy int64 stays exact at these sizes), greedy reflection walks driven
by those box searches, breadth-first orbit balls, and dense residue checks.
None of it shares code with the package under test, and none of it is meant
to be fast or complete beyond the stated boxes -- the tests freeze values
derived here and compare them against the package's certified output.  Two
exceptions run on the package's double description: ``meet_dimension``, a
reference for the facet rule of ``sterk --dot``, and
``nef_walls_by_root_scans``, a reference for the wall rule alone, which
also runs on its enumeration and ``nef_test``.

Conventions match the package: integer row vectors, pairing x.y = x^T G y,
matrices act on column vectors.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key

import numpy as np


def pairing(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def norm(gram, x):
    return pairing(gram, x, x)


def apply_matrix(m, x):
    n = len(x)
    return tuple(sum(m[i][j] * x[j] for j in range(n)) for i in range(n))


def is_primitive(x):
    return math.gcd(*(abs(c) for c in x)) == 1


def box_vectors(rank, box):
    """All integer vectors with |coords| <= box, as an (N, rank) int64 array."""
    axis = np.arange(-box, box + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * rank), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def box_by_norm_degree(gram, ample, box, norms, degrees):
    """Box search keyed by (norm, degree); values are lex-sorted tuples."""
    pts = box_vectors(len(gram), box)
    G = np.asarray(gram, dtype=np.int64)
    H = np.asarray(ample, dtype=np.int64)
    pt_norms = np.einsum("ij,jk,ik->i", pts, G, pts)
    pt_degs = pts @ (G @ H)
    out = {}
    for n in norms:
        for d in degrees:
            sel = pts[(pt_norms == n) & (pt_degs == d)]
            out[(n, d)] = sorted(map(tuple, sel.tolist()))
    return out


def box_roots(gram, ample, box, max_degree=None):
    """All (-2)-vectors in the box with positive degree, lex-sorted."""
    pts = box_vectors(len(gram), box)
    G = np.asarray(gram, dtype=np.int64)
    H = np.asarray(ample, dtype=np.int64)
    pt_norms = np.einsum("ij,jk,ik->i", pts, G, pts)
    pt_degs = pts @ (G @ H)
    keep = (pt_norms == -2) & (pt_degs > 0)
    if max_degree is not None:
        keep &= pt_degs <= max_degree
    return sorted(map(tuple, pts[keep].tolist()))


def box_isotropics(gram, ample, box, max_degree=None):
    """Primitive isotropic vectors of positive degree in the box."""
    pts = box_vectors(len(gram), box)
    G = np.asarray(gram, dtype=np.int64)
    H = np.asarray(ample, dtype=np.int64)
    pt_norms = np.einsum("ij,jk,ik->i", pts, G, pts)
    pt_degs = pts @ (G @ H)
    keep = (pt_norms == 0) & (pt_degs > 0)
    if max_degree is not None:
        keep &= pt_degs <= max_degree
    return sorted(v for v in map(tuple, pts[keep].tolist()) if is_primitive(v))


def inertia_by_eigenvalues(matrix):
    """(positive, negative, zero) counts of the eigenvalues of a symmetric matrix.

    For integer entries of size <= 5 and n <= 6 every eigenvalue is at most 30
    in size, and the product of the non-zero ones is a non-zero integer, so a
    non-zero eigenvalue exceeds 30**-5 > 1e-8 in size; floating-point error
    stays far below the 1e-9 cut-off.
    """
    values = np.linalg.eigvalsh(np.asarray(matrix, dtype=float))
    pos = int(np.sum(values > 1e-9))
    neg = int(np.sum(values < -1e-9))
    return pos, neg, len(values) - pos - neg


def rref_over_q(rows):
    """Reduced row echelon form by Fraction Gauss-Jordan: (rows, pivot columns)."""
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


def inverse_over_q(m):
    """The inverse of a square matrix from ``rref_over_q``; singular raises."""
    n = len(m)
    rows, pivots = rref_over_q([list(row) + [int(i == j) for j in range(n)]
                                for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def ldl_over_q(sym):
    """Symmetric Gaussian reduction in Fractions: ``(diag, ratios, order)``.

    The reference for the fraction-free ``linalg.ldl``.  Each step pivots on
    the first remaining index whose diagonal entry is non-zero and clears its
    row and column, recording ``ratios[k][i]`` = entry / pivot; when every
    remaining diagonal entry vanishes, an off-diagonal entry is folded onto
    the diagonal first.  ``diag`` is the diagonal of the final congruent
    matrix, and ``order`` lists the pivoted indices in turn.  A definite
    matrix never folds, and ``sym = U^T diag(diag) U`` for the unit upper
    triangular ``U`` with ``ratios`` above the diagonal.
    """
    n = len(sym)
    a = [[Fraction(x) for x in row] for row in sym]
    ratios = [[Fraction(0)] * n for _ in range(n)]
    active, order = list(range(n)), []
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
        active.remove(k)
        order.append(k)
        pivot, d = a[k], a[k][k]
        for i in active:
            f = ratios[k][i] = pivot[i] / d
            for c in active:
                a[i][c] -= f * pivot[c]
    return tuple(a[i][i] for i in range(n)), ratios, order


def residue_obstruction(gram, value, modulus):
    """True when norm(x) == value has no solution even modulo `modulus`.

    A True answer is an exact proof that no integer vector has that norm.
    """
    rank = len(gram)
    for x in itertools.product(range(modulus), repeat=rank):
        if norm(gram, x) % modulus == value % modulus:
            return False
    return True


def rank2_isotropic_directions_are_rational(gram):
    """Whether the rank-2 form has rational isotropic directions (square disc)."""
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    disc = b * b - a * c
    r = math.isqrt(disc)
    return r * r == disc


def walk(gram, ample, x, box):
    """Reflect in any separating box root until none separates.

    The endpoint is what matters (it is unique); the reflection choice here is
    simply the lex-smallest separating root, independent of the package rule.
    """
    x = tuple(x)
    steps = 0
    while True:
        roots = [d for d in box_roots(gram, ample, box) if pairing(gram, d, x) < 0]
        if not roots:
            return x
        d = roots[0]
        x = tuple(x[i] + pairing(gram, x, d) * d[i] for i in range(len(x)))
        steps += 1
        assert steps <= 10_000, "oracle walk runaway"


def reflect_word(gram, word, x):
    """Replay a reflection word on x, first entry first: x -> x + (x.d) d per root d."""
    for d in word:
        c = pairing(gram, x, d)
        x = tuple(a + c * b for a, b in zip(x, d))
    return tuple(x)


def separating_degree_bound(gram, ample, x):
    """Reference separating degree bound, maximized over the segment in Fractions.

    Along u = (1-s) H + s x, (H.u)^2 / u^2 = N(s)^2 / D(s); the maximum over
    [0, 1] sits at an endpoint or at the one zero of 2 N' D - N D'.
    """
    h2, hx, x2 = norm(gram, ample), pairing(gram, ample, x), norm(gram, x)
    if x2 == 0:
        return hx
    n0, n1 = h2, hx - h2
    d0, d1, d2 = h2, 2 * (hx - h2), h2 - 2 * hx + x2
    candidates = [Fraction(0), Fraction(1)]
    p0 = 2 * n1 * d0 - n0 * d1
    p1 = 2 * n1 * d1 - n0 * 2 * d2 - n1 * d1
    s = Fraction(-p0, p1) if p1 != 0 else Fraction(0)
    if 0 < s < 1 and d0 + d1 * s + d2 * s * s > 0:
        candidates.append(s)
    best = max((n0 + n1 * s) ** 2 / (d0 + d1 * s + d2 * s * s) for s in candidates)
    value = 2 * (best - h2)
    return math.isqrt(value.numerator * value.denominator) // value.denominator


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angular_extremes(directions):
    """Boundary rays of a <pi wedge of 2-d integer directions."""
    order = sorted(directions, key=cmp_to_key(lambda u, v: -_cross2(u, v)))
    return order[0], order[-1]


def _primitive(v):
    g = math.gcd(*(abs(c) for c in v))
    return tuple(c // g for c in v)


def chamber_2d(gram, ample, box):
    """Discrete rank-2 chamber data: (roots, wall subset, extreme directions).

    Walls are roots whose hyperplane is witnessed by a grid point lying in the
    chamber with every other box-root inequality strict.  Extreme directions
    are the angular extremes of the discrete chamber; they equal the true rays
    whenever the chamber is a rational wedge whose rays fit in the box.
    """
    roots = box_roots(gram, ample, box)
    dirs = set()
    for v in map(tuple, box_vectors(2, box).tolist()):
        if v == (0, 0) or not is_primitive(v):
            continue
        if norm(gram, v) < 0 or pairing(gram, ample, v) <= 0:
            continue
        if all(pairing(gram, d, v) >= 0 for d in roots):
            dirs.add(v)
    lo, hi = _angular_extremes(dirs)
    walls = []
    for d in roots:
        others = [e for e in roots if e != d]
        for v in map(tuple, box_vectors(2, box).tolist()):
            if v == (0, 0) or norm(gram, v) < 0 or pairing(gram, ample, v) <= 0:
                continue
            if pairing(gram, d, v) == 0 and all(pairing(gram, e, v) > 0 for e in others):
                walls.append(d)
                break
    return roots, walls, tuple(sorted((lo, hi)))


def isometries_in_box(gram, box):
    """Every integer matrix with entries in [-box, box] that preserves the form.

    Column j is the image of e_j, so it has norm gram[j][j] and pairs with
    column i in gram[i][j]; the columns are chosen one at a time from the box.
    """
    n = len(gram)
    points = [tuple(int(c) for c in p) for p in box_vectors(n, box)]
    candidates = [[p for p in points if norm(gram, p) == gram[j][j]] for j in range(n)]
    found = []

    def extend(columns):
        j = len(columns)
        if j == n:
            found.append(tuple(tuple(col[i] for col in columns) for i in range(n)))
            return
        for p in candidates[j]:
            if all(pairing(gram, columns[i], p) == gram[i][j] for i in range(j)):
                extend(columns + [p])

    extend([])
    return found


def meet_dimension(lat, a, b):
    """The dimension of the meet of two cones: the numpy rank of the rays and
    lineality of the cone their normals cut out together."""
    from k3cone import cone_from_inequalities

    meet = cone_from_inequalities(lat, a.normals + b.normals)
    generators = meet.rays + meet.lineality
    return int(np.linalg.matrix_rank(np.array(generators))) if generators else 0


def matrix_product(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def orbit_ball(gens, x, depth):
    """All images of x under generator words of length <= depth."""
    seen = {tuple(x)}
    frontier = [tuple(x)]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for m in gens:
                q = apply_matrix(m, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def scattered_samples(basis, gens, samples, word_length, seed):
    """Random cone classes: non-negative integer combinations of ``basis``
    (coefficients in [0, 6], never all zero), each then moved by a random
    word of at most ``word_length`` of ``gens``.

    A seed fixes the classes, so a test can pin the seeds that exposed a
    descent fault.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        coeffs = [rng.randint(0, 6) for _ in basis]
        if not any(coeffs):
            coeffs[rng.randrange(len(basis))] = 1
        x = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(basis[0])))
        for _ in range(rng.randint(0, word_length)):
            if gens:
                x = apply_matrix(gens[rng.randrange(len(gens))], x)
        out.append(x)
    return out


def degree_capped_orbit(gram, ample, gens, cap):
    """BFS orbit of the ample class, pruned at degree cap."""
    start = tuple(ample)
    seen = {start}
    queue = [start]
    while queue:
        p = queue.pop(0)
        for m in gens:
            q = apply_matrix(m, p)
            if q not in seen and pairing(gram, ample, q) <= cap:
                seen.add(q)
                queue.append(q)
    return seen


def sterk_extremes_2d(gram, ample, gens, cap, box):
    """Angular extremes of the discretized Sterk domain (rank 2 only)."""
    roots = box_roots(gram, ample, box)
    orbit = degree_capped_orbit(gram, ample, gens, cap)
    cuts = [tuple(h[i] - ample[i] for i in range(2)) for h in orbit if h != tuple(ample)]
    dirs = set()
    for v in map(tuple, box_vectors(2, box).tolist()):
        if v == (0, 0) or not is_primitive(v):
            continue
        if norm(gram, v) < 0 or pairing(gram, ample, v) <= 0:
            continue
        if any(pairing(gram, d, v) < 0 for d in roots):
            continue
        if any(pairing(gram, c, v) < 0 for c in cuts):
            continue
        dirs.add(v)
    lo, hi = _angular_extremes(dirs)
    return tuple(sorted((lo, hi)))


def canonical_orbit_class(gram, ample, gens, x, walk_box, depth=6):
    """Canonical representative of the group orbit of x's chamber-reduced form."""
    y = walk(gram, ample, x, walk_box)
    ball = orbit_ball(gens, y, depth)
    return min(ball, key=lambda v: (pairing(gram, ample, v), v))


def canonical_group_class(gram, ample, gens, x, depth=6):
    """Canonical representative of the plain group orbit (no chamber walk).

    Used for wall vectors, which have negative norm and cannot be walked.
    """
    ball = orbit_ball(gens, x, depth)
    return min(ball, key=lambda v: (pairing(gram, ample, v), v))


def orbit_class_count(gram, ample, gens, candidates, walk_box, depth=6):
    """Number of distinct group orbits among the candidate classes."""
    reps = {canonical_orbit_class(gram, ample, gens, c, walk_box, depth) for c in candidates}
    return len(reps), sorted(reps)


def mod_p_span(p, basis):
    """The full F_p-span of the reduced basis vectors, as a frozenset."""
    rank = len(basis[0])
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(rank))
        span.add(v)
    return frozenset(span)


def preserves_subspace_mod_p(p, basis, matrix):
    """Set-level check that the matrix maps span(basis) into itself mod p."""
    span = mod_p_span(p, basis)
    image = {tuple(c % p for c in apply_matrix(matrix, v)) for v in span}
    return image <= span


def nef_walls_by_root_scans(lat, ample, ceiling):
    """Wall discovery by root scans: the rule Vinberg's acceptance replaced.

    Every root up to each mark cuts the cone, over the same marks as
    ``nef_walls``.  A pointed, full-dimensional cone is certified when each
    ray lies in the closed positive cone and passes ``nef_test``; its walls
    are its root facets, each with the sum of the facet's rays.  When the
    ceiling runs out, the partial answer keeps the root facets whose witness
    ``2H + d delta`` pairs positively with every other root found.
    """
    from k3cone import NefDescription, nef_test, roots_up_to_degree
    from k3cone.cones import DoubleDescription
    from k3cone.enumeration import rational_isotropic_rays

    ample = tuple(ample)
    first = 2 * lat.norm(ample)
    marks = [1 << k for k in range(first.bit_length()) if 1 << k < first]
    marks += [first << step for step in range(ceiling + 1)]
    dd, roots, previous = DoubleDescription(lat), (), 0
    changed = lat.rank == 2 and dd.add(rational_isotropic_rays(lat, ample)) > 0
    for bound in marks:
        roots = roots_up_to_degree(lat, ample, bound)
        changed = dd.add(d for d in roots if lat.pairing(ample, d) > previous) > 0 or changed
        previous = bound
        if changed and not dd.lineality:
            changed = False
            cone = dd.cone()
            if (
                cone.pointed
                and cone.full_dim
                and all(lat.norm(r) >= 0 and lat.pairing(ample, r) > 0 for r in cone.rays)
                and all(nef_test(lat, ample, r) for r in cone.rays)
            ):
                walls = tuple(n for n in cone.normals if lat.norm(n) == -2)
                witnesses = tuple(
                    (w, tuple(map(sum, zip(*(r for r in cone.rays if lat.pairing(r, w) == 0)))))
                    for w in walls
                )
                return NefDescription(walls, witnesses, max(bound, first), cone)
        if not roots and bound > first:
            return NefDescription((), (), bound)
    stable = not roots or max(lat.pairing(ample, d) for d in roots) <= bound // 2
    walls, witnesses = [], []
    for delta in dd.facets():
        if lat.norm(delta) != -2:
            continue
        w = tuple(2 * h + lat.pairing(ample, delta) * x for h, x in zip(ample, delta))
        if all(lat.pairing(m, w) > 0 for m in roots if m != delta):
            walls.append(delta)
            witnesses.append((delta, w))
    return NefDescription(tuple(walls), tuple(witnesses), bound, stable=stable)
