"""Output checkers that share no code with k3cone.

Each checker takes plain integer tuples (the Gram matrix, the ample class
and a computed result) and raises ``CheckFailure`` when the result breaks a
property the method must have, or disagrees with a computation made here:
a brute-force box scan for roots and classes, replaying reflection and
generator words with plain integer matrices, or a breadth-first search over
generator words.  Nothing here imports the package under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from math import gcd, isqrt


class CheckFailure(AssertionError):
    """A computed output broke a property the checker tests."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------- arithmetic


def pairing(gram, x, y) -> int:
    n = len(gram)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))


def norm(gram, x) -> int:
    return pairing(gram, x, x)


def mat_vec(m, x):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in m)


def reflection(gram, delta):
    """Matrix of x -> x + (x.delta) delta on column vectors."""
    n = len(gram)
    gd = [sum(gram[i][j] * delta[j] for j in range(n)) for i in range(n)]
    return tuple(
        tuple((1 if i == j else 0) + delta[i] * gd[j] for j in range(n))
        for i in range(n)
    )


def is_isometry(gram, m) -> bool:
    n = len(gram)
    mt_g = [[sum(m[k][i] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return all(
        sum(mt_g[i][k] * m[k][j] for k in range(n)) == gram[i][j]
        for i in range(n)
        for j in range(n)
    )


def rank_of(rows) -> int:
    """Rank over Q by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                a, b = rows[rank][c], rows[i][c]
                rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def inverse(m):
    """Inverse of a square matrix over Q."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def classes_in_box(gram, ample, value: int, lo: int, hi: int):
    """Every x with x.x == value and lo <= x.H <= hi, by a box scan.

    The box comes from the majorant M(x) = 2 (x.H)^2 / H^2 - x.x, which is
    positive definite on a hyperbolic lattice, so |x_i|^2 <= M(x) (M^-1)_ii.
    The last coordinate is solved from the norm equation (or from the degree,
    when the Gram diagonal vanishes), the others are scanned.
    """
    n = len(gram)
    h2 = norm(gram, ample)
    gh = [sum(gram[i][j] * ample[j] for j in range(n)) for i in range(n)]
    major = [[Fraction(2 * gh[i] * gh[j], h2) - gram[i][j] for j in range(n)] for i in range(n)]
    inv = inverse(major)
    top = Fraction(2 * max(lo * lo, hi * hi), h2) - value
    if top < 0:
        return []
    radius = []
    for i in range(n):
        r2 = top * inv[i][i]
        radius.append(isqrt(r2.numerator * r2.denominator) // r2.denominator)
    k = next((i for i in reversed(range(n)) if gram[i][i] != 0), None)
    if k is None:
        k = next(i for i in reversed(range(n)) if gh[i] != 0)
    free = [i for i in range(n) if i != k]
    found = set()
    for coords in itertools.product(*(range(-radius[i], radius[i] + 1) for i in free)):
        x = [0] * n
        for i, c in zip(free, coords):
            x[i] = c
        if gram[k][k] != 0:
            # gram[k][k] t^2 + 2 b t + c0 == value
            b = sum(gram[k][i] * x[i] for i in free)
            c0 = sum(x[i] * gram[i][j] * x[j] for i in free for j in free) - value
            a = gram[k][k]
            disc = b * b - a * c0
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            candidates = {(-b + s), (-b - s)}
            ts = [num // a for num in candidates if num % a == 0]
        else:
            rest = sum(gh[i] * x[i] for i in free)
            ts = [(d - rest) // gh[k] for d in range(lo, hi + 1) if (d - rest) % gh[k] == 0]
        for t in ts:
            x[k] = t
            v = tuple(x)
            d = pairing(gram, v, ample)
            if lo <= d <= hi and norm(gram, v) == value:
                found.add(v)
    return sorted(found)


def on_a_wall(gram, ample) -> bool:
    """Whether some root is orthogonal to the class."""
    return bool(classes_in_box(gram, ample, -2, 0, 0))


# ---------------------------------------------------------------- chamber


def check_chamber(gram, ample, walls, rays, witnesses, complete: bool, bound: int | None,
                  certified: bool):
    """Walls, rays and facet witnesses of the ample chamber.

    ``certified`` is what the caller knows of the input: True when the
    chamber is finite polyhedral and certifies at the ceiling used, False for
    a round chamber or one run at a ceiling too low to certify.  The output's
    ``complete`` flag must say the same.  On rank <= 3 the walls are compared
    with the roots of degree <= bound found by ``classes_in_box``: every
    reported wall must be a facet of the cone those roots cut out, there is a
    wall if there is a root, and on a certified result every other root must
    be redundant on the reported rays.
    """
    n = len(gram)
    require(complete == certified,
            f"complete={complete} on a chamber that {'does' if certified else 'does not'} certify")
    require(norm(gram, ample) > 0, "ample class of non-positive norm")
    require(len(set(walls)) == len(walls), "duplicate walls")
    for d in walls:
        require(norm(gram, d) == -2, f"wall {d} is not a root")
        require(pairing(gram, d, ample) > 0, f"wall {d} has non-positive degree")
    for a, b in itertools.combinations(walls, 2):
        require(pairing(gram, a, b) >= 0, f"walls {a}, {b} pair negatively")
    points = dict(witnesses)
    require(set(points) == set(walls), "witness set differs from the wall set")
    for d, w in points.items():
        require(pairing(gram, w, d) == 0, f"witness {w} is off its wall {d}")
        require(norm(gram, w) > 0 and pairing(gram, w, ample) > 0,
                f"witness {w} is outside the positive cone")
        for e in walls:
            if e != d:
                require(pairing(gram, w, e) > 0, f"witness {w} of {d} is tight on {e}")
    for r in rays:
        require(norm(gram, r) >= 0 and pairing(gram, r, ample) > 0,
                f"ray {r} is outside the closed positive cone")
        for d in walls:
            require(pairing(gram, r, d) >= 0, f"ray {r} pairs negatively with {d}")
        if complete and n >= 3:
            tight = [d for d in walls if pairing(gram, r, d) == 0]
            require(tight and rank_of(tight) == n - 1, f"ray {r} is not extreme")
    if complete:
        require(bool(rays), "a certified chamber without rays")
    if bound is None or n > 3:
        return
    roots = classes_in_box(gram, ample, -2, 1, bound)
    root_set = set(roots)
    if roots:
        require(bool(walls), f"no wall reported, but {roots[0]} is a root")
    for d in walls:
        require(d in root_set, f"wall {d} is not a root of degree <= {bound}")
    for d, w in points.items():
        for e in roots:
            if e != d:
                require(pairing(gram, w, e) > 0, f"witness {w} of {d} is tight on root {e}")
    if complete:
        if n == 3:
            require(len(rays) == len(walls), "a 3-dimensional cone with #rays != #facets")
        for e in roots:
            if e not in points:
                require(all(pairing(gram, r, e) >= 0 for r in rays),
                        f"root {e} cuts the reported cone but is not a wall")


# ---------------------------------------------------------------- walks


def replay(gram, x, reflections=(), generators=(), word=()):
    """Apply the reflections, then the generator word, with plain matrices."""
    y = tuple(x)
    points = []
    for d in reflections:
        require(norm(gram, d) == -2, f"reflection in {d}, which is not a root")
        y = mat_vec(reflection(gram, d), y)
        points.append(y)
    for idx in word:
        y = mat_vec(generators[idx], y)
    return y, points


def check_walk(gram, ample, x, endpoint, word, walls=None):
    y, path = replay(gram, x, word)
    require(y == tuple(endpoint), f"replaying the word gives {y}, not {endpoint}")
    require(norm(gram, y) == norm(gram, x), "the walk changed the norm")
    degree = pairing(gram, x, ample)
    for z in path:
        dz = pairing(gram, z, ample)
        require(dz <= degree, "a reflection raised the degree")
        degree = dz
    require(len(word) <= pairing(gram, x, ample), "more steps than the degree")
    if walls is not None:
        for d in walls:
            require(pairing(gram, y, d) >= 0, f"endpoint {y} pairs negatively with wall {d}")


def check_nef_test(gram, ample, x, verdict: bool, walls):
    expected = all(pairing(gram, x, d) >= 0 for d in walls)
    require(verdict == expected, f"nef_test({x}) = {verdict}, the walls say {expected}")


def check_separating(gram, ample, x, roots, walls=None):
    require(list(roots) == sorted(set(roots)), "separating roots not sorted and distinct")
    for d in roots:
        require(norm(gram, d) == -2, f"{d} is not a root")
        require(pairing(gram, d, ample) > 0 > pairing(gram, d, x), f"{d} does not separate")
    if walls is not None:
        inside = all(pairing(gram, x, d) >= 0 for d in walls)
        require(inside == (not roots), "separating roots disagree with the walls")


def check_reduction(gram, ample, generators, normals, x, point, reflections, word):
    y, _ = replay(gram, x, reflections, generators, word)
    require(y == tuple(point), f"replaying the words gives {y}, not {point}")
    require(norm(gram, y) == norm(gram, x), "the reduction changed the norm")
    for nv in normals:
        require(pairing(gram, y, nv) >= 0, f"reduced point {y} violates {nv}")


# ---------------------------------------------------------------- domains


def word_orbit_components(gram, ample, moves, nodes):
    """Connected components of ``nodes`` under the moves (integer matrices).

    A move is followed only when it lands in ``nodes``, so this is a
    breadth-first search over generator words restricted to the node set.
    """
    nodes = set(nodes)
    seen = set()
    components = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for m in moves:
                    w = mat_vec(m, v)
                    if w in nodes and w not in comp:
                        comp.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= comp
        components.append(comp)
    return components


def check_orbit_table(gram, ample, generators, walls, kind, value, bound, entries, normals):
    """Orbit table against a BFS over generator and wall-reflection words.

    ``entries`` is a list of (representative, members).  The members must
    partition the classes the table classifies, each reduced representative
    of an elliptic or genus table must lie in the domain, and the number of orbits must equal the number of
    components found here.
    """
    moves = [tuple(map(tuple, g)) for g in generators]
    if kind == "nodal":
        nodes = set(walls)
    else:
        moves += [reflection(gram, d) for d in walls]
        found = classes_in_box(gram, ample, value, 1, bound)
        if kind == "elliptic":
            found = [v for v in found if _gcd(v) == 1]
        nodes = set(found)
    members = [m for _, ms in entries for m in ms]
    require(len(members) == len(set(members)), "a class sits in two orbits")
    require(set(members) == nodes, f"{kind} table members differ from the scanned classes")
    if kind != "nodal":
        for rep, _ in entries:
            require(all(pairing(gram, rep, nv) >= 0 for nv in normals),
                    f"representative {rep} lies outside the domain")
    components = word_orbit_components(gram, ample, moves, nodes)
    require(len(entries) == len(components),
            f"{kind} table has {len(entries)} orbits, the word search finds {len(components)}")


def _gcd(v):
    g = 0
    for c in v:
        g = gcd(g, c)
    return g


def check_domain(gram, ample, generators, normals, rays, cuts):
    """Sterk domain: H interior, rays inside, each cut from a replayed orbit point."""
    for nv in normals:
        require(pairing(gram, ample, nv) > 0, f"the ample class is not interior to {nv}")
        for r in rays:
            require(pairing(gram, r, nv) >= 0, f"domain ray {r} violates {nv}")
    for normal, point, word in cuts:
        y, _ = replay(gram, ample, (), generators, word)
        require(y == tuple(point), f"cut word {word} does not reach {point}")
        diff = tuple(a - b for a, b in zip(point, ample))
        g = _gcd(diff)
        require(tuple(c // g for c in diff) == tuple(normal), f"cut normal {normal} is not h - H")


# ---------------------------------------------------------------- cli


def decode(value):
    """Report integers are decimal strings; turn them back into ints."""
    if isinstance(value, str):
        return int(value) if value.lstrip("-").isdigit() else value
    if isinstance(value, list):
        return tuple(decode(v) for v in value)
    if isinstance(value, dict):
        return {k: decode(v) for k, v in value.items()}
    return value


def check_report(schema_validator, problem_bytes: bytes, report_text: str, code: int,
                 expected_code: int):
    require(code in (0, 2), f"exit code {code} is not a documented success code")
    require(code == expected_code, f"exit code {code}, expected {expected_code}")
    report = json.loads(report_text)
    errors = sorted(schema_validator.iter_errors(report), key=str)
    require(not errors, f"report violates the schema: {errors[:1]}")
    digest = "sha256:" + hashlib.sha256(problem_bytes).hexdigest()
    require(report["input_digest"] == digest, "input_digest is not the sha256 of the file")
    require(code == (0 if all(report["certificates"].values()) else 2),
            "exit code disagrees with the certificates")
    return report
