"""Shared fixtures: the three desk lattices, their groups/domains, and a
random even hyperbolic lattice generator for property tests."""

import random
from pathlib import Path

import pytest

from k3cone import (
    Lattice,
    build_group,
    enumeration,
    linalg,
    nef_walls,
    parse_problem,
    sterk_domain,
    validate_problem,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

GRAM_U = ((0, 1), (1, 0))
GRAM_P = ((4, 0), (0, -2))
GRAM_R = ((2, 7), (7, 2))
AMPLE_U = (2, 1)
AMPLE_P = (2, 1)
AMPLE_R = (1, 1)
GAMMA_P = ((3, -2), (4, -3))
G_R = ((0, -1), (1, 7))
SWAP = ((0, 1), (1, 0))
GENS = {"U": [], "P": [GAMMA_P], "R": [G_R, SWAP]}

# rank-2 lattices with their generators and the ample classes read at each:
# the desk lattices L_P and L_R, and diag(2,-6) with the Pell unit and a flip
RANK2_POOL = {
    "L_P": (GRAM_P, [GAMMA_P], [(2, 1), (3, 2), (3, 1), (4, 3), (5, 3), (4, 1), (5, 4), (7, 5)]),
    "L_R": (GRAM_R, [G_R, SWAP], [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (2, 5)]),
    "diag(2,-6)": (((2, 0), (0, -6)), [((2, 3), (1, 2)), ((1, 0), (0, -1))],
                   [(1, 0), (2, 0), (2, 1), (3, 1)]),
}


def gram_ua1(k):
    """The Gram matrix of U + A1^k, of rank k + 2."""
    n = k + 2
    return tuple(
        tuple(1 if {i, j} == {0, 1} else (-2 if i == j >= 2 else 0) for j in range(n))
        for i in range(n)
    )


def norm_degree(lat, ample, norm, degree):
    """All x with x.x == norm and x.H == degree, lex-sorted: one slice query."""
    return enumeration._slice_for(lat, tuple(ample)).query(norm, degree)


def separating_bound(lat, ample, x):
    """The package's degree bound for roots separating x from H."""
    return enumeration._degree_bound(lat.norm(ample), lat.pairing(ample, x), lat.norm(x))


def changed_basis(rng, gram, ample):
    """An isometric copy (P^T G P, P^-1 H) for a random unimodular P, and P^-1."""
    n = len(gram)
    p = linalg.identity(n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        step = tuple(
            tuple(int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n))
            for a in range(n)
        )
        p = linalg.mat_mul(p, step)
    gram = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), gram), p)
    inverse = linalg.invert_unimodular(p)
    return gram, linalg.mat_vec(inverse, ample), inverse


@pytest.fixture(scope="session")
def lu():
    return Lattice(GRAM_U), AMPLE_U


@pytest.fixture(scope="session")
def lp():
    return Lattice(GRAM_P), AMPLE_P


@pytest.fixture(scope="session")
def lr():
    return Lattice(GRAM_R), AMPLE_R


@pytest.fixture(scope="session")
def setups(lu, lp, lr):
    """name -> (lattice, ample, group, nef description, sterk domain)."""
    out = {}
    for name, (lat, ample) in (("U", lu), ("P", lp), ("R", lr)):
        nef = nef_walls(lat, ample)
        grp = build_group(lat, ample, GENS[name], nef)
        dom = sterk_domain(lat, ample, grp, nef)
        out[name] = (lat, ample, grp, nef, dom)
    return out


@pytest.fixture(scope="session")
def domain_pool(setups):
    """(name, H) -> (lattice, ample, group, nef description, sterk domain):
    ``setups`` under ("U", None) and so on, every pair of ``RANK2_POOL``, and
    the rank-3 cocompact fixture under ("r3_cocompact", None)."""
    out = {(name, None): setup for name, setup in setups.items()}
    for name, (gram, gens, amples) in RANK2_POOL.items():
        lat = Lattice(gram)
        for ample in amples:
            nef = nef_walls(lat, ample)
            grp = build_group(lat, ample, gens, nef)
            out[name, ample] = (lat, ample, grp, nef, sterk_domain(lat, ample, grp, nef))
    p = parse_problem((PROBLEMS / "r3_cocompact.json").read_text())
    dom = sterk_domain(p.lattice, p.ample, p.group, p.nef)
    out["r3_cocompact", None] = (p.lattice, p.ample, p.group, p.nef, dom)
    return out


@pytest.fixture
def problems_dir():
    return PROBLEMS


def random_even_hyperbolic(
    rng: random.Random, rank: int = 3, spread: int = 6, lattices: int = 100
):
    """A random even lattice of signature (1, rank-1) with a valid ample class.

    Rejection-samples symmetric integer matrices with even diagonal and
    entries in [-spread, spread], then searches a small box for an ample
    class of positive norm off every wall.  Raises once that search has
    failed on ``lattices`` valid lattices, so a defect that rejects every
    class fails instead of hanging; on working code a class turns up by the
    second lattice.
    """
    while True:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * rng.randint(-spread // 2, spread // 2)
            for j in range(i + 1, rank):
                gram[i][j] = gram[j][i] = rng.randint(-spread, spread)
        try:
            lat = Lattice(tuple(tuple(row) for row in gram))
        except Exception:
            continue
        candidates = []
        for _ in range(200):
            v = tuple(rng.randint(-4, 4) for _ in range(rank))
            if lat.norm(v) > 0:
                candidates.append(v)
        for v in sorted(set(candidates), key=lambda w: lat.norm(w)):
            try:
                return validate_problem(lat.gram, v)
            except Exception:
                continue
        lattices -= 1
        if not lattices:
            raise AssertionError("every ample class was rejected on every lattice drawn")
