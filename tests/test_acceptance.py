"""Acceptance gate: nine exact, property-based criteria over the desk fixtures.

Each test prints a single [PASS]/[FAIL] line (visible through pytest's capture)
and enforces its stated runtime budget.  All comparisons are exact equality --
every value in sight is an integer or a tuple of integers.
"""

import json
import random
import time

import jsonschema

import oracles as O
from k3cone import (
    Lattice,
    build_group,
    elliptic_orbits,
    filter_preserving_K,
    genus_orbits,
    isotropics_up_to_degree,
    nef_test,
    nef_walls,
    nodal_orbits,
    parse_problem,
    preserves_K,
    report_schema,
    roots_up_to_degree,
    serialize_problem,
    sterk_domain,
    SupersingularDatum,
    verify_fundamental,
    walk_to_nef,
)
from k3cone import linalg
from k3cone.cli import main as cli_main

from conftest import (
    AMPLE_P,
    AMPLE_R,
    AMPLE_U,
    GAMMA_P,
    GRAM_P,
    GRAM_R,
    GRAM_U,
    G_R,
    PROBLEMS,
    SWAP,
    norm_degree,
    random_even_hyperbolic,
)

FIXTURES = [("L_U", GRAM_U, AMPLE_U), ("L_P", GRAM_P, AMPLE_P), ("L_R", GRAM_R, AMPLE_R)]


def announce(capsys, number, title, ok, elapsed=None):
    stamp = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"[{stamp}] criterion {number}: {title}{timing}")
    assert ok, f"criterion {number} failed: {title}"


# ------------------------------------------------------------------ 1. algebra laws


def test_criterion_1_algebra_laws(capsys):
    start = time.monotonic()
    rng = random.Random(1001)
    ok = True
    for name, gram, ample in FIXTURES:
        lat = Lattice(gram)
        roots = list(roots_up_to_degree(lat, ample, 4 * lat.norm(ample)))
        # a reflection's columns are the images of the basis vectors
        basis = ((1, 0), (0, 1))
        mats = [tuple(zip(*[O.reflect_word(gram, (d,), e) for e in basis])) for d in roots[:4]]
        mats += [GAMMA_P] if name == "L_P" else [G_R, SWAP] if name == "L_R" else []
        inverses = [linalg.invert_unimodular(g) for g in mats]
        checks = 0
        while checks < 1000:
            x = tuple(rng.randint(-20, 20) for _ in range(2))
            y = tuple(rng.randint(-20, 20) for _ in range(2))
            # reflection involution + pairing preservation
            for d in roots[:4]:
                sx = tuple(x[i] + lat.pairing(x, d) * d[i] for i in range(2))
                ssx = tuple(sx[i] + lat.pairing(sx, d) * d[i] for i in range(2))
                ok = ok and ssx == x
                ok = ok and lat.pairing(sx, sx) == lat.pairing(x, x)
            # isometry laws on plain matrices: the product g h applies h
            # first, and inverses cancel
            for g, g_inv in zip(mats, inverses):
                gx = linalg.mat_vec(g, x)
                ok = ok and lat.pairing(gx, linalg.mat_vec(g, y)) == lat.pairing(x, y)
                ok = ok and linalg.mat_vec(g_inv, gx) == x
                for h in mats[:2]:
                    gh_x = linalg.mat_vec(linalg.mat_mul(g, h), x)
                    ok = ok and gh_x == linalg.mat_vec(g, linalg.mat_vec(h, x))
            checks += 1
        if not ok:
            break
    elapsed = time.monotonic() - start
    announce(capsys, 1, "algebra laws (1000 randomized checks per fixture)", ok and elapsed < 5, elapsed)


# ------------------------------------------------------------------ 2. oracle equivalence


def in_box(vectors, box=30):
    return sorted(v for v in vectors if max(abs(c) for c in v) <= box)


def _enumeration_matches_oracle(lat, ample, box=30):
    gram = lat.gram
    norms = [-4, -2, 0, 2, 4]
    degrees = list(range(1, 21))
    table = O.box_by_norm_degree(gram, ample, box, norms, degrees)
    for n in norms:
        for d in degrees:
            if in_box(norm_degree(lat, ample, n, d), box) != table[(n, d)]:
                return False
    if in_box(roots_up_to_degree(lat, ample, 20), box) != O.box_roots(gram, ample, box, 20):
        return False
    if in_box(isotropics_up_to_degree(lat, ample, 20), box) != O.box_isotropics(gram, ample, box, 20):
        return False
    return True


def test_criterion_2_enumeration_oracle(capsys):
    start = time.monotonic()
    rng = random.Random(2002)
    ok = all(_enumeration_matches_oracle(Lattice(g), a) for _, g, a in FIXTURES)
    built = 0
    while ok and built < 20:
        got = random_even_hyperbolic(rng)
        if got is None:
            continue
        lat, ample = got
        built += 1
        ok = ok and _enumeration_matches_oracle(lat, ample)
    elapsed = time.monotonic() - start
    announce(
        capsys,
        2,
        "enumeration equals box oracle on fixtures + 20 random rank-3 lattices",
        ok and elapsed < 120,
        elapsed,
    )


# ------------------------------------------------------------------ 3. nef walls


def test_criterion_3_nef_walls(capsys, setups):
    ok = (
        setups["P"][3].walls == ((0, -1), (2, 3))
        and setups["P"][3].rays == ((1, 0), (3, 4))
        and setups["U"][3].walls == ((-1, 1),)
        and setups["U"][3].rays == ((1, 0), (1, 1))
        and setups["R"][3].walls == ()
        and setups["R"][3].complete is False
    )
    announce(capsys, 3, "nef walls exact on L_U / L_P, non-polyhedral on L_R", ok)


# ------------------------------------------------------------------ 4. walk contract


def test_criterion_4_walk_contract(capsys):
    start = time.monotonic()
    rng = random.Random(4004)
    ok = True
    for name, gram, ample in FIXTURES:
        lat = Lattice(gram)
        done = 0
        while done < 500:
            x = tuple(rng.randint(-25, 25) for _ in range(2))
            if lat.norm(x) < 0 or lat.pairing(ample, x) <= 0:
                continue
            done += 1
            end, word = walk_to_nef(lat, ample, x)
            ok = ok and nef_test(lat, ample, end)
            ok = ok and O.reflect_word(gram, word, x) == end
            y, prev = x, lat.pairing(ample, x)
            for delta in word:
                y = tuple(y[i] + lat.pairing(y, delta) * delta[i] for i in range(2))
                deg = lat.pairing(ample, y)
                ok = ok and deg < prev
                prev = deg
            ok = ok and y == end
            if not ok:
                break
    elapsed = time.monotonic() - start
    announce(capsys, 4, "walk contract on 500 random points per fixture", ok, elapsed)


# ------------------------------------------------------------------ 5. Sterk domains


def test_criterion_5_sterk_domains(capsys, setups):
    start = time.monotonic()
    expected = {"U": ((1, 0), (1, 1)), "P": ((1, 0), (1, 1)), "R": ((0, 1), (1, 0))}
    ok = all(setups[k][4].rays == expected[k] and setups[k][4].saturated for k in expected)
    elapsed = time.monotonic() - start
    announce(capsys, 5, "Sterk domain ray sets exact and saturated", ok and elapsed < 30, elapsed)


# ------------------------------------------------------------------ 6. fundamentality


def test_criterion_6_fundamentality(capsys, setups):
    ok = True
    for name in ("U", "P", "R"):
        lat, ample, grp, nef, dom = setups[name]
        cert = verify_fundamental(lat, ample, grp, dom, nef, samples=200, word_length=3, seed=0)
        ok = ok and cert.coverage_ok and cert.coverage_failures == ()
        ok = ok and cert.tiling_ok and cert.tiling_overlaps == ()
        ok = ok and cert.rays_nef and cert.ok
    announce(capsys, 6, "exact coverage and word<=3 tiling certificates", ok)


# ------------------------------------------------------------------ 7. orbit tables


def test_criterion_7_orbit_tables(capsys, setups):
    start = time.monotonic()
    nodal = tuple(len(nodal_orbits(*setups[k]).entries) for k in ("U", "P", "R"))
    elliptic = tuple(
        len(elliptic_orbits(setups[k][0], setups[k][1], setups[k][2], setups[k][4]).entries)
        for k in ("U", "P", "R")
    )
    genus2 = tuple(len(genus_orbits(*setups[k], 2).entries) for k in ("U", "P", "R"))
    ok = nodal == (1, 1, 0) and elliptic == (1, 0, 0) and genus2 == (1, 1, 1)
    # stability under one bound doubling: representative sets must not change
    for k in ("U", "P", "R"):
        lat, ample, grp, nef, dom = setups[k]
        base = genus_orbits(lat, ample, grp, nef, dom, 2)
        doubled = genus_orbits(lat, ample, grp, nef, dom, 2, bound=2 * base.search_bound)
        ok = ok and base.representatives == doubled.representatives
        ell = elliptic_orbits(lat, ample, grp, dom)
        ell2 = elliptic_orbits(lat, ample, grp, dom, bound=2 * ell.search_bound)
        ok = ok and ell.representatives == ell2.representatives
        ok = ok and base.stable and ell.stable
    elapsed = time.monotonic() - start
    announce(
        capsys,
        7,
        "orbit counts (1,1,0)/(1,0,0)/(1,1,1), stable under doubling",
        ok and elapsed < 60,
        elapsed,
    )


# ------------------------------------------------------------------ 8. supersingular filter


def test_criterion_8_supersingular_filter(capsys, setups):
    lat, ample, grp, nef, dom = setups["R"]
    identity = ((1, 0), (0, 1))
    rng = random.Random(8008)
    ok = True
    for p in (3, 5, 7, 11):
        for _ in range(10):
            basis = (tuple(rng.randint(0, p - 1) for _ in range(2)),)
            if all(c == 0 for c in basis[0]):
                continue
            datum = SupersingularDatum(p, basis)
            ok = ok and preserves_K(lat, datum, identity)
    # closure of the passing set under composition and inversion
    datum = SupersingularDatum(3, ((1, 1),))
    kept = filter_preserving_K(lat, grp, datum)
    ok = ok and len(kept) == 3  # documented L_R / p = 3 example
    for g in kept:
        ok = ok and preserves_K(lat, datum, linalg.invert_unimodular(g))
        for h in kept:
            ok = ok and preserves_K(lat, datum, linalg.mat_mul(g, h))
    ok = ok and filter_preserving_K(lat, grp, SupersingularDatum(3, ((1, 0),))) == ()
    announce(capsys, 8, "supersingular filter laws and documented examples", ok)


# ------------------------------------------------------------------ 9. CLI contract


def test_criterion_9_cli(capsys, tmp_path):
    l_u, l_p, l_r = (str(PROBLEMS / f) for f in ("l_u.json", "l_p.json", "l_r.json"))
    rank5 = str(PROBLEMS / "rank5_supersingular.json")
    schema = report_schema()
    ok = True

    def cli(expect, *argv):
        nonlocal ok
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        report = json.loads(out)
        jsonschema.validate(report, schema)
        ok = ok and code == expect
        failed = [k for k, v in report["certificates"].items() if v is not True]
        ok = ok and (code == 2) == bool(failed)

    for fixture in (l_u, l_p, l_r):
        cli(0, "validate", fixture)
        cli(0, "roots", fixture)
        cli(0 if fixture != l_r else 2, "walls", fixture)
        cli(0, "walk", fixture, "--class=3,1")
        cli(0, "nef-test", fixture, "--class=3,1")
        cli(0, "sterk", fixture)
        cli(0, "reduce", fixture, "--class=3,1")
        cli(0, "orbits", fixture, "--kind", "nodal")
        cli(0, "orbits", fixture, "--kind", "elliptic")
        cli(0, "orbits", fixture, "--kind", "genus", "--genus", "2")
        cli(0 if fixture == l_u else 2, "isotropic", fixture, "--bound", "25")
    cli(0, "validate", rank5)
    cli(0, "filter-k", rank5)
    cli(0, "filter-k", l_r)

    # parse round trips are lossless for every fixture file
    for fixture in (l_u, l_p, l_r, rank5):
        with open(fixture) as fh:
            p = parse_problem(fh.read())
        p2 = parse_problem(json.dumps(serialize_problem(p)))
        ok = ok and p2.lattice.gram == p.lattice.gram and p2.ample == p.ample
        ok = ok and p2.generator_matrices == p.generator_matrices
    announce(capsys, 9, "CLI reports schema-valid, exit codes honored, round trips lossless", ok)
