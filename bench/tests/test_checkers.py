"""Each checker accepts a genuine k3cone output and rejects a corrupted one.

Run with: python3 -m pytest bench/tests -q
"""

import json

import jsonschema
import pytest

import checkers as ck
import workloads as wl
from k3cone import (
    Lattice,
    build_group,
    elliptic_orbits,
    genus_orbits,
    nef_test,
    nef_walls,
    nodal_orbits,
    reduce_to_domain,
    separating_roots,
    sterk_domain,
    walk_to_nef,
)
from k3cone.cli import main

L_P = ((4, 0), (0, -2))
H_P = (2, 1)
GAMMA_P = ((3, -2), (4, -3))
UA1 = wl.ua(1)
H_UA1 = (4, 3, 1)


def rejects(fn, *args):
    with pytest.raises(ck.CheckFailure):
        fn(*args)


@pytest.fixture(scope="module")
def lp():
    lat = Lattice(L_P)
    nef = nef_walls(lat, H_P)
    group = build_group(lat, H_P, [GAMMA_P], nef)
    domain = sterk_domain(lat, H_P, group, nef)
    return lat, nef, group, domain


def test_box_scan_finds_the_known_roots():
    assert ck.classes_in_box(L_P, H_P, -2, 1, 25) == [(0, -1), (2, -3), (2, 3)]


def test_chamber_certified():
    nef = nef_walls(Lattice(UA1), H_UA1)
    bound = nef.certification_bound
    ck.check_chamber(UA1, H_UA1, nef.walls, nef.rays, nef.witnesses, True, bound, True)
    dropped = nef.walls[1:]
    witnesses = [(w, p) for w, p in nef.witnesses if w in dropped]
    rejects(ck.check_chamber, UA1, H_UA1, dropped, nef.rays, witnesses, True, bound, True)
    negated = (tuple(-c for c in nef.walls[0]),) + nef.walls[1:]
    rejects(ck.check_chamber, UA1, H_UA1, negated, nef.rays, nef.witnesses, True, bound, True)
    moved = [(nef.witnesses[0][0], H_UA1)] + list(nef.witnesses[1:])
    rejects(ck.check_chamber, UA1, H_UA1, nef.walls, nef.rays, moved, True, bound, True)
    rays = nef.rays[:-1] + (tuple(-c for c in nef.rays[-1]),)
    rejects(ck.check_chamber, UA1, H_UA1, nef.walls, rays, nef.witnesses, True, bound, True)
    # a partial answer, or the empty "round chamber" one, where a certified one is due
    rejects(ck.check_chamber, UA1, H_UA1, nef.walls, nef.rays, nef.witnesses, False, bound, True)
    rejects(ck.check_chamber, UA1, H_UA1, (), (), (), False, bound, True)


def test_chamber_partial():
    gram, ample = wl.diag(2, -4, -6), (3, 1, 1)
    nef = nef_walls(Lattice(gram), ample, 1)
    assert not nef.complete
    bound = nef.certification_bound
    ck.check_chamber(gram, ample, nef.walls, nef.rays, nef.witnesses, False, bound, False)
    wall, point = nef.witnesses[0]
    off = tuple(2 * c for c in point)
    bent = [(wall, tuple(a + b for a, b in zip(off, wall)))] + list(nef.witnesses[1:])
    rejects(ck.check_chamber, gram, ample, nef.walls, (), bent, False, bound, False)
    rejects(ck.check_chamber, gram, ample, nef.walls, nef.rays, nef.witnesses, True, bound, False)
    rejects(ck.check_chamber, gram, ample, (), (), (), False, bound, False)


def test_chamber_round():
    gram, ample = wl.diag(2, -6), (2, 1)
    nef = nef_walls(Lattice(gram), ample)
    assert not nef.walls
    ck.check_chamber(gram, ample, (), nef.rays, (), False, nef.certification_bound, False)
    rejects(ck.check_chamber, gram, ample, (), nef.rays, (), True, nef.certification_bound, False)


def test_walk():
    x = (10, 14)
    endpoint, word = walk_to_nef(Lattice(L_P), H_P, x)
    assert word
    walls = nef_walls(Lattice(L_P), H_P).walls
    ck.check_walk(L_P, H_P, x, endpoint, word, walls)
    rejects(ck.check_walk, L_P, H_P, x, tuple(c + 1 for c in endpoint), word, walls)
    rejects(ck.check_walk, L_P, H_P, x, endpoint, word[1:], walls)
    rejects(ck.check_walk, L_P, H_P, x, x, (), walls)


def test_nef_test_and_separating_roots(lp):
    lat, nef, _, _ = lp
    for x in ((10, 14), (3, 1)):
        verdict = nef_test(lat, H_P, x)
        ck.check_nef_test(L_P, H_P, x, verdict, nef.walls)
        rejects(ck.check_nef_test, L_P, H_P, x, not verdict, nef.walls)
    x = (10, 14)
    roots = separating_roots(lat, H_P, x)
    ck.check_separating(L_P, H_P, x, roots, nef.walls)
    rejects(ck.check_separating, L_P, H_P, x, (), nef.walls)
    rejects(ck.check_separating, L_P, H_P, x, tuple(sorted(roots + ((0, -1),))), nef.walls)


def test_reduction(lp):
    lat, _, group, domain = lp
    x = (7, 9)
    point, reflections, word = reduce_to_domain(lat, H_P, group, domain, x)
    normals = domain.cone.normals
    gens = group.matrices()
    ck.check_reduction(L_P, H_P, gens, normals, x, point, reflections, word)
    rejects(ck.check_reduction, L_P, H_P, gens, normals, x, point, reflections, word + (0,))
    rejects(ck.check_reduction, L_P, H_P, gens, normals, x, x, (), ())


def test_domain(lp):
    _, _, group, domain = lp
    cuts = [(c.normal, c.orbit_point, c.word) for c in domain.cuts]
    gens = group.matrices()
    ck.check_domain(L_P, H_P, gens, domain.cone.normals, domain.cone.rays, cuts)
    normal, point, word = cuts[0]
    bad = [(normal, tuple(c + 1 for c in point), word)] + cuts[1:]
    rejects(ck.check_domain, L_P, H_P, gens, domain.cone.normals, domain.cone.rays, bad)


def test_orbit_tables(lp):
    lat, nef, group, domain = lp
    gens = group.matrices()
    normals = domain.cone.normals
    nodal = nodal_orbits(lat, H_P, group, nef, domain)
    entries = [(e.representative, e.members) for e in nodal.entries]
    ck.check_orbit_table(L_P, H_P, gens, nef.walls, "nodal", -2, None, entries, normals)
    split = [(m, (m,)) for _, ms in entries for m in ms]
    rejects(ck.check_orbit_table, L_P, H_P, gens, nef.walls, "nodal", -2, None, split, normals)
    table = genus_orbits(lat, H_P, group, nef, domain, 2, 60)
    entries = [(e.representative, e.members) for e in table.entries]
    assert entries
    ck.check_orbit_table(L_P, H_P, gens, nef.walls, "genus", 2, 60, entries, normals)
    rep, members = entries[0]
    rejects(ck.check_orbit_table, L_P, H_P, gens, nef.walls, "genus", 2, 60,
            [(rep, members[1:])] + entries[1:], normals)
    merged = [(entries[0][0], tuple(m for _, ms in entries for m in ms))]
    if len(entries) > 1:
        rejects(ck.check_orbit_table, L_P, H_P, gens, nef.walls, "genus", 2, 60, merged, normals)
    table = elliptic_orbits(lat, H_P, group, domain, 60)
    entries = [(e.representative, e.members) for e in table.entries]
    ck.check_orbit_table(L_P, H_P, gens, nef.walls, "elliptic", 0, 60, entries, normals)


def test_report(capsys, tmp_path):
    raw = (wl.PROBLEMS / "l_p.json").read_bytes()
    path = tmp_path / "l_p.json"
    path.write_bytes(raw)
    code = main(["walls", str(path)])
    out = capsys.readouterr().out
    validator = jsonschema.Draft7Validator(json.loads(wl.SCHEMA.read_text()))
    ck.check_report(validator, raw, out, code, 0)
    rejects(ck.check_report, validator, raw + b" ", out, code, 0)
    rejects(ck.check_report, validator, raw, out, 1, 1)
    rejects(ck.check_report, validator, raw, out, 2, 2)
    rejects(ck.check_report, validator, raw, out, code, 2)
    broken = json.loads(out)
    del broken["warnings"]
    rejects(ck.check_report, validator, raw, json.dumps(broken), code, 0)
