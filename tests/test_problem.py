"""Problem-file parsing: located errors, digests, and lossless round trips."""

import hashlib
import json

import pytest

from k3cone import (
    AmpleOnWall,
    BadPrime,
    Bounds,
    GeneratorRejected,
    Lattice,
    OddLattice,
    ProblemFormatError,
    nef_walls,
    parse_problem,
    serialize_problem,
)

L_U_DIGEST = "sha256:818d6328995af6b1fe2a95186c1b733293eba492851ce9c40cd09ece0ab1eaec"


def load(problems_dir, name):
    return (problems_dir / name).read_text()


def make(**overrides):
    base = {"rank": 2, "gram": [[0, 1], [1, 0]], "ample": [2, 1]}
    base.update(overrides)
    return json.dumps(base)


# ---------------------------------------------------------------- fixtures parse


def test_fixture_files_parse(problems_dir):
    for name in ("l_u.json", "l_p.json", "l_r.json", "rank5_supersingular.json", "u_e8.json"):
        p = parse_problem(load(problems_dir, name))
        assert p.lattice.rank == len(p.ample)
        assert p.digest.startswith("sha256:")


def test_l_u_digest_is_stable(problems_dir):
    p = parse_problem(load(problems_dir, "l_u.json"))
    assert p.digest == L_U_DIGEST


def test_l_p_generators_become_a_group(problems_dir):
    p = parse_problem(load(problems_dir, "l_p.json"))
    assert p.generator_matrices == (((3, -2), (4, -3)),)
    assert p.group.matrices() == (((3, -2), (4, -3)),)


def test_rank5_supersingular_block(problems_dir):
    p = parse_problem(load(problems_dir, "rank5_supersingular.json"))
    assert p.supersingular.prime == 3
    assert p.supersingular.basis == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))


def test_round_trip_every_fixture(problems_dir):
    for name in ("l_u.json", "l_p.json", "l_r.json", "rank5_supersingular.json", "u_e8.json"):
        p = parse_problem(load(problems_dir, name))
        p2 = parse_problem(json.dumps(serialize_problem(p)))
        assert p2.lattice.gram == p.lattice.gram
        assert p2.ample == p.ample
        assert p2.generator_matrices == p.generator_matrices
        if p.supersingular is None:
            assert p2.supersingular is None
        else:
            assert p2.supersingular.prime == p.supersingular.prime
            assert p2.supersingular.basis == p.supersingular.basis
        assert p2.bounds == p.bounds


def test_serialized_integers_are_decimal_strings(problems_dir):
    p = parse_problem(load(problems_dir, "l_p.json"))
    s = serialize_problem(p)
    assert s["rank"] == "2"
    assert s["gram"] == [["4", "0"], ["0", "-2"]]
    assert s["ample"] == ["2", "1"]
    assert s["generators"] == [[["3", "-2"], ["4", "-3"]]]


# ---------------------------------------------------------------- input forms


def test_string_integers_accepted():
    p = parse_problem(make(gram=[["0", "1"], ["1", "0"]], ample=["2", "1"]))
    assert p.lattice.gram == ((0, 1), (1, 0))
    assert p.ample == (2, 1)


def test_flat_row_major_gram_accepted():
    p = parse_problem(make(gram=[0, 1, 1, 0]))
    assert p.lattice.gram == ((0, 1), (1, 0))


def test_booleans_are_not_integers():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(make(gram=[[0, True], [1, 0]]))
    assert exc.value.where == "gram[0][1]"


def test_bounds_block(monkeypatch):
    monkeypatch.delenv("K3CONE_CEILING", raising=False)  # the variable beats the file
    p = parse_problem(make(bounds={"ceiling": 3, "seed": -5}))
    assert p.bounds.ceiling == 3
    assert p.bounds.seed == -5  # seeds may be negative
    assert p.bounds.enumeration is None
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(make(bounds={"ceiling": -1}))
    assert exc.value.where == "bounds.ceiling"
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(make(bounds={"weird": 1}))
    assert exc.value.where == "bounds.weird"


# ---------------------------------------------------------------- the bounds table


def test_no_bounds_block_gives_the_table(monkeypatch):
    monkeypatch.delenv("K3CONE_CEILING", raising=False)
    p = parse_problem(make())
    assert p.bounds == Bounds()
    assert (p.bounds.ceiling, p.bounds.samples, p.bounds.word_length, p.bounds.seed) == (
        12, 200, 3, 0
    )


def test_ceiling_env_is_the_resolved_ceiling(monkeypatch):
    monkeypatch.setenv("K3CONE_CEILING", "2")
    p = parse_problem(make(bounds={"ceiling": 5, "samples": 7}))
    assert p.bounds == Bounds(ceiling=2, samples=7)
    assert parse_problem(json.dumps(serialize_problem(p))).bounds == p.bounds
    assert serialize_problem(p)["bounds"] == {
        "ceiling": "2", "samples": "7", "word_length": "3", "seed": "0"
    }


def test_nef_walls_none_means_the_default_ceiling(monkeypatch):
    """diag(2,-4,-6) at (3,1,1) never certifies, so the ceiling sets the bound."""
    lat, ample = Lattice(((2, 0, 0), (0, -4, 0), (0, 0, -6))), (3, 1, 1)
    monkeypatch.setattr(Bounds, "ceiling", 1)
    nef = nef_walls(lat, ample, None)
    assert nef == nef_walls(lat, ample, 1)
    assert not nef.complete and nef.certification_bound == 2 * 8 * 2


# ---------------------------------------------------------------- located failures


def test_json_syntax_error_located():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem("{bad")
    assert exc.value.where == "line 1 column 2"


def test_unknown_top_level_field_rejected():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(make(extra=1))
    assert exc.value.where == "extra"


def test_rank_mismatch_located():
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(json.dumps({"rank": 3, "gram": [[0, 1], [1, 0]], "ample": [2, 1]}))
    assert exc.value.where == "gram"


def test_geometry_errors_carry_location():
    with pytest.raises(OddLattice) as exc:
        parse_problem(make(gram=[[1, 0], [0, -2]], ample=[1, 1]))
    assert exc.value.where == "gram/ample"
    with pytest.raises(AmpleOnWall) as exc:
        parse_problem(make(ample=[1, 1]))
    assert exc.value.where == "gram/ample"


def test_bad_generator_located():
    with pytest.raises(GeneratorRejected) as exc:
        parse_problem(make(generators=[[[1, 1], [0, 1]]]))
    assert exc.value.where == "generators[0]"


def test_bad_prime_located():
    with pytest.raises(BadPrime) as exc:
        parse_problem(make(supersingular={"p": 4, "k_basis": [[1, 1]]}))
    assert exc.value.where == "supersingular"


def test_digest_tracks_exact_text(problems_dir):
    raw = load(problems_dir, "l_u.json")
    assert parse_problem(raw).digest == parse_problem(raw).digest
    assert parse_problem(raw + "\n").digest != parse_problem(raw).digest
    assert parse_problem(raw).digest == "sha256:" + hashlib.sha256(raw.encode()).hexdigest()
