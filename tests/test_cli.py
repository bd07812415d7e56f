"""End-to-end CLI behavior: subcommands, exit codes, schema validity, env overrides.

All invocations go through main(argv) in-process; stdout carries exactly one
JSON report on success and stderr one JSON error object on failure.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jsonschema

import k3cone
from k3cone import SCHEMA_VERSION, report_schema, weyl
from k3cone.cli import main

from conftest import PROBLEMS

L_U = str(PROBLEMS / "l_u.json")
L_P = str(PROBLEMS / "l_p.json")
L_R = str(PROBLEMS / "l_r.json")
RANK5 = str(PROBLEMS / "rank5_supersingular.json")
# diag(2, -4, -6) at (3, 1, 1), whose chamber does not certify at the default
# ceiling, with the trace-5 chamber isometry as its generator
L_N = str(Path(__file__).resolve().parent / "fixtures" / "l_n.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    error = json.loads(captured.err) if captured.err.strip() else None
    return code, report, error


def run_valid(capsys, *argv):
    code, report, error = run(capsys, *argv)
    assert error is None
    jsonschema.validate(report, report_schema())
    return code, report


# ---------------------------------------------------------------- happy paths


def test_validate(capsys):
    code, rep = run_valid(capsys, "validate", L_U)
    assert code == 0
    assert rep["command"] == "validate"
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["results"]["rank"] == "2"
    assert rep["results"]["ample_norm"] == "4"
    assert rep["input_digest"].startswith("sha256:")


def test_roots(capsys):
    code, rep = run_valid(capsys, "roots", L_P, "--bound", "25")
    assert code == 0
    assert rep["results"]["roots"] == [["0", "-1"], ["2", "-3"], ["2", "3"]]
    assert rep["results"]["count"] == "3"
    assert rep["certificates"] == {"complete": True}


def test_walls_polyhedral(capsys):
    code, rep = run_valid(capsys, "walls", L_P)
    assert code == 0
    assert rep["results"]["walls"] == [["0", "-1"], ["2", "3"]]
    assert rep["results"]["cone"]["rays"] == [["1", "0"], ["3", "4"]]
    assert rep["certificates"] == {"complete": True, "stable": True}


def test_walls_round_chamber_exits_2(capsys):
    """L_R has no walls; completeness is honest-but-uncertified, hence exit 2."""
    code, rep, _ = run(capsys, "walls", L_R)
    assert code == 2
    jsonschema.validate(rep, report_schema())
    assert rep["results"]["walls"] == []
    assert rep["results"]["polyhedral"] is False
    assert rep["certificates"]["complete"] is False
    assert rep["certificates"]["stable"] is True
    assert any("round" in w for w in rep["warnings"])
    assert not any("bound-limited" in w for w in rep["warnings"])


def test_walls_ceiling_limited_warns_bound_limited(monkeypatch, tmp_path, capsys):
    """A partial wall list is bound-limited, not round: diag(2,-4,-6) has
    walls at ceiling 1 but does not certify there."""
    prob = tmp_path / "partial.json"
    prob.write_text(json.dumps({
        "rank": 3,
        "gram": [[2, 0, 0], [0, -4, 0], [0, 0, -6]],
        "ample": [3, 1, 1],
    }))
    monkeypatch.setenv("K3CONE_CEILING", "1")
    code, rep = run_valid(capsys, "walls", str(prob))
    assert code == 2
    assert rep["results"]["walls"] and rep["results"]["polyhedral"] is False
    assert rep["certificates"]["complete"] is False
    assert any("bound-limited" in w for w in rep["warnings"])
    assert not any("round" in w for w in rep["warnings"])


def test_walk(capsys):
    code, rep = run_valid(capsys, "walk", L_P, "--class=8,11")
    assert code == 0
    assert rep["results"]["endpoint"] == ["4", "5"]
    assert rep["results"]["reflections"] == [["2", "3"]]
    assert rep["results"]["steps"] == "1"


def test_class_option_accepts_negative_coordinates(capsys):
    # the --class=-1,7 form keeps argparse from eating the leading dash
    code, rep = run_valid(capsys, "walk", L_R, "--class=-1,8")
    assert code == 0
    assert rep["results"]["endpoint"] == ["-1", "8"]
    assert rep["results"]["steps"] == "0"


def test_nef_test(capsys):
    code, rep = run_valid(capsys, "nef-test", L_P, "--class=2,1")
    assert code == 0
    assert rep["results"]["nef"] is True
    code, rep = run_valid(capsys, "nef-test", L_P, "--class=8,11")
    assert code == 0  # a definite "no" is still a successful query
    assert rep["results"]["nef"] is False
    assert rep["results"]["separating_roots"] == [["2", "3"]]


def test_sterk(capsys):
    code, rep = run_valid(capsys, "sterk", L_R)
    assert code == 0
    dom = rep["results"]["domain"]
    assert dom["rays"] == [["0", "1"], ["1", "0"]]
    assert [c["normal"] for c in dom["inequalities"]] == [["-2", "7"], ["7", "-2"]]
    assert rep["certificates"] == {
        "coverage": True,
        "rays_nef": True,
        "saturated": True,
        "tiling": True,
    }
    fund = rep["results"]["fundamental"]
    assert fund["stabilizer_words"] == [["1"]]  # the swap fixes the domain


def test_sterk_seed_flag_echoed(capsys):
    code, rep = run_valid(capsys, "sterk", L_P, "--seed", "7")
    assert code == 0
    assert rep["results"]["fundamental"]["seed"] == "7"


def test_sterk_echoes_zero_valued_bounds(tmp_path, capsys):
    data = json.loads((PROBLEMS / "l_p.json").read_text())
    data["bounds"] = {"samples": 0, "word_length": 0}
    prob = tmp_path / "zero.json"
    prob.write_text(json.dumps(data))
    code, rep = run_valid(capsys, "sterk", str(prob))
    assert code == 0
    assert rep["results"]["fundamental"]["samples"] == "0"
    assert rep["results"]["fundamental"]["word_length"] == "0"


def test_seed_flag_only_on_sterk():
    assert main(["walls", L_P, "--seed", "7"]) == 1  # argparse rejects the unknown flag


def test_reduce(capsys):
    code, rep = run_valid(capsys, "reduce", L_P, "--class=8,11")
    assert code == 0
    assert rep["results"]["endpoint"] == ["2", "1"]
    assert rep["results"]["reflections"] == [["2", "3"]]
    assert rep["results"]["word"] == ["0"]
    assert rep["certificates"] == {"in_domain": True, "saturated": True}


CEILING_WARNING = "the orbit bound hit the doubling ceiling before the domain stabilized"
EMPTY_TABLE = {"count": "0", "search_bound": None, "orbits": []}


@pytest.fixture
def l_r_bare(tmp_path):
    """L_R without generators: the round chamber never gives a domain."""
    prob = tmp_path / "r.json"
    prob.write_text(json.dumps({"rank": 2, "gram": [[2, 7], [7, 2]], "ample": [1, 1]}))
    return str(prob)


def test_reduce_without_a_domain_exits_2(l_r_bare, capsys):
    """With no generators the round L_R chamber never stabilizes a domain:
    reduce reports the chamber walk as bound-limited, as sterk does."""
    code, rep = run_valid(capsys, "reduce", l_r_bare, "--class=1,3")
    assert code == 2
    assert rep["results"]["endpoint"] == ["1", "3"]
    assert rep["results"]["word"] == []
    assert rep["certificates"] == {"in_domain": False, "saturated": False}
    assert rep["warnings"] == [CEILING_WARNING]


@pytest.fixture
def partial_domain(monkeypatch):
    """Make the CLI's domain search return L_P's partial domain.

    No small problem file exhausts the ceiling with a partial domain, so the
    partial is borrowed from a search at orbit bound 1 and ceiling 0.
    """
    from k3cone import cli

    p = k3cone.parse_problem((PROBLEMS / "l_p.json").read_text())
    partial = k3cone.sterk_domain(p.lattice, p.ample, p.group, p.nef, bound=1, ceiling=0)
    assert partial is not None and not partial.saturated
    monkeypatch.setattr(cli, "sterk_domain", lambda *args, **kwargs: partial)


def test_sterk_without_a_domain_exits_2(l_r_bare, capsys):
    code, rep = run_valid(capsys, "sterk", l_r_bare)
    assert code == 2
    assert rep["results"] == {"domain": None, "fundamental": None}
    assert rep["certificates"] == {"saturated": False}
    assert rep["warnings"] == [CEILING_WARNING]


def test_dot_without_a_domain_is_a_graph_with_no_nodes(tmp_path, capsys, l_r_bare):
    dot = tmp_path / "adj.dot"
    run_valid(capsys, "sterk", L_R, "--dot", str(dot))
    assert '"e"' in dot.read_text()
    code, rep = run_valid(capsys, "sterk", l_r_bare, "--dot", str(dot))
    assert code == 2
    assert rep["results"]["domain"] is None
    # written, over the earlier graph
    assert dot.read_text() == "graph chamber_adjacency {\n  node [shape=box];\n}\n"


def test_dot_without_a_domain_to_an_unwritable_path_is_an_input_error(
    tmp_path, capsys, l_r_bare
):
    target = tmp_path / "no_such_dir" / "adj.dot"
    code, rep, err = run(capsys, "sterk", l_r_bare, "--dot", str(target))
    assert code == 1
    assert rep is None
    assert err["type"] == "FileNotFoundError"


@pytest.mark.parametrize("kind", [("--kind", "nodal"), ("--kind", "genus", "--genus", "2")])
def test_orbits_without_a_domain_report_the_empty_table(l_r_bare, capsys, kind):
    code, rep = run_valid(capsys, "orbits", l_r_bare, *kind)
    assert code == 2
    assert {k: rep["results"][k] for k in EMPTY_TABLE} == EMPTY_TABLE
    assert rep["results"]["genus"] == (None if kind[1] == "nodal" else "2")
    assert rep["certificates"] == {"saturated": False, "stable": False}
    assert rep["warnings"] == [CEILING_WARNING]


@pytest.mark.parametrize("bare", [True, False], ids=["l_r_bare", "l_p"])
@pytest.mark.parametrize(
    "flag, message",
    [((), "--kind genus requires --genus"), (("--genus", "-1"), "genus must be non-negative")],
    ids=["missing", "negative"],
)
def test_orbits_genus_flag_is_checked_before_the_domain(request, capsys, bare, flag, message):
    """A bad --genus is a usage error whether or not the file has a domain."""
    path = request.getfixturevalue("l_r_bare") if bare else L_P
    code, rep, err = run(capsys, "orbits", path, "--kind", "genus", *flag)
    assert code == 1
    assert rep is None
    assert err["message"] == message


def test_sterk_reports_a_partial_domain(partial_domain, capsys):
    code, rep = run_valid(capsys, "sterk", L_P)
    assert code == 2
    dom = rep["results"]["domain"]
    assert dom["rays"] == [["1", "0"], ["3", "4"]]
    assert dom["orbit_bound"] == "1"
    assert rep["results"]["fundamental"]["seed"] == "0"
    assert rep["certificates"]["saturated"] is False
    assert rep["warnings"] == [CEILING_WARNING]


def test_orbits_on_a_partial_domain_report_the_empty_table(partial_domain, capsys):
    code, rep = run_valid(capsys, "orbits", L_P, "--kind", "nodal")
    assert code == 2
    assert {k: rep["results"][k] for k in EMPTY_TABLE} == EMPTY_TABLE
    assert rep["certificates"] == {"saturated": False, "stable": False}
    assert rep["warnings"] == [CEILING_WARNING]
    # genus keys the table, so genus 0 and 1 are the nodal and elliptic tables
    for genus, kind in (("0", "nodal"), ("1", "elliptic")):
        code, rep = run_valid(capsys, "orbits", L_P, "--kind", "genus", "--genus", genus)
        assert code == 2
        assert (rep["results"]["kind"], rep["results"]["genus"]) == (kind, None)


def test_orbits_nodal(capsys):
    code, rep = run_valid(capsys, "orbits", L_P, "--kind", "nodal")
    assert code == 0
    assert rep["results"]["kind"] == "nodal"
    assert rep["results"]["count"] == "1"
    assert rep["results"]["orbits"][0]["representative"] == ["0", "-1"]
    assert rep["results"]["orbits"][0]["members"] == [["0", "-1"], ["2", "3"]]


def test_orbits_genus(capsys):
    code, rep = run_valid(capsys, "orbits", L_R, "--kind", "genus", "--genus", "2")
    assert code == 0
    assert rep["results"]["genus"] == "2"
    assert rep["results"]["count"] == "1"
    assert rep["results"]["orbits"][0]["representative"] == ["0", "1"]


def test_orbits_genus_requires_genus_flag(capsys):
    code, rep, err = run(capsys, "orbits", L_P, "--kind", "genus")
    assert code == 1
    assert err is not None


# U+E8(-1)^2 is left out: its Sterk domain takes minutes to search
@pytest.mark.parametrize("path, bound", [
    (L_U, ()), (L_P, ()), (L_R, ()), (RANK5, ("--bound", "12")),
    (str(PROBLEMS / "u_e8.json"), ("--bound", "1")), (None, ()),
], ids=["l_u", "l_p", "l_r", "rank5", "u_e8", "l_r_bare"])
def test_genus_0_and_1_are_the_nodal_and_elliptic_tables(request, capsys, path, bound):
    """Genus keys the table, so ``--kind genus`` at genus 0 and 1 prints the
    nodal and elliptic reports byte for byte, with or without a domain."""
    path = path or request.getfixturevalue("l_r_bare")
    for genus, kind in (("0", "nodal"), ("1", "elliptic")):
        printed = []
        for flags in (("--kind", kind), ("--kind", "genus", "--genus", genus)):
            code = main(["orbits", path, *flags, *bound])
            printed.append((code, *capsys.readouterr()))
        assert printed[0][0] in (0, 2)
        assert printed[0] == printed[1]


def test_nodal_table_at_a_negative_bound_is_an_input_error(capsys):
    """A nodal table reads no bound, so only the flag's own check catches it."""
    code, rep, err = run(capsys, "orbits", L_P, "--kind", "nodal", "--bound", "-1")
    assert code == 1
    assert rep is None
    assert err["message"] == "--bound must be non-negative"


def test_unstable_orbit_table_exits_2(capsys):
    """At bound 3 L_P's genus-2 table is empty: its one orbit, that of
    (1, 1) at degree 6, first shows at the doubled bound."""
    code, rep = run_valid(capsys, "orbits", L_P, "--kind", "genus", "--genus", "2", "--bound", "3")
    assert code == 2
    assert rep["certificates"] == {"saturated": True, "stable": False}
    assert rep["warnings"] == ["orbit table changed under one bound doubling"]


@pytest.mark.parametrize("kind", [("elliptic",), ("genus", "--genus", "2")])
def test_orbit_table_at_bound_0_is_an_input_error(l_r_bare, capsys, kind):
    """A bound of 0 doubles to 0, so its empty table is not evidence of
    stability: rejected before the domain, so also where none exists."""
    for path in (L_U, l_r_bare):
        code, rep, err = run(capsys, "orbits", path, "--kind", *kind, "--bound", "0")
        assert code == 1, path
        assert rep is None
        assert (err["error"], err["type"]) == ("input", "UnboundedQuery")


@pytest.mark.parametrize("kind", [("nodal",), ("genus", "--genus", "0")])
def test_wall_tables_ignore_bound_0(capsys, kind):
    """Nodal tables are read from the chamber walls: no bound, no doubling."""
    code, rep = run_valid(capsys, "orbits", L_U, "--kind", *kind, "--bound", "0")
    assert code == 0
    assert rep["certificates"] == {"saturated": True, "stable": True}


def test_orbit_table_at_file_enumeration_bound_0_is_an_input_error(tmp_path, capsys):
    data = json.loads((PROBLEMS / "l_u.json").read_text())
    data["bounds"] = {"enumeration": 0}
    prob = tmp_path / "zero.json"
    prob.write_text(json.dumps(data))
    code, rep, err = run(capsys, "orbits", str(prob), "--kind", "elliptic")
    assert code == 1
    assert (err["error"], err["type"]) == ("input", "UnboundedQuery")
    # roots up to degree 0 is a complete, empty answer
    code, rep = run_valid(capsys, "roots", str(prob))
    assert code == 0
    assert (rep["results"]["bound"], rep["results"]["roots"]) == ("0", [])


def test_roots_at_bound_0_stay_valid(capsys):
    code, rep = run_valid(capsys, "roots", L_U, "--bound", "0")
    assert code == 0
    assert (rep["results"]["count"], rep["results"]["roots"]) == ("0", [])


def test_isotropic_found(capsys):
    code, rep = run_valid(capsys, "isotropic", L_U, "--bound", "1")
    assert code == 0
    assert rep["results"]["found"] == ["1", "0"]
    assert rep["certificates"]["found"] is True


def test_isotropic_not_found_exits_2(capsys):
    code, rep, _ = run(capsys, "isotropic", L_P, "--bound", "50")
    assert code == 2
    jsonschema.validate(rep, report_schema())
    assert rep["results"]["found"] is None
    assert rep["certificates"]["found"] is False


def test_isotropic_rank5(capsys):
    code, rep = run_valid(capsys, "isotropic", RANK5, "--bound", "1")
    assert code == 0
    assert rep["results"]["found"] == ["1", "0", "0", "0", "0"]


def test_isotropic_not_found_at_rank_5_advises_a_larger_box(tmp_path, capsys):
    prob = tmp_path / "diag.json"
    gram = [[2 if i == j == 0 else -4 if i == j else 0 for j in range(5)] for i in range(5)]
    prob.write_text(json.dumps({"rank": 5, "gram": gram, "ample": [1, 0, 0, 0, 0]}))
    code, rep = run_valid(capsys, "isotropic", str(prob), "--bound", "1")
    assert code == 2
    assert rep["results"]["found"] is None
    assert rep["warnings"] == [
        "no isotropic vector with coordinates up to 1; not a proof of absence",
        k3cone.orbits.ISOTROPY_ADVICE,
    ]


def test_filter_k(capsys):
    code, rep = run_valid(capsys, "filter-k", L_R)
    assert code == 0
    assert rep["results"]["prime"] == "3"
    assert len(rep["results"]["kept"]) == 3
    assert rep["results"]["dropped"] == []


def test_filter_k_requires_supersingular_block(capsys):
    code, rep, err = run(capsys, "filter-k", L_U)
    assert code == 1
    assert rep is None
    assert "supersingular" in err["message"]


# ---------------------------------------------------------------- failure modes


def test_missing_file_exits_1(capsys):
    code, rep, err = run(capsys, "validate", "no/such/file.json")
    assert code == 1
    assert rep is None
    assert err["type"] == "FileNotFoundError"


def test_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    """A UTF-16 byte-order mark is not UTF-8: an input error, not a traceback."""
    bom = tmp_path / "utf16.json"
    bom.write_bytes(b"\xff\xfe" + (PROBLEMS / "l_p.json").read_text().encode("utf-16-le"))
    code, rep, err = run(capsys, "validate", str(bom))
    assert code == 1
    assert rep is None
    assert err["error"] == "input"
    assert err["type"] == "UnicodeDecodeError"


def test_bad_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, rep, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err["type"] == "ProblemFormatError"
    assert "line 1" in err["where"]


def test_geometry_error_exits_1(tmp_path, capsys):
    onwall = tmp_path / "onwall.json"
    onwall.write_text(json.dumps({"rank": 2, "gram": [[0, 1], [1, 0]], "ample": [1, 1]}))
    code, rep, err = run(capsys, "validate", str(onwall))
    assert code == 1
    assert err["type"] == "AmpleOnWall"


@pytest.mark.parametrize("error", [k3cone.BrokenInvariant("walk"), RuntimeError("walk")],
                         ids=["BrokenInvariant", "RuntimeError"])
def test_internal_errors_exit_3(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(k3cone.cli, "walk_to_nef", broken)
    code, rep, err = run(capsys, "walk", L_P, "--class=1,1")
    assert code == 3
    assert rep is None
    assert (err["error"], err["type"]) == ("internal", type(error).__name__)


def test_bad_class_argument_exits_1(capsys):
    code, rep, err = run(capsys, "walk", L_P, "--class=1,banana")
    assert code == 1
    assert err is not None


@pytest.mark.parametrize("argv, expected", [
    (("walk", L_P, "--class=1_0,3"), 1),
    (("walk", L_P, "--class=\u0663,1"), 1),
    (("nef-test", L_P, "--class=2,+1"), 1),
    (("walk", L_P, "--class=8"), 1),
    (("roots", L_P, "--bound", "1_0"), 1),
    (("isotropic", L_U, "--bound", "\u0661"), 1),
    (("orbits", L_R, "--kind", "genus", "--genus", "+2"), 1),
    (("sterk", L_P, "--seed", " 7"), 1),
    (("walk", L_P, "--class= [8, 11] "), 0),
    (("roots", L_P, "--bound", "25"), 0),
])
def test_command_line_integers_follow_the_problem_file_rule(capsys, argv, expected):
    """--class and the integer options take -?[0-9]+ only, which int() is looser than."""
    assert main(list(argv)) == expected
    out, err = capsys.readouterr()
    if expected == 0:
        assert json.loads(out)["results"]
    elif argv[2].startswith("--class"):  # parsed against the problem's rank
        assert json.loads(err)["where"].startswith("--class")
    else:  # parsed with the options, so argparse reports it
        assert out == "" and "invalid integer value" in err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    """Exit 2 means a false certificate, so argparse's usage exit becomes 1."""
    assert main(["roots", L_P, "--bound", "abc"]) == 1
    assert main(["roots"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("usage:") == 2
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


# ---------------------------------------------------------------- output modes


def test_out_flag_writes_file_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, rep, err = run(capsys, "walls", L_P, "--out", str(target))
    assert code == 0
    assert rep is None and err is None
    saved = json.loads(target.read_text())
    jsonschema.validate(saved, report_schema())
    assert saved["command"] == "walls"


def test_unwritable_out_path_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "report.json"
    code, rep, err = run(capsys, "validate", L_U, "--out", str(target))
    assert code == 1
    assert rep is None
    assert err["error"] == "input"
    assert err["type"] == "FileNotFoundError"
    assert not target.exists()


def test_unwritable_dot_path_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "adj.dot"
    code, rep, err = run(capsys, "sterk", L_P, "--dot", str(target))
    assert code == 1
    assert rep is None
    assert err["error"] == "input"
    assert err["type"] == "FileNotFoundError"


DOT_SHA256 = {
    L_P: "006b211f32b3cabd4b875f058b55dfaccc900f16dea2cec7341c8e90ad8edd50",
    L_R: "baee22120fd5d00a7662cde3f47ba5d3ee41e695518d8ac24a095cfe457dcf0e",
}


def test_dot_output(tmp_path, capsys):
    for problem, sha in DOT_SHA256.items():
        dot = tmp_path / "adj.dot"
        code, rep = run_valid(capsys, "sterk", problem, "--dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph")
        assert '"e"' in text  # identity node
        assert "--" in text  # at least one adjacency edge
        assert hashlib.sha256(text.encode()).hexdigest() == sha


# ---------------------------------------------------------------- env overrides


def test_ceiling_env_invalid_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("K3CONE_CEILING", "many")
    code, rep, err = run(capsys, "walls", L_P)
    assert code == 1
    assert "K3CONE_CEILING" in err["message"]


@pytest.mark.parametrize("value", [" 3", "+3", "1_0", "\u0663"])
def test_ceiling_env_takes_a_decimal_integer_only(monkeypatch, capsys, value):
    """The variable follows the file's rule, -?[0-9]+, which int() is looser than."""
    monkeypatch.setenv("K3CONE_CEILING", value)
    code, rep, err = run(capsys, "validate", L_U)
    assert code == 1
    assert "K3CONE_CEILING" in err["message"]
    monkeypatch.setenv("K3CONE_CEILING", "3")
    assert run(capsys, "validate", L_U)[0] == 0


def test_ceiling_env_zero_truncates_R_search(monkeypatch, capsys):
    monkeypatch.setenv("K3CONE_CEILING", "0")
    code, rep, _ = run(capsys, "walls", L_R)
    assert code == 2
    assert rep["results"]["search_bound"] == "36"  # base bound, no doublings


def test_ceiling_env_beats_file_bounds(monkeypatch, tmp_path, capsys):
    prob = tmp_path / "p.json"
    prob.write_text(
        json.dumps(
            {
                "rank": 2,
                "gram": [[2, 7], [7, 2]],
                "ample": [1, 1],
                "bounds": {"ceiling": 5},
            }
        )
    )
    monkeypatch.setenv("K3CONE_CEILING", "0")
    code, rep, _ = run(capsys, "walls", str(prob))
    assert rep["results"]["search_bound"] == "36"


def test_ceiling_env_governs_generator_verification(tmp_path):
    """diag(2,-4,-6) does not certify for a long while; at ceiling 1 parsing
    the identity generator must stop after two bounds instead of twelve."""
    prob = tmp_path / "slow.json"
    prob.write_text(json.dumps({
        "rank": 3,
        "gram": [[2, 0, 0], [0, -4, 0], [0, 0, -6]],
        "ample": [3, 1, 1],
        "generators": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
    }))
    src = str(Path(k3cone.__file__).resolve().parent.parent)
    env = dict(os.environ, K3CONE_CEILING="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # a child process, so that a regression fails at the deadline instead of hanging
    done = subprocess.run(
        [sys.executable, "-m", "k3cone.cli", "validate", str(prob)],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["generators_verified"] == "1"


def _arms(gram):
    """Arm lengths of a tree-shaped simply-laced Coxeter diagram with one branch node.

    ``gram`` is the pairing matrix of the walls: -2 on the diagonal, 1 on an
    edge, 0 otherwise.  Returns None for any other shape.
    """
    n = len(gram)
    if any(gram[i][i] != -2 for i in range(n)):
        return None
    if any(gram[i][j] not in (0, 1) for i in range(n) for j in range(n) if i != j):
        return None
    nbrs = [[j for j in range(n) if j != i and gram[i][j] == 1] for i in range(n)]
    branch = [i for i in range(n) if len(nbrs[i]) == 3]
    if sum(map(len, nbrs)) != 2 * (n - 1) or len(branch) != 1:
        return None
    arms = []
    for start in nbrs[branch[0]]:
        prev, node, length = branch[0], start, 1
        while len(nbrs[node]) == 2:
            prev, node = node, next(j for j in nbrs[node] if j != prev)
            length += 1
        if len(nbrs[node]) != 1:
            return None
        arms.append(length)
    return sorted(arms) if 1 + sum(arms) == n else None


def test_walls_on_u_e8_is_the_e10_diagram():
    """U+E8(-1) at its Weyl vector certifies within seconds: the E10 = T(2,3,7)
    chamber.  So does U+E8(-1)+E8(-1) (rank 18): Vinberg's 19 walls, all of
    degree 1."""
    src = str(Path(k3cone.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env.pop("K3CONE_CEILING", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the rank-18 chamber's diagram has two branch nodes, so only E10's has arms
    for name, count, arms in (("u_e8", 10, [1, 2, 6]), ("u_e8e8", 19, None)):
        # a child process, so that a regression fails at the deadline instead of hanging
        done = subprocess.run(
            [sys.executable, "-m", "k3cone.cli", "walls", str(PROBLEMS / f"{name}.json")],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 0, done.stderr
        rep = json.loads(done.stdout)
        assert rep["certificates"]["complete"] is True
        walls = [tuple(map(int, w)) for w in rep["results"]["walls"]]
        assert len(walls) == count
        data = json.loads((PROBLEMS / f"{name}.json").read_text())
        lat = k3cone.Lattice(tuple(map(tuple, data["gram"])))
        assert all(lat.pairing(data["ample"], w) == 1 for w in walls)
        if arms is not None:
            assert _arms([[lat.pairing(a, b) for b in walls] for a in walls]) == arms


def _rebind_nef_walls(monkeypatch, replacement):
    """Rebind ``nef_walls`` in every package module that imported it."""
    original = weyl.nef_walls
    for name, module in list(sys.modules.items()):
        if name.startswith("k3cone") and getattr(module, "nef_walls", None) is original:
            monkeypatch.setattr(module, "nef_walls", replacement)
    return original


@pytest.mark.parametrize("argv, expected", [
    (("walls", L_P), 1),
    (("sterk", L_R), 1),
    (("reduce", L_P, "--class=8,11"), 1),
    (("orbits", L_P, "--kind", "nodal"), 1),
    (("orbits", L_R, "--kind", "genus", "--genus", "2"), 1),
    (("validate", L_U), 0),
    (("roots", RANK5, "--bound", "4"), 0),
    (("walk", L_U, "--class=1,3"), 0),
    (("nef-test", L_U, "--class=5,1"), 0),
    (("isotropic", RANK5, "--bound", "1"), 0),
    (("filter-k", RANK5), 0),
])
def test_walls_are_computed_at_most_once(monkeypatch, capsys, argv, expected):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = _rebind_nef_walls(monkeypatch, counting)
    code, _ = run_valid(capsys, *argv)
    assert code == 0
    assert len(calls) == expected


def test_parsing_and_chamber_free_commands_compute_no_walls(monkeypatch, capsys, tmp_path):
    """Generators are verified by the chamber test alone, so only walls, sterk,
    reduce and orbits compute the chamber; on L_N it would not finish."""

    def forbidden(*args, **kwargs):
        raise AssertionError("nef_walls was called")

    _rebind_nef_walls(monkeypatch, forbidden)
    for path in (L_P, L_R, L_N):
        assert k3cone.parse_problem(Path(path).read_text()).group.gens
    data = json.loads(Path(L_R).read_text())
    data["supersingular"] = {"p": 3, "k_basis": [[1, 0]]}
    l_r_k = tmp_path / "l_r_k.json"
    l_r_k.write_text(json.dumps(data))
    for argv, expected in [
        (("validate", L_N), 0),
        (("roots", L_N), 0),
        (("walk", L_N, "--class=2,1,0"), 0),
        (("nef-test", L_N, "--class=2,1,0"), 0),
        (("isotropic", L_N), 2),  # no isotropic vector in the default box
        (("validate", L_P), 0),
        (("walk", L_R, "--class=-1,8"), 0),
        (("filter-k", str(l_r_k)), 0),
    ]:
        code, _ = run_valid(capsys, *argv)
        assert code == expected, argv


def test_all_commands_emit_schema_valid_reports(capsys):
    """Sweep: every subcommand on a suitable fixture validates and exits 0/2."""
    invocations = [
        ("validate", L_U),
        ("validate", RANK5),
        ("roots", L_U),
        ("walls", L_U),
        ("walk", L_U, "--class=1,3"),
        ("nef-test", L_U, "--class=5,1"),
        ("sterk", L_U),
        ("sterk", L_P),
        ("reduce", L_R, "--class=-1,8"),
        ("orbits", L_U, "--kind", "nodal"),
        ("orbits", L_U, "--kind", "elliptic"),
        ("orbits", L_P, "--kind", "genus", "--genus", "3"),
        ("isotropic", L_R, "--bound", "10"),
        ("filter-k", RANK5),
    ]
    for argv in invocations:
        code, rep, err = run(capsys, *argv)
        assert err is None, argv
        jsonschema.validate(rep, report_schema())
        assert code in (0, 2), argv
