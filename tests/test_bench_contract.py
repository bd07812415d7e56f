"""The package API the benchmark drives: call shapes and result attributes.

``bench/workloads.py`` calls the package as ``k3.<name>(...)``.  Each such
call is read from its syntax tree and bound against the signature of the
public name, so a renamed parameter or a dropped one fails here rather than
in a benchmark run.  The result attributes the workloads read are checked on
real results for L_P.
"""

import ast
import inspect
from pathlib import Path

import pytest

import k3cone

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _tree():
    return ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))


def _calls():
    """(line, name, positional count, keyword names) of every ``k3.<name>(...)``."""
    out = []
    for node in ast.walk(_tree()):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "k3"
        ):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            out.append((node.lineno, node.func.attr, len(node.args),
                        tuple(k.arg for k in node.keywords)))
    return out


def test_the_workloads_call_the_package():
    names = {name for _, name, _, _ in _calls()}
    assert {"nef_walls", "build_group", "sterk_domain", "verify_fundamental"} <= names


@pytest.mark.parametrize("line,name,positional,keywords", _calls())
def test_every_benchmark_call_binds(line, name, positional, keywords):
    fn = getattr(k3cone, name)
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))


# result -> attributes the workloads and their checks read from it
READS = {
    "nef": ("walls", "rays", "witnesses", "complete", "certification_bound"),
    "group": ("matrices",),
    "domain": ("cone", "cuts", "saturated"),
    "cone": ("normals", "rays"),
    "cut": ("normal", "orbit_point", "word"),
    "certificate": ("ok",),
    "table": ("entries",),
    "entry": ("representative", "members"),
}


def test_result_attributes_the_benchmark_reads(setups):
    lat, ample, group, nef, domain = setups["P"]
    certificate = k3cone.verify_fundamental(
        lat, ample, group, domain, nef, samples=5, word_length=2, seed=0
    )
    table = k3cone.nodal_orbits(lat, ample, group, nef, domain)
    results = {
        "nef": nef,
        "group": group,
        "domain": domain,
        "cone": domain.cone,
        "cut": domain.cuts[0],
        "certificate": certificate,
        "table": table,
        "entry": table.entries[0],
    }
    read = {node.attr for node in ast.walk(_tree()) if isinstance(node, ast.Attribute)}
    for key, attrs in READS.items():
        for attr in attrs:
            assert attr in read, f"the workloads no longer read {attr}"
            assert hasattr(results[key], attr), f"{key} has no {attr}"
    # the workloads unpack these two results
    assert len(k3cone.walk_to_nef(lat, ample, ample)) == 2
    assert len(k3cone.reduce_to_domain(lat, ample, group, domain, ample)) == 3
