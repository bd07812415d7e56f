"""Report envelope: string-encoded integers, schema validity, exit codes."""

import pytest

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from k3cone import SCHEMA_VERSION, build_report, exit_code_for, report_schema
from k3cone.report import cone_payload, encode, nef_payload

from conftest import GRAM_P, AMPLE_P

DIGEST = "sha256:" + "0" * 64


def test_encode_ints_become_decimal_strings():
    assert encode(7) == "7"
    assert encode(-3) == "-3"
    assert encode(10**40) == str(10**40)  # bigints survive exactly
    assert encode((1, -2)) == ["1", "-2"]
    assert encode({"a": (0,)}) == {"a": ["0"]}


def test_encode_preserves_bools_and_none():
    assert encode(True) is True
    assert encode(False) is False
    assert encode(None) is None
    assert encode({"flag": True, "v": 1}) == {"flag": True, "v": "1"}


def test_encode_rejects_floats():
    with pytest.raises(TypeError):
        encode(1.5)


def test_build_report_envelope():
    # results arrive as plain values; the envelope encodes them
    results = {"roots": ((1, 2),), "bound": 8, "count": 1}
    rep = build_report("roots", DIGEST, results, {"complete": True}, ["note"])
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["command"] == "roots"
    assert rep["input_digest"] == DIGEST
    assert rep["results"]["roots"] == [["1", "2"]]
    assert rep["certificates"] == {"complete": True}
    assert rep["warnings"] == ["note"]


# payloads as the handlers build them: ints of any size, bools, None and
# strings, nested in tuples, lists and dicts
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(min_value=-(2**70), max_value=2**70),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def leaves(value):
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from leaves(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from leaves(v)
    else:
        yield value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(PAYLOADS)
def test_build_report_encodes_once_and_idempotently(payload):
    """Plain and already-encoded results give the same report; ints become
    decimal strings, and every other leaf keeps its value."""
    plain = build_report("roots", DIGEST, {"payload": payload}, {}, [])
    assert plain == build_report("roots", DIGEST, {"payload": encode(payload)}, {}, [])
    for before, after in zip(leaves(payload), leaves(plain["results"]["payload"])):
        if isinstance(before, int) and not isinstance(before, bool):
            assert after == str(before) and int(after) == before
        else:
            assert after is before or after == before
    with pytest.raises(TypeError):
        build_report("roots", DIGEST, {"payload": [payload, 0.5]}, {}, [])


def test_build_report_sorts_certificates():
    rep = build_report("roots", DIGEST, {}, {"b": True, "a": False}, [])
    assert list(rep["certificates"]) == ["a", "b"]


def test_exit_code_for():
    ok = build_report("roots", DIGEST, {}, {"complete": True}, [])
    assert exit_code_for(ok) == 0
    failed = build_report("roots", DIGEST, {}, {"complete": True, "stable": False}, [])
    assert exit_code_for(failed) == 2
    no_certs = build_report("roots", DIGEST, {}, {}, [])
    assert exit_code_for(no_certs) == 0


def roots_report():
    results = {"roots": ((0, -1),), "bound": 8, "count": 1}
    return build_report("roots", DIGEST, results, {"complete": True}, [])


def test_schema_loads_and_validates_a_report():
    schema = report_schema()
    assert schema["$id"] == SCHEMA_VERSION
    jsonschema.validate(roots_report(), schema)


def test_schema_rejects_bare_integers():
    rep = roots_report()
    rep["results"]["bound"] = 8  # not a decimal string
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(rep, report_schema())


def test_schema_rejects_unknown_envelope_keys():
    rep = roots_report()
    rep["surprise"] = "hi"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(rep, report_schema())


def test_nef_payload_round_trips_through_schema():
    from k3cone import Lattice, nef_walls

    lat = Lattice(GRAM_P)
    payload = nef_payload(nef_walls(lat, AMPLE_P))
    rep = build_report("walls", DIGEST, payload, {"complete": True, "stable": True}, [])
    jsonschema.validate(rep, report_schema())
    assert rep["results"]["walls"] == [["0", "-1"], ["2", "3"]]
    assert rep["results"]["cone"]["rays"] == [["1", "0"], ["3", "4"]]


def test_cone_payload_none_passthrough():
    assert cone_payload(None) is None
