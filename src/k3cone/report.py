"""Report assembly: schema-versioned JSON with arbitrary-precision integers.

Every integer in a report is a decimal string, so nothing silently saturates
at 64 bits downstream.  ``encode`` is the one place that writes them:
``build_report`` encodes the results once, so the payload builders below
and every caller hand it plain ints, tuples, bools and None.  Certificates
are a flat map of booleans; the exit code is 2 exactly when one of them is
false (a bound-limited result whose payload is still emitted).
"""

from __future__ import annotations

import json
from importlib import resources

from .cones import RationalCone
from .errors import BrokenInvariant
from .orbits import OrbitTable
from .sterk import FundamentalCertificate, SterkDomain
from .weyl import NefDescription

SCHEMA_VERSION = "k3cone-report/1"


def encode(value):
    """Recursively convert payload values; integers become decimal strings.

    Strings pass through, so encoding an encoded payload changes nothing.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if value is None:
        return None
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def cone_payload(cone: RationalCone | None) -> dict | None:
    if cone is None:
        return None
    return {
        "rays": cone.rays,
        "normals": cone.normals,
        "lineality": cone.lineality,
        "pointed": cone.pointed,
        "full_dimensional": cone.full_dim,
    }


def nef_payload(nef: NefDescription) -> dict:
    return {
        "walls": nef.walls,
        "rays": nef.rays,
        "polyhedral": nef.complete,
        "search_bound": nef.certification_bound,
        "facet_witnesses": [{"wall": w, "point": p} for w, p in nef.witnesses],
        "cone": cone_payload(nef.cone),
    }


def domain_payload(domain: SterkDomain) -> dict:
    return {
        "rays": domain.cone.rays,
        "cone": cone_payload(domain.cone),
        "inequalities": [
            {"normal": c.normal, "orbit_point": c.orbit_point, "word": c.word}
            for c in domain.cuts
        ],
        "orbit_bound": domain.orbit_bound,
        "orbit_size": domain.orbit_size,
    }


def table_payload(table: OrbitTable) -> dict:
    return {
        "kind": table.kind,
        "genus": table.genus,
        "count": len(table.entries),
        "search_bound": table.search_bound,
        "orbits": [
            {
                "representative": e.representative,
                "source": e.source,
                "reflections": e.reflections,
                "word": e.word,
                "members": e.members,
            }
            for e in table.entries
        ],
    }


def fundamental_payload(cert: FundamentalCertificate) -> dict:
    return {
        "samples": cert.samples,
        "word_length": cert.word_length,
        "seed": cert.seed,
        "coverage_failures": cert.coverage_failures,
        "tiling_overlaps": cert.tiling_overlaps,
        "stabilizer_words": cert.stabilizer_words,
    }


def build_report(command, digest, results, certificates, warnings) -> dict:
    """The report envelope; ``results`` may be plain values or already encoded."""
    for name, value in certificates.items():
        if not isinstance(value, bool):
            raise BrokenInvariant(f"certificate {name!r} is {value!r}, not a bool")
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": digest,
        "results": encode(results),
        "certificates": dict(sorted(certificates.items())),
        "warnings": list(warnings),
    }


def exit_code_for(report: dict) -> int:
    return 0 if all(report["certificates"].values()) else 2


def report_schema() -> dict:
    text = resources.files("k3cone").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)
