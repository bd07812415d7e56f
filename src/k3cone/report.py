"""Report assembly: schema-versioned JSON with arbitrary-precision integers.

Every integer in a report is a decimal string, so nothing silently saturates
at 64 bits downstream.  Certificates are a flat map of booleans; the exit
code is 2 exactly when one of them is false (a bound-limited result whose
payload is still emitted).
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
    """Recursively convert payload values; integers become decimal strings."""
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
    return encode(
        {
            "rays": cone.rays,
            "normals": cone.normals,
            "lineality": cone.lineality,
            "pointed": cone.pointed,
            "full_dimensional": cone.full_dim,
        }
    )


def nef_payload(nef: NefDescription) -> dict:
    return {
        "walls": encode(nef.walls),
        "rays": encode(nef.rays),
        "polyhedral": nef.polyhedral,
        "search_bound": str(nef.certification_bound),
        "facet_witnesses": encode(
            [{"wall": w, "point": p} for w, p in nef.witnesses]
        ),
        "cone": cone_payload(nef.cone),
    }


def domain_payload(domain: SterkDomain) -> dict:
    return {
        "rays": encode(domain.cone.rays),
        "cone": cone_payload(domain.cone),
        "inequalities": encode(
            [
                {"normal": c.normal, "orbit_point": c.orbit_point, "word": c.word}
                for c in domain.cuts
            ]
        ),
        "orbit_bound": str(domain.orbit_bound),
        "orbit_size": str(domain.orbit_size),
    }


def table_payload(table: OrbitTable) -> dict:
    return {
        "kind": table.kind,
        "genus": None if table.genus is None else str(table.genus),
        "count": str(len(table.entries)),
        "search_bound": None
        if table.search_bound is None
        else str(table.search_bound),
        "orbits": encode(
            [
                {
                    "representative": e.representative,
                    "source": e.source,
                    "reflections": e.reflections,
                    "word": e.word,
                    "members": e.members,
                }
                for e in table.entries
            ]
        ),
    }


def fundamental_payload(cert: FundamentalCertificate) -> dict:
    return {
        "samples": str(cert.samples),
        "word_length": str(cert.word_length),
        "seed": str(cert.seed),
        "coverage_failures": encode(cert.coverage_failures),
        "tiling_overlaps": encode(cert.tiling_overlaps),
        "stabilizer_words": encode(cert.stabilizer_words),
    }


def build_report(command, digest, results, certificates, warnings) -> dict:
    for name, value in certificates.items():
        if not isinstance(value, bool):
            raise BrokenInvariant(f"certificate {name!r} is {value!r}, not a bool")
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": digest,
        "results": results,
        "certificates": dict(sorted(certificates.items())),
        "warnings": list(warnings),
    }


def exit_code_for(report: dict) -> int:
    return 0 if all(report["certificates"].values()) else 2


def report_schema() -> dict:
    text = resources.files("k3cone").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)
