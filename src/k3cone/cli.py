"""Command-line surface: one problem file in, one JSON report out.

Exit codes: 0 success, 1 invalid input or usage, 2 bound-limited result
(every certificate that failed is false in the report, which is still
emitted), 3 internal error.  The handlers return plain values, and
``build_report`` writes every integer as a decimal string.  The env var
K3CONE_CEILING overrides the doubling ceiling for this invocation, taking
precedence over the problem file's ``bounds.ceiling``.  It is resolved
while the problem file is parsed, so every command rejects a malformed
value with exit 1; only walls, sterk, reduce and orbits use the ceiling.
Integer options and ``--class`` coordinates follow the problem file's
rule, ``-?[0-9]+``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import report as rpt
from .cones import intersection, transform_cone
from .enumeration import roots_up_to_degree, separating_roots
from .errors import BrokenInvariant, GeometryError
from .groups import filter_preserving_K
from .orbits import ISOTROPY_ADVICE, check_table, find_isotropic, genus_orbits
from .problem import Problem, _int_from, _vector_from, parse_problem
from .sterk import (
    SterkDomain,
    group_words,
    reduce_to_domain,
    sterk_domain,
    verify_fundamental,
)
from .weyl import DOT_WORD_LENGTH, ISOTROPY_BOX, ROOT_BOUND_FACTOR, walk_to_nef


CEILING_WARNING = "the orbit bound hit the doubling ceiling before the domain stabilized"


def _parse_class(text: str, rank: int) -> tuple[int, ...]:
    """The --class value, by the problem file's rule for vectors."""
    parts = text.strip().lstrip("[(").rstrip(")]").split(",")
    return _vector_from([p.strip() for p in parts], rank, "--class")


def _enum_bound(problem: Problem, flag):
    """The --bound flag, else ``bounds.enumeration``; None when neither is set."""
    if flag is not None:
        if flag < 0:
            raise GeometryError("--bound must be non-negative")
        return flag
    return problem.bounds.enumeration


def _nef_certificates(nef) -> dict:
    return {"complete": nef.complete, "stable": nef.stable}


def _domain(problem: Problem) -> tuple[SterkDomain | None, list[str]]:
    """The Sterk domain, warned with CEILING_WARNING when partial or None."""
    domain = sterk_domain(
        problem.lattice, problem.ample, problem.group, problem.nef,
        ceiling=problem.bounds.ceiling,
    )
    return domain, [] if domain is not None and domain.saturated else [CEILING_WARNING]


def _cmd_validate(problem: Problem, args):
    lat = problem.lattice
    results = {
        "rank": lat.rank,
        "signature": (1, lat.rank - 1),
        "ample": problem.ample,
        "ample_norm": lat.norm(problem.ample),
        "generators_verified": len(problem.generator_matrices),
        "group_size": len(problem.group.gens),
        "supersingular_prime": None
        if problem.supersingular is None
        else problem.supersingular.prime,
    }
    return results, {}, []


def _cmd_roots(problem: Problem, args):
    bound = _enum_bound(problem, args.bound)
    if bound is None:
        bound = ROOT_BOUND_FACTOR * problem.lattice.norm(problem.ample)
    roots = roots_up_to_degree(problem.lattice, problem.ample, bound)
    results = {"bound": bound, "count": len(roots), "roots": roots}
    return results, {"complete": True}, []


def _cmd_walls(problem: Problem, args):
    nef = problem.nef
    warnings = []
    if nef.looks_round:
        warnings.append(
            "no walls up to a doubled bound: the chamber looks round; "
            "completeness cannot be certified by search"
        )
    elif not nef.complete:
        warnings.append("wall list is bound-limited; raise K3CONE_CEILING")
    return rpt.nef_payload(nef), _nef_certificates(nef), warnings


def _cmd_walk(problem: Problem, args):
    start = _parse_class(args.cls, problem.lattice.rank)
    endpoint, word = walk_to_nef(problem.lattice, problem.ample, start)
    results = {
        "start": start,
        "endpoint": endpoint,
        "reflections": word,
        "steps": len(word),
    }
    return results, {}, []


def _cmd_nef_test(problem: Problem, args):
    x = _parse_class(args.cls, problem.lattice.rank)
    seps = separating_roots(problem.lattice, problem.ample, x)
    results = {"class": x, "nef": not seps, "separating_roots": seps}
    return results, {}, []


def _dot_graph(problem: Problem, domain: SterkDomain | None) -> str:
    """Adjacency of the domain and its translates by words up to DOT_WORD_LENGTH."""
    lines = ["graph chamber_adjacency {", '  node [shape=box];']
    if domain is None:  # no nodes
        return "\n".join(lines + ["}"]) + "\n"
    lat = problem.lattice
    cones = [("e", domain.cone)]
    for g, word in group_words(problem.group, DOT_WORD_LENGTH):
        label = "*".join(f"g{i}" for i in word)
        cones.append((label, transform_cone(lat, domain.cone, g)))
    lines.append('  "e" [style=bold];')
    for label, _ in cones[1:]:
        lines.append(f'  "{label}";')
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = intersection(lat, cones[i][1], cones[j][1])
            if meet.dimension() == lat.rank - 1:
                lines.append(f'  "{cones[i][0]}" -- "{cones[j][0]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_sterk(problem: Problem, args):
    domain, warnings = _domain(problem)
    if args.dot:
        Path(args.dot).write_text(_dot_graph(problem, domain))
    if domain is None:
        return {"domain": None, "fundamental": None}, {"saturated": False}, warnings
    bounds = problem.bounds
    cert = verify_fundamental(
        problem.lattice, problem.ample, problem.group, domain, problem.nef,
        samples=bounds.samples,
        word_length=bounds.word_length,
        seed=bounds.seed if args.seed is None else args.seed,
    )
    results = {
        "domain": rpt.domain_payload(domain),
        "fundamental": rpt.fundamental_payload(cert),
    }
    certificates = {
        "saturated": domain.saturated,
        "rays_nef": cert.rays_nef,
        "coverage": cert.coverage_ok,
        "tiling": cert.tiling_ok,
    }
    return results, certificates, warnings


def _cmd_reduce(problem: Problem, args):
    x = _parse_class(args.cls, problem.lattice.rank)
    domain, warnings = _domain(problem)
    if domain is None:
        # no domain to reduce into: report how far the chamber walk gets
        endpoint, reflections = walk_to_nef(problem.lattice, problem.ample, x, problem.nef)
        word = ()
        certificates = {"saturated": False, "in_domain": False}
    else:
        certificates = {"saturated": domain.saturated, "in_domain": True}
        endpoint, reflections, word = reduce_to_domain(
            problem.lattice, problem.ample, problem.group, domain, x
        )
    results = {
        "start": x,
        "endpoint": endpoint,
        "reflections": reflections,
        "word": word,
    }
    return results, certificates, warnings


def _cmd_orbits(problem: Problem, args):
    bound = _enum_bound(problem, args.bound)
    if args.kind == "genus" and args.genus is None:
        raise GeometryError("--kind genus requires --genus")
    genus = {"nodal": 0, "elliptic": 1}.get(args.kind, args.genus)
    check_table(genus, bound)  # before the domain, which may not exist
    domain, warnings = _domain(problem)
    table = genus_orbits(
        problem.lattice, problem.ample, problem.group, problem.nef, domain, genus, bound
    )
    saturated = domain is not None and domain.saturated
    if saturated and not table.stable:
        warnings.append("orbit table changed under one bound doubling")
    return rpt.table_payload(table), {"saturated": saturated, "stable": table.stable}, warnings


def _cmd_isotropic(problem: Problem, args):
    box = args.bound if args.bound is not None else ISOTROPY_BOX
    found = find_isotropic(problem.lattice, box)
    warnings = []
    if found is None:
        warnings.append(f"no isotropic vector with coordinates up to {box}; not a proof of absence")
        if problem.lattice.rank >= 5:
            warnings.append(ISOTROPY_ADVICE)
    return {"bound": box, "found": found}, {"found": found is not None}, warnings


def _cmd_filter_k(problem: Problem, args):
    if problem.supersingular is None:
        raise GeometryError("the problem file has no supersingular block")
    kept = filter_preserving_K(problem.lattice, problem.group, problem.supersingular)
    dropped = [m for m in problem.group.gens if m not in kept]
    results = {
        "prime": problem.supersingular.prime,
        "kept": kept,
        "dropped": dropped,
    }
    return results, {}, []


_HANDLERS = {
    "validate": _cmd_validate,
    "roots": _cmd_roots,
    "walls": _cmd_walls,
    "walk": _cmd_walk,
    "nef-test": _cmd_nef_test,
    "sterk": _cmd_sterk,
    "reduce": _cmd_reduce,
    "orbits": _cmd_orbits,
    "isotropic": _cmd_isotropic,
    "filter-k": _cmd_filter_k,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3cone",
        description="Exact chamber geometry for even hyperbolic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def integer(text: str) -> int:  # argparse names the type in its message
        return _int_from(text, "option")

    def common(p, with_bound=False, with_class=False):
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument("--out", help="write the report here instead of stdout")
        if with_bound:
            p.add_argument("--bound", type=integer, default=None)
        if with_class:
            p.add_argument("--class", dest="cls", required=True,
                           help="comma-separated integer coordinates")

    common(sub.add_parser("validate", help="parse and validate only"))
    common(sub.add_parser("roots", help="norm -2 classes up to a degree bound"),
           with_bound=True)
    common(sub.add_parser("walls", help="chamber walls with certification"))
    common(sub.add_parser("walk", help="reflect a class into the chamber"),
           with_class=True)
    common(sub.add_parser("nef-test", help="closed-chamber membership"),
           with_class=True)
    p = sub.add_parser("sterk", help="fundamental domain and its certificates")
    common(p)
    p.add_argument("--seed", type=integer, default=None,
                   help="seed for sampled verification (overrides bounds.seed)")
    p.add_argument("--dot", help="write chamber adjacency graph to this file")
    common(sub.add_parser("reduce", help="reduce a class into the domain"),
           with_class=True)
    p = sub.add_parser("orbits", help="orbit table for a class kind")
    common(p, with_bound=True)
    p.add_argument("--kind", choices=["nodal", "elliptic", "genus"], required=True)
    p.add_argument("--genus", type=integer, default=None)
    common(sub.add_parser("isotropic", help="bounded isotropic vector search"),
           with_bound=True)
    common(sub.add_parser("filter-k", help="generators preserving the mod-p subspace"))
    return parser


def _emit_error(kind: str, err: Exception) -> None:
    payload = {"error": kind, "type": type(err).__name__, "message": str(err)}
    where = getattr(err, "where", None)
    if where is not None:
        payload["where"] = where
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse's usage exit is 2, which means a false certificate
        return 1 if e.code else 0
    try:
        problem = parse_problem(Path(args.problem).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, GeometryError) as e:
        _emit_error("input", e)
        return 1
    try:
        results, certificates, warnings = _HANDLERS[args.command](problem, args)
        report = rpt.build_report(
            args.command, problem.digest, results, certificates, warnings
        )
    except BrokenInvariant as e:
        _emit_error("internal", e)
        return 3
    except (GeometryError, OSError) as e:  # OSError: an unwritable --dot path
        _emit_error("input", e)
        return 1
    except Exception as e:  # any other failure is a defect of the package
        _emit_error("internal", e)
        return 3
    text = json.dumps(report, indent=2)
    if not args.out:
        print(text)
        return rpt.exit_code_for(report)
    try:
        Path(args.out).write_text(text + "\n")
    except OSError as e:
        _emit_error("input", e)
        return 1
    return rpt.exit_code_for(report)


if __name__ == "__main__":
    sys.exit(main())
