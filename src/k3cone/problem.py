"""Problem files: JSON in, validated objects out.

A problem file carries the Gram matrix, the ample class, optional group
generators, an optional mod-p subspace, and optional bound overrides.
Integers may be JSON numbers or decimal strings (output is always decimal
strings; inputs round-trip).  Errors are located: a malformed field raises
ProblemFormatError naming it, and validation failures from the math layers
are re-raised with a ``where`` attribute attached.

The bounds are resolved once, at parse time: the K3CONE_CEILING environment
variable (for the ceiling), then the file's ``bounds``, then the defaults of
the ``Bounds`` table.  Parsing verifies the generators by the exact chamber
test alone, which needs no wall list, so a ``Problem`` computes its chamber
at the resolved ceiling only on first use, at most once.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from functools import cached_property

from . import enumeration
from .errors import GeometryError, NonPositiveAmple, ProblemFormatError
from .groups import GroupGenerators, SupersingularDatum, build_group
from .lattice import Lattice, Mat, Record, Vec, as_vector, replace
from .report import encode
from .weyl import Bounds, NefDescription, nef_walls


class Problem(Record):
    lattice: Lattice
    ample: Vec
    generator_matrices: tuple[Mat, ...]
    group: GroupGenerators  # the verified generators
    supersingular: SupersingularDatum | None
    bounds: Bounds  # resolved: the file's values over the defaults
    digest: str

    @cached_property
    def nef(self) -> NefDescription:
        """The chamber at the resolved ceiling, computed on first use."""
        return nef_walls(self.lattice, self.ample, ceiling=self.bounds.ceiling)


def validate_problem(gram, ample) -> tuple[Lattice, Vec]:
    """Build the validated (lattice, ample class) pair.

    Checks, in order: integral symmetric Gram matrix; even diagonal; exact
    signature (1, rank-1); integral ample class of positive self-pairing; the
    ample class is orthogonal to no root.  The last check is a finite one:
    roots orthogonal to an ample class live in a negative definite slice.
    """
    lat = Lattice(tuple(tuple(row) for row in gram))
    h = as_vector(ample, lat.rank, "ample class")
    if lat.norm(h) <= 0:
        raise NonPositiveAmple(f"ample class has self-pairing {lat.norm(h)} <= 0")
    enumeration.check_off_walls(lat, h)
    return lat, h


def _int_from(value, where: str) -> int:
    if isinstance(value, bool):
        raise ProblemFormatError(where, "booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if re.fullmatch(r"-?[0-9]+", value):
            return int(value)
        raise ProblemFormatError(where, f"not a decimal integer: {value!r}")
    raise ProblemFormatError(where, f"expected an integer, got {type(value).__name__}")


def _vector_from(value, rank: int, where: str) -> Vec:
    if not isinstance(value, list):
        raise ProblemFormatError(where, "expected a list")
    if len(value) != rank:
        raise ProblemFormatError(where, f"expected {rank} entries, got {len(value)}")
    return tuple(_int_from(x, f"{where}[{i}]") for i, x in enumerate(value))


def _matrix_from(value, rank: int, where: str) -> Mat:
    """Accept a row-major flat list of rank*rank entries or nested rows."""
    if not isinstance(value, list) or not value:
        raise ProblemFormatError(where, "expected a non-empty list")
    if isinstance(value[0], list):
        if len(value) != rank:
            raise ProblemFormatError(where, f"expected {rank} rows, got {len(value)}")
        return tuple(
            _vector_from(row, rank, f"{where}[{i}]") for i, row in enumerate(value)
        )
    if len(value) != rank * rank:
        raise ProblemFormatError(
            where, f"expected {rank * rank} row-major entries, got {len(value)}"
        )
    flat = [_int_from(x, f"{where}[{i}]") for i, x in enumerate(value)]
    return tuple(tuple(flat[i * rank : (i + 1) * rank]) for i in range(rank))


def _located(err: GeometryError, where: str):
    err.where = where
    return err


def parse_problem(text: str) -> Problem:
    """Parse and fully validate a problem given as the JSON text of its file.

    The digest is the sha256 of that text.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"line {e.lineno} column {e.colno}", e.msg) from e
    if not isinstance(data, dict):
        raise ProblemFormatError("$", "the problem must be a JSON object")
    unknown = set(data) - {
        "rank", "gram", "ample", "generators", "supersingular", "bounds"
    }
    if unknown:
        raise ProblemFormatError(sorted(unknown)[0], "unknown field")
    for required in ("rank", "gram", "ample"):
        if required not in data:
            raise ProblemFormatError(required, "missing required field")

    rank = _int_from(data["rank"], "rank")
    if rank < 2:
        raise ProblemFormatError("rank", "rank must be at least 2")
    gram = _matrix_from(data["gram"], rank, "gram")
    ample = _vector_from(data["ample"], rank, "ample")
    try:
        lattice, ample = validate_problem(gram, ample)
    except GeometryError as e:
        raise _located(e, "gram/ample") from None

    matrices = []
    gens_field = data.get("generators", [])
    if not isinstance(gens_field, list):
        raise ProblemFormatError("generators", "expected a list of matrices")
    for i, m in enumerate(gens_field):
        matrices.append(_matrix_from(m, rank, f"generators[{i}]"))

    supersingular = None
    if "supersingular" in data:
        block = data["supersingular"]
        if not isinstance(block, dict):
            raise ProblemFormatError("supersingular", "expected an object")
        if set(block) - {"p", "k_basis"}:
            raise ProblemFormatError("supersingular", "unknown field inside")
        if "p" not in block or "k_basis" not in block:
            raise ProblemFormatError("supersingular", "needs both p and k_basis")
        p = _int_from(block["p"], "supersingular.p")
        basis_field = block["k_basis"]
        if not isinstance(basis_field, list) or not basis_field:
            raise ProblemFormatError(
                "supersingular.k_basis", "expected a non-empty list of vectors"
            )
        basis = tuple(
            _vector_from(b, rank, f"supersingular.k_basis[{i}]")
            for i, b in enumerate(basis_field)
        )
        try:
            supersingular = SupersingularDatum(p, basis)
        except GeometryError as e:
            raise _located(e, "supersingular") from None

    bounds = Bounds()
    if "bounds" in data:
        block = data["bounds"]
        if not isinstance(block, dict):
            raise ProblemFormatError("bounds", "expected an object")
        unknown = sorted(set(block) - set(Bounds._fields))
        if unknown:
            raise ProblemFormatError(f"bounds.{unknown[0]}", "unknown field")
        values = {k: _int_from(block[k], f"bounds.{k}") for k in Bounds._fields if k in block}
        for k, v in values.items():
            if k != "seed" and v < 0:
                raise ProblemFormatError(f"bounds.{k}", "must be non-negative")
        bounds = Bounds(**values)
    env = os.environ.get("K3CONE_CEILING")
    if env is not None:  # the variable beats the file
        ceiling = _int_from(env, "K3CONE_CEILING")
        if ceiling < 0:
            raise ProblemFormatError("K3CONE_CEILING", "must be non-negative")
        bounds = replace(bounds, ceiling=ceiling)

    try:
        group = build_group(lattice, ample, matrices)
    except GeometryError as e:
        index = getattr(e, "index", None)
        raise _located(e, f"generators[{index}]" if index is not None else "generators") from None

    digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Problem(
        lattice=lattice,
        ample=ample,
        generator_matrices=tuple(matrices),
        group=group,
        supersingular=supersingular,
        bounds=bounds,
        digest=digest,
    )


def serialize_problem(problem: Problem) -> dict:
    """Canonical problem dict with every integer as a decimal string.

    ``bounds`` holds the resolved values, so parsing the dict gives them back.
    """
    out = {
        "rank": problem.lattice.rank,
        "gram": problem.lattice.gram,
        "ample": problem.ample,
    }
    if problem.generator_matrices:
        out["generators"] = problem.generator_matrices
    if problem.supersingular is not None:
        out["supersingular"] = {
            "p": problem.supersingular.prime,
            "k_basis": problem.supersingular.basis,
        }
    out["bounds"] = {k: v for k, v in vars(problem.bounds).items() if v is not None}
    return encode(out)
