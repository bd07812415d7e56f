"""Hyperbolic lattices, class vectors and the package's value records.

Conventions used across the whole package:

* class vectors are integer coordinate tuples of length ``rank``;
* the pairing is ``x . y = x^T G y`` for the Gram matrix ``G``;
* an isometry is a plain integer matrix acting on column vectors, so the
  product ``g h`` (``linalg.mat_mul(g, h)``) applies ``h`` first;
* ``degree`` always means pairing against the distinguished ample class.

A lattice here is always even (even diagonal) and hyperbolic: exactly one
positive square in its signature, no null directions.

The package's value classes are ``Record`` subclasses: frozen, compared and
hashed by their fields, and re-validated by ``replace``.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from . import linalg
from .errors import (
    Degenerate,
    DimensionMismatch,
    OddLattice,
    WrongSignature,
    ZeroVector,
)

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


class Record:
    """A frozen value whose fields are its class's annotations, in order.

    A class attribute named after a field is that field's default.  Each
    subclass gets a constructor with the fields as its parameters, which
    runs ``__post_init__`` when the class has one; that is the only place a
    field may change, through ``object.__setattr__``.  ``==`` and ``hash`` go
    by the field values within one class, and ``repr`` is
    ``Name(field=value, ...)``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", {}))
        has_default = [hasattr(cls, name) for name in fields]
        if has_default != sorted(has_default):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with")
        # straight-line methods, as fast as hand-written ones; short, because
        # compiling them is part of every import of the package.  Setting each
        # field through object.__setattr__ keeps the instance's attributes
        # inline, where ``self.gram`` reads fastest
        mine = "".join(f"self.{name}, " for name in fields)
        theirs = "".join(f"other.{name}, " for name in fields)
        source = [f"def __init__(self, {', '.join(fields)}):"]
        source += [f" _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            source.append(" self.__post_init__()")
        source += [
            "def __eq__(self, other):",
            f" return ({mine}) == ({theirs}) if other.__class__ is self.__class__ else NotImplemented",
            "def __hash__(self):",
            f" return hash(({mine}))",
        ]
        methods = {}
        exec("\n".join(source), {"_set": object.__setattr__}, methods)
        methods["__init__"].__defaults__ = tuple(
            getattr(cls, name) for name in fields if hasattr(cls, name)
        )
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls._fields = fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({values})"


def replace(record: Record, /, **changes) -> Record:
    """A new record with ``changes`` over ``record``'s fields, validated anew."""
    values = {name: getattr(record, name) for name in record._fields}
    return record.__class__(**(values | changes))


def _as_int(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise DimensionMismatch(f"{what} must be an integer, got {x!r}")
    return x


def as_vector(v, rank: int, what: str = "vector") -> Vec:
    """Coerce to an integer tuple of the ambient rank."""
    vec = tuple(v)
    if not set(map(type, vec)) <= {int}:  # exact ints need no per-entry check
        vec = tuple([_as_int(x, what) for x in vec])
    if len(vec) != rank:
        raise DimensionMismatch(f"{what} has length {len(vec)}, expected {rank}")
    return vec


class Lattice(Record):
    """An even nondegenerate lattice of signature (1, rank-1)."""

    gram: Mat

    def __post_init__(self):
        rows = tuple([tuple([_as_int(x, "gram entry") for x in row]) for row in self.gram])
        object.__setattr__(self, "gram", rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatch("gram matrix must be square and non-empty")
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != rows[j][i]:
                    raise DimensionMismatch(
                        f"gram matrix is not symmetric at ({i}, {j})"
                    )
            if rows[i][i] % 2 != 0:
                raise OddLattice(f"diagonal entry gram[{i}][{i}] = {rows[i][i]} is odd")
        pos, neg, zero = linalg.signature(rows)
        if zero:
            raise Degenerate("gram matrix is singular")
        if (pos, neg) != (1, n - 1):
            raise WrongSignature(
                f"signature is ({pos}, {neg}), expected (1, {n - 1})"
            )

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, x, y) -> int:
        return self._pair(as_vector(x, self.rank), as_vector(y, self.rank))

    def _pair(self, x, y) -> int:
        """``pairing`` without re-validation, for vectors the package built."""
        return sum(map(mul, x, self._dual(y)))

    def _dual(self, y) -> Vec:
        """G y without re-validation: x . y is the plain dot product of x with it."""
        return tuple([sum(map(mul, row, y)) for row in self.gram])

    def norm(self, x) -> int:
        return self.pairing(x, x)


def primitive_ray(x) -> Vec:
    """Divide out the content of x.  Never flips sign; rejects zero."""
    g = gcd(*x)
    if g == 0:
        raise ZeroVector("the zero vector spans no ray")
    return x if g == 1 and type(x) is tuple else tuple([int(c) // g for c in x])
