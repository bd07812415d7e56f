"""Contract violations raised across the package.

Every failure a caller can provoke is a subclass of ``GeometryError`` (itself
a ``ValueError``), so library users can catch one thing.  Errors that carry
useful state expose it as attributes rather than burying it in the message.
"""

from __future__ import annotations


class GeometryError(ValueError):
    """Base class for every contract violation raised by k3cone."""


class DimensionMismatch(GeometryError):
    """A vector or matrix does not match the ambient rank."""


class OddLattice(GeometryError):
    """The Gram matrix has an odd diagonal entry."""


class WrongSignature(GeometryError):
    """The form is nondegenerate but not of hyperbolic signature (1, rank-1)."""


class Degenerate(GeometryError):
    """The Gram matrix is singular."""


class NonPositiveAmple(GeometryError):
    """The distinguished class has non-positive self-pairing."""


class AmpleOnWall(GeometryError):
    """The distinguished class is orthogonal to a root."""

    def __init__(self, root):
        self.root = tuple(root)
        super().__init__(f"ample class lies on the wall of root {self.root}")


class NotARoot(GeometryError):
    """Reflection requested in a vector of self-pairing != -2."""


class NotAnIsometry(GeometryError):
    """An integer matrix fails to preserve the pairing."""


class NotUnimodular(GeometryError):
    """An integer matrix has no integer inverse."""


class ZeroVector(GeometryError):
    """The zero vector where a direction is required."""


class UnboundedQuery(GeometryError):
    """An enumeration was requested with a negative degree bound."""


class OutsidePositiveCone(GeometryError):
    """A point with negative self-pairing where the closed positive cone is required."""


class OppositeCone(GeometryError):
    """A point of positive norm lying in the component opposite the ample class."""


class BadPrime(GeometryError):
    """The supersingular filter needs an odd prime."""


class DegenerateBasis(GeometryError):
    """The mod-p subspace basis is linearly dependent."""


class GeneratorRejected(GeometryError):
    """A supplied group generator fails verification (carries the report)."""

    def __init__(self, index, report):
        self.index = index
        self.report = report
        super().__init__(f"generator {index} rejected: {report}")


class CoverageFailure(GeometryError):
    """A reduced point failed to land in the fundamental domain."""

    def __init__(self, point, reduced):
        self.point = tuple(point)
        self.reduced = tuple(reduced)
        super().__init__(
            f"reduction of {self.point} stopped at {self.reduced}, outside the domain"
        )


class BrokenInvariant(GeometryError):
    """A property the theory guarantees failed: a bug in k3cone, not bad input."""


class ProblemFormatError(GeometryError):
    """A problem file failed to parse; ``where`` locates the offending field."""

    def __init__(self, where, message):
        self.where = where
        super().__init__(f"{where}: {message}")
