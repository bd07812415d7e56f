"""Chamber-preserving isometry groups and the mod-p subspace filter.

Generators are integer matrices that preserve the pairing, keep the ample
component, and map the ample chamber into itself.  ``build_group`` closes
them under inversion and records each inverse's index, so a generator word
inverts index by index.  A group element is a plain integer matrix acting on
column vectors: ``verify_generator`` validates each input matrix once, and
downstream code applies the verified matrices unchecked.

``word_search`` is the one breadth-first search over generator words: the
ample orbit, the tiling translates and the orbit-merge balls all use it.

Generator verification needs no wall list: ``nef_test`` decides exactly
whether a generator keeps the ample chamber, and a problem file passes no
``NefDescription``.  With a certified complete one, the wall-preservation
cross-check also runs; it cannot reject what the chamber test accepts.

The supersingular side is deliberately small: a datum ``(p, K)`` is a linear
subspace of F_p^rank spanned by reduced basis vectors, and the filter keeps
exactly the generators whose reduction preserves K.  Independence and
membership are decided by one rank computation over F_p.
"""

from __future__ import annotations

from . import linalg
from .errors import BadPrime, DegenerateBasis, DimensionMismatch, GeneratorRejected
from .lattice import Lattice, Mat, Record, Vec, _as_int, as_vector
from .weyl import NefDescription, nef_test


class GeneratorReport(Record):
    """Outcome of the generator checks; ``walls_preserved`` is None when the
    wall list is not certified complete and the check would be vacuous."""

    preserves_form: bool
    preserves_component: bool
    chamber_fixed: bool
    walls_preserved: bool | None

    @property
    def ok(self) -> bool:
        return (
            self.preserves_form
            and self.preserves_component
            and self.chamber_fixed
            and self.walls_preserved is not False
        )


def verify_generator(
    lat: Lattice, ample, matrix, nef: NefDescription | None = None
) -> GeneratorReport:
    """Check a candidate generator; reports, never raises.

    A matrix that is not a rank x rank integer matrix with g^T G g == G
    fails every check.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    try:
        g = tuple(as_vector(row, lat.rank, "generator row") for row in matrix)
    except DimensionMismatch:
        return GeneratorReport(False, False, False, None)
    if len(g) != lat.rank or linalg.mat_mul(
        linalg.mat_mul(linalg.transpose(g), lat.gram), g
    ) != lat.gram:
        return GeneratorReport(False, False, False, None)
    image = linalg.mat_vec(g, ample)
    if lat.pairing(image, ample) <= 0:
        return GeneratorReport(True, False, False, None)
    chamber_fixed = nef_test(lat, ample, image)
    walls_preserved = None
    if nef is not None and nef.complete:
        images = {linalg.mat_vec(g, w) for w in nef.walls}
        walls_preserved = images == set(nef.walls)
    return GeneratorReport(True, True, chamber_fixed, walls_preserved)


class GroupGenerators(Record):
    """Verified generators, closed under inversion, in a deterministic order."""

    lattice: Lattice
    gens: tuple[Mat, ...]
    inverses: tuple[int, ...]  # gens[inverses[i]] is the inverse of gens[i]

    def matrices(self) -> tuple[Mat, ...]:
        return self.gens


def build_group(
    lat: Lattice, ample, matrices, nef: NefDescription | None = None
) -> GroupGenerators:
    """Verify the supplied matrices and close them under inversion.

    The wall-preservation check runs when ``nef`` is a certified wall list;
    without one it is skipped (the chamber test already implies it).
    Inverses of verified generators are themselves chamber-preserving (the
    chamber is carried bijectively onto itself), so they are added without
    re-checking.  A matrix with an entry that is not an ``int`` (a bool, a
    float) fails every check, as ``verify_generator`` reports it.
    """
    ample = as_vector(ample, lat.rank, "ample class")
    identity = linalg.identity(lat.rank)
    inverse: dict[Mat, Mat] = {}
    for i, m in enumerate(matrices):
        report = verify_generator(lat, ample, m, nef)
        if not report.ok:
            raise GeneratorRejected(i, report)
        m = tuple(tuple(row) for row in m)
        if m == identity:
            continue
        inv = linalg.invert_unimodular(m)  # exact: an isometry has det +-1
        inverse[m], inverse[inv] = inv, m
    order = sorted(inverse)
    index = {m: i for i, m in enumerate(order)}
    return GroupGenerators(
        lattice=lat,
        gens=tuple(order),
        inverses=tuple(index[inverse[m]] for m in order),
    )


def word_search(moves, start, depth: int | None = None, keep=None) -> dict:
    """Breadth-first search over words in ``moves``, starting at ``start``.

    Maps each element reached to the first word found for it, a shortest
    one, in the order found.  A word lists move indices in application
    order; ``keep`` prunes the elements reached, ``depth`` caps the length.
    """
    seen = {start: ()}
    frontier = [start]
    length = 0
    while frontier and (depth is None or length < depth):
        new = []
        for x in frontier:
            for idx, move in enumerate(moves):
                y = move(x)
                if y in seen or (keep is not None and not keep(y)):
                    continue
                seen[y] = seen[x] + (idx,)
                new.append(y)
        frontier = new
        length += 1
    return seen


# ---------------------------------------------------------------------------
# mod-p subspace filter


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of integer row vectors, by forward elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class SupersingularDatum(Record):
    """A linear subspace K of F_p^rank, given by an independent basis mod p."""

    prime: int
    basis: tuple[Vec, ...]

    def __post_init__(self):
        if not _is_prime(self.prime) or self.prime == 2:
            raise BadPrime(f"{self.prime} is not an odd prime")
        basis = tuple(
            tuple(_as_int(c, "basis entry") % self.prime for c in b) for b in self.basis
        )
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise DegenerateBasis("the subspace needs at least one basis vector")
        n = len(basis[0])
        if any(len(b) != n for b in basis):
            raise DimensionMismatch("basis vectors of mixed lengths")
        if _rank_mod_p(basis, self.prime) != len(basis):
            raise DegenerateBasis("basis vectors are dependent mod p")


def preserves_K(lat: Lattice, datum: SupersingularDatum, matrix) -> bool:
    """Whether the matrix reduction maps K into K over F_p."""
    if len(datum.basis[0]) != lat.rank:
        raise DimensionMismatch("subspace basis length differs from the rank")
    m = tuple(tuple(_as_int(x, "matrix entry") for x in row) for row in matrix)
    if len(m) != lat.rank or any(len(row) != lat.rank for row in m):
        raise DimensionMismatch(f"matrix must be {lat.rank}x{lat.rank}")
    # K is spanned by an independent basis, so an image lies in K exactly
    # when appending it leaves the rank unchanged
    k = len(datum.basis)
    return all(
        _rank_mod_p(datum.basis + (linalg.mat_vec(m, b),), datum.prime) == k
        for b in datum.basis
    )


def filter_preserving_K(
    lat: Lattice, group: GroupGenerators, datum: SupersingularDatum
) -> tuple[Mat, ...]:
    """The generator matrices whose mod-p reduction preserves K.

    This filters the generating set; it does not compute the full stabilizer
    of K inside the group.
    """
    return tuple(m for m in group.gens if preserves_K(lat, datum, m))

