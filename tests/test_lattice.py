"""Gram validation, pairing arithmetic, exact inverses, and the frozen value
records the package returns."""

import inspect
import random
from enum import IntEnum
from fractions import Fraction

import pytest

import k3cone
from k3cone import (
    Bounds,
    Degenerate,
    DimensionMismatch,
    Lattice,
    NonPositiveAmple,
    NotUnimodular,
    OddLattice,
    AmpleOnWall,
    WrongSignature,
    ZeroVector,
    primitive_ray,
    validate_problem,
)

from k3cone import linalg
from k3cone.lattice import as_vector

from conftest import GRAM_P, GRAM_R, GRAM_U, random_even_hyperbolic


def test_desk_lattices_validate():
    for gram in (GRAM_U, GRAM_P, GRAM_R):
        lat = Lattice(gram)
        assert lat.rank == 2
        assert lat.gram == gram


class _Three(IntEnum):
    A = 3


@pytest.mark.parametrize(
    "given, expected",
    [
        ((1, 2), (1, 2)),
        ([1, 2], (1, 2)),
        ((x for x in (1, 2)), (1, 2)),
        ((1, _Three.A), (1, _Three.A)),
        ((1, True), (DimensionMismatch, "ample class must be an integer, got True")),
        ((1, 2.0), (DimensionMismatch, "ample class must be an integer, got 2.0")),
        ((1, "2"), (DimensionMismatch, "ample class must be an integer, got '2'")),
        ((None, 1), (DimensionMismatch, "ample class must be an integer, got None")),
        ((x for x in (1, 2.5)), (DimensionMismatch, "ample class must be an integer, got 2.5")),
        ("12", (DimensionMismatch, "ample class must be an integer, got '1'")),
        ((1, 2.0, 3), (DimensionMismatch, "ample class must be an integer, got 2.0")),
        ((1, 2, 3), (DimensionMismatch, "ample class has length 3, expected 2")),
        ((1,), (DimensionMismatch, "ample class has length 1, expected 2")),
        (5, (TypeError, "'int' object is not iterable")),
    ],
)
def test_as_vector_accepts_and_rejects_entry_by_entry(given, expected):
    """Exact ints pass as they are; any other entry gets the per-entry check,
    which raises on the first bad entry before the length is compared."""
    if isinstance(expected[0], type) and issubclass(expected[0], Exception):
        with pytest.raises(expected[0]) as info:
            as_vector(given, 2, "ample class")
        assert str(info.value) == expected[1]
    else:
        got = as_vector(given, 2, "ample class")
        assert got == expected and type(got) is tuple
        assert [type(x) for x in got] == [type(x) for x in expected]


def test_gram_must_be_square():
    with pytest.raises(DimensionMismatch):
        Lattice(((0, 1, 0), (1, 0, 0)))


def test_gram_must_be_symmetric():
    with pytest.raises(DimensionMismatch):
        Lattice(((0, 1), (2, 0)))


def test_gram_must_be_even():
    # odd diagonal entry
    with pytest.raises(OddLattice):
        Lattice(((1, 0), (0, -2)))


def test_signature_must_be_hyperbolic():
    with pytest.raises(WrongSignature):
        Lattice(((2, 0), (0, 2)))  # positive definite
    with pytest.raises(WrongSignature):
        Lattice(((-2, 0), (0, -2)))  # negative definite


def test_degenerate_gram_rejected():
    with pytest.raises((Degenerate, WrongSignature)):
        Lattice(((2, 2), (2, 2)))


def test_pairing_and_norm():
    lat = Lattice(GRAM_U)
    assert lat.pairing((1, 0), (0, 1)) == 1
    assert lat.pairing((2, 1), (2, 1)) == 4
    assert lat.norm((3, 5)) == 30
    lat_p = Lattice(GRAM_P)
    assert lat_p.norm((2, 1)) == 14
    assert lat_p.pairing((2, 1), (0, 1)) == -2


def test_pairing_is_symmetric_and_bilinear():
    rng = random.Random(11)
    lat = Lattice(GRAM_R)
    for _ in range(100):
        x = tuple(rng.randint(-9, 9) for _ in range(2))
        y = tuple(rng.randint(-9, 9) for _ in range(2))
        z = tuple(rng.randint(-9, 9) for _ in range(2))
        assert lat.pairing(x, y) == lat.pairing(y, x)
        xy = tuple(a + b for a, b in zip(x, y))
        assert lat.pairing(xy, z) == lat.pairing(x, z) + lat.pairing(y, z)


def test_pairing_rejects_wrong_length():
    lat = Lattice(GRAM_U)
    with pytest.raises(DimensionMismatch):
        lat.pairing((1, 0, 0), (0, 1))


def test_validate_problem_accepts_desk_data():
    lat, ample = validate_problem(GRAM_U, (2, 1))
    assert lat.norm(ample) == 4


def test_validate_problem_rejects_non_positive_ample():
    with pytest.raises(NonPositiveAmple):
        validate_problem(GRAM_U, (1, -1))
    with pytest.raises(NonPositiveAmple):
        validate_problem(GRAM_U, (0, 0))  # norm 0 counts as non-positive


def test_validate_problem_rejects_ample_on_wall():
    # (1, 1) in L_U pairs to zero with the root (-1, 1)
    with pytest.raises(AmpleOnWall):
        validate_problem(GRAM_U, (1, 1))


def test_random_lattice_draws_are_capped(monkeypatch):
    """When every ample class is rejected, the draw fails instead of looping."""
    import conftest

    def reject(gram, ample):
        raise AmpleOnWall("rejected")

    monkeypatch.setattr(conftest, "validate_problem", reject)
    with pytest.raises(AssertionError, match="every ample class was rejected"):
        random_even_hyperbolic(random.Random(0), lattices=5)


def test_exact_inverse_and_unimodular_guard():
    m = ((2, 1, 0), (1, 1, 0), (0, 3, 1))
    inv = linalg.invert_unimodular(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(3)
    adj, d = linalg.scaled_inverse(((2, 0), (0, 4)))
    want = ((Fraction(1, 2), 0), (0, Fraction(1, 4)))
    assert tuple(tuple(Fraction(x, d) for x in row) for row in adj) == want
    with pytest.raises(NotUnimodular):
        linalg.invert_unimodular(((2, 0), (0, 1)))  # det 2: inverse not integral
    with pytest.raises(ZeroDivisionError):
        linalg.scaled_inverse(((1, 2), (2, 4)))


def test_primitive_ray():
    assert primitive_ray((4, -6)) == (2, -3)
    assert primitive_ray((0, 5)) == (0, 1)
    assert primitive_ray((7,)) == (1,)
    with pytest.raises(ZeroVector):
        primitive_ray((0, 0))


# ---------------------------------------------------------------- value records


def test_record_fields_cannot_be_assigned_or_deleted():
    lat = Lattice(GRAM_P)
    with pytest.raises(AttributeError):
        lat.gram = GRAM_U
    with pytest.raises(AttributeError):
        del lat.gram
    with pytest.raises(AttributeError):
        Bounds().ceiling = 3
    assert lat.gram == GRAM_P


def test_records_compare_and_hash_by_value_within_one_class():
    assert Lattice(GRAM_P) == Lattice(GRAM_P)
    assert hash(Lattice(GRAM_P)) == hash(Lattice(GRAM_P))
    assert Lattice(GRAM_P) != Lattice(GRAM_R)
    assert len({Lattice(GRAM_P), Lattice(GRAM_P), Lattice(GRAM_R)}) == 2
    values = (1, 2, 3, 4, 5)
    entry, table = k3cone.OrbitEntry(*values), k3cone.OrbitTable(*values)
    assert entry == k3cone.OrbitEntry(*values)
    assert entry != table and table != entry
    assert Bounds(*values) != entry


def test_record_construction_by_position_keyword_and_default():
    assert Bounds() == Bounds(12, None, 200, 3, 0)
    assert Bounds(5) == Bounds(ceiling=5) == Bounds(5, samples=200)
    assert Bounds(seed=7).seed == 7 and Bounds(seed=7).ceiling == Bounds.ceiling
    cut = k3cone.OrbitCut(normal=(1, 0), orbit_point=(2, 1), word=(0,))
    assert cut == k3cone.OrbitCut((1, 0), (2, 1), (0,))
    assert (cut.normal, cut.orbit_point, cut.word) == ((1, 0), (2, 1), (0,))
    with pytest.raises(TypeError):
        k3cone.OrbitCut((1, 0), (2, 1))  # a field without a default is missing
    with pytest.raises(TypeError):
        Bounds(depth=3)
    with pytest.raises(TypeError):
        Bounds(1, 2, 3, 4, 5, 6)
    with pytest.raises(TypeError):
        Lattice()


def test_replace_builds_a_new_validated_record():
    lat = Lattice(GRAM_P)
    assert k3cone.replace(Bounds(), ceiling=3) == Bounds(ceiling=3)
    assert k3cone.replace(lat, gram=GRAM_R) == Lattice(GRAM_R)
    assert lat.gram == GRAM_P
    with pytest.raises(OddLattice):
        k3cone.replace(lat, gram=((3, 0), (0, -2)))
    with pytest.raises(TypeError):
        k3cone.replace(lat, rank=2)


def test_record_repr_is_the_field_listing():
    assert repr(Bounds()) == "Bounds(ceiling=12, enumeration=None, samples=200, word_length=3, seed=0)"
    assert repr(Lattice(GRAM_P)) == "Lattice(gram=((4, 0), (0, -2)))"


RECORDS = (
    "RationalCone", "Lattice", "GeneratorReport", "GroupGenerators",
    "SupersingularDatum", "Bounds", "NefDescription", "OrbitCut", "SterkDomain",
    "FundamentalCertificate", "OrbitEntry", "OrbitTable", "Problem",
)


@pytest.mark.parametrize("name", RECORDS)
def test_record_signatures_reject_an_unknown_field(name):
    with pytest.raises(TypeError):
        inspect.signature(getattr(k3cone, name)).bind(no_such_field=None)


def test_record_signatures_name_their_fields():
    with pytest.raises(TypeError):
        inspect.signature(k3cone.Lattice).bind()
    with pytest.raises(TypeError):
        inspect.signature(k3cone.Lattice).bind(GRAM_P, GRAM_P)
    inspect.signature(k3cone.Lattice).bind(gram=GRAM_P)
    assert list(inspect.signature(Bounds).parameters) == [
        "ceiling", "enumeration", "samples", "word_length", "seed",
    ]
