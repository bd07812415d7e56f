"""Chamber-preserving groups: verification, closure, mod-p filters."""

import random

import pytest

import oracles as O
from k3cone import (
    BadPrime,
    DegenerateBasis,
    DimensionMismatch,
    GeneratorRejected,
    GeneratorReport,
    Lattice,
    SupersingularDatum,
    build_group,
    filter_preserving_K,
    nef_walls,
    preserves_K,
    reduce_to_domain,
    verify_generator,
    walk_to_nef,
    weyl,
)
from k3cone import linalg

from conftest import AMPLE_P, AMPLE_R, AMPLE_U, GAMMA_P, GRAM_P, GRAM_R, GRAM_U, G_R, SWAP


@pytest.fixture(scope="module")
def latP():
    return Lattice(GRAM_P)


@pytest.fixture(scope="module")
def latR():
    return Lattice(GRAM_R)


# ---------------------------------------------------------------- verification


def test_verify_generator_accepts_gamma_P(latP):
    rep = verify_generator(latP, AMPLE_P, GAMMA_P)
    assert rep == GeneratorReport(True, True, True)
    assert rep.ok


def test_verify_generator_checks_walls_when_nef_given(latP, monkeypatch):
    """A certified chamber's facets decide, with no search, as ``nef_test`` does."""
    nef = nef_walls(latP, AMPLE_P)
    assert nef.complete
    without = [verify_generator(latP, AMPLE_P, m) for m in (GAMMA_P, ((3, 2), (4, 3)))]
    monkeypatch.setattr(weyl, "nef_test", None)
    assert [verify_generator(latP, AMPLE_P, m, nef) for m in (GAMMA_P, ((3, 2), (4, 3)))] == without
    assert [r.ok for r in without] == [True, False]


def test_verify_generator_flags_chamber_breakers(latP):
    # an automorph of the form that moves H out of its chamber
    rep = verify_generator(latP, AMPLE_P, ((3, 2), (4, 3)))
    assert rep.preserves_form and rep.preserves_component
    assert not rep.chamber_fixed
    assert not rep.ok


def test_verify_generator_flags_component_flip():
    lat = Lattice(GRAM_U)
    rep = verify_generator(lat, AMPLE_U, ((-1, 0), (0, -1)))
    assert rep.preserves_form
    assert not rep.preserves_component
    assert not rep.ok


def test_verify_generator_flags_non_isometry(latP):
    rep = verify_generator(latP, AMPLE_P, ((1, 1), (0, 1)))
    assert not rep.preserves_form
    assert not rep.ok


# rank-2 setups: L_U; L_P in two chambers; L_R and diag(2, -6), whose
# chambers never certify, so ``nef_test`` decides there with or without them
SETUPS_RANK2 = [
    (GRAM_U, AMPLE_U),
    (GRAM_P, AMPLE_P),
    (GRAM_P, (2, -1)),
    (GRAM_R, AMPLE_R),
    (((2, 0), (0, -6)), (4, 1)),
    (((2, 0), (0, -6)), (1, 0)),
]


def _verdicts_agree(lat, ample, matrices, nef):
    """Count (accepted, rejected) after asserting that each matrix gets the
    same report with the chamber ``nef`` as by ``nef_test`` without it."""
    tally = [0, 0]
    for m in matrices:
        with_chamber = verify_generator(lat, ample, m, nef)
        assert with_chamber == verify_generator(lat, ample, m), m
        tally[0 if with_chamber.ok else 1] += 1
    return tally


@pytest.mark.parametrize("gram, ample", SETUPS_RANK2)
def test_chamber_test_alone_decides_every_isometry_in_a_box(gram, ample):
    """A certified chamber's facets decide each isometry as ``nef_test`` does."""
    lat = Lattice(gram)
    isometries = O.isometries_in_box(gram, 12)
    nef = nef_walls(lat, ample)
    accepted, rejected = _verdicts_agree(lat, ample, isometries, nef)
    assert accepted >= 1 and rejected >= 1  # the identity; its negative
    assert nef.complete == (gram in (GRAM_U, GRAM_P))


def test_chamber_test_alone_decides_words_in_walls_and_swap():
    """U + A1^2 at (4, 3, 1, 1): a complete chamber above rank 2, and words in
    the A1 swap (which keeps the chamber) and the wall reflections (which do not)."""
    gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2))
    ample = (4, 3, 1, 1)
    lat = Lattice(gram)
    nef = nef_walls(lat, ample)
    assert nef.complete
    swap = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    # a reflection's columns are the images of the basis vectors
    basis = linalg.identity(4)
    reflections = [tuple(zip(*[O.reflect_word(gram, (w,), e) for e in basis])) for w in nef.walls]
    letters = [swap] + reflections
    words = set(letters)
    for _ in range(2):
        words |= {O.matrix_product(w, m) for w in words for m in letters}
    accepted, rejected = _verdicts_agree(lat, ample, sorted(words), nef)
    assert accepted >= 2 and rejected >= 1  # swap and swap^2


def test_build_group_rejects_with_located_report(latP):
    with pytest.raises(GeneratorRejected) as exc:
        build_group(latP, AMPLE_P, [GAMMA_P, ((1, 1), (0, 1))])
    assert exc.value.index == 1
    assert not exc.value.report.preserves_form


def test_build_group_closes_under_inversion(latR):
    grp = build_group(latR, AMPLE_R, [G_R, SWAP])
    assert grp.matrices() == (G_R, SWAP, ((7, 1), (-1, 0)))
    assert grp.inverses == (2, 1, 0)


def test_build_group_drops_identity_and_duplicates(latP):
    grp = build_group(latP, AMPLE_P, [((1, 0), (0, 1)), GAMMA_P, GAMMA_P])
    # gamma_P is an involution, so no inverse entry appears either
    assert grp.matrices() == (GAMMA_P,)


def test_build_group_empty(latP):
    grp = build_group(latP, AMPLE_P, [])
    assert grp.matrices() == ()


@pytest.mark.parametrize(
    "bad",
    [
        ((3.5, -2), (4, -3)),
        ((True, False), (False, True)),
        # wrong shapes: an extra row, an extra zero row, rows of length 3, a short row
        ((1, 0), (0, 1), (5, 5)),
        ((3, -2), (4, -3), (0, 0)),
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0), (0,)),
    ],
)
def test_build_group_rejects_non_integer_entries(latP, bad):
    """A float or bool entry, or a matrix that is not rank x rank, fails
    every check instead of being truncated or raising."""
    assert verify_generator(latP, AMPLE_P, bad) == GeneratorReport(False, False, False)
    with pytest.raises(GeneratorRejected) as exc:
        build_group(latP, AMPLE_P, [GAMMA_P, bad])
    assert exc.value.index == 1
    assert exc.value.report == verify_generator(latP, AMPLE_P, bad)


def test_supersingular_api_rejects_non_integer_entries(latR):
    with pytest.raises(DimensionMismatch):
        SupersingularDatum(3, ((1.9, 1),))
    with pytest.raises(DimensionMismatch):
        SupersingularDatum(3, ((True, 1),))
    with pytest.raises(DimensionMismatch):
        preserves_K(latR, SupersingularDatum(3, ((1, 1),)), ((0, 1.0), (1, 0)))


# ---------------------------------------------------------------- projection


def test_orbit_descend_desk_values(setups):
    # reduction into the Sterk domain descends by a single generator here
    latP, ampleP, grpP, nefP, domP = setups["P"]
    assert reduce_to_domain(latP, ampleP, grpP, domP, (4, 5)) == ((2, 1), (), (0,))
    latR, ampleR, grpR, nefR, domR = setups["R"]
    assert reduce_to_domain(latR, ampleR, grpR, domR, (-1, 8)) == ((1, 1), (), (2,))


def test_project_already_nef_is_identity_word(latP):
    # A chamber-preserving isometry sends H into the ample chamber, so the
    # reflection walk from its image is empty and leaves the isometry as is.
    image = O.apply_matrix(GAMMA_P, AMPLE_P)
    end, word = walk_to_nef(latP, AMPLE_P, image)
    assert word == ()
    assert end == image
    columns = [O.reflect_word(GRAM_P, word, O.apply_matrix(GAMMA_P, e)) for e in ((1, 0), (0, 1))]
    assert tuple(zip(*columns)) == GAMMA_P


# ---------------------------------------------------------------- supersingular filter


def test_supersingular_datum_validates():
    with pytest.raises(BadPrime):
        SupersingularDatum(2, ((1, 0),))  # must be odd
    with pytest.raises(BadPrime):
        SupersingularDatum(9, ((1, 0),))
    with pytest.raises(BadPrime):
        SupersingularDatum(-3, ((1, 0),))
    with pytest.raises(DegenerateBasis):
        SupersingularDatum(3, ((1, 2), (2, 4)))  # dependent mod 3
    d = SupersingularDatum(7, ((8, -6),))
    assert d.basis == ((1, 1),)  # reduced mod p


def test_preserves_K_desk_values(latR):
    diag = SupersingularDatum(3, ((1, 1),))
    anti = SupersingularDatum(3, ((1, 0),))
    assert preserves_K(latR, diag, SWAP)
    assert not preserves_K(latR, anti, SWAP)
    # cross-check against the dense span oracle
    assert O.preserves_subspace_mod_p(3, ((1, 1),), SWAP)
    assert not O.preserves_subspace_mod_p(3, ((1, 0),), SWAP)


def test_preserves_K_matches_oracle_randomized(latR):
    rng = random.Random(29)
    grp = build_group(latR, AMPLE_R, [G_R, SWAP])
    for p in (3, 5, 7):
        for _ in range(20):
            basis = (tuple(rng.randint(0, p - 1) for _ in range(2)),)
            if all(c == 0 for c in basis[0]):
                continue
            datum = SupersingularDatum(p, basis)
            for m in grp.matrices():
                assert preserves_K(latR, datum, m) == O.preserves_subspace_mod_p(p, basis, m)


def test_filter_preserving_K_counts(latR):
    grp = build_group(latR, AMPLE_R, [G_R, SWAP])
    kept = filter_preserving_K(latR, grp, SupersingularDatum(3, ((1, 1),)))
    assert len(kept) == 3  # every generator fixes the diagonal line mod 3
    assert kept == grp.gens
    none = filter_preserving_K(latR, grp, SupersingularDatum(3, ((1, 0),)))
    assert none == ()


def test_identity_always_preserves_K(latR):
    datum = SupersingularDatum(5, ((1, 2),))
    assert preserves_K(latR, datum, ((1, 0), (0, 1)))


def test_kept_elements_closed_under_inverse(latR):
    """If g preserves the subspace so does g^-1 (finite-index subgroup law)."""
    grp = build_group(latR, AMPLE_R, [G_R, SWAP])
    datum = SupersingularDatum(3, ((1, 1),))
    for m in filter_preserving_K(latR, grp, datum):
        assert preserves_K(latR, datum, linalg.invert_unimodular(m))
