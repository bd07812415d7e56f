"""Orbit classification under the chamber-preserving group, plus isotropic search."""

import pytest

import oracles as O
from k3cone import (
    GeometryError,
    Lattice,
    UnboundedQuery,
    classes_up_to_degree,
    elliptic_orbits,
    find_isotropic,
    genus_orbits,
    nodal_orbits,
)
from k3cone.orbits import ISOTROPY_ADVICE

from conftest import AMPLE_P, AMPLE_R, GRAM_P, GRAM_R, GRAM_U

RANK5_GRAM = (
    (0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (0, 0, -2, 0, 0),
    (0, 0, 0, -2, 0),
    (0, 0, 0, 0, -2),
)


# ---------------------------------------------------------------- nodal


def test_nodal_counts(setups):
    for name, count in (("U", 1), ("P", 1), ("R", 0)):
        lat, ample, grp, nef, dom = setups[name]
        tab = nodal_orbits(lat, ample, grp, nef, dom)
        assert tab.kind == "nodal"
        assert len(tab.entries) == count, name
        assert tab.stable


def test_nodal_U(setups):
    lat, ample, grp, nef, dom = setups["U"]
    tab = nodal_orbits(lat, ample, grp, nef, dom)
    (entry,) = tab.entries
    assert entry.representative == (-1, 1)
    assert entry.members == ((-1, 1),)
    assert tab.search_bound == 8


def test_nodal_P_merges_both_walls(setups):
    """gamma_P maps the wall (0,-1) to (2,3): one orbit of nodal classes."""
    lat, ample, grp, nef, dom = setups["P"]
    tab = nodal_orbits(lat, ample, grp, nef, dom)
    (entry,) = tab.entries
    assert entry.representative == (0, -1)
    assert entry.members == ((0, -1), (2, 3))
    # oracle: the orbit ball of either wall contains the other
    assert (2, 3) in O.orbit_ball(grp.matrices(), (0, -1), 4)


def test_nodal_R_empty_is_stable(setups):
    lat, ample, grp, nef, dom = setups["R"]
    tab = nodal_orbits(lat, ample, grp, nef, dom)
    assert tab.entries == ()
    assert tab.stable  # rootlessness was stable across a doubling


# ---------------------------------------------------------------- elliptic


def test_elliptic_counts(setups):
    for name, count in (("U", 1), ("P", 0), ("R", 0)):
        lat, ample, grp, nef, dom = setups[name]
        tab = elliptic_orbits(lat, ample, grp, dom)
        assert tab.kind == "elliptic"
        assert len(tab.entries) == count, name
        assert tab.stable


def test_elliptic_U_canonicalizes_through_the_wall(setups):
    lat, ample, grp, nef, dom = setups["U"]
    tab = elliptic_orbits(lat, ample, grp, dom)
    (entry,) = tab.entries
    assert entry.representative == (1, 0)
    assert entry.members == ((0, 1), (1, 0))
    # (0,1) reaches the representative by one reflection, no group word
    assert entry.source == (0, 1)
    assert entry.reflections == ((-1, 1),)
    assert entry.word == ()


def test_elliptic_members_are_primitive_isotropic(setups):
    lat, ample, grp, nef, dom = setups["U"]
    tab = elliptic_orbits(lat, ample, grp, dom)
    for e in tab.entries:
        for v in e.members:
            assert lat.norm(v) == 0
            assert O.is_primitive(v)


# ---------------------------------------------------------------- genus tables


def test_genus2_counts_and_members(setups):
    expected = {
        "U": ((1, 1), ((1, 1),)),
        "P": ((1, 1), ((1, -1), (1, 1), (5, -7), (5, 7))),
        "R": ((0, 1), ((-1, 7), (0, 1), (1, 0), (7, -1))),
    }
    for name, (rep, members) in expected.items():
        lat, ample, grp, nef, dom = setups[name]
        tab = genus_orbits(lat, ample, grp, nef, dom, 2)
        assert tab.kind == "genus" and tab.genus == 2
        (entry,) = tab.entries
        assert entry.representative == rep, name
        assert entry.members == members, name
        assert tab.stable


def test_genus2_matches_orbit_oracle(setups):
    for name in ("U", "P", "R"):
        lat, ample, grp, nef, dom = setups[name]
        tab = genus_orbits(lat, ample, grp, nef, dom, 2)
        cands = classes_up_to_degree(lat, ample, 2, tab.search_bound)
        count, _ = O.orbit_class_count(lat.gram, ample, grp.matrices(), cands, 40)
        assert len(tab.entries) == count, name


def test_genus_members_have_the_right_norm(setups):
    lat, ample, grp, nef, dom = setups["P"]
    for genus in (2, 3):
        tab = genus_orbits(lat, ample, grp, nef, dom, genus)
        for e in tab.entries:
            for v in e.members:
                assert lat.norm(v) == 2 * genus - 2


def test_genus_delegates_to_special_tables(setups):
    lat, ample, grp, nef, dom = setups["P"]
    assert genus_orbits(lat, ample, grp, nef, dom, 0).entries == nodal_orbits(
        lat, ample, grp, nef, dom
    ).entries
    assert genus_orbits(lat, ample, grp, nef, dom, 1).entries == elliptic_orbits(
        lat, ample, grp, dom
    ).entries


def test_negative_genus_rejected(setups):
    lat, ample, grp, nef, dom = setups["P"]
    with pytest.raises(GeometryError):
        genus_orbits(lat, ample, grp, nef, dom, -1)


def test_entry_words_replay_to_representative(setups):
    """source --reflections--> chamber, --group word--> representative."""
    for name in ("U", "P", "R"):
        lat, ample, grp, nef, dom = setups[name]
        mats = grp.matrices()
        for genus in (2, 3, 4):
            tab = genus_orbits(lat, ample, grp, nef, dom, genus)
            for e in tab.entries:
                v = e.source
                for delta in e.reflections:
                    v = tuple(v[i] + lat.pairing(v, delta) * delta[i] for i in range(lat.rank))
                for i in e.word:
                    v = O.apply_matrix(mats[i], v)
                assert v == e.representative


def test_orbit_tables_need_a_bound_of_at_least_1(setups):
    """Doubling a bound of 0 gives 0, so stability would compare two empty
    tables; L_U's one elliptic orbit, (1, 0), already shows at bound 1."""
    lat, ample, grp, nef, dom = setups["U"]
    for bound in (0, -3):
        with pytest.raises(UnboundedQuery):
            elliptic_orbits(lat, ample, grp, dom, bound)
        with pytest.raises(UnboundedQuery):
            genus_orbits(lat, ample, grp, nef, dom, 2, bound)
    tab = elliptic_orbits(lat, ample, grp, dom, 1)
    assert [e.representative for e in tab.entries] == [(1, 0)]
    assert tab.stable


# ---------------------------------------------------------------- isotropic search


def test_find_isotropic_values():
    assert find_isotropic(Lattice(GRAM_U), 1) == (1, 0)
    assert find_isotropic(Lattice(GRAM_P), 100) is None
    assert find_isotropic(Lattice(GRAM_R), 50) is None
    assert find_isotropic(Lattice(RANK5_GRAM), 1) == (1, 0, 0, 0, 0)


def test_find_isotropic_prefers_short_then_lex_largest():
    # ties on |coords| sum break toward the lexicographically larger vector
    lat = Lattice(GRAM_U)
    got = find_isotropic(lat, 3)
    assert got == (1, 0)  # beats (0, 1) on the lex rule at equal 1-norm


def test_find_isotropic_box_must_be_positive():
    with pytest.raises(UnboundedQuery):
        find_isotropic(Lattice(GRAM_U), 0)


def test_find_isotropic_output_is_primitive_isotropic():
    lat = Lattice(RANK5_GRAM)
    v = find_isotropic(lat, 2)
    assert lat.norm(v) == 0
    assert O.is_primitive(v)


def test_isotropy_advice_mentions_the_rank_threshold():
    assert "rank 5" in ISOTROPY_ADVICE
