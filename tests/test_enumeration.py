"""Exact short-vector enumeration against brute-force box oracles.

The package enumerates complete solution sets {x : x.x = n, x.H = d} by
slicing along a unimodular coordinate in which the degree form is a single
variable; the oracle just scans integer boxes with numpy.  Inside any box the
two must agree exactly.
"""

import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from k3cone import (
    GeometryError,
    Lattice,
    OppositeCone,
    OutsidePositiveCone,
    ZeroVector,
    check_positive_closure,
    classes_up_to_degree,
    enumeration,
    isotropics_up_to_degree,
    linalg,
    rational_isotropic_rays,
    roots_up_to_degree,
    separating_roots,
)

from conftest import (
    AMPLE_P,
    AMPLE_R,
    AMPLE_U,
    GRAM_P,
    GRAM_R,
    GRAM_U,
    changed_basis,
    norm_degree,
    random_even_hyperbolic,
    separating_bound,
)

BOX = 30


def in_box(vectors, box=BOX):
    return sorted(v for v in vectors if max(abs(c) for c in v) <= box)


# ---------------------------------------------------------------- frozen desk values


def test_roots_desk_values():
    latU, latP, latR = Lattice(GRAM_U), Lattice(GRAM_P), Lattice(GRAM_R)
    assert roots_up_to_degree(latU, AMPLE_U, 8) == ((-1, 1),)
    assert roots_up_to_degree(latP, AMPLE_P, 25) == ((0, -1), (2, -3), (2, 3))
    # norm -2 is not represented by the L_R form at all (proof: obstruction mod 3)
    assert roots_up_to_degree(latR, AMPLE_R, 72) == ()
    assert O.residue_obstruction(GRAM_R, -2, 3)


def test_classes_desk_values():
    latP = Lattice(GRAM_P)
    assert classes_up_to_degree(latP, AMPLE_P, 2, 56) == ((1, -1), (1, 1), (5, -7), (5, 7))
    # imprimitive vectors are kept: no norm-8 class up to degree 56 is primitive
    norm8 = classes_up_to_degree(latP, AMPLE_P, 8, 56)
    assert norm8 == ((2, -2), (2, 2), (10, 14))
    assert not any(math.gcd(*v) == 1 for v in norm8)


def test_isotropics_desk_values():
    latU = Lattice(GRAM_U)
    assert isotropics_up_to_degree(latU, AMPLE_U, 16) == ((0, 1), (1, 0))
    latP = Lattice(GRAM_P)
    assert isotropics_up_to_degree(latP, AMPLE_P, 100) == ()


def test_rational_isotropic_rays_desk_values():
    assert rational_isotropic_rays(Lattice(GRAM_U), AMPLE_U) == ((0, 1), (1, 0))
    # discriminants 8 and 45 are not perfect squares
    assert rational_isotropic_rays(Lattice(GRAM_P), AMPLE_P) == ()
    assert rational_isotropic_rays(Lattice(GRAM_R), AMPLE_R) == ()
    assert not O.rank2_isotropic_directions_are_rational(GRAM_P)
    assert not O.rank2_isotropic_directions_are_rational(GRAM_R)


# ---------------------------------------------------------------- oracle equivalence


@pytest.mark.parametrize(
    "gram,ample",
    [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P), (GRAM_R, AMPLE_R)],
    ids=["U", "P", "R"],
)
def test_grid_matches_box_oracle(gram, ample):
    lat = Lattice(gram)
    norms = [-4, -2, 0, 2, 4]
    degrees = list(range(1, 13))
    expected = O.box_by_norm_degree(gram, ample, BOX, norms, degrees)
    for n in norms:
        for d in degrees:
            assert in_box(norm_degree(lat, ample, n, d)) == expected[(n, d)], (n, d)


def test_grid_matches_box_oracle_random_rank3():
    rng = random.Random(7)
    checked = 0
    while checked < 5:
        got = random_even_hyperbolic(rng)
        if got is None:
            continue
        lat, ample = got
        checked += 1
        expected = O.box_by_norm_degree(lat.gram, ample, 12, [-2, 0, 2], [1, 2, 3, 4])
        for key, want in expected.items():
            n, d = key
            assert in_box(norm_degree(lat, ample, n, d), 12) == want, (lat.gram, key)


def test_roots_match_box_oracle():
    for gram, ample in [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P), (GRAM_R, AMPLE_R)]:
        lat = Lattice(gram)
        bound = 2 * lat.norm(ample)
        assert in_box(roots_up_to_degree(lat, ample, bound)) == O.box_roots(
            gram, ample, BOX, max_degree=bound
        )


def test_isotropics_match_box_oracle():
    for gram, ample in [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P), (GRAM_R, AMPLE_R)]:
        lat = Lattice(gram)
        bound = 4 * lat.norm(ample)
        assert in_box(isotropics_up_to_degree(lat, ample, bound)) == O.box_isotropics(
            gram, ample, BOX, max_degree=bound
        )


def test_enumeration_is_complete_beyond_any_box():
    """The degree-sliced enumeration must find vectors far outside small boxes."""
    latP = Lattice(GRAM_P)
    hits = norm_degree(latP, AMPLE_P, 2, 26)
    assert (5, 7) in hits  # |coords| > 4, invisible to a box-4 scan
    assert all(latP.norm(v) == 2 and latP.pairing(AMPLE_P, v) == 26 for v in hits)


# ---------------------------------------------------------------- positive-cone guardrails


def test_check_positive_closure_errors():
    lat = Lattice(GRAM_U)
    with pytest.raises(ZeroVector):
        check_positive_closure(lat, AMPLE_U, (0, 0))
    with pytest.raises(OutsidePositiveCone):
        check_positive_closure(lat, AMPLE_U, (1, -1))
    with pytest.raises(OppositeCone):
        check_positive_closure(lat, AMPLE_U, (-2, -1))
    assert check_positive_closure(lat, AMPLE_U, (1, 0)) == (1, 0)  # isotropic boundary ok


def test_separating_degree_bound_desk_values():
    latU, latP = Lattice(GRAM_U), Lattice(GRAM_P)
    assert separating_bound(latU, AMPLE_U, (1, 3)) == 2
    assert separating_bound(latP, AMPLE_P, (8, 11)) == 14
    assert separating_bound(latP, AMPLE_P, (1, 1)) == 2


def test_separating_roots_desk_values():
    latU, latP = Lattice(GRAM_U), Lattice(GRAM_P)
    assert separating_roots(latU, AMPLE_U, (1, 3)) == ((-1, 1),)
    assert separating_roots(latP, AMPLE_P, (8, 11)) == ((2, 3),)
    assert separating_roots(latP, AMPLE_P, (1, 1)) == ()


def test_separating_bound_covers_all_separating_roots():
    """Certified bound property: every root with d.x < 0 has degree <= the bound.

    Checked against the box oracle, which sees all roots with |coords| <= 30.
    """
    rng = random.Random(31)
    cases = [(GRAM_U, AMPLE_U), (GRAM_P, AMPLE_P), (GRAM_R, AMPLE_R)]
    for gram, ample in cases:
        lat = Lattice(gram)
        for _ in range(50):
            x = tuple(rng.randint(-9, 9) for _ in range(2))
            try:
                check_positive_closure(lat, ample, x)
            except GeometryError:
                continue
            b = separating_bound(lat, ample, x)
            for d in O.box_roots(gram, ample, BOX):
                if O.pairing(gram, d, x) < 0:
                    assert O.pairing(gram, ample, d) <= b


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 4))
def test_separating_degree_bound_equals_fraction_reference(seed, rank):
    """The integer maximization equals the Fraction formula of the oracle.

    Points: H and a multiple of it, isotropic classes, points on root walls
    (``2H + (H.delta) delta``), and random positive-cone points.
    """
    rng = random.Random(seed)
    lat, ample = random_even_hyperbolic(rng, rank)
    points = [ample, tuple(3 * c for c in ample)]
    points += O.box_isotropics(lat.gram, ample, 3)
    for delta in roots_up_to_degree(lat, ample, 6):
        hd = lat.pairing(ample, delta)
        points.append(tuple(2 * h + hd * d for h, d in zip(ample, delta)))
    for _ in range(400):
        x = tuple(rng.randint(-12, 12) for _ in range(rank))
        if lat.norm(x) >= 0 and lat.pairing(ample, x) > 0:
            points.append(x)
    for x in points:
        want = O.separating_degree_bound(lat.gram, ample, x)
        assert separating_bound(lat, ample, x) == want, x


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 6))
def test_slice_setup_clears_the_rational_inverse(seed, rank):
    """``delta`` is the lcm of the denominators of Q^-1, ``centre`` is delta Q^-1 lin."""
    lat, ample = random_even_hyperbolic(random.Random(seed), rank)
    s = enumeration._Slice(lat, ample)
    q = [[-lat.pairing(a, b) for b in s.kernel] for a in s.kernel]
    lin = [lat.pairing(s.base, b) for b in s.kernel]
    inv = O.inverse_over_q(q)
    assert s.delta == math.lcm(*(x.denominator for row in inv for x in row))
    assert s.centre == [s.delta * sum(x * y for x, y in zip(row, lin)) for row in inv]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 5))
def test_slice_integers_equal_the_fraction_reference(seed, rank):
    """The search integers read from the fraction-free minors equal the ones
    cleared from the Fraction reduction, so the Fincke-Pohst tree is pinned.

    ``pu`` is compared above its diagonal, the only entries a search reads.
    """
    lat, ample = random_even_hyperbolic(random.Random(seed), rank)
    s = enumeration._Slice(lat, ample)
    q = [[-lat.pairing(a, b) for b in s.kernel] for a in s.kernel]
    diag, ratios, order = O.ldl_over_q(q)
    m = len(q)
    assert order == list(range(m)) and all(d > 0 for d in diag)
    p = math.lcm(*(x.denominator for row in ratios for x in row))
    lc = math.lcm(*(x.denominator for x in diag))
    assert (s.p, s.top) == (p, p * p * s.delta * lc)
    assert s.diag == [lc * d for d in diag]
    assert all(s.pu[i][j] == p * ratios[i][j] for i in range(m) for j in range(i + 1, m))


@settings(max_examples=45, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(2, 6),
    norm=st.sampled_from((-2, 0, 2)),
)
def test_classes_follow_a_change_of_basis(seed, rank, norm):
    """On (P^T G P, P^-1 H) the classes are the P^-1-images of those on (G, H).

    A new basis gives the slice another kernel and so another search tree;
    rank 6 runs three levels above the loop that holds the last two.
    """
    rng = random.Random(seed)
    lat, ample = random_even_hyperbolic(rng, rank)
    bound = {2: 60, 3: 30, 4: 16, 5: 12, 6: 10}[rank]
    gram, moved, inverse = changed_basis(rng, lat.gram, ample)
    want = sorted(linalg.mat_vec(inverse, x) for x in classes_up_to_degree(lat, ample, norm, bound))
    assert list(classes_up_to_degree(Lattice(gram), moved, norm, bound)) == want


def test_separating_roots_equal_oracle_filter():
    rng = random.Random(43)
    latP = Lattice(GRAM_P)
    for _ in range(50):
        x = tuple(rng.randint(-9, 9) for _ in range(2))
        try:
            check_positive_closure(latP, AMPLE_P, x)
        except GeometryError:
            continue
        got = separating_roots(latP, AMPLE_P, x)
        want = [d for d in O.box_roots(GRAM_P, AMPLE_P, BOX) if O.pairing(GRAM_P, d, x) < 0]
        assert in_box(got) == sorted(want)


# ---------------------------------------------------------------- random lattices, whole slices


def ellipsoid_box(gram, ample, norms, max_degree):
    """A coordinate box holding every x with x.x in norms and 0 < x.H <= max_degree.

    The majorant M = 2 (GH)(GH)^T / H^2 - G is positive definite, takes the
    value 2 d^2 / H^2 - n on such an x, and M^-1 = G^-1 M G^-1 bounds each
    coordinate by Cauchy-Schwarz.  Floats are fine here: one unit of slack.
    """
    g = np.array(gram, dtype=float)
    a = g @ np.array(ample, dtype=float)
    h2 = float(a @ np.array(ample, dtype=float))
    majorant = 2 * np.outer(a, a) / h2 - g
    reach = max(2 * max_degree**2 / h2 - n for n in norms)
    return int(np.sqrt(reach * np.linalg.inv(majorant).diagonal().max())) + 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(2, 4))
def test_whole_slices_match_box_oracle(seed, rank):
    """Inside a box that holds the whole slice ellipsoid the oracle is complete."""
    lat, ample = random_even_hyperbolic(random.Random(seed), rank)
    norms = (-4, -2, 0, 2)
    cap = {2: 40, 3: 20, 4: 10}[rank]
    top = max(d for d in range(1, 7) if d == 1 or ellipsoid_box(lat.gram, ample, norms, d) <= cap)
    box = ellipsoid_box(lat.gram, ample, norms, top)
    degrees = range(1, top + 1)
    expected = O.box_by_norm_degree(lat.gram, ample, box, norms, degrees)
    for n in norms:
        for d in degrees:
            assert list(norm_degree(lat, ample, n, d)) == expected[(n, d)], (n, d)
        want = sorted(v for d in degrees for v in expected[(n, d)])
        assert list(classes_up_to_degree(lat, ample, n, top)) == want, n


def test_stream_answers_bounds_in_any_order(monkeypatch):
    """Bounds asked out of order give the cold answers; a smaller bound scans nothing."""
    lat, ample = Lattice(((2, 0, 0), (0, -4, 0), (0, 0, -6))), (3, 1, 1)
    bounds = (40, 10, 80, 20)
    cold = {}
    for b in bounds:
        enumeration._slice_for.cache_clear()
        cold[b] = (roots_up_to_degree(lat, ample, b), isotropics_up_to_degree(lat, ample, b))
    enumeration._slice_for.cache_clear()
    scanned = []
    query = enumeration._Slice.query

    def counted(sl, norm, degree):
        scanned.append(degree)
        return query(sl, norm, degree)

    monkeypatch.setattr(enumeration._Slice, "query", counted)
    for b in bounds:
        del scanned[:]
        warm = (roots_up_to_degree(lat, ample, b), isotropics_up_to_degree(lat, ample, b))
        assert warm == cold[b], b
        if b < 80:
            assert scanned == ([] if b < 40 else list(range(1, 41)) * 2), b
    assert cold[80][0] and cold[10][0] != cold[80][0]


def test_guards_raise_typed_errors_under_python_O():
    """The enumeration guards are exceptions, not asserts that -O would strip."""
    script = textwrap.dedent(
        """
        from k3cone import (DimensionMismatch, Lattice, NonPositiveAmple, ZeroVector,
                            enumeration, rational_isotropic_rays)

        assert False, "this child must run with assertions stripped"
        u = Lattice(((0, 1), (1, 0)))
        cases = [
            (ZeroVector, lambda: enumeration._slice_for(u, (0, 0)).query(-2, 1)),
            (NonPositiveAmple, lambda: enumeration._slice_for(u, (1, -1)).query(-2, 1)),
            # H = (1, 0) is isotropic: the slice form is the zero block, with no minor
            (NonPositiveAmple, lambda: enumeration._slice_for(u, (1, 0)).query(0, 1)),
            (DimensionMismatch, lambda: rational_isotropic_rays(
                Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -2))), (1, 0, 0))),
        ]
        for error, call in cases:
            try:
                call()
            except error:
                print(error.__name__)
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        "ZeroVector", "NonPositiveAmple", "NonPositiveAmple", "DimensionMismatch"
    ]


def test_invariant_guards_raise_typed_errors_under_python_O():
    """The walk, orbit and report guards survive -O as BrokenInvariant."""
    script = textwrap.dedent(
        """
        import k3cone.sterk, k3cone.weyl
        from k3cone import (BrokenInvariant, Lattice, build_group, build_report, nef_walls,
                            sterk_domain, walk_to_nef)

        assert False, "this child must run with assertions stripped"
        u, ample = Lattice(((0, 1), (1, 0))), (2, 1)
        nef = nef_walls(u, ample)
        group = build_group(u, ample, [], nef)
        # each stub breaks the property its guard checks
        k3cone.weyl._root_stream = lambda lat, ample, bound: [(0, -1)]  # raises the degree
        k3cone.sterk.orbit_of_ample = lambda lat, ample, group, bound: {ample: (), (0, 2): (0,)}
        cases = [
            lambda: walk_to_nef(u, ample, (1, 3)),
            lambda: sterk_domain(u, ample, group, nef),
            lambda: build_report("walls", "0" * 64, {}, {"complete": 1}, []),
        ]
        for call in cases:
            try:
                call()
            except BrokenInvariant:
                print(BrokenInvariant.__name__)
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["BrokenInvariant"] * 3
