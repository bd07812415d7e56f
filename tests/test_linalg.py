"""The two fraction-free eliminators.

The symmetric one (``ldl``): inertia against numpy, its minors against the
Fraction reduction of the oracles, and the integer identity that rebuilds a
definite form from its minors and pivot rows.  The row one: ``echelon`` and
``scaled_inverse`` against the Fraction Gauss-Jordan of the oracles.  The
kernels that apply group elements: ``mat_mul``, ``mat_vec``, ``identity``
and ``primitive_ray`` against the oracles' products, as tuples.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3cone import Lattice, classes_up_to_degree, linalg
from k3cone.lattice import primitive_ray

import oracles


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices, n = 1..6, some with a zero diagonal or singular."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-5, 5)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entry)
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n > 1 and draw(st.booleans()):  # repeat a row and its column
        src, dst = draw(st.permutations(range(n)))[:2]
        m[dst] = list(m[src])
        for r in range(n):
            m[r][dst] = m[r][src]
    return m


@settings(max_examples=250, deadline=None, derandomize=True)
@given(m=symmetric_matrices())
def test_signature_matches_eigenvalue_signs(m):
    assert linalg.signature(m) == oracles.inertia_by_eigenvalues(m)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(m=symmetric_matrices())
def test_minors_are_the_products_of_the_fraction_pivots(m):
    """minors[k] / minors[k-1] is the k-th pivot of the Fraction reduction, in
    the same order: folds and zero blocks included."""
    minors, rows = linalg.ldl(m)
    diag, _, order = oracles.ldl_over_q(m)
    pivots = [diag[k] for k in order]
    assert len(rows) == len(minors) == len(pivots)
    assert [Fraction(b, a) for a, b in zip((1,) + minors, minors)] == pivots


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ),
    sign=st.sampled_from((1, -1)),
)
def test_ldl_rebuilds_definite_matrices_exactly(b, sign):
    """B^T B + I is definite: its pivots come in index order, and
    sym[i][j] = sum_k rows[k][i] rows[k][j] / (m_(k-1) m_k)."""
    n = len(b)
    m = [
        [sign * (sum(b[k][i] * b[k][j] for k in range(n)) + (i == j)) for j in range(n)]
        for i in range(n)
    ]
    minors, rows = linalg.ldl(m)
    lower = (1,) + minors[:-1]
    assert len(minors) == n and all(sign * a * d > 0 for a, d in zip(lower, minors))
    assert all(row[k] == d and not any(row[:k]) for k, (row, d) in enumerate(zip(rows, minors)))
    rebuilt = [
        [sum(Fraction(r[i] * r[j], a * d) for r, a, d in zip(rows, lower, minors))
         for j in range(n)]
        for i in range(n)
    ]
    assert rebuilt == m


def test_rank_one_lattice_has_an_empty_slice_kernel():
    """A rank-1 lattice's slice form is 0x0: definite, with no pivot at all."""
    assert linalg.ldl(()) == ((), ())
    assert classes_up_to_degree(Lattice(((2,),)), (1,), 2, 5) == ((1,),)


@st.composite
def integer_matrices(draw):
    """1..7 x 1..8 integer matrices with entries up to 10^6, often rank-deficient:
    zero rows, repeated rows and rows that are sums of two others."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    bound = draw(st.sampled_from((3, 100, 10**6)))
    entry = st.integers(-bound, bound) | st.just(0)
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "repeat", "sum")))
        j, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        if kind == "zero":
            m[i] = [0] * cols
        elif kind == "repeat":
            m[i] = list(m[j])
        elif kind == "sum":
            m[i] = [x + y for x, y in zip(m[j], m[k])]
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=integer_matrices())
def test_echelon_is_a_multiple_of_the_rational_rref(m):
    rows, pivots, d = linalg.echelon(m)
    want, want_pivots = oracles.rref_over_q(m)
    assert pivots == want_pivots
    assert rows == [[d * x for x in row] for row in want]
    assert all(rows[i][c] == d for i, c in enumerate(pivots))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=integer_matrices())
def test_inverse_equals_the_rational_inverse(m):
    n = min(len(m), len(m[0]))
    square = [row[:n] for row in m[:n]]
    try:
        want = oracles.inverse_over_q(square)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            linalg.scaled_inverse(square)
        return
    adj, d = linalg.scaled_inverse(square)
    assert tuple(tuple(Fraction(x, d) for x in row) for row in adj) == want


# ---------------------------------------------------------------- the kernels

square_matrices = st.integers(1, 10).flatmap(
    lambda n: st.lists(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n),
                       min_size=n, max_size=n)
)


def _is_tuple_matrix(m):
    return type(m) is tuple and all(type(row) is tuple for row in m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=square_matrices, data=st.data())
def test_products_match_the_oracles_and_are_hashable_tuples(a, data):
    """Callers key dicts by the products, so they must be tuples of tuples."""
    n = len(a)
    entries = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
    b = data.draw(st.lists(entries, min_size=n, max_size=n))
    v = data.draw(entries)
    product, image = linalg.mat_mul(a, b), linalg.mat_vec(a, v)
    assert product == oracles.matrix_product(a, b) and _is_tuple_matrix(product)
    assert image == oracles.apply_matrix(a, v) and type(image) is tuple
    identity = linalg.identity(n)
    assert _is_tuple_matrix(identity)
    assert identity == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert linalg.mat_mul(identity, a) == linalg.mat_mul(a, identity) == tuple(map(tuple, a))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(v=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=10).filter(any),
       scale=st.integers(1, 30))
def test_primitive_ray_divides_out_the_content(v, scale):
    x = [scale * c for c in v]
    ray = primitive_ray(x)
    assert type(ray) is tuple and oracles.is_primitive(ray)
    g = math.gcd(*x)
    assert tuple(g * c for c in ray) == tuple(x)
    assert primitive_ray(ray) == ray
