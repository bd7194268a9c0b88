"""Exact subspace computations and nested orthonormalization.

The nested chain's exact integer columns come from ``exactla``; their
float checks read the orthonormal matrix that ``OrthogonalTransform``
renders from them.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcunlink import exactla
from qcunlink.errors import InvariantViolation
from qcunlink.exactla import (
    Subspace,
    kernel,
    kernel_and_row_space,
    orthonormalize_nested,
    psd_violation,
    rank,
    subspace_sum,
)
from qcunlink.unlink import OrthogonalTransform

from exact_oracles import (
    integer_rows,
    intersect,
    kernel_fraction,
    nested_columns_fraction,
    orthogonal_complement,
    psd_violation_fraction,
    rref_fraction,
    same_space,
)


def row_space(rows, ambient):
    """The span of integer rows."""
    return kernel_and_row_space(rows, ambient)[1]


def span(vectors, ambient):
    return row_space(integer_rows(vectors), ambient)


def zero(ambient):
    return row_space([], ambient)


def full(ambient):
    return span([[int(i == j) for j in range(ambient)] for i in range(ambient)], ambient)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def test_kernel_single_constraint():
    space = kernel([[1, 1]], 2)
    assert same_space(space, span([(1, -1)], 2))
    # canonical normalization: leading entry 1
    assert space.basis == ((Fraction(1), Fraction(-1)),)


def test_kernel_identity_trivial():
    assert kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3).dimension == 0


def test_kernel_zero_row_full():
    space = kernel([[0, 0]], 2)
    assert space.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_kernel_no_rows_is_full_space():
    assert kernel([], 3).dimension == 3


def test_kernel_validates_rows():
    # rows are integer vectors of the declared length
    with pytest.raises(ValueError, match="length 1"):
        kernel([[1, 0], [1]], 2)
    for entry in (0.5, Fraction(1, 2)):
        with pytest.raises(TypeError, match=type(entry).__name__):
            kernel([[entry, 1]], 2)


# ---------------------------------------------------------------------------
# Complement, intersection, sum
# ---------------------------------------------------------------------------


def test_complement_examples():
    # the kernel of a matrix is the complement of its row space
    null, rows = kernel_and_row_space([(1, -1), (2, -2)], 2)
    assert same_space(null, span([(1, 1)], 2)) and same_space(rows, span([(1, -1)], 2))
    null, rows = kernel_and_row_space([], 3)
    assert null.dimension == 3 and rows.dimension == 0
    null, rows = kernel_and_row_space([(0, 2, 0), (1, 0, 0)], 3)
    assert same_space(null, span([(0, 0, 1)], 3))
    assert rows.basis == ((1, 0, 0), (0, 1, 0))


def test_intersect_examples():
    a = span([(1, 1)], 2)
    assert same_space(intersect(a, a), a)
    assert intersect(span([(1, 0)], 2), span([(0, 1)], 2)).dimension == 0
    assert same_space(
        intersect(span([(1, 0, 0), (0, 1, 0)], 3), span([(0, 1, 0), (0, 0, 1)], 3)),
        span([(0, 1, 0)], 3),
    )


def test_sum_examples():
    assert subspace_sum(span([(1, 1)], 2), span([(1, -1)], 2)).dimension == 2
    s = span([(1, 2, 3)], 3)
    assert same_space(subspace_sum(s, zero(3)), s)
    assert same_space(
        subspace_sum(span([(1, 0, 0)], 3), span([(1, 1, 0)], 3)), span([(1, 0, 0), (0, 1, 0)], 3)
    )


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError, match="ambient"):
        intersect(span([(1,)], 1), span([(1, 0)], 2))
    with pytest.raises(ValueError, match="ambient"):
        subspace_sum(span([(1,)], 1), span([(1, 0)], 2))


def test_kernel_and_row_space_rejects_floats():
    with pytest.raises(TypeError, match="float"):
        kernel_and_row_space([[0.5, 1.0]], 2)


def test_public_functions_reject_fraction_entries():
    # matrices enter over int (kernel: test_kernel_validates_rows); nothing scales rational rows
    half = Fraction(1, 2)
    calls = [
        lambda: kernel_and_row_space([[1, 0], [half, 1]], 2),
        lambda: subspace_sum(Subspace(2, ((1, half),), (0,)), zero(2)),
        lambda: psd_violation([[half]]),
        lambda: rank([[1, 0], [half, 1]], 2),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="Fraction"):
            call()


# ---------------------------------------------------------------------------
# Nested orthonormalization
# ---------------------------------------------------------------------------


def rendered(columns):
    """The float matrix Q that a transform renders from the integer columns, as an array."""
    n = len(columns)
    return np.array(OrthogonalTransform(columns, u_block=(), v_block=()).matrix).reshape(n, n)


def orthogonality_error(q):
    return float(np.max(np.abs(q.T @ q - np.eye(q.shape[0]))))


def prefix_residual(q, space):
    """Worst relative projection residual of the basis onto the prefix columns."""
    cols = q[:, : space.dimension]
    worst = 0.0
    for vector in space.basis:
        b = np.array([float(x) for x in vector])
        resid = b - cols @ (cols.T @ b)
        worst = max(worst, float(np.linalg.norm(resid) / np.linalg.norm(b)))
    return worst


def test_orthonormalize_single_element():
    q = rendered(orthonormalize_nested([span([(1, 1)], 2)], 2))
    s = 1 / np.sqrt(2.0)
    assert np.allclose(np.abs(q), [[s, s], [s, s]])
    assert abs(abs(q[0, 0] * q[0, 1] + q[1, 0] * q[1, 1])) <= 1e-12
    assert orthogonality_error(q) <= 1e-10


def test_orthonormalize_zero_chain():
    q = rendered(orthonormalize_nested([zero(3)], 3))
    assert q.shape == (3, 3)
    assert orthogonality_error(q) <= 1e-10


@pytest.mark.parametrize("ambient", [0, 1, 3])
def test_orthonormalize_shape_is_square(ambient):
    for chain in ([], [zero(ambient)], [full(ambient)]):
        columns = orthonormalize_nested(chain, ambient)
        assert len(columns) == ambient
        assert rendered(columns).shape == (ambient, ambient)


def test_orthonormalize_two_element_chain():
    chain = [span([(0, 0, 1)], 3), span([(0, 0, 1), (1, 1, 0)], 3)]
    q = rendered(orthonormalize_nested(chain, 3))
    s = 1 / np.sqrt(2.0)
    assert np.allclose(np.abs(q[:, 0]), [0, 0, 1])
    assert np.allclose(np.abs(q[:, 1]), [s, s, 0])
    # third column completes R^3: orthogonal to both, so +-(1/sqrt2)(1, -1, 0)
    assert np.allclose(np.abs(q[:, 2]), [s, s, 0])
    assert abs(float(q[0, 2]) + float(q[1, 2])) <= 1e-12
    assert orthogonality_error(q) <= 1e-10
    for space in chain:
        assert prefix_residual(q, space) <= 1e-9


def test_orthonormalize_rejects_unnested_chain():
    # after each element the columns span the sum so far, so an element
    # that misses a predecessor leaves more columns than its dimension
    with pytest.raises(ValueError, match="nested"):
        orthonormalize_nested([span([(1, 0)], 2), span([(0, 1)], 2)], 2)
    with pytest.raises(ValueError, match="nested"):
        orthonormalize_nested([full(3), span([(1, 0, 0)], 3)], 3)
    with pytest.raises(ValueError, match="ambient"):
        orthonormalize_nested([span([(1, 0)], 2)], 3)
    # an element repeated is nested in itself and adds no column
    line = span([(1, 2)], 2)
    columns = orthonormalize_nested([line, line], 2)
    assert columns == orthonormalize_nested([line], 2) == ((1, 2), (2, -1))
    assert_exact_columns(rendered(columns), columns)


# ---------------------------------------------------------------------------
# PSD decision
# ---------------------------------------------------------------------------


def quadratic_value(a, v):
    return sum(v[i] * a[i][j] * v[j] for i in range(len(a)) for j in range(len(a)))


def test_psd_identity():
    assert psd_violation([[1, 0], [0, 1]]) is None


def test_psd_negative_diagonal():
    v = psd_violation([[-1]])
    assert v is not None and quadratic_value([[Fraction(-1)]], v) < 0


def test_psd_indefinite_off_diagonal():
    a = [[0, 1], [1, 0]]
    v = psd_violation(a)
    assert v is not None and quadratic_value(a, v) < 0


def test_psd_schur_detects_hidden_negativity():
    a = [[1, 2], [2, 1]]
    v = psd_violation(a)
    assert v is not None and quadratic_value(a, v) < 0


def test_psd_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        psd_violation([[0, 1], [2, 0]])


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_psd_matches_eigenvalue_oracle(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.integers(-4, 5, size=(n, n))
    sym = raw + raw.T
    a = [[int(sym[i, j]) for j in range(n)] for i in range(n)]
    violation = psd_violation(a)
    eigenvalues = np.linalg.eigvalsh(sym.astype(float))
    if violation is None:
        assert eigenvalues.min() >= -1e-9
    else:
        assert quadratic_value(a, violation) < 0
        assert eigenvalues.min() < 1e-9


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_rank_nullity_with_numpy_oracle(rows, cols, seed):
    rng = np.random.default_rng(seed)
    raw = rng.integers(-5, 6, size=(rows, cols))
    m = raw.tolist()
    null = kernel(m, cols)
    expected = np.linalg.matrix_rank(raw.astype(float))
    assert null.dimension + expected == cols
    assert rank(m, cols) == expected
    for vector in null.basis:
        assert all(sum(row[j] * vector[j] for j in range(cols)) == 0 for row in m)


def random_subspace(rng: random.Random, ambient: int) -> Subspace:
    count = rng.randint(0, ambient)
    vectors = [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(count)]
    return row_space(vectors, ambient)


def test_double_complement_is_identity():
    rng = random.Random(11)
    for _ in range(60):
        ambient = rng.randint(1, 6)
        s = random_subspace(rng, ambient)
        # the row space of a basis is the subspace itself, basis for basis
        complement, rows = kernel_and_row_space(s.rows, ambient)
        assert rows == s
        assert kernel_and_row_space(complement.rows, ambient) == (s, complement)
        assert complement == orthogonal_complement(s)


def test_dimension_formula():
    rng = random.Random(13)
    for _ in range(60):
        ambient = rng.randint(1, 6)
        a = random_subspace(rng, ambient)
        b = random_subspace(rng, ambient)
        assert (
            a.dimension + b.dimension
            == subspace_sum(a, b).dimension + intersect(a, b).dimension
        )


def test_orthonormalize_random_nested_chains():
    rng = random.Random(17)
    for _ in range(40):
        ambient = rng.randint(2, 7)
        vectors = [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(ambient)]
        inner = row_space(vectors[: rng.randint(0, ambient - 1)], ambient)
        outer = subspace_sum(inner, row_space(vectors, ambient))
        chain = [inner, outer]
        columns = orthonormalize_nested(chain, ambient)
        q = rendered(columns)
        assert orthogonality_error(q) <= 1e-10
        for space in chain:
            assert prefix_residual(q, space) <= 1e-9
            assert same_space(row_space(columns[: space.dimension], ambient), space)
        assert_exact_columns(q, columns)


def assert_exact_columns(q, columns):
    """Integer columns: primitive, pairwise exactly orthogonal, normalized into q."""
    n = q.shape[0]
    assert len(columns) == n
    for j, w in enumerate(columns):
        assert len(w) == n and all(type(x) is int for x in w)
        assert math.gcd(*w) == 1
        assert next(x for x in w if x) > 0
        norm = math.sqrt(float(sum(x * x for x in w)))
        assert q[:, j].tolist() == [float(x) / norm for x in w]
        for k in range(j):
            assert sum(a * b for a, b in zip(w, columns[k])) == 0


def test_orthonormalize_lost_dimension_raises(monkeypatch):
    # a Gram-Schmidt step that wrongly annihilates every vector loses the span
    monkeypatch.setattr(exactla, "_orthogonalize_exact", lambda vector, ortho: [0] * len(vector))
    with pytest.raises(InvariantViolation, match="lost a dimension"):
        orthonormalize_nested([span([(1, 1)], 2)], 2)


@pytest.mark.parametrize("a", [[[1, 0], [0, 1]], [[4, 6], [6, 9]]], ids=["identity", "rank_one"])
def test_psd_decision_builds_no_change_of_basis(monkeypatch, a):
    # the change of basis is built only to replay a negative direction into a witness
    def unit(index, length):
        raise AssertionError("change of basis built for a PSD matrix")

    monkeypatch.setattr(exactla, "_unit", unit)
    assert psd_violation(a) is None


def test_psd_unverified_witness_raises(monkeypatch):
    # a corrupted change of basis makes the candidate direction fail its exact check
    monkeypatch.setattr(exactla, "_unit", lambda index, length: [Fraction(0)] * length)
    with pytest.raises(InvariantViolation, match="PSD witness"):
        psd_violation([[-1]])


# ---------------------------------------------------------------------------
# Fraction-free paths against the rational reference (tests/exact_oracles.py)
# ---------------------------------------------------------------------------

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def rational_rows(draw, max_rows=6, max_cols=6):
    """(rows, cols): random rows plus zero rows and combinations of drawn rows, shuffled.

    Each rational row is handed over as its integer multiple.
    """
    cols = draw(st.integers(0, max_cols))
    row = st.lists(fractions, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(fractions), draw(fractions)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(0)] * cols)
    return integer_rows(draw(st.permutations(rows))), cols


def rows_of(*rows):
    return integer_rows(rows)


def integer_matrix(a):
    """A times the lcm of all its denominators: one scale, so a symmetric A stays symmetric."""
    scale = math.lcm(*(Fraction(x).denominator for row in a for x in row))
    return [[int(x * scale) for x in row] for row in a]


@settings(max_examples=150, deadline=None)
@given(rational_rows())
@example(([], 0))
@example(([], 3))
@example((rows_of([], []), 0))
@example((rows_of([0, 0, 0]), 3))
@example((rows_of([2, 4], [3, 6]), 2))
@example((rows_of([Fraction(1, 3), Fraction(-2, 5), 7], [0, Fraction(4, 9), 1]), 3))
def test_rref_and_kernel_match_fraction_reference(shape):
    rows, cols = shape
    reduced, pivots = rref_fraction(rows, cols)
    space = row_space(rows, cols)
    assert space.basis == tuple(tuple(row) for row in reduced)
    assert all(type(x) is Fraction for row in space.basis for x in row)
    # the integer rows are the primitive positive multiples of the RREF rows
    assert space.pivots == tuple(pivots)
    for row, ints, col in zip(space.basis, space.rows, pivots):
        assert all(type(x) is int for x in ints) and math.gcd(*ints) == 1
        assert ints[col] > 0 and [x * ints[col] for x in row] == list(ints)
    null = kernel(rows, cols)
    assert null.basis == tuple(tuple(row) for row in kernel_fraction(rows, cols))
    assert rank(rows, cols) == len(pivots)


@st.composite
def symmetric_matrices(draw, max_n=5):
    """Symmetric rational matrices: random, low-rank Gram forms, zero or boosted diagonals.

    Each is handed over as its integer multiple.  A "late" matrix has its leading diagonal raised, so several Schur
    steps run before a negative pivot or a zero diagonal shows.
    """
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["random", "gram", "hollow", "late"]))
    if kind == "gram":
        k = draw(st.integers(0, n))
        b = [draw(st.lists(fractions, min_size=n, max_size=n)) for _ in range(k)]
        signs = [draw(st.sampled_from([1, 1, -1])) for _ in range(k)]
        return integer_matrix(
            [[sum(s * r[i] * r[j] for s, r in zip(signs, b)) for j in range(n)] for i in range(n)]
        )
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind != "hollow":
                a[i][j] = a[j][i] = draw(fractions)
        if kind == "late" and i < n - 1:
            a[i][i] += 6
    return integer_matrix(a)


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
@example(rows_of([0, 1], [1, 0]))
@example(rows_of([4, 6], [6, 5]))
@example(integer_matrix([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), 0]]))
@example(rows_of([9, -3, -2], [-3, 5, -3], [-2, -3, 1]))  # negative after two Schur steps
def test_psd_violation_matches_fraction_reference(a):
    witness = psd_violation(a)
    assert witness == psd_violation_fraction(a)
    assert witness is None or all(type(x) is Fraction for x in witness)


@settings(max_examples=100, deadline=None)
@given(rational_rows(max_rows=5, max_cols=5), st.data())
def test_orthonormalize_columns_match_fraction_reference(shape, data):
    # prefixes of one basis, in order: zero and repeated elements included
    rows, ambient = shape
    outer = row_space(rows, ambient)
    cuts = sorted(data.draw(st.lists(st.integers(0, outer.dimension), max_size=4)))
    chain = [row_space(outer.rows[:cut], ambient) for cut in cuts]
    columns = orthonormalize_nested(chain, ambient)
    assert columns == nested_columns_fraction(chain, ambient)
    assert all(type(x) is int for w in columns for x in w)
