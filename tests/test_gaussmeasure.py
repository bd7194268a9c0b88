"""Exact Gaussian expectations and the deterministic Monte Carlo engine."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcunlink.gaussmeasure import covariance, expectation, partial_expectation
from qcunlink import gaussmeasure, sampling
from qcunlink.polyalg import Polynomial
from qcunlink.sampling import evaluate_float, mc_estimate, sample_values

from corpus import QC_FIXTURES, P, overlapping_convex_pair, random_psd_quadratic
from exact_oracles import compose_linear, covariance_by_product, expectation_fraction, gaussian_moment


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def test_moment_table_matches_double_factorial():
    for m in range(0, 9):
        assert gaussmeasure._moment(2 * m) == gaussian_moment(2 * m)
        assert gaussmeasure._moment(2 * m + 1) == 0


def test_moment_recurrence():
    moment = gaussmeasure._moment
    assert moment(0) == 1
    for m in range(1, 8):
        assert moment(2 * m) == (2 * m - 1) * moment(2 * m - 2)
    # a high order is computed without recursion on the order
    assert moment(6000) == 5999 * moment(5998)


# ---------------------------------------------------------------------------
# Expectation and covariance
# ---------------------------------------------------------------------------


def test_expectation_examples():
    assert expectation(P("x1^2", 1)) == 1
    assert expectation(P("x1^4", 1)) == 3
    assert expectation(P("x1*x2", 2)) == 0


def test_expectation_quartic_mc_cross_check():
    estimate = mc_estimate(P("x1^4", 1), 200_000, seed=42)
    assert abs(estimate.mean - 3.0) <= 4 * estimate.standard_error


def test_covariance_rotated_pair_wick_values():
    u = P("x1^2 + 2*x1*x2 + x2^2", 2)
    v = P("x1^2 - 2*x1*x2 + x2^2", 2)
    # hand expansion: E[uv] = E[(x1^2 - x2^2)^2] = 3 - 2 + 3 = 4, E[u] = E[v] = 2
    assert expectation(u * v) == 4
    assert expectation(u) == 2
    assert expectation(v) == 2
    assert covariance(u, v) == 0
    pair = mc_estimate((u, v), 200_000, seed=42)
    assert abs(pair.mean - 4.0) <= 4 * pair.standard_error


def test_covariance_independent_coordinates():
    assert covariance(P("x1^2", 2), P("x2^2", 2)) == 0


def test_covariance_variance_of_square():
    assert covariance(P("x1^2", 2), P("x1^2 + x2^2", 2)) == 2


def test_covariance_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        covariance(P("x1", 1), P("x1", 2))


# ---------------------------------------------------------------------------
# Partial expectation
# ---------------------------------------------------------------------------


def test_partial_expectation_examples():
    assert partial_expectation(P("x1^2*x2^2", 2), {2}) == P("x1^2", 2)
    assert partial_expectation(P("x1^2*x2", 2), {2}).is_zero
    assert partial_expectation(P("x1^4 + x1^2*x2^4", 2), {2}) == P("x1^4 + 3*x1^2", 2)


def test_partial_expectation_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        partial_expectation(P("x1^2", 2), {3})


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


def test_sample_values_rows_are_values_at_shared_draws():
    u, v = P("x1^2 + x2", 2), P("x1*x2^3 - 1/3", 2)
    samples = 70_000  # more than one block of draws
    values = sample_values((u, v), samples, seed=3)
    assert values.shape == (2, samples)
    # the blocks of draws concatenate to the one-shot draw
    draws = np.random.default_rng(3).standard_normal((samples, 2))
    assert np.array_equal(values[0], evaluate_float((u,), draws)[0])
    assert np.array_equal(values[1], evaluate_float((v,), draws)[0])
    assert np.array_equal(sample_values((v,), samples, seed=3)[0], values[1])


def test_sample_values_builds_one_power_table_per_block(monkeypatch):
    # three distinct powers over three variables fit one table per block,
    # and u and v read the same table
    tables = []
    build = sampling._power_table

    def counted(x, columns, table):
        tables.append((x.shape, tuple(columns)))
        build(x, columns, table)

    monkeypatch.setattr(sampling, "_power_table", counted)
    u, v = P("x1^3 + x2", 3), P("x2*x3^5 - x1^3", 3)
    sample_values((u, v), 70_000, seed=3)
    assert tables == [
        ((65_536, 3), ((0, 3), (1, 1), (2, 5))),
        ((70_000 - 65_536, 3), ((0, 3), (1, 1), (2, 5))),
    ]


def test_sample_values_slices_wide_tables(monkeypatch):
    # 96 distinct powers over 32 variables: each block is evaluated in
    # three row slices, so the table never outgrows the block
    arity, samples, chunk = 32, 10_000, 4096
    monkeypatch.setattr(sampling, "_CHUNK", chunk)
    u = Polynomial(arity, {tuple(4 * (j == i) for j in range(arity)): Fraction(1) for i in range(arity)})
    v = Polynomial(
        arity,
        {
            tuple(3 * (j == i) + (j == (i + 1) % arity) for j in range(arity)): Fraction(i + 1, 3)
            for i in range(arity)
        },
    )
    draws = np.random.default_rng(11).standard_normal((samples, arity))
    tracemalloc.start()
    try:
        values = sample_values((u, v), samples, seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(values, evaluate_float((u, v), draws))
    assert np.array_equal(values[0], evaluate_float((u,), draws)[0])
    assert np.array_equal(values[1], evaluate_float((v,), draws)[0])
    # besides the output: the block being evaluated (or two while the next
    # one is drawn) and a table of at most one block; a table of all 96
    # powers would hold three blocks on its own
    block_bytes = chunk * arity * 8
    assert peak <= values.nbytes + 3.5 * block_bytes


def test_sample_values_holds_one_block_of_draws(monkeypatch):
    # x1 alone needs a table of one column, a small part of a block, so
    # more than 1.5 blocks beyond the output means that two blocks of
    # draws were resident at once
    arity, chunk = 32, 4096
    monkeypatch.setattr(sampling, "_CHUNK", chunk)
    u = P("x1", arity)
    sample_values((u,), 100, seed=5)  # what drawing imports is not counted
    tracemalloc.start()
    try:
        values = sample_values((u,), 10 * chunk, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes <= 1.5 * chunk * arity * 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_values_overflow_is_silent():
    # x1^1000 overflows for |x1| above about 2.03 and stays finite below
    # 2 (2^1000 < 1.8e308); the caller sees inf and no warning
    values = sample_values((P("x1^1000", 1), P("x1^2", 1)), 1000, seed=1)
    overflowed = np.isinf(values[0])
    assert overflowed.any()
    assert (values[1][overflowed] > 4.0).all()
    assert np.isfinite(values[0][values[1] < 4.0]).all()


def test_sample_values_rejects_bad_inputs():
    with pytest.raises(ValueError, match="at least 2 samples"):
        sample_values((P("x1", 1),), 1, seed=1)
    with pytest.raises(ValueError, match="arity mismatch"):
        sample_values((P("x1", 1), P("x1", 2)), 10, seed=1)
    with pytest.raises(ValueError, match="at least one coordinate"):
        sample_values((Polynomial(0),), 10, seed=1)


def test_sample_values_of_no_polynomial_raises_as_evaluate_float_does():
    with pytest.raises(ValueError, match="^no polynomial to evaluate$"):
        sample_values((), 10, seed=1)
    with pytest.raises(ValueError, match="^no polynomial to evaluate$"):
        evaluate_float((), np.zeros((1, 1)))


def test_mc_estimate_unit_variance():
    estimate = mc_estimate(P("x1^2", 1), 200_000, seed=42)
    assert abs(estimate.mean - 1.0) <= 4 * estimate.standard_error
    assert estimate.samples == 200_000
    assert estimate.seed == 42


def test_mc_estimate_rejects_tiny_sample_counts():
    with pytest.raises(ValueError, match="at least 2 samples"):
        mc_estimate(P("x1", 1), 1, seed=1)
    with pytest.raises(ValueError, match="at least 2 samples"):
        mc_estimate((P("x1", 1), P("x1^2", 1)), 1, seed=1)


def test_mc_estimate_rejects_non_finite_estimates():
    # the values are finite but their squares overflow float64; no warning may escape
    with pytest.raises(ValueError, match="not finite"):
        mc_estimate(P("x1^400", 1), 1000, seed=1)
    with pytest.raises(ValueError, match="not finite"):
        mc_estimate((P("x1^200", 1), P("x1^200", 1)), 1000, seed=1)


def test_mc_estimate_stderr_ignores_a_large_offset():
    # an offset of 10^10 shifts every value and leaves the spread alone; a
    # sum of squares minus n * mean^2 cancels every digit of the variance
    offset = mc_estimate(P("10000000000 + x1^2", 1), 200_000, seed=1)
    plain = mc_estimate(P("x1^2", 1), 200_000, seed=1)
    assert offset.standard_error > 0 and plain.standard_error > 0
    assert offset.standard_error == pytest.approx(plain.standard_error, rel=1e-6, abs=0)


def test_mc_estimate_bit_reproducible():
    a = mc_estimate(P("x1^4 - x1^2", 1), 70_000, seed=9)
    b = mc_estimate(P("x1^4 - x1^2", 1), 70_000, seed=9)
    assert (a.mean, a.standard_error) == (b.mean, b.standard_error)
    c = mc_estimate(P("x1^4 - x1^2", 1), 70_000, seed=10)
    assert (a.mean, a.standard_error) != (c.mean, c.standard_error)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def polynomials(draw, max_arity=3, max_exponent=3, max_terms=5):
    arity = draw(st.integers(1, max_arity))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exponent = tuple(draw(st.integers(0, max_exponent)) for _ in range(arity))
        terms[exponent] = draw(coefficients)
    return Polynomial(arity, terms)


@st.composite
def polynomial_pairs(draw):
    u = draw(polynomials(max_arity=4, max_exponent=4, max_terms=8))
    v = draw(polynomials(max_arity=u.arity, max_exponent=4, max_terms=8))
    return u, Polynomial(u.arity, {e + (0,) * (u.arity - v.arity): c for e, c in v.terms.items()})


@settings(max_examples=150, deadline=None)
@given(polynomial_pairs())
@example((P("x1*x2 + x1^2 + 1/3*x2^3 + 2", 2), P("x1*x2 - x2 + 5*x1^2*x2^2", 2)))
@example((P("x1 + x2 + x1*x2^2", 2), P("x1^3 + 1/2*x2 + x1^2*x2^3", 2)))
@example((P("x1^2*x2 + x2^3", 2), P("x2 + 7/3*x1^2*x2", 2)))
def test_covariance_matches_expanded_product(pair):
    # exponents of both parities, odd-only terms and constants all occur
    u, v = pair
    assert expectation(u) == expectation_fraction(u)
    assert covariance(u, v) == covariance_by_product(u, v)
    assert covariance(v, u) == covariance_by_product(v, u)


# Symmetric quasi-convex u and v have symmetric convex sublevel sets, so by
# the Gaussian correlation inequality every term of Hoeffding's integral for
# Cov(u(X), v(X)) is >= 0, and so is the covariance.


def test_covariance_of_quasi_convex_fixtures_is_nonnegative():
    pairs = itertools.combinations_with_replacement(QC_FIXTURES, 2)
    for (name_u, u), (name_v, v) in pairs:
        if u.arity == v.arity:
            assert covariance(u, v) >= 0, (name_u, name_v)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_covariance_of_convex_pairs_is_nonnegative(seed, arity):
    rng = random.Random(seed)
    u, v, _ = overlapping_convex_pair(rng)
    assume(u.arity <= 5)
    assert covariance(u, v) >= 0
    assert covariance(u, random_psd_quadratic(rng, u.arity)) >= 0
    assert covariance(random_psd_quadratic(rng, arity), random_psd_quadratic(rng, arity)) >= 0


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_odd_kill(p):
    odd_part = Polynomial(p.arity, {e: c for e, c in p.terms.items() if any(k % 2 for k in e)})
    assert expectation(odd_part) == 0


@settings(max_examples=80, deadline=None)
@given(polynomials(), st.data())
def test_linearity(p, data):
    q = data.draw(polynomials(max_arity=p.arity))
    q = Polynomial(p.arity, {e + (0,) * (p.arity - q.arity): c for e, c in q.terms.items()})
    a = data.draw(coefficients)
    b = data.draw(coefficients)
    assert expectation(a * p + b * q) == a * expectation(p) + b * expectation(q)


@settings(max_examples=80, deadline=None)
@given(polynomials(), st.data())
def test_tower_property(p, data):
    subset = data.draw(st.sets(st.integers(1, p.arity)))
    assert expectation(partial_expectation(p, subset)) == expectation(p)


def test_mc_rotational_invariance():
    # sampling X and evaluating p(QX) must estimate the same expectation
    rng = np.random.default_rng(5)
    p = P("x1^4 + 2*x1^2*x2^2 - x2^2 + 1/2*x1*x2", 2)
    exact = float(expectation(p))
    a = rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(a)
    rotated = compose_linear(p, q)
    estimate = mc_estimate(rotated, 300_000, seed=77)
    assert abs(estimate.mean - exact) <= 4 * estimate.standard_error
