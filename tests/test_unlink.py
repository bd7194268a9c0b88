"""Concordance, transform assembly, the unlink pipeline, and spot-checks."""

import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from qcunlink.exactla import Subspace, orthogonal_complement, subspace_sum
from qcunlink.gaussmeasure import covariance, expectation
from qcunlink.polyalg import Polynomial, compose_linear
from qcunlink.unlink import (
    GridSpec,
    HypothesisFalsified,
    OrthogonalTransform,
    UnlinkConfig,
    VERDICT_CONTRADICTION,
    VERDICT_HYPOTHESIS_FAILED,
    VERDICT_UNLINKED,
    build_transform,
    concordance,
    correlation_spotcheck,
    covariance_integral_check,
    divergence_check,
    normalize_at_origin,
    unlink_decision,
    verify_unlinked,
)

from corpus import (
    QC_FIXTURES,
    P,
    dense_rotation,
    overlapping_convex_pair,
    random_psd_quadratic,
    swap_columns,
)
from exact_oracles import covariance_integral_check_reference, intersect

ROT_U = P("x1^2 + 2*x1*x2 + x2^2", 2)
ROT_V = P("x1^2 - 2*x1*x2 + x2^2", 2)


def span(vectors, ambient):
    return Subspace.span([[Fraction(x) for x in v] for v in vectors], ambient)


def identity_transform(n):
    return OrthogonalTransform(
        matrix=np.eye(n),
        columns=tuple(tuple(int(i == j) for i in range(n)) for j in range(n)),
        u_block=tuple(range(1, n + 1)),
        v_block=(),
        shared_free=(),
        r=0,
        t=n,
        m=0,
    )


def separated(p, transform, block):
    """The pipeline's check: p composed with the transform uses only ``block``."""
    return verify_unlinked(p, transform, set(range(1, transform.n + 1)) - set(block))


# ---------------------------------------------------------------------------
# Concordance
# ---------------------------------------------------------------------------


def test_concordance_rotated_pair():
    report = concordance(ROT_U, ROT_V)
    assert report.inv_u.same_space(span([(1, -1)], 2))
    assert report.inv_v.same_space(span([(1, 1)], 2))
    assert report.inv_u_perp.dimension == 1
    assert (report.r, report.t, report.m) == (0, 1, 1)


def test_concordance_nested_pair():
    report = concordance(P("x1^2", 2), P("x1^2 + x2^2", 2))
    assert report.inv_u.same_space(span([(0, 1)], 2))
    assert report.inv_v.dimension == 0
    assert report.r == 1


def test_concordance_disjoint_squares():
    report = concordance(P("x1^2", 2), P("x2^2", 2))
    assert report.inv_u_perp.same_space(span([(1, 0)], 2))
    assert report.overlap.same_space(span([(1, 0)], 2))
    assert (report.r, report.t, report.m) == (0, 1, 1)


def test_concordance_requires_normalized_inputs():
    with pytest.raises(ValueError, match="origin"):
        concordance(P("x1^2 + 1", 1), P("x1^2", 1))


def test_concordance_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        concordance(P("x1^2", 1), P("x1^2", 2))


def test_concordance_symmetric_on_fixtures_and_random_pairs():
    for name_u, u in QC_FIXTURES:
        for name_v, v in QC_FIXTURES:
            if u.arity != v.arity:
                continue
            assert concordance(u, v).r == concordance(v, u).r, (name_u, name_v)
    rng = random.Random(37)
    for _ in range(50):
        arity = rng.randint(2, 5)
        u = random_psd_quadratic(rng, arity)
        v = random_psd_quadratic(rng, arity)
        assert concordance(u, v).r == concordance(v, u).r


def test_concordance_counts_are_consistent():
    rng = random.Random(41)
    for _ in range(30):
        arity = rng.randint(2, 5)
        u = random_psd_quadratic(rng, arity)
        v = random_psd_quadratic(rng, arity)
        report = concordance(u, v)
        assert report.r >= 0 and report.t >= 0 and report.m >= 0
        assert report.r == report.inv_u_perp.dimension - report.overlap.dimension
        assert report.r + report.t + report.m == report.perp_sum.dimension


def test_concordance_overlap_matches_stacked_intersection():
    # (U + V^perp)^perp against the intersection through both complements
    rng = random.Random(43)
    pairs = [(u, v) for _, u in QC_FIXTURES for _, v in QC_FIXTURES if u.arity == v.arity]
    for _ in range(40):
        arity = rng.randint(1, 6)
        pairs.append((random_psd_quadratic(rng, arity), random_psd_quadratic(rng, arity)))
    for _ in range(10):
        u, v, _ = overlapping_convex_pair(rng)
        pairs.append((u, v))
    for u, v in pairs:
        report = concordance(u, v)
        assert report.overlap.basis == intersect(report.inv_u_perp, report.inv_v).basis
        inv_v_perp = orthogonal_complement(report.inv_v)
        other = orthogonal_complement(subspace_sum(report.inv_v, report.inv_u_perp))
        assert other.basis == intersect(inv_v_perp, report.inv_u).basis


# ---------------------------------------------------------------------------
# Transform assembly
# ---------------------------------------------------------------------------


def test_build_transform_rotated_pair():
    transform = build_transform(concordance(ROT_U, ROT_V))
    s = 1 / np.sqrt(2.0)
    assert np.allclose(np.abs(transform.matrix), [[s, s], [s, s]])
    assert transform.orthogonality_error() <= 1e-10
    assert transform.u_block == (1,)
    assert transform.v_block == (2,)
    assert transform.shared_free == ()


def test_build_transform_coordinate_aligned_is_signed_permutation():
    transform = build_transform(concordance(P("x1^2", 2), P("x2^2", 2)))
    assert np.allclose(np.abs(transform.matrix), np.eye(2))


def test_build_transform_degenerate_zero_input():
    report = concordance(Polynomial.zero(2), P("x1^2 + x2^2", 2))
    transform = build_transform(report)
    assert transform.u_block == ()
    assert transform.v_block == (1, 2)
    assert transform.orthogonality_error() <= 1e-10


def block_span_residual(q, columns, space):
    cols = q[:, columns]
    worst = 0.0
    for vector in space.basis:
        b = np.array([float(x) for x in vector])
        resid = b - cols @ (cols.T @ b)
        worst = max(worst, float(np.linalg.norm(resid) / np.linalg.norm(b)))
    return worst


def test_build_transform_columns_span_declared_subspaces():
    pairs = [
        (ROT_U, ROT_V),
        (P("x1^2", 3), P("x1^2 + x2^2 + x3^2", 3)),
        (
            P("x1^2 + 2*x1*x2 + x2^2", 3),
            P("x1^2 + 2*x2^2 + 2*x3^2 + 2*x1*x2 + 2*x1*x3", 3),
        ),
    ]
    for u, v in pairs:
        report = concordance(u, v)
        transform = build_transform(report)
        r, t, m = report.r, report.t, report.m
        if report.inv_u_perp.dimension:
            assert block_span_residual(transform.matrix, range(r + t), report.inv_u_perp) <= 1e-9
        if t:
            assert block_span_residual(transform.matrix, range(r, r + t), report.overlap) <= 1e-9
        if report.perp_sum.dimension:
            assert block_span_residual(transform.matrix, range(r + t + m), report.perp_sum) <= 1e-9


# ---------------------------------------------------------------------------
# Pipeline decisions
# ---------------------------------------------------------------------------


def test_unlink_rotated_pair_end_to_end():
    result = unlink_decision(ROT_U, ROT_V)
    assert result.verdict == VERDICT_UNLINKED
    assert result.cov_exact == 0
    assert result.report.r == 0
    assert result.transform.orthogonality_error() <= 1e-10
    assert separated(ROT_U, result.transform, result.transform.u_block)
    assert separated(ROT_V, result.transform, result.transform.v_block)
    composed_u = compose_linear(ROT_U, result.transform.matrix)
    composed_v = compose_linear(ROT_V, result.transform.matrix)
    assert abs(float(composed_u.terms.get((2, 0), 0)) - 2.0) <= 1e-9
    assert abs(float(composed_v.terms.get((0, 2), 0)) - 2.0) <= 1e-9
    for composed, keep in ((composed_u, (2, 0)), (composed_v, (0, 2))):
        for exponent, coeff in composed.terms.items():
            if exponent != keep:
                assert abs(float(coeff)) <= 1e-9


def test_unlink_nonzero_covariance_fails_hypothesis():
    result = unlink_decision(P("x1^2", 2), P("x1^2 + x2^2", 2))
    assert result.verdict == VERDICT_HYPOTHESIS_FAILED
    assert result.cov_exact == 2
    assert result.transform is None


def test_unlink_already_separated_quartics():
    result = unlink_decision(P("x1^4", 2), P("x2^4", 2))
    assert result.verdict == VERDICT_UNLINKED
    assert np.allclose(np.abs(result.transform.matrix), np.eye(2))
    assert separated(P("x1^4", 2), result.transform, result.transform.u_block)
    assert separated(P("x2^4", 2), result.transform, result.transform.v_block)


def test_unlink_normalizes_constant_offsets():
    result = unlink_decision(P("x1^4 + 5", 2), P("x2^4 - 1/3", 2))
    assert result.verdict == VERDICT_UNLINKED


def test_unlink_rejects_asymmetric_input():
    with pytest.raises(HypothesisFalsified) as err:
        unlink_decision(P("x1^3 + x1^2", 1), P("x1^2", 1))
    assert err.value.which == "u"
    assert err.value.kind == "symmetry"
    assert Fraction(err.value.witness["p_x"]) != Fraction(err.value.witness["p_minus_x"])


def test_unlink_rejects_non_quasi_convex_input():
    with pytest.raises(HypothesisFalsified) as err:
        unlink_decision(P("x1^2", 2), P("x1^2*x2^2", 2))
    assert err.value.which == "v"
    assert err.value.kind == "quasi-convexity"
    assert err.value.witness["witness"] is not None


def test_unlink_contradiction_witness_when_falsifier_misses():
    # cov = 0 with r = 2: only possible because u is not quasi-convex and
    # a single falsifier trial at this seed happens to miss it
    u = P("x1^4 - x2^4", 2)
    v = P("x1^4 + x2^4", 2)
    assert covariance(u, v) == 0
    result = unlink_decision(u, v, UnlinkConfig(seed=1, qc_trials=1))
    assert result.verdict == VERDICT_CONTRADICTION
    assert result.report.r == 2


def test_unlink_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        unlink_decision(P("x1^2", 1), P("x1^2", 2))


def test_unlinked_verdicts_have_zero_covariance_and_clean_blocks():
    pairs = [
        (ROT_U, ROT_V),
        (P("x1^4", 2), P("x2^4", 2)),
        (P("x1^2", 2), P("x2^2", 2)),
        (P("x1^4 + x2^2", 3), P("x3^2", 3)),
    ]
    for u, v in pairs:
        result = unlink_decision(u, v)
        assert result.verdict == VERDICT_UNLINKED
        assert result.cov_exact == 0
        transform = result.transform
        n = transform.n
        u0, v0 = normalize_at_origin(u), normalize_at_origin(v)
        forbidden_u = set(range(1, n + 1)) - set(transform.u_block)
        assert verify_unlinked(u0, transform, forbidden_u) is True
        overlap_coords = range(transform.r + 1, transform.r + transform.t + 1)
        assert verify_unlinked(v0, transform, overlap_coords) is True


def test_theorem_direction_on_overlapping_pairs():
    rng = random.Random(43)
    for _ in range(10):
        u, v, expected_r = overlapping_convex_pair(rng)
        report = concordance(u, v)
        assert report.r == expected_r
        assert report.r >= 1
        assert covariance(u, v) > 0


def test_r_invariant_under_exact_orthogonal_maps():
    rotations = [
        [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(-1)]],
        [[Fraction(3, 5), Fraction(-4, 5), Fraction(0)],
         [Fraction(4, 5), Fraction(3, 5), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]],
        [[Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(3, 5), Fraction(4, 5)],
         [Fraction(0), Fraction(-4, 5), Fraction(3, 5)]],
    ]
    pairs = [
        (P("x1^2 + 2*x1*x2 + x2^2", 3), P("x1^2 - 2*x1*x2 + x2^2", 3)),
        (P("x1^4 + x2^2", 3), P("x3^2", 3)),
        (P("x1^2", 3), P("x1^2 + x2^2 + x3^2", 3)),
    ]
    for u, v in pairs:
        base = concordance(u, v).r
        for q in rotations:
            rotated = concordance(compose_linear(u, q), compose_linear(v, q))
            assert rotated.r == base


# ---------------------------------------------------------------------------
# verify_unlinked: the exact separation certificate
# ---------------------------------------------------------------------------


def float_composition_residual(p, transform, forbidden):
    """Largest |coefficient| of a forbidden coordinate in p o Q, Q the float matrix.

    The separation check the exact certificate replaced, kept as its
    reference: the composition runs exactly on the binary rationals of Q
    and drops coefficients <= 1e-12.
    """
    banned = {i - 1 for i in forbidden if 1 <= i <= p.arity}
    composed = compose_linear(p, transform.matrix)
    return max(
        (abs(float(c)) for e, c in composed.terms.items() if any(e[i] for i in banned)),
        default=0.0,
    )


def rotated(text, n, q):
    return compose_linear(P(text, n), q)


def rotated_unlinked_pairs():
    """Separated pairs on disjoint coordinates, composed with a dense exact rotation."""
    q3, q4 = dense_rotation(3), dense_rotation(4)
    return [
        (rotated("x1^2 + 2*x2^2", 3, q3), rotated("x3^2", 3, q3)),
        (rotated("x1^4 + x2^2", 3, q3), rotated("3*x3^2", 3, q3)),
        (rotated("x1^2", 4, q4), rotated("x2^4 + 2*x3^2", 4, q4)),
    ]


def corpus_unlinked_pairs():
    """Pairs of convex corpus fixtures with zero covariance and r = 0."""
    return [
        (u, v)
        for _, u in QC_FIXTURES
        for _, v in QC_FIXTURES
        if u.arity == v.arity and covariance(u, v) == 0 and concordance(u, v).r == 0
    ]


def test_verify_unlinked_rotated_pair():
    transform = build_transform(concordance(ROT_U, ROT_V))
    assert verify_unlinked(ROT_U, transform, {2}) is True
    assert verify_unlinked(ROT_U, transform, {1}) is False


def test_verify_unlinked_empty_forbidden_set():
    assert verify_unlinked(P("x1^2 + x2^2", 2), identity_transform(2), set()) is True


def test_verify_unlinked_full_dependence():
    assert verify_unlinked(P("x1^2", 2), identity_transform(2), {1}) is False


def test_certificate_agrees_with_float_composition():
    pairs = corpus_unlinked_pairs()
    assert pairs
    for u, v in pairs + rotated_unlinked_pairs():
        transform = build_transform(concordance(u, v))
        assert separated(u, transform, transform.u_block)
        assert separated(v, transform, transform.v_block)
        for p in (u, v):
            for j in range(1, transform.n + 1):
                exact = verify_unlinked(p, transform, {j})
                assert exact == (float_composition_residual(p, transform, {j}) <= 1e-9), j


def test_certificate_rejects_swapped_columns():
    for u, v in [(ROT_U, ROT_V)] + rotated_unlinked_pairs():
        transform = build_transform(concordance(u, v))
        forbidden = sorted(set(range(1, transform.n + 1)) - set(transform.u_block))
        swapped = swap_columns(transform, transform.u_block[0], forbidden[0])
        assert not separated(u, swapped, swapped.u_block)
        assert float_composition_residual(u, swapped, forbidden) > 1e-9


def test_unlink_decision_is_scale_invariant():
    q = dense_rotation(4)
    u, v = rotated("x1^2 + 2*x2^2", 4, q), rotated("3*x3^2", 4, q)
    base = unlink_decision(u, v)
    assert base.verdict == VERDICT_UNLINKED
    assert (base.report.r, base.report.t, base.report.m) == (0, 2, 1)
    for k in range(-12, 13):
        scale = Fraction(10) ** k
        result = unlink_decision(scale * u, scale * v)
        assert result.verdict == base.verdict, k
        assert (result.report.r, result.report.t, result.report.m) == (0, 2, 1), k
        assert result.transform.matrix.tolist() == base.transform.matrix.tolist(), k
        assert result.transform.columns == base.transform.columns, k
        assert (result.transform.u_block, result.transform.v_block) == (
            base.transform.u_block,
            base.transform.v_block,
        ), k


# ---------------------------------------------------------------------------
# Probabilistic spot-checks
# ---------------------------------------------------------------------------


def test_correlation_spotcheck_identical_sublevels():
    check = correlation_spotcheck(P("x1^2", 1), P("x1^2", 1), 1.0, 1.0, 200_000, seed=42)
    lhs_oracle = scipy.stats.chi2.cdf(1.0, df=1)  # about 0.6827
    rhs_oracle = lhs_oracle**2  # about 0.4661
    assert abs(check.lhs - lhs_oracle) <= 5 * max(check.lhs_stderr, 1e-4)
    assert abs(check.rhs - rhs_oracle) <= 5 * max(check.rhs_stderr, 1e-4)
    assert check.passed


def test_correlation_spotcheck_independent_coordinates():
    check = correlation_spotcheck(P("x1^2", 2), P("x2^2", 2), 1.0, 1.0, 200_000, seed=42)
    assert abs(check.lhs - check.rhs) <= 6 * (check.lhs_stderr + check.rhs_stderr)
    assert check.passed


def test_correlation_spotcheck_huge_threshold():
    check = correlation_spotcheck(P("x1^2", 1), P("x1^2", 1), 1e9, 2.0, 50_000, seed=42)
    assert check.passed
    assert abs(check.lhs - check.rhs) <= 1e-12


def test_correlation_spotcheck_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        correlation_spotcheck(P("x1^2", 1), P("x2^2", 2), 1.0, 1.0, 100, seed=1)


def test_integral_check_variance_of_square():
    result = covariance_integral_check(P("x1^2", 1), P("x1^2", 1), 300_000, GridSpec(points=120), seed=42)
    assert result.exact_cov == 2
    assert result.passed


def test_integral_check_independent_pair():
    result = covariance_integral_check(P("x1^2", 2), P("x2^2", 2), 300_000, GridSpec(points=120), seed=42)
    assert result.exact_cov == 0
    assert result.passed


def test_integral_check_constant_shift():
    result = covariance_integral_check(P("x1^2", 1), P("x1^2 + 1", 1), 300_000, GridSpec(points=120), seed=42)
    assert result.exact_cov == 2
    assert result.passed


def test_integral_check_rejects_negative_values():
    with pytest.raises(ValueError, match="nonnegative"):
        covariance_integral_check(P("x1^2 - 5", 1), P("x1^2", 1), 10_000, seed=42)


def test_integral_check_rejects_large_arity():
    with pytest.raises(ValueError, match="arity"):
        covariance_integral_check(P("x1^2", 3), P("x2^2", 3), 10_000, seed=42)


@pytest.mark.parametrize(
    "u, v, samples, grid",
    [
        (P("x1^2", 1), P("x1^2", 1), 300_000, GridSpec(points=120)),
        (P("x1^2", 2), P("x2^2", 2), 300_000, GridSpec(points=120)),
        (P("x1^2", 1), P("x1^2 + 1", 1), 300_000, GridSpec(points=120)),
        (P("3/2*x1^2", 1), P("2*x1^4 + 1/2*x1^2", 1), 200_000, GridSpec()),
        (P("x1^2 + 3*x2^2", 2), P("3/2*x2^4", 2), 200_000, GridSpec()),
        (P("x1^4", 1), P("x1^2", 1), 1000, GridSpec(points=2)),
    ],
)
def test_integral_check_matches_reference(u, v, samples, grid):
    # the cap taken from the quantile grid and the marginals read off the
    # joint counts leave every field bit-identical
    result = covariance_integral_check(u, v, samples, grid, seed=42)
    reference = covariance_integral_check_reference(u, v, samples, grid, seed=42)
    assert dataclasses.astuple(result) == dataclasses.astuple(reference)


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize(
    "u, v, samples, grid",
    [
        # over 255 nodes per axis, and values beyond the 0.99 cap
        (P("3/2*x1^2", 1), P("2*x1^4 + 1/2*x1^2", 1), 200_000, GridSpec(points=200, quantile_cap=0.99)),
        (P("x1^2 + 3*x2^2", 2), P("3/2*x2^4", 2), 200_000, GridSpec(points=200, quantile_cap=0.99)),
        (P("x1^4", 1), P("x1^2", 1), 200_000, GridSpec(points=2)),
        (P("x1^2", 1), P("x1^2 + 1", 1), 50_000, GridSpec()),
    ],
)
def test_integral_check_matches_reference_on_other_seeds(u, v, samples, grid, seed):
    result = covariance_integral_check(u, v, samples, grid, seed=seed)
    reference = covariance_integral_check_reference(u, v, samples, grid, seed=seed)
    assert dataclasses.astuple(result) == dataclasses.astuple(reference)


def test_integral_check_memory():
    # one sort per axis: the peak stays within 3x the sampled values
    u, v, samples = P("3/2*x1^2", 1), P("2*x1^4 + 1/2*x1^2", 1), 200_000
    covariance_integral_check(u, v, 1000)  # what the check imports is not counted
    tracemalloc.start()
    try:
        covariance_integral_check(u, v, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (2 * samples * 8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("swap", [False, True])
def test_integral_check_rejects_non_finite_samples(swap):
    # 10^300 * (x1^300 - 1)^2 >= 0, but its sampled values include inf and nan
    big = 10**300
    u = P(f"{big}*x1^600 - {2 * big}*x1^300 + {big}", 1)
    v = P("x1^2", 1)
    if swap:
        u, v = v, u
    with pytest.raises(ValueError, match="not finite: float64 overflow in the sampled values"):
        covariance_integral_check(u, v, 20_000, seed=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spotchecks_with_overflowing_samples():
    # x1^1000 overflows to inf for |x1| above about 2.03: the correlation check
    # counts those draws outside the sublevel set, as the exact value
    # would be, and the integral check rejects them
    huge, square = P("x1^1000", 1), P("x1^2", 1)
    check = correlation_spotcheck(huge, square, 1.0, 1.0, 1000, seed=1)
    assert check == correlation_spotcheck(square, square, 1.0, 1.0, 1000, seed=1)
    with pytest.raises(ValueError, match="sampled values"):
        covariance_integral_check(huge, square, 1000, seed=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integral_check_rejects_overflow():
    # the exact covariance and the squares of the centered products overflow
    with pytest.raises(ValueError, match="not finite.*exact covariance.*stderr"):
        covariance_integral_check(P("x1^400", 1), P("x1^2", 1), 1000, seed=1)


def test_grid_needs_two_points():
    with pytest.raises(ValueError, match="at least 2 points"):
        GridSpec(points=1)


@pytest.mark.parametrize("cap", [0.0, -0.5, 1.5, float("nan")])
def test_grid_quantile_cap_in_unit_interval(cap):
    with pytest.raises(ValueError, match="quantile_cap must be in \\(0, 1\\]"):
        GridSpec(quantile_cap=cap)
    assert GridSpec(quantile_cap=1.0).quantile_cap == 1.0


def test_divergence_check_examples():
    cases = [
        (P("x1^2", 1), (1.0,), True),
        (P("x1^4 + x2^2", 2), (1.0, 1.0), True),
        # a float direction with a zero entry, read as the binary rational it denotes
        (P("x1^4 + x2^2", 2), (0.0, 0.1), True),
        (P("5", 1), (1.0,), False),
        # the derivative's root bound, about 10^400, lies beyond the float range
        (P(f"x1^4 + {10**400}*x1^2", 1), (1.0,), True),
    ]
    # the decision is exact, so the coefficients' scale cannot change it
    for k in range(-12, 13):
        square = P(f"{Fraction(10) ** k}*x1^2", 1)
        cases += [(square, (1.0,), True), (-square, (1.0,), False)]
    results = [divergence_check(p, direction) for p, direction, _ in cases]
    assert results == [expected for _, _, expected in cases]
    assert json.dumps(results[:4]) == "[true, true, true, false]"


def test_divergence_check_decaying_direction():
    assert not divergence_check(P("-x1^2", 1), (1.0,))


def test_divergence_check_zero_direction_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        divergence_check(P("x1^2", 1), (0.0,))
