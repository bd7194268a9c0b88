"""Concordance, transform assembly, the unlink pipeline, and spot-checks."""

import dataclasses
import functools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qcunlink import exactla, sampling, structure, unlink
from qcunlink.cli import _load_polynomial
from qcunlink.exactla import kernel_and_row_space, psd_violation, subspace_sum
from qcunlink.gaussmeasure import covariance, expectation
from qcunlink.polyalg import Polynomial, derivative_matrix, evaluate
from qcunlink.sampling import correlation_spotcheck, covariance_integral_check
from qcunlink.structure import invariance_subspace
from qcunlink.unlink import (
    HypothesisFalsified,
    InvariantViolation,
    OrthogonalTransform,
    VERDICT_CONTRADICTION,
    VERDICT_HYPOTHESIS_FAILED,
    VERDICT_UNLINKED,
    build_transform,
    concordance,
    divergence_check,
    unlink_decision,
    verify_unlinked,
)

from corpus import (
    NON_QC_FIXTURES,
    QC_FIXTURES,
    P,
    cayley,
    dense_rotation,
    overlapping_convex_pair,
    random_psd_quadratic,
    rotated_polynomials,
    swap_columns,
)
from exact_oracles import (
    compose_linear,
    contains_vector_fraction,
    covariance_integral_check_reference,
    integer_rows,
    intersect,
    kernel_fraction,
    orthogonal_complement,
    quadratic_form_fraction,
    rref_fraction,
    same_space,
    verify_unlinked_by_derivatives,
)

FIXTURES = Path(__file__).parent / "fixtures"
ROT_U = P("x1^2 + 2*x1*x2 + x2^2", 2)
ROT_V = P("x1^2 - 2*x1*x2 + x2^2", 2)


def span(vectors, ambient):
    return kernel_and_row_space(integer_rows(vectors), ambient)[1]


def identity_transform(n):
    return OrthogonalTransform(
        columns=tuple(tuple(int(i == j) for i in range(n)) for j in range(n)),
        u_block=tuple(range(1, n + 1)),
        v_block=(),
    )


def separated(p, transform, block):
    """The pipeline's check: p composed with the transform uses only ``block``."""
    return verify_unlinked(p, transform, set(range(1, transform.n + 1)) - set(block))


# ---------------------------------------------------------------------------
# Concordance
# ---------------------------------------------------------------------------


def test_concordance_rotated_pair():
    report = concordance(ROT_U, ROT_V)
    assert same_space(report.inv_u, span([(1, -1)], 2))
    assert same_space(report.inv_v, span([(1, 1)], 2))
    assert report.inv_u_perp.dimension == 1
    assert (report.r, report.t, report.m) == (0, 1, 1)


def test_concordance_nested_pair():
    report = concordance(P("x1^2", 2), P("x1^2 + x2^2", 2))
    assert same_space(report.inv_u, span([(0, 1)], 2))
    assert report.inv_v.dimension == 0
    assert report.r == 1


def test_concordance_disjoint_squares():
    report = concordance(P("x1^2", 2), P("x2^2", 2))
    assert same_space(report.inv_u_perp, span([(1, 0)], 2))
    assert same_space(report.overlap, span([(1, 0)], 2))
    assert (report.r, report.t, report.m) == (0, 1, 1)


def test_concordance_ignores_the_constant_terms():
    # r, t, m and every basis are those of the inputs without their constants
    shifts = (0, 1, Fraction(7, 3), -5, Fraction(-(10**50), 7))
    for name_u, u in QC_FIXTURES:
        for name_v, v in QC_FIXTURES:
            if u.arity != v.arity:
                continue
            report = concordance(u, v)
            for c1, c2 in zip(shifts, shifts[::-1]):
                moved_u = u + Polynomial.constant(u.arity, c1)
                moved_v = v + Polynomial.constant(v.arity, c2)
                assert concordance(moved_u, moved_v) == report, (name_u, name_v, c1, c2)


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


def test_concordance_cross_check_fires(monkeypatch):
    # a product rank off by one disagrees with the overlap's dimension
    for offset in (1, -1):
        monkeypatch.setattr(unlink, "rank", lambda rows, cols: exactla.rank(rows, cols) + offset)
        expected = f"concordance order {offset} disagrees with overlap dimension 1"
        with pytest.raises(InvariantViolation, match=expected):
            concordance(ROT_U, ROT_V)


def under_optimize_flag(patch, call):
    """Standard output of ``call`` on the rotated pair under python -O, after ``patch``.

    python -O strips assert statements, so a runtime check that still
    raises there prints its ``InvariantViolation`` message.
    """
    script = f"""
import sys
from qcunlink import exactla, unlink
from qcunlink.errors import InvariantViolation
from qcunlink.polyalg import parse_expression
{patch}
u = parse_expression("x1^2 + 2*x1*x2 + x2^2", 2)
v = parse_expression("x1^2 - 2*x1*x2 + x2^2", 2)
try:
    {call}
except InvariantViolation as exc:
    print("optimize", sys.flags.optimize, "raised", exc)
"""
    src = str(Path(unlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_concordance_cross_check_survives_optimize_flag():
    patch = "unlink.rank = lambda rows, cols: exactla.rank(rows, cols) + 1"
    out = under_optimize_flag(patch, "unlink.concordance(u, v)")
    assert out == "optimize 1 raised concordance order 1 disagrees with overlap dimension 1\n"


def rank_fraction(rows, cols):
    return len(rref_fraction(rows, cols)[1])


def product(first, second):
    """first times the transpose of second, both given by their rows."""
    return [[sum(x * y for x, y in zip(a, b)) for b in second] for a in first]


def fixture_pairs():
    """Same-arity pairs of the corpus fixtures and of the input files in tests/fixtures."""
    files = sorted(path for path in FIXTURES.iterdir() if path.suffix in (".poly", ".json"))
    named = QC_FIXTURES + NON_QC_FIXTURES + [(path.name, _load_polynomial(str(path))) for path in files]
    return [(u, v) for _, u in named for _, v in named if u.arity == v.arity]


def test_concordance_order_is_the_rank_of_the_basis_product():
    # rank(B_u B_v') = dim I_u^perp - dim overlap = r(v, u), and on small
    # inputs the same rank as the product of the full derivative matrices
    rng = random.Random(53)
    pairs = fixture_pairs()
    pairs += [overlapping_convex_pair(rng)[:2] for _ in range(40)]
    for arity in range(1, 13):
        for _ in range(5):
            pairs.append((random_psd_quadratic(rng, arity), random_psd_quadratic(rng, arity)))
    rotations = random.Random(2022)
    for u, v in decision_pairs(rotations):
        q = seeded_rotation(rotations, u.arity)
        pairs += [(u, v), (compose_linear(u, q), compose_linear(v, q))]
    small = 0
    for u, v in pairs:
        report, flipped = concordance(u, v), concordance(v, u)
        b_u, b_v = report.inv_u_perp.rows, flipped.inv_u_perp.rows
        order = rank_fraction(product(b_u, b_v), len(b_v))
        assert order == report.r == report.inv_u_perp.dimension - report.overlap.dimension
        assert order == flipped.r
        m_u, m_v = derivative_matrix(u), derivative_matrix(v)
        if max(len(m_u), len(m_v)) <= 60:
            small += 1
            assert rank_fraction(product(m_u, m_v), len(m_v)) == order
    assert small >= 200


def quadratic_from_matrix(entries):
    """x'Ax for the symmetric matrix A."""
    n = len(entries)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            exponent = tuple((k == i) + (k == j) for k in range(n))
            terms[exponent] = entries[i][j] * (1 if i == j else 2)
    return Polynomial(n, terms)


def signed_gram(rng, vectors, n):
    """The n-by-n sum of +-g g' over the vectors, each sign drawn."""
    entries = [[Fraction(0)] * n for _ in range(n)]
    for g in vectors:
        sign = rng.choice((-1, 1))
        for i in range(n):
            for j in range(n):
                entries[i][j] += sign * g[i] * g[j]
    return entries


def indefinite_pair(rng, n):
    """Symmetric integer forms A, B of any signature; half of them with AB = 0 by construction."""
    first = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
    a = signed_gram(rng, first, n)
    if rng.random() < 0.5:
        second = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        return a, signed_gram(rng, second, n)
    # B built from integer vectors orthogonal to every g, so that AB = 0
    free = integer_rows(kernel_fraction(first, n))
    weights = [[rng.randint(-2, 2) for _ in free] for _ in free]
    combos = [[sum(w * h[i] for w, h in zip(row, free)) for i in range(n)] for row in weights]
    return a, signed_gram(rng, combos, n)


def test_quadratic_concordance_order_is_the_rank_of_ab():
    # x'Ax and x'Bx unlink iff AB = 0, for any signature (Craig 1943,
    # Sakamoto 1944); I_p^perp is the row space of A, so r = rank(AB)
    rng = random.Random(59)
    forms = []
    for n in range(1, 9):
        for _ in range(8):
            u, v = random_psd_quadratic(rng, n), random_psd_quadratic(rng, n)
            forms.append((quadratic_form_fraction(u), quadratic_form_fraction(v)))
            forms.append(indefinite_pair(rng, n))
    zero = 0
    for a, b in forms:
        n = len(a)
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        order = rank_fraction(ab, n)
        assert concordance(quadratic_from_matrix(a), quadratic_from_matrix(b)).r == order
        assert (order == 0) == all(x == 0 for row in ab for x in row)
        zero += order == 0
    assert 20 <= zero <= len(forms) - 20


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


def test_build_transform_coordinate_aligned_is_signed_permutation():
    transform = build_transform(concordance(P("x1^2", 2), P("x2^2", 2)))
    assert np.allclose(np.abs(transform.matrix), np.eye(2))


def test_build_transform_degenerate_zero_input():
    report = concordance(Polynomial(2), P("x1^2 + x2^2", 2))
    transform = build_transform(report)
    assert transform.u_block == ()
    assert transform.v_block == (1, 2)
    assert transform.orthogonality_error() <= 1e-10


def test_build_transform_invariant_survives_optimize_flag():
    out = under_optimize_flag("unlink.TOL_ORTHO = -1.0", "unlink.build_transform(unlink.concordance(u, v))")
    assert out.startswith("optimize 1 raised assembled transform is not orthonormal"), out


def block_span_residual(q, columns, space):
    cols = np.array(q)[:, columns]
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


def test_unlink_builds_each_derivative_matrix_once(monkeypatch):
    # the PSD test, concordance and the separation check read one matrix per input
    built = []
    build = Polynomial._derivative_rows.func

    def counted(p):
        built.append(p)
        return build(p)

    rows_property = functools.cached_property(counted)
    rows_property.__set_name__(Polynomial, "_derivative_rows")
    monkeypatch.setattr(Polynomial, "_derivative_rows", rows_property)
    falsifier_read = []
    monkeypatch.setattr(
        structure, "psd_violation", lambda rows: falsifier_read.append(rows) or psd_violation(rows)
    )
    matrices_read = []

    def spy(caller, read):
        def spied(p):
            matrix = read(p)
            matrices_read.append((caller, p, matrix))
            return matrix

        return spied

    for module in (structure, unlink):
        monkeypatch.setattr(module, "derivative_matrix", spy(module.__name__, module.derivative_matrix))
    u = P("x1^2 + 2*x1*x2 + x2^2 + 1", 2)
    v = P("x1^2 - 2*x1*x2 + x2^2", 2)
    assert unlink_decision(u, v).verdict == VERDICT_UNLINKED
    assert sorted(map(id, built)) == sorted([id(u), id(v)])
    assert len(falsifier_read) == 2
    for p, rows in zip((u, v), falsifier_read):
        matrix = derivative_matrix(p)
        assert all(any(row is m for m in matrix) for row in rows)
        # concordance reads it through structure, the separation check in unlink
        readers = {caller for caller, q, m in matrices_read if q is p and m is matrix}
        assert readers == {"qcunlink.structure", "qcunlink.unlink"}
    assert all(m is derivative_matrix(p) for _, p, m in matrices_read)


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


SHIFTS = (1, Fraction(7, 3), -5, Fraction(-(10**50), 7))


def shifted(p, c):
    return p + Polynomial.constant(p.arity, c)


def falsification(u, v):
    with pytest.raises(HypothesisFalsified) as err:
        unlink_decision(u, v, seed=1, trials=2000)
    return err.value


def test_unlink_ignores_constant_offsets():
    # symmetry, quasi-convexity, covariance and the invariance subspaces
    # are unchanged by a constant, so the whole result is; a witness keeps
    # its points and trial, and its values are those of the shifted input
    result = unlink_decision(P("x1^4 + 5", 2), P("x2^4 - 1/3", 2))
    assert result == unlink_decision(P("x1^4", 2), P("x2^4", 2))
    assert result.verdict == VERDICT_UNLINKED
    for k, (u, v) in enumerate(decision_pairs(random.Random(2022))):
        c1, c2 = SHIFTS[k % 4], SHIFTS[-1 - k % 4]
        assert unlink_decision(shifted(u, c1), shifted(v, c2), trials=20) == unlink_decision(u, v, trials=20)
    falsified = [p for _, p in NON_QC_FIXTURES] + [P("x1^2 + x2^2 - 1/10*x1^4 + 3", 2)]
    for p, c in ((p, c) for p in falsified for c in SHIFTS):
        square, moved = P("x1^2", p.arity), shifted(p, c)
        sides = (("u", (p, square), (moved, square)), ("v", (square, p), (square, moved)))
        for which, pair, moved_pair in sides:
            before, after = falsification(*pair), falsification(*moved_pair)
            assert (after.which, after.kind) == (which, "quasi-convexity")
            assert {**after.witness, "witness": None} == {**before.witness, "witness": None}
            old, new = before.witness["witness"], after.witness["witness"]
            assert {**new, "values": None} == {**old, "values": None}
            assert [Fraction(a) - Fraction(b) for a, b in zip(new["values"], old["values"])] == [c] * 3
            x, y = ([Fraction(t) for t in new[key]] for key in ("x", "y"))
            alpha = Fraction(new["alpha"])
            mid = [alpha * a + (1 - alpha) * b for a, b in zip(x, y)]
            assert [Fraction(t) for t in new["values"]] == [
                evaluate(moved, point) for point in (x, y, mid)
            ]
    for p in (P("x1^3 + x2^2", 2), P("x1^3 + x1^2", 2), P("x1*x2^2 + x2^4", 2)):
        for c in SHIFTS:
            before = falsification(p, P("x1^2", 2)).witness
            after = falsification(shifted(p, c), P("x1^2", 2)).witness
            assert after["x"] == before["x"]
            x = [Fraction(t) for t in after["x"]]
            assert Fraction(after["p_x"]) == Fraction(before["p_x"]) + c == evaluate(shifted(p, c), x)
            assert Fraction(after["p_minus_x"]) == evaluate(shifted(p, c), [-t for t in x])


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
    result = unlink_decision(u, v, seed=1, trials=1)
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
        forbidden_u = set(range(1, n + 1)) - set(transform.u_block)
        assert verify_unlinked(u, transform, forbidden_u) is True
        overlap_coords = range(result.report.r + 1, result.report.r + result.report.t + 1)
        assert verify_unlinked(v, transform, overlap_coords) is True


def test_theorem_direction_on_overlapping_pairs():
    rng = random.Random(43)
    for _ in range(10):
        u, v, expected_r = overlapping_convex_pair(rng)
        report = concordance(u, v)
        assert report.r == expected_r
        assert report.r >= 1
        assert covariance(u, v) > 0


def test_zero_order_forces_zero_covariance():
    # r = 0 puts I_v^perp inside I_u, so u and v read the projections of
    # the Gaussian onto two orthogonal subspaces, which are independent
    rng = random.Random(2021)
    pairs = [overlapping_convex_pair(rng)[:2] for _ in range(20)]
    for _ in range(300):
        arity = rng.randint(2, 4)
        pairs.append((random_psd_quadratic(rng, arity), random_psd_quadratic(rng, arity)))
    zero_order = [(u, v) for u, v in pairs if concordance(u, v).r == 0]
    assert len(zero_order) >= 10
    assert [covariance(u, v) for u, v in zero_order] == [0] * len(zero_order)


def test_unlink_nonzero_covariance_at_zero_order_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(unlink, "covariance", lambda u, v: Fraction(1))
    with pytest.raises(InvariantViolation, match="r = 0"):
        unlink_decision(ROT_U, ROT_V)


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


def seeded_rotation(rng, n):
    """Exact Cayley rotation of a skew matrix with entries a/b, |a| <= 2 and 1 <= b <= 3."""
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            skew[j][i] = -skew[i][j]
    return cayley(skew)


def decision_pairs(rng):
    """16 overlapping convex pairs of arity <= 5 and degree <= 4, then 150 PSD quadratic pairs."""
    pairs = []
    while len(pairs) < 16:
        u, v, _ = overlapping_convex_pair(rng)
        if u.arity <= 5 and max(u.total_degree(), v.total_degree()) <= 4:
            pairs.append((u, v))
    for _ in range(150):
        arity = rng.randint(2, 5)
        pairs.append((random_psd_quadratic(rng, arity), random_psd_quadratic(rng, arity)))
    return pairs


def test_exact_rotations_preserve_the_decision():
    # X and QX are both standard Gaussian for an orthogonal Q, and
    # D_a (p o Q) = (D_{Qa} p) o Q, so rotating a pair keeps its covariance
    # and its r, t and m, and maps I_p to Q^T I_p; where both hypotheses are
    # decided exactly (degree <= 2) the verdict is kept too
    rng = random.Random(2022)
    zero_order = 0
    for u, v in decision_pairs(rng):
        n = u.arity
        q = seeded_rotation(rng, n)
        uq, vq = compose_linear(u, q), compose_linear(v, q)
        cov = covariance(uq, vq)
        assert cov == covariance(u, v)
        before, after = concordance(u, v), concordance(uq, vq)
        assert (after.r, after.t, after.m) == (before.r, before.t, before.m)
        for p, pq in ((u, uq), (v, vq)):
            basis = invariance_subspace(p).basis
            moved = span([[sum(q[j][i] * x[j] for j in range(n)) for i in range(n)] for x in basis], n)
            assert same_space(invariance_subspace(pq), moved)
            assert invariance_subspace(pq) == moved
        if after.r == 0:
            zero_order += 1
            assert cov == 0
        if max(u.total_degree(), v.total_degree()) <= 2:
            assert unlink_decision(uq, vq, trials=1).verdict == unlink_decision(u, v, trials=1).verdict
    assert zero_order >= 3


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


def test_verify_unlinked_rejects_mismatched_transform():
    p = P("x1^2 + x3^2", 3)
    # four new coordinates, the fourth along e3: p depends on it
    order = [0, 1, 3, 2]
    wide = dataclasses.replace(
        identity_transform(4), columns=tuple(identity_transform(4).columns[j] for j in order)
    )
    with pytest.raises(ValueError, match="transform dimension 4 != arity 3"):
        verify_unlinked(p, wide, {4})
    with pytest.raises(ValueError, match="transform dimension"):
        verify_unlinked(p, wide, set())
    for forbidden in ({4}, {0}, {1, 4}, {-1}):
        with pytest.raises(ValueError, match="outside 1..3"):
            verify_unlinked(p, identity_transform(3), forbidden)
    short = dataclasses.replace(identity_transform(3), columns=((1, 0), (0, 1), (0, 0)))
    with pytest.raises(ValueError, match="column 3 has length 2"):
        verify_unlinked(p, short, {3})
    assert verify_unlinked(p, identity_transform(3), {2}) is True
    assert verify_unlinked(p, identity_transform(3), {3}) is False


@settings(max_examples=60, deadline=None)
@given(rotated_polynomials(), st.data())
def test_certificate_matches_directional_derivative_reference(p, data):
    # columns from the invariance subspace are certified, any other column is refused
    n = p.arity
    space = invariance_subspace(p)
    entries = st.integers(-3, 3)
    columns = []
    for _ in range(n):
        if space.dimension and data.draw(st.booleans()):
            weights = data.draw(st.lists(entries, min_size=space.dimension, max_size=space.dimension))
            columns.append(tuple(sum(w * row[i] for w, row in zip(weights, space.rows)) for i in range(n)))
        else:
            columns.append(tuple(data.draw(st.lists(entries, min_size=n, max_size=n))))
    transform = dataclasses.replace(identity_transform(n), columns=tuple(columns))
    for j, column in enumerate(columns, start=1):
        certified = verify_unlinked(p, transform, {j})
        assert certified == verify_unlinked_by_derivatives(p, transform, {j})
        assert certified == contains_vector_fraction(space, column)
    forbidden = set(data.draw(st.lists(st.integers(1, n), max_size=n)))
    assert verify_unlinked(p, transform, forbidden) == verify_unlinked_by_derivatives(
        p, transform, forbidden
    )


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
        assert result.transform.matrix == base.transform.matrix, k
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
    result = covariance_integral_check(P("x1^2", 1), P("x1^2", 1), 300_000, seed=42)
    assert result.exact_cov == 2
    assert result.passed


def test_integral_check_independent_pair():
    result = covariance_integral_check(P("x1^2", 2), P("x2^2", 2), 300_000, seed=42)
    assert result.exact_cov == 0
    assert result.passed


def test_integral_check_constant_shift():
    result = covariance_integral_check(P("x1^2", 1), P("x1^2 + 1", 1), 300_000, seed=42)
    assert result.exact_cov == 2
    assert result.passed


def test_integral_check_rejects_negative_values():
    with pytest.raises(ValueError, match="nonnegative"):
        covariance_integral_check(P("x1^2 - 5", 1), P("x1^2", 1), 10_000, seed=42)


def test_integral_check_rejects_large_arity():
    with pytest.raises(ValueError, match="arity"):
        covariance_integral_check(P("x1^2", 3), P("x2^2", 3), 10_000, seed=42)


# the (points, cap) grid of the check as shipped
DEFAULT_GRID = (sampling.GRID_POINTS, sampling.GRID_CAP)


def integral_checks(monkeypatch, u, v, samples, grid, seed):
    """The integral check and its reference, both on the grid (points, cap)."""
    points, cap = grid
    monkeypatch.setattr(sampling, "GRID_POINTS", points)
    monkeypatch.setattr(sampling, "GRID_CAP", cap)
    result = covariance_integral_check(u, v, samples, seed=seed)
    reference = covariance_integral_check_reference(u, v, samples, points, cap, seed)
    return dataclasses.astuple(result), dataclasses.astuple(reference)


@pytest.mark.parametrize(
    "u, v, samples, grid",
    [
        (P("x1^2", 1), P("x1^2", 1), 300_000, DEFAULT_GRID),
        (P("x1^2", 2), P("x2^2", 2), 300_000, DEFAULT_GRID),
        (P("x1^2", 1), P("x1^2 + 1", 1), 300_000, DEFAULT_GRID),
        (P("3/2*x1^2", 1), P("2*x1^4 + 1/2*x1^2", 1), 200_000, DEFAULT_GRID),
        (P("x1^2 + 3*x2^2", 2), P("3/2*x2^4", 2), 200_000, DEFAULT_GRID),
        (P("x1^4", 1), P("x1^2", 1), 1000, (2, sampling.GRID_CAP)),
    ],
)
def test_integral_check_matches_reference(monkeypatch, u, v, samples, grid):
    # the cap taken from the quantile grid and the marginals read off the
    # joint counts leave every field bit-identical
    result, reference = integral_checks(monkeypatch, u, v, samples, grid, 42)
    assert result == reference


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize(
    "u, v, samples, grid",
    [
        # over 255 nodes per axis, and values beyond the 0.99 cap
        (P("3/2*x1^2", 1), P("2*x1^4 + 1/2*x1^2", 1), 200_000, (200, 0.99)),
        (P("x1^2 + 3*x2^2", 2), P("3/2*x2^4", 2), 200_000, (200, 0.99)),
        (P("x1^4", 1), P("x1^2", 1), 200_000, (2, sampling.GRID_CAP)),
        (P("x1^2", 1), P("x1^2 + 1", 1), 50_000, DEFAULT_GRID),
    ],
)
def test_integral_check_matches_reference_on_other_seeds(monkeypatch, u, v, samples, grid, seed):
    result, reference = integral_checks(monkeypatch, u, v, samples, grid, seed)
    assert result == reference


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


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_divergence_check_rejects_non_finite_direction(value):
    with pytest.raises(ValueError, match="rational"):
        divergence_check(P("x1^2 + x2^2", 2), [value, 0.0])


def test_divergence_check_zero_direction_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        divergence_check(P("x1^2", 1), (0.0,))
