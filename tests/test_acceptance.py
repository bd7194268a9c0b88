"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

import numpy as np

from qcunlink.gaussmeasure import covariance, expectation
from qcunlink.polyalg import Polynomial, evaluate
from qcunlink.sampling import correlation_spotcheck, covariance_integral_check, mc_estimate
from qcunlink.structure import (
    CASE_A,
    CASE_B,
    CASE_CONST,
    CERTIFIED_CONVEX_QUADRATIC,
    FALSIFIED,
    NOT_FALSIFIED,
    classify_ray,
    invariance_subspace,
    qc_falsify,
    ray_constant,
)
from qcunlink.unlink import (
    VERDICT_UNLINKED,
    concordance,
    unlink_decision,
    verify_unlinked,
)

from corpus import (
    NON_QC_FIXTURES,
    QC_FIXTURES,
    RAY_CORPUS,
    P,
    overlapping_convex_pair,
    random_even_convex,
    random_psd_quadratic,
)
from exact_oracles import compose_linear, contains_vector_fraction


def report(criterion: int, description: str, passed: bool):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {description}")
    assert passed, f"acceptance criterion {criterion} failed: {description}"


def test_criterion_1_rotated_pair_end_to_end():
    u = P("x1^2 + 2*x1*x2 + x2^2", 2)
    v = P("x1^2 - 2*x1*x2 + x2^2", 2)
    start = time.perf_counter()
    result = unlink_decision(u, v)
    elapsed = time.perf_counter() - start

    ok = result.verdict == VERDICT_UNLINKED
    ok = ok and result.cov_exact == 0
    ok = ok and result.report.r == 0
    ok = ok and result.transform.orthogonality_error() <= 1e-10
    n = result.transform.n
    for p, block in ((u, result.transform.u_block), (v, result.transform.v_block)):
        ok = ok and verify_unlinked(p, result.transform, set(range(1, n + 1)) - set(block))
    composed_u = compose_linear(u, result.transform.matrix)
    composed_v = compose_linear(v, result.transform.matrix)
    for composed, lead in ((composed_u, (2, 0)), (composed_v, (0, 2))):
        ok = ok and abs(float(composed.terms.get(lead, 0)) - 2.0) <= 1e-9
        for exponent, coeff in composed.terms.items():
            if exponent != lead:
                ok = ok and abs(float(coeff)) <= 1e-9
    ok = ok and elapsed < 1.0
    report(1, f"rotated pair unlinks exactly in {elapsed:.3f}s", ok)


def test_criterion_2_theorem_direction_suite():
    rng = random.Random(42)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        u, v, expected_r = overlapping_convex_pair(rng)
        rep = concordance(u, v)
        ok = ok and rep.r == expected_r and rep.r >= 1
        ok = ok and covariance(u, v) > 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(2, f"50 overlapping convex pairs with r >= 1 all have cov > 0 ({elapsed:.1f}s)", ok)


def _random_polynomial(rng: random.Random) -> Polynomial:
    arity = rng.randint(1, 4)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        while True:
            exponent = tuple(rng.randint(0, 3) for _ in range(arity))
            if sum(exponent) <= 6:
                break
        denominator = rng.randint(1, 4)
        numerator = rng.randint(-3 * denominator, 3 * denominator)
        terms[exponent] = Fraction(numerator, denominator)
    return Polynomial(arity, terms)


def test_criterion_3_exact_vs_monte_carlo():
    rng = random.Random(42)
    hits = 0
    for _ in range(50):
        p = _random_polynomial(rng)
        exact = float(expectation(p))
        estimate = mc_estimate(p, 10**6, seed=42)
        if abs(estimate.mean - exact) <= 4 * estimate.standard_error:
            hits += 1
    report(3, f"MC within 4 stderr of exact for {hits}/50 random polynomials", hits >= 47)


def test_criterion_4_subspace_law():
    rng = random.Random(42)
    ok = True
    for name, p in QC_FIXTURES:
        space = invariance_subspace(p)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in space.basis]
            vector = [
                sum(c * row[i] for c, row in zip(coeffs, space.basis))
                for i in range(p.arity)
            ] or [Fraction(0)] * p.arity
            if not space.basis:
                vector = [Fraction(0)] * p.arity
            ok = ok and ray_constant(p, vector)
        outside = 0
        while outside < 100:
            candidate = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(p.arity)]
            if not any(candidate) or contains_vector_fraction(space, candidate):
                continue
            outside += 1
            ok = ok and not ray_constant(p, candidate)
    report(4, "invariance combinations stay constant on rays, outsiders never do", ok)


def test_criterion_5_concordance_symmetry():
    ok = True
    for _, u in QC_FIXTURES:
        for _, v in QC_FIXTURES:
            if u.arity == v.arity:
                ok = ok and concordance(u, v).r == concordance(v, u).r
    rng = random.Random(42)
    for _ in range(50):
        arity = rng.randint(2, 5)
        u = random_psd_quadratic(rng, arity)
        v = random_psd_quadratic(rng, arity)
        ok = ok and concordance(u, v).r == concordance(v, u).r
    report(5, "concordance order agrees when computed from either side", ok)


def test_criterion_6_covariance_integral_identity():
    start = time.perf_counter()
    same = covariance_integral_check(P("x1^2", 1), P("x1^2", 1), 300_000, seed=42)
    independent = covariance_integral_check(P("x1^2", 2), P("x2^2", 2), 300_000, seed=42)
    elapsed = time.perf_counter() - start
    ok = same.exact_cov == 2 and same.passed
    ok = ok and independent.exact_cov == 0 and independent.passed
    ok = ok and elapsed < 60.0
    report(
        6,
        f"double integral matches cov: {same.integral_estimate:.3f} vs 2, "
        f"{independent.integral_estimate:+.4f} vs 0 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_7_correlation_spotchecks():
    rng = random.Random(42)
    ok = True
    for _ in range(20):
        arity = rng.randint(1, 2)
        u = random_even_convex(rng, list(range(1, arity + 1)), arity)
        v = random_even_convex(rng, list(range(1, arity + 1)), arity)
        # thresholds near typical values so neither event is degenerate
        ones = (Fraction(1),) * arity
        k1 = float(evaluate(u, ones)) * rng.uniform(0.5, 2.0)
        k2 = float(evaluate(v, ones)) * rng.uniform(0.5, 2.0)
        check = correlation_spotcheck(u, v, k1, k2, 100_000, seed=rng.randint(1, 10**6))
        ok = ok and check.passed
    report(7, "20 symmetric convex sublevel pairs satisfy the correlation bound", ok)


def test_criterion_8_ray_classifier_corpus():
    ok = len(RAY_CORPUS) == 30
    for name, g, expected in RAY_CORPUS:
        result = classify_ray(g)
        target = frozenset(expected) if expected else frozenset({CASE_CONST})
        ok = ok and result.cases == target
        if CASE_A in result.cases:
            lam0 = Fraction(result.lambda0_estimate[CASE_A]).limit_denominator(10**6)
            values = [evaluate(g, (lam0 + k,)) for k in range(51)]
            ok = ok and all(a < b for a, b in zip(values, values[1:]))
            ok = ok and values[50] > values[0] + 1
        if CASE_B in result.cases:
            lam0 = Fraction(result.lambda0_estimate[CASE_B]).limit_denominator(10**6)
            values = [evaluate(g, (lam0 - k,)) for k in range(51)]
            ok = ok and all(a < b for a, b in zip(values, values[1:]))
            ok = ok and values[50] > values[0] + 1
    report(8, "30 univariate fixtures classify to the hand-derived case sets", ok)


def test_criterion_9_falsifier_soundness():
    ok = True
    for name, p in QC_FIXTURES:
        verdict = qc_falsify(p, trials=10_000, seed=42)
        ok = ok and verdict.status in (NOT_FALSIFIED, CERTIFIED_CONVEX_QUADRATIC)
    for name, p in NON_QC_FIXTURES:
        verdict = qc_falsify(p, trials=10_000, seed=42)
        ok = ok and verdict.status == FALSIFIED
        if verdict.witness is not None:
            mid = tuple(
                verdict.witness.alpha * a + (1 - verdict.witness.alpha) * b
                for a, b in zip(verdict.witness.x, verdict.witness.y)
            )
            margin = evaluate(p, mid) - max(
                evaluate(p, verdict.witness.x), evaluate(p, verdict.witness.y)
            )
            ok = ok and margin >= Fraction(1, 10**9)
    report(9, "falsifier: clean on the convex corpus, total on the non-convex corpus", ok)
