"""Quasi-convexity falsifier, ray classes, and invariance subspaces."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcunlink import structure
from qcunlink.exactla import kernel_and_row_space, psd_violation
from qcunlink.polyalg import Polynomial, derivative_matrix, evaluate
from qcunlink.structure import (
    CASE_A,
    CASE_B,
    CASE_CONST,
    CERTIFIED_CONVEX_QUADRATIC,
    FALSIFIED,
    NOT_FALSIFIED,
    QcVerdict,
    QcWitness,
    classify_ray,
    invariance_and_complement,
    invariance_subspace,
    qc_falsify,
    ray_constant,
)

from corpus import NON_QC_FIXTURES, QC_FIXTURES, RAY_CORPUS, P, rotated_polynomials
from exact_oracles import (
    classify_ray_probe,
    invariance_subspace_by_partials,
    orthogonal_complement,
    psd_violation_fraction,
    quadratic_form_fraction,
    quadratic_witness_doubling,
    restrict_line,
    same_space,
)


def exact_violation(p, witness):
    mid = tuple(
        witness.alpha * a + (1 - witness.alpha) * b for a, b in zip(witness.x, witness.y)
    )
    return evaluate(p, mid) - max(evaluate(p, witness.x), evaluate(p, witness.y))


def random_fraction(rng):
    """A dyadic rational in [-POINT_BOUND, POINT_BOUND), drawn as the falsifier draws one.

    One 13-bit draw: level j = r & 7, and the top 3 + j of the other 10
    bits count steps of 1/2^j up from -4.
    """
    r = rng.getrandbits(13)
    j = r & 7
    return Fraction(r >> 3 >> (7 - j), 2**j) - structure.POINT_BOUND


def random_weight(rng):
    """A weight alpha = (2i+1)/2^k in (0, 1), k = 1..4, drawn as the falsifier draws one.

    One 6-bit draw: k = (r & 3) + 1, and i is the top k - 1 of the other 4 bits.
    """
    r = rng.getrandbits(6)
    k = (r & 3) + 1
    return Fraction(2 * (r >> 2 >> (5 - k)) + 1, 2**k)


def exact_reference_falsify(p, trials, seed):
    """Reference oracle for the sampled falsifier: every trial checked exactly.

    Draws its trials with ``random_fraction`` and ``random_weight`` from
    ``random.Random(seed)``, the stream that ``qc_falsify`` decodes on its
    own, and accepts the first trial with
    p(alpha*x + (1-alpha)*y) > max(p(x), p(y)), evaluated over ``Fraction``.
    """
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        x = [random_fraction(rng) for _ in range(p.arity)]
        y = [random_fraction(rng) for _ in range(p.arity)]
        alpha = random_weight(rng)
        mid = [alpha * a + (1 - alpha) * b for a, b in zip(x, y)]
        px, py, pmid = evaluate(p, x), evaluate(p, y), evaluate(p, mid)
        if pmid > max(px, py):
            return QcVerdict(FALSIFIED, QcWitness(tuple(x), tuple(y), alpha, (px, py, pmid)), trial, seed)
    return QcVerdict(NOT_FALSIFIED, None, trials, seed)


def check_translation_invariance(p, direction, trials, seed=0):
    """True iff p(b + t*v) is constant in t for ``trials`` random base points b.

    Each check is exact: the restriction must have no term of degree >= 1.
    Base points come from the falsifier's point sampler.
    """
    if len(direction) != p.arity:
        raise ValueError("direction length must equal the arity")
    rng = random.Random(seed)
    for _ in range(trials):
        base = [random_fraction(rng) for _ in range(p.arity)]
        line = restrict_line(p, base, direction)
        if any(e[0] >= 1 for e in line.terms):
            return False
    return True


# ---------------------------------------------------------------------------
# Falsifier
# ---------------------------------------------------------------------------


def test_falsify_concave_parabola():
    verdict = qc_falsify(P("-x1^2", 1), trials=100, seed=42)
    assert verdict.status == FALSIFIED
    assert exact_violation(P("-x1^2", 1), verdict.witness) >= Fraction(1, 10**9)


def test_falsify_cross_square():
    p = P("x1^2*x2^2", 2)
    verdict = qc_falsify(p, trials=10_000, seed=42)
    assert verdict.status == FALSIFIED
    assert exact_violation(p, verdict.witness) >= Fraction(1, 10**9)


def test_certify_convex_quadratic():
    verdict = qc_falsify(P("x1^2 + x2^2", 2), trials=10, seed=42)
    assert verdict.status == CERTIFIED_CONVEX_QUADRATIC
    assert verdict.witness is None


def test_certify_degenerate_quadratics():
    assert qc_falsify(P("x1 + 3", 2), 10, 1).status == CERTIFIED_CONVEX_QUADRATIC
    assert qc_falsify(Polynomial(2), 10, 1).status == CERTIFIED_CONVEX_QUADRATIC
    # PSD but singular quadratic form
    assert qc_falsify(P("x1^2 + 2*x1*x2 + x2^2", 2), 10, 1).status == CERTIFIED_CONVEX_QUADRATIC


def test_falsifier_is_deterministic_for_quadratics():
    a = qc_falsify(P("x1^2 - x2^2", 2), trials=5, seed=1)
    b = qc_falsify(P("x1^2 - x2^2", 2), trials=5, seed=2)
    assert a.status == FALSIFIED and a.witness == b.witness


def test_falsifier_never_falsifies_convex_corpus():
    for name, p in QC_FIXTURES:
        verdict = qc_falsify(p, trials=2_000, seed=42)
        assert verdict.status in (NOT_FALSIFIED, CERTIFIED_CONVEX_QUADRATIC), name


def test_falsifier_catches_non_qc_corpus():
    for name, p in NON_QC_FIXTURES:
        verdict = qc_falsify(p, trials=10_000, seed=42)
        assert verdict.status == FALSIFIED, name
        assert exact_violation(p, verdict.witness) >= Fraction(1, 10**9), name


def test_falsify_tiny_cross_square_strict_witness():
    # a positive multiple of a non-quasi-convex polynomial is falsified at the same trial
    tiny = P("1/1000000000000*x1^2*x2^2", 2)
    verdict = qc_falsify(tiny, trials=10_000, seed=42)
    assert verdict.status == FALSIFIED
    assert exact_violation(tiny, verdict.witness) > 0
    assert verdict.witness.values[2] > max(verdict.witness.values[:2])
    unscaled = qc_falsify(P("x1^2*x2^2", 2), trials=10_000, seed=42)
    assert (verdict.trials, verdict.witness.x, verdict.witness.y) == (
        unscaled.trials, unscaled.witness.x, unscaled.witness.y
    )


def test_quadratic_witness_scale_free():
    # the concave direction gives a witness at half-width 1 at any positive scale
    tiny = qc_falsify(P("-1/1000000000000*x1^2", 1), trials=1, seed=1)
    plain = qc_falsify(P("-x1^2", 1), trials=1, seed=1)
    assert tiny.status == plain.status == FALSIFIED
    assert (tiny.witness.x, tiny.witness.y) == (plain.witness.x, plain.witness.y)
    assert exact_violation(P("-1/1000000000000*x1^2", 1), tiny.witness) > 0


@st.composite
def concave_quadratics(draw):
    """(p, v): p of total degree <= 2 with v'Av < 0 for its quadratic form A, v rescaled."""
    arity = draw(st.integers(1, 3))
    exponents = [e for e in itertools.product(range(3), repeat=arity) if sum(e) <= 2]
    coefficient = st.fractions(-5, 5, max_denominator=7)
    p = Polynomial(arity, {e: draw(coefficient) for e in exponents if draw(st.booleans())})
    p = p * Fraction(10) ** draw(st.integers(-30, 30))
    direction = psd_violation(p._hessian_rows())
    assume(direction is not None)
    scale = draw(st.fractions(Fraction(1, 1000), 1000, max_denominator=1000).filter(bool))
    return p, tuple(scale * c for c in direction)


@settings(max_examples=100, deadline=None)
@given(concave_quadratics())
@example((P("-x1^2", 1), (Fraction(1),)))  # no linear term: s = 1
@example((P("-x1^2 + 2*x1", 1), (Fraction(1),)))  # |l| / -q = 2 exactly: s = 4
@example((P("-x1^2 + 3*x1 + 1", 1), (Fraction(1, 3),)))  # s*(-q) = |l| at s = 8 is no violation
@example((P("x1^2 - x2^2 + 1/2*x1 - 7*x2", 2), (Fraction(0), Fraction(1))))
def test_quadratic_witness_matches_doubling_reference(case):
    p, direction = case
    witness = structure._quadratic_witness(p, direction)
    assert witness == quadratic_witness_doubling(p, direction)
    assert exact_violation(p, witness) > 0


@st.composite
def scaled_quadratics(draw):
    """Total degree <= 2 in up to 6 variables, with linear and constant terms, times 10^k."""
    arity = draw(st.integers(1, 6))
    exponents = [e for e in itertools.product(range(3), repeat=arity) if sum(e) <= 2]
    coefficient = st.fractions(-5, 5, max_denominator=7)
    p = Polynomial(arity, {e: draw(coefficient) for e in exponents if draw(st.booleans())})
    return p * Fraction(10) ** draw(st.integers(-400, 400))


@st.composite
def higher_degree_polynomials(draw):
    """Total degree 3 or 4 in up to 4 variables, with terms of every lower degree."""
    arity = draw(st.integers(1, 4))
    exponents = [e for e in itertools.product(range(5), repeat=arity) if sum(e) <= 4]
    coefficient = st.fractions(-5, 5, max_denominator=9)
    p = Polynomial(arity, {e: draw(coefficient) for e in exponents if draw(st.booleans())})
    assume(p.total_degree() > 2)
    return p


@settings(max_examples=200, deadline=None)
@given(st.one_of(scaled_quadratics(), higher_degree_polynomials()))
@example(P("x1^2 + 2*x1*x2 + x2^2 + 3*x1", 2))  # singular PSD form
@example(P("1/3*x1*x2 - 2*x2 + 7", 2))  # zero diagonal, indefinite
@example(P(f"{10**400}*x1^2 - {Fraction(1, 10**400)}*x2^2", 2))
@example(P("x1^4 - 1/16*x1^2", 1))
@example(P("1/3*x1^3*x2 + 2/5*x1*x2 - 7/2*x2^2 + x1", 2))
@example(P("x1^2*x2^2 + 1/7*x3^3", 3))  # no degree-2 part: zero rows
def test_hessian_rows_of_derivative_matrix_match_fraction_reference(p):
    # the rows of the derivative matrix at x_1..x_n are C times the Hessian
    # of the degree-2 part, C the lcm of all of p's denominators: a positive
    # multiple of the rational quadratic form, so the PSD test takes the
    # same pivots and returns the same witness
    scale = math.lcm(*(c.denominator for c in p.terms.values()))
    form = quadratic_form_fraction(p)
    rows = p._hessian_rows()
    assert [list(row) for row in rows] == [[2 * scale * a for a in row] for row in form]
    matrix = derivative_matrix(p)
    assert all(any(row is m for m in matrix) for row in rows if any(row))
    reference = psd_violation_fraction(form)
    assert psd_violation(rows) == reference
    if p.total_degree() > 2:
        return
    if reference is None:
        expected = QcVerdict(CERTIFIED_CONVEX_QUADRATIC, None, 0, 5)
    else:
        expected = QcVerdict(FALSIFIED, structure._quadratic_witness(p, reference), 0, 5)
    assert qc_falsify(p, trials=1, seed=5) == expected


def test_falsify_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        qc_falsify(P("x1^4", 1), trials=0, seed=1)


# ---------------------------------------------------------------------------
# Integer trial test against the exact reference loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize(
    "p", [pytest.param(p, id=name) for name, p in QC_FIXTURES + NON_QC_FIXTURES]
)
def test_screened_trials_match_exact_reference_on_corpus(p, seed):
    # the sampled loop itself, also on the quadratics that qc_falsify decides exactly
    assert structure._sample_violation(p, 300, seed) == exact_reference_falsify(p, 300, seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 42, 2**31 - 1])
@pytest.mark.parametrize(
    "p, trials, status",
    [
        pytest.param(P("2*x1^4 + 3*x2^4 + x3^2", 3), 300, NOT_FALSIFIED, id="convex-full-trials"),
        # not homogeneous: the homogenizing variable s carries powers of the fixed denominator
        pytest.param(P("x1^4 + 3*x1^2 + 5", 1), 300, NOT_FALSIFIED, id="inhomogeneous-arity-1"),
        pytest.param(
            P("x1^2 + x2^2 - 1/100*x1^4", 2), 300, NOT_FALSIFIED, id="inhomogeneous-outside-box"
        ),
        # the benchmark's rotated full-trial shape, x1^4 + 3*(4/5*x2 - 3/5*x3)^4
        pytest.param(
            P(
                "x1^4 + 768/625*x2^4 - 2304/625*x2^3*x3 + 2592/625*x2^2*x3^2"
                " - 1296/625*x2*x3^3 + 243/625*x3^4",
                3,
            ),
            300,
            NOT_FALSIFIED,
            id="rotated-full-trials",
        ),
        pytest.param(
            P("-" + " - ".join(f"x{i}^4" for i in range(1, 9)), 8),
            300,
            FALSIFIED,
            id="concave-quartic-n8",
        ),
        # falsified at trials 322 to 5704 of these seeds: a witness this late
        # matches only if every draw before it does
        pytest.param(
            P("2*x1^4 + 3*x2^4 + x3^2 - x1^2*x2^2", 3), 10_000, FALSIFIED, id="late-falsified"
        ),
    ],
)
def test_falsifier_draws_the_randint_stream(p, trials, status, seed):
    # differential test against the reference, which decodes the same
    # getrandbits stream by its own arithmetic and decides over Fraction;
    # the name is that of the randint stream the falsifier drew before its
    # dyadic draws, kept so that the 30 test ids stay comparable across runs
    verdict = qc_falsify(p, trials, seed)
    assert verdict == exact_reference_falsify(p, trials, seed)
    assert verdict.status == status


class ScriptedRandom(random.Random):
    """``random.Random`` whose ``getrandbits`` replays fixed raw values.

    Each value must fit the requested width, so a script of 13-bit point
    draws and 6-bit weight draws also checks the widths the falsifier asks for.
    """

    script = ()

    def __init__(self, seed):
        super().__init__(seed)
        self.values = iter(self.script)

    def getrandbits(self, k):
        value = next(self.values)
        assert 0 <= value < 2**k
        return value


def point_draw(x, level, noise=0):
    """The 13-bit draw of the entry x at a level: noise fills the bits that level ignores."""
    steps = (x + structure.POINT_BOUND) * 2**level
    assert steps.denominator == 1 and noise < 2 ** (7 - level)
    return (int(steps) << (7 - level) | noise) << 3 | level


def test_trial_ties_are_no_violation(monkeypatch):
    # x^4 - 2x^2 at alpha = 1/2 between -3/4 and 1/4 has p(mid) = p(-1/4) = p(1/4) > p(-3/4),
    # a tie with y; the mirrored trial ties with x; only the third trial is strict.
    # A trial is the draws of x, y and alpha; the weight draw 0b010100 has
    # k = 1 and alpha = 1/2.
    monkeypatch.setattr(ScriptedRandom, "script", (
        point_draw(Fraction(-3, 4), 2, 17), point_draw(Fraction(1, 4), 3, 9), 0b010100,
        point_draw(Fraction(1, 4), 7), point_draw(Fraction(-3, 4), 5, 1), 0b010100,
        point_draw(Fraction(-1), 0, 127), point_draw(Fraction(1), 0), 0,
    ))
    monkeypatch.setattr(random, "Random", ScriptedRandom)
    p = P("x1^4 - 2*x1^2", 1)
    verdict = qc_falsify(p, 3, 1)
    assert verdict.trials == 3
    assert verdict.witness == QcWitness(
        (Fraction(-1),), (Fraction(1),), Fraction(1, 2), (Fraction(-1), Fraction(-1), Fraction(0))
    )
    assert verdict == exact_reference_falsify(p, 3, 1)


def test_every_draw_decodes_to_its_documented_point_and_weight(monkeypatch):
    # -x2^2 is violated by every trial with x2 = -1 and y2 = 1, so the
    # witness of a one-trial search shows how the draws of x1 and alpha decode
    p = P("-x2^2", 2)
    minus_one, one = point_draw(Fraction(-1), 0), point_draw(Fraction(1), 0)

    def witness(script):
        monkeypatch.setattr(ScriptedRandom, "script", script)
        found = structure._sample_violation(p, 1, 0).witness
        reference = ScriptedRandom(0)
        x = [random_fraction(reference) for _ in range(2)]
        y = [random_fraction(reference) for _ in range(2)]
        assert (found.x, found.y, found.alpha) == (tuple(x), tuple(y), random_weight(reference))
        return found

    monkeypatch.setattr(random, "Random", ScriptedRandom)
    levels = {j: [] for j in range(8)}
    for r in range(2**13):
        levels[r & 7].append(witness((r, minus_one, 0, one, 0)).x[0])
    for j, points in levels.items():
        # 1024 draws per level, each point of the grid of step 1/2^j in [-4, 4) 2^(7-j) times
        grid = [Fraction(m, 2**j) - 4 for m in range(8 * 2**j)]
        assert sorted(points) == sorted(grid * 2 ** (7 - j))
    weights = {k: [] for k in range(1, 5)}
    for r in range(2**6):
        weights[(r & 3) + 1].append(witness((0, minus_one, 0, one, r)).alpha)
    for k, alphas in weights.items():
        # 16 draws per k, each odd multiple of 1/2^k in (0, 1) equally often
        odd = [Fraction(2 * i + 1, 2**k) for i in range(2 ** (k - 1))]
        assert sorted(alphas) == sorted(odd * (16 // 2 ** (k - 1)))


def test_falsifier_exact_at_coefficients_beyond_float_range():
    # coefficients far below and far above the float range: every trial is decided exactly
    for scale in (Fraction(1, 2**1100), Fraction(2**1100)):
        p = P("x1^4 + x2^4", 2) * scale
        assert qc_falsify(p, 50, 3) == exact_reference_falsify(p, 50, 3)
        q = P("x1^2*x2^2", 2) * scale
        assert qc_falsify(q, 300, 42) == exact_reference_falsify(q, 300, 42)


@st.composite
def convex_forms(draw, arity, degree):
    """Sum of even powers of rational linear forms, one of them of full degree."""
    acc = Polynomial(arity)
    powers = [degree] + draw(st.lists(st.sampled_from([2, 4, 6][: degree // 2]), max_size=2))
    for power in powers:
        coeffs = draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=arity, max_size=arity))
        coeffs[draw(st.integers(0, arity - 1))] = draw(st.sampled_from([-1, 1])) * draw(
            st.fractions(Fraction(1, 3), 2, max_denominator=3)
        )
        form = Polynomial(
            arity, {tuple(int(i == j) for j in range(arity)): c for i, c in enumerate(coeffs)}
        )
        acc = acc + draw(st.fractions(Fraction(1, 4), 2, max_denominator=4)) * form**power
    return acc


@st.composite
def symmetric_terms(draw, arity, degree):
    """A full-degree monomial plus up to three more terms, all of even degree."""
    units = draw(st.lists(st.integers(0, arity - 1), min_size=degree, max_size=degree))
    exponents = [tuple(units.count(i) for i in range(arity))]
    for _ in range(draw(st.integers(0, 3))):
        low = draw(st.lists(st.integers(0, degree), min_size=arity, max_size=arity))
        if sum(low) % 2:
            low[0] += 1
        if 2 <= sum(low) <= degree:
            exponents.append(tuple(low))
    nonzero = st.fractions(-3, 3, max_denominator=5).filter(bool)
    return Polynomial(arity, {e: draw(nonzero) for e in exponents})


@st.composite
def symmetric_falsifier_inputs(draw):
    """Symmetric polynomials of degree 4 or 6 in 1-4 variables, scaled by 10^k, |k| <= 400.

    Convex ones (even powers of linear forms), arbitrary ones (mostly not
    quasi-convex, falsified early), and convex ones with a small arbitrary
    perturbation (falsified late or not at all, with small gaps).
    """
    arity = draw(st.integers(1, 4))
    degree = draw(st.sampled_from([4, 6]))
    kind = draw(st.sampled_from(["convex", "arbitrary", "perturbed"]))
    if kind == "arbitrary":
        p = draw(symmetric_terms(arity, degree))
    else:
        p = draw(convex_forms(arity, degree))
        if kind == "perturbed":
            p = p + Fraction(1, 100) * draw(symmetric_terms(arity, degree))
    assume(p.total_degree() > 2)
    return p * Fraction(10) ** draw(st.integers(-400, 400))


@settings(max_examples=40, deadline=None)
@given(symmetric_falsifier_inputs(), st.integers(1, 300), st.integers(1, 2**31 - 1))
def test_falsifier_matches_exact_reference_on_generated_inputs(p, trials, seed):
    assert qc_falsify(p, trials, seed) == exact_reference_falsify(p, trials, seed)


# ---------------------------------------------------------------------------
# Ray classification
# ---------------------------------------------------------------------------


def test_classify_ray_corpus():
    for name, g, expected in RAY_CORPUS:
        result = classify_ray(g)
        if not expected:
            assert result.cases == frozenset({CASE_CONST}), name
        else:
            assert result.cases == frozenset(expected), name


def test_classify_ray_monotone_families():
    assert classify_ray(P("x1", 1)).cases == frozenset({CASE_A})
    assert classify_ray(P("-x1^3", 1)).cases == frozenset({CASE_B})
    assert classify_ray(P("x1^2", 1)).cases == frozenset({CASE_A, CASE_B})


def test_classify_ray_monotone_beyond_threshold():
    for name, g, expected in RAY_CORPUS:
        result = classify_ray(g)
        if CASE_A in result.cases:
            lam0 = Fraction(result.lambda0_estimate[CASE_A]).limit_denominator(10**6)
            values = [evaluate(g, (lam0 + k,)) for k in range(0, 51)]
            assert all(a < b for a, b in zip(values, values[1:])), name
            assert values[50] > values[0] + 1, name
        if CASE_B in result.cases:
            lam0 = Fraction(result.lambda0_estimate[CASE_B]).limit_denominator(10**6)
            values = [evaluate(g, (lam0 - k,)) for k in range(0, 51)]
            assert all(a < b for a, b in zip(values, values[1:])), name
            assert values[50] > values[0] + 1, name


def test_classify_ray_requires_univariate():
    with pytest.raises(ValueError, match="univariate"):
        classify_ray(P("x1 + x2", 2))


@st.composite
def ray_restrictions(draw):
    """Univariate polynomials up to degree 8, each coefficient scaled by its own 10^k, |k| <= 400.

    Apart scales put the root bound of many draws beyond the float range.
    """
    coefficients = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=9))
    scales = draw(st.lists(st.integers(-400, 400), min_size=len(coefficients), max_size=len(coefficients)))
    return Polynomial(1, {(k,): c * Fraction(10) ** e for k, (c, e) in enumerate(zip(coefficients, scales))})


def assert_matches_probe_reference(g):
    # the same cases, and each exact threshold rounds to the reference's
    # float, which is infinite exactly when the threshold is beyond float range
    old = classify_ray_probe(g)
    new = classify_ray(g)
    assert new.cases == old.cases
    assert new.lambda0_estimate.keys() == old.lambda0_estimate.keys()
    for case, threshold in new.lambda0_estimate.items():
        assert type(threshold) is Fraction
        try:
            rounded = float(threshold)
        except OverflowError:
            rounded = math.inf if threshold > 0 else -math.inf
        assert rounded == old.lambda0_estimate[case]


@settings(max_examples=200, deadline=None)
@given(ray_restrictions())
@example(P(f"x1^4 + {10**400}*x1^2", 1))
@example(P(f"-x1^3 + {Fraction(1, 10**400)}*x1^2", 1))
def test_classify_ray_matches_probe_reference(g):
    assert_matches_probe_reference(g)


def test_classify_ray_corpus_matches_probe_reference():
    for _, g, _ in RAY_CORPUS:
        assert_matches_probe_reference(g)


# ---------------------------------------------------------------------------
# Invariance subspace
# ---------------------------------------------------------------------------


def test_invariance_subspace_plane_pair_3d():
    space = invariance_subspace(P("x1^2 + 2*x1*x2 + x2^2", 3))
    expected = kernel_and_row_space([[1, -1, 0], [0, 0, 1]], 3)[1]
    assert same_space(space, expected)


def test_invariance_subspace_definite_quadratic_trivial():
    assert invariance_subspace(P("x1^2 + x2^2", 2)).dimension == 0


def test_invariance_subspace_zero_polynomial_full():
    assert invariance_subspace(Polynomial(2)).dimension == 2


# constants added to a polynomial; none of them moves its invariance subspace
SHIFTS = (1, Fraction(7, 3), -5, Fraction(10**50, 3))


def shifted(p, c):
    return p + Polynomial.constant(p.arity, c)


def test_invariance_ignores_the_constant_term():
    for name, p in QC_FIXTURES + NON_QC_FIXTURES:
        for c in SHIFTS:
            q = shifted(p, c)
            assert invariance_subspace(q) == invariance_subspace(p), (name, c)
            assert invariance_and_complement(q) == invariance_and_complement(p), (name, c)


def test_ray_constant_examples():
    p = P("x1^2 + 2*x1*x2 + x2^2", 2)
    assert ray_constant(p, (1, -1))
    assert not ray_constant(p, (1, 0))
    assert ray_constant(p, (0, 0))
    # constancy on the line through 0 is weaker than translation invariance:
    # x1*x2 vanishes on the x1 axis, yet no direction leaves it unchanged
    q = P("x1*x2", 2)
    assert ray_constant(q, (1, 0))
    assert invariance_subspace(q).dimension == 0


def test_ray_constant_ignores_the_constant_term():
    rng = random.Random(37)
    for name, p in QC_FIXTURES + NON_QC_FIXTURES:
        space = invariance_subspace(p)
        directions = list(space.basis)
        directions += [[Fraction(rng.randint(-5, 5)) for _ in range(p.arity)] for _ in range(4)]
        for direction in directions:
            for c in SHIFTS:
                assert ray_constant(shifted(p, c), direction) == ray_constant(p, direction), name
    # both answers occur
    p = shifted(P("x1^2 + 2*x1*x2 + x2^2", 2), 3)
    assert ray_constant(p, (1, -1)) and not ray_constant(p, (1, 1))


def test_check_translation_invariance_examples():
    p = P("x1^2 + 2*x1*x2 + x2^2", 2)
    assert check_translation_invariance(p, (1, -1), trials=20, seed=3)
    assert not check_translation_invariance(p, (1, 1), trials=20, seed=3)
    assert check_translation_invariance(P("x1^2", 2), (0, 1), trials=20, seed=3)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_subspace_law_random_combinations():
    rng = random.Random(23)
    for name, p in QC_FIXTURES:
        space = invariance_subspace(p)
        for _ in range(25):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in space.basis]
            vector = [
                sum(c * row[i] for c, row in zip(coeffs, space.basis))
                for i in range(p.arity)
            ]
            if not space.basis:
                vector = [Fraction(0)] * p.arity
            assert ray_constant(p, vector), name


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def arbitrary_polynomials(draw):
    arity = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exponent = tuple(draw(st.integers(0, 3)) for _ in range(arity))
        terms[exponent] = draw(coefficients)
    return Polynomial(arity, terms)


@settings(max_examples=80, deadline=None)
@given(arbitrary_polynomials())
def test_derivative_kernel_inside_invariance_set(p):
    # holds for any polynomial, quasi-convex or not, whatever its constant term
    for vector in invariance_subspace(p).basis:
        assert ray_constant(p, vector)


@settings(max_examples=60, deadline=None)
@given(rotated_polynomials())
@example(Polynomial(3))
@example(P("x1^2 + 2*x1*x2 + x2^2", 3))
def test_invariance_pair_matches_partial_derivative_reference(p):
    # one elimination of the integer matrix gives the bases that the
    # partial-derivative kernel and its kernel-of-kernel complement gave
    inv, perp = invariance_and_complement(p)
    reference = invariance_subspace_by_partials(p)
    assert inv.basis == reference.basis
    assert perp.basis == orthogonal_complement(reference).basis
    assert invariance_subspace(p) == inv
    assert inv.dimension + perp.dimension == p.arity


def test_ray_constant_agrees_with_translation_invariance():
    rng = random.Random(29)
    for name, p in QC_FIXTURES:
        space = invariance_subspace(p)
        for trial in range(12):
            if space.basis and trial % 2 == 0:
                coeffs = [Fraction(rng.randint(-5, 5)) for _ in space.basis]
                direction = [
                    sum(c * row[i] for c, row in zip(coeffs, space.basis))
                    for i in range(p.arity)
                ]
            else:
                direction = [Fraction(rng.randint(-5, 5)) for _ in range(p.arity)]
            assert ray_constant(p, direction) == check_translation_invariance(
                p, direction, trials=20, seed=rng.randint(0, 10**6)
            ), name


def test_symmetric_qc_minimum_at_origin():
    rng = random.Random(31)
    for name, p in QC_FIXTURES:
        origin_value = evaluate(p, (Fraction(0),) * p.arity)
        for _ in range(1000):
            point = [Fraction(rng.randint(-40, 40), rng.randint(1, 10)) for _ in range(p.arity)]
            assert evaluate(p, point) >= origin_value, name
