"""Structural analysis: symmetry, quasi-convexity, rays, invariant directions.

Quasi-convexity of a general polynomial is only falsified here, never
certified: the sampler hunts for rational points x, y and a weight alpha
where the value at alpha*x + (1-alpha)*y strictly exceeds both endpoint
values.  Each trial is first screened in float64: p is evaluated at the
three points together with a forward error bound (Higham's gamma_K times
the sum of |coefficient| * |point|^exponent), and a trial whose float
upper bound of p(mid) - max(p(x), p(y)) is below zero cannot be a
violation and is skipped.  Every other trial is confirmed in exact
rational arithmetic, in trial order, so the verdict and witness are
those of an all-exact search and there are no floating-point false
positives or negatives.  The one decidable case is total degree at most
two, where convexity (equivalently quasi-convexity) reduces to an exact
positive-semidefiniteness test of the quadratic form; a failed test
yields a deterministic witness instead of relying on sampling luck.

The invariance subspace of p (all directions a with p(t*a) = 0 for every
t, for normalized p with p(0) = 0) is computed as the kernel of the
linear map v -> derivative of p along v, which is a finite exact
computation.  That kernel is always contained in the invariance set; for
quasi-convex inputs the two coincide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import InvariantViolation
from .exactla import Subspace, kernel, psd_violation
from .polyalg import (
    Polynomial,
    RationalMatrix,
    evaluate,
    partial_derivative,
    restrict_line,
)

__all__ = [
    "CASE_A",
    "CASE_B",
    "CASE_CONST",
    "QcVerdict",
    "QcWitness",
    "RayClass",
    "classify_ray",
    "invariance_subspace",
    "qc_falsify",
    "ray_constant",
]

FALSIFIED = "falsified"
NOT_FALSIFIED = "not_falsified"
CERTIFIED_CONVEX_QUADRATIC = "certified_convex_quadratic"

CASE_A = "A"  # eventually increasing, diverges at +infinity
CASE_B = "B"  # eventually increasing toward the left, diverges at -infinity
CASE_CONST = "CONST"

# the falsifier samples points with entries in [-POINT_BOUND, POINT_BOUND]
# and denominators at most POINT_MAX_DENOMINATOR
POINT_BOUND = 4
POINT_MAX_DENOMINATOR = 16


@dataclass(frozen=True)
class QcWitness:
    """Points x, y and weight alpha with p(alpha*x + (1-alpha)*y) > max(p(x), p(y)).

    ``values`` holds (p(x), p(y), p(midpoint)), all exact.
    """

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    alpha: Fraction
    values: tuple[Fraction, Fraction, Fraction]

    def to_json(self) -> dict:
        return {
            "x": [str(c) for c in self.x],
            "y": [str(c) for c in self.y],
            "alpha": str(self.alpha),
            "values": [str(c) for c in self.values],
        }


@dataclass(frozen=True)
class QcVerdict:
    status: str
    witness: Optional[QcWitness]
    trials: int
    seed: int

    @property
    def falsified(self) -> bool:
        return self.status == FALSIFIED

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.to_json() if self.witness else None,
            "trials": self.trials,
            "seed": self.seed,
        }


def _random_ratio(rng: random.Random) -> tuple[int, int]:
    """Numerator and denominator of a random rational in [-POINT_BOUND, POINT_BOUND]."""
    denominator = rng.randint(1, POINT_MAX_DENOMINATOR)
    return rng.randint(-POINT_BOUND * denominator, POINT_BOUND * denominator), denominator


def _combination(x, y, alpha: Fraction) -> tuple[Fraction, ...]:
    return tuple(alpha * a + (1 - alpha) * b for a, b in zip(x, y))


def _witness_if_violation(p: Polynomial, x, y, alpha: Fraction) -> Optional[QcWitness]:
    px = evaluate(p, x)
    py = evaluate(p, y)
    mid = _combination(x, y, alpha)
    pmid = evaluate(p, mid)
    if pmid > max(px, py):
        return QcWitness(tuple(x), tuple(y), alpha, (px, py, pmid))
    return None


def _quadratic_form(p: Polynomial) -> list[list[Fraction]]:
    """Matrix A of the degree-2 part, with p's x_i*x_j coefficient split as 2*A[i][j]."""
    n = p.arity
    a = [[Fraction(0)] * n for _ in range(n)]
    for exponent, coeff in p.terms.items():
        if sum(exponent) != 2:
            continue
        support = [i for i, k in enumerate(exponent) if k]
        if len(support) == 1:
            a[support[0]][support[0]] = coeff
        else:
            i, j = support
            a[i][j] = coeff / 2
            a[j][i] = coeff / 2
    return a


def _quadratic_witness(p: Polynomial, direction: Sequence[Fraction]) -> QcWitness:
    """Witness along a direction where the quadratic part is negative.

    The restriction t -> p(t*v) is a concave parabola, so for a large
    enough half-width s the midpoint 0 beats both endpoints +-s.
    """
    s = Fraction(1)
    while True:
        x = tuple(-s * c for c in direction)
        y = tuple(s * c for c in direction)
        witness = _witness_if_violation(p, x, y, Fraction(1, 2))
        if witness is not None:
            return witness
        s *= 2


def qc_falsify(p: Polynomial, trials: int, seed: int) -> QcVerdict:
    """Search for a quasi-convexity violation of p.

    Sample points have entries in [-POINT_BOUND, POINT_BOUND] with
    denominators at most ``POINT_MAX_DENOMINATOR``.  Each trial is
    screened in float with a forward error bound and confirmed in exact
    arithmetic unless the screen proves it is no violation, so the
    verdict is exact.  For total degree <= 2 the answer is decided
    exactly instead of sampled: the quadratic form is either positive
    semidefinite (certificate) or it supplies a concave direction from
    which a witness is built.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if p.total_degree() <= 2:
        violation = psd_violation(_quadratic_form(p))
        if violation is None:
            return QcVerdict(CERTIFIED_CONVEX_QUADRATIC, None, 0, seed)
        return QcVerdict(FALSIFIED, _quadratic_witness(p, violation), 0, seed)
    return _sample_violation(p, trials, seed)


# Float screen of a sampled trial.
#
# Write u = 2**-53 for the unit roundoff of float64 and
# gamma_k = k*u / (1 - k*u) (Higham, Accuracy and Stability of Numerical
# Algorithms, section 3.1).  A coordinate of x, y or the midpoint is an
# exact integer ratio rounded once to float.  A term c * x1^e1 * ... *
# xn^en of degree D is then formed from the rounded coefficient (one
# rounding) and the rounded coordinates, which enter it D times; x^k
# takes k - 1 multiplications and the term one more per variable present,
# D multiplications in all.  Summing t terms from 0.0 rounds each term at
# most t - 1 more times.  So each term carries at most
#     K = 1 + D + D + (t - 1) <= 2*deg(p) + t
# factors (1 + delta), |delta| <= u, and Lemma 3.1 gives for the float
# value h of p at a point x
#     |h - p(x)| <= gamma_K * M,     M = sum over terms of |c_e| * |x|^e.
# The same operations on the magnitudes give the float m with
# |m - M| <= gamma_K * M (rounding to nearest is symmetric, so m sums the
# |term| of h), hence
#     |h - p(x)| <= gamma_K / (1 - gamma_K) * m <= gamma_2K * m.
# The screen computes err = gamma * m with gamma = gamma_(2K+4) in float;
# the four extra roundings cover forming gamma, the product gamma * m, the
# sum err(x) + err(mid) and the difference h(x) - h(mid).  So
#     h(x) - h(mid) > err(x) + err(mid)   (computed in float)
# proves p(x) > p(mid) exactly, the float upper bound of
# p(mid) - max(p(x), p(y)) is below zero, and the trial is no violation;
# likewise with y.  Any other trial, including one whose screen values
# are not finite, is confirmed exactly.  The relative error model needs
# every coefficient, power, partial product and sum to stay normal:
# nonzero coordinates lie between 1/POINT_MAX_DENOMINATOR**3 (a midpoint's
# denominator divides d*dx*dy) and POINT_BOUND in magnitude, and when these
# extremes can leave [2**-1000, 2**1000] no trial is screened.

_UNIT_ROUNDOFF = 2.0**-53
_NORMAL_RANGE = (Fraction(1, 2**1000), Fraction(2**1000))

# float coefficient and (variable index, exponent) factors per term, the
# largest exponent of each variable, and the error factor gamma_(2K+4)
_Screen = tuple[list[tuple[float, tuple[tuple[int, int], ...]]], list[int], float]


def _screen(p: Polynomial) -> Optional[_Screen]:
    """Float form of p for the screen, or None when every trial must be confirmed exactly."""
    degree = p.total_degree()
    magnitudes = [abs(c) for c in p.terms.values()]
    smallest = min(min(magnitudes), 1) / Fraction(POINT_MAX_DENOMINATOR) ** (3 * degree)
    largest = max(max(magnitudes), 1) * len(magnitudes) * Fraction(POINT_BOUND) ** degree
    low, high = _NORMAL_RANGE
    if smallest < low or largest > high:
        return None
    terms = [
        (float(c), tuple((i, k) for i, k in enumerate(exponent) if k))
        for exponent, c in p.terms.items()
    ]
    tops = [max(exponent[i] for exponent in p.terms) for i in range(p.arity)]
    k = 2 * (2 * degree + len(terms)) + 4
    gamma = k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)
    return terms, tops, gamma


def _float_value(screen: _Screen, point: Sequence[float]) -> tuple[float, float]:
    """Float p(point) and the float sum of its term magnitudes."""
    terms, tops, _ = screen
    powers = []
    for x, top in zip(point, tops):
        row = [1.0, x]
        for _ in range(top - 1):
            row.append(row[-1] * x)
        powers.append(row)
    value = magnitude = 0.0
    for term, factors in terms:
        for i, k in factors:
            term *= powers[i][k]
        value += term
        magnitude += abs(term)
    return value, magnitude


def _screened_out(screen: _Screen, x, y, a: int, d: int) -> bool:
    """True when the float screen proves the trial is no violation.

    ``x`` and ``y`` hold (numerator, denominator) pairs and the weight is a/d.
    """
    gamma = screen[2]
    mid = [
        (a * nx * dy + (d - a) * ny * dx) / (d * dx * dy) for (nx, dx), (ny, dy) in zip(x, y)
    ]
    h_mid, m_mid = _float_value(screen, mid)
    h_x, m_x = _float_value(screen, [n / den for n, den in x])
    if h_x - h_mid > gamma * m_x + gamma * m_mid:
        return True
    h_y, m_y = _float_value(screen, [n / den for n, den in y])
    return h_y - h_mid > gamma * m_y + gamma * m_mid


def _sample_violation(p: Polynomial, trials: int, seed: int) -> QcVerdict:
    """The sampled search: trials in order, float-screened, confirmed exactly."""
    screen = _screen(p)
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        x = [_random_ratio(rng) for _ in range(p.arity)]
        y = [_random_ratio(rng) for _ in range(p.arity)]
        d = rng.randint(2, POINT_MAX_DENOMINATOR)
        a = rng.randint(1, d - 1)
        if screen is not None and _screened_out(screen, x, y, a, d):
            continue
        witness = _witness_if_violation(
            p, [Fraction(*r) for r in x], [Fraction(*r) for r in y], Fraction(a, d)
        )
        if witness is not None:
            return QcVerdict(FALSIFIED, witness, trial, seed)
    return QcVerdict(NOT_FALSIFIED, None, trials, seed)


@dataclass(frozen=True)
class RayClass:
    """Divergence classes of a univariate polynomial.

    ``A``: beyond some point the polynomial strictly increases and tends
    to +infinity as t -> +infinity.  ``B``: the mirror statement toward
    t -> -infinity.  ``CONST`` marks constants.  Even-degree polynomials
    with a positive leading coefficient satisfy both A and B.
    ``lambda0_estimate`` maps each satisfied case to a float threshold
    beyond which the derivative sign was verified stable.
    """

    cases: frozenset[str]
    lambda0_estimate: Mapping[str, float]

    def to_json(self) -> dict:
        return {
            "cases": sorted(self.cases),
            "lambda0_estimate": {k: self.lambda0_estimate[k] for k in sorted(self.lambda0_estimate)},
        }


def _root_bound(g: Polynomial) -> Fraction:
    """Cauchy bound: all real roots of g lie in [-bound, bound]."""
    degree = g.total_degree()
    if degree == 0:
        return Fraction(0)
    lead = g.terms[(degree,)]
    others = max((abs(c) for e, c in g.terms.items() if e[0] != degree), default=Fraction(0))
    return 1 + others / abs(lead)


def classify_ray(g: Polynomial) -> RayClass:
    """Which divergence cases a univariate polynomial satisfies.

    Case A holds iff the leading coefficient is positive; case B holds
    iff the polynomial tends to +infinity as t -> -infinity, i.e. the
    degree is even with positive leading coefficient or odd with a
    negative one.  The thresholds are root bounds of the derivative,
    checked for stable derivative sign at 50 sample points.
    """
    if g.arity != 1:
        raise ValueError(f"expected a univariate polynomial, got arity {g.arity}")
    degree = g.total_degree()
    if degree == 0:
        return RayClass(frozenset({CASE_CONST}), {})
    lead = g.terms[(degree,)]
    cases = set()
    if lead > 0:
        cases.add(CASE_A)
    if (degree % 2 == 0 and lead > 0) or (degree % 2 == 1 and lead < 0):
        cases.add(CASE_B)
    derivative = partial_derivative(g, 1)
    bound = _root_bound(derivative)
    estimates: dict[str, float] = {}
    if CASE_A in cases:
        if any(evaluate(derivative, (bound + k,)) <= 0 for k in range(1, 51)):
            raise InvariantViolation("derivative sign unstable beyond the root bound (case A)")
        estimates[CASE_A] = float(bound)
    if CASE_B in cases:
        if any(evaluate(derivative, (-bound - k,)) >= 0 for k in range(1, 51)):
            raise InvariantViolation("derivative sign unstable beyond the root bound (case B)")
        estimates[CASE_B] = float(-bound)
    return RayClass(frozenset(cases), estimates)


def _require_zero_at_origin(p: Polynomial):
    if p.constant_term() != 0:
        raise ValueError("polynomial must vanish at the origin; subtract p(0) first")


def invariance_subspace(p: Polynomial) -> Subspace:
    """Exact subspace of directions v along which p is constant on every line.

    Computed as the kernel of the matrix of the linear map
    v -> derivative of p along v, with one row per monomial appearing in
    any partial derivative (rows in graded-lexicographic order for a
    deterministic result).  Requires p(0) = 0.
    """
    _require_zero_at_origin(p)
    n = p.arity
    partials = [partial_derivative(p, i) for i in range(1, n + 1)]
    monomials = sorted(
        {e for q in partials for e in q.terms}, key=lambda e: (sum(e), e)
    )
    rows = [
        tuple(q.terms.get(monomial, Fraction(0)) for q in partials) for monomial in monomials
    ]
    return kernel(RationalMatrix(len(rows), n, tuple(rows)))


def ray_constant(p: Polynomial, direction: Sequence) -> bool:
    """Exact test that p vanishes identically on the line through 0 along a.

    Requires p(0) = 0; then the restriction t -> p(t*a) must be the zero
    polynomial.
    """
    _require_zero_at_origin(p)
    if len(direction) != p.arity:
        raise ValueError("direction length must equal the arity")
    origin = (Fraction(0),) * p.arity
    return restrict_line(p, origin, direction).is_zero

