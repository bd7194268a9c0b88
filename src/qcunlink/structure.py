"""Structural analysis: symmetry, quasi-convexity, rays, invariant directions.

Quasi-convexity of a general polynomial is only falsified here, never
certified: the sampler hunts for rational points x, y and a weight alpha
where the value at alpha*x + (1-alpha)*y strictly exceeds both endpoint
values.  Each trial is decided exactly over ``int``: p is brought to
integer coefficients and homogenized, and the three points are put over
one fixed denominator, so comparing p(mid) with p(x) and p(y) is comparing
integers, whatever the scale of the coefficients.  There is no floating
point in the search and no false positive or negative; the witness is
the first violating trial.  The one decidable case is total degree at
most two, where convexity (equivalently quasi-convexity) reduces to an
exact positive-semidefiniteness test of the quadratic form; a failed
test yields a deterministic witness instead of relying on sampling luck.

The invariance subspace I_p of p is the set of directions a along which
p is translation-invariant, p(x + t*a) = p(x) for every x and t.  It is
computed as the kernel of the linear map v -> derivative of p along v,
which is a finite exact computation; the constant term of p never
enters it, so p is taken as it is.  Every a in I_p also makes p constant
on the line through 0, p(t*a) = p(0) for every t, but not conversely:
x1*x2 is constant on the x1 axis and has I_p = {0}.  For symmetric
quasi-convex inputs the two sets coincide.  The map's integer matrix is
built once from p's terms (``derivative_matrix``), and one elimination
of it gives both the subspace and its orthogonal complement, the row
space.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exactla import Subspace, kernel_and_row_space, psd_violation
from .polyalg import (
    Polynomial,
    derivative_matrix,
    evaluate,
    restrict_ray,
)

__all__ = [
    "CASE_A",
    "CASE_B",
    "CASE_CONST",
    "QcVerdict",
    "QcWitness",
    "RayClass",
    "classify_ray",
    "invariance_and_complement",
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


def _scaled_hessian(p: Polynomial) -> list[list[int]]:
    """C times the Hessian of p's degree-2 part, C the lcm of p's coefficient denominators.

    A term c*x_i^2 puts 2*C*c on the diagonal and a term c*x_i*x_j puts
    C*c at (i, j) and (j, i), all integers.  A positive multiple of the
    quadratic form has the same signs, so its PSD test and witness are
    those of p.
    """
    n = p.arity
    h = [[0] * n for _ in range(n)]
    for exponent, coeff in p._integer_terms[1]:
        if sum(exponent) != 2:
            continue
        support = [i for i, k in enumerate(exponent) if k]
        if len(support) == 1:
            h[support[0]][support[0]] = 2 * coeff
        else:
            i, j = support
            h[i][j] = h[j][i] = coeff
    return h


def _quadratic_witness(p: Polynomial, direction: Sequence[Fraction]) -> QcWitness:
    """Witness along a direction where the quadratic part is negative.

    The restriction g(t) = p(t*v) = q*t^2 + l*t + c has q < 0, so the
    midpoint 0 beats both endpoints +-s once s*(-q) > |l|: g(0) exceeds
    g(+-s) by s*(-q*s -+ l).  s is the least power of two with that
    property.
    """
    g = restrict_ray(p, direction)
    q = g.terms[(2,)]
    linear = abs(g.terms.get((1,), Fraction(0)))
    s = 1 << (linear // -q).bit_length()
    x = tuple(-s * c for c in direction)
    y = tuple(s * c for c in direction)
    values = (evaluate(g, (-s,)), evaluate(g, (s,)), g.constant_term())
    return QcWitness(x, y, Fraction(1, 2), values)


def qc_falsify(p: Polynomial, trials: int, seed: int) -> QcVerdict:
    """Search for a quasi-convexity violation of p.

    Sample points have entries in [-POINT_BOUND, POINT_BOUND] with
    denominators at most ``POINT_MAX_DENOMINATOR``.  Each trial is
    decided in exact integer arithmetic, so the verdict is exact and the
    witness is the first violating trial.  For total degree <= 2 the
    answer is decided exactly instead of sampled: the quadratic form is
    either positive semidefinite (certificate) or it supplies a concave
    direction from which a witness is built.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if p.total_degree() <= 2:
        violation = psd_violation(_scaled_hessian(p))
        if violation is None:
            return QcVerdict(CERTIFIED_CONVEX_QUADRATIC, None, 0, seed)
        return QcVerdict(FALSIFIED, _quadratic_witness(p, violation), 0, seed)
    return _sample_violation(p, trials, seed)


# Exact integer test of a sampled trial.
#
# Write p = (1/C) * sum over terms of c_e * x^e with integers c_e, where C
# is the lcm of p's coefficient denominators, and D for its total degree.
# The homogenization of C*p in one more variable s,
#     V(Z, s) = sum over terms of c_e * Z^e * s^(D - |e|),
# has integer coefficients, and p(Z / L) = V(Z, L) / (C * L^D) for L > 0.
# Every drawn denominator divides the fixed L = lcm(1..POINT_MAX_DENOMINATOR)
# = 720720, so x = X / L and y = Y / L with integer vectors X, Y, and the
# midpoint with weight a/d is M / (d*L) with M = a*X + (d - a)*Y.
# Multiplying through by the positive C * (d*L)^D gives
#     p(mid) > p(x)  iff  V(M, d*L) > d^D * V(X, L),
# and likewise for y, so a trial is decided over ``int`` alone.  V is
# homogeneous of degree D, so V(k*Z, k*s) = k^D * V(Z, s) for k > 0: any
# common multiple of the drawn denominators scales both sides of each
# comparison by the same positive factor, and the witness values, which
# divide by C * (d*L)^D, by none.  Which L is used changes no verdict,
# trial count or witness.
DENOMINATOR_LCM = math.lcm(*range(1, POINT_MAX_DENOMINATOR + 1))

# The draw tables of ``_sample_violation``, which depend on nothing but the
# bounds above.  A randint over a range of size n draws getrandbits(k),
# k = n.bit_length(), until the draw is below n.  Per denominator den, at
# index den - 1: k and n of the numerator range [-POINT_BOUND*den,
# POINT_BOUND*den], and L // den, so that a numerator drawn as
# -POINT_BOUND*den + r puts r * (L // den) - POINT_BOUND*L into X.
_NUMERATOR_DRAWS = tuple(
    ((2 * POINT_BOUND * den + 1).bit_length(), 2 * POINT_BOUND * den + 1, DENOMINATOR_LCM // den)
    for den in range(1, POINT_MAX_DENOMINATOR + 1)
)
# per weight denominator d: k of the range 1..d - 1 of the weight numerator a
_WEIGHT_BITS = tuple((d - 1).bit_length() for d in range(POINT_MAX_DENOMINATOR + 1))

# the distinct powers (variable index, exponent) that V uses, with s at
# index n, and per term its integer coefficient and the positions of its
# factors among those powers
_IntegerForm = tuple[list[tuple[int, int]], list[tuple[int, tuple[int, ...]]]]


def _homogenized(p: Polynomial) -> tuple[int, _IntegerForm]:
    """C and the integer form of V, as defined above."""
    scale, terms = p._integer_terms
    degree = p.total_degree()
    homogeneous = [(e + (degree - sum(e),), c) for e, c in terms]
    powers = sorted({(i, k) for e, _ in homogeneous for i, k in enumerate(e) if k})
    index = {power: j for j, power in enumerate(powers)}
    form = [(c, tuple(index[(i, k)] for i, k in enumerate(e) if k)) for e, c in homogeneous]
    return scale, (powers, form)


def _integer_value(form: _IntegerForm, point: Sequence[int]) -> int:
    """Value of an integer form at an integer point, each power formed once."""
    powers, terms = form
    values = [point[i] ** k for i, k in powers]
    total = 0
    for term, factors in terms:
        for j in factors:
            term *= values[j]
        total += term
    return total


def _sample_violation(p: Polynomial, trials: int, seed: int) -> QcVerdict:
    """The sampled search: trials in order, each decided exactly over the integers.

    The draws are the values of ``random.Random(seed).randint``, in the
    same order.  Each ``randint(low, high)`` is written out as the
    rejection loop that ``Random.randint`` reaches through ``randrange``
    and ``_randbelow_with_getrandbits``, with the bit counts and range
    sizes of the tables above.  A coordinate is drawn as its denominator
    den, then its numerator in [-POINT_BOUND*den, POINT_BOUND*den], and
    is kept as the integer numerator * (L // den) over the fixed L above.
    """
    scale, form = _homogenized(p)
    degree = p.total_degree()
    arity = p.arity
    common = DENOMINATOR_LCM
    low = -POINT_BOUND * common
    numerators = _NUMERATOR_DRAWS
    weight_bits = _WEIGHT_BITS
    weights = [d**degree for d in range(POINT_MAX_DENOMINATOR + 1)]
    # sizes and bit counts of randint(1, POINT_MAX_DENOMINATOR), randint(2, POINT_MAX_DENOMINATOR)
    den_size = POINT_MAX_DENOMINATOR
    den_bits = den_size.bit_length()
    d_size = POINT_MAX_DENOMINATOR - 1
    d_bits = d_size.bit_length()
    getrandbits = random.Random(seed).getrandbits
    coordinates = range(2 * arity)

    for trial in range(1, trials + 1):
        # the entries of X, then of Y
        drawn = []
        for _ in coordinates:
            r = getrandbits(den_bits)
            while r >= den_size:
                r = getrandbits(den_bits)
            k, n, step = numerators[r]
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            drawn.append(r * step + low)
        # the points (X, L) and (Y, L) of V
        big_x = [*drawn[:arity], common]
        big_y = [*drawn[arity:], common]
        r = getrandbits(d_bits)
        while r >= d_size:
            r = getrandbits(d_bits)
        d = r + 2
        k = weight_bits[d]
        r = getrandbits(k)
        while r >= d - 1:
            r = getrandbits(k)
        a = r + 1
        # the point (M, d*L) of V
        b = d - a
        mid = [a * u + b * w for u, w in zip(big_x, big_y)]
        v_mid = _integer_value(form, mid)
        weight = weights[d]
        v_x = weight * _integer_value(form, big_x)
        if v_mid <= v_x:
            continue
        v_y = weight * _integer_value(form, big_y)
        if v_mid <= v_y:
            continue
        denominator = scale * (d * common) ** degree
        witness = QcWitness(
            tuple(Fraction(u, common) for u in drawn[:arity]),
            tuple(Fraction(w, common) for w in drawn[arity:]),
            Fraction(a, d),
            (Fraction(v_x, denominator), Fraction(v_y, denominator), Fraction(v_mid, denominator)),
        )
        return QcVerdict(FALSIFIED, witness, trial, seed)
    return QcVerdict(NOT_FALSIFIED, None, trials, seed)


@dataclass(frozen=True)
class RayClass:
    """Divergence classes of a univariate polynomial g.

    ``A``: beyond some point g strictly increases and tends to +infinity
    as t -> +infinity.  ``B``: the mirror statement toward t -> -infinity.
    ``CONST`` marks constants.  Even-degree polynomials with a positive
    leading coefficient satisfy both A and B.  ``lambda0_estimate`` maps
    each satisfied case to an exact threshold: the Cauchy root bound of
    g' for A, its negative for B.  g' has no real root on or beyond the
    threshold, so g is strictly monotone there.
    """

    cases: frozenset[str]
    lambda0_estimate: Mapping[str, Fraction]


def _root_bound(g: Polynomial) -> Fraction:
    """Cauchy bound of g': every real root of g' lies strictly between -bound and bound.

    g' has the coefficient k*c_k at degree k - 1 for each term c_k*t^k of
    g of degree d, so the bound 1 + max |k*c_k| / |d*c_d| over 0 < k < d
    is read from g's terms.  For d <= 1, g' is a constant without roots
    and the bound is 0.
    """
    degree = g.total_degree()
    if degree <= 1:
        return Fraction(0)
    others = max((abs(k * c) for (k,), c in g.terms.items() if 0 < k < degree), default=0)
    return 1 + others / abs(degree * g.terms[(degree,)])


def classify_ray(g: Polynomial) -> RayClass:
    """Which divergence cases a univariate polynomial satisfies, decided from its coefficients.

    Case A holds iff the leading coefficient is positive; case B holds
    iff the polynomial tends to +infinity as t -> -infinity, i.e. the
    degree is even with positive leading coefficient or odd with a
    negative one.  In either case g' has the sign that makes g increase
    toward the infinity in question beyond its exact root bound, which
    is the threshold.
    """
    if g.arity != 1:
        raise ValueError(f"expected a univariate polynomial, got arity {g.arity}")
    degree = g.total_degree()
    if degree == 0:
        return RayClass(frozenset({CASE_CONST}), {})
    lead = g.terms[(degree,)]
    bound = _root_bound(g)
    estimates: dict[str, Fraction] = {}
    if lead > 0:
        estimates[CASE_A] = bound
    if (lead > 0) == (degree % 2 == 0):
        estimates[CASE_B] = -bound
    return RayClass(frozenset(estimates), estimates)


def invariance_subspace(p: Polynomial) -> Subspace:
    """Exact subspace of directions a with p(x + t*a) = p(x) for every x and t.

    This is translation invariance, not constancy on the line through 0
    (``ray_constant``), which is weaker: x1*x2 is constant on the x1 axis,
    yet its subspace is {0}.  Computed as the kernel of the matrix of the
    linear map v -> derivative of p along v (``derivative_matrix``).  The
    order of its rows does not matter: the basis is the RREF basis of the
    kernel, unique for the subspace.
    """
    return invariance_and_complement(p)[0]


def invariance_and_complement(p: Polynomial) -> tuple[Subspace, Subspace]:
    """The invariance subspace I_p and its orthogonal complement, from one elimination.

    I_p is the kernel of the derivative matrix M of p, so its complement
    is the row space of M, read off the same elimination.
    """
    return kernel_and_row_space(derivative_matrix(p), p.arity)


def ray_constant(p: Polynomial, direction: Sequence) -> bool:
    """Exact test that p(t*a) = p(0) for every t: p is constant on the line through 0 along a."""
    if len(direction) != p.arity:
        raise ValueError("direction length must equal the arity")
    return restrict_ray(p, direction).total_degree() == 0
