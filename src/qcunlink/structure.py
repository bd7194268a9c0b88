"""Structural analysis: symmetry, quasi-convexity, rays, invariant directions.

Quasi-convexity of a general polynomial is only falsified here, never
certified: the sampler hunts for dyadic points x, y and a dyadic weight
alpha where the value at alpha*x + (1-alpha)*y strictly exceeds both
endpoint values.  Each trial is decided exactly over ``int``: p is
brought to integer coefficients and homogenized, and the three points
are put over one fixed power-of-two denominator, so comparing p(mid)
with p(x) and p(y) is comparing integers, whatever the scale of the
coefficients.  There is no floating point in the search and no false
positive or negative; the witness is the first violating trial.  The
one decidable case is total degree at most two, where convexity
(equivalently quasi-convexity) reduces to an exact
positive-semidefiniteness test of the quadratic form, whose integer
matrix is the rows at x_1..x_n of the derivative matrix below; a failed
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

# the falsifier samples points with entries m/2^j in [-POINT_BOUND, POINT_BOUND)
# at a level j uniform in 0..POINT_LEVELS - 1, and weights (2i+1)/2^k with k
# uniform in 1..WEIGHT_LEVELS; all three are powers of two
POINT_BOUND = 4
POINT_LEVELS = 8
WEIGHT_LEVELS = 4


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

    Sample points have dyadic entries m/2^j in [-POINT_BOUND,
    POINT_BOUND), the level j uniform in 0..POINT_LEVELS - 1, and the
    weight is (2i+1)/2^k with k uniform in 1..WEIGHT_LEVELS.  Each trial
    is decided in exact integer arithmetic, so the verdict is exact and
    the witness is the first violating trial.  For total degree <= 2 the
    answer is decided exactly instead of sampled: the quadratic form is
    either positive semidefinite (certificate) or it supplies a concave
    direction from which a witness is built.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if p.total_degree() <= 2:
        violation = psd_violation(p._hessian_rows())
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
# Every coordinate is drawn over the fixed L = 2^(POINT_LEVELS - 1) = 128 and
# every weight over the fixed d = 2^WEIGHT_LEVELS = 16, so x = X / L and
# y = Y / L with integer vectors X, Y, and the midpoint with weight a/d is
# M / (d*L) with M = a*X + (d - a)*Y.  Multiplying through by the positive
# C * (d*L)^D gives
#     p(mid) > p(x)  iff  V(M, d*L) > d^D * V(X, L),
# and likewise for y, so a trial is decided over ``int`` alone.  Over the
# same C * (d*L)^D, p(x), p(y) and p(mid) are d^D * V(X, L), d^D * V(Y, L)
# and V(M, d*L), the witness values.

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

    A trial makes 2n + 1 calls to ``random.Random(seed).getrandbits``,
    none of them rejected: one per entry of x, then of y, then one for
    alpha.  An entry's draw r of 3 + 10 bits has the level j = r & 7 and
    the value v = r >> 3 in 0..1023; clearing the low 7 - j bits of v
    leaves a multiple of 2^(7 - j), so X = v - 512 with those bits clear
    is the entry m/2^j over L = 128, uniform on the 8*2^j points of its
    level.  The weight's draw r of 2 + 4 bits has k = (r & 3) + 1, and
    a = ((r >> 2 >> (4 - k)) | 1) << (4 - k) puts alpha = a/16 uniform on
    the odd multiples of 1/2^k.  Those widths follow from POINT_BOUND = 4,
    POINT_LEVELS = 8 and WEIGHT_LEVELS = 4.
    """
    scale, form = _homogenized(p)
    degree = p.total_degree()
    arity = p.arity
    finest = POINT_LEVELS - 1
    common = 1 << finest
    level_bits = finest.bit_length()
    # the width of each entry's draw, and per level j the mask that clears the low finest - j bits
    draws = [level_bits + (2 * POINT_BOUND * common - 1).bit_length()] * (2 * arity)
    masks = [-1 << (finest - j) for j in range(POINT_LEVELS)]
    low = POINT_BOUND * common
    # a weight draw holds k - 1 in its low k_bits
    k_mask = WEIGHT_LEVELS - 1
    k_bits = k_mask.bit_length()
    weight_bits = k_bits + WEIGHT_LEVELS
    d = 1 << WEIGHT_LEVELS
    weight = d**degree
    denominator = scale * (d * common) ** degree
    getrandbits = random.Random(seed).getrandbits

    for trial in range(1, trials + 1):
        # the entries of X, then of Y
        drawn = [(r >> level_bits & masks[r & finest]) - low for r in map(getrandbits, draws)]
        # the points (X, L) and (Y, L) of V
        big_x = [*drawn[:arity], common]
        big_y = [*drawn[arity:], common]
        r = getrandbits(weight_bits)
        shift = k_mask - (r & k_mask)
        a = (r >> k_bits >> shift | 1) << shift
        # the point (M, d*L) of V
        b = d - a
        mid = [a * u + b * w for u, w in zip(big_x, big_y)]
        v_mid = _integer_value(form, mid)
        v_x = weight * _integer_value(form, big_x)
        if v_mid <= v_x:
            continue
        v_y = weight * _integer_value(form, big_y)
        if v_mid <= v_y:
            continue
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
