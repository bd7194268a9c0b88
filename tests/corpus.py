"""Shared fixture polynomials and generators for the test suite."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from hypothesis import strategies as st

from qcunlink import Polynomial, parse_expression


def P(text: str, arity: int) -> Polynomial:
    return parse_expression(text, arity)


def variable(arity: int, index: int) -> Polynomial:
    """The monomial x<index>, 1-based."""
    return Polynomial(arity, {tuple(int(j == index) for j in range(1, arity + 1)): 1})


# Symmetric convex (hence quasi-convex) polynomials vanishing at the origin.
QC_FIXTURES = [
    ("square_sum", P("x1^2 + x2^2", 2)),
    ("pair_plus", P("x1^2 + 2*x1*x2 + x2^2", 2)),
    ("pair_minus", P("x1^2 - 2*x1*x2 + x2^2", 2)),
    ("pair_plus_3d", P("x1^2 + 2*x1*x2 + x2^2", 3)),
    ("axis_quartic", P("x1^4", 2)),
    ("quartic_plus_square", P("x1^4 + x2^2", 2)),
    (
        "linform_quartic_3d",  # (x1+2x2)^4 + (x1-x3)^2
        P(
            "x1^4 + 8*x1^3*x2 + 24*x1^2*x2^2 + 32*x1*x2^3 + 16*x2^4"
            " + x1^2 - 2*x1*x3 + x3^2",
            3,
        ),
    ),
    (
        "psd_pair_3d",  # (x1+x2+x3)^2 + (x2-x3)^2
        P("x1^2 + 2*x2^2 + 2*x3^2 + 2*x1*x2 + 2*x1*x3", 3),
    ),
    (
        "sextic_mix",  # x1^6 + (x1+x2)^4
        P("x1^6 + x1^4 + 4*x1^3*x2 + 6*x1^2*x2^2 + 4*x1*x2^3 + x2^4", 2),
    ),
]

# Symmetric polynomials that are not quasi-convex.
NON_QC_FIXTURES = [
    ("concave_parabola", P("-x1^2", 1)),
    ("cross_square", P("x1^2*x2^2", 2)),
    ("double_well", P("x1^4 - 4*x1^2", 1)),
    ("shifted_double_well", P("x1^4 - 2*x1^2 + 1", 1)),  # (x1^2-1)^2
    ("concave_pair", P("-x1^2 - 2*x1*x2 - x2^2", 2)),
    ("saddle", P("x1^2 - x2^2", 2)),
    ("cross_plus_square", P("x1^2*x2^2 + x2^2", 2)),
]

# Univariate quasi-convex corpus with hand-derived divergence case sets.
RAY_CORPUS = [
    ("const_zero", P("0", 1), set()),
    ("const_five", P("5", 1), set()),
    ("const_neg_half", P("-1/2", 1), set()),
    ("linear_up", P("x1", 1), {"A"}),
    ("linear_up_shift", P("2*x1 + 1", 1), {"A"}),
    ("linear_up_frac", P("1/3*x1 - 2", 1), {"A"}),
    ("linear_down", P("-x1", 1), {"B"}),
    ("linear_down_shift", P("-5*x1 + 4", 1), {"B"}),
    ("linear_down_frac", P("-1/7*x1", 1), {"B"}),
    ("parabola", P("x1^2", 1), {"A", "B"}),
    ("parabola_tilt", P("3*x1^2 + x1", 1), {"A", "B"}),
    ("quartic", P("x1^4", 1), {"A", "B"}),
    ("parabola_shift3", P("x1^2 - 6*x1 + 9", 1), {"A", "B"}),  # (x1-3)^2
    ("quartic_tilt", P("2*x1^4 - 3*x1", 1), {"A", "B"}),
    ("sextic_mix", P("1/5*x1^6 + x1^2", 1), {"A", "B"}),
    ("parabola_shift_neg1", P("x1^2 + 2*x1 + 1", 1), {"A", "B"}),  # (x1+1)^2
    (
        "quartic_shift3",  # (x1-3)^4
        P("x1^4 - 12*x1^3 + 54*x1^2 - 108*x1 + 81", 1),
        {"A", "B"},
    ),
    (
        "sextic_shift",  # (2*x1-1)^6
        P("64*x1^6 - 192*x1^5 + 240*x1^4 - 160*x1^3 + 60*x1^2 - 12*x1 + 1", 1),
        {"A", "B"},
    ),
    (
        "quartic_shift_neg2",  # (x1+2)^4
        P("x1^4 + 8*x1^3 + 24*x1^2 + 32*x1 + 16", 1),
        {"A", "B"},
    ),
    ("half_parabola", P("1/2*x1^2 - x1", 1), {"A", "B"}),
    ("cubic_up", P("x1^3", 1), {"A"}),
    ("cubic_up_mono", P("x1^3 + x1", 1), {"A"}),
    ("quintic_up_mono", P("x1^5 + 2*x1^3 + x1", 1), {"A"}),
    ("cubic_shift_neg1", P("x1^3 + 3*x1^2 + 3*x1 + 1", 1), {"A"}),  # (x1+1)^3
    ("quintic_up_frac", P("1/4*x1^5", 1), {"A"}),
    ("cubic_down", P("-x1^3", 1), {"B"}),
    ("cubic_down_mono", P("-x1^3 - x1", 1), {"B"}),
    ("quintic_down_mono", P("-x1^5 - 2*x1^3 - x1", 1), {"B"}),
    ("quintic_down", P("-x1^5", 1), {"B"}),
    (
        "quintic_down_shift2",  # -(x1-2)^5
        P("-x1^5 + 10*x1^4 - 40*x1^3 + 80*x1^2 - 80*x1 + 32", 1),
        {"B"},
    ),
]


def random_even_convex(rng: random.Random, variables: list[int], arity: int) -> Polynomial:
    """Symmetric convex polynomial supported on the given variables.

    Built as a positive-definite diagonal quadratic on the block, plus a
    PSD quadratic form G'G, plus a few even powers of block variables
    with positive coefficients.  The invariance subspace is exactly the
    span of the off-block coordinate directions.
    """
    acc = Polynomial(arity)
    for index in variables:
        coeff = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        acc = acc + coeff * variable(arity, index) ** 2
    forms = rng.randint(0, 2)
    for _ in range(forms):
        linear = Polynomial(arity)
        for index in variables:
            linear = linear + Fraction(rng.randint(-2, 2)) * variable(arity, index)
        acc = acc + linear * linear
    extras = rng.randint(1, 3)
    for _ in range(extras):
        index = rng.choice(variables)
        power = rng.choice([4, 6])
        coeff = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        acc = acc + coeff * variable(arity, index) ** power
    return acc


def overlapping_convex_pair(rng: random.Random) -> tuple[Polynomial, Polynomial, int]:
    """Pair of symmetric convex polynomials on overlapping variable blocks.

    Returns (u, v, expected_r) where expected_r = |block_u & block_v| by
    construction of the invariance subspaces.
    """
    arity = rng.randint(3, 6)
    variables = list(range(1, arity + 1))
    size_u = rng.randint(1, arity - 1)
    block_u = sorted(rng.sample(variables, size_u))
    overlap = rng.sample(block_u, rng.randint(1, size_u))
    rest = [i for i in variables if i not in block_u]
    size_v_extra = rng.randint(0, len(rest))
    block_v = sorted(overlap + rng.sample(rest, size_v_extra))
    u = random_even_convex(rng, block_u, arity)
    v = random_even_convex(rng, block_v, arity)
    return u, v, len(set(block_u) & set(block_v))


def random_psd_quadratic(rng: random.Random, arity: int) -> Polynomial:
    """Random PSD quadratic form G'G, possibly singular."""
    rows = rng.randint(1, arity)
    g = [[Fraction(rng.randint(-2, 2)) for _ in range(arity)] for _ in range(rows)]
    acc = Polynomial(arity)
    for row in g:
        linear = Polynomial(arity)
        for j, coeff in enumerate(row, start=1):
            if coeff:
                linear = linear + coeff * variable(arity, j)
        acc = acc + linear * linear
    return acc


def cayley(skew: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact rational rotation Q = (I - S)^{-1} (I + S) of a skew-symmetric S.

    I - S is invertible for every real skew S, so Gauss-Jordan elimination
    on [I - S | I + S] leaves Q in the right half.
    """
    n = len(skew)
    rows = [
        [Fraction(int(i == j)) - skew[i][j] for j in range(n)]
        + [Fraction(int(i == j)) + skew[i][j] for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def dense_rotation(n: int) -> list[list[Fraction]]:
    """Cayley rotation with every entry nonzero for n >= 3; S_ij = 1/2 or 1 above the diagonal."""
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = Fraction(1) if (i + j) % 2 else Fraction(1, 2)
            skew[j][i] = -skew[i][j]
    return cayley(skew)


def swap_columns(transform, i, j):
    """The same transform with 1-based columns i and j exchanged, blocks kept."""
    order = list(range(transform.n))
    order[i - 1], order[j - 1] = order[j - 1], order[i - 1]
    return dataclasses.replace(transform, columns=tuple(transform.columns[k] for k in order))


@st.composite
def rotated_polynomials(draw) -> Polynomial:
    """p(x) = q(A x) for q in k <= 3 variables of degree 2 to 6 and an integer k x n matrix A.

    n is at most 8.  ker A lies in the invariance subspace of p - p(0), so
    that subspace and its complement are both proper for most draws.  A
    sixth of the draws are the zero polynomial or a nonzero constant.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["rotated"] * 4 + ["zero", "constant"]))
    if kind == "zero":
        return Polynomial(n)
    if kind == "constant":
        return Polynomial.constant(n, draw(st.fractions(-5, 5, max_denominator=4).filter(bool)))
    k = draw(st.integers(1, min(3, n)))
    degree = draw(st.integers(2, 6))
    q = {}
    for d in [degree] + draw(st.lists(st.integers(0, degree), max_size=3)):
        factors = draw(st.lists(st.integers(0, k - 1), min_size=d, max_size=d))
        exponent = tuple(factors.count(j) for j in range(k))
        q[exponent] = q.get(exponent, 0) + draw(st.fractions(-4, 4, max_denominator=3).filter(bool))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    matrix = [draw(row) for _ in range(k)]
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    forms = [Polynomial(n, dict(zip(units, row))) for row in matrix]
    p = Polynomial(n)
    for exponent, coeff in q.items():
        term = Polynomial.constant(n, coeff)
        for form, power in zip(forms, exponent):
            term = term * form**power
        p = p + term
    return p
