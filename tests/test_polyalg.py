"""Exact polynomial arithmetic, parsing, and linear composition."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcunlink.polyalg import (
    MAX_ARITY,
    MAX_EXPONENT,
    MAX_TERMS,
    Polynomial,
    PolynomialSyntaxError,
    RationalMatrix,
    compose_linear,
    evaluate,
    evaluate_float,
    is_symmetric,
    parse_expression,
    partial_derivative,
    restrict_line,
    to_expression,
    to_json,
    from_json,
)
from qcunlink.polyalg import _tokenize

from corpus import P
from exact_oracles import evaluate_float_pow


def directional_derivative(p, direction):
    """Derivative of p along a constant direction: sum_i direction_i * dp/dx_i."""
    out = Polynomial.zero(p.arity)
    for i, x in enumerate(direction, start=1):
        if x:
            out = out + Fraction(x) * partial_derivative(p, i)
    return out


def uni(coeffs: dict[int, object]) -> Polynomial:
    return Polynomial(1, {(k,): Fraction(c) for k, c in coeffs.items()})


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_binomial_square():
    p = parse_expression("x1^2 + 2*x1*x2 + x2^2", 2)
    assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_zero():
    p = parse_expression("0", 3)
    assert p.terms == {}
    assert p.arity == 3


def test_parse_fraction_coefficients():
    p = parse_expression("1/2*x1^4 - x2^2", 2)
    assert p.terms == {(4, 0): Fraction(1, 2), (0, 2): -1}


def test_parse_leading_sign():
    assert parse_expression("-x1^2", 1).terms == {(2,): -1}
    assert parse_expression("+x1", 1).terms == {(1,): 1}


def test_parse_whitespace_insignificant():
    assert parse_expression(" x1 ^ 2+ 2 *x1* x2 ", 2) == parse_expression("x1^2+2*x1*x2", 2)


def test_parse_syntax_error_has_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_expression("x1 +* x2", 2)
    assert err.value.position == 4


def test_parse_variable_out_of_range():
    with pytest.raises(PolynomialSyntaxError, match="out of range"):
        parse_expression("x3", 2)


def test_parse_zero_denominator():
    with pytest.raises(PolynomialSyntaxError, match="zero denominator"):
        parse_expression("1/0", 1)


def test_parse_rejects_zero_exponent():
    with pytest.raises(PolynomialSyntaxError):
        parse_expression("x1^0", 1)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolynomialSyntaxError):
        parse_expression("x1 x2", 2)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def test_combine_add_cancellation():
    p = P("x1^2", 2)
    assert (p + -p).is_zero


def test_combine_mul_difference_of_squares():
    product = P("x1 + x2", 2) * P("x1 - x2", 2)
    assert product == P("x1^2 - x2^2", 2)


def test_combine_mul_squared_pair():
    # ((x1+x2)^2) * ((x1-x2)^2) expands to x1^4 - 2 x1^2 x2^2 + x2^4
    product = P("x1^2 + 2*x1*x2 + x2^2", 2) * P("x1^2 - 2*x1*x2 + x2^2", 2)
    assert product.terms == {(4, 0): 1, (2, 2): -2, (0, 4): 1}


def test_mul_agrees_with_pointwise_products():
    # evaluation oracle, independent of the coefficient-level expansion
    u = P("1/2*x1^3 - x2 + 2*x1*x2^2", 2)
    v = P("x1^2 - 3*x1*x2 + 1/4", 2)
    product = u * v
    points = [(0, 0), (1, 1), (-2, 3), (Fraction(1, 2), Fraction(-5, 3)), (7, -11)]
    for point in points:
        assert evaluate(product, point) == evaluate(u, point) * evaluate(v, point)


def test_combine_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        P("x1", 1) + P("x1", 2)
    with pytest.raises(ValueError, match="arity"):
        P("x1", 1) * P("x1", 2)


def test_evaluate_examples():
    p = P("x1^2*x2^2", 2)
    assert evaluate(p, (2, 0)) == 0
    assert evaluate(p, (1, 1)) == 1
    assert evaluate(P("x1^2 + 2*x1*x2 + x2^2", 2), (3, -1)) == 4


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        evaluate(P("x1", 1), (1, 2))


def test_evaluate_float_shapes():
    p, q = P("x1^3*x2 + 1/2", 2), P("x2^5 - x1", 2)
    points = np.array([[1.5, -2.0], [0.25, 3.0], [0.0, 1.0]])
    assert evaluate_float(p, (1.5, -2.0)) == -6.25
    assert evaluate_float(p, points).shape == (3,)
    both = evaluate_float((p, q), points)
    assert both.shape == (2, 3)
    assert np.array_equal(both[0], evaluate_float(p, points))
    assert np.array_equal(both[1], evaluate_float(q, points))
    assert np.array_equal(evaluate_float([p, q], (1.5, -2.0)), both[:, 0])
    assert evaluate_float(Polynomial.constant(0, 3), np.empty((4, 0))).tolist() == [3.0] * 4
    assert evaluate_float(p, np.empty((0, 2))).shape == (0,)


def test_evaluate_float_rejects_bad_inputs():
    with pytest.raises(ValueError, match="arity mismatch"):
        evaluate_float((P("x1", 1), P("x1", 2)), (1.0,))
    with pytest.raises(ValueError, match="no polynomial"):
        evaluate_float((), (1.0,))
    with pytest.raises(ValueError, match="arity 2"):
        evaluate_float(P("x1", 2), (1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# Line restriction and derivatives
# ---------------------------------------------------------------------------


def test_restrict_line_annihilating_direction():
    p = P("x1^2 + 2*x1*x2 + x2^2", 2)
    assert restrict_line(p, (0, 0), (1, -1)).is_zero


def test_restrict_line_substitution():
    p = P("x1^2 + 2*x1*x2 + x2^2", 2)
    assert restrict_line(p, (1, 0), (1, 1)) == uni({2: 4, 1: 4, 0: 1})


def test_restrict_line_single_variable():
    assert restrict_line(P("x1^2", 2), (0, 0), (1, 0)) == uni({2: 1})


def test_restrict_line_zero_direction():
    p = P("x1^2 + x2^4", 2)
    assert restrict_line(p, (2, 1), (0, 0)) == uni({0: 5})


def test_directional_derivative_examples():
    p = P("x1^2 + 2*x1*x2 + x2^2", 2)
    assert directional_derivative(p, (1, -1)).is_zero
    assert directional_derivative(p, (1, 0)) == P("2*x1 + 2*x2", 2)
    assert directional_derivative(P("x1^4", 1), (1,)) == P("4*x1^3", 1)


# ---------------------------------------------------------------------------
# Linear composition
# ---------------------------------------------------------------------------


def test_compose_identity():
    p = P("x1^2", 2)
    assert compose_linear(p, [[1, 0], [0, 1]]) == p


def test_compose_quarter_turn_diagonalizes_pair():
    p = P("x1^2 + 2*x1*x2 + x2^2", 2)
    s = 1 / np.sqrt(2.0)
    q = np.array([[s, s], [s, -s]])
    composed = compose_linear(p, q)
    assert abs(float(composed.terms.get((2, 0), 0)) - 2.0) <= 1e-9
    for exponent, coeff in composed.terms.items():
        if exponent != (2, 0):
            assert abs(float(coeff)) <= 1e-9


def test_compose_rational_rotation_is_exact():
    # the 3-4-5 rotation is orthogonal with exact rational entries
    q = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    assert compose_linear(P("x1^2 + x2^2", 2), q) == P("x1^2 + x2^2", 2)


def test_compose_orthogonal_preserves_square_sum():
    rng = np.random.default_rng(7)
    p = P("x1^2 + x2^2 + x3^2", 3)
    a = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(a)
    composed = compose_linear(p, q)
    for i in range(3):
        e = tuple(2 if j == i else 0 for j in range(3))
        assert abs(float(composed.terms.get(e, 0)) - 1.0) <= 1e-9
    off_diag = [c for e, c in composed.terms.items() if sum(e) == 2 and max(e) == 1]
    assert all(abs(float(c)) <= 1e-9 for c in off_diag)


def test_compose_float_matrix_keeps_small_coefficients():
    q = [[0.0, 1.0], [-1.0, 0.0]]
    composed = compose_linear(P("1/10000000000000*x1^2 + x2^2", 2), q)
    assert composed == P("x1^2 + 1/10000000000000*x2^2", 2)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="2x2"):
        compose_linear(P("x1", 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


# ---------------------------------------------------------------------------
# Symmetry
# ---------------------------------------------------------------------------


def test_is_symmetric_examples():
    assert is_symmetric(P("x1^2 + x1*x2", 2))
    assert not is_symmetric(P("x1^3", 1))
    assert is_symmetric(Polynomial.zero(2))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    p = P("1/2*x1^4 - x2^2 + 3", 2)
    obj = to_json(p)
    assert obj["n"] == 2
    assert from_json(obj) == p
    degrees = [sum(t["e"]) for t in obj["terms"]]
    assert degrees == sorted(degrees)  # graded order


def test_parse_input_limits():
    # each limit is admitted exactly and refused one past it
    assert parse_expression("x1", MAX_ARITY).arity == MAX_ARITY
    assert parse_expression(f"x1^{MAX_EXPONENT}", 1).total_degree() == MAX_EXPONENT
    assert parse_expression(" + ".join(["x1"] * MAX_TERMS), 1) == P(f"{MAX_TERMS}*x1", 1)
    with pytest.raises(ValueError, match=f"limit of {MAX_ARITY} variables"):
        parse_expression("x1", MAX_ARITY + 1)
    with pytest.raises(PolynomialSyntaxError, match="exponent of x1 exceeds") as info:
        parse_expression(f"x2 + x1^{MAX_EXPONENT + 1}", 2)
    assert info.value.position == 5
    with pytest.raises(PolynomialSyntaxError, match="exponent of x1 exceeds"):
        parse_expression(f"x1^{MAX_EXPONENT}*x1", 1)
    with pytest.raises(PolynomialSyntaxError, match=f"more than {MAX_TERMS} terms"):
        parse_expression(" + ".join(["x1"] * (MAX_TERMS + 1)), 1)


def test_from_json_input_limits():
    term = {"c": "1", "e": [MAX_EXPONENT]}
    full = from_json({"n": 1, "terms": [term] * MAX_TERMS})
    assert full == P(f"{MAX_TERMS}*x1^{MAX_EXPONENT}", 1)
    assert from_json({"n": MAX_ARITY, "terms": []}).arity == MAX_ARITY
    with pytest.raises(ValueError, match=f"limit of {MAX_ARITY} variables"):
        from_json({"n": MAX_ARITY + 1, "terms": []})
    steep = f"term 1: an exponent exceeds the limit of {MAX_EXPONENT}"
    with pytest.raises(ValueError, match=steep):
        from_json({"n": 1, "terms": [term, {"c": "1", "e": [MAX_EXPONENT + 1]}]})
    with pytest.raises(ValueError, match=f"exceed the limit of {MAX_TERMS}"):
        from_json({"n": 1, "terms": [term] * (MAX_TERMS + 1)})


def test_rational_matrix_validation():
    with pytest.raises(ValueError, match="rectangular"):
        RationalMatrix(2, 2, ((Fraction(1), Fraction(0)), (Fraction(1),)))
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.entries[1][0] == 3


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def polynomials(draw, min_arity=1, max_arity=3, max_exponent=3, max_terms=5):
    arity = draw(st.integers(min_arity, max_arity))
    count = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(count):
        exponent = tuple(draw(st.integers(0, max_exponent)) for _ in range(arity))
        terms[exponent] = draw(coefficients)
    return Polynomial(arity, terms)


@st.composite
def poly_triples(draw):
    arity = draw(st.integers(1, 3))
    return tuple(
        draw(polynomials(min_arity=arity, max_arity=arity, max_exponent=2, max_terms=4))
        for _ in range(3)
    )


class ReferenceParser:
    """The parser before it accumulated monomials in a dict: every step
    builds a Polynomial with + and *.  Kept as the oracle of the parser."""

    def __init__(self, text, arity):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arity = arity

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expression(self):
        sign = Fraction(1)
        if self.peek()[0] in "+-":
            if self.take()[0] == "-":
                sign = Fraction(-1)
        acc = sign * self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            term = self.term()
            acc = acc + term if op == "+" else acc - term
        kind, _, position = self.peek()
        if kind != "end":
            raise PolynomialSyntaxError("expected '+', '-', '*' or end of input", position)
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self):
        kind, value, position = self.peek()
        if kind == "int":
            self.take()
            numerator = value
            if self.peek()[0] == "/":
                self.take()
                dkind, denominator, dpos = self.take()
                if dkind != "int":
                    raise PolynomialSyntaxError("expected an integer denominator", dpos)
                if denominator == 0:
                    raise PolynomialSyntaxError("zero denominator in a coefficient", dpos)
                return Polynomial.constant(self.arity, Fraction(numerator, denominator))
            return Polynomial.constant(self.arity, Fraction(numerator))
        if kind == "var":
            self.take()
            if not 1 <= value <= self.arity:
                raise PolynomialSyntaxError(
                    f"variable index {value} out of range 1..{self.arity}", position
                )
            exponent = 1
            if self.peek()[0] == "^":
                self.take()
                ekind, exponent, epos = self.take()
                if ekind != "int":
                    raise PolynomialSyntaxError("expected an integer exponent", epos)
                if exponent < 1:
                    raise PolynomialSyntaxError("exponent must be a positive integer", epos)
            e = [0] * self.arity
            e[value - 1] = exponent
            return Polynomial(self.arity, {tuple(e): Fraction(1)})
        raise PolynomialSyntaxError("expected a coefficient or a variable", position)


def parse_outcome(parse, text, arity):
    """Terms in iteration order, or the syntax error's message and offset."""
    try:
        return "ok", list(parse(text, arity).terms.items())
    except PolynomialSyntaxError as exc:
        return "error", str(exc), exc.position


FRAGMENTS = ["x1", "x2", "x3", "x0", "x", "^", "^0", "2", "0", "12", "/", "/0", "*", "+", "-", " ", "a"]


@st.composite
def expression_texts(draw):
    """(text, arity): grammatical expressions with repeated monomials, or token soup."""
    arity = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=14))), arity
    space = st.sampled_from(["", " ", "  "])
    coefficient = st.builds(
        lambda n, d: f"{n}/{d}" if d else str(n), st.integers(0, 40), st.integers(0, 9)
    )
    variable = st.builds(
        lambda i, k: f"x{i}^{k}" if k > 1 else f"x{i}",
        st.integers(1, max(arity, 1)),
        st.integers(1, 4),
    )
    factor = coefficient | variable if arity else coefficient
    pieces = [draw(st.sampled_from(["", "-", "+"]))]
    for index in range(draw(st.integers(1, 8))):
        if index:
            pieces.append(draw(st.sampled_from(["+", "-"])))
        factors = draw(st.lists(factor, min_size=1, max_size=4))
        pieces.append((draw(space) + "*" + draw(space)).join(factors))
    return "".join(draw(space) + piece for piece in pieces), arity


@settings(max_examples=300, deadline=None)
@given(expression_texts())
def test_parser_matches_reference(case):
    text, arity = case
    expected = parse_outcome(lambda t, n: ReferenceParser(t, n).expression(), text, arity)
    assert parse_outcome(parse_expression, text, arity) == expected


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_text_round_trip(p):
    assert parse_expression(to_expression(p), p.arity) == p


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_json_round_trip_property(p):
    assert from_json(to_json(p)) == p


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_ring_laws(triple):
    p, q, r = triple
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    polynomials(max_arity=3, max_exponent=2, max_terms=4),
    st.integers(0, 2**32 - 1),
)
def test_compose_consistent_with_evaluate(p, seed):
    rng = np.random.default_rng(seed)
    n = p.arity
    a = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    composed = compose_linear(p, q)
    # the composition is exact in the binary rationals the float entries denote
    exact_q = [[Fraction(x) for x in row] for row in q.tolist()]
    y = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-10, 11, n), rng.integers(1, 8, n))]
    moved = [sum((qi * yi for qi, yi in zip(row, y)), Fraction(0)) for row in exact_q]
    assert evaluate(composed, y) == evaluate(p, moved)


@settings(max_examples=60, deadline=None)
@given(
    polynomials(),
    st.data(),
)
def test_restrict_line_matches_evaluate(p, data):
    n = p.arity
    base = tuple(data.draw(coefficients) for _ in range(n))
    direction = tuple(data.draw(coefficients) for _ in range(n))
    lam = data.draw(coefficients)
    line = restrict_line(p, base, direction)
    point = tuple(b + lam * v for b, v in zip(base, direction))
    assert evaluate(line, (lam,)) == evaluate(p, point)


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_symmetry_equivalent_to_reflection(p):
    reflected = Polynomial(p.arity, {e: (-c if sum(e) % 2 else c) for e, c in p.terms.items()})
    assert is_symmetric(p) == (p - reflected).is_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_zero_derivative_implies_constant_lines(arity, seed):
    # build p from linear forms that annihilate a chosen direction, so the
    # directional derivative vanishes identically by construction
    rng = np.random.default_rng(seed)
    direction = [Fraction(int(x)) for x in rng.integers(-3, 4, size=arity)]
    if not any(direction):
        direction[0] = Fraction(1)
    p = Polynomial.zero(arity)
    for _ in range(3):
        coeffs = [Fraction(int(x)) for x in rng.integers(-3, 4, size=arity)]
        dot = sum(c * d for c, d in zip(coeffs, direction))
        # project out the component along `direction` to force orthogonality
        norm = sum(d * d for d in direction)
        coeffs = [c - dot * d / norm for c, d in zip(coeffs, direction)]
        form = Polynomial(arity, {tuple(int(i == j) for j in range(arity)): coeffs[i] for i in range(arity)})
        p = p + form * form
    assert directional_derivative(p, direction).is_zero
    for trial in range(20):
        base = [Fraction(int(x)) for x in rng.integers(-5, 6, size=arity)]
        line = restrict_line(p, base, direction)
        assert all(e == (0,) for e in line.terms)


# Differential test of the power-table evaluator against the ``pow`` one.
#
# With gamma_k as in the bound comment next to ``polyalg._evaluate_rows``,
# the power-table value h satisfies |h - p(x)| <= gamma_(D+t) * M, where
# D is the total degree, t the number of terms and M = sum |c_e| |x|^e.
# The replaced evaluator rounds float(c) once, multiplies once per
# variable present, and takes x ** k from numpy: exact for k = 1, one
# product for k = 2 and libm ``pow`` for k >= 3.  Granting ``pow`` an
# error of 4 ulp, at most 8u relative, i.e. within gamma_8, each term
# carries at most 1 + 9*D factors before the t - 1 additions, so its
# value g satisfies |g - p(x)| <= gamma_(9D+t) * M.  Hence
#     |h - g| <= (gamma_(D+t) + gamma_(9D+t)) * M.
# Coordinates are 0 or lie in [1/64, 4] in magnitude and coefficients in
# [1/16, 8], so with degree at most 4*12 every power, product and sum
# stays in the normal range the model needs.

_UNIT_ROUNDOFF = Fraction(1, 2**53)


def _gamma(k: int) -> Fraction:
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


coordinates = st.one_of(
    st.just(0.0), st.floats(1 / 64, 4.0), st.floats(-4.0, -1 / 64)
)


@st.composite
def float_evaluation_cases(draw):
    arity = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        exponent = tuple(draw(st.integers(0, 12)) for _ in range(arity))
        terms[exponent] = draw(st.fractions(Fraction(1, 16), 8, max_denominator=16)) * draw(
            st.sampled_from((1, -1))
        )
    p = Polynomial(arity, terms)
    rows = draw(st.integers(1, 12))
    points = [[draw(coordinates) for _ in range(arity)] for _ in range(rows)]
    return p, np.array(points)


@settings(max_examples=200, deadline=None)
@given(float_evaluation_cases())
def test_evaluate_float_matches_pow_evaluator(case):
    p, points = case
    new = evaluate_float(p, points)
    old = evaluate_float_pow(p, points)
    gamma = _gamma(p.total_degree() + len(p.terms)) + _gamma(9 * p.total_degree() + len(p.terms))
    for h, g, point in zip(new, old, points):
        x = [abs(Fraction(c)) for c in point]
        magnitude = sum(abs(c) * math.prod(v**k for v, k in zip(x, e)) for e, c in p.terms.items())
        assert abs(Fraction(h) - Fraction(g)) <= gamma * magnitude


@st.composite
def dyadic_cases(draw):
    # points j/4 with |j| <= 8, integer coefficients, total degree <= 6:
    # every power, product and sum is a multiple of 4**-6 below 2**20 in
    # magnitude, so float64 holds each one exactly
    arity = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        budget = 6
        exponent = []
        for _ in range(arity):
            k = draw(st.integers(0, budget))
            exponent.append(k)
            budget -= k
        terms[tuple(exponent)] = Fraction(draw(st.integers(-50, 50)))
    p = Polynomial(arity, terms)
    rows = draw(st.integers(1, 10))
    points = [[Fraction(draw(st.integers(-8, 8)), 4) for _ in range(arity)] for _ in range(rows)]
    return p, points


@settings(max_examples=200, deadline=None)
@given(dyadic_cases())
def test_evaluate_float_is_exact_on_dyadic_points(case):
    p, points = case
    values = evaluate_float(p, np.array([[float(x) for x in point] for point in points]))
    assert values.tolist() == [float(evaluate(p, point)) for point in points]


@settings(max_examples=80, deadline=None)
@given(polynomials(max_exponent=9), st.data())
def test_evaluate_float_rows_do_not_depend_on_the_other_polynomials(p, data):
    # a shared table changes which powers are built and how rows are sliced
    q = data.draw(polynomials(min_arity=p.arity, max_arity=p.arity, max_exponent=9))
    points = np.array(
        data.draw(st.lists(st.lists(coordinates, min_size=p.arity, max_size=p.arity), min_size=1, max_size=9))
    )
    both = evaluate_float((p, q, p), points)
    assert np.array_equal(both[0], evaluate_float(p, points))
    assert np.array_equal(both[1], evaluate_float(q, points))
    assert np.array_equal(both[2], both[0])
    for row, point in zip(both.T, points):
        assert np.array_equal(row, evaluate_float((p, q, p), point))
