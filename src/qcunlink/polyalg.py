"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in n variables x1..xn is stored sparsely as a mapping from
exponent tuples (length n) to nonzero ``Fraction`` coefficients; the empty
mapping is the zero polynomial.  All arithmetic is exact.  Wherever a
number is accepted (coefficients, points, directions, matrix entries), a
float is read as the exact binary rational it denotes, so float inputs
are carried without further rounding.  Only ``evaluate_float`` computes
in floating point, with IEEE-754 multiplication and addition alone: a
power x_i^k is a product of squares, never a call to ``pow``, so its
values do not depend on the platform's libm or SIMD ``pow``.

Variables are numbered 1-based throughout the public API, matching the
text syntax (``x1``, ``x2``, ...).  Exponent tuples are positional:
position 0 holds the exponent of x1.

All values are immutable after construction and safe to share between
threads.

The text parser and ``from_json`` read untrusted input, so they enforce
the limits ``MAX_ARITY`` (variables), ``MAX_EXPONENT`` (exponent of one
variable in one term) and ``MAX_TERMS`` (terms as written), raising
``ValueError`` before any work grows with the offending size.  The
constructors and arithmetic take polynomials of any size.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Exponent = tuple[int, ...]

__all__ = [
    "Exponent",
    "MAX_ARITY",
    "MAX_EXPONENT",
    "MAX_TERMS",
    "Polynomial",
    "PolynomialSyntaxError",
    "RationalMatrix",
    "compose_linear",
    "evaluate",
    "evaluate_float",
    "from_json",
    "is_symmetric",
    "parse_expression",
    "partial_derivative",
    "restrict_line",
    "to_expression",
    "to_json",
]


# limits of parsed input; every fixture and benchmark input is far below them
MAX_ARITY = 256
MAX_EXPONENT = 1000
MAX_TERMS = 20_000


def _check_arity_limit(arity: int):
    if arity > MAX_ARITY:
        raise ValueError(f"arity {arity} exceeds the limit of {MAX_ARITY} variables")


class PolynomialSyntaxError(ValueError):
    """Raised when expression text does not conform to the input grammar.

    ``position`` is the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _as_fraction(value) -> Fraction:
    """Convert a number to Fraction; a float becomes the binary rational it denotes."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, numbers.Real):
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _grlex(exponent: Exponent) -> tuple[int, Exponent]:
    return (sum(exponent), exponent)


@dataclass(frozen=True)
class Polynomial:
    """Canonical sparse polynomial: no zero coefficients are stored.

    Terms are kept in ascending graded-lexicographic order so that equal
    polynomials iterate identically (this makes float evaluation and
    serialization bit-reproducible).
    """

    arity: int
    terms: dict[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        canon: dict[Exponent, Fraction] = {}
        for exponent, coeff in sorted(self.terms.items(), key=lambda item: _grlex(item[0])):
            exponent = tuple(int(k) for k in exponent)
            if len(exponent) != self.arity:
                raise ValueError(
                    f"exponent tuple {exponent} has length {len(exponent)}, expected {self.arity}"
                )
            if any(k < 0 for k in exponent):
                raise ValueError(f"negative exponent in {exponent}")
            coeff = _as_fraction(coeff)
            if coeff:
                canon[exponent] = coeff
        object.__setattr__(self, "terms", canon)

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "Polynomial":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Polynomial":
        """The monomial x<index>, 1-based."""
        if not 1 <= index <= arity:
            raise ValueError(f"variable index {index} out of range 1..{arity}")
        exponent = [0] * arity
        exponent[index - 1] = 1
        return cls(arity, {tuple(exponent): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum term degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.arity, Fraction(0))

    def _check_arity(self, other: "Polynomial"):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} != {other.arity}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_arity(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.arity, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            out: dict[Exponent, Fraction] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(i + j for i, j in zip(ea, eb))
                    out[e] = out.get(e, Fraction(0)) + ca * cb
            return Polynomial(self.arity, out)
        scalar = _as_fraction(other)
        return Polynomial(self.arity, {e: c * scalar for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.arity, 1)
        for _ in range(power):
            result = result * self
        return result

    def __str__(self) -> str:
        return to_expression(self)


def evaluate(p: Polynomial, point: Sequence) -> Fraction:
    """Exact value of p at a rational point."""
    if len(point) != p.arity:
        raise ValueError(f"point length {len(point)} != arity {p.arity}")
    values = [_as_fraction(x) for x in point]
    total = Fraction(0)
    for exponent, coeff in p.terms.items():
        term = coeff
        for value, k in zip(values, exponent):
            if k:
                term *= value**k
        total += term
    return total


def evaluate_float(p: Polynomial | Sequence[Polynomial], points) -> np.ndarray | float:
    """Evaluate p, or each of a sequence of polynomials, in float64 at one or many points.

    ``points`` is a length-n vector or an (m, n) array.  For one
    polynomial the result is a scalar or an (m,) array; for a sequence of
    k polynomials of arity n it is a (k,) or (k, m) array whose row j
    holds polys[j].  All polynomials read one power table (see
    ``_power_table``), so a power shared between them is computed once.

    Each term is formed as float(c) * x_i1^k1 * x_i2^k2 * ... in canonical
    term order and added in that order to an accumulator that starts at
    0.0; every power is a product of float64 squares, with no ``pow``
    call.  So a value is a function of the input bits of its point
    alone: equal polynomials give bit-identical values on identical
    points, whatever the other points of the batch and whichever libm
    the machine has.
    """
    single_poly = isinstance(p, Polynomial)
    polys = (p,) if single_poly else tuple(p)
    if not polys:
        raise ValueError("no polynomial to evaluate")
    arity = polys[0].arity
    for q in polys[1:]:
        if q.arity != arity:
            raise ValueError(f"arity mismatch: {arity} != {q.arity}")
    x = np.asarray(points, dtype=float)
    single_point = x.ndim == 1
    if single_point:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != arity:
        raise ValueError(f"expected points of arity {arity}, got shape {x.shape}")
    values = _evaluate_rows(polys, x)
    if single_point:
        values = values[:, 0]
    if single_poly:
        return float(values[0]) if single_point else values[0]
    return values


# Error of the power-table evaluation.
#
# Write u = 2**-53 and gamma_k = k*u / (1 - k*u) as in ``structure.py``.
# Squaring s_0 = x gives s_j = fl(s_(j-1) * s_(j-1)) = x^(2^j) times
# 2^j - 1 factors (1 + delta), |delta| <= u, counted with multiplicity.
# x^k is the product of the s_j over the set bits j of k, in increasing
# j, which adds popcount(k) - 1 roundings: k - popcount(k) + popcount(k)
# - 1 = k - 1 factors in all, as many as the k - 1 sequential products.
# A term c * x^e of degree D takes one rounding for float(c), k_i - 1 for
# each power and one product per variable present, so 1 + D factors.
# Adding t terms to 0.0 in order rounds each term at most t - 1 more
# times (the first addition is exact).  So every term carries at most
#     K = D + t,  D = total degree,
# factors, and Higham's Lemma 3.1 gives for the computed value h
#     |h - p(x)| <= gamma_(D+t) * M,     M = sum over terms of |c_e| * |x|^e,
# whenever no power, product or partial sum leaves the normal range.
# The replaced evaluator took numpy ``x ** k``, which calls ``pow`` for
# k >= 3: as accurate as the platform's libm, and no more reproducible.
# ``tests/test_polyalg.py`` compares the two within this bound plus the
# matching one for the ``pow`` path.


def _evaluate_rows(polys: Sequence[Polynomial], x: np.ndarray) -> np.ndarray:
    """(len(polys), m) values at the rows of the (m, n) array x, from shared power tables.

    One table holds every distinct power x_i^k (k >= 1) that some term of
    some polynomial uses.  So that it never holds more floats than x,
    the rows are evaluated in slices of at most n*m / columns rows (and at
    least one); the values of a row do not depend on the slicing.
    """
    columns = sorted({(i, k) for q in polys for e in q.terms for i, k in enumerate(e) if k})
    index = {column: j for j, column in enumerate(columns)}
    plans = [
        [(float(c), [index[(i, k)] for i, k in enumerate(e) if k]) for e, c in q.terms.items()]
        for q in polys
    ]
    m, n = x.shape
    step = max(1, min(m, m * n // len(columns) if columns else m))
    values = np.zeros((len(polys), m))
    table = np.empty((len(columns), step))
    term = np.empty(step)
    for start in range(0, m, step):
        rows = x[start : start + step]
        width = rows.shape[0]
        sliced = table[:, :width]
        _power_table(rows, columns, sliced)
        product = term[:width]
        for acc, plan in zip(values[:, start : start + width], plans):
            for coeff, factors in plan:
                if not factors:
                    acc += coeff
                    continue
                np.multiply(sliced[factors[0]], coeff, out=product)
                for f in factors[1:]:
                    np.multiply(product, sliced[f], out=product)
                acc += product
    return values


def _power_table(x: np.ndarray, columns: Sequence[tuple[int, int]], table: np.ndarray):
    """Fill row j of ``table`` with x[:, i] ** k for columns[j] = (i, k), by products alone.

    ``columns`` is sorted.  For each variable the squares s_0 = x_i,
    s_1 = s_0*s_0, ... are formed once, and x_i^k is the product of the
    squares at the set bits of k, taken in increasing bit order.
    """
    square = np.empty(x.shape[0])
    start = 0
    for i, group in itertools.groupby(columns, key=lambda column: column[0]):
        exponents = [k for _, k in group]
        rows = table[start : start + len(exponents)]
        start += len(exponents)
        np.copyto(square, x[:, i])
        for bit in range(max(exponents).bit_length()):
            if bit:
                np.multiply(square, square, out=square)
            weight = 1 << bit
            for row, k in zip(rows, exponents):
                if k & weight:
                    if k & (weight - 1):
                        np.multiply(row, square, out=row)
                    else:
                        np.copyto(row, square)


def _substitute(p: Polynomial, forms: Sequence[Polynomial], arity: int) -> Polynomial:
    """p with each x_i replaced by forms[i] (of the given arity); each power is built once."""
    powers: dict[tuple[int, int], Polynomial] = {}

    def form_power(i: int, k: int) -> Polynomial:
        key = (i, k)
        if key not in powers:
            powers[key] = forms[i] if k == 1 else form_power(i, k - 1) * forms[i]
        return powers[key]

    acc: dict[Exponent, Fraction] = {}
    for exponent, coeff in p.terms.items():
        term = Polynomial.constant(arity, coeff)
        for i, k in enumerate(exponent):
            if k:
                term = term * form_power(i, k)
        for e, c in term.terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c
    return Polynomial(arity, acc)


def restrict_line(p: Polynomial, base: Sequence, direction: Sequence) -> Polynomial:
    """The univariate polynomial t -> p(base + t * direction), exact.

    A zero direction is allowed and yields the constant p(base).
    """
    if len(base) != p.arity or len(direction) != p.arity:
        raise ValueError("base and direction must have length equal to the arity")
    # x_i substituted by the degree<=1 polynomial b_i + t*v_i
    lines = [Polynomial(1, {(0,): b_i, (1,): v_i}) for b_i, v_i in zip(base, direction)]
    return _substitute(p, lines, 1)


def partial_derivative(p: Polynomial, index: int) -> Polynomial:
    """Exact partial derivative with respect to x<index> (1-based)."""
    if not 1 <= index <= p.arity:
        raise ValueError(f"variable index {index} out of range 1..{p.arity}")
    i = index - 1
    out: dict[Exponent, Fraction] = {}
    for exponent, coeff in p.terms.items():
        k = exponent[i]
        if k:
            e = list(exponent)
            e[i] = k - 1
            out[tuple(e)] = coeff * k
    return Polynomial(p.arity, out)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense rectangular matrix with exact rational entries."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("entry grid does not match the declared row count")
        grid = []
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("entry grid is not rectangular")
            grid.append(tuple(_as_fraction(x) for x in row))
        object.__setattr__(self, "entries", tuple(grid))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        grid = [tuple(row) for row in rows]
        cols = len(grid[0]) if grid else 0
        return cls(len(grid), cols, tuple(grid))


def compose_linear(p: Polynomial, matrix) -> Polynomial:
    """Coefficients of x -> p(M x) for a square matrix M, exact.

    ``matrix`` is a ``RationalMatrix`` or a nested sequence (or array) of
    numbers; float entries are read as the binary rationals they denote,
    so the result is the exact composition with that matrix.
    """
    n = p.arity
    rows = [list(row) for row in (matrix.entries if isinstance(matrix, RationalMatrix) else matrix)]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"matrix must be {n}x{n}")
    # x_i becomes the linear form sum_j M[i][j] * y_j
    forms = [Polynomial(n, {tuple(int(j == k) for k in range(n)): x for j, x in enumerate(row)}) for row in rows]
    return _substitute(p, forms, n)


def is_symmetric(p: Polynomial) -> bool:
    """True iff p(x) = p(-x) as polynomials.

    Equivalent to every stored term having even total degree, because
    negating the point flips exactly the odd-degree terms.
    """
    return all(sum(e) % 2 == 0 for e in p.terms)


# ---------------------------------------------------------------------------
# Text form
#
# expression := ('+'|'-')? term (('+'|'-') term)*
# term       := factor ('*' factor)*
# factor     := coefficient | variable ('^' positive-integer)?
# coefficient:= integer ('/' positive-integer)?
# variable   := 'x' positive-integer
#
# Whitespace is insignificant.  The leading sign is accepted so that
# polynomials such as "-x1^2" round-trip.
# ---------------------------------------------------------------------------


def to_expression(p: Polynomial) -> str:
    """Render to the text grammar; leading terms first (descending degree)."""
    if p.is_zero:
        return "0"
    parts = []
    for exponent, coeff in sorted(p.terms.items(), key=lambda item: _grlex(item[0]), reverse=True):
        mono = "*".join(
            f"x{i + 1}^{k}" if k > 1 else f"x{i + 1}"
            for i, k in enumerate(exponent)
            if k
        )
        magnitude = abs(coeff)
        if mono and magnitude == 1:
            body = mono
        elif mono:
            body = f"{magnitude}*{mono}"
        else:
            body = str(magnitude)
        parts.append(("-" if coeff < 0 else "+", body))
    sign, first = parts[0]
    pieces = [first if sign == "+" else "-" + first]
    for sign, body in parts[1:]:
        pieces.append(f" {sign} {body}")
    return "".join(pieces)


def to_json(p: Polynomial) -> dict:
    """JSON form with coefficients as exact fraction strings.

    Terms are listed in ascending graded-lexicographic exponent order for
    bit-exact reproducibility.
    """
    return {
        "n": p.arity,
        "terms": [{"c": str(c), "e": list(e)} for e, c in p.terms.items()],
    }


def from_json(obj) -> Polynomial:
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise ValueError("polynomial JSON must be an object with keys 'n' and 'terms'")
    arity = obj["n"]
    if not isinstance(arity, int) or arity < 0:
        raise ValueError("'n' must be a nonnegative integer")
    _check_arity_limit(arity)
    if not isinstance(obj["terms"], list):
        raise ValueError("'terms' must be a list")
    if len(obj["terms"]) > MAX_TERMS:
        raise ValueError(f"{len(obj['terms'])} terms exceed the limit of {MAX_TERMS}")
    terms: dict[Exponent, Fraction] = {}
    for index, item in enumerate(obj["terms"]):
        exponent, coeff = _json_term(item, arity, index)
        terms[exponent] = terms.get(exponent, Fraction(0)) + coeff
    return Polynomial(arity, terms)


def _json_term(item, arity: int, index: int) -> tuple[Exponent, Fraction]:
    """Exponent and coefficient of one JSON term, or ValueError naming the term."""
    if not isinstance(item, dict) or "e" not in item or "c" not in item:
        raise ValueError(f"term {index}: expected an object with keys 'e' and 'c'")
    exponent = item["e"]
    if (
        not isinstance(exponent, list)
        or len(exponent) != arity
        or not all(type(k) is int and k >= 0 for k in exponent)
    ):
        raise ValueError(f"term {index}: 'e' must be a list of {arity} nonnegative integers")
    if any(k > MAX_EXPONENT for k in exponent):
        raise ValueError(f"term {index}: an exponent exceeds the limit of {MAX_EXPONENT}")
    coeff = item["c"]
    try:
        if isinstance(coeff, bool):
            raise TypeError
        return tuple(exponent), Fraction(coeff)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"term {index}: 'c' is not a rational number: {coeff!r}") from None


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolynomialSyntaxError("expected a variable index after 'x'", i)
            tokens.append(("var", int(text[i + 1 : j]), i))
            i = j
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], arity: int):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, object, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expression(self) -> Polynomial:
        # each term is one monomial; like terms are summed in a dict and
        # the polynomial is built once, so parsing is linear in the input
        acc: dict[Exponent, Fraction] = {}
        op = self.take()[0] if self.peek()[0] in "+-" else "+"
        count = 0
        while True:
            count += 1
            if count > MAX_TERMS:
                raise PolynomialSyntaxError(f"more than {MAX_TERMS} terms", self.peek()[2])
            exponent, coeff = self.term()
            acc[exponent] = acc.get(exponent, 0) + (coeff if op == "+" else -coeff)
            if self.peek()[0] not in "+-":
                break
            op = self.take()[0]
        kind, _, position = self.peek()
        if kind != "end":
            raise PolynomialSyntaxError("expected '+', '-', '*' or end of input", position)
        return Polynomial(self.arity, acc)

    def term(self) -> tuple[Exponent, Fraction]:
        exponent = [0] * self.arity
        coeff = Fraction(1)
        while True:
            coeff *= self.factor(exponent)
            if self.peek()[0] != "*":
                return tuple(exponent), coeff
            self.take()

    def factor(self, exponent: list[int]) -> Fraction:
        """Consume one factor: return its coefficient, add its powers to ``exponent``."""
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
                return Fraction(numerator, denominator)
            return Fraction(numerator)
        if kind == "var":
            self.take()
            if not 1 <= value <= self.arity:
                raise PolynomialSyntaxError(
                    f"variable index {value} out of range 1..{self.arity}", position
                )
            power = 1
            if self.peek()[0] == "^":
                self.take()
                ekind, power, epos = self.take()
                if ekind != "int":
                    raise PolynomialSyntaxError("expected an integer exponent", epos)
                if power < 1:
                    raise PolynomialSyntaxError("exponent must be a positive integer", epos)
            exponent[value - 1] += power
            if exponent[value - 1] > MAX_EXPONENT:
                raise PolynomialSyntaxError(
                    f"exponent of x{value} exceeds the limit of {MAX_EXPONENT}", position
                )
            return Fraction(1)
        raise PolynomialSyntaxError("expected a coefficient or a variable", position)


def parse_expression(text: str, arity: int) -> Polynomial:
    """Parse expression text into a canonical polynomial of the given arity."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    _check_arity_limit(arity)
    return _Parser(_tokenize(text), arity).expression()
