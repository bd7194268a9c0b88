"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in n variables x1..xn is stored sparsely as a mapping from
exponent tuples (length n) to nonzero ``Fraction`` coefficients; the empty
mapping is the zero polynomial.  All arithmetic is exact.  Wherever a
number is accepted (coefficients, points, directions), a float is read
as the exact binary rational it denotes, so float inputs are carried
without further rounding.

Variables are numbered 1-based throughout the public API, matching the
text syntax (``x1``, ``x2``, ...).  Exponent tuples are positional:
position 0 holds the exponent of x1.

All values are immutable after construction and safe to share between
threads.  The integer form of a polynomial is computed on first read;
two concurrent first reads compute equal values.

The text grammar ("Text form" below) has no parentheses and no
nesting, so it is read in flat steps.  Before parsing starts, one regex
search over the whole text finds the first character that starts no
token (an ``x`` without an index included), and a second, up to that
character, the first integer of too many digits; so a lexical error
anywhere is reported ahead of a syntax error.  A compiled regex with an
alternative per token kind (number, variable, operator) then lists the
tokens as plain strings, and one loop in ``parse_expression`` walks
them term by term, keeping each term's coefficient as an integer
numerator and denominator, and makes one ``Fraction`` per term.  Tokens
carry no offsets: a syntax error finds its offset by walking the token
matches up to the failing token.

The text parser and ``from_json`` read untrusted input, so they enforce
the limits ``MAX_ARITY`` (variables), ``MAX_EXPONENT`` (exponent of one
variable in one term) and ``MAX_TERMS`` (terms as written), raising
``ValueError`` before any work grows with the offending size.  Neither
converts an integer of more than ``MAX_DIGITS`` digits, the
interpreter's default limit for ``int`` from text: ``from_json`` reads a
coefficient string only in the form ``to_json`` writes, an optional
``-``, ASCII digits, and optionally ``/`` and ASCII digits.  The
constructors and arithmetic take polynomials of any size.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

Exponent = tuple[int, ...]

__all__ = [
    "Exponent",
    "MAX_ARITY",
    "MAX_DIGITS",
    "MAX_EXPONENT",
    "MAX_TERMS",
    "Polynomial",
    "PolynomialSyntaxError",
    "derivative_matrix",
    "evaluate",
    "from_json",
    "is_symmetric",
    "parse_expression",
    "restrict_ray",
    "to_expression",
    "to_json",
]


# limits of parsed input; every fixture and benchmark input is far below them
MAX_ARITY = 256
MAX_EXPONENT = 1000
MAX_TERMS = 20_000
# decimal digits of one integer in the text form
MAX_DIGITS = 4300


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
    """Convert a number to Fraction; a finite float becomes the binary rational it denotes."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, numbers.Real):
        if not math.isfinite(value):
            raise ValueError(f"cannot interpret {value} as a rational number")
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _canonical(terms: dict[Exponent, Fraction]) -> dict[Exponent, Fraction]:
    """The nonzero terms in ascending graded-lexicographic order."""
    return {e: terms[e] for e in sorted(terms, key=lambda e: (sum(e), e)) if terms[e]}


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
        arity = self.arity
        # bool is Integral, and a float arity would reach tuple repetition
        if isinstance(arity, bool) or not isinstance(arity, numbers.Integral) or arity < 0:
            raise ValueError("arity must be a nonnegative integer")
        object.__setattr__(self, "arity", int(arity))
        checked: dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            try:
                integral = tuple(int(k) for k in exponent)
            except (OverflowError, ValueError):  # inf, nan, non-numeric text
                integral = None
            if integral != tuple(exponent):
                raise ValueError(f"non-integer exponent in {tuple(exponent)}")
            exponent = integral
            if len(exponent) != self.arity:
                raise ValueError(
                    f"exponent tuple {exponent} has length {len(exponent)}, expected {self.arity}"
                )
            if any(k < 0 for k in exponent):
                raise ValueError(f"negative exponent in {exponent}")
            checked[exponent] = _as_fraction(coeff)
        object.__setattr__(self, "terms", _canonical(checked))

    @classmethod
    def _from_terms(cls, arity: int, terms: dict[Exponent, Fraction]) -> "Polynomial":
        """The polynomial of checked terms: int exponent tuples of length arity, Fraction values."""
        p = object.__new__(cls)
        object.__setattr__(p, "arity", arity)
        object.__setattr__(p, "terms", _canonical(terms))
        return p

    @cached_property
    def _integer_terms(self) -> tuple[int, tuple[tuple[Exponent, int], ...]]:
        """(C, ((e, C*c), ...)): the terms in order over the lcm C of the coefficient denominators."""
        scale = math.lcm(*(c.denominator for c in self.terms.values()))
        return scale, tuple((e, c.numerator * (scale // c.denominator)) for e, c in self.terms.items())

    @cached_property
    def _derivative_rows(self) -> dict[Exponent, tuple[int, ...]]:
        """The rows of ``derivative_matrix(self)`` keyed by their monomial, built once; read only."""
        rows: dict[Exponent, list[int]] = {}
        for exponent, coeff in self._integer_terms[1]:
            for i, k in enumerate(exponent):
                if k:
                    monomial = exponent[:i] + (k - 1,) + exponent[i + 1 :]
                    row = rows.get(monomial)
                    if row is None:
                        row = rows[monomial] = [0] * self.arity
                    # x^monomial * x_i is the one term that reaches this entry
                    row[i] = coeff * k
        return {monomial: tuple(row) for monomial, row in rows.items()}

    @cached_property
    def _derivative_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``derivative_matrix(self)``, in the order their monomials were first met."""
        return tuple(self._derivative_rows.values())

    def _hessian_rows(self) -> list[tuple[int, ...]]:
        """The rows of ``derivative_matrix(self)`` at x_1..x_n, a zero row where one is absent.

        Only C*c*x_j^2 (2*C*c in column j) and C*c*x_i*x_j (C*c in column i)
        reach the row of x_j, so these are C times the Hessian of the degree-2 part.
        """
        zero = (0,) * self.arity
        rows = self._derivative_rows
        return [rows.get(zero[:j] + (1,) + zero[j + 1 :], zero) for j in range(self.arity)]

    @classmethod
    def constant(cls, arity: int, value) -> "Polynomial":
        return cls(arity, {(0,) * arity: value})

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
        return Polynomial._from_terms(self.arity, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_terms(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            out: dict[Exponent, Fraction] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(i + j for i, j in zip(ea, eb))
                    out[e] = out.get(e, Fraction(0)) + ca * cb
            return Polynomial._from_terms(self.arity, out)
        scalar = _as_fraction(other)
        return Polynomial._from_terms(self.arity, {e: c * scalar for e, c in self.terms.items()})

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


def _term_values(p: Polynomial, point: Sequence) -> Iterator[tuple[Exponent, Fraction]]:
    """(e, c * point^e) for each term c * x^e of p, exact."""
    if len(point) != p.arity:
        raise ValueError(f"point length {len(point)} != arity {p.arity}")
    values = [_as_fraction(x) for x in point]
    for exponent, coeff in p.terms.items():
        term = coeff
        for value, k in zip(values, exponent):
            if k:
                term *= value**k
        yield exponent, term


def evaluate(p: Polynomial, point: Sequence) -> Fraction:
    """Exact value of p at a rational point."""
    return sum((term for _, term in _term_values(p, point)), Fraction(0))


def restrict_ray(p: Polynomial, direction: Sequence) -> Polynomial:
    """The univariate polynomial t -> p(t * direction), exact.

    A term c * x^e contributes c * direction^e to the coefficient of
    t^|e|, so this is one pass over p's terms.  A zero direction yields
    the constant p(0).
    """
    out: dict[Exponent, Fraction] = {}
    for exponent, term in _term_values(p, direction):
        degree = (sum(exponent),)
        out[degree] = out.get(degree, Fraction(0)) + term
    return Polynomial._from_terms(1, out)


def derivative_matrix(p: Polynomial) -> tuple[tuple[int, ...], ...]:
    """Integer matrix M of the linear map v -> D_v p = sum_i v_i * dp/dx_i.

    M has one column per variable and one row per monomial of a partial
    derivative of p, in the order the monomials are first met.  With C
    the lcm of p's coefficient denominators, a term c * x^e puts
    C * c * e_i into column i of the row of e - e_i, so the entries of
    M v are the coefficients of D_v (C * p): for a rational v, D_v p is
    the zero polynomial iff M v = 0.  M is built once per polynomial and
    shared by every caller, so its rows are tuples.  Its rows at x_1..x_n
    are C times the Hessian of p's degree-2 part (``_hessian_rows``).
    """
    return p._derivative_matrix


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
    for exponent, coeff in reversed(p.terms.items()):
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
    if type(arity) is not int or arity < 0:
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
    return Polynomial._from_terms(arity, terms)


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
        return tuple(exponent), _rational(coeff) if isinstance(coeff, str) else Fraction(coeff)
    except PolynomialSyntaxError as exc:
        raise ValueError(f"term {index}: 'c': {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"term {index}: 'c' is not a rational number") from None


# the coefficient strings ``to_json`` writes; Fraction() would also read
# exponent notation, whose digits it builds however many they are
_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def _rational(text: str) -> Fraction:
    """'-'?, ASCII digits, and optionally '/' and ASCII digits, as a Fraction."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(text)
    numerator = _integer(text, *match.span(2))
    denominator = _integer(text, *match.span(3)) if match.group(3) else 1
    return Fraction(-numerator if match.group(1) else numerator, denominator)


def _integer(text: str, start: int, end: int) -> int:
    """The ASCII digits text[start:end] as an int, at most ``MAX_DIGITS`` of them."""
    if end - start > MAX_DIGITS:
        raise PolynomialSyntaxError(
            f"integer of {end - start} digits exceeds the limit of {MAX_DIGITS}", start
        )
    return int(text[start:end])


# one alternative per token kind.  [0-9] is ASCII only: str.isdigit also
# accepts other scripts' digits and superscripts, which int() reads
# differently or rejects
_TOKEN = re.compile(r"[0-9]+|x[0-9]+|[-+*/^]")
# a character that starts no token: neither whitespace, a digit nor an
# operator, and not an 'x' followed by a digit
_BAD_CHARACTER = re.compile(r"[^\s0-9+*/^-](?:(?<!x)|(?![0-9]))")
# a whole run of more than MAX_DIGITS digits; shorter texts fail at once
_LONG_INTEGER = re.compile(rf"(?<![0-9])[0-9]{{{MAX_DIGITS + 1},}}")
# ends the token list; no token is "$", so no comparison matches it
_END = "$"


def _check_lexical(text: str):
    """Raise the first lexical error of text, the one a left-to-right scan meets."""
    bad = _BAD_CHARACTER.search(text)
    end = len(text) if bad is None else bad.start()
    # a run of digits cannot straddle the bad character, which is no digit
    long = _LONG_INTEGER.search(text, 0, end)
    if long is not None:
        _integer(text, *long.span())  # raises: the run is too long
    if bad is not None:
        if bad.group() == "x":
            raise PolynomialSyntaxError("expected a variable index after 'x'", end)
        raise PolynomialSyntaxError(f"unexpected character {bad.group()!r}", end)


def _syntax_error(message: str, text: str, index: int) -> PolynomialSyntaxError:
    """A syntax error at token number ``index`` of text, or at its end past the last token."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None), None)
    return PolynomialSyntaxError(message, len(text) if match is None else match.start())


def parse_expression(text: str, arity: int) -> Polynomial:
    """Parse expression text into a canonical polynomial of the given arity.

    Like terms are summed in a dict and the polynomial is built once, so
    parsing is linear in the input.
    """
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    _check_arity_limit(arity)
    _check_lexical(text)
    tokens = _TOKEN.findall(text)
    tokens.append(_END)
    terms: dict[Exponent, Fraction] = {}
    token = tokens[0]
    negative = token == "-"
    i = 1 if token in ("+", "-") else 0
    count = 0
    while True:  # one term per pass
        count += 1
        if count > MAX_TERMS:
            raise _syntax_error(f"more than {MAX_TERMS} terms", text, i)
        exponent = [0] * arity
        numerator = denominator = 1
        while True:  # one factor per pass, ending on its last token
            token = tokens[i]
            if token.isdigit():
                numerator *= int(token)
                if tokens[i + 1] == "/":
                    i += 2
                    token = tokens[i]
                    if not token.isdigit():
                        raise _syntax_error("expected an integer denominator", text, i)
                    value = int(token)
                    if value == 0:
                        raise _syntax_error("zero denominator in a coefficient", text, i)
                    denominator *= value
            elif token[0] == "x":
                variable = i
                value = int(token[1:])
                if not 1 <= value <= arity:
                    raise _syntax_error(f"variable index out of range 1..{arity}", text, i)
                power = 1
                if tokens[i + 1] == "^":
                    i += 2
                    token = tokens[i]
                    if not token.isdigit():
                        raise _syntax_error("expected an integer exponent", text, i)
                    power = int(token)
                    if power < 1:
                        raise _syntax_error("exponent must be a positive integer", text, i)
                exponent[value - 1] += power
                if exponent[value - 1] > MAX_EXPONENT:
                    raise _syntax_error(
                        f"exponent of x{value} exceeds the limit of {MAX_EXPONENT}", text, variable
                    )
            else:
                raise _syntax_error("expected a coefficient or a variable", text, i)
            i += 1
            if tokens[i] != "*":
                break
            i += 1
        coeff = Fraction(-numerator if negative else numerator, denominator)
        key = tuple(exponent)
        terms[key] = terms[key] + coeff if key in terms else coeff
        token = tokens[i]
        if token not in ("+", "-"):
            break
        negative = token == "-"
        i += 1
    if token != _END:
        raise _syntax_error("expected '+', '-', '*' or end of input", text, i)
    return Polynomial._from_terms(arity, terms)
