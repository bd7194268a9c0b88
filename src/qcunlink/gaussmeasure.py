"""Expectations of polynomials under the standard Gaussian measure.

The expectations use the classical moment formula for independent
standard normal coordinates: E[Z^(2m)] = (2m-1)!!, odd moments vanish,
and a monomial's expectation is the product of its per-coordinate
moments.  Everything is computed without rounding: sums run over
``int`` with the coefficients brought to a common denominator, and the
result is one ``Fraction``.  Monte Carlo estimates are in ``sampling``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable

from .polyalg import Polynomial

__all__ = ["covariance", "expectation", "partial_expectation"]


@functools.cache
def _moment(order: int) -> int:
    """(order-1)!! for even orders, 0 for odd; order must be nonnegative."""
    if order % 2:
        return 0
    moment = 1
    for k in range(1, order, 2):
        moment *= k
    return moment


def expectation(p: Polynomial) -> Fraction:
    """Exact E[p(X)] for X ~ N(0, I)."""
    scale, terms = p._integer_terms
    total = 0
    for exponent, coeff in terms:
        for k in exponent:
            if k:
                coeff *= _moment(k)
        total += coeff
    return Fraction(total, scale)


def covariance(u: Polynomial, v: Polynomial) -> Fraction:
    """Exact Cov(u(X), v(X)) = E[uv] - E[u]E[v] for X ~ N(0, I).

    E[uv] is summed over pairs of terms c_a x^a, d_b x^b without forming
    the product u*v: E[x^(a+b)] vanishes unless every a_i + b_i is even,
    i.e. unless a and b have the same exponent parity, so v's terms are
    bucketed by parity and each term of u meets only its own bucket.  The
    sum runs over ``int`` with the coefficients over common denominators.
    """
    if u.arity != v.arity:
        raise ValueError(f"arity mismatch: {u.arity} != {v.arity}")
    u_scale, u_terms = u._integer_terms
    v_scale, v_terms = v._integer_terms
    buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for b, d in v_terms:
        buckets.setdefault(tuple(k & 1 for k in b), []).append((b, d))
    total = 0
    for a, c in u_terms:
        inner = 0
        for b, d in buckets.get(tuple(k & 1 for k in a), ()):
            for i, j in zip(a, b):
                if i or j:
                    d *= _moment(i + j)
            inner += d
        total += c * inner
    return Fraction(total, u_scale * v_scale) - expectation(u) * expectation(v)


def partial_expectation(p: Polynomial, marginalized: Iterable[int]) -> Polynomial:
    """Average p over a subset of coordinates, exactly.

    ``marginalized`` holds 1-based variable numbers.  Each marginalized
    factor x_i^k is replaced by its Gaussian moment; terms with an odd
    marginalized exponent vanish.  The result keeps the original arity,
    with zero exponents on the marginalized positions.
    """
    marked = set(marginalized)
    for index in marked:
        if not 1 <= index <= p.arity:
            raise ValueError(f"variable index {index} out of range 1..{p.arity}")
    positions = {index - 1 for index in marked}
    out: dict[tuple[int, ...], Fraction] = {}
    for exponent, coeff in p.terms.items():
        factor = coeff
        kept = list(exponent)
        dead = False
        for i in positions:
            k = exponent[i]
            if k % 2:
                dead = True
                break
            if k:
                factor *= _moment(k)
            kept[i] = 0
        if dead:
            continue
        key = tuple(kept)
        out[key] = out.get(key, Fraction(0)) + factor
    return Polynomial._from_terms(p.arity, out)
