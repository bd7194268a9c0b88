"""Expectations of polynomials under the standard Gaussian measure.

Exact operations use the classical moment formula for independent
standard normal coordinates: E[Z^(2m)] = (2m-1)!!, odd moments vanish,
and a monomial's expectation is the product of its per-coordinate
moments.  Everything exact is computed without rounding: sums run over
``int`` with the coefficients brought to a common denominator, and the
result is one ``Fraction``.

The Monte Carlo side needs one thing: the values of a few polynomials at
shared draws of a standard Gaussian vector.  ``sample_values`` is the one
loop that produces them; the mean estimate here, the correlation and
double-integral spot-checks in ``unlink`` and ``cov --mc`` all read its
output.  Draws come in a fixed order from one ``numpy.random.Generator``
with the PCG64 bit generator.  Each block of draws is evaluated by
``evaluate_float`` for all the polynomials at once, from one table of
the powers they use; the powers are float64 products, not ``pow``
calls.  So for a fixed (seed, samples) pair the values are
bit-reproducible, and given the draws they do not depend on which libm
or SIMD ``pow`` the machine has.  Sums over the samples (means, standard
deviations) run in numpy's summation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .polyalg import Polynomial, evaluate_float

__all__ = [
    "McEstimate",
    "covariance",
    "expectation",
    "gaussian_moment",
    "gaussian_sample_chunks",
    "mc_estimate",
    "partial_expectation",
    "sample_values",
]

# rows per block of draws: bounds the draw buffer, not the values drawn
_CHUNK = 1 << 16


@functools.cache
def _moment(order: int) -> int:
    """(order-1)!! for even orders, 0 for odd; order must be nonnegative."""
    if order % 2:
        return 0
    moment = 1
    for k in range(1, order, 2):
        moment *= k
    return moment


def gaussian_moment(order: int) -> Fraction:
    """E[Z^order] for Z standard normal, exact: (order-1)!! for even orders, 0 for odd."""
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    return Fraction(_moment(order))


def _scaled_terms(p: Polynomial) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(D, [(e, D*c)]): p's terms over the lcm D of its denominators."""
    scale = math.lcm(*(c.denominator for c in p.terms.values()))
    return scale, [(e, c.numerator * (scale // c.denominator)) for e, c in p.terms.items()]


def expectation(p: Polynomial) -> Fraction:
    """Exact E[p(X)] for X ~ N(0, I)."""
    scale, terms = _scaled_terms(p)
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
    u_scale, u_terms = _scaled_terms(u)
    v_scale, v_terms = _scaled_terms(v)
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
                factor *= gaussian_moment(k)
            kept[i] = 0
        if dead:
            continue
        key = tuple(kept)
        out[key] = out.get(key, Fraction(0)) + factor
    return Polynomial(p.arity, out)


def gaussian_sample_chunks(arity: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Yield (m, arity) blocks of i.i.d. standard normal draws.

    One PCG64 stream, fixed chunk size, fixed order: the concatenated
    output is a pure function of (seed, samples).
    """
    rng = np.random.default_rng(seed)
    remaining = samples
    while remaining > 0:
        m = min(_CHUNK, remaining)
        yield rng.standard_normal((m, arity))
        remaining -= m


def sample_values(polys: Sequence[Polynomial], samples: int, seed: int) -> np.ndarray:
    """Values of each polynomial at ``samples`` shared standard Gaussian draws.

    Returns a (len(polys), samples) array whose row i holds polys[i] at
    the draws, in draw order.  The polynomials must share an arity of at
    least one.  Each block of draws is evaluated for all of them at once,
    so they share one table of powers per block, and only one block is
    held at a time.  Values that overflow float64 come back as inf or nan
    without a warning; each caller decides what a non-finite value means.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    arity = polys[0].arity
    for p in polys[1:]:
        if p.arity != arity:
            raise ValueError(f"arity mismatch: {arity} != {p.arity}")
    if arity < 1:
        raise ValueError("sampling needs at least one coordinate")
    values = np.empty((len(polys), samples))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for block in gaussian_sample_chunks(arity, samples, seed):
            m = block.shape[0]
            values[:, done : done + m] = evaluate_float(polys, block)
            done += m
            # drop this block before the generator draws the next one
            del block
    return values


@dataclass(frozen=True)
class McEstimate:
    mean: float
    standard_error: float
    samples: int
    seed: int

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.standard_error,
            "samples": self.samples,
            "seed": self.seed,
        }


def mc_estimate(expr, samples: int, seed: int) -> McEstimate:
    """Monte Carlo mean and standard error of p(X) or of u(X)*v(X).

    ``expr`` is a Polynomial, or a pair (u, v) whose pointwise product is
    averaged.  Raises ``ValueError`` when the mean or the standard error
    is not a finite float (the sampled values or their squares overflow).
    """
    if isinstance(expr, Polynomial):
        polys = (expr,)
    else:
        u, v = expr
        polys = (u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        values = sample_values(polys, samples, seed).prod(axis=0)
        mean = float(values.sum()) / samples
        sum_squares = float((values * values).sum())
    variance = max(sum_squares - samples * mean * mean, 0.0) / (samples - 1)
    standard_error = (variance / samples) ** 0.5
    if not (math.isfinite(mean) and math.isfinite(standard_error)):
        raise ValueError(
            f"Monte Carlo estimate is not finite (mean {mean}, stderr {standard_error})"
        )
    return McEstimate(mean, standard_error, samples, seed)
