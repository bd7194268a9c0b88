"""Monte Carlo estimates: the one module of the package that imports numpy.

It is loaded only where an estimate is asked for (``cov --mc`` and the
library spot-checks), so the exact layers and commands run without it.

Every estimate reads one thing: the values of a few polynomials at
shared draws of a standard Gaussian vector.  ``sample_values`` is the
one loop that produces them; the mean estimate, the two spot-checks and
``cov --mc`` all read its output.  ``_centered_products`` is the one
variance and covariance estimator over it (``sample_covariance`` adds
its standard error), and ``_require_finite`` the one check that rejects
a result that overflowed float64.  Draws come in a fixed order from
one ``numpy.random.Generator`` with the PCG64 bit generator, in blocks
of ``_CHUNK`` rows that concatenate to the one-shot draw
``default_rng(seed).standard_normal((samples, arity))``.  Each
block is evaluated by ``evaluate_float`` for all the polynomials at
once, from one table of the powers they use; the powers are float64
products, not ``pow`` calls.  So for a fixed (seed, samples) pair the
values are bit-reproducible, and given the draws they do not depend on
which libm or SIMD ``pow`` the machine has.  Sums over the samples
(means, standard deviations) run in numpy's summation order.

The two spot-checks exercise identities behind the decision: the
Gaussian correlation inequality for symmetric convex sublevel sets, and
the double-integral identity for the covariance of a pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gaussmeasure import covariance
from .polyalg import Polynomial

__all__ = [
    "CorrelationCheck",
    "IntegralCheck",
    "McEstimate",
    "correlation_spotcheck",
    "covariance_integral_check",
    "evaluate_float",
    "mc_estimate",
    "sample_covariance",
    "sample_values",
]

# rows per block of draws: bounds the draw buffer, not the values drawn
_CHUNK = 1 << 16

# quadrature grid of the covariance integral check: quantile nodes per
# threshold axis (at least 2, so that the last one is the cap), and the
# quantile in (0, 1] that the grid is cut at
GRID_POINTS = 80
GRID_CAP = 1.0 - 1e-4


def evaluate_float(polys: Sequence[Polynomial], points: np.ndarray) -> np.ndarray:
    """Values in float64 of k polynomials of one arity n at the rows of an (m, n) array.

    Returns a (k, m) array whose row j holds polys[j] at the points.  All
    polynomials read one power table (see ``_power_table``), so a power
    shared between them is computed once.

    Each term is formed as float(c) * x_i1^k1 * x_i2^k2 * ... in canonical
    term order and added in that order to an accumulator that starts at
    0.0; every power is a product of float64 squares, with no ``pow``
    call.  So a value is a function of the input bits of its point
    alone: equal polynomials give bit-identical values on identical
    points, whatever the other points of the batch and whichever libm
    the machine has.
    """
    if not polys:
        raise ValueError("no polynomial to evaluate")
    arity = polys[0].arity
    for q in polys[1:]:
        if q.arity != arity:
            raise ValueError(f"arity mismatch: {arity} != {q.arity}")
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != arity:
        raise ValueError(f"expected points of arity {arity}, got shape {x.shape}")
    return _evaluate_rows(polys, x)


# Error of the power-table evaluation.
#
# Write u = 2**-53, the unit roundoff, and gamma_k = k*u / (1 - k*u) (Higham's notation).
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


def sample_values(polys: Sequence[Polynomial], samples: int, seed: int) -> np.ndarray:
    """Values of each polynomial at ``samples`` shared standard Gaussian draws.

    Returns a (len(polys), samples) array whose row i holds polys[i] at
    the draws, in draw order.  There must be at least one polynomial, and
    all must share an arity of at least one; ``evaluate_float`` rejects a
    mismatch at the first block.
    Each block of draws is evaluated for all of them at once, so they
    share one table of powers per block, and only one block is held at a
    time.  Values that overflow float64 come back as inf or nan
    without a warning; each caller decides what a non-finite value means.
    """
    if not polys:
        raise ValueError("no polynomial to evaluate")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    arity = polys[0].arity
    if arity < 1:
        raise ValueError("sampling needs at least one coordinate")
    rng = np.random.default_rng(seed)
    values = np.empty((len(polys), samples))
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, samples, _CHUNK):
            m = min(_CHUNK, samples - done)
            values[:, done : done + m] = evaluate_float(polys, rng.standard_normal((m, arity)))
    return values


def _require_finite(what: str, quantities: dict[str, float]) -> None:
    """Raise ``ValueError`` naming each of the quantities that is not a finite float."""
    overflowed = ", ".join(name for name, value in quantities.items() if not math.isfinite(value))
    if overflowed:
        raise ValueError(f"{what} is not finite: float64 overflow in {overflowed}")


def _centered_products(su: np.ndarray, sv: np.ndarray) -> tuple[np.ndarray, float]:
    """The centered products (su - mean) * (sv - mean) and their sum over n - 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        centered = (su - su.mean()) * (sv - sv.mean())
        return centered, float(centered.sum() / (len(su) - 1))


def sample_covariance(su: np.ndarray, sv: np.ndarray) -> tuple[float, float]:
    """Covariance estimate of paired samples and its standard error.

    The estimate is the mean of the centered products (su - mean) *
    (sv - mean) over n - 1, the standard error their sample standard
    deviation over sqrt(n).  A float64 overflow leaves either one inf or
    nan, without a warning; each caller decides what that means.
    """
    centered, estimate = _centered_products(su, sv)
    with np.errstate(over="ignore", invalid="ignore"):
        return estimate, float(centered.std(ddof=1) / len(su) ** 0.5)


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
    averaged; the variance is the covariance estimate of the values with
    themselves, without the standard error ``sample_covariance`` adds.
    Raises ``ValueError`` when the mean or the standard error is not a
    finite float (the sampled values or their squares overflow).
    """
    if isinstance(expr, Polynomial):
        polys = (expr,)
    else:
        u, v = expr
        polys = (u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        values = sample_values(polys, samples, seed).prod(axis=0)
        mean = float(values.sum()) / samples
    standard_error = (_centered_products(values, values)[1] / samples) ** 0.5
    _require_finite("Monte Carlo estimate", {"mean": mean, "stderr": standard_error})
    return McEstimate(mean, standard_error, samples, seed)


@dataclass(frozen=True)
class CorrelationCheck:
    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float
    passed: bool
    samples: int
    seed: int

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "lhs_stderr": self.lhs_stderr,
            "rhs_stderr": self.rhs_stderr,
            "pass": self.passed,
            "samples": self.samples,
            "seed": self.seed,
        }


def correlation_spotcheck(
    u_star: Polynomial,
    v_star: Polynomial,
    k1: float,
    k2: float,
    samples: int,
    seed: int,
) -> CorrelationCheck:
    """Compare P(both sublevel events) against the product of marginals.

    For symmetric quasi-convex polynomials the sublevel sets are
    symmetric convex sets, so the joint probability must not fall below
    the product; the check passes when lhs >= rhs - 4 * combined stderr.
    All three probabilities are estimated from one shared sample set.
    """
    su, sv = sample_values((u_star, v_star), samples, seed)
    in_a = su <= k1
    in_b = sv <= k2
    pa = float(in_a.mean())
    pb = float(in_b.mean())
    lhs = float((in_a & in_b).mean())
    rhs = pa * pb

    def bernoulli_stderr(prob: float) -> float:
        return (prob * (1.0 - prob) / samples) ** 0.5

    lhs_stderr = bernoulli_stderr(lhs)
    rhs_stderr = ((pb * bernoulli_stderr(pa)) ** 2 + (pa * bernoulli_stderr(pb)) ** 2) ** 0.5
    combined = (lhs_stderr**2 + rhs_stderr**2) ** 0.5
    return CorrelationCheck(
        lhs, rhs, lhs_stderr, rhs_stderr, lhs >= rhs - 4.0 * combined, samples, seed
    )


@dataclass(frozen=True)
class IntegralCheck:
    exact_cov: Fraction
    integral_estimate: float
    stderr: float
    passed: bool
    samples: int
    seed: int

    def to_json(self) -> dict:
        return {
            "exact_cov": str(self.exact_cov),
            "integral_estimate": self.integral_estimate,
            "stderr": self.stderr,
            "pass": self.passed,
            "samples": self.samples,
            "seed": self.seed,
        }


def _axis_bins(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, bins) for one threshold axis, from one sort of the values.

    ``nodes`` is the threshold grid; ``bins[i]`` is the number of nodes
    strictly below ``values[i]``, so ``len(nodes)`` marks a value beyond
    the cap.  Raises ``ValueError`` for a negative or non-finite value.
    """
    order = np.argsort(values)
    ordered = values[order]
    # NaN sorts last and +inf just before it
    if float(ordered[0]) < -1e-12:
        raise ValueError("negative sample value: inputs must be nonnegative polynomials")
    _require_finite("integral check", {"the sampled values": float(ordered[-1])})
    # quantile nodes track steep CDF regions (e.g. the sqrt blow-up of a
    # squared Gaussian near 0); evenly spaced values keep the decaying
    # tail finely resolved, where pure quantile spacing leaves one huge
    # interval and the trapezoid rule overshoots
    # (linspace ends exactly at its stop, so the last quantile is the cap)
    quantiles = np.quantile(ordered, np.linspace(0.0, GRID_CAP, GRID_POINTS))
    cap = float(quantiles[-1])
    nodes = np.concatenate(([0.0], quantiles, np.linspace(0.0, cap, GRID_POINTS)))
    nodes = np.unique(np.clip(nodes, 0.0, cap))
    # the values at most nodes[j] are those in bins 0..j
    at_most = np.searchsorted(ordered, nodes, side="right")
    per_bin = np.diff(at_most, prepend=0, append=len(values))
    bins = np.empty(len(values), dtype=np.min_scalar_type(len(nodes)))
    bins[order] = np.repeat(np.arange(len(nodes) + 1, dtype=bins.dtype), per_bin)
    return nodes, bins


def covariance_integral_check(
    u_star: Polynomial, v_star: Polynomial, samples: int, seed: int = 42
) -> IntegralCheck:
    """Check Cov(u*(Y), v*(Y)) against its sublevel-set double integral.

    For nonnegative u*, v* the covariance equals the integral over
    thresholds (k1, k2) of P(both sublevel events) minus the product of
    the marginals.  The integral is estimated by a trapezoid rule on an
    adaptive grid per threshold axis: ``GRID_POINTS`` empirical quantiles
    of the sampled values up to the ``GRID_CAP`` quantile, merged with as
    many evenly spaced values up to that cap.  All probabilities are read
    off one shared sample set: one sort per axis gives that axis's grid
    and each sample's grid cell.  Passes when the estimate is within
    max(5% of |exact|, 5 * stderr) of the exact covariance, where stderr
    is that of the direct Monte Carlo covariance estimator on the same
    samples (the two estimators target the same quantity).  Raises
    ``ValueError`` for negative or non-finite sampled values, and when
    the exact covariance, the estimate or the stderr is not finite.
    """
    if u_star.arity not in (1, 2):
        raise ValueError("integral check supports arity 1 or 2 only")
    su, sv = sample_values((u_star, v_star), samples, seed)
    exact = covariance(u_star, v_star)
    g1, b1 = _axis_bins(su)
    g2, b2 = _axis_bins(sv)

    # an overflow leaves a non-finite estimate or stderr, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        # joint counts per grid cell; index len(g) collects values beyond the cap
        # (widened first: the bins may be as narrow as uint8)
        flat = b1.astype(np.intp)
        flat *= len(g2) + 1
        flat += b2
        counts = np.bincount(flat, minlength=(len(g1) + 1) * (len(g2) + 1)).reshape(
            len(g1) + 1, len(g2) + 1
        )
        del flat  # not held through the stderr temporaries below
        cumulative = counts.cumsum(axis=0).cumsum(axis=1) / samples
        # the last row and column count every value of the other coordinate
        joint = cumulative[: len(g1), : len(g2)]
        f1 = cumulative[: len(g1), len(g2)]
        f2 = cumulative[len(g1), : len(g2)]
        integrand = joint - np.outer(f1, f2)
        estimate = float(np.trapezoid(np.trapezoid(integrand, x=g2, axis=1), x=g1))
    stderr = sample_covariance(su, sv)[1]
    try:
        exact_float = float(exact)
    except OverflowError:
        exact_float = math.inf
    _require_finite(
        "integral check",
        {"exact covariance": exact_float, "integral estimate": estimate, "stderr": stderr},
    )
    tolerance = max(0.05 * abs(exact_float), 5.0 * stderr)
    passed = abs(estimate - exact_float) <= tolerance
    return IntegralCheck(exact, estimate, stderr, passed, samples, seed)
