"""Unlinking pipeline for pairs of symmetric quasi-convex polynomials.

Two polynomials are *unlinked* when a single orthogonal change of
variables makes them depend on disjoint sets of coordinates.  The
pipeline decides this for a pair (u, v) of symmetric quasi-convex
polynomials over a standard Gaussian vector:

1. normalize so both vanish at the origin (subtracting the value at 0
   changes neither symmetry, quasi-convexity, nor covariance);
2. check symmetry exactly and run the quasi-convexity falsifier, both
   hard hypotheses;
3. compute the exact covariance; a nonzero value already rules the pair
   out;
4. compute the concordance order r: with I_u the invariance subspace of
   u, r = dim(I_u complement) - dim(I_u complement intersected with
   I_v).  The count is symmetric in u and v and is computed both ways as
   a consistency check;
5. if r = 0, assemble an orthonormal basis adapted to the nested chain
   (overlap) < (I_u complement) < (I_u complement + I_v complement) and
   certify exactly that each polynomial, composed with it, does not
   depend on the other's coordinates.  Since
   d/dy_j (p o W) = (D_{w_j} p) o W for any invertible W, p o W is free
   of y_j exactly when the directional derivative of p along column w_j
   is the zero polynomial; the check runs on the exactly orthogonal
   integer columns behind the float transform, so it involves no
   rounding and no tolerance, and scaling p or w_j does not change it.

A result of r > 0 with zero covariance and unfalsified hypotheses is
reported as a contradiction witness rather than an error: in practice it
means quasi-convexity of an input was assumed but does not actually
hold, and such inputs are worth surfacing.

The module also carries the spot-checks used to exercise the identities
behind the decision: two Monte Carlo checks, of sublevel-set correlation
(which must be nonnegative for symmetric convex sets, by the Gaussian
correlation inequality) and of the double-integral identity for the
covariance of a pair, and an exact check of divergence along a ray.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InvariantViolation
from .exactla import Subspace, orthogonal_complement, orthonormalize_nested, subspace_sum
from .gaussmeasure import covariance, sample_values
from .polyalg import Polynomial, evaluate, is_symmetric, partial_derivative, restrict_line
from .structure import CASE_A, QcVerdict, classify_ray, invariance_subspace, qc_falsify

__all__ = [
    "ConcordanceReport",
    "CorrelationCheck",
    "GridSpec",
    "HypothesisFalsified",
    "HypothesisReport",
    "IntegralCheck",
    "InvariantViolation",
    "OrthogonalTransform",
    "UnlinkConfig",
    "UnlinkResult",
    "VERDICT_CONTRADICTION",
    "VERDICT_HYPOTHESIS_FAILED",
    "VERDICT_UNLINKED",
    "build_transform",
    "concordance",
    "correlation_spotcheck",
    "covariance_integral_check",
    "divergence_check",
    "normalize_at_origin",
    "unlink_decision",
    "verify_unlinked",
]

VERDICT_UNLINKED = "unlinked"
VERDICT_HYPOTHESIS_FAILED = "hypothesis_failed"
VERDICT_CONTRADICTION = "theorem_contradiction_witness"

# largest entry of |Q'Q - I| accepted for the float transform
TOL_ORTHO = 1e-10


class HypothesisFalsified(Exception):
    """A hard hypothesis (symmetry or quasi-convexity) fails for an input.

    ``which`` names the failing input ("u" or "v"), ``kind`` the failed
    hypothesis, and ``witness`` a JSON-ready certificate.
    """

    def __init__(self, which: str, kind: str, witness: dict):
        super().__init__(f"{kind} falsified for input {which}")
        self.which = which
        self.kind = kind
        self.witness = witness


def normalize_at_origin(p: Polynomial) -> Polynomial:
    """Subtract the constant term so the polynomial vanishes at 0."""
    c = p.constant_term()
    return p if c == 0 else p - Polynomial.constant(p.arity, c)


@dataclass(frozen=True)
class ConcordanceReport:
    """Exact dimension bookkeeping for a polynomial pair.

    ``overlap`` is (I_u complement) intersected with I_v; ``perp_sum`` is
    the sum of the two complements.  The counts satisfy
    r = dim(inv_u_perp) - t and r + t + m = dim(perp_sum).
    """

    n: int
    r: int
    t: int
    m: int
    inv_u: Subspace
    inv_v: Subspace
    inv_u_perp: Subspace
    overlap: Subspace
    perp_sum: Subspace

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "t": self.t,
            "m": self.m,
            "dim_inv_u": self.inv_u.dimension,
            "dim_inv_v": self.inv_v.dimension,
            "dim_inv_u_perp": self.inv_u_perp.dimension,
            "dim_overlap": self.overlap.dimension,
            "dim_perp_sum": self.perp_sum.dimension,
            "bases": {
                "inv_u": self.inv_u.to_json(),
                "inv_v": self.inv_v.to_json(),
                "inv_u_perp": self.inv_u_perp.to_json(),
                "overlap": self.overlap.to_json(),
                "perp_sum": self.perp_sum.to_json(),
            },
        }


def concordance(u: Polynomial, v: Polynomial) -> ConcordanceReport:
    """Exact concordance order r and the bases behind it.

    Both inputs must vanish at the origin (normalize first).  The order
    is computed from each side and must agree; a mismatch would be a bug
    in the exact linear algebra.
    """
    if u.arity != v.arity:
        raise ValueError(f"arity mismatch: {u.arity} != {v.arity}")
    inv_u = invariance_subspace(u)
    inv_v = invariance_subspace(v)
    inv_u_perp = orthogonal_complement(inv_u)
    inv_v_perp = orthogonal_complement(inv_v)
    # A^perp intersected with B is (A + B^perp)^perp, from complements already in hand
    overlap = orthogonal_complement(subspace_sum(inv_u, inv_v_perp))
    t = overlap.dimension
    r = inv_u_perp.dimension - t
    other_overlap = orthogonal_complement(subspace_sum(inv_v, inv_u_perp))
    r_other = inv_v_perp.dimension - other_overlap.dimension
    if r != r_other:
        raise InvariantViolation(
            f"concordance order disagrees between sides: {r} vs {r_other}"
        )
    perp_sum = subspace_sum(inv_u_perp, inv_v_perp)
    m = perp_sum.dimension - r - t
    return ConcordanceReport(
        n=u.arity,
        r=r,
        t=t,
        m=m,
        inv_u=inv_u,
        inv_v=inv_v,
        inv_u_perp=inv_u_perp,
        overlap=overlap,
        perp_sum=perp_sum,
    )


@dataclass(frozen=True)
class OrthogonalTransform:
    """Orthonormal matrix Q (columns are the new directions) plus the split.

    ``columns`` holds the exactly orthogonal integer vectors w_1..w_n
    that the columns of ``matrix`` normalize, in the same order.
    Blocks are 1-based variable numbers of the new coordinates y:
    ``u_block`` = 1..r+t carries u, ``v_block`` = {1..r} and
    r+t+1..r+t+m carries v, ``shared_free`` = r+t+m+1..n touches
    neither.  Columns r+1..r+t span the overlap subspace and columns
    1..r+t span the complement of u's invariance subspace.
    """

    matrix: np.ndarray
    columns: tuple[tuple[int, ...], ...]
    u_block: tuple[int, ...]
    v_block: tuple[int, ...]
    shared_free: tuple[int, ...]
    r: int
    t: int
    m: int

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def orthogonality_error(self) -> float:
        q = self.matrix
        return float(np.max(np.abs(q.T @ q - np.eye(q.shape[0])), initial=0.0))


def build_transform(report: ConcordanceReport) -> OrthogonalTransform:
    """Assemble the adapted orthonormal basis from a concordance report.

    The nested chain overlap < inv_u_perp < perp_sum < R^n is
    orthonormalized so each prefix spans its chain element, then columns
    are reordered so positions 1..r hold the part of inv_u_perp outside
    the overlap, r+1..r+t the overlap, r+t+1..r+t+m the completion of
    perp_sum, and the remainder spans the rest of R^n.
    """
    r, t, m, n = report.r, report.t, report.m, report.n
    if not (report.inv_u_perp.contains(report.overlap) and report.perp_sum.contains(report.inv_u_perp)):
        raise InvariantViolation("concordance bases are not nested")
    chain = []
    for space in (report.overlap, report.inv_u_perp, report.perp_sum):
        if space.dimension > (chain[-1].dimension if chain else 0):
            chain.append(space)
    q, columns = orthonormalize_nested(chain, n)
    order = list(range(t, t + r)) + list(range(t)) + list(range(r + t, n))
    transform = OrthogonalTransform(
        matrix=q[:, order],
        columns=tuple(columns[j] for j in order),
        u_block=tuple(range(1, r + t + 1)),
        v_block=tuple(range(1, r + 1)) + tuple(range(r + t + 1, r + t + m + 1)),
        shared_free=tuple(range(r + t + m + 1, n + 1)),
        r=r,
        t=t,
        m=m,
    )
    if transform.orthogonality_error() > TOL_ORTHO:
        raise InvariantViolation("assembled transform is not orthonormal within tolerance")
    return transform


def verify_unlinked(p: Polynomial, transform: OrthogonalTransform, forbidden) -> bool:
    """Exact certificate that p composed with the transform avoids ``forbidden``.

    ``forbidden`` holds 1-based new-coordinate numbers.  True iff for
    each forbidden j the directional derivative sum_i w_ji * dp/dx_i of p
    along the exact column w_j is the zero polynomial, i.e. iff p o Q is
    a function of the other coordinates only.
    """
    banned = sorted({i - 1 for i in forbidden if 1 <= i <= p.arity})
    if not banned:
        return True
    partials = [partial_derivative(p, i).terms for i in range(1, p.arity + 1)]
    for j in banned:
        derivative: dict = {}
        for weight, partial in zip(transform.columns[j], partials):
            if weight:
                for exponent, coeff in partial.items():
                    derivative[exponent] = derivative.get(exponent, 0) + weight * coeff
        if any(derivative.values()):
            return False
    return True


def _asymmetry_witness(p: Polynomial) -> dict:
    """A point where p(x) != p(-x), found deterministically."""
    odd = Polynomial(p.arity, {e: c for e, c in p.terms.items() if sum(e) % 2})
    rng = random.Random(0xA5)
    for _ in range(200):
        point = [Fraction(rng.randint(-9, 9)) for _ in range(p.arity)]
        if evaluate(odd, point) != 0:
            mirrored = [-c for c in point]
            return {
                "x": [str(c) for c in point],
                "p_x": str(evaluate(p, point)),
                "p_minus_x": str(evaluate(p, mirrored)),
            }
    raise InvariantViolation("failed to locate an asymmetry witness for an asymmetric input")


@dataclass(frozen=True)
class HypothesisReport:
    symmetry_u: bool
    symmetry_v: bool
    qc_verdict_u: QcVerdict
    qc_verdict_v: QcVerdict
    cov_exact: Fraction

    def to_json(self) -> dict:
        return {
            "symmetry_u": self.symmetry_u,
            "symmetry_v": self.symmetry_v,
            "qc_verdict_u": self.qc_verdict_u.to_json(),
            "qc_verdict_v": self.qc_verdict_v.to_json(),
            "cov_exact": str(self.cov_exact),
        }


@dataclass(frozen=True)
class UnlinkResult:
    verdict: str
    hypothesis: HypothesisReport
    report: ConcordanceReport
    transform: Optional[OrthogonalTransform]

    @property
    def cov_exact(self) -> Fraction:
        return self.hypothesis.cov_exact

    def to_json(self) -> dict:
        """Fixed field order; floats are emitted by the report writer."""
        return {
            "verdict": self.verdict,
            "cov_exact": str(self.cov_exact),
            "r": self.report.r,
            "t": self.report.t,
            "m": self.report.m,
            "transform": self.transform.matrix.tolist() if self.transform else None,
            "u_block": list(self.transform.u_block) if self.transform else None,
            "v_block": list(self.transform.v_block) if self.transform else None,
            "hypothesis": self.hypothesis.to_json(),
        }


@dataclass(frozen=True)
class UnlinkConfig:
    seed: int = 42
    qc_trials: int = 10_000


def unlink_decision(
    u: Polynomial, v: Polynomial, config: UnlinkConfig = UnlinkConfig()
) -> UnlinkResult:
    """Run the full pipeline on a polynomial pair.

    Raises :class:`HypothesisFalsified` when symmetry fails or the
    falsifier finds a quasi-convexity violation.  Otherwise returns a
    result whose verdict is ``unlinked`` (r = 0, zero covariance, exact
    separation certificate), ``hypothesis_failed`` (nonzero exact
    covariance), or ``theorem_contradiction_witness`` (r > 0 with zero
    covariance, which under genuinely quasi-convex inputs cannot happen).
    """
    if u.arity != v.arity:
        raise ValueError(f"arity mismatch: {u.arity} != {v.arity}")
    u0 = normalize_at_origin(u)
    v0 = normalize_at_origin(v)

    symmetry_u = is_symmetric(u0)
    symmetry_v = is_symmetric(v0)
    if not symmetry_u:
        raise HypothesisFalsified("u", "symmetry", _asymmetry_witness(u0))
    if not symmetry_v:
        raise HypothesisFalsified("v", "symmetry", _asymmetry_witness(v0))

    qc_u = qc_falsify(u0, config.qc_trials, config.seed)
    if qc_u.falsified:
        raise HypothesisFalsified("u", "quasi-convexity", qc_u.to_json())
    qc_v = qc_falsify(v0, config.qc_trials, config.seed)
    if qc_v.falsified:
        raise HypothesisFalsified("v", "quasi-convexity", qc_v.to_json())

    cov = covariance(u0, v0)
    hypothesis = HypothesisReport(symmetry_u, symmetry_v, qc_u, qc_v, cov)
    report = concordance(u0, v0)

    if cov != 0:
        return UnlinkResult(VERDICT_HYPOTHESIS_FAILED, hypothesis, report, None)

    transform = build_transform(report)
    coordinates = set(range(1, report.n + 1))
    for name, p, block in (("u", u0, transform.u_block), ("v", v0, transform.v_block)):
        if not verify_unlinked(p, transform, coordinates - set(block)):
            raise InvariantViolation(f"{name} depends on a coordinate outside its block")
    verdict = VERDICT_UNLINKED if report.r == 0 else VERDICT_CONTRADICTION
    return UnlinkResult(verdict, hypothesis, report, transform)


# ---------------------------------------------------------------------------
# Numerical spot-checks
# ---------------------------------------------------------------------------


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
class GridSpec:
    """Quadrature grid for the covariance integral: points per threshold axis.

    Grid nodes follow the empirical quantiles of the sampled values and
    are truncated at the ``quantile_cap`` quantile, so the grid adapts to
    where the sublevel probabilities actually move.
    """

    points: int = 80
    quantile_cap: float = 1.0 - 1e-4

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("the grid needs at least 2 points per axis")
        if not 0.0 < self.quantile_cap <= 1.0:
            raise ValueError(f"quantile_cap must be in (0, 1], got {self.quantile_cap}")


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


def _axis_bins(values: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
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
    if not math.isfinite(float(ordered[-1])):
        raise ValueError("integral check is not finite: float64 overflow in the sampled values")
    # quantile nodes track steep CDF regions (e.g. the sqrt blow-up of a
    # squared Gaussian near 0); evenly spaced values keep the decaying
    # tail finely resolved, where pure quantile spacing leaves one huge
    # interval and the trapezoid rule overshoots
    # (linspace ends exactly at its stop, so the last quantile is the cap)
    quantiles = np.quantile(ordered, np.linspace(0.0, grid.quantile_cap, grid.points))
    cap = float(quantiles[-1])
    nodes = np.concatenate(([0.0], quantiles, np.linspace(0.0, cap, grid.points)))
    nodes = np.unique(np.clip(nodes, 0.0, cap))
    # the values at most nodes[j] are those in bins 0..j
    at_most = np.searchsorted(ordered, nodes, side="right")
    per_bin = np.diff(at_most, prepend=0, append=len(values))
    bins = np.empty(len(values), dtype=np.min_scalar_type(len(nodes)))
    bins[order] = np.repeat(np.arange(len(nodes) + 1, dtype=bins.dtype), per_bin)
    return nodes, bins


def covariance_integral_check(
    u_star: Polynomial,
    v_star: Polynomial,
    samples: int,
    grid: GridSpec = GridSpec(),
    seed: int = 42,
) -> IntegralCheck:
    """Check Cov(u*(Y), v*(Y)) against its sublevel-set double integral.

    For nonnegative u*, v* the covariance equals the integral over
    thresholds (k1, k2) of P(both sublevel events) minus the product of
    the marginals.  The integral is estimated by a trapezoid rule on an
    adaptive quantile grid, with all probabilities read off one shared
    sample set: one sort per axis gives that axis's grid and each
    sample's grid cell.  Passes when the estimate is within
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
    g1, b1 = _axis_bins(su, grid)
    g2, b2 = _axis_bins(sv, grid)

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

        centered = (su - su.mean()) * (sv - sv.mean())
        stderr = float(centered.std(ddof=1) / samples**0.5)
    try:
        exact_float = float(exact)
    except OverflowError:
        exact_float = math.inf
    quantities = {"exact covariance": exact_float, "integral estimate": estimate, "stderr": stderr}
    overflowed = ", ".join(name for name, value in quantities.items() if not math.isfinite(value))
    if overflowed:
        raise ValueError(f"integral check is not finite: float64 overflow in {overflowed}")
    tolerance = max(0.05 * abs(exact_float), 5.0 * stderr)
    passed = abs(estimate - exact_float) <= tolerance
    return IntegralCheck(exact, estimate, stderr, passed, samples, seed)


def divergence_check(u_star: Polynomial, y_star: Sequence[float]) -> bool:
    """Whether t -> u*(t * y) eventually increases to +infinity, decided exactly.

    The direction must be nonzero and of length equal to the arity;
    float entries are read as the binary rationals they denote.  True
    iff the exact restriction to the ray is in case A of ``classify_ray``,
    i.e. has positive leading coefficient, whatever the coefficients' scale.
    """
    if len(y_star) != u_star.arity:
        raise ValueError("direction length must equal the arity")
    if not any(y_star):
        raise ValueError("direction must be nonzero")
    ray = restrict_line(u_star, (0,) * u_star.arity, y_star)
    return CASE_A in classify_ray(ray).cases
