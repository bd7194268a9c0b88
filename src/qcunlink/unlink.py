"""Unlinking pipeline for pairs of symmetric quasi-convex polynomials.

Two polynomials are *unlinked* when a single orthogonal change of
variables makes them depend on disjoint sets of coordinates.  The
pipeline decides this for a pair (u, v) of symmetric quasi-convex
polynomials over a standard Gaussian vector:

1. check symmetry exactly and run the quasi-convexity falsifier, both
   hard hypotheses;
2. compute the exact covariance; a nonzero value already rules the pair
   out;
3. compute the concordance order r: with I_u the invariance subspace of
   u, r = dim(I_u complement) - dim(I_u complement intersected with
   I_v).  The count is symmetric in u and v and is computed both ways as
   a consistency check;
4. if r = 0, assemble an orthonormal basis adapted to the nested chain
   (overlap) < (I_u complement) < (I_u complement + I_v complement) and
   certify exactly that each polynomial, composed with it, does not
   depend on the other's coordinates.  Since
   d/dy_j (p o W) = (D_{w_j} p) o W for any invertible W, p o W is free
   of y_j exactly when the directional derivative of p along column w_j
   is the zero polynomial, that is when M w_j = 0 for the integer
   derivative matrix M of p, the matrix whose kernel is I_p.  The check
   runs over ``int`` on the exactly orthogonal integer columns that the
   printed float transform normalizes, so it involves no rounding and no
   tolerance, and scaling p or w_j does not change it.

A result of r > 0 with zero covariance and unfalsified hypotheses is
reported as a contradiction witness rather than an error: in practice it
means quasi-convexity of an input was assumed but does not actually
hold, and such inputs are worth surfacing.

The module also carries an exact check of divergence along a ray; the
Monte Carlo spot-checks are in ``sampling``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from .errors import InvariantViolation
from .exactla import Subspace, kernel, orthonormalize_nested, rank, subspace_sum
from .gaussmeasure import covariance
from .polyalg import Polynomial, derivative_matrix, evaluate, is_symmetric, restrict_ray
from .structure import CASE_A, QcVerdict, classify_ray, invariance_and_complement, qc_falsify

__all__ = [
    "ConcordanceReport",
    "HypothesisFalsified",
    "InvariantViolation",
    "OrthogonalTransform",
    "UnlinkResult",
    "VERDICT_CONTRADICTION",
    "VERDICT_HYPOTHESIS_FAILED",
    "VERDICT_UNLINKED",
    "build_transform",
    "concordance",
    "divergence_check",
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
    hypothesis, and ``witness`` a JSON-ready certificate.  Its values are
    values of the input as given, constant term included, so a
    quasi-convexity witness is the one ``qc_falsify`` reports for that
    input on its own.
    """

    def __init__(self, which: str, kind: str, witness: dict):
        super().__init__(f"{kind} falsified for input {which}")
        self.which = which
        self.kind = kind
        self.witness = witness


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

    The order is computed from each side and must agree; a mismatch
    would be a bug in the exact linear algebra.
    """
    if u.arity != v.arity:
        raise ValueError(f"arity mismatch: {u.arity} != {v.arity}")
    n = u.arity
    inv_u, inv_u_perp = invariance_and_complement(u)
    inv_v, inv_v_perp = invariance_and_complement(v)
    # A^perp intersected with B is (A + B^perp)^perp: the vectors orthogonal
    # to the rows of A and of B^perp
    overlap = kernel(inv_u.rows + inv_v_perp.rows, n)
    t = overlap.dimension
    r = inv_u_perp.dimension - t
    # the same count from v's side: (I_v complement) intersected with I_u is
    # the kernel of the rows of I_v and of I_u complement, so only its
    # dimension n - rank is needed
    r_other = inv_v_perp.dimension - (n - rank(inv_v.rows + inv_u_perp.rows, n))
    if r != r_other:
        raise InvariantViolation(
            f"concordance order disagrees between sides: {r} vs {r_other}"
        )
    perp_sum = subspace_sum(inv_u_perp, inv_v_perp)
    m = perp_sum.dimension - r - t
    return ConcordanceReport(
        n=n,
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
    """Exactly orthogonal integer columns w_1..w_n (the new directions) plus the split.

    ``matrix`` holds the rows of the orthonormal float matrix Q whose
    column j is w_j / |w_j|, rendered from the columns on first use.
    Blocks are 1-based variable numbers of the new coordinates y.  With r, t and m
    of the ``ConcordanceReport`` it is built from, ``u_block`` = 1..r+t
    carries u, ``v_block`` = {1..r} and r+t+1..r+t+m carries v, and
    r+t+m+1..n carry neither.  Columns r+1..r+t span the overlap
    subspace and columns 1..r+t span the complement of u's invariance
    subspace.
    """

    columns: tuple[tuple[int, ...], ...]
    u_block: tuple[int, ...]
    v_block: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.columns)

    @cached_property
    def matrix(self) -> tuple[tuple[float, ...], ...]:
        """The rows of the n-by-n float matrix Q, with Q'Q = I to within rounding."""
        units = []
        for w in self.columns:
            # a power of two that brings the entries below 2^500 before they
            # meet floats; 1, so exactly float(x) / norm, for smaller columns
            scale = 1 << max(0, max(map(abs, w)).bit_length() - 500)
            norm = math.sqrt(sum(x * x for x in w) / (scale * scale))
            units.append([x / scale / norm for x in w])
        return tuple(zip(*units))

    def orthogonality_error(self) -> float:
        """Largest entry of |Q'Q - I|, in float arithmetic."""
        units = list(zip(*self.matrix))
        return max(
            (
                abs(sum(a * b for a, b in zip(p, q)) - (1.0 if i == j else 0.0))
                for i, p in enumerate(units)
                for j, q in enumerate(units[: i + 1])
            ),
            default=0.0,
        )


def build_transform(report: ConcordanceReport) -> OrthogonalTransform:
    """Assemble the adapted orthonormal basis from a concordance report.

    The nested chain overlap < inv_u_perp < perp_sum < R^n is
    orthonormalized so each prefix spans its chain element; the exact
    Gram-Schmidt there certifies the nesting, and a report whose chain is
    not nested raises ``InvariantViolation``.  The integer columns are
    then reordered so positions 1..r hold the part of inv_u_perp outside
    the overlap, r+1..r+t the overlap, r+t+1..r+t+m the completion of
    perp_sum, and the remainder spans the rest of R^n.
    """
    r, t, m, n = report.r, report.t, report.m, report.n
    try:
        columns = orthonormalize_nested((report.overlap, report.inv_u_perp, report.perp_sum), n)
    except ValueError as exc:
        raise InvariantViolation(f"concordance bases: {exc}") from exc
    order = list(range(t, t + r)) + list(range(t)) + list(range(r + t, n))
    transform = OrthogonalTransform(
        columns=tuple(columns[j] for j in order),
        u_block=tuple(range(1, r + t + 1)),
        v_block=tuple(range(1, r + 1)) + tuple(range(r + t + 1, r + t + m + 1)),
    )
    if transform.orthogonality_error() > TOL_ORTHO:
        raise InvariantViolation("assembled transform is not orthonormal within tolerance")
    return transform


def verify_unlinked(p: Polynomial, transform: OrthogonalTransform, forbidden) -> bool:
    """Exact certificate that p composed with the transform avoids ``forbidden``.

    ``forbidden`` holds 1-based new-coordinate numbers, each in 1..n for
    the arity n of p, which must also be the transform's dimension.  True
    iff for each forbidden j the directional derivative of p along the
    exact column w_j is the zero polynomial, i.e. iff M w_j = 0 for the
    integer derivative matrix M of p: then p o Q is a function of the
    other coordinates only.
    """
    n = p.arity
    if transform.n != n:
        raise ValueError(f"transform dimension {transform.n} != arity {n}")
    banned = sorted(set(forbidden))
    if not banned:
        return True
    if not 1 <= banned[0] <= banned[-1] <= n:
        raise ValueError(f"forbidden coordinates {banned} outside 1..{n}")
    matrix = derivative_matrix(p)
    for j in banned:
        column = transform.columns[j - 1]
        if len(column) != n:
            raise ValueError(f"column {j} has length {len(column)}, expected {n}")
        if any(sum(map(mul, row, column)) for row in matrix):
            return False
    return True


def _asymmetry_witness(p: Polynomial) -> dict:
    """A point where p(x) != p(-x), found deterministically.

    p(x) - p(-x) is twice the odd part of p, a nonzero polynomial of some
    degree k.  Integer coordinates are drawn from [-b, b] with b >= k, so
    by Schwartz-Zippel one draw is a root with probability at most
    k / (2b + 1) < 1/2.
    """
    odd = Polynomial._from_terms(p.arity, {e: c for e, c in p.terms.items() if sum(e) % 2})
    bound = max(9, odd.total_degree())
    rng = random.Random(0xA5)
    for _ in range(200):
        point = [Fraction(rng.randint(-bound, bound)) for _ in range(p.arity)]
        if evaluate(odd, point) != 0:
            mirrored = [-c for c in point]
            return {
                "x": [str(c) for c in point],
                "p_x": str(evaluate(p, point)),
                "p_minus_x": str(evaluate(p, mirrored)),
            }
    raise InvariantViolation("failed to locate an asymmetry witness for an asymmetric input")


@dataclass(frozen=True)
class UnlinkResult:
    """The verdict on a symmetric pair, with its falsifier verdicts and exact covariance."""

    verdict: str
    qc_verdict_u: QcVerdict
    qc_verdict_v: QcVerdict
    cov_exact: Fraction
    report: ConcordanceReport
    transform: Optional[OrthogonalTransform]

    def to_json(self) -> dict:
        """Fixed field order; floats are emitted by the report writer."""
        return {
            "verdict": self.verdict,
            "cov_exact": str(self.cov_exact),
            "r": self.report.r,
            "t": self.report.t,
            "m": self.report.m,
            "transform": self.transform.matrix if self.transform else None,
            "u_block": list(self.transform.u_block) if self.transform else None,
            "v_block": list(self.transform.v_block) if self.transform else None,
            "hypothesis": {
                "symmetry_u": True,
                "symmetry_v": True,
                "qc_verdict_u": self.qc_verdict_u.to_json(),
                "qc_verdict_v": self.qc_verdict_v.to_json(),
                "cov_exact": str(self.cov_exact),
            },
        }


def unlink_decision(
    u: Polynomial, v: Polynomial, *, seed: int = 42, trials: int = 10_000
) -> UnlinkResult:
    """Run the full pipeline on a polynomial pair.

    ``seed`` and ``trials`` are those of each quasi-convexity falsifier.
    Raises :class:`HypothesisFalsified` when symmetry fails or the
    falsifier finds a quasi-convexity violation.  Otherwise returns a
    result whose verdict is ``unlinked`` (r = 0, zero covariance, exact
    separation certificate), ``hypothesis_failed`` (nonzero exact
    covariance), or ``theorem_contradiction_witness`` (r > 0 with zero
    covariance, which under genuinely quasi-convex inputs cannot happen).
    A nonzero covariance at r = 0 cannot happen for any input, so it
    raises :class:`InvariantViolation`.
    """
    if u.arity != v.arity:
        raise ValueError(f"arity mismatch: {u.arity} != {v.arity}")

    if not is_symmetric(u):
        raise HypothesisFalsified("u", "symmetry", _asymmetry_witness(u))
    if not is_symmetric(v):
        raise HypothesisFalsified("v", "symmetry", _asymmetry_witness(v))

    qc_u = qc_falsify(u, trials, seed)
    if qc_u.falsified:
        raise HypothesisFalsified("u", "quasi-convexity", qc_u.to_json())
    qc_v = qc_falsify(v, trials, seed)
    if qc_v.falsified:
        raise HypothesisFalsified("v", "quasi-convexity", qc_v.to_json())

    cov = covariance(u, v)
    report = concordance(u, v)

    if cov != 0:
        # r = 0 puts I_v^perp inside I_u, so u and v are functions of the
        # projections onto two orthogonal subspaces, which are independent
        if report.r == 0:
            raise InvariantViolation("nonzero exact covariance with r = 0")
        return UnlinkResult(VERDICT_HYPOTHESIS_FAILED, qc_u, qc_v, cov, report, None)

    transform = build_transform(report)
    coordinates = set(range(1, report.n + 1))
    for name, p, block in (("u", u, transform.u_block), ("v", v, transform.v_block)):
        if not verify_unlinked(p, transform, coordinates - set(block)):
            raise InvariantViolation(f"{name} depends on a coordinate outside its block")
    verdict = VERDICT_UNLINKED if report.r == 0 else VERDICT_CONTRADICTION
    return UnlinkResult(verdict, qc_u, qc_v, cov, report, transform)


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
    return CASE_A in classify_ray(restrict_ray(u_star, y_star)).cases
