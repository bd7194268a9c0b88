"""Decision toolkit for unlinking symmetric quasi-convex polynomials.

Given two polynomials with rational coefficients on R^n, the package
computes exact Gaussian covariances, invariance subspaces, and the
concordance order, and, when the hypotheses hold, constructs and
verifies the orthogonal change of variables under which the two
polynomials depend on disjoint sets of coordinates.
"""

from .exactla import Subspace, kernel, orthonormalize_nested, psd_violation, subspace_sum
from .gaussmeasure import covariance, expectation, partial_expectation
from .polyalg import (
    Polynomial,
    PolynomialSyntaxError,
    evaluate,
    is_symmetric,
    parse_expression,
    restrict_ray,
    to_expression,
)
from .structure import (
    QcVerdict,
    QcWitness,
    RayClass,
    classify_ray,
    invariance_subspace,
    qc_falsify,
    translation_invariant,
)
from .unlink import (
    ConcordanceReport,
    HypothesisFalsified,
    InvariantViolation,
    OrthogonalTransform,
    UnlinkResult,
    build_transform,
    concordance,
    divergence_check,
    unlink_decision,
    verify_unlinked,
)

__version__ = "0.1.0"

# names of ``sampling``, imported on first use so that the package loads without numpy
_SAMPLING = {
    "McEstimate", "correlation_spotcheck", "covariance_integral_check",
    "evaluate_float", "mc_estimate", "sample_values",
}


def __getattr__(name: str):
    if name in _SAMPLING:
        from . import sampling

        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
