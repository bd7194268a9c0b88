"""Decision toolkit for unlinking symmetric quasi-convex polynomials.

Given two polynomials with rational coefficients on R^n, the package
computes exact Gaussian covariances, invariance subspaces, and the
concordance order, and, when the hypotheses hold, constructs and
verifies the orthogonal change of variables under which the two
polynomials depend on disjoint sets of coordinates.
"""

from .exactla import (
    Subspace,
    intersect,
    kernel,
    orthogonal_complement,
    orthonormalize_nested,
    psd_violation,
    subspace_sum,
)
from .gaussmeasure import (
    McEstimate,
    covariance,
    expectation,
    gaussian_moment,
    mc_estimate,
    partial_expectation,
    sample_values,
)
from .polyalg import (
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
)
from .structure import (
    QcVerdict,
    QcWitness,
    RayClass,
    classify_ray,
    invariance_subspace,
    qc_falsify,
    ray_constant,
)
from .unlink import (
    ConcordanceReport,
    GridSpec,
    HypothesisFalsified,
    InvariantViolation,
    OrthogonalTransform,
    UnlinkConfig,
    UnlinkResult,
    build_transform,
    concordance,
    correlation_spotcheck,
    covariance_integral_check,
    divergence_check,
    normalize_at_origin,
    unlink_decision,
    verify_unlinked,
)

__version__ = "0.1.0"
