"""Reference implementations of code paths the package replaced.

Most functions are the straightforward rational computation that a
fraction-free or one-pass routine in the package replaces; the
differential tests compare the two exactly.  ``compose_linear`` and
``restrict_line`` substitute linear forms into a polynomial, which the
package no longer does; tests use them as oracles.  ``classify_ray_probe``
is the ray classifier that rounded its root bound to float and probed
the derivative's sign beyond it.  The invariance subspace from
``partial_derivative`` polynomials, the complement as a
kernel of a kernel, the ``Fraction`` membership test and the separation
certificate from directional derivatives are the code the integer
derivative matrix replaced.  ``evaluate_float_pow`` is the float evaluator
that took powers with ``pow``, compared within a rounding bound,
``covariance_integral_check_reference`` is the integral check that
sorted the samples again for its marginals, compared bit for bit, and
``tokenize`` is the per-character scanner the regex tokenizer replaced.
``quadratic_form_fraction`` is the ``Fraction`` quadratic form that the
derivative matrix's rows at x_1..x_n, an integer Hessian, replaced in
the PSD test of a quadratic.  ``exactla`` takes integer matrices only;
``integer_rows`` scales rational rows to the integer rows it takes.
Nothing here is used by the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from qcunlink.errors import InvariantViolation
from qcunlink.exactla import Subspace, kernel
from qcunlink.gaussmeasure import covariance
from qcunlink.polyalg import (
    MAX_DIGITS,
    Polynomial,
    PolynomialSyntaxError,
    evaluate,
)
from qcunlink.sampling import IntegralCheck, sample_values
from qcunlink.structure import CASE_A, CASE_B, CASE_CONST, QcWitness, RayClass


def gaussian_moment(order: int) -> int:
    """E[Z^order] for Z standard normal: (order-1)!! for even orders, 0 for odd."""
    return 0 if order % 2 else math.prod(range(order - 1, 0, -2))


def compose_linear(p: Polynomial, matrix) -> Polynomial:
    """Coefficients of x -> p(M x) for a square matrix M, exact.

    Float entries are read as the binary rationals they denote.  Each
    term c * x^e becomes c times the product of the powers
    (sum_j M[i][j] * y_j)^(e_i), expanded by repeated multiplication.
    """
    n = p.arity
    rows = [[Fraction(x) for x in row] for row in matrix]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"matrix must be {n}x{n}")
    units = [tuple(int(j == k) for k in range(n)) for j in range(n)]
    forms = [Polynomial(n, dict(zip(units, row))) for row in rows]
    total = Polynomial(n)
    for exponent, coeff in p.terms.items():
        term = Polynomial.constant(n, coeff)
        for form, k in zip(forms, exponent):
            term = term * form**k
        total = total + term
    return total


def restrict_line(p: Polynomial, base, direction) -> Polynomial:
    """The univariate polynomial t -> p(base + t * direction), exact.

    Each factor (b + v*t)^k is expanded by the binomial theorem into a
    coefficient list, and the lists of a term are multiplied out.
    """
    if len(base) != p.arity or len(direction) != p.arity:
        raise ValueError("base and direction must have length equal to the arity")
    base = [Fraction(b) for b in base]
    direction = [Fraction(v) for v in direction]
    coefficients = [Fraction(0)]
    for exponent, coeff in p.terms.items():
        term = [coeff]
        for b, v, k in zip(base, direction, exponent):
            factor = [math.comb(k, j) * b ** (k - j) * v**j for j in range(k + 1)]
            product = [Fraction(0)] * (len(term) + k)
            for i, a in enumerate(term):
                for j, f in enumerate(factor):
                    product[i + j] += a * f
            term = product
        coefficients += [Fraction(0)] * (len(term) - len(coefficients))
        for j, a in enumerate(term):
            coefficients[j] += a
    return Polynomial(1, {(j,): a for j, a in enumerate(coefficients)})


def partial_derivative(p: Polynomial, index: int) -> Polynomial:
    """Exact partial derivative with respect to x<index> (1-based)."""
    if not 1 <= index <= p.arity:
        raise ValueError(f"variable index {index} out of range 1..{p.arity}")
    i = index - 1
    out = {}
    for exponent, coeff in p.terms.items():
        k = exponent[i]
        if k:
            e = list(exponent)
            e[i] = k - 1
            out[tuple(e)] = coeff * k
    return Polynomial(p.arity, out)


def classify_ray_probe(g: Polynomial) -> RayClass:
    """Ray classes with float thresholds, the root bound probed at 50 points.

    The cases are those of ``classify_ray``.  The threshold is the Cauchy
    root bound of the derivative polynomial rounded to float (infinite
    beyond the float range), and the derivative's sign is checked at
    bound + 1, ..., bound + 50 (and the mirror points for case B).
    """
    if g.arity != 1:
        raise ValueError(f"expected a univariate polynomial, got arity {g.arity}")
    degree = g.total_degree()
    if degree == 0:
        return RayClass(frozenset({CASE_CONST}), {})
    lead = g.terms[(degree,)]
    cases = set()
    if lead > 0:
        cases.add(CASE_A)
    if (degree % 2 == 0 and lead > 0) or (degree % 2 == 1 and lead < 0):
        cases.add(CASE_B)
    derivative = partial_derivative(g, 1)
    bound = Fraction(0)
    if derivative.total_degree() > 0:
        d = derivative.total_degree()
        others = max((abs(c) for e, c in derivative.terms.items() if e[0] != d), default=Fraction(0))
        bound = 1 + others / abs(derivative.terms[(d,)])
    try:
        threshold = float(bound)
    except OverflowError:
        threshold = math.inf
    estimates = {}
    if CASE_A in cases:
        if any(evaluate(derivative, (bound + k,)) <= 0 for k in range(1, 51)):
            raise InvariantViolation("derivative sign unstable beyond the root bound (case A)")
        estimates[CASE_A] = threshold
    if CASE_B in cases:
        if any(evaluate(derivative, (-bound - k,)) >= 0 for k in range(1, 51)):
            raise InvariantViolation("derivative sign unstable beyond the root bound (case B)")
        estimates[CASE_B] = -threshold
    return RayClass(frozenset(cases), estimates)


def integer_rows(rows) -> list[list[int]]:
    """Each rational row times the lcm of its denominators, a positive multiple over ``int``."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def same_space(first: Subspace, second: Subspace) -> bool:
    """Set equality of two subspaces, by mutual containment over ``Fraction``."""
    return all(contains_vector_fraction(first, row) for row in second.basis) and all(
        contains_vector_fraction(second, row) for row in first.basis
    )


def quadratic_form_fraction(p: Polynomial) -> list[list[Fraction]]:
    """Matrix A of the degree-2 part, with p's x_i*x_j coefficient split as 2*A[i][j]."""
    n = p.arity
    a = [[Fraction(0)] * n for _ in range(n)]
    for exponent, coeff in p.terms.items():
        if sum(exponent) != 2:
            continue
        support = [i for i, k in enumerate(exponent) if k]
        if len(support) == 1:
            a[support[0]][support[0]] = coeff
        else:
            i, j = support
            a[i][j] = coeff / 2
            a[j][i] = coeff / 2
    return a


def quadratic_witness_doubling(p: Polynomial, direction) -> QcWitness:
    """Witness for a concave direction of a quadratic: double s from 1 until p(0) > p(+-s*v)."""
    s = Fraction(1)
    while True:
        x = tuple(-s * c for c in direction)
        y = tuple(s * c for c in direction)
        mid = tuple(Fraction(1, 2) * a + Fraction(1, 2) * b for a, b in zip(x, y))
        px, py, pmid = evaluate(p, x), evaluate(p, y), evaluate(p, mid)
        if pmid > max(px, py):
            return QcWitness(x, y, Fraction(1, 2), (px, py, pmid))
        s *= 2


def rref_fraction(rows, cols):
    """Reduced row echelon form over ``Fraction``; nonzero rows and pivot columns."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col]
        work[rank] = [x / inv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivots


def kernel_fraction(rows, cols):
    """RREF basis rows of the null space, by the rational RREF of the free-column vectors."""
    reduced, pivots = rref_fraction(rows, cols)
    vectors = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, pivot in zip(reduced, pivots):
            v[pivot] = -row[f]
        vectors.append(v)
    return rref_fraction(vectors, cols)[0]


def orthogonal_complement(space: Subspace) -> Subspace:
    """All vectors orthogonal to the given subspace (standard inner product)."""
    return kernel(space.rows, space.ambient)


def invariance_subspace_by_partials(p: Polynomial) -> Subspace:
    """Kernel of v -> D_v p, one row per monomial of the partials, in graded-lexicographic order."""
    n = p.arity
    partials = [partial_derivative(p, i) for i in range(1, n + 1)]
    monomials = sorted({e for q in partials for e in q.terms}, key=lambda e: (sum(e), e))
    rows = [tuple(q.terms.get(m, Fraction(0)) for q in partials) for m in monomials]
    return kernel(integer_rows(rows), n)


def contains_vector_fraction(space: Subspace, vector) -> bool:
    """Membership by reducing a ``Fraction`` residue against the RREF basis."""
    residue = [Fraction(x) for x in vector]
    for row in space.basis:
        lead = next(i for i, x in enumerate(row) if x != 0)
        if residue[lead]:
            factor = residue[lead]
            residue = [a - factor * b for a, b in zip(residue, row)]
    return all(x == 0 for x in residue)


def verify_unlinked_by_derivatives(p: Polynomial, transform, forbidden) -> bool:
    """Whether sum_i w_ji * dp/dx_i is the zero polynomial for each forbidden column j."""
    partials = [partial_derivative(p, i).terms for i in range(1, p.arity + 1)]
    for j in sorted(set(forbidden)):
        derivative: dict = {}
        for weight, partial in zip(transform.columns[j - 1], partials):
            for exponent, coeff in partial.items():
                derivative[exponent] = derivative.get(exponent, 0) + weight * coeff
        if any(derivative.values()):
            return False
    return True


def intersect(first: Subspace, second: Subspace) -> Subspace:
    """Exact intersection via the stacked constraint systems of both complements."""
    if first.ambient != second.ambient:
        raise ValueError("ambient dimension mismatch")
    constraints = orthogonal_complement(first).rows + orthogonal_complement(second).rows
    return kernel(constraints, first.ambient)


def psd_violation_fraction(entries):
    """Rational pivoted symmetric elimination: a direction with v'Av < 0, or None."""
    grid = [[Fraction(x) for x in row] for row in entries]
    n = len(grid)
    basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    active = list(range(n))
    while active:
        negative = next((i for i in active if grid[i][i] < 0), None)
        if negative is not None:
            return tuple(basis[negative])
        pivot = next((i for i in active if grid[i][i] > 0), None)
        if pivot is not None:
            active.remove(pivot)
            pivot_row = grid[pivot][:]
            pivot_basis = basis[pivot][:]
            d = pivot_row[pivot]
            for j in active:
                factor = pivot_row[j] / d
                if factor:
                    basis[j] = [a - factor * b for a, b in zip(basis[j], pivot_basis)]
            for j in active:
                for k in active:
                    grid[j][k] -= pivot_row[j] * pivot_row[k] / d
            continue
        off = next(((i, j) for i in active for j in active if i < j and grid[i][j] != 0), None)
        if off is None:
            return None
        i, j = off
        sign = 1 if grid[i][j] > 0 else -1
        return tuple(a - sign * b for a, b in zip(basis[i], basis[j]))
    return None


def _primitive_fraction(vector):
    denominator = math.lcm(*(x.denominator for x in vector))
    ints = [int(x * denominator) for x in vector]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    return [-x for x in ints] if lead < 0 else ints


def _orthogonalize_fraction(vector, ortho):
    u = [Fraction(x) for x in vector]
    for w in ortho:
        uw = sum(a * b for a, b in zip(u, w))
        if uw:
            factor = uw / sum(x * x for x in w)
            u = [a - factor * b for a, b in zip(u, w)]
    return u


def nested_columns_fraction(chain, ambient):
    """Primitive integer columns of rational Gram-Schmidt over the chain, then e_1..e_n."""
    ortho = []
    vectors = [v for space in chain for v in space.basis]
    vectors += [[Fraction(int(j == i)) for j in range(ambient)] for i in range(ambient)]
    for vector in vectors:
        if len(ortho) == ambient:
            break
        u = _orthogonalize_fraction(vector, ortho)
        if any(u):
            ortho.append(_primitive_fraction(u))
    return tuple(tuple(w) for w in ortho)


def expectation_fraction(p: Polynomial) -> Fraction:
    """E[p(X)] term by term over ``Fraction``."""
    total = Fraction(0)
    for exponent, coeff in p.terms.items():
        term = coeff
        for k in exponent:
            term *= gaussian_moment(k)
        total += term
    return total


def covariance_by_product(u: Polynomial, v: Polynomial) -> Fraction:
    """Cov(u, v) from the expanded product u * v."""
    return expectation_fraction(u * v) - expectation_fraction(u) * expectation_fraction(v)


def evaluate_float_pow(p: Polynomial, points) -> np.ndarray:
    """p at the rows of an (m, n) array, each power taken by numpy ``x ** k``."""
    x = np.asarray(points, dtype=float)
    acc = np.zeros(x.shape[0])
    for exponent, coeff in p.terms.items():
        term = np.full(x.shape[0], float(coeff))
        for i, k in enumerate(exponent):
            if k:
                term = term * x[:, i] ** k
        acc += term
    return acc


def _threshold_grid_reference(values, points: int, quantile_cap: float):
    cap = float(np.quantile(values, quantile_cap))
    levels = np.linspace(0.0, quantile_cap, points)
    nodes = np.concatenate(([0.0], np.quantile(values, levels), np.linspace(0.0, cap, points)))
    return np.unique(np.clip(nodes, 0.0, cap))


def covariance_integral_check_reference(
    u_star: Polynomial, v_star: Polynomial, samples: int, points: int, quantile_cap: float, seed: int
) -> IntegralCheck:
    """The integral check with a separate cap quantile and marginals from sorted samples."""
    su, sv = sample_values((u_star, v_star), samples, seed)
    exact = covariance(u_star, v_star)
    g1 = _threshold_grid_reference(su, points, quantile_cap)
    g2 = _threshold_grid_reference(sv, points, quantile_cap)
    b1 = np.searchsorted(g1, su, side="left")
    b2 = np.searchsorted(g2, sv, side="left")
    flat = b1 * (len(g2) + 1) + b2
    counts = np.bincount(flat, minlength=(len(g1) + 1) * (len(g2) + 1)).reshape(
        len(g1) + 1, len(g2) + 1
    )
    joint = counts.cumsum(axis=0).cumsum(axis=1)[: len(g1), : len(g2)] / samples
    f1 = np.searchsorted(np.sort(su), g1, side="right") / samples
    f2 = np.searchsorted(np.sort(sv), g2, side="right") / samples
    integrand = joint - np.outer(f1, f2)
    estimate = float(np.trapezoid(np.trapezoid(integrand, x=g2, axis=1), x=g1))
    centered = (su - su.mean()) * (sv - sv.mean())
    stderr = float(centered.std(ddof=1) / samples**0.5)
    tolerance = max(0.05 * abs(float(exact)), 5.0 * stderr)
    passed = abs(estimate - float(exact)) <= tolerance
    return IntegralCheck(exact, estimate, stderr, passed, samples, seed)


_DIGITS = frozenset("0123456789")


def _integer(text: str, start: int, end: int) -> int:
    if end - start > MAX_DIGITS:
        raise PolynomialSyntaxError(
            f"integer of {end - start} digits exceeds the limit of {MAX_DIGITS}", start
        )
    return int(text[start:end])


def tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, offset) tokens of the expression grammar, one character at a time."""
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
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", _integer(text, i, j), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j == i + 1:
                raise PolynomialSyntaxError("expected a variable index after 'x'", i)
            tokens.append(("var", _integer(text, i + 1, j), i))
            i = j
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens
