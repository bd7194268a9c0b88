"""Reference implementations of code paths the package replaced.

Most functions are the straightforward rational computation that a
fraction-free routine in the package replaces; the differential tests
compare the two exactly.  ``evaluate_float_pow`` is the float evaluator
that took powers with ``pow``, compared within a rounding bound, and
``covariance_integral_check_reference`` is the integral check that
sorted the samples again for its marginals, compared bit for bit.
Nothing here is used by the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from qcunlink.exactla import Subspace, kernel, orthogonal_complement
from qcunlink.gaussmeasure import covariance, gaussian_moment, sample_values
from qcunlink.polyalg import Polynomial, RationalMatrix
from qcunlink.unlink import GridSpec, IntegralCheck


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


def intersect(first: Subspace, second: Subspace) -> Subspace:
    """Exact intersection via the stacked constraint systems of both complements."""
    if first.ambient != second.ambient:
        raise ValueError("ambient dimension mismatch")
    constraints = orthogonal_complement(first).basis + orthogonal_complement(second).basis
    if not constraints:
        return Subspace.full(first.ambient)
    return kernel(RationalMatrix.from_rows(constraints))


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


def _threshold_grid_reference(values, grid: GridSpec):
    cap = float(np.quantile(values, grid.quantile_cap))
    levels = np.linspace(0.0, grid.quantile_cap, grid.points)
    nodes = np.concatenate(
        ([0.0], np.quantile(values, levels), np.linspace(0.0, cap, grid.points))
    )
    return np.unique(np.clip(nodes, 0.0, cap))


def covariance_integral_check_reference(
    u_star: Polynomial, v_star: Polynomial, samples: int, grid: GridSpec = GridSpec(), seed: int = 42
) -> IntegralCheck:
    """The integral check with a separate cap quantile and marginals from sorted samples."""
    su, sv = sample_values((u_star, v_star), samples, seed)
    exact = covariance(u_star, v_star)
    g1 = _threshold_grid_reference(su, grid)
    g2 = _threshold_grid_reference(sv, grid)
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
