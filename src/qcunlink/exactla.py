"""Exact rational linear algebra for subspaces of R^n.

Every dimension-bearing computation here (kernel, complement,
intersection, sum, containment, the sign of a quadratic form) is done
over ``Fraction`` so that ranks are exact integers.  Floating point
appears only in ``orthonormalize_nested``, and even there the
Gram-Schmidt sweep runs over the rationals and yields exactly orthogonal
integer columns; each column is converted to float only when it is
normalized, so prefix spans are exact by construction, and the integer
columns are handed back for exact checks downstream.

Subspace bases are canonicalized to reduced row echelon form (pivot
order, leading entry 1), which is unique for a given row space, so all
operations return reproducible bases.  Set equality is nevertheless
decided by mutual containment, never by comparing bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvariantViolation
from .polyalg import RationalMatrix

__all__ = [
    "Subspace",
    "intersect",
    "kernel",
    "orthogonal_complement",
    "orthonormalize_nested",
    "psd_violation",
    "subspace_sum",
]

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def _unit(index: int, length: int) -> list[Fraction]:
    """The standard basis vector e_index (0-based) of the given length."""
    return [Fraction(int(j == index)) for j in range(length)]


def _to_vector(values: Sequence, length: int | None = None) -> Vector:
    out = []
    for x in values:
        if isinstance(x, Fraction):
            out.append(x)
        elif isinstance(x, int):
            out.append(Fraction(x))
        else:
            raise TypeError(f"exact vectors take int or Fraction entries, got {type(x).__name__}")
    if length is not None and len(out) != length:
        raise ValueError(f"vector length {len(out)} != ambient dimension {length}")
    return tuple(out)


def _rref(rows: Iterable[Sequence[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    work = [list(row) for row in rows]
    pivots: list[int] = []
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


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^n with an exact, canonical (RREF) basis."""

    ambient: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        if self.ambient < 0:
            raise ValueError("ambient dimension must be nonnegative")
        rows = [_to_vector(row, self.ambient) for row in self.basis]
        reduced, _ = _rref(rows, self.ambient)
        object.__setattr__(self, "basis", tuple(tuple(row) for row in reduced))

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient: int) -> "Subspace":
        return cls(ambient, tuple(tuple(v) for v in vectors))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, tuple(tuple(_unit(i, ambient)) for i in range(ambient)))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains_vector(self, vector: Sequence) -> bool:
        """Exact membership test by reduction against the RREF basis."""
        residue = list(_to_vector(vector, self.ambient))
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if residue[lead]:
                factor = residue[lead]
                residue = [a - factor * b for a, b in zip(residue, row)]
        return all(x == 0 for x in residue)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis)

    def same_space(self, other: "Subspace") -> bool:
        """Set equality via mutual containment."""
        return self.contains(other) and other.contains(self)

    def to_json(self) -> dict:
        return {
            "n": self.ambient,
            "basis": [[str(x) for x in row] for row in self.basis],
        }

    @classmethod
    def from_json(cls, obj) -> "Subspace":
        if not isinstance(obj, dict) or "n" not in obj or "basis" not in obj:
            raise ValueError("subspace JSON must be an object with keys 'n' and 'basis'")
        vectors = [[Fraction(x) for x in row] for row in obj["basis"]]
        return cls.span(vectors, obj["n"])


def kernel(matrix: RationalMatrix) -> Subspace:
    """Exact basis of the null space {v : Mv = 0}.

    Free columns are taken in increasing index order; the resulting
    vectors are then canonicalized like any other basis.
    """
    rows, pivots = _rref(matrix.entries, matrix.cols)
    free = [c for c in range(matrix.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * matrix.cols
        v[f] = Fraction(1)
        for row, pivot in zip(rows, pivots):
            v[pivot] = -row[f]
        vectors.append(v)
    return Subspace.span(vectors, matrix.cols)


def orthogonal_complement(space: Subspace) -> Subspace:
    """All vectors orthogonal to the given subspace (standard inner product)."""
    constraints = RationalMatrix.from_rows(space.basis) if space.basis else RationalMatrix(
        0, space.ambient, ()
    )
    return kernel(constraints)


def intersect(first: Subspace, second: Subspace) -> Subspace:
    """Exact intersection via the stacked constraint systems of both complements."""
    if first.ambient != second.ambient:
        raise ValueError("ambient dimension mismatch")
    constraints = orthogonal_complement(first).basis + orthogonal_complement(second).basis
    if not constraints:
        return Subspace.full(first.ambient)
    return kernel(RationalMatrix.from_rows(constraints))


def subspace_sum(first: Subspace, second: Subspace) -> Subspace:
    if first.ambient != second.ambient:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(first.basis + second.basis, first.ambient)


def psd_violation(entries: Sequence[Sequence]) -> Optional[Vector]:
    """Direction v with v'Av < 0 for a symmetric rational matrix A, or None.

    Decides positive semidefiniteness exactly by pivoted symmetric
    elimination (congruence with Schur complements).  The returned
    witness is verified before being handed back.
    """
    grid = [list(_to_vector(row)) for row in entries]
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i):
            if grid[i][j] != grid[j][i]:
                raise ValueError("matrix must be symmetric")

    original = [row[:] for row in grid]
    # basis[j] expresses the current j-th coordinate direction in original coordinates
    basis = [_unit(j, n) for j in range(n)]
    active = list(range(n))

    def _check(v: list[Fraction]) -> Vector:
        value = sum(v[i] * original[i][j] * v[j] for i in range(n) for j in range(n))
        if value >= 0:
            raise InvariantViolation("PSD witness is not a violating direction")
        return tuple(v)

    while active:
        negative = next((i for i in active if grid[i][i] < 0), None)
        if negative is not None:
            return _check(basis[negative])
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
        # all active diagonal entries are zero
        off = next(
            ((i, j) for i in active for j in active if i < j and grid[i][j] != 0), None
        )
        if off is None:
            return None
        i, j = off
        sign = 1 if grid[i][j] > 0 else -1
        v = [a - sign * b for a, b in zip(basis[i], basis[j])]
        return _check(v)
    return None


def _primitive(vector: list[Fraction]) -> list[int]:
    """Rescale to the integer vector with coprime entries and positive lead."""
    denominator = math.lcm(*(x.denominator for x in vector))
    ints = [int(x * denominator) for x in vector]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def _orthogonalize_exact(vector: Sequence, ortho: list[list[int]]) -> list[Fraction]:
    u = list(vector)
    for w in ortho:
        uw = sum(a * b for a, b in zip(u, w))
        if uw:
            ww = sum(x * x for x in w)
            factor = uw / ww
            u = [a - factor * b for a, b in zip(u, w)]
    return u


def orthonormalize_nested(
    chain: Sequence[Subspace], ambient: int
) -> tuple[np.ndarray, tuple[IntVector, ...]]:
    """Orthonormal columns whose prefixes span a nested chain of subspaces.

    The chain must be strictly nested (checked exactly); its last element
    need not be all of R^n, the basis is always extended to a full one.
    Exact Gram-Schmidt over the rationals yields n pairwise exactly
    orthogonal, primitive integer columns w_1..w_n; for each chain element
    T_i the first dim(T_i) of them span T_i.  Returns the n-by-n float
    matrix Q whose column j is w_j / |w_j| (so Q'Q = I to within
    rounding) together with the integer columns, in the same order.
    """
    for space in chain:
        if space.ambient != ambient:
            raise ValueError("chain element has wrong ambient dimension")
    for smaller, larger in zip(chain, chain[1:]):
        if not (larger.contains(smaller) and smaller.dimension < larger.dimension):
            raise ValueError("chain not nested: containment or strict dimension growth fails")
    if chain and chain[-1].dimension > ambient:
        raise ValueError("chain exceeds the ambient dimension")

    ortho: list[list[int]] = []
    for space in chain:
        for vector in space.basis:
            u = _orthogonalize_exact(vector, ortho)
            if any(u):
                ortho.append(_primitive(u))
        if len(ortho) != space.dimension:
            raise InvariantViolation("exact Gram-Schmidt lost a dimension")
    for i in range(ambient):
        if len(ortho) == ambient:
            break
        u = _orthogonalize_exact(_unit(i, ambient), ortho)
        if any(u):
            ortho.append(_primitive(u))

    q = np.empty((ambient, ambient))
    for j, w in enumerate(ortho):
        norm = math.sqrt(float(sum(x * x for x in w)))
        q[:, j] = [float(x) / norm for x in w]
    return q, tuple(tuple(w) for w in ortho)
