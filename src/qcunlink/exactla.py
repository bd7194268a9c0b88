"""Exact integer linear algebra for subspaces of R^n.

Every dimension-bearing computation here (kernel, row space, sum, the
nestedness of a chain, the sign of a quadratic form) is exact, so ranks
are exact integers.  Matrices come in over ``int``: each caller already
holds an integer matrix (a derivative matrix, the Hessian among its
rows, subspace rows), so nothing is rescaled, and an entry of any other
type raises ``TypeError`` where the matrix enters the module.  The
eliminations run fraction-free, dividing out the content (gcd) of each
row they produce; that changes no zero pattern and no sign, so the
pivots, ranks and sign decisions are those of the rational computation,
and the ``Fraction`` results (RREF rows, PSD witnesses) are recovered by
one division at the end.  Nothing here is a float: the Gram-Schmidt
sweep of ``orthonormalize_nested`` yields exactly orthogonal integer
columns, whose count decides whether the chain is nested; normalizing
them into a float matrix is left to the report that prints it.

Matrices are plain sequences of rows: ``kernel`` takes the rows of the
constraint matrix and the column count.  Subspace bases are
canonicalized to reduced row echelon form (pivot order, leading entry
1), which is unique for a given row space, so all operations return
reproducible bases and equal subspaces compare equal.  One elimination
of a matrix M gives both of its subspaces: its nonzero rows are the RREF
basis of the row space, which is the orthogonal complement of ker M, and
its free columns give ker M (``kernel_and_row_space``).  A subspace
keeps its RREF rows over ``int``, each scaled to a primitive vector, and
the ``Fraction`` rows are formed only when a report prints them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import InvariantViolation

__all__ = [
    "Subspace",
    "kernel",
    "kernel_and_row_space",
    "orthonormalize_nested",
    "psd_violation",
    "rank",
    "subspace_sum",
]

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def _unit(index: int, length: int) -> list[int]:
    """The standard basis vector e_index (0-based) of the given length."""
    return [int(j == index) for j in range(length)]


def _to_vector(values: Sequence, length: int | None = None) -> IntVector:
    """The entries as a tuple, checked to be integers."""
    out = tuple(values)
    for x in out:
        if not isinstance(x, int):
            raise TypeError(f"exact vectors take int entries, got {type(x).__name__}")
    if length is not None and len(out) != length:
        raise ValueError(f"vector length {len(out)} != ambient dimension {length}")
    return out


def _content_free(row: Sequence[int]) -> Sequence[int]:
    """The row divided by the gcd of its entries (a zero row is returned as is)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _echelon(rows: Iterable[Sequence[int]], cols: int) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination; returns nonzero rows and pivot columns.

    The integer rows start with their content divided out.  A row i is
    cleared at the pivot column by i <- d * i - f * pivot_row, with d the
    pivot and f the entry of i, then divided by its content.  Every row
    stays a nonzero multiple of the rational row it stands for, so the
    pivots are those of rational elimination, and each returned row
    vanishes on the other rows' pivot columns: divided by its pivot, it is
    a row of the unique reduced row echelon form.
    """
    work = [_content_free(row) for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank]
        d = pivot[col]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != rank:
                work[i] = _content_free([d * a - f * b for a, b in zip(row, pivot)])
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivots


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^n with an exact, canonical basis.

    ``rows`` are the rows of the reduced row echelon form (RREF) of any
    spanning set, each scaled to the primitive integer vector with a
    positive leading entry, and ``pivots`` their leading columns; the
    span of integer rows is ``kernel_and_row_space(rows, n)[1]``.
    ``basis`` is the RREF itself, ``Fraction`` rows with leading entry
    1, formed on first use.  All three are unique for the subspace.
    """

    ambient: int
    rows: tuple[IntVector, ...]
    pivots: tuple[int, ...]

    @classmethod
    def _from_echelon(cls, ambient: int, rows: list[Sequence[int]], pivots: list[int]) -> "Subspace":
        """The row space of ``_echelon`` output, each row's sign fixed so its pivot entry is positive."""
        rows = [row if row[col] > 0 else [-x for x in row] for row, col in zip(rows, pivots)]
        return cls(ambient, tuple(map(tuple, rows)), tuple(pivots))

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(
            tuple(Fraction(x, row[col]) for x in row) for row, col in zip(self.rows, self.pivots)
        )

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {
            "n": self.ambient,
            "basis": [[str(x) for x in row] for row in self.basis],
        }


def kernel_and_row_space(rows: Sequence[Sequence], cols: int) -> tuple[Subspace, Subspace]:
    """ker M and the row space of M, its orthogonal complement, from one elimination.

    Each row of M must have ``cols`` integer entries.  The eliminated rows
    are already the canonical basis of the row space, so they are not
    reduced a second time.  Each free column, in increasing order, gives
    the null vector that is nonzero there and 0 at the other free
    columns, scaled to integers by the lcm of the pivots; those are
    canonicalized by one more elimination.
    """
    work, pivots = _echelon([_to_vector(row, cols) for row in rows], cols)
    scale = math.lcm(*(row[p] for row, p in zip(work, pivots)))
    vectors = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = scale
        for row, p in zip(work, pivots):
            v[p] = -row[f] * (scale // row[p])
        vectors.append(v)
    null = Subspace._from_echelon(cols, *_echelon(vectors, cols))
    return null, Subspace._from_echelon(cols, work, pivots)


def kernel(rows: Sequence[Sequence], cols: int) -> Subspace:
    """Exact basis of the null space {v : Mv = 0} of the matrix with the given rows."""
    return kernel_and_row_space(rows, cols)[0]


def rank(rows: Sequence[Sequence], cols: int) -> int:
    """Exact rank of the matrix with the given rows, each of ``cols`` integer entries."""
    return len(_echelon([_to_vector(row, cols) for row in rows], cols)[1])


def subspace_sum(first: Subspace, second: Subspace) -> Subspace:
    if first.ambient != second.ambient:
        raise ValueError("ambient dimension mismatch")
    return Subspace._from_echelon(first.ambient, *_echelon(first.rows + second.rows, first.ambient))


def _congruence(
    grid: list[list[int]], basis: Optional[list[Sequence[int]]]
) -> Optional[tuple[int, int]]:
    """Pivoted symmetric elimination of ``grid`` in place, up to a negative direction.

    Returns None when the form is positive semidefinite.  Otherwise
    returns (i, i) when the active diagonal entry i turned negative, or
    (i, j), i < j, when every active diagonal entry is zero and entry
    (i, j) is not.  A Schur step on the pivot row p with pivot d
    replaces the active block g by d*g - p p', a positive multiple of
    the rational Schur complement, and the block is then divided by its
    content; so every sign, and hence every pivot and the direction
    returned, is the rational one.  ``basis``, when given, starts as the
    unit vectors and is carried along: basis[j] stays an integer multiple
    of the j-th coordinate direction of the current form, in the original
    coordinates, whose own coordinate basis[j][j] is that multiple.
    """
    active = list(range(len(grid)))
    while active:
        negative = next((i for i in active if grid[i][i] < 0), None)
        if negative is not None:
            return negative, negative
        pivot = next((i for i in active if grid[i][i] > 0), None)
        if pivot is None:
            # all active diagonal entries are zero
            return next(((i, j) for i in active for j in active if i < j and grid[i][j]), None)
        active.remove(pivot)
        pivot_row = grid[pivot]
        d = pivot_row[pivot]
        if basis is not None:
            # basis[j] - (p_j / d) basis[pivot] over the own coordinates of both vectors
            pivot_basis = basis[pivot]
            s_p = d * pivot_basis[pivot]
            for j in active:
                s_j = basis[j][j] * pivot_row[j]
                if s_j:
                    update = [s_p * a - s_j * b for a, b in zip(basis[j], pivot_basis)]
                    basis[j] = _content_free(update)
        for j in active:
            row = grid[j]
            p_j = pivot_row[j]
            for k in active:
                row[k] = d * row[k] - p_j * pivot_row[k]
        g = math.gcd(*(grid[j][k] for j in active for k in active))
        if g > 1:
            for j in active:
                row = grid[j]
                for k in active:
                    row[k] //= g
    return None


def psd_violation(entries: Sequence[Sequence]) -> Optional[Vector]:
    """Rational direction v with v'Av < 0 for a symmetric integer matrix A, or None.

    Decides positive semidefiniteness exactly by pivoted symmetric
    elimination (congruence with Schur complements, ``_congruence``) on
    A itself, without the change of basis.  Only when a negative
    direction turns up is the same elimination replayed with the change
    of basis vectors, each kept as an integer multiple of the rational
    vector whose own coordinate is exactly 1; dividing by that entry
    recovers the rational witness, which is verified against A before
    being handed back.
    """
    original = [_to_vector(row) for row in entries]
    n = len(original)
    if any(len(row) != n for row in original):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i):
            if original[i][j] != original[j][i]:
                raise ValueError("matrix must be symmetric")
    if _congruence([list(row) for row in original], None) is None:
        return None

    grid = [list(row) for row in original]
    basis = [_unit(j, n) for j in range(n)]
    i, j = _congruence(grid, basis)
    if i == j:
        v, denominator = basis[i], basis[i][i]
    else:
        sign = 1 if grid[i][j] > 0 else -1
        # basis[i] / s_i - sign * basis[j] / s_j, over the common denominator s_i * s_j
        s_i, s_j = basis[i][i], basis[j][j]
        v = [s_j * a - sign * s_i * b for a, b in zip(basis[i], basis[j])]
        denominator = s_i * s_j
    value = sum(v[i] * original[i][j] * v[j] for i in range(n) for j in range(n))
    if value >= 0 or denominator <= 0:
        raise InvariantViolation("PSD witness is not a violating direction")
    return tuple(Fraction(x, denominator) for x in v)


def _primitive(vector: list[int]) -> list[int]:
    """Rescale to the integer vector with coprime entries and positive lead."""
    ints = _content_free(vector)
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def _orthogonalize_exact(vector: Sequence[int], ortho: list[tuple[list[int], int]]) -> list[int]:
    """A positive integer multiple of vector minus its projections onto ``ortho``.

    ``ortho`` holds pairs (w, ww) of a column and its squared norm.  Each
    step u <- ww*u - uw*w is ww times the rational step u - (uw/ww) w,
    and ww > 0, so ``_primitive`` of the result is that of the rational
    Gram-Schmidt vector.
    """
    u = list(vector)
    for w, ww in ortho:
        uw = sum(map(mul, u, w))
        if uw:
            u = _content_free([ww * a - uw * b for a, b in zip(u, w)])
    return u


def orthonormalize_nested(chain: Sequence[Subspace], ambient: int) -> tuple[IntVector, ...]:
    """Orthogonal integer columns whose prefixes span a nested chain of subspaces.

    Exact Gram-Schmidt over the rationals runs through the rows of each
    chain element T_1, T_2, ... in turn, then through e_1..e_n, and keeps
    every nonzero residue as a primitive integer column, with its squared
    norm computed once beside it for every later projection onto it.
    After T_i the columns span T_1 + ... + T_i, so their count equals
    dim(T_i) exactly when T_i contains its predecessors: a larger count
    raises ``ValueError`` (the chain is not nested), a smaller one
    ``InvariantViolation``.  A repeated element adds no column, and the
    last element need not be all of R^n: the e_i extend the basis to a
    full one.  Returns the n pairwise exactly orthogonal integer columns
    w_j; for each T_i the first dim(T_i) of them span T_i.
    """
    for space in chain:
        if space.ambient != ambient:
            raise ValueError("chain element has wrong ambient dimension")
    stages = [(space.rows, space.dimension) for space in chain]
    stages.append(((_unit(i, ambient) for i in range(ambient)), ambient))
    ortho: list[tuple[list[int], int]] = []
    for vectors, dimension in stages:
        for vector in vectors:
            if len(ortho) == ambient:
                break
            u = _orthogonalize_exact(vector, ortho)
            if any(u):
                w = _primitive(u)
                ortho.append((w, sum(map(mul, w, w))))
        if len(ortho) > dimension:
            raise ValueError("chain not nested: an element does not contain its predecessors")
        if len(ortho) < dimension:
            raise InvariantViolation("exact Gram-Schmidt lost a dimension")
    return tuple(tuple(w) for w, _ in ortho)
