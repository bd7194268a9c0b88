"""Exact polynomial arithmetic for building inputs and computing oracles.

Nothing here imports ``qcunlink``: the expected values the benchmark
checks the program against are computed by this small, separate
implementation.  A polynomial is a dict mapping exponent tuples to
nonzero ``Fraction`` coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction


def clean(p: dict) -> dict:
    return {e: c for e, c in p.items() if c}


def add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, Fraction(0)) + c
    return clean(out)


def scale(p: dict, factor) -> dict:
    return clean({e: c * factor for e, c in p.items()})


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return clean(out)


def power(p: dict, k: int, n: int) -> dict:
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = mul(out, p)
    return out


def linear(coeffs, n: int) -> dict:
    """The linear form sum_j coeffs[j] * x_{j+1}."""
    return clean(
        {tuple(int(i == j) for i in range(n)): Fraction(c) for j, c in enumerate(coeffs)}
    )


def monomial(n: int, powers: dict, coeff=1) -> dict:
    """coeff * prod x_i^k for {i (1-based): k}."""
    e = [0] * n
    for i, k in powers.items():
        e[i - 1] = k
    return {tuple(e): Fraction(coeff)}


def compose(p: dict, matrix, n: int) -> dict:
    """x -> p(M x) for an exact n-by-n matrix M."""
    forms = [linear(row, n) for row in matrix]
    cache: dict = {}

    def form_power(i: int, k: int) -> dict:
        if (i, k) not in cache:
            cache[(i, k)] = forms[i] if k == 1 else mul(form_power(i, k - 1), forms[i])
        return cache[(i, k)]

    out: dict = {}
    for e, c in p.items():
        term = {(0,) * n: c}
        for i, k in enumerate(e):
            if k:
                term = mul(term, form_power(i, k))
        for te, tc in term.items():
            out[te] = out.get(te, Fraction(0)) + tc
    return clean(out)


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x**k
        total += term
    return total


def evaluate_float(p: dict, point) -> float:
    total = 0.0
    for e, c in p.items():
        term = float(c)
        for x, k in zip(point, e):
            if k:
                term *= x**k
        total += term
    return total


def render(p: dict) -> str:
    """Text in the program's input grammar, e.g. ``3/2*x1^2 - x2^4``."""
    if not p:
        return "0"
    pieces = []
    for e, c in sorted(p.items(), key=lambda item: (-sum(item[0]), item[0])):
        mono = "*".join(f"x{i + 1}^{k}" if k > 1 else f"x{i + 1}" for i, k in enumerate(e) if k)
        magnitude = abs(c)
        if not mono:
            body = str(magnitude)
        elif magnitude == 1:
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        pieces.append(f" {'-' if c < 0 else '+'} {body}")
    text = "".join(pieces)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def double_factorial_moment(order: int) -> Fraction:
    """E[Z^order] for a standard normal Z: (order-1)!! for even order, else 0."""
    if order % 2:
        return Fraction(0)
    value = 1
    for odd in range(order - 1, 0, -2):
        value *= odd
    return Fraction(value)


def expectation(p: dict) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for k in e:
            term *= double_factorial_moment(k)
        total += term
    return total


def covariance(u: dict, v: dict) -> Fraction:
    return expectation(mul(u, v)) - expectation(u) * expectation(v)


def centered_product_variance(u: dict, v: dict, n: int) -> Fraction:
    """Var[(u - Eu)(v - Ev)], the variance behind a Monte Carlo covariance."""
    cu = add(u, {(0,) * n: -expectation(u)})
    cv = add(v, {(0,) * n: -expectation(v)})
    product = mul(cu, cv)
    return expectation(mul(product, product)) - expectation(product) ** 2


def variance(p: dict) -> Fraction:
    return expectation(mul(p, p)) - expectation(p) ** 2


def solve(a, b):
    """A^{-1} B over the rationals by Gauss-Jordan elimination."""
    n = len(a)
    work = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col]
        work[col] = [x / inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def cayley(skew) -> list[list[Fraction]]:
    """Exact orthogonal Q = (I - S)^{-1} (I + S) for a rational skew matrix S."""
    n = len(skew)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    minus = [[eye[i][j] - skew[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + skew[i][j] for j in range(n)] for i in range(n)]
    q = solve(minus, plus)
    for i in range(n):
        for j in range(n):
            if sum(q[k][i] * q[k][j] for k in range(n)) != eye[i][j]:
                raise ArithmeticError("Cayley transform is not orthogonal")
    return q


def skew_from(entries: dict, n: int) -> list[list[Fraction]]:
    """Skew-symmetric matrix with S[i][j] = s, S[j][i] = -s for {(i, j): s}, 0-based."""
    s = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), value in entries.items():
        s[i][j] = Fraction(value)
        s[j][i] = -Fraction(value)
    return s


def prob_abs_below(t: float) -> float:
    """P(|Z| <= t) for a standard normal Z."""
    return 0.0 if t <= 0 else math.erf(t / math.sqrt(2.0))


def simpson(f, a: float, b: float, intervals: int = 2000) -> float:
    if b <= a:
        return 0.0
    h = (b - a) / intervals
    total = f(a) + f(b)
    for i in range(1, intervals):
        total += (4 if i % 2 else 2) * f(a + i * h)
    return total * h / 3.0
