"""Exact rational vectors and small dense linear algebra over Fraction."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple[Fraction, ...]

INF = float("inf")


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to build exact rationals from floats: %r" % (x,))
    return Fraction(x)


def frac_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 else str(q.numerator)


def vec(*xs) -> Vec:
    return tuple(frac(x) for x in xs)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def scale(u: Vec, t) -> Vec:
    t = frac(t)
    return tuple(t * a for a in u)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def linf_norm(u: Vec) -> Fraction:
    return max((abs(a) for a in u), default=Fraction(0))


def l1_norm(u: Vec) -> Fraction:
    return sum((abs(a) for a in u), Fraction(0))


def primitive(u: Vec) -> Vec:
    """Positive rescaling of u to an integer vector with content gcd 1.

    Sign pattern is preserved, so this is the canonical representative of an
    inequality normal (only positive scalings keep the halfspace).
    """
    if is_zero(u):
        return u
    den = 1
    for a in u:
        den = den * a.denominator // gcd(den, a.denominator)
    ints = [int(a * den) for a in u]
    g = 0
    for z in ints:
        g = gcd(g, abs(z))
    return tuple(Fraction(z // g) for z in ints)


def primitive_signed(u: Vec) -> Vec:
    """Primitive form with the first nonzero coordinate positive (for lines,
    equalities and hyperplane identity)."""
    p = primitive(u)
    for a in p:
        if a != 0:
            return p if a > 0 else neg(p)
    return p


def rref(rows: list[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    n = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: list[Vec]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: list[Vec], n: int) -> list[Vec]:
    """Basis of {x : r.x = 0 for all r in rows} in R^n."""
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(primitive_signed(tuple(v)))
    return basis


def solve(rows: list[Vec], rhs: list[Fraction]) -> Vec | None:
    """One solution of rows . x = rhs, or None if inconsistent."""
    if not rows:
        return None
    n = len(rows[0])
    aug = [tuple(list(r) + [b]) for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    x = [Fraction(0)] * n
    for row, pc in zip(red, pivots):
        if pc == n:  # 0 = 1 row
            return None
        x[pc] = row[n]
    return tuple(x)
