"""Two-phase primal simplex over exact rationals.

Solves  max/min  c.x  s.t.  A x <= b,  E x = d,  x free in R^n.

Every inequality gets a slack, which starts in the basis.  Each free
variable keeps its own column and is pivoted into the basis first, onto an
equality row when one is left, else onto an inequality row; it never leaves
the basis again.  Free variables are thus eliminated in place: their rows
are set aside and read back only to recover the point, and the simplex
proper runs on the slack columns alone.  Phase one adds an artificial
variable only to an equality row that received no free variable and to a
row whose right-hand side is then negative.  The objective row is one more
tableau row, updated at every pivot.  Pivoting follows Bland's rule on the
slack columns, so the method terminates on every input and every number
stays an exact Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vec, is_zero

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class LPResult:
    status: str
    value: Fraction | None = None
    point: Vec | None = None
    ray: Vec | None = None


def _pivot(rows: list[list[Fraction]], r: int, j: int, carried) -> None:
    """Scale row r to a unit entry in column j and eliminate column j from
    the other rows and from the carried objective rows, skipping zeros."""
    row = rows[r]
    inv = 1 / row[j]
    nz = [k for k, q in enumerate(row) if q]
    for k in nz:
        row[k] *= inv
    for other in (*rows, *carried):
        if other is not row and other[j]:
            f = other[j]
            for k in nz:
                other[k] -= f * row[k]


def _bland(rows, basis: list[int], z: list[Fraction], carried, ncols: int) -> int | None:
    """Maximize with objective row z (reduced costs, then minus the value)
    by Bland's rule over the first ncols columns.  Returns None at an optimum,
    or the entering column along which the objective grows without bound."""
    carried = (z,) + tuple(carried)
    while True:
        enter = next((j for j in range(ncols) if z[j] > 0), None)
        if enter is None:
            return None
        leave = best = None
        for i, row in enumerate(rows):
            q = row[enter]
            if q > 0:
                ratio = row[-1] / q
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return enter
        _pivot(rows, leave, enter, carried)
        basis[leave] = enter


def _complete(free_rows, v: list[Fraction], n: int, rhs: bool) -> Vec:
    """Fill in the basic free variables of v = (x, slacks) from their rows,
    homogeneous ones when rhs is False (for rays); returns x."""
    for f, row in free_rows:
        v[f] = (row[-1] if rhs else 0) - sum((q * w for q, w in zip(row, v) if q and w),
                                             Fraction(0))
    return tuple(v[:n])


def lp_solve(objective: Vec, rows, eqs=(), sense: str = "max") -> LPResult:
    """Exact LP over {x : a.x <= b for (a,b) in rows, e.x = d for (e,d) in eqs}."""
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    n = len(objective)
    flip = -1 if sense == "min" else 1

    ineqs = []
    for a, b in rows:
        if len(a) != n:
            raise ValueError("dimension mismatch in constraint row")
        if is_zero(a):
            if b < 0:
                return LPResult(INFEASIBLE)
            continue
        ineqs.append((a, b))
    equals = []
    for e, d in eqs:
        if len(e) != n:
            raise ValueError("dimension mismatch in equality row")
        if is_zero(e):
            if d != 0:
                return LPResult(INFEASIBLE)
            continue
        equals.append((e, d))

    # tableau over (x, slacks | rhs): equality rows first, so that free
    # variables land on them first, then each inequality with its slack
    m = len(ineqs)
    zero = Fraction(0)
    tab = [list(e) + [zero] * m + [d] for e, d in equals]
    slack_of = [None] * len(equals)
    for s, (a, b) in enumerate(ineqs):
        row = list(a) + [zero] * m + [b]
        row[n + s] = Fraction(1)
        tab.append(row)
        slack_of.append(s)
    z = [flip * q for q in objective] + [zero] * (m + 1)

    # pivot each free variable in once; its row leaves the simplex proper
    free_at = [None] * len(tab)
    for j in range(n):
        r = next((i for i, row in enumerate(tab) if free_at[i] is None and row[j]), None)
        if r is not None:
            _pivot(tab, r, j, (z,))
            free_at[r] = j
    free_rows = [(j, row) for j, row in zip(free_at, tab) if j is not None]

    # the remaining rows involve slacks only; artificials (numbered from m,
    # never stored as columns) cover rows without a feasible basic variable
    srows: list[list[Fraction]] = []
    basis: list[int] = []
    for j, s, row in zip(free_at, slack_of, tab):
        if j is not None:
            continue
        body = row[n:]
        if body[-1] < 0:
            body = [-q for q in body]
            s = None
        srows.append(body)
        basis.append(m + len(basis) if s is None else s)
    z_free, z = z[:n], z[n:]

    if any(b >= m for b in basis):
        # phase 1: maximize minus the sum of artificials
        z1 = [sum(col) for col in zip(*(row for row, b in zip(srows, basis) if b >= m))]
        _bland(srows, basis, z1, (z,), m)
        if z1[-1] != 0:
            return LPResult(INFEASIBLE)
        # drive leftover artificials out of the basis, dropping null rows
        i = 0
        while i < len(srows):
            if basis[i] >= m:
                j = next((j for j in range(m) if srows[i][j]), None)
                if j is None:
                    del srows[i]
                    del basis[i]
                    continue
                _pivot(srows, i, j, (z,))
                basis[i] = j
            i += 1

    def point() -> Vec:
        v = [zero] * (n + m)
        for row, b in zip(srows, basis):
            v[n + b] = row[-1]
        return _complete(free_rows, v, n, True)

    # phase 2: a nonbasic free column with a nonzero reduced cost moves
    # either way without touching a slack, so the LP is unbounded along it
    j = next((j for j, q in enumerate(z_free) if q), None)
    if j is not None:
        d = [zero] * (n + m)
        d[j] = Fraction(1 if z_free[j] > 0 else -1)
        return LPResult(UNBOUNDED, point=point(), ray=_complete(free_rows, d, n, False))

    enter = _bland(srows, basis, z, (), m)
    if enter is not None:
        d = [zero] * (n + m)
        d[n + enter] = Fraction(1)
        for row, b in zip(srows, basis):
            d[n + b] = -row[enter]
        # the ray improves the stated objective (increases a max, decreases a min)
        return LPResult(UNBOUNDED, point=point(), ray=_complete(free_rows, d, n, False))
    return LPResult(OPTIMAL, value=-flip * z[-1], point=point())
