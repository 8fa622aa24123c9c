"""Differential test of the simplex kernel against a reference solver.

The reference is the earlier two-phase solver, kept here verbatim: it splits
every free variable as x = u - w and gives every row an artificial.  Both
solvers must agree on the status and the exact optimal value.  Points and
rays may differ where the optimum is not unique, so they are checked on
their own, exactly: a point is feasible and attains the value, and a ray
keeps every constraint and strictly improves the objective.
"""

import random
from fractions import Fraction

import pytest

from plcq import simplex
from plcq.cq import Analysis, verify_theorems
from plcq.instances import generate_corpus
from plcq.linalg import Vec, dot, is_zero
from plcq.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, lp_solve

F = Fraction


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

class _Tableau:
    def __init__(self, ncols: int):
        self.rows: list[list[Fraction]] = []  # each row: ncols coefficients + rhs
        self.basis: list[int] = []
        self.ncols = ncols

    def pivot(self, r: int, j: int) -> None:
        row = self.rows[r]
        inv = 1 / row[j]
        self.rows[r] = row = [x * inv for x in row]
        for i, other in enumerate(self.rows):
            if i != r and other[j] != 0:
                f = other[j]
                self.rows[i] = [x - f * y for x, y in zip(other, row)]
        self.basis[r] = j

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        zc = list(cost)
        for i, bi in enumerate(self.basis):
            cb = cost[bi]
            if cb != 0:
                row = self.rows[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        zc[j] -= cb * row[j]
        return zc

    def objective_value(self, cost: list[Fraction]) -> Fraction:
        return sum((cost[bi] * self.rows[i][-1] for i, bi in enumerate(self.basis)),
                   Fraction(0))

    def run(self, cost: list[Fraction]) -> int | None:
        """Bland iterations until optimal (None) or unbounded (entering col)."""
        while True:
            zc = self.reduced_costs(cost)
            enter = next((j for j in range(self.ncols) if zc[j] > 0), None)
            if enter is None:
                return None
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return enter
            self.pivot(leave, enter)


def reference_lp_solve(objective: Vec, rows, eqs=(), sense: str = "max") -> LPResult:
    """Exact LP over {x : a.x <= b for (a,b) in rows, e.x = d for (e,d) in eqs}."""
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    n = len(objective)
    flip = -1 if sense == "min" else 1
    c = [flip * q for q in objective]

    sys_rows = []
    nslack = 0
    for a, b in rows:
        if len(a) != n:
            raise ValueError("dimension mismatch in constraint row")
        if is_zero(a):
            if b < 0:
                return LPResult(INFEASIBLE)
            continue
        sys_rows.append((a, b, nslack))
        nslack += 1
    sys_eqs = []
    for e, d in eqs:
        if len(e) != n:
            raise ValueError("dimension mismatch in equality row")
        if is_zero(e):
            if d != 0:
                return LPResult(INFEASIBLE)
            continue
        sys_eqs.append((e, d))

    ncols = 2 * n + nslack
    m = len(sys_rows) + len(sys_eqs)
    tab = _Tableau(ncols + m)  # phase-1 artificials occupy the last m columns

    def build_row(a: Vec, rhs: Fraction, slack: int | None) -> list[Fraction]:
        row = [Fraction(0)] * (ncols + m + 1)
        for j, q in enumerate(a):
            row[j] = q
            row[n + j] = -q
        if slack is not None:
            row[2 * n + slack] = Fraction(1)
        row[-1] = rhs
        return row

    k = 0
    for a, b, s in sys_rows:
        row = build_row(a, b, s)
        if b < 0:
            row = [-x for x in row]
        row[ncols + k] = Fraction(1)
        tab.rows.append(row)
        tab.basis.append(ncols + k)
        k += 1
    for e, d in sys_eqs:
        row = build_row(e, d, None)
        if d < 0:
            row = [-x for x in row]
        row[ncols + k] = Fraction(1)
        tab.rows.append(row)
        tab.basis.append(ncols + k)
        k += 1

    # phase 1: maximize minus the sum of artificials
    art_cost = [Fraction(0)] * (ncols + m)
    for j in range(ncols, ncols + m):
        art_cost[j] = Fraction(-1)
    tab.run(art_cost)
    if tab.objective_value(art_cost) != 0:
        return LPResult(INFEASIBLE)

    # drive leftover artificials out of the basis, dropping null rows
    i = 0
    while i < len(tab.rows):
        if tab.basis[i] >= ncols:
            j = next((j for j in range(ncols) if tab.rows[i][j] != 0), None)
            if j is None:
                del tab.rows[i]
                del tab.basis[i]
                continue
            tab.pivot(i, j)
        i += 1

    # phase 2 on the real objective
    tab.rows = [row[:ncols] + [row[-1]] for row in tab.rows]
    tab.ncols = ncols
    cost = [Fraction(0)] * ncols
    for j in range(n):
        cost[j] = c[j]
        cost[n + j] = -c[j]

    enter = tab.run(cost)

    def current_point() -> Vec:
        full = [Fraction(0)] * ncols
        for i, bi in enumerate(tab.basis):
            full[bi] = tab.rows[i][-1]
        return tuple(full[j] - full[n + j] for j in range(n))

    if enter is not None:
        direction = [Fraction(0)] * ncols
        direction[enter] = Fraction(1)
        for i, bi in enumerate(tab.basis):
            direction[bi] = -tab.rows[i][enter]
        # the ray improves the stated objective (increases a max, decreases a min)
        ray = tuple(direction[j] - direction[n + j] for j in range(n))
        return LPResult(UNBOUNDED, point=current_point(), ray=ray)

    value = flip * tab.objective_value(cost)
    return LPResult(OPTIMAL, value=value, point=current_point())


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _feasible(p: Vec, rows, eqs) -> bool:
    return all(dot(a, p) <= b for a, b in rows) and all(dot(e, p) == d for e, d in eqs)


def check_against_reference(objective, rows, eqs=(), sense="max") -> str:
    """Solve with both solvers, assert agreement and exact certificates, and
    return the status."""
    ref = reference_lp_solve(objective, rows, eqs, sense)
    res = lp_solve(objective, rows, eqs, sense)
    assert res.status == ref.status
    assert res.value == ref.value
    if res.status == OPTIMAL:
        assert type(res.value) is Fraction
        assert _feasible(res.point, rows, eqs)
        assert dot(objective, res.point) == res.value
    elif res.status == UNBOUNDED:
        assert _feasible(res.point, rows, eqs)
        r = res.ray
        assert all(dot(a, r) <= 0 for a, _ in rows)
        assert all(dot(e, r) == 0 for e, _ in eqs)
        gain = dot(objective, r)
        assert gain > 0 if sense == "max" else gain < 0
    else:
        assert res.point is None and res.ray is None
    return res.status


def _random_lp(rng: random.Random):
    n = rng.randint(1, 4)

    def coeffs():
        return tuple(F(rng.randint(-3, 3)) for _ in range(n))

    def rhs():
        return F(rng.randint(-4, 6), rng.randint(1, 3))

    rows = [(coeffs(), rhs()) for _ in range(rng.randint(0, 6))]
    eqs = [(coeffs(), rhs()) for _ in range(rng.randint(0, 2))]
    return coeffs(), rows, eqs, rng.choice(("max", "min"))


def test_random_lps_match_reference():
    rng = random.Random(20261018)
    seen = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
    for _ in range(600):
        seen[check_against_reference(*_random_lp(rng))] += 1
    assert all(count >= 50 for count in seen.values()), seen


def _vecs(*rows):
    return [tuple(F(q) for q in a) for a in rows]


BEALE = (
    # Beale's example, which cycles under the textbook largest-coefficient rule
    _vecs((F(-3, 4), 20, F(-1, 2), 6))[0],
    [(a, F(b)) for a, b in zip(_vecs((F(1, 4), -8, -1, 9), (F(1, 2), -12, F(-1, 2), 3),
                                     (0, 0, 1, 0), (-1, 0, 0, 0), (0, -1, 0, 0),
                                     (0, 0, -1, 0), (0, 0, 0, -1)),
                               (0, 0, 1, 0, 0, 0, 0))],
    [],
    "min",
)

HAND_CASES = {
    "beale": BEALE,
    "duplicate-rows": (_vecs((1, 1))[0],
                       [(a, F(1)) for a in _vecs((1, 0), (1, 0), (0, 1), (0, 1))], [], "max"),
    "redundant-equalities": (_vecs((1, -1))[0], [(a, F(2)) for a in _vecs((1, 0), (0, 1))],
                             [(a, F(d)) for a, d in zip(_vecs((1, 1), (2, 2), (-1, -1)),
                                                        (1, 2, -1))], "max"),
    "inconsistent-equalities": (_vecs((1, 0))[0], [],
                                [(a, F(d)) for a, d in zip(_vecs((1, 1), (2, 2)), (1, 3))],
                                "max"),
    "zero-rows-kept": (_vecs((1,))[0], [(_vecs((0,))[0], F(0)), (_vecs((1,))[0], F(2))],
                       [(_vecs((0,))[0], F(0))], "max"),
    "zero-row-infeasible": (_vecs((1,))[0], [(_vecs((0,))[0], F(-1))], [], "max"),
    "zero-eq-infeasible": (_vecs((1,))[0], [], [(_vecs((0,))[0], F(1))], "min"),
    "no-rows": (_vecs((0, 0))[0], [], [], "max"),
    "no-rows-unbounded": (_vecs((0, -2))[0], [], [], "min"),
    "absent-free-zero-cost": (_vecs((1, 0))[0], [(_vecs((1, 0))[0], F(3))], [], "max"),
    "absent-free-cost": (_vecs((1, 5))[0], [(_vecs((1, 0))[0], F(3))], [], "max"),
    "absent-free-cost-min": (_vecs((0, 5))[0], [(_vecs((1, 0))[0], F(3))],
                             [(_vecs((1, 0))[0], F(1))], "min"),
    "negative-rhs-degenerate": (_vecs((-1, -1))[0],
                                [(a, F(b)) for a, b in zip(_vecs((-1, 0), (0, -1), (-1, -1)),
                                                           (-1, -1, -2))], [], "max"),
    "equality-only-point": (_vecs((2, 3))[0], [],
                            [(a, F(d)) for a, d in zip(_vecs((1, 0), (0, 1)), (-1, 2))], "min"),
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_cases_match_reference(name):
    check_against_reference(*HAND_CASES[name])


def test_beale_optimum():
    res = lp_solve(*BEALE[:3], sense="min")
    assert res.status == OPTIMAL and res.value == F(-5, 4)


def test_absent_free_variable_statuses():
    assert lp_solve(*HAND_CASES["absent-free-zero-cost"][:3]).status == OPTIMAL
    res = lp_solve(*HAND_CASES["absent-free-cost"][:3])
    assert res.status == UNBOUNDED and res.ray[1] > 0


@pytest.mark.parametrize("extended", [False, True])
def test_captured_battery_lps_match_reference(monkeypatch, extended):
    captured = []

    def recording(objective, rows, eqs=(), sense="max"):
        captured.append((objective, list(rows), list(eqs), sense))
        return lp_solve(objective, rows, eqs, sense)

    monkeypatch.setattr(simplex, "lp_solve", recording)
    for dim in (1, 2):
        for inst in generate_corpus(10, dim, seed=31 + dim, extended=extended, max_atoms=4,
                                    points_per_instance=1):
            for x in inst.basepoints:
                verify_theorems(Analysis(inst.f, x))
    monkeypatch.undo()
    assert len(captured) >= 20
    for lp in captured:
        check_against_reference(*lp)
