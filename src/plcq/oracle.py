"""Floating-point sampling oracles for the limit-defined objects.

These approximate the limsup/liminf definitions on finite geometric
schedules.  They can refute an exact computation but never certify one;
the exact engines carry the results, the oracles cross-check them.
All sampling is deterministic given the plan's seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import INF, add, scale
from .plfunc import PLFunction
from .polyhedra import HPolyhedron, UnionPolyhedron


@dataclass(frozen=True)
class SamplePlan:
    radii: tuple = tuple(2.0 ** -k for k in range(3, 21))
    directions_per_test: int = 16
    seed: int = 0
    tolerance: float = 1e-6


def _violation(xf, P: HPolyhedron) -> float:
    """Max constraint violation at a float point; 0 inside, ~distance outside."""
    worst = 0.0
    for a, b in P.rows:
        v = sum(float(q) * t for q, t in zip(a, xf)) - float(b)
        if v > worst:
            worst = v
    for e, d in P.eqs:
        v = abs(sum(float(q) * t for q, t in zip(e, xf)) - float(d))
        if v > worst:
            worst = v
    return worst


def _union_violation(xf, S: UnionPolyhedron) -> float:
    return min((_violation(xf, p) for p in S.pieces), default=INF)


def _float_vec(v) -> list[float]:
    return [float(q) for q in v]


def sample_clarke_dirderiv(f: PLFunction, x, h, plan: SamplePlan = SamplePlan()) -> float:
    """limsup over z -> x, t -> 0+ of (f(z+th) - f(z))/t: the maximal
    difference quotient over base points inside the smallest sampling radii.
    Coarse radii would cross cells that are not local to x, so only the tail
    of the schedule enters; the estimate converges from below for PL f."""
    rng = random.Random(plan.seed)
    xf, hf = _float_vec(x), _float_vec(h)
    best = -INF
    for r in plan.radii[-6:]:
        for _ in range(plan.directions_per_test):
            z = [xi + r * rng.uniform(-1.0, 1.0) for xi in xf]
            for t in (r, r / 4.0, r / 16.0):
                zt = [zi + t * hi for zi, hi in zip(z, hf)]
                fz = f.value_float(z)
                fzt = f.value_float(zt)
                if fz == INF or fzt == INF:
                    continue
                q = (fzt - fz) / t
                if q > best:
                    best = q
    return best


def _attainable(S: UnionPolyhedron, base, v, t: float, tol: float) -> bool:
    """Some v' with |v' - v| = O(tol) keeps base + t v' in S."""
    p = [b + t * vi for b, vi in zip(base, v)]
    return _union_violation(p, S) <= tol * max(t, 1e-300)


def sample_contingent_membership(S: UnionPolyhedron, x, v,
                                 plan: SamplePlan = SamplePlan()) -> bool:
    """v in T(S, x): along some t_n -> 0+ a perturbation v_n -> v stays in S.
    Realized as the scaled violation of x + t v tending to zero."""
    xf, vf = _float_vec(x), _float_vec(v)
    tail = plan.radii[len(plan.radii) // 2:]
    return all(_attainable(S, xf, vf, t, plan.tolerance) for t in tail)


def sample_clarke_tangent_membership(S: UnionPolyhedron, x, v,
                                     plan: SamplePlan = SamplePlan()) -> bool:
    """v in T_c(S, x): from every nearby base point of S, along every
    t_n -> 0+, some v_n -> v stays inside.  Base points are drawn exactly
    inside S near x using the direction cones of its pieces."""
    rng = random.Random(plan.seed)
    vf = _float_vec(v)
    bases: list[list[float]] = [_float_vec(x)]
    host = [p for p in S.pieces if p.contains(tuple(Fraction(q) for q in x))]
    gens = []
    for p in host:
        vr = p.direction_cone(tuple(Fraction(q) for q in x)).generators()
        gens += [g for g in vr.rays] + [g for g in vr.lines] + [scale(g, -1) for g in vr.lines]
    for delta_exp in range(4, 14, 3):
        delta = Fraction(1, 2 ** delta_exp)
        for g in gens:
            cand = add(tuple(Fraction(q) for q in x), scale(g, delta))
            if S.contains(cand):
                bases.append(_float_vec(cand))
    if len(bases) > 12:
        bases = [bases[0]] + rng.sample(bases[1:], 11)
    tail = plan.radii[len(plan.radii) // 2:]
    return all(_attainable(S, b, vf, t, plan.tolerance) for b in bases for t in tail)


def sample_frechet_subgradient_check(f: PLFunction, x, xs,
                                     plan: SamplePlan = SamplePlan()) -> bool:
    """liminf_{y->x} (f(y) - f(x) - xs.(y-x))/||y-x|| >= 0, refuted when the
    quotient stays below -tolerance on every small radius."""
    rng = random.Random(plan.seed)
    xf = _float_vec(x)
    xsf = _float_vec(xs)
    fx = f.value_float(xf)
    if fx == INF:
        raise ValueError("Frechet subgradient check needs a basepoint in dom f")
    tail = plan.radii[len(plan.radii) // 2:]
    bad_radii = 0
    for r in tail:
        worst = INF
        for _ in range(plan.directions_per_test):
            u = [rng.uniform(-1.0, 1.0) for _ in xf]
            nrm = max(abs(q) for q in u)
            if nrm == 0.0:
                continue
            y = [xi + r * ui / nrm for xi, ui in zip(xf, u)]
            fy = f.value_float(y)
            if fy == INF:
                continue
            step = max(abs(yi - xi) for yi, xi in zip(y, xf))
            q = (fy - fx - sum(s * (yi - xi) for s, yi, xi in zip(xsf, y, xf))) / step
            if q < worst:
                worst = q
        if worst < -plan.tolerance:
            bad_radii += 1
    return bad_radii < len(tail)
