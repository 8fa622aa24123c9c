"""The theorem battery against its grid-sampled predecessor.

`grid_verify_theorems` below is the battery as it stood before the identity
table: 18 closures that sample each strong-BCQ identity on a tau grid around
the known thresholds, with the per-tau direction-wise test
`_dirwise_strong_holds`.  It is kept verbatim as the reference; the table
decides the same identities exactly at a few probe points, and the result
dicts must agree.  The edge cases below pin down the closed-form thresholds
and the probe comparison on their own.

Proposition 3.2 has its own reference route here: the three-scale
`verify_prop32`, which decides the half-open identity (ii) with one
`_in_scaled_sum` membership LP per point of a sampled battery, kept verbatim.
The library decides all four identities once, at one scale, and (ii) by
comparing the homogenization cone hom(C) with hom(C) + K x {0}; both must
give the same verdicts.

The scaled-set routes that the library replaced by one threshold per point
and one cone over C per set are kept verbatim too: the lifted (z, t, k)
cone in R^(2n+1) with its projections (`_lifted_rows`, `_lifted_cone`,
`_scaled_sum_projection`, `_half_open_sums_agree`) and the one-scale
Propositions 3.2 and 4.1 built on it, the scaled membership `in_scaled_set`
behind the plain and Frechet BCQ, and the closed-hull extended BCQ.  They
are compared with the library on the corpora and on seeded random triples
(N, C, K) with rec(C) inside K, where the inclusions also fail.

The tau quantities have LP reference routes here too, kept verbatim: the
vertex threshold t*(z) of the strong BCQ as up to two LPs over the lifted
(t, k) system (`_scaled_sum_threshold`), and the direction-wise tau and the
error-bound modulus as one fractional LP per refined cone
(`_best_tau_cells`).  The library reads the threshold off the scaling
interval of C + K and the direction-wise taus off the cone generators; both
must give the same values.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import plcq
from plcq import cq, polyhedra, simplex
from plcq.cones import clarke_normal_cone, frechet_normal_cone
from plcq.cq import (FLAG_CONVENTION, MODE_CLARKE, MODE_EXTENDED, MODE_FRECHET, Analysis,
                     NotApplicable, _ball_slice_vertices, _dirwise_tau, _endset_tau, _holds,
                     _Identity, _probes, _refined_cells, _vertex_threshold,
                     best_tau_directional, best_tau_endset,
                     check_clarke_bcq, check_extended_bcq, check_frechet_bcq,
                     check_strong_bcq, check_subdiff_in_normal, check_tangent_inclusion,
                     endset_distance, error_bound_modulus, strong_bcq_thresholds,
                     verify_theorems)
from plcq.instances import generate_corpus
from plcq.linalg import INF, Vec, dot, is_zero, neg, vec, zeros
from plcq.plfunc import PLFunction, atom, vmax, vmin
from plcq.polyhedra import (HPolyhedron, NormSpec, hull, minkowski_sum, nonneg_hull,
                            polar_cone, scale_interval, segment_hull)
from plcq.subdiff import NotLipschitz

from conftest import random_polyhedron

F = Fraction
_GRID = Fraction(1, 1024)  # tightness certification grid 1 - 1/1024


# ---------------------------------------------------------------------------
# reference: the lifted (z, t, k) system and scaled membership, verbatim
# ---------------------------------------------------------------------------

def _lifted_rows(C: HPolyhedron, K: HPolyhedron):
    """Rows and equalities of z - k in tC, k in K, t >= 0 over (z, t, k), each
    as (z part or None when it is zero, (t, k) part, right-hand side).  For
    t > 0 the first block reads z - k in tC; at t = 0 it reads z - k in rec(C)."""
    zero = Fraction(0)
    # a.(z - k) <= t b, and k in K
    rows = [(a, (-b,) + neg(a), zero) for a, b in C.rows]
    eqs = [(e, (-d,) + neg(e), zero) for e, d in C.eqs]
    rows += [(None, (zero,) + a, b) for a, b in K.rows]
    eqs += [(None, (zero,) + e, d) for e, d in K.eqs]
    rows.append((None, (Fraction(-1),) + zeros(C.dim), zero))
    return rows, eqs


def _lifted_cone(C: HPolyhedron, K: HPolyhedron) -> HPolyhedron:
    """{(z, t, k) : z - k in tC, k in K, t >= 0} in R^(2n+1), read at t = 0
    as z - k in rec(C)."""
    n = C.dim
    rows, eqs = (
        [((zeros(n) if za is None else za) + a, b) for za, a, b in block]
        for block in _lifted_rows(C, K))
    return HPolyhedron(2 * n + 1, rows, eqs)


def _scaled_sum_projection(C: HPolyhedron, K: HPolyhedron, r) -> HPolyhedron:
    """[0,r]C + K as the z-projection of the lifted polyhedron capped at
    t <= r, valid whenever rec(C) is contained in K (checked by callers)."""
    n = C.dim
    lifted = _lifted_cone(C, K)
    cap = HPolyhedron(lifted.dim, [(zeros(n) + (Fraction(1),) + zeros(n), Fraction(r))])
    return lifted.intersect(cap).project(tuple(range(n))).canonical()


def _half_open_sums_agree(C: HPolyhedron, K: HPolyhedron) -> bool:
    """(0,r]C + K == (0,r]C for every r > 0, for nonempty C.

    The projections onto (z, t) of the lifted polyhedra for K and for {0}
    are the closures of their t > 0 parts, whose slices at t are tC + K and
    tC, so they are equal iff tC + K = tC for every t > 0.  That gives the
    identity at every r; conversely the identity puts c + lambda k in
    (0,r]C for all lambda >= 0, which forces k into rec(C) and so
    tC + K = tC.  No LP is solved."""
    keep = tuple(range(C.dim + 1))
    point0 = HPolyhedron.single_point(zeros(C.dim))
    return _lifted_cone(C, K).project(keep).set_eq(_lifted_cone(C, point0).project(keep))


def lifted_verify_prop32(an, r) -> dict:
    """The four subdifferential/singular-cone identities at scale r > 0, for
    C = @c f(x) and K = @c^inf f(x): (i) C + rK = C, (ii) (0,r]C + K =
    (0,r]C, (iii) K inside cl((0,r]C), (iv) cl([0,r]C) = [0,r]C + K, with
    (ii) and (iv) read off the lifted cone."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("scale must be positive")
    sub, sing = an.clarke, an.singular
    if sub.is_empty:
        raise NotApplicable("empty Clarke subdifferential")
    if sub.recession().subset_of(sing) is not True:
        raise RuntimeError("recession cone of the Clarke subdifferential "
                           "is not inside the singular cone")
    out = {}
    out["i"] = minkowski_sum(sub, sing).set_eq(sub)
    closure = segment_hull(sub, r)
    out["iii"] = sing.subset_of(closure) is True
    out["iv"] = closure.set_eq(_scaled_sum_projection(sub, sing, r))
    out["ii"] = _half_open_sums_agree(sub, sing)
    return out


def lifted_prop41(an) -> bool:
    """cl([0,1]C) = [0,1]C for the Frechet subdifferential C; by the scaling
    lemma with K = {0} this decides every scale r > 0."""
    sub = an.frechet
    if sub.is_empty:
        raise NotApplicable("empty Frechet subdifferential")
    point0 = HPolyhedron.single_point(zeros(an.f.dim))
    return segment_hull(sub, 1).set_eq(_scaled_sum_projection(sub, point0, 1))


def in_scaled_set(z: Vec, C: HPolyhedron, r=None, include_zero=False) -> bool:
    """Exact membership of z in (0,r]C (or [0,r]C with include_zero), where
    r=None means +oo.  [0,r]C contains 0 by definition when C is nonempty;
    (0,r]C contains 0 iff C does."""
    if C.is_empty:
        return include_zero and is_zero(z)
    if is_zero(z):
        return include_zero or C.contains(z)
    iv = scale_interval(z, C)
    if iv is None:
        return False
    lo, hi = iv
    if r is not None:
        hi = min(hi, Fraction(r)) if hi is not INF else Fraction(r)
        if hi is not INF and lo > hi:
            return False
    return hi is INF or hi > 0


def scaling_cone_bcq(N: HPolyhedron, C: HPolyhedron):
    """Decide N subset of [0,+oo)C for a closed convex cone N and convex C,
    where [0,+oo)C = {0} when C is empty (flagged as the convention).
    [0,+oo)C is a convex cone, so generator membership suffices; membership
    of z != 0 is an exact one-dimensional scaling test, which stays correct
    even when [0,+oo)C fails to be closed (unreachable recession directions).

    Returns (holds, witness_or_None, flags)."""
    v = N.generators()
    if C.is_empty:
        holds = N.set_eq(HPolyhedron.single_point(zeros(N.dim)))
        return holds, None if holds else (v.rays + v.lines)[0], {FLAG_CONVENTION}
    for d in v.rays + tuple(x for l in v.lines for x in (l, neg(l))):
        if not in_scaled_set(d, C, None, include_zero=True):
            return False, d, set()
    return True, None, set()


def closed_hull_cone_bcq(N: HPolyhedron, sub: HPolyhedron, sing: HPolyhedron):
    """N subset of [0,+oo)C + K through the closed hull cl([0,+oo)C) + K, as
    check_extended_bcq decided it (after its guards)."""
    flags = set()
    if sub.is_empty:
        flags.add(FLAG_CONVENTION)
        rhs = sing
    else:
        # recession of the subdifferential sits inside the singular cone, so
        # the scaled hull plus the singular cone is closed
        if sub.recession().subset_of(sing) is not True:
            raise RuntimeError("recession cone of the Clarke subdifferential "
                               "is not inside the singular cone")
        rhs = minkowski_sum(nonneg_hull(sub), sing)
    w = N.subset_of(rhs)
    return (True, None, flags) if w is True else (False, w, flags)


# ---------------------------------------------------------------------------
# reference: LP thresholds and LP direction-wise taus, verbatim
# ---------------------------------------------------------------------------

def _lifted_system(z: Vec, C: HPolyhedron, K: HPolyhedron):
    """The lifted rows over (t, k) for a fixed z: the z part moves to the
    right-hand side."""
    rows, eqs = _lifted_rows(C, K)
    return ([(a, b if za is None else b - dot(za, z)) for za, a, b in rows],
            [(e, d if ze is None else d - dot(ze, z)) for ze, e, d in eqs])


def _scaled_sum_threshold(z: Vec, C: HPolyhedron, K: HPolyhedron):
    """t*(z) = inf{t > 0 : z in tC + K}, so that z lies in [0,tau]C + K iff
    t*(z) <= tau, for every tau > 0 (INF exceeds every tau).

    The feasible t of the lifted system form a closed interval T.  t* is 0
    when z is in K, or when T reaches down to 0 and holds some t > 0; it is
    INF when T is empty or {0}; otherwise it is min T, which is attained.
    At most two LPs: min t, then max t <= 1 when that minimum is 0."""
    if K.contains(z):
        return Fraction(0)
    if C.is_empty:
        return INF
    rows, eqs = _lifted_system(z, C, K)
    obj = (Fraction(1),) + zeros(C.dim)
    res = simplex.lp_solve(obj, rows, eqs, sense="min")
    if res.status != simplex.OPTIMAL:
        return INF
    if res.value > 0:
        return res.value
    rows.append(((Fraction(1),) + zeros(C.dim), Fraction(1)))
    res = simplex.lp_solve(obj, rows, eqs, sense="max")
    return Fraction(0) if res.value > 0 else INF


def _best_tau_cells(W: list[Vec], G: list[Vec], dim: int):
    """Infimal tau with max_k w.h <= tau * max{0, max_j g.h} everywhere;
    INF when no finite tau works; 0 means every positive tau works."""
    if all(is_zero(w) for w in W):
        return Fraction(0)
    best = Fraction(0)
    for u, w, C in _refined_cells(W, G, dim):
        v = C.generators()
        if is_zero(u):
            # max{0, .} vanishes here, so the distance must too
            if any(dot(w, r) > 0 for r in v.rays) or any(dot(w, l) != 0 for l in v.lines):
                return INF
            continue
        res = simplex.lp_solve(w, rows=C.rows, eqs=[(u, Fraction(1))])
        if res.status == simplex.UNBOUNDED:
            return INF
        if res.status == simplex.OPTIMAL:
            best = max(best, res.value)
    return best


# ---------------------------------------------------------------------------
# reference: Proposition 3.2 at three scales on a point battery, verbatim
# ---------------------------------------------------------------------------

def _in_scaled_sum(z: Vec, C: HPolyhedron, K: HPolyhedron, r, include_zero=True) -> bool:
    """z in (0,r]C + K, or [0,r]C + K when include_zero (then t=0 contributes
    exactly K, since [0,r]C contains 0)."""
    if C.is_empty:
        return include_zero and K.contains(z)
    if include_zero and K.contains(z):
        return True
    rows, eqs = _lifted_system(z, C, K)
    rows.append(((Fraction(1),) + zeros(C.dim), Fraction(r)))
    obj = (Fraction(1),) + zeros(C.dim)
    res = simplex.lp_solve(obj, rows, eqs, sense="max")
    return res.status == simplex.OPTIMAL and res.value > 0


def verify_prop32(an: Analysis, r) -> dict:
    """The four subdifferential/singular-cone identities at scale r > 0:
    (i) @c + r @c^inf = @c, (ii) (0,r]@c + @c^inf = (0,r]@c,
    (iii) @c^inf inside cl((0,r]@c), (iv) cl([0,r]@c) = [0,r]@c + @c^inf.
    Closed identities are polyhedral equalities between two independently
    built sets; the half-open (ii) adds exact scaled-membership bookkeeping
    on a deterministic point battery."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("scale must be positive")
    sub, sing = an.clarke, an.singular
    if sub.is_empty:
        raise NotApplicable("empty Clarke subdifferential")
    if sub.recession().subset_of(sing) is not True:
        raise RuntimeError("recession cone of the Clarke subdifferential "
                           "is not inside the singular cone")
    out = {}
    out["i"] = minkowski_sum(sub, sing).set_eq(sub)
    closure = segment_hull(sub, r)
    out["iii"] = sing.subset_of(closure) is True
    projected = _scaled_sum_projection(sub, sing, r)
    out["iv"] = closure.set_eq(projected)

    battery = [zeros(an.f.dim)]
    battery += list(closure.generators().vertices)
    battery += [g for g in closure.generators().rays]
    vs = sub.generators()
    battery += [scale_point for p in vs.vertices
                for scale_point in (tuple(q * r for q in p), tuple(q * r / 2 for q in p))]
    battery += list(sing.generators().rays)
    for p in list(battery):
        for k in sing.generators().rays:
            battery.append(tuple(a + b for a, b in zip(p, k)))
    ok = True
    for z in battery:
        lhs = _in_scaled_sum(z, sub, sing, r, include_zero=False)
        rhs = in_scaled_set(z, sub, r, include_zero=False)
        if lhs != rhs:
            ok = False
            break
    out["ii"] = ok
    return out


# ---------------------------------------------------------------------------
# reference: the grid-sampled battery, verbatim
# ---------------------------------------------------------------------------

def _dirwise_strong_holds(W: list[Vec], G: list[Vec], tau, dim: int) -> bool:
    """Does d(h,T) <= tau * max{0, phi-support(h)} hold for all h?  Evaluated
    exactly on the generators of every full-dimensional refined cone."""
    tau = Fraction(tau)
    for u, w, C in _refined_cells(W, G, dim):
        v = C.generators()
        for r in v.rays:
            if dot(w, r) > tau * dot(u, r):
                return False
        for l in v.lines:
            if dot(w, l) != tau * dot(u, l):
                return False
    return True


def _tau_grid(taus) -> list[Fraction]:
    grid = {Fraction(1, 1024), Fraction(1, 3), Fraction(1), Fraction(3), Fraction(1024)}
    for t in taus:
        if t is not INF and t > 0:
            grid |= {t, t * (1 - _GRID), t * (1 + _GRID)}
    return sorted(grid)


def _rhs_endset(bcq: bool, d, tau: Fraction) -> bool:
    return bcq and (d is INF or d >= 1 / tau)


def grid_verify_theorems(an: Analysis) -> dict:
    """Each paper identity evaluated from independent routes; values are
    'pass', 'fail' or 'not-applicable'."""
    results: dict[str, str] = {}

    def run(name, fn):
        try:
            results[name] = "pass" if fn() else "fail"
        except (NotApplicable, NotLipschitz) as e:
            results[name] = "not-applicable"

    def clarke_setup():
        an.require_boundary()
        an.require_lipschitz()
        bcq, _, _ = check_clarke_bcq(an)
        d = endset_distance(an, MODE_CLARKE)
        tau_d, _ = best_tau_directional(an, MODE_CLARKE)
        tau_e, fl = best_tau_endset(an, MODE_CLARKE)
        return bcq, d, tau_d, tau_e

    def thm_3_1():
        bcq, d, tau_d, tau_e = clarke_setup()
        if bcq and not (tau_d == tau_e or (tau_d is INF and tau_e is INF)):
            return False
        for tau in _tau_grid([tau_d, tau_e]):
            holds, _ = check_strong_bcq(an, tau, MODE_CLARKE)
            if holds != _rhs_endset(bcq, d, tau):
                return False
        return True
    run("thm3.1", thm_3_1)

    def cor_3_1():
        bcq, d, tau_d, tau_e = clarke_setup()
        if an.clarke.subset_of(an.normal_clarke) is not True:
            raise NotApplicable("needs the subdifferential inside the normal cone")
        d_sub = an.clarke_subdiff_distance
        if d != d_sub:
            return False
        for tau in _tau_grid([tau_d]):
            holds, _ = check_strong_bcq(an, tau, MODE_CLARKE)
            if holds != _rhs_endset(bcq, d_sub, tau):
                return False
        return True
    run("cor3.1", cor_3_1)

    def prop_3_1():
        check_subdiff_in_normal(an)  # raises on mismatch of the two sides
        return True
    run("prop3.1", prop_3_1)

    def thm_3_2():
        check_tangent_inclusion(an)  # raises when either direction fails
        return True
    run("thm3.2", thm_3_2)

    def thm_3_3():
        an.require_boundary()
        an.require_lipschitz()
        W = an.clarke_ball_slice
        G = an.clarke.generators().vertices
        tau_d, _ = best_tau_directional(an, MODE_CLARKE)
        for tau in _tau_grid([tau_d]):
            holds, _ = check_strong_bcq(an, tau, MODE_CLARKE)
            if holds != _dirwise_strong_holds(W, G, tau, an.f.dim):
                return False
        return True
    run("thm3.3", thm_3_3)

    def thm_3_4():
        an.require_boundary()
        an.require_lipschitz()
        bcq, _, _ = check_clarke_bcq(an)
        eb = error_bound_modulus(an)
        incl = an.clarke.subset_of(an.normal_clarke) is True
        for tau in _tau_grid([eb]):
            holds, _ = check_strong_bcq(an, tau, MODE_CLARKE)
            rhs = bcq and eb is not INF and eb <= tau
            if rhs and not holds:
                return False
            if incl and holds != rhs:
                return False
        return True
    run("thm3.4", thm_3_4)

    def cor_3_2():
        an.require_boundary()
        an.require_lipschitz()
        if not an.regular:
            raise NotApplicable("needs a regular point")
        bcq, _, _ = check_clarke_bcq(an)
        d_sub = an.clarke_subdiff_distance
        tau_e, _ = best_tau_endset(an, MODE_CLARKE)
        for tau in _tau_grid([tau_e]):
            holds, _ = check_strong_bcq(an, tau, MODE_CLARKE)
            if holds != _rhs_endset(bcq, d_sub, tau):
                return False
        return True
    run("cor3.2", cor_3_2)

    def cor_3_3():
        an.require_boundary()
        an.require_lipschitz()
        if not an.regular:
            raise NotApplicable("needs a regular point")
        bcq, _, _ = check_clarke_bcq(an)
        eb = error_bound_modulus(an)
        for tau in _tau_grid([eb]):
            holds, _ = check_strong_bcq(an, tau, MODE_CLARKE)
            rhs = bcq and eb is not INF and eb <= tau
            if holds != rhs:
                return False
        return True
    run("cor3.3", cor_3_3)

    def prop_3_2():
        if an.clarke.is_empty:
            raise NotApplicable("empty Clarke subdifferential")
        for r in (Fraction(1), Fraction(1, 2), Fraction(3)):
            res = verify_prop32(an, r)
            if not all(res.values()):
                return False
        return True
    run("prop3.2", prop_3_2)

    def thm_3_5():
        an.require_boundary()
        an.require_zero_level()
        bcq, _, _ = check_extended_bcq(an)
        d = endset_distance(an, MODE_EXTENDED)
        tau_e, _ = best_tau_endset(an, MODE_EXTENDED)
        for tau in _tau_grid([tau_e]):
            holds, _ = check_strong_bcq(an, tau, MODE_EXTENDED)
            if holds != _rhs_endset(bcq, d, tau):
                return False
        return True
    run("thm3.5", thm_3_5)

    def thm_3_6():
        an.require_boundary()
        an.require_zero_level()
        if not an.singular_is_zero:
            raise NotApplicable("needs a trivial singular subdifferential")
        bcq, _, _ = check_clarke_bcq(an)
        d = endset_distance(an, MODE_CLARKE)
        for tau in _tau_grid([Fraction(0) if d is INF else (1 / d if d > 0 else INF)]):
            holds, _ = check_strong_bcq(an, tau, MODE_CLARKE)
            if holds != _rhs_endset(bcq, d, tau):
                return False
        return True
    run("thm3.6", thm_3_6)

    def cor_3_4():
        an.require_boundary()
        an.require_zero_level()
        if an.clarke.is_empty or an.clarke.subset_of(an.normal_clarke) is not True:
            raise NotApplicable("needs the subdifferential inside the normal cone")
        bcq, _, _ = check_extended_bcq(an)
        d_sub = an.clarke_subdiff_distance
        for tau in _tau_grid([Fraction(0) if d_sub is INF else (1 / d_sub if d_sub > 0 else INF)]):
            holds, _ = check_strong_bcq(an, tau, MODE_EXTENDED)
            if holds != _rhs_endset(bcq, d_sub, tau):
                return False
        return True
    run("cor3.4", cor_3_4)

    def cor_3_5():
        an.require_boundary()
        an.require_zero_level()
        if not an.singular_is_zero:
            raise NotApplicable("needs a trivial singular subdifferential")
        if an.clarke.subset_of(an.normal_clarke) is not True:
            raise NotApplicable("needs the subdifferential inside the normal cone")
        bcq, _, _ = check_clarke_bcq(an)
        d_sub = an.clarke_subdiff_distance
        for tau in _tau_grid([]):
            holds, _ = check_strong_bcq(an, tau, MODE_CLARKE)
            if holds != _rhs_endset(bcq, d_sub, tau):
                return False
        return True
    run("cor3.5", cor_3_5)

    def prop_4_1():
        an.require_boundary()
        an.require_bounded_frechet()
        sub = an.frechet
        if sub.is_empty:
            raise NotApplicable("empty Frechet subdifferential")
        point0 = HPolyhedron.single_point(zeros(an.f.dim))
        for r in (Fraction(1), Fraction(2)):
            closure = segment_hull(sub, r)
            raw = _scaled_sum_projection(sub, point0, r)
            if not closure.set_eq(raw):
                return False
        return True
    run("prop4.1", prop_4_1)

    def thm_4_1():
        an.require_boundary()
        an.require_zero_level()
        an.require_bounded_frechet()
        bcq, _, _ = check_frechet_bcq(an)
        d = endset_distance(an, MODE_FRECHET)
        tau_e, _ = best_tau_endset(an, MODE_FRECHET)
        for tau in _tau_grid([tau_e]):
            holds, _ = check_strong_bcq(an, tau, MODE_FRECHET)
            if holds != _rhs_endset(bcq, d, tau):
                return False
        return True
    run("thm4.1", thm_4_1)

    def cor_4_1():
        an.require_boundary()
        an.require_lipschitz()
        assert an.phi_value == 0, "continuous boundary points sit on the zero level"
        return thm_4_1()
    run("cor4.1", cor_4_1)

    def prop_4_2():
        an.require_boundary()
        an.require_bounded_frechet()
        bcq, _, _ = check_frechet_bcq(an)
        lhs = HPolyhedron(an.f.dim,
                          [(g, Fraction(0)) for g in an.frechet.generators().vertices]).canonical()
        rhs = an.tangent_contingent.convex_hull().canonical()
        eq48 = lhs.set_eq(rhs)
        if bcq and not eq48:
            return False
        if not an.frechet.contains(zeros(an.f.dim)) and bcq != eq48:
            return False
        return True
    run("prop4.2", prop_4_2)

    def prop_4_3():
        an.require_boundary()
        an.require_zero_level()
        an.require_bounded_frechet()
        W = an.frechet_ball_slice
        G = an.frechet.generators().vertices
        tau_d, _ = best_tau_directional(an, MODE_FRECHET)
        for tau in _tau_grid([tau_d]):
            holds, _ = check_strong_bcq(an, tau, MODE_FRECHET)
            if holds != _dirwise_strong_holds(W, G, tau, an.f.dim):
                return False
        return True
    run("prop4.3", prop_4_3)

    return results


# ---------------------------------------------------------------------------
# the table against the reference
# ---------------------------------------------------------------------------

def _named():
    yield PLFunction(vmin(atom([-1]), atom([1]))), vec(0)         # -|x|
    yield PLFunction(vmax(atom([1]), atom([-1]))), vec(0)         # |x|
    yield PLFunction(vmax(atom([-1]), atom([F(1, 2)]))), vec(0)   # kink
    dom = HPolyhedron(1, rows=[(vec(1), F(0))])
    yield PLFunction(atom([1]), domain=dom), vec(0)


def _corpus():
    yield from _named()
    for inst in (generate_corpus(10, 1, seed=41, max_atoms=6)
                 + generate_corpus(6, 2, seed=42, max_atoms=5)
                 + generate_corpus(3, 3, seed=43, max_atoms=4)
                 + generate_corpus(8, 1, seed=44, extended=True, max_atoms=5)
                 + generate_corpus(4, 2, seed=45, extended=True, max_atoms=4)
                 + generate_corpus(2, 3, seed=46, extended=True, max_atoms=4)):
        for p in inst.basepoints:
            yield inst.f, p


def test_table_matches_grid_reference():
    seen: dict[str, set] = {}
    for f, p in _corpus():
        table = verify_theorems(Analysis(f, p))
        grid = grid_verify_theorems(Analysis(f, p))
        assert table == grid, (f, p)
        assert list(table) == list(grid)
        for name, verdict in table.items():
            seen.setdefault(name, set()).add(verdict)
    # every identity is decided somewhere, not only skipped
    assert all("pass" in v for v in seen.values()), seen


_SMALL_BATTERY_SCRIPT = """
import json, sys
from plcq.cq import Analysis, verify_theorems
from plcq.instances import generate_corpus


def run():
    out = []
    for inst in (generate_corpus(4, 1, seed=51, max_atoms=5)
                 + generate_corpus(2, 2, seed=52, max_atoms=4)
                 + generate_corpus(4, 1, seed=53, extended=True, max_atoms=4)
                 + generate_corpus(2, 2, seed=54, extended=True, max_atoms=4)):
        for p in inst.basepoints:
            out.append(verify_theorems(Analysis(inst.f, p)))
    return out


if __name__ == "__main__":
    if not sys.flags.optimize:
        sys.exit("not running under python -O")
    print(json.dumps(run()))
"""


def test_battery_same_under_optimize():
    # python -O strips assert statements; the battery's self-checks must not
    # depend on them, and its verdicts must not change
    src = str(Path(plcq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", _SMALL_BATTERY_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    scope = {"__name__": "in_process"}
    exec(_SMALL_BATTERY_SCRIPT, scope)
    expected = scope["run"]()
    assert len(expected) >= 8
    assert json.loads(out.stdout) == expected


# ---------------------------------------------------------------------------
# closed-form thresholds and the probe comparison
# ---------------------------------------------------------------------------

def test_endset_thresholds():
    assert _endset_tau(False, F(1, 2)) is INF      # BCQ fails
    assert _endset_tau(False, INF) is INF
    assert _endset_tau(True, F(0)) is INF          # d = 0: no tau works
    assert _endset_tau(True, INF) == 0             # d = INF: every tau works
    assert _endset_tau(True, F(1, 2)) == 2


def test_probes_separate_distinct_thresholds():
    assert _probes(F(0), INF) == [1]
    assert _probes(F(0), F(0)) == [1]
    assert _probes(F(2), F(0)) == [2, 1]
    assert _probes(F(2), F(3)) == [2, 3, 1]
    assert _probes(INF, F(1, 2)) == [F(1, 2), F(1, 4)]


def _row(t_r, exact=True):
    return _Identity("row", (), MODE_CLARKE, lambda an, mode: t_r,
                     exact=lambda an: exact)


_VALUES = (F(0), F(1, 3), F(1), F(2), INF)


@pytest.mark.parametrize("t_s", _VALUES)
def test_probe_comparison_is_exact(t_s):
    an = Analysis(PLFunction(vmax(atom([-1]), atom([F(1, 2)]))), vec(0))
    an._strong_thresholds[MODE_CLARKE] = ((vec(1), t_s),)
    for t_r in _VALUES:
        assert _holds(an, _row(t_r)) == (t_s == t_r), t_r
        # thm3.4's one-sided form: the right side implies the left
        assert _holds(an, _row(t_r, exact=False)) == (t_s <= t_r), t_r


def test_empty_vertex_table_reads_as_zero():
    an = Analysis(PLFunction(vmax(atom([-1]), atom([F(1, 2)]))), vec(0))
    an._strong_thresholds[MODE_CLARKE] = ()
    assert check_strong_bcq(an, F(1, 1024), MODE_CLARKE) == (True, None)
    assert _holds(an, _row(F(0)))
    assert not _holds(an, _row(F(1, 1024)))
    assert not _holds(an, _row(INF))


def test_dirwise_tau_cases():
    # the kink max(-x, x/2): d(h, T) = max(0, h) against max(0, h/2, -h)
    assert _dirwise_tau([vec(0), vec(1)], [vec(-1), vec(F(1, 2))], 1) == 2
    # a u = 0 cell where the distance stays positive: no finite tau
    assert _dirwise_tau([vec(0), vec(1)], [vec(-1)], 1) is INF
    # a line with w.l != 0 inside a u = 0 cell: no finite tau
    assert _dirwise_tau([vec(1)], [], 1) is INF
    # the distance vanishes wherever the derivative does: every tau works
    assert _dirwise_tau([vec(0), vec(1)], [vec(1)], 1) == 1
    assert _dirwise_tau([vec(0)], [vec(1)], 1) == 0
    # in 2-d the cells carry lines with u.l = w.l = 0
    assert _dirwise_tau([vec(0, 0), vec(1, 0)], [vec(1, 0)], 2) == 1
    for tau in (F(1, 2), F(1), F(2), F(3)):
        assert _dirwise_strong_holds([vec(0), vec(1)], [vec(-1), vec(F(1, 2))], tau, 1) \
            == (tau >= 2)


def test_dirwise_tau_rejects_cells_with_negative_derivative(monkeypatch):
    half = HPolyhedron(1, rows=[(vec(1), F(0))])          # h <= 0: ray -1
    monkeypatch.setattr(cq, "_refined_cells", lambda W, G, dim: iter([(vec(1), vec(0), half)]))
    with pytest.raises(RuntimeError, match="u.r < 0"):
        _dirwise_tau([vec(0)], [vec(1)], 1)
    whole = HPolyhedron(1)                                 # R: line 1
    monkeypatch.setattr(cq, "_refined_cells", lambda W, G, dim: iter([(vec(1), vec(0), whole)]))
    with pytest.raises(RuntimeError, match="u.l != 0"):
        _dirwise_tau([vec(0)], [vec(1)], 1)


def test_extra_checks_fail_their_rows():
    # the kink passes every row; each corrupted route below leaves the
    # threshold comparison of the row intact, so only the row's extra check
    # can fail it
    def kink():
        return Analysis(PLFunction(vmax(atom([-1]), atom([F(1, 2)]))), vec(0))
    assert set(verify_theorems(kink()).values()) <= {"pass", "not-applicable"}
    an = kink()
    an._directional_taus[MODE_CLARKE] = (F(3), frozenset())  # tau_d != tau_e = 2
    assert verify_theorems(an)["thm3.1"] == "fail"
    an = kink()
    an._endset_distances[MODE_CLARKE] = F(1, 3)  # d != d_sub = 1/2
    assert verify_theorems(an)["cor3.1"] == "fail"


# ---------------------------------------------------------------------------
# Propositions 3.2 and 4.1 at one scale against the three-scale reference
# ---------------------------------------------------------------------------

def _sets(C, K):
    """An Analysis stand-in carrying only what verify_prop32 reads."""
    return SimpleNamespace(clarke=C, singular=K, f=SimpleNamespace(dim=C.dim))


def _prop32_matches_reference(an) -> dict:
    once = cq.verify_prop32(an, 1)
    for r in (F(1), F(1, 2), F(3)):
        ref = verify_prop32(an, r)
        assert once == ref, r
        assert cq.verify_prop32(an, r) == ref, r
    return once


def test_prop32_matches_reference_on_corpora():
    checked = nontrivial = 0
    for f, p in _corpus():
        an = Analysis(f, p)
        if an.clarke.is_empty:
            continue
        assert all(_prop32_matches_reference(an).values()), (f, p)
        checked += 1
        # rec(C) = K != {0}: (ii) then compares genuinely different lifts
        nontrivial += not an.singular_is_zero
    assert checked >= 40 and nontrivial >= 3, (checked, nontrivial)


_RAY = HPolyhedron(1, rows=[(vec(-1), F(0))])                          # [0, oo)
_SEGMENT = HPolyhedron(2, rows=[(vec(1, 0), F(1)), (vec(-1, 0), F(0))],
                       eqs=[(vec(0, 1), F(1))])                        # [0,1] x {1}
_ALONG = HPolyhedron(2, rows=[(vec(-1, 0), F(0))], eqs=[(vec(0, 1), F(0))])


def test_prop32_fails_where_singular_cone_leaves_recession():
    # C = [1, 2], K = [0, oo): 3 = 1 + 2 lies in (0,1]C + K but not in
    # (0,1]C = (0, 2]; projecting the lifts onto z alone would hide this,
    # since both project to [0, oo)
    interval = HPolyhedron(1, rows=[(vec(1), F(2)), (vec(-1), F(-1))])
    once = _prop32_matches_reference(_sets(interval, _RAY))
    assert not once["i"] and not once["ii"]
    # a segment in R^2 with K a ray along it
    once = _prop32_matches_reference(_sets(_SEGMENT, _ALONG))
    assert not once["i"] and not once["ii"]


def test_prop32_holds_where_recession_is_singular_cone():
    # rec(C) = K != {0}: C = [1, oo) with K = [0, oo), and the half strip
    # [1, oo) x [0, 1] with K the ray along it
    half_line = HPolyhedron(1, rows=[(vec(-1), F(-1))])
    assert all(_prop32_matches_reference(_sets(half_line, _RAY)).values())
    strip = HPolyhedron(2, rows=[(vec(-1, 0), F(-1)), (vec(0, 1), F(1)), (vec(0, -1), F(0))])
    assert all(_prop32_matches_reference(_sets(strip, _ALONG)).values())


def test_prop32_solves_no_lp(monkeypatch):
    ans = [Analysis(inst.f, p)
           for inst in (generate_corpus(6, 1, seed=44, extended=True, max_atoms=5)
                        + generate_corpus(3, 2, seed=45, extended=True, max_atoms=4))
           for p in inst.basepoints]
    ans = [an for an in ans if not an.clarke.is_empty]
    assert len(ans) >= 8 and not all(an.singular_is_zero for an in ans)

    def no_lp(*args, **kwargs):
        raise AssertionError("verify_prop32 solved an LP")
    monkeypatch.setattr(simplex, "lp_solve", no_lp)
    for an in ans:
        cq.verify_prop32(an, 1)


def test_prop32_and_prop41_use_one_scale(monkeypatch):
    seen = []
    real = cq.verify_prop32
    monkeypatch.setattr(cq, "verify_prop32", lambda an, r: seen.append(r) or real(an, r))
    dom = HPolyhedron(1, rows=[(vec(1), F(0))])
    assert cq._prop32(Analysis(PLFunction(atom([1]), domain=dom), vec(0)))
    assert seen == [1]
    seen.clear()
    real_part = cq._scaled_part
    monkeypatch.setattr(cq, "_scaled_part", lambda P, r: seen.append(r) or real_part(P, r))
    assert cq._prop41(Analysis(PLFunction(vmax(atom([-1]), atom([F(1, 2)]))), vec(0)))
    assert seen == [1]


# ---------------------------------------------------------------------------
# one threshold per point and one cone over C per set against the lifted,
# scaled-membership and closed-hull references
# ---------------------------------------------------------------------------

def _random_vector(rng, dim):
    while True:
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
        if not is_zero(v):
            return v


def _random_cone(rng, dim, rays=(), lines=()):
    """cone(rays) + span(lines) plus up to two random rays and one line."""
    rays = list(rays) + [_random_vector(rng, dim) for _ in range(rng.randint(0, 2))]
    lines = list(lines) + [_random_vector(rng, dim) for _ in range(rng.random() < 0.3)]
    return hull([zeros(dim)], rays, lines, dim)


def _random_triples(seed: int, count: int):
    """(N, C, K): a cone N, a polyhedron C (empty now and then) and a cone K
    holding rec(C), in dims 1-3."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.choice((1, 2, 2, 3))
        C = random_polyhedron(rng, dim, rng.choice(("polytope", "mixed", "mixed")))
        rec = C.recession().generators() if not C.is_empty else None
        K = _random_cone(rng, dim, rec.rays if rec else (), rec.lines if rec else ())
        yield _random_cone(rng, dim), C, K


def _ray(w):
    return hull([zeros(len(w))], [w], (), len(w))


def _check_bcq(N, C, K, seen: Counter):
    """The plain/Frechet form (K = {0}) against the scaling reference, and
    the extended form against the closed hull, which it equals when rec(C)
    is inside K."""
    origin = HPolyhedron.single_point(zeros(N.dim))
    got = cq._cone_bcq(N, C, origin)
    assert got == scaling_cone_bcq(N, C)
    seen["plain_fails"] += not got[0]
    holds, w, flags = cq._cone_bcq(N, _sum(C, K), K)
    ref = closed_hull_cone_bcq(N, C, K)
    assert (holds, flags) == (ref[0], ref[2])
    if not holds:
        assert not closed_hull_cone_bcq(_ray(w), C, K)[0]
    seen["extended_fails"] += not holds
    # lines with only one direction inside [0,+oo)C, which a test of +l alone
    # would pass
    for l in N.generators().lines:
        seen["one_sided_lines"] += (in_scaled_set(l, C, None, include_zero=True)
                                    != in_scaled_set(neg(l), C, None, include_zero=True))


def test_bcq_matches_references_on_corpora():
    seen = Counter()
    for f, p in _corpus():
        an = Analysis(f, p)
        if not an.on_boundary:
            continue
        assert check_clarke_bcq(an) == scaling_cone_bcq(an.normal_clarke, an.clarke)
        assert check_frechet_bcq(an) == scaling_cone_bcq(an.normal_frechet, an.frechet)
        if an.phi_value == 0:
            holds, w, flags = check_extended_bcq(an)
            ref = closed_hull_cone_bcq(an.normal_clarke, an.clarke, an.singular)
            assert (holds, w is None, flags) == (ref[0], ref[1] is None, ref[2])
            seen["extended"] += 1
        _check_bcq(an.normal_clarke, an.clarke, an.singular, seen)
        seen["points"] += 1
    assert seen["points"] >= 40 and seen["extended"] >= 30 and seen["plain_fails"] >= 3, seen


def test_bcq_matches_references_on_random_triples():
    seen = Counter()
    for N, C, K in _random_triples(71, 120):
        _check_bcq(N, C, K, seen)
    assert seen["plain_fails"] >= 20 and seen["extended_fails"] >= 10, seen
    assert seen["one_sided_lines"] >= 3, seen


def _check_props(an, seen: Counter):
    for r in (F(1), F(1, 2)):
        got = cq.verify_prop32(an, r)
        assert got == lifted_verify_prop32(an, r), r
    seen.update(name for name, holds in got.items() if not holds)
    if not an.frechet.is_empty:
        assert cq._prop41(an) == lifted_prop41(an)
        seen["prop41"] += 1


def test_prop32_and_prop41_match_lifted_reference_on_corpora():
    seen = Counter()
    for f, p in _corpus():
        an = Analysis(f, p)
        if not an.clarke.is_empty:
            _check_props(an, seen)
    assert seen["prop41"] >= 40, seen


def test_prop32_and_prop41_match_lifted_reference_on_random_pairs():
    seen = Counter()
    for _, C, K in _random_triples(72, 60):
        if not C.is_empty:
            an = _sets(C, K)
            an.frechet = C
            _check_props(an, seen)
    assert seen["prop41"] >= 40 and seen["ii"] >= 10 and seen["iv"] >= 1, seen


def test_prop32_and_prop41_stay_in_dimension_n_plus_1(monkeypatch):
    # hom(C) + K x {0} lives in R^(n+1), so no conversion goes beyond the
    # homogenized R^(n+2); the lifted (z, t, k) cone needed R^(2n+2)
    ans = [Analysis(f, p) for f, p in _corpus()]
    ans = [an for an in ans if not an.clarke.is_empty and not an.frechet.is_empty]
    for _, C, K in _random_triples(73, 40):
        if not C.is_empty:
            an = _sets(C, K)
            an.frechet = C
            ans.append(an)
    assert len(ans) >= 80 and sum(an.f.dim == 3 for an in ans) >= 10
    dims = []
    real = polyhedra.dd_cone
    monkeypatch.setattr(polyhedra, "dd_cone", lambda cons, dim: dims.append(dim) or real(cons, dim))
    for an in ans:
        dims.clear()
        cq.verify_prop32(an, 1)
        cq._prop41(an)
        assert dims and max(dims) <= an.f.dim + 2, dims


# ---------------------------------------------------------------------------
# closed-form tau quantities against the LP references
# ---------------------------------------------------------------------------

def _sum(C, K):
    """C + K as extended mode forms it: empty when C is."""
    return C if C.is_empty else minkowski_sum(C, K)


def _check_tau_quantities(an, seen: dict) -> None:
    try:
        modulus = error_bound_modulus(an)
    except NotApplicable:
        pass
    else:
        # the polar of {h : g.h <= 0 for every gradient g} is cone(G)
        W = _ball_slice_vertices(an, polar_cone(an.sublevel_cone))
        assert modulus == _best_tau_cells(W, an.clarke.generators().vertices, an.f.dim)
        seen["modulus"] += 1
    if not an.on_boundary:
        return
    # the normal cones as the cones module builds them from S itself
    Nc = clarke_normal_cone(an.solution_set, an.x).canonical()
    Nf = frechet_normal_cone(an.solution_set, an.x).canonical()
    assert (an.normal_clarke.rows, an.normal_clarke.eqs) == (Nc.rows, Nc.eqs)
    assert (an.normal_frechet.rows, an.normal_frechet.eqs) == (Nf.rows, Nf.eqs)
    point0 = HPolyhedron.single_point(zeros(an.f.dim))
    for mode, N, C, K in ((MODE_CLARKE, Nc, an.clarke, point0),
                          (MODE_EXTENDED, Nc, an.clarke, an.singular),
                          (MODE_FRECHET, Nf, an.frechet, point0)):
        try:
            table = strong_bcq_thresholds(an, mode)
        except NotApplicable:
            continue
        W = _ball_slice_vertices(an, N)
        assert table == tuple((v, _scaled_sum_threshold(v, C, K)) for v in W), mode
        seen["thresholds"] += len(table)
        seen["extended_nonzero_K"] += mode == MODE_EXTENDED and not an.singular_is_zero
    for mode, N, sub in ((MODE_CLARKE, Nc, an.clarke), (MODE_FRECHET, Nf, an.frechet)):
        try:
            tau, _ = best_tau_directional(an, mode)
        except NotApplicable:
            continue
        W = _ball_slice_vertices(an, N)
        assert tau == _best_tau_cells(W, sub.generators().vertices, an.f.dim), mode
        seen["directional"] += 1


def test_tau_quantities_match_lp_references():
    seen = dict.fromkeys(("thresholds", "extended_nonzero_K", "directional", "modulus"), 0)
    for f, p in _corpus():
        for norm in ("linf", "l1"):
            _check_tau_quantities(Analysis(f, p, NormSpec(norm)), seen)
    assert seen["thresholds"] >= 500 and seen["extended_nonzero_K"] >= 6, seen
    assert seen["directional"] >= 100 and seen["modulus"] >= 60, seen


_POINT1 = HPolyhedron.single_point(zeros(1))
_INTERVAL12 = HPolyhedron(1, rows=[(vec(1), F(2)), (vec(-1), F(-1))])  # [1, 2]


@pytest.mark.parametrize("z, C, K, expected", [
    # z - k reaches C only as rec(C), at t = 0: the t-set is {0}
    (vec(1, 0), HPolyhedron(2, eqs=[(vec(0, 1), F(1))]), HPolyhedron.single_point(zeros(2)),
     INF),
    # z in K: 0, also where no positive scale of C holds z
    (vec(0), _INTERVAL12, _POINT1, F(0)),
    (vec(5), HPolyhedron.empty(1), _RAY, F(0)),
    # empty C
    (vec(1), HPolyhedron.empty(1), _POINT1, INF),
    (vec(-1), HPolyhedron.empty(1), _RAY, INF),
    # unbounded C = [1, oo): the t-set [0, 1] reaches 0 and holds t > 0
    (vec(1), HPolyhedron(1, rows=[(vec(-1), F(-1))]), _POINT1, F(0)),
    # the same through K: C + K = [1, oo)
    (vec(3), _INTERVAL12, _RAY, F(0)),
    # an attained positive minimum, and an empty t-set
    (vec(4), _INTERVAL12, _POINT1, F(2)),
    (vec(-1), _INTERVAL12, _RAY, INF),
])
def test_vertex_threshold_cases(z, C, K, expected):
    assert _scaled_sum_threshold(z, C, K) == expected
    assert _vertex_threshold(z, _sum(C, K), K) == expected


def test_extended_thresholds_use_the_sum_with_the_singular_cone():
    # Proposition 3.2 (i) gives C + K = C at every point of a PL function, so
    # no real instance tells C from C + K.  Here f = x + y at 0, with
    # N cap B_dual = [0, (1/2, 1/2)], is given the stand-ins C = {(0, 1)} and
    # K = [0, oo) x {0}: (1/2, 1/2) lies in [0,tau]C + K from tau = 1/2 on,
    # but in no [0,tau]C.
    an = Analysis(PLFunction(atom([1, 1])), vec(0, 0))
    C = HPolyhedron.single_point(vec(0, 1))
    K = HPolyhedron(2, rows=[(vec(-1, 0), F(0))], eqs=[(vec(0, 1), F(0))])
    an.__dict__["clarke"] = C
    an.__dict__["singular"] = K
    table = strong_bcq_thresholds(an, MODE_EXTENDED)
    assert table == tuple((v, _scaled_sum_threshold(v, C, K)) for v in an.clarke_ball_slice)
    assert table == ((vec(0, 0), F(0)), (vec(F(1, 2), F(1, 2)), F(1, 2)))
    assert _vertex_threshold(vec(F(1, 2), F(1, 2)), C, K) is INF
