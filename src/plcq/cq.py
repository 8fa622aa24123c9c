"""Constraint qualification analysis of a PL inequality f(x) <= 0 at a point.

Decides the plain, extended and Frechet BCQ and their tau-strong forms from
exact scaling thresholds, computes infimal tau constants by two
independent routes (direction-wise ratios read off the generators of
refined cones, and reciprocal end-set distances), the error-bound modulus
of the linearized inequality, and replays the characterization theorems
relating all of these as machine-checkable identities.  Each strong-BCQ
identity is decided exactly: both of its sides are closed up-sets
{tau >= T} whose thresholds are computed in closed form, not sampled on a
tau grid.  No LP is solved here; only the end-set distances solve LPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .linalg import INF, Vec, dot, is_zero, neg, sub, zeros
from .cones import clarke_tangent_cone, contingent_cone
from .endset import distance_to_end_set
from .plfunc import PLFunction, is_boundary_point
from .polyhedra import (HPolyhedron, NormSpec, UnionPolyhedron, minkowski_sum,
                        nonneg_hull, polar_cone, scale_interval, segment_hull)
from .subdiff import (NotLipschitz, clarke_singular_subdiff, clarke_subdiff,
                      frechet_subdiff, is_regular)

MODE_CLARKE = "clarke"
MODE_EXTENDED = "extended"
MODE_FRECHET = "frechet"

FLAG_CONVENTION = "CONVENTION_APPLIED"
FLAG_ANY_TAU = "ANY_POSITIVE_TAU"
FLAG_BCQ_FAILS = "BCQ_FAILS"


class NotApplicable(Exception):
    """A hypothesis of the requested check does not hold at this point."""


class Analysis:
    """All nonsmooth-analysis objects of (f, x), computed once and shared."""

    def __init__(self, f: PLFunction, x, norm: NormSpec = NormSpec("linf")):
        self.f = f
        self.x = tuple(Fraction(q) for q in x)
        if len(self.x) != f.dim:
            raise ValueError("basepoint dimension mismatch")
        if not f.in_domain(self.x):
            raise ValueError("basepoint outside dom f")
        if not norm.is_exact:
            raise ValueError("CQ analysis needs a polyhedral norm (l1 or linf)")
        self.norm = norm
        self.phi_value = f.value(self.x)
        # memos filled by strong_bcq_thresholds, endset_distance,
        # best_tau_directional (per mode) and error_bound_modulus
        self._strong_thresholds: dict[str, tuple] = {}
        self._endset_distances: dict[str, object] = {}
        self._directional_taus: dict[str, tuple] = {}
        self._error_bound_modulus = None

    @cached_property
    def solution_set(self) -> UnionPolyhedron:
        return self.f.solution_set()

    @cached_property
    def in_solution_set(self) -> bool:
        return self.solution_set.contains(self.x)

    @cached_property
    def on_boundary(self) -> bool:
        return self.in_solution_set and is_boundary_point(self.solution_set, self.x)

    @cached_property
    def lipschitz(self) -> bool:
        return self.f.lipschitz_at(self.x)

    @cached_property
    def origin(self) -> HPolyhedron:
        """{0}, the singular cone of the plain and Frechet modes."""
        return HPolyhedron.single_point(zeros(self.f.dim))

    @cached_property
    def dual_ball(self) -> HPolyhedron:
        return self.norm.dual().ball(self.f.dim)

    @cached_property
    def clarke(self) -> HPolyhedron:
        return clarke_subdiff(self.f, self.x)

    @cached_property
    def singular(self) -> HPolyhedron:
        return clarke_singular_subdiff(self.f, self.x)

    @cached_property
    def frechet(self) -> HPolyhedron:
        return frechet_subdiff(self.f, self.x)

    @cached_property
    def tangent_contingent(self) -> UnionPolyhedron:
        self.require_in_solution_set()
        return contingent_cone(self.solution_set, self.x)

    @cached_property
    def tangent_clarke(self) -> HPolyhedron:
        self.require_in_solution_set()
        return clarke_tangent_cone(self.solution_set, self.x)

    @cached_property
    def normal_clarke(self) -> HPolyhedron:
        """N_c(S, x), the polar of the Clarke tangent cone."""
        return polar_cone(self.tangent_clarke)

    @cached_property
    def normal_frechet(self) -> HPolyhedron:
        """N^(S, x), the polar of the contingent cone."""
        return polar_cone(self.tangent_contingent)

    @cached_property
    def clarke_ball_slice(self) -> tuple[Vec, ...]:
        """Vertices of N_c(S, x) cap B_dual."""
        return tuple(_ball_slice_vertices(self, self.normal_clarke))

    @cached_property
    def frechet_ball_slice(self) -> tuple[Vec, ...]:
        """Vertices of N^(S, x) cap B_dual."""
        return tuple(_ball_slice_vertices(self, self.normal_frechet))

    @cached_property
    def regular(self) -> bool:
        if not self.lipschitz:
            raise NotLipschitz("regularity needs a Lipschitz point")
        return is_regular(self.f, self.x)

    @cached_property
    def sublevel_cone(self) -> HPolyhedron:
        """{h : phi°(x; h) <= 0}, a convex polyhedral cone (Lipschitz only)."""
        self.require_lipschitz()
        rows = [(g, Fraction(0)) for g in self.clarke.generators().vertices]
        return HPolyhedron(self.f.dim, rows).canonical()

    @cached_property
    def singular_is_zero(self) -> bool:
        return self.singular.set_eq(self.origin)

    @cached_property
    def subdiff_in_normal(self) -> bool:
        """@c f(x) subset of N_c(S, x)."""
        return self.clarke.subset_of(self.normal_clarke) is True

    @cached_property
    def clarke_plus_singular(self) -> HPolyhedron:
        """@c f(x) + @c^inf f(x), empty when the subdifferential is."""
        if self.clarke.is_empty:
            return self.clarke
        return minkowski_sum(self.clarke, self.singular)

    @cached_property
    def clarke_subdiff_distance(self):
        """d(0, E[@c f(x)]) in the dual norm, of the raw subdifferential (the
        Clarke end-set route intersects it with the normal cone first)."""
        return distance_to_end_set(self.clarke, self.norm.dual())

    # -- hypothesis guards ----------------------------------------------------

    def require_in_solution_set(self):
        if not self.in_solution_set:
            raise NotApplicable("basepoint not in the solution set")

    def require_boundary(self):
        if not self.on_boundary:
            raise NotApplicable("basepoint not on the boundary of the solution set")

    def require_lipschitz(self):
        if not self.lipschitz:
            raise NotApplicable("basepoint is not a Lipschitz point")

    def require_zero_level(self):
        if self.phi_value != 0:
            raise NotApplicable("basepoint is not on the zero level set")

    def require_bounded_frechet(self):
        v = self.frechet.generators()
        if v.rays or v.lines:
            raise NotApplicable("Frechet subdifferential is unbounded")

    def require_regular(self):
        if not self.regular:
            raise NotApplicable("needs a regular point")

    def require_trivial_singular(self):
        if not self.singular_is_zero:
            raise NotApplicable("needs a trivial singular subdifferential")

    def require_nonempty_clarke(self):
        if self.clarke.is_empty:
            raise NotApplicable("empty Clarke subdifferential")

    def require_subdiff_in_normal(self):
        if not self.subdiff_in_normal:
            raise NotApplicable("needs the subdifferential inside the normal cone")


# ---------------------------------------------------------------------------
# scaled sums [0,tau]C + K: one threshold per point, one cone over C per set
# ---------------------------------------------------------------------------

def _vertex_threshold(z: Vec, CK: HPolyhedron, K: HPolyhedron):
    """t*(z) = inf{t > 0 : z in tC + K} for CK = C + K, so that z lies in
    [0,tau]C + K iff t*(z) <= tau, for every tau > 0 (INF exceeds every tau).

    K is a cone, so tC + K = t(C + K) for t > 0, and the t >= 0 with z in
    t(C + K) (read at t = 0 as rec(C + K)) form the closed interval
    scale_interval(z, C + K).  t* is 0 when z is in K; INF when C is empty
    or the interval is empty or {0}; otherwise the interval's lower end."""
    if K.contains(z):
        return Fraction(0)
    if CK.is_empty:
        return INF
    iv = scale_interval(z, CK)
    if iv is None or iv[1] == 0:
        return INF
    return iv[0]


def _hom(C: HPolyhedron) -> HPolyhedron:
    """hom(C) = {(z, t) : t >= 0, a.z <= t b, e.z = t d} in R^(n+1), the
    closed cone over nonempty C: its slice at t > 0 is tC, at t = 0 rec(C)."""
    zero = Fraction(0)
    rows = [(a + (-b,), zero) for a, b in C.rows] + [(zeros(C.dim) + (Fraction(-1),), zero)]
    return HPolyhedron(C.dim + 1, rows, [(e + (-d,), zero) for e, d in C.eqs])


def _scaled_part(P: HPolyhedron, r) -> HPolyhedron:
    """{z : (z, t) in P, t <= r} for a cone P inside t >= 0."""
    n = P.dim - 1
    cap = HPolyhedron(P.dim, [(zeros(n) + (Fraction(1),), Fraction(r))])
    return P.intersect(cap).project(tuple(range(n))).canonical()


# ---------------------------------------------------------------------------
# BCQ checks
# ---------------------------------------------------------------------------

def _cone_bcq(N: HPolyhedron, CK: HPolyhedron, K: HPolyhedron):
    """Decide N subset of [0,+oo)C + K for a closed convex cone N and a convex
    cone K, given CK = C + K (empty when C is: then [0,+oo)C = {0}, flagged
    as the convention).  The right side is a convex cone, so the inclusion
    holds iff every generator of N (its rays, and +l and -l for each line l)
    has a finite _vertex_threshold; exact even where the right side is not
    closed.  When rec(C) is inside K it equals cl([0,+oo)C) + K.

    Returns (holds, witness_or_None, flags), the witness the first generator
    in that order with an infinite threshold."""
    flags = {FLAG_CONVENTION} if CK.is_empty else set()
    v = N.generators()
    for d in v.rays + tuple(x for l in v.lines for x in (l, neg(l))):
        if _vertex_threshold(d, CK, K) is INF:
            return False, d, flags
    return True, None, flags


def check_clarke_bcq(an: Analysis):
    """N_c(S, x) subset of [0,+oo) * Clarke subdifferential.

    Returns (holds, witness_or_None, flags)."""
    an.require_boundary()
    return _cone_bcq(an.normal_clarke, an.clarke, an.origin)


def check_extended_bcq(an: Analysis):
    """N_c(S, x) subset of [0,+oo)@c f(x) + @c^inf f(x)."""
    an.require_boundary()
    an.require_zero_level()
    sub, sing = an.clarke, an.singular
    # recession of the subdifferential sits inside the singular cone, so the
    # right side is closed
    if not sub.is_empty and sub.recession().subset_of(sing) is not True:
        raise RuntimeError("recession cone of the Clarke subdifferential "
                           "is not inside the singular cone")
    return _cone_bcq(an.normal_clarke, an.clarke_plus_singular, sing)


def check_frechet_bcq(an: Analysis):
    """N^(S, x) == [0,+oo) * Frechet subdifferential (set equality)."""
    an.require_boundary()
    sub, Nf = an.frechet, an.normal_frechet
    # on the zero level f(x + h) <= 0 makes every Frechet subgradient a
    # Frechet normal of S; below it the inclusion need not hold
    if an.phi_value == 0 and not sub.is_empty and sub.subset_of(Nf) is not True:
        raise RuntimeError("Frechet subgradients must be Frechet normals")
    return _cone_bcq(Nf, sub, an.origin)


def _strong_bcq_sets(an: Analysis, mode: str):
    """(vertices of N cap B_dual, C + K, K) of the mode's inclusion
    N cap B_dual subset of [0,tau]C + K, after the mode's hypothesis guards."""
    an.require_boundary()
    if mode == MODE_CLARKE:
        return an.clarke_ball_slice, an.clarke, an.origin
    if mode == MODE_EXTENDED:
        an.require_zero_level()
        return an.clarke_ball_slice, an.clarke_plus_singular, an.singular
    if mode == MODE_FRECHET:
        an.require_zero_level()
        return an.frechet_ball_slice, an.frechet, an.origin
    raise ValueError("unknown strong BCQ mode %r" % (mode,))


def strong_bcq_thresholds(an: Analysis, mode: str) -> tuple:
    """((v, t*(v)), ...) over the vertices v of N cap B_dual in generators()
    order, with t* from _vertex_threshold.  Built once per Analysis and
    mode; the mode's guards run on every call."""
    W, CK, K = _strong_bcq_sets(an, mode)
    table = an._strong_thresholds.get(mode)
    if table is None:
        table = tuple((v, _vertex_threshold(v, CK, K)) for v in W)
        an._strong_thresholds[mode] = table
    return table


def check_strong_bcq(an: Analysis, tau, mode: str):
    """Exact inclusion N cap B_dual subset of [0,tau]@ (+ @^inf in extended
    mode), on the raw (not closed) right-hand set.  That set is convex and
    grows with tau, so the inclusion holds iff every vertex v of the left
    polytope has its exact threshold t*(v) <= tau; the thresholds come from
    the per-Analysis table of strong_bcq_thresholds, so a new tau costs no LP.

    Returns (holds, witness_or_None); the witness is the first vertex with
    t*(v) > tau."""
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("strong BCQ needs tau > 0")
    for v, t in strong_bcq_thresholds(an, mode):
        if t > tau:
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# direction-wise machinery: d(h, T) vs max{0, support} over refined cones
# ---------------------------------------------------------------------------

def _ball_slice_vertices(an: Analysis, N: HPolyhedron) -> list[Vec]:
    """Vertices of N cap B_dual: d(h, T) = max over them of w.h, where T is
    the polar cone of N in the primal norm."""
    poly = N.intersect(an.dual_ball).canonical()
    v = poly.generators()
    if v.rays or v.lines:
        raise RuntimeError("N cap B_dual is unbounded: the dual norm ball is not a polytope")
    return list(v.vertices)


def _refined_cells(W: list[Vec], G: list[Vec], dim: int):
    """Full-dimensional cones on which both h -> max_k w.h and
    h -> max{0, max_j g.h} are linear, with their attaining vectors."""
    U = [zeros(dim)] + [g for g in G if not is_zero(g)]
    for u in U:
        for w in W:
            rows = [(sub(u2, u), Fraction(0)) for u2 in U if u2 != u]
            rows += [(sub(w2, w), Fraction(0)) for w2 in W if w2 != w]
            C = HPolyhedron(dim, rows)
            if C.is_full_dim():
                yield u, w, C


def _dirwise_tau(W: list[Vec], G: list[Vec], dim: int):
    """Least tau with d(h,T) <= tau * max{0, phi-support(h)} for all h, read
    exactly off the generators of every full-dimensional refined cone: the
    largest w.r/u.r over its rays r, INF when u.r = 0 < w.r or a line l has
    w.l != 0, and 0 when every positive tau works.  u.h >= 0 on the cone
    (u.l = 0 on its lines), so the valid tau form the up-set {tau >= result}."""
    best = Fraction(0)
    for u, w, C in _refined_cells(W, G, dim):
        v = C.generators()
        for r in v.rays:
            ur = dot(u, r)
            if ur < 0:
                raise RuntimeError("refined cone ray with u.r < 0")
            if ur > 0:
                best = max(best, dot(w, r) / ur)
            elif dot(w, r) > 0:
                best = INF
        for l in v.lines:
            if dot(u, l) != 0:
                raise RuntimeError("refined cone line with u.l != 0")
            if dot(w, l) != 0:
                best = INF
    return best


def best_tau_directional(an: Analysis, mode: str):
    """Infimal tau via sup over directions of d(h, T)/derivative ratios,
    read exactly off the generators of every refined cone (_dirwise_tau).
    Computed once per Analysis and mode; the mode's guards run on every call.

    Returns (tau, flags): INF when no finite tau exists, 0 (flagged) when
    every positive tau works."""
    an.require_boundary()
    if mode == MODE_CLARKE:
        an.require_lipschitz()
    elif mode == MODE_FRECHET:
        an.require_zero_level()
        an.require_bounded_frechet()
    else:
        raise ValueError("directional route exists for clarke and frechet modes")
    memo = an._directional_taus
    if mode not in memo:
        flags = set()
        if mode == MODE_CLARKE:
            W, G = an.clarke_ball_slice, an.clarke.generators().vertices
        else:
            W, G = an.frechet_ball_slice, an.frechet.generators().vertices
            if an.frechet.is_empty:
                flags.add(FLAG_CONVENTION)
        tau = _dirwise_tau(W, G, an.f.dim)
        if tau == 0:
            flags.add(FLAG_ANY_TAU)
        memo[mode] = tau, frozenset(flags)
    tau, flags = memo[mode]
    return tau, set(flags)


def _endset_base(an: Analysis, mode: str) -> HPolyhedron:
    if mode == MODE_CLARKE:
        return an.clarke.intersect(an.normal_clarke).canonical()
    if mode == MODE_EXTENDED:
        hull01 = segment_hull(an.clarke, 1)
        return minkowski_sum(hull01, an.singular).intersect(an.normal_clarke).canonical()
    if mode == MODE_FRECHET:
        return an.frechet
    raise ValueError("unknown end-set mode %r" % (mode,))


def endset_distance(an: Analysis, mode: str):
    """d(0, E[.]) in the dual norm for the mode's characterizing set,
    computed once per Analysis and mode."""
    memo = an._endset_distances
    if mode not in memo:
        memo[mode] = distance_to_end_set(_endset_base(an, mode), an.norm.dual())
    return memo[mode]


def best_tau_endset(an: Analysis, mode: str):
    """Infimal tau _endset_tau = 1/d(0, E[.]); requires the mode's BCQ (INF
    and BCQ_FAILS otherwise); 0 with ANY_POSITIVE_TAU for empty end sets."""
    an.require_boundary()
    if mode == MODE_CLARKE:
        # the reciprocal end-set formula is backed by the Lipschitz theorem
        # and by its singular-free lsc variant; outside both it is unproven
        if not (an.lipschitz or (an.singular_is_zero and an.phi_value == 0)):
            raise NotApplicable("no end-set characterization at this point")
        bcq, _, flags = check_clarke_bcq(an)
    elif mode == MODE_EXTENDED:
        bcq, _, flags = check_extended_bcq(an)
    else:
        an.require_zero_level()
        an.require_bounded_frechet()
        bcq, _, flags = check_frechet_bcq(an)
    tau = _endset_tau(bcq, endset_distance(an, mode))
    if not bcq:
        flags.add(FLAG_BCQ_FAILS)
    elif tau == 0:
        flags.add(FLAG_ANY_TAU)
    return tau, flags


# ---------------------------------------------------------------------------
# further characterizations
# ---------------------------------------------------------------------------

def check_subdiff_in_normal(an: Analysis) -> bool:
    """@c f(x) subset of N_c(S, x), with the support-side restatement
    (tangent cone inside the zero-sublevel cone of phi°) verified against it."""
    an.require_lipschitz()
    an.require_in_solution_set()
    lhs = an.subdiff_in_normal
    rhs = an.tangent_clarke.subset_of(an.sublevel_cone) is True
    if lhs != rhs:
        raise RuntimeError("subdifferential/tangent-cone duality failed")
    # regularity puts @c f(x) inside N_c(S, x) only on the zero level, where
    # x* . h <= f'(x; h) <= 0 on T_c(S, x); below it N_c(S, x) can be {0}
    if an.phi_value == 0 and an.regular and not lhs:
        raise RuntimeError("regular point must have its subdifferential in the normal cone")
    return lhs


def check_tangent_inclusion(an: Analysis) -> bool:
    """{h : phi°(x;h) <= 0} subset of T_c(S, x); must match Clarke BCQ when
    0 is not a Clarke subgradient."""
    an.require_lipschitz()
    an.require_in_solution_set()
    incl = an.sublevel_cone.subset_of(an.tangent_clarke) is True
    if an.on_boundary:
        bcq, _, _ = check_clarke_bcq(an)
        if bcq and not incl:
            raise RuntimeError("Clarke BCQ must imply the tangent inclusion")
        if not an.clarke.contains(zeros(an.f.dim)) and bcq != incl:
            raise RuntimeError("tangent inclusion must match BCQ when 0 is not a subgradient")
    return incl


def error_bound_modulus(an: Analysis):
    """Infimal tau with d(h, S_psi) <= tau max{0, psi(h)} for psi = phi°(x;.):
    the same refined-cone ratios with the tangent cone replaced by the
    sublevel cone of psi.  Computed once per Analysis."""
    an.require_lipschitz()
    if an._error_bound_modulus is None:
        G = an.clarke.generators().vertices
        polar = nonneg_hull(an.clarke) if G else an.origin
        W = _ball_slice_vertices(an, polar)
        an._error_bound_modulus = _dirwise_tau(W, G, an.f.dim)
    return an._error_bound_modulus


def verify_prop32(an: Analysis, r) -> dict:
    """The four subdifferential/singular-cone identities at scale r > 0, for
    C = @c f(x) and K = @c^inf f(x): (i) C + rK = C, (ii) (0,r]C + K =
    (0,r]C, (iii) K inside cl((0,r]C), (iv) cl([0,r]C) = [0,r]C + K.

    Scaling lemma: K is a cone, so rK = K and tC + K = t(C + K) for t > 0.
    Hence (0,r]C + K = r((0,1]C + K), cl([0,r]C) = r cl([0,1]C),
    [0,r]C + K = r([0,1]C + K), and K inside rX iff K inside X: each
    identity holds at r iff it holds at r = 1, so one scale decides every
    scale.  Each identity compares two independently built sets.

    (ii) and the right side of (iv) read P = hom(C) + K x {0}, whose slice
    at t > 0 is tC + K and at t = 0 is rec(C) + K = K, so {z : (z, t) in P,
    t <= r} = [0,r]C + K.  P and hom(C) are the closures of their t > 0
    parts, so P = hom(C) iff tC + K = tC for every t > 0: that is (ii) at
    every r, and (ii) forces it (it puts c + lambda k in (0,r]C for all
    lambda >= 0, so k is in rec(C)).  No LP is solved."""
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
    zero, hom = Fraction(0), _hom(sub)
    flat = HPolyhedron(hom.dim, [(a + (zero,), b) for a, b in sing.rows],
                       [(e + (zero,), d) for e, d in sing.eqs]
                       + [(zeros(sub.dim) + (Fraction(1),), zero)])  # K x {0}
    P = minkowski_sum(hom, flat)
    out["iv"] = closure.set_eq(_scaled_part(P, r))
    out["ii"] = P.set_eq(hom)
    return out


# ---------------------------------------------------------------------------
# theorem battery
# ---------------------------------------------------------------------------

# Each strong-BCQ identity states that N cap B_dual subset of [0,tau]C (+ K)
# holds exactly for tau >= T_R, with T_R in closed form on its right-hand
# side.  The left side is the closed up-set {tau >= T_S}, T_S the largest
# vertex threshold t*(v) (0 without vertices).  Two such up-sets of (0, oo)
# agree iff they agree at every T in (0, oo) among T_S and T_R and at half the
# least of those (at 1 when there is none), so the battery decides each
# identity at those probes, asking check_strong_bcq for the left side.

def _endset_tau(bcq: bool, d):
    """Least tau with bcq and d >= 1/tau: INF when there is none, 0 when
    every tau > 0 works."""
    if not bcq:
        return INF
    if d is INF:
        return Fraction(0)
    return INF if d == 0 else 1 / d


def _bcq_holds(an: Analysis, mode: str) -> bool:
    check = {MODE_CLARKE: check_clarke_bcq, MODE_EXTENDED: check_extended_bcq,
             MODE_FRECHET: check_frechet_bcq}[mode]
    return check(an)[0]


def _tau_endset(an: Analysis, mode: str):
    """1/d(0, E[.]) of the mode's end set."""
    return best_tau_endset(an, mode)[0]


def _tau_subdiff_endset(an: Analysis, mode: str):
    """1/d(0, E[@c f(x)]) of the raw Clarke subdifferential."""
    return _endset_tau(_bcq_holds(an, mode), an.clarke_subdiff_distance)


def _tau_error_bound(an: Analysis, mode: str):
    return error_bound_modulus(an) if _bcq_holds(an, mode) else INF


def _tau_dirwise(an: Analysis, mode: str):
    return best_tau_directional(an, mode)[0]


def _clarke_taus_agree(an: Analysis) -> bool:
    """Under Clarke BCQ the direction-wise and end-set routes give one tau."""
    tau_d, _ = best_tau_directional(an, MODE_CLARKE)
    tau_e, _ = best_tau_endset(an, MODE_CLARKE)
    return not _bcq_holds(an, MODE_CLARKE) or tau_d == tau_e


def _clarke_distances_agree(an: Analysis) -> bool:
    return endset_distance(an, MODE_CLARKE) == an.clarke_subdiff_distance


def _zero_level_by_continuity(an: Analysis):
    if an.phi_value != 0:
        raise RuntimeError("a continuous boundary point must sit on the zero level")


def _prop31(an: Analysis) -> bool:
    check_subdiff_in_normal(an)  # raises on mismatch of the two sides
    return True


def _thm32(an: Analysis) -> bool:
    check_tangent_inclusion(an)  # raises when either direction fails
    return True


def _prop32(an: Analysis) -> bool:
    # one scale decides every scale (the lemma in verify_prop32)
    return all(verify_prop32(an, Fraction(1)).values())


def _prop41(an: Analysis) -> bool:
    """cl([0,1]C) = [0,1]C for the Frechet subdifferential C; by the scaling
    lemma with K = {0} this decides every scale r > 0.  Both sides are
    constructions of cl([0,1]C): segment_hull, from the generators of C, and
    the t <= 1 part of hom(C), which is closed and lies between [0,1]C and
    its closure.  So the row cannot fail for a correct engine; it
    cross-checks those two constructions."""
    sub = an.frechet
    if sub.is_empty:
        raise NotApplicable("empty Frechet subdifferential")
    return segment_hull(sub, 1).set_eq(_scaled_part(_hom(sub), 1))


def _prop42(an: Analysis) -> bool:
    bcq, _, _ = check_frechet_bcq(an)
    G = an.frechet.generators().vertices
    lhs = HPolyhedron(an.f.dim, [(g, Fraction(0)) for g in G]).canonical()
    eq48 = lhs.set_eq(an.tangent_contingent.convex_hull().canonical())
    if bcq:
        return eq48
    return not eq48 or an.frechet.contains(zeros(an.f.dim))


def _guards(*names):
    return tuple(getattr(Analysis, "require_" + n) for n in names)


@dataclass(frozen=True)
class _Identity:
    """One paper identity: its hypothesis guards, then either a predicate
    (mode None: rhs(an) is the verdict) or a strong-BCQ comparison of the
    mode's left side with {tau >= rhs(an, mode)}.  `also` is a further check
    of the row; where `exact(an)` is false only the right side has to imply
    the left."""
    name: str
    guards: tuple
    mode: str | None
    rhs: Callable
    also: Callable | None = None
    exact: Callable = lambda an: True


_THM41 = _Identity("thm4.1", _guards("boundary", "zero_level", "bounded_frechet"),
                   MODE_FRECHET, _tau_endset)

_IDENTITIES = (
    _Identity("thm3.1", _guards("boundary", "lipschitz"), MODE_CLARKE, _tau_endset,
              also=_clarke_taus_agree),
    _Identity("cor3.1", _guards("boundary", "lipschitz", "subdiff_in_normal"),
              MODE_CLARKE, _tau_subdiff_endset, also=_clarke_distances_agree),
    _Identity("prop3.1", (), None, _prop31),
    _Identity("thm3.2", (), None, _thm32),
    _Identity("thm3.3", _guards("boundary", "lipschitz"), MODE_CLARKE, _tau_dirwise),
    _Identity("thm3.4", _guards("boundary", "lipschitz"), MODE_CLARKE, _tau_error_bound,
              exact=lambda an: an.subdiff_in_normal),
    _Identity("cor3.2", _guards("boundary", "lipschitz", "regular"), MODE_CLARKE,
              _tau_subdiff_endset),
    _Identity("cor3.3", _guards("boundary", "lipschitz", "regular"), MODE_CLARKE,
              _tau_error_bound),
    _Identity("prop3.2", (), None, _prop32),
    _Identity("thm3.5", _guards("boundary", "zero_level"), MODE_EXTENDED, _tau_endset),
    _Identity("thm3.6", _guards("boundary", "zero_level", "trivial_singular"), MODE_CLARKE,
              _tau_endset),
    _Identity("cor3.4", _guards("boundary", "zero_level", "nonempty_clarke",
                                "subdiff_in_normal"), MODE_EXTENDED, _tau_subdiff_endset),
    _Identity("cor3.5", _guards("boundary", "zero_level", "trivial_singular",
                                "subdiff_in_normal"), MODE_CLARKE, _tau_subdiff_endset),
    _Identity("prop4.1", _guards("boundary", "bounded_frechet"), None, _prop41),
    _THM41,
    _Identity("cor4.1", _guards("boundary", "lipschitz") + (_zero_level_by_continuity,)
              + _THM41.guards, MODE_FRECHET, _tau_endset),
    _Identity("prop4.2", _guards("boundary", "bounded_frechet"), None, _prop42),
    _Identity("prop4.3", _guards("boundary", "zero_level", "bounded_frechet"), MODE_FRECHET,
              _tau_dirwise),
)


def _probes(*thresholds) -> list[Fraction]:
    inner = sorted({t for t in thresholds if t is not INF and t > 0})
    return inner + [inner[0] / 2 if inner else Fraction(1)]


def _holds(an: Analysis, row: _Identity) -> bool:
    for guard in row.guards:
        guard(an)
    if row.mode is None:
        return row.rhs(an)
    if row.also is not None and not row.also(an):
        return False
    t_r = row.rhs(an, row.mode)
    t_s = max((t for _, t in strong_bcq_thresholds(an, row.mode)), default=Fraction(0))
    exact = row.exact(an)
    for tau in _probes(t_s, t_r):
        lhs, _ = check_strong_bcq(an, tau, row.mode)
        rhs = t_r <= tau
        if lhs != rhs and (exact or rhs):
            return False
    return True


def verify_theorems(an: Analysis) -> dict:
    """Each paper identity evaluated from independent routes; values are
    'pass', 'fail' or 'not-applicable'."""
    results: dict[str, str] = {}
    for row in _IDENTITIES:
        try:
            results[row.name] = "pass" if _holds(an, row) else "fail"
        except (NotApplicable, NotLipschitz):
            results[row.name] = "not-applicable"
    return results


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class CQReport:
    basepoint: Vec
    phi_value: Fraction
    norm: NormSpec
    on_boundary: bool
    lipschitz: bool
    clarke_bcq: bool | None = None
    clarke_bcq_witness: Vec | None = None
    clarke_strong_bcq_tau: object = None   # Fraction | INF | None
    extended_bcq: bool | None = None
    extended_strong_bcq_tau: object = None
    frechet_bcq: bool | None = None
    frechet_strong_bcq_tau: object = None
    endset_distance_clarke: object = None
    endset_distance_frechet: object = None
    error_bound_modulus: object = None
    subdiff_in_normal: bool | None = None
    regular_at_point: bool | None = None
    clarke_subdiff_rows: tuple = ()
    theorem_checks: dict = field(default_factory=dict)
    flags: tuple = ()


def analyze(f: PLFunction, x, norm: NormSpec = NormSpec("linf")) -> CQReport:
    """Full CQ report at one basepoint; hypothesis violations turn into
    not-applicable fields rather than errors."""
    an = Analysis(f, x, norm)
    flags: set[str] = set()

    def attempt(fn, *args):
        try:
            return fn(an, *args)
        except (NotApplicable, NotLipschitz):
            return None

    rep = CQReport(basepoint=an.x, phi_value=an.phi_value, norm=norm,
                   on_boundary=an.on_boundary, lipschitz=an.lipschitz)
    rep.clarke_subdiff_rows = an.clarke.rows

    r = attempt(check_clarke_bcq)
    if r is not None:
        rep.clarke_bcq, rep.clarke_bcq_witness, fl = r
        flags |= fl
    r = attempt(check_extended_bcq)
    if r is not None:
        rep.extended_bcq, _, fl = r
        flags |= fl
    r = attempt(check_frechet_bcq)
    if r is not None:
        rep.frechet_bcq, _, fl = r
        flags |= fl

    for mode in (MODE_CLARKE, MODE_EXTENDED, MODE_FRECHET):
        r = attempt(best_tau_endset, mode)
        if r is not None:
            setattr(rep, mode + "_strong_bcq_tau", r[0])
            flags |= r[1]

    if an.in_solution_set and an.on_boundary:
        rep.endset_distance_clarke = endset_distance(an, MODE_CLARKE)
        rep.endset_distance_frechet = endset_distance(an, MODE_FRECHET)
    rep.error_bound_modulus = attempt(error_bound_modulus)
    rep.subdiff_in_normal = attempt(check_subdiff_in_normal)
    if an.lipschitz:
        rep.regular_at_point = an.regular
    rep.theorem_checks = verify_theorems(an)
    rep.flags = tuple(sorted(flags))
    return rep
