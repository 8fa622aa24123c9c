"""End sets of closed convex polyhedra.

E[C] = {z in C : tz not in C for all t > 1}: the points from which the ray
through the origin leaves C immediately.  For a member z the exit scale is
min over binding constraints, so z lies in E[C] iff some inequality with
positive offset is active at z, or some equality has a nonzero offset (then
E[C] = C).  Both are read off the canonical representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import INF, Vec, dot, is_zero, zeros
from .polyhedra import HPolyhedron, NormSpec, UnionPolyhedron, distance


@dataclass
class EndSetResult:
    pieces: UnionPolyhedron
    distance_to_origin: object  # Fraction | INF | float (l2 only)
    norm: NormSpec

    @property
    def is_empty(self) -> bool:
        return self.pieces.is_empty


def ray_exit(C: HPolyhedron, z: Vec):
    """sup{t >= 0 : t z in C}; INF when z is a recession direction, None when
    the ray {t z : t >= 0} misses C entirely."""
    if is_zero(z):
        raise ValueError("ray_exit needs z != 0")
    lo = Fraction(0)
    hi = INF
    for a, b in C.rows:
        v = dot(a, z)
        if v > 0:
            hi = min(hi, b / v) if hi is not INF else b / v
        elif v < 0:
            lo = max(lo, b / v)
        elif b < 0:
            return None
    for e, d in C.eqs:
        v = dot(e, z)
        if v == 0:
            if d != 0:
                return None
        else:
            t = d / v
            lo = max(lo, t)
            hi = min(hi, t) if hi is not INF else t
    if hi is not INF and (lo > hi or hi < 0):
        return None
    return hi


def _end_faces(Cc: HPolyhedron) -> list[HPolyhedron]:
    """Pieces of E[C] for canonical Cc: all of Cc when an equality has a
    nonzero offset, else the facets with positive offset (empty for cones)."""
    if Cc.is_empty:
        return []
    if any(d != 0 for _, d in Cc.eqs):
        return [Cc]
    return [Cc.intersect(HPolyhedron(Cc.dim, eqs=[(a, b)])) for a, b in Cc.rows if b > 0]


def end_set(C: HPolyhedron, norm: NormSpec = NormSpec()) -> EndSetResult:
    """E[C] as canonical pieces, with the distance of the origin to them
    measured in `norm` (pass the dual norm when C lives in the dual space)."""
    pieces = UnionPolyhedron(_end_faces(C.canonical()), C.dim).canonical()
    return EndSetResult(pieces, distance(zeros(C.dim), pieces, norm), norm)


def distance_to_end_set(C: HPolyhedron, norm: NormSpec = NormSpec()):
    """d(0, E[C]): one norm-minimization per end-set face; INF for cones and
    other sets with empty end set."""
    return distance(zeros(C.dim), UnionPolyhedron(_end_faces(C.canonical()), C.dim), norm)
