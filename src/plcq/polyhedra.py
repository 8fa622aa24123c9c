"""Exact polyhedral set algebra.

Everything here is a closed convex polyhedron {x : A x <= b, E x = d} over
exact rationals, or a finite union of such.  H- and V-representations are
converted with the double description method; canonical forms make
structural equality coincide with set equality, which the rest of the
package relies on for decidable set identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .linalg import (INF, Vec, add, dot, is_zero, l1_norm, linf_norm, neg,
                     nullspace, primitive, primitive_signed, rank, rref,
                     scale, solve, sub, unit, zeros)
from . import simplex

Row = tuple[Vec, Fraction]


class VRep(NamedTuple):
    vertices: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    lines: tuple[Vec, ...]


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def _adjacent(zs_u, zs_v, others, normals, dim, nlines) -> bool:
    """Algebraic adjacency of extreme rays u, v in a cone with `nlines`
    lineality dimensions: the face spanned by both must have dimension
    exactly nlines + 2, i.e. the common tight normals must have rank
    dim - nlines - 2.  Exact, so it stays correct under degeneracy."""
    common = zs_u & zs_v
    for zs_w in others:
        if common <= zs_w:
            return False
    return rank([normals[i] for i in common]) == dim - nlines - 2


@lru_cache(maxsize=100000)
def dd_cone(constraints: tuple[Vec, ...], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Generators (lines, rays) of the cone {y in R^dim : a.y <= 0 for all a}.

    Incremental double description: start from the whole space (a basis of
    lines, no rays) and add one constraint at a time.  A constraint not
    orthogonal to the lineality consumes one line; otherwise surviving rays
    are the nonpositive ones plus combinations of adjacent (+,-) pairs.
    """
    lines: list[Vec] = [unit(dim, i) for i in range(dim)]
    rays: list[tuple[Vec, frozenset]] = []
    normals: list[Vec] = []
    for a in constraints:
        if is_zero(a):
            continue
        idx = len(normals)
        pivot = next((l for l in lines if dot(a, l) != 0), None)
        if pivot is not None:
            alpha = dot(a, pivot)
            new_lines = []
            for l in lines:
                if l is pivot:
                    continue
                v = dot(a, l)
                new_lines.append(primitive_signed(sub(l, scale(pivot, v / alpha))) if v != 0 else l)
            lines = new_lines
            new_rays = []
            for r, zs in rays:
                v = dot(a, r)
                r2 = primitive(sub(r, scale(pivot, v / alpha))) if v != 0 else r
                new_rays.append((r2, zs | {idx}))
            r0 = neg(pivot) if alpha > 0 else pivot
            # the consumed line was orthogonal to every earlier constraint
            new_rays.append((primitive(r0), frozenset(range(idx))))
            rays = new_rays
        else:
            vals = [dot(a, r) for r, _ in rays]
            if all(v <= 0 for v in vals):
                rays = [(r, zs | {idx} if v == 0 else zs)
                        for (r, zs), v in zip(rays, vals)]
            else:
                keep = [(r, zs | {idx} if v == 0 else zs)
                        for (r, zs), v in zip(rays, vals) if v <= 0]
                nlines = len(lines)
                for (ip, (rp, zsp)), (im, (rm, zsm)) in itertools.product(
                        enumerate(rays), enumerate(rays)):
                    if vals[ip] <= 0 or vals[im] >= 0:
                        continue
                    others = [zs for i, (_, zs) in enumerate(rays) if i not in (ip, im)]
                    if not _adjacent(zsp, zsm, others, normals, dim, nlines):
                        continue
                    comb = sub(scale(rm, vals[ip]), scale(rp, vals[im]))
                    keep.append((primitive(comb), (zsp & zsm) | {idx}))
                seen = set()
                rays = []
                for r, zs in keep:
                    if r not in seen:
                        seen.add(r)
                        rays.append((r, zs))
        normals.append(a)
    out_lines, _ = rref(lines)
    out_lines = tuple(sorted(primitive_signed(l) for l in out_lines))
    out_rays = tuple(sorted({r for r, _ in rays}))
    return out_lines, out_rays


# ---------------------------------------------------------------------------
# HPolyhedron
# ---------------------------------------------------------------------------

class HPolyhedron:
    """Closed convex polyhedron {x : a.x <= b (rows), e.x = d (eqs)}."""

    def __init__(self, dim: int, rows=(), eqs=()):
        self.dim = dim
        self.rows: tuple[Row, ...] = tuple((tuple(a), Fraction(b)) for a, b in rows)
        self.eqs: tuple[Row, ...] = tuple((tuple(e), Fraction(d)) for e, d in eqs)
        for a, _ in self.rows + self.eqs:
            if len(a) != dim:
                raise ValueError("row dimension mismatch")
        self._vrep: VRep | None = None
        self._canonical: HPolyhedron | None = None
        self._is_canonical = False

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def full_space(dim: int) -> HPolyhedron:
        return HPolyhedron(dim)

    @staticmethod
    def single_point(x: Vec) -> HPolyhedron:
        dim = len(x)
        return HPolyhedron(dim, eqs=[(unit(dim, i), x[i]) for i in range(dim)])

    @staticmethod
    def empty(dim: int) -> HPolyhedron:
        return HPolyhedron(dim, rows=[(zeros(dim), Fraction(-1))])

    # -- V-representation ----------------------------------------------------

    def generators(self) -> VRep:
        if self._vrep is None:
            cons = [tuple(a) + (-b,) for a, b in self.rows]
            for e, d in self.eqs:
                cons.append(tuple(e) + (-d,))
                cons.append(neg(tuple(e) + (-d,)))
            cons.append(zeros(self.dim) + (Fraction(-1),))
            lines, rays = dd_cone(tuple(cons), self.dim + 1)
            verts = []
            recrays = []
            for r in rays:
                t = r[self.dim]
                if t > 0:
                    verts.append(tuple(q / t for q in r[:self.dim]))
                else:
                    recrays.append(r[:self.dim])
            reclines = [l[:self.dim] for l in lines]
            if not verts:
                self._vrep = VRep((), (), ())
            else:
                self._vrep = VRep(tuple(sorted(verts)),
                                  tuple(sorted(recrays)),
                                  tuple(sorted(reclines)))
        return self._vrep

    @property
    def is_empty(self) -> bool:
        return not self.generators().vertices

    def contains(self, x: Vec) -> bool:
        return (all(dot(a, x) <= b for a, b in self.rows)
                and all(dot(e, x) == d for e, d in self.eqs))

    def strictly_contains(self, x: Vec) -> bool:
        """x in the interior (empty unless the polyhedron is full-dimensional)."""
        return not self.eqs and all(dot(a, x) < b for a, b in self.rows)

    def support(self, h: Vec):
        """sup{h.x : x in self}: Fraction, INF, or -INF for the empty set."""
        v = self.generators()
        if not v.vertices:
            return -INF
        if any(dot(h, r) > 0 for r in v.rays) or any(dot(h, l) != 0 for l in v.lines):
            return INF
        return max(dot(h, p) for p in v.vertices)

    def subset_of(self, other: HPolyhedron):
        """True, or a witness point of self \\ other."""
        v = self.generators()
        if not v.vertices:
            return True
        cons = list(other.rows) + [(e, d) for e, d in other.eqs] + \
            [(neg(e), -d) for e, d in other.eqs]
        for p in v.vertices:
            if not other.contains(p):
                return p
        for r in v.rays:
            for a, b in cons:
                if dot(a, r) > 0:
                    p0 = v.vertices[0]
                    k = (b - dot(a, p0)) / dot(a, r) + 1
                    return add(p0, scale(r, max(k, Fraction(1))))
        for l in v.lines:
            for a, b in cons:
                w = dot(a, l)
                if w != 0:
                    d0 = l if w > 0 else neg(l)
                    p0 = v.vertices[0]
                    k = (b - dot(a, p0)) / dot(a, d0) + 1
                    return add(p0, scale(d0, max(k, Fraction(1))))
        return True

    def set_eq(self, other: HPolyhedron) -> bool:
        return self.subset_of(other) is True and other.subset_of(self) is True

    # -- algebra ---------------------------------------------------------------

    def intersect(self, other: HPolyhedron) -> HPolyhedron:
        return HPolyhedron(self.dim, self.rows + other.rows, self.eqs + other.eqs)

    def translate(self, v: Vec) -> HPolyhedron:
        return HPolyhedron(self.dim,
                           [(a, b + dot(a, v)) for a, b in self.rows],
                           [(e, d + dot(e, v)) for e, d in self.eqs])

    def recession(self) -> HPolyhedron:
        if self.is_empty:
            raise ValueError("recession cone of the empty set")
        return HPolyhedron(self.dim,
                           [(a, Fraction(0)) for a, _ in self.rows],
                           [(e, Fraction(0)) for e, _ in self.eqs])

    def slice_last(self, level) -> HPolyhedron:
        """{x : (x, level) in self} in one dimension less."""
        level = Fraction(level)
        return HPolyhedron(self.dim - 1,
                           [(a[:-1], b - a[-1] * level) for a, b in self.rows],
                           [(e[:-1], d - e[-1] * level) for e, d in self.eqs])

    def project(self, keep: tuple[int, ...]) -> HPolyhedron:
        """Orthogonal projection onto the listed coordinates."""
        v = self.generators()
        if not v.vertices:
            return HPolyhedron.empty(len(keep))
        take = lambda p: tuple(p[i] for i in keep)
        return hull([take(p) for p in v.vertices],
                    [take(r) for r in v.rays if not is_zero(take(r))],
                    [take(l) for l in v.lines if not is_zero(take(l))],
                    len(keep))

    # -- structure -------------------------------------------------------------

    def _directions(self) -> list[Vec]:
        v = self.generators()
        p0 = v.vertices[0]
        return [sub(p, p0) for p in v.vertices[1:]] + list(v.rays) + list(v.lines)

    def affine_dim(self) -> int:
        if self.is_empty:
            return -1
        return rank(self._directions())

    def is_full_dim(self) -> bool:
        return self.affine_dim() == self.dim

    def relint_point(self) -> Vec:
        v = self.generators()
        if not v.vertices:
            raise ValueError("relative interior of the empty set")
        p = zeros(self.dim)
        for q in v.vertices:
            p = add(p, q)
        p = scale(p, Fraction(1, len(v.vertices)))
        for r in v.rays:
            p = add(p, r)
        return p

    def is_cone(self) -> bool:
        return all(b == 0 for _, b in self.rows) and all(d == 0 for _, d in self.eqs)

    def direction_cone(self, x: Vec) -> HPolyhedron:
        """Cone of feasible directions at a member point x: the rows active
        at x become homogeneous, inactive rows drop out."""
        if not self.contains(x):
            raise ValueError("direction cone at a point outside the set")
        rows = [(a, Fraction(0)) for a, b in self.rows if dot(a, x) == b]
        eqs = [(e, Fraction(0)) for e, _ in self.eqs]
        return HPolyhedron(self.dim, rows, eqs)

    # -- canonical form ----------------------------------------------------------

    def canonical(self) -> HPolyhedron:
        """Irredundant representation: canonical equalities spanning the affine
        hull, one primitive inequality per facet, sorted.  Two HPolyhedra are
        equal as sets iff their canonical rows and eqs are equal as tuples."""
        if self._is_canonical:
            return self
        if self._canonical is not None:
            return self._canonical
        v = self.generators()
        if not v.vertices:
            out = HPolyhedron.empty(self.dim)
            out._is_canonical = True
            out._vrep = VRep((), (), ())
            self._canonical = out
            return out
        p0 = v.vertices[0]
        dirs = self._directions()
        normals = nullspace(dirs, self.dim)
        afd = self.dim - len(normals)
        # joint RREF of (a | b) is unique for the affine hull, so the
        # equality block is canonical
        eq_rref, eq_pivots = rref([a + (dot(a, p0),) for a in normals])
        if self.dim in eq_pivots:
            raise RuntimeError("affine hull equations are inconsistent at a vertex")
        eqs = tuple(sorted((primitive_signed(r)[:-1], primitive_signed(r)[-1])
                           for r in eq_rref))

        def reduce_row(a: Vec, b: Fraction) -> Row:
            a = list(a)
            for r, c in zip(eq_rref, eq_pivots):
                if a[c] != 0:
                    f = a[c]  # rref pivot coefficient is 1
                    a = [x - f * y for x, y in zip(a, r[:-1])]
                    b = b - f * r[-1]
            return tuple(a), b

        cand = {}
        for a, b in self.rows:
            a2, b2 = reduce_row(a, b)
            if is_zero(a2):
                continue
            p = primitive(a2 + (b2,))
            cand[(p[:-1], p[-1])] = True

        rows_out = []
        for a, b in cand:
            tight_verts = [p for p in v.vertices if dot(a, p) == b]
            if not tight_verts:
                continue
            q0 = tight_verts[0]
            fdirs = [sub(p, q0) for p in tight_verts[1:]]
            fdirs += [r for r in v.rays if dot(a, r) == 0]
            fdirs += list(v.lines)
            if rank(fdirs) == afd - 1:
                rows_out.append((a, b))
        out = HPolyhedron(self.dim, tuple(sorted(rows_out)), eqs)
        out._is_canonical = True
        out._vrep = v
        out._canonical = out
        self._canonical = out
        return out

    def key(self):
        c = self.canonical()
        return (c.dim, c.rows, c.eqs)

    def __repr__(self):
        return "HPolyhedron(dim=%d, %d rows, %d eqs)" % (
            self.dim, len(self.rows), len(self.eqs))


# ---------------------------------------------------------------------------
# V -> H
# ---------------------------------------------------------------------------

def hull(points, rays=(), lines=(), dim=None) -> HPolyhedron:
    """Minimal H-representation of conv(points) + cone(rays) + span(lines)."""
    points = [tuple(p) for p in points]
    if not points:
        raise ValueError("convex hull of an empty point set")
    if dim is None:
        dim = len(points[0])
    gens = [p + (Fraction(1),) for p in points]
    gens += [tuple(r) + (Fraction(0),) for r in rays]
    for l in lines:
        gens.append(tuple(l) + (Fraction(0),))
        gens.append(neg(tuple(l) + (Fraction(0),)))
    dlines, drays = dd_cone(tuple(primitive(g) for g in gens), dim + 1)
    rows = []
    eqs = []
    for y in drays:
        a, beta = y[:dim], y[dim]
        if not is_zero(a):
            rows.append((a, -beta))
    for y in dlines:
        a, beta = y[:dim], y[dim]
        if not is_zero(a):
            eqs.append((a, -beta))
    return HPolyhedron(dim, rows, eqs).canonical()


def minkowski_sum(A: HPolyhedron, B: HPolyhedron) -> HPolyhedron:
    """Exact H-representation of A + B, via V-representations."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    if A.is_empty or B.is_empty:
        raise ValueError("Minkowski sum with an empty operand")
    va, vb = A.generators(), B.generators()
    pts = [add(p, q) for p in va.vertices for q in vb.vertices]
    return hull(pts, va.rays + vb.rays, va.lines + vb.lines, A.dim)


def segment_hull(C: HPolyhedron, r) -> HPolyhedron:
    """Closure of [0,r]C = {t c : t in [0,r], c in C}, with [0,r]EMPTY = {0}.

    For polyhedral C this closure is conv({0} union rV) + cone(R) + span(L)
    where (V, R, L) are the generators of C.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError("scaling interval needs r >= 0")
    if C.is_empty or r == 0:
        return HPolyhedron.single_point(zeros(C.dim))
    v = C.generators()
    pts = [zeros(C.dim)] + [scale(p, r) for p in v.vertices]
    return hull(pts, v.rays, v.lines, C.dim)


def nonneg_hull(C: HPolyhedron) -> HPolyhedron:
    """Closure of [0,+oo)C: the closed conic hull cone(V u R) + span(L)."""
    if C.is_empty:
        return HPolyhedron.single_point(zeros(C.dim))
    v = C.generators()
    return hull([zeros(C.dim)], v.vertices + v.rays, v.lines, C.dim)


def scale_interval(z: Vec, C: HPolyhedron) -> tuple | None:
    """The closed interval {t >= 0 : z in t*C} (with t*C = {y : a.y <= t b}
    for t > 0), as (lo, hi) with hi possibly INF; None if no t > 0 works.

    Representation independent: redundant rows of C scale to redundant rows
    of tC, so the interval only depends on the set C.
    """
    lo = Fraction(0)
    hi = INF
    for a, b in C.rows:
        v = dot(a, z)
        if b > 0:
            lo = max(lo, v / b)
        elif b == 0:
            if v > 0:
                return None
        else:
            hi = min(hi, v / b) if hi is not INF else v / b
    for e, d in C.eqs:
        v = dot(e, z)
        if d == 0:
            if v != 0:
                return None
        else:
            t = v / d
            lo = max(lo, t)
            hi = min(hi, t) if hi is not INF else t
    if hi is not INF and lo > hi:
        return None
    return (lo, hi)


# ---------------------------------------------------------------------------
# unions
# ---------------------------------------------------------------------------

class UnionPolyhedron:
    """Finite union of HPolyhedra of a common dimension."""

    def __init__(self, pieces, dim=None):
        pieces = tuple(pieces)
        if dim is None:
            if not pieces:
                raise ValueError("need a dimension for the empty union")
            dim = pieces[0].dim
        for p in pieces:
            if p.dim != dim:
                raise ValueError("dimension mismatch among pieces")
        self.dim = dim
        self.pieces = pieces
        self._canonical: UnionPolyhedron | None = None

    @property
    def is_empty(self) -> bool:
        return all(p.is_empty for p in self.pieces)

    def contains(self, x: Vec) -> bool:
        return any(p.contains(x) for p in self.pieces)

    def canonical(self) -> UnionPolyhedron:
        """Nonempty canonical pieces, duplicates and absorbed pieces removed,
        sorted by key.  After key dedup no two pieces are set-equal, so a
        running set of maximal pieces gives exactly the maximal pieces in
        any order: a piece inside a kept one is dropped, otherwise the kept
        pieces inside it are dropped and it is kept."""
        if self._canonical is not None:
            return self._canonical
        pieces = [p.canonical() for p in self.pieces if not p.is_empty]
        seen = {}
        for p in pieces:
            seen[p.key()] = p
        out = []
        for p in seen.values():
            if any(p.subset_of(q) is True for q in out):
                continue
            out = [q for q in out if q.subset_of(p) is not True]
            out.append(p)
        u = UnionPolyhedron(sorted(out, key=lambda p: p.key()), self.dim)
        u._canonical = u
        self._canonical = u
        return u

    def key(self):
        c = self.canonical()
        return (c.dim, tuple(p.key() for p in c.pieces))

    def convex_hull(self) -> HPolyhedron:
        pts, rays, lines = [], [], []
        for p in self.pieces:
            v = p.generators()
            pts += list(v.vertices)
            rays += list(v.rays)
            lines += list(v.lines)
        if not pts:
            return HPolyhedron.empty(self.dim)
        return hull(pts, rays, lines, self.dim)

    def __repr__(self):
        return "UnionPolyhedron(dim=%d, %d pieces)" % (self.dim, len(self.pieces))


def as_union(S) -> UnionPolyhedron:
    if isinstance(S, UnionPolyhedron):
        return S
    return UnionPolyhedron([S], S.dim)


def _piece_in_union(P: HPolyhedron, pieces) -> Vec | bool:
    if P.is_empty:
        return True
    for Q in pieces:
        if P.subset_of(Q) is True:
            return True
    # split on the first hyperplane of B that strictly separates points of P
    for Q in pieces:
        hyps = list(Q.rows) + [(e, d) for e, d in Q.eqs]
        for a, b in hyps:
            sup = P.support(a)
            inf_ = -P.support(neg(a))
            if inf_ < b < sup:
                below = P.intersect(HPolyhedron(P.dim, rows=[(a, b)]))
                above = P.intersect(HPolyhedron(P.dim, rows=[(neg(a), -b)]))
                w = _piece_in_union(below, pieces)
                if w is not True:
                    return w
                return _piece_in_union(above, pieces)
    # P sits weakly on one side of every bounding hyperplane and is inside no
    # piece, so its relative interior misses the whole union
    w = P.relint_point()
    if any(Q.contains(w) for Q in pieces):
        raise RuntimeError("relative-interior witness lies inside the union")
    return w


def union_subset(A, B):
    """Decide A subset of B for unions of polyhedra.

    Returns True, or (False, witness) with a rational point in A \\ B.
    """
    A, B = as_union(A), as_union(B)
    live = [q for q in B.pieces if not q.is_empty]
    for P in A.pieces:
        w = _piece_in_union(P, live)
        if w is not True:
            return (False, w)
    return True


def union_set_eq(A, B) -> bool:
    return union_subset(A, B) is True and union_subset(B, A) is True


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def polar_cone(K) -> HPolyhedron:
    """Nonnegative polar {y : y.h <= 0 for all h in K}, canonical, of a cone
    or union of cones given as an H- or UnionPolyhedron; for unions this is
    the intersection of the piecewise polars, hence convex.  ValueError on a
    piece with a nonzero offset, whose generators would silently give the
    polar of its conic hull instead."""
    rows: list[Row] = []
    eqs: list[Row] = []
    nonempty = False
    for p in as_union(K).pieces:
        if not p.is_cone():
            raise ValueError("polar_cone needs cones, but a piece has a nonzero offset")
        v = p.generators()
        if not v.vertices:
            continue
        nonempty = True
        rows += [(r, Fraction(0)) for r in v.rays]
        rows += [(q, Fraction(0)) for q in v.vertices if not is_zero(q)]
        eqs += [(l, Fraction(0)) for l in v.lines]
    if not nonempty:
        return HPolyhedron.full_space(K.dim).canonical()
    return HPolyhedron(K.dim, rows, eqs).canonical()


# ---------------------------------------------------------------------------
# norms and distances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Which norm distances are measured in.  l1 and linf give exact
    (polyhedral) distances; l2 is evaluated as a float and flagged."""
    kind: str = "linf"

    def __post_init__(self):
        if self.kind not in ("l1", "linf", "l2"):
            raise ValueError("norm kind must be l1, linf or l2")

    @property
    def is_exact(self) -> bool:
        return self.kind != "l2"

    def dual(self) -> NormSpec:
        if self.kind == "l1":
            return NormSpec("linf")
        if self.kind == "linf":
            return NormSpec("l1")
        return self

    def value(self, v: Vec):
        if self.kind == "l1":
            return l1_norm(v)
        if self.kind == "linf":
            return linf_norm(v)
        return float(sum(q * q for q in v)) ** 0.5

    @lru_cache(maxsize=None)
    def ball(self, dim: int) -> HPolyhedron:
        """The closed unit ball as a canonical polyhedron (l1/linf only),
        built once per norm and dimension."""
        if self.kind == "linf":
            rows = []
            for i in range(dim):
                rows.append((unit(dim, i), Fraction(1)))
                rows.append((neg(unit(dim, i)), Fraction(1)))
            return HPolyhedron(dim, rows).canonical()
        if self.kind == "l1":
            rows = [(tuple(Fraction(s) for s in signs), Fraction(1))
                    for signs in itertools.product((1, -1), repeat=dim)]
            return HPolyhedron(dim, rows).canonical()
        raise ValueError("the l2 ball is not polyhedral")


def _min_sqdist(x: Vec, P: HPolyhedron) -> Fraction:
    """Exact squared euclidean distance from x to nonempty P, by enumerating
    candidate active sets and projecting onto their affine spans."""
    n = P.dim
    best = None
    sets = [()]
    for k in range(1, n + 1):
        sets += list(itertools.combinations(range(len(P.rows)), k))
    for active in sets:
        mrows = [P.rows[i][0] for i in active] + [e for e, _ in P.eqs]
        rhs = [P.rows[i][1] for i in active] + [d for _, d in P.eqs]
        if not mrows:
            cand = x
        else:
            if rank(mrows) < len(mrows):
                continue
            # projection of x onto {M y = c}: y = x - M^T u with (M M^T) u = M x - c
            mmt = [tuple(dot(r1, r2) for r2 in mrows) for r1 in mrows]
            rvec = [dot(r, x) - c for r, c in zip(mrows, rhs)]
            u = solve(mmt, rvec)
            if u is None:
                continue
            shift = zeros(n)
            for ui, r in zip(u, mrows):
                shift = add(shift, scale(r, ui))
            cand = sub(x, shift)
        if P.contains(cand):
            d2 = sum((a - b) ** 2 for a, b in zip(x, cand))
            if best is None or d2 < best:
                best = d2
    if best is None:
        raise RuntimeError("no active set projects onto a point of a nonempty polyhedron")
    return best


def _poly_distance(x: Vec, P: HPolyhedron, norm: NormSpec):
    n = P.dim
    if P.is_empty:
        return INF
    if norm.kind == "l2":
        return float(_min_sqdist(x, P)) ** 0.5
    # one LP for both polyhedral norms: minimize t over (p, t) with p in P
    # and a.(x - p) <= t for every facet a.y <= 1 of the unit ball
    rows = [(a + (Fraction(0),), b) for a, b in P.rows]
    eqs = [(e + (Fraction(0),), d) for e, d in P.eqs]
    rows += [(neg(a) + (Fraction(-1),), -dot(a, x)) for a, _ in norm.ball(n).rows]
    res = simplex.lp_solve(zeros(n) + (Fraction(1),), rows, eqs, sense="min")
    if res.status != simplex.OPTIMAL:
        # a nonempty polyhedron always has a nearest point
        raise RuntimeError("%s distance LP over a nonempty polyhedron returned %s"
                           % (norm.kind, res.status))
    return res.value


def distance(x: Vec, A, norm: NormSpec = NormSpec()):
    """d(x, A) = inf over a in A of ||x - a||; INF for empty A.  Exact for
    l1/linf; float for l2."""
    pieces = A.pieces if isinstance(A, UnionPolyhedron) else [A]
    vals = [_poly_distance(x, p, norm) for p in pieces if not p.is_empty]
    if not vals:
        return INF
    return min(vals)


def support_function(C: HPolyhedron, h: Vec):
    """sup{x.h : x in C}; INF if unbounded over C, -INF if C is empty."""
    if C.dim != len(h):
        raise ValueError("dimension mismatch")
    return C.support(h)
