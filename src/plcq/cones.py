"""Tangent and normal cones of finite unions of polyhedra at a point.

The contingent cone of a union is the union of the feasible-direction cones
of the pieces through the point.  The Clarke tangent cone is realized as the
intersection of contingent cones over all local face types: near the point
the set is a translated union of polyhedral cones, the contingent cone map
takes finitely many values, each attained on a relatively open sign class of
the local hyperplane arrangement, and the Liminf of such a map is exactly
the intersection of its values.  Every face is cross-validated against the
contingent cone at an interior representative at two radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vec, add, dot, linf_norm, primitive_signed, scale
from .polyhedra import HPolyhedron, UnionPolyhedron, polar_cone, union_subset

_ATLAS_RADIUS = Fraction(1, 1024)


def local_cone_pieces(A: UnionPolyhedron, a: Vec) -> list[HPolyhedron]:
    pieces = [p.direction_cone(a).canonical() for p in A.pieces if p.contains(a)]
    if not pieces:
        raise ValueError("base point outside the set")
    return pieces


def contingent_cone(A: UnionPolyhedron, a: Vec) -> UnionPolyhedron:
    """Bouligand contingent cone T(A, a): the canonical union of the
    feasible-direction cones of the pieces through a."""
    cones = local_cone_pieces(A, a)
    return UnionPolyhedron(cones, A.dim).canonical()


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


@dataclass
class AtlasFace:
    cone: HPolyhedron            # closure of the sign class
    signs: tuple                 # -1/0/+1 per atlas hyperplane
    representative: Vec          # point of A inside the class, near the anchor
    tangent: UnionPolyhedron     # T(A, x) for every x in the class


@dataclass
class LocalFaceAtlas:
    anchor: Vec
    hyperplanes: tuple[Vec, ...]
    faces: list[AtlasFace]


def face_atlas(A: UnionPolyhedron, a: Vec) -> LocalFaceAtlas:
    """Enumerate the contingent-cone classes of A near a.

    Each face is one nonempty sign class of the arrangement of all active
    constraint hyperplanes inside one of the local cones.  The tangent cone
    of a class follows from its sign vector alone; the representative point,
    at most _ATLAS_RADIUS from a and short of every inactive row of a piece
    through a, re-derives it from the definition as a consistency check.
    """
    kpieces = local_cone_pieces(A, a)
    hyps: list[Vec] = []
    index: dict[Vec, int] = {}
    piece_rows = []  # per piece: ([(hyp_idx, flip)] inequalities, [hyp_idx] equalities)
    for K in kpieces:
        rws = []
        eqz = []
        for (n, _) in K.rows:
            p = primitive_signed(n)
            if p not in index:
                index[p] = len(hyps)
                hyps.append(p)
            rws.append((index[p], 1 if p == n or dot(p, n) > 0 else -1))
        for (e, _) in K.eqs:
            p = primitive_signed(e)
            if p not in index:
                index[p] = len(hyps)
                hyps.append(p)
            eqz.append(index[p])
        piece_rows.append((rws, eqz))

    classes: dict[tuple, HPolyhedron] = {}

    def enum(C: HPolyhedron, i: int, signs: list[int]):
        if i == len(hyps):
            p = C.relint_point()
            actual = tuple(_sign(dot(h, p)) for h in hyps)
            if actual == tuple(signs):
                classes.setdefault(actual, C)
            return
        h = hyps[i]
        v = C.generators()
        can_pos = any(dot(h, r) > 0 for r in v.rays) or any(dot(h, l) != 0 for l in v.lines)
        can_neg = any(dot(h, r) < 0 for r in v.rays) or any(dot(h, l) != 0 for l in v.lines)
        if can_pos:
            enum(C.intersect(HPolyhedron(C.dim, rows=[(scale(h, -1), Fraction(0))])), i + 1, signs + [1])
        if can_neg:
            enum(C.intersect(HPolyhedron(C.dim, rows=[(h, Fraction(0))])), i + 1, signs + [-1])
        enum(C.intersect(HPolyhedron(C.dim, eqs=[(h, Fraction(0))])), i + 1, signs + [0])

    for K in kpieces:
        enum(K, 0, [])

    # inactive rows of the original pieces bound how far representatives may go
    def max_step(p: Vec) -> Fraction:
        eps = _ATLAS_RADIUS / (1 + linf_norm(p))
        for piece in A.pieces:
            if not piece.contains(a):
                continue
            for n, b in piece.rows:
                slack = b - dot(n, a)
                move = dot(n, p)
                if slack > 0 and move > 0:
                    eps = min(eps, slack / move / 2)
        return eps

    faces = []
    for signs, C in sorted(classes.items()):
        eligible = []
        for K, (rws, eqz) in zip(kpieces, piece_rows):
            if all(flip * signs[i] <= 0 for i, flip in rws) and all(signs[i] == 0 for i in eqz):
                eligible.append((K, rws, eqz))
        if not eligible:
            raise RuntimeError("sign class outside every local cone")
        tangent_pieces = []
        for K, rws, eqz in eligible:
            rows = [K.rows[j] for j, (i, _) in enumerate(rws) if signs[i] == 0]
            tangent_pieces.append(HPolyhedron(K.dim, rows, K.eqs))
        tangent = UnionPolyhedron(tangent_pieces, A.dim).canonical()

        p = C.relint_point()
        eps = max_step(p)
        rep = add(a, scale(p, eps))
        for r in (rep, add(a, scale(p, eps / 2))):
            if contingent_cone(A, r).key() != tangent.key():
                raise RuntimeError("atlas face tangent disagrees with its representative")
        faces.append(AtlasFace(cone=C.canonical(), signs=signs,
                               representative=rep, tangent=tangent))
    return LocalFaceAtlas(anchor=a, hyperplanes=tuple(hyps), faces=faces)


def clarke_tangent_cone(A: UnionPolyhedron, a: Vec) -> HPolyhedron:
    """Clarke tangent cone T_c(A, a), a canonical convex polyhedral cone;
    equals the contingent cone when the germ of A at a is convex."""
    kpieces = local_cone_pieces(A, a)
    if len(kpieces) == 1:
        return kpieces[0]
    atlas = face_atlas(A, a)
    current = [HPolyhedron.full_space(A.dim)]
    for face in sorted(atlas.faces, key=lambda f: len(f.tangent.pieces)):
        nxt = []
        for P in current:
            for Q in face.tangent.pieces:
                R = P.intersect(Q)
                if not R.is_empty:
                    nxt.append(R)
        current = list(UnionPolyhedron(nxt, A.dim).canonical().pieces)
        if not current:
            break
    if not current:
        raise RuntimeError("Clarke tangent cone came out empty; it must contain 0")
    union = UnionPolyhedron(current, A.dim)
    hull_ = union.convex_hull()
    if union_subset(hull_, union) is not True:
        raise RuntimeError("intersection of face tangents is not convex")
    return hull_.canonical()


def clarke_normal_cone(A: UnionPolyhedron, a: Vec) -> HPolyhedron:
    """N_c(A, a) = nonnegative polar of the Clarke tangent cone, canonical."""
    return polar_cone(clarke_tangent_cone(A, a))


def frechet_normal_cone(A: UnionPolyhedron, a: Vec) -> HPolyhedron:
    """N^(A, a) = nonnegative polar of the contingent cone, canonical."""
    return polar_cone(contingent_cone(A, a))
