import random
from fractions import Fraction

import pytest

from plcq.cones import (clarke_normal_cone, clarke_tangent_cone,
                        contingent_cone, face_atlas, frechet_normal_cone)
from plcq.linalg import vec, zeros
from plcq.oracle import (SamplePlan, sample_clarke_tangent_membership,
                         sample_contingent_membership)
from plcq.polyhedra import (HPolyhedron, UnionPolyhedron, hull, union_subset)

from conftest import random_point, random_polyhedron

F = Fraction


def two_rays():
    return UnionPolyhedron([hull([zeros(2)], rays=[vec(1, 0)]),
                            hull([zeros(2)], rays=[vec(0, 1)])])


def test_contingent_examples():
    half = UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(0))])])
    T = contingent_cone(half, vec(0))
    assert T.pieces[0].set_eq(HPolyhedron(1, rows=[(vec(1), F(0))]))
    point = UnionPolyhedron([HPolyhedron.single_point(vec(0))])
    assert contingent_cone(point, vec(0)).pieces[0].set_eq(
        HPolyhedron.single_point(vec(0)))
    T2 = contingent_cone(two_rays(), zeros(2))
    assert T2.contains(vec(2, 0)) and T2.contains(vec(0, 3))
    assert not T2.contains(vec(1, 1)) and not T2.contains(vec(-1, 0))


def test_contingent_outside_raises():
    half = UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(0))])])
    with pytest.raises(ValueError):
        contingent_cone(half, vec(1))


def test_clarke_tangent_examples():
    # convex: coincides with the contingent cone
    P = UnionPolyhedron([hull([vec(0, 0), vec(1, 0), vec(0, 1)])])
    Tc = clarke_tangent_cone(P, vec(0, 0))
    assert Tc.set_eq(contingent_cone(P, vec(0, 0)).pieces[0])
    # two rays: {0}
    Tc2 = clarke_tangent_cone(two_rays(), zeros(2))
    assert Tc2.set_eq(HPolyhedron.single_point(zeros(2)))
    # full space
    full = UnionPolyhedron([HPolyhedron.full_space(2)])
    assert clarke_tangent_cone(full, zeros(2)).set_eq(HPolyhedron.full_space(2))


def test_normal_cone_examples():
    half = UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(0))])])
    assert clarke_normal_cone(half, vec(0)).set_eq(
        HPolyhedron(1, rows=[(vec(-1), F(0))]))
    full = UnionPolyhedron([HPolyhedron.full_space(1)])
    assert clarke_normal_cone(full, vec(0)).set_eq(HPolyhedron.single_point(vec(0)))
    assert clarke_normal_cone(two_rays(), zeros(2)).set_eq(HPolyhedron.full_space(2))
    third_quadrant = HPolyhedron(2, rows=[(vec(1, 0), F(0)), (vec(0, 1), F(0))])
    assert frechet_normal_cone(two_rays(), zeros(2)).set_eq(third_quadrant)
    fullN = UnionPolyhedron([HPolyhedron.full_space(3)])
    assert frechet_normal_cone(fullN, zeros(3)).set_eq(
        HPolyhedron.single_point(zeros(3)))


def test_isolated_point_degenerate():
    A = UnionPolyhedron([HPolyhedron.single_point(vec(2))])
    assert contingent_cone(A, vec(2)).pieces[0].set_eq(HPolyhedron.single_point(vec(0)))
    assert clarke_tangent_cone(A, vec(2)).set_eq(HPolyhedron.single_point(vec(0)))
    assert clarke_normal_cone(A, vec(2)).set_eq(HPolyhedron.full_space(1))


def _random_union(rng, dim, k):
    pieces = []
    for _ in range(k):
        P = random_polyhedron(rng, dim)
        if not P.is_empty:
            pieces.append(P)
    return UnionPolyhedron(pieces, dim) if pieces else None


def _some_point(rng, U):
    pts = [p.relint_point() for p in U.pieces]
    verts = [v for p in U.pieces for v in p.generators().vertices]
    cands = pts + verts
    return cands[rng.randrange(len(cands))]


def test_cone_inclusions_random(rng):
    # Frechet normals inside Clarke normals; Clarke tangent convex and inside
    # the contingent cone; convex case coincidence
    done = 0
    while done < 25:
        dim = rng.randint(1, 2)
        U = _random_union(rng, dim, rng.randint(1, 3))
        if U is None:
            continue
        a = _some_point(rng, U)
        T = contingent_cone(U, a)
        Tc = clarke_tangent_cone(U, a)
        Nc = clarke_normal_cone(U, a)
        Nf = frechet_normal_cone(U, a)
        assert union_subset(Nf, UnionPolyhedron([Nc])) is True
        assert union_subset(UnionPolyhedron([Tc]), T) is True
        assert Tc.set_eq(Tc.canonical())
        if len([p for p in U.pieces if p.contains(a)]) == 1 and len(U.pieces) == 1:
            assert Tc.set_eq(T.pieces[0])
            assert Nf.set_eq(Nc)
        done += 1


def test_atlas_faces_cross_validated(rng):
    # representatives of every face class reproduce the class tangent cone
    # (face_atlas raises internally otherwise); also at half radius
    U = two_rays()
    atlas = face_atlas(U, zeros(2))
    assert len(atlas.faces) >= 3
    for face in atlas.faces:
        assert U.contains(face.representative) or face.representative == zeros(2)


def test_cones_agree_with_sampling_oracle(rng):
    plan = SamplePlan(seed=3)
    agree = 0
    total = 0
    done = 0
    while done < 8:
        dim = rng.randint(1, 2)
        U = _random_union(rng, dim, rng.randint(1, 2))
        if U is None:
            continue
        a = _some_point(rng, U)
        T = contingent_cone(U, a)
        Tc = clarke_tangent_cone(U, a)
        hyps = [row[0] for p in U.pieces for row in p.rows]
        for _ in range(25):
            v = random_point(rng, dim)
            if all(q == 0 for q in v):
                continue
            margin = min((abs(sum(h_i * q for h_i, q in zip(h, v))) for h in hyps),
                         default=F(1))
            if 0 < margin < F(1, 2 ** 20):
                continue
            agree += (T.contains(v) == sample_contingent_membership(U, a, v, plan))
            agree += (Tc.contains(v) == sample_clarke_tangent_membership(U, a, v, plan))
            total += 2
        done += 1
    assert total > 100
    assert agree / total >= 0.99
