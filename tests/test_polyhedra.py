import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import plcq
from plcq import simplex
from plcq.linalg import INF, add, dot, scale, vec, zeros
from plcq.polyhedra import (HPolyhedron, NormSpec, UnionPolyhedron, VRep,
                            distance, hull, minkowski_sum,
                            nonneg_hull, polar_cone, segment_hull,
                            support_function, union_subset, union_set_eq)

from conftest import random_point, random_polyhedron

F = Fraction


# -- conversions and canonical forms -----------------------------------------

def test_h_to_v_to_h_roundtrip_random(rng):
    for _ in range(60):
        dim = rng.randint(1, 3)
        P = random_polyhedron(rng, dim)
        if P.is_empty:
            continue
        v = P.generators()
        Q = hull(v.vertices, v.rays, v.lines, dim)
        assert Q.key() == P.canonical().key()


def test_canonical_is_representation_independent(rng):
    for _ in range(40):
        dim = rng.randint(1, 3)
        P = random_polyhedron(rng, dim)
        # rescale rows and append redundant ones: same set, new representation
        rows = [(scale(a, k), k * b)
                for (a, b), k in ((row, F(rng.randint(1, 5), rng.randint(1, 3)))
                                  for row in P.rows)]
        rows += [(a, b + rng.randint(1, 4)) for a, b in P.rows]
        Q = HPolyhedron(dim, rows, P.eqs)
        assert Q.canonical().key() == P.canonical().key()


def test_canonical_empty():
    P = HPolyhedron(1, rows=[(vec(1), F(-1)), (vec(-1), F(-1))])
    assert P.is_empty
    assert P.canonical().is_empty


def test_subset_witness_is_sound(rng):
    for _ in range(40):
        dim = rng.randint(1, 3)
        P = random_polyhedron(rng, dim)
        Q = random_polyhedron(rng, dim)
        w = P.subset_of(Q)
        if w is True:
            for p in P.generators().vertices:
                assert Q.contains(p)
        else:
            assert P.contains(w) and not Q.contains(w)


# -- support functions ---------------------------------------------------------

def test_support_examples():
    seg = HPolyhedron(1, rows=[(vec(1), F(1)), (vec(-1), F(1))])
    assert support_function(seg, vec(1)) == 1
    quad = HPolyhedron(2, rows=[(vec(-1, 0), F(0)), (vec(0, -1), F(0))])
    assert support_function(quad, vec(1, 1)) is INF
    half = HPolyhedron(1, rows=[(vec(1), F(1, 2)), (vec(-1), F(1))])
    assert support_function(half, vec(1)) == F(1, 2)
    assert support_function(HPolyhedron.empty(2), vec(1, 1)) == -INF


def test_support_matches_vertex_maximum(rng):
    for _ in range(30):
        dim = rng.randint(1, 3)
        P = random_polyhedron(rng, dim, kind="polytope")
        if P.is_empty:
            continue
        h = random_point(rng, dim)
        v = P.generators()
        assert support_function(P, h) == max(dot(h, p) for p in v.vertices)


# -- hulls -----------------------------------------------------------------------

def test_hull_examples():
    seg = hull([vec(0), vec(1)])
    assert seg.canonical().rows == ((vec(-1), F(0)), (vec(1), F(1)))
    cross = hull([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])
    assert len(cross.canonical().rows) == 4
    assert cross.contains(vec(F(1, 2), F(1, 2)))
    assert not cross.contains(vec(F(3, 4), F(1, 2)))


def test_hull_point_ray_roundtrip():
    P = hull([vec(1, 0)], rays=[vec(-1, -1)])
    v = P.generators()
    assert v.vertices == (vec(1, 0),) and v.rays == (vec(-1, -1),) and not v.lines


def test_hull_requires_points():
    with pytest.raises(ValueError):
        hull([], rays=[vec(1)])


# -- polars ------------------------------------------------------------------------

def test_polar_examples():
    K = HPolyhedron(1, rows=[(vec(-1), F(0))])  # x >= 0
    assert polar_cone(K).canonical().rows == ((vec(1), F(0)),)
    full = HPolyhedron.full_space(2)
    assert polar_cone(full).set_eq(HPolyhedron.single_point(zeros(2)))
    two_rays = UnionPolyhedron([hull([zeros(2)], rays=[vec(1, 0)]),
                                hull([zeros(2)], rays=[vec(0, 1)])])
    third_quadrant = HPolyhedron(2, rows=[(vec(1, 0), F(0)), (vec(0, 1), F(0))])
    assert polar_cone(two_rays).set_eq(third_quadrant)


def test_polar_rejects_a_piece_with_an_offset():
    # [1, oo) is no cone: its generators would give the polar of [0, oo)
    ray = HPolyhedron(1, rows=[(vec(-1), F(-1))])
    for K in (ray, UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(0))]), ray])):
        with pytest.raises(ValueError, match="nonzero offset"):
            polar_cone(K)


def test_polar_involution_is_convex_hull(rng):
    # polar(polar(K)) = closed convex hull of K, exactly
    for _ in range(25):
        dim = rng.randint(1, 3)
        K = random_polyhedron(rng, dim, kind="cone")
        back = polar_cone(polar_cone(K))
        assert back.set_eq(K.canonical())
    # and for a union it is the hull of the union
    r1 = hull([zeros(2)], rays=[vec(1, 0)])
    r2 = hull([zeros(2)], rays=[vec(0, 1)])
    u = UnionPolyhedron([r1, r2])
    back = polar_cone(polar_cone(u))
    assert back.set_eq(hull([zeros(2)], rays=[vec(1, 0), vec(0, 1)]))


# -- minkowski sums and scaling hulls -------------------------------------------------

def test_minkowski_examples():
    I01 = HPolyhedron(1, rows=[(vec(1), F(1)), (vec(-1), F(0))])
    assert minkowski_sum(I01, I01).set_eq(
        HPolyhedron(1, rows=[(vec(1), F(2)), (vec(-1), F(0))]))
    point0 = HPolyhedron.single_point(vec(0))
    C = random_polyhedron(random.Random(5), 2)
    assert minkowski_sum(point0.intersect(point0), point0).set_eq(point0)
    assert minkowski_sum(C, HPolyhedron.single_point(zeros(2))).set_eq(C.canonical())
    I12 = HPolyhedron(1, rows=[(vec(1), F(2)), (vec(-1), F(-1))])
    ray0 = HPolyhedron(1, rows=[(vec(-1), F(0))])
    assert minkowski_sum(I12, ray0).set_eq(HPolyhedron(1, rows=[(vec(-1), F(-1))]))


def test_minkowski_rejects_empty():
    with pytest.raises(ValueError):
        minkowski_sum(HPolyhedron.empty(1), HPolyhedron.full_space(1))


def test_segment_hull_examples():
    assert segment_hull(HPolyhedron.empty(1), 1).set_eq(HPolyhedron.single_point(vec(0)))
    I12 = HPolyhedron(1, rows=[(vec(1), F(2)), (vec(-1), F(-1))])
    assert segment_hull(I12, 1).set_eq(HPolyhedron(1, rows=[(vec(1), F(2)), (vec(-1), F(0))]))
    ray1 = HPolyhedron(1, rows=[(vec(-1), F(-1))])
    assert segment_hull(ray1, 1).set_eq(HPolyhedron(1, rows=[(vec(-1), F(0))]))


def test_segment_hull_sampled_identity(rng):
    # membership of t*c for sampled (t, c) pairs, and 0 and rC inside
    count = 0
    while count < 1000:
        dim = rng.randint(1, 2)
        C = random_polyhedron(rng, dim)
        if C.is_empty:
            continue
        r = F(rng.randint(1, 3), rng.randint(1, 2))
        H = segment_hull(C, r)
        assert H.contains(zeros(dim))
        v = C.generators()
        for _ in range(10):
            lam = [F(rng.randint(0, 4), 1) for _ in v.vertices]
            tot = sum(lam) or F(1)
            c = zeros(dim)
            for l, p in zip(lam, v.vertices):
                c = add(c, scale(p, l / tot))
            for ray in v.rays:
                c = add(c, scale(ray, F(rng.randint(0, 3), 2)))
            t = F(rng.randint(0, 8), 8) * r
            assert H.contains(scale(c, t))
            count += 1


def test_nonneg_hull():
    I12 = HPolyhedron(1, rows=[(vec(1), F(2)), (vec(-1), F(-1))])
    assert nonneg_hull(I12).set_eq(HPolyhedron(1, rows=[(vec(-1), F(0))]))
    assert nonneg_hull(HPolyhedron.empty(2)).set_eq(HPolyhedron.single_point(zeros(2)))


# -- distances --------------------------------------------------------------------

def test_distance_examples():
    I12 = HPolyhedron(1, rows=[(vec(1), F(2)), (vec(-1), F(-1))])
    assert distance(vec(0), I12) == 1
    assert distance(vec(0), HPolyhedron.full_space(1)) == 0
    half = HPolyhedron(2, rows=[(vec(1, 0), F(0))])
    assert distance(vec(2, 0), half, NormSpec("linf")) == 2
    assert distance(vec(2, 0), half, NormSpec("l1")) == 2
    assert distance(vec(0), HPolyhedron.empty(1)) is INF


def test_distance_zero_iff_member(rng):
    for _ in range(30):
        dim = rng.randint(1, 3)
        P = random_polyhedron(rng, dim)
        if P.is_empty:
            continue
        x = random_point(rng, dim)
        d = distance(x, P, NormSpec("linf"))
        assert (d == 0) == P.contains(x)


def test_distance_l2_flagged_float():
    tri = hull([vec(1, 0), vec(0, 1), vec(1, 1)])
    d = distance(vec(0, 0), tri, NormSpec("l2"))
    assert isinstance(d, float)
    assert abs(d - 2 ** 0.5 / 2) < 1e-12
    assert not NormSpec("l2").is_exact


@pytest.mark.parametrize("kind", ["linf", "l1"])
def test_distance_lp_failure_raises(monkeypatch, kind):
    monkeypatch.setattr(simplex, "lp_solve",
                        lambda *args, **kwargs: simplex.LPResult(simplex.INFEASIBLE))
    box = HPolyhedron(1, rows=[(vec(1), F(1)), (vec(-1), F(0))])
    with pytest.raises(RuntimeError, match="%s distance LP .* returned infeasible" % kind):
        distance(vec(3), box, NormSpec(kind))


_FAILING_LP_SCRIPT = """
import sys
from fractions import Fraction
from plcq import simplex
from plcq.linalg import vec
from plcq.polyhedra import HPolyhedron, NormSpec, distance

if not sys.flags.optimize:
    sys.exit("not running under python -O")
simplex.lp_solve = lambda *args, **kwargs: simplex.LPResult(simplex.INFEASIBLE)
box = HPolyhedron(1, rows=[(vec(1), Fraction(1)), (vec(-1), Fraction(0))])
try:
    distance(vec(3), box, NormSpec("linf"))
except RuntimeError as e:
    print("raised:", e)
"""


def test_distance_lp_failure_raises_under_optimize():
    # python -O strips assert statements; the check must not depend on them
    src = str(Path(plcq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", _FAILING_LP_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "raised: linf distance LP" in out.stdout


def _falsely_nonempty():
    """The empty set {x <= 0, x >= 1} with a cached vertex claiming 0."""
    P = HPolyhedron(1, rows=[(vec(1), F(0)), (vec(-1), F(-1))])
    P._vrep = VRep(((F(0),),), (), ())
    return P


def test_l2_distance_to_corrupted_polyhedron_raises():
    with pytest.raises(RuntimeError, match="no active set"):
        distance(vec(3), _falsely_nonempty(), NormSpec("l2"))


_CORRUPTED_INPUT_SCRIPT = """
import sys
from fractions import Fraction
from plcq import subdiff
from plcq.linalg import INF, vec
from plcq.oracle import SamplePlan, sample_frechet_subgradient_check
from plcq.plfunc import PLFunction, atom
from plcq.polyhedra import HPolyhedron, NormSpec, VRep, distance

if not sys.flags.optimize:
    sys.exit("not running under python -O")


def attempt(fn):
    try:
        fn()
    except (RuntimeError, ValueError) as e:
        print("raised:", e)


# l2 distance to an empty polyhedron whose cached vertices claim a point
P = HPolyhedron(1, rows=[(vec(1), Fraction(0)), (vec(-1), Fraction(-1))])
P._vrep = VRep(((Fraction(0),),), (), ())
attempt(lambda: distance(vec(3), P, NormSpec("l2")))
# Frechet sampling check at a point outside dom f
f = PLFunction(atom([1]), domain=HPolyhedron(1, rows=[(vec(1), Fraction(0))]))
attempt(lambda: sample_frechet_subgradient_check(f, vec(1), vec(1), SamplePlan(seed=1)))
# Clarke directional derivative with an unbounded support
real_support = subdiff.support_function
subdiff.support_function = lambda C, h: INF
attempt(lambda: subdiff.clarke_dirderiv(PLFunction(atom([1])), vec(0), vec(1)))
subdiff.support_function = real_support
# singular subdifferential from a normal cone whose slice at 0 is no cone
fake = HPolyhedron(2, rows=[(vec(1, 0), Fraction(1))])
subdiff.clarke_normal_cone = lambda S, z: fake
attempt(lambda: subdiff.clarke_singular_subdiff(PLFunction(atom([1])), vec(0)))
"""


def test_self_checks_raise_under_optimize():
    # python -O strips assert statements; these checks must not depend on them
    src = str(Path(plcq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_INPUT_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 4, out.stdout
    for line, fact in zip(lines, ("no active set", "dom f", "nonempty polytope", "not a cone")):
        assert line.startswith("raised:") and fact in line, line


# -- norm balls ----------------------------------------------------------------------

def test_dual_ball_pairing():
    assert NormSpec("linf").dual().kind == "l1"
    assert NormSpec("l1").dual().kind == "linf"
    b1 = NormSpec("l1").ball(2)
    binf = NormSpec("linf").ball(2)
    assert b1.contains(vec(F(1, 2), F(1, 2)))
    assert not b1.contains(vec(F(3, 4), F(1, 2)))
    assert binf.contains(vec(1, 1))
    assert NormSpec("linf").value(vec(-2, 1)) == 2
    assert NormSpec("l1").value(vec(-2, 1)) == 3
    with pytest.raises(ValueError):
        NormSpec("l2").ball(2)
    with pytest.raises(ValueError):
        NormSpec("sup")


# -- unions ---------------------------------------------------------------------------

def test_union_subset_examples():
    P = HPolyhedron(2, rows=[(vec(1, 0), F(1)), (vec(-1, 0), F(0))])
    assert union_subset(P, UnionPolyhedron([P])) is True
    line = HPolyhedron(1, eqs=[(vec(1), F(0))])
    halves = UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(0))]),
                              HPolyhedron(1, rows=[(vec(-1), F(0))])])
    assert union_subset(UnionPolyhedron([line]), halves) is True
    I01 = HPolyhedron(1, rows=[(vec(1), F(1)), (vec(-1), F(0))])
    gap = UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(1, 2)), (vec(-1), F(0))]),
                           HPolyhedron(1, rows=[(vec(1), F(1)), (vec(-1), F(-3, 4))])])
    ok = union_subset(I01, gap)
    assert ok is not True
    _, w = ok
    assert I01.contains(w) and not gap.contains(w)
    assert F(1, 2) < w[0] < F(3, 4)


def test_union_subset_random_agrees_with_sampling(rng):
    for _ in range(25):
        dim = rng.randint(1, 2)
        A = UnionPolyhedron([random_polyhedron(rng, dim) for _ in range(rng.randint(1, 2))], dim)
        B = UnionPolyhedron([random_polyhedron(rng, dim) for _ in range(rng.randint(1, 3))], dim)
        res = union_subset(A, B)
        if res is True:
            for _ in range(40):
                x = random_point(rng, dim)
                if A.contains(x):
                    assert B.contains(x)
        else:
            _, w = res
            assert A.contains(w) and not B.contains(w)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=5),
       st.integers(1, 3), st.integers(1, 2))
def test_interval_union_subset_matches_interval_arithmetic(ends, num, den):
    # 1-d sanity: [0, q] inside a union of intervals iff every rational in a
    # fine grid of [0, q] lies in some interval
    q = Fraction(num, den)
    target = HPolyhedron(1, rows=[(vec(1), q), (vec(-1), F(0))])
    pieces = []
    for a, b in ends:
        lo, hi = min(a, b), max(a, b)
        pieces.append(HPolyhedron(1, rows=[(vec(1), F(hi)), (vec(-1), F(-lo))]))
    B = UnionPolyhedron(pieces, 1)
    res = union_subset(target, B)
    grid = [q * k / 64 for k in range(65)]
    covered = all(B.contains((g,)) for g in grid)
    if res is True:
        assert covered
    else:
        _, w = res
        assert target.contains(w) and not B.contains(w)
