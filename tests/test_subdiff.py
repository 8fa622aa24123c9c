import random
import time
from fractions import Fraction

import pytest

from plcq import subdiff
from plcq.linalg import INF, add, vec, zeros
from plcq.oracle import SamplePlan, sample_clarke_dirderiv
from plcq.plfunc import PLFunction, atom, vmax, vmin
from plcq.polyhedra import HPolyhedron, hull, support_function
from plcq.subdiff import (NotLipschitz, clarke_dirderiv, clarke_singular_subdiff,
                          clarke_subdiff, frechet_subdiff, is_regular)

from conftest import random_point
from test_plfunc import random_expr

F = Fraction


def interval(lo, hi):
    return HPolyhedron(1, rows=[(vec(1), F(hi)), (vec(-1), F(-lo))])


def neg_abs():
    return PLFunction(vmin(atom([-1]), atom([1])))


def test_clarke_examples():
    assert clarke_subdiff(neg_abs(), vec(0)).set_eq(interval(-1, 1))
    aff = PLFunction(atom([3, -2], 1))
    assert clarke_subdiff(aff, vec(0, 0)).set_eq(HPolyhedron.single_point(vec(3, -2)))
    kink = PLFunction(vmax(atom([-1]), atom([F(1, 2)])))
    assert clarke_subdiff(kink, vec(0)).set_eq(interval(-1, F(1, 2)))


def test_singular_examples():
    for f, x in [(neg_abs(), vec(0)), (PLFunction(atom([2, 1])), vec(1, 1))]:
        assert clarke_singular_subdiff(f, x).set_eq(
            HPolyhedron.single_point(zeros(f.dim)))
    dom = HPolyhedron(1, rows=[(vec(1), F(0))])
    ray_up = HPolyhedron(1, rows=[(vec(-1), F(0))])
    assert clarke_singular_subdiff(PLFunction(atom([1]), domain=dom), vec(0)).set_eq(ray_up)
    assert clarke_singular_subdiff(PLFunction(atom([0]), domain=dom), vec(0)).set_eq(ray_up)


def test_frechet_examples():
    assert frechet_subdiff(neg_abs(), vec(0)).is_empty
    absf = PLFunction(vmax(atom([1]), atom([-1])))
    assert frechet_subdiff(absf, vec(0)).set_eq(interval(-1, 1))
    aff = PLFunction(atom([2]))
    assert frechet_subdiff(aff, vec(5)).set_eq(HPolyhedron.single_point(vec(2)))


def test_frechet_inside_clarke_random(rng):
    for _ in range(25):
        dim = rng.randint(1, 2)
        f = PLFunction(random_expr(rng, dim, rng.randint(2, 6)))
        x = random_point(rng, dim)
        fr = frechet_subdiff(f, x)
        cl = clarke_subdiff(f, x)
        assert fr.subset_of(cl) is True
        # Lipschitz points: nonempty bounded Clarke set, trivial singular cone
        v = cl.generators()
        assert v.vertices and not v.rays and not v.lines
        assert clarke_singular_subdiff(f, x).set_eq(HPolyhedron.single_point(zeros(dim)))


def test_clarke_dirderiv_examples():
    g = neg_abs()
    assert clarke_dirderiv(g, vec(0), vec(1)) == 1
    aff = PLFunction(atom([3, -2]))
    assert clarke_dirderiv(aff, vec(0, 0), vec(1, 1)) == 1
    kink = PLFunction(vmax(atom([-1]), atom([F(1, 2)])))
    assert clarke_dirderiv(kink, vec(0), vec(-1)) == 1


def test_dirderiv_examples():
    assert neg_abs().dirderiv(vec(0), vec(1)) == -1
    absf = PLFunction(vmax(atom([1]), atom([-1])))
    assert absf.dirderiv(vec(0), vec(-1)) == 1
    aff = PLFunction(atom([3, -2]))
    assert aff.dirderiv(vec(1, 1), vec(1, 1)) == 1


def test_not_lipschitz_guard():
    dom = HPolyhedron(1, rows=[(vec(1), F(0))])
    k = PLFunction(atom([1]), domain=dom)
    with pytest.raises(NotLipschitz):
        clarke_dirderiv(k, vec(0), vec(-1))
    with pytest.raises(NotLipschitz):
        is_regular(k, vec(0))
    # interior of the domain is fine
    assert clarke_dirderiv(k, vec(-1), vec(1)) == 1


def test_is_regular_examples():
    assert is_regular(PLFunction(vmax(atom([1]), atom([-1]))), vec(0))
    assert not is_regular(neg_abs(), vec(0))
    assert is_regular(PLFunction(atom([4, 5])), vec(0, 0))


def test_dirderiv_vs_clarke_on_max_trees(rng):
    # convex (pure max) functions are regular: phi' == phi° everywhere
    for _ in range(10):
        dim = rng.randint(1, 2)
        atoms = [atom([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-2, 2))
                 for _ in range(3)]
        f = PLFunction(vmax(*atoms))
        x = random_point(rng, dim)
        assert is_regular(f, x)
        for _ in range(5):
            h = random_point(rng, dim)
            assert f.dirderiv(x, h) == clarke_dirderiv(f, x, h)


def test_clarke_dirderiv_is_support_of_subdiff(rng):
    for _ in range(15):
        dim = rng.randint(1, 2)
        f = PLFunction(random_expr(rng, dim, rng.randint(2, 5)))
        x = random_point(rng, dim)
        sub = clarke_subdiff(f, x)
        for _ in range(5):
            h = random_point(rng, dim)
            assert clarke_dirderiv(f, x, h) == support_function(sub, h)


def test_clarke_dirderiv_homogeneous_subadditive(rng):
    for _ in range(10):
        dim = rng.randint(1, 2)
        f = PLFunction(random_expr(rng, dim, rng.randint(2, 5)))
        x = random_point(rng, dim)
        h1 = random_point(rng, dim)
        h2 = random_point(rng, dim)
        lam = F(rng.randint(1, 5), rng.randint(1, 3))
        d = lambda h: clarke_dirderiv(f, x, h)
        assert d(tuple(lam * q for q in h1)) == lam * d(h1)
        assert d(add(h1, h2)) <= d(h1) + d(h2)


def test_clarke_dirderiv_matches_sampled_limsup(rng):
    plan = SamplePlan(seed=11)
    for _ in range(6):
        dim = rng.randint(1, 2)
        f = PLFunction(random_expr(rng, dim, rng.randint(2, 4)))
        x = random_point(rng, dim)
        for _ in range(4):
            h = random_point(rng, dim)
            exact = float(clarke_dirderiv(f, x, h))
            approx = sample_clarke_dirderiv(f, x, h, plan)
            assert abs(exact - approx) <= 1e-5 * max(1.0, abs(exact))


def test_singular_subdiff_rejects_a_non_cone(monkeypatch):
    # a normal cone whose slice at 0 is the half-line x* <= 1: not a cone
    fake = HPolyhedron(2, rows=[(vec(1, 0), F(1))])
    monkeypatch.setattr(subdiff, "clarke_normal_cone", lambda S, z: fake)
    with pytest.raises(RuntimeError, match="not a cone"):
        clarke_singular_subdiff(PLFunction(atom([1])), vec(0))


def test_clarke_dirderiv_rejects_unbounded_support(monkeypatch):
    monkeypatch.setattr(subdiff, "support_function", lambda C, h: INF)
    with pytest.raises(RuntimeError, match="nonempty polytope"):
        clarke_dirderiv(neg_abs(), vec(0), vec(1))


def test_subdifferentials_never_expand_f_globally():
    # max of 6 mins of 6 atoms in R^2: {f <= 0} and epi f expand to 6^6 = 46,656
    # conjunctions, yet at the origin only two atoms of one branch are active
    rng = random.Random(6)

    def grad():
        return (F(rng.randint(-3, 3)), F(rng.choice((-2, -1, 1, 2))))

    branches = [vmin(atom([1, 2]), atom([-3, 1]),
                     *[atom(grad(), rng.randint(1, 3)) for _ in range(4)])]
    for _ in range(5):
        branches.append(vmin(atom(grad(), -1),
                             *[atom(grad(), rng.randint(-2, 3)) for _ in range(5)]))
    f = PLFunction(vmax(*branches))
    x = vec(0, 0)
    assert f.value(x) == 0 and len(f.germ(x).atoms()) == 2
    t0 = time.perf_counter()
    cl = clarke_subdiff(f, x)
    sing = clarke_singular_subdiff(f, x)
    fr = frechet_subdiff(f, x)
    assert time.perf_counter() - t0 < 2.0
    assert f._epigraph is None and f._solution is None
    assert cl.set_eq(hull([vec(1, 2), vec(-3, 1)]))
    assert sing.set_eq(HPolyhedron.single_point(zeros(2)))
    assert fr.is_empty  # min of two non-parallel atoms: a concave kink
