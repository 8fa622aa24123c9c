from fractions import Fraction

import pytest

from plcq.linalg import vec, zeros
from plcq.oracle import (SamplePlan, sample_clarke_dirderiv,
                         sample_clarke_tangent_membership,
                         sample_contingent_membership,
                         sample_frechet_subgradient_check)
from plcq.plfunc import PLFunction, atom, vmax, vmin
from plcq.polyhedra import HPolyhedron, UnionPolyhedron, hull

F = Fraction


def test_dirderiv_examples():
    plan = SamplePlan(seed=1)
    g = PLFunction(vmin(atom([-1]), atom([1])))  # -|x|
    assert abs(sample_clarke_dirderiv(g, vec(0), vec(1), plan) - 1.0) <= 1e-6
    aff = PLFunction(atom([3, -2]))
    assert abs(sample_clarke_dirderiv(aff, vec(0, 0), vec(1, 1), plan) - 1.0) < 1e-9
    kink = PLFunction(vmax(atom([-1]), atom([F(1, 2)])))
    assert abs(sample_clarke_dirderiv(kink, vec(0), vec(-1), plan) - 1.0) <= 1e-6


def test_contingent_membership_examples():
    plan = SamplePlan(seed=2)
    half = UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(0))])])
    assert sample_contingent_membership(half, vec(0), vec(-1), plan)
    point = UnionPolyhedron([HPolyhedron.single_point(vec(0))])
    assert not sample_contingent_membership(point, vec(0), vec(1), plan)
    rays = UnionPolyhedron([hull([zeros(2)], rays=[vec(1, 0)]),
                            hull([zeros(2)], rays=[vec(0, 1)])])
    assert sample_contingent_membership(rays, zeros(2), vec(1, 0), plan)
    assert not sample_contingent_membership(rays, zeros(2), vec(-1, 0), plan)


def test_clarke_tangent_membership_examples():
    plan = SamplePlan(seed=3)
    half = UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(0))])])
    assert sample_clarke_tangent_membership(half, vec(0), vec(-1), plan)
    rays = UnionPolyhedron([hull([zeros(2)], rays=[vec(1, 0)]),
                            hull([zeros(2)], rays=[vec(0, 1)])])
    # e1 fails from base points on the other ray
    assert not sample_clarke_tangent_membership(rays, zeros(2), vec(1, 0), plan)
    full = UnionPolyhedron([HPolyhedron.full_space(2)])
    assert sample_clarke_tangent_membership(full, zeros(2), vec(1, 1), plan)


def test_frechet_subgradient_examples():
    plan = SamplePlan(seed=4)
    absf = PLFunction(vmax(atom([1]), atom([-1])))
    assert sample_frechet_subgradient_check(absf, vec(0), vec(0), plan)
    g = PLFunction(vmin(atom([-1]), atom([1])))
    assert not sample_frechet_subgradient_check(g, vec(0), vec(0), plan)
    aff = PLFunction(atom([2, 1]))
    assert sample_frechet_subgradient_check(aff, vec(0, 0), vec(2, 1), plan)


def test_oracles_deterministic():
    plan = SamplePlan(seed=9)
    g = PLFunction(vmin(atom([-1]), atom([1])))
    a = sample_clarke_dirderiv(g, vec(0), vec(1), plan)
    b = sample_clarke_dirderiv(g, vec(0), vec(1), plan)
    assert a == b
    half = UnionPolyhedron([HPolyhedron(1, rows=[(vec(1), F(0))])])
    assert (sample_clarke_tangent_membership(half, vec(0), vec(-1), plan)
            == sample_clarke_tangent_membership(half, vec(0), vec(-1), plan))


def test_frechet_check_rejects_point_outside_domain():
    f = PLFunction(atom([1]), domain=HPolyhedron(1, rows=[(vec(1), F(0))]))
    with pytest.raises(ValueError, match="dom f"):
        sample_frechet_subgradient_check(f, vec(1), vec(1), SamplePlan(seed=1))
