import random
from fractions import Fraction

import pytest

from plcq.linalg import INF, add, dot, scale, vec, zeros
from plcq.plfunc import (Atom, Max, Min, PLFunction, atom,
                         is_boundary_point, vmax, vmin)
from plcq.polyhedra import HPolyhedron

from conftest import random_point

F = Fraction


def naive_eval(expr, x):
    # independent interpreter used as the test oracle
    if isinstance(expr, Atom):
        return sum(g * q for g, q in zip(expr.g, x)) + expr.c
    vals = [naive_eval(c, x) for c in expr.children]
    return max(vals) if isinstance(expr, Max) else min(vals)


def random_expr(rng, dim, n_atoms):
    atoms = []
    for _ in range(n_atoms):
        g = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
        atoms.append(Atom(g, F(rng.randint(-2, 2))))
    nodes = atoms[:]
    while len(nodes) > 1:
        k = min(len(nodes), rng.choice((2, 3)))
        picked = [nodes.pop(rng.randrange(len(nodes))) for _ in range(k)]
        if len(picked) < 2:
            nodes += picked
            continue
        nodes.append(Max(tuple(picked)) if rng.random() < 0.5 else Min(tuple(picked)))
    return nodes[0]


def test_evaluate_examples():
    f = PLFunction(vmax(atom([1]), atom([-1])))
    assert f.value(vec(1)) == 1
    g = PLFunction(atom([1]), domain=HPolyhedron(1, rows=[(vec(1), F(0))]))
    assert g.value(vec(1)) is INF
    h = PLFunction(vmax(atom([-1]), atom([F(1, 2)])))
    assert h.value(vec(-2)) == 2


def test_evaluate_matches_naive_interpreter(rng):
    checked = 0
    while checked < 1000:
        dim = rng.randint(1, 3)
        expr = random_expr(rng, dim, rng.randint(2, 6))
        f = PLFunction(expr)
        for _ in range(10):
            x = random_point(rng, dim)
            assert f.value(x) == naive_eval(expr, x)
            checked += 1


def test_solution_set_examples():
    h = PLFunction(vmax(atom([-1]), atom([F(1, 2)])))
    S = h.solution_set()
    assert S.contains(vec(0)) and not S.contains(vec(1)) and not S.contains(vec(-1))
    g = PLFunction(vmin(atom([-1]), atom([1])))  # -|x|
    Sg = g.solution_set()
    for q in (-5, 0, 3):
        assert Sg.contains(vec(q))
    m = PLFunction(vmin(atom([1]), atom([2])))
    Sm = m.solution_set()
    assert Sm.contains(vec(-1)) and Sm.contains(vec(0)) and not Sm.contains(vec(1))


def test_solution_set_membership_matches_evaluation(rng):
    checked = 0
    while checked < 1000:
        dim = rng.randint(1, 2)
        f = PLFunction(random_expr(rng, dim, rng.randint(2, 5)))
        S = f.solution_set()
        for _ in range(20):
            x = random_point(rng, dim)
            assert S.contains(x) == (f.value(x) <= 0)
            checked += 1


def test_epigraph_examples():
    f = PLFunction(atom([1]))
    E = f.epigraph()
    assert E.contains(vec(1, 2)) and not E.contains(vec(1, 0))
    g = PLFunction(atom([1]), domain=HPolyhedron(1, rows=[(vec(1), F(0))]))
    Eg = g.epigraph()
    assert Eg.contains(vec(-1, 0)) and not Eg.contains(vec(1, 2))


def test_epigraph_membership_matches_evaluation(rng):
    checked = 0
    while checked < 1000:
        dim = rng.randint(1, 2)
        dom = None
        if rng.random() < 0.4:
            dom = HPolyhedron(dim, rows=[(tuple(F(rng.randint(-2, 2)) for _ in range(dim)),
                                          F(rng.randint(0, 2)))])
            if dom.is_empty:
                dom = None
        f = PLFunction(random_expr(rng, dim, rng.randint(2, 5)), domain=dom)
        E = f.epigraph()
        for _ in range(20):
            x = random_point(rng, dim)
            r = F(rng.randint(-6, 6), rng.randint(1, 2))
            assert E.contains(x + (r,)) == (f.value(x) <= r)
            checked += 1


def test_local_cells_examples():
    f = PLFunction(vmax(atom([1]), atom([-1])))
    cells = f.local_cells(vec(0))
    got = {(c[0].canonical().rows, c[1]) for c in cells}
    assert got == {(((vec(-1), F(0)),), vec(1)), (((vec(1), F(0)),), vec(-1))}
    aff = PLFunction(atom([2, 1], 3))
    cells = aff.local_cells(vec(5, -2))
    assert len(cells) == 1 and cells[0][1] == vec(2, 1) and cells[0][0].is_full_dim()
    h = PLFunction(vmax(atom([-1]), atom([F(1, 2)])))
    got = {(c[0].canonical().rows, c[1]) for c in h.local_cells(vec(0))}
    assert got == {(((vec(1), F(0)),), vec(-1)), (((vec(-1), F(0)),), vec(F(1, 2)))}


def test_local_cells_cover_and_are_affine(rng):
    for _ in range(30):
        dim = rng.randint(1, 2)
        f = PLFunction(random_expr(rng, dim, rng.randint(2, 6)))
        x = random_point(rng, dim)
        cells = f.local_cells(x)
        fx = f.value(x)
        for region, g, off in cells:
            assert off == fx - dot(g, x)
            v = region.generators()
            # check affinity along three interior directions of the cell
            dirs = list(v.rays) + list(v.lines)
            probe = zeros(dim)
            for r in dirs:
                probe = add(probe, r)
            for h in ([probe] + dirs)[:3]:
                if all(q == 0 for q in h):
                    continue
                for t in (F(1, 64), F(1, 256)):
                    y = add(x, scale(h, t))
                    assert f.value(y) == fx + t * dot(g, h)


def test_local_cells_outside_domain_raises():
    g = PLFunction(atom([1]), domain=HPolyhedron(1, rows=[(vec(1), F(0))]))
    with pytest.raises(ValueError):
        g.local_cells(vec(1))


def test_dirderiv_examples():
    g = PLFunction(vmin(atom([-1]), atom([1])))
    assert g.dirderiv(vec(0), vec(1)) == -1
    f = PLFunction(vmax(atom([1]), atom([-1])))
    assert f.dirderiv(vec(0), vec(-1)) == 1
    aff = PLFunction(atom([2, -1]))
    assert aff.dirderiv(vec(0, 0), vec(1, 1)) == 1
    k = PLFunction(atom([1]), domain=HPolyhedron(1, rows=[(vec(1), F(0))]))
    assert k.dirderiv(vec(0), vec(1)) is INF
    assert k.dirderiv(vec(0), vec(-1)) == -1


def test_boundary_points():
    half = PLFunction(atom([1]))
    S = half.solution_set()
    assert is_boundary_point(S, vec(0))
    assert not is_boundary_point(S, vec(-1))
    g = PLFunction(vmin(atom([-1]), atom([1])))  # S = R
    assert not is_boundary_point(g.solution_set(), vec(0))
    point = PLFunction(vmax(atom([1]), atom([-1])))  # S = {0}
    assert is_boundary_point(point.solution_set(), vec(0))
    with pytest.raises(ValueError):
        is_boundary_point(half.solution_set(), vec(1))


def test_expr_validation():
    with pytest.raises(ValueError):
        vmax(atom([1]))
    with pytest.raises(ValueError):
        PLFunction(vmax(atom([1]), atom([1, 2])))
    with pytest.raises(ValueError):
        PLFunction(atom([1]), domain=HPolyhedron.empty(1))
