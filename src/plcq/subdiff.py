"""Clarke, Frechet and Clarke-singular subdifferentials of PL functions.

All three are horizontal slices of normal cones of the epigraph of the
germ of f at x, taken at the origin: Clarke and Frechet subgradients pair
with -1, singular ones with 0.  At Lipschitz points two further routes
(convex hull of cell gradients, intersection of gradient-shifted cell
polars) must agree exactly with the epigraph slices, and any disagreement
raises.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Vec, dot, zeros
from .cones import clarke_normal_cone, frechet_normal_cone
from .plfunc import PLFunction
from .polyhedra import HPolyhedron, hull, support_function


class NotLipschitz(Exception):
    """Base point is not (provably) a local Lipschitz point of f."""


def _epi_slice(f: PLFunction, x: Vec, normal_cone, level) -> HPolyhedron:
    """{x* : (x*, level) in normal_cone(epi f, (x, f(x)))}, canonical.  A normal
    cone depends only on the set near its point, and near (x, f(x)) epi f is
    (x, f(x)) + epi(germ of f at x): the cone is read at the germ's origin,
    built once per germ and cone map, so the Clarke and singular slices
    share one Clarke normal cone."""
    germ = f.germ(x)
    N = germ._epi_normals.get(normal_cone)
    if N is None:
        N = germ._epi_normals[normal_cone] = normal_cone(germ.epigraph(), zeros(f.dim + 1))
    return N.slice_last(level).canonical()


def clarke_subdiff(f: PLFunction, x: Vec) -> HPolyhedron:
    """{x* : (x*, -1) in N_c(epi f, (x, f(x)))} as a canonical HPolyhedron;
    at Lipschitz points this is conv{cell gradients} and both computations
    are required to coincide."""
    D = _epi_slice(f, x, clarke_normal_cone, -1)
    if f.lipschitz_at(x):
        fast = hull([g for _, g, _ in f.local_cells(x)])
        if not fast.set_eq(D):
            raise RuntimeError("gradient hull disagrees with the epigraph slice")
    return D


def clarke_singular_subdiff(f: PLFunction, x: Vec) -> HPolyhedron:
    """{x* : (x*, 0) in N_c(epi f, ...)} as a canonical HPolyhedron: a closed
    convex cone, {0} exactly at Lipschitz points."""
    D = _epi_slice(f, x, clarke_normal_cone, 0)
    if not (D.is_cone() and D.contains(zeros(f.dim))):
        raise RuntimeError("singular subdifferential is not a cone: a slice at 0 of "
                           "a normal cone must be one")
    return D


def frechet_subdiff(f: PLFunction, x: Vec) -> HPolyhedron:
    """{x* : (x*, -1) in N^(epi f, ...)} as a canonical HPolyhedron, possibly
    empty.  For Lipschitz PL f it equals the intersection over local cells
    of gradient + (cell cone)°."""
    D = _epi_slice(f, x, frechet_normal_cone, -1)
    if f.lipschitz_at(x):
        cross = HPolyhedron.full_space(f.dim)
        for region, g, _ in f.local_cells(x):
            v = region.generators()
            polar = HPolyhedron(f.dim,
                                rows=[(r, Fraction(0)) for r in v.rays],
                                eqs=[(l, Fraction(0)) for l in v.lines])
            cross = cross.intersect(polar.translate(g))
        if not cross.canonical().set_eq(D):
            raise RuntimeError("cell-polar intersection disagrees with the epigraph slice")
    return D


def clarke_dirderiv(f: PLFunction, x: Vec, h: Vec) -> Fraction:
    """phi°(x; h) = max{x*.h : x* in Clarke subdifferential}; Lipschitz only."""
    if not f.lipschitz_at(x):
        raise NotLipschitz("Clarke directional derivative needs a Lipschitz point")
    val = support_function(clarke_subdiff(f, x), tuple(h))
    if not isinstance(val, Fraction):
        raise RuntimeError("Clarke subdifferential at a Lipschitz point must be a "
                           "nonempty polytope, but its support is %r" % (val,))
    return val


def is_regular(f: PLFunction, x: Vec) -> bool:
    """f'(x;.) == phi°(x;.)?  Both are linear on each local cell, so testing
    the cell generators decides it exactly."""
    if not f.lipschitz_at(x):
        raise NotLipschitz("regularity is defined at Lipschitz points")
    cells = f.local_cells(x)
    grads = [g for _, g, _ in cells]
    for region, g, _ in cells:
        v = region.generators()
        for gi in grads:
            d = tuple(a - b for a, b in zip(gi, g))
            if any(dot(d, r) > 0 for r in v.rays) or any(dot(d, l) != 0 for l in v.lines):
                return False
    return True
