"""Rewritten constructions against their predecessors, kept verbatim.

Four constructions have one implementation now, and their earlier forms
are kept here as references:
- the l1 and linf distance LPs, once two hand-built formulations (a slack
  per coordinate for l1, one bound t for linf), now one LP over the facets
  of the norm's unit ball;
- the epigraph, once its own DNF expansion of the lifted tree with the
  domain rows lifted by hand, now the solution set of (x, r) -> f(x) - r
  on dom f x R (the DNF it expanded is the verbatim copy in
  tests/test_sublevel_reference.py);
- the directional derivative, once a recursion over the active children
  with atoms read as g.h, now the germ of f at x evaluated at h;
- the Clarke, singular and Frechet subdifferentials, once slices of normal
  cones of the global epigraph at (x, f(x)), now slices of normal cones of
  the germ's epigraph at the origin.  The germ is the tree that `_prune`
  kept, with its atoms' offsets dropped, on the domain cone at x.

The references are the old bodies, verbatim apart from their names and
docstrings, `self` passed explicitly, and the unchanged l2 branch left out
of the distance.
Each comparison runs on seeded random inputs and must give equal values
(equal canonical keys for sets).
"""

import random
from fractions import Fraction

from plcq import simplex
from plcq.cones import clarke_normal_cone, frechet_normal_cone
from plcq.instances import boundary_basepoints, random_function
from plcq.linalg import INF, Vec, dot, unit, zeros
from plcq.plfunc import Atom, Max, PLFunction, _lift_expr, expr_value
from plcq.polyhedra import HPolyhedron, NormSpec, UnionPolyhedron, distance
from plcq.subdiff import clarke_singular_subdiff, clarke_subdiff, frechet_subdiff

from conftest import random_point, random_polyhedron
from test_sublevel_reference import _reference_sublevel_dnf as _sublevel_dnf

F = Fraction


# ---------------------------------------------------------------------------
# references, verbatim
# ---------------------------------------------------------------------------

def _reference_poly_distance(x, P: HPolyhedron, norm: NormSpec):
    n = P.dim
    if P.is_empty:
        return INF
    if norm.kind == "linf":
        nv = n + 1
        rows = [(a + (Fraction(0),), b) for a, b in P.rows]
        eqs = [(e + (Fraction(0),), d) for e, d in P.eqs]
        for i in range(n):
            ei = unit(nv, i)
            rows.append((tuple(-q for q in ei[:n]) + (Fraction(-1),), -x[i]))
            rows.append((ei[:n] + (Fraction(-1),), x[i]))
        obj = zeros(n) + (Fraction(1),)
        return _reference_distance_lp(obj, rows, eqs, "linf")
    # l1: one slack per coordinate
    nv = 2 * n
    rows = [(a + zeros(n), b) for a, b in P.rows]
    eqs = [(e + zeros(n), d) for e, d in P.eqs]
    for i in range(n):
        row = [Fraction(0)] * nv
        row[i] = Fraction(-1)
        row[n + i] = Fraction(-1)
        rows.append((tuple(row), -x[i]))
        row = [Fraction(0)] * nv
        row[i] = Fraction(1)
        row[n + i] = Fraction(-1)
        rows.append((tuple(row), x[i]))
    obj = zeros(n) + tuple(Fraction(1) for _ in range(n))
    return _reference_distance_lp(obj, rows, eqs, "l1")


def _reference_distance_lp(obj, rows, eqs, kind: str) -> Fraction:
    res = simplex.lp_solve(obj, rows, eqs, sense="min")
    if res.status != simplex.OPTIMAL:
        raise RuntimeError("%s distance LP over a nonempty polyhedron returned %s"
                           % (kind, res.status))
    return res.value


def _reference_epigraph(self) -> UnionPolyhedron:
    lifted = _lift_expr(self.expr)
    pieces = []
    dom_rows = []
    dom_eqs = []
    if self.domain is not None:
        dom_rows = [(a + (Fraction(0),), b) for a, b in self.domain.rows]
        dom_eqs = [(e + (Fraction(0),), d) for e, d in self.domain.eqs]
    for conj in _sublevel_dnf(lifted):
        pieces.append(HPolyhedron(self.dim + 1, list(conj) + dom_rows, dom_eqs))
    return UnionPolyhedron(pieces, self.dim + 1).canonical()


def _reference_dirderiv(self, x, h):
    if not self.in_domain(x):
        raise ValueError("directional derivative outside the domain")
    if not self.domain_cone(x).contains(h):
        return INF

    def rec(expr):
        if isinstance(expr, Atom):
            return dot(expr.g, h)
        v = expr_value(expr, x)
        picked = [rec(ch) for ch in expr.children if expr_value(ch, x) == v]
        return max(picked) if isinstance(expr, Max) else min(picked)

    return rec(self.expr)


def _reference_prune(expr, x: Vec):
    if isinstance(expr, Atom):
        return expr
    vals = [expr_value(ch, x) for ch in expr.children]
    v = max(vals) if isinstance(expr, Max) else min(vals)
    kids = tuple(_reference_prune(ch, x) for ch, w in zip(expr.children, vals) if w == v)
    if len(kids) == 1:
        return kids[0]
    return type(expr)(kids)


def _reference_epi_slice(f: PLFunction, x: Vec, normal_cone, level) -> HPolyhedron:
    v = f.value(x)
    if v == float("inf"):
        raise ValueError("base point outside dom f")
    N = normal_cone(f.epigraph(), tuple(x) + (v,))
    return N.slice_last(level).canonical()


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _distance_cases(rng):
    """(x, P): bounded, unbounded and lower-dimensional P in dims 1-3."""
    for dim in (1, 2, 3):
        for kind in ("polytope", "cone", "mixed"):
            for _ in range(6):
                P = random_polyhedron(rng, dim, kind)
                if P.is_empty:
                    continue
                yield random_point(rng, dim), P
                # cut P to a lower-dimensional slice through one of its points
                v = P.generators().vertices[0]
                e = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
                if any(e):
                    yield random_point(rng, dim), P.intersect(HPolyhedron(dim, eqs=[(e, dot(e, v))]))


def test_distance_lp_matches_reference():
    rng = random.Random(4141)
    kinds = {"bounded": 0, "unbounded": 0, "lower-dim": 0}
    for x, P in _distance_cases(rng):
        v = P.generators()
        kinds["unbounded" if v.rays or v.lines else "bounded"] += 1
        kinds["lower-dim"] += P.affine_dim() < P.dim
        for kind in ("l1", "linf"):
            norm = NormSpec(kind)
            assert distance(x, P, norm) == _reference_poly_distance(x, P, norm), (kind, x, P.rows)
    assert min(kinds.values()) >= 10, kinds


def _random_functions(rng, with_domain: bool, count: int):
    out = []
    while len(out) < count:
        dim = rng.randint(1, 3)
        f = random_function(rng, dim, 5 if dim < 3 else 4, with_domain=with_domain)
        if f is not None:
            out.append(f)
    return out


def test_epigraph_matches_reference():
    rng = random.Random(4242)
    for with_domain in (False, True):
        for f in _random_functions(rng, with_domain, 20):
            assert f.epigraph().key() == _reference_epigraph(f).key()


def test_dirderiv_matches_reference():
    rng = random.Random(4343)
    checked = 0
    for with_domain in (False, True):
        for f in _random_functions(rng, with_domain, 20):
            # kinks: points of the solution set's vertices, where atoms tie
            pts = [p for piece in f.solution_set().pieces
                   for p in piece.generators().vertices][:4]
            pts += [random_point(rng, f.dim) for _ in range(2)]
            for x in pts:
                if not f.in_domain(x):
                    continue
                for _ in range(4):
                    h = random_point(rng, f.dim)
                    assert f.dirderiv(x, h) == _reference_dirderiv(f, x, h), (f.expr, x, h)
                    checked += 1
    assert checked >= 200


def _without_offsets(expr):
    if isinstance(expr, Atom):
        return Atom(expr.g, F(0))
    return type(expr)(tuple(_without_offsets(ch) for ch in expr.children))


def _local_cases(rng):
    """(f, x, kind) in dims 1-3, with and without a domain: boundary points
    of {f <= 0}, the same points shifted off the zero level, and vertices of
    the domain, where f is not Lipschitz."""
    for with_domain in (False, True):
        for f in _random_functions(rng, with_domain, 16):
            base = boundary_basepoints(f, limit=2)
            cases = [(x, "boundary") for x in base]
            cases += [(tuple(q + s for q in x), "off-level")
                      for x in base for s in (1, F(-1, 2))]
            if f.domain is not None:
                cases += [(v, "domain-boundary") for v in f.domain.generators().vertices[:2]]
            for x, kind in cases:
                if f.in_domain(x):
                    yield f, x, kind


def test_germ_is_the_pruned_tree_on_the_domain_cone():
    rng = random.Random(4444)
    for f, x, _ in _local_cases(rng):
        germ = f.germ(x)
        assert germ.expr == _without_offsets(_reference_prune(f.expr, x)), (f.expr, x)
        if f.domain is None:
            assert germ.domain is None
        else:
            assert germ.domain.canonical().key() == f.domain_cone(x).canonical().key()


def test_subdifferentials_match_reference():
    rng = random.Random(4549)
    kinds = {"boundary": 0, "off-level": 0, "domain-boundary": 0, "non-lipschitz": 0,
             "dim 1": 0, "dim 2": 0, "dim 3": 0}
    routes = ((clarke_subdiff, clarke_normal_cone, -1),
              (clarke_singular_subdiff, clarke_normal_cone, 0),
              (frechet_subdiff, frechet_normal_cone, -1))
    for f, x, kind in _local_cases(rng):
        kinds[kind] += 1
        kinds["non-lipschitz"] += not f.lipschitz_at(x)
        kinds["dim %d" % f.dim] += 1
        for subdiff, normal_cone, level in routes:
            ref = _reference_epi_slice(f, x, normal_cone, level)
            assert subdiff(f, x).key() == ref.key(), (subdiff.__name__, f.expr, x)
    assert min(kinds.values()) >= 10, kinds
