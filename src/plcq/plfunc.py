"""Piecewise-linear functions as max/min trees over affine atoms.

A PLFunction is real-valued and Lipschitz on its (optional) closed
polyhedral domain and +infinity outside, which makes it a proper lower
semicontinuous extended-real function with a polyhedral epigraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import INF, Vec, dot, neg, sub, zeros
from .polyhedra import HPolyhedron, UnionPolyhedron, union_subset


_FLOAT_TOL = 1e-12  # slack of value_float's domain test


@dataclass(frozen=True)
class Atom:
    """x -> g.x + c"""
    g: Vec
    c: Fraction

    def value(self, x: Vec) -> Fraction:
        return dot(self.g, x) + self.c


@dataclass(frozen=True)
class Max:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("max node needs at least two children")


@dataclass(frozen=True)
class Min:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("min node needs at least two children")


def atom(g, c=0) -> Atom:
    return Atom(tuple(Fraction(q) for q in g), Fraction(c))


def vmax(*children) -> Max:
    return Max(tuple(children))


def vmin(*children) -> Min:
    return Min(tuple(children))


def expr_value(expr, x: Vec) -> Fraction:
    if isinstance(expr, Atom):
        return expr.value(x)
    vals = [expr_value(ch, x) for ch in expr.children]
    return max(vals) if isinstance(expr, Max) else min(vals)


def expr_value_float(expr, x) -> float:
    if isinstance(expr, Atom):
        return sum(float(g) * xi for g, xi in zip(expr.g, x)) + float(expr.c)
    vals = [expr_value_float(ch, x) for ch in expr.children]
    return max(vals) if isinstance(expr, Max) else min(vals)


def expr_atoms(expr) -> list[Atom]:
    if isinstance(expr, Atom):
        return [expr]
    out = []
    for ch in expr.children:
        out += expr_atoms(ch)
    return out


def expr_dim(expr) -> int:
    return len(expr_atoms(expr)[0].g)


def _sublevel_pieces(expr, dim: int) -> list[HPolyhedron]:
    """{x : expr(x) <= 0} as a list of pieces, built bottom-up: an atom gives
    a halfspace, a min node the concatenation of its children's pieces, a
    max node the pairwise intersections of its children's pieces, folded.
    Before two operands that both have several pieces are multiplied, each
    is reduced to its canonical union: a piece inside another only ever
    meets the same later pieces, so dropping it loses no maximal piece."""
    if isinstance(expr, Atom):
        return [HPolyhedron(dim, [(expr.g, -expr.c)])]
    parts = [_sublevel_pieces(ch, dim) for ch in expr.children]
    if isinstance(expr, Min):
        return [P for part in parts for P in part]
    acc = parts[0]
    for part in parts[1:]:
        if len(acc) > 1 and len(part) > 1:
            acc = list(UnionPolyhedron(acc, dim).canonical().pieces)
            part = list(UnionPolyhedron(part, dim).canonical().pieces)
        acc = [P.intersect(Q) for P in acc for Q in part]
    return acc


def _lift_expr(expr):
    """expr'(x, r) = expr(x) - r, one dimension up."""
    if isinstance(expr, Atom):
        return Atom(expr.g + (Fraction(-1),), expr.c)
    kids = tuple(_lift_expr(ch) for ch in expr.children)
    return Max(kids) if isinstance(expr, Max) else Min(kids)


class PLFunction:
    def __init__(self, expr, dim: int | None = None, domain: HPolyhedron | None = None):
        self.expr = expr
        self.dim = dim if dim is not None else expr_dim(expr)
        for a in expr_atoms(expr):
            if len(a.g) != self.dim:
                raise ValueError("atom dimension mismatch")
        if domain is not None:
            if domain.dim != self.dim:
                raise ValueError("domain dimension mismatch")
            if domain.is_empty:
                raise ValueError("empty domain gives the improper function")
        self.domain = domain
        self._solution: UnionPolyhedron | None = None
        self._epigraph: UnionPolyhedron | None = None
        self._germs: dict[Vec, PLFunction] = {}
        # normal cones of the epigraph at the origin, by cone map; subdiff
        # reads its slices off a germ's entries
        self._epi_normals: dict = {}

    # -- evaluation -----------------------------------------------------------

    def in_domain(self, x: Vec) -> bool:
        return self.domain is None or self.domain.contains(x)

    def value(self, x: Vec):
        """Exact value; +INF outside the domain."""
        if not self.in_domain(x):
            return INF
        return expr_value(self.expr, x)

    def value_float(self, x) -> float:
        if self.domain is not None:
            for a, b in self.domain.rows:
                if sum(float(q) * xi for q, xi in zip(a, x)) > float(b) + _FLOAT_TOL:
                    return INF
            for e, d in self.domain.eqs:
                if abs(sum(float(q) * xi for q, xi in zip(e, x)) - float(d)) > _FLOAT_TOL:
                    return INF
        return expr_value_float(self.expr, x)

    def atoms(self) -> list[Atom]:
        return expr_atoms(self.expr)

    # -- derived sets -----------------------------------------------------------

    def solution_set(self) -> UnionPolyhedron:
        """{x in dom f : f(x) <= 0} as a canonical union of polyhedra: the
        pieces of the tree built bottom-up, each met with the domain once at
        the end.  Its pieces are the maximal sets among the DNF conjunctions
        met with the domain, though the DNF is never expanded in full."""
        if self._solution is None:
            pieces = _sublevel_pieces(self.expr, self.dim)
            if self.domain is not None:
                pieces = [P.intersect(self.domain) for P in pieces]
            self._solution = UnionPolyhedron(pieces, self.dim).canonical()
        return self._solution

    def epigraph(self) -> UnionPolyhedron:
        """epi f = {(x, r) : f(x) <= r} in dimension n+1: the solution set of
        the lifted function (x, r) -> f(x) - r on dom f x R."""
        if self._epigraph is None:
            domain = None
            if self.domain is not None:
                domain = HPolyhedron(self.dim + 1,
                                     [(a + (Fraction(0),), b) for a, b in self.domain.rows],
                                     [(e + (Fraction(0),), d) for e, d in self.domain.eqs])
            lifted = PLFunction(_lift_expr(self.expr), self.dim + 1, domain)
            self._epigraph = lifted.solution_set()
        return self._epigraph

    # -- local structure ----------------------------------------------------------

    def lipschitz_at(self, x: Vec) -> bool:
        """Conservative: true only on the interior of the domain (everywhere
        when there is no domain)."""
        if not self.in_domain(x):
            return False
        if self.domain is None:
            return True
        return self.domain.strictly_contains(x)

    def domain_cone(self, x: Vec) -> HPolyhedron:
        """Feasible directions of the domain at x (the whole space if none)."""
        if self.domain is None:
            return HPolyhedron.full_space(self.dim)
        return self.domain.direction_cone(x)

    def germ(self, x: Vec) -> PLFunction:
        """The germ of f at x: h -> f(x + h) - f(x) near h = 0, i.e. f'(x; .)
        on the domain cone at x.  Its tree keeps the children active at x,
        recursively, with every atom's offset dropped (each kept atom equals
        f(x) at x, and max/min commute with subtracting it).  Built once."""
        x = tuple(x)
        if x in self._germs:
            return self._germs[x]
        if not self.in_domain(x):
            raise ValueError("germ at a point outside the domain")

        def rec(expr):
            if isinstance(expr, Atom):
                return Atom(expr.g, Fraction(0))
            vals = [expr_value(ch, x) for ch in expr.children]
            v = max(vals) if isinstance(expr, Max) else min(vals)
            kids = tuple(rec(ch) for ch, w in zip(expr.children, vals) if w == v)
            return kids[0] if len(kids) == 1 else type(expr)(kids)

        domain = None if self.domain is None else self.domain.direction_cone(x)
        germ = self._germs[x] = PLFunction(rec(self.expr), self.dim, domain)
        return germ

    def dirderiv(self, x: Vec, h: Vec):
        """One-sided directional derivative f'(x; h): the germ at x evaluated
        at h, so +INF when x + t h leaves the domain for every small t > 0."""
        return self.germ(x).value(h)

    def local_cells(self, x: Vec) -> list[tuple[HPolyhedron, Vec, Fraction]]:
        """The affine pieces of the germ of f at x, as (region, gradient,
        offset) triples: the canonical direction cones cover the domain cone
        at x, are full-dimensional relative to it, and on each one
        f(x + th) = f(x) + t g.h = g.(x + th) + offset for small t > 0.
        """
        germ = self.germ(x)

        def rec(expr):
            if isinstance(expr, Atom):
                return [((), expr.g)]
            parts = [rec(ch) for ch in expr.children]
            is_max = isinstance(expr, Max)
            acc = parts[0]
            for part in parts[1:]:
                nxt = []
                for rows_a, ga in acc:
                    for rows_b, gb in part:
                        base = rows_a + rows_b
                        if ga == gb:
                            nxt.append((base, ga))
                            continue
                        d = sub(gb, ga) if is_max else sub(ga, gb)
                        nxt.append((base + (d,), ga))
                        nxt.append((base + (neg(d),), gb))
                acc = nxt
            return acc

        dcone = germ.domain_cone(zeros(self.dim))
        reldim = dcone.affine_dim()
        fx = expr_value(self.expr, x)
        cells = []
        seen = set()
        for rows, g in rec(germ.expr):
            region = HPolyhedron(self.dim, [(a, Fraction(0)) for a in rows]).intersect(dcone)
            if region.affine_dim() != reldim:
                continue
            region = region.canonical()
            k = (region.key(), g)
            if k in seen:
                continue
            seen.add(k)
            cells.append((region, g, fx - dot(g, x)))
        return cells

    def __repr__(self):
        dom = "" if self.domain is None else ", with domain"
        return "PLFunction(dim=%d, %d atoms%s)" % (self.dim, len(self.atoms()), dom)


def is_boundary_point(S: UnionPolyhedron, x: Vec) -> bool:
    """Exact boundary test: x in S is a boundary point iff the union of
    feasible-direction cones of the pieces containing x does not cover
    the whole space (the germ of S at x is x + that union)."""
    if not S.contains(x):
        raise ValueError("boundary test for a point outside the set")
    cones = [p.direction_cone(x) for p in S.pieces if p.contains(x)]
    full = HPolyhedron.full_space(S.dim)
    return union_subset(full, UnionPolyhedron(cones, S.dim)) is not True
