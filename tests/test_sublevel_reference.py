"""The bottom-up solution set and the maximal-piece union against their
predecessors, kept verbatim.

`PLFunction.solution_set` once expanded the full DNF of {f <= 0} and met
every conjunction with the domain; it now builds the pieces bottom-up and
reduces a union only before it multiplies.  `UnionPolyhedron.canonical`
once tested every pair of deduplicated pieces for absorption; it now keeps
a running set of maximal pieces.  The references below are the old bodies,
verbatim apart from their names and docstrings, `self` passed explicitly,
the memo assignments left out, and the flat route's final `.canonical()`
call made through the pairwise reference.

The new code must give equal union keys and equal `generators()` for every
piece: corpus basepoints are read off the pieces' vertices, and a piece
with lines has vertices that depend on its rows.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

from plcq.instances import _random_atom, generate_corpus, instance_to_obj
from plcq.plfunc import Atom, Max, Min, PLFunction, _lift_expr, atom, vmax, vmin
from plcq.polyhedra import HPolyhedron, UnionPolyhedron

from conftest import random_polyhedron

F = Fraction

# SHA-256 of the 6x6 tree's solution-set key, computed once with the flat
# DNF route (45 s there on a 2-vCPU x86-64 machine, Python 3.11)
TREE_6X6_KEY_SHA256 = "7c212a5d7ab006ab3050c7a361ca5de4c995b333bd7bfbc0c751126d5ca94e67"
# SHA-256 of the generated acceptance and extended corpora, instance JSON,
# recorded with the flat DNF route and the pairwise absorption loop
CORPUS_SHA256 = "0c33d9b47360502abd305aca12aa12c7a0cc27e2f30f833f2ab4224aaa1a58f9"


# ---------------------------------------------------------------------------
# references, verbatim
# ---------------------------------------------------------------------------

def _reference_sublevel_dnf(expr) -> list[list]:
    if isinstance(expr, Atom):
        return [[(expr.g, -expr.c)]]
    parts = [_reference_sublevel_dnf(ch) for ch in expr.children]
    if isinstance(expr, Min):
        return [conj for p in parts for conj in p]
    out = parts[0]
    for p in parts[1:]:
        out = [c1 + c2 for c1 in out for c2 in p]
    return out


def _reference_solution_set(self) -> UnionPolyhedron:
    pieces = []
    for conj in _reference_sublevel_dnf(self.expr):
        P = HPolyhedron(self.dim, conj)
        if self.domain is not None:
            P = P.intersect(self.domain)
        pieces.append(P)
    return _reference_canonical(UnionPolyhedron(pieces, self.dim))


def _reference_canonical(self) -> UnionPolyhedron:
    pieces = [p.canonical() for p in self.pieces if not p.is_empty]
    seen = {}
    for p in pieces:
        seen[p.key()] = p
    pieces = list(seen.values())
    # after key dedup no two pieces are set-equal, so absorption is safe
    out = []
    for i, p in enumerate(pieces):
        if not any(j != i and p.subset_of(q) is True for j, q in enumerate(pieces)):
            out.append(p)
    return UnionPolyhedron(sorted(out, key=lambda p: p.key()), self.dim)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _assert_same_union(new: UnionPolyhedron, ref: UnionPolyhedron, label):
    assert new.key() == ref.key(), label
    for p, q in zip(new.pieces, ref.pieces):
        assert p.generators() == q.generators(), (label, p.rows, p.eqs)


def _random_expr(rng, dim: int, n_atoms: int):
    """A random max/min tree over atoms drawn from a pool smaller than the
    tree, so atoms repeat, with max-of-max and min-of-min nesting kept (the
    constructors do not flatten)."""
    pool = [_random_atom(rng, dim) for _ in range(rng.randint(2, n_atoms))]
    nodes = [rng.choice(pool) for _ in range(n_atoms)]
    while len(nodes) > 1:
        k = min(len(nodes), rng.choice((2, 2, 3)))
        picked = tuple(nodes.pop(rng.randrange(len(nodes))) for _ in range(k))
        if len(picked) == 1:
            nodes.append(picked[0])
            continue
        nodes.append(Max(picked) if rng.random() < 0.6 else Min(picked))
    return nodes[0]


def _multi_piece_products(expr) -> int:
    """Max-node folds whose two operands both have several DNF conjunctions,
    where the bottom-up build reduces them first (an upper bound: fewer may
    have several pieces)."""
    def rec(e):
        if isinstance(e, Atom):
            return 1, 0
        counts, sites = zip(*(rec(ch) for ch in e.children))
        if isinstance(e, Min):
            return sum(counts), sum(sites)
        acc, n = counts[0], sum(sites)
        for c in counts[1:]:
            n += acc > 1 and c > 1
            acc *= c
        return acc, n
    return rec(expr)[1]


def _random_domain(rng, dim: int):
    while True:
        D = random_polyhedron(rng, dim, rng.choice(("mixed", "cone", "polytope")))
        if not D.is_empty:
            return D


def _lift(f: PLFunction) -> PLFunction:
    """(x, r) -> f(x) - r on dom f x R, the function whose solution set is
    epi f."""
    domain = None
    if f.domain is not None:
        domain = HPolyhedron(f.dim + 1,
                             [(a + (F(0),), b) for a, b in f.domain.rows],
                             [(e + (F(0),), d) for e, d in f.domain.eqs])
    return PLFunction(_lift_expr(f.expr), f.dim + 1, domain)


def _random_functions(rng, count: int):
    for i in range(count):
        dim = 1 + i % 3
        expr = _random_expr(rng, dim, rng.randint(2, (7, 6, 5)[dim - 1]))
        if i % 5 == 0:
            # an explicit max of a max
            expr = Max((Max((expr, _random_expr(rng, dim, 3))), _random_expr(rng, dim, 3)))
        elif i % 5 == 2:
            # an explicit max of mins, whose operands have several pieces each
            mins = [Min(tuple(_random_atom(rng, dim) for _ in range(rng.randint(2, 3))))
                    for _ in range(2)]
            expr = Max((expr, *mins))
        domain = _random_domain(rng, dim) if i % 2 else None
        yield PLFunction(expr, dim, domain)


def test_solution_set_matches_flat_dnf():
    rng = random.Random(5151)
    kinds = {"domain": 0, "no domain": 0, "lined piece": 0, "dim 1": 0, "dim 2": 0,
             "dim 3": 0, "multi-piece": 0, "reduced product": 0}
    for f in _random_functions(rng, 90):
        # the epigraph is the solution set of the lifted function
        for S, g in ((f.solution_set(), f), (f.epigraph(), _lift(f))):
            _assert_same_union(S, _reference_solution_set(g), (g.expr, g.domain))
            kinds["no domain" if g.domain is None else "domain"] += 1
            kinds["dim %d" % f.dim] += 1
            kinds["lined piece"] += any(p.generators().lines for p in S.pieces)
            kinds["multi-piece"] += len(S.pieces) > 1
            kinds["reduced product"] += _multi_piece_products(g.expr) > 0
    assert min(kinds.values()) >= 20, kinds


def _random_pieces(rng, dim: int) -> list[HPolyhedron]:
    """Random pieces plus rewritten duplicates, nested cuts and empty ones."""
    pieces = [random_polyhedron(rng, dim, rng.choice(("mixed", "cone", "polytope")))
              for _ in range(rng.randint(1, 5))]
    for P in list(pieces):
        roll = rng.random()
        if roll < 0.3:
            # the same set with its rows scaled and one row repeated
            rows = [(tuple(2 * q for q in a), 2 * b) for a, b in P.rows] + [P.rows[0]]
            pieces.append(HPolyhedron(dim, rows, P.eqs))
        elif roll < 0.7:
            cut = random_polyhedron(rng, dim, "mixed")
            pieces.append(P.intersect(cut))
        else:
            pieces.append(P.intersect(HPolyhedron.empty(dim)))
    rng.shuffle(pieces)
    return pieces


def test_canonical_matches_pairwise_absorption():
    rng = random.Random(5252)
    absorbed = 0
    for i in range(300):
        dim = 1 + i % 3
        pieces = _random_pieces(rng, dim)
        # fresh objects per route, so no piece's cached forms are shared
        fresh = [HPolyhedron(dim, P.rows, P.eqs) for P in pieces]
        new = UnionPolyhedron(pieces, dim).canonical()
        ref = _reference_canonical(UnionPolyhedron(fresh, dim))
        _assert_same_union(new, ref, [(P.rows, P.eqs) for P in pieces])
        absorbed += len(new.pieces) < len({P.key() for P in pieces if not P.is_empty})
    assert absorbed >= 50, absorbed


def _tree_6x6() -> PLFunction:
    """The max of 6 mins of 6 atoms in R^2 of tests/test_subdiff.py: its DNF
    has 6^6 = 46,656 conjunctions."""
    rng = random.Random(6)

    def grad():
        return (F(rng.randint(-3, 3)), F(rng.choice((-2, -1, 1, 2))))

    branches = [vmin(atom([1, 2]), atom([-3, 1]),
                     *[atom(grad(), rng.randint(1, 3)) for _ in range(4)])]
    for _ in range(5):
        branches.append(vmin(atom(grad(), -1),
                             *[atom(grad(), rng.randint(-2, 3)) for _ in range(5)]))
    return PLFunction(vmax(*branches))


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _plain(key):
    if isinstance(key, tuple):
        return [_plain(q) for q in key]
    return str(key) if isinstance(key, Fraction) else key


def test_wide_tree_solution_set_is_fast_and_unchanged():
    f = _tree_6x6()
    t0 = time.perf_counter()
    S = f.solution_set()
    assert time.perf_counter() - t0 < 10.0
    assert len(S.pieces) == 35
    assert _sha256(_plain(S.key())) == TREE_6X6_KEY_SHA256


def test_generated_corpora_unchanged():
    # corpus basepoints are vertices of the solution-set pieces
    corpus = (generate_corpus(80, 1, seed=101, max_atoms=12)
              + generate_corpus(85, 2, seed=202, max_atoms=8)
              + generate_corpus(35, 3, seed=303, max_atoms=6)
              + generate_corpus(14, 1, seed=707, extended=True)
              + generate_corpus(8, 2, seed=808, extended=True))
    assert len(corpus) == 222
    assert _sha256([instance_to_obj(inst) for inst in corpus]) == CORPUS_SHA256
