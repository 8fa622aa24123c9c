"""Seeded inputs for the benchmark workloads.

Every workload is a fixed corpus *shape* plus per-seed symmetries.  The
shape comes from fixed generator seeds; the run seed draws, for each
instance, a signed permutation of the coordinates and a reordering of the
children of every max/min node, applied to the atoms, the domain and the
basepoints.  Signed permutations preserve the linf norm and its dual l1
norm, and max/min are commutative, so every verdict and every exact value
in a report is the same for all seeds.  Two things follow: each run's output
can be checked against a recorded digest whatever its seed, and the work
per run stays steady, while the program still receives different numbers,
row orders and LP column orders for every seed.  Translations would also
preserve the verdicts, but they change the size of the rationals and with
it the cost of a run by up to 20%, so they are left out.
"""

from __future__ import annotations

import random
from fractions import Fraction

from plcq import instances
from plcq.instances import Instance
from plcq.plfunc import Atom, Max, Min, PLFunction
from plcq.polyhedra import HPolyhedron

# (dim, max atoms, generator seed, indices of the generated instances kept).
# The criterion-2 fixture of the test suite uses seeds 101/202/303; these
# differ on purpose.  Each verify corpus is small enough that a run repeats
# it several times: the per-basepoint medians over those repetitions are
# what keeps the metrics steady on a shared machine.  The kept Lipschitz
# instances include d2 gen-007 and d3 gen-004, whose basepoints have
# nonconvex germs, so the Clarke tangent cone's face atlas is reached.
LIPSCHITZ_SHAPE = ((1, 12, 404, range(6)), (2, 8, 505, (1, 2, 7)), (3, 6, 606, (0, 4)))
EXTENDED_SHAPE = ((1, 6, 707, range(14)), (2, 6, 808, range(8)))
# branches x atoms per branch of the max-of-min trees; each shape is analyzed
# twice per cycle, under independent symmetries
WIDE_TREE = (4, 4)
WIDE_TREE_SHAPE_SEEDS = (909, 910)
WIDE_TREE_DRAWS = 2

WORKLOADS = ("verify-lipschitz", "verify-extended", "analyze-wide-tree")


# ---------------------------------------------------------------------------
# per-seed symmetries
# ---------------------------------------------------------------------------

def _signed_permutation(rng: random.Random, dim: int):
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]

    def lin(v):
        """v -> P v with (P v)[perm[i]] = signs[i] * v[i]."""
        out = [Fraction(0)] * dim
        for i, q in enumerate(v):
            out[perm[i]] = signs[i] * q
        return tuple(out)

    return lin


def _move_expr(expr, lin, rng: random.Random):
    if isinstance(expr, Atom):
        return Atom(lin(expr.g), expr.c)
    kids = [_move_expr(ch, lin, rng) for ch in expr.children]
    rng.shuffle(kids)
    return Max(tuple(kids)) if isinstance(expr, Max) else Min(tuple(kids))


def move_instance(inst: Instance, rng: random.Random) -> Instance:
    """The same instance seen through x' = P x, with its max/min children
    reordered: f'(P x) = f(x), and every basepoint moves with it."""
    dim = inst.f.dim
    lin = _signed_permutation(rng, dim)
    domain = None
    if inst.f.domain is not None:
        domain = HPolyhedron(dim, [(lin(a), b) for a, b in inst.f.domain.rows],
                             [(lin(e), d) for e, d in inst.f.domain.eqs])
    f = PLFunction(_move_expr(inst.f.expr, lin, rng), dim, domain)
    return Instance(inst.name, f, [lin(p) for p in inst.basepoints], inst.norm, inst.seed)


def _moved(insts, seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [move_instance(inst, rng) for inst in insts]


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _shape_corpus(shape, extended: bool) -> list[Instance]:
    out = []
    for dim, cap, gen_seed, keep in shape:
        generated = instances.generate_corpus(max(keep) + 1, dim, gen_seed,
                                              extended=extended, max_atoms=cap)
        for k in keep:
            inst = generated[k]
            inst.name = "d%d-%s" % (dim, inst.name)
            out.append(inst)
    return out


def wide_tree(rng: random.Random, branches: int, width: int) -> Instance:
    """max over `branches` mins of `width` atoms in R^2 with basepoint x.

    One branch has exactly two atoms tight at x (value 0, non-parallel and
    not opposite gradients) and its other atoms positive there; every other
    branch has a negative atom.  So f(x) = 0, the germ of f at x is the min
    of the two tight atoms, and x is a kink on the boundary of {f <= 0}.
    """
    x = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(2))

    def grad():
        while True:
            g = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(2))
            if any(g):
                return g

    def atom_with_value(g, v):
        return Atom(g, v - sum(a * b for a, b in zip(g, x)))

    positive = [Fraction(k, 2) for k in range(1, 5)]
    nonzero = [Fraction(k, 2) for k in range(-4, 5) if k]
    while True:
        g1, g2 = grad(), grad()
        if g1[0] * g2[1] - g1[1] * g2[0] != 0:
            break
    tight = [atom_with_value(g1, Fraction(0)), atom_with_value(g2, Fraction(0))]
    tight += [atom_with_value(grad(), rng.choice(positive)) for _ in range(width - 2)]
    rng.shuffle(tight)
    kids = [Min(tuple(tight))]
    for _ in range(branches - 1):
        vals = [rng.choice(nonzero) for _ in range(width)]
        vals[rng.randrange(width)] = -rng.choice(positive)
        kids.append(Min(tuple(atom_with_value(grad(), v) for v in vals)))
    rng.shuffle(kids)
    return Instance("tree", PLFunction(Max(tuple(kids)), 2), [x])


def _wide_trees() -> list[Instance]:
    out = []
    for draw in range(WIDE_TREE_DRAWS):
        for k, s in enumerate(WIDE_TREE_SHAPE_SEEDS):
            inst = wide_tree(random.Random(s), *WIDE_TREE)
            inst.name = "tree-%d-%d" % (k, draw)
            out.append(inst)
    return out


def corpus(workload: str, seed: int) -> list[Instance]:
    """The instances of one run: the same seed gives the same instances."""
    if workload == "verify-lipschitz":
        base = _shape_corpus(LIPSCHITZ_SHAPE, extended=False)
    elif workload == "verify-extended":
        base = _shape_corpus(EXTENDED_SHAPE, extended=True)
    elif workload == "analyze-wide-tree":
        base = _wide_trees()
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return _moved(base, seed)
