"""Instance documents: JSON (de)serialization and random corpus generation.

Rationals cross the wire as strings "p/q" so no float ever contaminates an
instance.  The generator biases basepoints toward vertices of the solution
set, where several affine pieces meet and subdifferentials are fat.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vec, frac, frac_str, zeros
from .plfunc import Atom, Max, Min, PLFunction, is_boundary_point
from .polyhedra import HPolyhedron, NormSpec

FORMAT_VERSION = 1


class InstanceError(ValueError):
    """Malformed instance document."""


@dataclass
class Instance:
    name: str
    f: PLFunction
    basepoints: list[Vec]
    norm: NormSpec = NormSpec("linf")
    seed: int | None = None


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _array(obj, what: str) -> list:
    """obj, which must be a JSON array: iterating a string instead would read
    it one character at a time."""
    if not isinstance(obj, list):
        raise InstanceError("%s must be a JSON array, not %s" % (what, type(obj).__name__))
    return obj


def _expr_to_obj(expr):
    if isinstance(expr, Atom):
        return {"op": "atom", "g": [frac_str(q) for q in expr.g], "c": frac_str(expr.c)}
    op = "max" if isinstance(expr, Max) else "min"
    return {"op": op, "args": [_expr_to_obj(ch) for ch in expr.children]}


def _expr_from_obj(obj, dim):
    try:
        op = obj["op"]
        if op == "atom":
            g = tuple(frac(s) for s in _array(obj["g"], "atom gradient"))
            if len(g) != dim:
                raise InstanceError("atom gradient has wrong dimension")
            return Atom(g, frac(obj["c"]))
        args = [_expr_from_obj(ch, dim) for ch in obj["args"]]
        if len(args) < 2:
            raise InstanceError("%s node needs at least two children" % op)
        if op == "max":
            return Max(tuple(args))
        if op == "min":
            return Min(tuple(args))
        raise InstanceError("unknown expression op %r" % op)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InstanceError("bad expression node: %s" % e) from None


def _domain_to_obj(domain: HPolyhedron | None):
    if domain is None:
        return None
    rows = [{"a": [frac_str(q) for q in a], "b": frac_str(b), "type": "le"}
            for a, b in domain.rows]
    rows += [{"a": [frac_str(q) for q in e], "b": frac_str(d), "type": "eq"}
             for e, d in domain.eqs]
    return rows


def _domain_from_obj(obj, dim) -> HPolyhedron | None:
    if obj is None:
        return None
    rows, eqs = [], []
    for item in obj:
        try:
            a = tuple(frac(s) for s in _array(item["a"], "'a'"))
            b = frac(item["b"])
            kind = item.get("type", "le")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise InstanceError("bad domain row: %s" % e) from None
        if len(a) != dim:
            raise InstanceError("domain row has wrong dimension")
        if kind not in ("le", "eq"):
            raise InstanceError("domain row type must be 'le' or 'eq', not %r" % (kind,))
        (eqs if kind == "eq" else rows).append((a, b))
    return HPolyhedron(dim, rows, eqs)


def instance_to_obj(inst: Instance) -> dict:
    obj = {
        "version": FORMAT_VERSION,
        "name": inst.name,
        "dim": inst.f.dim,
        "expr": _expr_to_obj(inst.f.expr),
        "basepoints": [[frac_str(q) for q in p] for p in inst.basepoints],
        "norm": inst.norm.kind,
    }
    dom = _domain_to_obj(inst.f.domain)
    if dom is not None:
        obj["domain"] = dom
    if inst.seed is not None:
        obj["seed"] = inst.seed
    return obj


def instance_from_obj(obj) -> Instance:
    if not isinstance(obj, dict):
        raise InstanceError("instance document must be a JSON object, not %s"
                            % type(obj).__name__)
    try:
        version = obj.get("version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise InstanceError("unsupported format version %r" % version)
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise InstanceError("dim must be a JSON integer, not %r" % (dim,))
        expr = _expr_from_obj(obj["expr"], dim)
        domain = _domain_from_obj(obj.get("domain"), dim)
        basepoints = [tuple(frac(s) for s in _array(p, "basepoint"))
                      for p in _array(obj.get("basepoints", []), "basepoints")]
        norm = NormSpec(obj.get("norm", "linf"))
        name = obj.get("name", "instance")
        seed = obj.get("seed")
    except InstanceError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InstanceError("bad instance document: %s" % e) from None
    except RecursionError:
        raise InstanceError("expression tree nested too deeply") from None
    try:
        f = PLFunction(expr, dim, domain)
    except ValueError as e:
        raise InstanceError("bad instance: %s" % e) from None
    for p in basepoints:
        if len(p) != dim:
            raise InstanceError("basepoint has wrong dimension")
        if not f.in_domain(p):
            raise InstanceError("basepoint %s outside dom f" % (p,))
    return Instance(name=name, f=f, basepoints=basepoints, norm=norm, seed=seed)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise InstanceError("invalid JSON at line %d column %d: %s"
                                % (e.lineno, e.colno, e.msg)) from None
        except RecursionError:
            raise InstanceError("JSON nested too deeply") from None
    return instance_from_obj(obj)


def dump_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_obj(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------

def _random_atom(rng: random.Random, dim: int) -> Atom:
    while True:
        g = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim))
        if any(q != 0 for q in g):
            break
    c = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
    return Atom(g, c)


def _random_tree(rng: random.Random, atoms: list):
    nodes = list(atoms)
    while len(nodes) > 1:
        k = min(len(nodes), rng.choice((2, 2, 2, 3)))
        picked = [nodes.pop(rng.randrange(len(nodes))) for _ in range(k)]
        if len(picked) == 1:
            nodes.append(picked[0])
            continue
        node = Max(tuple(picked)) if rng.random() < 0.6 else Min(tuple(picked))
        nodes.append(node)
    return nodes[0]


def random_function(rng: random.Random, dim: int, max_atoms: int,
                    with_domain: bool = False) -> PLFunction | None:
    n_atoms = rng.randint(2, max_atoms)
    tree = _random_tree(rng, [_random_atom(rng, dim) for _ in range(n_atoms)])
    domain = None
    if with_domain:
        rows = []
        for _ in range(rng.randint(1, min(dim + 1, 3))):
            a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
            if all(q == 0 for q in a):
                continue
            rows.append((a, Fraction(rng.choice((0, 0, 1, 1, 2, -1)), rng.choice((1, 2)))))
        if not rows:
            return None
        domain = HPolyhedron(dim, rows)
        if domain.is_empty:
            return None
    return PLFunction(tree, dim, domain)


def boundary_basepoints(f: PLFunction, limit: int = 3) -> list[Vec]:
    """Candidate analysis points: vertices of the solution-set pieces (these
    sit where cells meet), plus the origin, filtered to boundary points."""
    S = f.solution_set()
    if S.is_empty:
        return []
    cands = set()
    for p in S.pieces:
        for v in p.generators().vertices:
            cands.add(v)
    origin = zeros(f.dim)
    if S.contains(origin):
        cands.add(origin)
    out = []
    for x in sorted(cands):
        if is_boundary_point(S, x):
            out.append(x)
        if len(out) >= limit:
            break
    return out


def generate_corpus(count: int, dim: int, seed: int, extended: bool = False,
                    max_atoms: int = 6, points_per_instance: int = 2) -> list[Instance]:
    """Deterministic list of `count` instances with at least one boundary
    basepoint each."""
    if dim < 1:
        # _random_atom draws until it gets a nonzero gradient, and R^0 has none
        raise ValueError("corpus dimension must be at least 1, got %d" % dim)
    rng = random.Random(seed)
    out: list[Instance] = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        f = random_function(rng, dim, max_atoms, with_domain=extended)
        if f is None:
            continue
        pts = boundary_basepoints(f, limit=points_per_instance)
        if not pts:
            continue
        out.append(Instance(name="gen-%03d" % len(out), f=f, basepoints=pts, seed=seed))
    if len(out) < count:
        raise RuntimeError("corpus generation stalled after %d attempts" % attempts)
    return out


def shrink_instance(inst: Instance, still_fails) -> Instance:
    """Greedy minimization: drop atoms (and the domain) while the failure
    predicate keeps holding."""
    from .plfunc import expr_atoms

    def rebuild(expr, banned) -> object | None:
        if isinstance(expr, Atom):
            return None if id(expr) in banned else expr
        kids = [rebuild(ch, banned) for ch in expr.children]
        kids = [k for k in kids if k is not None]
        if not kids:
            return None
        if len(kids) == 1:
            return kids[0]
        return Max(tuple(kids)) if isinstance(expr, Max) else Min(tuple(kids))

    cur = inst
    changed = True
    while changed:
        changed = False
        if cur.f.domain is not None:
            cand = Instance(cur.name, PLFunction(cur.f.expr, cur.f.dim, None),
                            cur.basepoints, cur.norm, cur.seed)
            try:
                if all(cand.f.in_domain(p) for p in cand.basepoints) and still_fails(cand):
                    cur = cand
                    changed = True
                    continue
            except Exception:
                pass
        for a in expr_atoms(cur.f.expr):
            reduced = rebuild(cur.f.expr, {id(a)})
            if reduced is None or isinstance(reduced, Atom):
                continue
            cand = Instance(cur.name, PLFunction(reduced, cur.f.dim, cur.f.domain),
                            cur.basepoints, cur.norm, cur.seed)
            try:
                if still_fails(cand):
                    cur = cand
                    changed = True
                    break
            except Exception:
                continue
    return cur
