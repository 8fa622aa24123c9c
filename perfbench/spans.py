"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces each layer function with a wrapper that records
a span (name, duration, parent) around every call.  A function is often
bound under several names (``from .endset import distance_to_end_set`` makes
``cq.distance_to_end_set`` a second binding), so every ``plcq.*`` module
global bound to the same object is replaced too.  Spans are aggregated as
they close, one thread, strictly nested: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, attribute path) of every wrapped layer function.  Span names are
# "<module>.<last attribute>".
LAYER_FUNCTIONS = (
    ("simplex", "lp_solve"),
    ("polyhedra", "dd_cone"),
    ("polyhedra", "HPolyhedron.canonical"),
    ("polyhedra", "union_subset"),
    ("polyhedra", "distance"),
    ("polyhedra", "hull"),
    ("polyhedra", "minkowski_sum"),
    ("plfunc", "PLFunction.solution_set"),
    ("plfunc", "PLFunction.epigraph"),
    ("plfunc", "PLFunction.local_cells"),
    ("plfunc", "is_boundary_point"),
    ("cones", "face_atlas"),
    ("cones", "contingent_cone"),
    ("cones", "clarke_tangent_cone"),
    ("cones", "clarke_normal_cone"),
    ("cones", "frechet_normal_cone"),
    ("subdiff", "clarke_subdiff"),
    ("subdiff", "clarke_singular_subdiff"),
    ("subdiff", "frechet_subdiff"),
    ("subdiff", "is_regular"),
    ("endset", "distance_to_end_set"),
    ("cq", "check_clarke_bcq"),
    ("cq", "check_extended_bcq"),
    ("cq", "check_frechet_bcq"),
    ("cq", "check_strong_bcq"),
    ("cq", "best_tau_directional"),
    ("cq", "best_tau_endset"),
    ("cq", "endset_distance"),
    ("cq", "check_subdiff_in_normal"),
    ("cq", "check_tangent_inclusion"),
    ("cq", "error_bound_modulus"),
    ("cq", "verify_prop32"),
    ("cq", "verify_theorems"),
    ("cq", "analyze"),
    ("instances", "generate_corpus"),
    ("instances", "load_instance"),
    ("cli", "report_to_obj"),
    ("cli", "main"),
)

# lp_solve time is attributed to the nearest enclosing span among these
LP_CALLERS = ("cq.check_strong_bcq", "cq.verify_prop32", "endset.distance_to_end_set")


def span_name(module: str, attr: str) -> str:
    return "%s.%s" % (module, attr.rsplit(".", 1)[-1])


def dnf_conjunctions(expr) -> int:
    """Conjunctions in the DNF of {expr <= 0}: product at max nodes, sum at
    min nodes, one per atom."""
    from plcq.plfunc import Atom, Max
    if isinstance(expr, Atom):
        return 1
    counts = [dnf_conjunctions(ch) for ch in expr.children]
    if isinstance(expr, Max):
        out = 1
        for c in counts:
            out *= c
        return out
    return sum(counts)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.lp_by_caller = {name: 0.0 for name in LP_CALLERS + ("other",)}
        self.lp_rows = 0
        self.lp_vars = 0
        self.lp_optimal = 0
        self.dnf_conjunctions = 0
        self.dnf_pieces = 0
        self._expanded = {"solution_set": weakref.WeakSet(), "epigraph": weakref.WeakSet()}
        self._stack: list[list] = []   # [name, child time]
        self.active = True

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import plcq.cli  # noqa: F401  (imports every layer module)
        mods = {n: m for n, m in sys.modules.items()
                if n == "plcq" or n.startswith("plcq.")}
        for module, attr in LAYER_FUNCTIONS:
            owner = mods["plcq." + module]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, path[-1])
            wrapped = self._wrap(span_name(module, attr), orig)
            setattr(owner, path[-1], wrapped)
            if len(path) == 1:
                for mod in mods.values():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapped)

    # -- spans --------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer._close(name, dur, dur - frame[1])
            tracer._observe(name, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _close(self, name: str, dur: float, self_dur: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + self_dur
        if name == "simplex.lp_solve":
            caller = next((f[0] for f in reversed(self._stack) if f[0] in LP_CALLERS),
                          "other")
            self.lp_by_caller[caller] += self_dur

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counts read from arguments and results at the layer boundary."""
        if name == "simplex.lp_solve":
            bound = dict(zip(("objective", "rows", "eqs"), args), **kwargs)
            objective, rows, eqs = bound["objective"], bound["rows"], bound.get("eqs", ())
            self.lp_vars += len(objective)
            self.lp_rows += len(rows) + len(eqs)
            self.lp_optimal += result.status == "optimal"
        elif name in ("plfunc.solution_set", "plfunc.epigraph"):
            f = args[0]
            seen = self._expanded[name.split(".")[1]]
            if f not in seen:
                seen.add(f)
                self.dnf_conjunctions += dnf_conjunctions(f.expr)
                self.dnf_pieces += len(result.pieces)
