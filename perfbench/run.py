"""plcq benchmark: exact CQ verdicts timed end to end, layers traced apart.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One caller, closed loop: every
repetition is a fresh interpreter (perfbench/rep.py) that generates the
seeded inputs and runs the public CLI entry point `plcq.cli.main` on them,
and the next one starts only after it exits.  A fresh interpreter matters:
`dd_cone` is a process-global LRU cache that a reused process would keep
warm, which no CLI user gets.

A cycle is one pass over the workload's inputs: one `plcq verify CORPUS`
call, or one `plcq analyze INSTANCE` call per tree.  With --trace 0 the run
does whole cycles while the next one is expected to end within S seconds
(at least one), with set-up-only repetitions before and after them, and
reports the end-to-end metrics, which time each basepoint by its median
over the cycles.  With --trace 1 it does one untraced and
one traced cycle and reports the per-layer metrics; their wall-time ratio
is the tracing overhead.

Every report is checked: no identity may fail, the CLI must exit 0, the
report's seed-invariant part must match perfbench/digests.json, the whole
report must match it byte for byte on the recorded seed, and cycles of one
run must agree byte for byte.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_FUNCTIONS, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-lipschitz", "verify-extended", "analyze-wide-tree")
SETUP_ONLY_REPS = 16   # extra set-up samples per run, so setup_s is a steady median
DEADLINE_S = 170.0     # the whole run ends within 180 s

# wrapped spans a workload never reaches; every other span must record calls
NOT_REACHED = {
    "verify-lipschitz": ("cq.analyze", "cli.report_to_obj"),
    "verify-extended": ("cq.analyze", "cli.report_to_obj"),
    "analyze-wide-tree": ("instances.generate_corpus",),
}
ENTRY_POINTS = ("cli.main",)
TANGENT_NORMAL = ("cones.contingent_cone", "cones.clarke_tangent_cone",
                  "cones.clarke_normal_cone", "cones.frechet_normal_cone")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float,
                 reps_per_cycle: int = 1):
        self.workload = workload
        self.reps_per_cycle = reps_per_cycle
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)

    def rep(self, mode: str, index: int = 0) -> dict:
        """One fresh interpreter; returns its result or {"error": ...}."""
        self.count += 1
        wd = self.workdir / ("rep-%04d" % self.count)
        wd.mkdir()
        cmd = [sys.executable, str(HERE / "rep.py"), self.workload, str(self.seed),
               str(index), str(wd), mode]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            return {"error": "repetition timed out", "t_spawn": t_spawn}
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"error": "exit %d: %s" % (proc.returncode, " | ".join(tail)),
                    "t_spawn": t_spawn}
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["t_spawn"] = t_spawn
        return res

    def cycle(self, mode: str) -> list[dict]:
        return [self.rep(mode, i) for i in range(self.reps_per_cycle)]

    def setups(self, n: int) -> list[float]:
        """Times of n set-up-only repetitions, spawn to first basepoint."""
        out = []
        for _ in range(n):
            r = self.rep("setup")
            if "error" in r:
                raise BenchError("set-up repetition failed: %s" % r["error"])
            out.append(r["t_first"] - r["t_spawn"])
        return out


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def check_cycles(workload: str, seed: int, cycles: list[list[dict]], digests: dict):
    """(attempted, failed, problems) over every timed cycle of a run."""
    rec = digests["workloads"][workload]
    attempted = failed = 0
    problems = []
    run_bad = False
    for cyc in cycles:
        for i, r in enumerate(cyc):
            expected = rec["basepoints"][i]
            attempted += expected
            if "error" in r:
                failed += expected
                problems.append(r["error"])
                continue
            bad = r["failed_checks"]
            if r["exit_code"] != 0:
                bad = expected
                problems.append("CLI exit code %d" % r["exit_code"])
            if len(r["durations"]) != expected or r["basepoints"] != expected:
                bad = expected
                problems.append("expected %d basepoints, timed %d"
                                % (expected, len(r["durations"])))
            failed += min(expected, bad)
            if r["invariant_digest"] != rec["invariant"][i]:
                run_bad = True
                problems.append("seed-invariant report digest mismatch (rep %d)" % i)
            if seed == digests["seed"] and r["digest"] != rec["full"][i]:
                run_bad = True
                problems.append("report digest mismatch on the recorded seed (rep %d)" % i)
            if r["digest"] != cycles[0][i].get("digest", r["digest"]):
                run_bad = True
                problems.append("cycles of one run disagree (rep %d)" % i)
    if run_bad:
        failed = attempted
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]):
    """Highest integer percentile with at least 10 samples above it, as
    (percentile, value), or None when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    for q in range(99, 49, -1):
        v = xs[max(0, -(-q * n // 100) - 1)]   # nearest rank
        if sum(1 for x in xs if x > v) >= 10:
            return q, v
    return None


def basepoint_medians(cycles) -> list[float]:
    """Each basepoint's median time over the run's cycles.  Cycles repeat
    the same inputs in the same order, so a basepoint is its (repetition,
    position) in a cycle.  The median drops the cycles that a burst of
    other work on the machine slowed down or sped up."""
    times: dict[tuple[int, int], list[float]] = {}
    for cyc in cycles:
        for i, r in enumerate(cyc):
            if "error" in r:
                continue
            for j, d in enumerate(r["durations"]):
                times.setdefault((i, j), []).append(d)
    return [statistics.median(v) for v in times.values()]


def end_to_end(cycles, setups, attempted, failed) -> tuple[dict, list[str]]:
    reps = [r for cyc in cycles for r in cyc if "error" not in r]
    if not reps:
        raise BenchError("no repetition completed")
    durations = [d for r in reps for d in r["durations"]]
    medians = basepoint_medians(cycles)
    rss = [max(r["peak_rss_mb"] for r in cyc if "error" not in r)
           for cyc in cycles if any("error" not in r for r in cyc)]
    m = {
        "basepoints_per_s": (len(medians) / sum(medians), "1/s"),
        "basepoint_p50_s": (statistics.median(medians), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ops_ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    info = ["samples: %d basepoint verdicts (%d distinct) in %d cycle(s), %d set-up samples"
            % (len(durations), len(medians), len(cycles), len(setups)),
            "ops_failed_ratio %.6f ratio (%d of %d)" % (failed / attempted, failed, attempted)]
    t = tail(durations)
    if t is None:
        info.append("basepoint_tail_s omitted: %d samples leave fewer than 10 above p50"
                    % len(durations))
    else:
        info.append("basepoint_tail_s %.6f s (p%d of %d samples)" % (t[1], t[0], len(durations)))
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, info


def per_layer(workload: str, traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    calls: dict[str, int] = {}
    selft: dict[str, float] = {}
    total: dict[str, float] = {}
    by_caller: dict[str, float] = {}
    acc = {"lp_rows": 0, "lp_vars": 0, "lp_optimal": 0, "dnf_conjunctions": 0,
           "dnf_pieces": 0, "hits": 0, "misses": 0}
    cache_size = 0
    wall = 0.0
    basepoints = 0
    for r in traced:
        tr = r["trace"]
        for key, into in (("calls", calls), ("self", selft), ("total", total),
                          ("lp_by_caller", by_caller)):
            for k, v in tr[key].items():
                into[k] = into.get(k, 0) + v
        for k in ("lp_rows", "lp_vars", "lp_optimal", "dnf_conjunctions", "dnf_pieces"):
            acc[k] += tr[k]
        acc["hits"] += tr["dd_cone_cache"]["hits"]
        acc["misses"] += tr["dd_cone_cache"]["misses"]
        cache_size = max(cache_size, tr["dd_cone_cache"]["currsize"])
        wall += r["t_end"] - r["t_start"]
        basepoints += len(r["durations"])

    expected = {span_name(m, a) for m, a in LAYER_FUNCTIONS} - set(NOT_REACHED[workload])
    missing = sorted(n for n in expected if not calls.get(n))
    if missing:
        raise BenchError("wrapped layers recorded no calls on %s: %s"
                         % (workload, ", ".join(missing)))

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def s(*names):
        return sum(selft.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    lp = c("simplex.lp_solve")
    strong = c("cq.check_strong_bcq")
    # The entry-point span's self time is whatever no layer span claims, so
    # coverage counts only the named layers.
    named = sum(v for k, v in selft.items() if k not in ENTRY_POINTS)
    m = {
        "simplex.lp_calls": (lp, "count"),
        "simplex.lp_self_s": (s("simplex.lp_solve"), "s"),
        "simplex.lp_rows_mean": (ratio(acc["lp_rows"], lp), "rows"),
        "simplex.lp_vars_mean": (ratio(acc["lp_vars"], lp), "vars"),
        "simplex.lp_optimal_ratio": (ratio(acc["lp_optimal"], lp), "ratio"),
        "simplex.lp_self_s.by_caller.check_strong_bcq":
            (by_caller.get("cq.check_strong_bcq", 0.0), "s"),
        "simplex.lp_self_s.by_caller.verify_prop32": (by_caller.get("cq.verify_prop32", 0.0), "s"),
        "simplex.lp_self_s.by_caller.distance_to_end_set":
            (by_caller.get("endset.distance_to_end_set", 0.0), "s"),
        "simplex.lp_self_s.by_caller.other": (by_caller.get("other", 0.0), "s"),
        "cq.check_strong_bcq_calls": (strong, "count"),
        "cq.check_strong_bcq_self_s": (s("cq.check_strong_bcq"), "s"),
        "cq.lp_per_strong_bcq": (ratio(lp, strong), "ratio"),
        "cq.verify_prop32_self_s": (s("cq.verify_prop32"), "s"),
        "cq.best_tau_directional_self_s": (s("cq.best_tau_directional"), "s"),
        "cq.best_tau_endset_self_s": (s("cq.best_tau_endset"), "s"),
        "cq.error_bound_modulus_self_s": (s("cq.error_bound_modulus"), "s"),
        "cq.verify_theorems_self_s": (s("cq.verify_theorems"), "s"),
        "endset.distance_to_end_set_calls": (c("endset.distance_to_end_set"), "count"),
        "endset.distance_to_end_set_self_s": (s("endset.distance_to_end_set"), "s"),
        "endset.calls_per_basepoint": (ratio(c("endset.distance_to_end_set"), basepoints), "ratio"),
        "plfunc.solution_set_self_s": (s("plfunc.solution_set"), "s"),
        "plfunc.epigraph_self_s": (s("plfunc.epigraph"), "s"),
        "plfunc.local_cells_self_s": (s("plfunc.local_cells"), "s"),
        "plfunc.dnf_conjunctions": (acc["dnf_conjunctions"], "count"),
        "plfunc.pieces_kept_ratio": (ratio(acc["dnf_pieces"], acc["dnf_conjunctions"]), "ratio"),
        "polyhedra.dd_cone_calls": (c("polyhedra.dd_cone"), "count"),
        "polyhedra.dd_cone_self_s": (s("polyhedra.dd_cone"), "s"),
        "polyhedra.dd_cone_hit_ratio": (ratio(acc["hits"], acc["hits"] + acc["misses"]), "ratio"),
        "polyhedra.dd_cone_cache_size": (cache_size, "count"),
        "polyhedra.canonical_calls": (c("polyhedra.canonical"), "count"),
        "polyhedra.canonical_self_s": (s("polyhedra.canonical"), "s"),
        "polyhedra.union_subset_self_s": (s("polyhedra.union_subset"), "s"),
        "polyhedra.distance_self_s": (s("polyhedra.distance"), "s"),
        "cones.face_atlas_calls": (c("cones.face_atlas"), "count"),
        "cones.face_atlas_self_s": (s("cones.face_atlas"), "s"),
        "cones.tangent_normal_self_s": (s(*TANGENT_NORMAL), "s"),
        "subdiff.clarke_self_s": (s("subdiff.clarke_subdiff"), "s"),
        "subdiff.singular_self_s": (s("subdiff.clarke_singular_subdiff"), "s"),
        "subdiff.frechet_self_s": (s("subdiff.frechet_subdiff"), "s"),
        # inclusive: generation is set-up work, whatever layers it calls
        "instances.generate_corpus_s": (total.get("instances.generate_corpus", 0.0), "s"),
        "cli.report_to_obj_self_s": (s("cli.report_to_obj"), "s"),
        "trace.coverage": (ratio(named, wall), "ratio"),
        "trace.overhead_ratio": (
            ratio(sum(r["t_end"] - r["t_spawn"] for r in traced),
                  sum(r["t_end"] - r["t_spawn"] for r in untraced)), "ratio"),
    }
    top = sorted(selft.items(), key=lambda kv: -kv[1])[:8]
    info = ["traced wall %.3f s over %d basepoints; largest self times: %s"
            % (wall, basepoints, ", ".join("%s %.3f s" % kv for kv in top)),
            "not explained by a named layer: %.3f s (%.4f of traced wall), of which "
            "entry-point self time %.3f s" % (wall - named, ratio(wall - named, wall),
                                              s(*ENTRY_POINTS)),
            "dd_cone cache_info when the CLI returned, per traced repetition: %s"
            % "; ".join(json.dumps(r["trace"]["dd_cone_cache"]) for r in traced)]
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, info


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(args) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    digests = load_digests()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, workdir, deadline,
                    len(digests["workloads"][args.workload]["basepoints"]))
    try:
        info = []
        if args.trace:
            untraced = runner.cycle("time")
            traced = runner.cycle("trace")
            cycles = [untraced, traced]
        else:
            # Half the set-up samples before the cycles and half after, so
            # that their median spans the run rather than its first seconds.
            setups = runner.setups(SETUP_ONLY_REPS // 2)
            cycles = []
            while True:
                t0 = time.monotonic()
                cycles.append(runner.cycle("time"))
                took = time.monotonic() - t0
                if time.monotonic() + took > start + args.seconds:
                    break
            setups += runner.setups(SETUP_ONLY_REPS - SETUP_ONLY_REPS // 2)
        attempted, failed, problems = check_cycles(args.workload, args.seed, cycles, digests)
        if args.trace:
            good = all("error" not in r for r in untraced + traced)
            if not good:
                raise BenchError("; ".join(problems))
            metrics, more = per_layer(args.workload, traced, untraced)
        else:
            setups += [r["t_first"] - r["t_spawn"] for cyc in cycles for r in cyc
                       if "error" not in r]
            metrics, more = end_to_end(cycles, setups, attempted, failed)
        info += more
        if args.workload == "analyze-wide-tree":
            for i, r in enumerate(cycles[0]):
                if "inputs" in r:
                    info.append("tree %d: %s, analyze %.3f s"
                                % (i, json.dumps(r["inputs"], sort_keys=True), r["durations"][0]))
        info += ["problem: %s" % p for p in sorted(set(problems))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return {"info": info, "result": {"correct": failed == 0, "attempted": attempted,
                                     "failed": failed, "metrics": metrics}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "plcq" / "cli.py").is_file():
        print("perfbench: no plcq sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        out = run(args)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for line in out["info"]:
        print(line)
    for name, m in out["result"]["metrics"].items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
