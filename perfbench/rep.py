"""One repetition of a workload in a fresh interpreter.

Usage (from run.py): rep.py WORKLOAD SEED INDEX WORKDIR MODE
  INDEX  which instance to analyze (analyze-wide-tree); ignored by verify
  MODE   time | trace | setup   ("setup" stops at the first basepoint)

Generates the inputs, writes them as instance JSON, and runs the public CLI
entry point `plcq.cli.main` on them in process.  Each call into
`cli.verify_theorems` / `cli.analyze` is timed; the result is printed as one
JSON line on stdout.  Clock values are CLOCK_MONOTONIC, comparable with the
parent's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

T_START = time.monotonic()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plcq import cli  # noqa: E402
from plcq.instances import dump_instance  # noqa: E402

import workloads  # noqa: E402


class StopAtFirstBasepoint(Exception):
    pass


def invariant_view(workload: str, doc: dict) -> dict:
    """The part of a report that the per-seed symmetries leave unchanged."""
    if workload.startswith("verify"):
        return {"instances": doc["instances"], "summary": doc["summary"],
                "results": [{"instance": r["instance"], "checks": r["checks"]}
                            for r in doc["results"]]}
    moved = ("basepoint", "clarke_bcq_witness", "clarke_subdiff")
    return {"instance": doc["instance"],
            "reports": [{k: v for k, v in rep.items() if k not in moved}
                        for rep in doc["reports"]]}


def verdicts(workload: str, doc: dict) -> list[dict]:
    if workload.startswith("verify"):
        return [r["checks"] for r in doc["results"]]
    return [r["theorem_checks"] for r in doc["reports"]]


def check_wide_tree(inst) -> dict:
    """Untimed guard on a generated tree: its basepoint must be a Lipschitz
    zero of f on the boundary of {f <= 0}, or the workload would be timing
    not-applicable fast paths."""
    from plcq.plfunc import is_boundary_point
    from spans import dnf_conjunctions
    f, x = inst.f, inst.basepoints[0]
    if f.value(x) != 0 or not f.lipschitz_at(x):
        raise RuntimeError("%s: basepoint is not a Lipschitz zero of f" % inst.name)
    if not is_boundary_point(f.solution_set(), x):
        raise RuntimeError("%s: basepoint is not a boundary point" % inst.name)
    active = sum(1 for a in f.atoms() if a.value(x) == 0)
    return {"dnf_conjunctions": dnf_conjunctions(f.expr), "active_atoms": active}


def main(argv) -> dict:
    workload, seed, index, workdir, mode = argv[0], int(argv[1]), int(argv[2]), Path(argv[3]), argv[4]
    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    insts = workloads.corpus(workload, seed)
    verify = workload.startswith("verify")
    out = workdir / "report.json"
    if verify:
        corpus_dir = workdir / "corpus"
        corpus_dir.mkdir()
        for inst in insts:
            dump_instance(inst, corpus_dir / ("%s.json" % inst.name))
        args = ["verify", str(corpus_dir), "--out", str(out),
                "--counterexample", str(workdir / "counterexample.json")]
    else:
        insts = [insts[index]]
        path = workdir / "instance.json"
        dump_instance(insts[0], path)
        args = ["analyze", str(path), "--out", str(out)]

    target = "verify_theorems" if verify else "analyze"
    timed = getattr(cli, target)
    durations: list[float] = []
    first: list[float] = []

    def timed_call(*a, **k):
        if mode == "setup":
            first.append(time.monotonic())
            raise StopAtFirstBasepoint
        t0 = time.monotonic()
        if not first:
            first.append(t0)
        result = timed(*a, **k)
        durations.append(time.monotonic() - t0)
        return result

    setattr(cli, target, timed_call)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(args)
    except StopAtFirstBasepoint:
        return {"t_start": T_START, "t_first": first[0]}
    finally:
        setattr(cli, target, timed)
    t_end = time.monotonic()
    if tracer is not None:
        tracer.active = False

    data = out.read_bytes()
    doc = json.loads(data)
    res = {
        "t_start": T_START, "t_first": first[0], "t_end": t_end, "exit_code": code,
        "durations": durations,
        "basepoints": sum(len(i.basepoints) for i in insts),
        "failed_checks": sum(1 for checks in verdicts(workload, doc)
                             if "fail" in checks.values()),
        "digest": hashlib.sha256(data).hexdigest(),
        "invariant_digest": hashlib.sha256(json.dumps(
            invariant_view(workload, doc), sort_keys=True).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from plcq import polyhedra
        info = polyhedra.dd_cone.__wrapped__.cache_info()
        res["trace"] = {
            "calls": tracer.calls, "self": tracer.self_time, "total": tracer.total,
            "lp_by_caller": tracer.lp_by_caller, "lp_rows": tracer.lp_rows,
            "lp_vars": tracer.lp_vars, "lp_optimal": tracer.lp_optimal,
            "dnf_conjunctions": tracer.dnf_conjunctions, "dnf_pieces": tracer.dnf_pieces,
            "dd_cone_cache": {"hits": info.hits, "misses": info.misses,
                              "currsize": info.currsize, "maxsize": info.maxsize},
        }
    if not verify:
        # after cache_info is read: the check expands f again through dd_cone
        res["inputs"] = check_wide_tree(insts[0])
    return res


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
