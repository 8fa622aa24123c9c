"""Command line interface: analyze, verify, endset, oracle-compare.

Exit codes: 0 success, 1 theorem-check failure (counterexample written),
2 input error, 3 internal error (a self-check of the engine failed).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .linalg import INF, frac, frac_str
from . import cq
from .cq import Analysis, CQReport, analyze, verify_theorems
from .endset import end_set
from .instances import (Instance, InstanceError, dump_instance,
                        generate_corpus, load_instance, shrink_instance)
from .oracle import (SamplePlan, sample_clarke_dirderiv,
                     sample_clarke_tangent_membership,
                     sample_contingent_membership,
                     sample_frechet_subgradient_check)
from .polyhedra import NormSpec
from .subdiff import clarke_dirderiv

ENGINE = "plcq 0.1.0"


def _jval(v):
    if v is None:
        return "n/a"
    if v is INF:
        return "inf"
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, tuple):
        return [_jval(q) for q in v]
    return v


def _rows_obj(rows):
    return [{"a": [frac_str(q) for q in a], "b": frac_str(b)} for a, b in rows]


def report_to_obj(rep: CQReport) -> dict:
    return {
        "basepoint": [frac_str(q) for q in rep.basepoint],
        "phi_value": _jval(rep.phi_value),
        "norm": rep.norm.kind,
        "on_boundary": rep.on_boundary,
        "lipschitz": rep.lipschitz,
        "clarke_bcq": _jval(rep.clarke_bcq),
        "clarke_bcq_witness": _jval(rep.clarke_bcq_witness),
        "clarke_strong_bcq_tau": _jval(rep.clarke_strong_bcq_tau),
        "extended_bcq": _jval(rep.extended_bcq),
        "extended_strong_bcq_tau": _jval(rep.extended_strong_bcq_tau),
        "frechet_bcq": _jval(rep.frechet_bcq),
        "frechet_strong_bcq_tau": _jval(rep.frechet_strong_bcq_tau),
        "endset_distance_clarke": _jval(rep.endset_distance_clarke),
        "endset_distance_frechet": _jval(rep.endset_distance_frechet),
        "error_bound_modulus": _jval(rep.error_bound_modulus),
        "subdiff_in_normal": _jval(rep.subdiff_in_normal),
        "regular_at_point": _jval(rep.regular_at_point),
        "clarke_subdiff": _rows_obj(rep.clarke_subdiff_rows),
        "theorem_checks": dict(sorted(rep.theorem_checks.items())),
        "flags": list(rep.flags),
    }


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_basepoint(spec: str, dim: int):
    try:
        parts = tuple(frac(s.strip()) for s in spec.split(","))
    except (ValueError, TypeError):
        raise InstanceError("cannot parse basepoint %r" % spec) from None
    if len(parts) != dim:
        raise InstanceError("basepoint %r has wrong dimension" % spec)
    return parts


def _require_polyhedral_norm(inst: Instance) -> None:
    if not inst.norm.is_exact:
        raise InstanceError("%s: CQ analysis needs a polyhedral norm (l1 or linf); "
                            "l2 is available for end-set distances only" % inst.name)


def _load(args) -> Instance:
    inst = load_instance(args.instance)
    if getattr(args, "norm", None):
        inst.norm = NormSpec(args.norm)
    if getattr(args, "basepoint", None):
        for spec in args.basepoint:
            p = _parse_basepoint(spec, inst.f.dim)
            if not inst.f.in_domain(p):
                raise InstanceError("basepoint %r outside dom f" % spec)
            inst.basepoints.append(p)
    if not inst.basepoints:
        raise InstanceError("instance has no basepoints")
    return inst


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    inst = _load(args)
    _require_polyhedral_norm(inst)
    reports = [report_to_obj(analyze(inst.f, p, inst.norm)) for p in inst.basepoints]
    _emit({"engine": ENGINE, "instance": inst.name, "reports": reports}, args.out)
    return 0


def cmd_endset(args) -> int:
    inst = _load(args)
    dual = inst.norm.dual()
    # the sets themselves are norm-independent; only the distance uses `dual`
    space_norm = inst.norm if inst.norm.is_exact else NormSpec("linf")
    out = {"engine": ENGINE, "instance": inst.name, "set": args.set, "reports": []}
    for p in inst.basepoints:
        an = Analysis(inst.f, p, space_norm)
        label = ",".join(frac_str(q) for q in p)
        if args.set == "clarke":
            base = an.clarke
        elif args.set == "frechet":
            base = an.frechet
        elif not an.in_solution_set:
            raise InstanceError("basepoint %s is outside the solution set, so it has "
                                "no normal cone for --set intersection" % label)
        else:
            base = an.clarke.intersect(an.normal_clarke)
        res = end_set(base, dual)
        entry = {
            "basepoint": [frac_str(q) for q in p],
            "pieces": [{"rows": _rows_obj(piece.rows), "eqs": _rows_obj(piece.eqs)}
                       for piece in res.pieces.pieces],
            "distance": _jval(res.distance_to_origin),
        }
        out["reports"].append(entry)
        if res.is_empty:
            print("basepoint %s: empty end set, distance = +inf" % label)
        else:
            print("basepoint %s: %d end-set piece(s), distance = %s"
                  % (label, len(res.pieces.pieces), _jval(res.distance_to_origin)))
    if args.out:
        _emit(out, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.generate:
        try:
            instances = generate_corpus(args.generate, args.dim, args.seed,
                                        extended=args.extended)
        except ValueError as e:
            raise InstanceError(str(e)) from None
    elif args.corpus:
        if not Path(args.corpus).is_dir():
            raise InstanceError("corpus %s is not a directory" % args.corpus)
        paths = sorted(Path(args.corpus).glob("*.json"))
        instances = [load_instance(p) for p in paths]
    else:
        instances = []
    for inst in instances:
        _require_polyhedral_norm(inst)
    results = []
    tally: dict[str, dict[str, int]] = {}
    failure = None
    for inst in instances:
        for p in inst.basepoints:
            checks = verify_theorems(Analysis(inst.f, p, inst.norm))
            results.append({
                "instance": inst.name,
                "basepoint": [frac_str(q) for q in p],
                "checks": dict(sorted(checks.items())),
            })
            for name, verdict in checks.items():
                tally.setdefault(name, {"pass": 0, "fail": 0, "not-applicable": 0})
                tally[name][verdict] += 1
            bad = sorted(n for n, v in checks.items() if v == "fail")
            if bad and failure is None:
                failure = (inst, p, bad)
    for name in sorted(tally):
        t = tally[name]
        print("%-10s pass=%-5d fail=%-5d n/a=%d" % (name, t["pass"], t["fail"],
                                                    t["not-applicable"]))
    print("instances=%d basepoints=%d" % (len(instances), len(results)))
    doc = {"engine": ENGINE, "instances": len(instances),
           "results": results, "summary": {k: dict(v) for k, v in sorted(tally.items())}}
    if args.out:
        _emit(doc, args.out)
    if failure is not None:
        inst, p, bad = failure

        def still_fails(cand: Instance) -> bool:
            try:
                checks = verify_theorems(Analysis(cand.f, p, cand.norm))
            except Exception:
                return False
            return any(checks.get(n) == "fail" for n in bad)

        small = shrink_instance(Instance(inst.name, inst.f, [p], inst.norm, inst.seed),
                                still_fails)
        path = Path(args.counterexample)
        dump_instance(small, path)
        print("FAIL: %s at %s on %s; minimized counterexample written to %s"
              % (inst.name, [frac_str(q) for q in p], ",".join(bad), path),
              file=sys.stderr)
        return 1
    return 0


def cmd_oracle_compare(args) -> int:
    if not 0 <= args.tolerance < float("inf"):
        raise InstanceError("--tolerance must be finite and >= 0, got %s" % args.tolerance)
    inst = _load(args)
    _require_polyhedral_norm(inst)
    plan = SamplePlan(seed=args.seed, tolerance=args.tolerance)
    rng = random.Random(args.seed)
    agree = 0
    total = 0
    for p in inst.basepoints:
        an = Analysis(inst.f, p, inst.norm)
        dirs = []
        for _ in range(24):
            d = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                      for _ in range(inst.f.dim))
            if any(q != 0 for q in d):
                dirs.append(d)
        if an.lipschitz:
            for h in dirs[:8]:
                exact = clarke_dirderiv(inst.f, p, h)
                approx = sample_clarke_dirderiv(inst.f, p, h, plan)
                ok = abs(float(exact) - approx) <= 1e-5 * max(1.0, abs(float(exact)))
                agree += ok
                total += 1
        if an.in_solution_set:
            T = an.tangent_contingent
            Tc = an.tangent_clarke
            S = an.solution_set
            for h in dirs:
                margin = min((abs(sum(a * q for a, q in zip(row[0], h)))
                              for piece in S.pieces for row in piece.rows), default=1)
                if 0 < margin < Fraction(1, 2 ** 20):
                    continue  # degenerate direction, excluded by rational margin
                ok1 = T.contains(h) == sample_contingent_membership(S, p, h, plan)
                ok2 = Tc.contains(h) == sample_clarke_tangent_membership(S, p, h, plan)
                agree += ok1 + ok2
                total += 2
        for v in an.frechet.generators().vertices[:4]:
            ok = sample_frechet_subgradient_check(inst.f, p, v, plan)
            agree += ok
            total += 1
    rate = agree / total if total else 1.0
    print("oracle agreement: %d/%d (%.2f%%)" % (agree, total, 100.0 * rate))
    if args.out:
        _emit({"engine": ENGINE, "agree": agree, "total": total, "rate": rate}, args.out)
    return 0 if rate >= 0.99 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plcq",
                                 description="Exact constraint-qualification analysis "
                                             "of piecewise-linear inequalities.")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full CQ report for an instance file")
    pa.add_argument("instance")
    pa.add_argument("--norm", choices=["l1", "linf", "l2"])
    pa.add_argument("--basepoint", action="append",
                    help="extra basepoint as comma-separated rationals p/q")
    pa.add_argument("--out")
    pa.set_defaults(fn=cmd_analyze)

    pv = sub.add_parser("verify", help="run the theorem battery over a corpus")
    pv.add_argument("corpus", nargs="?", help="directory of instance JSON files")
    pv.add_argument("--generate", type=int, default=0, metavar="N")
    pv.add_argument("--dim", type=int, default=2)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--extended", action="store_true",
                    help="generate domain-restricted (extended-valued) instances")
    pv.add_argument("--out")
    pv.add_argument("--counterexample", default="counterexample.json")
    pv.set_defaults(fn=cmd_verify)

    pe = sub.add_parser("endset", help="end set and its distance to the origin")
    pe.add_argument("instance")
    pe.add_argument("--set", choices=["clarke", "frechet", "intersection"],
                    default="intersection")
    pe.add_argument("--norm", choices=["l1", "linf", "l2"])
    pe.add_argument("--basepoint", action="append")
    pe.add_argument("--out")
    pe.set_defaults(fn=cmd_endset)

    po = sub.add_parser("oracle-compare",
                        help="cross-check exact engines against sampling oracles")
    po.add_argument("instance")
    po.add_argument("--norm", choices=["l1", "linf", "l2"])
    po.add_argument("--basepoint", action="append")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--tolerance", type=float, default=1e-6)
    po.add_argument("--out")
    po.set_defaults(fn=cmd_oracle_compare)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InstanceError, FileNotFoundError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except RuntimeError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
