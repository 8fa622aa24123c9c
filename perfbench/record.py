"""Record the report digests that every benchmark run is checked against.

    python3 perfbench/record.py

Runs one cycle of each workload on seed 0 under two
PYTHONHASHSEED values, fails unless both give byte-identical reports with
no failed identity, and writes perfbench/digests.json.  Rerun it only when
a change is meant to alter the reports.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402

HASH_SEEDS = ("0", "1")
SEED = 0   # the seed whose full reports are recorded; invariant digests hold for every seed


def record() -> dict:
    out = {"seed": SEED, "hash_seeds_checked": list(HASH_SEEDS), "workloads": {}}
    workdir = run.ROOT / ".perfbench_work" / ("record-%d" % os.getpid())
    workdir.mkdir(parents=True)
    try:
        for wl in run.WORKLOADS:
            cycles = []
            for hs in HASH_SEEDS:
                # analyze runs one CLI call per instance, verify one per corpus
                reps = len(workloads.corpus(wl, SEED)) if wl.startswith("analyze") else 1
                runner = run.Runner(wl, SEED, workdir, time.monotonic() + 600, reps)
                runner.env["PYTHONHASHSEED"] = hs
                cyc = runner.cycle("time")
                for r in cyc:
                    if "error" in r or r["exit_code"] != 0 or r["failed_checks"]:
                        raise SystemExit("%s: bad repetition under PYTHONHASHSEED=%s: %s"
                                         % (wl, hs, r.get("error", r)))
                cycles.append(cyc)
            for a, b in zip(*cycles):
                if a["digest"] != b["digest"]:
                    raise SystemExit("%s: report depends on PYTHONHASHSEED" % wl)
            out["workloads"][wl] = {
                "basepoints": [r["basepoints"] for r in cycles[0]],
                "full": [r["digest"] for r in cycles[0]],
                "invariant": [r["invariant_digest"] for r in cycles[0]],
            }
            print("%s: %d report(s), digests agree under PYTHONHASHSEED %s"
                  % (wl, len(cycles[0]), " and ".join(HASH_SEEDS)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return out


def main() -> int:
    if sys.argv[1:]:
        raise SystemExit(__doc__)
    doc = record()
    (run.HERE / "digests.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
