"""The benchmark's traced runs must keep reaching every wrapped layer.

`perfbench/run.py --trace 1` wraps the functions in `spans.LAYER_FUNCTIONS`
and exits 1 when one of them records no calls on a workload (unless the
workload lists it in `run.NOT_REACHED`), or when a repetition crashes.  A
change that renames a layer function, or stops a workload from reaching
one, breaks those runs; these tests catch it here, with one traced
repetition of each workload (`perfbench/rep.py W 0 0 WORKDIR trace`).
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import spans  # noqa: E402


def test_layer_functions_resolve():
    for module, attr in spans.LAYER_FUNCTIONS:
        owner = importlib.import_module("plcq." + module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_repetition_reaches_every_span(workload, tmp_path):
    proc = subprocess.run([sys.executable, str(PERFBENCH / "rep.py"), workload, "0", "0",
                           str(tmp_path), "trace"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["exit_code"] == 0
    assert res["failed_checks"] == 0
    calls = res["trace"]["calls"]
    expected = ({spans.span_name(m, a) for m, a in spans.LAYER_FUNCTIONS}
                - set(run.NOT_REACHED[workload]))
    missing = sorted(n for n in expected if not calls.get(n))
    assert not missing, "wrapped layers recorded no calls on %s: %s" % (
        workload, ", ".join(missing))
