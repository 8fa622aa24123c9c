"""A golden digest of `analyze` reports.

The reports of a fixed generated set (dims 1-2, with and without a domain,
in linf and l1), at its boundary basepoints and at the same points shifted
by +1 and by -1/2 where f is defined, are serialized as `plcq analyze`
writes them and hashed.  Every refactor that promises byte-identical reports must leave the
digest unchanged; a change that alters a report on purpose records the new
digest here and says why.
"""

import hashlib
import json
from fractions import Fraction

from plcq.cli import report_to_obj
from plcq.cq import analyze
from plcq.instances import generate_corpus
from plcq.polyhedra import NormSpec

GOLDEN_SHA256 = "9720b45e867dad29a5d3fc5351627781d5a02754a4593cffb2182d8d25a92766"


def _reports():
    for inst in (generate_corpus(6, 1, seed=61, max_atoms=5)
                 + generate_corpus(4, 2, seed=62, max_atoms=4)
                 + generate_corpus(6, 1, seed=63, extended=True, max_atoms=5)
                 + generate_corpus(4, 2, seed=64, extended=True, max_atoms=4)):
        points = [tuple(q + shift for q in p) for p in inst.basepoints
                  for shift in (0, 1, Fraction(-1, 2))]
        for norm in ("linf", "l1"):
            for p in points:
                if inst.f.in_domain(p):
                    yield report_to_obj(analyze(inst.f, p, NormSpec(norm)))


def test_analyze_reports_match_golden_digest():
    reports = list(_reports())
    text = json.dumps(reports, indent=2, sort_keys=True)
    assert len(reports) >= 150
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256
