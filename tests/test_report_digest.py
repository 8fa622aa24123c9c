"""Golden digests of `analyze`, `endset` and `oracle-compare` outputs.

Two fixed report sets are serialized as `plcq analyze` writes them and
hashed:
- a generated set in dims 1-2, with and without a domain, in linf and l1,
  at its boundary basepoints and at the same points shifted by +1 and by
  -1/2 where f is defined;
- a small generated set in dim 3, with and without a domain, at its
  boundary basepoints, and one 4x4 max-of-min tree in R^2 at a kink where
  two atoms of one branch are tight, both in linf and l1.

A third digest covers the other two commands on one written-out and six
generated instances: the `plcq endset --out` JSON and stdout for every
`--set` in linf, l1 and l2, and the `plcq oracle-compare --out` JSON.

Every refactor that promises byte-identical reports must leave all digests
unchanged; a change that alters a report on purpose records the new digest
here and says why.
"""

import hashlib
import json
from fractions import Fraction

from plcq.cli import main, report_to_obj
from plcq.cq import analyze
from plcq.instances import Instance, dump_instance, generate_corpus
from plcq.plfunc import PLFunction, atom, vmax, vmin
from plcq.polyhedra import HPolyhedron, NormSpec

F = Fraction

GOLDEN_SHA256 = "9720b45e867dad29a5d3fc5351627781d5a02754a4593cffb2182d8d25a92766"
GOLDEN_SHA256_DIM3_TREE = "4eda4e2082faa392f6c88fcc850dd41f828779bb10b0e3e3460379c6c559adfb"
GOLDEN_SHA256_ENDSET_ORACLE = "dbc280e661b717727c0d39f008580b44fce61b88e109a974a94cf19f0d2aa514"


def _wide_tree() -> PLFunction:
    """max of four mins of four atoms in R^2; at the origin the first branch
    has two tight atoms and two positive ones, and every other branch a
    negative atom, so f(0) = 0 and the global DNF of {f <= 0} has 256
    conjunctions."""
    return PLFunction(vmax(
        vmin(atom([1, 2]), atom([-3, 1]), atom([1, -1], 1), atom([-2, -1], F(3, 2))),
        vmin(atom([2, 1], -1), atom([-1, 3], 2), atom([0, -2], F(1, 2)), atom([3, -1], F(5, 2))),
        vmin(atom([-1, -1], F(3, 2)), atom([1, 0], -2), atom([-2, 3], 1), atom([F(1, 2), 2], 3)),
        vmin(atom([0, 1], 2), atom([-1, 2], F(1, 2)), atom([3, 1], F(-3, 2)), atom([-1, -3], 1))))


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


def _dim3_and_tree_reports():
    cases = [(inst.f, p) for inst in (generate_corpus(3, 3, seed=71, max_atoms=4)
                                      + generate_corpus(2, 3, seed=72, extended=True,
                                                        max_atoms=4))
             for p in inst.basepoints]
    cases.append((_wide_tree(), (F(0), F(0))))
    for norm in ("linf", "l1"):
        for f, p in cases:
            yield report_to_obj(analyze(f, p, NormSpec(norm)))


def _endset_and_oracle_outputs(tmp_path, capsys):
    """min(max(x, y), max(-x, -y)) on x + y <= 1, at the origin (nonconvex
    germ: empty Frechet subdifferential) and at a domain boundary point (not
    Lipschitz), then generated instances."""
    cross = PLFunction(vmin(vmax(atom([1, 0]), atom([0, 1])), vmax(atom([-1, 0]), atom([0, -1]))),
                       domain=HPolyhedron(2, rows=[((F(1), F(1)), F(1))]))
    insts = ([Instance("cross", cross, [(F(0), F(0)), (F(1, 2), F(1, 2))])]
             + generate_corpus(2, 1, seed=81, max_atoms=4)
             + generate_corpus(2, 1, seed=82, extended=True, max_atoms=4)
             + generate_corpus(1, 2, seed=83, max_atoms=4)
             + generate_corpus(1, 2, seed=84, extended=True, max_atoms=4))
    for k, inst in enumerate(insts):
        path = tmp_path / ("inst%d.json" % k)
        dump_instance(inst, path)
        out = tmp_path / "out.json"
        for which in ("clarke", "frechet", "intersection"):
            for norm in ("linf", "l1", "l2"):
                assert main(["endset", str(path), "--set", which, "--norm", norm,
                             "--out", str(out)]) == 0
                yield {"endset": json.loads(out.read_text()), "stdout": capsys.readouterr().out}
        assert main(["oracle-compare", str(path), "--out", str(out)]) == 0
        yield {"oracle": json.loads(out.read_text()), "stdout": capsys.readouterr().out}


def _digest(reports) -> str:
    text = json.dumps(reports, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_analyze_reports_match_golden_digest():
    reports = list(_reports())
    assert len(reports) >= 150
    assert _digest(reports) == GOLDEN_SHA256


def test_dim3_and_wide_tree_reports_match_golden_digest():
    reports = list(_dim3_and_tree_reports())
    assert len(reports) == 16
    assert _digest(reports) == GOLDEN_SHA256_DIM3_TREE


def test_endset_and_oracle_outputs_match_golden_digest(tmp_path, capsys):
    outputs = list(_endset_and_oracle_outputs(tmp_path, capsys))
    assert len(outputs) == 70
    assert _digest(outputs) == GOLDEN_SHA256_ENDSET_ORACLE
