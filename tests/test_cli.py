import json
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from plcq.cli import main
from plcq.instances import generate_corpus

F = Fraction

REMARK31 = {
    "version": 1, "name": "remark-3.1", "dim": 1,
    "expr": {"op": "min", "args": [
        {"op": "atom", "g": ["-1"], "c": "0"},
        {"op": "atom", "g": ["1"], "c": "0"}]},
    "basepoints": [["0"]],
    "norm": "linf",
}

KINK = {
    "version": 1, "name": "kink", "dim": 1,
    "expr": {"op": "max", "args": [
        {"op": "atom", "g": ["-1"], "c": "0"},
        {"op": "atom", "g": ["1/2"], "c": "0"}]},
    "basepoints": [["0"]],
    "norm": "linf",
}


PLANE = {
    "version": 1, "name": "plane", "dim": 2,
    "expr": {"op": "max", "args": [
        {"op": "atom", "g": ["1", "0"], "c": "0"},
        {"op": "atom", "g": ["0", "1"], "c": "0"}]},
    "basepoints": [["0", "0"]],
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_analyze_remark31(tmp_path, capsys):
    path = write(tmp_path, "r31.json", REMARK31)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["subdiff_in_normal"] is False
    assert rep["clarke_subdiff"] == [{"a": ["-1"], "b": "1"}, {"a": ["1"], "b": "1"}]


def test_analyze_kink_tau(tmp_path):
    path = write(tmp_path, "kink.json", KINK)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["clarke_strong_bcq_tau"] == "2"
    assert all(v in ("pass", "not-applicable") for v in rep["theorem_checks"].values())


def test_analyze_extra_basepoint(tmp_path):
    path = write(tmp_path, "kink.json", KINK)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--basepoint=-3/2", "--out", str(out)]) == 0
    reps = json.loads(out.read_text())["reports"]
    assert len(reps) == 2 and reps[1]["basepoint"] == ["-3/2"]


def test_endset_command(tmp_path, capsys):
    path = write(tmp_path, "kink.json", KINK)
    assert main(["endset", path, "--set", "clarke"]) == 0
    text = capsys.readouterr().out
    assert "distance = 1/2" in text
    # cone case: empty end set
    dom_inst = {
        "version": 1, "name": "domain", "dim": 1,
        "expr": {"op": "atom", "g": ["1"], "c": "0"},
        "domain": [{"a": ["1"], "b": "0", "type": "le"}],
        "basepoints": [["0"]],
    }
    path2 = write(tmp_path, "dom.json", dom_inst)
    assert main(["endset", path2, "--set", "frechet"]) == 0
    text = capsys.readouterr().out
    assert "empty end set, distance = +inf" in text


def test_verify_generate_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--generate", "4", "--dim", "1", "--seed", "3",
                 "--out", str(out1)]) == 0
    assert main(["verify", "--generate", "4", "--dim", "1", "--seed", "3",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert main(["verify", str(corpus)]) == 0
    assert "instances=0" in capsys.readouterr().out


def test_verify_missing_corpus_is_an_input_error(tmp_path, capsys):
    # a mistyped directory once verified zero instances and exited 0
    assert main(["verify", str(tmp_path / "no-such-dir")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: corpus ") and err.count("\n") == 1
    assert main(["verify", write(tmp_path, "kink.json", KINK)]) == 2


def test_verify_corpus_dir(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "kink.json").write_text(json.dumps(KINK))
    out = tmp_path / "rep.json"
    assert main(["verify", str(corpus), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["instances"] == 1
    assert doc["results"][0]["checks"]["thm3.1"] == "pass"


def test_oracle_compare(tmp_path):
    path = write(tmp_path, "kink.json", KINK)
    assert main(["oracle-compare", path, "--seed", "5"]) == 0


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_oracle_compare_rejects_a_bad_tolerance(tmp_path, capsys, tolerance):
    # --tolerance -1 once reported 30/57 agreement and exited 1, the code of a
    # failed identity
    path = write(tmp_path, "kink.json", KINK)
    assert main(["oracle-compare", path, "--tolerance", tolerance]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --tolerance") and err.count("\n") == 1


def test_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err  # parse errors carry a location
    missing = tmp_path / "nope.json"
    assert main(["analyze", str(missing)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"version": 1, "dim": 1,
                                "expr": {"op": "atom", "g": ["1"], "c": "0"},
                                "basepoints": []}))
    assert main(["analyze", str(bad2)]) == 2


def test_verify_failure_writes_minimized_counterexample(tmp_path, monkeypatch, capsys):
    # force one identity to fail to exercise the counterexample machinery
    import plcq.cli as cli_mod

    real = cli_mod.verify_theorems

    def rigged(an):
        checks = real(an)
        checks["thm3.1"] = "fail"
        return checks

    monkeypatch.setattr(cli_mod, "verify_theorems", rigged)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "kink.json").write_text(json.dumps(KINK))
    cex = tmp_path / "cex.json"
    rc = main(["verify", str(corpus), "--counterexample", str(cex)])
    assert rc == 1
    assert cex.exists()
    saved = json.loads(cex.read_text())
    assert saved["dim"] == 1 and saved["basepoints"] == [["0"]]
    assert "minimized counterexample" in capsys.readouterr().err


def test_analyze_rejects_l2_norm(tmp_path):
    path = write(tmp_path, "kink.json", KINK)
    assert main(["analyze", path, "--norm", "l2"]) == 2


def test_verify_rejects_l2_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "kink.json").write_text(json.dumps(dict(KINK, norm="l2")))
    assert main(["verify", str(corpus), "--out", str(tmp_path / "v.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: kink: CQ analysis needs a polyhedral norm")
    assert err.count("\n") == 1
    assert not (tmp_path / "v.json").exists()


def test_oracle_compare_rejects_l2_norm(tmp_path, capsys):
    path = write(tmp_path, "kink.json", KINK)
    assert main(["oracle-compare", path, "--norm", "l2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: kink: CQ analysis needs a polyhedral norm")
    assert err.count("\n") == 1


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in this thread if the block runs longer."""
    def expire(signum, frame):
        raise TimeoutError("still running after %d s" % seconds)
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("dim", [0, -1])
def test_generate_with_nonpositive_dim_is_an_input_error(dim, capsys):
    # R^0 has no nonzero gradient, which the atom generator once drew forever
    with _time_limit(10):
        with pytest.raises(ValueError, match="at least 1"):
            generate_corpus(2, dim, seed=1)
        assert main(["verify", "--generate", "2", "--dim", str(dim)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: corpus dimension must be at least 1, got %d\n" % dim


def test_endset_allows_l2_norm(tmp_path, capsys):
    path = write(tmp_path, "kink.json", KINK)
    assert main(["endset", path, "--set", "clarke", "--norm", "l2"]) == 0
    assert "distance = 0.5" in capsys.readouterr().out


def _analyze_exit(tmp_path, capsys, text):
    path = tmp_path / "inst.json"
    path.write_text(text)
    rc = main(["analyze", str(path), "--out", str(tmp_path / "rep.json")])
    return rc, capsys.readouterr().err


def test_domain_row_of_unknown_type_is_an_input_error(tmp_path, capsys):
    # a "ge" row was once read as "le", which analyzed a different instance
    doc = dict(KINK, domain=[{"a": ["1"], "b": "0", "type": "ge"}])
    rc, err = _analyze_exit(tmp_path, capsys, json.dumps(doc))
    assert rc == 2 and "'ge'" in err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("doc, message", [
    # each of these once parsed: a string vector one character per coordinate,
    # a float or bool dim truncated to an int
    (dict(PLANE, expr={"op": "atom", "g": "10", "c": "0"}),
     "atom gradient must be a JSON array, not str"),
    (dict(KINK, basepoints="12"), "basepoints must be a JSON array, not str"),
    (dict(PLANE, basepoints=["00"]), "basepoint must be a JSON array, not str"),
    (dict(PLANE, domain=[{"a": "10", "b": "0"}]), "'a' must be a JSON array, not str"),
    (dict(KINK, dim=1.9), "dim must be a JSON integer, not 1.9"),
    (dict(KINK, dim=True), "dim must be a JSON integer, not True"),
])
def test_vector_or_dim_of_the_wrong_json_type_is_an_input_error(tmp_path, capsys, doc, message):
    rc, err = _analyze_exit(tmp_path, capsys, json.dumps(doc))
    assert rc == 2 and err.startswith("input error: ") and message in err
    assert not (tmp_path / "rep.json").exists()


def test_non_object_document_is_an_input_error(tmp_path, capsys):
    rc, err = _analyze_exit(tmp_path, capsys, json.dumps([KINK]))
    assert rc == 2 and "JSON object" in err


def test_zero_denominator_is_an_input_error(tmp_path, capsys):
    doc = dict(KINK, expr={"op": "atom", "g": ["1/0"], "c": "0"})
    rc, err = _analyze_exit(tmp_path, capsys, json.dumps(doc))
    assert rc == 2 and "input error" in err


def test_empty_domain_is_an_input_error(tmp_path, capsys):
    # x <= -1 and -x <= -1 leave no point: f would be +inf everywhere
    doc = dict(KINK, domain=[{"a": ["1"], "b": "-1"}, {"a": ["-1"], "b": "-1"}],
               basepoints=[])
    rc, err = _analyze_exit(tmp_path, capsys, json.dumps(doc))
    assert rc == 2 and "empty domain" in err


def test_deeply_nested_tree_is_an_input_error(tmp_path, capsys):
    expr = '{"op": "atom", "g": ["1"], "c": "0"}'
    for _ in range(3000):
        expr = '{"op": "max", "args": [%s, {"op": "atom", "g": ["-1"], "c": "0"}]}' % expr
    text = '{"version": 1, "name": "deep", "dim": 1, "expr": %s, "basepoints": [["0"]]}' % expr
    rc, err = _analyze_exit(tmp_path, capsys, text)
    assert rc == 2 and "nested too deeply" in err


def test_endset_intersection_outside_solution_set_is_an_input_error(tmp_path, capsys):
    # max(-x, x/2) is 1/2 at x = 1, outside S: there is no normal cone there
    path = write(tmp_path, "kink.json", KINK)
    assert main(["endset", path, "--basepoint", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: basepoint 1 is outside the solution set")
    assert err.count("\n") == 1


def test_failed_self_check_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # -|x| at 0: @c f(0) = [-1, 1] is not inside N_c(S, 0) = {0}; a sublevel
    # cone that wrongly holds the tangent cone R breaks the duality self-check
    from plcq.cq import Analysis
    from plcq.polyhedra import HPolyhedron
    monkeypatch.setattr(Analysis, "sublevel_cone", property(lambda an: HPolyhedron(1)))
    path = write(tmp_path, "r31.json", REMARK31)
    assert main(["analyze", path, "--out", str(tmp_path / "rep.json")]) == 3
    assert capsys.readouterr().err == ("internal error: "
                                       "subdifferential/tangent-cone duality failed\n")
    assert not (tmp_path / "rep.json").exists()


def test_failed_self_check_while_generating_is_an_internal_error(capsys, monkeypatch):
    # a self-check that fails while drawing basepoints once only discarded
    # the draw; it must end the run like any other failed self-check
    import plcq.instances as instances_mod

    def broken(S, x):
        raise RuntimeError("relative-interior witness lies inside the union")

    monkeypatch.setattr(instances_mod, "is_boundary_point", broken)
    assert main(["verify", "--generate", "2", "--dim", "1", "--seed", "3"]) == 3
    assert capsys.readouterr().err == ("internal error: "
                                       "relative-interior witness lies inside the union\n")
