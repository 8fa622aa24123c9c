"""Acceptance suite: the package's exit criteria, one printed line each.

Criteria 2-4 and 6 share one generated Lipschitz corpus (>= 200 instances,
dim <= 3, <= 12 atoms); criterion 5 uses >= 50 domain-restricted instances.
Everything asserted at zero tolerance except the float-oracle concordance,
which runs at 1e-5 as stated.
"""

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from plcq.cli import main as cli_main
from plcq.cq import (MODE_CLARKE, MODE_EXTENDED, MODE_FRECHET, Analysis,
                     FLAG_ANY_TAU, FLAG_CONVENTION, _ball_slice_vertices,
                     analyze, best_tau_directional,
                     best_tau_endset, check_clarke_bcq, check_frechet_bcq,
                     check_strong_bcq, endset_distance, error_bound_modulus,
                     verify_prop32, verify_theorems)
from plcq.endset import distance_to_end_set, end_set, ray_exit
from plcq.instances import generate_corpus
from plcq.linalg import INF, add, dot, scale, vec, zeros
from plcq.oracle import (SamplePlan, sample_clarke_dirderiv,
                         sample_clarke_tangent_membership,
                         sample_contingent_membership,
                         sample_frechet_subgradient_check)
from plcq.plfunc import PLFunction, atom, vmax, vmin
from plcq.polyhedra import HPolyhedron, NormSpec

from test_battery_reference import _dirwise_strong_holds

F = Fraction
GRID = F(1, 1024)


def _report(num: int, desc: str, ok: bool):
    from conftest import ACCEPTANCE_LINES
    line = "ACCEPTANCE %d %s - %s" % (num, "PASS" if ok else "FAIL", desc)
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, "acceptance criterion %d failed: %s" % (num, desc)


# ---------------------------------------------------------------------------
# shared Lipschitz corpus (criteria 2, 3, 4, 6)
# ---------------------------------------------------------------------------

@dataclass
class Record:
    name: str
    dim: int
    bcq: bool
    tau_d: object
    tau_e: object
    d_clarke: object
    eb: object
    sub_in_normal: bool
    regular: bool
    taus: list = field(default_factory=list)
    strong: dict = field(default_factory=dict)
    dirwise: dict = field(default_factory=dict)
    frechet_bcq: bool = False
    d_frechet: object = None
    tau_f: object = None
    strong_f: dict = field(default_factory=dict)
    dirwise_f: dict = field(default_factory=dict)
    prop41: bool = False
    prop42: bool = False


def _tau_grid(vals):
    taus = {F(1, 1024), F(1), F(1024)}
    for t in vals:
        if t is not INF and t is not None and t > 0:
            taus |= {t * (1 - GRID), t, t * (1 + GRID)}
    return sorted(taus)


@pytest.fixture(scope="module")
def lipschitz_corpus():
    t0 = time.perf_counter()
    instances = []
    instances += generate_corpus(80, 1, seed=101, max_atoms=12)
    instances += generate_corpus(85, 2, seed=202, max_atoms=8)
    instances += generate_corpus(35, 3, seed=303, max_atoms=6)
    assert len(instances) >= 200
    records = []
    for inst in instances:
        for p in inst.basepoints:
            an = Analysis(inst.f, p)
            assert an.lipschitz and an.on_boundary and an.phi_value == 0
            bcq, _, _ = check_clarke_bcq(an)
            tau_d, _ = best_tau_directional(an, MODE_CLARKE)
            tau_e, _ = best_tau_endset(an, MODE_CLARKE)
            rec = Record(name=inst.name, dim=inst.f.dim, bcq=bcq,
                         tau_d=tau_d, tau_e=tau_e,
                         d_clarke=endset_distance(an, MODE_CLARKE),
                         eb=error_bound_modulus(an),
                         sub_in_normal=an.clarke.subset_of(an.normal_clarke) is True,
                         regular=an.regular)
            W = _ball_slice_vertices(an, an.normal_clarke)
            G = an.clarke.generators().vertices
            rec.taus = _tau_grid([tau_d, tau_e, rec.eb])
            for tau in rec.taus:
                rec.strong[tau] = check_strong_bcq(an, tau, MODE_CLARKE)[0]
                rec.dirwise[tau] = _dirwise_strong_holds(W, G, tau, an.f.dim)
            rec.frechet_bcq, _, _ = check_frechet_bcq(an)
            rec.d_frechet = distance_to_end_set(an.frechet, an.norm.dual())
            rec.tau_f, _ = best_tau_endset(an, MODE_FRECHET)
            Wf = _ball_slice_vertices(an, an.normal_frechet)
            Gf = an.frechet.generators().vertices
            for tau in _tau_grid([rec.tau_f]):
                rec.strong_f[tau] = check_strong_bcq(an, tau, MODE_FRECHET)[0]
                rec.dirwise_f[tau] = _dirwise_strong_holds(Wf, Gf, tau, an.f.dim)
            battery = verify_theorems(an)
            rec.prop41 = battery["prop4.1"] in ("pass", "not-applicable")
            rec.prop42 = battery["prop4.2"] == "pass"
            assert all(v != "fail" for v in battery.values()), (inst.name, battery)
            records.append(rec)
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_remark_3_1():
    t0 = time.perf_counter()
    f = PLFunction(vmin(atom([-1]), atom([1])))  # phi(x) = -|x|
    an = Analysis(f, vec(0))
    normal_ok = an.normal_clarke.set_eq(HPolyhedron.single_point(zeros(1)))
    sub_ok = an.clarke.set_eq(
        HPolyhedron(1, rows=[(vec(1), F(1)), (vec(-1), F(1))]))
    rep = analyze(f, vec(0))
    elapsed = time.perf_counter() - t0
    _report(1, "Remark 3.1 reproduction (N_c = {0}, subdiff = [-1,1], "
               "not included; %.2fs)" % elapsed,
            normal_ok and sub_ok and rep.subdiff_in_normal is False and elapsed < 1.0)


def test_criterion_2_tau_routes_agree(lipschitz_corpus):
    records, elapsed = lipschitz_corpus
    ok = len(records) >= 200
    flips = 0
    for r in records:
        if r.bcq:
            ok = ok and (r.tau_d == r.tau_e)
        else:
            ok = ok and (r.tau_e is INF)
        tau = r.tau_e
        if tau is not INF and tau > 0:
            ok = ok and r.strong[tau] and not r.strong[tau * (1 - GRID)] \
                and r.strong[tau * (1 + GRID)]
            flips += 1
    ok = ok and flips > 0
    in_budget = elapsed < 300.0
    _report(2, "Theorem 3.1/Corollary 3.1: directional and end-set tau agree "
               "on %d basepoints, %d tightness flips (%s); corpus fixture "
               "%.0fs (%s the 300s budget)" %
               (len(records), flips, "checks hold" if ok else "CHECKS FAIL",
                elapsed, "within" if in_budget else "OVER"), ok and in_budget)


def test_criterion_3_direction_wise_iff(lipschitz_corpus):
    records, _ = lipschitz_corpus
    ok = all(r.strong[tau] == r.dirwise[tau] for r in records for tau in r.taus)
    n = sum(len(r.taus) for r in records)
    _report(3, "Theorem 3.3: set inclusion iff direction-wise inequality "
               "(%d tau checks, both directions)" % n, ok)


def test_criterion_4_error_bound_iff(lipschitz_corpus):
    records, _ = lipschitz_corpus
    ok = True
    sub_count = 0
    reg_count = 0
    for r in records:
        for tau in r.taus:
            rhs = r.bcq and r.eb is not INF and r.eb <= tau
            if rhs and not r.strong[tau]:
                ok = False
            if r.sub_in_normal and r.strong[tau] != rhs:
                ok = False
        sub_count += r.sub_in_normal
        reg_count += r.regular
    ok = ok and sub_count > 0 and reg_count > 0
    _report(4, "Theorem 3.4: strong BCQ iff BCQ + error bound on the "
               "subdifferential-in-normal sub-corpus (%d points, %d regular)" %
               (sub_count, reg_count), ok)


def test_criterion_5_extended_suite():
    instances = generate_corpus(50, 1, seed=404, extended=True, max_atoms=6)
    instances += generate_corpus(15, 2, seed=505, extended=True, max_atoms=5)
    ok = len(instances) >= 50
    checked = 0
    for inst in instances:
        for p in inst.basepoints:
            an = Analysis(inst.f, p)
            if not an.clarke.is_empty:
                for r in (F(1), F(1, 2)):
                    res = verify_prop32(an, r)
                    ok = ok and all(res.values())
            battery = verify_theorems(an)
            ok = ok and battery["thm3.5"] != "fail" and battery["thm3.6"] != "fail"
            checked += 1
    # the worked instance: f(x) = x on {x <= 0} at 0
    dom = HPolyhedron(1, rows=[(vec(1), F(0))])
    an = Analysis(PLFunction(atom([1]), domain=dom), vec(0))
    ok = ok and an.clarke.set_eq(HPolyhedron(1, rows=[(vec(-1), F(-1))]))
    ok = ok and an.singular.set_eq(HPolyhedron(1, rows=[(vec(-1), F(0))]))
    tau, flags = best_tau_endset(an, MODE_EXTENDED)
    ok = ok and tau == 0 and FLAG_ANY_TAU in flags
    ok = ok and check_strong_bcq(an, F(1, 1024), MODE_EXTENDED)[0]
    _report(5, "lsc suite: scaling identities and extended BCQ theorems on "
               "%d domain-restricted basepoints + worked instance" % checked, ok)


def test_criterion_6_frechet_suite(lipschitz_corpus):
    records, _ = lipschitz_corpus
    ok = True
    for r in records:
        ok = ok and r.prop41 and r.prop42
        for tau in sorted(r.strong_f):
            rhs = r.frechet_bcq and (r.d_frechet is INF or r.d_frechet >= 1 / tau)
            ok = ok and r.strong_f[tau] == rhs == r.dirwise_f[tau]
    absf = PLFunction(vmax(atom([1]), atom([-1])))
    an = Analysis(absf, vec(0))
    tau_abs, _ = best_tau_endset(an, MODE_FRECHET)
    ok = ok and tau_abs == 1
    neg = PLFunction(vmin(atom([1]), atom([2])))  # empty Frechet subdiff at 0
    an2 = Analysis(neg, vec(0))
    holds, _, flags = check_frechet_bcq(an2)
    ok = ok and an2.frechet.is_empty and FLAG_CONVENTION in flags and not holds
    _report(6, "Frechet suite: closedness self-test, Theorem 4.1 and "
               "Propositions 4.2/4.3 on %d basepoints; |x| gives tau=1; "
               "empty subdifferential convention flagged" % len(records), ok)


def test_criterion_7_end_set_laws():
    rng = random.Random(606)
    ok = True
    count = 0
    while count < 500:
        dim = rng.randint(1, 3)
        kind = rng.choice(["polytope", "cone", "mixed"])
        rows = []
        for _ in range(rng.randint(1, dim + 2)):
            a = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            if all(q == 0 for q in a):
                continue
            b = F(0) if kind == "cone" else F(rng.randint(-2, 3), rng.randint(1, 2))
            rows.append((a, b))
        if kind == "polytope":
            for i in range(dim):
                e = tuple(F(1 if j == i else 0) for j in range(dim))
                rows.append((e, F(rng.randint(1, 3))))
                rows.append((tuple(-q for q in e), F(rng.randint(1, 3))))
        if not rows:
            continue
        C = HPolyhedron(dim, rows)
        if C.is_empty:
            continue
        count += 1
        res = end_set(C, NormSpec("l1"))
        E = res.pieces
        origin = zeros(dim)
        ok = ok and not E.contains(origin)                      # Lemma 2.2(i)
        if C.canonical().is_cone():
            ok = ok and E.is_empty                              # Lemma 2.2(iv)
        for piece in E.pieces:                                  # Lemma 2.2(ii)
            for z in piece.generators().vertices:
                ok = ok and C.contains(z) and ray_exit(C, z) == 1
        v = C.generators()
        for _ in range(8):
            z = zeros(dim)
            lam = [F(rng.randint(0, 3)) for _ in v.vertices]
            tot = sum(lam)
            if tot == 0:
                continue
            for l, q in zip(lam, v.vertices):
                z = add(z, scale(q, l / tot))
            for ray in v.rays:
                z = add(z, scale(ray, F(rng.randint(0, 2), 2)))
            if z == origin:
                continue
            ok = ok and E.contains(z) == (C.contains(z) and ray_exit(C, z) == 1)
    _report(7, "end-set laws (Lemma 2.2 i/ii/iv) and ray-exit cross-checks on "
               "%d random polyhedra" % count, ok)


def test_criterion_8_oracle_concordance():
    rng = random.Random(707)
    plan = SamplePlan(seed=808, tolerance=1e-6)
    instances = generate_corpus(14, 1, seed=909, max_atoms=8)
    instances += generate_corpus(10, 2, seed=1010, max_atoms=6)
    agree = 0
    total = 0
    for inst in instances:
        for p in inst.basepoints[:1]:
            an = Analysis(inst.f, p)
            S = an.solution_set
            T = an.tangent_contingent
            Tc = an.tangent_clarke
            hyps = [row[0] for piece in S.pieces for row in piece.rows]
            dirs = []
            while len(dirs) < 14:
                h = tuple(F(rng.randint(-8, 8), rng.randint(1, 3))
                          for _ in range(inst.f.dim))
                if all(q == 0 for q in h):
                    continue
                margin = min((abs(dot(hh, h)) for hh in hyps), default=F(1))
                if 0 < margin < F(1, 2 ** 20):
                    continue  # degenerate direction per the rational margin
                dirs.append(h)
            for h in dirs[:6]:
                exact = float(an.clarke.support(h))
                approx = sample_clarke_dirderiv(inst.f, p, h, plan)
                agree += abs(exact - approx) <= 1e-5 * max(1.0, abs(exact))
                total += 1
            for h in dirs:
                agree += (T.contains(h) == sample_contingent_membership(S, p, h, plan))
                agree += (Tc.contains(h) == sample_clarke_tangent_membership(S, p, h, plan))
                total += 2
            for xs in an.frechet.generators().vertices[:3]:
                agree += sample_frechet_subgradient_check(inst.f, p, xs, plan)
                total += 1
            outside = tuple(q + 10 for q in an.clarke.generators().vertices[0])
            agree += not sample_frechet_subgradient_check(inst.f, p, outside, plan)
            total += 1
    rate = agree / total
    _report(8, "oracle concordance %d/%d = %.2f%% (threshold 99%%, tol 1e-5)"
            % (agree, total, 100 * rate), total >= 500 and rate >= 0.99)


def test_criterion_9_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = cli_main(["verify", "--generate", "8", "--dim", "2", "--seed", "13",
                    "--out", str(out1)])
    rc2 = cli_main(["verify", "--generate", "8", "--dim", "2", "--seed", "13",
                    "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _report(9, "cmd_verify byte-identical across two runs (fixed seed)",
            rc1 == 0 and rc2 == 0 and identical)
