from fractions import Fraction
from types import SimpleNamespace

import pytest

from plcq import cq, simplex
from plcq.cq import (MODE_CLARKE, MODE_EXTENDED, MODE_FRECHET, Analysis,
                     FLAG_ANY_TAU, FLAG_CONVENTION, NotApplicable, _ball_slice_vertices,
                     _vertex_threshold,
                     analyze,
                     best_tau_directional, best_tau_endset, check_clarke_bcq,
                     check_extended_bcq,
                     check_frechet_bcq, check_strong_bcq, check_subdiff_in_normal,
                     check_tangent_inclusion, endset_distance, error_bound_modulus,
                     strong_bcq_thresholds, verify_prop32, verify_theorems)
from plcq.instances import generate_corpus
from plcq.linalg import INF, vec, zeros
from plcq.plfunc import PLFunction, atom, vmax, vmin
from plcq.polyhedra import HPolyhedron, NormSpec
from plcq.subdiff import NotLipschitz

from test_battery_reference import _in_scaled_sum, _scaled_sum_threshold, _tau_grid

F = Fraction


def interval(lo, hi):
    return HPolyhedron(1, rows=[(vec(1), F(hi)), (vec(-1), F(-lo))])


def neg_abs_at_zero():
    return Analysis(PLFunction(vmin(atom([-1]), atom([1]))), vec(0))


def kink_at_zero():
    return Analysis(PLFunction(vmax(atom([-1]), atom([F(1, 2)]))), vec(0))


def abs_at_zero():
    return Analysis(PLFunction(vmax(atom([1]), atom([-1]))), vec(0))


def domain_instance():
    dom = HPolyhedron(1, rows=[(vec(1), F(0))])
    return Analysis(PLFunction(atom([1]), domain=dom), vec(0))


def test_clarke_bcq_examples():
    # -|x| at 0 is interior to S = R: the boundary precondition rejects it
    with pytest.raises(NotApplicable):
        check_clarke_bcq(neg_abs_at_zero())
    assert check_clarke_bcq(kink_at_zero())[0]
    assert check_clarke_bcq(abs_at_zero())[0]


def test_strong_bcq_examples():
    an = kink_at_zero()
    assert check_strong_bcq(an, 2, MODE_CLARKE) == (True, None)
    holds, w = check_strong_bcq(an, 1, MODE_CLARKE)
    assert not holds and w == vec(1)
    assert check_strong_bcq(domain_instance(), 1, MODE_EXTENDED) == (True, None)
    with pytest.raises(ValueError):
        check_strong_bcq(an, 0, MODE_CLARKE)


def _mode_sets(an, mode):
    point0 = HPolyhedron.single_point(zeros(an.f.dim))
    return {MODE_CLARKE: (an.normal_clarke, an.clarke, point0),
            MODE_EXTENDED: (an.normal_clarke, an.clarke, an.singular),
            MODE_FRECHET: (an.normal_frechet, an.frechet, point0)}[mode]


def _per_tau_strong_bcq(an, tau, mode):
    """check_strong_bcq as one scaling LP per vertex and tau: the route the
    threshold table replaces, kept here as the reference."""
    N, C, K = _mode_sets(an, mode)
    lhs = N.intersect(an.dual_ball).canonical()
    for v in lhs.generators().vertices:
        if not _in_scaled_sum(v, C, K, tau, include_zero=True):
            return False, v
    return True, None


def _differential_corpus():
    for inst in (generate_corpus(4, 1, seed=31, max_atoms=6)
                 + generate_corpus(3, 2, seed=32, max_atoms=5)
                 + generate_corpus(4, 1, seed=33, extended=True, max_atoms=5)
                 + generate_corpus(2, 2, seed=34, extended=True, max_atoms=4)):
        for p in inst.basepoints:
            yield Analysis(inst.f, p)
    yield kink_at_zero()
    yield abs_at_zero()
    yield domain_instance()


def test_thresholds_match_per_tau_lps():
    checked = {MODE_CLARKE: 0, MODE_EXTENDED: 0, MODE_FRECHET: 0}
    for an in _differential_corpus():
        for mode in checked:
            try:
                table = strong_bcq_thresholds(an, mode)
            except NotApplicable:
                with pytest.raises(NotApplicable):
                    check_strong_bcq(an, F(1), mode)
                continue
            _, C, K = _mode_sets(an, mode)
            for tau in _tau_grid([t for _, t in table]):
                assert check_strong_bcq(an, tau, mode) == _per_tau_strong_bcq(an, tau, mode)
                for v, t in table:
                    assert (t <= tau) == _in_scaled_sum(v, C, K, tau, include_zero=True)
            checked[mode] += 1
    assert all(n >= 3 for n in checked.values()), checked


def test_vertex_threshold_strictness():
    # t*(z) = inf{t > 0 : z in tC + K}: 0 lies in every [0,tau]C through
    # t = 0, even where no t > 0 reaches it
    point0 = HPolyhedron.single_point(zeros(1))
    ray1 = HPolyhedron(1, rows=[(vec(-1), F(-1))])  # [1, oo)
    assert _vertex_threshold(vec(0), ray1, point0) == 0
    assert _vertex_threshold(vec(F(1, 2)), ray1, point0) == 0  # t in [0, 1/2]
    assert _vertex_threshold(vec(-1), ray1, point0) is INF
    assert _vertex_threshold(vec(0), interval(0, 1), point0) == 0
    assert _vertex_threshold(vec(2), interval(0, 1), point0) == 2  # attained
    # a recession direction reached at t = 0 only has no threshold
    line = HPolyhedron(2, eqs=[(vec(0, 1), F(1))])
    assert _vertex_threshold(vec(1, 0), line, HPolyhedron.single_point(zeros(2))) is INF


def test_threshold_cases():
    point0 = HPolyhedron.single_point(zeros(1))
    # v in K: threshold 0, and the extended inclusion holds at every tau
    an = domain_instance()
    table = strong_bcq_thresholds(an, MODE_EXTENDED)
    assert table and all(an.singular.contains(v) and t == 0 for v, t in table)
    assert check_strong_bcq(an, F(1, 1024), MODE_EXTENDED) == (True, None)
    # empty C: only the points of K are reached
    empty = HPolyhedron(1, rows=[(vec(1), F(-1)), (vec(-1), F(-1))])
    assert empty.is_empty
    assert _scaled_sum_threshold(vec(0), empty, point0) == 0
    assert _scaled_sum_threshold(vec(1), empty, point0) is INF
    for tau in (F(1, 1024), F(1), F(1024)):
        assert not _in_scaled_sum(vec(1), empty, point0, tau)
    # feasible t-set {0}: z - k lies in rec(C) at t = 0 only, so INF
    line = HPolyhedron(2, eqs=[(vec(0, 1), F(1))])
    origin2 = HPolyhedron.single_point(zeros(2))
    assert _scaled_sum_threshold(vec(1, 0), line, origin2) is INF
    assert not _in_scaled_sum(vec(1, 0), line, origin2, F(1024))
    # empty feasible t-set: INF
    ray = HPolyhedron(1, rows=[(vec(-1), F(-1))])  # [1, oo)
    assert _scaled_sum_threshold(vec(-1), ray, point0) is INF
    # interval reaching down to 0 with positive t: threshold 0
    assert _scaled_sum_threshold(vec(1), ray, point0) == 0
    assert _in_scaled_sum(vec(1), ray, point0, F(1, 1024))
    # tau exactly at t* holds, just below it fails with the same witness
    an = kink_at_zero()
    assert (vec(1), F(2)) in strong_bcq_thresholds(an, MODE_CLARKE)
    for tau in (F(2), F(2) * (1 - F(1, 1024))):
        assert check_strong_bcq(an, tau, MODE_CLARKE) == \
            _per_tau_strong_bcq(an, tau, MODE_CLARKE)
    assert check_strong_bcq(an, F(2), MODE_CLARKE) == (True, None)
    assert check_strong_bcq(an, F(2) * (1 - F(1, 1024)), MODE_CLARKE) == (False, vec(1))
    with pytest.raises(ValueError):
        check_strong_bcq(an, 1, "nonsense")


def test_strong_bcq_monotone_in_tau():
    an = kink_at_zero()
    taus = [F(1, 2), F(3, 2), F(2), F(5, 2), F(7)]
    verdicts = [check_strong_bcq(an, t, MODE_CLARKE)[0] for t in taus]
    for lo, hi in zip(verdicts, verdicts[1:]):
        assert hi or not lo


def test_best_tau_directional_examples():
    assert best_tau_directional(kink_at_zero(), MODE_CLARKE)[0] == 2
    assert best_tau_directional(abs_at_zero(), MODE_CLARKE)[0] == 1
    aff = Analysis(PLFunction(vmax(atom([2]), atom([2]))), vec(0))
    assert best_tau_directional(aff, MODE_CLARKE)[0] == F(1, 2)


def test_best_tau_endset_examples():
    assert best_tau_endset(kink_at_zero(), MODE_CLARKE)[0] == 2
    tau, flags = best_tau_endset(domain_instance(), MODE_EXTENDED)
    assert tau == 0 and FLAG_ANY_TAU in flags
    assert best_tau_endset(abs_at_zero(), MODE_FRECHET)[0] == 1


def test_routes_agree_on_examples():
    for an in (kink_at_zero(), abs_at_zero()):
        assert best_tau_directional(an, MODE_CLARKE)[0] == best_tau_endset(an, MODE_CLARKE)[0]


def test_subdiff_in_normal_examples():
    assert check_subdiff_in_normal(neg_abs_at_zero()) is False
    assert check_subdiff_in_normal(abs_at_zero()) is True
    assert check_subdiff_in_normal(kink_at_zero()) is True


def test_tangent_inclusion_examples():
    assert check_tangent_inclusion(kink_at_zero()) is True
    assert check_tangent_inclusion(neg_abs_at_zero()) is True
    assert check_tangent_inclusion(abs_at_zero()) is True


def test_error_bound_modulus_examples():
    assert error_bound_modulus(kink_at_zero()) == 2
    assert error_bound_modulus(Analysis(PLFunction(vmax(atom([2]), atom([2]))), vec(0))) == F(1, 2)
    assert error_bound_modulus(abs_at_zero()) == 1


def test_directional_routes_computed_once(monkeypatch):
    calls = []
    cells = cq._refined_cells

    def counting(*args, **kwargs):
        calls.append(args)
        return cells(*args, **kwargs)

    monkeypatch.setattr(cq, "_refined_cells", counting)
    an = kink_at_zero()
    first = best_tau_directional(an, MODE_CLARKE), error_bound_modulus(an)
    n_cells = len(calls)
    assert n_cells == 2
    first[0][1].add("MUTATED")  # the flags handed out are a copy
    again = best_tau_directional(an, MODE_CLARKE), error_bound_modulus(an)
    assert len(calls) == n_cells
    assert again == ((2, set()), 2)
    fresh = kink_at_zero()
    assert again == (best_tau_directional(fresh, MODE_CLARKE), error_bound_modulus(fresh))
    # one N cap B_dual vertex list serves the threshold table and the routes
    assert an.clarke_ball_slice == tuple(_ball_slice_vertices(an, an.normal_clarke))
    assert tuple(v for v, _ in strong_bcq_thresholds(an, MODE_CLARKE)) == an.clarke_ball_slice


def test_tau_quantities_solve_no_lp(monkeypatch):
    ans = [Analysis(inst.f, p, NormSpec(norm))
           for inst in (generate_corpus(3, 1, seed=31, max_atoms=6)
                        + generate_corpus(2, 2, seed=32, max_atoms=5)
                        + generate_corpus(4, 1, seed=33, extended=True, max_atoms=5)
                        + generate_corpus(2, 2, seed=34, extended=True, max_atoms=4))
           for p in inst.basepoints for norm in ("linf", "l1")]

    def no_lp(*args, **kwargs):
        raise AssertionError("a tau quantity solved an LP")
    monkeypatch.setattr(simplex, "lp_solve", no_lp)
    seen = {MODE_CLARKE: 0, MODE_EXTENDED: 0, MODE_FRECHET: 0, "directional": 0,
            "modulus": 0}
    for an in ans:
        for mode in (MODE_CLARKE, MODE_EXTENDED, MODE_FRECHET):
            try:
                strong_bcq_thresholds(an, mode)
                seen[mode] += 1
            except NotApplicable:
                pass
        for mode in (MODE_CLARKE, MODE_FRECHET):
            try:
                best_tau_directional(an, mode)
                seen["directional"] += 1
            except NotApplicable:
                pass
        try:
            error_bound_modulus(an)
            seen["modulus"] += 1
        except NotApplicable:
            pass
    assert all(n >= 4 for n in seen.values()), seen
    assert not all(an.singular_is_zero for an in ans)


def test_directional_memo_keeps_guards_and_flags():
    # f = min(x, 2x) at 0: empty Frechet subdifferential, conventional flags
    an = Analysis(PLFunction(vmin(atom([1]), atom([2]))), vec(0))
    for _ in range(2):
        tau, flags = best_tau_directional(an, MODE_FRECHET)
        assert FLAG_CONVENTION in flags
        flags.clear()
        with pytest.raises(ValueError):
            best_tau_directional(an, MODE_EXTENDED)
    # the guards still run once the memos are filled
    an = kink_at_zero()
    best_tau_directional(an, MODE_CLARKE)
    error_bound_modulus(an)
    an.lipschitz = False  # overrides the cached property
    with pytest.raises(NotApplicable):
        best_tau_directional(an, MODE_CLARKE)
    with pytest.raises(NotApplicable):
        error_bound_modulus(an)
    with pytest.raises(NotApplicable):
        best_tau_directional(neg_abs_at_zero(), MODE_CLARKE)


def test_ball_slice_rejects_unbounded_ball():
    half_line = SimpleNamespace(dual_ball=HPolyhedron(1, rows=[(vec(1), F(1))]))
    with pytest.raises(RuntimeError, match="unbounded"):
        _ball_slice_vertices(half_line, HPolyhedron.full_space(1))


def test_verify_prop32_examples():
    res = verify_prop32(kink_at_zero(), F(1))  # Lipschitz: trivially passes
    assert all(res.values())
    an = domain_instance()  # @c = [1,oo), @c_inf = [0,oo)
    for r in (F(1), F(1, 2), F(3)):
        assert all(verify_prop32(an, r).values())
    with pytest.raises(ValueError):
        verify_prop32(an, 0)


def test_extended_bcq_and_values_on_domain_instance():
    an = domain_instance()
    assert an.clarke.set_eq(HPolyhedron(1, rows=[(vec(-1), F(-1))]))
    assert an.singular.set_eq(HPolyhedron(1, rows=[(vec(-1), F(0))]))
    assert check_extended_bcq(an)[0]


def test_frechet_bcq_examples():
    assert check_frechet_bcq(abs_at_zero())[0]
    aff = Analysis(PLFunction(vmax(atom([1]), atom([1]))), vec(0))
    assert check_frechet_bcq(aff)[0]


def test_frechet_bcq_convention_flag():
    # f = min(x, 2x) at 0: concave kink, empty Frechet subdifferential, but
    # N^(S, 0) = [0, oo): the conventional equality {0} = N^ fails
    an = Analysis(PLFunction(vmin(atom([1]), atom([2]))), vec(0))
    assert an.on_boundary and an.frechet.is_empty
    holds, _, flags = check_frechet_bcq(an)
    assert not holds and FLAG_CONVENTION in flags
    # two opposite quadrants: still a boundary point, empty Frechet
    # subdifferential, and N^(S, 0) = {0}: true under the convention
    f2 = PLFunction(vmin(vmax(atom([-1, 0]), atom([0, -1])),
                         vmax(atom([1, 0]), atom([0, 1]))))
    an2 = Analysis(f2, vec(0, 0))
    assert an2.on_boundary and an2.frechet.is_empty
    holds2, _, flags2 = check_frechet_bcq(an2)
    assert holds2 and FLAG_CONVENTION in flags2
    assert an2.normal_frechet.set_eq(HPolyhedron.single_point(zeros(2)))


def test_self_checks_raise():
    # each check guards a fact of the mathematics: with one cached object
    # corrupted it must raise, also where asserts would be stripped
    an = domain_instance()  # Clarke subdifferential [1, oo), singular cone [0, oo)
    an.__dict__["singular"] = HPolyhedron.single_point(zeros(1))
    with pytest.raises(RuntimeError, match="singular cone"):
        check_extended_bcq(an)
    with pytest.raises(RuntimeError, match="singular cone"):
        verify_prop32(an, 1)
    an = kink_at_zero()  # Frechet subdifferential [-1, 1/2], N^ = R
    an.__dict__["normal_frechet"] = HPolyhedron(1, rows=[(vec(-1), F(0))])
    with pytest.raises(RuntimeError, match="Frechet normals"):
        check_frechet_bcq(an)
    an = abs_at_zero()
    an.phi_value = F(1)
    with pytest.raises(RuntimeError, match="zero level"):
        verify_theorems(an)


def test_theorem_battery_passes_on_named_instances():
    for an in (kink_at_zero(), abs_at_zero(), neg_abs_at_zero(), domain_instance()):
        checks = verify_theorems(an)
        assert all(v in ("pass", "not-applicable") for v in checks.values()), checks


def test_analyze_report_fields():
    rep = analyze(PLFunction(vmax(atom([-1]), atom([F(1, 2)]))), vec(0))
    assert rep.clarke_bcq is True
    assert rep.clarke_strong_bcq_tau == 2
    assert rep.endset_distance_clarke == F(1, 2)
    assert rep.error_bound_modulus == 2
    assert rep.subdiff_in_normal is True
    assert rep.regular_at_point is True
    assert rep.theorem_checks["thm3.1"] == "pass"


def test_analyze_interior_point():
    rep = analyze(PLFunction(vmin(atom([-1]), atom([1]))), vec(0))
    assert rep.on_boundary is False
    assert rep.clarke_bcq is None
    assert rep.subdiff_in_normal is False
    assert rep.clarke_subdiff_rows == interval(-1, 1).canonical().rows


def test_report_tau_tightness_invariant():
    rep = analyze(PLFunction(vmax(atom([-1]), atom([F(1, 2)]))), vec(0))
    tau = rep.clarke_strong_bcq_tau
    an = kink_at_zero()
    assert check_strong_bcq(an, tau, MODE_CLARKE)[0]
    assert not check_strong_bcq(an, tau * (1 - F(1, 1024)), MODE_CLARKE)[0]


def test_negative_level_boundary_point():
    # domain-truncated constant: bd(S) point with phi < 0; the plain Clarke
    # mode accepts it, extended and Frechet modes are not applicable
    dom = HPolyhedron(1, rows=[(vec(1), F(0))])
    an = Analysis(PLFunction(atom([0], -1), domain=dom), vec(0))
    assert an.phi_value == -1 and an.on_boundary
    assert check_clarke_bcq(an)[0]
    assert check_strong_bcq(an, 1, MODE_CLARKE)[0]
    with pytest.raises(NotApplicable):
        check_extended_bcq(an)
    with pytest.raises(NotApplicable):
        check_strong_bcq(an, 1, MODE_EXTENDED)
    rep = analyze(PLFunction(atom([0], -1), domain=dom), vec(0))
    assert rep.extended_strong_bcq_tau is None
    assert all(v in ("pass", "not-applicable") for v in rep.theorem_checks.values())


def test_analyze_point_outside_solution_set():
    rep = analyze(PLFunction(atom([1], 1)), vec(5))
    assert rep.on_boundary is False and rep.clarke_bcq is None
    assert all(v in ("pass", "not-applicable") for v in rep.theorem_checks.values())


def test_l1_norm_battery():
    # the identities hold in any polyhedral norm; run one 2-d instance in l1
    from plcq.polyhedra import NormSpec
    f = PLFunction(vmax(atom([1, 1]), atom([-1, 2]), atom([0, -1])))
    from plcq.instances import boundary_basepoints
    pts = boundary_basepoints(f, limit=2)
    assert pts
    for p in pts:
        an = Analysis(f, p, NormSpec("l1"))
        checks = verify_theorems(an)
        assert all(v in ("pass", "not-applicable") for v in checks.values()), checks
        d1, _ = best_tau_directional(an, MODE_CLARKE)
        d2, _ = best_tau_endset(an, MODE_CLARKE)
        assert d1 == d2


def test_subdiff_in_normal_inside_solution_set():
    # f = x - 1 at 0: regular and inside S, where N_c(S, 0) = {0} does not
    # hold the subgradient 1; the inclusion is owed only on the zero level
    an = Analysis(PLFunction(atom([1], -1)), vec(0))
    assert an.regular and not an.on_boundary
    assert check_subdiff_in_normal(an) is False
    rep = analyze(PLFunction(atom([1], -1)), vec(0))
    assert rep.subdiff_in_normal is False
    assert rep.theorem_checks["prop3.1"] == "pass"


def test_frechet_bcq_below_zero_level():
    # a domain boundary point with phi = -15/4: Frechet subgradients need not
    # be Frechet normals of S there
    inst = generate_corpus(3, 2, seed=6, extended=True, max_atoms=4)[0]
    x = vec(F(-1, 2), F(-1, 2))
    assert x in inst.basepoints
    an = Analysis(inst.f, x)
    assert an.on_boundary and an.phi_value == F(-15, 4)
    assert an.frechet.subset_of(an.normal_frechet) is not True
    assert check_frechet_bcq(an)[0] is False
    rep = analyze(inst.f, x)
    assert rep.frechet_bcq is False


def _generated_and_shifted():
    for extended in (False, True):
        for inst in (generate_corpus(4, 1, seed=5, extended=extended, max_atoms=4)
                     + generate_corpus(3, 2, seed=6, extended=extended, max_atoms=4)
                     + generate_corpus(2, 3, seed=7, extended=extended, max_atoms=4)):
            for p in inst.basepoints:
                yield inst.f, p
                for d in (F(1), F(-1, 2)):
                    q = tuple(c + d for c in p)
                    if inst.f.in_domain(q):
                        yield inst.f, q


def test_analyze_raises_only_not_applicable():
    # every self-check's premise holds wherever it raises: on and off the
    # boundary, on and below the zero level, in both polyhedral norms
    calls = 0
    for f, x in _generated_and_shifted():
        for norm in (NormSpec("linf"), NormSpec("l1")):
            try:
                analyze(f, x, norm)
            except (NotApplicable, NotLipschitz):
                pass
            calls += 1
    assert calls >= 100
