"""Acceptance gate.

Every criterion runs at the reference configuration (256 bits, series target
1e-40, quadrature target 1e-30) and at its stated tolerance; each test prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import mocklab as ml
from mocklab import MockThetaId, eval_mock, series_expand

TOL = {
    1: mpf(10) ** -20,
    2: mpf(10) ** -20,
    3: mpf(10) ** -20,
    4: mpf(10) ** -15,
    5: mpf(10) ** -8,
    6: mpf(10) ** -20,
    7: mpf(10) ** -15,
    8: mpf(10) ** -25,
    9: mpf(10) ** -30,
    10: mpf(10) ** -20,
    12: mpf(10) ** -35,
}


@pytest.fixture(scope="module")
def ref():
    return ml.reference_context()


@pytest.fixture(scope="module")
def suite_all(ref):
    return ml.run_suite("all", None, ref)


def _ident(rep, name):
    for r in rep.identities:
        if r.identity_name == name:
            return r
    raise AssertionError("identity %r missing from report" % name)


def _entry_at(rep, name, point):
    r = _ident(rep, name)
    for e in r.entries:
        if e.point is not None and abs(e.point - point) < mpf("1e-10"):
            return e
    raise AssertionError("no %s entry at %s" % (name, point))


def _line(num, label, value, tol, ok):
    print("ACCEPTANCE %02d %-28s max_residual=%s tolerance=%s %s"
          % (num, label, mp.nstr(mpf(value), 6), mp.nstr(mpf(tol), 3),
             "PASS" if ok else "FAIL"))


def test_criterion_01_mf5_matrix_law(ref, suite_all):
    rep = _ident(suite_all, "mf5_matrix")
    assert len(rep.entries) == 6
    # honest runtime measurement: the mf5 suite on its own, nothing cached
    t0 = time.time()
    worst = _ident(ml.run_suite("mf5", None, ref), "mf5_matrix").max_abs
    runtime = time.time() - t0
    ok = worst < TOL[1] and runtime < 300
    _line(1, "mf5 matrix law", worst, TOL[1], ok)
    print("              runtime %.1fs (< 300s required)" % runtime)
    assert worst < TOL[1]
    assert runtime < 300
    assert rep.max_abs < TOL[1]


def test_criterion_02_mf5_scalar_laws(suite_all):
    worst = max(_ident(suite_all, "mf5_scalar_0").max_abs,
                _ident(suite_all, "mf5_scalar_1").max_abs)
    ok = worst < TOL[2]
    _line(2, "mf5 scalar laws", worst, TOL[2], ok)
    assert ok
    assert len(_ident(suite_all, "mf5_scalar_0").entries) == 6


def test_criterion_03_l_vector_consistency(suite_all):
    cons = _ident(suite_all, "l_vector_consistency").max_abs
    fixed = _ident(suite_all, "l_vector_fixed_point").max_abs
    worst = max(cons, fixed)
    ok = worst < TOL[3]
    _line(3, "integral-vector consistency", worst, TOL[3], ok)
    assert ok


def test_criterion_04_pv_identity(ref):
    with mp.workprec(ref.prec_bits):
        worst = mpf(0)
        for a in ("0", "0.3", "0.7"):
            for p in ("1", "1.5"):
                for t in ("0.3", "0.8", "2"):
                    d = abs(ml.pv_quadrature(mpf(a), mpf(p), mpf(t), ref)
                            - ml.pv_sum(mpf(a), mpf(p), mpf(t), ref))
                    worst = max(worst, d)
    ok = worst < TOL[4]
    _line(4, "principal-value identity", worst, TOL[4], ok)
    assert ok


def test_criterion_05_stokes_decomposition(suite_all):
    rep = _ident(suite_all, "mf5_stokes")
    assert len(rep.entries) == 2
    signs = set()
    worst = mpf(0)
    for e in rep.entries:
        d = e.detail
        signs.add(d["matched_sign"])
        re_res = [mpf(s) for s in d["re_residuals"]]
        im_res = [mpf(s) for s in d["im_residuals"]]
        assert len(re_res) == 4  # eps_seq = (0.2, 0.1, 0.05, 0.025)
        assert all(b < a for a, b in zip(re_res, re_res[1:]))
        assert all(b < a for a, b in zip(im_res, im_res[1:]))
        worst = max(worst, mpf(d["extrap_residual_real"]),
                    mpf(d["extrap_residual_imag"]))
    ok = worst < TOL[5] and len(signs) == 1
    _line(5, "Stokes decomposition", worst, TOL[5], ok)
    print("              matched lateral sign: %s (same at both moduli)"
          % sorted(signs))
    assert worst < TOL[5]
    assert len(signs) == 1


def test_criterion_06_mf3_laws(suite_all):
    rep_o = _ident(suite_all, "mf3_omega")
    rep_f = _ident(suite_all, "mf3_omega_f")
    assert len(rep_o.entries) == 4 and len(rep_f.entries) == 4
    worst = max(rep_o.max_abs, rep_f.max_abs)
    ok = worst < TOL[6]
    _line(6, "mf3 transformation laws", worst, TOL[6], ok)
    assert ok


def test_criterion_07_mf3_alternative(ref, suite_all):
    with mp.workprec(ref.prec_bits):
        worst = max(_entry_at(suite_all, "mf3_alternative", mp.pi).abs_residual,
                    _entry_at(suite_all, "mf3_alternative", mpf(1)).abs_residual)
    ok = worst < TOL[7]
    _line(7, "mf3 alternative identity", worst, TOL[7], ok)
    assert ok


def test_criterion_08_eta_theta_laws(suite_all):
    worst = mpf(0)
    for name in ("eta_T", "eta_S", "theta3_T", "theta3_S", "theta_chain",
                 "theta3_lower"):
        rep = _ident(suite_all, name)
        assert len(rep.entries) == 4
        worst = max(worst, rep.max_abs)
    ok = worst < TOL[8]
    _line(8, "eta/theta laws and chain", worst, TOL[8], ok)
    assert ok


def test_criterion_09_group_relations(suite_all):
    worst = max(_ident(suite_all, n).max_abs
                for n in ("group_D20", "group_M2", "group_MD3"))
    ok = worst < TOL[9]
    _line(9, "group relations", worst, TOL[9], ok)
    assert ok


def test_criterion_10_wronskian(suite_all):
    rep_w = _ident(suite_all, "wronskian_w_T")
    rep_g = _ident(suite_all, "g_T_invariance")
    assert rep_w.entries[0].detail["pairs"] == 51  # canonical + 50 random
    assert rep_w.entries[0].detail["degree"] == 8
    worst = max(rep_w.max_abs, rep_g.max_abs)
    ok = worst < TOL[10]
    _line(10, "Wronskian T-step and G", worst, TOL[10], ok)
    assert ok


def test_criterion_11_growth_bound(suite_all):
    rep = _ident(suite_all, "mf3_growth")
    assert len(rep.entries) == 3  # rays 0, pi/6, pi/3
    worst_ratio = max(mpf(e.detail["ratio"]) for e in rep.entries)
    ok = all(e.passed for e in rep.entries)
    _line(11, "omega growth statistic", worst_ratio, mpf(2), ok)
    assert ok


def test_criterion_12_oracle_equivalence(ref):
    with mp.workprec(ref.prec_bits):
        worst = mpf(0)
        for name in ("chi0", "chi1", "omega", "f", "rho", "xi"):
            mid = MockThetaId.from_name(name)
            num = eval_mock(mid, mpf("0.1"), ref)
            poly = series_expand(mid, 40).eval(mpf("0.1"), ref)
            worst = max(worst, abs(num - poly))
    low = {
        "chi0": [1, 1],
        "chi1": [1, 2],
        "omega": [1, 2],
        "f": [1, 1, -2],
    }
    exact = True
    for name, want in low.items():
        got = series_expand(MockThetaId.from_name(name), len(want) - 1).coeffs
        exact = exact and list(got) == [Fraction(c) for c in want]
    ok = worst < TOL[12] and exact
    _line(12, "oracle equivalence", worst, TOL[12], ok)
    assert worst < TOL[12]
    assert exact


def test_criterion_13_determinism(ref, suite_all):
    js1 = ml.suite_report_to_json(suite_all, ref)
    rep2 = ml.run_suite("all", None, ref)
    js2 = ml.suite_report_to_json(rep2, ref)
    ok = js1 == js2
    _line(13, "byte-identical reports", 0 if ok else 1, 1, ok)
    assert js1.encode() == js2.encode()


def test_master_gate(suite_all):
    assert suite_all.all_pass
