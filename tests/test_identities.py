import json
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from mocklab import (
    DomainError,
    NonConvergenceError,
    PrecisionContext,
    check_eta_theta,
    check_growth_omega,
    check_mf3,
    check_mf5,
    check_wronskian_suite,
    eta,
    group_relations,
    mixing_matrix,
    phase_matrix,
    run_suite,
    suite_report_to_json,
)
from mocklab import identities, mordell, qseries
from mocklab.cli import main, parse_number
from mocklab.identities import (_LAWS, _Law, _apply, _entry, _mat_mul, _mat_pow, _pair_laws,
                                 _q_basis, _series_side, _v_vector)
from mocklab.modpoint import power_from_alpha
from mocklab.qseries import MockThetaId, eval_mock


# ---------------------------------------------------------------------------
# Matrix algebra
# ---------------------------------------------------------------------------

def test_mixing_matrix_involution(ctx):
    with mp.workprec(ctx.prec_bits):
        M = mixing_matrix(ctx)
        M2 = _mat_mul(M, M)
        assert max(abs(x - (i == j))
                   for i, row in enumerate(M2) for j, x in enumerate(row)) < 10 * ctx.eps
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        assert abs(det + 1) < 10 * ctx.eps
        assert abs(M[0][0] + M[1][1]) < 10 * ctx.eps


def test_phase_matrix(ctx):
    with mp.workprec(ctx.prec_bits):
        D = phase_matrix(ctx)
        det = D[0][0] * D[1][1]
        assert abs(det + 1) < 10 * ctx.eps


def test_group_relations(ctx):
    entries = group_relations(ctx)
    names = {e.identity for e in entries}
    assert names == {"group_D20", "group_M2", "group_MD3"}
    for e in entries:
        assert e.abs_residual < mpf(10) ** -30
        assert e.passed


# the cyclic permutation C (a, b, c) = (b, c, a): a matrix of size 3
_CYCLIC = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
_ONE3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_matrices_of_size_three():
    assert _mat_pow(_CYCLIC, 0) == _ONE3
    assert _mat_pow(_CYCLIC, 3) == _ONE3
    assert _mat_pow(_CYCLIC, 2) == _mat_mul(_CYCLIC, _CYCLIC) == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert _mat_pow(_CYCLIC, 7) == _CYCLIC
    assert _apply(_CYCLIC, (5, 7, 11)) == (7, 11, 5)
    assert _mat_mul(_ONE3, _CYCLIC) == _mat_mul(_CYCLIC, _ONE3) == _CYCLIC


def test_series_side_of_a_row_of_size_three(ctx):
    # S + sqrt(pi/alpha) C T, with ||C|| = 1; family is not read
    m = ctx.mp
    alpha = m.mpc(1, "0.5")
    s, w_s = (alpha, 2 * alpha, m.mpf(3)), m.mpf(5)
    t_at = lambda x: (x, x**2, m.mpf(-1))
    w_t = m.mpf(7)
    law = _Law(None, 1, 1, lambda a, c: (s, w_s), lambda x, c: (t_at(x), w_t),
               lambda c: _CYCLIC)
    side, size, budget = _series_side(law, alpha, ctx)
    root = m.sqrt(m.pi / alpha)
    t0, t1, t2 = t_at(m.pi**2 / alpha)
    q1_terms = (root * t1, root * t2, root * t0)
    assert side == tuple(x + y for x, y in zip(s, q1_terms))
    assert size == max(abs(x) for x in s + q1_terms)
    assert budget == ctx.eps * (w_s + abs(root) * w_t)


# ---------------------------------------------------------------------------
# Identity checks at single points (cheap smoke; the acceptance suite covers
# the full grids)
# ---------------------------------------------------------------------------

def _by_name(entries):
    return {e.identity: e for e in entries}


def test_mf5_checks_at_two(ctx):
    with mp.workprec(ctx.prec_bits):
        entries = check_mf5(mpf(2), ctx)
        assert [e.identity for e in entries] == [
            "mf5_scalar_0", "mf5_scalar_1", "mf5_matrix", "l_vector_consistency"]
        for e in entries:
            assert e.abs_residual < mpf(10) ** -20
            assert e.abs_residual <= 10 * e.budget


def test_mf5_conjugate_pair_reflection(ctx):
    with mp.workprec(ctx.prec_bits):
        up = check_mf5(mpc(1, "0.3"), ctx)
        dn = check_mf5(mpc(1, "-0.3"), ctx)
        assert [e.identity for e in up] == [e.identity for e in dn]
        for a, b in zip(up, dn):
            # Schwarz reflection: conjugate points give equal residual moduli
            assert abs(a.abs_residual - b.abs_residual) < mpf(10) ** -30


def test_mf5_matrix_s_symmetry(ctx):
    # the residual stays at the same noise magnitude at the S-image point
    with mp.workprec(ctx.prec_bits):
        a = mpf(2)
        r1 = _by_name(check_mf5(a, ctx))["mf5_matrix"].abs_residual
        r2 = _by_name(check_mf5(mp.pi**2 / a, ctx))["mf5_matrix"].abs_residual
        bound = mpf(10) ** -20
        assert r1 < bound and r2 < bound
        assert abs(r1 - r2) < bound


@pytest.mark.parametrize("modulus, arg", [("0.8", "-1.9"), ("1.5", "2.2")])
def test_mf5_matrix_law_past_the_natural_boundary(ctx, modulus, arg):
    # for pi/2 < |arg alpha| < pi both |Q| and |Q1| exceed 1: no mock series
    # converges there, and K continues as (3/2) X(1/B)
    m = ctx.mp
    alpha = m.mpf(modulus) * m.exp(1j * m.mpf(arg))
    for base in ("Q", "Q1"):
        assert abs(power_from_alpha(alpha, base, 1, ctx)) > 1
    lv, _ = mordell.l_vector(alpha, ctx)
    side = _series_side(_LAWS["mf5"], alpha, ctx)[0]
    assert max(abs(v - w) for v, w in zip(lv, side)) < m.mpf(10) ** -30


def _scalar_series_sides(alpha, ctx):
    """Test-local oracle, the hand-expanded scalar laws lhs_j = rhs_j -
    c_int L_j with L_j = L(1/5 resp. 2/5, 5 alpha): their series sides
    lhs_j - rhs_j, and the largest of their terms."""
    m = ctx.mp
    chi0, chi1 = MockThetaId(5, "chi0"), MockThetaId(5, "chi1")
    q = m.exp(-alpha)
    q14 = power_from_alpha(alpha, "q1", 4, ctx)
    c_minus = m.sqrt(m.pi * (5 - m.sqrt(5)) / (5 * alpha))
    c_plus = m.sqrt(m.pi * (5 + m.sqrt(5)) / (5 * alpha))
    p_m130 = power_from_alpha(alpha, "q1", Fraction(-1, 30), ctx)
    p_7130 = power_from_alpha(alpha, "q1", Fraction(71, 30), ctx)
    a = p_m130 * (eval_mock(chi0, q14, ctx) - 2)
    b = p_7130 * eval_mock(chi1, q14, ctx)
    lhs0 = power_from_alpha(alpha, "q", Fraction(-1, 120), ctx) * (eval_mock(chi0, q, ctx) - 2)
    lhs1 = power_from_alpha(alpha, "q", Fraction(71, 120), ctx) * eval_mock(chi1, q, ctx)
    terms = (lhs0, -c_minus * a, -c_plus * b, lhs1, -c_plus * a, c_minus * b)
    sides = (terms[0] - terms[1] - terms[2], terms[3] - terms[4] - terms[5])
    return sides, max(abs(t) for t in terms)


@pytest.mark.parametrize("alpha", ["2", "1+0.5i", "0.004"])
def test_scalar_laws_are_the_matrix_law_at_half_alpha(ctx, alpha):
    # check_mf5 reads the scalar laws at alpha from the matrix law at
    # alpha/2, where Q = q and Q1 = q1^4, so the mf5 row's series side at
    # alpha/2, c_int L_j, is minus their series sides; at 0.004 the terms
    # are about e^82
    m = ctx.mp
    alpha = parse_number(alpha, m)
    side = _series_side(_LAWS["mf5"], alpha / 2, ctx)[0]
    oracle, size = _scalar_series_sides(alpha, ctx)
    for v, w in zip(side, oracle):
        assert abs(v + w) <= m.mpf(10) ** -70 * size


@pytest.mark.parametrize("modulus, arg", [("0.8", "-1.9"), ("1.5", "2.2")],
                         ids=["0.8e^{-1.9i}", "1.5e^{2.2i}"])
def test_check_mf5_past_the_natural_boundary(ctx, modulus, arg):
    # |q| > 1 at alpha and at alpha/2: every law continues through the mf5 row
    m = ctx.mp
    alpha = m.mpf(modulus) * m.exp(1j * m.mpf(arg))
    assert abs(m.exp(-alpha)) > 1
    entries = check_mf5(alpha, ctx)
    assert [e.identity for e in entries] == [
        "mf5_scalar_0", "mf5_scalar_1", "mf5_matrix", "l_vector_consistency"]
    for e in entries:
        assert e.passed
        assert e.abs_residual < m.mpf(10) ** -30


def test_mf5_check_deterministic(ctx):
    with mp.workprec(ctx.prec_bits):
        r1 = check_mf5(mpf(2), ctx)
        r2 = check_mf5(mpf(2), ctx)
        # bit-identical rerun
        assert [e.abs_residual for e in r1] == [e.abs_residual for e in r2]
        assert [e.budget for e in r1] == [e.budget for e in r2]


def test_l_vector_check(ctx):
    with mp.workprec(ctx.prec_bits):
        entries = [e for e in check_mf5(mp.pi, ctx)
                   if e.identity.startswith("l_vector")]
        names = [e.identity for e in entries]
        assert names == ["l_vector_consistency", "l_vector_fixed_point"]
        for e in entries:
            assert e.abs_residual < mpf(10) ** -20


@pytest.mark.parametrize("offset", ["1e-7", "1e-12"])
def test_no_fixed_point_entry_off_the_fixed_point(ctx, offset):
    # (1 - M) v vanishes only where alpha maps to itself: at pi + 1e-7 it is
    # about 1e-8, far above the quadrature budget of the fixed-point law
    m = ctx.mp
    entries = check_mf5(m.pi + m.mpf(offset), ctx)
    assert [e.identity for e in entries] == [
        "mf5_scalar_0", "mf5_scalar_1", "mf5_matrix", "l_vector_consistency"]
    assert all(e.passed for e in entries)


# Integrand evaluations of check_mf5 at the mf5_complex point, measured at
# 624 with the vectors at alpha and alpha/2 sharing one quadrature, plus
# 10%; one quadrature per vector took 936, the pole-hugging panels that
# preceded the Bernstein-ellipse bounds 3354, and the two-degree ladder
# before 15552.
MF5_NODES_CEILING = 690


def test_mf5_quadrature_node_ceiling(ctx, monkeypatch):
    nodes = []
    real = mordell.integrate_ray

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        nodes.append(res.nodes_used)
        return res

    monkeypatch.setattr(mordell, "integrate_ray", counted)
    check_mf5(ctx.mp.mpc("2.337666", "0.95249"), ctx)
    assert len(nodes) == 2 and sum(nodes) <= MF5_NODES_CEILING


def test_one_quadrature_per_integral(ctx, monkeypatch):
    # check_mf5: the vectors at a and a/2 in one quadrature, and the vector
    # at pi^2/a (none at the fixed point a = pi); check_mf3: W3 at a and W2
    # at a/2.  Repeating a check repeats its work: nothing is cached.
    calls = []
    real = mordell.integrate_ray

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mordell, "integrate_ray", counted)
    with mp.workprec(ctx.prec_bits):
        check_mf5(mpf(2), ctx)
        assert len(calls) == 2
        check_mf5(mpf(2), ctx)
        assert len(calls) == 4
        check_mf3(mpf(1), ctx)
        assert len(calls) == 6
        check_mf5(ctx.mp.pi, ctx)
        assert len(calls) == 7


def test_each_series_once_per_check(ctx, monkeypatch):
    # check_mf5(2): chi0 and chi1 at q, q1^4, Q and Q1; check_mf3(1): omega
    # at -q, -q1 and q, f at Q1, rho at -q and -q1, xi at -q^{1/3} and
    # -q1^{1/3}
    calls = []
    real = qseries.eval_mock

    def counted(mid, q, c):
        calls.append(mid.name)
        return real(mid, q, c)

    for module in (qseries, identities):
        monkeypatch.setattr(module, "eval_mock", counted)
    check_mf5(mpf(2), ctx)
    assert sorted(calls) == ["chi0"] * 4 + ["chi1"] * 4
    calls.clear()
    check_mf3(mpf(1), ctx)
    assert sorted(calls) == ["f"] + ["omega"] * 3 + ["rho"] * 2 + ["xi"] * 2


def _order3_series_sides(alpha, ctx):
    """Test-local oracle, the order-3 laws written out: the series sides
    of mf3_omega, mf3_omega_f and mf3_alternative at alpha, and the largest
    of their terms."""
    m = ctx.mp
    om = MockThetaId(3, "omega")
    q, q1 = m.exp(-alpha), m.exp(-m.pi**2 / alpha)
    root = m.sqrt(m.pi / alpha)
    q23 = power_from_alpha(alpha, "q", Fraction(2, 3), ctx)
    t1 = q23 * eval_mock(om, -q, ctx)
    t2 = root * power_from_alpha(alpha, "q1", Fraction(2, 3), ctx) * eval_mock(om, -q1, ctx)
    t3 = q23 * eval_mock(om, q, ctx)
    t4 = (m.sqrt(m.pi / (4 * alpha)) * power_from_alpha(alpha, "q1", Fraction(-1, 12), ctx)
          * eval_mock(MockThetaId(3, "f"), power_from_alpha(alpha, "Q1", 1, ctx), ctx))

    def bracket(a):
        # q^{2/3} [-rho(-q) + (1/2) q^{-2/3} xi(-q^{1/3})] at q = exp(-a)
        return (m.exp(-2 * a / 3) * -eval_mock(MockThetaId(3, "rho"), -m.exp(-a), ctx)
                + eval_mock(MockThetaId(3, "xi"), -m.exp(-a / 3), ctx) / 2)

    t5, t6 = bracket(alpha), root * bracket(m.pi**2 / alpha)
    sides = {"mf3_omega": t1 + t2, "mf3_omega_f": t3 - t4, "mf3_alternative": t5 + t6}
    return sides, max(abs(t) for t in (t1, t2, t3, t4, t5, t6))


@pytest.mark.parametrize("alpha", ["1", "1+0.4i", "2+i"])
def test_order3_rows_match_the_written_laws(ctx, alpha):
    m = ctx.mp
    alpha = parse_number(alpha, m)
    oracle, size = _order3_series_sides(alpha, ctx)
    assert sorted(oracle) == sorted(n for n in _LAWS if n.startswith("mf3_"))
    for name, want in oracle.items():
        (side,), _, _ = _series_side(_LAWS[name], alpha, ctx)
        assert abs(side - want) <= m.mpf(10) ** -70 * size


def test_mf3_checks(ctx):
    with mp.workprec(ctx.prec_bits):
        entries = check_mf3(mpf(1), ctx)
        assert [e.identity for e in entries] == [
            "mf3_omega", "mf3_omega_f", "mf3_alternative"]
        for e in entries:
            assert e.abs_residual < mpf(10) ** -20
            assert e.abs_residual <= 10 * e.budget
        # identity-theorem extension off the real axis
        e = _by_name(check_mf3(mpc(1, "0.4"), ctx))["mf3_omega"]
        assert e.abs_residual < mpf(10) ** -20


def test_mf3_alternative_difference_identity(ctx):
    # subtracting the two order-3 decompositions of the same integral leaves
    # a modular-pair statement whose residual is the difference of residuals
    with mp.workprec(ctx.prec_bits):
        entries = _by_name(check_mf3(mpf(1), ctx))
        r1 = entries["mf3_omega"].abs_residual
        r2 = entries["mf3_alternative"].abs_residual
        assert abs(r1 - r2) < mpf(10) ** -20


def test_eta_theta_checks(ctx):
    with mp.workprec(ctx.prec_bits):
        for e in check_eta_theta(mpc("0.2", "1.1"), ctx):
            assert e.abs_residual < mpf(10) ** -25
        entries = {e.identity: e for e in check_eta_theta(mpc(1, 3), ctx)}
        assert entries["theta3_lower"].abs_residual == 0
        assert entries["theta_chain"].abs_residual < mpf(10) ** -25


def test_growth_check(ctx):
    with mp.workprec(ctx.prec_bits):
        moduli = (mpf(1), mpf("0.5"), mpf("0.2"), mpf("0.05"))
        grid = [m * mp.exp(1j * mp.pi / 6) for m in moduli]
        e = check_growth_omega(grid, ctx)[0]
        assert e.passed and e.abs_residual == 0
        outside = [m * mp.exp(1j * 5 * mp.pi / 12) for m in moduli]
        with pytest.raises(DomainError):
            check_growth_omega(outside, ctx)  # grid outside the pi/3 sector


# ---------------------------------------------------------------------------
# Wronskian machinery
# ---------------------------------------------------------------------------

def _wronskian_periodicity(h0, h1, tau, ctx):
    """The suite's laws v(tau+1) = D v(tau) and W(tau+1) = -W(tau) for the
    vector built from one pair of polynomial Q-series."""
    tau = ctx.mp.mpc(tau)
    bases = [_q_basis(t, max(len(h0), len(h1)), ctx) for t in (tau, tau + 1)]
    laws = _pair_laws(h0, h1, tau, bases, None, ctx, phase_matrix(ctx))
    return [_entry(name, tau, *law, ctx) for name, law in laws.items()]


def _g_function(h0, h1, tau, ctx):
    """G = W^3 / eta^12 for the vector built from one pair."""
    tau = ctx.mp.mpc(tau)
    _, w = _v_vector(h0, h1, _q_basis(tau, max(len(h0), len(h1)), ctx), ctx)
    return w**3 / eta(tau, ctx) ** 12


def test_wronskian_canonical_pair_closed_form(ctx):
    # H0 = 1, H1 = Q: W = 2 pi i (3/5) Q^{1/2}; W(tau+1) = -W(tau)
    with mp.workprec(ctx.prec_bits):
        tau = mpc("0.2", "1.1")
        entries = _wronskian_periodicity([1], [0, 1], tau, ctx)
        for e in entries:
            assert e.abs_residual < mpf(10) ** -40
        _, w = _v_vector([1], [0, 1], _q_basis(tau, 2, ctx), ctx)
        closed = 2 * mp.pi * 1j * mpf(3) / 5 * power_from_alpha(
            -mp.pi * 1j * tau, "Q", Fraction(1, 2), ctx)
        assert abs(w - closed) < mpf(10) ** -50


def test_wronskian_zero_input(ctx):
    with mp.workprec(ctx.prec_bits):
        v, w = _v_vector([0], [0], _q_basis(mpc(0, 1), 1, ctx), ctx)
        assert v[0] == 0 and v[1] == 0 and w == 0
        assert _g_function([0], [0], mpc(0, 1), ctx) == 0


def test_wronskian_random_pairs(ctx):
    entries = check_wronskian_suite(ctx)
    names = {e.identity for e in entries}
    assert names == {"wronskian_v_T", "wronskian_w_T", "g_T_invariance"}
    for e in entries:
        assert e.passed
        assert e.abs_residual < mpf(10) ** -20


def _v_vector_mp(h0, h1, tau, ctx):
    """v and W summed term by term in the context: the mpmath sum the
    fixed-point `_v_vector` replaced, kept as its reference."""
    mp = ctx.mp
    alpha = -mp.pi * 1j * mp.mpc(tau)
    vals, ders = [], []
    for coeffs, shift in zip((h0, h1), (Fraction(-1, 20), Fraction(-9, 20))):
        v = dv = mp.mpc(0)
        for m, c in enumerate(coeffs):
            s, c = m + shift, Fraction(c)
            term = (mp.mpf(c.numerator) / c.denominator) * power_from_alpha(alpha, "Q", s, ctx)
            v += term
            dv += 2 * mp.pi * 1j * (mp.mpf(s.numerator) / s.denominator) * term
        vals.append(v)
        ders.append(dv)
    return vals, vals[0] * ders[1] - ders[0] * vals[1]


def test_fixed_point_wronskian_matches_the_mpmath_sum():
    """At 400 bits, v and W of the pair (1, Q) and of the suite's first five
    seeded pairs, at the suite's tau and tau + 1, agree with the mpmath sum
    to within the rounding slop the suite budgets."""
    ctx = PrecisionContext(400, eps="1e-100")
    rng = random.Random(identities.WRONSKIAN_SEED)
    pairs = [([1], [0, 1])] + [
        tuple([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(9)]
              for _ in range(2))
        for _ in range(5)]
    tau = ctx.mp.mpc("0.2", "1.1")
    for t in (tau, tau + 1):
        basis = _q_basis(t, 9, ctx)
        for h0, h1 in pairs:
            (v0, v1), w = _v_vector(h0, h1, basis, ctx)
            (r0, r1), rw = _v_vector_mp(h0, h1, t, ctx)
            for got, ref in ((v0, r0), (v1, r1), (w, rw)):
                assert abs(got - ref) <= identities._round_slop(ctx, max(abs(ref), 1))


def test_check_entry_replace(ctx):
    e = check_wronskian_suite(ctx)[0]
    f = e._replace(detail=None, passed=False)
    assert type(f) is type(e) and f.detail is None and not f.passed
    assert f._replace(detail=e.detail, passed=e.passed) == e


def test_g_cusp_decay(ctx):
    # H1 = O(Q) input: |G| decays up the imaginary axis
    with mp.workprec(ctx.prec_bits):
        h0, h1 = [1, 2, 1], [0, 3, 1]
        g4 = abs(_g_function(h0, h1, mpc(0, 4), ctx))
        g8 = abs(_g_function(h0, h1, mpc(0, 8), ctx))
        assert g8 < g4 / 100


# ---------------------------------------------------------------------------
# Suites and serialization
# ---------------------------------------------------------------------------

def test_run_suite_algebra(ctx):
    rep = run_suite("algebra", None, ctx)
    assert rep.all_pass
    assert [r.identity_name for r in rep.identities] == [
        "group_D20", "group_M2", "group_MD3"]
    doc = json.loads(suite_report_to_json(rep, ctx))
    assert doc["all_pass"] is True
    assert doc["suite"] == "algebra"
    assert doc["identities"][0]["entries"][0]["point"] is None
    assert set(doc["identities"][0]["entries"][0]) == {
        "point", "abs_residual", "rel_residual", "budget", "pass"}


def test_run_suite_unknown(ctx):
    with pytest.raises(DomainError):
        run_suite("nope", None, ctx)


def test_run_suite_theta_eta_budget_invariant(ctx):
    rep = run_suite("theta_eta", None, ctx)
    assert rep.all_pass
    for r in rep.identities:
        for e in r.entries:
            assert e.abs_residual <= 10 * e.budget


def test_run_suite_custom_grid(ctx):
    with mp.workprec(ctx.prec_bits):
        rep = run_suite("mf3", [mpf(1)], ctx)
    names = {r.identity_name for r in rep.identities}
    assert {"mf3_omega", "mf3_omega_f", "mf3_alternative", "mf3_growth"} <= names
    for r in rep.identities:
        if r.identity_name.startswith("mf3_") and r.identity_name != "mf3_growth":
            assert len(r.entries) == 1
    assert rep.all_pass


def test_suites_pass_at_512_bits():
    """The precision gate: at 512 bits and eps 1e-140 every entry of mf5 at
    alpha = 1+0.5i, theta_eta at tau = 0.3+0.8i, mf3, wronskian and algebra
    passes, with residuals below 1e-130.  A quadrature that kept the fixed
    point of eps 1e-40, 2^-201, would refuse the mf5 point: its error bound
    cannot fall below that unit."""
    c = PrecisionContext(prec_bits=512, eps="1e-140")
    reports = [run_suite("mf5", [c.mp.mpc(1, "0.5")], c),
               run_suite("theta_eta", [c.mp.mpc("0.3", "0.8")], c)]
    reports += [run_suite(suite, None, c) for suite in ("mf3", "wronskian", "algebra")]
    for rep in reports:
        for r in rep.identities:
            for e in r.entries:
                assert e.passed and e.abs_residual < c.mp.mpf("1e-130"), (
                    rep.suite, r.identity_name, e.abs_residual)


def test_run_suite_records_check_error(ctx, monkeypatch, tmp_path, capsys):
    # a failing integral turns the whole point into one error entry
    def diverge(*args, **kwargs):
        raise NonConvergenceError("panel diverged")

    monkeypatch.setattr(mordell, "integrate_ray", diverge)
    with mp.workprec(ctx.prec_bits):
        rep = run_suite("mf5", [mpf(2)], ctx)
    assert [r.identity_name for r in rep.identities] == ["check_mf5_error"]
    (entry,) = rep.identities[0].entries
    assert entry.detail == {"error": "NonConvergenceError: panel diverged"}
    assert entry.point == 2
    assert not entry.passed
    assert not rep.all_pass
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"re": 2.0, "im": 0.0, "as": "alpha"}]))
    assert main(["verify", "--suite", "mf5", "--grid", str(grid)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is False
    assert [r["identity"] for r in doc["identities"]] == ["check_mf5_error"]
    (entry,) = doc["identities"][0]["entries"]
    # the report says where the check failed and why
    assert mpf(entry["point"]["re"]) == 2 and mpf(entry["point"]["im"]) == 0
    assert entry["error"] == "NonConvergenceError: panel diverged"
