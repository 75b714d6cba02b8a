from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from mocklab import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    frac_power,
    from_alpha,
    from_tau,
    power_from_alpha,
    s_transform,
)


def test_context_invariants():
    ctx = PrecisionContext(prec_bits=256, eps="1e-40")
    assert ctx.prec_bits == 256
    with pytest.raises(DomainError):
        PrecisionContext(prec_bits=32)
    with pytest.raises(PrecisionError):
        PrecisionContext(prec_bits=64, eps="1e-30")  # tighter than 2^-48
    with pytest.raises(DomainError):
        PrecisionContext(prec_bits=256, eps="1e-40", quad_eps="1e-50")


def test_s_fixed_point(ctx):
    p = from_tau(mpc(0, 1), ctx)
    with mp.workprec(ctx.prec_bits):
        assert abs(p.alpha - mp.pi) < ctx.eps
        assert abs(p.q - mp.exp(-mp.pi)) < ctx.eps
        assert abs(p.q - p.q1) < ctx.eps  # tau = i is the S-fixed point


def test_tau_2i(ctx):
    p = from_tau(mpc(0, 2), ctx)
    with mp.workprec(ctx.prec_bits):
        assert abs(p.alpha - 2 * mp.pi) < ctx.eps
        assert abs(p.q1 - mp.exp(-mp.pi / 2)) < ctx.eps


def test_consistency_two_precisions():
    tau = mpc("0.3", "0.7")
    lo = from_tau(tau, PrecisionContext(prec_bits=256, eps="1e-40"))
    hi = from_tau(tau, PrecisionContext(prec_bits=512, eps="1e-40"))
    with mp.workprec(512):
        for name in ("q", "Q", "q1", "Q1"):
            assert abs(getattr(lo, name) - getattr(hi, name)) < mpf(2) ** (-256 + 8)
        # self-consistency q * e^alpha = 1 and q1 * e^{pi^2/alpha} = 1
        assert abs(lo.q * mp.exp(lo.alpha) - 1) < lo.ctx.eps
        assert abs(lo.q1 * mp.exp(mp.pi**2 / lo.alpha) - 1) < lo.ctx.eps


def test_from_alpha(ctx):
    with mp.workprec(ctx.prec_bits):
        p = from_alpha(mp.pi, ctx)
        assert abs(p.tau - mpc(0, 1)) < ctx.eps
        p = from_alpha(mpf(1), ctx)
        assert abs(abs(p.q) - mp.exp(-1)) < ctx.eps
        # round trip through alpha
        p0 = from_alpha(mpc(1, "0.5"), ctx)
        p1 = from_alpha(p0.alpha, ctx)
        assert abs(p1.q - p0.q) < ctx.eps


def test_domain_errors(ctx):
    with pytest.raises(DomainError):
        from_tau(mpc(0, -1), ctx)
    with pytest.raises(DomainError):
        from_tau(mpc(1, 0), ctx)
    with pytest.raises(DomainError):
        from_alpha(mpc(-1, 0), ctx)
    with pytest.raises(PrecisionError):
        from_tau(mpc(0, mpf("1e-80")), ctx)  # |q| rounds to 1 at 256 bits


def test_s_transform_swaps(ctx):
    p = from_tau(mpc(0, 2), ctx)
    ps = s_transform(p)
    with mp.workprec(ctx.prec_bits):
        assert abs(ps.tau - mpc(0, "0.5")) < ctx.eps
        assert abs(ps.q - p.q1) < ctx.eps
        assert abs(ps.q1 - p.q) < ctx.eps


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(-2, 2, allow_nan=False),
    im=st.floats(0.05, 4, allow_nan=False),
)
def test_s_transform_involution(re, im):
    ctx = PrecisionContext(prec_bits=192, eps="1e-30")
    p = from_tau(mpc(re, im), ctx)
    pp = s_transform(s_transform(p))
    with mp.workprec(ctx.prec_bits):
        scale = 1 + abs(p.tau) ** 2
        assert abs(pp.tau - p.tau) < 10 * ctx.eps * scale
        assert abs(pp.q - p.q) < 10 * ctx.eps


def test_frac_power_basics(ctx):
    p = from_tau(mpc(0, 1), ctx)
    with mp.workprec(ctx.prec_bits):
        assert abs(frac_power(p, "q", 0) - 1) < ctx.eps
        lhs = frac_power(p, "q", Fraction(2, 3)) * frac_power(p, "q", Fraction(1, 3))
        assert abs(lhs - frac_power(p, "q", 1)) < ctx.eps
        p2 = from_tau(mpc(0, 2), ctx)
        want = mp.exp(4 * mp.pi / 120)
        assert abs(frac_power(p2, "Q", Fraction(-1, 120)) - want) < ctx.eps


def test_conjugation_symmetry(ctx):
    a = mpc(1, "0.4")
    p = from_alpha(a, ctx)
    pc = from_alpha(mp.conj(a), ctx)
    with mp.workprec(ctx.prec_bits):
        assert abs(pc.q - mp.conj(p.q)) < ctx.eps
        assert abs(pc.q1 - mp.conj(p.q1)) < ctx.eps


@settings(max_examples=25, deadline=None)
@given(
    r1=st.fractions(min_value=-3, max_value=3, max_denominator=360),
    r2=st.fractions(min_value=-3, max_value=3, max_denominator=360),
)
def test_frac_power_homomorphism(r1, r2):
    ctx = PrecisionContext(prec_bits=192, eps="1e-30")
    p = from_alpha(mpc(1, "0.3"), ctx)
    with mp.workprec(ctx.prec_bits):
        for base in ("q", "Q", "q1", "Q1"):
            lhs = frac_power(p, base, r1) * frac_power(p, base, r2)
            rhs = frac_power(p, base, r1 + r2)
            assert abs(lhs - rhs) < 50 * ctx.eps * max(1, abs(rhs))


def test_power_from_alpha_matches_point(ctx):
    a = mpc("0.8", "0.2")
    p = from_alpha(a, ctx)
    with mp.workprec(ctx.prec_bits):
        for base in ("q", "Q", "q1", "Q1"):
            direct = power_from_alpha(a, base, Fraction(5, 7), ctx)
            via_point = frac_power(p, base, Fraction(5, 7))
            assert abs(direct - via_point) < ctx.eps


def test_moduli_below_one(ctx):
    for a in (mpc("0.01", 5), mpc(3, -2), mpc("0.5", "0.5")):
        if a.real <= 0:
            continue
        p = from_alpha(a, ctx)
        assert abs(p.q) < 1 and abs(p.q1) < 1
        assert abs(p.Q) < 1 and abs(p.Q1) < 1
