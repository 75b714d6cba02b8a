from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from mocklab import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    power_from_alpha,
    reference_context,
)


def _alpha(tau):
    return -mp.pi * 1j * tau


def test_context_invariants():
    ctx = PrecisionContext(prec_bits=256, eps="1e-40")
    assert ctx.prec_bits == 256
    assert ctx.quad_eps == ctx.eps * 10**10  # derived, not set
    assert reference_context() == PrecisionContext()
    with pytest.raises(TypeError):
        PrecisionContext(prec_bits=256, eps="1e-40", quad_eps="1e-30")
    with pytest.raises(DomainError):
        PrecisionContext(prec_bits=32)
    with pytest.raises(PrecisionError):
        PrecisionContext(prec_bits=64, eps="1e-30")  # tighter than 2^-48


@pytest.mark.parametrize("eps", ["inf", "nan", "0"],
                         ids=["inf-None", "nan-None", "0-None"])
def test_context_rejects_nonfinite_tolerances(eps):
    with pytest.raises(DomainError, match="finite"):
        PrecisionContext(prec_bits=256, eps=eps)


def test_s_fixed_point(ctx):
    with mp.workprec(ctx.prec_bits):
        alpha = _alpha(mpc(0, 1))
        q = power_from_alpha(alpha, "q", 1, ctx)
        q1 = power_from_alpha(alpha, "q1", 1, ctx)
        assert abs(q - mp.exp(-mp.pi)) < ctx.eps
        assert abs(q - q1) < ctx.eps  # tau = i is the S-fixed point


def test_tau_2i(ctx):
    with mp.workprec(ctx.prec_bits):
        alpha = _alpha(mpc(0, 2))
        assert abs(power_from_alpha(alpha, "q1", 1, ctx) - mp.exp(-mp.pi / 2)) < ctx.eps


def test_consistency_two_precisions():
    tau = mpc("0.3", "0.7")
    lo_ctx = PrecisionContext(prec_bits=256, eps="1e-40")
    hi_ctx = PrecisionContext(prec_bits=512, eps="1e-40")
    with mp.workprec(512):
        alpha = _alpha(tau)
        for name in ("q", "Q", "q1", "Q1"):
            lo = power_from_alpha(alpha, name, 1, lo_ctx)
            hi = power_from_alpha(alpha, name, 1, hi_ctx)
            assert abs(lo - hi) < mpf(2) ** (-256 + 8)
        # self-consistency q * e^alpha = 1 and q1 * e^{pi^2/alpha} = 1
        q = power_from_alpha(alpha, "q", 1, lo_ctx)
        q1 = power_from_alpha(alpha, "q1", 1, lo_ctx)
        assert abs(q * mp.exp(alpha) - 1) < lo_ctx.eps
        assert abs(q1 * mp.exp(mp.pi**2 / alpha) - 1) < lo_ctx.eps


def test_domain_errors(ctx):
    for base in ("x", "q2", "Q^2"):
        with pytest.raises(DomainError):
            power_from_alpha(mpc(1, 0), base, 1, ctx)


def test_frac_power_basics(ctx):
    with mp.workprec(ctx.prec_bits):
        alpha = _alpha(mpc(0, 1))
        assert abs(power_from_alpha(alpha, "q", 0, ctx) - 1) < ctx.eps
        lhs = (power_from_alpha(alpha, "q", Fraction(2, 3), ctx)
               * power_from_alpha(alpha, "q", Fraction(1, 3), ctx))
        assert abs(lhs - power_from_alpha(alpha, "q", 1, ctx)) < ctx.eps
        want = mp.exp(4 * mp.pi / 120)
        got = power_from_alpha(_alpha(mpc(0, 2)), "Q", Fraction(-1, 120), ctx)
        assert abs(got - want) < ctx.eps
        assert abs(abs(power_from_alpha(mpf(1), "q", 1, ctx)) - mp.exp(-1)) < ctx.eps


def test_conjugation_symmetry(ctx):
    a = mpc(1, "0.4")
    with mp.workprec(ctx.prec_bits):
        for base in ("q", "q1"):
            p = power_from_alpha(a, base, 1, ctx)
            pc = power_from_alpha(mp.conj(a), base, 1, ctx)
            assert abs(pc - mp.conj(p)) < ctx.eps


@settings(max_examples=25, deadline=None)
@given(
    r1=st.fractions(min_value=-3, max_value=3, max_denominator=360),
    r2=st.fractions(min_value=-3, max_value=3, max_denominator=360),
)
def test_frac_power_homomorphism(r1, r2):
    ctx = PrecisionContext(prec_bits=192, eps="1e-30")
    a = mpc(1, "0.3")
    with mp.workprec(ctx.prec_bits):
        for base in ("q", "Q", "q1", "Q1"):
            lhs = power_from_alpha(a, base, r1, ctx) * power_from_alpha(a, base, r2, ctx)
            rhs = power_from_alpha(a, base, r1 + r2, ctx)
            assert abs(lhs - rhs) < 50 * ctx.eps * max(1, abs(rhs))


def test_moduli_below_one(ctx):
    for a in (mpc("0.01", 5), mpc(3, -2), mpc("0.5", "0.5")):
        if a.real <= 0:
            continue
        for base in ("q", "Q", "q1", "Q1"):
            assert abs(power_from_alpha(a, base, 1, ctx)) < 1
