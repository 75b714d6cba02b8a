from fractions import Fraction

import pytest
from mpmath import mp, mpf

from mocklab import (
    DomainError,
    ExtrapolationInstability,
    PrecisionContext,
    l_vector,
    mixing_matrix,
    stokes_decompose,
    unary_x,
)
from mocklab.identities import _LAWS, _apply, _series_side
from mocklab.modpoint import power_from_alpha


@pytest.fixture(scope="module")
def dec_one(ctx):
    with mp.workprec(ctx.prec_bits):
        return stokes_decompose(mpf(1), [mpf("0.2"), mpf("0.1"), mpf("0.05")], ctx)


def test_residuals_decrease(dec_one):
    for seq in (dec_one.re_residuals, dec_one.im_residuals):
        assert all(b < a for a, b in zip(seq, seq[1:]))


def test_extrapolation_quality(ctx, dec_one):
    assert dec_one.extrap_residual_real < mpf(10) ** -8
    assert dec_one.extrap_residual_imag < mpf(10) ** -8
    assert dec_one.extrap_err_estimate < mpf(10) ** -8


def test_matched_sign_upper_lateral(dec_one):
    # the theta = +(pi - eps) lateral carries the -i jump
    assert dec_one.matched_sign == -1


def test_prediction_structure(ctx, dec_one):
    # the real-part prediction is a real vector, the imaginary-part
    # prediction a positive real vector (the i factor lives in the lateral)
    for v in dec_one.pred_real:
        assert v > 0
    for v in dec_one.pred_imag:
        assert v > 0
    # lateral values approach pred_real - i*pred_imag
    v = dec_one.lateral_values[len(dec_one.eps_seq) - 1]
    assert v[0].imag < 0 and v[1].imag < 0


def test_lateral_matches_folded_normalization(dec_one):
    # the laterals land on the folded-prefactor normalization
    assert dec_one.extrap_residual_real < mpf(10) ** -8


@pytest.mark.parametrize("a", ["0.3", "1", "pi"])
def test_predictions_are_the_law_at_minus_a(ctx, a):
    # on the Stokes line the matrix law's series side splits into
    # (3/2) Re U(Q) and (3/2) sqrt(pi/a) Re(M U(Q1)), with
    # U(B) = (B^{-1/120} X0(1/B), B^{-49/120} X1(1/B)) at alpha = -a
    m = ctx.mp
    a = m.pi if a == "pi" else m.mpf(a)
    alpha = -m.mpc(a)

    def unary(base):
        u = power_from_alpha(alpha, base, -1, ctx)
        return (power_from_alpha(alpha, base, Fraction(-1, 120), ctx)
                * unary_x("X0", u, ctx),
                power_from_alpha(alpha, base, Fraction(-49, 120), ctx)
                * unary_x("X1", u, ctx))

    mixed = _apply(mixing_matrix(ctx), unary("Q1"))
    want_real = [3 * v.real / 2 for v in unary("Q")]
    want_imag = [3 * m.sqrt(m.pi / a) * v.real / 2 for v in mixed]
    side = _series_side(_LAWS["mf5"], -a, ctx)[0]
    for j in range(2):
        assert abs(side[j].real - want_real[j]) < m.mpf(10) ** -70
        assert abs(side[j].imag - want_imag[j]) < m.mpf(10) ** -70


def test_extension_floor(dec_one):
    assert dec_one.extended_eps[0] == dec_one.eps_seq[0]
    assert min(dec_one.extended_eps) >= mpf("0.002")
    assert len(dec_one.extended_eps) >= len(dec_one.eps_seq) + 3


def test_input_validation(ctx):
    with mp.workprec(ctx.prec_bits):
        with pytest.raises(DomainError):
            stokes_decompose(mpf(1), [], ctx)
        with pytest.raises(DomainError):
            stokes_decompose(mpf(1), [mpf("0.1"), mpf("0.2")], ctx)
        with pytest.raises(DomainError):
            stokes_decompose(mpf(-1), [mpf("0.1")], ctx)
        # the window is 0 < eps <= pi/2, with no floor below
        with pytest.raises(DomainError):
            stokes_decompose(mpf(1), [mpf(2)], ctx)
        with pytest.raises(DomainError):
            stokes_decompose(mpf(1), [mpf("0.1"), mpf(0)], ctx)
        for a, eps_seq in ((mpf(1), [mpf("0.0001")]),
                           (mpf("0.01"), [mpf("0.002"), mpf("0.000999")])):
            dec = stokes_decompose(a, eps_seq, ctx)
            for seq in (dec.re_residuals, dec.im_residuals):
                assert len(seq) == len(eps_seq)
                assert all(b < a for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("prec_bits", [256, 192])
def test_lateral_floor_admitted(prec_bits):
    # pi - |theta| = 1e-3, once the floor of the laterals, at 192 bits too,
    # where theta = pi - 1e-3 rounds to a gap just short of 1e-3
    c = PrecisionContext(prec_bits=prec_bits, eps="1e-40")
    with mp.workprec(c.prec_bits):
        dec = stokes_decompose(mpf("0.01"), [mpf("0.002"), mpf("0.001")], c)
        assert dec.extended_eps == (mpf("0.002"), mpf("0.001"))
        assert dec.quad_budget < c.quad_eps * 16
        _, err = l_vector(mpf("0.01") * mp.exp(1j * (mp.pi - mpf("1e-3"))), c)
        assert err < c.quad_eps * 16


@pytest.mark.parametrize("a", ["1", "pi"])
def test_below_the_old_floor(ctx, a):
    """Laterals from pi - |theta| = 1e-3 down to 1e-6, three decades below
    the floor the laterals once kept: the residuals keep decreasing, and the
    extrapolation reaches about 1e-20 (5e-14 at STOKES_EPS_SEQ)."""
    m = ctx.mp
    a = m.pi if a == "pi" else m.mpf(a)
    dec = stokes_decompose(a, [m.mpf(e) for e in ("1e-3", "1e-4", "1e-5", "1e-6")], ctx)
    assert dec.matched_sign == -1
    for seq in (dec.re_residuals, dec.im_residuals):
        assert len(seq) == 4
        assert all(b < a for a, b in zip(seq, seq[1:]))
    assert dec.extrap_residual_real < m.mpf("1e-18")
    assert dec.extrap_residual_imag < m.mpf("1e-18")


def test_monotonicity_enforcement(ctx, monkeypatch):
    # constant lateral values cannot show decreasing residuals
    import mocklab.identities as identities

    def fake_laterals(family, k, c, alphas, ctx):
        from mpmath import mpc
        return [((mpc(1), mpc(1)), mpf("1e-40")) for _ in alphas]

    monkeypatch.setattr(identities, "_scaled_integral", fake_laterals)
    with mp.workprec(ctx.prec_bits):
        with pytest.raises(ExtrapolationInstability):
            stokes_decompose(mpf(1), [mpf("0.2"), mpf("0.1")], ctx)


def test_quadrature_budget_reported(dec_one, ctx):
    assert dec_one.quad_budget < ctx.quad_eps * 16
