"""Budget honesty: every reported err_estimate bounds the true error of the
quadrature, measured against a reference computed at 400 bits with
eps 1e-80 (so quad_eps 1e-70), at the stress edges of the ray quadrature;
and every q-series is within eps of its value, measured against the same
code at 400 bits with eps 1e-100 on the same input."""

from functools import partial

import pytest

from mocklab import (MockThetaId, PrecisionContext, eta, eval_mock, l_vector,
                     pv_quadrature, pv_sum, theta, unary_x, w2_integral, w3_integral)
from mocklab import mordell
from mocklab.errors import NonConvergenceError
from mocklab.qseries import MOCK_THETA_IDS, _Ratio, _Series, _sum_series

REF = PrecisionContext(prec_bits=400, eps="1e-80")

# name: (function of (point, ctx) returning (values, err), the point as a
# function of the context's mp)
CASES = {
    # the mf5_complex workload's integral vector point
    "l_pair_complex": (mordell.l_pair, lambda mp: 10 * mp.mpc("2.337666", "0.95249")),
    # a lateral at |alpha| = 0.3, pi - |theta| = 1e-3 (once the laterals' floor)
    "lateral_floor": (l_vector, lambda mp: mp.mpf("0.3") * mp.exp(1j * (mp.pi - mp.mpf("1e-3")))),
    # series_edge's three L pairs: long panels, and panels graded toward the start
    "l_pair_0.04": (mordell.l_pair, lambda mp: mp.mpf("0.04")),
    "l_pair_0.02": (mordell.l_pair, lambda mp: mp.mpf("0.02")),
    "l_pair_anchored": (mordell.l_pair, lambda mp: mp.mpf("24674.011")),
    # one long panel from the origin
    "w3_small": (lambda alpha, ctx: _pack(w3_integral(alpha, ctx)),
                 lambda mp: mp.mpf("1e-4")),
    # a ray so long that the cut moves out past the envelope's target
    "w3_tiny": (lambda alpha, ctx: _pack(w3_integral(alpha, ctx)),
                lambda mp: mp.mpf("1e-10")),
    "lvec_tiny": (l_vector, lambda mp: mp.mpf("1e-11")),
    "w2_complex": (lambda alpha, ctx: _pack(w2_integral(alpha, ctx)),
                   lambda mp: mp.mpc(1, "0.4")),
    # a dense pole lattice near arg alpha = pi/2
    "dense_lattice": (l_vector, lambda mp: 3 * mp.exp(mp.mpc(0, "1.5"))),
    # the ray turned away from the pole line 1e-5 to 1e-8 from the Stokes
    # line, on both sides, at large and at small |alpha|
    "stokes_edge_upper": (mordell.l_pair,
                          lambda mp: 3 * mp.exp(1j * (mp.pi - mp.mpf("1e-8")))),
    "stokes_edge_lower": (mordell.l_pair,
                          lambda mp: 30 * mp.exp(-1j * (mp.pi - mp.mpf("1e-5")))),
    "stokes_edge_small": (mordell.l_pair,
                          lambda mp: mp.mpf("0.03") * mp.exp(1j * (mp.pi - mp.mpf("1e-6")))),
    "stokes_edge_w3": (lambda alpha, ctx: _pack(w3_integral(alpha, ctx)),
                       lambda mp: 2 * mp.exp(1j * (mp.pi - mp.mpf("1e-6")))),
}


def _pack(value_err):
    value, err = value_err
    return (value,), err


@pytest.mark.parametrize("case", sorted(CASES))
def test_quadrature_error_within_its_bound(ctx, case):
    fn, point = CASES[case]
    values, err = fn(point(ctx.mp), ctx)
    ref_values, ref_err = fn(point(REF.mp), REF)
    assert ref_err < REF.quad_eps and err < ctx.quad_eps
    for value, ref in zip(values, ref_values):
        assert abs(REF.mp.mpc(value) - ref) <= err


def test_pv_quadrature_within_its_bound(ctx, monkeypatch):
    """pv_quadrature(50.3, 1, 0.3) against pv_sum at the reference
    context, within sqrt(4pt/pi) times the bound of its quadrature."""
    quadrature = mordell._quadrature
    results = []
    monkeypatch.setattr(mordell, "_quadrature",
                        lambda *args: results.append(quadrature(*args)) or results[-1])
    value = pv_quadrature("50.3", 1, "0.3", ctx)
    (res,) = results
    scale = REF.mp.sqrt(4 * REF.mp.mpf("0.3") / REF.mp.pi)
    assert abs(REF.mp.mpf(value) - pv_sum("50.3", 1, "0.3", REF)) <= scale * res.err_estimate


def test_shared_laterals_within_their_bounds(ctx):
    """One quadrature for the laterals at |alpha| = 0.3 with pi - |theta| from
    0.016 down to 1e-3: each against its own 400-bit reference, within its
    own err_estimate."""
    gaps = ("0.016", "0.008", "0.004", "0.002", "1e-3")

    def lateral(gap, mp):
        return mp.mpf("0.3") * mp.exp(1j * (mp.pi - mp.mpf(gap)))

    shared = mordell._scaled_integral(*mordell._L_VECTOR, [lateral(g, ctx.mp) for g in gaps], ctx)
    for gap, (values, err) in zip(gaps, shared):
        ref_values, ref_err = l_vector(lateral(gap, REF.mp), REF)
        assert ref_err < REF.quad_eps and err < ctx.quad_eps
        for value, ref in zip(values, ref_values):
            assert abs(REF.mp.mpc(value) - ref) <= err


# ---------------------------------------------------------------------------
# The series half
# ---------------------------------------------------------------------------

SERIES_REF = PrecisionContext(prec_bits=400, eps="1e-100")


def _on_guard(mp, turn):
    """0.999 e^{i pi turn}, moved in by 2^-(prec - 4) relatively so that its
    rounding cannot lift |q| above eval_mock's guard 0.999."""
    return mp.mpf("0.999") * (1 - mp.ldexp(1, 4 - mp.prec)) * mp.expjpi(turn)


# each point as a function of the context's mp
Q_POINTS = {"0.999": lambda mp: mp.mpf("0.999"), "-0.999": lambda mp: mp.mpf("-0.999"),
            "0.999e^(i pi/7)": lambda mp: _on_guard(mp, mp.mpf(1) / 7),
            "0.999e^(2 pi i/3)": lambda mp: _on_guard(mp, mp.mpf(2) / 3)}
U_POINTS = {"0.999": lambda mp: mp.mpf("0.999"), "0.999e^i": lambda mp: mp.mpf("0.999") * mp.expj(1),
            "0.9999": lambda mp: mp.mpf("0.9999")}
TAUS = (("0", "0.0005"), ("0", "0.001"), ("0.5", "0.002"),
        ("-0.233902", "0.014133"), ("0.273299", "0.015589"))

# name: (function of (point, ctx), point); each within
# eps / 16 + 2^-(prec_bits - 8) |ref| of its reference
ABSOLUTE_CASES = {
    **{"%s_%s" % (name, label): (partial(eval_mock, MockThetaId(order, name)), q)
       for order, name in MOCK_THETA_IDS for label, q in Q_POINTS.items()},
    **{"%s_%s" % (which, label): (partial(unary_x, which), u)
       for which in ("X0", "X1") for label, u in U_POINTS.items()},
    **{"theta%d_%si" % (which, im): (partial(theta, which), lambda mp, im=im: mp.mpc(0, im))
       for which, im in ((3, "0.01"), (3, "0.0005"), (4, "0.01"))},
}
# the same, relatively: eta and theta2, summed relative to a proved floor
RELATIVE_CASES = {
    **{"eta_%s+%si" % t: (eta, lambda mp, t=t: mp.mpc(*t)) for t in TAUS},
    **{"theta2_%s+%si" % t: (partial(theta, 2), lambda mp, t=t: mp.mpc(*t)) for t in TAUS},
}


def _series_error(ctx, case):
    """|value - ref| and |ref|, the reference at 400 bits on the same point,
    which converts exactly."""
    fn, point = case
    x = point(ctx.mp)
    ref = fn(SERIES_REF.mp.mpc(x), SERIES_REF)
    return abs(SERIES_REF.mp.mpc(fn(x, ctx)) - ref), abs(ref)


@pytest.mark.parametrize("case", sorted(ABSOLUTE_CASES))
def test_series_within_eps(ctx, case):
    err, size = _series_error(ctx, ABSOLUTE_CASES[case])
    assert err <= ctx.eps / 16 + SERIES_REF.mp.ldexp(size, 8 - ctx.prec_bits)


@pytest.mark.parametrize("case", sorted(RELATIVE_CASES))
def test_series_within_eps_relatively(ctx, case):
    err, size = _series_error(ctx, RELATIVE_CASES[case])
    assert err <= (ctx.eps / 16 + SERIES_REF.mp.ldexp(1, 8 - ctx.prec_bits)) * size


def test_series_past_float_range_of_the_target():
    """At 1200 bits and eps 1e-60 the target eps 2^-8 is some 2^1000 units of
    the fixed point, beyond the range of a double; each series still sums to
    within eps of a 1600-bit reference."""
    ctx = PrecisionContext(prec_bits=1200, eps="1e-60")
    ref_ctx = PrecisionContext(prec_bits=1600, eps="1e-200")
    mp = ctx.mp
    cases = ((partial(eval_mock, MockThetaId(3, "f")), mp.mpf("0.9")),
             (partial(eval_mock, MockThetaId(5, "chi0")), mp.mpf("0.5") * mp.expj(1)),
             (partial(unary_x, "X1"), mp.mpf("0.99")),
             (partial(theta, 3), mp.mpc(0, "0.01")),
             (eta, mp.mpc("0.5", "0.002")))
    for fn, x in cases:
        ref = fn(ref_ctx.mp.mpc(x), ref_ctx)
        err = abs(ref_ctx.mp.mpc(fn(x, ctx)) - ref)
        assert err <= ctx.eps / 16 + ref_ctx.mp.ldexp(abs(ref), 8 - ctx.prec_bits)


def test_series_refusals():
    """A sum that cannot stop within MAX_TERMS_DEFAULT terms raises before it
    builds its fixed point, and a ratio bound that could grow is refused."""
    ctx = PrecisionContext(prec_bits=2000, eps="1e-500")
    u = 1 - ctx.mp.mpf(10) ** -400
    with pytest.raises(NonConvergenceError):
        unary_x("X0", u, ctx)
    ref = PrecisionContext()
    for ratio in (_Ratio(0, 1), _Ratio(-1, 3), _Ratio(2, 1, ((1, -1, 4),)),
                  _Ratio(2, 1, (), ((-1, -1, 4),))):
        with pytest.raises(AssertionError):
            _sum_series([(1, 1, _Series(_Ratio(0, 0), ratio))], ref.mp.mpf("0.5"), ref)
