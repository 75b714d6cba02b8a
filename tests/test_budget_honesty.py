"""Budget honesty of the quadrature: every reported err_estimate bounds the
true error, measured against a reference computed at 400 bits with
eps 1e-80 (so quad_eps 1e-70), at the stress edges of the ray quadrature."""

import pytest

from mocklab import (PrecisionContext, l_vector, pv_quadrature, pv_sum, w2_integral,
                     w3_integral)
from mocklab import mordell

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
