import cmath
import math
import os
import threading
from fractions import Fraction

import pytest
from mpmath import MPContext, mp, mpc, mpf
from mpmath.calculus.quadrature import GaussLegendre

from mocklab import (
    DomainError,
    NonConvergenceError,
    PoleProximityError,
    PrecisionContext,
    l_integral,
    l_vector,
    mixing_matrix,
    pv_quadrature,
    pv_sum,
    stokes_decompose,
    w2_integral,
    w3_integral,
)
from mocklab import mordell
from mocklab.identities import _LAWS, _series_side, neville_extrapolate
from mocklab.mordell import RayIntegrand, integrate_ray


def _scale(ctx):
    """P of the quadrature's fixed point: integers scaled by 2^P."""
    return mordell._kernel_bits(ctx) + mordell._FIXED_BITS


def _as_fixed(func, ctx):
    """The RayIntegrand.func of an integrand func on mpmath numbers: the
    node arrives as an mpc of the guard context, 16 bits above the working
    precision, and each component leaves in the quadrature's fixed point.
    Its error bound is 8 roundings of the guard context relative to the
    components, plus 2^10 units for a displaced node (|f'| < 2^7 on every
    test integrand's path)."""
    P = _scale(ctx)
    guard = mordell._mp_context(ctx.prec_bits + 16)

    def fixed(xr, xi):
        values = tuple(mordell._fixed(guard.mpc(v), P)
                       for v in func(guard.mpc(guard.ldexp(xr, -P), guard.ldexp(xi, -P))))
        size = sum(abs(re) + abs(im) for re, im in values)
        return values, (8 * size >> ctx.prec_bits + 16) + 2 ** 10

    return fixed


def _gaussian_bound(gamma):
    """Test-local `RayIntegrand.bound` of e^{-gamma x^2}, an entire
    function: its maximum on each box of each ellipse up to the cap."""
    g = complex(gamma)
    return lambda mid, half: [
        (rho, max(mordell._gauss_log_max(g * half * half, mid / half, box)
                  for box in mordell._ellipse_boxes(rho)))
        for rho in mordell._radii((), 1, mid, half, mordell._RHO_CAP)]


def _at(func, z, ctx):
    """The components of a RayIntegrand.func at the number z, as mpc."""
    P = _scale(ctx)
    guard = mordell._mp_context(ctx.prec_bits + 16)
    return tuple(guard.mpc(guard.ldexp(re, -P), guard.ldexp(im, -P))
                 for re, im in func(*mordell._fixed(guard.mpc(z), P))[0])


def _frames(integrand, ctx):
    """The production panels along the integrand's ray, from
    `mordell._panels`, as (mid, half) pairs of mpc of the guard context."""
    P = _scale(ctx)
    guard = mordell._mp_context(ctx.prec_bits + 16)
    w, cut, _tail = mordell._geometry(integrand, ctx)
    frames, _, _ = mordell._panels(integrand.bound, w, [0, cut], ctx)
    return [tuple(guard.mpc(guard.ldexp(re, -P), guard.ldexp(im, -P)) for re, im in frame)
            for frame in frames]


def _tanh_sinh(f, integrand, ctx):
    """Test-only reference: mp.quad tanh-sinh of the scalar f(x) along the
    integrand's ray, on the panels the production code builds for it, at
    the production working precision."""
    with mp.workprec(ctx.prec_bits + 16):
        frames = _frames(integrand, ctx)
        points = [frames[0][0] - frames[0][1]] + [mid + half for mid, half in frames]
        return mp.quad(f, points, method="tanh-sinh", maxdegree=10)


def _fixed_degree_sweeps(integrand, ctx, degrees):
    """One Gauss total per degree over the production panel set."""
    P = _scale(ctx)
    with mp.workprec(ctx.prec_bits + 16):
        frames = _frames(integrand, ctx)
        out = []
        for degree in degrees:
            total = mpc(0)
            for mid, half in frames:
                total += half * mp.fsum(
                    mp.ldexp(wt, -P)
                    * _at(integrand.func, mid + half * mp.ldexp(x, -P), ctx)[0]
                    for x, wt in mordell._gl_nodes(degree, mordell._kernel_bits(ctx)))
            out.append(total)
        return out


def _l_cosh(r, alpha):
    """The L(r, alpha) integrand in its defining cosh form."""
    a1, a2 = (mpf((3 * r - c).numerator) / (3 * r - c).denominator for c in (2, 1))
    c32 = mpf(3) / 2
    return lambda x: (mp.exp(-c32 * alpha * x * x)
                      * (mp.cosh(a1 * alpha * x) + mp.cosh(a2 * alpha * x))
                      / mp.cosh(c32 * alpha * x))


# ---------------------------------------------------------------------------
# integrate_ray on known integrals
# ---------------------------------------------------------------------------

def _gaussian(gamma, ctx):
    return RayIntegrand(func=_as_fixed(lambda x: (mp.exp(-gamma * x * x),), ctx),
                        gauss_coeff=gamma, bound=_gaussian_bound(gamma))


def _family_quadrature(family, alpha, ctx):
    return integrate_ray(mordell._ray_integrand(family, alpha, ctx), ctx)


@pytest.mark.parametrize("method", ["tanh_sinh", "gauss_patch"])
def test_gaussian_half_line(ctx, method):
    """Both the production Gauss scheme and the test-only tanh-sinh
    reference reproduce sqrt(pi)/2 and agree with each other."""
    with mp.workprec(ctx.prec_bits):
        integrand = _gaussian(mpc(1), ctx)
        res = integrate_ray(integrand, ctx)
        ref = _tanh_sinh(lambda x: mp.exp(-x * x), integrand, ctx)
        value = res.value[0] if method == "gauss_patch" else ref
        assert abs(value - mp.sqrt(mp.pi) / 2) < ctx.quad_eps
        assert abs(res.value[0] - ref) < ctx.quad_eps
        assert res.err_estimate < ctx.quad_eps
        assert res.nodes_used > 0 and res.scheme == "gauss_patch"


def test_nodes_used_counts_evaluations(ctx):
    calls = [0]

    def f(x):
        calls[0] += 1
        return (mp.exp(-x * x),)

    with mp.workprec(ctx.prec_bits):
        integrand = RayIntegrand(func=_as_fixed(f, ctx), gauss_coeff=mpc(1),
                                 bound=_gaussian_bound(1))
        res = integrate_ray(integrand, ctx)
        assert res.nodes_used == calls[0] > 0


def test_integrand_error_reaches_caller(ctx):
    mp_ = ctx.mp
    P = _scale(ctx)

    def f(x):
        if x.real > 2:
            raise PoleProximityError("integrand refused a node past 2")
        return (mp_.exp(-x),)

    # the panels [0, 1], [1, 2] and [2, 3]
    frames = [(((2 * a + 1) << P - 1, 0), (1 << P - 1, 0)) for a in range(3)]
    with pytest.raises(PoleProximityError, match="^integrand refused a node past 2$"):
        mordell._gauss_panels(_as_fixed(f, ctx), frames, [4, 4, 4],
                              mordell._kernel_bits(ctx))


def test_split_runs_in_process_beside_other_threads(ctx, monkeypatch):
    """A quadrature started in another thread sums its panels in that
    thread, forks nothing, and gives the main thread's result bit for bit."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    alpha = ctx.mp.mpc(1, "0.5")
    single = _family_quadrature(mordell._W3, alpha, ctx)
    out = []
    thread = threading.Thread(
        target=lambda: out.append(_family_quadrature(mordell._W3, alpha, ctx)))
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive()
    assert not forks
    # a QuadratureResult compares its value, err_estimate and nodes_used
    assert out == [single]


def test_rotated_gaussian_cauchy_invariance(ctx):
    with mp.workprec(ctx.prec_bits):
        gamma = mp.exp(-1j * mp.pi / 4)
        integrand = _gaussian(gamma, ctx)
        v0 = _tanh_sinh(lambda x: mp.exp(-gamma * x * x), integrand, ctx)
        v1 = integrate_ray(integrand._replace(angle=mp.pi / 8), ctx).value[0]
        assert abs(v0 - v1) < 10 * ctx.quad_eps
        assert abs(v0 - mp.sqrt(mp.pi / gamma) / 2) < 10 * ctx.quad_eps


def test_divergent_ray_rejected(ctx):
    with mp.workprec(ctx.prec_bits):
        integrand = _gaussian(mp.exp(-1j * mp.pi / 4), ctx)
        with pytest.raises(DomainError):
            integrate_ray(integrand._replace(angle=mp.pi / 2), ctx)


def test_pole_proximity_guard(ctx):
    """e^{-x^2} / (x - 1/2) has a pole on the path.  Its bound knows the
    pole: rho stays below the pole's ellipse parameter, and M is the
    Gaussian's maximum over the distance to the pole, at least a(u0) - a(u)
    on E_rho, a(u) = (|u - 1| + |u + 1|) / 2 being 1-Lipschitz.  Every panel
    that holds the pole fails its bound, and its thirds shrink onto the pole
    until they round onto their own ends."""
    gaussian = _gaussian_bound(1)

    def bound(mid, half):
        u0 = (0.5 - mid) / half
        a0 = (abs(u0 - 1) + abs(u0 + 1)) / 2
        rho_max = a0 + math.sqrt((a0 - 1) * (a0 + 1))
        return [(rho, log_m - math.log(abs(half) * (a0 - (rho + 1 / rho) / 2)))
                for rho, log_m in gaussian(mid, half) if rho < rho_max]

    with mp.workprec(ctx.prec_bits):
        integrand = RayIntegrand(
            func=_as_fixed(lambda x: (mp.exp(-x * x) / (x - mpf("0.5")),), ctx),
            gauss_coeff=mpc(1), bound=bound)
        with pytest.raises(PoleProximityError):
            integrate_ray(integrand, ctx)


def test_panels_meet_eps_past_the_least_cap():
    """At eps 1e-560 degree 6 on ellipses up to `_RHO_CAP` misses the panel
    share by about e^-32 even on the shortest panels, which the cuts into
    thirds would then shrink toward e^-32 of the path.  The cap chosen from
    eps keeps the W3 ray at alpha = 1 to about 1800 panels of degree <= 6;
    the bound's calls are counted so that a lost cap fails here instead of
    cutting on."""
    ctx = PrecisionContext(prec_bits=1900, eps="1e-560")
    mp_ = ctx.mp
    integrand = mordell._ray_integrand(mordell._W3, mp_.mpc(1), ctx)
    calls = []

    def bound(mid, half):
        calls.append(None)
        assert len(calls) < 10_000, "the panels do not meet the share"
        return integrand.bound(mid, half)

    w, cut, _tail = mordell._geometry(integrand, ctx)
    frames, degrees, log_errs = mordell._panels(bound, w, [0, cut], ctx)
    assert len(frames) < 2500 and max(degrees) <= 6
    assert max(log_errs) < mordell._log_target(ctx) < -1290


def test_side_rounding_to_a_point_integrates_to_zero(ctx):
    """At alpha = 1e300 the cut, about 1e-150 or 2^-498, rounds to the start
    of the ray in the fixed point of 2^-P, P = 152 here (201 at the reference
    context): the one side is a point, summed exactly to 0, and the tail
    bound carries the whole integral."""
    assert _scale(ctx) < 498
    (l1, l2), err = mordell.l_pair(mpc("1e300"), ctx)
    assert l1 == 0 and l2 == 0 and 0 < err < 1


def test_refinement_table_geometric(ctx):
    # node doubling converges at least geometrically for the W3 integrand
    with mp.workprec(ctx.prec_bits):
        integrand = mordell._ray_integrand(mordell._W3, mpc(1), ctx)
        table = _fixed_degree_sweeps(integrand, ctx, degrees=(3, 4, 5, 6, 7))
        diffs = [abs(b - a) for a, b in zip(table, table[1:])]
        for d1, d2 in zip(diffs, diffs[1:]):
            if d1 < mpf(10) ** -55:  # numerical floor reached
                break
            assert d2 < d1 / 2


@pytest.mark.parametrize("p", [256, 64])
def test_gl_nodes_match_mpmath(p):
    """The integer Newton iteration reproduces mpmath's rules, node order
    included, and each rule's weights sum to 2."""
    hi = MPContext()
    hi.prec = 1000  # exact for every difference below
    tol = hi.ldexp(1, -(p + 8))
    for degree in range(2, 8):
        rule = [(hi.ldexp(x, -(p + mordell._FIXED_BITS)),
                 hi.ldexp(wt, -(p + mordell._FIXED_BITS)))
                for x, wt in mordell._gl_nodes(degree, p)]
        ref = GaussLegendre(MPContext()).calc_nodes(degree, p + 10)
        assert len(rule) == len(ref) == 3 * 2 ** (degree - 1)
        for (x, wt), (x_ref, wt_ref) in zip(rule, ref):
            assert abs(x - hi.mpf(x_ref)) <= tol
            assert abs(wt - hi.mpf(wt_ref)) <= tol
        assert abs(hi.fsum(wt for _, wt in rule) - 2) <= tol


def _float_integrand(family, alpha, ctx, prec=None):
    """Test-only oracle: the family's integrand evaluated on mpmath numbers
    of the guard context (or of prec bits), two complex exponentials and the
    products of `_power_plan`; its constants come from alpha at that
    precision too."""
    plan = mordell._power_plan(e for terms in family.numerators
                               + (family.denominator,) for _, e in terms)
    guard = mordell._mp_context(prec or ctx.prec_bits + 16)
    neg_gauss, neg_scale = (-c.numerator * guard.convert(alpha) / c.denominator
                            for c in (family.gauss, family.scale))

    def poly(powers, terms):
        (sign, e), *rest = terms
        total = powers[e] if sign > 0 else -powers[e]
        for sign, e in rest:
            total = total + powers[e] if sign > 0 else total - powers[e]
        return total

    def f(x):
        powers = {0: 1, 1: guard.exp(neg_scale * x)}
        for e, i, j in plan:
            powers[e] = powers[i] * powers[j]
        h = guard.exp(neg_gauss * x * x) / poly(powers, family.denominator)
        return tuple(h * poly(powers, terms) for terms in family.numerators)

    return f


@pytest.mark.parametrize("family", ["l_pair", "w2", "w3"])
def test_fixed_point_integrand_matches_float_oracle(ctx, family):
    """On every degree-5 node of the production panels, at the lateral
    floor, near the Stokes line, off the axes, at small and at large real
    alpha, the integer kernel is within 2^-b of the floating-point
    evaluation, relative to max(1, |f|), b = `_kernel_bits`: 48 bits above
    its fixed point 2^-P."""
    mp_ = ctx.mp
    family = {"l_pair": mordell._l_family(mordell._L_PAIR),
              "w2": mordell._W2, "w3": mordell._W3}[family]
    b = mordell._kernel_bits(ctx)
    P = b + mordell._FIXED_BITS
    rule = mordell._gl_nodes(5, b)
    for alpha in (10 * mp_.mpf("0.01") * mp_.exp(1j * (mp_.pi - mp_.mpf("1e-3"))),
                  10 * mp_.mpf("0.307141") * mp_.exp(1j * (mp_.pi - mp_.mpf("0.002"))),
                  10 * mp_.mpc(2, 1), mp_.mpc("0.03929"),
                  mp_.mpc(10 * mp_.pi ** 2 / mp_.mpf("0.004"))):
        integrand = mordell._ray_integrand(family, alpha, ctx)
        oracle = _float_integrand(family, alpha, ctx)
        for mid, half in _frames(integrand, ctx):
            for x, _ in rule:
                node = mid + half * mp_.ldexp(x, -P)
                for got, want in zip(_at(integrand.func, node, ctx), oracle(node)):
                    assert abs(got - want) <= mp_.ldexp(max(1, abs(want)), -b)


@pytest.mark.parametrize("family", ["l_pair", "w2", "w3"])
def test_fixed_point_kernel_within_its_error_bound(ctx, family):
    """On every degree-3 node of the production panels at the lateral floor,
    off the axes and at large real alpha, each component of the integer
    kernel is within the error bound it returns (units of 2^-P) of the
    integrand at the same node computed with 600 bits."""
    mp_ = ctx.mp
    family = {"l_pair": mordell._l_family(mordell._L_PAIR),
              "w2": mordell._W2, "w3": mordell._W3}[family]
    P = _scale(ctx)
    hi = mordell._mp_context(600)
    rule = mordell._gl_nodes(3, mordell._kernel_bits(ctx))
    for alpha in (10 * mp_.mpf("0.01") * mp_.exp(1j * (mp_.pi - mp_.mpf("1e-3"))),
                  10 * mp_.mpc(2, 1), mp_.mpc(10 * mp_.pi ** 2 / mp_.mpf("0.004"))):
        integrand = mordell._ray_integrand(family, alpha, ctx)
        oracle = _float_integrand(family, alpha, ctx, prec=600)
        for mid, half in _frames(integrand, ctx):
            for x, _ in rule:
                xr, xi = mordell._fixed(mid + half * mp_.ldexp(x, -P), P)
                values, err = integrand.func(xr, xi)
                want = oracle(hi.mpc(hi.ldexp(xr, -P), hi.ldexp(xi, -P)))
                for (re, im), v in zip(values, want):
                    assert abs(hi.mpc(hi.ldexp(re, -P), hi.ldexp(im, -P)) - v) <= hi.ldexp(err, -P)


def _floor_alpha(mp_):
    """10 alpha at the lateral floor: |A| = 3, pi - |theta| = 1e-3."""
    return 3 * mp_.exp(1j * (mp_.pi - mp_.mpf("1e-3")))


def test_kernel_scale_follows_eps_not_prec_bits():
    """At eps 1e-40 the fixed point is 2^-201 at 256 and at 512 bits: the
    L pair at the lateral floor takes the same nodes at both, and the two
    values agree within 2^-(P - 16)."""
    lo, hi = (PrecisionContext(bits, eps="1e-40") for bits in (256, 512))
    alpha = _floor_alpha(lo.mp)
    family = mordell._l_family(mordell._L_PAIR)
    assert _scale(lo) == _scale(hi) == 201
    lo_res, hi_res = (_family_quadrature(family, alpha, c) for c in (lo, hi))
    assert lo_res.nodes_used == hi_res.nodes_used
    for u, v in zip(lo_res.value, hi_res.value):
        assert abs(hi.mp.mpc(u) - v) <= hi.mp.ldexp(1, 16 - _scale(lo))


def test_kernel_scale_rises_with_eps():
    """At 512 bits and eps 1e-140 the fixed point rises to 2^-534, and the
    L pair at the lateral floor is within its err_estimate (and the
    oracle's) of the same pair at 600 bits."""
    c, ref = PrecisionContext(512, eps="1e-140"), PrecisionContext(600, eps="1e-150")
    assert _scale(c) == 534
    alpha = _floor_alpha(ref.mp)
    values, err = mordell.l_pair(alpha, c)
    ref_values, ref_err = mordell.l_pair(alpha, ref)
    for v, want in zip(values, ref_values):
        assert abs(ref.mp.mpc(v) - want) <= err + ref_err


def test_kernel_scale_at_eps_above_one():
    """eps >= 1 has no bits: b is the 20 guard bits, and the quadrature runs
    and meets its target (the rules of b bits need b >= 6)."""
    c = PrecisionContext(64, eps="1e5")
    assert mordell._kernel_bits(c) == 20
    want = pv_sum("0.3", 1, "0.8", PrecisionContext(64, eps="1e-12"))
    assert abs(pv_quadrature("0.3", 1, "0.8", c) - want) < c.eps


@pytest.mark.parametrize("b", [104, 153])
def test_gl_nodes_within_two_units(b):
    """Every node and weight is within 2 units of 2^-P, P = b + 48, of a
    600-bit rule, as the rounding bound of `_gauss_panels` counts them."""
    hi = MPContext()
    hi.prec = 700
    unit = hi.ldexp(1, -(b + mordell._FIXED_BITS))
    for degree in range(2, 7):
        ref = GaussLegendre(hi).calc_nodes(degree, 600)
        for (x, wt), (x_ref, wt_ref) in zip(mordell._gl_nodes(degree, b), ref):
            assert abs(x * unit - x_ref) <= 2 * unit
            assert abs(wt * unit - wt_ref) <= 2 * unit


@pytest.mark.parametrize("a, p, t", [("50.3", 1, "0.3"), ("0.7", "1.5", "2")])
def test_pv_integrand_within_its_error_bound(ctx, monkeypatch, a, p, t):
    """On 400 points of pv_quadrature's path, its integrand is within the
    error bound it returns (units of 2^-P) of the same integrand, with the
    same a, p and t, at 600 bits: the bound counts the roundings of
    p t x^2, of p x and of a x, 1/|cos(px)| amplifying the last two."""
    seen = []
    quadrature = mordell._quadrature
    monkeypatch.setattr(mordell, "_quadrature", lambda func, bound, w, points, tail, c: (
        seen.append((func, points)) or quadrature(func, bound, w, points, tail, c)))
    pv_quadrature(a, p, t, ctx)
    (func, points), = seen
    P = _scale(ctx)
    hi = mordell._mp_context(600)
    a, p, t = (hi.convert(ctx.mp.mpf(v)) for v in (a, p, t))
    for i in range(400):
        xr = int(hi.ldexp(hi.convert(points[-1]) * (2 * i + 1) / 800, P))
        ((re, im),), err = func(xr, 0)
        x = hi.ldexp(xr, -P)
        want = hi.exp(-p * t * x * x) * hi.cos(a * x) / hi.cos(p * x)
        assert abs(hi.mpc(hi.ldexp(re, -P), hi.ldexp(im, -P)) - want) <= hi.ldexp(err, -P)

# ---------------------------------------------------------------------------
# The concrete integrals
# ---------------------------------------------------------------------------

def test_l_rotation_invariance(ctx):
    # ray angles 0 and -arg(alpha)/2 agree inside the pole-free cone
    with mp.workprec(ctx.prec_bits):
        alpha = mp.exp(1j * mp.pi / 4)
        r = Fraction(1, 5)
        f = _l_cosh(r, alpha)
        # the production bound of the pair bounds its r = 1/5 component, f
        bound = mordell._ray_integrand(mordell._l_family(mordell._L_PAIR), alpha, ctx).bound
        integrand = RayIntegrand(_as_fixed(lambda x: (f(x),), ctx), mpf(3) / 2 * alpha,
                                 bound, mpf(64))
        v0 = _tanh_sinh(f, integrand, ctx)
        v1 = integrate_ray(integrand._replace(angle=-mp.pi / 8), ctx).value[0]
        direct, _ = l_integral(r, alpha, ctx)
        assert abs(v0 - v1) < 10 * ctx.quad_eps
        assert abs(v0 - direct) < 10 * ctx.quad_eps


def _l_reference(r, alpha, ctx):
    alpha = mpc(alpha)
    family = mordell._l_family(mordell._L_PAIR)
    return _tanh_sinh(_l_cosh(r, alpha), mordell._ray_integrand(family, alpha, ctx), ctx)


def test_l_two_schemes_agree(ctx):
    with mp.workprec(ctx.prec_bits):
        for r in (Fraction(1, 5), Fraction(1, 3)):  # the pair, and r alone
            v1 = _l_reference(r, mpf(10), ctx)
            v2, _ = l_integral(r, mpf(10), ctx)
            assert abs(v1 - v2) < ctx.quad_eps


@pytest.mark.parametrize("where", ["complex", "lateral_floor", "endpoint_anchor"])
def test_l_pair_matches_tanh_sinh(ctx, where):
    with mp.workprec(ctx.prec_bits):
        alpha = {
            "complex": 10 * mpc(2, 1),
            "lateral_floor": 10 * mpf("0.01") * mp.exp(1j * (mp.pi - mpf("1e-3"))),
            "endpoint_anchor": 10 * mp.pi**2 / mpf("0.004"),
        }[where]
        for r in mordell._L_PAIR:
            value, err = l_integral(r, alpha, ctx)
            assert err < ctx.quad_eps
            assert abs(value - _l_reference(r, alpha, ctx)) < ctx.quad_eps


REF_400 = PrecisionContext(prec_bits=400, eps="1e-80")


@pytest.mark.parametrize("where", ["mf5_complex", "lateral_floor"])
def test_each_panel_takes_the_least_certified_degree(ctx, monkeypatch, where):
    """On the production panels of the L pair at 10(2.337666+0.95249i) and
    at the lateral floor |alpha| = 0.3, pi - |theta| = 1e-3: each panel's
    degree is the least whose Bernstein bound is below eps 2^-4, and its sum
    is within that bound (and its rounding bound, and the reference's own
    bound) of the same panel at degree + 2 and 400 bits."""
    mp_ = ctx.mp
    alpha = {"mf5_complex": 10 * mp_.mpc("2.337666", "0.95249"),
             "lateral_floor": 3 * mp_.exp(1j * (mp_.pi - mp_.mpf("1e-3")))}[where]
    family = mordell._l_family(mordell._L_PAIR)
    integrand = mordell._ray_integrand(family, alpha, ctx)
    reference = mordell._ray_integrand(family, REF_400.mp.mpc(alpha), REF_400)
    panels = mordell._gauss_panels
    seen = []
    monkeypatch.setattr(mordell, "_gauss_panels", lambda f, frames, degrees, prec: (
        seen.append((frames, degrees)) or panels(f, frames, degrees, prec)))
    integrate_ray(integrand, ctx)
    (frames, degrees), = seen
    b, b_ref = mordell._kernel_bits(ctx), mordell._kernel_bits(REF_400)
    P = b + mordell._FIXED_BITS
    shift = b_ref - b
    log_target = float(mp_.log(ctx.eps)) - 4 * math.log(2)
    hi = mordell._mp_context(500)

    def log_bound(bound, mid, half, degree):
        n = 3 << (degree - 1)
        return min(math.log(64 / 15) + math.log(abs(half)) + log_m - 2 * n * math.log(rho)
                   - math.log1p(-rho ** -2) for rho, log_m in bound(mid, half))

    for frame, degree in zip(frames, degrees):
        mid, half = (complex(math.ldexp(re, -P), math.ldexp(im, -P)) for re, im in frame)
        assert log_bound(integrand.bound, mid, half, degree) < log_target
        assert degree == 2 or log_bound(integrand.bound, mid, half, degree - 1) >= log_target
        totals, rounding, _ = panels(integrand.func, [frame], [degree], b)
        wide = tuple(tuple(v << shift for v in part) for part in frame)
        ref_totals, _, _ = panels(reference.func, [wide], [degree + 2], b_ref)
        slack = (hi.exp(log_bound(integrand.bound, mid, half, degree))
                 + hi.exp(log_bound(reference.bound, mid, half, degree + 2))
                 + hi.ldexp(rounding, -P))
        for (re, im), (ref_re, ref_im) in zip(totals, ref_totals):
            got = hi.mpc(hi.ldexp(re, -P), hi.ldexp(im, -P))
            want = hi.mpc(hi.ldexp(ref_re, -P - shift), hi.ldexp(ref_im, -P - shift))
            assert abs(got - want) <= slack


@pytest.mark.parametrize("where", ["l_vector", "w2"])
def test_node_count_stays_flat_at_large_alpha(ctx, monkeypatch, where):
    """The panels come from the bound alone, so the node count does not
    grow with the number of poles near the path, about sqrt|alpha|."""
    nodes = []
    real = mordell.integrate_ray

    def counted(*args):
        res = real(*args)
        nodes.append(res.nodes_used)
        return res

    monkeypatch.setattr(mordell, "integrate_ray", counted)
    mp_ = ctx.mp
    run = {"l_vector": lambda: l_vector(10 ** 4 * mp_.exp(mp_.mpc(0, "0.5")), ctx),
           "w2": lambda: w2_integral(1000 * mp_.exp(mp_.mpc(0, "1.5")), ctx)}[where]
    run()
    assert len(nodes) == 1 and nodes[0] <= 700


@pytest.mark.parametrize("where, ceiling", [("stokes_lateral", 2500), ("lateral_1e4", 1500)])
def test_lateral_node_count(ctx, monkeypatch, where, ceiling):
    """The turned ray keeps the pole line pi/8 away, so a lateral costs what
    a generic alpha costs: the four laterals of `stokes_decompose(0.307141,
    [0.016, 0.008, 0.004])` took 10 332 evaluations on the steepest-descent
    ray and 2 112 in one turned quadrature each, and take 528 in one shared
    quadrature; `l_vector(1e4 e^{i(pi - 1e-3)})` took 141 432 and takes
    1 116."""
    nodes = []
    real = mordell.integrate_ray

    def counted(*args):
        res = real(*args)
        nodes.append(res.nodes_used)
        return res

    monkeypatch.setattr(mordell, "integrate_ray", counted)
    mp_ = ctx.mp
    if where == "stokes_lateral":
        stokes_decompose(mp_.mpf("0.307141"),
                         [mp_.mpf(e) for e in ("0.016", "0.008", "0.004")], ctx)
        assert len(nodes) == 1
    else:
        l_vector(10 ** 4 * mp_.exp(1j * (mp_.pi - mp_.mpf("1e-3"))), ctx)
        assert len(nodes) == 1
    assert sum(nodes) <= ceiling


def test_ray_turns_only_near_the_stokes_line(ctx):
    """For (pi - |theta|)/2 >= pi/8, theta = arg alpha, the ray is the
    steepest-descent ray -theta/2, exactly, with the envelope constant
    16 (1 + 1/cos(theta/2)).  Closer to the Stokes line it turns away from
    the nearest pole line until alpha x has the argument +-3 pi/8, pi/8
    from the pole line, the constant is 16 (1 + 1/sin(pi/8)), and the
    Gaussian still decays at |gauss| cos(2 delta) >= |gauss| / sqrt 2."""
    mp_ = ctx.mp
    family = mordell._l_family(mordell._L_PAIR)
    for theta in ("0", "1", "-2.35", "2.35"):
        alpha = 3 * mp_.exp(1j * mp_.mpf(theta))
        integrand = mordell._ray_integrand(family, alpha, ctx)
        assert integrand.angle == -mp_.arg(alpha) / 2
        assert integrand.bound_const == 16 * (1 + 1 / mp_.cos(mp_.arg(alpha) / 2))
    for theta in ("2.4", "-2.4", "3.14159", "-3.1415926"):
        alpha = 3 * mp_.exp(1j * mp_.mpf(theta))
        integrand = mordell._ray_integrand(family, alpha, ctx)
        turned = alpha * mp_.exp(1j * integrand.angle)
        assert abs(abs(mp_.arg(turned)) - 3 * mp_.pi / 8) < mp_.ldexp(1, -200)
        assert integrand.bound_const == 16 * (1 + 1 / mp_.sin(mp_.pi / 8))
        decay = (integrand.gauss_coeff * mp_.exp(2j * integrand.angle)).real
        assert decay >= abs(integrand.gauss_coeff) / mp_.sqrt(2)


def _count_rays(monkeypatch):
    """The list that collects the result of every `integrate_ray` call from
    now on."""
    calls = []
    real = mordell.integrate_ray
    monkeypatch.setattr(mordell, "integrate_ray",
                        lambda *args: calls.append(real(*args)) or calls[-1])
    return calls


def test_shared_laterals_match_their_own_quadratures(ctx, monkeypatch):
    """The four laterals of `stokes_decompose(0.307141, [0.016, 0.008,
    0.004])` lie on one ray in z = alpha x and take one quadrature, of 528
    evaluations; each agrees with its own `l_vector` within the sum of both
    bounds."""
    mp_ = ctx.mp
    calls = _count_rays(monkeypatch)
    dec = stokes_decompose(mp_.mpf("0.307141"),
                           [mp_.mpf(e) for e in ("0.016", "0.008", "0.004")], ctx)
    assert len(calls) == 1 and calls[0].nodes_used <= 600
    for e, shared in zip(dec.extended_eps, dec.lateral_values):
        own, err = l_vector(dec.abs_alpha * mp_.exp(1j * (mp_.pi - e)), ctx)
        assert max(abs(u - v) for u, v in zip(shared, own)) <= dec.quad_budget + err
    assert len(calls) == 1 + len(dec.extended_eps)


def test_alpha_and_half_alpha_share_one_quadrature(ctx, monkeypatch):
    """check_mf5's vectors at alpha and alpha/2, in one quadrature, agree
    with their own `l_vector`s within the sum of both bounds."""
    alpha = ctx.mp.mpc("2.337666", "0.95249")
    calls = _count_rays(monkeypatch)
    shared = mordell._scaled_integral(*mordell._L_VECTOR, [alpha, alpha / 2], ctx)
    assert len(calls) == 1
    for a, (values, err) in zip((alpha, alpha / 2), shared):
        own, own_err = l_vector(a, ctx)
        assert max(abs(u - v) for u, v in zip(values, own)) <= err + own_err


def test_laterals_share_only_one_ray(ctx, monkeypatch):
    """pi - |theta| = 1.0 keeps the steepest-descent ray and its own
    quadrature, equal to its own `l_vector`; 0.5 and below, under
    pi/4, turn to arg z = 3 pi/8 and share one, within both bounds."""
    mp_ = ctx.mp
    calls = _count_rays(monkeypatch)
    dec = stokes_decompose(mp_.mpf("0.3"), [mp_.mpf(e) for e in ("1.0", "0.5", "0.1")], ctx)
    assert len(calls) == 2
    for e, shared in zip(dec.extended_eps, dec.lateral_values):
        own, err = l_vector(dec.abs_alpha * mp_.exp(1j * (mp_.pi - e)), ctx)
        if e == 1:
            assert shared == own
        else:
            assert max(abs(u - v) for u, v in zip(shared, own)) <= dec.quad_budget + err


@pytest.mark.parametrize("where", ["laterals", "alpha_half_eighth"])
def test_shared_panel_bound_holds_for_every_parameter(ctx, where):
    """On 32 points of the boundary of each ellipse of every production
    panel of a shared quadrature, every component of every parameter is
    within the panel's bound M (`_family_bound`), up to the error the
    kernel returns with it.  At alpha/8 the Gaussian is the eighth power of
    alpha's, and off the ray it outgrows it: a bound from the first
    Gaussian alone fails there by e^72."""
    mp_ = ctx.mp
    if where == "laterals":
        alphas = [3 * mp_.exp(1j * (mp_.pi - mp_.mpf(e)))
                  for e in ("0.016", "0.008", "0.004", "0.002")]
    else:
        alpha = 10 * mp_.mpc("2.337666", "0.95249")
        alphas = [alpha, alpha / 2, alpha / 8]
    integrand = mordell._ray_integrand(mordell._l_family(mordell._L_PAIR), alphas[0], ctx,
                                       *alphas[1:])
    P = _scale(ctx)
    for mid, half in _frames(integrand, ctx):
        for rho, log_m in integrand.bound(complex(mid), complex(half)):
            for k in range(32):
                t = cmath.exp(1j * math.pi * (2 * k + 1) / 32)
                u = (rho * t + 1 / (rho * t)) / 2  # on the boundary of E_rho
                values, err = integrand.func(*mordell._fixed(mid + half * u, P))
                assert len(values) == 2 * len(alphas)
                for re, im in values:
                    assert abs(complex(re, im)) <= math.exp(log_m + P * math.log(2)) + err


def test_upper_and_lower_laterals_never_share(ctx, monkeypatch):
    """The laterals on the two sides of the Stokes line lie on the rays
    arg z = +-3 pi/8: two quadratures, and conjugate values."""
    mp_ = ctx.mp
    theta = mp_.pi - mp_.mpf("0.01")
    calls = _count_rays(monkeypatch)
    alphas = [mp_.mpf("0.3") * mp_.exp(1j * t) for t in (theta, -theta)]
    (up, err_up), (down, err_down) = mordell._scaled_integral(*mordell._L_VECTOR, alphas, ctx)
    assert len(calls) == 2
    assert max(abs(u - mp_.conj(d)) for u, d in zip(up, down)) <= err_up + err_down


def test_l_pair_past_the_lateral_floor(ctx):
    """l_pair called directly 1e-8 from the Stokes line, far below the
    laterals' former floor of 1e-3, is within its err_estimate of the
    same pair at 400 bits: the turned ray keeps every pole pi/8 away.  On
    the Stokes line itself it raises DomainError."""
    values, err = mordell.l_pair(3 * ctx.mp.exp(1j * (ctx.mp.pi - ctx.mp.mpf("1e-8"))), ctx)
    ref = REF_400.mp
    ref_values, ref_err = mordell.l_pair(3 * ref.exp(1j * (ref.pi - ref.mpf("1e-8"))), REF_400)
    assert err < ctx.quad_eps and ref_err < REF_400.quad_eps
    for value, want in zip(values, ref_values):
        assert abs(ref.mpc(value) - want) <= err
    with pytest.raises(DomainError):
        mordell.l_pair(ctx.mp.mpc(-3), ctx)


def test_w2_w3_match_tanh_sinh(ctx):
    with mp.workprec(ctx.prec_bits):
        alpha = mpc(1, "0.5")
        w2 = lambda x: (mp.exp(-mpf(3) / 2 * alpha * x * x)
                        * mp.cosh(alpha * x) / mp.cosh(3 * alpha * x))
        w3 = lambda x: (mp.exp(-3 * alpha * x * x)
                        * mp.sinh(alpha * x) / mp.sinh(3 * alpha * x))
        for fn, family, f in ((w2_integral, mordell._W2, w2),
                              (w3_integral, mordell._W3, w3)):
            ref = _tanh_sinh(f, mordell._ray_integrand(family, alpha, ctx), ctx)
            assert abs(fn(alpha, ctx)[0] - ref) < ctx.quad_eps


def test_schwarz_reflection(ctx):
    with mp.workprec(ctx.prec_bits):
        pts = [mpc(1, "0.3"), mpc(2, 1), mpc("0.7", "0.2"), mpc(mp.pi, "0.5"),
               mpc("1.5", "0.8")]
        for a in pts:
            for fn in (lambda z: l_integral(Fraction(1, 5), z, ctx)[0],
                       lambda z: w2_integral(z, ctx)[0],
                       lambda z: w3_integral(z, ctx)[0]):
                assert abs(fn(mp.conj(a)) - mp.conj(fn(a))) < 10 * ctx.quad_eps


def test_w3_scaling_limit(ctx):
    with mp.workprec(ctx.prec_bits):
        a = mpf("1e-4")
        v, _ = w3_integral(a, ctx)
        limit = mp.sqrt(mp.pi) / (6 * mp.sqrt(3 * a))
        assert abs(v.real / limit - 1) < mpf("0.01")


def test_w3_positive(ctx):
    with mp.workprec(ctx.prec_bits):
        v, _ = w3_integral(mpf(1), ctx)
        assert v.real > 0 and abs(v.imag) < ctx.quad_eps


def test_w2_sector_bound(ctx):
    # |W2(a/2)| * sqrt|a| shows no growth trend as a -> 0 in the sector
    with mp.workprec(ctx.prec_bits):
        stats = []
        for ray in (mpf(0), mp.pi / 3):
            for m in (mpf("0.5"), mpf("0.1"), mpf("0.02")):
                a = m * mp.exp(1j * ray)
                v, _ = w2_integral(a / 2, ctx)
                stats.append((m, abs(v) * mp.sqrt(m)))
        big = max(s for m, s in stats if m > mpf("0.05"))
        small = max(s for m, s in stats if m <= mpf("0.05"))
        assert small <= 2 * big


def test_domain_guards(ctx):
    with mp.workprec(ctx.prec_bits):
        with pytest.raises(DomainError):
            l_integral(Fraction(1, 5), mpf(-1), ctx)
        with pytest.raises(DomainError):  # r > 5/6: cosh(2ax) outgrows cosh(3ax/2)
            l_integral(Fraction(1), mpf(1), ctx)
        with pytest.raises(DomainError):
            w3_integral(mpf(-2), ctx)


# ---------------------------------------------------------------------------
# The integral vector
# ---------------------------------------------------------------------------

def test_l_vector_real_on_real_axis(ctx):
    with mp.workprec(ctx.prec_bits):
        (l1, l2), _ = l_vector(mpf(1), ctx)
        assert abs(l1.imag) < ctx.quad_eps
        assert abs(l2.imag) < ctx.quad_eps


def test_l_vector_fixed_point_eigenvector(ctx):
    with mp.workprec(ctx.prec_bits):
        (l1, l2), err = l_vector(mp.pi, ctx)
        M = mixing_matrix(ctx)
        r1 = l1 - (M[0][0] * l1 + M[0][1] * l2)
        r2 = l2 - (M[1][0] * l1 + M[1][1] * l2)
        assert max(abs(r1), abs(r2)) < 100 * err


def test_l_vector_modular_consistency(ctx):
    with mp.workprec(ctx.prec_bits):
        (l1, l2), _ = l_vector(mpf(1), ctx)
        (s1, s2), _ = l_vector(mp.pi**2, ctx)
        M = mixing_matrix(ctx)
        root = mp.sqrt(mp.pi)
        r1 = l1 - root * (M[0][0] * s1 + M[0][1] * s2)
        r2 = l2 - root * (M[1][0] * s1 + M[1][1] * s2)
        assert max(abs(r1), abs(r2)) < mpf(10) ** -25


# ---------------------------------------------------------------------------
# Principal-value identity
# ---------------------------------------------------------------------------

PV_GRID = [(a, p, t) for a in ("0", "0.3", "0.7")
           for p in ("1", "1.5") for t in ("0.3", "0.8", "2")]


def test_pv_identity_grid(ctx):
    with mp.workprec(ctx.prec_bits):
        for a, p, t in PV_GRID:
            d = abs(pv_quadrature(mpf(a), mpf(p), mpf(t), ctx)
                    - pv_sum(mpf(a), mpf(p), mpf(t), ctx))
            assert d < mpf(10) ** -25


def test_pv_mutual_oracle_point(ctx):
    with mp.workprec(ctx.prec_bits):
        d = abs(pv_quadrature(mpf("0.5"), mpf("1.5"), mpf("0.8"), ctx)
                - pv_sum(mpf("0.5"), mpf("1.5"), mpf("0.8"), ctx))
        assert d < mpf(10) ** -15


def test_pv_sum_past_the_first_terms(ctx):
    # |a| a few multiples of p: the Gaussian peaks at (2k+1)p ~ |a|, far
    # beyond the first terms, which are all tiny; negative a, where the
    # quadrature's segment envelope must take |a|
    with mp.workprec(ctx.prec_bits):
        for a in (mpf("50.3"), mpf(-5)):
            p, t = mpf(1), mpf("0.3")
            assert abs(pv_sum(a, p, t, ctx) - pv_quadrature(a, p, t, ctx)) < mpf(10) ** -25


@pytest.mark.parametrize("a", ["0.3", "1"])
def test_quadrature_takes_the_pv_on_the_stokes_line(ctx, a):
    """At alpha = -10a the L pair's poles lie on the path x = -i y, at
    y = (2k+1)h, h = pi/(30a).  On panels [2kh, 2(k+1)h] centred on them the
    driver's +- node pairs take the principal value, which is the real part
    of the matrix law's series side at -a; the residue jump, its imaginary
    part, is not part of this integral."""
    guard = mordell._mp_context(ctx.prec_bits + 16)
    a = ctx.mp.mpf(a)
    h = guard.pi / (30 * guard.convert(a))
    k = 0
    while not 16 * guard.exp(-15 * a * (2 * k * h) ** 2) < guard.ldexp(ctx.quad_eps, -10):
        k += 1
    integrand = mordell._ray_integrand(mordell._l_family(mordell._L_PAIR),
                                       ctx.mp.mpc(-10 * a), ctx)
    res = mordell._quadrature(integrand.func, integrand.bound, guard.mpc(0, -1),
                              [2 * j * h for j in range(k + 1)], 0, ctx)
    pref = ctx.mp.sqrt(135 * ctx.mp.mpc(-a) / ctx.mp.pi)
    for v, want in zip(res.value, _series_side(_LAWS["mf5"], -a, ctx)[0]):
        assert abs((pref * v).real - want.real) < mpf("1e-30")


def test_cut_pv_panels_keep_their_poles_centred(monkeypatch):
    """At 400 bits and eps 1e-80 no degree up to 6 certifies every
    pole-centred panel of pv_quadrature(50.3, 1, 0.3), so `_panels` cuts
    them into thirds.  Every pole then sits at the centre of its panel,
    where the +- node pairs cancel it, or at |u| >= 2 of it, u = (x - mid)
    / half, and the principal value is within its bound of pv_sum."""
    P = _scale(REF_400)
    panels, quadrature = mordell._panels, mordell._quadrature
    seen, results = [], []
    monkeypatch.setattr(mordell, "_panels", lambda bound, w, points, ctx: (
        seen.append((points, panels(bound, w, points, ctx))) or seen[-1][1]))
    monkeypatch.setattr(mordell, "_quadrature",
                        lambda *args: results.append(quadrature(*args)) or results[-1])
    value = pv_quadrature("50.3", 1, "0.3", REF_400)
    (points, (frames, _, _)), = seen
    assert len(frames) > len(points) - 1
    hi = mordell._mp_context(REF_400.prec_bits + 64)
    h = hi.pi / 2
    for (mid, _), (half, _) in frames:
        mid, half = hi.ldexp(mid, -P), hi.ldexp(half, -P)
        pole = (2 * hi.floor(mid / (2 * h)) + 1) * h  # the pole of mid's segment
        u = abs(pole - mid) / half
        assert u < hi.ldexp(1, -200) or u > 2 - hi.ldexp(1, -200)
    scale = REF_400.mp.sqrt(4 * REF_400.mp.mpf("0.3") / REF_400.mp.pi)
    assert abs(value - pv_sum("50.3", 1, "0.3", REF_400)) <= scale * results[0].err_estimate


def test_pv_quadrature_past_float_range_of_the_fixed_point(monkeypatch):
    """At 1200 bits and eps 1e-300 P = 1065, and a node's value scaled by
    2^P is an integer no float holds: the node's error bound takes |f| from
    the mp value.  The whole quadrature there takes about 10 s, so only its
    integrand is checked, at one node against 1300 bits; at eps 1e-60 the
    quadrature runs at 1200 bits end to end."""
    c = PrecisionContext(prec_bits=1200, eps="1e-60")
    assert abs(pv_quadrature("2.5", 1, "0.3", c) - pv_sum("2.5", 1, "0.3", c)) < c.eps
    c = PrecisionContext(prec_bits=1200, eps="1e-300")
    P = _scale(c)
    assert P == 1065
    seen = []

    def capture(func, *args):
        seen.append(func)
        raise StopIteration

    monkeypatch.setattr(mordell, "_quadrature", capture)
    with pytest.raises(StopIteration):
        pv_quadrature("2.5", 1, "0.3", c)
    hi = mordell._mp_context(1300)
    x = hi.mpf("0.5")
    ((re, im),), err = seen[0](int(hi.ldexp(x, P)), 0)
    want = hi.exp(-hi.mpf("0.3") * x * x) * hi.cos(hi.mpf("2.5") * x) / hi.cos(x)
    assert abs(re) > 2 ** 1024 and abs(hi.ldexp(re, -P) - want) <= hi.ldexp(err, -P)


def test_pv_sum_symmetry_and_limit(ctx):
    with mp.workprec(ctx.prec_bits):
        # a = 0: both exponentials coincide
        p, t = mpf(1), mpf("0.4")
        direct = mpf(0)
        for k in range(80):
            sgn = -1 if k % 2 else 1
            direct += sgn * 2 * mp.exp(-((2 * k + 1) ** 2) * p / (4 * t))
        assert abs(pv_sum(0, p, t, ctx) - direct) < 10 * ctx.eps
        # t -> 0+ dominance of the k = 0 term
        t = mpf("0.01")
        lead = 2 * mp.exp(-1 / (4 * t))
        assert abs(pv_sum(0, 1, t, ctx) / lead - 1) < mpf("1e-8")
    with pytest.raises(DomainError):
        pv_sum(0, 1, mpc(-1, 1), ctx)


def test_pv_quadrature_even_in_a(ctx):
    with mp.workprec(ctx.prec_bits):
        v1 = pv_quadrature(mpf("0.4"), mpf(1), mpf("0.7"), ctx)
        v2 = pv_quadrature(mpf("-0.4"), mpf(1), mpf("0.7"), ctx)
        assert abs(v1 - v2) < 10 * ctx.eps


def test_pv_tolerance_consistency(ctx):
    # tightening the stop tolerance moves the value below the envelope bound
    loose = PrecisionContext(prec_bits=256, eps="1e-20")
    with mp.workprec(ctx.prec_bits):
        v1 = pv_quadrature(mpf("0.3"), mpf(1), mpf("0.8"), loose)
        v2 = pv_quadrature(mpf("0.3"), mpf(1), mpf("0.8"), ctx)
        assert abs(v1 - v2) < loose.eps


def test_precision_monotonicity(ctx):
    # halving eps never worsens the pv residual by more than 2x (plus floor)
    base = PrecisionContext(prec_bits=256, eps="1e-30")
    half = PrecisionContext(prec_bits=256, eps="5e-31")
    with mp.workprec(ctx.prec_bits):
        r1 = abs(pv_quadrature(mpf("0.3"), mpf(1), mpf("2"), base)
                 - pv_sum(mpf("0.3"), mpf(1), mpf("2"), base))
        r2 = abs(pv_quadrature(mpf("0.3"), mpf(1), mpf("2"), half)
                 - pv_sum(mpf("0.3"), mpf(1), mpf("2"), half))
        assert r2 <= 2 * r1 + mpf(2) ** (-200)


# ---------------------------------------------------------------------------
# Lateral evaluation
# ---------------------------------------------------------------------------

def test_lateral_window_validation(ctx):
    with mp.workprec(ctx.prec_bits):
        with pytest.raises(DomainError):
            stokes_decompose(mpf(1), [3 * mp.pi / 4], ctx)  # gap > pi/2


def test_lateral_conjugate_pair(ctx):
    with mp.workprec(ctx.prec_bits):
        (up1, up2), err = l_vector(mp.exp(1j * (mp.pi - mpf("0.2"))), ctx)
        (dn1, dn2), _ = l_vector(mp.exp(-1j * (mp.pi - mpf("0.2"))), ctx)
        assert abs(up1 - mp.conj(dn1)) < 100 * err
        assert abs(up2 - mp.conj(dn2)) < 100 * err
        # conjugate-lateral average recovers the real part
        avg = (up1 + dn1) / 2
        assert abs(avg.imag) < 100 * err


def test_neville_extrapolation_exactness():
    with mp.workprec(128):
        xs = [mpf(s) for s in ("0.4", "0.2", "0.1", "0.05")]
        ys = [3 - 2 * x + 5 * x**2 - x**3 for x in xs]
        assert abs(neville_extrapolate(xs, ys) - 3) < mpf(2) ** -100
