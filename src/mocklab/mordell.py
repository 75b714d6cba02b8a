"""Numerical evaluation of the Gaussian-weighted hyperbolic-quotient
integrals L(r, alpha), W2(alpha), W3(alpha) for complex alpha with
|arg alpha| < pi, however close to the negative-axis Stokes line (a lateral
value is such an integral), the principal-value summation identity, and the
two-component integral vector.  This module holds the integral side only:
the series sides of the laws, and the Stokes-line decomposition that
predicts from them, are in `identities`.

Integrand family: every integrand is

    e^{-g a x^2} N_j(v) / D(v),    v = e^{-s a x},

with N_j and D short polynomials in v with integer exponents (the quotients
of cosh/sinh of integer multiples of s a x, multiplied through by the top
power of v).  So a node costs one complex exponential for v, one for each
Gaussian, and a few products.  The components of one family, such as
L(1/5) and L(2/5), share their nodes: one quadrature yields the pair
(`l_pair`).  So do several parameters a whose rays coincide in z = a x,
where a enters only through the Gaussian e^{-g z^2 / a}: the Stokes
laterals of one modulus, or alpha and alpha/2 (`_integrate_family`).

Contour strategy: every integral is taken along a ray from 0.  For
|arg alpha| <= 3 pi/4 it is the steepest-descent ray, rotated by
-arg(alpha)/2, which makes the Gaussian factor exactly real-decaying and
keeps the pole lines of the hyperbolic quotient at the angle
(pi - |arg alpha|)/2 from the contour.  Closer to the Stokes line that angle
would shrink with pi - |arg alpha|, and the panels would grade down toward
every pole; there the ray turns on, by delta = pi/8 - (pi - |arg alpha|)/2
away from the nearest pole line, so that alpha x keeps the argument
+-3 pi/8: the pole line stays pi/8 away, and the Gaussian still decays at
the rate |gauss alpha| cos(2 delta) >= |gauss alpha| / sqrt 2.  pi/8
balances the two angles.  `_ray_integrand` picks the ray and records it
with the envelope that holds on it.  The semi-infinite ray is cut where
that certified envelope drops below the quadrature target.  The one
quadrature scheme is Gauss-Legendre on panels cut into thirds until the
error bound below holds on each, so they grade geometrically toward the
poles near the path, and toward the start of the ray.  The same driver takes
`pv_quadrature`'s principal value on real panels centred on the poles,
where the +- pairs of Gauss nodes cancel each pole's odd part.

Error bound: each panel is summed once, at the smallest degree in
2..`_TOP_DEGREE` whose proved Gauss error bound is below its share eps 2^-4
of the series target.  The bound is (64/15) M rho^(-2n) / (1 - rho^-2)
times the panel's half-length, with M a closed-form bound on |f| over the
boundary of the panel's Bernstein ellipse E_rho, from float logarithms on 8
boxes covering it, and rho kept below the ellipse parameter of the nearest
pole that the panel does not cancel, and below a cap (`_rho_cap`).
err_estimate adds up these bounds, the kernel's rounding bound and the tail.

Fixed point: the quadrature computes on complex numbers given as pairs of
integers scaled by 2^P, from the panel frames and the Gauss-Legendre rules
through the integrand to the panel totals; only the final sums are rounded
into the guard context.  P = b + 48 follows the error target, not the
working precision: b is prec_bits, or the bits of eps plus 20 if fewer
(`_kernel_bits`), since no bound that a quadrature reports goes below a
panel's share eps 2^-4.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import lcm
from typing import Callable, List, NamedTuple, Tuple

from mpmath import MPContext, mpc, mpf
from mpmath.libmp import from_float, ln2_fixed, pi_fixed, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .errors import DomainError, NonConvergenceError, PoleProximityError
from .modpoint import _FIXED_BITS, PrecisionContext, _fixed, _from_fixed, _mp_context

__all__ = [
    "l_pair",
    "l_integral",
    "w2_integral",
    "w3_integral",
    "l_vector",
    "pv_sum",
    "pv_quadrature",
]


class QuadratureResult(NamedTuple):
    value: Tuple[mpc, ...]  # one integral per integrand component
    err_estimate: mpf  # proved bound for every component
    nodes_used: int  # integrand evaluations
    scheme: str  # always 'gauss_patch'


class RayIntegrand(NamedTuple):
    """Descriptor of a vector integrand f along a ray.

    func          integrand in the unrotated variable x, returning the tuple
                  of its components (all integrated on the same nodes) and a
                  bound on the error of each; x and every component are
                  fixed-point complex numbers, pairs (re, im) of integers
                  scaled by 2^P, P = `_kernel_bits` + 48, and the error bound is
                  an integer in units of 2^-P, covering a node displaced by
                  up to 8 units
    gauss_coeff   c with |f_j| <= bound_const * exp(-Re(c x^2)) on the ray
    bound         panel bound: bound(mid, half), the panel x = mid + half t,
                  t in [-1, 1], as complex floats, gives the candidate pairs
                  (rho, log M) with every |f_j| <= M on the boundary of the
                  panel's Bernstein ellipse E_rho, inside which every f_j is
                  analytic, save for a simple pole at the panel's centre
    bound_const   envelope constant for the cut/tail estimate, valid on this
                  ray only.  `_ray_integrand` takes 16 (1 + 1/sin beta), beta
                  the angle between the ray and the nearest pole line: each
                  N_j / D of a `_Family` is a sum of at most two terms
                  cosh(k z) / cosh(z) or sinh(k z) / sinh(z), |k| <= 1, with
                  z = u + iv = c alpha x, c > 0, on a ray at the angle beta
                  from the imaginary axis, the poles' line; say u >= 0.  For
                  u >= 1 a term is at most cosh(u) / sinh(u) <= 1/tanh 1.
                  For u < 1 its numerator is at most cosh 1, and every pole
                  lies at least (pi/2) sin beta from z, so with d the
                  distance from v to the height of the nearest, |cosh z|^2
                  and |sinh z|^2 are at least u^2 + (2 d / pi)^2 >=
                  sin^2 beta.  The one exception is sinh's removable zero at
                  z = 0 as the nearest: there |z|^2 < 1 + pi^2/4, and
                  sinh(z) / z >= prod (1 - |z|^2 / (pi m)^2) > 0.51 makes the
                  term at most 3.3.  So a term is at most 3.3 + 1.55/sin
                  beta, and a sum of two at most 16 (1 + 1/sin beta), with a
                  factor 2 to spare
    angle         the ray x = s e^{i angle}, s >= 0, that integrate_ray takes
    """

    func: Callable[[int, int], Tuple[Tuple[Tuple[int, int], ...], int]]
    gauss_coeff: mpc
    bound: Callable[[complex, complex], List[Tuple[float, float]]]
    bound_const: mpf = 16
    angle: mpf = 0


def _kernel_bits(ctx: PrecisionContext) -> int:
    """The bits b of the quadrature's fixed point P = b + 48 (`_FIXED_BITS`
    guard bits, for the node errors and the factor 1 + 1/|D|^2 of
    `_ray_integrand`): prec_bits, or the bits of eps, ceil(log2(1/eps)) and
    none for eps >= 1, plus 20 if fewer: the 16-bit guard that
    PrecisionContext keeps below eps and the 4 bits of a panel's share
    eps 2^-4.  No reported bound goes below that share, so bits past it
    would never reach a result."""
    man, exp = ctx.eps.man_exp  # eps = man 2^exp, man odd
    log2_inv_eps = 1 - exp - man.bit_length()  # ceil(log2(1/eps))
    return min(ctx.prec_bits, max(log2_inv_eps, 0) + 20)


def _gauss_size(degree: int) -> int:
    """The node count n = 3 * 2^(degree-1) of the Gauss rule of a degree."""
    return 3 << (degree - 1)


@functools.cache
def _gl_nodes(degree: int, prec: int):
    """The Gauss-Legendre rule of n = `_gauss_size(degree)` nodes on [-1, 1], as
    (node, weight) pairs of integers scaled by 2^(prec + 48), the fixed
    point of integrate_ray for prec = `_kernel_bits`, for degree >= 2.

    This is the Newton iteration of mpmath's `GaussLegendre.calc_nodes(degree,
    prec + 10)`, done on integers scaled by 2^wp with its 1.5x working bits
    wp: each root starts from the asymptotic formula cos(pi (j - 1/4) /
    (n + 1/2)), refined by Newton steps in floats to about 2^-50, the
    Legendre polynomial and its derivative come from the three-term
    recurrence, and the iteration stops once a Newton step a is below
    2^-(prec+18).  The weight takes P_n' at the root, first-order corrected
    for the last step: P_n'' = (2 r P_n' - n (n + 1) P_n) / (1 - r^2), so
    nodes and weights are within about a unit of 2^-(prec+48).  The pairs
    come in calc_nodes' order, (x_j, w_j) then (-x_j, w_j); the principal
    values rely on n even and on these +- pairs of equal weight: no node is
    a panel's centre, and a pole there cancels."""
    n = _gauss_size(degree)
    wp = int((prec + 10) * 1.5)
    one = 1 << wp
    step_floor = 1 << (wp - prec - 18)
    P = prec + _FIXED_BITS
    rule = []
    for j in range(1, n // 2 + 1):
        x = math.cos(math.pi * (j - 0.25) / (n + 0.5))
        while True:
            p1, p2 = 1.0, 0.0  # P_k(x) and P_{k-1}(x)
            for k in range(1, n + 1):
                p1, p2 = ((2 * k - 1) * x * p1 - (k - 1) * p2) / k, p1
            step = p1 * (x * x - 1) / (n * (x * p1 - p2))
            x -= step
            if abs(step) < 1e-12:
                break
        r = to_fixed(from_float(x), wp)
        while True:
            t1, t2 = one, 0  # P_k(r) and P_{k-1}(r)
            for k in range(1, n + 1):
                t1, t2 = ((2 * k - 1) * (r * t1 >> wp) - (k - 1) * t2) // k, t1
            # P_n'(r) = n (r P_n - P_{n-1}) / (r^2 - 1)
            dp = (n * ((r * t1 >> wp) - t2) << wp) // ((r * r >> wp) - one)
            a = (t1 << wp) // dp
            r -= a
            if abs(a) < step_floor:
                break
        dp -= a * ((2 * r * dp >> wp) - n * (n + 1) * t1) // (one - (r * r >> wp))
        w = (2 << 3 * wp) // ((one - (r * r >> wp)) * (dp * dp >> wp))
        node, weight = (r << P) >> wp, (w << P) >> wp
        rule += [(node, weight), (-node, weight)]
    return rule


# ---------------------------------------------------------------------------
# Bernstein-ellipse bounds: the degree of each panel, chosen before it is
# summed
# ---------------------------------------------------------------------------

_LOG_GAUSS = math.log(64 / 15)
_RHO_CAP = 1e3  # the least cap on the ellipses of a panel far from every pole
_TOP_DEGREE = 6  # the top of the Gauss ladder: a panel no degree up to it certifies is cut
_RADII = (0.45, 0.8, 0.95)  # candidate log rho / log rho_max
# added to every float log bound, for the rounding of its evaluation
_FLOAT_SLACK = 2.0 ** -20
# the (centre, half-width) of cos t and of sin t over each octant of t in
# [0, 2 pi], where both are monotone
_OCTANTS = tuple(((math.cos(t0) + math.cos(t1)) / 2, abs(math.cos(t1) - math.cos(t0)) / 2,
                  (math.sin(t0) + math.sin(t1)) / 2, abs(math.sin(t1) - math.sin(t0)) / 2)
                 for t0, t1 in ((k * math.pi / 4, (k + 1) * math.pi / 4) for k in range(8)))


def _log_target(ctx: PrecisionContext) -> float:
    """The log of a panel's share eps 2^-4 of the series target."""
    return float(ctx.mp.log(ctx.eps)) - 4 * math.log(2)


def _rho_cap(ctx: PrecisionContext, log_m: float) -> float:
    """The cap on the ellipses of a panel far from every pole: _RHO_CAP, or the
    least at which `_TOP_DEGREE` at cap^0.95 meets the panel share on short
    panels, where M half <= e^log_m; below it they would shrink like it."""
    log_cap = ((_LOG_GAUSS + log_m - _log_target(ctx))
               / (2 * _gauss_size(_TOP_DEGREE) * _RADII[-1]))
    return max(_RHO_CAP, math.exp(log_cap))


def _radii(lines, skip: int, mid: complex, half: complex, rho_cap: float) -> List[float]:
    """The candidate parameters rho of the ellipses of the panel
    x = mid + half t: fractions of rho_cap or of the ellipse parameter of
    the nearest pole m * line, line in lines, m >= 1 not divisible by skip,
    that the panel does not cancel; none when a pole lies on the panel.  A
    pole within 2^-30 of the half-width from the centre is cancelled by the
    +- node pairs (a principal value).  The nearest lies, on each line, next
    to the point that minimises the sum of the distances to the panel's
    ends, a convex function along the line."""
    mu, best = mid / half, rho_cap
    for line in lines:
        d = line / half  # the pole m sits at u = m d - mu
        e = d / abs(d)
        (ta, pa), (tb, pb) = ((z.real, abs(z.imag))
                              for z in ((f + mu) * e.conjugate() for f in (1, -1)))
        t = ta + (tb - ta) * pa / (pa + pb) if pa + pb else (ta + tb) / 2
        first = max(1, math.floor(t / abs(d)) - 3)
        for m in range(first, first + 7):
            u = m * d - mu
            if m % skip and abs(u) > 2 ** -30:
                # E_rho has foci +-1 and the sum of distances rho + 1/rho
                a = (abs(u - 1) + abs(u + 1)) / 2
                best = min(best, a + math.sqrt((a - 1) * (a + 1)))
    top = math.log(best)
    return [math.exp(f * top) for f in _RADII] if top > 0 else []


def _ellipse_boxes(rho: float):
    """Boxes (uc, du, vc, dv), u = U + iV with |U - uc| <= du and
    |V - vc| <= dv, covering the boundary of the Bernstein ellipse E_rho,
    u = (rho e^{it} + e^{-it} / rho) / 2, one per octant of t: cos t and
    sin t are monotone on an octant, so the box of its two ends holds the
    arc."""
    a, b = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
    return [(a * cm, a * cd, b * sm, b * sd) for cm, cd, sm, sd in _OCTANTS]


def _gauss_log_max(c2: complex, mu: complex, box) -> float:
    """max of Re(-c2 z^2), z = mu + u = x + iy, over the box of u, from the
    ranges of x^2 - y^2 and x y: the log of the Gaussian e^{-c x^2} on a
    panel x = mid + half u, with c2 = c half^2 and mu = mid / half."""
    uc, du, vc, dv = box
    x, y = abs(uc + mu.real), abs(vc + mu.imag)
    if c2.real > 0:  # the least x^2 - y^2
        out = -c2.real * (max(0.0, x - du) ** 2 - (y + dv) ** 2)
    else:
        out = -c2.real * ((x + du) ** 2 - max(0.0, y - dv) ** 2)
    if c2.imag:
        out += 2 * (c2.imag * (uc + mu.real) * (vc + mu.imag)
                    + abs(c2.imag) * (x * dv + y * du + du * dv))
    return out


def _cos_range(y0: float, y1: float) -> Tuple[float, float]:
    """(min, max) of cos on [y0, y1]."""
    c0, c1 = math.cos(y0), math.cos(y1)
    lo, hi = (c0, c1) if c0 < c1 else (c1, c0)
    turn = 2 * math.pi
    if math.floor(y1 / turn) != math.floor(y0 / turn):
        hi = 1.0
    if math.floor(y1 / turn - 0.5) != math.floor(y0 / turn - 0.5):
        lo = -1.0
    return lo, hi


def _panel_degree(candidates, log_half: float, log_target: float):
    """The smallest degree d in 2..`_TOP_DEGREE` whose Gauss bound on the
    panel is below the target, and the log of that bound; None when no
    degree meets it, and the panel must be cut (`_panels`).

    If f is analytic inside the Bernstein ellipse E_rho of [-1, 1] and
    |f| <= M there, its Chebyshev coefficients are |a_k| <= 2 M rho^-k.  The
    n-point Gauss-Legendre rule integrates T_k exactly for k < 2n and for
    every odd k, and |I(T_k) - I_n(T_k)| <= 2 + 2/(k^2 - 1) <= 32/15 for
    k >= 4, so the rule errs by at most (64/15) M rho^(-2n) / (1 - rho^-2)
    (the argument of Trefethen, "Is Gauss quadrature better than
    Clenshaw-Curtis?", SIAM Review 50, 2008, Theorem 4.5, whose sum over
    k >= 2n starts at rho^(-2n)); on the panel x = mid + half t that is
    |half| times as much.  With a simple pole at the centre the bound holds
    for the principal value, with M the maximum on the boundary: the rule's
    +- node pairs sum the even fold f(c + u) + f(c - u), which is analytic
    and at most 2M on E_rho, and the fold's integral is twice the principal
    value.  candidates are pairs (rho, log M), and a degree's bound is the
    least over them."""
    for degree in range(2, _TOP_DEGREE + 1):
        n = _gauss_size(degree)
        log_err = min((_LOG_GAUSS + log_half + log_m - 2 * n * math.log(rho)
                       - math.log1p(-rho ** -2) for rho, log_m in candidates),
                      default=math.inf)
        if log_err < log_target:
            return degree, log_err
    return None


# ---------------------------------------------------------------------------
# The quadrature driver
# ---------------------------------------------------------------------------

def _gauss_panels(f, frames, degrees, prec: int):
    """Gauss-Legendre integrals of every component of f over the panels, in
    integers scaled by 2^P, P = prec + 48, prec = `_kernel_bits`.

    A panel's frame ((mr, mi), (hr, hi)) maps t in [-1, 1] to the node
    m + h t, and f(re, im) returns the node's components as (re, im) pairs
    and their error bound in units of 2^-P.  Panel i is summed once, with the
    rule of degrees[i].  Returns (component totals as (re, im) pairs,
    rounding bound in units of 2^-P, evaluations of f).

    A panel's rounding bound is |h| times f's errors weighted by the rule,
    plus the rounding of the weights (a unit each, times |f|), plus a few
    units for the shifts."""
    P = prec + _FIXED_BITS
    parts, rounding, nodes = [], 0, 0
    for ((mr, mi), (hr, hi)), degree in zip(frames, degrees):
        rule = _gl_nodes(degree, prec)
        vals = [f(mr + (hr * t >> P), mi + (hi * t >> P)) for t, _ in rule]
        total = []
        for comp in zip(*(v for v, _ in vals)):
            sr, si = (sum(wt * v for (_, wt), v in zip(rule, part)) >> P
                      for part in zip(*comp))
            total.append((hr * sr - hi * si >> P, hr * si + hi * sr >> P))
        parts.append(total)
        spread = (sum(wt * e for (_, wt), (_, e) in zip(rule, vals))
                  + sum(abs(re) + abs(im) for v, _ in vals for re, im in v)) >> P
        rounding += ((abs(hr) + abs(hi)) * (spread + 3) >> P) + 3
        nodes += len(rule)
    totals = [tuple(map(sum, zip(*comp))) for comp in zip(*parts)]
    return totals, rounding, nodes


def _cut(bound_const, a_eff, quad_eps, mp: MPContext):
    """The cut c, in mp, past which the tail B e^{-a c^2} / (2 a c) of
    `_geometry` (B = bound_const, a = a_eff) is at most T = quad_eps 2^-10:
    c0 = sqrt(l / a), l = max(ln(B / T), 1), where the envelope B e^{-a x^2}
    is T or below, or where 2 a c0 < 1 (tiny alpha) sqrt((l - ln(2 a c0)) / a),
    where the tail is T c0 / c."""
    log_ratio = max(mp.log(bound_const / mp.ldexp(quad_eps, -10)), 1)
    cut = mp.sqrt(log_ratio / a_eff)
    if 2 * a_eff * cut < 1:
        cut = mp.sqrt((log_ratio - mp.log(2 * a_eff * cut)) / a_eff)
    return cut


def _geometry(integrand: RayIntegrand, ctx: PrecisionContext):
    """Rotation w, cut point and tail bound of the integrand's ray x = w s,
    s in [0, cut]."""
    mp = _mp_context(ctx.prec_bits + 16)
    w = mp.exp(1j * mp.mpf(integrand.angle))
    a_eff = (mp.convert(integrand.gauss_coeff) * w * w).real
    if not a_eff > 0:
        raise DomainError("Gaussian factor does not decay along this ray")
    bound = mp.convert(integrand.bound_const)
    cut = _cut(bound, a_eff, ctx.quad_eps, mp)
    # the envelope's integral past the cut, and |f| <= bound over the last
    # 2 units of 2^-P, where the rounded path of `_quadrature` ends
    tail = (bound * mp.exp(-a_eff * cut * cut) / (2 * a_eff * cut)
            + mp.ldexp(bound, 1 - _kernel_bits(ctx) - _FIXED_BITS))
    return w, cut, tail


def _panels(bound, w, points, ctx: PrecisionContext):
    """The panels along x = w s, s from points[0] to points[-1], as (frames,
    degrees, log_errs): panel i, the frame (mid, half), is summed at
    degrees[i] within e^log_errs[i].

    The ends start as the points rounded to even integers of 2^-P, P =
    `_kernel_bits` + 48, so every frame is exact.  A panel that no degree
    certifies (`_panel_degree`) is cut into thirds whose inner ends are its
    centre -+ a sixth, rounded to the centre's parity: a centred pole stays
    centred in the middle third, and a pole at |u| >= 2, u = (x - mid) /
    half, stays so of each third.  A failing panel whose thirds round onto
    its ends has a pole on or next to the path: PoleProximityError.  A side
    that rounds to a point integrates exactly to 0."""
    mp = _mp_context(ctx.prec_bits + 16)
    P = _kernel_bits(ctx) + _FIXED_BITS
    log_target = _log_target(ctx)
    ends = [tuple(v & ~1 for v in _fixed(w * x, P)) for x in points]
    todo = list(zip(ends, ends[1:]))[::-1]  # a stack, the next panel on top
    done = []  # (frame, degree, log_err) per panel
    while todo:
        a, b = todo.pop()
        mid = tuple(p + q >> 1 for p, q in zip(a, b))
        half = tuple(q - p >> 1 for p, q in zip(a, b))
        m, h = (complex(_from_fixed(z, P, mp, 53)) for z in (mid, half))
        chosen = (_panel_degree(bound(m, h), math.log(abs(h)), log_target)
                  if a != b else (2, -math.inf))
        if chosen is None:
            sixth = [(q - p) // 6 for p, q in zip(a, b)]
            t1, t2 = (tuple(c + sign * (e + (e - c) % 2) for c, e in zip(mid, sixth))
                      for sign in (-1, 1))
            if len({a, t1, t2, b}) < 4:
                raise PoleProximityError("no Gauss degree up to %d certifies a panel of a few "
                                         "units: a pole on or next to the path" % _TOP_DEGREE)
            todo += [(t2, b), (t1, t2), (a, t1)]
        else:
            done.append(((mid, half),) + chosen)
    return tuple(zip(*done))


def _quadrature(func, bound, w, points, tail, ctx: PrecisionContext) -> QuadratureResult:
    """Every component of the `RayIntegrand.func` func integrated along
    x = w s, s from points[0] to points[-1], with tail added to the error.

    The path is the polygon of the `_panels` panels, whose ends are rounded
    to 2^-P, P = `_kernel_bits` + 48.  By Cauchy's theorem its integral is the
    ray's, save for the last 2 units of 2^-P, which the tail must cover.
    `_gauss_panels` sums every panel once, at its degree.

    err_estimate is a proved bound: the sum of the panel bounds, the
    rounding bound of `_gauss_panels` and the tail.  Only the final sums
    are rounded, into the guard context 16 bits above the working
    precision; the value and the error are numbers of ctx.mp that keep
    those bits until their next operation."""
    mp = _mp_context(ctx.prec_bits + 16)
    b = _kernel_bits(ctx)
    P = b + _FIXED_BITS
    frames, degrees, log_errs = _panels(bound, w, points, ctx)
    totals, rounding, nodes_used = _gauss_panels(func, frames, degrees, b)
    err = (mp.fsum(mp.exp(x + _FLOAT_SLACK) for x in log_errs)
           + mp.ldexp(rounding, -P) + tail)
    if not err < ctx.quad_eps:
        raise NonConvergenceError(
            "quadrature error bound %s above target" % mp.nstr(err, 5)
        )
    value = tuple(_from_fixed(total, P, ctx.mp, mp.prec) for total in totals)
    return QuadratureResult(value, ctx.mp.convert(err), nodes_used, "gauss_patch")


def integrate_ray(integrand: RayIntegrand, ctx: PrecisionContext) -> QuadratureResult:
    """Integrate every component of integrand.func from 0 to infinity along
    the integrand's ray: the quadrature runs to the cut of `_geometry`,
    whose tail bound covers the rest."""
    w, cut, tail = _geometry(integrand, ctx)
    return _quadrature(integrand.func, integrand.bound, w, [0, cut], tail, ctx)


# ---------------------------------------------------------------------------
# The integrand family and the concrete integrals
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    """Integrands e^{-gauss a x^2} N_j(v) / D(v) with v = e^{-scale a x}.

    N_j (numerators, one per component) and D (denominator) are sparse
    polynomials given as (sign, exponent) pairs, sign +-1 and exponent a
    nonnegative integer.  |N_j(v) / D(v)| stays bounded along the ray, and
    the poles of the quotient lie at x = +-i m pole_step pi / a for the
    integers m >= 1 not divisible by skip.
    """

    gauss: Fraction
    scale: Fraction
    numerators: Tuple[Tuple[Tuple[int, int], ...], ...]
    denominator: Tuple[Tuple[int, int], ...]
    pole_step: Fraction
    skip: int


def _l_family(rs: Tuple[Fraction, ...]) -> _Family:
    """L(r, a) for every r in rs: the Gaussian e^{-(3/2) a x^2} times
    [cosh((3r-2)ax) + cosh((3r-1)ax)] / cosh((3/2)ax).

    With t = a x / n, n the common denominator, and m = 3n/2, each term is
    cosh(k t) / cosh(m t) = (v^{m-|k|} + v^{m+|k|}) / (1 + v^{2m})."""
    n = lcm(2, *((3 * r - c).denominator for r in rs for c in (1, 2)))
    m = 3 * n // 2
    numerators = []
    for r in rs:
        ks = [abs((3 * r - c) * n) for c in (2, 1)]
        if max(ks) > m:
            raise DomainError("l_integral needs 1/6 <= r <= 5/6")
        numerators.append(tuple((1, int(e)) for k in ks for e in (m - k, m + k)))
    return _Family(Fraction(3, 2), Fraction(1, n), tuple(numerators),
                   ((1, 0), (1, 2 * m)), Fraction(1, 3), 2)


_L_PAIR = (Fraction(1, 5), Fraction(2, 5))
# cosh(ax)/cosh(3ax) = v^2 / (1 - v^2 + v^4); the poles at odd multiples of
# pi/6a include the removable ones at odd multiples of pi/2a
_W2 = _Family(Fraction(3, 2), Fraction(1), (((1, 2),),),
              ((1, 0), (-1, 2), (1, 4)), Fraction(1, 6), 2)
# sinh(ax)/sinh(3ax) = v^2 / (1 + v^2 + v^4), 1/3 at x = 0
_W3 = _Family(Fraction(3), Fraction(1), (((1, 2),),),
              ((1, 0), (1, 2), (1, 4)), Fraction(1, 3), 3)


def _power_plan(exponents) -> List[Tuple[int, int, int]]:
    """Products (e, i, j), v^e = v^i * v^j, that build v^e for every given
    positive exponent from v^1: each exponent is its predecessor times the
    power of their gap, and each gap power is a product of two powers built
    before it (halving when there are none)."""
    exps = sorted(set(exponents) - {0})
    have = {1}
    plan = []

    def build(e, i=None):
        if e not in have:
            if i is None:
                i = next((i for i in sorted(have, reverse=True) if e - i in have),
                         e // 2)
                build(i)
                build(e - i)
            plan.append((e, i, e - i))
            have.add(e)

    for g in sorted({b - a for a, b in zip([0] + exps, exps)}):
        build(g)
    for a, b in zip(exps, exps[1:]):
        build(b, a)
    return plan


def _family_bound(family: _Family, gausses, scale: complex, lines, rho_cap: float):
    """`RayIntegrand.bound` of the family with the Gaussians e^{-gauss x^2},
    gauss in gausses, v = e^{-scale x} and the poles m * line, line in lines,
    m >= 1 not divisible by family.skip (complex floats), on ellipses up to
    rho_cap.

    Normalised by v^-c, c half the degree of D, the quotient is
    v^-c N_j(v) / D~ with D~ = v^-c D(v) = 2 cosh(c tau) - 2 cos(phi), tau =
    scale x: L is cosh(15 tau) (cos(phi) = 0), W2 2 cosh(2 tau) - 1 and W3
    2 cosh(2 tau) + 1.  On a box with X = Re tau, Y = Im tau:
    - |v^-c N_j| <= T (e^{kX} + e^{-kX}), T the number of terms and k the
      largest |c - e| over the numerators;
    - |D~|^2 / 16 = S^2 + S (1 - C cos(phi)) + (C - cos(phi))^2 / 4 with
      S = sinh^2(c X / 2) and C = cos(c Y), whose least value over the box
      takes the least S and the quadratic's least C; far from the imaginary
      axis, |D~| >= 2 sinh(c |X|) - 2 |cos(phi)|;
    - every family has cos(phi) = 0 or constant numerators, and k <= c, so
      the quotient's bound falls as |X| grows: its value at the box's least
      |X| bounds the box.
    Each Gaussian takes its box maximum (`_gauss_log_max`), and the box
    the worst of them, so that M bounds the components of every Gaussian;
    rho stays below the ellipse parameter of the nearest lattice pole that
    the panel does not cancel (`_radii`)."""
    c = max(e for _, e in family.denominator) / 2
    cos_phi = -sum(sign for sign, e in family.denominator if e == c) / 2
    k = max(abs(c - e) for terms in family.numerators for _, e in terms)
    log_terms = math.log(max(map(len, family.numerators)))

    def log_max(mid, half, rho):
        t_mid, t_half = scale * mid, scale * half
        tr, ti = t_half.real, t_half.imag
        c2s, mu = [gauss * half * half for gauss in gausses], mid / half
        worst = -math.inf
        for box in _ellipse_boxes(rho):
            uc, du, vc, dv = box
            # the ranges of tau = t_mid + t_half u over the box
            x = max(0.0, abs(t_mid.real + tr * uc - ti * vc) - abs(tr) * du - abs(ti) * dv)
            z = c * x
            if z > 20:
                log_den = z + math.log1p(-math.exp(-2 * z) - 2 * abs(cos_phi) * math.exp(-z))
            else:
                y, dy = t_mid.imag + ti * uc + tr * vc, abs(ti) * du + abs(tr) * dv
                s = math.sinh(z / 2) ** 2
                lo, hi = _cos_range(c * (y - dy), c * (y + dy))
                cc = min(max(cos_phi * (1 + 2 * s), lo), hi)
                q = (s * s + s * (1 - cc * cos_phi) + (cc - cos_phi) ** 2 / 4
                     - 2.0 ** -50 * (1 + s) ** 2)
                if not q > 0:
                    return math.inf
                log_den = math.log(4) + math.log(q) / 2
            log_num = log_terms + k * x + math.log1p(math.exp(-2 * k * x))
            log_gauss = max(_gauss_log_max(c2, mu, box) for c2 in c2s)
            worst = max(worst, log_gauss + log_num - log_den)
        return worst

    return lambda mid, half: [(rho, log_max(mid, half, rho))
                              for rho in _radii(lines, family.skip, mid, half, rho_cap)]


def _ray_direction(alpha: mpc, mp: MPContext):
    """(arg z, sin beta) of the ray of `_ray_integrand` in z = alpha x:
    theta/2, theta = arg alpha, on the steepest-descent ray, where the pole
    lines on the imaginary axis lie at beta = (pi - |theta|)/2 from it, and
    +-3 pi/8, beta = pi/8, once the ray turns."""
    theta = mp.arg(alpha)
    if mp.pi / 8 - (mp.pi - abs(theta)) / 2 > 0:
        return mp.sign(theta) * 3 * mp.pi / 8, mp.sin(mp.pi / 8)
    return theta / 2, mp.cos(theta / 2)


def _ray_integrand(family: _Family, alpha: mpc, ctx: PrecisionContext,
                   *others: mpc) -> RayIntegrand:
    """The family at alpha, and at each parameter of others whose ray in
    z = alpha x is alpha's (`_integrate_family`), with its envelope and
    panel bound (`_family_bound`), which alone knows the pole lattice.  In
    alpha's variable x, with r = alpha / a, the integral at a is r times
    that of e^{-gauss r x^2} N_j(v) / D(v), v = e^{-scale x}, gauss and
    scale the family's at alpha: func returns these components, alpha's
    (r = 1) first, then each other's in turn.

    The integrand computes in integers scaled by 2^P, P = `_kernel_bits` + 48:
    x, the constants -scale and -gauss r, every intermediate and the
    components are fixed-point complex numbers, the exponentials come from
    mpmath's fixed-point basecases (`exp_fixed` for the modulus,
    `cos_sin_fixed` for the phase), v^e from `_power_plan`'s products, and
    N_j(v) / D(v) from one integer division by |D|^2.  A node costs one
    exponential for v and one per Gaussian.  The constants come from alpha
    at P + 8 bits: near a pole 1/|D| amplifies their rounding.

    The ray, recorded as the integrand's angle, is the steepest-descent
    ray -theta/2, theta = arg alpha, turned on by delta = max(0, pi/8 -
    (pi - |theta|)/2) away from the nearest pole line (`_ray_direction`):
    |arg(alpha x)| = |theta|/2 - delta < pi/2, at beta = (pi - |theta|)/2 +
    delta >= pi/8 from the pole lines on the imaginary axis, and gauss x^2
    has the argument -+2 delta, 2 delta < pi/4, so the Gaussian decays at
    the rate |gauss| cos(2 delta).  bound_const is 16 (1 + 1/sin beta)
    (`RayIntegrand`); the cut and the slope below take the slowest rate
    Re(gauss r w^2), w the ray's direction, over the Gaussians.

    This is safe on that ray: there Re(scale x) >= 0 and every Re(gauss r
    x^2) >= 0, so every |v^e| <= 1 and each Gaussian is at most 1, and no
    intermediate outgrows a few bits above 2^P.  Each product and each
    basecase is off by a few units of 2^-P, v^e by about 4 (e + 1) units, so
    D and N_j are off by dD and dN units, and each component by about
    (3 dD T + dN) / |D|^2 units, T the numerator's number of terms.  A node
    displaced by 8 units moves a component by 8 |f'| <= 8 slope / |D|^2,
    with |N_j|, |D| at most their numbers of terms, |N_j'|, |D'| at most
    |scale| times their exponent sums and the Gaussian's derivative at most
    2 |gauss r| cut, the largest |gauss r|.  The error returned with each
    node is the sum of both, twice over, times 1 + 1/|D|^2.  D has no zero on
    the ray: each pole line lies at the angle beta from it."""
    mp = ctx.mp
    ratios = (1,) + tuple(alpha / a for a in others)
    gausses = [family.gauss.numerator * alpha * r / family.gauss.denominator for r in ratios]
    scale = family.scale.numerator * alpha / family.scale.denominator
    plan = _power_plan(e for terms in family.numerators + (family.denominator,)
                       for _, e in terms)
    P = _kernel_bits(ctx) + _FIXED_BITS
    ln2, half_pi = ln2_fixed(P), pi_fixed(P - 1)
    exact = _mp_context(P + 8)
    alpha_exact = exact.convert(alpha)
    sr, si = _fixed(-family.scale.numerator * alpha_exact / family.scale.denominator, P)
    gauss_fixed = [_fixed(-family.gauss.numerator * alpha_exact * exact.convert(r)
                          / family.gauss.denominator, P) for r in ratios]
    one = 1 << P

    theta = mp.arg(alpha)
    direction, sin_beta = _ray_direction(alpha, mp)
    angle = direction - theta
    const = 16 * (1 + 1 / sin_beta)
    w = mp.exp(1j * angle)
    gauss = min(gausses, key=lambda g: (g * w * w).real)  # the slowest decay
    cut = _cut(const, (gauss * w * w).real, ctx.quad_eps, mp)
    d_err = 4 * sum(e + 1 for _, e in family.denominator)
    n_err = 4 * max(sum(e + 1 for _, e in terms) for terms in family.numerators)
    n_terms, d_terms = max(map(len, family.numerators)), len(family.denominator)
    exponents = max(sum(e for _, e in terms)
                    for terms in family.numerators + (family.denominator,))
    slope = (2 * max(map(abs, gausses)) * cut * n_terms * d_terms
             + abs(scale) * exponents * (n_terms + d_terms))
    node_err = 2 * (3 * d_err * n_terms + n_err + int(mp.ceil(8 * slope))) + 64

    def cexp(re, im):
        """e^{(re + i im) 2^-P} scaled by 2^P."""
        modulus = exp_fixed(re, P, ln2)
        c, s = cos_sin_fixed(im, P, half_pi)
        return modulus * c >> P, modulus * s >> P

    def poly(powers, terms):
        re = im = 0
        for sign, e in terms:
            pr, pim = powers[e]
            re, im = re + sign * pr, im + sign * pim
        return re, im

    def f(xr, xi):
        powers = {0: (one, 0), 1: cexp(sr * xr - si * xi >> P, sr * xi + si * xr >> P)}
        for e, i, j in plan:
            (ar, ai), (br, bi) = powers[i], powers[j]
            powers[e] = ar * br - ai * bi >> P, ar * bi + ai * br >> P
        x2r, x2i = xr * xr - xi * xi >> P, 2 * xr * xi >> P
        dr, di = poly(powers, family.denominator)
        inv = (1 << 3 * P) // (dr * dr + di * di)
        numerators = [poly(powers, terms) for terms in family.numerators]
        out = []
        for gr, gi in gauss_fixed:
            hr, hi = cexp(gr * x2r - gi * x2i >> P, gr * x2i + gi * x2r >> P)
            # h = e^{-gauss r x^2} / D = e^{-gauss r x^2} conj(D) / |D|^2
            hr, hi = (hr * dr + hi * di) * inv >> 2 * P, (hi * dr - hr * di) * inv >> 2 * P
            out += [(hr * nr - hi * ni >> P, hr * ni + hi * nr >> P) for nr, ni in numerators]
        return tuple(out), node_err * (1 + (inv >> P))

    step = family.pole_step.numerator * mp.pi / (family.pole_step.denominator * abs(alpha))
    line = complex(step * (1j * mp.exp(-1j * theta)))
    bound = _family_bound(family, [complex(g) for g in gausses], complex(scale),
                          [line, -line], _rho_cap(ctx, float(mp.log(const))))
    return RayIntegrand(f, gauss, bound, const, angle)


def _integrate_family(family: _Family, alphas,
                      ctx: PrecisionContext) -> List[Tuple[Tuple[mpc, ...], mpf]]:
    """(component values, err_estimate) of the family at each alpha in alphas.

    The parameters whose rays in z = alpha x coincide share one quadrature
    (`_ray_integrand`), in the first one's variable x: the directions that
    `_ray_direction` gives are compared as they are, so that no ray is
    deformed across a sector where another's Gaussian grows; the upper and
    the lower laterals never share.  The quadrature's bound holds for the
    integrands of every parameter, and parameter a reports it times
    |alpha_0 / a|, alpha_0 the first of its ray."""
    mp = ctx.mp
    alphas = [mp.mpc(alpha) for alpha in alphas]
    for alpha in alphas:
        if alpha == 0:
            raise DomainError("the integrals need alpha != 0")
        if not abs(mp.arg(alpha)) < mp.pi:
            raise DomainError("the integrals need |arg alpha| < pi")
    directions = [_ray_direction(alpha, mp)[0] for alpha in alphas]
    n = len(family.numerators)
    out = [None] * len(alphas)
    for direction in dict.fromkeys(directions):
        ray = [i for i, d in enumerate(directions) if d == direction]
        first = alphas[ray[0]]
        res = integrate_ray(_ray_integrand(family, first, ctx, *(alphas[i] for i in ray[1:])),
                            ctx)
        for j, i in enumerate(ray):
            values, err = res.value[j * n:(j + 1) * n], res.err_estimate
            if j:  # alpha_i's integral, in alpha_0's variable
                ratio = first / alphas[i]
                values, err = tuple(ratio * v for v in values), abs(ratio) * err
            out[i] = values, err
    return out


def l_pair(alpha, ctx: PrecisionContext) -> Tuple[Tuple[mpc, mpc], mpf]:
    """((L(1/5, alpha), L(2/5, alpha)), err_estimate) from one quadrature:
    the two integrands share their nodes, and the error bound holds for both."""
    return _integrate_family(_l_family(_L_PAIR), [alpha], ctx)[0]


def l_integral(r, alpha, ctx: PrecisionContext) -> Tuple[mpc, mpf]:
    """integral_0^inf e^{-(3/2) a x^2} [cosh((3r-2)ax) + cosh((3r-1)ax)]
    / cosh((3/2) a x) dx for a = alpha, |arg alpha| < pi, 1/6 <= r <= 5/6.

    Returns (value, err_estimate).  The contour is the ray of
    `_ray_integrand`; the quotient's poles sit at i*pi*(2k+1)/(3 alpha) and
    stay at least the angle pi/8 from it.  r = 1/5 and r = 2/5 are
    components of `l_pair`, so asking for both costs two quadratures; call
    `l_pair` once instead.
    """
    r = Fraction(r)
    if r in _L_PAIR:
        values, err = l_pair(alpha, ctx)
        return values[_L_PAIR.index(r)], err
    values, err = _integrate_family(_l_family((r,)), [alpha], ctx)[0]
    return values[0], err


def w3_integral(alpha, ctx: PrecisionContext) -> Tuple[mpc, mpf]:
    """integral_0^inf e^{-3 a x^2} sinh(ax)/sinh(3ax) dx, |arg alpha| < pi."""
    values, err = _integrate_family(_W3, [alpha], ctx)[0]
    return values[0], err


def w2_integral(alpha, ctx: PrecisionContext) -> Tuple[mpc, mpf]:
    """integral_0^inf e^{-(3/2) a x^2} cosh(ax)/cosh(3ax) dx, |arg alpha| < pi."""
    values, err = _integrate_family(_W2, [alpha], ctx)[0]
    return values[0], err


# ---------------------------------------------------------------------------
# The two-component integral vector
# ---------------------------------------------------------------------------

def _scaled_integral(family: _Family, k, c: int, alphas,
                     ctx: PrecisionContext) -> List[Tuple[Tuple[mpc, ...], mpf]]:
    """(sign sqrt(|c| alpha/pi) times each component of the family at
    k alpha, err_estimate) for each alpha in alphas, sign that of c, from
    the quadratures of `_integrate_family`.  The quadrature's bound holds
    for each component, and err_estimate counts it once per component."""
    mp = ctx.mp
    alphas = [mp.mpc(alpha) for alpha in alphas]
    out = []
    for alpha, (values, err) in zip(alphas, _integrate_family(
            family, [alpha * k for alpha in alphas], ctx)):
        pref = mp.sqrt(abs(c) * alpha / mp.pi)
        pref = pref if c > 0 else -pref
        out.append((tuple(pref * v for v in values), abs(pref) * (len(values) * err)))
    return out


# the family, alpha scale and c of the integral vector
_L_VECTOR = (_l_family(_L_PAIR), 10, 135)


def l_vector(alpha, ctx: PrecisionContext) -> Tuple[Tuple[mpc, mpc], mpf]:
    """(sqrt(135 alpha/pi) * (L(1/5, 10 alpha), L(2/5, 10 alpha)),
    err_estimate) from one quadrature."""
    return _scaled_integral(*_L_VECTOR, [alpha], ctx)[0]


# ---------------------------------------------------------------------------
# Principal-value identity: sum form and quadrature form
# ---------------------------------------------------------------------------

def pv_sum(a, p, t, ctx: PrecisionContext):
    """sum_k (-1)^k [e^{-(a-(2k+1)p)^2/(4pt)} + e^{-(a+(2k+1)p)^2/(4pt)}].

    Requires Re t > 0; converges super-exponentially.  The sum stops on the
    Gaussian envelope, never on a small term: with c = Re(1/t)/(4p), once
    m = (2k+1)p >= |a| every later term is at most 2 e^{-c (m' - |a|)^2}, and
    m' - |a| grows by 2p per term, so the terms after k are bounded by
    2 e^{-c (m - |a|)^2} / (1 - e^{-p Re(1/t)}), which must be below
    eps 2^-8."""
    mp = ctx.mp
    a, p, t = mp.mpf(a), mp.mpf(p), mp.mpc(t)
    if not p > 0:
        raise DomainError("p must be positive")
    if not t.real > 0:
        raise DomainError("pv_sum requires Re t > 0")
    threshold = ctx.eps * mp.mpf(2) ** -8
    c = (1 / t).real / (4 * p)
    ratio = 1 - mp.exp(-4 * c * p * p)
    total = mp.mpc(0)
    for k in range(100_000):
        sgn = -1 if k % 2 else 1
        m = (2 * k + 1) * p
        term = mp.exp(-((a - m) ** 2) / (4 * p * t)) + mp.exp(-((a + m) ** 2) / (4 * p * t))
        total += sgn * term
        if m >= abs(a) and 2 * mp.exp(-c * (m - abs(a)) ** 2) < threshold * ratio:
            break
    else:
        raise NonConvergenceError("pv_sum did not converge")
    if t.imag == 0:
        return total.real
    return total


def pv_quadrature(a, p, t, ctx: PrecisionContext):
    """sqrt(4pt/pi) * PV integral_0^inf e^{-p t x^2} cos(ax)/cos(px) dx, t > 0.

    This is the quadrature side of the Gaussian-secant principal-value
    identity whose closed form is pv_sum; the Gaussian must carry p*t for the
    two sides to coincide (with p/t instead they agree only at t = 1).

    It is one `_quadrature` on the panels [2kh, 2(k+1)h], h = pi/(2p), each
    centred on one pole (2k+1)h: the +- node pairs of every `_gl_nodes` rule
    miss the pole and cancel its odd part pair by pair, so each panel's sum
    is the principal value; a panel cut into thirds keeps its pole centred
    in the middle one.  Each panel's degree comes from the bound on |f| on
    the boundary of its Bernstein ellipses, rho below the ellipse parameter
    of the nearest pole not at its centre (`_radii`), 2 + sqrt 3 for the
    neighbours at u = +-2 of a whole segment: |cos(ax)| <= cosh(a y)
    and |cos(px)|^2 = cos^2(p Re x) + sinh^2(p y), y = Im x, on 8 boxes.
    Each node is computed 16 bits above the quadrature's `_kernel_bits` b,
    and its error bound counts the roundings of p t x^2, of p x and of a x,
    1/|cos(px)| amplifying the last two near the pole, and a node displaced
    by 8 units of 2^-P, P = b + 48.  The
    panels stop at the first k >= 2 whose Gaussian envelope, the tail, is
    below eps * 2^-8."""
    mp = _mp_context(ctx.prec_bits + 16)
    a, p, t = (mp.convert(ctx.mp.mpf(v)) for v in (a, p, t))
    if not (p > 0 and t > 0):
        raise DomainError("pv_quadrature requires p > 0 and real t > 0")
    h, pt = mp.pi / (2 * p), p * t
    threshold = ctx.eps * mp.mpf(2) ** -8
    for k in range(2, 100_000):
        # the integrand is even in a
        envelope = (h * (mp.pi / p) * (2 * pt * (2 * k + 1) * h + abs(a))
                    * mp.exp(-pt * (2 * k * h) ** 2))
        if envelope < threshold:
            break
    else:
        raise NonConvergenceError("pv segments did not converge")
    b = _kernel_bits(ctx)
    P = b + _FIXED_BITS
    node = _mp_context(b + 16)
    fa, fp, fpt, fh = float(abs(a)), float(p), float(pt), float(h)
    # |f| half <= 4/p on short panels: |cos(px)| >= 2p/pi times the pole's distance
    rho_cap = _rho_cap(ctx, math.log(4 / fp))

    def f(xr, xi):  # the panels are real: xi is 0
        x = node.ldexp(xr, -P)
        gauss, cos_px = node.exp(-x * x * pt), node.cos(x * p)
        v = gauss * node.cos(x * a) / cos_px
        value = _fixed(node.mpc(v), P)
        fx, fv, fg, slope = float(x), abs(float(v)), float(gauss), 1 / abs(float(cos_px))
        # in units of 2^-(b+16): the roundings of the node's operations, of
        # p t x^2, and of p x and a x, which 1/|cos(px)| amplifies
        rounding = 8 * (fv * (1 + fpt * fx * fx + fp * fx * slope) + fa * fx * fg * slope)
        slide = 8 * (fv * (2 * fpt * fx + fp * slope) + fa * fg * slope)
        return (value,), int(math.ldexp(rounding, P - b - 16) + slide) + 2

    def bound(mid, half):
        mid, half = mid.real, half.real
        c2, mu = complex(fpt * half * half), complex(mid / half)

        def log_max(rho):
            worst = -math.inf
            for box in _ellipse_boxes(rho):
                uc, du, vc, dv = box
                lo, hi = _cos_range(fp * (mid + half * (uc - du)), fp * (mid + half * (uc + du)))
                cos2 = 0.0 if lo <= 0 <= hi else min(lo * lo, hi * hi)
                den = cos2 + math.sinh(fp * half * max(0.0, abs(vc) - dv)) ** 2
                if not den > 0:
                    return math.inf
                y = half * (abs(vc) + dv)
                log_cosh = fa * y + math.log1p(math.exp(-2 * fa * y)) - math.log(2)
                worst = max(worst, _gauss_log_max(c2, mu, box) + log_cosh - math.log(den) / 2)
            return worst

        return [(rho, log_max(rho)) for rho in _radii((fh, -fh), 2, mid, half, rho_cap)]

    # the tail: the envelope, and |f| <= 1 at the end 2 (k + 1) h, where
    # cos(p x) = +-1, over the last 2 units of 2^-P
    res = _quadrature(f, bound, mp.mpc(1), [2 * j * h for j in range(k + 2)],
                      envelope + mp.ldexp(1, 2 - P), ctx)
    return ctx.mp.sqrt(4 * pt / mp.pi) * res.value[0].real
