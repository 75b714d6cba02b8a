"""The verification engine: every transformation law and structural relation
as a residual-producing check, plus the mixing/phase matrix algebra, the
Wronskian machinery, and suite aggregation into serializable reports.

Each check covers one grid point (or one fixed configuration) and computes
every integral it needs exactly once; nothing is cached between checks.  It
returns entries carrying an absolute residual, a relative residual, and a
certified error budget assembled from the series tails and
quadrature error bounds that went into the evaluation (scaled by the
prefactors they pass through).  An entry passes while its residual stays
within 100x its budget; the acceptance thresholds are enforced on top of
that by the test suite.

The order-5 laws are one law, the integral vector against the series side of
`mordell._law_rhs`, read at alpha and at alpha/2, so they hold on both sides
of the natural boundary |q| = 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from mpmath import mpc, mpf

from .errors import DomainError
from .matrices import (
    identity2,
    mat_mul,
    mat_neg,
    mat_norm,
    mat_pow,
    mat_sub,
    mat_vec,
    mixing_matrix,
    phase_matrix,
)
from .modpoint import PrecisionContext, power_from_alpha
from .mordell import _law_rhs, l_vector, stokes_decompose, w2_integral, w3_integral
from .qseries import MockThetaId, _euler_function, eval_mock, eta, theta

__all__ = [
    "CheckEntry",
    "IdentityReport",
    "SuiteReport",
    "SUITES",
    "check_mf5",
    "check_stokes",
    "check_mf3",
    "check_eta_theta",
    "check_growth_omega",
    "group_relations",
    "check_wronskian_suite",
    "run_suite",
    "suite_report_to_json",
    "mixing_matrix",
    "phase_matrix",
]

WRONSKIAN_SEED = 20260808


@dataclass(frozen=True)
class CheckEntry:
    identity: str
    point: Optional[mpc]
    abs_residual: mpf
    rel_residual: mpf
    budget: mpf
    passed: bool
    detail: Optional[dict] = None


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    entries: Tuple[CheckEntry, ...]
    max_abs: mpf
    all_pass: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    prec_bits: int
    eps: mpf
    quad_eps: mpf
    identities: Tuple[IdentityReport, ...]
    all_pass: bool


def _entry(identity, point, residual, scale, budget, ctx, detail=None) -> CheckEntry:
    mp = ctx.mp
    residual, scale, budget = mp.mpf(residual), mp.mpf(scale), mp.mpf(budget)
    rel = residual / scale if scale > 0 else residual
    return CheckEntry(
        identity=identity,
        point=None if point is None else mp.mpc(point),
        abs_residual=residual,
        rel_residual=rel,
        budget=budget,
        passed=bool(residual <= 100 * budget),
        detail=detail,
    )


def _round_slop(ctx, scale):
    return ctx.mp.mpf(scale) * ctx.mp.mpf(2) ** (-ctx.prec_bits + 16)


# ---------------------------------------------------------------------------
# Order-5 checks
# ---------------------------------------------------------------------------

def check_mf5(alpha, ctx: PrecisionContext) -> List[CheckEntry]:
    """Every order-5 law at one point, each integral computed once.

    - mf5_matrix: the compact matrix form, the integral vector at alpha
      against the series side K(Q) + sqrt(pi/alpha) M K(Q1) of
      `mordell._law_rhs`;
    - mf5_scalar_0/1: the two scalar laws relating the order-5 pair at q to
      its values at q1^4 plus the L integrals at 5 alpha, which are the two
      components of the matrix law at alpha/2 (there Q = q and Q1 = q1^4);
    - l_vector_consistency: the modular consistency of the integral vector
      under alpha -> pi^2/alpha;
    - l_vector_fixed_point: at alpha = pi also the (1 - M) annihilation.

    `_law_rhs` continues K across |B| = 1, so every law holds with
    Re alpha < 0 too.
    """
    mp = ctx.mp
    alpha = mp.mpc(alpha)
    _, _, res, scale, budget = _matrix_law(alpha / 2, ctx)
    out = [_entry("mf5_scalar_%d" % j, alpha, res[j], scale, budget, ctx)
           for j in range(2)]
    ((l1, l2), err), root, res, scale, budget = _matrix_law(alpha, ctx)
    out.append(_entry("mf5_matrix", alpha, max(res), scale, budget, ctx))

    # modular consistency of the integral vector (same scale)
    alpha_s = mp.pi**2 / alpha
    # alpha = pi is mapped to itself exactly: one quadrature serves both
    vs, err_s = ((l1, l2), err) if alpha_s == alpha else l_vector(alpha_s, ctx)
    mixed = mat_vec(mixing_matrix(ctx), vs)
    res = max(abs(l1 - root * mixed[0]), abs(l2 - root * mixed[1]))
    budget = err + abs(root) * err_s + _round_slop(ctx, scale)
    out.append(_entry("l_vector_consistency", alpha, res, scale, budget, ctx))
    res_fp = _fixed_point_residual(alpha, (l1, l2), ctx)
    if res_fp is not None:
        budget_fp = 2 * err + _round_slop(ctx, scale)
        out.append(_entry("l_vector_fixed_point", alpha,
                          res_fp, scale, budget_fp, ctx))
    return out


def _matrix_law(alpha, ctx: PrecisionContext):
    """The order-5 matrix law at alpha, l_vector(alpha) against
    `_law_rhs(alpha)`: (l_vector(alpha), sqrt(pi/alpha), the residual of
    each component, the scale and the budget)."""
    mp = ctx.mp
    lv = l_vector(alpha, ctx)
    (l1, l2), err = lv
    rhs, root, s1, s2 = _law_rhs(alpha, ctx)
    res = (abs(l1 - rhs[0]), abs(l2 - rhs[1]))
    scale = max(abs(l1), abs(l2), mp.mpf(1))
    budget = ctx.eps * (s1 + 2 * abs(root) * s2) + err + _round_slop(ctx, scale)
    return lv, root, res, scale, budget


def _fixed_point_residual(alpha, v, ctx: PrecisionContext) -> Optional[mpf]:
    """max_j |((1 - M) v)_j| for the integral vector v at alpha, which
    vanishes at the fixed point alpha = pi; None away from it."""
    mp = ctx.mp
    if not abs(alpha - mp.pi) < mp.mpf(2) ** -20:
        return None
    v = mat_vec(mat_sub(identity2(), mixing_matrix(ctx)), v)
    return max(abs(v[0]), abs(v[1]))


def check_stokes(abs_alpha, ctx: PrecisionContext) -> List[CheckEntry]:
    """Lateral-limit residuals at pi - |theta| = 0.2, 0.1, 0.05, 0.025,
    extrapolated to the Stokes line, against the predictions of
    `stokes_decompose`: the order-5 matrix law's series side at
    alpha = -|alpha|.  The entry records the matched lateral sign and the
    residual tables."""
    mp = ctx.mp
    eps_seq = [mp.mpf(e) for e in ("0.2", "0.1", "0.05", "0.025")]
    dec = stokes_decompose(abs_alpha, eps_seq, ctx)
    res = max(dec.extrap_residual_real, dec.extrap_residual_imag)
    scale = max(abs(dec.extrapolated[0]), abs(dec.extrapolated[1]), mp.mpf(1))
    # extrapolation error dominates; its a-posteriori Neville estimate
    # (full table vs table with the coarsest point dropped) is the budget
    budget = (4 * dec.extrap_err_estimate + 16 * dec.quad_budget
              + ctx.eps * 64 + _round_slop(ctx, scale))
    detail = {
        "matched_sign": dec.matched_sign,
        "re_residuals": [mp.nstr(r, 8) for r in dec.re_residuals],
        "im_residuals": [mp.nstr(r, 8) for r in dec.im_residuals],
        "extrap_residual_real": mp.nstr(dec.extrap_residual_real, 8),
        "extrap_residual_imag": mp.nstr(dec.extrap_residual_imag, 8),
    }
    return [_entry("mf5_stokes", mp.mpc(abs_alpha), res, scale,
                   budget, ctx, detail)]


# ---------------------------------------------------------------------------
# Order-3 checks
# ---------------------------------------------------------------------------

def check_mf3(alpha, ctx: PrecisionContext) -> List[CheckEntry]:
    """Every order-3 law at one point, each integral computed once.

    - mf3_omega: q^{2/3} w(-q) + sqrt(pi/a) q1^{2/3} w(-q1) - sqrt(12a/pi) W3(a);
    - mf3_omega_f: q^{2/3} w(q) - sqrt(pi/4a) q1^{-1/12} f(q1^2)
      + sqrt(3a/pi) W2(a/2);
    - mf3_alternative: the variant decomposition of sqrt(12a/pi) W3 through
      rho and xi.  All fractional powers go through alpha, so xi is
      evaluated at -exp(-alpha/3), never at a complex cube root.
    """
    mp = ctx.mp
    alpha = mp.mpc(alpha)
    w3, e3 = w3_integral(alpha, ctx)
    w2, e2 = w2_integral(alpha / 2, ctx)
    q = mp.exp(-alpha)
    q_two_thirds = power_from_alpha(alpha, "q", Fraction(2, 3), ctx)
    root = mp.sqrt(mp.pi / alpha)
    om = MockThetaId(3, "omega")
    out = []

    # omega at -q and -q1 against W3
    q1 = mp.exp(-mp.pi**2 / alpha)
    t1 = q_two_thirds * eval_mock(om, -q, ctx)
    t2 = root * power_from_alpha(alpha, "q1", Fraction(2, 3), ctx) * eval_mock(om, -q1, ctx)
    c = mp.sqrt(12 * alpha / mp.pi)
    res = abs(t1 + t2 - c * w3)
    scale = max(abs(t1), abs(t2), abs(c * w3), mp.mpf(1))
    budget = ctx.eps * (1 + abs(root)) + abs(c) * e3 + _round_slop(ctx, scale)
    out.append(_entry("mf3_omega", alpha, res, scale, budget, ctx))

    # omega at q and f at Q1 against W2
    Q1 = power_from_alpha(alpha, "Q1", 1, ctx)
    t1 = q_two_thirds * eval_mock(om, q, ctx)
    p = power_from_alpha(alpha, "q1", Fraction(-1, 12), ctx)
    t2 = mp.sqrt(mp.pi / (4 * alpha)) * p * eval_mock(MockThetaId(3, "f"), Q1, ctx)
    c2 = mp.sqrt(3 * alpha / mp.pi)
    res = abs(t1 - t2 + c2 * w2)
    scale = max(abs(t1), abs(t2), abs(c2 * w2), mp.mpf(1))
    budget = (ctx.eps * (1 + abs(mp.sqrt(mp.pi / (4 * alpha))) * abs(p))
              + abs(c2) * e2 + _round_slop(ctx, scale))
    out.append(_entry("mf3_omega_f", alpha, res, scale, budget, ctx))

    # rho and xi against W3
    rho = MockThetaId(3, "rho")
    xi = MockThetaId(3, "xi")

    def bracket(expo_alpha):
        # q^{2/3} [-rho(-q) + (1/2) q^{-2/3} xi(-q^{1/3})] at q = exp(-expo)
        q = mp.exp(-expo_alpha)
        q13 = mp.exp(-expo_alpha / 3)
        q23 = mp.exp(-2 * expo_alpha / 3)
        return q23 * (-eval_mock(rho, -q, ctx)) + eval_mock(xi, -q13, ctx) / 2

    b_q = bracket(alpha)
    b_q1 = bracket(mp.pi**2 / alpha)
    res = abs(c * w3 - b_q - root * b_q1)
    scale = max(abs(c * w3), abs(b_q), abs(root * b_q1), mp.mpf(1))
    budget = (ctx.eps * 3 * (1 + abs(root)) + abs(c) * e3
              + _round_slop(ctx, scale))
    out.append(_entry("mf3_alternative", alpha, res, scale, budget, ctx))
    return out


def check_growth_omega(alpha_grid, ctx: PrecisionContext) -> List[CheckEntry]:
    """No-growth statistic |a|^{1/2} |q1|^{1/12} |w(e^{-a})| along a ray grid
    in the sector |arg a| <= pi/3.

    The entry's residual is the excess of max(small-|a| half) over twice
    max(large-|a| half), zero when the bound statistic shows no trend."""
    mp = ctx.mp
    theta0 = mp.pi / 3
    stats = []
    for alpha in alpha_grid:
        alpha = mp.mpc(alpha)
        if abs(mp.arg(alpha)) > theta0 + mp.mpf(2) ** -30:
            raise DomainError("grid point outside the sector")
        q = mp.exp(-alpha)
        q1_mag = abs(mp.exp(-mp.pi**2 / alpha))
        s = (mp.sqrt(abs(alpha)) * q1_mag ** (mp.mpf(1) / 12)
             * abs(eval_mock(MockThetaId(3, "omega"), q, ctx)))
        stats.append((abs(alpha), s))
    stats.sort(key=lambda t: t[0], reverse=True)
    half = len(stats) // 2
    larger = max(s for _, s in stats[:half])
    smaller = max(s for _, s in stats[half:])
    ratio = smaller / larger
    res = max(mp.mpf(0), ratio - 2)
    detail = {
        "ratio": mp.nstr(ratio, 8),
        "stats": [[mp.nstr(m, 8), mp.nstr(s, 8)] for m, s in stats],
    }
    ray = mp.arg(mp.mpc(alpha_grid[0]))
    point = mp.mpc(mp.cos(ray), mp.sin(ray))
    return [CheckEntry("mf3_growth", point, res, ratio / 2, mp.mpf(1),
                       bool(ratio <= 2), detail)]


# ---------------------------------------------------------------------------
# Eta / theta checks
# ---------------------------------------------------------------------------

def check_eta_theta(tau, ctx: PrecisionContext) -> List[CheckEntry]:
    """Transformation residuals for eta and theta3 plus the chain
    theta3(1 - 1/z) = theta4(-1/z) = sqrt(-iz) theta2(z) and the product
    lower bound on |theta3(1 - 1/z)|."""
    mp = ctx.mp
    tau = mp.mpc(tau)
    e_tau = eta(tau, ctx)
    entries = []

    res = abs(eta(tau + 1, ctx) - mp.exp(mp.pi * 1j / 12) * e_tau)
    scale = max(abs(e_tau), mp.mpf(1))
    budget = 2 * ctx.eps + _round_slop(ctx, scale)
    entries.append(_entry("eta_T", tau, res, scale, budget, ctx))

    root = mp.sqrt(-1j * tau)
    res = abs(eta(-1 / tau, ctx) - root * e_tau)
    budget = ctx.eps * (1 + abs(root)) + _round_slop(ctx, scale)
    entries.append(_entry("eta_S", tau, res, scale, budget, ctx))

    t3 = theta(3, tau, ctx)
    scale3 = max(abs(t3), mp.mpf(1))
    res = abs(theta(3, tau + 2, ctx) - t3)
    entries.append(_entry("theta3_T", tau, res, scale3,
                          2 * ctx.eps + _round_slop(ctx, scale3), ctx))
    res = abs(theta(3, -1 / tau, ctx) - root * t3)
    entries.append(_entry("theta3_S", tau, res, scale3,
                          ctx.eps * (1 + abs(root)) + _round_slop(ctx, scale3), ctx))

    # chain at z = tau
    z = tau
    rootz = mp.sqrt(-1j * z)
    lhs = theta(3, 1 - 1 / z, ctx)
    mid = theta(4, -1 / z, ctx)
    rhs = rootz * theta(2, z, ctx)
    res = max(abs(lhs - mid), abs(mid - rhs))
    scale_c = max(abs(lhs), abs(mid), abs(rhs), mp.mpf(1))
    entries.append(_entry("theta_chain", tau, res, scale_c,
                          ctx.eps * (2 + abs(rootz)) + _round_slop(ctx, scale_c), ctx))

    # product-form lower bound |theta3(1-1/z)| >= c |z|^{1/2} |q1z|^{1/4}
    aq = abs(mp.exp(mp.pi * 1j * z))
    prod = _euler_function(aq**2, ctx).real ** 3
    bound = 2 * prod * mp.sqrt(abs(z)) * aq ** mp.mpf("0.25")
    res = max(mp.mpf(0), bound - abs(lhs))
    entries.append(_entry("theta3_lower", tau, res, max(bound, mp.mpf(1)),
                          ctx.eps * 4 + _round_slop(ctx, scale_c), ctx,
                          detail={"bound": mp.nstr(bound, 8),
                                  "value": mp.nstr(abs(lhs), 8)}))
    return entries


# ---------------------------------------------------------------------------
# Group relations and Wronskian machinery
# ---------------------------------------------------------------------------

def group_relations(ctx: PrecisionContext) -> List[CheckEntry]:
    """Matrix-norm residuals of D^20 = M^2 = (-M D)^3 = identity."""
    M = mixing_matrix(ctx)
    D = phase_matrix(ctx)
    one = identity2()
    slop = _round_slop(ctx, 64)
    out = []
    for name, A, n in (("group_D20", D, 20), ("group_M2", M, 2),
                       ("group_MD3", mat_neg(mat_mul(M, D)), 3)):
        res = mat_norm(mat_sub(mat_pow(A, n), one))
        out.append(_entry(name, None, res, ctx.mp.mpf(1), slop, ctx))
    return out


def _q_basis(tau, n: int, ctx: PrecisionContext):
    """For v0 and v1: the pairs (Q^s, 2 pi i s) at tau, s = m - 1/20 resp.
    m - 9/20 for m < n.  d/dtau of Q^s is 2 pi i s Q^s."""
    mp = ctx.mp
    alpha = -mp.pi * 1j * mp.mpc(tau)
    two_pi_i = 2 * mp.pi * 1j
    return tuple([(power_from_alpha(alpha, "Q", s, ctx),
                   two_pi_i * (mp.mpf(s.numerator) / s.denominator))
                  for s in (m + shift for m in range(n))]
                 for shift in (Fraction(-1, 20), Fraction(-9, 20)))


def _v_vector(h0, h1, basis, ctx: PrecisionContext):
    """v = (Q^{-1/20} H0(Q), Q^{-9/20} H1(Q)) and its Wronskian
    W = v0 dv1/dtau - dv0/dtau v1, from the _q_basis of at least
    max(len(h0), len(h1)) terms at tau.

    H0, H1 are finite Q-polynomials with rational coefficients; derivatives
    are exact term-wise."""
    mp = ctx.mp
    vals = []
    ders = []
    for coeffs, powers in zip((h0, h1), basis):
        v = dv = mp.mpc(0)
        for c, (power, d) in zip(coeffs, powers):
            c = Fraction(c)
            if c == 0:
                continue
            term = (mp.mpf(c.numerator) / c.denominator) * power
            v += term
            dv += d * term
        vals.append(v)
        ders.append(dv)
    return vals, vals[0] * ders[1] - ders[0] * vals[1]


def _pair_laws(h0, h1, tau, bases, eta12s,
               ctx: PrecisionContext) -> List[CheckEntry]:
    """The laws of one pair at tau, from the _q_basis at tau and at tau+1:
    v(tau+1) = D v(tau), W(tau+1) = -W(tau) and, given eta^12 at both
    points (eta12s), the invariance G(tau+1) = G(tau) of G = W^3 / eta^12."""
    mp = ctx.mp
    (v, w), (v1, w1) = (_v_vector(h0, h1, basis, ctx) for basis in bases)
    dvv = mat_vec(phase_matrix(ctx), v)
    res_v = max(abs(v1[0] - dvv[0]), abs(v1[1] - dvv[1]))
    res_w = abs(w1 + w)
    scale_v = max(abs(v[0]), abs(v[1]), mp.mpf(1))
    scale_w = max(abs(w), mp.mpf(1))
    n_terms = len(h0) + len(h1)
    slop_v = _round_slop(ctx, scale_v * max(4, n_terms))
    slop_w = _round_slop(ctx, scale_w * max(16, 4 * n_terms))
    out = [
        _entry("wronskian_v_T", tau, res_v, scale_v, slop_v, ctx),
        _entry("wronskian_w_T", tau, res_w, scale_w, slop_w, ctx),
    ]
    if eta12s is not None:
        g0, g1 = w**3 / eta12s[0], w1**3 / eta12s[1]
        scale = max(abs(g0), mp.mpf(1))
        budget = ctx.eps * 24 * scale + _round_slop(ctx, scale * max(64, 16 * n_terms))
        out.append(_entry("g_T_invariance", tau, abs(g1 - g0), scale, budget, ctx))
    return out


def check_wronskian_suite(ctx: PrecisionContext) -> List[CheckEntry]:
    """The canonical pair (H0, H1) = (1, Q) plus 50 seeded random rational
    pairs of degree 8, all at tau = 0.2 + 1.1i; the reported entries carry
    the worst residual over all pairs."""
    n_pairs, degree = 50, 8
    tau = ctx.mp.mpc("0.2", "1.1")
    # every pair is evaluated at tau and tau+1 on the same Q-powers
    bases = [_q_basis(t, degree + 1, ctx) for t in (tau, tau + 1)]
    eta12s = [eta(t, ctx) ** 12 for t in (tau, tau + 1)]
    rng = random.Random(WRONSKIAN_SEED)
    worst: Dict[str, CheckEntry] = {}

    def absorb(h0, h1):
        for e in _pair_laws(h0, h1, tau, bases, eta12s, ctx):
            cur = worst.get(e.identity)
            if cur is None or e.abs_residual > cur.abs_residual:
                worst[e.identity] = e

    absorb([1], [0, 1])
    for _ in range(n_pairs):
        h0 = [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
              for _ in range(degree + 1)]
        h1 = [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
              for _ in range(degree + 1)]
        absorb(h0, h1)
    detail = {"pairs": n_pairs + 1, "degree": degree, "seed": WRONSKIAN_SEED}
    return [replace(e, detail=detail)
            for e in sorted(worst.values(), key=lambda e: e.identity)]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

SUITES = ("mf5", "mf5_stokes", "mf3", "theta_eta", "algebra", "wronskian", "all")


def _alpha_grid(mp):
    return [mp.pi, mp.mpf(1), mp.mpf(2), mp.mpf("0.5"), mp.mpc(1, "0.5"), mp.mpc(2, 1)]


def _stokes_moduli(mp):
    return [mp.mpf(1), +mp.pi]


def _mf3_grid(mp):
    return [mp.pi, mp.mpf(1), mp.mpf(2), mp.mpc(1, "0.4")]


def _tau_grid(mp):
    return [mp.mpc(0, 1), mp.mpc(0, 2), mp.mpc(1, 3), mp.mpc("0.2", "1.1")]


def _growth_grid(mp):
    moduli = [mp.mpf(m) for m in (1, "0.5", "0.25", "0.1", "0.05", "0.02")]
    rays = [mp.mpf(0), mp.pi / 6, mp.pi / 3]
    return rays, moduli


def _suite_table():
    """(suite, check, default grid) in the order `all` runs them: the check
    runs once per grid point, or once with no point where the grid is None.

    Built per call, so that it holds the module's current bindings."""
    return (
        ("mf5", check_mf5, _alpha_grid),
        ("mf5_stokes", check_stokes, _stokes_moduli),
        ("mf3", check_mf3, _mf3_grid),
        ("theta_eta", check_eta_theta, _tau_grid),
        ("algebra", group_relations, None),
        ("wronskian", check_wronskian_suite, None),
    )


def run_suite(suite: str, grid=None, ctx: Optional[PrecisionContext] = None) -> SuiteReport:
    """Run the named verification suite and aggregate an ordered report.

    grid replaces the default grid of a single suite; `all` runs every
    suite on its default grid.  The mf3 suite also runs the growth check on
    its own rays.  A failed check is recorded as one `<check>_error` entry,
    with the grid point it was called at and its error message, rather than
    aborting the suite."""
    ctx = ctx or PrecisionContext()
    if suite not in SUITES:
        raise DomainError("unknown suite %r (choose from %s)" % (suite, (SUITES,)))
    mp = ctx.mp
    entries: List[CheckEntry] = []

    def run(fn, *args, point=None):
        try:
            entries.extend(fn(*args))
        except Exception as exc:  # recorded, not fatal
            entries.append(CheckEntry(
                identity="%s_error" % fn.__name__,
                point=None if point is None else mp.mpc(point),
                abs_residual=mp.inf, rel_residual=mp.inf,
                budget=mp.zero, passed=False,
                detail={"error": "%s: %s" % (type(exc).__name__, exc)}))

    for name, check, default_grid in _suite_table():
        if suite not in (name, "all"):
            continue
        if default_grid is None:
            run(check, ctx)
            continue
        for point in grid if suite == name and grid is not None else default_grid(mp):
            run(check, point, ctx, point=point)
        if name == "mf3":
            rays, moduli = _growth_grid(mp)
            for ray in rays:
                alpha_grid = [m * mp.exp(1j * ray) for m in moduli]
                run(check_growth_omega, alpha_grid, ctx)

    return _aggregate(suite, entries, ctx)


def _aggregate(suite: str, entries: List[CheckEntry],
               ctx: PrecisionContext) -> SuiteReport:
    mp = ctx.mp

    def point_key(e: CheckEntry):
        if e.point is None:
            return ("", "")
        return (mp.nstr(e.point.real, 20), mp.nstr(e.point.imag, 20))

    by_name: Dict[str, List[CheckEntry]] = {}
    for e in entries:
        by_name.setdefault(e.identity, []).append(e)
    reports = []
    for name in sorted(by_name):
        es = sorted(by_name[name], key=point_key)
        finite = [e.abs_residual for e in es if mp.isfinite(e.abs_residual)]
        max_abs = max(finite) if finite else mp.inf
        reports.append(IdentityReport(
            identity_name=name,
            entries=tuple(es),
            max_abs=max_abs,
            all_pass=all(e.passed for e in es),
        ))
    return SuiteReport(
        suite=suite,
        prec_bits=ctx.prec_bits,
        eps=ctx.eps,
        quad_eps=ctx.quad_eps,
        identities=tuple(reports),
        all_pass=all(r.all_pass for r in reports),
    )


# ---------------------------------------------------------------------------
# Serialization (deterministic: fixed digit count, canonical ordering)
# ---------------------------------------------------------------------------

def _digits(prec_bits: int) -> int:
    return -(-prec_bits * 302 // 1000)  # ceil(prec_bits * 0.302)


def _fmt(x, ctx: PrecisionContext) -> str:
    """x rounded to the working precision, in ceil(prec_bits * 0.302) digits."""
    return ctx.mp.nstr(ctx.mp.mpf(x), _digits(ctx.prec_bits))


def _fmt_c(z, ctx: PrecisionContext) -> dict:
    z = ctx.mp.mpc(z)
    return {"re": _fmt(z.real, ctx), "im": _fmt(z.imag, ctx)}


def _entry_dict(e: CheckEntry, ctx: PrecisionContext) -> dict:
    d = {"point": None if e.point is None else _fmt_c(e.point, ctx)}
    for key in ("abs_residual", "rel_residual", "budget"):
        d[key] = _fmt(getattr(e, key), ctx)
    d["pass"] = e.passed
    if e.detail and "error" in e.detail:
        d["error"] = e.detail["error"]
    return d


def identity_report_to_dict(rep: IdentityReport, ctx: PrecisionContext) -> dict:
    d = {
        "identity": rep.identity_name,
        "prec_bits": ctx.prec_bits,
        "eps": _fmt(ctx.eps, ctx),
        "entries": [_entry_dict(e, ctx) for e in rep.entries],
        "max_abs": _fmt(rep.max_abs, ctx),
        "all_pass": rep.all_pass,
    }
    signs = sorted({e.detail["matched_sign"] for e in rep.entries
                    if e.detail and "matched_sign" in e.detail})
    if signs:
        d["lateral_sign"] = signs
    return d


def suite_report_to_json(rep: SuiteReport, ctx: PrecisionContext) -> str:
    doc = {
        "suite": rep.suite,
        "prec_bits": rep.prec_bits,
        "eps": _fmt(rep.eps, ctx),
        "quad_eps": _fmt(rep.quad_eps, ctx),
        "identities": [identity_report_to_dict(r, ctx) for r in rep.identities],
        "all_pass": rep.all_pass,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
