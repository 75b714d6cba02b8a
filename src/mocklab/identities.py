"""The verification engine: every transformation law and structural relation
as a residual-producing check, plus the Wronskian machinery, the Stokes-line
decomposition, and suite aggregation into serializable reports.

Matrices are tuples of rows of any size, vectors tuples of components; the
checks multiply them with `_apply`, `_mat_mul` and `_mat_pow`, and the
order-5 mixing and phase matrices (`mixing_matrix`, `phase_matrix`) live
here.

Each check covers one grid point (or one fixed configuration) and computes
every integral it needs exactly once; nothing is cached between checks.  It
returns entries carrying an absolute residual, a relative residual, and a
certified error budget assembled from the series tails and
quadrature error bounds that went into the evaluation (scaled by the
prefactors they pass through).  An entry passes while its residual stays
within 100x its budget; the acceptance thresholds are enforced on top of
that by the test suite.

Every order-3/5 law is one row of `_LAWS`, an integral against a q-side and
a q1-side series, and one evaluator (`_law`) gives every row's residual and
budget.  `check_mf5`, `check_mf3` and the predictions of `stokes_decompose`
read the table through it.  The order-5 row continues past |q| = 1.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from mpmath import MPContext, mpc, mpf

from .errors import DomainError, ExtrapolationInstability
from .modpoint import _FIXED_BITS, PrecisionContext, _fixed, _from_fixed, power_from_alpha
from .mordell import _L_VECTOR, _W2, _W3, _Family, _scaled_integral
from .qseries import MockThetaId, _euler_function, eval_mock, eta, k_pair, theta, unary_x

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
    "StokesDecomposition",
    "stokes_decompose",
    "neville_extrapolate",
]

WRONSKIAN_SEED = 20260808
STOKES_EPS_SEQ = ("0.2", "0.1", "0.05", "0.025")  # pi - |theta| of check_stokes' laterals


class CheckEntry(NamedTuple):
    identity: str
    point: Optional[mpc]
    abs_residual: mpf
    rel_residual: mpf
    budget: mpf
    passed: bool
    detail: Optional[dict] = None


class IdentityReport(NamedTuple):
    identity_name: str
    entries: Tuple[CheckEntry, ...]
    max_abs: mpf
    all_pass: bool


class SuiteReport(NamedTuple):
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
    """scale * 2^(16 - prec_bits), exact."""
    return ctx.mp.ldexp(ctx.mp.mpf(scale), 16 - ctx.prec_bits)


# ---------------------------------------------------------------------------
# Matrices: tuples of rows, of any size
# ---------------------------------------------------------------------------

def mixing_matrix(ctx: PrecisionContext):
    """(2/sqrt5) * [[sin(pi/5), sin(2pi/5)], [sin(2pi/5), -sin(pi/5)]].

    An involution: M^2 = 1, det M = -1, trace 0, eigenvalues +-1.
    """
    mp = ctx.mp
    c = 2 / mp.sqrt(5)
    s1 = mp.sin(mp.pi / 5)
    s2 = mp.sin(2 * mp.pi / 5)
    return ((c * s1, c * s2), (c * s2, -c * s1))


def phase_matrix(ctx: PrecisionContext):
    """diag(e^{-pi i/10}, e^{-9 pi i/10}); det = -1."""
    mp = ctx.mp
    return (
        (mp.exp(-mp.pi * 1j / 10), mp.mpc(0)),
        (mp.mpc(0), mp.exp(-9 * mp.pi * 1j / 10)),
    )


def _apply(A, v):
    """The vector A v."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def _mat_mul(A, B):
    """The matrix A B: each row of A applied to the columns of B."""
    columns = tuple(zip(*B))
    return tuple(_apply(columns, row) for row in A)


def _mat_pow(A, n: int):
    """A^n by repeated squaring, from the integer identity."""
    rows = range(len(A))
    out = tuple(tuple(int(i == j) for j in rows) for i in rows)
    while n:
        if n & 1:
            out = _mat_mul(out, A)
        A = _mat_mul(A, A)
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# The law table
# ---------------------------------------------------------------------------

class _Law(NamedTuple):
    """A row of `_LAWS`: sign sqrt(|c| alpha/pi) F(k alpha) = S(alpha) +
    sqrt(pi/alpha) A T(pi^2/alpha), F a `mordell` family and c signed.  S and
    T map (alpha, ctx) to their components and the modulus by which an eps
    error of their series reaches them; A maps ctx to the matrix that mixes
    T, one row per component.  T None is S, A None the identity."""

    family: _Family
    k: float
    c: int
    S: Callable
    T: Optional[Callable]
    A: Optional[Callable]


def _k_side(alpha, ctx: PrecisionContext):
    """(Q^{-1/120} K0(Q), Q^{-49/120} K1(Q)) at Q = e^{-2 alpha}.

    K = (2 - chi0(Q), -Q chi1(Q)) for |Q| < 1; past the natural boundary
    |Q| > 1 it continues as (3/2) (X0(1/Q), X1(1/Q))."""
    Q = power_from_alpha(alpha, "Q", 1, ctx)
    p0 = power_from_alpha(alpha, "Q", Fraction(-1, 120), ctx)
    p1 = power_from_alpha(alpha, "Q", Fraction(-49, 120), ctx)
    if abs(Q) < 1:
        k0, k1 = k_pair(Q, ctx)
        return (p0 * k0, p1 * k1), abs(p0) + abs(p1) * abs(Q)
    u = power_from_alpha(alpha, "Q", -1, ctx)
    k0, k1 = (3 * unary_x(which, u, ctx) / 2 for which in ("X0", "X1"))
    return (p0 * k0, p1 * k1), 3 * (abs(p0) + abs(p1)) / 2


def _order3_side(*terms):
    """The side sum_j c_j q^{r_j} f_j(s_j q^{e_j}), q = e^{-alpha}, of the
    terms (c, r, f, s, e).  Every power goes through alpha, so xi is taken
    at -e^{-alpha/3}, never at a complex cube root."""
    def side(alpha, ctx: PrecisionContext):
        value = weight = 0
        for c, r, name, s, e in terms:
            p = c * power_from_alpha(alpha, "q", r, ctx)
            nome = s * power_from_alpha(alpha, "q", e, ctx)
            value += p * eval_mock(MockThetaId(3, name), nome, ctx)
            weight += abs(p)
        return (value,), weight
    return side


_LAWS = {
    # sqrt(135a/pi) (L(1/5, 10a), L(2/5, 10a)) = K(Q) + sqrt(pi/a) M K(Q1);
    # the scalar laws are this row at a/2, where Q = q and Q1 = q1^4
    "mf5": _Law(*_L_VECTOR, _k_side, None, mixing_matrix),
    # sqrt(12a/pi) W3(a) = q^{2/3} w(-q) + sqrt(pi/a) q1^{2/3} w(-q1)
    "mf3_omega": _Law(_W3, 1, 12, _order3_side((1, Fraction(2, 3), "omega", -1, 1)),
                      None, None),
    # -sqrt(3a/pi) W2(a/2) = q^{2/3} w(q) - (1/2) sqrt(pi/a) q1^{-1/12} f(Q1)
    "mf3_omega_f": _Law(_W2, 0.5, -3, _order3_side((1, Fraction(2, 3), "omega", 1, 1)),
                        _order3_side((-0.5, Fraction(-1, 12), "f", 1, 2)), None),
    # sqrt(12a/pi) W3(a) = B(q) + sqrt(pi/a) B(q1),
    # B(q) = -q^{2/3} rho(-q) + (1/2) xi(-q^{1/3})
    "mf3_alternative": _Law(_W3, 1, 12, _order3_side((-1, Fraction(2, 3), "rho", -1, 1),
                                                     (0.5, 0, "xi", -1, Fraction(1, 3))),
                            None, None),
}


def _series_side(law: _Law, alpha, ctx: PrecisionContext):
    """(S(alpha) + sqrt(pi/alpha) A T(pi^2/alpha), the modulus of its largest
    term, eps (weight_S + |sqrt(pi/alpha)| ||A|| weight_T)), ||A|| the
    largest row sum of |A|."""
    mp = ctx.mp
    alpha = mp.mpc(alpha)
    s, weight_s = law.S(alpha, ctx)
    t, weight_t = (law.T or law.S)(mp.pi**2 / alpha, ctx)
    root = mp.sqrt(mp.pi / alpha)
    A = law.A(ctx) if law.A else ((1,),)
    q1_terms = tuple(root * x for x in _apply(A, t))
    norm = max(sum(abs(a) for a in row) for row in A)
    size = max(abs(x) for x in s + q1_terms)
    side = tuple(x + y for x, y in zip(s, q1_terms))
    return side, size, ctx.eps * (weight_s + abs(root) * norm * weight_t)


def _law(name: str, alpha, integral, ctx: PrecisionContext):
    """The row `name` of `_LAWS` at alpha: (the residual of each component,
    the scale, the budget).  integral is the row's integral side at alpha,
    (values, err) of `mordell._scaled_integral`, which the check computes
    once.  The scale is the largest term on either side; the budget adds
    the series' and the integral's errors and the rounding of the scale."""
    mp = ctx.mp
    law = _LAWS[name]
    lhs, err = integral
    side, size, series_err = _series_side(law, alpha, ctx)
    scale = max(size, mp.mpf(1), *(abs(v) for v in lhs))
    res = tuple(abs(v - w) for v, w in zip(lhs, side))
    return res, scale, series_err + err + _round_slop(ctx, scale)


# ---------------------------------------------------------------------------
# Order-5 checks
# ---------------------------------------------------------------------------

def check_mf5(alpha, ctx: PrecisionContext) -> List[CheckEntry]:
    """Every order-5 law at one point, each integral computed once.

    - mf5_matrix: the "mf5" row of `_LAWS` at alpha;
    - mf5_scalar_0/1: the two components of that row at alpha/2;
    - l_vector_consistency: the modular consistency of the integral vector
      under alpha -> pi^2/alpha;
    - l_vector_fixed_point: where alpha maps to itself, also the (1 - M)
      annihilation.

    The integral vectors at alpha and at alpha/2 lie on one ray in
    z = alpha x and come from one quadrature; the vector at pi^2/alpha
    takes its own.
    """
    mp = ctx.mp
    alpha = mp.mpc(alpha)
    vec, half = _scaled_integral(*_L_VECTOR, [alpha, alpha / 2], ctx)
    res, scale, budget = _law("mf5", alpha / 2, half, ctx)
    out = [_entry("mf5_scalar_%d" % j, alpha, r, scale, budget, ctx)
           for j, r in enumerate(res)]
    res, scale, budget = _law("mf5", alpha, vec, ctx)
    out.append(_entry("mf5_matrix", alpha, max(res), scale, budget, ctx))

    # modular consistency of the integral vector; at the fixed point the
    # vector at pi^2/alpha is the one at alpha
    v, err = vec
    dual = mp.pi**2 / alpha
    vs, err_s = vec if dual == alpha else _scaled_integral(*_L_VECTOR, [dual], ctx)[0]
    root = mp.sqrt(mp.pi / alpha)
    mixed = _apply(mixing_matrix(ctx), vs)
    res = max(abs(x - root * y) for x, y in zip(v, mixed))
    scale = max(mp.mpf(1), *(abs(x) for x in v))
    budget = err + abs(root) * err_s + _round_slop(ctx, scale)
    out.append(_entry("l_vector_consistency", alpha, res, scale, budget, ctx))
    res_fp = _fixed_point_residual(alpha, v, ctx)
    if res_fp is not None:
        budget_fp = 2 * err + _round_slop(ctx, scale)
        out.append(_entry("l_vector_fixed_point", alpha,
                          res_fp, scale, budget_fp, ctx))
    return out


def _fixed_point_residual(alpha, v, ctx: PrecisionContext) -> Optional[mpf]:
    """max_j |(v - M v)_j| for the integral vector v at alpha, which
    vanishes at the fixed point of alpha -> pi^2/alpha; None unless alpha
    maps to itself to within the rounding of pi^2/alpha, a few ulps (pi^2/pi
    rounds one ulp off pi at some precisions, 200 bits among them)."""
    mp = ctx.mp
    alpha = mp.mpc(alpha)
    if abs(mp.pi**2 / alpha - alpha) > 4 * mp.eps * abs(alpha):
        return None
    return max(abs(x - y) for x, y in zip(v, _apply(mixing_matrix(ctx), v)))


# ---------------------------------------------------------------------------
# Stokes-line decomposition
# ---------------------------------------------------------------------------

def neville_extrapolate(xs: Sequence[mpf], ys: Sequence):
    """Polynomial extrapolation of (xs, ys) to 0 (full Neville table)."""
    n = len(xs)
    t = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            t[i] = (xs[i] * t[i - 1] - xs[i - j] * t[i]) / (xs[i] - xs[i - j])
    return t[-1]


class StokesDecomposition(NamedTuple):
    """Lateral values of the integral vector near the Stokes line, and the
    predictions of their limit: the matrix law's series side at
    alpha = -|alpha|, split into pred_real and pred_imag.

    matched_sign s records which lateral carries which jump: the upper
    lateral (theta = +(pi - eps)) satisfies Im V -> s * (imag prediction).
    """

    abs_alpha: mpf
    eps_seq: Tuple[mpf, ...]
    extended_eps: Tuple[mpf, ...]
    lateral_values: Tuple[Tuple[mpc, ...], ...]
    re_residuals: Tuple[mpf, ...]
    im_residuals: Tuple[mpf, ...]
    extrapolated: Tuple[mpc, ...]
    extrap_err_estimate: mpf
    pred_real: Tuple[mpf, ...]
    pred_imag: Tuple[mpf, ...]
    extrap_residual_real: mpf
    extrap_residual_imag: mpf
    matched_sign: int
    quad_budget: mpf


def _extend_eps(eps_seq: Sequence[mpf], mp: MPContext):
    ext = list(eps_seq)
    while ext[-1] / 2 >= mp.mpf("0.002"):
        ext.append(ext[-1] / 2)
    return ext


def stokes_decompose(abs_alpha, eps_seq, ctx: PrecisionContext) -> StokesDecomposition:
    """Lateral limits at theta = pi - eps, extrapolated to the Stokes line.

    eps_seq must be strictly decreasing in 0 < eps <= pi/2.  Residuals are
    reported at the requested eps values, and they must decrease along it
    (ExtrapolationInstability otherwise); the extrapolation itself continues
    the sequence by halving while it stays >= 2e-3 and runs a full Richardson
    (Neville) table, which is what pushes the extrapolated residual far below
    the lateral ones.

    The predictions are the real and imaginary parts of the series side of
    the "mf5" row of `_LAWS` at alpha = -|alpha|, where K continues as
    (3/2) X(1/B)."""
    mp = ctx.mp
    a = mp.mpf(abs_alpha)
    if a <= 0:
        raise DomainError("abs_alpha must be positive")
    eps_list = [mp.mpf(e) for e in eps_seq]
    if not eps_list:
        raise DomainError("eps_seq must be nonempty")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise DomainError("eps_seq must be strictly decreasing")
    if not (0 < eps_list[-1] and eps_list[0] <= mp.pi / 2):
        raise DomainError("eps_seq must lie in 0 < eps <= pi/2")
    extended = _extend_eps(eps_list, mp)

    # the laterals on one ray in z = alpha x share one quadrature
    laterals, errs = zip(*_scaled_integral(
        *_L_VECTOR, [a * mp.exp(1j * (mp.pi - e)) for e in extended], ctx))
    budget = max(errs)

    # at alpha = -a, K is real and sqrt(pi/alpha) = +i sqrt(pi/a)
    side = _series_side(_LAWS["mf5"], -a, ctx)[0]
    pred_real = tuple(v.real for v in side)
    pred_imag = tuple(v.imag for v in side)

    requested = laterals[:len(eps_list)]
    re_res = tuple(max(abs(x.real - p) for x, p in zip(v, pred_real)) for v in requested)
    im_res = tuple(
        min(max(abs(x.imag - s * p) for x, p in zip(v, pred_imag)) for s in (1, -1))
        for v in requested
    )
    for seq in (re_res, im_res):
        if any(r2 >= r1 for r1, r2 in zip(seq, seq[1:])):
            raise ExtrapolationInstability(
                "lateral residuals fail to decrease along eps_seq"
            )

    components = tuple(zip(*laterals))
    extrap = tuple(neville_extrapolate(extended, c) for c in components)
    if len(extended) >= 3:
        drop_one = (neville_extrapolate(extended[1:], c[1:]) for c in components)
        extrap_err = max(abs(x - y) for x, y in zip(extrap, drop_one))
    else:
        extrap_err = mp.inf
    res_plus = max(abs(x.imag - p) for x, p in zip(extrap, pred_imag))
    res_minus = max(abs(x.imag + p) for x, p in zip(extrap, pred_imag))
    sign = 1 if res_plus <= res_minus else -1
    return StokesDecomposition(
        abs_alpha=a,
        eps_seq=tuple(eps_list),
        extended_eps=tuple(extended),
        lateral_values=tuple(laterals),
        re_residuals=re_res,
        im_residuals=im_res,
        extrapolated=extrap,
        extrap_err_estimate=extrap_err,
        pred_real=pred_real,
        pred_imag=pred_imag,
        extrap_residual_real=max(abs(x.real - p) for x, p in zip(extrap, pred_real)),
        extrap_residual_imag=min(res_plus, res_minus),
        matched_sign=sign,
        quad_budget=budget,
    )


def check_stokes(abs_alpha, ctx: PrecisionContext) -> List[CheckEntry]:
    """Lateral-limit residuals at pi - |theta| in STOKES_EPS_SEQ,
    extrapolated to the Stokes line, against the predictions of
    `stokes_decompose`: the order-5 matrix law's series side at
    alpha = -|alpha|.  abs_alpha is real, or complex with imaginary part 0
    (a grid point).  The entry records the matched lateral sign and the
    residual tables."""
    mp = ctx.mp
    abs_alpha = mp.mpc(abs_alpha)
    if abs_alpha.imag:
        raise DomainError("an mf5_stokes point is a real modulus |alpha|")
    eps_seq = [mp.mpf(e) for e in STOKES_EPS_SEQ]
    dec = stokes_decompose(abs_alpha.real, eps_seq, ctx)
    res = max(dec.extrap_residual_real, dec.extrap_residual_imag)
    scale = max(mp.mpf(1), *(abs(x) for x in dec.extrapolated))
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
    return [_entry("mf5_stokes", abs_alpha, res, scale,
                   budget, ctx, detail)]


# ---------------------------------------------------------------------------
# Order-3 checks
# ---------------------------------------------------------------------------

def check_mf3(alpha, ctx: PrecisionContext) -> List[CheckEntry]:
    """Every order-3 row of `_LAWS` at one point, each integral computed once
    (W3 at alpha serves mf3_omega and mf3_alternative)."""
    alpha = ctx.mp.mpc(alpha)
    integral = functools.cache(
        lambda family, k, c: _scaled_integral(family, k, c, [alpha], ctx)[0])
    out = []
    for name, law in _LAWS.items():
        if name.startswith("mf3_"):
            res, scale, budget = _law(name, alpha, integral(law.family, law.k, law.c), ctx)
            out.append(_entry(name, alpha, max(res), scale, budget, ctx))
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
    """Residuals max_ij |P_ij - delta_ij| of P = D^20, M^2 and (-M D)^3,
    each of which is the identity."""
    M = mixing_matrix(ctx)
    D = phase_matrix(ctx)
    minus_md = tuple(tuple(-x for x in row) for row in _mat_mul(M, D))
    slop = _round_slop(ctx, 64)
    out = []
    for name, A, n in (("group_D20", D, 20), ("group_M2", M, 2), ("group_MD3", minus_md, 3)):
        res = max(abs(x - int(i == j))
                  for i, row in enumerate(_mat_pow(A, n)) for j, x in enumerate(row))
        out.append(_entry(name, None, res, ctx.mp.mpf(1), slop, ctx))
    return out


def _q_basis(tau, n: int, ctx: PrecisionContext):
    """For v0 and v1: the pairs (Q^s, 2 pi i s Q^s) at tau, s = m - 1/20
    resp. m - 9/20 for m < n, each rounded to the context and then to a
    complex integer scaled by 2^P, P = prec_bits + 48 (`modpoint._fixed`, as
    the q-series sum).  d/dtau of Q^s is 2 pi i s Q^s."""
    mp = ctx.mp
    P = ctx.prec_bits + _FIXED_BITS
    alpha = -mp.pi * 1j * mp.mpc(tau)
    two_pi_i = 2 * mp.pi * 1j
    basis = []
    for shift in (Fraction(-1, 20), Fraction(-9, 20)):
        pairs = []
        for s in (m + shift for m in range(n)):
            power = power_from_alpha(alpha, "Q", s, ctx)
            d = two_pi_i * (mp.mpf(s.numerator) / s.denominator)
            pairs.append((_fixed(power, P), _fixed(d * power, P)))
        basis.append(pairs)
    return tuple(basis)


def _v_vector(h0, h1, basis, ctx: PrecisionContext):
    """v = (Q^{-1/20} H0(Q), Q^{-9/20} H1(Q)) and its Wronskian
    W = v0 dv1/dtau - dv0/dtau v1, from the _q_basis of at least
    max(len(h0), len(h1)) terms at tau.

    H0, H1 are finite Q-polynomials with rational coefficients (ints or
    Fractions); derivatives are exact term-wise.  Each of v_j and dv_j/dtau
    is summed in integers over the common denominator d_j of H_j's
    coefficients, and W is formed from those integer sums exactly; v and W
    are then rounded once to the context.  Against the same sums over the
    exact basis values, the fixed point's truncation (below 2^-P in each
    part) puts v_j and dv_j/dtau off by less than e_j = 2^{1-P} (1 + |H_j|_1),
    |H_j|_1 the sum of |coefficients|, and W by less than
    e_0 (|v1| + |dv1|) + e_1 (|v0| + |dv0|) + 2 e_0 e_1.  For the suite's
    pairs |H_j|_1 < 2^10, so e_j < 2^{-prec_bits-37}: the rounding of the
    basis to prec_bits bits, which a sum in the context carries as well,
    dominates."""
    mp = ctx.mp
    P = ctx.prec_bits + _FIXED_BITS
    sums = []
    for coeffs, pairs in zip((h0, h1), basis):
        d = math.lcm(*(c.denominator for c in coeffs))
        vr = vi = dr = di = 0
        for c, ((xr, xi), (yr, yi)) in zip(coeffs, pairs):
            if c:
                k = c.numerator * (d // c.denominator)
                vr += k * xr
                vi += k * xi
                dr += k * yr
                di += k * yi
        sums.append((vr, vi, dr, di, d))
    (ar, ai, adr, adi, d0), (br, bi, bdr, bdi, d1) = sums
    vals = [_from_fixed((vr // d, vi // d), P, mp) for vr, vi, _, _, d in sums]
    # v0 dv1 - dv0 v1 in units of 2^-2P / (d0 d1)
    wr = ar * bdr - ai * bdi - adr * br + adi * bi
    wi = ar * bdi + ai * bdr - adr * bi - adi * br
    d = d0 * d1
    return vals, _from_fixed((wr // d, wi // d), 2 * P, mp)


def _pair_laws(h0, h1, tau, bases, eta12s, ctx: PrecisionContext, D) -> Dict[str, tuple]:
    """(residual, scale, budget) of each law of one pair at tau, by name,
    from the _q_basis at tau and at tau+1: v(tau+1) = D v(tau), D the
    `phase_matrix`, W(tau+1) = -W(tau) and, given eta^12 at both points
    (eta12s), the invariance G(tau+1) = G(tau) of G = W^3 / eta^12."""
    mp = ctx.mp
    (v, w), (v1, w1) = (_v_vector(h0, h1, basis, ctx) for basis in bases)
    res_v = max(abs(x - y) for x, y in zip(v1, _apply(D, v)))
    res_w = abs(w1 + w)
    scale_v = max(mp.mpf(1), *(abs(x) for x in v))
    scale_w = max(abs(w), mp.mpf(1))
    n_terms = len(h0) + len(h1)
    slop_v = _round_slop(ctx, scale_v * max(4, n_terms))
    slop_w = _round_slop(ctx, scale_w * max(16, 4 * n_terms))
    out = {"wronskian_v_T": (res_v, scale_v, slop_v),
           "wronskian_w_T": (res_w, scale_w, slop_w)}
    if eta12s is not None:
        g0, g1 = w**3 / eta12s[0], w1**3 / eta12s[1]
        scale = max(abs(g0), mp.mpf(1))
        budget = ctx.eps * 24 * scale + _round_slop(ctx, scale * max(64, 16 * n_terms))
        out["g_T_invariance"] = (abs(g1 - g0), scale, budget)
    return out


def check_wronskian_suite(ctx: PrecisionContext) -> List[CheckEntry]:
    """The canonical pair (H0, H1) = (1, Q) plus 50 seeded random rational
    pairs of degree 8, all at tau = 0.2 + 1.1i; the reported entries carry
    the worst residual over all pairs, the first pair's on a tie."""
    n_pairs, degree = 50, 8
    tau = ctx.mp.mpc("0.2", "1.1")
    # every pair is evaluated at tau and tau+1 on the same Q-powers
    bases = [_q_basis(t, degree + 1, ctx) for t in (tau, tau + 1)]
    eta12s = [eta(t, ctx) ** 12 for t in (tau, tau + 1)]
    D = phase_matrix(ctx)
    rng = random.Random(WRONSKIAN_SEED)
    worst: Dict[str, tuple] = {}

    def absorb(h0, h1):
        for name, law in _pair_laws(h0, h1, tau, bases, eta12s, ctx, D).items():
            if name not in worst or law[0] > worst[name][0]:
                worst[name] = law

    absorb([1], [0, 1])
    for _ in range(n_pairs):
        h0 = [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
              for _ in range(degree + 1)]
        h1 = [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
              for _ in range(degree + 1)]
        absorb(h0, h1)
    detail = {"pairs": n_pairs + 1, "degree": degree, "seed": WRONSKIAN_SEED}
    return [_entry(name, tau, *worst[name], ctx, detail) for name in sorted(worst)]


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

    grid replaces the default grid of a single suite; a grid for `all`,
    `algebra` or `wronskian`, which have none, raises DomainError.  The mf3
    suite also runs the growth check on its own rays.  A failed check is
    recorded as one `<check>_error` entry, with the grid point it was called
    at and its error message, rather than aborting the suite."""
    ctx = ctx or PrecisionContext()
    if suite not in SUITES:
        raise DomainError("unknown suite %r (choose from %s)" % (suite, (SUITES,)))
    table = _suite_table()
    if grid is not None and suite not in (name for name, _, default in table if default):
        raise DomainError("suite %r takes no grid" % suite)
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

    for name, check, default_grid in table:
        if suite not in (name, "all"):
            continue
        if default_grid is None:
            run(check, ctx)
            continue
        for point in default_grid(mp) if grid is None else grid:
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
