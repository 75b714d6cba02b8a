"""q-series evaluation: the order-3 and order-5 mock theta functions, the
unary false-theta partners, Dedekind eta, Jacobi thetas, and an
exact-rational truncated-expansion oracle.

Numeric evaluation and the symbolic oracle are fully independent code paths;
tests cross-validate one against the other.

Every series summed here has terms that fall like q^{n^2}.  chi0 and chi1
are not summed from their definitions, whose terms fall like q^n, but from
the Andrews-Garvan forms 2 F0(q) - phi0(-q) and 2 F1(q) - psi1(-q); eta is
Euler's pentagonal series and theta2 its own partial theta.

Stop rules: the partial thetas (`unary_x`, the theta series and the
pentagonal series of eta) share one evaluator, `_partial_theta`, which
stops on a certified bound on the omitted tail; eta and theta2 are summed to
relative error, widened by a proved lower bound on their modulus.
`eval_mock` still stops on three small terms, a heuristic.

Arithmetic: each mock theta series is described once, as data (`_SERIES`):
its first term and its term ratio t_n / t_{n-1}, a monomial in q times
factors 1 +- q^{k n + d}; `_MOCK_TERMS` writes each mock theta function as
a sum of such series.  One evaluator, `_sum_series`, runs them all on
complex integers scaled by 2^(prec_bits + 48), updating every power of q by
one multiplication per term; the sum is rounded into the context only at
the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from mpmath import mpc
from mpmath.libmp import to_fixed

from .errors import DomainError, NonConvergenceError, PrecisionError
from .modpoint import (_FIXED_BITS, PrecisionContext, _fixed, _from_fixed,
                       _mp_context, power_from_alpha)

__all__ = [
    "MockThetaId",
    "MOCK_THETA_IDS",
    "TruncatedQSeries",
    "eval_mock",
    "series_expand",
    "k_pair",
    "unary_x",
    "eta",
    "theta",
    "euler_inverse_coeffs",
]

MAX_TERMS_DEFAULT = 200_000

# (order, name) pairs admitted by the data model.
MOCK_THETA_IDS: Tuple[Tuple[int, str], ...] = (
    (5, "chi0"),
    (5, "chi1"),
    (3, "omega"),
    (3, "f"),
    (3, "rho"),
    (3, "xi"),
)


@dataclass(frozen=True)
class MockThetaId:
    order: int
    name: str

    def __post_init__(self):
        if (self.order, self.name) not in MOCK_THETA_IDS:
            raise DomainError(
                "unknown mock theta id (%r, %r)" % (self.order, self.name)
            )

    @classmethod
    def from_name(cls, name: str) -> "MockThetaId":
        for order, nm in MOCK_THETA_IDS:
            if nm == name:
                return cls(order, nm)
        raise DomainError("unknown mock theta name %r" % name)


# ---------------------------------------------------------------------------
# Mock theta functions: numeric evaluation
# ---------------------------------------------------------------------------

# (s, k, d) stands for the factor 1 + s q^{k n + d} at term index n.
_Factor = Tuple[int, int, int]


class _Ratio(NamedTuple):
    """q^{a n + b} prod_num (1 + s q^{k n + d}) / prod_den (1 + s q^{k n + d})
    as a function of the term index n."""

    a: int
    b: int
    num: Tuple[_Factor, ...] = ()
    den: Tuple[_Factor, ...] = ()


class _Series(NamedTuple):
    """head + sum_{n>=0} t_n with t_0 = coeff * first(0) and, for n >= 1,
    t_n = t_{n-1} * ratio(n); every exponent k n + d and a n + b is
    nonnegative from n = 1 on."""

    first: _Ratio
    ratio: _Ratio
    coeff: int = 1
    head: int = 0


_SERIES = {
    # F0 = sum_n q^{2n^2} / (q; q^2)_n
    "F0": _Series(_Ratio(0, 0), _Ratio(4, -2, (), ((-1, 2, -1),))),
    # F1 = sum_n q^{2n(n+1)} / (q; q^2)_{n+1}
    "F1": _Series(_Ratio(0, 0, (), ((-1, 0, 1),)),
                  _Ratio(4, 0, (), ((-1, 2, 1),))),
    # phi0 = sum_n q^{n^2} (-q; q^2)_n
    "phi0": _Series(_Ratio(0, 0), _Ratio(2, -1, ((1, 2, -1),))),
    # psi1 = phi1 / q = sum_n q^{n^2 + 2n} (-q; q^2)_n
    "psi1": _Series(_Ratio(0, 0), _Ratio(2, 1, ((1, 2, -1),))),
    # sum_n q^{2n(n+1)} / (q; q^2)_{n+1}^2
    "omega": _Series(_Ratio(0, 0, (), ((-1, 0, 1),) * 2),
                     _Ratio(4, 0, (), ((-1, 2, 1),) * 2)),
    # sum_n q^{n^2} / (-q; q)_n^2
    "f": _Series(_Ratio(0, 0), _Ratio(2, -1, (), ((1, 1, 0),) * 2)),
    # sum_n q^{2n(n+1)} (q; q^2)_{n+1} / (q^3; q^6)_{n+1}
    "rho": _Series(_Ratio(0, 0, ((-1, 0, 1),), ((-1, 0, 3),)),
                   _Ratio(4, 0, ((-1, 2, 1),), ((-1, 6, 3),))),
    # 1 + 2 sum_{n>=0} q^{6n(n+1)+1} / ((q; q^6)_{n+1} (q^5; q^6)_{n+1})
    "xi": _Series(_Ratio(0, 1, (), ((-1, 0, 1), (-1, 0, 5))),
                  _Ratio(12, 0, (), ((-1, 6, 1), (-1, 6, 5))), coeff=2, head=1),
}

# Each mock theta function as sum weight * series(sign * q) over its terms
# (weight, sign, series).  The definitions of chi0 and chi1 fall like q^n;
# Andrews and Garvan (Adv. Math. 73, 1989) give chi0(q) = 2 F0(q) - phi0(-q)
# and chi1(q) = 2 F1(q) + q^{-1} phi1(-q) = 2 F1(q) - psi1(-q), whose terms
# fall like q^{2n^2}.
_MOCK_TERMS = {
    "chi0": ((2, 1, "F0"), (-1, -1, "phi0")),
    "chi1": ((2, 1, "F1"), (-1, -1, "psi1")),
    "omega": ((1, 1, "omega"),),
    "f": ((1, 1, "f"),),
    "rho": ((1, 1, "rho"),),
    "xi": ((1, 1, "xi"),),
}


def _sum_series(series: _Series, q, ctx: PrecisionContext) -> mpc:
    """The series at q, |q| < 1, summed in integers scaled by 2^P, P =
    prec_bits + 48, and rounded to nearest into ctx.mp.

    Stops after three consecutive terms with |t|^2 < (eps 2^-8)^2, compared
    exactly in integers, once at least 8 terms (counting the head) were
    taken.
    """
    P = ctx.prec_bits + _FIXED_BITS
    one = 1 << P
    thr = to_fixed(ctx.mp.ldexp(ctx.eps, -8)._mpf_, P)
    thr2 = thr * thr
    powers = [(one, 0), _fixed(q, P)]  # q^e by exponent e

    def mul(x, y):
        (xr, xi), (yr, yi) = x, y
        return xr * yr - xi * yi >> P, xr * yi + xi * yr >> P

    def power(e):
        while len(powers) <= e:
            powers.append(mul(powers[-1], powers[1]))
        return powers[e]

    def product(z, factors):
        """z times prod (1 + s p) over the pairs (s, p), p a power of q; z
        may be None, which stands for 1 and saves one multiplication."""
        for s, (pr, pi) in factors:
            w = one + s * pr, s * pi
            z = w if z is None else mul(z, w)
        return (one, 0) if z is None else z

    def next_term(t, mono, num, den):
        """t * mono * prod_num (1 + s p) / prod_den (1 + s p), with the
        division one integer division by |prod_den|^2."""
        dr, di = product(None, den)
        tr, ti = mul(mul(t, product(mono, num)), (dr, -di))
        inv = (1 << 3 * P) // (dr * dr + di * di)
        return tr * inv >> P, ti * inv >> P

    first, ratio = series.first, series.ratio
    t = next_term((series.coeff * one, 0), power(first.b),
                  [(s, power(d)) for s, _, d in first.num],
                  [(s, power(d)) for s, _, d in first.den])
    # the running powers q^{k n + d} of the ratio, one per distinct (k, d),
    # and the factors q^k that advance them from n - 1 to n
    slots = list(dict.fromkeys([(ratio.a, ratio.b)]
                               + [(k, d) for _, k, d in ratio.num + ratio.den]))
    cur = [power(k + d) for k, d in slots]  # at n = 1
    moving = [(i, power(k)) for i, (k, _) in enumerate(slots) if k]
    num = [(s, slots.index((k, d))) for s, k, d in ratio.num]
    den = [(s, slots.index((k, d))) for s, k, d in ratio.den]
    sr, si = series.head * one, 0
    small_run = 0
    for n in range(series.head, MAX_TERMS_DEFAULT):
        sr, si = sr + t[0], si + t[1]
        if t[0] * t[0] + t[1] * t[1] < thr2:
            small_run += 1
            if small_run >= 3 and n >= 8:
                return _from_fixed((sr, si), P, ctx.mp)
        else:
            small_run = 0
        t = next_term(t, cur[0], [(s, cur[i]) for s, i in num],
                      [(s, cur[i]) for s, i in den])
        for i, step in moving:
            cur[i] = mul(cur[i], step)
    raise NonConvergenceError(
        "series stop rule unmet within %d terms" % MAX_TERMS_DEFAULT
    )


def eval_mock(mid: MockThetaId, q, ctx: PrecisionContext) -> mpc:
    """Numeric value of the named mock theta function at q, |q| < 1.

    Evaluation is refused above |q| = 0.999: the error analysis below
    spends 10 of its guard bits on 1 / (1 - |q|) <= 1000.

    The function is the sum of weight * series(sign * q) over its terms in
    `_MOCK_TERMS`: one series for the order-3 functions, two for chi0 and
    chi1, each falling like q^{n^2}, so even at |q| = 0.999 a series takes
    at most about 620 terms.  Each series is summed by `_sum_series` in
    integers scaled by 2^P, P = prec_bits + 48, and rounded into ctx.mp;
    adding the weighted values rounds once more.

    The error of a series, with u = 2^-P: q and every product truncate by
    at most u per part.  A running power q^e, e = k n + d,
    damps the error it carries by |q^k| < 1 per step, so it is off by at
    most a few u / (1 - |q|), and by a few e u while e < 1 / (1 - |q|).
    As |1 +- q^e| >= 1 - |q|^e, each factor of a ratio, the division by the
    denominator included, then has a relative error of a few u / (1 - |q|):
    with 1 - |q| >= 0.001, about 10 of the 48 guard bits, a few more for
    the factor count.  A term, a product of n ratios, adds log2 n bits
    (under 10 at a few hundred terms), which leaves the sum within about
    2^-(prec_bits + 18) of sum |t_n|, the order of the rounding error of a
    floating-point sum of the same terms.  For real q every imaginary part
    stays 0, and the arithmetic is real.  At q > 0 sum |t_n| is the value
    itself for F0 and F1, and at most 4/3 for phi0(-q) and psi1(-q), whose
    terms alternate with ratios of modulus at most 1/4.
    """
    q = ctx.mp.mpc(q)
    if not abs(q) < 1:
        raise DomainError("mock theta series require |q| < 1")
    if abs(q) > ctx.mp.mpf("0.999"):
        raise DomainError("evaluation guard: |q| <= 0.999")
    return sum(weight * _sum_series(_SERIES[name], sign * q, ctx)
               for weight, sign, name in _MOCK_TERMS[mid.name])


def k_pair(Q, ctx: PrecisionContext) -> Tuple[mpc, mpc]:
    """The pair (2 - chi0(Q), -Q*chi1(Q)) entering the order-5 matrix law."""
    Q = ctx.mp.mpc(Q)
    k0 = 2 - eval_mock(MockThetaId(5, "chi0"), Q, ctx)
    k1 = -Q * eval_mock(MockThetaId(5, "chi1"), Q, ctx)
    return k0, k1


# ---------------------------------------------------------------------------
# Partial theta series: the unary false thetas, the theta constants and
# Euler's function
# ---------------------------------------------------------------------------

def _partial_theta(psi, period: int, N: int, c: int, u, ctx: PrecisionContext,
                   scale=1, floor=0.0) -> mpc:
    """sum_{n>=1} psi(n mod period) u^{(n^2 - c)/N} for |u| < 1; psi maps
    residues to coefficients, every exponent on its support is asserted to
    be a nonnegative integer, and period^2 >= N.

    Stops once scale (the modulus of the caller's prefactor) times the bound
    max|psi| |u|^{(n0^2 - c)/N} / (1 - |u|^{(2 n0 + 1)/N}) on the terms
    n >= n0 is below eps * 2^-8; the bound holds as n^2 >= n0^2 +
    (n - n0)(2 n0 + 1).  It is taken in double-precision logarithms, whose
    rounding is far below the 2^-8 slack.  A sum that cannot stop within
    MAX_TERMS_DEFAULT terms, even at |u|^{(n0^2 - c)/N} alone, raises before
    it starts.

    Powers: each residue class n = n1 + j period carries u^{e(n)} by two
    multiplications per term, one by the step u^{e(n + period) - e(n)} and
    one of the step by u^{2 period^2 / N}.  After j steps the power is off by
    at most 4 (j + 1)^2 ulp, and |u|^{e(n)} <= |u|^{j^2} as period^2 >= N,
    so the whole sum is off by less than 2^8 (1 - |u|)^{-3/2} ulp of max|psi|
    (at most 8 classes).  The sum is therefore taken at prec_bits + g bits,
    g = f + 1.5 log2(1 / (1 - |u|)) rounded up to a multiple of 32 (one
    mpmath context per 32 bits), which with the 16 guard bits of every
    context keeps the rounding below the tail bound, and is rounded back
    into ctx.mp.

    Without a floor, f = 0 and the error is absolute: the terms reach
    modulus max|psi| while the sum may be far smaller.  A caller that has
    proved |sum| >= e^floor, floor < 0, gets it relative: f = -floor / ln 2,
    and the tail bound is held below eps 2^-f 2^-8 too.
    """
    mp = ctx.mp
    u = mp.mpc(u)
    if not abs(u) < 1:
        raise DomainError("partial theta series require |u| < 1")
    if period * period < N:
        raise AssertionError("partial theta needs period^2 >= N")
    f = -floor / math.log(2) if floor < 0 else 0.0
    log_u = float(mp.log(abs(u)))  # -inf at u = 0
    log_room = float(mp.log(ctx.eps * mp.mpf(2) ** -8
                            / (max(map(abs, psi.values())) * scale)))
    log_room -= f * math.log(2)
    if log_u * (MAX_TERMS_DEFAULT ** 2 - c) / N >= log_room:
        raise NonConvergenceError(
            "partial theta series cannot stop within %d terms" % MAX_TERMS_DEFAULT)
    g = 32 * math.ceil((f - 1.5 * math.log2(float(1 - abs(u)))) / 32)
    wmp = _mp_context(ctx.prec_bits + g)
    u = wmp.mpc(u)
    grow = u ** (2 * period * period // N)
    runs = {}  # residue -> (u^{e(n)}, its step) at the next n of the class
    total = wmp.mpc(0)
    for n in range(1, MAX_TERMS_DEFAULT):
        r = n % period
        coeff = psi.get(r)
        if not coeff:
            continue
        e, rem = divmod(n * n - c, N)
        if rem or e < 0:
            raise AssertionError("partial theta exponent not a nonneg integer")
        if r not in runs:
            runs[r] = u**e, u ** ((2 * n * period + period * period) // N)
        power, step = runs[r]
        total += coeff * power
        runs[r] = power * step, step * grow
        n0 = n + 1
        if (log_u * (n0 * n0 - c) / N
                - math.log(-math.expm1(log_u * (2 * n0 + 1) / N)) < log_room):
            return mp.mpc(total)
    raise NonConvergenceError("partial theta series did not converge")


# psi mod 60 and shift c of the folded unary series, N = 120.
_UNARY_PSI = {
    "X0": ({1: 1, 11: 1, 19: 1, 29: 1, 31: -1, 41: -1, 49: -1, 59: -1}, 1),
    "X1": ({7: 1, 13: 1, 17: 1, 23: 1, 37: -1, 43: -1, 47: -1, 53: -1}, 49),
}


def unary_x(which: str, u, ctx: PrecisionContext) -> mpc:
    """X0(u) or X1(u) with the rational prefactor folded in exactly, |u| < 1.

    X0(u) = 1 + u + u^3 + u^7 - u^8 - u^14 - u^20 - u^29 + u^31 + ...
    X1(u) = 1 + u + u^2 + u^4 - u^11 - u^15 - u^18 - u^23 + ...

    The series of the |Q| > 1 side, at u = 1/Q: each is the partial theta
    sum_{n>=1} psi(n) u^{(n^2 - c)/120} with psi and c from `_UNARY_PSI`,
    summed by `_partial_theta` to its certified tail bound.
    """
    if which not in _UNARY_PSI:
        raise DomainError("unary id must be 'X0' or 'X1'")
    psi, c = _UNARY_PSI[which]
    return _partial_theta(psi, 60, 120, c, u, ctx)


def _log_euler_floor(r) -> float:
    """A lower bound on log (r; r)_infinity, r an mpf in [0, 1), and so on
    log |(x; x)_infinity| at |x| = r, as |1 - x^m| >= 1 - r^m: -log (r; r)_inf
    = sum_m r^m / (m (1 - r^m)) <= pi^2 r / (6 (1 - r)), since 1 - r^m >=
    m r^(m-1) (1 - r).  -inf where the bound is infinite or overflows a
    double, which `_partial_theta` refuses."""
    if not r < 1:
        return -math.inf
    return -math.pi ** 2 / 6 * float(r / (1 - r))


def _euler_function(x, ctx: PrecisionContext) -> mpc:
    """(x; x)_infinity for |x| < 1, by Euler's pentagonal theorem:
    sum_{n in Z} (-1)^n x^{n(3n-1)/2} = sum_{m>=1} chi12(m) x^{(m^2 - 1)/24},
    chi12(m) = 1 at m = +-1 and -1 at m = +-5 mod 12, summed by
    `_partial_theta` to its certified tail bound, relative to the floor
    `_log_euler_floor`: near |x| = 1 the terms reach modulus 1 and cancel
    down to about e^{-pi^2 / (6 (1 - |x|))}."""
    x = ctx.mp.mpc(x)
    return _partial_theta({1: 1, 11: 1, 5: -1, 7: -1}, 12, 24, 1, x, ctx,
                          floor=_log_euler_floor(abs(x)))


# ---------------------------------------------------------------------------
# Dedekind eta and Jacobi theta functions
# ---------------------------------------------------------------------------

def eta(tau, ctx: PrecisionContext) -> mpc:
    """Dedekind eta: Q^{1/24} (Q; Q)_infinity with Q = exp(2*pi*i*tau), the
    product summed by `_euler_function` as the pentagonal series
    sum_{n in Z} (-1)^n Q^{n(3n-1)/2}, to relative error about eps."""
    mp = ctx.mp
    tau = mp.mpc(tau)
    if not tau.imag > 0:
        raise DomainError("eta requires Im tau > 0")
    alpha = -mp.pi * 1j * tau
    pref = power_from_alpha(alpha, "Q", Fraction(1, 24), ctx)
    return pref * _euler_function(mp.exp(-2 * alpha), ctx)


def theta(which: int, tau, ctx: PrecisionContext) -> mpc:
    """Jacobi theta constants theta_2/3/4 at nome q = exp(pi*i*tau).

    theta2 = 2 q^{1/4} sum_{n>=1 odd} q^{(n^2 - 1)/4}, theta3 = 1 + 2
    sum_{n>=1} q^{n^2} and theta4 = 1 + 2 sum_{n>=1} (-1)^n q^{n^2}; each sum
    is a partial theta of `_partial_theta`, truncated on its certified tail
    bound.  theta3 and theta4 are within about eps of their values (the
    factor 2 scales the tail bound); PrecisionError where their modulus is
    not above eps, as toward a cusp, since no digit of it is then known.
    The theta2 sum is the triple product
    (Q; Q)_inf (-Q; Q)_inf^2, Q = q^2, of modulus at least (|Q|; |Q|)_inf^3,
    so it is summed relative to three times `_log_euler_floor(|Q|)`, and
    theta2 is within about eps of its value relatively.
    """
    mp = ctx.mp
    tau = mp.mpc(tau)
    if not tau.imag > 0:
        raise DomainError("theta requires Im tau > 0")
    alpha = -mp.pi * 1j * tau
    q = mp.exp(-alpha)
    if which == 2:
        pref = 2 * power_from_alpha(alpha, "q", Fraction(1, 4), ctx)
        floor = 3 * _log_euler_floor(abs(q) ** 2)
        return pref * _partial_theta({1: 1}, 2, 4, 1, q, ctx, floor=floor)
    if which not in (3, 4):
        raise DomainError("theta index must be 2, 3 or 4")
    psi = {0: 1, 1: 1} if which == 3 else {0: 1, 1: -1}
    value = 1 + 2 * _partial_theta(psi, 2, 1, 0, q, ctx, scale=2)
    if not abs(value) > ctx.eps:
        raise PrecisionError("|theta%d| is not above its error bound eps %s"
                             % (which, mp.nstr(ctx.eps, 3)))
    return value


# ---------------------------------------------------------------------------
# Exact-rational expansion oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedQSeries:
    """sum_{n<=N} coeffs[n] * q^n with a tail bound.

    Coefficients are exact rationals when produced by series_expand; the tail
    bound is stated for the disc |q| <= 1/2.
    """

    coeffs: Tuple[Fraction, ...]
    tail_bound: float

    def eval(self, x, ctx: PrecisionContext) -> mpc:
        """Horner evaluation of the polynomial."""
        mp = ctx.mp
        x = mp.mpc(x)
        acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + mp.mpf(c.numerator) / c.denominator
        return acc


def _poly_mul_factor(c: List[int], k: int, sign: int, N: int) -> None:
    """In place c *= (1 + sign*q^k) modulo q^{N+1}."""
    for i in range(N, k - 1, -1):
        c[i] += sign * c[i - k]


def _poly_div_factor(c: List[int], k: int, sign: int, N: int) -> None:
    """In place c /= (1 + sign*q^k) modulo q^{N+1}."""
    for i in range(k, N + 1):
        c[i] -= sign * c[i - k]


def _add_shifted(acc: List[int], term: List[int], shift: int, N: int,
                 scale: int = 1) -> None:
    for i in range(0, N + 1 - shift):
        acc[i + shift] += scale * term[i]


def series_expand(mid: MockThetaId, N: int) -> TruncatedQSeries:
    """Exact coefficients c_0..c_N of the named mock theta function.

    Dense polynomial arithmetic modulo q^{N+1}; summand n contributes only
    when its minimal exponent (n, n, 2n(n+1), n^2, 2n(n+1), 6n(n-1)+1 for
    chi0, chi1, omega, f, rho, xi) does not exceed N, which makes the oracle
    finite and exact.
    """
    if N < 0:
        raise DomainError("expansion order must be nonnegative")
    if N > 10_000:
        raise DomainError("expansion order capped at 10000")
    acc = [0] * (N + 1)
    name = mid.name

    if name in ("chi0", "chi1"):
        inv = [0] * (N + 1)
        inv[0] = 1
        if name == "chi1":
            _poly_div_factor(inv, 1, -1, N)  # /(1-q)
            _add_shifted(acc, inv, 0, N)
            start = 1
        else:
            acc[0] = 1
            start = 1
        for n in range(start, N + 1):
            # denominators (q^{n+1};q)_n resp. (q^{n+1};q)_{n+1}
            if name == "chi0":
                # inv_{n} = inv_{n-1} * (1-q^n) / ((1-q^{2n-1})(1-q^{2n}))
                _poly_mul_factor(inv, n, -1, N)
                _poly_div_factor(inv, 2 * n - 1, -1, N)
                _poly_div_factor(inv, 2 * n, -1, N)
            else:
                _poly_mul_factor(inv, n, -1, N)
                _poly_div_factor(inv, 2 * n, -1, N)
                _poly_div_factor(inv, 2 * n + 1, -1, N)
            _add_shifted(acc, inv, n, N)
    elif name == "omega":
        inv = [0] * (N + 1)
        inv[0] = 1
        _poly_div_factor(inv, 1, -1, N)
        _poly_div_factor(inv, 1, -1, N)  # 1/(1-q)^2
        n = 0
        while 2 * n * (n + 1) <= N:
            if n > 0:
                _poly_div_factor(inv, 2 * n + 1, -1, N)
                _poly_div_factor(inv, 2 * n + 1, -1, N)
            _add_shifted(acc, inv, 2 * n * (n + 1), N)
            n += 1
    elif name == "f":
        inv = [0] * (N + 1)
        inv[0] = 1
        acc[0] = 1
        n = 1
        while n * n <= N:
            _poly_div_factor(inv, n, 1, N)
            _poly_div_factor(inv, n, 1, N)  # 1/(1+q^n)^2
            _add_shifted(acc, inv, n * n, N)
            n += 1
    elif name == "rho":
        comb = [0] * (N + 1)
        comb[0] = 1
        _poly_mul_factor(comb, 1, -1, N)   # (1-q)
        _poly_div_factor(comb, 3, -1, N)   # /(1-q^3)
        n = 0
        while 2 * n * (n + 1) <= N:
            if n > 0:
                _poly_mul_factor(comb, 2 * n + 1, -1, N)
                _poly_div_factor(comb, 6 * n + 3, -1, N)
            _add_shifted(acc, comb, 2 * n * (n + 1), N)
            n += 1
    elif name == "xi":
        acc[0] = 1
        inv = [0] * (N + 1)
        inv[0] = 1
        n = 1
        while 6 * n * (n - 1) + 1 <= N:
            _poly_div_factor(inv, 6 * n - 5, -1, N)
            _poly_div_factor(inv, 6 * n - 1, -1, N)
            _add_shifted(acc, inv, 6 * n * (n - 1) + 1, N, scale=2)
            n += 1
    else:  # pragma: no cover - guarded by MockThetaId
        raise DomainError("no oracle for %r" % name)

    coeffs = tuple(Fraction(c) for c in acc)
    max_abs = max((abs(c) for c in acc), default=0)
    tail = 4.0 * float(max_abs) * 2.0 ** -(N + 1)
    return TruncatedQSeries(coeffs, tail)


# ---------------------------------------------------------------------------
# Euler product inversion (partition numbers)
# ---------------------------------------------------------------------------

def euler_inverse_coeffs(N: int) -> List[int]:
    """Partition numbers p(0..N) via the pentagonal-number recurrence."""
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N > 100_000:
        raise DomainError("N capped at 100000")
    p = [0] * (N + 1)
    p[0] = 1
    for n in range(1, N + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p
