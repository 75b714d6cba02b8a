"""q-series evaluation: Pochhammer symbols, the order-3 and order-5 mock theta
functions, the unary false-theta partners, Dedekind eta, Jacobi thetas, and an
exact-rational truncated-expansion oracle.

Numeric evaluation and the symbolic oracle are fully independent code paths;
tests cross-validate one against the other.

Stop rules: the partial thetas (`unary_x` and the theta3/theta4 series)
share one evaluator, `_partial_theta`, which stops on a certified bound on
the omitted tail, as does the infinite `pochhammer` product.  `eval_mock`
still stops on three small terms, a heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple

from mpmath import mpc

from .errors import DomainError, NonConvergenceError
from .modpoint import PrecisionContext, power_from_alpha

__all__ = [
    "MockThetaId",
    "MOCK_THETA_IDS",
    "TruncatedQSeries",
    "pochhammer",
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
# Pochhammer symbols
# ---------------------------------------------------------------------------

def pochhammer(a, b, n, ctx: PrecisionContext) -> mpc:
    """(a; b)_n = prod_{j=0}^{n-1} (1 - a b^j); n may be mp.inf.

    The infinite product requires |b| < 1 and accumulates log factors so that
    very long products neither overflow nor lose the tail; truncation stops
    once the certified remainder of the log sum is below eps * 2^-8.
    """
    mp = ctx.mp
    a = mp.mpc(a)
    b = mp.mpc(b)
    if n != mp.inf:
        n = int(n)
        if n < 0:
            raise DomainError("pochhammer length must be nonnegative")
        prod = mp.mpc(1)
        for j in range(n):
            prod *= 1 - a * b**j
        return prod
    if not abs(b) < 1:
        raise DomainError("infinite pochhammer needs |b| < 1")
    if a == 0:
        return mp.mpc(1)
    tail_target = ctx.eps * mp.mpf(2) ** -8
    log_sum = mp.mpc(0)
    term = a  # a * b^j
    absb = abs(b)
    for j in range(MAX_TERMS_DEFAULT):
        factor = 1 - term
        if factor == 0:
            return mp.mpc(0)
        log_sum += mp.log(factor)
        term *= b
        # remaining |a||b|^j sum, inflated against log(1-x) curvature
        rem = abs(term) / (1 - absb)
        if rem < 1 and rem / (1 - rem) < tail_target:
            return mp.exp(log_sum)
    raise NonConvergenceError("infinite pochhammer did not converge")


# ---------------------------------------------------------------------------
# Mock theta functions: numeric evaluation
# ---------------------------------------------------------------------------

def _sum_with_stop_rule(terms: Iterator[mpc], ctx: PrecisionContext) -> mpc:
    """Sum terms until three consecutive ones drop below eps * 2^-8 (and at
    least 8 terms were taken)."""
    threshold = ctx.eps * ctx.mp.mpf(2) ** -8
    total = ctx.mp.mpc(0)
    small_run = 0
    for n, t in enumerate(terms):
        total += t
        if abs(t) < threshold:
            small_run += 1
            if small_run >= 3 and n >= 8:
                return total
        else:
            small_run = 0
        if n + 1 >= MAX_TERMS_DEFAULT:
            raise NonConvergenceError(
                "series stop rule unmet within %d terms" % MAX_TERMS_DEFAULT
            )
    return total


def _chi0_terms(q: mpc) -> Iterator[mpc]:
    # sum_n q^n / (q^{n+1}; q)_n
    yield 1
    denom = 1
    qn = 1
    for n in range(1, MAX_TERMS_DEFAULT):
        denom *= (1 - q ** (2 * n - 1)) * (1 - q ** (2 * n)) / (1 - q**n)
        qn *= q
        yield qn / denom


def _chi1_terms(q: mpc) -> Iterator[mpc]:
    # sum_n q^n / (q^{n+1}; q)_{n+1}
    denom = 1 - q
    yield 1 / denom
    qn = 1
    for n in range(1, MAX_TERMS_DEFAULT):
        denom *= (1 - q ** (2 * n)) * (1 - q ** (2 * n + 1)) / (1 - q**n)
        qn *= q
        yield qn / denom


def _omega_terms(q: mpc) -> Iterator[mpc]:
    # sum_n q^{2n(n+1)} / (q; q^2)_{n+1}^2
    denom = (1 - q) ** 2
    yield 1 / denom
    for n in range(1, MAX_TERMS_DEFAULT):
        denom *= (1 - q ** (2 * n + 1)) ** 2
        yield q ** (2 * n * (n + 1)) / denom


def _f_terms(q: mpc) -> Iterator[mpc]:
    # sum_n q^{n^2} / (-q; q)_n^2
    yield 1
    denom = 1
    for n in range(1, MAX_TERMS_DEFAULT):
        denom *= (1 + q**n) ** 2
        yield q ** (n * n) / denom


def _rho_terms(q: mpc) -> Iterator[mpc]:
    # sum_n q^{2n(n+1)} (q; q^2)_{n+1} / (q^3; q^6)_{n+1}
    ratio = (1 - q) / (1 - q**3)
    yield ratio
    for n in range(1, MAX_TERMS_DEFAULT):
        ratio *= (1 - q ** (2 * n + 1)) / (1 - q ** (6 * n + 3))
        yield q ** (2 * n * (n + 1)) * ratio


def _xi_terms(q: mpc) -> Iterator[mpc]:
    # 1 + 2 sum_{n>=1} q^{6n(n-1)+1} / ((q; q^6)_n (q^5; q^6)_n)
    yield 1
    inv = 1 / ((1 - q) * (1 - q**5))
    yield 2 * q * inv
    for n in range(2, MAX_TERMS_DEFAULT):
        inv /= (1 - q ** (6 * n - 5)) * (1 - q ** (6 * n - 1))
        yield 2 * q ** (6 * n * (n - 1) + 1) * inv


_TERM_GENERATORS = {
    "chi0": _chi0_terms,
    "chi1": _chi1_terms,
    "omega": _omega_terms,
    "f": _f_terms,
    "rho": _rho_terms,
    "xi": _xi_terms,
}


def eval_mock(mid: MockThetaId, q, ctx: PrecisionContext) -> mpc:
    """Numeric value of the named mock theta function at q, |q| < 1.

    Reliable tails require |q| <= 0.999; near the unit circle the defining
    series converge too slowly for certified truncation.
    """
    q = ctx.mp.mpc(q)
    if not abs(q) < 1:
        raise DomainError("mock theta series require |q| < 1")
    if abs(q) > ctx.mp.mpf("0.999"):
        raise DomainError("evaluation guard: |q| <= 0.999")
    return _sum_with_stop_rule(_TERM_GENERATORS[mid.name](q), ctx)


def k_pair(Q, ctx: PrecisionContext) -> Tuple[mpc, mpc]:
    """The pair (2 - chi0(Q), -Q*chi1(Q)) entering the order-5 matrix law."""
    Q = ctx.mp.mpc(Q)
    k0 = 2 - eval_mock(MockThetaId(5, "chi0"), Q, ctx)
    k1 = -Q * eval_mock(MockThetaId(5, "chi1"), Q, ctx)
    return k0, k1


# ---------------------------------------------------------------------------
# Partial theta series: the unary false thetas and the theta constants
# ---------------------------------------------------------------------------

def _partial_theta(psi, period: int, N: int, c: int, u, ctx: PrecisionContext,
                   scale=1) -> mpc:
    """sum_{n>=1} psi(n mod period) u^{(n^2 - c)/N} for |u| < 1; psi maps
    residues to coefficients, and every exponent on its support is asserted
    to be a nonnegative integer.

    Stops once scale (the modulus of the caller's prefactor) times the bound
    max|psi| |u|^{(n0^2 - c)/N} / (1 - |u|^{(2 n0 + 1)/N}) on the terms
    n >= n0 is below eps * 2^-8; the bound holds as n^2 >= n0^2 +
    (n - n0)(2 n0 + 1).  It is taken in double-precision logarithms, whose
    rounding is far below the 2^-8 slack.
    """
    mp = ctx.mp
    u = mp.mpc(u)
    if not abs(u) < 1:
        raise DomainError("partial theta series require |u| < 1")
    log_u = float(mp.log(abs(u)))  # -inf at u = 0
    log_room = float(mp.log(ctx.eps * mp.mpf(2) ** -8
                            / (max(map(abs, psi.values())) * scale)))
    total = mp.mpc(0)
    for n in range(1, MAX_TERMS_DEFAULT):
        coeff = psi.get(n % period)
        if not coeff:
            continue
        e, rem = divmod(n * n - c, N)
        if rem or e < 0:
            raise AssertionError("partial theta exponent not a nonneg integer")
        total += coeff * u**e
        n0 = n + 1
        if (log_u * (n0 * n0 - c) / N
                - math.log(-math.expm1(log_u * (2 * n0 + 1) / N)) < log_room):
            return total
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


# ---------------------------------------------------------------------------
# Dedekind eta and Jacobi theta functions
# ---------------------------------------------------------------------------

def eta(tau, ctx: PrecisionContext) -> mpc:
    """Dedekind eta: Q^{1/24} (Q; Q)_infinity with Q = exp(2*pi*i*tau)."""
    mp = ctx.mp
    tau = mp.mpc(tau)
    if not tau.imag > 0:
        raise DomainError("eta requires Im tau > 0")
    alpha = -mp.pi * 1j * tau
    Q = mp.exp(-2 * alpha)
    pref = power_from_alpha(alpha, "Q", Fraction(1, 24), ctx)
    return pref * pochhammer(Q, Q, mp.inf, ctx)


def theta(which: int, tau, ctx: PrecisionContext) -> mpc:
    """Jacobi theta constants theta_2/3/4 at nome q = exp(pi*i*tau).

    theta3 = 1 + 2 sum_{n>=1} q^{n^2} and theta4 = 1 + 2 sum_{n>=1} (-1)^n
    q^{n^2}, each sum a partial theta of `_partial_theta` and truncated on its
    certified tail bound; theta2 is returned in the triple product form
    2 q^{1/4} prod (1-Q^n)(1+Q^n)^2, the form used in the theta-chain check.
    """
    mp = ctx.mp
    tau = mp.mpc(tau)
    if not tau.imag > 0:
        raise DomainError("theta requires Im tau > 0")
    alpha = -mp.pi * 1j * tau
    q = mp.exp(-alpha)
    if which == 2:
        Q = q * q
        pref = 2 * power_from_alpha(alpha, "q", Fraction(1, 4), ctx)
        return pref * pochhammer(Q, Q, mp.inf, ctx) * pochhammer(-Q, Q, mp.inf, ctx) ** 2
    if which not in (3, 4):
        raise DomainError("theta index must be 2, 3 or 4")
    psi = {0: 1, 1: 1} if which == 3 else {0: 1, 1: -1}
    return 1 + 2 * _partial_theta(psi, 2, 1, 0, q, ctx, scale=2)


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
