from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import mp, mpc, mpf

from mocklab import (
    DomainError,
    MockThetaId,
    PrecisionContext,
    eta,
    euler_inverse_coeffs,
    eval_mock,
    k_pair,
    series_expand,
    theta,
    unary_x,
)
from mocklab.errors import NonConvergenceError, PrecisionError
from mocklab.identities import _tau_grid
from mocklab.modpoint import power_from_alpha
from mocklab.qseries import (MAX_TERMS_DEFAULT, _MOCK_TERMS, _SERIES, _UNARY_PSI,
                              _euler_function, _partial_theta)

ALL_IDS = [MockThetaId.from_name(n) for n in ("chi0", "chi1", "omega", "f", "rho", "xi")]


# ---------------------------------------------------------------------------
# Euler's function (x; x)_inf by the pentagonal theorem
# ---------------------------------------------------------------------------

def _pochhammer(a, b, ctx):
    """(a; b)_inf = prod_{j>=0} (1 - a b^j), |b| < 1, as the product of its
    factors: the oracle of the pentagonal series `_euler_function`.

    Stops once the remaining |a| |b|^j / (1 - |b|) = r < 1 has r / (1 - r) <
    eps * 2^-8, which bounds the modulus of the log of the omitted factors,
    and so the relative error of the truncated product.
    """
    mp_ = ctx.mp
    a, b = mp_.mpc(a), mp_.mpc(b)
    prod, term = mp_.mpc(1), a  # a * b^j
    tail_target = ctx.eps * mp_.mpf(2) ** -8
    while True:
        prod *= 1 - term
        term *= b
        rem = abs(term) / (1 - abs(b))
        if rem < 1 and rem / (1 - rem) < tail_target:
            return prod


def test_pochhammer_infinite(ctx):
    with mp.workprec(ctx.prec_bits):
        assert _euler_function(mpf(0), ctx) == 1
        # against an explicit long product
        x = mpf("0.5")
        direct = mpf(1)
        for j in range(1, 600):
            direct *= 1 - x**j
        assert abs(_euler_function(x, ctx) - direct) < 10 * ctx.eps
    with pytest.raises(DomainError):
        _euler_function(mpf(1), ctx)


def test_pochhammer_infinite_stress(ctx):
    # against the product at 400 bits and eps 1e-80, relatively; at x = 0.99
    # the product is about e^-160 and takes about 11 000 factors, while the
    # terms of the pentagonal series reach modulus 1
    mp_ = ctx.mp
    for x in (mp_.mpf("0.91") * mp_.expj("0.3"), mp_.mpf("0.99"),
              mp_.mpf("0.99") * mp_.expj("2.5")):
        want = _pochhammer(x, x, STRESS)
        assert abs(_euler_function(x, ctx) - want) < ctx.eps * abs(want), x


def test_pochhammer_two_truncation_orders(ctx):
    loose = type(ctx)(prec_bits=256, eps="1e-20")
    with mp.workprec(ctx.prec_bits):
        v1 = _euler_function(mpf("0.5"), loose)
        v2 = _euler_function(mpf("0.5"), ctx)
        assert abs(v1 - v2) < loose.eps


# ---------------------------------------------------------------------------
# Mock theta functions: frozen low-order values and the oracle
# ---------------------------------------------------------------------------

def test_value_at_zero(ctx):
    for mid in ALL_IDS:
        assert abs(eval_mock(mid, mpf(0), ctx) - 1) < ctx.eps


# hand expansions: chi0 n<=1 gives 1 + q; chi1 gives 1 + 2q; omega n=0 term
# 1/(1-q)^2 = 1 + 2q + ...; f n=1 summand q/(1+q)^2 = q - 2q^2 + ...;
# rho n=0 term (1-q)/(1-q^3) = 1 - q + ...; xi = 1 + 2q/((1-q)(1-q^5)).
FROZEN = {
    "chi0": [1, 1, 1, 2],
    "chi1": [1, 2, 2, 3],
    "omega": [1, 2, 3, 4],
    "f": [1, 1, -2, 3],
    "rho": [1, -1, 0, 1],
    "xi": [1, 2, 2, 2],
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_series_expand_low_orders(name):
    s = series_expand(MockThetaId.from_name(name), len(FROZEN[name]) - 1)
    assert [c for c in s.coeffs] == [Fraction(c) for c in FROZEN[name]]
    assert all(c.denominator == 1 for c in s.coeffs)


def test_series_expand_examples():
    assert [int(c) for c in series_expand(MockThetaId.from_name("chi0"), 1).coeffs] == [1, 1]
    assert [int(c) for c in series_expand(MockThetaId.from_name("f"), 2).coeffs] == [1, 1, -2]
    assert [int(c) for c in series_expand(MockThetaId.from_name("chi0"), 0).coeffs] == [1]


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_eval_matches_oracle_on_disc(ctx, name):
    mid = MockThetaId.from_name(name)
    s = series_expand(mid, 40)
    with mp.workprec(ctx.prec_bits):
        for q in (mpf("0.5"), mpf("-0.45"), mpc("0.3", "0.2"), mpf("0.1")):
            num = eval_mock(mid, q, ctx)
            poly = s.eval(q, ctx)
            maxc = max(abs(c) for c in s.coeffs)
            # constant 4 absorbs the growth of the first omitted coefficients
            bound = ctx.eps + 4 * abs(q) ** 41 * mpf(maxc.numerator) / maxc.denominator
            assert abs(num - poly) < bound
            assert abs(num - poly) < ctx.eps + s.tail_bound


# The defining series as mpf term generators, summed by the three-small-terms
# rule.  For the order-3 functions this is the floating-point form of
# `eval_mock`, kept as its oracle.  `eval_mock` sums chi0 and chi1 from the
# Andrews-Garvan forms, whose terms fall like q^{2n^2}; their definitions,
# whose terms fall like q^n, give their reference instead (`_chi_reference`).

def _omega_terms(q):
    # sum_n q^{2n(n+1)} / (q; q^2)_{n+1}^2
    denom = (1 - q) ** 2
    yield 1 / denom
    for n in range(1, MAX_TERMS_DEFAULT):
        denom *= (1 - q ** (2 * n + 1)) ** 2
        yield q ** (2 * n * (n + 1)) / denom


def _f_terms(q):
    # sum_n q^{n^2} / (-q; q)_n^2
    yield 1
    denom = 1
    for n in range(1, MAX_TERMS_DEFAULT):
        denom *= (1 + q**n) ** 2
        yield q ** (n * n) / denom


def _rho_terms(q):
    # sum_n q^{2n(n+1)} (q; q^2)_{n+1} / (q^3; q^6)_{n+1}
    ratio = (1 - q) / (1 - q**3)
    yield ratio
    for n in range(1, MAX_TERMS_DEFAULT):
        ratio *= (1 - q ** (2 * n + 1)) / (1 - q ** (6 * n + 3))
        yield q ** (2 * n * (n + 1)) * ratio


def _xi_terms(q):
    # 1 + 2 sum_{n>=1} q^{6n(n-1)+1} / ((q; q^6)_n (q^5; q^6)_n)
    yield 1
    inv = 1 / ((1 - q) * (1 - q**5))
    yield 2 * q * inv
    for n in range(2, MAX_TERMS_DEFAULT):
        inv /= (1 - q ** (6 * n - 5)) * (1 - q ** (6 * n - 1))
        yield 2 * q ** (6 * n * (n - 1) + 1) * inv


TERM_GENERATORS = {"omega": _omega_terms, "f": _f_terms, "rho": _rho_terms,
                   "xi": _xi_terms}


def _sum_with_stop_rule(terms, ctx):
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
            raise NonConvergenceError("series stop rule unmet")
    return total


LOW = PrecisionContext(prec_bits=64, eps="1e-12")
# the series_edge nomes e^-0.008024 and e^-0.004012, points near |q| = 1
# and the points of the disc test
ORACLE_POINTS = (("exp", "-0.008024"), ("exp", "-0.004012"), "0.996", "-0.99",
                 ("0.7", "0.69"), ("-0.3", "-0.9"), "0.5", "-0.45", ("0.3", "0.2"))
# for chi0 and chi1 also |q| = 0.998 and 0.9957, where their defining series
# take about 60 000 and 30 000 terms, the Andrews-Garvan forms a few hundred
CHI_POINTS = ("0.998", ("0.55", "0.83"))


def _oracle_point(p, mp_):
    if isinstance(p, str):
        return mp_.mpf(p)
    if p[0] == "exp":
        return mp_.exp(mp_.mpf(p[1]))
    return mp_.mpc(*p)


@lru_cache(maxsize=None)
def _chi_reference(name, q, prec_bits, eps):
    """chi0 or chi1 at q from its defining series, in complex integers scaled
    by 2^P, P = prec_bits + 32, summed by the three-small-terms rule at eps;
    q is taken exactly.

    chi0 = sum_n q^n / (q^{n+1}; q)_n and chi1 = sum_n q^n / (q^{n+1}; q)_{n+1}
    have the terms t_0 = (1 - q)^-s and t_n = t_{n-1} q (1 - q^n) /
    ((1 - q^{2n+s-1}) (1 - q^{2n+s})), s = 0 resp. 1.  Each step rounds by
    a few units of 2^-P relative to the largest term, so the N terms, about
    60 000 at |q| = 0.998, err by less than N^2 2^-P of it.  At eps 2^-40
    below the tested eps the stop drops a tail of about eps 2^-48 / (1 - |q|),
    far below eps / 16 at |q| <= 0.998."""
    mp_ = PrecisionContext(prec_bits=prec_bits, eps=eps).mp
    P = prec_bits + 32
    one = 1 << P

    def fixed(x):
        x = mp_.ldexp(x, P)
        assert x == int(x), "q has bits below 2^-P"
        return int(x)

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1] >> P, a[0] * b[1] + a[1] * b[0] >> P

    def div(a, b):
        d = b[0] * b[0] + b[1] * b[1]
        return ((a[0] * b[0] + a[1] * b[1] << P) // d,
                (a[1] * b[0] - a[0] * b[1] << P) // d)

    def one_minus(a):
        return one - a[0], -a[1]

    q = mp_.mpc(q)
    q = fixed(q.real), fixed(q.imag)
    s = name == "chi1"
    t = div((one, 0), one_minus(q)) if s else (one, 0)
    qn, q_lo = (one, 0), mul(q, q) if s else q  # q^n at n = 0, q^{2n+s-1} at n = 1
    total, small_run = t, 0
    threshold = int(mp_.ldexp(eps, P - 8)) ** 2  # of |t|^2, in units of 2^-2P
    for n in range(1, MAX_TERMS_DEFAULT):
        qn, q_hi = mul(qn, q), mul(q_lo, q)
        t = div(mul(mul(t, q), one_minus(qn)), mul(one_minus(q_lo), one_minus(q_hi)))
        q_lo = mul(q_hi, q)
        total = total[0] + t[0], total[1] + t[1]
        if t[0] * t[0] + t[1] * t[1] < threshold:
            small_run += 1
            if small_run >= 3 and n >= 8:
                return mp_.mpc(*(mp_.ldexp(x, -P) for x in total))
        else:
            small_run = 0
    raise NonConvergenceError("series stop rule unmet")


@pytest.mark.parametrize("c", [pytest.param(None, id="256"), pytest.param(LOW, id="64")])
@pytest.mark.parametrize("name", sorted(FROZEN))
def test_eval_matches_float_oracle(ctx, c, name):
    c = c or ctx
    mid = MockThetaId.from_name(name)
    rel = c.mp.mpf(2) ** -(c.prec_bits - 16)
    chi = name in ("chi0", "chi1")
    for p in ORACLE_POINTS + (CHI_POINTS if chi else ()):
        q = _oracle_point(p, c.mp)
        got = eval_mock(mid, q, c)
        if chi:
            # the same q, 64 bits finer: chi0 grows like e^{pi^2/(30(1-|q|))},
            # so its value moves by far more than eps when q is rounded anew
            want = _chi_reference(name, q, c.prec_bits + 64, c.eps * mpf(2) ** -40)
            assert abs(got - want) < c.eps / 16 + rel * abs(want), p
        else:
            want = _sum_with_stop_rule(TERM_GENERATORS[name](q), c)
            assert abs(got - want) < rel * max(1, abs(want)), p


def _expand_descriptor(series, sign, N):
    """The `_SERIES` descriptor at sign * q as integer coefficients c_0..c_N,
    built term by term from its first term and its term ratio."""

    def shift(c, e):  # c * (sign q)^e
        if e > N:
            return [0] * (N + 1)
        return [0] * e + [sign**e * x for x in c[:N + 1 - e]]

    def times(c, e, s):  # c * (1 + s (sign q)^e), in place
        s *= sign**e
        for i in range(N, e - 1, -1):
            c[i] += s * c[i - e]

    def over(c, e, s):  # c / (1 + s (sign q)^e), in place
        assert e > 0
        s *= sign**e
        for i in range(e, N + 1):
            c[i] -= s * c[i - e]

    def apply(c, r, n):
        c = shift(c, r.a * n + r.b)
        for s, k, d in r.num:
            times(c, k * n + d, s)
        for s, k, d in r.den:
            over(c, k * n + d, s)
        return c

    t = apply([series.coeff] + [0] * N, series.first, 0)
    total = [series.head] + [0] * N
    low, n = series.first.b, 0  # t_n is q^low times a unit
    while low <= N:
        total = [x + y for x, y in zip(total, t)]
        n += 1
        low += series.ratio.a * n + series.ratio.b
        t = apply(t, series.ratio, n)
    return total


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_mock_terms_expand_to_the_definitions(name):
    # chi0 = 2 F0(q) - phi0(-q) and chi1 = 2 F1(q) - psi1(-q) exactly, to
    # q^300, against the expansion of the definitions; each order-3 id is
    # its own descriptor
    N = 300
    acc = [0] * (N + 1)
    for weight, sign, series in _MOCK_TERMS[name]:
        for i, c in enumerate(_expand_descriptor(_SERIES[series], sign, N)):
            acc[i] += weight * c
    assert acc == list(series_expand(MockThetaId.from_name(name), N).coeffs)


def test_eval_domain_guards(ctx):
    mid = MockThetaId.from_name("chi0")
    with pytest.raises(DomainError):
        eval_mock(mid, mpf("1.2"), ctx)
    with pytest.raises(DomainError):
        eval_mock(mid, mpf("0.9995"), ctx)
    with pytest.raises(DomainError):
        MockThetaId(5, "omega")


def test_mock_theta_id_validates_every_construction():
    mid = MockThetaId(3, "f")
    assert mid == MockThetaId.from_name("f") and mid.order == 3 and mid.name == "f"
    assert mid._replace(name="omega") == MockThetaId(3, "omega")
    for order, name in ((5, "omega"), (3, "chi0"), (7, "f")):
        with pytest.raises(DomainError, match="unknown mock theta id"):
            MockThetaId(order, name)
        with pytest.raises(DomainError, match="unknown mock theta id"):
            mid._replace(order=order, name=name)
    with pytest.raises(DomainError, match="unknown mock theta name"):
        MockThetaId.from_name("psi")


def test_k_pair(ctx):
    with mp.workprec(ctx.prec_bits):
        k0, k1 = k_pair(mpf(0), ctx)
        assert abs(k0 - 1) < ctx.eps and abs(k1) < ctx.eps
        # K0 = O(1), K1 = O(Q) as Q -> 0
        for qv in (mpf("0.01"), mpf("0.001")):
            k0, k1 = k_pair(qv, ctx)
            assert abs(k0 - 1) < 3 * qv
            assert abs(k1) < 3 * qv
        # against the exact expansion oracle at Q = 0.05
        Q = mpf("0.05")
        k0, k1 = k_pair(Q, ctx)
        chi0_s = series_expand(MockThetaId.from_name("chi0"), 60)
        chi1_s = series_expand(MockThetaId.from_name("chi1"), 60)
        assert abs(k0 - (2 - chi0_s.eval(Q, ctx))) < ctx.eps
        assert abs(k1 - (-Q * chi1_s.eval(Q, ctx))) < ctx.eps


# ---------------------------------------------------------------------------
# Unary false-theta series
# ---------------------------------------------------------------------------

# the folded unary series block by block: block k holds the exponents
# ((a +- 15(2k+1))^2 - c)/120 for both a of the family, all of sign (-1)^k
BLOCK_FAMILIES = {"X0": ((14, 4), 1), "X1": ((8, 2), 49)}


def _block_terms(which, kmax):
    """(sign, exponent) pairs of the blocks k <= kmax, exponents exact."""
    fams, c = BLOCK_FAMILIES[which]
    out = []
    for k in range(kmax + 1):
        for a in fams:
            for s in (-1, 1):
                e = Fraction((a + s * 15 * (2 * k + 1)) ** 2 - c, 120)
                assert e.denominator == 1 and e >= 0
                out.append((-1 if k % 2 else 1, int(e)))
    return out


def _psi_terms(which, nmax):
    """(sign, exponent) pairs of the psi table of unary_x for n <= nmax."""
    psi, c = _UNARY_PSI[which]
    return [(psi[n % 60], Fraction(n * n - c, 120))
            for n in range(1, nmax + 1) if n % 60 in psi]


def _coeffs(terms, emax):
    out = {}
    for sign, e in terms:
        if e <= emax:
            out[e] = out.get(e, 0) + sign
    return out


def _direct(terms, u):
    return sum(sign * u**int(e) for sign, e in terms)


def test_unary_exponent_table():
    # blocks k <= kmax hold exactly the terms n < 30 (kmax + 1) of the psi table
    for which in ("X0", "X1"):
        for kmax in (0, 1, 5, 40):
            assert (sorted(_block_terms(which, kmax))
                    == sorted(_psi_terms(which, 30 * (kmax + 1) - 1)))
    x0 = {0: 1, 1: 1, 3: 1, 7: 1, 8: -1, 14: -1, 20: -1, 29: -1, 31: 1}
    x1 = {0: 1, 1: 1, 2: 1, 4: 1, 11: -1, 15: -1, 18: -1, 23: -1}
    assert _coeffs(_block_terms("X0", 40), 31) == x0
    assert _coeffs(_psi_terms("X0", 1300), 31) == x0
    assert _coeffs(_block_terms("X1", 40), 23) == x1
    assert _coeffs(_psi_terms("X1", 1300), 23) == x1


def test_unary_exponents_are_integers(ctx):
    # exactness asserted for every block k up to 200, i.e. n < 30 * 201
    for which in ("X0", "X1"):
        _block_terms(which, 200)
        terms = _psi_terms(which, 30 * 201 - 1)
        assert all(e.denominator == 1 and e >= 0 for _, e in terms)
        assert len(terms) == 4 * 201
    # the evaluator asserts it on psi's support
    with pytest.raises(AssertionError):
        _partial_theta({1: 1}, 2, 4, 0, mpf("0.5"), ctx)


def _block_root(mp_):
    """The root of 1 + u^6 + u^12 + u^21 of largest modulus in |u| < 1, where
    the block k = 1 of X0, u^8 (1 + u^6 + u^12 + u^21), vanishes."""
    coeffs = [0] * 22
    for e in (0, 6, 12, 21):
        coeffs[21 - e] = 1
    roots = mp_.polyroots(coeffs, maxsteps=200, extraprec=2 * mp_.prec)
    return max((r for r in roots if abs(r) < 1), key=abs)


def test_unary_values(ctx):
    u0 = _block_root(ctx.mp)
    assert abs(u0) > mpf("0.97")
    with mp.workprec(ctx.prec_bits):
        assert abs(unary_x("X0", mpf(0), ctx) - 1) < ctx.eps
        assert abs(unary_x("X1", mpf(0), ctx) - 1) < ctx.eps
        # summing must go on past the vanishing block at u0
        for u in (mpf("0.3"), u0):
            for which in ("X0", "X1"):
                direct = _direct(_block_terms(which, 60), u)
                assert abs(unary_x(which, u, ctx) - direct) < 10 * ctx.eps
    with pytest.raises(DomainError):
        unary_x("X0", mpf(1), ctx)


def test_unary_partial_sum_decay(ctx):
    # consecutive truncations differ by less than the first omitted block
    with mp.workprec(ctx.prec_bits):
        u = mpf("0.3")
        partial = {kmax: _direct(_psi_terms("X0", 30 * (kmax + 1) - 1), u)
                   for kmax in (2, 3, 4)}
        for kmax in (2, 3):
            omitted = sum(u**e for _, e in _block_terms("X0", kmax + 1)[4 * (kmax + 1):])
            assert abs(partial[kmax + 1] - partial[kmax]) <= omitted + ctx.eps


STRESS = PrecisionContext(prec_bits=400, eps="1e-80")


def test_partial_theta_stress_edge(ctx):
    # |u| = |q| = 0.999, against the same call at 400 bits and eps 1e-80
    mp_ = ctx.mp
    u = mp_.mpf("0.999") * mp_.expj("0.7")
    for which in ("X0", "X1"):
        assert abs(unary_x(which, u, ctx) - unary_x(which, u, STRESS)) < ctx.eps
    tau = mp_.mpc("0.3", -mp_.log(mp_.mpf("0.999")) / mp_.pi)
    assert abs(abs(mp_.exp(mp_.pi * 1j * tau)) - mp_.mpf("0.999")) < ctx.eps
    for which in (2, 3, 4):
        assert abs(theta(which, tau, ctx) - theta(which, tau, STRESS)) < ctx.eps


# ---------------------------------------------------------------------------
# Eta and theta
# ---------------------------------------------------------------------------

def test_eta_transformations(ctx):
    with mp.workprec(ctx.prec_bits):
        tau = mpc(0, 1)
        assert abs(eta(tau + 1, ctx) - mp.exp(mp.pi * 1j / 12) * eta(tau, ctx)) < 10 * ctx.eps
        # S law at the fixed point is trivial; do the round trip from i/2
        v = eta(mpc(0, 2), ctx)
        want = mp.sqrt(-1j * mpc(0, "0.5")) * eta(mpc(0, "0.5"), ctx)
        assert abs(v - want) < 10 * ctx.eps


def test_theta_transformations(ctx):
    with mp.workprec(ctx.prec_bits):
        tau = mpc(0, 1)
        assert abs(theta(3, tau + 2, ctx) - theta(3, tau, ctx)) < 10 * ctx.eps
        tau = mpc(0, 2)
        want = mp.sqrt(-1j * tau) * theta(3, tau, ctx)
        assert abs(theta(3, -1 / tau, ctx) - want) < 10 * ctx.eps


def _theta2_product_form(tau, ctx):
    """theta2 in the triple product form 2 q^{1/4} (Q; Q)_inf (-Q; Q)_inf^2,
    Q = q^2, from the product oracle: a cross-check of the series theta(2)."""
    mp_ = ctx.mp
    alpha = -mp_.pi * 1j * mp_.mpc(tau)
    Q = mp_.exp(-2 * alpha)
    pref = 2 * power_from_alpha(alpha, "q", Fraction(1, 4), ctx)
    return pref * _pochhammer(Q, Q, ctx) * _pochhammer(-Q, Q, ctx) ** 2


def test_theta2_sum_vs_product(ctx):
    with mp.workprec(ctx.prec_bits):
        for tau in (mpc(0, "1.5"), mpc("0.3", "0.2")):
            assert abs(theta(2, tau, ctx) - _theta2_product_form(tau, ctx)) < 10 * ctx.eps
    # relatively near the cusp 1/2, where theta2 is about 7e-42 and its
    # series terms reach modulus 1
    tau = ctx.mp.mpc("0.5", "0.002")
    want = _theta2_product_form(tau, STRESS)
    assert abs(theta(2, tau, ctx) - want) < ctx.eps * abs(want)


# the two tau of the series_edge benchmark, |q| about 0.956 and 0.952
SERIES_EDGE_TAUS = (("-0.233902", "0.014133"), ("0.273299", "0.015589"))


def test_theta_product_is_twice_eta_cubed(ctx):
    # theta2 theta3 theta4 = 2 eta^3: the partial thetas against the
    # pentagonal series, two independent formulas
    mp_ = ctx.mp
    for tau in [mp_.mpc(*t) for t in SERIES_EDGE_TAUS] + _tau_grid(mp_):
        t2, t3, t4 = (theta(k, tau, ctx) for k in (2, 3, 4))
        e = eta(tau, ctx)
        # each tail bound is eps 2^-8; the factor 2 covers the rounding
        tol = ctx.eps * 2**-7 * (abs(t2 * t3) + abs(t2 * t4) + abs(t3 * t4)
                                 + 6 * abs(e) ** 2)
        assert abs(t2 * t3 * t4 - 2 * e**3) < tol, tau


def test_eta_theta3_nonvanishing_grid(ctx):
    with mp.workprec(ctx.prec_bits):
        margin = mpf(2) ** (-ctx.prec_bits // 2)
        for i in range(10):
            for j in range(10):
                tau = mpc(-1 + mpf(2) * i / 9, mpf("0.2") + mpf("2.8") * j / 9)
                assert abs(eta(tau, ctx)) > margin
                assert abs(theta(3, tau, ctx)) > margin


def test_theta_domain(ctx):
    with pytest.raises(DomainError):
        eta(mpc(0, -1), ctx)
    with pytest.raises(DomainError):
        theta(3, mpc(1, 0), ctx)
    with pytest.raises(DomainError):
        theta(5, mpc(0, 1), ctx)
    # relative to its floor, eta here would need about 4e8 more bits; the
    # sum refuses before it starts
    with pytest.raises(NonConvergenceError):
        eta(mpc(0, "1e-9"), ctx)


@pytest.mark.parametrize("which, re", [(4, 0), (3, 1)])
def test_theta3_theta4_refuse_noise_at_a_cusp(ctx, which, re):
    """theta4(0.002i) = sqrt(500) theta2(500i), about 7e-170, and theta3 at
    1 + 0.002i is the same number: far below eps, so the absolute sum holds
    no digit of it, and theta refuses rather than return its rounding."""
    mp_ = ctx.mp
    tau = mp_.mpc(re, "0.002")
    true = mp_.sqrt(500) * theta(2, mp_.mpc(0, 500), ctx)
    assert 0 < true.real < ctx.eps
    with pytest.raises(PrecisionError, match="theta%d" % which):
        theta(which, tau, ctx)
    # the other theta at the same tau is about sqrt(500)
    assert abs(theta(7 - which, tau, ctx) - mp_.sqrt(500)) < ctx.eps


# ---------------------------------------------------------------------------
# Partition numbers and Euler normalization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _count_partitions(n, largest):
    if n == 0:
        return 1
    if largest == 0:
        return 0
    total = 0
    for part in range(1, largest + 1):
        if part > n:
            break
        total += _count_partitions(n - part, part)
    return total


def test_partition_numbers():
    p = euler_inverse_coeffs(100)
    assert p[0] == 1 and p[1] == 1 and p[2] == 2
    for n in range(21):
        assert p[n] == _count_partitions(n, n)
    assert p[100] == 190569292


def test_partition_defining_inverse():
    N = 60
    p = euler_inverse_coeffs(N)
    # multiply by (Q;Q)_inf via the pentagonal expansion of the product
    prod = [0] * (N + 1)
    prod[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= N:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= N:
                prod[g] += sign
        k += 1
    conv = [sum(p[i] * prod[n - i] for i in range(n + 1)) for n in range(N + 1)]
    assert conv == [1] + [0] * N


def test_euler_inverse_caps():
    with pytest.raises(DomainError):
        euler_inverse_coeffs(-1)
    with pytest.raises(DomainError):
        series_expand(MockThetaId.from_name("f"), 20001)
