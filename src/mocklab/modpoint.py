"""Precision contexts and the one spelling of the nomes, `power_from_alpha`.

Every other module evaluates at a point of the upper half-plane through the
parametrisation

    alpha = -pi*i*tau   (Re alpha > 0),
    q  = exp(-alpha),          Q  = exp(-2*alpha),
    q1 = exp(-pi^2/alpha),     Q1 = exp(-2*pi^2/alpha),

and all fractional powers are taken through alpha:

    q^r  := exp(-r*alpha),     q1^r := exp(-r*pi^2/alpha),

never as complex powers of q itself.  With Re alpha > 0 this removes every
branch ambiguity; sqrt(pi/alpha) and sqrt(-i*tau) are principal roots, valid
because their arguments have positive real part.

All values are immutable after construction and results are reproducible
bit for bit.  Every layer computes in its PrecisionContext's own mpmath
context (`ctx.mp`) and never reads or sets the precision of the global
`mpmath.mp`, so threads may share the library at different precisions.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Tuple

from mpmath import MPContext, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import DomainError, PrecisionError

__all__ = [
    "PrecisionContext",
    "reference_context",
    "power_from_alpha",
]

_FRAC_BASES = ("q", "Q", "q1", "Q1")

# The guard bits of the fixed points of the hot loops: the q-series compute
# on integers scaled by 2^(prec_bits + 48), 48 bits below the working
# precision, and the ray quadrature on integers scaled by 2^(b + 48), b the
# bits its error target needs (`mordell._kernel_bits`).
_FIXED_BITS = 48

# Exponent multiplier per base: q^r = exp(-r*alpha), Q^r = exp(-2r*alpha), ...
_BASE_DOUBLING = {"q": 1, "Q": 2, "q1": 1, "Q1": 2}


@functools.cache
def _mp_context(prec: int) -> MPContext:
    """The mpmath context computing at prec bits; never mutated after this."""
    context = MPContext()
    context.prec = prec
    # __reduce__ rebuilds its numbers as global mpmath numbers of the same
    # exact value
    context.mpf.__reduce__ = lambda x: (mpf, (), x.__getstate__())
    context.mpc.__reduce__ = lambda z: (mpc, (), z.__getstate__())
    return context


def _fixed(z, P: int) -> Tuple[int, int]:
    """The mpc z as a pair of integers scaled by 2^P."""
    re, im = z._mpc_
    return to_fixed(re, P), to_fixed(im, P)


def _from_fixed(z: Tuple[int, int], P: int, mp: MPContext, prec: int = 0) -> mpc:
    """The pair z of integers scaled by 2^P as an mpc of mp, rounded to
    nearest at prec bits (mp's own precision by default)."""
    prec = prec or mp.prec
    return mp.make_mpc(tuple(from_man_exp(v, -P, prec, round_nearest) for v in z))


class _Settings(NamedTuple):
    prec_bits: int
    eps: mpf


class PrecisionContext(_Settings):
    """Working binary precision and target tolerance, the only two settings.

    prec_bits governs every mpmath operation; eps is the absolute target for
    series tails.  The quadrature's absolute target quad_eps is derived as
    eps * 10^10, the series/quadrature split 1e-40 / 1e-30 of the reference
    configuration, 256 bits and eps 1e-40 (the defaults).

    A named tuple of the two settings: equal and hashed by value, pickled
    as the two settings, and validated on every construction, `_replace`
    included.
    """

    __slots__ = ()

    def __new__(cls, prec_bits: int = 256, eps=None):
        if prec_bits < 64:
            raise DomainError("prec_bits must be at least 64")
        mp = _mp_context(prec_bits)
        eps = mp.mpf("1e-40") if eps is None else mp.mpf(eps)
        if not (mp.isfinite(eps) and eps > 0):
            raise DomainError("eps must be finite and positive")
        if eps <= mp.mpf(2) ** (-prec_bits + 16):
            raise PrecisionError(
                "eps %s is tighter than working precision minus the "
                "16-bit guard" % mp.nstr(eps, 6)
            )
        return super().__new__(cls, prec_bits, eps)

    @classmethod
    def _make(cls, settings):
        return cls(*settings)

    @property
    def quad_eps(self) -> mpf:
        """The quadrature's absolute target, eps * 10^10."""
        return self.eps * 10**10

    @property
    def mp(self) -> MPContext:
        """The mpmath context computing at prec_bits."""
        return _mp_context(self.prec_bits)

    def __reduce__(self):
        return PrecisionContext, tuple(self)


def reference_context() -> PrecisionContext:
    """The reference configuration: 256 bits, eps 1e-40, quadrature 1e-30."""
    return PrecisionContext()


def power_from_alpha(alpha, base: str, r, ctx: PrecisionContext) -> mpc:
    """base^r computed from alpha alone (base in {q, Q, q1, Q1}, r rational).

    q^r = exp(-r*alpha); q1^r = exp(-r*pi^2/alpha); Q, Q1 double the exponent.
    r may be a Fraction or an int; it is kept exact until the final
    multiplication by alpha.
    """
    if base not in _FRAC_BASES:
        raise DomainError("base must be one of %s" % (_FRAC_BASES,))
    r = Fraction(r)
    mp = ctx.mp
    alpha = mp.mpc(alpha)
    expo = alpha if base in ("q", "Q") else mp.pi**2 / alpha
    scale = _BASE_DOUBLING[base] * r
    return mp.exp(-expo * mp.mpf(scale.numerator) / scale.denominator)
