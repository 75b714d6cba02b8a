"""Small exact 2x2 matrix helpers of the identity layer (`identities`).

Matrices are plain 2x2 tuples of mpmath numbers (and Python ints); only what
the mixing/phase algebra needs is provided.
"""

from __future__ import annotations

from .modpoint import PrecisionContext

__all__ = [
    "mixing_matrix",
    "phase_matrix",
    "mat_mul",
    "mat_vec",
    "mat_sub",
    "mat_neg",
    "mat_pow",
    "mat_norm",
    "identity2",
]

Mat = tuple  # ((a, b), (c, d))


def mixing_matrix(ctx: PrecisionContext) -> Mat:
    """(2/sqrt5) * [[sin(pi/5), sin(2pi/5)], [sin(2pi/5), -sin(pi/5)]].

    An involution: M^2 = 1, det M = -1, trace 0, eigenvalues +-1.
    """
    mp = ctx.mp
    c = 2 / mp.sqrt(5)
    s1 = mp.sin(mp.pi / 5)
    s2 = mp.sin(2 * mp.pi / 5)
    return ((c * s1, c * s2), (c * s2, -c * s1))


def phase_matrix(ctx: PrecisionContext) -> Mat:
    """diag(e^{-pi i/10}, e^{-9 pi i/10}); det = -1."""
    mp = ctx.mp
    return (
        (mp.exp(-mp.pi * 1j / 10), mp.mpc(0)),
        (mp.mpc(0), mp.exp(-9 * mp.pi * 1j / 10)),
    )


def identity2() -> Mat:
    return ((1, 0), (0, 1))


def mat_mul(A: Mat, B: Mat) -> Mat:
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def mat_vec(A: Mat, v):
    return (A[0][0] * v[0] + A[0][1] * v[1], A[1][0] * v[0] + A[1][1] * v[1])


def mat_sub(A: Mat, B: Mat) -> Mat:
    return (
        (A[0][0] - B[0][0], A[0][1] - B[0][1]),
        (A[1][0] - B[1][0], A[1][1] - B[1][1]),
    )


def mat_neg(A: Mat) -> Mat:
    return ((-A[0][0], -A[0][1]), (-A[1][0], -A[1][1]))


def mat_pow(A: Mat, n: int) -> Mat:
    out = identity2()
    base = A
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def mat_norm(A: Mat):
    """Maximum absolute entry (Chebyshev norm)."""
    return max(abs(A[i][j]) for i in range(2) for j in range(2))
