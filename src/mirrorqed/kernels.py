"""Interference kernels shared by the mirror and cavity rates."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMirror

__all__ = ["f_kernel", "f_envelope", "interference_kernel", "F_TAYLOR_CROSSOVER"]

# Even Taylor coefficients of sin x/x + cos x/x^2 - sin x/x^3 about 0,
# powers x^0, x^2, x^4, x^6, x^8. Next term is -x^10/43243200.
_F_C0 = 2.0 / 3.0
_F_C2 = -2.0 / 15.0
_F_C4 = 1.0 / 140.0
_F_C6 = -1.0 / 5670.0
_F_C8 = 1.0 / 399168.0

# Crossover sized so the Taylor remainder (~x^10/4.3e7) and the direct
# branch's cancellation noise (~eps/x^2) are both far below 1e-12.
F_TAYLOR_CROSSOVER = 0.1


def _f_taylor(x):
    x2 = x * x
    return _F_C0 + x2 * (_F_C2 + x2 * (_F_C4 + x2 * (_F_C6 + x2 * _F_C8)))


def _f_direct(x):
    """s/x + c/(x*x) - s/(x*x*x) in that IEEE order, in three buffers.

    Past |x| ~ 1e102 the powers overflow to inf, which is harmless: the
    terms they divide go to 0, as they should. At |x| = inf sin and cos
    are nan, and f takes its limit 0 there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sin(x)
        x2 = np.multiply(x, x)
        c = np.cos(x)
        c /= x2
        x2 *= x
    np.divide(s, x2, out=x2)
    s /= x
    s += c
    s -= x2
    s[np.isinf(x)] = 0.0
    return s


def f_kernel(x):
    """sin x/x + cos x/x^2 - sin x/x^3, stable through x = 0.

    Even in x, maximum f(0) = 2/3, decays like sin(x)/x for large |x|.
    Below |x| = F_TAYLOR_CROSSOVER the three-term form loses digits to
    cancellation and an even Taylor polynomial (through x^8) is used
    instead. Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    small = np.abs(arr) < F_TAYLOR_CROSSOVER
    if not small.any():
        out = _f_direct(arr)
    else:
        out = np.empty_like(arr)
        out[small] = _f_taylor(arr[small])
        if not small.all():
            out[~small] = _f_direct(arr[~small])
    return float(out[0]) if scalar else out


def f_envelope(y):
    """Upper bound 1/|y| + 1/y^2 + 1/|y|^3 on |f| for y != 0."""
    ay = np.abs(y)
    # a power that overflows to inf makes its term 0, as it should
    with np.errstate(over="ignore"):
        return 1.0 / ay + 1.0 / ay ** 2 + 1.0 / ay ** 3


def interference_kernel(r_mir, x):
    """Two-mirror intensity kernel t^2 |1 + r e^{-ix}|^2 / |1 - r^2 e^{-2ix}|^2.

    Closed resummation of the multiple-reflection amplitude series at
    phase x per pass. Nonnegative for all x; peaks where the round-trip
    phase 2x is a multiple of 2*pi, with height (1+r)/(1-r) at the even
    resonances for r > 0 (odd ones for r < 0). Accepts scalars or arrays
    of r_mir and x, broadcast together.

    Raises DegenerateMirror if any |r_mir| >= 1 (t = 0 makes the ratio
    0/0).
    """
    r = np.asarray(r_mir, dtype=float)
    bad = np.abs(r) >= 1.0
    if bad.any():
        raise DegenerateMirror(
            f"|r_mir| must be < 1, got {float(r[bad][0])!r}")
    x = np.asarray(x, dtype=float)
    # 1 - r^2 as a product: one of the factors is exact for |r| >= 1/2,
    # where 1 - r * r would lose |r|^2 / (1 - r^2) ulps
    t2 = (1.0 - r) * (1.0 + r)
    # cancellation-free forms of |1 + r e^{-ix}|^2 and |1 - r^2 e^{-2ix}|^2
    num = (1.0 + r) ** 2 - 4.0 * r * np.sin(0.5 * x) ** 2
    den = t2 * t2 + 4.0 * (r * np.sin(x)) ** 2
    out = t2 * num / den
    return float(out) if out.ndim == 0 else out
