"""Independent reference values for the benchmark's output checks.

Nothing here imports mirrorqed. Each reference uses a different scheme
from the program's own route:

* mirror ratio: 1 + (3/2) re_r f(2 k0d) with f evaluated in mpmath;
* cavity ratio: mpmath adaptive quadrature of the 1-D reduction
  (3/8) int_{-1}^{1} (1 + xi^2) K(k0d xi) dxi, split at the resonance
  peaks of the closed kernel K (the program integrates over the whole
  solid angle with Gauss-Legendre panels, or sums a reflection series);
* second-order subwavelength ratio: its formula in mpmath;
* master-equation population: scipy ``expm`` of a Liouvillian built here
  (the program steps RK4 on its own Liouvillian);
* single-rate population: exp(-Gamma t) with the adiabatic rate.

Every function returns (value, err), where err is the reference's own
error: the quadrature's estimate plus the rounding of the value to a
double.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

EPS = 2.220446049250313e-16

#: Working precision of the mpmath references.
DPS = 20


def _round_err(value: float) -> float:
    """A few units in the last place of a double of O(max(1, |value|))."""
    return 4.0 * EPS * max(1.0, abs(value))


def f_mp(x: float) -> mp.mpf:
    """sin x/x + cos x/x^2 - sin x/x^3 at working precision (2/3 at 0)."""
    xm = mp.mpf(repr(float(x)))
    if xm == 0:
        return mp.mpf(2) / 3
    return mp.sin(xm) / xm + mp.cos(xm) / xm ** 2 - mp.sin(xm) / xm ** 3


def mirror_ratio(re_r: float, k0d: float) -> tuple[float, float]:
    """Single-mirror decay ratio 1 + (3/2) re_r f(2 k0d)."""
    with mp.workdps(DPS):
        value = float(1 + mp.mpf(1.5) * mp.mpf(repr(float(re_r)))
                      * f_mp(2.0 * k0d))
    return value, _round_err(value)


def cavity_ratio(r: float, k0d: float) -> tuple[float, float]:
    """Centered-cavity decay ratio from the 1-D reduced integral.

    The kernel peaks at xi = j pi / k0d (j even for r > 0, odd for r < 0);
    those points split the interval so the adaptive rule sees each peak
    at a panel edge.
    """
    with mp.workdps(DPS):
        rm = mp.mpf(repr(float(r)))
        kd = mp.mpf(repr(float(k0d)))
        t2 = 1 - rm ** 2

        def integrand(xi):
            x = kd * xi
            num = 1 + 2 * rm * mp.cos(x) + rm ** 2
            den = 1 - 2 * rm ** 2 * mp.cos(2 * x) + rm ** 4
            return (1 + xi ** 2) * t2 * num / den

        points = {mp.mpf(-1), mp.mpf(1)}
        j = 0 if r >= 0 else 1
        while j * mp.pi / kd < 1:
            points.update((j * mp.pi / kd, -j * mp.pi / kd))
            j += 2
        value, err = mp.quad(integrand, sorted(points), error=True)
        value = float(mp.mpf(3) / 8 * value)
        return value, float(mp.mpf(3) / 8 * err) + _round_err(value)


def second_order(r: float, k0d: float) -> tuple[float, float]:
    """(1+r)/(1-r) * [1 - (2/5) r k0d^2 / (1-r)^2], the formula itself."""
    with mp.workdps(DPS):
        rm = mp.mpf(repr(float(r)))
        km = mp.mpf(repr(float(k0d)))
        value = float((1 + rm) / (1 - rm)
                      * (1 - mp.mpf(2) / 5 * rm * km ** 2 / (1 - rm) ** 2))
    return value, _round_err(value)


def adiabatic_rate(g: float, kappa: float, gamma: float) -> float:
    """gamma + 4 g^2 / kappa, the rate of the single-rate model."""
    return gamma + 4.0 * g ** 2 / kappa


def single_rate_population(g: float, kappa: float, gamma: float,
                           times) -> np.ndarray:
    """exp(-Gamma t) at the adiabatic rate."""
    rate = adiabatic_rate(g, kappa, gamma)
    return np.array([math.exp(-rate * t) for t in times])


def _liouvillian(g: float, kappa: float, gamma: float,
                 n_fock: int) -> np.ndarray:
    """Generator of the atom + damped mode master equation.

    Acts on the column-stacked density matrix, vec(A rho B) =
    (B^T kron A) vec(rho), with H = g (sigma+ a + sigma- a^dag) and
    dissipators kappa D[a] + gamma D[sigma-]. Basis |atom> (x) |n>.
    """
    n1 = n_fock + 1
    a1 = np.diag(np.sqrt(np.arange(1.0, n1)), 1)
    a = np.kron(np.eye(2), a1)
    sm = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(n1))
    h = g * (sm.T @ a + sm @ a.T)
    eye = np.eye(2 * n1)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, c in ((kappa, a), (gamma, sm)):
        cdc = c.T @ c
        gen = gen + rate * (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc)
                            - 0.5 * np.kron(cdc.T, eye))
    return gen


def jc_excited_population(g: float, kappa: float, gamma: float,
                          times, n_fock: int = 5) -> np.ndarray:
    """Excited-atom population of the master equation, excited-vacuum start.

    Propagates with scipy's ``expm`` between consecutive grid times; a
    uniform grid reuses one propagator (spacings that differ only in the
    last digits share it, which moves the result by O(1e-16)).
    """
    from scipy.linalg import expm

    n1 = n_fock + 1
    dim = 2 * n1
    gen = _liouvillian(g, kappa, gamma, n_fock)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n1, n1] = 1.0
    vec = rho.reshape(-1, order="F")
    propagators = {}
    out = []
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            step = float(f"{t - t_prev:.12g}")
            if step not in propagators:
                propagators[step] = expm(gen * step)
            vec = propagators[step] @ vec
            t_prev = t
        diag = vec.reshape(dim, dim, order="F").diagonal().real
        out.append(float(diag[n1:].sum()))
    return np.array(out)


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of the mean of n Bernoulli(p) draws."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)
