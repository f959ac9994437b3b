"""Independent reference implementations used to pin expected test values.

Everything in this module is deliberately written without importing the
package under test, using different numerical schemes than the library:

* sphere integrals: nested trapezoid refinement in (theta, phi) instead of
  the library's Gauss-Legendre x periodic-trapezoid product rule;
* special-function values: mpmath at 40 significant digits;
* cavity decay ratios: mpmath adaptive quadrature of the 1-D reduction,
  subdivided at the known resonance peaks;
* multiple-reflection and image sums: direct partial summation (no
  resummation);
* polarization frame: e_H and e_V built from cross products instead of
  the library's explicit trigonometric components;
* master-equation dynamics: scipy.integrate.solve_ivp at tight tolerance
  instead of the library's Pade matrix-exponential propagator;
* no-jump amplitude: mpmath's expm of the 2x2 H_eff at 60 digits instead
  of the library's closed form.

Running ``python -m tests.oracles`` prints the table of reference values
that the test modules freeze as literals.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# sphere quadrature (nested trapezoid, refined)
# ---------------------------------------------------------------------------


def sphere_trapezoid(integrand, n_theta: int, n_phi: int) -> complex:
    """Integrate ``integrand(theta, phi)`` over the unit sphere.

    Plain trapezoid rule in theta on [0, pi] (the sin(theta) weight kills
    the endpoints) and a uniform periodic trapezoid in phi. ``integrand``
    must accept broadcast numpy arrays.

    Parameters
    ----------
    integrand : callable
        Vectorized function of (theta, phi) returning float or complex.
    n_theta : int
        Number of theta intervals (n_theta + 1 nodes).
    n_phi : int
        Number of phi nodes (equal weights, period 2*pi).

    Returns
    -------
    complex
        Approximation of the solid-angle integral including sin(theta).
    """
    theta = np.linspace(0.0, np.pi, n_theta + 1)
    phi = (2.0 * np.pi / n_phi) * np.arange(n_phi)
    th = theta[:, None]
    ph = phi[None, :]
    vals = integrand(th, ph) * np.sin(th)
    w_theta = np.full(n_theta + 1, np.pi / n_theta)
    w_theta[0] *= 0.5
    w_theta[-1] *= 0.5
    phi_sum = vals.sum(axis=1) * (2.0 * np.pi / n_phi)
    return complex(np.dot(w_theta, phi_sum))


def sphere_integral_refined(integrand, tol: float = 1e-11,
                            n0: int = 64, max_doublings: int = 14):
    """Trapezoid refinement with Richardson extrapolation.

    Doubles the node counts until two successive Richardson-extrapolated
    values agree to ``tol`` (relative to max(1, |I|)).

    Returns
    -------
    (value, err) : (complex, float)
    """
    n = n0
    prev = sphere_trapezoid(integrand, n, n)
    prev_rich = None
    for _ in range(max_doublings):
        n *= 2
        cur = sphere_trapezoid(integrand, n, n)
        rich = cur + (cur - prev) / 3.0  # h^2 Richardson step
        if prev_rich is not None:
            err = abs(rich - prev_rich)
            if err <= tol * max(1.0, abs(rich)):
                return rich, err
        prev, prev_rich = cur, rich
    return rich, abs(rich - prev_rich)


# ---------------------------------------------------------------------------
# polarization frame (cross products)
# ---------------------------------------------------------------------------


def polarization_frame(theta: float, phi: float):
    """Orthonormal triple (s, e_H, e_V) for one propagation direction.

    s has polar angle theta from +x and azimuth phi around x. e_H is
    x-hat cross s, normalized, so it lies in the mirror plane x = const;
    e_V = s cross e_H completes the frame. Directions on the x axis have
    no such frame and raise ValueError.
    """
    s = np.array([np.cos(theta), np.cos(phi) * np.sin(theta),
                  np.sin(phi) * np.sin(theta)])
    e_h = np.cross([1.0, 0.0, 0.0], s)
    norm = np.linalg.norm(e_h)
    if norm == 0.0:
        raise ValueError("the polarization frame is undefined on the x axis")
    e_h = e_h / norm
    return s, e_h, np.cross(s, e_h)


def dipole_weights(d, theta: float, phi: float) -> tuple[float, float]:
    """(|d . e_H|^2, |d . e_V|^2) for the unit vector along ``d``."""
    d = np.asarray(d, dtype=float)
    d = d / np.linalg.norm(d)
    _, e_h, e_v = polarization_frame(theta, phi)
    return float(np.dot(d, e_h)) ** 2, float(np.dot(d, e_v)) ** 2


# ---------------------------------------------------------------------------
# interference kernel references (mpmath)
# ---------------------------------------------------------------------------


def f_reference(x, dps: int = 40) -> float:
    """High-precision sin x/x + cos x/x^2 - sin x/x^3 (limit 2/3 at x=0)."""
    import mpmath as mp

    with mp.workdps(dps):
        xm = mp.mpf(repr(float(x)))
        if xm == 0:
            return float(mp.mpf(2) / 3)
        val = mp.sin(xm) / xm + mp.cos(xm) / xm ** 2 - mp.sin(xm) / xm ** 3
        return float(val)


def f_taylor_coefficients(n_terms: int = 6):
    """Exact Taylor coefficients of the kernel about 0 (even powers only).

    Returns a list of sympy Rationals [c0, c2, c4, ...] with
    f(x) = sum c_{2k} x^{2k}.
    """
    import sympy as sp

    x = sp.symbols("x")
    f = sp.sin(x) / x + sp.cos(x) / x ** 2 - sp.sin(x) / x ** 3
    series = sp.series(f, x, 0, 2 * n_terms + 1).removeO()
    poly = sp.Poly(sp.expand(series), x)
    return [poly.coeff_monomial(x ** (2 * k)) for k in range(n_terms)]


def kernel_bounce(r: float, x: float, n_max: int = 10 ** 4) -> float:
    """Two-mirror intensity kernel by direct partial summation.

    Sums the reflection amplitude series (1 + r e^{-ix}) * sum_n (r^2
    e^{-2ix})^n to n_max and returns t^2 |amplitude|^2, the independently
    summed counterpart of the closed kernel formula.
    """
    t2 = 1.0 - r * r
    q = (r * r) * np.exp(-2j * x)
    # partial geometric sum, evaluated stably via the closed partial-sum form
    n = np.arange(n_max + 1)
    s = np.sum(q ** n)
    amp = (1.0 + r * np.exp(-1j * x)) * s
    return float(t2 * np.abs(amp) ** 2)


def cavity_double_sum_direct(r: float, k0d: float, n_max: int) -> float:
    """Truncated double reflection sum, evaluated term by term (O(n_max^2)).

    ratio = (3/2) t^2 * sum_{n=0..n_max} sum_{m=-n_max..n} r^(4n-2m)
            * [(1+r^2) f(2m k0d) + r f((2m-1) k0d) + r f((2m+1) k0d)]
    """

    def f(x):
        if x == 0.0:
            return 2.0 / 3.0
        return np.sin(x) / x + np.cos(x) / x ** 2 - np.sin(x) / x ** 3

    t2 = 1.0 - r * r
    total = 0.0
    for n in range(n_max + 1):
        for m in range(-n_max, n + 1):
            w = r ** (4 * n - 2 * m)
            fm = ((1.0 + r * r) * f(2 * m * k0d)
                  + r * f((2 * m - 1) * k0d)
                  + r * f((2 * m + 1) * k0d))
            total += w * fm
    return 1.5 * t2 * total


def cavity_image_sum_direct(r: float, k0d: float, n_max: int,
                            dps: int = 30) -> float:
    """Truncated image sum, evaluated term by term in mpmath.

    ratio = 1 + 3 * sum_{j=1..2 n_max + 1} r^j f(j k0d)

    The untruncated double sum of cavity_double_sum_direct collapses to
    this single sum; cut at 2 n_max + 1 it uses the same f arguments.
    """
    import mpmath as mp

    with mp.workdps(dps):
        rm = mp.mpf(repr(float(r)))
        kd = mp.mpf(repr(float(k0d)))
        total = mp.mpf(0)
        for j in range(1, 2 * n_max + 2):
            x = j * kd
            f = mp.sin(x) / x + mp.cos(x) / x ** 2 - mp.sin(x) / x ** 3
            total += rm ** j * f
        return float(1 + 3 * total)


def cavity_ratio_mp(r: float, k0d: float, dps: int = 30) -> float:
    """Decay ratio from mpmath quadrature of the 1-D reduced integral.

    ratio = (3/8) * int_{-1}^{1} (1 + xi^2) * K(k0d * xi) dxi with the
    closed kernel K. The integration interval is split at the kernel's
    resonance peaks (xi = j*pi/k0d, j even for r > 0, odd for r < 0) so
    mpmath's adaptive rule sees each peak at a panel edge.
    """
    import mpmath as mp

    with mp.workdps(dps):
        rm = mp.mpf(repr(float(r)))
        kd = mp.mpf(repr(float(k0d)))
        t2 = 1 - rm ** 2

        def kern(xi):
            x = kd * xi
            num = 1 + 2 * rm * mp.cos(x) + rm ** 2
            den = 1 - 2 * rm ** 2 * mp.cos(2 * x) + rm ** 4
            return t2 * num / den

        def integrand(xi):
            return (1 + xi ** 2) * kern(xi)

        points = [mp.mpf(-1)]
        if k0d > 0:
            j0 = 0 if r >= 0 else 1
            j = j0
            while j * mp.pi / kd < 1:
                xi_p = j * mp.pi / kd
                if j != 0:
                    points.extend([-xi_p, xi_p])
                else:
                    points.append(mp.mpf(0))
                j += 2
        points.append(mp.mpf(1))
        points = sorted(set(points))
        val = mp.quad(integrand, points)
        return float(mp.mpf(3) / 8 * val)


def mirror_ratio_mp(re_r: float, k0d: float, dps: int = 30) -> float:
    """Single-mirror decay ratio 1 + (3 re_r / 2) f(2 k0d) to dps digits.

    The three terms of f cancel to |f| ~ x^3 times their size near x = 0,
    so they are summed at 2 dps digits: dps correct ones for x >= 1e-10.
    """
    import mpmath as mp

    with mp.workdps(2 * dps):
        x = 2 * mp.mpf(repr(float(k0d)))
        f = (mp.mpf(2) / 3 if x == 0 else
             mp.sin(x) / x + mp.cos(x) / x ** 2 - mp.sin(x) / x ** 3)
        return float(1 + mp.mpf(3) / 2 * mp.mpf(repr(float(re_r))) * f)


def subwavelength_2nd_direct(r: float, k0d: float) -> float:
    """(1+r)/(1-r) * [1 - (2/5) r k0d^2 / (1-r)^2], evaluated directly."""
    return (1.0 + r) / (1.0 - r) * (1.0 - 0.4 * r * k0d ** 2 / (1.0 - r) ** 2)


# ---------------------------------------------------------------------------
# dynamics references (scipy)
# ---------------------------------------------------------------------------


def _jc_operators(n_fock: int):
    """Atom (x) photon operators on the basis |a> (x) |n>, index a*(N+1)+n."""
    dim_ph = n_fock + 1
    a_ph = np.diag(np.sqrt(np.arange(1, dim_ph)), 1).astype(complex)
    id_ph = np.eye(dim_ph, dtype=complex)
    sm_at = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
    id_at = np.eye(2, dtype=complex)
    sm = np.kron(sm_at, id_ph)
    a = np.kron(id_at, a_ph)
    return sm, a


def solve_jc_reference(g: float, kappa: float, gamma: float,
                       n_fock: int, t_eval, rho0=None,
                       rtol: float = 1e-11, atol: float = 1e-13):
    """Integrate the two-channel master equation with scipy's RK45.

    d rho/dt = -i[H, rho] + kappa D[a] rho + gamma D[sigma-] rho with
    H = g (sigma- a^dag + sigma+ a). Initial state defaults to excited
    atom (x) vacuum. Returns (rhos, excited_populations) where rhos has
    shape (len(t_eval), dim, dim).
    """
    from scipy.integrate import solve_ivp

    sm, a = _jc_operators(n_fock)
    sp_ = sm.conj().T
    ad = a.conj().T
    h = g * (sm @ ad + sp_ @ a)
    dim = 2 * (n_fock + 1)
    if rho0 is None:
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[n_fock + 1, n_fock + 1] = 1.0  # |e, 0>

    def dissipator(op, rho):
        opd = op.conj().T
        return op @ rho @ opd - 0.5 * (opd @ op @ rho + rho @ opd @ op)

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        drho = -1j * (h @ rho - rho @ h)
        drho += kappa * dissipator(a, rho)
        drho += gamma * dissipator(sm, rho)
        return drho.ravel()

    sol = solve_ivp(rhs, (float(t_eval[0]), float(t_eval[-1])),
                    rho0.ravel(), t_eval=np.asarray(t_eval, dtype=float),
                    method="RK45", rtol=rtol, atol=atol)
    rhos = sol.y.T.reshape(-1, dim, dim)
    n_e = np.kron(np.diag([0.0, 1.0]), np.eye(n_fock + 1))
    pops = np.real(np.einsum("tij,ji->t", rhos, n_e.astype(complex)))
    return rhos, pops


def no_jump_population_mp(g: float, kappa: float, gamma: float, times,
                          dps: int = 60) -> np.ndarray:
    """|<e,0| exp(-i H_eff t) |e,0>|^2 from mpmath's expm at dps digits.

    H_eff = [[-i gamma/2, g], [g, -i kappa/2]] is the no-jump generator
    on (|e,0>, |g,1>); every jump leaves that subspace for good, so this
    is the excited population of the two-channel model from |e,0>.
    """
    import mpmath as mp

    with mp.workdps(dps):
        gm, km, ym = (mp.mpf(repr(float(v))) for v in (g, kappa, gamma))
        h_eff = mp.matrix([[-1j * ym / 2, gm], [gm, -1j * km / 2]])
        pops = []
        for t in times:
            c_e0 = mp.expm(-1j * h_eff * mp.mpf(repr(float(t))))[0, 0]
            pops.append(float(abs(c_e0) ** 2))
        return np.array(pops)


def slow_decay_rate_exact(g: float, kappa: float, gamma: float) -> float:
    """Asymptotic population decay rate of the single-excitation sector.

    Amplitude eigenvalues are -(gamma+kappa)/4 +- sqrt((kappa-gamma)^2/16
    - g^2); populations decay at twice the slow amplitude rate. Only valid
    in the overdamped case (real square root).
    """
    disc = (kappa - gamma) ** 2 / 16.0 - g * g
    if disc < 0:
        raise ValueError("underdamped: no purely exponential slow mode")
    return 2.0 * ((gamma + kappa) / 4.0 - np.sqrt(disc))


def fit_log_slope(times, pops, t_min: float, t_max: float) -> float:
    """Decay rate from a straight-line fit to log(pops) on [t_min, t_max]."""
    times = np.asarray(times, dtype=float)
    pops = np.asarray(pops, dtype=float)
    mask = (times >= t_min) & (times <= t_max) & (pops > 0)
    slope = np.polyfit(times[mask], np.log(pops[mask]), 1)[0]
    return -float(slope)


# ---------------------------------------------------------------------------
# frozen-value table
# ---------------------------------------------------------------------------


def _main():
    np.set_printoptions(precision=17)

    def show(label, value):
        print(f"{label:<58s} {value!r}")

    print("== sphere quadrature self-checks ==")
    val, err = sphere_integral_refined(lambda th, ph: np.ones_like(th + ph))
    show("unit integrand (expect 4*pi = %r)" % (4 * np.pi), (val.real, err))
    weight = lambda th, ph: np.cos(ph) ** 2 + np.sin(ph) ** 2 * np.cos(th) ** 2
    val, err = sphere_integral_refined(weight)
    show("transverse weight (expect 8*pi/3 = %r)" % (8 * np.pi / 3),
         (val.real, err))

    print("\n== f kernel ==")
    show("taylor coefficients c0..c10", f_taylor_coefficients(6))
    for x in (0.05, 0.1, 0.2, np.pi, 2 * np.pi, 1.0, 100.0, 200.0):
        show(f"f({x!r})", f_reference(x))
    show("-1/pi^2", -1.0 / np.pi ** 2)
    show("1/(4 pi^2)", 1.0 / (4 * np.pi ** 2))

    print("\n== single mirror (ratio = 1 + 1.5*re_r*f(2 k0d)) ==")
    for re_r, k0d in ((-1.0, np.pi / 2), (-1.0, np.pi), (0.5, 100.0),
                      (-1.0, 10.0), (0.5, 1.0)):
        ratio = 1.0 + 1.5 * re_r * f_reference(2 * k0d)
        show(f"closed ratio re_r={re_r} k0d={k0d!r}", ratio)

    def mirror_integrand(k0d):
        return lambda th, ph: (np.exp(-2j * k0d * np.cos(th))
                               * (np.cos(ph) ** 2
                                  + np.sin(ph) ** 2 * np.cos(th) ** 2))

    for re_r, k0d in ((-1.0, 10.0), (0.7, np.pi / 2)):
        integral, err = sphere_integral_refined(mirror_integrand(k0d))
        ratio = 1.0 + 3.0 * re_r / (8 * np.pi) * integral.real
        show(f"trapezoid ratio re_r={re_r} k0d={k0d!r}", (ratio, err))

    print("\n== two-mirror kernel ==")
    for r, x in ((0.9, 0.0), (-0.9, 0.0), (0.5, 1.3), (0.999, np.pi)):
        show(f"bounce kernel r={r} x={x!r} (n_max=1e4)",
             kernel_bounce(r, x))

    print("\n== cavity ratios (mpmath 1-D reduction) ==")
    for r, k0d in ((0.9, 1e-3), (-0.9, 1e-3), (0.5, 1e-3), (-0.5, 1e-3),
                   (0.9, 0.01), (0.9, 0.1), (-0.9, 0.1), (0.5, 0.1),
                   (-0.5, 0.1), (0.8, 0.1), (-0.5, 0.2), (0.5, 20.0),
                   (0.8, 100.0), (0.3, 62.83185307179586),
                   (-0.8, 157.07963267948966), (0.5, np.pi)):
        show(f"cavity ratio r={r} k0d={k0d!r}", cavity_ratio_mp(r, k0d))

    print("\n== second-order subwavelength values ==")
    for r, k0d in ((0.8, 0.1), (-0.5, 0.2), (0.9, 0.1), (-0.9, 0.1),
                   (0.5, 0.1), (-0.5, 0.1), (0.9, 0.01)):
        show(f"2nd order r={r} k0d={k0d!r}", subwavelength_2nd_direct(r, k0d))
    show("limit (1+r)/(1-r) at r=0.9", (1 + 0.9) / (1 - 0.9))
    show("limit at r=-0.99", (1 - 0.99) / (1 + 0.99))

    print("\n== truncated double sum, direct ==")
    for r, k0d, n_max in ((0.5, 1.0, 40), (-0.8, 0.3, 60), (0.9, 2.0, 80)):
        show(f"double sum r={r} k0d={k0d} n_max={n_max}",
             cavity_double_sum_direct(r, k0d, n_max))

    print("\n== truncated image sum, direct (mpmath) ==")
    for r, k0d, n_max in ((0.5, 1.0, 40), (-0.8, 0.3, 60), (0.9, 2.0, 80),
                          (-0.98, 0.05, 300), (0.3, 7.5, 0)):
        show(f"image sum r={r} k0d={k0d} n_max={n_max}",
             cavity_image_sum_direct(r, k0d, n_max))

    print("\n== dynamics ==")
    show("slow decay rate g=1 kappa=20 gamma=1",
         slow_decay_rate_exact(1.0, 20.0, 1.0))
    t_eval = np.linspace(0.0, 10.0, 201)
    _, pops = solve_jc_reference(1.0, 20.0, 1.0, 3, t_eval)
    fit = fit_log_slope(t_eval, pops, 1.0, 6.0)
    show("solve_ivp fitted rate (window 1..6)", fit)
    show("gamma*(1+4C) with C=0.05", 1.0 * (1 + 4 * 0.05))
    show("gamma*(1+2C) with C=0.05", 1.0 * (1 + 2 * 0.05))
    # discrepancy magnitudes between the two master equations
    for g, kappa, gamma in ((1.0, 100.0, 1.0), (10.0, 10.0, 1.0)):
        c = g * g / (kappa * gamma)
        _, pj = solve_jc_reference(g, kappa, gamma, 3, t_eval)
        single = np.exp(-gamma * (1 + 2 * c) * t_eval)
        show(f"max |jc - single(1+2C)| at C={c}",
             float(np.max(np.abs(pj - single))))

    print("\n== spot values ==")
    show("8*pi/3", 8 * np.pi / 3)
    show("4*pi", 4 * np.pi)
    show("1 + 3/(2 pi^2)", 1 + 3 / (2 * np.pi ** 2))
    show("1 - 3/(8 pi^2)", 1 - 3 / (8 * np.pi ** 2))


if __name__ == "__main__":
    _main()
