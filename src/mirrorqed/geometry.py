"""Transverse dipole weight and solid-angle quadrature.

Geometry conventions
--------------------
The mirror surfaces used elsewhere in this package are planes of constant
x, so the polar axis of the spherical frame is the x axis. A propagation
direction with polar angle ``theta`` (measured from +x) and azimuth
``phi`` (measured around x, from +y toward +z) is the unit vector

    s   = (cos theta,  cos phi sin theta,  sin phi sin theta)

and the two transverse polarization unit vectors completing the frame are

    e_H = (0,          sin phi,           -cos phi)
    e_V = (sin theta, -cos phi cos theta, -sin phi cos theta)

The triple (s, e_H, e_V) is orthonormal for every direction; e_H lies in
the mirror plane, e_V completes the right-handed-up-to-sign frame. A
dipole orientation d picks out the transverse weights |d . e_H|^2 and
|d . e_V|^2; their sum, transverse_weight_sum, is the weight whose
solid-angle integral drives every decay rate in this package. Its
azimuthal mean has the closed form phi_mean_weight,

    (1 / 2 pi) int dphi (w_H + w_V)
        = [(1 + xi^2)(1 - d_x^2) + 2 d_x^2 (1 - xi^2)] / 2,

so every rate integrand, whose other factors depend on xi = cos theta
alone, needs no phi quadrature at all.

The quadrature engine integrates smooth (possibly oscillatory) real
functions of xi = cos theta over the full solid angle: composite 16-point
Gauss-Legendre panels in xi (the substitution absorbs the sin theta
Jacobian), times 2 pi for the phi integral, summed as floats; complex
values are refused. Integrands are called as
integrand(xi, None) on the nodes themselves, with no round trip through
theta. The second argument is always None, so one that depends on phi
fails loudly instead of being integrated wrongly; it remains only
because benchmark tracers wrap the two-argument call.
Panels are doubled until two levels agree; each level is evaluated and
summed in fixed blocks of panels, without BLAS. Callers integrating
sharply peaked kernels can pass breakpoints so panel edges land on the
peaks. Callers ask for work in panels (oscillation_panels gives a hint);
only this module knows that a panel has 16 nodes, and it prices every
level at them before the level runs.
ratio_quadrature runs the engine on the one rate integrand, the phi-mean
weight times a kernel in xi, and rounds the decay ratio by one rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, NonConvergence, integer, real, real_array

__all__ = [
    "DipoleOrientation",
    "transverse_weight_sum",
    "phi_mean_weight",
    "oscillation_panels",
    "solid_angle_integrate",
    "ratio_quadrature",
    "first_level_panels",
    "DEFAULT_TOL",
    "DEFAULT_MAX_EVALS",
    "ERR_FLOOR",
]

_TWO_PI = 2.0 * math.pi

#: Default relative tolerance of every quadrature route.
DEFAULT_TOL = 1e-9
#: Default integrand-evaluation budget of every quadrature route, per cell.
DEFAULT_MAX_EVALS = 40_000_000


@dataclass(frozen=True, eq=False)
class DipoleOrientation:
    """A real unit vector giving the dipole direction.

    The default (0, 0, 1) lies in the mirror plane, which is the
    configuration every closed-form rate in this package assumes.
    """

    vec: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        try:
            v = np.asarray(self.vec)
        except ValueError as exc:  # a ragged nesting
            raise InvalidParams(
                f"dipole orientation must be a 3-vector, got {self.vec!r}"
            ) from exc
        # integers or floats: no bool, complex, string or object entries
        if v.dtype.kind not in "iuf":
            raise InvalidParams(f"dipole orientation must be real numbers, "
                                f"got {self.vec!r}")
        v = v.astype(float)
        if v.shape != (3,):
            raise InvalidParams(f"dipole orientation must be a 3-vector, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidParams(f"dipole orientation must be finite, got {v}")
        # scaled to a largest component of 1 first, so that the norm
        # neither overflows nor underflows; a unit vector keeps its bits
        top = float(np.max(np.abs(v)))
        if not top > 0.0:
            raise InvalidParams("dipole orientation must be nonzero")
        v = v / top
        object.__setattr__(self, "vec", v / float(np.linalg.norm(v)))


def transverse_weight_sum(dhat: DipoleOrientation, theta, phi):
    """Vectorized ``w_h + w_v`` over broadcastable angle arrays.

    This is the angular weight under every rate integral. For the default
    dipole (0, 0, 1) it reduces to ``cos(phi)**2 + sin(phi)**2 *
    cos(theta)**2``.

    Parameters
    ----------
    dhat : DipoleOrientation
    theta, phi : array_like
        Angle arrays; broadcast against each other.

    Returns
    -------
    numpy.ndarray

    Examples
    --------
    >>> float(transverse_weight_sum(DipoleOrientation(), math.pi / 2, 0.0))
    1.0
    """
    dx, dy, dz = dhat.vec
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    proj_h = dy * sp - dz * cp
    proj_v = dx * st - dy * cp * ct - dz * sp * ct
    return proj_h ** 2 + proj_v ** 2


# The in-plane dipole of every rate route; its weight integrates to 8 pi / 3.
_IN_PLANE = DipoleOrientation()
_RATE_SCALE = 3.0 / (8.0 * math.pi)


def phi_mean_weight(dhat: DipoleOrientation, xi):
    """Azimuthal mean of ``transverse_weight_sum`` at ``xi = cos(theta)``.

    (1 / 2 pi) int_0^{2 pi} dphi (w_h + w_v)
    = [(1 + xi^2)(1 - d_x^2) + 2 d_x^2 (1 - xi^2)] / 2, exact for every
    dipole, so rate integrands whose other factors depend on xi alone
    reduce to one dimension.

    Examples
    --------
    >>> float(phi_mean_weight(DipoleOrientation(), 0.0))
    0.5
    >>> float(phi_mean_weight(DipoleOrientation(), 1.0))
    1.0
    """
    dx2 = dhat.vec[0] ** 2
    xi2 = np.square(xi)
    return 0.5 * ((1.0 + xi2) * (1.0 - dx2) + 2.0 * dx2 * (1.0 - xi2))


def oscillation_panels(rate: float) -> int:
    """Panel-count hint for integrands with phase rate ``rate`` per unit xi.

    max(4, ceil(rate / 2)) panels, 8 nodes per unit of phase, resolve
    phase factors exp(i * rate * xi) with generous margin; callers pass
    the hint to solid_angle_integrate. An infinite rate (a finite phase
    that overflowed) counts as the largest finite float, so its hint is
    an exact integer that every budget refuses.
    """
    return max(4, math.ceil(min(max(rate, 0.0), sys.float_info.max) / 2.0))


# 16-point Gauss-Legendre panel rule on [0, 2]: the offsets 1 + t_i of
# its nodes t_i from a panel's left edge, and its weights, each correctly
# rounded from mpmath.gauss_quadrature(16, 'legendre') at 40 digits and
# written out so that importing this module imports neither.
_GL_OFFSETS = np.array([
    0.010599065008350067, 0.05542497692676742, 0.13436879761216824,
    0.24459559164499697, 0.38212375559735623, 0.5419832223427726,
    0.7183964492207411, 0.9049874901623626, 1.0950125098376375,
    1.281603550779259, 1.4580167776572275, 1.6178762444026438,
    1.755404408355003, 1.8656312023878316, 1.9445750230732326,
    1.98940093499165])
_GL_WEIGHTS = np.array([
    0.027152459411754096, 0.062253523938647894, 0.09515851168249279,
    0.12462897125553388, 0.14959598881657674, 0.16915651939500254,
    0.18260341504492358, 0.1894506104550685, 0.1894506104550685,
    0.18260341504492358, 0.16915651939500254, 0.14959598881657674,
    0.12462897125553388, 0.09515851168249279, 0.062253523938647894,
    0.027152459411754096])

_MAX_LEVELS = 16
# Panels evaluated and summed at once (16,384 nodes), as sweeps._BLOCK_ROWS.
_BLOCK_PANELS = 1024
#: Roundoff floor on the reported error estimate, relative to max(1, |I|);
#: no smaller tol can converge.
ERR_FLOOR = 4e-16


def _panel_points(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel [edges[i], edges[i+1]].

    Nodes sit at lo + half (1 + t_i) from each panel's left edge lo, not
    at mid + half t_i: a rounded midpoint would shift every node of both
    levels alike, an error their difference cannot see.
    """
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    xi = (lo[:, None] + half[:, None] * _GL_OFFSETS[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return xi, w


def first_level_panels(panels: int,
                       max_evals: int = DEFAULT_MAX_EVALS) -> int:
    """Check that a first level of ``panels`` panels fits ``max_evals``.

    This is the budget gate of solid_angle_integrate, priced in integer
    arithmetic before anything is allocated. A panel costs its 16 nodes
    on the first level and 32 on the level that must confirm it, since
    one level alone never converges: 48 evaluations a panel. A
    breakpoint adds at most one panel, so a caller that builds its
    breakpoints itself (the cavity's peak breakpoints) calls this first,
    with their number added to its panels. The default budget is the one
    every quadrature route takes, DEFAULT_MAX_EVALS. Returns ``panels``.

    >>> first_level_panels(4)
    4
    >>> first_level_panels(1_000_000)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    mirrorqed.errors.NonConvergence: ... need up to 48000000 evaluations, ...

    Raises
    ------
    InvalidParams
        If panels is not an integer >= 1 or max_evals is not an integer
        (not even a whole float).
    NonConvergence
        With n_evals == 0, if those panels could exceed max_evals.
    """
    panels = integer(panels, "panels", 1)
    max_evals = integer(max_evals, "max_evals")
    price = 3 * _GL_OFFSETS.size * panels
    if price > max_evals:
        raise NonConvergence(
            f"solid-angle quadrature: the first two levels need up to "
            f"{price} evaluations, over the budget of {max_evals}", n_evals=0)
    return panels


def solid_angle_integrate(integrand, panels: int = 4,
                          tol: float = DEFAULT_TOL, xi_breakpoints=None,
                          max_evals: int = DEFAULT_MAX_EVALS) -> tuple:
    """Integrate a real function of xi = cos(theta) over the unit sphere.

    Evaluates ``2 pi int_{-1}^{1} dxi integrand(xi, None)`` by composite
    Gauss-Legendre panels in xi, doubling the panel count until two
    successive levels agree to ``tol`` relative to max(1, |I|). Each
    level is evaluated in blocks of 1,024 panels (16,384 nodes), each
    block is summed by numpy's pairwise sum, and the block sums are added
    in panel order, so the value does not depend on the BLAS thread
    count.

    >>> value, err = solid_angle_integrate(lambda xi, _: xi ** 2)
    >>> abs(value - 4.0 * math.pi / 3.0) < 1e-14
    True

    Parameters
    ----------
    integrand : callable
        Vectorized function ``integrand(xi, phi)``, called with a 1-D
        array of nodes xi in (-1, 1) and phi = None; returns real values
        of xi's shape, finite there. A function of phi is not supported:
        integrate its phi mean (phi_mean_weight) instead. The always-None
        second argument stays only because benchmark tracers forward a
        two-argument call.
    panels : int
        Uniform xi panels of the first level, 16 nodes each; raise it for
        oscillatory integrands (see oscillation_panels). Must be >= 1.
    tol : float
        Relative tolerance of the two-level agreement test.
    xi_breakpoints : sequence of float, optional
        Points in (-1, 1) that panel edges should land on, e.g. locations
        and graded neighborhoods of sharp kernel peaks.
    max_evals : int
        Budget of integrand evaluations across all levels, one per xi
        node. One gate (first_level_panels) runs before any edge is
        built: it prices the uniform panels and one more panel per
        breakpoint inside (-1, 1), each at 48 evaluations, for the first
        level and the level that confirms it. A refinement level, twice
        the panels of the one before, runs only if the evaluations
        already made plus its own (16 per panel) stay within the budget,
        so n_evals never exceeds max_evals. Only a level's panel edges,
        not its nodes, are allocated whole.

    Returns
    -------
    (value, err_estimate) : (float, float)
        The integral and a conservative error estimate (twice the last
        two-level difference, floored at the roundoff scale).

    Raises
    ------
    InvalidParams
        If panels is not an integer >= 1, tol is not a real >= ERR_FLOOR,
        which no estimate can meet, max_evals is not an integer, or the
        integrand returns complex values (before they are summed).
    NonConvergence
        If the budget is exhausted before two levels agree; the exception
        carries the best value and its estimated error (value None when
        the gate refuses the first level, with n_evals == 0).
    """
    panels = integer(panels, "panels", 1)
    tol = real(tol, "tol", ERR_FLOOR, finite=False)
    pts = real_array([] if xi_breakpoints is None else xi_breakpoints,
                     "xi_breakpoints", per_cell=True)
    pts = pts[(pts > -1.0) & (pts < 1.0)]
    # the one first-level gate: each breakpoint adds at most one panel
    first_level_panels(panels + pts.size, max_evals)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    if pts.size:
        edges = np.sort(np.concatenate([edges, pts]))
        # drop repeated edges and edges closer than resolvable spacing
        keep = np.concatenate([[True], np.diff(edges) > 1e-12])
        edges = edges[keep]

    prev = None
    value = None
    err = math.inf
    evals = 0
    for _ in range(_MAX_LEVELS):
        total = 0.0
        for lo in range(0, edges.size - 1, _BLOCK_PANELS):
            xi, w = _panel_points(edges[lo:lo + _BLOCK_PANELS + 1])
            vals = np.broadcast_to(integrand(xi, None), xi.shape)
            if vals.dtype.kind not in "biuf":
                raise InvalidParams(f"the integrand must return real "
                                    f"values, got dtype {vals.dtype}")
            evals += vals.size
            total += float(np.sum(w * vals))
        value = _TWO_PI * total
        if prev is not None:
            diff = abs(value - prev)
            err = max(2.0 * diff, ERR_FLOOR * max(1.0, abs(value)))
            if err <= tol * max(1.0, abs(value)):
                return value, err
        prev = value
        # the next level, twice the panels, is priced before it runs
        if evals + 2 * _GL_OFFSETS.size * (edges.size - 1) > max_evals:
            raise NonConvergence(
                f"solid-angle quadrature: {evals} evaluations without "
                f"two-level agreement at tol={tol:g} (err~{err:.3g}); the "
                f"next level would exceed the budget of {max_evals}",
                value=value, err_estimate=err, n_evals=evals)
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    raise NonConvergence(
        f"solid-angle quadrature: no convergence after {_MAX_LEVELS} levels "
        f"({evals} evaluations, err~{err:.3g})",
        value=value, err_estimate=err, n_evals=evals)


def ratio_quadrature(kernel, panels: int, tol: float, max_evals: int,
                     offset: float = 0.0, xi_breakpoints=None):
    """offset + (3 / 8 pi) int dOmega w(xi) kernel(xi), and its error.

    w is the in-plane dipole's phi-mean weight and kernel a real function
    of xi, so a kernel of 1 adds 1:

    >>> ratio, err = ratio_quadrature(lambda xi: 1.0, 4, DEFAULT_TOL,
    ...                               DEFAULT_MAX_EVALS, offset=0.5)
    >>> abs(ratio - 1.5) <= err
    True

    One solid_angle_integrate call on ``panels`` first-level panels,
    whose errors it raises. The error is
    3 / (8 pi) times the engine's plus ERR_FLOOR max(1, |ratio|), the
    rounding the engine's floor cannot see: of the scale (within 0.04 u
    of exact, u = 2^-53), of its product and of the sum with offset,
    about 2 u max(1, |ratio|) for a scaled term at most that size, as
    every kernel here gives; and of each integrand value, a few u
    relative, undamped where the kernel keeps its sign, as the cavity's
    does. ERR_FLOOR = 3.6 u allows for both.
    """
    integral, err = solid_angle_integrate(
        lambda xi, phi: phi_mean_weight(_IN_PLANE, xi) * kernel(xi),
        panels=panels, tol=tol, xi_breakpoints=xi_breakpoints,
        max_evals=max_evals)
    ratio = offset + _RATE_SCALE * integral
    return ratio, _RATE_SCALE * err + ERR_FLOOR * max(1.0, abs(ratio))
