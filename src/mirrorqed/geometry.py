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

The quadrature engine integrates smooth (possibly oscillatory) functions
of theta over the full solid angle: composite 16-point Gauss-Legendre
panels in xi = cos theta (the substitution absorbs the sin theta
Jacobian), times 2 pi for the phi integral. Integrands keep a
(theta, phi) call shape but are always called with phi = None, so one
that depends on phi fails loudly instead of being integrated wrongly.
Panels are doubled until two levels agree; each level is evaluated and
summed in fixed blocks of panels, without BLAS. Callers integrating
sharply peaked kernels can pass breakpoints so panel edges land on the
peaks. Every level is priced at its 16 nodes a panel before it runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, NonConvergence

__all__ = [
    "DipoleOrientation",
    "transverse_weight_sum",
    "phi_mean_weight",
    "oscillation_nodes",
    "solid_angle_integrate",
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
        v = np.asarray(self.vec, dtype=float)
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


def oscillation_nodes(rate: float) -> int:
    """Node-count hint for integrands with phase rate ``rate`` per unit xi.

    max(64, 8 * ceil(rate)) resolves phase factors exp(i * rate * xi)
    with generous margin; callers pass the hint to solid_angle_integrate.
    An infinite rate (a finite phase that overflowed) counts as the
    largest finite float, so its hint is an exact integer that every
    budget refuses.
    """
    return max(64, 8 * math.ceil(min(max(rate, 0.0), sys.float_info.max)))


# 16-point Gauss-Legendre panel rule: the exact reprs of
# numpy.polynomial.legendre.leggauss(16), written out so that importing
# this module does not import numpy.polynomial.
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176])

_MAX_LEVELS = 16
# Panels evaluated and summed at once (16,384 nodes), as sweeps._BLOCK_ROWS.
_BLOCK_PANELS = 1024
#: Roundoff floor on the reported error estimate, relative to max(1, |I|);
#: no smaller tol can converge.
ERR_FLOOR = 4e-16


def _panel_points(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel [edges[i], edges[i+1]]."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    xi = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return xi, w


def first_level_panels(resolution: int,
                       max_evals: int = DEFAULT_MAX_EVALS) -> int:
    """Uniform xi panels of the first level that ``resolution`` asks for.

    This is the budget gate of solid_angle_integrate, priced in integer
    arithmetic before anything is allocated. A panel costs its 16 nodes
    on the first level and 32 on the level that must confirm it, since
    one level alone never converges: 48 evaluations a panel. A
    breakpoint adds at most one panel, so a caller prices it as 16 more
    nodes of ``resolution``; one that builds its breakpoints itself (the
    cavity's peak breakpoints) calls this first, with a bound on their
    number. The default budget is the one every quadrature route takes,
    DEFAULT_MAX_EVALS.

    >>> first_level_panels(64)
    4
    >>> first_level_panels(16_000_000)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    mirrorqed.errors.NonConvergence: ... need up to 48000000 evaluations, ...

    Raises
    ------
    NonConvergence
        With n_evals == 0, if those panels could exceed max_evals.
    """
    n_panels = max(4, -(-resolution // _GL_NODES.size))
    price = 3 * _GL_NODES.size * n_panels
    if price > max_evals:
        raise NonConvergence(
            f"solid-angle quadrature: the first two levels need up to "
            f"{price} evaluations, over the budget of {max_evals}", n_evals=0)
    return n_panels


def solid_angle_integrate(integrand, resolution: int = 64,
                          tol: float = DEFAULT_TOL, xi_breakpoints=None,
                          max_evals: int = DEFAULT_MAX_EVALS):
    """Integrate a function of theta over the unit sphere.

    Evaluates ``2 pi int_0^pi dtheta sin(theta) integrand(theta, None)``
    by composite Gauss-Legendre panels in xi = cos(theta), doubling the
    panel count until two successive levels agree to ``tol`` relative to
    max(1, |I|). Each level is evaluated in blocks of 1,024 panels
    (16,384 nodes), each block is summed by numpy's pairwise sum, and the
    block sums are added in panel order, so the value does not depend on
    the BLAS thread count.

    Parameters
    ----------
    integrand : callable
        Vectorized function ``integrand(theta, phi)``, called with a 1-D
        array theta and phi = None; returns float or complex values of
        theta's shape, finite on the open domain. A function of phi is
        not supported: integrate its phi mean (phi_mean_weight) instead.
    resolution : int
        Node-count hint for the xi axis at the first level; raise it for
        oscillatory integrands (see oscillation_nodes). Must be >= 8.
    tol : float
        Relative tolerance of the two-level agreement test.
    xi_breakpoints : sequence of float, optional
        Points in (-1, 1) that panel edges should land on, e.g. locations
        and graded neighborhoods of sharp kernel peaks.
    max_evals : int
        Budget of integrand evaluations across all levels, one per xi
        node. One gate (first_level_panels) runs before any edge is
        built: it prices the uniform panels that ``resolution`` asks for
        and one more panel per breakpoint inside (-1, 1), each at 48
        evaluations, for the first level and the level that confirms it.
        A refinement level, twice the panels of the one before, runs only
        if the evaluations already made plus its own (16 per panel) stay
        within the budget, so n_evals never exceeds max_evals. Only a
        level's panel edges, not its nodes, are allocated whole.

    Returns
    -------
    (value, err_estimate) : (complex, float)
        The integral and a conservative error estimate (twice the last
        two-level difference, floored at the roundoff scale).

    Raises
    ------
    InvalidParams
        If resolution < 8 or tol < ERR_FLOOR, which no estimate can meet.
    NonConvergence
        If the budget is exhausted before two levels agree; the exception
        carries the best value and its estimated error (value None when
        the gate refuses the first level, with n_evals == 0).
    """
    if resolution < 8:
        raise InvalidParams(f"resolution must be >= 8, got {resolution}")
    if not tol >= ERR_FLOOR:
        raise InvalidParams(f"tol must be >= {ERR_FLOOR:g}, the error "
                            f"floor, got {tol}")

    pts = np.asarray([] if xi_breakpoints is None else list(xi_breakpoints),
                     dtype=float)
    pts = pts[(pts > -1.0) & (pts < 1.0)]
    n_panels = max(4, -(-resolution // _GL_NODES.size))
    # the one first-level gate: each breakpoint adds at most one panel
    first_level_panels(_GL_NODES.size * (n_panels + pts.size), max_evals)
    edges = np.linspace(-1.0, 1.0, int(n_panels) + 1)
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
        total = 0j
        for lo in range(0, edges.size - 1, _BLOCK_PANELS):
            xi, w = _panel_points(edges[lo:lo + _BLOCK_PANELS + 1])
            theta = np.arccos(np.clip(xi, -1.0, 1.0))
            vals = np.broadcast_to(integrand(theta, None), theta.shape)
            evals += vals.size
            total += complex(np.sum(w * vals))
        value = _TWO_PI * total
        if prev is not None:
            diff = abs(value - prev)
            err = max(2.0 * diff, ERR_FLOOR * max(1.0, abs(value)))
            if err <= tol * max(1.0, abs(value)):
                return value, err
        prev = value
        # the next level, twice the panels, is priced before it runs
        if evals + 2 * _GL_NODES.size * (edges.size - 1) > max_evals:
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
