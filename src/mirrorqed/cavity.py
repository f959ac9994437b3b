"""Decay ratio of an emitter centered between two identical planar mirrors.

Three independent routes to Gamma_cav / Gamma_free:

* quadrature: solid-angle integral of the transverse dipole weight times
  the closed multiple-reflection kernel (resummed geometric series);
* series: the truncated double reflection sum over bounce orders, kept
  as a genuinely different evaluation path (no kernel resummation);
* limits: the subwavelength closed forms (zeroth and second order in
  k0d), which also serve the |r_mir| = 1 endpoints the other routes
  must reject.

The routes referee each other; sweeps can emit all three side by side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry, kernels
from .errors import (DegenerateMirror, InvalidParams, NonConvergence,
                     TailTooLarge)
from .geometry import DipoleOrientation
from .kernels import f_kernel, interference_kernel
from .results import Cells, RateResult

__all__ = [
    "CavitySpec",
    "SeriesControl",
    "f_kernel",
    "interference_kernel",
    "gamma_cavity_quadrature",
    "gamma_cavity_series",
    "gamma_subwavelength_limit",
    "gamma_subwavelength_2nd",
    "default_n_max",
]

#: Soft validity edge of the second-order subwavelength expansion.
SUBWAVELENGTH_SOFT_MAX = 0.3

_N_MAX_FLOOR = 8
_N_MAX_CAP = 100_000


def _check_cavity(cells: Cells, r_mir, k0d) -> None:
    """Flag the cells outside the cavity domain (originals for messages)."""
    r, k = cells.values
    cells.check(~(np.isfinite(r) & np.isfinite(k)), InvalidParams,
                lambda: InvalidParams(
                    f"r_mir and k0d must be finite, got {r_mir!r}, "
                    f"{k0d!r}"))
    cells.check(np.abs(r) >= 1.0, DegenerateMirror,
                lambda: DegenerateMirror(
                    f"|r_mir| must be < 1 for quadrature/series routes, "
                    f"got {r_mir!r}"))
    cells.check(~(k > 0.0), InvalidParams,
                lambda: InvalidParams(f"k0d must be positive, got {k0d!r}"))


@dataclass(frozen=True)
class CavitySpec:
    """Symmetric lossless cavity: real mirror rate and scaled separation.

    Parameters
    ----------
    r_mir : float
        Real reflection amplitude, strictly inside (-1, 1); the +-1 endpoints
        are served by the analytic limit operations only.
    k0d : float
        Mirror separation times the transition wavenumber, > 0.
    """

    r_mir: float
    k0d: float

    def __post_init__(self):
        _check_cavity(Cells(self.r_mir, self.k0d), self.r_mir, self.k0d)

    @property
    def t_mir_sq(self) -> float:
        """Transmission rate squared, 1 - r_mir^2."""
        return 1.0 - self.r_mir ** 2


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for the bounce series.

    n_max = None lets the library pick the smallest order whose tail
    bound meets tail_tol (see default_n_max).
    """

    n_max: int | None = None
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.n_max is not None and self.n_max < 0:
            raise InvalidParams(f"n_max must be >= 0, got {self.n_max!r}")
        if self.n_max is not None and self.n_max > _N_MAX_CAP:
            raise InvalidParams(
                f"n_max must be <= {_N_MAX_CAP}, got {self.n_max!r}")
        if not self.tail_tol > 0.0:
            raise InvalidParams(f"tail_tol must be positive, got {self.tail_tol!r}")


def _series_tail_bound(r: float, n_max: int) -> float:
    """Upper bound on the mass dropped by truncating at bounce order n_max.

    The slowest dropped direction decays like r^(2n) (single-sided bounce
    ladders), so the bound carries |r|^(2(n_max+1)); the two dropped index
    families contribute the bracketed geometric factors.
    """
    ar = abs(r)
    if ar == 0.0:
        return 0.0
    return ((1.0 + ar) ** 2 * ar ** (2 * (n_max + 1))
            * (1.0 / (1.0 - ar ** 2) + 1.0 / (1.0 - ar ** 4)))


def default_n_max(r_mir: float, tail_tol: float) -> int:
    """Smallest truncation order meeting tail_tol, clamped to [8, 1e5]."""
    ar = abs(r_mir)
    if ar == 0.0:
        return _N_MAX_FLOOR
    # quartic-tail heuristic kept as a floor
    n_quartic = math.ceil(math.log(tail_tol) / (4.0 * math.log(ar)))
    bracket = (1.0 + ar) ** 2 * (1.0 / (1.0 - ar ** 2) + 1.0 / (1.0 - ar ** 4))
    n_honest = math.ceil(math.log(tail_tol / bracket) / (2.0 * math.log(ar))) - 1
    n = max(n_quartic, n_honest, _N_MAX_FLOOR)
    return min(n, _N_MAX_CAP)


def gamma_cavity_quadrature(spec: CavitySpec, tol: float = 1e-9,
                            dhat: DipoleOrientation | None = None,
                            max_evals: int = 40_000_000) -> RateResult:
    """Decay ratio by solid-angle quadrature of the resummed kernel.

    ratio = (3 / 8 pi) * int dOmega (transverse dipole weight)
    * interference_kernel(r_mir, k0d cos theta). Near |r_mir| -> 1 the
    kernel develops sharp resonance peaks in cos theta; their locations
    and graded neighborhoods are passed to the quadrature engine as
    panel breakpoints so refinement cannot silently straddle a peak.

    Raises
    ------
    NonConvergence
        If the node budget runs out (expected for very high finesse
        together with large k0d); reported, never masked. When the kernel
        peaks alone need more panels than max_evals can pay for, this is
        raised before any breakpoint is built or integrand evaluated.
    """
    r, k0d = spec.r_mir, spec.k0d
    if dhat is None:
        dhat = DipoleOrientation()

    def integrand(theta, phi):
        weight = geometry.transverse_weight_sum(dhat, theta, phi)
        return weight * interference_kernel(r, k0d * np.cos(theta))

    breakpoints: list[float] = []
    if r != 0.0:
        # kernel peaks sit at xi = j*pi/k0d, j even for r > 0, odd for r < 0
        halfwidth = (1.0 - r * r) / (2.0 * abs(r) * k0d)
        # the peaks inside (-1, 1) put at least k0d/pi - 3 panel edges
        # there, each panel costing EVALS_PER_PANEL on the first level
        min_evals = (k0d / math.pi - 3.0) * geometry.EVALS_PER_PANEL
        if min_evals > max_evals:
            raise NonConvergence(
                f"cavity quadrature: {k0d / math.pi:.3g} kernel peaks need "
                f"more than {min_evals:.3g} evaluations on the first level, "
                f"over the budget of {max_evals}", n_evals=0)
        j = 0 if r > 0.0 else 1
        while j * math.pi / k0d < 1.0 + 16.0 * halfwidth:
            center = j * math.pi / k0d
            for offset in (0.0, halfwidth, 4.0 * halfwidth, 16.0 * halfwidth):
                for signed in ((center + offset, center - offset)
                               if offset else (center,)):
                    breakpoints.extend((signed, -signed))
            j += 2
    sharpness = 2 if abs(r) > 0.9 else 1
    resolution = sharpness * geometry.oscillation_nodes(k0d)
    integral, err_int = geometry.solid_angle_integrate(
        integrand, resolution=resolution, tol=tol,
        xi_breakpoints=breakpoints or None, max_evals=max_evals)
    coeff = 3.0 / (8.0 * math.pi)
    return RateResult(ratio=coeff * integral.real, method="quadrature",
                      err_estimate=coeff * err_int)


def gamma_cavity_series(spec, control: SeriesControl | None = None):
    """Decay ratio from the truncated double reflection sum.

    Sums bounce orders n = 0..n_max and relative orders m = -n_max..n:

        (3/2) t^2 * sum_{n,m} r^(4n-2m) [ (1+r^2) f(2m k0d)
                                          + r f((2m-1) k0d)
                                          + r f((2m+1) k0d) ]

    evaluated by collapsing the n sum in closed form per m (an exact
    regrouping of the same truncated sum, O(n_max) instead of
    O(n_max^2)). The reported err_estimate is the truncation tail bound
    plus a 1e-14 rounding floor.

    ``spec`` is a CavitySpec for one cell, giving a RateResult, or an
    ``(r_mir, k0d)`` pair of arrays for a grid, giving a RateGrid whose
    cells are validated as CavitySpec validates one. Cells that share
    r_mir share n_max and are summed together as one (cells x m) array.

    Raises
    ------
    TailTooLarge
        If the tail bound at the chosen n_max exceeds control.tail_tol
        (on a grid: that cell's status).
    """
    if control is None:
        control = SeriesControl()
    r_mir, k0d = ((spec.r_mir, spec.k0d) if isinstance(spec, CavitySpec)
                  else spec)
    cells = Cells(r_mir, k0d)
    _check_cavity(cells, r_mir, k0d)
    live = np.flatnonzero(cells.ok)
    r = cells.values[0][live]
    r_u, inverse = np.unique(r, return_inverse=True)
    n_u = [control.n_max if control.n_max is not None
           else default_n_max(x, control.tail_tol) for x in r_u.tolist()]
    tail_u = [_series_tail_bound(x, n) for x, n in zip(r_u.tolist(), n_u)]
    tail = np.zeros(cells.status.size)
    n_max = np.zeros(cells.status.size, dtype=int)
    tail[live] = np.asarray(tail_u)[inverse]
    n_max[live] = np.asarray(n_u, dtype=int)[inverse]
    cells.check(tail > control.tail_tol, TailTooLarge,
                lambda: TailTooLarge(
                    f"series tail bound {tail[0]:.3g} exceeds tail_tol "
                    f"{control.tail_tol:.3g} at n_max={n_max[0]}",
                    bound=float(tail[0]), tol=control.tail_tol))

    ok = cells.ok
    r, k, orders = cells.values[0][ok], cells.values[1][ok], n_max[ok]
    sums = np.empty(r.size)
    for n in np.unique(orders).tolist():
        rows = orders == n
        sums[rows] = _series_sums(r[rows], k[rows], n)
    ratio = 1.5 * (1.0 - r ** 2) * sums
    return cells.result("series", ratio, tail[ok] + 1e-14)


#: Elements per block of a series grid: a long k0d sweep at high r_mir
#: is summed a few rows at a time, so its temporaries stay near 0.5 MB.
_SERIES_BLOCK = 1 << 16


def _series_sums(r, k0d, n_max: int):
    """The regrouped double sum without its (3/2) t^2 prefactor, per row.

    Rows (r, k0d) share n_max; they are summed on (rows x m) blocks of
    about _SERIES_BLOCK elements.
    """
    m = np.arange(-n_max, n_max + 1)
    am = np.abs(m)
    j = np.arange(2 * n_max + 2)
    # closed n sum at fixed m: sum_{n=max(m,0)}^{n_max} r^(4n-2m)
    top = np.where(m > 0, n_max - m + 1, n_max + 1)
    out = np.empty(r.size)
    step = max(1, _SERIES_BLOCK // m.size)
    for lo in range(0, r.size, step):
        rb, kb = r[lo:lo + step, None], k0d[lo:lo + step, None]
        # f on the shared grid j*k0d, j = 0..2*n_max+1 (f is even)
        f_grid = kernels.f_kernel(kb * j)
        f_terms = ((1.0 + rb * rb) * f_grid[:, 2 * am]
                   + rb * f_grid[:, np.abs(2 * m - 1)]
                   + rb * f_grid[:, np.abs(2 * m + 1)])
        r2 = rb * rb
        r4 = r2 * r2
        weights = r2 ** am * (1.0 - r4 ** top) / (1.0 - r4)
        # a pairwise sum per row, which unlike a BLAS dot does not
        # depend on where the row sits in memory: a cell sums alike
        # alone and inside a block
        out[lo:lo + step] = (weights * f_terms).sum(axis=1)
    return out


def _check_limit_r(cells: Cells, r_mir) -> None:
    r = cells.values[0]
    cells.check((np.abs(r) >= 1.0) & (r != -1.0), DegenerateMirror,
                lambda: DegenerateMirror(
                    f"subwavelength limits require -1 <= r_mir < 1, "
                    f"got {r_mir!r}"))


def gamma_subwavelength_limit(r_mir: float) -> RateResult:
    """Leading subwavelength decay ratio (1 + r_mir) / (1 - r_mir).

    Valid for k0d -> 0. Accepts the r_mir = -1 endpoint (perfectly
    reflecting phase-flipping mirrors), where the ratio is exactly 0;
    r_mir = +1 diverges and raises DegenerateMirror.
    """
    _check_limit_r(Cells(r_mir), r_mir)
    ratio = (1.0 + r_mir) / (1.0 - r_mir)
    return RateResult(ratio=ratio, method="limit", err_estimate=0.0)


def gamma_subwavelength_2nd(r_mir, k0d):
    """Subwavelength decay ratio through second order in k0d.

    ratio = (1+r)/(1-r) * [1 - (2/5) r k0d^2 / (1-r)^2]. The expansion
    parameter is r k0d^2/(1-r)^2, so highly reflective plasmonic mirrors
    (r near +1) exhaust its validity well before k0d ~ 0.3; a soft
    warning marks k0d beyond that edge. err_estimate is the magnitude of
    the next omitted order, |limit| * ((2/5) r k0d^2/(1-r)^2)^2 -- a
    scale, not a bound.

    Scalars give a RateResult and raise on a bad cell; arrays (broadcast
    together) give a RateGrid with a status per cell.
    """
    cells = Cells(r_mir, k0d)
    _check_limit_r(cells, r_mir)
    cells.check(~(cells.values[1] >= 0.0), InvalidParams,
                lambda: InvalidParams(f"k0d must be >= 0, got {k0d!r}"))
    live = cells.ok
    r, k = cells.values[0][live], cells.values[1][live]
    if np.any(k > SUBWAVELENGTH_SOFT_MAX):
        warnings.warn(
            f"second-order subwavelength form evaluated at "
            f"k0d={np.max(k):g} > {SUBWAVELENGTH_SOFT_MAX}; truncation "
            f"error is uncontrolled", stacklevel=2)
    # a huge k0d overflows to a non-finite ratio, which fails its cell
    with np.errstate(over="ignore", invalid="ignore"):
        limit = (1.0 + r) / (1.0 - r)
        correction = 0.4 * r * k ** 2 / (1.0 - r) ** 2
        ratio = limit * (1.0 - correction)
        err = np.abs(limit) * correction ** 2
    return cells.result("limit", ratio, err)
