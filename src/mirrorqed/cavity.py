"""Decay ratio of an emitter centered between two identical planar mirrors.

Three independent routes to Gamma_cav / Gamma_free:

* quadrature: solid-angle integral of the transverse dipole weight times
  the closed multiple-reflection kernel (resummed geometric series);
* series: the image sum 1 + 3 sum_{j>=1} r^j f(j k0d), one pair of
  image dipoles j mirror separations away per pass, truncated under a
  rigorous tail bound and never resummed (the single-mirror ratio
  1 + (3/2) r f(2 k0d) is its one-image counterpart);
* limits: the subwavelength closed forms (zeroth and second order in
  k0d), which also serve the |r_mir| = 1 endpoints the other routes
  must reject.

The routes referee each other; sweeps can emit all three side by side.
Each takes scalars or arrays and returns a RateResult of floats or of
arrays.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import geometry, kernels
from .constants import DEFAULT_TAIL_TOL
from .errors import (MAX_EVALS, DegenerateMirror, InvalidParams, TailTooLarge,
                     integer, real)
from .kernels import interference_kernel
from .results import Cells

__all__ = [
    "interference_kernel",
    "gamma_cavity_quadrature",
    "gamma_cavity_series",
    "gamma_subwavelength_limit",
    "gamma_subwavelength_2nd",
    "past_second_order",
    "default_n_max",
]

#: Soft validity edge of the second-order subwavelength expansion.
SUBWAVELENGTH_SOFT_MAX = 0.3

_N_MAX_CAP = 100_000


def _cavity_cells(r_mir, k0d) -> Cells:
    """The cells of (r_mir, k0d), checked.

    Flags the cells outside the cavity domain: |r_mir| < 1 and a finite
    k0d > 0, the +-1 endpoints being served by the limits only. A scalar
    cell raises, with the original arguments in its message.
    """
    cells = Cells(r_mir=r_mir, k0d=k0d)
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
    return cells


def _series_tail_bound(r: float, n_max: int) -> float:
    """Bound on 3 |sum_{j > 2 n_max + 1} r^j f(j k0d)|, from |f| <= 2/3."""
    ar = abs(r)
    return 2.0 * ar ** (2 * n_max + 2) / (1.0 - ar)


def _series_rounding(r: float) -> float:
    """Rounding floor of the image sum: 1e-14 times 1 + 3 sum |r^j f|."""
    ar = abs(r)
    return 1e-14 * (1.0 + 2.0 * ar / (1.0 - ar))


def default_n_max(r_mir: float, tail_tol: float) -> int:
    """Smallest n_max whose tail bound plus rounding floor meets tail_tol.

    Solves 2 |r|^(2 n + 2) / (1 - |r|) <= tail_tol - floor for n, capped
    at 1e5; a tail_tol the floor alone exceeds gets the cap, and the
    series then fails with TailTooLarge. Raises InvalidParams unless
    r_mir is a real number with |r_mir| < 1 and 0 < tail_tol < inf.
    """
    tail_tol = real(tail_tol, "tail_tol", 0.0, strict=True)
    ar = abs(real(r_mir, "r_mir"))
    if not ar < 1.0:
        raise InvalidParams(
            f"default_n_max needs |r_mir| < 1, got {r_mir!r}")
    budget = tail_tol - _series_rounding(ar)
    if budget <= 0.0:
        return _N_MAX_CAP
    if ar == 0.0:
        return 0
    n = math.ceil(0.5 * math.log(0.5 * budget * (1.0 - ar))
                  / math.log(ar)) - 1
    return min(max(n, 0), _N_MAX_CAP)


def gamma_cavity_quadrature(r_mir, k0d, tol: float = geometry.DEFAULT_TOL,
                            max_evals: int = geometry.DEFAULT_MAX_EVALS):
    """Decay ratio by solid-angle quadrature of the resummed kernel.

    ratio = (3 / 8 pi) * int dOmega (transverse dipole weight)
    * interference_kernel(r_mir, k0d cos theta), by
    geometry.ratio_quadrature, whose rounding rule err_estimate follows.

    The first level has max(4, ceil(k0d / 2)) uniform panels, or
    max(8, ceil(k0d)) for the sharper peaks of |r_mir| > 0.9. The
    kernel's resonance peaks in cos theta and their graded
    neighbourhoods become panel edges, so refinement cannot straddle a
    peak, but only where the peaks are sharp (_peak_windows): no edge
    for |r_mir| < 0.15532, where the kernel is smooth, as for r_mir = 0;
    the peaks and +-h below 0.48616; also +-4h below 0.82274; also +-16h
    above. The engine's first-level gate (geometry.first_level_panels)
    prices them, one panel each, from their windows in integers before
    one is built, so a refused cell builds none. In these bands the
    default budget refuses k0d above 1,666,666, above 572,758 to
    572,759.46, 398,420.11 to 398,422.27, 305,446.17 to 305,447.62 up to
    |r_mir| = 0.9 and 258,136 to 258,138.38 above: the edge moves a
    little with r, through the window sizes.

    Scalars give a RateResult of floats and raise. Arrays (broadcast
    together) give one of arrays with a status per cell; each cell is
    still integrated by its own solid_angle_integrate call, so it gets
    the same bits alone and inside a grid.

    Raises
    ------
    InvalidParams
        If tol is not a real >= geometry.ERR_FLOOR, or max_evals not an
        integer <= errors.MAX_EVALS; for the whole call, on a grid too.
    NonConvergence
        If the node budget runs out (expected for very high finesse
        together with large k0d); reported, never masked. A first level
        that a gate prices over max_evals is refused before an integrand
        is evaluated, with n_evals == 0. On a grid: that cell's status.
    """
    tol = real(tol, "tol", geometry.ERR_FLOOR, finite=False)
    max_evals = integer(max_evals, "max_evals", most=MAX_EVALS)
    cells = _cavity_cells(r_mir, k0d)

    def cell(r, k0d):
        panels = geometry.oscillation_panels(k0d)
        if abs(r) > 0.9:
            panels = max(8, geometry.oscillation_panels(2.0 * k0d))
        windows = _peak_windows(r, k0d)
        geometry.first_level_panels(
            panels + sum(len(js) for _, js in windows), max_evals)
        return geometry.ratio_quadrature(
            lambda xi: interference_kernel(r, k0d * xi), panels, tol,
            max_evals, xi_breakpoints=_peak_breakpoints(windows, k0d))

    return cells.each("quadrature", cell)


def _peak_windows(r: float, k0d: float) -> list[tuple[float, range]]:
    """(shift s, peak indices j) of each edge family jpi/k0d + s in (-1, 1).

    The peaks sit at xi = j pi / k0d, j even for r > 0 and odd for r < 0,
    with halfwidth h = (1 - r^2) / (2 |r| k0d). A family at s = +-m h
    (m = 1, 4, 16) is built only where m h < pi / k0d, half the peak
    spacing, and s = 0 goes with +-h; as h k0d depends on r alone, the
    rule is m (1 - r^2) < 2 pi |r|, false for every m at r = 0. Each
    window holds the j of the peak parity from floor((-1 - s) k0d / pi)
    - 2 to ceil((1 - s) k0d / pi) + 2, every edge in (-1, 1) with a
    margin of two for rounding. A window past (-2^53, 2^53), where j is
    no longer exact, is skipped: that keeps a huge k0d (1e20, 1e308),
    whose uniform panels the gate refuses anyway, refused in O(1) time,
    where the window's length would overflow.
    """
    steps = [m for m in (1.0, 4.0, 16.0)
             if m * (1.0 - r * r) < 2.0 * math.pi * abs(r)]
    if not steps:
        return []
    den = 2.0 * abs(r) * k0d
    halfwidth = (1.0 - r * r) / den if den > 0.0 else math.inf
    parity = 0 if r > 0.0 else 1
    scale = k0d / math.pi
    windows = []
    for shift in [0.0, *(s * m * halfwidth for m in steps for s in (1, -1))]:
        lo, hi = (-1.0 - shift) * scale, (1.0 - shift) * scale
        # floor(lo) - 2 > -2^53 and ceil(hi) + 2 < 2^53, false for nan
        if not (3.0 - 2.0 ** 53 <= lo and hi <= 2.0 ** 53 - 3.0):
            continue
        first = math.floor(lo) - 2
        first += (first - parity) % 2
        windows.append((shift, range(first, math.ceil(hi) + 3, 2)))
    return windows


def _peak_breakpoints(windows: list[tuple[float, range]],
                      k0d: float) -> np.ndarray:
    """Panel edges jpi/k0d + s, one per (s, j) of _peak_windows' windows.

    The route's gate prices them before this runs; each window holds
    about k0d / pi + 3 indices. No edge is mirrored: the window of -s
    yields the image (-j)pi/k0d - s of each edge of s bit for bit.
    """
    # at a subnormal k0d the edges past j = 0 overflow to +-inf, outside
    with np.errstate(over="ignore"):
        parts = [np.arange(js.start, js.stop, js.step) * math.pi / k0d
                 + shift for shift, js in windows]
    return np.concatenate(parts) if parts else np.empty(0)


def gamma_cavity_series(r_mir, k0d, tail_tol: float = DEFAULT_TAIL_TOL):
    """Decay ratio from the truncated image sum.

        ratio = 1 + 3 sum_{j=1}^{2 n_max + 1} r^j f(j k0d)

    Each pass across the cavity adds the two images j mirror separations
    away, with reflection amplitude r^j; nothing is resummed. The order
    n_max is the smallest whose error meets tail_tol (default_n_max), and
    the reported err_estimate is that error: the tail bound
    2 |r|^(2 n_max + 2) / (1 - |r|) plus a rounding floor
    1e-14 (1 + 2 |r| / (1 - |r|)) that grows with the summed magnitude.

    Scalars give a RateResult of floats and raise. Arrays (broadcast
    together) give one of arrays with a status per cell; cells that share
    |r_mir| share n_max and are summed together as one (cells x j) array:

    >>> gamma_cavity_series(0.5, 1.0).status
    'ok'
    >>> gamma_cavity_series([0.5, 1.5], 1.0).status.tolist()
    ['ok', 'DegenerateMirror']

    Raises
    ------
    InvalidParams
        Unless 0 < tail_tol < inf.
    TailTooLarge
        If no order up to the cap of 100,000 meets tail_tol, as when the
        rounding floor alone exceeds it (on a grid: that cell's status).
    """
    tail_tol = real(tail_tol, "tail_tol", 0.0, strict=True)
    cells = _cavity_cells(r_mir, k0d)
    live = np.flatnonzero(cells.ok)
    r = cells.values[0][live]
    r_u, inverse = np.unique(r, return_inverse=True)
    n_u = [default_n_max(x, tail_tol) for x in r_u.tolist()]
    err_u = [_series_tail_bound(x, n) + _series_rounding(x)
             for x, n in zip(r_u.tolist(), n_u)]
    err = np.zeros(cells.status.size)
    n_max = np.zeros(cells.status.size, dtype=int)
    err[live] = np.asarray(err_u)[inverse]
    n_max[live] = np.asarray(n_u, dtype=int)[inverse]
    cells.check(err > tail_tol, TailTooLarge,
                lambda: TailTooLarge(
                    f"series error bound {err[0]:.3g} exceeds tail_tol "
                    f"{tail_tol:.3g} at n_max={n_max[0]}",
                    bound=float(err[0]), tol=tail_tol))

    ok = cells.ok
    r, k, orders = cells.values[0][ok], cells.values[1][ok], n_max[ok]
    sums = np.empty(r.size)
    for n in sorted(set(orders.tolist())):
        rows = orders == n
        sums[rows] = _series_sums(r[rows], k[rows], n)
    return cells.result("series", 1.0 + 3.0 * sums, err[ok])


#: Elements per (rows x j) block of a series grid: a long k0d sweep at
#: high r_mir is summed a few rows at a time, so its temporaries stay
#: near 0.5 MB.
_SERIES_BLOCK = 1 << 16


def _series_sums(r, k0d, n_max: int):
    """sum_{j=1}^{2 n_max + 1} r^j f(j k0d) per row (r, k0d).

    Rows share n_max; they are summed on (rows x j) blocks of about
    _SERIES_BLOCK elements.
    """
    j = np.arange(1, 2 * n_max + 2)
    out = np.empty(r.size)
    step = max(1, _SERIES_BLOCK // j.size)
    for lo in range(0, r.size, step):
        rb, kb = r[lo:lo + step, None], k0d[lo:lo + step, None]
        # r^j as |r|^j with the sign on odd j: np.power is ~30x slower
        # on a negative base
        terms = np.abs(rb) ** j
        terms[:, ::2] *= np.sign(rb)
        # a product past the float range is inf, where f is 0
        with np.errstate(over="ignore"):
            phases = kb * j
        terms *= kernels.f_kernel(phases)
        # a pairwise sum per row, which unlike a BLAS dot does not
        # depend on where the row sits in memory: a cell sums alike
        # alone and inside a block
        out[lo:lo + step] = terms.sum(axis=1)
    return out


def gamma_subwavelength_limit(r_mir):
    """Leading subwavelength decay ratio (1 + r_mir) / (1 - r_mir).

    Valid for k0d -> 0: it is gamma_subwavelength_2nd at k0d = 0, where
    the correction vanishes and err_estimate is the rounding floor
    4e-16 |ratio|. Accepts the r_mir = -1 endpoint (perfectly reflecting
    phase-flipping mirrors), where the ratio is exactly 0; r_mir = +1
    diverges and raises DegenerateMirror.
    Scalars give a RateResult of floats, arrays one of arrays.
    """
    return gamma_subwavelength_2nd(r_mir, 0.0)


def past_second_order(r_mir, k0d):
    """True where gamma_subwavelength_2nd takes a cell outside its domain.

    Outside: k0d > SUBWAVELENGTH_SOFT_MAX, or a first correction
    0.4 |r| k0d^2 / (1 - r)^2 of at least 1, the leading term, where the
    ratio is <= 0 for r > 0. False on the cells the route refuses, so
    masking with it keeps their statuses. Broadcasts like the routes:

    >>> past_second_order([0.5, 0.98, 1.0], 0.11).tolist()
    [False, True, False]
    """
    cells = Cells(r_mir=r_mir, k0d=k0d)
    r, k = cells.values
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        correction = 0.4 * np.abs(r) * k ** 2 / (1.0 - r) ** 2
    past = (((np.abs(r) < 1.0) | (r == -1.0)) & (k >= 0.0)
            & ((k > SUBWAVELENGTH_SOFT_MAX) | ~(correction < 1.0)))
    return past.item() if cells.scalar else past.reshape(cells.shape)


def gamma_subwavelength_2nd(r_mir, k0d):
    """Subwavelength decay ratio through second order in k0d.

    ratio = (1+r)/(1-r) * [1 - (2/5) r k0d^2 / (1-r)^2], with a soft
    warning on the cells past its domain (past_second_order).

    err_estimate is |t4| + 2|t6| + 4e-16 |limit|, limit = (1+r)/(1-r):
    the next two omitted orders of the small-k0d series, t4 = 3 c4 k0d^4
    Li_{-4}(r) and t6 = 3 c6 k0d^6 Li_{-6}(r) with c4 = 1/140 and
    c6 = -1/5670 the Taylor coefficients of f_kernel, plus the rounding
    of the closed form. The t6 term counts twice because for r < 0 the
    orders do not alternate. It bounds the truncation error against an
    mpmath quadrature at |r| <= 0.9, k0d <= 0.1.

    Scalars give a RateResult of floats and raise on a bad cell; arrays
    (broadcast together) give one of arrays with a status per cell.
    """
    cells = Cells(r_mir=r_mir, k0d=k0d)
    r = cells.values[0]
    cells.check((np.abs(r) >= 1.0) & (r != -1.0), DegenerateMirror,
                lambda: DegenerateMirror(
                    f"subwavelength limits require -1 <= r_mir < 1, "
                    f"got {r_mir!r}"))
    cells.check(~(cells.values[1] >= 0.0), InvalidParams,
                lambda: InvalidParams(f"k0d must be >= 0, got {k0d!r}"))
    live = cells.ok
    r, k = cells.values[0][live], cells.values[1][live]
    if past_second_order(r, k).any():
        warnings.warn("second-order subwavelength form evaluated past its "
                      "domain (past_second_order); truncation error is "
                      "uncontrolled", stacklevel=2)
    # a huge k0d overflows to a non-finite ratio, which fails its cell
    with np.errstate(over="ignore", invalid="ignore"):
        limit = (1.0 + r) / (1.0 - r)
        correction = 0.4 * r * k ** 2 / (1.0 - r) ** 2
        ratio = limit * (1.0 - correction)
        # Li_{-n}(r) = sum over j >= 1 of j^n r^j, in closed form
        li4 = r * (1.0 + r * (11.0 + r * (11.0 + r))) / (1.0 - r) ** 5
        li6 = r * (1.0 + r * (57.0 + r * (302.0 + r * (302.0 + r * (
            57.0 + r))))) / (1.0 - r) ** 7
        # a polylog that is 0 (r = 0 or -1) makes its order 0 even where
        # the power of k0d overflows
        t4 = np.where(li4 == 0.0, 0.0, 3.0 * kernels._F_C4 * k ** 4 * li4)
        t6 = np.where(li6 == 0.0, 0.0, 3.0 * kernels._F_C6 * k ** 6 * li6)
        err = (np.abs(t4) + 2.0 * np.abs(t6)
               + geometry.ERR_FLOOR * np.abs(limit))
    return cells.result("limit", ratio, err)
