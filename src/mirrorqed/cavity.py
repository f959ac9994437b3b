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
from .errors import DegenerateMirror, InvalidParams, TailTooLarge
from .geometry import DipoleOrientation
from .kernels import interference_kernel
from .results import Cells

__all__ = [
    "interference_kernel",
    "gamma_cavity_quadrature",
    "gamma_cavity_series",
    "gamma_subwavelength_limit",
    "gamma_subwavelength_2nd",
    "default_n_max",
]

#: Soft validity edge of the second-order subwavelength expansion.
SUBWAVELENGTH_SOFT_MAX = 0.3

#: The series' default bound on its tail plus rounding.
DEFAULT_TAIL_TOL = 1e-8

_N_MAX_CAP = 100_000

# The in-plane dipole the series assumes (all have one phi mean).
_DIPOLE = DipoleOrientation()


def _cavity_cells(r_mir, k0d) -> Cells:
    """The cells of (r_mir, k0d), checked.

    Flags the cells outside the cavity domain: |r_mir| < 1 and a finite
    k0d > 0, the +-1 endpoints being served by the limits only. A scalar
    cell raises, with the original arguments in its message.
    """
    cells = Cells(r_mir, k0d)
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


def _check_tail_tol(tail_tol: float) -> None:
    """Raise InvalidParams unless 0 < tail_tol < inf."""
    if not 0.0 < tail_tol < math.inf:
        raise InvalidParams(
            f"tail_tol must be positive and finite, got {tail_tol!r}")


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
    |r_mir| < 1 and tail_tol is finite.
    """
    ar = abs(r_mir)
    if not (ar < 1.0 and math.isfinite(tail_tol)):
        raise InvalidParams(
            f"default_n_max needs |r_mir| < 1 and a finite tail_tol, got "
            f"{r_mir!r}, {tail_tol!r}")
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
    * interference_kernel(r_mir, k0d cos theta). The kernel depends on
    theta alone, so the weight enters through its closed phi mean
    (geometry.phi_mean_weight): one integrand value per xi node. Near
    |r_mir| -> 1 the kernel develops sharp resonance peaks in cos theta;
    their locations and graded neighborhoods are passed to the quadrature
    engine as panel breakpoints so refinement cannot silently straddle a
    peak.

    Building the breakpoints costs O(k0d) whatever r_mir is (see
    _peak_breakpoints), so the engine's first-level gate
    (geometry.first_level_panels) runs before they are built, on the
    uniform panels of the resolution hint plus the bound
    7 ceil(k0d / pi) + 40 on the breakpoints, one panel each, in integer
    arithmetic; a cell it refuses builds none. At the default budget it
    refuses k0d above 305,438.2 for 0 < |r_mir| <= 0.9, above 258,131
    for |r_mir| > 0.9 and above 1,666,666 for r_mir = 0.

    Scalars give a RateResult of floats and raise. Arrays (broadcast
    together) give one of arrays with a status per cell; each cell is
    still integrated by its own solid_angle_integrate call, so it gets
    the same bits alone and inside a grid.

    err_estimate is coeff * (the engine's estimate), coeff = 3 / (8 pi),
    plus geometry.ERR_FLOOR * max(1, |ratio|) for what the engine cannot
    see. Its floor covers the rounding of its own sum, not of the ratio:
    coeff is rounded once and its product with the integral once more,
    together at most u |ratio| with u = 2^-53. Nor does it cover the
    rounding of each integrand value, a few u relative: the kernel is a
    dozen rounded operations on a nonnegative integrand, so their errors
    reach the integral undamped. ERR_FLOOR = 3.6 u takes both, floored
    like the engine's at max(1, |ratio|).

    Raises
    ------
    InvalidParams
        If tol < geometry.ERR_FLOOR, the engine's error floor, which no
        cell can meet. On a grid: each cell's status.
    NonConvergence
        If the node budget runs out (expected for very high finesse
        together with large k0d); reported, never masked. A first level
        that a gate prices over max_evals is refused before an integrand
        is evaluated, with n_evals == 0. On a grid: that cell's status.
    """
    cells = _cavity_cells(r_mir, k0d)

    def cell(r, k0d):
        def integrand(xi, phi):
            return (geometry.phi_mean_weight(_DIPOLE, xi)
                    * interference_kernel(r, k0d * xi))

        sharpness = 2 if abs(r) > 0.9 else 1
        resolution = sharpness * geometry.oscillation_nodes(k0d)
        n_breaks = _breakpoint_bound(k0d) if r != 0.0 else 0
        geometry.first_level_panels(resolution + 16 * n_breaks, max_evals)
        breakpoints = _peak_breakpoints(r, k0d) if n_breaks else None
        integral, err_int = geometry.solid_angle_integrate(
            integrand, resolution=resolution, tol=tol,
            xi_breakpoints=breakpoints, max_evals=max_evals)
        coeff = 3.0 / (8.0 * math.pi)
        ratio = coeff * integral.real
        rounding = geometry.ERR_FLOOR * max(1.0, abs(ratio))
        return ratio, coeff * err_int + rounding

    return cells.each("quadrature", cell)


def _breakpoint_bound(k0d: float) -> int:
    """7 c + 40, c = ceil(k0d / pi): no r gives more _peak_breakpoints.

    Proof. Write S = k0d / pi, so c = ceil(S). Shift s walks the j of
    one parity p, from the first at or above max(p, floor((-1 - s) S) - 2)
    to ceil((1 - s) S) + 2, and adds two edges per j; a shift whose top
    (1 - s) S is not in [0, 2^53) adds none.

    * s = 0 walks p .. c + 2: at most floor(c / 2) + 2 values of j.
    * A pair of shifts +-o (o > 0) has tops u = (1 - o) S and
      v = (1 + o) S, and the -o shift starts from -u, as the +o one
      does from -v. If u >= 0, both start at p and walk
      floor((ceil u + 2 - p) / 2) + floor((ceil v + 2 - p) / 2) + 2
      values. If u < 0, the +o shift adds none and the -o one starts at
      floor(-u) - 2 = -ceil(u) - 2 or later. Either way the pair walks
      at most floor((ceil u + ceil v) / 2) + 4 values.
    * Exactly, u + v = 2 S <= 2 c, so ceil u + ceil v <= 2 c + 1 and a
      pair walks at most c + 4 values: 2 (floor(c / 2) + 2 + 3 (c + 4))
      <= 7 (c + 4) edges, which r = 0.01, k0d = 803.4 reaches.
    * In floats, u and v are each rounded twice (1 -+ o, then times S),
      by a relative 2^-53 each time, and (1 + o) S < 2^53 (1 + 2^-51)
      when v is kept. So each is within 2 (1 + 2^-50) of its exact value,
      and within 1 + 2^-50 when v < 2^52. With ceil x < x + 1, that
      gives ceil u + ceil v <= 2 c + 4 when v < 2^52; above, v is an
      integer, ceil v = v, and ceil u + ceil v <= 2 c + 5. A pair then
      walks at most c + 6 values: 2 (floor(c / 2) + 2 + 3 (c + 6))
      <= 7 c + 40 edges.
    """
    return 7 * math.ceil(k0d / math.pi) + 40


def _peak_breakpoints(r: float, k0d: float) -> list[float]:
    """Panel edges at the kernel peaks and their graded neighbourhoods.

    The peaks sit at xi = +-c_j, c_j = j*pi/k0d with j even for r > 0
    and odd for r < 0, and have halfwidth h = (1 - r^2) / (2 |r| k0d).
    Each gets edges at c_j + s for the seven shifts s in {0, +-h, +-4h,
    +-16h}, mirrored to -(c_j + s). Only edges inside (-1, 1) matter, so
    for each shift only the centres within 1 of -s are generated, with a
    margin of two for rounding: however small |r| makes h, that is at
    most _breakpoint_bound(k0d) edges. A shift whose window reaches
    j = 2^53 is skipped: that takes |r| < 3e-16, where the kernel is
    flat to rounding and such an edge would mark no peak.
    """
    den = 2.0 * abs(r) * k0d
    halfwidth = (1.0 - r * r) / den if den > 0.0 else math.inf
    parity = 0 if r > 0.0 else 1
    scale = k0d / math.pi
    edges: list[float] = []
    for offset in (0.0, halfwidth, 4.0 * halfwidth, 16.0 * halfwidth):
        for shift in ((offset, -offset) if offset else (offset,)):
            top = (1.0 - shift) * scale
            if not 0.0 <= top < 2.0 ** 53:
                continue
            first = max(parity,
                        math.floor(max((-1.0 - shift) * scale, -1.0)) - 2)
            first += (first - parity) % 2
            for j in range(first, math.ceil(top) + 3, 2):
                edge = j * math.pi / k0d + shift
                edges.extend((edge, -edge))
    return edges


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
    _check_tail_tol(tail_tol)
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


def gamma_subwavelength_2nd(r_mir, k0d):
    """Subwavelength decay ratio through second order in k0d.

    ratio = (1+r)/(1-r) * [1 - (2/5) r k0d^2 / (1-r)^2]. The expansion
    parameter is r k0d^2/(1-r)^2, so highly reflective plasmonic mirrors
    (r near +1) exhaust its validity well before k0d ~ 0.3; a soft
    warning marks k0d beyond that edge.

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
    cells = Cells(r_mir, k0d)
    r = cells.values[0]
    cells.check((np.abs(r) >= 1.0) & (r != -1.0), DegenerateMirror,
                lambda: DegenerateMirror(
                    f"subwavelength limits require -1 <= r_mir < 1, "
                    f"got {r_mir!r}"))
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
        # Li_{-n}(r) = sum over j >= 1 of j^n r^j, in closed form
        li4 = r * (1.0 + r * (11.0 + r * (11.0 + r))) / (1.0 - r) ** 5
        li6 = r * (1.0 + r * (57.0 + r * (302.0 + r * (302.0 + r * (
            57.0 + r))))) / (1.0 - r) ** 7
        # a polylog that is 0 (r = 0 or -1) makes its order 0 even where
        # the power of k0d overflows
        t4 = np.where(li4 == 0.0, 0.0, 3.0 * kernels._F_C4 * k ** 4 * li4)
        t6 = np.where(li6 == 0.0, 0.0, 3.0 * kernels._F_C6 * k ** 6 * li6)
        err = np.abs(t4) + 2.0 * np.abs(t6) + 4e-16 * np.abs(limit)
    return cells.result("limit", ratio, err)
