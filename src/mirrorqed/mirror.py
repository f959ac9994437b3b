"""Decay ratio of an emitter facing a single partially transparent mirror.

Two independent routes to Gamma_mir / Gamma_free for a dipole lying in
the mirror plane at distance d (entering only as k0*d):

* a closed form, 1 + (3 Re r / 2) * f(2 k0 d) with the shared kernel f;
* an angular quadrature of Re r cos(2 k0 d cos theta), the real part of
  the interference term, over the full solid angle.

The quadrature route exists to referee the closed form, not to replace
it; both are exposed and sweeps can emit their difference. Both take
scalars or arrays and return a RateResult of floats or of arrays.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry, kernels
from .errors import InvalidParams, integer, real
from .results import Cells

__all__ = ["gamma_mirror_closed", "gamma_mirror_quadrature"]


def _closed_form_err(re_r, x):
    """Roundoff bound on 1 + 1.5 * re_r * f(x), elementwise.

    The direct branch of f sums terms of size up to 1/x^2 and 1/x^3 that
    nearly cancel, so its absolute error scales with the envelope of the
    term magnitudes, not with |f|.
    """
    f_err = np.full(x.shape, 4e-16)
    direct = np.abs(x) >= kernels.F_TAYLOR_CROSSOVER
    f_err[direct] = kernels.f_envelope(x[direct]) * 2.5e-16
    return 1.5 * np.abs(re_r) * f_err + geometry.ERR_FLOOR


def _check_mirror_args(cells: Cells, re_r, k0d) -> None:
    """Flag the cells outside the mirror domain (originals for messages)."""
    r, k = cells.values
    cells.check(~((-1.0 <= r) & (r <= 1.0)), InvalidParams,
                lambda: InvalidParams(
                    f"re_r must lie in [-1, 1], got {re_r!r}"))
    cells.check(~((0.0 <= k) & (k < math.inf)), InvalidParams,
                lambda: InvalidParams(
                    f"k0d must be finite and >= 0, got {k0d!r}"))


def gamma_mirror_closed(re_r, k0d):
    """Closed-form decay ratio 1 + (3 re_r / 2) * f(2 k0d).

    At k0d = 0 the kernel limit f(0) = 2/3 gives exactly 1 + re_r: a
    perfectly reflecting phase-flipping mirror (re_r = -1) suppresses the
    decay to zero at contact, a phase-preserving one (re_r = +1) doubles
    it. For k0d -> infinity the ratio returns to 1.

    Scalars give a RateResult of floats and raise InvalidParams outside
    the domain. Arrays (broadcast together) give one of arrays, computed
    in one pass, with a status per cell instead of an exception.
    """
    cells = Cells(re_r=re_r, k0d=k0d)
    _check_mirror_args(cells, re_r, k0d)
    live = cells.ok
    r = cells.values[0][live]
    # a k0d past half the float range gives x = inf, where f is 0
    with np.errstate(over="ignore"):
        x = 2.0 * cells.values[1][live]
    ratio = 1.0 + 1.5 * r * kernels.f_kernel(x)
    return cells.result("closed_form", ratio, _closed_form_err(r, x))


def gamma_mirror_quadrature(re_r, k0d, tol: float = geometry.DEFAULT_TOL,
                            max_evals: int = geometry.DEFAULT_MAX_EVALS):
    """Decay ratio by direct solid-angle quadrature of the interference term.

    ratio = 1 + (3 / 8 pi) * int dOmega re_r cos(2 k0d cos theta)
    * (transverse dipole weight), by geometry.ratio_quadrature, whose
    rounding rule err_estimate follows. Used as the independent referee
    of gamma_mirror_closed; the two agree to quadrature accuracy.

    Scalars give a RateResult of floats and raise. Arrays (broadcast
    together) give one of arrays with a status per cell; each cell is
    still integrated by its own solid_angle_integrate call, so it gets
    the same bits alone and inside a grid:

    >>> grid = gamma_mirror_quadrature([-1.0, -1.0], [1.0, 1e9])
    >>> grid.status.tolist()
    ['ok', 'NonConvergence']

    Raises
    ------
    InvalidParams
        If tol is not a real >= geometry.ERR_FLOOR or max_evals is not
        an integer, for the whole call, on a grid too.
    NonConvergence
        Propagated from the quadrature engine.
    """
    tol = real(tol, "tol", geometry.ERR_FLOOR, finite=False)
    max_evals = integer(max_evals, "max_evals")
    cells = Cells(re_r=re_r, k0d=k0d)
    _check_mirror_args(cells, re_r, k0d)

    def cell(re_r, k0d):
        return geometry.ratio_quadrature(
            lambda xi: re_r * np.cos(2.0 * k0d * xi),
            geometry.oscillation_panels(2.0 * k0d), tol, max_evals, offset=1.0)

    return cells.each("quadrature", cell)
