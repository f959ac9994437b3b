"""Result containers for decay-ratio computations, one cell or a grid.

Every rate route takes scalars or arrays: Cells broadcasts the
arguments, flags the cells outside the route's domain, and builds a
RateResult for a scalar call or a RateGrid for an array call. A route
computes its ok cells either in one array pass (Cells.result) or one
cell at a time (Cells.each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, MirrorQEDError

#: Allowed values of RateResult.method.
METHODS = ("closed_form", "quadrature", "series", "limit")


@dataclass(frozen=True)
class RateResult:
    """A dimensionless decay ratio (rate over the free-space rate).

    Attributes
    ----------
    ratio : float
        Decay rate divided by the free-space rate.
    method : str
        One of METHODS; records which route produced the number so that
        downstream consumers never mix provenance silently.
    err_estimate : float
        Conservative estimate of the numerical error in ``ratio``
        (truncation bound for series, refinement delta for quadrature,
        roundoff scale for closed forms).
    """

    ratio: float
    method: str
    err_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.ratio):
            raise InvalidParams(f"non-finite ratio {self.ratio!r}")
        if self.method not in METHODS:
            raise InvalidParams(f"unknown method {self.method!r}")
        if not (self.err_estimate >= 0.0):
            raise InvalidParams(f"negative err_estimate {self.err_estimate!r}")


@dataclass(frozen=True)
class RateGrid:
    """Decay ratios of one route on a grid of cells.

    The array form of RateResult, returned when a route is called with
    array arguments. ``status`` holds, per cell, ``"ok"`` or the name of
    the error class a call on that cell alone would raise; a failed cell
    reads nan in ``ratio`` and ``err_estimate``.
    """

    ratio: np.ndarray
    method: str
    err_estimate: np.ndarray
    status: np.ndarray


class Cells:
    """The arguments of a rate route, broadcast to one grid of cells.

    Validation runs check by check, and a cell keeps the first error that
    flags it. When every argument is a scalar, the grid is one cell and a
    flagged cell raises its error instead, so a scalar call keeps the
    typed exceptions of the scalar API.
    """

    def __init__(self, *args):
        arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                       for a in args))
        self.shape = arrays[0].shape
        self.scalar = self.shape == ()
        #: the arguments as flat float arrays, one entry per cell
        self.values = [a.ravel() for a in arrays]
        self.status = np.full(self.values[0].size, "ok", dtype=object)
        #: mask of the cells no check has flagged
        self.ok = np.ones(self.values[0].size, dtype=bool)

    def check(self, bad, error: type, make) -> None:
        """Flag the ok cells where ``bad`` holds with ``error``.

        ``make()`` builds the exception a scalar call raises; it is only
        called then, so array calls format no messages.
        """
        bad = np.logical_and(bad, self.ok)
        if bad.any():
            if self.scalar:
                raise make()
            self.status[bad] = error.__name__
            self.ok = self.ok & ~bad

    def each(self, method: str, cell):
        """The route's answer from ``cell`` called on each ok cell alone.

        ``cell`` takes one cell's arguments as Python floats and returns
        its (ratio, err_estimate). A MirrorQEDError it raises becomes
        that cell's status on a grid and is re-raised on a scalar call.
        """
        ratio = np.full(self.ok.size, math.nan)
        err = np.full(self.ok.size, math.nan)
        for i in np.flatnonzero(self.ok).tolist():
            try:
                ratio[i], err[i] = cell(*(v.item(i) for v in self.values))
            except MirrorQEDError as exc:
                if self.scalar:
                    raise
                self.status[i] = type(exc).__name__
                self.ok[i] = False
        return self.result(method, ratio[self.ok], err[self.ok])

    def result(self, method: str, ratio, err):
        """The route's answer from the ratio and error of the ok cells.

        A RateResult for a scalar call, else a RateGrid; a non-finite
        ratio fails its cell as RateResult would.
        """
        if self.scalar:
            return RateResult(ratio=float(ratio[0]), method=method,
                              err_estimate=float(err[0]))
        live = self.ok
        full_ratio = np.full(live.size, math.nan)
        full_err = np.full(live.size, math.nan)
        full_ratio[live] = ratio
        full_err[live] = err
        bad = ~np.isfinite(full_ratio)
        self.check(bad, InvalidParams, None)
        full_ratio[bad] = full_err[bad] = math.nan
        return RateGrid(ratio=full_ratio.reshape(self.shape), method=method,
                        err_estimate=full_err.reshape(self.shape),
                        status=self.status.reshape(self.shape))
