"""Result containers for decay-ratio computations, one cell or a grid.

Every rate route takes scalars or arrays: Cells broadcasts the
arguments, flags the cells outside the route's domain, and builds one
RateResult, of floats for a scalar call and of arrays for an array
call. A route computes its ok cells either in one array pass
(Cells.result) or one cell at a time (Cells.each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, MirrorQEDError, real_array

#: Allowed values of RateResult.method.
METHODS = ("closed_form", "quadrature", "series", "limit")


@dataclass(frozen=True)
class RateResult:
    """Dimensionless decay ratios (rate over the free-space rate) of one route.

    The one result type of every rate route. A scalar call gives Python
    floats and ``status == "ok"``; an array call gives arrays of the
    broadcast shape, with ``status`` per cell:

    >>> from mirrorqed.mirror import gamma_mirror_closed
    >>> one = gamma_mirror_closed(0.5, 1.0)
    >>> type(one.ratio), type(one.err_estimate), one.status
    (<class 'float'>, <class 'float'>, 'ok')
    >>> grid = gamma_mirror_closed([0.5, 2.0], 1.0)
    >>> grid.ratio.shape, grid.status.tolist()
    ((2,), ['ok', 'InvalidParams'])

    Attributes
    ----------
    ratio : float or ndarray
        Decay rate divided by the free-space rate; nan in a failed cell.
    method : str
        One of METHODS; records which route produced the number so that
        downstream consumers never mix provenance silently.
    err_estimate : float or ndarray
        Conservative estimate of the numerical error in ``ratio``
        (truncation bound for series, refinement delta for quadrature,
        roundoff scale for closed forms); nan in a failed cell.
    status : str or ndarray
        ``"ok"``, or per cell the name of the error class a call on that
        cell alone would raise.
    """

    ratio: float | np.ndarray
    method: str
    err_estimate: float | np.ndarray
    status: str | np.ndarray = "ok"

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidParams(f"unknown method {self.method!r}")


class Cells:
    """The arguments of a rate route, by name, broadcast to one grid of cells.

    Arguments that are not real numbers (errors.real_array; nan and inf
    are cell values), or do not broadcast together, raise InvalidParams,
    on a grid too. Validation runs check by check, and a cell keeps the
    first error that flags it. When every argument is a scalar, the grid
    is one cell and a flagged cell raises its error instead, so a scalar
    call keeps the typed exceptions of the scalar API.
    """

    def __init__(self, **args):
        arrays = [real_array(a, name, per_cell=True)
                  for name, a in args.items()]
        try:
            arrays = np.broadcast_arrays(*arrays)
        except ValueError:
            raise InvalidParams(
                f"{' and '.join(args)} must broadcast together, got shapes "
                f"{', '.join(str(a.shape) for a in arrays)}") from None
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
        """The route's RateResult from the ratio and error of the ok cells.

        An ok cell whose ratio is not finite or whose error is not >= 0
        fails as InvalidParams; a scalar call raises it.
        """
        full_ratio = np.full(self.ok.size, math.nan)
        full_err = np.full(self.ok.size, math.nan)
        full_ratio[self.ok] = ratio
        full_err[self.ok] = err
        self.check(~np.isfinite(full_ratio), InvalidParams,
                   lambda: InvalidParams(
                       f"non-finite ratio {float(full_ratio[0])!r}"))
        self.check(~(full_err >= 0.0), InvalidParams,
                   lambda: InvalidParams(
                       f"negative err_estimate {float(full_err[0])!r}"))
        full_ratio[~self.ok] = full_err[~self.ok] = math.nan
        ratio, err, status = (a.reshape(self.shape)
                              for a in (full_ratio, full_err, self.status))
        if self.scalar:
            ratio, err, status = ratio.item(), err.item(), status.item()
        return RateResult(ratio, method, err, status)
