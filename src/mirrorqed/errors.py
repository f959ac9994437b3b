"""Exception hierarchy and the input gate.

Every library-raised error derives from MirrorQEDError so callers can
catch the whole family; numerical failures carry enough state to report
partial results instead of masking them.

The input gate decides in one place what counts as a real number
(real), an integer (integer) and a numeric array (real_array). Each
refuses bool, str, None and complex values with an InvalidParams that
names the argument, and nan wherever it checks the value; every size a
caller sets is priced against one budget, MEMORY_BUDGET_BYTES, before
it is allocated. numpy is imported only where real_array builds an
array, so the command-line front end loads no numpy.
"""

from __future__ import annotations

import math
import numbers
import operator

#: The one memory budget of a call or a sweep.
MEMORY_BUDGET_BYTES = 1 << 30
#: Trajectories a call or sweep may draw: priced at 128 B each, which
#: holds jump_times (8 B each) to 64 MiB, and with it the run time.
MAX_TRAJECTORIES = MEMORY_BUDGET_BYTES // 128
#: Evaluations a quadrature may be budgeted (max_evals), at 2 B each: a
#: level's panel edges and their sort peak at about 1 B an evaluation.
MAX_EVALS = MEMORY_BUDGET_BYTES // 2


class MirrorQEDError(Exception):
    """Base class for all library errors."""


class InvalidParams(MirrorQEDError, ValueError):
    """An argument is outside the documented domain."""


class ConfigError(MirrorQEDError, ValueError):
    """A sweep configuration failed to parse or validate."""


class DegenerateMirror(InvalidParams):
    """|r| >= 1 where a partially transparent mirror is required."""


class NonConvergence(MirrorQEDError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best value so far so callers can report it alongside the
    failure instead of discarding the work.
    """

    def __init__(self, message: str, value=None, err_estimate: float = float("nan"),
                 n_evals: int = 0):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
        self.n_evals = n_evals


class TailTooLarge(MirrorQEDError):
    """Truncated reflection series cannot meet the requested tail bound."""

    def __init__(self, message: str, bound: float, tol: float):
        super().__init__(message)
        self.bound = bound
        self.tol = tol


class TruncationLeak(MirrorQEDError):
    """Population reached the top of the photon-number ladder."""


class StepTooLarge(InvalidParams):
    """Recording spacing too coarse: dt * max(rates) must stay below 0.1."""


def _interval(lo: float, strict: bool, finite: bool) -> str:
    if lo == -math.inf:
        return "a finite real number" if finite else "a real number"
    if strict and lo == 0.0:
        return "positive and finite" if finite else "positive"
    bound = f"{'>' if strict else '>='} {lo:g}"
    return f"finite and {bound}" if finite else bound


def real(value, name: str, lo: float = -math.inf, *, strict: bool = False,
         finite: bool = True, domain: str | None = None) -> float:
    """value, an int or float (numpy's too), as a float in [lo, inf), or
    (lo, inf) if strict, with inf admitted unless finite; never nan."""
    number = math.nan
    try:  # float first: the abstract-type test is the slow one
        if type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool)):
            number = float(value)
    except OverflowError:  # an int past the floats
        pass
    inside = number > lo if strict else number >= lo  # false for nan
    if inside and (abs(number) < math.inf or not finite):
        return number
    domain = domain or _interval(lo, strict, finite)
    raise InvalidParams(f"{name} must be {domain}, got {value!r}")


def integer(value, name: str, least: int | None = None,
            most: int | None = None) -> int:
    """value, of an integer type (not even a whole float), as an int in
    [least, most]; each cap ``most`` comes from the memory budget."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is not None and (least is None or number >= least) and (
            most is None or number <= most):
        return number
    bounds = "" if least is None else f" >= {least}"
    if most is not None:
        bounds = f" <= {most}" if least is None else f" in [{least}, {most}]"
        bounds += f" (a {MEMORY_BUDGET_BYTES >> 30} GiB memory budget)"
    raise InvalidParams(f"{name} must be{' an integer' * (number is None)}"
                        f"{bounds}, got {value!r}")


def real_array(value, name: str, lo: float = -math.inf, *,
               per_cell: bool = False, dtype=float) -> np.ndarray:
    """value, ints or floats of any shape, as an array of dtype whose
    entries are finite and >= lo; dtype=complex admits complex entries.
    per_cell=True checks the type alone, for callers that map each entry
    to its own output or cell status (a nan in gives a nan out)."""
    import numpy as np

    try:
        array = np.asarray(value)
        if array.dtype.kind == "O":  # ints past int64, Fractions; not None
            array = np.reshape([real(v, name, finite=False)
                                for v in array.flat], array.shape)
    except ValueError:  # ragged, or an entry real() refuses
        array = None
    if array is None or array.dtype.kind not in (
            "iufc" if dtype is complex else "iuf"):
        kind = type(value).__name__ if array is None else array.dtype
        raise InvalidParams(f"{name} must be an array of numbers, got {kind}")
    array = array.astype(dtype, copy=False)
    if per_cell:
        return array
    inside = (array.real >= lo) & np.isfinite(array)
    if not inside.all():
        bad = array.flat[int(np.argmin(inside))].item()
        domain = "finite" if lo == -math.inf else _interval(lo, False, True)
        raise InvalidParams(f"{name} entries must be {domain}, got {bad!r}")
    return array


def within_budget(n_bytes: int, what: str) -> None:
    if n_bytes > MEMORY_BUDGET_BYTES:
        raise InvalidParams(
            f"{what} takes {n_bytes / 2**30:.3g} GiB, more than the "
            f"{MEMORY_BUDGET_BYTES >> 30} GiB memory budget")
