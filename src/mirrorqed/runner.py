"""Running a sweep: its routes over blocks of grid points, written as CSV.

sweeps.run_sweep hands a checked SweepConfig here, so numpy and the
routes load only when a sweep runs: a mirror sweep loads mirror, a
cavity sweep cavity, and a lindblad run dynamics, each with what it
imports and nothing of the others.
"""

from __future__ import annotations

import contextlib
import math
import sys

import numpy as np

from .errors import InvalidParams
from .sweeps import Range, SweepConfig, _output_file, dump_config

__all__ = ["run"]


#: Rows computed, formatted and written at a time. A sweep runs its
#: routes on one block of grid points, writes the block's text and frees
#: it before the next, so its memory stays near 1 MB however long the
#: grid; every route gives a cell the same bits alone and inside any
#: block, so the CSV does not depend on this size.
_BLOCK_ROWS = 1024


def _column_text(column, n_rows: int) -> list[str]:
    """CSV cells of one column of a block, picked by the column's kind.

    A str is a constant column. A float array writes each value as
    float.__repr__, which keeps full precision, round-trips, and writes
    a numpy scalar as a plain number; a (values, show) pair writes its
    values only where show holds and empty cells elsewhere. Any other
    array (the status column) holds its cells' text. Only shown cells
    are formatted.
    """
    if isinstance(column, str):
        return [column] * n_rows
    values, show = column if isinstance(column, tuple) else (column, True)
    if values.dtype == object:
        return values.tolist()
    shown = np.broadcast_to(show, values.shape)
    text = np.full(n_rows, "", dtype=object)
    text[shown] = list(map(float.__repr__, values[shown].tolist()))
    return text.tolist()


@contextlib.contextmanager
def _csv_output(path: str, cfg: SweepConfig, header: list[str]):
    """The CSV at path, opened before anything is computed, with the
    config preamble and the header written.

    Yields write(columns), which writes one block of rows given as
    equally long columns (see _column_text; the first is an array).
    """
    lines = [f"# {line}" for line in dump_config(cfg).splitlines()]
    lines.append(",".join(header))

    def write(columns) -> None:
        n_rows = len(columns[0])
        text = [_column_text(col, n_rows) for col in columns]
        fh.write("\n".join(map(",".join, zip(*text))) + "\n")

    with _output_file(path) as fh:
        fh.write("\n".join(lines) + "\n")
        yield write


def _axis_values(cfg: SweepConfig):
    """Grid values plus the name of the swept axis ('' for a single row)."""
    for name in ("r", "k0d", "d_over_lambda0"):
        v = getattr(cfg, name)
        if isinstance(v, Range):
            return name, v.values()
    return "", np.array([0.0])


def _cell_params(cfg: SweepConfig, axis: str, xs: np.ndarray):
    """(re_r, k0d, d_over_lambda0) columns over the grid points xs."""
    def column(name):
        value = getattr(cfg, name)
        return xs if axis == name else np.full(xs.shape, float(value))

    r = column("r")
    if cfg.d_over_lambda0 is not None:
        d = column("d_over_lambda0")
        # an overflowing d reads k0d = inf, which the routes refuse per cell
        with np.errstate(over="ignore"):
            k0d = 2.0 * math.pi * d
    else:
        k0d = column("k0d")
        d = k0d / (2.0 * math.pi)
    return r, k0d, d


def _run_route(status: np.ndarray, route, *columns, mask=True, **controls):
    """One route over the cells (where mask holds) whose rows are still ok.

    ``route`` is called on the column arrays and ``controls`` and returns
    a RateResult of arrays. Its statuses go into ``status`` in place, so
    the first route that fails on a row names it. Returns ratio and
    err_estimate over every row, nan where the route failed or did not
    run.
    """
    todo = (status == "ok") & mask
    ratio = np.full(status.size, math.nan)
    err = np.full(status.size, math.nan)
    if todo.any():
        res = route(*(c[todo] for c in columns), **controls)
        ratio[todo], err[todo] = res.ratio, res.err_estimate
        status[todo] = res.status
    return ratio, err


# Each target imports the routes of its own module only when it runs.
def _mirror_columns(cfg: SweepConfig, axis: str, xs: np.ndarray):
    from . import mirror as mirror_mod

    re_r, k0d, d = _cell_params(cfg, axis, xs)
    status = np.full(xs.size, "ok", dtype=object)
    want_closed = "closed" in cfg.routes()
    want_quad = "quadrature" in cfg.routes()
    closed = quad = np.full(xs.size, math.nan)
    closed_err = quad_err = np.zeros(xs.size)
    if want_closed:
        closed, closed_err = _run_route(
            status, mirror_mod.gamma_mirror_closed, re_r, k0d)
    if want_quad:
        quad, quad_err = _run_route(
            status, mirror_mod.gamma_mirror_quadrature, re_r, k0d,
            tol=cfg.tol)
    # a failed row reads nan in both ratio columns, wanted or not
    failed = status != "ok"
    both = want_closed and want_quad
    columns = [d, k0d, re_r,
               (closed, want_closed | failed),
               (quad, want_quad | failed),
               (np.abs(closed - quad), both & ~failed),
               closed_err + quad_err, cfg.method, status]
    return columns, int(np.count_nonzero(failed))


def _cavity_columns(cfg: SweepConfig, axis: str, xs: np.ndarray):
    from . import cavity as cavity_mod

    r, k0d, _ = _cell_params(cfg, axis, xs)
    status = np.full(xs.size, "ok", dtype=object)
    # each route with the cells it runs on and its controls, in the order
    # they run
    wanted = cfg.routes()
    routes = (
        (cavity_mod.gamma_cavity_quadrature, "quadrature" in wanted,
         {"tol": cfg.tol}),
        (cavity_mod.gamma_cavity_series, "series" in wanted,
         {"tail_tol": cfg.tail_tol}),
        (cavity_mod.gamma_subwavelength_2nd,
         ("limit" in wanted) & ~cavity_mod.past_second_order(r, k0d), {}))
    columns = [k0d, r]
    err = np.full(xs.size, -math.inf)
    applies = np.zeros(xs.size, dtype=bool)
    for route, cells, controls in routes:
        ratio, route_err = _run_route(status, route, r, k0d, mask=cells,
                                      **controls)
        columns.append((ratio, cells))
        err = np.maximum(err, np.where(cells, route_err, -math.inf))
        applies |= cells
    columns += [(err, applies), status, cfg.method]
    return columns, int(np.count_nonzero(status != "ok"))


_RATE_COLUMNS = {
    "mirror": (_mirror_columns,
               ["d_over_lambda0", "k0d", "re_r", "ratio_closed",
                "ratio_quadrature", "abs_diff", "err_estimate", "method",
                "status"]),
    "cavity": (_cavity_columns,
               ["k0d", "r_mir", "ratio_quadrature", "ratio_series",
                "ratio_limit_2nd", "err_estimate", "status", "method"]),
}


def _run_rate_sweep(cfg: SweepConfig, path: str) -> int:
    # every rate target but mirror is a cavity
    assemble, header = _RATE_COLUMNS[
        "mirror" if cfg.target == "mirror" else "cavity"]
    axis, xs = _axis_values(cfg)
    n_failed = 0
    with _csv_output(path, cfg, header) as write:
        for lo in range(0, xs.size, _BLOCK_ROWS):
            columns, failed = assemble(cfg, axis, xs[lo:lo + _BLOCK_ROWS])
            write(columns)
            n_failed += failed
    if n_failed:
        print(f"{n_failed} of {xs.size} cells failed; see status column "
              f"in {path}", file=sys.stderr)
        return 3
    return 0


def _run_lindblad(cfg: SweepConfig, path: str) -> int:
    from . import dynamics as dyn

    grid = cfg.t.values()
    params = dyn.ModelParams(g=cfg.g, kappa=cfg.kappa, gamma=cfg.gamma)
    gamma_cav = (cfg.gamma_cav if cfg.gamma_cav is not None
                 else dyn.effective_decay_rate(params))
    header = ["t", "pop_jc", "pop_single_rate", "pop_jump_mean",
              "pop_jump_stderr", "method", "status"]
    failure = None
    with _csv_output(path, cfg, header) as write:
        try:
            disc = dyn.model_discrepancy(params, gamma_cav, grid)
            ens = dyn.unravel_jumps(gamma_cav, np.diag([0.0, 1.0]),
                                    cfg.n_traj, cfg.seed, grid)
            columns = [grid, disc.pop_jc, disc.pop_single,
                       ens.excited_population, ens.stderr, "lindblad", "ok"]
        except InvalidParams as exc:
            failure = exc
            columns = [grid, "nan", "nan", "nan", "nan", "lindblad",
                       type(exc).__name__]
        for lo in range(0, grid.size, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            write([c if isinstance(c, str) else c[rows] for c in columns])
    if failure is not None:
        print(f"lindblad run failed: {failure}", file=sys.stderr)
        return 3
    return 0


def run(cfg: SweepConfig, path: str) -> int:
    """Run a checked config and write its CSV at path; returns exit code
    0 (all cells ok) or 3 (some cells failed; partial file still written).
    """
    if cfg.target == "lindblad":
        return _run_lindblad(cfg, path)
    return _run_rate_sweep(cfg, path)
