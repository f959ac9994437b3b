"""Parameter sweeps and figure-data reproduction with deterministic CSV.

A SweepConfig fully describes a run (target, grids, method, seed, ...).
Its canonical text form (dump_config) round-trips through
parse_config_items and is embedded as a '#' preamble in every CSV, so
any output file is self-describing and byte-reproducible.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import cavity as cavity_mod
from . import geometry
from . import mirror as mirror_mod
from .errors import (MAX_TRAJECTORIES, MEMORY_BUDGET_BYTES, ConfigError,
                     InvalidParams, integer, real)

__all__ = [
    "Range",
    "SweepConfig",
    "TARGETS",
    "FIGURE_IDS",
    "OUTDIR_ENV",
    "parse_config_file",
    "parse_config_items",
    "dump_config",
    "run_sweep",
    "reproduce_figure",
]

FIGURE_IDS = ("mirror_dielectric", "mirror_plasmonic",
              "subwl_dielectric_vs_r", "subwl_dielectric_vs_d",
              "subwl_plasmonic_vs_r", "subwl_plasmonic_vs_d")

OUTDIR_ENV = "MIRRORQED_OUTDIR"

# A grid point is priced at 1 KiB of the memory budget: tracemalloc
# measures 8 B per point of a rate sweep's axis (besides 2-6 MiB for one
# block) and about 0.2 KiB per point of a lindblad time grid. The cap
# also bounds the length, so the run time, of a rate sweep.
_MAX_GRID_POINTS = MEMORY_BUDGET_BYTES // 1024


@contextlib.contextmanager
def _config_errors():
    """An InvalidParams of the input gate, raised as a ConfigError."""
    try:
        yield
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class Range:
    """Inclusive numeric grid start..stop with count points."""

    start: float
    stop: float
    count: int
    scale: str = "linear"

    @_config_errors()
    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"scale must be linear or log, got {self.scale!r}")
        integer(self.count, "range count", 2, _MAX_GRID_POINTS)
        # finite and positive, so linspace never starts at nan
        real(real(self.stop, "range stop", finite=False)
             - real(self.start, "range start", finite=False),
             "range span stop - start", 0.0, strict=True,
             domain="finite and positive")
        if self.scale == "log":
            real(self.start, "log range start", 0.0, strict=True)

    @classmethod
    def parse(cls, text: str) -> "Range":
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"range must be start:stop:count[:log|:linear], got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad range {text!r}: {exc}") from None
        scale = parts[3] if len(parts) == 4 else "linear"
        return cls(start=start, stop=stop, count=count, scale=scale)

    def dump(self) -> str:
        return ":".join([*map(_dump_value, (self.start, self.stop,
                                            self.count)), self.scale])

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class _Target:
    """What one data target runs.

    ``routes`` are the methods it accepts besides "all", which runs every
    one of them; ``defaults`` holds the value of each key left unset.
    """

    help: str
    routes: tuple[str, ...]
    defaults: dict

    @property
    def methods(self) -> tuple[str, ...]:
        return (*self.routes, "all")


# What each target runs, stated once: the CLI builds its subcommands,
# their help lines and --method choices from this table. The routes are in
# the order of their CSV columns; optical has no second-order (limit) route,
# and lindblad runs its two models with no route to choose. Of the
# defaults, a k0d or d_over_lambda0 that is given replaces the default
# separation, and the one Range-valued default is the grid axis, which
# --grid sweeps; to sweep another axis (_AXIS_FLAGS), give the grid axis a
# single value. The method is "all" unless named.
TARGETS = {
    "mirror": _Target("single-mirror decay ratio sweep",
                      ("closed", "quadrature"),
                      {"r": -1.0, "d_over_lambda0": Range(0.01, 3.0, 101)}),
    "cavity": _Target("two-mirror decay ratio sweep",
                      ("quadrature", "series", "limit"),
                      {"r": 0.5, "k0d": Range(0.01, 20.0, 200)}),
    "subwavelength": _Target("small-separation cavity limits sweep",
                             ("quadrature", "series", "limit"),
                             {"r": Range(-0.99, 0.99, 199), "k0d": 0.01}),
    "optical": _Target("large-separation cavity sweep",
                       ("quadrature", "series"),
                       {"r": 0.8, "method": "quadrature",
                        "k0d": Range(20.0 * math.pi, 50.0 * math.pi, 25)}),
    "lindblad": _Target("master-equation and quantum-jump comparison", (),
                        {"t": Range(0.0, 3.0, 31)}),
}
_SEPARATION_AXES = ("k0d", "d_over_lambda0")
_AXIS_FLAGS = {"r": "--r", "k0d": "--k0d", "d_over_lambda0": "--d-over-lambda"}


@dataclass(frozen=True)
class SweepConfig:
    """Complete, dumpable description of one run.

    Keys left unset (None) take the target's TARGETS defaults when built:
    a config built in Python runs, and its preamble records, what the
    subcommand runs. The series has one control, tail_tol: the order it
    sums is derived from it (cavity.default_n_max). The quadrature has
    one, tol: every cell runs at the default evaluation budget,
    geometry.DEFAULT_MAX_EVALS.
    """

    target: str
    r: float | Range | None = None
    k0d: float | Range | None = None
    d_over_lambda0: float | Range | None = None
    t: Range | None = None
    method: str | None = None
    tol: float = geometry.DEFAULT_TOL
    tail_tol: float = cavity_mod.DEFAULT_TAIL_TOL
    g: float = 1.0
    kappa: float = 20.0
    gamma: float = 1.0
    gamma_cav: float | None = None
    n_traj: int = 1000
    seed: int = 12345
    out: str | None = None

    def __post_init__(self):
        target = TARGETS.get(self.target)
        defaults = {"method": "all", **(target.defaults if target else {})}
        named = any(getattr(self, k) is not None for k in _SEPARATION_AXES)
        swept = [k for k in _AXIS_FLAGS if isinstance(getattr(self, k), Range)]
        for key, value in defaults.items():
            if getattr(self, key) is not None or (
                    key in _SEPARATION_AXES and named):
                continue
            if key in _AXIS_FLAGS and isinstance(value, Range) and swept:
                raise ConfigError(
                    f"{self.target} sweeps {key} by default; to sweep "
                    f"{swept[0]} instead, give a single value with "
                    f"{_AXIS_FLAGS[key]}")
            object.__setattr__(self, key, value)

    @_config_errors()
    def validate(self) -> None:
        """Raise ConfigError on any inconsistency; cheap, no computation."""
        if self.target not in TARGETS:
            raise ConfigError(f"unknown target {self.target!r}")
        methods = TARGETS[self.target].methods
        if self.method not in methods:
            raise ConfigError(
                f"method {self.method!r} not available for target "
                f"{self.target!r}; choose from {methods}")
        real(self.tol, "tol", geometry.ERR_FLOOR, finite=False, domain=f">= "
             f"{geometry.ERR_FLOOR:g}, the quadrature's error floor")
        real(self.tail_tol, "tail_tol", 0.0, strict=True)
        for name, lo in (("g", -math.inf), ("kappa", 0.0),
                         ("gamma", 0.0), ("gamma_cav", 0.0)):
            if name != "gamma_cav" or self.gamma_cav is not None:
                real(getattr(self, name), name, lo)
        integer(self.n_traj, "n_traj", 1, MAX_TRAJECTORIES)
        integer(self.seed, "seed", 0)
        for name in ("r", "k0d", "d_over_lambda0"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Range):
                real(value, name)
        if self.k0d is not None and self.d_over_lambda0 is not None:
            raise ConfigError("k0d and d_over_lambda0 are mutually exclusive")
        n_ranges = sum(isinstance(v, Range)
                       for v in (self.r, self.k0d, self.d_over_lambda0))
        if n_ranges > 1:
            raise ConfigError("at most one of r/k0d/d_over_lambda0 may be a range")
        if self.t is not None:
            if self.target != "lindblad":
                raise ConfigError("t grid is only valid for the lindblad target")
            if not isinstance(self.t, Range):
                raise ConfigError(f"t must be a Range, got {self.t!r}")
            if self.t.start < 0.0:
                raise ConfigError("lindblad time grid must start at t >= 0")
        if self.out is not None:
            try:
                recorded = parse_config_items(f"out = {self.out}").get("out")
            except ConfigError:
                recorded = None
            if recorded != str(self.out):
                raise ConfigError(
                    f"out {self.out!r} would not read back from the CSV "
                    "preamble: avoid '#' after whitespace, surrounding "
                    "whitespace, line breaks and the name none")

    def routes(self) -> tuple[str, ...]:
        """The routes the method names: one, or all of the target's."""
        return (TARGETS[self.target].routes if self.method == "all"
                else (self.method,))


def _float_or_range(raw: str):
    try:
        return Range.parse(raw) if ":" in raw else float(raw)
    except ValueError as exc:
        raise ValueError(f"expected a number or start:stop:count[:log], "
                         f"got {raw!r} ({exc})") from None


# how each field's text is parsed, in config text and in CLI flags
_PARSERS = {
    "target": str, "r": _float_or_range, "k0d": _float_or_range,
    "d_over_lambda0": _float_or_range, "t": Range.parse, "method": str,
    "tol": float, "tail_tol": float,
    "g": float, "kappa": float, "gamma": float, "gamma_cav": float,
    "n_traj": int, "seed": int, "out": str,
}
# config text reads "none" as unset, except for method, which always resolves
_NONE_FIELDS = {f.name for f in fields(SweepConfig)
                if f.default is None} - {"method"}


def _dump_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, Range):
        return value.dump()
    if isinstance(value, (float, np.floating)):  # numpy's as plain numbers
        return repr(float(value))
    return str(value)


def _parse_field(name: str, raw: str):
    try:
        return _PARSERS[name](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None


def _parse_value(name: str, raw: str):
    """Config text: stripped, "none" read as unset (flags skip both)."""
    raw = raw.strip()
    if raw == "none" and name in _NONE_FIELDS:
        return None
    return _parse_field(name, raw)


def dump_config(cfg: SweepConfig) -> str:
    """Canonical text form; parse_config_items inverts it exactly."""
    lines = [f"{f.name} = {_dump_value(getattr(cfg, f.name))}"
             for f in fields(SweepConfig)]
    return "\n".join(lines)


def parse_config_items(text: str) -> dict:
    """Parse key = value lines into field values.

    A '#' at line start or after whitespace starts a comment.
    """
    items: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        items[key] = _parse_value(key, raw)
    return items


def parse_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_items(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None


def config_from_items(items: dict) -> SweepConfig:
    if "target" not in items:
        raise ConfigError("config must define a target")
    cfg = SweepConfig(**items)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _default_outdir() -> str:
    return os.environ.get(OUTDIR_ENV, "") or os.getcwd()


def _resolve_out(cfg: SweepConfig, default_name: str) -> str:
    if cfg.out:
        return cfg.out
    return os.path.join(_default_outdir(), default_name)


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
def _output_file(path: str):
    """path opened for writing text, its directory made first.

    An OSError on the way, making the directory, opening or writing, is
    a ConfigError: the output path cannot be written.
    """
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from None


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


def _mirror_columns(cfg: SweepConfig, axis: str, xs: np.ndarray):
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


def output_path(cfg: SweepConfig) -> str:
    """Where run_sweep will write: cfg.out, or target.csv in the outdir."""
    return _resolve_out(cfg, f"{cfg.target}.csv")


def run_sweep(cfg: SweepConfig) -> int:
    """Run one data-producing target and write its CSV; returns exit code
    0 (all cells ok) or 3 (some cells failed; partial file still written).
    """
    cfg.validate()
    if cfg.target == "lindblad":
        return _run_lindblad(cfg, output_path(cfg))
    return _run_rate_sweep(cfg, output_path(cfg))


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def _figure_curves(figure_id: str):
    """(curve label, SweepConfig) pairs reproducing each published curve."""
    curves = []
    if figure_id in ("mirror_dielectric", "mirror_plasmonic"):
        rs = ((-1.0, -0.8, -0.6, -0.4, -0.2)
              if figure_id == "mirror_dielectric" else
              (0.2, 0.4, 0.6, 0.8, 1.0))
        grid = Range(0.0, 2.0, 401)
        for r in rs:
            curves.append((f"r{r:+.2f}", SweepConfig(
                target="mirror", r=r, d_over_lambda0=grid, method="closed")))
    elif figure_id in ("subwl_dielectric_vs_r", "subwl_plasmonic_vs_r"):
        r_grid = (Range(-1.0, 0.0, 201)
                  if figure_id == "subwl_dielectric_vs_r"
                  else Range(0.0, 0.99, 199))
        for k0d in (0.001, 0.05, 0.1):
            curves.append((f"k0d{k0d:g}", SweepConfig(
                target="subwavelength", r=r_grid, k0d=k0d, method="limit")))
    elif figure_id == "subwl_dielectric_vs_d":
        for r in (-0.9, -0.7, -0.5, -0.3):
            curves.append((f"r{r:+.2f}", SweepConfig(
                target="subwavelength", r=r,
                k0d=Range(1e-4, 0.3, 200), method="limit")))
    elif figure_id == "subwl_plasmonic_vs_d":
        for r in (0.3, 0.5, 0.7, 0.9):
            curves.append((f"r{r:+.2f}", SweepConfig(
                target="subwavelength", r=r,
                k0d=Range(1e-4, 0.12, 240), method="limit")))
    else:
        raise ConfigError(f"unknown figure id {figure_id!r}")
    return curves


def reproduce_figure(figure_id: str, outdir: str | None = None) -> int:
    """Emit one CSV per curve of the named figure plus a manifest file."""
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"figure id {figure_id!r} must be one of {FIGURE_IDS}")
    base = outdir or os.path.join(_default_outdir(), figure_id)
    manifest = [f"figure {figure_id}"]
    worst = 0
    for label, cfg in _figure_curves(figure_id):
        path = os.path.join(base, f"{figure_id}_{label}.csv")
        code = run_sweep(replace(cfg, out=path))
        worst = max(worst, code)
        manifest.append(f"{os.path.basename(path)}: {label} "
                        f"target={cfg.target} method={cfg.method}")
    with _output_file(os.path.join(base, "manifest.txt")) as fh:
        fh.write("\n".join(manifest) + "\n")
    return worst
