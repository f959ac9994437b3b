"""Parameter sweeps and figure-data reproduction with deterministic CSV.

A SweepConfig fully describes a run (target, grids, method, seed, ...).
Its canonical text form (dump_config) round-trips through
parse_config_items and is embedded as a '#' preamble in every CSV, so
any output file is self-describing and byte-reproducible.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import cavity as cavity_mod
from . import dynamics as dyn
from . import mirror as mirror_mod
from .errors import (ConfigError, DegenerateMirror, InvalidParams,
                     NonConvergence, TailTooLarge)
from .results import per_cell

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

TARGETS = ("mirror", "cavity", "subwavelength", "optical", "lindblad",
           "validate", "figure")

FIGURE_IDS = ("mirror_dielectric", "mirror_plasmonic",
              "subwl_dielectric_vs_r", "subwl_dielectric_vs_d",
              "subwl_plasmonic_vs_r", "subwl_plasmonic_vs_d")

OUTDIR_ENV = "MIRRORQED_OUTDIR"

_METHODS_BY_TARGET = {
    "mirror": ("closed", "quadrature", "all"),
    "cavity": ("quadrature", "series", "limit", "all"),
    "subwavelength": ("quadrature", "series", "limit", "all"),
    "optical": ("quadrature", "series", "all"),
    "lindblad": ("all",),
    "validate": ("all",),
    "figure": ("all",),
}


@dataclass(frozen=True)
class Range:
    """Inclusive numeric grid start..stop with count points."""

    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"scale must be linear or log, got {self.scale!r}")
        if self.count < 2:
            raise ConfigError(f"range count must be >= 2, got {self.count!r}")
        if not self.stop > self.start:
            raise ConfigError(
                f"range stop must exceed start, got {self.start!r}:{self.stop!r}")
        if self.scale == "log" and not self.start > 0.0:
            raise ConfigError("log range requires start > 0")

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
        return f"{self.start!r}:{self.stop!r}:{self.count}:{self.scale}"

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """Complete, dumpable description of one CLI run."""

    target: str
    figure: str | None = None
    r: float | Range | None = None
    k0d: float | Range | None = None
    d_over_lambda0: float | Range | None = None
    t: Range | None = None
    method: str = "all"
    tol: float = 1e-9
    max_evals: int = 40_000_000
    n_max: int | None = None
    tail_tol: float = 1e-8
    g: float = 1.0
    kappa: float = 20.0
    gamma: float = 1.0
    gamma_cav: float | None = None
    n_fock: int = 5
    dt: float | None = None
    n_traj: int = 1000
    seed: int = 12345
    out: str | None = None
    quick: bool = False

    def validate(self) -> None:
        """Raise ConfigError on any inconsistency; cheap, no computation."""
        if self.target not in TARGETS:
            raise ConfigError(f"unknown target {self.target!r}")
        if self.method not in _METHODS_BY_TARGET[self.target]:
            raise ConfigError(
                f"method {self.method!r} not available for target "
                f"{self.target!r}; choose from "
                f"{_METHODS_BY_TARGET[self.target]}")
        if self.target == "figure":
            if self.figure not in FIGURE_IDS:
                raise ConfigError(
                    f"figure id {self.figure!r} must be one of {FIGURE_IDS}")
        elif self.figure is not None:
            raise ConfigError("figure id is only valid for the figure target")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol!r}")
        if not self.tail_tol > 0.0:
            raise ConfigError(f"tail_tol must be positive, got {self.tail_tol!r}")
        if self.max_evals < 10_000:
            raise ConfigError(f"max_evals too small: {self.max_evals!r}")
        if self.n_max is not None and not (
                0 <= self.n_max <= cavity_mod._N_MAX_CAP):
            raise ConfigError(f"n_max must lie in [0, "
                              f"{cavity_mod._N_MAX_CAP}], got {self.n_max!r}")
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.n_fock < 1:
            raise ConfigError(f"n_fock must be >= 1, got {self.n_fock!r}")
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if self.kappa < 0.0 or self.gamma < 0.0:
            raise ConfigError("kappa and gamma must be >= 0")
        if self.gamma_cav is not None and self.gamma_cav < 0.0:
            raise ConfigError(f"gamma_cav must be >= 0, got {self.gamma_cav!r}")
        if self.k0d is not None and self.d_over_lambda0 is not None:
            raise ConfigError("k0d and d_over_lambda0 are mutually exclusive")
        n_ranges = sum(isinstance(v, Range)
                       for v in (self.r, self.k0d, self.d_over_lambda0))
        if n_ranges > 1:
            raise ConfigError("at most one of r/k0d/d_over_lambda0 may be a range")
        if self.t is not None:
            if self.target != "lindblad":
                raise ConfigError("t grid is only valid for the lindblad target")
            if self.t.start < 0.0:
                raise ConfigError("lindblad time grid must start at t >= 0")


_RANGE_FIELDS = {"r", "k0d", "d_over_lambda0"}
_FLOAT_FIELDS = {"tol", "tail_tol", "g", "kappa", "gamma"}
_OPT_FLOAT_FIELDS = {"gamma_cav", "dt"}
_INT_FIELDS = {"max_evals", "n_traj", "seed", "n_fock"}
_OPT_INT_FIELDS = {"n_max"}
_BOOL_FIELDS = {"quick"}
_STR_FIELDS = {"target", "method"}
_OPT_STR_FIELDS = {"figure", "out"}


def _dump_value(name: str, value) -> str:
    if value is None:
        return "none"
    if isinstance(value, Range):
        return value.dump()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in _RANGE_FIELDS or name == "t":
        if raw == "none":
            return None
        if ":" in raw:
            return Range.parse(raw)
        if name == "t":
            raise ConfigError("t must be a range start:stop:count[:log]")
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"bad number for {name}: {raw!r}") from None
    if name in _FLOAT_FIELDS or name in _OPT_FLOAT_FIELDS:
        if raw == "none" and name in _OPT_FLOAT_FIELDS:
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"bad number for {name}: {raw!r}") from None
    if name in _INT_FIELDS or name in _OPT_INT_FIELDS:
        if raw == "none" and name in _OPT_INT_FIELDS:
            return None
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"bad integer for {name}: {raw!r}") from None
    if name in _BOOL_FIELDS:
        if raw not in ("true", "false"):
            raise ConfigError(f"{name} must be true or false, got {raw!r}")
        return raw == "true"
    if name in _STR_FIELDS or name in _OPT_STR_FIELDS:
        if raw == "none" and name in _OPT_STR_FIELDS:
            return None
        return raw
    raise ConfigError(f"unknown config key {name!r}")


def dump_config(cfg: SweepConfig) -> str:
    """Canonical text form; parse_config_items inverts it exactly."""
    lines = [f"{f.name} = {_dump_value(f.name, getattr(cfg, f.name))}"
             for f in fields(SweepConfig)]
    return "\n".join(lines)


def parse_config_items(text: str) -> dict:
    """Parse key = value lines ('#' starts a comment) into field values."""
    known = {f.name for f in fields(SweepConfig)}
    items: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in known:
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


def _fmt(value) -> str:
    """Cell text: repr for floats keeps full precision and round-trips.

    float() first, so numpy scalars (np.float64 subclasses float) print
    as plain numbers, not as their numpy repr.
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _default_outdir() -> str:
    return os.environ.get(OUTDIR_ENV, "") or os.getcwd()


def _resolve_out(cfg: SweepConfig, default_name: str) -> str:
    if cfg.out:
        return cfg.out
    return os.path.join(_default_outdir(), default_name)


def _write_csv(path: str, cfg: SweepConfig, header: list[str],
               rows) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    lines = [f"# {line}" for line in dump_config(cfg).splitlines()]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _axis_values(cfg: SweepConfig):
    """Grid values plus the name of the swept axis ('' for a single row)."""
    for name in ("r", "k0d", "d_over_lambda0"):
        v = getattr(cfg, name)
        if isinstance(v, Range):
            return name, v.values()
    return "", np.array([0.0])


def _scalar(value, default):
    return default if value is None or isinstance(value, Range) else float(value)


def _cell_params(cfg: SweepConfig, axis: str, xs: np.ndarray):
    """(re_r, k0d, d_over_lambda0) columns over the grid points xs."""
    def column(value):
        return np.full(xs.shape, value)

    r = xs if axis == "r" else column(
        _scalar(cfg.r, -1.0 if cfg.target == "mirror" else 0.5))
    if axis == "d_over_lambda0":
        d = xs
        k0d = 2.0 * math.pi * d
    elif axis == "k0d":
        k0d = xs
        d = k0d / (2.0 * math.pi)
    elif cfg.d_over_lambda0 is not None:
        d = column(_scalar(cfg.d_over_lambda0, 1.0))
        k0d = 2.0 * math.pi * d
    else:
        k0d = column(_scalar(cfg.k0d, 1.0))
        d = k0d / (2.0 * math.pi)
    return r, k0d, d


_CELL_ERRORS = (NonConvergence, TailTooLarge, DegenerateMirror, InvalidParams)


def _run_route(status: np.ndarray, grid, *columns, mask=True):
    """One route over the cells (where mask holds) whose rows are still ok.

    ``grid`` takes column arrays and returns a RateGrid. Its statuses go
    into ``status`` in place, so the first route that fails on a row
    names it. Returns ratio and err_estimate over every row, nan where
    the route failed or did not run.
    """
    todo = (status == "ok") & mask
    ratio = np.full(status.size, math.nan)
    err = np.full(status.size, math.nan)
    if todo.any():
        res = grid(*(c[todo] for c in columns))
        ratio[todo], err[todo] = res.ratio, res.err_estimate
        status[todo] = res.status
    return ratio, err


def _shown(values: np.ndarray, show) -> list:
    """CSV cells of a column: its values, empty where show is false."""
    show = np.broadcast_to(show, values.shape)
    return [v if s else None for v, s in zip(values.tolist(), show.tolist())]


def _mirror_columns(cfg: SweepConfig, axis: str, xs: np.ndarray):
    re_r, k0d, d = _cell_params(cfg, axis, xs)
    status = np.full(xs.size, "ok", dtype=object)
    want_closed = cfg.method in ("closed", "all")
    want_quad = cfg.method in ("quadrature", "all")

    def quadrature(*cols):
        return per_cell(lambda r, k: mirror_mod.gamma_mirror_quadrature(
            r, k, tol=cfg.tol, max_evals=cfg.max_evals), "quadrature", *cols)

    closed = quad = np.full(xs.size, math.nan)
    closed_err = quad_err = np.zeros(xs.size)
    if want_closed:
        closed, closed_err = _run_route(
            status, mirror_mod.gamma_mirror_closed, re_r, k0d)
    if want_quad:
        quad, quad_err = _run_route(status, quadrature, re_r, k0d)
    # a failed row reads nan in both ratio columns, wanted or not
    failed = status != "ok"
    both = want_closed and want_quad
    columns = [d.tolist(), k0d.tolist(), re_r.tolist(),
               _shown(closed, want_closed | failed),
               _shown(quad, want_quad | failed),
               _shown(np.abs(closed - quad), both & ~failed),
               (closed_err + quad_err).tolist(),
               [cfg.method] * xs.size, status.tolist()]
    return columns, int(np.count_nonzero(failed))


def _cavity_columns(cfg: SweepConfig, axis: str, xs: np.ndarray):
    r, k0d, _ = _cell_params(cfg, axis, xs)
    status = np.full(xs.size, "ok", dtype=object)

    def quadrature(*cols):
        return per_cell(lambda r_mir, k: cavity_mod.gamma_cavity_quadrature(
            cavity_mod.CavitySpec(r_mir=r_mir, k0d=k), tol=cfg.tol,
            max_evals=cfg.max_evals), "quadrature", *cols)

    def series(*cols):
        return cavity_mod.gamma_cavity_series(
            cols, cavity_mod.SeriesControl(n_max=cfg.n_max,
                                           tail_tol=cfg.tail_tol))

    # each route with the cells it runs on, in the order they run
    routes = (
        (quadrature, cfg.method in ("quadrature", "all")),
        (series, cfg.method in ("series", "all")),
        (cavity_mod.gamma_subwavelength_2nd,
         (cfg.method in ("limit", "all") and cfg.target != "optical")
         & (k0d <= cavity_mod.SUBWAVELENGTH_SOFT_MAX)))
    columns = [k0d.tolist(), r.tolist()]
    err = np.full(xs.size, -math.inf)
    applies = np.zeros(xs.size, dtype=bool)
    for grid, cells in routes:
        ratio, route_err = _run_route(status, grid, r, k0d, mask=cells)
        columns.append(_shown(ratio, cells))
        err = np.maximum(err, np.where(cells, route_err, -math.inf))
        applies |= cells
    columns += [_shown(err, applies), status.tolist(),
                [cfg.method] * xs.size]
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
_RATE_COLUMNS["subwavelength"] = _RATE_COLUMNS["cavity"]
_RATE_COLUMNS["optical"] = _RATE_COLUMNS["cavity"]


def _run_rate_sweep(cfg: SweepConfig, path: str) -> int:
    assemble, header = _RATE_COLUMNS[cfg.target]
    axis, xs = _axis_values(cfg)
    if cfg.quick and xs.size > 25:
        xs = xs[:: max(1, xs.size // 25)]
    columns, n_failed = assemble(cfg, axis, xs)
    _write_csv(path, cfg, header, zip(*columns))
    if n_failed:
        print(f"{n_failed} of {xs.size} cells failed; see status column "
              f"in {path}", file=sys.stderr)
        return 3
    return 0


def _run_lindblad(cfg: SweepConfig, path: str) -> int:
    grid = (cfg.t or Range(0.0, 3.0, 31)).values()
    n_traj = cfg.n_traj
    if cfg.quick:
        grid = grid[:: max(1, grid.size // 11)]
        n_traj = min(n_traj, 200)
    params = dyn.ModelParams(g=cfg.g, kappa=cfg.kappa, gamma=cfg.gamma)
    gamma_cav = (cfg.gamma_cav if cfg.gamma_cav is not None
                 else dyn.effective_decay_rate(params))
    header = ["t", "pop_jc", "pop_single_rate", "pop_jump_mean",
              "pop_jump_stderr", "method", "status"]
    try:
        disc = dyn.model_discrepancy(params, gamma_cav, grid)
        ens = dyn.unravel_jumps(gamma_cav, np.diag([0.0, 1.0]), n_traj,
                                cfg.seed, grid)
    except _CELL_ERRORS as exc:
        rows = [[t, math.nan, math.nan, math.nan, math.nan, "lindblad",
                 type(exc).__name__] for t in grid]
        _write_csv(path, cfg, header, rows)
        print(f"lindblad run failed: {exc}", file=sys.stderr)
        return 3
    rows = [[float(t), float(pj), float(ps), float(pm), float(pe),
             "lindblad", "ok"]
            for t, pj, ps, pm, pe in zip(grid, disc.pop_jc, disc.pop_single,
                                         ens.excited_population, ens.stderr)]
    _write_csv(path, cfg, header, rows)
    return 0


def output_path(cfg: SweepConfig) -> str:
    """Where run_sweep will write: cfg.out, or target.csv in the outdir."""
    return _resolve_out(cfg, f"{cfg.target}.csv")


def run_sweep(cfg: SweepConfig) -> int:
    """Run one data-producing target and write its CSV; returns exit code
    0 (all cells ok) or 3 (some cells failed; partial file still written).
    """
    cfg.validate()
    if cfg.target in _RATE_COLUMNS:
        return _run_rate_sweep(cfg, output_path(cfg))
    if cfg.target == "lindblad":
        return _run_lindblad(cfg, output_path(cfg))
    raise ConfigError(f"run_sweep does not handle target {cfg.target!r}")


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def _figure_curves(figure_id: str, quick: bool):
    """(curve label, SweepConfig) pairs reproducing each published curve."""
    def npts(n):
        return min(51, n) if quick else n

    curves = []
    if figure_id in ("mirror_dielectric", "mirror_plasmonic"):
        rs = ((-1.0, -0.8, -0.6, -0.4, -0.2)
              if figure_id == "mirror_dielectric" else
              (0.2, 0.4, 0.6, 0.8, 1.0))
        grid = Range(0.0, 2.0, npts(401))
        for r in rs:
            curves.append((f"r{r:+.2f}", SweepConfig(
                target="mirror", r=r, d_over_lambda0=grid, method="closed")))
    elif figure_id in ("subwl_dielectric_vs_r", "subwl_plasmonic_vs_r"):
        r_grid = (Range(-1.0, 0.0, npts(201))
                  if figure_id == "subwl_dielectric_vs_r"
                  else Range(0.0, 0.99, npts(199)))
        for k0d in (0.001, 0.05, 0.1):
            curves.append((f"k0d{k0d:g}", SweepConfig(
                target="subwavelength", r=r_grid, k0d=k0d, method="limit")))
    elif figure_id == "subwl_dielectric_vs_d":
        for r in (-0.9, -0.7, -0.5, -0.3):
            curves.append((f"r{r:+.2f}", SweepConfig(
                target="subwavelength", r=r,
                k0d=Range(1e-4, 0.3, npts(200)), method="limit")))
    elif figure_id == "subwl_plasmonic_vs_d":
        for r in (0.3, 0.5, 0.7, 0.9):
            curves.append((f"r{r:+.2f}", SweepConfig(
                target="subwavelength", r=r,
                k0d=Range(1e-4, 0.12, npts(240)), method="limit")))
    else:
        raise ConfigError(f"unknown figure id {figure_id!r}")
    return curves


def reproduce_figure(figure_id: str, outdir: str | None = None,
                     quick: bool = False) -> int:
    """Emit one CSV per curve of the named figure plus a manifest file."""
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"figure id {figure_id!r} must be one of {FIGURE_IDS}")
    base = outdir or os.path.join(_default_outdir(), figure_id)
    os.makedirs(base, exist_ok=True)
    manifest = [f"figure {figure_id}"]
    worst = 0
    for label, cfg in _figure_curves(figure_id, quick):
        path = os.path.join(base, f"{figure_id}_{label}.csv")
        code = run_sweep(replace(cfg, out=path, quick=False))
        worst = max(worst, code)
        manifest.append(f"{os.path.basename(path)}: {label} "
                        f"target={cfg.target} method={cfg.method}")
    with open(os.path.join(base, "manifest.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(manifest) + "\n")
    return worst
