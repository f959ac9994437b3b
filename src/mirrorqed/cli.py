"""argparse front end: sweeps, figure data, model comparison, validation.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
non-convergence in at least one cell. Flags override config-file values;
--dump-config echoes the fully resolved configuration without running.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import __version__, sweeps, validation
from .errors import ConfigError, InvalidParams
from .sweeps import FIGURE_IDS, Range, SweepConfig

__all__ = ["main"]

_DEFAULT_AXIS = {
    "mirror": "d_over_lambda0",
    "cavity": "k0d",
    "subwavelength": "r",
    "optical": "k0d",
    "lindblad": "t",
}

_TARGET_DEFAULTS = {
    "mirror": {"r": -1.0, "d_over_lambda0": Range(0.01, 3.0, 101)},
    "cavity": {"r": 0.5, "k0d": Range(0.01, 20.0, 200)},
    "subwavelength": {"r": Range(-0.99, 0.99, 199), "k0d": 0.01},
    "optical": {"r": 0.8, "method": "quadrature",
                "k0d": Range(20.0 * math.pi, 50.0 * math.pi, 25)},
    "lindblad": {"t": Range(0.0, 3.0, 31)},
}

_SEPARATION_AXES = {"k0d", "d_over_lambda0"}
_AXIS_FLAGS = {"r": "--r", "k0d": "--k0d",
               "d_over_lambda0": "--d-over-lambda"}

_VALIDATE_SEED = 20260819


def _float_or_range(text: str):
    if ":" in text:
        try:
            return Range.parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or start:stop:count[:log], got {text!r}"
        ) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output CSV path (default: "
                        f"<target>.csv under ${sweeps.OUTDIR_ENV} or cwd)")
    parser.add_argument("--seed", type=int, help="RNG seed recorded in output")
    parser.add_argument("--quick", action="store_true", default=None,
                        help="thin grids for a fast smoke run")
    parser.add_argument("--config", metavar="FILE",
                        help="key = value config file; flags override it")
    parser.add_argument("--dump-config", action="store_true", default=None,
                        help="print the resolved config and exit")


def _add_rate_flags(parser: argparse.ArgumentParser, methods) -> None:
    parser.add_argument("--r", type=_float_or_range,
                        help="mirror reflection amplitude (number or range)")
    parser.add_argument("--k0d", type=_float_or_range,
                        help="separation times wavenumber (number or range)")
    parser.add_argument("--d-over-lambda", dest="d_over_lambda0",
                        type=_float_or_range,
                        help="separation in wavelengths (number or range)")
    parser.add_argument("--grid", help="start:stop:count[:log] sweep grid "
                        "for this target's default axis")
    parser.add_argument("--method", choices=methods,
                        help="which computation routes to run")
    parser.add_argument("--tol", type=float, help="quadrature tolerance")
    parser.add_argument("--max-evals", dest="max_evals", type=int,
                        help="quadrature evaluation budget per cell")
    parser.add_argument("--n-max", dest="n_max", type=int,
                        help="series truncation order (default: automatic)")
    parser.add_argument("--tail-tol", dest="tail_tol", type=float,
                        help="series tail bound tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorqed",
        description="Decay rates of a dipole emitter near mirrors: closed "
                    "forms, quadrature oracle, reflection series, and "
                    "open-system dynamics.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mirror", help="single-mirror decay ratio sweep")
    _add_rate_flags(p, ("closed", "quadrature", "all"))
    _add_common(p)

    p = sub.add_parser("cavity", help="two-mirror decay ratio sweep")
    _add_rate_flags(p, ("quadrature", "series", "limit", "all"))
    _add_common(p)

    p = sub.add_parser("subwavelength",
                       help="small-separation cavity limits sweep")
    _add_rate_flags(p, ("quadrature", "series", "limit", "all"))
    _add_common(p)

    p = sub.add_parser("optical", help="large-separation cavity sweep")
    _add_rate_flags(p, ("quadrature", "series", "all"))
    _add_common(p)

    p = sub.add_parser("lindblad",
                       help="master-equation and quantum-jump comparison")
    p.add_argument("--g", type=float, help="atom-cavity coupling rate")
    p.add_argument("--kappa", type=float, help="cavity decay rate")
    p.add_argument("--gamma", type=float, help="free atomic decay rate")
    p.add_argument("--gamma-cav", dest="gamma_cav", type=float,
                   help="single-rate model rate (default: adiabatic rate)")
    p.add_argument("--n-fock", dest="n_fock", type=int,
                   help="accepted for old configs; the one-excitation "
                        "form has no truncation, so it changes nothing")
    p.add_argument("--dt", type=float,
                   help="accepted for old configs; the exact propagator "
                        "has no step, so it changes nothing")
    p.add_argument("--n-traj", dest="n_traj", type=int,
                   help="number of jump trajectories")
    p.add_argument("--grid", help="start:stop:count[:log] time grid")
    _add_common(p)

    p = sub.add_parser("figure", help="emit CSV data for a published figure")
    p.add_argument("figure_id", choices=FIGURE_IDS)
    p.add_argument("--out", help="output directory for the curve files")
    p.add_argument("--quick", action="store_true", default=None,
                   help="thin grids for a fast smoke run")

    p = sub.add_parser("validate", help="run the self-check suite")
    p.add_argument("--quick", action="store_true", default=None,
                   help="reduced battery, well under 30 s")
    p.add_argument("--inject-fault", dest="inject_fault", type=float,
                   default=0.0, metavar="EPS",
                   help="add EPS to the f kernel to demonstrate "
                        "oracle sensitivity")
    p.add_argument("--seed", type=int, default=_VALIDATE_SEED,
                   help="seed for the stochastic checks")
    return parser


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(SweepConfig))


def _collect_config(args: argparse.Namespace, target: str) -> SweepConfig:
    items: dict = {"target": target}
    if getattr(args, "config", None):
        file_items = sweeps.parse_config_file(args.config)
        file_target = file_items.pop("target", None)
        if file_target is not None and file_target != target:
            raise ConfigError(
                f"config file targets {file_target!r}, but the "
                f"{target!r} subcommand was invoked")
        items.update(file_items)

    flag_items = {k: v for k, v in vars(args).items()
                  if k in _CONFIG_KEYS and k != "target" and v is not None}
    grid = getattr(args, "grid", None)
    if grid is not None:
        axis = _DEFAULT_AXIS[target]
        if axis in flag_items:
            raise ConfigError(
                f"--grid already sweeps {axis}; do not also pass --{axis}")
        flag_items[axis] = Range.parse(grid)
    items.update(flag_items)

    # a separation the user names replaces the target's default one; a
    # default that is a range has no single value to fall back on when
    # the user sweeps another axis
    named = set(items) & _SEPARATION_AXES
    swept = [k for k in _AXIS_FLAGS if isinstance(items.get(k), Range)]
    for key, value in _TARGET_DEFAULTS.get(target, {}).items():
        if key in items or (key in _SEPARATION_AXES and named):
            continue
        if key in _AXIS_FLAGS and isinstance(value, Range) and swept:
            raise ConfigError(
                f"{target} sweeps {key} by default; to sweep {swept[0]} "
                f"instead, give a single value with {_AXIS_FLAGS[key]}")
        items[key] = value
    return sweeps.config_from_items(items)


def _dispatch(args: argparse.Namespace) -> int:
    command = args.command
    if command == "validate":
        report = validation.run_validation(
            quick=bool(args.quick), fault_injection=args.inject_fault,
            seed=args.seed)
        print(report.summary())
        return 0 if report.passed else 1
    if command == "figure":
        code = sweeps.reproduce_figure(args.figure_id, outdir=args.out,
                                       quick=bool(args.quick))
        print(f"figure data written for {args.figure_id}")
        return code

    cfg = _collect_config(args, command)
    if getattr(args, "dump_config", None):
        print(sweeps.dump_config(cfg))
        return 0
    code = sweeps.run_sweep(cfg)
    path = sweeps.output_path(cfg)
    note = "" if code == 0 else " (some cells failed; see status column)"
    print(f"wrote {path}{note}")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidParams as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
