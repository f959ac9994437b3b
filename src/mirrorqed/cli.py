"""argparse front end: sweeps, figure data, model comparison, validation.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
non-convergence in at least one cell. Each data subcommand takes its help
line, its --method choices and its --grid axis from its entry in
sweeps.TARGETS. Flags override config-file values, and
sweeps.SweepConfig fills in its target's defaults for the rest; a flag
parses as its config key does (sweeps._PARSERS). --dump-config echoes
the fully resolved configuration without running. validate passes
--seed on only when it is given, so run_validation keeps the default.
Parsing imports no numpy (neither this module nor sweeps does), so
--help, --version and a usage error load none: numpy and the routes
load when a sweep, a figure or validate runs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, sweeps
from .errors import ConfigError, InvalidParams
from .sweeps import FIGURE_IDS, TARGETS, Range, SweepConfig

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output CSV path (default: "
                        f"<target>.csv under ${sweeps.OUTDIR_ENV} or cwd)")
    parser.add_argument("--seed", help="RNG seed recorded in output")
    parser.add_argument("--config", metavar="FILE",
                        help="key = value config file; flags override it")
    parser.add_argument("--dump-config", action="store_true", default=None,
                        help="print the resolved config and exit")


def _add_rate_flags(parser: argparse.ArgumentParser, methods) -> None:
    parser.add_argument("--r",
                        help="mirror reflection amplitude (number or range; "
                        "a negative range start needs --r=START:...)")
    parser.add_argument("--k0d",
                        help="separation times wavenumber (number or range; "
                        "a negative range start needs --k0d=START:...)")
    parser.add_argument("--d-over-lambda", dest="d_over_lambda0",
                        help="separation in wavelengths (number or range; "
                        "a negative range start needs --d-over-lambda=...)")
    parser.add_argument("--grid", help="start:stop:count[:log] sweep grid "
                        "for this target's default axis; write a negative "
                        "start as --grid=-0.5:0.5:3")
    parser.add_argument("--method", choices=methods,
                        help="which computation routes to run")
    parser.add_argument("--tol", help="quadrature tolerance")
    parser.add_argument("--tail-tol", dest="tail_tol",
                        help="series tail plus rounding bound; the series "
                        "sums the fewest passes that meet it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorqed",
        description="Decay rates of a dipole emitter near mirrors: closed "
                    "forms, quadrature oracle, reflection series, and "
                    "open-system dynamics.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, target in TARGETS.items():
        p = sub.add_parser(name, help=target.help)
        if target.routes:
            _add_rate_flags(p, target.methods)
            _add_common(p)

    # lindblad, the one target without routes, has flags of its own
    p = sub.choices["lindblad"]
    p.add_argument("--g", help="atom-cavity coupling rate")
    p.add_argument("--kappa", help="cavity decay rate")
    p.add_argument("--gamma", help="free atomic decay rate")
    p.add_argument("--gamma-cav", dest="gamma_cav",
                   help="single-rate model rate (default: adiabatic rate)")
    p.add_argument("--n-traj", dest="n_traj",
                   help="number of jump trajectories")
    p.add_argument("--grid", help="start:stop:count[:log] time grid")
    _add_common(p)

    p = sub.add_parser("figure", help="emit CSV data for a published figure")
    p.add_argument("figure_id", choices=FIGURE_IDS)
    p.add_argument("--out", help="output directory for the curve files")

    p = sub.add_parser("validate", help="run the self-check suite")
    p.add_argument("--inject-fault", dest="inject_fault", type=float,
                   default=0.0, metavar="EPS",
                   help="add EPS to the f kernel to demonstrate "
                        "oracle sensitivity")
    p.add_argument("--seed", help="seed for the stochastic checks")
    return parser


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
                  if k in sweeps._PARSERS and v is not None}
    grid = getattr(args, "grid", None)
    if grid is not None:
        axis = next(k for k, v in TARGETS[target].defaults.items()
                    if isinstance(v, Range))
        if axis in flag_items:
            raise ConfigError(
                f"--grid already sweeps {axis}; do not also pass --{axis}")
        flag_items[axis] = Range.parse(grid)
    items.update(flag_items)
    return sweeps.config_from_items(items)


def _dispatch(args: argparse.Namespace) -> int:
    # flags parse as their config keys do, but unstripped and with no "none"
    vars(args).update({k: sweeps._parse_field(k, v)
                       for k, v in vars(args).items()
                       if k in sweeps._PARSERS and isinstance(v, str)})
    command = args.command
    if command == "validate":
        from . import validation

        report = validation.run_validation(
            fault_injection=args.inject_fault,
            **({} if args.seed is None else {"seed": args.seed}))
        print(report.summary())
        return 0 if report.passed else 1
    if command == "figure":
        code = sweeps.reproduce_figure(args.figure_id, outdir=args.out)
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
