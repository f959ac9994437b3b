"""Traced in-process run of one workload: spans per layer, per-layer metrics.

Run as a fresh interpreter (``python3 perfbench/traced_run.py --workload W
--seed S --out DIR``) so that the first thing it does is time the import
of ``mirrorqed.cli``. It then calls ``mirrorqed.cli.main`` on the
workload's arguments three times: untraced, then with the public
functions of each module wrapped so that every call records a span, then
untraced again. Spans stay in
memory, one stack per thread (sweep cells run in pool threads), and are
written to ``DIR/spans.jsonl`` at the end together with ``DIR/trace.json``,
which holds the per-layer metrics, the exit codes and the tracing
overhead (traced wall time minus the mean untraced wall time).

Span fields: id, parent (the enclosing span in the same thread, or the
running sweep for a pool thread), sweep (the enclosing
``sweeps.run_sweep`` span), thread, name, tag (regime or model), start
and end in ns, and a count (elements, evaluations, trajectories, ...).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import mirrorqed.cli  # noqa: E402  (timed: the import a user pays)
IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from metrics import PER_LAYER, REGIMES  # noqa: E402

_ROUTES = ("mirror.gamma_mirror_closed", "mirror.gamma_mirror_quadrature",
           "cavity.gamma_cavity_quadrature", "cavity.gamma_cavity_series",
           "cavity.gamma_subwavelength_2nd")
_RATE_TARGETS = ("mirror", "cavity", "subwavelength", "optical")


class Span:
    __slots__ = ("sid", "parent", "sweep", "thread", "name", "tag", "t0",
                 "t1", "count", "levels", "last")

    def __init__(self, sid, parent, sweep, thread, name, tag):
        self.sid, self.parent, self.sweep = sid, parent, sweep
        self.thread, self.name, self.tag = thread, name, tag
        self.t0 = self.t1 = 0
        self.count = self.levels = self.last = 0

    @property
    def ns(self) -> int:
        return self.t1 - self.t0

    def record(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _size(x) -> int:
    return int(np.size(x))


def _model_tag(params) -> str:
    key = (params.g, params.kappa, params.gamma)
    for name, model in workloads.LINDBLAD_MODELS.items():
        if key == model:
            return name
    return ""


class Tracer:
    """Wraps module attributes as the program looks them up."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tag = ""
        self.sweep = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.sweep_cells: dict[int, int] = {}
        self.sweep_bytes: dict[int, tuple[int, int]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, tag: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1].sid if stack else self.sweep
        span = Span(next(self._ids), parent, self.sweep,
                    threading.get_ident(), name,
                    self.tag if tag is None else tag)
        stack.append(span)
        self.spans.append(span)
        span.t0 = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter_ns()
        self._stack().pop()
        if self.sweep == span.sid:
            self.sweep = None

    def _wrap(self, module, attr: str, name: str, before=None, after=None,
              tag=None):
        fn = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name, tag(*args, **kwargs) if tag else None)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
                span.t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, kwargs, out)
            return out

        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        mod = importlib.import_module
        cli, sweeps = mod("mirrorqed.cli"), mod("mirrorqed.sweeps")
        kernels, geometry = mod("mirrorqed.kernels"), mod("mirrorqed.geometry")
        mirror, cavity = mod("mirrorqed.mirror"), mod("mirrorqed.cavity")
        freespace = mod("mirrorqed.freespace")
        dynamics = mod("mirrorqed.dynamics")
        validation = mod("mirrorqed.validation")

        def count_arg(index):
            def before(span, args, kwargs):
                span.count = _size(args[index])
                return args, kwargs
            return before

        def count_integrand(span, args, kwargs):
            integrand = args[0]

            def counted(theta, phi):
                vals = integrand(theta, phi)
                span.last = int(np.size(vals))
                span.count += span.last
                span.levels += 1
                return vals
            return (counted, *args[1:]), kwargs

        def count_weights(span, args, kwargs):
            span.count = int(np.broadcast(args[1], args[2]).size)
            return args, kwargs

        def sweep_before(span, args, kwargs):
            self.sweep = span.sid
            return args, kwargs

        def sweep_after(span, args, kwargs, out):
            cfg = args[0]
            cells = _cells(cfg)
            path = sweeps.output_path(cfg)
            size = os.path.getsize(path) if os.path.exists(path) else 0
            self.sweep_cells[span.sid] = (cells if cfg.target in _RATE_TARGETS
                                          else 0)
            self.sweep_bytes[span.sid] = (size, cells)

        def outputs(span, args, kwargs):
            span.count = _size(args[2] if len(args) > 2 else kwargs["t_grid"])
            return args, kwargs

        def trajectories(span, args, kwargs):
            span.count = int(args[2] if len(args) > 2 else kwargs["n_traj"])
            return args, kwargs

        def result_bytes(span, args, kwargs, out):
            span.count = int(out.times.nbytes + out.rhos.nbytes)

        w = self._wrap
        w(cli, "main", "cli.main")
        w(sweeps, "run_sweep", "sweeps.run_sweep", sweep_before, sweep_after)
        w(validation, "run_validation", "validation.run_validation")
        w(mirror, "gamma_mirror_closed", "mirror.gamma_mirror_closed")
        w(mirror, "gamma_mirror_quadrature", "mirror.gamma_mirror_quadrature")
        w(cavity, "gamma_cavity_quadrature", "cavity.gamma_cavity_quadrature")
        w(cavity, "gamma_cavity_series", "cavity.gamma_cavity_series")
        w(cavity, "gamma_subwavelength_2nd", "cavity.gamma_subwavelength_2nd")
        w(cavity, "interference_kernel", "kernels.interference_kernel",
          count_arg(1))
        w(kernels, "f_kernel", "kernels.f_kernel", count_arg(0))
        w(geometry, "solid_angle_integrate", "geometry.solid_angle_integrate",
          count_integrand)
        w(geometry, "transverse_weight_sum", "geometry.transverse_weight_sum",
          count_weights)
        w(freespace, "gamma_free_quadrature",
          "freespace.gamma_free_quadrature")
        w(dynamics, "model_discrepancy", "dynamics.model_discrepancy",
          outputs, tag=lambda params, *a, **k: _model_tag(params))
        w(dynamics, "evolve_jc", "dynamics.evolve_jc", after=result_bytes)
        w(dynamics, "unravel_jumps", "dynamics.unravel_jumps", trajectories)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _cells(cfg) -> int:
    """Rows a sweep config writes: the length of its ranged axis, or 1."""
    if cfg.target == "lindblad":
        return cfg.t.count if cfg.t is not None else 31
    for name in ("r", "k0d", "d_over_lambda0"):
        value = getattr(cfg, name)
        if hasattr(value, "count"):
            return value.count
    return 1


def _union_ns(intervals) -> int:
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, import_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the recorded spans (0 where unused)."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name, tag=None):
        return [s for s in by_name.get(name, ())
                if tag is None or s.tag == tag]

    def total_ns(group):
        return sum(s.ns for s in group)

    def self_ns(s):
        return s.ns - sum(c.ns for c in children.get(s.sid, ())
                          if c.thread == s.thread)

    def child_count(group, name):
        return sum(c.count for s in group for c in children.get(s.sid, ())
                   if c.name == name and c.thread == s.thread)

    m: dict[str, float] = {"cli.import_s": import_s}
    m["cli.main.s"] = total_ns(named("cli.main")) * 1e-9

    rate_sweeps = [s for s in named("sweeps.run_sweep")
                   if tracer.sweep_cells.get(s.sid)]
    sweep_self = 0
    for sw in rate_sweeps:
        routes = [(s.t0, s.t1) for s in spans
                  if s.sweep == sw.sid and s.name in _ROUTES]
        sweep_self += sw.ns - _union_ns(routes)
    cells = sum(tracer.sweep_cells[s.sid] for s in rate_sweeps)
    m["sweeps.run_sweep.self_us_per_cell"] = _ratio(sweep_self * 1e-3, cells)
    m["sweeps.csv_bytes_per_row"] = _ratio(
        sum(size for size, _ in tracer.sweep_bytes.values()),
        sum(rows for _, rows in tracer.sweep_bytes.values()))

    rate_ids = {s.sid for s in rate_sweeps}
    f_calls = named("kernels.f_kernel")
    m["kernels.f_kernel.calls_per_cell"] = _ratio(
        sum(1 for s in f_calls if s.sweep in rate_ids), cells)
    m["kernels.f_kernel.ns_per_element"] = _ratio(
        total_ns(f_calls), sum(s.count for s in f_calls))
    ik = named("kernels.interference_kernel")
    m["kernels.interference_kernel.elements"] = sum(s.count for s in ik)
    m["kernels.interference_kernel.ns_per_element"] = _ratio(
        total_ns(ik), sum(s.count for s in ik))

    quad = named("geometry.solid_angle_integrate")
    evals = sum(s.count for s in quad)
    g = "geometry.solid_angle_integrate."
    m[g + "ms_per_call"] = _ratio(total_ns(quad) * 1e-6, len(quad))
    m[g + "self_ms_per_call"] = _ratio(
        sum(self_ns(s) for s in quad) * 1e-6, len(quad))
    m[g + "evals_per_call"] = _ratio(evals, len(quad))
    m[g + "levels_per_call"] = _ratio(sum(s.levels for s in quad), len(quad))
    m[g + "useful_eval_ratio"] = _ratio(sum(s.last for s in quad), evals)
    tw = named("geometry.transverse_weight_sum")
    m["geometry.transverse_weight_sum.ns_per_element"] = _ratio(
        total_ns(tw), sum(s.count for s in tw))

    closed = named("mirror.gamma_mirror_closed")
    m["mirror.gamma_mirror_closed.us_per_call"] = _ratio(
        total_ns(closed) * 1e-3, len(closed))
    mquad = named("mirror.gamma_mirror_quadrature")
    m["mirror.gamma_mirror_quadrature.ms_per_call"] = _ratio(
        total_ns(mquad) * 1e-6, len(mquad))

    c = "cavity.gamma_cavity_quadrature"
    for regime in REGIMES:
        group = named(c, regime)
        m[f"{c}.ms_per_call.{regime}"] = _ratio(total_ns(group) * 1e-6,
                                                len(group))
        m[f"{c}.evals_per_call.{regime}"] = _ratio(
            child_count(group, "geometry.solid_angle_integrate"), len(group))
    c = "cavity.gamma_cavity_series"
    for regime in (*REGIMES, "dense"):
        group = named(c, regime)
        m[f"{c}.us_per_call.{regime}"] = _ratio(total_ns(group) * 1e-3,
                                                len(group))
    for regime in ("high_finesse", "optical"):
        group = named(c, regime)
        m[f"{c}.terms_per_call.{regime}"] = _ratio(
            child_count(group, "kernels.f_kernel"), len(group))
    second = named("cavity.gamma_subwavelength_2nd")
    m["cavity.gamma_subwavelength_2nd.us_per_call"] = _ratio(
        total_ns(second) * 1e-3, len(second))

    free = named("freespace.gamma_free_quadrature")
    m["freespace.gamma_free_quadrature.ms_per_call"] = _ratio(
        total_ns(free) * 1e-6, len(free))
    for model in ("weak", "strong"):
        group = named("dynamics.model_discrepancy", model)
        m[f"dynamics.model_discrepancy.ms_per_output.{model}"] = _ratio(
            total_ns(group) * 1e-6, sum(s.count for s in group))
    jc = named("dynamics.evolve_jc")
    m["dynamics.evolve_jc.ms_per_call"] = _ratio(total_ns(jc) * 1e-6, len(jc))
    m["dynamics.evolve_jc.result_mb"] = max(
        (s.count for s in jc), default=0) / 2 ** 20
    jumps = named("dynamics.unravel_jumps")
    m["dynamics.unravel_jumps.us_per_traj"] = _ratio(
        total_ns(jumps) * 1e-3, sum(s.count for s in jumps))
    m["validation.run_validation.self_s"] = sum(
        self_ns(s) for s in named("validation.run_validation")) * 1e-9
    return {name: float(m[name]) for name, _, _ in PER_LAYER}


def run_pass(procs, run_dir: Path, out_dir: Path,
             tracer: Tracer | None = None) -> dict:
    """Call mirrorqed.cli.main on every invocation; returns codes and wall.

    Both passes write the same --out path, which the CSV preamble records,
    and move the file into out_dir afterwards.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    codes, wall = {}, 0.0
    for proc in procs:
        argv = list(proc.args)
        csv_path = run_dir / f"{proc.name}.csv"
        if proc.writes_csv:
            argv.append(f"--out={csv_path}")
        if tracer is not None:
            tracer.tag = proc.tag
        with open(out_dir / f"{proc.name}.stdout", "w") as fh, \
                contextlib.redirect_stdout(fh):
            t0 = time.perf_counter()
            codes[proc.name] = mirrorqed.cli.main(argv)
            wall += time.perf_counter() - t0
        if csv_path.exists():
            csv_path.rename(out_dir / csv_path.name)
    return {"codes": codes, "wall_s": wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    procs = workloads.build(args.workload, args.seed)
    # untraced passes on both sides of the traced one, so warm-up and
    # drift do not land on the overhead
    untraced = [run_pass(procs, args.out, args.out / "untraced1")]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(procs, args.out, args.out / "traced", tracer)
    finally:
        tracer.uninstall()
    untraced.append(run_pass(procs, args.out, args.out / "untraced2"))
    with open(args.out / "spans.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.record(), separators=(",", ":")) + "\n")
    result = {
        "workload": args.workload, "seed": args.seed,
        "passes": {"untraced1": untraced[0], "traced": traced,
                   "untraced2": untraced[1]},
        "overhead_s": traced["wall_s"] - (untraced[0]["wall_s"]
                                          + untraced[1]["wall_s"]) / 2,
        "n_spans": len(tracer.spans),
        "metrics": per_layer_metrics(tracer, IMPORT_S),
    }
    with open(args.out / "trace.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
