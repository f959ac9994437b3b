"""Benchmark of the mirrorqed CLI: four workloads, timed end to end.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload once
    python3 perfbench/run.py --workload W --repeat 10  # spread vs bounds
    python3 perfbench/run.py --workload all --repeat 10 --against FILE

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the workload's mirrorqed processes run one at a time, in
whole rounds, until the next round would end after S seconds (at least
two rounds, so the CSVs of one seed can be compared byte for byte). A
small pace probe is timed every 50 ms while they run, and a round's
times are given at the reference pace (see PACE_REF_S), so that the
shared host's drift in speed does not read as a change in the program.
The outputs of the first round are checked against independent
references (check.py, refs.py). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with --trace 0, the per-layer metrics of an
in-process traced run (traced_run.py) with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

#: Timed ``mirrorqed --version`` processes before each round; setup_s is
#: the median of all of them, spread over the run so that slow drift in
#: the machine's speed does not land on one metric.
SETUP_PER_ROUND = 3
#: Every process still running this many seconds after the run started is
#: killed, so that a run ends within 180 s.
RUN_LIMIT_S = 170.0
_DEADLINE = time.monotonic() + RUN_LIMIT_S


#: Pace probes: a small fixed mix of interpreter steps and numpy ufunc
#: calls, the two kinds of work the program does, timed every
#: PROBE_PERIOD_S in a thread of the benchmark's own while the workload
#: runs. Each CPU of the shared host switches between a fast and a slow
#: state from one moment to the next: the interpreter steps take 2.1 ms
#: in one and 3.1 ms in the other, the numpy calls 3.8 and 6.2 ms. The
#: share of time spent in each moves run times by up to a third from one
#: minute to the next. A round's times are scaled by PACE_REF_S over the
#: mean probe of the round, so that they read as at the reference pace.
PROBE_STEPS = 2_000
PROBE_UFUNC_CALLS = 20
PROBE_PERIOD_S = 0.05
#: Seconds of one probe at the reference pace: a typical mean probe of a
#: round on the reference host (README).
PACE_REF_S = 0.0011


def pace_probe() -> float:
    """Wall seconds of one fixed probe."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_STEPS):
        acc += math.sin(i * 1e-3)
    a = np.linspace(0.0, 1.0, 2048)
    for _ in range(PROBE_UFUNC_CALLS):
        a = np.cos(a) * 0.5 + 0.25
    return time.perf_counter() - t0


class Pacer:
    """Times a pace probe every PROBE_PERIOD_S until the block ends."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append((time.monotonic(), pace_probe()))

    def __enter__(self) -> "Pacer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_since(self, start: float) -> float:
        """Mean probe of the samples taken since ``start``."""
        return statistics.fmean(d for t, d in list(self.samples)
                                if t >= start)


@dataclass
class ProcRun:
    wall_s: float
    maxrss_mb: float
    code: int


def _env() -> dict:
    env = dict(os.environ)
    env.pop("MIRRORQED_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def launch(args, stdout_path: Path, env: dict) -> ProcRun:
    """Run ``python -m mirrorqed ARGS``; wall time, peak RSS, exit code."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mirrorqed", *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(_DEADLINE - time.monotonic(), 1.0),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcRun(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def time_setup(run_dir: Path, env: dict, count: int) -> list[ProcRun]:
    """Bare ``mirrorqed --version`` processes."""
    path = run_dir / "version.stdout"
    return [launch(["--version"], path, env) for _ in range(count)]


def run_round(procs, run_dir: Path, round_dir: Path,
              env: dict) -> list[ProcRun]:
    """One pass over the workload. Every round writes the same --out path,
    which the CSV preamble records, then moves the file into round_dir."""
    round_dir.mkdir(parents=True)
    runs = []
    for proc in procs:
        args = list(proc.args)
        csv_path = run_dir / f"{proc.name}.csv"
        if proc.writes_csv:
            args.append(f"--out={csv_path}")
        runs.append(launch(args, round_dir / f"{proc.name}.stdout", env))
        if csv_path.exists():
            csv_path.rename(round_dir / csv_path.name)
    return runs


def output_text(proc, directory: Path) -> str:
    suffix = ".csv" if proc.writes_csv else ".stdout"
    path = directory / (proc.name + suffix)
    return path.read_text() if path.exists() else ""


def check_rounds(procs, rounds: list[tuple[Path, dict]],
                 seed: int) -> tuple[check.Tally, int]:
    """Check every round's outputs; returns the tally and ops per round.

    The first round is checked against the references. A later round
    must repeat its CSVs byte for byte, and then counts as the first did;
    validate's report carries timings, so each round is checked anew.
    """
    total = check.Tally()
    first: dict[str, tuple[str, int, check.Tally]] = {}
    for k, (directory, codes) in enumerate(rounds):
        for proc in procs:
            text, code = output_text(proc, directory), codes[proc.name]
            if k and proc.writes_csv and first[proc.name][:2] == (text, code):
                done = first[proc.name][2]
                total.add(check.Tally(done.attempted, done.failed))
                continue
            if k and proc.writes_csv:
                total.problems.append(
                    f"{proc.name}: round {k} differs from the first round")
            tally = check.check_proc(proc, text, code, seed)
            if not k:
                first[proc.name] = (text, code, tally)
            total.add(tally)
    return total, sum(t.attempted for _, _, t in first.values())


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    procs = workloads.build(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = _env()

    time_setup(run_dir, env, 1)             # writes the bytecode caches
    setups: list[float] = []
    rounds: list[tuple[Path, list[ProcRun]]] = []
    walls: list[float] = []                 # at the reference pace
    raw: list[dict] = []
    start = time.monotonic()
    last = 0.0
    with Pacer() as pacer:
        while len(rounds) < 2 or time.monotonic() - start + last <= seconds:
            began = time.monotonic()
            starts = time_setup(run_dir, env, SETUP_PER_ROUND)
            round_dir = run_dir / f"round{len(rounds)}"
            runs = run_round(procs, run_dir, round_dir, env)
            pace = pacer.mean_since(began)
            scale = PACE_REF_S / pace
            setups += [p.wall_s * scale for p in starts]
            rounds.append((round_dir, runs))
            walls.append(sum(p.wall_s for p in runs) * scale)
            raw.append({"pace_s": pace,
                        "setup_s": [p.wall_s for p in starts],
                        "wall_s": {p.name: r.wall_s
                                   for p, r in zip(procs, runs)}})
            last = time.monotonic() - began

    (run_dir / "timings.json").write_text(json.dumps({
        "pace_ref_s": PACE_REF_S, "rounds": raw}, indent=1))
    tally, ops = check_rounds(
        procs, [(d, {p.name: r.code for p, r in zip(procs, runs)})
                for d, runs in rounds], seed)
    if not tally.problems:
        # the later rounds repeat the first byte for byte
        for directory, _ in rounds[1:]:
            shutil.rmtree(directory)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(ops / w for w in walls),
        "peak_rss_mb": max(p.maxrss_mb for _, runs in rounds for p in runs),
    }
    raw_walls = [sum(r["wall_s"].values()) for r in raw]
    paces = [r["pace_s"] for r in raw]
    return {"tally": tally, "walls": walls, "raw_walls": raw_walls,
            "paces": paces, "metrics": metrics}


def run_traced(workload: str, seed: int) -> dict:
    """The per-layer metrics of traced_run.py, with its outputs checked."""
    procs = workloads.build(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}-trace"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    child = subprocess.run(
        [sys.executable, str(BENCH / "traced_run.py"),
         f"--workload={workload}", f"--seed={seed}", f"--out={run_dir}"],
        env=_env(), cwd=ROOT, timeout=max(_DEADLINE - time.monotonic(), 1.0))
    if child.returncode != 0:
        raise RuntimeError(f"traced_run.py exited with {child.returncode}")
    result = json.loads((run_dir / "trace.json").read_text())
    tally, _ = check_rounds(
        procs, [(run_dir / name, result["passes"][name]["codes"])
                for name in ("traced", "untraced1", "untraced2")], seed)
    return {"tally": tally, "result": result}


def _emit(tally: check.Tally, metrics: dict, units: dict) -> None:
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def single(args) -> int:
    if args.trace:
        out = run_traced(args.workload, args.seed)
        result = out["result"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, value in result["metrics"].items():
            print(f"{args.workload:20s} {name:60s} {value:14.6g} "
                  f"{units[name]}")
        walls = {k: v["wall_s"] for k, v in result["passes"].items()}
        print(f"{args.workload:20s} tracing overhead: traced "
              f"{walls['traced']:.3f} s - untraced mean of "
              f"{walls['untraced1']:.3f} s and {walls['untraced2']:.3f} s = "
              f"{result['overhead_s']:+.3f} s over {result['n_spans']} spans")
        _emit(out["tally"], result["metrics"], units)
        return 0
    out = run_workload(args.workload, args.seed, args.seconds)
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in out["metrics"].items():
        print(f"{args.workload:20s} {name:12s} {value:12.6g} {units[name]}")
    print(f"{args.workload:20s} rounds {len(out['walls'])} of "
          + " ".join(f"{w:.3f}" for w in out["raw_walls"])
          + " s as measured, probe "
          + " ".join(f"{1e3 * p:.2f}" for p in out["paces"])
          + f" ms (reference {1e3 * PACE_REF_S:.2f})"
          + f"  attempted {out['tally'].attempted}"
          f"  failed {out['tally'].failed}")
    _emit(out["tally"], out["metrics"], units)
    return 0


def every_workload(args) -> int:
    """Each workload once, one after another; one summary line each."""
    units = {name: unit for name, unit, _ in END_TO_END}
    results = {}
    for workload in workloads.WORKLOADS:
        out = run_workload(workload, args.seed, args.seconds)
        tally = out["tally"]
        for problem in tally.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        cells = "  ".join(f"{name} {value:.4g} {units[name]}"
                          for name, value in out["metrics"].items())
        print(f"{workload:20s} {cells}  attempted {tally.attempted}  "
              f"failed {tally.failed}  correct {not tally.problems}")
        results[workload] = {"correct": not tally.problems,
                             "attempted": tally.attempted,
                             "failed": tally.failed,
                             "metrics": out["metrics"]}
    print(json.dumps(results))
    return 0


def _bounds() -> dict:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {m["name"]: m["bound"]
            for m in json.loads(spec.read_text())["end_to_end"]}


def repeat(args) -> int:
    """Run each workload N times on seeds seed..seed+N-1, each run in a
    fresh process of its own; print median, quartiles and spread of
    every end-to-end metric against its bound. --against compares the
    medians with an earlier repeat's summary file."""
    bounds = _bounds()
    better = {name: b for name, _, b in END_TO_END}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    earlier = (json.loads(Path(args.against).read_text())
               if args.against else {})
    summary, ok = {}, True
    for workload in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            child = subprocess.run(
                [sys.executable, str(BENCH / "run.py"),
                 f"--workload={workload}", f"--seed={seed}",
                 f"--seconds={args.seconds:g}", "--trace=0"],
                capture_output=True, text=True, cwd=ROOT)
            result = json.loads(child.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        row = {"failed_share": sorted(shares),
               "correct": all(r["correct"] for r in runs)}
        ok &= len(shares) == 1 and row["correct"]
        for name, unit, _ in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            row[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": values}
            line = (f"  {workload:20s} {name:12s} median {med:.5g} {unit}  "
                    f"q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.2%}")
            if bound is not None:
                steady = spread < bound / 3 or name == "setup_s"
                line += f"  bound {bound:.0%}  {'ok' if steady else 'WIDE'}"
                ok &= steady
            if workload in earlier and bound is not None:
                before = earlier[workload][name]["median"]
                worse = ((med - before) if better[name] == "lower"
                         else (before - med)) / before
                line += f"  vs earlier {worse:+.2%}"
                ok &= worse <= bound
            print(line)
        if workload in earlier and earlier[workload]["failed_share"] \
                != row["failed_share"]:
            print(f"  {workload}: failed share differs from the earlier set")
            ok = False
        summary[workload] = row
    save = OUT / f"repeat-{args.workload}.json"
    save.parent.mkdir(parents=True, exist_ok=True)
    save.write_text(json.dumps(summary, indent=1))
    verdict = "all within bounds" if ok else "NOT within bounds"
    print(f"summary written to {save}; {verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N times on consecutive seeds and report "
                             "the spread of each metric against its bound")
    parser.add_argument("--against", metavar="FILE",
                        help="with --repeat: an earlier summary to compare "
                             "medians with")
    args = parser.parse_args(argv)
    if not (SRC / "mirrorqed" / "__init__.py").is_file():
        print(f"mirrorqed sources not found under {SRC}; run from the root "
              "of a mirrorqed checkout", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        return every_workload(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
