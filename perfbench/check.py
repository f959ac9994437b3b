"""Checks of the program's outputs against the references in refs.py.

An operation is one CSV data row of a sweep, or one check line of
``validate``. Each check adds to a Tally: ``attempted`` and ``failed``
count operations; ``problems`` lists wrong results. A row fails when the
program marks it failed (status other than ``ok``) or writes a cell that
is not a plain number, such as ``np.float64(0.01)``; a failed row is not
counted as correct, but its ratio cells are still checked. A wrong
result is a problem: a ratio outside its err_estimate of the reference
(plus the reference's own error), a negative ratio, a population outside
its tolerance, or a validate line at odds with its verdict.
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass, field

import refs

#: |pop_jc - expm reference|: RK4 at the program's step of 0.01/max rate
#: stays below 1e-9 on both lindblad models.
JC_TOL = 1e-8
#: Binomial standard deviations allowed between the jump mean and
#: exp(-Gamma t); the K^2/(3n) term covers the few-jump tail (Bernstein).
JUMP_SIGMAS = 6.0
#: Relative tolerance of pop_jump_stderr against sqrt(m(1-m)/(n-1)).
STDERR_RTOL = 1e-9

#: Rows per CSV checked against the costly references (mpmath quadrature
#: of the cavity ratio). Rows are drawn by the workload seed.
SAMPLE_ROWS = {"contact": 4, "resonant": 2, "high_finesse": 1,
               "optical": 1, "dense": 3}
#: Rows per mirror CSV checked against mpmath f (all rows when fewer).
MIRROR_SAMPLE = 400

_NP_SCALAR = re.compile(r"^np\.float64\((.*)\)$")
_CHECK_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+measured=")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def parse_cell(text: str) -> tuple[float | None, bool]:
    """(value, plain) of a numeric cell; None for an empty cell.

    ``np.float64(x)`` yields x with plain False, so the row can still be
    checked; any other text yields nan with plain False.
    """
    if text == "":
        return None, True
    try:
        return float(text), True
    except ValueError:
        pass
    match = _NP_SCALAR.match(text)
    if match:
        try:
            return float(match.group(1)), False
        except ValueError:
            pass
    return math.nan, False


def read_csv(text: str) -> list[dict[str, str]]:
    """Data rows of a mirrorqed CSV (the '#' preamble skipped)."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _sample(rows: list, k: int, rng: random.Random) -> set[int]:
    return set(range(len(rows))) if k >= len(rows) else set(
        rng.sample(range(len(rows)), k))


def _within(tally: Tally, where: str, label: str, value, ref: float,
            tol: float) -> None:
    if value is None:
        return
    if not abs(value - ref) <= tol:
        tally.problems.append(
            f"{where}: {label} = {value!r}, reference {ref!r}, "
            f"|diff| = {abs(value - ref):.3g} > {tol:.3g}")


def _numbers(row: dict, columns) -> tuple[dict, bool]:
    values, plain = {}, True
    for col in columns:
        values[col], ok = parse_cell(row[col])
        plain &= ok
    return values, plain


def _row_status(tally: Tally, where: str, row: dict, method: str,
                plain: bool, ratios: dict) -> bool:
    """Count the row; True when the program reports it ok.

    A failed cell is written as nan, so the sign check applies to ok rows.
    """
    tally.attempted += 1
    tally.failed += row["status"] != "ok" or not plain
    if row["method"] != method:
        tally.problems.append(f"{where}: method {row['method']!r}, "
                              f"asked for {method!r}")
    if row["status"] != "ok":
        return False
    for col, value in ratios.items():
        if value is not None and not value >= 0.0:
            tally.problems.append(f"{where}: {col} = {value!r} is negative "
                                  "or not a number")
    return True


def check_mirror(name: str, text: str, method: str, rng: random.Random,
                 sample: int = MIRROR_SAMPLE) -> Tally:
    """Mirror rows: closed and quadrature ratios against 1 + 1.5 r f(2 k0d)."""
    tally = Tally()
    rows = read_csv(text)
    picked = _sample(rows, sample, rng)
    for i, row in enumerate(rows):
        where = f"{name} row {i}"
        v, plain = _numbers(row, (
            "k0d", "re_r", "ratio_closed", "ratio_quadrature", "abs_diff",
            "err_estimate"))
        ratios = {"ratio_closed": v["ratio_closed"],
                  "ratio_quadrature": v["ratio_quadrature"]}
        if not _row_status(tally, where, row, method, plain, ratios):
            continue
        closed, quad = v["ratio_closed"], v["ratio_quadrature"]
        if closed is not None and quad is not None:
            _within(tally, where, "abs_diff", v["abs_diff"],
                    abs(closed - quad), 2 * refs.EPS * max(1.0, closed))
        if i in picked:
            ref, ref_err = refs.mirror_ratio(v["re_r"], v["k0d"])
            for col, value in ratios.items():
                _within(tally, where, col, value, ref,
                        v["err_estimate"] + ref_err)
    return tally


def check_cavity(name: str, text: str, tag: str, rng: random.Random,
                 method: str, tol: float, tail_tol: float,
                 sample: int | None = None) -> Tally:
    """Cavity rows: quadrature and series against the mpmath 1-D reduction
    on sampled rows, the second-order column against its formula on all.

    Where a row carries the second-order column, its err_estimate is the
    largest of the routes' and mostly that column's truncation scale; the
    quadrature and series columns are then held to what the run's --tol
    and --tail-tol promise instead, when that is tighter.
    """
    tally = Tally()
    rows = read_csv(text)
    picked = _sample(rows, SAMPLE_ROWS[tag] if sample is None else sample,
                     rng)
    for i, row in enumerate(rows):
        where = f"{name} row {i}"
        v, plain = _numbers(row, (
            "k0d", "r_mir", "ratio_quadrature", "ratio_series",
            "ratio_limit_2nd", "err_estimate"))
        ratios = {col: v[col] for col in ("ratio_quadrature", "ratio_series",
                                          "ratio_limit_2nd")}
        if not _row_status(tally, where, row, method, plain, ratios):
            continue
        r, k0d, err = v["r_mir"], v["k0d"], v["err_estimate"]
        if ratios["ratio_limit_2nd"] is not None:
            ref, ref_err = refs.second_order(r, k0d)
            _within(tally, where, "ratio_limit_2nd",
                    ratios["ratio_limit_2nd"], ref, err + ref_err)
        if i not in picked or (ratios["ratio_quadrature"] is None
                               and ratios["ratio_series"] is None):
            continue
        ref, ref_err = refs.cavity_ratio(r, k0d)
        quad_err = series_err = err
        if ratios["ratio_limit_2nd"] is not None:
            quad_err = min(err, tol * max(3.0 / (8.0 * math.pi), ref))
            series_err = min(err, tail_tol + 1e-14)
        _within(tally, where, "ratio_quadrature",
                ratios["ratio_quadrature"], ref, quad_err + ref_err)
        _within(tally, where, "ratio_series", ratios["ratio_series"], ref,
                series_err + ref_err)
    return tally


def check_lindblad(name: str, text: str, g: float, kappa: float,
                   gamma: float, n_traj: int) -> Tally:
    """Lindblad rows: master equation against scipy expm, single rate
    against exp(-Gamma t), the jump mean within binomial sigmas of it."""
    tally = Tally()
    rows = read_csv(text)
    columns = ("t", "pop_jc", "pop_single_rate", "pop_jump_mean",
               "pop_jump_stderr")
    parsed = []
    for i, row in enumerate(rows):
        where = f"{name} row {i}"
        v, plain = _numbers(row, columns)
        ratios = {c: v[c] for c in columns[2:]}
        if _row_status(tally, where, row, "lindblad", plain, ratios):
            parsed.append((where, v))
    times = [v["t"] for _, v in parsed]
    jc = refs.jc_excited_population(g, kappa, gamma, times)
    single = refs.single_rate_population(g, kappa, gamma, times)
    for (where, v), p_jc, p in zip(parsed, jc, single):
        _within(tally, where, "pop_jc", v["pop_jc"], p_jc, JC_TOL)
        _within(tally, where, "pop_single_rate", v["pop_single_rate"], p,
                4 * refs.EPS * p)
        _within(tally, where, "pop_jump_mean", v["pop_jump_mean"], p,
                JUMP_SIGMAS * refs.binomial_sigma(p, n_traj)
                + JUMP_SIGMAS ** 2 / (3 * n_traj))
        m = v["pop_jump_mean"]
        binomial = math.sqrt(max(m * (1.0 - m), 0.0) / (n_traj - 1))
        _within(tally, where, "pop_jump_stderr", v["pop_jump_stderr"],
                binomial, STDERR_RTOL * binomial + 1e-15)
    return tally


def check_validate(name: str, text: str, code: int) -> Tally:
    """One operation per PASS/FAIL line; the verdict must match the lines."""
    tally = Tally()
    n_fail = 0
    for line in text.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            tally.attempted += 1
            n_fail += match.group(1) == "FAIL"
    tally.failed += n_fail
    passed = "all checks passed" in text
    if tally.attempted == 0:
        tally.problems.append(f"{name}: no check lines in the output")
    if passed != (n_fail == 0) or (code == 0) != (n_fail == 0):
        tally.problems.append(f"{name}: verdict (exit {code}) disagrees "
                              f"with {n_fail} FAIL lines")
    return tally


def check_proc(proc, text: str, code: int, seed: int) -> Tally:
    """Check one invocation's output (CSV text, or stdout for validate)."""
    if proc.kind == "validate":
        return check_validate(proc.name, text, code)
    tally = Tally()
    if code != 0:
        tally.problems.append(f"{proc.name}: exit code {code}")
    rng = random.Random(f"{seed}:{proc.name}")
    try:
        if proc.kind == "mirror":
            tally.add(check_mirror(proc.name, text, proc.params["method"],
                                   rng))
        elif proc.kind == "cavity":
            tally.add(check_cavity(proc.name, text, proc.tag, rng,
                                   **proc.params))
        else:
            tally.add(check_lindblad(proc.name, text, **proc.params))
    except KeyError as exc:
        tally.problems.append(f"{proc.name}: no column {exc} in the CSV")
    if not tally.attempted:
        tally.problems.append(f"{proc.name}: no data rows")
    return tally
