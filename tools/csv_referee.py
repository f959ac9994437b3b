"""Referee two directories of mirrorqed CSVs: did any output move past its error?

Usage:
    python tools/csv_referee.py PARENT_DIR CHANGE_DIR
    python tools/csv_referee.py --write SRC OUT [--seeds 7 11]

Compare mode pairs the CSVs of the two directories by file name. For
each pair it compares the preambles key by key (apart from ``# out =``)
and names each key on one side only or with a changed value; the
summary counts those keys apart from the cells. It
requires equal headers, equal row counts and identical cells outside
the value columns (the axis columns and ``method``). In a file with an
``err_estimate`` column the value columns are ``ratio_*`` and
``abs_diff``; each of their cells is counted as identical, moved within
max(err_old, err_new) of its row's ``err_estimate``, or moved beyond
it. ``err_estimate`` cells may change and are counted. A file without
``err_estimate`` (``lindblad``) must be identical line for line. Every
``status`` change is reported. A file on one side only, a preamble key
that differs, a cell moved beyond its error, a status change or any
other difference is a violation; the exit status is 1 if there is one,
else 0.

Write mode runs every CSV-writing invocation of the benchmark workloads
(``SRC/perfbench/workloads.py``) at the given seeds, in process, through
the ``mirrorqed.cli.main`` of the source tree SRC, and writes
``OUT/<name>.seed<seed>.csv``. At seeds 7 and 11 that is 34 files.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import math
import os
import sys

_OUT_LINE = "# out = "


def _read(path):
    """({preamble key: value} without ``out``, header, rows of cells)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    preamble = dict(ln[2:].partition(" = ")[::2] for ln in lines
                    if ln.startswith("# ") and not ln.startswith(_OUT_LINE))
    body = [ln for ln in lines if not ln.startswith("# ")]
    if not body:
        return preamble, "", []
    return preamble, body[0], [ln.split(",") for ln in body[1:]]


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _is_value(column):
    return column.startswith("ratio_") or column == "abs_diff"


class Tally:
    """Cell counts and violations over one or more file pairs."""

    def __init__(self):
        self.identical = self.within = self.beyond = 0
        self.err_changed = self.status_changed = self.exact_rows = 0
        self.preamble_changed = 0  # keys on one side only or changed
        self.worst = 0.0  # largest move of a value cell over its error
        self.violations = []

    def add(self, other):
        for name in ("identical", "within", "beyond", "err_changed",
                     "status_changed", "exact_rows", "preamble_changed"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.worst = max(self.worst, other.worst)
        self.violations += other.violations

    def summary(self):
        return (f"value cells: {self.identical} identical, {self.within} "
                f"moved within error, {self.beyond} moved beyond error "
                f"(worst move {self.worst:.3g} of its error); err_estimate "
                f"cells changed: {self.err_changed}; status changes: "
                f"{self.status_changed}; identical rows in files without "
                f"err_estimate: {self.exact_rows}; preamble keys changed: "
                f"{self.preamble_changed}; violations: "
                f"{len(self.violations)}")


def compare_files(name, old_path, new_path):
    """Tally one pair of CSVs; ``name`` labels its violations."""
    tally = Tally()
    bad = tally.violations.append
    old_pre, old_head, old_rows = _read(old_path)
    new_pre, new_head, new_rows = _read(new_path)
    for key in [*old_pre, *(k for k in new_pre if k not in old_pre)]:
        tally.preamble_changed += old_pre.get(key) != new_pre.get(key)
        if key not in new_pre:
            bad(f"{name}: preamble key {key} only in the parent")
        elif key not in old_pre:
            bad(f"{name}: preamble key {key} only in the change")
        elif old_pre[key] != new_pre[key]:
            bad(f"{name}: preamble {key} {old_pre[key]} -> {new_pre[key]}")
    if old_head != new_head:
        bad(f"{name}: headers differ: {old_head!r} vs {new_head!r}")
        return tally
    if len(old_rows) != len(new_rows):
        bad(f"{name}: {len(old_rows)} rows vs {len(new_rows)}")
        return tally
    columns = old_head.split(",")
    if "err_estimate" not in columns:
        for row, (old, new) in enumerate(zip(old_rows, new_rows), start=1):
            if old != new:
                bad(f"{name}: row {row} differs in a file with no "
                    f"err_estimate column")
            else:
                tally.exact_rows += 1
        return tally
    err_at = columns.index("err_estimate")
    for row, (old, new) in enumerate(zip(old_rows, new_rows), start=1):
        if len(old) != len(columns) or len(new) != len(columns):
            bad(f"{name}: row {row} does not have {len(columns)} cells")
            continue
        bound = max(_float(old[err_at]), _float(new[err_at]))
        for column, a, b in zip(columns, old, new):
            if column == "err_estimate":
                tally.err_changed += a != b
            elif column == "status":
                if a != b:
                    tally.status_changed += 1
                    bad(f"{name}: row {row}: status {a} -> {b}")
            elif not _is_value(column):
                if a != b:
                    bad(f"{name}: row {row}: {column} {a} -> {b}")
            elif a == b:
                tally.identical += 1
            else:
                moved = abs(_float(b) - _float(a))
                tally.worst = max(tally.worst,
                                  moved / bound if bound else math.inf)
                if moved <= bound:
                    tally.within += 1
                else:
                    tally.beyond += 1
                    bad(f"{name}: row {row}: {column} {a} -> {b} moved "
                        f"beyond its error {bound:.3g}")
    return tally


def compare_dirs(old_dir, new_dir):
    """Print one line per pair and a total; return the total Tally."""
    total = Tally()
    old_names = {n for n in os.listdir(old_dir) if n.endswith(".csv")}
    new_names = {n for n in os.listdir(new_dir) if n.endswith(".csv")}
    for name in sorted(old_names ^ new_names):
        side = "parent" if name in old_names else "change"
        total.violations.append(f"{name}: only in the {side} directory")
    for name in sorted(old_names & new_names):
        tally = compare_files(name, os.path.join(old_dir, name),
                              os.path.join(new_dir, name))
        print(f"{name}: {tally.summary()}")
        total.add(tally)
    for line in total.violations:
        print(f"VIOLATION {line}")
    print(f"total over {len(old_names & new_names)} file pairs: "
          f"{total.summary()}")
    return total


def write_csvs(src, out_dir, seeds):
    """Write every workload CSV of source tree ``src`` at ``seeds``."""
    package = os.path.realpath(os.path.join(src, "src", "mirrorqed"))
    sys.path.insert(0, os.path.dirname(package))
    from mirrorqed import cli

    if os.path.dirname(os.path.realpath(cli.__file__)) != package:
        raise SystemExit(f"mirrorqed was already imported from "
                         f"{cli.__file__}, not from {package}")
    spec = importlib.util.spec_from_file_location(
        "_referee_workloads", os.path.join(src, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    os.makedirs(out_dir, exist_ok=True)
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for proc in workloads.build(workload, seed):
                if not proc.writes_csv:
                    continue
                path = os.path.join(out_dir, f"{proc.name}.seed{seed}.csv")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*proc.args, f"--out={path}"])
                print(f"wrote {path} (exit {code})")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare two directories of mirrorqed CSVs, or write "
                    "the benchmark workloads' CSVs from a source tree.")
    parser.add_argument("dirs", nargs="*", metavar="DIR",
                        help="PARENT_DIR CHANGE_DIR to compare")
    parser.add_argument("--write", nargs=2, metavar=("SRC", "OUT"),
                        help="write the workload CSVs of source tree SRC "
                             "into OUT")
    parser.add_argument("--seeds", nargs="+", type=int, default=[7, 11],
                        help="workload seeds for --write (default: 7 11)")
    args = parser.parse_args(argv)
    if args.write:
        if args.dirs:
            parser.error("--write takes no directories to compare")
        write_csvs(*args.write, args.seeds)
        return 0
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    for d in args.dirs:
        if not os.path.isdir(d):
            parser.error(f"not a directory: {d}")
    return 1 if compare_dirs(*args.dirs).violations else 0


if __name__ == "__main__":
    sys.exit(main())
