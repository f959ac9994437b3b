"""tools/csv_referee.py on small CSV directories written by the CLI."""

import importlib.util
import os
import sys
import textwrap
from pathlib import Path

import pytest

from mirrorqed import cli

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_referee.py"
_spec = importlib.util.spec_from_file_location("csv_referee", _TOOL)
referee = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(referee)

_RUNS = {
    "mirror.csv": ["mirror", "--method", "all", "--k0d", "0.5:30:3"],
    "cavity.csv": ["cavity", "--method", "all", "--r", "0.5",
                   "--k0d", "0.05:2:3"],
    "lindblad.csv": ["lindblad", "--grid", "0:3:4", "--n-traj", "50"],
}


def _write(directory):
    directory.mkdir()
    for name, argv in _RUNS.items():
        assert cli.main([*argv, f"--out={directory / name}"]) == 0
    return directory


@pytest.fixture
def dirs(tmp_path, capsys):
    old, new = _write(tmp_path / "old"), _write(tmp_path / "new")
    capsys.readouterr()
    return old, new


def _edit(path, row, column, edit):
    """Apply ``edit`` to one cell of data row ``row`` (1-based)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("# "))
    cols = lines[header].split(",")
    cells = lines[header + row].split(",")
    at = cols.index(column)
    cells[at] = edit(cells[at], dict(zip(cols, cells)))
    lines[header + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_two_runs_of_one_tree_are_identical(dirs, capsys):
    assert referee.main([str(d) for d in dirs]) == 0
    total = capsys.readouterr().out.splitlines()[-1]
    assert "0 moved within error, 0 moved beyond error" in total
    assert "0 emptied or filled;" in total
    assert "err_estimate cells changed: 0 (0 grew, 0 shrank);" in total
    assert "status changes: 0" in total
    assert "identical rows in files without err_estimate: 4" in total
    assert "preamble keys changed: 0" in total
    assert total.endswith("violations: 0")


def test_move_past_its_error_is_reported_with_file_column_and_row(dirs,
                                                                 capsys):
    old, new = dirs
    _edit(new / "cavity.csv", 2, "ratio_quadrature",
          lambda cell, row: repr(float(cell)
                                 + 10.0 * float(row["err_estimate"])))
    assert referee.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION cavity.csv: row 2: ratio_quadrature" in out
    assert "1 moved beyond error" in out.splitlines()[-1]


@pytest.mark.parametrize("side,kind", [("new", "emptied"),
                                       ("old", "filled")])
def test_emptied_value_cell_is_named_apart_from_moves(dirs, capsys, side,
                                                      kind):
    # row 1 (k0d = 0.05) holds the second-order value; a route that stops
    # filling it, or starts, is its own kind of violation
    old, new = dirs
    _edit({"old": old, "new": new}[side] / "cavity.csv", 1,
          "ratio_limit_2nd", lambda cell, row: "")
    assert referee.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION cavity.csv: row 1: ratio_limit_2nd" in out
    assert f"a value cell {kind}" in out
    total = out.splitlines()[-1]
    assert "0 moved beyond error" in total
    assert "1 emptied or filled" in total
    assert total.endswith("violations: 1")


def test_move_within_its_error_is_counted_not_refused(dirs, capsys):
    old, new = dirs
    _edit(new / "mirror.csv", 1, "ratio_quadrature",
          lambda cell, row: repr(float(cell)
                                 + 0.5 * float(row["err_estimate"])))
    assert referee.main([str(old), str(new)]) == 0
    assert "1 moved within error" in capsys.readouterr().out.splitlines()[-1]


def test_err_estimate_changes_are_split_into_grew_and_shrank(dirs, capsys):
    # a changed estimate is not a violation; the summary says which way
    # each went and by what extreme factors
    old, new = dirs
    _edit(new / "mirror.csv", 1, "err_estimate",
          lambda cell, row: repr(2.0 * float(cell)))
    _edit(new / "mirror.csv", 2, "err_estimate",
          lambda cell, row: repr(0.25 * float(cell)))
    _edit(new / "cavity.csv", 1, "err_estimate",
          lambda cell, row: repr(0.5 * float(cell)))
    assert referee.main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("err_estimate cells changed: 1 (0 grew, 1 shrank; new/old "
            "from 0.5 to 0.5);") in lines[0]
    assert ("err_estimate cells changed: 2 (1 grew, 1 shrank; new/old "
            "from 0.25 to 2);") in lines[2]
    assert ("err_estimate cells changed: 3 (1 grew, 2 shrank; new/old "
            "from 0.25 to 2);") in lines[-1]
    assert lines[-1].endswith("violations: 0")


@pytest.mark.parametrize("name,row,column,edit,message", [
    ("cavity.csv", 3, "status", lambda c, r: "NonConvergence",
     "cavity.csv: row 3: status ok -> NonConvergence"),
    ("cavity.csv", 1, "k0d", lambda c, r: "0.06",
     "cavity.csv: row 1: k0d 0.05 -> 0.06"),
    ("lindblad.csv", 2, "pop_jc", lambda c, r: repr(float(c) * (1 + 1e-15)),
     "lindblad.csv: row 2 differs in a file with no err_estimate column"),
])
def test_other_differences_are_violations(dirs, capsys, name, row, column,
                                          edit, message):
    old, new = dirs
    _edit(new / name, row, column, edit)
    assert referee.main([str(old), str(new)]) == 1
    assert f"VIOLATION {message}" in capsys.readouterr().out


def test_preamble_differences_are_named_key_by_key(dirs, capsys):
    old, new = dirs
    path = new / "cavity.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    tol = next(ln for ln in lines if ln.startswith("# tol = "))[8:]
    lines = [ln for ln in lines if not ln.startswith("# seed = ")]
    lines = [ln.replace(f"# tol = {tol}", "# tol = 0.5") for ln in lines]
    lines.insert(0, "# extra = 1")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert referee.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    violations = [ln for ln in out.splitlines() if ln.startswith("VIOLATION")]
    assert violations == [
        f"VIOLATION cavity.csv: preamble tol {tol} -> 0.5",
        "VIOLATION cavity.csv: preamble key seed only in the parent",
        "VIOLATION cavity.csv: preamble key extra only in the change",
    ]
    assert out.splitlines()[-1].endswith(
        "preamble keys changed: 3; violations: 3")


def test_deleted_preamble_key_is_counted_apart_from_cells(dirs, capsys):
    # a config key deleted from every file reads as three preamble
    # changes and no moved cell, not as three unexplained violations
    old, new = dirs
    for name in _RUNS:
        path = new / name
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(ln for ln in lines
                                  if not ln.startswith("# seed = ")) + "\n",
                        encoding="utf-8")
    assert referee.main([str(old), str(new)]) == 1
    total = capsys.readouterr().out.splitlines()[-1]
    assert "0 moved within error, 0 moved beyond error" in total
    assert "status changes: 0" in total
    assert total.endswith("preamble keys changed: 3; violations: 3")


def test_unpaired_file_is_a_violation(dirs, capsys):
    old, new = dirs
    (new / "lindblad.csv").unlink()
    assert referee.main([str(old), str(new)]) == 1
    assert ("VIOLATION lindblad.csv: only in the parent directory"
            in capsys.readouterr().out)


def test_write_runs_each_workload_csv_of_a_source_tree(tmp_path,
                                                       monkeypatch):
    # a source tree whose workloads module holds one small sweep per seed
    monkeypatch.setattr(sys, "path", list(sys.path))
    package = Path(cli.__file__).resolve().parent
    src = tmp_path / "tree"
    (src / "src").mkdir(parents=True)
    (src / "src" / "mirrorqed").symlink_to(package)
    (src / "perfbench").mkdir()
    (src / "perfbench" / "workloads.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass

        WORKLOADS = ("tiny",)

        @dataclass(frozen=True)
        class Proc:
            name: str
            args: tuple
            writes_csv: bool = True

        def build(workload, seed):
            return [Proc("cav", ("cavity", "--r", "0.5",
                                 f"--k0d={seed / 10}")),
                    Proc("val", ("validate",), writes_csv=False)]
    """), encoding="utf-8")
    out = tmp_path / "out"
    assert referee.main(["--write", str(src), str(out),
                         "--seeds", "7", "11"]) == 0
    assert sorted(os.listdir(out)) == ["cav.seed11.csv", "cav.seed7.csv"]
    assert "# k0d = 0.7" in (out / "cav.seed7.csv").read_text(encoding="utf-8")


def test_write_refuses_a_tree_other_than_the_imported_one(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    (tmp_path / "src" / "mirrorqed").mkdir(parents=True)
    with pytest.raises(SystemExit, match="already imported"):
        referee.main(["--write", str(tmp_path), str(tmp_path / "out")])
