"""Command-line surface: exit codes, config plumbing, output files."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time

import pytest

import mirrorqed
from mirrorqed import cli, sweeps
from mirrorqed.sweeps import TARGETS

from .test_sweeps import (CAVITY_HEADER, LINDBLAD_HEADER, MIRROR_HEADER,
                          read_csv)


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    """Point default outputs at the test tmpdir."""
    monkeypatch.setenv("MIRRORQED_OUTDIR", str(tmp_path))
    return tmp_path


class TestExitCodes:
    def test_version_exits_zero(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "mirrorqed" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_grid_is_usage_error(self, capsys):
        assert cli.main(["cavity", "--grid", "2:1:5"]) == 2

    def test_bad_range_rejected_as_flag_and_config_line(self, tmp_path,
                                                         capsys):
        assert cli.main(["cavity", "--r", "1:2:x"]) == 2
        assert "start:stop:count[:log]" in capsys.readouterr().err
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("r = 1:2:x\n", encoding="utf-8")
        assert cli.main(["cavity", "--config", str(cfg_file)]) == 2
        assert "bad value for r" in capsys.readouterr().err
        # a span stop - start that is not finite, where linspace would
        # start the grid at nan
        out = tmp_path / "span.csv"
        for argv in (["mirror", "--r", "-1", "--grid", "0.1:inf:3"],
                     ["cavity", "--r", "0.5", "--k0d", "0.1:1e400:3"],
                     ["cavity", "--r=-1e308:1e308:3", "--k0d", "1"],
                     ["lindblad", "--grid", "0:1e400:3"]):
            assert cli.main([*argv, "--out", str(out)]) == 2, argv
            err = capsys.readouterr().err
            assert "range span stop - start must be finite" in err
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert not out.exists()
        cfg_file.write_text("k0d = 0.1:1e400:3\n", encoding="utf-8")
        assert cli.main(["cavity", "--config", str(cfg_file)]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_infinite_tail_tol_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["cavity", "--method", "series", "--r", "0.5",
                         "--k0d", "1", "--tail-tol", "inf",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: tail_tol must be positive and finite, "
                       "got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_gamma_cav_outside_the_domain_is_usage_error(self, tmp_path,
                                                         capsys, value):
        # a nan or inf rate once passed validation, wrote 31 InvalidParams
        # rows and exited 3
        out = tmp_path / "l.csv"
        assert cli.main(["lindblad", "--gamma-cav", value,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: gamma_cav must be finite and >= 0, got "
            f"{float(value)!r}\n")
        cfg_file = tmp_path / "rate.cfg"
        cfg_file.write_text(f"gamma_cav = {value}\n", encoding="utf-8")
        assert cli.main(["lindblad", "--config", str(cfg_file),
                         "--out", str(out)]) == 2
        assert "gamma_cav must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["5e-324", "1e-16"])
    @pytest.mark.parametrize("target", ["mirror", "cavity", "subwavelength",
                                        "optical"])
    def test_tol_below_the_error_floor_is_usage_error(self, tmp_path, capsys,
                                                      target, tol):
        # no cell can converge below the floor: each one once spent its
        # whole evaluation budget before the run exited 3
        out = tmp_path / "s.csv"
        start = time.perf_counter()
        assert cli.main([target, f"--tol={tol}", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"config error: tol must be >= 4e-16, the quadrature's error "
            f"floor, got {float(tol)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,out", [
        (["cavity"], "{dir}"),
        (["cavity"], "{file}/x.csv"),
        (["figure", "mirror_dielectric"], "{file}"),
    ], ids=["csv-is-directory", "csv-under-file", "figure-dir-is-file"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, argv,
                                            out):
        # a directory, or a path under a file: exit 1 is kept for a
        # failed validation
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = out.format(dir=tmp_path, file=tmp_path / "file")
        assert cli.main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,module,routes", [
        (["cavity", "--r", "0.999"], "cavity",
         ("gamma_cavity_quadrature", "gamma_cavity_series",
          "gamma_subwavelength_2nd")),
        (["lindblad"], "dynamics", ("model_discrepancy", "unravel_jumps")),
    ], ids=["cavity", "lindblad"])
    def test_unwritable_out_refused_before_any_cell(self, tmp_path, capsys,
                                                    monkeypatch, argv,
                                                    module, routes):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell was computed")

        module = importlib.import_module(f"mirrorqed.{module}")
        for name in routes:
            monkeypatch.setattr(module, name, refuse)
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output ")
        assert err.count("\n") == 1

    def test_config_error_reported_on_stderr(self, tmp_path, capsys):
        rc = cli.main(["cavity", "--k0d", "1.0", "--d-over-lambda", "0.5"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_axis_conflict_rejected(self, capsys):
        rc = cli.main(["subwavelength", "--r", "0:0.5:5", "--grid", "0:1:5"])
        assert rc == 2

    def test_invalid_lindblad_params_are_usage_error(self, tmp_path, capsys):
        rc = cli.main(["lindblad", "--kappa", "0", "--out",
                       str(tmp_path / "l.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: ")
        assert err.count("\n") == 1

    def test_sweeping_another_axis_asks_for_default_value(self, capsys):
        rc = cli.main(["subwavelength", "--k0d", "0.01:0.1:3"])
        assert rc == 2
        assert "--r" in capsys.readouterr().err

    def test_budget_refused_before_allocation_exits_three(self, tmp_path,
                                                          capsys):
        out = str(tmp_path / "big.csv")
        rc = cli.main(["cavity", "--method", "quadrature", "--k0d", "1e6",
                       "--out", out])
        assert rc == 3
        _, header, rows = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(header.split(","), rows[0]))
        assert row["status"] == "NonConvergence"

    def test_partial_failure_exits_three(self, tmp_path, capsys):
        # the default budget refuses this cell before any evaluation
        out = str(tmp_path / "hard.csv")
        rc = cli.main([
            "cavity", "--r", "0.999", "--k0d", "2e6", "--method", "quadrature",
            "--out", out,
        ])
        assert rc == 3
        assert os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["mirror"], ["cavity"], ["subwavelength"], ["optical"], ["lindblad"],
    ["figure", "mirror_dielectric"], ["validate"],
], ids=lambda argv: argv[0])
def test_quick_mode_is_gone(tmp_path, capsys, argv):
    # every run has one size, so --quick and a quick key are usage errors
    out = tmp_path / "out"
    extra = ["--out", str(out)] if argv[0] != "validate" else []
    assert cli.main([*argv, "--quick", *extra]) == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err
    if argv[0] not in ("figure", "validate"):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text("quick = true\n", encoding="utf-8")
        assert cli.main([*argv, "--config", str(cfg_file), *extra]) == 2
        assert "unknown config key 'quick'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["mirror", "cavity", "subwavelength",
                                    "optical"])
def test_n_max_is_gone(tmp_path, capsys, target):
    # the series order is derived from tail_tol, so --n-max and an n_max
    # key (as in the preamble of an older CSV) are usage errors
    out = tmp_path / "out.csv"
    assert cli.main([target, "--n-max", "5", "--out", str(out)]) == 2
    assert "unrecognized arguments: --n-max" in capsys.readouterr().err
    cfg_file = tmp_path / "old.cfg"
    cfg_file.write_text("n_max = 5\n", encoding="utf-8")
    assert cli.main([target, "--config", str(cfg_file),
                     "--out", str(out)]) == 2
    assert "unknown config key 'n_max'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["mirror", "cavity", "subwavelength",
                                    "optical"])
def test_max_evals_is_gone(tmp_path, capsys, target):
    # every quadrature cell runs at the default budget of 40,000,000
    # evaluations, so --max-evals and a max_evals key (as in the preamble
    # of an older CSV) are usage errors
    out = tmp_path / "out.csv"
    assert cli.main([target, "--max-evals", "200000", "--out", str(out)]) == 2
    assert "unrecognized arguments: --max-evals" in capsys.readouterr().err
    cfg_file = tmp_path / "old.cfg"
    cfg_file.write_text("max_evals = 40000000\n", encoding="utf-8")
    assert cli.main([target, "--config", str(cfg_file),
                     "--out", str(out)]) == 2
    assert "unknown config key 'max_evals'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lindblad", "--g", "1e200"],
    ["lindblad", "--g", "1e150"],
    ["lindblad", "--g", "1e200", "--gamma-cav", "1"],
    ["lindblad", "--gamma-cav", "inf"],
])
def test_overflowing_lindblad_rates_fail_typed(tmp_path, argv, capsys):
    # warnings are errors under pytest, so an overflow in the
    # propagator would surface here rather than as a nan row
    out = tmp_path / "l.csv"
    rc = cli.main([*argv, "--out", str(out)])
    assert rc in (2, 3)
    assert "Traceback" not in capsys.readouterr().err
    if out.exists():
        _, header, rows = read_csv(out)
        status = header.split(",").index("status")
        assert rows and all(row[status] != "ok" for row in rows)


# Data rows written for these commands by the per-row sweep code that the
# column assemblers replaced; each command exits 3. Failed rows, with
# their status, nan and empty cells, must come out byte for byte. The one
# cell allowed to move is ratio_series in an ok row: the frozen values are
# BLAS dot products, whose rounding depends on memory alignment, while the
# series grid sums each row pairwise. The limit rows carry the err_estimate
# of the second-order error |t4| + 2|t6| + 4e-16 |limit|. The series r
# sweep was frozen at a pinned order of 50; it now runs at tail_tol 1e-13,
# which gives the same statuses, and its ok rows carry that order's
# err_estimate. The NonConvergence rows were frozen at k0d = 250:300:3
# under a 200,000-evaluation budget, which is no longer a setting; they
# now run at k0d = 2e6:3e6:3, which the default budget refuses, and
# differ from the frozen rows only in k0d.
FROZEN_ROWS = {
    ("mirror", "--method", "closed", "--r=-1.5:0.5:5", "--k0d", "1"): [
        "0.15915494309189535,1.0,-1.5,nan,nan,,nan,closed,InvalidParams",
        "0.15915494309189535,1.0,-1.0,0.6445752611157325,,,1.2743006318923108e-15,closed,ok",
        "0.15915494309189535,1.0,-0.5,0.8222876305578662,,,8.371503159461554e-16,closed,ok",
        "0.15915494309189535,1.0,0.0,1.0,,,4e-16,closed,ok",
        "0.15915494309189535,1.0,0.5,1.1777123694421339,,,8.371503159461554e-16,closed,ok",
    ],
    ("subwavelength", "--method", "limit", "--r", "0.5:1.0:6", "--k0d", "0.01"): [
        "0.01,0.5,,,2.99976,3.2152769453968254e-08,ok,limit",
        "0.01,0.6,,,3.9994,1.4794108890158726e-07,ok,limit",
        "0.01,0.7,,,5.664903703703703,8.919634386330735e-07,ok,limit",
        "0.01,0.8,,,8.9928,9.323371622647631e-06,ok,limit",
        "0.01,0.9,,,18.931600000000003,0.0004013956303885529,ok,limit",
        "0.01,1.0,,,nan,nan,DegenerateMirror,limit",
    ],
    ("cavity", "--method", "series", "--r", "0.5", "--k0d", "0:1:5"): [
        "0.0,0.5,,nan,,nan,InvalidParams,series",
        "0.25,0.5,,2.861458965236524,,3.725320298461914e-09,ok,series",
        "0.5,0.5,,2.5459039828071357,,3.725320298461914e-09,ok,series",
        "0.75,0.5,,2.204875991675956,,3.725320298461914e-09,ok,series",
        "1.0,0.5,,1.9084091046523992,,3.725320298461914e-09,ok,series",
    ],
    ("cavity", "--method", "series", "--r", "0.5:0.9999:4", "--k0d", "1",
     "--tail-tol", "1e-13"): [
        "1.0,0.5,,1.9084091045674003,,8.684341886080801e-14,ok,series",
        "1.0,0.6666333333333333,,2.1629286318776817,,9.886709950578546e-14,ok,series",
        "1.0,0.8332666666666666,,nan,,nan,TailTooLarge,series",
        "1.0,0.9999,,nan,,nan,TailTooLarge,series",
    ],
    ("cavity", "--method", "all", "--r", "0.999", "--k0d", "2e6:3e6:3"): [
        "2000000.0,0.999,nan,nan,,nan,NonConvergence,all",
        "2500000.0,0.999,nan,nan,,nan,NonConvergence,all",
        "3000000.0,0.999,nan,nan,,nan,NonConvergence,all",
    ],
}


@pytest.mark.parametrize("argv", list(FROZEN_ROWS))
def test_frozen_rows_reproduced(tmp_path, argv, capsys):
    out = tmp_path / "frozen.csv"
    assert cli.main([*argv, "--out", str(out)]) == 3
    _, header, rows = read_csv(out)
    cols = header.split(",")
    frozen = [line.split(",") for line in FROZEN_ROWS[argv]]
    assert len(rows) == len(frozen)
    for row, old in zip(rows, frozen):
        moved = [c for c, new, was in zip(cols, row, old) if new != was]
        if moved:
            assert moved == ["ratio_series"]
            assert row[cols.index("status")] == "ok"
            i = cols.index("ratio_series")
            assert abs(float(row[i]) - float(old[i])) <= 1e-13


# The series rows of FROZEN_ROWS as the truncated double bounce sum wrote
# them, before the image sum replaced it: (ratio_series, err_estimate)
# per ok row. Each image-sum value must lie within the old row's
# err_estimate of the old value.
DOUBLE_SUM_SERIES = {
    ("cavity", "--method", "series", "--r", "0.5", "--k0d", "0:1:5"): [
        None,
        (2.861458965027396, 5.029151902923583e-09),
        (2.5459039826919274, 5.029151902923583e-09),
        (2.2048759916416265, 5.029151902923583e-09),
        (1.9084091046718004, 5.029151902923583e-09),
    ],
    ("cavity", "--method", "series", "--r", "0.5:0.9999:4", "--k0d", "1",
     "--tail-tol", "1e-13"): [
        (1.9084091045673999, 1.0000000000000002e-14),
        (2.1629286318776813, 1.0009201938053807e-14),
        None,
        None,
    ],
}


@pytest.mark.parametrize("argv", list(DOUBLE_SUM_SERIES))
def test_image_sum_within_double_sum_error(tmp_path, argv, capsys):
    out = tmp_path / "series.csv"
    assert cli.main([*argv, "--out", str(out)]) == 3
    _, header, rows = read_csv(out)
    cols = header.split(",")
    assert len(rows) == len(DOUBLE_SUM_SERIES[argv])
    for row, old in zip(rows, DOUBLE_SUM_SERIES[argv]):
        if old is None:
            assert row[cols.index("status")] != "ok"
            continue
        ratio, err = old
        assert row[cols.index("status")] == "ok"
        assert abs(float(row[cols.index("ratio_series")]) - ratio) <= err


# Runs one CLI call in a process whose address space is capped at
# 512 MB, so an input that tried to allocate its full size would end in
# MemoryError instead of exhausting the host.
_CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from mirrorqed import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["mirror", "--grid=0:1:10000000000"],
    ["lindblad", "--n-traj", "10000000000"],
])
def test_oversized_input_refused_before_allocation(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv,
         "--out", str(tmp_path / "big.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 2, proc.stderr
    assert "memory budget" in proc.stderr
    assert "MemoryError" not in proc.stderr
    assert not (tmp_path / "big.csv").exists()


def _run_capped(tmp_path, argv, *python_flags):
    """(process, wall seconds) of one CLI call under the 512 MB cap."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *python_flags, "-c", _CAPPED_CLI, *argv,
         "--out", str(tmp_path / "edge.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    return proc, time.perf_counter() - start


def _edge_rows(tmp_path):
    _, header, rows = read_csv(str(tmp_path / "edge.csv"))
    return [dict(zip(header.split(","), row)) for row in rows]


@pytest.mark.parametrize("k0d", ["1e9", "1e300", "1e308"])
def test_huge_mirror_quadrature_refused_before_allocation(tmp_path, k0d):
    # 1e9 once asked for a 7.45 GiB first level, 1e300 for more panels
    # than numpy can index, and 2 * 1e308 overflows to an infinite rate
    proc, wall = _run_capped(
        tmp_path, ["mirror", "--method", "quadrature", "--k0d", k0d])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert [row["status"] for row in _edge_rows(tmp_path)] == [
        "NonConvergence"]
    assert wall < 2.0


@pytest.mark.parametrize("argv", [
    ["mirror", "--method", "quadrature", "--k0d", "1e5", "--tol", "4e-16"],
    ["cavity", "--method", "quadrature", "--r", "0.999", "--k0d", "3000",
     "--tol", "4e-16"],
])
def test_quadrature_level_memory_is_bounded(tmp_path, argv):
    # a tolerance at the error floor runs the whole budget; allocating
    # each refinement level whole once ran out of memory under the cap
    proc, _ = _run_capped(tmp_path, argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    assert [row["status"] for row in _edge_rows(tmp_path)] == [
        "NonConvergence"]


@pytest.mark.parametrize("argv", [
    ["optical", "--r", "1e-6"],
    ["cavity", "--method", "quadrature", "--r", "1e-8", "--k0d", "1"],
])
def test_tiny_reflectivity_cavity_quadrature_is_bounded(tmp_path, argv):
    # the kernel peaks are 2 h = (1 - r^2) / (|r| k0d) wide, so tiny |r|
    # puts their neighbourhood edges far outside (-1, 1)
    proc, wall = _run_capped(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    rows = _edge_rows(tmp_path)
    assert rows and all(row["status"] == "ok" for row in rows)
    assert wall < 2.0


def test_largest_jump_ensemble_runs_under_the_cap(tmp_path):
    # drawing all 8,388,608 trajectories at once ran out of memory here
    proc, wall = _run_capped(
        tmp_path, ["lindblad", "--n-traj", "8388608", "--grid", "0:3:11"])
    assert proc.returncode == 0, proc.stderr
    rows = _edge_rows(tmp_path)
    assert len(rows) == 11 and all(row["status"] == "ok" for row in rows)


def test_long_log_grid_lindblad_takes_seconds(tmp_path):
    # every span of a log grid differs; a scan over one cached propagator
    # per span made this run quadratic, about 20 minutes
    proc, wall = _run_capped(
        tmp_path, ["lindblad", "--grid=0.001:3:100000:log", "--n-traj=1000"])
    assert proc.returncode == 0, proc.stderr
    rows = _edge_rows(tmp_path)
    assert len(rows) == 100_000 and all(row["status"] == "ok" for row in rows)
    assert wall < 5.0


@pytest.mark.parametrize("argv,column", [
    (["mirror", "--method", "closed", "--k0d", "1e300"], "ratio_closed"),
    (["cavity", "--method", "series", "--r", "0.9", "--k0d", "1e300"],
     "ratio_series"),
    # 2 k0d and j k0d overflow to inf, where f is 0
    (["mirror", "--method", "closed", "--k0d", "1e308"], "ratio_closed"),
    (["cavity", "--method", "series", "--r", "0.9", "--k0d", "1e307"],
     "ratio_series"),
])
def test_huge_k0d_closed_forms_raise_no_overflow_warning(tmp_path, argv,
                                                         column):
    proc, wall = _run_capped(tmp_path, argv, "-W", "error::RuntimeWarning")
    assert proc.returncode == 0, proc.stderr
    (row,) = _edge_rows(tmp_path)
    assert abs(float(row[column]) - 1.0) <= 1e-12
    assert wall < 2.0


@pytest.mark.parametrize("target", sweeps.TARGETS)
def test_python_config_resolves_as_the_subcommand(target, capsys):
    assert cli.main([target, "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert sweeps.dump_config(sweeps.SweepConfig(target=target)) + "\n" == (
        dumped)


def test_python_config_runs_the_subcommand_rows(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["subwavelength", "--k0d", "0.01",
                     "--out", str(out)]) == 0
    from_cli = out.read_bytes()
    out.unlink()
    assert sweeps.run_sweep(sweeps.SweepConfig(
        target="subwavelength", k0d=0.01, out=str(out))) == 0
    assert out.read_bytes() == from_cli
    preamble, _, rows = read_csv(str(out))
    assert "r = -0.99:0.99:199:linear" in preamble.splitlines()
    assert len(rows) > 1


@pytest.mark.parametrize("key,flag,raw", [
    ("tol", "--tol", "x"),
    ("n_traj", "--n-traj", "1.5"),
])
def test_bad_value_names_its_key_as_flag_and_config_line(tmp_path, capsys,
                                                         key, flag, raw):
    target = "lindblad" if key == "n_traj" else "cavity"
    assert cli.main([target, flag, raw, "--dump-config"]) == 2
    assert f"bad value for {key}" in capsys.readouterr().err
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"{key} = {raw}\n", encoding="utf-8")
    assert cli.main([target, "--config", str(cfg_file), "--dump-config"]) == 2
    assert f"bad value for {key}" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["none", " run.csv"])
def test_flag_text_gets_no_config_text_conventions(tmp_path, monkeypatch,
                                                   capsys, out):
    # config text strips values and reads none as unset; a flag is taken
    # as given, so these paths, which a preamble cannot record, exit 2
    monkeypatch.chdir(tmp_path)
    assert cli.main(["cavity", "--r", "0.5", "--k0d", "1",
                     "--out", out]) == 2
    assert "would not read back" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# the input-domain table: every numeric flag of every target, at each edge
# value, given both as a flag and as a config line
_RATE_KEYS = {"--r": "r", "--k0d": "k0d", "--d-over-lambda": "d_over_lambda0",
              "--tol": "tol", "--tail-tol": "tail_tol", "--seed": "seed"}
_LINDBLAD_KEYS = {"--g": "g", "--kappa": "kappa", "--gamma": "gamma",
                  "--gamma-cav": "gamma_cav", "--n-traj": "n_traj",
                  "--seed": "seed"}
_EDGE_VALUES = ("nan", "inf", "-inf", "-0", "5e-324", "1e308", "0", "-1", "1")
_EDGE_TABLE = [
    (target, flag, key, value)
    for target, spec in sweeps.TARGETS.items()
    for flag, key in (_RATE_KEYS if spec.routes else _LINDBLAD_KEYS).items()
    for value in _EDGE_VALUES
]


def _finite_or_text(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True


@pytest.mark.parametrize("target,flag,key,value", _EDGE_TABLE)
def test_input_domain_edge_keeps_the_exit_contract(tmp_path, capsys, target,
                                                   flag, key, value):
    cfg_file = tmp_path / "edge.cfg"
    cfg_file.write_text(f"{key} = {value}\n", encoding="utf-8")
    axis, grid = next((k, v) for k, v in sweeps.TARGETS[target].defaults.items()
                      if isinstance(v, sweeps.Range))
    extra = [] if axis == key else [f"--grid={grid.start!r}:{grid.stop!r}:3"]
    out = tmp_path / "edge.csv"
    for argv in ([target, f"{flag}={value}", *extra],
                 [target, "--config", str(cfg_file), *extra]):
        code = cli.main([*argv, f"--out={out}"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, err)
        if code != 0:
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        if code != 2:
            _, header, rows = read_csv(str(out))
            status = header.split(",").index("status")
            for row in rows:
                if row[status] == "ok":
                    assert all(map(_finite_or_text, row)), (argv, row)


class TestSweepCommands:
    def test_cavity_single_point(self, tmp_path, capsys):
        out = str(tmp_path / "c.csv")
        rc = cli.main(["cavity", "--r", "0.9", "--k0d", "1e-3", "--out", out])
        assert rc == 0
        assert out in capsys.readouterr().out
        _, header, rows = read_csv(out)
        assert header == CAVITY_HEADER
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(18.999316039608285, rel=1e-9)

    def test_mirror_named_k0d_replaces_default_axis(self, tmp_path):
        out = str(tmp_path / "m.csv")
        assert cli.main(["mirror", "--k0d", "1", "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert header == MIRROR_HEADER
        assert len(rows) == 1
        row = dict(zip(header.split(","), rows[0]))
        assert float(row["k0d"]) == 1.0
        assert float(row["re_r"]) == -1.0
        assert row["status"] == "ok"

    def test_cavity_named_d_over_lambda_replaces_default_axis(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert cli.main(["cavity", "--d-over-lambda", "0.1", "--out",
                         out]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(header.split(","), rows[0]))
        assert float(row["k0d"]) == pytest.approx(0.2 * math.pi, rel=1e-15)
        assert float(row["r_mir"]) == 0.5
        assert row["status"] == "ok"

    def test_mirror_default_output_location(self, outdir, capsys):
        rc = cli.main(["mirror"])
        assert rc == 0
        path = outdir / "mirror.csv"
        assert path.exists()
        _, _, rows = read_csv(str(path))
        assert len(rows) == 101

    def test_subwavelength_default_axis_is_reflectivity(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert cli.main(["subwavelength", "--out", out]) == 0
        _, header, rows = read_csv(out)
        rs = [float(r[1]) for r in rows]
        assert min(rs) < -0.9
        assert max(rs) > 0.9

    def test_optical_defaults_far_regime(self, tmp_path):
        out = str(tmp_path / "o.csv")
        assert cli.main(["optical", "--out", out]) == 0
        _, header, rows = read_csv(out)
        k0ds = [float(r[0]) for r in rows]
        assert min(k0ds) >= 60.0
        ratios = [float(r[2]) for r in rows]
        assert all(abs(v - 1.0) < 0.05 for v in ratios)

    def test_series_cells_are_plain_numbers(self, tmp_path):
        out = str(tmp_path / "o.csv")
        assert cli.main(["optical", "--method", "series", "--r", "0.8",
                         "--out", out]) == 0
        _, _, rows = read_csv(out)
        assert rows
        for row in rows:
            for cell in row[:-2]:
                if cell:
                    float(cell)

    def test_lindblad_default_run(self, tmp_path):
        out = str(tmp_path / "l.csv")
        assert cli.main(["lindblad", "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert header == LINDBLAD_HEADER
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_removed_lindblad_knobs_are_usage_errors(self, tmp_path,
                                                     capsys):
        out = str(tmp_path / "l.csv")
        assert cli.main(["lindblad", "--n-fock", "5", "--out", out]) == 2
        assert cli.main(["lindblad", "--dt", "1e-3", "--out", out]) == 2
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text("n_fock = 5\n", encoding="utf-8")
        assert cli.main(["lindblad", "--config", str(cfg_file),
                         "--out", out]) == 2
        assert "unknown config key 'n_fock'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_figure_command(self, tmp_path):
        outdir = str(tmp_path / "fig")
        assert cli.main(["figure", "subwl_plasmonic_vs_r", "--out",
                         outdir]) == 0
        names = os.listdir(outdir)
        assert "manifest.txt" in names
        assert any(n.endswith(".csv") for n in names)

    def test_unknown_figure_id_is_usage_error(self, capsys):
        assert cli.main(["figure", "not_a_figure"]) == 2


_ROUND_TRIP_FLAGS = {
    "mirror": ["--r", "0.5", "--grid", "0.1:2:20", "--method", "closed"],
    "cavity": ["--r", "0.8", "--grid", "0.1:10:50:log", "--tol", "1e-10"],
    "subwavelength": ["--k0d", "0.05", "--grid=-0.5:0.5:11",
                      "--method", "limit"],
    "optical": ["--r", "-0.8", "--method", "series", "--tail-tol", "1e-12"],
    "lindblad": ["--g", "2", "--grid", "0:1:11", "--n-traj", "50",
                 "--seed", "3"],
}


class TestConfigPlumbing:
    @pytest.mark.parametrize("target", list(_ROUND_TRIP_FLAGS))
    def test_dump_config_round_trip(self, target, tmp_path, capsys):
        args = [target, *_ROUND_TRIP_FLAGS[target]]
        assert cli.main(args + ["--dump-config"]) == 0
        dump1 = capsys.readouterr().out
        assert f"target = {target}\n" in dump1
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(dump1, encoding="utf-8")
        assert cli.main([target, "--config", str(cfg_file),
                         "--dump-config"]) == 0
        dump2 = capsys.readouterr().out
        assert dump1 == dump2

    def test_rerun_recipe_keeps_hash_in_out_path(self, tmp_path, capsys):
        # README: grep '^# ' out.csv | cut -c3- > run.cfg, then --config
        out = tmp_path / "run#1.csv"
        assert cli.main(["cavity", "--r", "0.5", "--k0d", "1",
                         "--out", str(out)]) == 0
        first = out.read_bytes()
        preamble = [line[2:] for line in first.decode().splitlines()
                    if line.startswith("# ")]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\n".join(preamble) + "\n", encoding="utf-8")
        out.unlink()
        assert cli.main(["cavity", "--config", str(cfg_file)]) == 0
        assert out.read_bytes() == first
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run#1.csv", "run.cfg"]

    def test_out_that_cannot_be_recorded_is_config_error(self, tmp_path,
                                                         capsys):
        out = tmp_path / "run #1.csv"
        assert cli.main(["cavity", "--r", "0.5", "--k0d", "1",
                         "--out", str(out)]) == 2
        assert "would not read back" in capsys.readouterr().err
        assert not out.exists()

    def test_help_names_the_equals_form_for_negative_ranges(self, capsys):
        assert cli.main(["subwavelength", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag in ("--r=", "--k0d=", "--d-over-lambda=", "--grid=-0.5"):
            assert flag in text

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("target = cavity\nr = 0.5\ntol = 1e-09\n",
                            encoding="utf-8")
        assert cli.main(["cavity", "--config", str(cfg_file), "--tol", "1e-07",
                         "--dump-config"]) == 0
        dump = capsys.readouterr().out
        assert "tol = 1e-07" in dump
        assert "r = 0.5" in dump

    def test_config_target_mismatch_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("target = mirror\n", encoding="utf-8")
        assert cli.main(["cavity", "--config", str(cfg_file)]) == 2

    def test_dump_config_writes_no_files(self, outdir, capsys):
        assert cli.main(["cavity", "--r", "0.5", "--k0d", "1.0",
                         "--dump-config"]) == 0
        assert not (outdir / "cavity.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["cavity", "--config", str(tmp_path / "absent.cfg")]) == 2


class TestValidateCommand:
    def test_injected_fault_caught(self, capsys):
        assert cli.main(["validate", "--inject-fault", "1e-3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_small_injected_fault_trips_exactly_the_kernel_checks(self,
                                                                  capsys):
        # the routes look kernels.f_kernel up when called, so a fault
        # injected there reaches the array routes as well
        assert cli.main(["validate", "--inject-fault", "1e-6"]) == 1
        failed = {line.split()[1] for line in
                  capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")}
        assert failed == {"fkernel-zero", "fkernel-at-pi",
                          "fkernel-peak-bound", "mirror-oracle-grid",
                          "mirror-quad-err-conservative",
                          "cavity-route-equivalence"}

    def test_timing_lines_are_not_check_lines(self, capsys):
        assert cli.main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        timed = [line for line in lines if line.startswith("time ")]
        assert len(timed) == 7
        assert not any(line.startswith(("PASS", "FAIL")) for line in timed)

    def test_negative_seed_is_usage_error(self, capsys):
        assert cli.main(["validate", "--seed", "-5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "invalid parameters: seed must be >= 0, got -5\n"

    def test_seed_is_passed_on_only_when_given(self, capsys):
        from mirrorqed import validation

        def check_lines(argv):
            assert cli.main(argv) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("PASS", "FAIL"))]

        default = [c.line() for c in validation.run_validation().checks]
        assert check_lines(["validate"]) == default
        assert check_lines(["validate", "--seed", "5"]) != default


class TestTargetTable:
    def test_optical_all_runs_no_second_order_route(self, tmp_path, capsys):
        rows = {}
        for target in ("optical", "cavity"):
            out = tmp_path / f"{target}.csv"
            assert cli.main([target, "--method", "all", "--r", "0.5",
                             "--k0d", "0.1", "--out", str(out)]) == 0
            _, header, (row,) = read_csv(str(out))
            rows[target] = dict(zip(header.split(","), row))
        assert rows["optical"]["ratio_limit_2nd"] == ""
        assert rows["cavity"]["ratio_limit_2nd"] != ""
        for row in rows.values():
            assert row["ratio_quadrature"] and row["ratio_series"]
            assert row["status"] == "ok"

    def test_optical_has_no_limit_method(self, capsys):
        assert cli.main(["optical", "--method", "limit"]) == 2

    @pytest.mark.parametrize("target", ["mirror", "cavity", "subwavelength",
                                        "optical"])
    def test_every_route_and_all_are_methods(self, target, capsys):
        for method in (*sweeps.TARGETS[target].routes, "all"):
            assert cli.main([target, "--method", method,
                             "--dump-config"]) == 0
            assert f"method = {method}" in capsys.readouterr().out


def test_public_names_resolve():
    modules = [mirrorqed] + [
        importlib.import_module(f"mirrorqed.{info.name}")
        for info in pkgutil.iter_modules(mirrorqed.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mirrorqed", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "mirrorqed" in proc.stdout


def test_public_names_are_their_home_objects():
    for name, module in mirrorqed._HOME.items():
        home = importlib.import_module(f"mirrorqed.{module}")
        value = getattr(mirrorqed, name)
        assert value is getattr(home, name), name
        # a name must be listed under the module that defines it, not
        # under one that merely imports it
        assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from mirrorqed import *", namespace)
    assert set(mirrorqed.__all__) <= set(namespace)


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        mirrorqed.no_such_name


# The modules each run loads: the front end (parser, target table and
# config, no numpy) and, for a sweep, the runner and its target's routes.
_FRONT_END = {"mirrorqed.cli", "mirrorqed.constants", "mirrorqed.errors",
              "mirrorqed.sweeps"}
_RATE_ROUTES = {"mirrorqed.runner", "mirrorqed.geometry", "mirrorqed.kernels",
                "mirrorqed.results"}
_LOADS = {
    "--version": _FRONT_END,
    "mirror": _FRONT_END | _RATE_ROUTES | {"mirrorqed.mirror"},
    **{target: _FRONT_END | _RATE_ROUTES | {"mirrorqed.cavity"}
       for target in ("cavity", "subwavelength", "optical")},
    "lindblad": _FRONT_END | {"mirrorqed.runner", "mirrorqed.dynamics"},
}

# Runs in a fresh interpreter, because pytest has already imported every
# module: prints, after `import mirrorqed` and after one CLI run, which
# package modules (and whether numpy.ma) are loaded.
_IMPORT_PROBE = """
import json, sys
import numpy
bare_numpy_ma = "numpy.ma" in sys.modules

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("mirrorqed.") or m == "numpy.ma")

import mirrorqed
report = {"bare_numpy_ma": bare_numpy_ma, "import": loaded(),
          "undir": sorted(set(mirrorqed.__all__) - set(dir(mirrorqed)))}
from mirrorqed import cli
report["run"] = [cli.main(json.loads(sys.argv[1])), loaded()]
print(json.dumps(report))
"""


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    for target, modules in _LOADS.items():
        argv = [target] + [f"--out={tmp_path / target}.csv"] * (
            target in TARGETS)
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
            capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["import"] == [] and report["undir"] == []
        code, loaded = report["run"]
        assert code == 0, target
        # numpy 2 imports numpy.ma only on demand; numpy 1 always does
        assert "numpy.ma" not in loaded or report["bare_numpy_ma"], target
        assert set(loaded) - {"numpy.ma"} == modules, target


# Runs `python -m mirrorqed ARGV` in an interpreter that has not loaded
# numpy, then prints the exit code and the numpy and package modules.
_STARTUP_PROBE = """
import json, runpy, sys
preloaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
sys.argv = ["mirrorqed", *json.loads(sys.argv[1])]
try:
    runpy.run_module("mirrorqed", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("numpy", "mirrorqed"))
print(json.dumps([preloaded, code, loaded]))
"""


@pytest.mark.parametrize("argv,expected_code", [
    (["--version"], 0),
    (["--help"], 0),
    (["cavity", "--help"], 0),
    (["cavity", "--method", "nope"], 2),
], ids=["version", "help", "cavity-help", "usage-error"])
def test_start_up_loads_no_numpy(argv, expected_code):
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, json.dumps(argv)],
        capture_output=True, text=True, check=True)
    preloaded, code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert preloaded == [] and code == expected_code
    assert set(loaded) == {"mirrorqed", *_FRONT_END}
