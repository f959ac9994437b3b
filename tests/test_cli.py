"""Command-line surface: exit codes, config plumbing, output files."""

import math
import os
import subprocess
import sys
import time

import pytest

from mirrorqed import cli

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

    def test_n_max_above_cap_is_usage_error(self, tmp_path, capsys):
        start = time.perf_counter()
        rc = cli.main(["cavity", "--method", "series", "--k0d", "1",
                       "--n-max", "1000000000",
                       "--out", str(tmp_path / "n.csv")])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert "n_max" in capsys.readouterr().err

    def test_partial_failure_exits_three(self, tmp_path, capsys):
        out = str(tmp_path / "hard.csv")
        rc = cli.main([
            "cavity", "--r", "0.999", "--k0d", "300", "--method", "quadrature",
            "--max-evals", "200000", "--out", out,
        ])
        assert rc == 3
        assert os.path.exists(out)


# Data rows written for these commands by the per-row sweep code that the
# column assemblers replaced; each command exits 3. Failed rows, with
# their status, nan and empty cells, must come out byte for byte. The one
# cell allowed to move is ratio_series in an ok row: the frozen values are
# BLAS dot products, whose rounding depends on memory alignment, while the
# series grid sums each row pairwise.
FROZEN_ROWS = {
    ("mirror", "--method", "closed", "--r=-1.5:0.5:5", "--k0d", "1"): [
        "0.15915494309189535,1.0,-1.5,nan,nan,,nan,closed,InvalidParams",
        "0.15915494309189535,1.0,-1.0,0.6445752611157325,,,7.28125e-16,closed,ok",
        "0.15915494309189535,1.0,-0.5,0.8222876305578662,,,5.640625e-16,closed,ok",
        "0.15915494309189535,1.0,0.0,1.0,,,4e-16,closed,ok",
        "0.15915494309189535,1.0,0.5,1.1777123694421339,,,5.640625e-16,closed,ok",
    ],
    ("subwavelength", "--method", "limit", "--r", "0.5:1.0:6", "--k0d", "0.01"): [
        "0.01,0.5,,,2.99976,1.9200000000000003e-08,ok,limit",
        "0.01,0.6,,,3.9994,8.999999999999999e-08,ok,limit",
        "0.01,0.7,,,5.664903703703703,5.484773662551437e-07,ok,limit",
        "0.01,0.8,,,8.9928,5.76000000000001e-06,ok,limit",
        "0.01,0.9,,,18.931600000000003,0.0002462400000000004,ok,limit",
        "0.01,1.0,,,nan,nan,DegenerateMirror,limit",
    ],
    ("cavity", "--method", "series", "--r", "0.5", "--k0d", "0:1:5"): [
        "0.0,0.5,,nan,,nan,InvalidParams,series",
        "0.25,0.5,,2.861458965027396,,5.029151902923583e-09,ok,series",
        "0.5,0.5,,2.5459039826919274,,5.029151902923583e-09,ok,series",
        "0.75,0.5,,2.2048759916416265,,5.029151902923583e-09,ok,series",
        "1.0,0.5,,1.9084091046718004,,5.029151902923583e-09,ok,series",
    ],
    ("cavity", "--method", "series", "--r", "0.5:0.9999:4", "--k0d", "1",
     "--n-max", "50"): [
        "1.0,0.5,,1.9084091045673999,,1.0000000000000002e-14,ok,series",
        "1.0,0.6666333333333333,,2.1629286318776813,,1.0009201938053807e-14,ok,series",
        "1.0,0.8332666666666666,,nan,,nan,TailTooLarge,series",
        "1.0,0.9999,,nan,,nan,TailTooLarge,series",
    ],
    ("cavity", "--method", "all", "--r", "0.999", "--k0d", "250:300:3",
     "--max-evals", "200000"): [
        "250.0,0.999,nan,nan,,nan,NonConvergence,all",
        "275.0,0.999,nan,nan,,nan,NonConvergence,all",
        "300.0,0.999,nan,nan,,nan,NonConvergence,all",
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
        rc = cli.main(["mirror", "--quick"])
        assert rc == 0
        path = outdir / "mirror.csv"
        assert path.exists()
        _, _, rows = read_csv(str(path))
        assert 5 <= len(rows) <= 60

    def test_subwavelength_default_axis_is_reflectivity(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert cli.main(["subwavelength", "--quick", "--out", out]) == 0
        _, header, rows = read_csv(out)
        rs = [float(r[1]) for r in rows]
        assert min(rs) < -0.9
        assert max(rs) > 0.9

    def test_optical_defaults_far_regime(self, tmp_path):
        out = str(tmp_path / "o.csv")
        assert cli.main(["optical", "--quick", "--out", out]) == 0
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

    def test_lindblad_quick(self, tmp_path):
        out = str(tmp_path / "l.csv")
        assert cli.main(["lindblad", "--quick", "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert header == LINDBLAD_HEADER
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_lindblad_n_fock_changes_nothing(self, tmp_path):
        rows = {}
        for n_fock in ("1", "5"):
            out = str(tmp_path / f"l{n_fock}.csv")
            assert cli.main(["lindblad", "--quick", "--n-fock", n_fock,
                             "--out", out]) == 0
            rows[n_fock] = read_csv(out)[2]
        assert rows["1"] == rows["5"]

    def test_figure_command(self, tmp_path):
        outdir = str(tmp_path / "fig")
        assert cli.main(["figure", "subwl_plasmonic_vs_r", "--out", outdir,
                         "--quick"]) == 0
        names = os.listdir(outdir)
        assert "manifest.txt" in names
        assert any(n.endswith(".csv") for n in names)

    def test_unknown_figure_id_is_usage_error(self, capsys):
        assert cli.main(["figure", "not_a_figure"]) == 2


class TestConfigPlumbing:
    def test_dump_config_round_trip(self, tmp_path, capsys):
        args = ["cavity", "--r", "0.8", "--grid", "0.1:10:50:log",
                "--tol", "1e-10"]
        assert cli.main(args + ["--dump-config"]) == 0
        dump1 = capsys.readouterr().out
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(dump1, encoding="utf-8")
        assert cli.main(["cavity", "--config", str(cfg_file),
                         "--dump-config"]) == 0
        dump2 = capsys.readouterr().out
        assert dump1 == dump2

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
    def test_quick_passes(self, capsys):
        assert cli.main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_injected_fault_caught(self, capsys):
        assert cli.main(["validate", "--quick", "--inject-fault", "1e-3"]) == 1
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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mirrorqed", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "mirrorqed" in proc.stdout
