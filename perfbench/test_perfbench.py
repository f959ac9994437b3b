"""Tests of the benchmark's checkers, references and workload definitions.

Run with ``python -m pytest perfbench``; they import nothing from
mirrorqed.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

CAVITY_HEADER = ("k0d,r_mir,ratio_quadrature,ratio_series,ratio_limit_2nd,"
                 "err_estimate,status,method")
MIRROR_HEADER = ("d_over_lambda0,k0d,re_r,ratio_closed,ratio_quadrature,"
                 "abs_diff,err_estimate,method,status")


def _csv(header: str, *rows) -> str:
    lines = ["# target = test", header]
    lines += [",".join("" if c is None else str(c) for c in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _cavity(rows, method="all", tag="resonant"):
    return check.check_cavity("t", _csv(CAVITY_HEADER, *rows), tag,
                              random.Random(0), method, 1e-9, 1e-8,
                              sample=len(rows))


RES_R, RES_K0D, RES_ERR = 0.5, 1.0, 1e-9


@pytest.fixture(scope="module")
def res_ref():
    return refs.cavity_ratio(RES_R, RES_K0D)[0]


def test_cavity_row_at_its_reference_passes(res_ref):
    tally = _cavity([(RES_K0D, RES_R, res_ref, res_ref, None, RES_ERR, "ok",
                      "all")])
    assert (tally.attempted, tally.failed, tally.problems) == (1, 0, [])


@pytest.mark.parametrize("column", [2, 3])
def test_ratio_moved_by_ten_err_estimates_is_rejected(res_ref, column):
    row = [RES_K0D, RES_R, res_ref, res_ref, None, RES_ERR, "ok", "all"]
    row[column] = res_ref + 10 * RES_ERR
    tally = _cavity([tuple(row)])
    assert len(tally.problems) == 1
    assert "|diff|" in tally.problems[0]


def test_mirror_ratio_moved_by_ten_err_estimates_is_rejected():
    re_r, k0d, err = -1.0, 0.7, 1e-12
    ref = refs.mirror_ratio(re_r, k0d)[0]
    good = (k0d / (2 * math.pi), k0d, re_r, ref, ref, 0.0, err, "all", "ok")
    bad = good[:3] + (ref + 10 * err, ref, 10 * err) + good[6:]
    text = _csv(MIRROR_HEADER, good, bad)
    tally = check.check_mirror("m", text, "all", random.Random(0))
    assert tally.attempted == 2 and tally.failed == 0
    assert len(tally.problems) == 1 and "row 1" in tally.problems[0]


def test_negative_ratio_is_rejected():
    # the second-order column at r = 0.98, k0d = 0.11: its own formula,
    # within its own huge err_estimate, but negative
    r, k0d = 0.98, 0.11
    value = refs.second_order(r, k0d)[0]
    assert value < 0
    tally = _cavity([(k0d, r, None, None, value, 1.39e4, "ok", "limit")],
                    method="limit", tag="dense")
    assert len(tally.problems) == 1 and "negative" in tally.problems[0]


def test_np_float64_cell_counts_as_failed_without_crashing(res_ref):
    cell = "np.float64(0.004)"
    tally = _cavity([(RES_K0D, RES_R, res_ref, res_ref, None, cell, "ok",
                      "all")])
    assert (tally.attempted, tally.failed, tally.problems) == (1, 1, [])


def test_np_float64_row_still_has_its_ratios_checked(res_ref):
    cell = "np.float64(1e-09)"
    tally = _cavity([(RES_K0D, RES_R, res_ref + 1e-6, res_ref, None, cell,
                      "ok", "all")])
    assert tally.failed == 1 and len(tally.problems) == 1


def test_failed_status_counts_as_failed():
    tally = _cavity([(RES_K0D, RES_R, "nan", "nan", None, "nan",
                      "NonConvergence", "all")])
    assert (tally.attempted, tally.failed, tally.problems) == (1, 1, [])


def _lindblad_text(g, kappa, gamma, n_traj, jc_shift=0.0, mean_shift=0.0):
    times = np.linspace(0.0, 3.0, 11)
    jc = refs.jc_excited_population(g, kappa, gamma, times)
    single = refs.single_rate_population(g, kappa, gamma, times)
    rows = []
    for t, p_jc, p in zip(times, jc, single):
        m = min(1.0, round(p * n_traj) / n_traj + mean_shift)
        se = math.sqrt(m * (1 - m) / (n_traj - 1))
        rows.append(tuple(repr(float(x)) for x in (t, p_jc + jc_shift, p, m,
                                                   se)) + ("lindblad", "ok"))
    header = ("t,pop_jc,pop_single_rate,pop_jump_mean,pop_jump_stderr,"
              "method,status")
    return _csv(header, *rows)


def test_lindblad_rows_at_their_references_pass():
    text = _lindblad_text(1.0, 100.0, 1.0, 100_000)
    tally = check.check_lindblad("l", text, 1.0, 100.0, 1.0, 100_000)
    assert (tally.attempted, tally.failed, tally.problems) == (11, 0, [])


def test_lindblad_jc_off_by_1e6_is_rejected():
    text = _lindblad_text(10.0, 10.0, 1.0, 100_000, jc_shift=1e-6)
    tally = check.check_lindblad("l", text, 10.0, 10.0, 1.0, 100_000)
    assert any("pop_jc" in p for p in tally.problems)


def test_lindblad_jump_mean_off_by_many_sigmas_is_rejected():
    text = _lindblad_text(1.0, 100.0, 1.0, 100_000, mean_shift=0.01)
    tally = check.check_lindblad("l", text, 1.0, 100.0, 1.0, 100_000)
    assert any("pop_jump_mean" in p for p in tally.problems)


def test_validate_fail_line_counts_as_failed():
    text = ("validation (full mode, 2 checks)\n"
            "PASS  a   measured=1.0e-13 threshold=1e-12\n"
            "FAIL  b   measured=1.0e-3 threshold=1e-12\n"
            "1 of 2 checks FAILED in 1.0 s\n")
    tally = check.check_validate("v", text, 1)
    assert (tally.attempted, tally.failed, tally.problems) == (2, 1, [])
    assert check.check_validate("v", text, 0).problems


def test_reference_cavity_ratio_limits():
    assert refs.cavity_ratio(0.0, 3.0)[0] == pytest.approx(1.0, abs=1e-15)
    r = 0.7
    assert refs.cavity_ratio(r, 1e-4)[0] == pytest.approx((1 + r) / (1 - r),
                                                          rel=1e-6)


def test_reference_master_equation_limits():
    times = np.linspace(0.0, 2.0, 9)
    rabi = refs.jc_excited_population(1.0, 0.0, 0.0, times)
    assert np.allclose(rabi, np.cos(times) ** 2, atol=1e-12)
    bare = refs.jc_excited_population(0.0, 3.0, 1.0, times)
    assert np.allclose(bare, np.exp(-times), atol=1e-12)


def test_workloads_are_built_from_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    a = workloads.build("quadrature_regimes", 1)
    b = workloads.build("quadrature_regimes", 2)
    assert [p.args for p in a] != [p.args for p in b]
    # the clamped sweeps, whose rows fail, do not depend on the seed
    fixed = ("high_finesse_high", "optical")
    assert ([p.args for p in a if p.name.startswith(fixed)]
            == [p.args for p in b if p.name.startswith(fixed)])


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert child.stdout.strip() == ""
