"""End-to-end acceptance battery.

One test per shipped guarantee; each records a single pass/fail line that
the conftest hook replays in the terminal summary. Two guarantees that the
closed forms cannot meet are kept as strict xfails with the measured gap
in the reason string rather than being silently relaxed.
"""

import math
import time

import numpy as np
import pytest

from mirrorqed import (
    cli,
    dynamics,
    gamma_cavity_quadrature,
    gamma_cavity_series,
    gamma_mirror_closed,
    gamma_mirror_quadrature,
    gamma_subwavelength_2nd,
    gamma_subwavelength_limit,
    kernels,
    sweeps,
)

MIRROR_K0D_GRID = (0.01, 0.1, 0.5, 1.0, math.pi, 10.0, 50.0)
MIRROR_RER_GRID = np.round(np.linspace(-1.0, 1.0, 11), 12)
SUBWL_R_SET = (-0.9, -0.5, 0.0, 0.5, 0.9)
OPTICAL_R_SET = (-0.8, -0.6, -0.3, 0.3, 0.6, 0.8)
OPTICAL_K0D_SET = (20.0 * math.pi, 50.0 * math.pi)
ROUTE_R_SET = (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8)
ROUTE_K0D_SET = (0.05, 1.0, math.pi, 10.0, 50.0)


def test_criterion_1_mirror_route_equivalence(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    for k0d in MIRROR_K0D_GRID:
        for re_r in MIRROR_RER_GRID:
            closed = gamma_mirror_closed(float(re_r), k0d).ratio
            quad = gamma_mirror_quadrature(float(re_r), k0d).ratio
            worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    acceptance_log(
        f"criterion 1 {'PASS' if ok else 'FAIL'}: mirror closed form vs "
        f"quadrature, max |diff| = {worst:.3e} < 1e-6 over 7x11 grid "
        f"in {elapsed:.2f} s (< 10 s)"
    )
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_2_mirror_limits(acceptance_log):
    worst_near = max(
        abs(gamma_mirror_closed(float(r), 1e-2).ratio - (1.0 + r))
        for r in MIRROR_RER_GRID
    )
    worst_far = max(
        abs(gamma_mirror_closed(float(r), 50.0).ratio - 1.0)
        for r in MIRROR_RER_GRID
    )
    ok = worst_near < 1e-3 and worst_far < 1e-2
    acceptance_log(
        f"criterion 2 {'PASS' if ok else 'FAIL'}: mirror contact limit "
        f"|ratio - (1+r)| = {worst_near:.3e} < 1e-3; far field "
        f"|ratio - 1| = {worst_far:.3e} < 1e-2"
    )
    assert worst_near < 1e-3
    assert worst_far < 1e-2


def test_criterion_3_subwavelength_forms(acceptance_log):
    worst_limit = 0.0
    for r in SUBWL_R_SET:
        quad = gamma_cavity_quadrature(r, 1e-3).ratio
        target = gamma_subwavelength_limit(r).ratio
        if target != 0.0:
            worst_limit = max(worst_limit, abs(quad - target) / abs(target))
    worst_2nd = 0.0
    for r in SUBWL_R_SET:
        if r == 0.9:
            continue  # see the strict-xfail companion test
        quad = gamma_cavity_quadrature(r, 0.1).ratio
        second = gamma_subwavelength_2nd(r, 0.1).ratio
        worst_2nd = max(worst_2nd, abs(second - quad) / abs(quad))
    ok = worst_limit < 1e-3 and worst_2nd < 5e-3
    acceptance_log(
        f"criterion 3 {'PASS' if ok else 'FAIL'}: contact-limit agreement "
        f"{worst_limit:.3e} < 1e-3 at k0d=1e-3; second-order agreement "
        f"{worst_2nd:.3e} < 5e-3 at k0d=0.1 (r in {{-0.9,-0.5,0,0.5}})"
    )
    assert worst_limit < 1e-3
    assert worst_2nd < 5e-3


@pytest.mark.xfail(
    strict=True,
    reason="at r=0.9, k0d=0.1 the expansion parameter 0.4*r*k0d^2/(1-r)^2 "
    "= 0.36 is not small; the second-order value 12.160 differs from "
    "quadrature 14.568 by 16.5%, so the 0.5% bar is unattainable",
)
def test_criterion_3_second_order_bright_edge(acceptance_log):
    quad = gamma_cavity_quadrature(0.9, 0.1).ratio
    second = gamma_subwavelength_2nd(0.9, 0.1).ratio
    gap = abs(second - quad) / quad
    acceptance_log(
        f"criterion 3 (r=+0.9 second-order) XFAIL: gap {gap:.3%} exceeds "
        f"0.5%; kept as an honest expected failure"
    )
    assert gap < 5e-3


def test_criterion_4_optical_asymptote(acceptance_log):
    t0 = time.perf_counter()
    worst_one = 0.0
    for k0d in OPTICAL_K0D_SET:
        for r in OPTICAL_R_SET:
            ratio = gamma_cavity_quadrature(r, k0d).ratio
            worst_one = max(worst_one, abs(ratio - 1.0))
    worst_route = 0.0
    for k0d in ROUTE_K0D_SET:
        for r in ROUTE_R_SET:
            quad = gamma_cavity_quadrature(r, k0d)
            ser = gamma_cavity_series(r, k0d)
            budget = max(quad.err_estimate + ser.err_estimate, 1e-12)
            worst_route = max(worst_route, abs(quad.ratio - ser.ratio) / budget)
    elapsed = time.perf_counter() - t0
    ok = worst_one < 0.05 and worst_route <= 1.0 and elapsed < 120.0
    acceptance_log(
        f"criterion 4 {'PASS' if ok else 'FAIL'}: optical |ratio - 1| = "
        f"{worst_one:.3e} < 0.05; series vs quadrature within "
        f"{worst_route:.2f}x combined error budget (<= 1); "
        f"{elapsed:.1f} s (< 120 s)"
    )
    assert worst_one < 0.05
    assert worst_route <= 1.0
    assert elapsed < 120.0


def test_criterion_5_kernel_special_values(acceptance_log):
    exact_zero = kernels.f_kernel(0.0) == 2.0 / 3.0
    x0 = kernels.F_TAYLOR_CROSSOVER
    seam = abs(
        kernels.f_kernel(x0 * (1.0 + 1e-12)) - kernels.f_kernel(x0 * (1.0 - 1e-12))
    )
    at_pi = abs(kernels.f_kernel(math.pi) + 1.0 / math.pi**2)
    ok = exact_zero and seam < 1e-12 and at_pi < 1e-12
    acceptance_log(
        f"criterion 5 {'PASS' if ok else 'FAIL'}: f(0) == 2/3 exactly "
        f"({exact_zero}); branch seam {seam:.2e} < 1e-12; "
        f"|f(pi) + 1/pi^2| = {at_pi:.2e} < 1e-12"
    )
    assert exact_zero
    assert seam < 1e-12
    assert at_pi < 1e-12


def test_criterion_6_dichotomy(acceptance_log):
    k0d = 0.05
    violations = []
    for r in np.round(np.linspace(-0.99, 0.99, 21), 12):
        ratio = gamma_cavity_quadrature(float(r), k0d).ratio
        if r > 0 and not ratio > 1.0:
            violations.append((float(r), ratio))
        elif r < 0 and not ratio < 1.0:
            violations.append((float(r), ratio))
        elif r == 0 and abs(ratio - 1.0) > 1e-9:
            violations.append((float(r), ratio))
    bright = gamma_cavity_quadrature(0.9, 0.01).ratio
    ok = not violations and bright > 15.0
    acceptance_log(
        f"criterion 6 {'PASS' if ok else 'FAIL'}: enhancement iff r > 0 on "
        f"21-point grid at k0d=0.05 ({len(violations)} violations); "
        f"ratio(0.9, 0.01) = {bright:.2f} > 15"
    )
    assert violations == []
    assert bright > 15.0


def test_criterion_7_dynamics(acceptance_log):
    params = dynamics.ModelParams(g=1.0, kappa=20.0, gamma=1.0)
    traj = dynamics.evolve_jc(
        params, dynamics.AtomCavityState.excited_vacuum(), t_final=10.0, dt=5e-4
    )
    trace_err = traj.trace_error
    herm_err = traj.hermiticity_error

    lossless = dynamics.evolve_jc(
        dynamics.ModelParams(g=1.0, kappa=0.0, gamma=0.0),
        dynamics.AtomCavityState.excited_vacuum(),
        t_final=3.0,
        dt=5e-4,
    )
    exc = lossless.excitation_number
    exc_drift = float(np.max(np.abs(exc - exc[0])))

    t_grid = np.linspace(0.0, 3.0, 31)
    ens = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), 10_000, 20260819, t_grid)
    target = np.exp(-t_grid)
    with np.errstate(invalid="ignore", divide="ignore"):
        sigmas = np.abs(ens.excited_population - target) / ens.stderr
    jump_score = float(np.nanmax(sigmas[1:]))

    fitted = dynamics.fit_decay_rate(traj.times, traj.excited_population, 1.0, 6.0)
    target_rate = dynamics.effective_decay_rate(params)
    rate_gap = abs(fitted - target_rate) / target_rate

    ok = (
        trace_err < 1e-9
        and herm_err < 1e-10
        and exc_drift < 1e-8
        and jump_score < 3.0
        and rate_gap < 0.05
    )
    acceptance_log(
        f"criterion 7 {'PASS' if ok else 'FAIL'}: trace drift "
        f"{trace_err:.1e} < 1e-9; hermiticity {herm_err:.1e} < 1e-10; "
        f"excitation drift {exc_drift:.1e} < 1e-8; jump mean within "
        f"{jump_score:.2f} stderr (< 3) at n_traj=10^4; fitted rate "
        f"{fitted:.4f} within {rate_gap:.2%} of gamma + 4g^2/kappa (< 5%)"
    )
    assert trace_err < 1e-9
    assert herm_err < 1e-10
    assert exc_drift < 1e-8
    assert jump_score < 3.0
    assert rate_gap < 0.05


@pytest.mark.xfail(
    strict=True,
    reason="the slow decay eigenvalue at (g, kappa, gamma) = (1, 20, 1) is "
    "1.2129, which is 10.3% from the 1.1 = gamma*(1 + 2*g^2/(kappa*gamma)) "
    "target; the adiabatic rate is gamma + 4g^2/kappa = 1.2 (1.1% off)",
)
def test_criterion_7_half_weight_rate_target(acceptance_log):
    params = dynamics.ModelParams(g=1.0, kappa=20.0, gamma=1.0)
    traj = dynamics.evolve_jc(
        params, dynamics.AtomCavityState.excited_vacuum(), t_final=8.0, dt=1e-3
    )
    fitted = dynamics.fit_decay_rate(traj.times, traj.excited_population, 1.0, 6.0)
    half_weight = params.gamma * (
        1.0 + 2.0 * params.g**2 / (params.kappa * params.gamma)
    )
    gap = abs(fitted - half_weight) / half_weight
    acceptance_log(
        f"criterion 7 (half-weight target) XFAIL: fitted {fitted:.4f} is "
        f"{gap:.1%} from {half_weight:.2f}; kept as an honest expected failure"
    )
    assert gap < 0.05


def test_criterion_8_csv_determinism(acceptance_log, tmp_path):
    payloads = {}
    for tag in ("first", "second"):
        mirror_out = str(tmp_path / f"{tag}_mirror.csv")
        lind_out = str(tmp_path / f"{tag}_lindblad.csv")
        rate_cfg = sweeps.SweepConfig(
            target="mirror", r=-1.0, d_over_lambda0=sweeps.Range(0.0, 2.0, 11),
            out=mirror_out,
        )
        lind_cfg = sweeps.SweepConfig(
            target="lindblad", t=sweeps.Range(0.0, 2.0, 6), n_traj=200,
            seed=777, out=lind_out,
        )
        assert sweeps.run_sweep(rate_cfg) == 0
        assert sweeps.run_sweep(lind_cfg) == 0
        blob = open(mirror_out, "rb").read() + open(lind_out, "rb").read()
        payloads[tag] = blob.replace(tag.encode(), b"run")
    ok = payloads["first"] == payloads["second"]
    acceptance_log(
        f"criterion 8 {'PASS' if ok else 'FAIL'}: byte-identical CSV output "
        f"across two runs (rate sweep and seeded lindblad sweep)"
    )
    assert ok


def test_criterion_9_validate_subcommand(acceptance_log, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["validate"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    n_checks = out.count("PASS")
    ok = rc == 0 and elapsed < 300.0
    acceptance_log(
        f"criterion 9 {'PASS' if ok else 'FAIL'}: `validate` exit code "
        f"{rc} with {n_checks} passing checks in {elapsed:.1f} s (< 300 s)"
    )
    assert rc == 0
    assert elapsed < 300.0
