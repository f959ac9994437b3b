"""Self-validation: every library invariant measured and reported.

run_validation executes the whole battery (closed form vs quadrature
oracles, limit recovery, series route equivalence, kernel properties,
master-equation conservation laws, jump-ensemble statistics, CSV
determinism) and returns a report with one measured deviation per
check and the time of each check group. The CLI validate subcommand
prints it and maps the outcome to an exit code. fault_injection perturbs
the f kernel additively so the sensitivity of the oracle checks can be
demonstrated.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import cavity as cavity_mod
from . import dynamics as dyn
from . import freespace, geometry, kernels
from . import mirror as mirror_mod
from .errors import InvalidParams

__all__ = ["CheckResult", "ValidationReport", "run_validation"]

_MIRROR_K0D_GRID = (0.01, 0.1, 0.5, 1.0, math.pi, 10.0, 50.0)
_MIRROR_RER_GRID = tuple(np.round(np.linspace(-1.0, 1.0, 11), 12))
_ROUTE_R = (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8)
_ROUTE_K0D = (0.05, 1.0, math.pi, 10.0, 50.0)
_SUBWL_R = (-0.9, -0.5, 0.0, 0.5, 0.9)
_OPTICAL_R = (-0.8, -0.6, -0.3, 0.3, 0.6, 0.8)
_OPTICAL_K0D = (20.0 * math.pi, 50.0 * math.pi)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag}  {self.name:<38s} measured={self.measured:<12.4e} "
                f"threshold={self.threshold:<10.3e} {self.detail}")


@dataclass(frozen=True)
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    #: (group, seconds) of each check group, in the order they ran
    timings: list[tuple[str, float]] = field(default_factory=list)
    fault_injection: float = 0.0

    @property
    def elapsed_seconds(self) -> float:
        return sum(seconds for _, seconds in self.timings)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"validation ({len(self.checks)} checks)"]
        if self.fault_injection:
            lines.append(f"fault injection active: f kernel perturbed by "
                         f"{self.fault_injection:g}")
        lines.extend(c.line() for c in self.checks)
        # never PASS or FAIL first: a line that starts so is a check
        lines.extend(f"time  {group:<38s} {seconds:.3f} s"
                     for group, seconds in self.timings)
        verdict = "all checks passed" if self.passed else (
            f"{self.n_failed} of {len(self.checks)} checks FAILED")
        lines.append(f"{verdict} in {self.elapsed_seconds:.1f} s")
        return "\n".join(lines)


def _below(name, measured, threshold, detail="") -> CheckResult:
    return CheckResult(name=name, passed=bool(measured <= threshold),
                       measured=float(measured), threshold=float(threshold),
                       detail=detail)


def _above(name, measured, threshold, detail="") -> CheckResult:
    return CheckResult(name=name, passed=bool(measured > threshold),
                       measured=float(measured), threshold=float(threshold),
                       detail=detail)


# ---------------------------------------------------------------------------
# check groups; each yields CheckResult objects
# ---------------------------------------------------------------------------


def _geometry_checks():
    rng = np.random.default_rng(7041995)
    n = 256
    thetas = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, n)
    phis = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, n)
    xi = rng.uniform(-1.0, 1.0, n)
    s = np.array([np.cos(thetas), np.cos(phis) * np.sin(thetas),
                  np.sin(phis) * np.sin(thetas)])
    worst_complete = worst_phi = 0.0
    for v in rng.normal(size=(64, 3)):
        d = geometry.DipoleOrientation(vec=v)
        total = geometry.transverse_weight_sum(d, thetas, phis) + (d.vec @ s) ** 2
        worst_complete = max(worst_complete,
                             float(np.max(np.abs(total - 1.0))))
        # 16 phi nodes integrate this degree-2 trigonometric weight exactly
        trapezoid = (math.pi / 8) * geometry.transverse_weight_sum(
            d, np.arccos(xi)[:, None], (math.pi / 8) * np.arange(16)).sum(axis=1)
        closed = 2.0 * math.pi * geometry.phi_mean_weight(d, xi)
        worst_phi = max(worst_phi, float(np.max(np.abs(trapezoid - closed))))
    yield _below("geometry-weight-completeness", worst_complete, 1e-12,
                 "w_h + w_v + (d . s)^2 = 1, 64 random dipoles, unfolded "
                 "angles")
    yield _below("geometry-phi-average", worst_phi, 1e-12,
                 "16-node phi trapezoid vs 2 pi * phi_mean_weight")

    th = rng.uniform(0.0, math.pi, n)
    ph = rng.uniform(0.0, 2.0 * math.pi, n)
    dhat = geometry.DipoleOrientation()
    total = geometry.transverse_weight_sum(dhat, th, ph)
    expected = np.cos(ph) ** 2 + np.sin(ph) ** 2 * np.cos(th) ** 2
    yield _below("geometry-weight-identity",
                 float(np.max(np.abs(total - expected))), 1e-12,
                 "summed polarization weight, default dipole")

    val, _ = geometry.solid_angle_integrate(
        lambda xi, p: np.ones_like(xi), tol=1e-12)
    yield _below("quadrature-sphere-area",
                 abs(val.real - 4.0 * math.pi) / (4.0 * math.pi), 1e-12,
                 "unit integrand vs 4 pi")
    val, _ = geometry.solid_angle_integrate(
        lambda xi, p: geometry.phi_mean_weight(dhat, xi), tol=1e-12)
    yield _below("quadrature-transverse-weight",
                 abs(val.real - 8.0 * math.pi / 3.0) / (8.0 * math.pi / 3.0),
                 1e-12, "transverse weight vs 8 pi / 3")


def _freespace_checks():
    em = freespace.EmitterSpec(omega0=2.0 * math.pi * 4e14,
                               dipole_magnitude=1e-10)
    si = freespace.gamma_free_si(em)
    qd = freespace.gamma_free_quadrature(em)
    yield _below("freespace-quadrature-ratio", abs(qd / si - 1.0), 1e-9,
                 "angular integral vs closed form")

    rates = []
    for vec in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -0.4, 0.5)):
        em2 = freespace.EmitterSpec(
            omega0=em.omega0, dipole_magnitude=em.dipole_magnitude,
            dhat=geometry.DipoleOrientation(vec=np.array(vec)))
        rates.append(freespace.gamma_free_quadrature(em2))
    spread = (max(rates) - min(rates)) / si
    yield _below("freespace-isotropy", spread, 1e-9,
                 "rate independent of dipole orientation")


def _f_kernel_checks():
    yield _below("fkernel-zero", abs(kernels.f_kernel(0.0) - 2.0 / 3.0), 0.0,
                 "exact limit value at x = 0")
    x0 = kernels.F_TAYLOR_CROSSOVER
    gap = abs(kernels.f_kernel(x0 * (1.0 - 1e-12))
              - kernels.f_kernel(x0 * (1.0 + 1e-12)))
    yield _below("fkernel-branch-continuity", gap, 1e-12,
                 f"straddling the crossover at |x| = {x0:g}")
    yield _below("fkernel-at-pi",
                 abs(kernels.f_kernel(math.pi) + 1.0 / math.pi ** 2), 1e-12,
                 "f(pi) vs -1/pi^2")
    xs = np.linspace(-30.0, 30.0, 2401)
    yield _below("fkernel-peak-bound",
                 float(np.max(np.abs(kernels.f_kernel(xs)))), 2.0 / 3.0,
                 "global maximum sits at x = 0")


def _mirror_checks():
    k0d = np.array(_MIRROR_K0D_GRID)[:, None]
    c = mirror_mod.gamma_mirror_closed(_MIRROR_RER_GRID, k0d)
    q = mirror_mod.gamma_mirror_quadrature(_MIRROR_RER_GRID, k0d)
    gap = np.abs(c.ratio - q.ratio)
    worst_ratio = np.max(gap / np.maximum(q.err_estimate + c.err_estimate,
                                          1e-300))
    yield _below("mirror-oracle-grid", np.max(gap), 1e-6,
                 f"|closed - quadrature| over {c.ratio.size} cells")
    yield _below("mirror-quad-err-conservative", worst_ratio, 1.0,
                 "actual route gap vs reported error estimates")

    re_r = np.array(_MIRROR_RER_GRID)
    worst = np.max(np.abs(mirror_mod.gamma_mirror_closed(re_r, 1e-2).ratio
                          - (1.0 + re_r)))
    yield _below("mirror-near-field", worst, 1e-3,
                 "contact limit 1 + re_r at k0d = 1e-2")
    worst = np.max(np.abs(mirror_mod.gamma_mirror_closed(re_r, 50.0).ratio
                          - 1.0))
    yield _below("mirror-far-field", worst, 1e-2,
                 "free-space recovery at k0d = 50")

    re_r = np.array([-1.0, -0.5, 0.5, 1.0])[:, None]
    k0d = np.array([0.05, 0.7, 3.0, 12.0, 80.0])
    ratio = mirror_mod.gamma_mirror_closed(re_r, k0d).ratio
    bound = 1.5 * np.abs(re_r) * np.minimum(2.0 / 3.0,
                                            kernels.f_envelope(2.0 * k0d))
    worst = np.max(np.abs(ratio - 1.0) / bound)
    if not np.all((0.0 <= ratio) & (ratio <= 2.0)):
        worst = math.inf
    yield _below("mirror-envelope-and-range", worst, 1.0,
                 "|ratio - 1| within kernel envelope; ratio in [0, 2]")


def _cavity_checks():
    rs = np.linspace(-0.95, 0.95, 39)
    expect = (1.0 + rs) / (1.0 - rs)
    worst_id = np.max(np.abs(cavity_mod.interference_kernel(rs, 0.0) - expect)
                      / expect)
    yield _below("cavity-kernel-dc-identity", worst_id, 1e-12,
                 "kernel at x = 0 vs (1+r)/(1-r)")

    rng = np.random.default_rng(424242)
    rs = rng.uniform(-0.98, 0.98, 64)
    xs = rng.uniform(0.0, 40.0, 64)
    kmin = float(np.min(cavity_mod.interference_kernel(rs[:, None], xs)))
    yield CheckResult(name="cavity-kernel-positive", passed=kmin > 0.0,
                      measured=kmin, threshold=0.0,
                      detail="kernel minimum over random battery (must be > 0)")

    rs = np.array(_ROUTE_R)
    k0ds = np.array(_ROUTE_K0D)
    q = cavity_mod.gamma_cavity_quadrature(rs[:, None], k0ds)
    s = cavity_mod.gamma_cavity_series(rs[:, None], k0ds)
    budget = np.maximum(q.err_estimate + s.err_estimate, 1e-12)
    score = np.abs(q.ratio - s.ratio) / budget
    i, j = np.unravel_index(np.argmax(score), score.shape)
    yield _below("cavity-route-equivalence", score[i, j], 1.0,
                 f"series vs quadrature over combined error; worst at "
                 f"r={rs[i]:g} k0d={k0ds[j]:g}")

    rs = np.array(_SUBWL_R)
    ratio = cavity_mod.gamma_cavity_quadrature(rs, 1e-3).ratio
    lim = cavity_mod.gamma_subwavelength_limit(rs).ratio
    yield _below("cavity-subwavelength-limit",
                 np.max(np.abs(ratio - lim) / np.abs(lim)), 1e-3,
                 "quadrature at k0d = 1e-3 vs (1+r)/(1-r)")

    # the last cell, r = +0.9, sits past the expansion's reach
    rs = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
    q = cavity_mod.gamma_cavity_quadrature(rs, 0.1).ratio
    second = cavity_mod.gamma_subwavelength_2nd(rs, 0.1)
    worst = np.max(np.abs(second.ratio[:-1] - q[:-1]) / np.abs(q[:-1]))
    yield _below("cavity-subwavelength-2nd", worst, 5e-3,
                 "second order vs quadrature at k0d = 0.1, |r| <= 0.9 "
                 "excluding +0.9")
    yield _below("cavity-2nd-order-err-scale", abs(second.ratio[-1] - q[-1]),
                 1.2 * second.err_estimate[-1],
                 "r = +0.9, k0d = 0.1: truncation error within its own "
                 "next-order estimate")

    q = cavity_mod.gamma_cavity_quadrature(np.array(_OPTICAL_R)[:, None],
                                           _OPTICAL_K0D)
    yield _below("cavity-optical-asymptote", np.max(np.abs(q.ratio - 1.0)),
                 0.05, "free-space recovery at k0d in {20 pi, 50 pi}")

    k0ds = (0.01, 0.05, 0.09)
    # rounding pins the center of the symmetric grid to exactly r = 0
    rs = np.round(np.linspace(-0.99, 0.99, 21), 12)
    ratio = cavity_mod.gamma_cavity_quadrature(rs[:, None], k0ds).ratio
    zero = rs == 0.0
    min_margin = np.min(np.sign(rs[~zero])[:, None] * (ratio[~zero] - 1.0))
    yield _above("cavity-dichotomy-sign", min_margin, 0.0,
                 "sign(r) * (ratio - 1) over 21-point r grid, k0d < 0.1")
    yield _below("cavity-dichotomy-neutral",
                 np.max(np.abs(ratio[zero] - 1.0)), 1e-9,
                 "ratio at r = 0 stays 1")
    ratio = cavity_mod.gamma_cavity_quadrature(0.9, 0.01).ratio
    yield _above("cavity-purcell-peak", ratio, 15.0,
                 "enhancement at r = 0.9, k0d = 0.01")


def _dynamics_checks(seed: int):
    params = dyn.ModelParams(g=1.0, kappa=20.0, gamma=1.0)
    run = dyn.evolve_jc(params, dyn.AtomCavityState.excited_vacuum(),
                        10.0, 5e-4)
    yield _below("dynamics-trace-preservation", run.trace_error, 1e-9,
                 "10/gamma run, dt = 5e-4")
    yield _below("dynamics-hermiticity", run.hermiticity_error, 1e-10,
                 "same run")
    low, high = run.population_bounds
    # 0.0 first, so a minimum of 0.0 reports +0.0 rather than -0.0
    bound_violation = max(0.0, -low, high - 1.0)
    yield _below("dynamics-population-bounds", bound_violation, 1e-9,
                 "diagonal entries within [0, 1]")
    yield _below("dynamics-top-fock-occupation", run.top_fock_max, 1e-8,
                 "Fock truncation margin")
    fit = dyn.fit_decay_rate(run.times, run.excited_population, 1.0, 6.0)
    eff = dyn.effective_decay_rate(params)
    yield _below("dynamics-adiabatic-fit", abs(fit - eff) / eff, 0.05,
                 f"fitted {fit:.6f} vs adiabatic rate {eff:g} at C = 0.05")

    closed = dyn.ModelParams(g=1.0, kappa=0.0, gamma=0.0)
    run2 = dyn.evolve_jc(closed, dyn.AtomCavityState.excited_vacuum(),
                         10.0, 0.01)
    drift = float(np.max(np.abs(run2.excitation_number - 1.0)))
    yield _below("dynamics-excitation-conservation", drift, 1e-8,
                 "kappa = gamma = 0 keeps one excitation")
    rabi = float(np.max(np.abs(run2.excited_population
                               - np.cos(run2.times) ** 2)))
    yield _below("dynamics-rabi-exchange", rabi, 1e-7,
                 "coherent oscillation vs cos^2(g t)")

    run3 = dyn.evolve_jc(dyn.ModelParams(g=0.0, kappa=3.0, gamma=1.0),
                         dyn.AtomCavityState.excited_vacuum(), 5.0, 0.01)
    dec = float(np.max(np.abs(run3.excited_population
                              - np.exp(-run3.times))))
    yield _below("dynamics-decoupled-decay", dec, 1e-8,
                 "g = 0 atom decays at bare gamma")

    one = dyn.model_discrepancy(params, eff, run.times[::100]).pop_jc
    gap = float(np.max(np.abs(run.excited_population[::100] - one)))
    yield _below("dynamics-one-excitation-vs-liouvillian", gap, 1e-12,
                 "full Liouvillian vs 2x2 no-jump amplitudes, first run")

    tr = dyn.evolve_single_rate(1.0, np.diag([0.0, 1.0]), 1.0)
    e1 = abs(tr.excited_population[-1] - math.exp(-1.0))
    tr2 = dyn.evolve_single_rate(2.0, np.array([[0.5, 0.5], [0.5, 0.5]]), 1.0)
    e2 = abs(tr2.coherence[-1] - 0.5 * math.exp(-1.0))
    yield _below("dynamics-single-rate-exact", max(e1, e2), 1e-12,
                 "closed-form population and coherence at t = 1")

    grid = np.linspace(0.0, 3.0, 31)
    n_traj = 1000
    ens = dyn.unravel_jumps(1.0, np.diag([0.0, 1.0]), n_traj, seed, grid)
    ana = np.exp(-grid)
    dev = np.abs(ens.excited_population - ana)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(ens.stderr > 0.0, dev / ens.stderr,
                         np.where(dev > 0.0, np.inf, 0.0))
    yield _below("jumps-match-single-rate", float(np.max(score)), 3.0,
                 f"ensemble mean vs analytic decay, n_traj = {n_traj}")

    ens2 = dyn.unravel_jumps(1.0, np.diag([0.0, 1.0]), n_traj, seed, grid)
    same = (np.array_equal(ens.excited_population, ens2.excited_population)
            and np.array_equal(ens.jump_times, ens2.jump_times))
    yield CheckResult(name="jumps-deterministic", passed=same,
                      measured=0.0 if same else 1.0, threshold=0.0,
                      detail="identical seed reproduces identical ensemble")

    small = dyn.unravel_jumps(1.0, np.diag([0.0, 1.0]), 500, seed, grid)
    big = dyn.unravel_jumps(1.0, np.diag([0.0, 1.0]), 2000, seed, grid)
    ratio = float(np.mean(big.stderr[1:] / small.stderr[1:]))
    yield _below("jumps-stderr-scaling", abs(ratio - 0.5) / 0.5, 0.2,
                 "quadrupling n_traj halves stderr")

    c = 0.01
    p_weak = dyn.ModelParams(g=1.0, kappa=100.0, gamma=1.0)
    disc = dyn.model_discrepancy(p_weak, 1.0 * (1.0 + 2.0 * c),
                                 np.linspace(0.0, 10.0, 51))
    yield _below("dynamics-discrepancy-weak", disc.max_abs, 0.02,
                 "two models agree at C = 0.01")
    disc0 = dyn.model_discrepancy(dyn.ModelParams(g=0.0, kappa=1.0,
                                                  gamma=1.0),
                                  1.0, np.linspace(0.0, 5.0, 26))
    yield _below("dynamics-discrepancy-decoupled", disc0.max_abs, 1e-8,
                 "models coincide when g = 0")
    p_strong = dyn.ModelParams(g=10.0, kappa=10.0, gamma=1.0)
    disc2 = dyn.model_discrepancy(p_strong, 1.0, np.linspace(0.0, 10.0, 51))
    yield _above("dynamics-discrepancy-strong", disc2.max_abs, 0.1,
                 "single rate misses Rabi oscillations at C = 10")


def _csv_checks(seed: int):
    from . import sweeps

    with tempfile.TemporaryDirectory(prefix="mirrorqed-validate-") as tmp:
        pairs = []
        mirror_cfg = sweeps.SweepConfig(
            target="mirror", r=-1.0,
            d_over_lambda0=sweeps.Range(0.01, 1.0, 11), method="all",
            seed=seed, out=os.path.join(tmp, "m0.csv"))
        pairs.append(("mirror", mirror_cfg))
        lind_cfg = sweeps.SweepConfig(
            target="lindblad", t=sweeps.Range(0.0, 1.0, 6), n_traj=200,
            seed=seed, out=os.path.join(tmp, "l0.csv"))
        pairs.append(("lindblad", lind_cfg))

        mismatches = 0
        details = []
        for label, cfg in pairs:
            code1 = sweeps.run_sweep(cfg)
            with open(cfg.out, "rb") as fh:
                first = fh.read()
            code2 = sweeps.run_sweep(cfg)
            with open(cfg.out, "rb") as fh:
                second = fh.read()
            ok = first == second and code1 == code2 == 0
            if not ok:
                mismatches += 1
            details.append(f"{label}:{len(first)}B")
        yield CheckResult(name="csv-determinism", passed=mismatches == 0,
                          measured=float(mismatches), threshold=0.0,
                          detail="byte-identical reruns " + " ".join(details))


def run_validation(fault_injection: float = 0.0,
                   seed: int = 20260819) -> ValidationReport:
    """Run every check; returns the report (never raises on check failure).

    A negative seed raises InvalidParams before any check runs.
    """
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed!r}")
    original_f = kernels.f_kernel
    if fault_injection:
        def faulty(x, _orig=original_f, _eps=fault_injection):
            return _orig(x) + _eps
        kernels.f_kernel = faulty
    checks: list[CheckResult] = []
    timings: list[tuple[str, float]] = []
    try:
        for group in (_geometry_checks(), _freespace_checks(),
                      _f_kernel_checks(), _mirror_checks(), _cavity_checks(),
                      _dynamics_checks(seed), _csv_checks(seed)):
            start = time.perf_counter()
            checks.extend(group)
            timings.append((group.__name__.strip("_"),
                            time.perf_counter() - start))
    finally:
        kernels.f_kernel = original_f
    return ValidationReport(checks=checks, timings=timings,
                            fault_injection=fault_injection)
