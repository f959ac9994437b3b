"""Public-API inputs outside the domain end in InvalidParams.

Each call below once returned a wrong value silently, warned, or raised
an untyped error (OverflowError, ValueError, TypeError). A nan or inf
entry compared false against every density-matrix check, so a nan
population gave populations of 0 or 1 and an inf coherence passed. A
max_evals of nan or inf passed the budget gate, which then admitted
every level, and one past the memory budget asked numpy for terabytes
of panel edges, a bare ValueError or MemoryError. A bool was read as 1
or 0 by most arguments, and a string or None met a bare TypeError or
ValueError in a comparison or a conversion. None of these calls
evaluates an integrand. The sweep config refuses the same inputs with
ConfigError (CONFIG_CASES).
"""

import math
import warnings

import numpy as np
import pytest

from mirrorqed import (cavity, dynamics, errors, freespace, geometry, kernels,
                       mirror, sweeps, validation)

NAN_POPULATION = [[math.nan, 0.0], [0.0, 1.0]]
INF_COHERENCE = [[0.5, math.inf], [math.inf, 0.5]]
GRID = [0.0, 0.5, 1.0]
EXCITED = np.diag([0.0, 1.0])


def _jumps(rho=((0.0, 0.0), (0.0, 1.0)), n_traj=10, seed=1):
    return dynamics.unravel_jumps(1.0, np.array(rho), n_traj, seed, GRID)


def _evolve_jc(rho_atom):
    state = dynamics.AtomCavityState.from_atom(rho_atom, n_fock=2)
    return dynamics.evolve_jc(dynamics.ModelParams(1.0, 20.0, 1.0), state,
                              1.0, 1e-3)


def _evolve(t_final=1.0, dt=1e-3, params=(1.0, 20.0, 1.0)):
    return dynamics.evolve_jc(dynamics.ModelParams(*params),
                              dynamics.AtomCavityState.excited_vacuum(),
                              t_final, dt)


def _fit(times=(0.0, 1.0), pops=(1.0, 0.5), t_min=0.0, t_max=1.0):
    return dynamics.fit_decay_rate(times, pops, t_min, t_max)


def _free_rate(omega0, dipole_magnitude):
    return freespace.gamma_free_si(freespace.EmitterSpec(
        omega0=omega0, dipole_magnitude=dipole_magnitude))


def _dipole(*vec):
    return geometry.DipoleOrientation(vec=np.array(vec))


def _never(*args):
    raise AssertionError("integrand evaluated")


# An oscillating integrand that a budget of 3000 stops at 1,984
# evaluations, and that a nan budget let spend 4,194,240.
def _engine(max_evals=geometry.DEFAULT_MAX_EVALS, tol=geometry.ERR_FLOOR):
    return geometry.solid_angle_integrate(_never, tol=tol,
                                          max_evals=max_evals)


BUDGETS = {"nan": math.nan, "inf": math.inf, "minus-inf": -math.inf,
           "fractional": 1.5, "none": None}

CASES = {
    "unravel_jumps-nan-population": lambda: _jumps(NAN_POPULATION),
    "unravel_jumps-inf-coherence": lambda: _jumps(INF_COHERENCE),
    "evolve_single_rate-nan-population": lambda: dynamics.evolve_single_rate(
        1.0, NAN_POPULATION, 1.0),
    "evolve_single_rate-inf-coherence": lambda: dynamics.evolve_single_rate(
        1.0, INF_COHERENCE, 1.0),
    "evolve_jc-nan-population": lambda: _evolve_jc(NAN_POPULATION),
    "dipole-inf": lambda: _dipole(math.inf, 0.0, 1.0),
    "dipole-minus-inf": lambda: _dipole(0.0, -math.inf, 0.0),
    "emitter-omega0-inf": lambda: _free_rate(math.inf, 1e-10),
    "emitter-dipole-magnitude-inf": lambda: _free_rate(2.5e15, math.inf),
    "emitter-omega0-1e200": lambda: _free_rate(1e200, 1e-10),
    "emitter-dipole-magnitude-1e200": lambda: _free_rate(2.5e15, 1e200),
    "emitter-rate-subnormal": lambda: _free_rate(1.0, 1e-150),
    "emitter-omega0-string": lambda: _free_rate("1", 1e-10),
    "emitter-omega0-none": lambda: _free_rate(None, 1e-10),
    "emitter-omega0-bool": lambda: _free_rate(True, 1e-10),
    "dipole-complex": lambda: geometry.DipoleOrientation(vec=[1j, 0, 1]),
    "dipole-string": lambda: geometry.DipoleOrientation(vec=["a", 0, 1]),
    "dipole-ragged": lambda: geometry.DipoleOrientation(vec=[1, [0, 1], 2]),
    "unravel_jumps-seed-negative": lambda: _jumps(seed=-1),
    "unravel_jumps-seed-fractional": lambda: _jumps(seed=1.5),
    "unravel_jumps-n_traj-fractional": lambda: _jumps(n_traj=1.5),
    **{f"{route}-max_evals-{name}": (lambda call=call, budget=budget:
                                     call(budget))
       for name, budget in BUDGETS.items()
       for route, call in (
           ("solid_angle_integrate", _engine),
           ("mirror_quadrature", lambda budget: mirror.gamma_mirror_quadrature(
               -1.0, 1.0, max_evals=budget)),
           ("cavity_quadrature", lambda budget: cavity.gamma_cavity_quadrature(
               0.5, 1.0, max_evals=budget)))},
    # a budget whose panel edges numpy refused to allocate outright
    "solid_angle_integrate-max_evals-past-the-memory-budget": lambda: (
        geometry.solid_angle_integrate(_never, panels=10**12,
                                       max_evals=10**30)),
    "mirror_quadrature-max_evals-past-the-memory-budget": lambda: (
        mirror.gamma_mirror_quadrature(1.0, 1e20, max_evals=10**30)),
    "cavity_quadrature-max_evals-past-the-memory-budget": lambda: (
        cavity.gamma_cavity_quadrature(0.5, 1e12, max_evals=10**30)),
    "mirror_quadrature-re_r-string": lambda: mirror.gamma_mirror_quadrature(
        "a", 1.0),
    "mirror_quadrature-k0d-complex": lambda: mirror.gamma_mirror_quadrature(
        0.5, 1j),
    "cavity_quadrature-unbroadcastable": (
        lambda: cavity.gamma_cavity_quadrature([0.1, 0.2], [1, 2, 3])),
    "solid_angle_integrate-tol-none": lambda: _engine(tol=None),
    "mirror_quadrature-tol-string": lambda: mirror.gamma_mirror_quadrature(
        0.5, 1.0, tol="1e-9"),
    # a grid refuses a bad control for the whole call, not cell by cell
    "mirror_quadrature-grid-tol-string": lambda: (
        mirror.gamma_mirror_quadrature(np.zeros(3), 1.0, tol="a")),
    "cavity_quadrature-grid-tol-below-floor": lambda: (
        cavity.gamma_cavity_quadrature(np.zeros(3), 1.0, tol=1e-20)),
    "cavity_quadrature-grid-max_evals-fractional": lambda: (
        cavity.gamma_cavity_quadrature(np.zeros(3), 1.0, max_evals=1.5)),
    "cavity_series-tail_tol-none": lambda: cavity.gamma_cavity_series(
        0.5, 1.0, tail_tol=None),
    "default_n_max-tail_tol-none": lambda: cavity.default_n_max(0.5, None),
    "default_n_max-tail_tol-string": lambda: cavity.default_n_max(0.5, "1e-8"),
    "default_n_max-tail_tol-zero": lambda: cavity.default_n_max(0.5, 0.0),
    "default_n_max-tail_tol-negative": lambda: cavity.default_n_max(0.5, -1.0),
    "default_n_max-r-string": lambda: cavity.default_n_max("a", 1e-8),
    "default_n_max-r-none": lambda: cavity.default_n_max(None, 1e-8),
    **{f"solid_angle_integrate-panels-{name}": (
        lambda panels=panels: geometry.solid_angle_integrate(
            _never, panels=panels))
       for name, panels in (("none", None), ("fractional", 1.5), ("zero", 0))},
    **{f"ratio_quadrature-panels-{name}": (
        lambda panels=panels: geometry.ratio_quadrature(
            _never, panels, geometry.DEFAULT_TOL, geometry.DEFAULT_MAX_EVALS))
       for name, panels in (("none", None), ("fractional", 1.5), ("zero", 0))},
    # a bool read as 1 or 0
    "model_params-g-bool": lambda: dynamics.ModelParams(True, 20.0, 1.0),
    "model_params-kappa-bool": lambda: dynamics.ModelParams(1.0, True, 1.0),
    "state-n_fock-bool": lambda: dynamics.AtomCavityState(
        np.eye(4) / 4, n_fock=True),
    "evolve_jc-t_final-bool": lambda: _evolve(t_final=True),
    "evolve_jc-dt-bool": lambda: _evolve(dt=True, params=(0.0, 0.0, 0.0)),
    "evolve_single_rate-gamma_cav-bool": lambda: dynamics.evolve_single_rate(
        True, EXCITED, 1.0),
    "evolve_single_rate-t_final-bool": lambda: dynamics.evolve_single_rate(
        1.0, EXCITED, True),
    "unravel_jumps-gamma_cav-bool": lambda: dynamics.unravel_jumps(
        True, EXCITED, 10, 1, GRID),
    "unravel_jumps-n_traj-bool": lambda: _jumps(n_traj=True),
    "unravel_jumps-seed-bool": lambda: _jumps(seed=True),
    "unravel_jumps-t_grid-bools": lambda: dynamics.unravel_jumps(
        1.0, EXCITED, 10, 1, [False, True]),
    "f_kernel-bool": lambda: kernels.f_kernel(True),
    "interference_kernel-r-bool": lambda: kernels.interference_kernel(
        False, 1.0),
    "solid_angle_integrate-panels-bool": lambda: (
        geometry.solid_angle_integrate(_never, panels=True)),
    "solid_angle_integrate-tol-bool": lambda: _engine(tol=True),
    "first_level_panels-panels-bool": lambda: geometry.first_level_panels(True),
    "first_level_panels-max_evals-bool": lambda: geometry.first_level_panels(
        4, True),
    "cavity_series-tail_tol-bool": lambda: cavity.gamma_cavity_series(
        0.5, 1.0, tail_tol=True),
    "default_n_max-tail_tol-bool": lambda: cavity.default_n_max(0.5, True),
    "mirror_closed-re_r-bools": lambda: mirror.gamma_mirror_closed(
        [True, False], 1.0),
    "mirror_closed-k0d-bool": lambda: mirror.gamma_mirror_closed(0.5, True),
    "cavity_series-k0d-bools": lambda: cavity.gamma_cavity_series(
        0.5, np.array([True])),
    "run_validation-seed-bool": lambda: validation.run_validation(seed=True),
    # untyped: a bare TypeError or ValueError, or a wrong value
    "from_atom-n_fock-negative": lambda: (
        dynamics.AtomCavityState.from_atom(EXCITED, n_fock=-3)),
    "from_atom-n_fock-fractional": lambda: (
        dynamics.AtomCavityState.from_atom(EXCITED, n_fock=2.5)),
    "state-n_fock-string": lambda: dynamics.AtomCavityState(
        np.eye(12) / 12, n_fock="5"),
    "state-n_fock-none": lambda: dynamics.AtomCavityState(
        np.eye(12) / 12, n_fock=None),
    "state-rho-string": lambda: dynamics.AtomCavityState("a", n_fock=1),
    "state-rho-ragged": lambda: dynamics.AtomCavityState(
        [[1, 0], [0]], n_fock=1),
    "evolve_jc-t_final-string": lambda: _evolve(t_final="1"),
    "evolve_jc-t_final-none": lambda: _evolve(t_final=None),
    "evolve_jc-t_final-complex": lambda: _evolve(t_final=1j),
    "evolve_jc-dt-string": lambda: _evolve(dt="1e-3"),
    "evolve_jc-dt-none": lambda: _evolve(dt=None),
    "evolve_single_rate-gamma_cav-string": lambda: (
        dynamics.evolve_single_rate("1", EXCITED, 1.0)),
    "evolve_single_rate-gamma_cav-none": lambda: (
        dynamics.evolve_single_rate(None, EXCITED, 1.0)),
    "evolve_single_rate-t_final-string": lambda: (
        dynamics.evolve_single_rate(1.0, EXCITED, "1")),
    "evolve_single_rate-t_final-none": lambda: (
        dynamics.evolve_single_rate(1.0, EXCITED, None)),
    "evolve_single_rate-t_grid-string": lambda: (
        dynamics.evolve_single_rate(1.0, EXCITED, [0.0, "a"])),
    "evolve_single_rate-rho-string": lambda: (
        dynamics.evolve_single_rate(1.0, "a", 1.0)),
    "unravel_jumps-gamma_cav-string": lambda: dynamics.unravel_jumps(
        "1", EXCITED, 10, 1, GRID),
    "unravel_jumps-t_grid-string": lambda: dynamics.unravel_jumps(
        1.0, EXCITED, 10, 1, "a"),
    "model_discrepancy-gamma_cav-string": lambda: dynamics.model_discrepancy(
        dynamics.ModelParams(1.0, 20.0, 1.0), "1", GRID),
    "model_discrepancy-gamma_cav-none": lambda: dynamics.model_discrepancy(
        dynamics.ModelParams(1.0, 20.0, 1.0), None, GRID),
    "fit_decay_rate-times-string": lambda: _fit(times="ab"),
    "fit_decay_rate-t_min-string": lambda: _fit(t_min="0"),
    "fit_decay_rate-t_max-none": lambda: _fit(t_max=None),
    "fit_decay_rate-shapes": lambda: _fit(times=(0.0, 1.0, 2.0)),
    "f_kernel-string": lambda: kernels.f_kernel("a"),
    "f_kernel-none": lambda: kernels.f_kernel(None),
    "f_kernel-complex": lambda: kernels.f_kernel(1j),
    "f_envelope-string": lambda: kernels.f_envelope("a"),
    "f_envelope-none": lambda: kernels.f_envelope(None),
    "interference_kernel-r-string": lambda: kernels.interference_kernel(
        "a", 1.0),
    "interference_kernel-r-none": lambda: kernels.interference_kernel(
        None, 1.0),
    "interference_kernel-x-string": lambda: kernels.interference_kernel(
        0.5, "a"),
    "interference_kernel-x-complex": lambda: kernels.interference_kernel(
        0.5, 1j),
    "run_validation-seed-string": lambda: validation.run_validation(seed="a"),
    "run_validation-fault_injection-string": lambda: (
        validation.run_validation(fault_injection="a")),
    "run_validation-fault_injection-nan": lambda: (
        validation.run_validation(fault_injection=math.nan)),
}


def _config(**fields):
    sweeps.SweepConfig(**fields).validate()


CONFIG_CASES = {
    "tol-string": lambda: _config(target="cavity", tol="a"),
    "tol-bool": lambda: _config(target="cavity", tol=True),
    "tail_tol-bool": lambda: _config(target="cavity", tail_tol=True),
    "g-string": lambda: _config(target="lindblad", g="a"),
    "kappa-string": lambda: _config(target="lindblad", kappa="a"),
    "gamma-none": lambda: _config(target="lindblad", gamma=None),
    "gamma_cav-string": lambda: _config(target="lindblad", gamma_cav="a"),
    "gamma_cav-bool": lambda: _config(target="lindblad", gamma_cav=True),
    "n_traj-string": lambda: _config(target="lindblad", n_traj="a"),
    "n_traj-fractional": lambda: _config(target="lindblad", n_traj=1.5),
    "n_traj-bool": lambda: _config(target="lindblad", n_traj=True),
    "seed-string": lambda: _config(target="cavity", seed="a"),
    "seed-fractional": lambda: _config(target="cavity", seed=1.5),
    "seed-bool": lambda: _config(target="cavity", seed=True),
    "r-string": lambda: _config(target="cavity", r="a"),
    "r-nan": lambda: _config(target="cavity", r=math.nan),
    "r-inf": lambda: _config(target="cavity", r=math.inf),
    "k0d-minus-inf": lambda: _config(target="subwavelength", k0d=-math.inf),
    "k0d-list": lambda: _config(target="cavity", k0d=[1.0]),
    "d_over_lambda0-string": lambda: _config(target="mirror",
                                             d_over_lambda0="x"),
    "t-number": lambda: _config(target="lindblad", t=3.0),
    "range-start-string": lambda: sweeps.Range("a", 1.0, 3),
    "range-stop-none": lambda: sweeps.Range(0.0, None, 3),
    "range-count-string": lambda: sweeps.Range(0.0, 1.0, "3"),
    "range-count-fractional": lambda: sweeps.Range(0.0, 1.0, 2.5),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_input_outside_the_domain_raises_invalid_params(call, monkeypatch):
    monkeypatch.setattr(geometry, "phi_mean_weight", _never)
    monkeypatch.setattr(cavity, "interference_kernel", _never)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.InvalidParams):
            call()


@pytest.mark.parametrize("call", CONFIG_CASES.values(),
                         ids=CONFIG_CASES.keys())
def test_config_outside_the_domain_raises_config_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.ConfigError):
            call()


def test_kernels_and_breakpoints_pass_a_nan_entry_through():
    # an entry maps to its own output, so a nan gives a nan, as in numpy
    assert np.isnan(kernels.f_kernel([math.nan, 1.0])[0])
    assert np.isnan(kernels.interference_kernel(math.nan, 1.0))
    assert np.isnan(kernels.f_envelope(math.nan))
    value, _ = geometry.solid_angle_integrate(
        lambda xi, _: np.ones_like(xi), xi_breakpoints=[math.nan, 0.5])
    assert value == pytest.approx(4.0 * math.pi)
