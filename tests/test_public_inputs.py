"""Public-API inputs outside the domain end in InvalidParams.

Each call below once returned a wrong value silently, warned, or raised
an untyped error (OverflowError, ValueError, TypeError). A nan or inf
entry compared false against every density-matrix check, so a nan
population gave populations of 0 or 1 and an inf coherence passed. A
max_evals of nan or inf passed the budget gate, which then admitted
every level. None of these calls evaluates an integrand.
"""

import math
import warnings

import numpy as np
import pytest

from mirrorqed import cavity, dynamics, errors, freespace, geometry, mirror

NAN_POPULATION = [[math.nan, 0.0], [0.0, 1.0]]
INF_COHERENCE = [[0.5, math.inf], [math.inf, 0.5]]
GRID = [0.0, 0.5, 1.0]


def _jumps(rho=((0.0, 0.0), (0.0, 1.0)), n_traj=10, seed=1):
    return dynamics.unravel_jumps(1.0, np.array(rho), n_traj, seed, GRID)


def _evolve_jc(rho_atom):
    state = dynamics.AtomCavityState.from_atom(rho_atom, n_fock=2)
    return dynamics.evolve_jc(dynamics.ModelParams(1.0, 20.0, 1.0), state,
                              1.0, 1e-3)


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
    "mirror_quadrature-re_r-string": lambda: mirror.gamma_mirror_quadrature(
        "a", 1.0),
    "mirror_quadrature-k0d-complex": lambda: mirror.gamma_mirror_quadrature(
        0.5, 1j),
    "cavity_quadrature-unbroadcastable": (
        lambda: cavity.gamma_cavity_quadrature([0.1, 0.2], [1, 2, 3])),
    "solid_angle_integrate-tol-none": lambda: _engine(tol=None),
    "mirror_quadrature-tol-string": lambda: mirror.gamma_mirror_quadrature(
        0.5, 1.0, tol="1e-9"),
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
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_input_outside_the_domain_raises_invalid_params(call, monkeypatch):
    monkeypatch.setattr(geometry, "phi_mean_weight", _never)
    monkeypatch.setattr(cavity, "interference_kernel", _never)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.InvalidParams):
            call()
