"""Public-API inputs outside the domain end in InvalidParams.

Each call below once returned a wrong value silently, warned, or raised
an untyped error (OverflowError, ValueError, TypeError). A nan or inf
entry compared false against every density-matrix check, so a nan
population gave populations of 0 or 1 and an inf coherence passed.
"""

import math
import warnings

import numpy as np
import pytest

from mirrorqed import dynamics, errors, freespace, geometry

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
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_input_outside_the_domain_raises_invalid_params(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.InvalidParams):
            call()
