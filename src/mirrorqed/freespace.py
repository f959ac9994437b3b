"""Free-space spontaneous decay rate of a two-level dipole emitter.

Provides the absolute SI rate and an independent angular-quadrature route
to the same number; the ratio of the two is a standing self-check, and
the SI value is the normalization baseline for every other rate module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .constants import ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .errors import InvalidParams
from .geometry import DipoleOrientation

__all__ = ["EmitterSpec", "gamma_free_si", "gamma_free_quadrature"]

#: Relative tolerance of gamma_free_quadrature.
_QUAD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EmitterSpec:
    """A two-level emitter.

    Parameters
    ----------
    omega0 : float
        Angular transition frequency in rad/s.
    dipole_magnitude : float
        Dipole matrix element magnitude as a length in meters (the
        elementary charge is factored separately in the rate formula).
    dhat : DipoleOrientation
        Unit vector of the dipole; defaults to (0, 0, 1).

    Raises
    ------
    InvalidParams
        Unless omega0 and dipole_magnitude are positive and finite and
        the free-space rate they give is finite.
    """

    omega0: float
    dipole_magnitude: float
    dhat: DipoleOrientation = field(default_factory=DipoleOrientation)

    def __post_init__(self):
        for name in ("omega0", "dipole_magnitude"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InvalidParams(
                    f"{name} must be positive and finite, got {value!r}")
        try:
            rate = gamma_free_si(self)
        except OverflowError:  # a float power past the float range
            rate = math.inf
        if rate == math.inf:
            raise InvalidParams(
                f"the free-space rate of omega0 = {self.omega0!r}, "
                f"dipole_magnitude = {self.dipole_magnitude!r} overflows")

    @property
    def k0(self) -> float:
        """Transition wavenumber omega0 / c in rad/m."""
        return self.omega0 / SPEED_OF_LIGHT

    @property
    def lambda0(self) -> float:
        """Transition wavelength 2*pi*c / omega0 in meters."""
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.omega0


def gamma_free_si(emitter: EmitterSpec) -> float:
    """Free-space decay rate in 1/s.

    Gamma = e^2 |D|^2 omega0^3 / (3 pi c^3 eps0 hbar), independent of the
    dipole orientation.
    """
    num = (ELEMENTARY_CHARGE ** 2 * emitter.dipole_magnitude ** 2
           * emitter.omega0 ** 3)
    den = 3.0 * math.pi * SPEED_OF_LIGHT ** 3 * VACUUM_PERMITTIVITY * HBAR
    return num / den


def gamma_free_quadrature(emitter: EmitterSpec) -> float:
    """Free-space decay rate via the pre-integration angular form.

    Integrates the transverse dipole weight over the full solid angle and
    applies the same prefactor as gamma_free_si divided by the angular
    normalization 8*pi/3; agrees with gamma_free_si to 1e-10 relative
    for any orientation (free space is isotropic).

    Raises
    ------
    NonConvergence
        Propagated from the quadrature engine.
    """
    integrand = lambda theta, phi: geometry.phi_mean_weight(
        emitter.dhat, np.cos(theta))
    integral, _err = geometry.solid_angle_integrate(integrand, tol=_QUAD_TOL)
    prefactor = (ELEMENTARY_CHARGE ** 2 * emitter.dipole_magnitude ** 2
                 * emitter.omega0 ** 3
                 / (8.0 * math.pi ** 2 * SPEED_OF_LIGHT ** 3
                    * VACUUM_PERMITTIVITY * HBAR))
    return prefactor * float(np.real(integral))
