"""Free-space spontaneous decay rate of a two-level dipole emitter.

Provides the absolute SI rate and an independent angular-quadrature route
to the same number; the ratio of the two is a standing self-check, and
the SI value is the normalization baseline for every other rate module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from . import geometry
from .constants import ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .errors import InvalidParams, real
from .geometry import DipoleOrientation

__all__ = ["EmitterSpec", "gamma_free_si", "gamma_free_quadrature"]

#: Relative tolerance of gamma_free_quadrature.
_QUAD_TOL = 1e-10

# e^2 / (3 pi c^3 eps0 hbar), the free-space rate at |D| = omega0 = 1.
_SI_SCALE = ELEMENTARY_CHARGE ** 2 / (
    3.0 * math.pi * SPEED_OF_LIGHT ** 3 * VACUUM_PERMITTIVITY * HBAR)


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
        Unless omega0 and dipole_magnitude are positive and finite real
        numbers and the free-space rate they give is a positive normal
        float (neither overflowing nor underflowing).
    """

    omega0: float
    dipole_magnitude: float
    dhat: DipoleOrientation = field(default_factory=DipoleOrientation)

    def __post_init__(self):
        for name in ("omega0", "dipole_magnitude"):
            object.__setattr__(self, name, real(getattr(self, name), name,
                                                0.0, strict=True))
        try:
            rate = gamma_free_si(self)
        except OverflowError:  # ldexp past the float range
            rate = math.inf
        if not sys.float_info.min <= rate < math.inf:
            raise InvalidParams(
                f"the free-space rate of omega0 = {self.omega0!r}, "
                f"dipole_magnitude = {self.dipole_magnitude!r} is "
                f"{rate!r}, outside the normal float range")

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
    dipole orientation. |D| and omega0 enter as frexp mantissas, their
    binary exponents summed apart and applied by one ldexp, so no
    intermediate leaves the normal range while Gamma is in it (D^2
    alone is subnormal below D = 1.5e-154).
    """
    d_mant, d_exp = math.frexp(emitter.dipole_magnitude)
    w_mant, w_exp = math.frexp(emitter.omega0)
    mant = _SI_SCALE * d_mant ** 2 * w_mant ** 3
    return math.ldexp(mant, 2 * d_exp + 3 * w_exp)


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
    integrand = lambda xi, phi: geometry.phi_mean_weight(emitter.dhat, xi)
    integral, _err = geometry.solid_angle_integrate(integrand, tol=_QUAD_TOL)
    return gamma_free_si(emitter) * (3.0 / (8.0 * math.pi)) * integral
