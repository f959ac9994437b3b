"""Free-space rate: SI closed form against an inline recompute and quadrature."""

import math
import sys

import pytest

from mirrorqed import (
    EmitterSpec,
    errors,
    gamma_free_quadrature,
    gamma_free_si,
)

# CODATA 2018 values, duplicated here on purpose as the reference.
E_CHARGE = 1.602176634e-19
C_LIGHT = 299792458.0
EPS0 = 8.8541878128e-12
HBAR = 1.054571817e-34


def reference_rate(omega0, dipole):
    return (
        E_CHARGE**2
        * dipole**2
        * omega0**3
        / (3.0 * math.pi * EPS0 * HBAR * C_LIGHT**3)
    )


class TestEmitterSpec:
    def test_wavenumber_and_wavelength(self):
        em = EmitterSpec(omega0=1e15, dipole_magnitude=1e-29)
        assert em.k0 == pytest.approx(1e15 / C_LIGHT, rel=1e-15)
        assert em.lambda0 == pytest.approx(2.0 * math.pi * C_LIGHT / 1e15, rel=1e-15)
        assert em.k0 * em.lambda0 == pytest.approx(2.0 * math.pi, rel=1e-14)

    @pytest.mark.parametrize("omega0,dipole", [(0.0, 1e-29), (-1e15, 1e-29), (1e15, 0.0), (1e15, -1e-29)])
    def test_invalid_parameters(self, omega0, dipole):
        with pytest.raises(errors.InvalidParams):
            EmitterSpec(omega0=omega0, dipole_magnitude=dipole)


class TestRate:
    def test_si_value_frozen(self):
        em = EmitterSpec(omega0=1e15, dipole_magnitude=1e-29)
        assert gamma_free_si(em) == pytest.approx(1.0825866333633507e-32, rel=1e-14)

    def test_si_matches_inline_recompute(self):
        for omega0, dipole in [(2.4e15, 3e-30), (6e14, 2.1e-29), (1e16, 5e-31)]:
            em = EmitterSpec(omega0=omega0, dipole_magnitude=dipole)
            assert gamma_free_si(em) == pytest.approx(
                reference_rate(omega0, dipole), rel=1e-13
            )

    @pytest.mark.parametrize("omega0", [1.0, 1e15, 1e20])
    @pytest.mark.parametrize("dipole", [1e-150, 1e-140, 1e-10, 1e100])
    def test_si_matches_mpmath_across_the_float_range(self, dipole, omega0):
        # e^2 D^2 is subnormal below D = 1e-135, long before the rate is:
        # the rate must stay exact to a few ulps wherever it is a normal
        # float, and be refused where it is not (D = 1e-150, omega0 = 1)
        import mpmath as mp

        with mp.workdps(40):
            exact = (mp.mpf(E_CHARGE) ** 2 * mp.mpf(dipole) ** 2
                     * mp.mpf(omega0) ** 3
                     / (3 * mp.pi * mp.mpf(EPS0) * mp.mpf(HBAR)
                        * mp.mpf(C_LIGHT) ** 3))
            normal = sys.float_info.min <= exact <= sys.float_info.max
            if not normal:
                with pytest.raises(errors.InvalidParams):
                    EmitterSpec(omega0=omega0, dipole_magnitude=dipole)
                return
            rate = gamma_free_si(
                EmitterSpec(omega0=omega0, dipole_magnitude=dipole))
            assert abs(rate - exact) <= 2e-15 * exact

    def test_cubic_frequency_scaling(self):
        a = gamma_free_si(EmitterSpec(omega0=1e15, dipole_magnitude=1e-29))
        b = gamma_free_si(EmitterSpec(omega0=2e15, dipole_magnitude=1e-29))
        assert b / a == pytest.approx(8.0, rel=1e-13)

    def test_quadrature_matches_closed_form(self):
        em = EmitterSpec(omega0=1e15, dipole_magnitude=1e-29)
        assert gamma_free_quadrature(em) == pytest.approx(gamma_free_si(em), rel=1e-10)
