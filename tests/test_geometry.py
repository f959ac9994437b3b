"""Transverse dipole weight against an independent frame, sphere quadrature."""

import math
import sys

import numpy as np
import pytest

from mirrorqed import cavity, errors, geometry, mirror

from . import oracles

RNG = np.random.default_rng(7041995)


def _never(*args):
    raise AssertionError("integrand evaluated")


class TestDipoleWeight:
    """The library's summed weight against the cross-product frame."""

    def test_z_dipole_closed_form(self):
        dhat = geometry.DipoleOrientation(vec=np.array([0.0, 0.0, 1.0]))
        for _ in range(40):
            theta = float(RNG.uniform(0.0, math.pi))
            phi = float(RNG.uniform(0.0, 2 * math.pi))
            w_h, w_v = oracles.dipole_weights(dhat.vec, theta, phi)
            assert w_h == pytest.approx(math.cos(phi) ** 2, abs=1e-12)
            assert w_v == pytest.approx(
                math.sin(phi) ** 2 * math.cos(theta) ** 2, abs=1e-12
            )
            total = geometry.transverse_weight_sum(dhat, theta, phi)
            assert total == pytest.approx(w_h + w_v, abs=1e-12)

    def test_weights_bounded_and_sum_below_one(self):
        for _ in range(40):
            v = RNG.normal(size=3)
            dhat = geometry.DipoleOrientation(vec=v)
            theta = float(RNG.uniform(0.0, math.pi))
            phi = float(RNG.uniform(0.0, 2 * math.pi))
            w_h, w_v = oracles.dipole_weights(v, theta, phi)
            assert 0.0 <= w_h <= 1.0 + 1e-12
            assert 0.0 <= w_v <= 1.0 + 1e-12
            total = geometry.transverse_weight_sum(dhat, theta, phi)
            assert total == pytest.approx(w_h + w_v, abs=1e-12)
            assert total <= 1.0 + 1e-12

    def test_transverse_weight_sum_matches_pointwise(self):
        dhat = geometry.DipoleOrientation(vec=np.array([0.2, -0.5, 1.0]))
        theta = np.linspace(0.1, 3.0, 7)
        phi = np.linspace(0.0, 6.0, 7)
        batch = geometry.transverse_weight_sum(dhat, theta, phi)
        for i, (th, ph) in enumerate(zip(theta, phi)):
            w_h, w_v = oracles.dipole_weights(dhat.vec, th, ph)
            assert batch[i] == pytest.approx(w_h + w_v, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(errors.InvalidParams):
            geometry.DipoleOrientation(vec=np.zeros(3))

    @pytest.mark.parametrize("vec,unit", [
        # the norm of the first overflowed, and the vector was stored as 0;
        # the norm of the next two underflowed, and they were refused
        ((1e300, 1e300, 0.0), (1.0, 1.0, 0.0)),
        ((1e-200, 1e-200, 0.0), (1.0, 1.0, 0.0)),
        ((5e-324, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((1.5e308, -1.5e308, 1.5e308), (1.0, -1.0, 1.0)),
        ((0.0, 0.0, 7.0), (0.0, 0.0, 1.0)),
    ])
    def test_extreme_components_normalise(self, vec, unit):
        # scaled to a largest component of 1 before the norm is taken, so
        # a vector and any multiple of it are one orientation, bit for bit
        dhat = geometry.DipoleOrientation(vec=np.array(vec))
        assert dhat.vec.tolist() == geometry.DipoleOrientation(
            vec=np.array(unit)).vec.tolist()
        assert abs(np.linalg.norm(dhat.vec) - 1.0) <= 2.3e-16

    def test_default_dipole_keeps_its_bits(self):
        assert geometry.DipoleOrientation().vec.tolist() == [0.0, 0.0, 1.0]


class TestPhiMeanWeight:
    """The closed phi mean against a phi average of the frame weights."""

    DIPOLES = [*np.random.default_rng(20261018).normal(size=(32, 3)),
               (1.0, 0.0, 0.0), (0.3, -0.4, 0.5)]

    def test_matches_frame_phi_average(self):
        # 64 trapezoid nodes integrate the degree-2 trigonometric weight
        # exactly; xi = +-1 are left out, where the frame is undefined
        phis = (2.0 * math.pi / 64) * np.arange(64)
        xis = np.linspace(-0.95, 0.95, 7)
        for v in self.DIPOLES:
            dhat = geometry.DipoleOrientation(vec=np.asarray(v))
            closed = geometry.phi_mean_weight(dhat, xis)
            for xi, value in zip(xis, closed):
                theta = math.acos(xi)
                mean = np.mean([sum(oracles.dipole_weights(v, theta, phi))
                                for phi in phis])
                assert abs(value - mean) <= 1e-14


class TestSolidAngleIntegrate:
    def test_panel_rule_is_correctly_rounded(self):
        # each node offset 1 + t_i and each weight of the 16-point
        # Gauss-Legendre rule within half an ulp of its 40-digit value
        # (numpy's leggauss weights are up to 63 ulp off)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            nodes, weights = mpmath.gauss_quadrature(16, "legendre")
            for rule, exact in ((geometry._GL_OFFSETS,
                                 [1 + t for t in nodes]),
                                (geometry._GL_WEIGHTS, weights)):
                assert len(rule) == len(exact) == 16
                for value, want in zip(rule.tolist(), exact):
                    assert abs(mpmath.mpf(value) - want) <= (
                        0.5 * math.ulp(value)), value

    def test_constant_integrand_gives_4pi(self):
        fn = lambda xi, phi: np.ones_like(xi)
        val, err = geometry.solid_angle_integrate(fn)
        assert type(val) is float and type(err) is float
        assert val == pytest.approx(4.0 * math.pi, abs=1e-12)
        assert err < 1e-9

    def test_transverse_weight_gives_8pi_over_3(self):
        # the engine integrates the weight's closed phi mean; the 2-D
        # weight itself is checked by the independent trapezoid
        dhat = geometry.DipoleOrientation(vec=np.array([0.0, 0.0, 1.0]))
        val, err = geometry.solid_angle_integrate(
            lambda xi, phi: geometry.phi_mean_weight(dhat, xi))
        assert val == pytest.approx(8.0 * math.pi / 3.0, abs=1e-11)
        assert err < 1e-9
        two_d, _ = oracles.sphere_integral_refined(
            lambda theta, phi: geometry.transverse_weight_sum(dhat, theta, phi),
            tol=1e-10)
        assert two_d.real == pytest.approx(8.0 * math.pi / 3.0, abs=1e-10)

    def test_weighted_plane_wave_matches_sinc_family(self):
        # weight * cos(2*k0d*cos(theta)), the real part of the plane wave
        # exp(-2j*k0d*cos(theta)), integrates to 4*pi times the shared
        # sinc-family kernel at 2*k0d; frozen from mpmath at k0d = pi.
        f_2pi = 0.02533029591058437
        dhat = geometry.DipoleOrientation(vec=np.array([0.0, 0.0, 1.0]))
        fn = lambda xi, phi: np.cos(2.0 * math.pi * xi) * (
            geometry.phi_mean_weight(dhat, xi))
        val, err = geometry.solid_angle_integrate(fn)
        assert val == pytest.approx(4.0 * math.pi * f_2pi, abs=1e-10)
        assert err < 1e-8
        two_d, _ = oracles.sphere_integral_refined(
            lambda theta, phi: np.exp(-2j * math.pi * np.cos(theta))
            * geometry.transverse_weight_sum(dhat, theta, phi), tol=1e-10)
        assert two_d.real == pytest.approx(4.0 * math.pi * f_2pi, abs=1e-10)

    def test_bare_plane_wave_is_sinc(self):
        # without the weight the sphere integral of cos(a*cos(theta)) is
        # 4*pi*sin(a)/a at a = 2*k0d
        a = 1.4
        fn = lambda xi, phi: np.cos(a * xi)
        val, _ = geometry.solid_angle_integrate(fn)
        assert val == pytest.approx(4.0 * math.pi * math.sin(a) / a, abs=1e-10)

    def test_breakpoints_do_not_change_smooth_result(self):
        fn = lambda xi, phi: xi ** 2
        plain, _ = geometry.solid_angle_integrate(fn)
        split, _ = geometry.solid_angle_integrate(fn, xi_breakpoints=[-0.4, 0.0, 0.7])
        assert plain == pytest.approx(4.0 * math.pi / 3.0, abs=1e-11)
        assert split == pytest.approx(plain, abs=1e-11)

    def test_breakpoints_outside_open_interval_ignored(self):
        fn = lambda xi, phi: np.sqrt(1.0 - xi ** 2)  # sin(theta)
        val, _ = geometry.solid_angle_integrate(fn, xi_breakpoints=[-1.0, 1.0, 2.5])
        ref, _ = geometry.solid_angle_integrate(fn)
        assert val == pytest.approx(ref, abs=1e-11)

    def test_nonconvergence_carries_partial_result(self):
        fn = lambda xi, phi: np.cos(1000.0 * xi)
        with pytest.raises(errors.NonConvergence) as exc:
            geometry.solid_angle_integrate(fn, tol=1e-15, max_evals=3000)
        assert exc.value.n_evals <= 3000
        assert np.isfinite(exc.value.err_estimate)
        assert exc.value.value is not None

    def test_integrand_gets_no_phi(self):
        # a phi-dependent integrand fails loudly instead of being
        # integrated as if it were constant in phi
        with pytest.raises(TypeError):
            geometry.solid_angle_integrate(
                lambda xi, phi: xi * np.cos(phi) ** 2)

    def test_levels_run_in_panel_blocks(self, monkeypatch):
        # a level of 4,096 panels (65,536 nodes) runs in calls of at most
        # one block, and its block sums agree with one sum over the level
        fn = lambda xi, phi: np.cos(500.0 * xi)
        sizes = []

        def spy(xi, phi):
            sizes.append(xi.size)
            return fn(xi, phi)

        value, _ = geometry.solid_angle_integrate(spy, panels=4096)
        assert max(sizes) == 16 * geometry._BLOCK_PANELS
        assert sum(sizes) > 4 * 16 * geometry._BLOCK_PANELS
        monkeypatch.setattr(geometry, "_BLOCK_PANELS", 1 << 20)
        whole, _ = geometry.solid_angle_integrate(fn, panels=4096)
        assert abs(value - whole) <= 1e-14 * abs(whole)

    def test_phi_independent_column_counts_xi_nodes(self):
        # at tol = ERR_FLOOR only two levels that agree to rounding would
        # converge, and these never do; levels of 64, 128, ... xi nodes
        # run while the next still fits in 3000: 64 * (2**5 - 1) in all
        fn = lambda xi, phi: np.cos(400.0 * xi)
        with pytest.raises(errors.NonConvergence) as exc:
            geometry.solid_angle_integrate(fn, tol=geometry.ERR_FLOOR,
                                          max_evals=3000)
        assert exc.value.n_evals == 64 * (2 ** 5 - 1)

    @pytest.mark.parametrize("max_evals", [10_000, 30_000, 100_000])
    @pytest.mark.parametrize("route,args", [
        (mirror.gamma_mirror_quadrature, (-1.0, 181.0)),
        (cavity.gamma_cavity_quadrature, (0.9999, 3.0)),
    ], ids=["mirror", "cavity"])
    def test_routes_hold_the_evaluation_budget(self, route, args, max_evals):
        # each refinement level is priced before it runs, so a cell that
        # cannot converge stops within its budget; at the largest budget
        # the mirror cell ends 32x above the error floor, the cavity cell
        # at 1.4e-9
        with pytest.raises(errors.NonConvergence) as exc:
            route(*args, tol=geometry.ERR_FLOOR, max_evals=max_evals)
        assert 0 < exc.value.n_evals <= max_evals
        assert exc.value.value is not None

    @pytest.mark.parametrize("route,referee", [
        (lambda: mirror.gamma_mirror_quadrature(
            -1.0, 30.0, tol=geometry.ERR_FLOOR, max_evals=100_000),
         lambda: mirror.gamma_mirror_closed(-1.0, 30.0).ratio),
        (lambda: cavity.gamma_cavity_quadrature(0.98, 50.0, tol=1e-15),
         lambda: oracles.cavity_ratio_mp(0.98, 50.0)),
    ], ids=["mirror", "cavity"])
    def test_nodes_in_xi_converge_at_the_floor(self, route, referee):
        # integrands evaluated at the xi nodes themselves carry no
        # cos(arccos(xi)) rounding, so two levels can agree to the floor
        res = route()
        assert res.status == "ok"
        assert abs(res.ratio - referee()) <= res.err_estimate

    @pytest.mark.parametrize("route,referee,args", [
        (mirror.gamma_mirror_quadrature, mirror.gamma_mirror_closed,
         (-1.0, 5e5)),
        (cavity.gamma_cavity_quadrature, cavity.gamma_cavity_series,
         (0.5, 1e5)),
    ], ids=["mirror", "cavity"])
    def test_far_cells_fit_the_default_budget(self, route, referee, args):
        # priced at their 16 nodes a panel, these first levels fit the
        # default budget; at 256 a panel both were refused
        res, ref = route(*args), referee(*args)
        assert res.status == "ok"
        assert abs(res.ratio - ref.ratio) <= res.err_estimate + ref.err_estimate

    @pytest.mark.parametrize("panels", [None, 1.5, 0, -4, "4"])
    def test_panels_must_be_a_positive_integer(self, panels):
        with pytest.raises(errors.InvalidParams, match="panels must be"):
            geometry.solid_angle_integrate(_never, panels=panels)
        with pytest.raises(errors.InvalidParams, match="panels must be"):
            geometry.first_level_panels(panels)

    def test_one_panel_is_a_first_level(self):
        val, _ = geometry.solid_angle_integrate(lambda xi, phi: xi ** 2,
                                                panels=1)
        assert val == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)

    def test_complex_integrand_is_refused(self):
        with pytest.raises(errors.InvalidParams, match="real values"):
            geometry.solid_angle_integrate(lambda xi, phi: np.exp(-1j * xi))
        with pytest.raises(errors.InvalidParams, match="real values"):
            geometry.ratio_quadrature(
                lambda xi: np.exp(-1j * xi), 4, geometry.DEFAULT_TOL,
                geometry.DEFAULT_MAX_EVALS)

    def test_invalid_arguments(self):
        fn = lambda xi, phi: np.ones_like(xi)
        with pytest.raises(errors.InvalidParams):
            geometry.solid_angle_integrate(fn, tol=0.0)
        with pytest.raises(errors.InvalidParams):
            geometry.solid_angle_integrate(fn, tol=1e-16)


def test_oscillation_panels_scale_with_rate():
    # 8 nodes (half a panel) per unit of phase rate, and at least 4 panels
    assert geometry.oscillation_panels(0.0) == 4
    assert geometry.oscillation_panels(10.0) <= geometry.oscillation_panels(100.0)
    assert geometry.oscillation_panels(200.0) == 100
    assert geometry.oscillation_panels(200.5) == 101
    assert geometry.oscillation_panels(math.inf) == math.ceil(
        sys.float_info.max / 2.0)
