"""Single-mirror decay ratio: closed form vs frozen oracle values and quadrature."""

import math
import time

import numpy as np
import pytest

from mirrorqed import (
    errors,
    gamma_mirror_closed,
    gamma_mirror_quadrature,
    geometry,
    kernels,
)

from . import oracles
from .test_cavity import _first_level_panels, rerun_over_2d_weight

# (re_r, k0d, ratio) from the 50-digit mpmath closed-form oracle.
CLOSED_ORACLE = [
    (-1.0, math.pi / 2, 1.1519817754635067),
    (-1.0, math.pi, 0.9620045561341235),
    (-1.0, 10.0, 0.9301699756981392),
    (0.5, 1.0, 1.1777123694421339),
    (0.5, 100.0, 0.9967343517759755),
]

# Independent 2000x4000 sphere-trapezoid oracle value.
TRAPEZOID_ORACLE = (0.7, math.pi / 2, 0.8936127571755372)


class TestClosedForm:
    @pytest.mark.parametrize("re_r,k0d,expected", CLOSED_ORACLE)
    def test_oracle_values(self, re_r, k0d, expected):
        res = gamma_mirror_closed(re_r, k0d)
        assert res.ratio == pytest.approx(expected, abs=1e-12)
        assert res.method == "closed_form"

    def test_err_estimate_is_the_rounding_of_f_scaled(self):
        # the kernel's own bound on f, both branches, plus the sum's floor
        re_r = np.array([-1.0, 0.5, 0.25, -0.75])
        k0d = np.array([0.01, 0.04, 3.0, 1e4])
        res = gamma_mirror_closed(re_r, k0d)
        expected = (1.5 * np.abs(re_r) * kernels.f_rounding(2.0 * k0d)
                    + geometry.ERR_FLOOR)
        assert res.err_estimate.tolist() == expected.tolist()

    def test_contact_limit_is_one_plus_re_r(self):
        for re_r in np.linspace(-1.0, 1.0, 9):
            assert gamma_mirror_closed(float(re_r), 0.0).ratio == 1.0 + re_r

    def test_far_field_returns_to_free_space(self):
        for re_r in (-1.0, 0.5, 1.0):
            assert abs(gamma_mirror_closed(re_r, 1e4).ratio - 1.0) < 3e-4

    def test_zero_reflection_is_exactly_free_space(self):
        assert gamma_mirror_closed(0.0, 2.7).ratio == 1.0

    def test_ratio_nonnegative_on_grid(self):
        k0d = np.linspace(0.0, 20.0, 401)
        for re_r in (-1.0, -0.5, 0.5, 1.0):
            ratios = np.array([gamma_mirror_closed(re_r, float(x)).ratio for x in k0d])
            assert np.all(ratios >= -1e-15)
            assert np.all(ratios <= 2.0 + 1e-15)

    def test_domain_errors(self):
        with pytest.raises(errors.InvalidParams,
                           match=r"re_r must lie in \[-1, 1\], got 1.5$"):
            gamma_mirror_closed(1.5, 1.0)
        with pytest.raises(errors.InvalidParams,
                           match="k0d must be finite and >= 0, got -0.1$"):
            gamma_mirror_closed(0.5, -0.1)

    def test_grid_matches_single_cells_bit_for_bit(self):
        re_r = np.array([-1.0, -0.3, 0.0, 0.5, 1.0])
        k0d = np.linspace(0.0, 30.0, 301)
        grid = gamma_mirror_closed(re_r[:, None], k0d[None, :])
        assert grid.ratio.shape == grid.status.shape == (5, 301)
        assert grid.method == "closed_form"
        assert (grid.status == "ok").all()
        for i, r in enumerate(re_r.tolist()):
            for j, k in enumerate(k0d.tolist()):
                cell = gamma_mirror_closed(r, k)
                assert grid.ratio[i, j] == cell.ratio
                assert grid.err_estimate[i, j] == cell.err_estimate

    def test_grid_flags_bad_cells_instead_of_raising(self):
        grid = gamma_mirror_closed(np.array([1.5, 0.5, 0.5, math.nan, -1.0]),
                                   np.array([1.0, -0.1, 1.0, 1.0, math.inf]))
        assert grid.status.tolist() == ["InvalidParams", "InvalidParams", "ok",
                                        "InvalidParams", "InvalidParams"]
        bad = grid.status != "ok"
        assert np.isnan(grid.ratio[bad]).all()
        assert np.isnan(grid.err_estimate[bad]).all()
        assert grid.ratio[2] == gamma_mirror_closed(0.5, 1.0).ratio


class TestQuadratureRoute:
    @pytest.mark.parametrize("re_r,k0d,expected", CLOSED_ORACLE)
    def test_matches_oracle_values(self, re_r, k0d, expected):
        res = gamma_mirror_quadrature(re_r, k0d)
        assert res.ratio == pytest.approx(expected, abs=1e-9)
        assert res.method == "quadrature"

    def test_matches_independent_trapezoid_oracle(self):
        re_r, k0d, expected = TRAPEZOID_ORACLE
        res = gamma_mirror_quadrature(re_r, k0d)
        assert res.ratio == pytest.approx(expected, abs=1e-9)

    def test_error_estimate_is_conservative(self):
        for re_r in (-1.0, -0.4, 0.8):
            for k0d in (0.05, 1.0, 10.0, 50.0):
                quad = gamma_mirror_quadrature(re_r, k0d)
                closed = gamma_mirror_closed(re_r, k0d)
                gap = abs(quad.ratio - closed.ratio)
                assert gap <= quad.err_estimate + closed.err_estimate

    @pytest.mark.parametrize("re_r", [1.0, -1.0, 0.98, -0.98, 0.3])
    def test_within_err_estimate_of_mpmath(self, re_r):
        # the rounding rule of geometry.ratio_quadrature: the engine's
        # error plus ERR_FLOOR * max(1, |ratio|) covers the gap to a
        # 30-digit value, from contact (where re_r = -1 cancels the ratio
        # to ~k0d^2) to the far field
        for k0d in np.geomspace(1e-5, 3e3, 80).tolist():
            res = gamma_mirror_quadrature(re_r, k0d)
            exact = oracles.mirror_ratio_mp(re_r, k0d)
            assert abs(res.ratio - exact) <= res.err_estimate, k0d

    # Cells of a 1000-point scan of the same range that the rule missed
    # by 1.24x and 1.74x (16 of 5,000) while the engine placed its nodes
    # at mid + half * t: the rounded midpoint moved the nodes of both
    # levels alike, so that their difference could not show it. At
    # lo + half * (1 + t) they read 0.23x and 0.28x.
    @pytest.mark.parametrize("re_r,k0d", [(1.0, 90.82337295737442),
                                          (-1.0, 2194.580646482456)])
    def test_node_placement_rounding_exceeds_the_rule(self, re_r, k0d):
        res = gamma_mirror_quadrature(re_r, k0d)
        exact = oracles.mirror_ratio_mp(re_r, k0d)
        assert abs(res.ratio - exact) <= res.err_estimate

    @pytest.mark.parametrize("k0d,panels", [
        (1e-3, 4), (0.5, 4), (4.2, 5), (6.9, 7), (8.5, 9), (9.3, 10),
        (100.0, 100)])
    def test_first_level_panel_counts(self, monkeypatch, k0d, panels):
        # the counts of the node hint: max(4, ceil(k0d)) panels, half a
        # panel per unit of the phase rate 2 k0d
        assert _first_level_panels(monkeypatch, gamma_mirror_quadrature,
                                   0.5, k0d) == panels

    def test_grid_cells_match_single_cells_bit_for_bit(self):
        re_r = np.array([-1.0, 0.5, 0.8, -1.0, 1.5])
        k0d = np.array([1e-3, math.pi / 2, 30.0, 1e9, 1.0])
        grid = gamma_mirror_quadrature(re_r, k0d)
        assert grid.method == "quadrature"
        assert grid.status.tolist() == ["ok", "ok", "ok", "NonConvergence",
                                        "InvalidParams"]
        for i in range(3):
            cell = gamma_mirror_quadrature(re_r[i].item(), k0d[i].item())
            assert grid.ratio[i] == cell.ratio
            assert grid.err_estimate[i] == cell.err_estimate
        assert np.isnan(grid.ratio[3:]).all()
        assert np.isnan(grid.err_estimate[3:]).all()
        with pytest.raises(errors.NonConvergence) as refused:
            gamma_mirror_quadrature(-1.0, 1e9)
        assert refused.value.n_evals == 0

    @pytest.mark.parametrize("re_r", [-1.0, 0.5])
    @pytest.mark.parametrize("k0d", [math.inf, math.nan, 1e6])
    def test_hopeless_inputs_fail_fast(self, re_r, k0d, monkeypatch):
        def never(*args):
            raise AssertionError("integrand evaluated")

        monkeypatch.setattr(geometry, "phi_mean_weight", never)
        start = time.perf_counter()
        with pytest.raises(errors.MirrorQEDError):
            gamma_mirror_quadrature(re_r, k0d)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("re_r,k0d", [(-1.0, 1e-3), (0.5, math.pi / 2),
                                          (0.98, 1.0), (-0.8, 100.0)])
    def test_matches_two_dimensional_weight(self, re_r, k0d, monkeypatch):
        res, integral = rerun_over_2d_weight(
            monkeypatch, lambda xi: np.cos(2.0 * k0d * xi),
            lambda: gamma_mirror_quadrature(re_r, k0d))
        reference = 1.0 + 3.0 * re_r / (8.0 * math.pi) * integral
        assert abs(res.ratio - reference) <= 1e-14 * abs(reference)
