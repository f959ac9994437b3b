"""Two-mirror cavity decay ratio: quadrature, bounce series, subwavelength forms.

Quadrature expectations are frozen from the 30-digit mpmath oracle
(tanh-sinh in cos theta of the resummed round-trip kernel); series
expectations from a direct truncated double bounce sum with pinned depth,
and at high finesse from the same mpmath oracle.
"""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mirrorqed import (
    CavitySpec,
    SeriesControl,
    default_n_max,
    errors,
    gamma_cavity_quadrature,
    gamma_cavity_series,
    gamma_subwavelength_2nd,
    gamma_subwavelength_limit,
    cavity,
    geometry,
)

# (r_mir, k0d, ratio) from the mpmath quadrature oracle.
QUAD_ORACLE = [
    (0.9, 1e-3, 18.999316039608285),
    (-0.9, 1e-3, 0.05263158419594749),
    (0.5, 1e-3, 2.9999976000032142),
    (-0.5, 1e-3, 0.3333333629629656),
    (0.9, 0.01, 18.93199348491294),
    (0.9, 0.05, 17.502505976750765),
    (0.9, 0.1, 14.567836082038905),
    (-0.9, 0.1, 0.052684120792071784),
    (0.5, 0.1, 2.9763165536679037),
    (-0.5, 0.1, 0.3336298943934286),
    (0.8, 0.1, 8.361022944750955),
    (0.5, 1.0, 1.9084091045673999),
    (-0.5, 1.0, 0.3658380049558797),
    (-0.8, 1.0, 0.12337024965335387),
    (0.5, math.pi, 0.8636984253773681),
    (0.2, 0.05, 1.4995315479877227),
    (-0.2, 10.0, 1.043811573250939),
    (0.5, 20.0, 1.0790507952444262),
    (0.8, 50.0, 0.9565153198720233),
    (0.8, 100.0, 0.9726996427742562),
    (0.3, 20.0 * math.pi, 1.0002478287098615),
    (-0.8, 50.0 * math.pi, 0.9999173484698828),
]

# (r_mir, k0d, n_max, ratio) from the direct truncated double sum.
SERIES_ORACLE = [
    (0.5, 1.0, 40, 1.9084091045673994),
    (-0.8, 0.3, 60, 0.11210819972278241),
    (0.9, 2.0, 80, 1.1940938105570382),
]

# (r_mir, k0d, ratio) from the mpmath oracle: high-finesse and optical
# cells, where every bounce order up to the default n_max is summed.
SERIES_MP_ORACLE = [
    (0.98, 100.0, 0.9622169781926998),
    (0.99, 30.0, 0.9141615530024767),
    (-0.98, 50.0, 1.0069290856224613),
    (0.995, 5.0, 0.4732401194360571),
    (0.9, 200.0, 0.9857630226666944),
]

# (r_mir, k0d, ratio) closed-arithmetic second-order subwavelength values.
SECOND_ORDER_ORACLE = [
    (0.9, 0.01, 18.931600000000003),
    (0.9, 0.1, 12.159999999999997),
    (-0.9, 0.1, 0.052684064732468276),
    (0.5, 0.1, 2.976),
    (-0.5, 0.1, 0.3336296296296296),
    (0.8, 0.1, 8.280000000000001),
    (-0.5, 0.2, 0.3345185185185185),
]


class TestCavitySpec:
    def test_valid_construction(self):
        spec = CavitySpec(r_mir=0.5, k0d=1.0)
        assert spec.t_mir_sq == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.2, -3.0])
    def test_degenerate_mirror(self, r):
        with pytest.raises(errors.DegenerateMirror):
            CavitySpec(r_mir=r, k0d=1.0)

    @pytest.mark.parametrize("k0d", [0.0, -1.0])
    def test_invalid_spacing(self, k0d):
        with pytest.raises(errors.InvalidParams):
            CavitySpec(r_mir=0.5, k0d=k0d)

    @pytest.mark.parametrize("r,k0d", [(math.nan, 1.0), (0.5, math.nan),
                                       (0.5, math.inf), (math.inf, 1.0)])
    def test_non_finite_rejected(self, r, k0d):
        with pytest.raises(errors.InvalidParams):
            CavitySpec(r_mir=r, k0d=k0d)


class TestQuadrature:
    @pytest.mark.parametrize("r,k0d,expected", QUAD_ORACLE)
    def test_oracle_values(self, r, k0d, expected):
        res = gamma_cavity_quadrature(CavitySpec(r_mir=r, k0d=k0d))
        assert res.ratio == pytest.approx(expected, rel=1e-9)
        assert abs(res.ratio - expected) <= max(res.err_estimate, 1e-9 * expected)

    def test_r_zero_is_free_space(self):
        res = gamma_cavity_quadrature(CavitySpec(r_mir=0.0, k0d=3.7))
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_ratio_positive(self):
        rng = np.random.default_rng(424242)
        for _ in range(10):
            r = float(rng.uniform(-0.95, 0.95))
            k0d = float(rng.uniform(0.05, 30.0))
            assert gamma_cavity_quadrature(CavitySpec(r_mir=r, k0d=k0d)).ratio > 0.0

    @pytest.mark.parametrize("r", [0.5, -0.8])
    @pytest.mark.parametrize("k0d", [math.inf, math.nan, 1e6])
    def test_hopeless_inputs_fail_fast(self, r, k0d, monkeypatch):
        def never(*args):
            raise AssertionError("integrand evaluated")

        monkeypatch.setattr(geometry, "transverse_weight_sum", never)
        start = time.perf_counter()
        with pytest.raises(errors.MirrorQEDError):
            gamma_cavity_quadrature(CavitySpec(r_mir=r, k0d=k0d))
        assert time.perf_counter() - start < 1.0

    def test_nonconvergence_budget(self):
        with pytest.raises(errors.NonConvergence):
            gamma_cavity_quadrature(
                CavitySpec(r_mir=0.999, k0d=300.0), max_evals=200_000
            )


class TestSeries:
    @pytest.mark.parametrize("r,k0d,n_max,expected", SERIES_ORACLE)
    def test_matches_direct_double_sum(self, r, k0d, n_max, expected):
        control = SeriesControl(n_max=n_max, tail_tol=1e-4)
        res = gamma_cavity_series(CavitySpec(r_mir=r, k0d=k0d), control)
        assert res.ratio == pytest.approx(expected, abs=1e-10)
        assert res.method == "series"

    def test_auto_depth_matches_quadrature(self):
        for r, k0d in [(0.5, 1.0), (-0.8, 3.0), (0.9, 0.7), (0.6, 20.0)]:
            spec = CavitySpec(r_mir=r, k0d=k0d)
            ser = gamma_cavity_series(spec)
            quad = gamma_cavity_quadrature(spec)
            gap = abs(ser.ratio - quad.ratio)
            assert gap <= max(ser.err_estimate + quad.err_estimate, 1e-12)

    @pytest.mark.parametrize("r,k0d,expected", SERIES_MP_ORACLE)
    def test_high_finesse_matches_mpmath(self, r, k0d, expected):
        control = SeriesControl()
        res = gamma_cavity_series(CavitySpec(r_mir=r, k0d=k0d), control)
        assert res.ratio == pytest.approx(expected, abs=1e-12)
        assert res.err_estimate <= control.tail_tol + 1e-14

    def test_r_zero_is_exactly_one(self):
        assert gamma_cavity_series(CavitySpec(r_mir=0.0, k0d=2.0)).ratio == 1.0

    def test_tail_too_large(self):
        with pytest.raises(errors.TailTooLarge) as exc:
            gamma_cavity_series(
                CavitySpec(r_mir=0.9, k0d=1.0), SeriesControl(n_max=5, tail_tol=1e-8)
            )
        assert exc.value.bound > exc.value.tol

    def test_n_max_above_cap_rejected(self):
        SeriesControl(n_max=cavity._N_MAX_CAP)
        with pytest.raises(errors.InvalidParams, match="n_max must be <="):
            SeriesControl(n_max=cavity._N_MAX_CAP + 1)

    def test_grid_matches_single_cells(self):
        r = np.array([-0.95, -0.5, 0.0, 0.3, 0.8, 0.8, 0.8])
        k0d = np.array([0.4, 2.0, 1.0, 7.5, 0.05, 3.0, 60.0])
        grid = gamma_cavity_series((r, k0d))
        assert grid.method == "series"
        assert (grid.status == "ok").all()
        for i, (ri, ki) in enumerate(zip(r.tolist(), k0d.tolist())):
            cell = gamma_cavity_series(CavitySpec(r_mir=ri, k0d=ki))
            assert abs(grid.ratio[i] - cell.ratio) <= 1e-13
            assert grid.err_estimate[i] == cell.err_estimate

    def test_grid_statuses_name_the_single_cell_errors(self):
        control = SeriesControl(n_max=20, tail_tol=1e-8)
        r = [0.5, 1.0, math.nan, 0.5, 0.95, -1.0]
        k0d = [1.0, 1.0, 1.0, 0.0, 1.0, 2.0]
        grid = gamma_cavity_series((np.array(r), np.array(k0d)), control)
        for i, (ri, ki) in enumerate(zip(r, k0d)):
            try:
                expected = gamma_cavity_series(
                    CavitySpec(r_mir=ri, k0d=ki), control)
            except errors.MirrorQEDError as exc:
                assert grid.status[i] == type(exc).__name__
                assert math.isnan(grid.ratio[i])
                assert math.isnan(grid.err_estimate[i])
            else:
                assert grid.status[i] == "ok"
                assert abs(grid.ratio[i] - expected.ratio) <= 1e-13
        assert grid.status.tolist() == ["ok", "DegenerateMirror",
                                        "InvalidParams", "InvalidParams",
                                        "TailTooLarge", "DegenerateMirror"]

    def test_high_finesse_k0d_sweep_runs_in_bounded_memory(self):
        # n_max = 13,206 at r = 0.999: an unblocked (200 x m) grid holds
        # about 42 MB per temporary
        r, k0d = 0.999, np.linspace(0.05, 20.0, 200)
        assert default_n_max(r, SeriesControl().tail_tol) == 13_206
        tracemalloc.start()
        try:
            grid = gamma_cavity_series((r, k0d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert (grid.status == "ok").all()
        for i in (0, 37, 99, 150, 199):
            cell = gamma_cavity_series(CavitySpec(r_mir=r, k0d=float(k0d[i])))
            assert abs(grid.ratio[i] - cell.ratio) <= 1e-13

    def test_default_depth_scales_with_reflectivity(self):
        shallow = default_n_max(0.3, 1e-8)
        deep = default_n_max(0.97, 1e-8)
        assert 8 <= shallow < deep

    def test_err_estimate_covers_deeper_truncation(self):
        spec = CavitySpec(r_mir=0.8, k0d=1.7)
        coarse = gamma_cavity_series(spec, SeriesControl(n_max=30, tail_tol=1e-2))
        fine = gamma_cavity_series(spec, SeriesControl(n_max=400, tail_tol=1e-12))
        assert abs(coarse.ratio - fine.ratio) <= coarse.err_estimate


class TestSubwavelength:
    def test_limit_closed_form(self):
        for r in (-0.99, -0.5, 0.0, 0.5, 0.9):
            assert gamma_subwavelength_limit(r).ratio == (1.0 + r) / (1.0 - r)

    def test_limit_perfect_dark_mirror_is_zero(self):
        assert gamma_subwavelength_limit(-1.0).ratio == 0.0

    def test_limit_rejects_bright_degenerate(self):
        with pytest.raises(errors.DegenerateMirror):
            gamma_subwavelength_limit(1.0)
        with pytest.raises(errors.DegenerateMirror):
            gamma_subwavelength_limit(-1.2)

    @pytest.mark.parametrize("r,k0d,expected", SECOND_ORDER_ORACLE)
    def test_second_order_oracle(self, r, k0d, expected):
        res = gamma_subwavelength_2nd(r, k0d)
        assert res.ratio == pytest.approx(expected, rel=1e-12)

    def test_second_order_reduces_to_limit_at_contact(self):
        for r in (-0.7, 0.4):
            assert (
                gamma_subwavelength_2nd(r, 0.0).ratio
                == gamma_subwavelength_limit(r).ratio
            )

    def test_second_order_agrees_with_quadrature_in_regime(self):
        for r in (-0.9, -0.5, 0.5):
            approx = gamma_subwavelength_2nd(r, 0.1).ratio
            exact = gamma_cavity_quadrature(CavitySpec(r_mir=r, k0d=0.1)).ratio
            assert abs(approx - exact) / exact < 5e-3

    def test_second_order_grid_matches_single_cells_bit_for_bit(self):
        r = np.linspace(-1.0, 0.99, 200)
        grid = gamma_subwavelength_2nd(r, 0.07)
        assert grid.method == "limit"
        assert (grid.status == "ok").all()
        for i, ri in enumerate(r.tolist()):
            cell = gamma_subwavelength_2nd(ri, 0.07)
            assert grid.ratio[i] == cell.ratio
            assert grid.err_estimate[i] == cell.err_estimate

    def test_second_order_grid_flags_bad_cells(self):
        grid = gamma_subwavelength_2nd(np.array([-1.0, 1.0, 0.5, -1.2]),
                                       np.array([0.1, 0.1, -0.1, 0.1]))
        assert grid.status.tolist() == ["ok", "DegenerateMirror",
                                        "InvalidParams", "DegenerateMirror"]
        assert grid.ratio[0] == 0.0
        assert np.isnan(grid.ratio[1:]).all()
        with pytest.raises(errors.DegenerateMirror,
                           match="got 1.0$"):
            gamma_subwavelength_2nd(1.0, 0.1)

    def test_overflowing_k0d_fails_without_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)
            with pytest.raises(errors.InvalidParams):
                gamma_subwavelength_2nd(0.5, 1e200)
            grid = gamma_subwavelength_2nd(np.array([0.5, 0.5]),
                                           np.array([0.01, 1e200]))
        assert grid.status.tolist() == ["ok", "InvalidParams"]
        assert np.isnan(grid.ratio[1])

    def test_warns_outside_regime(self):
        with pytest.warns(UserWarning):
            gamma_subwavelength_2nd(0.5, 0.5)

    def test_no_warning_inside_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma_subwavelength_2nd(0.5, 0.2)


class TestPhysicalStructure:
    def test_bright_dark_dichotomy_near_contact(self):
        k0d = 0.01
        for r in np.round(np.linspace(-0.99, 0.99, 11), 12):
            ratio = gamma_cavity_quadrature(CavitySpec(r_mir=float(r), k0d=k0d)).ratio
            if r > 0:
                assert ratio > 1.0
            elif r < 0:
                assert ratio < 1.0
            else:
                assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_optical_regime_returns_to_free_space(self):
        for r, k0d in [(0.3, 20.0 * math.pi), (-0.8, 50.0 * math.pi)]:
            ratio = gamma_cavity_quadrature(CavitySpec(r_mir=r, k0d=k0d)).ratio
            assert abs(ratio - 1.0) < 0.05

    def test_strong_enhancement_for_bright_subwavelength(self):
        assert gamma_cavity_quadrature(CavitySpec(r_mir=0.9, k0d=0.01)).ratio > 15.0
