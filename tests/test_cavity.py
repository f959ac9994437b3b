"""Two-mirror cavity decay ratio: quadrature, bounce series, subwavelength forms.

Quadrature expectations are frozen from the 30-digit mpmath oracle
(tanh-sinh in cos theta of the resummed round-trip kernel); series
expectations from the direct truncated image sum and double bounce sum
with pinned depth, and at high finesse and contact from the same mpmath
oracle.
"""

import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mirrorqed import (
    default_n_max,
    errors,
    gamma_cavity_quadrature,
    gamma_cavity_series,
    gamma_subwavelength_2nd,
    gamma_subwavelength_limit,
    cavity,
    geometry,
)

from . import oracles

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

def _first_level_panels(monkeypatch, route, *args):
    """The uniform first-level panels ``route(*args)`` asks the engine for."""
    class Called(Exception):
        pass

    asked = []

    def spy(integrand, **kwargs):
        asked.append(kwargs["panels"])
        raise Called

    monkeypatch.setattr(geometry, "solid_angle_integrate", spy)
    with pytest.raises(Called):
        route(*args)
    return asked[0]


def rerun_over_2d_weight(monkeypatch, factor, route):
    """Run ``route`` and redo its engine call over the full 2-D weight.

    The redo integrates the 16-node phi mean of
    transverse_weight_sum(dhat, theta, phi) for the default in-plane
    dipole, which every route computes, exact for this degree-2
    trigonometric weight, at theta = arccos(xi) and times factor(xi),
    with the panels, breakpoints, tolerance and budget the route passed
    to the engine.
    Returns the route's result and the redone integral.
    """
    engine = geometry.solid_angle_integrate
    calls = []

    def spy(integrand, **kwargs):
        calls.append(kwargs)
        return engine(integrand, **kwargs)

    monkeypatch.setattr(geometry, "solid_angle_integrate", spy)
    result = route()
    (kwargs,) = calls
    dhat = geometry.DipoleOrientation()
    phis = (math.pi / 8) * np.arange(16)
    value, _ = engine(
        lambda xi, phi: (
            geometry.transverse_weight_sum(dhat, np.arccos(xi)[:, None], phis)
            .mean(axis=1) * factor(xi)), **kwargs)
    return result, value


# (r_mir, k0d, n_max, ratio) from the direct truncated double sum, against
# the image sum at the same order: 1 + 3 * cavity._series_sums(r, k0d, n_max).
SERIES_ORACLE = [
    (0.5, 1.0, 40, 1.9084091045673994),
    (-0.8, 0.3, 60, 0.11210819972278241),
    (0.9, 2.0, 80, 1.1940938105570382),
]

# (r_mir, k0d, n_max, ratio) from the direct truncated image sum (mpmath).
IMAGE_SUM_ORACLE = [
    (0.5, 1.0, 40, 1.9084091045673999),
    (-0.8, 0.3, 60, 0.11210819972283927),
    (0.9, 2.0, 80, 1.1940938107327637),
    (-0.98, 0.05, 300, 0.010103789866286106),
    (0.3, 7.5, 0, 1.1161050956812095),
]

# Cells where the series meets the live mpmath oracle: contact, where
# every dropped image has f near 2/3 and the tail bound is tight, up to
# the optical regime.
SERIES_GRID_R = [0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 0.98, -0.98, 0.99,
                 0.999, -0.999]
SERIES_GRID_K0D = [1e-8, 1e-4, 1e-3, 0.1, 1.0, 10.0]

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


class TestCavityDomain:
    """|r_mir| < 1 and a finite k0d > 0, as both routes check it."""

    ROUTES = (gamma_cavity_quadrature, gamma_cavity_series)

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.2, -3.0])
    def test_degenerate_mirror(self, r):
        for route in self.ROUTES:
            with pytest.raises(errors.DegenerateMirror):
                route(r, 1.0)

    @pytest.mark.parametrize("k0d", [0.0, -1.0])
    def test_invalid_spacing(self, k0d):
        for route in self.ROUTES:
            with pytest.raises(errors.InvalidParams):
                route(0.5, k0d)

    @pytest.mark.parametrize("r,k0d", [(math.nan, 1.0), (0.5, math.nan),
                                       (0.5, math.inf), (math.inf, 1.0)])
    def test_non_finite_rejected(self, r, k0d):
        for route in self.ROUTES:
            with pytest.raises(errors.InvalidParams):
                route(r, k0d)


class TestQuadrature:
    @pytest.mark.parametrize("r,k0d,expected", QUAD_ORACLE)
    def test_oracle_values(self, r, k0d, expected):
        res = gamma_cavity_quadrature(r, k0d)
        assert res.ratio == pytest.approx(expected, rel=1e-9)
        assert abs(res.ratio - expected) <= max(res.err_estimate, 1e-9 * expected)

    def test_bits_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot product of more than 10,000 elements
        # across threads and rounds differently; this cell's level sums
        # are longer than that
        code = ("import math; from mirrorqed import gamma_cavity_quadrature; "
                "print(gamma_cavity_quadrature(0.8, 50 * math.pi).ratio.hex())")
        bits = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, timeout=60,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")}
        assert len(bits) == 1, bits

    def test_r_zero_is_free_space(self):
        res = gamma_cavity_quadrature(0.0, 3.7)
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_ratio_positive(self):
        rng = np.random.default_rng(424242)
        for _ in range(10):
            r = float(rng.uniform(-0.95, 0.95))
            k0d = float(rng.uniform(0.05, 30.0))
            assert gamma_cavity_quadrature(r, k0d).ratio > 0.0

    def test_grid_cells_match_single_cells_bit_for_bit(self):
        r = np.array([0.5, -0.98, 0.0, 0.5, 1.0])
        k0d = np.array([1.0, 3.0, 0.3, 1e6, 1.0])
        grid = gamma_cavity_quadrature(r, k0d)
        assert grid.method == "quadrature"
        assert grid.status.tolist() == ["ok", "ok", "ok", "NonConvergence",
                                        "DegenerateMirror"]
        for i in range(3):
            cell = gamma_cavity_quadrature(r[i].item(), k0d[i].item())
            assert grid.ratio[i] == cell.ratio
            assert grid.err_estimate[i] == cell.err_estimate
        assert np.isnan(grid.ratio[3:]).all()
        assert np.isnan(grid.err_estimate[3:]).all()
        with pytest.raises(errors.NonConvergence) as refused:
            gamma_cavity_quadrature(0.5, 1e6)
        assert refused.value.n_evals == 0

    def test_first_level_gate_runs_before_the_breakpoints(self, monkeypatch):
        # k0d = 4e5 asks for 2e5 uniform panels and 891,287 breakpoints,
        # 52.4e6 evaluations at 48 a panel: over the default budget, so no
        # breakpoint may be built
        def never(*args):
            raise AssertionError("breakpoints built")

        monkeypatch.setattr(cavity, "_peak_breakpoints", never)
        with pytest.raises(errors.NonConvergence) as refused:
            gamma_cavity_quadrature(0.5, 4e5)
        assert refused.value.n_evals == 0
        grid = gamma_cavity_quadrature(np.array([0.5, 0.5]),
                                       np.array([4e5, 4e5]))
        assert grid.status.tolist() == ["NonConvergence", "NonConvergence"]

    @pytest.mark.parametrize("max_evals", [10_000, 200_000, 40_000_000])
    @pytest.mark.parametrize("r", [0.5, -0.98])
    def test_first_level_gate_prices_the_first_two_levels(self, monkeypatch,
                                                          r, max_evals):
        # an admitted cell's first level, and the level of twice its
        # panels that must confirm it, fit the budget: 3 x its nodes; a
        # refused cell builds no breakpoint and evaluates nothing
        class SecondLevel(Exception):
            pass

        build, panel_points = cavity._peak_breakpoints, geometry._panel_points
        built, first = [], []

        def spy_breakpoints(*args):
            built.append(args)
            return build(*args)

        def spy_points(edges):
            if edges[0] == -1.0 and first:  # every level starts at -1
                raise SecondLevel
            first.append(16 * (edges.size - 1))
            return panel_points(edges)

        monkeypatch.setattr(cavity, "_peak_breakpoints", spy_breakpoints)
        monkeypatch.setattr(geometry, "_panel_points", spy_points)
        admitted = refused = 0
        for k0d in np.geomspace(1e-3, 1e8, 45).tolist():
            built.clear()
            first.clear()
            try:
                gamma_cavity_quadrature(r, k0d, max_evals=max_evals)
            except SecondLevel:
                assert built and 3 * sum(first) <= max_evals, k0d
                admitted += 1
            except errors.NonConvergence as exc:
                assert exc.n_evals == 0, k0d
                assert not built and not first, k0d
                refused += 1
        assert admitted and refused

    @pytest.mark.parametrize("k0d", [3e5, 5e6, 1e308])
    def test_refused_cell_allocates_nothing(self, k0d):
        # the gate prices the breakpoints from their windows, in integers,
        # before one is built; at 3e5 they once took 39.7 MiB to refuse
        # (at r = 0.5, which the default budget admits up to 305,447.62)
        tracemalloc.start()
        try:
            with pytest.raises(errors.NonConvergence) as refused:
                gamma_cavity_quadrature(0.98, k0d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused.value.n_evals == 0
        assert peak < 1 << 20

    @pytest.mark.parametrize("r", [0.5, -0.8])
    @pytest.mark.parametrize("k0d", [math.inf, math.nan, 1e6])
    def test_hopeless_inputs_fail_fast(self, r, k0d, monkeypatch):
        def never(*args):
            raise AssertionError("integrand evaluated")

        monkeypatch.setattr(geometry, "phi_mean_weight", never)
        monkeypatch.setattr(cavity, "interference_kernel", never)
        start = time.perf_counter()
        with pytest.raises(errors.MirrorQEDError):
            gamma_cavity_quadrature(r, k0d)
        assert time.perf_counter() - start < 1.0

    # |r| from 0.003 to 0.999 and k0d from 1e-3 to 300, both signs of r
    @pytest.mark.parametrize("r", [sign * a for a in (0.003, 0.03, 0.3, 0.7,
                                                      0.98, 0.999)
                                   for sign in (1.0, -1.0)])
    def test_peak_breakpoints_match_the_full_centre_walk(self, r):
        def walk(r, k0d):
            # every centre up to 1 + 16 h, as the route once built them
            points = []
            halfwidth = (1.0 - r * r) / (2.0 * abs(r) * k0d)
            j = 0 if r > 0.0 else 1
            while j * math.pi / k0d < 1.0 + 16.0 * halfwidth:
                center = j * math.pi / k0d
                for offset in (0.0, halfwidth, 4.0 * halfwidth,
                               16.0 * halfwidth):
                    for signed in ((center + offset, center - offset)
                                   if offset else (center,)):
                        points.extend((signed, -signed))
                j += 2
            return points

        def inside(points):
            # the engine keeps only edges in (-1, 1); +-0 are one edge
            return {p + 0.0 for p in points if -1.0 < p < 1.0}

        for k0d in (1e-3, 0.01, 0.1, 0.7, 1.0, math.pi, 10.0, 55.5, 300.0):
            assert inside(cavity._peak_breakpoints(r, k0d)) == inside(
                walk(r, k0d)), k0d

    # r over +-1e-12 to +-0.999, 25 log-spaced k0d in [1e-3, 1e3] and the
    # cell where the windows once reached their proved bound
    @pytest.mark.parametrize("r", [sign * a for a in (1e-12, 0.01, 0.5,
                                                      0.98, 0.999)
                                   for sign in (1.0, -1.0)])
    def test_peak_breakpoints_match_a_brute_force_walk(self, r):
        def brute(r, k0d):
            # for each shift, every j of the peak parity within k0d / pi
            # + 10 of the centre nearest -s, whose edge lies in (-1, 1)
            halfwidth = (1.0 - r * r) / (2.0 * abs(r) * k0d)
            scale = k0d / math.pi
            edges = set()
            for shift in (0.0, halfwidth, -halfwidth, 4.0 * halfwidth,
                          -4.0 * halfwidth, 16.0 * halfwidth,
                          -16.0 * halfwidth):
                centre = round(-shift * scale)
                reach = math.ceil(scale) + 10
                assert abs(centre) + reach < 2 ** 53
                for j in range(centre - reach, centre + reach + 1):
                    edge = j * math.pi / k0d + shift
                    if j % 2 == (r < 0.0) and -1.0 < edge < 1.0:
                        edges.add(edge + 0.0)  # +-0 are one edge
            return edges

        for k0d in [*np.geomspace(1e-3, 1e3, 25).tolist(), 803.4]:
            built = cavity._peak_breakpoints(r, k0d)
            assert built.dtype == float
            assert {p + 0.0 for p in built.tolist()
                    if -1.0 < p < 1.0} == brute(r, k0d), k0d

    @pytest.mark.parametrize("r", [0.5, -0.98, 0.01, -1e-12, 1e-300])
    @pytest.mark.parametrize("k0d", [1e-3, 1.0, 803.4, 1e5, 2.5e5])
    def test_gate_prices_the_breakpoints_it_builds(self, monkeypatch, r,
                                                   k0d):
        # the route's pre-gate prices its uniform panels plus exactly the
        # edges _peak_breakpoints then builds, at most 7 ceil(k0d / pi)
        # + 21 of them
        class Priced(Exception):
            pass

        priced = []

        def spy(panels, max_evals):
            priced.append(panels)
            raise Priced

        monkeypatch.setattr(geometry, "first_level_panels", spy)
        with pytest.raises(Priced):
            gamma_cavity_quadrature(r, k0d)
        uniform = (geometry.oscillation_panels(k0d) if abs(r) <= 0.9
                   else max(8, geometry.oscillation_panels(2.0 * k0d)))
        built = len(cavity._peak_breakpoints(r, k0d))
        assert priced == [uniform + built]
        assert built <= 7 * math.ceil(k0d / math.pi) + 21

    @pytest.mark.parametrize("r,k0d,panels", [
        (0.5, 1e-3, 4), (-0.9, 0.5, 4), (0.3, 6.9, 4), (-0.7, 8.5, 5),
        (0.9, 9.3, 5), (-0.2, 100.0, 50),
        (0.95, 0.5, 8), (-0.999, 6.9, 8), (0.98, 8.5, 9), (-0.91, 9.3, 10),
        (0.9999, 100.0, 100)])
    def test_first_level_panel_counts(self, monkeypatch, r, k0d, panels):
        # the counts of the node hint: max(4, ceil(k0d / 2)) panels for
        # |r| <= 0.9, max(8, ceil(k0d)) for the sharper peaks above
        assert _first_level_panels(monkeypatch, gamma_cavity_quadrature,
                                   r, k0d) == panels

    @pytest.mark.parametrize("r,admitted,refused", [
        (0.5, 305_447.62, 305_447.63), (-0.9, 305_446.17, 305_446.18),
        (-0.7, 305_446.0, 305_446.01), (0.95, 258_136.06, 258_136.07),
        (0.98, 258_136.0, 258_136.01), (-0.999, 258_138.38, 258_138.39),
        (0.0, 1_666_666.0, 1_666_666.01)])
    def test_default_budget_refuses_above_the_stated_k0d(self, monkeypatch,
                                                          r, admitted,
                                                          refused):
        # the thresholds the route's docstring and the README state: the
        # largest k0d whose first level the gate admits, and one just
        # above; with the breakpoints priced as built, the edge moves with
        # r, within 305,446-305,447.63 for 1e-12 <= |r| <= 0.9 and within
        # 258,136-258,138.39 for |r| > 0.9
        class Admitted(Exception):
            pass

        def admit(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(cavity, "_peak_breakpoints", admit)
        monkeypatch.setattr(geometry, "solid_angle_integrate", admit)
        with pytest.raises(Admitted):
            gamma_cavity_quadrature(r, admitted)
        with pytest.raises(errors.NonConvergence) as exc:
            gamma_cavity_quadrature(r, refused)
        assert exc.value.n_evals == 0

    @pytest.mark.parametrize("r", [1e-8, -1e-12, 1e-300, 5e-324])
    def test_tiny_reflectivity_builds_few_breakpoints(self, r):
        start = time.perf_counter()
        points = cavity._peak_breakpoints(r, 100.0)
        assert time.perf_counter() - start < 0.1
        assert len(points) <= 2 * 7 * (100.0 / math.pi + 4)
        res = gamma_cavity_quadrature(r, 1.0)
        assert res.ratio == pytest.approx(1.0, abs=1e-7)

    def test_nonconvergence_budget(self):
        with pytest.raises(errors.NonConvergence):
            gamma_cavity_quadrature(0.999, 300.0, max_evals=200_000)

    @pytest.mark.parametrize("r,k0d", [
        (-0.8, 1.0), (0.2, 10.0), (0.8, 0.05), (0.98, 1.5),
        (0.6, 50.0 * math.pi), (0.99, 0.01)])
    def test_err_estimate_covers_rounding(self, r, k0d):
        # cells of validate's grids whose error is all rounding: each is
        # covered only because err_estimate counts the rounding of the
        # ratio and of the integrand, and (0.99, 0.01) only because the
        # kernel forms 1 - r^2 without cancellation
        res = gamma_cavity_quadrature(r, k0d)
        exact = oracles.cavity_ratio_mp(r, k0d)
        assert abs(res.ratio - exact) <= res.err_estimate

    @pytest.mark.parametrize("r,k0d", [
        (-0.9724, 82.2376), (-0.8201, 23.9722), (0.9629, 84.973),
        (0.9617, 144.195), (-0.9445, 198.414), (-0.966, 4.046)])
    def test_high_finesse_cells_within_err_estimate(self, r, k0d):
        # high-finesse cells whose rounding the engine's error once missed:
        # the first four by 2.00x, 1.05x, 1.12x and 1.12x, while nodes sat
        # at mid + half t and the weights were numpy's; all now read 0.16x
        # or less
        res = gamma_cavity_quadrature(r, k0d)
        exact = oracles.cavity_ratio_mp(r, k0d)
        assert abs(res.ratio - exact) <= res.err_estimate

    @pytest.mark.parametrize("r,k0d", [(0.9, 1e-3), (0.5, math.pi),
                                       (0.98, 3.0), (-0.98, 10.0),
                                       (0.8, 100.0)])
    def test_matches_two_dimensional_weight(self, r, k0d, monkeypatch):
        res, integral = rerun_over_2d_weight(
            monkeypatch,
            lambda xi: cavity.interference_kernel(r, k0d * xi),
            lambda: gamma_cavity_quadrature(r, k0d))
        reference = 3.0 / (8.0 * math.pi) * integral
        assert abs(res.ratio - reference) <= 1e-14 * abs(reference)


def image_sum(r, k0d, n_max):
    """The series route's sum at a pinned order n_max."""
    return 1.0 + 3.0 * cavity._series_sums(np.array([r]), np.array([k0d]),
                                           n_max)[0]


class TestSeries:
    @pytest.mark.parametrize("r,k0d,n_max,expected", SERIES_ORACLE)
    def test_matches_direct_double_sum(self, r, k0d, n_max, expected):
        err = cavity._series_tail_bound(r, n_max) + cavity._series_rounding(r)
        assert abs(image_sum(r, k0d, n_max) - expected) <= err

    @pytest.mark.parametrize("r,k0d,n_max,expected", IMAGE_SUM_ORACLE)
    def test_matches_direct_image_sum(self, r, k0d, n_max, expected):
        assert abs(image_sum(r, k0d, n_max) - expected) <= 1e-13

    @pytest.mark.parametrize("r", SERIES_GRID_R)
    def test_err_estimate_covers_mpmath(self, r):
        for k0d in SERIES_GRID_K0D:
            res = gamma_cavity_series(r, k0d)
            exact = oracles.cavity_ratio_mp(r, k0d, dps=20)
            assert abs(res.ratio - exact) <= res.err_estimate, k0d

    def test_default_n_max_is_minimal_and_sound(self):
        def err(r, n):
            return cavity._series_tail_bound(r, n) + cavity._series_rounding(r)

        for ar in (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 0.999, 0.9999):
            for tol in (1e-2, 1e-5, 1e-8, 1e-10, 1e-12):
                n = default_n_max(ar, tol)
                if n == cavity._N_MAX_CAP:
                    continue
                assert default_n_max(-ar, tol) == n
                assert err(ar, n) <= tol
                assert n == 0 or err(ar, n - 1) > tol

    @pytest.mark.parametrize("r,tail_tol", [
        (0.5, math.inf), (0.5, math.nan), (1.5, 1e-8), (1.0, 1e-8),
        (-1.0, 1e-8), (math.nan, 1e-8),
    ])
    def test_default_n_max_outside_its_domain_is_invalid(self, r, tail_tol):
        # math.ceil of inf, int of nan and log of a negative once raised
        # OverflowError or ValueError, and 1 - |r| = 0 ZeroDivisionError
        with pytest.raises(errors.InvalidParams):
            default_n_max(r, tail_tol)

    def test_tail_tol_below_rounding_floor_fails(self):
        assert cavity._series_rounding(0.5) > 2e-14
        assert default_n_max(0.5, 2e-14) == cavity._N_MAX_CAP
        with pytest.raises(errors.TailTooLarge) as exc:
            gamma_cavity_series(0.5, 1.0, tail_tol=2e-14)
        assert exc.value.bound > exc.value.tol

    def test_auto_depth_matches_quadrature(self):
        for r, k0d in [(0.5, 1.0), (-0.8, 3.0), (0.9, 0.7), (0.6, 20.0)]:
            ser = gamma_cavity_series(r, k0d)
            quad = gamma_cavity_quadrature(r, k0d)
            gap = abs(ser.ratio - quad.ratio)
            assert gap <= max(ser.err_estimate + quad.err_estimate, 1e-12)

    @pytest.mark.parametrize("r,k0d,expected", SERIES_MP_ORACLE)
    def test_high_finesse_matches_mpmath(self, r, k0d, expected):
        res = gamma_cavity_series(r, k0d)
        assert res.method == "series"
        assert res.ratio == pytest.approx(expected, abs=1e-12)
        assert res.err_estimate <= cavity.DEFAULT_TAIL_TOL + 1e-14

    def test_r_zero_is_exactly_one(self):
        assert gamma_cavity_series(0.0, 2.0).ratio == 1.0

    def test_order_past_the_cap_is_tail_too_large(self):
        # |r| so near 1 that the tail needs more than _N_MAX_CAP passes,
        # with the rounding floor (2e-9) under tail_tol
        assert default_n_max(0.99999, 1e-8) == cavity._N_MAX_CAP
        with pytest.raises(errors.TailTooLarge) as exc:
            gamma_cavity_series(0.99999, 1.0)
        assert exc.value.bound > exc.value.tol == 1e-8

    @pytest.mark.parametrize("tail_tol", [math.inf, math.nan, 0.0, -1e-8])
    def test_tail_tol_must_be_positive_and_finite(self, tail_tol):
        for r, k0d in ((0.5, 1.0), ([0.5, 0.9], 1.0)):
            with pytest.raises(errors.InvalidParams, match="tail_tol must be"):
                gamma_cavity_series(r, k0d, tail_tol=tail_tol)

    def test_n_max_is_not_a_control(self):
        assert not hasattr(cavity, "SeriesControl")
        with pytest.raises(TypeError):
            gamma_cavity_series(0.5, 1.0, n_max=5)
        with pytest.raises(TypeError):
            gamma_cavity_series(0.5, 1.0, control=None)

    def test_grid_matches_single_cells(self):
        r = np.array([-0.95, -0.5, 0.0, 0.3, 0.8, 0.8, 0.8])
        k0d = np.array([0.4, 2.0, 1.0, 7.5, 0.05, 3.0, 60.0])
        grid = gamma_cavity_series(r, k0d)
        assert grid.method == "series"
        assert (grid.status == "ok").all()
        for i, (ri, ki) in enumerate(zip(r.tolist(), k0d.tolist())):
            cell = gamma_cavity_series(ri, ki)
            assert abs(grid.ratio[i] - cell.ratio) <= 1e-13
            assert grid.err_estimate[i] == cell.err_estimate

    def test_grid_statuses_name_the_single_cell_errors(self):
        # the rounding floor is 3e-14 at r = 0.5 and 3.9e-13 at r = 0.95
        tail_tol = 1e-13
        r = [0.5, 1.0, math.nan, 0.5, 0.95, -1.0]
        k0d = [1.0, 1.0, 1.0, 0.0, 1.0, 2.0]
        grid = gamma_cavity_series(np.array(r), np.array(k0d), tail_tol)
        for i, (ri, ki) in enumerate(zip(r, k0d)):
            try:
                expected = gamma_cavity_series(ri, ki, tail_tol)
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
        # n_max = 13,005 at r = 0.999: an unblocked (200 x j) grid holds
        # about 42 MB per temporary
        r, k0d = 0.999, np.linspace(0.05, 20.0, 200)
        assert default_n_max(r, cavity.DEFAULT_TAIL_TOL) == 13_005
        tracemalloc.start()
        try:
            grid = gamma_cavity_series(r, k0d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert (grid.status == "ok").all()
        for i in (0, 37, 99, 150, 199):
            cell = gamma_cavity_series(r, float(k0d[i]))
            assert abs(grid.ratio[i] - cell.ratio) <= 1e-13

    def test_default_depth_scales_with_reflectivity(self):
        shallow = default_n_max(0.3, 1e-8)
        deep = default_n_max(0.97, 1e-8)
        assert 8 <= shallow < deep

    @pytest.mark.parametrize("tail_tol", [1e-2, 1e-8, 1e-12])
    @pytest.mark.parametrize("r", [0.1, -0.5, 0.8, -0.9, 0.98])
    def test_err_estimate_covers_deeper_truncation(self, r, tail_tol):
        # every order past the derived one moves the value by less than
        # the err_estimate it reports, so no user-set order could help
        n = default_n_max(r, tail_tol)
        for k0d in (0.05, 1.7, 20.0):
            res = gamma_cavity_series(r, k0d, tail_tol)
            for deeper in (n + 1, 2 * n + 5, 3 * n + 50):
                gap = abs(image_sum(r, k0d, deeper) - res.ratio)
                assert gap <= res.err_estimate, (k0d, deeper)


class TestSubwavelength:
    def test_limit_closed_form(self):
        rs = (-0.99, -0.5, 0.0, 0.5, 0.9)
        grid = gamma_subwavelength_limit(np.array(rs))
        assert (grid.status == "ok").all()
        # the rounding floor of the closed form, as for the second order
        assert (grid.err_estimate == 4e-16 * np.abs(grid.ratio)).all()
        for i, r in enumerate(rs):
            assert gamma_subwavelength_limit(r).ratio == (1.0 + r) / (1.0 - r)
            assert grid.ratio[i] == (1.0 + r) / (1.0 - r)

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

    @pytest.mark.parametrize("k0d", [1e-3, 1e-2, 0.05, 0.1])
    @pytest.mark.parametrize("r", [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
    def test_second_order_err_estimate_bounds_its_truncation(self, r, k0d):
        # for r < 0 the omitted orders do not alternate: |t4| + |t6|
        # alone falls short of the truncation at r = -0.9, k0d = 0.1
        res = gamma_subwavelength_2nd(r, k0d)
        exact = float(oracles.cavity_ratio_mp(r, k0d))
        assert abs(res.ratio - exact) <= res.err_estimate

    def test_second_order_reduces_to_limit_at_contact(self):
        for r in (-0.7, 0.4):
            assert (
                gamma_subwavelength_2nd(r, 0.0).ratio
                == gamma_subwavelength_limit(r).ratio
            )

    def test_second_order_agrees_with_quadrature_in_regime(self):
        for r in (-0.9, -0.5, 0.5):
            approx = gamma_subwavelength_2nd(r, 0.1).ratio
            exact = gamma_cavity_quadrature(r, 0.1).ratio
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
            ratio = gamma_cavity_quadrature(float(r), k0d).ratio
            if r > 0:
                assert ratio > 1.0
            elif r < 0:
                assert ratio < 1.0
            else:
                assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_optical_regime_returns_to_free_space(self):
        for r, k0d in [(0.3, 20.0 * math.pi), (-0.8, 50.0 * math.pi)]:
            ratio = gamma_cavity_quadrature(r, k0d).ratio
            assert abs(ratio - 1.0) < 0.05

    def test_strong_enhancement_for_bright_subwavelength(self):
        assert gamma_cavity_quadrature(0.9, 0.01).ratio > 15.0
