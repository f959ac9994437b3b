"""Sinc-family kernel, its envelope, and the round-trip interference kernel.

Expected values are frozen from the mpmath oracle in tests/oracles.py.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mirrorqed import errors, kernels

# (x, f(x)) pairs from the 50-digit mpmath evaluation, rounded to double.
F_ORACLE = [
    (0.05, 0.6663333779734348),
    (0.1, 0.6653340474427059),
    (0.2, 0.6613447506236949),
    (1.0, 0.5403023058681398),
    (math.pi, -0.10132118364233772),
    (2.0 * math.pi, 0.02533029591058437),
    (100.0, -0.00497691815822771),
]

# (r, x, K(r, x), rtol) from the geometric bounce-sum oracle; the last row
# carries the oracle's own 1e4-term truncation error at r = 0.999.
K_ORACLE = [
    (0.9, 0.0, 19.000000000000007, 1e-12),
    (-0.9, 0.0, 0.05263157894736842, 1e-12),
    (0.5, 1.3, 0.7633578685204697, 1e-12),
    (0.999, math.pi, 0.0005002501230249681, 1e-7),
]


class TestFKernel:
    def test_exact_value_at_zero(self):
        assert kernels.f_kernel(0.0) == 2.0 / 3.0

    @pytest.mark.parametrize("x,expected", F_ORACLE)
    def test_oracle_values(self, x, expected):
        assert kernels.f_kernel(x) == pytest.approx(expected, abs=1e-13)

    def test_even_function(self):
        x = np.linspace(0.01, 40.0, 157)
        np.testing.assert_allclose(
            kernels.f_kernel(x), kernels.f_kernel(-x), rtol=1e-14, atol=1e-16
        )

    def test_branch_continuity_at_crossover(self):
        # the Taylor branch hands over to the direct formula at |x| = 0.1
        x0 = 0.1
        below = kernels.f_kernel(x0 * (1.0 - 1e-12))
        above = kernels.f_kernel(x0 * (1.0 + 1e-12))
        assert abs(above - below) < 1e-12

    def test_small_argument_against_series_reference(self):
        # 2/3 - 2x^2/15 + x^4/140 covers |x| <= 0.02 to well below 1e-13
        x = np.linspace(-0.02, 0.02, 41)
        ref = 2.0 / 3.0 - 2.0 * x**2 / 15.0 + x**4 / 140.0
        np.testing.assert_allclose(kernels.f_kernel(x), ref, atol=1e-13)

    def test_global_bound(self):
        x = np.linspace(-30.0, 30.0, 2401)
        assert np.max(np.abs(kernels.f_kernel(x))) <= 2.0 / 3.0 + 1e-15

    def test_large_argument_decay(self):
        assert abs(kernels.f_kernel(1e4)) < 2e-4

    def test_array_shape_and_scalar(self):
        out = kernels.f_kernel(np.ones((3, 5)))
        assert out.shape == (3, 5)
        assert isinstance(kernels.f_kernel(1.0), float)

    def test_direct_branch_is_the_three_term_formula_in_small_memory(self):
        x = np.linspace(0.2, 50.0, 2 ** 16)
        s, c = np.sin(x), np.cos(x)
        ref = s / x + c / (x * x) - s / (x * x * x)
        tracemalloc.start()
        try:
            out = kernels.f_kernel(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        assert peak <= 5 * x.nbytes


class TestFEnvelope:
    def test_dominates_f(self):
        x = np.linspace(0.3, 50.0, 777)
        assert np.all(np.abs(kernels.f_kernel(x)) <= kernels.f_envelope(x))

    def test_closed_form(self):
        y = 2.5
        assert kernels.f_envelope(y) == pytest.approx(
            1.0 / y + 1.0 / y**2 + 1.0 / y**3, rel=1e-15
        )
        assert kernels.f_envelope(-y) == kernels.f_envelope(y)


class TestInterferenceKernel:
    @pytest.mark.parametrize("r,x,expected,rtol", K_ORACLE)
    def test_bounce_sum_oracle(self, r, x, expected, rtol):
        assert kernels.interference_kernel(r, x) == pytest.approx(expected, rel=rtol)

    def test_dc_identity(self):
        # K(r, 0) = (1 + r) / (1 - r); 1 - r^2 squares up the roundoff near |r| = 1
        for r in (-0.99, -0.5, 0.0, 0.3, 0.9, 0.999):
            assert kernels.interference_kernel(r, 0.0) == pytest.approx(
                (1.0 + r) / (1.0 - r), rel=1e-11
            )

    def test_period_2pi_in_x(self):
        x = np.linspace(0.0, 2.0 * math.pi, 101)
        a = kernels.interference_kernel(0.7, x)
        b = kernels.interference_kernel(0.7, x + 2.0 * math.pi)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_positive_everywhere(self):
        x = np.linspace(0.0, 7.0, 1001)
        for r in (-0.999, -0.5, 0.5, 0.999):
            assert np.all(kernels.interference_kernel(r, x) > 0.0)

    def test_r_zero_is_unity(self):
        x = np.linspace(0.0, 10.0, 101)
        np.testing.assert_array_equal(kernels.interference_kernel(0.0, x), np.ones(101))

    def test_mean_over_period_is_t_squared_scaled(self):
        # 1/(2 pi) int K dx = t^2 / (1 - r^2) = 1 for lossless mirrors
        r = 0.8
        x = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        mean = float(np.mean(kernels.interference_kernel(r, x)))
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_mirror_rejected(self):
        with pytest.raises(errors.DegenerateMirror):
            kernels.interference_kernel(1.0, 0.5)
        with pytest.raises(errors.DegenerateMirror):
            kernels.interference_kernel(-1.0, 0.5)

    def test_array_r_matches_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(5)
        rs = rng.uniform(-0.999, 0.999, 17)
        xs = rng.uniform(0.0, 40.0, 23)
        grid = kernels.interference_kernel(rs[:, None], xs)
        assert grid.shape == (17, 23)
        rows = np.array([kernels.interference_kernel(float(r), xs)
                         for r in rs])
        assert grid.tobytes() == rows.tobytes()

    def test_any_degenerate_r_in_an_array_rejected(self):
        with pytest.raises(errors.DegenerateMirror, match="got 1.0"):
            kernels.interference_kernel([0.5, 1.0], 0.0)
