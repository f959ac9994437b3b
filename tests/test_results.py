"""One result type for every rate route, for one cell and for a grid."""

import math

import numpy as np
import pytest

import mirrorqed
from mirrorqed import cavity, errors, kernels, mirror
from mirrorqed.results import Cells, RateResult

R, K0D = 0.7, 1.3

# (route, arguments of one cell as scalars, the same cell as 1-element arrays)
ROUTES = [
    (mirror.gamma_mirror_closed, (R, K0D), ([R], [K0D])),
    (mirror.gamma_mirror_quadrature, (R, K0D), ([R], [K0D])),
    (cavity.gamma_cavity_quadrature, (R, K0D), ([R], [K0D])),
    (cavity.gamma_cavity_series, (R, K0D), ([R], [K0D])),
    (cavity.gamma_subwavelength_2nd, (R, 0.1), ([R], [0.1])),
]


@pytest.mark.parametrize("route,scalar_args,array_args", ROUTES,
                         ids=[route.__name__ for route, _, _ in ROUTES])
def test_scalar_and_array_calls_share_one_type(route, scalar_args,
                                               array_args):
    one = route(*scalar_args)
    grid = route(*array_args)
    assert type(one) is type(grid) is RateResult
    assert type(one.ratio) is float and type(one.err_estimate) is float
    assert one.status == "ok"
    assert one.method == grid.method
    assert grid.ratio.shape == grid.err_estimate.shape == grid.status.shape
    assert grid.status.tolist() == ["ok"]
    # bit for bit: == on floats, and the same bits for -0.0 and nan
    assert np.float64(one.ratio).tobytes() == grid.ratio[0].tobytes()
    assert (np.float64(one.err_estimate).tobytes()
            == grid.err_estimate[0].tobytes())


def test_public_names_hold_one_result_type():
    assert "RateResult" in mirrorqed.__all__
    assert "RateGrid" not in mirrorqed.__all__
    with pytest.raises(AttributeError):
        mirrorqed.RateGrid
    # every route takes its cells as positional (r, k0d) arguments
    assert "CavitySpec" not in mirrorqed.__all__
    assert not hasattr(cavity, "CavitySpec")
    with pytest.raises(AttributeError):
        mirrorqed.CavitySpec


def test_positional_construction():
    res = RateResult(1.5, "closed_form", 1e-16)
    assert (res.ratio, res.method, res.err_estimate, res.status) == (
        1.5, "closed_form", 1e-16, "ok")
    with pytest.raises(errors.InvalidParams, match="unknown method"):
        RateResult(1.5, "guess", 1e-16)


@pytest.mark.parametrize("ratio,err,message", [
    (math.inf, 0.0, "non-finite ratio inf"),
    (math.nan, 0.0, "non-finite ratio nan"),
    (1.0, -1e-16, "negative err_estimate -1e-16"),
    (1.0, math.nan, "negative err_estimate nan"),
])
def test_result_checks_ok_cells_of_both_shapes(ratio, err, message):
    with pytest.raises(errors.InvalidParams, match=message):
        Cells(x=0.5).result("closed_form", np.array([ratio]), np.array([err]))
    grid = Cells(x=[0.5, 0.5]).result("closed_form", np.array([1.0, ratio]),
                                    np.array([0.0, err]))
    assert grid.status.tolist() == ["ok", "InvalidParams"]
    assert grid.ratio[0] == 1.0 and grid.err_estimate[0] == 0.0
    assert np.isnan(grid.ratio[1]) and np.isnan(grid.err_estimate[1])
