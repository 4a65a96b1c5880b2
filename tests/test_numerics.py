"""The library's port of Brent's bounded minimizer against the scipy
routine it ports.

Each comparison is exact: the port repeats scipy's float operations in
the same order, so every returned number must carry the same bits.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from irsec.channel import LinkConfig
from irsec.eccore import _fixed_rate, get_scenario
from irsec.numerics import minimize_bounded


def _assert_same_minimum(func, lo, hi, xatol):
    x, fun, nfev = minimize_bounded(func, lo, hi, xatol)
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    assert (x, fun, nfev) == (float(res.x), float(res.fun), res.nfev)
    assert type(x) is float and type(fun) is float


@pytest.mark.parametrize("func", [
    lambda x: (x - 0.3) ** 2,
    lambda x: abs(x - 0.71),
    lambda x: math.cos(7.0 * x),
    lambda x: x,
    lambda x: -x,
    lambda x: 1.0,
])
def test_minimize_bounded_matches_scipy(func):
    for xatol in (1e-5, 1e-9, 1e-12):
        _assert_same_minimum(func, 0.0, 1.0, xatol)
        _assert_same_minimum(func, -2.0, 3.5, xatol)


@pytest.mark.parametrize("scenario", ["siso_nocsi", "miso_nocsi"])
@pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("points", [24, 1000])
def test_minimize_bounded_matches_scipy_on_rate_brackets(scenario, alpha, points):
    """The brackets grid_argmax_rate hands to Brent: around the grid's
    best point, and both edge brackets [0, r_1] and [r_{n-2}, r_max]."""
    cfg = LinkConfig(n_tx=10) if scenario == "miso_nocsi" else LinkConfig()
    dist = get_scenario(scenario).law(cfg)
    r_max = 40.0 * cfg.bandwidth
    rates = np.linspace(r_max / points, r_max, points)

    def ec(r):
        return _fixed_rate(dist, alpha, r, cfg.bandwidth, cfg.slot)[3]

    k = int(np.argmax([ec(float(r)) for r in rates]))
    brackets = [(0.0, float(rates[1])), (float(rates[-2]), r_max)]
    if 0 < k < points - 1:
        brackets.append((float(rates[k - 1]), float(rates[k + 1])))
    for lo, hi in brackets:
        _assert_same_minimum(lambda r: -ec(r), lo, hi, 1e-9 * r_max)


def test_minimize_bounded_validation():
    with pytest.raises(ValueError):
        minimize_bounded(abs, 1.0, 0.0, 1e-9)
    with pytest.raises(ValueError):
        minimize_bounded(abs, 0.0, math.inf, 1e-9)
