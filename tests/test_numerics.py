"""The QUADPACK port of the tests' reference route and the library's
Brent port against the scipy routines they port.

Each comparison is exact: the ports repeat their model's float
operations in the same order, so every returned number must carry the
same bits as scipy's.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from irsec.channel import LinkConfig
from irsec.eccore import _fixed_rate, get_scenario
from irsec.numerics import minimize_bounded
import reference_quadpack
from reference_quadpack import qagp

# quad reports ier only through its message; these are their openings.
_QUAD_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def _quad_qagp(f, a, b, points, epsrel, limit):
    """(value, abserr, neval, ier, last) from quad with break points."""
    out = quad(f, a, b, points=points, epsabs=0.0, epsrel=epsrel, limit=limit,
               full_output=1)
    ier = 0
    if len(out) > 3:
        ier, = [k for k, text in _QUAD_MESSAGES.items() if out[3].startswith(text)]
    return out[0], out[1], out[2]["neval"], ier, out[2]["last"]


def _log(x):
    return math.log(x) if x > 0.0 else 0.0


def _power(x):
    return x ** -0.9 if x > 0.0 else 0.0


def _inner_cusp(x):
    return abs(x - 0.3) ** -0.5 if x != 0.3 else 0.0


def _sin_inverse(x):
    return math.sin(1.0 / x) if x > 0.0 else 0.0


def _sin_50(x):
    return math.sin(50.0 * x)


def _cusp_wave(x):
    # changes sign: the divergence test at the limit exit compares with
    # the first pass's integral of |f|, not the last bisection's
    return abs(x - 0.042) ** -0.35 * (math.cos(112.0 * x) + 0.01) if x != 0.042 else 0.0


def _divergent(x):
    return x ** -1.5 if x > 0.0 else 0.0


def _hidden_cusp(x):
    # an interior singularity that no break point marks
    return abs(x - 0.49) ** -0.5 * math.cos(40.0 * x) if x != 0.49 else 0.0


# (integrand, a, b, break points, epsrel, limit, expected ier): the
# endpoint singularities reach the epsilon extrapolation, sin(1/x) and
# the tight limits the limit exit, sin 50x roundoff; the unmarked cusp
# is bad integrand behaviour and x^-1.5 diverges.
HARD = {
    "log": (_log, 0.0, 1.0, [0.5], 1e-11, 200, 0),
    "power": (_power, 0.0, 1.0, [0.2], 1e-13, 200, 0),
    "cusp": (_inner_cusp, 0.0, 1.0, [0.7], 1e-11, 200, 0),
    "cusp_at_point": (_inner_cusp, 0.0, 1.0, [0.3, 0.3, 2.0], 1e-11, 200, 0),
    "cusp_limit": (_inner_cusp, 0.0, 1.0, [0.7], 1e-6, 10, 1),
    "sin_inverse": (_sin_inverse, 0.0, 1.0, [0.5], 1e-11, 200, 1),
    "sin_inverse_50": (_sin_inverse, 0.0, 1.0, [0.5], 1e-11, 50, 1),
    "sin_50": (_sin_50, 0.0, math.pi, [1.0], 1e-11, 200, 2),
    "sin_50_two_points": (_sin_50, 0.0, 3.0, [2.0, 1.0], 1e-13, 200, 2),
    "hidden_cusp": (_hidden_cusp, 0.0, 1.0, [], 1e-11, 200, 3),
    "cusp_wave_limit": (_cusp_wave, 0.0, 1.0, [], 1e-7, 17, 1),
    "divergent": (_divergent, 0.0, 1.0, [0.5], 1e-11, 200, 5),
    "gauss_smooth": (lambda x: math.exp(-x * x), 0.0, 40.0, [1.0, 2.0, 3.0], 1e-11, 200, 0),
}


@pytest.mark.parametrize("name", sorted(HARD))
def test_qagp_matches_quad_bit_for_bit(name):
    f, a, b, points, epsrel, limit, ier = HARD[name]
    got = qagp(f, a, b, points, epsrel, limit)
    assert got == _quad_qagp(f, a, b, points, epsrel, limit)
    assert got[3] == ier
    assert got[2] == 21 * (2 * got[4] - len({p for p in points if a < p < b}) - 1)


@pytest.mark.parametrize("name", ["log", "power", "cusp", "sin_inverse"])
def test_singular_integrands_reach_the_extrapolation(name, monkeypatch):
    calls = []
    qelg = reference_quadpack._qelg

    def counting(*args):
        calls.append(args[0])
        return qelg(*args)

    monkeypatch.setattr(reference_quadpack, "_qelg", counting)
    f, a, b, points, epsrel, limit, _ = HARD[name]
    qagp(f, a, b, points, epsrel, limit)
    assert len(calls) >= 2


def test_qagp_random_integrands_match_quad():
    rng = np.random.default_rng(20)
    for _ in range(60):
        p, w, s = rng.uniform(-0.99, 2.0), rng.uniform(0.0, 80.0), rng.uniform(0.0, 1.0)

        def f(x, p=p, w=w, s=s):
            return abs(x - s) ** p * math.cos(w * x) if x != s else 0.0

        points = list(rng.uniform(-0.5, 1.5, rng.integers(0, 5)))
        epsrel = 10.0 ** rng.uniform(-13.0, -3.0)
        limit = int(rng.integers(5, 200))
        assert qagp(f, 0.0, 1.0, points, epsrel, limit) == _quad_qagp(
            f, 0.0, 1.0, points, epsrel, limit)


def test_qagp_validation():
    with pytest.raises(ValueError):
        qagp(math.exp, 1.0, 0.0, [], 1e-11, 200)
    with pytest.raises(ValueError):
        qagp(math.exp, 0.0, 1.0, [], 1e-15, 200)
    with pytest.raises(ValueError):
        qagp(math.exp, 0.0, 1.0, [0.2, 0.4], 1e-11, 2)


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
