"""Special-function kernel vs high-precision reference values.

All expected constants were generated with a 60-digit arbitrary
precision evaluation of the defining series/integrals and frozen here.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv

from irsec import specfun
from irsec.paper import ln_hyp1f1, marcum_q_half_ddb
from irsec.specfun import (
    ConvergenceError,
    expint_e1_scaled,
    gaussian_tail,
    hyp3f3_unit,
    marcum_q_half,
)


def test_gaussian_tail_reference():
    assert gaussian_tail(0.0) == 0.5
    assert gaussian_tail(1.0) == pytest.approx(0.15865525393145705, rel=1e-15)
    assert gaussian_tail(40.0) == 0.0  # underflows cleanly, no exception


@given(st.floats(-8.0, 8.0))
def test_gaussian_tail_complement(x):
    assert gaussian_tail(x) + gaussian_tail(-x) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("a,b,want", [
    (1.0, 1.0, 0.5227501319481792072),
    (3.0, 1.0, 0.97728153929365391272),
    (0.5, 2.0, 0.073016866594634201171),
])
def test_marcum_reference(a, b, want):
    assert marcum_q_half(a, b) == pytest.approx(want, rel=1e-14)


def test_marcum_edges():
    assert marcum_q_half(3.0, 0.0) == 1.0
    # a = 0 degenerates to the two-sided normal tail
    assert marcum_q_half(0.0, 1.0) == pytest.approx(2.0 * gaussian_tail(1.0), rel=1e-15)
    with pytest.raises(ValueError):
        marcum_q_half(-1.0, 1.0)


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_marcum_in_unit_interval(a, b):
    q = marcum_q_half(a, b)
    assert 0.0 <= q <= 1.0


@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0), st.floats(1e-3, 5.0))
def test_marcum_decreasing_in_b(a, b, db):
    assert marcum_q_half(a, b + db) <= marcum_q_half(a, b) + 1e-12


@pytest.mark.parametrize("a,b", [
    (1.0, 0.5), (1.0, 1.5), (3.6, 2.5), (3.6, 4.0),
    (12.69, 11.5), (12.69, 13.5), (5.075, 5.075), (0.0, 0.7),
])
def test_marcum_derivative_vs_finite_difference(a, b):
    """Central difference of Q in b is the oracle for the closed form."""
    h = 1e-6 * max(b, 1.0)
    fd = (marcum_q_half(a, b + h) - marcum_q_half(a, b - h)) / (2.0 * h)
    assert marcum_q_half_ddb(a, b) == pytest.approx(fd, rel=2e-6)


def test_marcum_derivative_bessel_identity():
    # -sqrt(ab) e^{-(a^2+b^2)/2} I_{-1/2}(ab) is the textbook form
    a, b = 2.0, 3.0
    direct = -math.sqrt(a * b) * math.exp(-0.5 * (a * a + b * b)) * iv(-0.5, a * b)
    assert marcum_q_half_ddb(a, b) == pytest.approx(direct, rel=1e-13)


def test_hyp0f1_budget_exhaustion(monkeypatch):
    # a series that runs out of its term budget raises, never truncates
    monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 3)
    with pytest.raises(ConvergenceError):
        hyp3f3_unit(-50.0)


@pytest.mark.parametrize("a,b,x,want", [
    (0.45, 0.5, 5.0, 4.821833775654114194),
    (0.45, 0.5, 25.0, 24.735472018918560285),
    (0.45, 0.5, 28.0, 27.729679761367147638),
    (0.45, 0.5, 30.0, 29.726160648793976603),
    (0.45, 0.5, 32.0, 31.722873186070562263),
    (0.45, 0.5, 35.0, 34.718315081111689205),
    (0.45, 0.5, 40.0, 39.711535759512761358),
    (2.5, 0.5, 5.0, 8.9951379121386526427),
    (2.5, 0.5, 40.0, 47.738197593730254502),
])
def test_ln_hyp1f1_reference(a, b, x, want):
    """Covers both branches and the switch region x in [25, 35]."""
    assert ln_hyp1f1(a, b, x) == pytest.approx(want, rel=1e-11)


def test_ln_hyp1f1_exponential_identity():
    # 1F1(a; a; x) = e^x for any a > 0
    for x in (1.0, 20.0, 50.0):
        assert ln_hyp1f1(1.0, 1.0, x) == pytest.approx(x, abs=1e-10)


def test_ln_hyp1f1_domain():
    with pytest.raises(ValueError):
        ln_hyp1f1(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        ln_hyp1f1(0.5, -0.5, 1.0)
    with pytest.raises(ValueError):
        ln_hyp1f1(0.3, 0.7, 0.0)
    with pytest.raises(ValueError):
        ln_hyp1f1(0.45, 0.5, -12.0)


@pytest.mark.parametrize("x,want", [
    (-0.5, 0.94182379686644049836),
    (-1.0, 0.89121279811130237607),
    (-14.0, 0.42819092982413668744),
])
def test_hyp3f3_reference(x, want):
    assert hyp3f3_unit(x) == pytest.approx(want, rel=1e-13)


def test_hyp3f3_unit_at_zero():
    assert hyp3f3_unit(0.0) == 1.0


@pytest.mark.parametrize("x,want", [
    (1e-8, 17.843465267485484),
    (0.5, 0.92291063248373046883),
    (1.0, 0.59634736232319407),
    (1.4999, 0.44827851142155379407),
    (1.5, 0.44825666929158295392),
    (1.5001, 0.44823482942195659128),
    (2.0, 0.3613286168882225847),
    (100.0, 0.0099019422867330184),
    (1e4, 9.999000199940024e-5),
])
def test_expint_reference(x, want):
    """Pins both routes and their junction at x = 1.5."""
    assert expint_e1_scaled(x) == pytest.approx(want, rel=1e-13)


def test_expint_domain():
    with pytest.raises(ValueError):
        expint_e1_scaled(0.0)
    with pytest.raises(ValueError):
        expint_e1_scaled(-1.0)


@given(st.floats(1e-6, 1e6))
@settings(max_examples=200)
def test_expint_brackets(x):
    """x e^x E1(x) lies in (x/(x+1), 1): the classical two-sided bound."""
    v = x * expint_e1_scaled(x)
    assert x / (x + 1.0) < v < 1.0
