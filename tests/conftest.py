"""Shared reference configurations for the suite."""

from dataclasses import replace

import pytest

from irsec import mcoracle
from irsec.channel import LinkConfig, pathloss

# The benchmark's design grid: element counts, powers and QoS exponents.
GRID_N = (1, 4, 16, 100, 400, 2000, 20000)
GRID_P_T = (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1e1, 1e3)
GRID_ALPHA = (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3)


@pytest.fixture(scope="session")
def cfg_siso():
    """Reference single-antenna budget: 50 m hops, 10 dB gains, 1 mW."""
    return LinkConfig()


@pytest.fixture(scope="session")
def cfg_siso_16():
    """Same budget with a 16-element surface (low-SNR regime)."""
    return LinkConfig(n_elems=16)


@pytest.fixture(scope="session")
def cfg_miso():
    """Reference budget with the ten-antenna equal-power precoder."""
    return LinkConfig(n_tx=10)


def miso_cfg_for_kappa(kappa: float, n_tx: int = 10) -> LinkConfig:
    """Scale p_t so the exponential SNR law has rate kappa (to rounding).

    The law's rate is sigma2/(2 N p_t zeta |f|^2), so p_t solves for it.
    """
    base = LinkConfig(n_tx=n_tx)
    p_t = base.sigma2 / (2.0 * base.n_elems * pathloss(base)
                         * base.precoder_power * kappa)
    return replace(base, p_t=p_t)


@pytest.fixture
def fading_calls(monkeypatch):
    """The names of the fading draws the test makes, in call order,
    starting from an empty oracle draw slot."""
    calls = []

    def counted(name):
        draw = getattr(mcoracle, name)

        def fading(*args):
            calls.append(name)
            return draw(*args)

        monkeypatch.setattr(mcoracle, name, fading)

    counted("siso_fading")
    counted("miso_fading")
    monkeypatch.setattr(mcoracle, "_last_draw", None)
    return calls
