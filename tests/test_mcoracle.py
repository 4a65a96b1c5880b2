"""Monte Carlo estimator behavior on known laws.

The estimator is exercised on services whose EC is available in closed
form, so every assertion has an exact target; stochastic bounds replay
fixed seeds. Its delta-method stderr is checked against a 200-resample
bootstrap over the same slots, and its value and stderr against the
block estimator at one slot per block, bit for bit. The fixed-rate
count form is checked against a 50-digit evaluation of the same counts
and against the estimator on the materialized on/off service.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from conftest import miso_cfg_for_kappa
from irsec.channel import Exponential, LinkConfig, miso_snr_dist
from irsec.eccore import (
    _on_off_kernel,
    mean_service,
    miso_csi_moments,
    snr_threshold,
)
from irsec.mcoracle import (
    EcEstimate,
    SampleBatch,
    empirical_ec,
    link_snr,
    on_off_estimate,
    service_from_snr,
    stream_rng,
)
from reference_samplers import (
    block_ec,
    bootstrap_stderr_reference,
    ks_distance,
    on_off_service,
    sample_siso_snr,
    simulate_service,
    simulate_snr,
)


def _two_point_batch(seed: int, slots: int, p_on: float = 0.7, rate: float = 1.5):
    rng = stream_rng(seed, "test.twopoint")
    values = np.where(rng.random(slots) < p_on, rate, 0.0)
    return SampleBatch(values=values, seed=seed, kind="service_bits")


def test_ec_estimate_validation():
    with pytest.raises(ValueError):
        EcEstimate(value=1.0, stderr=-0.1, slots=100)


def test_constant_service_is_exact():
    batch = SampleBatch(values=np.full(10_000, 0.25), seed=3, kind="service_bits")
    est = empirical_ec(batch, 0.5)
    assert est.value == pytest.approx(0.25, rel=1e-12)
    assert est.stderr == 0.0
    assert est.slots == 10_000


def test_zero_service_is_positive_zero():
    batch = SampleBatch(values=np.zeros(1000), seed=0, kind="service_bits")
    for alpha in (0.1, 1.0, 10.0):
        est = empirical_ec(batch, alpha)
        assert est.value == 0.0 and math.copysign(1.0, est.value) == 1.0
        assert est.stderr == 0.0


def test_two_point_service_converges_to_closed_form():
    batch = _two_point_batch(321, 1_000_000)
    est = empirical_ec(batch, 0.5)
    truth = _on_off_kernel(0.7, 0.3, 0.5, 1.5, 1.0)[1]
    assert est.stderr > 0.0
    assert abs(est.value - truth) <= 3.0 * est.stderr


def test_small_alpha_recovers_sample_mean():
    batch = _two_point_batch(321, 1_000_000)
    est = empirical_ec(batch, 1e-6)
    mean = float(batch.values.mean())
    assert est.value == pytest.approx(mean, rel=1e-4)
    assert abs(est.value - mean) <= 3.0 * est.stderr


def test_estimator_nonincreasing_in_alpha():
    batch = _two_point_batch(321, 1_000_000)
    values = [empirical_ec(batch, a).value for a in (1e-3, 0.1, 1.0, 5.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_estimator_bounded_by_mean():
    batch = _two_point_batch(321, 1_000_000)
    mean = float(batch.values.mean())
    for alpha in (0.1, 1.0):
        est = empirical_ec(batch, alpha)
        assert est.value <= mean + 3.0 * est.stderr


def test_stderr_shrinks_with_more_blocks():
    """More blocks shrink the stderr (~1/sqrt(2) per doubling) where
    the estimator is in regime; averaged over seeds."""
    short, full = [], []
    for seed in range(10):
        rng = stream_rng(seed, "t.halving")
        v = np.where(rng.random(200_000) < 0.7, 1.5, 0.0)
        half = SampleBatch(values=v[:100_000], seed=seed, kind="service_bits")
        whole = SampleBatch(values=v, seed=seed, kind="service_bits")
        short.append(empirical_ec(half, 0.1).stderr)
        full.append(empirical_ec(whole, 0.1).stderr)
    assert np.mean(full) < np.mean(short)


def test_underflow_warning():
    batch = SampleBatch(values=np.full(10_000, 15.0), seed=5, kind="service_bits")
    with pytest.warns(UserWarning, match="underflow"):
        est = empirical_ec(batch, 50.0)
    # constant service keeps the degenerate estimate exact regardless
    assert est.value == pytest.approx(15.0, rel=1e-9)


def _service(kind: str, seed: int):
    if kind == "two_point":
        return _two_point_batch(seed, 10_000)
    if kind == "siso_csi":
        return simulate_service(LinkConfig(p_t=0.1), kind, None, seed, 10_000)
    if kind == "miso_csi":
        return simulate_service(LinkConfig(n_tx=10, p_t=0.1), kind, None, seed, 10_000)
    return simulate_service(LinkConfig(), kind, 1.2, seed, 10_000)


@pytest.mark.parametrize("kind,alpha,seed", [
    ("two_point", 0.1, 11), ("two_point", 1.0, 11), ("two_point", 5.0, 11),
    ("siso_csi", 0.1, 12), ("siso_csi", 1.0, 12), ("siso_csi", 10.0, 12),
    ("miso_csi", 0.1, 13), ("miso_csi", 1.0, 13), ("miso_csi", 10.0, 13),
    ("siso_nocsi", 1.0, 14),
])
def test_delta_stderr_matches_bootstrap(kind, alpha, seed):
    """The one-pass delta-method stderr tracks a 200-resample bootstrap
    over one-slot blocks within 15%; the bootstrap's own resampling
    noise is about 5%."""
    batch = _service(kind, seed)
    est = empirical_ec(batch, alpha)
    reference = bootstrap_stderr_reference(batch, alpha)
    assert est.slots == 10_000
    assert est.stderr == pytest.approx(reference, rel=0.15)


def test_empirical_ec_memory():
    """At 2e5 slots the estimator holds one slot-sized float array, not
    a resampling matrix."""
    batch = _two_point_batch(7, 200_000)
    tracemalloc.start()
    try:
        empirical_ec(batch, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


def test_empirical_ec_input_gates():
    snr = SampleBatch(values=np.ones(100), seed=1, kind="snr")
    with pytest.raises(ValueError):
        empirical_ec(snr, 0.5)


@pytest.mark.parametrize("kind", ["siso_csi", "miso_csi"])
def test_empirical_ec_is_block_ec_at_one_slot(kind):
    """The one-slot estimator gives the block estimator's value and
    stderr at one slot per block, bit for bit."""
    batch = _service(kind, 15)
    for alpha in (1e-3, 0.1, 1.0, 10.0, 30.0):
        est = empirical_ec(batch, alpha)
        want = block_ec(batch, alpha, 1)
        assert (est.value, est.stderr, est.slots) == (want.value, want.stderr, want.slots)


def test_simulate_service_nocsi_support(cfg_siso):
    # rate 1.5 puts the threshold near the SNR median: both states occur
    batch = simulate_service(cfg_siso, "siso_nocsi", 1.5, 11, 5000)
    assert batch.kind == "service_bits"
    assert set(np.unique(batch.values)) == {0.0, 1.5}


def test_simulate_service_determinism(cfg_siso):
    a = simulate_service(cfg_siso, "siso_nocsi", 1.0, 11, 5000)
    b = simulate_service(cfg_siso, "siso_nocsi", 1.0, 11, 5000)
    assert np.array_equal(a.values, b.values)


def test_simulate_service_csi_mean(cfg_siso):
    batch = simulate_service(cfg_siso, "siso_csi", None, 777, 1_000_000)
    mu = mean_service(cfg_siso, "siso_csi")
    assert float(batch.values.mean()) == pytest.approx(mu, rel=0.01)


def test_simulate_service_argument_gates(cfg_siso):
    with pytest.raises(ValueError):
        simulate_service(cfg_siso, "siso_nocsi", None, 1, 100)
    with pytest.raises(ValueError):
        simulate_service(cfg_siso, "siso_csi", 1.0, 1, 100)
    with pytest.raises(ValueError):
        simulate_service(cfg_siso, "mimo_csi", None, 1, 100)
    with pytest.raises(ValueError):
        simulate_service(cfg_siso, "siso_csi", None, 1, 0)
    service = simulate_service(cfg_siso, "siso_csi", None, 1, 100)
    with pytest.raises(ValueError, match="snr batch"):
        service_from_snr(service, cfg_siso)


def _counted_snr(cfg: LinkConfig, rate: float, on: int, n: int) -> SampleBatch:
    """An SNR batch in which exactly `on` of the n slots support the rate."""
    values = np.zeros(n)
    values[:on] = snr_threshold(rate, cfg.bandwidth)
    return SampleBatch(values=values, seed=0, kind="snr")


def _on_off_mpmath(on: int, n: int, alpha: float, bits: float) -> tuple[float, float]:
    """The count form's value and delta-method stderr at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        d = mpmath.expm1(-a * mpmath.mpf(bits))
        mgf = 1 + on * d / n
        value = -mpmath.log(mgf) / a
        stderr = 0
        if 0 < on < n:
            stderr = -d * mpmath.sqrt(mpmath.mpf(on * (n - on)) / (n - 1)) / (n * mgf * a)
        return float(value), float(stderr)


@pytest.mark.parametrize("on, n, rate, alpha", [
    (0, 1000, 1.0, 0.1),          # no slot on: +0.0
    (1000, 1000, 1.3, 0.1),       # every slot on: rate*slot exactly
    (100, 100, 0.0, 0.1),         # rate 0, which every slot supports: +0.0
    (1, 2, 0.7, 2.0),
    (437, 10_000, 1.0, 1e-6),     # alpha*bits ~ 1e-6
    (9_999, 10_000, 2.5, 1e-6),
    (3, 10_000, 80.0, 10.0),      # alpha*bits = 800: e^(-alpha bits) is 0
    (9_999, 10_000, 80.0, 10.0),
    (199_999, 200_000, 100.0, 10.0),
    (5_000, 10_000, 1.5, 1.0),
])
def test_on_off_estimate_matches_mpmath(on, n, rate, alpha):
    """The count form holds its digits at every count, including an
    e^(-alpha bits) that underflows beside an on count near n."""
    cfg = LinkConfig()
    est = on_off_estimate(_counted_snr(cfg, rate, on, n), cfg, rate, alpha)
    value, stderr = _on_off_mpmath(on, n, alpha, rate * cfg.slot)
    assert est.slots == n
    assert type(est.value) is float and type(est.stderr) is float
    assert est.value == pytest.approx(value, rel=1e-15, abs=0.0)
    assert est.stderr == pytest.approx(stderr, rel=1e-15, abs=0.0)
    assert math.copysign(1.0, est.value) == 1.0


def test_on_off_estimate_figure_rows_match_mpmath():
    """The figure set's rate sweep near its EC ~ 0 end, on its N = 100
    draw, where a mean of per-slot weights was ~1e-12 off."""
    cfg = LinkConfig()
    snr = sample_siso_snr(cfg, 12345, 10_000)
    rates = [float(r) for r in np.linspace(0.015, 3.0, 200) if 1.9 <= r <= 2.3]
    for rate, alpha in itertools.product(rates, (0.1, 1.0)):
        on = int(np.count_nonzero(snr.values >= snr_threshold(rate, cfg.bandwidth)))
        value, stderr = _on_off_mpmath(on, snr.values.size, alpha, rate)
        est = on_off_estimate(snr, cfg, rate, alpha)
        assert est.value == pytest.approx(value, rel=1e-15, abs=0.0), (rate, alpha)
        assert est.stderr == pytest.approx(stderr, rel=1e-15, abs=0.0), (rate, alpha)


@pytest.mark.parametrize("scenario, cfg, rates", [
    ("siso_nocsi", LinkConfig(), (0.5, 1.2, 1.9, 2.4)),
    ("siso_nocsi", LinkConfig(n_elems=16, p_t=0.01), (0.05, 0.3, 1.0)),
    ("miso_nocsi", LinkConfig(n_tx=10), (0.005, 0.02, 0.06)),
])
def test_on_off_estimate_matches_empirical_ec(scenario, cfg, rates):
    """Counting the on slots gives empirical_ec of the materialized
    on/off service, to the rounding of its per-slot sums."""
    snr = simulate_snr(cfg, scenario, 41, 20_000)
    for rate in rates:
        for alpha in (0.01, 0.1, 1.0, 10.0):
            est = on_off_estimate(snr, cfg, rate, alpha)
            want = empirical_ec(on_off_service(snr, cfg, rate), alpha)
            assert est.value == pytest.approx(want.value, rel=1e-11), (rate, alpha)
            assert est.stderr == pytest.approx(want.stderr, rel=1e-11), (rate, alpha)
            assert est.slots == want.slots


def test_on_off_estimate_argument_gates(cfg_siso):
    snr = simulate_snr(cfg_siso, "siso_nocsi", 1, 100)
    service = simulate_service(cfg_siso, "siso_nocsi", 1.0, 1, 100)
    with pytest.raises(ValueError, match="snr batch"):
        on_off_estimate(service, cfg_siso, 1.0, 0.1)
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            on_off_estimate(snr, cfg_siso, 1.0, alpha)
    # a service batch refuses the bits of the slots that are on: a
    # negative rate, which every slot supports, or a slot so long that
    # rate * slot overflows
    with pytest.raises(ValueError, match="finite and nonnegative"):
        on_off_estimate(snr, cfg_siso, -1.0, 0.1)
    long_slot = replace(cfg_siso, slot=1e308)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        on_off_estimate(_counted_snr(long_slot, 2.0, 5, 10), long_slot, 2.0, 0.1)
    # a rate that no slot supports serves nothing, as an all-zero
    # service does
    est = on_off_estimate(snr, cfg_siso, math.inf, 0.1)
    assert (est.value, est.stderr) == (0.0, 0.0)


def test_miso_service_moments_match_series():
    """Sampled adaptive-rate service reproduces the series first and
    second moments at the link's exponential rate."""
    cfg = miso_cfg_for_kappa(0.5)
    batch = simulate_service(cfg, "miso_csi", None, 778, 1_000_000)
    kappa = miso_snr_dist(cfg).kappa
    mu, eta, _ = miso_csi_moments(kappa)
    mean = float(np.mean(batch.values))
    second = float(np.mean(batch.values * batch.values))
    assert mean == pytest.approx(mu, rel=0.01)
    assert second == pytest.approx(eta, rel=0.01)


def test_ks_self_consistency():
    # inverse-CDF draws from the law itself leave only sampling noise
    u = stream_rng(99, "t.ksself").random(1_000_000)
    batch = SampleBatch(values=-np.log1p(-u) / 0.5, seed=99, kind="snr")
    assert ks_distance(batch, Exponential(0.5)) <= 0.002


def test_ks_tiny_surface_fails():
    from irsec.channel import siso_snr_dist

    cfg = LinkConfig(n_elems=2)
    batch = sample_siso_snr(cfg, 1234, 200_000)
    assert ks_distance(batch, siso_snr_dist(cfg)) > 0.05


def test_ks_requires_snr_batch():
    batch = SampleBatch(values=np.ones(10), seed=1, kind="service_bits")
    with pytest.raises(ValueError):
        ks_distance(batch, Exponential(1.0))


def test_link_snr_keeps_the_draw_and_the_last_snr(fading_calls):
    """An equal config gets the kept SNR batch back; another budget at
    the same element count, seed and slot count reuses the kept draw,
    and its SNR is the one a fresh draw gives."""
    cfg = LinkConfig()
    snr = link_snr(False, cfg, 7, 1000)
    assert link_snr(False, replace(cfg), 7, 1000) is snr
    louder = replace(cfg, p_t=2e-3)
    got = link_snr(False, louder, 7, 1000)
    assert fading_calls == ["siso_fading"]
    assert np.array_equal(got.values, sample_siso_snr(louder, 7, 1000).values)
