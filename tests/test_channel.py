"""Physical-layer model: laws, samplers, config I/O.

Monte Carlo assertions use fixed seeds; the counter-based generator
makes them bit-reproducible, so the bounds below are exact replays of
measured values, not flaky statistical gambles.
"""

import itertools
import math
import random
import re
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID_ALPHA, GRID_N, GRID_P_T
from irsec import channel, eccore, mcoracle
from irsec.channel import (
    Exponential,
    LinkConfig,
    ScaledNoncentralChiSq,
    load_link_config,
    miso_snr_dist,
    pathloss,
    siso_snr_dist,
)
from irsec.mcoracle import (
    SampleBatch,
    miso_fading,
    miso_snr_from_fading,
    siso_fading,
    siso_snr_from_fading,
    stream_rng,
)
from reference_samplers import (
    cdf_array,
    ks_distance,
    miso_reference,
    sample_miso_snr,
    sample_siso_snr,
    siso_nested_reference,
    siso_reference,
    write_link_config,
)

PI2 = math.pi * math.pi


def test_pathloss_reference(cfg_siso):
    assert pathloss(cfg_siso) == pytest.approx(7.5990887731753329e-08, rel=1e-14)


def test_pathloss_geometry_scaling(cfg_siso):
    base = pathloss(cfg_siso)
    assert pathloss(replace(cfg_siso, d1=100.0, d2=100.0)) == pytest.approx(base / 16.0, rel=1e-13)
    flat = pathloss(replace(cfg_siso, phi_inc=0.0))
    steep = pathloss(replace(cfg_siso, phi_inc=math.pi / 3.0))
    assert flat == pytest.approx(4.0 * steep, rel=1e-13)


@given(st.floats(1.0, 500.0), st.floats(1.0, 500.0))
def test_pathloss_decreasing_in_distance(d1, d2):
    cfg = LinkConfig(d1=d1, d2=d2)
    assert pathloss(replace(cfg, d1=d1 * 1.5)) < pathloss(cfg)
    assert pathloss(replace(cfg, d2=d2 * 1.5)) < pathloss(cfg)


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(p_t=0.0)
    with pytest.raises(ValueError):
        LinkConfig(sigma2=-1.0)
    with pytest.raises(ValueError):
        LinkConfig(phi_inc=2.0)
    # phi_inc is held to [0, pi/2], not to positivity
    assert LinkConfig(phi_inc=0.0).phi_inc == 0.0
    with pytest.raises(ValueError, match=r"^phi_inc must lie in \[0, pi/2\]$"):
        LinkConfig(phi_inc=-0.1)
    with pytest.raises(ValueError):
        LinkConfig(n_elems=0)
    with pytest.raises(ValueError):
        LinkConfig(n_tx=2, precoder=(1.0,))
    with pytest.raises(ValueError):
        LinkConfig(precoder=(0.0,))


@pytest.mark.parametrize("field", [f.name for f in fields(LinkConfig)
                                   if f.type == "float"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_link_config_rejects_nonfinite_floats(field, value):
    """inf and nan are refused as input in every float field; an infinite
    power used to pass the positivity check and fail in the quadrature."""
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        LinkConfig(**{field: value})


@pytest.mark.parametrize("field", [f.name for f in fields(LinkConfig)
                                   if f.type == "float" and f.name != "phi_inc"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_link_config_rejects_nonpositive_floats(field, value):
    """Every float field but phi_inc must be strictly positive."""
    with pytest.raises(ValueError, match=f"^{field} must be strictly positive$"):
        LinkConfig(**{field: value})


@pytest.mark.parametrize("n_tx, precoder", [(1, (math.inf,)),
                                            (2, (1 + 0j, math.nan)),
                                            (2, (0.6, complex(0.8, -math.inf)))])
def test_link_config_rejects_nonfinite_precoder(n_tx, precoder):
    """An infinite weight used to pass the power check and fail later as
    'kappa must be positive'; a nan one was blamed on the power."""
    with pytest.raises(ValueError, match="^precoder must be finite$"):
        LinkConfig(n_tx=n_tx, precoder=precoder)


def test_default_precoder_unit_norm():
    cfg = LinkConfig(n_tx=10)
    assert len(cfg.precoder) == 10
    assert cfg.precoder_power == 1.0
    assert LinkConfig().precoder == (1.0 + 0.0j,)


@pytest.mark.parametrize("n_tx", range(1, 17))
def test_default_precoder_power_exact(tmp_path, n_tx):
    """Exactly 1.0 at every size, also once the vector is an explicit tuple."""
    cfg = LinkConfig(n_tx=n_tx)
    assert cfg.precoder_power == 1.0
    assert replace(cfg, p_t=2.5e-3).precoder_power == 1.0
    path = tmp_path / "link.cfg"
    write_link_config(cfg, path)
    assert load_link_config(path).precoder_power == 1.0


@given(st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
                min_size=1, max_size=16), st.randoms())
def test_precoder_power_order_independent(precoder, rnd):
    shuffled = list(precoder)
    rnd.shuffle(shuffled)
    cfg = LinkConfig(n_tx=len(precoder), precoder=tuple(precoder))
    assert replace(cfg, precoder=tuple(shuffled)).precoder_power == cfg.precoder_power


def _pathloss_formula(cfg):
    aperture = cfg.x_irs * cfg.y_irs / (cfg.d1 * cfg.d2)
    return (cfg.g_t * cfg.g_r / (4.0 * math.pi) ** 2
            * aperture ** 2 * math.cos(cfg.phi_inc) ** 2)


def _precoder_power_formula(cfg):
    w = complex(1.0 / math.sqrt(cfg.n_tx), 0.0)
    if all(v == w for v in cfg.precoder):
        return 1.0
    return math.fsum(abs(v) ** 2 for v in cfg.precoder)


_positive = st.floats(1e-3, 1e3)


@settings(max_examples=100, deadline=None)
@given(d1=_positive, d2=_positive, x_irs=_positive, y_irs=_positive,
       phi_inc=st.floats(0.0, math.pi / 2.0), g_t=_positive, g_r=_positive,
       precoder=st.one_of(st.none(), st.lists(
           st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3), min_size=1, max_size=8)),
       n_tx=st.integers(1, 8))
def test_link_budget_constants_are_the_formulas_bit_for_bit(
        tmp_path_factory, d1, d2, x_irs, y_irs, phi_inc, g_t, g_r, precoder, n_tx):
    """pathloss and precoder_power, computed once when the config is
    made, are the formulas' bits, also after dataclasses.replace and a
    config-file round trip, with the default or an explicit precoder."""
    if precoder is not None:
        n_tx = len(precoder)
        precoder = tuple(precoder)
    cfg = LinkConfig(d1=d1, d2=d2, x_irs=x_irs, y_irs=y_irs, phi_inc=phi_inc,
                     g_t=g_t, g_r=g_r, n_tx=n_tx, precoder=precoder)
    path = tmp_path_factory.mktemp("link") / "link.cfg"
    write_link_config(cfg, path)
    moved = replace(cfg, d1=2.0 * d1, phi_inc=phi_inc / 2.0, precoder=cfg.precoder[::-1])
    for c in (cfg, replace(cfg, p_t=2.5e-3), load_link_config(path), moved):
        assert pathloss(c).hex() == _pathloss_formula(c).hex()
        assert c.precoder_power.hex() == _precoder_power_formula(c).hex()


def test_aperture_overflow_is_named(tmp_path):
    """A surface so large that its aperture overflows once squared is a
    ValueError naming the geometry, and the config file's line, when the
    config is made, not a raw OverflowError at the first EC."""
    with pytest.raises(ValueError, match=r"^x_irs \* y_irs / \(d1 \* d2\) = 4e\+196 overflows"):
        LinkConfig(x_irs=1e200)
    path = tmp_path / "link.cfg"
    path.write_text("# link\nx_irs = 1e200\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: x_irs \* y_irs"):
        load_link_config(path)


def test_link_budget_constants_are_not_fields(cfg_miso):
    """The cached constants stay out of the dataclass: equality, repr and
    replace() see the fields only, and replace() computes them anew."""
    names = {f.name for f in fields(LinkConfig)}
    assert not names & {"_pathloss", "_precoder_power"}
    assert "_pathloss" not in repr(cfg_miso)
    assert replace(cfg_miso, d1=cfg_miso.d1) == cfg_miso
    assert pathloss(replace(cfg_miso, d1=100.0)) == _pathloss_formula(replace(cfg_miso, d1=100.0))


def test_config_keeps_its_laws(cfg_siso, cfg_miso):
    """Each config builds its single-antenna law and each mode's
    beamformed law once: repeat calls return the same object, replace()
    builds a fresh, equal one, and equality, hashing and repr of the
    config are those of its fields."""
    for cfg, build in ((cfg_siso, siso_snr_dist),
                       (cfg_miso, miso_snr_dist),
                       (cfg_miso, lambda c: miso_snr_dist(c, mode="closed"))):
        text, key = repr(cfg), hash(cfg)
        law = build(cfg)
        assert build(cfg) is law
        fresh = replace(cfg)
        assert build(fresh) is not law and build(fresh) == law
        assert (repr(cfg), hash(cfg)) == (text, key)
        assert cfg == fresh and repr(fresh) == text and hash(fresh) == key
    assert miso_snr_dist(cfg_miso) is not miso_snr_dist(cfg_miso, mode="closed")
    assert "law" not in repr(cfg_miso)
    with pytest.raises(ValueError, match="requires n_tx == 1"):
        siso_snr_dist(cfg_miso)


def _law_bits(res):
    return res.value.hex(), res.abserr.hex(), res.neval, res.route


def test_unit_rule_memo_keeps_every_bit_on_the_design_grid():
    """Over the 343 design cells in shuffled order, ln_mgf and mean_log
    from a warm frame memo return the value, abserr, neval and route of
    a cleared one. The complement and log routes reach the memo 539
    times on the 49 laws: each law misses once and every other call
    hits. One more law's left walks run out to |v| = _V_MAX."""
    memo = channel._unit_rule
    far = ScaledNoncentralChiSq(1.0303415495562854e+299, 1.2134322050214695e-08)
    cells = [(siso_snr_dist(LinkConfig(n_elems=n, p_t=p_t)), alpha / math.log(2.0))
             for n, p_t, alpha in itertools.product(GRID_N, GRID_P_T, GRID_ALPHA)]
    cells.append((far, 1e-5))
    random.Random(28).shuffle(cells)
    cold = []
    for law, u in cells:
        memo.cache_clear()
        got = [law.ln_mgf(u)]
        memo.cache_clear()
        cold.append([_law_bits(got[0]), _law_bits(law.mean_log())])
    memo.cache_clear()
    warm = [[_law_bits(law.ln_mgf(u)), _law_bits(law.mean_log())] for law, u in cells]
    assert warm == cold
    ruled = [(law, bits) for (law, _), pair in zip(cells, warm) for bits in pair
             if bits[3] in ("complement", "log") and law is not far]
    assert len({law for law, _ in ruled}) == 49
    assert [bits[3] for (law, _), pair in zip(cells, warm) if law is far
            for bits in pair] == ["complement", "log"]
    info = memo.cache_info()
    # the far law misses once and hits once
    assert (info.hits - 1, info.misses - 1) == (len(ruled) - 49, 49) == (490, 49)


def test_siso_dist_reference(cfg_siso):
    d = siso_snr_dist(cfg_siso)
    assert d.lam == pytest.approx(160.99457599185225, rel=1e-14)
    assert d.beta == pytest.approx(0.011646355092701331, rel=1e-13)
    assert d.beta * (1.0 + d.lam) == pytest.approx(1.8866463550927017, rel=1e-13)


def test_siso_dist_rejects_multi_antenna(cfg_miso):
    with pytest.raises(ValueError):
        siso_snr_dist(cfg_miso)


@given(st.floats(1e-6, 1.0), st.floats(1e-9, 1e-3))
def test_siso_dist_budget_scaling(p_t, sigma2):
    cfg = LinkConfig(p_t=p_t, sigma2=sigma2)
    d = siso_snr_dist(cfg)
    ref = siso_snr_dist(LinkConfig())
    # lam depends only on N; beta is linear in p_t and 1/sigma2
    assert d.lam == ref.lam
    assert d.beta == pytest.approx(ref.beta * (p_t / 1e-3) * (1e-6 / sigma2), rel=1e-12)


@given(st.integers(1, 4000))
def test_siso_lam_linear_in_elements(n):
    d = siso_snr_dist(LinkConfig(n_elems=n))
    assert d.lam == pytest.approx(n * PI2 / (16.0 - PI2), rel=1e-14)


def _names_the_law(exc, beta, lam, u):
    text = str(exc)
    return all(f"{name} = {value!r}" in text
               for name, value in (("beta", beta), ("lam", lam), ("u", u)))


@settings(max_examples=300, deadline=None)
@given(log_beta=st.floats(-300.0, 300.0), log_lam=st.floats(-8.0, 8.0),
       log_u=st.floats(-30.0, math.log10(sys.float_info.max), exclude_max=True))
def test_siso_law_integrals_keep_their_bounds(log_beta, log_lam, log_u):
    """Over beta in [1e-300, 1e300], lam in [1e-8, 1e8] and u from 1e-30
    to the largest double, ln M = ln E[(1 + SNR)^-u] and E[ln(1 + SNR)] either
    come out with -u E[ln(1 + SNR)] <= ln M <= 0 (Jensen's inequality;
    both sides carry the rule's 1e-13 relative error, so the lower bound
    is loosened by 1e-12 of it) or raise a ValueError that names beta,
    lam and u. No raw OverflowError or empty min(), and no mean read as
    0 while beta (lam + 1) is a normal double."""
    beta, lam, u = 10.0 ** log_beta, 10.0 ** log_lam, 10.0 ** log_u
    law = ScaledNoncentralChiSq(beta, lam)
    try:
        mean = law.mean_log().value
    except ValueError as exc:
        assert _names_the_law(exc, beta, lam, 0.0), exc
        return
    assert mean > 0.0
    try:
        ln_m = law.ln_mgf(u).value
    except ValueError as exc:
        assert _names_the_law(exc, beta, lam, u), exc
        return
    assert ln_m <= 0.0
    assert ln_m >= -u * mean * (1.0 + 1e-12)


@pytest.mark.parametrize("beta,lam,u", [
    (1.721793626920314e-290, 0.006438175293600871, 4.389855656259652e+175),
    (6.666042080841182e-214, 0.0035596401146614784, 2.767679358499522e+183),
    (1e-240, 161.0, 1e-3),
])
def test_siso_law_first_order_where_the_rule_would_underflow(beta, lam, u):
    """Where the second-order term is below 2^-53 of the first, both
    integrals are their first-order values: the rule's sum would be
    subnormal there (it overflowed, read 0 or lost bits before)."""
    law = ScaledNoncentralChiSq(beta, lam)
    mean = law.mean_log()
    assert mean == (beta * (lam + 1.0), mean.abserr, 0, "first_order")
    assert 0.0 <= mean.abserr <= 2.0 ** -53 * mean.value
    ln_m = law.ln_mgf(u)
    assert ln_m.route == "first_order" and ln_m.neval == 0
    assert ln_m.value == math.log1p(-u * (beta * (lam + 1.0)))


def test_siso_law_first_order_meets_the_rule():
    """Just above the first-order threshold the rule agrees with the
    two-term value to its 1e-13 target: the switch moves no digit."""
    lam = 161.0
    share = (lam * lam + 6.0 * lam + 3.0) / (2.0 * (lam + 1.0))
    for beta in (2.0 ** -52 / share, 1e-12 / share):
        law = ScaledNoncentralChiSq(beta, lam)
        mean = law.mean_log()
        assert mean.route == "log"
        two_term = beta * (lam + 1.0) * (1.0 - beta * share)
        assert abs(mean.value - two_term) <= 1e-13 * two_term
        ln_m = law.ln_mgf(1e-3)
        assert ln_m.route == "complement"
        k = 1e-3 * beta * (lam + 1.0) * (1.0 - 1.001 * beta * share)
        assert abs(-math.expm1(ln_m.value) - k) <= 1e-13 * k


def test_siso_mean_service_is_positive_at_a_tiny_power():
    """At p_t = 1e-240 the mean service is the first-order value, not 0."""
    cfg = LinkConfig(p_t=1e-240)
    dist = siso_snr_dist(cfg)
    assert dist.mean_log().route == "first_order"
    want = cfg.slot * cfg.bandwidth * dist.beta * (dist.lam + 1.0) / math.log(2.0)
    assert eccore.mean_service(cfg, "siso_csi") == want > 0.0


def test_siso_law_errors_name_beta_lam_and_u():
    """A peak Newton cannot reach (it lies among the subnormals) is a
    ValueError naming the law and exponent, not an empty min()."""
    beta, lam, u = 2.3088950253043648e+50, 1.6279546415224048e-06, 2.3736775218949763e+257
    with pytest.raises(ValueError, match="peak is out of reach") as exc:
        ScaledNoncentralChiSq(beta, lam).ln_mgf(u)
    assert _names_the_law(exc.value, beta, lam, u)


def test_siso_law_walk_stops_where_the_snr_overflows():
    """At beta = 1e299 and lam ~ 0 the left walk reaches |v| = 355, past
    which sinh(v)^2 overflows; it stops there instead of summing NaN
    terms into an OverflowError, and E[ln(1 + SNR)] is ln beta + E[ln Z^2]
    = ln beta - gamma - ln 2 to the order of lam."""
    beta, lam = 1.0303415495562854e+299, 1.2134322050214695e-08
    mean = ScaledNoncentralChiSq(beta, lam).mean_log()
    want = math.log(beta) - 0.5772156649015329 - math.log(2.0)
    assert mean.route == "log"
    assert abs(mean.value - want) <= 1e-9 * want


@pytest.mark.parametrize("p_t, sigma2, value", [(1e300, 1e-300, "inf"), (1e-300, 1e300, "0.0")])
def test_snr_scale_out_of_range_names_the_budget(p_t, sigma2, value):
    """A link budget whose SNR scale overflows or underflows a double is a
    ValueError naming p_t and sigma2, not an inf or 0 law parameter."""
    cfg = LinkConfig(p_t=p_t, sigma2=sigma2)
    budget = re.escape(f"p_t = {p_t!r}, sigma2 = {sigma2!r}")
    with pytest.raises(ValueError, match=rf"SNR scale .* = {value} .*{budget}"):
        siso_snr_dist(cfg)
    with pytest.raises(ValueError, match=rf"mean SNR .* = {value} .*{budget}"):
        miso_snr_dist(replace(cfg, n_tx=4, precoder=None))


def test_miso_closed_mode_constant(cfg_miso):
    d = miso_snr_dist(cfg_miso, mode="closed")
    s = cfg_miso.p_t * pathloss(cfg_miso) * cfg_miso.precoder_power
    want = cfg_miso.sigma2 ** 2 / (2.0 * cfg_miso.n_elems ** 2 * s * s)
    assert d.kappa == pytest.approx(want, rel=1e-14)


def test_miso_exact_kappa(cfg_miso):
    """The default rate is the sampled law's own, sigma2/(2 N p_t zeta |f|^2)."""
    d = miso_snr_dist(cfg_miso)
    want = cfg_miso.sigma2 / (
        2.0 * cfg_miso.n_elems * cfg_miso.p_t * pathloss(cfg_miso)
        * cfg_miso.precoder_power)
    assert d.kappa == pytest.approx(want, rel=1e-15)


def test_miso_oracle_fit_close_to_sampled_mean(cfg_miso):
    """The default rate sits within 1% of the mean of the element-by-element
    Box-Muller N-sum, with no fit in between."""
    values = miso_reference(cfg_miso, 1234, 200_000)
    assert miso_snr_dist(cfg_miso).kappa == pytest.approx(
        1.0 / float(values.mean()), rel=0.01)


def test_miso_oracle_fit_memoized(cfg_miso):
    """Equal configs give the identical rate: kappa is a pure function of
    the config, with no fit behind it."""
    k1 = miso_snr_dist(cfg_miso).kappa
    k2 = miso_snr_dist(replace(cfg_miso, d1=cfg_miso.d1)).kappa
    assert k1 == k2


def test_miso_kappa_power_scaling(cfg_miso):
    """Quadrupling p_t scales mean SNR (1/kappa) by 4 in both modes."""
    hot = replace(cfg_miso, p_t=4.0 * cfg_miso.p_t)
    for mode in ("exact", "closed"):
        k1 = miso_snr_dist(cfg_miso, mode=mode).kappa
        k4 = miso_snr_dist(hot, mode=mode).kappa
        scale = 16.0 if mode == "closed" else 4.0
        assert k1 == pytest.approx(scale * k4, rel=1e-12)


def test_miso_kappa_precoder_norm_only(cfg_miso):
    """Any unit-norm precoder gives the same kappa as the default."""
    w = [0.5, -0.5, 0.5j, -0.5j] + [0.0] * 6
    w[4] = math.sqrt(0.0)  # keep power at exactly 1
    other = replace(cfg_miso, precoder=tuple(w))
    assert other.precoder_power == pytest.approx(1.0, rel=1e-15)
    assert miso_snr_dist(other).kappa == miso_snr_dist(cfg_miso).kappa


def test_miso_mode_validation(cfg_miso):
    for mode in ("guess", ["exact"]):
        with pytest.raises(ValueError, match="unknown kappa mode"):
            miso_snr_dist(cfg_miso, mode=mode)


def test_sampler_determinism(cfg_siso, cfg_miso):
    a = sample_siso_snr(cfg_siso, 99, 4096)
    b = sample_siso_snr(cfg_siso, 99, 4096)
    assert np.array_equal(a.values, b.values)
    c = sample_miso_snr(cfg_miso, 99, 4096)
    d = sample_miso_snr(cfg_miso, 99, 4096)
    assert np.array_equal(c.values, d.values)
    # distinct module streams decorrelate under a shared seed
    e = sample_miso_snr(replace(cfg_siso, n_tx=1), 99, 4096)
    assert not np.array_equal(a.values, e.values)


def test_stream_rng_split():
    r1 = stream_rng(7, "a")
    r2 = stream_rng(7, "b")
    r3 = stream_rng(7, "a")
    x1, x2, x3 = r1.random(8), r2.random(8), r3.random(8)
    assert np.array_equal(x1, x3)
    assert not np.array_equal(x1, x2)


def test_siso_sample_moments(cfg_siso):
    """Sampled mean matches the law exactly in expectation; the sampled
    variance carries a small systematic excess (the fourth moment of the
    finite-N coherent sum is not the chi-square's), measured at +1.0 to
    +1.4% over seeds at N=100."""
    d = siso_snr_dist(cfg_siso)
    batch = sample_siso_snr(cfg_siso, 1234, 1_000_000)
    mean = batch.values.mean()
    var = batch.values.var(ddof=1)
    assert mean == pytest.approx(d.beta * (1.0 + d.lam), rel=0.01)
    assert var == pytest.approx(2.0 * d.beta ** 2 * (1.0 + 2.0 * d.lam), rel=0.025)


def test_miso_sample_mean(cfg_miso):
    batch = sample_miso_snr(cfg_miso, 1234, 200_000)
    want = (2.0 * cfg_miso.n_elems * cfg_miso.p_t * pathloss(cfg_miso)
            * cfg_miso.precoder_power / cfg_miso.sigma2)
    assert batch.values.mean() == pytest.approx(want, rel=0.01)


def test_miso_single_antenna_mean_scaling(cfg_siso):
    """Nt=1 keeps the N * |f|^2 mean-SNR law."""
    batch = sample_miso_snr(cfg_siso, 31, 200_000)
    want = (2.0 * cfg_siso.n_elems * cfg_siso.p_t * pathloss(cfg_siso)
            / cfg_siso.sigma2)
    assert batch.values.mean() == pytest.approx(want, rel=0.015)


def test_miso_precoder_scale_linearity(cfg_siso):
    base = replace(cfg_siso, n_tx=2, precoder=(0.6, 0.8j))
    scaled = replace(cfg_siso, n_tx=2, precoder=(1.2, 1.6j))
    v1 = sample_miso_snr(base, 5, 2000).values
    v2 = sample_miso_snr(scaled, 5, 2000).values
    assert np.array_equal(v2, 4.0 * v1)


def test_sample_batch_validation():
    with pytest.raises(ValueError):
        SampleBatch(values=np.array([]), seed=1, kind="snr")
    with pytest.raises(ValueError):
        SampleBatch(values=np.array([1.0, -2.0]), seed=1, kind="snr")
    with pytest.raises(ValueError):
        SampleBatch(values=np.array([-1.0, np.inf]), seed=1, kind="fading")
    SampleBatch(values=np.array([-1.0, 0.0]), seed=1, kind="fading")
    with pytest.raises(ValueError):
        SampleBatch(values=np.array([1.0]), seed=1, kind="voltage")
    batch = SampleBatch(values=np.array([1.0, 2.0]), seed=1, kind="snr")
    with pytest.raises(ValueError):
        batch.values[0] = 5.0  # batches are frozen evidence


def test_snr_cdf_reference(cfg_siso):
    d = siso_snr_dist(cfg_siso)
    assert d.cdf(0.0) == 0.0
    assert Exponential(0.5).cdf(0.0) == 0.0
    assert Exponential(0.5).cdf(2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    with pytest.raises(ValueError):
        d.cdf(-1.0)
    with pytest.raises(TypeError):
        d.cdf(np.array([1.0, 2.0]))


@given(st.floats(0.0, 30.0), st.floats(0.0, 10.0))
def test_snr_cdf_monotone(x, dx):
    d = ScaledNoncentralChiSq(beta=0.011646355092701331, lam=160.99457599185225)
    assert d.cdf(x + dx) >= d.cdf(x) - 1e-15
    assert d.cdf(1e6) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("x", [7.0, 15.0, 30.0, 60.0, 140.0])
def test_siso_cdf_lower_tail_matches_mpmath(x):
    """Down to p_off ~ 1e-25 the CDF keeps its relative digits; 50-digit
    mpmath evaluates P(|Z + a| <= b) = Phi(b - a) - Phi(-b - a)."""
    d = siso_snr_dist(LinkConfig(p_t=0.1))
    with mpmath.workdps(50):
        a, b = mpmath.sqrt(d.lam), mpmath.sqrt(mpmath.mpf(x) / d.beta)
        want = float(mpmath.ncdf(b - a) - mpmath.ncdf(-b - a))
    assert 1e-25 < want < 1e-1
    assert d.cdf(x) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cdf_scalar_and_array_routes_agree(cfg_siso):
    """The law's scalar math route and the numpy reference agree over
    the sample quantiles, at 0 and in the far tail."""
    cfg_miso = LinkConfig(n_tx=10)
    siso = sample_siso_snr(cfg_siso, 4242, 10_000).values
    q = np.linspace(0.0, 1.0, 101)
    for d, draws in ((siso_snr_dist(cfg_siso), siso),
                     (miso_snr_dist(cfg_miso), sample_miso_snr(cfg_miso, 4242, 10_000).values)):
        xs = np.concatenate((np.quantile(siso, q), np.quantile(draws, q),
                             [0.0, 1e3 * draws.max()]))
        vectorized = cdf_array(d, xs)
        assert vectorized.shape == xs.shape
        for x, f in zip(xs, vectorized):
            assert abs(d.cdf(float(x)) - f) <= 4.5e-16


def test_siso_cdf_matches_empirical_quantiles(cfg_siso):
    """The analytical CDF tracks 1e4 physical draws at 20 quantiles
    within the binomial 3-sigma band."""
    d = siso_snr_dist(cfg_siso)
    values = np.sort(sample_siso_snr(cfg_siso, 4242, 10_000).values)
    n = values.size
    for q in np.linspace(0.05, 0.95, 19):
        x = float(np.quantile(values, q))
        band = 3.0 * math.sqrt(q * (1.0 - q) / n)
        assert abs(d.cdf(x) - q) <= band


def test_siso_ks_tracks_element_count():
    """CLT fidelity is a function of N: the sup-CDF gap decays like
    ~0.107/sqrt(N) (measured), crossing 0.01 only past N ~ 115. The
    three bands below document that law rather than wish it away."""
    at = {}
    for n, draws in ((2, 200_000), (100, 1_000_000), (256, 1_000_000)):
        cfg = LinkConfig(n_elems=n)
        batch = sample_siso_snr(cfg, 1234, draws)
        at[n] = ks_distance(batch, siso_snr_dist(cfg))
    assert at[2] > 0.05
    assert 0.005 < at[100] < 0.02
    assert at[256] <= 0.01


def test_miso_ks_exponential(cfg_miso):
    """The beamformed SNR is exponential to sampling accuracy: fitting
    kappa on the batch itself leaves pure shape error."""
    batch = sample_miso_snr(cfg_miso, 1234, 1_000_000)
    fit = Exponential(kappa=1.0 / float(batch.values.mean()))
    assert ks_distance(batch, fit) <= 0.002


@pytest.mark.parametrize("n_elems", [1, 4, 16])
def test_miso_element_sum_follows_exact_law(n_elems):
    """The reduction behind the one-draw sampler: |sum of N complex
    Gaussians|^2, drawn element by element, is the exact exponential.
    KS within its 1% critical value, mean within 4 stderr of 1/kappa."""
    cfg = LinkConfig(n_elems=n_elems, n_tx=10)
    n = 200_000
    values = miso_reference(cfg, 1234, n)
    dist = miso_snr_dist(cfg)
    batch = SampleBatch(values=values, seed=1234, kind="snr")
    assert ks_distance(batch, dist) <= 1.63 / math.sqrt(n)
    mean = 1.0 / dist.kappa
    assert abs(values.mean() - mean) <= 4.0 * mean / math.sqrt(n)


@pytest.mark.parametrize("n_elems", [1, 3, 16, 100, 257])
def test_siso_sampler_matches_reference(n_elems):
    """Row blocks and the skipped-ahead second-hop stream reproduce the
    whole-chunk draw bit for bit."""
    cfg = LinkConfig(n_elems=n_elems)
    for n in (1, 7, 333, 10_000, 40_001, 200_000):
        for seed in (1234, 98765):
            got = sample_siso_snr(cfg, seed, n).values
            assert np.array_equal(got, siso_reference(cfg, seed, n)), (n, seed)


@pytest.mark.parametrize("chunk_elems, block_elems", [(1001, 64), (999, 7), (4096, 4096)])
def test_siso_sampler_matches_reference_across_chunks(monkeypatch, chunk_elems, block_elems):
    """Many small chunks: chunk starts that fall inside a Philox output
    block, partial row blocks and single-row blocks, each chunk split
    over 1, 2 or 3 workers."""
    monkeypatch.setattr(mcoracle, "_CHUNK_ELEMS", chunk_elems)
    monkeypatch.setattr(mcoracle, "_BLOCK_ELEMS", block_elems)
    monkeypatch.setattr(mcoracle, "_MIN_RUN_BLOCKS", 1)
    for workers in (1, 2, 3):
        monkeypatch.setattr(mcoracle, "_workers", lambda: workers)
        for n_elems in (1, 3, 16):
            cfg = LinkConfig(n_elems=n_elems)
            for seed in (5, 6):
                got = sample_siso_snr(cfg, seed, 1013).values
                want = siso_reference(cfg, seed, 1013, chunk_elems=chunk_elems)
                assert np.array_equal(got, want), (workers, n_elems, seed)


def test_siso_sampler_independent_of_worker_count(monkeypatch):
    """2e5 slots at N=100 span five default-size chunks; every worker
    count gives the reference's bits."""
    cfg = LinkConfig()
    want = siso_reference(cfg, 801, 200_000)
    for workers in (1, 2, 3):
        monkeypatch.setattr(mcoracle, "_workers", lambda: workers)
        assert np.array_equal(sample_siso_snr(cfg, 801, 200_000).values, want), workers


def test_siso_split_matches_sampler(monkeypatch):
    """One fading draw, filled by 1, 2 or 3 workers, with each link's
    budget step gives that link's sample_siso_snr bits."""
    configs = [{"p_t": 0.37}, {"sigma2": 3.1e-9}, {"d1": 13.0}, {"g_t": 2.5},
               {"phi_inc": 1.2}]
    for n_elems in (1, 16, 100):
        for n in (1, 333, 10_000, 40_001):
            for seed in (1234, 98765):
                links = [LinkConfig(n_elems=n_elems, **fields) for fields in configs]
                wants = [sample_siso_snr(cfg, seed, n).values for cfg in links]
                for workers in (1, 2, 3):
                    monkeypatch.setattr(mcoracle, "_workers", lambda: workers)
                    fading = siso_fading(n_elems, seed, n)
                    assert fading.kind == "fading" and fading.seed == seed
                    for fields, cfg, want in zip(configs, links, wants):
                        got = siso_snr_from_fading(fading, cfg)
                        case = (n_elems, n, seed, workers, fields)
                        assert got.kind == "snr" and got.seed == seed, case
                        assert np.array_equal(got.values, want), case


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       n=st.integers(1, 3000), seed=st.integers(0, 2 ** 64 - 1),
       chunk_elems=st.sampled_from([mcoracle._CHUNK_ELEMS, 20_000, 999]))
def test_nested_siso_draw(counts, n, seed, chunk_elems):
    """One draw for a set of element counts: the largest count's batch is
    the plain draw at that count, each count's batch is the nested
    reference's first N elements, the per-slot sums never fall as N
    grows, and 1 or 2 workers give the same bits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcoracle, "_CHUNK_ELEMS", chunk_elems)
        # blocks small enough that two workers share the rows of a chunk
        mp.setattr(mcoracle, "_BLOCK_ELEMS", 2048)
        mp.setattr(mcoracle, "_MIN_RUN_BLOCKS", 1)
        want = siso_nested_reference(counts, seed, n, chunk_elems=chunk_elems)
        for workers in (1, 2):
            mp.setattr(mcoracle, "_workers", lambda: workers)
            got = siso_fading(counts, seed, n)
            assert list(got) == sorted(set(counts))
            for count, batch in got.items():
                assert batch.kind == "fading" and batch.seed == seed
                assert np.array_equal(batch.values, want[count]), (workers, count)
            n_max = max(counts)
            assert np.array_equal(got[n_max].values, siso_fading(n_max, seed, n).values)
            sums = [batch.values for batch in got.values()]
            assert all(np.all(a <= b) for a, b in zip(sums, sums[1:]))


def test_fading_count_gates():
    """A slot count or element count is a positive integer: an integral
    float is taken as that integer, and a bool, NaN, infinite or
    fractional one is refused by name."""
    assert np.array_equal(siso_fading(16, 1, 10.0).values, siso_fading(16, 1, 10).values)
    assert np.array_equal(miso_fading(1, 2.0).values, miso_fading(1, 2).values)
    for bad in (10.5, True, math.nan, math.inf, 0, "10"):
        with pytest.raises(ValueError, match="^n must be a positive integer"):
            siso_fading(16, 1, bad)
        with pytest.raises(ValueError, match="^n must be a positive integer"):
            miso_fading(1, bad)
    for bad in (16.5, True, math.nan, -3, None):
        with pytest.raises(ValueError, match="^n_elems must be a positive integer"):
            siso_fading(bad, 1, 10)
        with pytest.raises(ValueError, match="^n_elems must be a positive integer"):
            siso_fading((16, bad), 1, 10)
    with pytest.raises(ValueError, match="^n_elems must hold"):
        siso_fading((), 1, 10)


def test_miso_split_matches_sampler():
    """One non-positive fading draw, shared by several links, gives each
    link its sample_miso_snr bits."""
    precoded = LinkConfig(n_tx=3, precoder=(0.6, 0.48j, -0.2 + 0.1j))
    for n in (1, 333, 10_000):
        for seed in (1234, 98765):
            fading = miso_fading(seed, n)
            assert fading.kind == "fading" and np.all(fading.values <= 0.0)
            for cfg in [LinkConfig(n_tx=n_tx) for n_tx in (1, 4, 10)] + [precoded]:
                got = miso_snr_from_fading(fading, cfg).values
                want = sample_miso_snr(cfg, seed, n).values
                assert np.array_equal(got, want), (n, seed, cfg.n_tx)


def test_split_budget_gates():
    fading = siso_fading(16, 5, 100)
    with pytest.raises(ValueError, match="n_tx == 1"):
        siso_snr_from_fading(fading, LinkConfig(n_elems=16, n_tx=3))
    snr = sample_siso_snr(LinkConfig(n_elems=16), 5, 100)
    with pytest.raises(ValueError, match="fading batch"):
        siso_snr_from_fading(snr, LinkConfig(n_elems=16))
    with pytest.raises(ValueError, match="fading batch"):
        miso_snr_from_fading(snr, LinkConfig(n_elems=16))
    with pytest.raises(ValueError, match="n must be"):
        siso_fading(16, 5, 0)
    with pytest.raises(ValueError, match="n_elems must be"):
        siso_fading(0, 5, 100)
    with pytest.raises(ValueError, match="n must be"):
        miso_fading(5, 0)
    # a whole float element count is that integer, in a config too
    assert np.array_equal(siso_fading(16.0, 5, 100).values, fading.values)
    cfg = LinkConfig(n_elems=16.0)
    assert type(cfg.n_elems) is int
    assert np.array_equal(sample_siso_snr(cfg, 5, 100).values, snr.values)


def test_siso_sampler_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(mcoracle, "_workers", lambda: 3)
    before = threading.active_count()
    sample_siso_snr(LinkConfig(), 1234, 10_000)
    assert threading.active_count() == before


def test_siso_sampler_worker_error_reaches_the_caller(monkeypatch):
    """An error raised on a worker thread is raised again in the caller,
    after every worker has been joined."""
    monkeypatch.setattr(mcoracle, "_workers", lambda: 3)
    rows = mcoracle._siso_rows

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        rows(*args)

    monkeypatch.setattr(mcoracle, "_siso_rows", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        sample_siso_snr(LinkConfig(), 1234, 10_000)
    assert threading.active_count() == before


def _sampler_peak_bytes(n: int) -> int:
    tracemalloc.start()
    try:
        sample_siso_snr(LinkConfig(), 1234, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_siso_sampler_memory():
    """Working memory is two row-block buffers, not chunk-sized temporaries."""
    n = 10_000
    assert _sampler_peak_bytes(n) <= n * 8 + 2 * 2 ** 20


def test_siso_sampler_memory_independent_of_workers(monkeypatch):
    """Eight workers share the two row blocks instead of holding two each."""
    monkeypatch.setattr(mcoracle, "_workers", lambda: 8)
    n = 100_000
    assert _sampler_peak_bytes(n) <= n * 8 + 2 * 2 ** 20


def test_config_roundtrip(tmp_path, cfg_miso):
    path = tmp_path / "link.cfg"
    cfg = replace(cfg_miso, p_t=3.25e-3, phi_inc=0.7, n_elems=57)
    write_link_config(cfg, path)
    assert load_link_config(path) == cfg


def test_config_parsing(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text(
        "# comment line\n"
        "g_t_db = 13.0\n"
        "p_t = 2e-3  # trailing comment\n"
        "n_elems = 64\n"
        "precoder = (0.6+0j), 0.8j\n"
        "n_tx = 2\n",
        encoding="utf-8")
    cfg = load_link_config(path)
    assert cfg.g_t == pytest.approx(10.0 ** 1.3, rel=1e-14)
    assert cfg.p_t == 2e-3
    assert cfg.n_elems == 64
    assert cfg.precoder == (0.6 + 0.0j, 0.8j)
    assert cfg.d1 == 50.0  # untouched fields keep their defaults


def test_config_unknown_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("power = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown field"):
        load_link_config(path)


@pytest.mark.parametrize("line", ["n_elems = 16.0", "p_t = abc"])
def test_config_value_errors_name_the_line(tmp_path, line):
    """A value that does not convert names its file and line, like every
    other config error."""
    path = tmp_path / "bad.cfg"
    path.write_text(f"# link\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: "):
        load_link_config(path)


@pytest.mark.parametrize("text, lineno, message", [
    ("p_t = 1e400\n", 1, "p_t must be finite"),
    ("# link\nn_tx = 2\nprecoder = 1, nan\n", 3, "precoder must be finite"),
    ("d1 = 20\ng_t_db = -4000\n", 2, "g_t must be strictly positive"),
    ("n_tx = 3\n\nprecoder = 0.6, 0.8j\n", 3, "precoder length must equal n_tx"),
])
def test_config_link_errors_name_the_line(tmp_path, text, lineno, message):
    """A value that converts but that LinkConfig refuses names the line
    that set the field, like a value that does not convert."""
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: {message}$"):
        load_link_config(path)
