"""Effective capacity of the four transmission scenarios.

All closed forms return bits per slot under the block-fading service
model: per-slot service is slot * bandwidth * log2(1 + SNR) when the
transmitter adapts to the channel, and a two-state on/off chain at a
fixed rate when it does not. EC(alpha) = -(1/alpha) ln E[exp(-alpha s)]
for one slot, since slots are independent and identically distributed.

The single-antenna adaptive-rate forms take their integrals from the
single-antenna SNR law itself (ScaledNoncentralChiSq.ln_mgf and
mean_log), a trapezoid rule that halves its step until two sums agree.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

from irsec import specfun
from irsec.channel import (
    _GRID_MEMO_LINKS,
    MAX_MGF_U,
    LinkConfig,
    SnrDistribution,
    miso_snr_dist,
    siso_snr_dist,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "get_scenario",
    "EcResult",
    "alpha_value",
    "ec_siso_csi",
    "ec_miso_csi",
    "ec_siso_nocsi",
    "ec_miso_nocsi",
    "on_off_probs",
    "snr_threshold",
    "miso_csi_moments",
    "mean_service",
    "KAPPA_WATSON",
]

LN2 = math.log(2.0)
PI2_OVER_6 = math.pi * math.pi / 6.0

# Squared-log-moment route switch: below, the hypergeometric bracket is
# accurate; above, cancellation eats it and the divergent tail expansion
# at optimal truncation is far better. Crossover measured near 14.
KAPPA_WATSON = 14.0

# exp() of an exponent past this is treated as overflow; paper shares it.
_EXP_TAIL = 690.0


@dataclass(frozen=True)
class Scenario:
    """One branch of the 2x2 design: the single-antenna or the beamformed
    link, with the rate adapted to the channel (CSI) or fixed (no CSI).

    The methods call the module-level law and EC functions by name at
    call time, so a caller that replaces one of them (a tracer, a
    profiler) sees every call made through the table.
    """

    name: str
    beamformed: bool
    adaptive: bool

    def _check_kappa_mode(self, kappa_mode: str) -> None:
        # the single-antenna law has no kappa to choose a mode for
        if not self.beamformed and kappa_mode != "exact":
            raise ValueError(f"kappa_mode {kappa_mode!r} applies only to the beamformed link")

    def law(self, cfg: LinkConfig, kappa_mode: str = "exact") -> SnrDistribution:
        """The link's SNR law; kappa_mode applies to the beamformed link,
        and any mode but "exact" is a ValueError on the single-antenna one."""
        self._check_kappa_mode(kappa_mode)
        if self.beamformed:
            return miso_snr_dist(cfg, mode=kappa_mode)
        return siso_snr_dist(cfg)

    def check_rate(self, rate: float | None) -> None:
        """ValueError unless a rate comes exactly with a fixed-rate branch."""
        if self.adaptive and rate is not None:
            raise ValueError(f"{self.name} adapts its rate; rate must be None")
        if not self.adaptive and rate is None:
            raise ValueError(f"{self.name} needs a rate")

    def ec(
        self,
        cfg: LinkConfig,
        alpha: float,
        rate: float | None = None,
        kappa_mode: str = "exact",
    ) -> EcResult:
        """EC of this branch; fixed-rate branches need the rate.

        kappa_mode applies to the beamformed link. A rate given to an
        adaptive branch, or a kappa_mode other than "exact" on the
        single-antenna link, is a ValueError rather than ignored.
        siso_csi's high-SNR closed form (irsec.paper) is never the EC.
        """
        self._check_kappa_mode(kappa_mode)
        self.check_rate(rate)
        if self.adaptive:
            if self.beamformed:
                return ec_miso_csi(cfg, alpha, kappa_mode=kappa_mode)
            return ec_siso_csi(cfg, alpha)
        if self.beamformed:
            return ec_miso_nocsi(cfg, alpha, rate, kappa_mode=kappa_mode)
        return ec_siso_nocsi(cfg, alpha, rate)


# The one place that says what each scenario name means. Every branch
# draws its oracle at the caller's seed, so the order seeds nothing.
SCENARIOS = {s.name: s for s in (
    Scenario("siso_csi", beamformed=False, adaptive=True),
    Scenario("siso_nocsi", beamformed=False, adaptive=False),
    Scenario("miso_csi", beamformed=True, adaptive=True),
    Scenario("miso_nocsi", beamformed=True, adaptive=False),
)}


def get_scenario(name: str) -> Scenario:
    """The table entry for a scenario name; ValueError if there is none."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}") from None


def alpha_value(alpha: float) -> float:
    """The QoS exponent as a float; ValueError unless strictly positive
    and finite."""
    a = float(alpha)
    if not a > 0.0:
        raise ValueError("alpha must be strictly positive")
    if a == math.inf:
        raise ValueError("alpha must be finite")
    return a


@dataclass(frozen=True)
class EcResult:
    """An effective-capacity value with the intermediates that built it."""

    ec_bits_per_slot: float
    scenario: str
    diagnostics: dict

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")


def ec_siso_csi(
    cfg: LinkConfig,
    alpha: float,
) -> EcResult:
    """EC of the rate-adaptive single-antenna link.

    The EC is -ln E[(1+SNR)^-u] / alpha from the law's ln_mgf; the
    diagnostics report its route ("complement", "direct" or
    "first_order", the last with no evaluations), the difference of its
    last two step halvings (on ln M for "direct", which stays finite
    where M underflows) and its integrand evaluations as quad_route,
    quad_abserr and quad_neval. The paper's high-SNR closed form is
    irsec.paper.siso_csi_relaxed, never the EC.

    Once u or k = 1 - E[(1+SNR)^-u] is subnormal, -ln M has lost bits
    that dividing by alpha cannot restore, so the EC takes its
    first-order value, the mean service, from the law's mean_log, with
    route "mean_service" (as _on_off_kernel does for a subnormal x). A u
    past the law's MAX_MGF_U is a ValueError naming alpha, bandwidth and
    slot.
    """
    dist = siso_snr_dist(cfg)
    a = alpha_value(alpha)
    u = a * cfg.bandwidth * cfg.slot / LN2
    if not u <= MAX_MGF_U:
        raise ValueError(
            f"alpha * bandwidth * slot / ln 2 = {u!r} is past the single-antenna MGF's "
            f"largest exponent {MAX_MGF_U!r} at alpha = {a!r}, "
            f"bandwidth = {cfg.bandwidth!r}, slot = {cfg.slot!r}")
    diag: dict = {"beta": dist.beta, "lam": dist.lam, "u": u}
    law_int = dist.ln_mgf(u) if u >= sys.float_info.min else None
    if law_int is not None and -law_int.value >= sys.float_info.min:
        ln_mgf, diag["quad_abserr"], diag["quad_neval"], diag["quad_route"] = law_int
        ec = -ln_mgf / a
    else:
        mean, abserr, diag["quad_neval"], _ = dist.mean_log()
        ln_mgf, diag["quad_abserr"], diag["quad_route"] = -u * mean, u * abserr, "mean_service"
        ec = cfg.slot * cfg.bandwidth * mean / LN2
    diag["ln_mgf"] = ln_mgf
    return EcResult(ec_bits_per_slot=ec, scenario="siso_csi", diagnostics=diag)


def _sq_log_moment(kappa: float) -> float:
    """E[ln^2(1 + X)] for X exponential with rate kappa."""
    if kappa <= KAPPA_WATSON:
        g = specfun.EULER_GAMMA
        lk = math.log(kappa)
        bracket = PI2_OVER_6 + g * g + 2.0 * g * lk + lk * lk
        return math.exp(kappa) * (bracket - 2.0 * kappa * specfun.hyp3f3_unit(-kappa))
    # alternating tail expansion in 1/kappa, truncated at its smallest term
    total = 0.0
    sign = 1.0
    harmonic = 1.0
    mag = 2.0 / (kappa * kappa)
    prev = math.inf
    j = 2
    while j < specfun.SERIES_MAX_TERMS:
        if mag >= prev:
            break
        total += sign * mag
        if mag <= specfun.SERIES_REL_TOL * abs(total):
            break
        prev = mag
        new_harmonic = harmonic + 1.0 / j
        mag *= (new_harmonic / harmonic) * (j / kappa)
        harmonic = new_harmonic
        sign = -sign
        j += 1
    return total


def miso_csi_moments(
    kappa: float,
    bandwidth: float = 1.0,
    slot: float = 1.0,
) -> tuple[float, float, float]:
    """(mean, second moment, variance) of per-slot beamformed service.

    None of it depends on the exponent, so _service_moments keeps it
    for the last _GRID_MEMO_LINKS (kappa, bandwidth, slot), bit for bit.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    if not bandwidth > 0.0 or not slot > 0.0:
        raise ValueError("bandwidth and slot must be positive")
    return _service_moments(kappa, bandwidth, slot)


@functools.lru_cache(maxsize=_GRID_MEMO_LINKS)
def _service_moments(kappa: float, bandwidth: float,
                     slot: float) -> tuple[float, float, float]:
    """miso_csi_moments for checked arguments."""
    scale = slot * bandwidth / LN2
    mu = scale * specfun.expint_e1_scaled(kappa)
    eta = scale * scale * _sq_log_moment(kappa)
    return mu, eta, eta - mu * mu


def ec_miso_csi(
    cfg: LinkConfig,
    alpha: float,
    kappa_mode: str = "exact",
) -> EcResult:
    """EC of the rate-adaptive beamformed link (Gaussian service model).

    EC = mu - (alpha/2) sigma^2; negative values are clamped to zero
    with a warning since the quadratic model has left its regime there.
    Past slot * bandwidth ~ 1e154 the second moment overflows a double,
    which is an OverflowError rather than a NaN EC.
    """
    a = alpha_value(alpha)
    dist = miso_snr_dist(cfg, mode=kappa_mode)
    mu, eta, var = miso_csi_moments(dist.kappa, cfg.bandwidth, cfg.slot)
    if not math.isfinite(var):  # eta - mu^2 is finite iff both terms are
        raise OverflowError(
            f"service moments overflow a double at slot * bandwidth = "
            f"{cfg.slot * cfg.bandwidth!r}")
    raw = mu - 0.5 * a * var
    ec = raw
    if raw < 0.0:
        warnings.warn(
            f"Gaussian service model gives negative EC ({raw:.3g}) at "
            f"alpha={a:g}; clamping to 0", UserWarning, stacklevel=2)
        ec = 0.0
    diag = {"kappa": dist.kappa, "kappa_mode": kappa_mode,
            "mu": mu, "eta": eta, "sigma2": var, "ec_raw": raw}
    return EcResult(ec_bits_per_slot=ec, scenario="miso_csi", diagnostics=diag)


def snr_threshold(rate: float, bandwidth: float) -> float:
    """Least SNR that supports the rate: 2^(rate/bandwidth) - 1.

    inf past _EXP_TAIL, where 2^(rate/bandwidth) would overflow and
    exceeds any SNR a double can hold anyway.
    """
    x = LN2 * rate / bandwidth
    if x > _EXP_TAIL:
        return math.inf
    return math.expm1(x)


def on_off_probs(dist: SnrDistribution, rate: float, bandwidth: float) -> tuple[float, float]:
    """(p_on, p_off) for fixed-rate transmission over the given SNR law.

    On means the channel supports the rate: SNR >= snr_threshold(rate).
    """
    if not rate >= 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate!r}")
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    if rate == 0.0:
        return 1.0, 0.0
    p_off = dist.cdf(snr_threshold(rate, bandwidth))
    return 1.0 - p_off, p_off


def _product(u: float, v: float, w: float) -> float:
    """u * v * w for finite u, v, w >= 0: the plain product, bit for bit,
    unless u * v leaves the normal doubles, losing bits or overflowing
    where w may bring the product back. There the mantissas multiply and
    one ldexp applies the exponents, inf past the largest double."""
    uv = u * v
    if sys.float_info.min <= uv < math.inf or u == 0.0 or v == 0.0:
        return uv * w
    (mu, eu), (mv, ev), (mw, ew) = math.frexp(u), math.frexp(v), math.frexp(w)
    try:
        return math.ldexp(mu * mv * mw, eu + ev + ew)
    except OverflowError:
        return math.inf


def _on_off_kernel(p_on: float, p_off: float, a: float, rate: float,
                   slot: float) -> tuple[float, float]:
    """(ln_mgf, ec) of a two-state service chain with exponent a > 0.

    With iid states the MGF is 1 - k, k = p_on (1 - exp(-a rate slot)).
    log1p(-k) is exact while k < 1/2; above, 1 - k keeps only the last
    bits of k, so p_off and p_on exp(-a rate slot) are added in the log
    domain instead. Once x = a rate slot is subnormal it has lost bits
    that dividing by a cannot restore, so EC takes its first-order value
    p_on rate slot, the mean service. That is also the EC where x
    overflows with p_off = 0: every slot serves rate slot, while ln_mgf
    reads -inf. An EC past the largest double is a ValueError naming
    alpha, rate and slot.
    """
    x = _product(a, rate, slot)
    k = p_on * (-math.expm1(-x))
    if k < 0.5:
        ln_mgf = math.log1p(-k)
    else:
        ln_on = math.log(p_on) - x
        if p_off == 0.0:
            ln_mgf = ln_on
        else:
            ln_off = math.log(p_off)
            hi, lo = max(ln_on, ln_off), min(ln_on, ln_off)
            ln_mgf = hi + math.log1p(math.exp(lo - hi))
    if x < sys.float_info.min or (x == math.inf and p_off == 0.0):
        ec = _product(p_on, rate, slot)
    else:
        ec = -ln_mgf / a
    if not ec < math.inf:
        raise ValueError(
            f"the fixed-rate EC overflows a double at alpha = {a!r}, rate = {rate!r}, "
            f"slot = {slot!r}")
    return ln_mgf, ec


def _checked_on_off(dist: SnrDistribution, rate: float,
                    bandwidth: float) -> tuple[float, float]:
    """(p_on, p_off) of on_off_probs, with p_on checked to lie in [0, 1]:
    the part of the fixed-rate EC that does not depend on the exponent.
    It calls on_off_probs by its module name, so that a caller that
    replaces it (a tracer, a counting test) sees every call."""
    p_on, p_off = on_off_probs(dist, rate, bandwidth)
    if not 0.0 <= p_on <= 1.0:
        raise ValueError("p_on must lie in [0, 1]")
    return p_on, p_off


def _fixed_rate(dist: SnrDistribution, a: float, rate: float, bandwidth: float,
                slot: float) -> tuple[float, float, float, float]:
    """(p_on, p_off, ln_mgf, ec) of fixed-rate transmission over the law
    dist, for an exponent a already checked by alpha_value: the one
    fixed-rate EC, _checked_on_off then _on_off_kernel, behind both
    no-CSI branches and the rate search. The search keeps the first
    step of its grid points (rateopt.grid_argmax_rate), so a tracer sees
    every on_off_probs call but not one per evaluation."""
    p_on, p_off = _checked_on_off(dist, rate, bandwidth)
    ln_mgf, ec = _on_off_kernel(p_on, p_off, a, rate, slot)
    return p_on, p_off, ln_mgf, ec


def ec_siso_nocsi(
    cfg: LinkConfig,
    alpha: float,
    rate: float,
) -> EcResult:
    """EC of fixed-rate transmission over the single-antenna link."""
    dist = siso_snr_dist(cfg)
    p_on, p_off, ln_mgf, ec = _fixed_rate(dist, alpha_value(alpha), rate,
                                          cfg.bandwidth, cfg.slot)
    diag = {"p_on": p_on, "p_off": p_off, "rate": rate, "slot": cfg.slot,
            "ln_mgf": ln_mgf, "beta": dist.beta, "lam": dist.lam}
    return EcResult(ec_bits_per_slot=ec, scenario="siso_nocsi", diagnostics=diag)


def ec_miso_nocsi(
    cfg: LinkConfig,
    alpha: float,
    rate: float,
    kappa_mode: str = "exact",
) -> EcResult:
    """EC of fixed-rate transmission over the beamformed link."""
    dist = miso_snr_dist(cfg, mode=kappa_mode)
    p_on, p_off, ln_mgf, ec = _fixed_rate(dist, alpha_value(alpha), rate,
                                          cfg.bandwidth, cfg.slot)
    diag = {"p_on": p_on, "p_off": p_off, "rate": rate, "slot": cfg.slot,
            "ln_mgf": ln_mgf, "kappa": dist.kappa, "kappa_mode": kappa_mode}
    return EcResult(ec_bits_per_slot=ec, scenario="miso_nocsi", diagnostics=diag)


def mean_service(
    cfg: LinkConfig,
    scenario: str,
    rate: float | None = None,
    kappa_mode: str = "exact",
) -> float:
    """Expected per-slot service in bits; the alpha -> 0 limit of EC."""
    entry = get_scenario(scenario)
    entry.check_rate(rate)
    dist = entry.law(cfg, kappa_mode)
    if not entry.adaptive:
        p_on, _ = on_off_probs(dist, rate, cfg.bandwidth)
        return _product(p_on, rate, cfg.slot)
    if entry.beamformed:
        mu, _, _ = miso_csi_moments(dist.kappa, cfg.bandwidth, cfg.slot)
        return mu
    return cfg.slot * cfg.bandwidth * dist.mean_log().value / LN2
