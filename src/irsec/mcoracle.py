"""Monte Carlo ground truth for the analytical results.

Everything here deliberately avoids the closed forms: service samples
are mapped straight from the physical channel draws, and the EC
estimator realizes the defining log-MGF limit one slot at a time, as
the slots are iid. An adaptive-rate link's per-slot service comes
from service_from_snr. A fixed-rate link serves either rate*slot bits
or none, so its estimate needs only the count of slots that support
the rate (on_off_estimate), and no per-slot array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from irsec.channel import LinkConfig, SampleBatch
from irsec.eccore import LN2, alpha_value, snr_threshold

__all__ = [
    "EcEstimate",
    "empirical_ec",
    "on_off_estimate",
    "service_from_snr",
]

# Exponents below this are where exp() dies in double precision.
_UNDERFLOW_LOG = math.log(1e-300)


@dataclass(frozen=True)
class EcEstimate:
    """Monte Carlo EC with its delta-method standard error."""

    value: float
    stderr: float
    slots: int

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


def empirical_ec(service: SampleBatch, alpha: float) -> EcEstimate:
    """Estimate EC from per-slot service samples via the one-slot log-MGF.

    Returns -(1/alpha) ln mean(exp(-alpha S)) over the slots' service S,
    stabilized by log-sum-exp. stderr is the delta-method value on the
    shifted weights w: std(w) / (sqrt(slots) * mean(w) * alpha),
    exactly 0 for constant service.
    """
    if service.kind != "service_bits":
        raise ValueError("empirical_ec needs a service_bits batch")
    a = alpha_value(alpha)
    n = service.values.size
    # a fresh array, shifted and exponentiated in place into the weights
    w = service.values * -a
    peak = float(np.max(w))
    if peak < _UNDERFLOW_LOG:
        warnings.warn(
            "every exp(-alpha S) term underflows double precision; "
            "the estimate is dominated by the single largest slot",
            UserWarning, stacklevel=2)
    w -= peak
    np.exp(w, out=w)
    mean = float(np.sum(w)) / n
    # + 0.0 turns the -0.0 of an all-zero service into 0.0
    value = -(peak + math.log(mean)) / a + 0.0
    stderr = 0.0
    if n > 1:
        w -= mean
        var = float(np.dot(w, w)) / (n - 1)
        stderr = math.sqrt(var / n) / (mean * a)
    return EcEstimate(value=value, stderr=stderr, slots=n)


def service_from_snr(snr: SampleBatch, cfg: LinkConfig) -> SampleBatch:
    """Per-slot adaptive-rate service bits slot*B*log2(1+SNR) of an SNR
    batch; the seed carries over, so one SNR batch can serve every
    exponent evaluated on the same link."""
    if snr.kind != "snr":
        raise ValueError("service_from_snr needs an snr batch")
    # one fresh array, scaled in place: the rows of a sweep share snr
    service = np.log1p(snr.values)
    service *= cfg.slot * cfg.bandwidth
    service /= LN2
    return SampleBatch(values=service, seed=snr.seed, kind="service_bits")


def on_off_estimate(snr: SampleBatch, cfg: LinkConfig, rate: float,
                    alpha: float) -> EcEstimate:
    """empirical_ec of the fixed-rate service of an SNR batch, from counts.

    With `on` of the n slots supporting the rate, each serving
    bits = rate*slot, and off = n - on, the one-slot estimate is
    -ln(1 + q)/alpha with q = (on/n)(e^(-alpha bits) - 1), and its
    delta-method stderr is |e^(-alpha bits) - 1| sqrt(on off/(n-1)) /
    (n (1+q) alpha). Unlike a mean of per-slot weights, the counts carry
    no summation rounding. As a service batch and empirical_ec would,
    it refuses bits that are not finite and nonnegative when any slot
    is on, and a rate no slot supports gives 0.
    """
    if snr.kind != "snr":
        raise ValueError("on_off_estimate needs an snr batch")
    a = alpha_value(alpha)
    n = snr.values.size
    on = int(np.count_nonzero(snr.values >= snr_threshold(rate, cfg.bandwidth)))
    bits = rate * cfg.slot
    # the slots that are on serve bits, which a service batch would refuse
    if on and not (math.isfinite(bits) and bits >= 0.0):
        raise ValueError(f"service bits rate * slot = {bits!r} must be finite "
                         "and nonnegative")
    if on in (0, n):
        # constant service; e^(-alpha bits) may underflow, bits cannot
        return EcEstimate(value=bits + 0.0 if on else 0.0, stderr=0.0, slots=n)
    off = n - on
    d = math.expm1(-a * bits)
    # 1 + q as a sum of positive terms, so no digits cancel when it nears 0
    mgf = (off + on * math.exp(-a * bits)) / n
    # log1p keeps the digits of an mgf near 1, log those of one near 0
    ln_mgf = math.log1p(on * d / n) if mgf > 0.5 else math.log(mgf)
    stderr = -d * math.sqrt(on * off / (n - 1)) / (n * mgf * a)
    return EcEstimate(value=-ln_mgf / a, stderr=stderr, slots=n)
