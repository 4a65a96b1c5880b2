"""Monte Carlo ground truth for the analytical results.

Everything here deliberately avoids the closed forms: service samples
are mapped straight from the physical channel draws, and the EC
estimator realizes the defining log-MGF limit on finite blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from irsec.channel import LinkConfig, SampleBatch
from irsec.eccore import LN2, alpha_value, get_scenario, snr_threshold

__all__ = [
    "EcEstimate",
    "empirical_ec",
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
    blocks: int

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if self.blocks < 1 or self.slots % self.blocks != 0:
            raise ValueError("slots must be a positive multiple of blocks")


def empirical_ec(
    service: SampleBatch,
    alpha: float,
    block_length: int = 1,
) -> EcEstimate:
    """Estimate EC from service samples via the block log-MGF.

    Partitions the slots into blocks of block_length (one slot each by
    default, as the slots are iid), forms the cumulative service S per
    block, and returns -(1/(alpha*block_length)) ln mean(exp(-alpha S)),
    stabilized by log-sum-exp. stderr is the delta-method value on the
    shifted weights w: std(w) / (sqrt(blocks) * mean(w) * alpha *
    block_length), exactly 0 for constant service.
    """
    if service.kind != "service_bits":
        raise ValueError("empirical_ec needs a service_bits batch")
    if block_length < 1:
        raise ValueError("block_length must be >= 1")
    n = service.values.size
    if n % block_length != 0:
        raise ValueError(
            f"sample count {n} is not a multiple of block_length {block_length}")
    a = alpha_value(alpha)
    blocks = n // block_length
    # a fresh array, shifted and exponentiated in place into the weights
    w = service.values.reshape(blocks, block_length).sum(axis=1)
    w *= -a
    peak = float(np.max(w))
    if peak < _UNDERFLOW_LOG:
        warnings.warn(
            "every exp(-alpha S) term underflows double precision; "
            "the estimate is dominated by the single largest block",
            UserWarning, stacklevel=2)
    w -= peak
    np.exp(w, out=w)
    mean = float(np.sum(w)) / blocks
    scale = a * block_length
    # + 0.0 turns the -0.0 of an all-zero service into 0.0
    value = -(peak + math.log(mean)) / scale + 0.0
    stderr = 0.0
    if blocks > 1:
        w -= mean
        var = float(np.dot(w, w)) / (blocks - 1)
        stderr = math.sqrt(var / blocks) / (mean * scale)
    return EcEstimate(value=value, stderr=stderr, slots=n, blocks=blocks)


def service_from_snr(
    snr: SampleBatch,
    cfg: LinkConfig,
    scenario: str,
    rate: float | None,
) -> SampleBatch:
    """Per-slot service bits of an SNR batch; the seed carries over.

    CSI scenarios log the adaptive rate slot*B*log2(1+SNR); no-CSI
    scenarios deliver rate*slot bits exactly when the channel supports
    the rate and nothing otherwise. One SNR batch can thus serve every
    rate and exponent evaluated on the same link.
    """
    entry = get_scenario(scenario)
    entry.check_rate(rate)
    if snr.kind != "snr":
        raise ValueError("service_from_snr needs an snr batch")
    if entry.adaptive:
        # one fresh array, scaled in place: the rows of a sweep share snr
        service = np.log1p(snr.values)
        service *= cfg.slot * cfg.bandwidth
        service /= LN2
    else:
        threshold = snr_threshold(rate, cfg.bandwidth)
        service = np.where(snr.values >= threshold, rate * cfg.slot, 0.0)
    return SampleBatch(values=service, seed=snr.seed, kind="service_bits")
