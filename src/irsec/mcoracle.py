"""Monte Carlo ground truth for the analytical results.

Everything here deliberately avoids the closed forms: service samples
come straight from the physical channel samplers, and the EC estimator
realizes the defining log-MGF limit on finite blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from irsec.channel import LinkConfig, SampleBatch, stream_rng
from irsec.eccore import LN2, alpha_value, get_scenario, snr_threshold

__all__ = [
    "EcEstimate",
    "empirical_ec",
    "simulate_service",
    "service_from_snr",
    "BLOCK_LENGTH",
    "BOOTSTRAP_RESAMPLES",
]

# Block length trades MGF underflow (long blocks) against block count
# (short blocks); with iid slots any choice is unbiased in the limit.
BLOCK_LENGTH = 100

BOOTSTRAP_RESAMPLES = 200

# Exponents below this are where exp() dies in double precision.
_UNDERFLOW_LOG = math.log(1e-300)

_BOOTSTRAP_STREAM = "mcoracle.bootstrap"

# Bootstrap indices drawn and reduced at a time, which bounds its memory.
_BOOTSTRAP_ELEMS = 2 ** 16


@dataclass(frozen=True)
class EcEstimate:
    """Monte Carlo EC with its bootstrap uncertainty."""

    value: float
    stderr: float
    slots: int
    blocks: int

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if self.blocks < 1 or self.slots % self.blocks != 0:
            raise ValueError("slots must be a positive multiple of blocks")


def _log_mean_exp(x: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.mean(np.exp(x - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else float(np.squeeze(out))


def empirical_ec(
    service: SampleBatch,
    alpha: float,
    block_length: int = BLOCK_LENGTH,
) -> EcEstimate:
    """Estimate EC from service samples via the block log-MGF.

    Partitions the slots into blocks of block_length, forms the
    cumulative service S per block, and returns
    -(1/(alpha*block_length)) ln mean(exp(-alpha S)), stabilized by
    log-sum-exp. stderr is the spread of the estimate under a
    nonparametric bootstrap over blocks.
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
    block_sums = service.values.reshape(blocks, block_length).sum(axis=1)
    x = -a * block_sums
    if np.max(x) < _UNDERFLOW_LOG:
        warnings.warn(
            "every exp(-alpha S) term underflows double precision; "
            "the estimate is dominated by the single largest block",
            UserWarning, stacklevel=2)
    scale = -1.0 / (a * block_length)
    value = scale * _log_mean_exp(x)

    # resample rows in chunks of about _BOOTSTRAP_ELEMS indices; the
    # chunks read the stream in the order one 2-D draw would
    rng = stream_rng(service.seed, _BOOTSTRAP_STREAM)
    resampled = np.empty(BOOTSTRAP_RESAMPLES)
    step = max(1, _BOOTSTRAP_ELEMS // blocks)
    for i in range(0, BOOTSTRAP_RESAMPLES, step):
        part = resampled[i:i + step]
        idx = rng.integers(0, blocks, size=(part.size, blocks))
        part[:] = _log_mean_exp(x[idx], axis=1)
    resampled *= scale
    stderr = float(np.std(resampled, ddof=1))
    return EcEstimate(value=float(value), stderr=stderr,
                      slots=n, blocks=blocks)


def simulate_service(
    cfg: LinkConfig,
    scenario: str,
    rate: float | None,
    seed: int,
    slots: int,
) -> SampleBatch:
    """Draw per-slot service bits from the physical channel samplers.

    One seeded SNR draw from the scenario's sampler, mapped to service
    bits by service_from_snr.
    """
    entry = get_scenario(scenario)
    entry.check_rate(rate)
    if slots < 1:
        raise ValueError("slots must be >= 1")
    return service_from_snr(entry.sample(cfg, seed, slots), cfg, scenario, rate)


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
        service = cfg.slot * cfg.bandwidth * np.log1p(snr.values) / LN2
    else:
        threshold = snr_threshold(rate, cfg.bandwidth)
        service = np.where(snr.values >= threshold, rate * cfg.slot, 0.0)
    return SampleBatch(values=service, seed=snr.seed, kind="service_bits")
