"""Element-by-element reference samplers, kept for the tests only.

`siso_reference` is the single-antenna sampler as it drew with fresh
chunk-sized temporaries; the library's blocked version must reproduce
it bit for bit. `miso_reference` draws the beamformed SNR the long way,
as the squared magnitude of a sum of N complex Gaussians, so the
library's one-draw-per-slot reduction stays checked against it.
"""

import math

import numpy as np

from irsec.channel import LinkConfig, pathloss, stream_rng

CHUNK_ELEMS = 4_000_000


def _rayleigh(rng, shape):
    # inverse-CDF transform of uniform draws, amplitude scale 1
    u = rng.random(shape)
    return np.sqrt(-2.0 * np.log1p(-u))


def _standard_complex(rng, shape):
    # Box-Muller; E|z|^2 = 2 (each component standard normal)
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = (2.0 * math.pi) * u2
    return r * np.cos(ang) + 1j * (r * np.sin(ang))


def siso_reference(cfg: LinkConfig, seed: int, n: int,
                   chunk_elems: int = CHUNK_ELEMS) -> np.ndarray:
    rng = stream_rng(seed, "channel.sample_siso_snr")
    scale = cfg.p_t * pathloss(cfg) / cfg.sigma2
    out = np.empty(n, dtype=float)
    chunk = max(1, chunk_elems // cfg.n_elems)
    pos = 0
    while pos < n:
        m = min(chunk, n - pos)
        a = _rayleigh(rng, (m, cfg.n_elems))
        b = _rayleigh(rng, (m, cfg.n_elems))
        s = np.sum(a * b, axis=1)
        out[pos:pos + m] = scale * s * s
        pos += m
    return out


def miso_reference(cfg: LinkConfig, seed: int, n: int) -> np.ndarray:
    rng = stream_rng(seed, "channel.sample_miso_snr")
    amp = math.sqrt(cfg.precoder_power)
    scale = cfg.p_t * pathloss(cfg) / cfg.sigma2
    out = np.empty(n, dtype=float)
    chunk = max(1, CHUNK_ELEMS // cfg.n_elems)
    pos = 0
    while pos < n:
        m = min(chunk, n - pos)
        z = _standard_complex(rng, (m, cfg.n_elems)).sum(axis=1)
        mag2 = (amp * z.real) ** 2 + (amp * z.imag) ** 2
        out[pos:pos + m] = scale * mag2
        pos += m
    return out
