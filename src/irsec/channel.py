"""Physical layer: geometry pathloss, the analytical SNR laws, and the
seeded Monte Carlo draws of the underlying fading model with their
link-budget steps.

Amplitude convention: every scalar fading coefficient has E|h|^2 = 2
(Rayleigh amplitude scale 1 per hop, complex Gaussian variance 2 on the
first MISO hop). The closed-form law constants below are exact for this
convention, which is what the fading draws implement.
"""

from __future__ import annotations

import cmath
import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from irsec import specfun

__all__ = [
    "LinkConfig",
    "ScaledNoncentralChiSq",
    "Exponential",
    "SnrDistribution",
    "SampleBatch",
    "pathloss",
    "siso_snr_dist",
    "miso_snr_dist",
    "siso_fading",
    "miso_fading",
    "siso_snr_from_fading",
    "miso_snr_from_fading",
    "stream_rng",
    "load_link_config",
]

PI2 = math.pi * math.pi

# Frozen seed labels of the two fading streams, not function names:
# changing either string changes every draw.
_SISO_STREAM = "channel.sample_siso_snr"
_MISO_STREAM = "channel.sample_miso_snr"

# Element draws per single-antenna chunk. A chunk fixes only the stream
# layout (all first-hop draws of its rows, then all second-hop draws),
# so changing it changes every sample; memory is set by _BLOCK_ELEMS.
_CHUNK_ELEMS = 4_000_000

# Element draws per row block inside a chunk: two cache-sized buffers
# reused for the whole call instead of fresh chunk-sized temporaries.
# With several workers each gets 1/workers of a block, so the buffers
# of all workers together stay at two blocks.
_BLOCK_ELEMS = 32_768

# Full row blocks of the first chunk per worker thread. Below about ten
# blocks in all, two threads are no faster than one (N=100 on 2 vCPUs:
# 1000-2000 slots 0.6-1.3x the one-thread time, 3000-5000 slots 0.6-0.9x).
_MIN_RUN_BLOCKS = 5

# 64-bit outputs per Philox counter step.
_PHILOX_BLOCK = 4


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Counter-based generator for a named (module, purpose) stream.

    Identical (seed, stream) pairs yield identical draws on any platform;
    distinct stream labels decorrelate even under the same seed.
    """
    entropy = int(seed) % (1 << 64)
    key = zlib.crc32(stream.encode("utf-8"))
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=entropy, spawn_key=(key,)))
    )


_INT_FIELDS = ("n_elems", "n_tx")
_FLOAT_FIELDS = ("d1", "d2", "x_irs", "y_irs", "phi_inc", "g_t", "g_r",
                 "p_t", "sigma2", "bandwidth", "slot")


@dataclass(frozen=True)
class LinkConfig:
    """Full physical parameterization of one downlink.

    Distances in meters, angle in radians, gains linear (not dB), powers
    in watts, bandwidth in Hz, slot in seconds. precoder=None selects the
    equal-power unit-norm vector (1/sqrt(n_tx), ...).
    """

    d1: float = 50.0
    d2: float = 50.0
    x_irs: float = 1.0
    y_irs: float = 1.0
    phi_inc: float = math.pi / 6.0
    g_t: float = 10.0
    g_r: float = 10.0
    p_t: float = 1e-3
    sigma2: float = 1e-6
    n_elems: int = 100
    n_tx: int = 1
    bandwidth: float = 1.0
    slot: float = 1.0
    precoder: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("d1", "d2", "x_irs", "y_irs", "g_t", "g_r", "p_t",
                     "sigma2", "bandwidth", "slot"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 <= self.phi_inc <= math.pi / 2.0:
            raise ValueError("phi_inc must lie in [0, pi/2]")
        for name in ("n_elems", "n_tx"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(value))
        if self.precoder is None:
            object.__setattr__(self, "precoder", (self._equal_power_weight(),) * self.n_tx)
        else:
            object.__setattr__(self, "precoder", tuple(complex(v) for v in self.precoder))
            if not all(map(cmath.isfinite, self.precoder)):
                raise ValueError("precoder must be finite")
        if len(self.precoder) != self.n_tx:
            raise ValueError("precoder length must equal n_tx")
        if not self.precoder_power > 0.0:
            raise ValueError("precoder must have positive power")

    def _equal_power_weight(self) -> complex:
        return complex(1.0 / math.sqrt(self.n_tx), 0.0)

    @property
    def precoder_power(self) -> float:
        """Sum of squared precoder magnitudes.

        The equal-power vector is unit-norm by construction, so it reports
        exactly 1.0 for every n_tx, also when it comes back as an explicit
        tuple (dataclasses.replace, a config-file round trip); summing its
        rounded squares lands an ulp off for some n_tx. Any other vector
        is summed exactly rounded, independent of element order.
        """
        w = self._equal_power_weight()
        if all(v == w for v in self.precoder):
            return 1.0
        return math.fsum(abs(v) ** 2 for v in self.precoder)


# Each SNR law evaluates its CDF by math, one scalar at a time. numpy's
# SIMD log1p/expm1 and scipy's erfc round differently in the last bits
# and by CPU, so an array route would move every fixed-rate EC with it.


@dataclass(frozen=True)
class ScaledNoncentralChiSq:
    """SNR law beta * X with X noncentral chi-square, one degree of freedom."""

    beta: float
    lam: float

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")

    def cdf(self, x: float) -> float:
        """P(SNR <= x) for a scalar x.

        Below the ridge (b < a) the CDF is the difference of two normal
        tails, P(Z > a - b) - P(Z > a + b), which keeps its digits down to
        the smallest doubles; 1 - Q_{1/2}(a, b) would cancel to 0 there.
        """
        x = float(x)
        if x < 0.0:
            raise ValueError("cdf requires x >= 0")
        a, b = math.sqrt(self.lam), math.sqrt(x / self.beta)
        if b < a:
            return specfun.gaussian_tail(a - b) - specfun.gaussian_tail(a + b)
        return 1.0 - specfun.marcum_q_half(a, b)


@dataclass(frozen=True)
class Exponential:
    """SNR law with density kappa * exp(-kappa x)."""

    kappa: float

    def __post_init__(self) -> None:
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")

    def cdf(self, x: float) -> float:
        """P(SNR <= x) for a scalar x."""
        x = float(x)
        if x < 0.0:
            raise ValueError("cdf requires x >= 0")
        return -math.expm1(-self.kappa * x)


SnrDistribution = Union[ScaledNoncentralChiSq, Exponential]


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Monte Carlo draws with their seed provenance.

    kind "fading" holds a per-slot channel draw before the link budget:
    siso_fading's sums are nonnegative, miso_fading's values
    non-positive. "snr" holds the per-slot SNR and "service_bits" the
    per-slot service, both nonnegative.
    """

    values: np.ndarray
    seed: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("fading", "snr", "service_bits"):
            raise ValueError(f"unknown batch kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        if v.size == 0:
            raise ValueError("values must be nonempty")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if self.kind != "fading" and np.any(v < 0.0):
            raise ValueError(f"{self.kind} values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def pathloss(cfg: LinkConfig) -> float:
    """Two-hop power attenuation through the reflecting surface."""
    aperture = cfg.x_irs * cfg.y_irs / (cfg.d1 * cfg.d2)
    return (cfg.g_t * cfg.g_r / (4.0 * math.pi) ** 2
            * aperture ** 2 * math.cos(cfg.phi_inc) ** 2)


def siso_snr_dist(cfg: LinkConfig) -> ScaledNoncentralChiSq:
    """Analytical SNR law of the single-antenna link.

    lam = N pi^2/(16 - pi^2) collects the coherent mean power of the N
    aligned element products; beta carries the link budget.
    """
    if cfg.n_tx != 1:
        raise ValueError("siso_snr_dist requires n_tx == 1")
    n = cfg.n_elems
    lam = n * PI2 / (16.0 - PI2)
    beta = n * cfg.p_t * pathloss(cfg) * (16.0 - PI2) / (4.0 * cfg.sigma2)
    return ScaledNoncentralChiSq(beta=beta, lam=lam)


def _miso_mean_snr(cfg: LinkConfig) -> float:
    """Mean beamformed SNR, 2 N p_t zeta |f|^2 / sigma2.

    The surface sums N iid complex Gaussian aggregates with E|z|^2 = 2,
    which is again complex Gaussian with power 2N, so the SNR is exactly
    exponential with this mean.
    """
    return (2.0 * cfg.n_elems * cfg.p_t * pathloss(cfg) * cfg.precoder_power
            / cfg.sigma2)


def miso_snr_dist(cfg: LinkConfig, mode: str = "exact") -> Exponential:
    """Exponential SNR law of the beamformed link.

    mode="exact" (default) is the sampled law's rate
    sigma^2 / (2 N p_t zeta sum|f_j|^2); mode="closed" evaluates the
    paper's constant sigma^4 / (2 N^2 (p_t zeta sum|f_j|^2)^2), kept
    selectable for side-by-side reporting because the two disagree.
    """
    if mode == "closed":
        s = cfg.p_t * pathloss(cfg) * cfg.precoder_power
        kappa = cfg.sigma2 ** 2 / (2.0 * cfg.n_elems ** 2 * s * s)
        return Exponential(kappa=kappa)
    if mode != "exact":
        raise ValueError(f"unknown kappa mode {mode!r}")
    return Exponential(kappa=1.0 / _miso_mean_snr(cfg))


def _skipped(bitgen: np.random.Philox, k: int) -> np.random.Philox:
    """A copy of bitgen positioned k 64-bit outputs further on."""
    out = np.random.Philox()
    out.state = bitgen.state
    buffered = _PHILOX_BLOCK - out.state["buffer_pos"]
    if k <= buffered:
        out.random_raw(k)
        return out
    out.random_raw(buffered)
    k -= buffered
    out.advance(k // _PHILOX_BLOCK)
    out.random_raw(k % _PHILOX_BLOCK)
    return out


def _rayleigh_inplace(rng: np.random.Generator, buf: np.ndarray) -> None:
    # inverse-CDF transform of uniform draws, amplitude scale 1:
    # sqrt(-2 log1p(-u)), rounded exactly as the out-of-place expression
    rng.random(out=buf)
    np.negative(buf, out=buf)
    np.log1p(buf, out=buf)
    buf *= -2.0
    np.sqrt(buf, out=buf)


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _siso_rows(runs, n_el: int, rows: int) -> None:
    """Fill each (first-hop rng, second-hop rng, out slice) run with the
    per-slot sums s, in row blocks of `rows` and two block buffers of its
    own.

    Runs on a worker thread: it calls nothing in __all__, whose names a
    tracer may wrap, and only numpy fills and ufuncs that drop the GIL.
    """
    buf_a = np.empty(rows * n_el)
    buf_b = np.empty(rows * n_el)
    for rng_a, rng_b, out in runs:
        for start in range(0, out.size, rows):
            o = out[start:start + rows]
            r = o.size
            a, b = buf_a[:r * n_el], buf_b[:r * n_el]
            _rayleigh_inplace(rng_a, a)
            _rayleigh_inplace(rng_b, b)
            a *= b
            np.sum(a.reshape(r, n_el), axis=1, out=o)


def _siso_fill(n_el: int, seed: int, n: int) -> np.ndarray:
    """n single-antenna rows of N elements each, filled by _siso_rows.

    The stream holds, chunk after chunk, all first-hop draws of a chunk's
    rows and then all its second-hop draws. Each chunk is cut into one
    contiguous run of row blocks per worker; a run starting at row s0 of
    an m-row chunk at slot pos reads its first-hop draws from stream
    offset 2 pos N + s0 N and its second-hop draws from 2 pos N + (m + s0) N,
    so the runs fill at the same time and give the same bits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bitgen = stream_rng(seed, _SISO_STREAM).bit_generator
    out = np.empty(n, dtype=float)
    chunk = max(1, _CHUNK_ELEMS // n_el)
    rows = min(n, chunk, max(1, _BLOCK_ELEMS // n_el))
    # one worker per _MIN_RUN_BLOCKS full blocks of the first (largest)
    # chunk, so every worker has a run; the workers share the rows of
    # one block, so their buffers together hold two blocks at most
    workers = max(1, min(_workers(), rows, min(n, chunk) // (rows * _MIN_RUN_BLOCKS)))
    rows //= workers
    # runs[k] holds worker k's run of every chunk, in stream order
    runs = [[] for _ in range(workers)]
    for pos in range(0, n, chunk):
        m = min(chunk, n - pos)
        blocks = -(-m // rows)
        w = min(workers, blocks)
        for k in range(w):
            s0 = k * blocks // w * rows
            s1 = min(m, (k + 1) * blocks // w * rows)
            runs[k].append((
                np.random.Generator(_skipped(bitgen, (2 * pos + s0) * n_el)),
                np.random.Generator(_skipped(bitgen, (2 * pos + m + s0) * n_el)),
                out[pos + s0:pos + s1]))
    if workers == 1:
        _siso_rows(runs[0], n_el, rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fills = [pool.submit(_siso_rows, r, n_el, rows) for r in runs]
        for fill in fills:
            fill.result()  # re-raises a worker's error
    return out


def siso_fading(n_elems: int, seed: int, n: int) -> SampleBatch:
    """Per-slot coherent sums s = sum_i a_i b_i of the single-antenna link.

    Each slot sums N independent Rayleigh-amplitude products. The draw
    depends only on (n_elems, seed, n), so links that differ in anything
    else share it. Bit-reproducible per seed, at any number of worker
    threads.
    """
    if int(n_elems) != n_elems or n_elems < 1:
        raise ValueError("n_elems must be a positive integer")
    return SampleBatch(values=_siso_fill(int(n_elems), seed, n),
                       seed=seed, kind="fading")


def siso_snr_from_fading(fading: SampleBatch, cfg: LinkConfig) -> SampleBatch:
    """SNR scale * s * s of a siso_fading batch under cfg's link budget,
    in a new array: the fading batch may be shared."""
    if cfg.n_tx != 1:
        raise ValueError("the single-antenna link requires n_tx == 1")
    if fading.kind != "fading":
        raise ValueError("siso_snr_from_fading needs a fading batch")
    snr = np.multiply(cfg.p_t * pathloss(cfg) / cfg.sigma2, fading.values)
    snr *= fading.values
    return SampleBatch(values=snr, seed=fading.seed, kind="snr")


def miso_fading(seed: int, n: int) -> SampleBatch:
    """Per-slot log1p(-u), u uniform, of the beamformed link: minus a
    unit-mean exponential gain, so every value is non-positive.

    The surface inverts the second hop, so the received amplitude is a
    complex Gaussian sum of precoded first-hop aggregates, and its
    squared magnitude is drawn directly by inverse CDF on one uniform.
    The draw does not depend on the link."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = stream_rng(seed, _MISO_STREAM).random(n)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    return SampleBatch(values=out, seed=seed, kind="fading")


def miso_snr_from_fading(fading: SampleBatch, cfg: LinkConfig) -> SampleBatch:
    """SNR -mean * log1p(-u) of a miso_fading batch under cfg's link
    budget, in a new array: the fading batch may be shared."""
    if fading.kind != "fading":
        raise ValueError("miso_snr_from_fading needs a fading batch")
    snr = np.multiply(fading.values, -_miso_mean_snr(cfg))
    return SampleBatch(values=snr, seed=fading.seed, kind="snr")


def load_link_config(path) -> LinkConfig:
    """Read a flat `name = value` config file.

    Unknown names are an error; `g_t_db`/`g_r_db` accept gains in dB;
    `precoder` is a comma-separated list of complex literals; `#` starts
    a comment. Every error names the file, and the line when there is
    one: a value LinkConfig refuses names the line that set its field.
    """
    kwargs = {}
    lines = {}  # the line that set each kwargs field
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'name = value'")
            name = name.strip()
            value = value.strip()
            try:
                if name in _FLOAT_FIELDS:
                    kwargs[name] = float(value)
                elif name in _INT_FIELDS:
                    kwargs[name] = int(value)
                elif name in ("g_t_db", "g_r_db"):
                    kwargs[name[:-3]] = 10.0 ** (float(value) / 10.0)
                elif name == "precoder":
                    kwargs[name] = tuple(complex(tok.strip()) for tok in value.split(","))
                else:
                    raise ValueError(f"unknown field {name!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            except OverflowError:
                raise OverflowError(f"{path}:{lineno}: {name} = {value}: "
                                    "the linear gain overflows a float") from None
            lines[name.removesuffix("_db")] = lineno
    try:
        return LinkConfig(**kwargs)
    except ValueError as exc:
        # LinkConfig's messages open with the field they refuse
        field = str(exc).split(" ", 1)[0]
        where = f"{path}:{lines[field]}" if field in lines else str(path)
        raise ValueError(f"{where}: {exc}") from None
