"""Monte Carlo ground truth for the analytical results.

Everything here deliberately avoids the closed forms: service samples
are mapped straight from the physical channel draws, and the EC
estimator realizes the defining log-MGF limit one slot at a time, as
the slots are iid. An adaptive-rate link's per-slot service comes
from service_from_snr. A fixed-rate link serves either rate*slot bits
or none, so its estimate needs only the count of slots that support
the rate (on_off_estimate), and no per-slot array.

The seeded fading draws of both links and their budget steps live here
too, as does the package's one numpy import: the closed forms run on
math alone, and only a caller that samples loads this module.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
import zlib
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from irsec.channel import LinkConfig, _miso_mean_snr, pathloss
from irsec.eccore import LN2, alpha_value, snr_threshold

__all__ = [
    "EcEstimate",
    "SampleBatch",
    "empirical_ec",
    "link_snr",
    "miso_fading",
    "miso_snr_from_fading",
    "on_off_estimate",
    "oracle_ec",
    "service_from_snr",
    "siso_fading",
    "siso_snr_from_fading",
    "stream_rng",
]

# Exponents below this are where exp() dies in double precision.
_UNDERFLOW_LOG = math.log(1e-300)

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


@dataclass(frozen=True)
class EcEstimate:
    """Monte Carlo EC with its delta-method standard error."""

    value: float
    stderr: float
    slots: int

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


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


def _siso_rows(runs, counts: tuple[int, ...], rows: int) -> None:
    """Fill each (first-hop rng, second-hop rng, out slices) run, in row
    blocks of `rows` and two block buffers of its own: a row draws
    counts[-1] element products, and the out slice of each count takes
    the per-slot sums s of the row's first `count` of them.

    Runs on the caller's thread and on worker threads: it calls nothing
    in __all__, whose names a tracer may wrap, and only numpy fills and
    ufuncs that drop the GIL.
    """
    n_el = counts[-1]
    buf_a = np.empty(rows * n_el)
    buf_b = np.empty(rows * n_el)
    for rng_a, rng_b, outs in runs:
        for start in range(0, outs[0].size, rows):
            r = min(rows, outs[0].size - start)
            a, b = buf_a[:r * n_el], buf_b[:r * n_el]
            _rayleigh_inplace(rng_a, a)
            _rayleigh_inplace(rng_b, b)
            a *= b
            products = a.reshape(r, n_el)
            for count, out in zip(counts, outs):
                np.sum(products[:, :count], axis=1, out=out[start:start + r])


def _siso_fill(counts: tuple[int, ...], seed: int, n: int) -> list[np.ndarray]:
    """n single-antenna rows per element count, filled by _siso_rows from
    one draw of N = counts[-1] elements a row; counts increase.

    The stream holds, chunk after chunk, all first-hop draws of a chunk's
    rows and then all its second-hop draws. Each chunk is cut into one
    contiguous run of row blocks per worker; a run starting at row s0 of
    an m-row chunk at slot pos reads its first-hop draws from stream
    offset 2 pos N + s0 N and its second-hop draws from 2 pos N + (m + s0) N,
    so the runs fill at the same time and give the same bits.
    """
    n_el = counts[-1]
    bitgen = stream_rng(seed, _SISO_STREAM).bit_generator
    # one array per count, so that each batch frees its own memory
    outs = [np.empty(n, dtype=float) for _ in counts]
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
                [out[pos + s0:pos + s1] for out in outs]))
    # the caller fills the first run and a thread each of the others,
    # joined before any error (the first, in run order) is raised again
    errors = [None] * workers

    def fill(k):
        try:
            _siso_rows(runs[k], counts, rows)
        except BaseException as exc:
            errors[k] = exc

    threads = [threading.Thread(target=fill, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        _siso_rows(runs[0], counts, rows)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return outs


def _count(value, name: str) -> int:
    """value as a positive int: an integral float is its integer, and a
    bool or a fractional, NaN or infinite value is refused by name."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a positive integer, not a bool")
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a positive integer, got {value!r}") from None
    if count != value or count < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


def siso_fading(n_elems, seed: int, n: int) -> SampleBatch | dict[int, SampleBatch]:
    """Per-slot coherent sums s = sum_i a_i b_i of the single-antenna link.

    Each slot sums N independent Rayleigh-amplitude products. The draw
    depends only on (n_elems, seed, n), so links that differ in anything
    else share it. Bit-reproducible per seed, at any number of worker
    threads.

    n_elems may also be a collection of element counts, such as those of
    an N sweep: then the channel is drawn once, at the largest count N,
    and the result maps each count, in increasing order, to its batch of
    the per-slot sums of the first `count` element products of that
    draw (common random numbers across surface size). The largest
    count's batch is siso_fading(N, seed, n), bit for bit.
    """
    n = _count(n, "n")
    many = isinstance(n_elems, Iterable)
    counts = tuple(sorted({_count(c, "n_elems") for c in (n_elems if many else (n_elems,))}))
    if not counts:
        raise ValueError("n_elems must hold at least one element count")
    batches = {count: SampleBatch(values=values, seed=seed, kind="fading")
               for count, values in zip(counts, _siso_fill(counts, seed, n))}
    return batches if many else batches[counts[0]]


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
    out = stream_rng(seed, _MISO_STREAM).random(_count(n, "n"))
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


# The sampler pair of each link, single-antenna (False) or beamformed
# (True): its n seeded per-slot fading draws for each of a tuple of
# element counts, and the budget step that maps a draw to a config's
# SNR. Each calls its sampler by module name at call time, so a caller
# that replaces one (a tracer, a counting test) sees every draw.
_SAMPLERS = {
    False: (lambda counts, seed, n: siso_fading(counts, seed, n),
            lambda fading, cfg: siso_snr_from_fading(fading, cfg)),
    # the beamformed draw does not depend on the element count
    True: (lambda counts, seed, n: dict.fromkeys(counts, miso_fading(seed, n)),
           lambda fading, cfg: miso_snr_from_fading(fading, cfg)),
}

# The last draw link_snr made, as ((beamformed, N, seed, slots),
# {element count: fading batch}, link config, SNR batch), N the largest
# count drawn. A count's batch depends only on that key and the SNR
# batch on the config too, and all are read-only, so consecutive calls
# share them; outside an N sweep one of each outlives a sweep.
_last_draw: tuple | None = None


def link_snr(beamformed: bool, cfg: LinkConfig, seed: int, n: int,
             sweep_counts: tuple[int, ...] = ()) -> SampleBatch:
    """n seeded per-slot SNRs of cfg's single-antenna or beamformed link.

    The fading draw depends on cfg only through n_elems, so links that
    differ in power, geometry, gains, noise or antennas share it, each
    under its own budget. The last draw and the last config's SNR are
    kept: the next call at the same link kind, element count, seed and
    slot count reuses the draw, and one at the same config its SNR too,
    so the CSI and no-CSI branches of one link draw once between them.

    sweep_counts, when given, are the element counts of the N sweep that
    cfg's row belongs to, cfg.n_elems among them. The first row to call
    draws the fading once for them all, at the largest count (see
    siso_fading), and the slot holds every count's batch while the sweep
    runs. A sweep's rows come in increasing N, so each call drops the
    batches of smaller counts, and after the sweep the slot holds only
    the largest count's batch. Every batch is the one a fresh draw at
    seed (and for a sweep, at its counts) gives, bit for bit.
    """
    global _last_draw
    fading_of, snr_of = _SAMPLERS[beamformed]
    counts = tuple(sweep_counts) or (cfg.n_elems,)
    if cfg.n_elems not in counts:
        raise ValueError(f"sweep_counts {counts!r} must hold cfg.n_elems = {cfg.n_elems}")
    key = (beamformed, max(counts), seed, n)
    if _last_draw is None or _last_draw[0] != key or cfg.n_elems not in _last_draw[1]:
        _last_draw = None  # free the old batches before drawing the next
        _last_draw = (key, fading_of(counts, seed, n), None, None)
    if _last_draw[2] != cfg:
        # free the old SNR batch, and the batches of counts already served
        fadings = {k: v for k, v in _last_draw[1].items() if k >= cfg.n_elems}
        _last_draw = (key, fadings, None, None)
        _last_draw = (key, fadings, cfg, snr_of(fadings[cfg.n_elems], cfg))
    return _last_draw[3]


def oracle_ec(beamformed: bool, cfg: LinkConfig, seed: int, n: int, alpha: float,
              rate: float | None = None,
              sweep_counts: tuple[int, ...] = ()) -> EcEstimate:
    """The oracle's EC of cfg's link over the n slots link_snr draws at
    seed (within the N sweep of sweep_counts, if given): empirical_ec of
    the per-slot service where the rate adapts (rate None),
    on_off_estimate at a fixed rate."""
    snr = link_snr(beamformed, cfg, seed, n, sweep_counts)
    if rate is None:
        return empirical_ec(service_from_snr(snr, cfg), alpha)
    return on_off_estimate(snr, cfg, rate, alpha)


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
