"""Reference implementations that the tests compare the library against.

`siso_reference` is the single-antenna sampler as it drew with fresh
chunk-sized temporaries; the library's blocked version must reproduce
it bit for bit. `miso_reference` draws the beamformed SNR the long way,
as the squared magnitude of a sum of N complex Gaussians, so the
library's one-draw-per-slot reduction stays checked against it.

`bootstrap_stderr_reference` is the spread of the one-slot log-MGF
estimate under a 200-resample nonparametric bootstrap over slots, drawn
as one resamples x slots index array. It is the oracle of
`empirical_ec`'s one-pass delta-method stderr, which must track it
within resampling noise, not bit for bit.

`cdf_array` evaluates an SNR law's CDF elementwise with numpy, a second
route beside the library's scalar `math` one; `ks_distance` builds the
sup-CDF distance of a batch on it. `ec_on_off_spectral` computes the
on/off EC from the spectral radius of the weighted 2x2 chain, an
independent route to the library's scalar on/off formula
`eccore._on_off_kernel`. `write_link_config` writes the
config-file format that `load_link_config` reads.

`sample_siso_snr`, `sample_miso_snr`, `simulate_snr` and
`simulate_service` compose the library's steps into the draw a sweep
row makes: the seeded fading, the link budget and, for service,
`service_from_snr` on an adaptive-rate link or `on_off_service` on a
fixed-rate one. They are what a one-row sweep at that seed samples,
bit for bit. `on_off_service` materializes the per-slot on/off service
that the library's `on_off_estimate` only counts, and `block_ec` is the
log-MGF estimator over blocks of several slots, which the library's
one-slot `empirical_ec` reproduces bit for bit at one slot per block.

`grid_argmax_reference` is the brute-force rate search as it stood
before Brent's refinement: a uniform grid plus one parabolic step.
It is the oracle of the analytic optimizers and of the library's own
grid search, which must reach its peak. `grid_argmax_exhaustive` is
the library's grid search with the on/off formula applied at every
grid point and no kept grid: the library skips the points whose mean
service cannot reach the best EC so far, and must return the same
RateSolution, bit for bit, or raise the same error.

`ln_mgf_reference` is ln E[(1 + SNR)^-u] of the single-antenna law to
30 digits: mpmath's tanh-sinh quadrature in z itself, not in the
library's asinh variable, split around every peak that a dense scan of
the integrand's slope finds. It is the oracle of
`ScaledNoncentralChiSq.ln_mgf`'s trapezoid rule.
"""

import dataclasses
import math

import mpmath
import numpy as np
from scipy.special import erfc

from irsec.channel import Exponential, LinkConfig, ScaledNoncentralChiSq, pathloss
from irsec.eccore import (
    _checked_on_off,
    _fixed_rate,
    _on_off_kernel,
    alpha_value,
    get_scenario,
    snr_threshold,
)
from irsec.mcoracle import (
    EcEstimate,
    SampleBatch,
    miso_fading,
    miso_snr_from_fading,
    service_from_snr,
    siso_fading,
    siso_snr_from_fading,
    stream_rng,
)
from irsec.numerics import minimize_bounded
from irsec.rateopt import _GRID_XATOL, RateSolution, _rate_grid

_SQRT_2 = math.sqrt(2.0)

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


def sample_siso_snr(cfg: LinkConfig, seed: int, n: int) -> SampleBatch:
    """Per-slot single-antenna SNR: the fading draw under cfg's budget."""
    return siso_snr_from_fading(siso_fading(cfg.n_elems, seed, n), cfg)


def sample_miso_snr(cfg: LinkConfig, seed: int, n: int) -> SampleBatch:
    """Per-slot beamformed SNR: the fading draw under cfg's budget."""
    return miso_snr_from_fading(miso_fading(seed, n), cfg)


def simulate_snr(cfg: LinkConfig, scenario: str, seed: int, slots: int) -> SampleBatch:
    """Per-slot SNR of the scenario's seeded channel draw, drawn afresh."""
    sample = sample_miso_snr if get_scenario(scenario).beamformed else sample_siso_snr
    return sample(cfg, seed, slots)


def on_off_service(snr: SampleBatch, cfg: LinkConfig, rate: float) -> SampleBatch:
    """Per-slot fixed-rate service: rate*slot bits in the slots whose SNR
    supports the rate, none in the others."""
    service = np.where(snr.values >= snr_threshold(rate, cfg.bandwidth),
                       rate * cfg.slot, 0.0)
    return SampleBatch(values=service, seed=snr.seed, kind="service_bits")


def simulate_service(cfg: LinkConfig, scenario: str, rate: float | None,
                     seed: int, slots: int) -> SampleBatch:
    """Per-slot service bits of the scenario's seeded channel draw."""
    entry = get_scenario(scenario)
    entry.check_rate(rate)
    snr = simulate_snr(cfg, scenario, seed, slots)
    if entry.adaptive:
        return service_from_snr(snr, cfg)
    return on_off_service(snr, cfg, rate)


def block_ec(service: SampleBatch, alpha: float, block_length: int) -> EcEstimate:
    """EC over blocks of block_length slots: -(1/(alpha L)) ln mean
    exp(-alpha S) over the blocks' summed service S, by log-sum-exp, with
    the delta-method stderr std(w) / (sqrt(blocks) mean(w) alpha L) of
    the shifted weights w. The slot count must be a multiple of L."""
    a = alpha_value(alpha)
    n = service.values.size
    if block_length < 1 or n % block_length != 0:
        raise ValueError(f"{n} slots do not split into blocks of {block_length}")
    blocks = n // block_length
    w = service.values.reshape(blocks, block_length).sum(axis=1)
    w *= -a
    peak = float(np.max(w))
    w -= peak
    np.exp(w, out=w)
    mean = float(np.sum(w)) / blocks
    scale = a * block_length
    value = -(peak + math.log(mean)) / scale + 0.0
    stderr = 0.0
    if blocks > 1:
        w -= mean
        var = float(np.dot(w, w)) / (blocks - 1)
        stderr = math.sqrt(var / blocks) / (mean * scale)
    return EcEstimate(value=value, stderr=stderr, slots=n)


def bootstrap_stderr_reference(service: SampleBatch, alpha: float,
                               resamples: int = 200) -> float:
    n = service.values.size
    x = -alpha * service.values
    rng = stream_rng(service.seed, "mcoracle.bootstrap")
    idx = rng.integers(0, n, size=(resamples, n))
    xs = x[idx]
    m = np.max(xs, axis=1, keepdims=True)
    lme = m + np.log(np.mean(np.exp(xs - m), axis=1, keepdims=True))
    resampled = -1.0 / alpha * np.squeeze(lme, axis=1)
    return float(np.std(resampled, ddof=1))


def cdf_array(law, x: np.ndarray) -> np.ndarray:
    """P(SNR <= x) elementwise for an ndarray x, by numpy."""
    if isinstance(law, ScaledNoncentralChiSq):
        a = math.sqrt(law.lam)
        b = np.sqrt(x / law.beta)
        tail = 0.5 * (erfc((b - a) / _SQRT_2) + erfc((b + a) / _SQRT_2))
        return 1.0 - np.clip(tail, 0.0, 1.0)
    if isinstance(law, Exponential):
        return -np.expm1(-law.kappa * x)
    raise TypeError(f"no array CDF for {type(law).__name__}")


def ks_distance(samples: SampleBatch, law) -> float:
    """Sup distance between the empirical CDF and the analytical law."""
    if samples.kind != "snr":
        raise ValueError("ks_distance needs an snr batch")
    v = np.sort(samples.values)
    n = v.size
    f = cdf_array(law, v)
    i = np.arange(1, n + 1, dtype=float)
    upper = np.max(i / n - f)
    lower = np.max(f - (i - 1.0) / n)
    return float(max(upper, lower))


def ec_on_off_spectral(p_on: float, p_off: float, alpha: float, rate: float,
                       slot: float) -> float:
    """On/off EC via the spectral radius of the weighted 2x2 chain:
    rows are the iid state distribution, columns weighted by per-state
    service decay. Takes _on_off_kernel's arguments in its order."""
    on = p_on * math.exp(-alpha * rate * slot)
    m = np.array([[p_off, on],
                  [p_off, on]])
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    return -math.log(radius) / alpha


def grid_argmax_reference(
    cfg: LinkConfig,
    alpha: float,
    scenario: str,
    r_max: float,
    points: int = 1000,
    kappa_mode: str = "exact",
) -> RateSolution:
    """Brute-force EC maximizer on a uniform rate grid.

    Independent oracle for the analytic optimizers: evaluates the exact
    no-CSI EC under the scenario's law (kappa_mode for the beamformed
    link) at `points` rates in (0, r_max] and parabolically refines the
    best interior point.
    """
    if points < 3:
        raise ValueError("points must be >= 3")
    if not r_max > 0.0:
        raise ValueError("r_max must be positive")
    a = alpha_value(alpha)
    entry = get_scenario(scenario)
    if entry.adaptive:
        raise ValueError(f"grid search applies to no-CSI scenarios, not {scenario!r}")
    dist = entry.law(cfg, kappa_mode)
    rates = np.linspace(r_max / points, r_max, points)
    values = np.array([_fixed_rate(dist, a, r, cfg.bandwidth, cfg.slot)[3]
                       for r in rates])
    k = int(np.argmax(values))
    r_best, ec_best = float(rates[k]), float(values[k])
    if 0 < k < points - 1:
        y0, y1, y2 = (float(values[k - 1]), float(values[k]),
                      float(values[k + 1]))
        curvature = y0 - 2.0 * y1 + y2
        if curvature < 0.0:
            h = float(rates[1] - rates[0])
            offset = 0.5 * h * (y0 - y2) / curvature
            offset = min(max(offset, -h), h)
            r_ref = r_best + offset
            ec_ref = _fixed_rate(dist, a, r_ref, cfg.bandwidth, cfg.slot)[3]
            if ec_ref >= ec_best:
                r_best, ec_best = r_ref, ec_ref
    return RateSolution(r_star=r_best, ec_at_r_star=ec_best,
                        iterations=points, method="grid")


def grid_argmax_exhaustive(cfg: LinkConfig, alpha: float, scenario: str,
                           r_max: float, points: int) -> RateSolution:
    """rateopt.grid_argmax_rate with _on_off_kernel at every grid point:
    the first maximum of all grid values, then the same Brent step."""
    a = alpha_value(alpha)
    dist = get_scenario(scenario).law(cfg)
    b, t = cfg.bandwidth, cfg.slot
    grid = [(r, *_checked_on_off(dist, r, b)) for r in _rate_grid(r_max, points)]
    values = [_on_off_kernel(p_on, p_off, a, r, t)[1] for r, p_on, p_off in grid]
    ec_best = max(values)
    k = values.index(ec_best)
    r_best = grid[k][0]
    lo = grid[k - 1][0] if k > 0 else 0.0
    hi = grid[min(k + 1, points - 1)][0]
    x, fun, nfev = minimize_bounded(
        lambda r: -_fixed_rate(dist, a, r, b, t)[3], lo, hi, _GRID_XATOL * r_max)
    if -fun > ec_best:
        r_best, ec_best = x, -fun
    return RateSolution(r_star=r_best, ec_at_r_star=ec_best,
                        iterations=points + nfev, method="grid")


def write_link_config(cfg: LinkConfig, path) -> None:
    """Write a config file that load_link_config reads back exactly."""
    lines = [f"{f.name} = {getattr(cfg, f.name)!r}"
             for f in dataclasses.fields(cfg) if f.name != "precoder"]
    lines.append("precoder = " + ", ".join(repr(v) for v in cfg.precoder))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ln_mgf_reference(beta: float, lam: float, u: float) -> mpmath.mpf:
    """30-digit ln E[(1 + beta Z^2)^-u], Z ~ N(sqrt(lam), 1).

    It integrates 1 - (1 + x)^-u, and takes log1p of minus it, on the
    library's complement route (u log1p(beta (lam + 1)) < 1/2), and
    (1 + x)^-u otherwise. The log-integrand is scanned on a dense float
    grid, and a break point is set wherever it has moved by more than 8
    since the last one, or z by more than 2, so that each piece of the
    tanh-sinh quadrature is smooth and close to a Gaussian arc. The
    integrand is divided by its scanned maximum: mpmath's quad stops on
    an absolute error, which an integral of 1e-37 meets at once.
    """
    complement = u * math.log1p(beta * (lam + 1.0)) < 0.5
    a = math.sqrt(lam)
    zs = np.unique(np.concatenate([np.linspace(-a - 40.0, a + 40.0, 80001),
                                   np.logspace(-14.0, 3.0, 8001),
                                   -np.logspace(-14.0, 3.0, 8001)]))
    with np.errstate(divide="ignore"):
        w = -u * np.log1p(beta * zs * zs)
        g = (np.log(-np.expm1(w)) if complement else w) - 0.5 * (zs - a) ** 2
    top = float(np.max(g))
    live = np.nonzero(g > top - 90.0)[0]
    points = [float(zs[live[0] - 1])]
    last = g[live[0] - 1]
    for i in range(live[0], live[-1] + 2):
        if abs(g[i] - last) > 8.0 or zs[i] - points[-1] > 2.0:
            points.append(float(zs[i]))
            last = g[i]
    with mpmath.workdps(30):
        b, ma, mu = mpmath.mpf(beta), mpmath.sqrt(mpmath.mpf(lam)), mpmath.mpf(u)
        norm = 1 / mpmath.sqrt(2 * mpmath.pi)

        def f(z):
            w = -mu * mpmath.log1p(b * z * z)
            w = -mpmath.expm1(w) if complement else mpmath.exp(w)
            return w * mpmath.exp(-(z - ma) ** 2 / 2 - top)

        value = mpmath.quad(f, [mpmath.ninf] + points + [mpmath.inf])
        ln_value = mpmath.log(value * norm) + top
        return +(mpmath.log1p(-mpmath.exp(ln_value)) if complement else ln_value)
