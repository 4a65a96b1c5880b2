"""Optimal fixed-rate search for the no-CSI scenarios.

Maximizing EC(r) is the same as minimizing the one-slot service MGF
rho(r) = p_off(r) + p_on(r) exp(-alpha r slot). The beamformed link
admits a transcendental stationarity equation with a unique root (both
sides monotone), which solve_rate_miso_exact solves; the paper's
gradient descent and closed-form rate live in irsec.paper and return
this module's RateSolution. One grid search serves both links: it brackets the peak of EC on
a uniform grid and refines it with Brent's bounded minimizer,
numerics.minimize_bounded, a float-only port of scipy's
minimize_scalar(method="bounded") that returns the same x, fun and
evaluation count, bit for bit. The search runs on Python floats: its
grid is np.linspace's arithmetic. The grid rates and their on/off
probabilities depend on the link but not on the exponent, so
_grid_on_off keeps them for the last few links searched, and each grid
point applies only eccore's on/off formula (_on_off_kernel) to them,
and only where its mean service p_on r slot could reach the best EC so
far. Each of Brent's evaluations is eccore's one fixed-rate EC
(_fixed_rate) with no result object, the function the no-CSI branches
report from. A grid search's iterations count its grid points plus
Brent's evaluations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from irsec.channel import _GRID_MEMO_LINKS, LinkConfig, SnrDistribution, miso_snr_dist
from irsec.eccore import (
    LN2,
    _checked_on_off,
    _fixed_rate,
    _on_off_kernel,
    _product,
    alpha_value,
    ec_miso_nocsi,
    get_scenario,
)
from irsec.numerics import minimize_bounded

__all__ = [
    "RateSolution",
    "solve_rate_miso_exact",
    "grid_argmax_rate",
]

_METHODS = ("gradient_descent", "closed_form", "root_find", "grid")

# Brent's rate tolerance as a fraction of the grid's span: optimal rates
# run from ~1e-9 to ~40 bits per slot, so an absolute tolerance would be
# too coarse at one end or wasted at the other.
_GRID_XATOL = 1e-9


@dataclass(frozen=True)
class RateSolution:
    """A located optimal rate and the EC it achieves."""

    r_star: float
    ec_at_r_star: float
    iterations: int
    method: str
    closed_form_valid: bool = True

    def __post_init__(self) -> None:
        if self.r_star < 0.0:
            raise ValueError("r_star must be nonnegative")
        if self.ec_at_r_star < 0.0:
            raise ValueError("ec_at_r_star must be nonnegative")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def _phi(x: float) -> tuple[float, float]:
    """(phi(x), x phi'(x)) for phi(x) = ln(expm1(x) / x), x > 0: about
    x/2 for small x and x - ln x for large x."""
    if x < 1e-4:
        return x / 2.0 + x * x / 24.0, x / 2.0 + x * x / 12.0
    if x < 40.0:
        return math.log(math.expm1(x) / x), x / -math.expm1(-x) - 1.0
    return x - math.log(x), x - 1.0


def solve_rate_miso_exact(
    cfg: LinkConfig,
    alpha: float,
    kappa_mode: str = "exact",
) -> RateSolution:
    """Newton's method in s = ln r on the beamformed stationarity equation.

    (r/B) ln2 + ln(e^(alpha r T) - 1) = ln(B alpha T/(kappa ln2)) less
    ln(alpha T r) is F(s) = A e^s + s + phi(D e^s) - K = 0, A = ln2/B,
    D = alpha T, K = ln(B/(kappa ln2)), phi of _phi. F' = A e^s + 1 +
    x phi'(x) >= 1 (x = D e^s) grows with s, so F is convex and Newton
    from any F(s) >= 0 falls monotonically onto the root. With s_lo =
    min(K, -ln(A + D)) - 1, where F < 0, and L = K - s_lo, F >= 0 at K,
    ln(L/A) and ln((L + ln L + 2)/D); from the least of them A e^s <= L
    and D e^s <= L + ln L + 2, so nothing overflows. A root past the
    largest double is a ValueError naming bandwidth, alpha, slot and
    kappa; one below the least subnormal is rate 0, with EC 0.
    """
    a = alpha_value(alpha)
    kappa = miso_snr_dist(cfg, mode=kappa_mode).kappa
    b, t = cfg.bandwidth, cfg.slot
    ln_a, ln_d = math.log(LN2) - math.log(b), math.log(a) + math.log(t)
    k = -ln_a - math.log(kappa)
    # ln(A + D) as a log-sum, since alpha T alone can overflow
    s_lo = min(k, -max(ln_a, ln_d) - math.log1p(math.exp(-abs(ln_a - ln_d)))) - 1.0
    span = k - s_lo
    s = min(k, math.log(span) - ln_a, math.log(span + math.log(span) + 2.0) - ln_d)
    steps, step = 0, math.inf
    while step > 1e-8:  # F'' <= F', so the error after a step h is at most 2 h^2
        phi, dphi = _phi(math.exp(ln_d + s))
        grow = math.exp(ln_a + s)
        step = (s - k + grow + phi) / (grow + 1.0 + dphi)
        s, steps = s - step, steps + 1
    try:
        r = math.exp(s)
    except OverflowError:
        raise ValueError(
            f"the rate root e^{s!r} overflows a double at bandwidth = {b!r}, "
            f"alpha = {a!r}, slot = {t!r}, kappa = {kappa!r}") from None
    ec = ec_miso_nocsi(cfg, alpha, r, kappa_mode=kappa_mode).ec_bits_per_slot
    return RateSolution(r_star=r, ec_at_r_star=ec, iterations=steps, method="root_find")


def _rate_grid(r_max: float, points: int) -> list[float]:
    """np.linspace(r_max / points, r_max, points) on floats, bit for bit:
    the same start + i * step, with the last point set to r_max."""
    start = r_max / points
    step = (r_max - start) / (points - 1)
    return [start + i * step for i in range(points - 1)] + [r_max]


@functools.lru_cache(maxsize=_GRID_MEMO_LINKS)
def _grid_on_off(dist: SnrDistribution, bandwidth: float, r_max: float,
                 points: int) -> tuple[tuple[float, float, float], ...]:
    """(rate, p_on, p_off) at each rate of _rate_grid(r_max, points),
    by eccore's first fixed-rate step. None of it depends on the
    exponent, so the last _GRID_MEMO_LINKS grids are kept, keyed by
    their arguments; a call that raises keeps nothing."""
    return tuple((r, *_checked_on_off(dist, r, bandwidth))
                 for r in _rate_grid(r_max, points))


def grid_argmax_rate(
    cfg: LinkConfig,
    alpha: float,
    scenario: str,
    r_max: float,
    points: int,
) -> RateSolution:
    """EC maximizer by a uniform rate grid and Brent refinement.

    Evaluates the exact no-CSI EC under the scenario's law (the exact
    kappa for the beamformed link) at `points` rates in (0, r_max], then runs
    Brent's bounded minimizer on -EC over the two grid cells around the
    first best point ([0, r_1] or [r_{n-2}, r_max] at an edge). Returns
    the better of the refined and the best grid point; iterations counts
    the grid points plus Brent's evaluations. The grid's on/off
    probabilities come from _grid_on_off, computed once per link and
    kept across exponents, so on_off_probs runs at the grid points only
    on a link's first search; Brent's evaluations run the whole
    fixed-rate EC each time. EC never exceeds the mean service
    p_on r slot but by rounding, so a grid point whose mean service,
    raised by 1e-12 of itself, is below the best EC so far cannot be the
    first maximum, and _on_off_kernel is skipped there.
    """
    if points < 3:
        raise ValueError("points must be >= 3")
    if not r_max > 0.0:
        raise ValueError("r_max must be positive")
    a = alpha_value(alpha)
    entry = get_scenario(scenario)
    if entry.adaptive:
        raise ValueError(f"grid search applies to no-CSI scenarios, not {scenario!r}")
    dist = entry.law(cfg)
    b, t = cfg.bandwidth, cfg.slot
    grid = _grid_on_off(dist, b, r_max, points)
    ec_best, k = -math.inf, 0
    for j, (r, p_on, p_off) in enumerate(grid):
        if _product(p_on, r, t) * (1.0 + 1e-12) < ec_best:
            continue
        ec = _on_off_kernel(p_on, p_off, a, r, t)[1]
        if ec > ec_best:  # the first maximum, as np.argmax
            ec_best, k = ec, j
    r_best = grid[k][0]
    lo = grid[k - 1][0] if k > 0 else 0.0
    hi = grid[min(k + 1, points - 1)][0]
    x, fun, nfev = minimize_bounded(
        lambda r: -_fixed_rate(dist, a, r, b, t)[3],
        lo, hi, _GRID_XATOL * r_max)
    if -fun > ec_best:
        r_best, ec_best = x, -fun
    return RateSolution(r_star=r_best, ec_at_r_star=ec_best,
                        iterations=points + nfev, method="grid")
