"""Optimal fixed-rate search for the no-CSI scenarios.

Maximizing EC(r) is the same as minimizing the one-slot service MGF
rho(r) = p_off(r) + p_on(r) exp(-alpha r slot). For the single-antenna
link the paper runs fixed-step gradient descent on rho. The beamformed
link admits a transcendental stationarity equation with a unique root
(both sides monotone) plus an interpretable closed-form approximation
of it. One grid search serves both links: it brackets the peak of EC on
a uniform grid and refines it with Brent's bounded minimizer,
numerics.minimize_bounded, a float-only port of scipy's
minimize_scalar(method="bounded") that returns the same x, fun and
evaluation count, bit for bit. The search runs on Python floats: its
grid is np.linspace's arithmetic. The grid rates and their on/off
probabilities depend on the link but not on the exponent, so
_grid_on_off keeps them for the last few links searched, and each grid
point applies only eccore's on/off formula (_on_off_kernel) to them.
Each of Brent's evaluations is eccore's one fixed-rate EC (_fixed_rate)
with no result object, the function the no-CSI branches report from.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

from irsec import specfun
from irsec.channel import LinkConfig, SnrDistribution, miso_snr_dist, siso_snr_dist
from irsec.eccore import (
    LN2,
    _EXP_TAIL,
    _checked_on_off,
    _fixed_rate,
    _on_off_kernel,
    alpha_value,
    ec_miso_nocsi,
    ec_siso_nocsi,
    get_scenario,
)
from irsec.numerics import minimize_bounded

__all__ = [
    "DescentSettings",
    "RateSolution",
    "NonConvergenceError",
    "siso_ec_gradient",
    "optimize_rate_siso",
    "optimize_rate_miso_closed",
    "solve_rate_miso_exact",
    "grid_argmax_rate",
]

_METHODS = ("gradient_descent", "closed_form", "root_find", "grid")

# Closed-form validity: the approximation drops the -1 in e^(alpha r T)-1,
# defensible once the exponential dominates by an order of magnitude.
_CLOSED_FORM_MIN_GROWTH = 10.0

_ROOT_RESIDUAL = 1e-10

# Brent's rate tolerance as a fraction of the grid's span: optimal rates
# run from ~1e-9 to ~40 bits per slot, so an absolute tolerance would be
# too coarse at one end or wasted at the other.
_GRID_XATOL = 1e-9

# Links whose search grids are kept (_grid_on_off): enough for a sweep
# or a design grid of a few dozen links to run each grid once however
# its exponents are interleaved, at 24 points about 4 kB per link.
_GRID_MEMO_LINKS = 64


@dataclass(frozen=True)
class DescentSettings:
    """Fixed-step descent controls; None fields scale off the bandwidth.

    Resolved defaults: r0 = B, step = 0.05 B, conv_tol = 1e-8 B.
    """

    r0: float | None = None
    step: float | None = None
    conv_tol: float | None = None
    max_iters: int = 100_000

    def __post_init__(self) -> None:
        for name in ("r0", "step", "conv_tol"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def resolved(self, bandwidth: float) -> tuple[float, float, float]:
        r0 = bandwidth if self.r0 is None else self.r0
        step = 0.05 * bandwidth if self.step is None else self.step
        tol = 1e-8 * bandwidth if self.conv_tol is None else self.conv_tol
        return r0, step, tol


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


class NonConvergenceError(RuntimeError):
    """Descent hit max_iters; carries the last iterate for diagnosis."""

    def __init__(self, message: str, last_rate: float):
        super().__init__(message)
        self.last_rate = last_rate


def siso_ec_gradient(
    cfg: LinkConfig,
    alpha: float,
    rate: float,
) -> float:
    """d rho / d rate for the single-antenna on/off service MGF.

    Three addends: the on-probability derivative weighted by the on-state
    decay, the decay's own derivative, and the off-state compensation.
    Singular at rate = 0 where the threshold derivative divides by zero.
    """
    if not rate > 0.0:
        raise ValueError("gradient is singular at rate = 0; require rate > 0")
    a = alpha_value(alpha)
    dist = siso_snr_dist(cfg)
    b = cfg.bandwidth
    # every gradient factor has underflowed here; stop before 2^(r/B) overflows
    if LN2 * rate / b > _EXP_TAIL:
        return 0.0
    growth = math.exp(LN2 * rate / b)
    threshold = growth - 1.0
    xi = math.sqrt(threshold / dist.beta)
    root_lam = math.sqrt(dist.lam)
    dxi_drate = LN2 * growth / (2.0 * b * dist.beta * xi)
    dp_on = specfun.marcum_q_half_ddb(root_lam, xi) * dxi_drate
    p_on = specfun.marcum_q_half(root_lam, xi)
    decay = math.exp(-a * rate * cfg.slot)
    return dp_on * decay - a * cfg.slot * p_on * decay - dp_on


def optimize_rate_siso(
    cfg: LinkConfig,
    alpha: float,
    settings: DescentSettings | None = None,
) -> RateSolution:
    """Fixed-step gradient descent on rho(r), the verbatim control law.

    r(m) = r(m-1) - step * drho/dr, stopping at |r(m) - r(m-1)| <= conv_tol.
    Nonpositive iterates are projected back to conv_tol. No line search;
    step quality is the caller's responsibility (grid_argmax_rate is the
    cross-check). A start where the EC is 0 and the gradient too small
    to move the rate (p_on has underflowed, or nearly) is a ValueError
    naming r0, not a converged dead rate.
    """
    if settings is None:
        settings = DescentSettings()
    r0, step, tol = settings.resolved(cfg.bandwidth)
    r_prev = r0
    for m in range(1, settings.max_iters + 1):
        grad = siso_ec_gradient(cfg, alpha, r_prev)
        r_new = r_prev - step * grad
        if r_new <= 0.0:
            r_new = tol
        if abs(r_new - r_prev) <= tol:
            ec = ec_siso_nocsi(cfg, alpha, r_new).ec_bits_per_slot
            if m == 1 and ec == 0.0:
                raise ValueError(
                    f"descent stalls at r0 = {r0!r}: the EC there is 0 and its "
                    f"gradient {grad!r} does not move the rate; pick a smaller r0")
            return RateSolution(r_star=r_new, ec_at_r_star=ec,
                                iterations=m, method="gradient_descent")
        r_prev = r_new
    raise NonConvergenceError(
        f"descent did not converge in {settings.max_iters} iterations "
        f"(last rate {r_prev!r})", last_rate=r_prev)


def _miso_rhs(kappa: float, a: float, bandwidth: float, slot: float) -> float:
    """Log of the stationarity constant B alpha T / (kappa ln 2); see
    solve_rate_miso_exact. A constant outside the positive normal doubles
    is a ValueError naming its inputs: below them its log, and the rate
    root, would have lost their bits or read -inf, and above them the
    root would be inf."""
    arg = bandwidth * a * slot / (kappa * LN2)
    if not sys.float_info.min <= arg <= sys.float_info.max:
        raise ValueError(
            f"bandwidth * alpha * slot / (kappa ln 2) = {arg!r} "
            f"{'overflows' if arg > 1.0 else 'underflows'} a double "
            f"at bandwidth = {bandwidth!r}, alpha = {a!r}, slot = {slot!r}, "
            f"kappa = {kappa!r}")
    return math.log(arg)


def optimize_rate_miso_closed(
    cfg: LinkConfig,
    alpha: float,
    kappa_mode: str = "exact",
) -> RateSolution:
    """Closed-form approximate optimal rate for the beamformed link.

    Linearizes the stationarity equation under e^(alpha r T) - 1
    ~ e^(alpha r T), giving r* = ln(B alpha T/(kappa ln2))/(ln2/B + alpha T),
    clamped at zero. closed_form_valid records whether the linearization
    assumption holds at the returned rate.
    """
    a = alpha_value(alpha)
    dist = miso_snr_dist(cfg, mode=kappa_mode)
    denom = LN2 / cfg.bandwidth + a * cfg.slot
    r_raw = _miso_rhs(dist.kappa, a, cfg.bandwidth, cfg.slot) / denom
    r = max(r_raw, 0.0)
    valid = r_raw > 0.0 and math.exp(a * r * cfg.slot) >= _CLOSED_FORM_MIN_GROWTH
    if not valid:
        warnings.warn(
            "closed-form rate is outside its validity regime "
            f"(r = {r!r}); prefer solve_rate_miso_exact here",
            UserWarning, stacklevel=2)
    ec = ec_miso_nocsi(cfg, alpha, r, kappa_mode=kappa_mode).ec_bits_per_slot
    return RateSolution(r_star=r, ec_at_r_star=ec, iterations=0,
                        method="closed_form", closed_form_valid=valid)


def solve_rate_miso_exact(
    cfg: LinkConfig,
    alpha: float,
    kappa_mode: str = "exact",
) -> RateSolution:
    """Bisection on the beamformed stationarity equation.

    (r/B) ln2 + ln(e^(alpha r T) - 1) = ln(B alpha T/(kappa ln2)).
    The left side is strictly increasing from -inf, so the root is
    unique; brackets grow/shrink geometrically until they straddle it.
    Terminates only below a 1e-10 residual; a root the 500 halvings
    cannot reach, past alpha * slot * bandwidth ~ 1e150, is an
    OverflowError naming slot * bandwidth, and inputs whose logs would
    underflow (a tiny alpha, slot or bandwidth, or an infinite kappa)
    a ValueError naming them.
    """
    a = alpha_value(alpha)
    dist = miso_snr_dist(cfg, mode=kappa_mode)
    b, t = cfg.bandwidth, cfg.slot
    rhs = _miso_rhs(dist.kappa, a, b, t)

    def lhs(r: float) -> float:
        x = a * r * t
        if x > _EXP_TAIL:
            return LN2 * r / b + x
        return LN2 * r / b + math.log(math.expm1(x))

    lo = 1e-6 * b
    if not a * lo * t > 0.0:
        # from a first rate with alpha * rate * slot > 0 the halving stops
        # above rhs's normal constant, before that product reaches 0
        raise ValueError(
            f"alpha * rate * slot underflows to 0 at the search's first rate "
            f"1e-6 * bandwidth = {lo!r}: alpha = {a!r}, slot = {t!r}, bandwidth = {b!r}")
    for _ in range(2000):
        if lhs(lo) < rhs:
            break
        lo *= 0.5
    else:
        raise RuntimeError("could not bracket the rate root from below")
    hi = b
    for _ in range(300):
        if lhs(hi) > rhs:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the rate root from above")

    mid = lo
    for it in range(1, 501):
        mid = 0.5 * (lo + hi)
        residual = lhs(mid) - rhs
        if abs(residual) <= _ROOT_RESIDUAL:
            break
        if residual < 0.0:
            lo = mid
        else:
            hi = mid
    else:
        # the root sits about alpha*slot*bandwidth times below the
        # bandwidth (to a log factor): past ~1e150 that is more halvings
        # than the loop allows
        raise OverflowError(
            f"the rate root is out of the bisection's reach at slot * bandwidth "
            f"= {t * b!r}, alpha = {a!r} (residual {residual!r} at rate {mid!r})")

    ec = ec_miso_nocsi(cfg, alpha, mid, kappa_mode=kappa_mode).ec_bits_per_slot
    return RateSolution(r_star=mid, ec_at_r_star=ec, iterations=it,
                        method="root_find")


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
    best point ([0, r_1] or [r_{n-2}, r_max] at an edge). Returns the
    better of the refined and the best grid point; iterations counts
    the EC evaluations. The grid's on/off probabilities come from
    _grid_on_off, computed once per link and kept across exponents, so
    on_off_probs runs at the grid points only on a link's first search;
    Brent's evaluations run the whole fixed-rate EC each time.
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
    values = [_on_off_kernel(p_on, p_off, a, r, t)[1] for r, p_on, p_off in grid]
    ec_best = max(values)
    k = values.index(ec_best)  # the first maximum, as np.argmax
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
