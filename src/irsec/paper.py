"""The paper's own approximations, reported beside the library's answers.

The paper locates the single-antenna optimal fixed rate by fixed-step
gradient descent on the one-slot service MGF, approximates the
beamformed one in closed form by dropping the -1 in e^(alpha r T) - 1,
and writes the single-antenna CSI moment in closed form under the
high-SNR relaxation ln(1 + SNR) ~ ln SNR, a 1F1 function. None of
these is the library's answer: the EC comes from eccore and the rate
from rateopt's exact searches. The command line prints these forms
next to them (optimize-rate's paper.* lines, siso_csi's ec_relaxed
diagnostics and validate's bias line), and is the only module that
imports this one.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from irsec import specfun
from irsec.channel import LinkConfig, miso_snr_dist, siso_snr_dist
from irsec.eccore import LN2, _EXP_TAIL, alpha_value, ec_miso_nocsi, ec_siso_nocsi
from irsec.rateopt import RateSolution

__all__ = [
    "DescentSettings",
    "NonConvergenceError",
    "siso_ec_gradient",
    "optimize_rate_siso",
    "optimize_rate_miso_closed",
    "marcum_q_half_ddb",
    "ln_hyp1f1",
    "siso_csi_relaxed",
    "RELAX_SNR_FLOOR",
]

# Closed-form validity: the approximation drops the -1 in e^(alpha r T)-1,
# defensible once the exponential dominates by an order of magnitude.
_CLOSED_FORM_MIN_GROWTH = 10.0

# 1F1 switches from the plain series to the large-x asymptotic here.
# Both branches were overlap-tested on x in [25, 35]; see the tests.
HYP1F1_ASYMPTOTIC_SWITCH = 30.0

# The interpretable high-SNR closed form drops the +1 inside the log;
# its diagnostics report the SNR law's mass below this floor.
RELAX_SNR_FLOOR = 9.0

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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


class NonConvergenceError(RuntimeError):
    """Descent hit max_iters; carries the last iterate for diagnosis."""

    def __init__(self, message: str, last_rate: float):
        super().__init__(message)
        self.last_rate = last_rate


def marcum_q_half_ddb(a: float, b: float) -> float:
    """Derivative of marcum_q_half with respect to its second argument.

    Identical to -sqrt(a b) e^{-(a^2+b^2)/2} I_{-1/2}(a b) but evaluated
    in a log-stabilized form that cannot overflow:
    -sqrt(2/pi) exp(-(a - b)^2 / 2 + log1p(e^{-2ab}) - ln 2).
    """
    if a < 0.0 or b < 0.0:
        raise ValueError("marcum_q_half_ddb requires a >= 0 and b >= 0")
    return -_SQRT_2_OVER_PI * math.exp(
        -0.5 * (a - b) ** 2 + math.log1p(math.exp(-2.0 * a * b)) - LN2
    )


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
    threshold = math.expm1(LN2 * rate / b)  # growth - 1 is 0 below rate ~1e-16 B
    xi = math.sqrt(threshold / dist.beta)
    root_lam = math.sqrt(dist.lam)
    dxi_drate = LN2 * growth / (2.0 * b * dist.beta * xi)
    dp_on = marcum_q_half_ddb(root_lam, xi) * dxi_drate
    p_on = specfun.marcum_q_half(root_lam, xi)
    decay = math.exp(-a * rate * cfg.slot)
    if decay == 0.0:  # both decay terms vanish, also where a * slot is inf
        return -dp_on
    # dp_on (decay - 1) by expm1: the difference cancels to 0 at tiny rates
    return dp_on * math.expm1(-a * rate * cfg.slot) - a * cfg.slot * p_on * decay


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
    """Log of the stationarity constant B alpha T / (kappa ln 2), the
    numerator of the paper's closed-form rate. A constant outside the
    positive normal doubles is a ValueError naming its inputs: below
    them its log would have lost its bits or read -inf, and above them
    the rate would be inf."""
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


def ln_hyp1f1(a: float, b: float, x: float) -> float:
    """ln 1F1(a; b; x) for a > 0, b > 0 and x > 0.

    Stays in the log domain so callers can combine it with large gamma
    factors before a single exponentiation.
    """
    if a <= 0.0:
        raise ValueError(f"ln_hyp1f1 requires a > 0, got {a}")
    if b <= 0.0:
        raise ValueError(f"ln_hyp1f1 requires b > 0, got {b}")
    if x <= 0.0:
        raise ValueError(f"ln_hyp1f1 requires x > 0, got {x}")
    if x <= HYP1F1_ASYMPTOTIC_SWITCH:
        return math.log(specfun._kahan_sum(
            1.0, lambda n: (a + n) * x / ((b + n) * (n + 1.0))))
    # Large-x asymptotic: 1F1(a;b;x) ~ Gamma(b)/Gamma(a) e^x x^(a-b) * S,
    # S = sum_k (b-a)_k (1-a)_k / (k! x^k), truncated at its smallest term.
    corr = 1.0
    term = 1.0
    for k in range(specfun.SERIES_MAX_TERMS):
        nxt = term * (b - a + k) * (1.0 - a + k) / ((k + 1.0) * x)
        if abs(nxt) >= abs(term):
            break
        corr += nxt
        term = nxt
        if abs(term) <= specfun.SERIES_REL_TOL * abs(corr):
            break
    if corr <= 0.0:
        raise specfun.ConvergenceError("1F1 asymptotic correction lost positivity")
    return math.lgamma(b) - math.lgamma(a) + x + (a - b) * math.log(x) + math.log(corr)


def _ln_mgf_siso_relaxed(beta: float, lam: float, u: float) -> tuple[float, dict]:
    """High-SNR form: ln E[(beta X)^{-u}], finite only for u < 1/2."""
    addends = {
        "neg_u_ln_beta": -u * math.log(beta),
        "neg_u_ln2": -u * LN2,
        "neg_half_lam": -0.5 * lam,
        "ln_gamma_half_minus_u": math.lgamma(0.5 - u),
        "neg_half_ln_pi": -0.5 * math.log(math.pi),
        "ln_hyp1f1": ln_hyp1f1(0.5 - u, 0.5, 0.5 * lam),
    }
    return math.fsum(addends.values()), addends


def siso_csi_relaxed(cfg: LinkConfig, alpha: float) -> dict:
    """The paper's high-SNR closed form of the single-antenna CSI EC.

    ec_relaxed and ln_mgf_relaxed, with the addends of the latter as
    relaxed_addends, are finite only for u = alpha * bandwidth * slot /
    ln 2 < 1/2 and NaN beyond, where relaxed_addends is left out.
    low_snr_prob = P(SNR < RELAX_SNR_FLOOR) is the mass on which the
    form undershoots. eccore.ec_siso_csi gives the EC itself.
    """
    dist = siso_snr_dist(cfg)
    a = alpha_value(alpha)
    u = a * cfg.bandwidth * cfg.slot / LN2
    diag: dict = {"low_snr_prob": dist.cdf(RELAX_SNR_FLOOR)}
    if u < 0.5:
        ln_mgf_relaxed, addends = _ln_mgf_siso_relaxed(dist.beta, dist.lam, u)
        diag["ln_mgf_relaxed"] = ln_mgf_relaxed
        diag["ec_relaxed"] = -ln_mgf_relaxed / a
        diag["relaxed_addends"] = addends
    else:
        diag["ln_mgf_relaxed"] = math.nan
        diag["ec_relaxed"] = math.nan
    return diag
