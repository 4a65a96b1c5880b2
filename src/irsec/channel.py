"""Physical layer: the link configuration, geometry pathloss and the
analytical SNR laws, on math alone.

Amplitude convention: every scalar fading coefficient has E|h|^2 = 2
(Rayleigh amplitude scale 1 per hop, complex Gaussian variance 2 on the
first MISO hop). The closed-form law constants below are exact for this
convention, which is what the oracle's fading draws (irsec.mcoracle)
implement.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Union

from irsec import specfun

__all__ = [
    "LinkConfig",
    "ScaledNoncentralChiSq",
    "Exponential",
    "SnrDistribution",
    "pathloss",
    "siso_snr_dist",
    "miso_snr_dist",
    "load_link_config",
]

PI2 = math.pi * math.pi

# The least mean beamformed SNR whose reciprocal is finite.
_MIN_MEAN_SNR = 1.0 / sys.float_info.max

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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if not value > 0.0 and name != "phi_inc":
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 <= self.phi_inc <= math.pi / 2.0:
            raise ValueError("phi_inc must lie in [0, pi/2]")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(value))
        # the equal-power vector, whose power is 1.0 exactly, recognised
        # by one comparison before any weight is converted or checked
        equal = (complex(1.0 / math.sqrt(self.n_tx), 0.0),) * self.n_tx
        given = equal if self.precoder is None else tuple(self.precoder)
        if given == equal:
            object.__setattr__(self, "precoder", equal)
            power = 1.0
        else:
            object.__setattr__(self, "precoder", tuple(map(complex, given)))
            if not all(map(cmath.isfinite, self.precoder)):
                raise ValueError("precoder must be finite")
            power = math.fsum(abs(v) ** 2 for v in self.precoder)
        if len(self.precoder) != self.n_tx:
            raise ValueError("precoder length must equal n_tx")
        if not power > 0.0:
            raise ValueError("precoder must have positive power")
        # the link-budget constants, computed once per config; they are
        # not fields, so equality, hashing and replace() ignore them
        object.__setattr__(self, "_precoder_power", power)
        aperture = self.x_irs * self.y_irs / (self.d1 * self.d2)
        try:
            gain = (self.g_t * self.g_r / (4.0 * math.pi) ** 2
                    * aperture ** 2 * math.cos(self.phi_inc) ** 2)
        except OverflowError:
            raise ValueError(f"x_irs * y_irs / (d1 * d2) = {aperture!r} overflows "
                             "a double once squared for the pathloss") from None
        object.__setattr__(self, "_pathloss", gain)
        # the SNR laws siso_snr_dist and miso_snr_dist build for this
        # config: the single-antenna one, and the beamformed one by mode
        object.__setattr__(self, "_siso_law", None)
        object.__setattr__(self, "_miso_laws", {})

    @property
    def precoder_power(self) -> float:
        """Sum of squared precoder magnitudes.

        The equal-power vector is unit-norm by construction, so it reports
        exactly 1.0 for every n_tx, also when it comes back as an explicit
        tuple (dataclasses.replace, a config-file round trip); summing its
        rounded squares lands an ulp off for some n_tx. Any other vector
        is summed exactly rounded, independent of element order.
        """
        return self._precoder_power


# Each SNR law evaluates its CDF by math, one scalar at a time. numpy's
# SIMD log1p/expm1 and scipy's erfc round differently in the last bits
# and by CPU, so an array route would move every fixed-rate EC with it.

# The single-antenna law integrates E[w(SNR)] with a trapezoid rule in
# v = asinh(sqrt(beta) z) over the whole real line, where z ~ N(sqrt(lam), 1)
# and SNR = beta z^2 = sinh(v)^2. The map puts the branch points of
# (1 + SNR)^-u at Im v = +-pi/2 for every beta, and the integrand decays
# like a Gaussian in z, so the rule converges exponentially as its step
# shrinks (Takahasi and Mori 1974; Trefethen and Weideman, SIAM Review 2014).
# The first step is 1/sqrt(2) of the narrowest peak's width sigma: on a
# Gaussian peak the rule's error is about 2 exp(-2 pi^2 sigma^2 / h^2),
# 2 exp(-4 pi^2) ~ 1.5e-17 there, so where the peak's width sets the
# error the first halving already meets _TRAP_RTOL. The step halves until
# two sums agree to _TRAP_RTOL; each sum walks out from the peak until
# what it leaves out is below _TRAP_TAIL of the total.
_TRAP_RTOL = 1e-13
_TRAP_TAIL = 1e-17
_TRAP_HALVINGS = 12
_TRAP_MAX_NODES = 1_000_000
# A walk ends at |v| = _V_MAX: sinh(v)^2, the SNR, overflows a double
# a little further out, and its terms would turn to inf - inf.
_V_MAX = 355.0
_LN_TRAP_TAIL = math.log(_TRAP_TAIL)
_LN_HALF_TRAP_TAIL = math.log(0.5 * _TRAP_TAIL)
_LN_2PI = math.log(2.0 * math.pi)
# Links whose exponent-free work the memos keep: the single-antenna
# rule's c = 1 frame here, the beamformed service moments in eccore
# and the rate grids in rateopt. Enough for a sweep or a design grid of
# a few dozen links to do that work once however its exponents
# interleave.
_GRID_MEMO_LINKS = 64
# ln_mgf and mean_log take their first-order value where the
# second-order term is below this share of it.
_FIRST_ORDER_REL = 2.0 ** -53
# The largest u that ln_mgf takes on its direct route, whose exponent
# 1 - 2u must be a double.
MAX_MGF_U = 0.5 * sys.float_info.max


class LawIntegral(NamedTuple):
    """An integral over an SNR law, with the health of the rule behind it:
    the difference of its last two step halvings (on the log of the
    integral for the "direct" route) and its integrand evaluations, and
    the route, which names what was integrated."""

    value: float
    abserr: float
    neval: int
    route: str


def _newton_root(p, dp, lo: float, hi: float, z: float) -> float:
    """The root of p in [lo, hi] with p(lo) < 0 < p(hi), by Newton's
    method from z guarded by bisection; NaN if 200 steps do not reach
    it, as when the root lies among the subnormal doubles."""
    for _ in range(200):
        f = p(z)
        if f < 0.0:
            lo = z
        else:
            hi = z
        slope = dp(z)
        nz = z - f / slope if slope > 0.0 else math.nan
        if not lo < nz < hi:
            nz = 0.5 * (lo + hi)
        if abs(nz - z) <= 1e-14 * z or hi - lo <= 1e-14 * hi:
            return nz
        z = nz
    return math.nan


def _peak_zs(beta: float, a: float, c: float) -> list[float]:
    """The z > 0 of every local maximum of c/2 ln(1 + beta z^2) - (z - a)^2/2,
    the log of the integrand in v without its weight.

    Its slope vanishes where p(z) = beta z^3 - a beta z^2 + (1 - c beta) z - a
    does, and p < 0 below each maximum. For c > 0 the one maximum lies in
    (a, a + 1). For c < 0 every root lies in (0, a); there are two maxima,
    one near 0 and one below a, when p has three real roots. A maximum
    _newton_root cannot reach is NaN.
    """
    k = 1.0 - c * beta

    def p(z):
        return ((beta * z - a * beta) * z + k) * z - a

    def dp(z):
        return (3.0 * beta * z - 2.0 * a * beta) * z + k

    # Newton starts from z = a (v_g) for the peak below a and from 0 for
    # one that may lie near 0: its first step lands on a / (1 - c beta),
    # however small that is
    if c > 0.0:
        return [_newton_root(p, dp, a, a + 1.0, a)]
    if c == 0.0:
        return [a]
    disc = a * a - 3.0 * k / beta
    if disc > 0.0:
        z_lo = (a - math.sqrt(disc)) / 3.0
        z_hi = (a + math.sqrt(disc)) / 3.0
        if z_lo > 0.0 and p(z_lo) > 0.0 > p(z_hi):
            return [_newton_root(p, dp, 0.0, z_lo, 0.0), _newton_root(p, dp, z_hi, a, a)]
    return [_newton_root(p, dp, 0.0, a, 0.0)]


def _frame(law: ScaledNoncentralChiSq, half_c: float) -> tuple | None:
    """What the rule needs of the law at exponent c = 2 half_c before it
    walks, or None if a peak cannot be located: the centre and shift of
    the larger peak, the first step, the peaks as (v, ln height less
    shift), the last peak's v and the bound on what lies past it, the z
    below which the negative-z side falls monotonically, and
    ln sqrt(2 pi beta)."""
    beta, a = law.beta, law._root_lam
    rb = math.sqrt(beta)
    c = 2.0 * half_c
    ln_mass = 0.5 * (_LN_2PI + math.log(beta))
    peaks = []
    for z in _peak_zs(beta, a, c):
        d = z - a
        x = beta * z * z
        c_l = half_c * math.log1p(x)
        g = c_l - 0.5 * d * d
        if not -math.inf < g < math.inf:
            return None
        peaks.append((math.asinh(rb * z), g, c / (1.0 + x) - 1.0 / beta - z * z - d * z, c_l))
    centre, shift, _, _ = max(peaks, key=lambda pk: pk[1])
    # 1/sqrt(2) of the narrowest width that matters, 1/sqrt(-G'') in v
    h = min(math.sqrt(-0.5 / g2) for _, g, g2, _ in peaks if g > shift - 40.0)
    # for c <= 0, c L(v) falls from the last peak on, and the Gaussian
    # factor integrates to at most sqrt(2 pi beta) over v
    v_last, _, _, c_l_last = max(peaks)
    # below z = -3/a the negative-z side falls monotonically outwards for
    # every weight; for c <= 0 it does from z = 0
    return (centre, shift, h, [(v, g - shift) for v, g, _, _ in peaks], v_last,
            ln_mass + c_l_last - shift, -3.0 / a if c > 0.0 else 0.0, ln_mass)


@functools.lru_cache(maxsize=_GRID_MEMO_LINKS)
def _unit_rule(law: ScaledNoncentralChiSq) -> tuple | None:
    """The law's c = 1 frame, shared by the "complement" and "log"
    weights at every exponent and kept for the last _GRID_MEMO_LINKS
    laws; None if a peak cannot be located."""
    return _frame(law, 0.5)


def _trapezoid(law: ScaledNoncentralChiSq, u: float,
               weight: str) -> tuple[float, float, int]:
    """(value, abserr, neval) of E[w(SNR)] under the law, SNR = beta Z^2,
    Z ~ N(sqrt(lam), 1).

    weight "direct" is w(x) = (1 + x)^-u, and value is the log of the
    integral, with abserr on that log; "complement" is 1 - (1 + x)^-u
    and "log" ln(1 + x), and value is the integral itself. In v the
    integrand is w exp(c L(v) - (s - a)^2/2) / sqrt(2 pi beta), with
    L = ln cosh v, s = sinh(v)/sqrt(beta), a = sqrt(lam), and c = 1 - 2u
    for "direct" (w folded in), 1 otherwise. Each term is shifted by the
    larger peak of that exponent, so no route underflows. With c = 1
    nothing but the weight depends on u, so the frame comes from
    _unit_rule, once per law. A UserWarning names the estimate if
    _TRAP_HALVINGS halvings do not reach _TRAP_RTOL, and a ValueError
    names beta, lam and u if a peak cannot be located or the sum
    underflows (for "complement" and "log" at beta below ~1e-205).
    """
    beta, lam, a = law.beta, law.lam, law._root_lam
    rb = math.sqrt(beta)
    if weight == "direct":
        half_c = 0.5 - u
        frame = _frame(law, half_c)
    else:
        half_c, frame = 0.5, _unit_rule(law)
    if frame is None:
        raise ValueError(
            f"single-antenna {weight} integral: the integrand's peak is out of "
            f"reach at beta = {beta!r}, lam = {lam!r}, u = {u!r}")
    centre, shift, h, peaks, v_last, ln_past_last, z_monotone, ln_mass = frame
    neval = 0

    def ln(x):
        return math.log(x) if x > 0.0 else -math.inf

    # each stop test bounds what a walk leaves out of the integral by a
    # log, compared with ln(_TRAP_TAIL h summed), and takes a log only
    # where no cheaper condition decides
    def left_done(v, z, t, geometric, summed, ln_h):
        if v > 0.0:
            # [-v, v] lies below the larger of the term and the peaks left
            # of v; below -v lies the mirror image of the right side, damped
            # by exp(-2 a z)
            if -2.0 * a * z > _LN_HALF_TRAP_TAIL:
                return False
            ln_top = max([g for vp, g in peaks if vp < v] + [ln(t)])
            return math.log(4.0 * v) + ln_top <= _LN_TRAP_TAIL + ln(summed) + ln_h
        return 2.0 * a * z <= _LN_TRAP_TAIL or (z <= z_monotone and geometric)

    def right_done(v, t, geometric, summed, ln_h):
        # peaks lie ahead only for c < 0, where the walk starts on the
        # one near 0: up to the last peak the terms lie below the larger
        # of the term and those peaks
        ahead = [g for vp, g in peaks if vp > v]
        if not ahead:
            return geometric
        ln_left_out = max(math.log(v_last - v) + max(ahead + [ln(t)]), ln_past_last)
        return ln_left_out + math.log(2.0) <= _LN_TRAP_TAIL + ln(summed) + ln_h

    sinh, sqrt, log1p, exp, expm1 = math.sinh, math.sqrt, math.log1p, math.exp, math.expm1
    complement, log_weight = weight == "complement", weight == "log"

    def walk(x0, dx, total, ln_h):
        """Sum of the terms at centre + x0 + j dx, j = 0, 1, ..., until
        what the walk leaves out may be neglected."""
        nonlocal neval
        part = 0.0
        prev = math.inf
        j = 0
        # the last node before |v| passes _V_MAX, or the node budget
        j_end = min(_TRAP_MAX_NODES, int((math.copysign(_V_MAX, dx) - centre - x0) / dx))
        while True:
            # the node centre + x as vh + vl (Knuth's two-sum), so that its
            # spacing stays exact where the peak is narrow against v itself
            x = x0 + j * dx
            vh = centre + x
            vb = vh - centre
            vl = (centre - (vh - vb)) + (x - vb)
            sh = sinh(vh)
            sh += sqrt(1.0 + sh * sh) * vl
            lg = log1p(sh * sh)
            z = sh / rb
            d = z - a
            t = exp(half_c * lg - 0.5 * d * d - shift)
            if complement:
                t *= -expm1(-u * lg) / u
            elif log_weight:
                t *= lg
            part += t
            cut = _TRAP_TAIL * (total + part)
            if t <= cut:
                # a falling geometric tail from here stays below the cut
                geometric = t == 0.0 or (t < prev and t <= cut * (1.0 - t / prev))
                if (right_done(vh, t, geometric, total + part, ln_h) if dx > 0.0
                        else left_done(vh, z, t, geometric, total + part, ln_h)):
                    neval += j + 1
                    return part
            prev = t
            j += 1
            if j > j_end:
                if j_end == _TRAP_MAX_NODES:
                    raise ArithmeticError(
                        f"single-antenna {weight} integral: a walk found no end in "
                        f"{_TRAP_MAX_NODES} nodes at beta = {beta!r}, lam = {lam!r}, u = {u!r}")
                if t > cut:
                    raise ValueError(
                        f"single-antenna {weight} integral: the integrand reaches past "
                        f"the SNR a double holds at beta = {beta!r}, lam = {lam!r}, u = {u!r}")
                # the last term is below the cut, and further out
                # z = sinh(v)/sqrt(beta) grows like e^|v|, so the Gaussian
                # factor takes the terms the walk leaves out to 0
                neval += j
                return part

    scale = shift - ln_mass
    # the direct exponent carries rounding of order eps * |ln M|, so its
    # sums agree only to that share; ln M keeps _TRAP_RTOL relative
    rtol = _TRAP_RTOL * (max(1.0, abs(scale)) if weight == "direct" else 1.0)
    total = walk(0.0, h, 0.0, math.log(h))
    total += walk(-h, -h, total, math.log(h))
    est, diff = h * total, math.inf
    for _ in range(_TRAP_HALVINGS):
        h *= 0.5
        total += walk(h, 2.0 * h, total, math.log(h))
        total += walk(-h, -2.0 * h, total, math.log(h))
        diff = abs(h * total - est)
        est = h * total
        if diff <= rtol * est:
            break
    if not est >= sys.float_info.min:
        # a subnormal sum has lost the bits that scaling would restore;
        # a normal one keeps exp(scale) finite, since k < 1/2 and
        # mean_log < 710 on the routes that scale it
        raise ValueError(
            f"single-antenna {weight} integral: the rule's sum underflows a double "
            f"at beta = {beta!r}, lam = {lam!r}, u = {u!r}")
    if weight == "direct":
        # on ln M: exp(scale) diff would underflow with M itself
        value, abserr = scale + math.log(est), diff / est
    else:
        if complement:
            # the complement's terms carry its weight over u
            scale += math.log(u)
        value = math.exp(scale) * est
        abserr = math.exp(scale) * diff
    if not diff <= rtol * est:
        name = "ln estimate" if weight == "direct" else "estimate"
        warnings.warn(
            f"single-antenna {weight} integral missed its {_TRAP_RTOL:g} relative target "
            f"after {_TRAP_HALVINGS} step halvings: {name} = {value!r}, abserr = {abserr:.3g}",
            UserWarning, stacklevel=3)
    return value, abserr, neval


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
        # sqrt(lam), the mean of the unscaled normal; not a field
        object.__setattr__(self, "_root_lam", math.sqrt(self.lam))

    def cdf(self, x: float) -> float:
        """P(SNR <= x) for a scalar x.

        Below the ridge (b < a) the CDF is the difference of two normal
        tails, P(Z > a - b) - P(Z > a + b); 1 - Q_{1/2}(a, b) would cancel
        to 0 there. The difference cancels too as b -> 0: at the reference
        link it is 1.3e-10 relative off at SNR 1e-12 and 1.6e-4 at 1e-24,
        and from SNR 1e-36 down it returns exactly 0.
        """
        x = float(x)
        if x < 0.0:
            raise ValueError("cdf requires x >= 0")
        a, b = self._root_lam, math.sqrt(x / self.beta)
        if b < a:
            return specfun.gaussian_tail(a - b) - specfun.gaussian_tail(a + b)
        return 1.0 - specfun.marcum_q_half(a, b)

    def _second_order(self) -> float:
        """beta (lam^2 + 6 lam + 3) / (2 (lam + 1)): E[SNR^2]/2 over
        E[SNR], the share by which the second-order term of ln(1 + SNR)
        corrects the first."""
        lam = self.lam
        return self.beta * ((lam + 6.0) * lam + 3.0) / (2.0 * (lam + 1.0))

    def ln_mgf(self, u: float) -> LawIntegral:
        """ln E[(1 + SNR)^-u] for u > 0.

        While u log1p(beta (lam + 1)) < 1/2, Jensen's inequality puts
        k = 1 - E[(1 + SNR)^-u] below 1/2, and the "complement" route
        integrates that, which keeps its digits as u -> 0. Otherwise the
        "direct" route integrates (1 + SNR)^-u in the log domain. k is
        u beta (lam + 1) less a share (u + 1) _second_order() of it; where
        that share is below 2^-53, the route is "first_order": k is
        u beta (lam + 1), with the share of it as its abserr. A u past
        MAX_MGF_U on the direct route is a ValueError naming beta, lam
        and u.
        """
        if not 0.0 < u < math.inf:
            raise ValueError(f"u must be positive and finite, got {u!r}")
        if u * math.log1p(self.beta * (self.lam + 1.0)) < 0.5:
            rel = (u + 1.0) * self._second_order()
            if rel < _FIRST_ORDER_REL:
                k = u * (self.beta * (self.lam + 1.0))
                return LawIntegral(math.log1p(-k), rel * k, 0, "first_order")
            k, abserr, neval = _trapezoid(self, u, "complement")
            return LawIntegral(math.log1p(-k), abserr, neval, "complement")
        if u > MAX_MGF_U:
            raise ValueError(
                f"single-antenna direct integral: the exponent 1 - 2u overflows a double "
                f"at beta = {self.beta!r}, lam = {self.lam!r}, u = {u!r}")
        ln_m, abserr, neval = _trapezoid(self, u, "direct")
        return LawIntegral(ln_m, abserr, neval, "direct")

    def mean_log(self) -> LawIntegral:
        """E[ln(1 + SNR)], by the rule behind ln_mgf.

        ln(1 + x) = x - x^2/2 + ..., so E[ln(1 + SNR)] is beta (lam + 1)
        less a share _second_order() of it. Where that share is below
        2^-53, the first term is the value to rounding, and it is returned
        with the share of it as its abserr, route "first_order"; the rule's
        sum would underflow there.
        """
        rel = self._second_order()
        if rel < _FIRST_ORDER_REL:
            first = self.beta * (self.lam + 1.0)
            return LawIntegral(first, rel * first, 0, "first_order")
        value, abserr, neval = _trapezoid(self, 0.0, "log")
        return LawIntegral(value, abserr, neval, "log")


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


def pathloss(cfg: LinkConfig) -> float:
    """Two-hop power attenuation through the reflecting surface,
    g_t g_r / (4 pi)^2 * (x_irs y_irs / (d1 d2))^2 * cos(phi_inc)^2,
    as LinkConfig computed it when the config was made."""
    return cfg._pathloss


def siso_snr_dist(cfg: LinkConfig) -> ScaledNoncentralChiSq:
    """Analytical SNR law of the single-antenna link.

    lam = N pi^2/(16 - pi^2) collects the coherent mean power of the N
    aligned element products; beta carries the link budget. The law is
    built once per config and kept on it; a refused budget is refused at
    every call.
    """
    if cfg._siso_law is not None:
        return cfg._siso_law
    if cfg.n_tx != 1:
        raise ValueError("siso_snr_dist requires n_tx == 1")
    n = cfg.n_elems
    lam = n * PI2 / (16.0 - PI2)
    beta = n * cfg.p_t * pathloss(cfg) * (16.0 - PI2) / (4.0 * cfg.sigma2)
    if not 0.0 < beta < math.inf:
        raise ValueError(
            f"the single-antenna SNR scale N p_t pathloss (16 - pi^2) / (4 sigma2) "
            f"= {beta!r} is out of a double's range at n_elems = {n!r}, "
            f"p_t = {cfg.p_t!r}, sigma2 = {cfg.sigma2!r}, pathloss = {pathloss(cfg)!r}")
    law = ScaledNoncentralChiSq(beta=beta, lam=lam)
    object.__setattr__(cfg, "_siso_law", law)
    return law


def _miso_mean_snr(cfg: LinkConfig) -> float:
    """Mean beamformed SNR, 2 N p_t zeta |f|^2 / sigma2.

    The surface sums N iid complex Gaussian aggregates with E|z|^2 = 2,
    which is again complex Gaussian with power 2N, so the SNR is exactly
    exponential with this mean. A mean whose reciprocal, the law's rate,
    would not be a positive finite double is a ValueError naming the
    budget.
    """
    mean = (2.0 * cfg.n_elems * cfg.p_t * pathloss(cfg) * cfg.precoder_power
            / cfg.sigma2)
    if not _MIN_MEAN_SNR <= mean < math.inf:
        raise ValueError(
            f"the beamformed mean SNR 2 N p_t pathloss |f|^2 / sigma2 = {mean!r} is "
            f"out of a double's range at n_elems = {cfg.n_elems!r}, p_t = {cfg.p_t!r}, "
            f"sigma2 = {cfg.sigma2!r}, pathloss = {pathloss(cfg)!r}, "
            f"|f|^2 = {cfg.precoder_power!r}")
    return mean


def miso_snr_dist(cfg: LinkConfig, mode: str = "exact") -> Exponential:
    """Exponential SNR law of the beamformed link.

    mode="exact" (default) is the sampled law's rate
    sigma^2 / (2 N p_t zeta sum|f_j|^2); mode="closed" evaluates the
    paper's constant sigma^4 / (2 N^2 (p_t zeta sum|f_j|^2)^2), kept
    selectable for side-by-side reporting because the two disagree.
    Each mode's law is built once per config and kept on it.
    """
    if mode not in ("exact", "closed"):
        raise ValueError(f"unknown kappa mode {mode!r}")
    law = cfg._miso_laws.get(mode)
    if law is not None:
        return law
    if mode == "closed":
        s = cfg.p_t * pathloss(cfg) * cfg.precoder_power
        try:
            kappa = cfg.sigma2 ** 2 / (2.0 * cfg.n_elems ** 2 * s * s)
        except (OverflowError, ZeroDivisionError):
            kappa = math.nan
        if not 0.0 < kappa < math.inf:
            raise ValueError(
                "the closed kappa sigma2^2 / (2 N^2 (p_t pathloss |f|^2)^2) is not a positive "
                f"finite double at n_elems = {cfg.n_elems!r}, p_t = {cfg.p_t!r}, sigma2 = "
                f"{cfg.sigma2!r}, pathloss = {pathloss(cfg)!r}, |f|^2 = {cfg.precoder_power!r}")
    else:
        kappa = 1.0 / _miso_mean_snr(cfg)
    law = cfg._miso_laws[mode] = Exponential(kappa=kappa)
    return law


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
