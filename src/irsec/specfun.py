"""Scalar special-function kernel for the capacity closed forms.

Everything here is a pure function of its float arguments, safe to call
from any thread. Infinite series stop at SERIES_REL_TOL within a fixed
term budget, SERIES_MAX_TERMS.
"""

from __future__ import annotations

import math

__all__ = [
    "ConvergenceError",
    "gaussian_tail",
    "marcum_q_half",
    "hyp3f3_unit",
    "expint_e1_scaled",
]

EULER_GAMMA = 0.57721566490153286061

# Truncation budget for every infinite series here: stop once a term
# falls below SERIES_REL_TOL of the running sum, fail past the budget.
SERIES_MAX_TERMS = 10000
SERIES_REL_TOL = 1e-12

_SQRT_2 = math.sqrt(2.0)


class ConvergenceError(ArithmeticError):
    """A truncated series hit SERIES_MAX_TERMS before SERIES_REL_TOL."""


def gaussian_tail(x: float) -> float:
    """P(Z > x) for a standard normal Z."""
    return 0.5 * math.erfc(x / _SQRT_2)


def marcum_q_half(a: float, b: float) -> float:
    """Marcum Q of order 1/2: the tail of a noncentral chi distribution.

    Uses the exact two-tail identity Q_{1/2}(a, b) =
    P(Z > b - a) + P(Z > b + a); the result is clamped to [0, 1].
    """
    if a < 0.0 or b < 0.0:
        raise ValueError("marcum_q_half requires a >= 0 and b >= 0")
    q = gaussian_tail(b - a) + gaussian_tail(b + a)
    return min(1.0, max(0.0, q))


def _kahan_sum(first_term: float, next_ratio) -> float:
    """Kahan-compensated sum of term_0=first_term, term_{n+1}=term_n*ratio(n)."""
    total = first_term
    comp = 0.0
    term = first_term
    for n in range(SERIES_MAX_TERMS):
        term = term * next_ratio(n)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= SERIES_REL_TOL * abs(total):
            return total
    raise ConvergenceError(
        f"series did not reach rel_tol={SERIES_REL_TOL} within {SERIES_MAX_TERMS} terms"
    )


def hyp3f3_unit(x: float) -> float:
    """3F3([1,1,1]; [2,2,2]; x) = sum_n x^n / ((n+1)^3 n!).

    Converges for every real x; for x < 0 the series alternates, so the
    truncation error is bounded by the first omitted term.
    """
    if x == 0.0:
        return 1.0
    return _kahan_sum(1.0, lambda n: x * (n + 1.0) ** 2 / (n + 2.0) ** 3)


def expint_e1_scaled(x: float) -> float:
    """e^x E_1(x) for x > 0.

    Power series below x = 1.5, a modified-Lentz continued fraction at or
    above it; the product form never overflows and tends to 1/x for large x.
    """
    if x <= 0.0:
        raise ValueError(f"expint_e1_scaled requires x > 0, got {x}")
    if x < 1.5:
        # E_1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 200):
            term *= x / k
            contrib = term / k if k % 2 == 1 else -term / k
            total += contrib
            if abs(contrib) <= 1e-17 * abs(total):
                break
        return math.exp(x) * total
    # e^x E_1(x) = 1/(x+1-) 1^2/(x+3-) 2^2/(x+5-) ...
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for j in range(1, 500):
        a_j = 1.0 if j == 1 else -float((j - 1) * (j - 1))
        b_j = x + 2.0 * j - 1.0
        d = b_j + a_j * d
        if d == 0.0:
            d = tiny
        c = b_j + a_j / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return f
    raise ConvergenceError(f"continued fraction for e^x E1(x) stalled at x={x}")
