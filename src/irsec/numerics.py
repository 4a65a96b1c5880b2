"""A float-only port of the one numerical library routine irsec needs.

minimize_bounded is Brent's bounded minimizer (Brent, Algorithms for
Minimization without Derivatives, 1973) in the form of scipy's
minimize_scalar(method="bounded"). It repeats that routine's float
operations in the same order, so it returns the same bits; the tests
compare them. Arguments and results are Python floats, and it keeps no
state between calls.
"""

from __future__ import annotations

import math

__all__ = ["minimize_bounded"]

# minimize_bounded stops after this many evaluations, scipy's default.
_MAXFUN = 500


def _sign(v: float) -> float:
    # np.sign(v) + (v == 0) for the finite values the search sees
    return -1.0 if v < 0.0 else 1.0


def minimize_bounded(func, lo: float, hi: float, xatol: float) -> tuple[float, float, int]:
    """Minimum of func on [lo, hi] by Brent's bounded method.

    Golden-section steps with parabolic interpolation where it is
    acceptable, until the bracket around the best point xf is within
    sqrt(eps) |xf| + xatol / 3 of it on either side, or _MAXFUN
    evaluations. Returns (x, func(x), evaluations).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bounds must be finite")
    if lo > hi:
        raise ValueError("the lower bound exceeds the upper bound")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            # try a parabolic fit through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx, num
