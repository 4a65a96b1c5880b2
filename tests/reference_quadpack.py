"""The folded-normal QUADPACK route to the single-antenna service MGF.

irsec integrates E[w(SNR)] over the single-antenna law with a trapezoid
rule in asinh(sqrt(beta) z). Its independent double-precision oracle is
the route it replaced: adaptive Gauss-Kronrod quadrature of the
folded-normal integrand over [0, sqrt(lam) + QUAD_SPAN].

- qagp: QUADPACK's dqagpe (Piessens, de Doncker-Kapenga, Ueberhuber and
  Kahaner, QUADPACK, Springer 1983) with its 21-point Gauss-Kronrod rule
  dqk21, its error-list ordering dqpsrt and its epsilon extrapolation
  dqelg: adaptive bisection of [a, b] with user break points. It repeats
  dqagpe's float operations in the same order, so it returns the same
  bits as scipy.integrate.quad(..., points=..., epsabs=0); test_numerics
  compares them.
- fold_integrand / fold_quad: the integrand w(beta t^2) p(t), p the
  density of |Z|, Z ~ N(sqrt(lam), 1), and its qagp integral with
  QUADPACK's abserr and error code.

Unlike the trapezoid rule, this route loses the direct-route MGF to
underflow past e^-745, and its complement route is cut at u < SMALL_U
rather than by the size of 1 - M.
"""

from __future__ import annotations

import math
import sys

__all__ = ["qagp", "fold_integrand", "fold_quad"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# dqk21: the 21-point Kronrod abscissae on [-1, 1] (xgk[1], xgk[3], ...
# are the 10-point Gauss abscissae) and their weights, QUADPACK's digits.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067174400, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# (index, abscissa, Kronrod weight[, Gauss weight]) in dqk21's summation
# order: the Gauss abscissae first, then the Kronrod-only ones.
_GAUSS_NODES = tuple((j, _XGK[j], _WGK[j], _WG[j // 2]) for j in range(1, 10, 2))
_KRONROD_NODES = tuple((j, _XGK[j], _WGK[j]) for j in range(0, 10, 2))
_WGK_PAIRS = _WGK[:10]

# dqelg: the extrapolation table keeps at most this many elements.
_LIMEXP = 50


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: (integral, error estimate, integral of |f|, integral of
    |f - mean|) by the 21-point Kronrod rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j, x, wk, wg in _GAUSS_NODES:
        absc = hlgth * x
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, x, wk in _KRONROD_NODES:
        absc = hlgth * x
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for wk, fval1, fval2 in zip(_WGK_PAIRS, fv1, fv2):
        resasc = resasc + wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep iord (1-based) listing the intervals by decreasing
    error after the bisection of maxerr; returns the next (maxerr,
    errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        # insert errmax at i - 1, then errmin bottom-up
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):
            isucc = iord[k]
            if errmin < elist[isucc]:
                iord[k + 1] = last
                break
            iord[k + 1] = isucc
            k -= 1
        else:
            iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """dqelg: one step of Wynn's epsilon algorithm on the 1-based table
    epstab[1..n]; returns (n, extrapolated value, its error estimate,
    nres), updating epstab and the last three results res3la in place."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            # irregular behaviour: drop the table's tail
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qagp(f, a: float, b: float, points, epsrel: float,
         limit: int) -> tuple[float, float, int, int, int]:
    """Integral of f over [a, b] (a < b) with break points, by dqagpe.

    points are break points in any order; those outside (a, b) are
    dropped and repeats merged, as quad does. The absolute tolerance is
    0: the target is epsrel times the integral. Returns (value, abserr,
    neval, ier, last): the error estimate, the number of integrand
    evaluations, QUADPACK's error code (0 when the target was met; 1
    the limit of subintervals was reached, 2 roundoff, 3 bad integrand
    behaviour, 4 extrapolation roundoff, 5 probable divergence) and the
    number of subintervals used.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    inner = sorted({float(p) for p in points if a < p < b})
    npts = len(inner)
    npts2 = npts + 2
    if limit <= npts or epsrel < max(50.0 * _EPMACH, 0.5e-28):
        raise ValueError(f"invalid limit {limit!r} or epsrel {epsrel!r}")
    epsabs = 0.0
    ier = 0

    # integrate each of the nint intervals between break points once
    nint = npts + 1
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    level = [0] * (limit + 1)
    ndin = [0] * (nint + 1)
    result = 0.0
    abserr = 0.0
    resabs = 0.0
    a1 = a
    for i, b1 in enumerate(inner + [b], start=1):
        area1, error1, defabs, resa = _qk21(f, a1, b1)
        abserr = abserr + error1
        result = result + area1
        ndin[i] = 1 if error1 == resa and error1 != 0.0 else 0
        resabs = resabs + defabs
        elist[i] = error1
        alist[i] = a1
        blist[i] = b1
        rlist[i] = area1
        iord[i] = i
        a1 = b1
    errsum = 0.0
    for i in range(1, nint + 1):
        if ndin[i] == 1:
            elist[i] = abserr
        errsum = errsum + elist[i]

    last = nint
    neval = 21 * nint
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
        ier = 2
    if nint > 1:
        # order the intervals by decreasing error
        for i in range(1, npts + 1):
            ind1 = iord[i]
            k = i
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if not elist[ind1] > elist[ind2]:
                    ind1 = ind2
                    k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
        if limit < npts2:
            ier = 1
    if ier != 0 or abserr <= errbnd:
        return result, abserr, neval, (ier - 1 if ier > 2 else ier), last

    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    nrmax = 1
    nres = 0
    numrl2 = 1
    ktmin = 0
    extrap = False
    noext = False
    erlarg = errsum
    ertest = errbnd
    levmax = 1
    iroff1 = iroff2 = iroff3 = 0
    ierro = 0
    correc = 0.0
    abserr = _OFLOW
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * resabs else -1

    summed = False
    for last in range(npts2, limit + 1):
        # bisect the interval with the nrmax-th largest error
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        neval += 42
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if (not abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    and not erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] = levcur
        level[last] = levcur
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax:
            erlarg = erlarg + erro12
        if not extrap:
            if level[maxerr] + 1 <= levmax:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: first bisect
            # the larger intervals, then extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] + 1 <= levmax:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        if numrl2 > 2:
            numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr < ertest:
                    break
            if numrl2 == 1:
                noext = True
            if ier >= 5:
                break
        # go on bisecting from the largest error, one level deeper
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        levmax += 1
        erlarg = errsum

    # choose between the extrapolated result and the plain sum
    if not summed and abserr == _OFLOW:
        summed = True
    if not summed:
        test_divergence = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                test_divergence = False
        if (not summed and test_divergence
                and not (ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01)):
            if area == 0.0:
                # result / area is infinite, or nan where both are 0
                diverged = result != 0.0 or errsum > 0.0
            else:
                diverged = (0.01 > result / area or result / area > 100.0
                            or errsum > abs(area))
            if diverged:
                ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, neval, ier, last



# The folded-normal window [0, sqrt(lam) + QUAD_SPAN], the relative
# target of its quadrature, and the u below which the MGF is taken
# through its complement 1 - M.
QUAD_SPAN = 45.0
QUAD_EPSREL = 1e-11
SMALL_U = 1e-3
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def fold_integrand(weight: str, beta: float, u: float, root_lam: float):
    """t -> w(beta t^2) p(t): p is the density of |Z|, Z ~ N(root_lam, 1),
    in its damped form exp(-d^2/2) (1 + exp(-2 root_lam t)) / sqrt(2 pi)
    with d = t - root_lam, and w is the weight of x = beta t^2 that names
    the integral: "complement" 1 - (1+x)^-u, "direct" (1+x)^-u or "log"
    ln(1+x), which ignores u.

    Each closure evaluates p inline, in the formula's order of
    operations, with -2 root_lam computed once here rather than at every
    abscissa: it returns the bits of w(t) * p(t) for one Python call.
    """
    damp = -2.0 * root_lam
    if weight == "complement":
        def integrand(t: float) -> float:
            d = t - root_lam
            return (-math.expm1(-u * math.log1p(beta * t * t))
                    * (math.exp(-0.5 * d * d) * (1.0 + math.exp(damp * t)) / _SQRT_2PI))
    elif weight == "direct":
        def integrand(t: float) -> float:
            d = t - root_lam
            return (math.exp(-u * math.log1p(beta * t * t))
                    * (math.exp(-0.5 * d * d) * (1.0 + math.exp(damp * t)) / _SQRT_2PI))
    elif weight == "log":
        def integrand(t: float) -> float:
            d = t - root_lam
            return (math.log1p(beta * t * t)
                    * (math.exp(-0.5 * d * d) * (1.0 + math.exp(damp * t)) / _SQRT_2PI))
    else:
        raise ValueError(f"unknown weight {weight!r}")
    return integrand


def fold_quad(weight: str, beta: float, u: float, root_lam: float) -> tuple[float, float, int, int]:
    """(value, abserr, neval, ier) of the integral of fold_integrand over
    the folded-normal window around the ridge at root_lam = sqrt(lam), to
    relative accuracy QUAD_EPSREL; ier is QUADPACK's error code, 0 when
    the quadrature met that target."""
    hi = root_lam + QUAD_SPAN
    pts = [p for p in (max(root_lam - 8.0, 0.0), root_lam, root_lam + 12.0) if 0.0 < p < hi]
    value, abserr, neval, ier, _ = qagp(fold_integrand(weight, beta, u, root_lam),
                                        0.0, hi, pts, QUAD_EPSREL, 200)
    return value, abserr, neval, ier
