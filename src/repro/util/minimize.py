"""Bounded one-dimensional minimisation (Brent's method with golden-section
fallback), in pure Python.

A line-for-line port of the ``method="bounded"`` minimiser of
``scipy.optimize.minimize_scalar`` (Brent, *Algorithms for Minimization
without Derivatives*, ch. 5; Forsythe–Malcolm–Moler's ``fmin``): the same
points are probed in the same order with the same float arithmetic, so it
returns scipy's minimiser bit for bit.  That matters downstream: the
planned Step 1 iteration count at ``N = 2**60`` moves by about ``8e8`` per
unit of the optimised ``eps``, so even a last-digit drift in the optimum
can show up as a drift in a pinned integer schedule.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

__all__ = ["ScalarMinimum", "minimize_bounded"]

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
#: Evaluations allowed (scipy's default ``maxiter``); the optimal-``eps``
#: searches stop after 11 to 40.
_MAX_EVALUATIONS = 500


class ScalarMinimum(NamedTuple):
    """Result of :func:`minimize_bounded`.

    Attributes:
        x: the minimiser found.
        fun: ``func(x)``.
        success: ``False`` if the evaluations ran out or a NaN appeared.
    """

    x: float
    fun: float
    success: bool


def minimize_bounded(
    func: Callable[[float], float], lower: float, upper: float, xatol: float
) -> ScalarMinimum:
    """Minimise *func* over ``[lower, upper]`` to absolute accuracy *xatol*.

    Each step fits a parabola through the three best points and takes its
    vertex when it falls inside the bracket and shrinks the step; otherwise
    it takes a golden-section step into the larger part of the bracket.
    Probes never come closer than ``sqrt(eps) |x| + xatol / 3`` to each
    other or to the bounds.  The bounds themselves are never evaluated:
    a caller whose minimum may sit on a bound compares those endpoints
    itself.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("bounds must be finite")
    if lower > upper:
        raise ValueError("the lower bound exceeds the upper bound")

    a, b = lower, upper
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = func(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic step
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
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:  # too close to a bound
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0 else -step)
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
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALUATIONS:
            converged = False
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        converged = False
    return ScalarMinimum(xf, fx, converged)
