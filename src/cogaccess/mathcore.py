"""Numerical primitives: the Gaussian tail function and its inverse, which
the energy-detector ROC formulas in `phy` are written in."""

from __future__ import annotations

import math

from .errors import DomainError, real

__all__ = ["q_func", "q_inv"]


def q_func(z: float) -> float:
    """Gaussian tail probability Q(z) = Pr{N(0,1) > z}.

    Evaluated through the complementary error function, which is accurate
    to better than 1e-14 relative error over the |z| <= 8 range the ROC
    formulas exercise.
    """
    if type(z) is not float:
        z = real(z, "q_func's argument")
    if not math.isfinite(z):  # a ROC formula's argument past the float range: the message shows it
        raise DomainError(f"q_func requires a finite argument, got {z!r}")
    return 0.5 * math.erfc(z / math.sqrt(2.0))


_Q_INV_BRACKET = 10.0
_Q_INV_TOL = 1e-13


def q_inv(p: float) -> float:
    """Inverse Gaussian tail: the z with q_func(z) = p, for 0 < p < 1.

    Monotone bisection on q_func over [-10, 10].  Robustness is preferred
    over speed here; this is never an inner loop: the optimizer resolves
    each (sensing target, tau) operating point once per grid.
    """
    p = real(p, "q_inv's argument", above=0.0, below=1.0)
    lo, hi = -_Q_INV_BRACKET, _Q_INV_BRACKET
    # q_func is strictly decreasing: q_func(lo) > p > q_func(hi) for any
    # p representable away from the (0, 1) endpoints at this bracket.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_func(mid) > p:
            lo = mid
        else:
            hi = mid
        if hi - lo < _Q_INV_TOL:
            break
    return 0.5 * (lo + hi)
