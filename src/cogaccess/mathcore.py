"""Numerical primitives: Gaussian tail function, its inverse, and the
closed-form solver for the one-dimensional concave fractional program

    maximize   (a*x + f) / (c*x - d) + K*x
    subject to 0 <= x <= (d - w)/c,  x <= 1

with positive constants a, f, c, d, K, w.  Every access-probability
optimization in this package reduces to this program, so the solver is
kept exact (closed form) rather than iterative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleError

__all__ = ["q_func", "q_inv", "FractionalProgram", "FractionalSolution", "solve_fractional"]


def q_func(z: float) -> float:
    """Gaussian tail probability Q(z) = Pr{N(0,1) > z}.

    Evaluated through the complementary error function, which is accurate
    to better than 1e-14 relative error over the |z| <= 8 range the ROC
    formulas exercise.
    """
    z = float(z)
    if not math.isfinite(z):
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
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"q_inv requires 0 < p < 1, got {p!r}")
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


@dataclass(frozen=True)
class FractionalProgram:
    """Constants of the concave fractional program (all strictly positive).

    The problem is feasible iff d >= w; the solver additionally requires
    c <= d, which is what makes the objective concave on the feasible set.
    """

    a: float
    f: float
    c: float
    d: float
    K: float
    w: float

    def __post_init__(self) -> None:
        for name in ("a", "f", "c", "d", "K", "w"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise DomainError(f"FractionalProgram.{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise DomainError(f"FractionalProgram.{name} must be strictly positive, got {value!r}")

    @property
    def feasible(self) -> bool:
        return self.d >= self.w

    @property
    def upper_bound(self) -> float:
        """min(1, (d - w)/c): the right edge of the feasible interval."""
        return min(1.0, (self.d - self.w) / self.c)

    def objective(self, x: float) -> float:
        return (self.a * x + self.f) / (self.c * x - self.d) + self.K * x


@dataclass(frozen=True)
class FractionalSolution:
    x_star: float
    objective: float


def solve_fractional(prog: FractionalProgram) -> FractionalSolution:
    """Maximize the fractional program in closed form.

    The stationary point of the objective is the smaller root of
    (c*x - d)^2 = (a*d + c*f)/K; the larger root lies beyond the feasible
    interval.  Concavity makes clipping the smaller root onto
    [0, min(1, (d - w)/c)] exact.
    """
    if prog.c > prog.d:
        raise DomainError(
            f"solve_fractional requires c <= d for concavity, got c={prog.c!r}, d={prog.d!r}"
        )
    if not prog.feasible:
        raise InfeasibleError(
            f"fractional program infeasible: d={prog.d!r} < w={prog.w!r}"
        )
    root = (prog.d - math.sqrt((prog.a * prog.d + prog.c * prog.f) / prog.K)) / prog.c
    x_star = min(max(root, 0.0), prog.upper_bound)
    return FractionalSolution(x_star=x_star, objective=prog.objective(x_star))
