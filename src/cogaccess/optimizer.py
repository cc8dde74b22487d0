"""Throughput-maximizing access policies and stability-region tracing.

For a fixed primary arrival rate the secondary's problem is to pick its
access probabilities (and sensing time) to maximize its own stable
throughput subject to keeping the primary queue stable, optionally with a
protection margin added to the primary constraint.  The a_s optimum for a
fixed busy-outcome probability b_s is the clipped smaller root of a
concave fractional program; b_s and tau are scanned over explicit grids,
which keeps results deterministic and testable.

An OptimizationRequest is the problem and the primary load is where it
is solved: every solver takes (request, load, channel).  One numpy
kernel, `scan`, solves every access problem in the package: `optimize`,
region tracing, sweeps and the estimator's policy.  It evaluates
(lambda_p, tau, b_s) cells, resolving each tau's operating point and
secondary link once a scan, in passes of about _BLOCK elements, which
bounds its temporaries.  Nothing is kept between scans.
The variants are pinned versions of S2 (S1: b_s = 0; Sc: also a_s = 1;
S0: p_fa = 0, p_md = 1): the kernel has roots per variant, rates from
`schemes.rates`, whose S1 form is not S2's at b_s = 0 (that differs in
the last digits).  The scalar closed forms the kernel matches bit for
bit live in tests/oracles.py as its reference.

Grid ties are broken toward smaller tau, then smaller b_s: less sensing
and less interference at equal throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, increasing, real
from .phy import (
    TAU_EDGE,
    Channel,
    PhyParams,
    SensingPoint,
    pfa_for_target_pmd,
    pmd_for_target_pfa,
    roc_from_threshold,
)
from .schemes import NO_SENSING, SchemeConfig, Variant, rates

__all__ = [
    "FixedFalseAlarm",
    "FixedMisdetection",
    "FixedThreshold",
    "FixedSensing",
    "TargetMode",
    "OptimizationRequest",
    "TauResult",
    "OptimizationResult",
    "RegionCurve",
    "UNION",
    "default_tau_grid",
    "default_b_s_grid",
    "b_s_scan_grid",
    "operating_points",
    "optimize",
    "GridScan",
    "scan",
    "trace_region",
    "union_curve",
    "primary_delay",
]


# --- sensing target modes ---------------------------------------------------
# A target mode answers `pinned`, whether it is one point whatever the tau
# grid, and its sweep axis: `kind`, the name of the axis, and `value`, its
# value there.  A mode that is not pinned has `at(params, tau)`, its ROC
# point at tau, and one field, named `kind`; a pinned one has `point`.

class _RocTarget:
    pinned = False
    value = property(lambda self: getattr(self, self.kind))


@dataclass(frozen=True)
class FixedFalseAlarm(_RocTarget):
    """Sweep tau while holding the false-alarm probability at a target."""

    p_fa: float
    kind = "p_fa"

    def at(self, params: PhyParams, tau: float) -> SensingPoint:
        return pmd_for_target_pfa(params, self.p_fa, tau)


@dataclass(frozen=True)
class FixedMisdetection(_RocTarget):
    """Sweep tau while holding the misdetection probability at a target."""

    p_md: float
    kind = "p_md"

    def at(self, params: PhyParams, tau: float) -> SensingPoint:
        return pfa_for_target_pmd(params, self.p_md, tau)


@dataclass(frozen=True)
class FixedThreshold(_RocTarget):
    """Sweep tau at a fixed detector threshold; both ROC legs move."""

    epsilon: float
    kind = "epsilon"

    def at(self, params: PhyParams, tau: float) -> SensingPoint:
        return roc_from_threshold(params, self.epsilon, tau)


@dataclass(frozen=True)
class FixedSensing:
    """A single explicit detector operating point, independent of any grid.

    This is how operating points given directly as (tau, p_fa, p_md)
    triples enter the optimizer.
    """

    point: SensingPoint
    pinned, kind, value = True, "fixed", 0.0


TargetMode = Union[FixedFalseAlarm, FixedMisdetection, FixedThreshold, FixedSensing]

UNION = "UNION"


@dataclass(frozen=True)
class OptimizationRequest:
    """One access problem: a variant (given by name or member; coerced with
    Variant(...)), its sensing target, tau and b_s grids, and the protection
    margin.  The primary load it is solved at is the solver's argument."""

    variant: Variant
    target_mode: TargetMode
    tau_grid: tuple[float, ...] = ()
    b_s_grid: tuple[float, ...] = ()
    margin: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "margin", real(self.margin, "margin", lo=0.0))
        if not isinstance(self.target_mode, TargetMode):
            raise DomainError(f"unknown target mode {self.target_mode!r}")
        tau = tuple(real(t, "tau grid entries", above=0.0) for t in self.tau_grid)  # tau = 0 is the S0 scheme
        object.__setattr__(self, "tau_grid", increasing(tau, "tau"))
        b_s = tuple(real(b, "b_s grid entries", 0.0, 1.0) for b in self.b_s_grid)
        object.__setattr__(self, "b_s_grid", increasing(b_s, "b_s"))


class TauResult(NamedTuple):
    tau: float
    a_s: float
    b_s: float
    lambda_s: float
    feasible: bool


@dataclass(frozen=True)
class OptimizationResult:
    best: SchemeConfig | None
    lambda_s_max: float
    per_tau: tuple[TauResult, ...]
    feasible: bool
    designed_delay_bound: float  # (1 - lambda_p)/margin, inf at margin 0


class RegionCurve(NamedTuple):
    """A stability-region boundary, one column entry per lambda_p: the
    largest stable secondary rate, the scheme that reaches it (for UNION,
    the winner of S0 and S2) and its tau, a_s and b_s.  An infeasible
    lambda_p has a zero rate and a silent policy (tau = a_s = b_s = 0)."""

    scheme: str
    lambda_p: np.ndarray
    lambda_s: np.ndarray
    schemes: np.ndarray
    tau: np.ndarray
    a_s: np.ndarray
    b_s: np.ndarray


def default_tau_grid(slot_duration: float, count: int = 64) -> tuple[float, ...]:
    """Log-spaced sensing times from the 0-adjacent edge up to (1-edge)*T."""
    slot_duration = real(slot_duration, "slot duration", above=0.0)
    grid = np.geomspace(TAU_EDGE * slot_duration, (1.0 - TAU_EDGE) * slot_duration, count)
    return tuple(float(t) for t in grid)


def default_b_s_grid(count: int = 33) -> tuple[float, ...]:
    return tuple(float(b) for b in np.linspace(0.0, 1.0, count))


def b_s_scan_grid(grid: Sequence[float]) -> tuple[float, ...]:
    """The b_s values an S2 scan visits: `grid` (default_b_s_grid() when
    empty) with b_s = 0 put in front when missing, so the scan always
    contains the S1 policy (S1 is S2 with b_s = 0)."""
    grid = tuple(grid) or default_b_s_grid()
    return grid if 0.0 in grid else (0.0,) + grid


def operating_points(mode: TargetMode, tau_grid: Sequence[float], channel: Channel) -> list[SensingPoint]:
    """Resolve a sensing mode into concrete points, one per tau of the grid
    (a FixedSensing mode ignores the grid: its point is the one point).
    Each call resolves every point afresh; nothing is kept."""
    if mode.pinned:
        return [mode.point]
    params = channel.detector()
    if not tau_grid:
        raise DomainError("tau grid must be non-empty for tau-dependent target modes")
    return [mode.at(params, tau) for tau in tau_grid]


# --- grid optimizers ---------------------------------------------------------

# (lambda_p, tau[, b_s]) elements per kernel pass.  A pass takes whole
# (lambda_p, tau) cells in row-major order, at least one, so it is a run of
# lambda_p rows or part of one.  Its temporaries, about twenty arrays of
# _BLOCK doubles (32 KiB), stay below malloc's mmap threshold and are
# reused from pass to pass: on a 64 x 32 x 33 region scan, 1,024-cell
# passes raised peak RSS 2.3 MiB above 124-cell ones, which run as fast.
_BLOCK = 4096

# The largest double below 1.  Where lambda_p > 0 is so small that the
# optimum a_s rounds up to 1 and a_s = 1 would leave the primary no service
# (p_md = 1, or b_s = 1 in S2), a_s is held here instead: the true optimum
# lies between the two, and this keeps mu_p > lambda_p.
_BELOW_ONE = 1.0 - 2.0**-53


class GridScan(NamedTuple):
    """Per-(lambda_p, tau) optima of one variant.

    `points` is the tau axis (NO_SENSING alone for S0); the arrays have
    shape (len(lambda_p grid), len(points)).  Infeasible cells hold a zero
    rate with a_s = b_s = 0 (a_s = 1 for Sc).
    """

    points: list[SensingPoint]
    a_s: np.ndarray
    b_s: np.ndarray
    lambda_s: np.ndarray
    feasible: np.ndarray

    def best(self) -> tuple[np.ndarray, np.ndarray]:
        """Per lambda_p row: the first tau with the largest feasible rate, and whether any is feasible."""
        return np.argmax(np.where(self.feasible, self.lambda_s, -np.inf), axis=1), self.feasible.any(axis=1)


def _empty_factor(lam: np.ndarray, mu_p: np.ndarray) -> np.ndarray:
    """Pr{primary queue empty}, clamped so boundary rounding cannot go negative."""
    return np.where(lam == 0.0, 1.0, np.where(mu_p <= lam, 0.0, 1.0 - lam / mu_p))


def _cells(variant, lam, p_fa, p_md, p_s, pp, margin, b):
    """a_s, b_s, lambda_s and feasibility of `variant` at each (lambda_p, point) cell.

    Roots per variant, rates from `schemes.rates`: each variant keeps its
    own root, cap and feasibility test, and S1 is not S2 evaluated at
    b_s = 0, because p_md + (1 - p_md) need not round to 1.  The
    substitutions that are exact are used: Sc is S1 with a_s = 1 and its
    own feasibility test, and S0 is S1 at NO_SENSING (every product with
    1.0 is exact).  S2 maximizes over b_s, its arrays' first axis, so each
    operation runs along the cells; its degenerate corners (idle primary,
    perfect sensing, certain false alarm, a dead primary link) are masks,
    applied in reverse order of precedence, to passes that hold them.
    """
    lm = lam + margin
    if variant is Variant.S2:
        bs = b[:, None]
        e = (1.0 - p_md) * (1.0 - bs)  # primary service left by busy outcomes, per unit p_bar_p_pd
        c, d, w, r, k = p_md, p_md + e, lm / pp, lam / pp, 1.0 - p_fa
        ok = ~(d < w)  # pp = 0 makes w inf (infeasible) or nan at lm = 0 (feasible)
        cap, no_c = np.minimum(1.0, (d - w) / c), c == 0.0
        if no_c.any():
            cap = np.where(no_c, 1.0, cap)
        f = r * p_fa * bs
        a = np.minimum(np.maximum((d - np.sqrt(np.where(f == 0.0, r * d, (r * k * d + c * f) / k))) / c, 0.0), cap)
        if not e.all():
            a = np.where((a == 1.0) & (e == 0.0), _BELOW_ONE, a)  # a_s = 1 would leave mu_p = 0
        for corner, value in ((p_fa >= 1.0, 0.0), ((lam == 0.0) | no_c, cap), (pp == 0.0, 1.0)):
            if np.any(corner):
                a = np.where(corner, value, a)
        del d, e, f, cap  # held through rates and the copy argmax makes to reduce axis 0, they raised peak RSS
        mu_p, access = rates(variant, a, bs, p_fa, p_md, pp, p_s)
        lam_s = access * _empty_factor(lam, mu_p)
        j = np.argmax(np.where(ok, lam_s, -np.inf), axis=0)  # first b_s of the largest rate
        i, ok = np.arange(j.size), ok.any(axis=0)
        return np.where(ok, a[j, i], 0.0), np.where(ok, b[j], 0.0), np.where(ok, lam_s[j, i], 0.0), ok
    if variant is Variant.SC:
        a = np.ones_like(lam)
        ok = ~(lm > pp * (1.0 - p_md))
    else:
        ok = ~(lm > pp)
        a = np.minimum(np.maximum((1.0 - np.sqrt(lam / pp)) / p_md, 0.0), np.minimum(1.0, (1.0 - lm / pp) / p_md))
        a = np.where((a == 1.0) & (p_md == 1.0) & (lam > 0.0), _BELOW_ONE, a)  # a_s = 1 would leave mu_p = 0
        a = np.where(ok, np.where((p_md == 0.0) | (pp == 0.0), 1.0, a), 0.0)
    mu_p, access = rates(variant, a, 0.0, p_fa, p_md, pp, p_s)
    lam_s = access * _empty_factor(lam, mu_p)
    return a, np.zeros_like(lam), np.where(ok, lam_s, 0.0), ok


def scan(req: OptimizationRequest, lambda_p_grid: Sequence[float], channel: Channel) -> GridScan:
    """Solve the request at every (lambda_p, tau) cell of `lambda_p_grid` and
    its tau grid.  Each tau's operating point and secondary link are
    resolved once a scan, and the cells are evaluated in passes of about
    _BLOCK elements."""
    lam = np.asarray(lambda_p_grid, dtype=float)
    bad = lam[~((lam >= 0.0) & (lam <= 1.0))]
    if bad.size:
        raise DomainError(f"lambda_p must be in [0, 1], got {float(bad[0])!r}")
    variant = req.variant
    points = [NO_SENSING] if variant is Variant.S0 else operating_points(req.target_mode, req.tau_grid, channel)
    p_s = [channel.links(p.tau).p_bar_s_sd for p in points]
    cols = np.array([[p.p_fa for p in points], [p.p_md for p in points], p_s])
    pp = channel.links(0.0).p_bar_p_pd
    b = np.array(b_s_scan_grid(req.b_s_grid))
    n, m = lam.size, len(points)
    step = max(1, _BLOCK // b.size) if variant is Variant.S2 else _BLOCK
    out = np.empty((4, n * m))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n * m, step):
            li, ti = np.divmod(np.arange(start, min(start + step, n * m)), m)
            out[:, start : start + li.size] = _cells(variant, lam[li], *cols[:, ti], pp, req.margin, b)
    a, b_s, lam_s, ok = out.reshape(4, n, m)
    return GridScan(points, a, b_s, lam_s, ok.astype(bool))


def optimize(req: OptimizationRequest, lambda_p: float, channel: Channel) -> OptimizationResult:
    """Solve the request at `lambda_p` over its tau (and b_s) grid.

    The margin tightens only the primary-stability constraint; the
    objective keeps the true lambda_p in the queue-empty factor.  The
    designed primary delay bound is (1 - lambda_p)/margin, infinite at
    margin 0; past lambda_p + margin = 1 every cell is infeasible.
    """
    grid = scan(req, (lambda_p,), channel)
    rows = tuple(TauResult(pt.tau, *cell) for pt, *cell in zip(grid.points, *(x[0].tolist() for x in grid[1:])))
    bound = math.inf if req.margin == 0.0 else (1.0 - lambda_p) / req.margin
    (j,), (feasible,) = grid.best()
    if not feasible:
        return OptimizationResult(None, 0.0, rows, False, bound)
    cfg = SchemeConfig(req.variant, rows[j].a_s, rows[j].b_s, grid.points[j])
    return OptimizationResult(cfg, rows[j].lambda_s, rows, True, bound)


def primary_delay(lambda_p: float, mu_p: float) -> float:
    """Mean primary queueing delay (1 - lambda_p)/(mu_p - lambda_p) in slots.

    Returns inf at or beyond the stability boundary (unbounded delay).
    """
    lambda_p, mu_p = real(lambda_p, "lambda_p", 0.0, 1.0), real(mu_p, "mu_p", 0.0, 1.0)
    if mu_p <= lambda_p:
        return math.inf
    return (1.0 - lambda_p) / (mu_p - lambda_p)


# --- region tracing ----------------------------------------------------------

def trace_region(req: OptimizationRequest, lambda_p_grid: Sequence[float], channel: Channel) -> RegionCurve:
    """Trace the request's stability-region boundary over a non-empty,
    strictly increasing lambda_p grid (UNION's is union_curve of the S0 and
    S2 curves).

    Infeasible points map to a zero boundary with a silent policy.
    """
    lam = np.array(lambda_p_grid, dtype=float)
    if lam.ndim != 1 or not lam.size or not (np.diff(lam) > 0.0).all():
        raise DomainError("lambda_p grid must be non-empty and strictly increasing")
    res, name = scan(req, lam, channel), req.variant.value
    j, ok = res.best()
    i = np.arange(lam.size)
    tau = np.array([p.tau for p in res.points])[j]
    a_s, b_s, lam_s = (np.where(ok, x[i, j], 0.0) for x in (res.a_s, res.b_s, res.lambda_s))
    return RegionCurve(name, lam, lam_s, np.full(lam.size, name), np.where(ok, tau, 0.0), a_s, b_s)


def union_curve(s0: RegionCurve, s2: RegionCurve) -> RegionCurve:
    """Pointwise maximum of S0 and S2 curves traced on one lambda_p grid, each point
    labelled with the winning scheme (ties prefer S0: no sensing at equal throughput)."""
    if s0.lambda_p.tobytes() != s2.lambda_p.tobytes():  # np.array_equal raised region's peak RSS by 80 KiB
        raise DomainError("union_curve needs S0 and S2 curves on the same lambda_p grid")
    wins = s2.lambda_s > s0.lambda_s
    return RegionCurve(UNION, s0.lambda_p, *(np.where(wins, c2, c0) for c0, c2 in zip(s0[2:], s2[2:])))
