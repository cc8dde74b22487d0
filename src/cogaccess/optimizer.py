"""Throughput-maximizing access policies and stability-region tracing.

For a fixed primary arrival rate the secondary's problem is to pick its
access probabilities (and sensing time) to maximize its own stable
throughput subject to keeping the primary queue stable, optionally with a
protection margin added to the primary constraint.  The a_s optimum for a
fixed busy-outcome probability b_s is the clipped root of a concave
fractional program (mathcore.solve_fractional); b_s and tau are scanned
over explicit grids, which keeps results deterministic and testable.

Grid ties are broken toward smaller tau, then smaller b_s: less sensing
and less interference at equal throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, InfeasibleError
from .mathcore import FractionalProgram, solve_fractional
from .phy import (
    TAU_EDGE,
    LinkSuccess,
    PhyParams,
    SensingPoint,
    link_success,
    pfa_for_target_pmd,
    pmd_for_target_pfa,
    roc_from_threshold,
    secondary_success_prob,
)
from .schemes import SchemeConfig, Variant

__all__ = [
    "FixedFalseAlarm",
    "FixedMisdetection",
    "FixedThreshold",
    "FixedSensing",
    "TargetMode",
    "Channel",
    "OperatingPoint",
    "OptimizationRequest",
    "TauResult",
    "OptimizationResult",
    "RegionPoint",
    "RegionCurve",
    "SwitchEntry",
    "SwitchPolicy",
    "UNION",
    "default_tau_grid",
    "default_b_s_grid",
    "b_s_scan_grid",
    "operating_points",
    "optimal_as_s1",
    "optimal_as_s2_given",
    "optimal_as_s0",
    "optimize_sc",
    "optimize_s1",
    "optimize_s2",
    "optimize_s0",
    "optimize",
    "optimize_with_margin",
    "trace_region",
    "switch_policy",
    "primary_delay",
]


# --- sensing target modes ---------------------------------------------------

@dataclass(frozen=True)
class FixedFalseAlarm:
    """Sweep tau while holding the false-alarm probability at a target."""

    p_fa: float


@dataclass(frozen=True)
class FixedMisdetection:
    """Sweep tau while holding the misdetection probability at a target."""

    p_md: float


@dataclass(frozen=True)
class FixedThreshold:
    """Sweep tau at a fixed detector threshold; both ROC legs move."""

    epsilon: float


@dataclass(frozen=True)
class FixedSensing:
    """A single explicit detector operating point, independent of any grid.

    This is how operating points given directly as (tau, p_fa, p_md)
    triples enter the optimizer.
    """

    point: SensingPoint


TargetMode = Union[FixedFalseAlarm, FixedMisdetection, FixedThreshold, FixedSensing]
Channel = Union[PhyParams, LinkSuccess]

UNION = "UNION"


@dataclass(frozen=True)
class OperatingPoint:
    """Resolved per-tau quantities the scheme objectives consume."""

    tau: float
    p_fa: float
    p_md: float
    p_bar_s_sd: float


@dataclass(frozen=True)
class OptimizationRequest:
    variant: Variant
    lambda_p: float
    target_mode: TargetMode
    tau_grid: tuple[float, ...] = ()
    b_s_grid: tuple[float, ...] = ()
    margin: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.lambda_p <= 1.0):
            raise DomainError(f"lambda_p must be in [0, 1], got {self.lambda_p!r}")
        if not (math.isfinite(self.margin) and self.margin >= 0.0):
            raise DomainError(f"margin must be >= 0, got {self.margin!r}")
        object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        object.__setattr__(self, "b_s_grid", tuple(float(b) for b in self.b_s_grid))
        if any(t <= 0.0 for t in self.tau_grid):
            raise DomainError("tau grid entries must be > 0 (tau = 0 is the S0 scheme)")
        if list(self.tau_grid) != sorted(set(self.tau_grid)):
            raise DomainError("tau grid must be strictly increasing")
        if any(not 0.0 <= b <= 1.0 for b in self.b_s_grid):
            raise DomainError("b_s grid entries must be probabilities")
        if list(self.b_s_grid) != sorted(set(self.b_s_grid)):
            raise DomainError("b_s grid must be strictly increasing")


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
    designed_delay_bound: float | None = None


@dataclass(frozen=True)
class RegionPoint:
    lambda_p: float
    lambda_s: float
    scheme: str
    tau: float
    a_s: float
    b_s: float


@dataclass(frozen=True)
class RegionCurve:
    scheme: str
    points: tuple[RegionPoint, ...]

    def __post_init__(self) -> None:
        lams = [p.lambda_p for p in self.points]
        if lams != sorted(set(lams)):
            raise DomainError("region curve lambda_p values must be strictly increasing")
        if any(p.lambda_s < 0.0 for p in self.points):
            raise DomainError("region boundary values must be non-negative")


@dataclass(frozen=True)
class SwitchEntry:
    lambda_p: float
    scheme: str
    tau: float
    a_s: float
    b_s: float


@dataclass(frozen=True)
class SwitchPolicy:
    """Per-lambda_p argmax labels of a union curve: which scheme to run."""

    entries: tuple[SwitchEntry, ...]


def default_tau_grid(slot_duration: float, count: int = 64) -> tuple[float, ...]:
    """Log-spaced sensing times from the 0-adjacent edge up to (1-edge)*T."""
    if slot_duration <= 0.0:
        raise DomainError("slot duration must be > 0")
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


def operating_points(req: OptimizationRequest, channel: Channel) -> list[OperatingPoint]:
    """Resolve the request's sensing mode into concrete per-tau points."""
    mode = req.target_mode
    if isinstance(mode, FixedSensing):
        pt = mode.point
        return [
            OperatingPoint(
                tau=pt.tau,
                p_fa=pt.p_fa,
                p_md=pt.p_md,
                p_bar_s_sd=link_success(channel, pt.tau).p_bar_s_sd,
            )
        ]
    if not isinstance(channel, PhyParams):
        raise DomainError(
            "tau-dependent target modes need full PhyParams; "
            "fixed link probabilities only support FixedSensing"
        )
    if not req.tau_grid:
        raise DomainError("tau grid must be non-empty for tau-dependent target modes")
    points = []
    for tau in req.tau_grid:
        if isinstance(mode, FixedFalseAlarm):
            sp = pmd_for_target_pfa(channel, mode.p_fa, tau)
        elif isinstance(mode, FixedMisdetection):
            sp = pfa_for_target_pmd(channel, mode.p_md, tau)
        elif isinstance(mode, FixedThreshold):
            sp = roc_from_threshold(channel, mode.epsilon, tau)
        else:
            raise DomainError(f"unknown target mode {mode!r}")
        points.append(
            OperatingPoint(
                tau=tau,
                p_fa=sp.p_fa,
                p_md=sp.p_md,
                p_bar_s_sd=secondary_success_prob(channel, tau),
            )
        )
    return points


# --- closed-form access probabilities ---------------------------------------

def _check_unit(name: str, value: float) -> None:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise DomainError(f"{name} must be in [0, 1], got {value!r}")


def optimal_as_s1(lambda_p: float, p_md: float, p_bar_p_pd: float, *, margin: float = 0.0) -> float:
    """Optimal idle-outcome access probability for S1.

    Unconstrained optimum (1 - sqrt(lambda_p/p_bar_p_pd))/p_md, clipped to
    [0, 1] and to the primary-stability cap; the cap only binds when a
    protection margin tightens the constraint.
    """
    _check_unit("lambda_p", lambda_p)
    _check_unit("p_md", p_md)
    _check_unit("p_bar_p_pd", p_bar_p_pd)
    if margin < 0.0:
        raise DomainError(f"margin must be >= 0, got {margin!r}")
    if lambda_p + margin > p_bar_p_pd:
        raise InfeasibleError(
            f"S1 infeasible: lambda_p + margin = {lambda_p + margin!r} exceeds p_bar_p_pd = {p_bar_p_pd!r}"
        )
    if p_md == 0.0:
        return 1.0  # sensing never misses; access cannot hurt the primary
    cap = (1.0 - (lambda_p + margin) / p_bar_p_pd) / p_md
    root = (1.0 - math.sqrt(lambda_p / p_bar_p_pd)) / p_md
    return min(max(root, 0.0), min(1.0, cap))


def optimal_as_s2_given(
    b_s: float,
    lambda_p: float,
    p_md: float,
    p_fa: float,
    p_bar_p_pd: float,
    *,
    margin: float = 0.0,
) -> float:
    """Optimal idle-outcome access probability for S2 at a fixed b_s.

    Maps the fixed-b_s problem onto the concave fractional program with

        a = (lambda_p/p_bar_p_pd)*(1 - p_fa)      c = p_md
        f = (lambda_p/p_bar_p_pd)*p_fa*b_s        d = p_md + (1 - p_md)*(1 - b_s)
        K = 1 - p_fa                              w = (lambda_p + margin)/p_bar_p_pd

    Degenerate corners (idle primary, perfect sensing, certain false
    alarm, vanishing numerator constants) are resolved directly from the
    objective's monotonicity instead of the solver.
    """
    _check_unit("b_s", b_s)
    _check_unit("lambda_p", lambda_p)
    _check_unit("p_md", p_md)
    _check_unit("p_fa", p_fa)
    _check_unit("p_bar_p_pd", p_bar_p_pd)
    if margin < 0.0:
        raise DomainError(f"margin must be >= 0, got {margin!r}")
    if p_bar_p_pd == 0.0:
        if lambda_p + margin > 0.0:
            raise InfeasibleError("S2 infeasible: primary link never succeeds")
        return 1.0
    w = (lambda_p + margin) / p_bar_p_pd
    c = p_md
    d = p_md + (1.0 - p_md) * (1.0 - b_s)
    if d < w:
        raise InfeasibleError(
            f"S2 infeasible at b_s={b_s!r}: max primary service {d * p_bar_p_pd!r} "
            f"below lambda_p + margin = {lambda_p + margin!r}"
        )
    cap = 1.0 if c == 0.0 else min(1.0, (d - w) / c)
    if lambda_p == 0.0 or c == 0.0:
        return cap  # objective is non-decreasing in a_s
    if p_fa >= 1.0:
        return 0.0  # idle outcomes yield nothing; access only hurts the primary
    if p_fa == 0.0 or b_s == 0.0:
        # the constant term of the fraction's numerator vanishes; K cancels
        root = (d - math.sqrt((lambda_p / p_bar_p_pd) * d)) / c
        return min(max(root, 0.0), cap)
    prog = FractionalProgram(
        a=(lambda_p / p_bar_p_pd) * (1.0 - p_fa),
        f=(lambda_p / p_bar_p_pd) * p_fa * b_s,
        c=c,
        d=d,
        K=1.0 - p_fa,
        w=w,
    )
    return solve_fractional(prog).x_star


def optimal_as_s0(lambda_p: float, p_bar_p_pd: float, *, margin: float = 0.0) -> float:
    """Optimal access probability for the no-sensing scheme.

    1 - sqrt(lambda_p/p_bar_p_pd), clipped to the margin-tightened cap;
    plugging the result into the S0 service rates reproduces s0_boundary.
    """
    _check_unit("lambda_p", lambda_p)
    _check_unit("p_bar_p_pd", p_bar_p_pd)
    if margin < 0.0:
        raise DomainError(f"margin must be >= 0, got {margin!r}")
    if lambda_p + margin > p_bar_p_pd:
        raise InfeasibleError(
            f"S0 infeasible: lambda_p + margin = {lambda_p + margin!r} exceeds p_bar_p_pd = {p_bar_p_pd!r}"
        )
    cap = 1.0 - (lambda_p + margin) / p_bar_p_pd
    root = 1.0 - math.sqrt(lambda_p / p_bar_p_pd)
    return min(max(root, 0.0), cap)


# --- grid optimizers ---------------------------------------------------------

def _empty_factor(lambda_p: float, mu_p: float) -> float:
    """Pr{primary queue empty}, clamped so boundary rounding cannot go negative."""
    if lambda_p == 0.0:
        return 1.0
    if mu_p <= lambda_p:
        return 0.0
    return 1.0 - lambda_p / mu_p


def _best_row(rows: Sequence[TauResult]) -> TauResult | None:
    best = None
    for row in rows:
        if row.feasible and (best is None or row.lambda_s > best.lambda_s):
            best = row
    return best


def _result_from_rows(
    variant: Variant, rows: list[TauResult], points: dict[float, OperatingPoint]
) -> OptimizationResult:
    best = _best_row(rows)
    if best is None:
        return OptimizationResult(best=None, lambda_s_max=0.0, per_tau=tuple(rows), feasible=False)
    pt = points[best.tau]
    if variant is Variant.S0:
        sensing = SensingPoint(tau=0.0, p_fa=0.0, p_md=1.0)
    else:
        sensing = SensingPoint(tau=pt.tau, p_fa=pt.p_fa, p_md=pt.p_md)
    cfg = SchemeConfig(variant=variant, a_s=best.a_s, b_s=best.b_s, sensing=sensing)
    return OptimizationResult(
        best=cfg, lambda_s_max=best.lambda_s, per_tau=tuple(rows), feasible=True
    )


def optimize_sc(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
    """Scan tau for the conventional scheme (a_s = 1, no busy access)."""
    lam, m = req.lambda_p, req.margin
    pp = link_success(channel, 0.0).p_bar_p_pd
    pts = operating_points(req, channel)
    rows = []
    for pt in pts:
        mu_p = pp * (1.0 - pt.p_md)
        if lam + m > mu_p:
            rows.append(TauResult(pt.tau, 1.0, 0.0, 0.0, False))
            continue
        lam_s = pt.p_bar_s_sd * (1.0 - pt.p_fa) * _empty_factor(lam, mu_p)
        rows.append(TauResult(pt.tau, 1.0, 0.0, lam_s, True))
    return _result_from_rows(Variant.SC, rows, {pt.tau: pt for pt in pts})


def optimize_s1(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
    """Scan tau; a_s is closed-form at each point."""
    lam, m = req.lambda_p, req.margin
    pp = link_success(channel, 0.0).p_bar_p_pd
    pts = operating_points(req, channel)
    rows = []
    for pt in pts:
        try:
            a = optimal_as_s1(lam, pt.p_md, pp, margin=m)
        except InfeasibleError:
            rows.append(TauResult(pt.tau, 0.0, 0.0, 0.0, False))
            continue
        mu_p = pp * (1.0 - a * pt.p_md)
        lam_s = a * pt.p_bar_s_sd * (1.0 - pt.p_fa) * _empty_factor(lam, mu_p)
        rows.append(TauResult(pt.tau, a, 0.0, lam_s, True))
    return _result_from_rows(Variant.S1, rows, {pt.tau: pt for pt in pts})


def optimize_s2(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
    """Scan (tau, b_s); a_s is closed-form at each cell."""
    lam, m = req.lambda_p, req.margin
    pp = link_success(channel, 0.0).p_bar_p_pd
    pts = operating_points(req, channel)
    b_grid = b_s_scan_grid(req.b_s_grid)
    rows = []
    for pt in pts:
        best_cell: tuple[float, float, float] | None = None  # (lambda_s, a, b)
        for b in b_grid:
            try:
                a = optimal_as_s2_given(b, lam, pt.p_md, pt.p_fa, pp, margin=m)
            except InfeasibleError:
                continue
            mu_p = pp * (pt.p_md * (1.0 - a) + (1.0 - pt.p_md) * (1.0 - b))
            lam_s = (
                (a * (1.0 - pt.p_fa) + b * pt.p_fa)
                * pt.p_bar_s_sd
                * _empty_factor(lam, mu_p)
            )
            if best_cell is None or lam_s > best_cell[0]:
                best_cell = (lam_s, a, b)
        if best_cell is None:
            rows.append(TauResult(pt.tau, 0.0, 0.0, 0.0, False))
        else:
            rows.append(TauResult(pt.tau, best_cell[1], best_cell[2], best_cell[0], True))
    return _result_from_rows(Variant.S2, rows, {pt.tau: pt for pt in pts})


def optimize_s0(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
    """No sensing: single closed-form point at tau = 0."""
    lam, m = req.lambda_p, req.margin
    links = link_success(channel, 0.0)
    pp, ps = links.p_bar_p_pd, links.p_bar_s_sd
    pt = OperatingPoint(tau=0.0, p_fa=0.0, p_md=1.0, p_bar_s_sd=ps)
    try:
        a = optimal_as_s0(lam, pp, margin=m)
    except InfeasibleError:
        rows = [TauResult(0.0, 0.0, 0.0, 0.0, False)]
        return _result_from_rows(Variant.S0, rows, {0.0: pt})
    mu_p = pp * (1.0 - a)
    lam_s = a * ps * _empty_factor(lam, mu_p)
    rows = [TauResult(0.0, a, 0.0, lam_s, True)]
    return _result_from_rows(Variant.S0, rows, {0.0: pt})


_OPTIMIZERS = {
    Variant.SC: optimize_sc,
    Variant.S1: optimize_s1,
    Variant.S2: optimize_s2,
    Variant.S0: optimize_s0,
}


def optimize(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
    """Dispatch to the per-variant optimizer named in the request."""
    return _OPTIMIZERS[req.variant](req, channel)


def optimize_with_margin(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
    """Optimize with the protection margin and report the designed delay bound.

    The margin tightens only the primary-stability constraint; the
    objective keeps the true lambda_p in the queue-empty factor.  The
    designed primary delay bound is (1 - lambda_p)/margin (infinite when
    the margin is zero, where this reduces to the plain problem).
    """
    if req.lambda_p + req.margin > 1.0:
        raise InfeasibleError(
            f"lambda_p + margin = {req.lambda_p + req.margin!r} exceeds one packet per slot"
        )
    result = optimize(req, channel)
    bound = math.inf if req.margin == 0.0 else (1.0 - req.lambda_p) / req.margin
    return replace(result, designed_delay_bound=bound)


def primary_delay(lambda_p: float, mu_p: float) -> float:
    """Mean primary queueing delay (1 - lambda_p)/(mu_p - lambda_p) in slots.

    Returns inf at or beyond the stability boundary (unbounded delay).
    """
    _check_unit("lambda_p", lambda_p)
    _check_unit("mu_p", mu_p)
    if mu_p <= lambda_p:
        return math.inf
    return (1.0 - lambda_p) / (mu_p - lambda_p)


# --- region tracing ----------------------------------------------------------

def trace_region(
    scheme: Variant | str,
    lambda_p_grid: Sequence[float],
    req: OptimizationRequest,
    channel: Channel,
) -> RegionCurve:
    """Trace the stability-region boundary over a lambda_p grid.

    For UNION the boundary is the pointwise maximum of the optimized S0
    and S2 boundaries and each point is labelled with the winning scheme
    (ties prefer S0: no sensing at equal throughput).  Infeasible points
    map to a zero boundary with a silent policy.
    """
    grid = [float(x) for x in lambda_p_grid]
    if not grid:
        raise DomainError("lambda_p grid must be non-empty")
    if grid != sorted(set(grid)):
        raise DomainError("lambda_p grid must be strictly increasing")
    if any(not 0.0 <= x <= 1.0 for x in grid):
        raise DomainError("lambda_p grid entries must be in [0, 1]")

    union = isinstance(scheme, str) and scheme.upper() == UNION
    if not union:
        scheme = Variant(scheme)

    points = []
    for lam in grid:
        req_lam = replace(req, lambda_p=lam)
        if union:
            candidates = [
                ("S0", optimize_s0(req_lam, channel)),
                ("S2", optimize_s2(replace(req_lam, variant=Variant.S2), channel)),
            ]
            label, res = candidates[0]
            for cand_label, cand in candidates[1:]:
                if cand.lambda_s_max > res.lambda_s_max:
                    label, res = cand_label, cand
        else:
            label = scheme.value
            res = _OPTIMIZERS[scheme](replace(req_lam, variant=scheme), channel)
        if res.feasible:
            cfg = res.best
            points.append(
                RegionPoint(
                    lambda_p=lam,
                    lambda_s=res.lambda_s_max,
                    scheme=label,
                    tau=cfg.sensing.tau,
                    a_s=cfg.a_s,
                    b_s=cfg.b_s,
                )
            )
        else:
            points.append(
                RegionPoint(lambda_p=lam, lambda_s=0.0, scheme=label, tau=0.0, a_s=0.0, b_s=0.0)
            )
    return RegionCurve(scheme=UNION if union else scheme.value, points=tuple(points))


def switch_policy(curve: RegionCurve) -> SwitchPolicy:
    """Read the per-lambda_p scheme choice off a traced curve."""
    return SwitchPolicy(
        entries=tuple(
            SwitchEntry(lambda_p=p.lambda_p, scheme=p.scheme, tau=p.tau, a_s=p.a_s, b_s=p.b_s)
            for p in curve.points
        )
    )
