"""Brute-force oracles, scalar references and test-only helpers.

The oracles and references evaluate objectives from first principles
(plain grid search over the feasible interval, one Python step per slot,
per row or per cell) and never call the code paths they are used to
check.  The helpers at the end drive the package the way several tests
need: a run with its whole trace, one kernel cell, the run's stability
verdict for any series, a stability window, the coupled dominance check,
trace ingestion.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from cogaccess import optimizer, sim
from cogaccess.errors import DomainError, InfeasibleError
from cogaccess.optimizer import (
    UNION,
    OptimizationRequest,
    OptimizationResult,
    RegionCurve,
    TauResult,
    b_s_scan_grid,
    operating_points,
)
from cogaccess.phy import Channel, SensingPoint
from cogaccess.schemes import SchemeConfig, ServiceRates, Variant


def grid_max_fractional(a, f, c, d, K, w, step=1e-6):
    """Grid-search maximizer of (a*x+f)/(c*x-d) + K*x on [0, min(1,(d-w)/c)].

    The grid contains both interval endpoints exactly, so clipped optima
    are found with zero error.
    """
    cap = min(1.0, (d - w) / c)
    if cap < 0.0:
        raise ValueError("infeasible program handed to the grid oracle")
    xs = np.arange(0.0, cap, step)
    xs = np.append(xs, cap)
    vals = (a * xs + f) / (c * xs - d) + K * xs
    i = int(np.argmax(vals))
    return float(xs[i]), float(vals[i])


def s2_program(b_s, lam, p_md, p_fa, p_bar_p_pd, margin=0.0):
    """Constants (a, f, c, d, K, w) of the fractional program whose maximizer
    is S2's a_s at a fixed b_s; its objective is lambda_s - b_s*p_fa at
    p_bar_s_sd = 1."""
    r = lam / p_bar_p_pd
    return (r * (1.0 - p_fa), r * p_fa * b_s, p_md, p_md + (1.0 - p_md) * (1.0 - b_s), 1.0 - p_fa,
            (lam + margin) / p_bar_p_pd)


def random_s2_cell(rng):
    """A feasible S2 cell (b_s, lambda_p, p_md, p_fa, p_bar_p_pd, margin)
    whose program constants are all positive."""
    while True:
        p_bar, lam, p_md, p_fa, b_s = rng.uniform(0.1, 1.0), *rng.uniform(0.0, 1.0, size=4)
        margin = rng.uniform(0.0, 0.1)
        _, _, _, d, _, w = s2_program(b_s, lam, p_md, p_fa, p_bar, margin)
        if d >= w:
            return b_s, lam, p_md, p_fa, p_bar, margin


def s2_rate_objective(a_s, b_s, lam, p_md, p_fa, p_bar_p_pd):
    """Secondary service rate (up to the p_bar_s_sd scale) of the S2 scheme."""
    a_s = np.asarray(a_s, dtype=float)
    mu_p = p_bar_p_pd * (p_md * (1.0 - a_s) + (1.0 - p_md) * (1.0 - b_s))
    if lam == 0.0:
        factor = np.ones_like(a_s)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = 1.0 - lam / mu_p
        factor = np.where(mu_p > 0.0, factor, -np.inf)
    return (a_s * (1.0 - p_fa) + b_s * p_fa) * factor


def grid_max_access(lam, p_md, p_fa, p_bar_p_pd, b_s, step=1e-6, margin=0.0):
    """Grid-search argmax of the S2 rate objective over feasible a_s.

    b_s = 0 degenerates to the S1 problem.  Returns None when even a_s = 0
    cannot satisfy the (margin-tightened) primary constraint.
    """
    d = p_md + (1.0 - p_md) * (1.0 - b_s)
    w = (lam + margin) / p_bar_p_pd
    if d < w:
        return None
    cap = 1.0 if p_md == 0.0 else min(1.0, (d - w) / p_md)
    xs = np.arange(0.0, cap, step)
    xs = np.append(xs, cap)
    vals = s2_rate_objective(xs, b_s, lam, p_md, p_fa, p_bar_p_pd)
    return float(xs[int(np.argmax(vals))])


def replay_queue(q0, departures, arrivals):
    """Queue recursion Q[t+1] = max(Q[t] - U[t], 0) + A[t] from a trace."""
    out = np.empty(len(departures) + 1, dtype=np.int64)
    out[0] = q0
    q = q0
    for t in range(len(departures)):
        q = max(q - int(departures[t]), 0) + int(arrivals[t])
        out[t + 1] = q
    return out


def _lindley_cumsum(q0: int, service: np.ndarray, arrivals: np.ndarray, out: np.ndarray) -> int:
    """Queue sizes at slot start under Q[t+1] = max(Q[t] - S[t], 0) + A[t].

    Writes Q[0..m-1] (Q[0] = q0) into `out` and returns Q[m].  The size
    just after slot t-1's departures, Y[t] = Q[t] - A[t-1], follows
    Lindley's recursion Y[t+1] = max(Y[t] + A[t-1] - S[t], 0), whose
    solution is the free walk minus its running minimum below zero.
    """
    walk = np.empty(len(service), dtype=np.int64)
    walk[0] = q0 - int(service[0])
    np.subtract(arrivals[:-1], service[1:], out=walk[1:], dtype=np.int64)
    np.cumsum(walk, out=walk)
    floor = np.minimum.accumulate(walk)
    np.minimum(floor, 0, out=floor)
    walk -= floor
    out[0] = q0
    np.add(walk[:-1], arrivals[:-1], out=out[1:])
    return int(walk[-1]) + int(arrivals[-1])


def solve_queues_fixed_point(qp0: int, qs0: int, p_service: np.ndarray, p_blocked: np.ndarray,
                             s_service: np.ndarray, arrival_p: np.ndarray, arrival_s: np.ndarray,
                             qp: np.ndarray, qs: np.ndarray, dominant: bool) -> tuple[int, int]:
    """The chunk solve `sim._solve_queues` must match, with its own Lindley
    recursion: both queues of one chunk, written into qp and qs; returns
    the sizes after the chunk's last slot.

    The primary is served when p_service and not (p_blocked and the
    secondary contends); the secondary is served when s_service and the
    primary is silent.  The first pass lets the secondary contend in every
    slot, which is the dominant system.  In original mode it contends only
    when backlogged: each further pass solves both queues for the qs > 0
    pattern of the pass before, resuming from the first slot whose bit
    changed.  Slot t's qs depends only on the pattern before t, so
    everything before that slot is exact and every pass fixes at least one
    more slot.
    """
    backlog = np.ones(len(p_service), dtype=bool)
    lo = 0
    while True:
        qp_end = _lindley_cumsum(qp0, p_service[lo:] & ~(p_blocked[lo:] & backlog[lo:]), arrival_p[lo:], qp[lo:])
        qs_end = _lindley_cumsum(qs0, s_service[lo:] & (qp[lo:] == 0), arrival_s[lo:], qs[lo:])
        if dominant:
            return qp_end, qs_end
        solved = qs[lo:] > 0
        changed = np.flatnonzero(solved != backlog[lo:])
        if changed.size == 0:
            return qp_end, qs_end
        backlog[lo:] = solved
        lo += int(changed[0])
        qp0, qs0 = int(qp[lo]), int(qs[lo])


def write_trace_csv_rowwise(trace, path, first=0):
    """Trace CSV written one csv.writerow per slot, slots numbered from
    `first`: the reference the chunked writer must match byte for byte."""
    names = {0: "none", 1: "ack", 2: "nack", 3: "ack-missed", 4: "nack-missed"}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "qp", "qs", "events", "feedback"])
        for t in range(len(trace.qp)):
            writer.writerow(
                [first + t, int(trace.qp[t]), int(trace.qs[t]), int(trace.events[t]),
                 names[int(trace.feedback[t])]]
            )


def drift_fraction(series):
    """Least-squares slope of a series against the slot index, as an exact
    Fraction from the definitional sums; None below two slots."""
    ys = [int(v) for v in series]
    n = len(ys)
    s_t, s_tt = sum(range(n)), sum(t * t for t in range(n))
    s_y, s_ty = sum(ys), sum(t * y for t, y in enumerate(ys))
    den = n * s_tt - s_t * s_t
    return Fraction(n * s_ty - s_t * s_y, den) if den else None


def _success_threshold(p_bar):
    """Exponential-gain threshold whose exceedance probability is p_bar."""
    return -math.log(p_bar) if p_bar > 0.0 else math.inf


def batch_ratio_se_loop(num: np.ndarray, den: np.ndarray, batches: int = 50) -> float:
    """Standard error of sum(num)/sum(den) from contiguous batch ratios.

    Batch means absorb the serial correlation the queue state induces;
    for independent slots this reduces to the binomial standard error.
    """
    n = len(num)
    if n < batches * 2:
        batches = max(2, n // 2)
    edges = np.linspace(0, n, batches + 1, dtype=np.int64)
    ratios = []
    for i in range(batches):
        d = float(den[edges[i]:edges[i + 1]].sum())
        if d > 0.0:
            ratios.append(float(num[edges[i]:edges[i + 1]].sum()) / d)
    if len(ratios) < 2:
        return math.nan
    return float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))


def run_loop(cfg):
    """The scalar per-slot simulator, one Python step per slot: the
    reference `cogaccess.sim.run` must match field for field and trace for
    trace.  Returns (SimResult, SimTrace)."""
    n = cfg.slots
    links = cfg.phy.links(cfg.scheme.sensing.tau)
    p_fa, p_md = cfg.scheme.sensing.p_fa, cfg.scheme.sensing.p_md
    dominant = cfg.mode is sim.SimMode.DOMINANT

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(7)]
    rng_arr_p, rng_arr_s, rng_sense, rng_coin, rng_chan_p, rng_chan_s, rng_fb = streams

    arrival_p = (rng_arr_p.random(n) < cfg.lambda_p).tolist()
    arrival_s = (rng_arr_s.random(n) < cfg.lambda_s).tolist()
    u = rng_sense.random(n)
    busy_if_tx = (u < 1.0 - p_md).tolist()
    busy_if_idle = (u < p_fa).tolist()
    u = rng_coin.random(n)
    coin_idle = (u < cfg.scheme.a_s).tolist()
    coin_busy = (u < cfg.scheme.b_s).tolist()
    chan_p_ok = (rng_chan_p.standard_exponential(n) >= _success_threshold(links.p_bar_p_pd)).tolist()
    chan_s_ok = (rng_chan_s.standard_exponential(n) >= _success_threshold(links.p_bar_s_sd)).tolist()
    fb_heard = (rng_fb.random(n) < 1.0 - cfg.feedback_error).tolist()
    del u

    # per-slot indicator series (batch-mean standard errors need them)
    ser_ptx = bytearray(n)
    ser_pdep = bytearray(n)
    ser_ssucc = bytearray(n)
    ser_snon = bytearray(n)
    ser_sdep = bytearray(n)

    tr_qp = np.zeros(n, dtype=np.int64)
    tr_qs = np.zeros(n, dtype=np.int64)
    tr_events = bytearray(n)
    tr_feedback = bytearray(n)

    pending: deque[int] = deque([-1] * cfg.initial_qp)  # arrival slot per queued primary packet
    qs = cfg.initial_qs
    acks_heard = 0
    heard = 0
    delay_sum = 0
    p_dep_total = 0
    s_dep_total = 0

    for t in range(n):
        qp_start = len(pending)
        qs_start = qs
        ptx = qp_start > 0
        sensed_busy = busy_if_tx[t] if ptx else busy_if_idle[t]
        coin = coin_busy[t] if sensed_busy else coin_idle[t]
        s_has_packet = qs_start > 0
        stx = coin and (s_has_packet or dominant)
        collision = ptx and stx
        p_succ = ptx and not stx and chan_p_ok[t]
        s_succ = stx and not ptx and chan_s_ok[t]

        if p_succ:
            delay_sum += t - pending.popleft()
            p_dep_total += 1
            ser_pdep[t] = 1
        s_dep = s_succ and s_has_packet
        if s_dep:
            qs -= 1
            s_dep_total += 1
            ser_sdep[t] = 1
        if ptx:
            ser_ptx[t] = 1
            if fb_heard[t]:
                heard += 1
                if p_succ:
                    acks_heard += 1
        if s_succ:
            ser_ssucc[t] = 1
        if s_has_packet:
            ser_snon[t] = 1

        tr_qp[t] = qp_start
        tr_qs[t] = qs_start
        ev = 0
        if arrival_p[t]:
            ev |= sim.EV_ARRIVAL_P
        if arrival_s[t]:
            ev |= sim.EV_ARRIVAL_S
        if ptx:
            ev |= sim.EV_PRIMARY_TX
        if stx:
            ev |= sim.EV_SECONDARY_TX
        if collision:
            ev |= sim.EV_COLLISION
        if p_succ:
            ev |= sim.EV_PRIMARY_SUCCESS
        if s_succ:
            ev |= sim.EV_SECONDARY_SUCCESS
        if sensed_busy:
            ev |= sim.EV_SENSED_BUSY
        tr_events[t] = ev
        if ptx:
            if fb_heard[t]:
                tr_feedback[t] = sim.FB_ACK_HEARD if p_succ else sim.FB_NACK_HEARD
            else:
                tr_feedback[t] = sim.FB_ACK_MISSED if p_succ else sim.FB_NACK_MISSED

        if arrival_p[t]:
            pending.append(t)
        if arrival_s[t]:
            qs += 1

    ptx_arr = np.frombuffer(bytes(ser_ptx), dtype=np.uint8)
    pdep_arr = np.frombuffer(bytes(ser_pdep), dtype=np.uint8)
    ssucc_arr = np.frombuffer(bytes(ser_ssucc), dtype=np.uint8)
    snon_arr = np.frombuffer(bytes(ser_snon), dtype=np.uint8)
    sdep_arr = np.frombuffer(bytes(ser_sdep), dtype=np.uint8)

    ptx_slots = int(ptx_arr.sum())
    mu_p = p_dep_total / ptx_slots if ptx_slots else math.nan
    mu_p_se = batch_ratio_se_loop(pdep_arr, ptx_arr) if ptx_slots else math.nan
    if dominant:
        # the secondary always has something to send: its service rate is
        # the unconditional per-slot success rate, dummies included
        mu_s = float(ssucc_arr.mean())
        mu_s_se = batch_ratio_se_loop(ssucc_arr, np.ones(n, dtype=np.uint8))
    else:
        snon_slots = int(snon_arr.sum())
        mu_s = s_dep_total / snon_slots if snon_slots else math.nan
        mu_s_se = batch_ratio_se_loop(sdep_arr, snon_arr) if snon_slots else math.nan

    trace = sim.SimTrace(
        qp=tr_qp,
        qs=tr_qs,
        events=np.frombuffer(bytes(tr_events), dtype=np.uint8),
        feedback=np.frombuffer(bytes(tr_feedback), dtype=np.uint8),
    )
    result = sim.SimResult(
        slots=n,
        mode=cfg.mode,
        empirical_mu_p=mu_p,
        empirical_mu_p_se=mu_p_se,
        empirical_mu_s=mu_s,
        empirical_mu_s_se=mu_s_se,
        empirical_p_empty=1.0 - ptx_slots / n,
        mean_primary_delay=delay_sum / p_dep_total if p_dep_total else math.nan,
        primary_departures=p_dep_total,
        secondary_departures=s_dep_total,
        feedback_counts=sim.FeedbackCounts(A=acks_heard, M=heard, N=n),
        stability=stability(tr_qp),
    )
    return result, trace


# --- scalar closed forms and grid optimizers: the reference of optimizer.scan -----
# The per-cell closed forms and the per-tau and per-lambda_p loops the numpy
# kernel replaced; the kernel matches them bit for bit.

# Where lambda_p > 0 is so small that the optimum a_s rounds up to 1 and
# a_s = 1 would leave the primary no service, a_s is held just below 1.
_BELOW_ONE = 1.0 - 2.0**-53


def _check_unit(name: str, value: float) -> None:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise DomainError(f"{name} must be in [0, 1], got {value!r}")


def optimal_as_s1(lambda_p: float, p_md: float, p_bar_p_pd: float, *, margin: float = 0.0) -> float:
    """Optimal idle-outcome access probability for S1: the unconstrained
    optimum (1 - sqrt(lambda_p/p_bar_p_pd))/p_md, clipped to [0, 1] and to
    the margin-tightened primary-stability cap."""
    _check_unit("lambda_p", lambda_p)
    _check_unit("p_md", p_md)
    _check_unit("p_bar_p_pd", p_bar_p_pd)
    if margin < 0.0:
        raise DomainError(f"margin must be >= 0, got {margin!r}")
    if lambda_p + margin > p_bar_p_pd:
        raise InfeasibleError(f"S1 infeasible: lambda_p + margin exceeds p_bar_p_pd = {p_bar_p_pd!r}")
    if p_md == 0.0 or p_bar_p_pd == 0.0:
        return 1.0  # sensing never misses, or no primary traffic to hurt
    cap = (1.0 - (lambda_p + margin) / p_bar_p_pd) / p_md
    root = (1.0 - math.sqrt(lambda_p / p_bar_p_pd)) / p_md
    a = min(max(root, 0.0), min(1.0, cap))
    return _BELOW_ONE if a == 1.0 and p_md == 1.0 and lambda_p > 0.0 else a


def optimal_as_s2_given(b_s, lambda_p, p_md, p_fa, p_bar_p_pd, *, margin=0.0):
    """Optimal idle-outcome access probability for S2 at a fixed b_s.

    The fixed-b_s problem is the concave fractional program
    max (a*x + f)/(c*x - d) + K*x on 0 <= x <= min(1, (d - w)/c) with

        a = (lambda_p/p_bar_p_pd)*(1 - p_fa)      c = p_md
        f = (lambda_p/p_bar_p_pd)*p_fa*b_s        d = p_md + (1 - p_md)*(1 - b_s)
        K = 1 - p_fa                              w = (lambda_p + margin)/p_bar_p_pd

    whose optimum is the smaller stationary root clipped to the interval.
    Degenerate corners (idle primary, perfect sensing, certain false
    alarm) follow from the objective's monotonicity.
    """
    for name, value in (("b_s", b_s), ("lambda_p", lambda_p), ("p_md", p_md), ("p_fa", p_fa),
                        ("p_bar_p_pd", p_bar_p_pd)):
        _check_unit(name, value)
    if margin < 0.0:
        raise DomainError(f"margin must be >= 0, got {margin!r}")
    if p_bar_p_pd == 0.0:
        if lambda_p + margin > 0.0:
            raise InfeasibleError("S2 infeasible: primary link never succeeds")
        return 1.0
    w = (lambda_p + margin) / p_bar_p_pd
    e = (1.0 - p_md) * (1.0 - b_s)
    c, d = p_md, p_md + e
    if d < w:
        raise InfeasibleError(f"S2 infeasible at b_s={b_s!r}: max primary service below lambda_p + margin")
    cap = 1.0 if c == 0.0 else min(1.0, (d - w) / c)
    if lambda_p == 0.0 or c == 0.0:
        return cap  # objective is non-decreasing in a_s
    if p_fa >= 1.0:
        return 0.0  # idle outcomes yield nothing; access only hurts the primary
    r = lambda_p / p_bar_p_pd
    f = r * p_fa * b_s
    if f == 0.0:
        root = (d - math.sqrt(r * d)) / c  # K cancels when f vanishes
    else:
        k = 1.0 - p_fa
        root = (d - math.sqrt((r * k * d + c * f) / k)) / c  # a*d is r*k*d: a = r*k may underflow
    a = min(max(root, 0.0), cap)
    return _BELOW_ONE if a == 1.0 and e == 0.0 else a


def optimal_as_s0(lambda_p: float, p_bar_p_pd: float, *, margin: float = 0.0) -> float:
    """Optimal access probability for the no-sensing scheme: 1 -
    sqrt(lambda_p/p_bar_p_pd), clipped to the margin-tightened cap."""
    _check_unit("lambda_p", lambda_p)
    _check_unit("p_bar_p_pd", p_bar_p_pd)
    if margin < 0.0:
        raise DomainError(f"margin must be >= 0, got {margin!r}")
    if lambda_p + margin > p_bar_p_pd:
        raise InfeasibleError(f"S0 infeasible: lambda_p + margin exceeds p_bar_p_pd = {p_bar_p_pd!r}")
    if p_bar_p_pd == 0.0:
        return 1.0  # no primary traffic to hurt
    a = min(max(1.0 - math.sqrt(lambda_p / p_bar_p_pd), 0.0), 1.0 - (lambda_p + margin) / p_bar_p_pd)
    return _BELOW_ONE if a == 1.0 and lambda_p > 0.0 else a


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
    variant: Variant, rows: list[TauResult], points: dict[float, SensingPoint], lam: float, margin: float
) -> OptimizationResult:
    bound = math.inf if margin == 0.0 else (1.0 - lam) / margin  # the designed primary delay bound
    best = _best_row(rows)
    if best is None:
        return OptimizationResult(best=None, lambda_s_max=0.0, per_tau=tuple(rows), feasible=False,
                                  designed_delay_bound=bound)
    pt = points[best.tau]
    if variant is Variant.S0:
        sensing = SensingPoint(tau=0.0, p_fa=0.0, p_md=1.0)
    else:
        sensing = SensingPoint(tau=pt.tau, p_fa=pt.p_fa, p_md=pt.p_md)
    cfg = SchemeConfig(variant=variant, a_s=best.a_s, b_s=best.b_s, sensing=sensing)
    return OptimizationResult(
        best=cfg, lambda_s_max=best.lambda_s, per_tau=tuple(rows), feasible=True, designed_delay_bound=bound
    )


def optimize_sc_loop(req: OptimizationRequest, lam: float, channel: Channel) -> OptimizationResult:
    """Scan tau for the conventional scheme (a_s = 1, no busy access)."""
    m = req.margin
    pp = channel.links(0.0).p_bar_p_pd
    pts = operating_points(req.target_mode, req.tau_grid, channel)
    rows = []
    for pt in pts:
        mu_p = pp * (1.0 - pt.p_md)
        if lam + m > mu_p:
            rows.append(TauResult(pt.tau, 1.0, 0.0, 0.0, False))
            continue
        lam_s = channel.links(pt.tau).p_bar_s_sd * (1.0 - pt.p_fa) * _empty_factor(lam, mu_p)
        rows.append(TauResult(pt.tau, 1.0, 0.0, lam_s, True))
    return _result_from_rows(Variant.SC, rows, {pt.tau: pt for pt in pts}, lam, m)


def optimize_s1_loop(req: OptimizationRequest, lam: float, channel: Channel) -> OptimizationResult:
    """Scan tau; a_s is closed-form at each point."""
    m = req.margin
    pp = channel.links(0.0).p_bar_p_pd
    pts = operating_points(req.target_mode, req.tau_grid, channel)
    rows = []
    for pt in pts:
        try:
            a = optimal_as_s1(lam, pt.p_md, pp, margin=m)
        except InfeasibleError:
            rows.append(TauResult(pt.tau, 0.0, 0.0, 0.0, False))
            continue
        mu_p = pp * (1.0 - a * pt.p_md)
        lam_s = a * channel.links(pt.tau).p_bar_s_sd * (1.0 - pt.p_fa) * _empty_factor(lam, mu_p)
        rows.append(TauResult(pt.tau, a, 0.0, lam_s, True))
    return _result_from_rows(Variant.S1, rows, {pt.tau: pt for pt in pts}, lam, m)


def optimize_s2_loop(req: OptimizationRequest, lam: float, channel: Channel) -> OptimizationResult:
    """Scan (tau, b_s); a_s is closed-form at each cell."""
    m = req.margin
    pp = channel.links(0.0).p_bar_p_pd
    pts = operating_points(req.target_mode, req.tau_grid, channel)
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
                * channel.links(pt.tau).p_bar_s_sd
                * _empty_factor(lam, mu_p)
            )
            if best_cell is None or lam_s > best_cell[0]:
                best_cell = (lam_s, a, b)
        if best_cell is None:
            rows.append(TauResult(pt.tau, 0.0, 0.0, 0.0, False))
        else:
            rows.append(TauResult(pt.tau, best_cell[1], best_cell[2], best_cell[0], True))
    return _result_from_rows(Variant.S2, rows, {pt.tau: pt for pt in pts}, lam, m)


def optimize_s0_loop(req: OptimizationRequest, lam: float, channel: Channel) -> OptimizationResult:
    """No sensing: single closed-form point at tau = 0."""
    m = req.margin
    links = channel.links(0.0)
    pp, ps = links.p_bar_p_pd, links.p_bar_s_sd
    pt = SensingPoint(tau=0.0, p_fa=0.0, p_md=1.0)
    try:
        a = optimal_as_s0(lam, pp, margin=m)
    except InfeasibleError:
        rows = [TauResult(0.0, 0.0, 0.0, 0.0, False)]
        return _result_from_rows(Variant.S0, rows, {0.0: pt}, lam, m)
    mu_p = pp * (1.0 - a)
    lam_s = a * ps * _empty_factor(lam, mu_p)
    rows = [TauResult(0.0, a, 0.0, lam_s, True)]
    return _result_from_rows(Variant.S0, rows, {0.0: pt}, lam, m)


OPTIMIZERS_LOOP = {
    Variant.SC: optimize_sc_loop,
    Variant.S1: optimize_s1_loop,
    Variant.S2: optimize_s2_loop,
    Variant.S0: optimize_s0_loop,
}


def region_curve(scheme: Variant | str, lambda_p_grid: Sequence[float], req: OptimizationRequest,
                 channel: Channel) -> RegionCurve:
    """The package's curve for a `region` scheme name on `req`'s problem with
    that variant: trace_region's, or for UNION union_curve of the S0 and S2
    curves, as the region command builds it."""
    if scheme == UNION:
        return optimizer.union_curve(*(optimizer.trace_region(replace(req, variant=v), lambda_p_grid, channel)
                                       for v in (Variant.S0, Variant.S2)))
    return optimizer.trace_region(replace(req, variant=scheme), lambda_p_grid, channel)


def trace_region_loop(
    scheme: Variant | str,
    lambda_p_grid: Sequence[float],
    req: OptimizationRequest,
    channel: Channel,
) -> RegionCurve:
    """Trace the stability-region boundary of `req`'s problem with the
    variant `scheme` over a lambda_p grid.

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

    rows = []  # (lambda_p, lambda_s, scheme, tau, a_s, b_s) per lambda_p
    for lam in grid:
        if union:
            candidates = [
                ("S0", optimize_s0_loop(replace(req, variant=Variant.S0), lam, channel)),
                ("S2", optimize_s2_loop(replace(req, variant=Variant.S2), lam, channel)),
            ]
            label, res = candidates[0]
            for cand_label, cand in candidates[1:]:
                if cand.lambda_s_max > res.lambda_s_max:
                    label, res = cand_label, cand
        else:
            label = scheme.value
            res = OPTIMIZERS_LOOP[scheme](replace(req, variant=scheme), lam, channel)
        if res.feasible:
            cfg = res.best
            rows.append((lam, res.lambda_s_max, label, cfg.sensing.tau, cfg.a_s, cfg.b_s))
        else:
            rows.append((lam, 0.0, label, 0.0, 0.0, 0.0))
    return RegionCurve(UNION if union else scheme.value, *(np.array(column) for column in zip(*rows)))


def curve_values(curve: RegionCurve) -> tuple:
    """A region curve's name and its columns as lists of each value's repr, so that two curves compare
    equal when every value is the same, the sign of a zero too (an array's own repr rounds)."""
    return (curve.scheme, *([repr(x) for x in column.tolist()] for column in curve[1:]))


def _fmt(x: float) -> str:
    return repr(float(x))


def sweep_rows_rowwise(blocks, lambda_p_grid):
    """The CSV rows of `sweep`'s (scheme, target kind, target value, GridScan) blocks, a row at a
    time: the writer that the column writer `cli._sweep_rows` replaced."""
    lams = [_fmt(lam) for lam in lambda_p_grid]
    for scheme_name, kind, value, grid in blocks:
        for j, pt in enumerate(grid.points):
            head = f"{scheme_name},{kind},{_fmt(value)},{_fmt(pt.tau)},"
            shown = f"{head}{_fmt(pt.p_fa)},{_fmt(pt.p_md)},"
            hidden = shown if kind == "none" else f"{head},,"  # S0 rows always name (0, 1)
            yield from (
                f"{shown if ok else hidden}{lam},{lam_s!r},{a_s!r},{b_s!r},{ok:d}\r\n"
                for lam, a_s, b_s, lam_s, ok in zip(lams, *(x[:, j].tolist() for x in grid[1:]))
            )


# --- closed-form predicates of the scheme layer -----------------------------------

class RatePair(NamedTuple):
    lambda_p: float
    lambda_s: float


class StabilityVerdict(NamedTuple):
    primary: bool
    secondary: bool


def s0_boundary(lambda_p: float, p_bar_p_pd: float, p_bar_s_sd: float) -> float:
    """S0 stability-region boundary p_bar_s_sd*(1 - sqrt(lambda_p/p_bar_p_pd))^2,
    already maximized over the access probability; 0 past p_bar_p_pd."""
    for name, value in (("lambda_p", lambda_p), ("p_bar_p_pd", p_bar_p_pd), ("p_bar_s_sd", p_bar_s_sd)):
        _check_unit(name, value)
    if p_bar_p_pd == 0.0 or lambda_p > p_bar_p_pd:
        return 0.0
    return p_bar_s_sd * (1.0 - math.sqrt(lambda_p / p_bar_p_pd)) ** 2


def is_stable(rates: ServiceRates, arrivals: RatePair) -> StabilityVerdict:
    """Loynes verdict per queue: stable iff arrival rate < service rate."""
    return StabilityVerdict(primary=arrivals.lambda_p < rates.mu_p, secondary=arrivals.lambda_s < rates.mu_s)


def s2_feasible(lambda_p: float, p_md: float, b_s: float, p_bar_p_pd: float) -> bool:
    """Whether S2 at this b_s can keep the primary stable: p_md + (1 -
    p_md)*(1 - b_s) >= lambda_p/p_bar_p_pd, i.e. even with no idle-outcome
    access the busy-outcome access leaves the primary enough service."""
    for name, value in (("lambda_p", lambda_p), ("p_md", p_md), ("b_s", b_s), ("p_bar_p_pd", p_bar_p_pd)):
        _check_unit(name, value)
    if lambda_p == 0.0:
        return True
    if p_bar_p_pd == 0.0:
        return False
    return p_md + (1.0 - p_md) * (1.0 - b_s) >= lambda_p / p_bar_p_pd


def gain_for_success_prob(target: float, rate_ratio: float) -> float:
    """SNR-gain product gamma*sigma2 with exp(-(2^rate_ratio - 1)/(gamma*sigma2))
    = target: calibrates a PhyParams link to a prescribed success probability."""
    if not (0.0 < target < 1.0):
        raise DomainError(f"target success probability must be in (0, 1), got {target!r}")
    if rate_ratio <= 0.0:
        raise DomainError(f"rate_ratio must be > 0, got {rate_ratio!r}")
    return (2.0**rate_ratio - 1.0) / (-math.log(target))


# --- test-only helpers ------------------------------------------------------------------

def traced_run(cfg):
    """`sim.run` with its whole trace: (SimResult, SimTrace), the trace
    concatenated from copies of the chunks the run hands its sink, which
    must arrive in slot order."""
    chunks = []

    def keep(lo, trace):
        assert lo == sum(len(chunk.qp) for chunk in chunks)
        chunks.append(sim.SimTrace(*(np.copy(getattr(trace, f.name)) for f in fields(trace))))

    result = sim.run(cfg, sink=keep)
    return result, sim.SimTrace(*(np.concatenate([getattr(c, f.name) for c in chunks]) for f in fields(sim.SimTrace)))


def kernel_s2_cell(b_s, lam, p_md, p_fa, p_bar_p_pd, margin=0.0):
    """The scan kernel's S2 optimum at one cell with a one-element b_s axis
    (`scan` always adds b_s = 0) and p_bar_s_sd = 1: (a_s, lambda_s, feasible)."""
    def one(x):
        return np.array([float(x)])

    with np.errstate(all="ignore"):
        a, _, lam_s, ok = optimizer._cells(Variant.S2, one(lam), one(p_fa), one(p_md), one(1.0), p_bar_p_pd, margin,
                                           one(b_s))
    return float(a[0]), float(lam_s[0]), bool(ok[0])


def stability(series: np.ndarray) -> sim.StabilityProbe:
    """The stability verdict `sim.run` gives its primary queue, for any
    integer series: the series fed to `sim._add_chunk_sums` a `sim._SIM_CHUNK`
    at a time, as the run feeds it, and judged by `sim._verdict`."""
    if not np.issubdtype(series.dtype, np.integer):
        raise DomainError(f"stability needs an integer series, got dtype {series.dtype}")
    sums, chunk = (0, 0), sim._SIM_CHUNK
    for lo in range(0, len(series), chunk):
        sums = sim._add_chunk_sums(sums, series[lo:lo + chunk], lo)
    return sim._verdict(len(series), sums, int(series[-1]))


def measure_stability(cfg, window: int, queue: str = "primary"):
    """Run `window` slots of cfg, then judge the selected queue with `stability`."""
    if window < 10_000:
        raise DomainError(f"stability window must be >= 1e4 slots, got {window!r}")
    if queue not in ("primary", "secondary"):
        raise DomainError(f"queue must be 'primary' or 'secondary', got {queue!r}")
    if queue == "primary":
        return sim.run(replace(cfg, slots=window)).stability
    return stability(traced_run(replace(cfg, slots=window))[1].qs)


@dataclass(frozen=True)
class DominanceReport:
    dominant_ge_original: bool
    saturation_indistinguishable: bool


def compare_dominant(cfg) -> DominanceReport:
    """Coupled original-vs-dominant check of the dominant-system argument.

    The two modes share every random stream; the dominant system's queues
    must never be shorter, slot by slot.  The saturation check reruns both
    modes with lambda_s = 1 and one packet seeded in the secondary queue
    (backlogged from the first slot, so no dummy is ever sent) and requires
    bitwise-identical traces.
    """
    _, original = traced_run(replace(cfg, mode=sim.SimMode.ORIGINAL))
    _, dominant = traced_run(replace(cfg, mode=sim.SimMode.DOMINANT))
    ge = bool(np.all(dominant.qp >= original.qp) and np.all(dominant.qs >= original.qs))
    sat_cfg = replace(cfg, lambda_s=1.0, initial_qs=max(1, cfg.initial_qs))
    _, sat_orig = traced_run(replace(sat_cfg, mode=sim.SimMode.ORIGINAL))
    _, sat_dom = traced_run(replace(sat_cfg, mode=sim.SimMode.DOMINANT))
    identical = all(np.array_equal(getattr(sat_orig, k), getattr(sat_dom, k))
                    for k in ("qp", "qs", "events", "feedback"))
    return DominanceReport(dominant_ge_original=ge, saturation_indistinguishable=identical)


def feedback_log_from_trace_csv(path: str) -> sim.FeedbackCounts:
    """Rebuild the learning-phase counting summary from an exported trace CSV."""
    n = m = a = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            n += 1
            m += row["feedback"] in ("ack", "nack")
            a += row["feedback"] == "ack"
    return sim.FeedbackCounts(A=a, M=m, N=n)
