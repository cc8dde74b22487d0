"""Brute-force oracles and scalar references for the fast paths under test.

Everything here evaluates objectives from first principles (plain grid
search over the feasible interval, one Python step per slot or per row)
and never calls the code paths it is used to check.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from cogaccess import sim
from cogaccess.errors import DomainError, InfeasibleError
from cogaccess.optimizer import (
    UNION,
    Channel,
    OperatingPoint,
    OptimizationRequest,
    OptimizationResult,
    RegionCurve,
    RegionPoint,
    TauResult,
    b_s_scan_grid,
    operating_points,
    optimal_as_s0,
    optimal_as_s1,
    optimal_as_s2_given,
)
from cogaccess.phy import SensingPoint, link_success
from cogaccess.schemes import SchemeConfig, Variant, effective_sensing


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


def write_trace_csv_rowwise(trace, path):
    """Trace CSV written one csv.writerow per slot, the reference the
    chunked writer must match byte for byte."""
    names = {0: "none", 1: "ack", 2: "nack", 3: "ack-missed", 4: "nack-missed"}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "qp", "qs", "events", "feedback"])
        for t in range(len(trace.qp)):
            writer.writerow(
                [t, int(trace.qp[t]), int(trace.qs[t]), int(trace.events[t]),
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
    trace."""
    n = cfg.slots
    links = link_success(cfg.phy, cfg.scheme.sensing.tau)
    p_fa, p_md = effective_sensing(cfg.scheme)
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

    record = cfg.record_traces
    tr_qp = np.zeros(n, dtype=np.int64)
    if record:
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
        if record:
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

    trace = None
    if record:
        trace = sim.SimTrace(
            qp=tr_qp,
            qs=tr_qs,
            events=np.frombuffer(bytes(tr_events), dtype=np.uint8),
            feedback=np.frombuffer(bytes(tr_feedback), dtype=np.uint8),
        )

    return sim.SimResult(
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
        primary_queue=tr_qp,
        trace=trace,
    )


def random_feasible_program(rng):
    """Six constants in (0.01, 5] with d >= w and c <= d."""
    a, f, c, d, K, w = rng.uniform(0.01, 5.0, size=6)
    if w > d:
        d, w = w, d
    c = min(c, d)
    return a, f, c, d, K, w


# --- scalar grid optimizers: the reference of optimizer.scan ----------------------
# The per-tau and per-lambda_p loops the numpy kernel replaced, unchanged
# except for the names: each cell calls the scalar closed forms.

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


def optimize_sc_loop(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
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


def optimize_s1_loop(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
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


def optimize_s2_loop(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
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


def optimize_s0_loop(req: OptimizationRequest, channel: Channel) -> OptimizationResult:
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


OPTIMIZERS_LOOP = {
    Variant.SC: optimize_sc_loop,
    Variant.S1: optimize_s1_loop,
    Variant.S2: optimize_s2_loop,
    Variant.S0: optimize_s0_loop,
}


def trace_region_loop(
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
                ("S0", optimize_s0_loop(req_lam, channel)),
                ("S2", optimize_s2_loop(replace(req_lam, variant=Variant.S2), channel)),
            ]
            label, res = candidates[0]
            for cand_label, cand in candidates[1:]:
                if cand.lambda_s_max > res.lambda_s_max:
                    label, res = cand_label, cand
        else:
            label = scheme.value
            res = OPTIMIZERS_LOOP[scheme](replace(req_lam, variant=scheme), channel)
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
