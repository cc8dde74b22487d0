"""Slotted-time Monte Carlo simulation of the interacting primary and
secondary queues.

Per slot, in order: the primary transmits its head packet whenever its
queue is non-empty; the secondary senses (except under S0) and sees a
busy outcome with probability 1 - p_md if the primary is transmitting,
p_fa otherwise; it then transmits per its scheme's access probabilities
(in dominant mode a dummy packet stands in when its queue is empty);
per-slot Rayleigh fades decide outage on each link; simultaneous
transmissions destroy both packets; an ACK/NACK goes out on every primary
transmission and is overheard by the secondary with probability
1 - feedback_error.  Departures are applied before the slot's Bernoulli
arrivals are queued, and queue sizes are measured at the beginning of the
slot, so a recorded trace replays exactly through
Q[t+1] = max(Q[t] - departures[t], 0) + arrivals[t].

Randomness is split into seven per-source streams (primary arrivals,
secondary arrivals, sensing noise, access coins, each link's fades,
feedback decoding), each consumed once per slot regardless of queue
state.  Two runs that differ only in original/dominant mode therefore
share arrivals, sensing outcomes, coin tosses, channel realizations, and
feedback noise, which is exactly the coupling the dominant-system
argument needs.  Failed packets stay at the head of their queue; a packet
leaves only on success.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .phy import LinkSuccess, PhyParams, link_success
from .schemes import SchemeConfig, effective_sensing

__all__ = [
    "SimMode",
    "SimConfig",
    "SimTrace",
    "FeedbackCounts",
    "SimResult",
    "StabilityProbe",
    "DominanceReport",
    "run",
    "stability",
    "measure_stability",
    "compare_dominant",
    "write_trace_csv",
    "DRIFT_EPSILON",
]

# Finite-run stability surrogates: a queue is called stable when its
# least-squares drift is at most DRIFT_EPSILON packets/slot and its
# terminal size stays below TERMINAL_FACTOR * sqrt(slots).
DRIFT_EPSILON = 1e-3
TERMINAL_FACTOR = 10.0

# Event bitfield layout (trace CSV "events" column).
EV_ARRIVAL_P = 1 << 0
EV_ARRIVAL_S = 1 << 1
EV_PRIMARY_TX = 1 << 2
EV_SECONDARY_TX = 1 << 3
EV_COLLISION = 1 << 4
EV_PRIMARY_SUCCESS = 1 << 5
EV_SECONDARY_SUCCESS = 1 << 6
EV_SENSED_BUSY = 1 << 7

# Feedback column codes.
FB_NONE = 0
FB_ACK_HEARD = 1
FB_NACK_HEARD = 2
FB_ACK_MISSED = 3
FB_NACK_MISSED = 4


class SimMode(str, Enum):
    ORIGINAL = "original"
    DOMINANT = "dominant"


@dataclass(frozen=True)
class SimConfig:
    slots: int
    seed: int
    lambda_p: float
    lambda_s: float
    scheme: SchemeConfig
    phy: PhyParams | LinkSuccess
    mode: SimMode = SimMode.ORIGINAL
    feedback_error: float = 0.0
    record_traces: bool = False
    initial_qp: int = 0
    initial_qs: int = 0

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise DomainError(f"slots must be >= 1, got {self.slots!r}")
        for name in ("lambda_p", "lambda_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise DomainError(f"SimConfig.{name} must be in [0, 1], got {value!r}")
        if not (0.0 <= self.feedback_error < 1.0):
            raise DomainError(f"feedback_error must be in [0, 1), got {self.feedback_error!r}")
        if self.initial_qp < 0 or self.initial_qs < 0:
            raise DomainError("initial queue sizes must be >= 0")


@dataclass(frozen=True)
class SimTrace:
    """Columnar per-slot record: queue sizes at slot start, event bits, feedback."""

    qp: np.ndarray
    qs: np.ndarray
    events: np.ndarray
    feedback: np.ndarray


class FeedbackCounts(NamedTuple):
    """ACKs heard (A), feedback messages heard (M), learning slots (N)."""

    A: int
    M: int
    N: int


@dataclass(frozen=True)
class SimResult:
    slots: int
    mode: SimMode
    empirical_mu_p: float
    empirical_mu_p_se: float
    empirical_mu_s: float
    empirical_mu_s_se: float
    empirical_p_empty: float
    mean_primary_delay: float
    primary_departures: int
    secondary_departures: int
    feedback_counts: FeedbackCounts
    trace: SimTrace | None


@dataclass(frozen=True)
class StabilityProbe:
    stable: bool
    drift: float
    terminal_queue: int
    drift_threshold: float
    terminal_threshold: float


@dataclass(frozen=True)
class DominanceReport:
    dominant_ge_original: bool
    saturation_indistinguishable: bool


def _success_threshold(p_bar: float) -> float:
    """Exponential-gain threshold whose exceedance probability is p_bar."""
    if p_bar <= 0.0:
        return math.inf
    return -math.log(p_bar)


def _batch_ratio_se(num: np.ndarray, den: np.ndarray, batches: int = 50) -> float:
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


def run(cfg: SimConfig) -> SimResult:
    """Simulate cfg.slots slots and return empirical rates and counts."""
    n = cfg.slots
    links = link_success(cfg.phy, cfg.scheme.sensing.tau)
    p_fa, p_md = effective_sensing(cfg.scheme)
    dominant = cfg.mode is SimMode.DOMINANT

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
    if record:
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

        if record:
            tr_qp[t] = qp_start
            tr_qs[t] = qs_start
            ev = 0
            if arrival_p[t]:
                ev |= EV_ARRIVAL_P
            if arrival_s[t]:
                ev |= EV_ARRIVAL_S
            if ptx:
                ev |= EV_PRIMARY_TX
            if stx:
                ev |= EV_SECONDARY_TX
            if collision:
                ev |= EV_COLLISION
            if p_succ:
                ev |= EV_PRIMARY_SUCCESS
            if s_succ:
                ev |= EV_SECONDARY_SUCCESS
            if sensed_busy:
                ev |= EV_SENSED_BUSY
            tr_events[t] = ev
            if ptx:
                if fb_heard[t]:
                    tr_feedback[t] = FB_ACK_HEARD if p_succ else FB_NACK_HEARD
                else:
                    tr_feedback[t] = FB_ACK_MISSED if p_succ else FB_NACK_MISSED

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
    mu_p_se = _batch_ratio_se(pdep_arr, ptx_arr) if ptx_slots else math.nan
    if dominant:
        # the secondary always has something to send: its service rate is
        # the unconditional per-slot success rate, dummies included
        mu_s = float(ssucc_arr.mean())
        mu_s_se = _batch_ratio_se(ssucc_arr, np.ones(n, dtype=np.uint8))
    else:
        snon_slots = int(snon_arr.sum())
        mu_s = s_dep_total / snon_slots if snon_slots else math.nan
        mu_s_se = _batch_ratio_se(sdep_arr, snon_arr) if snon_slots else math.nan

    trace = None
    if record:
        trace = SimTrace(
            qp=tr_qp,
            qs=tr_qs,
            events=np.frombuffer(bytes(tr_events), dtype=np.uint8),
            feedback=np.frombuffer(bytes(tr_feedback), dtype=np.uint8),
        )

    return SimResult(
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
        feedback_counts=FeedbackCounts(A=acks_heard, M=heard, N=n),
        trace=trace,
    )


def stability(series: np.ndarray) -> StabilityProbe:
    """Finite-run stability verdict from one queue's per-slot sizes.

    The drift is the least-squares slope of the series; stable means
    drift <= DRIFT_EPSILON and a terminal size below
    TERMINAL_FACTOR * sqrt(len(series)).
    """
    n = len(series)
    drift = float(np.polyfit(np.arange(n), series.astype(np.float64), 1)[0])
    terminal = int(series[-1])
    terminal_threshold = TERMINAL_FACTOR * math.sqrt(n)
    return StabilityProbe(
        stable=(drift <= DRIFT_EPSILON and terminal <= terminal_threshold),
        drift=drift,
        terminal_queue=terminal,
        drift_threshold=DRIFT_EPSILON,
        terminal_threshold=terminal_threshold,
    )


def measure_stability(cfg: SimConfig, window: int, queue: str = "primary") -> StabilityProbe:
    """Run `window` slots of cfg with traces, then judge the selected queue
    with `stability`."""
    if window < 10_000:
        raise DomainError(f"stability window must be >= 1e4 slots, got {window!r}")
    if queue not in ("primary", "secondary"):
        raise DomainError(f"queue must be 'primary' or 'secondary', got {queue!r}")
    trace = run(replace(cfg, slots=window, record_traces=True)).trace
    return stability(trace.qp if queue == "primary" else trace.qs)


def compare_dominant(cfg: SimConfig) -> DominanceReport:
    """Coupled original-vs-dominant check of the dominant-system argument.

    Shares every random stream between the two modes and verifies the
    dominant system's queues are never shorter, slot by slot.  The
    saturation check reruns both modes with lambda_s = 1 and one packet
    seeded in the secondary queue (backlogged from the first slot, so no
    dummy is ever sent) and requires bitwise-identical traces.
    """
    if not cfg.record_traces:
        raise DomainError("compare_dominant needs record_traces=True")
    original = run(replace(cfg, mode=SimMode.ORIGINAL))
    dominant = run(replace(cfg, mode=SimMode.DOMINANT))
    ge = bool(
        np.all(dominant.trace.qp >= original.trace.qp)
        and np.all(dominant.trace.qs >= original.trace.qs)
    )

    sat_cfg = replace(cfg, lambda_s=1.0, initial_qs=max(1, cfg.initial_qs))
    sat_orig = run(replace(sat_cfg, mode=SimMode.ORIGINAL))
    sat_dom = run(replace(sat_cfg, mode=SimMode.DOMINANT))
    identical = bool(
        np.array_equal(sat_orig.trace.qp, sat_dom.trace.qp)
        and np.array_equal(sat_orig.trace.qs, sat_dom.trace.qs)
        and np.array_equal(sat_orig.trace.events, sat_dom.trace.events)
        and np.array_equal(sat_orig.trace.feedback, sat_dom.trace.feedback)
    )
    return DominanceReport(dominant_ge_original=ge, saturation_indistinguishable=identical)


TRACE_CSV_SCHEMA = "trace/1"
_FEEDBACK_NAMES = ("none", "ack", "nack", "ack-missed", "nack-missed")  # indexed by FB_* code
_TRACE_CSV_CHUNK = 65_536  # rows per writerows call: bounds the memory of the formatted rows


def write_trace_csv(trace: SimTrace, path: str) -> None:
    """One row per slot: slot, queue sizes at slot start, event bits, feedback."""
    n = len(trace.qp)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "qp", "qs", "events", "feedback"])
        for lo in range(0, n, _TRACE_CSV_CHUNK):
            hi = min(lo + _TRACE_CSV_CHUNK, n)
            names = map(_FEEDBACK_NAMES.__getitem__, trace.feedback[lo:hi].tolist())
            writer.writerows(zip(
                range(lo, hi),
                trace.qp[lo:hi].tolist(),
                trace.qs[lo:hi].tolist(),
                trace.events[lo:hi].tolist(),
                names,
            ))
