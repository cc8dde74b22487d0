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

The engine solves the queues with array passes over chunks of
_SIM_CHUNK slots, carrying both queue sizes across chunk boundaries; a
stream read in chunks yields the same numbers as one read of the whole
run.  Given its service opportunities, a queue follows Lindley's
recursion, which one cumsum and one running minimum solve.  In dominant
mode the primary's opportunities (no secondary coin, no outage) do not
depend on the secondary queue, so one pass gives qp and a second, with
service only in silent slots, gives qs.  In original mode the secondary
contends only when backlogged, so the passes start from the
all-backlogged (dominant) qs > 0 pattern and re-solve until the pattern
stops changing.  A later pass re-solves only the dirty segments: the
dominant pass's qp = qs = 0 slots, which every pass shares, cut the
chunk into segments, and a segment is dirty when its pattern changed
where the secondary's contention blocks a queued primary packet.  When
the dirty segments hold more than half of what is left to solve, the
pass solves all of that in place instead.  Every pass fixes at least one
more slot (see `_solve_queues`).

Nothing per slot outlives its chunk: `run` adds each chunk, while it is
in cache, to the exact sums behind the primary queue's stability verdict
and to the batch counts behind the standard errors, and hands its trace
columns to an optional sink, the only way they leave the run.  The sink is
a plain call, on the calling thread and in slot order; its exception ends
the run.  Each chunk is drawn (`_draw`: the stream reads and the rows they
decide) and then solved (`_chunk`: the queues and the outcomes).  An
untraced run of more than one chunk draws on one helper thread, a chunk
ahead of the calling thread's solve, into two sets of the drawn rows in
turn (`_drawn_chunks`); numpy's fills and ufuncs release the interpreter
lock, so the two overlap.  A traced run draws on the calling thread: cli's
trace writer process already takes the other CPU.  What lives per run is
made once, at chunk size, and every chunk uses it through views: the
queue-size columns (with the event and feedback columns when traced), the
chunk's drawn rows (two sets when drawn ahead, with the helper's own float
buffer) and the other outcome rows, and the solve's scratch (`_Scratch`:
the Lindley walk, which also takes each uniform and exponential draw of an
inline run, the gathered open slots, and the mask and pattern rows).  What
grows with the run is the FIFO delay's arrival bits (1 bit a slot) of the
chunks since the oldest queued primary arrival, at most 1/8 B a slot.
"""

from __future__ import annotations

import bisect
import math
import operator
import threading
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng  # here, before cli forks a traced run's writer

from .errors import DomainError
from .phy import Channel
from .schemes import SchemeConfig, SimMode

__all__ = [
    "SimMode",
    "SimConfig",
    "SimTrace",
    "FeedbackCounts",
    "SimResult",
    "StabilityProbe",
    "run",
    "write_trace_rows",
    "TRACE_CSV_HEADER",
    "DRIFT_EPSILON",
]

# Finite-run stability surrogates: a queue is called stable when its
# least-squares drift is at most DRIFT_EPSILON packets/slot and its
# terminal size stays below TERMINAL_FACTOR * sqrt(slots).
DRIFT_EPSILON = 1e-3
TERMINAL_FACTOR = 10.0

# Slots per engine chunk: the draws and per-slot arrays of one chunk are
# the working set that does not grow with the run.
_SIM_CHUNK = 32_768
_SUM_ROW = 256  # slots per row of a chunk's blocked sum(u * q[u])

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


@dataclass(frozen=True)
class SimConfig:
    slots: int
    seed: int
    lambda_p: float
    lambda_s: float
    scheme: SchemeConfig
    phy: Channel
    mode: SimMode = SimMode.ORIGINAL
    feedback_error: float = 0.0
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
class StabilityProbe:
    stable: bool
    drift: float
    terminal_queue: int
    drift_threshold: float
    terminal_threshold: float


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
    stability: StabilityProbe  # the primary queue's, from its exact sums (see _verdict)


def _success_threshold(p_bar: float) -> float:
    """Exponential-gain threshold whose exceedance probability is p_bar."""
    if p_bar <= 0.0:
        return math.inf
    return -math.log(p_bar)


def _batch_edges(n: int, batches: int = 50) -> list[int]:
    """Slot boundaries of the contiguous batches behind the batch-mean SEs."""
    if n < batches * 2:
        batches = max(2, n // 2)
    return np.linspace(0, n, batches + 1, dtype=np.int64).tolist()


def _add_batch_counts(counts: Iterable[np.ndarray], edges: list[int], lo: int, columns: tuple[np.ndarray, ...]) -> None:
    """Add the nonzero entries of each boolean column of the chunk that
    starts at slot lo, batch by batch, to its row of batch counts."""
    hi = lo + len(columns[0])
    for b in range(bisect.bisect_right(edges, lo) - 1, bisect.bisect_left(edges, hi)):  # the batches met
        a, z = max(edges[b], lo) - lo, min(edges[b + 1], hi) - lo
        for count, column in zip(counts, columns):
            count[b] += np.count_nonzero(column[a:z])


def _batch_ratio_se(num: Iterable[int], den: Iterable[int]) -> float:
    """Standard error of sum(num)/sum(den) from contiguous batch ratios,
    given each batch's integer sums.

    Batch means absorb the serial correlation the queue state induces;
    for independent slots this reduces to the binomial standard error.
    """
    ratios = [float(a) / float(b) for a, b in zip(num, den) if b > 0]
    if len(ratios) < 2:
        return math.nan
    return float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))


class _Scratch(NamedTuple):
    """The chunk solve's working arrays at chunk size: every chunk of a run
    solves in views of the same ones."""

    work: np.ndarray  # int64: `_lindley`'s walk; a gathered pass splits it into walk and output halves
    at: np.ndarray  # intp: the chunk slots a gathered pass keeps open, at most half a chunk
    flags: np.ndarray  # bool, five rows: two masks, then the open slots' qp > 0, pattern and qs > 0

    @classmethod
    def of(cls, size: int) -> _Scratch:
        return cls(np.empty(size, dtype=np.int64), np.empty(size // 2 + 1, dtype=np.intp),
                   np.empty((5, size), dtype=bool))


def _lindley(q0: int, service: np.ndarray, arrivals: np.ndarray, out: np.ndarray, walk: np.ndarray) -> int:
    """Queue sizes at slot start under Q[t+1] = max(Q[t] - S[t], 0) + A[t].

    Writes Q[0..m-1] (Q[0] = q0) into `out` and returns Q[m]; `walk` is
    scratch of at least m entries.  The size just after slot t-1's
    departures, Y[t] = Q[t] - A[t-1], follows Lindley's recursion
    Y[t+1] = max(Y[t] + A[t-1] - S[t], 0), whose solution is the free walk
    minus its running minimum below zero.
    """
    walk = walk[:len(service)]
    walk[0] = q0 - int(service[0])
    # the steps in int8, in the head of `out`, widened by a copy: a ufunc that casts would allocate its buffers
    steps = out.view(np.int8)[:len(walk)]
    np.subtract(arrivals[:-1].view(np.int8), service[1:].view(np.int8), out=steps[1:])
    walk[1:] = steps[1:]
    np.cumsum(walk, out=walk)
    np.minimum.accumulate(walk, out=out)  # the floor, built in `out`
    np.minimum(out, 0, out=out)
    walk -= out
    out[0] = q0
    out[1:] = arrivals[:-1]
    out[1:] += walk[:-1]
    return int(walk[-1]) + int(arrivals[-1])


def _ranges(first: np.ndarray, lens: np.ndarray, out: np.ndarray) -> np.ndarray:
    """first[0], first[0] + 1, ..., first[0] + lens[0] - 1, first[1], ...
    (each lens[i] >= 1), written into the head of `out`."""
    ends = np.cumsum(lens)
    at = out[:ends[-1]]
    at.fill(1)
    at[0] = first[0]
    at[ends[:-1]] = first[1:] - first[:-1] - lens[:-1] + 1  # the step from one range's last slot to the next's first
    return np.cumsum(at, out=at)


def _pick(a: np.ndarray, slots: slice | np.ndarray, out: np.ndarray) -> np.ndarray:
    """a[slots]: a view for a slice, else gathered into `out`.  numpy
    buffers `out` under the default mode, "raise"; the slots are valid
    indices, so "clip" never acts."""
    return a[slots] if isinstance(slots, slice) else np.take(a, slots, out=out, mode="clip")


def _solve_queues(qp0: int, qs0: int, p_service: np.ndarray, p_blocked: np.ndarray,
                  s_service: np.ndarray, arrival_p: np.ndarray, arrival_s: np.ndarray,
                  qp: np.ndarray, qs: np.ndarray, dominant: bool, scratch: _Scratch | None = None) -> tuple[int, int]:
    """Both queues of one chunk, written into qp and qs; returns the sizes
    after the chunk's last slot.  The work is done in views of `scratch`
    (by default, arrays made for this call).

    The primary is served when p_service and not (p_blocked and the
    secondary contends); the secondary is served when s_service and the
    primary is silent.  The first pass lets the secondary contend in every
    slot, which is the dominant system.  In original mode it contends only
    when backlogged: each further pass solves both queues for the qs > 0
    pattern of the pass before, until a pass leaves it unchanged, which is
    the original system.  Two facts keep the later passes short:

    A. Lindley's recursion is monotone in service and no pattern contends
       more than the first, so every pass, and the answer, has qp and qs at
       or below the first pass, slot by slot.  Where the first pass has
       qp = qs = 0, so does every pass: the queues regenerate there, and
       the segments between such slots can be solved apart.
    B. A pattern bit at slot t acts only if p_blocked[t] and qp[t] > 0.  A
       segment with no such changed bit already solves its new pattern;
       only the others, the dirty segments, are solved again.

    A pass gathers the dirty segments and solves them in one Lindley call.
    Each segment but the last ends just before a regeneration slot, so its
    queues end empty, as the next gathered segment starts: the gathered
    segments chain exactly, with no reset between them.  When the dirty
    segments hold more than half as many slots as lie from the first
    acting bit on, the pass solves those slots in place instead.  Slot t
    depends only on the pattern before t, so that bit is exact after the
    pass and the next pass's first acting bit lies past it: every pass
    fixes at least one more slot.  A gathered pass thus holds at most half
    the chunk, which is what lets its Lindley walk and output share `work`.
    """
    m = len(qp)
    work, at_buf, flags = scratch if scratch is not None else _Scratch.of(m)
    mask, acting, busy, backlog, solved = flags[:, :m]
    # p & ~b is p > b on booleans
    qp_end = _lindley(qp0, np.greater(p_service, p_blocked, out=mask), arrival_p, qp, work)
    qs_end = _lindley(qs0, np.greater(s_service, np.greater(qp, 0, out=busy), out=mask), arrival_s, qs, work)
    if dominant:
        return qp_end, qs_end
    np.greater(qs, 0, out=solved)
    # a segment starts at slot 0 and at each regeneration slot before an occupied one
    occupied = np.logical_or(busy, solved, out=mask)
    acting[0] = True
    np.greater(occupied[2:], occupied[1:-1], out=acting[1:m - 1])
    bounds = np.append(np.flatnonzero(acting[:max(m - 1, 1)]), m)  # segment starts, then the end
    backlog.fill(True)
    # the open slots: the whole chunk (at is None), then the dirty segments'
    # chunk slots at[:k]; the flag rows hold their values in their first k entries
    at, k = None, m
    while True:
        act = np.not_equal(solved[:k], backlog[:k], out=acting[:k])  # the acting bits (B)
        act &= p_blocked if at is None else _pick(p_blocked, at, mask[:k])
        act &= busy[:k]
        hits = np.flatnonzero(act)
        if not len(hits):
            return qp_end, qs_end
        lo = int(hits[0])
        seg = np.searchsorted(bounds, hits, side="right") - 1
        dirty = seg[np.diff(seg, prepend=-1) != 0]
        first, lens = bounds[dirty], bounds[dirty + 1] - bounds[dirty]
        if 2 * int(lens.sum()) > k - lo:  # solve from lo on, in place
            part = slice(lo, k)
            backlog, solved = solved, backlog
            solved[:lo] = backlog[:lo]
        else:  # keep only the dirty segments open, with the pattern they last solved
            at = _ranges(first if at is None else at[first], lens, at_buf)
            k = len(at)
            np.greater(_pick(qs, at, work[:k]), 0, out=backlog[:k])
            bounds = np.append(0, np.cumsum(lens))
            part = slice(0, k)
        if at is None:  # chunk slots part, solved where they lie
            slots, head, out_p, out_s, walk = part, part.start, qp[part], qs[part], work
        else:  # chunk slots at[part], gathered into `work`'s two halves
            slots, head, n = at[part], int(at[part.start]), k - part.start
            out_p = out_s = work[len(work) - n:]
            walk = work[:n]
        blocked = np.logical_and(_pick(p_blocked, slots, mask[part]), backlog[part], out=mask[part])
        service = np.greater(_pick(p_service, slots, acting[part]), blocked, out=mask[part])
        qp_last = _lindley(int(qp[head]), service, _pick(arrival_p, slots, acting[part]), out_p, walk)
        if at is not None:
            qp[slots] = out_p
        busy_part = np.greater(out_p, 0, out=busy[part])
        service = np.greater(_pick(s_service, slots, acting[part]), busy_part, out=mask[part])
        qs_last = _lindley(int(qs[head]), service, _pick(arrival_s, slots, acting[part]), out_s, walk)
        if at is not None:
            qs[slots] = out_s
        np.greater(out_s, 0, out=solved[part])
        if at is None or at[k - 1] == m - 1:  # the chunk's last slot is open
            qp_end, qs_end = qp_last, qs_last


class _Draws(NamedTuple):
    """One chunk's draws, as boolean rows: what `_draw` writes."""

    arrival_p: np.ndarray
    arrival_s: np.ndarray
    busy_if_tx: np.ndarray  # the sensing outcome were the primary transmitting
    busy_if_idle: np.ndarray  # and were it silent
    fb_heard: np.ndarray
    chan_p_ok: np.ndarray
    chan_s_ok: np.ndarray
    coin_if_tx: np.ndarray  # the access coin as it falls were the primary transmitting
    coin_if_idle: np.ndarray  # and were it silent
    s_service: np.ndarray  # the secondary's service were the primary silent; free again once `_chunk` returns


class _Outcomes(NamedTuple):
    """One chunk's outcomes, as boolean rows: what `_chunk` writes."""

    ptx: np.ndarray
    s_has_packet: np.ndarray
    stx: np.ndarray
    p_succ: np.ndarray
    s_succ: np.ndarray


def _select(c: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(c & x) | (~c & y) of boolean rows, as y ^ (c & (x ^ y)), into out,
    which may be x: a bitwise select, about 15 times cheaper a slot than
    `where` on a condition."""
    np.bitwise_xor(x, y, out=out)
    out &= c
    out ^= y
    return out


def _draw(cfg: SimConfig, streams: list[Generator], thresholds: tuple[float, float], d: _Draws,
          u: np.ndarray) -> None:
    """Draw one chunk of len(d.arrival_p) slots into d, each stream's
    uniforms or exponentials through u, a float64 buffer at least as long."""
    u = u[:len(d.arrival_p)]
    rng_arr_p, rng_arr_s, rng_sense, rng_coin, rng_chan_p, rng_chan_s, rng_fb = streams
    np.less(rng_arr_p.random(out=u), cfg.lambda_p, out=d.arrival_p)
    np.less(rng_arr_s.random(out=u), cfg.lambda_s, out=d.arrival_s)
    rng_sense.random(out=u)
    np.less(u, 1.0 - cfg.scheme.sensing.p_md, out=d.busy_if_tx)
    np.less(u, cfg.scheme.sensing.p_fa, out=d.busy_if_idle)
    # the access coin as it falls when the primary transmits / is silent, from
    # one uniform: a_s's coin on an idle outcome, b_s's on a busy one
    rng_coin.random(out=u)
    coin_idle, coin_busy = np.less(u, cfg.scheme.a_s, out=d.s_service), np.less(u, cfg.scheme.b_s, out=d.coin_if_tx)
    _select(d.busy_if_idle, coin_busy, coin_idle, d.coin_if_idle)
    _select(d.busy_if_tx, coin_busy, coin_idle, d.coin_if_tx)  # in place of coin_busy
    np.greater_equal(rng_chan_p.standard_exponential(out=u), thresholds[0], out=d.chan_p_ok)
    np.greater_equal(rng_chan_s.standard_exponential(out=u), thresholds[1], out=d.chan_s_ok)
    np.less(rng_fb.random(out=u), 1.0 - cfg.feedback_error, out=d.fb_heard)
    np.logical_and(d.coin_if_idle, d.chan_s_ok, out=d.s_service)


def _chunk(cfg: SimConfig, d: _Draws, qp0: int, qs0: int, qp: np.ndarray, qs: np.ndarray, scratch: _Scratch,
           o: _Outcomes) -> tuple[int, int]:
    """Solve the queues of one chunk of len(qp) slots, drawn into d, from
    sizes qp0 and qs0 into qp and qs, write its outcomes into o, and return
    the sizes after its last slot."""
    ptx, s_has_packet, stx, p_succ, s_succ = o
    dominant = cfg.mode is SimMode.DOMINANT
    qp_end, qs_end = _solve_queues(qp0, qs0, d.chan_p_ok, d.coin_if_tx, d.s_service, d.arrival_p, d.arrival_s, qp, qs,
                                   dominant, scratch)
    np.greater(qp, 0, out=ptx)
    np.greater(qs, 0, out=s_has_packet)
    _select(ptx, d.coin_if_tx, d.coin_if_idle, stx)  # the coin, which a backlogged or dummy packet follows
    if not dominant:
        stx &= s_has_packet
    np.greater(ptx, stx, out=p_succ)  # p & ~s is p > s on booleans
    p_succ &= d.chan_p_ok
    np.greater(stx, ptx, out=s_succ)
    s_succ &= d.chan_s_ok
    return qp_end, qs_end


def _drawn_chunks(cfg: SimConfig, streams: list[Generator], thresholds: tuple[float, float], rows: _Draws,
                  work: np.ndarray, ahead: bool) -> Iterator[tuple[int, _Draws]]:
    """Each chunk's first slot and draws, in slot order; the draws are valid
    until the next chunk is asked for.

    Inline, each chunk is drawn into `rows` when asked for, through `work`.
    Ahead, a helper thread draws the chunks into `rows` and a second set in
    turn, through its own float buffer: chunk k + 2 goes into chunk k's set
    once chunk k + 1 is asked for.  An exception in the helper is raised
    here as itself; closing the generator stops and joins the helper."""
    n, size = cfg.slots, len(rows.arrival_p)
    sets = [rows, _Draws(*(np.empty(size, dtype=bool) for _ in _Draws._fields))] if ahead else [rows]

    def chunks() -> Iterator[tuple[int, _Draws]]:
        for k, lo in enumerate(range(0, n, size)):
            d = sets[k % len(sets)]
            yield lo, (d if n - lo >= size else _Draws(*(row[:n - lo] for row in d)))  # the last chunk is shorter

    if not ahead:
        for lo, d in chunks():
            _draw(cfg, streams, thresholds, d, work)
            yield lo, d
        return
    u = np.empty(size)
    free, ready = threading.Semaphore(len(sets)), threading.Semaphore(0)  # the sets the helper may fill, and filled
    failure, stop = [], threading.Event()

    def draw_ahead() -> None:
        for _, d in chunks():
            free.acquire()
            if stop.is_set():
                return
            try:
                _draw(cfg, streams, thresholds, d, u)
            except BaseException as error:  # raised again in the caller
                failure.append(error)
                return
            finally:
                ready.release()

    helper = threading.Thread(target=draw_ahead, name="cogaccess-draws", daemon=True)
    helper.start()
    try:
        for lo, d in chunks():
            ready.acquire()
            if failure:
                raise failure[0]
            yield lo, d
            free.release()  # the caller is done with chunk k: its set takes chunk k + 2
    finally:
        stop.set()
        free.release()
        helper.join()


def _trace_columns(d: _Draws, o: _Outcomes, events: np.ndarray, feedback: np.ndarray, spare: np.ndarray) -> None:
    """A chunk's trace columns from its draws and outcomes, written into
    events (the event bits) and feedback (the FB_* codes); `spare` is a
    boolean row."""
    # the event bits from the top down, each a doubling and an or, in place
    events[:] = _select(o.ptx, d.busy_if_tx, d.busy_if_idle, spare).view(np.uint8)  # EV_SENSED_BUSY
    for flag in (o.s_succ, o.p_succ, np.logical_and(o.ptx, o.stx, out=spare), o.stx, o.ptx, d.arrival_s, d.arrival_p):
        events += events
        events |= flag.view(np.uint8)
    # FB_* codes: 1 + (NACK) + 2 * (missed), on primary transmissions only
    missed = np.logical_not(d.fb_heard, out=spare).view(np.uint8)
    np.add(missed, missed, out=feedback)
    feedback += np.logical_not(o.p_succ, out=spare).view(np.uint8)
    feedback += 1
    feedback *= o.ptx.view(np.uint8)


def run(cfg: SimConfig, sink: Callable[[int, SimTrace], None] | None = None) -> SimResult:
    """Simulate cfg.slots slots: empirical rates, counts and the primary
    queue's stability.  A sink gets each chunk's first slot and trace
    columns, in slot order, on the calling thread; the columns are valid
    during the call only (they are views of buffers the run reuses for the
    next chunk), and an exception from the sink ends the run.

    Without a sink, a run of more than one chunk starts one helper thread,
    which draws chunk k + 1 while this thread solves chunk k, and joins it
    however the run ends; an exception in it is raised here as itself.
    With a sink, or in one chunk, every chunk is drawn on this thread.
    Either way the result is the same, bit for bit."""
    n = cfg.slots
    links = cfg.phy.links(cfg.scheme.sensing.tau)
    thresholds = (_success_threshold(links.p_bar_p_pd), _success_threshold(links.p_bar_s_sd))
    streams = [default_rng(s) for s in SeedSequence(cfg.seed).spawn(7)]

    edges = _batch_edges(n)
    # per-batch counts of the indicator series behind the batch-mean SEs, in one array, which the counts do not grow
    batch = dict(zip(("ptx", "pdep", "ssucc", "snon", "sdep"), np.zeros((5, len(edges) - 1), dtype=np.int64)))

    # per-run buffers at chunk size: the solve's scratch, the draws and the outcomes, and the trace
    # columns (an untraced run's without events or feedback), each its own array, which can take heap memory
    # freed before the run (one block of them was a fresh mapping, about 0.45 MiB more resident); a run drawn
    # ahead adds a second set of draws and the helper's float buffer (`_drawn_chunks`)
    size = min(n, _SIM_CHUNK)
    scratch, drawn = _Scratch.of(size), _Draws(*(np.empty(size, dtype=bool) for _ in _Draws._fields))
    o = _Outcomes(*(np.empty(size, dtype=bool) for _ in _Outcomes._fields))
    codes = size if sink is not None else 0
    columns = (np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64), np.empty(codes, dtype=np.uint8),
               np.empty(codes, dtype=np.uint8))
    trace = SimTrace(*columns)

    qp, qs = cfg.initial_qp, cfg.initial_qs
    # FIFO delay: the primary packets still queued are the last qp arrivals
    # (with the initial ones, arriving in slot -1, before the run's).  Only
    # the chunks from the one holding the oldest queued arrival on keep their
    # arrival bits (1 bit a slot), each with the count and slot sum of the
    # arrivals before it.
    arrived = deque()  # (lo, arrivals before lo, their slot sum, packed arrival bits)
    arrivals = arrival_slot_sum = acks_heard = heard = 0
    sums = (0, 0)  # sum(qp[t]) and sum(t * qp[t]), exact

    ahead = sink is None and n > size  # a traced run draws inline: cli's trace writer takes the other CPU
    with closing(_drawn_chunks(cfg, streams, thresholds, drawn, scratch.work.view(np.float64), ahead)) as chunks:
        for lo, d in chunks:
            if n - lo < size:  # the last chunk is shorter: views of its length
                o = _Outcomes(*(row[:n - lo] for row in o))
                trace = SimTrace(*[column[:n - lo] for column in columns])
            qp, qs = _chunk(cfg, d, qp, qs, trace.qp, trace.qs, scratch, o)
            spare = d.s_service
            if sink is not None:
                _trace_columns(d, o, trace.events, trace.feedback, spare)
                sink(lo, trace)

            sums = _add_chunk_sums(sums, trace.qp, lo)
            heard += int(np.count_nonzero(np.logical_and(o.ptx, d.fb_heard, out=spare)))
            acks_heard += int(np.count_nonzero(np.logical_and(o.p_succ, d.fb_heard, out=spare)))
            _add_batch_counts(batch.values(), edges, lo,  # in batch's key order
                              (o.ptx, o.p_succ, o.s_succ, o.s_has_packet,
                               np.logical_and(o.s_succ, o.s_has_packet, out=spare)))
            arrived.append((lo, arrivals, arrival_slot_sum, np.packbits(d.arrival_p)))
            arrivals, arrival_slot_sum = _add_chunk_sums((arrivals, arrival_slot_sum), d.arrival_p, lo)
            while len(arrived) > 1 and arrived[1][1] <= arrivals - qp:  # chunk 0's arrivals have all left
                arrived.popleft()

    # Little's identity: sum(qp[t]) counts a departed packet d - a slots
    # (arrival slot a, departure slot d) and a queued one n - 1 - a slots, so
    # the departed packets' delay sum is sum(qp[t]) less the queued ones'
    # share.  The oldest queued arrival is in the first kept chunk.
    gone = arrivals - qp  # the arrivals that have left; below 0, -gone initial packets are queued
    lo, before, before_sum, bits = arrived[0]
    first = np.flatnonzero(np.unpackbits(bits))[:max(gone, 0) - before]
    queued_slot_sum = arrival_slot_sum - before_sum - lo * len(first) - int(first.sum()) - max(-gone, 0)
    delay_sum = sums[0] - qp * (n - 1) + queued_slot_sum

    ptx_slots, p_dep_total, s_dep_total = (int(batch[k].sum()) for k in ("ptx", "pdep", "sdep"))
    mu_p = p_dep_total / ptx_slots if ptx_slots else math.nan
    mu_p_se = _batch_ratio_se(batch["pdep"], batch["ptx"]) if ptx_slots else math.nan
    if cfg.mode is SimMode.DOMINANT:
        # the secondary always has something to send: its service rate is
        # the unconditional per-slot success rate, dummies included
        mu_s = int(batch["ssucc"].sum()) / n
        mu_s_se = _batch_ratio_se(batch["ssucc"], [b - a for a, b in zip(edges, edges[1:])])
    else:
        snon_slots = int(batch["snon"].sum())
        mu_s = s_dep_total / snon_slots if snon_slots else math.nan
        mu_s_se = _batch_ratio_se(batch["sdep"], batch["snon"]) if snon_slots else math.nan

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
        stability=_verdict(n, sums, int(trace.qp[-1])),
    )


def _verdict(n: int, sums: tuple[int, int], terminal: int) -> StabilityProbe:
    """The finite-run stability verdict of an n-slot queue series from its
    exact sums sum(q[t]) and sum(t * q[t]) and its last value.

    The drift is the least-squares slope of the series against the slot
    index (nan for a single slot); stable means drift <= DRIFT_EPSILON and
    a terminal size below TERMINAL_FACTOR * sqrt(n)."""
    sum_q, sum_tq = sums
    # slope = (n*sum(t*q) - sum(t)*sum(q)) / (n*sum(t^2) - sum(t)^2), with
    # sum(t) = n(n-1)/2 and the denominator n^2(n^2-1)/12, both scaled by 12:
    # one correctly rounded division of exact integers
    den = n * n * (n * n - 1)
    drift = (12 * n * sum_tq - 6 * n * (n - 1) * sum_q) / den if den else math.nan
    terminal_threshold = TERMINAL_FACTOR * math.sqrt(n)
    return StabilityProbe(
        stable=(drift <= DRIFT_EPSILON and terminal <= terminal_threshold),
        drift=drift,
        terminal_queue=terminal,
        drift_threshold=DRIFT_EPSILON,
        terminal_threshold=terminal_threshold,
    )


def _add_chunk_sums(sums: tuple[int, int], q: np.ndarray, lo: int) -> tuple[int, int]:
    """sums plus sum(q[u]) and sum((lo + u) * q[u]) of an integer or boolean
    chunk that starts at slot lo, as exact Python ints.

    The chunk's sums are taken in int64, sum(t*q) = lo*sum(q) + sum(u*q)
    with u < m, exact while max|q| * m * m < 2**63: for a chunk of 32,768
    slots, queue sizes up to 2**33 - 1.  A queue grows by at most one packet
    a slot, so that holds up to cli's slot limit unless the run starts with
    a huge initial queue; a chunk past it is summed in Python ints.  sum(u*q)
    is taken over rows of _SUM_ROW slots, u = _SUM_ROW * r + c, from the
    rows' and columns' sums, so no index array of the chunk's size is made.
    """
    m = len(q)
    if max(-int(q.min()), int(q.max())) * m * m < 2**63:
        whole = m - m % _SUM_ROW
        grid, rest = q[:whole].reshape(-1, _SUM_ROW), q[whole:].astype(np.int64)
        total = np.uint32 if q.dtype == np.bool_ else np.int64  # booleans count faster in uint32
        by_row = grid.sum(axis=1, dtype=total)
        s_q = int(by_row.sum()) + int(rest.sum())
        s_uq = (_SUM_ROW * int(np.dot(np.arange(len(grid)), by_row))
                + int(np.dot(np.arange(_SUM_ROW), grid.sum(axis=0, dtype=total)))
                + int(np.dot(np.arange(whole, m), rest)))
        return sums[0] + s_q, sums[1] + lo * s_q + s_uq
    values = q.tolist()
    return sums[0] + sum(values), sums[1] + sum(map(operator.mul, range(lo, lo + m), values))


TRACE_CSV_HEADER = b"slot,qp,qs,events,feedback\r\n"
_FEEDBACK_NAMES = ("none", "ack", "nack", "ack-missed", "nack-missed")  # indexed by FB_* code
# rows formatted per write when a row's text is _TRACE_ROW_BYTES bytes, and proportionally fewer of wider rows:
# the formatting's memory (about three times the text) does not then grow with a run's slot numbers
_TRACE_CSV_CHUNK = 8_192
_TRACE_ROW_BYTES = 32  # a row's text before its zero bytes go: a digit a byte, the commas and the 16-byte end
# FB_* code -> the end of its row, "<name>\r\n" zero-padded to 16 bytes (two uint64s)
_ROW_ENDS = np.array([list(f"{name}\r\n".encode().ljust(16, b"\0")) for name in _FEEDBACK_NAMES],
                     dtype=np.uint8).view(np.uint64)


def write_trace_rows(fh: BinaryIO, lo: int, trace: SimTrace) -> None:
    """Append the trace CSV rows of slots lo, lo + 1, ... to fh; as a `run`
    sink (bound to fh) it streams a run's trace.

    The bytes are those of csv.writer (CRLF line ends, nothing quoted).
    Each chunk of rows is formatted one byte position at a time: an
    integer column is a block of digit rows, as many as the chunk's largest
    value has digits, computed in the narrowest unsigned dtype that holds
    that value, with a leading zero written as byte 0; one lookup of the
    feedback codes gives each row's end, zero-padded.  One transpose makes
    the rows, and dropping every 0, which no CSV byte is, gives the text.
    """
    n, columns = len(trace.qp), (trace.qp, trace.qs, trace.events)
    # the widest row's text: digits, four commas and the 16-byte end
    width = len(str(lo + n - 1)) + sum(len(str(int(column.max(initial=0)))) for column in columns) + 4 + 16
    step = max(1, _TRACE_CSV_CHUNK * _TRACE_ROW_BYTES // width)
    for at in range(0, n, step):
        rows = slice(at, at + step)
        fh.write(_csv_rows(lo + at, (trace.qp[rows], trace.qs[rows], trace.events[rows]), trace.feedback[rows]))


def _csv_rows(first: int, columns: tuple[np.ndarray, ...], feedback: np.ndarray) -> np.ndarray:
    """CSV text of rows numbered from `first`, then non-negative integer
    columns and a feedback name."""
    # the digit rows go once the text is made: the zero drop, the peak, holds only the text, its mask and its rows
    text = np.concatenate((_digit_rows(first, columns, len(feedback)).T,
                           _ROW_ENDS.take(feedback, axis=0).view(np.uint8)), axis=1)
    return text[text != 0]


def _digit_rows(first: int, columns: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """The byte rows of n rows' fields, each followed by a comma: the numbers
    from `first`, then the columns, with a leading zero as byte 0."""
    top = first + n - 1
    fields = [(np.arange(first, top + 1, dtype=np.min_scalar_type(top)), first, len(str(top)))]  # (values, min, digits)
    for column in columns:
        low, top = int(column.min()), int(column.max())
        if low < 0:
            raise DomainError("trace columns must be non-negative")
        fields.append((column.astype(np.min_scalar_type(top), copy=False), low, len(str(top))))
    num = np.empty((sum(width + 1 for *_, width in fields), n), dtype=np.uint8)  # one row per byte position
    at = 0
    for v, low, width in fields:
        ones, q = at + width - 1, v
        for k in range(ones, at, -1):  # the digits, from the ones up
            tens = q // 10
            np.subtract(q, tens * 10, out=num[k], casting="unsafe")
            q = tens
        num[at] = q
        num[at:ones + 1] += ord("0")
        for k in range(at, ones):  # a digit of place 10**j above the value is a leading zero
            if low < 10 ** (ones - k):
                np.copyto(num[k], 0, where=v < 10 ** (ones - k))
        num[ones + 1] = ord(",")
        at = ones + 2
    return num
