import errno
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cogaccess.errors import DomainError
from cogaccess.phy import LinkSuccess, SensingPoint
from cogaccess.schemes import SchemeConfig, Variant, service_rates
from cogaccess.sim import (
    EV_ARRIVAL_P,
    EV_ARRIVAL_S,
    EV_COLLISION,
    EV_PRIMARY_SUCCESS,
    EV_PRIMARY_TX,
    EV_SECONDARY_SUCCESS,
    EV_SECONDARY_TX,
    SimConfig,
    SimMode,
    SimResult,
    run,
    write_trace_rows,
)
from cogaccess import cli, sim

from oracles import (
    DominanceReport,
    compare_dominant,
    drift_fraction,
    measure_stability,
    replay_queue,
    run_loop,
    solve_queues_fixed_point,
    stability,
    traced_run,
    write_trace_csv_rowwise,
)

BENCH_LINKS = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
BENCH_POINT = SensingPoint(tau=0.05, p_fa=0.2, p_md=0.3)


def sim_config(variant=Variant.S1, a_s=1.0, b_s=0.0, lambda_p=0.3, lambda_s=0.2,
               slots=50_000, seed=1, mode=SimMode.DOMINANT, **kwargs):
    sensing = SensingPoint(0.0, 0.0, 1.0) if variant is Variant.S0 else BENCH_POINT
    scheme = SchemeConfig(variant, a_s, b_s if variant is Variant.S2 else 0.0, sensing)
    return SimConfig(
        slots=slots, seed=seed, lambda_p=lambda_p, lambda_s=lambda_s,
        scheme=scheme, phy=BENCH_LINKS, mode=mode, **kwargs,
    )


CHUNK = sim._SIM_CHUNK
unit_or_random = st.integers(-200, 1200).map(lambda k: min(max(k, 0), 1000) / 1000)  # 0 and 1 about 1/7 each


def write_csv(trace, path, lo=0):
    """The trace CSV of a whole-run trace, as `simulate` streams it, with
    slots numbered from lo."""
    with open(path, "wb") as fh:
        fh.write(sim.TRACE_CSV_HEADER)
        write_trace_rows(fh, lo, trace)


class TestDeterminism:
    def test_identical_config_identical_result(self):
        cfg = sim_config(slots=20_000)
        (r1, t1), (r2, t2) = traced_run(cfg), traced_run(cfg)
        assert r1.empirical_mu_p == r2.empirical_mu_p
        assert r1.empirical_mu_s == r2.empirical_mu_s
        assert r1.feedback_counts == r2.feedback_counts
        assert np.array_equal(t1.qp, t2.qp)
        assert np.array_equal(t1.events, t2.events)

    def test_seed_changes_trace(self):
        _, t1 = traced_run(sim_config(slots=20_000, seed=1))
        _, t2 = traced_run(sim_config(slots=20_000, seed=2))
        assert not np.array_equal(t1.events, t2.events)

    def test_no_trace_by_default(self):
        # per-slot columns leave a run only through its sink
        assert isinstance(run(sim_config(slots=1000)), SimResult)
        assert "trace" not in {f.name for f in fields(SimResult)}


class TestQueueRecursion:
    @pytest.mark.parametrize("mode", [SimMode.ORIGINAL, SimMode.DOMINANT])
    def test_trace_replays_exactly(self, mode):
        cfg = sim_config(variant=Variant.S2, a_s=0.7, b_s=0.3, lambda_p=0.35,
                         lambda_s=0.25, slots=30_000, mode=mode)
        _, trace = traced_run(cfg)
        ev = trace.events
        arr_p = (ev & EV_ARRIVAL_P) > 0
        arr_s = (ev & EV_ARRIVAL_S) > 0
        dep_p = (ev & EV_PRIMARY_SUCCESS) > 0
        dep_s = ((ev & EV_SECONDARY_SUCCESS) > 0) & (trace.qs > 0)
        qp = replay_queue(0, dep_p, arr_p)
        qs = replay_queue(0, dep_s, arr_s)
        assert np.array_equal(qp[:-1], trace.qp)
        assert np.array_equal(qs[:-1], trace.qs)

    def test_event_algebra_invariants(self):
        _, trace = traced_run(sim_config(variant=Variant.S2, a_s=0.6, b_s=0.2, lambda_p=0.4, slots=20_000))
        ev = trace.events
        ptx = (ev & EV_PRIMARY_TX) > 0
        stx = (ev & EV_SECONDARY_TX) > 0
        col = (ev & EV_COLLISION) > 0
        psucc = (ev & EV_PRIMARY_SUCCESS) > 0
        ssucc = (ev & EV_SECONDARY_SUCCESS) > 0
        assert np.array_equal(col, ptx & stx)
        assert not np.any(psucc & ~ptx)
        assert not np.any(psucc & col)
        assert not np.any(ssucc & ~stx)
        assert not np.any(ssucc & col)
        assert np.array_equal(ptx, trace.qp > 0)
        # feedback accompanies exactly the primary transmissions
        assert np.array_equal(trace.feedback > 0, ptx)


class TestRateConvergence:
    def test_idle_primary_secondary_rate(self):
        cfg = sim_config(lambda_p=0.0, a_s=1.0, slots=200_000)
        r = run(cfg)
        analytic = 0.8 * 0.8  # p_bar_s_sd * (1 - p_fa)
        assert abs(r.empirical_mu_s - analytic) <= 3 * r.empirical_mu_s_se

    def test_primary_rate_with_optimal_access(self):
        a_star = 0.6116780635742466  # optimal S1 access at lambda_p = 0.6
        cfg = sim_config(a_s=a_star, lambda_p=0.6, slots=200_000)
        r = run(cfg)
        analytic = 0.9 * (1 - a_star * 0.3)
        assert abs(r.empirical_mu_p - analytic) <= 0.005

    def test_silent_secondary_leaves_primary_alone(self):
        cfg = sim_config(variant=Variant.S2, a_s=0.0, b_s=0.0, lambda_p=0.5, slots=100_000)
        r = run(cfg)
        assert r.secondary_departures == 0
        assert abs(r.empirical_mu_p - 0.9) <= 3 * r.empirical_mu_p_se

    def test_empty_probability_matches_ratio(self):
        cfg = sim_config(a_s=0.5, lambda_p=0.3, slots=200_000)
        r = run(cfg)
        rates = service_rates(cfg.scheme, BENCH_LINKS, 0.3)
        assert abs(r.empirical_p_empty - rates.p_empty) <= 0.01

    def test_all_variants_match_closed_forms(self):
        for variant, a_s, b_s, lam in [
            (Variant.SC, 1.0, 0.0, 0.3),
            (Variant.S1, 0.61, 0.0, 0.3),
            (Variant.S2, 0.5, 0.2, 0.3),
            (Variant.S0, 0.4, 0.0, 0.3),
        ]:
            cfg = sim_config(variant=variant, a_s=a_s, b_s=b_s, lambda_p=lam, slots=150_000)
            r = run(cfg)
            rates = service_rates(cfg.scheme, BENCH_LINKS, lam)
            assert abs(r.empirical_mu_p - rates.mu_p) <= 4 * r.empirical_mu_p_se, variant
            assert abs(r.empirical_mu_s - rates.mu_s) <= 4 * r.empirical_mu_s_se, variant

    def test_original_mode_conditional_service(self):
        # stable on both sides: conditional service rate matches mu_s closed form
        cfg = sim_config(a_s=0.5, lambda_p=0.2, lambda_s=0.1, slots=150_000,
                         mode=SimMode.ORIGINAL)
        r = run(cfg)
        assert r.secondary_departures / cfg.slots == pytest.approx(0.1, abs=0.01)


class TestDelay:
    def test_silent_secondary_delay_formula(self):
        for lam in (0.09, 0.27, 0.45):
            cfg = sim_config(variant=Variant.S2, a_s=0.0, b_s=0.0, lambda_p=lam,
                             lambda_s=0.0, slots=300_000)
            r = run(cfg)
            expected = (1 - lam) / (0.9 - lam)
            assert r.mean_primary_delay == pytest.approx(expected, rel=0.05)


class TestStabilityProbe:
    def test_well_inside_region_is_stable(self):
        mu_p = 0.9 * (1 - 0.5 * 0.3)  # 0.765
        cfg = sim_config(a_s=0.5, lambda_p=round(0.9 * mu_p, 4), slots=1)
        probe = measure_stability(cfg, window=40_000)
        assert probe.stable is True
        assert abs(probe.drift) < 1e-3

    def test_overload_drift_matches_gap(self):
        mu_p = 0.765
        lam = round(1.1 * mu_p, 4)  # 0.8415
        cfg = sim_config(a_s=0.5, lambda_p=lam, slots=1)
        probe = measure_stability(cfg, window=100_000)
        assert probe.stable is False
        assert probe.drift == pytest.approx(lam - mu_p, abs=0.01)

    def test_boundary_declared_unstable(self):
        # a critical queue grows ~ sqrt(t); its drift estimate shrinks with
        # the window, so the convention check runs at the minimum window
        cfg = sim_config(a_s=0.5, lambda_p=0.765, slots=1)
        probe = measure_stability(cfg, window=10_000)
        assert probe.stable is False

    def test_window_precondition(self):
        with pytest.raises(DomainError):
            measure_stability(sim_config(), window=5_000)

    def test_series_probe_has_no_window_precondition(self):
        flat = stability(np.zeros(100, dtype=np.int64))
        assert flat.stable is True
        assert flat.drift == pytest.approx(0.0, abs=1e-12)
        assert flat.terminal_threshold == pytest.approx(100.0)
        ramp = stability(np.arange(5_000, dtype=np.int64))
        assert ramp.stable is False
        assert ramp.drift == pytest.approx(1.0)
        assert ramp.terminal_queue == 4_999

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.integers(-50, 50) | st.integers(-2**63, 2**63 - 1), min_size=1, max_size=60))
    def test_drift_is_the_exact_slope(self, values):
        # 7-slot chunks: a series mixes chunks summed in int64 with chunks summed in Python ints
        with mock.patch.object(sim, "_SIM_CHUNK", 7):
            drift = stability(np.array(values, dtype=np.int64)).drift
        exact = drift_fraction(values)
        assert math.isnan(drift) if exact is None else drift == float(exact)

    @pytest.mark.parametrize("top", [2**31 - 1, 2**31, 2**63 - 1])  # the int64 chunk sums' limit and past it
    def test_full_chunks_near_the_sum_limit_are_exact(self, top):
        series = top - np.random.default_rng(3).integers(0, 3, 2 * CHUNK + 5)
        assert stability(series).drift == float(drift_fraction(series))

    @pytest.mark.parametrize("seed", range(5))
    def test_drift_matches_polyfit_on_random_walks(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1_000, CHUNK + 1, 300_000):
            walk = np.cumsum(rng.integers(-1, 2, n))
            drift = stability(walk).drift
            assert drift == float(drift_fraction(walk))
            assert drift == pytest.approx(np.polyfit(np.arange(n), walk.astype(np.float64), 1)[0], rel=1e-12)

    def test_ramp_drift_is_exactly_one(self):
        for n in (2, 3, 5_000, CHUNK + 1):
            assert stability(np.arange(n, dtype=np.int64)).drift == 1.0

    def test_single_slot_has_no_drift(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe = stability(np.array([3], dtype=np.int64))
        assert math.isnan(probe.drift)
        assert probe.stable is False

    def test_non_integer_series_rejected(self):
        with pytest.raises(DomainError):
            stability(np.zeros(10))

    def test_secondary_queue_probe(self):
        cfg = sim_config(a_s=1.0, lambda_p=0.0, lambda_s=0.3, slots=1,
                         mode=SimMode.ORIGINAL)
        probe = measure_stability(cfg, window=40_000, queue="secondary")
        assert probe.stable is True  # mu_s = 0.64 >> 0.3


class TestDominantSystem:
    def test_saturated_secondary_indistinguishable(self):
        cfg = sim_config(lambda_s=1.0, a_s=0.7, slots=30_000)
        report = compare_dominant(cfg)
        assert report.saturation_indistinguishable is True

    def test_dominance_with_empty_secondary(self):
        cfg = sim_config(lambda_s=0.0, a_s=0.7, slots=30_000, mode=SimMode.ORIGINAL)
        report = compare_dominant(cfg)
        assert report.dominant_ge_original is True

    def test_dominance_generic_load(self):
        cfg = sim_config(variant=Variant.S2, a_s=0.7, b_s=0.2, lambda_p=0.3,
                         lambda_s=0.2, slots=50_000, mode=SimMode.ORIGINAL)
        report = compare_dominant(cfg)
        assert report.dominant_ge_original is True

    def test_takes_its_traces_from_the_sink(self):
        # no config flag: every run's trace is streamed, so any config can be compared
        report = compare_dominant(sim_config(slots=2_000, mode=SimMode.ORIGINAL))
        assert report == DominanceReport(dominant_ge_original=True, saturation_indistinguishable=True)


class TestFeedback:
    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from([Variant.S0, Variant.S1, Variant.S2]), a_s=unit_or_random,
           b_s=unit_or_random, lambda_p=unit_or_random, lambda_s=unit_or_random,
           mode=st.sampled_from(list(SimMode)), feedback_error=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_counts_are_ordered(self, variant, a_s, b_s, lambda_p, lambda_s, mode, feedback_error, seed):
        r = run(sim_config(variant=variant, a_s=a_s, b_s=b_s, lambda_p=lambda_p, lambda_s=lambda_s,
                           slots=5_000, seed=seed, mode=mode, feedback_error=feedback_error))
        A, M, N = r.feedback_counts
        assert 0 <= A <= M <= N == 5_000

    def test_erasures_thin_the_counts(self):
        clean = run(sim_config(lambda_p=0.4, slots=50_000, feedback_error=0.0))
        noisy = run(sim_config(lambda_p=0.4, slots=50_000, feedback_error=0.5))
        assert noisy.feedback_counts.M < clean.feedback_counts.M

    def test_silent_ack_rate_identifies_arrivals(self):
        cfg = sim_config(variant=Variant.S2, a_s=0.0, b_s=0.0, lambda_p=0.3,
                         lambda_s=0.0, slots=100_000)
        r = run(cfg)
        assert r.feedback_counts.A / r.feedback_counts.N == pytest.approx(0.3, abs=0.01)


# 0, 2**63 - 1, and both sides of every power of ten in between (each digit
# count of an int64) and of 2**8, 2**16 and 2**32 (each unsigned dtype the
# writer computes digits in)
QUEUE_EDGES = np.array(sorted({0, 2**63 - 1} | {10**k + d for k in range(19) for d in (-1, 0)}
                              | {2**b + d for b in (8, 16, 32) for d in (-1, 0)}), dtype=np.int64)
# first slots whose chunks cross 2**8, 2**16 and 2**32, or start past them
SLOT_STARTS = (0, 200, 2**16 - 100, 2**32 - 100, 10**15 - 50)


@st.composite
def traces(draw):
    """Trace columns of chunk-edge lengths; the queue columns mix small sizes
    with the edges up to a drawn maximum, and events below a drawn maximum
    (0 and 255 among them) with that maximum."""
    n = draw(st.sampled_from([1, sim._TRACE_CSV_CHUNK - 1, sim._TRACE_CSV_CHUNK, sim._TRACE_CSV_CHUNK + 1])
             | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def queue():
        edges = QUEUE_EDGES[: draw(st.integers(1, len(QUEUE_EDGES)))]
        return np.where(rng.random(n) < 0.5, rng.choice(edges, n), rng.integers(0, 20, n))

    top = draw(st.sampled_from([0, 255]) | st.integers(0, 255))
    events = np.where(rng.random(n) < 0.5, top, rng.integers(0, top + 1, n)).astype(np.uint8)
    return sim.SimTrace(qp=queue(), qs=queue(), events=events, feedback=rng.integers(0, 5, n, dtype=np.uint8))


class TestTraceExport:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        with open(path, "wb") as fh:
            fh.write(sim.TRACE_CSV_HEADER)
            run(sim_config(slots=500, lambda_p=0.4), sink=partial(write_trace_rows, fh))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slot,qp,qs,events,feedback"
        assert len(lines) == 501

    def test_chunked_writer_matches_rowwise_reference(self, tmp_path):
        slots = 2 * sim._TRACE_CSV_CHUNK + 1_234  # ends in a partial chunk
        _, trace = traced_run(sim_config(slots=slots, lambda_p=0.4, feedback_error=0.2, mode=SimMode.ORIGINAL))
        assert set(np.unique(trace.feedback).tolist()) == {0, 1, 2, 3, 4}
        fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
        write_csv(trace, fast)
        write_trace_csv_rowwise(trace, str(reference))
        assert fast.read_bytes() == reference.read_bytes()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trace=traces(), lo=st.sampled_from(SLOT_STARTS) | st.integers(0, 2**40))
    def test_writer_matches_rowwise_reference(self, trace, lo, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("csv")
        write_csv(trace, tmp / "fast.csv", lo)
        write_trace_csv_rowwise(trace, str(tmp / "reference.csv"), first=lo)
        assert (tmp / "fast.csv").read_bytes() == (tmp / "reference.csv").read_bytes()

    def test_writer_peak_memory_per_chunk(self):
        # one 16,384-row chunk with a 7-digit slot column: the formatted text,
        # its digit rows and the selection fit in 3 MiB
        _, trace = traced_run(sim_config(slots=16_384, lambda_p=0.4, feedback_error=0.2))

        class Discard:
            def write(self, text):
                pass

        with mock.patch.object(sim, "_TRACE_CSV_CHUNK", 16_384):
            tracemalloc.start()
            try:
                write_trace_rows(Discard(), 1_000_000, trace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_chunk_size_changes_no_bytes(self, tmp_path):
        _, trace = traced_run(sim_config(variant=Variant.S2, a_s=0.8, b_s=0.3, lambda_p=0.45, lambda_s=0.3,
                                         slots=5_003, mode=SimMode.ORIGINAL, feedback_error=0.2, initial_qp=95))
        assert set(np.unique(trace.feedback).tolist()) == {0, 1, 2, 3, 4}
        with mock.patch.object(sim, "_TRACE_CSV_CHUNK", 7):
            write_csv(trace, tmp_path / "tiny.csv")
        write_trace_csv_rowwise(trace, str(tmp_path / "reference.csv"))
        assert (tmp_path / "tiny.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_negative_queue_size_rejected(self, tmp_path):
        _, trace = traced_run(sim_config(slots=100))
        bad = replace(trace, qs=trace.qs - 1)
        with pytest.raises(DomainError):
            write_csv(bad, tmp_path / "trace.csv")

    @pytest.mark.parametrize("column, value", [("feedback", 5), ("feedback", 255), ("events", 256), ("events", -1)])
    def test_events_or_feedback_code_out_of_range_rejected(self, column, value):
        # a row's tail is looked up by events * 5 + code: a code of 5 would give events + 1 and "none", a key
        # past the table an IndexError, and a negative one a row from its end
        _, trace = traced_run(sim_config(slots=100))
        values = getattr(trace, column).astype(np.int64 if column == "events" else np.uint8)
        values[37] = value
        with pytest.raises(DomainError, match=f"trace {column}"):
            write_trace_rows(io.BytesIO(), 0, replace(trace, **{column: values}))

    def test_every_events_and_feedback_pair(self, tmp_path):
        # one row for each of the 1,280 (events, code) pairs, in a shuffled order, numbered across 10**6
        rng = np.random.default_rng(7)
        pairs = rng.permutation(256 * 5)
        trace = sim.SimTrace(qp=rng.integers(0, 1_000, len(pairs)), qs=rng.integers(0, 12, len(pairs)),
                             events=(pairs // 5).astype(np.uint8), feedback=(pairs % 5).astype(np.uint8))
        write_csv(trace, tmp_path / "fast.csv", 10**6 - 640)
        write_trace_csv_rowwise(trace, str(tmp_path / "reference.csv"), first=10**6 - 640)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_tail_table_is_built_only_by_a_writer(self, tmp_path):
        # the rows' tail table is built on first use: not at import, not by an untraced run, and not in the
        # process of a traced `simulate`, whose writer process (forked where the platform can) builds its own
        doc = yaml.safe_load((Path(__file__).parent.parent / "configs" / "validate_simulation.yaml").read_text())
        doc["sim"].update(slots=50_000, record_traces=True)
        doc["output_dir"] = str(tmp_path / "out")
        (tmp_path / "config.json").write_text(json.dumps(doc))
        src = str(Path(sim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import os, sys; from cogaccess import cli, sim; built = lambda: sim._tails.cache_info().currsize;"
                  "after = [built()]; cfg = cli.load_config('config.json');"
                  "sim.run(cli._sim_config(cfg, cli._resolve_scheme_config(cfg)[0], cfg.sim.slots));"
                  "after.append(built()); cli.main(['simulate', '-c', 'config.json']);"
                  "print(*after, built(), hasattr(os, 'fork'), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        *built, forks = proc.stderr.split()
        assert built == ["0", "0", "0" if forks == "True" else "1"]
        assert (tmp_path / "out" / "trace.csv").stat().st_size > 15 * 50_000


def assert_same_result(fast, reference):
    """Two (SimResult, SimTrace) pairs identical: every result field of the
    same type and repr, every trace column equal in dtype and value."""
    (result, trace), (ref_result, ref_trace) = fast, reference
    for f in fields(result):
        a, b = getattr(result, f.name), getattr(ref_result, f.name)
        assert type(a) is type(b) and repr(a) == repr(b), (f.name, a, b)
    for f in fields(trace):
        x, y = getattr(trace, f.name), getattr(ref_trace, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name


@st.composite
def engine_configs(draw):
    variant = draw(st.sampled_from([Variant.S0, Variant.S1, Variant.S2]))
    return sim_config(
        variant=variant,
        a_s=draw(unit_or_random),
        b_s=draw(unit_or_random) if variant is Variant.S2 else 0.0,
        lambda_p=draw(unit_or_random),
        lambda_s=draw(unit_or_random),
        slots=draw(st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1])
                   | st.integers(1, 999).map(lambda k: 2 * CHUNK + k)),
        seed=draw(st.integers(0, 2**32 - 1)),
        mode=draw(st.sampled_from(list(SimMode))),
        feedback_error=draw(st.integers(0, 900).map(lambda k: k / 1000)),
        initial_qp=draw(st.integers(0, 30)),
        initial_qs=draw(st.integers(0, 30)),
    )


class TestEngine:
    """The chunked Lindley engine against the per-slot loop it replaced."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=engine_configs())
    def test_matches_per_slot_loop(self, cfg):
        result, trace = traced_run(cfg)
        reference = run_loop(cfg)
        assert_same_result((result, trace), reference)
        assert_same_result((run(cfg), trace), reference)  # a run without a sink gives the same result

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_chunk_size_changes_no_output(self, mode):
        cfg = sim_config(variant=Variant.S2, a_s=0.8, b_s=0.3, lambda_p=0.35, lambda_s=0.3,
                         slots=5_003, mode=mode, feedback_error=0.2, initial_qp=4, initial_qs=2)
        with mock.patch.object(sim, "_SIM_CHUNK", 7):
            tiny = traced_run(cfg)
        assert_same_result(tiny, traced_run(cfg))
        assert_same_result(tiny, run_loop(cfg))

    @pytest.mark.parametrize("mode", list(SimMode))
    @pytest.mark.parametrize("slots", [350, 700])
    def test_batch_edges_on_chunk_edges(self, slots, mode):
        # 50 batches of 7 or 14 slots over 7-slot chunks: every batch starts
        # on a chunk's first slot and ends on a chunk's last slot
        cfg = sim_config(variant=Variant.S2, a_s=0.8, b_s=0.3, lambda_p=0.35, lambda_s=0.3, slots=slots,
                         mode=mode, feedback_error=0.2, initial_qp=4, initial_qs=2)
        assert [edge % 7 for edge in sim._batch_edges(slots)] == [0] * 51
        with mock.patch.object(sim, "_SIM_CHUNK", 7):
            traced, bare = traced_run(cfg), run(cfg)
        reference = run_loop(cfg)
        assert_same_result(traced, reference)
        assert_same_result((bare, traced[1]), reference)

    @pytest.mark.parametrize("initial_qp", [0, 40])
    def test_overloaded_primary_delay_across_chunks(self, initial_qp):
        # the backlog spans hundreds of 7-slot chunks, so the FIFO delay reads
        # the arrival bits of a chunk far behind the last
        cfg = sim_config(a_s=0.9, lambda_p=0.95, slots=3_001, mode=SimMode.ORIGINAL,
                         initial_qp=initial_qp)
        with mock.patch.object(sim, "_SIM_CHUNK", 7):
            tiny = traced_run(cfg)
        assert tiny[0].stability.terminal_queue > 500 and tiny[0].primary_departures > initial_qp
        assert_same_result(tiny, traced_run(cfg))
        assert_same_result(tiny, run_loop(cfg))

    @staticmethod
    def peak_memory(cfg, sink=None):
        """Peak traced memory of one run of cfg."""
        tracemalloc.start()
        try:
            run(cfg, sink=sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_overloaded_primary_stays_within_the_memory_estimate(self):
        # only the FIFO delay's arrival bits (1/8 B a slot) grow with the run,
        # even when the primary queue grows by ~0.3 packets a slot
        def peak(slots):
            return self.peak_memory(sim_config(a_s=0.9, lambda_p=1.0, slots=slots, mode=SimMode.ORIGINAL))

        small, large = 4 * CHUNK, 16 * CHUNK
        peak(small)  # first-call allocations are not per slot
        per_slot = (peak(large) - peak(small)) / (large - small)
        assert 0 < per_slot <= 1 / 8

    @pytest.mark.parametrize("sink", ["none", "trace csv"])
    def test_stable_run_holds_no_per_slot_memory(self, sink, tmp_path):
        # a stable primary keeps no arrival bits, so from 4 to 64 chunks the
        # peak moves only by the spread of the per-chunk index arrays (up to
        # 4.5 KiB over eight seeds), where one bit kept a slot would add 120
        # KiB; 1,024-row writer chunks keep the slot column's seventh digit
        # (11 B a row of a writer chunk) within that spread
        with open(tmp_path / "trace.csv", "wb") as fh, mock.patch.object(sim, "_SIM_CHUNK", 16_384), \
                mock.patch.object(sim, "_TRACE_CSV_CHUNK", 1_024):
            write = partial(sim.write_trace_rows, fh) if sink == "trace csv" else None

            def peak(chunks):
                return self.peak_memory(sim_config(a_s=0.5, lambda_p=0.3, slots=chunks * 16_384), write)

            peak(64)  # the first 64-chunk run's one-time numpy allocations are not per slot
            assert peak(64) - peak(4) <= 8192

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_original_mode_peak_memory_is_flat_in_the_run_length(self, tmp_path):
        # the solve's working arrays are made once per run, at chunk size, so
        # a run 20 times longer peaks no higher (VmHWM of fresh interpreters)
        doc = yaml.safe_load((Path(__file__).parent.parent / "configs" / "validate_simulation.yaml").read_text())
        src = str(Path(sim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys; from cogaccess.cli import main; main(sys.argv[1:]); status = open('/proc/self/status');"
                  "print([line.split()[1] for line in status if line.startswith('VmHWM')][0], file=sys.stderr)")

        def peak_kib(slots):
            doc["sim"].update(slots=slots, mode="original", record_traces=False)
            (tmp_path / "config.json").write_text(json.dumps(doc))
            proc = subprocess.run([sys.executable, "-c", script, "simulate", "-c", "config.json"], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stderr)

        assert peak_kib(20_000_000) - peak_kib(1_000_000) <= 512

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_traced_peak_memory_is_flat_in_the_run_length(self, tmp_path):
        # the sink is a plain call that hands each chunk to the writer process: a traced run 4 times longer
        # peaks no higher (VmHWM of fresh interpreters), nor does its writer (the largest reaped child's
        # ru_maxrss), though its trace CSV is 4 times larger
        doc = yaml.safe_load((Path(__file__).parent.parent / "configs" / "validate_simulation.yaml").read_text())
        src = str(Path(sim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import resource, sys; from cogaccess.cli import main; main(sys.argv[1:]);"
                  "status = open('/proc/self/status'); writer = resource.getrusage(resource.RUSAGE_CHILDREN);"
                  "print([line.split()[1] for line in status if line.startswith('VmHWM')][0], writer.ru_maxrss,"
                  "file=sys.stderr)")

        def peaks_kib(slots):
            doc["sim"].update(slots=slots, record_traces=True)
            doc["output_dir"] = str(tmp_path / "out")
            (tmp_path / "config.json").write_text(json.dumps(doc))
            proc = subprocess.run([sys.executable, "-c", script, "simulate", "-c", "config.json"], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert (tmp_path / "out" / "trace.csv").stat().st_size > 15 * slots
            parent, writer = map(int, proc.stderr.split())
            assert writer > 0  # a writer process ran
            return parent, writer

        (parent_short, writer_short), (parent_long, writer_long) = peaks_kib(1_000_000), peaks_kib(4_000_000)
        assert parent_long - parent_short <= 512
        assert writer_long - writer_short <= 512

    @pytest.mark.parametrize("draw", ["random", "standard_exponential"])
    def test_stream_read_in_chunks_equals_one_read(self, draw):
        n = 3 * CHUNK + 17
        whole = getattr(np.random.default_rng(7), draw)(n)
        rng = np.random.default_rng(7)
        parts = [getattr(rng, draw)(min(size, n - lo)) for lo, size in
                 ((lo, 7 if lo < 70 else CHUNK) for lo in range(0, 70, 7))]
        parts += [getattr(rng, draw)(min(CHUNK, n - lo)) for lo in range(70, n, CHUNK)]
        assert np.array_equal(np.concatenate(parts), whole)

    @settings(max_examples=40, deadline=None)
    @given(cfg=engine_configs().map(lambda cfg: replace(cfg, slots=cfg.slots % 3_000 + 1)))
    def test_stability_in_the_run_equals_the_series_probe(self, cfg):
        # 7-slot chunks: the run's chunk-by-chunk sums against one probe of the whole series
        with mock.patch.object(sim, "_SIM_CHUNK", 7):
            bare = run(cfg)
            traced, trace = traced_run(cfg)
        assert repr(bare.stability) == repr(traced.stability) == repr(stability(trace.qp))

    def test_streamed_trace_equals_the_written_trace(self, tmp_path):
        cfg = sim_config(variant=Variant.S2, a_s=0.8, b_s=0.3, lambda_p=0.45, lambda_s=0.3, slots=5_003,
                         mode=SimMode.ORIGINAL, feedback_error=0.2, initial_qp=95)
        with mock.patch.object(sim, "_SIM_CHUNK", 7), mock.patch.object(sim, "_TRACE_CSV_CHUNK", 5):
            with open(tmp_path / "streamed.csv", "wb") as fh:
                fh.write(sim.TRACE_CSV_HEADER)
                run(cfg, sink=partial(sim.write_trace_rows, fh))
            _, recorded = traced_run(cfg)
            write_csv(recorded, tmp_path / "recorded.csv")
        assert set(np.unique(recorded.feedback).tolist()) == {0, 1, 2, 3, 4}
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "recorded.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(a_s=st.floats(0.0, 1.0), b_s=st.floats(0.0, 1.0), lambda_p=st.floats(0.0, 1.0),
           lambda_s=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           initial_qs=st.integers(0, 5))
    def test_dominant_queues_never_shorter(self, a_s, b_s, lambda_p, lambda_s, seed, initial_qs):
        cfg = sim_config(variant=Variant.S2, a_s=a_s, b_s=b_s, lambda_p=lambda_p,
                         lambda_s=lambda_s, slots=20_000, seed=seed, initial_qs=initial_qs)
        _, original = traced_run(replace(cfg, mode=SimMode.ORIGINAL))
        _, dominant = traced_run(replace(cfg, mode=SimMode.DOMINANT))
        assert np.all(dominant.qp >= original.qp)
        assert np.all(dominant.qs >= original.qs)


# density ranges of p_service, p_blocked, s_service, arrival_p and arrival_s
# under which both queues empty and refill often: many segments, many passes
BUSY_AND_IDLE = ((0.7, 1.0), (0.2, 1.0), (0.3, 0.9), (0.05, 0.6), (0.05, 0.5))


@st.composite
def chunks(draw):
    """The arguments of `_solve_queues` before its outputs: initial sizes
    from 0 to huge, and each mask at its own drawn density, anywhere in
    [0, 1] or within BUSY_AND_IDLE."""
    m = draw(st.integers(1, 300) | st.just(CHUNK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.integers(0, 3) | st.integers(0, 2**62)
    busy_and_idle = draw(st.booleans())
    densities = [draw(st.floats(lo, hi) if busy_and_idle else unit_or_random) for lo, hi in BUSY_AND_IDLE]
    return (draw(sizes), draw(sizes), *(rng.random(m) < density for density in densities))


def solve_both(args, dominant):
    """_solve_queues and the fixed-point oracle on one chunk: (ends, qp, qs) each."""
    m = len(args[2])
    results = []
    for solve in (sim._solve_queues, solve_queues_fixed_point):
        qp, qs = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
        results.append((solve(*args, qp, qs, dominant), qp, qs))
    return results


def assert_same_solve(args, dominant):
    (ends, qp, qs), (ref_ends, ref_qp, ref_qs) = solve_both(args, dominant)
    assert ends == ref_ends
    assert np.array_equal(qp, ref_qp) and np.array_equal(qs, ref_qs)
    return qp, qs


def block_chunk(kinds):
    """A chunk of one-packet busy periods of the primary, each its own
    segment: a dirty block (3 slots) is blocked where the first pass's
    secondary contends, a clean block (2 slots) is not.  The secondary
    never has a packet."""
    p_service, p_blocked, arrival_p = [], [], []
    for dirty in kinds:
        p_service += [1, 1, 1] if dirty else [1, 1]
        p_blocked += [0, 1, 0] if dirty else [0, 0]
        arrival_p += [1, 0, 0] if dirty else [1, 0]
    m = len(p_service)
    masks = (p_service, p_blocked, np.ones(m), arrival_p, np.zeros(m))
    return (0, 0, *(np.array(mask, dtype=bool) for mask in masks))


def lindley_lengths(call):
    """The lengths of the series `call()` hands to sim._lindley, in order."""
    lengths = []
    lindley = sim._lindley

    def counting(q0, service, *args):
        lengths.append(len(service))
        return lindley(q0, service, *args)

    with mock.patch.object(sim, "_lindley", counting):
        call()
    return lengths


class TestChunkSolve:
    """The segmented original-mode solve against the fixed point it replaced."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(args=chunks(), dominant=st.booleans())
    def test_matches_the_fixed_point(self, args, dominant):
        assert_same_solve(args, dominant)

    @pytest.mark.parametrize("shape", ["overloaded primary", "all regeneration", "p_blocked all True",
                                       "p_blocked all False"])
    @pytest.mark.parametrize("m", [1, 2, 300, CHUNK])
    def test_corner_shapes(self, shape, m):
        rng = np.random.default_rng(m)
        p_service, p_blocked, s_service, arrival_p, arrival_s = (rng.random((5, m)) < 0.6)
        if shape == "overloaded primary":
            arrival_p[:] = True
        elif shape == "all regeneration":
            arrival_p[:] = arrival_s[:] = False
        else:
            p_blocked[:] = shape == "p_blocked all True"
        qp, qs = assert_same_solve((0, 0, p_service, p_blocked, s_service, arrival_p, arrival_s), False)
        if shape == "overloaded primary":
            assert np.all(qp[1:] > 0)  # no slot after slot 0 regenerates
        elif shape == "all regeneration":
            assert not qp.any() and not qs.any()

    @pytest.mark.parametrize("clean, gathered", [(61, True), (60, False)])
    def test_dirty_share_at_the_fallback(self, clean, gathered):
        # 40 dirty blocks, the first one leading: from its blocked slot (slot 1)
        # on, 120 dirty slots are at most half of the 241 slots of 61 clean
        # blocks' chunk, but more than half of the 239 of 60 clean blocks'
        kinds = [True] + list(np.random.default_rng(clean).permutation([True] * 39 + [False] * clean))
        args = block_chunk(kinds)
        m = len(args[2])
        lengths = lindley_lengths(lambda: assert_same_solve(args, False))
        assert lengths == ([m, m, 120, 120] if gathered else [m, m, m - 1, m - 1])

    def test_gathered_last_segment_gives_the_end_sizes(self):
        # the chunk ends in a dirty block's blocked slot: the first pass
        # leaves its packet queued, the answer serves it, and the pass that
        # does so gathers the two dirty segments (5 slots of 13)
        p_service, p_blocked, s_service, arrival_p, arrival_s = (mask[:-1] for mask in block_chunk(
            [True, False, False, False, False, True])[2:])
        args = (0, 0, p_service, p_blocked, s_service, arrival_p, arrival_s)
        lengths = lindley_lengths(lambda: assert_same_solve(args, False))
        assert lengths == [13, 13, 5, 5]
        assert solve_both(args, True)[0][0] == (1, 0) and solve_both(args, False)[0][0] == (0, 0)

    @pytest.mark.parametrize("cfg, most", [
        (sim_config(a_s=0.7, lambda_p=0.3), 3.5),  # 7.89 with the fixed-point solve
        (sim_config(a_s=0.9, lambda_p=1.0), 2.2),  # 2.13 with it
    ], ids=["stable", "overloaded"])
    def test_slots_solved_per_slot(self, cfg, most):
        cfg = replace(cfg, slots=1_000_000, mode=SimMode.ORIGINAL)
        assert sum(lindley_lengths(lambda: run(cfg))) / cfg.slots <= most

    @pytest.mark.parametrize("cfg", [
        sim_config(a_s=0.7, lambda_p=0.3),  # stable
        sim_config(variant=Variant.S2, a_s=0.8, b_s=0.3, lambda_p=0.3),  # stable, more passes
        sim_config(a_s=0.7, lambda_p=0.68, lambda_s=0.1),  # near the boundary (mu_p = 0.711)
        sim_config(a_s=0.9, lambda_p=1.0),  # overloaded
    ], ids=["stable S1", "stable S2", "near the boundary", "overloaded"])
    def test_peak_memory_per_chunk_at_most_the_fixed_points(self, cfg):
        # the oracle is the solve this one replaced, recursion included, so
        # its traced peak is the old solve's
        chunks = []
        solve = sim._solve_queues

        def keep_args(*args):
            # copies: a chunk's draws are views of rows the run reuses for every chunk
            chunks.append(tuple(np.copy(arg) if isinstance(arg, np.ndarray) else arg for arg in args[:7]))
            return solve(*args)

        with mock.patch.object(sim, "_solve_queues", keep_args):
            run(replace(cfg, slots=4 * CHUNK, mode=SimMode.ORIGINAL))
        assert len(chunks) == 4
        qp, qs = np.empty(CHUNK, dtype=np.int64), np.empty(CHUNK, dtype=np.int64)
        for args in chunks:  # the first chunk included
            peaks = []
            for solver in (sim._solve_queues, solve_queues_fixed_point):
                tracemalloc.start()
                try:
                    solver(*args, qp, qs, False)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[0] <= peaks[1]


class TestValidation:
    def test_bad_rates_rejected(self):
        with pytest.raises(DomainError):
            sim_config(lambda_p=1.5)
        with pytest.raises(DomainError):
            SimConfig(slots=0, seed=1, lambda_p=0.1, lambda_s=0.1,
                      scheme=SchemeConfig(Variant.S1, 1.0, 0.0, BENCH_POINT),
                      phy=BENCH_LINKS)
        with pytest.raises(DomainError):
            sim_config(feedback_error=1.0)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("slots", 2.5), ("slots", True), ("slots", "10"), ("seed", 1.0), ("seed", False),
        ("initial_qp", 2.5), ("initial_qp", -1), ("initial_qs", np.float64(3.0)), ("initial_qs", np.True_),
    ])
    def test_counts_must_be_integers(self, field, value):
        # a negative int is an integer below the field's bound, in errors.integer's shared wording
        message = f"SimConfig.{field} must be >= 0" if value == -1 else f"SimConfig.{field} must be an integer"
        with pytest.raises(DomainError, match=message):
            replace(sim_config(), **{field: value})

    @pytest.mark.parametrize("mode", ["dominant", "original"])
    def test_mode_given_by_value_runs_that_mode(self, mode):
        by_value = replace(sim_config(slots=20_000), mode=mode)
        assert by_value.mode is SimMode(mode)
        assert repr(run(by_value)) == repr(run(replace(by_value, mode=SimMode(mode))))

    @pytest.mark.parametrize("mode", ["bogus", "DOMINANT", None, 1])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(DomainError, match=f"SimConfig.mode must be 'original' or 'dominant', got {mode!r}"):
            replace(sim_config(), mode=mode)

    def test_numpy_integer_counts_are_taken_as_ints(self):
        cfg = replace(sim_config(), slots=np.int64(300), seed=np.uint8(7), initial_qp=np.int32(2), initial_qs=0)
        assert [type(x) for x in (cfg.slots, cfg.seed, cfg.initial_qp)] == [int] * 3
        assert cfg == replace(sim_config(), slots=300, seed=7, initial_qp=2)


class TestSinkThread:
    """The sink is a plain call: on the calling thread, in slot order.  An
    untraced run of more than one chunk draws ahead on one helper thread,
    which it joins."""

    CFG = sim_config(variant=Variant.S2, a_s=0.8, b_s=0.3, lambda_p=0.45, lambda_s=0.3, slots=300,
                     mode=SimMode.ORIGINAL, feedback_error=0.2)

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, None], ids=["one CPU", "two CPUs", "no affinity call"])
    @pytest.mark.parametrize("kind, starts", [("untraced", 1), ("traced", 0), ("one chunk", 0)])
    def test_draws_ahead_by_the_run_alone(self, monkeypatch, cpus, kind, starts):
        # whether a run draws ahead depends on the run only, never on the CPUs the process may use, and the
        # result is that of the same run drawn inline
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        cfg = replace(self.CFG, slots=7) if kind == "one chunk" else self.CFG
        self.counted_chunks(monkeypatch)
        inline = run(cfg, lambda lo, trace: None)
        started = self.recorded_starts(monkeypatch)
        result = run(cfg, lambda lo, trace: None) if kind == "traced" else run(cfg)
        assert len(started) == starts
        for f in fields(SimResult):
            assert repr(getattr(result, f.name)) == repr(getattr(inline, f.name)), f.name

    @staticmethod
    def counted_chunks(monkeypatch, fail_on=None):
        """Count `_chunk` calls; the one numbered fail_on (from 0) raises."""
        calls = []
        real = sim._chunk

        def chunk(*args):
            calls.append(args[2:4])
            if len(calls) - 1 == fail_on:
                raise RuntimeError("chunk failed")
            return real(*args)

        monkeypatch.setattr(sim, "_chunk", chunk)
        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)
        return calls

    @pytest.mark.parametrize("k", [0, 1, 5, 42])
    def test_sink_exception_is_raised_as_itself_and_ends_the_calls(self, monkeypatch, k):
        chunks = self.counted_chunks(monkeypatch)
        error = OSError(errno.ENOSPC, "no space left on device")
        seen = []

        def sink(lo, trace):
            seen.append(lo)
            if lo == 7 * k:
                raise error

        with pytest.raises(OSError) as caught:
            run(self.CFG, sink)
        assert caught.value is error and caught.value.errno == errno.ENOSPC
        assert seen == [7 * i for i in range(k + 1)]  # in slot order, and none after the failure
        assert k + 1 <= len(chunks) <= k + 2  # at most one more chunk drawn

    def test_sink_runs_on_the_calling_thread_in_slot_order(self, monkeypatch):
        self.counted_chunks(monkeypatch)
        callers, calls = [], []

        def simulate():
            callers.append(threading.get_ident())
            run(self.CFG, lambda lo, trace: calls.append((lo, threading.get_ident())))

        thread = threading.Thread(target=simulate)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert calls == [(lo, callers[0]) for lo in range(0, 300, 7)]

    @staticmethod
    def recorded_starts(monkeypatch):
        """The threads started, each still started: a run may wait on the one it starts."""
        started, real = [], threading.Thread.start

        def start(thread):
            started.append(thread)
            real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        return started

    @pytest.mark.parametrize("case", ["success", "sink failure", "chunk failure", "untraced", "untraced one chunk",
                                      "untraced chunk failure", "untraced draw failure"])
    def test_no_thread_outlives_the_run(self, monkeypatch, case):
        # no thread or process outlives the run: a traced run starts neither, and an untraced one of more than
        # one chunk starts one thread, which draws every chunk, and joins it however the run ends
        self.counted_chunks(monkeypatch, fail_on=3 if "chunk failure" in case else None)
        error, drawers, real_draw = RuntimeError("draw failed"), [], sim._draw

        def draw(*args):
            drawers.append(threading.get_ident())
            if case == "untraced draw failure" and len(drawers) == 4:
                raise error
            return real_draw(*args)

        monkeypatch.setattr(sim, "_draw", draw)
        started = self.recorded_starts(monkeypatch)
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("a library run forked")))

        def sink(lo, trace):
            if case == "sink failure" and lo == 14:
                raise OSError(errno.EIO, "input/output error")

        cfg = replace(self.CFG, slots=7) if case == "untraced one chunk" else self.CFG
        before = threading.enumerate()
        try:
            run(cfg, sink if case in ("success", "sink failure", "chunk failure") else None)
        except (OSError, RuntimeError) as failure:
            assert case in ("sink failure", "chunk failure", "untraced chunk failure", "untraced draw failure")
            assert case != "untraced draw failure" or failure is error
        else:
            assert case in ("success", "untraced", "untraced one chunk")
        assert threading.enumerate() == before
        if case.startswith("untraced") and case != "untraced one chunk":
            assert len(started) == 1 and set(drawers) == {started[0].ident}
        else:
            assert started == [] and set(drawers) == {threading.get_ident()}
        if case == "untraced draw failure":
            assert len(drawers) == 4  # no draw after the failed one
        elif case == "untraced chunk failure":
            assert len(drawers) <= 5  # at most one chunk past the failed one
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_drawn_ahead_equals_drawn_inline(self, monkeypatch, mode):
        # three untraced runs at once, each with its helper, over 7-slot chunks (429 handoffs each) with the
        # interpreter switching threads as often as it can: each gives, field for field, the result of the same
        # run drawn inline
        cfgs = [replace(self.CFG, slots=3_001, mode=mode, seed=seed, initial_qp=4, initial_qs=2) for seed in range(3)]
        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)
        inline = [run(cfg, lambda lo, trace: None) for cfg in cfgs]
        started = self.recorded_starts(monkeypatch)
        ahead = [None] * len(cfgs)

        def simulate(i):
            ahead[i] = run(cfgs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=simulate, args=(i,)) for i in range(len(cfgs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(started) == 2 * len(cfgs)  # the runs' threads and their helpers
        for a, b in zip(ahead, inline):
            for f in fields(SimResult):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert type(x) is type(y) and repr(x) == repr(y), (f.name, x, y)

    def test_concurrent_runs_stream_their_own_traces(self, monkeypatch):
        # four traced runs at once, each with its own sink thread, over 7-slot chunks (hundreds of handoffs
        # each) with the interpreter switching threads as often as it can: every sink sees its run's trace,
        # chunk by chunk in slot order, and no call is lost or repeated
        cfgs = [replace(self.CFG, slots=2_000, seed=seed) for seed in range(4)]
        wholes = [traced_run(cfg)[1] for cfg in cfgs]
        monkeypatch.setattr(sim, "_SIM_CHUNK", 7)
        seen = [[] for _ in cfgs]

        def simulate(i):
            run(cfgs[i], lambda lo, trace: seen[i].append((lo, trace.qp.copy(), trace.events.copy())))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=simulate, args=(i,)) for i in range(len(cfgs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for whole, chunks in zip(wholes, seen):
            assert [lo for lo, *_ in chunks] == list(range(0, 2_000, 7))
            assert np.array_equal(np.concatenate([qp for _, qp, _ in chunks]), whole.qp)
            assert np.array_equal(np.concatenate([events for *_, events in chunks]), whole.events)
