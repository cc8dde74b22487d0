import numpy as np
import pytest

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
    compare_dominant,
    measure_stability,
    run,
    stability,
    write_trace_csv,
)
from cogaccess import sim

from oracles import replay_queue, write_trace_csv_rowwise

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


class TestDeterminism:
    def test_identical_config_identical_result(self):
        cfg = sim_config(slots=20_000, record_traces=True)
        r1, r2 = run(cfg), run(cfg)
        assert r1.empirical_mu_p == r2.empirical_mu_p
        assert r1.empirical_mu_s == r2.empirical_mu_s
        assert r1.feedback_counts == r2.feedback_counts
        assert np.array_equal(r1.trace.qp, r2.trace.qp)
        assert np.array_equal(r1.trace.events, r2.trace.events)

    def test_seed_changes_trace(self):
        r1 = run(sim_config(slots=20_000, seed=1, record_traces=True))
        r2 = run(sim_config(slots=20_000, seed=2, record_traces=True))
        assert not np.array_equal(r1.trace.events, r2.trace.events)

    def test_no_trace_by_default(self):
        assert run(sim_config(slots=1000)).trace is None


class TestQueueRecursion:
    @pytest.mark.parametrize("mode", [SimMode.ORIGINAL, SimMode.DOMINANT])
    def test_trace_replays_exactly(self, mode):
        cfg = sim_config(variant=Variant.S2, a_s=0.7, b_s=0.3, lambda_p=0.35,
                         lambda_s=0.25, slots=30_000, mode=mode, record_traces=True)
        r = run(cfg)
        ev = r.trace.events
        arr_p = (ev & EV_ARRIVAL_P) > 0
        arr_s = (ev & EV_ARRIVAL_S) > 0
        dep_p = (ev & EV_PRIMARY_SUCCESS) > 0
        dep_s = ((ev & EV_SECONDARY_SUCCESS) > 0) & (r.trace.qs > 0)
        qp = replay_queue(0, dep_p, arr_p)
        qs = replay_queue(0, dep_s, arr_s)
        assert np.array_equal(qp[:-1], r.trace.qp)
        assert np.array_equal(qs[:-1], r.trace.qs)

    def test_event_algebra_invariants(self):
        r = run(sim_config(variant=Variant.S2, a_s=0.6, b_s=0.2, lambda_p=0.4,
                           slots=20_000, record_traces=True))
        ev = r.trace.events
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
        assert np.array_equal(ptx, r.trace.qp > 0)
        # feedback accompanies exactly the primary transmissions
        assert np.array_equal(r.trace.feedback > 0, ptx)


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

    def test_secondary_queue_probe(self):
        cfg = sim_config(a_s=1.0, lambda_p=0.0, lambda_s=0.3, slots=1,
                         mode=SimMode.ORIGINAL)
        probe = measure_stability(cfg, window=40_000, queue="secondary")
        assert probe.stable is True  # mu_s = 0.64 >> 0.3


class TestDominantSystem:
    def test_saturated_secondary_indistinguishable(self):
        cfg = sim_config(lambda_s=1.0, a_s=0.7, slots=30_000, record_traces=True)
        report = compare_dominant(cfg)
        assert report.saturation_indistinguishable is True

    def test_dominance_with_empty_secondary(self):
        cfg = sim_config(lambda_s=0.0, a_s=0.7, slots=30_000, record_traces=True,
                         mode=SimMode.ORIGINAL)
        report = compare_dominant(cfg)
        assert report.dominant_ge_original is True

    def test_dominance_generic_load(self):
        cfg = sim_config(variant=Variant.S2, a_s=0.7, b_s=0.2, lambda_p=0.3,
                         lambda_s=0.2, slots=50_000, record_traces=True,
                         mode=SimMode.ORIGINAL)
        report = compare_dominant(cfg)
        assert report.dominant_ge_original is True

    def test_requires_traces(self):
        with pytest.raises(DomainError):
            compare_dominant(sim_config(record_traces=False))


class TestFeedback:
    def test_counts_are_ordered(self):
        r = run(sim_config(lambda_p=0.4, slots=20_000, feedback_error=0.3))
        A, M, N = r.feedback_counts
        assert 0 <= A <= M <= N == 20_000

    def test_erasures_thin_the_counts(self):
        clean = run(sim_config(lambda_p=0.4, slots=50_000, feedback_error=0.0))
        noisy = run(sim_config(lambda_p=0.4, slots=50_000, feedback_error=0.5))
        assert noisy.feedback_counts.M < clean.feedback_counts.M

    def test_silent_ack_rate_identifies_arrivals(self):
        cfg = sim_config(variant=Variant.S2, a_s=0.0, b_s=0.0, lambda_p=0.3,
                         lambda_s=0.0, slots=100_000)
        r = run(cfg)
        assert r.feedback_counts.A / r.feedback_counts.N == pytest.approx(0.3, abs=0.01)


class TestTraceExport:
    def test_csv_roundtrip(self, tmp_path):
        r = run(sim_config(slots=500, lambda_p=0.4, record_traces=True))
        path = tmp_path / "trace.csv"
        write_trace_csv(r.trace, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slot,qp,qs,events,feedback"
        assert len(lines) == 501

    def test_chunked_writer_matches_rowwise_reference(self, tmp_path):
        slots = 2 * sim._TRACE_CSV_CHUNK + 1_234  # ends in a partial chunk
        r = run(sim_config(slots=slots, lambda_p=0.4, feedback_error=0.2,
                           mode=SimMode.ORIGINAL, record_traces=True))
        assert set(np.unique(r.trace.feedback).tolist()) == {0, 1, 2, 3, 4}
        fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
        write_trace_csv(r.trace, str(fast))
        write_trace_csv_rowwise(r.trace, str(reference))
        assert fast.read_bytes() == reference.read_bytes()


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
