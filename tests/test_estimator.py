import math
from dataclasses import replace
from functools import partial

import pytest

from cogaccess.errors import DomainError
from cogaccess.estimator import (
    EstimatorMode,
    _policy_from_estimates,
    estimate,
    learning_then_regular,
)
from cogaccess.phy import LinkSuccess, SensingPoint
from cogaccess.schemes import SchemeConfig, Variant
from cogaccess.sim import TRACE_CSV_HEADER, FeedbackCounts, SimConfig, SimMode, run, write_trace_rows

from oracles import feedback_log_from_trace_csv, measure_stability, optimal_as_s1

BENCH_LINKS = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
BENCH_POINT = SensingPoint(tau=0.05, p_fa=0.2, p_md=0.3)
SILENT = SchemeConfig(Variant.S2, 0.0, 0.0, BENCH_POINT)


def listen_only(lambda_p, slots, feedback_error=0.0, seed=7):
    cfg = SimConfig(
        slots=slots, seed=seed, lambda_p=lambda_p, lambda_s=0.0, scheme=SILENT,
        phy=BENCH_LINKS, mode=SimMode.ORIGINAL, feedback_error=feedback_error,
    )
    return run(cfg)


class TestEstimate:
    def test_clean_feedback_identifies_arrival_rate(self):
        result = listen_only(0.3, 10_000)
        report = estimate(result.feedback_counts)
        assert report.lambda_p_est == pytest.approx(0.3, abs=0.015)

    def test_no_nacks_means_perfect_link(self):
        report = estimate(FeedbackCounts(A=200, M=200, N=1000))
        assert report.p_bar_p_pd_est == 1.0
        assert report.mu_p_est == 1.0

    def test_degenerate_counts(self):
        report = estimate(FeedbackCounts(A=0, M=100, N=1000))
        assert report.lambda_p_est == 0.0
        assert report.p_bar_p_pd_est == 0.0

    def test_no_feedback_flags_link_estimate(self):
        report = estimate(FeedbackCounts(A=0, M=0, N=1000))
        assert report.link_estimate_available is False
        assert report.p_bar_p_pd_est is None
        assert report.mu_p_est is None

    def test_modes_differ_under_erasures(self):
        counts = FeedbackCounts(A=2_700, M=3_000, N=10_000)
        unbiased = estimate(counts, 0.1, EstimatorMode.UNBIASED)
        paper = estimate(counts, 0.1, EstimatorMode.PAPER)
        assert unbiased.lambda_p_est == pytest.approx(0.27 / 0.9)
        assert paper.lambda_p_est == pytest.approx(0.27 * 0.9)

    def test_link_estimate_invariant_to_erasures(self):
        results = {}
        for p_e in (0.0, 0.1, 0.3):
            r = listen_only(0.3, 100_000, feedback_error=p_e)
            report = estimate(r.feedback_counts, p_e)
            results[p_e] = report.p_bar_p_pd_est
        for p_e, value in results.items():
            assert value == pytest.approx(0.9, abs=0.01), p_e

    def test_consistency_improves_with_learning_time(self):
        errors = []
        for n in (1_000, 10_000, 100_000):
            for p_e in (0.0, 0.1, 0.3):
                r = listen_only(0.3, n, feedback_error=p_e)
                report = estimate(r.feedback_counts, p_e)
                err = abs(report.lambda_p_est - 0.3)
                se = math.sqrt(0.3 * (1 - 0.3 * (1 - p_e)) / n) / (1 - p_e)
                assert err <= 4 * se, (n, p_e)
                if p_e == 0.0:
                    errors.append(err)
        assert errors[0] > errors[2]  # 1e3 slots vs 1e5 slots

    def test_nonempty_probability_consistent(self):
        r = listen_only(0.3, 100_000)
        report = estimate(r.feedback_counts)
        assert report.p_nonempty_est == pytest.approx(
            report.lambda_p_est / report.mu_p_est, abs=1e-12
        )
        assert report.p_nonempty_est == pytest.approx(0.3 / 0.9, abs=0.02)

    def test_rejects_empty_log(self):
        with pytest.raises(DomainError):
            estimate(FeedbackCounts(A=0, M=0, N=0))

    def test_count_ordering_enforced(self):
        with pytest.raises(DomainError):
            estimate(FeedbackCounts(A=5, M=20, N=10))
        with pytest.raises(DomainError):
            estimate(FeedbackCounts(A=7, M=5, N=10))


class TestRecommendMargin:
    def template(self):
        scheme = SchemeConfig(Variant.S1, 1.0, 0.0, BENCH_POINT)
        return SimConfig(slots=1, seed=11, lambda_p=0.3, lambda_s=0.1, scheme=scheme,
                         phy=BENCH_LINKS, mode=SimMode.ORIGINAL)

    def test_zero_bound(self):
        assert learning_then_regular(100, replace(self.template(), slots=1_000), margin=0.0).margin == 0.0

    def test_bound_passthrough_with_delay_implication(self):
        mu_pe = learning_then_regular(100, replace(self.template(), slots=1_000), margin=0.05).margin
        assert mu_pe == 0.05
        assert (1 - 0.4) / mu_pe == pytest.approx(12.0)

    def test_negative_rejected(self, monkeypatch):
        def no_run(cfg):
            raise AssertionError("margin must be checked before the learning run")

        monkeypatch.setattr("cogaccess.estimator.run", no_run)
        for margin in (-0.01, math.nan):
            with pytest.raises(DomainError):
                learning_then_regular(100, replace(self.template(), slots=1_000), margin=margin)

    def test_margin_covers_overestimated_load(self):
        # policy built from lambda_hat = lambda + e with margin e still
        # leaves the true primary stable
        lam, e = 0.4, 0.05
        a = optimal_as_s1(lam + e, 0.3, 0.9, margin=e)
        scheme = SchemeConfig(Variant.S1, a, 0.0, BENCH_POINT)
        cfg = SimConfig(slots=1, seed=3, lambda_p=lam, lambda_s=0.0, scheme=scheme,
                        phy=BENCH_LINKS, mode=SimMode.DOMINANT)
        probe = measure_stability(cfg, window=40_000)
        assert probe.stable is True

    def test_overestimate_without_margin_is_conservative(self):
        lam, e = 0.4, 0.05
        a_over = optimal_as_s1(lam + e, 0.3, 0.9)
        a_true = optimal_as_s1(lam, 0.3, 0.9)
        assert a_over <= a_true  # smaller access only helps the primary


class TestLearningThenRegular:
    def template(self, lambda_p=0.3, lambda_s=0.1, variant=Variant.S1, seed=11,
                 feedback_error=0.0):
        scheme = SchemeConfig(variant, 1.0, 0.0, BENCH_POINT)
        return SimConfig(
            slots=1, seed=seed, lambda_p=lambda_p, lambda_s=lambda_s, scheme=scheme,
            phy=BENCH_LINKS, mode=SimMode.ORIGINAL, feedback_error=feedback_error,
        )

    def test_long_learning_approaches_oracle_policy(self):
        report = learning_then_regular(50_000, replace(self.template(), slots=500_000), margin=0.0)
        a_oracle = optimal_as_s1(0.3, 0.3, 0.9)
        oracle_scheme = SchemeConfig(Variant.S1, a_oracle, 0.0, BENCH_POINT)
        oracle_cfg = SimConfig(slots=500_000, seed=12, lambda_p=0.3, lambda_s=0.1,
                               scheme=oracle_scheme, phy=BENCH_LINKS, mode=SimMode.ORIGINAL)
        oracle_run = run(oracle_cfg)
        oracle_throughput = oracle_run.secondary_departures / oracle_run.slots
        rp = report.rp_result
        assert rp.secondary_departures / rp.slots == pytest.approx(oracle_throughput, rel=0.02)
        assert rp.stability.stable is True
        assert report.fallback_silent is False

    def test_short_noisy_learning_with_margin_stays_stable(self):
        report = learning_then_regular(100, replace(self.template(seed=23), slots=5_000))
        assert report.margin > 0.0
        assert report.rp_result.stability.stable is True

    def test_margin_zero_noisy_estimates_still_run(self):
        report = learning_then_regular(1_000, replace(self.template(seed=5), slots=20_000), margin=0.0)
        assert report.policy.a_s > 0.0
        assert report.rp_result.slots == 20_000

    def test_idle_primary_falls_back_to_silence(self):
        report = learning_then_regular(1_000, replace(self.template(lambda_p=0.0), slots=10_000))
        assert report.fallback_silent is True
        assert report.policy.a_s == 0.0

    def test_s2_policy_uses_busy_access_under_false_alarms(self):
        template = self.template(variant=Variant.S2, lambda_p=0.1)
        report = learning_then_regular(20_000, replace(template, slots=200_000), margin=0.0)
        assert report.policy.variant is Variant.S2
        assert report.rp_result.stability.stable is True

    def test_phase_length_precondition(self):
        with pytest.raises(DomainError):
            learning_then_regular(10_000, replace(self.template(), slots=50_000))

    def test_s2_policy_where_idle_term_underflows(self):
        # (lambda_p_est/p_bar_est)*(1 - p_fa) underflows to 0: a policy, not a DomainError
        template = SchemeConfig(Variant.S2, 1.0, 0.0, SensingPoint(tau=0.05, p_fa=1 - 2**-53, p_md=0.3))
        policy = _policy_from_estimates(template, 1e-310, 0.9, 0.0, (0.5,))
        assert (policy.variant, policy.a_s, policy.b_s) == (Variant.S2, 1.0, 0.5)


class TestTraceIngestion:
    def test_csv_log_matches_live_counts(self, tmp_path):
        cfg = SimConfig(slots=5_000, seed=9, lambda_p=0.4, lambda_s=0.0, scheme=SILENT,
                        phy=BENCH_LINKS, mode=SimMode.ORIGINAL, feedback_error=0.2)
        path = tmp_path / "trace.csv"
        with open(path, "wb") as fh:
            fh.write(TRACE_CSV_HEADER)
            result = run(cfg, sink=partial(write_trace_rows, fh))
        from_csv = feedback_log_from_trace_csv(str(path))
        live = result.feedback_counts
        assert from_csv == live
