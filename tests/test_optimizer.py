import math
from dataclasses import replace

import numpy as np
import pytest

from cogaccess.errors import DomainError, InfeasibleError
from cogaccess.optimizer import (
    FixedFalseAlarm,
    FixedSensing,
    OptimizationRequest,
    b_s_scan_grid,
    default_b_s_grid,
    optimize,
    primary_delay,
    scan,
    trace_region,
    union_curve,
)
from cogaccess.phy import LinkSuccess, PhyParams, SensingPoint
from cogaccess.schemes import SchemeConfig, Variant, service_rates

from oracles import (
    OPTIMIZERS_LOOP,
    curve_values,
    gain_for_success_prob,
    grid_max_access,
    optimal_as_s0,
    optimal_as_s1,
    optimal_as_s2_given,
    region_curve,
    s0_boundary,
)

BENCH_LINKS = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
BENCH_POINT = SensingPoint(tau=0.05, p_fa=0.2, p_md=0.3)
BENCH_MODE = FixedSensing(BENCH_POINT)


def bench_request(variant, margin=0.0, b_s_grid=()):
    return OptimizationRequest(
        variant=variant,
        target_mode=BENCH_MODE,
        b_s_grid=b_s_grid,
        margin=margin,
    )


def tradeoff_phy(p_bar_p_pd=0.6609):
    """Detector that actually trades off tau against p_md at target p_fa."""
    return PhyParams(
        b=1e4, T=1.0, W=1e4, f_s=1e4,
        gamma_sense=0.05, sigma_u2=1.0,
        gamma_s_sd=gain_for_success_prob(0.9, 1.0), sigma2_s_sd=1.0,
        gamma_p_pd=gain_for_success_prob(p_bar_p_pd, 1.0), sigma2_p_pd=1.0,
    )


class TestOptimalAsS1:
    def test_idle_primary(self):
        assert optimal_as_s1(0.0, 0.3, 0.9) == 1.0

    def test_saturated_primary(self):
        assert optimal_as_s1(0.9, 0.3, 0.9) == 0.0

    def test_interior_value_against_grid(self):
        a = optimal_as_s1(0.6, 0.3, 0.9)
        assert a == pytest.approx(0.6116780635742466, abs=1e-12)
        assert a == pytest.approx(grid_max_access(0.6, 0.3, 0.2, 0.9, 0.0), abs=2e-6)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            optimal_as_s1(0.95, 0.3, 0.9)

    def test_perfect_sensor_full_access(self):
        assert optimal_as_s1(0.5, 0.0, 0.9) == 1.0

    def test_result_keeps_primary_stable(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            pbar = float(rng.uniform(0.1, 1.0))
            lam = float(rng.uniform(0.0, pbar))
            pmd = float(rng.uniform(0.0, 1.0))
            a = optimal_as_s1(lam, pmd, pbar)
            assert lam <= pbar * (1.0 - a * pmd) + 1e-12

    def test_monotone_non_increasing_in_lambda_p(self):
        lams = np.linspace(0.0, 0.9, 61)
        vals = [optimal_as_s1(float(l), 0.3, 0.9) for l in lams]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestOptimalAsS2Given:
    def test_zero_busy_access_reduces_to_s1(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pbar = float(rng.uniform(0.1, 1.0))
            lam = float(rng.uniform(0.0, pbar))
            pmd = float(rng.uniform(0.0, 1.0))
            pfa = float(rng.uniform(0.0, 1.0))
            a2 = optimal_as_s2_given(0.0, lam, pmd, pfa, pbar)
            a1 = optimal_as_s1(lam, pmd, pbar)
            assert a2 == pytest.approx(a1, abs=1e-12)

    def test_idle_primary_full_access(self):
        assert optimal_as_s2_given(0.7, 0.0, 0.3, 0.2, 0.9) == 1.0

    def test_interior_value_against_grid(self):
        a = optimal_as_s2_given(0.5, 0.4, 0.3, 0.2, 0.9)
        assert a == pytest.approx(0.324097338691444, abs=1e-12)
        assert a == pytest.approx(grid_max_access(0.4, 0.3, 0.2, 0.9, 0.5), abs=2e-6)

    def test_grid_agreement_randomized(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 150:
            pbar = float(rng.uniform(0.1, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            pmd = float(rng.uniform(0.0, 1.0))
            pfa = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(0.0, 1.0))
            try:
                a = optimal_as_s2_given(b, lam, pmd, pfa, pbar)
            except InfeasibleError:
                assert grid_max_access(lam, pmd, pfa, pbar, b, step=1e-5) is None
                continue
            a_grid = grid_max_access(lam, pmd, pfa, pbar, b, step=1e-5)
            assert a_grid is not None
            assert abs(a - a_grid) <= 2e-5
            checked += 1

    def test_infeasible_combination_raises(self):
        # b_s = 1 leaves max service p_md * p_bar = 0.27 < 0.45
        with pytest.raises(InfeasibleError):
            optimal_as_s2_given(1.0, 0.45, 0.3, 0.2, 0.9)

    def test_certain_false_alarm_blocks_idle_access(self):
        assert optimal_as_s2_given(0.5, 0.3, 0.3, 1.0, 0.9) == 0.0

    def test_constraint_satisfied_with_tolerance(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            pbar = float(rng.uniform(0.1, 1.0))
            lam = float(rng.uniform(0.0, pbar))
            pmd = float(rng.uniform(0.0, 1.0))
            pfa = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(0.0, 1.0))
            try:
                a = optimal_as_s2_given(b, lam, pmd, pfa, pbar)
            except InfeasibleError:
                continue
            mu_p = pbar * (pmd * (1 - a) + (1 - pmd) * (1 - b))
            assert lam <= mu_p + 1e-12

    def test_numerator_constant_below_float_range(self):
        # f = (lambda_p/p_bar_p_pd)*p_fa*b_s underflows to 0: the p_fa = 0 root, not a DomainError
        assert optimal_as_s2_given(0.5, 1e-9, 0.3, 1e-317, 0.9) == optimal_as_s2_given(0.5, 1e-9, 0.3, 0.0, 0.9)

    def test_monotone_non_increasing_in_lambda_p(self):
        lams = np.linspace(0.0, 0.55, 56)
        vals = [optimal_as_s2_given(0.5, float(l), 0.3, 0.2, 0.9) for l in lams]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestOptimalAsS0:
    def test_endpoints(self):
        assert optimal_as_s0(0.0, 0.9) == 1.0
        assert optimal_as_s0(0.9, 0.9) == 0.0

    def test_quarter_point_matches_boundary(self):
        a = optimal_as_s0(0.225, 0.9)
        assert a == pytest.approx(0.5, abs=1e-12)
        rates = service_rates(
            SchemeConfig(Variant.S0, a, 0.0, SensingPoint(0.0, 0.0, 1.0)),
            BENCH_LINKS,
            0.225,
        )
        assert rates.mu_s == pytest.approx(s0_boundary(0.225, 0.9, 0.8), abs=1e-12)

    def test_matches_access_grid(self):
        # S0 is the S2 event algebra at (p_fa=0, p_md=1) with b_s unused
        a_grid = grid_max_access(0.225, 1.0, 0.0, 0.9, 0.0)
        assert optimal_as_s0(0.225, 0.9) == pytest.approx(a_grid, abs=2e-6)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            optimal_as_s0(0.95, 0.9)


class TestOptimizeS2:
    def test_zero_false_alarm_collapses_to_s1(self):
        point = SensingPoint(tau=0.05, p_fa=0.0, p_md=0.3)
        req2 = OptimizationRequest(variant=Variant.S2, target_mode=FixedSensing(point), b_s_grid=default_b_s_grid())
        req1 = replace(req2, variant=Variant.S1)
        r2 = optimize(req2, 0.4, BENCH_LINKS)
        r1 = optimize(req1, 0.4, BENCH_LINKS)
        assert r2.best.b_s == 0.0
        assert r2.lambda_s_max == pytest.approx(r1.lambda_s_max, abs=1e-12)

    def test_idle_primary_grabs_everything(self):
        r = optimize(bench_request(Variant.S2, b_s_grid=default_b_s_grid()), 0.0, BENCH_LINKS)
        assert r.best.a_s == 1.0
        assert r.best.b_s == 1.0
        assert r.lambda_s_max == pytest.approx(0.8, abs=1e-12)

    def test_small_tau_beats_large_tau_at_small_lambda_p(self):
        phy = tradeoff_phy()
        req = OptimizationRequest(
            variant=Variant.S2, target_mode=FixedFalseAlarm(0.2),
            tau_grid=(1e-3, 0.9), b_s_grid=default_b_s_grid(),
        )
        r = optimize(req, 0.05, phy)
        by_tau = {row.tau: row for row in r.per_tau}
        assert by_tau[1e-3].lambda_s > by_tau[0.9].lambda_s
        assert r.best.sensing.tau == 1e-3

    def test_all_infeasible_reports_zero(self):
        r = optimize(bench_request(Variant.S2, b_s_grid=(0.0, 0.5)), 0.95, BENCH_LINKS)
        assert r.feasible is False
        assert r.lambda_s_max == 0.0
        assert r.best is None


class TestOptimizeSc:
    def test_matches_service_rates_at_single_point(self):
        r = optimize(bench_request(Variant.SC), 0.3, BENCH_LINKS)
        rates = service_rates(
            SchemeConfig(Variant.SC, 1.0, 0.0, BENCH_POINT), BENCH_LINKS, 0.3
        )
        assert r.lambda_s_max == pytest.approx(rates.mu_s, abs=1e-12)

    def test_misdetection_saturates_feasibility(self):
        r = optimize(bench_request(Variant.SC), 0.64, BENCH_LINKS)  # 0.64 > 0.9*0.7
        assert r.feasible is False

    def test_idle_primary_factorizes(self):
        r = optimize(bench_request(Variant.SC), 0.0, BENCH_LINKS)
        assert r.lambda_s_max == pytest.approx(0.8 * 0.8, abs=1e-12)


class TestMarginAndDelay:
    def test_zero_margin_is_plain_problem(self):
        plain = optimize(bench_request(Variant.S1), 0.4, BENCH_LINKS)
        margined = optimize(bench_request(Variant.S1, margin=0.0), 0.4, BENCH_LINKS)
        assert margined.lambda_s_max == plain.lambda_s_max
        assert margined.best == plain.best
        assert margined.designed_delay_bound == math.inf

    def test_margin_tightens_throughput(self):
        plain = optimize(bench_request(Variant.S1), 0.4, BENCH_LINKS)
        tight = optimize(bench_request(Variant.S1, margin=0.05), 0.4, BENCH_LINKS)
        assert tight.lambda_s_max <= plain.lambda_s_max
        assert tight.designed_delay_bound == pytest.approx((1 - 0.4) / 0.05)

    def test_delay_bound_example(self):
        r = optimize(bench_request(Variant.S1, margin=0.1), 0.4, BENCH_LINKS)
        assert r.designed_delay_bound == pytest.approx(6.0)

    def test_margin_near_capacity_clips_access(self):
        # max mu_p at a_s = 0 is p_bar = 0.9; margin pushes the cap to zero
        r = optimize(bench_request(Variant.S1, margin=0.499999), 0.4, BENCH_LINKS)
        assert r.feasible
        assert r.best.a_s == pytest.approx(0.0, abs=1e-4)

    def test_margin_constraint_enforced(self):
        lam, m = 0.4, 0.1
        r = optimize(bench_request(Variant.S2, margin=m), lam, BENCH_LINKS)
        cfgb = r.best
        mu_p = 0.9 * (0.3 * (1 - cfgb.a_s) + 0.7 * (1 - cfgb.b_s))
        assert lam + m <= mu_p + 1e-12

    def test_margin_infeasible_past_capacity(self):
        # lambda_p + margin > 1 exceeds every service rate: no cell is feasible
        r = optimize(bench_request(Variant.S1, margin=0.2), 0.9, BENCH_LINKS)
        assert not r.feasible and r.best is None and r.lambda_s_max == 0.0
        assert r.designed_delay_bound == pytest.approx(0.5)

    def test_primary_delay_values(self):
        assert primary_delay(0.0, 0.5) == pytest.approx(2.0)
        assert primary_delay(0.3, 0.63) == pytest.approx(0.7 / 0.33)
        # direct substitution: (1 - 0.5)/(0.5001 - 0.5)
        assert primary_delay(0.5, 0.5001) == pytest.approx(5000.0, rel=1e-9)
        assert primary_delay(0.5, 0.5) == math.inf
        assert primary_delay(0.6, 0.5) == math.inf


class TestRegionTracing:
    LAMBDAS = tuple(float(x) for x in np.linspace(0.0, 0.63, 22))

    def test_union_dominates_constituents(self):
        req = bench_request(Variant.S2, b_s_grid=default_b_s_grid())
        s2 = trace_region(req, self.LAMBDAS, BENCH_LINKS)
        s0 = trace_region(replace(req, variant=Variant.S0), self.LAMBDAS, BENCH_LINKS)
        union = union_curve(s0, s2)
        for u, a, b in zip(*(c.lambda_s.tolist() for c in (union, s2, s0))):
            assert u >= a - 1e-15
            assert u >= b - 1e-15
            assert u == pytest.approx(max(a, b), abs=1e-15)

    def test_union_is_the_union_without_zero_in_b_s_grid(self):
        # the S2 scan always includes b_s = 0 (S1 is S2 with b_s = 0), so a
        # b_s grid without 0 still nests S1 in S2 and UNION above every scheme
        lambdas = tuple(0.63 / 63 * i for i in range(64))
        req = bench_request(Variant.S2, b_s_grid=(0.5, 1.0))
        curves = {
            scheme: region_curve(scheme, lambdas, req, BENCH_LINKS).lambda_s.tolist()
            for scheme in (Variant.SC, Variant.S1, Variant.S2, Variant.S0, "UNION")
        }
        for i in range(len(lambdas)):
            assert curves[Variant.S2][i] >= curves[Variant.S1][i] - 1e-12
            best_other = max(curves[v][i] for v in (Variant.SC, Variant.S1, Variant.S0))
            assert curves["UNION"][i] >= best_other - 1e-12

    def test_b_s_scan_grid_puts_zero_first(self):
        assert b_s_scan_grid((0.5, 1.0)) == (0.0, 0.5, 1.0)
        assert b_s_scan_grid((0.0, 1.0)) == (0.0, 1.0)
        assert b_s_scan_grid(()) == default_b_s_grid()

    def test_boundaries_monotone_non_increasing(self):
        req = bench_request(Variant.S2, b_s_grid=default_b_s_grid())
        for scheme in (Variant.SC, Variant.S1, Variant.S2, Variant.S0, "UNION"):
            curve = region_curve(scheme, self.LAMBDAS, req, BENCH_LINKS)
            vals = curve.lambda_s.tolist()
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_curves_reach_zero_at_capacity(self):
        req = bench_request(Variant.SC)
        curve = trace_region(req, (0.0, 0.3, 0.63), BENCH_LINKS)
        assert curve.lambda_s[-1] == pytest.approx(0.0, abs=1e-12)
        s0 = trace_region(bench_request(Variant.S0), (0.0, 0.45, 0.9), BENCH_LINKS)
        assert s0.lambda_s[-1] == pytest.approx(0.0, abs=1e-12)

    def test_switch_policy_records_argmax(self):
        req = bench_request(Variant.S2, b_s_grid=default_b_s_grid())
        s2 = trace_region(req, self.LAMBDAS, BENCH_LINKS)
        s0 = trace_region(replace(req, variant=Variant.S0), self.LAMBDAS, BENCH_LINKS)
        union = union_curve(s0, s2)
        # the union's points carry the winning scheme's label, tau, a_s and b_s
        assert union.scheme == "UNION" and union.lambda_p.tolist() == list(self.LAMBDAS)
        rows = (list(zip(*(column.tolist() for column in c[1:]))) for c in (union, s2, s0))
        for point, a, b in zip(*rows, strict=True):
            assert point == (a if a[1] > b[1] else b)

    def test_sensing_free_scheme_can_beat_long_sensing(self):
        phy = tradeoff_phy()
        req = OptimizationRequest(
            variant=Variant.S2, target_mode=FixedFalseAlarm(0.2),
            tau_grid=(0.9,), b_s_grid=default_b_s_grid(),
        )
        lams = tuple(float(x) for x in np.linspace(0.0, 0.6, 13))
        s2_long = trace_region(req, lams, phy)
        s0 = trace_region(replace(req, variant=Variant.S0), lams, phy)
        wins = [b > a for a, b in zip(s2_long.lambda_s.tolist(), s0.lambda_s.tolist())]
        assert any(wins)

    def test_invalid_grid_rejected(self):
        req = bench_request(Variant.S1)
        with pytest.raises(DomainError):
            trace_region(req, (), BENCH_LINKS)
        with pytest.raises(DomainError):
            trace_region(req, (0.3, 0.1), BENCH_LINKS)
        with pytest.raises(DomainError, match="non-empty and strictly increasing"):
            trace_region(req, ((0.1, 0.2), (0.3, 0.4)), BENCH_LINKS)

    def test_union_needs_one_lambda_p_grid(self):
        # S0 and S2 curves on different grids have no pointwise maximum
        req = bench_request(Variant.S2, b_s_grid=default_b_s_grid())
        s0 = trace_region(replace(req, variant=Variant.S0), (0.1, 0.2), BENCH_LINKS)
        for lams in ((0.0, 0.3, 0.5), (0.1, 0.3), (0.1,)):
            with pytest.raises(DomainError, match="same lambda_p grid"):
                union_curve(s0, trace_region(req, lams, BENCH_LINKS))


class TestRequestValidation:
    def test_tau_grid_must_be_positive_sorted(self):
        with pytest.raises(DomainError):
            OptimizationRequest(Variant.S1, BENCH_MODE, tau_grid=(0.0, 0.1))
        with pytest.raises(DomainError):
            OptimizationRequest(Variant.S1, BENCH_MODE, tau_grid=(0.2, 0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", [FixedFalseAlarm(0.2), BENCH_MODE], ids=["tau-dependent", "pinned"])
    @pytest.mark.parametrize("variant", [Variant.S2, Variant.S0])
    def test_tau_grid_must_be_finite(self, bad, mode, variant):
        # NaN passes both `t <= 0` and the sort check; a pinned or S0 request would keep it silently
        for grid in ((bad,), (0.1, bad)):
            with pytest.raises(DomainError, match="tau grid entries must be finite"):
                OptimizationRequest(variant, mode, tau_grid=grid)

    @pytest.mark.parametrize("variant", [Variant.S2, Variant.S0])
    def test_unknown_target_mode_rejected(self, variant):
        with pytest.raises(DomainError, match="unknown target mode 'target_pfa'"):
            optimize(OptimizationRequest(variant, "target_pfa", tau_grid=(0.1,)), 0.1, tradeoff_phy())

    def test_target_modes_need_phy(self):
        req = OptimizationRequest(Variant.S1, FixedFalseAlarm(0.2), tau_grid=(0.1,))
        with pytest.raises(DomainError):
            optimize(req, 0.1, BENCH_LINKS)

    def test_variant_given_by_name_solves_its_problem(self):
        # p_fa = 0.9: S2's busy-outcome access pays, so S1's optimum is not S2's
        links, lams = LinkSuccess(0.9, 0.8), (0.0, 0.05, 0.3)
        for variant in (Variant.SC, Variant.S1, Variant.S2, Variant.S0):
            by_name, by_member = (OptimizationRequest(v, FixedSensing(SensingPoint(0.05, 0.9, 0.05)),
                                                      b_s_grid=default_b_s_grid(5)) for v in (variant.value, variant))
            assert by_name == by_member and by_name.variant is variant
            assert repr(optimize(by_name, 0.05, links)) == repr(optimize(by_member, 0.05, links))
            assert curve_values(trace_region(by_name, lams, links)) == curve_values(
                trace_region(by_member, lams, links))
        s1, s2 = (optimize(replace(by_name, variant=name), 0.05, links) for name in ("S1", "S2"))
        assert s1.best.b_s == 0.0 and s1.lambda_s_max == pytest.approx(0.0753, abs=1e-4)
        assert s2.best.b_s == 0.75 and s2.lambda_s_max == pytest.approx(0.4750, abs=1e-4)
        assert scan(replace(by_name, variant="S2"), (0.05,), links).lambda_s[0, 0] == s2.lambda_s_max

    def test_load_outside_unit_interval_rejected(self):
        for lam in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError, match="lambda_p must be in"):
                optimize(bench_request(Variant.S1), lam, BENCH_LINKS)
            with pytest.raises(DomainError, match="lambda_p must be in"):
                trace_region(bench_request(Variant.S1), (lam,), BENCH_LINKS)

    def test_dispatch_matches_variants(self):
        for variant in (Variant.SC, Variant.S1, Variant.S2, Variant.S0):
            req = bench_request(variant, b_s_grid=(0.0, 0.5))
            result = optimize(req, 0.2, BENCH_LINKS)
            assert result == OPTIMIZERS_LOOP[variant](req, 0.2, BENCH_LINKS)
            assert result.best.variant is variant
