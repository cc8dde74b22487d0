import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogaccess.errors import DomainError, PrimaryUnstableError
from cogaccess.optimizer import FixedSensing, OptimizationRequest, scan
from cogaccess.phy import LinkSuccess, SensingPoint
from cogaccess.schemes import SchemeConfig, Variant, service_rates

from oracles import RatePair, is_stable, s0_boundary, s2_feasible

BENCH_LINKS = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
BENCH_POINT = SensingPoint(tau=0.05, p_fa=0.2, p_md=0.3)
NO_SENSING = SensingPoint(tau=0.0, p_fa=0.0, p_md=1.0)


def cfg(variant, a_s=1.0, b_s=0.0, sensing=BENCH_POINT):
    if variant is Variant.S0:
        sensing = NO_SENSING
    return SchemeConfig(variant=variant, a_s=a_s, b_s=b_s, sensing=sensing)


class TestServiceRates:
    def test_s1_idle_primary_full_access(self):
        rates = service_rates(cfg(Variant.S1, a_s=1.0), BENCH_LINKS, 0.0)
        assert rates.mu_s == pytest.approx(0.8 * 0.8, abs=1e-12)  # 0.64
        assert rates.p_empty == 1.0

    def test_s2_with_zero_busy_access_equals_s1(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = float(rng.uniform(0, 1))
            pfa, pmd = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            point = SensingPoint(tau=0.1, p_fa=pfa, p_md=pmd)
            links = LinkSuccess(float(rng.uniform(0.2, 1)), float(rng.uniform(0.2, 1)))
            mu_p_max = links.p_bar_p_pd * (1 - a * pmd)
            lam = float(rng.uniform(0, mu_p_max))
            r1 = service_rates(cfg(Variant.S1, a_s=a, sensing=point), links, lam)
            r2 = service_rates(cfg(Variant.S2, a_s=a, b_s=0.0, sensing=point), links, lam)
            assert r2.mu_p == pytest.approx(r1.mu_p, abs=1e-12)
            assert r2.mu_s == pytest.approx(r1.mu_s, abs=1e-12)

    def test_s0_silent_secondary(self):
        rates = service_rates(cfg(Variant.S0, a_s=0.0), BENCH_LINKS, 0.3)
        assert rates.mu_p == pytest.approx(0.9)
        assert rates.mu_s == 0.0

    def test_sc_rates_match_formula(self):
        rates = service_rates(cfg(Variant.SC), BENCH_LINKS, 0.3)
        assert rates.mu_p == pytest.approx(0.9 * 0.7)
        assert rates.mu_s == pytest.approx(0.8 * 0.8 * (1 - 0.3 / 0.63))

    def test_s2_collapses_to_s0_under_effective_sensing(self):
        point = SensingPoint(tau=0.0, p_fa=0.0, p_md=1.0)
        for lam in (0.0, 0.2, 0.4):
            r2 = service_rates(SchemeConfig(Variant.S2, 0.4, 0.0, point), BENCH_LINKS, lam)
            r0 = service_rates(cfg(Variant.S0, a_s=0.4), BENCH_LINKS, lam)
            assert r2.mu_p == pytest.approx(r0.mu_p, abs=1e-12)
            assert r2.mu_s == pytest.approx(r0.mu_s, abs=1e-12)

    def test_primary_overload_raises(self):
        with pytest.raises(PrimaryUnstableError):
            service_rates(cfg(Variant.SC), BENCH_LINKS, 0.64)

    def test_boundary_equality_reports_zero_not_error(self):
        rates = service_rates(cfg(Variant.SC), BENCH_LINKS, 0.9 * 0.7)
        assert rates.p_empty == 0.0
        assert rates.mu_s == 0.0

    def test_mu_s_monotone_non_increasing_in_lambda_p(self):
        c = cfg(Variant.S2, a_s=0.6, b_s=0.2)
        lams = np.linspace(0.0, 0.4, 41)
        vals = [service_rates(c, BENCH_LINKS, float(l)).mu_s for l in lams]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    @settings(derandomize=True, max_examples=300)
    @given(
        variant=st.sampled_from(list(Variant)),
        a=st.floats(0, 1),
        b=st.floats(0, 1),
        pfa=st.floats(0, 1),
        pmd=st.floats(0, 1),
        pp=st.floats(0.05, 1),
        ps=st.floats(0, 1),
        frac=st.floats(0, 1),
    )
    def test_rates_stay_in_unit_interval(self, variant, a, b, pfa, pmd, pp, ps, frac):
        if variant is Variant.SC:
            a, b = 1.0, 0.0
        elif variant is Variant.S1:
            b = 0.0
        point = NO_SENSING if variant is Variant.S0 else SensingPoint(0.1, pfa, pmd)
        config = SchemeConfig(variant, a, b if variant is Variant.S2 else 0.0, point)
        links = LinkSuccess(pp, ps)
        probe = service_rates(config, links, 0.0)
        lam = frac * probe.mu_p  # stays inside the stability region
        rates = service_rates(config, links, lam)
        assert 0.0 <= rates.mu_p <= 1.0
        assert 0.0 <= rates.mu_s <= 1.0
        assert 0.0 <= rates.p_empty <= 1.0


class TestS0Boundary:
    def test_idle_primary(self):
        assert s0_boundary(0.0, 0.9, 0.8) == pytest.approx(0.8)

    def test_saturated_primary(self):
        assert s0_boundary(0.9, 0.9, 0.8) == 0.0

    def test_quarter_point(self):
        assert s0_boundary(0.225, 0.9, 0.8) == pytest.approx(0.8 * 0.25, abs=1e-12)  # 0.2

    def test_beyond_link_capacity_is_zero(self):
        assert s0_boundary(0.95, 0.9, 0.8) == 0.0


class TestStability:
    def test_clearly_stable(self):
        rates = service_rates(cfg(Variant.S1, a_s=0.5), BENCH_LINKS, 0.0)
        assert is_stable(rates, RatePair(0.0, 0.1)) == (True, True)

    def test_boundary_counts_unstable(self):
        rates = service_rates(cfg(Variant.SC), BENCH_LINKS, 0.3)
        verdict = is_stable(rates, RatePair(rates.mu_p, rates.mu_s))
        assert verdict.primary is False
        assert verdict.secondary is False

    def test_benchmark_point_is_primary_stable(self):
        rates = service_rates(cfg(Variant.SC), BENCH_LINKS, 0.3)
        assert rates.mu_p == pytest.approx(0.63)
        assert is_stable(rates, RatePair(0.3, 0.0)).primary is True


class TestS2Feasibility:
    def test_zero_busy_access_always_feasible_within_link(self):
        assert s2_feasible(0.85, 0.3, 0.0, 0.9) is True

    def test_full_busy_access_can_starve_primary(self):
        # p_md + (1 - p_md)*0 = 0.3 vs lambda/p_bar = 0.5
        assert s2_feasible(0.45, 0.3, 1.0, 0.9) is False

    def test_idle_primary_always_feasible(self):
        assert s2_feasible(0.0, 0.1, 1.0, 0.5) is True


class TestConfigInvariants:
    def test_sc_pins_access_probabilities(self):
        with pytest.raises(DomainError):
            SchemeConfig(Variant.SC, a_s=0.5, b_s=0.0, sensing=BENCH_POINT)

    def test_s1_rejects_busy_access(self):
        with pytest.raises(DomainError):
            SchemeConfig(Variant.S1, a_s=0.5, b_s=0.1, sensing=BENCH_POINT)

    def test_s0_requires_zero_sensing_time(self):
        with pytest.raises(DomainError):
            SchemeConfig(Variant.S0, a_s=0.5, b_s=0.0, sensing=BENCH_POINT)

    def test_s0_point_is_no_sensing(self):
        # a tau = 0 point with any other probabilities is not S0's point
        with pytest.raises(DomainError):
            SchemeConfig(Variant.S0, a_s=0.5, b_s=0.0, sensing=SensingPoint(tau=0.0, p_fa=0.2, p_md=0.3))
        req = OptimizationRequest(Variant.S0, FixedSensing(BENCH_POINT))
        assert scan(req, (0.0, 0.3), BENCH_LINKS).points == [NO_SENSING]

    def test_variant_given_by_name_is_coerced(self):
        # a name is the variant it names: S1's busy-access check applies, and S2's mu_p is S2's
        point = SensingPoint(tau=0.05, p_fa=0.9, p_md=0.05)
        with pytest.raises(DomainError, match="S1 never transmits"):
            SchemeConfig("S1", 0.5, 0.5, point)
        by_name = SchemeConfig("S2", 0.5, 0.5, point)
        assert by_name == SchemeConfig(Variant.S2, 0.5, 0.5, point) and by_name.variant is Variant.S2
        assert service_rates(by_name, BENCH_LINKS, 0.05).mu_p == pytest.approx(0.45, abs=1e-12)

    @pytest.mark.parametrize("name", ["s2", "UNION", "", 2])
    def test_unknown_variant_rejected(self, name):
        with pytest.raises(DomainError, match="unknown variant"):
            SchemeConfig(name, 1.0, 0.0, BENCH_POINT)
        with pytest.raises(DomainError, match="unknown variant"):
            OptimizationRequest(name, FixedSensing(BENCH_POINT))
