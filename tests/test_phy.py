import math

import numpy as np
import pytest

from cogaccess import phy
from cogaccess.errors import DomainError
from cogaccess.mathcore import q_func, q_inv
from cogaccess.phy import (
    LinkSuccess,
    PhyParams,
    SensingPoint,
    pfa_for_target_pmd,
    pmd_for_target_pfa,
    primary_success_prob,
    roc_from_threshold,
    secondary_success_prob,
)

from oracles import gain_for_success_prob


def make_params(**overrides):
    """Unit-ish parameters: b/(T*W) = 1, unity gains and SNRs."""
    base = dict(
        b=1e6, T=1.0, W=1e6, f_s=1e6,
        gamma_sense=0.1, sigma_u2=1.0,
        gamma_s_sd=1.0, sigma2_s_sd=1.0,
        gamma_p_pd=1.0, sigma2_p_pd=1.0,
    )
    base.update(overrides)
    return PhyParams(**base)


class TestLinkSuccess:
    def test_unit_example(self):
        # gamma*sigma2 = 1 and b/(T*W) = 1 at tau = 0: exp(-(2-1)/1)
        assert secondary_success_prob(make_params(), 0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_half_slot_sensing_hurts(self):
        p = make_params()
        assert secondary_success_prob(p, 0.5) < secondary_success_prob(p, 0.0)

    def test_high_snr_limit(self):
        p = make_params(gamma_s_sd=1e9)
        assert secondary_success_prob(p, 0.0) > 1.0 - 1e-8

    def test_monotone_non_increasing_in_tau(self):
        p = make_params()
        taus = np.linspace(0.0, p.T - 1e-9, 100)
        vals = [secondary_success_prob(p, float(t)) for t in taus]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_tau_at_or_past_slot_end_returns_zero(self):
        assert secondary_success_prob(make_params(), 1.0) == 0.0
        assert secondary_success_prob(make_params(), 1.5) == 0.0

    def test_primary_unit_example(self):
        assert primary_success_prob(make_params()) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_primary_zero_rate_never_fails(self):
        assert primary_success_prob(make_params(b=1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_primary_overflowing_rate_ratio_is_certain_outage(self):
        # 2**5000 overflows a float; the packet cannot fit and always fails
        assert primary_success_prob(make_params(W=200.0)) == 0.0
        assert make_params(W=2.0).links(0.0) == LinkSuccess(0.0, 0.0)

    def test_calibrated_gain_reproduces_target(self):
        gain = gain_for_success_prob(0.9, 1.0)
        p = make_params(gamma_p_pd=gain, sigma2_p_pd=1.0)
        assert primary_success_prob(p) == pytest.approx(0.9, abs=1e-12)


class TestRoc:
    def test_threshold_at_noise_floor_gives_half_false_alarm(self):
        p = make_params()
        assert roc_from_threshold(p, p.sigma_u2, 1e-3).p_fa == 0.5

    def test_threshold_at_signal_level_gives_half_misdetection(self):
        p = make_params()
        eps = p.sigma_u2 * (p.gamma_sense + 1.0)
        assert roc_from_threshold(p, eps, 1e-3).p_md == 0.5

    def test_longer_sensing_cuts_false_alarm(self):
        p = make_params()
        eps = 1.5 * p.sigma_u2
        assert roc_from_threshold(p, eps, 2e-4).p_fa < roc_from_threshold(p, eps, 1e-4).p_fa

    def test_zero_tau_rejected(self):
        with pytest.raises(DomainError):
            roc_from_threshold(make_params(), 1.0, 0.0)

    def test_roundtrip_through_target_forms(self):
        p = make_params()
        point = roc_from_threshold(p, 1.05, 1e-4)
        assert 0.0 < point.p_fa < 1.0 and 0.0 < point.p_md < 1.0
        again_fa = pfa_for_target_pmd(p, point.p_md, point.tau)
        again_md = pmd_for_target_pfa(p, point.p_fa, point.tau)
        assert again_fa.p_fa == pytest.approx(point.p_fa, abs=1e-9)
        assert again_md.p_md == pytest.approx(point.p_md, abs=1e-9)

    def test_target_forms_are_mutual_inverses(self):
        p = make_params()
        for tau in (1e-5, 1e-4, 1e-3):
            a = pfa_for_target_pmd(p, 0.2, tau)
            b = pmd_for_target_pfa(p, a.p_fa, tau)
            assert b.p_md == pytest.approx(0.2, abs=1e-9)

    def test_vanishing_sample_count_limits(self):
        p = make_params(f_s=1.0)
        assert pfa_for_target_pmd(p, 0.5, 1e-12).p_fa == pytest.approx(0.5, abs=1e-5)
        assert pmd_for_target_pfa(p, 0.5, 1e-12).p_md == pytest.approx(0.5, abs=1e-5)

    def test_strong_detector_example(self):
        # gamma = 1 and tau*f_s = 100 at target p_md = 0.1:
        # Q(sqrt(3)*Qinv(0.9) + 10), deep in the Gaussian tail
        p = make_params(gamma_sense=1.0, f_s=1e4)
        point = pfa_for_target_pmd(p, 0.1, 0.01)
        assert point.p_fa < 1e-13
        expected = q_func(math.sqrt(3.0) * q_inv(0.9) + 10.0)
        assert point.p_fa == pytest.approx(expected, rel=1e-9)

    def test_q_inv_runs_once_per_target_over_a_tau_grid(self, monkeypatch):
        calls = []
        monkeypatch.setattr(phy, "q_inv", lambda p: calls.append(p) or q_inv(p))
        phy._target_q_inv.cache_clear()
        p, taus = make_params(), np.geomspace(1e-6, 1e-3, 24).tolist()
        targets = (0.05, 0.15, 0.3)
        for target in targets:
            for form in (pmd_for_target_pfa, pfa_for_target_pmd):
                points = [form(p, target, tau) for tau in taus]
                assert points == [form(p, target, tau) for tau in taus]
        # pfa_for_target_pmd asks for q_inv(1 - p_md)
        assert sorted(calls) == sorted([*targets, *(1.0 - t for t in targets)])
        assert pmd_for_target_pfa(p, 0.05, 1e-4).p_md == 1.0 - q_func(
            (q_inv(0.05) - math.sqrt(1e-4 * p.f_s) * p.gamma_sense) / math.sqrt(2.0 * p.gamma_sense + 1.0))

    def test_longer_sensing_cuts_misdetection_at_fixed_pfa(self):
        p = make_params()
        vals = [pmd_for_target_pfa(p, 0.2, tau).p_md for tau in (1e-5, 1e-4, 1e-3)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_target_forms_reject_degenerate_targets(self, bad):
        p = make_params()
        with pytest.raises(DomainError):
            pfa_for_target_pmd(p, bad, 1e-3)
        with pytest.raises(DomainError):
            pmd_for_target_pfa(p, bad, 1e-3)

    def test_probabilities_stay_in_unit_interval(self):
        p = make_params()
        rng = np.random.default_rng(3)
        for _ in range(200):
            eps = float(rng.uniform(0.01, 5.0))
            tau = float(rng.uniform(1e-6, 0.5))
            point = roc_from_threshold(p, eps, tau)
            assert 0.0 <= point.p_fa <= 1.0
            assert 0.0 <= point.p_md <= 1.0


class TestTypes:
    def test_phy_params_reject_non_positive(self):
        with pytest.raises(DomainError):
            make_params(T=0.0)
        with pytest.raises(DomainError):
            make_params(gamma_s_sd=-1.0)

    def test_sensing_point_validation(self):
        with pytest.raises(DomainError):
            SensingPoint(tau=-1.0, p_fa=0.1, p_md=0.1)
        with pytest.raises(DomainError):
            SensingPoint(tau=0.1, p_fa=1.5, p_md=0.1)

    def test_link_success_dispatch(self):
        fixed = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
        assert fixed.links(0.7) is fixed
        p = make_params()
        derived = p.links(0.25)
        assert derived.p_bar_p_pd == pytest.approx(primary_success_prob(p))
        assert derived.p_bar_s_sd == pytest.approx(secondary_success_prob(p, 0.25))

    def test_channel_slot_and_detector(self):
        # a given link pair has a unit slot and no detector: only a fixed operating point applies to it
        fixed, p = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8), make_params(T=2.0)
        assert (fixed.slot, p.slot) == (1.0, 2.0)
        assert p.detector() is p
        with pytest.raises(DomainError, match="tau-dependent target modes need full PhyParams"):
            fixed.detector()
