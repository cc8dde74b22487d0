"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Oracles are brute-force grid searches and coupled Monte Carlo
runs; closed forms are never checked against themselves.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from cogaccess.cli import main
from cogaccess.estimator import (
    estimate,
    learning_then_regular,
)
from cogaccess.mathcore import q_func, q_inv
from cogaccess.optimizer import (
    FixedSensing,
    OptimizationRequest,
    default_b_s_grid,
    optimize,
    scan,
    trace_region,
    union_curve,
)
from cogaccess.phy import (
    LinkSuccess,
    PhyParams,
    SensingPoint,
    pfa_for_target_pmd,
    pmd_for_target_pfa,
    roc_from_threshold,
)
from cogaccess.schemes import SchemeConfig, Variant, service_rates
from cogaccess.sim import SimConfig, SimMode, run

from oracles import (
    compare_dominant,
    gain_for_success_prob,
    grid_max_access,
    grid_max_fractional,
    kernel_s2_cell,
    measure_stability,
    random_s2_cell,
    region_curve,
    s2_program,
)

BENCH_LINKS = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
BENCH_POINT = SensingPoint(tau=0.05, p_fa=0.2, p_md=0.3)


def announce(number: int, label: str) -> None:
    print(f"\nACCEPTANCE {number} PASS - {label}")


def test_criterion_01_fractional_solver_oracle():
    """1000 random S2 cells (fractional programs with f > 0): the kernel's
    closed form vs a 1e-5 grid, under 10 s."""
    rng = np.random.default_rng(20260801)
    start = time.monotonic()
    worst_dx = worst_gap = 0.0
    for _ in range(1000):
        cell = random_s2_cell(rng)
        b_s, p_fa = cell[0], cell[3]
        x, lam_s, ok = kernel_s2_cell(*cell)
        x_grid, v_grid = grid_max_fractional(*s2_program(*cell), step=1e-5)
        assert ok
        worst_dx = max(worst_dx, abs(x - x_grid))
        worst_gap = max(worst_gap, abs(lam_s - b_s * p_fa - v_grid))
        assert abs(x - x_grid) <= 2e-5
        assert abs(lam_s - b_s * p_fa - v_grid) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(1, f"kernel vs grid over 1000 programs: max |dx|={worst_dx:.2e}, "
                f"max objective gap={worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_access_vs_grid():
    """The kernel's S1 a_s (through scan) and S2 a_s at one b_s vs 1e-5 grid over 500 draws."""
    rng = np.random.default_rng(20260802)
    worst = 0.0
    for _ in range(500):
        pbar = float(rng.uniform(0.1, 1.0))
        lam = float(rng.uniform(0.0, pbar))
        pmd = float(rng.uniform(0.0, 1.0))
        pfa = float(rng.uniform(0, 1))
        req = OptimizationRequest(Variant.S1, FixedSensing(SensingPoint(0.05, pfa, pmd)))
        a = float(scan(req, (lam,), LinkSuccess(pbar, 1.0)).a_s[0, 0])
        a_grid = grid_max_access(lam, pmd, pfa, pbar, 0.0, step=1e-5)
        worst = max(worst, abs(a - a_grid))
        assert abs(a - a_grid) <= 2e-5

    checked = 0
    while checked < 500:
        pbar = float(rng.uniform(0.1, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        pmd = float(rng.uniform(0.0, 1.0))
        pfa = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.0, 1.0))
        a_grid = grid_max_access(lam, pmd, pfa, pbar, b, step=1e-5)
        if a_grid is None:
            continue
        a, _, ok = kernel_s2_cell(b, lam, pmd, pfa, pbar)
        assert ok
        worst = max(worst, abs(a - a_grid))
        assert abs(a - a_grid) <= 2e-5
        checked += 1
    announce(2, f"closed-form access probabilities vs grid (500+500 draws): max |dx|={worst:.2e}")


def _optimal_config(variant, links, point, lam):
    req = OptimizationRequest(variant, FixedSensing(point), b_s_grid=default_b_s_grid())
    return optimize(req, lam, links).best


ANALYSIS_POINTS = [
    (LinkSuccess(0.9, 0.8), SensingPoint(0.05, 0.2, 0.3), 0.30),  # benchmark operating point
    (LinkSuccess(0.9, 0.8), SensingPoint(0.05, 0.2, 0.3), 0.10),
    (LinkSuccess(0.7, 0.6), SensingPoint(0.10, 0.1, 0.2), 0.20),
    (LinkSuccess(0.8, 0.9), SensingPoint(0.02, 0.3, 0.4), 0.25),
    (LinkSuccess(0.95, 0.5), SensingPoint(0.20, 0.05, 0.15), 0.40),
]


def test_criterion_03_simulation_matches_analysis():
    """Dominant-mode 1e6-slot runs within 3 SE of closed forms, < 2 min."""
    start = time.monotonic()
    seed = 100
    for links, point, lam in ANALYSIS_POINTS:
        for variant in Variant:
            scheme = _optimal_config(variant, links, point, lam)
            rates = service_rates(scheme, links, lam)
            cfg = SimConfig(
                slots=1_000_000, seed=seed, lambda_p=lam, lambda_s=0.0,
                scheme=scheme, phy=links, mode=SimMode.DOMINANT,
            )
            seed += 1
            result = run(cfg)
            assert abs(result.empirical_mu_p - rates.mu_p) <= 3 * result.empirical_mu_p_se, (
                variant, links, lam, result.empirical_mu_p, rates.mu_p)
            assert abs(result.empirical_mu_s - rates.mu_s) <= 3 * result.empirical_mu_s_se, (
                variant, links, lam, result.empirical_mu_s, rates.mu_s)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    announce(3, f"20 dominant-mode 1e6-slot runs within 3 SE of closed forms ({elapsed:.0f}s)")


def test_criterion_04_stability_boundary_bisection():
    """Empirical stability threshold within 0.01 of analytic mu_p."""
    scheme = SchemeConfig(Variant.S1, 0.5, 0.0, BENCH_POINT)
    mu_p = 0.9 * (1 - 0.5 * 0.3)  # 0.765

    def probe(lam, window=150_000, seed=41):
        cfg = SimConfig(slots=1, seed=seed, lambda_p=lam, lambda_s=0.0,
                        scheme=scheme, phy=BENCH_LINKS, mode=SimMode.DOMINANT)
        return measure_stability(cfg, window=window)

    lo, hi = 0.665, 0.865
    assert probe(lo).stable is True
    assert probe(hi).stable is False
    while hi - lo > 0.005:
        mid = round(0.5 * (lo + hi), 6)
        if probe(mid).stable:
            lo = mid
        else:
            hi = mid
    threshold = 0.5 * (lo + hi)
    assert abs(threshold - mu_p) <= 0.01

    below = probe(mu_p - 0.05, window=200_000)
    assert below.drift <= 1e-3
    above = probe(mu_p + 0.05, window=200_000)
    assert abs(above.drift - 0.05) <= 0.005
    announce(4, f"bisection threshold {threshold:.4f} vs analytic {mu_p:.4f}; "
                f"drift below={below.drift:.2e}, above={above.drift:.4f}")


def test_criterion_05_region_structure():
    """Nesting, b_s=0 collapse, union dominance, degenerate-sensor collapse."""
    lams = tuple(float(x) for x in np.linspace(0.0, 0.62, 50))
    base = OptimizationRequest(variant=Variant.S2, target_mode=FixedSensing(BENCH_POINT), b_s_grid=default_b_s_grid())
    s2 = trace_region(base, lams, BENCH_LINKS)
    s1 = trace_region(replace(base, variant=Variant.S1), lams, BENCH_LINKS)
    s2_forced = trace_region(replace(base, b_s_grid=(0.0,)), lams, BENCH_LINKS)
    s0 = trace_region(replace(base, variant=Variant.S0), lams, BENCH_LINKS)
    union = union_curve(s0, s2)
    for p2, p1, pf, pu, p0 in zip(*(c.lambda_s.tolist() for c in (s2, s1, s2_forced, union, s0))):
        assert p2 >= p1 - 1e-15
        assert p1 >= 0.0
        assert abs(pf - p1) <= 1e-12
        assert pu >= p2 - 1e-15
        assert pu >= p0 - 1e-15

    perfect = SensingPoint(tau=0.05, p_fa=0.0, p_md=0.0)
    req = replace(base, target_mode=FixedSensing(perfect))
    curves = [
        trace_region(replace(req, variant=v), tuple(float(x) for x in np.linspace(0.0, 0.89, 50)), BENCH_LINKS)
        for v in (Variant.SC, Variant.S1, Variant.S2)
    ]
    for pc, p1, p2 in zip(*[c.lambda_s.tolist() for c in curves]):
        assert abs(pc - p1) <= 1e-12
        assert abs(pc - p2) <= 1e-12
    announce(5, "region nesting, b_s=0 collapse, union dominance, degenerate-sensor collapse")


def test_criterion_06_monotonicity():
    """Access probabilities and boundaries non-increasing in lambda_p."""
    lams = tuple(float(x) for x in np.linspace(0.0, 0.62, 50))
    base = OptimizationRequest(variant=Variant.S2, target_mode=FixedSensing(BENCH_POINT), b_s_grid=default_b_s_grid())
    a1 = scan(replace(base, variant=Variant.S1), lams, BENCH_LINKS).a_s[:, 0].tolist()
    a2 = [kernel_s2_cell(0.4, l, 0.3, 0.2, 0.9)[0] for l in lams]
    a0 = scan(replace(base, variant=Variant.S0), lams, BENCH_LINKS).a_s[:, 0].tolist()
    for series in (a1, a2, a0):
        assert all(b <= a + 1e-15 for a, b in zip(series, series[1:]))
    for scheme in (Variant.SC, Variant.S1, Variant.S2, Variant.S0, "UNION"):
        curve = region_curve(scheme, lams, base, BENCH_LINKS)
        vals = curve.lambda_s.tolist()
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), scheme
    announce(6, "a_s*(lambda_p) and optimized boundaries non-increasing for all schemes")


def test_criterion_07_crossovers(tmp_path, capsys):
    """Small-tau S2 beats large-tau S2 at small lambda_p; S0 beats large-tau S2."""
    doc = {
        "phy": {
            "bits_per_packet": 1e4, "slot_seconds": 1.0, "bandwidth_hz": 1e4,
            "sampling_hz": 1e4, "sense_snr_db": -13.0,
            "secondary_snr_db": 13.0,
            "primary_snr_db": round(10 * math.log10(gain_for_success_prob(0.6609, 1.0)), 6),
        },
        "sensing": {"mode": "target_pfa", "value": 0.2},
        "schemes": ["S2", "S0"],
        "grids": {
            "lambda_p": {"start": 0.0, "stop": 0.6, "count": 25},
            "tau": [0.001, 0.9],
            "b_s": {"count": 17},
        },
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    assert main(["sweep", "-c", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)

    rows = []
    with open(payload["file"]) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rows.append(dict(zip(header, line.strip().split(","))))
    s2_small = {float(r["lambda_p"]): float(r["lambda_s"]) for r in rows
                if r["scheme"] == "S2" and float(r["tau"]) == 0.001}
    s2_large = {float(r["lambda_p"]): float(r["lambda_s"]) for r in rows
                if r["scheme"] == "S2" and float(r["tau"]) == 0.9}
    s0 = {float(r["lambda_p"]): float(r["lambda_s"]) for r in rows if r["scheme"] == "S0"}

    small_lams = sorted(s2_small)[:5]
    assert any(s2_small[l] > s2_large[l] for l in small_lams)
    assert any(s0[l] > s2_large[l] for l in s0)
    cross = next(l for l in sorted(s0) if s0[l] > s2_large[l])
    announce(7, f"S2|tau=0.001 beats S2|tau=0.9 at small lambda_p; "
                f"S0 beats S2|tau=0.9 from lambda_p={cross:.3f}")


def test_criterion_08_delay_formula():
    """Silent-secondary delay matches (1-lambda)/(mu-lambda) within 5%."""
    silent = SchemeConfig(Variant.S2, 0.0, 0.0, BENCH_POINT)
    mu_p = BENCH_LINKS.p_bar_p_pd  # 0.9 with no interference
    seed = 300
    for frac in (0.1, 0.3, 0.5):
        lam = frac * mu_p
        cfg = SimConfig(slots=1_000_000, seed=seed, lambda_p=lam, lambda_s=0.0,
                        scheme=silent, phy=BENCH_LINKS, mode=SimMode.ORIGINAL)
        seed += 1
        result = run(cfg)
        expected = (1 - lam) / (mu_p - lam)
        assert result.mean_primary_delay == pytest.approx(expected, rel=0.05), lam
    announce(8, "mean primary delay within 5% of (1-lambda_p)/(mu_p-lambda_p) at 0.1/0.3/0.5 load")


def test_criterion_09_estimator_consistency():
    """4-SE arrival-rate consistency, 0.01 link accuracy, stable LP->RP run."""
    silent = SchemeConfig(Variant.S2, 0.0, 0.0, BENCH_POINT)
    lam, n = 0.3, 100_000
    for p_e in (0.0, 0.1, 0.3):
        cfg = SimConfig(slots=n, seed=17, lambda_p=lam, lambda_s=0.0, scheme=silent,
                        phy=BENCH_LINKS, mode=SimMode.ORIGINAL, feedback_error=p_e)
        report = estimate(run(cfg).feedback_counts, p_e)
        se = math.sqrt(lam * (1 - lam * (1 - p_e)) / n) / (1 - p_e)
        assert abs(report.lambda_p_est - lam) <= 4 * se, p_e
        assert abs(report.p_bar_p_pd_est - 0.9) <= 0.01, p_e

    template = SimConfig(
        slots=1, seed=71, lambda_p=lam, lambda_s=0.1,
        scheme=SchemeConfig(Variant.S1, 1.0, 0.0, BENCH_POINT),
        phy=BENCH_LINKS, mode=SimMode.ORIGINAL, feedback_error=0.1,
    )
    two_phase = learning_then_regular(10_000, replace(template, slots=100_000))
    assert two_phase.margin > 0.0
    assert two_phase.rp_result.stability.stable is True
    announce(9, "estimator within 4 SE (P_e in {0, 0.1, 0.3}), link within 0.01, "
                "margined LP->RP keeps primary stable")


def test_criterion_10_dominant_system_checks():
    """Slotwise dominance over 1e5 slots x 10 seeds; bitwise saturation."""
    scheme = SchemeConfig(Variant.S2, 0.7, 0.2, BENCH_POINT)
    for seed in range(10):
        cfg = SimConfig(slots=100_000, seed=seed, lambda_p=0.3, lambda_s=0.2,
                        scheme=scheme, phy=BENCH_LINKS, mode=SimMode.ORIGINAL)
        report = compare_dominant(cfg)
        assert report.dominant_ge_original is True, seed
        assert report.saturation_indistinguishable is True, seed
    announce(10, "Q^dominant >= Q^original slotwise for 10 seeds; saturated traces bitwise equal")


def test_criterion_11_roc_consistency():
    """Threshold/target-form roundtrips to 1e-9; q roundtrips at the
    precision double-precision tail probabilities support."""
    phy = PhyParams(
        b=1e4, T=1.0, W=1e4, f_s=1e4, gamma_sense=0.2, sigma_u2=1.0,
        gamma_s_sd=1.0, sigma2_s_sd=1.0, gamma_p_pd=1.0, sigma2_p_pd=1.0,
    )
    worst = 0.0
    for eps in (0.9, 1.0, 1.05, 1.1, 1.3):
        for tau in (1e-4, 1e-3, 1e-2):
            point = roc_from_threshold(phy, eps, tau)
            if not (1e-12 < point.p_md < 1 - 1e-12 and 1e-12 < point.p_fa < 1 - 1e-12):
                continue
            fa = pfa_for_target_pmd(phy, point.p_md, tau).p_fa
            md = pmd_for_target_pfa(phy, point.p_fa, tau).p_md
            worst = max(worst, abs(fa - point.p_fa), abs(md - point.p_md))
            assert abs(fa - point.p_fa) <= 1e-9
            assert abs(md - point.p_md) <= 1e-9
    # x-domain roundtrip: a double just below 1 pins z only to within
    # ulp(1)/phi(z), which crosses 1e-9 near z = -5.4 (see the strict
    # variant below); inside that range the inverse meets 1e-9
    for z in np.linspace(-5.4, 6.0, 115):
        assert abs(q_inv(q_func(float(z))) - float(z)) <= 1e-9
    # p-domain roundtrip holds everywhere at the stated op tolerance
    for z in np.linspace(-6.0, 6.0, 121):
        p = q_func(float(z))
        assert abs(q_func(q_inv(p)) - p) <= 1e-12
    announce(11, f"ROC threshold/target-form roundtrips (worst {worst:.1e}); "
                 f"q roundtrip to 1e-9 on [-5.4, 6] and to 1e-12 in probability everywhere")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable in IEEE double precision: for z near -6, q_func(z) is a "
        "double just below 1 whose spacing (2**-53) only determines z to within "
        "ulp/phi(z) ~ 1.8e-8 (half-plateau 9.1e-9 at z=-6), so no inverse can "
        "meet 1e-9 there; measured 9.8e-9 at z=-5.9"
    ),
)
def test_criterion_11_strict_q_roundtrip_full_range():
    """Literal reading of the q_inv/q_func roundtrip over all of [-6, 6]."""
    for z in np.linspace(-6.0, 6.0, 121):
        assert abs(q_inv(q_func(float(z))) - float(z)) <= 1e-9
