"""The numpy scan kernel against the scalar per-cell loops it replaced,
and the structural facts of the optimized boundaries."""

import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cogaccess import optimizer
from cogaccess.errors import InfeasibleError, PrimaryUnstableError
from cogaccess.optimizer import (
    FixedFalseAlarm,
    FixedMisdetection,
    FixedSensing,
    FixedThreshold,
    OptimizationRequest,
    operating_points,
    optimize,
    scan,
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

from oracles import (
    OPTIMIZERS_LOOP,
    curve_values,
    optimal_as_s0,
    optimal_as_s1,
    optimal_as_s2_given,
    region_curve,
    trace_region_loop,
)

SCHEMES = (Variant.SC, Variant.S1, Variant.S2, Variant.S0, "UNION")

# Probabilities: the exact corners 0 and 1 and values in between, down to
# subnormal values, where products such as (lambda_p/p_bar_p_pd)*(1 - p_fa)
# underflow to zero and quotients overflow.
unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.integers(1, 999).map(lambda k: k / 1000))
inner = st.floats(0.01, 0.99)


def _grid(values, *, min_size=1, max_size=6):
    return st.lists(values, min_size=min_size, max_size=max_size, unique=True).map(lambda xs: tuple(sorted(xs)))


@st.composite
def problems(draw):
    """A channel, a request (its variant a placeholder) and a lambda_p grid."""
    if draw(st.booleans()):
        channel = LinkSuccess(p_bar_p_pd=draw(unit), p_bar_s_sd=draw(unit))
        mode = FixedSensing(SensingPoint(tau=draw(st.floats(0.0, 0.5)), p_fa=draw(unit), p_md=draw(unit)))
        tau_grid = ()
    else:
        channel = PhyParams(
            b=1e4, T=1.0, W=draw(st.floats(5e3, 3e4)), f_s=1e4,
            gamma_sense=10 ** (draw(st.floats(-20.0, 0.0)) / 10), sigma_u2=1.0,
            gamma_s_sd=10 ** (draw(st.floats(0.0, 15.0)) / 10), sigma2_s_sd=1.0,
            gamma_p_pd=10 ** (draw(st.floats(0.0, 15.0)) / 10), sigma2_p_pd=1.0,
        )
        mode = draw(st.sampled_from([FixedFalseAlarm, FixedMisdetection, FixedThreshold, FixedSensing]))
        if mode is FixedThreshold:
            mode = FixedThreshold(draw(st.floats(0.5, 2.0)))
        elif mode is FixedSensing:
            mode = FixedSensing(SensingPoint(tau=draw(st.floats(0.0, 0.99)), p_fa=draw(unit), p_md=draw(unit)))
        else:
            mode = mode(draw(inner))
        tau_grid = () if isinstance(mode, FixedSensing) else draw(_grid(st.floats(1e-3, 0.999), max_size=4))
    b_s_grid = draw(st.one_of(st.just(()), _grid(unit)))
    margin = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    req = OptimizationRequest(Variant.S2, mode, tau_grid=tau_grid, b_s_grid=b_s_grid, margin=margin)
    lambdas = draw(st.one_of(
        _grid(unit),
        _grid(unit).map(lambda g: tuple(sorted({0.0, *g}))),
        st.builds(lambda hi, n: tuple(hi * i / (n - 1) for i in range(n)), st.floats(0.1, 1.0), st.integers(2, 24)),
    ))
    return channel, req, lambdas


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
def test_kernel_matches_scalar_loops(problem):
    """optimize and trace_region give the scalar loops' results, repr for repr (a curve's value by value)."""
    channel, req, lambdas = problem
    for variant in (Variant.SC, Variant.S1, Variant.S2, Variant.S0):
        r = replace(req, variant=variant)
        for lam in lambdas:
            assert repr(optimize(r, lam, channel)) == repr(OPTIMIZERS_LOOP[variant](r, lam, channel))
    for scheme in SCHEMES:
        assert curve_values(region_curve(scheme, lambdas, req, channel)) == curve_values(
            trace_region_loop(scheme, lambdas, req, channel))


def _threshold_case(epsilon, gamma_sense, b_s_grid, lambdas):
    """A tau grid whose first point holds no ROC corner and whose longer taus do, and a lambda_p grid that ends at
    p_bar_p_pd, where S2's cap at b_s = 0 is 0/0 when p_md = 0."""
    phy = PhyParams(b=1e4, T=1.0, W=1e4, f_s=1e4, gamma_sense=gamma_sense, sigma_u2=1.0,
                    gamma_s_sd=2.0, sigma2_s_sd=1.0, gamma_p_pd=2.0, sigma2_p_pd=1.0)
    req = OptimizationRequest(Variant.S2, FixedThreshold(epsilon), (1e-3, 0.01, 0.5), b_s_grid)
    return phy, req, lambdas + (phy.links(0.0).p_bar_p_pd,)


@pytest.mark.parametrize("block", [1, 7, 33])  # S2 passes of one cell, or of a few over a short b_s scan
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
# the longer taus hold p_fa = 1 and p_md = 0 (c = 0) ...
@example(problem=_threshold_case(0.5, 1.0, (0.25, 0.5), (0.0, 0.1, 0.3)))
# ... or p_md = 1 (e = 0 at every b_s), with a lambda_p so small that a_s rounds up to 1 ...
@example(problem=_threshold_case(2.0, 0.01, (0.25, 0.5), (0.0, 1e-300, 0.2)))
# ... and a primary link that never succeeds, with b_s = 1 (e = 0 in every pass)
@example(problem=(LinkSuccess(0.0, 0.8), OptimizationRequest(Variant.S2, FixedSensing(SensingPoint(0.05, 0.2, 0.3)),
                                                             b_s_grid=(0.5, 1.0)), (0.0, 0.1)))
def test_passes_of_any_size_match_scalar_loops(block, problem):
    """test_kernel_matches_scalar_loops in passes of a cell or a few, where S2's corner masks run in the passes
    that hold their corner and are skipped in the rest (lambda_p = 0 is one row)."""
    with mock.patch.object(optimizer, "_BLOCK", block):
        test_kernel_matches_scalar_loops.hypothesis.inner_test(problem)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
def test_kernel_matches_service_rates(problem):
    """Each feasible cell's rate is service_rates' mu_s at the cell's policy, bit for bit,
    and 0 where service_rates finds the primary unstable: both take their rates from schemes.rates."""
    channel, req, lambdas = problem
    for variant in (Variant.SC, Variant.S1, Variant.S2, Variant.S0):
        grid = scan(replace(req, variant=variant), lambdas, channel)
        for i, j in zip(*np.nonzero(grid.feasible)):
            point = grid.points[j]
            scheme = SchemeConfig(variant, float(grid.a_s[i, j]), float(grid.b_s[i, j]), point)
            try:
                mu_s = service_rates(scheme, channel.links(point.tau), lambdas[i]).mu_s
            except PrimaryUnstableError:
                mu_s = 0.0
            assert grid.lambda_s[i, j] == mu_s, (variant, lambdas[i], point, scheme)


@pytest.mark.parametrize("case", ["fixed_roc", "tradeoff"])
def test_kernel_matches_scalar_loops_on_dense_grids(case):
    if case == "fixed_roc":
        channel, lambdas = LinkSuccess(0.9, 0.8), tuple(0.63 / 63 * i for i in range(64))
        req = OptimizationRequest(Variant.S2, FixedSensing(SensingPoint(0.05, 0.2, 0.3)))
    else:
        channel, req, lambdas = _tradeoff_case()
    for scheme in SCHEMES:
        assert curve_values(region_curve(scheme, lambdas, req, channel)) == curve_values(
            trace_region_loop(scheme, lambdas, req, channel))


def _tradeoff_case():
    phy = PhyParams(b=1e4, T=1.0, W=1e4, f_s=1e4, gamma_sense=0.05, sigma_u2=1.0,
                    gamma_s_sd=20.0, sigma2_s_sd=1.0, gamma_p_pd=2.4, sigma2_p_pd=1.0)
    req = OptimizationRequest(Variant.S2, FixedFalseAlarm(0.2), tau_grid=(1e-3, 0.01, 0.1, 0.5, 0.9),
                              b_s_grid=(0.25, 0.5, 1.0), margin=0.01)
    return phy, req, tuple(float(x) for x in np.linspace(0.0, 0.7, 13))


@pytest.mark.parametrize("block", [1, 7, 28])  # 28: S2 passes of 7 cells over the 4-value b_s scan
def test_block_size_changes_no_output(block, monkeypatch):
    phy, req, lambdas = _tradeoff_case()
    before = [repr(region_curve(s, lambdas, req, phy)) for s in SCHEMES]
    grids = [scan(replace(req, variant=v), lambdas, phy) for v in SCHEMES[:-1]]
    monkeypatch.setattr(optimizer, "_BLOCK", block)
    assert [repr(region_curve(s, lambdas, req, phy)) for s in SCHEMES] == before
    for v, grid in zip(SCHEMES[:-1], grids):
        again = scan(replace(req, variant=v), lambdas, phy)
        for x, y in zip(grid[1:], again[1:]):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_scan_resolves_operating_points_once(monkeypatch):
    phy, req, lambdas = _tradeoff_case()
    calls = []
    real = optimizer.operating_points
    monkeypatch.setattr(optimizer, "operating_points", lambda *a: calls.append(a) or real(*a))
    grid = scan(req, lambdas, phy)
    assert len(calls) == 1
    assert grid.a_s.shape == (len(lambdas), len(req.tau_grid))


def test_scans_resolve_their_targets_roc_points():
    """A scan's points are its target's ROC points at its taus: three targets x {Sc, S1, S2} over 24 taus, the
    tau grid given as a list, and channels that differ in any one field, asked for in turn."""
    phy, req, lambdas = _tradeoff_case()
    taus = tuple(np.geomspace(1e-3, 0.9, 24).tolist())
    for target in (0.05, 0.15, 0.3):
        for variant in (Variant.SC, Variant.S1, Variant.S2):
            grid = scan(OptimizationRequest(variant, FixedFalseAlarm(target), taus), lambdas, phy)
            assert grid.points == [pmd_for_target_pfa(phy, target, tau) for tau in taus]
    assert operating_points(req.target_mode, list(req.tau_grid), phy) == scan(req, lambdas, phy).points
    taus = (1e-3, 0.1, 0.5)
    for field in fields(PhyParams):
        other = replace(phy, **{field.name: getattr(phy, field.name) * 1.5})
        for channel in (phy, other, phy, other):
            assert operating_points(FixedFalseAlarm(0.2), taus, channel) == [
                pmd_for_target_pfa(channel, 0.2, tau) for tau in taus]


def test_target_modes_at_one_value_never_share_points():
    phy, taus = _tradeoff_case()[0], (1e-3, 0.1, 0.5)
    by_p_fa = operating_points(FixedFalseAlarm(0.2), taus, phy)
    by_p_md = operating_points(FixedMisdetection(0.2), taus, phy)
    assert [p.p_fa for p in by_p_fa] == [p.p_md for p in by_p_md] == [0.2] * len(taus)
    assert by_p_md == [pfa_for_target_pmd(phy, 0.2, tau) for tau in taus]
    assert operating_points(FixedThreshold(1.1), taus, phy) == [roc_from_threshold(phy, 1.1, tau) for tau in taus]


def test_a_scan_leaves_no_memory_behind():
    # a scan resolves its points and links for itself and keeps none: after a warm-up, one over 4,096 distinct
    # taus of a new target leaves a few KiB traced (a point and a link cached a tau once left 1,248 KiB)
    phy, req, lambdas = _tradeoff_case()
    req = replace(req, tau_grid=tuple(np.linspace(1e-3, 0.9, 4096).tolist()))
    scan(req, lambdas[:2], phy)
    tracemalloc.start()
    try:
        scan(replace(req, target_mode=FixedFalseAlarm(0.3)), lambdas[:2], phy)
        assert tracemalloc.get_traced_memory()[0] < 64 * 1024
    finally:
        tracemalloc.stop()


def test_scalar_matches_kernel_where_idle_term_underflows():
    # a = (lambda_p/p_bar_p_pd)*(1 - p_fa) underflows to 0 while f = (lambda_p/p_bar_p_pd)*p_fa*b_s does not
    p_fa = 1 - 2**-53
    assert optimal_as_s2_given(0.5, 1e-310, 0.3, p_fa, 0.9) == 1.0
    links = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
    req = OptimizationRequest(Variant.S2, FixedSensing(SensingPoint(0.05, p_fa, 0.3)), b_s_grid=(0.5,))
    grid = scan(req, (1e-310,), links)
    assert (grid.a_s[0, 0], grid.b_s[0, 0]) == (1.0, 0.5)
    assert repr(optimize(req, 1e-310, links)) == repr(OPTIMIZERS_LOOP[Variant.S2](req, 1e-310, links))


def test_zero_primary_link_is_silent_unless_idle():
    # p_bar_p_pd = 0: any primary load is infeasible; an idle primary leaves the channel to the secondary
    links = LinkSuccess(p_bar_p_pd=0.0, p_bar_s_sd=0.8)
    req = OptimizationRequest(Variant.S2, FixedSensing(SensingPoint(0.05, 0.2, 0.3)), b_s_grid=(0.0, 1.0))
    for scheme in SCHEMES:
        lam_s = region_curve(scheme, (0.0, 0.1), req, links).lambda_s
        assert lam_s[0] > 0.0 and lam_s[1] == 0.0
    assert optimal_as_s1(0.0, 0.3, 0.0) == 1.0
    assert optimal_as_s0(0.0, 0.0) == 1.0
    with pytest.raises(InfeasibleError):
        optimal_as_s0(0.0, 0.0, margin=0.1)


def test_tiny_lambda_p_leaves_the_primary_served():
    # lambda_p/p_bar_p_pd below about 1e-32 rounds the optimum a_s up to 1; where a_s = 1 would leave
    # the primary no service (p_md = 1, or b_s = 1 in S2), a_s stays below 1 and the rate near its value at 0
    links = LinkSuccess(p_bar_p_pd=0.9, p_bar_s_sd=0.8)
    lambdas = (0.0, 1e-300, 0.1)
    for point, b_s_grid in ((SensingPoint(0.05, 0.2, 1.0), ()), (SensingPoint(0.05, 0.9, 0.3), (1.0,))):
        req = OptimizationRequest(Variant.S2, FixedSensing(point), b_s_grid=b_s_grid)
        for scheme in SCHEMES:
            curve = region_curve(scheme, lambdas, req, links)
            assert curve_values(curve) == curve_values(trace_region_loop(scheme, lambdas, req, links))
            at_0, tiny, far = curve.lambda_s.tolist()
            assert at_0 >= tiny >= far
            if scheme is not Variant.SC:  # Sc at p_md = 1 truly leaves the primary no service
                assert tiny == pytest.approx(at_0, rel=1e-12)


# --- structural properties of the optimized boundaries ----------------------------------

@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
def test_boundary_structure(problem):
    """S2 >= S1 >= Sc at a shared sensing point, UNION >= every scheme, every
    boundary non-increasing in lambda_p, rates in [0, 1]."""
    channel, req, lambdas = problem
    value = {s: region_curve(s, lambdas, req, channel).lambda_s.tolist() for s in SCHEMES}
    tol = 1e-12
    for i in range(len(lambdas)):
        assert value[Variant.S2][i] >= value[Variant.S1][i] - tol
        assert value[Variant.S1][i] >= value[Variant.SC][i] - tol
        for s in SCHEMES[:-1]:
            assert value["UNION"][i] >= value[s][i] - tol
    for vals in value.values():
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + tol for a, b in zip(vals, vals[1:]))
