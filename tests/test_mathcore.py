import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogaccess.errors import DomainError, InfeasibleError
from cogaccess.estimator import _policy_from_estimates
from cogaccess.mathcore import q_func, q_inv
from cogaccess.phy import SensingPoint
from cogaccess.schemes import SchemeConfig, Variant

from oracles import grid_max_fractional, kernel_s2_cell, random_s2_cell, s2_program

# Frozen from mpmath (40 digits): erfc(8/sqrt(2))/2.
Q_AT_8 = 6.2209605742717841e-16
# Frozen from bisection on the mpmath-based tail function.
Q_INV_AT_01 = 1.2815515655446005


class TestQFunc:
    def test_zero_is_half(self):
        assert q_func(0.0) == 0.5

    def test_deep_tail(self):
        assert q_func(8.0) < 1e-14
        assert q_func(8.0) == pytest.approx(Q_AT_8, rel=1e-12)

    def test_reflection(self):
        assert q_func(-1.3) == pytest.approx(1.0 - q_func(1.3), abs=1e-15)

    def test_strictly_decreasing_with_unit_range(self):
        zs = np.linspace(-8.0, 8.0, 161)
        vals = [q_func(z) for z in zs]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_matches_high_precision_erfc(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for z in np.linspace(-8.0, 8.0, 81):
            exact = float(mp.erfc(mp.mpf(float(z)) / mp.sqrt(2)) / 2)
            assert q_func(float(z)) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            q_func(bad)


class TestQInv:
    def test_median(self):
        assert abs(q_inv(0.5)) <= 1e-12

    def test_roundtrip(self):
        assert q_inv(q_func(1.7)) == pytest.approx(1.7, abs=1e-9)

    def test_decile(self):
        assert q_inv(0.1) == pytest.approx(Q_INV_AT_01, abs=1e-9)

    def test_post_tolerance_on_grid(self):
        for p in np.linspace(1e-6, 1.0 - 1e-6, 101):
            assert q_func(q_inv(float(p))) == pytest.approx(float(p), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.2, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            q_inv(bad)


class TestSolveFractional:
    """The concave fractional program max (a*x + f)/(c*x - d) + K*x on
    [0, min(1, (d - w)/c)] is S2's a_s problem at a fixed b_s; the scan
    kernel solves it in closed form (oracles.s2_program maps a cell onto it)."""

    def test_interior_root(self):
        cell = (0.5, 0.4, 0.3, 0.2, 0.9)  # b_s, lambda_p, p_md, p_fa, p_bar_p_pd
        a, f, c, d, K, w = s2_program(*cell)
        x, lam_s, ok = kernel_s2_cell(*cell)
        assert ok and 0.0 < x < min(1.0, (d - w) / c)
        assert x == pytest.approx((d - math.sqrt((a * d + c * f) / K)) / c, abs=1e-12)
        x_grid, v_grid = grid_max_fractional(a, f, c, d, K, w)
        assert x == pytest.approx(x_grid, abs=2e-6)
        assert lam_s - 0.5 * 0.2 == pytest.approx(v_grid, abs=1e-9)

    def test_huge_curvature_scale_clips_high(self):
        # the stationary root lies past a_s = 1, inside the stability cap
        cell = (0.1, 0.1, 0.3, 0.2, 0.9)
        a, f, c, d, K, w = s2_program(*cell)
        assert (d - math.sqrt((a * d + c * f) / K)) / c > 1.0 and (d - w) / c > 1.0
        assert kernel_s2_cell(*cell)[0] == 1.0
        assert grid_max_fractional(a, f, c, d, K, w)[0] == 1.0

    def test_collapsed_interval(self):
        cell = (0.5, 0.375, 0.5, 0.25, 0.5)  # d = w = 0.75 exactly
        a, f, c, d, K, w = s2_program(*cell)
        assert d == w
        x, _, ok = kernel_s2_cell(*cell)
        assert ok and x == 0.0
        x_grid, _ = grid_max_fractional(a, f, c, d, K, w)
        assert x_grid == 0.0

    def test_infeasible_raises(self):
        _, _, _, d, _, w = s2_program(0.5, 0.5, 0.5, 0.25, 0.5)
        assert d < w
        assert kernel_s2_cell(0.5, 0.5, 0.5, 0.25, 0.5) == (0.0, 0.0, False)
        # lambda_p above p_bar_p_pd: no b_s, b_s = 0 included, is feasible
        template = SchemeConfig(Variant.S2, 1.0, 0.0, SensingPoint(0.05, 0.25, 0.5))
        with pytest.raises(InfeasibleError):
            _policy_from_estimates(template, 0.6, 0.5, 0.0, (0.5,))

    def test_matches_grid_oracle_randomized(self):
        rng = np.random.default_rng(20260810)
        for _ in range(150):
            cell = random_s2_cell(rng)
            x, lam_s, ok = kernel_s2_cell(*cell)
            x_grid, v_grid = grid_max_fractional(*s2_program(*cell), step=1e-5)
            assert ok
            assert abs(x - x_grid) <= 2e-5
            assert abs(lam_s - cell[0] * cell[3] - v_grid) <= 1e-6

    def test_concavity_on_feasible_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, f, c, d, K, w = s2_program(*random_s2_cell(rng))
            cap = min(1.0, (d - w) / c)
            xs = np.linspace(0.0, cap, 64)
            second = 2.0 * c * (a * d + c * f) / (c * xs - d) ** 3
            assert np.all(second <= 0.0)

    @settings(derandomize=True, max_examples=200)
    @given(
        b_s=st.floats(0.0, 1.0),
        lam=st.floats(0.0, 1.0),
        p_md=st.floats(0.0, 1.0),
        p_fa=st.floats(0.0, 1.0),
        p_bar=st.floats(0.01, 1.0),
        margin=st.floats(0.0, 0.5),
    )
    def test_solution_always_clipped_to_feasible_interval(self, b_s, lam, p_md, p_fa, p_bar, margin):
        _, _, c, d, _, w = s2_program(b_s, lam, p_md, p_fa, p_bar, margin)
        x, lam_s, ok = kernel_s2_cell(b_s, lam, p_md, p_fa, p_bar, margin)
        assert ok == (d >= w)
        if ok:
            assert 0.0 <= x <= (1.0 if c == 0.0 else min(1.0, (d - w) / c))
            assert lam_s >= 0.0
