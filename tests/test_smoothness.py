import dataclasses
import logging
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapprox import jackson, smoothness
from spapprox.averaging import mu1, mu2
from spapprox.psi import power, psi_derivative
from spapprox.sampling import random_full_spectrum, random_sparse_spectrum
from spapprox.smoothness import (
    CROSSING_STEPS,
    KEPT_PER_SHAPE,
    PARABOLA_STEPS,
    Breakpoints,
    ModulusCurve,
    ModulusGrid,
    ShapeFunction,
    check_shape,
    difference_modulus_oracle,
    generalized_modulus,
    phi_alpha,
    tabulated_shape,
)
from spapprox.spectral import SpectralFunction


class TestPhiAlpha:
    def test_order_one_at_pi(self):
        assert float(phi_alpha(1).eval(np.pi)) == pytest.approx(2.0)

    def test_order_two_at_half_pi(self):
        assert float(phi_alpha(2).eval(np.pi / 2)) == pytest.approx(2.0)

    def test_fractional_order_both_forms_agree(self):
        # 2^(a/2)(1-cos t)^(a/2) and 2^a |sin(t/2)|^a are the same function;
        # at a=1/2, t=pi/3 both give exactly 1
        a, t = 0.5, np.pi / 3
        via_cos = 2 ** (a / 2) * (1 - np.cos(t)) ** (a / 2)
        via_sin = 2**a * abs(np.sin(t / 2)) ** a
        assert via_cos == pytest.approx(via_sin, rel=1e-14)
        assert float(phi_alpha(a).eval(t)) == pytest.approx(via_sin, rel=1e-14)
        assert float(phi_alpha(a).eval(t)) == pytest.approx(1.0, rel=1e-14)

    def test_metadata(self):
        shape = phi_alpha(1.5)
        assert shape.cap_point == pytest.approx(np.pi)
        assert shape.sup_value == pytest.approx(2**1.5)
        assert shape.sup_exact

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            phi_alpha(0.0)
        with pytest.raises(ValueError):
            phi_alpha(-1.0)

    @pytest.mark.parametrize("alpha", [1024.0, 1e308, math.inf])
    def test_rejects_an_order_whose_supremum_overflows(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be below 1024, where 2\^alpha overflows"):
            phi_alpha(alpha)

    def test_largest_order_below_the_overflow(self):
        alpha = math.nextafter(1024.0, 0.0)
        assert phi_alpha(alpha).sup_value == 2.0**alpha < math.inf


class TestBreakpoints:
    def test_phi_alpha_declares_its_zeros(self):
        tags, pts = phi_alpha(0.5).breakpoints.inside([1.0, 13.0, 4 * np.pi])
        order = np.lexsort((pts, tags))
        assert tags[order].tolist() == [1, 1, 2]
        assert pts[order] == pytest.approx([2 * np.pi, 4 * np.pi, 2 * np.pi])

    def test_periodic_offsets(self):
        tags, pts = Breakpoints(points=(1.0, 5.0), period=3.0).inside([1.0, 7.5])
        order = np.lexsort((pts, tags))
        # offsets 1 and 5 mod 3 = 2, below 7.5
        assert tags[order].tolist() == [1, 1, 1, 1, 1]
        assert pts[order].tolist() == [1.0, 2.0, 4.0, 5.0, 7.0]

    def test_periodic_points_of_each_bound(self):
        tags, pts = Breakpoints(points=(1.0, 5.0), period=3.0).inside([4.0, 7.5])
        order = np.lexsort((pts, tags))
        # residues 1 and 2 mod 3: the points 1, 2 below 4 and 1, 2, 4, 5, 7 below 7.5
        assert tags[order].tolist() == [0, 0, 1, 1, 1, 1, 1]
        assert pts[order].tolist() == [1.0, 2.0, 1.0, 2.0, 4.0, 5.0, 7.0]
        _, pts = phi_alpha(1).breakpoints.inside([13.0])
        assert np.sort(pts).tolist() == pytest.approx([2 * np.pi, 4 * np.pi])  # not the origin

    def test_a_set_without_period(self):
        tags, pts = Breakpoints(points=(0.0, 1.0, 2.5)).inside([2.0, 3.0])
        assert tags.tolist() == [0, 1, 1]
        assert pts.tolist() == [1.0, 1.0, 2.5]

    @pytest.mark.parametrize("period", [0.0, -1.0, math.inf])
    def test_period_must_be_positive(self, period):
        with pytest.raises(ValueError, match="period"):
            Breakpoints(points=(0.0,), period=period)

    def test_tabulated_shape_declares_its_knots(self):
        shape = tabulated_shape([(0, 0), (1, 2), (2.5, 2)], cap_point=1.0, sup_value=2.0)
        tags, pts = shape.breakpoints.inside([0.5, 2.0, 3.0])
        assert tags.tolist() == [1, 2, 2]
        assert pts.tolist() == [1.0, 1.0, 2.5]

    def test_replace_carries_the_declaration(self):
        shape = phi_alpha(1)
        counted = dataclasses.replace(shape, eval=lambda t: shape.eval(t))
        assert counted.breakpoints == shape.breakpoints

    def test_hand_built_shape_declares_nothing(self):
        shape = ShapeFunction(eval=phi_alpha(1).eval, cap_point=np.pi, sup_value=2.0)
        assert shape.breakpoints is None

    @pytest.mark.parametrize("order,p,singular", [
        (None, 1.0, True),
        (None, 2.0, True),
        (0.5, 1.0, True),
        (0.25, 2.0, True),
        (1.0, 1.0, False),
        (0.5, 2.0, False),
        (2.0, 1.0, False),
        (1.5, 2.0, False),
        (3.0, 1.0, False),
        (1.0, 1.9999999999999998, False),  # (2/p*) p* of the majorant class
        (1.0, 2.0 + 1e-9, True),
        (2.0 + 1e-9, 1.0, True),
        (1000.0, 1e306, True),  # order p overflows
    ])
    def test_singular_only_off_positive_integer_powers(self, order, p, singular):
        assert Breakpoints(points=(0.0,), period=2 * np.pi, order=order).singular(p) is singular

    def test_four_ulps_of_slack(self):
        bp = Breakpoints(points=(0.0,), order=1.0)
        assert not bp.singular(2.0 + 4 * math.ulp(2.0))
        assert bp.singular(2.0 + 5 * math.ulp(2.0))

    def test_phi_alpha_declares_order_alpha(self):
        assert phi_alpha(1.5).breakpoints.order == 1.5
        assert not phi_alpha(1.5).breakpoints.singular(2.0)
        assert phi_alpha(0.75).breakpoints.singular(2.0)

    def test_tabulated_knots_stay_singular(self):
        shape = tabulated_shape([(0, 0), (1, 2), (2.5, 2)], cap_point=1.0, sup_value=2.0)
        assert shape.breakpoints.order is None and shape.breakpoints.singular(1.0)

    def test_replace_keeps_the_order(self):
        # a shape whose eval is wrapped, as an evaluation counter does
        shape = phi_alpha(2)
        counted = dataclasses.replace(shape, eval=lambda t: shape.eval(t))
        assert counted.breakpoints.order == 2.0
        assert not counted.breakpoints.singular(1.0)

    @pytest.mark.parametrize("order", [0.0, -1.0, math.inf, math.nan])
    def test_order_must_be_positive_and_finite(self, order):
        with pytest.raises(ValueError, match="order"):
            Breakpoints(points=(0.0,), order=order)


class TestShapeValidation:
    def test_declared_period_must_repeat_the_values(self):
        # phi_alpha's kinks repeat every 2 pi, but min(phi_1, t^2) does not
        phi = phi_alpha(1)
        bad = ShapeFunction(
            eval=lambda t: np.minimum(phi.eval(t), np.asarray(t, float) ** 2),
            cap_point=np.pi, sup_value=2.0, breakpoints=phi.breakpoints,
        )
        with pytest.raises(ValueError, match="not periodic"):
            bad.period
        assert dataclasses.replace(bad, breakpoints=Breakpoints(points=(0.0,))).period is None

    def test_periodic_shapes_pass_the_probe(self):
        def tent(x):
            return np.abs(np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi)

        shape = ShapeFunction(
            eval=tent, cap_point=np.pi, sup_value=np.pi,
            breakpoints=Breakpoints(points=(0.0, np.pi), period=2 * np.pi),
        )
        assert shape.period == 2 * np.pi
        # cusps of infinite slope: the probe keeps off them
        for alpha in (0.01, 0.5, 1000.0):
            assert phi_alpha(alpha).period == 2 * np.pi

    def test_odd_function_rejected(self):
        bad = ShapeFunction(eval=lambda t: np.asarray(t, float), cap_point=None, sup_value=10.0)
        with pytest.raises(ValueError, match="even|negative"):
            check_shape(bad)

    def test_nonzero_origin_rejected(self):
        bad = ShapeFunction(eval=lambda t: np.ones_like(np.asarray(t, float)),
                            cap_point=None, sup_value=1.0)
        with pytest.raises(ValueError, match="vanish"):
            check_shape(bad)

    def test_sup_violation_rejected(self):
        bad = ShapeFunction(eval=lambda t: np.abs(np.asarray(t, float)),
                            cap_point=None, sup_value=1.0)
        with pytest.raises(ValueError, match="supremum"):
            check_shape(bad)

    def test_tabulated_interpolates_and_holds_last_value(self):
        shape = tabulated_shape([(0, 0), (1, 2), (2, 2)], cap_point=1.0, sup_value=2.0)
        assert float(shape.eval(0.5)) == pytest.approx(1.0)
        assert float(shape.eval(-0.5)) == pytest.approx(1.0)  # even extension
        assert float(shape.eval(10.0)) == pytest.approx(2.0)

    def test_tabulated_must_start_at_zero(self):
        with pytest.raises(ValueError, match="t=0"):
            tabulated_shape([(0.5, 0.0), (1, 1)], cap_point=None, sup_value=1.0)


class TestModulusGrid:
    def test_defaults(self):
        grid = ModulusGrid()
        assert grid.base_points == 4096

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            ModulusGrid(base_points=32)


def dense_sup_oracle(f, p, alpha, t, points=200001):
    """Brute-force running supremum on a dense grid (test-local oracle)."""
    hs = np.linspace(0.0, t, points)
    ks = np.array([k for k in f.support if k != 0])
    if ks.size == 0:
        return 0.0
    ws = np.array([abs(f[int(k)]) ** p for k in ks])
    g = (2.0 * np.abs(np.sin(0.5 * np.multiply.outer(hs, ks)))) ** (alpha * p) @ ws
    return float(g.max() ** (1.0 / p))


class TestGeneralizedModulus:
    def test_constant_function_is_flat_zero(self):
        f = SpectralFunction({0: 3.7 + 1j})
        for t in (0.0, 0.5, np.pi):
            assert generalized_modulus(f, 2, phi_alpha(1), t) == 0.0

    def test_two_harmonics_against_dense_oracle(self):
        # sup over [0, pi/2] of 2(1-cos h) + 2(1-cos 2h) is 6, at h = pi/2
        f = SpectralFunction({1: 1.0, 2: 1.0})
        value = generalized_modulus(f, 2, phi_alpha(1), np.pi / 2)
        assert value == pytest.approx(math.sqrt(6.0), rel=1e-12)
        assert value == pytest.approx(dense_sup_oracle(f, 2, 1, np.pi / 2), rel=1e-9)

    def test_single_harmonic_peak(self):
        f = SpectralFunction({1: 1.0})
        assert generalized_modulus(f, 2, phi_alpha(1), np.pi) == pytest.approx(2.0)

    def test_fast_path_agrees_with_grid_search(self):
        f = SpectralFunction({1: 0.3, 2: 1.0, 5: 0.2})
        shape = phi_alpha(1)
        t = np.pi / 7  # order 5: 5 * t < pi, fast path applies
        fast = generalized_modulus(f, 2, shape, t)
        # strip the cap declaration to force the scan route
        no_cap = ShapeFunction(eval=shape.eval, cap_point=None, sup_value=shape.sup_value)
        scanned = generalized_modulus(f, 2, no_cap, t)
        assert fast == pytest.approx(scanned, rel=1e-9)

    def test_monotone_in_t(self):
        rng = np.random.default_rng(3)
        f = random_sparse_spectrum(rng, 12, 6)
        shape = phi_alpha(1.5)
        ts = np.linspace(0.05, np.pi, 25)
        curve = ModulusCurve(f, 2, shape, np.pi)
        vals = [curve.value(t) for t in ts]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_homogeneity(self, c):
        f = SpectralFunction({1: 0.5 + 0.5j, 3: -1.0, 7: 0.25j})
        shape = phi_alpha(2)
        base = generalized_modulus(f, 1.5, shape, 2.0)
        scaled = generalized_modulus(c * f, 1.5, shape, 2.0)
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_curve_matches_pointwise_calls(self):
        rng = np.random.default_rng(17)
        f = random_sparse_spectrum(rng, 20, 7)
        shape = phi_alpha(1)
        curve = ModulusCurve(f, 2, shape, np.pi)
        for t in (0.1, 0.5, 1.5, np.pi):
            assert curve.value(t) == pytest.approx(
                generalized_modulus(f, 2, shape, t), rel=1e-9
            )


    def test_peak_inside_the_last_scan_cell(self):
        # p = 3, u = pi/2: the shift sum of this spectrum peaks at about
        # 1.57073, inside the last cell [1.57041, 1.57080] of the default scan
        f = SpectralFunction({
            -1: -0.33970872597587337 - 0.7157991465167344j,
            -20: -0.286893946764456 + 0.33898134437241195j,
            -30: 1.0890219346308982 + 1.3896878993887392j,
            5: -0.02375383936740688 - 0.169007740779224j,
            3: -0.4138243480836697 + 0.5461987222482787j,
            -6: 0.8949628619276311 - 0.6663085666937462j,
        })
        u = np.pi / 2
        curve = ModulusCurve(f, 3, phi_alpha(1), u)
        ks = np.array([1.0, 20.0, 30.0, 5.0, 3.0, 6.0])
        ws = np.array([abs(f[int(k)]) ** 3 for k in (-1, -20, -30, 5, 3, -6)])
        scan = max(
            float(((2.0 * np.abs(np.sin(0.5 * np.multiply.outer(hs, ks)))) ** 3 @ ws).max())
            for hs in np.array_split(np.linspace(0.0, u, 2**20), 16)
        )
        assert curve.pow_values(u)[0] == pytest.approx(scan, rel=1e-9)

    def test_blocked_shift_sum_matches_one_block(self, monkeypatch):
        from spapprox import smoothness

        f = random_sparse_spectrum(np.random.default_rng(8), 40, 9)
        curve = ModulusCurve(f, 1.5, phi_alpha(1), np.pi)
        hs = np.linspace(0.0, np.pi, 20001)
        blocked = curve.pow_values(hs)
        monkeypatch.setattr(smoothness, "BLOCK_ELEMENTS", 10**9)
        np.testing.assert_array_equal(curve.pow_values(hs), blocked)


class TestPlateaus:
    """The piece table of a curve: flat on plateaus, the shift sum in between."""

    @staticmethod
    def full_curve(seed, p, shape, u=np.pi):
        return ModulusCurve(random_full_spectrum(np.random.default_rng(seed), 8), p, shape, u)

    @pytest.mark.parametrize("seed,p,alpha", [(11, 1.5, 1.0), (18, 1.0, 0.5), (13, 2.0, 2.0)])
    def test_running_supremum_follows_the_table(self, seed, p, alpha):
        curve = self.full_curve(seed, p, phi_alpha(alpha))
        flat = curve.plateaus
        assert flat.starts.size > 1
        assert np.all(flat.starts[1:] > flat.ends[:-1])
        ts = np.linspace(0.0, curve.u, 100001)
        sup = curve.pow_values(ts)
        j = np.searchsorted(flat.starts, ts, side="right") - 1
        flat_here = (j >= 0) & (ts <= flat.ends[np.maximum(j, 0)])
        assert 0 < flat_here.sum() < ts.size
        np.testing.assert_allclose(sup[flat_here], flat.values[j[flat_here]], rtol=1e-12)
        np.testing.assert_allclose(
            sup[~flat_here], curve.shift_sum(ts[~flat_here]), rtol=1e-12
        )

    @pytest.mark.parametrize("seed,p,alpha", [(11, 1.5, 1.0), (18, 1.0, 0.5), (13, 2.0, 2.0)])
    def test_shift_sum_climbs_back_to_the_record_at_each_crossing(self, seed, p, alpha):
        curve = self.full_curve(seed, p, phi_alpha(alpha))
        flat = curve.plateaus
        np.testing.assert_allclose(curve.shift_sum(flat.ends[:-1]), flat.values[:-1], rtol=1e-12)
        assert flat.ends[-1] == curve.u

    def test_each_plateau_ends_at_or_before_its_crossing(self):
        # a fuzz spectrum (p = 3, roughened by power:1) on whose plateaus the
        # last regula falsi iterate read g up to 7.4e-10 above the record
        f = SpectralFunction({
            30: -31.12284844255212 - 25.182438152657515j,
            1: 0.35252817564530864 + 0.36781547200709347j,
        })
        curve = ModulusCurve(f, 3, phi_alpha(1), np.pi / 2)
        flat = curve.plateaus
        assert flat.starts.size == 8
        for start, end, value in zip(flat.starts, flat.ends, flat.values):
            assert curve.shift_sum(np.linspace(start, end, 100001)).max() <= value

    def test_direct_path_has_no_plateau(self):
        # k_max u = 3 * pi/4 stays below the cap point pi
        curve = ModulusCurve(SpectralFunction({1: 1.0, -3: 0.5j}), 2, phi_alpha(1), np.pi / 4)
        assert curve.plateaus.starts.size == 0
        assert curve.plateaus.ends.size == curve.plateaus.values.size == 0

    def test_table_is_computed_when_first_read(self):
        seen = []
        base = phi_alpha(1)
        shape = dataclasses.replace(base, eval=lambda t: (seen.append(np.size(t)), base.eval(t))[1])
        curve = self.full_curve(11, 1.5, shape)
        # the scan of 4096 points, one call seeding the 4 interior peaks (3
        # points each) and the last cell (5 points, its peak on an end), and
        # parabolic steps at 4, 4 and 3 vertices, each over the 8 harmonics:
        # nothing for the table
        assert sum(seen) == 8 * (4096 + 17 + 4 + 4 + 3) == 32992
        seen.clear()
        crossings = curve.plateaus.ends.size - 1
        assert sum(seen) == (2 + CROSSING_STEPS) * crossings * 8
        seen.clear()
        curve.plateaus
        assert seen == []


def golden_sup(g, lo, hi, steps=100):
    """Best value of g that golden-section search finds on each [lo_i, hi_i].

    Test-local oracle: ``steps`` steps of two fresh evaluations each, ends
    included, the bracket kept around the better interior point.
    """
    r = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    best = np.maximum(g(lo), g(hi))
    for _ in range(steps):
        c, d = hi - r * (hi - lo), lo + r * (hi - lo)
        fc, fd = g(c), g(d)
        best = np.maximum(best, np.maximum(fc, fd))
        left = fc >= fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    return best


class TestPeakRefinement:
    """Parabolic steps from the scan's peak triples, then the cusps of open rows."""

    @staticmethod
    def grid_maxima(curve):
        gv = curve.shift_sum(curve._hs)
        return np.flatnonzero((gv[1:-1] >= gv[:-2]) & (gv[1:-1] >= gv[2:])) + 1

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_peaks_reach_a_long_golden_search(self, p):
        shape = phi_alpha(1)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            f = random_sparse_spectrum(rng, 32, 8) if seed % 2 else random_full_spectrum(rng, 12)
            for u in (np.pi, 2.5):
                curve = ModulusCurve(f, p, shape, u)
                calls = []

                def g(h):
                    calls.append((np.copy(h), curve.shift_sum(h)))
                    return calls[-1][1]

                hs, interior = curve._hs, self.grid_maxima(curve)
                px, pv = smoothness._refine_peaks(g, hs, interior, curve.cusps)
                # the seed call, the parabolic steps and one call at cusps
                assert len(calls) <= 1 + PARABOLA_STEPS + 1
                # every peak is a point g was evaluated at, with its value
                points = np.concatenate([h for h, _ in calls])
                values = np.concatenate([v for _, v in calls])
                assert set(zip(px, pv)) <= set(zip(points, values))
                lo = np.append(hs[interior - 1], hs[-2])
                hi = np.append(hs[interior + 1], u)
                best = golden_sup(curve.shift_sum, lo, hi)
                assert np.all(pv >= best * (1.0 - 1e-14))
                assert np.all((lo <= px) & (px <= hi))

    def test_a_kinked_peak_reads_g_at_its_knot(self, monkeypatch):
        # the peak of shape(h)^p sits on the knot h = 1, between grid points
        shape = tabulated_shape([(0.0, 0.0), (1.0, 1.0), (np.pi, 0.2)], None, 1.0)
        cusps, real = [], ModulusCurve.cusps
        monkeypatch.setattr(
            ModulusCurve, "cusps", lambda self: cusps.append(real(self)) or cusps[-1]
        )
        curve = ModulusCurve(SpectralFunction({1: 1.0}), 1.5, shape, np.pi)
        j = np.searchsorted(curve._hs, 1.0)
        assert curve._hs[j - 1] < 1.0 < curve._hs[j]
        (kinks,) = cusps  # the parabolic steps leave the kink open
        assert kinks.tolist() == [1.0]
        assert curve.pow_values(np.pi)[0] == curve.shift_sum(1.0) == 1.0

    def test_converged_peaks_compute_no_cusps(self, monkeypatch):
        monkeypatch.setattr(ModulusCurve, "cusps", lambda self: pytest.fail("cusps computed"))
        f = random_sparse_spectrum(np.random.default_rng(5), 32, 8)
        ModulusCurve(f, 2.0, phi_alpha(1), 2.5)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_a_stationary_window_end_settles_the_last_cell(self, p):
        # even harmonics are stationary at u = pi/2: g(u - eta) rounds to g(u)
        f = SpectralFunction({2: 1.0, 4: 0.5j, -6: 0.3})
        curve = ModulusCurve(f, p, phi_alpha(1), np.pi / 2)
        calls = []
        g = lambda h: calls.append(np.size(h)) or curve.shift_sum(h)
        interior = self.grid_maxima(curve)
        px, pv = smoothness._refine_peaks(g, curve._hs, interior, curve.cusps)
        assert interior.size == 0 and calls == [5]  # the seed call alone
        assert px[-1] == curve.u and pv[-1] == curve.shift_sum(curve.u)

    def test_a_triple_within_ulps_of_its_top_retires_at_once(self):
        curve = ModulusCurve(SpectralFunction({3: 1.0, 7: 0.4, 12: 0.25j}), 1.5, phi_alpha(1), 2.5)
        top = curve._peak_x[np.argmin(np.abs(curve._peak_x - 1.26))]
        x0 = np.array([[top - 1e-8, top, top + 1e-8]])
        v0 = curve.shift_sum(x0)
        assert np.all(v0 >= v0.max() * (1.0 - 4 * np.finfo(float).eps))
        calls = []
        g = lambda h: calls.append(h) or curve.shift_sum(h)
        x, v, done = smoothness._parabolic_max(g, x0, v0, PARABOLA_STEPS)
        assert calls == [] and done.tolist() == [True]
        assert x.tolist() == [top] and v.tolist() == [v0.max()]

    def test_a_peak_strictly_inside_the_last_cell_is_found(self):
        # shape(3h)^2 peaks at h = pi/3, half a cell before u
        u = np.pi / 3 * (1.0 + 0.5 / 4094)
        curve = ModulusCurve(SpectralFunction({3: 1.0}), 2, phi_alpha(1), u)
        assert curve._hs[-2] < np.pi / 3 < u
        assert curve._hs[-2] < curve._peak_x[-1] < u
        assert curve.pow_values(u)[0] == pytest.approx(4.0, rel=1e-14)
        assert curve.shift_sum(u) < 4.0 * (1.0 - 1e-9)

    def test_a_flat_triple_or_none_costs_no_evaluation(self):
        calls = []
        g = lambda h: calls.append(h) or np.ones(np.shape(h))
        x, v, done = smoothness._parabolic_max(
            g, np.array([[0.0, 1.0, 2.0]]), np.ones((1, 3)), PARABOLA_STEPS
        )
        assert calls == []
        assert done.tolist() == [True] and v.tolist() == [1.0]
        smoothness._parabolic_max(g, np.empty((0, 3)), np.empty((0, 3)), PARABOLA_STEPS)
        assert calls == []

    def test_a_best_point_on_an_end_is_left_open(self):
        # the vertex of the seeded parabola is clipped to 0.5, below g(0)
        g = lambda h: 1.0 - 0.1 * h
        x, v, done = smoothness._parabolic_max(
            g, np.array([[0.0, 1.0, 2.0]]), np.array([[1.0, 0.9, 0.0]]), PARABOLA_STEPS
        )
        assert done.tolist() == [False] and x.tolist() == [0.0] and v.tolist() == [1.0]

    def test_a_smooth_peak_retires_in_a_few_steps(self):
        calls = []
        g = lambda h: calls.append(h) or np.cos(h - 0.3)
        x0 = np.array([[0.0, 0.25, 0.5]])
        x, v, done = smoothness._parabolic_max(g, x0, np.cos(x0 - 0.3), PARABOLA_STEPS)
        assert done.tolist() == [True] and len(calls) <= 4
        assert v[0] == pytest.approx(1.0, rel=1e-15)


class TestDifferenceOracle:
    def test_zero_step(self):
        f = SpectralFunction({1: 1.0, 4: 2.0})
        assert difference_modulus_oracle(f, 2, 1.0, 0.0) == 0.0

    def test_single_harmonic_full_swing(self):
        # |1 - e^{-i pi}| = 2
        f = SpectralFunction({1: 1.0})
        assert difference_modulus_oracle(f, 2, 1.0, np.pi) == pytest.approx(2.0)

    def test_matches_generalized_on_example(self):
        f = SpectralFunction({1: 1.0, 2: 1.0})
        d = difference_modulus_oracle(f, 2, 1.0, np.pi / 2)
        g = generalized_modulus(f, 2, phi_alpha(1), np.pi / 2)
        assert d == pytest.approx(math.sqrt(6.0), rel=1e-9)
        assert d == pytest.approx(g, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_route_agreement_random(self, alpha, p):
        rng = np.random.default_rng(int(alpha * 10 + p * 100))
        for _ in range(3):
            f = random_sparse_spectrum(rng, 16, 6)
            t = float(rng.uniform(0.05, np.pi))
            via_shape = generalized_modulus(f, p, phi_alpha(alpha), t)
            via_diff = difference_modulus_oracle(f, p, alpha, t)
            assert via_diff == pytest.approx(via_shape, rel=1e-6)


def high_harmonic_probe():
    """30 seeded spectra of 6 harmonics with |k| in [500, 20000], p = 1.5,
    steps t in [0.5, pi]: (spectrum, t) pairs."""
    rng = np.random.default_rng(2005)
    cases = []
    for _ in range(30):
        ks = rng.choice(np.arange(500, 20001), size=6, replace=False) * rng.choice([-1, 1], size=6)
        cs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        t = float(rng.uniform(0.5, np.pi))
        cases.append((SpectralFunction({int(k): complex(c) for k, c in zip(ks, cs)}), t))
    return cases


def fine_scan_modulus(f, p, t, points=2**19):
    """Order-1 modulus from a plain 2^19-point scan, in blocks (test-local)."""
    ks = np.array([abs(k) for k in f.coeffs if k != 0], dtype=float)
    ws = np.array([abs(c) ** p for k, c in f.coeffs.items() if k != 0])
    hs = np.linspace(0.0, t, points)
    best = max(
        float(((2.0 * np.abs(np.sin(0.5 * np.multiply.outer(h, ks)))) ** p @ ws).max())
        for h in np.array_split(hs, points // 2**15)
    )
    return best ** (1.0 / p)


class TestScanFloor:
    """The scan takes at least 8 points per period of the highest harmonic."""

    def test_scan_points(self):
        grid = ModulusGrid()
        assert grid.scan_points(32, np.pi / 2) == 4096
        assert grid.scan_points(20000, np.pi) == 80001
        assert ModulusGrid(base_points=100000).scan_points(20000, np.pi) == 100000

    def test_high_harmonic_probe_reads_the_fine_scan(self):
        p, shape = 1.5, phi_alpha(1)
        for f, t in high_harmonic_probe():
            fine = fine_scan_modulus(f, p, t)
            assert generalized_modulus(f, p, shape, t) >= fine * (1.0 - 1e-6)

    def test_oracle_scan_has_the_same_floor(self):
        # spectrum 3 reads 0.48% below the fine scan on a fixed 4096-point grid
        for f, t in high_harmonic_probe()[:8]:
            fine = fine_scan_modulus(f, 1.5, t)
            assert difference_modulus_oracle(f, 1.5, 1.0, t) >= fine * (1.0 - 1e-6)

    def test_floor_past_the_cap_raises(self):
        f = SpectralFunction({10**7: 1.0})
        with pytest.raises(ValueError, match=r"k_max\*u = 3\.14159e\+07"):
            generalized_modulus(f, 1.5, phi_alpha(1), np.pi)
        with pytest.raises(ValueError, match=r"k_max\*u"):
            difference_modulus_oracle(f, 1.5, 1.0, np.pi)


class _Unhashable:
    """A shape function that cannot be hashed."""

    __hash__ = None

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, t):
        return self.inner(t)


def direct_curve(f, p, shape, u):
    """The curve of f with its grid values from :meth:`ModulusCurve.shift_sum`.

    The scan reads no row of the scan table and adds none.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            smoothness._ScanTable, "grid_values", lambda self, curve: curve.shift_sum(self.hs)
        )
        return ModulusCurve(f, p, shape, u)


def counted(base, seen):
    """``base`` under a fresh eval that records the array shape of each call."""
    def _eval(t):
        seen.append(np.shape(t))
        return base.eval(t)

    return dataclasses.replace(base, eval=_eval)


def assert_same_curve(a, b):
    ts = np.linspace(0.0, a.u, 20001)
    np.testing.assert_allclose(a.pow_values(ts), b.pow_values(ts), rtol=1e-13, atol=0.0)
    for x, y in zip(dataclasses.astuple(a.plateaus), dataclasses.astuple(b.plateaus)):
        np.testing.assert_allclose(x, y, rtol=1e-13, atol=0.0)


def scan_table(shape, p, u=np.pi, points=4096):
    """The scan table ``shape`` keeps for (p, u, scan points), or None."""
    return shape._kept.get(("scan", p, u, points))


def rows(shape, p, u=np.pi, points=4096):
    """Rows of that table: the harmonics it holds."""
    table = scan_table(shape, p, u, points)
    return 0 if table is None else len(table.index)


class TestScanTable:
    """Curves of one (shape, p, u, scan points) share one table of shape(k h_j)^p."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("seed", [3, 21])
    def test_warm_table_matches_a_direct_scan(self, seed, p):
        rng = np.random.default_rng(seed)
        shape = phi_alpha(1)
        for _ in range(4):
            ModulusCurve(random_sparse_spectrum(rng, 24, 6), p, shape, np.pi)
        warm_rows = rows(shape, p)
        f = random_full_spectrum(rng, 12)
        warm = ModulusCurve(f, p, shape, np.pi)
        assert 0 < warm_rows < rows(shape, p) <= 24
        assert_same_curve(warm, direct_curve(f, p, shape, np.pi))

    def test_tabulated_shape_and_a_sparse_high_harmonic(self):
        tab = tabulated_shape([(0.0, 0.0), (0.7, 1.0), (1.9, 0.4), (2.6, 0.9)], None, 1.0)
        high = phi_alpha(1)
        for shape, warmup, f in [
            (tab, {1: 1.0, 5: 0.5}, SpectralFunction({1: 0.3, 5: -1.0j, 9: 0.2})),
            (high, {2000: 1.0, 7: 0.4}, SpectralFunction({3: 1.0, 2000: 0.5j})),
        ]:
            ModulusCurve(SpectralFunction(warmup), 1.5, shape, np.pi)
            warm = ModulusCurve(f, 1.5, shape, np.pi)
            assert_same_curve(warm, direct_curve(f, 1.5, shape, np.pi))
        assert rows(tab, 1.5) == 3
        # 8 points per period of k = 2000 on [0, pi]: 8001 points a row
        assert rows(high, 1.5, points=8001) == 3 and list(high._kept) == [
            ("scan", 1.5, np.pi, 8001)
        ]

    def test_a_second_curve_evaluates_off_the_grid_only(self):
        seen = []
        shape = counted(phi_alpha(1), seen)
        f = random_full_spectrum(np.random.default_rng(11), 8)
        ModulusCurve(f, 1.5, shape, np.pi)
        assert seen[0] == (8, 4096)  # one call fills the 8 rows
        first = sum(math.prod(s) for s in seen)
        seen.clear()
        ModulusCurve(f, 1.5, shape, np.pi)
        assert all(s[-1] == 8 for s in seen)
        assert sum(math.prod(s) for s in seen) == first - 8 * 4096

    def test_one_new_harmonic_adds_one_row(self):
        seen = []
        shape = counted(phi_alpha(1), seen)
        f = random_full_spectrum(np.random.default_rng(11), 8)
        ModulusCurve(f, 1.5, shape, np.pi)
        seen.clear()
        ModulusCurve(f + SpectralFunction({13: 0.7}), 1.5, shape, np.pi)
        grid = [s for s in seen if s[-1] == 4096]
        assert grid == [(1, 4096)]
        assert all(s[-1] == 9 for s in seen if s[-1] != 4096)
        assert rows(shape, 1.5) == 9

    @pytest.mark.parametrize("p,u", [(2.0, np.pi), (1.5, 2.0)])
    def test_a_new_p_or_u_adds_a_table_and_the_old_one_keeps_its_rows(self, p, u):
        seen = []
        shape = counted(phi_alpha(1), seen)
        f = random_full_spectrum(np.random.default_rng(4), 8)
        ModulusCurve(f, 1.5, shape, np.pi)
        old = scan_table(shape, 1.5)
        ModulusCurve(SpectralFunction({3: 1.0}), p, shape, u)
        assert rows(shape, p, u) == 1
        assert scan_table(shape, 1.5) is old and rows(shape, 1.5) == 8
        assert list(shape._kept) == [("scan", 1.5, np.pi, 4096), ("scan", p, u, 4096)]
        seen.clear()
        ModulusCurve(f, 1.5, shape, np.pi)
        assert seen and all(s[-1] == 8 for s in seen)

    def test_an_unhashable_shape_shares_the_table(self):
        seen = []
        base = counted(phi_alpha(1), seen)
        shape = dataclasses.replace(base, eval=_Unhashable(base.eval))
        f = random_full_spectrum(np.random.default_rng(5), 8)
        first = ModulusCurve(f, 2.0, shape, np.pi)
        table = scan_table(shape, 2.0)
        assert table is not None and seen[0] == (8, 4096)
        seen.clear()
        assert_same_curve(ModulusCurve(f, 2.0, shape, np.pi), first)
        assert seen and all(s[-1] == 8 for s in seen)
        seen.clear()
        ModulusCurve(f + SpectralFunction({13: 0.7}), 2.0, shape, np.pi)
        assert [s for s in seen if s[-1] == 4096] == [(1, 4096)]
        assert scan_table(shape, 2.0) is table and rows(shape, 2.0) == 9

    def test_a_spectrum_past_the_cap_scans_directly(self, monkeypatch):
        shape = phi_alpha(1)
        ModulusCurve(SpectralFunction({1: 1.0, 2: 0.5}), 1.0, shape, np.pi)
        table = scan_table(shape, 1.0)
        # 300 rows of 4096 points pass the 2^20-value cap
        f = random_full_spectrum(np.random.default_rng(6), 300)
        capped = ModulusCurve(f, 1.0, shape, np.pi)
        assert scan_table(shape, 1.0) is table and rows(shape, 1.0) == 2
        monkeypatch.setattr(smoothness, "MAX_SCAN_POINTS", 2**21)
        assert_same_curve(capped, ModulusCurve(f, 1.0, shape, np.pi))
        assert rows(shape, 1.0) == 300

    @staticmethod
    def race(shape, cases, offsets):
        """Build the curve of every (f, p) of ``cases`` on [0, pi] in one thread
        per offset, each going through the cases from its offset, with thread
        switches as often as Python allows; what differs from a direct scan."""
        ts = np.linspace(0.0, np.pi, 257)
        expected = [direct_curve(f, p, shape, np.pi).pow_values(ts) for f, p in cases]
        wrong = []

        def work(offset):
            for i in range(offset, offset + len(cases)):
                f, p = cases[i % len(cases)]
                try:
                    got = ModulusCurve(f, p, shape, np.pi).pow_values(ts)
                except Exception as exc:  # a torn table may index out of range
                    wrong.append(repr(exc))
                    continue
                if not np.allclose(got, expected[i % len(cases)], rtol=1e-13, atol=0.0):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,)) for j in offsets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return wrong

    def test_threads_share_the_table_safely(self):
        rng = np.random.default_rng(9)
        cases = [(random_sparse_spectrum(rng, 40, 8), p) for p in (1.0, 2.0) * 12]
        shape = phi_alpha(1)
        assert self.race(shape, cases, range(4)) == []
        for p in (1.0, 2.0):
            harmonics = {abs(k) for f, q in cases if q == p for k in f.coeffs if k}
            assert rows(shape, p) == len(harmonics)

    def test_threads_read_a_table_that_others_grow(self):
        # one key throughout: each thread starts a quarter of the way further
        # on, so rows are added in many blocks while other curves read them
        rng = np.random.default_rng(10)
        cases = [(random_sparse_spectrum(rng, 40, 3), 1.5) for _ in range(24)]
        shape = phi_alpha(1)
        assert self.race(shape, cases, range(0, 24, 6)) == []
        assert len(scan_table(shape, 1.5).blocks) >= 6 and rows(shape, 1.5) > 30

    def test_drops_and_fallbacks_log_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="spapprox")
        shape = phi_alpha(1)
        f = SpectralFunction({1: 1.0, 7: 0.5})
        ModulusCurve(f, 1.0, shape, np.pi)
        ModulusCurve(f, 1.0, shape, np.pi)
        assert caplog.records == []  # a new key is no event
        # 300 rows of 4096 points pass the 2^20-value cap
        ModulusCurve(random_full_spectrum(np.random.default_rng(6), 300), 1.0, shape, np.pi)
        # 8 more windows, 9 tables: the first is dropped
        for u in range(1, KEPT_PER_SHAPE + 1):
            ModulusCurve(f, 1.0, shape, u)
        messages = [r.getMessage() for r in caplog.records if r.name == "spapprox.smoothness"]
        assert len(messages) == 2
        assert "passes the scan table cap" in messages[0]
        assert messages[1] == "shape 'phi_alpha:1' dropped its scan entry at p=1"
        assert all(r.levelno == logging.DEBUG for r in caplog.records)

    def test_the_library_is_silent_by_default(self):
        script = (
            "import logging\n"
            "from spapprox import ModulusCurve, SpectralFunction, phi_alpha\n"
            "shape = phi_alpha(1)\n"
            "ModulusCurve(SpectralFunction({1: 1.0, 7: 0.5}), 1.0, shape, 3.0)\n"
            "ModulusCurve(SpectralFunction({k: 1.0 for k in range(1, 301)}), 1.0, shape, 3.0)\n"
            "logging.getLogger('spapprox.smoothness').warning('heard')\n"
        )
        src = str(Path(smoothness.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout == run.stderr == ""


class TestOneCache:
    """A shape keeps its scan tables and its dilated shape integrals in one capped cache."""

    def test_a_fuzz_round_finds_everything_it_reuses(self, caplog):
        # jackson_bound as the fuzz benchmark calls it: one shape, four p, the
        # same 8 spectra twice; the second pass fills no table row
        caplog.set_level(logging.DEBUG, logger="spapprox")
        seen = []
        shape = counted(phi_alpha(1), seen)
        mu, psi, n = mu1(np.pi), power(1), 2
        rng = np.random.default_rng(12)
        spectra = [random_sparse_spectrum(rng, 32, terms) for terms in range(1, 9)]
        for _ in range(2):
            seen.clear()
            curves = []
            for p in (1.0, 1.5, 2.0, 3.0):
                report = jackson.inf_quantity(n, shape, p, mu, k_max=64 * n)
                for f in spectra:
                    jackson.jackson_bound(f, psi, shape, p, mu, n, inf_report=report)
                    rough = psi_derivative(f, psi)
                    curves.append((rough, p, ModulusCurve(rough, p, shape, np.pi / n)))
        assert seen and not any(s[-1:] == (4096,) for s in seen)
        assert sorted(kind for kind, *_ in shape._kept) == ["integrals"] * 4 + ["scan"] * 4
        assert caplog.records == []
        for rough, p, curve in curves:
            assert_same_curve(curve, direct_curve(rough, p, shape, np.pi / n))

    @pytest.mark.parametrize("oldest", ["scan", "integrals"])
    @pytest.mark.parametrize("newest", ["scan", "integrals"])
    def test_the_cap_spans_both_kinds(self, caplog, oldest, newest):
        caplog.set_level(logging.DEBUG, logger="spapprox")
        shape, mu = phi_alpha(2), mu2(3 * np.pi / 4)
        f = SpectralFunction({1: 1.0, 7: 0.5})
        add = {
            "scan": lambda p: ModulusCurve(f, p, shape, np.pi),
            "integrals": lambda p: jackson._shape_integrals(shape, p, mu),
        }
        other = "integrals" if oldest == "scan" else "scan"
        for j in range(KEPT_PER_SHAPE // 2):  # the two kinds in turn, oldest first
            add[oldest](1.0 + j)
            add[other](1.0 + j)
        first = next(iter(shape._kept))
        assert first[:2] == (oldest, 1.0) and len(shape._kept) == KEPT_PER_SHAPE
        add[newest](9.0)
        keys = list(shape._kept)
        assert len(keys) == KEPT_PER_SHAPE and first not in keys and keys[-1][:2] == (newest, 9.0)
        (record,) = caplog.records
        assert record.name == "spapprox.smoothness" and record.levelno == logging.DEBUG
        assert record.getMessage() == f"shape 'phi_alpha:2' dropped its {oldest} entry at p=1"

    def test_an_entry_read_between_new_tables_stays(self, caplog):
        # as jackson_bound without inf_report at n = 1..8 on one shape and p:
        # each call reads the integrals entry and adds a table for its window
        caplog.set_level(logging.DEBUG, logger="spapprox")
        shape, mu = phi_alpha(2), mu2(3 * np.pi / 4)
        f = SpectralFunction({1: 1.0, 7: 0.5})
        entry = jackson._shape_integrals(shape, 1.0, mu)
        for u in range(1, KEPT_PER_SHAPE + 1):
            ModulusCurve(f, 1.0, shape, u)
            assert jackson._shape_integrals(shape, 1.0, mu) is entry
        keys = list(shape._kept)
        assert keys[-1][0] == "integrals" and ("scan", 1.0, 1.0, 4096) not in keys
        # the one drop is the first table, read least recently
        assert [r.getMessage() for r in caplog.records] == [
            "shape 'phi_alpha:2' dropped its scan entry at p=1"
        ]
