import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapprox.sampling import random_sparse_spectrum
from spapprox.smoothness import (
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


class TestShapeValidation:
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
        assert grid.refine_iters == 40

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
