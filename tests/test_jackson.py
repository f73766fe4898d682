import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, betainc

from spapprox import jackson
from spapprox.averaging import atom_measure, mu1, mu2, tabulated_density
from spapprox.jackson import (
    SharpnessNotCertifiedError,
    closed_form_inf,
    equiv_condition_check,
    extremal_function,
    inf_quantity,
    jackson_bound,
    shape_mass,
    sharp_constant,
    sharpness_certificate,
)
from spapprox.psi import power, tabulated_psi
from spapprox.quadrature import DEFAULT_BUDGET, DEFAULT_TOL, QuadratureBudgetError, adaptive_simpson
from spapprox.sampling import random_sparse_spectrum
from spapprox.smoothness import ShapeFunction, phi_alpha, tabulated_shape
from spapprox.spectral import SpectralFunction, best_approximation

TAU34 = 3 * np.pi / 4
LAMS = [0.25, 0.5, 1.0, 1.5, 2.0, 4.0]


def dilated(shape, p, mu, thetas):
    return jackson._dilated_shape_integrals(
        shape, p, mu, np.asarray(thetas, dtype=float), DEFAULT_TOL, DEFAULT_BUDGET
    )


class TestClosedFormInf:
    @pytest.mark.parametrize("lam,expected", [(1, 2.0), (2, 8 / 3), (3, 4.0), (4, 32 / 5), (5, 32 / 3)])
    def test_values(self, lam, expected):
        assert closed_form_inf(lam) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
    def test_values_match_quadrature(self, lam):
        from spapprox.quadrature import adaptive_simpson

        direct = adaptive_simpson(
            lambda t: (1 - np.cos(t)) ** lam * np.sin(t), 0.0, np.pi
        )
        assert closed_form_inf(lam) == pytest.approx(direct, rel=1e-10)

    def test_integral_floats_accepted(self):
        assert closed_form_inf(2.0) == closed_form_inf(2)

    @pytest.mark.parametrize("lam", [2.5, 0, -1])
    def test_rejects(self, lam):
        with pytest.raises(ValueError):
            closed_form_inf(lam)


class TestInfQuantity:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_cosine_weight_value_four(self, n):
        # 2^(ap/2) * 2^(ap/2+1)/(ap/2+1) with ap/2 = 1 gives 4
        report = inf_quantity(n, phi_alpha(1), 2, mu1(np.pi), k_max=16 * n)
        assert report.value == pytest.approx(4.0, rel=1e-10)
        assert report.argmin_k == n
        assert report.attained_at_n

    def test_linear_weight_against_antiderivative(self):
        # integrand 2(1-cos t); antiderivative 2(t - sin t)
        report = inf_quantity(2, phi_alpha(1), 2, mu2(TAU34), k_max=32)
        assert report.value == pytest.approx(2 * (TAU34 - np.sin(TAU34)), rel=1e-10)
        assert report.attained_at_n

    def test_flat_shape_ties_break_to_n(self):
        flat = tabulated_shape(
            [(0.0, 0.0), (1e-12, 1.0), (np.pi, 1.0)], cap_point=np.pi, sup_value=1.0
        )
        mu = mu1(np.pi)
        report = inf_quantity(3, flat, 2, mu, k_max=12)
        assert report.value == pytest.approx(mu.total_mass, rel=1e-9)
        assert report.argmin_k == 3
        assert report.attained_at_n

    def test_window_only_shrinks_with_larger_k_max(self):
        shape = phi_alpha(0.25)  # fractional: no attainment guarantee
        small = inf_quantity(2, shape, 2, mu1(np.pi), k_max=8)
        large = inf_quantity(2, shape, 2, mu1(np.pi), k_max=32)
        assert large.value <= small.value + 1e-12

    def test_k_max_below_n_rejected(self):
        with pytest.raises(ValueError):
            inf_quantity(4, phi_alpha(1), 2, mu1(np.pi), k_max=3)

    @pytest.mark.parametrize("k_max", [64, 128])
    def test_minimum_past_the_first_half_is_horizon(self, k_max):
        # on the 1-cos weight at ap = 1 the dilated integrals keep falling
        # toward the window edge (the old label was k_max - 1)
        report = inf_quantity(1, phi_alpha(1), 1, mu1(np.pi), k_max=k_max)
        assert report.argmin_k == "horizon"
        assert not report.attained_at_n
        assert report.value < shape_mass(phi_alpha(1), 1, mu1(np.pi))

    def test_short_window_keeps_n(self):
        # the first half [n, max(n, k_max // 2)] always holds n
        report = inf_quantity(3, phi_alpha(1), 2, mu1(np.pi), k_max=4)
        assert report.argmin_k == 3


class TestShapeMass:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("lam", LAMS)
    def test_cosine_weight_closed_form(self, lam, p):
        got = shape_mass(phi_alpha(lam / p), p, mu1(np.pi))
        assert got == pytest.approx(2 ** (lam + 1) / (lam / 2 + 1), rel=1e-12)

    @pytest.mark.parametrize("tau", [np.pi / 2, TAU34, np.pi])
    @pytest.mark.parametrize("lam", LAMS)
    def test_linear_weight_incomplete_beta(self, lam, tau):
        # x = sin^2(t/2) turns (2 sin(t/2))^lam dt into 2^lam x^((lam-1)/2) (1-x)^(-1/2) dx
        a = (lam + 1) / 2
        expected = 2**lam * betainc(a, 0.5, np.sin(tau / 2) ** 2) * beta(a, 0.5)
        assert shape_mass(phi_alpha(lam), 1, mu2(tau)) == pytest.approx(expected, rel=1e-12)


def cusp_panel_quad(lam, theta, tau=np.pi):
    """int_0^tau (2 |sin(theta t / 2)|)^lam sin t dt, one quad call per cusp panel."""
    cusps = 2 * np.pi * np.arange(1, int(theta * tau / (2 * np.pi)) + 2) / theta
    edges = [0.0, *cusps[cusps < tau], tau]
    return sum(
        quad(
            lambda t: (2 * abs(math.sin(theta * t / 2))) ** lam * math.sin(t),
            a, b, epsabs=1e-14, epsrel=1e-13, limit=200,
        )[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


class TestLowFractionalOrder:
    """alpha * p <= 1/2: cusps with unbounded slope at every 2 pi j / theta."""

    @pytest.mark.parametrize("lam", [0.25, 0.5])
    def test_dilated_values_match_per_cusp_quad(self, lam):
        got = dilated(phi_alpha(lam), 1.0, mu1(np.pi), [17.0, 369.0])
        for value, theta in zip(got, (17.0, 369.0)):
            assert value == pytest.approx(cusp_panel_quad(lam, theta), rel=1e-10)

    def test_tiny_budget_raises_with_theta(self):
        with pytest.raises(QuadratureBudgetError, match=r"theta=\d+.*budget 300"):
            inf_quantity(1, phi_alpha(0.25), 1, mu1(np.pi), k_max=40, budget=300)


def simpson_reference(shape, p, mu, theta):
    """The dilated integral by one adaptive Simpson plus the atoms sum."""
    total = 0.0
    if mu.density is not None:
        total += adaptive_simpson(
            lambda t: shape.eval(theta * t) ** p * mu.density(t), 0.0, mu.tau,
            tol=1e-12, initial_panels=max(64, int(2 * theta * mu.tau / np.pi) + 1),
        )
    for loc, m in mu.atoms:
        total += m * float(shape.eval(np.array([theta * loc]))[0]) ** p
    return total


THETAS = [1.0, 2.5, 7.0, 31.0]


class TestAgainstAdaptiveSimpson:
    def check(self, shape, p, mu):
        got = dilated(shape, p, mu, THETAS)
        want = [simpson_reference(shape, p, mu, theta) for theta in THETAS]
        assert got == pytest.approx(want, rel=1e-9)

    def test_tabulated_shape_with_interior_knots(self):
        shape = tabulated_shape(
            [(0.0, 0.0), (0.5, 0.8), (1.3, 1.0), (2.0, 1.7), (np.pi, 2.0)],
            cap_point=np.pi, sup_value=2.0,
        )
        self.check(shape, 1.5, mu1(np.pi))

    def test_tabulated_density_with_knots(self):
        mu = tabulated_density(np.pi, [(0.0, 0.0), (0.7, 1.3), (1.9, 0.4), (np.pi, 1.0)])
        assert mu.breakpoints == (0.7, 1.9)
        self.check(phi_alpha(1.5), 1.0, mu)

    def test_atoms_only_weight(self):
        mu = atom_measure(np.pi, [(0.4, 1.0), (1.7, 0.5), (np.pi, 0.25)])
        self.check(phi_alpha(1), 2.0, mu)

    def test_undeclared_shape_is_bisected(self):
        shape = ShapeFunction(eval=phi_alpha(1).eval, cap_point=np.pi, sup_value=2.0)
        assert shape.breakpoints is None
        self.check(shape, 1.0, mu2(TAU34))


class TestEquivCondition:
    def test_cosine_weight_integer_power_holds(self):
        assert equiv_condition_check(2, phi_alpha(1), 2, mu1(np.pi), k_max=32)

    def test_linear_weight_small_tau_holds(self):
        assert equiv_condition_check(2, phi_alpha(1), 2, mu2(TAU34), k_max=32)

    def test_linear_weight_large_tau_fails(self):
        # beyond the certified window the dilated infimum dips below
        assert not equiv_condition_check(4, phi_alpha(1), 2, mu2(2 * np.pi), k_max=64)


class TestJacksonBound:
    def test_low_order_function_trivially_holds(self):
        f = SpectralFunction({0: 1.0, 1: 2.0, -1: 1j})
        res = jackson_bound(f, power(1), phi_alpha(1), 2, mu1(np.pi), n=2, k_max=16)
        assert res.lhs == 0.0
        assert res.holds and res.holds_plain

    def test_random_spectra_hold_and_bounds_are_ordered(self):
        rng = np.random.default_rng(61)
        shape = phi_alpha(2)
        mu = mu2(TAU34)
        report = inf_quantity(2, shape, 1, mu, k_max=24)
        for _ in range(25):
            f = random_sparse_spectrum(rng, 16, 6)
            res = jackson_bound(f, power(2), shape, 1, mu, n=2, inf_report=report)
            assert res.holds
            assert res.holds_plain
            assert res.bound <= res.bound_plain + 1e-9


class TestSharpConstant:
    @pytest.mark.parametrize(
        "p,alpha",
        [(2.0, 1.0), (2.0, 2.0), (1.0, 2.0), (1.0, 4.0)],  # ap/2 in {1, 2}
    )
    @pytest.mark.parametrize("r,n", [(0, 1), (1, 2), (2, 4)])
    def test_cosine_weight_formula(self, p, alpha, r, n):
        lam = alpha * p / 2
        expected = (lam + 1) ** (1 / p) / 2**alpha * n ** (-float(r))
        got = sharp_constant(phi_alpha(alpha), p, mu1(np.pi), power(r), n, k_max=8 * n)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_linear_weight_antiderivative_value(self):
        # (tau / (2 (tau - sin tau)))^(1/2), tau = 3pi/4
        expected = math.sqrt(TAU34 / (2 * (TAU34 - np.sin(TAU34))))
        got = sharp_constant(phi_alpha(1), 2, mu2(TAU34), power(0), 2, k_max=32)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.8452179133358417, rel=1e-9)

    def test_uncertified_configuration_raises(self):
        with pytest.raises(SharpnessNotCertifiedError, match="not certified"):
            sharp_constant(phi_alpha(1), 2, mu2(2 * np.pi), power(0), 4, k_max=64)

    def test_shape_not_monotone_on_support_raises(self):
        short_cap = tabulated_shape(
            [(0.0, 0.0), (1.0, 1.0), (np.pi, 1.0)], cap_point=1.0, sup_value=1.0
        )
        with pytest.raises(SharpnessNotCertifiedError, match="nondecreasing"):
            sharp_constant(short_cap, 2, mu1(np.pi), power(0), 2)

    def test_tail_sup_not_attained_raises(self):
        psi = tabulated_psi({2: 0.5, -2: 0.5, 3: 0.9, -3: 0.9}, bound=0.9)
        with pytest.raises(SharpnessNotCertifiedError, match="attained"):
            sharp_constant(phi_alpha(1), 2, mu1(np.pi), psi, 2, k_max=8)


class TestExtremalFunction:
    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_symmetric_attainment(self, r, p):
        n = 3
        f = extremal_function(n, power(r))
        assert f == SpectralFunction({-n: 1.0, n: 1.0})
        assert best_approximation(f, p, n) == pytest.approx(2 ** (1 / p))

    def test_one_sided_attainment(self):
        psi = tabulated_psi({2: 0.9, -2: 0.5}, bound=0.9)
        f = extremal_function(2, psi, delta=1.0)
        assert f == SpectralFunction({2: 1.0})

    def test_constant_only(self):
        f = extremal_function(2, power(1), delta=0.0, gamma=3.0)
        assert f == SpectralFunction({0: 3.0})

    def test_unattained_supremum_is_an_error(self):
        psi = tabulated_psi({3: 0.9, -3: 0.9}, bound=0.9)
        with pytest.raises(ValueError, match="attain"):
            extremal_function(2, psi)


class TestSharpnessCertificate:
    def test_cosine_weight_first_order(self):
        rep = sharpness_certificate(phi_alpha(1), 2, mu1(np.pi), power(1), 4, k_max=32)
        assert rep.constant == pytest.approx(math.sqrt(2) / 2 / 4, rel=1e-9)
        assert rep.rel_gap <= 1e-6

    def test_linear_weight_second_order(self):
        rep = sharpness_certificate(phi_alpha(2), 1, mu2(TAU34), power(0), 2, k_max=32)
        assert rep.rel_gap <= 1e-6

    def test_chernykh_ratio(self):
        rep = sharpness_certificate(phi_alpha(1), 2, mu1(np.pi), power(0), 1, k_max=16)
        assert rep.ratio == pytest.approx(math.sqrt(2) / 2, rel=1e-6)

    def test_atom_weight_flows_through_the_bound(self):
        # atoms rarely satisfy the sharpness condition, but the inequality
        # itself holds for any weight
        mu = atom_measure(np.pi, [(np.pi / 2, 1.0), (np.pi, 1.0)])
        rng = np.random.default_rng(67)
        report = inf_quantity(2, phi_alpha(1), 2, mu, k_max=16)
        for _ in range(10):
            f = random_sparse_spectrum(rng, 12, 5)
            res = jackson_bound(f, power(1), phi_alpha(1), 2, mu, n=2, inf_report=report)
            assert res.holds and res.holds_plain
