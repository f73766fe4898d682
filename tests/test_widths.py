import math

import numpy as np
import pytest

from spapprox import jackson, widths
from spapprox.averaging import mu1, mu2, stieltjes_integral
from spapprox.jackson import extremal_function, sharpness_certificate
from spapprox.psi import PsiSequence, power, psi_derivative
from spapprox.quadrature import adaptive_simpson
from spapprox.sampling import random_full_spectrum
from spapprox.smoothness import phi_alpha
from spapprox.spectral import SpectralFunction, best_approximation, sp_norm
from spapprox.widths import (
    SmoothnessClass,
    _active_scale,
    _capped_shape_integrals,
    _constraint,
    bernstein_radius,
    certify_widths,
    linear_majorant,
    lower_certificate,
    majorant,
    capped_shape_integral,
    majorant_condition_check,
    membership,
    upper_certificate,
    width_closed_form,
)

TAU34 = 3 * np.pi / 4


def fixed_class(p=2.0, alpha=1.0, weight="mu1", tau=np.pi, r=1, n=2):
    mu = mu1(tau) if weight == "mu1" else mu2(tau)
    return SmoothnessClass(psi=power(r), shape=phi_alpha(alpha), p=p, mu=mu, n=n)


def solved_linear_majorant_class(r=1):
    """Linear majorant on the linear weight: the window-scaling condition
    pins the exponent; solve it from the stationarity identity."""
    tau = TAU34
    g_tau = 2 * (1 - np.cos(tau))  # shape power dilated mass integrand at tau
    mass = adaptive_simpson(lambda t: 2 * (1 - np.cos(t)), 0.0, tau)
    p_star = tau * g_tau / mass - 1.0
    alpha = 2.0 / p_star
    return SmoothnessClass(
        psi=power(r), shape=phi_alpha(alpha), p=p_star, mu=mu2(tau),
        omega=linear_majorant(),
    )


def criterion_6_classes():
    """The classes of acceptance criterion 6: three fixed-mode ones at n = 1,
    2 and 4, then the majorant-mode one."""
    fixed = [(1.0, 2.0, mu1(np.pi)), (2.0, 1.0, mu1(np.pi)), (1.0, 2.0, mu2(TAU34))]
    return [
        SmoothnessClass(psi=power(1), shape=phi_alpha(alpha), p=p, mu=mu, n=n)
        for alpha, p, mu in fixed for n in (1, 2, 4)
    ] + [solved_linear_majorant_class()]


class TestClassValidation:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            SmoothnessClass(psi=power(1), shape=phi_alpha(1), p=2, mu=mu1(np.pi))
        with pytest.raises(ValueError):
            SmoothnessClass(
                psi=power(1), shape=phi_alpha(1), p=2, mu=mu1(np.pi),
                n=2, omega=linear_majorant(),
            )

    def test_mode_names(self):
        assert fixed_class().mode == "fixed_n"
        assert solved_linear_majorant_class().mode == "majorant"

    def test_fixed_mode_windows_and_bound(self):
        cls = fixed_class(n=4)
        assert cls.windows().tolist() == [np.pi / 4]
        assert cls.bound(np.array([0.1, 2.0])).tolist() == [1.0, 1.0]

    def test_majorant_mode_windows_and_bound(self):
        cls = solved_linear_majorant_class()
        us = cls.windows()
        assert us.shape == (64,)
        assert (us[0], us[-1]) == (TAU34 / 64, TAU34)
        np.testing.assert_allclose(np.diff(us), TAU34 / 64, rtol=1e-12)
        assert cls.bound(us).tolist() == us.tolist()

    def test_non_monotone_multiplier_rejected(self):
        rising = PsiSequence(eval=lambda k: complex(abs(k)), bound=1e9)
        cls = SmoothnessClass(psi=rising, shape=phi_alpha(1), p=2, mu=mu1(np.pi), n=2)
        with pytest.raises(ValueError, match="nonincreasing"):
            width_closed_form(cls, k_max=8)


class TestClosedForm:
    def test_cosine_weight_value(self):
        cls = fixed_class(p=2, alpha=1, r=2, n=3)
        value = width_closed_form(cls, k_max=24)
        assert value.certified
        assert value.value == pytest.approx(math.sqrt(2) / 2 / 9, rel=1e-9)
        assert value.dimensions == (5, 6)
        # cross-check the shape mass by quadrature
        mass_ratio = 2.0 / stieltjes_integral(
            lambda t: 2 * (1 - np.cos(t)), mu1(np.pi), np.pi
        )
        assert value.value == pytest.approx(math.sqrt(mass_ratio) / 9, rel=1e-9)

    def test_linear_weight_value(self):
        cls = fixed_class(p=2, alpha=1, weight="mu2", tau=TAU34, r=1, n=2)
        value = width_closed_form(cls, k_max=24)
        expected = math.sqrt(TAU34 / (2 * (TAU34 - np.sin(TAU34)))) / 2
        assert value.certified
        assert value.value == pytest.approx(expected, rel=1e-9)

    def test_majorant_mode_scales_by_window_bound(self):
        cls_m = solved_linear_majorant_class()
        n = 2
        value_m = width_closed_form(cls_m, n, k_max=24)
        fixed_twin = SmoothnessClass(
            psi=cls_m.psi, shape=cls_m.shape, p=cls_m.p, mu=cls_m.mu, n=n
        )
        value_f = width_closed_form(fixed_twin, n, k_max=24)
        assert value_m.value == pytest.approx(value_f.value * (TAU34 / n), rel=1e-12)

    def test_uncertified_reports_interval(self):
        # fractional shape power on the cosine weight: the dilated infimum
        # dips below the undilated mass (around dilation 31), so only the
        # two-sided interval is claimed
        cls = fixed_class(p=2, alpha=0.5, weight="mu1", tau=np.pi, n=2)
        value = width_closed_form(cls, k_max=80)
        assert not value.certified
        assert value.value is None
        assert value.lower < value.upper
        assert value.shape_certification == "declared"


class TestBernsteinRadius:
    def test_equals_certified_closed_form(self):
        cls = fixed_class(p=2, alpha=1, r=1, n=2)
        assert bernstein_radius(cls) == pytest.approx(
            width_closed_form(cls, k_max=16).value, rel=1e-12
        )

    def test_majorant_radius_scales(self):
        cls_m = solved_linear_majorant_class()
        fixed_twin = SmoothnessClass(
            psi=cls_m.psi, shape=cls_m.shape, p=cls_m.p, mu=cls_m.mu, n=2
        )
        assert bernstein_radius(cls_m, 2) == pytest.approx(
            bernstein_radius(fixed_twin) * (TAU34 / 2), rel=1e-12
        )

    def test_unit_case(self):
        cls = fixed_class(p=2, alpha=1, r=0, n=1)
        assert bernstein_radius(cls) == pytest.approx(math.sqrt(2) / 2, rel=1e-10)


class TestMembership:
    def test_zero_function_always_member(self):
        assert membership(SpectralFunction(), fixed_class())
        assert membership(SpectralFunction(), solved_linear_majorant_class(), tol=1e-6)

    def test_boundary_polynomial_is_member(self):
        cls = fixed_class(n=2)
        rng = np.random.default_rng(71)
        radius = bernstein_radius(cls)
        for _ in range(5):
            ks = np.arange(-2, 3)
            f = SpectralFunction({int(k): complex(*rng.standard_normal(2)) for k in ks})
            f = (radius / sp_norm(f, cls.p)) * f
            assert membership(f, cls, tol=1e-6)

    def test_huge_function_is_not_member(self):
        cls = fixed_class(n=2)
        f = SpectralFunction({1: 1e6, 2: 1e6})
        assert not membership(f, cls)

    def test_scaling_past_the_boundary_expels(self):
        cls = fixed_class(n=2)
        f = extremal_function(2, cls.psi)
        rough = psi_derivative(f, cls.psi)
        from spapprox.averaging import averaged_modulus

        scale = 1.0 / averaged_modulus(rough, cls.p, cls.shape, cls.mu, cls.mu.tau / 2)
        assert membership(scale * f, cls, tol=1e-9)
        assert not membership((1.001 * scale) * f, cls, tol=1e-9)


    def test_verdicts_do_not_depend_on_the_scale(self, monkeypatch):
        # the averaged moduli of f s are s times those of f: against the
        # class bounds times s every verdict stays, also 1e-7 relative off an
        # active constraint, where an additive slack of 1e-9 admits f 1e-10.
        # The bounds move, not f: amplitudes below COEFF_TOL = 1e-12 are
        # pruned, so every amplitude of f 1e-10 stays above 1e-12 here.
        rng = np.random.default_rng(61)
        bound = SmoothnessClass.bound
        for cls in criterion_6_classes():
            f = random_full_spectrum(rng, cls.n or 2)
            assert min(map(abs, f.coeffs.values())) > 1e-2
            values, _ = _constraint(f, cls)
            active = _active_scale(values, bound(cls, cls.windows()))
            for c, member in ((1.0 - 1e-7, True), (1.0 + 1e-7, False), (0.5, True), (2.0, False)):
                for s in (1e-10, 1.0, 1e10):
                    monkeypatch.setattr(
                        SmoothnessClass, "bound",
                        lambda self, u: s * bound(self, u) / (active * c),
                    )
                    assert membership(s * f, cls) is member, (cls, c, s)

    @pytest.mark.parametrize("s", [1e-10, 1.0, 1e10])
    def test_a_target_cut_below_an_extremal_value_is_violated_at_any_scale(self, s, monkeypatch):
        for cls in criterion_6_classes():
            f = extremal_function(cls.n or 2, cls.psi)
            values, _ = _constraint(f, cls)
            for cut, member in ((1.0, True), (1.0 - 1e-6, False)):
                monkeypatch.setattr(SmoothnessClass, "bound", lambda self, u: s * cut * values)
                assert membership(s * f, cls) is member, (cls, cut)

    def test_majorant_mode_rejects_a_violation_at_the_last_window_only(self):
        # for phi_alpha(2) and one low harmonic the averaged modulus grows
        # faster than the linear majorant up to tau < pi, so scaling the
        # spectrum just past the last window's bound leaves every other
        # window inside
        from spapprox.averaging import averaged_pow_modulus
        from spapprox.smoothness import ModulusCurve

        cls = SmoothnessClass(
            psi=power(0), shape=phi_alpha(2), p=2.0, mu=mu2(TAU34), omega=linear_majorant()
        )
        f = SpectralFunction({1: 1.0})
        us = TAU34 * np.arange(1, 65) / 64
        curve = ModulusCurve(psi_derivative(f, cls.psi), cls.p, cls.shape, TAU34)
        values = averaged_pow_modulus(curve, cls.mu, us) ** 0.5
        scale = float(1.001 * us[-1] / values[-1])
        assert np.all(scale * values[:-1] < us[:-1] - 1e-3)
        assert membership((0.998 * scale) * f, cls)
        assert not membership(scale * f, cls)


    def test_fixed_mode_values_are_pinned(self):
        # values of the single-window route that both fixed-mode checks ran
        # before they shared one constraint path
        cls = fixed_class(p=2, alpha=1, r=1, n=2)
        f = random_full_spectrum(np.random.default_rng(31), 16)
        values, targets = _constraint(f, cls)
        assert values.tolist() == pytest.approx([109.36773347821956], rel=1e-13, abs=0.0)
        assert targets.tolist() == [1.0]
        scale = 1.0 / float(values[0])
        assert membership((scale * (1.0 - 1e-8)) * f, cls)
        assert not membership((scale * (1.0 + 1e-8)) * f, cls)
        ev = upper_certificate(cls, samples=6, seed=31)
        assert ev.max_en == pytest.approx(0.06382224470457717, rel=1e-13, abs=0.0)
        assert (ev.argmax_index, ev.non_bracketing) == (5, 0)


class TestActiveScale:
    def test_scale_makes_the_constraint_active(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.uniform(0.01, 5.0, 64)
            targets = rng.uniform(0.1, 2.0, 64)
            c = _active_scale(values, targets)
            assert np.max(c * values / targets) == pytest.approx(1.0, rel=0.0, abs=1e-15)

    def test_vanishing_values_cannot_be_scaled(self):
        assert _active_scale(np.zeros(4), np.ones(4)) is None
        assert _active_scale(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == 0.5


class TestLowerCertificate:
    def test_no_failures_on_certified_configs(self):
        for n in (1, 2, 4):
            cls = fixed_class(p=2, alpha=1, r=1, n=n)
            ev = lower_certificate(cls, samples=25, seed=101 + n)
            assert ev.failures == 0
            assert ev.samples == 25

    def test_empty_run(self):
        # a certificate with no samples would pass on no evidence
        with pytest.raises(ValueError, match="at least one sample"):
            lower_certificate(fixed_class(), samples=0, seed=1)

    def test_inflated_radius_probe_reports(self):
        # exploratory: an inflated ball should start leaking members
        cls = fixed_class(p=2, alpha=1, r=1, n=2)
        ev = lower_certificate(cls, samples=40, seed=5, radius_scale=1.05)
        assert ev.samples == 40
        assert ev.failures >= 0  # reported, not asserted

    def test_majorant_mode(self):
        cls = solved_linear_majorant_class()
        ev = lower_certificate(cls, n=2, samples=10, seed=3)
        assert ev.failures == 0


class TestUpperCertificate:
    def test_extremal_member_attains_the_width(self):
        cls = fixed_class(p=2, alpha=1, r=1, n=2)
        value = width_closed_form(cls, k_max=16).value
        f = extremal_function(2, cls.psi)
        rough = psi_derivative(f, cls.psi)
        from spapprox.averaging import averaged_modulus

        scale = 1.0 / averaged_modulus(rough, cls.p, cls.shape, cls.mu, cls.mu.tau / 2)
        en = best_approximation(scale * f, cls.p, 2)
        assert en == pytest.approx(value, rel=1e-6)

    def test_low_order_members_have_zero_tail(self):
        cls = fixed_class(n=4)
        f = SpectralFunction({0: 1.0, 1: 1.0, -2: 2.0})
        assert best_approximation(f, cls.p, 4) == 0.0

    def test_random_members_stay_below_closed_form(self):
        cls = fixed_class(p=2, alpha=1, r=1, n=2)
        value = width_closed_form(cls, k_max=16).value
        ev = upper_certificate(cls, samples=25, seed=11)
        assert ev.non_bracketing == 0
        assert ev.max_en <= value + 1e-6

    def test_majorant_mode_stays_below(self):
        cls = solved_linear_majorant_class()
        value = width_closed_form(cls, 2, k_max=16).value
        ev = upper_certificate(cls, n=2, samples=8, seed=13)
        assert ev.max_en <= value + 1e-6


class TestCertify:
    def test_consistent_on_certified_configs(self):
        cls = fixed_class(p=2, alpha=1, r=1, n=2)
        cert = certify_widths(cls, samples=20, seed=19, k_max=16)
        assert cert.verdict == "consistent"
        assert cert.dimensions == (3, 4)
        assert cert.closed_form.certified

    @pytest.mark.parametrize(
        "certificate",
        [
            lambda: certify_widths(fixed_class(n=2), samples=2, seed=5, k_max=16),
            lambda: certify_widths(
                solved_linear_majorant_class(), 2, samples=2, seed=5, k_max=16
            ),
            lambda: sharpness_certificate(phi_alpha(1), 2, mu1(np.pi), power(1), 2, k_max=16),
        ],
        ids=["fixed", "majorant", "sharpness"],
    )
    def test_one_shape_mass_pass_per_certificate(self, monkeypatch, certificate):
        # the shape mass is the only dilated integral taken at theta = 1 alone
        passes = []
        batched = jackson._dilated_shape_integrals

        def counting(shape, p, mu, thetas):
            passes.append(thetas.size == 1 and thetas[0] == 1.0)
            return batched(shape, p, mu, thetas)

        monkeypatch.setattr(jackson, "_dilated_shape_integrals", counting)
        certificate()
        assert sum(passes) == 1

    @pytest.mark.parametrize(
        "build,n",
        [(lambda: fixed_class(n=2), None), (solved_linear_majorant_class, 2)],
        ids=["fixed", "majorant"],
    )
    def test_one_shape_mass_pass_across_certificates_of_a_class(self, monkeypatch, build, n):
        # the class's shape keeps its mass, so a second certificate takes none
        passes = []
        batched = jackson._dilated_shape_integrals

        def counting(shape, p, mu, thetas):
            passes.append(thetas.size == 1 and thetas[0] == 1.0)
            return batched(shape, p, mu, thetas)

        monkeypatch.setattr(jackson, "_dilated_shape_integrals", counting)
        cls = build()
        first = certify_widths(cls, n, samples=2, seed=5, k_max=16)
        second = certify_widths(cls, n, samples=2, seed=5, k_max=16)
        assert sum(passes) == 1
        assert second == first

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("certificate", [certify_widths, lower_certificate, upper_certificate])
    def test_no_samples_raise_before_any_integral(self, monkeypatch, certificate, samples):
        def unreachable(*args):
            raise AssertionError("integrated before checking the sample count")

        monkeypatch.setattr(jackson, "_dilated_shape_integrals", unreachable)
        monkeypatch.setattr(widths, "_constraint", unreachable)
        with pytest.raises(ValueError, match="at least one sample"):
            certificate(fixed_class(n=1), 1, samples=samples)

    def test_homogeneity_violation_detected(self):
        # inflating the ball radius must surface as lower-certificate failures
        cls = fixed_class(p=2, alpha=1, r=1, n=2)
        ev = lower_certificate(cls, samples=60, seed=23, radius_scale=1.2)
        assert ev.failures > 0


class TestMajorantCondition:
    def test_unit_dilation_is_equality(self):
        # at xi = 1 both sides of the window-scaling inequality hold the shape mass
        capped = capped_shape_integral(phi_alpha(1), 2, mu2(TAU34), 1.0)
        assert capped == pytest.approx(jackson.shape_mass(phi_alpha(1), 2, mu2(TAU34)), rel=1e-12)

    def test_solved_configuration_passes_default_grid(self):
        cls = solved_linear_majorant_class()
        check = majorant_condition_check(cls.omega, cls.shape, cls.p, cls.mu)
        assert check.ok

    def test_linear_majorant_at_p2_reports_failure(self):
        # away from the solved exponent the scaling inequality genuinely fails
        check = majorant_condition_check(linear_majorant(), phi_alpha(1), 2, mu2(TAU34))
        assert not check.ok
        assert check.worst_rel_margin > 0
        assert math.isfinite(check.worst_xi) and math.isfinite(check.worst_u)

    def test_power_majorant_stationary_family_exploratory(self):
        # construct the exponent that balances the dilated mass for a second
        # shape power; exploratory smoke per the certificate design
        tau = TAU34
        ap = 3.0
        g_tau = (2 * (1 - np.cos(tau))) ** (ap / 2)
        mass = adaptive_simpson(lambda t: (2 * (1 - np.cos(t))) ** (ap / 2), 0.0, tau)
        p = 2.0
        beta = (tau * g_tau / mass - 1.0) / p
        omega = majorant(lambda u: np.asarray(u, float) ** beta, label=f"power:{beta:g}")
        check = majorant_condition_check(omega, phi_alpha(ap / p), p, mu2(tau))
        assert check.worst_rel_margin <= 1e-9  # equality at xi=1, below elsewhere

    def test_capped_shape_stays_singular(self, monkeypatch):
        # the cap point is a kink of the capped shape, not a zero of order
        # alpha, so its breakpoints declare no order even where phi_alpha's
        # cusps are analytic on each side
        cls = solved_linear_majorant_class()
        assert not cls.shape.breakpoints.singular(cls.p)
        seen = []

        def capture(shape, p, mu, thetas):
            seen.append(shape.breakpoints)
            return np.ones(np.size(thetas))

        monkeypatch.setattr(widths, "_dilated_shape_integrals", capture)
        _capped_shape_integrals(cls.shape, cls.p, cls.mu, np.ones(1))
        assert seen[0].order is None and seen[0].singular(cls.p)

    def test_condition_margins_are_pinned(self):
        # the worst margins of the solved class and of the linear majorant
        # at p = 2, as before shape^p was analytic on each side of its cusps
        cls = solved_linear_majorant_class()
        check = majorant_condition_check(cls.omega, cls.shape, cls.p, cls.mu)
        assert check.worst_rel_margin == -0.0019958757172954256
        check = majorant_condition_check(linear_majorant(), phi_alpha(1), 2, mu2(TAU34))
        assert check.worst_rel_margin == 0.14977582737510775

    def test_batched_capped_integrals_match_one_simpson_per_xi(self):
        cls = solved_linear_majorant_class()
        shape, p, mu = cls.shape, cls.p, cls.mu
        xis = np.logspace(-2, 2, 64)
        batched = _capped_shape_integrals(shape, p, mu, xis)
        cap = shape.cap_point
        for xi, value in zip(xis, batched):
            # Simpson up to the kink at cap / xi; the capped shape is flat beyond
            kink = min(cap / xi, mu.tau)
            alone = adaptive_simpson(
                lambda s: shape.eval(xi * s) ** p, 0.0, kink, tol=1e-14
            ) + (mu.tau - kink) * shape.eval(np.array([cap]))[0] ** p
            assert value == pytest.approx(alone, rel=1e-13, abs=0.0)
            assert capped_shape_integral(shape, p, mu, xi) == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("alpha,p", [(1.0, 2.0), (4.0 / 3.0, 1.5)])
    def test_capped_integrals_match_the_closed_form_at_lambda_two(self, alpha, p):
        # shape^p = 2 (1 - cos t): 2 tau - 2 sin(xi tau) / xi while xi tau <= pi,
        # else 2 pi / xi + 4 (tau - pi / xi); x - sin x by its series, which
        # does not cancel at small x
        tau = TAU34
        xis = np.logspace(-2, 2, 64)
        x = np.minimum(xis * tau, np.pi)
        coef = [(-1.0) ** (j + 1) / math.factorial(2 * j + 1) for j in range(1, 30)]
        x_minus_sin = np.array(coef) @ x ** np.arange(3, 60, 2)[:, None]
        want = np.where(
            xis * tau <= np.pi,
            2 * x_minus_sin / xis,
            2 * np.pi / xis + 4 * (tau - np.pi / xis),
        )
        got = _capped_shape_integrals(phi_alpha(alpha), p, mu2(tau), xis)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_check_matches_the_per_xi_margins(self):
        omega, shape, p, mu = linear_majorant(), phi_alpha(1), 2.0, mu2(TAU34)
        xis = np.logspace(-2, 2, 64)
        us = np.pi * np.arange(1, 65) / 64
        rhs = omega(us) * capped_shape_integral(shape, p, mu, 1.0) ** 0.5
        margins = np.array([
            omega(us / xi) * capped_shape_integral(shape, p, mu, xi) ** 0.5 / rhs - 1.0
            for xi in xis
        ])
        check = majorant_condition_check(omega, shape, p, mu)
        i, j = np.unravel_index(np.argmax(margins), margins.shape)
        assert check.worst_rel_margin == pytest.approx(margins[i, j], rel=1e-12)
        assert (check.worst_xi, check.worst_u) == (xis[i], us[j])
