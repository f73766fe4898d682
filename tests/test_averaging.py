import math

import numpy as np
import pytest

from spapprox.averaging import (
    atom_measure,
    averaged_modulus,
    mu1,
    mu2,
    stieltjes_integral,
    tabulated_density,
    weight_measure,
)
from spapprox.sampling import random_sparse_spectrum
from spapprox.smoothness import ModulusCurve, generalized_modulus, phi_alpha, tabulated_shape
from spapprox.spectral import SpectralFunction


class TestWeightMeasure:
    def test_mu1_mass_is_one_minus_cos(self):
        for tau in (np.pi / 2, 3 * np.pi / 4, np.pi):
            assert mu1(tau).total_mass == pytest.approx(1 - np.cos(tau), abs=1e-10)

    def test_mu1_rejects_tau_beyond_pi(self):
        with pytest.raises(ValueError):
            mu1(3.5)

    def test_mu2_mass_is_tau(self):
        assert mu2(2.0).total_mass == pytest.approx(2.0, abs=1e-10)

    def test_atom_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            atom_measure(1.0, [(0.5, 1.0), (0.5, 2.0)])
        with pytest.raises(ValueError, match="outside"):
            atom_measure(1.0, [(2.0, 1.0)])
        with pytest.raises(ValueError, match="positive"):
            atom_measure(1.0, [(0.5, -1.0)])

    def test_non_constant_required(self):
        with pytest.raises(ValueError, match="non-constant"):
            weight_measure(1.0, density=lambda t: np.zeros_like(np.asarray(t, float)))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            weight_measure(4.0, density=np.sin)

    def test_tabulated_density(self):
        mu = tabulated_density(1.0, [(0.0, 1.0), (1.0, 1.0)])
        assert mu.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_breakpoints(self):
        assert mu1(np.pi).breakpoints == ()
        assert mu2(1.0).breakpoints == ()
        mu = tabulated_density(2.0, [(0.0, 1.0), (0.5, 2.0), (1.5, 0.0), (2.0, 1.0)])
        assert mu.breakpoints == (0.5, 1.5)
        dens = weight_measure(2.0, density=np.exp, breakpoints=(3.0, 0.0, 1.0, 1.0))
        assert dens.breakpoints == (1.0,)


class TestStieltjesIntegral:
    def test_plain_sine_on_linear_weight(self):
        assert stieltjes_integral(np.sin, mu2(np.pi), np.pi) == pytest.approx(2.0, abs=1e-10)

    def test_atom_only_measure(self):
        mu = atom_measure(2.0, [(0.5, 3.0)])
        # atom at location 0.5 of [0, 2] maps to u*0.5/2 in the window
        val = stieltjes_integral(lambda t: np.asarray(t, float) ** 2, mu, 1.0)
        assert val == pytest.approx(3.0 * 0.25**2)

    def test_weighted_cosine_identity(self):
        val = stieltjes_integral(lambda t: 1.0 - np.cos(t), mu1(np.pi), np.pi)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_window_rescaling(self):
        # integral of g d(mu2 rescaled to [0, u]) equals (tau/u)*int_0^u g
        val = stieltjes_integral(lambda t: np.ones_like(np.asarray(t, float)), mu2(3.0), 1.5)
        assert val == pytest.approx(3.0, abs=1e-10)

    def test_non_finite_rejected(self):
        def g(t):
            with np.errstate(divide="ignore"):
                return 1.0 / np.asarray(t, float)

        with pytest.raises(ValueError, match="non-finite"):
            stieltjes_integral(g, mu2(1.0), 1.0)

    @pytest.mark.parametrize(
        "weight,integrand,closed_form",
        [
            # antiderivative oracles on [0, pi]
            (mu1, lambda t: (1 - np.cos(t)) ** 2, 2.0**3 / 3.0),
            (mu1, lambda t: (1 - np.cos(t)) ** 3, 2.0**4 / 4.0),
            (mu2, lambda t: 1 - np.cos(t), np.pi - np.sin(np.pi)),
            (mu2, lambda t: (1 - np.cos(t)) ** 2,
             1.5 * np.pi - 2 * np.sin(np.pi) + np.sin(2 * np.pi) / 4),
        ],
    )
    def test_quadrature_matches_antiderivatives(self, weight, integrand, closed_form):
        val = stieltjes_integral(integrand, weight(np.pi), np.pi)
        assert val == pytest.approx(closed_form, abs=1e-9)


class TestAveragedModulus:
    def test_constant_function(self):
        f = SpectralFunction({0: 5.0})
        assert averaged_modulus(f, 2, phi_alpha(1), mu2(np.pi), np.pi) == 0.0

    def test_single_harmonic_linear_weight(self):
        # ((1/pi) * int_0^pi 2(1-cos t) dt)^(1/2) = sqrt(2)
        f = SpectralFunction({1: 1.0})
        val = averaged_modulus(f, 2, phi_alpha(1), mu2(np.pi), np.pi)
        assert val == pytest.approx(math.sqrt(2.0), abs=1e-10)

    @pytest.mark.parametrize(
        "n,alpha,p,weight,tau",
        [
            (3, 2.0, 1.5, "mu1", np.pi),
            (2, 1.0, 2.0, "mu2", 3 * np.pi / 4),
            (5, 1.0, 1.0, "mu1", np.pi),
        ],
    )
    def test_two_sided_spectrum_closed_form(self, n, alpha, p, weight, tau):
        # a +-n pair at height delta averages to
        # |delta| * 2^(1/p) * (shape mass / total mass)^(1/p)
        delta = 0.5j
        mu = mu1(tau) if weight == "mu1" else mu2(tau)
        f = SpectralFunction({-n: delta, n: delta})
        shape = phi_alpha(alpha)
        got = averaged_modulus(f, p, shape, mu, tau / n)
        shape_mass = stieltjes_integral(
            lambda t: np.asarray(shape.eval(t), float) ** p, mu, mu.tau
        )
        expected = abs(delta) * 2 ** (1 / p) * (shape_mass / mu.total_mass) ** (1 / p)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_domination_by_plain_modulus(self):
        rng = np.random.default_rng(29)
        shape = phi_alpha(1)
        for _ in range(15):
            f = random_sparse_spectrum(rng, 16, 6)
            u = float(rng.uniform(0.1, np.pi))
            avg = averaged_modulus(f, 2, shape, mu1(np.pi), u)
            plain = generalized_modulus(f, 2, shape, u)
            assert avg <= plain + 1e-9

    def test_mass_normalization_with_flat_shape(self):
        # a shape that is 1 everywhere except a vanishing ramp at 0 turns the
        # averaged modulus into a pure normalization check
        flat = tabulated_shape(
            [(0.0, 0.0), (1e-12, 1.0), (np.pi, 1.0)], cap_point=np.pi, sup_value=1.0
        )
        f = SpectralFunction({1: 1.0})
        for mu in (mu1(np.pi), mu2(np.pi)):
            assert averaged_modulus(f, 2, flat, mu, np.pi) == pytest.approx(1.0, abs=1e-9)

    def test_atoms_contribute(self):
        # pure atom at tau: averaged modulus equals the modulus at the window end
        f = SpectralFunction({1: 1.0})
        mu = atom_measure(np.pi, [(np.pi, 2.0)])
        val = averaged_modulus(f, 2, phi_alpha(1), mu, np.pi)
        assert val == pytest.approx(generalized_modulus(f, 2, phi_alpha(1), np.pi), rel=1e-12)

    def test_curve_reuse_matches_fresh_windows(self):
        rng = np.random.default_rng(31)
        f = random_sparse_spectrum(rng, 10, 5)
        shape = phi_alpha(1)
        mu = mu2(np.pi)
        curve = ModulusCurve(f, 2, shape, np.pi)
        from spapprox.averaging import averaged_pow_modulus

        for u in (0.3, 1.0, np.pi):
            reused = averaged_pow_modulus(curve, mu, u) ** 0.5
            fresh = averaged_modulus(f, 2, shape, mu, u)
            assert reused == pytest.approx(fresh, rel=1e-9)
