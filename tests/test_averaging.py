import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from spapprox.averaging import (
    atom_measure,
    averaged_modulus,
    averaged_pow_modulus,
    dilated_integrals,
    mu1,
    mu2,
    stieltjes_integral,
    tabulated_density,
    weight_measure,
)
from spapprox.psi import power, psi_derivative
from spapprox.sampling import random_full_spectrum, random_sparse_spectrum
from spapprox.smoothness import ModulusCurve, generalized_modulus, phi_alpha, tabulated_shape
from spapprox.spectral import SpectralFunction


class TestWeightMeasure:
    def test_mu1_mass_is_one_minus_cos(self):
        for tau in (0.1, np.pi / 2, 3 * np.pi / 4, np.pi):
            assert mu1(tau).total_mass == 1 - math.cos(tau)
            integrated = weight_measure(tau, density=np.sin).total_mass
            assert mu1(tau).total_mass == pytest.approx(integrated, rel=1e-12)

    def test_mu1_rejects_tau_beyond_pi(self):
        with pytest.raises(ValueError):
            mu1(3.5)

    def test_mu2_mass_is_tau(self):
        for tau in (0.1, 2.0, 3 * np.pi / 4, 10.0):
            assert mu2(tau).total_mass == tau
            integrated = weight_measure(tau, density=lambda t: np.ones_like(t)).total_mass
            assert mu2(tau).total_mass == pytest.approx(integrated, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_mu2_rejects_tau_that_is_not_a_positive_real(self, tau):
        with pytest.raises(ValueError, match="positive real"):
            mu2(tau)

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

    @pytest.mark.parametrize(
        "weight",
        ["mu1", "mu2", "tabulated", "atoms", "atoms+density", "uneven tabulated", "bare"],
    )
    def test_cdf_matches_quad(self, weight):
        mu = {
            "uneven tabulated": lambda: tabulated_density(
                1.5, [(0.25, 2.0), (0.5, 0.0), (1.0, 3.0), (2.0, 1.0)]
            ),
            "bare": lambda: weight_measure(2.0, density=np.exp, breakpoints=(1.0,)),
            **WINDOW_WEIGHTS,
        }[weight]()
        s = np.linspace(0.0, mu.tau, 7)
        atoms = sum(m for _, m in mu.atoms)
        want = [
            0.0 if mu.density is None else quad(
                lambda t: float(mu.density(np.array(t))), 0.0, x,
                points=[b for b in mu.breakpoints if b < x] or None, epsabs=1e-14, epsrel=1e-13,
            )[0]
            for x in s
        ]
        np.testing.assert_allclose(mu.cdf(s), want, rtol=1e-12, atol=1e-14)
        assert mu.cdf(np.array(mu.tau)) + atoms == pytest.approx(mu.total_mass, rel=1e-14)

    def test_breakpoints(self):
        assert mu1(np.pi).breakpoints == ()
        assert mu2(1.0).breakpoints == ()
        mu = tabulated_density(2.0, [(0.0, 1.0), (0.5, 2.0), (1.5, 0.0), (2.0, 1.0)])
        assert mu.breakpoints == (0.5, 1.5)
        dens = weight_measure(2.0, density=np.exp, breakpoints=(3.0, 0.0, 1.0, 1.0))
        assert dens.breakpoints == (1.0,)


VARIATION_MEASURES = {
    "mu1(0.4)": lambda: mu1(0.4),
    "mu1(pi/3)": lambda: mu1(np.pi / 3),
    "mu1(pi/2)": lambda: mu1(np.pi / 2),
    "mu1(2)": lambda: mu1(2.0),
    "mu1(pi)": lambda: mu1(np.pi),
    "mu2(pi/2)": lambda: mu2(np.pi / 2),
    "mu2(3pi)": lambda: mu2(3 * np.pi),
    # knots inside and beyond tau, a density that ends above zero
    "tabulated": lambda: tabulated_density(
        2.0, [(0.0, 0.0), (0.5, 2.0), (1.5, 0.3), (2.5, 1.0)]
    ),
    "tabulated ending at zero": lambda: tabulated_density(
        np.pi, [(0.0, 1.0), (0.7, 1.3), (1.9, 0.4), (np.pi, 0.0)]
    ),
}


class TestSingularDensity:
    """A density with an integrable singularity at 0 and no closed-form cdf."""

    @pytest.mark.parametrize("lam", [0.5, 0.75])
    def test_cdf_meets_the_closed_form(self, lam):
        def density(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(t > 0.0, t**-lam, 0.0)

        def closed(s):
            return s ** (1.0 - lam) / (1.0 - lam)

        mu = weight_measure(1.5, density=density, label=f"t^-{lam}")
        assert mu.total_mass == pytest.approx(closed(1.5), rel=1e-10)
        s = np.array([0.5, 1.0, 1.5])
        np.testing.assert_allclose(mu.cdf(s), closed(s), rtol=1e-10)


class TestVariation:
    """The declared |rho(tau)| + TV(rho) on [0, tau]."""

    @pytest.mark.parametrize("measure", list(VARIATION_MEASURES))
    def test_matches_a_fine_grid(self, measure):
        mu = VARIATION_MEASURES[measure]()
        t = np.union1d(np.linspace(0.0, mu.tau, 200_001), mu.breakpoints)
        rho = np.asarray(mu.density(t), dtype=float)
        grid = np.sum(np.abs(np.diff(rho))) + abs(rho[-1])
        assert mu.variation == pytest.approx(grid, rel=1e-9)

    def test_undeclared_weights_have_none(self):
        assert weight_measure(np.pi, density=np.sin).variation is None
        assert atom_measure(1.0, [(0.5, 1.0)]).variation is None


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


WINDOW_WEIGHTS = {
    "mu1": lambda: mu1(np.pi),
    "mu2": lambda: mu2(3 * np.pi / 4),
    "tabulated": lambda: tabulated_density(
        2.0, [(0.0, 1.0), (0.5, 2.0), (1.5, 0.0), (2.0, 1.0)]
    ),
    "atoms": lambda: atom_measure(2.0, [(0.25, 1.0), (1.3, 0.5), (2.0, 2.0)]),
    "atoms+density": lambda: weight_measure(
        1.5, density=np.cos, atoms=[(0.0, 0.3), (0.9, 1.2)], label="cos+atoms"
    ),
}


class TestDilatedIntegrals:
    """integral_0^tau F(theta s) dmu(s) over a batch of dilations."""

    def test_density_and_atoms_against_closed_forms(self):
        # F(t) = t^2: density part theta^2 int_0^1.5 s^2 cos s ds, atoms
        # theta^2 sum m s^2
        mu = WINDOW_WEIGHTS["atoms+density"]()
        thetas = np.array([0.5, 1.0, 3.0])
        dens = 1.5**2 * np.sin(1.5) + 2 * 1.5 * np.cos(1.5) - 2 * np.sin(1.5)
        atoms = 0.3 * 0.0**2 + 1.2 * 0.9**2
        values = dilated_integrals(lambda t: np.asarray(t, float) ** 2, mu, thetas)
        np.testing.assert_allclose(values, thetas**2 * (dens + atoms), rtol=1e-10)

    def test_atom_sums(self):
        mu = atom_measure(2.0, [(0.5, 3.0), (2.0, 1.0)])
        sums = mu.atom_sums(lambda t: np.asarray(t, float) ** 2, [1.0, 2.0])
        assert sums.tolist() == pytest.approx([3.0 * 0.25 + 4.0, 4 * (3.0 * 0.25 + 4.0)])
        assert mu2(1.0).atom_sums(np.sin, [1.0, 2.0]).tolist() == [0.0, 0.0]

    def test_atom_sums_reject_non_finite_values(self):
        mu = atom_measure(2.0, [(0.5, 3.0)])
        with pytest.raises(ValueError, match="non-finite"):
            mu.atom_sums(lambda t: np.full(np.shape(t), np.nan), [1.0])

    def test_stieltjes_is_the_call_at_u_over_tau(self):
        mu = WINDOW_WEIGHTS["tabulated"]()
        us = np.array([0.4, 1.1, 2.0])
        via_dilation = dilated_integrals(np.cos, mu, us / mu.tau)
        np.testing.assert_array_equal(stieltjes_integral(np.cos, mu, us), via_dilation)


class TestOneWindowKnots:
    """A single float window cuts its first panels at the density's knots."""

    @pytest.mark.parametrize("u", [0.7, 1.3, 2.0])
    def test_tabulated_density_matches_quad_split_at_the_knots(self, u):
        # knots 0.3, 1.1, 1.7 lie off the 129 uniform nodes of [0, 2]
        mu = tabulated_density(2.0, [(0.0, 1.0), (0.3, 2.0), (1.1, 0.2), (1.7, 1.5), (2.0, 0.5)])
        theta = u / mu.tau
        calls = []

        def g(t):
            calls.append(np.size(t))
            return np.exp(np.sin(3.0 * np.asarray(t, float)))

        got = stieltjes_integral(g, mu, u)
        want, _ = quad(
            lambda s: np.exp(np.sin(3.0 * theta * s)) * mu.density(np.array(s)), 0.0, mu.tau,
            points=mu.breakpoints, limit=200, epsabs=1e-14, epsrel=1e-13,
        )
        assert got == pytest.approx(want, rel=1e-12)
        # from uniform panels alone the knots took 24 or 25 passes (49 or 51
        # calls, 897 to 1,625 points); as panel edges they take 3 or 4
        assert len(calls) <= 9
        assert sum(calls) < {0.7: 897, 1.3: 1209, 2.0: 1625}[u]


def running_sup_kinks(curve, points=4097, steps=60):
    """Where the running supremum of ``curve`` turns between rising and flat,
    located by bisection on a scan of [0, curve.u]."""

    def flat(t):
        return curve.pow_values(t) > curve.shift_sum(t) * (1.0 + 1e-12)

    ts = np.linspace(0.0, curve.u, points)
    state = flat(ts)
    lo, hi = ts[:-1][state[:-1] != state[1:]], ts[1:][state[:-1] != state[1:]]
    side = flat(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        same = flat(mid) == side
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def pow_values_average(curve, mu, u, pow_values=None):
    """The float-window average through :meth:`ModulusCurve.pow_values` (or
    ``pow_values``, which wraps it), evaluating the shift sum at every node,
    its first panels cut at the same kinks as the piece-table route."""
    flat = curve.plateaus
    kinks = np.concatenate([curve.cusps(), flat.starts, flat.ends[:-1]])
    raw = stieltjes_integral(pow_values or curve.pow_values, mu, u, cusps=kinks)
    return max(raw, 0.0) / mu.total_mass


#: A spectrum of the jackson-fuzz mix (seed 81) whose running supremum on
#: [0, pi/2] has a kink in the last uniform Simpson panel of mu1(pi).
TWO_HIGH_HARMONICS = SpectralFunction({
    30: -0.2413500918175571 - 1.5510598081277818j,
    26: 0.10548513655199494 + 0.13719497705118486j,
})


class TestWindowBatch:
    """All windows of one curve in one pass, against one integral per window."""

    @pytest.mark.parametrize("weight", sorted(WINDOW_WEIGHTS))
    def test_matches_one_adaptive_simpson_per_window(self, weight):
        mu = WINDOW_WEIGHTS[weight]()
        f = random_full_spectrum(np.random.default_rng(5), 8)
        curve = ModulusCurve(f, 1.5, phi_alpha(1), mu.tau)
        us = mu.tau * np.arange(1, 65) / 64
        values = averaged_pow_modulus(curve, mu, us)
        # the reference reads g everywhere, not the piece table both routes share
        reference = np.array([pow_values_average(curve, mu, u) for u in us])
        np.testing.assert_allclose(values, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("weight", ["mu1", "mu2", "tabulated", "atoms+density"])
    def test_matches_quad_split_at_the_curve_kinks(self, weight):
        mu = WINDOW_WEIGHTS[weight]()
        f = random_full_spectrum(np.random.default_rng(5), 8)
        curve = ModulusCurve(f, 1.5, phi_alpha(1), mu.tau)
        us = mu.tau * np.arange(1, 65) / 64
        kinks = running_sup_kinks(curve)
        atoms = np.array(mu.atoms).reshape(-1, 2)
        want = []
        for u in us:
            theta = u / mu.tau
            points = np.concatenate([kinks[kinks < u] / theta, mu.breakpoints])
            density, _ = quad(
                lambda s: curve.pow_values(theta * s)[0] * mu.density(np.array([s]))[0],
                0.0, mu.tau, points=points, limit=1000, epsabs=1e-13, epsrel=1e-12,
            )
            want.append(density + curve.pow_values(theta * atoms[:, 0]) @ atoms[:, 1])
        np.testing.assert_allclose(stieltjes_integral(curve.pow_values, mu, us), want, rtol=1e-10)

    def test_windows_share_the_nodes_of_the_curve(self):
        mu = mu2(3 * np.pi / 4)
        f = random_full_spectrum(np.random.default_rng(5), 8)
        curve = ModulusCurve(f, 1.5, phi_alpha(1), mu.tau)
        us = mu.tau * np.arange(1, 65) / 64
        points = []

        def counted(t):
            points.append(np.size(t))
            return curve.pow_values(t)

        stieltjes_integral(counted, mu, us)
        shared = sum(points)
        points.clear()
        for u in us:
            stieltjes_integral(counted, mu, u)
        assert shared <= sum(points) / 10

    def test_constant_integrand_is_exact_without_bisection(self):
        # each window's cells end at its own end: nothing is left to bisect
        mu = mu2(3 * np.pi / 4)
        sizes = []

        def one(t):
            sizes.append(np.size(t))
            return np.ones(np.shape(t))

        us = mu.tau * np.arange(1, 65) / 64
        np.testing.assert_allclose(stieltjes_integral(one, mu, us), mu.tau, rtol=1e-14)
        # one pass: tanh-sinh on the cell at the origin, Gauss-Kronrod on the
        # 63 others, and F called once for all of them
        assert sizes == [105 + 63 * 15]

    def test_budget_error_names_its_window(self, monkeypatch):
        from spapprox import averaging
        from spapprox.quadrature import QuadratureBudgetError

        monkeypatch.setattr(averaging, "DEFAULT_BUDGET", 2000)

        # a cusp at t = 0.7 lies only inside the second window
        def g(t):
            return np.abs(np.asarray(t, float) - 0.7) ** 0.1

        with pytest.raises(QuadratureBudgetError, match=r"stieltjes\[mu2\] \(u=1\)"):
            stieltjes_integral(g, mu2(1.0), np.array([0.5, 1.0]))

    @pytest.mark.parametrize("ap,seed,order", [(0.25, 0, 8), (0.5, 2, 24)])
    def test_small_order_windows_match_quad(self, ap, seed, order):
        # alpha p < 1: the shift sum has an infinite-slope cusp at the origin
        # and at every zero of a harmonic; the windows of a majorant-mode
        # class on mu2(3 pi/4) get values that match quad split at the kinks
        # of the running supremum and at the cusps
        mu = mu2(3 * np.pi / 4)
        f = psi_derivative(random_full_spectrum(np.random.default_rng(seed), order), power(1))
        curve = ModulusCurve(f, 1.5, phi_alpha(ap / 1.5), mu.tau)
        us = mu.tau * np.arange(1, 65) / 64
        got = averaged_pow_modulus(curve, mu, us) * mu.total_mass
        kinks = np.concatenate([running_sup_kinks(curve), curve.cusps()])
        want = [
            quad(
                lambda t: curve.pow_values(t)[0], 0.0, u, points=kinks[kinks < u],
                limit=2000, epsabs=1e-13, epsrel=1e-12,
            )[0] * mu.tau / u
            for u in us
        ]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_two_high_harmonics_match_a_fine_scan(self):
        # p = 1, power:0, phi_alpha(1), mu1(pi), u = pi/2; the reference
        # takes the running supremum from a 2^18-point scan and g itself,
        # and quad between its kinks
        f = TWO_HIGH_HARMONICS
        u, mu = np.pi / 2, mu1(np.pi)
        ks, ws = np.array([30.0, 26.0]), np.abs([f[30], f[26]])

        def g(h):
            return 2.0 * np.abs(np.sin(0.5 * np.multiply.outer(np.atleast_1d(h), ks))) @ ws

        hs = np.linspace(0.0, u, 2**18)
        run = np.maximum.accumulate(g(hs))
        rising = g(hs) >= run
        kinks = hs[1:][rising[1:] != rising[:-1]]

        def running_sup(t):
            return max(run[min(int(t / hs[1]), hs.size - 1)], g(t)[0])

        raw, _ = quad(
            lambda t: running_sup(t) * (np.pi / u) * np.sin(np.pi * t / u), 0.0, u,
            points=kinks, limit=50 * (kinks.size + 2), epsabs=1e-12, epsrel=1e-11,
        )
        curve = ModulusCurve(f, 1, phi_alpha(1), u)
        got = averaged_pow_modulus(curve, mu, np.array([u]))[0]
        assert got == pytest.approx(raw / mu.total_mass, rel=1e-9)

    def test_float_window_of_two_high_harmonics_matches_the_array_route(self):
        # the same seed-81 spectrum through the one-window adaptive_simpson
        # route: with its first panels cut at the kinks of the running
        # supremum it agrees with the array route and with quad split there
        # (it read 1.8e-8 low when it started from uniform panels alone)
        u, mu = np.pi / 2, mu1(np.pi)
        curve = ModulusCurve(TWO_HIGH_HARMONICS, 1, phi_alpha(1), u)
        got = averaged_pow_modulus(curve, mu, u)
        assert got == pytest.approx(averaged_pow_modulus(curve, mu, np.array([u]))[0], rel=1e-12)
        kinks = np.concatenate([running_sup_kinks(curve), curve.cusps()])
        theta = u / mu.tau
        raw, _ = quad(
            lambda t: curve.pow_values(t)[0] * np.sin(t / theta) / theta, 0.0, u,
            points=kinks[kinks < u], limit=2000, epsabs=1e-13, epsrel=1e-12,
        )
        assert got == pytest.approx(raw / mu.total_mass, rel=1e-12)

    def test_scalar_window_returns_a_float(self):
        f = SpectralFunction({3: 1.0})
        curve = ModulusCurve(f, 2, phi_alpha(1), np.pi)
        assert type(stieltjes_integral(curve.pow_values, mu1(np.pi), np.pi / 2)) is float
        assert type(averaged_pow_modulus(curve, mu1(np.pi), np.pi / 2)) is float
        assert averaged_pow_modulus(curve, mu1(np.pi), np.array([np.pi / 2])).shape == (1,)


class TestPieceTableRoute:
    """The float window integrates the running supremum of the piece table."""

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_float_window_equals_the_pow_values_integral(self, p):
        u, mu = np.pi / 2, mu1(np.pi)
        rng = np.random.default_rng(11)
        spectra = [random_sparse_spectrum(rng, 32, 8) for _ in range(12)]
        # k_max u = pi, the shape's cap point: a curve without plateaus
        spectra.append(SpectralFunction({1: 0.5, -2: 1j}))
        fast = last_reaches_u = 0
        for f in spectra:
            curve = ModulusCurve(f, p, phi_alpha(1), u)
            flat = curve.plateaus
            fast += flat.starts.size == 0
            last_reaches_u += flat.starts.size > 0 and flat.starts[-1] < flat.ends[-1] == u
            want = pow_values_average(curve, mu, u)
            assert averaged_pow_modulus(curve, mu, u) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert fast == 1 and last_reaches_u >= 6

    def test_shift_sum_is_evaluated_off_the_plateaus_only(self):
        evals = []
        base = phi_alpha(1)

        def counted(t):
            evals.append(np.size(t))
            return base.eval(t)

        shape = replace(base, eval=counted)
        u, mu = np.pi / 2, mu1(np.pi)
        curve = ModulusCurve(TWO_HIGH_HARMONICS, 1, shape, u)
        flat = curve.plateaus
        assert flat.starts.size == 2
        shift_sum, points = curve.shift_sum, []

        def spy(h):
            points.append(np.array(h, dtype=float).ravel())
            return shift_sum(h)

        curve.shift_sum = spy
        evals.clear()
        got = averaged_pow_modulus(curve, mu, u)
        del curve.shift_sum
        # 253 points of 2 harmonics; the pow_values route evaluates all of
        # its 769 nodes, 1,538 shape points
        assert sum(evals) == 506
        points = np.sort(np.concatenate(points))
        assert not np.any((points[:, None] > flat.starts) & (points[:, None] < flat.ends))
        nodes = []

        def pow_values(t):
            nodes.append(np.array(t, dtype=float).ravel())
            return curve.pow_values(t)

        assert pow_values_average(curve, mu, u, pow_values) == got
        nodes = np.concatenate(nodes)
        on_plateau = (nodes[:, None] >= flat.starts) & (nodes[:, None] < flat.ends)
        assert np.array_equal(points, np.sort(nodes[~on_plateau.any(axis=1)]))

    @pytest.mark.parametrize("u", [0.0, -1.0, np.nan, 2.0 * (1.0 + 1e-9)])
    def test_float_and_array_windows_share_their_input_checks(self, u):
        curve = ModulusCurve(SpectralFunction({3: 1.0}), 2, phi_alpha(1), 2.0)
        calls = []
        curve.shift_sum = lambda h: calls.append(h)
        message = "window length must be positive" if not u > 0 else "outside the precomputed"
        for window in (u, np.array([u])):
            with pytest.raises(ValueError, match=message):
                averaged_pow_modulus(curve, mu1(np.pi), window)
        assert calls == []

    def test_a_window_a_rounding_past_the_curve_is_accepted_by_both_forms(self):
        curve = ModulusCurve(SpectralFunction({3: 1.0}), 2, phi_alpha(1), 2.0)
        u = 2.0 * (1.0 + 1e-13)
        one = averaged_pow_modulus(curve, mu1(np.pi), u)
        assert one == pytest.approx(averaged_pow_modulus(curve, mu1(np.pi), np.array([u]))[0])


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

        for u in (0.3, 1.0, np.pi):
            reused = averaged_pow_modulus(curve, mu, u) ** 0.5
            fresh = averaged_modulus(f, 2, shape, mu, u)
            assert reused == pytest.approx(fresh, rel=1e-9)
