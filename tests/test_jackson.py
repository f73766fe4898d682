import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, betainc

from spapprox import jackson
from spapprox.averaging import atom_measure, mu1, mu2, tabulated_density, weight_measure
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
from spapprox.psi import const_multiplier, power, tabulated_psi
from spapprox.quadrature import QuadratureBudgetError, adaptive_simpson
from spapprox.sampling import random_sparse_spectrum
from spapprox.smoothness import Breakpoints, ShapeFunction, phi_alpha, tabulated_shape
from spapprox.spectral import SpectralFunction, best_approximation

TAU34 = 3 * np.pi / 4
LAMS = [0.25, 0.5, 1.0, 1.5, 2.0, 4.0]


def dilated(shape, p, mu, thetas):
    return jackson._dilated_shape_integrals(shape, p, mu, np.asarray(thetas, dtype=float))


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

    def test_tiny_budget_raises_with_theta(self, monkeypatch):
        monkeypatch.setattr(jackson, "DEFAULT_BUDGET", 300)
        with pytest.raises(QuadratureBudgetError, match=r"theta=\d+.*budget 300"):
            inf_quantity(1, phi_alpha(0.25), 1, mu1(np.pi), k_max=40)


def split_quad(power_of_shape, kinks, period, theta, tau, density, knots=(), atoms=()):
    """int_0^tau F(theta t) density(t) dt + sum m F(theta s), F = shape^p.

    One quad call per piece between the shape's kinks (the residues ``kinks``
    repeated every ``period``, divided by theta) and the density's ``knots``.
    """
    reps = np.arange(int(theta * tau / period) + 2)
    cusps = (np.add.outer(reps * period, kinks).ravel()) / theta
    edges = np.unique([0.0, tau, *cusps[(cusps > 0) & (cusps < tau)], *knots])
    total = sum(
        quad(lambda t: power_of_shape(theta * t) * density(t),
             a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )
    return total + sum(m * power_of_shape(theta * s) for s, m in atoms)


def tent(x):
    """The 2 pi-periodic tent: the distance from x to the nearest 2 pi j."""
    return np.abs(np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi)


TENT = ShapeFunction(
    eval=tent, cap_point=np.pi, sup_value=np.pi, label="tent",
    breakpoints=Breakpoints(points=(0.0, np.pi), period=2 * np.pi),
)
#: A density with knots inside a period, and one with atoms beside it.
KNOTTED = [(0.0, 0.0), (0.7, 1.3), (1.9, 0.4), (np.pi, 1.0)]
ATOMS = [(0.4, 1.0), (1.7, 0.5), (np.pi, 0.25)]
TABLE_MEASURES = {
    "mu1(pi)": (lambda: mu1(np.pi), np.pi, math.sin, (), ()),
    "mu2(pi/2)": (lambda: mu2(np.pi / 2), np.pi / 2, lambda t: 1.0, (), ()),
    "mu2(3pi/4)": (lambda: mu2(TAU34), TAU34, lambda t: 1.0, (), ()),
    "mu2(3pi)": (lambda: mu2(3 * np.pi), 3 * np.pi, lambda t: 1.0, (), ()),
    "tabulated": (
        lambda: tabulated_density(np.pi, KNOTTED), np.pi,
        lambda t: float(np.interp(t, *zip(*KNOTTED))), (0.7, 1.9), (),
    ),
    "atoms": (
        lambda: weight_measure(np.pi, density=np.sin, atoms=ATOMS,
                               cdf=lambda s: 1.0 - np.cos(s)),
        np.pi, math.sin, (), ATOMS,
    ),
}
TABLE_THETAS = [1.0, 2.0, 2.75, 7.5, 17.0, 64.0]


class TestPeriodTable:
    """Panels spanning a whole gap of a periodic shape use one table of shape^p.

    The references are scipy's quad, split at every kink of the shape and the
    density; they share no code with the tanh-sinh route.
    """

    @pytest.mark.parametrize("measure", list(TABLE_MEASURES))
    @pytest.mark.parametrize("lam", LAMS)
    def test_phi_alpha_matches_split_quad(self, lam, measure):
        build, tau, density, knots, atoms = TABLE_MEASURES[measure]
        p = 1.5
        got = dilated(phi_alpha(lam / p), p, build(), TABLE_THETAS)
        for value, theta in zip(got, TABLE_THETAS):
            want = split_quad(
                lambda x: (2 * abs(math.sin(x / 2))) ** lam, [0.0], 2 * np.pi,
                theta, tau, density, knots, atoms,
            )
            assert value == pytest.approx(want, rel=1e-10), theta

    @pytest.mark.parametrize("measure", list(TABLE_MEASURES))
    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_tent_with_two_residues_matches_split_quad(self, p, measure):
        build, tau, density, knots, atoms = TABLE_MEASURES[measure]
        got = dilated(TENT, p, build(), TABLE_THETAS)
        for value, theta in zip(got, TABLE_THETAS):
            want = split_quad(
                lambda x: float(tent(x)) ** p, [0.0, np.pi], 2 * np.pi,
                theta, tau, density, knots, atoms,
            )
            assert value == pytest.approx(want, rel=1e-10), theta


class TestPeriodTableWork:
    #: shape points of this window when every panel evaluates the shape directly
    DIRECT_POINTS = 110880

    def counted(self, shape):
        seen = []

        def count(t):
            t = np.asarray(t, dtype=float)
            seen.append(t.size)
            return shape.eval(t)

        return dataclasses.replace(shape, eval=count), seen

    def test_window_shape_points_are_pinned(self):
        # the 512 points of the period probe, one table of 105 nodes, then
        # the partial last panel of each of the 64 thetas; every
        # whole-period panel is served from the table
        shape, seen = self.counted(phi_alpha(1))
        inf_quantity(1, shape, 1, mu1(np.pi), k_max=64)
        assert sum(seen) == 7337 == 512 + 105 * 65
        assert sum(seen) < self.DIRECT_POINTS / 10

    def test_a_shape_that_breaks_its_declared_period_is_refused(self):
        phi = phi_alpha(1)
        bad = ShapeFunction(
            eval=lambda t: np.minimum(phi.eval(t), np.asarray(t, float) ** 2),
            cap_point=np.pi, sup_value=2.0, breakpoints=phi.breakpoints,
        )
        with pytest.raises(ValueError, match="not periodic"):
            dilated(bad, 1.5, mu1(np.pi), [3.0])

    def test_budget_exhausted_by_whole_periods_names_theta(self, monkeypatch):
        # theta = 19 has 9 whole periods and one partial panel: 1050 nodes,
        # of which only the 105 of the partial panel evaluate the shape
        monkeypatch.setattr(jackson, "DEFAULT_BUDGET", 1000)
        with pytest.raises(QuadratureBudgetError, match=r"theta=19\).*budget 1000"):
            inf_quantity(1, phi_alpha(1), 1, mu1(np.pi), k_max=64)
        assert dilated(phi_alpha(1), 1, mu1(np.pi), [18.0])[0] > 0

    def test_pruned_window_shape_points_are_pinned(self):
        # the probe's 512, one table of 105 for the limit, the two partial
        # panels of stage one (theta = 1, 2), then 2 tanh-sinh cells at the
        # cusps and 14 Gauss-Kronrod cells of 15 for the bound; the bound
        # skips every theta >= 3
        shape, seen = self.counted(phi_alpha(2))
        inf_quantity(1, shape, 1, mu2(TAU34), k_max=64)
        assert sum(seen) == 1247 == 512 + 105 + 2 * 105 + 2 * 105 + 14 * 15
        assert sum(seen) < 7337 / 3


class TestSliverPanel:
    """A kink that rounding puts a few ulps from another panel edge ends no panel.

    The references are scipy's quad split at the kinks; none goes through
    inf_quantity, whose bound would skip these dilations.
    """

    @pytest.mark.parametrize("lam", [0.25, 0.5])
    def test_cusp_rounded_just_inside_tau(self, lam):
        # theta tau = 194 pi, and the cusp 97 (2 pi / theta) rounds below tau
        theta = 776 / 3
        got = dilated(phi_alpha(lam), 1.0, mu2(TAU34), [theta])[0]
        want = split_quad(
            lambda x: (2 * abs(math.sin(x / 2))) ** lam, [0.0], 2 * np.pi,
            theta, TAU34, lambda t: 1.0,
        )
        assert got == pytest.approx(want, rel=1e-10)

    # quad warns on the reference's own sliver between the cusp and the knot
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
    def test_cusp_a_few_ulps_from_a_density_knot(self, ulps):
        theta = 7.5
        knot = 3 * 2 * np.pi / theta
        for _ in range(abs(ulps)):
            knot = np.nextafter(knot, np.inf if ulps > 0 else -np.inf)
        table = [(0.0, 0.2), (knot, 1.3), (np.pi, 0.5)]
        got = dilated(phi_alpha(0.25), 1.0, tabulated_density(np.pi, table), [theta])[0]
        want = split_quad(
            lambda x: (2 * abs(math.sin(x / 2))) ** 0.25, [0.0], 2 * np.pi, theta, np.pi,
            lambda t: float(np.interp(t, *zip(*table))), knots=(knot,),
        )
        assert got == pytest.approx(want, rel=1e-10)


def phi_mean(lam):
    """The mean of (2 |sin(x/2)|)^lam over a period, in closed form."""
    return 2**lam * math.gamma((lam + 1) / 2) / (math.sqrt(math.pi) * math.gamma(lam / 2 + 1))


#: Periodic shapes with the closed-form mean of shape^1 over a period.
BOUND_SHAPES = {
    **{f"phi_alpha({lam})": (lambda lam=lam: phi_alpha(lam), phi_mean(lam))
       for lam in (0.25, 0.5, 1.0, 2.0, 4.0)},
    "tent": (lambda: TENT, np.pi / 2),
}
BOUND_MEASURES = {
    "mu1(pi)": lambda: mu1(np.pi),
    "mu1(pi/3)": lambda: mu1(np.pi / 3),
    "mu2(pi/2)": lambda: mu2(np.pi / 2),
    "mu2(3pi/4)": lambda: mu2(TAU34),
    "tabulated": lambda: tabulated_density(np.pi, KNOTTED),
}
BOUND_KS = np.unique(np.concatenate([np.arange(1, 257), 2.0 ** np.arange(13)]))


class TestDilationBound:
    """I(k) approaches L = m_p (density mass) within C / k, C = sup|G| (|rho(tau)| + TV)."""

    @pytest.mark.parametrize("measure", list(BOUND_MEASURES))
    @pytest.mark.parametrize("shape", list(BOUND_SHAPES))
    def test_limit_matches_the_closed_mean(self, shape, measure):
        build, mean = BOUND_SHAPES[shape]
        mu = BOUND_MEASURES[measure]()
        got, err = jackson._ShapeIntegrals(build(), 1.0, mu).mean
        assert got * mu.total_mass == pytest.approx(mean * mu.total_mass, rel=1e-12)
        assert err <= 1e-10

    @pytest.mark.parametrize("measure", list(BOUND_MEASURES))
    @pytest.mark.parametrize("shape", list(BOUND_SHAPES))
    def test_integrals_approach_the_limit_within_c_over_k(self, shape, measure):
        build, mean = BOUND_SHAPES[shape]
        mu = BOUND_MEASURES[measure]()
        values = dilated(build(), 1.0, mu, BOUND_KS)
        spread = jackson._ShapeIntegrals(build(), 1.0, mu).spread
        assert np.all(BOUND_KS * np.abs(values - mean * mu.total_mass) <= spread)


def window_report(n, shape, p, mu, k_max):
    """(value, argmin_k, attained_at_n) with every dilation of the window integrated."""
    values = dilated(shape, p, mu, np.arange(n, k_max + 1) / n)
    vmin = float(values.min())
    argmin = n + int(np.argmax(values <= vmin * (1.0 + jackson.ARGMIN_REL_TOL)))
    label = "horizon" if argmin > max(n, k_max // 2) else argmin
    return vmin, label, argmin == n


#: Unit density on [0, 0.98 pi] plus two atoms, its variation declared.  The
#: atom at the origin adds mass but nothing to any dilated integral, so L
#: must count the density's mass alone.
LINEAR_WITH_ATOMS = dataclasses.replace(
    weight_measure(
        0.98 * np.pi, density=lambda t: np.ones_like(np.asarray(t, float)),
        atoms=[(0.0, 5.0), (0.05, 0.05)], cdf=lambda s: np.array(s, dtype=float),
    ),
    variation=1.0,
)
BARE = weight_measure(np.pi / 2, density=lambda t: 1.0 + np.asarray(t, float) ** 2)
STEPS = tabulated_shape(
    [(0.0, 0.0), (0.5, 0.8), (1.3, 1.0), (2.0, 1.7), (np.pi, 2.0)], cap_point=np.pi, sup_value=2.0,
)
PRUNE_CASES = {
    "tie lam=2 mu1(pi)": (lambda: phi_alpha(2), lambda: mu1(np.pi)),
    "lam=2 mu2(3pi/4)": (lambda: phi_alpha(2), lambda: mu2(TAU34)),
    # I(theta) = 2 tau - 2 sin(theta tau) / theta dips lowest at theta = 8/3
    # for n = 3, past the first pass, and the bound still skips theta > 22
    "minimum past 2n": (lambda: phi_alpha(2), lambda: mu2(0.98 * np.pi)),
    "lam=0.5 mu2(pi/2)": (lambda: phi_alpha(0.5), lambda: mu2(np.pi / 2)),
    "lam=4 mu1(pi/3)": (lambda: phi_alpha(4), lambda: mu1(np.pi / 3)),
    "tent tabulated": (lambda: TENT, lambda: tabulated_density(np.pi, KNOTTED)),
    "atoms": (lambda: phi_alpha(2), lambda: LINEAR_WITH_ATOMS),
    "tabulated shape": (lambda: STEPS, lambda: mu2(TAU34)),
    "bare density": (lambda: phi_alpha(2), lambda: BARE),
}


class TestPrunedWindow:
    """inf_quantity reports what integrating the whole window reports."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("window", ["n", "n+1", "2n", "64n"])
    @pytest.mark.parametrize("case", list(PRUNE_CASES))
    def test_report_is_that_of_the_whole_window(self, case, window, n):
        shape, mu = (build() for build in PRUNE_CASES[case])
        k_max = {"n": n, "n+1": n + 1, "2n": 2 * n, "64n": 64 * n}[window]
        report = inf_quantity(n, shape, 1, mu, k_max=k_max)
        value, label, attained = window_report(n, shape, 1, mu, k_max)
        assert report.value == pytest.approx(value, rel=1e-13)
        assert (report.argmin_k, report.attained_at_n) == (label, attained)

    @pytest.mark.parametrize("case", ["atoms only", "tabulated shape", "bare density"])
    def test_undeclared_cases_reach_every_dilation(self, case):
        shape, mu = {
            "atoms only": (phi_alpha(2), atom_measure(np.pi, ATOMS)),
            "tabulated shape": (STEPS, mu2(TAU34)),
            "bare density": (phi_alpha(2), BARE),
        }[case]
        thetas = np.arange(3.0, 65.0)
        assert jackson._ShapeIntegrals(shape, 1.0, mu).reach(thetas, 0.0) == thetas.size

    @pytest.mark.parametrize("case", ["lam=2 mu2(3pi/4)", "minimum past 2n", "atoms"])
    def test_declared_cases_skip_the_far_dilations(self, case):
        shape, mu = (build() for build in PRUNE_CASES[case])
        thetas = np.arange(3.0, 65.0)
        best = float(dilated(shape, 1.0, mu, [1.0, 2.0]).min())
        assert jackson._ShapeIntegrals(shape, 1.0, mu).reach(thetas, best) < thetas.size


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

    @pytest.mark.parametrize("mu", [mu1(np.pi), mu2(TAU34)], ids=["mu1", "mu2"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_constant_spectrum_has_zero_bounds(self, mu, p):
        # power:1 annihilates the constant, so the roughened spectrum is empty
        # and the bounds take no shape evaluation
        shape = phi_alpha(1)
        report = inf_quantity(2, shape, p, mu, k_max=16)
        evals = []
        counting = dataclasses.replace(shape, eval=lambda t: evals.append(t) or shape.eval(t))
        f = SpectralFunction({0: 2.0 - 1j})
        res = jackson_bound(f, power(1), counting, p, mu, n=2, inf_report=report)
        assert res.lhs == res.bound == res.bound_plain == 0.0
        assert res.holds and res.holds_plain
        assert evals == []

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

    @pytest.mark.parametrize("certify", [sharp_constant, sharpness_certificate])
    def test_zero_tail_supremum_raises(self, certify):
        # psi = 0 annihilates the extremal's roughening, which leaves no ratio to attain
        with pytest.raises(SharpnessNotCertifiedError, match="tail supremum .* is 0"):
            certify(phi_alpha(2), 1, mu1(np.pi), const_multiplier(0), 1, k_max=4)


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


class TestNonFiniteAtAnAtom:
    """A shape infinite at a dilated atom is an error, not a value."""

    @staticmethod
    def shape():
        def _eval(t):
            t = np.abs(np.asarray(t, dtype=float))
            return np.where(t == 1.0, np.inf, 2.0 * np.abs(np.sin(0.5 * t)))

        return ShapeFunction(eval=_eval, cap_point=np.pi, sup_value=2.0)

    MU = atom_measure(2.0, [(1.0, 1.0), (1.5, 0.5)])

    def test_shape_mass_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            shape_mass(self.shape(), 1.0, self.MU)

    def test_inf_quantity_raises(self):
        # theta = 1 meets the pole; the other dilations are finite
        with pytest.raises(ValueError, match="non-finite"):
            inf_quantity(1, self.shape(), 1.0, self.MU, k_max=4)
