import dataclasses
import gc
import logging
import math
import threading
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, betainc

from spapprox import averaging, jackson
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
from spapprox.psi import PsiSequence, const_multiplier, power, tabulated_psi, tail_sup_info
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
        # theta = 5 integrates two whole periods and a partial cell, all
        # tanh-sinh: 315 nodes
        monkeypatch.setattr(averaging, "DEFAULT_BUDGET", 300)
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
    """Dilated integrals of periodic shapes over many whole periods.

    The references are scipy's quad, split at every kink of the shape and the
    density; they share no code with the nested-cell route.
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
    #: shape points of this window when each theta evaluates all of its cells alone
    DIRECT_POINTS = 110880

    def counted(self, shape):
        seen = []

        def count(t):
            t = np.asarray(t, dtype=float)
            seen.append(t.size)
            return shape.eval(t)

        return dataclasses.replace(shape, eval=count), seen

    def test_window_shape_points_are_pinned(self):
        # alpha p = 1: shape^p is analytic on each side of every cusp, so only
        # the cells at the origin take the 105 tanh-sinh nodes, and every cell
        # at a cusp 2 pi j > 0 takes 15 Gauss-Kronrod nodes.  The partial
        # cells of theta = 1, 2 (both at the origin), the 512 points of the
        # period probe, the one-period pass for m_p and the bound (16
        # Gauss-Kronrod cells), then theta = 3..64 in one pass: 32 whole
        # periods shared by every theta, the first at the origin, and the
        # partial last cells of the 31 odd thetas (an even one ends on a
        # cusp); the whole cell [2 pi, 4 pi] is bisected once
        shape, seen = self.counted(phi_alpha(1))
        inf_quantity(1, shape, 1, mu1(np.pi), k_max=64)
        assert sum(seen) == 2027 == (
            2 * 105 + 512 + 16 * 15 + (105 + 31 * 15 + 31 * 15) + 2 * 15
        )
        assert sum(seen) < self.DIRECT_POINTS / 50

    def test_singular_window_shape_points_are_pinned(self):
        # alpha p = 1/2: every cusp is singular, and every cell at one takes
        # the 105 tanh-sinh nodes: the partial cells of theta = 1, 2, the
        # probe's 512, the one-period pass (2 tanh-sinh cells at the cusps, 14
        # Gauss-Kronrod cells of 15), then 32 whole periods and the partial
        # last cells of the 31 odd thetas
        shape, seen = self.counted(phi_alpha(0.5))
        inf_quantity(1, shape, 1, mu1(np.pi), k_max=64)
        assert sum(seen) == 7757 == 2 * 105 + 512 + (2 * 105 + 14 * 15) + 63 * 105
        assert sum(seen) < self.DIRECT_POINTS / 10

    def test_a_shape_that_breaks_its_declared_period_is_refused(self):
        # the bound that skips dilations reads the period, and its probe
        # refuses the shape
        phi = phi_alpha(1)
        bad = ShapeFunction(
            eval=lambda t: np.minimum(phi.eval(t), np.asarray(t, float) ** 2),
            cap_point=np.pi, sup_value=2.0, breakpoints=phi.breakpoints,
        )
        with pytest.raises(ValueError, match="not periodic"):
            inf_quantity(1, bad, 1.5, mu1(np.pi), k_max=8)

    def test_budget_exhausted_by_whole_periods_names_theta(self, monkeypatch):
        # theta = 19 covers 9 whole periods and one partial cell: 105
        # tanh-sinh nodes at the origin and 9 Gauss-Kronrod cells of 15, 240
        # nodes, though the whole periods are evaluated once for every
        # theta; theta = 18 takes 105 + 8 * 15 = 225
        monkeypatch.setattr(averaging, "DEFAULT_BUDGET", 230)
        with pytest.raises(QuadratureBudgetError, match=r"theta=19\).*budget 230"):
            inf_quantity(1, phi_alpha(1), 1, mu1(np.pi), k_max=64)
        assert dilated(phi_alpha(1), 1, mu1(np.pi), [18.0])[0] > 0

    def test_pruned_window_shape_points_are_pinned(self):
        # alpha p = 2: the two partial cells of stage one (theta = 1, 2, at
        # the origin), the probe's 512, then 16 Gauss-Kronrod cells of 15 for
        # the limit and the bound; the bound skips every theta >= 3
        shape, seen = self.counted(phi_alpha(2))
        inf_quantity(1, shape, 1, mu2(TAU34), k_max=64)
        assert sum(seen) == 962 == 2 * 105 + 512 + 16 * 15
        assert sum(seen) < 2027 / 2

    def test_pruned_singular_window_shape_points_are_pinned(self):
        # alpha p = 1/2: stage one's two cells, the probe's 512, 2 tanh-sinh
        # cells at the cusps and 14 Gauss-Kronrod cells of 15 for the limit
        # and the bound, then theta = 3 alone, on its whole first period and
        # its partial cell past 2 pi; the bound skips every theta >= 4
        shape, seen = self.counted(phi_alpha(0.5))
        inf_quantity(1, shape, 1, mu2(TAU34), k_max=64)
        assert sum(seen) == 1352 == 2 * 105 + 512 + (2 * 105 + 14 * 15) + 2 * 105
        assert sum(seen) < 7757 / 3


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


class TestCuspPastTheEnd:
    """A cusp that rounding puts a few ulps past theta tau still flags the last cell."""

    @pytest.mark.parametrize("lam", [0.25, 0.5])
    def test_cusp_rounded_just_past_tau(self, lam):
        # theta tau = 26 pi, and the cusp 13 (2 pi) rounds one ulp above it;
        # the last cell starts at a density knot, not at a cusp
        theta = 104 / 3
        assert 13 * (2 * np.pi) > theta * TAU34
        table = [(0.0, 1.0), (2.25, 1.5), (TAU34, 0.5)]
        got = dilated(phi_alpha(lam), 1.0, tabulated_density(TAU34, table), [theta])[0]
        want = split_quad(
            lambda x: (2 * abs(math.sin(x / 2))) ** lam, [0.0], 2 * np.pi, theta, TAU34,
            lambda t: float(np.interp(t, *zip(*table))), knots=(2.25,),
        )
        assert got == pytest.approx(want, rel=1e-10)


class TestAnalyticCusps:
    """At integer alpha p the cells at the cusps 2 pi j > 0 take Gauss-Kronrod.

    (2 |sin(x/2)|)^(alpha p) is |x - 2 pi j|^(alpha p) times an analytic
    function, so it is analytic on each side of every cusp; the origin keeps
    tanh-sinh.  The references are scipy's quad split at 2 pi j / theta.
    """

    @pytest.mark.parametrize("theta", [1.0, 3.5, 32.0])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0, 4.0, 8.0])
    @pytest.mark.parametrize("measure", ["mu1(pi)", "mu2(3pi/4)"])
    def test_dilated_integrals_match_split_quad(self, measure, lam, theta):
        mu, tau, density = {
            "mu1(pi)": (mu1(np.pi), np.pi, math.sin),
            "mu2(3pi/4)": (mu2(TAU34), TAU34, lambda t: 1.0),
        }[measure]
        assert not phi_alpha(lam).breakpoints.singular(1.0)
        got = dilated(phi_alpha(lam), 1.0, mu, [theta])[0]
        want = split_quad(
            lambda x: (2 * abs(math.sin(x / 2))) ** lam, [0.0], 2 * np.pi, theta, tau, density,
        )
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0])
    def test_mean_matches_the_zeroth_fourier_coefficient(self, lam):
        # |1 - e^{ix}|^lam has the Fourier coefficient
        # c_0 = Gamma(lam + 1) / Gamma(lam / 2 + 1)^2, with no quadrature
        got, _ = jackson._ShapeIntegrals(phi_alpha(lam), 1.0, mu2(TAU34)).mean
        want = math.gamma(lam + 1) / math.gamma(lam / 2 + 1) ** 2
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


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



def counted(shape):
    """(shape with a counting eval, the list of point counts it was called with)."""
    seen = []

    def count(t):
        t = np.asarray(t, dtype=float)
        seen.append(t.size)
        return shape.eval(t)

    return dataclasses.replace(shape, eval=count), seen


class Unhashable:
    """A callable that cannot be hashed, as a shape's eval or a density."""

    __hash__ = None

    def __init__(self, f):
        self.f = f

    def __call__(self, t):
        return self.f(t)


class TestSharedTriple:
    """Each (shape, p, mu) computes its period integrals, mean, spread and mass once."""

    def test_a_second_window_skips_the_table_and_spread(self):
        # phi_alpha(2) on mu2(3pi/4) reads the spread (see the pruned pin above)
        shape, seen = counted(phi_alpha(2))
        mu = mu2(TAU34)
        shape.period  # the period probe is the shape's own, cached before
        seen.clear()
        first = inf_quantity(1, shape, 1, mu, k_max=64)
        cold = sum(seen)
        seen.clear()
        second = inf_quantity(1, shape, 1, mu, k_max=64)
        warm = sum(seen)
        # the same quantities read on a fresh triple, for their point count
        fresh, fresh_seen = counted(phi_alpha(2))
        fresh.period
        fresh_seen.clear()
        jackson._shape_integrals(fresh, 1.0, mu2(TAU34)).spread
        # alpha p = 2: the period pass is 16 Gauss-Kronrod cells of 15, and the
        # two partial cells of the window start at the origin, in tanh-sinh
        assert cold - warm == sum(fresh_seen) == 16 * 15
        assert warm == 2 * 105
        assert second == first

    def test_a_second_shape_mass_evaluates_nothing(self):
        shape, seen = counted(phi_alpha(1.5))
        mu = mu1(np.pi)
        first = shape_mass(shape, 2, mu)
        seen.clear()
        assert shape_mass(shape, 2.0, mu) == first
        assert sum(seen) == 0

    def test_each_triple_has_its_own_entry(self):
        shape, mu = phi_alpha(2), mu2(TAU34)
        entry = jackson._shape_integrals(shape, 1.0, mu)
        assert jackson._shape_integrals(shape, 1.0, mu) is entry
        others = [
            jackson._shape_integrals(shape, 2.0, mu),
            jackson._shape_integrals(shape, 1.0, mu2(TAU34)),
            jackson._shape_integrals(dataclasses.replace(shape), 1.0, mu),
        ]
        assert all(other is not entry for other in others)
        assert len({id(other) for other in others}) == 3
        # the replaced shape keeps its entry on itself, not on the original
        assert len(shape._integrals) == 3

    def test_unhashable_shape_and_density_share(self):
        shape, seen = counted(phi_alpha(1))
        shape = dataclasses.replace(shape, eval=Unhashable(shape.eval))
        mu = weight_measure(np.pi, density=Unhashable(np.sin), cdf=lambda s: 1.0 - np.cos(s))
        for unhashable in (shape, mu):
            with pytest.raises(TypeError):
                hash(unhashable)
        first = inf_quantity(2, shape, 1.5, mu, k_max=16)
        mass = shape_mass(shape, 1.5, mu)
        seen.clear()
        assert shape_mass(shape, 1.5, mu) == mass
        assert sum(seen) == 0
        assert inf_quantity(2, shape, 1.5, mu, k_max=16) == first
        assert len(shape._integrals) == 1

    def test_entries_die_with_their_shape_and_weight(self):
        shape, mu = phi_alpha(2), mu2(TAU34)
        inf_quantity(1, shape, 1, mu, k_max=64)
        shape_mass(shape, 1, mu)
        refs = weakref.ref(shape), weakref.ref(mu)
        del shape, mu
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_past_the_cap_the_oldest_entry_is_dropped(self, caplog):
        caplog.set_level(logging.DEBUG, logger="spapprox")
        shape = phi_alpha(2)
        mus = [mu2(TAU34) for _ in range(jackson.SHAPE_INTEGRALS_PER_SHAPE + 1)]
        entries = [jackson._shape_integrals(shape, 1.0, mu) for mu in mus]
        kept = list(shape._integrals.values())
        assert len(kept) == jackson.SHAPE_INTEGRALS_PER_SHAPE
        assert all(a is b for a, b in zip(kept, entries[1:], strict=True))
        records = [r for r in caplog.records if r.name == "spapprox.jackson"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert "dropped" in records[0].getMessage()

    def test_threads_share_one_entry(self):
        ns = [1, 2, 3, 4]

        def triple():
            return phi_alpha(2), 1.0, mu2(TAU34)

        serial_shape, p, serial_mu = triple()
        serial = [inf_quantity(n, serial_shape, p, serial_mu, k_max=16 * n) for n in ns]
        serial_mass = shape_mass(serial_shape, p, serial_mu)
        shape, p, mu = triple()
        start = threading.Barrier(8)
        seen = {}

        def work(j):
            start.wait()
            reports = [None] * len(ns)
            for i in np.roll(np.arange(len(ns)), j):
                reports[i] = inf_quantity(ns[i], shape, p, mu, k_max=16 * ns[i])
            entry = jackson._shape_integrals(shape, p, mu)
            seen[j] = (reports, shape_mass(shape, p, mu), entry, entry.mean)

        threads = [threading.Thread(target=work, args=(j,)) for j in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        (kept,) = shape._integrals.values()
        for reports, mass, entry, mean in seen.values():
            assert reports == serial
            assert mass == serial_mass
            assert entry is kept
            assert mean == kept.mean


def simpson_reference(shape, p, mu, theta):
    """The dilated integral by one adaptive Simpson plus the atoms sum."""
    total = 0.0
    if mu.density is not None:
        panels = max(64, int(2 * theta * mu.tau / np.pi) + 1)
        total += adaptive_simpson(
            lambda t: shape.eval(theta * t) ** p * mu.density(t), 0.0, mu.tau,
            tol=1e-12, breakpoints=np.arange(1, panels) * (mu.tau / panels),
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

    def test_undeclared_narrow_bump_is_not_missed(self):
        # one tanh-sinh cell of [0, 4 pi] has no node within 15 widths of the
        # bump at 1.9 pi, so both its rules read 0; the floor of 64 cells does
        def bump(t):
            return np.exp(-0.5 * ((np.abs(np.asarray(t, dtype=float)) - 1.9 * np.pi) / 0.02) ** 2)

        shape = ShapeFunction(eval=bump, cap_point=None, sup_value=1.0)
        got = dilated(shape, 1.0, mu2(np.pi), [4.0])[0]
        assert got == pytest.approx(0.02 * math.sqrt(2 * math.pi) / 4, rel=1e-10)

    @pytest.mark.parametrize("mu", [mu1(np.pi), mu2(TAU34)], ids=["mu1", "mu2"])
    def test_undeclared_shape_meets_the_declared_one(self, mu):
        # without breakpoints each theta starts from its own floor of
        # uniform cells, at most pi / 2 wide
        declared = phi_alpha(1)
        bare = ShapeFunction(eval=declared.eval, cap_point=np.pi, sup_value=2.0)
        thetas = np.arange(1.0, 65.0)
        np.testing.assert_allclose(
            dilated(bare, 1.0, mu, thetas), dilated(declared, 1.0, mu, thetas), rtol=1e-10
        )


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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_verdicts_do_not_depend_on_the_scale_of_f(self, p):
        # the spectra of acceptance criterion 4
        shape, mu = phi_alpha(1), mu1(np.pi)
        report = inf_quantity(2, shape, p, mu, k_max=48)
        rng = np.random.default_rng(67)
        for _ in range(6):
            f = random_sparse_spectrum(rng, 32, 8)
            for r in (0, 1):
                verdicts = {
                    (res.holds, res.holds_plain)
                    for s in (1e-10, 1.0, 1e10)
                    for res in [jackson_bound(s * f, power(r), shape, p, mu, 2, inf_report=report)]
                }
                assert verdicts == {(True, True)}

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_a_cut_bound_is_violated_at_any_scale(self, p):
        # a window infimum 1000^p too large cuts both bounds to 1e-3 of their
        # value, below E_n(f) for this spectrum at every scale
        shape, mu = phi_alpha(1), mu1(np.pi)
        report = inf_quantity(2, shape, p, mu, k_max=48)
        cut = dataclasses.replace(report, value=report.value * 1e3**p)
        for s in (1e-10, 1.0, 1e10):
            f = SpectralFunction({3: s, -5: 0.5j * s})
            res = jackson_bound(f, power(1), shape, p, mu, 2, inf_report=cut)
            assert res.lhs > 0
            assert not res.holds and not res.holds_plain

    def test_tol_is_the_relative_slack_of_both_verdicts(self):
        # the bounds cut to 1e-3 of their value hold again at a slack of
        # lhs / bound - 1, and fail just below it
        shape, mu, p = phi_alpha(1), mu1(np.pi), 2.0
        report = inf_quantity(2, shape, p, mu, k_max=48)
        cut = dataclasses.replace(report, value=report.value * 1e3**p)
        f = SpectralFunction({3: 1.0, -5: 0.5j})
        res = jackson_bound(f, power(1), shape, p, mu, 2, inf_report=cut)
        for bound, name in ((res.bound, "holds"), (res.bound_plain, "holds_plain")):
            slack = res.lhs / bound - 1.0
            for tol, verdict in ((slack * (1 + 1e-9), True), (slack * (1 - 1e-9), False)):
                again = jackson_bound(f, power(1), shape, p, mu, 2, inf_report=cut, tol=tol)
                assert getattr(again, name) is verdict

    def test_tail_supremum_is_scanned_once_per_psi_and_n(self):
        # psi is not declared monotone-even, so its tail supremum is a scan
        # to the horizon: once for all 20 spectra, plus psi_derivative's one
        # evaluation per coefficient
        horizon, n = 3000, 2
        evals = []

        def parity(k):
            evals.append(k)
            return 1.0 / (abs(k) + 1 + (-1) ** k)

        psi = PsiSequence(eval=parity, bound=1.0, horizon=horizon)
        shape, mu = phi_alpha(1), mu1(np.pi)
        report = inf_quantity(n, shape, 1.5, mu, k_max=16)
        rng = np.random.default_rng(62)
        spectra = [random_sparse_spectrum(rng, 16, 4) for _ in range(20)]
        for f in spectra:
            assert jackson_bound(f, psi, shape, 1.5, mu, n=n, inf_report=report).holds
        coefficients = sum(len(f.coeffs) for f in spectra)
        assert len(evals) <= 2 * (horizon - n + 1) + coefficients

    def test_an_unhashable_psi_is_scanned_once_per_n(self):
        class Parity:
            __hash__ = None  # an eq-only callable cannot be hashed

            def __init__(self):
                self.calls = 0

            def __eq__(self, other):
                return self is other

            def __call__(self, k):
                self.calls += 1
                return 1.0 / (abs(k) + (-1) ** k) if k else 0.0

        parity = Parity()
        psi = PsiSequence(eval=parity, bound=1.0, horizon=50)
        first = tail_sup_info(psi, 2)
        assert tail_sup_info(psi, 2) == first
        assert first.value == 0.5 and not first.certified
        assert parity.calls == 2 * (50 - 2 + 1)
        assert tail_sup_info(psi, 4).value == 0.25
        assert parity.calls == 2 * (50 - 2 + 1) + 2 * (50 - 4 + 1)
        # repeated bounds scan no more: psi_derivative evaluates once per coefficient
        shape, mu = phi_alpha(1), mu1(np.pi)
        report = inf_quantity(2, shape, 1.5, mu, k_max=16)
        f = SpectralFunction({3: 1.0, -5: 0.5j})
        parity.calls = 0
        for _ in range(3):
            jackson_bound(f, psi, shape, 1.5, mu, n=2, inf_report=report)
        assert parity.calls == 3 * len(f.coeffs)


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
