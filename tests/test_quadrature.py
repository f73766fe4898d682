import numpy as np
import pytest

from spapprox.quadrature import (
    NonFiniteIntegrandError,
    QuadratureBudgetError,
    adaptive_simpson,
    nested_integrals,
)


@pytest.mark.parametrize(
    "fn,a,b,exact",
    [
        (lambda t: t**2, 0.0, 1.0, 1.0 / 3.0),
        (lambda t: np.sin(t), 0.0, np.pi, 2.0),
        (lambda t: np.exp(-t), 0.0, 5.0, 1.0 - np.exp(-5.0)),
    ],
)
def test_smooth_integrands(fn, a, b, exact):
    assert adaptive_simpson(fn, a, b) == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
def test_weighted_cosine_powers_match_antiderivative(lam):
    # antiderivative of (1-cos t)^lam * sin t is (1-cos t)^(lam+1)/(lam+1)
    val = adaptive_simpson(lambda t: (1.0 - np.cos(t)) ** lam * np.sin(t), 0.0, np.pi)
    assert val == pytest.approx(2.0 ** (lam + 1) / (lam + 1), rel=1e-12)


@pytest.mark.parametrize("k", [3, 17, 128, 384])
def test_oscillatory_closed_form(k):
    tau = 3 * np.pi / 4
    panels = max(64, k)
    val = adaptive_simpson(
        lambda t: 2.0 * (1.0 - np.cos(k * t)), 0.0, tau,
        breakpoints=np.arange(1, panels) * (tau / panels),
    )
    assert val == pytest.approx(2.0 * (tau - np.sin(k * tau) / k), abs=1e-9)


def test_empty_interval_is_zero():
    assert adaptive_simpson(np.sin, 1.0, 1.0) == 0.0


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 1.0, 0.0)


def test_budget_exhaustion_is_an_error():
    # |t|^0.1 has unbounded derivative at 0; a tiny budget must trip
    with pytest.raises(QuadratureBudgetError):
        adaptive_simpson(lambda t: np.abs(t) ** 0.1, 0.0, 1.0, tol=1e-14, budget=200)


def test_non_finite_integrand_aborts_with_diagnostic():
    def bad(t):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(t)

    with pytest.raises(NonFiniteIntegrandError, match="non-finite"):
        adaptive_simpson(bad, 0.0, 1.0)


def simpson_nodes(g, a, b, **kwargs):
    """The value of ``adaptive_simpson`` and the node array of each call of g."""
    calls = []

    def recorded(t):
        calls.append(np.array(t))
        return g(t)

    return adaptive_simpson(recorded, a, b, **kwargs), calls


class TestSimpsonBreakpoints:
    """Breakpoints strictly inside (a, b) are panel edges of the first pass."""

    @staticmethod
    def kinked(t):
        return np.abs(t - 1.0 / 3.0) + np.sin(3.0 * t)

    @pytest.mark.parametrize(
        "points", [(), [0.0], [1.0], [0.0, 1.0], [-0.5, 1.5], np.array([[-1e-300], [2.0]])]
    )
    def test_no_point_inside_leaves_the_nodes_as_they_were(self, points):
        want, want_calls = simpson_nodes(self.kinked, 0.0, 1.0)
        got, got_calls = simpson_nodes(self.kinked, 0.0, 1.0, breakpoints=points)
        assert got == want
        assert len(got_calls) == len(want_calls)
        for x, y in zip(got_calls, want_calls):
            np.testing.assert_array_equal(x, y)

    def test_a_breakpoint_at_the_kink_ends_the_bisection(self):
        # |t - c| with c off the grid of 129 uniform nodes: exact on every
        # panel once c is an edge, otherwise bisected toward c pass after pass
        # (c = 1/3 would not do: Simpson's two rules happen to agree there)
        c = 0.3
        exact = 0.5 * (c**2 + (1.0 - c) ** 2)

        def kink(t):
            return np.abs(t - c)

        seeded, seeded_calls = simpson_nodes(kink, 0.0, 1.0, breakpoints=[c])
        plain, plain_calls = simpson_nodes(kink, 0.0, 1.0)
        assert seeded == pytest.approx(exact, rel=1e-13)
        assert plain == pytest.approx(exact, abs=1e-10)
        # one call for the starting nodes, two per pass
        assert (len(seeded_calls) - 1) // 2 <= 3
        assert (len(plain_calls) - 1) // 2 >= 15
        assert c in seeded_calls[0]

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_a_breakpoint_one_ulp_from_a_uniform_edge_converges(self, side):
        c = np.nextafter(0.25, 0.25 + side)  # 0.25 = 16/64 is a uniform panel edge
        exact = 0.5 * (c**2 + (1.0 - c) ** 2)
        val, calls = simpson_nodes(lambda t: np.abs(t - c), 0.0, 1.0, breakpoints=[c])
        assert val == pytest.approx(exact, rel=1e-13)
        assert (len(calls) - 1) // 2 <= 3


def unit(t, i):
    return 1.0


class TestSimpsonIntegrals:
    """integral_a^b[i] F(t) w(t, i) dt by nested_integrals, on cells shared by every i."""

    # F has a kink at 0.9; the ends include a repeat and one below the kink
    KS = np.array([0.0, 1.0, 3.0, 0.5])
    B = np.array([1.0, 2.5, 0.3, 2.5])

    @staticmethod
    def F(t):
        return np.cos(7.0 * t) + np.abs(t - 0.9) ** 0.7

    def w(self, t, i):
        return np.exp(-self.KS[i] * t)

    def test_each_integral_matches_its_own_adaptive_simpson(self):
        seen = []

        def counted(t):
            seen.append(np.asarray(t).copy())
            return self.F(t)

        # the ends are listed, so that every integral shares every cell
        batch = nested_integrals(counted, self.w, -1.0, self.B, breakpoints=self.B)
        alone_points = 0
        for i in range(self.B.size):
            points = []

            def one(t, i=i):
                points.append(np.size(t))
                return self.F(t) * np.exp(-self.KS[i] * t)

            alone = adaptive_simpson(one, -1.0, self.B[i])
            # different rules: Simpson is off by up to 5.5e-13 at the kink
            assert batch[i] == pytest.approx(alone, rel=1e-12, abs=1e-12)
            alone_points += sum(points)
        shared = np.concatenate(seen)
        assert np.unique(shared).size == shared.size  # no node is evaluated twice
        assert shared.size < alone_points

    def test_zero_length_integral_costs_nothing(self):
        owners = []

        def w(t, i):
            owners.append(np.unique(i).tolist())
            return np.ones(np.shape(t))

        vals = nested_integrals(np.sin, w, 0.0, [np.pi, 0.0])
        assert vals[0] == pytest.approx(2.0, abs=1e-10)
        assert vals[1] == 0.0
        assert all(o == [0] for o in owners)

    def test_inverted_interval_names_its_integral(self):
        with pytest.raises(ValueError, match="integral 1: inverted"):
            nested_integrals(lambda t: t, unit, 0.0, [1.0, -0.5])

    def test_budget_error_names_its_integral(self):
        # a parabola below 0.6, exact on the cell [0, 0.5]; an infinite-slope
        # cusp at 0.7, inside the second interval only
        def F(t):
            return np.where(t < 0.6, t**2, np.abs(t - 0.7) ** 0.1)

        with pytest.raises(QuadratureBudgetError, match="window 1: evaluation budget 300"):
            nested_integrals(
                F, unit, 0.0, [0.5, 1.0], tol=1e-14, budget=300,
                context=lambda i: f"window {i}",
            )
        one = nested_integrals(F, unit, 0.0, [0.5], tol=1e-14, budget=300)
        assert one[0] == pytest.approx(0.5**3 / 3.0, rel=1e-14)

    def test_non_finite_value_names_its_integral(self):
        # a pole of w at the midpoint node 0.5 of the cell [0, 1] in integral
        # 1; a pole of F at the node 0.75, the midpoint of the cell [0.5, 1]
        # that only the interval [0, 1] holds
        def w(t, i):
            with np.errstate(divide="ignore"):
                return np.where(i == 1, 1.0 / (t - 0.5), 1.0)

        with pytest.raises(NonFiniteIntegrandError, match="integral 1: non-finite"):
            nested_integrals(np.cos, w, 0.0, [1.0, 1.0])

        def F(t):
            with np.errstate(divide="ignore"):
                return 1.0 / (t - 0.75)

        with pytest.raises(NonFiniteIntegrandError, match=r"integral 1: .* t=\[0\.75"):
            nested_integrals(F, unit, 0.0, [0.5, 1.0])


class TestNestedIntegralCells:
    """Cells of nested_integrals: the rule pair, the singular ends, the support."""

    def test_one_cell_is_exact_for_degree_13(self):
        # the Gauss rule of the pair is exact to degree 13, the Kronrod rule to 23
        sizes = []

        def F(t):
            sizes.append(np.size(t))
            return 14.0 * t**13

        vals = nested_integrals(F, unit, 0.0, [1.0])
        assert vals[0] == pytest.approx(1.0, rel=1e-14)
        assert sizes == [15]  # one Gauss-Kronrod cell, accepted at once

    def test_singular_end_gets_tanh_sinh(self):
        # t^0.1 has an infinite slope at 0: bisection alone never resolves it
        def F(t):
            return t**0.1

        vals = nested_integrals(F, unit, 0.0, [0.25, 1.0], singular=[0.0])
        np.testing.assert_allclose(vals, [0.25**1.1 / 1.1, 1.0 / 1.1], rtol=1e-12)
        with pytest.raises(QuadratureBudgetError, match="refinement depth"):
            nested_integrals(F, unit, 0.0, [1.0])

    def test_interior_singular_point_cuts_the_cells(self):
        third = 1.0 / 3.0
        vals = nested_integrals(
            lambda t: np.abs(t - third) ** 0.1, unit, 0.0, [1.0], singular=[third]
        )
        assert vals[0] == pytest.approx((third**1.1 + (2.0 * third) ** 1.1) / 1.1, rel=1e-12)

    def test_support_leaves_out_the_gaps(self):
        support = (np.array([0.0, 0.5]), np.array([0.2, 0.7]))
        vals = nested_integrals(
            lambda t: np.ones(np.shape(t)), unit, 0.0, [0.1, 0.6, 1.0], support=support,
        )
        np.testing.assert_allclose(vals, [0.1, 0.3, 0.4], rtol=1e-14)

    def test_breakpoints_cut_a_kink(self):
        sizes = []

        def F(t):
            sizes.append(np.size(t))
            return np.abs(t - 0.3)

        vals = nested_integrals(F, unit, 0.0, [1.0], breakpoints=[0.3])
        assert vals[0] == pytest.approx(0.5 * (0.3**2 + 0.7**2), rel=1e-14)
        assert sizes == [30]


class TestNestedTanhSinhCases:
    """The cases of the retired tanh-sinh panel integrator, on nested_integrals."""

    def test_integral_index_reaches_the_weight(self):
        vals = nested_integrals(
            lambda t: np.ones(np.shape(t)), lambda t, i: t**i, 0.0, [1.0, 1.0, 1.0]
        )
        assert vals == pytest.approx([1.0, 1 / 2, 1 / 3], rel=1e-14)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.5])
    def test_algebraic_end_singularity(self, lam):
        # sqrt-type cusp at both ends: int_0^1 (t (1 - t))^lam = B(lam+1, lam+1)
        from scipy.special import beta

        vals = nested_integrals(
            lambda t: (t * (1.0 - t)) ** lam, unit, 0.0, [1.0], singular=[0.0, 1.0]
        )
        assert vals[0] == pytest.approx(beta(lam + 1, lam + 1), rel=1e-13)

    def test_interior_kink_is_bisected(self):
        # |t - 1/3| on [0, 1] = 1/18 + 2/9 = 5/18; the kink is inside the cell
        vals = nested_integrals(lambda t: np.abs(t - 1.0 / 3.0), unit, 0.0, [1.0])
        assert vals[0] == pytest.approx(5.0 / 18.0, abs=1e-10)

    @pytest.mark.parametrize("singular", [(), (0.0, 1.0)], ids=["gauss-kronrod", "tanh-sinh"])
    def test_non_finite_integrand_aborts_with_diagnostic(self, singular):
        with pytest.raises(NonFiniteIntegrandError, match="non-finite"):
            nested_integrals(
                lambda t: np.where(t > 0.5, np.nan, t), unit, 0.0, [1.0], singular=singular
            )

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            nested_integrals(lambda t: t, unit, 1.0, [0.0])

    def test_empty_and_zero_width(self):
        assert nested_integrals(lambda t: t, unit, 0.0, []).size == 0
        assert nested_integrals(lambda t: t, unit, 0.5, [0.5])[0] == 0.0


def first_nodes(b, **kwargs):
    """The values of nested_integrals of cos, and the nodes of its first call of F."""
    calls = []

    def F(t):
        calls.append(np.array(t))
        return np.cos(t)

    return nested_integrals(F, unit, 0.0, b, **kwargs), calls[0]


class TestPrivateEnds:
    """An end cuts only the last cell of its own integrals unless it is a breakpoint."""

    def test_an_unlisted_end_cuts_no_other_cell(self):
        b = [0.3, 0.6, 1.0]
        vals, nodes = first_nodes(b, breakpoints=[0.5])
        np.testing.assert_allclose(vals, np.sin(b), rtol=1e-14)
        # cells [0, 0.5], and the partial cells [0, 0.3], [0.5, 0.6], [0.5, 1]
        assert nodes.size == 4 * 15
        assert 0.75 in nodes and 0.8 not in nodes

    def test_a_listed_end_cuts_every_cell(self):
        b = [0.3, 0.6, 1.0]
        vals, nodes = first_nodes(b, breakpoints=[0.5, *b])
        np.testing.assert_allclose(vals, np.sin(b), rtol=1e-14)
        assert nodes.size == 4 * 15
        assert 0.8 in nodes and 0.75 not in nodes

    def test_equal_ends_share_their_partial_cell(self):
        vals, nodes = first_nodes([0.3, 1.0, 0.3])
        np.testing.assert_allclose(vals, np.sin([0.3, 1.0, 0.3]), rtol=1e-14)
        assert nodes.size == 2 * 15


class TestSlivers:
    """Cuts and ends that rounding puts a few ulps apart leave no sliver cell."""

    @staticmethod
    def ulps(x, n):
        for _ in range(abs(n)):
            x = np.nextafter(x, np.inf if n > 0 else -np.inf)
        return x

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_a_cut_just_past_another_is_dropped_and_keeps_its_flag(self, n):
        # the kink of |t - c|^0.25 is declared twice, the second copy n ulps
        # past the first and as the singular one
        c = 0.7
        vals = nested_integrals(
            lambda t: np.abs(t - c) ** 0.25, unit, 0.0, [2.0],
            breakpoints=[c], singular=[self.ulps(c, n)],
        )
        assert vals[0] == pytest.approx((c**1.25 + (2.0 - c) ** 1.25) / 1.25, rel=1e-12)

    @pytest.mark.parametrize("n", [-4, -2, -1, 1, 2, 4])
    def test_an_end_a_few_ulps_from_a_singular_cut(self, n):
        # an end just past the kink drops its sliver; one just short of it
        # ends with the kink's tanh-sinh rule
        c = 0.7
        end = self.ulps(c, n)
        vals = nested_integrals(
            lambda t: np.abs(t - c) ** 0.25, unit, 0.0, [end, 2.0], singular=[c],
        )
        assert vals[0] == pytest.approx(c**1.25 / 1.25, rel=1e-12)
        assert vals[1] == pytest.approx((c**1.25 + (2.0 - c) ** 1.25) / 1.25, rel=1e-12)
