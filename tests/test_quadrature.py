import numpy as np
import pytest

from spapprox.quadrature import (
    NonFiniteIntegrandError,
    QuadratureBudgetError,
    adaptive_simpson,
    tanh_sinh_panels,
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
    val = adaptive_simpson(
        lambda t: 2.0 * (1.0 - np.cos(k * t)), 0.0, tau, initial_panels=max(64, k)
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


class TestTanhSinhPanels:
    def test_many_integrals_in_one_call(self):
        # integral i is sin over [0, pi] split into i + 1 equal panels
        lefts, rights, owners = [], [], []
        for i in range(4):
            edges = np.linspace(0.0, np.pi, i + 2)
            lefts += edges[:-1].tolist()
            rights += edges[1:].tolist()
            owners += [i] * (i + 1)
        vals = tanh_sinh_panels(lambda t, i: np.sin(t), lefts, rights, owners)
        assert vals == pytest.approx([2.0] * 4, rel=1e-14)

    def test_owner_reaches_the_integrand(self):
        vals = tanh_sinh_panels(
            lambda t, i: t ** i, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0, 1, 2]
        )
        assert vals == pytest.approx([1.0, 1 / 2, 1 / 3], rel=1e-14)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.5])
    def test_algebraic_end_singularity(self, lam):
        # sqrt-type cusp at both ends: int_0^1 (t (1 - t))^lam = B(lam+1, lam+1)
        from scipy.special import beta

        val = tanh_sinh_panels(lambda t, i: (t * (1.0 - t)) ** lam, [0.0], [1.0], [0])
        assert val[0] == pytest.approx(beta(lam + 1, lam + 1), rel=1e-13)

    def test_interior_kink_is_bisected(self):
        # |t - 1/3| on [0, 1] = 1/18 + 2/9 = 5/18; the kink is inside the panel
        val = tanh_sinh_panels(lambda t, i: np.abs(t - 1.0 / 3.0), [0.0], [1.0], [0])
        assert val[0] == pytest.approx(5.0 / 18.0, abs=1e-10)

    def test_budget_exhaustion_names_the_integral(self):
        # integral 0 is smooth and done in one pass; integral 1 keeps refining
        with pytest.raises(QuadratureBudgetError, match="integral 1"):
            tanh_sinh_panels(
                lambda t, i: np.where(i == 1, np.abs(t - 1.0 / 3.0) ** 0.1, t),
                [0.0, 0.0], [1.0, 1.0], [0, 1], budget=400,
                context=lambda i: f"integral {i}",
            )

    def test_non_finite_integrand_aborts_with_diagnostic(self):
        with pytest.raises(NonFiniteIntegrandError, match="non-finite"):
            tanh_sinh_panels(lambda t, i: np.where(t > 0.5, np.nan, t), [0.0], [1.0], [0])

    def test_inverted_panel_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            tanh_sinh_panels(lambda t, i: t, [1.0], [0.0], [0])

    def test_empty_and_zero_width(self):
        assert tanh_sinh_panels(lambda t, i: t, [], [], []).size == 0
        assert tanh_sinh_panels(lambda t, i: t, [0.5], [0.5], [0])[0] == 0.0

