"""Sharp direct estimates: tail norms bounded by averaged moduli.

The central quantity is the windowed infimum over integer dilations k >= n
of the weighted shape integral

    I(n) = min_k  integral_0^tau shape(k t / n)^p dmu(t).

When that infimum equals the undilated integral, the direct estimate

    E_n(f)  <=  (mass / I(n))^(1/p) * tail_sup(psi, n) * averaged modulus

is attained (up to the stated tolerances) by an explicit two-harmonic
extremal, and the attained ratio is the sharp constant.

For a periodic shape the dilated integrals tend to L = m_p (density mass),
m_p the mean of shape^p over a period, and stay within C n / k of it, C
from the shape's periodic antiderivative and the density's variation.  So
:func:`inf_quantity` integrates k in [n, 2n] first and skips every larger k
whose lower bound L - C n / k already lies above that minimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .averaging import (
    WeightMeasure,
    averaged_modulus,
    averaged_pow_modulus,
)
from .psi import PsiSequence, psi_derivative, tail_sup_info
from .quadrature import (  # noqa: F401  adaptive_simpson stays importable from here
    _TS_WEIGHTS,
    DEFAULT_BUDGET,
    _accepted_error,
    _panel_nodes,
    _spread,
    adaptive_simpson,
    nested_integrals,
    tanh_sinh_panels,
)
from .smoothness import ModulusCurve, ShapeFunction
from .spectral import SpectralFunction, as_exponent, best_approximation

#: Relative slack for deciding the integer argmin and ties toward smaller k.
ARGMIN_REL_TOL = 1e-9
#: Relative tolerance of the sharpness (equivalence) condition.
EQUIV_REL_TOL = 1e-7
#: A breakpoint this many ulps of tau or fewer from the panel edge before it,
#: or below tau, ends no panel.
SLIVER_ULPS = 4
#: Cells per piece of a period in the bound of :attr:`_ShapeIntegrals.spread`.
SPREAD_CELLS = 16


class SharpnessNotCertifiedError(RuntimeError):
    """A sharp-constant precondition failed; only the inequality holds."""


def default_k_max(n: int) -> int:
    return 64 * n + 1024


def shape_mass(shape: ShapeFunction, p, mu: WeightMeasure) -> float:
    """integral_0^tau shape(t)^p dmu(t): the dilated integral at theta = 1."""
    return float(_dilated_shape_integrals(shape, as_exponent(p), mu, np.ones(1))[0])


def _split_panels(tags, points, numbers, tau: float, count: int):
    """Panels of ``count`` integrals over [0, tau], split at tagged points.

    ``points[j]`` is a breakpoint of integral ``tags[j]`` and ``numbers[j]``
    its number in the shape's periodic breakpoint set (-1 for none, see
    :meth:`Breakpoints.numbered`).  Points outside (0, tau) are dropped, and
    so is a point within :data:`SLIVER_ULPS` ulps of tau below tau or above
    the point before it (or the origin): rounding moves a kink there, as a
    cusp at tau when theta tau is a whole number of periods, or a cusp onto
    a density knot, and the sliver of a panel it would leave has nodes that
    collapse onto its two ends, where its two rules never agree.
    Returns (left, right, owner) for :func:`tanh_sinh_panels` and the
    numbers of each panel's two ends, the origin counting as number 0: it is
    when 0 is declared, and otherwise the first point inside is number 0, so
    no panel from the origin spans a gap.
    """
    keep = (points > 0.0) & (points < tau)
    order = np.lexsort((points[keep], tags[keep]))
    tags, points, numbers = tags[keep][order], points[keep][order], numbers[keep][order]
    before = np.concatenate([[0.0], points[:-1]])
    before[np.flatnonzero(np.diff(tags)) + 1] = 0.0
    sliver = SLIVER_ULPS * np.spacing(tau)
    keep = (points - before > sliver) & (points < tau - sliver)
    tags, points, numbers = tags[keep], points[keep], numbers[keep]
    per = np.bincount(tags, minlength=count) + 1
    owner = np.repeat(np.arange(count), per)
    # integral i has one panel more than breakpoints, so the j-th breakpoint
    # overall ends panel j + i
    pos = np.arange(tags.size) + tags
    left = np.zeros(owner.size)
    right = np.full(owner.size, tau)
    right[pos] = points
    left[pos + 1] = points
    ends = np.full((2, owner.size), -1, dtype=np.intp)
    ends[0, np.cumsum(per) - per] = 0
    ends[1, pos] = numbers
    ends[0, pos + 1] = numbers
    return left, right, owner, ends


def _dilated_shape_integrals(
    shape: ShapeFunction, p: float, mu: WeightMeasure, thetas: np.ndarray
) -> np.ndarray:
    """integral_0^tau shape(theta * t)^p dmu(t) for every theta in one pass."""
    return _ShapeIntegrals(shape, p, mu)(thetas)


class _ShapeIntegrals:
    """The dilated shape integrals of one (shape, p, mu), sharing one period table.

    Calling it integrates a batch of theta in one pass.  The density part is
    a batched tanh-sinh pass whose panel edges sit at the shape's declared
    breakpoints divided by theta and at the density's breakpoints; a shape
    that declares none starts from max(64, 2 theta tau / pi + 1) uniform
    panels and relies on bisection.  Each integral may use
    :data:`DEFAULT_BUDGET` evaluations.  The atoms add
    :meth:`WeightMeasure.atom_sums`.

    A shape whose breakpoints have a period (as :func:`phi_alpha`'s) is
    declared periodic (:attr:`ShapeFunction.period` probes it), and a panel
    between two neighbouring breakpoints, in the shape's variable
    x = theta t, is a copy of one gap of a period: its tanh-sinh nodes are
    that gap's nodes shifted by whole periods.  So shape^p is evaluated once
    per object on the nodes of each gap (:attr:`table`), and in the first
    pass every such panel takes that table times the density at its own
    nodes.  The partial last panel of each theta, panels that end at a
    density breakpoint, bisected halves and shapes without a period
    evaluate shape(theta t)^p directly.  The same table gives the limit of
    the integrals as theta grows, which :meth:`reach` uses.
    """

    def __init__(self, shape: ShapeFunction, p: float, mu: WeightMeasure) -> None:
        self.shape, self.p, self.mu = shape, p, mu

    def power(self, x) -> np.ndarray:
        return np.asarray(self.shape.eval(x), dtype=float) ** self.p

    @functools.cached_property
    def table(self) -> np.ndarray:
        """shape^p on the tanh-sinh nodes of each gap of one period: (gaps, nodes)."""
        nodes = _panel_nodes(*self.shape.breakpoints.gaps())
        return self.power(nodes.ravel()).reshape(nodes.shape)

    def panels(self, thetas: np.ndarray):
        """(left, right, owner, rows) of the density pass over these thetas.

        rows[j] is the gap of one period that panel j copies whole, -1 when
        it evaluates the shape directly.
        """
        shape, tau = self.shape, self.mu.tau
        kinks = np.asarray(self.mu.breakpoints, dtype=float)
        if shape.breakpoints is None:
            per = np.maximum(64, (2.0 * thetas * tau / math.pi).astype(np.intp) + 1)
            tags, rank = _spread(per - 1)
            points = (rank + 1) * tau / per[tags]
            numbers = np.full(tags.size, -1, dtype=np.intp)
        else:
            tags, points, numbers = shape.breakpoints.numbered(thetas * tau)
            points = points / thetas[tags]
        tags = np.concatenate([tags, np.repeat(np.arange(thetas.size), kinks.size)])
        points = np.concatenate([points, np.tile(kinks, thetas.size)])
        numbers = np.concatenate([numbers, np.full(thetas.size * kinks.size, -1, dtype=np.intp)])
        left, right, owner, ends = _split_panels(tags, points, numbers, tau, thetas.size)
        rows = np.full(owner.size, -1, dtype=np.intp)
        whole = (ends[0] >= 0) & (ends[1] == ends[0] + 1)
        if whole.any() and shape.period is not None:
            rows[whole] = ends[0][whole] % shape.breakpoints.gaps()[0].size
        return left, right, owner, rows

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        """integral_0^tau shape(theta * t)^p dmu(t) for every theta."""
        mu = self.mu
        totals = mu.atom_sums(self.power, thetas)
        if mu.density is not None:
            left, right, owner, rows = self.panels(thetas)

            def density(t, i):
                return np.asarray(mu.density(t), dtype=float)

            def integrand(t, i):
                return self.power(thetas[i] * t) * density(t, i)

            tabled = (rows, self.table, density) if (rows >= 0).any() else None
            totals += tanh_sinh_panels(
                integrand, left, right, owner, budget=DEFAULT_BUDGET,
                context=lambda i: f"dilated shape integral (theta={thetas[i]:g})",
                _tabled=tabled,
            )
        return totals

    @functools.cached_property
    def mean(self) -> tuple[float, float]:
        """(m_p, error): the mean of shape^p over one period, from :attr:`table`.

        m_p is the table's fine rule summed over the gaps and divided by the
        period; the error is the sum of |fine - coarse| divided likewise.
        """
        lo, hi = self.shape.breakpoints.gaps()
        fine, coarse = (self.table @ _TS_WEIGHTS).T * (0.5 * (hi - lo))
        period = self.shape.period
        return float(np.sum(fine)) / period, float(np.sum(np.abs(fine - coarse))) / period

    @functools.cached_property
    def spread(self) -> float:
        """C: a bound on theta |I(theta) - L| over every theta > 0.

        With G(x) = integral_0^x (shape^p - m_p), periodic, an integration by
        parts gives |I(theta) - L| <= sup|G| (|rho(tau)| + TV(rho)) / theta
        for the density rho; atoms only add to I.  [0, period] is cut at
        the breakpoints and each piece into :data:`SPREAD_CELLS` cells; one
        :func:`nested_integrals` pass gives integral_0^a shape^p at every
        cell end a.  On a cell [a, b] with mass S, G lies in
        [G(a) - m_p (b - a), G(a) + S], since shape^p >= 0; sup|G| is at most
        the largest absolute end of these ranges, plus the quadrature error.
        """
        mean, mean_err = self.mean
        period = self.shape.period
        lo, _ = self.shape.breakpoints.gaps()
        pieces = np.unique(np.concatenate([[0.0], lo, [period]]))
        steps = np.arange(SPREAD_CELLS) / SPREAD_CELLS
        starts = (pieces[:-1, None] + np.outer(np.diff(pieces), steps)).ravel()
        ends = np.append(starts[1:], period)
        cumulative = nested_integrals(
            self.power, lambda t, i: 1.0, 0.0, ends, singular=pieces,
            budget=DEFAULT_BUDGET,
            context=lambda i: f"period integral of shape^p (x={ends[i]:g})",
        )
        masses = np.diff(cumulative, prepend=0.0)
        g = cumulative - masses - mean * starts  # G at each cell start
        sup = float(np.max(np.maximum(np.abs(g + masses), np.abs(g - mean * (ends - starts)))))
        err = 2.0 * _accepted_error(cumulative[-1]) + period * mean_err
        return self.mu.variation * (sup + err)

    def reach(self, thetas: np.ndarray, best: float) -> int:
        """How many of the increasing thetas may integrate to best or below.

        For a periodic shape and a density that declares its
        :attr:`WeightMeasure.variation`, I(theta) >= L - C / theta, with
        L = m_p (density mass) and C = :attr:`spread`.  A theta where that
        bound, less the quadrature errors of L, of I(theta) and of best,
        exceeds best (1 + ARGMIN_REL_TOL) can be neither the window minimum nor tie
        with it, and neither can any larger theta.  Anything else reaches
        every theta, and so does a call whose largest theta copies no gap
        whole, which would build the table for the bound alone.
        """
        mu, bp = self.mu, self.shape.breakpoints
        if mu.density is None or mu.variation is None or bp is None or bp.period is None:
            return thetas.size
        if not (self.panels(thetas[-1:])[3] >= 0).any():
            return thetas.size
        mean, mean_err = self.mean
        mass = mu.total_mass - sum(m for _, m in mu.atoms)
        target = (
            best * (1.0 + ARGMIN_REL_TOL) + mean_err * mass
            + _accepted_error(best) + _accepted_error(mean * mass)
        )
        if not mean * mass > target:
            return thetas.size
        return int(np.searchsorted(thetas, self.spread / (mean * mass - target), side="right"))


@dataclass(frozen=True)
class InfReport:
    """Windowed integer infimum of the dilated shape integral.

    ``argmin_k`` is the smallest integer attaining the window minimum within
    :data:`ARGMIN_REL_TOL`.  The string ``"horizon"`` means the minimum is
    not reached in the first half [n, max(n, k_max // 2)] of the window, so
    doubling the window could still have lowered it: nothing is claimed
    about the true infimum in that case.
    """

    value: float
    argmin_k: int | str
    k_max: int
    attained_at_n: bool


def inf_quantity(
    n: int,
    shape: ShapeFunction,
    p,
    mu: WeightMeasure,
    k_max: int | None = None,
) -> InfReport:
    """Minimum over k in [n, k_max] of the dilated shape integral.

    The dilations are integrated in two batched passes that share one
    period table.  The first takes k in [n, min(2n, k_max)]; the second
    takes the rest of the window, up to the last k that
    :meth:`_ShapeIntegrals.reach` lets fall to the first pass's minimum:
    for a periodic shape and a density that declares its variation, the
    integrals approach their limit L within C n / k, so a k whose lower
    bound L - C n / k lies above that minimum is skipped.  A skipped k is
    neither the minimum nor ties with it, so the report is that of the whole
    window.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k_max = default_k_max(n) if k_max is None else int(k_max)
    if k_max < n:
        raise ValueError(f"k_max must be >= n, got {k_max} < {n}")
    p = as_exponent(p)
    thetas = np.arange(n, k_max + 1) / n
    integrals = _ShapeIntegrals(shape, p, mu)
    first = min(n, k_max - n) + 1
    values = integrals(thetas[:first])
    rest = thetas[first:]
    if rest.size:
        rest = rest[: integrals.reach(rest, float(values.min()))]
    if rest.size:
        values = np.concatenate([values, integrals(rest)])
    vmin = float(values.min())
    argmin = n + int(np.argmax(values <= vmin * (1.0 + ARGMIN_REL_TOL)))
    attained = argmin == n
    label: int | str = argmin
    if argmin > max(n, k_max // 2):
        label = "horizon"
    return InfReport(value=vmin, argmin_k=label, k_max=k_max, attained_at_n=attained)


def closed_form_inf(lam) -> float:
    """Closed form 2^(lam+1)/(lam+1) of the dilated integral minimum.

    Valid for the 1-cos weight on [0, pi] at positive integer powers lam
    only; non-integer lam is rejected.
    """
    if isinstance(lam, float) and not lam.is_integer():
        raise ValueError(f"closed form requires integer lam, got {lam}")
    lam = int(lam)
    if lam < 1:
        raise ValueError(f"closed form requires lam >= 1, got {lam}")
    return 2.0 ** (lam + 1) / (lam + 1)


def equiv_condition_check(
    n: int,
    shape: ShapeFunction,
    p,
    mu: WeightMeasure,
    k_max: int | None = None,
) -> bool:
    """True iff the windowed infimum equals the undilated shape integral."""
    return _equivalent(inf_quantity(n, shape, p, mu, k_max).value, shape_mass(shape, p, mu))


def _equivalent(infimum: float, mass: float) -> bool:
    """The equivalence condition: the window infimum equals the shape mass."""
    return abs(infimum - mass) <= EQUIV_REL_TOL * abs(mass)


@dataclass(frozen=True)
class JacksonBound:
    """One evaluation of the direct estimate.

    ``bound`` uses the averaged modulus, ``bound_plain`` the plain modulus at
    the same window; the former never exceeds the latter.
    """

    lhs: float
    bound: float
    holds: bool
    bound_plain: float
    holds_plain: bool


def jackson_bound(
    f: SpectralFunction,
    psi: PsiSequence,
    shape: ShapeFunction,
    p,
    mu: WeightMeasure,
    n: int,
    k_max: int | None = None,
    inf_report: InfReport | None = None,
) -> JacksonBound:
    """Check the direct estimate for one spectrum.

    lhs = E_n(f); bound = (mass/I(n))^(1/p) * tail_sup * averaged modulus of
    the roughened spectrum over [0, tau/n].  ``inf_report`` may be supplied
    to reuse a precomputed window minimum.
    """
    p = as_exponent(p)
    report = inf_report if inf_report is not None else inf_quantity(n, shape, p, mu, k_max)
    rough = psi_derivative(f, psi)
    lhs = best_approximation(f, p, n)
    factor = (mu.total_mass / report.value) ** (1.0 / p) * tail_sup_info(psi, n).value
    u = mu.tau / n
    curve = ModulusCurve(rough, p, shape, u)
    bound = factor * averaged_pow_modulus(curve, mu, u) ** (1.0 / p)
    bound_plain = factor * curve.value(u)
    return JacksonBound(
        lhs=lhs,
        bound=bound,
        holds=lhs <= bound + 1e-9,
        bound_plain=bound_plain,
        holds_plain=lhs <= bound_plain + 1e-9,
    )


def sharp_constant(
    shape: ShapeFunction,
    p,
    mu: WeightMeasure,
    psi: PsiSequence,
    n: int,
    k_max: int | None = None,
    inf_report: InfReport | None = None,
) -> float:
    """(mass / shape_mass)^(1/p) * tail_sup(psi, n): the unimprovable ratio.

    Requires the equivalence condition, a shape nondecreasing on the whole
    weight support, and a tail supremum attained at |k| = n; otherwise raises
    :class:`SharpnessNotCertifiedError`.
    """
    p = as_exponent(p)
    if not shape.nondecreasing_on(mu.tau):
        raise SharpnessNotCertifiedError(
            "sharpness not certified: shape is not declared nondecreasing on "
            f"[0, {mu.tau:g}]"
        )
    info = tail_sup_info(psi, n)
    if not info.value > 0:
        raise SharpnessNotCertifiedError(
            "sharpness not certified: tail supremum of |psi| over |k| >= n is 0, "
            "so the extremal's roughening vanishes"
        )
    at_n = max(abs(psi(n)), abs(psi(-n)))
    if at_n < info.value * (1.0 - 1e-12):
        raise SharpnessNotCertifiedError(
            "sharpness not certified: tail supremum is not attained at |k| = n"
        )
    report = inf_report if inf_report is not None else inf_quantity(n, shape, p, mu, k_max)
    mass = shape_mass(shape, p, mu)
    if not _equivalent(report.value, mass):
        raise SharpnessNotCertifiedError(
            "sharpness not certified: dilated-integral infimum differs from "
            "the undilated shape integral"
        )
    return (mu.total_mass / mass) ** (1.0 / p) * info.value


def extremal_function(
    n: int, psi: PsiSequence, delta: complex = 1.0, gamma: complex = 0.0
) -> SpectralFunction:
    """Two-harmonic extremal: gamma + eps_(-n)*delta*e^(-inx) + eps_n*delta*e^(inx).

    eps is 1 on the side(s) where |psi| attains the tail supremum and 0
    elsewhere; if neither side attains it the construction is undefined.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    info = tail_sup_info(psi, n)
    if not math.isfinite(info.value):
        raise ValueError("tail supremum is not finite")
    eps_pos = abs(psi(n)) >= info.value * (1.0 - 1e-12)
    eps_neg = abs(psi(-n)) >= info.value * (1.0 - 1e-12)
    if not (eps_pos or eps_neg):
        raise ValueError(
            "extremal construction requires the tail supremum to be attained "
            f"at k = +-{n}; sup over the scanned tail is {info.value:g} but "
            f"|psi(+-{n})| = ({abs(psi(n)):g}, {abs(psi(-n)):g})"
        )
    coeffs = {0: complex(gamma)}
    if eps_neg:
        coeffs[-n] = complex(delta)
    if eps_pos:
        coeffs[n] = complex(delta)
    return SpectralFunction(coeffs)


@dataclass(frozen=True)
class SharpnessReport:
    """End-to-end attained ratio against the closed-form constant."""

    ratio: float
    constant: float
    rel_gap: float


def sharpness_certificate(
    shape: ShapeFunction,
    p,
    mu: WeightMeasure,
    psi: PsiSequence,
    n: int,
    k_max: int | None = None,
    inf_report: InfReport | None = None,
) -> SharpnessReport:
    """Build the extremal, run the full numerical pipeline, compare.

    ratio = E_n(extremal) / averaged modulus of its roughening; the relative
    gap to :func:`sharp_constant` certifies sharpness at desk scale.
    """
    p = as_exponent(p)
    constant = sharp_constant(shape, p, mu, psi, n, k_max, inf_report)
    f_ext = extremal_function(n, psi, delta=1.0, gamma=0.0)
    lhs = best_approximation(f_ext, p, n)
    rough = psi_derivative(f_ext, psi)
    omega_avg = averaged_modulus(rough, p, shape, mu, mu.tau / n)
    ratio = lhs / omega_avg
    return SharpnessReport(
        ratio=ratio, constant=constant, rel_gap=abs(ratio - constant) / constant
    )
