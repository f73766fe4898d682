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

m_p, C and the shape mass depend on (shape, p, mu) alone, so each shape
object keeps them per (p, mu) and every call shares them; the integrals at
each k are taken anew by each call, a batch of k in one
:func:`~spapprox.quadrature.nested_integrals` pass.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

from .averaging import (
    WeightMeasure,
    _density_integrals,
    averaged_modulus,
    averaged_pow_modulus,
)
from .psi import PsiSequence, psi_derivative, tail_sup_info
from .quadrature import (  # noqa: F401  adaptive_simpson stays importable from here
    DEFAULT_BUDGET,
    _accepted_error,
    _sliver,
    _spread,
    adaptive_simpson,
    nested_integrals,
)
from .smoothness import ModulusCurve, ShapeFunction
from .spectral import SpectralFunction, as_exponent, best_approximation

#: Relative slack for deciding the integer argmin and ties toward smaller k.
ARGMIN_REL_TOL = 1e-9
#: Relative tolerance of the sharpness (equivalence) condition.
EQUIV_REL_TOL = 1e-7
#: Cells per piece of a period in the bound of :attr:`_ShapeIntegrals.spread`.
SPREAD_CELLS = 16
#: Most (p, weight) entries of :class:`_ShapeIntegrals` one shape keeps; a new
#: entry past it drops the oldest.
SHAPE_INTEGRALS_PER_SHAPE = 8

_log = logging.getLogger(__name__)
_integrals_lock = threading.Lock()


class SharpnessNotCertifiedError(RuntimeError):
    """A sharp-constant precondition failed; only the inequality holds."""


def default_k_max(n: int) -> int:
    return 64 * n + 1024


def shape_mass(shape: ShapeFunction, p, mu: WeightMeasure) -> float:
    """integral_0^tau shape(t)^p dmu(t): the dilated integral at theta = 1.

    Integrated once per (shape, p, mu) and kept (see :func:`_shape_integrals`).
    """
    return _shape_integrals(shape, as_exponent(p), mu).mass


def _dilated_shape_integrals(
    shape: ShapeFunction, p: float, mu: WeightMeasure, thetas: np.ndarray
) -> np.ndarray:
    """integral_0^tau shape(theta * t)^p dmu(t) for every theta in one pass."""
    return _shape_integrals(shape, p, mu)(thetas)


def _shape_integrals(shape: ShapeFunction, p: float, mu: WeightMeasure) -> _ShapeIntegrals:
    """The one :class:`_ShapeIntegrals` of (shape, p, mu), kept on the shape.

    The shape's cache is keyed by (p, id(mu)), so neither the shape nor the
    weight is ever hashed.  An entry holds its mu, so no other weight can
    take that id while the entry lives, and a hit checks the identity too.
    A shape keeps at most :data:`SHAPE_INTEGRALS_PER_SHAPE` entries and drops
    the oldest past that, with one DEBUG record on the ``spapprox.jackson``
    logger; the entries die with their shape.  A lock makes each look-up
    atomic, so threads that race for one triple get one entry.
    """
    key = (p, id(mu))
    with _integrals_lock:
        cache = shape._integrals
        found = cache.get(key)
        if found is not None and found.mu is mu:
            return found
        cache.pop(key, None)
        if len(cache) >= SHAPE_INTEGRALS_PER_SHAPE:
            old = cache.pop(next(iter(cache)))
            _log.debug(
                "shape %r dropped its dilated shape integrals at p=%g on weight %r",
                shape.label, old.p, old.mu.label,
            )
        found = cache[key] = _ShapeIntegrals(shape, p, mu)
        return found


class _ShapeIntegrals:
    """The dilated shape integrals of one (shape, p, mu), and their limit.

    :func:`_shape_integrals` keeps one object per triple on the shape, so its
    :attr:`period_cells`, :attr:`mean`, :attr:`spread` and :attr:`mass` are
    computed once per triple, when first read, and shared by every later
    call; the integrals of each batch of theta are never kept.

    Calling it integrates a batch of theta in one
    :func:`~spapprox.averaging._density_integrals` pass, in the shape's
    variable x = theta t: shape^p is evaluated once per node for every
    theta, and the cells are cut at the shape's declared breakpoints inside
    (0, max theta tau) and at the density's breakpoints times each theta.
    The cells at the origin take tanh-sinh, and so do the cells at the
    shape's breakpoints where shape^p is singular there
    (:meth:`~spapprox.smoothness.Breakpoints.singular`); elsewhere the
    breakpoints are plain edges of Gauss-Kronrod cells.  Each theta ends its own last
    cell.  A shape that declares no breakpoints is cut, for each theta, into
    max(64, 2 theta tau / pi + 1) uniform cells of [0, theta tau], which
    every theta shares, and relies on bisection for its kinks.  Each
    integral may use :data:`DEFAULT_BUDGET` evaluations.  The atoms add
    :meth:`WeightMeasure.atom_sums`.
    """

    def __init__(self, shape: ShapeFunction, p: float, mu: WeightMeasure) -> None:
        self.shape, self.p, self.mu = shape, p, mu

    def power(self, x) -> np.ndarray:
        return np.asarray(self.shape.eval(x), dtype=float) ** self.p

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        """integral_0^tau shape(theta * t)^p dmu(t) for every theta."""
        mu = self.mu
        totals = mu.atom_sums(self.power, thetas)
        if mu.density is None:
            return totals
        ends = thetas * mu.tau
        kinks = self.shape.breakpoints
        if kinks is None:
            per = np.maximum(64, (2.0 * ends / math.pi).astype(np.intp) + 1)
            tags, rank = _spread(per - 1)
            cusps, cuts = (), (rank + 1) * ends[tags] / per[tags]
        else:
            # a cusp that rounds a sliver past the last end still flags it
            top = ends.max()
            points = kinks.inside([top + _sliver(top)])[1]
            cusps, cuts = (points, ()) if kinks.singular(self.p) else ((), points)
        return totals + _density_integrals(
            self.power, mu, thetas,
            lambda i: f"dilated shape integral (theta={thetas[i]:g})",
            cusps=cusps, cuts=cuts,
        )

    @functools.cached_property
    def mass(self) -> float:
        """integral_0^tau shape^p dmu, from one theta = 1 :func:`_dilated_shape_integrals`."""
        return float(_dilated_shape_integrals(self.shape, self.p, self.mu, np.ones(1))[0])

    @functools.cached_property
    def period_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, cumulative): integral_0^a shape^p at each cell end a of a period.

        [0, period] is cut at the breakpoints and each piece into
        :data:`SPREAD_CELLS` cells, and one :func:`nested_integrals` pass on
        those cells, with tanh-sinh at the breakpoints where shape^p is
        singular and Gauss-Kronrod on every cell elsewhere, integrates up to
        every cell end.
        """
        period = self.shape.period
        lo, _ = self.shape.breakpoints.gaps()
        pieces = np.unique(np.concatenate([[0.0], lo, [period]]))
        steps = np.arange(SPREAD_CELLS) / SPREAD_CELLS
        starts = (pieces[:-1, None] + np.outer(np.diff(pieces), steps)).ravel()
        ends = np.append(starts[1:], period)
        singular = pieces if self.shape.breakpoints.singular(self.p) else ()
        cumulative = nested_integrals(
            self.power, lambda t, i: 1.0, 0.0, ends, breakpoints=ends, singular=singular,
            budget=DEFAULT_BUDGET,
            context=lambda i: f"period integral of shape^p (x={ends[i]:g})",
        )
        return starts, ends, cumulative

    @functools.cached_property
    def mean(self) -> tuple[float, float]:
        """(m_p, error): the mean of shape^p over one period, and its error.

        m_p is the last of :attr:`period_cells`, divided by the period; the
        error is the most that integral may be off, divided likewise.
        """
        total = float(self.period_cells[2][-1])
        period = self.shape.period
        return total / period, _accepted_error(total) / period

    @functools.cached_property
    def spread(self) -> float:
        """C: a bound on theta |I(theta) - L| over every theta > 0.

        With G(x) = integral_0^x (shape^p - m_p), periodic, an integration by
        parts gives |I(theta) - L| <= sup|G| (|rho(tau)| + TV(rho)) / theta
        for the density rho; atoms only add to I.  On each cell [a, b] of
        :attr:`period_cells`, with mass S, G lies in
        [G(a) - m_p (b - a), G(a) + S], since shape^p >= 0; sup|G| is at most
        the largest absolute end of these ranges, plus the quadrature error.
        """
        mean, mean_err = self.mean
        starts, ends, cumulative = self.period_cells
        masses = np.diff(cumulative, prepend=0.0)
        g = cumulative - masses - mean * starts  # G at each cell start
        sup = float(np.max(np.maximum(np.abs(g + masses), np.abs(g - mean * (ends - starts)))))
        err = 2.0 * _accepted_error(cumulative[-1]) + self.shape.period * mean_err
        return self.mu.variation * (sup + err)

    def reach(self, thetas: np.ndarray, best: float) -> int:
        """How many of the increasing thetas may integrate to best or below.

        For a periodic shape and a density that declares its
        :attr:`WeightMeasure.variation`, I(theta) >= L - C / theta, with
        L = m_p (density mass) and C = :attr:`spread`.  A theta where that
        bound, less the quadrature errors of L, of I(theta) and of best,
        exceeds best (1 + ARGMIN_REL_TOL) can be neither the window minimum nor tie
        with it, and neither can any larger theta.  Anything else reaches
        every theta.  The bound reads :attr:`ShapeFunction.period`, whose
        probe refuses a shape that breaks the period it declares.
        """
        mu = self.mu
        if mu.density is None or mu.variation is None or self.shape.period is None:
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

    The dilations are integrated in two batched passes; m_p and C the
    triple computes once for all calls (see :func:`_shape_integrals`), and
    each call integrates its own dilations.  The first pass takes k in [n, min(2n, k_max)]; the second
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
    integrals = _shape_integrals(shape, p, mu)
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
    the same window; the former never exceeds the latter.  ``holds`` and
    ``holds_plain`` test lhs <= bound (1 + tol), a relative slack, so that
    scaling the spectrum, which scales lhs and both bounds alike, keeps
    every verdict.
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
    tol: float = 1e-9,
) -> JacksonBound:
    """Check the direct estimate for one spectrum.

    lhs = E_n(f); bound = (mass/I(n))^(1/p) * tail_sup * averaged modulus of
    the roughened spectrum over [0, tau/n].  ``inf_report`` may be supplied
    to reuse a precomputed window minimum; ``tol`` is the relative slack of
    both verdicts.
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
        holds=lhs <= bound * (1.0 + tol),
        bound_plain=bound_plain,
        holds_plain=lhs <= bound_plain * (1.0 + tol),
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
