"""Sharp direct estimates: tail norms bounded by averaged moduli.

The central quantity is the windowed infimum over integer dilations k >= n
of the weighted shape integral

    I(n) = min_k  integral_0^tau shape(k t / n)^p dmu(t).

When that infimum equals the undilated integral, the direct estimate

    E_n(f)  <=  (mass / I(n))^(1/p) * tail_sup(psi, n) * averaged modulus

is attained (up to the stated tolerances) by an explicit two-harmonic
extremal, and the attained ratio is the sharp constant.
"""

from __future__ import annotations

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
    DEFAULT_BUDGET,
    _spread,
    adaptive_simpson,
    tanh_sinh_panels,
)
from .smoothness import ModulusCurve, ShapeFunction
from .spectral import SpectralFunction, as_exponent, best_approximation

#: Relative slack for deciding the integer argmin and ties toward smaller k.
ARGMIN_REL_TOL = 1e-9
#: Relative tolerance of the sharpness (equivalence) condition.
EQUIV_REL_TOL = 1e-7


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
    :meth:`Breakpoints.numbered`).  Points outside (0, tau) are dropped.
    Returns (left, right, owner) for :func:`tanh_sinh_panels` and the
    numbers of each panel's two ends, the origin counting as number 0: it is
    when 0 is declared, and otherwise the first point inside is number 0, so
    no panel from the origin spans a gap.
    """
    keep = (points > 0.0) & (points < tau)
    order = np.lexsort((points[keep], tags[keep]))
    tags, points, numbers = tags[keep][order], points[keep][order], numbers[keep][order]
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
    """integral_0^tau shape(theta * t)^p dmu(t) for every theta in one pass.

    The density part is a batched tanh-sinh pass whose panel edges sit at
    the shape's declared breakpoints divided by theta and at the density's
    breakpoints; a shape that declares none starts from
    max(64, 2 theta tau / pi + 1) uniform panels and relies on bisection.
    Each integral may use :data:`DEFAULT_BUDGET` evaluations.  The atoms add
    :meth:`WeightMeasure.atom_sums`.

    A shape whose breakpoints have a period (as :func:`phi_alpha`'s) is
    declared periodic (:attr:`ShapeFunction.period` probes it), and a panel
    between two neighbouring breakpoints, in the shape's variable
    x = theta t, is a copy of one gap of a period: its tanh-sinh nodes are
    that gap's nodes shifted by whole periods.  So shape^p is evaluated once
    per call on the nodes of each gap, and in the first pass every such
    panel takes that table times the density at its own nodes.  The partial
    last panel of each theta, panels that end at a density breakpoint,
    bisected halves and shapes without a period evaluate shape(theta t)^p
    directly.
    """
    tau = mu.tau
    totals = mu.atom_sums(lambda t: np.asarray(shape.eval(t), dtype=float) ** p, thetas)
    if mu.density is not None:
        kinks = np.asarray(mu.breakpoints, dtype=float)
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

        def density(t, i):
            return np.asarray(mu.density(t), dtype=float)

        def integrand(t, i):
            return np.asarray(shape.eval(thetas[i] * t), dtype=float) ** p * density(t, i)

        tabled = None
        whole = (ends[0] >= 0) & (ends[1] == ends[0] + 1)
        if whole.any() and shape.period is not None:
            lo, hi = shape.breakpoints.gaps()
            rows = np.where(whole, ends[0] % lo.size, -1)
            tabled = (rows, lo, hi, lambda x: np.asarray(shape.eval(x), dtype=float) ** p, density)
        totals += tanh_sinh_panels(
            integrand, left, right, owner, budget=DEFAULT_BUDGET,
            context=lambda i: f"dilated shape integral (theta={thetas[i]:g})",
            _tabled=tabled,
        )
    return totals


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

    All k_max - n + 1 dilations are integrated in one batched pass.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k_max = default_k_max(n) if k_max is None else int(k_max)
    if k_max < n:
        raise ValueError(f"k_max must be >= n, got {k_max} < {n}")
    p = as_exponent(p)
    thetas = np.arange(n, k_max + 1) / n
    values = _dilated_shape_integrals(shape, p, mu, thetas)
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
