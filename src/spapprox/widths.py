"""Function classes bounded by averaged moduli, and width certificates.

The classes collect spectra whose roughened averaged modulus stays below 1
(fixed-window mode) or below a prescribed increasing majorant on every
window (majorant mode).  Their Bernstein, Kolmogorov, linear and projection
widths at dimensions 2n-1 and 2n share one closed-form value whenever the
dilation infimum collapses; this module emits that value together with
two-sided numerical evidence:

* lower: random polynomials of order n scaled exactly onto the critical
  ball radius must all be members;
* upper: random members with active constraint must keep their tail norm
  below the closed form.

The inf-over-subspaces definitions of the widths themselves are never
evaluated; the certificates sandwich the closed form instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .averaging import WeightMeasure, averaged_pow_modulus
from .jackson import _dilated_shape_integrals, _equivalent, inf_quantity, shape_mass
from .psi import PsiSequence, is_monotone_even, psi_derivative
from .quadrature import adaptive_simpson  # noqa: F401  stays importable from here
from .sampling import random_full_spectrum
from .smoothness import Breakpoints, ModulusCurve, ShapeFunction
from .spectral import SpectralFunction, as_exponent, best_approximation, sp_norm

#: Number of windows bounded by a majorant-mode class.
MEMBERSHIP_U_POINTS = 64
#: Dilations xi, log-spaced on [1e-2, 1e2], of :func:`majorant_condition_check`.
MAJORANT_XI_POINTS = 64
#: Points of each probe grid on which :func:`majorant` checks monotonicity.
MAJORANT_PROBE_POINTS = 256


@dataclass(frozen=True)
class Majorant:
    """Continuous increasing window bound with value 0 at 0."""

    eval: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __call__(self, u):
        return self.eval(u)


def majorant(fn: Callable[[np.ndarray], np.ndarray], label: str = "") -> Majorant:
    """Validate monotonicity on linear and log probe grids and wrap ``fn``."""
    lin = np.linspace(0.0, 2.0 * math.pi, MAJORANT_PROBE_POINTS)
    log = np.logspace(-6, 3, MAJORANT_PROBE_POINTS)
    for probe in (lin, log):
        vals = np.asarray(fn(probe), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"majorant {label!r} is not finite on the probe grid")
        if np.any(np.diff(vals) <= 0):
            raise ValueError(f"majorant {label!r} is not strictly increasing")
    v0 = float(np.asarray(fn(np.array([0.0])), dtype=float)[0])
    if abs(v0) > 1e-12:
        raise ValueError(f"majorant {label!r} must vanish at 0, got {v0}")
    return Majorant(eval=fn, label=label)


def linear_majorant() -> Majorant:
    return majorant(lambda u: np.asarray(u, dtype=float), label="linear")


@dataclass(frozen=True)
class SmoothnessClass:
    """Spectra whose roughened averaged modulus obeys a window constraint.

    Exactly one of ``n`` (fixed window tau/n, bound 1) and ``omega``
    (bound omega(u) on every window u <= tau) must be set.
    """

    psi: PsiSequence
    shape: ShapeFunction
    p: float
    mu: WeightMeasure
    n: int | None = None
    omega: Majorant | None = None

    def __post_init__(self) -> None:
        as_exponent(self.p)
        if (self.n is None) == (self.omega is None):
            raise ValueError("set exactly one of n (fixed mode) and omega (majorant mode)")
        if self.n is not None and self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")

    @property
    def mode(self) -> str:
        return "fixed_n" if self.n is not None else "majorant"

    def windows(self) -> np.ndarray:
        """Windows the constraint bounds: tau/n alone, or tau*j/64 for j = 1..64."""
        tau = self.mu.tau
        if self.omega is None:
            return np.array([tau / self.n])
        return tau * np.arange(1, MEMBERSHIP_U_POINTS + 1) / MEMBERSHIP_U_POINTS

    def bound(self, u) -> np.ndarray:
        """Bound on the averaged modulus at the windows ``u``: 1, or omega(u)."""
        u = np.asarray(u, dtype=float)
        if self.omega is None:
            return np.ones(u.shape)
        return np.asarray(self.omega.eval(u), dtype=float)


def _resolve_n(cls: SmoothnessClass, n: int | None) -> int:
    if cls.n is not None:
        if n is not None and n != cls.n:
            raise ValueError(f"class is pinned to n={cls.n}, got n={n}")
        return cls.n
    if n is None:
        raise ValueError("majorant-mode operations need an explicit n")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return n


def _require_monotone_even(psi: PsiSequence, horizon: int) -> None:
    if psi.monotone_even:
        return
    check = is_monotone_even(psi, horizon)
    if not check.ok:
        raise ValueError(
            f"width formulas need an even nonincreasing multiplier; "
            f"violation at k={check.first_violation}: {check.reason}"
        )


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"a certificate needs at least one sample, got {samples}")


def _constraint(f: SpectralFunction, cls: SmoothnessClass):
    """(averaged moduli of the roughened f on the class windows, their bounds)."""
    p = as_exponent(cls.p)
    us = cls.windows()
    curve = ModulusCurve(psi_derivative(f, cls.psi), p, cls.shape, us[-1])
    return averaged_pow_modulus(curve, cls.mu, us) ** (1.0 / p), cls.bound(us)


def membership(
    f: SpectralFunction,
    cls: SmoothnessClass,
    tol: float = 1e-9,
) -> bool:
    """Constraint check for one spectrum, up to the relative slack ``tol``.

    Each value is compared with its target times (1 + tol), so a verdict
    does not change when the values and their targets scale together.
    """
    values, targets = _constraint(f, cls)
    return bool(np.all(values <= targets * (1.0 + tol)))


@dataclass(frozen=True)
class WidthValue:
    """Common value of the four widths at dimensions 2n-1 and 2n.

    ``value`` is set only when the dilation infimum certifies equality of
    the two-sided bounds; otherwise only [lower, upper] is claimed.
    ``shape_certification`` records whether the shape supremum entering the
    certification is exact or only probed on a grid.
    """

    lower: float
    upper: float
    certified: bool
    value: float | None
    n: int
    dimensions: tuple[int, int]
    shape_certification: str


def width_closed_form(
    cls: SmoothnessClass,
    n: int | None = None,
    k_max: int | None = None,
) -> WidthValue:
    """Closed-form width value, or the two-sided interval when uncertified."""
    n = _resolve_n(cls, n)
    p = as_exponent(cls.p)
    lower, mass = _radius_and_mass(cls, n)
    report = inf_quantity(n, cls.shape, p, cls.mu, k_max)
    upper = lower * (mass / report.value) ** (1.0 / p)
    certified = _equivalent(report.value, mass)
    return WidthValue(
        lower=lower,
        upper=upper,
        certified=certified,
        value=lower if certified else None,
        n=n,
        dimensions=(2 * n - 1, 2 * n),
        shape_certification="declared" if cls.shape.sup_exact else "probe-grid only",
    )


def bernstein_radius(cls: SmoothnessClass, n: int | None = None) -> float:
    """Radius of the order-n polynomial ball embedded in the class.

    Equals the certified closed form; in majorant mode the fixed-mode radius
    is scaled by omega(tau/n).
    """
    return _radius_and_mass(cls, _resolve_n(cls, n))[0]


def _radius_and_mass(cls: SmoothnessClass, n: int) -> tuple[float, float]:
    """:func:`bernstein_radius` and the shape mass it is computed from."""
    p = as_exponent(cls.p)
    if not cls.shape.nondecreasing_on(cls.mu.tau):
        raise ValueError(
            f"width formulas need the shape nondecreasing on [0, {cls.mu.tau:g}]"
        )
    _require_monotone_even(cls.psi, horizon=max(4 * n, 64))
    mass = shape_mass(cls.shape, p, cls.mu)
    scale = float(cls.bound(np.array([cls.mu.tau / n]))[0])
    return (cls.mu.total_mass / mass) ** (1.0 / p) * abs(cls.psi(n)) * scale, mass


@dataclass(frozen=True)
class LowerEvidence:
    """Ball-membership evidence: all samples sit exactly on the critical sphere."""

    samples: int
    failures: int
    radius: float
    failed_indices: tuple[int, ...] = ()


def lower_certificate(
    cls: SmoothnessClass,
    n: int | None = None,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-6,
    radius_scale: float = 1.0,
) -> LowerEvidence:
    """Check membership of random order-n polynomials on the critical sphere.

    ``radius_scale`` inflates the sphere for exploratory sharpness probes;
    failures are evidence, never errors.  Fewer than one sample raises.
    """
    _require_samples(samples)
    n = _resolve_n(cls, n)
    radius = bernstein_radius(cls, n) * radius_scale
    return _sphere_evidence(cls, n, radius, samples, seed, tol)


def _sphere_evidence(
    cls: SmoothnessClass, n: int, radius: float, samples: int, seed: int, tol: float,
) -> LowerEvidence:
    """Membership of random order-n polynomials scaled onto the sphere of ``radius``."""
    rng = np.random.default_rng(seed)
    failed: list[int] = []
    for i in range(samples):
        sample = random_full_spectrum(rng, n)
        norm = sp_norm(sample, cls.p)
        sample = (radius / norm) * sample
        if not membership(sample, cls, tol):
            failed.append(i)
    return LowerEvidence(
        samples=samples, failures=len(failed), radius=radius,
        failed_indices=tuple(failed),
    )


@dataclass(frozen=True)
class UpperEvidence:
    """Tail norms of random members whose window constraint is active."""

    samples: int
    max_en: float
    argmax_index: int | None
    non_bracketing: int


def _active_scale(values: np.ndarray, targets: np.ndarray) -> float | None:
    """Largest c with c*values <= targets everywhere: min(targets/values).

    The constraint is homogeneous in c, so the ratio is exact; None when
    every value vanishes.
    """
    mask = values > 1e-300
    if not mask.any():
        return None
    return float(np.min(targets[mask] / values[mask]))


def upper_certificate(
    cls: SmoothnessClass,
    n: int | None = None,
    samples: int = 200,
    seed: int = 0,
) -> UpperEvidence:
    """Max tail norm over random members rescaled onto the constraint boundary.

    Samples have support up to 8n; each is scaled so the averaged-modulus
    constraint is active, then its order-n tail norm is recorded.  Samples
    whose constraint values all vanish cannot be scaled and are reported as
    non-bracketing.  Fewer than one sample raises.
    """
    _require_samples(samples)
    n = _resolve_n(cls, n)
    p = as_exponent(cls.p)
    rng = np.random.default_rng(seed)
    max_en = 0.0
    argmax: int | None = None
    non_bracketing = 0
    for i in range(samples):
        sample = random_full_spectrum(rng, 8 * n)
        scale = _active_scale(*_constraint(sample, cls))
        if scale is None:
            non_bracketing += 1
            continue
        en = scale * best_approximation(sample, p, n)
        if en > max_en:
            max_en = en
            argmax = i
    return UpperEvidence(
        samples=samples, max_en=max_en, argmax_index=argmax,
        non_bracketing=non_bracketing,
    )


@dataclass(frozen=True)
class WidthCertificate:
    """Closed form plus two-sided sampling evidence and the verdict."""

    closed_form: WidthValue
    lower_evidence: LowerEvidence
    upper_evidence: UpperEvidence
    dimensions: tuple[int, int]
    verdict: str


def certify_widths(
    cls: SmoothnessClass,
    n: int | None = None,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-6,
    k_max: int | None = None,
) -> WidthCertificate:
    """Run both certificates against the closed form (or interval).

    Fewer than one sample raises before any integral is computed.
    """
    _require_samples(samples)
    n = _resolve_n(cls, n)
    value = width_closed_form(cls, n, k_max)
    lower = _sphere_evidence(cls, n, value.lower, samples, seed, tol)
    upper = upper_certificate(cls, n, samples, seed + 1)
    reference = value.value if value.certified else value.upper
    violated = lower.failures > 0 or upper.max_en > reference + tol
    return WidthCertificate(
        closed_form=value,
        lower_evidence=lower,
        upper_evidence=upper,
        dimensions=(2 * n - 1, 2 * n),
        verdict="violated" if violated else "consistent",
    )


@dataclass(frozen=True)
class MajorantCheck:
    """Worst margin of the window-scaling inequality over the probe grids."""

    ok: bool
    worst_rel_margin: float
    worst_xi: float
    worst_u: float


def capped_shape_integral(shape: ShapeFunction, p, mu: WeightMeasure, xi: float) -> float:
    """integral_0^tau shape_capped(xi * s)^p dmu(s).

    ``shape_capped`` freezes the shape at its cap point, where it attains its
    supremum; this tanh-sinh integral is the mass in the window-scaling condition.
    """
    return float(_capped_shape_integrals(shape, as_exponent(p), mu, np.array([xi]))[0])


def _capped_shape_integrals(
    shape: ShapeFunction, p: float, mu: WeightMeasure, xis: np.ndarray
) -> np.ndarray:
    """:func:`capped_shape_integral` at every xi in one batched tanh-sinh pass.

    The capped shape is a dilated shape integral of its own: its eval is
    shape(min(|t|, cap)), and its breakpoints are the shape's inside
    (0, cap) plus the cap point (none when the shape declares none).
    """
    if shape.cap_point is None:
        raise ValueError("the window-scaling condition needs a declared cap point")
    cap, kinks = shape.cap_point, shape.breakpoints
    if kinks is not None:
        kinks = Breakpoints(points=(*kinks.inside([cap])[1].tolist(), cap))
    capped = replace(shape, eval=lambda t: shape.eval(np.minimum(abs(t), cap)), breakpoints=kinks)
    return _dilated_shape_integrals(capped, p, mu, xis)


def majorant_condition_check(
    omega: Majorant,
    shape: ShapeFunction,
    p,
    mu: WeightMeasure,
) -> MajorantCheck:
    """Grid check of the window-scaling inequality

        omega(u/xi) * (capped dilated mass at xi)^(1/p)
            <= omega(u) * (shape mass)^(1/p)

    for all (xi, u) on the grids, up to a relative margin of 1e-9.  Equality
    holds identically at xi = 1.  u runs over cap_point * j / 64 for
    j = 1..64, and xi over the fixed 64 points log-spaced on [1e-2, 1e2].
    The capped masses of all xi are one tanh-sinh pass.
    """
    p = as_exponent(p)
    xis = np.logspace(-2, 2, MAJORANT_XI_POINTS)
    lhs_roots = _capped_shape_integrals(shape, p, mu, xis) ** (1.0 / p)
    us = shape.cap_point * np.arange(1, MEMBERSHIP_U_POINTS + 1) / MEMBERSHIP_U_POINTS
    rhs = np.asarray(omega.eval(us), dtype=float) * shape_mass(shape, p, mu) ** (1.0 / p)
    # row i holds the dilation xi_i
    lhs = np.asarray(omega.eval(us / xis[:, None]), dtype=float) * lhs_roots[:, None]
    rel = lhs / rhs - 1.0
    i, j = np.unravel_index(int(np.argmax(rel)), rel.shape)
    worst = float(rel[i, j])
    ok = worst <= 1e-9
    worst_xi, worst_u = float(xis[i]), float(us[j])
    return MajorantCheck(ok=ok, worst_rel_margin=worst, worst_xi=worst_xi, worst_u=worst_u)
