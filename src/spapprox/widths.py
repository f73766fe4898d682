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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .averaging import WeightMeasure, averaged_pow_modulus
from .jackson import (
    InfReport,
    default_k_max,
    inf_quantity,
    shape_mass,
    EQUIV_REL_TOL,
)
from .psi import PsiSequence, is_monotone_even, psi_derivative
from .quadrature import (  # noqa: F401  adaptive_simpson stays importable from here
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    adaptive_simpson,
    simpson_integrals,
)
from .sampling import random_full_spectrum
from .smoothness import ModulusCurve, ModulusGrid, ShapeFunction
from .spectral import SpectralFunction, as_exponent, best_approximation, sp_norm

#: Number of window points used by majorant-mode membership checks.
MEMBERSHIP_U_POINTS = 64


@dataclass(frozen=True)
class Majorant:
    """Continuous increasing window bound with value 0 at 0."""

    eval: Callable[[np.ndarray], np.ndarray]
    probe_points: int = 256
    label: str = ""

    def __call__(self, u):
        return self.eval(u)


def majorant(
    fn: Callable[[np.ndarray], np.ndarray],
    label: str = "",
    probe_points: int = 256,
    probe_span: float = 2.0 * math.pi,
) -> Majorant:
    """Validate monotonicity on linear and log probe grids and wrap ``fn``."""
    m = Majorant(eval=fn, probe_points=probe_points, label=label)
    lin = np.linspace(0.0, probe_span, probe_points)
    log = np.logspace(-6, 3, probe_points)
    for probe in (lin, log):
        vals = np.asarray(fn(probe), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"majorant {label!r} is not finite on the probe grid")
        if np.any(np.diff(vals) <= 0):
            raise ValueError(f"majorant {label!r} is not strictly increasing")
    v0 = float(np.asarray(fn(np.array([0.0])), dtype=float)[0])
    if abs(v0) > 1e-12:
        raise ValueError(f"majorant {label!r} must vanish at 0, got {v0}")
    return m


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


def membership(
    f: SpectralFunction,
    cls: SmoothnessClass,
    grid: ModulusGrid | None = None,
    tol: float = 1e-9,
    u_points: int = MEMBERSHIP_U_POINTS,
) -> bool:
    """Constraint check for one spectrum (up to additive slack ``tol``)."""
    p = as_exponent(cls.p)
    rough = psi_derivative(f, cls.psi)
    tau = cls.mu.tau
    if cls.mode == "fixed_n":
        u = tau / cls.n
        curve = ModulusCurve(rough, p, cls.shape, u, grid)
        value = averaged_pow_modulus(curve, cls.mu, u) ** (1.0 / p)
        return value <= 1.0 + tol
    curve = ModulusCurve(rough, p, cls.shape, tau, grid)
    us = tau * np.arange(1, u_points + 1) / u_points
    values = averaged_pow_modulus(curve, cls.mu, us) ** (1.0 / p)
    return bool(np.all(values <= np.asarray(cls.omega.eval(us), dtype=float) + tol))


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
    inf_report: InfReport | None = None,
) -> WidthValue:
    """Closed-form width value, or the two-sided interval when uncertified."""
    n = _resolve_n(cls, n)
    p = as_exponent(cls.p)
    shape, mu, psi = cls.shape, cls.mu, cls.psi
    if shape.cap_point is None or shape.cap_point < mu.tau * (1.0 - 1e-12):
        raise ValueError(
            f"width formulas need the shape nondecreasing on [0, {mu.tau:g}]"
        )
    _require_monotone_even(psi, horizon=max(4 * n, 64))
    report = inf_report if inf_report is not None else inf_quantity(n, shape, p, mu, k_max)
    ref = shape_mass(shape, p, mu)
    psi_n = abs(psi(n))
    lower = (mu.total_mass / ref) ** (1.0 / p) * psi_n
    upper = (mu.total_mass / report.value) ** (1.0 / p) * psi_n
    if cls.mode == "majorant":
        scale = float(np.asarray(cls.omega.eval(np.array([mu.tau / n])), dtype=float)[0])
        lower *= scale
        upper *= scale
    certified = abs(report.value - ref) <= EQUIV_REL_TOL * abs(ref)
    return WidthValue(
        lower=lower,
        upper=upper,
        certified=certified,
        value=lower if certified else None,
        n=n,
        dimensions=(2 * n - 1, 2 * n),
        shape_certification="declared" if shape.sup_exact else "probe-grid only",
    )


def bernstein_radius(cls: SmoothnessClass, n: int | None = None) -> float:
    """Radius of the order-n polynomial ball embedded in the class.

    Equals the certified closed form; in majorant mode the fixed-mode radius
    is scaled by omega(tau/n).
    """
    n = _resolve_n(cls, n)
    p = as_exponent(cls.p)
    if cls.shape.cap_point is None or cls.shape.cap_point < cls.mu.tau * (1.0 - 1e-12):
        raise ValueError(
            f"the ball embedding needs the shape nondecreasing on [0, {cls.mu.tau:g}]"
        )
    _require_monotone_even(cls.psi, horizon=max(4 * n, 64))
    radius = (cls.mu.total_mass / shape_mass(cls.shape, p, cls.mu)) ** (1.0 / p) * abs(
        cls.psi(n)
    )
    if cls.mode == "majorant":
        radius *= float(np.asarray(cls.omega.eval(np.array([cls.mu.tau / n])), dtype=float)[0])
    return radius


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
    grid: ModulusGrid | None = None,
    tol: float = 1e-6,
    radius_scale: float = 1.0,
) -> LowerEvidence:
    """Check membership of random order-n polynomials on the critical sphere.

    ``radius_scale`` inflates the sphere for exploratory sharpness probes;
    failures are evidence, never errors.
    """
    n = _resolve_n(cls, n)
    radius = bernstein_radius(cls, n) * radius_scale
    rng = np.random.default_rng(seed)
    failed: list[int] = []
    for i in range(samples):
        sample = random_full_spectrum(rng, n)
        norm = sp_norm(sample, cls.p)
        sample = (radius / norm) * sample
        if not membership(sample, cls, grid, tol):
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
    grid: ModulusGrid | None = None,
    support_factor: int = 8,
) -> UpperEvidence:
    """Max tail norm over random members rescaled onto the constraint boundary.

    Samples have support up to ``support_factor * n``; each is scaled so
    the averaged-modulus constraint is active, then its order-n tail norm is
    recorded.  Samples whose constraint values all vanish cannot be scaled
    and are reported as non-bracketing.
    """
    n = _resolve_n(cls, n)
    p = as_exponent(cls.p)
    tau = cls.mu.tau
    rng = np.random.default_rng(seed)
    max_en = 0.0
    argmax: int | None = None
    non_bracketing = 0
    for i in range(samples):
        sample = random_full_spectrum(rng, support_factor * n)
        rough = psi_derivative(sample, cls.psi)
        if cls.mode == "fixed_n":
            u = tau / n
            curve = ModulusCurve(rough, p, cls.shape, u, grid)
            values = np.array([averaged_pow_modulus(curve, cls.mu, u) ** (1.0 / p)])
            targets = np.ones(1)
        else:
            curve = ModulusCurve(rough, p, cls.shape, tau, grid)
            us = tau * np.arange(1, MEMBERSHIP_U_POINTS + 1) / MEMBERSHIP_U_POINTS
            values = averaged_pow_modulus(curve, cls.mu, us) ** (1.0 / p)
            targets = np.asarray(cls.omega.eval(us), dtype=float)
        scale = _active_scale(values, targets)
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
    grid: ModulusGrid | None = None,
    tol: float = 1e-6,
    k_max: int | None = None,
) -> WidthCertificate:
    """Run both certificates against the closed form (or interval)."""
    n = _resolve_n(cls, n)
    value = width_closed_form(cls, n, k_max)
    lower = lower_certificate(cls, n, samples, seed, grid, tol)
    upper = upper_certificate(cls, n, samples, seed + 1, grid)
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


def capped_shape_integral(
    shape: ShapeFunction,
    p,
    mu: WeightMeasure,
    xi: float,
    *,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """integral_0^tau shape_capped(xi * s)^p dmu(s).

    ``shape_capped`` freezes the shape at its cap point, where it attains its
    supremum; this is the dilated mass entering the window-scaling condition.
    """
    return float(
        _capped_shape_integrals(shape, as_exponent(p), mu, np.array([xi]), tol, budget)[0]
    )


def _capped_shape_integrals(
    shape: ShapeFunction, p: float, mu: WeightMeasure, xis: np.ndarray,
    tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """:func:`capped_shape_integral` at every xi in one batched pass.

    Integral i starts from max(64, floor(2 xi_i tau / pi) + 1) uniform
    Simpson panels.
    """
    if shape.cap_point is None:
        raise ValueError("the window-scaling condition needs a declared cap point")
    a = shape.cap_point

    def capped(t):
        return np.asarray(
            shape.eval(np.minimum(np.abs(np.asarray(t, dtype=float)), a)), dtype=float
        )

    totals = np.zeros(xis.size)
    if mu.density is not None:
        totals += simpson_integrals(
            lambda s, i: capped(xis[i] * s) ** p * np.asarray(mu.density(s), dtype=float),
            np.zeros(xis.size),
            np.full(xis.size, mu.tau),
            tol=tol,
            budget=budget,
            initial_panels=np.maximum(64, (2 * xis * mu.tau / math.pi).astype(np.intp) + 1),
            context=lambda i: f"capped shape integral (xi={xis[i]:g})",
        )
    if mu.atoms:
        locs, masses = np.array(mu.atoms).T
        args = np.multiply.outer(xis, locs)
        totals += capped(args.ravel()).reshape(args.shape) ** p @ masses
    return totals


def majorant_condition_check(
    omega: Majorant,
    shape: ShapeFunction,
    p,
    mu: WeightMeasure,
    xi_grid: np.ndarray | None = None,
    u_grid: np.ndarray | None = None,
    rel_tol: float = 1e-9,
) -> MajorantCheck:
    """Grid check of the window-scaling inequality

        omega(u/xi) * (capped dilated mass at xi)^(1/p)
            <= omega(u) * (shape mass)^(1/p)

    for all (xi, u) on the grids.  Equality holds identically at xi = 1.
    Defaults: xi log-spaced on [1e-2, 1e2], u linear on (0, cap_point].
    """
    if shape.cap_point is None:
        raise ValueError("the window-scaling condition needs a declared cap point")
    p = as_exponent(p)
    a = shape.cap_point
    xis = np.logspace(-2, 2, 64) if xi_grid is None else np.asarray(xi_grid, dtype=float)
    us = (
        a * np.arange(1, MEMBERSHIP_U_POINTS + 1) / MEMBERSHIP_U_POINTS
        if u_grid is None
        else np.asarray(u_grid, dtype=float)
    )
    rhs_root = shape_mass(shape, p, mu) ** (1.0 / p)
    omega_us = np.asarray(omega.eval(us), dtype=float)
    worst = -math.inf
    worst_xi = worst_u = math.nan
    ok = True
    lhs_roots = _capped_shape_integrals(shape, p, mu, xis) ** (1.0 / p)
    for xi, lhs_root in zip(xis, lhs_roots):
        lhs = np.asarray(omega.eval(us / xi), dtype=float) * lhs_root
        rhs = omega_us * rhs_root
        rel = lhs / rhs - 1.0
        j = int(np.argmax(rel))
        if rel[j] > worst:
            worst = float(rel[j])
            worst_xi, worst_u = float(xi), float(us[j])
        if rel[j] > rel_tol:
            ok = False
    return MajorantCheck(ok=ok, worst_rel_margin=worst, worst_xi=worst_xi, worst_u=worst_u)
