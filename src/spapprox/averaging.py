"""Weight measures on [0, tau] and the averaged modulus of smoothness.

A weight is a nonnegative density plus finitely many atoms; its cumulative
function is bounded, nondecreasing and non-constant.  The averaged modulus
rescales the weight onto a window [0, u] and averages the p-th power of the
modulus of smoothness against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import DEFAULT_BUDGET, DEFAULT_TOL, adaptive_simpson
from .smoothness import ModulusCurve, ModulusGrid, ShapeFunction
from .spectral import SpectralFunction, as_exponent


@dataclass(frozen=True)
class WeightMeasure:
    """Nonnegative density on [0, tau] plus a finite list of point masses.

    ``total_mass`` is mu(tau) - mu(0), fixed at construction.  ``density``
    must be vectorized; None means the purely atomic case.  ``breakpoints``
    lists the points of (0, tau) where the density is declared non-smooth.
    """

    tau: float
    density: Callable[[np.ndarray], np.ndarray] | None
    atoms: tuple[tuple[float, float], ...]
    total_mass: float
    label: str = ""
    breakpoints: tuple[float, ...] = ()


def weight_measure(
    tau: float,
    density: Callable[[np.ndarray], np.ndarray] | None = None,
    atoms: Sequence[tuple[float, float]] = (),
    label: str = "",
    probe_points: int = 257,
    breakpoints: Sequence[float] = (),
) -> WeightMeasure:
    """Validate the ingredients and compute the total mass.

    ``breakpoints`` declares where the density is non-smooth; points outside
    (0, tau) are dropped.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"tau must be a positive real, got {tau}")
    atoms = tuple((float(t), float(m)) for t, m in atoms)
    locs = [t for t, _ in atoms]
    if len(set(locs)) != len(locs):
        raise ValueError("atom locations must be distinct")
    for t, m in atoms:
        if not (0.0 <= t <= tau):
            raise ValueError(f"atom location {t} outside [0, {tau}]")
        if not (m > 0):
            raise ValueError(f"atom mass must be positive, got {m}")
    mass = sum(m for _, m in atoms)
    if density is not None:
        probe = np.linspace(0.0, tau, probe_points)
        dens = np.asarray(density(probe), dtype=float)
        if not np.all(np.isfinite(dens)):
            raise ValueError(f"density of {label!r} is not finite on [0, {tau}]")
        if np.any(dens < -1e-12):
            raise ValueError(f"density of {label!r} is negative on [0, {tau}]")
        mass += adaptive_simpson(density, 0.0, tau, context=f"mass of {label or 'measure'}")
    if mass <= 0.0:
        raise ValueError("weight measure must be non-constant (positive total mass)")
    kinks = tuple(sorted({float(t) for t in breakpoints if 0.0 < t < tau}))
    return WeightMeasure(float(tau), density, atoms, float(mass), label, kinks)


def mu1(tau: float = math.pi) -> WeightMeasure:
    """Cumulative 1 - cos t on [0, tau]; requires tau <= pi for monotonicity."""
    if not (0.0 < tau <= math.pi):
        raise ValueError(f"the 1-cos weight needs 0 < tau <= pi, got {tau}")
    return weight_measure(tau, density=np.sin, label="mu1")


def mu2(tau: float) -> WeightMeasure:
    """Cumulative t (unit density) on [0, tau]."""
    return weight_measure(tau, density=lambda t: np.ones_like(np.asarray(t, float)), label="mu2")


def atom_measure(tau: float, atoms: Sequence[tuple[float, float]]) -> WeightMeasure:
    """Purely atomic weight."""
    return weight_measure(tau, density=None, atoms=atoms, label="atoms")


def tabulated_density(tau: float, points, label: str = "tabulated") -> WeightMeasure:
    """Weight whose density linearly interpolates (t_i, d_i) pairs on [0, tau].

    The knots t_i are the breakpoints.
    """
    pts = sorted((float(t), float(d)) for t, d in points)
    ts = np.array([t for t, _ in pts])
    ds = np.array([d for _, d in pts])

    def _density(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t.ravel(), ts, ds).reshape(t.shape)

    return weight_measure(tau, density=_density, label=label, breakpoints=ts)


def stieltjes_integral(
    g: Callable[[np.ndarray], np.ndarray],
    mu: WeightMeasure,
    u: float,
    *,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    initial_panels: int = 64,
) -> float:
    """Integral of g over [0, u] against the weight rescaled from [0, tau].

    The substitution s = tau*t/u turns the density part into an ordinary
    integral with Jacobian tau/u; an atom at location s_i contributes
    m_i * g(u*s_i/tau).
    """
    if not (u > 0):
        raise ValueError(f"window length must be positive, got {u}")
    total = 0.0
    if mu.density is not None:
        ratio = mu.tau / u

        def integrand(t):
            t = np.asarray(t, dtype=float)
            return np.asarray(g(t), dtype=float) * np.asarray(
                mu.density(ratio * t), dtype=float
            ) * ratio

        total += adaptive_simpson(
            integrand, 0.0, u,
            tol=tol, budget=budget, initial_panels=initial_panels,
            context=f"stieltjes[{mu.label or 'measure'}]",
        )
    for loc, m in mu.atoms:
        val = float(np.asarray(g(np.array([u * loc / mu.tau])), dtype=float)[0])
        if not math.isfinite(val):
            raise ValueError(f"non-finite integrand value at atom t={u * loc / mu.tau}")
        total += m * val
    return total


def averaged_pow_modulus(curve: ModulusCurve, mu: WeightMeasure, u: float, **quad_kw) -> float:
    """Mean of the p-th power running supremum against the rescaled weight.

    ``curve`` must cover [0, u]; reusing one curve across several windows u
    is the supported (and cheap) pattern.
    """
    raw = stieltjes_integral(curve.pow_values, mu, u, **quad_kw)
    return max(raw, 0.0) / mu.total_mass


def averaged_modulus(
    f: SpectralFunction,
    p,
    shape: ShapeFunction,
    mu: WeightMeasure,
    u: float,
    grid: ModulusGrid | None = None,
) -> float:
    """Weighted mean of the modulus of smoothness over the window [0, u].

    Never exceeds the plain modulus at u; equals it exactly when the running
    supremum is constant on the window.
    """
    p = as_exponent(p)
    if not (u > 0):
        raise ValueError(f"window length must be positive, got {u}")
    curve = ModulusCurve(f, p, shape, u, grid)
    return averaged_pow_modulus(curve, mu, u) ** (1.0 / p)
