"""Weight measures on [0, tau] and the averaged modulus of smoothness.

A weight is a nonnegative density plus finitely many atoms; its cumulative
function is bounded, nondecreasing and non-constant.  The averaged modulus
rescales the weight onto a window [0, u] and averages the p-th power of the
modulus of smoothness against it.  Integrals against a weight take the
form integral_0^tau F(theta s) dmu(s) of :func:`dilated_integrals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import DEFAULT_BUDGET, adaptive_simpson, simpson_integrals
from .smoothness import ModulusCurve, ShapeFunction
from .spectral import SpectralFunction, as_exponent

#: Points of the grid on which :func:`weight_measure` probes a density.
DENSITY_PROBE_POINTS = 257

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

    def atom_sums(self, F: Callable[[np.ndarray], np.ndarray], thetas) -> np.ndarray:
        """sum_j m_j F(theta_i s_j) over the atoms (s_j, m_j), for each theta_i.

        ``F`` must be vectorized; a non-finite value raises ValueError.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if not self.atoms:
            return np.zeros(thetas.size)
        locs, masses = np.array(self.atoms).T
        args = np.multiply.outer(thetas, locs)
        vals = np.asarray(F(args.ravel()), dtype=float).reshape(args.shape)
        if not np.all(np.isfinite(vals)):
            where = args[~np.isfinite(vals)][0]
            raise ValueError(f"non-finite integrand value at atom t={where}")
        return vals @ masses


def weight_measure(
    tau: float,
    density: Callable[[np.ndarray], np.ndarray] | None = None,
    atoms: Sequence[tuple[float, float]] = (),
    label: str = "",
    breakpoints: Sequence[float] = (),
    density_mass: float | None = None,
) -> WeightMeasure:
    """Validate the ingredients and compute the total mass.

    ``breakpoints`` declares where the density is non-smooth; points outside
    (0, tau) are dropped.  ``density_mass`` is the integral of the density
    over [0, tau] when known in closed form; otherwise it is integrated.
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
        probe = np.linspace(0.0, tau, DENSITY_PROBE_POINTS)
        dens = np.asarray(density(probe), dtype=float)
        if not np.all(np.isfinite(dens)):
            raise ValueError(f"density of {label!r} is not finite on [0, {tau}]")
        if np.any(dens < -1e-12):
            raise ValueError(f"density of {label!r} is negative on [0, {tau}]")
        if density_mass is None:
            density_mass = adaptive_simpson(
                density, 0.0, tau, context=f"mass of {label or 'measure'}"
            )
        mass += density_mass
    if mass <= 0.0:
        raise ValueError("weight measure must be non-constant (positive total mass)")
    kinks = tuple(sorted({float(t) for t in breakpoints if 0.0 < t < tau}))
    return WeightMeasure(float(tau), density, atoms, float(mass), label, kinks)


def mu1(tau: float = math.pi) -> WeightMeasure:
    """Cumulative 1 - cos t on [0, tau]; requires tau <= pi for monotonicity."""
    if not (0.0 < tau <= math.pi):
        raise ValueError(f"the 1-cos weight needs 0 < tau <= pi, got {tau}")
    return weight_measure(tau, density=np.sin, label="mu1", density_mass=1.0 - math.cos(tau))


def mu2(tau: float) -> WeightMeasure:
    """Cumulative t (unit density) on [0, tau]."""
    return weight_measure(
        tau, density=lambda t: np.ones_like(np.asarray(t, float)), label="mu2",
        density_mass=tau,
    )


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


def dilated_integrals(
    F: Callable[[np.ndarray], np.ndarray],
    mu: WeightMeasure,
    thetas,
    *,
    context: Callable[[int], str] = lambda i: "dilated integral",
) -> np.ndarray:
    """integral_0^tau F(theta_i s) dmu(s) for every dilation theta_i.

    One dilation integrates its density part by :func:`adaptive_simpson` on
    [0, tau]; a batch is one :func:`simpson_integrals` pass on shared nodes
    of F, integral i being integral_0^(theta_i tau) F(t) density(t /
    theta_i) / theta_i dt; both at :data:`DEFAULT_BUDGET`.  The atoms add
    :meth:`WeightMeasure.atom_sums`.  ``context(i)`` names integral i in errors.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    totals = np.zeros(thetas.size)
    if mu.density is not None:
        # one dilation goes through adaptive_simpson by name, where
        # perfbench's tracer counts quadrature
        if thetas.size == 1:
            totals += adaptive_simpson(
                lambda s: np.asarray(F(thetas[0] * s), dtype=float) * mu.density(s),
                0.0, mu.tau, budget=DEFAULT_BUDGET, context=context(0),
            )
        else:  # theta tau / theta may round above tau
            totals += simpson_integrals(
                F, lambda t, i: mu.density(np.minimum(t / thetas[i], mu.tau)) / thetas[i],
                0.0, thetas * mu.tau, budget=DEFAULT_BUDGET, context=context,
            )
    return totals + mu.atom_sums(F, thetas)


def stieltjes_integral(g: Callable[[np.ndarray], np.ndarray], mu: WeightMeasure, u):
    """Integral of g over [0, u] against the weight rescaled from [0, tau].

    The substitution t = u s / tau makes it the dilated integral of g at
    theta = u / tau.  ``u`` may be a 1-D array of windows: they are then
    integrated in one batched pass on the nodes of g they share, and an
    array is returned.
    """
    us = np.asarray(u, dtype=float)
    windows = np.atleast_1d(us)
    if not np.all(windows > 0):
        raise ValueError(f"window length must be positive, got {u}")
    totals = dilated_integrals(
        g, mu, windows / mu.tau,
        context=lambda i: f"stieltjes[{mu.label or 'measure'}] (u={windows[i]:g})",
    )
    return float(totals[0]) if us.ndim == 0 else totals


def averaged_pow_modulus(curve: ModulusCurve, mu: WeightMeasure, u):
    """Mean of the p-th power running supremum against the rescaled weight.

    ``curve`` must cover [0, u]; reusing one curve across several windows u
    is the supported (and cheap) pattern.  ``u`` may be a 1-D array of
    windows, integrated in one batched pass; an array is then returned.
    """
    raw = stieltjes_integral(curve.pow_values, mu, u)
    mean = np.maximum(raw, 0.0) / mu.total_mass
    return mean if np.ndim(u) else float(mean)


def averaged_modulus(
    f: SpectralFunction,
    p,
    shape: ShapeFunction,
    mu: WeightMeasure,
    u: float,
) -> float:
    """Weighted mean of the modulus of smoothness over the window [0, u].

    Never exceeds the plain modulus at u; equals it exactly when the running
    supremum is constant on the window.
    """
    p = as_exponent(p)
    if not (u > 0):
        raise ValueError(f"window length must be positive, got {u}")
    curve = ModulusCurve(f, p, shape, u)
    return averaged_pow_modulus(curve, mu, u) ** (1.0 / p)
