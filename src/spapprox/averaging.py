"""Weight measures on [0, tau] and the averaged modulus of smoothness.

A weight is a nonnegative density plus finitely many atoms; its cumulative
function is bounded, nondecreasing and non-constant.  The averaged modulus
rescales the weight onto a window [0, u] and averages the p-th power of the
modulus of smoothness against it.  Integrals against a weight take the
form integral_0^tau F(theta s) dmu(s) of :func:`dilated_integrals`.  The
averaged modulus reads the running supremum off the curve's piece table,
so the shift sum is evaluated only on the rising stretches between plateaus.
A float window is one integral of it; an array of windows takes the
plateaus through the weight's cumulative function instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .quadrature import DEFAULT_BUDGET, adaptive_simpson, nested_integrals
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
    ``closed_cdf`` is the density's cumulative function in closed form
    (vectorized), None when :meth:`cdf` integrates it.  ``variation`` is
    |density(tau)| + TV(density) on [0, tau] in closed form, None when not
    declared; it bounds how far dilated integrals of a periodic function
    stray from their limit (see :func:`spapprox.jackson.inf_quantity`).
    :func:`mu1`, :func:`mu2` and :func:`tabulated_density` declare it.
    """

    tau: float
    density: Callable[[np.ndarray], np.ndarray] | None
    atoms: tuple[tuple[float, float], ...]
    total_mass: float
    label: str = ""
    breakpoints: tuple[float, ...] = ()
    closed_cdf: Callable[[np.ndarray], np.ndarray] | None = None
    variation: float | None = None

    def cdf(self, s) -> np.ndarray:
        """integral_0^s density for every s in [0, tau]; the atoms are left out.

        Without a closed form, the integrals over [0, s] are one
        :func:`nested_integrals` pass, with tanh-sinh at 0 and the breakpoints.
        """
        s = np.asarray(s, dtype=float)
        if self.density is None:
            return np.zeros(s.shape)
        if self.closed_cdf is not None:
            return np.asarray(self.closed_cdf(s), dtype=float)
        return _integrated_cdf(self.density, self.breakpoints, s, self.label)

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


def _integrated_cdf(density, breakpoints, s: np.ndarray, label: str) -> np.ndarray:
    """integral_0^s density for every s, on cells shared by all of them."""
    return nested_integrals(
        density, lambda t, i: 1.0, 0.0, s.ravel(), breakpoints=s.ravel(),
        singular=np.append(breakpoints, 0.0), context=lambda i: f"cdf of {label or 'measure'}",
    ).reshape(s.shape)


def weight_measure(
    tau: float,
    density: Callable[[np.ndarray], np.ndarray] | None = None,
    atoms: Sequence[tuple[float, float]] = (),
    label: str = "",
    breakpoints: Sequence[float] = (),
    cdf: Callable[[np.ndarray], np.ndarray] | None = None,
) -> WeightMeasure:
    """Validate the ingredients and compute the total mass.

    ``breakpoints`` declares where the density is non-smooth; points outside
    (0, tau) are dropped.  ``cdf`` is the density's cumulative function
    s -> integral_0^s density when known in closed form; otherwise
    :meth:`WeightMeasure.cdf` integrates it.  The density's mass is cdf(tau).
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
    kinks = tuple(sorted({float(t) for t in breakpoints if 0.0 < t < tau}))
    mass = sum(m for _, m in atoms)
    if density is not None:
        probe = np.linspace(0.0, tau, DENSITY_PROBE_POINTS)
        dens = np.asarray(density(probe), dtype=float)
        if not np.all(np.isfinite(dens)):
            raise ValueError(f"density of {label!r} is not finite on [0, {tau}]")
        if np.any(dens < -1e-12):
            raise ValueError(f"density of {label!r} is negative on [0, {tau}]")
        s = np.array(float(tau))
        mass += float(cdf(s) if cdf is not None else _integrated_cdf(density, kinks, s, label))
    if mass <= 0.0:
        raise ValueError("weight measure must be non-constant (positive total mass)")
    return WeightMeasure(float(tau), density, atoms, float(mass), label, kinks, cdf)


def mu1(tau: float = math.pi) -> WeightMeasure:
    """Cumulative 1 - cos t on [0, tau]; requires tau <= pi for monotonicity."""
    if not (0.0 < tau <= math.pi):
        raise ValueError(f"the 1-cos weight needs 0 < tau <= pi, got {tau}")
    mu = weight_measure(tau, density=np.sin, label="mu1", cdf=lambda s: 1.0 - np.cos(s))
    # sin rises to 1 at pi/2 and falls back to sin(tau)
    return replace(mu, variation=2.0 * math.sin(tau) if tau <= math.pi / 2 else 2.0)


def mu2(tau: float) -> WeightMeasure:
    """Cumulative t (unit density) on [0, tau]."""
    mu = weight_measure(
        tau, density=lambda t: np.ones_like(np.asarray(t, float)), label="mu2",
        cdf=lambda s: np.array(s, dtype=float),
    )
    return replace(mu, variation=1.0)


def atom_measure(tau: float, atoms: Sequence[tuple[float, float]]) -> WeightMeasure:
    """Purely atomic weight."""
    return weight_measure(tau, density=None, atoms=atoms, label="atoms")


def tabulated_density(tau: float, points, label: str = "tabulated") -> WeightMeasure:
    """Weight whose density linearly interpolates (t_i, d_i) pairs on [0, tau].

    The knots t_i are the breakpoints; the cumulative function is piecewise
    quadratic between them.
    """
    pts = sorted((float(t), float(d)) for t, d in points)
    ts = np.array([t for t, _ in pts])
    ds = np.array([d for _, d in pts])

    def _density(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t.ravel(), ts, ds).reshape(t.shape)

    # on [0, tau] the density is linear between these knots
    knots = np.unique(np.concatenate([[0.0, tau], ts[(ts > 0.0) & (ts < tau)]]))
    heights = np.interp(knots, ts, ds)
    slopes = np.diff(heights) / np.diff(knots)
    trapezoids = 0.5 * (heights[1:] + heights[:-1]) * np.diff(knots)
    cumulative = np.concatenate([[0.0], np.cumsum(trapezoids)])

    def _cdf(s):
        s = np.asarray(s, dtype=float)
        j = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, knots.size - 2)
        d = s - knots[j]
        return cumulative[j] + d * (heights[j] + 0.5 * slopes[j] * d)

    mu = weight_measure(tau, density=_density, label=label, breakpoints=ts, cdf=_cdf)
    return replace(mu, variation=float(np.sum(np.abs(np.diff(heights))) + abs(heights[-1])))


def dilated_integrals(
    F: Callable[[np.ndarray], np.ndarray],
    mu: WeightMeasure,
    thetas,
    *,
    cusps=(),
    context: Callable[[int], str] = lambda i: "dilated integral",
) -> np.ndarray:
    """integral_0^tau F(theta_i s) dmu(s) for every dilation theta_i.

    ``cusps`` lists the points where F is not smooth, in F's own variable.
    One dilation integrates its density part by :func:`adaptive_simpson` on
    [0, tau], its first panels cut at the density's breakpoints and at the
    cusps over theta; a batch is one :func:`nested_integrals` pass on cells
    shared by all dilations (see :func:`_density_integrals`).  The atoms
    add :meth:`WeightMeasure.atom_sums`.  ``context(i)`` names integral i in
    errors.
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
                breakpoints=np.append(mu.breakpoints, np.asarray(cusps) / thetas[0]),
            )
        else:
            totals += _density_integrals(F, mu, thetas, context, cusps=cusps, cuts=thetas * mu.tau)
    return totals + mu.atom_sums(F, thetas)


def _density_integrals(
    F: Callable[[np.ndarray], np.ndarray],
    mu: WeightMeasure,
    thetas: np.ndarray,
    context: Callable[[int], str],
    *,
    support: tuple[np.ndarray, np.ndarray] | None = None,
    cusps=(),
    cuts=(),
) -> np.ndarray:
    """integral_0^(theta_i tau) F(t) density(t / theta_i) / theta_i dt for every i.

    One :func:`nested_integrals` pass at :data:`DEFAULT_BUDGET`: F is
    evaluated once per node for all dilations, cells are cut at the
    density's breakpoints times each theta_i, at ``cuts`` and at the
    ``cusps``, and the cells at the origin and at the ``cusps`` get
    tanh-sinh: ``cusps`` lists the singular points of F, ``cuts`` the
    points where F is only not smooth.  An end
    theta_i tau cuts the cells of the other dilations only when ``cuts``
    lists it.  ``support`` limits F to stretches, as in
    :func:`nested_integrals`.
    """
    inverse = 1.0 / thetas

    def weight(t, i):
        scale = inverse[i]
        # t / theta may round above tau at the end
        return mu.density(np.minimum(t * scale, mu.tau)) * scale

    return nested_integrals(
        F, weight, 0.0, thetas * mu.tau, support=support,
        breakpoints=np.append(np.multiply.outer(thetas, mu.breakpoints), cuts),
        singular=np.append(cusps, 0.0), budget=DEFAULT_BUDGET, context=context,
    )


def stieltjes_integral(
    g: Callable[[np.ndarray], np.ndarray], mu: WeightMeasure, u, *, cusps=()
):
    """Integral of g over [0, u] against the weight rescaled from [0, tau].

    The substitution t = u s / tau makes it the dilated integral of g at
    theta = u / tau, with g's non-smooth points ``cusps`` passed on.  ``u``
    may be a 1-D array of windows: they are then integrated in one batched
    pass on the cells of g they share, and an array is returned.
    """
    us = np.asarray(u, dtype=float)
    windows = np.atleast_1d(us)
    if not np.all(windows > 0):
        raise ValueError(f"window length must be positive, got {u}")
    totals = dilated_integrals(
        g, mu, windows / mu.tau, cusps=cusps,
        context=lambda i: f"stieltjes[{mu.label or 'measure'}] (u={windows[i]:g})",
    )
    return float(totals[0]) if us.ndim == 0 else totals


def averaged_pow_modulus(curve: ModulusCurve, mu: WeightMeasure, u):
    """Mean of the p-th power running supremum against the rescaled weight.

    ``curve`` must cover [0, u]; reusing one curve across several windows u
    is the supported (and cheap) pattern.  Both forms integrate
    :func:`_running_sup`, which evaluates the shift sum on rising stretches
    only.  A float ``u`` is one :func:`stieltjes_integral`, its first panels
    cut at the kinks inside the window: the cusps of the shift sum and the
    two ends of every plateau (the last ends at the curve's end).  A 1-D
    array of windows gets an array, integrated piece by piece
    (:func:`_window_integrals`).
    """
    us = np.asarray(u, dtype=float)
    if not np.all(us > 0):
        raise ValueError(f"window length must be positive, got {u}")
    if us.max() > curve.u * (1.0 + 1e-12):
        raise ValueError("query outside the precomputed window")
    if us.ndim == 0:
        flat = curve.plateaus
        kinks = np.concatenate([curve.cusps(), flat.starts, flat.ends[:-1]])
        raw = stieltjes_integral(_running_sup(curve), mu, u, cusps=kinks)
        return max(raw, 0.0) / mu.total_mass
    return np.maximum(_window_integrals(curve, mu, us), 0.0) / mu.total_mass


def _running_sup(curve: ModulusCurve) -> Callable[[np.ndarray], np.ndarray]:
    """The running supremum of ``curve``, read off its piece table.

    It is v_j on plateau j, [starts_j, ends_j), and max(g, v_j) from ends_j
    to the next start (g before the first), so the shift sum g is evaluated
    nowhere inside a plateau.  Points are clipped to [0, u] as in
    :meth:`ModulusCurve.pow_values`.
    """
    flat = curve.plateaus
    floor, last_end = np.append(0.0, flat.values), np.append(-np.inf, flat.ends)

    def evaluate(t):
        t = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), 0.0, curve.u)
        j = np.searchsorted(flat.starts, t, side="right")  # plateaus begun by t
        out = floor[j]
        # a plateau's end reads g too: its crossing may lie a rounding past v_j
        up = t >= last_end[j]
        out[up] = np.maximum(curve.shift_sum(t[up]), out[up])
        return out

    return evaluate


def _window_integrals(curve: ModulusCurve, mu: WeightMeasure, us: np.ndarray) -> np.ndarray:
    """integral of the running supremum over [0, u_i] against the rescaled weight.

    On each plateau the running supremum is its value v_j, so the plateau
    adds v_j times the weight's mass there, from :meth:`WeightMeasure.cdf`.
    On the rising stretches in between, :func:`_running_sup` is integrated
    in one :func:`_density_integrals` pass whose cells are also cut at the
    cusps of the shift sum and at every window end; the cusps take
    tanh-sinh only where the shape's breakpoints are singular at p.  The atoms add
    :meth:`WeightMeasure.atom_sums`.
    """
    thetas = us / mu.tau
    running_sup = _running_sup(curve)
    totals = mu.atom_sums(running_sup, thetas)
    if mu.density is None:
        return totals
    flat = curve.plateaus
    # plateau j, cut to window i, in the weight's own variable s = t / theta_i
    ends = np.stack([flat.starts, flat.ends])[:, None, :]
    s = np.minimum(np.minimum(ends, us[:, None]) / thetas[:, None], mu.tau)
    mass = mu.cdf(s)
    totals += (mass[1] - mass[0]) @ flat.values
    # a rising stretch runs from each plateau's end (or 0) to the next start
    lo, hi = np.append(0.0, flat.ends), np.append(flat.starts, curve.u)
    cusps, cuts = curve.cusps(), thetas * mu.tau
    kinks = curve.shape.breakpoints
    if kinks is not None and not kinks.singular(curve.p):
        cusps, cuts = (), np.append(cuts, cusps)
    return totals + _density_integrals(
        running_sup, mu, thetas,
        lambda i: f"stieltjes[{mu.label or 'measure'}] (u={us[i]:g})",
        support=(lo[hi > lo], hi[hi > lo]), cusps=cusps, cuts=cuts,
    )


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
