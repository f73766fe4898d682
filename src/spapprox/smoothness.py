"""Generalized moduli of smoothness.

The modulus of a spectrum f at step t is the supremum over shifts
0 <= h <= t of the weighted coefficient sum

    g(h) = sum_k shape(k*h)^p * |c_k|^p,

reported as g_sup^(1/p).  The shift weight ``shape`` is an even, bounded,
nonnegative function vanishing at 0.  The supremum is located by a uniform
grid scan refined with golden-section search; :class:`ModulusCurve`
precomputes the scan once on [0, u] so that the running supremum can be read
off cheaply at many steps t <= u (the pattern the averaging quadrature needs).

An independent route for integer and fractional order alpha evaluates the
same supremum through the forward-difference multiplier |1 - e^{-ikh}|^alpha
and serves as a cross-check oracle for the shape-based implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .spectral import SpectralFunction, as_exponent

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


@dataclass(frozen=True)
class Breakpoints:
    """Points t > 0 where a function of t >= 0 may fail to be smooth.

    The declared set is ``points``, repeated every ``period`` when one is
    given (then it holds every ``points[i] + j * period`` with j >= 0).
    """

    points: tuple[float, ...] = ()
    period: float | None = None

    def __post_init__(self) -> None:
        if self.period is not None and not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError(f"breakpoint period must be a positive real, got {self.period}")

    def inside(self, his) -> tuple[np.ndarray, np.ndarray]:
        """Every declared point in (0, his[i]), tagged with i, for each i.

        Returns (tags, points), with no order among the points of one tag.
        """
        his = np.asarray(his, dtype=float)
        base = np.asarray(self.points, dtype=float)
        if self.period is None:
            base = np.unique(base[base > 0.0])
            tag, rank = _spread(np.searchsorted(base, his, side="left"))
            return tag, base[rank]
        tags, pts = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        for b in np.unique(np.mod(base, self.period)):
            first = 1 if b == 0.0 else 0  # offset 0 itself is not inside (0, hi)
            count = np.ceil((his - b) / self.period).astype(np.intp) - first
            tag, rank = _spread(np.maximum(count, 0))
            pt = b + (rank + first) * self.period
            keep = pt < his[tag]  # ceil may overshoot by one in rounding
            tags.append(tag[keep])
            pts.append(pt[keep])
        return np.concatenate(tags), np.concatenate(pts)


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tag i repeated counts[i] times, and the rank of each entry in its run."""
    tag = np.repeat(np.arange(counts.size), counts)
    return tag, np.arange(tag.size) - (np.cumsum(counts) - counts)[tag]


@dataclass(frozen=True)
class ShapeFunction:
    """Even shift weight: nonnegative, bounded, zero at the origin.

    ``eval`` must be vectorized (ndarray in, ndarray out).  ``cap_point`` is
    the largest point up to which the shape is declared nondecreasing (None
    when no such declaration is made) and ``sup_value`` its global supremum.
    ``sup_exact`` records whether the supremum is known in closed form or
    only probed on a grid.  ``breakpoints`` declares where the shape may be
    non-smooth on t >= 0, so that quadrature can put panel edges there; None
    declares nothing, and quadrature then finds the kinks by bisection.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    cap_point: float | None
    sup_value: float
    label: str = ""
    sup_exact: bool = False
    breakpoints: Breakpoints | None = None

    def __call__(self, t):
        return self.eval(t)


@dataclass(frozen=True)
class ModulusGrid:
    """Scan parameters for the shift supremum."""

    base_points: int = 4096
    refine_iters: int = 40

    def __post_init__(self) -> None:
        if self.base_points < 64:
            raise ValueError(f"base_points must be >= 64, got {self.base_points}")
        if self.refine_iters < 0:
            raise ValueError(f"refine_iters must be >= 0, got {self.refine_iters}")


def check_shape(shape: ShapeFunction, probe_points: int = 257) -> None:
    """Probe-grid validation of the shape invariants; raises ValueError."""
    sup = shape.sup_value
    if not (sup > 0 and math.isfinite(sup)):
        raise ValueError(f"sup_value must be a positive real, got {sup}")
    span = 2.0 * (shape.cap_point if shape.cap_point is not None else math.pi)
    ts = np.linspace(0.0, span, probe_points)
    vals = np.asarray(shape.eval(ts), dtype=float)
    neg_vals = np.asarray(shape.eval(-ts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"shape {shape.label!r} is not finite on the probe grid")
    if abs(vals[0]) > 1e-12 * max(1.0, sup):
        raise ValueError(f"shape {shape.label!r} must vanish at 0, got {vals[0]}")
    if np.any(vals < -1e-12):
        raise ValueError(f"shape {shape.label!r} takes negative values")
    if np.max(np.abs(vals - neg_vals)) > 1e-9 * max(1.0, sup):
        raise ValueError(f"shape {shape.label!r} is not even on the probe grid")
    if np.any(vals > sup * (1.0 + 1e-9)):
        raise ValueError(f"shape {shape.label!r} exceeds its declared supremum {sup}")
    if shape.cap_point is not None:
        if shape.cap_point <= 0:
            raise ValueError(f"cap_point must be positive, got {shape.cap_point}")
        tc = np.linspace(0.0, shape.cap_point, probe_points)
        vc = np.asarray(shape.eval(tc), dtype=float)
        if np.any(np.diff(vc) < -1e-9 * max(1.0, sup)):
            raise ValueError(
                f"shape {shape.label!r} is not nondecreasing up to its cap point"
            )


def phi_alpha(alpha: float) -> ShapeFunction:
    """Shift weight of the classical order-``alpha`` modulus.

    Equal to (2*(1 - cos t))^(alpha/2) = 2^alpha * |sin(t/2)|^alpha, which is
    nondecreasing up to pi with supremum 2^alpha; its cusps are the zeros
    2*pi*j.
    """
    if not (alpha > 0):
        raise ValueError(f"order alpha must be positive, got {alpha}")
    a = float(alpha)

    def _eval(t):
        return 2.0**a * np.abs(np.sin(0.5 * np.asarray(t, dtype=float))) ** a

    shape = ShapeFunction(
        eval=_eval,
        cap_point=math.pi,
        sup_value=2.0**a,
        label=f"phi_alpha:{a:g}",
        sup_exact=True,
        breakpoints=Breakpoints(points=(0.0,), period=2.0 * math.pi),
    )
    check_shape(shape)
    return shape


def tabulated_shape(
    points,
    cap_point: float | None,
    sup_value: float,
    label: str = "tabulated",
) -> ShapeFunction:
    """Even shape from (t_i, v_i) pairs with monotone-linear interpolation.

    The table covers t >= 0 (the even extension is automatic); values beyond
    the last knot hold the final table value.  The knots are the breakpoints.
    """
    pts = sorted((float(t), float(v)) for t, v in points)
    if not pts:
        raise ValueError("tabulated shape needs at least one (t, value) pair")
    ts = np.array([t for t, _ in pts])
    vs = np.array([v for _, v in pts])
    if ts[0] != 0.0:
        raise ValueError("tabulated shape must start at t=0")

    def _eval(t):
        t = np.abs(np.asarray(t, dtype=float))
        return np.interp(t.ravel(), ts, vs).reshape(t.shape)

    shape = ShapeFunction(
        eval=_eval,
        cap_point=cap_point,
        sup_value=float(sup_value),
        label=label,
        breakpoints=Breakpoints(points=tuple(ts.tolist())),
    )
    check_shape(shape)
    return shape


def _golden_max(
    g: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    iters: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized golden-section maximization over the brackets [lo_i, hi_i].

    Returns the best evaluated point and value per bracket (endpoints
    included), never an extrapolation.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    best_x = lo.copy()
    best_v = np.asarray(g(lo), dtype=float).copy()
    v_hi = np.asarray(g(hi), dtype=float)
    upd = v_hi > best_v
    best_x[upd] = hi[upd]
    best_v[upd] = v_hi[upd]

    dist = hi - lo
    c = lo + _INV_PHI2 * dist
    d = lo + _INV_PHI * dist
    fc = np.asarray(g(c), dtype=float)
    fd = np.asarray(g(d), dtype=float)
    for _ in range(iters):
        left = fc >= fd  # keep [lo, d]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        dist = hi - lo
        c_new = lo + _INV_PHI2 * dist
        d_new = lo + _INV_PHI * dist
        # one interior point is inherited (d'=c on keep-left, c'=d on
        # keep-right), the other is fresh
        fresh = np.where(left, c_new, d_new)
        f_fresh = np.asarray(g(fresh), dtype=float)
        fc, fd = np.where(left, f_fresh, fd), np.where(left, fc, f_fresh)
        c, d = c_new, d_new
        for x_arr, v_arr in ((c, fc), (d, fd)):
            upd = v_arr > best_v
            best_x[upd] = x_arr[upd]
            best_v[upd] = v_arr[upd]
    return best_x, best_v


class ModulusCurve:
    """Running supremum of the p-th power shift sum of one spectrum on [0, u].

    Construction scans the window once and refines every local maximum of the
    shift sum; queries at any t <= u then combine the prefix of grid values,
    the refined peaks located below t, and a golden-section pass over the
    partial cell ending at t.  Scaling the spectrum scales all values exactly,
    and queries are monotone in t by construction.
    """

    def __init__(
        self,
        f: SpectralFunction,
        p,
        shape: ShapeFunction,
        u: float,
        grid: ModulusGrid | None = None,
    ):
        if u < 0:
            raise ValueError(f"window length must be nonnegative, got {u}")
        self.p = as_exponent(p)
        self.shape = shape
        self.u = float(u)
        self.grid = grid or ModulusGrid()

        weights: dict[int, float] = {}
        for k, c in f.coeffs.items():
            if k != 0:  # shape(0) = 0: the constant term never contributes
                weights[abs(k)] = weights.get(abs(k), 0.0) + abs(c) ** self.p
        self._ks = np.array(sorted(weights), dtype=float)
        self._ws = np.array([weights[int(k)] for k in self._ks])
        self._kmax = float(self._ks[-1]) if self._ks.size else 0.0

        cap = shape.cap_point
        self._fast = (
            self._kmax == 0.0
            or self.u == 0.0
            or (cap is not None and self._kmax * self.u <= cap)
        )
        if not self._fast:
            self._hs = np.linspace(0.0, self.u, self.grid.base_points)
            gv = self._pow_sum(self._hs)
            self._run_max = np.maximum.accumulate(gv)
            interior = np.flatnonzero(
                (gv[1:-1] >= gv[:-2]) & (gv[1:-1] >= gv[2:])
            ) + 1
            if interior.size:
                lo = self._hs[interior - 1]
                hi = self._hs[interior + 1]
                px, pv = _golden_max(self._pow_sum, lo, hi, self.grid.refine_iters)
                pv = np.maximum(pv, gv[interior])
                order = np.argsort(px, kind="stable")
                self._peak_x = px[order]
                self._peak_run = np.maximum.accumulate(pv[order])
            else:
                self._peak_x = np.empty(0)
                self._peak_run = np.empty(0)

    def _pow_sum(self, h):
        """g(h) = sum_k w_k * shape(k h)^p for h >= 0 (vectorized)."""
        h = np.asarray(h, dtype=float)
        if self._ks.size == 0:
            return np.zeros(h.shape)
        args = np.multiply.outer(h, self._ks)
        return np.asarray(self.shape.eval(args), dtype=float) ** self.p @ self._ws

    def pow_values(self, ts) -> np.ndarray:
        """sup of the p-th power shift sum over [0, t] for each t in ``ts``."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if np.any(ts < -1e-15) or np.any(ts > self.u * (1.0 + 1e-12) + 1e-300):
            raise ValueError("query outside the precomputed window")
        ts = np.clip(ts, 0.0, self.u)
        out = self._pow_sum(ts)
        if self._fast:
            return out
        # Grid prefix maxima plus refined peaks located at or before t cover
        # every completed hump; on the rising side of the current hump the
        # endpoint evaluation g(t) itself is the supremum.
        idx = np.searchsorted(self._hs, ts, side="right") - 1
        out = np.maximum(out, self._run_max[idx])
        if self._peak_x.size:
            jp = np.searchsorted(self._peak_x, ts, side="right") - 1
            has = jp >= 0
            out[has] = np.maximum(out[has], self._peak_run[jp[has]])
        return out

    def value(self, t: float) -> float:
        """The modulus itself at step t: pow_values(t)^(1/p)."""
        return float(self.pow_values(t)[0] ** (1.0 / self.p))


def generalized_modulus(
    f: SpectralFunction,
    p,
    shape: ShapeFunction,
    t: float,
    grid: ModulusGrid | None = None,
) -> float:
    """Supremum over 0 <= h <= t of the shape-weighted coefficient norm.

    Evenness of the shape halves the shift range; when the whole support
    stays below the shape's cap point the supremum sits at h = t and is
    returned directly.
    """
    if t < 0:
        raise ValueError(f"step must be nonnegative, got {t}")
    return ModulusCurve(f, p, shape, t, grid).value(t)


def difference_modulus_oracle(
    f: SpectralFunction,
    p,
    alpha: float,
    t: float,
    grid: ModulusGrid | None = None,
) -> float:
    """Order-``alpha`` modulus via the forward-difference multiplier.

    Computes sup over 0 <= h <= t of
    (sum_k |1 - e^{-ikh}|^(alpha p) |c_k|^p)^(1/p) with its own scan and a
    bounded scalar minimizer for refinement; independent of the shape-based
    route, which it must agree with for the matching shape.
    """
    if not (alpha > 0):
        raise ValueError(f"order alpha must be positive, got {alpha}")
    if t < 0:
        raise ValueError(f"step must be nonnegative, got {t}")
    p = as_exponent(p)
    grid = grid or ModulusGrid()
    ks = np.array(f.support, dtype=float)
    ks = ks[ks != 0]
    if ks.size == 0 or t == 0.0:
        return 0.0
    ws = np.array([abs(f[int(k)]) ** p for k in ks])

    def d(h):
        h = np.asarray(h, dtype=float)
        mult = np.abs(1.0 - np.exp(-1j * np.multiply.outer(h, ks)))
        return mult ** (alpha * p) @ ws

    hs = np.linspace(0.0, t, grid.base_points)
    dv = d(hs)
    best = float(dv.max())
    cells = np.flatnonzero((dv[1:-1] >= dv[:-2]) & (dv[1:-1] >= dv[2:])) + 1
    brackets = [(hs[j - 1], hs[j + 1]) for j in cells]
    brackets.append((hs[-2], t))
    for lo, hi in brackets:
        res = minimize_scalar(
            lambda h: -float(d(h)),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-13 * max(t, 1.0)},
        )
        best = max(best, -float(res.fun))
    return best ** (1.0 / p)
