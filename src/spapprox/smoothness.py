"""Generalized moduli of smoothness.

The modulus of a spectrum f at step t is the supremum over shifts
0 <= h <= t of the weighted coefficient sum

    g(h) = sum_k shape(k*h)^p * |c_k|^p,

reported as g_sup^(1/p).  The shift weight ``shape`` is an even, bounded,
nonnegative function vanishing at 0.  The supremum is located by a uniform
grid scan, at least 8 points per period of the highest harmonic, whose
peaks are refined; :class:`ModulusCurve` precomputes the scan once on
[0, u] so that the running supremum can be read off cheaply at many steps
t <= u (the pattern the averaging quadrature needs).

Peak refinement runs in lockstep over all peaks of a scan, one call of g
per step.  Each local maximum h_j of the scan is seeded with the triple
(h_{j-1}, h_j, h_{j+1}), its values taken from g itself rather than from
the scan table below, and refined by safeguarded successive parabolic
interpolation: each step evaluates the vertex of the parabola through the
triple and keeps the best point with its nearest neighbour on each side.  A
peak retires when its parabola is flat, when its triple is narrower than
4 sqrt(eps) |h| (Brent's x-tolerance), or when the parabola predicts a
gain, interpolation error included, of at most 1e-16 |g|; a smooth peak
takes a few steps.  The last cell [h_{N-2}, u] is seeded with its ends,
its midpoint and a point 1e-8 of its width inside each end: when the best
of the five is an end (u on a tie) the cell's peak is there, and otherwise
the best point and its neighbours are one more triple.  A peak still open
after :data:`PARABOLA_STEPS` steps (a kink, as on tabulated shapes)
evaluates g once at the shape's cusps inside its grid cells,
:meth:`ModulusCurve.cusps`.  Every peak value is a value of g at an
evaluated point, so refinement never overstates the supremum.

Scans on one grid share their shape values.  Each shape object keeps, with
:func:`_kept`, one scan table per (p, u, scan points), holding a row
shape(k h_j)^p over the scan grid h_j for each harmonic k seen so far; a
curve reads its grid values g(h_j) = sum_k w_k row_k off it and evaluates
the shape only for the harmonics the table lacks.  The same per-shape cache
holds the dilated shape integrals of :mod:`spapprox.jackson`, one entry per
(p, weight).  A shape keeps at most :data:`KEPT_PER_SHAPE` entries of the
two kinds together, dropping the least recently used past that, and its
entries die with it.  A table holds at most :data:`MAX_SCAN_POINTS` values
(8 MB), so a live shape holds at most 64 MB of tables; a curve whose new
rows would pass that cap scans directly and leaves the table alone.  One lock is held for each
look-up or insert and while a scan reads or fills its table, so threads may
build curves at once.  A dropped entry and the cap fallback each log one
DEBUG record on the ``spapprox.smoothness`` logger.

An independent route for integer and fractional order alpha evaluates the
same supremum through the forward-difference multiplier |1 - e^{-ikh}|^alpha
and serves as a cross-check oracle for the shape-based implementation.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .quadrature import _spread
from .spectral import SpectralFunction, as_exponent

#: Most point x harmonic elements :meth:`ModulusCurve.shift_sum` holds at once.
BLOCK_ELEMENTS = 2**15
#: Most points the resolution floor of a shift scan may ask for.
MAX_SCAN_POINTS = 2**20
#: Points of each probe grid of :func:`check_shape`.
SHAPE_PROBE_POINTS = 257
#: Most entries, scan tables and dilated shape integrals together, one shape keeps
#: (see :func:`_kept`); a new entry past it drops the least recently used.
KEPT_PER_SHAPE = 8
#: Regula falsi steps that locate each crossing of :attr:`ModulusCurve.plateaus`.
CROSSING_STEPS = 8
#: Parabolic steps that refine each peak of a shift scan before its cusps are tried.
PARABOLA_STEPS = 6
#: Brent's x-tolerance: a peak's triple a < b < c retires once c - a <= _X_TOL |b|.
_X_TOL = 4.0 * math.sqrt(np.finfo(float).eps)

_log = logging.getLogger(__name__)
#: Held for each look-up or insert of :func:`_kept`, and while a scan reads or fills its table.
_kept_lock = threading.Lock()


@dataclass(frozen=True)
class Breakpoints:
    """Points t > 0 where a function of t >= 0 may fail to be smooth.

    The declared set is ``points``.  A ``period`` declares the set and the
    function periodic: the set then holds every t >= 0 congruent to one of
    ``points`` modulo ``period``, and f(t + period) = f(t) for t >= 0, so that
    the mean of f may be taken over one period, cut into the gaps between
    its consecutive points (see :meth:`gaps`).  An ``order`` declares the
    kind of every point b: near b, f(t) = |t - b|^order h(t) with h analytic
    and nonzero, so that f^p is analytic on each side of b when order p is
    a positive integer (see :meth:`singular`); None declares nothing.
    """

    points: tuple[float, ...] = ()
    period: float | None = None
    order: float | None = None

    def __post_init__(self) -> None:
        if self.period is not None and not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError(f"breakpoint period must be a positive real, got {self.period}")
        if self.order is not None and not 0.0 < self.order < math.inf:
            raise ValueError(f"breakpoint order must be a positive real, got {self.order}")

    def singular(self, p: float) -> bool:
        """Whether f^p may be singular at the points, so that quadrature needs tanh-sinh there.

        False only when the declared order times p lies within 4 ulps of a
        positive integer m: f^p is then |t - b|^m times an analytic function,
        analytic on each side of b, though not across it when m is odd.  The
        slack absorbs the rounding of order p, as in (2/p) p = 1.9999999999999998.
        A power past the largest double counts as singular.
        """
        power = math.inf if self.order is None else self.order * p
        if power == math.inf:
            return True
        m = round(power)
        return not (m >= 1 and abs(power - m) <= 4 * math.ulp(m))

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

    def gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the gaps between consecutive declared points of one period.

        lo holds the m sorted residues in [0, period) and gap i runs from
        residue i to the next one, the last gap to the first residue plus the
        period.  Only a periodic set has gaps.
        """
        if self.period is None:
            raise ValueError("only a periodic breakpoint set has gaps")
        lo = np.unique(np.mod(np.asarray(self.points, dtype=float), self.period))
        return lo, np.append(lo[1:], lo[:1] + self.period)


@dataclass(frozen=True)
class ShapeFunction:
    """Even shift weight: nonnegative, bounded, zero at the origin.

    ``eval`` must be vectorized (ndarray in, ndarray out) and pure: the
    same points always give the same values, since each shape object keeps
    its values for reuse (see :func:`_kept`).  ``cap_point``
    is the largest point up to which the shape is declared nondecreasing
    (None when no such declaration is made) and ``sup_value`` its global
    supremum.  ``sup_exact`` records whether the supremum is known in closed
    form or only probed on a grid.  ``breakpoints`` declares where the shape may be
    non-smooth on t >= 0, so that quadrature can put panel edges there; None
    declares nothing, and quadrature then finds the kinks by bisection.
    Breakpoints with a ``period`` also declare the shape itself periodic,
    shape(t + period) = shape(t), and the dilated shape integrals of
    :mod:`spapprox.jackson` rely on it: the bound that skips dilations
    evaluates the shape on one period only, after reading :attr:`period`,
    which probes the declaration.  A shape whose kinks repeat but whose
    values do not must list its kinks without a period.  Each shape object
    keeps its scan tables per (p, u, scan points) and the period integrals,
    mean, spread and mass of its dilated shape integrals per (p, weight), at
    most :data:`KEPT_PER_SHAPE` entries in all.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    cap_point: float | None
    sup_value: float
    label: str = ""
    sup_exact: bool = False
    breakpoints: Breakpoints | None = None

    def __call__(self, t):
        return self.eval(t)

    @functools.cached_property
    def period(self) -> float | None:
        """The period its breakpoints declare, probed on first read; None if none.

        The probe compares shape(t + period) with shape(t) at the cell
        midpoints of each gap of one period, away from the kinks, where the
        rounding of t + period alone moves a cusp's values past any fixed
        tolerance, and raises ValueError when they differ by more than
        1e-9 max(1, sup_value).
        """
        bp = self.breakpoints
        if bp is None or bp.period is None:
            return None
        lo, hi = bp.gaps()
        cells = max(1, (SHAPE_PROBE_POINTS - 1) // lo.size)
        t = (lo[:, None] + np.outer(hi - lo, (np.arange(cells) + 0.5) / cells)).ravel()
        v = np.asarray(self.eval(np.concatenate([t, t + bp.period])), dtype=float)
        if not np.max(np.abs(v[t.size:] - v[:t.size])) <= 1e-9 * max(1.0, self.sup_value):
            raise ValueError(
                f"shape {self.label!r} declares breakpoint period {bp.period:g} "
                "but is not periodic on the probe grid"
            )
        return bp.period

    @functools.cached_property
    def _kept(self) -> dict:
        """The entries :func:`_kept` keeps on this shape, least recently used first."""
        return {}

    def nondecreasing_on(self, tau: float) -> bool:
        """Whether the shape is declared nondecreasing on [0, tau]."""
        return self.cap_point is not None and self.cap_point >= tau * (1.0 - 1e-12)


@dataclass(frozen=True)
class ModulusGrid:
    """Scan parameters for the shift supremum."""

    base_points: int = 4096

    def __post_init__(self) -> None:
        if self.base_points < 64:
            raise ValueError(f"base_points must be >= 64, got {self.base_points}")

    def scan_points(self, kmax: float, u: float) -> int:
        """Points of a scan of [0, u]: at least 8 per shortest period.

        That is max(base_points, ceil(8 kmax u / 2 pi) + 1); a floor above
        :data:`MAX_SCAN_POINTS` raises instead of allocating.
        """
        floor = math.ceil(8.0 * kmax * u / (2.0 * math.pi)) + 1
        if floor > MAX_SCAN_POINTS:
            raise ValueError(
                f"shift scan of k_max*u = {kmax * u:g} needs {floor} points, "
                f"above the cap of {MAX_SCAN_POINTS}"
            )
        return max(self.base_points, floor)


def check_shape(shape: ShapeFunction) -> None:
    """Probe-grid validation of the shape invariants; raises ValueError."""
    sup = shape.sup_value
    if not (sup > 0 and math.isfinite(sup)):
        raise ValueError(f"sup_value must be a positive real, got {sup}")
    span = 2.0 * (shape.cap_point if shape.cap_point is not None else math.pi)
    ts = np.linspace(0.0, span, SHAPE_PROBE_POINTS)
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
        tc = np.linspace(0.0, shape.cap_point, SHAPE_PROBE_POINTS)
        vc = np.asarray(shape.eval(tc), dtype=float)
        if np.any(np.diff(vc) < -1e-9 * max(1.0, sup)):
            raise ValueError(
                f"shape {shape.label!r} is not nondecreasing up to its cap point"
            )


def phi_alpha(alpha: float) -> ShapeFunction:
    """Shift weight of the classical order-``alpha`` modulus.

    Equal to (2*(1 - cos t))^(alpha/2) = 2^alpha * |sin(t/2)|^alpha, which is
    nondecreasing up to pi with supremum 2^alpha; its cusps are the zeros
    2*pi*j, each of order alpha, so that shape^p is analytic on each side of
    them when alpha*p is a positive integer (see :meth:`Breakpoints.singular`).
    """
    if not (alpha > 0):
        raise ValueError(f"order alpha must be positive, got {alpha}")
    a = float(alpha)
    if not a < 1024.0:  # 2.0**1024 is past the largest double
        raise ValueError(f"order alpha must be below 1024, where 2^alpha overflows, got {alpha}")

    def _eval(t):
        return 2.0**a * np.abs(np.sin(0.5 * np.asarray(t, dtype=float))) ** a

    shape = ShapeFunction(
        eval=_eval,
        cap_point=math.pi,
        sup_value=2.0**a,
        label=f"phi_alpha:{a:g}",
        sup_exact=True,
        breakpoints=Breakpoints(points=(0.0,), period=2.0 * math.pi, order=a),
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


#: For each case 2 [t < b] + [g(t) > g(b)] of a parabolic step, where the
#: new a, b, c and the dropped point come from among (a, b, c, t).
_PARABOLA_KEEP = np.array([[0, 1, 3, 2], [1, 3, 2, 0], [3, 1, 2, 0], [0, 3, 1, 2]]).T


def _parabolic_max(
    g: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    v: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized safeguarded parabolic maximization from triples.

    Row i of ``x`` holds points a_i < b_i < c_i and row i of ``v`` their
    values under g.  Each step fits the parabola P through every open row's
    triple, evaluates g at its vertex, clipped to [(a+b)/2, (b+c)/2], in one
    call for all open rows, and keeps the best of the four points with its
    nearest neighbour on each side (successive parabolic interpolation;
    Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5).

    A row retires when P is not concave (a flat triple, which costs no
    evaluation), when c - a <= 4 sqrt(eps) |b| (Brent's x-tolerance, which
    retires a triple tight enough that its parabola fits rounding noise) or
    when P predicts a gain of at most 1e-16 |g(b)| over its middle point b.
    The prediction counts the vertex's interpolation error,
    |g[a,b,c,d]| (b-a)(c-b) / |P''|, with d the point the last step
    dropped: a triple whose outer points stay far apart keeps the vertex of
    the parabola through them, whatever its new middle point, so its own
    vertex alone would retire it early.  A seeded triple has no such d, so
    no predicted gain retires it.  A vertex on b itself is moved off it by
    1e-3 of the wider side, toward that side, so that every step learns a
    point.

    Returns the best point of each row's last triple, its value and whether
    the row retired; a row still open after ``steps`` steps, or whose best
    point fell on an end of its points, did not.
    """
    m = len(x)
    nan = np.full((1, m), np.nan)  # a seeded row has dropped no point yet
    xs = np.vstack([np.asarray(x, dtype=float).T, nan])  # rows a, b, c, d
    vs = np.vstack([np.asarray(v, dtype=float).T, nan])
    rows = np.arange(m)
    best_x, best_v = xs[1].copy(), vs[1].copy()
    done = np.zeros(m, dtype=bool)
    for step in range(steps + 1):
        (a, b, c, d), (fa, fb, fc, fd) = xs, vs
        d1 = (fb - fa) / (b - a)
        d2 = ((fc - fb) / (c - b) - d1) / (c - a)  # g[a,b,c], half of P''
        d3 = (((fd - fc) / (d - c) - (fc - fb) / (c - b)) / (d - b) - d2) / (d - a)
        concave = d2 < 0
        d2 = np.where(concave, d2, -1.0)
        vertex = 0.5 * (a + b) - 0.5 * d1 / d2
        miss = np.abs(vertex - b) + np.abs(d3) * (b - a) * (c - b) / (-2.0 * d2)
        t = np.minimum(np.maximum(vertex, 0.5 * (a + b)), 0.5 * (b + c))
        t = np.where(t == b, b + 1e-3 * np.where(c - b > b - a, c - b, a - b), t)
        retire = (
            ~concave
            | (c - a <= _X_TOL * np.abs(b))
            | (-d2 * miss**2 <= 1e-16 * np.abs(fb))
            | (t <= a) | (t >= c) | (t == b)  # the triple is at float resolution
        )
        stop = retire if step < steps else np.ones(rows.size, dtype=bool)
        if stop.any():  # a seeded middle point may trail an end by rounding
            cols = np.flatnonzero(stop)
            top = np.argmax(vs[:3, cols], axis=0)
            best_x[rows[cols]], best_v[rows[cols]] = xs[top, cols], vs[top, cols]
            done[rows[cols]] = retire[cols]
            xs, vs, rows, t = xs[:, ~stop], vs[:, ~stop], rows[~stop], t[~stop]
        if not rows.size:
            break
        ft = np.asarray(g(t), dtype=float)
        (a, b, c, _), (fa, fb, fc, _) = xs, vs
        lost = np.maximum(fa, fc) > np.maximum(fb, ft)  # no bracket around the best point
        if lost.any():
            best_x[rows[lost]] = np.where(fa >= fc, a, c)[lost]
            best_v[rows[lost]] = np.maximum(fa, fc)[lost]
        # keep the best of a, b, c, t with its neighbours; d is the point dropped
        pick = _PARABOLA_KEEP[:, 2 * (t < b) + (ft > fb)], np.arange(rows.size)
        xs, vs = np.vstack([xs[:3], t])[pick], np.vstack([vs[:3], ft])[pick]
        if lost.any():
            xs, vs, rows = xs[:, ~lost], vs[:, ~lost], rows[~lost]
    return best_x, best_v, done


def _refine_peaks(
    g: Callable[[np.ndarray], np.ndarray],
    hs: np.ndarray,
    interior: np.ndarray,
    cusps: Callable[[], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The peaks of g at the grid maxima h_j, j in ``interior``, and in the last cell.

    Each interior peak starts from the triple (h_{j-1}, h_j, h_{j+1}) under
    g.  The last cell [h_{N-2}, u] is seeded with five points: its ends, one
    eta = 1e-8 of its width inside each end and its midpoint.  If the best
    of them is an end (ties go to u), the cell's peak is that end; otherwise
    the best point and its two neighbours are one more triple.  One call of
    g takes every seed, and :func:`_parabolic_max` refines all triples in
    lockstep for :data:`PARABOLA_STEPS` steps.  Rows still open then (kinks,
    as on tabulated shapes) evaluate g once more, in one call, at the points
    of ``cusps()`` inside their grid cells, [h_{j-1}, h_{j+1}] or the last
    cell, and keep the best point evaluated; ``cusps`` is called only when
    some row is open.  Returns the peaks' points and values, each value an
    evaluated g, the interior ones in the order given and the last cell's
    at the end.
    """
    m = interior.size
    lo, hi = hs[-2], hs[-1]
    eta = 1e-8 * (hi - lo)
    cell = np.array([lo, lo + eta, 0.5 * (lo + hi), hi - eta, hi])
    seeds = np.concatenate([hs[interior - 1], hs[interior], hs[interior + 1], cell])
    gs = np.asarray(g(seeds), dtype=float)
    x, v, cv = seeds[:3 * m].reshape(3, m).T, gs[:3 * m].reshape(3, m).T, gs[3 * m:]
    top = cell.size - 1 - np.argmax(cv[::-1])  # the last best point of the cell
    if 0 < top < cell.size - 1:
        x, v = np.vstack([x, cell[top - 1:top + 2]]), np.vstack([v, cv[top - 1:top + 2]])
    px, pv, done = _parabolic_max(g, x, v, PARABOLA_STEPS)
    if px.size == m:  # the last cell's peak is one of its ends
        px, pv, done = np.append(px, cell[top]), np.append(pv, cv[top]), np.append(done, True)
    rows = np.flatnonzero(~done)
    if rows.size:
        kinks = cusps()
        first = np.searchsorted(kinks, np.append(hs[interior - 1], lo)[rows], side="left")
        last = np.searchsorted(kinks, np.append(hs[interior + 1], hi)[rows], side="right")
        tag, rank = _spread(last - first)
        if tag.size:
            at = kinks[first[tag] + rank]
            gk = np.asarray(g(at), dtype=float)
            best = np.full(rows.size, -np.inf)
            np.maximum.at(best, tag, gk)
            win = (gk == best[tag]) & (gk > pv[rows[tag]])
            px[rows[tag[win]]], pv[rows[tag[win]]] = at[win], gk[win]
    return px, pv


def _crossings(
    g: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    level: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Vectorized Illinois regula falsi for g(t) = level_i on [lo_i, hi_i].

    Needs g(lo_i) <= level_i < g(hi_i); returns the last lower end of each
    bracket, a point at or before the crossing where g <= level_i still
    holds.  A retained end whose value was kept twice in a row has it
    halved, so both ends keep moving (Dowell and Jarratt, 1971).
    """
    f = np.asarray(g(np.concatenate([lo, hi])), dtype=float) - np.tile(level, 2)
    f_lo, f_hi = f[:lo.size], f[lo.size:]
    moved = np.zeros(lo.size, dtype=np.int8)  # +1: hi moved last, -1: lo moved last
    for _ in range(steps):
        den = f_hi - f_lo
        ok = den > 0
        c = np.where(ok, (lo * f_hi - hi * f_lo) / np.where(ok, den, 1.0), hi)
        c = np.clip(c, lo, hi)
        f_c = np.asarray(g(c), dtype=float) - level
        up = f_c > 0  # c lies past the crossing: it becomes the upper end
        f_lo = np.where(up & (moved == 1), 0.5 * f_lo, f_lo)
        f_hi = np.where(~up & (moved == -1), 0.5 * f_hi, f_hi)
        lo, f_lo = np.where(up, lo, c), np.where(up, f_lo, f_c)
        hi, f_hi = np.where(up, c, hi), np.where(up, f_c, f_hi)
        moved = np.where(up, 1, -1).astype(np.int8)
    return lo


@dataclass(frozen=True)
class Plateaus:
    """Where a running supremum is flat: ``values[j]`` on [starts[j], ends[j]].

    Before the first plateau and between two of them it rises with the
    shift sum itself.  Starts are record peaks of the shift sum, ends the
    points where it climbs back to the record, or just before them, where it
    is still at most the record (the window end for the last).
    """

    starts: np.ndarray
    ends: np.ndarray
    values: np.ndarray


class ModulusCurve:
    """Running supremum of the p-th power shift sum of one spectrum on [0, u].

    Construction scans the window once, at least 8 points per period of the
    highest harmonic (:meth:`ModulusGrid.scan_points`), and refines every
    local maximum of the shift sum among the interior grid points and the
    last cell [h_{N-2}, u] (:func:`_refine_peaks`): a local maximum h_j by
    parabolic steps from the triple (h_{j-1}, h_j, h_{j+1}) under
    :meth:`shift_sum`, until its parabola is flat or predicts a gain of at
    most 1e-16 |g|, or its triple is narrower than 4 sqrt(eps) |h_j|; the
    last cell from five points, its ends, its midpoint and one point 1e-8
    of its width inside each end, which settle it on an end (u on a tie) or
    seed one more triple.  A peak that :data:`PARABOLA_STEPS` steps leave
    open evaluates :meth:`shift_sum` once at the :meth:`cusps` inside its
    grid cells, computed only then.  A scan thus costs at most
    1 + :data:`PARABOLA_STEPS` + 1 calls of :meth:`shift_sum` over its
    peaks, and every peak value is an evaluated one.  A query at t <= u
    returns the largest of g(t), the grid values at or below t and the
    refined peaks located at or below t; no search runs inside the partial
    cell ending at t.  Scaling the spectrum scales all values exactly, and
    queries are monotone in t by construction.  :attr:`plateaus` splits
    [0, u] into the stretches where the running supremum is flat and those
    where it follows the shift sum; it is computed when first read.

    The grid values come from the shape's scan table (see the module
    docstring): curves of one shape object, p and u on one scan grid share
    the rows shape(k h_j)^p, so a build evaluates the shape on the grid only
    for the harmonics no earlier curve of that key had.  Peak refinement,
    its seeds included, plateau crossings and queries evaluate
    :meth:`shift_sum` directly, so that a curve's peaks do not depend on
    which rows the table held.
    """

    def __init__(
        self,
        f: SpectralFunction,
        p,
        shape: ShapeFunction,
        u: float,
        # The one place a scan grid is set: perfbench's tracer binds f, shape,
        # u and grid here by name, and scan tests set floors through it.
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
            self._hs, gv = self._scan(self.grid.scan_points(self._kmax, self.u))
            self._run_max = np.maximum.accumulate(gv)
            interior = np.flatnonzero(
                (gv[1:-1] >= gv[:-2]) & (gv[1:-1] >= gv[2:])
            ) + 1
            # a peak inside the last cell is no grid maximum: refine that cell too
            px, pv = _refine_peaks(self.shift_sum, self._hs, interior, self.cusps)
            pv[:-1] = np.maximum(pv[:-1], gv[interior])
            order = np.argsort(px, kind="stable")
            self._peak_x = px[order]
            # entry j + 1 is the best of the first j + 1 peaks; entry 0 (no
            # peak yet) is 0, below every shift sum
            self._peak_run = np.concatenate([[0.0], np.maximum.accumulate(pv[order])])

    def _scan(self, points: int) -> tuple[np.ndarray, np.ndarray]:
        """The scan grid of [0, u] with ``points`` points, and g on it."""
        table = _kept(
            self.shape, ("scan", self.p, self.u, points),
            lambda: _ScanTable(np.linspace(0.0, self.u, points)),
        )
        with _kept_lock:
            return table.hs, table.grid_values(self)

    def shift_sum(self, h):
        """g(h) = sum_k w_k * shape(k h)^p for h >= 0 (vectorized).

        Evaluated in blocks of at most :data:`BLOCK_ELEMENTS` point x
        harmonic elements, so that long queries keep memory bounded.
        """
        h = np.asarray(h, dtype=float)
        if self._ks.size == 0:
            return np.zeros(h.shape)
        rows = max(BLOCK_ELEMENTS // self._ks.size, 1)
        if h.size <= rows:
            return self._pow_sum_block(h)
        flat = h.reshape(-1)
        return np.concatenate([
            self._pow_sum_block(flat[start:start + rows])
            for start in range(0, flat.size, rows)
        ]).reshape(h.shape)

    def _pow_sum_block(self, h: np.ndarray) -> np.ndarray:
        args = np.multiply.outer(h, self._ks)
        return np.asarray(self.shape.eval(args), dtype=float) ** self.p @ self._ws

    def pow_values(self, ts) -> np.ndarray:
        """sup of the p-th power shift sum over [0, t] for each t in ``ts``."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if ts.size and (ts.min() < -1e-15 or ts.max() > self.u * (1.0 + 1e-12) + 1e-300):
            raise ValueError("query outside the precomputed window")
        ts = np.clip(ts, 0.0, self.u)
        out = self.shift_sum(ts)
        if self._fast:
            return out
        # Grid prefix maxima plus refined peaks located at or before t cover
        # every completed hump; on the rising side of the current hump the
        # endpoint evaluation g(t) itself is the supremum.
        idx = np.searchsorted(self._hs, ts, side="right") - 1
        out = np.maximum(out, self._run_max[idx])
        return np.maximum(out, self._peak_run[np.searchsorted(self._peak_x, ts, side="right")])

    @functools.cached_property
    def plateaus(self) -> Plateaus:
        """The piece table: record peaks, their values and their crossings.

        The record peaks are the refined peaks that beat every earlier one.
        The crossing after record j lies before the next record peak, in
        the first scan cell whose grid values pass v_j (or in the stretch
        from that cell's left end to the next peak, when the peak comes
        first); :data:`CROSSING_STEPS` regula falsi steps bracket it inside,
        and plateau j ends at the lower end of the last bracket, at or
        before the crossing, where the shift sum is still at most v_j.
        A curve on the direct path rises all the way and has no plateau.
        """
        if self._fast:
            return Plateaus(np.empty(0), np.empty(0), np.empty(0))
        record = np.flatnonzero(self._peak_run[1:] > self._peak_run[:-1])
        starts, values = self._peak_x[record], self._peak_run[record + 1]
        first = np.searchsorted(self._run_max, values[:-1], side="right")
        hi = np.minimum(self._hs[np.minimum(first, self._hs.size - 1)], starts[1:])
        below = np.maximum(np.searchsorted(self._hs, hi, side="left") - 1, 0)
        lo = np.maximum(self._hs[below], starts[:-1])
        ends = _crossings(self.shift_sum, lo, hi, values[:-1], CROSSING_STEPS)
        return Plateaus(starts, np.append(ends, self.u), values)

    def cusps(self) -> np.ndarray:
        """Sorted points of (0, u) where a term shape(k h)^p of the shift sum
        may fail to be smooth: the shape's breakpoints over each harmonic k
        (none when the shape declares none).  They are singular points of
        the terms only where the breakpoints are at p
        (:meth:`Breakpoints.singular`); elsewhere they are kinks."""
        if self.shape.breakpoints is None or not self._ks.size:
            return np.empty(0)
        tags, points = self.shape.breakpoints.inside(self._ks * self.u)
        return np.unique(points / self._ks[tags])

    def value(self, t: float) -> float:
        """The modulus itself at step t: pow_values(t)^(1/p)."""
        return float(self.pow_values(t)[0] ** (1.0 / self.p))


class _ScanTable:
    """Rows shape(k h_j)^p over one scan grid h_j, one per harmonic k seen so far.

    Its shape keeps it under the key ("scan", p, u, scan points), and it
    serves the curves of that shape object and key.  The rows are kept in
    the blocks they were evaluated in, numbered in order across blocks, so
    that adding rows never copies the old ones.
    """

    def __init__(self, hs: np.ndarray):
        self.hs = hs
        self.hs.flags.writeable = False  # every curve of the key holds it as its grid
        self.blocks: list[np.ndarray] = []
        self.index: dict[float, int] = {}

    def grid_values(self, curve: ModulusCurve) -> np.ndarray:
        """g(h_j) = sum_k w_k shape(k h_j)^p of ``curve``, adding the rows it lacks.

        A curve whose new rows would take the table past
        :data:`MAX_SCAN_POINTS` values scans directly instead.
        """
        ks = curve._ks.tolist()
        new = [k for k in ks if k not in self.index]
        if (len(self.index) + len(new)) * self.hs.size > MAX_SCAN_POINTS:
            _log.debug(
                "curve of %d harmonics passes the scan table cap: it scans directly",
                len(ks),
            )
            return curve.shift_sum(self.hs)
        if new:
            fresh = np.asarray(curve.shape.eval(np.multiply.outer(new, self.hs)), dtype=float)
            self.index.update(zip(new, range(len(self.index), len(self.index) + len(new))))
            self.blocks.append(fresh ** curve.p)
        weights = np.zeros(len(self.index))
        weights[[self.index[k] for k in ks]] = curve._ws
        gv = np.zeros(self.hs.size)
        start = 0
        for block in self.blocks:
            w = weights[start:start + block.shape[0]]
            if w.any():
                gv += w @ block
            start += block.shape[0]
        return gv


def _kept(shape: ShapeFunction, key: tuple, build: Callable[[], object]):
    """The entry ``shape`` keeps under ``key``, from ``build()`` when it has none.

    The keys are ("scan", p, u, scan points) for a :class:`_ScanTable` and
    ("integrals", p, id(mu)) for the dilated shape integrals of
    :func:`spapprox.jackson._shape_integrals`, so neither the shape nor a
    weight is ever hashed; an entry holds its weight, so no other weight can
    take that id while the entry lives.  A shape keeps at most
    :data:`KEPT_PER_SHAPE` entries and drops the least recently used past
    that, with one DEBUG record; the entries die with their shape.  The lock
    makes each look-up atomic, so threads that race for one key get one
    entry.
    """
    with _kept_lock:
        kept = shape._kept
        found = kept.pop(key, None)
        if found is None:
            if len(kept) >= KEPT_PER_SHAPE:
                old = next(iter(kept))
                del kept[old]
                _log.debug("shape %r dropped its %s entry at p=%g", shape.label, old[0], old[1])
            found = build()
        kept[key] = found  # a hit, too, moves its entry to the newest place
        return found


def generalized_modulus(
    f: SpectralFunction,
    p,
    shape: ShapeFunction,
    t: float,
) -> float:
    """Supremum over 0 <= h <= t of the shape-weighted coefficient norm.

    Evenness of the shape halves the shift range; when the whole support
    stays below the shape's cap point the supremum sits at h = t and is
    returned directly.
    """
    if t < 0:
        raise ValueError(f"step must be nonnegative, got {t}")
    return ModulusCurve(f, p, shape, t).value(t)


def difference_modulus_oracle(
    f: SpectralFunction,
    p,
    alpha: float,
    t: float,
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
    ks = np.array(f.support, dtype=float)
    ks = ks[ks != 0]
    if ks.size == 0 or t == 0.0:
        return 0.0
    ws = np.array([abs(f[int(k)]) ** p for k in ks])

    def d(h):
        h = np.asarray(h, dtype=float)
        mult = np.abs(1.0 - np.exp(-1j * np.multiply.outer(h, ks)))
        return mult ** (alpha * p) @ ws

    hs = np.linspace(0.0, t, ModulusGrid().scan_points(float(np.abs(ks).max()), t))
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
