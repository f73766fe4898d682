"""Budgeted vectorized quadrature: adaptive Simpson, nested cells, tanh-sinh panels.

Three integrators share one contract.  The integrand must be vectorized
(ndarray in, ndarray out); each routine keeps a work list of panels, splits
every non-converged panel once per pass, and accounts for each point
evaluation against a hard budget.  Running out of budget raises, it never
truncates silently.

* :func:`adaptive_simpson` integrates one function over one interval; it
  serves a single dilation of ``averaging.dilated_integrals``.
* :func:`nested_integrals` integrates F w_i over nested intervals [a, b_i]
  on cells shared by all of them: F is evaluated once per node for all
  integrals, w_i is a cheap factor per (cell, integral) pair.  A cell with
  a declared singular end gets a tanh-sinh pair, any other a Gauss-Kronrod
  7/15 pair.  It serves the batch of ``averaging.dilated_integrals`` and
  the rising stretches of the averaged moduli of one curve over many
  windows.
* :func:`tanh_sinh_panels` integrates many integrals at once from panels
  tagged with the integral they belong to.  Each panel gets a nested pair of
  double-exponential (tanh-sinh) rules, which converge exponentially even
  with an algebraic singularity of any order at a panel end (Takahasi and
  Mori, 1974).  Callers that know where their integrand is not smooth put
  panel edges there (breakpoint seeding, as in QUADPACK).  Every dilated
  shape integral, capped or not, goes through it.  For a shape that
  declares a period, the first pass takes shape^p from one table, built by
  the caller, on the nodes of each gap between breakpoints of a period:
  every panel spanning such a gap whole, in the shape's variable, has the
  same nodes there.
  The partial last panel of each dilation, panels that end at a density
  breakpoint, bisected halves, and shapes without a period (tabulated and
  capped shapes) evaluate the integrand directly.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 10**6
#: Most integrand points evaluated at once by :func:`tanh_sinh_panels`.
BLOCK_NODES = 2**15


def _tanh_sinh_rule(level: int, t_max: float) -> tuple[np.ndarray, int, np.ndarray]:
    """Nested tanh-sinh pair on [-1, 1] with steps 2^-level and 2^-(level+1).

    Returns the distance of each node from the panel end it is measured
    from (as a fraction of the half-width), the number of leading nodes
    measured from the left end (the midpoint and the left half; the rest
    are measured from the right end), and a (nodes, 2) matrix of the fine
    and the coarse weights; the coarse rule uses every other node of the
    fine one.  Distances are computed as 1 - tanh(u) = 2 / (1 + e^(2u))
    directly, so the nodes next to an end keep their full relative
    precision.
    """
    h = 2.0 ** -(level + 1)
    t = h * np.arange(int(round(t_max / h)) + 1)
    u = 0.5 * math.pi * np.sinh(t)
    dist = 2.0 / (1.0 + np.exp(2.0 * u))
    fine = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    coarse = np.where(np.arange(t.size) % 2 == 0, 2.0 * fine, 0.0)
    # node order: the midpoint, then the left half, then the right half
    weights = np.stack([np.concatenate([w, w[1:]]) for w in (fine, coarse)], axis=1)
    return np.concatenate([dist, dist[1:]]), t.size, weights


#: Levels 3 and 4 on |t| <= 3.25: 105 nodes, of which the coarse rule uses
#: 53.  Beyond 3.25 the nodes lie within 5e-18 half-widths of an end.
_TS_DIST, _TS_SPLIT, _TS_WEIGHTS = _tanh_sinh_rule(3, 3.25)
#: Gauss-Kronrod 7/15 pair in the same layout: abscissae 0 <= x < 1 of the
#: Kronrod rule, its weights, and the weights of the Gauss rule on every
#: other abscissa (Piessens et al., QUADPACK, 1983).
_GK_X = np.array([
    0.0, 0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_GK_KRONROD = np.array([
    0.209482141084727828012999174891714, 0.204432940075298892414161999234649,
    0.190350578064785409913256402421014, 0.169004726639267902826583426598550,
    0.140653259715525918745189590510238, 0.104790010322250183839876322541518,
    0.063092092629978553290700663189204, 0.022935322010529224963732008058970,
])
_GK_GAUSS = np.array([
    0.417959183673469387755102040816327, 0.0, 0.381830050505118944950369775488975, 0.0,
    0.279705391489276667901467771423780, 0.0, 0.129484966168869693270611432679082, 0.0,
])
_GK_DIST = np.concatenate([1.0 - _GK_X, 1.0 - _GK_X[1:]])
_GK_SPLIT = _GK_X.size
_GK_WEIGHTS = np.stack(
    [np.concatenate([w, w[1:]]) for w in (_GK_KRONROD, _GK_GAUSS)], axis=1
)
#: Relative floor and bisection limit of every integrator.
_REL_FLOOR = 1e-12
_MAX_PASSES = 64


def _panel_nodes(
    a: np.ndarray, b: np.ndarray, dist: np.ndarray = _TS_DIST, split: int = _TS_SPLIT
) -> np.ndarray:
    """The (panels, nodes) nodes of a rule (tanh-sinh by default) on each [a[j], b[j]]."""
    half = 0.5 * (b - a)
    xs = np.empty((a.size, dist.size))
    xs[:, :split] = a[:, None] + half[:, None] * dist[:split]
    xs[:, split:] = b[:, None] - half[:, None] * dist[split:]
    return xs


def _accepted_error(value: float) -> float:
    """The most an accepted integral of this value may keep as its error estimate.

    Every integrator accepts a panel whose two rules agree within its
    width's share of :data:`DEFAULT_TOL` or within the relative floor, so
    the estimates of one integral add up to at most this.
    """
    return DEFAULT_TOL + _REL_FLOOR * abs(value)


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tag i repeated counts[i] times, and the rank of each entry in its run."""
    tag = np.repeat(np.arange(counts.size), counts)
    return tag, np.arange(tag.size) - (np.cumsum(counts) - counts)[tag]


class QuadratureBudgetError(RuntimeError):
    """Raised when the evaluation budget is exhausted before convergence."""


class NonFiniteIntegrandError(ValueError):
    """Raised when the integrand returns NaN or infinity on a probe point."""


def _check_finite(
    values: np.ndarray, points: np.ndarray, owner: np.ndarray, context: Callable[[int], str]
) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(owner[np.argmax(bad)])
        where = points[bad & (owner == i)][:4]
        raise NonFiniteIntegrandError(
            f"{context(i)}: non-finite integrand value(s) at t={where.tolist()}"
        )


def adaptive_simpson(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    initial_panels: int = 64,
    context: str = "quadrature",
) -> float:
    """Integrate ``g`` over ``[a, b]`` to absolute tolerance ``tol``.

    ``initial_panels`` sets the uniform starting subdivision; callers
    integrating oscillatory functions should scale it with the expected
    number of oscillations so that the error estimate is trustworthy.  A
    panel is accepted when the Richardson error estimate there is within
    its width share of ``tol`` or the relative floor 1e-12 of its value;
    otherwise it is bisected, at most 64 times.  Every point counts against
    ``budget``; ``context`` names the integral in errors.  ``g`` is called
    once for the starting nodes and twice per pass.
    """
    if b < a:
        raise ValueError(f"{context}: inverted interval [{a}, {b}]")
    if not b > a:
        return 0.0

    def check(values, points):
        _check_finite(values, points, np.zeros(values.size, dtype=np.intp), lambda i: context)

    panels = max(initial_panels, 1)
    xs = np.append(np.arange(2 * panels) * ((b - a) / (2 * panels)) + a, b)
    fx = np.asarray(g(xs), dtype=float)
    left, mid, right = xs[:-2:2], xs[1:-1:2], xs[2::2]
    f_l, f_m, f_r = fx[:-2:2], fx[1:-1:2], fx[2::2]
    for v, t in ((f_l, left), (f_m, mid), (f_r, right)):
        check(v, t)
    estimate = (right - left) / 6.0 * (f_l + 4.0 * f_m + f_r)
    used, total = xs.size, 0.0

    # Local acceptance threshold proportional to panel width keeps the
    # accumulated error below tol after the Richardson correction.
    scale = 15.0 * tol / (b - a)
    for _ in range(_MAX_PASSES):
        used += 2 * right.size
        if used > budget:
            raise QuadratureBudgetError(
                f"{context}: evaluation budget {budget} exhausted "
                f"({right.size} panels still refining)"
            )
        mid_l = 0.5 * (left + mid)
        mid_r = 0.5 * (mid + right)
        f_ml = np.asarray(g(mid_l), dtype=float)
        f_mr = np.asarray(g(mid_r), dtype=float)
        check(f_ml, mid_l)
        check(f_mr, mid_r)
        s_left = (mid - left) / 6.0 * (f_l + 4.0 * f_ml + f_m)
        s_right = (right - mid) / 6.0 * (f_m + 4.0 * f_mr + f_r)
        refined = s_left + s_right
        err = refined - estimate
        done = np.abs(err) <= np.maximum(
            scale * (right - left), 15.0 * _REL_FLOOR * np.abs(refined)
        )
        # a running sum, in panel order
        total += float(np.cumsum(np.where(done, refined + err / 15.0, 0.0))[-1])
        if done.all():
            return total

        keep = ~done
        left = np.concatenate([left[keep], mid[keep]])
        right = np.concatenate([mid[keep], right[keep]])
        mid = np.concatenate([mid_l[keep], mid_r[keep]])
        f_l = np.concatenate([f_l[keep], f_m[keep]])
        f_r = np.concatenate([f_m[keep], f_r[keep]])
        f_m = np.concatenate([f_ml[keep], f_mr[keep]])
        estimate = np.concatenate([s_left[keep], s_right[keep]])
    raise QuadratureBudgetError(f"{context}: refinement depth {_MAX_PASSES} exceeded")


def nested_integrals(
    F: Callable[[np.ndarray], np.ndarray],
    w: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b,
    *,
    support: tuple[np.ndarray, np.ndarray] | None = None,
    breakpoints=(),
    singular=(),
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    context: Callable[[int], str] = lambda i: f"integral {i}",
) -> np.ndarray:
    """integral_a^b[i] F(t) w(t, i) dt for every i, on cells shared by all i.

    ``support`` = (lo, hi) lists sorted disjoint stretches outside which the
    integrand counts as 0 (None: all of [a, max b]).  The stretches are cut
    into cells at every b[i], every point of ``breakpoints`` and every
    point of ``singular``; integral i covers the cells inside [a, b[i]].  F
    is evaluated once per node for all the integrals that cover its cell,
    ``w(t, i)`` per (cell, integral) pair, with t of shape (pairs, nodes)
    and i of shape (pairs, 1).  A cell with an end in
    ``singular`` gets the nested tanh-sinh pair of :func:`tanh_sinh_panels`,
    which converges exponentially with an algebraic singularity at that end;
    any other cell gets the Gauss-Kronrod 7/15 pair (Piessens et al.,
    QUADPACK, 1983).  Integral i accepts a cell when the two rules agree
    within the cell's width share of ``tol`` in [a, b[i]], or within the
    relative floor 1e-12; a cell is bisected, at most 64 times, while an
    integral that covers it rejects, and only the rejecting integrals go on
    to its halves (a half keeps the tanh-sinh pair only at a singular end).
    The ``budget`` of integral i counts the nodes of the cells it
    integrates; ``context(i)`` names it in errors.  F is called once per
    pass, and pairs are weighted in blocks of at most :data:`BLOCK_NODES`
    points.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if np.any(b < a):
        i = int(np.argmax(b < a))
        raise ValueError(f"{context(i)}: inverted interval [{a}, {b[i]}]")
    totals = np.zeros(b.size)
    top = float(b.max()) if b.size else a
    if not top > a:
        return totals
    singular = np.asarray(singular, dtype=float).ravel()
    cuts = [[a, top], b, np.asarray(breakpoints, dtype=float).ravel(), singular]
    if support is not None:
        starts, stops = (np.asarray(x, dtype=float) for x in support)
        cuts += [starts, stops]
    edges = np.unique(np.concatenate(cuts))
    edges = edges[(edges >= a) & (edges <= top)]
    left, right = edges[:-1], edges[1:]
    if support is not None:
        mid = 0.5 * (left + right)
        j = np.searchsorted(starts, mid, side="right") - 1
        inside = (j >= 0) & (mid < stops[np.maximum(j, 0)])
        left, right = left[inside], right[inside]
    # a cell with a singular end gets tanh-sinh, and so does the half of it
    # that keeps that end
    sing_l, sing_r = np.isin(left, singular), np.isin(right, singular)
    # pair k is integral win[k] on cell cell[k]: cell c belongs to every
    # integral with b[i] >= right[c]
    order = np.argsort(b, kind="stable")
    first = np.searchsorted(b[order], right, side="left")
    cell, rank = _spread(b.size - first)
    win = order[first[cell] + rank]
    scale = tol / np.where(b > a, b - a, 1.0)
    used = np.zeros(b.size, dtype=np.int64)
    rules = {False: (_GK_DIST, _GK_SPLIT, _GK_WEIGHTS), True: (_TS_DIST, _TS_SPLIT, _TS_WEIGHTS)}
    for _ in range(_MAX_PASSES):
        if not cell.size:
            return totals
        uses_ts = sing_l | sing_r
        size = np.where(uses_ts, _TS_DIST.size, _GK_DIST.size)
        used += np.bincount(win, size[cell], minlength=b.size).astype(np.int64)
        over = np.flatnonzero(used > budget)
        if over.size:
            i = int(over[0])
            raise QuadratureBudgetError(
                f"{context(i)}: evaluation budget {budget} exhausted "
                f"({int(np.sum(win == i))} cells still refining)"
            )
        # the nodes of every cell under its rule, all in one call of F
        row = np.empty(left.size, dtype=np.intp)  # row of each cell in its group
        groups = []
        for flag, (dist, split, weights) in rules.items():
            members = np.flatnonzero(uses_ts == flag)
            row[members] = np.arange(members.size)
            lo, hi = left[members], right[members]
            half = 0.5 * (hi - lo)
            xs = _panel_nodes(lo, hi, dist, split)
            groups.append((np.flatnonzero(uses_ts[cell] == flag), xs, half, weights))
        fx = np.asarray(F(np.concatenate([xs.ravel() for _, xs, _, _ in groups])), dtype=float)
        offset, rejected = 0, np.zeros(cell.size, dtype=bool)
        for pairs, xs, half, weights in groups:
            values = fx[offset:offset + xs.size].reshape(xs.shape)
            offset += xs.size
            step = max(BLOCK_NODES // xs.shape[1], 1)
            for start in range(0, pairs.size, step):
                k = pairs[start:start + step]
                r, i = row[cell[k]], win[k]
                t = xs[r]
                vals = values[r] * w(t, i[:, None])
                _check_finite(vals.ravel(), t.ravel(), np.repeat(i, t.shape[1]), context)
                fine, coarse = (vals @ weights).T * half[r]
                done = np.abs(fine - coarse) <= np.maximum(
                    scale[i] * (2.0 * half[r]), _REL_FLOOR * np.abs(fine)
                )
                totals += np.bincount(i[done], fine[done], minlength=b.size)
                rejected[k[~done]] = True
        if not rejected.any():
            return totals
        # bisect every cell that an integral rejects; the rejecting pairs go
        # on to both halves
        split_cells = np.unique(cell[rejected])
        child = np.empty(left.size, dtype=np.intp)
        child[split_cells] = np.arange(split_cells.size)
        lo, hi = left[split_cells], right[split_cells]
        mid = 0.5 * (lo + hi)
        left, right = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        smooth = np.zeros(split_cells.size, dtype=bool)
        sing_l = np.concatenate([sing_l[split_cells], smooth])
        sing_r = np.concatenate([smooth, sing_r[split_cells]])
        c = child[cell[rejected]]
        cell = np.concatenate([c, c + split_cells.size])
        win = np.concatenate([win[rejected], win[rejected]])
    raise QuadratureBudgetError(
        f"{context(int(win[0]))}: refinement depth {_MAX_PASSES} exceeded"
    )


def tanh_sinh_panels(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    left,
    right,
    owner,
    *,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    context: Callable[[int], str] = lambda i: f"integral {i}",
    _tabled=None,
) -> np.ndarray:
    """Integrate many integrals at once over tagged panels.

    Panel ``j`` is ``[left[j], right[j]]`` and belongs to integral
    ``owner[j]``; owners are numbered 0..N-1 and the result holds the N
    integrals.  ``g(t, i)`` gets the points and, pointwise, the integral
    each belongs to.  A panel is accepted when its nested tanh-sinh pair
    agrees to within its width's share of ``tol`` in its integral, or to
    the relative floor 1e-12; otherwise it is bisected, at most 64 times.
    Every point counts against the integral's ``budget``; ``context(i)``
    names integral ``i`` in errors.  Points are evaluated in blocks of at
    most :data:`BLOCK_NODES`.

    ``_tabled`` serves ``jackson._ShapeIntegrals`` alone: a tuple
    (rows, table, weight) under which, in the first pass, panel j with
    rows[j] = r >= 0 takes table[r] * weight(t, i) at its nodes t; the
    caller vouches that this is g(t, i) there.  The budget counts those
    panels' nodes as evaluated, and their bisected halves call ``g``.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    if np.any(right < left):
        j = int(np.argmax(right < left))
        raise ValueError(f"{context(int(owner[j]))}: inverted panel [{left[j]}, {right[j]}]")
    count = int(owner.max()) + 1 if owner.size else 0
    totals = np.zeros(count)
    span = np.bincount(owner, right - left, minlength=count)
    span[span == 0.0] = 1.0  # an integral of zero length accepts at once
    used = np.zeros(count, dtype=np.int64)
    nodes = _TS_DIST.size
    per_block = max(BLOCK_NODES // nodes, 1)
    rows = None
    if _tabled is not None:
        rows, table, weight = _tabled
        rows = np.asarray(rows, dtype=np.intp)
        # tabled panels first: a block then holds at most one run of each
        # kind, and the direct panels share a few calls of g
        first = np.argsort(rows < 0, kind="stable")
        left, right, owner, rows = left[first], right[first], owner[first], rows[first]
        tabled = int(np.sum(rows >= 0))
    for _ in range(_MAX_PASSES):
        used += nodes * np.bincount(owner, minlength=count)
        over = np.flatnonzero(used > budget)
        if over.size:
            i = int(over[0])
            raise QuadratureBudgetError(
                f"{context(i)}: evaluation budget {budget} exhausted "
                f"({int(np.sum(owner == i))} panels still refining)"
            )
        rejected = []
        for start in range(0, left.size, per_block):
            a = left[start:start + per_block]
            b = right[start:start + per_block]
            o = owner[start:start + per_block]
            half = 0.5 * (b - a)
            xs = _panel_nodes(a, b)
            tags = np.repeat(o, nodes)
            if rows is None:
                fx = np.asarray(g(xs.ravel(), tags), dtype=float)
            else:
                # the first m panels take table times weight, the rest call g
                m = min(max(tabled - start, 0), a.size) * nodes
                fx = np.empty(xs.size)
                if m:
                    fx[:m] = np.asarray(weight(xs.ravel()[:m], tags[:m]), dtype=float)
                    fx[:m] *= table[rows[start:start + m // nodes]].ravel()
                if m < fx.size:
                    fx[m:] = np.asarray(g(xs.ravel()[m:], tags[m:]), dtype=float)
            _check_finite(fx, xs.ravel(), tags, context)
            fx = fx.reshape(xs.shape)
            fine, coarse = (fx @ _TS_WEIGHTS).T * half
            done = np.abs(fine - coarse) <= np.maximum(
                tol * (b - a) / span[o], _REL_FLOOR * np.abs(fine)
            )
            totals += np.bincount(o[done], fine[done], minlength=count)
            if not done.all():
                rejected.append((a[~done], b[~done], o[~done]))
        if not rejected:
            return totals
        a, b, o = (np.concatenate(part) for part in zip(*rejected))
        mid = 0.5 * (a + b)
        left = np.concatenate([a, mid])
        right = np.concatenate([mid, b])
        owner = np.concatenate([o, o])
        rows = None
    raise QuadratureBudgetError(
        f"{context(int(owner[0]))}: refinement depth {_MAX_PASSES} exceeded"
    )
