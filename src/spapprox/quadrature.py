"""Budgeted vectorized quadrature: adaptive Simpson and nested cells.

Two integrators share one contract.  The integrand must be vectorized
(ndarray in, ndarray out); each routine keeps a work list of panels, splits
every non-converged panel once per pass, and accounts for each point
evaluation against a hard budget.  Running out of budget raises, it never
truncates silently.  Callers that know where their integrand is not smooth
put panel edges there (breakpoint seeding, as in QUADPACK: Piessens et al.,
1983): a kink at a panel edge costs no bisection, a kink inside a panel
costs one pass per halving of the panel that holds it.

* :func:`adaptive_simpson` integrates one function over one interval from
  64 uniform panels, cut at the caller's breakpoints; it serves a single
  dilation of ``averaging.dilated_integrals``, whose density knots and
  integrand kinks are those breakpoints.
* :func:`nested_integrals` integrates F w_i over nested intervals [a, b_i]
  on cells shared by all of them: F is evaluated once per node for all
  integrals, w_i is a cheap factor per (cell, integral) pair.  A cell with
  a declared singular end gets a nested pair of double-exponential
  (tanh-sinh) rules, which converge exponentially with an algebraic
  singularity at that end (Takahasi and Mori, 1974); any other cell gets a
  Gauss-Kronrod 7/15 pair.  Callers declare singular only the points where
  the integrand is not analytic on either side, and pass a point where it
  is analytic on each side (a cusp |t - c|^m, m a positive integer) as a
  plain breakpoint, whose cells take Gauss-Kronrod.  It serves every other weight integral: the
  batch of ``averaging.dilated_integrals``, every dilated shape integral of
  ``jackson``, capped or not, the rising stretches of the averaged moduli
  of one curve over many windows and the cumulative function of a density
  without a closed form.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 10**6
#: Most integrand points weighted at once by :func:`nested_integrals`.
BLOCK_NODES = 2**15


def _tanh_sinh_rule(level: int, t_max: float) -> tuple[np.ndarray, int, np.ndarray]:
    """Nested tanh-sinh pair on [-1, 1] with steps 2^-level and 2^-(level+1).

    Returns the distance of each node from the panel end it is measured
    from (as a fraction of the half-width), the number of leading nodes
    measured from the left end (the midpoint and the left half; the rest
    are measured from the right end), and a (nodes, 4) matrix of weights:
    the fine and the coarse rule, the coarse one on every other node of the
    fine one, then the fine weight of the outermost node on the left and on
    the right, 0 elsewhere.  Distances are computed as
    1 - tanh(u) = 2 / (1 + e^(2u)) directly, so the nodes next to an end
    keep their full relative precision.
    """
    h = 2.0 ** -(level + 1)
    t = h * np.arange(int(round(t_max / h)) + 1)
    u = 0.5 * math.pi * np.sinh(t)
    dist = 2.0 / (1.0 + np.exp(2.0 * u))
    fine = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    coarse = np.where(np.arange(t.size) % 2 == 0, 2.0 * fine, 0.0)
    outer = np.where(np.arange(t.size) == t.size - 1, fine, 0.0)
    # node order: the midpoint, then the left half, then the right half
    none = np.zeros(t.size)
    weights = np.stack(
        [np.concatenate([w, v[1:]])
         for w, v in ((fine, fine), (coarse, coarse), (outer, none), (none, outer))],
        axis=1,
    )
    return np.concatenate([dist, dist[1:]]), t.size, weights


#: Levels 3 and 4 on |t| <= 3.25: 105 nodes, of which the coarse rule uses
#: 53.  Beyond 3.25 the nodes lie within 5e-18 half-widths of an end.
_TS_DIST, _TS_SPLIT, _TS_WEIGHTS = _tanh_sinh_rule(3, 3.25)
#: Gauss-Kronrod 7/15 pair in the same layout: abscissae 0 <= x < 1 of the
#: Kronrod rule, its weights, and the weights of the Gauss rule on every
#: other abscissa (Piessens et al., QUADPACK, 1983); its nodes stay clear of
#: the ends, so it has no outermost terms.
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
    [np.concatenate([w, w[1:]]) for w in (_GK_KRONROD, _GK_GAUSS)]
    + [np.zeros(_GK_DIST.size)] * 2, axis=1
)
#: The (node distances, split, weights) of each rule, by whether a cell has a singular end.
_RULES = ((False, (_GK_DIST, _GK_SPLIT, _GK_WEIGHTS)), (True, (_TS_DIST, _TS_SPLIT, _TS_WEIGHTS)))
#: Relative floor and bisection limit of every integrator; the halves that
#: close in on an integrable singularity at 0, where floats are dense, may
#: take a hundred passes.
_REL_FLOOR = 1e-12
_MAX_PASSES = 128
#: Uniform panels that :func:`adaptive_simpson` starts from.
_START_PANELS = 64
#: A cell of :func:`nested_integrals` this many ulps wide or less is a sliver.
_SLIVER_ULPS = 4


def _panel_nodes(a: np.ndarray, b: np.ndarray, dist: np.ndarray, split: int) -> np.ndarray:
    """The (panels, nodes) nodes of a rule on each [a[j], b[j]]."""
    half = 0.5 * (b - a)
    xs = np.empty((a.size, dist.size))
    xs[:, :split] = a[:, None] + half[:, None] * dist[:split]
    xs[:, split:] = b[:, None] - half[:, None] * dist[split:]
    return xs


def _accepted_error(value: float) -> float:
    """The most an accepted integral of this value may keep as its error estimate.

    Every integrator accepts a panel whose two rules agree within its
    share of :data:`DEFAULT_TOL` or within the relative floor.  The shares
    of one integral add up to its width, and in :func:`nested_integrals`
    at most twice more for the halves that keep a singular end (two per
    first cell), so the estimates of one integral add up to at most this.
    """
    return 3.0 * DEFAULT_TOL + _REL_FLOOR * abs(value)


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
    breakpoints=(),
    context: str = "quadrature",
) -> float:
    """Integrate ``g`` over ``[a, b]`` to absolute tolerance ``tol``.

    The first pass starts from :data:`_START_PANELS` uniform panels.  Every
    point of ``breakpoints`` strictly inside (a, b) is a panel edge of the
    first pass too (breakpoint seeding, as in QUADPACK), so a kink of ``g``
    declared there is no panel's interior point; without one the start is
    the uniform subdivision alone, node for node.  Callers integrating
    oscillatory functions should add edges in proportion to the expected
    number of oscillations, so that the error estimate is trustworthy.  A
    panel is accepted when the Richardson error estimate there is within
    its width share of ``tol`` or the relative floor 1e-12 of its value;
    otherwise it is bisected, at most 128 times.  Every point counts against
    ``budget``; ``context`` names the integral in errors.  ``g`` is called
    once for the starting nodes and twice per pass.
    """
    if b < a:
        raise ValueError(f"{context}: inverted interval [{a}, {b}]")
    if not b > a:
        return 0.0

    def check(values, points):
        _check_finite(values, points, np.zeros(values.size, dtype=np.intp), lambda i: context)

    xs = np.append(np.arange(2 * _START_PANELS) * ((b - a) / (2 * _START_PANELS)) + a, b)
    cuts = np.asarray(breakpoints, dtype=float).ravel()
    cuts = cuts[(cuts > a) & (cuts < b)]
    if cuts.size:
        edges = np.union1d(xs[::2], cuts)
        xs = np.empty(2 * edges.size - 1)
        xs[::2] = edges
        xs[1::2] = 0.5 * (edges[:-1] + edges[1:])
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




def _sliver(x: np.ndarray) -> np.ndarray:
    """The width up to which a cell ending at x is a sliver: :data:`_SLIVER_ULPS` ulps of x."""
    return _SLIVER_ULPS * np.spacing(np.abs(x))


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
    into cells at every point of ``breakpoints`` and every point of
    ``singular``.  Integral i covers the cells inside [a, b[i]] and one
    partial cell, from the last edge below b[i] to b[i], that it shares only
    with the integrals of the same end: an end cuts the cells of the other
    integrals only when it is listed among ``breakpoints``, and a cell that
    no integral covers is never evaluated.  Rounding may put a kink a few
    ulps from another edge, and the nodes of so narrow a cell collapse onto
    its two ends, where its rules never agree: so a cut within
    :data:`_SLIVER_ULPS` ulps of the edge before it (or of a) is dropped,
    the edge that stays keeping the singular flag, a partial cell that
    narrow is dropped too, and an end that narrow below an edge moves onto
    it.

    F is evaluated once per node for all the integrals that cover its cell,
    ``w(t, i)`` per (cell, integral) pair, with t of shape (pairs, nodes)
    and i of shape (pairs, 1).  A cell with an end in ``singular`` gets the
    nested tanh-sinh pair, which converges exponentially with an algebraic
    singularity at that end; any other cell gets the Gauss-Kronrod 7/15
    pair (Piessens et al., QUADPACK, 1983).  Integral i accepts a cell when
    the two rules agree within the cell's share of ``tol``, or within the
    relative floor 1e-12; the share is the cell's width over b[i] - a.  Next
    to an integrable singularity the two tanh-sinh rules differ by about
    the tail that both miss beyond their outermost nodes, which shrinks
    slower than the width: so the terms of those two nodes count into the
    error estimate of a tanh-sinh cell, and a half that keeps a singular end
    keeps the share of the cell it was cut from.  A cell is bisected, at
    most 128 times, while an integral that covers it rejects, and only the
    rejecting integrals go on to its halves (a half keeps the tanh-sinh pair
    only at a singular end).  The ``budget`` of integral i counts the nodes
    of the cells it integrates; ``context(i)`` names it in errors.  F is
    called once per pass, and pairs are weighted in blocks of at most
    :data:`BLOCK_NODES` points.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if (b < a).any():
        i = int(np.argmax(b < a))
        raise ValueError(f"{context(i)}: inverted interval [{a}, {b[i]}]")
    totals = np.zeros(b.size)
    top = float(b.max()) if b.size else a
    if not top > a:
        return totals
    singular = np.ravel(singular)
    cuts = [singular, [a], np.ravel(breakpoints)]
    if support is not None:
        starts, stops = (np.asarray(x, dtype=float) for x in support)
        cuts += [starts, stops]
    points = np.concatenate(cuts, dtype=float)
    sorting = np.argsort(points, kind="stable")
    points = points[sorting]
    # a cut a sliver above the last end still flags that end
    kept = (points >= a) & (points <= top + _sliver(top))
    points, marks = points[kept], sorting[kept] < singular.size
    # a cut within a sliver of the one before it (or equal to it) ends no cell
    new = np.empty(points.size, dtype=bool)
    new[0] = True
    np.greater(points[1:] - points[:-1], _sliver(points[1:]), out=new[1:])
    firsts = np.flatnonzero(new)
    edges, flags = points[firsts], np.logical_or.reduceat(marks, firsts)
    # in order of their ends, integral i covers the whole cells before edge
    # last[i], then its own partial cell from that edge to its end; an end
    # a sliver below an edge moves onto it
    order = np.argsort(b, kind="stable")
    ends = b[order]
    slivers = _sliver(ends)
    last = np.searchsorted(edges, ends + slivers, side="right") - 1
    stub = ends - edges[last] > slivers
    head = stub.copy()  # the first integral of each partial cell
    head[1:] &= ends[1:] != ends[:-1]
    whole = int(last[-1])
    tops = last[head]
    left = np.concatenate([edges[:whole], edges[tops]])
    right = np.concatenate([edges[1:whole + 1], ends[head]])
    sing_l = np.concatenate([flags[:whole], flags[tops]])
    sing_r = np.concatenate([flags[1:whole + 1], np.zeros(tops.size, dtype=bool)])
    # pair k is integral win[k] on cell cell[k]; the partial cells follow
    # the whole ones, numbered by the running count of heads
    tag, cell = _spread(last)
    win = order[np.concatenate([tag, np.flatnonzero(stub)])]
    cell = np.concatenate([cell, whole - 1 + np.cumsum(head)[stub]])
    if support is not None:
        mid = 0.5 * (left + right)
        j = np.searchsorted(starts, mid, side="right") - 1
        inside = (j >= 0) & (mid < stops[np.maximum(j, 0)])
        covered = inside[cell]
        cell, win = (np.cumsum(inside) - 1)[cell[covered]], win[covered]
        left, right, sing_l, sing_r = left[inside], right[inside], sing_l[inside], sing_r[inside]
    share = right - left
    scale = tol / np.where(b > a, b - a, 1.0)
    used = np.zeros(b.size)
    for _ in range(_MAX_PASSES):
        if not cell.size:
            return totals
        uses_ts = sing_l | sing_r
        size = np.where(uses_ts, _TS_DIST.size, _GK_DIST.size)
        used += np.bincount(win, size[cell], minlength=b.size)
        over = used > budget
        if over.any():
            i = int(np.argmax(over))
            raise QuadratureBudgetError(
                f"{context(i)}: evaluation budget {budget} exhausted "
                f"({int(np.sum(win == i))} cells still refining)"
            )
        # the nodes of every cell under its rule, all in one call of F
        row = np.empty(left.size, dtype=np.intp)  # row of each cell in its group
        groups, pair_ts = [], uses_ts[cell]
        for flag, (dist, split, weights) in _RULES:
            members = np.flatnonzero(uses_ts == flag)
            if not members.size:
                continue
            row[members] = np.arange(members.size)
            lo, hi = left[members], right[members]
            xs = _panel_nodes(lo, hi, dist, split)
            groups.append((np.flatnonzero(pair_ts == flag), xs, 0.5 * (hi - lo), weights))
        fx = np.asarray(F(np.concatenate([g[1].ravel() for g in groups])), dtype=float)
        offset, rejected = 0, np.zeros(cell.size, dtype=bool)
        for pairs, xs, half, weights in groups:
            values = fx[offset:offset + xs.size].reshape(xs.shape)
            offset += xs.size
            step = max(BLOCK_NODES // xs.shape[1], 1)
            for start in range(0, pairs.size, step):
                k = pairs[start:start + step]
                c, i = cell[k], win[k]
                r = row[c]
                t = xs[r]
                vals = values[r] * w(t, i[:, None])
                with np.errstate(invalid="ignore"):
                    fine, coarse, *outer = (vals @ weights).T * half[r]
                # every fine weight is positive, so a non-finite value
                # leaves a non-finite sum
                if not np.isfinite(fine).all():
                    _check_finite(vals.ravel(), t.ravel(), np.repeat(i, t.shape[1]), context)
                err = np.abs(fine - coarse) + np.abs(outer[0]) + np.abs(outer[1])
                done = err <= np.maximum(scale[i] * share[c], _REL_FLOOR * np.abs(fine))
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
        kept, sing_l, sing_r = share[split_cells], sing_l[split_cells], sing_r[split_cells]
        share = np.concatenate([np.where(sing_l, kept, mid - lo), np.where(sing_r, kept, hi - mid)])
        smooth = np.zeros(split_cells.size, dtype=bool)
        sing_l = np.concatenate([sing_l, smooth])
        sing_r = np.concatenate([smooth, sing_r])
        c = child[cell[rejected]]
        cell = np.concatenate([c, c + split_cells.size])
        win = np.concatenate([win[rejected], win[rejected]])
    raise QuadratureBudgetError(
        f"{context(int(win[0]))}: refinement depth {_MAX_PASSES} exceeded"
    )
