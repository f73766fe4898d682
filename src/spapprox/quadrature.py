"""Budgeted vectorized quadrature: adaptive Simpson and tanh-sinh panels.

Two integrators share one contract.  The integrand must be vectorized
(ndarray in, ndarray out); each routine keeps a work list of panels, splits
every non-converged panel once per pass, and accounts for each point
evaluation against a hard budget.  Running out of budget raises, it never
truncates silently.

* :func:`simpson_integrals` integrates F w_i over nested intervals [a, b_i]
  by adaptive Simpson on one node set: F is evaluated once per node for all
  integrals, w_i is a cheap factor per integral.  It serves the batch of
  ``averaging.dilated_integrals``, the averaged moduli of one curve over
  many windows.  :func:`adaptive_simpson` is its one-integral call (w = 1),
  for weight masses and a single dilation.
* :func:`tanh_sinh_panels` integrates many integrals at once from panels
  tagged with the integral they belong to.  Each panel gets a nested pair of
  double-exponential (tanh-sinh) rules, which converge exponentially even
  with an algebraic singularity of any order at a panel end (Takahasi and
  Mori, 1974).  Callers that know where their integrand is not smooth put
  panel edges there (breakpoint seeding, as in QUADPACK).  Every dilated
  shape integral, capped or not, goes through it.
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
#: Relative floor and bisection limit of both integrators.
_REL_FLOOR = 1e-12
_MAX_PASSES = 64


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
    number of oscillations so that the error estimate is trustworthy.  This
    is the one-integral call of :func:`simpson_integrals`, with w = 1.
    """
    return float(simpson_integrals(
        g, None, a, [b], tol=tol, budget=budget, initial_panels=initial_panels,
        context=lambda i: context,
    )[0])


def simpson_integrals(
    F: Callable[[np.ndarray], np.ndarray],
    w: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    a: float,
    b,
    *,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    initial_panels: int = 64,
    context: Callable[[int], str] = lambda i: f"integral {i}",
) -> np.ndarray:
    """integral_a^b[i] F(t) w(t, i) dt for every i, on one shared node set.

    ``F`` is evaluated once per node for all integrals; ``w(t, i)`` gets
    points and, pointwise, the integral each belongs to (None means w = 1).
    Every b[i] is a panel edge: the cell between consecutive ends c < d
    starts with ceil(initial_panels (d - c) / (d - a)) uniform panels, so
    integral i starts from at least ``initial_panels`` panels of width at
    most (b[i] - a) / initial_panels (one integral: exactly that many).  It
    accepts a panel inside [a, b[i]] when the Richardson error estimate of
    F w_i there is within the panel's width share of ``tol`` or the relative
    floor 1e-12 of its value; a panel is bisected, at most 64 times, while
    an integral that covers it rejects.  The ``budget`` of integral i counts
    the nodes in [a, b[i]]; ``context(i)`` names it in errors.  F is called
    once for the starting nodes and twice per pass.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if np.any(b < a):
        i = int(np.argmax(b < a))
        raise ValueError(f"{context(i)}: inverted interval [{a}, {b[i]}]")
    totals = np.zeros(b.size)
    live = np.flatnonzero(b > a)  # an integral of zero length is 0 and covers no panel
    if not live.size:
        return totals
    ends = np.unique(b[live])
    edges = np.concatenate([[a], ends])
    width = np.diff(edges)
    panels = np.ceil(max(initial_panels, 1) * (width / (ends - a))).astype(np.intp)
    cell_of = np.searchsorted(ends, b)  # integral i covers cells 0..cell_of[i]

    # the starting nodes of cell c are np.linspace(edges[c], edges[c + 1], 2 P_c + 1)
    cell, rank = _spread(2 * panels)
    xs = np.append(rank * (width / (2 * panels))[cell] + edges[cell], ends[-1])
    fx = np.asarray(F(xs), dtype=float)
    # pair k is integral owner[k] on the panel of nodes at[k]..at[k] + 2, and
    # the pairs of one panel are adjacent
    panel = 2 * np.arange(panels.sum())
    at, owner = np.nonzero(cell[panel][:, None] <= cell_of[live])
    at, owner = panel[at], live[owner]
    left, mid, right = xs[at], xs[at + 1], xs[at + 2]
    f_l, f_m, f_r = fx[at], fx[at + 1], fx[at + 2]
    if w is not None:
        f_l, f_m, f_r = (v * w(t, owner) for v, t in ((f_l, left), (f_m, mid), (f_r, right)))
    for v, t in ((f_l, left), (f_m, mid), (f_r, right)):
        _check_finite(v, t, owner, context)
    estimate = (right - left) / 6.0 * (f_l + 4.0 * f_m + f_r)
    bound, history = int(xs.size), []

    # Local acceptance threshold proportional to panel width keeps the
    # accumulated error below tol after the Richardson correction.
    scale = 15.0 * tol / np.where(b > a, b - a, 1.0)
    for _ in range(_MAX_PASSES):
        ix = grp = slice(None)  # one integral has one pair per panel
        if live.size > 1:  # F at the first pair of each panel, handed on by grp
            lead = np.append(True, (left[1:] != left[:-1]) | (right[1:] != right[:-1]))
            ix, grp = lead, np.cumsum(lead) - 1
        # no integral holds more nodes than all; past the budget, count each
        history.append(right[ix])
        bound += 2 * history[-1].size
        if bound > budget:
            cells = np.searchsorted(ends, np.concatenate(history))
            used = 2 * np.cumsum(panels + np.bincount(cells, minlength=ends.size)) + 1
            over = live[used[cell_of[live]] > budget]
            if over.size:
                i = int(over[0])
                raise QuadratureBudgetError(
                    f"{context(i)}: evaluation budget {budget} exhausted "
                    f"({int(np.sum(owner == i))} panels still refining)"
                )
        mid_l = 0.5 * (left + mid)
        mid_r = 0.5 * (mid + right)
        f_ml = np.asarray(F(mid_l[ix]), dtype=float)[grp]
        f_mr = np.asarray(F(mid_r[ix]), dtype=float)[grp]
        if w is not None:
            f_ml, f_mr = f_ml * w(mid_l, owner), f_mr * w(mid_r, owner)
        _check_finite(f_ml, mid_l, owner, context)
        _check_finite(f_mr, mid_r, owner, context)
        s_left = (mid - left) / 6.0 * (f_l + 4.0 * f_ml + f_m)
        s_right = (right - mid) / 6.0 * (f_m + 4.0 * f_mr + f_r)
        refined = s_left + s_right
        err = refined - estimate
        done = np.abs(err) <= np.maximum(
            scale[owner] * (right - left), 15.0 * _REL_FLOOR * np.abs(refined)
        )
        totals += np.bincount(owner, np.where(done, refined + err / 15.0, 0.0), minlength=b.size)
        if done.all():
            return totals

        keep = ~done
        owner = np.concatenate([owner[keep], owner[keep]])
        left = np.concatenate([left[keep], mid[keep]])
        right = np.concatenate([mid[keep], right[keep]])
        mid = np.concatenate([mid_l[keep], mid_r[keep]])
        f_l = np.concatenate([f_l[keep], f_m[keep]])
        f_r = np.concatenate([f_m[keep], f_r[keep]])
        f_m = np.concatenate([f_ml[keep], f_mr[keep]])
        estimate = np.concatenate([s_left[keep], s_right[keep]])
    raise QuadratureBudgetError(
        f"{context(int(owner[0]))}: refinement depth {_MAX_PASSES} exceeded"
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
    nodes, split = _TS_DIST.size, _TS_SPLIT
    per_block = max(BLOCK_NODES // nodes, 1)
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
            xs = np.empty((a.size, nodes))
            xs[:, :split] = a[:, None] + half[:, None] * _TS_DIST[:split]
            xs[:, split:] = b[:, None] - half[:, None] * _TS_DIST[split:]
            tags = np.repeat(o, nodes)
            fx = np.asarray(g(xs.ravel(), tags), dtype=float)
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
    raise QuadratureBudgetError(
        f"{context(int(owner[0]))}: refinement depth {_MAX_PASSES} exceeded"
    )
