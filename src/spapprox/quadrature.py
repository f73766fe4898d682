"""Budgeted vectorized quadrature: adaptive Simpson and tanh-sinh panels.

Two integrators share one contract.  The integrand must be vectorized
(ndarray in, ndarray out); each routine keeps a work list of panels, splits
every non-converged panel once per pass, and accounts for each point
evaluation against a hard budget.  Running out of budget raises, it never
truncates silently.

* :func:`adaptive_simpson` integrates one function over one interval.  It
  serves the weight masses, the Stieltjes integrals of the averaged modulus
  and the capped shape integrals of the window-scaling condition.
* :func:`tanh_sinh_panels` integrates many integrals at once from panels
  tagged with the integral they belong to.  Each panel gets a nested pair of
  double-exponential (tanh-sinh) rules, which converge exponentially even
  with an algebraic singularity of any order at a panel end (Takahasi and
  Mori, 1974).  Callers that know where their integrand is not smooth put
  panel edges there (breakpoint seeding, as in QUADPACK).  The shape mass
  and every dilated shape integral of the windowed infimum go through it.
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
_TS_REL_FLOOR = 1e-12
_TS_MAX_PASSES = 64


class QuadratureBudgetError(RuntimeError):
    """Raised when the evaluation budget is exhausted before convergence."""


class NonFiniteIntegrandError(ValueError):
    """Raised when the integrand returns NaN or infinity on a probe point."""


def _check_finite(values: np.ndarray, points: np.ndarray, context: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        where = points[bad][:4]
        raise NonFiniteIntegrandError(
            f"{context}: non-finite integrand value(s) at t={where.tolist()}"
        )


def adaptive_simpson(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    tol: float = DEFAULT_TOL,
    rtol: float = 1e-12,
    budget: int = DEFAULT_BUDGET,
    initial_panels: int = 64,
    max_passes: int = 64,
    context: str = "quadrature",
) -> float:
    """Integrate ``g`` over ``[a, b]`` to absolute tolerance ``tol``.

    ``rtol`` is a relative floor so that integrands of huge magnitude stop
    refining at machine-level accuracy instead of chasing an unreachable
    absolute target.  ``initial_panels`` sets the uniform starting
    subdivision; callers integrating oscillatory functions should scale it
    with the expected number of oscillations so that the error estimate is
    trustworthy.
    """
    if b < a:
        raise ValueError(f"inverted interval [{a}, {b}]")
    if b == a:
        return 0.0
    panels = max(int(initial_panels), 1)
    xs = np.linspace(a, b, 2 * panels + 1)
    fx = np.asarray(g(xs), dtype=float)
    _check_finite(fx, xs, context)
    evals = xs.size

    left, mid, right = xs[0:-1:2], xs[1::2], xs[2::2]
    f_l, f_m, f_r = fx[0:-1:2], fx[1::2], fx[2::2]
    estimate = (right - left) / 6.0 * (f_l + 4.0 * f_m + f_r)

    total = 0.0
    # Local acceptance threshold proportional to panel width keeps the
    # accumulated error below tol after the Richardson correction.
    scale = 15.0 * tol / (b - a)
    for _ in range(max_passes):
        mid_l = 0.5 * (left + mid)
        mid_r = 0.5 * (mid + right)
        if evals + 2 * mid_l.size > budget:
            raise QuadratureBudgetError(
                f"{context}: evaluation budget {budget} exhausted "
                f"({left.size} panels still refining)"
            )
        f_ml = np.asarray(g(mid_l), dtype=float)
        f_mr = np.asarray(g(mid_r), dtype=float)
        _check_finite(f_ml, mid_l, context)
        _check_finite(f_mr, mid_r, context)
        evals += 2 * mid_l.size

        s_left = (mid - left) / 6.0 * (f_l + 4.0 * f_ml + f_m)
        s_right = (right - mid) / 6.0 * (f_m + 4.0 * f_mr + f_r)
        err = s_left + s_right - estimate
        refined = s_left + s_right
        done = np.abs(err) <= np.maximum(
            scale * (right - left), 15.0 * rtol * np.abs(refined)
        )
        total += float(np.sum((s_left + s_right + err / 15.0)[done]))
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
    raise QuadratureBudgetError(f"{context}: refinement depth {max_passes} exceeded")


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
    for _ in range(_TS_MAX_PASSES):
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
            fx = np.asarray(g(xs.ravel(), np.repeat(o, nodes)), dtype=float)
            fx = fx.reshape(xs.shape)
            bad = ~np.isfinite(fx)
            if bad.any():
                rows, _ = np.nonzero(bad)
                raise NonFiniteIntegrandError(
                    f"{context(int(o[rows[0]]))}: non-finite integrand value(s) "
                    f"at t={xs[bad][:4].tolist()}"
                )
            fine, coarse = (fx @ _TS_WEIGHTS).T * half
            done = np.abs(fine - coarse) <= np.maximum(
                tol * (b - a) / span[o], _TS_REL_FLOOR * np.abs(fine)
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
        f"{context(int(owner[0]))}: refinement depth {_TS_MAX_PASSES} exceeded"
    )
