"""Independent references for the benchmark's correctness checks.

Everything here is computed from closed forms, ``scipy.integrate.quad`` and
plain numpy on the raw coefficients.  Nothing imports spapprox, so a fault
in its quadrature or in its shift-supremum scan cannot hide in the check.

The shape throughout is the classical ``phi_alpha`` weight, whose p-th power
is ``(2 |sin(x/2)|)^lam`` with ``lam = alpha * p``; the weights are ``mu1``
(density ``sin t`` on [0, pi]) and ``mu2`` (unit density on [0, tau]).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import beta, betainc

#: quad tolerances; the program integrates to 1e-10 absolute.
QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-12
#: shift-grid points of the averaged-modulus scan
GRID_POINTS = 2**18


def closed_form_at_n(measure: str, tau: float, lam: float) -> float:
    """The dilated integral at k = n, where it is undilated.

    mu1 on [0, pi]: 2^(lam+1) / (lam/2 + 1).
    mu2 on [0, tau], tau <= pi: 2^lam * B(sin^2(tau/2); (lam+1)/2, 1/2), with
    B the unregularised incomplete beta function.
    """
    if measure == "mu1":
        if tau != math.pi:
            raise ValueError("the mu1 closed form holds on [0, pi] only")
        return 2.0 ** (lam + 1.0) / (lam / 2.0 + 1.0)
    if measure == "mu2":
        a, b = (lam + 1.0) / 2.0, 0.5
        x = math.sin(tau / 2.0) ** 2
        return 2.0**lam * float(betainc(a, b, x) * beta(a, b))
    raise ValueError(f"unknown measure {measure!r}")


def mu1_total_mass(tau: float) -> float:
    return 1.0 - math.cos(tau)


def _cusps(theta: float, tau: float) -> list[float]:
    """Zeros 2*pi*j/theta of sin(theta t / 2) inside (0, tau)."""
    out = []
    j = 1
    while 2.0 * math.pi * j / theta < tau:
        out.append(2.0 * math.pi * j / theta)
        j += 1
    return out


def _quad(f, a: float, b: float) -> float:
    value, _ = quad(f, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200)
    return value


def dilated_integral(measure: str, tau: float, lam: float, theta: float) -> float:
    """integral_0^tau (2 |sin(theta t / 2)|)^lam dmu(t) by quad between cusps.

    Each panel between consecutive cusps is integrated on its own, so quad
    only ever sees the algebraic singularity at a panel end.  For the unit
    density every full panel has the same integral, which is used as is.
    """
    edges = [0.0, *_cusps(theta, tau), tau]
    if measure == "mu2":
        def f(t):
            return (2.0 * abs(math.sin(0.5 * theta * t))) ** lam

        full = len(edges) - 2
        period = _quad(f, 0.0, edges[1]) if full else 0.0
        return full * period + _quad(f, edges[-2], edges[-1])
    if measure == "mu1":
        def g(t):
            return (2.0 * abs(math.sin(0.5 * theta * t))) ** lam * math.sin(t)

        return sum(_quad(g, a, b) for a, b in zip(edges[:-1], edges[1:]))
    raise ValueError(f"unknown measure {measure!r}")


def window_minimum(measure: str, tau: float, lam: float, n: int, k_max: int) -> float:
    """Minimum over k in [n, k_max] of the dilated integral at theta = k/n."""
    return min(dilated_integral(measure, tau, lam, k / n) for k in range(n, k_max + 1))


def tail_norm(ks: np.ndarray, cs: np.ndarray, p: float, n: int) -> float:
    """(sum over |k| >= n of |c_k|^p)^(1/p) straight from the coefficients."""
    mags = np.abs(cs[np.abs(ks) >= n])
    return float(np.sum(mags**p) ** (1.0 / p))


def roughened_weights(
    ks: np.ndarray, cs: np.ndarray, p: float, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """|k| and summed |c_k (ik)^r|^p of the power:r roughening, k != 0 only."""
    keep = ks != 0
    mags = np.abs(cs[keep]) * np.abs(ks[keep]).astype(float) ** r
    absk = np.abs(ks[keep])
    uniq = np.unique(absk)
    weights = np.array([np.sum(mags[absk == k] ** p) for k in uniq])
    return uniq.astype(float), weights


def shift_sum(h: np.ndarray, absk: np.ndarray, weights: np.ndarray, alpha: float, p: float):
    """g(h) = sum_k w_k (2 |sin(k h / 2)|)^(alpha p)."""
    h = np.asarray(h, dtype=float)
    lam = alpha * p
    return (2.0 * np.abs(np.sin(0.5 * np.multiply.outer(h, absk)))) ** lam @ weights


def peak_inside_last_cell(
    absk: np.ndarray, weights: np.ndarray, alpha: float, p: float, u: float, cells: int
) -> bool:
    """Whether g rises above both ends of the last of ``cells`` equal cells of [0, u]."""
    if weights.size == 0:
        return False
    gs = shift_sum(np.linspace(u - u / cells, u, 257), absk, weights, alpha, p)
    return bool(gs.max() > max(gs[0], gs[-1]))


def averaged_moduli_mu1(
    absk: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    p: float,
    u: float,
) -> tuple[float, float]:
    """Averaged and plain modulus on [0, u] against mu1(pi) rescaled onto it.

    The running supremum M(t) = sup_{h <= t} g(h) comes from a dense grid
    scan, combined with g(t) itself at the query point; quad then integrates
    M(t) * (pi/u) sin(pi t / u) over [0, u], with breakpoints where M
    switches between following g and holding a plateau.  The total mass of
    mu1(pi) is 2.  Returns (averaged modulus, plain modulus at u).
    """
    if weights.size == 0:
        return 0.0, 0.0
    hs = np.linspace(0.0, u, GRID_POINTS)
    gs = shift_sum(hs, absk, weights, alpha, p)
    run = np.maximum.accumulate(gs)
    step = hs[1]
    rising = gs >= run
    kinks = hs[1:][rising[1:] != rising[:-1]]

    def running_sup(t: float) -> float:
        i = min(int(t / step), GRID_POINTS - 1)
        return max(run[i], float(shift_sum(np.array([t]), absk, weights, alpha, p)[0]))

    ratio = math.pi / u
    raw, _ = quad(
        lambda t: running_sup(t) * ratio * math.sin(ratio * t),
        0.0, u, epsabs=1e-12, epsrel=1e-11,
        points=kinks if kinks.size else None, limit=50 * (kinks.size + 2),
    )
    averaged = (raw / mu1_total_mass(math.pi)) ** (1.0 / p)
    plain = max(run[-1], float(shift_sum(np.array([u]), absk, weights, alpha, p)[0]))
    return averaged, plain ** (1.0 / p)
