"""Multiplier sequences acting on spectra.

A multiplier psi maps harmonic indices to complex numbers.  Multiplying the
coefficients gives the smoothing transform, dividing gives the roughening
(derivative-like) transform; psi(k) = (ik)^(-r) recovers classical
integration/differentiation of order r.  The tail supremum nu(n) over
|k| >= n drives every constant downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .spectral import SpectralFunction


class ZeroMultiplierError(ValueError):
    """Division by a vanishing multiplier under the "reject" policy."""


@dataclass(frozen=True)
class PsiSequence:
    """Bounded multiplier sequence with tail-scan metadata.

    ``monotone_even`` declares |psi(k)| = |psi(-k)| nonincreasing in |k|,
    which lets tail suprema short-circuit to |psi(n)| instead of scanning up
    to ``horizon``.  ``zero_policy`` decides what the inverse transform does
    on the zero set: "annihilate" drops the term, "reject" raises.  ``eval``
    must be pure: a sequence keeps each tail supremum it has scanned.
    """

    eval: Callable[[int], complex]
    bound: float
    zero_policy: str = "annihilate"
    horizon: int = 10**6
    monotone_even: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.zero_policy not in ("annihilate", "reject"):
            raise ValueError(f"unknown zero policy {self.zero_policy!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    def __call__(self, k: int) -> complex:
        return complex(self.eval(int(k)))

    @functools.cached_property
    def _tail_sups(self) -> dict[int, TailSup]:
        """The tail suprema scanned so far, by n (see :func:`tail_sup_info`)."""
        return {}


def power(r: float, zero_policy: str = "annihilate") -> PsiSequence:
    """psi(k) = (ik)^(-r); order-r antiderivative multiplier.

    psi(0) is 1 for r = 0 (identity) and 0 otherwise, so that the inverse
    transform treats constants according to the zero policy.
    """
    if r < 0:
        raise ValueError(f"power multiplier needs r >= 0, got {r}")
    r = float(r)

    def _eval(k: int) -> complex:
        if k == 0:
            return 1.0 + 0j if r == 0.0 else 0j
        return (1j * k) ** (-r)

    return PsiSequence(
        eval=_eval,
        bound=1.0,
        zero_policy=zero_policy,
        monotone_even=True,
        label=f"power:{r:g}",
    )


def const_multiplier(c: complex) -> PsiSequence:
    """Constant sequence psi(k) = c."""
    c = complex(c)
    return PsiSequence(
        eval=lambda k: c, bound=abs(c), monotone_even=True, label=f"const:{c}"
    )


def tabulated_psi(
    table: Mapping[int, complex],
    bound: float,
    zero_policy: str = "annihilate",
    monotone_even: bool = False,
    label: str = "tabulated",
) -> PsiSequence:
    """Multiplier given by an explicit finite table; 0 outside the table.

    The scan horizon is the largest tabulated |k| (beyond it the sequence is
    identically 0).
    """
    frozen = {int(k): complex(v) for k, v in table.items()}
    return PsiSequence(
        eval=lambda k: frozen.get(k, 0j),
        bound=float(bound),
        zero_policy=zero_policy,
        monotone_even=monotone_even,
        horizon=max((abs(k) for k in frozen), default=1) or 1,
        label=label,
    )


def psi_integral(f: SpectralFunction, psi: PsiSequence) -> SpectralFunction:
    """Coefficientwise product: the smoothing transform of f."""
    return SpectralFunction({k: psi(k) * c for k, c in f.coeffs.items()})


def psi_derivative(f: SpectralFunction, psi: PsiSequence) -> SpectralFunction:
    """Coefficientwise quotient: the inverse of :func:`psi_integral`.

    Terms on the zero set of psi are dropped or rejected per the policy;
    quotients beyond the float range raise OverflowError.
    """
    out: dict[int, complex] = {}
    for k, c in f.coeffs.items():
        m = psi(k)
        if m == 0:
            if psi.zero_policy == "reject":
                raise ZeroMultiplierError(
                    f"multiplier {psi.label or 'psi'} vanishes at k={k}"
                )
            continue
        q = c / m
        if not (math.isfinite(q.real) and math.isfinite(q.imag)):
            raise OverflowError(
                f"coefficient ratio at k={k} exceeds the float range"
            )
        out[k] = q
    return SpectralFunction(out)


@dataclass(frozen=True)
class TailSup:
    """Tail supremum of |psi| over |k| >= n with its provenance.

    ``certified`` means the value follows from the declared monotone-even
    structure; otherwise it is the empirical maximum of a scan that stopped
    at the horizon.
    """

    value: float
    certified: bool
    scanned_to: int


def tail_sup_info(psi: PsiSequence, n: int) -> TailSup:
    """Tail supremum of |psi| over |k| >= n, with its provenance.

    A psi that is not monotone-even is scanned to its horizon once per n:
    the psi object keeps each scanned supremum, since it is a fixed sequence.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if psi.monotone_even:
        return TailSup(max(abs(psi(n)), abs(psi(-n))), certified=True, scanned_to=n)
    found = psi._tail_sups.get(n)
    if found is None:
        stop = int(psi.horizon)
        best = 0.0
        for k in range(n, stop + 1):
            best = max(best, abs(psi(k)), abs(psi(-k)))
        found = psi._tail_sups[n] = TailSup(best, certified=False, scanned_to=stop)
    return found


def tail_sup(psi: PsiSequence, n: int) -> float:
    """Tail supremum sup over |k| >= n of |psi(k)| (scanned or short-circuited)."""
    return tail_sup_info(psi, n).value


@dataclass(frozen=True)
class MonotoneEvenCheck:
    ok: bool
    first_violation: int | None = None
    reason: str | None = None


def is_monotone_even(psi: PsiSequence, horizon: int) -> MonotoneEvenCheck:
    """Check even magnitude, declared bound and nonincreasing magnitude.

    Scans 1 <= k <= horizon and reports the first violating index.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    prev = None
    for k in range(1, horizon + 1):
        mag, mag_neg = abs(psi(k)), abs(psi(-k))
        if not math.isclose(mag, mag_neg, rel_tol=1e-12, abs_tol=1e-300):
            return MonotoneEvenCheck(False, k, f"|psi({k})| != |psi({-k})|")
        if mag > psi.bound * (1.0 + 1e-12):
            return MonotoneEvenCheck(False, k, f"|psi({k})| = {mag} exceeds bound {psi.bound}")
        if prev is not None and mag > prev * (1.0 + 1e-12) + 1e-300:
            return MonotoneEvenCheck(False, k - 1, f"|psi({k})| > |psi({k - 1})|")
        prev = mag
    return MonotoneEvenCheck(True)
