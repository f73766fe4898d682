"""The three benchmark workloads: fuzz, window and majorant.

A workload turns a seed into inputs (numpy only, no program code beyond
wrapping coefficients in ``SpectralFunction``), does its program set-up,
hands out one round of operations, and checks every output of those
operations against :mod:`references`.  Operations call the library through
its module attributes, so a tracer that rebinds those attributes sees them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from spapprox import averaging, jackson, psi, smoothness, widths
from spapprox.spectral import SpectralFunction

import references as ref

TAU34 = 3.0 * math.pi / 4.0


class ShapeEvalCounter:
    """Counts the points at which the program evaluates a shape."""

    def __init__(self) -> None:
        self.points = 0

    def wrap(self, shape: smoothness.ShapeFunction) -> smoothness.ShapeFunction:
        inner = shape.eval

        def counted(t):
            t = np.asarray(t, dtype=float)
            self.points += t.size
            return inner(t)

        return dataclasses.replace(shape, eval=counted)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Fuzz:
    """``jackson_bound`` on seeded sparse spectra, windows built in set-up.

    Mix of acceptance criterion 4: up to 8 harmonics of order <= 32,
    phi_alpha:1, mu1 on [0, pi], n = 2, p in {1, 1.5, 2, 3} x psi in
    {power:0, power:1}.  One round is ``PER_COMBO`` spectra per (p, psi);
    their term counts cycle through 1..8, so that the work per operation
    varies little from seed to seed.  A spectrum whose roughened shift sum
    peaks strictly inside the last cell of spapprox's scan of [0, pi/n] is
    drawn again: the scan misses that peak and underestimates the plain
    modulus at pi/n, on some seeds only (about 0.7% of spectra).
    """

    name = "fuzz"
    PS = (1.0, 1.5, 2.0, 3.0)
    RS = (0, 1)
    N = 2
    K_MAX = 64 * N
    MAX_ORDER = 32
    MAX_TERMS = 8
    PER_COMBO = 50
    #: cells of the shift scan of spapprox's default ModulusGrid (4096 points)
    SCAN_CELLS = 4095
    SETUP_REPEATS = 3

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        orders = np.arange(-self.MAX_ORDER, self.MAX_ORDER + 1)
        self.inputs = []  # (p, r, ks, cs, SpectralFunction)
        for p in self.PS:
            for r in self.RS:
                for j in range(self.PER_COMBO):
                    terms = 1 + j % self.MAX_TERMS
                    while True:
                        ks = rng.choice(orders, size=terms, replace=False)
                        cs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
                        absk, weights = ref.roughened_weights(ks, cs, p, r)
                        if not ref.peak_inside_last_cell(
                            absk, weights, 1.0, p, math.pi / self.N, self.SCAN_CELLS
                        ):
                            break
                    f = SpectralFunction({int(k): complex(c) for k, c in zip(ks, cs)})
                    self.inputs.append((p, r, ks, cs, f))

    def setup(self, counter: ShapeEvalCounter) -> None:
        self.mu = averaging.mu1(math.pi)
        self.shape = counter.wrap(smoothness.phi_alpha(1.0))
        self.psis = {r: psi.power(r) for r in self.RS}
        self.reports = {
            p: jackson.inf_quantity(self.N, self.shape, p, self.mu, k_max=self.K_MAX)
            for p in self.PS
        }

    def operations(self) -> list:
        def op(p, r, f):
            return lambda: jackson.jackson_bound(
                f, self.psis[r], self.shape, p, self.mu, self.N,
                inf_report=self.reports[p],
            )

        return [op(p, r, f) for p, r, _, _, f in self.inputs]

    def check(self, outputs: list) -> list[str]:
        errors = []
        window_ref = {}
        for p, report in self.reports.items():
            closed = ref.closed_form_at_n("mu1", math.pi, p)
            ref_min = ref.window_minimum("mu1", math.pi, p, self.N, self.K_MAX)
            window_ref[p] = ref_min
            if not _close(report.value, ref_min, 1e-8):
                errors.append(f"window p={p}: {report.value} != reference {ref_min}")
            if report.value > closed * (1.0 + 1e-9):
                errors.append(f"window p={p}: {report.value} above closed form {closed}")
            if report.argmin_k == self.N and not _close(report.value, closed, 1e-8):
                errors.append(f"window p={p}: argmin n but {report.value} != {closed}")

        checked = {}
        for i, res in outputs:
            p, r, ks, cs, _ = self.inputs[i]
            where = f"op {i} (p={p}, psi=power:{r})"
            tail = ref.tail_norm(ks, cs, p, self.N)
            if not _close(res.lhs, tail, 1e-12):
                errors.append(f"{where}: lhs {res.lhs} != tail norm {tail}")
            if not (res.holds and res.holds_plain):
                errors.append(f"{where}: bound violated")
            if res.bound > res.bound_plain * (1.0 + 1e-12) + 1e-12:
                errors.append(f"{where}: bound {res.bound} > bound_plain {res.bound_plain}")
            # the first MAX_TERMS spectra of each (p, psi) have 1..MAX_TERMS terms
            if i % self.PER_COMBO < self.MAX_TERMS:
                if i not in checked:
                    absk, weights = ref.roughened_weights(ks, cs, p, r)
                    avg, plain = ref.averaged_moduli_mu1(
                        absk, weights, 1.0, p, math.pi / self.N
                    )
                    factor = (ref.mu1_total_mass(math.pi) / window_ref[p]) ** (1.0 / p)
                    factor *= float(self.N) ** (-r)
                    checked[i] = (factor * avg, factor * plain)
                want, want_plain = checked[i]
                if not _close(res.bound, want, 1e-7):
                    errors.append(f"{where}: bound {res.bound} != reference {want}")
                if not _close(res.bound_plain, want_plain, 1e-7):
                    errors.append(
                        f"{where}: bound_plain {res.bound_plain} != reference {want_plain}"
                    )
        return errors


class Window:
    """``inf_quantity`` at k_max = 64 n over a fixed cycle of configurations.

    mu1 (tau = pi) and mu2 (tau = pi/2, 3pi/4) x alpha*p in {0.5, 1, 1.5, 2, 4}
    x n in {1, 2, 4}, with p = 1.  The seed only permutes the cycle.
    """

    name = "window"
    MEASURES = (("mu1", math.pi), ("mu2", math.pi / 2.0), ("mu2", TAU34))
    LAMS = (0.5, 1.0, 1.5, 2.0, 4.0)
    NS = (1, 2, 4)
    P = 1.0
    SETUP_REPEATS = 2001

    def __init__(self, seed: int) -> None:
        configs = [
            (m, tau, lam, n)
            for m, tau in self.MEASURES
            for lam in self.LAMS
            for n in self.NS
        ]
        order = np.random.default_rng(seed).permutation(len(configs))
        self.configs = [configs[i] for i in order]

    def setup(self, counter: ShapeEvalCounter) -> None:
        build = {"mu1": averaging.mu1, "mu2": averaging.mu2}
        self.measures = {(m, tau): build[m](tau) for m, tau in self.MEASURES}
        self.shapes = {
            lam: counter.wrap(smoothness.phi_alpha(lam / self.P)) for lam in self.LAMS
        }

    def operations(self) -> list:
        def op(m, tau, lam, n):
            return lambda: jackson.inf_quantity(
                n, self.shapes[lam], self.P, self.measures[(m, tau)], k_max=64 * n
            )

        return [op(*c) for c in self.configs]

    def check(self, outputs: list) -> list[str]:
        errors = []
        refs = {}
        for i, report in outputs:
            m, tau, lam, n = self.configs[i]
            where = f"{m} tau={tau:.4f} alpha*p={lam} n={n}"
            if i not in refs:
                refs[i] = ref.window_minimum(m, tau, lam, n, 64 * n)
            if not _close(report.value, refs[i], 1e-8):
                errors.append(f"{where}: {report.value} != reference minimum {refs[i]}")
            if report.attained_at_n:
                closed = ref.closed_form_at_n(m, tau, lam)
                if not _close(report.value, closed, 1e-8):
                    errors.append(f"{where}: attained at n but {report.value} != {closed}")
        return errors


class Majorant:
    """``certify_widths`` in majorant mode, a fixed small sample count each.

    The class of acceptance criterion 6: mu2 on [0, 3pi/4], the solved
    exponent p*, alpha* = 2/p*, linear majorant, psi = power:1; n in
    {1, 2, 4} at k_max = 32 n.  The seed picks the certificate seeds.
    """

    name = "majorant"
    TAU = TAU34
    NS = (1, 2, 4)
    CERTS_PER_N = 14
    SAMPLES = 2
    SETUP_REPEATS = 50

    def __init__(self, seed: int) -> None:
        tau = self.TAU
        # p* solves tau * g(tau) / int_0^tau g = p + 1 for g(t) = 2 (1 - cos t)
        self.p = tau * 2.0 * (1.0 - math.cos(tau)) / (2.0 * (tau - math.sin(tau))) - 1.0
        rng = np.random.default_rng(seed)
        self.jobs = [
            (n, int(s))
            for n in self.NS
            for s in rng.integers(0, 2**31, size=self.CERTS_PER_N)
        ]

    def setup(self, counter: ShapeEvalCounter) -> None:
        shape = counter.wrap(smoothness.phi_alpha(2.0 / self.p))
        mu = averaging.mu2(self.TAU)
        omega = widths.linear_majorant()
        self.cls = widths.SmoothnessClass(
            psi=psi.power(1), shape=shape, p=self.p, mu=mu, omega=omega
        )
        self.condition = widths.majorant_condition_check(omega, shape, self.p, mu)

    def operations(self) -> list:
        def op(n, seed):
            return lambda: widths.certify_widths(
                self.cls, n, samples=self.SAMPLES, seed=seed, k_max=32 * n
            )

        return [op(n, s) for n, s in self.jobs]

    def closed_form(self, n: int) -> float:
        """(tau/n) * (tau / shape_mass)^(1/p) / n, shape_mass by the beta formula."""
        mass = ref.closed_form_at_n("mu2", self.TAU, 2.0)
        return (self.TAU / n) * (self.TAU / mass) ** (1.0 / self.p) / n

    def check(self, outputs: list) -> list[str]:
        errors = []
        if not self.condition.ok:
            errors.append(
                f"majorant condition fails at p*: margin {self.condition.worst_rel_margin}"
            )
        for i, cert in outputs:
            n, seed = self.jobs[i]
            where = f"n={n} seed={seed}"
            closed = self.closed_form(n)
            if not cert.closed_form.certified:
                errors.append(f"{where}: closed form not certified")
            elif not _close(cert.closed_form.value, closed, 1e-9):
                errors.append(f"{where}: closed form {cert.closed_form.value} != {closed}")
            if cert.lower_evidence.failures:
                errors.append(f"{where}: {cert.lower_evidence.failures} lower failures")
            if cert.upper_evidence.max_en > closed * (1.0 + 1e-9):
                errors.append(
                    f"{where}: upper max_en {cert.upper_evidence.max_en} > {closed}"
                )
        return errors


WORKLOADS = {w.name: w for w in (Fuzz, Window, Majorant)}
