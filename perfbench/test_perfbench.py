"""Tests of the benchmark's own references, checks, tail rank and tracer."""

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import references as ref
from run import PER_LAYER_UNITS, tail_rank

HERE = Path(__file__).resolve().parent
TAU34 = 3.0 * math.pi / 4.0


@pytest.mark.parametrize("measure,tau", [("mu1", math.pi), ("mu2", math.pi / 2), ("mu2", TAU34)])
@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0, 4.0])
def test_closed_form_matches_quad_at_k_equal_n(measure, tau, lam):
    assert ref.dilated_integral(measure, tau, lam, 1.0) == pytest.approx(
        ref.closed_form_at_n(measure, tau, lam), rel=1e-12
    )


@pytest.mark.parametrize("tau", [math.pi / 2, TAU34, math.pi])
def test_incomplete_beta_at_lam_two(tau):
    # 2^2 * B(sin^2(tau/2); 3/2, 1/2) with B = (tau - sin tau) / 2
    assert ref.closed_form_at_n("mu2", tau, 2.0) / 4.0 == pytest.approx(
        (tau - math.sin(tau)) / 2.0, rel=1e-13
    )


@pytest.mark.parametrize("measure,tau", [("mu1", math.pi), ("mu2", TAU34)])
def test_dilated_integral_against_one_quad_call(measure, tau):
    lam, theta = 1.5, 37 / 4
    dens = math.sin if measure == "mu1" else (lambda t: 1.0)
    cusps = [2 * math.pi * j / theta for j in range(1, 8) if 2 * math.pi * j / theta < tau]
    whole, _ = quad(
        lambda t: (2 * abs(math.sin(theta * t / 2))) ** lam * dens(t),
        0.0, tau, points=cusps, limit=500, epsabs=1e-13, epsrel=1e-12,
    )
    assert ref.dilated_integral(measure, tau, lam, theta) == pytest.approx(whole, rel=1e-10)


def test_averaged_modulus_of_one_harmonic():
    # k = 1, u = pi/2, alpha p = 2: g(h) = 2 w (1 - cos h) rises on [0, u], so
    # the running supremum is g and the mean against 2 sin(2t) dt / 2 is 2w/3.
    w, p = 0.7, 2.0
    avg, plain = ref.averaged_moduli_mu1(
        np.array([1.0]), np.array([w]), 1.0, p, math.pi / 2
    )
    assert avg == pytest.approx((2 * w / 3) ** (1 / p), rel=1e-10)
    assert plain == pytest.approx((2 * w) ** (1 / p), rel=1e-12)


def test_peak_inside_last_cell():
    # one (real) frequency k peaks at h = pi / k: inside the last cell, at u, past u
    u, cells, w = math.pi / 2, 4095, np.array([1.0])
    for where, inside in ((1 - 0.5 / cells, True), (1.0, False), (1 + 0.5 / cells, False)):
        k = np.array([math.pi / (u * where)])
        assert ref.peak_inside_last_cell(k, w, 1.0, 1.5, u, cells) is inside


def test_tail_norm_and_roughening():
    ks = np.array([-3, 0, 1, 3])
    cs = np.array([1 + 1j, 5.0, 2.0, 1j])
    assert ref.tail_norm(ks, cs, 2.0, 2) == pytest.approx(math.sqrt(3.0))
    absk, weights = ref.roughened_weights(ks, cs, 1.0, 1)
    assert absk.tolist() == [1.0, 3.0]
    assert weights.tolist() == pytest.approx([2.0, 3 * math.sqrt(2) + 3])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["fuzz", "window", "majorant"]


def test_tail_rank_leaves_ten_of_a_round_beyond():
    assert tail_rank(45, 45) == 34
    assert tail_rank(800, 800) == 789
    assert tail_rank(800, 2400) == 2369


def test_window_check_flags_a_wrong_minimum():
    import workloads

    wl = workloads.Window(0)
    i = next(j for j, c in enumerate(wl.configs) if c == ("mu2", TAU34, 2.0, 1))
    closed = ref.closed_form_at_n("mu2", TAU34, 2.0)
    good = SimpleNamespace(value=closed, attained_at_n=True)
    bad = SimpleNamespace(value=closed * (1 + 1e-6), attained_at_n=True)
    assert wl.check([(i, good)]) == []
    assert len(wl.check([(i, bad)])) == 2


class _BrokenFirst:
    """A workload whose first operation, the warm-up one, always raises."""

    name = "broken"
    SETUP_REPEATS = 1

    def __init__(self, seed):
        pass

    def setup(self, counter):
        pass

    def operations(self):
        def broken():
            raise ValueError("always fails")

        return [broken, lambda: 1.0, lambda: 2.0, lambda: 3.0]

    def check(self, outputs):
        return []


def test_failing_first_operation_is_counted_in_every_round():
    from run import run

    result, timing = run(_BrokenFirst, 0, 0.01, False)
    assert result["correct"]
    assert result["attempted"] == 4 * timing["rounds"]
    assert result["failed"] == timing["rounds"]


_TRACE_SCRIPT = """
import json, math, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from spapprox import averaging, jackson, psi, smoothness, widths
from spapprox.spectral import SpectralFunction
bound = {m.__name__: m.adaptive_simpson for m in (averaging, jackson, widths)}
assert all(hasattr(f, "__wrapped__") for f in bound.values()), bound
mu, shape = averaging.mu1(math.pi), smoothness.phi_alpha(1.0)
report = jackson.inf_quantity(2, shape, 1.5, mu, k_max=16)
tracer.op_id = 0
f = SpectralFunction({-7: 1.0, 3: 0.5j, 20: -0.25})
jackson.jackson_bound(f, psi.power(1), shape, 1.5, mu, 2, inf_report=report)
print(json.dumps(tracer.metrics(1)))
"""


def test_traced_counts_repeat_exactly():
    src = HERE.parent / "src"
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _TRACE_SCRIPT, str(src), str(HERE)],
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
        )
        for _ in range(2)
    ]
    counts = [k for k, unit in PER_LAYER_UNITS.items() if unit == "count"]
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}
    assert runs[0]["quadrature.integrals_per_op"] == 1
    assert runs[0]["averaging.calls_per_op"] == 1
    assert runs[0]["smoothness.scan_builds_per_op"] == 1
    assert runs[0]["quadrature.points_per_integral"] > 0
    assert runs[0]["jackson.inf_self_ms"] > 0
