"""Spans around the public functions of every spapprox layer, from outside.

:meth:`Tracer.install` rebinds each public function of the layer modules in
every spapprox module that holds it by name (``adaptive_simpson`` lives in
``quadrature`` and is also bound in ``averaging``, ``jackson`` and
``widths``), and wraps the public methods of ``ModulusCurve`` in place.  A
span records its name, start, end, parent span and the operation it belongs
to (-1 for set-up, -2 for the warm-up).  Spans are kept in flat arrays and
written as JSONL by :meth:`Tracer.write_jsonl` when the run is over.

Work counts are taken at the same boundaries, during operations only:
points and passes of each quadrature (by wrapping the integrand it
receives), running-supremum query points, and the scan resolution of each
``ModulusCurve`` build, computed from its inputs.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "quadrature", "smoothness", "averaging", "psi",
    "spectral", "sampling", "jackson", "widths",
)
SETUP_OP = -1
WARMUP_OP = -2


class Tracer:
    """Span recorder and work counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self.quad_points = 0
        self.quad_calls = 0
        self.query_points = 0
        self.scan_builds = 0
        self.upper_samples = 0
        self.min_scan_points_per_period = math.inf
        self.t0 = time.perf_counter()

    # -- recording -----------------------------------------------------

    def _span(self, fn, span_name: str, before=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` may rewrite the call."""
        if span_name not in self._name_ix:
            self._name_ix[span_name] = len(self.names)
            self.names.append(span_name)
        ix = self._name_ix[span_name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.name.append(ix)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return traced

    def _count_quadrature(self, args, kwargs):
        if self.op_id < 0:
            return args, kwargs
        g = args[0]

        def counted(x):
            self.quad_points += np.size(x)
            self.quad_calls += 1
            return g(x)

        return (counted, *args[1:]), kwargs

    def _count_query(self, args, kwargs):
        if self.op_id >= 0:
            self.query_points += np.size(args[1])
        return args, kwargs

    def _count_upper(self, arguments):
        if self.op_id >= 0:
            self.upper_samples += arguments["samples"]

    def _count_build(self, arguments):
        """A scan build: highest harmonic times window beyond the cap point."""
        if self.op_id < 0:
            return
        f, shape, u = arguments["f"], arguments["shape"], float(arguments["u"])
        kmax = max((abs(k) for k in f.coeffs if k != 0), default=0)
        cap = shape.cap_point
        if kmax and u > 0 and (cap is None or kmax * u > cap):
            grid = arguments["grid"] or sys.modules["spapprox.smoothness"].ModulusGrid()
            points = grid.base_points
            per_period = (2.0 * math.pi / kmax) / (u / (points - 1))
            self.scan_builds += 1
            self.min_scan_points_per_period = min(
                self.min_scan_points_per_period, per_period
            )

    @staticmethod
    def _with_arguments(fn, count):
        """A ``before`` hook that hands ``count`` the call's bound arguments."""
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            count(bound.arguments)
            return args, kwargs

        return before

    def install(self) -> None:
        """Rebind every public function of the layers in every spapprox module."""
        import spapprox  # noqa: F401  (loads every layer)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "spapprox"]
        hooks = {"quadrature.adaptive_simpson": self._count_quadrature}
        counts = {"widths.upper_certificate": self._count_upper}
        for layer in LAYERS:
            mod = sys.modules[f"spapprox.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                before = hooks.get(name)
                if name in counts:
                    before = self._with_arguments(fn, counts[name])
                wrapped = self._span(fn, name, before)
                for other in modules:
                    if getattr(other, attr, None) is fn:
                        setattr(other, attr, wrapped)

        curve = sys.modules["spapprox.smoothness"].ModulusCurve
        curve.__init__ = self._span(
            curve.__init__, "smoothness.ModulusCurve",
            self._with_arguments(curve.__init__, self._count_build),
        )
        curve.pow_values = self._span(
            curve.pow_values, "smoothness.ModulusCurve.pow_values", self._count_query
        )
        curve.value = self._span(curve.value, "smoothness.ModulusCurve.value")

    # -- reporting -----------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, parent, op, dur, dur - child

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics of a traced run with ``ops`` timed operations.

        ``jackson.inf_self_ms`` and ``jackson.bound_self_ms`` are per call
        over the whole run, set-up and warm-up included (``fuzz`` builds its
        windows only in set-up); every other metric covers the timed
        operations only.
        """
        name, parent, op, dur, self_t = self._arrays()
        in_ops = op >= 0
        ix = {n: i for i, n in enumerate(self.names)}
        layer_of = np.array([n.split(".")[0] for n in self.names])

        def spans(span_name, everywhere=False):
            return (name == ix[span_name]) & (True if everywhere else in_ops)

        def layer(lay):
            return (layer_of[name] == lay) & in_ops

        def mean_ms(values):
            return float(values.mean()) * 1e3 if values.size else 0.0

        def ms_per_op(values):
            return float(values.sum()) * 1e3 / ops

        def ratio(a, b):
            return a / b if b else 0.0

        quad = spans("quadrature.adaptive_simpson")
        integrals = int(quad.sum())
        # each integral makes one initial call plus two calls per pass
        passes = (self.quad_calls - integrals) / 2.0
        inf_calls = np.flatnonzero(spans("jackson.inf_quantity", everywhere=True))
        averaging = spans("averaging.averaged_pow_modulus")
        per_period = self.min_scan_points_per_period
        return {
            "quadrature.integrals_per_op": integrals / ops,
            "quadrature.points_per_integral": ratio(self.quad_points, integrals),
            "quadrature.passes_per_integral": ratio(passes, integrals),
            "quadrature.self_ms_per_op": ms_per_op(self_t[layer("quadrature")]),
            "smoothness.build_ms": mean_ms(dur[spans("smoothness.ModulusCurve")]),
            "smoothness.scan_builds_per_op": self.scan_builds / ops,
            "smoothness.query_points_per_op": self.query_points / ops,
            "smoothness.query_ms_per_op": ms_per_op(
                self_t[spans("smoothness.ModulusCurve.pow_values")]
            ),
            "smoothness.scan_points_per_period": per_period if math.isfinite(per_period) else 0.0,
            "averaging.calls_per_op": int(averaging.sum()) / ops,
            "averaging.ms_per_call": mean_ms(dur[averaging]),
            "psi.derivative_ms_per_op": ms_per_op(dur[spans("psi.psi_derivative")]),
            "jackson.dilated_integrals_per_op": int((quad & np.isin(parent, inf_calls)).sum()) / ops,
            "jackson.inf_self_ms": mean_ms(self_t[spans("jackson.inf_quantity", everywhere=True)]),
            "jackson.bound_self_ms": mean_ms(self_t[spans("jackson.jackson_bound", everywhere=True)]),
            "widths.membership_ms": mean_ms(dur[spans("widths.membership")]),
            "widths.upper_ms_per_sample": ratio(
                float(dur[spans("widths.upper_certificate")].sum()) * 1e3, self.upper_samples
            ),
            "widths.closed_form_ms": mean_ms(dur[spans("widths.width_closed_form")]),
            "spectral.ms_per_op": ms_per_op(self_t[layer("spectral")]),
            "sampling.ms_per_op": ms_per_op(self_t[layer("sampling")]),
        }

    def write_jsonl(self, path) -> None:
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            for sid in range(len(self.start)):
                out.write(
                    f'{{"id": {sid}, "name": "{names[self.name[sid]]}", '
                    f'"start": {self.start[sid] - self.t0:.9f}, '
                    f'"end": {self.end[sid] - self.t0:.9f}, '
                    f'"parent": {self.parent[sid]}, "op": {self.op[sid]}}}\n'
                )
