"""Benchmark of spapprox: fuzz, window and majorant workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

One workload runs in one single-threaded process.  After the imports it
times the workload's set-up several times (``setup_s`` is the median), runs
one untimed warm-up operation, then repeats whole rounds of the same
operations until the next round would end past ``--seconds``.  Every
output is checked against independent references after the timed phase.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Trace spans and each result are also written under ``perfbench/out``.
"""

import argparse
import gc
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: The tail percentile leaves this many operations of one round beyond it.
TAIL_BEYOND = 10


def tail_rank(round_size: int, total: int) -> int:
    """Index, in ascending order, of the tail latency among ``total`` ones.

    The percentile is the highest one with TAIL_BEYOND operations of a
    round beyond it; it depends on the fixed round size only, so it is the
    same on every commit whatever the number of rounds.
    """
    q = 1.0 - TAIL_BEYOND / round_size
    return max(math.ceil(q * total) - 1, 0)


def run(workload_cls, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result object, and the round count and timed seconds of the run."""
    import workloads
    from tracer import SETUP_OP, WARMUP_OP, Tracer

    wl = workload_cls(seed)
    counter = workloads.ShapeEvalCounter()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    setup_times = []
    for _ in range(wl.SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(counter)
        setup_times.append(time.perf_counter() - t0)

    ops = wl.operations()
    if tracer:
        tracer.op_id = WARMUP_OP
    try:
        ops[0]()
    except Exception:  # counted where it fails again, in every timed round
        pass

    gc.collect()
    latencies: list[float] = []
    outputs: list[tuple[int, object]] = []
    failed = 0
    rounds = 0
    counter.points = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = len(latencies)
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                if failed == 1:
                    traceback.print_exc()
                out = None
            latencies.append(time.perf_counter() - t0)
            if out is not None:
                outputs.append((i, out))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    if tracer:
        tracer.op_id = SETUP_OP
    attempted = len(latencies)
    shape_points = counter.points
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = wl.check(outputs)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if trace:
        values = tracer.metrics(attempted)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{wl.name}-seed{seed}.jsonl")
    else:
        ordered = sorted(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / elapsed, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_tail_ms": {
                "value": ordered[tail_rank(len(ops), attempted)] * 1e3, "unit": "ms"
            },
            "shape_evals_per_op": {"value": shape_points / attempted, "unit": "count"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, {"rounds": rounds, "timed_s": elapsed}


PER_LAYER_UNITS = {
    "quadrature.integrals_per_op": "count",
    "quadrature.points_per_integral": "count",
    "quadrature.passes_per_integral": "count",
    "quadrature.self_ms_per_op": "ms",
    "smoothness.build_ms": "ms",
    "smoothness.scan_builds_per_op": "count",
    "smoothness.query_points_per_op": "count",
    "smoothness.query_ms_per_op": "ms",
    "smoothness.scan_points_per_period": "count",
    "averaging.calls_per_op": "count",
    "averaging.ms_per_call": "ms",
    "psi.derivative_ms_per_op": "ms",
    "jackson.dilated_integrals_per_op": "count",
    "jackson.inf_self_ms": "ms",
    "jackson.bound_self_ms": "ms",
    "widths.membership_ms": "ms",
    "widths.upper_ms_per_sample": "ms",
    "widths.closed_form_ms": "ms",
    "spectral.ms_per_op": "ms",
    "sampling.ms_per_op": "ms",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "spapprox" / "__init__.py").is_file():
        print(f"spapprox sources not found under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS/OpenMP pools to one thread before numpy loads them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    result, timing = run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = json.dumps({**result, **timing}, indent=2)
    (OUT / name).write_text(record + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
