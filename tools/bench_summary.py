"""Summarize benchmark runs over seeds into one committed BENCH_<tag>.json.

Runs ``perfbench/run.py`` of a source checkout, unchanged, for seeds
1..:data:`SEEDS` on every workload that ``BENCHMARK.json`` declares, each
run as long as its ``run_seconds`` (end-to-end metrics, no trace), and
writes the median and quartiles of each end-to-end metric per workload,
with the commit and the machine, to ``BENCH_<tag>.json`` at the root of
this repository:

    python3 tools/bench_summary.py --tag baseline
    python3 tools/bench_summary.py --tag after --checkout ../other-clone

The runs go seed by seed, all workloads within a seed, so that a slow spell
of the machine spreads over the workloads instead of hitting one.  A run
that exits non-zero, prints no result or reports ``correct: false`` is kept
in the file with its seed and counted in ``incorrect_runs``; its metrics
still enter the summary, since the gate reads them too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Each workload runs seeds 1..SEEDS.
SEEDS = 5


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and the inclusive first and third quartiles of the values."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[str]) -> dict:
    """Per-metric quartiles and per-seed values of one workload's runs."""
    summary = {}
    for name in metrics:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        if not values:
            continue
        unit = next(run["metrics"][name]["unit"] for run in runs if name in run["metrics"])
        summary[name] = {"unit": unit, **quartiles(values), "values": values}
    return summary


def machine() -> dict:
    """What the numbers were measured on."""
    import numpy

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(errors="replace").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": model or platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def commit_of(checkout: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    dirty = subprocess.run(
        ["git", "-C", str(checkout), "status", "--porcelain", "--", "src", "perfbench"],
        capture_output=True, text=True,
    ).stdout.strip()
    return out.stdout.strip() + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run; its result object, or a record of its failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["seed"] = seed
    result["returncode"] = proc.returncode
    if proc.returncode != 0:
        result["correct"] = False
        result["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="the file written is BENCH_<tag>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout whose perfbench/run.py runs (default: this one)")
    args = parser.parse_args(argv)
    if not args.tag.replace("_", "").replace("-", "").isalnum():
        parser.error("--tag may hold letters, digits, '-' and '_' only")
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(1, SEEDS + 1):
        for workload in workloads:
            result = run_once(checkout, workload, seed, seconds)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result.get('correct')}", file=sys.stderr)

    record = {
        "tag": args.tag,
        "commit": commit_of(checkout),
        "machine": machine(),
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "seeds": list(range(1, SEEDS + 1)),
        "workloads": {
            w: {
                "incorrect_runs": sum(not r.get("correct") for r in rs),
                "failed_ops": sum(r.get("failed", 0) for r in rs),
                "attempted_ops": sum(r.get("attempted", 0) for r in rs),
                "metrics": summarize(rs, metrics),
            }
            for w, rs in runs.items()
        },
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0 if all(rec["incorrect_runs"] == 0 for rec in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
