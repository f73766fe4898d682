"""The summary statistics of tools/bench_summary.py (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_SPEC = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)


def run(ops, evals):
    return {"metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "shape_evals_per_op": {"value": evals, "unit": "count"}}}


def test_median_and_inclusive_quartiles():
    assert bench_summary.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0
    }
    assert bench_summary.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_keeps_units_and_per_seed_values():
    runs = [run(100.0, 10.0), run(120.0, 10.0), run(110.0, 10.0)]
    out = bench_summary.summarize(runs, ["ops_per_s", "shape_evals_per_op", "setup_s"])
    assert set(out) == {"ops_per_s", "shape_evals_per_op"}  # no run reported setup_s
    assert out["ops_per_s"]["unit"] == "1/s"
    assert out["ops_per_s"]["values"] == [100.0, 120.0, 110.0]
    assert out["ops_per_s"]["median"] == 110.0
    assert out["ops_per_s"]["q1"] == pytest.approx(105.0)
    assert out["shape_evals_per_op"]["q3"] == 10.0


def test_a_tag_that_is_not_a_plain_name_is_refused():
    with pytest.raises(SystemExit) as exc:
        bench_summary.main(["--tag", "../x"])
    assert exc.value.code == 2
