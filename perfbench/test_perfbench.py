"""Smoke and self-tests of the benchmark, at the tiny size.

    python3 -m pytest perfbench -q

Each test runs ``perfbench/run.py`` as a subprocess from the checkout root,
the way the benchmark is driven.
"""

import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS, MODULES, Span, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _span_modules(lines):
    where = next(ln for ln in lines if ln.startswith("spans: "))
    with gzip.open(where.split(" ", 1)[1], "rt") as fh:
        return {json.loads(row)["name"].split(".")[0] for row in fh}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    lines, result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0.0, metric["name"]
        assert any(ln.startswith(f"{metric['name']} = ") and
                   f" {metric['unit']} n=" in ln for ln in lines)


def test_traced_runs_cover_all_modules_and_counts_repeat():
    seen = set()
    for workload in WORKLOADS:
        first_lines, first = _run(workload, trace=1)
        _, second = _run(workload, trace=1)
        assert set(first["metrics"]) == {m["name"]
                                         for m in SPEC["per_layer"]}
        for name in EXACT_COUNTS:
            assert first["metrics"][name] == second["metrics"][name], name
        seen |= _span_modules(first_lines)
    assert set(MODULES) <= seen


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pool_wait_is_not_the_waiters_self_time():
    # a span on thread 1 waits on two overlapping pool spans, then runs a
    # same-thread child
    spans = [Span(1, "cli.check_laws", 0.0, 10.0, None, "j", 1),
             Span(2, "laws.a", 1.0, 6.0, 1, "j", 2),
             Span(3, "laws.b", 2.0, 8.0, 1, "j", 3),
             Span(4, "reporting.write_csv", 8.5, 9.0, 1, "j", 1)]
    selft = self_times(spans)
    assert selft[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert selft[2] == pytest.approx(5.0) and selft[3] == pytest.approx(6.0)
