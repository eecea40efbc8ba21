"""Smoke self-check of the benchmark: a very short run of every workload,
untraced and traced, plus the refusal to run outside a checkout.

    python3 -m pytest -q perfbench/tests

Each run still does its full set-up, so the module takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def _table(stdout) -> dict:
    """metric name -> (value, unit) from the printed table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("{"):
            try:
                rows[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return rows


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    table = _table(proc.stdout)
    assert [m for m in result["metrics"]] == \
        [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]
        assert table[m["name"]] == (pytest.approx(got["value"], rel=1e-3),
                                    m["unit"])
    assert table["error_rate"] == (0.0, "ratio")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_a_trace(workload):
    trace = ROOT / ".perfbench" / "out" / f"trace-{workload}-seed{SEED}.json"
    trace.unlink(missing_ok=True)
    proc = _run(workload, 1)
    result = _result(proc)
    table = _table(proc.stdout)
    assert [m for m in result["metrics"]] == \
        [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]][1] == m["unit"]
    assert result["metrics"]["sniffer.findings_shipped"]["value"] == 0
    assert table["error_rate"] == (0.0, "ratio")
    assert "prediction " in proc.stdout
    spans = json.loads(trace.read_text())["spans"]
    assert spans and all(s[2] >= s[1] for s in spans)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
