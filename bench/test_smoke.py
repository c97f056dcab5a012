"""The benchmark's own test: a smoke run of every workload.

    python3 -m pytest -q bench/test_smoke.py

Smoke runs use tiny grids and a few ops.  They check that every metric
named in BENCHMARK.json is printed, that no output check fails, that two
traced runs with one seed give identical work counts, and that the
benchmark refuses to run without the package sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
#: sweep-umbilic is runnable by name but not listed in BENCHMARK.json
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["sweep-umbilic"]


def _run(workload, trace, cwd=BENCH.parent, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    table = proc.stdout.splitlines()
    assert any(line.split()[:2] == ["fail_ratio", "0"] for line in table if line.strip())
    assert any(line.split()[:1] == ["op_tail_ms"] for line in table if line.strip())
    assert any(line.startswith("env ") for line in table)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_repeatable_counts(workload):
    first, second = (_result(_run(workload, 1)) for _ in range(2))
    spec = {m["name"]: m for m in SPEC["per_layer"]}
    assert sorted(first["metrics"]) == sorted(spec)
    assert first["correct"] and first["failed"] == 0
    for name, m in spec.items():
        assert first["metrics"][name]["unit"] == m["unit"]
        if m["unit"] != "s" and name not in ("trace.coverage", "trace.overhead"):
            # work counts and their ratios repeat exactly; times do not
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
