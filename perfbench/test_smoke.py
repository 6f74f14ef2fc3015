"""Tiny-size smoke run of the benchmark (about two minutes on one CPU).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a few thousand rows, checks that each metric named
in BENCHMARK.json is printed with its unit and that no operation failed,
repeats one seed to exercise the exact-count self-check, and checks that
the benchmark refuses to run without the engine beside it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--rows", "1600", "--parts", "4", "--seconds", "1"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload, seed, trace, cwd=ROOT, extra=TINY):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return p


def _result(p):
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def _check(res, metrics):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", ["ingest", "scan", "lookup"])
def test_end_to_end_metrics(workload):
    res = _result(_run(workload, 5, 0))
    _check(res, _spec()["end_to_end"])
    for name in ("setup_s", "ingest_mbps", "scan_mbps", "point_p50_ms",
                 "upsert_p50_ms", "lookup_ops_per_s", "stored_ratio"):
        assert res["metrics"][name]["value"] > 0, name


def test_traced_run_and_exact_repeat():
    spec = _spec()["per_layer"]
    first = _run("lookup", 6, 1)
    _check(_result(first), spec)
    # same seed again: run.py raises if any exact count differs
    second = _run("lookup", 6, 1)
    _check(_result(second), spec)
    ctx = [json.loads(line)["context"]
           for p in (first, second)
           for line in p.stdout.splitlines() if line.startswith('{"context"')]
    assert ctx[0]["exact"] == ctx[1]["exact"]


def test_refuses_without_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("ingest", 1, 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
