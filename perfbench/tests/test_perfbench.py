"""Tests of the serving benchmark: generator, budget arithmetic, smoke run.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    # swap-under-load stays runnable but is not a benchmark workload (its
    # p50 did not repeat between runs; see README).
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "swap-under-load"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for w in spec["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    workload = workloads.WORKLOADS[name]
    a = workloads.generate(workload, 7, 20.0)
    b = workloads.generate(workload, 7, 20.0)
    c = workloads.generate(workload, 8, 20.0)
    short = workloads.generate(workload, 7, 10.0)
    def key(r):
        return (r.n, r.seed, r.tenant, r.priority, r.due)

    for stream in workload.streams:
        assert [key(r) for r in a[stream.name]] == [key(r) for r in b[stream.name]]
        assert [r.seed for r in a[stream.name]] != [r.seed for r in c[stream.name]]
        # Request i does not depend on the window: halves share a prefix.
        prefix = [(r.n, r.seed, r.tenant) for r in short[stream.name]]
        assert prefix == [(r.n, r.seed, r.tenant) for r in a[stream.name]][: len(prefix)]
    seeds = [r.seed for reqs in a.values() for r in reqs]
    assert len(seeds) == len(set(seeds))


@pytest.mark.parametrize("name", ["interactive-open", "swap-under-load"])
def test_open_loop_offers_the_same_work_for_every_seed(name):
    # At the benchmark's run length the window holds whole size blocks.
    window = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workload = workloads.WORKLOADS[name]
    stream = workload.streams[0]
    totals = set()
    for seed in range(5):
        reqs = workloads.generate(workload, seed, window)[stream.name]
        dues = [r.due for r in reqs]
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < window
        totals.add((len(reqs), sum(r.n for r in reqs)))
    assert len(totals) == 1


def test_budget_sweep_partitions_the_window():
    intervals = [(0.0, 4.0, "http"), (1.0, 3.0, "service"), (1.5, 2.0, "models"),
                 (5.0, 6.0, "client")]
    shares = layers.sweep((0.0, 8.0), intervals)
    assert shares == pytest.approx({"http": 2.0, "service": 1.5, "models": 0.5,
                                    "client": 1.0, "unattributed": 3.0})
    assert sum(shares.values()) == pytest.approx(8.0)


def test_smoke_runs_every_workload_and_checks_outputs():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= len(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for metric in layers.PER_LAYER_UNITS:
            assert f"{name}.{metric}" in result["metrics"]
        record = json.loads((BENCH / "out" / f"{name}-seed1-trace1-smoke.json").read_text())
        meta = record["metadata"]
        for key in ("nproc", "workers", "transport", "chunk_size", "model", "python",
                    "numpy", "git_sha", "source_sha256"):
            assert key in meta
        assert record["detail"]["trace_file"].endswith(".trace.json")


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_digest_check_says_whether_an_earlier_run_was_compared(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    problems = []
    assert run.check_digest("k", "aa", problems) == "stored"
    assert run.check_digest("k", "aa", problems) == "matched"
    assert run.check_digest("k", None, problems) is None
    assert problems == []
    assert run.check_digest("k", "bb", problems) == "differs"
    assert len(problems) == 1
