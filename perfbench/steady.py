#!/usr/bin/env python3
"""Steadiness evidence: run the benchmark over many seeds, report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload bulk-export --runs 5
    python3 perfbench/steady.py --all --runs 10 --write set1

Run ``i`` uses seed ``i`` (1..runs) and the window ``run_seconds`` of
``BENCHMARK.json``.  For every metric it prints the median, the quartiles
(Python's ``statistics.quantiles(values, n=4)``) and the spread — the
distance between the quartiles as a share of the median — next to the
metric's bound.  The runs' request-prefix digests are also compared
against the digest store, so a seed run twice must serve the same bytes.
``--write TAG`` records the summary under ``perfbench/results/``, with
each run's metadata (source, workload and benchmark digests, git SHA),
its prefix digests and whether they were compared with an earlier run's,
the host's CPU steal share and its reference-loop time; ``--compare TAG1 TAG2`` reports how far
each median moved between two recorded sets, against the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its JSON result plus what its record says of it."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["run"] = {
        "seed": seed,
        "wall_s": round(time.perf_counter() - started, 2),
        "metadata": record["metadata"],
        "digests": record["digests"],
        "digest_check": record["digest_check"],
        "host_steal_share": {label: phase["host_steal_share"]
                             for label, phase in record["detail"].items()
                             if label in record["digests"]},
        "host_ref_ms": record["host_ref_ms"],
    }
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def compare(first: str, second: str, bench: dict) -> int:
    """Print how far each median of set ``second`` moved from set ``first``.

    The shift is taken in the worse direction, as a share of the first
    median, beside the metric's bound; exits 1 when a shift exceeds it.
    """
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    worst = 0
    for w in bench["workloads"]:
        paths = [HERE / "results" / f"steadiness-{w['name']}-{tag}.json" for tag in (first, second)]
        if not all(path.is_file() for path in paths):
            print(f"== {w['name']}: not recorded in both sets")
            continue
        a, b = (json.loads(path.read_text()) for path in paths)
        ref1, ref2 = (statistics.median(r["host_ref_ms"]["before"] for r in x["runs"])
                      for x in (a, b))
        print(f"== {w['name']}: {second} vs {first}  "
              f"(host reference loop {ref1:.2f} -> {ref2:.2f} ms)")
        for key, (direction, bound) in better.items():
            m1, m2 = a["metrics"][key]["median"], b["metrics"][key]["median"]
            worse = (m2 - m1) / abs(m1) if direction == "lower" else (m1 - m2) / abs(m1)
            flag = "ok" if worse <= bound else "OVER"
            worst |= flag == "OVER"
            print(f"  {key:16s} {m1:14.4f} -> {m2:14.4f}  worse by {worse:+.4f}  bound {bound}  {flag}")
    return int(worst)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("TAG1", "TAG2"),
                        help="compare two recorded sets instead of running")
    parser.add_argument("--write", metavar="TAG",
                        help="record the summary as results/steadiness-<workload>-<TAG>.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, bench)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for name in names:
        runs = [run_once(name, seed, seconds, args.trace) for seed in range(1, args.runs + 1)]
        metrics = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            if any(v is None for v in values):
                metrics[key] = {"values": values}
                continue
            metrics[key] = dict(summarise(values), values=values,
                                unit=runs[0]["metrics"][key]["unit"], bound=bounds.get(key))
        summary[name] = {
            "seconds": seconds,
            "trace": args.trace,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
            "runs": [r["run"] for r in runs],
        }
        refs = [r["run"]["host_ref_ms"]["before"] for r in runs]
        checks = sorted({c for r in runs for c in r["run"]["digest_check"].values()}, key=str)
        print(f"== {name}: {args.runs} runs, correct={summary[name]['correct']}, "
              f"failed={sum(summary[name]['failed'])}, "
              f"wall max {max(r['run']['wall_s'] for r in runs)}s, digests {checks}, "
              f"host reference loop {min(refs):.2f}-{max(refs):.2f} ms")
        for key, m in metrics.items():
            if "median" not in m:
                continue
            bound, spread = m["bound"], m["spread"]
            flag = "" if bound is None or spread is None else (
                "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER"))
            print(f"  {key:32s} median {m['median']:14.4f}  q1 {m['q1']:14.4f}  q3 {m['q3']:14.4f}"
                  f"  spread {spread if spread is None else round(spread, 4)!s:>7}"
                  f"  bound {bound}  {flag}")
        sys.stdout.flush()
    if args.write:
        out = HERE / "results"
        out.mkdir(exist_ok=True)
        for name, data in summary.items():
            path = out / f"steadiness-{name}-{args.write}.json"
            path.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
