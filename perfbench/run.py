#!/usr/bin/env python3
"""End-to-end HTTP serving benchmark for the sampling service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive-open --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload bulk-export --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke          # every workload, very short

A run starts the served system (``server.py``) in its own process — TVAE
fitted on ``ExperimentConfig.ci()``'s PanDA dataset, a ``SamplingService``
in ``sampling_mode="fast"`` with 16,384-row chunks and one worker per CPU,
behind ``FrontDoor.start_http`` on loopback — and drives it from this
process with the workload's seeded requests.

``--trace 0`` measures the end-to-end metrics with tracing off; the server
is launched five times and ``setup_s`` is the median time from starting
its process to its ready line.  ``--trace 1`` splits the window into an
untraced half and a traced half over the same request prefix, each on a
fresh service and in an order set by the seed's parity; the traced half
yields the per-layer metrics and time budget (``layers.py``), the
difference between the halves the tracing overhead, and the spans are
exported with ``Tracer.export`` to ``perfbench/out/`` (Perfetto-loadable).
The window defaults to ``run_seconds`` in ``BENCHMARK.json``.

Every run checks the program's outputs: each 200 response must carry
``rows == n`` and a fingerprint; a seeded subset is re-fingerprinted from
its returned columns and compared with an in-process reference
(``Table.concat(model.sample_batches(...))``); the digest of the
request prefix must match across runs of the same source and across the
traced and untraced halves.  Any mismatch prints ``"correct": false`` and
exits 1.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Server launches per untraced run; the median launch time is ``setup_s``.
SETUPS = 5
SMOKE_SECONDS = 2.0

#: The end-to-end metrics every untraced run reports, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("p50_ms", "ms"),
    ("slo_attainment", "fraction"),
)

from client import Outcome, StreamRun, get_metrics, run_streams  # noqa: E402
from layers import PER_LAYER_UNITS, analyse  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    describe,
    generate,
    percentile,
    swap_offsets,
    verify_picks,
)


class BenchmarkError(RuntimeError):
    """The run could not be carried out (not a correctness failure)."""


class Server:
    """The served system's process and its JSON-lines control channel."""

    def __init__(self, versions: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # The program's temporary files (the shm transport's spool) stay
        # inside the checkout.
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(OUT / "tmp")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"),
             "--versions", str(versions), "--root", str(OUT / "tmp")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True, bufsize=1,
        )

    def ready(self) -> dict:
        """Wait for the ready line; ``setup_s`` is the time since launch."""
        ready = self.read(timeout=150)
        ready["setup_s"] = time.perf_counter() - self.launched
        return ready

    def read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchmarkError(f"server silent for {timeout:.0f}s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError(f"server exited (code {self.proc.poll()})")
        return json.loads(line)

    def call(self, payload: dict, timeout: float = 120.0) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self.read(timeout)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.call({"cmd": "stop"}, timeout=60)
        except (BenchmarkError, OSError, ValueError):
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Phase:
    label: str
    window_s: float
    runs: Dict[str, StreamRun]
    start: float
    collected: dict
    picks: Dict[str, List[int]]
    digest: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    def outcomes(self) -> List[Outcome]:
        return [o for run in self.runs.values() for o in run.outcomes]


def cpu_times() -> Optional[List[int]]:
    """The host's aggregate CPU jiffies (Linux), for the steal share."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests (8th field)."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed, recorded
    beside the metrics so that host drift between runs can be told apart
    from program changes.  It is not part of any metric."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def run_phase(server: Server, workload: Workload, seed: int, window_s: float,
              traced: bool, label: str) -> Phase:
    address = tuple(server.call({"cmd": "serve", "traced": traced})["address"])
    requests = generate(workload, seed, window_s)
    picks = verify_picks(workload, seed, requests)
    offsets = swap_offsets(workload, seed, window_s)

    def start_swaps() -> None:
        server.call({"cmd": "swaps", "offsets": offsets})

    before = cpu_times()
    runs, start = run_streams(
        address, workload.streams, requests, window_s, picks,
        scrape_hz=workload.scrape_hz, on_start=start_swaps if offsets else None,
    )
    steal = steal_share(before, cpu_times())
    if traced:
        # Every traced run reports every layer: where the workload itself
        # does not scrape or swap, time one idle scrape and swap after it.
        first = next(iter(runs.values()))
        if not any(run.scrapes for run in runs.values()):
            first.scrapes.extend(get_metrics(address) for _ in range(3))
        if not offsets:
            server.call({"cmd": "swaps", "offsets": [0.0]})
    collected = server.call({"cmd": "collect"}, timeout=170)
    collected["host_steal_share"] = steal
    return Phase(label, window_s, runs, start, collected, picks)


def check_phase(server: Server, workload: Workload, phase: Phase, kinds) -> None:
    """Reference-check the seeded subset; compute the prefix digest."""
    from repro.serve.api import table_fingerprint
    from repro.tabular.schema import TableSchema
    from repro.tabular.table import Table

    import numpy as np

    for outcome in phase.outcomes():
        if outcome.status == 200 and not outcome.ok:
            phase.problems.append(f"{outcome.request.stream}#{outcome.request.index}: {outcome.error}")
    chosen: List[Outcome] = []
    for stream in workload.streams:
        by_index = {o.request.index: o for o in phase.runs[stream.name].outcomes}
        for index in phase.picks[stream.name]:
            outcome = by_index.get(index)
            if outcome is not None and outcome.ok:
                chosen.append(outcome)
    if chosen:
        refs = server.call(
            {"cmd": "verify", "items": [{"seed": o.request.seed, "n": o.request.n} for o in chosen]},
            timeout=170,
        )["fingerprints"]
        for outcome, versions in zip(chosen, refs):
            allowed = versions if workload.swaps_per_s > 0 else versions[:1]
            name = f"{outcome.request.stream}#{outcome.request.index}"
            if outcome.fingerprint not in allowed:
                outcome.ok, outcome.error = False, "fingerprint differs from the in-process reference"
                phase.problems.append(f"{name}: {outcome.error}")
            if outcome.columns is not None:
                columns, outcome.columns = outcome.columns, None
                if set(columns) != set(kinds):
                    rebuilt = None
                else:
                    rebuilt = table_fingerprint(Table(
                        {c: np.asarray(columns[c], dtype=np.float64) if kind == "numerical"
                         else columns[c] for c, kind in kinds.items()},
                        TableSchema.from_kinds(kinds),
                    ))
                if rebuilt != outcome.fingerprint:
                    outcome.ok, outcome.error = False, "returned columns do not match the fingerprint"
                    phase.problems.append(f"{name}: {outcome.error}")
    digest = hashlib.sha256()
    for stream in workload.streams:
        by_index = {o.request.index: o for o in phase.runs[stream.name].outcomes}
        for index in range(workload.digest_prefix):
            outcome = by_index.get(index)
            if outcome is None or not outcome.ok:
                return  # prefix not complete (a very short window): no digest
            r = outcome.request
            digest.update(f"{r.stream}|{r.index}|{r.n}|{r.seed}|{outcome.fingerprint}\n".encode())
    phase.digest = digest.hexdigest()


def end_to_end(workload: Workload, phase: Phase) -> Tuple[Dict[str, float], dict]:
    """The user-visible metrics of one phase, plus per-stream detail.

    Failed requests count as misses: an infinite latency for the
    percentiles and outside the SLO limit.
    """
    outcomes = phase.outcomes()
    ok = [o for o in outcomes if o.ok]
    last = max((o.last for o in outcomes), default=phase.start + phase.window_s)
    metrics: Dict[str, float] = {
        "rows_per_s": sum(o.request.n for o in ok) / max(last - phase.start, 1e-9),
    }
    detail: dict = {"streams": {}}
    for stream in workload.streams:
        run = phase.runs[stream.name]
        lat = [o.latency if o.ok else math.inf for o in run.outcomes]
        lags = [o.send - o.due for o in run.outcomes if o.due is not None]
        slo = sum(x <= stream.limit_s for x in lat) / len(lat) if lat else float("nan")
        half = len(lags) // 2
        detail["streams"][stream.name] = {
            "sent": len(run.outcomes),
            "ok": sum(o.ok for o in run.outcomes),
            "p50_ms": percentile(lat, 0.5) * 1e3,
            # Tail percentiles only where at least ten samples lie beyond.
            "p90_ms": percentile(lat, 0.9) * 1e3 if len(lat) >= 100 else None,
            "p99_ms": percentile(lat, 0.99) * 1e3 if len(lat) >= 1000 else None,
            "slo_attainment": slo,
            "lag_ms_p99": percentile(lags, 0.99) * 1e3 if lags else None,
            # A growing backlog: the late half of the window lags more than
            # the early half by over 50 ms at the median.
            "lag_grows": half > 0 and (
                percentile(lags[half:], 0.5) - percentile(lags[:half], 0.5) > 0.05),
            "latency_ms": [round(x * 1e3, 3) for x in lat],
        }
        if stream.measured:
            metrics["p50_ms"] = percentile(lat, 0.5) * 1e3
            metrics["slo_attainment"] = slo
    detail["host_steal_share"] = phase.collected.get("host_steal_share")
    swaps = phase.collected.get("swaps", [])
    if swaps:
        detail["swap_s_p50"] = percentile([s["swap_s"] for s in swaps], 0.5)
        detail["swaps"] = len(swaps)
    return metrics, detail


def client_layer(phase: Phase) -> Tuple[Dict[str, float], List[dict]]:
    """Client-layer metrics and wall-clock outcome records for the budget."""
    from repro.obs.tracing import trace_id_from_seed

    offset = time.time() - time.perf_counter()
    outcomes = phase.outcomes()
    ok = [o for o in outcomes if o.ok]
    lags = [o.send - o.due for o in outcomes if o.due is not None]
    metrics = {
        "client.lag_ms_p99": percentile(lags, 0.99) * 1e3 if lags else 0.0,
        "client.ttfb_ms_p50": percentile([o.first - o.send for o in ok], 0.5) * 1e3,
        "client.transfer_ms_p50": percentile([o.last - o.first for o in ok], 0.5) * 1e3,
        "client.bytes_per_row": sum(o.nbytes for o in ok) / max(1, sum(o.request.n for o in ok)),
        "client.sent": float(len(outcomes)),
        "client.ok": float(len(ok)),
        "client.rejected_429": float(sum(o.status == 429 for o in outcomes)),
        "client.failed": float(len(outcomes) - len(ok)),
    }
    records = [
        {
            "trace_id": trace_id_from_seed(o.request.seed),
            "send": o.send + offset,
            "first": o.first + offset,
            "last": o.last + offset,
            "rows": o.request.n,
            "nbytes": o.nbytes,
        }
        for o in ok
    ]
    return metrics, records


def export_trace(path: Path, spans: List[dict], records: List[dict]) -> int:
    from repro.obs.tracing import Span, Tracer

    tracer = Tracer()
    tracer.extend([Span(**span) for span in spans])
    for r in records:
        tracer.record(Span(
            name="client.request", trace_id=r["trace_id"], span_id=f"client-{r['trace_id']}",
            start=r["send"], duration=r["last"] - r["send"], pid=os.getpid(), tid=0,
            attrs={"ttfb_ms": (r["first"] - r["send"]) * 1e3, "rows": r["rows"]},
        ))
    return tracer.export(str(path))


def files_digest(root: Path, pattern: str) -> str:
    """SHA-256 over the files under ``root`` matching ``pattern``, by path."""
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(ready: dict) -> dict:
    import numpy as np

    from repro.experiments.config import ExperimentConfig

    return {
        "nproc": os.cpu_count(),
        "workers": ready["workers"],
        "transport": ready["transport"],
        "chunk_size": ready["chunk_size"],
        "model": {"name": "tvae", "sampling_mode": "fast",
                  "config": asdict(ExperimentConfig.ci().tvae)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "source_sha256": files_digest(SRC, "*.py"),
        # The request generator and workload definitions: digests compare
        # only between runs that sent the same requests.
        "workload_sha256": hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest(),
        "benchmark_sha256": files_digest(HERE, "*.py"),
        "platform": platform.platform(),
    }


def check_digest(key: str, digest: Optional[str], problems: List[str]) -> Optional[str]:
    """Compare against the digest an earlier run of the same source stored.

    Returns ``"matched"`` or ``"differs"`` when an earlier run had stored
    one, ``"stored"`` when this run is the first, ``None`` without a digest.
    """
    if digest is None:
        return None
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key not in known:
        known[key] = digest
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
        return "stored"
    if known[key] != digest:
        problems.append(f"digest {digest[:12]} differs from an earlier run's {known[key][:12]}")
        return "differs"
    return "matched"


def run_workload(name: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    """One run of one workload: serve, drive, check; returns the run record."""
    workload = WORKLOADS[name]
    versions = 2 if (workload.swaps_per_s > 0 or trace) else 1
    host_ref_ms = {"before": host_reference_ms()}
    setup_s = []
    for _ in range(setups - 1):
        server = Server(versions)
        try:
            setup_s.append(server.ready()["setup_s"])
        finally:
            server.close()
    server = Server(versions)
    try:
        ready = server.ready()
        setup_s.append(ready["setup_s"])
        labels = [("untraced", seconds / 2, False), ("traced", seconds / 2, True)] if trace \
            else [("untraced", seconds, False)]
        if seed % 2:
            # Odd seeds run the traced half first, so the overhead's
            # median over seeds carries no order effect.
            labels.reverse()
        phases = [run_phase(server, workload, seed, window, traced, label)
                  for label, window, traced in labels]
        kinds = dict(ready["kinds"])
        for phase in phases:
            check_phase(server, workload, phase, kinds)
    finally:
        server.close()
    host_ref_ms["after"] = host_reference_ms()

    meta = metadata(ready)
    problems = [p for phase in phases for p in phase.problems]
    for phase in phases:
        if phase.collected.get("swap_error"):
            problems.append(f"swap failed: {phase.collected['swap_error']}")
    digests = {phase.label: phase.digest for phase in phases}
    if trace and None not in digests.values() and len(set(digests.values())) > 1:
        problems.append("traced and untraced halves served different bytes")
    digest_check = {
        phase.label: check_digest(
            f"{meta['source_sha256']}|{meta['workload_sha256']}|{name}|{seed}",
            phase.digest, problems)
        for phase in phases
    }

    sent = sum(len(phase.outcomes()) for phase in phases)
    swaps = sum(len(phase.collected.get("swaps", [])) for phase in phases)
    failed = sum(not o.ok for phase in phases for o in phase.outcomes())
    failed += sum(bool(phase.collected.get("swap_error")) for phase in phases)

    e2e = {}
    details = {}
    for phase in phases:
        e2e[phase.label], details[phase.label] = end_to_end(workload, phase)
    if trace:
        traced = next(phase for phase in phases if phase.label == "traced")
        client_metrics, records = client_layer(traced)
        layer_metrics, budget = analyse(
            traced.collected["spans"], records,
            window_s=traced.window_s, workers=traced.collected["workers"],
            stats=traced.collected["stats"], swaps=traced.collected["swaps"],
            scrapes_ms=[(s.last - s.send) * 1e3 for run in traced.runs.values() for s in run.scrapes],
        )
        layer_metrics.update(client_metrics)
        layer_metrics["obs.trace_overhead_p50_ms"] = e2e["traced"]["p50_ms"] - e2e["untraced"]["p50_ms"]
        layer_metrics["obs.trace_overhead_rows_per_s"] = (
            e2e["traced"]["rows_per_s"] - e2e["untraced"]["rows_per_s"])
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"{name}-seed{seed}.trace.json"
        export_trace(trace_path, traced.collected["spans"], records)
        values = {k: layer_metrics[k] for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        details["budget"] = budget
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values = dict(e2e["untraced"])
        values["setup_s"] = statistics.median(setup_s)
        units = dict(END_TO_END)
        details["setup_s_samples"] = setup_s
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "shape": describe(workload, seconds),
        "metadata": meta,
        "digests": digests,
        "digest_check": digest_check,
        "host_ref_ms": host_ref_ms,
        "problems": problems,
        "attempted": sent + swaps,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "detail": details,
    }


def _clean(value: float) -> Optional[float]:
    return None if value is None or (isinstance(value, float) and not math.isfinite(value)) else value


def print_report(record: dict) -> None:
    meta = record["metadata"]
    print(f"== {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} nproc={meta['nproc']} workers={meta['workers']} "
          f"transport={meta['transport']} chunk={meta['chunk_size']} "
          f"python={meta['python']} numpy={meta['numpy']} git={meta['git_sha']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:32s} {metric['value']!s:>24} {metric['unit']}")
    ok = record["attempted"] - record["failed"]
    print(f"  requests sent={record['attempted']} succeeded={ok} failed={record['failed']}")
    for problem in record["problems"]:
        print(f"  MISMATCH {problem}")


def result_of(records: List[dict], prefix: bool) -> dict:
    """The JSON result; ``prefix`` names metrics ``<workload>.<metric>``."""
    return {
        "correct": all(not r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": _clean(v["value"]),
                                                        "unit": v["unit"]}
            for r in records for k, v in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run every workload for {SMOKE_SECONDS:g} s with one set-up")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    # A terminated run still stops the server it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = sorted(WORKLOADS) if args.smoke else [args.workload]
    if args.smoke:
        seconds = SMOKE_SECONDS
    elif args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, seconds, bool(args.trace),
                                  1 if args.smoke or args.trace else SETUPS)
            records.append(record)
            suffix = "-smoke" if args.smoke else ""
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json"
            path.write_text(json.dumps(record, indent=1))
            print_report(record)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = result_of(records, prefix=args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
