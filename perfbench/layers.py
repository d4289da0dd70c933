"""Per-layer metrics and the per-request time budget of a traced run.

Inputs are the spans of the traced phase — the program's own
(``request``, ``admission``, ``queue_wait``, ``dispatch``, ``chunk[i]``,
``attempt[j]``, ``worker_compute``, ``shm_encode``, ``shm_decode``,
``assemble``, ``deliver``) and the benchmark's ``bench.*`` wrapper spans —
plus the client's own timings.  Two quantities are derived, not recorded:

* ``pool_queue``: from an attempt's submission to its ``worker_compute``
  start;
* ``return``: from the end of the last worker-side span to the moment the
  parent picks the result up (``bench.decode_chunk`` entry).

The budget splits each request's client wall time (send to last byte)
along one timeline: at every instant the most specific layer whose span is
open takes the time, and instants no span covers are ``unattributed``.  The
shares therefore sum to one for every request.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import percentile

#: Budget layers, most specific first (the sweep's precedence order).
BUDGET_LAYERS = (
    "models",
    "shm",
    "sharded",
    "service",
    "admission",
    "broker",
    "http",
    "client",
)

#: Span name -> budget layer.
_LAYER_OF = {
    "worker_compute": "models",
    "shm_encode": "shm",
    "shm_decode": "shm",
    "pool_queue": "sharded",
    "return": "sharded",
    "attempt": "sharded",
    "chunk": "sharded",
    "bench.assemble": "service",
    "deliver": "service",
    "dispatch": "service",
    "queue_wait": "service",
    "bench.service_submit": "admission",
    "admission": "admission",
    "bench.frontdoor_submit": "broker",
    "bench.fingerprint": "http",
    "edge": "http",
    "transfer": "client",
}

Interval = Tuple[float, float, str]


def _base(name: str) -> str:
    return name.split("[", 1)[0]


def sweep(window: Tuple[float, float], intervals: Sequence[Interval]) -> Dict[str, float]:
    """Attribute every instant of ``window`` to its most specific open layer."""
    lo, hi = window
    rank = {layer: i for i, layer in enumerate(BUDGET_LAYERS)}
    clipped = [(max(a, lo), min(b, hi), layer) for a, b, layer in intervals if b > lo and a < hi]
    edges = sorted({lo, hi, *(a for a, _, _ in clipped), *(b for _, b, _ in clipped)})
    out: Dict[str, float] = defaultdict(float)
    for left, right in zip(edges, edges[1:]):
        if right <= left:
            continue
        mid = 0.5 * (left + right)
        best: Optional[str] = None
        for a, b, layer in clipped:
            if a <= mid < b and (best is None or rank[layer] < rank[best]):
                best = layer
        out[best or "unattributed"] += right - left
    return out


def _ms(seconds: float) -> float:
    return seconds * 1e3


def analyse(
    spans: Sequence[dict],
    outcomes: Sequence[dict],
    *,
    window_s: float,
    workers: int,
    stats: dict,
    swaps: Sequence[dict],
    scrapes_ms: Sequence[float],
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics (name -> value) and the budget detail.

    ``outcomes`` are the traced phase's successful requests as dicts with
    wall-clock ``send``/``first``/``last``, ``due``, ``trace_id``, ``rows``
    and ``nbytes``.
    """
    by_trace: Dict[str, List[dict]] = defaultdict(list)
    dispatches: List[dict] = []
    for span in spans:
        by_trace[span["trace_id"]].append(span)
        if span["name"] == "dispatch":
            dispatches.append(span)
    dispatches.sort(key=lambda s: s["start"])

    m: Dict[str, List[float]] = defaultdict(list)
    totals: Dict[str, float] = defaultdict(float)
    program_spans = 0
    traced_requests = 0
    attempts_total = 0
    chunks_total = 0
    covered_s = attempt_s = 0.0  # attempt time under the program's own spans
    compute_s = busy_s = compute_rows = 0.0
    for outcome in outcomes:
        group = by_trace.get(outcome["trace_id"], [])
        named = defaultdict(list)
        for span in group:
            named[_base(span["name"])].append(span)
        request = named.get("request")
        if not request:
            continue
        traced_requests += 1
        program_spans += sum(1 for s in group if not s["name"].startswith("bench."))
        req = request[0]
        req_end = req["start"] + req["duration"]
        send, first, last = outcome["send"], outcome["first"], outcome["last"]
        m["client.ttfb_ms"].append(_ms(first - send))
        m["client.transfer_ms"].append(_ms(last - first))
        edge = (first - send) - req["duration"]
        m["http.edge_ms"].append(_ms(edge))
        m["http.edge_share"].append(edge / max(last - send, 1e-9))
        m["service.request_ms"].append(_ms(req["duration"]))
        for span in named.get("bench.fingerprint", ()):
            m["http.fingerprint_ms"].append(_ms(span["duration"]))
        fd = named.get("bench.frontdoor_submit", [])
        ss = named.get("bench.service_submit", [])
        if fd and ss:
            m["route.ms"].append(_ms(fd[0]["duration"] - ss[0]["duration"]))
        for span in ss:
            m["admission.ms"].append(_ms(span["duration"]))
        for span in named.get("queue_wait", ()):
            m["service.queue_wait_ms"].append(_ms(span["duration"]))
        for span in named.get("bench.assemble", ()):
            m["service.assemble_ms"].append(_ms(span["duration"]))
        for span in named.get("deliver", ()):
            m["service.deliver_ms"].append(_ms(span["duration"]))

        intervals: List[Interval] = []
        for span in group:
            layer = _LAYER_OF.get(_base(span["name"]))
            if layer is not None:
                intervals.append((span["start"], span["start"] + span["duration"], layer))
        # The dispatch span is recorded once per micro-batch (under its first
        # request); every request popped into that batch shares it.
        popped = [s["start"] + s["duration"] for s in named.get("queue_wait", ())]
        if popped:
            for span in dispatches:
                if span["start"] >= popped[0] - 1e-4:
                    if span["trace_id"] != outcome["trace_id"]:
                        intervals.append((span["start"], span["start"] + span["duration"], "service"))
                    break
        start_in = fd[0]["start"] if fd else req["start"]
        intervals.append((send, start_in, "http"))
        intervals.append((req_end, first, "http"))
        intervals.append((first, last, "client"))

        # Chunks: attempts, worker spans, derived pool-queue and return.
        workers_by_chunk = defaultdict(list)
        for name in ("worker_compute", "shm_encode"):
            for span in named.get(name, ()):
                workers_by_chunk[span["attrs"].get("chunk", 0)].append(span)
        decode_by_chunk = {s["attrs"].get("chunk", 0): s for s in named.get("bench.decode_chunk", ())}
        chunk_spans = named.get("chunk", [])
        chunks_total += len(chunk_spans)
        m["chunk.per_request"].append(float(len(chunk_spans)))
        for span in named.get("attempt", ()):
            attempts_total += 1
            if "error" in span["attrs"]:
                continue
            index = span["attrs"].get("chunk", 0)
            m["chunk.attempt_ms"].append(_ms(span["duration"]))
            attempt_s += span["duration"]
            side = sorted(workers_by_chunk.get(index, []), key=lambda s: s["start"])
            compute = [s for s in side if s["name"] == "worker_compute"]
            if compute:
                queue_s = compute[0]["start"] - span["start"]
                m["chunk.pool_queue_ms"].append(_ms(queue_s))
                intervals.append((span["start"], compute[0]["start"], "sharded"))
            worker_end = max((s["start"] + s["duration"] for s in side), default=None)
            decode = decode_by_chunk.get(index)
            if worker_end is not None and decode is not None:
                m["chunk.return_ms"].append(_ms(decode["start"] - worker_end))
            for s in side:
                covered_s += s["duration"]
                busy_s += s["duration"]
                if s["name"] == "worker_compute":
                    compute_s += s["duration"]
                    compute_rows += s["attrs"].get("rows", 0)
                    m["model.sample_ms"].append(_ms(s["duration"]))
                else:
                    m["shm.encode_ms"].append(_ms(s["duration"]))
                    m["shm.bytes_per_chunk"].append(float(s["attrs"].get("nbytes", 0)))
            for s in named.get("shm_decode", ()):
                if s["parent_id"] == span["parent_id"]:
                    covered_s += s["duration"]
                    m["shm.decode_ms"].append(_ms(s["duration"]))

        budget = sweep((send, last), intervals)
        for layer, seconds in budget.items():
            totals[layer] += seconds
        totals["_wall"] += last - send

    for span in dispatches:
        m["service.batch_requests"].append(float(span["attrs"].get("batch_requests", 1)))
    swap_spans = sorted(
        (s for s in spans if s["name"] == "bench.swap_rebuild"), key=lambda s: s["start"]
    )
    for record in swaps:
        m["registry.register_ms"].append(_ms(record["register_s"]))
        m["registry.get_ms"].append(_ms(record["get_s"]))
        rebuild = next((s for s in swap_spans if s["start"] >= record["called"] - 1e-4), None)
        if rebuild is not None:
            m["swap.wait_ms"].append(_ms(rebuild["start"] - record["called"]))
            m["swap.rebuild_ms"].append(_ms(rebuild["duration"]))

    def p50(key: str) -> float:
        return percentile(m[key], 0.5)

    def p99(key: str) -> float:
        return percentile(m[key], 0.99)

    def mean(key: str) -> float:
        return sum(m[key]) / len(m[key]) if m[key] else float("nan")

    faults = stats.get("faults", {})
    admission = stats.get("admission", {})
    wall = totals.get("_wall", 0.0) or float("nan")
    metrics: Dict[str, float] = {
        "http.edge_ms_p50": p50("http.edge_ms"),
        "http.edge_ms_p99": p99("http.edge_ms"),
        "http.fingerprint_ms": p50("http.fingerprint_ms"),
        "http.edge_share": p50("http.edge_share"),
        "route.ms": p50("route.ms"),
        "admission.ms_p99": p99("admission.ms"),
        "admission.rejected": float(sum(v for k, v in admission.items() if "reject" in k)),
        "service.queue_wait_ms_p50": p50("service.queue_wait_ms"),
        "service.queue_wait_ms_p99": p99("service.queue_wait_ms"),
        "service.request_ms_p99": p99("service.request_ms"),
        "service.batch_requests_mean": mean("service.batch_requests"),
        "service.assemble_ms": p50("service.assemble_ms"),
        "service.deliver_ms": p50("service.deliver_ms"),
        "chunk.per_request": mean("chunk.per_request"),
        "chunk.attempt_ms_p50": p50("chunk.attempt_ms"),
        "chunk.attempt_ms_p99": p99("chunk.attempt_ms"),
        "chunk.pool_queue_ms": p50("chunk.pool_queue_ms"),
        "chunk.return_ms": p50("chunk.return_ms"),
        "chunk.unattributed_share": 1.0 - covered_s / attempt_s if attempt_s else float("nan"),
        "chunk.useful_ratio": chunks_total / attempts_total if attempts_total else float("nan"),
        "chunk.retries": float(faults.get("chunk_retries", 0)),
        "chunk.hedges": float(faults.get("hedges", 0)),
        "shm.encode_ms": p50("shm.encode_ms"),
        "shm.decode_ms": p50("shm.decode_ms"),
        "shm.bytes_per_chunk": mean("shm.bytes_per_chunk"),
        "model.sample_ms": p50("model.sample_ms"),
        "model.worker_rows_per_s": compute_rows / compute_s if compute_s else float("nan"),
        "worker.busy_share": busy_s / (workers * window_s),
        "registry.register_ms": p50("registry.register_ms"),
        "registry.get_ms": p50("registry.get_ms"),
        "swap.wait_ms": p50("swap.wait_ms"),
        "swap.rebuild_ms": p50("swap.rebuild_ms"),
        "obs.scrape_ms": percentile(list(scrapes_ms), 0.5),
        "obs.spans_per_request": program_spans / traced_requests if traced_requests else float("nan"),
    }
    for layer in (*BUDGET_LAYERS, "unattributed"):
        metrics[f"budget.{layer}_share"] = totals.get(layer, 0.0) / wall
    detail = {
        "traced_requests": traced_requests,
        "budget_s": {k: v for k, v in totals.items()},
        "samples": {k: len(v) for k, v in m.items()},
    }
    return metrics, detail


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "client.lag_ms_p99": "ms",
    "client.ttfb_ms_p50": "ms",
    "client.transfer_ms_p50": "ms",
    "client.bytes_per_row": "bytes",
    "client.sent": "count",
    "client.ok": "count",
    "client.rejected_429": "count",
    "client.failed": "count",
    "http.edge_ms_p50": "ms",
    "http.edge_ms_p99": "ms",
    "http.fingerprint_ms": "ms",
    "http.edge_share": "fraction",
    "route.ms": "ms",
    "admission.ms_p99": "ms",
    "admission.rejected": "count",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.request_ms_p99": "ms",
    "service.batch_requests_mean": "count",
    "service.assemble_ms": "ms",
    "service.deliver_ms": "ms",
    "chunk.per_request": "count",
    "chunk.attempt_ms_p50": "ms",
    "chunk.attempt_ms_p99": "ms",
    "chunk.pool_queue_ms": "ms",
    "chunk.return_ms": "ms",
    "chunk.unattributed_share": "fraction",
    "chunk.useful_ratio": "fraction",
    "chunk.retries": "count",
    "chunk.hedges": "count",
    "shm.encode_ms": "ms",
    "shm.decode_ms": "ms",
    "shm.bytes_per_chunk": "bytes",
    "model.sample_ms": "ms",
    "model.worker_rows_per_s": "rows/s",
    "worker.busy_share": "fraction",
    "registry.register_ms": "ms",
    "registry.get_ms": "ms",
    "swap.wait_ms": "ms",
    "swap.rebuild_ms": "ms",
    "obs.scrape_ms": "ms",
    "obs.spans_per_request": "count",
    "obs.trace_overhead_p50_ms": "ms",
    "obs.trace_overhead_rows_per_s": "rows/s",
    **{f"budget.{layer}_share": "fraction" for layer in (*BUDGET_LAYERS, "unattributed")},
}
