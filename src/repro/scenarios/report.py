"""Per-scenario run reports with a deterministic core.

A :class:`ScenarioReport` splits into two layers:

* the **deterministic core** (:meth:`ScenarioReport.deterministic_dict`) —
  request/row counts, per-tenant traffic, the SHA-256 fingerprint of every
  served byte, drift events, the retrain/canary/promote timeline, fault
  counters and registry versions.  Two runs of the same scenario at the
  same seed produce an *identical* core, even across worker kills and pool
  rebuilds — that is the scenario engine's acceptance contract, asserted in
  ``tests/test_scenarios.py``.
* the **timing layer** — wall-clock latency percentiles and rows/s, which
  vary run to run and are reported for operators, not for equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

# Canonical home: the serving layer owns the byte contract now.  Re-exported
# here because the fingerprint's historical import path is this module.
from repro.serve.api import table_fingerprint

__all__ = ["ScenarioReport", "table_fingerprint"]


@dataclass
class ScenarioReport:
    """Everything one scenario run produced, JSON-serialisable."""

    scenario: str
    seed: int
    model: str
    sampling_mode: str
    workers: int
    ticks: int

    # -- deterministic core -------------------------------------------------------
    requests_submitted: int = 0
    requests_served: int = 0
    request_errors: int = 0
    #: Requests refused by admission control (0 unless the spec's bounds bite).
    requests_rejected: int = 0
    rows_requested: int = 0
    rows_served: int = 0
    requests_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: Requests per serving stage (front-door scenarios: ``prod``/``canary``).
    requests_by_stage: Dict[str, int] = field(default_factory=dict)
    #: SHA-256 over every served table, in submission order.
    output_fingerprint: str = ""
    windows_observed: int = 0
    drift_events: List[Dict[str, object]] = field(default_factory=list)
    #: Ordered ``{"tick": ..., "event": ..., ...}`` entries: fault armings,
    #: drift detections, retrains, canary registrations, promotions, rollbacks.
    timeline: List[Dict[str, object]] = field(default_factory=list)
    faults_armed: int = 0
    faults_injected: int = 0
    retrains: int = 0
    promotions: int = 0
    rollbacks: int = 0
    registry_versions: List[str] = field(default_factory=list)
    initial_version: str = ""
    final_prod_version: str = ""
    pool_restarts: int = 0
    chunk_retries: int = 0
    chunk_timeouts: int = 0
    hedges: int = 0
    degraded_passes: int = 0
    cancelled_requests: int = 0
    model_swaps: int = 0

    # -- timing layer (excluded from determinism) ---------------------------------
    wall_seconds: float = 0.0
    rows_per_second: float = 0.0
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    #: Per-tenant ``{"requests", "p50_latency_s", "p95_latency_s"}`` —
    #: submit-to-deliver latency (the fairness evidence: wall-clock
    #: latencies vary run to run, their *bounds* are asserted).
    tenant_latencies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: The serving stats tree (:meth:`ServiceStats.to_dict` per backend), the
    #: same shape the CLI ``--json`` payloads and HTTP ``/stats`` report.
    service_stats: Dict[str, object] = field(default_factory=dict)
    #: Per-backend metrics-registry snapshots
    #: (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`) — counts are
    #: deterministic but histogram sums/percentiles are wall-clock, so the
    #: block lives in the timing layer.
    obs: Dict[str, object] = field(default_factory=dict)

    _TIMING_FIELDS = (
        "wall_seconds",
        "rows_per_second",
        "p50_latency",
        "p95_latency",
        "tenant_latencies",
        "service_stats",
        "obs",
    )

    def as_dict(self) -> Dict[str, object]:
        """The full report (deterministic core + timing layer)."""
        out = dict(self.deterministic_dict())
        out["timing"] = {
            "wall_seconds": round(self.wall_seconds, 6),
            "rows_per_second": round(self.rows_per_second, 3),
            "p50_latency": round(self.p50_latency, 6),
            "p95_latency": round(self.p95_latency, 6),
            "tenant_latencies": {
                tenant: {key: round(value, 6) for key, value in latencies.items()}
                for tenant, latencies in sorted(self.tenant_latencies.items())
            },
            "service": dict(self.service_stats),
            "obs": dict(self.obs),
        }
        return out

    def deterministic_dict(self) -> Dict[str, object]:
        """The seed-reproducible subset: identical across reruns at one seed."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "model": self.model,
            "sampling_mode": self.sampling_mode,
            "workers": self.workers,
            "ticks": self.ticks,
            "requests_submitted": self.requests_submitted,
            "requests_served": self.requests_served,
            "request_errors": self.request_errors,
            "requests_rejected": self.requests_rejected,
            "rows_requested": self.rows_requested,
            "rows_served": self.rows_served,
            "requests_by_tenant": dict(sorted(self.requests_by_tenant.items())),
            "requests_by_stage": dict(sorted(self.requests_by_stage.items())),
            "output_fingerprint": self.output_fingerprint,
            "windows_observed": self.windows_observed,
            "drift_events": list(self.drift_events),
            "timeline": list(self.timeline),
            "faults_armed": self.faults_armed,
            "faults_injected": self.faults_injected,
            "retrains": self.retrains,
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "registry_versions": list(self.registry_versions),
            "initial_version": self.initial_version,
            "final_prod_version": self.final_prod_version,
            "pool_restarts": self.pool_restarts,
            "chunk_retries": self.chunk_retries,
            "chunk_timeouts": self.chunk_timeouts,
            "hedges": self.hedges,
            "degraded_passes": self.degraded_passes,
            "cancelled_requests": self.cancelled_requests,
            "model_swaps": self.model_swaps,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def summary(self) -> str:
        """A few human lines for CLI output."""
        lines = [
            f"scenario {self.scenario!r} (seed {self.seed}, {self.ticks} ticks, "
            f"model {self.model}/{self.sampling_mode}, {self.workers} workers)",
            f"  requests: {self.requests_served}/{self.requests_submitted} served, "
            f"{self.request_errors} errors, {self.rows_served} rows",
            f"  faults: {self.faults_armed} armed, {self.faults_injected} injected, "
            f"{self.pool_restarts} pool restarts, {self.chunk_retries} chunk retries, "
            f"{self.degraded_passes} degraded passes",
            f"  drift: {len(self.drift_events)} events, {self.retrains} retrains, "
            f"{self.promotions} promotions, {self.rollbacks} rollbacks "
            f"(prod {self.initial_version} -> {self.final_prod_version})",
            f"  fingerprint: {self.output_fingerprint[:16]}…",
            f"  timing: {self.rows_per_second:.0f} rows/s, "
            f"p50 {self.p50_latency * 1e3:.1f} ms, p95 {self.p95_latency * 1e3:.1f} ms, "
            f"wall {self.wall_seconds:.2f} s",
        ]
        return "\n".join(lines)
