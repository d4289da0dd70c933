"""The observability plane wired through the serving stack.

Three contracts:

* **span taxonomy** — a traced request records the full
  ``request → admission/queue_wait/dispatch/chunk[i] → attempt[j] →
  worker_compute/shm_*/assemble/deliver`` tree, with worker-side spans
  stitched under the parent's seed-derived trace ID (no context header
  crosses the pool — the chunk's ``SeedSequence`` child *is* the context);
* **byte invisibility** — tracing never changes served bytes: sampler
  output fingerprints and scenario deterministic cores are identical with
  tracing on or off, including under an injected fault plan;
* **exposition** — ``GET /metrics`` on a live front door serves valid
  Prometheus text carrying every required ``repro_serve_*`` series, and
  scenario reports embed the per-backend registry snapshot in their
  timing layer.
"""

import os
import urllib.request

import numpy as np
import pytest

from repro.models.smote import SMOTESurrogate
from repro.obs.metrics import REQUIRED_SERVE_SERIES, validate_prometheus_text
from repro.obs.tracing import Tracer, chunk_span_id, request_span_id, trace_id_from_seed
from repro.scenarios import ScenarioEngine, get_scenario
from repro.serve import (
    FaultPlan,
    FrontDoor,
    RequestSpec,
    SamplingService,
    ShardedSampler,
    table_fingerprint,
)
from repro.serve.shm import resolve_transport
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table

CHUNK = 64


def _table(n=400, seed=29):
    rng = np.random.default_rng(seed)
    data = {
        "x": rng.normal(size=n) * 3.0,
        "cat": rng.choice(["a", "b", "c"], n),
        "site": rng.choice([f"s{i}" for i in range(9)], n),
    }
    return Table(
        data, TableSchema.from_columns(numerical=["x"], categorical=["cat", "site"])
    )


@pytest.fixture(scope="module")
def model():
    return SMOTESurrogate(k_neighbors=3).fit(_table())


@pytest.fixture(scope="module")
def traced_run(model):
    """One traced request through a live 2-worker service."""
    tracer = Tracer()
    with SamplingService(model, workers=2, chunk_size=CHUNK, tracer=tracer) as service:
        table = service.submit(
            RequestSpec(4 * CHUNK, seed=42, tenant="acme", priority="interactive")
        ).result(timeout=60)
    return tracer, table


class TestSpanTaxonomy:
    def test_single_trace_with_seed_derived_id(self, traced_run):
        tracer, _table = traced_run
        traces = tracer.traces()
        assert list(traces) == [trace_id_from_seed(42)]

    def test_full_span_taxonomy_recorded(self, traced_run):
        tracer, _table = traced_run
        names = {span.name for span in tracer.spans()}
        assert {
            "request",
            "admission",
            "queue_wait",
            "dispatch",
            "assemble",
            "deliver",
        } <= names
        assert any(name.startswith("chunk[") for name in names)
        assert any(name.startswith("attempt[") for name in names)
        assert "worker_compute" in names

    def test_root_span_and_parent_links(self, traced_run):
        tracer, _table = traced_run
        trace = trace_id_from_seed(42)
        root = request_span_id(trace)
        spans = tracer.spans()
        (request_span,) = [s for s in spans if s.name == "request"]
        assert request_span.span_id == root
        assert request_span.parent_id is None
        for span in spans:
            if span.name in ("admission", "queue_wait", "deliver", "assemble"):
                assert span.parent_id == root
            if span.name.startswith("chunk["):
                assert span.parent_id == root
        # Every worker_compute span hangs off its chunk's deterministic ID.
        chunk_ids = {chunk_span_id(trace, i) for i in range(4)}
        computes = [s for s in spans if s.name == "worker_compute"]
        assert computes
        assert {s.parent_id for s in computes} <= chunk_ids

    def test_worker_spans_recorded_in_worker_processes(self, traced_run):
        tracer, _table = traced_run
        computes = [s for s in tracer.spans() if s.name == "worker_compute"]
        assert any(span.pid != os.getpid() for span in computes)

    def test_request_attrs_carry_tenant_and_priority(self, traced_run):
        tracer, _table = traced_run
        (request_span,) = [s for s in tracer.spans() if s.name == "request"]
        assert request_span.attrs["tenant"] == "acme"
        assert request_span.attrs["priority"] == "interactive"


class TestByteInvisibility:
    def test_sampler_bytes_identical_traced_vs_untraced(self, model):
        with ShardedSampler(model, workers=2, chunk_size=CHUNK) as plain:
            expected = table_fingerprint(plain.sample(300, seed=5))
        with ShardedSampler(
            model, workers=2, chunk_size=CHUNK, tracer=Tracer()
        ) as traced:
            actual = table_fingerprint(traced.sample(300, seed=5))
        assert actual == expected


# -- golden span trees ----------------------------------------------------------
#
# The exact multiset of ``(name, span_id, parent_id, attrs)`` each serving
# path records for ``RequestSpec(4 * CHUNK, seed=42, tenant="acme",
# priority="interactive")``.  Span timings vary run to run; names, the
# seed-derived IDs, the parent links and the attrs do not, and consumers of
# exported traces (the per-layer budget, trace reports) key on all four.

ROOT = "eb99dff79387ee7b"
CHUNK_IDS = ("2d8a80a721e0c235", "d2d57aa8df7c89a7", "a1127b56a2f48dfd", "3301661bbe6418b1")

SERVICE_SPANS = [
    ("admission", "447501abc376c015", ROOT, (("priority", "interactive"), ("tenant", "acme"))),
    ("assemble", "9f4a5c41410a6d39", ROOT, (("chunks", 4), ("rows", 256))),
    ("deliver", "cc55d5eed891e2b6", ROOT, ()),
    ("queue_wait", "7df3287ba5da17a1", ROOT, ()),
    (
        "request",
        ROOT,
        None,
        (("mode", "fast"), ("priority", "interactive"), ("rows", 256), ("tenant", "acme")),
    ),
]

#: Per chunk: (attempt[1] id, worker_compute id, shm_encode id, shm_decode id).
WORKER_IDS = (
    ("d82eff938b200efc", "5875c38ec5aaafda", "55654a5cde2e53c4", "8c6a80c1d6a22505"),
    ("73667daf6e423968", "9391e7b6d520312d", "00b0b4669af5a048", "d34e04f1e035286e"),
    ("f875860ec8b2bcc1", "5bc602b509d6d72c", "b0bac936afef0aa5", "205b04e8d49a03a1"),
    ("355fd4e84a628c22", "2219117cf1f11c3c", "9806273edd39eea5", "8b400bbf8ed61857"),
)


def _pooled_spans(retries=(0, 0, 0, 0)):
    spans = SERVICE_SPANS + [
        ("dispatch", "2ad39ebaa1d6eba3", ROOT, (("batch_requests", 1), ("pooled", True)))
    ]
    for index, (attempt, compute, encode, decode) in enumerate(WORKER_IDS):
        chunk = CHUNK_IDS[index]
        spans += [
            (
                f"chunk[{index}]",
                chunk,
                ROOT,
                (("chunk", index), ("hedged_win", False), ("retries", retries[index]), ("rows", 64)),
            ),
            ("attempt[1]", attempt, chunk, (("chunk", index), ("rows", 64))),
            ("worker_compute", compute, chunk, (("chunk", index), ("rows", 64))),
            ("shm_encode", encode, chunk, (("chunk", index), ("nbytes", 1024))),
            ("shm_decode", decode, chunk, (("nbytes", 1024), ("rows", 64))),
        ]
    return spans


GOLDEN_POOLED = _pooled_spans()

GOLDEN_SERVICE_LOCAL = SERVICE_SPANS + [
    ("dispatch", "2ad39ebaa1d6eba3", ROOT, (("batch_requests", 1), ("pooled", False)))
]

#: ``fail@1``: chunk 1's first attempt carries the error, its retry succeeds.
GOLDEN_FAULT = [
    span
    for span in _pooled_spans(retries=(0, 1, 0, 0))
    if span[:2] != ("attempt[1]", WORKER_IDS[1][0])
] + [
    (
        "attempt[1]",
        WORKER_IDS[1][0],
        CHUNK_IDS[1],
        (("chunk", 1), ("error", "injected failure for chunk 1 (fault #0)"), ("rows", 64)),
    ),
    ("attempt[2]", "4e3039b24aaf7598", CHUNK_IDS[1], (("chunk", 1), ("rows", 64))),
]

#: ``ShardedSampler(workers=1).sample(3 * CHUNK, seed=42)``: the serial path.
GOLDEN_SAMPLER_LOCAL = [
    span
    for index, (_attempt, compute, _encode, _decode) in enumerate(WORKER_IDS[:3])
    for span in (
        (f"chunk[{index}]", CHUNK_IDS[index], ROOT, (("chunk", index), ("local", True), ("rows", 64))),
        ("worker_compute", compute, CHUNK_IDS[index], (("chunk", index), ("local", True), ("rows", 64))),
    )
]


def _span_tree(tracer):
    return sorted(
        (span.name, span.span_id, span.parent_id, tuple(sorted(span.attrs.items())))
        for span in tracer.spans()
    )


def _expected(golden, transport):
    if transport != "shm":
        golden = [span for span in golden if not span[0].startswith("shm_")]
    return sorted(golden)


def _traced_service_tree(model, **kwargs):
    tracer = Tracer()
    with SamplingService(model, chunk_size=CHUNK, tracer=tracer, **kwargs) as service:
        service.submit(
            RequestSpec(4 * CHUNK, seed=42, tenant="acme", priority="interactive")
        ).result(timeout=60)
        transport = service._sampler.transport
    return _span_tree(tracer), transport


class TestGoldenSpanTree:
    def test_pooled_request(self, traced_run):
        tracer, _table = traced_run
        assert _span_tree(tracer) == _expected(GOLDEN_POOLED, resolve_transport(None))

    def test_local_service_request(self, model):
        tree, transport = _traced_service_tree(model, workers=1)
        assert tree == _expected(GOLDEN_SERVICE_LOCAL, transport)

    def test_local_sampler_request(self, model):
        tracer = Tracer()
        with ShardedSampler(model, workers=1, chunk_size=CHUNK, tracer=tracer) as sampler:
            sampler.sample(3 * CHUNK, seed=42)
        assert _span_tree(tracer) == sorted(GOLDEN_SAMPLER_LOCAL)

    def test_failed_attempt_carries_error(self, model):
        plan = FaultPlan.parse("fail@1")
        try:
            tree, transport = _traced_service_tree(model, workers=2, fault_plan=plan)
        finally:
            plan.cleanup()
        assert tree == _expected(GOLDEN_FAULT, transport)


#: The chaos-drift proving ground, scaled to CI size — drift plus a worker
#: kill armed at tick 3, so the invariance check below covers tracing under
#: an injected FaultPlan (retries, pool restart, resubmission) too.
CHAOS_DRIFT_SMALL = get_scenario("chaos-drift").scaled(
    ticks=8,
    window_rows=256,
    train_rows=1024,
    canary_rows=512,
    fault_arm_ticks=(3,),
)


@pytest.fixture(scope="module")
def scenario_reports():
    untraced = ScenarioEngine(CHAOS_DRIFT_SMALL, seed=7, workers=2).run()
    tracer = Tracer()
    traced = ScenarioEngine(CHAOS_DRIFT_SMALL, seed=7, workers=2, tracer=tracer).run()
    return untraced, traced, tracer


class TestScenarioInvariance:
    def test_deterministic_core_identical_with_tracing_on_or_off(self, scenario_reports):
        untraced, traced, _tracer = scenario_reports
        assert traced.deterministic_dict() == untraced.deterministic_dict()
        assert traced.faults_injected > 0  # the kill genuinely fired

    def test_traced_run_recorded_spans(self, scenario_reports):
        _untraced, _traced, tracer = scenario_reports
        names = {span.name for span in tracer.spans()}
        assert "request" in names and "worker_compute" in names

    def test_report_timing_layer_carries_obs_snapshots(self, scenario_reports):
        _untraced, traced, _tracer = scenario_reports
        obs = traced.as_dict()["timing"]["obs"]
        assert obs, "scenario reports must embed per-backend metric snapshots"
        for snapshot in obs.values():
            assert "repro_serve_requests_total" in snapshot
        # The obs block never leaks into the deterministic core.
        assert "obs" not in traced.deterministic_dict()


class TestMetricsExposition:
    @pytest.fixture(scope="class")
    def door(self, model):
        with SamplingService(model, workers=2, chunk_size=CHUNK) as service:
            service.submit(RequestSpec(2 * CHUNK, seed=9, tenant="acme")).result(timeout=60)
            door = FrontDoor({"prod": service})
            door.start_http()
            yield door
            door.stop_http()
            door.close()

    def test_metrics_page_is_valid_prometheus_text(self, door):
        host, port = door.address
        with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=30) as response:
            assert response.status == 200
            content_type = response.headers.get("Content-Type", "")
            text = response.read().decode("utf-8")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert validate_prometheus_text(text, required=REQUIRED_SERVE_SERIES) == []
        assert 'backend="prod"' in text

    def test_stats_tree_still_serves_alongside_metrics(self, door):
        import json

        host, port = door.address
        with urllib.request.urlopen(f"http://{host}:{port}/stats", timeout=30) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["models"]["prod"]["throughput"]["total_requests"] >= 1
