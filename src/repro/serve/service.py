"""The sampling service: a fair, admission-controlled micro-batching queue.

Serving traffic is many concurrent, mostly small requests from many
tenants, not one giant request.  :class:`SamplingService` accepts
:class:`~repro.serve.api.RequestSpec` submissions from any thread
(:meth:`~SamplingService.submit` returns a :class:`SampleRequest` handle),
and a dispatcher thread drains the queue in *micro-batches*: the requests
the weighted fair queue yields at the moment the dispatcher wakes are
coalesced into one sharded pass — all their chunks are submitted to the
worker pool interleaved, so the pool pipelines across request boundaries
instead of draining and refilling per request.

Fairness: queued requests are ordered by **start-time weighted fair
queueing** over ``(tenant, priority)`` flows.  Each flow accumulates
virtual finish times at a rate of ``rows / priority weight`` (see
:data:`~repro.serve.api.PRIORITY_CLASSES`), so a tenant flooding the queue
with bulk work advances its own virtual clock and later requests from other
tenants overtake it — no flow starves, and an ``interactive`` flow gets 4×
the share of a ``batch`` flow when both are backlogged.  Bound the
micro-batch with ``microbatch_rows`` to make the fair ordering matter
between dispatch ticks (unbounded batches drain everything at once, the
legacy behaviour).  Scheduling never changes *bytes*: each request's chunks
draw from the request's **own** seed streams (the sharding contract of
:mod:`repro.serve.sharded`), so any serving order returns exactly what each
request would have returned alone.

Backpressure and admission: a bounded in-flight row budget makes
:meth:`submit` block (or raise :class:`ServiceOverloaded` with
``wait=False``) while full, exactly as before.  An optional
:class:`~repro.serve.admission.AdmissionPolicy` generalizes that signal to
up-front *rejection* — queue-depth and backlog-row caps plus per-request
deadline (SLO) checks against an observed-service-rate estimate — raising
:class:`~repro.serve.admission.AdmissionRejected` (a
:class:`ServiceOverloaded` subclass; HTTP 429 at the front door).  Once a
request is admitted it is always served.  A caller that stops waiting
should :meth:`SampleRequest.cancel` to release its budget.

Autoscaling: with an :class:`~repro.serve.admission.AutoscalePolicy` the
dispatcher resizes the worker pool toward the queue-depth demand
(``ceil(demand rows / rows_per_worker)`` within ``[min_workers,
max_workers]``) at its safe points — immediately up, patiently down.
Byte-safe by the worker-count-invariance of the sharding contract.

Fault tolerance is unchanged from PR 6: chunk failures / timeouts /
stragglers are absorbed by :class:`~repro.serve.sharded.ChunkPolicy`,
worker death by pool supervision, and pool collapse degrades to byte-
identical in-process serving.  :meth:`stats` reports one unified tree
(:meth:`ServiceStats.to_dict`): throughput, queue, latency, workers /
autoscale, fault counters, admission counters and per-tenant latencies.
"""

from __future__ import annotations

import heapq
import operator
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, CancelledError
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.models.base import Surrogate
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceContext, Tracer, request_context
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    AutoscalePolicy,
    ServiceOverloaded,
)
from repro.serve.api import RequestSpec, priority_weight
from repro.serve.faults import FaultPlan
from repro.serve.sharded import ChunkPolicy, ShardedSampler
from repro.tabular.table import Table
from repro.utils.parallel import WorkerPoolBroken
from repro.utils.rng import SeedLike

__all__ = ["SampleRequest", "SamplingService", "ServiceOverloaded", "ServiceStats"]


class _SwapTicket:
    """One pending hot-swap: the new model plus a completion event."""

    def __init__(self, model: Surrogate) -> None:
        self.model = model
        self.done = threading.Event()
        self.error: Optional[BaseException] = None

    def resolve(self, error: Optional[BaseException]) -> None:
        self.error = error
        self.done.set()


class SampleRequest:
    """Handle for one submitted request; resolves to a :class:`Table`."""

    def __init__(self, spec: RequestSpec) -> None:
        self.spec = spec
        self.submitted_at = time.perf_counter()
        #: When the request cleared admission (its queue wait starts here).
        self.admitted_at = self.submitted_at
        self._done = threading.Event()
        self._result: Optional[Table] = None
        self._error: Optional[BaseException] = None
        self.latency: Optional[float] = None
        self.cancelled = False
        self._budget_released = False
        self._service: Optional["SamplingService"] = None
        # Weighted-fair-queue bookkeeping (owned by the service's queue).
        self._queued = False
        self._wfq_start = 0.0

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> Table:
        """Block until the request is served; returns the sampled table.

        A caller that gives up after a timeout should follow with
        :meth:`cancel` — otherwise the admitted rows keep occupying the
        service's backpressure budget until the dispatcher reaches the
        request.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request of {self.spec.n} rows not served within {timeout}s "
                "(cancel() it to release its admission budget)"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        """Abandon the request, releasing its backpressure budget.

        Returns ``True`` when the request was cancelled (it resolves
        immediately; :meth:`result` raises :class:`CancelledError`), and
        ``False`` when it had already completed.  A request the dispatcher
        is currently generating cannot be un-generated: its handle still
        resolves as cancelled right away, the budget is still released, and
        the eventually produced table is discarded.
        """
        service = self._service
        if service is None:
            return False
        return service._cancel_request(self)

    def _resolve(
        self, result: Optional[Table], error: Optional[BaseException]
    ) -> bool:
        """Deliver an outcome once; late outcomes are discarded (→ False)."""
        if self._done.is_set():
            return False
        self.latency = time.perf_counter() - self.submitted_at
        self._result = result
        self._error = error
        self._done.set()
        return True


class _FairQueue:
    """Start-time weighted fair queueing over ``(tenant, priority)`` flows.

    Each pushed request receives a virtual *finish* tag::

        start  = max(virtual_time, flow's previous finish)
        finish = start + rows / priority_weight

    and requests pop in finish order (ties: arrival order).  The virtual
    clock advances to the start tag of whatever is being served, so a flow
    that went idle re-enters at the current clock instead of catching up on
    credit it never queued for.  Cancellation is lazy: a discarded request
    stays in the heap and is skipped when it surfaces.  When the queue
    fully drains, the clock and flow tags reset — a fresh backlog starts a
    fresh round.  Not thread-safe; the service's lock guards every call.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, SampleRequest]] = []
        self._seq = 0
        self._vtime = 0.0
        self._flow_finish: Dict[Tuple[str, str], float] = {}
        self._live = 0
        self._live_rows = 0

    def __len__(self) -> int:
        return self._live

    @property
    def rows(self) -> int:
        """Rows queued (live requests only)."""
        return self._live_rows

    def push(self, request: SampleRequest) -> None:
        spec = request.spec
        flow = (spec.tenant, spec.priority)
        start = max(self._vtime, self._flow_finish.get(flow, 0.0))
        finish = start + max(spec.n, 1) / priority_weight(spec.priority)
        self._flow_finish[flow] = finish
        request._wfq_start = start
        request._queued = True
        heapq.heappush(self._heap, (finish, self._seq, request))
        self._seq += 1
        self._live += 1
        self._live_rows += spec.n

    def discard(self, request: SampleRequest) -> bool:
        """Remove a queued request (lazy: its heap entry dies when popped)."""
        if not request._queued:
            return False
        request._queued = False
        self._live -= 1
        self._live_rows -= request.spec.n
        return True

    def pop_batch(self, max_rows: Optional[int]) -> List[SampleRequest]:
        """The next micro-batch in fair order, bounded by ``max_rows``.

        Always yields at least one request when any is queued (a request
        larger than the bound must not starve); ``None`` drains everything.
        """
        batch: List[SampleRequest] = []
        rows = 0
        while self._heap:
            finish, seq, request = self._heap[0]
            if not request._queued:
                heapq.heappop(self._heap)
                continue
            if batch and max_rows is not None and rows + request.spec.n > max_rows:
                break
            heapq.heappop(self._heap)
            request._queued = False
            self._live -= 1
            self._live_rows -= request.spec.n
            self._vtime = max(self._vtime, request._wfq_start)
            batch.append(request)
            rows += request.spec.n
        if self._live == 0:
            self._heap.clear()
            self._flow_finish.clear()
            self._vtime = 0.0
        return batch


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time view of service health (see :meth:`to_dict`)."""

    #: Rows delivered per second of service uptime.
    rows_per_second: float
    #: Requests waiting for the dispatcher (not yet in a sharded pass).
    queue_depth: int
    #: Rows admitted but not yet delivered (the backpressure quantity).
    in_flight_rows: int
    #: Median / 95th-percentile request latency over the sliding window (s).
    p50_latency: float
    p95_latency: float
    total_requests: int
    total_rows: int
    uptime: float
    #: Supervised worker-pool rebuilds after worker death.
    pool_restarts: int = 0
    #: Chunk resubmissions after task failures or deadline expiries.
    chunk_retries: int = 0
    #: Chunk attempts abandoned at their per-chunk deadline.
    chunk_timeouts: int = 0
    #: Straggler duplicates submitted / duplicates that beat their primary.
    hedges: int = 0
    hedge_wins: int = 0
    #: Requests served by the in-process fallback after pool collapse.
    degraded_passes: int = 0
    #: Requests abandoned via :meth:`SampleRequest.cancel`.
    cancelled_requests: int = 0
    #: Current worker count and autoscale activity.
    workers: int = 1
    scale_ups: int = 0
    scale_downs: int = 0
    #: True once the pool collapsed and the service runs in-process.
    degraded: bool = False
    #: Admission counters (empty mapping = admission control disabled).
    admission: Mapping[str, int] = field(default_factory=dict)
    #: Per-tenant ``{"requests", "rows", "p50_latency_s", "p95_latency_s"}``
    #: (submit-to-deliver latency over the sliding window).
    tenants: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The unified stats tree.

        Stable field names shared by the CLI ``--json`` payloads, the HTTP
        ``/stats`` route and the scenario reports' ``timing.service`` block
        — one namespace for throughput, queue, latency, worker/autoscale,
        fault, admission and per-tenant counters.
        """
        return {
            "throughput": {
                "rows_per_second": round(self.rows_per_second, 3),
                "total_requests": self.total_requests,
                "total_rows": self.total_rows,
                "uptime_s": round(self.uptime, 6),
            },
            "queue": {
                "depth": self.queue_depth,
                "in_flight_rows": self.in_flight_rows,
            },
            "latency": {
                "p50_s": round(self.p50_latency, 6),
                "p95_s": round(self.p95_latency, 6),
            },
            "workers": {
                "current": self.workers,
                "scale_ups": self.scale_ups,
                "scale_downs": self.scale_downs,
                "degraded": self.degraded,
            },
            "faults": {
                "pool_restarts": self.pool_restarts,
                "chunk_retries": self.chunk_retries,
                "chunk_timeouts": self.chunk_timeouts,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "degraded_passes": self.degraded_passes,
                "cancelled_requests": self.cancelled_requests,
            },
            "admission": dict(self.admission),
            "tenants": {
                tenant: dict(values) for tenant, values in sorted(self.tenants.items())
            },
        }


class SamplingService:
    """Serve sampling requests from a fitted surrogate (or a registry entry).

    Parameters
    ----------
    model:
        The fitted surrogate to serve.
    workers / chunk_size:
        Forwarded to the underlying :class:`ShardedSampler`.
    max_inflight_rows:
        The backpressure budget: total rows admitted-but-undelivered before
        :meth:`submit` blocks.  A request larger than the whole budget is
        admitted when the service is otherwise idle (it would never fit
        alongside other work, but must not deadlock alone).
    latency_window:
        Number of recent request latencies kept for the p50/p95 stats.
    chunk_policy / fault_plan / max_pool_restarts:
        Forwarded to the sharded engine: the per-chunk resilience policy,
        an optional deterministic fault-injection plan (chaos runs), and the
        pool supervision restart budget.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionPolicy`: reject
        (instead of queue) on queue-depth / backlog-row caps or a blown
        per-request deadline estimate.  ``None`` admits everything.
    autoscale:
        Optional :class:`~repro.serve.admission.AutoscalePolicy`: the
        dispatcher resizes the pool with queue demand between its bounds.
    microbatch_rows:
        Upper bound on rows coalesced per dispatch tick.  ``None`` (default)
        drains the whole queue each tick; a bound makes the weighted fair
        ordering effective across ticks under sustained backlog.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` shared by every layer
        of this service's stack (sampler fault counters, shm transport,
        admission, the request/latency instruments here).  ``None`` creates
        a private registry, exposed as :attr:`metrics`; the front door
        renders it on ``GET /metrics``.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  When set, each
        request records its span taxonomy (``request`` → ``admission`` /
        ``queue_wait`` / ``dispatch`` / ``chunk[i]``–``attempt[j]`` /
        ``worker_compute`` / ``shm_encode`` / ``shm_decode`` /
        ``assemble`` / ``deliver``); ``None`` is a strict no-op — served
        bytes are identical either way.

    The service starts its pool and dispatcher on construction and is a
    context manager; :meth:`close` drains the queue and shuts down.
    """

    def __init__(
        self,
        model: Surrogate,
        *,
        workers: Optional[int] = None,
        chunk_size: int = ShardedSampler.DEFAULT_CHUNK_SIZE,
        max_inflight_rows: int = 4_000_000,
        latency_window: int = 512,
        chunk_policy: Optional[ChunkPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_pool_restarts: int = 5,
        admission: Optional[AdmissionPolicy] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        microbatch_rows: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_inflight_rows < 1:
            raise ValueError(f"max_inflight_rows must be positive, got {max_inflight_rows}")
        if microbatch_rows is not None and microbatch_rows < 1:
            raise ValueError(f"microbatch_rows must be positive or None, got {microbatch_rows}")
        if workers is None and autoscale is not None:
            workers = autoscale.min_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer
        self._sampler = ShardedSampler(
            model,
            workers=workers,
            chunk_size=chunk_size,
            chunk_policy=chunk_policy,
            fault_plan=fault_plan,
            max_pool_restarts=max_pool_restarts,
            metrics=self.metrics,
            tracer=tracer,
        )
        self.max_inflight_rows = int(max_inflight_rows)
        self._admission = (
            AdmissionController(admission, metrics=self.metrics)
            if admission is not None
            else None
        )
        self._autoscale = autoscale
        self._microbatch_rows = microbatch_rows
        self._lock = threading.Condition()
        self._queue = _FairQueue()
        self._in_flight_rows = 0
        self._pending_requests = 0
        # FIFO admission tickets: submitters are admitted strictly in
        # arrival order, so an oversized request (admissible only when the
        # service drains) cannot be starved by a stream of small requests
        # slipping past it every time the budget frees up.  The deque holds
        # the tickets still waiting; only its front may admit.
        self._ticket_counter = 0
        self._admission_waiters: Deque[int] = deque()
        self._pending_swaps: Deque[_SwapTicket] = deque()
        self._closing = False
        self._latency_window = int(latency_window)
        # Exact-percentile sliding windows.  The registry histograms trade
        # exactness for O(1) memory; :meth:`stats` keeps its historical
        # exact-window p50/p95 semantics from these deques.
        self._latencies: Deque[float] = deque(maxlen=self._latency_window)
        self._tenant_latencies: Dict[str, Deque[float]] = {}
        self._shrink_streak = 0
        registry = self.metrics
        self._m_requests = registry.counter(
            "repro_serve_requests_total",
            "Requests delivered without error, by tenant.",
            labels=("tenant",),
        )
        self._m_request_errors = registry.counter(
            "repro_serve_request_errors_total", "Requests that resolved with an error."
        )
        self._m_rows = registry.counter(
            "repro_serve_rows_total", "Rows delivered, by tenant.", labels=("tenant",)
        )
        self._m_batches = registry.counter(
            "repro_serve_batches_total", "Micro-batches dispatched."
        )
        self._m_degraded_passes = registry.counter(
            "repro_serve_degraded_passes_total",
            "Requests served in-process after pool collapse.",
        )
        self._m_cancelled = registry.counter(
            "repro_serve_cancelled_requests_total", "Requests abandoned via cancel()."
        )
        self._m_scale_ups = registry.counter(
            "repro_serve_scale_ups_total", "Autoscale pool expansions."
        )
        self._m_scale_downs = registry.counter(
            "repro_serve_scale_downs_total", "Autoscale pool shrinks."
        )
        self._m_model_swaps = registry.counter(
            "repro_serve_model_swaps_total", "Hot model swaps applied."
        )
        self._m_latency = registry.histogram(
            "repro_serve_request_latency_seconds",
            "End-to-end request latency (submit to deliver), by flow.",
            labels=("tenant", "priority"),
        )
        self._m_queue_wait = registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Admission-to-dispatch queue wait, by flow.",
            labels=("tenant", "priority"),
        )
        self._g_queue_depth = registry.gauge(
            "repro_serve_queue_depth", "Requests waiting for the dispatcher."
        )
        self._g_inflight_rows = registry.gauge(
            "repro_serve_inflight_rows", "Rows admitted but not yet delivered."
        )
        self._g_workers = registry.gauge(
            "repro_serve_workers", "Current worker count."
        )
        self._g_degraded = registry.gauge(
            "repro_serve_degraded", "1 once the pool collapsed to in-process serving."
        )
        self._g_pool_pending = registry.gauge(
            "repro_serve_pool_pending_tasks",
            "Chunk tasks submitted to the pool and not yet resolved.",
        )
        self._started_at = time.perf_counter()
        # Spawn the worker pool *before* the dispatcher thread exists: the
        # pool forks at start on platforms where fork is the default, and
        # forking a multi-threaded process is where the trouble lives.
        self._sampler.start()
        # Seed the level gauges so every required series renders on a
        # ``/metrics`` scrape that lands before the first request.
        self._g_queue_depth.set(0)
        self._g_inflight_rows.set(0)
        self._g_workers.set(self._sampler.workers)
        self._g_degraded.set(0)
        self._g_pool_pending.set(0)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- client API --------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._sampler.workers

    @property
    def chunk_size(self) -> int:
        return self._sampler.chunk_size

    @property
    def degraded(self) -> bool:
        """True once the pool collapsed and the service runs in-process."""
        return self._sampler.pool_broken

    @property
    def model(self) -> Surrogate:
        """The surrogate currently being served."""
        return self._sampler.model

    @property
    def model_swaps(self) -> int:
        """Hot model swaps applied since the service started."""
        return int(self._m_model_swaps.total())

    @property
    def tracer(self) -> Optional[Tracer]:
        """The installed span collector (``None`` when tracing is off)."""
        return self._tracer

    def swap_model(
        self, model: Surrogate, *, wait: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Hot-swap the served model with **zero lost requests**.

        The swap is queued to the dispatcher, which applies it at the safe
        point between micro-batches: requests already submitted keep their
        admission slots and are served (by whichever model the dispatcher
        holds when their batch runs — submit-then-swap ordering is only
        deterministic across a drained queue, which is how the scenario
        engine drives it), and the worker pool is rebuilt from the new
        model's snapshot.  With ``wait=True`` (default) blocks until the
        swap has been applied; raises the swap's error if the rebuild fails.
        """
        if not model.is_fitted:
            raise RuntimeError(
                f"{type(model).__name__} is not fitted; fit() it before serving"
            )
        ticket = _SwapTicket(model)
        with self._lock:
            if self._closing:
                raise RuntimeError("service is closed")
            self._pending_swaps.append(ticket)
            self._lock.notify_all()  # wake an idle dispatcher
        if wait:
            if not ticket.done.wait(timeout):
                raise TimeoutError(f"model swap not applied within {timeout}s")
            if ticket.error is not None:
                raise ticket.error

    def _coerce_spec(
        self,
        request: object,
        seed: SeedLike,
        sampling_mode: Optional[str],
        tenant: Optional[str],
        priority: Optional[str],
        deadline: Optional[float],
    ) -> RequestSpec:
        """One :class:`RequestSpec` from any accepted calling convention.

        Canonical: ``submit(RequestSpec(...))``.  Convenience: ``submit(n,
        seed=..., sampling_mode=..., tenant=..., ...)`` (keyword-only knobs).
        """
        if isinstance(request, RequestSpec):
            if any(
                value is not None
                for value in (seed, sampling_mode, tenant, priority, deadline)
            ):
                raise TypeError(
                    "pass either a RequestSpec or bare arguments, not both"
                )
            return request
        try:
            request = operator.index(request)  # int-likes (numpy ints) welcome
        except TypeError:
            raise TypeError(
                f"expected a RequestSpec or a row count, got {type(request).__name__}"
            ) from None
        return RequestSpec(
            n=request,
            seed=seed,
            sampling_mode=sampling_mode if sampling_mode is not None else "fast",
            tenant=tenant if tenant is not None else "default",
            priority=priority if priority is not None else "normal",
            deadline=deadline,
        )

    def submit(
        self,
        request: object,
        *,
        seed: SeedLike = None,
        sampling_mode: Optional[str] = None,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
        wait: bool = True,
    ) -> SampleRequest:
        """Queue a request; returns its :class:`SampleRequest` handle.

        Accepts a :class:`~repro.serve.api.RequestSpec` (the canonical
        contract) or a row count with keyword knobs; serving defaults to the
        relaxed ``"fast"`` mode (request ``sampling_mode="exact"`` for the
        bit-reproducible path).  Blocks while the in-flight budget is full;
        with ``wait=False`` raises :class:`ServiceOverloaded` instead.  With
        an admission policy configured, over-limit or deadline-blown
        requests raise :class:`~repro.serve.admission.AdmissionRejected`
        regardless of ``wait``.
        """
        spec = self._coerce_spec(request, seed, sampling_mode, tenant, priority, deadline)
        handle = SampleRequest(spec)
        handle._service = self
        n = spec.n
        with self._lock:
            if self._closing:
                raise RuntimeError("service is closed")
            if self._admission is not None:
                self._admission.check(
                    spec,
                    pending_requests=self._pending_requests,
                    backlog_rows=self._in_flight_rows,
                )
            ticket = self._ticket_counter
            self._ticket_counter += 1
            self._admission_waiters.append(ticket)
            try:
                while not (
                    self._admission_waiters[0] == ticket
                    and (self._admissible(n) or self._closing)
                ):
                    if not wait:
                        raise ServiceOverloaded(
                            f"in-flight budget full ({self._in_flight_rows}/"
                            f"{self.max_inflight_rows} rows, "
                            f"{len(self._admission_waiters) - 1} submitter(s) waiting); "
                            "retry later"
                        )
                    self._lock.wait()
                if self._closing:
                    raise RuntimeError("service is closed")
                self._in_flight_rows += n
                self._pending_requests += 1
                self._queue.push(handle)
                handle.admitted_at = time.perf_counter()
                self._set_queue_gauges_locked()
            finally:
                # The ticket leaves the line whether we admitted, refused or
                # were closed; whoever is behind may now reach the front.
                self._admission_waiters.remove(ticket)
                self._lock.notify_all()
        return handle

    def sample(
        self,
        request: object,
        *,
        seed: SeedLike = None,
        sampling_mode: Optional[str] = None,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Table:
        """Synchronous convenience: submit and wait for the table."""
        spec = self._coerce_spec(request, seed, sampling_mode, tenant, priority, deadline)
        return self.submit(spec).result()

    def stats(self) -> ServiceStats:
        """A :class:`ServiceStats` snapshot, read from the metrics registry.

        The counters here and the ``repro_serve_*`` series on ``/metrics``
        are the same numbers by construction — :meth:`stats` is a *view* of
        the registry (plus the exact-window latency percentiles), not a
        second set of books.
        """
        with self._lock:
            latencies = sorted(self._latencies)
            queue_depth = len(self._queue)
            in_flight = self._in_flight_rows
            tenant_latencies = {
                tenant: sorted(window)
                for tenant, window in self._tenant_latencies.items()
            }
        tenant_requests = self._m_requests.series()
        tenant_rows = self._m_rows.series()
        total_rows = int(self._m_rows.total())
        total_requests = int(
            self._m_requests.total() + self._m_request_errors.total()
        )
        tenants = {
            tenant: {
                "requests": int(tenant_requests.get((tenant,), 0)),
                "rows": int(tenant_rows.get((tenant,), 0)),
                "p50_latency_s": self._percentile(window, 0.50),
                "p95_latency_s": self._percentile(window, 0.95),
            }
            for tenant, window in tenant_latencies.items()
        }
        faults = self._sampler.fault_stats()
        uptime = time.perf_counter() - self._started_at
        self._g_queue_depth.set(queue_depth)
        self._g_inflight_rows.set(in_flight)
        self._g_workers.set(self._sampler.workers)
        self._g_degraded.set(1 if self._sampler.pool_broken else 0)
        self._g_pool_pending.set(self._sampler.pool_pending_tasks)
        return ServiceStats(
            rows_per_second=total_rows / uptime if uptime > 0 else 0.0,
            queue_depth=queue_depth,
            in_flight_rows=in_flight,
            p50_latency=self._percentile(latencies, 0.50),
            p95_latency=self._percentile(latencies, 0.95),
            total_requests=total_requests,
            total_rows=total_rows,
            uptime=uptime,
            pool_restarts=faults.pool_restarts,
            chunk_retries=faults.chunk_retries,
            chunk_timeouts=faults.chunk_timeouts,
            hedges=faults.hedges,
            hedge_wins=faults.hedge_wins,
            degraded_passes=int(self._m_degraded_passes.total()),
            cancelled_requests=int(self._m_cancelled.total()),
            workers=self._sampler.workers,
            scale_ups=int(self._m_scale_ups.total()),
            scale_downs=int(self._m_scale_downs.total()),
            degraded=self._sampler.pool_broken,
            admission=self._admission.snapshot() if self._admission is not None else {},
            tenants=tenants,
        )

    def close(self) -> None:
        """Drain queued requests, stop the dispatcher, shut the pool down."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._lock.notify_all()
        self._dispatcher.join()
        self._sampler.close()

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cancellation ------------------------------------------------------------
    def _cancel_request(self, request: SampleRequest) -> bool:
        with self._lock:
            if request.done():
                return False
            self._queue.discard(request)  # no-op if a dispatch tick took it
            request.cancelled = True
            resolved = request._resolve(None, CancelledError("request cancelled"))
            if resolved:
                self._release_budget_locked(request)
                self._m_cancelled.inc()
            self._set_queue_gauges_locked()
            self._lock.notify_all()  # budget freed: wake blocked submitters
            return resolved

    def _set_queue_gauges_locked(self) -> None:
        """Refresh the queue-level gauges (caller holds the service lock)."""
        self._g_queue_depth.set(len(self._queue))
        self._g_inflight_rows.set(self._in_flight_rows)

    def _release_budget_locked(self, request: SampleRequest) -> None:
        """Release the request's admitted rows exactly once (cancel + finish
        can both reach here)."""
        if not request._budget_released:
            request._budget_released = True
            self._in_flight_rows -= request.spec.n
            self._pending_requests -= 1

    # -- dispatcher --------------------------------------------------------------
    def _admissible(self, n: int) -> bool:
        if self._in_flight_rows == 0:
            return True  # an oversized request must not deadlock an idle service
        return self._in_flight_rows + n <= self.max_inflight_rows

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._pending_swaps and not self._closing:
                    self._lock.wait()
                # Swaps apply at this safe point — no micro-batch in flight.
                swaps = list(self._pending_swaps)
                self._pending_swaps.clear()
                if not self._queue and not swaps and self._closing:
                    return
                # The micro-batch: the fair queue's next slice (everything
                # queued, unless microbatch_rows bounds the tick).
                batch = self._queue.pop_batch(self._microbatch_rows)
                backlog_rows = self._queue.rows
                self._set_queue_gauges_locked()
            if swaps:
                self._apply_swaps(swaps)
            batch_rows = sum(request.spec.n for request in batch)
            self._autoscale_tick(batch_rows + backlog_rows)
            if batch:
                batch_started = time.perf_counter()
                self._serve_batch(batch)
                if self._admission is not None:
                    self._admission.observe_batch(
                        batch_rows, time.perf_counter() - batch_started
                    )
            with self._lock:
                self._lock.notify_all()  # budget freed: wake blocked submitters

    def _autoscale_tick(self, demand_rows: int) -> None:
        """Resize the pool toward the demand, at the dispatcher's safe point.

        Scale-up is immediate; scale-down waits for ``shrink_patience``
        consecutive under-demand ticks.  A broken pool is never resized —
        degraded mode is the supervisor's verdict, not a capacity problem.
        Bytes are invariant either way (the sharding contract).
        """
        policy = self._autoscale
        if policy is None or self._sampler.pool_broken:
            return
        target = policy.target_workers(demand_rows)
        current = self._sampler.workers
        if target > current:
            self._shrink_streak = 0
            if self._try_resize(target):
                self._m_scale_ups.inc()
        elif target < current:
            self._shrink_streak += 1
            if self._shrink_streak >= policy.shrink_patience:
                self._shrink_streak = 0
                if self._try_resize(target):
                    self._m_scale_downs.inc()
        else:
            self._shrink_streak = 0

    def _try_resize(self, workers: int) -> bool:
        """Resize the sampler; a failed resize must not kill the dispatcher."""
        try:
            self._sampler.resize(workers)
            self._g_workers.set(self._sampler.workers)
            return True
        except Exception:
            return False  # keep serving at the current size

    def _apply_swaps(self, swaps: List[_SwapTicket]) -> None:
        """Install the most recent pending model (earlier ones are superseded).

        One pool rebuild regardless of how many swaps raced in; every ticket
        resolves with the rebuild's outcome.  A failed rebuild must not take
        the dispatcher down — the error goes to the swap's waiters, and the
        service keeps serving on whatever model survived.
        """
        error: Optional[BaseException] = None
        try:
            self._sampler.swap_model(swaps[-1].model)
            self._m_model_swaps.inc()
        except BaseException as exc:  # noqa: BLE001 - forwarded to the waiters
            error = exc
        for ticket in swaps:
            ticket.resolve(error)

    def _serve_batch(self, batch: List[SampleRequest]) -> None:
        """One sharded pass over the chunks of every request in the batch.

        All requests' chunks are submitted to the pool up front and
        *interleaved round-robin* across requests (that *is* the
        micro-batch: no request's chunks all queue behind another's), then
        each request resolves independently — a chunk failure affects only
        the request whose chunk exhausted its budget.  Pool-level collapse
        (supervision out of restarts) downgrades the affected request — and
        every one after it — to the in-process serial path instead of
        erroring: degraded, never dropped.
        """
        pooled = self._sampler.workers > 1 and not self._sampler.pool_broken
        run = self._sampler.chunk_run() if pooled else None
        popped_at = time.perf_counter()
        self._m_batches.inc()
        # One plan per request: [request, sizes, children, handles, error,
        # trace].  ``handles`` is None on the pool-free path, else the
        # submitted chunk handles so far (shorter than ``sizes`` =
        # submission died).
        plans: List[list] = []
        for request in batch:
            spec = request.spec
            admitted_at = request.admitted_at
            self._m_queue_wait.observe(
                max(popped_at - admitted_at, 0.0),
                tenant=spec.tenant,
                priority=spec.priority,
            )
            sizes, children = [], []
            error: Optional[BaseException] = None
            try:
                sizes, children = self._sampler.chunk_plan(spec.n, spec.seed)
            except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
                error = exc
            trace = request_context(self._tracer, spec.seed, children)
            trace.record(
                "admission",
                request.submitted_at,
                duration=admitted_at - request.submitted_at,
                attrs={"tenant": spec.tenant, "priority": spec.priority},
            )
            trace.record("queue_wait", admitted_at, duration=popped_at - admitted_at)
            plans.append([request, sizes, children, [] if run is not None else None, error, trace])

        dispatch_started = time.perf_counter()
        if run is not None:
            # Round-robin chunk submission across the batch's requests.
            submitting = True
            pool_died = False
            while submitting and not pool_died:
                submitting = False
                for plan in plans:
                    request, sizes, children, handles, error, _trace = plan
                    if handles is None or error is not None:
                        continue
                    index = len(handles)
                    if index >= len(sizes):
                        continue
                    try:
                        handles.append(
                            run.submit(
                                index, sizes[index], children[index],
                                request.spec.sampling_mode,
                            )
                        )
                        submitting = True
                    except (WorkerPoolBroken, BrokenExecutor):
                        pool_died = True  # every incomplete plan degrades below
                        break
                    except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
                        plan[4] = exc
                        for handle in handles:
                            handle.cancel()

        # One dispatch span per micro-batch, attributed to the first request
        # (the batch is the unit of dispatch, not the request).
        plans[0][5].record(
            "dispatch",
            dispatch_started,
            attrs={"batch_requests": len(plans), "pooled": run is not None},
        )

        for request, sizes, children, handles, error, trace in plans:
            if error is not None:
                self._finish(request, None, error, trace)
                continue
            mode = request.spec.sampling_mode
            try:
                if handles is not None and len(handles) == len(sizes):
                    try:
                        chunks = self._gather(handles)
                    except (WorkerPoolBroken, BrokenExecutor):
                        chunks = self._degraded_pass(request, sizes, children)
                elif handles is not None:
                    # The pool died while this request was still submitting.
                    for handle in handles:
                        handle.cancel()
                    chunks = self._degraded_pass(request, sizes, children)
                else:
                    chunks = [
                        self._sampler.sample_chunk_local(size, child, mode)
                        for size, child in zip(sizes, children)
                    ]
                assemble_started = trace.now()
                table = self._sampler.assemble(
                    chunks, seed=request.spec.seed, sampling_mode=mode
                )
                trace.record(
                    "assemble",
                    assemble_started,
                    attrs={"chunks": len(chunks), "rows": request.spec.n},
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
                self._finish(request, None, exc, trace)
                continue
            self._finish(request, table, None, trace)

    @staticmethod
    def _gather(handles) -> List[Table]:
        """Resolve a request's chunk handles; cancel the rest on failure."""
        chunks = []
        for position, handle in enumerate(handles):
            try:
                chunks.append(handle.result())
            except BaseException:
                for sibling in handles[position + 1:]:
                    sibling.cancel()
                raise
        return chunks

    def _degraded_pass(self, request: SampleRequest, sizes, children) -> List[Table]:
        """Serve one request in-process after the pool collapsed.

        Byte-identical to the pooled pass by the seed contract — the chunks
        draw from the same child streams regardless of where they run.
        """
        self._m_degraded_passes.inc()
        self._g_degraded.set(1)
        return [
            self._sampler.sample_chunk_local(size, child, request.spec.sampling_mode)
            for size, child in zip(sizes, children)
        ]

    def _finish(
        self,
        request: SampleRequest,
        table: Optional[Table],
        error: Optional[BaseException],
        trace: TraceContext,
    ) -> None:
        deliver_started = trace.now()
        spec = request.spec
        with self._lock:
            delivered = request._resolve(table, error)
            self._release_budget_locked(request)
            if delivered:
                if error is not None:
                    self._m_request_errors.inc()
                if table is not None:
                    self._m_rows.inc(spec.n, tenant=spec.tenant)
                if request.latency is not None and error is None:
                    self._latencies.append(request.latency)
                    self._m_requests.inc(tenant=spec.tenant)
                    if spec.tenant not in self._tenant_latencies:
                        self._tenant_latencies[spec.tenant] = deque(
                            maxlen=self._latency_window
                        )
                    self._tenant_latencies[spec.tenant].append(request.latency)
            self._set_queue_gauges_locked()
        if delivered and request.latency is not None and error is None:
            self._m_latency.observe(
                request.latency, tenant=spec.tenant, priority=spec.priority
            )
        if delivered:
            trace.record(
                "deliver",
                deliver_started,
                attrs={"error": type(error).__name__} if error is not None else None,
            )
            trace.record(
                "request",
                request.submitted_at,
                scope=True,
                duration=request.latency or 0.0,
                attrs={
                    "tenant": spec.tenant,
                    "priority": spec.priority,
                    "rows": spec.n,
                    "mode": spec.sampling_mode,
                },
            )

    @staticmethod
    def _percentile(sorted_values: List[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
        return sorted_values[index]
