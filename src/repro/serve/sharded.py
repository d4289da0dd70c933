"""The sharded sampling engine: ``sample_batches`` chunks across a process pool.

The sharding contract
---------------------
:meth:`~repro.models.base.Surrogate.sample_batches` made chunks
embarrassingly parallel *by construction*: chunk ``i`` of a request draws
from the ``i``-th :class:`numpy.random.SeedSequence` child of the request
seed, so its bytes depend only on ``(model, seed, chunk_size, i)`` — never
on which process generates it, in what order, or how many sibling workers
exist.  :class:`ShardedSampler` exploits exactly that: it fans the chunks of
a request out across a persistent pool of worker processes (each holding a
deserialized snapshot of the fitted model with warmed serving caches) and
reassembles the chunks in index order.  The output is therefore

* byte-identical to ``Table.concat(list(model.sample_batches(n, chunk_size,
  seed=seed, sampling_mode=mode)))``, and
* byte-identical across **any** worker count, including the in-process
  ``workers=1`` path — proven for all five surrogates in both sampling
  modes by ``tests/test_serve_sharded.py``.

Workers are spawned once (:meth:`ShardedSampler.start`) and stay hot:
steady-state requests ship only ``(rows, seed-sequence, mode)`` descriptors
and receive chunk tables back.  Chunk submission is windowed, so a
million-row streaming request keeps at most a few chunks in flight and peak
parent memory stays bounded exactly as in the single-process streaming API.

The fault-tolerance contract
----------------------------
The same seed contract that makes chunks parallel makes them *re-executable*:
a chunk run again — on another worker, after a crash, or as a hedged
duplicate — regenerates **identical bytes**.  Recovery is therefore provable
equality, not a statistical claim, and the engine leans on it at three
levels:

* **Worker death** is handled below this module: the
  :class:`~repro.utils.parallel.WorkerPool` supervises its executor, rebuilds
  it after a crash (re-running the snapshot/warm-cache initializer), and
  resubmits every chunk that was queued behind the crash — nothing is lost,
  and the resubmitted chunks are byte-identical by the seed contract.
* **Per-chunk resilience** is governed by a :class:`ChunkPolicy`: each chunk
  attempt carries an optional deadline (``timeout``); a timed-out or failed
  attempt is resubmitted with exponential backoff up to ``max_retries``
  times; and with ``hedge_multiplier`` set, a chunk whose in-flight time
  exceeds that multiple of the run's median completed-chunk latency is
  *hedged* — a duplicate is submitted and the first successful result wins
  (when both finish, their tables are asserted equal).
* **Failure context**: a chunk that exhausts its budget raises
  :class:`ChunkError` naming the chunk index and size (chaining the last
  underlying error), after the remaining in-flight chunks of the request
  are cancelled — no abandoned siblings.  Pool-level collapse (the
  supervision budget itself exhausted) surfaces as
  :class:`~repro.utils.parallel.WorkerPoolBroken`, the signal the service
  layer uses to degrade to in-process generation.

Deterministic chaos tests drive all of these paths through the
:mod:`repro.serve.faults` plan installed via ``fault_plan=``; see
``tests/test_serve_faults.py`` for the byte-equality proofs.

The chunk transport
-------------------
How a finished chunk travels back to the parent is pluggable
(``transport=`` / the ``REPRO_SHM`` environment toggle):

* ``"shm"`` (the default where available): workers write the chunk's
  column buffers — ``float64`` numericals, ``int32`` categorical codes,
  vocabularies travel once with the snapshot — into a named
  :mod:`multiprocessing.shared_memory` segment and return only a tiny
  :class:`~repro.serve.shm.ChunkEnvelope`; the parent reassembles
  zero-copy views and unlinks the segment.  Segment lifecycle (normal
  consumption, timed-out attempts, hedge losers, worker crashes, pool
  close) is owned by :mod:`repro.serve.shm`.
* ``"pickle"``: the pre-transport behaviour — the chunk table itself is
  the task result.  Output bytes are identical either way; only the IPC
  cost differs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.models.base import SAMPLING_MODES, Surrogate
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACE, TracedChunk, Tracer, chunk_context
from repro.serve import faults as fault_injection
from repro.serve import shm as shm_transport
from repro.serve.api import RequestSpec
from repro.serve.faults import FaultPlan
from repro.serve.shm import ChunkEnvelope, ShmTransportConfig
from repro.tabular.table import Table
from repro.utils.logging import get_logger
from repro.utils.parallel import (
    SupervisedFuture,
    WorkerPool,
    WorkerPoolBroken,
    available_workers,
)
from repro.utils.rng import SeedLike, spawn_seed_sequences

__all__ = ["ChunkError", "ChunkFaultStats", "ChunkPolicy", "ShardedSampler"]

_LOG = get_logger(__name__)

#: The worker-process model snapshot, set once by :func:`_init_worker`.
_WORKER_MODEL: Optional[Surrogate] = None

#: The worker-side shm encoder (None under the pickle transport).
_WORKER_ENCODER: Optional[shm_transport.ChunkEncoder] = None

#: Whether workers should record ``worker_compute``/``shm_encode`` spans and
#: piggyback them on the task return path (see :mod:`repro.obs.tracing`).
_WORKER_TRACING: bool = False


def _init_worker(
    snapshot: bytes,
    chunk_rows: int,
    fault_plan: Optional[FaultPlan] = None,
    shm_config: Optional[ShmTransportConfig] = None,
    tracing: bool = False,
) -> None:
    """One-time worker setup: deserialize the model, warm its serving caches.

    Re-run by pool supervision after every executor rebuild, so recovered
    workers are exactly as warm as freshly started ones.  When a fault plan
    is provided (chaos tests, ``--fault-plan`` runs) it is installed here —
    the plan's exactly-once token latch lives on disk, so a rebuilt worker
    does not re-inject already-claimed faults.  With an shm transport
    config, the worker derives the chunk wire layout (schema + categorical
    vocabularies) from its own snapshot — the parent derives the identical
    layout from its copy, so no per-chunk metadata ever ships.  With
    ``tracing`` enabled the worker wraps each task result in a
    :class:`~repro.obs.tracing.TracedChunk` carrying its compute/encode
    spans home.
    """
    global _WORKER_MODEL, _WORKER_ENCODER, _WORKER_TRACING
    model = Surrogate.from_snapshot(snapshot)
    model.warm_serving_caches(chunk_rows)
    _WORKER_MODEL = model
    _WORKER_ENCODER = (
        shm_transport.ChunkEncoder(shm_config, model) if shm_config is not None else None
    )
    _WORKER_TRACING = bool(tracing)
    fault_injection.install(fault_plan)


def _sample_chunk(size: int, child: np.random.SeedSequence, sampling_mode: str):
    """Generate one chunk in the worker — the same call the parent would make.

    The chunk's index is recoverable from the seed contract itself (it is
    the last element of the child's spawn key), which is what lets the fault
    harness target "chunk i" — and the tracing layer derive the parent's
    trace/span IDs — without widening the task descriptor.

    Under the shm transport the return value is a
    :class:`~repro.serve.shm.ChunkEnvelope` (the table's buffers having been
    written to a shared segment); under the pickle transport it is the chunk
    :class:`~repro.tabular.table.Table` itself.  With tracing enabled either
    payload travels wrapped in a :class:`~repro.obs.tracing.TracedChunk`;
    the payload bytes are identical.
    """
    assert _WORKER_MODEL is not None, "worker used before initialization"
    spawn_key = getattr(child, "spawn_key", ())
    index = int(spawn_key[-1]) if spawn_key else 0
    fault_injection.maybe_inject(index)
    tracer = Tracer() if _WORKER_TRACING else None
    trace = chunk_context(tracer, child, index)
    with trace.span("worker_compute", attrs={"chunk": index, "rows": size}):
        payload = _WORKER_MODEL.sample(
            size, seed=np.random.default_rng(child), sampling_mode=sampling_mode
        )
    if _WORKER_ENCODER is not None:
        started = trace.now()
        payload = _WORKER_ENCODER.encode(payload)
        trace.record("shm_encode", started, attrs={"chunk": index, "nbytes": int(payload.nbytes)})
    return payload if tracer is None else TracedChunk(payload, tracer.spans())


class ChunkError(RuntimeError):
    """A chunk failed beyond its retry budget; carries the chunk's identity."""

    def __init__(self, index: int, size: int, message: str) -> None:
        super().__init__(f"chunk {index} ({size} rows) {message}")
        self.index = index
        self.size = size


@dataclass(frozen=True)
class ChunkPolicy:
    """Per-chunk resilience knobs for the sharded engine.

    timeout:
        Per-attempt deadline in seconds.  An attempt that exceeds it is
        abandoned (the worker keeps running; its late result is discarded)
        and the chunk is resubmitted.  ``None`` disables deadlines.
    max_retries:
        Resubmissions allowed per chunk for task failures and timeouts
        combined.  Worker-crash resubmissions do not count — those are the
        pool supervisor's budget (``max_pool_restarts``), not the chunk's.
    backoff:
        Base of the exponential backoff slept before retry ``k``:
        ``backoff * 2**(k-1)`` seconds.
    hedge_multiplier:
        Straggler hedging: once a chunk's in-flight time exceeds
        ``hedge_multiplier * median(completed chunk latencies)`` a duplicate
        attempt is submitted and the first success wins (both finishing is
        asserted byte-equal).  ``None`` disables hedging.
    min_hedge_latency:
        Floor (seconds) under which hedging never triggers, so micro-chunks
        do not hedge on scheduling noise.
    poll:
        Progress-check quantum (seconds) while waiting with deadlines or
        hedging enabled; with neither, waits block directly on the future.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05
    hedge_multiplier: Optional[float] = None
    min_hedge_latency: float = 0.05
    poll: float = 0.01

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff}")
        if self.hedge_multiplier is not None and self.hedge_multiplier <= 0:
            raise ValueError(
                f"hedge_multiplier must be positive or None, got {self.hedge_multiplier}"
            )
        if self.poll <= 0:
            raise ValueError(f"poll must be positive, got {self.poll}")


@dataclass(frozen=True)
class ChunkFaultStats:
    """Cumulative fault-path counters of one :class:`ShardedSampler`."""

    #: Supervised executor rebuilds of the current pool (0 without a pool).
    pool_restarts: int
    #: Chunk resubmissions after task failures.
    chunk_retries: int
    #: Chunk attempts abandoned at their deadline (each also retries).
    chunk_timeouts: int
    #: Hedged duplicates submitted for straggler chunks.
    hedges: int
    #: Hedged duplicates that finished before their primary.
    hedge_wins: int

    def to_dict(self) -> dict:
        """The ``faults`` subtree of the unified stats namespace.

        Field names match :meth:`repro.serve.service.ServiceStats.to_dict`
        (which extends this subtree with the service-level counters).
        """
        return {
            "pool_restarts": self.pool_restarts,
            "chunk_retries": self.chunk_retries,
            "chunk_timeouts": self.chunk_timeouts,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
        }


class _ChunkRun:
    """Shared state of one resilient multi-chunk pass (request or micro-batch).

    Tracks completed-chunk latencies so hedging can compare each in-flight
    chunk against the run's median.  A run is consumed by a single thread
    (the request iterator or the service dispatcher); the sampler-level
    counters it updates are lock-protected.
    """

    def __init__(self, sampler: "ShardedSampler") -> None:
        self.sampler = sampler
        self.policy = sampler.chunk_policy
        self._latencies: List[float] = []

    def submit(
        self, index: int, size: int, child: np.random.SeedSequence, sampling_mode: str
    ) -> "_ChunkHandle":
        return _ChunkHandle(self, index, size, child, sampling_mode)

    def record_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def median_latency(self) -> Optional[float]:
        if not self._latencies:
            return None
        ordered = sorted(self._latencies)
        return ordered[len(ordered) // 2]


class _ChunkHandle:
    """One chunk's fault-tolerant execution: deadline, retries, hedging."""

    def __init__(
        self,
        run: _ChunkRun,
        index: int,
        size: int,
        child: np.random.SeedSequence,
        sampling_mode: str,
    ) -> None:
        self._run = run
        self.index = index
        self.size = size
        self._child = child
        self._mode = sampling_mode
        self._attempts = 0  # failures + timeouts charged against max_retries
        self._trace = chunk_context(run.sampler.tracer, child, index)
        self._created = self._trace.now()
        self._primary: SupervisedFuture = self._submit()
        self._primary_started = time.perf_counter()
        self._hedge: Optional[SupervisedFuture] = None
        self._hedge_started = 0.0
        self._consumed = False

    def _submit(self) -> SupervisedFuture:
        pool = self._run.sampler._require_pool()
        return pool.submit(_sample_chunk, self.size, self._child, self._mode)

    def _decode(self, result) -> Table:
        return self._run.sampler.decode_chunk(result)

    def cancel(self) -> None:
        self._consumed = True
        self._primary.cancel()
        self._run.sampler._abandon(self._primary)
        if self._hedge is not None:
            self._hedge.cancel()
            self._run.sampler._abandon(self._hedge)

    # -- the resolution loop -----------------------------------------------------
    def result(self) -> Table:
        """Block until the chunk resolves; retries/hedges per the policy.

        Raises :class:`ChunkError` (with the last underlying error chained)
        when the retry budget is exhausted, or lets
        :class:`~repro.utils.parallel.WorkerPoolBroken` pass through
        unwrapped — that is a pool-level verdict, not a chunk-level one.
        """
        policy = self._run.policy
        simple = policy.timeout is None and policy.hedge_multiplier is None
        while True:
            if simple:
                # No deadline, no hedging: block straight on the attempt.
                try:
                    table = self._decode(self._primary.result())
                except Exception as exc:
                    self._handle_failure(exc)
                    continue
                return self._finish(table, self._primary_started, hedged_win=False)

            outcome = self._poll_once()
            if outcome is not None:
                return outcome

    @staticmethod
    def _outcome(future: Optional[SupervisedFuture]):
        """``(done, error)`` without blocking; pending (or rebound) → not done."""
        if future is None or not future.done():
            return False, None
        try:
            return True, future.exception(0)
        except FuturesTimeoutError:  # rebound by a concurrent pool recovery
            return False, None

    def _poll_once(self) -> Optional[Table]:
        """One supervision tick: winners, failures, deadline, hedge trigger."""
        policy = self._run.policy
        now = time.perf_counter()

        primary_done, primary_error = self._outcome(self._primary)
        hedge_done, hedge_error = self._outcome(self._hedge)

        # First-success-wins (and byte-equality assertion when both landed).
        if primary_done and primary_error is None:
            table = self._decode(self._primary.result(0))
            if hedge_done and hedge_error is None and self._hedge is not None:
                assert self._decode(self._hedge.result(0)) == table, (
                    f"hedged chunk {self.index} diverged from its primary — "
                    "the seed contract was violated"
                )
            if self._hedge is not None:
                self._hedge.cancel()
                self._run.sampler._abandon(self._hedge)
            return self._finish(table, self._primary_started, hedged_win=False)
        if hedge_done and hedge_error is None and self._hedge is not None:
            table = self._decode(self._hedge.result(0))
            self._primary.cancel()
            self._run.sampler._abandon(self._primary)
            return self._finish(table, self._hedge_started, hedged_win=True)

        # A failed hedge is simply dropped; a failed primary is promoted or
        # retried.
        if hedge_done and self._hedge is not None:
            self._hedge = None
        if primary_done:
            exc = primary_error
            assert exc is not None
            if self._hedge is not None:
                # The duplicate is already racing: make it the attempt.
                self._primary, self._hedge = self._hedge, None
                self._primary_started = self._hedge_started
            else:
                self._handle_failure(exc)
            return None

        # Deadline enforcement (per attempt).
        if policy.timeout is not None and now - self._primary_started > policy.timeout:
            if self._hedge is not None:
                # The younger duplicate inherits the attempt.
                self._primary.cancel()
                self._run.sampler._abandon(self._primary)
                self._primary, self._hedge = self._hedge, None
                self._primary_started = self._hedge_started
                return None
            self._run.sampler._count(timeouts=1)
            _LOG.warning(
                "chunk %d (%d rows) attempt %d timed out after %.3fs deadline; abandoning",
                self.index, self.size, self._attempts + 1, policy.timeout,
            )
            self._primary.cancel()
            self._run.sampler._abandon(self._primary)
            self._handle_failure(
                TimeoutError(f"attempt exceeded the {policy.timeout}s chunk deadline")
            )
            return None

        # Straggler hedging.
        if self._hedge is None and policy.hedge_multiplier is not None:
            median = self._run.median_latency()
            if median is not None:
                trigger = max(policy.min_hedge_latency, policy.hedge_multiplier * median)
                if now - self._primary_started > trigger:
                    self._hedge = self._submit()
                    self._hedge_started = time.perf_counter()
                    self._run.sampler._count(hedges=1)
                    _LOG.info(
                        "chunk %d (%d rows) straggling %.3fs > %.3fs trigger; hedging",
                        self.index, self.size, now - self._primary_started, trigger,
                    )

        time.sleep(policy.poll)
        return None

    def _record_attempt(self, number: int, started: float, error: Optional[str] = None) -> None:
        attrs = {"chunk": self.index, "rows": self.size}
        if error is not None:
            attrs["error"] = error
        self._trace.record(
            f"attempt[{number}]",
            started,
            span_id=self._trace.span_id("attempt", self.index, number),
            attrs=attrs,
        )

    def _handle_failure(self, exc: BaseException) -> None:
        """Charge a failure against the retry budget and resubmit (or raise)."""
        if isinstance(exc, WorkerPoolBroken):
            raise exc  # pool-level: not retryable at chunk granularity
        policy = self._run.policy
        self._attempts += 1
        self._record_attempt(self._attempts, self._primary_started, str(exc))
        if self._attempts > policy.max_retries:
            _LOG.error(
                "chunk %d (%d rows) exhausted its retry budget after attempt %d: %s",
                self.index, self.size, self._attempts, exc,
            )
            raise ChunkError(
                self.index, self.size,
                f"failed after {policy.max_retries} retr"
                f"{'y' if policy.max_retries == 1 else 'ies'}: {exc}",
            ) from exc
        self._run.sampler._count(retries=1)
        _LOG.warning(
            "chunk %d (%d rows) attempt %d failed: %s; retrying (%d/%d)",
            self.index, self.size, self._attempts, exc,
            self._attempts, policy.max_retries,
        )
        if policy.backoff > 0:
            time.sleep(policy.backoff * (2 ** (self._attempts - 1)))
        self._primary = self._submit()
        self._primary_started = time.perf_counter()

    def _finish(self, table: Table, started_at: float, *, hedged_win: bool) -> Table:
        self._consumed = True
        self._run.record_latency(time.perf_counter() - started_at)
        if hedged_win:
            self._run.sampler._count(hedge_wins=1)
        self._record_attempt(self._attempts + 1, started_at)
        self._trace.record(
            f"chunk[{self.index}]",
            self._created,
            scope=True,
            attrs={
                "chunk": self.index,
                "rows": self.size,
                "retries": self._attempts,
                "hedged_win": hedged_win,
            },
        )
        self._run.sampler._reap()
        return table


class ShardedSampler:
    """Fan a sampling request's chunks across a persistent process pool.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.base.Surrogate`.  The pool snapshots
        it when it starts; refit the model → :meth:`restart` the sampler.
    workers:
        Worker process count.  ``None`` resolves to the visible CPU budget
        (:func:`repro.utils.parallel.available_workers`, honouring
        ``REPRO_WORKERS``).  An explicit count is honoured exactly — the
        worker-count-invariance tests rely on being able to demand 4 workers
        on a one-core box.  ``1`` runs in-process with no pool at all.
    chunk_size:
        Rows per chunk (the sharding grain and the streaming memory bound).
    chunk_policy:
        Per-chunk deadline / retry / hedging policy (:class:`ChunkPolicy`);
        the default retries failures twice and disables deadlines/hedging.
    fault_plan:
        A :class:`~repro.serve.faults.FaultPlan` installed in every worker —
        deterministic chaos for tests, benchmarks and ``--fault-plan`` runs.
    max_pool_restarts:
        Supervised executor rebuilds tolerated before the pool declares
        itself broken (:class:`~repro.utils.parallel.WorkerPoolBroken`).
    transport:
        Chunk transport: ``"shm"`` (codes-only shared-memory segments),
        ``"pickle"`` (the chunk table as the task result), or ``None`` /
        ``"auto"`` — resolve from the ``REPRO_SHM`` environment variable,
        defaulting to shm where the platform supports it.  Output bytes are
        transport-invariant.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` the sampler's fault
        counters and transport gauges are registered in.  The owning
        service passes its registry down so the whole stack shares one;
        standalone samplers create their own.
    tracer:
        An optional :class:`~repro.obs.tracing.Tracer`.  When set, chunk
        handles record ``chunk[i]``/``attempt[j]`` spans, workers are
        started with tracing enabled (their ``worker_compute`` /
        ``shm_encode`` spans ride home on the task results), and the
        decode path records ``shm_decode`` spans.  ``None`` (the default)
        is a strict no-op on every path — bytes are identical either way.

    The sampler is a context manager; :meth:`close` shuts the pool down.
    """

    DEFAULT_CHUNK_SIZE = Surrogate.DEFAULT_SERVING_CHUNK

    def __init__(
        self,
        model: Surrogate,
        *,
        workers: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        chunk_policy: Optional[ChunkPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_pool_restarts: int = 5,
        transport: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        if not model.is_fitted:
            raise RuntimeError(
                f"{type(model).__name__} is not fitted; fit() it before serving"
            )
        self._model = model
        self.workers = available_workers(None) if workers is None else max(1, int(workers))
        self.chunk_size = int(chunk_size)
        self.chunk_policy = chunk_policy if chunk_policy is not None else ChunkPolicy()
        self.fault_plan = fault_plan
        self.max_pool_restarts = int(max_pool_restarts)
        self.transport = shm_transport.resolve_transport(transport)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._shm_session: Optional[shm_transport.ShmSession] = None
        self._pool: Optional[WorkerPool] = None
        counter = self.metrics.counter
        self._fault_counters = {
            "retries": counter(
                "repro_serve_chunk_retries_total",
                "Chunk resubmissions after task failures.",
            ),
            "timeouts": counter(
                "repro_serve_chunk_timeouts_total",
                "Chunk attempts abandoned at their per-attempt deadline.",
            ),
            "hedges": counter(
                "repro_serve_chunk_hedges_total",
                "Hedged duplicates submitted for straggler chunks.",
            ),
            "hedge_wins": counter(
                "repro_serve_chunk_hedge_wins_total",
                "Hedged duplicates that finished before their primary.",
            ),
        }
        self._pool_restarts_gauge = self.metrics.gauge(
            "repro_serve_pool_restarts", "Supervised executor rebuilds, all pool generations."
        )
        #: Futures cancelled or discarded while possibly carrying an
        #: unconsumed shm envelope; reaped once they resolve.
        self._abandoned: List[SupervisedFuture] = []
        self._abandoned_lock = threading.Lock()
        #: Restarts of pools already torn down (restart / hot swap) — keeps
        #: the cumulative fault counters monotonic across pool generations.
        self._retired_restarts = 0

    # -- lifecycle ---------------------------------------------------------------
    @property
    def model(self) -> Surrogate:
        """The surrogate being served (the parent-process instance)."""
        return self._model

    @property
    def is_running(self) -> bool:
        return self._pool is not None

    @property
    def pool_broken(self) -> bool:
        """True when pool supervision gave up (the degraded-mode signal)."""
        return self._pool is not None and self._pool.is_broken

    @property
    def pool_pending_tasks(self) -> int:
        """Tasks submitted to the pool and not yet resolved (0 pool-free)."""
        return self._pool.pending_tasks if self._pool is not None else 0

    def start(self) -> "ShardedSampler":
        """Snapshot the model and spawn + warm the worker pool (idempotent).

        With ``workers=1`` there is nothing to spawn: the in-process path is
        the pool-free degenerate case of the same chunk plan.
        """
        if self.workers > 1 and self._pool is None:
            snapshot = self._model.serving_snapshot()
            shm_config = None
            if self.transport == "shm":
                self._shm_session = shm_transport.ShmSession(self._model, metrics=self.metrics)
                shm_config = self._shm_session.config
            self._pool = WorkerPool(
                self.workers,
                initializer=_init_worker,
                initargs=(
                    snapshot,
                    self.chunk_size,
                    self.fault_plan,
                    shm_config,
                    self.tracer is not None,
                ),
                max_restarts=self.max_pool_restarts,
            ).start()
        return self

    def restart(self) -> "ShardedSampler":
        """Tear the pool down and re-snapshot the model (e.g. after a refit)."""
        self.close()
        return self.start()

    def resize(self, workers: int) -> "ShardedSampler":
        """Change the worker count at a safe point (no chunks in flight).

        The autoscaling hook: the service dispatcher calls this between
        micro-batches.  Byte-safe by the sharding contract — chunk streams
        are worker-count-invariant, so a resized pool serves identical
        bytes.  The current pool (if any) is torn down and a fresh one is
        started at the new count (``1`` runs pool-free); the sampler is
        started afterwards either way.
        """
        workers = max(1, int(workers))
        if workers == self.workers:
            return self
        self.close()
        self.workers = workers
        return self.start()

    def swap_model(self, model: Surrogate) -> "ShardedSampler":
        """Replace the served model with a freshly fitted one (hot swap).

        Tears the pool down, installs ``model``, and — when a pool was
        running — starts a new one from the new model's snapshot.  Callers
        must not have chunks in flight (the service dispatcher swaps between
        micro-batches, which guarantees exactly that).  A broken pool is
        also cleared here: a swap is a rebuild, so the degraded-mode flag
        resets with it.
        """
        if not model.is_fitted:
            raise RuntimeError(
                f"{type(model).__name__} is not fitted; fit() it before serving"
            )
        was_running = self._pool is not None
        self.close()
        self._model = model
        if was_running:
            self.start()
        return self

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            self._retired_restarts += pool.restarts
            pool.close()  # waits for running tasks — segments are all spooled after
        self._reap(final=True)
        session, self._shm_session = self._shm_session, None
        if session is not None:
            session.close()  # sweep crash leftovers + remove the spool dir

    def __enter__(self) -> "ShardedSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------------
    def decode_chunk(self, result) -> Table:
        """Materialise a worker result: envelopes decode, tables pass through.

        Traced results (:class:`~repro.obs.tracing.TracedChunk`) are
        unwrapped first: their worker-side spans fold into the parent
        tracer and the payload proceeds exactly as if tracing were off —
        which is why enabling tracing cannot change served bytes.
        """
        trace = NULL_TRACE
        if isinstance(result, TracedChunk):
            trace = result.adopt(self.tracer)
            result = result.payload
        if isinstance(result, ChunkEnvelope):
            assert self._shm_session is not None, "envelope received without a session"
            started = trace.now()
            table = self._shm_session.decoder.decode(result)
            trace.record(
                "shm_decode", started, attrs={"nbytes": int(result.nbytes), "rows": int(result.n_rows)}
            )
            return table
        return result

    def _abandon(self, future: Optional[SupervisedFuture]) -> None:
        """Track a future whose (possible) envelope will never be decoded."""
        if future is None or self._shm_session is None:
            return
        with self._abandoned_lock:
            self._abandoned.append(future)

    def _reap(self, *, final: bool = False) -> None:
        """Discard segments of abandoned futures that have since resolved.

        Called opportunistically on every chunk completion and exhaustively
        at :meth:`close` (``final=True`` — by then the pool has drained, so
        every abandoned future is resolved one way or the other).
        """
        with self._abandoned_lock:
            pending, self._abandoned = self._abandoned, []
        if not pending:
            return
        session = self._shm_session
        still_pending: List[SupervisedFuture] = []
        for future in pending:
            if not future.done():
                if not final:
                    still_pending.append(future)
                continue
            try:
                result = future.result(0)
            except BaseException:
                continue  # failed or cancelled: no envelope to release
            if isinstance(result, TracedChunk):
                result = result.payload  # abandoned attempt: spans are dropped
            if session is not None and isinstance(result, ChunkEnvelope):
                session.decoder.discard(result)
        if still_pending:
            with self._abandoned_lock:
                self._abandoned.extend(still_pending)

    # -- fault accounting --------------------------------------------------------
    def _count(self, **deltas: int) -> None:
        for key, delta in deltas.items():
            self._fault_counters[key].inc(delta)

    def fault_stats(self) -> ChunkFaultStats:
        """Point-in-time fault counters (pool restarts + chunk resilience).

        Reads the sampler's metrics registry — the counters here and the
        ``repro_serve_chunk_*`` series on ``/metrics`` are the same
        numbers by construction.
        """
        restarts = self._retired_restarts + (
            self._pool.restarts if self._pool is not None else 0
        )
        self._pool_restarts_gauge.set(restarts)
        return ChunkFaultStats(
            pool_restarts=restarts,
            chunk_retries=int(self._fault_counters["retries"].total()),
            chunk_timeouts=int(self._fault_counters["timeouts"].total()),
            hedges=int(self._fault_counters["hedges"].total()),
            hedge_wins=int(self._fault_counters["hedge_wins"].total()),
        )

    # -- the chunk plan (the single source of the sharding arithmetic) -----------
    def chunk_plan(self, n: int, seed: SeedLike):
        """The request's chunk sizes and their ``SeedSequence`` child streams.

        Chunk ``i`` has ``min(chunk_size, n - i * chunk_size)`` rows and
        draws from the ``i``-th child of ``seed`` — exactly
        :meth:`Surrogate.sample_batches`'s plan.  Every consumer
        (:meth:`sample_batches` here, the service's micro-batcher) derives
        its chunks from this one method, so the byte-equality contract
        cannot drift between them.
        """
        n_chunks = -(-n // self.chunk_size) if n else 0
        sizes = [min(self.chunk_size, n - i * self.chunk_size) for i in range(n_chunks)]
        return sizes, spawn_seed_sequences(seed, n_chunks)

    def sample_chunk_local(
        self, size: int, child: np.random.SeedSequence, sampling_mode: str
    ) -> Table:
        """Generate one chunk in this process — the workers' exact call.

        (Minus fault injection: the harness targets pool workers only, and
        this is also the degraded-mode path the service falls back to.)
        """
        return self._model.sample(
            size, seed=np.random.default_rng(child), sampling_mode=sampling_mode
        )

    def assemble(
        self, chunks, *, seed: SeedLike = None, sampling_mode: str = "exact"
    ) -> Table:
        """One table from a request's chunk tables (0 / 1 / many)."""
        chunks = list(chunks)
        if not chunks:
            return self._model.sample(0, seed=seed, sampling_mode=sampling_mode)
        if len(chunks) == 1:
            return chunks[0]
        return Table.concat(chunks)

    # -- sampling ----------------------------------------------------------------
    def sample(
        self, n, *, seed: SeedLike = None, sampling_mode: Optional[str] = None
    ) -> Table:
        """Draw rows as one table, sharded across the pool.

        Accepts either a row count (with keyword ``seed``/``sampling_mode``,
        defaulting to the bit-reproducible ``"exact"`` mode) or a
        :class:`~repro.serve.api.RequestSpec`, which carries its own seed
        and mode (tenant/priority/deadline are serving-layer concerns and
        are ignored here).  Byte-identical to
        ``Table.concat(list(model.sample_batches(n, chunk_size, seed=seed,
        sampling_mode=sampling_mode)))`` for every worker count — and, by
        the fault-tolerance contract above, for every recovered fault.
        """
        if isinstance(n, RequestSpec):
            if seed is not None or sampling_mode is not None:
                raise TypeError("pass either a RequestSpec or bare arguments, not both")
            n, seed, sampling_mode = n.n, n.seed, n.sampling_mode
        elif sampling_mode is None:
            sampling_mode = "exact"
        return self.assemble(
            self.sample_batches(n, seed=seed, sampling_mode=sampling_mode),
            seed=seed,
            sampling_mode=sampling_mode,
        )

    def sample_batches(
        self, n: int, *, seed: SeedLike = None, sampling_mode: str = "exact"
    ) -> Iterator[Table]:
        """Stream ``n`` rows as chunk tables, generated by the pool in parallel.

        Chunks are yielded in index order.  Submission is windowed (a small
        multiple of the worker count), so the pool stays saturated while the
        parent holds only a bounded number of undelivered chunks.  A chunk
        that exhausts its resilience budget raises :class:`ChunkError` with
        its index/size after the window's in-flight siblings are cancelled.
        """
        self._check_request(n, sampling_mode)
        sizes, children = self.chunk_plan(n, seed)

        if self.workers == 1 or len(sizes) <= 1:
            def _generate_serial() -> Iterator[Table]:
                for index, (size, child) in enumerate(zip(sizes, children)):
                    trace = chunk_context(self.tracer, child, index)
                    attrs = {"chunk": index, "rows": size, "local": True}
                    try:
                        with trace.span(f"chunk[{index}]", scope=True, attrs=attrs):
                            with trace.span("worker_compute", attrs=attrs):
                                table = self.sample_chunk_local(size, child, sampling_mode)
                    except Exception as exc:
                        raise ChunkError(index, size, f"failed: {exc}") from exc
                    yield table

            return _generate_serial()

        self.start()
        window = 2 * self.workers

        def _generate_sharded() -> Iterator[Table]:
            run = self.chunk_run()
            in_flight: deque = deque()
            try:
                for index, (size, child) in enumerate(zip(sizes, children)):
                    in_flight.append(run.submit(index, size, child, sampling_mode))
                    if len(in_flight) >= window:
                        yield in_flight.popleft().result()
                while in_flight:
                    yield in_flight.popleft().result()
            finally:
                # Error or early consumer exit: no abandoned siblings.
                for handle in in_flight:
                    handle.cancel()

        return _generate_sharded()

    def chunk_run(self) -> _ChunkRun:
        """A resilient chunk-submission context over the worker pool.

        The low-level entry the sampling service's micro-batcher uses to
        interleave the chunks of several coalesced requests in one pool
        pass: ``run.submit(index, size, child, mode)`` returns a handle whose
        ``result()`` applies the sampler's :class:`ChunkPolicy` (deadline,
        retries, hedging).  Requires ``workers > 1``.
        """
        if self.workers == 1:
            raise RuntimeError("chunk_run needs a worker pool (workers > 1)")
        self.start()
        return _ChunkRun(self)

    def submit_chunk(self, size: int, child: np.random.SeedSequence, sampling_mode: str):
        """Submit one raw chunk to the worker pool; returns its future.

        Bypasses the per-chunk resilience policy (the future is still
        supervised against worker death).  Prefer :meth:`chunk_run`.  Under
        the shm transport the future resolves to a
        :class:`~repro.serve.shm.ChunkEnvelope`; pass it through
        :meth:`decode_chunk` to materialise (and release) the chunk.
        """
        if self.workers == 1:
            raise RuntimeError("submit_chunk needs a worker pool (workers > 1)")
        self.start()
        assert self._pool is not None
        return self._pool.submit(_sample_chunk, size, child, sampling_mode)

    # -- helpers -----------------------------------------------------------------
    def _require_pool(self) -> WorkerPool:
        self.start()
        assert self._pool is not None
        return self._pool

    def _check_request(self, n: int, sampling_mode: str) -> None:
        if sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"unknown sampling mode {sampling_mode!r}; use one of {SAMPLING_MODES}"
            )
        if n < 0:
            raise ValueError(f"cannot sample a negative number of rows ({n})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.is_running else "idle"
        return (
            f"ShardedSampler({type(self._model).__name__}, workers={self.workers}, "
            f"chunk_size={self.chunk_size}, {state})"
        )
