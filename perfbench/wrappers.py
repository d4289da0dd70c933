"""Timing wrappers around public calls into each layer of the served stack.

Installed only in the traced phase of a run.  Each wrapper times one call
and records a ``bench.*`` span into the service's own
:class:`~repro.obs.tracing.Tracer`, under the request's seed-derived trace
ID, so the benchmark's spans and the program's spans share one tree and
one exported file.  Nothing here changes arguments or results.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

import repro.serve.http as http_module
from repro.obs.tracing import Tracer, span_id, trace_id_from_seed, wall_clock
from repro.serve.sharded import ShardedSampler

#: Trace ID of the swap schedule's spans (not a request).
SWAP_TRACE = "swap-schedule"

_restore: List[Tuple[object, str, object]] = []
_local = threading.local()


def _record(tracer: Tracer, name: str, trace_id: str, started: float, attrs=None) -> None:
    tracer.record_span(
        name,
        trace_id,
        span_id=span_id(trace_id, name, started),
        start=wall_clock(started),
        duration=time.perf_counter() - started,
        attrs=attrs,
    )


def _patch(owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, name)
    _restore.append((owner, name, original))
    setattr(owner, name, make(original))


def install(front_door, service, tracer: Tracer) -> None:
    """Wrap the public entry points of each layer for this service."""
    if _restore:
        raise RuntimeError("wrappers already installed")

    def front_door_submit(original):
        def submit(spec, *, model: Optional[str] = None):
            trace_id = trace_id_from_seed(spec.seed)
            _local.trace_id = trace_id
            started = time.perf_counter()
            try:
                return original(spec, model=model)
            finally:
                _record(tracer, "bench.frontdoor_submit", trace_id, started)
        return submit

    def service_submit(original):
        def submit(request, *args, **kwargs):
            started = time.perf_counter()
            try:
                return original(request, *args, **kwargs)
            finally:
                trace_id = trace_id_from_seed(getattr(request, "seed", None))
                _record(tracer, "bench.service_submit", trace_id, started)
        return submit

    def fingerprint(original):
        def table_fingerprint(table, state=None):
            started = time.perf_counter()
            try:
                return original(table, state)
            finally:
                trace_id = getattr(_local, "trace_id", None)
                if trace_id is not None:
                    _record(tracer, "bench.fingerprint", trace_id, started,
                            {"rows": table.n_rows})
        return table_fingerprint

    def decode_chunk(original):
        def wrapped(self, result):
            spans = getattr(result, "spans", None)
            started = time.perf_counter()
            try:
                return original(self, result)
            finally:
                if spans:
                    first = spans[0]
                    _record(tracer, "bench.decode_chunk", first.trace_id, started,
                            {"chunk": first.attrs.get("chunk", 0)})
        return wrapped

    def assemble(original):
        def wrapped(self, chunks, *, seed=None, sampling_mode="exact"):
            chunks = list(chunks)
            started = time.perf_counter()
            try:
                return original(self, chunks, seed=seed, sampling_mode=sampling_mode)
            finally:
                _record(tracer, "bench.assemble", trace_id_from_seed(seed), started,
                        {"chunks": len(chunks)})
        return wrapped

    def swap_model(original):
        def wrapped(self, model):
            started = time.perf_counter()
            try:
                return original(self, model)
            finally:
                _record(tracer, "bench.swap_rebuild", SWAP_TRACE, started)
        return wrapped

    _patch(front_door, "submit", front_door_submit)
    _patch(service, "submit", service_submit)
    _patch(http_module, "table_fingerprint", fingerprint)
    _patch(ShardedSampler, "decode_chunk", decode_chunk)
    _patch(ShardedSampler, "assemble", assemble)
    _patch(ShardedSampler, "swap_model", swap_model)


def uninstall() -> None:
    """Restore every wrapped attribute (idempotent)."""
    while _restore:
        owner, name, original = _restore.pop()
        if isinstance(owner, type) or owner is http_module:
            setattr(owner, name, original)
        else:
            # Instance patches shadowed the class attribute: drop them.
            try:
                delattr(owner, name)
            except AttributeError:
                pass
