"""The async multi-tenant front door: one entry point over many services.

:class:`FrontDoor` fans a stream of :class:`~repro.serve.api.RequestSpec`
submissions out across named backends — one
:class:`~repro.serve.service.SamplingService` per served model or registry
stage (``prod`` / ``canary`` serving concurrently is the canonical shape).
Placement keeps one in-flight count per backend: an unpinned request lands
on the backend with the fewest requests in flight (ties go to the first
registered), and a request naming its ``model`` is pinned but still
counted.  Routing never touches *bytes* — a request's result is a function
of its own seed, whichever backend serves it.

The HTTP endpoint is an :mod:`asyncio` protocol server (started with
:meth:`FrontDoor.start_http`) running on a background thread, speaking just
enough HTTP/1.1 for clients like ``urllib`` — one request per connection,
JSON in, JSON out.  Request bodies parse with stdlib :mod:`json`; response
bodies are encoded by :mod:`orjson` (numerical columns straight from their
float64 buffers) on executor threads, so the event loop only frames and
writes bytes.  Routes:

``POST /sample``
    Body: a JSON object with the :class:`~repro.serve.api.RequestSpec`
    fields (``n`` or ``rows``, ``seed``, ``sampling_mode``, ``tenant``,
    ``priority``, ``deadline``) plus two routing extras — ``model`` (pin a
    backend) and ``fingerprint_only`` (return the table's SHA-256 instead
    of its columns).  Responses: ``200`` with ``{"fingerprint", "rows",
    "model", "tenant", "columns"?}``; ``400`` on a malformed spec or
    ``Content-Length``; ``429`` with a
    ``Retry-After`` header when admission control rejects
    (:class:`~repro.serve.admission.AdmissionRejected`) or the in-flight
    budget is full.  Blocking waits happen on executor threads, so slow
    requests never stall the accept loop.
``GET /stats``
    The unified stats tree per backend (see
    :meth:`~repro.serve.service.ServiceStats.to_dict`) plus the per-backend
    in-flight counts that routing places by.
``GET /models``
    The routable backends and their worker/degraded state.
``GET /metrics``
    Prometheus text exposition (version 0.0.4) over every backend's
    :class:`~repro.obs.metrics.MetricsRegistry`, each series tagged
    ``backend="<name>"`` — the scrape surface behind the same numbers
    ``/stats`` reports (see :func:`~repro.obs.metrics.render_prometheus_multi`).
``GET /healthz``
    Liveness: ``{"status": "ok"}`` while the server accepts connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np
import orjson

from repro.obs.metrics import render_prometheus_multi
from repro.serve.admission import AdmissionRejected, ServiceOverloaded
from repro.serve.api import RequestSpec, table_fingerprint
from repro.serve.service import SampleRequest, SamplingService
from repro.tabular.table import Table
from repro.utils.logging import get_logger

__all__ = ["FrontDoor", "FrontDoorTicket"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

_LOG = get_logger(__name__)

_JSON = "application/json"
_PROMETHEUS_TEXT = "text/plain; version=0.0.4; charset=utf-8"

#: One encoded response: status, body bytes, content type, extra headers.
Response = Tuple[int, bytes, str, Dict[str, str]]


def _encode_json(payload: object) -> bytes:
    """The one response encoder: ``orjson`` with numpy arrays serialized natively.

    Floats are written as shortest round-trip decimals, so a client's
    ``json.loads`` reproduces every float64 bit for bit.
    """
    return orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY)


def _json_response(
    status: int, payload: object, headers: Optional[Dict[str, str]] = None
) -> Response:
    return status, _encode_json(payload), _JSON, headers or {}


_INTERNAL_ERROR = _json_response(500, {"error": "internal server error"})


class FrontDoorTicket:
    """Handle for a routed request: the service handle plus its slot.

    Wraps the backend's :class:`~repro.serve.service.SampleRequest` and
    releases the request's in-flight slot once the request resolves and
    the caller has collected it, so routing sees completions as well as
    arrivals.
    """

    def __init__(
        self, inner: SampleRequest, release: Callable[[str], None], backend: str
    ) -> None:
        self._inner = inner
        self._release = release
        #: The backend (model/stage name) this request was routed to.
        self.backend = backend
        self._released = False
        self._release_lock = threading.Lock()

    @property
    def spec(self) -> RequestSpec:
        return self._inner.spec

    @property
    def latency(self) -> Optional[float]:
        return self._inner.latency

    def done(self) -> bool:
        return self._inner.done()

    def result(self, timeout: Optional[float] = None) -> Table:
        """Block for the table (see :meth:`SampleRequest.result`)."""
        try:
            return self._inner.result(timeout)
        finally:
            self._release_if_done()

    def cancel(self) -> bool:
        cancelled = self._inner.cancel()
        self._release_if_done()
        return cancelled

    def _release_if_done(self) -> None:
        if not self._inner.done():
            return  # timed out: the slot is still genuinely occupied
        with self._release_lock:
            if self._released:
                return
            self._released = True
        self._release(self.backend)


class FrontDoor:
    """Route requests across named sampling services; optionally speak HTTP.

    Parameters
    ----------
    services:
        Either one :class:`SamplingService` (registered as ``"default"``)
        or a mapping of backend name → service — registry stage names
        (``prod``, ``canary``) are the intended keys for multi-stage
        serving.

    The front door does not own its services' lifecycles by default:
    :meth:`close` stops the HTTP endpoint, and ``close(services=True)``
    additionally closes every backend service.
    """

    def __init__(
        self, services: Union[SamplingService, Mapping[str, SamplingService]]
    ) -> None:
        if isinstance(services, SamplingService):
            services = {"default": services}
        if not services:
            raise ValueError("FrontDoor requires at least one backend service")
        self._services: Dict[str, SamplingService] = dict(services)
        # Requests routed and not yet collected, per backend (registration
        # order: ``min`` breaks ties toward the first backend).
        self._in_flight: Dict[str, int] = {name: 0 for name in self._services}
        self._route_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- programmatic API --------------------------------------------------------
    @property
    def models(self) -> List[str]:
        """The routable backend names, in registration order."""
        return list(self._services)

    def service(self, model: str) -> SamplingService:
        """The backend service for ``model`` (KeyError on unknown names)."""
        try:
            return self._services[model]
        except KeyError:
            known = ", ".join(self._services)
            raise KeyError(f"unknown model {model!r}; serving: {known}") from None

    def submit(self, spec: RequestSpec, *, model: Optional[str] = None) -> FrontDoorTicket:
        """Route one request and queue it on its backend.

        Unpinned requests go to the backend with the fewest requests in
        flight; ``model`` pins one.  Raises whatever the backend's admission
        control raises — routing happens first, so a rejected request's
        slot is released immediately.
        """
        if model is not None and model not in self._services:
            known = ", ".join(self._services)
            raise KeyError(f"unknown model {model!r}; serving: {known}")
        with self._route_lock:
            backend = model if model is not None else min(self._in_flight, key=self._in_flight.__getitem__)
            self._in_flight[backend] += 1
        try:
            inner = self._services[backend].submit(spec)
        except BaseException:
            self._release(backend)
            raise
        return FrontDoorTicket(inner, self._release, backend)

    def _release(self, backend: str) -> None:
        with self._route_lock:
            self._in_flight[backend] -= 1

    def sample(self, spec: RequestSpec, *, model: Optional[str] = None) -> Table:
        """Synchronous convenience: route, wait, return the table."""
        return self.submit(spec, model=model).result()

    def stats(self) -> Dict[str, object]:
        """The unified stats tree: per-backend service stats + in-flight counts."""
        with self._route_lock:
            load = dict(self._in_flight)
        return {
            "models": {
                name: service.stats().to_dict()
                for name, service in self._services.items()
            },
            "router": {"in_flight": load},
        }

    def close(self, *, services: bool = False) -> None:
        """Stop the HTTP endpoint (and the backends, with ``services=True``)."""
        self.stop_http()
        if services:
            for service in self._services.values():
                service.close()

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the HTTP endpoint -------------------------------------------------------
    def start_http(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Serve HTTP on a background thread; returns the bound (host, port).

        ``port=0`` binds an ephemeral port (the test/CI-friendly default).
        """
        if self._server_thread is not None:
            raise RuntimeError("the HTTP endpoint is already running")
        ready = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(self._handle_connection, host, port)
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
                failure.append(exc)
                ready.set()
                loop.close()
                return
            self._server = server
            sock = server.sockets[0].getsockname()
            self.address = (sock[0], sock[1])
            ready.set()
            try:
                loop.run_forever()
            finally:
                server.close()
                loop.run_until_complete(server.wait_closed())
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._server_thread = threading.Thread(
            target=run, name="repro-serve-http", daemon=True
        )
        self._server_thread.start()
        ready.wait()
        if failure:
            self._server_thread.join()
            self._server_thread = None
            self._loop = None
            raise failure[0]
        assert self.address is not None
        return self.address

    def stop_http(self) -> None:
        """Stop the HTTP endpoint; idempotent, keeps backends serving."""
        thread = self._server_thread
        loop = self._loop
        if thread is None or loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        self._server_thread = None
        self._server = None
        self._loop = None
        self.address = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange: read, route, write the encoded response, close."""
        response: Optional[Response] = None
        try:
            response = await self._read_and_route(reader)
        except Exception:
            _LOG.exception("HTTP request failed; answering 500")
            response = _INTERNAL_ERROR
        finally:
            if response is not None:
                with contextlib.suppress(Exception):
                    status, data, content_type, extra = response
                    head = (
                        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                        f"Content-Type: {content_type}\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        "Connection: close\r\n"
                    )
                    for name, value in extra.items():
                        head += f"{name}: {value}\r\n"
                    writer.write(head.encode("latin-1") + b"\r\n" + data)
                    await writer.drain()
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_and_route(self, reader: asyncio.StreamReader) -> Optional[Response]:
        """Parse one request off the stream and route it (``None``: nothing to answer)."""
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None  # connection opened and dropped
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            return _json_response(400, {"error": f"invalid Content-Length {declared!r}"})
        body = await reader.readexactly(length) if length > 0 else b""
        return await self._route(method, path, body)

    async def _route(self, method: str, path: str, body: bytes) -> Response:
        if path == "/sample":
            if method != "POST":
                return _json_response(405, {"error": "POST only"}, {"Allow": "POST"})
            # The whole serve — JSON parse, admission, the blocking wait for
            # the table, fingerprint and response encode — runs on an
            # executor thread; the event loop only shuttles bytes.
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, self._sample_response, body)
        if method != "GET":
            return _json_response(405, {"error": "GET only"}, {"Allow": "GET"})
        if path == "/stats":
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, self._stats_response)
        if path == "/metrics":
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, self._metrics_response)
        if path == "/models":
            return _json_response(
                200,
                {
                    "models": {
                        name: {
                            "workers": service.workers,
                            "degraded": service.degraded,
                        }
                        for name, service in self._services.items()
                    }
                },
            )
        if path == "/healthz":
            return _json_response(200, {"status": "ok", "models": self.models})
        return _json_response(404, {"error": f"no route for {path}"})

    def _stats_response(self) -> Response:
        return _json_response(200, self.stats())

    def _metrics_response(self) -> Response:
        return 200, self._metrics_page().encode("utf-8"), _PROMETHEUS_TEXT, {}

    def _metrics_page(self) -> str:
        """The Prometheus text page over every backend's registry.

        Refreshing each service's stats first folds the point-in-time
        gauges (queue depth, workers, pool restarts) into the registries
        before rendering.
        """
        for service in self._services.values():
            service.stats()
        return render_prometheus_multi(
            {name: service.metrics for name, service in self._services.items()}
        )

    def _sample_response(self, body: bytes) -> Response:
        """The blocking half of ``POST /sample`` (runs on executor threads)."""
        try:
            raw = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(raw, dict):
                raise ValueError("request body must be a JSON object")
            model = raw.pop("model", None)
            fingerprint_only = bool(raw.pop("fingerprint_only", False))
            spec = RequestSpec.from_payload(raw)
        except (ValueError, TypeError, KeyError) as exc:
            return _json_response(400, {"error": str(exc)})
        try:
            ticket = self.submit(spec, model=str(model) if model is not None else None)
            table = ticket.result()
        except AdmissionRejected as exc:
            return _json_response(
                429,
                {"error": str(exc), "reason": exc.reason, "retry_after": exc.retry_after},
                {"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except ServiceOverloaded as exc:
            return _json_response(
                429, {"error": str(exc), "reason": "overloaded"}, {"Retry-After": "1"}
            )
        except KeyError as exc:
            return _json_response(400, {"error": str(exc)})
        body = _sample_body(
            table, model=ticket.backend, tenant=spec.tenant, columns=not fingerprint_only
        )
        return 200, body, _JSON, {}


def _sample_body(table: Table, *, model: str, tenant: str, columns: bool) -> bytes:
    """The encoded ``200`` body of ``POST /sample``.

    ``{"fingerprint", "rows", "model", "tenant"}`` plus, when ``columns``,
    the table's cells (see :func:`_columns_payload`).  Numerical cells must
    be finite: JSON has no NaN or infinity, and ``orjson`` writes them as
    ``null``.  Every surrogate guarantees finite output in every sampling
    mode (``tests/test_degenerate_inputs.py``).
    """
    payload: Dict[str, object] = {
        "fingerprint": table_fingerprint(table),
        "rows": table.n_rows,
        "model": model,
        "tenant": tenant,
    }
    if columns:
        payload["columns"] = _columns_payload(table)
    return _encode_json(payload)


def _columns_payload(table: Table) -> Dict[str, object]:
    """Columns ready for :func:`_encode_json`, built without per-cell decoding.

    Numerical columns stay contiguous float64 arrays, which ``orjson``
    serializes from the buffer.  Categorical columns are a gather of the
    vocabulary (as an object array of ``str``) over the codes: the list
    shares one string object per category, and no cell is decoded.  The
    words come from ``vocab_array()``, so a client that rebuilds the
    :class:`~repro.tabular.table.Table` from them reproduces the
    fingerprint.
    """
    columns: Dict[str, object] = {}
    for name in table.schema.numerical:
        columns[name] = np.ascontiguousarray(table[name], dtype=np.float64)
    for name in table.schema.categorical:
        column = table.categorical_column(name)
        words = np.asarray(column.vocab_array().tolist(), dtype=object)
        columns[name] = words[column.codes].tolist()
    return columns
