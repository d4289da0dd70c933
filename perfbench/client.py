"""The load generator: open- and closed-loop HTTP clients over loopback.

One process, at most ``nproc`` threads, one connection per thread at a
time (the front door serves one request per connection).  Open-loop
latency runs from the time a request was due to its last response byte,
so a stall is charged to every request queued behind it; the generator's
lag (send time minus due time) is recorded separately.  Closed-loop
latency runs from send to last byte.
"""

from __future__ import annotations

import gc
import http.client
import json
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Request, Stream

_FINGERPRINT = re.compile(r"^[0-9a-f]{64}$")
TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One request as the client saw it (times are ``perf_counter`` stamps)."""

    request: Request
    due: Optional[float]
    send: float = 0.0
    first: float = 0.0
    last: float = 0.0
    status: int = 0
    nbytes: int = 0
    fingerprint: Optional[str] = None
    ok: bool = False
    error: Optional[str] = None
    columns: Optional[Dict[str, list]] = None

    @property
    def latency(self) -> float:
        """Seconds from due (open loop) or send (closed loop) to last byte."""
        start = self.due if self.due is not None else self.send
        return self.last - start


@dataclass
class Scrape:
    send: float
    last: float
    status: int
    nbytes: int


@dataclass
class StreamRun:
    """What one stream's connections saw during a window."""

    outcomes: List[Outcome] = field(default_factory=list)
    scrapes: List[Scrape] = field(default_factory=list)


def post_sample(address, request: Request, due: Optional[float], keep: bool) -> Outcome:
    outcome = Outcome(request, due)
    body = json.dumps(request.body()).encode("utf-8")
    outcome.send = time.perf_counter()
    conn = http.client.HTTPConnection(address[0], address[1], timeout=TIMEOUT_S)
    try:
        conn.request("POST", "/sample", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        outcome.first = time.perf_counter()
        data = response.read()
        outcome.last = time.perf_counter()
        outcome.status = response.status
        outcome.nbytes = len(data)
    except (OSError, http.client.HTTPException) as exc:
        outcome.last = outcome.first = time.perf_counter()
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome
    finally:
        conn.close()
    if outcome.status != 200:
        outcome.error = f"HTTP {outcome.status}"
        return outcome
    try:
        payload = json.loads(data)
    except ValueError as exc:
        outcome.error = f"bad JSON: {exc}"
        return outcome
    fingerprint = payload.get("fingerprint")
    if payload.get("rows") != request.n:
        outcome.error = f"rows {payload.get('rows')} != n {request.n}"
    elif not isinstance(fingerprint, str) or not _FINGERPRINT.match(fingerprint):
        outcome.error = "missing fingerprint"
    elif not request.fingerprint_only and "columns" not in payload:
        outcome.error = "missing columns"
    else:
        outcome.ok = True
        outcome.fingerprint = fingerprint
        if keep:
            outcome.columns = payload.get("columns")
    return outcome


def get_metrics(address) -> Scrape:
    send = time.perf_counter()
    conn = http.client.HTTPConnection(address[0], address[1], timeout=TIMEOUT_S)
    status, nbytes = 0, 0
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        data = response.read()
        status, nbytes = response.status, len(data)
    except (OSError, http.client.HTTPException):
        pass
    finally:
        conn.close()
    return Scrape(send, time.perf_counter(), status, nbytes)


def _sleep_until(deadline: float) -> None:
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(remaining, 0.05))


def run_streams(
    address,
    streams: Sequence[Stream],
    requests: Dict[str, List[Request]],
    window_s: float,
    keep: Dict[str, Sequence[int]],
    scrape_hz: float = 0.0,
    on_start=None,
) -> Tuple[Dict[str, StreamRun], float]:
    """Drive every stream for ``window_s``; returns what each saw and the
    window's start (a ``perf_counter`` stamp).

    Open-loop streams send every request due inside the window (late ones
    as soon as a connection frees up); closed-loop streams send back to
    back until the window ends; a probe stream sends one request a seeded
    delay after each send of the stream it follows.  In-flight requests
    are always completed.  The scrape, when asked for, rides the first
    open-loop stream's connections so the connection count stays at the
    workload's.  ``on_start`` runs just before the window opens.
    """
    runs = {s.name: StreamRun() for s in streams}
    threads: List[threading.Thread] = []
    errors: List[BaseException] = []
    start = end = 0.0  # set when the window opens, before any thread runs

    def open_loop(stream: Stream) -> None:
        items: List[tuple] = [(r.due, r) for r in requests[stream.name] if r.due < window_s]
        if scrape_hz > 0 and stream is next(s for s in streams if s.loop == "open"):
            items += [(k / scrape_hz + 0.5 / scrape_hz, None)
                      for k in range(int(window_s * scrape_hz))]
        items.sort(key=lambda item: item[0])
        lock = threading.Lock()
        cursor = [0]
        wanted = set(keep.get(stream.name, ()))

        def worker() -> None:
            try:
                while True:
                    with lock:
                        if cursor[0] >= len(items):
                            return
                        due, request = items[cursor[0]]
                        cursor[0] += 1
                    _sleep_until(start + due)
                    if request is None:
                        scrape = get_metrics(address)
                        with lock:
                            runs[stream.name].scrapes.append(scrape)
                        continue
                    outcome = post_sample(address, request, start + due,
                                          request.index in wanted)
                    with lock:
                        runs[stream.name].outcomes.append(outcome)
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        for _ in range(stream.connections):
            threads.append(threading.Thread(target=worker, daemon=True))

    triggers: Dict[str, "queue.Queue[Optional[float]]"] = {
        s.follows: queue.Queue() for s in streams if s.loop == "probe"
    }

    def closed_loop(stream: Stream) -> None:
        pending = requests[stream.name]
        lock = threading.Lock()
        cursor = [0]
        wanted = set(keep.get(stream.name, ()))
        trigger = triggers.get(stream.name)

        def worker() -> None:
            try:
                _sleep_until(start)
                while time.perf_counter() < end:
                    with lock:
                        if cursor[0] >= len(pending):
                            return
                        request = pending[cursor[0]]
                        cursor[0] += 1
                    if trigger is not None:
                        trigger.put(time.perf_counter())
                    outcome = post_sample(address, request, None, request.index in wanted)
                    with lock:
                        runs[stream.name].outcomes.append(outcome)
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)
            finally:
                if trigger is not None:
                    trigger.put(None)

        for _ in range(stream.connections):
            threads.append(threading.Thread(target=worker, daemon=True))

    def probe_loop(stream: Stream) -> None:
        trigger = triggers[stream.follows]
        wanted = set(keep.get(stream.name, ()))

        def worker() -> None:
            try:
                for request in requests[stream.name]:
                    sent_at = trigger.get(timeout=window_s + 150)
                    if sent_at is None:
                        return
                    due = sent_at + request.due
                    _sleep_until(due)
                    outcome = post_sample(address, request, due, request.index in wanted)
                    runs[stream.name].outcomes.append(outcome)
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        threads.append(threading.Thread(target=worker, daemon=True))

    loops = {"open": open_loop, "closed": closed_loop, "probe": probe_loop}
    for stream in streams:
        loops[stream.loop](stream)
    if on_start is not None:
        on_start()
    start = time.perf_counter() + 0.02
    end = start + window_s
    # The client's own garbage collections would land inside measured
    # requests (parsing a 100k-row body allocates ~10^6 objects); the
    # window allocates little that is cyclic, so collect once afterwards.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=window_s + 150)
            if thread.is_alive():
                raise RuntimeError("client thread did not finish")
    finally:
        gc.enable()
        gc.collect()
    if errors:
        raise errors[0]
    for run in runs.values():
        run.outcomes.sort(key=lambda o: o.request.index)
    return runs, start
