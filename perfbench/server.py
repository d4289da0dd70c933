"""The served system, in its own process: set up, serve over HTTP, verify.

Started by ``run.py``; speaks JSON lines on stdin/stdout.  Set-up is the
real launch path — dataset build, TVAE fit, ``ModelRegistry.register`` /
``get``, worker-pool start, warm-up and HTTP bind — after which the server
prints its ready line; ``run.py`` times each launch up to that line.

Commands (one JSON object per line, answered with one line):

``{"cmd": "serve", "traced": bool}``
    Replace the service + front door with a fresh one, so every measured
    phase starts from the same state; with ``traced`` the service gets a
    ``Tracer`` and the benchmark's wrappers (:mod:`wrappers`) time the
    public calls into each layer.
``{"cmd": "swaps", "offsets": [...]}``
    Run the seeded register -> get -> ``swap_model`` schedule (offsets in
    seconds from now) on a background thread.
``{"cmd": "collect"}``
    Join the swap thread; return swap records, service stats and (traced)
    every span; then close the service.
``{"cmd": "verify", "items": [{"seed", "n"}...]}``
    In-process reference fingerprints for each model version.
``{"cmd": "stop"}``
    Close everything and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

# The control channel uses private copies of stdin/stdout.  Anything else
# that prints (the program, its workers) lands on stderr, and ``sys.stdin``
# becomes /dev/null: worker processes forked while the main thread waits
# for a command close ``sys.stdin``, which must not be the object the main
# thread is blocked reading (its lock would be inherited held).
_PROTO_OUT = os.fdopen(os.dup(1), "w", buffering=1)
_PROTO_IN = os.fdopen(os.dup(0), "rb", buffering=0)
os.dup2(2, 1)
sys.stdout = sys.stderr
sys.stdin = open(os.devnull)

from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.data import build_dataset  # noqa: E402
from repro.experiments.table1 import build_model  # noqa: E402
from repro.models.base import Surrogate  # noqa: E402
from repro.obs.tracing import Tracer, wall_clock  # noqa: E402
from repro.serve import ModelRegistry, RequestSpec, SamplingService  # noqa: E402
from repro.serve.api import table_fingerprint  # noqa: E402
from repro.serve.http import FrontDoor  # noqa: E402
from repro.serve.shm import resolve_transport  # noqa: E402
from repro.tabular.table import Table  # noqa: E402
from repro.utils.parallel import available_workers  # noqa: E402

import wrappers  # noqa: E402
from workloads import CHUNK_ROWS  # noqa: E402

MODEL = "tvae"
WARMUP_ROWS = 1_000


def reply(payload: Dict[str, object]) -> None:
    _PROTO_OUT.write(json.dumps(payload) + "\n")
    _PROTO_OUT.flush()


def commands():
    """Control messages from the raw stdin copy, one JSON object per line."""
    pending = b""
    while True:
        chunk = _PROTO_IN.read(65536)
        if not chunk:
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            if line.strip():
                yield json.loads(line)


class Served:
    """The served stack: fitted versions, registry, service, front door."""

    def __init__(self, root: str, versions: int) -> None:
        self.root = root
        self.versions = versions
        self.models: List[Surrogate] = []
        self.registry: Optional[ModelRegistry] = None
        self.service: Optional[SamplingService] = None
        self.front_door: Optional[FrontDoor] = None
        self.tracer: Optional[Tracer] = None
        self.address = None

    def setup(self) -> None:
        """The launch path: data, fit, registry, pool, warm-up, HTTP bind."""
        config = ExperimentConfig.ci()
        data = build_dataset(config)
        self.models = [
            build_model(MODEL, replace(config, seed=config.seed + version)).fit(data.train)
            for version in range(self.versions)
        ]
        registry_dir = tempfile.mkdtemp(prefix="registry-", dir=self.root)
        self.registry = ModelRegistry(registry_dir, warm_chunk_rows=CHUNK_ROWS)
        for model in self.models:
            self.registry.register(MODEL, model)
        self.start_service(self.registry.get(MODEL, "v1"), traced=False)

    def start_service(self, model, *, traced: bool) -> None:
        self.tracer = Tracer() if traced else None
        self.service = SamplingService(
            model, workers=available_workers(None), chunk_size=CHUNK_ROWS, tracer=self.tracer
        )
        self.service.sample(RequestSpec(n=WARMUP_ROWS, seed=0))  # warm-up
        if self.tracer is not None:
            self.tracer.clear()
        self.front_door = FrontDoor({MODEL: self.service})
        self.address = self.front_door.start_http()

    def close(self) -> None:
        if self.front_door is not None:
            self.front_door.close(services=True)
        self.front_door = self.service = None


class SwapSchedule(threading.Thread):
    """register -> get -> swap_model at seeded offsets, alternating versions."""

    def __init__(self, served: Served, offsets: List[float]) -> None:
        super().__init__(name="perfbench-swaps", daemon=True)
        self.served = served
        self.offsets = offsets
        self.records: List[Dict[str, float]] = []
        self.error: Optional[str] = None
        self._cancel = threading.Event()

    def run(self) -> None:
        started = time.perf_counter()
        try:
            for i, offset in enumerate(self.offsets):
                # stop() cancels swaps not yet due; a due swap always runs.
                remaining = started + offset - time.perf_counter()
                if remaining > 0 and self._cancel.wait(remaining):
                    return
                model = self.served.models[(i + 1) % len(self.served.models)]
                t0 = time.perf_counter()
                version = self.served.registry.register(MODEL, model)
                t1 = time.perf_counter()
                fresh = self.served.registry.get(MODEL, version)
                t2 = time.perf_counter()
                self.served.service.swap_model(fresh, wait=True, timeout=60)
                t3 = time.perf_counter()
                self.records.append({
                    "called": wall_clock(t2),
                    "register_s": t1 - t0,
                    "get_s": t2 - t1,
                    "swap_s": t3 - t2,
                    "version": i + 1,
                })
        except Exception as exc:  # reported to the client as a failed check
            self.error = f"{type(exc).__name__}: {exc}"

    def stop(self) -> None:
        self._cancel.set()
        self.join(timeout=120)


def reference_fingerprints(models, n: int, seed: int) -> List[str]:
    out = []
    for model in models:
        table = Table.concat(
            list(model.sample_batches(n, CHUNK_ROWS, seed=seed, sampling_mode="fast"))
        )
        out.append(table_fingerprint(table))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--versions", type=int, default=1)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.root, exist_ok=True)
    root = tempfile.mkdtemp(prefix="server-", dir=args.root)
    served = Served(root, args.versions)
    swaps: Optional[SwapSchedule] = None
    try:
        served.setup()
        probe = served.models[0].sample(1, seed=0, sampling_mode="fast")
        reply({
            "ready": True,
            "address": list(served.address),
            "workers": served.service.workers,
            "chunk_size": served.service.chunk_size,
            "transport": resolve_transport(None),
            "kinds": [[c.name, c.kind.value] for c in probe.schema.columns],
        })
        for message in commands():
            cmd = message["cmd"]
            if cmd == "serve":
                served.close()
                served.start_service(served.registry.get(MODEL, "v1"), traced=message["traced"])
                if message["traced"]:
                    wrappers.install(served.front_door, served.service, served.tracer)
                reply({"address": list(served.address)})
            elif cmd == "swaps":
                swaps = SwapSchedule(served, message["offsets"])
                swaps.start()
                reply({"ok": True})
            elif cmd == "collect":
                records, error = [], None
                if swaps is not None:
                    swaps.stop()
                    records, error, swaps = swaps.records, swaps.error, None
                stats = served.service.stats().to_dict()
                spans = [s.as_dict() for s in served.tracer.spans()] if served.tracer else []
                workers = served.service.workers
                wrappers.uninstall()
                served.close()
                reply({"swaps": records, "swap_error": error, "stats": stats,
                       "spans": spans, "workers": workers})
            elif cmd == "verify":
                reply({"fingerprints": [
                    reference_fingerprints(served.models, item["n"], item["seed"])
                    for item in message["items"]
                ]})
            elif cmd == "stop":
                reply({"ok": True})
                break
    finally:
        if swaps is not None:
            swaps.stop()
        wrappers.uninstall()
        served.close()
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
