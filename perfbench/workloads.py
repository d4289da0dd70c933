"""The benchmark's workloads and its seeded request generator.

Everything a workload sends is generated here from the workload seed; the
served program receives only the resulting HTTP requests.  The generator is
deliberately independent of ``repro.scenarios`` so that a change to program
code can never change the workload.

Run-to-run steadiness comes from the shape of the generator, not from
luck: request sizes are the midpoint quantiles of a fixed distribution,
dealt out in blocks whose order the seed shuffles, and open-loop arrivals
are jittered-periodic (one arrival placed uniformly inside each ``1/rate``
slot).  Every seed therefore offers the same multiset of work at the same
rate; the seed changes which request comes when, the tenants, and every
request's sampling seed.  Poisson arrivals were tried first: their bursts
made the median latency depend on the seed (one seed read 38-40 ms on
three runs where another read 28 ms), more than any program change the
benchmark should resolve.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Rows per chunk of the served sampler (its serving default).
CHUNK_ROWS = 16_384

#: Six Zipf-weighted tenants (exponent 1.1), each with a fixed priority class.
TENANTS: Tuple[Tuple[str, str], ...] = (
    ("t0-dash", "interactive"),
    ("t1-notebook", "interactive"),
    ("t2-sim", "normal"),
    ("t3-rl", "normal"),
    ("t4-etl", "batch"),
    ("t5-archive", "batch"),
)
ZIPF_EXPONENT = 1.1


def tenant_weights() -> np.ndarray:
    """The tenants' traffic shares (Zipf over their rank)."""
    weights = np.array([1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(len(TENANTS))])
    return weights / weights.sum()


@dataclass(frozen=True)
class Sizes:
    """A request-size distribution, dealt in shuffled blocks.

    With ``levels`` a block is those sizes; otherwise it is ``block``
    midpoint quantiles of a log-normal clipped to ``[low, high]``.
    """

    levels: Tuple[int, ...] = ()
    median: int = 1_000
    sigma: float = 1.0
    low: int = 64
    high: int = 16_384
    block: int = 24

    def block_values(self) -> List[int]:
        """One block of request sizes."""
        if self.levels:
            return list(self.levels)
        normal = NormalDist()
        values = []
        for k in range(self.block):
            z = normal.inv_cdf((k + 0.5) / self.block)
            rows = int(round(self.median * math.exp(self.sigma * z)))
            values.append(min(self.high, max(self.low, rows)))
        return values

    def describe(self) -> Dict[str, int]:
        values = sorted(self.block_values())
        pick = lambda q: values[min(len(values) - 1, int(q * len(values)))]  # noqa: E731
        return {"min": values[0], "p50": pick(0.5), "p90": pick(0.9), "max": values[-1]}


@dataclass(frozen=True)
class Stream:
    """One client stream: its loop, load, request shape and latency limit."""

    name: str
    #: "open" (scheduled arrivals), "closed" (back to back) or "probe" (one
    #: request a seeded offset after each send of the ``follows`` stream).
    loop: str
    sizes: Sizes
    #: Open loop: the offered rate (req/s).
    rate: float = 0.0
    #: Fixed priority for every request; ``None`` takes the tenant's class.
    priority: Optional[str] = None
    tenant: Optional[str] = None
    fingerprint_only: bool = False
    #: Client connections (threads) serving this stream.
    connections: int = 1
    #: Latency limit of the SLO, seconds.
    limit_s: float = 0.25
    #: Whether this stream's latencies are the workload's p50/SLO stream.
    measured: bool = True
    #: Probe streams: the stream whose sends trigger a probe, and the
    #: probe's delay after the trigger (seconds, seeded within the range).
    follows: Optional[str] = None
    offset_s: Tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    streams: Tuple[Stream, ...]
    #: 1 Hz ``GET /metrics`` scrape, taken by the measured stream's threads.
    scrape_hz: float = 0.0
    #: Hot swaps (register -> get -> swap_model) per second of window.
    swaps_per_s: float = 0.0
    #: Requests per stream whose (seed, fingerprint) pairs form the digest.
    digest_prefix: int = 8
    #: Requests per stream re-verified against an in-process reference.
    verify_per_stream: int = 2


INTERACTIVE_SIZES = Sizes(median=1_000, sigma=1.0, low=64, high=16_384, block=24)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="interactive-open",
            why=(
                "per-request fixed costs: open-loop (jittered-periodic) 16 req/s on two "
                "connections, log-normal ~1k-row one-chunk requests, six Zipf "
                "tenants, full columns, 1 Hz /metrics scrape"
            ),
            streams=(
                Stream(
                    "interactive",
                    "open",
                    INTERACTIVE_SIZES,
                    rate=16.0,
                    connections=2,
                    limit_s=0.25,
                ),
            ),
            scrape_hz=1.0,
            digest_prefix=16,
        ),
        Workload(
            name="bulk-export",
            why=(
                "edge and data plane: closed loop on one connection, back-to-back "
                "100k-row batch-priority requests with full columns (7 chunks each)"
            ),
            streams=(
                Stream(
                    "bulk",
                    "closed",
                    Sizes(levels=(100_000,)),
                    priority="batch",
                    tenant="t4-etl",
                    connections=1,
                    # About 1.5x the parent's p90: over two sets of ten
                    # untraced 24 s runs, on a host whose speed drifted by
                    # about a fifth between them, the per-run p90 read
                    # 802-1081 ms (set medians 845 and 990) and the slowest
                    # request 1133 ms.  A healthy run meets it; at twice
                    # the latency most requests miss it.
                    limit_s=1.5,
                ),
            ),
            digest_prefix=3,
            verify_per_stream=1,
        ),
        Workload(
            name="head-of-line",
            why=(
                "dispatcher ordering: closed-loop 100k/250k/400k-row batch "
                "fingerprint-only requests on one connection, a 1k-row "
                "interactive probe sent 0.1 s after each on the other"
            ),
            streams=(
                Stream(
                    "batch",
                    "closed",
                    # Three sizes, so the probes' median falls among those
                    # behind 250k-row batches whatever the order.
                    Sizes(levels=(100_000, 250_000, 400_000)),
                    priority="batch",
                    tenant="t4-etl",
                    fingerprint_only=True,
                    connections=1,
                    limit_s=5.0,
                    measured=False,
                ),
                Stream(
                    "interactive",
                    "probe",
                    Sizes(levels=(1_000,)),
                    priority="interactive",
                    tenant="t0-dash",
                    connections=1,
                    # About 1.5x the parent's p90, measured as for
                    # bulk-export: the probes' per-run p90 read 709-1124 ms
                    # (set medians 878 and 1097) and the slowest probe
                    # 1358 ms.
                    limit_s=1.6,
                    follows="batch",
                    offset_s=(0.09, 0.11),
                ),
            ),
            digest_prefix=3,
            verify_per_stream=1,
        ),
        Workload(
            name="swap-under-load",
            why=(
                "write path beside read path: open-loop 12 req/s interactive "
                "traffic while a seeded schedule registers, gets and hot-swaps "
                "between two TVAE versions about every 2 s"
            ),
            streams=(
                Stream(
                    "interactive",
                    "open",
                    INTERACTIVE_SIZES,
                    rate=12.0,
                    connections=2,
                    limit_s=0.5,
                ),
            ),
            swaps_per_s=0.5,
            digest_prefix=8,
        ),
    )
}


@dataclass
class Request:
    """One generated request (what the client sends, plus bookkeeping)."""

    stream: str
    index: int
    n: int
    seed: int
    tenant: str
    priority: str
    fingerprint_only: bool
    due: Optional[float] = None  # seconds from window start; None = closed loop

    def body(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "n": self.n,
            "seed": self.seed,
            "sampling_mode": "fast",
            "tenant": self.tenant,
            "priority": self.priority,
        }
        if self.fingerprint_only:
            payload["fingerprint_only"] = True
        return payload


def stream_rng(workload: str, stream: str, seed: int, purpose: str) -> np.random.Generator:
    """An independent generator per (workload, stream, seed, purpose)."""
    digest = hashlib.sha256(f"{workload}|{stream}|{seed}|{purpose}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _tenants(stream: Stream, count: int, rng: np.random.Generator) -> List[Tuple[str, str]]:
    if stream.tenant is not None:
        return [(stream.tenant, stream.priority or "normal")] * count
    picks = rng.choice(len(TENANTS), size=count, p=tenant_weights())
    return [
        (TENANTS[i][0], stream.priority or TENANTS[i][1]) for i in picks.tolist()
    ]


def _sizes(stream: Stream, count: int, rng: np.random.Generator) -> List[int]:
    block = stream.sizes.block_values()
    out: List[int] = []
    while len(out) < count:
        out.extend(block[i] for i in rng.permutation(len(block)).tolist())
    return out[:count]


def _arrivals(stream: Stream, window_s: float, rng: np.random.Generator) -> List[float]:
    """Jittered-periodic arrivals: one uniformly placed in each 1/rate slot."""
    count = int(round(stream.rate * window_s))
    slots = np.arange(count) + rng.uniform(0.0, 1.0, count)
    return (slots / stream.rate).tolist()


#: Requests drawn per stream before truncation.  Drawing a fixed count keeps
#: request ``i`` identical whatever the window, so runs of different lengths
#: (the traced run's halves) share their request prefix.
MAX_REQUESTS = 4_096


def generate(workload: Workload, seed: int, window_s: float) -> Dict[str, List[Request]]:
    """Every stream's requests for one run, from the workload seed alone.

    Open-loop streams get their schedule for ``window_s``; closed-loop
    streams get :data:`MAX_REQUESTS`, of which a run sends as many as its
    window allows.  Request seeds are unique within the run.
    """
    out: Dict[str, List[Request]] = {}
    used: set = set()
    for stream in workload.streams:
        def rng(purpose: str) -> np.random.Generator:
            return stream_rng(workload.name, stream.name, seed, purpose)

        if stream.loop == "open":
            dues: List[Optional[float]] = list(_arrivals(stream, window_s, rng("arrivals")))
        elif stream.loop == "probe":
            # ``due`` holds the delay after the triggering send.
            dues = rng("arrivals").uniform(*stream.offset_s, size=MAX_REQUESTS).tolist()
        else:
            dues = [None] * MAX_REQUESTS
        sizes = _sizes(stream, MAX_REQUESTS, rng("sizes"))
        tenants = _tenants(stream, MAX_REQUESTS, rng("tenants"))
        seeds = rng("seeds").integers(1, 2**62, size=MAX_REQUESTS).tolist()
        requests = []
        for index, due in enumerate(dues):
            req_seed = int(seeds[index])
            while req_seed in used:
                req_seed += 1
            used.add(req_seed)
            tenant, priority = tenants[index]
            requests.append(
                Request(stream.name, index, sizes[index], req_seed, tenant, priority,
                        stream.fingerprint_only, due)
            )
        out[stream.name] = requests
    return out


def swap_offsets(workload: Workload, seed: int, window_s: float) -> List[float]:
    """Seeded hot-swap times: one per 1/swaps_per_s slot, jittered in-slot.

    The first slot starts after the digest prefix has been served, so the
    digest never depends on which model version a swap left in place.
    """
    if workload.swaps_per_s <= 0:
        return []
    rng = stream_rng(workload.name, "swaps", seed, "schedule")
    slot = 1.0 / workload.swaps_per_s
    offsets, t = [], slot
    while t + slot <= window_s:
        offsets.append(t + float(rng.uniform(0.25, 0.75)) * slot)
        t += slot
    return offsets


def verify_picks(workload: Workload, seed: int, requests: Dict[str, List[Request]]) -> Dict[str, List[int]]:
    """Seeded indices (within each stream's digest prefix) to re-verify."""
    picks = {}
    for stream in workload.streams:
        rng = stream_rng(workload.name, stream.name, seed, "verify")
        pool = min(workload.digest_prefix, len(requests[stream.name]))
        count = min(workload.verify_per_stream, pool)
        picks[stream.name] = sorted(rng.choice(pool, size=count, replace=False).tolist())
    return picks


def describe(workload: Workload, window_s: float) -> Dict[str, object]:
    """The workload's recorded shape: rates, size quantiles, tenant mix."""
    streams = []
    weights = tenant_weights()
    for stream in workload.streams:
        entry: Dict[str, object] = {
            "name": stream.name,
            "loop": stream.loop,
            "connections": stream.connections,
            "sizes": stream.sizes.describe(),
            "fingerprint_only": stream.fingerprint_only,
            "limit_ms": stream.limit_s * 1e3,
            "measured": stream.measured,
        }
        if stream.loop == "probe":
            entry["follows"] = stream.follows
            entry["offset_ms"] = [x * 1e3 for x in stream.offset_s]
        if stream.loop == "open":
            entry["rate_rps"] = stream.rate
        if stream.tenant is None:
            entry["tenants"] = {
                name: {"share": round(float(w), 4), "priority": stream.priority or prio}
                for (name, prio), w in zip(TENANTS, weights)
            }
        else:
            entry["tenants"] = {stream.tenant: {"share": 1.0, "priority": stream.priority}}
        streams.append(entry)
    return {"name": workload.name, "why": workload.why, "streams": streams,
            "scrape_hz": workload.scrape_hz, "swaps_per_s": workload.swaps_per_s}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); NaN for an empty sample."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])
