"""The unified serving request contract: one spec for every entry point.

Every way into the serving stack — :meth:`SamplingService.submit`,
:meth:`SamplingService.sample`, :meth:`ShardedSampler.sample`, the HTTP
front door and both CLIs — accepts the same frozen :class:`RequestSpec`.
The spec carries everything a multi-tenant request needs:

``n`` / ``seed`` / ``sampling_mode``
    What to generate: the row count, the request's own seed (the sharding
    contract derives every chunk stream from it, so results are
    worker-count-invariant), and ``"exact"`` (bit-reproducible) or
    ``"fast"`` (distribution-identical serving mode).
``tenant``
    The fairness principal.  The dispatcher's weighted fair queue
    schedules across ``(tenant, priority)`` flows, so one tenant's burst
    cannot starve another's steady trickle.
``priority``
    One of the :data:`PRIORITY_CLASSES` (``interactive`` > ``normal`` >
    ``batch``).  The class weight sets the tenant flow's share of service
    capacity; it never affects the request's *bytes*.
``deadline``
    Optional SLO in seconds.  Admission control rejects a request whose
    estimated queue wait already exceeds its deadline
    (:class:`~repro.serve.admission.AdmissionRejected`, HTTP 429) — once
    admitted, a request is always served, which is what keeps scenario
    replays deterministic.

:func:`table_fingerprint` is the byte contract the serving layer is judged
by: a SHA-256 over a table's schema and exact cell bytes, shared by the
scenario reports, the HTTP ``fingerprint_only`` responses and the CI
front-door smoke.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.models.base import SAMPLING_MODES
from repro.tabular.table import Table
from repro.utils.rng import SeedLike, spawn_seed_sequences

__all__ = [
    "PRIORITY_CLASSES",
    "PriorityClass",
    "RequestSpec",
    "priority_weight",
    "table_fingerprint",
]


@dataclass(frozen=True)
class PriorityClass:
    """One service class: its fair-queueing weight and SLO intent."""

    name: str
    #: Relative share of dispatcher capacity a flow of this class receives
    #: when competing (weighted fair queueing: cost = rows / weight).
    weight: int
    description: str


#: The three service classes, highest priority first.  Weights are the fair
#: shares: an ``interactive`` flow advances 4 rows for every 1 a ``batch``
#: flow advances when both are backlogged.
PRIORITY_CLASSES: Dict[str, PriorityClass] = {
    "interactive": PriorityClass(
        "interactive", 4, "latency-sensitive callers (dashboards, notebooks)"
    ),
    "normal": PriorityClass("normal", 2, "the default service class"),
    "batch": PriorityClass("batch", 1, "throughput-oriented bulk exports"),
}


def priority_weight(priority: str) -> int:
    """The fair-queueing weight of a priority class (KeyError on unknown)."""
    try:
        return PRIORITY_CLASSES[priority].weight
    except KeyError:
        known = ", ".join(PRIORITY_CLASSES)
        raise KeyError(f"unknown priority {priority!r}; use one of: {known}") from None


@dataclass(frozen=True)
class RequestSpec:
    """One sampling request, as every serving entry point understands it."""

    n: int
    seed: SeedLike = None
    sampling_mode: str = "fast"
    tenant: str = "default"
    priority: str = "normal"
    #: Optional SLO (seconds from submission): admission control rejects the
    #: request up front when its estimated wait already blows the deadline.
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"cannot sample a negative number of rows ({self.n})")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"unknown sampling mode {self.sampling_mode!r}; "
                f"use one of {SAMPLING_MODES}"
            )
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError(f"tenant must be a non-empty string, got {self.tenant!r}")
        if self.priority not in PRIORITY_CLASSES:
            known = ", ".join(PRIORITY_CLASSES)
            raise ValueError(
                f"unknown priority {self.priority!r}; use one of: {known}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive or None, got {self.deadline}")
        # Reject un-spawnable seeds at construction, in the caller's frame —
        # the dispatcher derives the chunk streams from this seed later, and
        # a bad one must not surface there.
        spawn_seed_sequences(self.seed, 0)

    @property
    def weight(self) -> int:
        """The request's fair-queueing weight (from its priority class)."""
        return PRIORITY_CLASSES[self.priority].weight

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (non-scalar seeds render as their repr)."""
        seed: object = self.seed
        if seed is not None and not isinstance(seed, int):
            seed = int(seed) if isinstance(seed, np.integer) else repr(seed)
        return {
            "n": self.n,
            "seed": seed,
            "sampling_mode": self.sampling_mode,
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline": self.deadline,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RequestSpec":
        """Build a spec from a JSON-ish mapping (the HTTP/CLI parse path).

        Accepts exactly the dataclass field names (plus ``rows`` as an alias
        for ``n``); unknown keys raise ``ValueError`` so a typo'd knob fails
        loudly instead of silently serving defaults.
        """
        fields = {"n", "seed", "sampling_mode", "tenant", "priority", "deadline"}
        data = dict(payload)
        if "rows" in data and "n" not in data:
            data["n"] = data.pop("rows")
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(
                f"unknown request field(s) {unknown}; known fields: {sorted(fields)} (or 'rows')"
            )
        if "n" not in data:
            raise ValueError("request needs 'n' (or 'rows'): the row count")
        kwargs: Dict[str, object] = {"n": int(data["n"])}  # type: ignore[arg-type]
        if data.get("seed") is not None:
            kwargs["seed"] = int(data["seed"])  # type: ignore[arg-type]
        for key in ("sampling_mode", "tenant", "priority"):
            if data.get(key) is not None:
                kwargs[key] = str(data[key])
        if data.get("deadline") is not None:
            kwargs["deadline"] = float(data["deadline"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


def table_fingerprint(table: Table, state: Optional["hashlib._Hash"] = None) -> str:
    """SHA-256 over a table's schema and exact column bytes.

    Numerical columns hash their float64 buffer (bit-exact), categorical
    columns their NUL-joined UTF-8 string values — so two tables
    fingerprint equal iff they are byte-identical in every cell.  Passing a
    running ``state`` folds the table into an existing digest (the scenario
    engine streams every served request through one hash).

    Categoricals never decode: each vocabulary entry is UTF-8 encoded once
    and the codes gather the words.  The words come from
    :meth:`~repro.tabular.table.CategoricalColumn.vocab_array`, so they are
    exactly the strings ``table[name]`` would decode to (numpy strips
    trailing NULs there).
    """
    own = state is None
    h = hashlib.sha256() if own else state
    schema = table.schema
    h.update(("|".join(schema.names) + f"#{table.n_rows}").encode("utf-8"))
    for name in schema.numerical:
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(np.asarray(table[name], dtype=np.float64)).tobytes())
    for name in schema.categorical:
        column = table.categorical_column(name)
        words = np.asarray(
            [word.encode("utf-8") for word in column.vocab_array().tolist()], dtype=object
        )
        h.update(name.encode("utf-8"))
        h.update(b"\x00".join(words[column.codes].tolist()))
    return h.hexdigest() if own else ""
