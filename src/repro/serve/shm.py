"""Shared-memory chunk transport for the sharded serving engine.

The wire format
---------------
A chunk crossing the worker pool is **codes only**: one named
:mod:`multiprocessing.shared_memory` segment holding the chunk's column
buffers back to back in schema order — ``float64`` (8 bytes/row) for each
numerical column, ``int32`` dictionary codes (4 bytes/row) for each
categorical column.  No strings and no pickled table ever cross the pipe;
what *is* pickled per chunk is a tiny :class:`ChunkEnvelope` (segment name
+ row count).  The categorical vocabularies travel **once** with the model
snapshot: both sides derive the identical :class:`ChunkLayout` (schema +
per-column vocab) from their own copy of the fitted model, so the parent
can rebuild :class:`~repro.tabular.table.CategoricalColumn` views without
any per-chunk metadata.

Reassembly is zero-copy: the parent maps the segment and builds
``np.frombuffer`` views straight over it; the mapping is pinned to the
reassembled :class:`~repro.tabular.table.Table` (a ``weakref.finalize``
closes it when the table is collected) and the segment *name* is unlinked
immediately on reassembly, so the memory disappears with its last mapping.

Segment lifecycle
-----------------
Lifecycle is owned here, not by the interpreter's ``resource_tracker``
(Python ≥3.8 registers on create *and* attach): the worker unregisters
the segment it created (it never unlinks — the parent does), while the
attaching side lets ``unlink()`` balance its own registration — an extra
explicit unregister would reach the tracker daemon twice and make it
print ``KeyError`` tracebacks:

* the worker creates the segment, drops a token file in the transport's
  spool directory, copies the buffers, and closes its mapping;
* the parent attaches, unlinks, removes the token — the normal path;
* envelopes that are never decoded (timed-out attempts, hedge losers,
  cancelled chunks) are discarded via :meth:`ChunkDecoder.discard` once
  their future resolves (the sampler keeps a reap list);
* anything left behind by a worker crash is caught by
  :meth:`ChunkDecoder.sweep` — every token names a segment, so the spool
  directory is a complete registry of not-yet-consumed segments — run on
  sampler close/restart/swap.

``tests/test_serve_shm.py`` drives kills, timeouts and hedge losers
through this and asserts the spool and ``/dev/shm`` end empty.

Platforms without a working ``multiprocessing.shared_memory`` fall back to
the plain-pickle transport transparently (see :func:`resolve_transport`;
``REPRO_SHM=shm|pickle`` forces either).
"""

from __future__ import annotations

import os
import secrets
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.base import Surrogate
from repro.obs.metrics import MetricsRegistry
from repro.tabular.schema import TableSchema
from repro.tabular.table import CODES_DTYPE, CategoricalColumn, Table
from repro.utils.logging import get_logger

try:  # pragma: no cover - import always succeeds on supported platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

try:  # pragma: no cover - POSIX only; the sweep's unsized-segment path
    from _posixshmem import shm_unlink as _shm_unlink
except ImportError:  # pragma: no cover - non-POSIX platforms
    _shm_unlink = None

__all__ = [
    "ChunkDecoder",
    "ChunkEncoder",
    "ChunkEnvelope",
    "ChunkLayout",
    "ShmSession",
    "ShmTransportConfig",
    "TRANSPORT_ENV",
    "resolve_transport",
    "shm_available",
]

_LOG = get_logger(__name__)

#: Environment toggle: ``shm``/``1`` forces the shared-memory transport,
#: ``pickle``/``0`` disables it, unset/``auto`` uses shm where available.
TRANSPORT_ENV = "REPRO_SHM"

#: Prefix of every segment name this transport creates.
SEGMENT_PREFIX = "repro_shm_"

_NUMERICAL_ITEMSIZE = 8  # float64
_CATEGORICAL_ITEMSIZE = 4  # int32 codes

_availability: Optional[bool] = None


def shm_available() -> bool:
    """True when named shared-memory segments actually work here (cached)."""
    global _availability
    if _availability is None:
        if shared_memory is None:
            _availability = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()  # unlink() also unregisters the create-side registration
                _availability = True
            except (OSError, ValueError):
                _availability = False
    return _availability


def resolve_transport(requested: Optional[str] = None) -> str:
    """Resolve a transport request to ``"shm"`` or ``"pickle"``.

    ``requested`` wins over the ``REPRO_SHM`` environment variable; both
    accept ``shm``/``1``/``on``, ``pickle``/``0``/``off`` and ``auto``.
    Forcing shm on a platform without it is an error; ``auto`` falls back.
    """
    value = requested if requested is not None else os.environ.get(TRANSPORT_ENV, "auto")
    value = str(value).strip().lower()
    if value in ("shm", "1", "on", "true"):
        if not shm_available():
            raise RuntimeError(
                "shared-memory transport forced on, but multiprocessing.shared_memory "
                "is unavailable on this platform"
            )
        return "shm"
    if value in ("pickle", "0", "off", "false"):
        return "pickle"
    if value in ("auto", ""):
        return "shm" if shm_available() else "pickle"
    raise ValueError(
        f"unknown transport {value!r}; use 'shm', 'pickle' or 'auto'"
    )


def _untrack(name: str) -> None:
    """Remove a segment from the resource tracker — this module owns cleanup.

    Python registers segments with the tracker on create *and* attach; left
    registered, the tracker would double-unlink (and warn about) segments
    whose lifecycle the transport already manages.  Only call this where
    ``unlink()`` will NOT run in the same process: ``unlink()`` already
    unregisters, and a second UNREGISTER message makes the (fork-shared)
    tracker daemon print a ``KeyError`` traceback to stderr.
    """
    if resource_tracker is None:  # pragma: no cover - exotic platforms only
        return
    try:
        resource_tracker.unregister("/" + name if not name.startswith("/") else name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API drift tolerance
        pass


@dataclass(frozen=True)
class ShmTransportConfig:
    """Picklable worker-side transport configuration (ships via initargs)."""

    spool_dir: str


@dataclass
class ChunkEnvelope:
    """What actually crosses the pool pipe for one chunk.

    Either a segment reference (the shm path) or an inline table (the
    defensive fallback when a chunk's layout unexpectedly diverges from the
    snapshot-derived one).  ``consumed`` is parent-side bookkeeping only.
    """

    segment: Optional[str]
    n_rows: int = 0
    nbytes: int = 0
    inline: Optional[Table] = None
    consumed: bool = field(default=False, compare=False)


class ChunkLayout:
    """The per-column wire layout both sides derive from the model snapshot.

    Column order and kinds come from the schema; each categorical column
    carries the full vocabulary its codes index.  Derived from a zero-row
    exact-mode sample, whose decode paths emit full-vocabulary
    :class:`CategoricalColumn` objects — so the layout costs no real
    sampling and is identical on every holder of the same snapshot.
    """

    def __init__(self, schema: TableSchema, vocabs: Dict[str, Tuple[str, ...]]):
        self.schema = schema
        self.vocabs = vocabs
        self.categorical = set(schema.categorical)

    @classmethod
    def from_model(cls, model: Surrogate) -> "ChunkLayout":
        reference = model.sample(0, seed=0, sampling_mode="exact")
        vocabs = {
            name: reference.vocab(name) for name in reference.schema.categorical
        }
        return cls(reference.schema, vocabs)

    def matches(self, table: Table) -> bool:
        if table.schema != self.schema:
            return False
        return all(
            table.vocab(name) == self.vocabs[name] for name in self.schema.categorical
        )

    def chunk_nbytes(self, n_rows: int) -> int:
        per_row = 0
        for col in self.schema:
            if col.name in self.categorical:
                per_row += _CATEGORICAL_ITEMSIZE
            else:
                per_row += _NUMERICAL_ITEMSIZE
        return per_row * n_rows


class ChunkEncoder:
    """Worker-side: serialise chunk tables into shared-memory segments."""

    def __init__(self, config: ShmTransportConfig, model: Surrogate) -> None:
        self.spool_dir = config.spool_dir
        self.layout = ChunkLayout.from_model(model)

    def encode(self, table: Table) -> ChunkEnvelope:
        """Write one chunk into a fresh segment; returns its envelope.

        A chunk that does not match the snapshot-derived layout (cannot
        happen under the seed contract, but cheap to guard) ships inline as
        a pickled table instead of corrupting the wire format.
        """
        if not self.layout.matches(table):
            _LOG.warning(
                "chunk layout diverged from the snapshot-derived wire layout "
                "(%d rows); shipping inline as a pickled table", len(table),
            )
            return ChunkEnvelope(segment=None, n_rows=len(table), inline=table)
        n = len(table)
        total = self.layout.chunk_nbytes(n)
        name = f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(8)}"
        # Token first: a crash at any later point leaves token + (maybe)
        # segment, sized or not, and the sweep handles both halves.
        self._write_token(name)
        segment = shared_memory.SharedMemory(name=name, create=True, size=max(total, 1))
        _untrack(segment.name)
        try:
            self._copy_columns(segment, table, n)
        finally:
            segment.close()
        return ChunkEnvelope(segment=name, n_rows=n, nbytes=total)

    def _copy_columns(self, segment, table: Table, n: int) -> None:
        # Views over segment.buf live only inside this frame: they must all
        # be gone before close(), or the mmap refuses to unmap.
        offset = 0
        for col in self.layout.schema:
            if col.name in self.layout.categorical:
                src = np.ascontiguousarray(table.codes(col.name), dtype=CODES_DTYPE)
                view = np.frombuffer(segment.buf, dtype=CODES_DTYPE, count=n, offset=offset)
                offset += n * _CATEGORICAL_ITEMSIZE
            else:
                src = np.ascontiguousarray(table[col.name], dtype=np.float64)
                view = np.frombuffer(segment.buf, dtype=np.float64, count=n, offset=offset)
                offset += n * _NUMERICAL_ITEMSIZE
            view[:] = src
            del view

    def _write_token(self, name: str) -> None:
        with open(os.path.join(self.spool_dir, name), "x"):
            pass


class ChunkDecoder:
    """Parent-side: reassemble tables from segments and own their lifecycle.

    With a :class:`~repro.obs.metrics.MetricsRegistry` attached, the
    decoder accounts the transport on ``repro_serve_shm_*`` series:
    chunks/bytes decoded, envelopes discarded, sweep passes and swept
    segments.
    """

    def __init__(
        self, layout: ChunkLayout, spool_dir: str, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.layout = layout
        self.spool_dir = spool_dir
        registry = metrics if metrics is not None else MetricsRegistry()
        self._m_chunks = registry.counter(
            "repro_serve_shm_chunks_total", "Chunk envelopes decoded from shared memory."
        )
        self._m_bytes = registry.counter(
            "repro_serve_shm_bytes_total", "Segment bytes decoded from shared memory."
        )
        self._m_discarded = registry.counter(
            "repro_serve_shm_discarded_total",
            "Never-decoded envelopes released (timeouts, hedge losers, cancels).",
        )
        self._m_sweeps = registry.counter(
            "repro_serve_shm_sweeps_total", "Spool-directory sweep passes."
        )
        self._m_swept = registry.counter(
            "repro_serve_shm_swept_segments_total",
            "Leaked segments collected by spool sweeps (crash leftovers).",
        )

    def decode(self, envelope: ChunkEnvelope) -> Table:
        """Zero-copy reassembly: column views straight over the mapping.

        The segment name is unlinked immediately — the mapping stays valid
        until the returned table is garbage collected (a finalizer closes
        it), after which the memory is gone.
        """
        if envelope.segment is None:
            assert envelope.inline is not None
            return envelope.inline
        self._m_chunks.inc()
        self._m_bytes.inc(envelope.nbytes)
        segment = shared_memory.SharedMemory(name=envelope.segment)
        try:
            segment.unlink()  # also balances the attach-side tracker registration
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            _untrack(envelope.segment)
        self._remove_token(envelope.segment)
        envelope.consumed = True
        n = envelope.n_rows
        data: Dict[str, object] = {}
        offset = 0
        for col in self.layout.schema:
            if col.name in self.layout.categorical:
                codes = np.frombuffer(segment.buf, dtype=CODES_DTYPE, count=n, offset=offset)
                data[col.name] = CategoricalColumn(codes, self.layout.vocabs[col.name])
                offset += n * _CATEGORICAL_ITEMSIZE
            else:
                data[col.name] = np.frombuffer(
                    segment.buf, dtype=np.float64, count=n, offset=offset
                )
                offset += n * _NUMERICAL_ITEMSIZE
        table = Table(data, self.layout.schema)
        _pin_mapping(table, segment)
        return table

    def discard(self, envelope: ChunkEnvelope) -> None:
        """Release a never-decoded envelope's segment (hedge loser, timeout)."""
        if envelope is None or envelope.segment is None or envelope.consumed:
            return
        envelope.consumed = True
        self._m_discarded.inc()
        _LOG.debug(
            "discarding never-decoded envelope (segment %s, %d rows)",
            envelope.segment, envelope.n_rows,
        )
        self._unlink_segment(envelope.segment)
        self._remove_token(envelope.segment)

    def sweep(self) -> int:
        """Unlink every segment still spooled (crash leftovers); returns count."""
        removed = 0
        self._m_sweeps.inc()
        try:
            tokens = os.listdir(self.spool_dir)
        except FileNotFoundError:
            return 0
        for name in tokens:
            if self._unlink_segment(name):
                removed += 1
            self._remove_token(name)
        if removed:
            self._m_swept.inc(removed)
            _LOG.warning(
                "spool sweep of %s collected %d leaked segment(s) (worker crash leftovers)",
                self.spool_dir, removed,
            )
        return removed

    def close(self) -> int:
        """Final sweep, then remove the spool directory."""
        removed = self.sweep()
        try:
            os.rmdir(self.spool_dir)
        except OSError:  # pragma: no cover - non-empty/already gone
            pass
        return removed

    @staticmethod
    def _unlink_segment(name: str) -> bool:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return False
        except ValueError:
            # A worker killed between creating the segment and sizing it
            # leaves an empty one, which cannot be mapped: unlink it by name.
            if _shm_unlink is None:  # pragma: no cover - non-POSIX platforms
                raise
            try:
                _shm_unlink("/" + name)
            except FileNotFoundError:  # pragma: no cover - lost the race
                return False
            return True
        segment.close()
        try:
            segment.unlink()  # also balances the attach-side tracker registration
        except FileNotFoundError:  # pragma: no cover - lost the race
            _untrack(name)
            return False
        return True

    def _remove_token(self, name: str) -> None:
        try:
            os.unlink(os.path.join(self.spool_dir, name))
        except FileNotFoundError:
            pass


def _safe_close(segment) -> None:
    """Close a mapping that column views may still borrow.

    At table finalization the table's column views are still alive (the
    finalizer runs before the attribute dict is torn down), so ``close()``
    can refuse with ``BufferError``.  In that case release the descriptor
    ourselves and let the last view's collection unmap the memory — the
    segment name was already unlinked at decode, so nothing leaks either
    way.
    """
    try:
        segment.close()
    except BufferError:
        fd = getattr(segment, "_fd", -1)
        if isinstance(fd, int) and fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed elsewhere
                pass
            segment._fd = -1


def _pin_mapping(table: Table, segment) -> None:
    """Keep the segment mapped for the table's lifetime, then close it."""
    import weakref

    table._shm_segment = segment  # the views borrow this mapping's buffer
    weakref.finalize(table, _safe_close, segment)


class ShmSession:
    """Parent-side transport state for one pool generation.

    Owns the spool directory, the worker-facing config, and the decoder.
    One session per :meth:`ShardedSampler.start`; ``close()`` sweeps and
    removes the spool.
    """

    def __init__(self, model: Surrogate, metrics: Optional[MetricsRegistry] = None) -> None:
        self.spool_dir = tempfile.mkdtemp(prefix="repro-shm-")
        self.config = ShmTransportConfig(spool_dir=self.spool_dir)
        self.decoder = ChunkDecoder(
            ChunkLayout.from_model(model), self.spool_dir, metrics=metrics
        )

    def close(self) -> int:
        return self.decoder.close()
