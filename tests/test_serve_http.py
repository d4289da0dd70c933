"""The front door's contract: one RequestSpec, many doors, same bytes.

Four layers, bottom up:

* :class:`RequestSpec` — the unified request contract every entry point
  accepts (validation, JSON payload parsing, the ``rows`` alias);
* keyword-only knobs — ``submit(n, seed=...)`` builds the spec, a
  positional seed is a ``TypeError``;
* routing — per-backend in-flight counts: fewest in flight wins, pinned
  requests count, a slot is held until its ticket is collected;
* :class:`FrontDoor` — multi-backend routing plus the HTTP endpoint: a
  served table round-trips through JSON byte-identically (same
  fingerprint), admission rejections surface as ``429`` with a
  ``Retry-After`` header, malformed requests as ``400``.

The codes-based :func:`table_fingerprint` is checked byte for byte against
the string-join implementation it replaced, and the ``orjson`` response
body against edge-case floats and strings.
"""

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.tvae import TVAEConfig, TVAESurrogate
from repro.serve import (
    PRIORITY_CLASSES,
    AdmissionPolicy,
    FrontDoor,
    RequestSpec,
    SamplingService,
    priority_weight,
    table_fingerprint,
)
from repro.serve.http import _sample_body
from repro.tabular.schema import TableSchema
from repro.tabular.table import CategoricalColumn, Table

CHUNK = 50


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
def tvae():
    return TVAESurrogate(TVAEConfig.fast(), seed=5).fit(_table())


@pytest.fixture(scope="module")
def service(tvae):
    with SamplingService(tvae, workers=2, chunk_size=CHUNK) as svc:
        yield svc


def _post(address, path, payload, timeout=30.0):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8")), response.headers


def _raw_request(address, request: bytes, timeout=30.0):
    """Send raw request bytes; return (status, parsed JSON body)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body.decode("utf-8"))


def _get(address, path, timeout=30.0):
    host, port = address
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _reference_fingerprint(table, state=None):
    """The string-join fingerprint the codes path replaced (kept as the oracle)."""
    h = hashlib.sha256() if state is None else state
    schema = table.schema
    h.update(("|".join(schema.names) + f"#{table.n_rows}").encode("utf-8"))
    for name in schema.numerical:
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(np.asarray(table[name], dtype=np.float64)).tobytes())
    for name in schema.categorical:
        h.update(name.encode("utf-8"))
        h.update("\x00".join(np.asarray(table[name]).astype(str).tolist()).encode("utf-8"))
    return h.hexdigest() if state is None else ""


_WORDS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)
#: Vocabulary entries the string path treats specially: quotes, backslashes,
#: the empty string, non-ASCII text and a trailing-NUL pair that numpy's
#: unicode arrays fold together.
_SPECIAL_WORDS = ["a", "a\x00", "", '"', "\\", "é", "日本", "\x00"]


@st.composite
def _categorical_tables(draw):
    vocab = draw(
        st.lists(st.sampled_from(_SPECIAL_WORDS) | _WORDS, min_size=1, max_size=8, unique=True)
    )
    sizes = draw(st.lists(st.integers(0, 30), min_size=1, max_size=3))
    schema = TableSchema.from_columns(numerical=["x"], categorical=["cat"])
    chunks = []
    for size in sizes:
        codes = draw(st.lists(st.integers(0, len(vocab) - 1), min_size=size, max_size=size))
        x = draw(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size)
        )
        chunks.append(Table({"x": x, "cat": CategoricalColumn(codes, vocab)}, schema))
    return Table.concat(chunks)


class TestFingerprint:
    @settings(max_examples=150, deadline=None)
    @given(_categorical_tables())
    def test_codes_path_matches_string_join(self, table):
        assert table_fingerprint(table) == _reference_fingerprint(table)

    def test_empty_tables_and_shared_vocab_chunks(self):
        schema = TableSchema.from_columns(numerical=["x"], categorical=["cat", "site"])
        empty = Table.empty(schema)
        assert table_fingerprint(empty) == _reference_fingerprint(empty)
        vocab = ("a", "a\x00", "", "é")
        chunks = [
            Table(
                {
                    "x": np.arange(n, dtype=np.float64),
                    "cat": CategoricalColumn(np.arange(n) % len(vocab), vocab),
                    "site": CategoricalColumn(np.zeros(n, dtype=np.int32), ("s0",)),
                },
                schema,
            )
            for n in (0, 3, 5)
        ]
        joined = Table.concat(chunks)
        assert joined.vocab("cat") == vocab  # shared vocabulary: codes concatenated as-is
        assert table_fingerprint(joined) == _reference_fingerprint(joined)

    def test_running_state_folds_tables_in_order(self):
        state, reference = hashlib.sha256(), hashlib.sha256()
        for n, seed in ((10, 1), (0, 2), (25, 3)):
            table = _table(n, seed)
            assert table_fingerprint(table, state) == ""
            _reference_fingerprint(table, reference)
        assert state.hexdigest() == reference.hexdigest()


class TestSampleBody:
    def test_edge_values_round_trip_to_the_same_fingerprint(self):
        # Rebuild the table from the parsed body the way a JSON client does
        # (perfbench/run.py): float64 arrays for numericals, string lists
        # for categoricals.
        schema = TableSchema.from_columns(numerical=["x"], categorical=["cat"])
        values = [-0.0, 5e-324, 1e16, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
        table = Table(
            {"x": values, "cat": CategoricalColumn([0, 1, 2, 2, 1, 0], ("é", '"', "\\"))},
            schema,
        )
        body = _sample_body(table, model="prod", tenant="acme", columns=True)
        payload = json.loads(body)
        assert (payload["rows"], payload["model"], payload["tenant"]) == (6, "prod", "acme")
        assert payload["fingerprint"] == table_fingerprint(table)
        assert payload["columns"]["cat"] == ["é", '"', "\\", "\\", '"', "é"]
        rebuilt = Table(
            {
                "x": np.asarray(payload["columns"]["x"], dtype=np.float64),
                "cat": payload["columns"]["cat"],
            },
            schema,
        )
        np.testing.assert_array_equal(rebuilt["x"].view(np.int64), table["x"].view(np.int64))
        assert table_fingerprint(rebuilt) == payload["fingerprint"]

    def test_fingerprint_only_body_and_empty_table(self):
        schema = TableSchema.from_columns(numerical=["x"], categorical=["cat"])
        empty = Table.empty(schema)
        payload = json.loads(_sample_body(empty, model="m", tenant="t", columns=True))
        assert payload["columns"] == {"x": [], "cat": []}
        assert payload["fingerprint"] == table_fingerprint(empty)
        payload = json.loads(_sample_body(empty, model="m", tenant="t", columns=False))
        assert set(payload) == {"fingerprint", "rows", "model", "tenant"}


class TestRequestSpec:
    def test_defaults_and_weight(self):
        spec = RequestSpec(100, seed=7)
        assert (spec.sampling_mode, spec.tenant, spec.priority) == ("fast", "default", "normal")
        assert spec.deadline is None
        assert spec.weight == PRIORITY_CLASSES["normal"].weight == 2
        assert priority_weight("interactive") == 4
        assert priority_weight("batch") == 1
        with pytest.raises(KeyError, match="interactive"):
            priority_weight("urgent")

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            RequestSpec(-1)
        with pytest.raises(ValueError, match="sampling mode"):
            RequestSpec(10, sampling_mode="warp")
        with pytest.raises(ValueError, match="tenant"):
            RequestSpec(10, tenant="")
        with pytest.raises(ValueError, match="priority"):
            RequestSpec(10, priority="urgent")
        with pytest.raises(ValueError, match="deadline"):
            RequestSpec(10, deadline=0.0)

    def test_from_payload_accepts_rows_alias_and_rejects_unknown_keys(self):
        spec = RequestSpec.from_payload(
            {"rows": 64, "seed": 3, "tenant": "acme", "priority": "batch", "deadline": 2.5}
        )
        assert spec == RequestSpec(64, seed=3, tenant="acme", priority="batch", deadline=2.5)
        with pytest.raises(ValueError, match="unknown request field"):
            RequestSpec.from_payload({"n": 10, "rws": 10})
        with pytest.raises(ValueError, match="'n'"):
            RequestSpec.from_payload({"seed": 1})

    def test_to_dict_round_trips_through_from_payload(self):
        spec = RequestSpec(128, seed=11, sampling_mode="exact", tenant="t0", priority="interactive")
        assert RequestSpec.from_payload(spec.to_dict()) == spec


class TestKeywordOnlyKnobs:
    def test_positional_seed_raises_type_error(self, service):
        with pytest.raises(TypeError):
            service.submit(120, 13)
        with pytest.raises(TypeError):
            service.sample(90, 17, "fast")

    def test_keyword_form_serves_the_spec_bytes(self, service):
        reference = service.sample(RequestSpec(120, seed=13, sampling_mode="fast"))
        assert service.sample(120, seed=13, sampling_mode="fast") == reference
        assert service.submit(120, seed=13).result(timeout=60) == reference


class TestFrontDoorRouting:
    """Placement by per-backend in-flight counts: a request holds its slot
    from routing until its ticket is collected (``result`` or ``cancel``)."""

    @pytest.fixture(scope="class")
    def backends(self, tvae):
        with SamplingService(tvae, workers=1, chunk_size=CHUNK) as prod:
            with SamplingService(tvae, workers=1, chunk_size=CHUNK) as canary:
                yield {"prod": prod, "canary": canary}

    @staticmethod
    def _in_flight(door):
        return door.stats()["router"]["in_flight"]

    def test_unpinned_requests_spread_and_collection_rebalances(self, backends):
        door = FrontDoor(backends)
        first = door.submit(RequestSpec(20, seed=1))
        second = door.submit(RequestSpec(20, seed=2))
        # Ties go to the first registered backend.
        assert (first.backend, second.backend) == ("prod", "canary")
        assert self._in_flight(door) == {"prod": 1, "canary": 1}
        second.result(timeout=60)
        second.result(timeout=60)  # collecting twice releases once
        assert self._in_flight(door) == {"prod": 1, "canary": 0}
        # The freed backend has the fewest in flight again.
        third = door.submit(RequestSpec(20, seed=3))
        assert third.backend == "canary"
        first.result(timeout=60)
        third.result(timeout=60)
        assert self._in_flight(door) == {"prod": 0, "canary": 0}

    def test_pinned_requests_count_and_steer_unpinned_traffic(self, backends):
        door = FrontDoor(backends)
        pinned = [door.submit(RequestSpec(20, seed=i), model="canary") for i in range(3)]
        assert {ticket.backend for ticket in pinned} == {"canary"}
        assert self._in_flight(door) == {"prod": 0, "canary": 3}
        unpinned = door.submit(RequestSpec(20, seed=9))
        assert unpinned.backend == "prod"
        for ticket in pinned + [unpinned]:
            ticket.result(timeout=60)
        assert self._in_flight(door) == {"prod": 0, "canary": 0}

    def test_collecting_a_ticket_again_at_idle_releases_nothing(self, backends):
        door = FrontDoor({"prod": backends["prod"]})
        ticket = door.submit(RequestSpec(20, seed=4))
        ticket.result(timeout=60)
        assert self._in_flight(door) == {"prod": 0}
        # Nothing held any more: a second collection or a late cancel stays
        # idle, with no underflow.
        ticket.result(timeout=60)
        ticket.cancel()
        assert self._in_flight(door) == {"prod": 0}

    def test_unknown_model_raises_key_error(self, backends):
        door = FrontDoor(backends)
        with pytest.raises(KeyError, match="unknown model"):
            door.submit(RequestSpec(10), model="staging")
        assert self._in_flight(door) == {"prod": 0, "canary": 0}

    def test_every_uncollected_ticket_is_counted(self, backends):
        door = FrontDoor({"prod": backends["prod"]})
        tickets = [door.submit(RequestSpec(8, seed=i)) for i in range(65)]
        assert self._in_flight(door) == {"prod": 65}
        for ticket in tickets:
            ticket.result(timeout=60)
        assert self._in_flight(door) == {"prod": 0}

    def test_unpinned_overflow_is_counted_on_both_backends(self, backends):
        door = FrontDoor(backends)
        tickets = [door.submit(RequestSpec(8, seed=i)) for i in range(130)]
        assert self._in_flight(door) == {"prod": 65, "canary": 65}
        for ticket in tickets:
            ticket.result(timeout=60)
        assert self._in_flight(door) == {"prod": 0, "canary": 0}

    def test_concurrent_routing_loses_no_count(self, backends):
        door = FrontDoor(backends)
        errors = []

        def client(offset):
            try:
                for i in range(15):
                    door.submit(RequestSpec(4, seed=offset + i)).result(timeout=60)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(100 * k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert self._in_flight(door) == {"prod": 0, "canary": 0}

    def test_importing_serve_leaves_the_scheduler_unloaded(self):
        probe = "import sys, repro.serve; print('repro.scheduler' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        output = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert output.strip() == "False"


class TestFrontDoor:
    def test_routing_never_changes_bytes(self, tvae, service):
        with SamplingService(tvae, workers=1, chunk_size=CHUNK) as canary:
            door = FrontDoor({"prod": service, "canary": canary})
            assert door.models == ["prod", "canary"]
            spec = RequestSpec(110, seed=23)
            direct = service.sample(spec)
            assert door.sample(spec, model="prod") == direct
            assert door.sample(spec, model="canary") == direct
            assert door.sample(spec) == direct  # broker-routed, same bytes
            door.close()

    def test_stats_tree_and_unknown_model(self, service):
        door = FrontDoor(service)
        door.sample(RequestSpec(60, seed=3, tenant="acme"))
        tree = door.stats()
        assert set(tree) == {"models", "router"}
        model_tree = tree["models"]["default"]
        for key in ("throughput", "queue", "latency", "workers", "faults", "admission", "tenants"):
            assert key in model_tree, f"stats tree missing {key!r}"
        assert "acme" in model_tree["tenants"]
        assert tree["router"]["in_flight"] == {"default": 0}
        with pytest.raises(KeyError, match="unknown model"):
            door.submit(RequestSpec(10), model="nope")
        door.close()


class TestHttpEndpoint:
    @pytest.fixture(scope="class")
    def door(self, service):
        door = FrontDoor({"prod": service})
        door.start_http()
        yield door
        door.stop_http()

    def test_sample_round_trips_byte_identically(self, door, service):
        spec = RequestSpec(80, seed=41, tenant="acme", priority="interactive")
        status, payload, _ = _post(door.address, "/sample", dict(spec.to_dict(), model="prod"))
        assert status == 200
        local = service.sample(spec)
        assert payload["rows"] == local.n_rows
        assert payload["model"] == "prod"
        assert payload["tenant"] == "acme"
        assert payload["fingerprint"] == table_fingerprint(local)
        # Rebuilding the table from the JSON columns reproduces the bytes.
        rebuilt = Table(
            {name: np.asarray(values) for name, values in payload["columns"].items()},
            local.schema,
        )
        assert table_fingerprint(rebuilt) == payload["fingerprint"]

    def test_fingerprint_only_omits_columns(self, door, service):
        spec = RequestSpec(70, seed=5)
        status, payload, _ = _post(
            door.address, "/sample", dict(spec.to_dict(), fingerprint_only=True)
        )
        assert status == 200
        assert "columns" not in payload
        assert payload["fingerprint"] == table_fingerprint(service.sample(spec))

    def test_rows_alias_matches_n(self, door):
        status_n, by_n, _ = _post(
            door.address, "/sample", {"n": 40, "seed": 9, "fingerprint_only": True}
        )
        status_rows, by_rows, _ = _post(
            door.address, "/sample", {"rows": 40, "seed": 9, "fingerprint_only": True}
        )
        assert status_n == status_rows == 200
        assert by_n["fingerprint"] == by_rows["fingerprint"]

    def test_get_routes(self, door):
        status, health = _get(door.address, "/healthz")
        assert (status, health["status"]) == (200, "ok")
        status, models = _get(door.address, "/models")
        assert status == 200
        assert models["models"]["prod"]["workers"] == 2
        status, stats = _get(door.address, "/stats")
        assert status == 200
        assert "prod" in stats["models"]
        assert "in_flight" in stats["router"]

    def test_error_statuses(self, door):
        with pytest.raises(urllib.error.HTTPError) as bad_spec:
            _post(door.address, "/sample", {"n": 10, "bogus_knob": 1})
        assert bad_spec.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as bad_model:
            _post(door.address, "/sample", {"n": 10, "model": "nope"})
        assert bad_model.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as not_found:
            _get(door.address, "/no-such-route")
        assert not_found.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as wrong_method:
            _get(door.address, "/sample")
        assert wrong_method.value.code == 405

    @pytest.mark.parametrize("length", ["ten", "-5", "1.5"])
    def test_bad_content_length_is_a_400(self, door, length):
        request = (
            "POST /sample HTTP/1.1\r\n"
            "Host: localhost\r\n"
            f"Content-Length: {length}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        status, payload = _raw_request(door.address, request)
        assert status == 400
        assert "Content-Length" in payload["error"]
        # The endpoint keeps serving after the bad request.
        status, health = _get(door.address, "/healthz")
        assert status == 200 and health["status"] == "ok"

    def test_admission_rejection_maps_to_429_with_retry_after(self, tvae):
        # max_queue_depth=0 rejects every request up front: the clean way to
        # exercise the 429 path without racing a real backlog.
        with SamplingService(
            tvae,
            workers=1,
            chunk_size=CHUNK,
            admission=AdmissionPolicy(max_queue_depth=0),
        ) as svc:
            door = FrontDoor({"prod": svc})
            door.start_http()
            try:
                with pytest.raises(urllib.error.HTTPError) as rejected:
                    _post(door.address, "/sample", {"n": 10, "seed": 1})
                assert rejected.value.code == 429
                assert int(rejected.value.headers["Retry-After"]) >= 1
                body = json.loads(rejected.value.read().decode("utf-8"))
                assert body["reason"] == "queue_depth"
                # The slot the rejected request briefly held was released.
                assert door.stats()["router"]["in_flight"] == {"prod": 0}
            finally:
                door.stop_http()

    def test_stop_http_is_idempotent_and_restartable(self, service):
        door = FrontDoor({"prod": service})
        first = door.start_http()
        door.stop_http()
        door.stop_http()
        second = door.start_http()
        assert first != second or first[1] != 0  # fresh ephemeral bind
        status, health = _get(door.address, "/healthz")
        assert status == 200 and health["models"] == ["prod"]
        door.stop_http()
