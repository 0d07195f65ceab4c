"""Black-box conformance & fault-injection suite for serving transports.

Every network transport in front of :class:`repro.serving.SolveService`
must pass this suite unchanged.  The tests talk to the server exclusively
through its public wire surface (URL + the JSON schemas of
:mod:`repro.serving.wire`); nothing reaches into server internals except
to *inject faults* (shutdown/drain calls, which an operator would perform
out of band anyway).

To conform a second transport (gRPC, multi-process, ...), implement a
harness with the same two methods as :class:`HttpTransportHarness` and add
it to ``TRANSPORTS`` — every test here is parameterised over that
registry and will run against the new transport as-is.

Covered:

* wire schema round-trip fuzzing (requests and responses, Hypothesis);
* **bit-identical** label and charged-PRAM-total parity between solves
  over the wire and direct ``SolveService.solve()`` calls on a twin
  service (the acceptance invariant: the transport adds zero semantic
  drift);
* structured error mapping: malformed payloads → 400 with nothing
  admitted, backpressure → 429 + Retry-After, draining → 503 +
  Retry-After, shed-on-deadline → 504 carrying the full shed response;
* ``wait=false`` submission + ``/v1/jobs`` polling, health and metrics
  endpoints (JSON and Prometheus);
* fault injection: mid-request drain/shutdown answers all in-flight
  requests, and a 3-replica set survives a forced mid-load ejection with
  zero lost and zero double-billed jobs;
* resource hygiene: each test fails on unclosed sockets/transports/event
  loops (the CI ``transport-smoke`` job additionally runs the whole suite
  with ``-W error::ResourceWarning``).
"""

import gc
import json
import threading
from http.client import HTTPException
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import QueueFullError, ServiceShutdownError, WireFormatError
from repro.graphs.generators import random_function
from repro.partition import coarsest_partition, same_partition
from repro.serving import (
    FramedIngress,
    FramedServiceClient,
    HttpIngress,
    HttpServiceClient,
    JobStatus,
    ReplicaSet,
    ReplicaSupervisor,
    SolveResponse,
    SolveService,
)
from repro.serving import wire
from repro.serving.bench import generate_requests
from repro.serving.remote import RemoteServiceBackend
from repro.types import CostSummary


# ----------------------------------------------------------------------
# transport harness registry (the reuse seam for future transports)
# ----------------------------------------------------------------------
class HttpTransportHarness:
    """Serves a backend over loopback HTTP; yields a base URL + client."""

    name = "http"

    @contextmanager
    def serve(self, backend, **transport_kwargs):
        ingress = HttpIngress(backend, **transport_kwargs).start_in_thread()
        try:
            yield ingress.url
        finally:
            ingress.close()

    def client(self, url):
        return HttpServiceClient(url)


class FramedTransportHarness:
    """Serves a backend over the length-prefixed framed binary protocol.

    The ingress sniffs the first bytes of each connection, so the same
    port answers raw-HTTP probes (``_raw_post``) and the CLI load
    generator too — the framed protocol is additive, not exclusive.
    """

    name = "framed"

    @contextmanager
    def serve(self, backend, **transport_kwargs):
        ingress = FramedIngress(backend, **transport_kwargs).start_in_thread()
        try:
            yield ingress.url
        finally:
            ingress.close()

    def client(self, url):
        return FramedServiceClient(url)


class RemoteTransportHarness:
    """Serves a backend across a *remote hop*: the backend runs behind an
    inner framed ingress (the "remote host"), a
    :class:`RemoteServiceBackend` dials it over loopback TCP exactly as a
    cross-host deployment would (submit-and-push handle + live admin
    reads), and a front framed ingress serves that adapter to the client.

    Every byte of every test request therefore crosses two real sockets
    and the reconnect/heartbeat machinery of
    :class:`~repro.serving.handles.RemoteReplicaHandle` — the suite
    passing unchanged is the acceptance proof that a remote hop adds zero
    semantic drift.
    """

    name = "remote"

    @contextmanager
    def serve(self, backend, **transport_kwargs):
        inner = FramedIngress(backend).start_in_thread()
        adapter = None
        front = None
        try:
            adapter = RemoteServiceBackend(
                inner.url,
                heartbeat_interval=0.05,
                # Generous watchdogs: a starved CI box must never convert a
                # slow-but-healthy host into a spurious connection-death.
                stale_after=5.0,
                dead_after=60.0,
            )
            front = FramedIngress(adapter, **transport_kwargs).start_in_thread()
            yield front.url
        finally:
            if front is not None:
                front.close()
            if adapter is not None:
                adapter.close()
            inner.close()

    def client(self, url):
        return FramedServiceClient(url)


TRANSPORTS = {
    "http": HttpTransportHarness(),
    "framed": FramedTransportHarness(),
    "remote": RemoteTransportHarness(),
}


@pytest.fixture(params=sorted(TRANSPORTS))
def transport(request):
    return TRANSPORTS[request.param]


@pytest.fixture(autouse=True)
def no_unclosed_resources():
    """Fail the test that leaked a socket/transport instead of warning."""
    yield
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        gc.collect()
    leaks = [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning)
        and any(s in str(w.message) for s in ("socket", "transport", "event loop"))
    ]
    assert not leaks, f"unclosed resources after test: {leaks}"


@contextmanager
def served_service(transport, *, transport_kwargs=None, **service_kwargs):
    service_kwargs.setdefault("workers", 2)
    service_kwargs.setdefault("max_batch_delay", 0.001)
    backend = SolveService(**service_kwargs)
    try:
        with transport.serve(backend, **(transport_kwargs or {})) as url:
            yield url, backend
    finally:
        backend.shutdown()


def _doc(f, b, **extra):
    document = {"function": [int(x) for x in f], "labels": [int(x) for x in b]}
    document.update(extra)
    return document


# ----------------------------------------------------------------------
# wire schema round-trip fuzzing
# ----------------------------------------------------------------------
_request_docs = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "function": st.lists(
                st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n
            ),
            "labels": st.lists(
                st.integers(min_value=0, max_value=3), min_size=n, max_size=n
            ),
        },
        optional={
            "algorithm": st.sampled_from(["jaja-ryu", "hopcroft", "naive"]),
            "audit": st.booleans(),
            "priority": st.integers(min_value=-5, max_value=5),
            "timeout": st.one_of(
                st.none(), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
            ),
            "params": st.dictionaries(
                st.sampled_from(["alpha", "beta", "gamma"]),
                st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=4)),
                max_size=2,
            ),
        },
    )
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=_request_docs)
def test_wire_request_roundtrip_fuzz(document):
    request = wire.decode_request(document)
    encoded = wire.encode_request(request)
    # encode must be decodable again and idempotent on every semantic field
    again = wire.decode_request(json.loads(json.dumps(encoded)))
    assert np.array_equal(request.instance.function, again.instance.function)
    assert np.array_equal(request.instance.initial_labels, again.instance.initial_labels)
    assert encoded["function"] == document["function"]
    assert encoded["labels"] == document["labels"]
    assert encoded["algorithm"] == document.get("algorithm", "jaja-ryu")
    assert encoded["audit"] == document.get("audit", True)
    assert encoded["priority"] == document.get("priority", 0)
    assert encoded["params"] == document.get("params", {})
    if document.get("timeout") is None:
        assert encoded["timeout"] is None
    else:
        # re-encoded as *remaining* seconds: positive drift only, bounded
        assert encoded["timeout"] == pytest.approx(document["timeout"], abs=0.5)
    assert again.algorithm == request.algorithm
    assert again.audit == request.audit
    assert again.priority == request.priority
    assert again.params == request.params


_responses = st.builds(
    SolveResponse,
    request_id=st.integers(min_value=1, max_value=2**31),
    status=st.sampled_from(list(JobStatus)),
    algorithm=st.sampled_from(["jaja-ryu", "hopcroft"]),
    labels=st.one_of(
        st.none(),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        ),
    ),
    num_blocks=st.integers(min_value=0, max_value=64),
    cost=st.builds(
        CostSummary,
        time=st.integers(min_value=0, max_value=10**12),
        work=st.integers(min_value=0, max_value=10**15),
        charged_work=st.integers(min_value=0, max_value=10**15),
    ),
    batch_size=st.integers(min_value=0, max_value=64),
    worker_id=st.integers(min_value=-1, max_value=64),
    queued_seconds=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    latency_seconds=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    error=st.one_of(st.none(), st.text(max_size=30)),
)


@settings(max_examples=60, deadline=None)
@given(response=_responses)
def test_wire_response_roundtrip_fuzz(response):
    document = json.loads(json.dumps(wire.encode_response(response)))
    decoded = wire.decode_response(document)
    assert decoded.request_id == response.request_id
    assert decoded.status is response.status
    assert decoded.algorithm == response.algorithm
    if response.labels is None:
        assert decoded.labels is None
    else:
        assert np.array_equal(decoded.labels, response.labels)
    assert decoded.num_blocks == response.num_blocks
    # billing round-trips bit-exactly: these are integers end to end
    assert (decoded.cost.time, decoded.cost.work, decoded.cost.charged_work) == (
        response.cost.time, response.cost.work, response.cost.charged_work,
    )
    assert decoded.batch_size == response.batch_size
    assert decoded.worker_id == response.worker_id
    assert decoded.queued_seconds == pytest.approx(response.queued_seconds)
    assert decoded.latency_seconds == pytest.approx(response.latency_seconds)
    assert decoded.error == response.error


@pytest.mark.parametrize(
    "document, fragment",
    [
        ([1, 2, 3], "must be a JSON object"),
        ({"labels": [0]}, "must carry 'function' and 'labels'"),
        ({"function": "abc", "labels": [0]}, "array of integers"),
        ({"function": [0.5], "labels": [0]}, "only integers"),
        ({"function": [0], "labels": [0], "audit": "yes"}, "must be a boolean"),
        ({"function": [0], "labels": [0], "timeout": -1}, "finite and >= 0"),
        ({"function": [0], "labels": [0], "bogus": 1}, "unknown field"),
        ({"function": [0], "labels": [0], "version": 99}, "wire version"),
        ({"function": [0], "labels": [0], "schema": "grpc"}, "schema"),
        ({"function": [0], "labels": [0], "params": {"audit": False}}, "shadow"),
        ({"function": [2**63], "labels": [0]}, "int64 range"),
        ({"requests": []}, "empty 'requests'"),
        ({"requests": {"function": [0]}}, "must be an array"),
    ],
)
def test_wire_rejects_malformed_documents(document, fragment):
    with pytest.raises(WireFormatError, match=fragment):
        wire.decode_solve_payload(document)


def test_wire_rejects_unknown_status():
    good = wire.encode_response(
        SolveResponse(request_id=1, status=JobStatus.DONE, algorithm="jaja-ryu")
    )
    good["status"] = "exploded"
    with pytest.raises(WireFormatError, match="unknown job status"):
        wire.decode_response(good)


# ----------------------------------------------------------------------
# parity: the transport must add zero semantic drift
# ----------------------------------------------------------------------
def test_labels_and_charged_totals_bit_identical_to_direct_solve(transport):
    """Acceptance invariant: same requests, same bits, same bill.

    The served backend and a twin direct service share an identical
    configuration (same seeds, singleton batches so per-request billing is
    an exact measurement); responses over the wire must match the direct
    ``SolveService.solve()`` responses bit for bit — labels, block counts,
    and all three cost counters.
    """
    stream = generate_requests(12, 96, seed=5)
    twin_config = dict(workers=2, max_batch_size=1, max_batch_delay=0.0, seed=0)
    direct = SolveService(**twin_config)
    try:
        with served_service(transport, **twin_config) as (url, _backend):
            with transport.client(url) as client:
                for f, b, audit in stream:
                    over_wire = client.solve(f, b, audit=audit)
                    reference = direct.solve(f, b, audit=audit)
                    assert over_wire.status is JobStatus.DONE
                    assert over_wire.labels is not None
                    assert np.array_equal(over_wire.labels, reference.labels)
                    assert over_wire.num_blocks == reference.num_blocks
                    assert (
                        over_wire.cost.time,
                        over_wire.cost.work,
                        over_wire.cost.charged_work,
                    ) == (
                        reference.cost.time,
                        reference.cost.work,
                        reference.cost.charged_work,
                    )
                # ... and so must the aggregate PRAM ledgers of both services
                served_totals = client.metrics()["metrics"]["pram"]
        direct_totals = direct.metrics().pram
        assert served_totals == {
            "time": direct_totals.time,
            "work": direct_totals.work,
            "charged_work": direct_totals.charged_work,
        }
    finally:
        direct.shutdown()


def test_batch_solve_preserves_order_and_bills_each_exactly_once(transport):
    stream = generate_requests(8, 64, seed=9)  # mixed audited/unaudited
    with served_service(transport) as (url, _backend):
        with transport.client(url) as client:
            documents = [_doc(f, b, audit=audit) for f, b, audit in stream]
            batch = client.solve_batch(documents)
    assert batch["completed"] == len(stream) and batch["errors"] == 0
    assert len(batch["responses"]) == len(stream)
    seen_ids = set()
    for (f, b, audit), item in zip(stream, batch["responses"]):
        response = wire.decode_response(item)
        assert response.status is JobStatus.DONE
        assert response.request_id not in seen_ids  # exactly one bill each
        seen_ids.add(response.request_id)
        assert response.cost.work > 0
        direct = coarsest_partition(f, b, audit=audit)
        assert same_partition(response.labels, direct.labels)


def test_submit_then_poll_jobs_endpoint(transport):
    f, b = random_function(64, num_labels=3, seed=2)
    with served_service(transport) as (url, _backend):
        with transport.client(url) as client:
            request_id = client.submit(_doc(f, b))
            first_poll = client.job(request_id)
            assert first_poll["status"] in {s.value for s in JobStatus}
            response = client.wait_for_job(request_id, timeout=60)
            assert response.status is JobStatus.DONE
            assert same_partition(response.labels, coarsest_partition(f, b).labels)
            # polling a finished job is idempotent
            assert client.job(request_id)["response"]["request_id"] == request_id
            with pytest.raises(KeyError, match="unknown job"):
                client.job(987654321)


# ----------------------------------------------------------------------
# structured error mapping
# ----------------------------------------------------------------------
def test_malformed_payloads_rejected_with_400_and_nothing_admitted(transport):
    f, b = random_function(32, num_labels=2, seed=3)
    bad_payloads = [
        b"this is not json",
        json.dumps({"function": [0, 1]}).encode(),              # missing labels
        json.dumps({"function": [9], "labels": [0]}).encode(),  # out-of-range image
        json.dumps({"requests": [_doc(f, b), {"function": [0]}]}).encode(),
    ]
    with served_service(transport) as (url, backend):
        with transport.client(url) as client:
            for raw in bad_payloads:
                status, _, body = _raw_post(url, raw)
                assert status == 400, raw
                assert body["error"]["code"] in ("bad_request", "invalid_instance")
            # a malformed batch item rejects the whole batch: nothing ran
            assert backend.metrics().submitted == 0
            # and the connection is still usable for a well-formed solve
            good = client.solve(f, b)
            assert good.status is JobStatus.DONE


def _raw_post(url, body_bytes):
    """POST arbitrary bytes (invalid JSON) — below the JSON client's floor."""
    import http.client
    from urllib.parse import urlsplit

    split = urlsplit(url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
    try:
        conn.request("POST", "/v1/solve", body=body_bytes,
                     headers={"Content-Type": "application/json"})
        raw = conn.getresponse()
        return raw.status, dict(raw.getheaders()), json.loads(raw.read())
    finally:
        conn.close()


def test_malformed_content_length_gets_400_not_a_dead_socket(transport):
    if transport.name != "http":
        pytest.skip("raw header handling is HTTP-specific")
    import socket
    from urllib.parse import urlsplit

    with served_service(transport) as (url, _backend):
        split = urlsplit(url)
        for header in (b"Content-Length: abc", b"Content-Length: -5"):
            with socket.create_connection((split.hostname, split.port), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/solve HTTP/1.1\r\nHost: x\r\n" + header + b"\r\n\r\n"
                )
                reply = sock.recv(65536)
            assert reply.startswith(b"HTTP/1.1 400"), reply[:60]


def test_queue_full_backpressure_maps_to_429_with_retry_after(transport):
    """An overloaded ingress answers 429 + Retry-After, and every admitted
    request is still answered exactly once (nothing lost, nothing extra).

    Determinism: the service holds its first batch open for a 2 s delay
    window (``max_batch_delay``), so the admitted requests stay in flight
    for the whole probe regardless of how fast the solver is.
    """
    f, b = random_function(64, num_labels=3, seed=7)
    document = _doc(f, b)
    with served_service(
        transport,
        workers=1,
        max_batch_size=64,
        max_batch_delay=2.0,
        transport_kwargs={"max_inflight": 2},
    ) as (url, _backend):
        with transport.client(url) as client:
            accepted, rejections = [], []
            for _ in range(6):
                status, headers, body = client.request(
                    "POST", "/v1/solve?wait=false", document
                )
                if status == 202:
                    accepted.append(body["request_id"])
                else:
                    rejections.append((status, headers, body))
            assert rejections, "max_inflight=2 never pushed back on 6 rapid submits"
            for status, headers, body in rejections:
                assert status == 429
                assert "retry-after" in {k.lower() for k in headers}
                assert body["error"]["code"] in ("too_many_inflight", "queue_full")
                assert body["error"]["retry_after_seconds"] >= 0
            # client-side mapping sugar: the same condition raises QueueFullError
            with pytest.raises(QueueFullError):
                client.submit(document)
            responses = [client.wait_for_job(rid, timeout=120) for rid in accepted]
            assert [r.status for r in responses] == [JobStatus.DONE] * len(accepted)
            assert len({r.request_id for r in responses}) == len(accepted)


def test_shed_on_deadline_maps_to_504_with_shed_response(transport):
    f, b = random_function(48, num_labels=2, seed=4)
    with served_service(transport) as (url, _backend):
        with transport.client(url) as client:
            status, _, body = client.request(
                "POST", "/v1/solve", _doc(f, b, timeout=0.0)  # dead on arrival
            )
            assert status == 504
            shed = wire.decode_response(body)
            assert shed.status is JobStatus.SHED
            assert shed.labels is None
            assert "deadline" in shed.error
            # the client decodes it to the same response the sync facade returns
            assert client.solve(f, b, timeout=0.0).status is JobStatus.SHED
            # batches report shedding per item, not as a transport error
            batch = client.solve_batch([_doc(f, b), _doc(f, b, timeout=0.0)])
            statuses = [item["status"] for item in batch["responses"]]
            assert statuses == ["done", "shed"]
            assert batch["completed"] == 1 and batch["errors"] == 1


def test_draining_server_maps_to_503_with_retry_after(transport):
    f, b = random_function(32, num_labels=2, seed=6)
    with served_service(transport) as (url, backend):
        with transport.client(url) as client:
            assert client.solve(f, b).status is JobStatus.DONE
            backend.shutdown(drain=True)
            health_status, health = client.healthz()
            assert health_status == 503
            assert health["status"] == "draining"
            status, headers, body = client.request("POST", "/v1/solve", _doc(f, b))
            assert status == 503
            assert body["error"]["code"] == "shutting_down"
            assert "retry-after" in {k.lower() for k in headers}
            with pytest.raises(ServiceShutdownError):
                client.solve(f, b)


# ----------------------------------------------------------------------
# observability endpoints
# ----------------------------------------------------------------------
def test_healthz_and_metrics_endpoints(transport):
    f, b = random_function(64, num_labels=3, seed=8)
    with served_service(transport) as (url, _backend):
        with transport.client(url) as client:
            status, health = client.healthz()
            assert status == 200
            assert health["status"] == "ok" and health["accepting"] is True
            client.solve(f, b)
            client.solve(f, b, audit=False)
            metrics = client.metrics()
            snap = metrics["metrics"]
            assert snap["completed"] == 2 and snap["failed"] == 0
            assert snap["pram"]["charged_work"] > 0
            prometheus = client.metrics(format="prometheus")
            assert "# TYPE repro_serving_completed_total counter" in prometheus
            assert "repro_serving_completed_total 2" in prometheus
            assert "repro_serving_inflight 0" in prometheus


def test_unknown_routes_and_methods(transport):
    with served_service(transport) as (url, _backend):
        with transport.client(url) as client:
            status, _, body = client.request("GET", "/v1/nope")
            assert status == 404 and body["error"]["code"] == "not_found"
            status, _, body = client.request("GET", "/v1/solve")
            assert status == 405 and body["error"]["code"] == "method_not_allowed"
            status, _, body = client.request("GET", "/v1/jobs/not-a-number")
            assert status == 400 and body["error"]["code"] == "bad_request"
            # replica admin on a single-service backend is a 404, not a crash
            status, _, body = client.request("GET", "/v1/replicas")
            assert status == 404


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
def test_mid_request_drain_answers_every_inflight_request(transport):
    """Shutting down mid-load must answer every accepted request; new
    requests must be turned away with 503, never hung or dropped."""
    stream = generate_requests(6, 512, seed=11)
    results, errors = [], []
    with served_service(transport, workers=1) as (url, backend):
        def fire(item):
            f, b, audit = item
            try:
                with transport.client(url) as client:
                    results.append(client.solve(f, b, audit=audit))
            except Exception as exc:  # noqa: BLE001 — collected for assertion
                errors.append(exc)

        threads = [threading.Thread(target=fire, args=(item,)) for item in stream]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the burst get in flight
        backend.shutdown(drain=True, timeout=120)  # fault: drain mid-load
        for thread in threads:
            thread.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == len(stream)
        assert all(r.status is JobStatus.DONE for r in results)
        with transport.client(url) as client:
            status, _, _body = client.request(
                "POST", "/v1/solve", _doc(*random_function(16, num_labels=2, seed=0))
            )
            assert status == 503


def test_replica_set_survives_forced_ejection_with_zero_lost_or_double_billed(transport):
    """Acceptance: a 3-replica set takes a forced ejection mid-load and
    still answers every request exactly once, with exactly one bill each."""
    total = 30
    stream = generate_requests(total, 192, seed=13)
    replica_set = ReplicaSet(3, workers=1, max_batch_delay=0.001)
    results, errors = [], []
    try:
        with transport.serve(replica_set) as url:
            gate = threading.Semaphore(6)

            def fire(item):
                f, b, audit = item
                with gate:
                    try:
                        with transport.client(url) as client:
                            results.append(client.solve(f, b, audit=audit))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

            threads = [threading.Thread(target=fire, args=(item,)) for item in stream]
            for thread in threads:
                thread.start()
            time.sleep(0.08)  # mid-load...
            with transport.client(url) as admin:
                rows = admin.eject(1, drain=True)  # ...force one replica out
            assert any(r["replica"] == 1 and r["ejected"] for r in rows)
            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads)

            with transport.client(url) as admin:
                replicas_after = admin.replicas()
                aggregate = admin.metrics()["metrics"]
    finally:
        replica_set.shutdown()

    assert not errors
    # zero lost: every request answered, all solved
    assert len(results) == total
    assert all(r.status is JobStatus.DONE for r in results)
    by_id = {r.request_id: r for r in results}
    # zero double-billed: ids unique, aggregate ledger saw each exactly once
    assert len(by_id) == total
    assert aggregate["submitted"] == total
    assert aggregate["completed"] == total
    assert aggregate["failed"] == 0 and aggregate["shed"] == 0
    assert all(r.cost.work > 0 for r in results)
    # the ejected replica took no new work after ejection
    ejected_row = next(r for r in replicas_after if r["replica"] == 1)
    assert ejected_row["ejected"] and ejected_row["inflight"] == 0


def test_replica_set_survives_forced_scale_down_mid_load(transport):
    """Acceptance: a forced scale-down mid-load drains the victim instead
    of dropping it — every request is answered exactly once with a correct
    partition, and the retired slot ends as an empty tombstone."""
    total = 30
    stream = generate_requests(total, 192, seed=29)
    replica_set = ReplicaSet(3, workers=1, max_batch_delay=0.001)
    answered, errors = [], []
    try:
        with transport.serve(replica_set) as url:
            gate = threading.Semaphore(6)

            def fire(item):
                f, b, audit = item
                with gate:
                    try:
                        with transport.client(url) as client:
                            answered.append((f, b, client.solve(f, b, audit=audit)))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

            threads = [threading.Thread(target=fire, args=(item,)) for item in stream]
            for thread in threads:
                thread.start()
            time.sleep(0.08)  # mid-load...
            victim = replica_set.scale_down()  # ...retire the youngest replica
            assert victim == 2
            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads)

            with transport.client(url) as admin:
                # the tombstone drains in the background; wait it out
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    row = next(
                        r for r in admin.replicas() if r["replica"] == victim
                    )
                    if row["inflight"] == 0:
                        break
                    time.sleep(0.02)
                replicas_after = admin.replicas()
                aggregate = admin.metrics()["metrics"]
    finally:
        replica_set.shutdown()

    assert not errors
    # zero lost: every request answered exactly once, with a correct answer
    assert len(answered) == total
    assert all(r.status is JobStatus.DONE for _, _, r in answered)
    assert len({r.request_id for _, _, r in answered}) == total
    for f, b, response in answered:
        assert same_partition(response.labels, coarsest_partition(f, b).labels)
    # zero double-billed: the aggregate ledger (which keeps the retired
    # replica's frozen counters on the books) saw each request once
    assert aggregate["submitted"] == total
    assert aggregate["completed"] == total
    assert aggregate["failed"] == 0 and aggregate["shed"] == 0
    # the victim is a drained tombstone, out of placement for good
    victim_row = next(r for r in replicas_after if r["replica"] == victim)
    assert victim_row["retired"] and victim_row["inflight"] == 0
    active = [
        r for r in replicas_after
        if not r.get("retired") and not r.get("ejected")
    ]
    assert len(active) == 2


def test_replica_set_survives_scale_up_mid_load(transport):
    """Acceptance: growing the pool mid-load is invisible to clients —
    no request is lost, double-billed, or answered wrongly while the new
    replica enters placement."""
    total = 30
    stream = generate_requests(total, 192, seed=31)
    replica_set = ReplicaSet(2, workers=1, max_batch_delay=0.001)
    answered, errors = [], []
    try:
        with transport.serve(replica_set) as url:
            gate = threading.Semaphore(6)

            def fire(item):
                f, b, audit = item
                with gate:
                    try:
                        with transport.client(url) as client:
                            answered.append((f, b, client.solve(f, b, audit=audit)))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

            threads = [threading.Thread(target=fire, args=(item,)) for item in stream]
            for thread in threads:
                thread.start()
            time.sleep(0.08)  # mid-load...
            new_id = replica_set.scale_up()  # ...grow the pool
            assert new_id == 2
            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads)

            with transport.client(url) as admin:
                replicas_after = admin.replicas()
                aggregate = admin.metrics()["metrics"]
    finally:
        replica_set.shutdown()

    assert not errors
    assert len(answered) == total
    assert all(r.status is JobStatus.DONE for _, _, r in answered)
    assert len({r.request_id for _, _, r in answered}) == total
    for f, b, response in answered:
        assert same_partition(response.labels, coarsest_partition(f, b).labels)
    assert aggregate["submitted"] == total
    assert aggregate["completed"] == total
    assert aggregate["failed"] == 0 and aggregate["shed"] == 0
    # the new replica is in placement and visible on the admin surface
    new_row = next(r for r in replicas_after if r["replica"] == new_id)
    assert not new_row["ejected"] and not new_row["retired"]
    assert new_row["accepting"]


def test_cli_connect_load_generator_verifies_over_the_wire(transport, tmp_path):
    """``repro-serve --connect URL`` is the CI smoke's wire load-gen: it
    must verify responses against direct solves and persist the *server's*
    metrics document."""
    from repro.serving.__main__ import main as serving_main

    metrics_path = tmp_path / "wire" / "TRANSPORT_METRICS.json"
    with served_service(transport, workers=2) as (url, _backend):
        exit_code = serving_main([
            "--connect", url, "--requests", "10", "--size", "48",
            "--metrics-out", str(metrics_path), "--quiet",
        ])
    assert exit_code == 0
    document = json.loads(metrics_path.read_text())
    assert document["completed"] == 10
    assert document["verified"] is True
    assert document["config"]["transport"] == "http"
    assert document["server_metrics"]["metrics"]["completed"] == 10


def test_bench_http_transport_cells_verify_and_report(transport):
    """The over-the-wire benchmark path must produce the same verified
    outcomes as the in-process one, at identical request streams."""
    from repro.serving.bench import run_load

    report = run_load(
        workers=2, requests=10, size=48, seed=3, verify=True, transport="http"
    )
    assert report.all_done and report.verified is True
    assert report.config["transport"] == "http"
    assert report.metrics.pram.charged_work > 0


def test_process_replicas_survive_kill9_mid_load_with_zero_lost_jobs(transport):
    """Acceptance: replicas in separate OS processes take a ``kill -9``
    mid-load and the set still answers every request exactly once.

    The victim pid comes from the public admin surface (``/v1/replicas``),
    the kill is genuinely un-maskable (SIGKILL), and afterwards the
    supervisor must have re-homed the orphans, restarted the slot, and
    reported all of it through its event log.
    """
    import os
    import signal

    total = 24
    stream = generate_requests(total, 160, seed=17)
    supervisor = ReplicaSupervisor(
        3,
        service_kwargs=dict(workers=1, max_batch_delay=0.001),
        heartbeat_interval=0.05,
        # generous stall threshold: on a starved CI box a *healthy* child
        # can miss the default 1s budget, and a false stall-kill here
        # would turn this into a different test
        heartbeat_timeout=2.0,
        restart_backoff=0.1,
        restart_backoff_cap=0.5,
    ).start()
    results, errors = [], []
    try:
        with transport.serve(supervisor) as url:
            gate = threading.Semaphore(8)

            def fire(item):
                f, b, audit = item
                with gate:
                    try:
                        with transport.client(url) as client:
                            results.append((item, client.solve(f, b, audit=audit)))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

            threads = [threading.Thread(target=fire, args=(item,)) for item in stream]
            for thread in threads:
                thread.start()
            time.sleep(0.08)  # mid-load...
            with transport.client(url) as admin:
                rows = admin.replicas()
            victim = next(r["pid"] for r in rows if r.get("pid"))
            os.kill(victim, signal.SIGKILL)  # ...kill -9 one replica process
            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads)

            # the slot must come back: live again with a bumped restart count
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with transport.client(url) as admin:
                    rows = admin.replicas()
                if all(r["live"] for r in rows) and any(r["restarts"] >= 1 for r in rows):
                    break
                time.sleep(0.1)
            assert all(r["live"] for r in rows), rows
            assert sum(r["restarts"] for r in rows) >= 1, rows
    finally:
        supervisor.shutdown()

    assert not errors
    # zero lost: every request answered, all solved, each billed exactly once
    assert len(results) == total
    assert all(r.status is JobStatus.DONE for _, r in results)
    assert len({r.request_id for _, r in results}) == total
    assert all(r.cost.work > 0 for _, r in results)
    # the answers are correct, not merely present
    for (f, b, audit), response in results:
        assert same_partition(response.labels, coarsest_partition(f, b).labels)
    events = [e["event"] for e in supervisor.events()]
    assert "death" in events and "restarted" in events


def test_replica_admin_eject_restore_roundtrip(transport):
    replica_set = ReplicaSet(3, workers=1, max_batch_delay=0.001)
    f, b = random_function(64, num_labels=3, seed=21)
    try:
        with transport.serve(replica_set) as url:
            with transport.client(url) as client:
                rows = client.eject(2, drain=False)  # transient ejection
                assert [r["ejected"] for r in rows] == [False, False, True]
                assert client.solve(f, b).status is JobStatus.DONE
                rows = client.restore(2)
                assert [r["ejected"] for r in rows] == [False, False, False]
                # health table rides along on /healthz for replica backends
                _, health = client.healthz()
                assert len(health["replicas"]) == 3
                # ejecting a nonexistent replica is a 404, not a crash
                status, _, body = client.request("POST", "/v1/replicas/9/eject", {})
                assert status == 404
    finally:
        replica_set.shutdown()


# ----------------------------------------------------------------------
# chaos matrix: every fault class x every harness
# ----------------------------------------------------------------------
def test_chaos_matrix_every_fault_class_zero_lost_or_wrong_answers(transport):
    """Drive solves through a deterministically faulty proxy.

    The schedule makes every second connection faulty, cycling through
    all six fault classes (latency, reset, partial writes, byte
    corruption, heartbeat drops, blackhole windows).  The client contract
    under chaos: a fault surfaces as a clean connection-level error —
    never a silently wrong answer — so a dumb retry-with-fresh-connection
    loop must eventually land every request with labels bit-identical to
    the direct solver.  Replayable: the seed fully determines the plans.
    """
    from urllib.parse import urlsplit

    from repro.serving.chaos import FAULT_KINDS, ChaosSchedule, ChaosTcpProxy

    schedule = ChaosSchedule(
        f"conformance-{transport.name}",
        every=2,  # density 1/2: retries find a clean connection fast
        latency_range=(0.02, 0.05),
        blackhole_duration=(0.05, 0.15),
    )
    stream = list(generate_requests(12, 24, seed=23))
    retriable = (ConnectionError, OSError, TimeoutError, HTTPException)
    answers = []
    with served_service(transport) as (url, _backend):
        split = urlsplit(url)
        with ChaosTcpProxy(f"{split.hostname}:{split.port}", schedule=schedule) as proxy:
            for f, b, audit in stream:
                response = None
                for _attempt in range(12):
                    try:
                        with transport.client(proxy.url) as client:
                            response = client.solve(f, b, audit=audit)
                        break
                    except retriable:
                        continue  # fresh connection -> next schedule index
                assert response is not None, "request never survived the chaos"
                answers.append(((f, b, audit), response))
            # enough connections to have cycled through every fault class
            assert proxy.connections_seen >= 2 * len(FAULT_KINDS)
    # zero lost, zero wrong: all answered, solved, uniquely billed,
    # bit-identical to the direct solver
    assert len(answers) == len(stream)
    assert all(r.status is JobStatus.DONE for _, r in answers)
    assert len({r.request_id for _, r in answers}) == len(answers)
    for (f, b, audit), response in answers:
        assert np.array_equal(
            response.labels, coarsest_partition(f, b, audit=audit).labels
        )
