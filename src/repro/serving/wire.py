"""Versioned JSON wire schemas for the serving network transports.

This module is the *contract* between :class:`~repro.serving.service.SolveService`
and any network transport in front of it (the stdlib HTTP ingress in
:mod:`repro.serving.transport` today; a gRPC or multi-process transport
tomorrow).  Everything that crosses the wire round-trips through here:

* **Requests** — :func:`decode_request` turns a JSON document into a fully
  validated :class:`~repro.serving.requests.SolveRequest` (instance arrays,
  algorithm, audit flag, priority, relative ``timeout`` and algorithm
  params); :func:`encode_request` is its inverse (deadlines are re-encoded
  as *remaining* seconds, since absolute ``time.monotonic()`` instants are
  meaningless on another host).
* **Responses** — :func:`encode_response` / :func:`decode_response`
  round-trip a :class:`~repro.serving.requests.SolveResponse` including its
  :class:`~repro.serving.requests.JobStatus`, labels, and the billed
  time/work/charged-work share, **bit-exactly**: labels and cost counters
  are integers end to end, so a response decoded from the wire compares
  equal to the in-process one.
* **Errors** — :func:`error_document` produces the structured error body
  (``code``, ``message``, optional ``retry_after_seconds``) used for every
  non-2xx transport answer, and :data:`ERROR_STATUS` fixes the HTTP status
  each error code maps to (queue-full backpressure → 429, draining/stopped
  → 503, shed-on-deadline → 504, malformed payloads → 400).

Documents are stamped ``{"schema": "repro.serving.wire", "version": 1}``;
decoding rejects unknown majors so an incompatible client fails loudly
instead of half-parsing.  All decode failures raise
:class:`~repro.errors.WireFormatError` — transports map it to 400 and must
admit nothing from a payload that fails to decode.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import InvalidInstanceError, WireFormatError
from ..types import CostSummary
from .requests import JobStatus, SolveRequest, SolveResponse

#: Schema identifier stamped on every wire document.
WIRE_SCHEMA = "repro.serving.wire"
#: Current (and only) supported schema version.
WIRE_VERSION = 1

#: HTTP status code for each structured error ``code``.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,          # malformed JSON / wire schema violation
    "invalid_instance": 400,     # arrays decoded but are not a valid SFCP instance
    "not_found": 404,            # unknown job id or admin route
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "queue_full": 429,           # ingress backpressure was not absorbed
    "too_many_inflight": 429,    # transport-level admission cap
    "internal": 500,             # unexpected server-side failure
    "shutting_down": 503,        # service draining or stopped
    "replica_unavailable": 503,  # no replica could accept the request
    "deadline_exceeded": 504,    # request shed before a worker got to it
}



# ----------------------------------------------------------------------
# decode helpers
# ----------------------------------------------------------------------
def _require_object(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise WireFormatError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_version(payload: Mapping[str, Any], what: str) -> None:
    schema = payload.get("schema", WIRE_SCHEMA)
    if schema != WIRE_SCHEMA:
        raise WireFormatError(
            f"{what} carries schema {schema!r}; this endpoint speaks {WIRE_SCHEMA!r}"
        )
    version = payload.get("version", WIRE_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) or version != WIRE_VERSION:
        raise WireFormatError(
            f"{what} carries wire version {version!r}; supported version is {WIRE_VERSION}"
        )


def _int_array(value: Any, field: str) -> np.ndarray:
    """Validate and convert a wire array in C, not per-element Python.

    This runs on the transport's single event-loop thread for every
    request, so it must be O(n) in numpy: ``np.asarray`` classifies the
    whole array at once and only the error paths ever loop in Python.
    """
    if not isinstance(value, (list, tuple)):
        raise WireFormatError(
            f"field {field!r} must be an array of integers, got {type(value).__name__}"
        )
    if len(value) == 0:
        return np.zeros(0, dtype=np.int64)
    try:
        array = np.asarray(value)
    except (ValueError, OverflowError) as exc:
        raise WireFormatError(
            f"field {field!r} must be a flat array of integers: {exc}"
        ) from exc
    if array.ndim != 1:
        raise WireFormatError(
            f"field {field!r} must be a flat array of integers, got a nested array"
        )
    kind = array.dtype.kind
    if kind == "i":
        return array.astype(np.int64, copy=False)
    if kind == "u":  # values past 2^63-1 decode as uint64
        if array.max() > np.iinfo(np.int64).max:
            raise WireFormatError(
                f"field {field!r} contains values outside the int64 range"
            )
        return array.astype(np.int64)
    if kind == "O":  # arbitrary-precision ints (or mixed types) fall back here
        if all(isinstance(x, int) and not isinstance(x, bool) for x in value):
            raise WireFormatError(
                f"field {field!r} contains values outside the int64 range"
            )
        raise WireFormatError(f"field {field!r} must contain only integers")
    raise WireFormatError(
        f"field {field!r} must contain only integers, found {array.dtype.name} data"
    )


def _bool(value: Any, field: str, default: bool) -> bool:
    if value is None:
        return default
    if not isinstance(value, bool):
        raise WireFormatError(f"field {field!r} must be a boolean, got {value!r}")
    return value


def _number(value: Any, field: str) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError(f"field {field!r} must be a number, got {value!r}")
    result = float(value)
    if not math.isfinite(result) or result < 0:
        raise WireFormatError(f"field {field!r} must be finite and >= 0, got {value!r}")
    return result


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def decode_request(payload: Any) -> SolveRequest:
    """Decode one wire request document into a validated :class:`SolveRequest`.

    Required fields: ``function`` and ``labels`` (integer arrays).
    Optional: ``algorithm`` (str), ``audit`` (bool, default true),
    ``priority`` (int, default 0), ``timeout`` (relative seconds; omitted
    or null = no deadline) and ``params`` (object of algorithm kwargs).
    Malformed documents raise :class:`~repro.errors.WireFormatError`;
    well-formed documents whose arrays are not a valid SFCP instance raise
    :class:`~repro.errors.InvalidInstanceError` (mapped to
    ``invalid_instance`` by the transport).
    """
    obj = _require_object(payload, "solve request")
    _check_version(obj, "solve request")
    unknown = set(obj) - {
        "schema", "version", "function", "labels", "algorithm", "audit",
        "priority", "timeout", "params",
    }
    if unknown:
        raise WireFormatError(
            f"solve request carries unknown field(s) {sorted(unknown)}"
        )
    if "function" not in obj or "labels" not in obj:
        raise WireFormatError(
            "solve request must carry 'function' and 'labels' integer arrays"
        )
    function = _int_array(obj["function"], "function")
    labels = _int_array(obj["labels"], "labels")
    algorithm = obj.get("algorithm", "jaja-ryu")
    if not isinstance(algorithm, str) or not algorithm:
        raise WireFormatError(
            f"field 'algorithm' must be a non-empty string, got {algorithm!r}"
        )
    priority = obj.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise WireFormatError(f"field 'priority' must be an integer, got {priority!r}")
    raw_params = obj.get("params")
    params = dict(
        _require_object({} if raw_params is None else raw_params, "field 'params'")
    )
    reserved = {"function", "initial_labels", "algorithm", "audit", "priority", "timeout"}
    clashing = reserved & set(params)
    if clashing:
        raise WireFormatError(
            f"field 'params' must not shadow envelope field(s) {sorted(clashing)}"
        )
    return SolveRequest.make(
        function,
        labels,
        algorithm=algorithm,
        audit=_bool(obj.get("audit"), "audit", True),
        priority=priority,
        timeout=_number(obj.get("timeout"), "timeout"),
        **params,
    )


def encode_request(request: SolveRequest, *, now: Optional[float] = None) -> Dict[str, Any]:
    """Encode a :class:`SolveRequest` as a wire document.

    The absolute monotonic ``deadline`` is converted back to *remaining*
    seconds (floored at 0: an already-expired request encodes as
    ``timeout: 0``, i.e. dead on arrival at the far end too).
    """
    timeout: Optional[float] = None
    if request.deadline is not None:
        timeout = max(0.0, request.deadline - (time.monotonic() if now is None else now))
    return {
        "schema": WIRE_SCHEMA,
        "version": WIRE_VERSION,
        "function": np.asarray(request.instance.function).tolist(),
        "labels": np.asarray(request.instance.initial_labels).tolist(),
        "algorithm": request.algorithm,
        "audit": bool(request.audit),
        "priority": int(request.priority),
        "timeout": timeout,
        "params": dict(request.params),
    }


def decode_solve_payload(payload: Any) -> Tuple[bool, List[SolveRequest]]:
    """Decode a ``POST /v1/solve`` body: one request or a batch.

    A batch document is ``{"requests": [<request>, ...]}``; anything else
    is treated as a single request document.  Returns ``(is_batch,
    requests)``.  The whole payload is validated *before* anything is
    admitted — one malformed batch item rejects the entire batch, so a 400
    never leaves a partial batch behind.  An empty batch is malformed.
    """
    obj = _require_object(payload, "solve payload")
    if "requests" not in obj:
        return False, [decode_request(obj)]
    _check_version(obj, "solve batch")
    items = obj["requests"]
    if not isinstance(items, list):
        raise WireFormatError(
            f"field 'requests' must be an array, got {type(items).__name__}"
        )
    if not items:
        raise WireFormatError(
            "solve batch carries an empty 'requests' array; send at least one request"
        )
    requests = []
    for index, item in enumerate(items):
        try:
            requests.append(decode_request(item))
        except WireFormatError as exc:
            raise WireFormatError(f"batch item {index}: {exc}") from exc
        except InvalidInstanceError as exc:
            raise InvalidInstanceError(f"batch item {index}: {exc}") from exc
    return True, requests


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
def encode_response(response: SolveResponse) -> Dict[str, Any]:
    """Encode a :class:`SolveResponse` as a wire document (bit-exact)."""
    return {
        "schema": WIRE_SCHEMA,
        "version": WIRE_VERSION,
        "request_id": int(response.request_id),
        "status": response.status.value,
        "algorithm": response.algorithm,
        "labels": None if response.labels is None else np.asarray(response.labels).tolist(),
        "num_blocks": int(response.num_blocks),
        "cost": {
            "time": int(response.cost.time),
            "work": int(response.cost.work),
            "charged_work": int(response.cost.charged_work),
        },
        "batch_size": int(response.batch_size),
        "worker_id": int(response.worker_id),
        "queued_seconds": float(response.queued_seconds),
        "latency_seconds": float(response.latency_seconds),
        "error": response.error,
    }


def decode_response(payload: Any) -> SolveResponse:
    """Decode a wire response document back into a :class:`SolveResponse`."""
    obj = _require_object(payload, "solve response")
    _check_version(obj, "solve response")
    for field in ("request_id", "status", "algorithm"):
        if field not in obj:
            raise WireFormatError(f"solve response is missing field {field!r}")
    status_value = obj["status"]
    try:
        status = JobStatus(status_value)
    except ValueError:
        raise WireFormatError(
            f"unknown job status {status_value!r}; expected one of "
            f"{[s.value for s in JobStatus]}"
        ) from None
    labels = obj.get("labels")
    raw_cost = obj.get("cost")
    cost = _require_object({} if raw_cost is None else raw_cost, "field 'cost'")
    error = obj.get("error")
    if error is not None and not isinstance(error, str):
        raise WireFormatError(f"field 'error' must be a string or null, got {error!r}")
    return SolveResponse(
        request_id=int(obj["request_id"]),
        status=status,
        algorithm=str(obj["algorithm"]),
        labels=None if labels is None else _int_array(labels, "labels"),
        num_blocks=int(obj.get("num_blocks", 0)),
        cost=CostSummary(
            time=int(cost.get("time", 0)),
            work=int(cost.get("work", 0)),
            charged_work=int(cost.get("charged_work", 0)),
        ),
        batch_size=int(obj.get("batch_size", 0)),
        worker_id=int(obj.get("worker_id", -1)),
        queued_seconds=float(obj.get("queued_seconds", 0.0)),
        latency_seconds=float(obj.get("latency_seconds", 0.0)),
        error=error,
    )


def response_http_status(response: SolveResponse) -> int:
    """HTTP status a *single-request* solve answer maps to.

    DONE → 200; SHED → 504 (the deadline elapsed server-side); FAILED →
    500; CANCELLED → 503 (a non-draining shutdown dropped it).  Batch
    answers always travel as 200 with per-item statuses — partial success
    is a batch-level concept.
    """
    if response.status is JobStatus.DONE:
        return 200
    if response.status is JobStatus.SHED:
        return ERROR_STATUS["deadline_exceeded"]
    if response.status is JobStatus.CANCELLED:
        return ERROR_STATUS["shutting_down"]
    return ERROR_STATUS["internal"]


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
def error_document(
    code: str,
    message: str,
    *,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    """Structured error body for a non-2xx transport answer."""
    if code not in ERROR_STATUS:
        raise ValueError(f"unknown wire error code {code!r}")
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after_seconds"] = float(retry_after)
    return {"schema": WIRE_SCHEMA, "version": WIRE_VERSION, "error": error}


def job_document(request_id: int, status: JobStatus, response: Optional[SolveResponse]) -> Dict[str, Any]:
    """Body of ``GET /v1/jobs/{id}``: status plus the response once done."""
    doc: Dict[str, Any] = {
        "schema": WIRE_SCHEMA,
        "version": WIRE_VERSION,
        "request_id": int(request_id),
        "status": status.value,
    }
    if response is not None:
        doc["response"] = encode_response(response)
    return doc


# ----------------------------------------------------------------------
# heartbeats
# ----------------------------------------------------------------------
def heartbeat_document(
    *,
    sequence: int,
    interval: float,
    accepting: bool,
    inflight: int,
    queue_depth: int,
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One liveness beat a replica pushes over the framed transport.

    Routing decisions in a multi-process deployment are made on what a
    replica *advertises* here — ``accepting``, ``inflight`` and
    ``queue_depth`` — never on shared-memory inspection, so the document
    carries everything placement needs plus an optional full metrics
    snapshot for observability.
    """
    doc: Dict[str, Any] = {
        "schema": WIRE_SCHEMA,
        "version": WIRE_VERSION,
        "kind": "heartbeat",
        "sequence": int(sequence),
        "interval": float(interval),
        "accepting": bool(accepting),
        "inflight": int(inflight),
        "queue_depth": int(queue_depth),
    }
    if metrics is not None:
        doc["metrics"] = metrics
    return doc


def decode_heartbeat(payload: Any) -> Dict[str, Any]:
    """Validate a heartbeat document; returns it with coerced field types."""
    obj = _require_object(payload, "heartbeat")
    _check_version(obj, "heartbeat")
    if obj.get("kind") != "heartbeat":
        raise WireFormatError(
            f"heartbeat document carries kind {obj.get('kind')!r}; expected 'heartbeat'"
        )
    for field in ("sequence", "accepting", "inflight", "queue_depth"):
        if field not in obj:
            raise WireFormatError(f"heartbeat is missing field {field!r}")
    if not isinstance(obj["accepting"], bool):
        raise WireFormatError(
            f"heartbeat field 'accepting' must be a boolean, got {obj['accepting']!r}"
        )
    for field in ("sequence", "inflight", "queue_depth"):
        value = obj[field]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise WireFormatError(
                f"heartbeat field {field!r} must be a non-negative integer, got {value!r}"
            )
    metrics = obj.get("metrics")
    if metrics is not None and not isinstance(metrics, Mapping):
        raise WireFormatError(
            f"heartbeat field 'metrics' must be an object, got {type(metrics).__name__}"
        )
    return {
        "sequence": int(obj["sequence"]),
        "interval": float(obj.get("interval", 0.0) or 0.0),
        "accepting": bool(obj["accepting"]),
        "inflight": int(obj["inflight"]),
        "queue_depth": int(obj["queue_depth"]),
        "metrics": None if metrics is None else dict(metrics),
    }
