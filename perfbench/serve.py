"""The ``serve`` workload: many small requests through the whole serving stack.

One ``SolveService(workers=2)``, every other setting at its default,
behind a loopback ``FramedIngress`` in this process.  One framed client
drives it open loop: the Poisson schedule is drawn up front, the
generator sleeps until each request's due time, encodes the request
with ``repro.serving.wire`` and sends it with ``submit_push``.  Latency
runs from the due time to the push's arrival, so a stalled generator
shows up in every later request's latency, and the generator's own
lateness is reported as ``loadgen.lateness_ms_p99``.

The traced run drives the first half of its window untraced and the
second half under ``repro.pram.wall_profiling()``; per-layer numbers
come from the second half, and ``trace.overhead`` compares the halves.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time

import numpy as np

import repro
from repro.errors import ServiceError
from repro.partition import same_partition
from repro.pram import wall_profiling
from repro.serving import FramedIngress, FramedServiceClient, JobStatus, SolveRequest, SolveService, wire

import instances
import solves
from report import Report

#: Requests per second.  At 100/s the interpreter lock is about 55% busy and
#: host noise turns into queueing: p99 latency spread 38-46% across runs on
#: a 2-core VM.  At 60/s it spread 14-21%, and a 30 s window still holds
#: 1800 requests.
RATE = 60.0
N = 256
WORKERS = 2
SETUPS = 3
#: Longest wait for any one client call or push; a hang becomes a failure.
CLIENT_TIMEOUT = 10.0
#: Served instances the traced run steps through directly, after its window.
SAMPLE = 30
#: Request instances solved directly, after the window, for the exact
#: counts: 20 of each family, so the seed moves their mean little.
COUNTED = 60
#: Per-layer metrics this workload does not use: none.
UNUSED = ()
#: ``latency_p99_ms`` is the median of the p99s of this many consecutive,
#: equal windows of the run.  A host stall of a few hundred milliseconds
#: delays a burst of requests as large as the whole tail beyond a run's
#: p99 (18 at 1800 requests), so one stall set the pooled p99: its spread
#: across runs reached 0.51 on a shared 2-core VM.  The stall sets one
#: window's p99, and the median over six windows passes it by.
P99_WINDOWS = 6


class Stack:
    """The service, its ingress and one client, closed in reverse order."""

    def __init__(self) -> None:
        self.service = SolveService(workers=WORKERS)
        self.ingress = None
        self.client = None
        try:
            self.ingress = FramedIngress(self.service).start_in_thread()
            self.client = FramedServiceClient(self.ingress.url, timeout=CLIENT_TIMEOUT)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        with contextlib.ExitStack() as closing:  # runs its callbacks last-in first-out
            closing.callback(self.service.shutdown, timeout=CLIENT_TIMEOUT)
            if self.ingress is not None:
                closing.callback(self.ingress.close)
            if self.client is not None:
                closing.callback(self.client.close)

    def worker_totals(self):
        """``(busy seconds, instances, batches)`` so far, over all workers."""
        metrics = self.service.metrics()
        busy = sum(float(w["busy_seconds"]) for w in metrics.workers)
        solved = sum(int(w["instances"]) for w in metrics.workers)
        return busy, solved, metrics.batches


class Load:
    """The open-loop generator's record of one window, request by request."""

    def __init__(self, count: int) -> None:
        self.lateness = np.full(count, np.nan)
        self.encode = np.full(count, np.nan)
        self.decode = np.full(count, np.nan)
        self.due = np.full(count, np.nan)
        self.sent = np.full(count, np.nan)
        self.arrival = np.full(count, np.nan)
        self.status = [None] * count
        self.response = [None] * count
        self.errors = {}
        self.accepted = 0
        self.arrived = 0
        self.cond = threading.Condition()

    def on_push(self, index: int):
        def deliver(status: int, document) -> None:
            arrival = time.perf_counter()
            start = time.perf_counter()
            try:
                response = wire.decode_response(document)
            except (ServiceError, ValueError, TypeError) as exc:
                response = None
                self.errors[index] = f"undecodable push: {exc}"
            decode = time.perf_counter() - start
            with self.cond:
                self.arrival[index] = arrival
                self.decode[index] = decode
                self.status[index] = status
                self.response[index] = response
                self.arrived += 1
                self.cond.notify_all()
        return deliver


def round_trip(client, f, b) -> None:
    """One request through the stack, waited for: the warm-up."""
    done = threading.Event()
    client.submit_push(wire.encode_request(SolveRequest.make(f, b)), lambda status, doc: done.set())
    if not done.wait(CLIENT_TIMEOUT):
        raise TimeoutError("warm-up request got no push")


def drive(stack: Stack, offsets, inputs, load: Load, *, profile_from: int):
    """Send every request on its schedule; wait for the pushes.

    Requests from ``profile_from`` on run under ``wall_profiling()``.
    Returns ``(window CPU seconds, worker totals at the window's start,
    at ``profile_from`` and at its end, the profile or None)``.
    """
    profile = None
    totals = [stack.worker_totals()]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.ExitStack() as profiling:
        for index, (f, b) in enumerate(inputs):
            if index == profile_from:
                totals.append(stack.worker_totals())
                profile = profiling.enter_context(wall_profiling())
            due = t0 + offsets[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            load.due[index] = due
            load.lateness[index] = time.perf_counter() - due
            request = SolveRequest.make(f, b)
            start = time.perf_counter()
            document = wire.encode_request(request)
            load.encode[index] = time.perf_counter() - start
            load.sent[index] = time.perf_counter()
            try:
                stack.client.submit_push(document, load.on_push(index))
            except (ServiceError, ConnectionError, TimeoutError) as exc:
                load.errors[index] = f"not admitted: {type(exc).__name__}: {exc}"
                continue
            with load.cond:
                load.accepted += 1
        with load.cond:
            load.cond.wait_for(lambda: load.arrived >= load.accepted, timeout=CLIENT_TIMEOUT)
    cpu = time.process_time() - cpu0
    if len(totals) == 1:
        totals.append(totals[0])
    totals.append(stack.worker_totals())
    return cpu, totals, profile


def check(load: Load, inputs, report: Report) -> list:
    """Count every request once; returns the indices answered correctly."""
    good = []
    for index, (f, b) in enumerate(inputs):
        response = load.response[index]
        if index in load.errors:
            problem = load.errors[index]
        elif response is None:
            problem = "no push"
        elif load.status[index] != 200 or response.status != JobStatus.DONE:
            problem = f"status {load.status[index]} {response.status.value}: {response.error}"
        elif not same_partition(response.labels, repro.linear_partition(f, b).labels):
            problem = "labels differ from linear_partition"
        else:
            good.append(index)
            report.attempt(ok=True, what="")
            continue
        report.attempt(ok=False, what=f"request {index}: {problem}")
    return good


def run(workload: str, seed: int, seconds: float, trace: bool, report: Report) -> None:
    count = max(1, round(RATE * seconds))
    stack = None
    try:
        for setup in range(SETUPS):
            if stack is not None:
                stack.close()
                stack = None
            start = time.perf_counter()
            offsets = instances.poisson_offsets(seed, RATE, count)
            inputs = [instances.serve_instance(seed, index, N) for index in range(count)]
            stack = Stack()
            round_trip(stack.client, *instances.forest_instance(instances.stream(seed, instances.WARMUP, setup), N))
            report.setup_done(time.perf_counter() - start)

        load = Load(count)
        half = count // 2 if trace else count
        cpu, totals, profile = drive(stack, offsets, inputs, load, profile_from=half)
    finally:
        if stack is not None:
            stack.close()
    rss = solves.peak_rss_mib()

    good = check(load, inputs, report)
    latency = (load.arrival - load.due) * 1e3
    report.e2e("peak_rss_mib", rss, "MiB", 1)
    if good:
        n_total = N * len(good)
        ok_latency = latency[good]
        busy = totals[-1][0] - totals[0][0]
        report.e2e("latency_p50_ms", float(np.percentile(ok_latency, 50)), "ms", len(good))
        windows = np.array_split(ok_latency, min(P99_WINDOWS, len(good)))  # in due-time order
        report.e2e("latency_p99_ms", float(np.median([np.percentile(w, 99) for w in windows])), "ms", len(good))
        report.e2e("cpu_ms_per_request", cpu * 1e3 / len(good), "ms", len(good))
        report.e2e("ns_per_node", busy / n_total * 1e9, "ns/node", len(good))
    # Exact counts, as on forest and cycles: the first request instances,
    # solved directly.  The cost the service bills a request is not used,
    # because it depends on how the requests happened to be batched.
    costs = [repro.coarsest_partition(f, b).cost for f, b in inputs[:COUNTED]]
    report.e2e("charged_work_per_node", statistics.mean(c.charged_work for c in costs) / N, "ops/node", len(costs))
    report.e2e("pram_rounds", statistics.mean(c.time for c in costs), "rounds", len(costs))
    report.layer("input.repeat_share", instances.repeat_share(instances.digest(f, b) for f, b in inputs), "share", count)

    if trace:
        record_layers(report, load, inputs, good, half, totals, profile)


def record_layers(report: Report, load: Load, inputs, good, half, totals, profile) -> None:
    """Per-layer metrics from the traced half of the window."""
    traced = [i for i in good if i >= half]
    untraced = [i for i in good if i < half]
    if not traced:
        return
    responses = [load.response[i] for i in traced]
    latency = (load.arrival - load.due) * 1e3
    busy, solved, batches = (end - mid for end, mid in zip(totals[2], totals[1]))
    report.layer("service.queued_ms_p50", statistics.median(r.queued_seconds for r in responses) * 1e3, "ms", len(traced))
    report.layer("service.solve_ms_p50", statistics.median(r.latency_seconds - r.queued_seconds for r in responses) * 1e3, "ms", len(traced))
    report.layer("workers.busy_ms_per_request", busy * 1e3 / max(1, solved), "ms", solved)
    report.layer("batcher.batches", batches, "count", batches)
    report.layer("batcher.mean_occupancy", solved / max(1, batches), "requests", batches)
    report.layer("wire.encode_request_us", float(np.median(load.encode[traced])) * 1e6, "us", len(traced))
    report.layer("wire.decode_response_us", float(np.median(load.decode[traced])) * 1e6, "us", len(traced))
    transport = [(load.arrival[i] - load.sent[i] - load.response[i].latency_seconds) * 1e3 for i in traced]
    report.layer("transport.ms_p50", statistics.median(transport), "ms", len(traced))
    report.layer("loadgen.lateness_ms_p99", float(np.percentile(load.lateness[half:], 99)) * 1e3, "ms", len(load.lateness) - half)
    if untraced:
        overhead = np.median(latency[traced]) / np.median(latency[untraced])
        report.layer("trace.overhead", float(overhead), "ratio", len(good))
    per_request = {
        name: (wall / len(traced), calls / len(traced))
        for name, (wall, calls) in solves.profile_sums(profile).items()
    }
    solves.record_profile(report, per_request, len(traced))

    sample = [inputs[i] for i in range(min(SAMPLE, len(inputs)))]
    steps = [solves.run_steps(f, b) for f, b in sample]
    solves.record_steps(report, steps, solves.memory_peaks(*sample[0]), N)
