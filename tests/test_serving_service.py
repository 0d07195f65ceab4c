"""End-to-end tests of the SolveService: sync/async facades, worker-pool
parity with direct solves, deadline shedding, graceful shutdown, metrics."""
import asyncio

import pytest

from repro.errors import ServiceShutdownError
from repro.graphs.generators import random_function, random_permutation
from repro.partition import coarsest_partition, same_partition
from repro.serving import JobStatus, SolveService
from repro.serving.bench import generate_requests, run_load


def _instances(count, n=48, seed=0):
    return [random_function(n, num_labels=3, seed=seed + i) for i in range(count)]


def test_sync_solve_matches_direct_solve_audited_and_unaudited():
    f, b = random_function(64, num_labels=3, seed=1)
    direct = coarsest_partition(f, b)
    with SolveService(workers=2, max_batch_delay=0.001) as svc:
        for audit in (True, False):
            response = svc.solve(f, b, audit=audit)
            assert response.status is JobStatus.DONE
            assert response.ok
            assert same_partition(response.labels, direct.labels)
            assert response.num_blocks == direct.num_blocks
            assert response.batch_size >= 1
            assert response.cost.work > 0


def test_async_burst_coalesces_and_matches_direct_solves():
    stream = generate_requests(24, 32, seed=3)

    async def fire(svc):
        return await asyncio.gather(
            *(svc.async_solve(f, b, audit=audit) for f, b, audit in stream)
        )

    with SolveService(workers=2, max_batch_size=8, max_batch_delay=0.02) as svc:
        responses = asyncio.run(fire(svc))
        metrics = svc.metrics()
    assert all(r.status is JobStatus.DONE for r in responses)
    # the burst must actually have been micro-batched
    assert metrics.multi_request_batches >= 1
    assert metrics.max_occupancy > 1
    for (f, b, audit), response in zip(stream, responses):
        direct = coarsest_partition(f, b, audit=audit)
        assert same_partition(response.labels, direct.labels)


def test_worker_pool_matches_direct_coarsest_partition():
    workload = _instances(6, n=40, seed=7)
    with SolveService(workers=2, max_batch_delay=0.01) as svc:
        ids = [svc.submit(f, b) for f, b in workload]
        responses = [svc.result(request_id, timeout=60) for request_id in ids]
    for (f, b), response in zip(workload, responses):
        assert response.status is JobStatus.DONE
        direct = coarsest_partition(f, b)
        assert same_partition(response.labels, direct.labels)
        assert response.worker_id >= 0


def test_expired_request_is_shed_not_solved():
    f, b = random_function(32, num_labels=2, seed=4)
    with SolveService(workers=1, max_batch_delay=0.001) as svc:
        request_id = svc.submit(f, b, timeout=0.0)  # dead on arrival
        response = svc.result(request_id, timeout=30)
    assert response.status is JobStatus.SHED
    assert response.labels is None
    assert "deadline" in response.error
    assert svc.metrics().shed >= 1


def test_graceful_shutdown_completes_in_flight_requests():
    workload = _instances(5, n=36, seed=11)
    # a long delay window would hold the partial batch open for 30s; the
    # drain must cut it short and still answer every accepted request
    svc = SolveService(workers=2, max_batch_size=64, max_batch_delay=30.0)
    ids = [svc.submit(f, b) for f, b in workload]
    svc.shutdown(drain=True, timeout=60)
    responses = [svc.result(request_id) for request_id in ids]
    assert all(r.status is JobStatus.DONE for r in responses)
    for (f, b), response in zip(workload, responses):
        assert same_partition(response.labels, coarsest_partition(f, b).labels)


def test_submit_after_shutdown_raises():
    svc = SolveService(workers=1)
    svc.shutdown()
    f, b = random_function(16, num_labels=2, seed=0)
    with pytest.raises(ServiceShutdownError):
        svc.submit(f, b)


def test_non_draining_shutdown_answers_every_request():
    workload = _instances(4, n=24, seed=21)
    svc = SolveService(workers=1, max_batch_size=64, max_batch_delay=30.0)
    ids = [svc.submit(f, b) for f, b in workload]
    svc.shutdown(drain=False)
    responses = [svc.result(request_id, timeout=60) for request_id in ids]
    # whether a request was already claimed by the batcher (-> DONE) or
    # still queued (-> CANCELLED) is timing-dependent; what matters is that
    # nothing hangs and every future resolves with a definite status
    assert all(r.status in (JobStatus.DONE, JobStatus.CANCELLED) for r in responses)


def test_unknown_request_id_raises_keyerror():
    with SolveService(workers=1) as svc:
        with pytest.raises(KeyError):
            svc.result(999999)


def test_metrics_snapshot_counts_and_percentiles():
    workload = _instances(8, n=32, seed=31)
    with SolveService(workers=2, max_batch_size=4, max_batch_delay=0.02) as svc:
        ids = [svc.submit(f, b) for f, b in workload]
        for request_id in ids:
            svc.result(request_id, timeout=60)
        m = svc.metrics()
    assert m.submitted == m.completed == len(workload)
    assert m.failed == 0 and m.shed == 0
    assert m.batches >= 1
    assert m.latency_p50_ms <= m.latency_p95_ms <= m.latency_p99_ms
    assert m.pram.work > 0  # aggregate worker-machine ledger rides along
    assert m.workers and sum(w["instances"] for w in m.workers) == len(workload)
    flat = m.as_dict()
    assert flat["pram"]["work"] == m.pram.work


def test_per_request_algorithm_routing():
    f, b = random_permutation(40, num_labels=2, seed=5)
    with SolveService(workers=1, max_batch_delay=0.001) as svc:
        ours = svc.solve(f, b, algorithm="jaja-ryu")
        baseline = svc.solve(f, b, algorithm="hopcroft")
    assert ours.algorithm == "jaja-ryu"
    assert baseline.algorithm == "hopcroft"
    assert same_partition(ours.labels, baseline.labels)


def test_raise_for_status_maps_shed_and_done():
    from repro.errors import DeadlineExceededError

    f, b = random_function(24, num_labels=2, seed=8)
    with SolveService(workers=1, max_batch_delay=0.001) as svc:
        done = svc.solve(f, b)
        assert done.raise_for_status() is done  # DONE chains through
        shed_id = svc.submit(f, b, timeout=0.0)
        shed = svc.result(shed_id, timeout=30)
    with pytest.raises(DeadlineExceededError, match="shed"):
        shed.raise_for_status()


def test_top_level_solve_service_export_is_lazy():
    import os
    import pathlib
    import subprocess
    import sys

    code = (
        "import sys, repro; "
        "assert 'repro.serving' not in sys.modules, 'serving imported eagerly'; "
        "svc_cls = repro.SolveService; "
        "assert 'repro.serving' in sys.modules; "
        "assert svc_cls.__name__ == 'SolveService'"
    )
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_run_load_reports_verification_and_coalescing():
    report = run_load(workers=2, requests=12, size=24, seed=0, verify=True)
    assert report.all_done
    assert report.verified is True
    assert report.mismatches == []
    assert report.coalesced
    assert report.metrics.throughput_rps > 0
