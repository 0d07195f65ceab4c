"""Command-line front end: ``python -m repro.serving`` / ``repro-serve``.

Six modes:

* **Demo/smoke (default)** — runs a self-contained load-generator burst
  against a fresh :class:`~repro.serving.service.SolveService`, verifies
  every response against a direct single-instance solve, and prints the
  metrics table.
* **Server (``--http``)** — boots the protocol-sniffing ingress
  (:mod:`repro.serving.framing`: framed and HTTP on one port) in front of
  a ``SolveService``, a :class:`~repro.serving.replicas.ReplicaSet`
  (``--replicas N``), with ``--processes`` a
  :class:`~repro.serving.supervisor.ReplicaSupervisor` running each
  replica as its own OS process, or with ``--remote HOST:PORT`` (and/or
  ``--remote-config``) a
  :class:`~repro.serving.remote.RemoteReplicaFleet` of framed replicas
  on *other hosts*, and serves until interrupted, draining on shutdown.
* **Replica worker (``--replica-worker``)** — the child end of
  ``--processes`` (and a fine standalone remote host): one service behind
  a framed ingress on an ephemeral port, announced through
  ``--port-file``; drains and exits 0 on SIGTERM or when its parent's
  stdin pipe closes.
* **Wire load generator (``--connect URL``)** — fires the demo burst at an
  *already-running* server over HTTP, verifies responses against direct
  solves, and snapshots the server's ``/metrics`` document;
  ``--connect-retries N`` rides out dropped connections (chaos smoke).
  It shares the demo's driver (:func:`~repro.serving.bench.run_load`),
  report and exit codes.
* **Open-loop load generator (``--loadgen``)** — offers requests at a
  fixed arrival rate to a fresh in-process pool and measures how it
  copes (latency percentiles, shed fraction, nothing-lost check);
  ``--sweep`` runs the full capacity grid (replica counts × offered
  rates) and reports each pool size's knee — the measured capacity
  model behind ``BENCH_SERVING.json``.
* **Chaos proxy (``--chaos-proxy --upstream HOST:PORT``)** — a
  deterministic fault-injecting TCP proxy
  (:mod:`repro.serving.chaos`): seeded schedule of latency, resets,
  partial writes, frame corruption, heartbeat drops and blackholes,
  replayable via ``--chaos-seed`` and exported with
  ``--chaos-schedule-out``.

Examples
--------

The acceptance configuration (4 workers, 256 requests, batches of 32)::

    python -m repro.serving --workers 4 --batch-size 32 --requests 256

Serve 3 replicas over HTTP on an ephemeral port, announcing it in a file
(the CI ``transport-smoke`` pattern), then drive it over the wire::

    repro-serve --http --port 0 --replicas 3 --port-file /tmp/port
    repro-serve --connect http://127.0.0.1:$(cat /tmp/port) --requests 64 \
        --metrics-out transport-metrics.json

Exit codes: 0 success; 1 incomplete or mismatched responses; 2 no
multi-request batch despite ``--require-batching``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from ..analysis.tables import render_table
from .bench import run_load

#: Schema stamp of the ``--metrics-out`` JSON document.
METRICS_SCHEMA = "repro.serving"
METRICS_SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Load-generator demo/smoke for the micro-batching SFCP service.",
    )
    parser.add_argument("--workers", type=int, default=4, help="worker shards (default 4)")
    parser.add_argument("--batch-size", type=int, default=32, help="max requests per batch")
    parser.add_argument(
        "--batch-delay-ms", type=float, default=2.0,
        help="max time a partially-filled batch is held open (default 2ms)",
    )
    parser.add_argument("--queue-capacity", type=int, default=1024, help="ingress bound")
    parser.add_argument("--requests", type=int, default=256, help="burst size (default 256)")
    parser.add_argument("--size", type=int, default=256, help="nodes per instance (default 256)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--algorithm", default="jaja-ryu", help="partition algorithm")
    parser.add_argument(
        "--no-audit-mix", action="store_true",
        help="send only audited traffic (default mixes audited/unaudited)",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip comparing responses against direct single-instance solves",
    )
    parser.add_argument(
        "--require-batching", action="store_true",
        help="exit 2 unless at least one multi-request batch formed (CI smoke)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics snapshot as JSON to PATH",
    )
    parser.add_argument("--quiet", "-q", action="store_true", help="suppress tables")

    net = parser.add_argument_group("network transport")
    net.add_argument(
        "--http", action="store_true",
        help="serve HTTP instead of running the demo burst",
    )
    net.add_argument("--host", default="127.0.0.1", help="bind address (default loopback)")
    net.add_argument(
        "--port", type=int, default=8080,
        help="TCP port for --http (0 = ephemeral; see --port-file)",
    )
    net.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port to PATH once listening (readiness signal)",
    )
    net.add_argument(
        "--replicas", type=_replicas_spec, default=1, metavar="N|auto",
        help="serve a ReplicaSet of N services behind the ingress "
             "(default 1), or 'auto' to let the pool controller size it "
             "between --min-replicas and --max-replicas",
    )
    net.add_argument(
        "--min-replicas", type=int, default=1, metavar="N",
        help="--replicas auto: lower pool bound and starting size (default 1)",
    )
    net.add_argument(
        "--max-replicas", type=int, default=8, metavar="N",
        help="--replicas auto: upper pool bound (default 8)",
    )
    net.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="rolling-p99 latency SLO: --replicas auto scales up when the "
             "measured p99 exceeds it (and --loadgen uses it to place the "
             "capacity knee)",
    )
    net.add_argument(
        "--scale-interval", type=float, default=0.25, metavar="SECONDS",
        help="--replicas auto: pool-controller tick period, > 0 (default 0.25)",
    )
    net.add_argument(
        "--processes", action="store_true",
        help="run each replica as its own supervised OS process "
             "(crash-restarted, jobs re-homed) instead of in-process",
    )
    net.add_argument(
        "--heartbeat-interval", type=float, default=0.05, metavar="SECONDS",
        help="replica wire-heartbeat period for --processes/--remote (default 0.05)",
    )
    net.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="seconds without a heartbeat before a replica is health-gated "
             "(default max(1.0, 20 * heartbeat interval); must exceed the "
             "interval)",
    )
    net.add_argument(
        "--supervisor-log", default=None, metavar="PATH",
        help="append replica-pool lifecycle and scale events as JSON lines to PATH",
    )
    net.add_argument(
        "--replica-worker", action="store_true",
        help=argparse.SUPPRESS,  # internal: child end of --processes
    )
    net.add_argument(
        "--max-inflight", type=int, default=None,
        help="transport admission cap: pending requests beyond this get 429",
    )
    net.add_argument(
        "--connect", default=None, metavar="URL",
        help="drive an already-running server over the wire instead of "
             "booting one (load generator for CI smoke)",
    )
    net.add_argument(
        "--connect-retries", type=int, default=0, metavar="N",
        help="--connect only: re-send a job on a dropped connection up to "
             "N times (chaos smoke: ride out resets/partitions)",
    )

    remote = parser.add_argument_group("cross-host replicas")
    remote.add_argument(
        "--remote", action="append", default=None, metavar="HOST:PORT",
        help="serve a fleet of remote framed replicas at these addresses "
             "(repeatable); implies --http",
    )
    remote.add_argument(
        "--remote-config", default=None, metavar="PATH",
        help="JSON file with {\"replicas\": [\"host:port\", ...]} to extend "
             "--remote",
    )
    remote.add_argument(
        "--auth-secret", default=None, metavar="SECRET",
        help="framed shared secret: a --replica-worker *requires* it after "
             "the connection magic (and drops plain HTTP), while --remote "
             "presents it when dialing each host "
             "(env REPRO_AUTH_SECRET also works)",
    )

    gen = parser.add_argument_group("open-loop load generator")
    gen.add_argument(
        "--loadgen", action="store_true",
        help="offer requests at a fixed arrival rate to a fresh in-process "
             "pool and report latency/shed (open loop: saturation shows up "
             "instead of being hidden by a self-throttling client)",
    )
    gen.add_argument(
        "--sweep", action="store_true",
        help="--loadgen: run the full capacity sweep (replica counts x "
             "offered rates) and report each pool's knee",
    )
    gen.add_argument(
        "--rate", type=float, default=50.0, metavar="RPS",
        help="--loadgen without --sweep: offered arrival rate (default 50)",
    )
    gen.add_argument(
        "--duration", type=float, default=2.0, metavar="SECONDS",
        help="--loadgen: how long each cell offers load (default 2.0)",
    )
    gen.add_argument(
        "--sweep-replicas", default="1,2,4", metavar="N,N,...",
        help="--sweep: replica counts to sweep (default 1,2,4)",
    )
    gen.add_argument(
        "--sweep-rates", default="25,50,100,200,400", metavar="RPS,RPS,...",
        help="--sweep: offered rates to sweep (default 25,50,100,200,400)",
    )
    gen.add_argument(
        "--max-shed-fraction", type=float, default=0.05, metavar="F",
        help="--sweep: shed fraction above which a cell is past the knee "
             "(default 0.05)",
    )
    gen.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="--loadgen: write the capacity model as JSON to PATH",
    )

    chaos = parser.add_argument_group("chaos proxy")
    chaos.add_argument(
        "--chaos-proxy", action="store_true",
        help="run a deterministic fault-injecting TCP proxy instead of a "
             "server (requires --upstream)",
    )
    chaos.add_argument(
        "--upstream", default=None, metavar="HOST:PORT",
        help="--chaos-proxy: address to forward to",
    )
    chaos.add_argument(
        "--chaos-seed", default="0", metavar="SEED",
        help="named seed for the fault schedule (same seed = same faults)",
    )
    chaos.add_argument(
        "--chaos-faults", default=None, metavar="KINDS",
        help="comma-separated fault kinds to rotate through "
             "(default: all; 'none' = clean pass-through)",
    )
    chaos.add_argument(
        "--chaos-every", type=int, default=3, metavar="N",
        help="inject a fault on every Nth connection (default 3)",
    )
    chaos.add_argument(
        "--chaos-schedule-out", default=None, metavar="PATH",
        help="write the deterministic fault schedule as JSON to PATH "
             "(replay artifact)",
    )
    return parser


def _replicas_spec(value: str):
    """``--replicas`` accepts an integer or the literal ``auto``."""
    if value.strip().lower() == "auto":
        return "auto"
    return int(value)


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating its directory."""
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, document, say) -> None:
    _write_text(path, json.dumps(document, indent=2) + "\n")
    say(f"[repro.serving] wrote {path}")


def _merge_json(path: str, key: str, section, say) -> None:
    """Set ``key`` of the JSON artifact at ``path`` to ``section``, keeping
    its other keys (``BENCH_SERVING.json`` also holds the serving
    experiment's cells)."""
    document = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            document = existing
    document.setdefault("schema", f"{METRICS_SCHEMA}.capacity")
    document.setdefault("schema_version", METRICS_SCHEMA_VERSION)
    document[key] = section
    _write_json(path, document, say)


def _auth_secret(args) -> Optional[str]:
    return args.auth_secret or os.environ.get("REPRO_AUTH_SECRET") or None


def _remote_addresses(args) -> list:
    """Collect the static replica list from --remote and --remote-config."""
    addresses = list(args.remote or [])
    if args.remote_config:
        with open(args.remote_config, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        extra = document.get("replicas") if isinstance(document, dict) else document
        if not isinstance(extra, list) or not all(isinstance(a, str) for a in extra):
            raise ValueError(
                f"{args.remote_config}: expected {{\"replicas\": [\"host:port\", ...]}}"
            )
        addresses.extend(extra)
    return addresses


def serve_http(args, say) -> int:
    """``--http``: boot the ingress and serve until interrupted."""
    from .framing import FramedIngress
    from .remote import RemoteReplicaFleet
    from .replicas import ReplicaSet
    from .service import SolveService
    from .supervisor import ReplicaSupervisor

    service_kwargs = dict(
        workers=args.workers,
        max_batch_size=args.batch_size,
        max_batch_delay=args.batch_delay_ms / 1e3,
        queue_capacity=args.queue_capacity,
        default_algorithm=args.algorithm,
    )
    auto_scale = args.replicas == "auto"
    start_replicas = max(1, args.min_replicas) if auto_scale else max(1, args.replicas)
    remote_addresses = _remote_addresses(args)
    if remote_addresses:
        backend = RemoteReplicaFleet(
            remote_addresses,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            auth_secret=_auth_secret(args),
            event_log=args.supervisor_log,
        ).start()
        say(f"[repro.serving] remote fleet: {backend.num_replicas} host(s) "
            f"at {', '.join(remote_addresses)}")
    elif args.processes:
        backend = ReplicaSupervisor(
            start_replicas,
            service_kwargs=service_kwargs,
            seed=args.seed,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            event_log=args.supervisor_log,
        ).start()
        say(f"[repro.serving] replica supervisor: {backend.num_replicas} "
            f"process(es) x {args.workers} worker(s)")
    elif auto_scale or args.replicas > 1:
        backend = ReplicaSet(start_replicas, seed=args.seed,
                             event_log=args.supervisor_log, **service_kwargs)
        say(f"[repro.serving] replica set: {start_replicas} x {args.workers} worker(s)")
    else:
        backend = SolveService(seed=args.seed, **service_kwargs)

    controller = None
    if auto_scale:
        from .autoscale import AutoscalingPolicy, PoolController

        max_replicas = args.max_replicas
        if remote_addresses:
            # A fleet cannot fork hosts: growth is bounded by the list.
            max_replicas = min(max_replicas, len(remote_addresses))
        try:
            policy = AutoscalingPolicy(
                min_replicas=max(1, args.min_replicas),
                max_replicas=max(1, max_replicas),
                slo_p99_ms=args.slo_p99_ms,
            )
            controller = PoolController(
                backend, policy, recorder=backend.recorder,
                interval=args.scale_interval,
            )
        except ValueError as exc:
            backend.shutdown(drain=True)
            print(f"[repro.serving] {exc}", file=sys.stderr)
            return 2
        controller.start()
        say(f"[repro.serving] pool controller: {policy.min_replicas}.."
            f"{policy.max_replicas} replicas, tick {args.scale_interval:g}s"
            + (f", SLO p99 {policy.slo_p99_ms:g}ms"
               if policy.slo_p99_ms else ""))
    # The fleet authenticates *outbound* to the remote hosts; the local
    # front stays open (HTTP + framed) for healthz/metrics/load-gen.  An
    # auth-requiring framed server is the --replica-worker mode.
    ingress = FramedIngress(
        backend, host=args.host, port=args.port, max_inflight=args.max_inflight
    ).start_in_thread()
    say(f"[repro.serving] listening on {ingress.url} "
        "(HTTP + framed on one port; POST /v1/solve, GET /healthz, "
        "GET /metrics; Ctrl-C to drain and stop)")
    if args.port_file:
        _write_text(args.port_file, f"{ingress.port}\n")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        say("\n[repro.serving] draining...")
    finally:
        if controller is not None:
            controller.stop()
        backend.shutdown(drain=True)
        ingress.close()
    say("[repro.serving] stopped")
    return 0


def run_replica_worker(args, say) -> int:
    """``--replica-worker``: one supervised replica process.

    Serves a single :class:`SolveService` behind a framed ingress on the
    requested (usually ephemeral) port, announces the port through
    ``--port-file``, then waits.  Exits cleanly — drain, flush pending
    pushes, shut down — on SIGTERM/SIGINT, or when stdin reaches EOF
    (the supervisor holds the other end of that pipe, so EOF means the
    parent died and the worker must not linger as an orphan).
    """
    import signal
    import threading

    from .framing import FramedIngress
    from .service import SolveService

    service = SolveService(
        workers=args.workers,
        max_batch_size=args.batch_size,
        max_batch_delay=args.batch_delay_ms / 1e3,
        queue_capacity=args.queue_capacity,
        default_algorithm=args.algorithm,
        seed=args.seed,
    )
    ingress = FramedIngress(
        service, host=args.host, port=args.port, max_inflight=args.max_inflight,
        auth_secret=_auth_secret(args),
    ).start_in_thread()
    if args.port_file:
        _write_text(args.port_file, f"{ingress.port}\n")
    say(f"[repro.serving] replica worker pid {os.getpid()} on {ingress.url}")

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    def _watch_parent() -> None:
        try:
            while os.read(0, 4096):
                pass
        except OSError:
            pass
        stop.set()

    if not sys.stdin.isatty():
        threading.Thread(target=_watch_parent, daemon=True).start()

    stop.wait()
    say(f"[repro.serving] replica worker pid {os.getpid()} draining...")
    service.drain()
    # The futures just resolved; give the event loop a beat to write the
    # corresponding PUSH frames before tearing the sockets down.
    deadline = time.monotonic() + 5.0
    while ingress.jobs.pending_count and time.monotonic() < deadline:
        time.sleep(0.02)
    time.sleep(0.05)
    service.shutdown(drain=True)
    ingress.close()
    return 0


def run_chaos_proxy(args, say) -> int:
    """``--chaos-proxy``: deterministic fault-injecting TCP proxy.

    Sits between clients and an already-running server, injecting the
    seeded fault schedule connection by connection.  The schedule is pure
    — same seed, same faults, same byte offsets — so any chaos run can be
    replayed exactly; ``--chaos-schedule-out`` writes it as JSON for CI
    artifacts.
    """
    from .chaos import FAULT_KINDS, ChaosSchedule, ChaosTcpProxy

    if not args.upstream:
        print("[repro.serving] --chaos-proxy requires --upstream HOST:PORT",
              file=sys.stderr)
        return 2
    schedule: Optional[ChaosSchedule] = None
    if args.chaos_faults != "none":
        if args.chaos_faults:
            faults = tuple(k.strip() for k in args.chaos_faults.split(",") if k.strip())
            unknown = [k for k in faults if k not in FAULT_KINDS]
            if unknown:
                print(f"[repro.serving] unknown fault kind(s) {unknown}; "
                      f"choose from {list(FAULT_KINDS)}", file=sys.stderr)
                return 2
        else:
            faults = FAULT_KINDS
        schedule = ChaosSchedule(args.chaos_seed, faults=faults, every=args.chaos_every)
    proxy = ChaosTcpProxy(args.upstream, schedule=schedule,
                          host=args.host, port=args.port).start()
    if args.chaos_schedule_out and schedule is not None:
        schedule.dump(args.chaos_schedule_out)
        say(f"[repro.serving] wrote fault schedule to {args.chaos_schedule_out}")
    faults_desc = ("disabled" if schedule is None
                   else f"{', '.join(schedule.faults)} every {schedule.every} conns "
                        f"(seed {schedule.seed!r})")
    say(f"[repro.serving] chaos proxy {proxy.address} -> {args.upstream}; "
        f"faults: {faults_desc}")
    if args.port_file:
        _write_text(args.port_file, f"{proxy.port}\n")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        say("\n[repro.serving] chaos proxy stopping...")
    finally:
        proxy.close()
    return 0


def run_loadgen(args, say) -> int:
    """``--loadgen``: open-loop overload measurement.

    ``--sweep`` runs the capacity grid; without it, one cell (``--rate``
    against ``--replicas``) is a one-by-one sweep.
    """
    from .bench import run_capacity_sweep

    if args.sweep:
        replica_counts = [int(x) for x in args.sweep_replicas.split(",") if x.strip()]
        rates = [float(x) for x in args.sweep_rates.split(",") if x.strip()]
    else:
        replica_counts = [max(1, args.min_replicas) if args.replicas == "auto"
                          else max(1, args.replicas)]
        rates = [args.rate]
    model = run_capacity_sweep(
        replica_counts=replica_counts,
        rates_rps=rates,
        duration=args.duration,
        size=args.size,
        seed=args.seed,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        slo_p99_ms=args.slo_p99_ms,
        max_shed_fraction=args.max_shed_fraction,
        algorithm=args.algorithm,
        progress=say,
    )
    cells = model["cells"]
    lost = sum(int(c["lost"]) for c in cells)
    flat = [
        {k: v for k, v in c.items() if not isinstance(v, dict)} for c in cells
    ]
    say("")
    say(render_table(flat, title="open-loop capacity cells"))
    say("")
    say(render_table(model["pools"], title="capacity model (knee per pool size)"))
    say("")
    say(f"[repro.serving] {sum(int(c['requests']) for c in cells)} offered, "
        f"{sum(int(c['completed']) for c in cells)} completed, "
        f"{sum(int(c['shed']) for c in cells)} shed, {lost} lost")
    if args.bench_out:
        _merge_json(args.bench_out, "capacity_model", model, say)
    if lost:
        print(f"[repro.serving] FAILURE: {lost} admitted job(s) never "
              "settled (overload must shed, not lose)", file=sys.stderr)
        return 1
    return 0


def run_burst(args, say) -> int:
    """The default burst, or with ``--connect URL`` the same burst over
    HTTP at a running server: fire, verify, report, exit."""
    if args.connect:
        say(f"[repro.serving] over-the-wire burst of {args.requests} requests "
            f"(n={args.size}) -> {args.connect}")
        target = dict(url=args.connect, transport="http",
                      connect_retries=max(0, args.connect_retries))
    else:
        say(f"[repro.serving] burst of {args.requests} requests (n={args.size}) -> "
            f"{args.workers} worker(s), batch<= {args.batch_size}, "
            f"delay {args.batch_delay_ms}ms")
        target = {}
    report = run_load(
        workers=args.workers,
        max_batch_size=args.batch_size,
        max_batch_delay=args.batch_delay_ms / 1e3,
        queue_capacity=args.queue_capacity,
        requests=args.requests,
        size=args.size,
        seed=args.seed,
        algorithm=args.algorithm,
        audit_mix=not args.no_audit_mix,
        verify=not args.no_verify,
        **target,
    )
    m = report.metrics
    say("")
    say(render_table(m.as_rows(), title="repro.serving metrics snapshot"))
    if m.workers:
        say("")
        say(render_table(m.workers, title="per-worker shards"))
    say("")
    say(
        f"[repro.serving] completed {report.completed}/{len(report.responses)} "
        f"in {report.wall_seconds:.3f}s "
        f"({report.completed / report.wall_seconds:.1f} req/s); "
        f"{m.batches} batches, {m.multi_request_batches} multi-request "
        f"(largest {m.max_occupancy}, mean occupancy {m.mean_occupancy:.2f})"
    )
    if report.verified is not None:
        say("[repro.serving] verification vs direct coarsest_partition: "
            f"{'OK' if report.verified else 'MISMATCH'}")

    if args.metrics_out:
        document = {
            "schema": METRICS_SCHEMA,
            "schema_version": METRICS_SCHEMA_VERSION,
            "config": report.config,
        }
        if report.server_metrics is not None:
            document["server_metrics"] = report.server_metrics
        else:
            document["metrics"] = m.as_dict()
        document.update(
            wall_seconds=round(report.wall_seconds, 4),
            completed=report.completed,
            verified=report.verified,
        )
        _write_json(args.metrics_out, document, say)

    if not report.all_done or report.verified is False:
        print(
            f"[repro.serving] FAILURE: {len(report.responses) - report.completed} "
            f"incomplete, {len(report.mismatches)} mismatched responses",
            file=sys.stderr,
        )
        return 1
    if args.require_batching and not report.coalesced:
        print(
            "[repro.serving] FAILURE: no multi-request batch formed "
            "(--require-batching)",
            file=sys.stderr,
        )
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    say = (lambda *_: None) if args.quiet else print
    if sum(bool(m) for m in (args.http or args.remote or args.remote_config,
                             args.connect, args.chaos_proxy,
                             args.loadgen)) > 1:
        print("[repro.serving] --http/--remote, --connect, --chaos-proxy "
              "and --loadgen are mutually exclusive", file=sys.stderr)
        return 2
    if args.chaos_proxy:
        return run_chaos_proxy(args, say)
    if args.replica_worker:
        return run_replica_worker(args, say)
    if args.http or args.remote or args.remote_config:
        return serve_http(args, say)
    if args.loadgen:
        return run_loadgen(args, say)
    return run_burst(args, say)


if __name__ == "__main__":
    sys.exit(main())
