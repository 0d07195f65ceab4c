"""Command-line front end: ``python -m repro.serving`` / ``repro-serve``.

One subcommand per mode; each accepts only the flags its mode reads.  A
usage or configuration error (a flag from another mode, a ``serve`` flag
of a sub-mode not selected, a malformed value, an unreadable
``--remote-config``) names the flag and exits 2 before anything binds,
spawns or dials.

``serve`` boots the protocol-sniffing ingress (:mod:`repro.serving.framing`:
framed and HTTP on one port) in front of a
:class:`~repro.serving.service.SolveService`, a
:class:`~repro.serving.replicas.ReplicaSet` (``--replicas N``, or ``auto``
under a :class:`~repro.serving.autoscale.PoolController`), with
``--processes`` a :class:`~repro.serving.supervisor.ReplicaSupervisor` of
child processes, or with ``--remote``/``--remote-config`` a
:class:`~repro.serving.remote.RemoteReplicaFleet` of framed hosts.  It
serves until interrupted and exits 0 once drained.

``worker`` is the child that ``serve --processes`` spawns, and a
standalone remote host: one service behind a framed ingress, its port
announced through ``--port-file``.  It drains and exits 0 on SIGTERM or
SIGINT, or when its parent's stdin pipe closes.

``proxy`` is a deterministic fault-injecting TCP proxy in front of
``--upstream`` (:mod:`repro.serving.chaos`), its seeded schedule
replayable via ``--chaos-seed`` and exported with
``--chaos-schedule-out``.  It exits 0 when interrupted.

``load`` offers each rate of ``--rates`` open loop to a fresh in-process
pool of each size in ``--replicas`` and reports each cell's latency and
shed fraction and each pool's knee, the highest rate absorbed with p99
within ``--slo-p99-ms``: the capacity model that ``--bench-out`` merges
into ``BENCH_SERVING.json``.  It exits 1 if an admitted job never
settled, else 0.

``burst``, the demo and CI serving smoke, fires ``--requests`` concurrent
solves at a fresh in-process service, verifies each response against a
direct single-instance solve and prints the metrics table.  It exits 0
on success, 1 on lost, incomplete or mismatched jobs, and 2 when
``--require-batching`` saw no multi-request batch.

``connect URL`` fires the same burst at a running server over HTTP
through the same driver (:func:`~repro.serving.bench.run_load`), with
``burst``'s report and exit codes; its metrics are the server's.
``--connect-retries N`` rides out dropped connections.

The acceptance configuration, then a 3-replica server on an ephemeral
port (the CI ``transport-smoke`` pattern) driven over the wire::

    python -m repro.serving burst --workers 4 --batch-size 32 --requests 256
    repro-serve serve --port 0 --replicas 3 --port-file /tmp/port &
    repro-serve connect http://127.0.0.1:$(cat /tmp/port) --requests 64
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import threading
import time
from typing import Optional, Sequence

from ..analysis.tables import render_table
from . import (FAULT_KINDS, AutoscalingPolicy, ChaosSchedule, ChaosTcpProxy,
               FramedIngress, PoolController, RemoteReplicaFleet, ReplicaSet,
               ReplicaSupervisor, SolveService)
from .bench import run_capacity_sweep, run_load
from .handles import parse_address

#: Schema stamp of the ``--metrics-out`` JSON document.
METRICS_SCHEMA = "repro.serving"
METRICS_SCHEMA_VERSION = 1

#: Effective defaults of the flags parsed with default ``None``, so that
#: ``serve`` can tell a flag given from one left out.
_DEFAULTS = dict(algorithm="jaja-ryu", seed=0, workers=4, queue_capacity=1024,
                 batch_size=32, batch_delay_ms=2.0, replicas=1, min_replicas=1,
                 max_replicas=8, scale_interval=0.25, heartbeat_interval=0.05)
#: ``serve`` flags only ``--replicas auto`` reads, flags a remote fleet
#: (built from its host addresses alone) never reads, and flags only
#: replica processes (``--processes``) or a remote fleet read.
_AUTO_FLAGS = ("min_replicas", "max_replicas", "slo_p99_ms", "scale_interval")
_LOCAL_FLAGS = ("workers", "batch_size", "batch_delay_ms", "queue_capacity", "algorithm", "seed")
_SUPERVISED_FLAGS = ("heartbeat_interval", "heartbeat_timeout", "auth_secret")


def _group(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A flag group that subcommands take as a parent parser."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _mode(modes, name: str, run, parents: list, help: str) -> argparse.ArgumentParser:
    """One subcommand; no flag abbreviations, so no retired spelling
    (``--rate``) survives as a prefix of a current one (``--rates``)."""
    sub = modes.add_parser(name, parents=parents, help=help, allow_abbrev=False)
    sub.set_defaults(run=run)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving", allow_abbrev=False,
        description="Serve, drive and measure the micro-batching SFCP service.",
    )
    modes = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    quiet = _group()
    quiet.add_argument("--quiet", "-q", action="store_true", help="suppress tables")
    solve = _group(quiet)
    solve.add_argument("--algorithm", default=None, help="partition algorithm")
    solve.add_argument("--seed", type=int, default=None, help="generator seed")
    # Service sizing; `load` builds its pools without the batching knobs.
    pool = _group(solve)
    pool.add_argument("--workers", type=_positive(int), default=None,
                      help="worker shards (default 4)")
    pool.add_argument("--queue-capacity", type=_positive(int), default=None,
                      help="ingress bound")
    service = _group(pool)
    service.add_argument("--batch-size", type=_positive(int), default=None,
                         help="max requests per batch")
    service.add_argument(
        "--batch-delay-ms", type=float, default=None,
        help="max time a partially-filled batch is held open (default 2ms)",
    )
    listen = _group()
    listen.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback)")
    listen.add_argument("--port", type=int, default=8080,
                        help="TCP port (0 = ephemeral; see --port-file)")
    listen.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port to PATH once listening (readiness signal)",
    )
    ingress = _group(service, listen)
    ingress.add_argument(
        "--max-inflight", type=int, default=None,
        help="transport admission cap: pending requests beyond this get 429",
    )
    stream = _group()
    stream.add_argument("--requests", type=_positive(int), default=256,
                        help="burst size (default 256)")
    stream.add_argument("--size", type=_positive(int), default=256,
                        help="nodes per instance (default 256)")
    stream.add_argument(
        "--no-audit-mix", action="store_true",
        help="send only audited traffic (default mixes audited/unaudited)",
    )
    stream.add_argument(
        "--no-verify", action="store_true",
        help="skip comparing responses against direct single-instance solves",
    )
    stream.add_argument(
        "--require-batching", action="store_true",
        help="exit 2 unless at least one multi-request batch formed (CI smoke)",
    )
    stream.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics snapshot as JSON to PATH",
    )
    secret = os.environ.get("REPRO_AUTH_SECRET")

    serve = _mode(modes, "serve", cmd_serve, [ingress],
                  "serve HTTP and framed requests until interrupted")
    serve.add_argument(
        "--replicas", type=_replicas_spec, default=None, metavar="N|auto",
        help="serve a ReplicaSet of N services behind the ingress "
             "(default 1), or 'auto' to let the pool controller size it "
             "between --min-replicas and --max-replicas",
    )
    serve.add_argument(
        "--min-replicas", type=_positive(int), default=None, metavar="N",
        help="--replicas auto: lower pool bound and starting size (default 1)",
    )
    serve.add_argument("--max-replicas", type=_positive(int), default=None, metavar="N",
                       help="--replicas auto: upper pool bound (default 8)")
    serve.add_argument(
        "--slo-p99-ms", type=_positive(float), default=None, metavar="MS",
        help="--replicas auto: also scale up while the rolling p99 exceeds MS",
    )
    serve.add_argument(
        "--scale-interval", type=_positive(float), default=None, metavar="SECONDS",
        help="--replicas auto: pool-controller tick period, > 0 (default 0.25)",
    )
    serve.add_argument(
        "--processes", action="store_true",
        help="run each replica as its own supervised OS process "
             "(crash-restarted, jobs re-homed) instead of in-process",
    )
    serve.add_argument(
        "--heartbeat-interval", type=_positive(float), default=None, metavar="SECONDS",
        help="replica wire-heartbeat period for --processes/--remote (default 0.05)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=_positive(float), default=None, metavar="SECONDS",
        help="seconds without a heartbeat before a replica is health-gated "
             "(default max(1.0, 20 * heartbeat interval); must exceed the "
             "interval)",
    )
    serve.add_argument(
        "--supervisor-log", default=None, metavar="PATH",
        help="append replica-pool lifecycle and scale events as JSON lines to PATH "
             "(--replicas above 1 or auto, --processes or --remote)",
    )
    serve.add_argument(
        "--remote", type=_address, action="append", default=None, metavar="HOST:PORT",
        help="serve a fleet of remote framed replicas at these addresses (repeatable)",
    )
    serve.add_argument(
        "--remote-config", type=_remote_config, default=None, metavar="PATH",
        help="JSON file with {\"replicas\": [\"host:port\", ...]} to extend --remote",
    )
    serve.add_argument(
        "--auth-secret", default=None, metavar="SECRET",
        help="framed shared secret presented when dialing each remote host, "
             "or required of and presented to the --processes workers "
             "(env REPRO_AUTH_SECRET also works); the front end itself "
             "asks no secret",
    )

    worker = _mode(modes, "worker", cmd_worker, [ingress],
                   "one replica behind a framed ingress (the child of serve --processes)")
    worker.add_argument(
        "--auth-secret", default=secret, metavar="SECRET",
        help="framed shared secret required after the connection magic; plain "
             "HTTP is then dropped (env REPRO_AUTH_SECRET also works)",
    )

    proxy = _mode(modes, "proxy", cmd_proxy, [quiet, listen],
                  "deterministic fault-injecting TCP proxy in front of --upstream")
    proxy.add_argument("--upstream", required=True, metavar="HOST:PORT",
                       help="address to forward to")
    proxy.add_argument(
        "--chaos-seed", default="0", metavar="SEED",
        help="named seed for the fault schedule (same seed = same faults)",
    )
    proxy.add_argument(
        "--chaos-faults", type=_fault_kinds, default=FAULT_KINDS, metavar="KINDS",
        help="comma-separated fault kinds to rotate through "
             "(default: all; 'none' = clean pass-through)",
    )
    proxy.add_argument("--chaos-every", type=_positive(int), default=3, metavar="N",
                       help="inject a fault on every Nth connection (default 3)")
    proxy.add_argument(
        "--chaos-schedule-out", default=None, metavar="PATH",
        help="write the deterministic fault schedule as JSON to PATH (replay artifact)",
    )

    load = _mode(modes, "load", cmd_load, [pool],
                 "open-loop capacity grid against fresh in-process pools")
    load.add_argument("--size", type=_positive(int), default=256,
                      help="nodes per instance (default 256)")
    load.add_argument("--replicas", type=_positive(int, many=True), default=[1],
                      metavar="N,...", help="pool sizes to measure (default 1)")
    load.add_argument("--rates", type=_positive(float, many=True), default=[50.0],
                      metavar="RPS,...", help="offered arrival rates (default 50)")
    load.add_argument(
        "--duration", type=_positive(float), default=2.0, metavar="SECONDS",
        help="how long each cell offers load (default 2.0)",
    )
    load.add_argument(
        "--slo-p99-ms", type=_positive(float), default=500.0, metavar="MS",
        help="a pool's knee needs p99 within MS (default 500)",
    )
    load.add_argument(
        "--max-shed-fraction", type=float, default=0.05, metavar="F",
        help="shed fraction above which a cell is past the knee (default 0.05)",
    )
    load.add_argument("--bench-out", default=None, metavar="PATH",
                      help="merge the capacity model as JSON into PATH")

    _mode(modes, "burst", cmd_burst, [service, stream],
          "verified burst at a fresh in-process service (demo and CI smoke)")
    connect = _mode(modes, "connect", cmd_connect, [solve, stream],
                    "verified burst at a running server over HTTP")
    connect.add_argument("url", metavar="URL", help="base URL of the server")
    connect.add_argument(
        "--connect-retries", type=int, default=0, metavar="N",
        help="re-send a job on a dropped connection up to N times "
             "(chaos smoke: ride out resets/partitions)",
    )
    return parser


def _replicas_spec(value: str):
    """``serve --replicas`` accepts an integer > 0 or the literal ``auto``."""
    return "auto" if value.strip().lower() == "auto" else _positive(int)(value)


def _positive(kind, many: bool = False):
    """Type of a flag taking a finite ``kind`` > 0, or with ``many`` a
    comma-separated list of them."""
    def parse(text: str):
        try:
            values = [kind(x) for x in (text.split(",") if many else [text])]
        except ValueError:
            values = []
        if not values or not all(0 < v < math.inf for v in values):
            raise argparse.ArgumentTypeError(
                f"expected {'comma-separated ' if many else ''}{kind.__name__} > 0, "
                f"got {text!r}")
        return values if many else values[0]
    return parse


def _address(text: str) -> str:
    """A replica ``HOST:PORT``, checked before anything dials it."""
    try:
        if parse_address(text)[1] <= 65535:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")


def _remote_config(path: str) -> list:
    """The addresses in a ``{"replicas": ["host:port", ...]}`` JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc}") from None
    addresses = document.get("replicas") if isinstance(document, dict) else document
    if (not addresses or not isinstance(addresses, list)
            or not all(isinstance(a, str) for a in addresses)):
        raise argparse.ArgumentTypeError(
            f"{path}: expected {{\"replicas\": [\"host:port\", ...]}}")
    return [_address(a) for a in addresses]


def _fault_kinds(text: str) -> tuple:
    """``--chaos-faults``: known fault kinds, or ``none`` for no faults."""
    if text == "none":
        return ()
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    unknown = [k for k in kinds if k not in FAULT_KINDS]
    if unknown or not kinds:
        raise argparse.ArgumentTypeError(
            f"unknown fault kind(s) {unknown}; choose from {list(FAULT_KINDS)} or 'none'")
    return kinds


def _refuse(message: str) -> int:
    print(f"[repro.serving] {message}", file=sys.stderr)
    return 2


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


def _service_kwargs(args) -> dict:
    return dict(
        workers=args.workers,
        max_batch_size=args.batch_size,
        max_batch_delay=args.batch_delay_ms / 1e3,
        queue_capacity=args.queue_capacity,
        default_algorithm=args.algorithm,
    )


def cmd_serve(args, say) -> int:
    """``serve``: boot the ingress and serve until interrupted."""
    remote_addresses = (args.remote or []) + (args.remote_config or [])
    auto = args.replicas == "auto"
    unread = [(f, "is read only with --replicas auto") for f in _AUTO_FLAGS if not auto]
    if remote_addresses:
        unread += [(f, "is not read by a --remote/--remote-config fleet")
                   for f in _LOCAL_FLAGS + (() if auto else ("replicas",))]
    if not (remote_addresses or args.processes):
        unread += [(f, "is read only with --processes or --remote") for f in _SUPERVISED_FLAGS]
        if not (auto or args.replicas > 1):
            unread.append(("supervisor_log", "is read only with --replicas above 1 "
                                             "or auto, --processes or --remote"))
    for flag, why in unread:
        if flag in args.given:
            return _refuse(f"--{flag.replace('_', '-')} {why}")
    secret = args.auth_secret or os.environ.get("REPRO_AUTH_SECRET") or None
    if remote_addresses and args.processes:
        return _refuse("--processes cannot be combined with --remote or "
                       "--remote-config: remote hosts run their own processes")
    if (args.heartbeat_timeout is not None
            and args.heartbeat_timeout <= args.heartbeat_interval):
        return _refuse(f"--heartbeat-timeout ({args.heartbeat_timeout:g}s) must "
                       f"exceed --heartbeat-interval ({args.heartbeat_interval:g}s)")
    policy = None
    if args.replicas == "auto":
        max_replicas = args.max_replicas
        if remote_addresses:
            # A fleet cannot fork hosts: growth is bounded by the list.
            max_replicas = min(max_replicas, len(remote_addresses))
        try:
            policy = AutoscalingPolicy(min_replicas=args.min_replicas,
                                       max_replicas=max_replicas,
                                       slo_p99_ms=args.slo_p99_ms)
        except ValueError as exc:
            return _refuse(f"--min-replicas/--max-replicas: {exc}")

    service_kwargs = _service_kwargs(args)
    start_replicas = policy.min_replicas if policy is not None else args.replicas
    if remote_addresses:
        backend = RemoteReplicaFleet(
            remote_addresses,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            auth_secret=secret,
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
            auth_secret=secret,
        ).start()
        say(f"[repro.serving] replica supervisor: {backend.num_replicas} "
            f"process(es) x {args.workers} worker(s)")
    elif policy is not None or start_replicas > 1:
        backend = ReplicaSet(start_replicas, seed=args.seed,
                             event_log=args.supervisor_log, **service_kwargs)
        say(f"[repro.serving] replica set: {start_replicas} x {args.workers} worker(s)")
    else:
        backend = SolveService(seed=args.seed, **service_kwargs)

    controller = None
    if policy is not None:
        controller = PoolController(
            backend, policy, recorder=backend.recorder, interval=args.scale_interval,
        )
        controller.start()
        say(f"[repro.serving] pool controller: {policy.min_replicas}.."
            f"{policy.max_replicas} replicas, tick {args.scale_interval:g}s"
            + (f", SLO p99 {policy.slo_p99_ms:g}ms"
               if policy.slo_p99_ms else ""))
    # The fleet authenticates *outbound* to the remote hosts; the local
    # front stays open (HTTP + framed) for healthz/metrics/load-gen.  An
    # auth-requiring framed server is the `worker` subcommand.
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


def cmd_worker(args, say) -> int:
    """``worker``: one supervised replica process.

    Serves a single :class:`SolveService` behind a framed ingress on the
    requested (usually ephemeral) port, announces the port through
    ``--port-file``, then waits.  Exits cleanly — drain, flush pending
    pushes, shut down — on SIGTERM/SIGINT, or when stdin reaches EOF
    (the supervisor holds the other end of that pipe, so EOF means the
    parent died and the worker must not linger as an orphan).
    """
    service = SolveService(seed=args.seed, **_service_kwargs(args))
    ingress = FramedIngress(
        service, host=args.host, port=args.port, max_inflight=args.max_inflight,
        auth_secret=args.auth_secret or None,
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


def cmd_proxy(args, say) -> int:
    """``proxy``: deterministic fault-injecting TCP proxy.

    Sits between clients and an already-running server, injecting the
    seeded fault schedule connection by connection.  The schedule is pure
    — same seed, same faults, same byte offsets — so any chaos run can be
    replayed exactly; ``--chaos-schedule-out`` writes it as JSON for CI
    artifacts.
    """
    schedule: Optional[ChaosSchedule] = None
    if args.chaos_faults:
        schedule = ChaosSchedule(args.chaos_seed, faults=args.chaos_faults,
                                 every=args.chaos_every)
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


def cmd_load(args, say) -> int:
    """``load``: open-loop overload measurement over the ``--replicas`` x
    ``--rates`` grid."""
    model = run_capacity_sweep(
        replica_counts=args.replicas,
        rates_rps=args.rates,
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


def _stream_kwargs(args) -> dict:
    return dict(requests=args.requests, size=args.size, seed=args.seed,
                algorithm=args.algorithm, audit_mix=not args.no_audit_mix,
                verify=not args.no_verify)


def cmd_burst(args, say) -> int:
    """``burst``: fire the burst at a fresh in-process service."""
    say(f"[repro.serving] burst of {args.requests} requests (n={args.size}) -> "
        f"{args.workers} worker(s), batch<= {args.batch_size}, "
        f"delay {args.batch_delay_ms}ms")
    return _report(args, say, run_load(
        workers=args.workers,
        max_batch_size=args.batch_size,
        max_batch_delay=args.batch_delay_ms / 1e3,
        queue_capacity=args.queue_capacity,
        **_stream_kwargs(args),
    ))


def cmd_connect(args, say) -> int:
    """``connect URL``: fire the same burst over HTTP at a running server."""
    say(f"[repro.serving] over-the-wire burst of {args.requests} requests "
        f"(n={args.size}) -> {args.url}")
    return _report(args, say, run_load(
        url=args.url, transport="http", connect_retries=max(0, args.connect_retries),
        **_stream_kwargs(args),
    ))


def _report(args, say, report) -> int:
    """Print a burst's metrics, write ``--metrics-out`` and pick the exit code."""
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
    args.given = {k for k in (*_DEFAULTS, "slo_p99_ms", "heartbeat_timeout", "supervisor_log",
                              "auth_secret") if getattr(args, k, None) is not None}
    for key, value in _DEFAULTS.items():
        if getattr(args, key, value) is None:
            setattr(args, key, value)
    say = (lambda *_: None) if args.quiet else print
    return args.run(args, say)


if __name__ == "__main__":
    sys.exit(main())
