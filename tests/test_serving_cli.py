"""The ``repro-serve`` command line: one subcommand per mode, each taking
only the flags its mode reads, and every configuration error refused
with exit 2 before anything binds, spawns or dials."""
import argparse
import json
import re

import pytest

import repro.serving.__main__ as cli

URL = "http://127.0.0.1:1"

FLAGS = {
    "serve": {
        "-h", "--help", "-q", "--quiet", "--algorithm", "--seed", "--workers",
        "--queue-capacity", "--batch-size", "--batch-delay-ms", "--host",
        "--port", "--port-file", "--max-inflight", "--replicas",
        "--min-replicas", "--max-replicas", "--slo-p99-ms", "--scale-interval",
        "--processes", "--heartbeat-interval", "--heartbeat-timeout",
        "--supervisor-log", "--remote", "--remote-config", "--auth-secret",
    },
    "worker": {
        "-h", "--help", "-q", "--quiet", "--algorithm", "--seed", "--workers",
        "--queue-capacity", "--batch-size", "--batch-delay-ms", "--host",
        "--port", "--port-file", "--max-inflight", "--auth-secret",
    },
    "proxy": {
        "-h", "--help", "-q", "--quiet", "--host", "--port", "--port-file",
        "--upstream", "--chaos-seed", "--chaos-faults", "--chaos-every",
        "--chaos-schedule-out",
    },
    "load": {
        "-h", "--help", "-q", "--quiet", "--algorithm", "--seed", "--workers",
        "--queue-capacity", "--size", "--replicas", "--rates", "--duration",
        "--slo-p99-ms", "--max-shed-fraction", "--bench-out",
    },
    "burst": {
        "-h", "--help", "-q", "--quiet", "--algorithm", "--seed", "--workers",
        "--queue-capacity", "--batch-size", "--batch-delay-ms", "--requests",
        "--size", "--no-audit-mix", "--no-verify", "--require-batching",
        "--metrics-out",
    },
    "connect": {
        "-h", "--help", "-q", "--quiet", "--algorithm", "--seed", "--requests",
        "--size", "--no-audit-mix", "--no-verify", "--require-batching",
        "--metrics-out", "--connect-retries",
    },
}


def _modes():
    (modes,) = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    return modes.choices


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_help_lists_exactly_the_six_subcommands(capsys):
    assert list(_modes()) == ["serve", "worker", "proxy", "load", "burst", "connect"]
    assert _exit_code(["--help"]) == 0
    listed = re.findall(r"^ {4}(\w+) ", capsys.readouterr().out, re.MULTILINE)
    assert listed == list(FLAGS)


@pytest.mark.parametrize("command", FLAGS)
def test_each_subcommand_accepts_exactly_the_flags_its_mode_reads(command):
    parser = _modes()[command]
    assert {s for a in parser._actions for s in a.option_strings} == FLAGS[command]


@pytest.mark.parametrize("argv", [
    # flags of another mode, once silently dropped
    ["load", "--batch-size", "8"],
    ["connect", URL, "--workers", "8"],
    ["proxy", "--upstream", "h:1", "--workers", "3"],
    ["serve", "--rates", "1"],
    ["load", "--replicas", "auto"],
    ["load", "--min-replicas", "2"],
    # retired spellings, with no alias, not even as a prefix
    [],
    ["--workers", "2", "--requests", "64"],
    ["--http", "--port", "0"],
    ["serve", "--http"],
    ["--connect", URL],
    ["connect", URL, "--connect", URL],
    ["--loadgen"],
    ["load", "--sweep"],
    ["load", "--rate", "50"],
    ["load", "--sweep-replicas", "1,2"],
    ["load", "--sweep-rates", "50,100"],
    ["--chaos-proxy", "--upstream", "h:1"],
    ["--replica-worker", "--port", "0"],
])
def test_a_flag_this_mode_does_not_read_exits_2(argv, capsys):
    assert _exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["serve", "--remote", "nohost"], "--remote"),
    (["serve", "--remote", "h:port"], "--remote"),
    (["serve", "--remote-config", "{missing}"], "--remote-config"),
    (["serve", "--remote-config", "{not_json}"], "--remote-config"),
    (["serve", "--remote-config", "{not_a_list}"], "--remote-config"),
    (["serve", "--remote-config", "{bad_address}"], "--remote-config"),
    (["serve", "--heartbeat-timeout", "0.05"], "--heartbeat-timeout"),
    (["serve", "--processes", "--heartbeat-interval", "0.5",
      "--heartbeat-timeout", "0.2"], "--heartbeat-timeout"),
    (["serve", "--remote", "127.0.0.1:1", "--heartbeat-timeout", "0.01"],
     "--heartbeat-timeout"),
    (["serve", "--replicas", "0"], "--replicas"),
    (["serve", "--replicas", "auto", "--min-replicas", "3", "--max-replicas", "2"],
     "--min-replicas"),
    (["serve", "--processes", "--remote", "127.0.0.1:1"], "--processes"),
    (["serve", "--processes", "--remote-config", "{fleet}"], "--processes"),
    (["load", "--replicas", "1,x"], "--replicas"),
    (["load", "--replicas", "0"], "--replicas"),
    (["load", "--rates", "50,"], "--rates"),
    (["load", "--rates", "nan"], "--rates"),
    (["load", "--queue-capacity", "0"], "--queue-capacity"),
    (["burst", "--workers", "0"], "--workers"),
    (["proxy", "--upstream", "127.0.0.1:1", "--chaos-every", "0"], "--chaos-every"),
    # serve flags of a sub-mode not selected
    (["serve", "--replicas", "2", "--max-replicas", "4"], "--max-replicas"),
    (["serve", "--min-replicas", "2"], "--min-replicas"),
    (["serve", "--slo-p99-ms", "5"], "--slo-p99-ms"),
    (["serve", "--processes", "--scale-interval", "0.1"], "--scale-interval"),
    *[(["serve", "--remote", "127.0.0.1:1", flag, value], flag) for flag, value in [
        ("--workers", "2"), ("--batch-size", "8"), ("--batch-delay-ms", "1"),
        ("--queue-capacity", "8"), ("--algorithm", "srikant"), ("--seed", "0"),
        ("--replicas", "2")]],
    (["serve", "--remote-config", "{fleet}", "--replicas", "auto", "--workers", "2"],
     "--workers"),
    # serve flags that only replica pools, processes or a remote fleet read
    (["serve", "--supervisor-log", "{log}"], "--supervisor-log"),
    (["serve", "--replicas", "1", "--supervisor-log", "{log}"], "--supervisor-log"),
    (["serve", "--heartbeat-interval", "0.1"], "--heartbeat-interval"),
    (["serve", "--replicas", "2", "--heartbeat-timeout", "2"], "--heartbeat-timeout"),
    (["serve", "--replicas", "auto", "--heartbeat-interval", "0.5",
      "--heartbeat-timeout", "0.2"], "--heartbeat-interval"),
    # the front end asks no secret: one given would protect nothing
    (["serve", "--auth-secret", "s3cret"], "--auth-secret"),
    (["serve", "--replicas", "auto", "--auth-secret", "s3cret"], "--auth-secret"),
])
def test_configuration_errors_exit_2_naming_the_flag(argv, flag, tmp_path,
                                                     monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a refused configuration must not bind, spawn or dial")

    for name in ("SolveService", "ReplicaSet", "ReplicaSupervisor",
                 "RemoteReplicaFleet", "FramedIngress", "ChaosTcpProxy",
                 "run_capacity_sweep", "run_load"):
        monkeypatch.setattr(cli, name, forbidden)
    files = {"missing": tmp_path / "missing.json", "log": tmp_path / "events.jsonl"}
    for name, document in [("not_json", "{"),
                           ("not_a_list", json.dumps({"replicas": "h:1"})),
                           ("bad_address", json.dumps({"replicas": ["h:1", "h"]})),
                           ("fleet", json.dumps({"replicas": ["127.0.0.1:1"]}))]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(document)
    assert _exit_code([arg.format(**files) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(rf"(error: argument |^\[repro\.serving\] ){flag}\b",
                     err.strip().splitlines()[-1])


def test_serve_keeps_its_defaults_and_reads_auto_flags_under_auto(monkeypatch):
    built = []

    def backend(*args, **kwargs):
        built.append((args, kwargs))
        raise SystemExit(0)  # stop before anything binds

    for name in ("SolveService", "ReplicaSet", "RemoteReplicaFleet", "ReplicaSupervisor"):
        monkeypatch.setattr(cli, name, backend)
    # a secret in the environment starts every mode; the supervised ones read it
    monkeypatch.setenv("REPRO_AUTH_SECRET", "from-env")
    for argv in (["serve"], ["serve", "--replicas", "auto", "--min-replicas", "2"],
                 ["serve", "--remote", "127.0.0.1:1", "--replicas", "auto", "--max-replicas", "1"],
                 ["serve", "--processes"]):
        assert _exit_code(argv) == 0
    service = dict(seed=0, workers=4, max_batch_size=32, max_batch_delay=0.002,
                   queue_capacity=1024, default_algorithm="jaja-ryu")
    assert built[:2] == [((), service), ((2,), dict(event_log=None, **service))]
    assert built[2][0] == (["127.0.0.1:1"],)
    for _, kwargs in built[2:]:
        assert kwargs["auth_secret"] == "from-env" and kwargs["heartbeat_interval"] == 0.05


#: The flags only replica pools, processes or a remote fleet read, and
#: what each of those modes must pass its backend.
SUPERVISED = ["--supervisor-log", "{log}", "--heartbeat-interval", "0.1",
              "--heartbeat-timeout", "1", "--auth-secret", "s3cret"]
SUPERVISED_KWARGS = dict(event_log="{log}", heartbeat_interval=0.1,
                         heartbeat_timeout=1.0, auth_secret="s3cret")


@pytest.mark.parametrize("argv, backend, expected", [
    (["serve", "--replicas", "2", "--supervisor-log", "{log}"], "ReplicaSet",
     dict(event_log="{log}")),
    (["serve", "--replicas", "auto", "--supervisor-log", "{log}"], "ReplicaSet",
     dict(event_log="{log}")),
    (["serve", "--processes", *SUPERVISED], "ReplicaSupervisor", SUPERVISED_KWARGS),
    (["serve", "--remote", "127.0.0.1:1", *SUPERVISED], "RemoteReplicaFleet",
     SUPERVISED_KWARGS),
], ids=["replicas-2", "replicas-auto", "processes", "remote"])
def test_the_modes_that_read_a_supervised_flag_pass_it_on(argv, backend, expected,
                                                          tmp_path, monkeypatch):
    built = []

    def recorder(name):
        def build(*args, **kwargs):
            built.append((name, kwargs))
            raise SystemExit(0)  # stop before anything binds
        return build

    for name in ("SolveService", "ReplicaSet", "ReplicaSupervisor", "RemoteReplicaFleet"):
        monkeypatch.setattr(cli, name, recorder(name))
    monkeypatch.delenv("REPRO_AUTH_SECRET", raising=False)
    log = str(tmp_path / "events.jsonl")
    assert _exit_code([arg.format(log=log) for arg in argv]) == 0
    ((name, kwargs),) = built
    assert name == backend
    for key, value in expected.items():
        assert kwargs[key] == (value.format(log=log) if isinstance(value, str) else value)
