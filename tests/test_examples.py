"""The example scripts must stay runnable (they are part of the public docs)."""
import os
import pathlib
import py_compile
import subprocess
import sys


REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"


def _run_example(*argv, timeout=600):
    # Examples import `repro`; make sure the child sees the src layout even
    # when the suite itself runs via pytest's `pythonpath` setting (which is
    # not inherited by subprocesses) instead of an installed package.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_all_examples_compile():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 5
    for script in scripts:
        py_compile.compile(str(script), doraise=True)


def test_quickstart_runs_and_reproduces_paper_example():
    proc = _run_example(EXAMPLES / "quickstart.py", timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "blocks       = 4" in proc.stdout
    assert "Phase breakdown" in proc.stdout


def test_scaling_study_runs_small():
    proc = _run_example(EXAMPLES / "scaling_study.py", "11")
    assert proc.returncode == 0, proc.stderr
    assert "E1: work comparison" in proc.stdout


def test_batch_throughput_example_runs():
    proc = _run_example(EXAMPLES / "batch_throughput.py", "--instances", "6", "--size", "64")
    assert proc.returncode == 0, proc.stderr
    assert "solve_batch" in proc.stdout
    assert "audit=False" in proc.stdout


def test_transport_demo_example_runs():
    proc = _run_example(EXAMPLES / "transport_demo.py", "--requests", "6", "--size", "48")
    assert proc.returncode == 0, proc.stderr
    assert "serving 3 replicas at http://" in proc.stdout
    assert "polled to completion: done" in proc.stdout
    assert "after ejecting replica 1: 6/6 solved" in proc.stdout
    assert "drained and stopped cleanly" in proc.stdout


def test_serving_demo_example_runs():
    proc = _run_example(EXAMPLES / "serving_demo.py", "--requests", "8", "--size", "48")
    assert proc.returncode == 0, proc.stderr
    assert "sync solve" in proc.stdout
    assert "async burst" in proc.stdout
    assert "service metrics snapshot" in proc.stdout
