"""Tests of the benchmark itself: its seeded inputs and its clean exit."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import instances

HERE = Path(__file__).resolve().parent

SHORT_SERVE = """
import multiprocessing, sys, threading
sys.path.insert(0, {here!r})
import run
code = run.main(["--workload", "serve", "--seed", "7", "--seconds", "1.5", "--trace", "1"])
assert code == 0, code
assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
assert multiprocessing.active_children() == [], multiprocessing.active_children()
"""


def cycle_lengths(f):
    """Lengths of the cycles of a permutation, by walking it."""
    seen = np.zeros(len(f), dtype=bool)
    lengths = []
    for start in range(len(f)):
        length, node = 0, start
        while not seen[node]:
            seen[node] = True
            node = f[node]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths)


def test_same_seed_same_input_and_no_two_inputs_alike():
    first = instances.forest_instance(instances.stream(5, instances.TIMED, 0), 4096)
    again = instances.forest_instance(instances.stream(5, instances.TIMED, 0), 4096)
    other = instances.forest_instance(instances.stream(5, instances.TIMED, 1), 4096)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    digests = [instances.digest(*first), instances.digest(*again), instances.digest(*other)]
    assert instances.repeat_share(digests) == 1 / 3
    served = [instances.serve_instance(5, index, 256) for index in range(30)]
    assert instances.repeat_share(instances.digest(f, b) for f, b in served) == 0.0
    assert np.array_equal(instances.poisson_offsets(5, 100.0, 50), instances.poisson_offsets(5, 100.0, 50))


def test_cycles_instance_layout():
    f, b = instances.cycles_instance(instances.stream(1, instances.TIMED, 0), 1024)
    assert sorted(f) == list(range(1024))  # a permutation
    assert cycle_lengths(f) == [32] * 4 + [128] * 7
    # Each short cycle's label string is a rotation of one of four patterns.
    rotations = set()
    for start in range(1024):
        cycle = [start]
        while f[cycle[-1]] != start:
            cycle.append(f[cycle[-1]])
        if len(cycle) == 32:
            word = tuple(b[cycle])
            rotations.add(min(word[i:] + word[:i] for i in range(32)))
    assert 1 <= len(rotations) <= 4


def test_tree_heavy_instance_has_one_short_cycle():
    f, _ = instances.tree_heavy_instance(instances.stream(2, instances.TIMED, 2), 256)
    on_cycle = set(range(256))
    for _ in range(256):  # the image of f^256 is the set of cycle nodes
        on_cycle = {int(f[x]) for x in on_cycle}
    assert len(on_cycle) == 4


def test_short_serve_run_leaves_only_the_main_thread():
    proc = subprocess.run(
        [sys.executable, "-c", SHORT_SERVE.format(here=str(HERE))],
        capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 50


def test_run_without_the_program_fails_without_a_result(tmp_path):
    """A checkout without ``src/`` gives no result, even where another copy
    of the program is importable (an installed package, or here PYTHONPATH)."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=150,
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "not the program in" in proc.stderr
