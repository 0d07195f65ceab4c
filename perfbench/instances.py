"""Seeded, vectorised input generators owned by the benchmark.

Every array the program sees comes from here, drawn from ``--seed`` with
NumPy only: the program receives plain ``(function, labels)`` arrays.
Each input has its own stream, keyed by ``(seed, stream, index)``, so
instance ``k`` of a run is the same whatever happened before it, and no
two solves or requests of a run share an input.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Stream tags; a warm-up input never coincides with a measured one.
WARMUP, TIMED, SCHEDULE = 0, 1, 2

#: Initial labels per instance (the alphabet of the cycle label strings).
ALPHABET = 3

#: ``cycles`` layout: LONG_CYCLES equal cycles hold 7/8 of the nodes, and
#: cycles of SHORT_LENGTH nodes hold the other 1/8.  Each short cycle is
#: labelled with a rotation of one of PATTERNS label strings.
LONG_CYCLES, SHORT_LENGTH, PATTERNS = 7, 32, 4

#: Length of the one cycle under a ``tree_heavy_instance``.
TREE_CYCLE = 4


def stream(seed: int, tag: int, index: int) -> np.random.Generator:
    """The generator of input ``index`` in stream ``tag`` of run ``seed``."""
    return np.random.default_rng([seed, tag, index])


def forest_instance(rng: np.random.Generator, n: int):
    """A uniformly random function with ``ALPHABET`` random initial labels.

    About ``sqrt(pi n / 2)`` nodes lie on cycles; the rest hang in trees.
    """
    f = rng.integers(0, n, n, dtype=np.int64)
    b = rng.integers(0, ALPHABET, n, dtype=np.int64)
    return f, b


def cycles_instance(rng: np.random.Generator, n: int):
    """A permutation in the ``LONG_CYCLES`` / ``SHORT_LENGTH`` layout.

    Long cycles carry random labels.  Each short cycle carries a random
    rotation of one of ``PATTERNS`` random label strings, so the cyclic
    shift equivalence step finds real classes.  Node ids are shuffled.
    ``n`` must be a multiple of ``8 * SHORT_LENGTH``.
    """
    short_nodes = n // 8
    long_nodes = n - short_nodes
    count = short_nodes // SHORT_LENGTH
    lengths = np.concatenate((
        np.full(LONG_CYCLES, long_nodes // LONG_CYCLES, dtype=np.int64),
        np.full(count, SHORT_LENGTH, dtype=np.int64),
    ))
    ends = np.cumsum(lengths)
    successor = np.arange(1, n + 1, dtype=np.int64)
    successor[ends - 1] = ends - lengths  # each cycle's last slot closes it

    labels = np.empty(n, dtype=np.int64)
    labels[:long_nodes] = rng.integers(0, ALPHABET, long_nodes)
    strings = rng.integers(0, ALPHABET, (PATTERNS, SHORT_LENGTH))
    which = rng.integers(0, PATTERNS, count)
    shift = rng.integers(0, SHORT_LENGTH, count)
    column = (np.arange(SHORT_LENGTH)[None, :] + shift[:, None]) % SHORT_LENGTH
    labels[long_nodes:] = strings[which[:, None], column].ravel()

    node = rng.permutation(n)  # slot -> node id
    f = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    f[node] = node[successor]
    b[node] = labels
    return f, b


def tree_heavy_instance(rng: np.random.Generator, n: int):
    """One ``TREE_CYCLE``-cycle under a random recursive tree holding every other node."""
    slot = np.arange(n, dtype=np.int64)
    parent = (rng.random(n) * slot).astype(np.int64)  # a uniformly earlier slot
    parent[:TREE_CYCLE] = (slot[:TREE_CYCLE] + 1) % TREE_CYCLE
    node = rng.permutation(n)
    f = np.empty(n, dtype=np.int64)
    f[node] = node[parent]
    b = rng.integers(0, ALPHABET, n, dtype=np.int64)
    return f, b


def permutation_instance(rng: np.random.Generator, n: int):
    """A uniformly random permutation with random initial labels: no trees."""
    f = rng.permutation(n).astype(np.int64)
    b = rng.integers(0, ALPHABET, n, dtype=np.int64)
    return f, b


#: The three request families ``serve`` rotates through, by request index.
SERVE_FAMILIES = (forest_instance, permutation_instance, tree_heavy_instance)


def serve_instance(seed: int, index: int, n: int):
    """Request ``index`` of a ``serve`` run: family ``index % 3``."""
    family = SERVE_FAMILIES[index % len(SERVE_FAMILIES)]
    return family(stream(seed, TIMED, index), n)


def poisson_offsets(seed: int, rate: float, count: int) -> np.ndarray:
    """Due times (seconds from the window start) of a Poisson arrival process."""
    return np.cumsum(stream(seed, SCHEDULE, 0).exponential(1.0 / rate, count))


def digest(f: np.ndarray, b: np.ndarray) -> bytes:
    """A fingerprint of one instance, for counting repeated inputs."""
    return hashlib.blake2b(f.tobytes() + b"|" + b.tobytes(), digest_size=16).digest()


def repeat_share(digests) -> float:
    """Share of instances whose fingerprint repeats an earlier one."""
    digests = list(digests)
    return (len(digests) - len(set(digests))) / len(digests) if digests else 0.0
