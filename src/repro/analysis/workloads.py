"""Named experiment workloads shared by the tests and the benchmark harness.

Every experiment in DESIGN.md §4 draws its inputs from the catalogue below
so that the numbers recorded in EXPERIMENTS.md are regenerable bit-for-bit
(generators are seeded) and the tests can assert properties of exactly the
same instances the benches measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..graphs import generators as gen

Instance = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Workload:
    """A named, seeded instance family parameterised by size."""

    name: str
    description: str
    build: Callable[[int, int], Instance]  # (n, seed) -> (A_f, A_B)

    def instance(self, n: int, seed: int = 0) -> Instance:
        return self.build(n, seed)


def _mixed(n: int, seed: int) -> Instance:
    return gen.random_function(n, num_labels=3, seed=seed)


def _permutation(n: int, seed: int) -> Instance:
    return gen.random_permutation(n, num_labels=2, seed=seed)


def _tree_heavy(n: int, seed: int) -> Instance:
    return gen.tree_heavy(n, num_labels=2, cycle_fraction=0.02, seed=seed)


def _few_blocks(n: int, seed: int) -> Instance:
    # blocks = 8 regardless of n (n rounded to a multiple of 8 by the caller)
    m = (n // 8) * 8 or 8
    return gen.label_function_composition(m, 8, seed=seed)


def _equal_cycles(n: int, seed: int) -> Instance:
    length = 32
    k = max(1, n // length)
    return gen.cycles_of_equal_length(k, length, num_labels=2, seed=seed, num_classes=4)


def _binary_single_cycle(n: int, seed: int) -> Instance:
    return gen.single_cycle(n, num_labels=2, seed=seed)


WORKLOADS: Dict[str, Workload] = {
    "mixed": Workload(
        "mixed",
        "uniformly random function, 3 initial blocks (trees dominate)",
        _mixed,
    ),
    "permutation": Workload(
        "permutation",
        "random permutation (pure cycles), 2 initial blocks",
        _permutation,
    ),
    "tree_heavy": Workload(
        "tree_heavy",
        "2% cycle nodes, long chains and bushy trees attached",
        _tree_heavy,
    ),
    "few_blocks": Workload(
        "few_blocks",
        "engineered instance whose coarsest partition has exactly 8 blocks",
        _few_blocks,
    ),
    "equal_cycles": Workload(
        "equal_cycles",
        "n/32 cycles of length 32 drawn from 4 label patterns",
        _equal_cycles,
    ),
    "single_cycle": Workload(
        "single_cycle",
        "one Hamiltonian cycle with random binary labels",
        _binary_single_cycle,
    ),
}


def get_workload(name: str) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]


#: Default size sweep used by the scaling experiments (E1-E4).  Small enough
#: to keep a full benchmark run under a couple of minutes on a laptop,
#: large enough to separate log n from log log n growth.
DEFAULT_SWEEP: Tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192, 16384)

#: Shorter sweep for the quadratic baselines.
SMALL_SWEEP: Tuple[int, ...] = (64, 128, 256, 512, 1024)


def circular_string_workloads(n: int, seed: int = 0) -> Dict[str, np.ndarray]:
    """Circular strings for the m.s.p. experiments (E3, E6)."""
    rng = np.random.default_rng(seed)
    out: Dict[str, np.ndarray] = {
        "random_small_alphabet": rng.integers(0, 4, n).astype(np.int64),
        "random_large_alphabet": rng.integers(0, max(2, n // 2), n).astype(np.int64),
        "binary": rng.integers(0, 2, n).astype(np.int64),
        "min_runs": np.where(rng.random(n) < 0.7, 0, rng.integers(1, 4, n)).astype(np.int64),
    }
    # near-periodic: a periodic string with a single perturbed position
    base = np.tile(rng.integers(0, 3, max(1, n // 8)).astype(np.int64), 8)[:n]
    if len(base) < n:
        base = np.concatenate([base, np.zeros(n - len(base), dtype=np.int64)])
    base[-1] = base[-1] + 1
    out["near_periodic"] = base
    return out


def string_list_workloads(total: int, seed: int = 0) -> Dict[str, List[np.ndarray]]:
    """String lists for the string-sorting experiment (E4)."""
    rng = np.random.default_rng(seed)
    out: Dict[str, List[np.ndarray]] = {}

    def draw(lengths: Sequence[int], sigma: int) -> List[np.ndarray]:
        return [rng.integers(0, sigma, int(l)).astype(np.int64) for l in lengths]

    # uniform short strings
    k = max(1, total // 8)
    out["uniform_short"] = draw(np.full(k, 8), 16)
    # skewed: many tiny strings plus a few long ones (the hard case for the
    # doubling baseline)
    tiny = max(1, (total // 2))
    long_count = max(1, total // 256)
    long_len = max(4, (total - tiny) // max(1, long_count))
    out["skewed"] = draw([1] * tiny + [long_len] * long_count, 8)
    # geometric lengths
    lengths = np.minimum(np.maximum(1, rng.geometric(0.05, max(1, total // 20))), 200)
    out["geometric"] = draw(lengths, 64)
    return out
