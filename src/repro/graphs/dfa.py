"""Unary-alphabet DFA minimisation via the coarsest partition.

The classical application the SFCP literature cites (Srikant's paper is
titled "A parallel algorithm for the minimization of finite state
automata"): a DFA over a one-letter alphabet is exactly a functional graph
(state -> next state), and two states are Myhill–Nerode equivalent iff
they receive the same label in the coarsest partition refining
{accepting, rejecting} that is stable under the transition function.

:func:`minimize_unary_dfa` reduces minimisation to
:func:`repro.partition.coarsest_partition` and returns the minimal
automaton (state classes, transition function on classes, accepting
classes).  :func:`accepts` / :func:`language_signature` provide the
semantic checks used by the tests: the minimal automaton must accept
exactly the same word lengths as the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import InvalidInstanceError
from ..pram.machine import Machine
from ..types import PartitionResult
from .functional_graph import validate_function


@dataclass
class MinimalDFA:
    """Result of unary DFA minimisation.

    Attributes
    ----------
    state_class:
        Class (minimal-automaton state) of every original state.
    transition:
        Transition function of the minimal automaton (one symbol).
    accepting:
        Accepting mask over minimal-automaton states.
    initial_class:
        Class of the original initial state.
    partition:
        The underlying :class:`~repro.types.PartitionResult` (cost etc.).
    """

    state_class: np.ndarray
    transition: np.ndarray
    accepting: np.ndarray
    initial_class: int
    partition: PartitionResult

    @property
    def num_states(self) -> int:
        return int(len(self.transition))


def minimize_unary_dfa(
    delta,
    accepting,
    *,
    initial_state: int = 0,
    algorithm: str = "jaja-ryu",
    machine: Optional[Machine] = None,
) -> MinimalDFA:
    """Minimise a unary-alphabet DFA.

    Parameters
    ----------
    delta:
        Transition function as an array (``delta[q]`` = next state of ``q``).
    accepting:
        Boolean mask (or 0/1 array) of accepting states.
    initial_state:
        The start state (only used to report its class).
    algorithm:
        Any algorithm name accepted by
        :func:`repro.partition.coarsest_partition`.
    """
    f = validate_function(delta, name="delta")
    acc = np.asarray(accepting, dtype=bool)
    if len(acc) != len(f):
        raise InvalidInstanceError("accepting mask must have one entry per state")
    if not 0 <= initial_state < len(f):
        raise InvalidInstanceError("initial_state out of range")
    initial_labels = acc.astype(np.int64)
    from ..partition.parallel import coarsest_partition  # lazy: avoids a package import cycle

    result = coarsest_partition(f, initial_labels, algorithm=algorithm, machine=machine)
    classes = result.labels
    k = result.num_blocks
    transition = np.zeros(k, dtype=np.int64)
    accepting_classes = np.zeros(k, dtype=bool)
    # every member of a class has the same image class and acceptance by
    # construction; a scatter suffices
    transition[classes] = classes[f]
    accepting_classes[classes] = acc
    return MinimalDFA(
        state_class=classes,
        transition=transition,
        accepting=accepting_classes,
        initial_class=int(classes[initial_state]),
        partition=result,
    )


def accepts(delta, accepting, state: int, length: int) -> bool:
    """Does the DFA accept the unary word of the given length from ``state``?"""
    f = validate_function(delta, name="delta")
    acc = np.asarray(accepting, dtype=bool)
    q = int(state)
    for _ in range(int(length)):
        q = int(f[q])
    return bool(acc[q])


def language_signature(delta, accepting, state: int, max_length: Optional[int] = None) -> np.ndarray:
    """Acceptance vector for word lengths ``0..max_length`` (default ``2n``).

    Two states are equivalent iff their signatures agree for all lengths up
    to ``2n`` (in fact ``n`` suffices); the tests use this as the semantic
    oracle for minimisation.
    """
    f = validate_function(delta, name="delta")
    acc = np.asarray(accepting, dtype=bool)
    n = len(f)
    limit = 2 * n if max_length is None else int(max_length)
    out = np.zeros(limit + 1, dtype=bool)
    q = int(state)
    for i in range(limit + 1):
        out[i] = bool(acc[q])
        q = int(f[q])
    return out
