"""List ranking: distance of every node from the end (or start) of its list.

The paper's cycle-labelling step begins by picking a representative node in
every cycle and ranking all the nodes of the cycle from that
representative (Section 3, Step 1 of Algorithm *cycle node labeling*),
citing the optimal ``O(log n)``-time ``O(n)``-work EREW algorithm of
Anderson and Miller.  Two variants are provided:

* :func:`wyllie_rank` — the textbook pointer-jumping algorithm,
  ``O(log n)`` rounds but ``O(n log n)`` work.  Simple, used as a baseline
  and in the E9 ablation.
* :func:`optimal_rank` — a work-efficient variant in the spirit of
  Anderson–Miller / sparse ruling sets: select ~``n / log n`` evenly-spread
  "rulers", walk the short sublists between consecutive rulers
  sequentially-in-parallel (each sublist is handled by one processor), rank
  the contracted ruler list by pointer jumping, and recombine.  The charged
  cost is ``O(log n)`` rounds and ``O(n)`` work: every element is touched a
  constant number of times outside the contracted problem, and the
  contracted problem has only ``O(n / log n)`` nodes.

Both operate on *successor lists*: ``succ[i]`` is the next node after ``i``
and list tails satisfy ``succ[t] == t``.  Ranks count the number of hops to
the tail (the tail has rank 0).  Circular lists are ranked by
:func:`rank_cycle`, which breaks each cycle at a designated head.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..pram.machine import Machine
from ..types import as_int_array
from .pointer_jumping import frontier_jump


#: Lists this short are ranked by :func:`wyllie_rank`, without rulers.
_WYLLIE_MAX_N = 4


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


def _validate_successor_list(succ: np.ndarray) -> None:
    n = len(succ)
    if n and (succ.min() < 0 or succ.max() >= n):
        raise ValueError("successor indices out of range")


def wyllie_rank(successor, *, machine: Optional[Machine] = None) -> np.ndarray:
    """Pointer-jumping list ranking: ``O(log n)`` rounds, ``O(n log n)`` work.

    ``successor[t] == t`` marks list tails; the returned rank of a node is
    its distance (number of edges) to its tail.
    """
    m = _ensure_machine(machine)
    succ = as_int_array(successor, "successor").copy()
    _validate_successor_list(succ)
    n = len(succ)
    rank = np.zeros(n, dtype=np.int64)
    if n == 0:
        return rank
    rank[succ != np.arange(n)] = 1
    with m.span("wyllie_rank"):
        m.tick(n)  # initialisation
        rounds = int(np.ceil(np.log2(max(2, n)))) + 1
        _weighted_frontier_doubling(succ, rank, rounds, n, m)
    return rank


def _weighted_frontier_doubling(
    succ: np.ndarray,
    rank: np.ndarray,
    max_rounds: int,
    work_per_round: int,
    machine: Machine,
) -> None:
    """Weighted pointer doubling in place, touching only moving pointers.

    Performs the Wyllie recurrence ``rank[x] += rank[succ[x]]; succ[x] =
    succ[succ[x]]`` for every node whose pointer has not yet reached a
    tail.  Nodes already pointing at a tail are provably no-ops (tails keep
    rank 0 and point to themselves), so restricting the host gather/scatter
    to the frontier leaves the results — and the PRAM charge of
    ``work_per_round`` per round — exactly as the full-array sweep.
    """
    active = np.flatnonzero(succ[succ] != succ)
    for _ in range(max_rounds):
        machine.tick(work_per_round)
        if len(active) == 0:
            break
        sa = succ[active]
        rank[active] += rank[sa]
        nxt = succ[sa]
        succ[active] = nxt
        active = active[succ[nxt] != nxt]


def _sequential_sublist_walk(
    succ: np.ndarray,
    rulers: np.ndarray,
    is_ruler: np.ndarray,
    machine: Machine,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk from every ruler to the next ruler (or tail), recording local ranks.

    Precondition: ``is_ruler`` must cover every tail (``succ[t] == t``) —
    the caller includes ``is_tail`` in the ruler set.  The walk relies on
    it: after round 1 every live cursor sits on a non-ruler (hence
    non-tail) node, so the per-round tail test is skipped; a non-ruler
    tail would self-step forever and never record an arrival.

    Returns ``(local_offset, next_ruler, sublist_length)`` where
    ``local_offset[x]`` is the number of hops from node ``x``'s ruler to
    ``x`` (0 for the ruler itself), ``next_ruler[r]`` is the first ruler (or
    tail) strictly after ruler ``r`` and ``sublist_length[r]`` the hop count
    from ``r`` to it.

    Each ruler's walk is performed by a single (simulated) processor; the
    rounds charged equal the longest walk and the work equals the total
    number of hops — which is ``O(n)`` overall because the sublists
    partition the list.
    """
    n = len(succ)
    local_offset = np.full(n, -1, dtype=np.int64)
    owner_ruler = np.full(n, -1, dtype=np.int64)
    next_ruler = np.full(n, -1, dtype=np.int64)
    sublist_length = np.zeros(n, dtype=np.int64)

    # Vectorised simultaneous walk: one "cursor" per ruler advances one hop
    # per round until it reaches the next ruler or a tail.  The walkers are
    # kept as *compact* arrays (ruler, cursor, step count) that shrink as
    # walks finish, so each round's host work — like its PRAM charge —
    # tracks the number of still-walking rulers rather than re-copying
    # full-size state arrays.
    local_offset[rulers] = 0
    owner_ruler[rulers] = rulers
    act_rulers = rulers
    act_cursors = rulers
    act_steps = np.zeros(len(rulers), dtype=np.int64)
    max_rounds = n + 1
    first_round = True
    for _ in range(max_rounds):
        if len(act_rulers) == 0:
            break
        machine.tick(len(act_rulers))
        nxt = succ[act_cursors]
        if first_round:
            # A cursor can sit *on* a tail only in the first round (the
            # ruler itself is the tail); surviving cursors are non-ruler —
            # hence non-tail — nodes, so later rounds skip the tail test.
            first_round = False
            at_tail = nxt == act_cursors
            arrived = is_ruler[nxt] | at_tail
            steps_now = act_steps + ~at_tail
            arrived_target = np.where(at_tail[arrived], act_cursors[arrived], nxt[arrived])
        else:
            arrived = is_ruler[nxt]
            steps_now = act_steps + 1
            arrived_target = nxt[arrived]
        # annotate the nodes we step onto (only when they are not rulers/tails)
        stepping = ~arrived
        stepped_nodes = nxt[stepping]
        local_offset[stepped_nodes] = steps_now[stepping]
        owner_ruler[stepped_nodes] = act_rulers[stepping]
        # record arrivals
        arrived_rulers = act_rulers[arrived]
        next_ruler[arrived_rulers] = arrived_target
        sublist_length[arrived_rulers] = steps_now[arrived]
        # advance the surviving walkers
        act_rulers = act_rulers[stepping]
        act_cursors = stepped_nodes
        act_steps = steps_now[stepping]
    return local_offset, owner_ruler, (next_ruler, sublist_length)


def optimal_rank(
    successor,
    *,
    machine: Optional[Machine] = None,
    ruler_spacing: Optional[int] = None,
) -> np.ndarray:
    """Work-efficient list ranking (sparse-ruling-set style).

    ``ruler_spacing`` defaults to ``ceil(log2 n)``; rulers are taken at
    every ``spacing``-th position of the *array* (not of the list), plus
    all tails, which keeps the expected sublist length ``O(log n)`` for the
    lists arising in this library (cycles laid out in arbitrary array
    order).  The worst-case sublist length is bounded explicitly and the
    charged cost reflects the actual walk lengths, so the accounting stays
    honest even on adversarial inputs.
    """
    m = _ensure_machine(machine)
    succ = as_int_array(successor, "successor")
    _validate_successor_list(succ)
    n = len(succ)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n <= _WYLLIE_MAX_N:
        return wyllie_rank(succ, machine=m)
    return _ruling_set_rank(succ, m, ruler_spacing)[0]


def _ruling_set_rank(
    succ: np.ndarray,
    m: Machine,
    ruler_spacing: Optional[int] = None,
    *,
    tails: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """:func:`optimal_rank` of a validated list of more than
    ``_WYLLIE_MAX_N`` nodes: ``(ranks, tail)``.

    With ``tails`` set, ``tail[x]`` is the tail of ``x``'s list, read off
    the contracted ruler list without a charge of its own; otherwise
    ``tail`` is ``None``.
    """
    n = len(succ)
    spacing = ruler_spacing if ruler_spacing is not None else max(2, int(np.ceil(np.log2(n))))

    with m.span("optimal_rank"):
        idx = np.arange(n, dtype=np.int64)
        is_tail = succ == idx
        # Rulers: every `spacing`-th array position, every tail, and every
        # node with no predecessor would also be a natural head; heads are
        # cheap to add and guarantee full coverage of open lists.
        has_pred = np.zeros(n, dtype=bool)
        has_pred[succ[~is_tail]] = True
        is_ruler = (idx % spacing == 0) | is_tail | ~has_pred
        m.tick(n)
        rulers = np.flatnonzero(is_ruler)

        local_offset, owner_ruler, (next_ruler, sublist_length) = _sequential_sublist_walk(
            succ, rulers, is_ruler, m
        )

        # Contracted list over rulers: successor = next ruler, weight = hops.
        k = len(rulers)
        ruler_index = np.full(n, -1, dtype=np.int64)
        ruler_index[rulers] = np.arange(k, dtype=np.int64)
        contracted_succ = ruler_index[next_ruler[rulers]]
        # tails of the contracted list are rulers whose walk ended at a tail
        contracted_succ = np.where(contracted_succ < 0, np.arange(k), contracted_succ)
        weights = sublist_length[rulers]

        # Weighted Wyllie on the contracted list (k = O(n / log n) nodes).
        # c_rank starts as the weight of the outgoing contracted edge (the
        # number of hops from this ruler to the next ruler/tail); the
        # contracted tails are the real list tails (weight 0), so the
        # frontier doubling accumulates exactly the rank-to-tail.
        c_succ = contracted_succ.copy()
        c_rank = weights.copy()
        rounds = int(np.ceil(np.log2(max(2, k)))) + 1
        _weighted_frontier_doubling(c_succ, c_rank, rounds, k, m)

        # Ruler r's rank-to-tail = its contracted rank. A node x in r's
        # sublist sits local_offset[x] hops below r, so its rank is
        # rank(r) - local_offset[x].
        m.tick(n)
        ranks = np.empty(n, dtype=np.int64)
        ranks[rulers] = c_rank
        ranks = ranks[owner_ruler] - local_offset
        ranks[is_tail] = 0
        tail = None
        if tails:
            # The doubling converged, so every ruler's c_succ is its list's
            # tail, and a node shares its owner ruler's tail.  next_ruler,
            # spent, holds each ruler's tail for the gather.
            next_ruler[rulers] = rulers[c_succ]
            tail = next_ruler[owner_ruler]
    return ranks, tail


def rank_cycle(
    successor,
    heads,
    *,
    machine: Optional[Machine] = None,
) -> np.ndarray:
    """Rank nodes around cycles, starting from each cycle's designated head.

    ``successor`` must define a permutation on the participating nodes
    (every node lies on a cycle); ``heads`` is a boolean mask with exactly
    one head per cycle.  The head gets rank 0, its successor rank 1, etc.

    Implemented by breaking the cycle just before its head (the head's
    predecessor becomes a tail) and ranking the resulting open lists; the
    rank around the cycle is then ``cycle_length - 1 - rank_to_tail`` for
    non-head nodes.  The head's rank to tail, ``cycle_length - 1``, reaches
    the whole cycle through the cycle's tail.  The model finds every node's
    tail by pointer jumping; the host reads it off the ruling-set ranking's
    contracted list instead and charges the jumping in closed form, at
    exactly what :func:`_tail_of` charges.
    """
    m = _ensure_machine(machine)
    succ = as_int_array(successor, "successor")
    _validate_successor_list(succ)
    head_mask = np.asarray(heads, dtype=bool)
    n = len(succ)
    if len(head_mask) != n:
        raise ValueError("heads must have the same length as successor")
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    with m.span("rank_cycle"):
        m.tick(n)
        # Break the edge entering each head: nodes whose successor is a head
        # become tails.
        broken = np.where(head_mask[succ], np.arange(n, dtype=np.int64), succ)
        if n <= _WYLLIE_MAX_N:
            to_tail = wyllie_rank(broken, machine=m)
            m.tick(n)
            tail_of = _tail_of(broken, m)
        else:
            to_tail, tail_of = _ruling_set_rank(broken, m, tails=True)
            m.tick(n)
            # _tail_of's frontier_jump ticks n per round: ceil(log2 D)
            # doubling rounds, D >= 2 the longest distance to a tail, plus
            # the round that finds the frontier empty (one round if D <= 1).
            m.charge_rounds(n, max(0, int(to_tail.max()) - 1).bit_length() + 1)
        # At a head, the distance to the tail of its broken list equals
        # (cycle length - 1).  Broadcast that value to the whole cycle via
        # the (unique per cycle) tail node, then convert distance-to-tail
        # into rank-from-head.
        heads_idx = np.flatnonzero(head_mask)
        per_tail = np.zeros(n, dtype=np.int64)
        per_tail[tail_of[heads_idx]] = to_tail[heads_idx]
        rank = per_tail[tail_of] - to_tail
    return rank


def _tail_of(successor: np.ndarray, machine: Machine) -> np.ndarray:
    """Fixed point of pointer jumping on an acyclic successor list.

    :func:`rank_cycle` uses it on lists of at most ``_WYLLIE_MAX_N`` nodes;
    on longer ones it is the reference for the tails and the charge that
    :func:`_ruling_set_rank` and the closed form stand in for.
    """
    succ = successor.copy()
    n = len(succ)
    rounds = int(np.ceil(np.log2(max(2, n)))) + 1
    frontier_jump(succ, rounds, machine)
    return succ
