"""Greedy-order maximal independent set machinery: the recursive membership
test under a vertex permutation, its capacity-truncated variant, and the
iterated whole-graph driver.

Each vertex draws a random priority; the permutation sorts by priority.
A vertex belongs to the greedy MIS exactly when no earlier-ranked neighbor
does, and the membership test recurses on earlier-ranked neighbors only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .errors import NonTerminationError
from .graphs import Graph, slot_keys
from .primitives import mpc_sort
from .runtime import ArrayGeneration, ModelConfig, Simulator, item_coins, partition_to_machines

UNKNOWN, IN_MIS, NOT_IN_MIS = 0, 1, 2


@dataclass(frozen=True)
class Permutation:
    """Vertex ranks induced by sorting random priorities (ties by id)."""

    priority: tuple[float, ...]
    rank: tuple[int, ...]

    @classmethod
    def random(cls, n: int, seed: int, tag: int = 0x31) -> "Permutation":
        coins = item_coins(seed, tag, np.arange(n))
        priority = tuple(coins.tolist())
        order = np.argsort(coins, kind="stable").tolist()
        rank = [0] * n
        for pos, v in enumerate(order):
            rank[v] = pos
        return cls(priority=priority, rank=tuple(rank))

    @classmethod
    def from_order(cls, order: list[int]) -> "Permutation":
        n = len(order)
        rank = [0] * n
        for pos, v in enumerate(order):
            rank[v] = pos
        return cls(priority=tuple(rank[v] / max(1, n) for v in range(n)), rank=tuple(rank))

    def order(self) -> list[int]:
        out = [0] * len(self.rank)
        for v, r in enumerate(self.rank):
            out[r] = v
        return out


@dataclass
class MisStatus:
    """Per-vertex settlement state plus per-iteration query counts."""

    status: list[int]
    q_count: dict[int, int] = field(default_factory=dict)

    def unknown(self) -> list[int]:
        return [v for v, s in enumerate(self.status) if s == UNKNOWN]


def sorted_adjacency(graph: Graph, perm: Permutation) -> list[list[int]]:
    """Neighbor lists sorted by permutation rank ascending (the preprocessing
    step; every later adjacency scan walks these lists in order)."""
    rank = perm.rank
    return [sorted(neigh, key=lambda u: rank[u]) for neigh in graph.adjacency()]


def lfmis_oracle(graph: Graph, perm: Permutation) -> set[int]:
    """Greedy MIS: process vertices in rank order, join unless blocked."""
    in_mis = [False] * graph.n
    blocked = [False] * graph.n
    adj = graph.adjacency()
    for v in perm.order():
        if blocked[v]:
            continue
        in_mis[v] = True
        for u in adj[v]:
            blocked[u] = True
    return {v for v in range(graph.n) if in_mis[v]}


def membership_query(
    graph: Graph,
    v: int,
    perm: Permutation,
    adj: Optional[list[list[int]]] = None,
) -> tuple[int, int]:
    """Uncapped membership bit and the number of recursive calls used.

    The count includes the top-level call and every recomputation; results
    are deliberately not memoized across branches, matching the query
    process whose total cost the random-order analysis bounds.
    """
    if adj is None:
        adj = sorted_adjacency(graph, perm)
    rank = perm.rank
    q = 1
    stack: list[list[int]] = [[v, 0]]
    child: Optional[int] = None
    answer = 0
    while stack:
        frame = stack[-1]
        u, i = frame
        if child == 1:
            stack.pop()
            child = 0
            continue
        child = None
        neighbors = adj[u]
        if i < len(neighbors) and rank[neighbors[i]] < rank[u]:
            frame[1] = i + 1
            stack.append([neighbors[i], 0])
            q += 1
            continue
        stack.pop()
        child = 1
    answer = child
    return answer, q


def truncated_query(
    graph: Graph,
    v: int,
    perm: Permutation,
    capacity: int,
    status: list[int],
    adj: Optional[list[list[int]]] = None,
    settled_log: Optional[list[int]] = None,
    depth_tracker: Optional[list[int]] = None,
    _depth: int = 1,
) -> int:
    """Capacity-limited membership query; returns the queries consumed.

    Settles vertices only when the greedy logic is certain: a vertex joins
    when its next unsettled neighbor ranks higher (or none remain), and
    leaves when a recursive call puts a neighbor in. Neighbors already
    settled out are skipped as removed from the graph. ``depth_tracker``
    records the deepest recursion reached; nothing branches on it.
    """
    if capacity == 0:
        return 0
    if depth_tracker is not None and _depth > depth_tracker[0]:
        depth_tracker[0] = _depth
    if adj is None:
        adj = sorted_adjacency(graph, perm)
    rank = perm.rank
    q = 1
    for u in adj[v]:
        if status[u] == NOT_IN_MIS:
            continue
        if status[u] == IN_MIS:
            status[v] = NOT_IN_MIS
            if settled_log is not None:
                settled_log.append(v)
            return q
        if rank[v] < rank[u]:
            break
        q += truncated_query(
            graph, u, perm, capacity - q, status, adj, settled_log,
            depth_tracker, _depth + 1,
        )
        if status[u] == IN_MIS:
            status[v] = NOT_IN_MIS
            if settled_log is not None:
                settled_log.append(v)
            return q
        if q >= capacity:
            return q
    status[v] = IN_MIS
    if settled_log is not None:
        settled_log.append(v)
    return q


@dataclass
class MisResult:
    members: set[int]
    iterations: int
    permutation: Permutation
    status: MisStatus
    q_per_iteration: list[dict[int, int]]
    max_recursion_depth: int = 0
    simulator: Simulator = field(repr=False, default=None)


def iteration_budget(epsilon: float) -> int:
    return math.ceil(2.0 / epsilon)


def maximal_independent_set(graph: Graph, config: ModelConfig) -> MisResult:
    """Iterated capacity-truncated queries until every vertex settles.

    Each iteration runs one round: every still-unknown vertex issues a
    truncated query with capacity floor(n**epsilon) against the previous
    iteration's published statuses plus the machine's own discoveries.
    Vertices that enter the set knock their neighbors out at the publish
    boundary.
    """
    n = graph.n
    perm = Permutation.random(n, config.seed)
    adj = sorted_adjacency(graph, perm)
    capacity = max(1, math.floor(max(n, 2) ** config.epsilon))
    # The initial generation holds slot i of v's sorted list under
    # v * stride + i, as connectivity stores its adjacency.
    owners = np.repeat(np.arange(n), [len(neighbors) for neighbors in adj])
    keys, _, _ = slot_keys(n, owners)
    neighbors = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=len(owners))
    sim = Simulator(config, initial=ArrayGeneration(0, keys, [neighbors]))
    sort_charge = mpc_sort(range(graph.m), epsilon=config.epsilon)
    sim.charge(sort_charge.rounds_charged, sort_charge.communication_charged, "adjacency-sort")

    status = MisStatus(status=[UNKNOWN] * n)
    q_per_iteration: list[dict[int, int]] = []
    iterations = 0
    cap = 10 * iteration_budget(config.epsilon)
    full_adj = graph.adjacency()
    depth_tracker = [0]

    while True:
        unknown = status.unknown()
        if not unknown:
            break
        iterations += 1
        if iterations > cap:
            raise NonTerminationError(f"no settlement after {cap} iterations")
        parts = partition_to_machines(unknown, config, sim.round_index + 1)
        overlays: dict[int, tuple[list[int], list[int], dict[int, int]]] = {}

        def program(ctx):
            mine = parts[ctx.machine_id]
            if not mine:
                return
            local = list(status.status)
            log: list[int] = []
            q_used: dict[int, int] = {}
            for v in mine:
                if local[v] != UNKNOWN:
                    continue
                q = truncated_query(
                    graph, v, perm, capacity, local, adj, log, depth_tracker
                )
                q_used[v] = q
                ctx.query_count += q
            for v in log:
                ctx.write(v, local[v])
            overlays[ctx.machine_id] = (local, log, q_used)

        sim.run_round(program)

        newly: list[int] = []
        q_counts: dict[int, int] = {}
        for mid in sorted(overlays):
            local, log, q_used = overlays[mid]
            q_counts.update(q_used)
            for v in log:
                if status.status[v] == UNKNOWN:
                    status.status[v] = local[v]
                    newly.append(v)
                elif status.status[v] != local[v]:
                    raise AssertionError(
                        f"machines disagree on vertex {v}: {status.status[v]} vs {local[v]}"
                    )
        q_per_iteration.append(q_counts)
        status.q_count = q_counts
        if not newly:
            raise NonTerminationError("iteration settled no vertex")
        # Publish-boundary removal: members knock out their neighbors.
        for v in newly:
            if status.status[v] == IN_MIS:
                for u in full_adj[v]:
                    if status.status[u] == UNKNOWN:
                        status.status[u] = NOT_IN_MIS

    members = {v for v in range(n) if status.status[v] == IN_MIS}
    return MisResult(
        members=members,
        iterations=iterations,
        permutation=perm,
        status=status,
        q_per_iteration=q_per_iteration,
        max_recursion_depth=depth_tracker[0],
        simulator=sim,
    )
