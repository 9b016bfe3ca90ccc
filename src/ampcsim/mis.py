"""Greedy-order maximal independent set machinery: the recursive membership
test under a vertex permutation, its capacity-truncated variant, and the
iterated whole-graph driver.

Each vertex draws a random priority; the permutation sorts by priority.
A vertex belongs to the greedy MIS exactly when no earlier-ranked neighbor
does, and the membership test recurses on earlier-ranked neighbors only
(the random-order query process of Yoshida, Yamamoto and Ito, STOC 2009).

``maximal_independent_set`` keeps one status list, published between
rounds, and runs each iteration as one batch round. Each machine runs its
queries on ``ChainMap({}, status)``: its own settlements go into a private
dict in front of the shared list, so a round holds O(n + m) words however
many machines run, and no machine copies the list.
"""

from __future__ import annotations

import math
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonTerminationError
from .graphs import Graph, _arcs, _split, slot_keys
from .runtime import ArrayGeneration, ModelConfig, Simulator, item_coins

UNKNOWN, IN_MIS, NOT_IN_MIS = 0, 1, 2


@dataclass(frozen=True)
class Permutation:
    """Vertex ranks induced by sorting random priorities (ties by id)."""

    priority: tuple[float, ...]
    rank: tuple[int, ...]

    @classmethod
    def random(cls, n: int, seed: int, tag: int = 0x31) -> "Permutation":
        coins = item_coins(seed, tag, np.arange(n))
        rank = _ranks(np.argsort(coins, kind="stable"))
        return cls(priority=tuple(coins.tolist()), rank=tuple(rank.tolist()))

    @classmethod
    def from_order(cls, order: list[int]) -> "Permutation":
        n = len(order)
        ids = np.asarray(order, dtype=np.int64).reshape(n)
        if not np.array_equal(np.sort(ids), np.arange(n)):
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        rank = _ranks(ids)
        return cls(priority=tuple((rank / max(1, n)).tolist()), rank=tuple(rank.tolist()))

    def order(self) -> list[int]:
        out = [0] * len(self.rank)
        for v, r in enumerate(self.rank):
            out[r] = v
        return out


def _ranks(order: np.ndarray) -> np.ndarray:
    """The position of each vertex in ``order``, a permutation of 0..n-1."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


def _rank_sorted_arcs(graph: Graph, perm: Permutation) -> tuple[np.ndarray, np.ndarray]:
    """Every arc ``heads[i] -> tails[i]`` (a self-loop once), grouped by head
    ascending and, within a head, by the tail's rank ascending; one stable
    argsort of ``head * n + rank[tail]``, so parallel arcs keep input order."""
    heads, tails = _arcs(graph)
    rank = np.asarray(perm.rank, dtype=np.int64)
    order = np.argsort(heads * graph.n + rank[tails], kind="stable")
    return heads[order], tails[order]


def sorted_adjacency(graph: Graph, perm: Permutation) -> list[list[int]]:
    """Neighbor lists sorted by permutation rank ascending (the preprocessing
    step; every later adjacency scan walks these lists in order)."""
    heads, tails = _rank_sorted_arcs(graph, perm)
    return _split(tails.tolist(), np.bincount(heads, minlength=graph.n))


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
    status: list[int] | ChainMap[int, int],
    adj: Optional[list[list[int]]] = None,
    depth_tracker: Optional[list[int]] = None,
    _depth: int = 1,
) -> int:
    """Capacity-limited membership query; returns the queries consumed.

    Settles vertices in ``status`` only when the greedy logic is certain: a
    vertex joins when its next unsettled neighbor ranks higher (or none
    remain), and leaves when a neighbor is in. Neighbors already settled
    out are skipped as removed from the graph. A query settles each vertex
    at most once, so on a ``ChainMap`` the front dict lists the settlements
    in the order they were made. ``depth_tracker`` records the deepest
    recursion reached; nothing branches on it.
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
        s = status[u]
        if s == NOT_IN_MIS:
            continue
        if s == UNKNOWN:
            if rank[v] < rank[u]:
                break
            q += truncated_query(graph, u, perm, capacity - q, status, adj, depth_tracker, _depth + 1)
            s = status[u]
        if s == IN_MIS:
            status[v] = NOT_IN_MIS
            return q
        if q >= capacity:
            return q
    status[v] = IN_MIS
    return q


@dataclass
class MisResult:
    members: set[int]
    iterations: int
    permutation: Permutation
    status: list[int]
    q_per_iteration: list[dict[int, int]]
    max_recursion_depth: int = 0
    simulator: Simulator = field(repr=False, default=None)


def iteration_budget(epsilon: float) -> int:
    return math.ceil(2.0 / epsilon)


def maximal_independent_set(graph: Graph, config: ModelConfig) -> MisResult:
    """Iterated capacity-truncated queries until every vertex settles.

    Each iteration runs one batch round: every still-unknown vertex issues a
    truncated query with capacity floor(n**epsilon) on its machine's
    ``ChainMap({}, status)``, the previous iteration's published statuses
    behind the machine's own settlements. Machine by machine in id order,
    the round charges a machine its queries' counts and writes its
    settlements, each merged into one ``settled`` dict: the lowest machine
    id wins, and two machines that disagree on a vertex raise. Vertices that
    enter the set knock their neighbors out at the publish boundary.
    """
    n = graph.n
    perm = Permutation.random(n, config.seed)
    capacity = max(1, math.floor(max(n, 2) ** config.epsilon))
    # The initial generation holds slot i of v's sorted list under
    # v * stride + i, as connectivity stores its adjacency.
    heads, tails = _rank_sorted_arcs(graph, perm)
    adj = _split(tails.tolist(), np.bincount(heads, minlength=n))
    keys, _, _ = slot_keys(n, heads)
    sim = Simulator(config, initial=ArrayGeneration(keys, [tails]))
    sim.charge(config.bulk_rounds, 2 * graph.m, "adjacency-sort")

    status = [UNKNOWN] * n
    q_per_iteration: list[dict[int, int]] = []
    iterations = 0
    cap = 10 * iteration_budget(config.epsilon)
    depth_tracker = [0]

    while True:
        unknown = [v for v, s in enumerate(status) if s == UNKNOWN]
        if not unknown:
            break
        iterations += 1
        if iterations > cap:
            raise NonTerminationError(f"no settlement after {cap} iterations")
        # Each machine's vertices, in input order.
        ids = np.asarray(unknown, dtype=np.int64)
        machines = sim.machines(ids)
        by_machine = ids[np.argsort(machines, kind="stable")]
        parts = _split(by_machine.tolist(), np.bincount(machines, minlength=config.machines_P))
        settled: dict[int, int] = {}
        q_counts: dict[int, int] = {}
        with sim.batch_round() as rnd:
            for machine, part in enumerate(parts):
                local = ChainMap({}, status)
                for v in part:
                    if local[v] == UNKNOWN:
                        q_counts[v] = truncated_query(graph, v, perm, capacity, local, adj, depth_tracker)
                        rnd.queries[machine] += q_counts[v]
                own = local.maps[0]
                for v, s in own.items():
                    if settled.setdefault(v, s) != s:
                        raise AssertionError(f"machines disagree on vertex {v}: {settled[v]} vs {s}")
                if own:
                    rnd.write_many(list(own), [list(own.values())], np.full(len(own), machine))
        q_per_iteration.append(q_counts)
        if not settled:
            raise NonTerminationError("iteration settled no vertex")
        for v, s in settled.items():
            status[v] = s
        # Publish-boundary removal: members knock out their neighbors.
        for v, s in settled.items():
            if s == IN_MIS:
                for u in adj[v]:
                    if status[u] == UNKNOWN:
                        status[u] = NOT_IN_MIS

    return MisResult(
        members={v for v, s in enumerate(status) if s == IN_MIS},
        iterations=iterations,
        permutation=perm,
        status=status,
        q_per_iteration=q_per_iteration,
        max_recursion_depth=depth_tracker[0],
        simulator=sim,
    )
