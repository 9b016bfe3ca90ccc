"""Euler tours, tree rooting, and tour-based tree annotations: subtree
sizes, preorder numbers, and range-query subtree minima/maxima.

Every tree edge k appears as two directed twins, 2k and 2k+1, so the twin
of directed edge e is e ^ 1; successor pointers chain each tree's twins
into one closed tour. Rooting breaks the tour at an edge incident to the
root, ranks the resulting list, and classifies each twin pair by rank order
(the parent-to-child occurrence ranks lower). The tour and every annotation
are int64 arrays, indexed by directed edge or by vertex.

Annotations work on the whole forest at once and are charged per batch,
not per tree or per vertex: in the AMPC model every machine of a round
reads the previous generation concurrently, so one prefix sum covers all
tours and any batch of independent subtree queries costs one round.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .contraction import CycleConnResult, label_cycles, rank_lists
from .errors import StructureError
from .graphs import ComponentLabeling, Graph, RootedForest
from .primitives import RMQIndex, mpc_prefix_sum
from .runtime import ModelConfig, Simulator


@dataclass
class EulerTour:
    """Unranked successor structure: one closed cycle of directed edges per
    tree. Directed edge e runs ``src[e] -> dst[e]`` and is followed by
    ``succ[e]``; edges 2k and 2k+1 are the two directions of forest edge k."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    succ: np.ndarray

    @property
    def size(self) -> int:
        return len(self.src)


def _check_forest(graph: Graph) -> None:
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        ru, rv = find(u), find(v)
        if ru == rv:
            raise StructureError(f"input contains a cycle through edge ({u}, {v})")
        parent[ru] = rv


def _rotation(tour_src: np.ndarray, tour_dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges grouped by source, each group by ascending target,
    with each vertex's group start and length (its degree)."""
    rotation = np.lexsort((tour_dst, tour_src))
    degree = np.bincount(tour_src, minlength=n)
    return rotation, np.cumsum(degree) - degree, degree


def euler_tour(forest: Graph) -> EulerTour:
    """Closed tour per tree: the successor of u->v is the edge out of v
    whose target follows u in v's ascending neighbor rotation."""
    _check_forest(forest)
    size = 2 * forest.m
    src = np.empty(size, dtype=np.int64)
    dst = np.empty(size, dtype=np.int64)
    src[0::2], src[1::2] = forest.src, forest.dst
    dst[0::2], dst[1::2] = forest.dst, forest.src
    # slot[e] is e's place in the rotation of src[e]; the twin of u->v is
    # v->u, at slot[e ^ 1] in v's.
    rotation, start, degree = _rotation(src, dst, forest.n)
    slot = np.empty(size, dtype=np.int64)
    slot[rotation] = np.arange(size) - start[src[rotation]]
    twin = np.arange(size) ^ 1
    succ = rotation[start[dst] + (slot[twin] + 1) % degree[dst]]
    return EulerTour(n=forest.n, src=src, dst=dst, succ=succ)


def forest_connectivity(
    forest: Graph, config: ModelConfig
) -> tuple[ComponentLabeling, Optional[CycleConnResult]]:
    """Component labels of a forest by running cycle connectivity over its
    tours; each component is labeled by its lowest vertex id."""
    return _tour_connectivity(euler_tour(forest), config)


def _tour_connectivity(
    tour: EulerTour, config: ModelConfig
) -> tuple[ComponentLabeling, Optional[CycleConnResult]]:
    if tour.size == 0:
        return ComponentLabeling(list(range(tour.n))), None
    sub_config = ModelConfig.for_graph(
        n=tour.size,
        m=tour.size,
        epsilon=config.epsilon,
        seed=config.seed,
        space_multiplier=config.space_multiplier,
        budget_slack=config.budget_slack,
        leader_constant=config.leader_constant,
        strict_budget=config.strict_budget,
    )
    pred = np.empty(tour.size, dtype=np.int64)
    pred[tour.succ] = np.arange(tour.size)
    res = label_cycles(tour.succ, pred, sub_config)
    # Reduce each edge component to its minimum vertex id; every vertex of a
    # tree with edges is the source of one of its tour's edges.
    edge_label = np.asarray(res.labeling.label, dtype=np.int64)
    rep_vertex = np.full(tour.size, tour.n, dtype=np.int64)
    np.minimum.at(rep_vertex, edge_label, tour.src)
    res.simulator.charge(1, tour.size, "component-min")
    label = np.arange(tour.n)
    label[tour.src] = rep_vertex[edge_label]
    return ComponentLabeling(label.tolist()), res


@dataclass
class RootedTour:
    """Ranked, oriented Euler tour plus the parent map it induces.

    Arrays over directed edges: ``rank`` is the edge's position in its
    tree's tour list, which starts at the root's edge to its lowest
    neighbor; ``forward`` marks the parent-to-child occurrences. Arrays over
    vertices: ``tree_of`` is the vertex's root and ``enter`` its entering
    edge (the forward edge parent -> v), -1 at roots. Laying the edges out
    by (tree_of, rank) gives every tree's tour in order, trees end to end.

    ``simulators`` holds every simulator rooting ran, in order: forest
    connectivity when no roots were supplied, then list ranking.
    Annotations charge into the last one, so a forest without edges is
    charged nothing.
    """

    tour: EulerTour
    forest: RootedForest
    rank: np.ndarray
    forward: np.ndarray
    tree_of: np.ndarray
    enter: np.ndarray
    config: ModelConfig
    simulators: list[Simulator]

    def charge(self, rounds: int, communication: int, label: str) -> None:
        if self.simulators:
            self.simulators[-1].charge(rounds, communication, label)


def root_forest(
    forest: Graph,
    roots: Optional[Sequence[int]] = None,
    config: Optional[ModelConfig] = None,
) -> RootedTour:
    """Root every tree: break its tour at a root-incident edge, rank the
    list, and read parents off the forward occurrences.

    ``roots`` must hold one vertex of every tree. When they are not
    supplied, forest connectivity over the tours picks the lowest id of
    each component.
    """
    if config is None:
        config = ModelConfig.for_graph(n=forest.n, m=max(1, forest.m))
    n = forest.n
    tour = euler_tour(forest)
    simulators: list[Simulator] = []
    if roots is None:
        components, res = _tour_connectivity(tour, config)
        if res is not None:
            simulators.append(res.simulator)
        roots = np.unique(components.label)
    roots = np.asarray(roots, dtype=np.int64)
    outside = (roots < 0) | (roots >= n)
    if outside.any():
        raise ValueError(f"root {roots[outside][0]} not in the forest")
    if len(np.unique(roots)) < len(roots):
        raise ValueError("two roots were given inside one tree")

    # Each root's tour list starts at its edge to its lowest neighbor and
    # ends just before it. Every edge finds its list's head by pointer
    # jumping over predecessors, with heads fixed; an edge whose tour holds
    # no head never reaches one.
    rotation, start, degree = _rotation(tour.src, tour.dst, n)
    heads = rotation[start[roots[degree[roots] > 0]]]
    is_head = np.zeros(tour.size, dtype=bool)
    is_head[heads] = True
    head_of = np.empty(tour.size, dtype=np.int64)
    head_of[tour.succ] = np.arange(tour.size)
    head_of[heads] = heads
    for _ in range(tour.size.bit_length()):
        head_of = head_of[head_of]
    tree_of = np.full(n, -1, dtype=np.int64)
    tree_of[roots] = roots
    tree_of[tour.src] = tour.src[head_of]
    if not is_head[head_of].all() or (tree_of < 0).any():
        raise ValueError("roots must include one vertex of every tree")
    # A twin pair split between two lists means two heads in one tour.
    if (head_of != head_of[np.arange(tour.size) ^ 1]).any():
        raise ValueError("two roots were given inside one tree")

    rank = np.zeros(tour.size, dtype=np.int64)
    if tour.size:
        ranked = rank_lists(np.where(is_head[tour.succ], -1, tour.succ), heads, config)
        rank = ranked.ranks
        simulators.append(ranked.simulator)

    forward = np.empty(tour.size, dtype=bool)
    forward[0::2] = rank[0::2] < rank[1::2]
    forward[1::2] = ~forward[0::2]
    enter = np.full(n, -1, dtype=np.int64)
    forward_edges = np.flatnonzero(forward)
    enter[tour.dst[forward_edges]] = forward_edges
    parent = np.arange(n)
    parent[tour.dst[forward_edges]] = tour.src[forward_edges]

    return RootedTour(
        tour=tour,
        forest=RootedForest(parent=parent.tolist(), roots=set(roots.tolist())),
        rank=rank,
        forward=forward,
        tree_of=tree_of,
        enter=enter,
        config=config,
        simulators=simulators,
    )


def preorder_and_sizes(rooted: RootedTour) -> tuple[np.ndarray, np.ndarray]:
    """Preorder numbers and subtree sizes (counting the vertex itself) of
    every tree, as int64 arrays over vertices, from one exclusive prefix sum
    P of forward-edge counts over all trees' ranked tours laid end to end.

    The scan is segmented by subtraction: PN(v) = P[enter] - P[tree start]
    + 1, where enter is the forward edge into v, and size(v) = P[exit] -
    P[enter], where exit is its reverse twin; the difference counts v's
    entering edge plus every forward edge strictly inside v's visit span,
    so it needs no offset. A root gets PN 0 and its tree's vertex count.
    """
    tour, n = rooted.tour, rooted.tour.n
    tree = rooted.tree_of[tour.src]
    order = np.lexsort((rooted.rank, tree))
    scan = mpc_prefix_sum(
        rooted.forward[order].astype(np.int64).tolist(), operator.add, 0,
        epsilon=rooted.config.epsilon,
    )
    rooted.charge(scan.rounds_charged, scan.communication_charged, "tour-prefix")
    prefix = np.empty(tour.size, dtype=np.int64)
    prefix[order] = [p for _, p in scan.value]
    # A tree's tour starts at its rank-0 edge.
    first = rooted.rank == 0
    tree_start = np.zeros(n, dtype=np.int64)
    tree_start[tree[first]] = prefix[first]

    child = np.flatnonzero(rooted.enter >= 0)
    enter = rooted.enter[child]
    pn = np.zeros(n, dtype=np.int64)
    pn[child] = prefix[enter] - tree_start[rooted.tree_of[child]] + 1
    sizes = np.bincount(rooted.tree_of, minlength=n)
    sizes[child] = prefix[enter ^ 1] - prefix[enter]
    # Each vertex reads P at its entering edge, its exit edge and its
    # tree's first edge.
    rooted.charge(1, 3 * n, "preorder-size-read")
    return pn, sizes


class SubtreeMinMax:
    """Minimum of ``min_values`` and maximum of ``max_values`` over each
    vertex's whole subtree, for every tree of a rooted forest at once.

    One RMQ index covers the forest laid out in (tree, preorder) order, in
    which every subtree is one contiguous range; its min table is built over
    ``min_values`` and its max table over ``max_values`` (sequences indexed
    by vertex). The index is sealed once built, so every machine can read it
    in the same round: ``query`` answers a whole batch of vertices in one
    round, with communication 2 per query (one min read and one max read).
    """

    def __init__(
        self,
        rooted: RootedTour,
        pn: np.ndarray,
        sizes: np.ndarray,
        min_values: Sequence[float],
        max_values: Sequence[float],
    ):
        n = rooted.tour.n
        layout = np.lexsort((pn, rooted.tree_of))
        self._rooted = rooted
        self._first = np.empty(n, dtype=np.int64)
        self._first[layout] = np.arange(n)
        self._last = self._first + sizes - 1
        self._index = RMQIndex(np.asarray(min_values)[layout], np.asarray(max_values)[layout])
        # rmq_build's cost, charged once for both tables.
        rounds = max(1, math.ceil(1.0 / rooted.config.epsilon))
        rooted.charge(rounds, max(1, n), "rmq-build")

    def query(self, vertices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Subtree minima and subtree maxima of the vertices, in order."""
        vertices = np.asarray(vertices, dtype=np.int64)
        self._rooted.charge(1, 2 * len(vertices), "rmq-query")
        return self._index.query(self._first[vertices], self._last[vertices])
