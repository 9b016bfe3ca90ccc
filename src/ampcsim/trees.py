"""Euler tours, tree rooting, and tour-based tree annotations: subtree
sizes, preorder numbers, and range-query subtree minima/maxima.

Every tree edge appears as two directed twins; successor pointers chain
each tree's twins into one closed tour. Rooting breaks the tour at an edge
incident to the root, ranks the resulting list, and classifies each twin
pair by rank order (the parent-to-child occurrence ranks lower).

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

from .contraction import CycleConnResult, label_cycles, rank_lists
from .errors import StructureError
from .graphs import ComponentLabeling, Graph, RootedForest
from .primitives import RMQIndex, mpc_prefix_sum
from .runtime import ModelConfig, Simulator


@dataclass
class EulerTour:
    """Unranked successor structure: one closed cycle of directed edges per
    tree. Directed edges 2k and 2k+1 are the twins of undirected edge k."""

    n: int
    src: list[int]
    dst: list[int]
    twin: list[int]
    succ: list[int]

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


def euler_tour(forest: Graph) -> EulerTour:
    """Closed tour per tree: the successor of u->v is the edge out of v
    whose target follows u in v's ascending neighbor rotation."""
    _check_forest(forest)
    src: list[int] = []
    dst: list[int] = []
    for u, v in zip(forest.src.tolist(), forest.dst.tolist()):
        src += [u, v]
        dst += [v, u]
    twin = [e ^ 1 for e in range(len(src))]
    # rotation[v] lists the edges out of v by ascending target and slot[e]
    # is e's place there. The twin of u->v is v->u, at slot[twin] in v's.
    rotation: list[list[int]] = [[] for _ in range(forest.n)]
    slot = [0] * len(src)
    for e in sorted(range(len(src)), key=lambda e: (src[e], dst[e])):
        slot[e] = len(rotation[src[e]])
        rotation[src[e]].append(e)
    succ = [rotation[v][(slot[twin[e]] + 1) % len(rotation[v])] for e, v in enumerate(dst)]
    return EulerTour(n=forest.n, src=src, dst=dst, twin=twin, succ=succ)


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
    pred = [0] * tour.size
    for e, nxt in enumerate(tour.succ):
        pred[nxt] = e
    res = label_cycles(dict(enumerate(tour.succ)), pred, tour.size, sub_config)
    # Reduce each edge component to its minimum vertex id; every vertex of a
    # tree with edges is the source of one of its tour's edges.
    rep_vertex: dict[int, int] = {}
    for e, lab in enumerate(res.labeling.label):
        rep_vertex[lab] = min(rep_vertex.get(lab, tour.src[e]), tour.src[e])
    res.simulator.charge(1, tour.size, "component-min")
    label = list(range(tour.n))
    for e in range(tour.size):
        label[tour.src[e]] = rep_vertex[res.labeling.label[e]]
    return ComponentLabeling(label), res


@dataclass
class RootedTour:
    """Ranked, oriented Euler sequence plus the parent map it induces.

    ``simulators`` holds every simulator rooting ran, in order: forest
    connectivity when it picked the roots, then list ranking. Annotations
    charge into the last one, so a forest without edges is charged nothing.
    """

    tour: EulerTour
    forest: RootedForest
    rank: dict[int, int]
    forward: list[bool]
    tree_of: list[int]                      # vertex -> its root
    edges_in_order: dict[int, list[int]]    # root -> edge ids by rank
    config: ModelConfig
    simulators: list[Simulator]

    def __post_init__(self):
        self._enter: dict[int, int] = {}
        for e in range(self.tour.size):
            if self.forward[e]:
                self._enter[self.tour.dst[e]] = e

    def enter_edge(self, v: int) -> Optional[int]:
        """The forward edge (parent(v) -> v); None for roots."""
        return self._enter.get(v)

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

    When no roots are supplied, forest connectivity picks the lowest id of
    each component.
    """
    if config is None:
        config = ModelConfig.for_graph(n=forest.n, m=max(1, forest.m))
    tour = euler_tour(forest)
    simulators: list[Simulator] = []
    if roots is None:
        components, res = _tour_connectivity(tour, config)
        if res is not None:
            simulators.append(res.simulator)
        rep_to_root: dict[int, int] = {}
        for v in range(forest.n):
            rep = components.label[v]
            if rep not in rep_to_root or v < rep_to_root[rep]:
                rep_to_root[rep] = v
        roots = sorted(rep_to_root.values())
    else:
        roots = list(roots)
        for r in roots:
            if not 0 <= r < forest.n:
                raise ValueError(f"root {r} not in the forest")

    # Each root's tour starts at the edge to its lowest neighbor.
    first_out: dict[int, int] = {}
    for e, v in enumerate(tour.src):
        if tour.dst[e] <= tour.dst[first_out.setdefault(v, e)]:
            first_out[v] = e
    tree_of = [-1] * forest.n
    head_edges: list[int] = []
    for r in roots:
        tree_of[r] = r
        if r in first_out:
            head_edges.append(first_out[r])

    # Break each tour into a list ending just before its head edge; every
    # vertex of the tree is the source of some edge on it.
    succ_map: dict[int, Optional[int]] = {}
    for head in head_edges:
        if head in succ_map:
            raise ValueError("two roots were given inside one tree")
        e = head
        while True:
            tree_of[tour.src[e]] = tour.src[head]
            nxt = tour.succ[e]
            succ_map[e] = None if nxt == head else nxt
            if nxt == head:
                break
            if nxt in succ_map:
                raise ValueError("two roots were given inside one tree")
            e = nxt
    if len(succ_map) != tour.size or -1 in tree_of:
        raise ValueError("roots must include one vertex of every tree")

    rank: dict[int, int] = {}
    if succ_map:
        ranked = rank_lists(succ_map, head_edges, config)
        rank = ranked.ranks
        simulators.append(ranked.simulator)

    forward = [False] * tour.size
    for e in range(0, tour.size, 2):
        forward[e] = rank[e] < rank[e + 1]
        forward[e + 1] = not forward[e]

    parent = list(range(forest.n))
    for e in range(tour.size):
        if forward[e]:
            parent[tour.dst[e]] = tour.src[e]

    edges_in_order: dict[int, list[int]] = {r: [] for r in roots}
    for e in sorted(rank, key=lambda eid: rank[eid]):
        edges_in_order[tree_of[tour.src[e]]].append(e)

    rooted_forest = RootedForest(parent=parent, roots=set(roots))
    return RootedTour(
        tour=tour,
        forest=rooted_forest,
        rank=rank,
        forward=forward,
        tree_of=tree_of,
        edges_in_order=edges_in_order,
        config=config,
        simulators=simulators,
    )


def preorder_and_sizes(rooted: RootedTour) -> tuple[dict[int, int], dict[int, int]]:
    """Preorder numbers and subtree sizes (counting the vertex itself) of
    every tree, from one exclusive prefix sum P of forward-edge counts over
    all trees' ranked tours laid end to end.

    The scan is segmented by subtraction: PN(v) = P[enter] - P[tree start]
    + 1, where enter is the forward edge into v, and size(v) = P[exit] -
    P[enter], where exit is its reverse twin; the difference counts v's
    entering edge plus every forward edge strictly inside v's visit span,
    so it needs no offset. A root gets PN 0 and its tree's vertex count.
    """
    order = [e for edges in rooted.edges_in_order.values() for e in edges]
    scan = mpc_prefix_sum(
        [int(rooted.forward[e]) for e in order], operator.add, 0,
        epsilon=rooted.config.epsilon,
    )
    rooted.charge(scan.rounds_charged, scan.communication_charged, "tour-prefix")
    prefix = dict(zip(order, (p for _, p in scan.value)))
    pn: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for v in range(rooted.tour.n):
        root = rooted.tree_of[v]
        if v == root:
            pn[v] = 0
            sizes[v] = len(rooted.edges_in_order[root]) // 2 + 1
            continue
        enter = rooted.enter_edge(v)
        pn[v] = prefix[enter] - prefix[rooted.edges_in_order[root][0]] + 1
        sizes[v] = prefix[rooted.tour.twin[enter]] - prefix[enter]
    # Each vertex reads P at its entering edge, its exit edge and its
    # tree's first edge.
    rooted.charge(1, 3 * rooted.tour.n, "preorder-size-read")
    return pn, sizes


class SubtreeMinMax:
    """Minimum of ``min_values`` and maximum of ``max_values`` over each
    vertex's whole subtree, for every tree of a rooted forest at once.

    One RMQ index covers the forest laid out in (tree, preorder) order, in
    which every subtree is one contiguous range; its min table is built over
    ``min_values`` and its max table over ``max_values``. The index is sealed
    once built, so every machine can read it in the same round: ``query``
    answers a whole batch of vertices in one round, with communication 2
    per query (one min read and one max read).
    """

    def __init__(
        self,
        rooted: RootedTour,
        pn: dict[int, int],
        sizes: dict[int, int],
        min_values: Sequence[float] | dict[int, float],
        max_values: Sequence[float] | dict[int, float],
    ):
        n = rooted.tour.n
        start: dict[int, int] = {}
        offset = 0
        for root in rooted.edges_in_order:
            start[root] = offset
            offset += sizes[root]
        self._rooted = rooted
        self._first = [start[rooted.tree_of[v]] + pn[v] for v in range(n)]
        self._last = [self._first[v] + sizes[v] - 1 for v in range(n)]
        lows = [0.0] * n
        highs = [0.0] * n
        for v, i in enumerate(self._first):
            lows[i] = min_values[v]
            highs[i] = max_values[v]
        self._index = RMQIndex(lows, highs)
        # rmq_build's cost, charged once for both tables.
        rounds = max(1, math.ceil(1.0 / rooted.config.epsilon))
        rooted.charge(rounds, max(1, n), "rmq-build")

    def query(self, vertices: Sequence[int]) -> list[tuple[float, float]]:
        """(subtree minimum, subtree maximum) of each vertex, in order."""
        self._rooted.charge(1, 2 * len(vertices), "rmq-query")
        idx, first, last = self._index, self._first, self._last
        return [(idx.query_min(first[v], last[v]), idx.query_max(first[v], last[v])) for v in vertices]
