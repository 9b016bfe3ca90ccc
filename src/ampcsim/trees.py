"""Euler tours, tree rooting, and tour-based tree annotations: subtree
sizes, preorder numbers, and range-query subtree minima/maxima.

Every tree edge appears as two directed twins; successor pointers chain
each tree's twins into one closed tour. Rooting breaks the tour at an edge
incident to the root, ranks the resulting list, and classifies each twin
pair by rank order (the parent-to-child occurrence ranks lower).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .contraction import CycleConnResult, cycle_conn, rank_lists
from .errors import StructureError
from .graphs import ComponentLabeling, Graph, RootedForest
from .primitives import mpc_prefix_sum, rmq_build
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

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise StructureError(f"input contains a cycle through edge ({u}, {v})")
        parent[ru] = rv


def euler_tour(forest: Graph) -> EulerTour:
    """Closed tour per tree: the successor of u->v is the edge out of v
    whose target follows u in v's ascending neighbor rotation."""
    _check_forest(forest)
    adj = forest.adjacency()
    position: list[dict[int, int]] = [dict() for _ in range(forest.n)]
    for v in range(forest.n):
        for i, u in enumerate(adj[v]):
            position[v][u] = i
    src: list[int] = []
    dst: list[int] = []
    twin: list[int] = []
    edge_id: dict[tuple[int, int], int] = {}
    for k, edge in enumerate(forest.edges):
        u, v = edge[0], edge[1]
        src += [u, v]
        dst += [v, u]
        twin += [2 * k + 1, 2 * k]
        edge_id[(u, v)] = 2 * k
        edge_id[(v, u)] = 2 * k + 1
    succ = [0] * len(src)
    for e in range(len(src)):
        u, v = src[e], dst[e]
        nxt = adj[v][(position[v][u] + 1) % len(adj[v])]
        succ[e] = edge_id[(v, nxt)]
    return EulerTour(n=forest.n, src=src, dst=dst, twin=twin, succ=succ)


def forest_connectivity(
    forest: Graph, config: ModelConfig
) -> tuple[ComponentLabeling, Optional[CycleConnResult]]:
    """Component labels of a forest by running cycle connectivity over its
    tours; each component is labeled by its lowest vertex id."""
    tour = euler_tour(forest)
    if tour.size == 0:
        return ComponentLabeling(list(range(forest.n))), None
    cycle_graph = Graph(
        tour.size, [(e, tour.succ[e]) for e in range(tour.size)], multigraph=True
    )
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
    res = cycle_conn(cycle_graph, sub_config)
    # Reduce each edge component to its minimum incident vertex id.
    rep_vertex: dict[int, int] = {}
    for e in range(tour.size):
        lab = res.labeling.label[e]
        low = min(tour.src[e], tour.dst[e])
        if lab not in rep_vertex or low < rep_vertex[lab]:
            rep_vertex[lab] = low
    res.simulator.charge(1, tour.size, "component-min")
    label = list(range(forest.n))
    for e in range(tour.size):
        label[tour.src[e]] = rep_vertex[res.labeling.label[e]]
    return ComponentLabeling(label), res


@dataclass
class RootedTour:
    """Ranked, oriented Euler sequence plus the parent map it induces."""

    tour: EulerTour
    forest: RootedForest
    rank: dict[int, int]
    forward: list[bool]
    tree_of: list[int]                      # vertex -> its root
    edges_in_order: dict[int, list[int]]    # root -> edge ids by rank
    simulator: Simulator = field(repr=False, default=None)

    def __post_init__(self):
        self._enter: dict[int, int] = {}
        for e in range(self.tour.size):
            if self.forward[e]:
                self._enter[self.tour.dst[e]] = e

    def enter_edge(self, v: int) -> Optional[int]:
        """The forward edge (parent(v) -> v); None for roots."""
        return self._enter.get(v)


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
    if roots is None:
        components, _ = forest_connectivity(forest, config)
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

    adj = forest.adjacency()
    edge_out: dict[int, list[int]] = {v: [] for v in range(forest.n)}
    for e in range(tour.size):
        edge_out[tour.src[e]].append(e)

    tree_of = [-1] * forest.n
    head_edges: list[int] = []
    for r in roots:
        tree_of[r] = r
        if adj[r]:
            head_edges.append(min(edge_out[r], key=lambda e: tour.dst[e]))

    # Break each tour into a list ending just before its head edge.
    succ_map: dict[int, Optional[int]] = {}
    for head in head_edges:
        if head in succ_map:
            raise ValueError("two roots were given inside one tree")
        e = head
        while True:
            nxt = tour.succ[e]
            succ_map[e] = None if nxt == head else nxt
            if nxt == head:
                break
            if nxt in succ_map:
                raise ValueError("two roots were given inside one tree")
            e = nxt
    if len(succ_map) != tour.size:
        raise ValueError("roots must include one vertex of every tree")

    ranked = rank_lists(succ_map, head_edges, config) if succ_map else None
    rank = ranked.ranks if ranked else {}

    forward = [False] * tour.size
    for e in range(0, tour.size, 2):
        forward[e] = rank[e] < rank[e + 1]
        forward[e + 1] = not forward[e]

    parent = list(range(forest.n))
    for e in range(tour.size):
        if forward[e]:
            parent[tour.dst[e]] = tour.src[e]
    # Every non-root vertex inherits its root by following parents.
    for v in range(forest.n):
        if tree_of[v] >= 0:
            continue
        path = [v]
        x = parent[v]
        while tree_of[x] < 0:
            path.append(x)
            x = parent[x]
        for y in path:
            tree_of[y] = tree_of[x]

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
        simulator=ranked.simulator if ranked else None,
    )


def _tree_prefixes(rooted: RootedTour, config: ModelConfig) -> dict[int, list[int]]:
    """Per tree: exclusive prefix counts of forward edges along the tour."""
    prefixes: dict[int, list[int]] = {}
    for root, order in rooted.edges_in_order.items():
        weights = [1 if rooted.forward[e] else 0 for e in order]
        charged = mpc_prefix_sum(weights, lambda a, b: a + b, 0, epsilon=config.epsilon)
        if rooted.simulator is not None:
            rooted.simulator.charge(
                charged.rounds_charged, charged.communication_charged, "tour-prefix"
            )
        prefixes[root] = [p for _, p in charged.value]
    return prefixes


def preorder_number(rooted: RootedTour, config: Optional[ModelConfig] = None) -> dict[int, int]:
    """Preorder numbers per tree: the root gets 0, any other vertex the
    count of forward edges up to and including its entering edge."""
    if config is None:
        config = ModelConfig.for_graph(n=rooted.tour.n, m=max(1, rooted.tour.size))
    prefixes = _tree_prefixes(rooted, config)
    pos_in_tree: dict[int, int] = {}
    for order in rooted.edges_in_order.values():
        for i, e in enumerate(order):
            pos_in_tree[e] = i
    pn: dict[int, int] = {}
    for v in range(rooted.tour.n):
        root = rooted.tree_of[v]
        if v == root:
            pn[v] = 0
            continue
        enter = rooted.enter_edge(v)
        pn[v] = prefixes[root][pos_in_tree[enter]] + 1
    if rooted.simulator is not None:
        rooted.simulator.charge(1, rooted.tour.n, "preorder-read")
    return pn


def subtree_sizes(rooted: RootedTour, config: Optional[ModelConfig] = None) -> dict[int, int]:
    """Subtree sizes including the vertex itself.

    With exclusive forward-edge prefixes P over a tree's ranked tour,
    size(v) = P[exit] - P[enter], where enter is the forward edge into v
    and exit is its reverse twin: the difference counts v's entering edge
    plus every forward edge strictly inside v's visit span.
    """
    if config is None:
        config = ModelConfig.for_graph(n=rooted.tour.n, m=max(1, rooted.tour.size))
    prefixes = _tree_prefixes(rooted, config)
    pos_in_tree: dict[int, int] = {}
    tree_sizes: dict[int, int] = {}
    for root, order in rooted.edges_in_order.items():
        for i, e in enumerate(order):
            pos_in_tree[e] = i
        tree_sizes[root] = len(order) // 2 + 1
    sizes: dict[int, int] = {}
    for v in range(rooted.tour.n):
        root = rooted.tree_of[v]
        if v == root:
            sizes[v] = tree_sizes.get(root, 1)
            continue
        enter = rooted.enter_edge(v)
        exit_edge = rooted.tour.twin[enter]
        p = prefixes[root]
        sizes[v] = p[pos_in_tree[exit_edge]] - p[pos_in_tree[enter]]
    if rooted.simulator is not None:
        rooted.simulator.charge(1, 2 * rooted.tour.n, "size-read")
    return sizes


class SubtreeMinMax:
    """Range-query structure over per-vertex values: query(v) returns the
    minimum and maximum over v's whole subtree."""

    def __init__(
        self,
        rooted: RootedTour,
        values: dict[int, float],
        config: Optional[ModelConfig] = None,
    ):
        if config is None:
            config = ModelConfig.for_graph(n=rooted.tour.n, m=max(1, rooted.tour.size))
        self._rooted = rooted
        self._pn = preorder_number(rooted, config)
        self._sizes = subtree_sizes(rooted, config)
        order_by_tree: dict[int, list[int]] = {}
        for v in range(rooted.tour.n):
            order_by_tree.setdefault(rooted.tree_of[v], []).append(v)
        self._index = {}
        for root, members in order_by_tree.items():
            members.sort(key=lambda v: self._pn[v])
            arr = [values[v] for v in members]
            built = rmq_build(arr, epsilon=config.epsilon)
            if rooted.simulator is not None:
                rooted.simulator.charge(
                    built.rounds_charged, built.communication_charged, "rmq-build"
                )
            self._index[root] = built.value

    @property
    def preorder(self) -> dict[int, int]:
        return self._pn

    @property
    def sizes(self) -> dict[int, int]:
        return self._sizes

    def query(self, v: int) -> tuple[float, float]:
        root = self._rooted.tree_of[v]
        idx = self._index[root]
        lo = self._pn[v]
        hi = lo + self._sizes[v] - 1
        if self._rooted.simulator is not None:
            self._rooted.simulator.charge(1, 2, "rmq-query")
        return idx.query_min(lo, hi), idx.query_max(lo, hi)


def subtree_min_max(
    rooted: RootedTour,
    values: dict[int, float],
    config: Optional[ModelConfig] = None,
) -> SubtreeMinMax:
    return SubtreeMinMax(rooted, values, config)
