"""Euler tours, tree rooting, and tour-based tree annotations: subtree
sizes, preorder numbers, and range-query subtree minima/maxima.

Every tree edge k appears as two directed twins, 2k and 2k+1, so the twin
of directed edge e is e ^ 1; successor pointers chain each tree's twins
into one closed tour. The tour also checks its input: the input is a
forest exactly when its tour has one cycle per tree (see ``euler_tour``),
so no separate acyclicity pass runs. Rooting breaks the tour at an edge
incident to the root, ranks the resulting list, and classifies each twin
pair by rank order (the parent-to-child occurrence ranks lower). The
rooted forest is those tour arrays: each vertex's entering edge, the
forward edge from its parent, gives its parent, and the vertices with no
entering edge are the roots. The parent map needs no acyclicity check,
since a parent's entering edge ranks before its child's. Rooting also
numbers each tree's vertices in preorder and sizes their subtrees, by one
prefix sum over the ranked tours that weighs forward edges 1 and reverse
edges 0. Trees are laid out end to end in ascending root id with no sort:
an edge at its tree's offset plus its rank, a vertex at its tree's offset
plus its preorder number. Every array is int64, by directed edge or vertex.

Annotations work on the whole forest at once and are charged per batch,
not per tree or per vertex: in the AMPC model every machine of a round
reads the previous generation concurrently, so one prefix sum covers all
tours and any batch of independent subtree queries costs one round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .contraction import CycleConnResult, label_cycles, rank_lists
from .errors import StructureError
from .graphs import ComponentLabeling, Graph, _darts, _int64_array, resolve_pointers
from .primitives import RMQIndex
from .runtime import ModelConfig, Simulator


@dataclass
class EulerTour:
    """Unranked successor structure: one closed cycle of directed edges per
    tree. Directed edge e runs ``src[e] -> dst[e]``, lies between ``pred[e]``
    and ``succ[e]`` on the cycle whose lowest edge is ``cycle[e]``, and edges
    2k and 2k+1 are the two directions of forest edge k. ``first[v]`` is v's
    edge to its lowest neighbor (-1 if none), where a root's tour list starts."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    succ: np.ndarray
    pred: np.ndarray
    cycle: np.ndarray
    first: np.ndarray

    @property
    def size(self) -> int:
        return len(self.src)


def euler_tour(forest: Graph) -> EulerTour:
    """Closed tour per tree: the successor of u->v is the edge out of v
    whose target follows u in v's ascending neighbor rotation.

    On any multigraph these successors form a permutation, with at least one
    cycle per component. A component of n_c vertices and m_c edges has
    n_c - m_c <= 1, with equality only for a tree, whose tour is one cycle.
    So the input is a forest exactly when (vertices with an edge) - m equals
    the number of tour cycles; otherwise ``StructureError`` is raised.
    """
    src, dst, succ, first = _darts(forest)
    size = len(src)
    pred = np.empty(size, dtype=np.int64)
    pred[succ] = np.arange(size)
    cycle = resolve_pointers(succ)
    cycles = np.count_nonzero(cycle == np.arange(size))
    touched = np.count_nonzero(first >= 0)
    if touched - forest.m != cycles:
        raise StructureError(
            f"input is not a forest: {touched} vertices with edges and {forest.m} edges "
            f"leave {cycles} tour cycles, not {touched - forest.m}"
        )
    return EulerTour(n=forest.n, src=src, dst=dst, succ=succ, pred=pred, cycle=cycle, first=first)


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
        return ComponentLabeling(np.arange(tour.n)), None
    res = label_cycles(tour.succ, tour.pred, replace(config, n=tour.size, m=tour.size))
    # Reduce each edge component to its minimum vertex id; every vertex of a
    # tree with edges is the source of one of its tour's edges.
    edge_label = res.labeling.label
    rep_vertex = np.full(tour.size, tour.n, dtype=np.int64)
    np.minimum.at(rep_vertex, edge_label, tour.src)
    res.simulator.charge(1, tour.size, "component-min")
    label = np.arange(tour.n)
    label[tour.src] = rep_vertex[edge_label]
    return ComponentLabeling(label), res


@dataclass
class RootedTour:
    """Ranked, oriented Euler tour: the rooted forest as int64 arrays.

    Arrays over directed edges: ``rank`` is the edge's position in its
    tree's tour list, which starts at the root's edge to its lowest
    neighbor; ``forward`` marks the parent-to-child occurrences. Arrays over
    vertices: ``tree_of`` is the vertex's root, ``enter`` its entering edge
    (the forward edge parent -> v), -1 at roots, ``preorder`` its preorder
    number within its tree (0 at the root), and ``sizes`` its subtree's
    vertex count, itself included. ``parent`` is the source of the entering
    edge, and a root is its own parent; ``roots`` are the vertices with no
    entering edge, ascending.

    ``simulators`` holds every simulator rooting ran, in order: forest
    connectivity when no roots were supplied, then list ranking. The
    preorder pass and later annotations charge into the last one, so a
    forest without edges is charged nothing.
    """

    tour: EulerTour
    rank: np.ndarray
    forward: np.ndarray
    tree_of: np.ndarray
    enter: np.ndarray
    parent: np.ndarray
    roots: np.ndarray
    preorder: np.ndarray
    sizes: np.ndarray
    config: ModelConfig
    simulators: list[Simulator]

    def charge(self, rounds: int, communication: int, label: str) -> None:
        if self.simulators:
            self.simulators[-1].charge(rounds, communication, label)


def _vertex_ids(ids: Sequence[int], n: int, what: str) -> np.ndarray:
    """``ids`` as int64, checked to be a 1-d batch of integer ids in 0..n-1:
    TypeError for another shape or dtype, ValueError for an id outside."""
    ids = _int64_array(f"{what} ids", ids)
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        raise ValueError(f"{what} {ids[outside][0]} not in the forest")
    return ids


def root_forest(
    forest: Graph,
    config: ModelConfig,
    roots: Optional[Sequence[int]] = None,
) -> RootedTour:
    """Root every tree: break its tour at a root-incident edge, rank the
    list, read parents off the forward occurrences, and number the vertices
    in preorder with one prefix sum. Each vertex finds its root through its
    tour's cycle id, with no second pointer chase.

    ``roots`` must hold one vertex of every tree. When they are not
    supplied, forest connectivity over the tours picks the lowest id of
    each component.
    """
    n = forest.n
    tour = euler_tour(forest)
    simulators: list[Simulator] = []
    if roots is None:
        components, res = _tour_connectivity(tour, config)
        if res is not None:
            simulators.append(res.simulator)
        roots = np.unique(components.label)
    roots = _vertex_ids(roots, n, "root")
    if len(np.unique(roots)) < len(roots):
        raise ValueError("two roots were given inside one tree")

    # Each root's tour list starts at its edge to its lowest neighbor and
    # ends just before it; every edge and vertex of that tour takes the
    # root as its tree.
    heads = tour.first[roots[tour.first[roots] >= 0]]
    is_head = np.zeros(tour.size, dtype=bool)
    is_head[heads] = True
    tour_root = np.full(tour.size, -1, dtype=np.int64)
    tour_root[tour.cycle[heads]] = tour.src[heads]
    tree_of = np.full(n, -1, dtype=np.int64)
    tree_of[roots] = roots
    tree_of[tour.src] = tour_root[tour.cycle]
    if (tree_of < 0).any():
        raise ValueError("roots must include one vertex of every tree")
    # Two heads in one tour: only one of them kept its root there.
    if (tour_root[tour.cycle[heads]] != tour.src[heads]).any():
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
    child = tour.dst[forward_edges]
    enter[child] = forward_edges
    parent = np.arange(n)
    parent[child] = tour.src[forward_edges]

    # One exclusive prefix sum P of forward flags over all tours laid end to
    # end, trees in ascending root id: an edge sits at its tree's offset
    # plus its rank. The scan is segmented by subtraction: PN(v) = P[enter]
    # - P[tree start] + 1, and size(v) = P[exit] - P[enter], where exit is
    # the reverse twin of enter; the difference counts v's entering edge
    # plus every forward edge strictly inside v's visit span, so it needs no
    # offset. A root gets PN 0 and its tree's vertex count.
    tree = tree_of[tour.src]
    length = np.bincount(tree, minlength=n)
    tree_start = np.cumsum(length) - length
    slot = tree_start[tree] + rank
    laid = np.empty(tour.size, dtype=bool)
    laid[slot] = forward
    scan = np.cumsum(laid, dtype=np.int64) - laid
    prefix = scan[slot]
    preorder = np.zeros(n, dtype=np.int64)
    preorder[child] = prefix[forward_edges] - scan[tree_start[tree_of[child]]] + 1
    sizes = np.bincount(tree_of, minlength=n)
    sizes[child] = prefix[forward_edges ^ 1] - prefix[forward_edges]

    rooted = RootedTour(
        tour=tour,
        rank=rank,
        forward=forward,
        tree_of=tree_of,
        enter=enter,
        parent=parent,
        roots=np.flatnonzero(enter < 0),
        preorder=preorder,
        sizes=sizes,
        config=config,
        simulators=simulators,
    )
    rooted.charge(config.bulk_rounds, 2 * tour.size, "tour-prefix")
    # Each vertex reads P at its entering edge, its exit edge and its
    # tree's first edge.
    rooted.charge(1, 3 * n, "preorder-size-read")
    return rooted


class SubtreeMinMax:
    """Minimum of ``min_values`` and maximum of ``max_values`` over each
    vertex's whole subtree, for every tree of a rooted forest at once.

    One RMQ index covers the forest laid out in (tree, preorder) order, in
    which every subtree is one contiguous range; its min table is built over
    ``min_values`` and its max table over ``max_values`` (one per vertex).
    The index is sealed once built, so every machine can read it in the same
    round: ``query`` answers a whole batch of vertices in one round, with
    communication 2 per query (one min read and one max read).
    """

    def __init__(self, rooted: RootedTour, min_values: Sequence[float], max_values: Sequence[float]):
        n = rooted.tour.n
        min_values, max_values = np.asarray(min_values), np.asarray(max_values)
        if len(min_values) != n or len(max_values) != n:
            raise ValueError(f"got {len(min_values)} min and {len(max_values)} max values for {n} vertices")
        count = np.bincount(rooted.tree_of, minlength=n)
        self._rooted = rooted
        self._first = (np.cumsum(count) - count)[rooted.tree_of] + rooted.preorder
        self._last = self._first + rooted.sizes - 1
        layout = np.empty(n, dtype=np.int64)
        layout[self._first] = np.arange(n)
        self._index = RMQIndex(min_values[layout], max_values[layout])
        rooted.charge(rooted.config.bulk_rounds, max(1, n), "rmq-build")

    def query(self, vertices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Subtree minima and subtree maxima of the vertices, in order; a
        batch holding a non-vertex id is rejected before it is charged."""
        vertices = _vertex_ids(vertices, self._rooted.tour.n, "vertex")
        self._rooted.charge(1, 2 * len(vertices), "rmq-query")
        return self._index.query(self._first[vertices], self._last[vertices])
