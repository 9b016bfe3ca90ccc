"""Two-edge connectivity via spanning forest annotations.

Pipeline: spanning forest, one rooting at the lowest vertex of each
spanning-forest component (which also yields preorder numbers and subtree
sizes), per-vertex Low/High aggregates of non-tree edge endpoints, the critical-edge interval test,
and component labels of the graph with critical edges removed. Bridges,
articulation points, and 2-edge-connected components read off the result.
Every stage works on int64 arrays; the graph's edge tuples are never built.
Edge sets (spanning forest, critical edges, bridges) are sorted int64 indices
into the input graph's edges, so on a multigraph a parallel copy of a tree
edge is a non-tree edge. Articulation points are a sorted int64 array.

Critical-edge convention (frozen by calibration against the sequential
bridge oracle on exhaustive small graphs, see the test suite): a tree edge
(v, parent(v)) is critical iff

    PN(v) <= Low(v)  and  High(v) <= PN(v) + Size(v) - 1

with Size counting v itself, i.e. no non-tree edge escapes the preorder
interval of v's own subtree. Under this convention the critical set equals
the bridge set exactly, so ``bridges`` returns it and the label map below
is the 2-edge-component labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .connectivity import connectivity, spanning_forest
from .graphs import ComponentLabeling, Graph, pair_keys, simple_graph
from .runtime import ModelConfig
from .trees import RootedTour, SubtreeMinMax, root_forest


@dataclass
class BCLabeling:
    """Component labels after critical-edge removal, plus the annotated
    rooted spanning forest they were derived from.

    ``rooted`` carries each vertex's preorder number and subtree size.
    ``low``/``high`` are int64 arrays over vertices: the least and greatest
    preorder number that the vertex's subtree holds or reaches by one
    non-tree edge. ``tree[k]`` is the input index of edge k
    of the rooted forest, whose edges go by endpoint pair; every other input
    edge is a non-tree edge. ``critical`` holds sorted input indices.
    ``articulation_points`` keeps its answer, so its connectivity pass runs
    and is counted in ``simulators`` once.
    """

    graph: Graph
    config: ModelConfig
    labels: ComponentLabeling
    rooted: RootedTour
    low: np.ndarray
    high: np.ndarray
    tree: np.ndarray
    critical: np.ndarray
    simulators: list = field(default_factory=list)
    _articulation: Optional[np.ndarray] = field(default=None, init=False, repr=False)


def _tree_edges(rooted: RootedTour) -> tuple[np.ndarray, np.ndarray]:
    """Every non-root vertex and its parent."""
    child = np.flatnonzero(rooted.enter >= 0)
    return child, rooted.parent[child]


def critical_set(rooted: RootedTour, tree: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Tree edges (v, parent(v)) that pass the frozen interval test, as sorted
    input indices: v enters by forest edge ``enter[v] >> 1``, which ``tree`` maps."""
    child, _ = _tree_edges(rooted)
    pn, sizes = rooted.preorder, rooted.sizes
    inside = (pn[child] <= low[child]) & (high[child] <= pn[child] + sizes[child] - 1)
    return np.sort(tree[rooted.enter[child[inside]] >> 1])


def bc_labeling(graph: Graph, config: ModelConfig) -> BCLabeling:
    """Spanning forest, annotations, critical edges, and the labeling of
    the graph with critical edges removed.

    Every tree is rooted at the lowest vertex of its spanning-forest
    component, read off the labels the spanning forest returns in one
    charged round, so rooting needs no second connectivity pass.
    """
    n = graph.n
    forest, forest_labels, sf_result = spanning_forest(graph, config)
    roots = np.unique(forest_labels.label, return_index=True)[1]
    sf_result.simulator.charge(1, n, "component-min")
    tree = forest[np.argsort(pair_keys(n, graph.src[forest], graph.dst[forest]))]
    rooted = root_forest(Graph.from_arrays(n, graph.src[tree], graph.dst[tree]), roots=roots, config=config)
    pn = rooted.preorder

    u, v = np.delete(graph.src, forest), np.delete(graph.dst, forest)
    # Per-vertex base values: own preorder number merged with the preorder
    # numbers of non-tree neighbors.
    bas_min, bas_max = pn.copy(), pn.copy()
    np.minimum.at(bas_min, u, pn[v])
    np.minimum.at(bas_min, v, pn[u])
    np.maximum.at(bas_max, u, pn[v])
    np.maximum.at(bas_max, v, pn[u])

    subtree = SubtreeMinMax(rooted, bas_min, bas_max)
    low, high = subtree.query(np.arange(n))

    critical = critical_set(rooted, tree, low, high)
    src, dst = np.delete(graph.src, critical), np.delete(graph.dst, critical)
    label_result = connectivity(Graph.from_arrays(n, src, dst, multigraph=graph.multigraph), config)
    return BCLabeling(
        graph=graph,
        config=config,
        labels=label_result.labeling,
        rooted=rooted,
        low=low,
        high=high,
        tree=tree,
        critical=critical,
        simulators=[sf_result.simulator, *rooted.simulators, label_result.simulator],
    )


def bridges(bc: BCLabeling) -> np.ndarray:
    """Bridges as sorted input edge indices: under the frozen convention
    the critical set is the bridge set."""
    return bc.critical


def articulation_points(bc: BCLabeling) -> np.ndarray:
    """Head-counting rule over co-block components; sorted vertex ids.

    Two non-root vertices share a co-block component when their parent
    edges lie on a common cycle: either a non-tree edge joins two
    unrelated vertices, or a child's subtree escapes its parent's
    interval. The head of a component is the forest parent of its
    preorder-minimal vertex; a non-root vertex is an articulation point
    when it heads at least one component, the root when it heads two.
    A repeated call returns the first call's array.
    """
    if bc._articulation is not None:
        return bc._articulation
    n = bc.graph.n
    pn, sizes, tree_of = bc.rooted.preorder, bc.rooted.sizes, bc.rooted.tree_of
    is_root = bc.rooted.enter < 0
    u, v = np.delete(bc.graph.src, bc.tree), np.delete(bc.graph.dst, bc.tree)
    a = np.where(pn[u] < pn[v], u, v)
    b = u + v - a
    unrelated = (tree_of[a] == tree_of[b]) & (pn[b] >= pn[a] + sizes[a])
    child, parent = _tree_edges(bc.rooted)
    inner = ~is_root[parent]
    below, w = child[inner], parent[inner]
    escapes = (bc.low[below] < pn[w]) | (bc.high[below] >= pn[w] + sizes[w])
    aux = simple_graph(
        n,
        np.concatenate((a[unrelated], below[escapes])),
        np.concatenate((b[unrelated], w[escapes])),
    )
    block_result = connectivity(aux, bc.config)
    bc.simulators.append(block_result.simulator)
    blocks = block_result.labeling.label

    # The preorder-minimal vertex of each block of non-root vertices, and
    # how many blocks each vertex heads.
    block_of = blocks[child]
    by_block = np.lexsort((pn[child], block_of))
    first = by_block[np.unique(block_of[by_block], return_index=True)[1]]
    head_counts = np.bincount(parent[first], minlength=n)
    bc._articulation = np.flatnonzero(head_counts >= np.where(is_root, 2, 1))
    return bc._articulation


def two_edge_components(graph: Graph, config: ModelConfig) -> ComponentLabeling:
    """Components of the graph with its bridges removed.

    The critical set equals the bridge set, so the labeling computed by
    the BC pipeline is already the answer.
    """
    bc = bc_labeling(graph, config)
    return bc.labels


def bc_pipeline(graph: Graph, config: ModelConfig) -> tuple[BCLabeling, np.ndarray, np.ndarray, ComponentLabeling]:
    """Convenience: one BC labeling plus all three extractions, each in the
    form ``bridges``, ``articulation_points`` and ``labels`` return."""
    bc = bc_labeling(graph, config)
    return bc, bridges(bc), articulation_points(bc), bc.labels
