"""Two-edge connectivity via spanning forest annotations.

Pipeline: spanning forest, one rooting at the lowest vertex of each
spanning-forest component, preorder numbers, per-vertex Low/High/Size
aggregates of non-tree edge endpoints, the critical-edge interval test,
and component labels of the graph with critical edges removed. Bridges,
articulation points, and 2-edge-connected components read off the result.
Every stage works on int64 arrays; the graph's edge tuples are never built.

Critical-edge convention (frozen by calibration against the sequential
bridge oracle on exhaustive small graphs, see the test suite): a tree edge
(v, parent(v)) is critical iff

    PN(v) <= Low(v)  and  High(v) <= PN(v) + Size(v) - 1

with Size counting v itself, i.e. no non-tree edge escapes the preorder
interval of v's own subtree. Under this convention the critical set equals
the bridge set exactly, so the label map below is the 2-edge-component
labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connectivity import connectivity, spanning_forest
from .graphs import ComponentLabeling, Graph, pair_keys, simple_graph
from .runtime import ModelConfig
from .trees import RootedTour, SubtreeMinMax, preorder_and_sizes, root_forest


@dataclass
class BCLabeling:
    """Component labels after critical-edge removal, plus the annotated
    rooted spanning forest they were derived from.

    The annotations are int64 arrays over vertices: ``preorder`` numbers,
    subtree ``sizes`` (counting the vertex), and ``low``/``high``, the
    least and greatest preorder number that the vertex's subtree holds or
    reaches by one non-tree edge. ``non_tree_edges`` is a (k, 2) array of
    the graph's edges outside the spanning forest, in input order.
    """

    graph: Graph
    config: ModelConfig
    labels: ComponentLabeling
    rooted: RootedTour
    non_tree_edges: np.ndarray
    preorder: np.ndarray
    sizes: np.ndarray
    low: np.ndarray
    high: np.ndarray
    critical: set[tuple[int, int]] = field(default_factory=set)
    simulators: list = field(default_factory=list)


def _tree_edges(rooted: RootedTour) -> tuple[np.ndarray, np.ndarray]:
    """Every non-root vertex and its parent."""
    child = np.flatnonzero(rooted.enter >= 0)
    return child, rooted.parent[child]


def _pairs(u: np.ndarray, v: np.ndarray) -> set[tuple[int, int]]:
    return set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))


def _keys(n: int, pairs: set[tuple[int, int]]) -> np.ndarray:
    """The ``pair_keys`` of a set of vertex pairs, ascending."""
    edges = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return np.sort(pair_keys(n, edges[:, 0], edges[:, 1]))


def critical_set(
    rooted: RootedTour,
    pn: np.ndarray,
    sizes: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
) -> set[tuple[int, int]]:
    """Tree edges (v, parent(v)) that pass the frozen interval test."""
    child, parent = _tree_edges(rooted)
    inside = (pn[child] <= low[child]) & (high[child] <= pn[child] + sizes[child] - 1)
    return _pairs(child[inside], parent[inside])


def bc_labeling(graph: Graph, config: ModelConfig) -> BCLabeling:
    """Spanning forest, annotations, critical edges, and the labeling of
    the graph with critical edges removed.

    Every tree is rooted at the lowest vertex of its spanning-forest
    component, read off the labels the spanning forest returns in one
    charged round, so rooting needs no second connectivity pass.
    """
    n = graph.n
    forest_edges, forest_labels, sf_result = spanning_forest(graph, config)
    roots = np.unique(forest_labels.label, return_index=True)[1]
    sf_result.simulator.charge(1, n, "component-min")
    tree_keys = _keys(n, forest_edges)
    rooted = root_forest(Graph.from_arrays(n, tree_keys // n, tree_keys % n), roots=roots, config=config)
    pn, sizes = preorder_and_sizes(rooted)

    keys = pair_keys(n, graph.src, graph.dst)
    non_tree = ~np.isin(keys, tree_keys)
    u, v = graph.src[non_tree], graph.dst[non_tree]
    # Per-vertex base values: own preorder number merged with the preorder
    # numbers of non-tree neighbors.
    bas_min, bas_max = pn.copy(), pn.copy()
    np.minimum.at(bas_min, u, pn[v])
    np.minimum.at(bas_min, v, pn[u])
    np.maximum.at(bas_max, u, pn[v])
    np.maximum.at(bas_max, v, pn[u])

    subtree = SubtreeMinMax(rooted, pn, sizes, bas_min, bas_max)
    low, high = subtree.query(np.arange(n))

    critical = critical_set(rooted, pn, sizes, low, high)
    kept = ~np.isin(keys, _keys(n, critical))
    label_result = connectivity(Graph.from_arrays(n, graph.src[kept], graph.dst[kept]), config)
    return BCLabeling(
        graph=graph,
        config=config,
        labels=label_result.labeling,
        rooted=rooted,
        non_tree_edges=np.stack((u, v), axis=1),
        preorder=pn,
        sizes=sizes,
        low=low,
        high=high,
        critical=critical,
        simulators=[sf_result.simulator, *rooted.simulators, label_result.simulator],
    )


def bridges(bc: BCLabeling) -> set[tuple[int, int]]:
    """Tree edges whose endpoints land in different components of the
    critical-edges-removed labeling.

    Under the frozen convention the labeling is the 2-edge-component
    labeling, and an edge is a bridge exactly when its endpoints lie in
    different 2-edge components.
    """
    label = bc.labels.label
    child, parent = _tree_edges(bc.rooted)
    cut = label[child] != label[parent]
    return _pairs(child[cut], parent[cut])


def articulation_points(bc: BCLabeling) -> set[int]:
    """Head-counting rule over co-block components.

    Two non-root vertices share a co-block component when their parent
    edges lie on a common cycle: either a non-tree edge joins two
    unrelated vertices, or a child's subtree escapes its parent's
    interval. The head of a component is the forest parent of its
    preorder-minimal vertex; a non-root vertex is an articulation point
    when it heads at least one component, the root when it heads two.
    """
    n = bc.graph.n
    pn, sizes, tree_of = bc.preorder, bc.sizes, bc.rooted.tree_of
    is_root = bc.rooted.enter < 0
    u, v = bc.non_tree_edges[:, 0], bc.non_tree_edges[:, 1]
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
    return set(np.flatnonzero(head_counts >= np.where(is_root, 2, 1)).tolist())


def two_edge_components(graph: Graph, config: ModelConfig) -> ComponentLabeling:
    """Components of the graph with its bridges removed.

    The critical set equals the bridge set, so the labeling computed by
    the BC pipeline is already the answer.
    """
    bc = bc_labeling(graph, config)
    return bc.labels


def bc_pipeline(graph: Graph, config: ModelConfig) -> tuple[BCLabeling, set, set, ComponentLabeling]:
    """Convenience: one BC labeling plus all three extractions."""
    bc = bc_labeling(graph, config)
    return bc, bridges(bc), articulation_points(bc), bc.labels
