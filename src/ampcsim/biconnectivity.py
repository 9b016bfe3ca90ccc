"""Two-edge connectivity via spanning forest annotations.

Pipeline: spanning forest, rooting with preorder numbers, per-vertex
Low/High/Size aggregates of non-tree edge endpoints, the critical-edge
interval test, and component labels of the graph with critical edges
removed. Bridges, articulation points, and 2-edge-connected components
read off the result.

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
from typing import Optional

from .connectivity import connectivity, spanning_forest
from .graphs import ComponentLabeling, Graph
from .runtime import ModelConfig
from .trees import RootedTour, SubtreeMinMax, preorder_and_sizes, root_forest


@dataclass
class BCLabeling:
    """Component labels after critical-edge removal, plus the annotated
    rooted spanning forest they were derived from."""

    graph: Graph
    config: ModelConfig
    labels: ComponentLabeling
    rooted: RootedTour
    forest_edges: set[tuple[int, int]]
    non_tree_edges: list[tuple[int, int]]
    preorder: dict[int, int]
    sizes: dict[int, int]
    low: dict[int, int]
    high: dict[int, int]
    critical: set[tuple[int, int]] = field(default_factory=set)
    simulators: list = field(default_factory=list)


def _normalize(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def critical_set(
    rooted: RootedTour,
    pn: dict[int, int],
    sizes: dict[int, int],
    low: dict[int, int],
    high: dict[int, int],
    parent_base: bool = False,
    size_includes_vertex: bool = True,
) -> set[tuple[int, int]]:
    """The interval test, parameterized over the two convention choices the
    calibration explores. Defaults are the frozen convention."""
    out = set()
    for v in range(rooted.tour.n):
        p = rooted.forest.parent[v]
        if p == v:
            continue
        base = pn[p] if parent_base else pn[v]
        span = sizes[v] - (1 if size_includes_vertex else 0)
        if base <= low[v] and high[v] <= base + span:
            out.add(_normalize(v, p))
    return out


def bc_labeling(
    graph: Graph,
    config: ModelConfig,
    parent_base: bool = False,
    size_includes_vertex: bool = True,
) -> BCLabeling:
    """Spanning forest, annotations, critical edges, and the labeling of
    the graph with critical edges removed."""
    forest_edges, _, sf_result = spanning_forest(graph, config)
    forest = Graph(graph.n, sorted(forest_edges))
    rooted = root_forest(forest, config=config)
    pn, sizes = preorder_and_sizes(rooted)

    tree_set = {_normalize(u, v) for u, v in forest_edges}
    non_tree = [
        (u, v) for u, v in ((e[0], e[1]) for e in graph.edges)
        if _normalize(u, v) not in tree_set
    ]
    # Per-vertex base values: own preorder number merged with the preorder
    # numbers of non-tree neighbors.
    bas_min = {v: float(pn[v]) for v in range(graph.n)}
    bas_max = {v: float(pn[v]) for v in range(graph.n)}
    for u, v in non_tree:
        bas_min[u] = min(bas_min[u], pn[v])
        bas_max[u] = max(bas_max[u], pn[v])
        bas_min[v] = min(bas_min[v], pn[u])
        bas_max[v] = max(bas_max[v], pn[u])

    subtree = SubtreeMinMax(rooted, pn, sizes, bas_min, bas_max)
    ranges = subtree.query(range(graph.n))
    low = {v: int(lo) for v, (lo, _) in enumerate(ranges)}
    high = {v: int(hi) for v, (_, hi) in enumerate(ranges)}

    critical = critical_set(
        rooted, pn, sizes, low, high,
        parent_base=parent_base,
        size_includes_vertex=size_includes_vertex,
    )
    kept = [
        e for e in graph.edges
        if _normalize(e[0], e[1]) not in critical
    ]
    label_result = connectivity(Graph(graph.n, kept), config)
    labels = label_result.labeling
    return BCLabeling(
        graph=graph,
        config=config,
        labels=labels,
        rooted=rooted,
        forest_edges=tree_set,
        non_tree_edges=non_tree,
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
    out = set()
    for v in range(bc.graph.n):
        p = bc.rooted.forest.parent[v]
        if p != v and not bc.labels.same_component(v, p):
            out.add(_normalize(v, p))
    return out


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
    pn, sizes = bc.preorder, bc.sizes
    parent = bc.rooted.forest.parent
    tree_of = bc.rooted.tree_of
    aux_edges: set[tuple[int, int]] = set()
    for u, v in bc.non_tree_edges:
        a, b = (u, v) if pn[u] < pn[v] else (v, u)
        if tree_of[a] == tree_of[b] and pn[b] >= pn[a] + sizes[a]:
            aux_edges.add(_normalize(a, b))
    for v in range(n):
        w = parent[v]
        if w == v or parent[w] == w:
            continue
        if bc.low[v] < pn[w] or bc.high[v] >= pn[w] + sizes[w]:
            aux_edges.add(_normalize(v, w))
    aux = Graph(n, sorted(aux_edges))
    block_result = connectivity(aux, bc.config)
    bc.simulators.append(block_result.simulator)
    blocks = block_result.labeling

    # Group non-root vertices by block label; heads count per vertex.
    min_vertex_of_block: dict[int, int] = {}
    for v in range(n):
        if parent[v] == v:
            continue
        lab = blocks.label[v]
        if lab not in min_vertex_of_block or pn[v] < pn[min_vertex_of_block[lab]]:
            min_vertex_of_block[lab] = v
    head_counts: dict[int, int] = {}
    for lab, vmin in min_vertex_of_block.items():
        head = parent[vmin]
        head_counts[head] = head_counts.get(head, 0) + 1
    out = set()
    for v, count in head_counts.items():
        if parent[v] == v:
            if count >= 2:
                out.add(v)
        elif count >= 1:
            out.add(v)
    return out


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
