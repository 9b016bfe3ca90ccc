"""Independent reference implementations used as ground truth.

These are the other side of every dual-route check in the harness and the
test suite. They stay independent of what they check in two ways: nothing
here imports from the algorithm modules, and each oracle uses a different
method from the algorithm it verifies.

Three oracles run on int64 arrays, because they verify every trial at full
size: ``uf_components`` hooks roots and shortcuts (Shiloach and Vishkin,
1982) where connectivity contracts around sampled leaders,
``seq_list_rank`` doubles pointers toward a sentinel (Wyllie, 1979) where
list ranking samples and traverses chains in the store, and
``compare_labelings`` compares labelings canonicalised by first occurrence.
``two_edge_component_oracle`` masks bridges on the edge arrays and reuses
``uf_components``. The rest are sequential Python: ``UnionFind`` and
``kruskal_msf`` (Kruskal's scan is sequential by nature),
``bfs_components``, ``tarjan_bridges_aps``, ``seq_dfs_tree``, and the
quadratic ``brute_bridges_aps`` for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ComponentLabeling, Graph, pair_keys


@dataclass(frozen=True)
class OracleReport:
    match: bool
    first_divergence: str = ""


def compare_labelings(got: ComponentLabeling, want: ComponentLabeling) -> OracleReport:
    a, b = got.canonical_array(), want.canonical_array()
    if len(a) != len(b):
        return OracleReport(False, f"length {len(a)} != {len(b)}")
    diverged = np.flatnonzero(a != b)
    if len(diverged):
        v = int(diverged[0])
        return OracleReport(False, f"vertex {v}: canonical label {a[v]} != {b[v]}")
    return OracleReport(True)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def uf_components(graph: Graph) -> ComponentLabeling:
    """Min-id representative of each vertex's component, by hooking and
    shortcutting on a parent array ``f``.

    A pass hooks the edges in slices of 1 << 16, so the transient arrays
    stay small: each edge (u, v) with a = f[u] != b = f[v] lowers
    ``f[max(a, b)]`` to at most min(a, b), with ``np.minimum.at``. The pass
    then shortcuts ``f = f[f]`` until nothing changes, which leaves every
    tree a star. Passes repeat until one hooks nothing.

    Why this is right: a hook only lowers some ``f[x]``, to a vertex of
    x's own component, so ``f[x] <= x`` holds throughout and ``f`` is a
    forest inside the components. A pass starts on stars (the first on
    singletons), and slices before its first edge across two stars hook
    nothing, so that edge reads two distinct roots and hooks one under the
    other. So each pass that hooks anything removes a root, and the loop
    ends. When a pass hooks nothing, no edge crosses two stars, so each
    star is a whole component, and its root, being at most every member,
    is the min id.
    """
    f = np.arange(graph.n, dtype=np.int64)
    step = 1 << 16
    hooked = True
    while hooked:
        hooked = False
        for start in range(0, graph.m, step):
            a = f[graph.src[start : start + step]]
            b = f[graph.dst[start : start + step]]
            cross = a != b
            if cross.any():
                a, b = a[cross], b[cross]
                np.minimum.at(f, np.maximum(a, b), np.minimum(a, b))
                hooked = True
        if hooked:
            while True:
                jumped = f[f]
                if np.array_equal(jumped, f):
                    break
                f = jumped
    return ComponentLabeling(f)


def bfs_components(graph: Graph) -> ComponentLabeling:
    """Flood-fill labeling; the second independent connectivity method."""
    label = [-1] * graph.n
    adj = graph.adjacency()
    for start in range(graph.n):
        if label[start] >= 0:
            continue
        label[start] = start
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if label[v] < 0:
                        label[v] = start
                        nxt.append(v)
            frontier = nxt
    return ComponentLabeling(label)


def kruskal_msf(graph: Graph) -> set[tuple[int, int, float]]:
    """The unique minimum spanning forest of a distinct-weight graph."""
    if not graph.weighted:
        raise ValueError("kruskal_msf needs a weighted graph")
    order = np.argsort(graph.weight, kind="stable")
    weights = graph.weight[order]
    if (weights[1:] == weights[:-1]).any():
        raise ValueError("duplicate edge weights")
    uf = UnionFind(graph.n)
    forest = set()
    for u, v, w in zip(graph.src[order].tolist(), graph.dst[order].tolist(), weights.tolist()):
        if uf.union(u, v):
            forest.add((u, v, w))
    return forest


def tarjan_bridges_aps(graph: Graph) -> tuple[set[tuple[int, int]], set[int]]:
    """DFS low-link bridges and articulation points (iterative)."""
    n = graph.n
    adj = graph.adjacency()
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    bridges: set[tuple[int, int]] = set()
    aps: set[int] = set()
    timer = 0
    for start in range(n):
        if disc[start] != -1:
            continue
        root_children = 0
        stack: list[tuple[int, int]] = [(start, 0)]
        disc[start] = low[start] = timer
        timer += 1
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if disc[w] == -1:
                    parent[w] = v
                    if v == start:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                elif w != parent[v]:
                    low[v] = min(low[v], disc[w])
                elif adj[v].count(w) > 1:
                    # Parallel edge to the parent is a cycle, not a tree edge.
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        bridges.add((min(u, v), max(u, v)))
                    if u != start and low[v] >= disc[u]:
                        aps.add(u)
        if root_children >= 2:
            aps.add(start)
    return bridges, aps


def brute_bridges_aps(graph: Graph) -> tuple[set[tuple[int, int]], set[int]]:
    """Delete-and-count validation oracle; quadratic, small graphs only."""
    base = uf_components(graph).component_count()
    bridges = set()
    for idx, edge in enumerate(graph.edges):
        rest = graph.edges[:idx] + graph.edges[idx + 1 :]
        if uf_components(Graph(graph.n, rest)).component_count() > base:
            bridges.add((min(edge[0], edge[1]), max(edge[0], edge[1])))
    aps = set()
    for v in range(graph.n):
        kept = [e for e in graph.edges if v not in (e[0], e[1])]
        sub = Graph(graph.n, kept)
        # Removing v should not count v itself or previously isolated vertices.
        labels = uf_components(sub).label
        comps = {labels[u] for u in range(graph.n) if u != v and graph.adjacency()[u]}
        before = {
            uf_components(graph).label[u]
            for u in range(graph.n)
            if u != v and graph.adjacency()[u]
        }
        if len(comps) > len(before):
            aps.add(v)
    return bridges, aps


def two_edge_component_oracle(graph: Graph, bridges: set[tuple[int, int]]) -> ComponentLabeling:
    """Components of the graph without ``bridges`` (as from tarjan_bridges_aps)."""
    ends = np.array(sorted(bridges), dtype=np.int64).reshape(-1, 2)
    cut = pair_keys(graph.n, ends[:, 0], ends[:, 1])
    keep = ~np.isin(pair_keys(graph.n, graph.src, graph.dst), cut)
    return uf_components(
        Graph.from_arrays(graph.n, graph.src[keep], graph.dst[keep], multigraph=graph.multigraph)
    )


def seq_list_rank(successor: np.ndarray, head: int) -> np.ndarray:
    """Rank of each element on the list from ``head``, by pointer doubling.
    ``successor`` is an int64 array over elements 0..n-1, -1 at the tail;
    an element the walk from the head does not reach gets rank -1. Raises
    ``ValueError`` if the walk from the head revisits an element.

    Every element points one step past the tail to a sentinel n, which
    points to itself. After ceil(log2 n) doublings, ``hop[x]`` is n exactly
    when x reaches the tail, and ``dist[x]`` counts the elements from x to
    the tail. A head whose walk covers all n elements ranks x at
    n - dist[x]; otherwise the elements on its walk are marked by jumping
    from the head by 1, 2, 4, ... steps.
    """
    succ = np.asarray(successor, dtype=np.int64)
    n = len(succ)
    if head < 0:
        return np.full(n, -1, dtype=np.int64)
    if n and succ.max() >= n:
        raise ValueError(f"successor {int(succ.max())} out of range for {n} elements")
    step = np.append(np.where(succ < 0, n, succ), n)
    hop, dist = step, np.ones(n + 1, dtype=np.int64)
    dist[n] = 0
    for _ in range(n.bit_length()):
        dist += dist[hop]
        hop = hop[hop]
    if hop[head] != n:
        raise ValueError("successor chain revisits a node")
    length = int(dist[head])
    if length == n:
        return n - dist[:n]
    on_walk = np.zeros(n + 1, dtype=bool)
    on_walk[head] = True
    hop = step
    for _ in range(n.bit_length()):
        on_walk[hop[on_walk]] = True
        hop = hop[hop]
    return np.where(on_walk, length - dist, -1)[:n]


def seq_dfs_tree(
    graph: Graph, root: int
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Parents, preorder numbers, and subtree sizes of one tree by DFS, as
    three dicts over the tree's vertices, each keyed in preorder.

    Child order matches the simulator's tour rotation: neighbors ascending,
    starting just after the parent's position (cyclically). One walk finds
    parents and preorder; sizes are then summed in reverse preorder, each
    vertex's into its parent's.
    """
    adj = graph.adjacency()
    parent = {root: root}
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        neighbors = adj[v]
        if v == root:
            rotation = neighbors
        else:
            pivot = neighbors.index(parent[v])
            rotation = neighbors[pivot + 1 :] + neighbors[:pivot]
        # Push in reverse so the first child in rotation order pops first.
        for w in reversed(rotation):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    sizes = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        sizes[parent[v]] += sizes[v]
    return {v: parent[v] for v in order}, {v: i for i, v in enumerate(order)}, sizes
