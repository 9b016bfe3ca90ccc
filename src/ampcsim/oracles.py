"""Independent sequential reference implementations used as ground truth.

Nothing here may import from the algorithm modules; these are the other
side of every dual-route check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ComponentLabeling, Graph


@dataclass(frozen=True)
class OracleReport:
    match: bool
    first_divergence: str = ""


def compare_labelings(got: ComponentLabeling, want: ComponentLabeling) -> OracleReport:
    a, b = got.canonical(), want.canonical()
    if len(a) != len(b):
        return OracleReport(False, f"length {len(a)} != {len(b)}")
    for v, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return OracleReport(False, f"vertex {v}: canonical label {x} != {y}")
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
    uf = UnionFind(graph.n)
    # Edges in slices, so the oracle never holds 2m Python ints at once.
    for start in range(0, graph.m, 1 << 16):
        chunk = slice(start, start + (1 << 16))
        for u, v in zip(graph.src[chunk].tolist(), graph.dst[chunk].tolist()):
            uf.union(u, v)
    return ComponentLabeling([uf.find(v) for v in range(graph.n)])


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
    if len(np.unique(graph.weight)) != graph.m:
        raise ValueError("duplicate edge weights")
    order = np.argsort(graph.weight, kind="stable")
    uf = UnionFind(graph.n)
    forest = set()
    for u, v, w in zip(graph.src[order].tolist(), graph.dst[order].tolist(), graph.weight[order].tolist()):
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
    kept = [
        e for e in graph.edges if (min(e[0], e[1]), max(e[0], e[1])) not in bridges
    ]
    return uf_components(Graph(graph.n, kept))


def seq_list_rank(successor: np.ndarray, head: int) -> np.ndarray:
    """Ranks by walking the list once from the head. ``successor`` is an
    int64 array over elements 0..n-1, -1 at the tail; an element the walk
    does not reach gets rank -1."""
    nxt = np.asarray(successor).tolist()
    ranks = [-1] * len(nxt)
    node, r = head, 0
    while node >= 0:
        if ranks[node] >= 0:
            raise ValueError("successor chain revisits a node")
        ranks[node] = r
        r += 1
        node = nxt[node]
    return np.array(ranks, dtype=np.int64)


def seq_dfs_tree(
    graph: Graph, root: int
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Parents, preorder numbers, and subtree sizes of one tree by DFS.

    Child order matches the simulator's tour rotation: neighbors ascending,
    starting just after the parent's position (cyclically).
    """
    adj = graph.adjacency()
    parent = {root: root}
    stack = [(root, -1)]
    while stack:
        v, came_from = stack.pop()
        neighbors = adj[v]
        if came_from >= 0:
            pivot = neighbors.index(came_from)
            rotation = neighbors[pivot + 1 :] + neighbors[:pivot]
        else:
            rotation = list(neighbors)
        # Push in reverse so the first child in rotation order pops first.
        for w in reversed(rotation):
            if w not in parent:
                parent[w] = v
                stack.append((w, v))
    preorder = {}
    sizes = {}
    counter = 0
    stack2: list[tuple[int, int, bool]] = [(root, -1, False)]
    post: list[int] = []
    while stack2:
        v, came_from, processed = stack2.pop()
        if processed:
            sizes[v] = 1 + sum(sizes[w] for w in adj[v] if parent.get(w) == v and w != v)
            continue
        preorder[v] = counter
        counter += 1
        stack2.append((v, came_from, True))
        neighbors = adj[v]
        if came_from >= 0:
            pivot = neighbors.index(came_from)
            rotation = neighbors[pivot + 1 :] + neighbors[:pivot]
        else:
            rotation = list(neighbors)
        for w in reversed(rotation):
            if parent.get(w) == v and w != v:
                stack2.append((w, v, False))
    return parent, preorder, sizes
