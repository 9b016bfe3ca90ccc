import itertools
import random

import numpy as np
import pytest

from ampcsim.graphs import ComponentLabeling, Graph, gen_random_forest, gen_random_graph
from ampcsim.oracles import (
    UnionFind,
    bfs_components,
    brute_bridges_aps,
    compare_labelings,
    kruskal_msf,
    seq_dfs_tree,
    seq_list_rank,
    tarjan_bridges_aps,
    two_edge_component_oracle,
    uf_components,
)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def test_uf_components_examples():
    assert uf_components(Graph(4, [])).component_count() == 4
    assert uf_components(Graph(3, [(0, 1), (1, 2)])).component_count() == 1


def test_uf_matches_bfs_on_random_graphs():
    for seed in range(30):
        g = gen_random_graph(60, 80, seed=seed)
        assert compare_labelings(uf_components(g), bfs_components(g)).match


def union_find_labeling(graph):
    """Min-id representatives through the sequential ``UnionFind``, which
    hooks the larger root under the smaller."""
    uf = UnionFind(graph.n)
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        uf.union(u, v)
    return [uf.find(v) for v in range(graph.n)]


def descending_path(n):
    # One pass hooks each vertex under the one below it, which leaves a
    # single chain of n vertices for the shortcuts to collapse.
    return Graph(n, [(v, v - 1) for v in range(n - 1, 0, -1)])


def permuted_path(n, seed):
    order = np.random.default_rng(seed).permutation(n)
    return Graph.from_arrays(n, order[:-1], order[1:])


@pytest.mark.parametrize(
    "graph",
    [
        *(gen_random_graph(300, m, seed=seed) for seed, m in enumerate((0, 150, 300, 900, 4000))),
        Graph(5, []),
        Graph(1, []),
        Graph(9, [(8, v) for v in range(8)]),
        descending_path(500),
        permuted_path(3 * (1 << 16) + 5, seed=4),
        gen_random_graph(5000, 60, seed=8),
        gen_random_graph(20000, (1 << 16) + 123, seed=9),
        gen_random_forest(3000, 7, seed=10),
    ],
    ids=[
        "random-m0", "random-m150", "random-m300", "random-m900", "random-m4000",
        "m0", "n1", "star-top-centre", "descending-path", "permuted-path-3-slices",
        "mostly-isolated", "m-off-slice", "forest",
    ],
)
def test_uf_components_two_routes(graph):
    got = uf_components(graph)
    assert got.label.tolist() == union_find_labeling(graph)
    assert compare_labelings(got, bfs_components(graph)).match


def walk_ranks(successor, head):
    """The list walk, one element at a time."""
    ranks = [-1] * len(successor)
    node, r = head, 0
    while node >= 0:
        if ranks[node] >= 0:
            raise ValueError("revisit")
        ranks[node] = r
        node, r = int(successor[node]), r + 1
    return ranks


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 4097])
def test_seq_list_rank_full_lists_match_walk(n):
    order = np.random.default_rng(n).permutation(n)
    succ = np.full(n, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    got = seq_list_rank(succ, int(order[0]))
    assert got.dtype == np.int64
    assert got.tolist() == walk_ranks(succ, int(order[0])) == np.argsort(order).tolist()


def test_seq_list_rank_partial_reach_matches_walk():
    # 1 merges into 0's walk at 2; 4 merges at 3; 5 and 6 form a cycle.
    succ = np.array([2, 2, 3, -1, 3, 6, 5])
    assert seq_list_rank(succ, 0).tolist() == [0, -1, 1, 2, -1, -1, -1]
    assert seq_list_rank(succ, 4).tolist() == [-1, -1, -1, 1, 0, -1, -1]
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        # Pointers only to higher ids (or the tail): merging chains, no cycles.
        succ = rng.integers(-1, n, size=n)
        succ = np.where(succ > np.arange(n), succ, -1)
        head = int(rng.integers(0, n))
        assert seq_list_rank(succ, head).tolist() == walk_ranks(succ, head)


def test_seq_list_rank_rho_raises():
    with pytest.raises(ValueError):
        seq_list_rank(np.array([1, 2, 3, 1]), 0)
    with pytest.raises(ValueError):
        seq_list_rank(np.array([0]), 0)
    with pytest.raises(ValueError, match="out of range"):
        seq_list_rank(np.array([1, 2]), 0)
    # A cycle off the head's walk is not an error.
    assert seq_list_rank(np.array([1, -1, 3, 2]), 0).tolist() == [0, 1, -1, -1]


def test_compare_labelings_divergence_message():
    report = compare_labelings(ComponentLabeling([5, 5, 9, 9, 4]), ComponentLabeling([0, 0, 2, 3, 3]))
    assert not report.match
    assert report.first_divergence == "vertex 3: canonical label 1 != 2"
    report = compare_labelings(ComponentLabeling([1, 2]), ComponentLabeling([1]))
    assert report.first_divergence == "length 2 != 1"


def test_canonical_numbers_by_first_occurrence():
    rng = random.Random(12)
    for _ in range(100):
        label = [rng.randrange(-5, 8) for _ in range(rng.randrange(0, 30))]
        remap = {}
        want = [remap.setdefault(rep, len(remap)) for rep in label]
        assert ComponentLabeling(label).canonical() == want


def test_compare_labelings_canonicalizes():
    a = ComponentLabeling([5, 5, 9])
    b = ComponentLabeling([0, 0, 2])
    assert compare_labelings(a, b).match
    c = ComponentLabeling([0, 1, 1])
    report = compare_labelings(a, c)
    assert not report.match and "vertex 1" in report.first_divergence


def test_kruskal_examples():
    tri = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)], weighted=True)
    assert kruskal_msf(tri) == {(0, 1, 1), (1, 2, 2)}
    tree = Graph(4, [(0, 1, 5), (1, 2, 1), (1, 3, 9)], weighted=True)
    assert kruskal_msf(tree) == set(tree.edges)
    with pytest.raises(ValueError):
        kruskal_msf(Graph(3, [(0, 1), (1, 2)]))
    # Graph rejects tied weights, so tie two after validation; the oracle
    # must still refuse them, as ties leave the MSF undefined.
    tied = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)], weighted=True)
    tied.weight = np.array([3, 2, 3])
    with pytest.raises(ValueError, match="duplicate edge weights"):
        kruskal_msf(tied)


def test_kruskal_beats_random_spanning_forests():
    rng = random.Random(0)
    g = gen_random_graph(40, 200, seed=1, weighted=True)
    best = sum(w for _, _, w in kruskal_msf(g))
    for _ in range(25):
        # Random spanning forest: random edge order through union-find.
        edges = list(g.edges)
        rng.shuffle(edges)
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        total = 0
        for u, v, w in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                total += w
        assert best <= total


def test_tarjan_examples():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    bridges, aps = tarjan_bridges_aps(path)
    assert bridges == {(0, 1), (1, 2), (2, 3)}
    assert aps == {1, 2}
    cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert tarjan_bridges_aps(cycle) == (set(), set())


def test_tarjan_agrees_with_brute_force_exhaustive_small():
    for n in range(1, 5):
        for g in all_graphs(n):
            assert tarjan_bridges_aps(g) == brute_bridges_aps(g)


def test_tarjan_agrees_with_brute_force_sampled():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(5, 7)
        m = rng.randint(0, n * (n - 1) // 2)
        g = gen_random_graph(n, m, seed=rng.randrange(1 << 30))
        assert tarjan_bridges_aps(g) == brute_bridges_aps(g)


def test_two_edge_component_oracle():
    # Two triangles joined by a bridge.
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    labels = two_edge_component_oracle(g, tarjan_bridges_aps(g)[0])
    assert labels.same_component(0, 2)
    assert labels.same_component(3, 5)
    assert not labels.same_component(2, 3)


def test_seq_list_rank():
    assert seq_list_rank(np.array([-1]), head=0).tolist() == [0]
    succ = np.array([1, 2, 3, -1])
    assert seq_list_rank(succ, 0).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        seq_list_rank(np.array([1, 0]), 0)


def test_seq_dfs_tree_path():
    g = Graph(3, [(0, 1), (1, 2)])
    parent, preorder, sizes = seq_dfs_tree(g, 0)
    assert parent == {0: 0, 1: 0, 2: 1}
    assert preorder == {0: 0, 1: 1, 2: 2}
    assert sizes == {0: 3, 1: 2, 2: 1}


def test_seq_dfs_tree_single():
    parent, preorder, sizes = seq_dfs_tree(Graph(1, []), 0)
    assert parent == {0: 0} and preorder == {0: 0} and sizes == {0: 1}


def test_seq_dfs_sizes_consistent_on_random_forest():
    g = gen_random_forest(200, 1, seed=3)
    parent, preorder, sizes = seq_dfs_tree(g, 0)
    assert sorted(preorder.values()) == list(range(200))
    assert sizes[0] == 200
    for v in range(1, 200):
        kids = [w for w in range(200) if parent[w] == v]
        assert sizes[v] == 1 + sum(sizes[w] for w in kids)


def test_oracles_import_no_algorithm_modules():
    # Dual-route checks require the reference side to stay independent.
    import ast
    import inspect

    import ampcsim.oracles as oracles

    tree = ast.parse(inspect.getsource(oracles))
    banned = {
        "contraction", "mis", "connectivity", "trees", "biconnectivity",
        "harness", "primitives", "runtime",
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            assert not (set(node.module.split(".")) & banned), node.module
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not (set(alias.name.split(".")) & banned), alias.name
