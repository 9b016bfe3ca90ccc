import itertools
import random

import pytest

from ampcsim.graphs import ComponentLabeling, Graph, gen_random_forest, gen_random_graph
from ampcsim.oracles import (
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
    assert seq_list_rank({}, head=9) == {9: 0}
    succ = {"a": "b", "b": "c", "c": "d", "d": None}
    assert seq_list_rank(succ, "a") == {"a": 0, "b": 1, "c": 2, "d": 3}
    with pytest.raises(ValueError):
        seq_list_rank({1: 2, 2: 1}, 1)


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
