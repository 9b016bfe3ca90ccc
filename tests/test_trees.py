import math
import random

import pytest

from ampcsim.biconnectivity import bc_labeling
from ampcsim.errors import StructureError
from ampcsim.graphs import Graph, gen_random_forest, gen_random_graph
from ampcsim.harness import with_leader_retries
from ampcsim.oracles import compare_labelings, seq_dfs_tree, uf_components
from ampcsim.runtime import ModelConfig
from ampcsim.trees import (
    SubtreeMinMax,
    euler_tour,
    forest_connectivity,
    root_forest,
)


def cfg_for(g, seed=0, epsilon=0.5):
    return ModelConfig(n=g.n, m=max(1, g.m), epsilon=epsilon, seed=seed)


def test_euler_tour_rejects_cycles():
    with pytest.raises(StructureError):
        euler_tour(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def is_forest(n, edges):
    """Plain union-find: no edge joins two vertices already connected."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_euler_tour_forest_check_matches_union_find():
    rng = random.Random(21)
    kinds = {True: 0, False: 0}
    for trial in range(600):
        n = rng.randint(1, 12)
        # A random forest on a random subset of the vertices, the rest isolated.
        order = rng.sample(range(n), n)
        edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n) if rng.random() < 0.7]
        extra = trial % 5
        if extra == 1 and n > 1:  # one more edge, usually closing a cycle
            edges.append(tuple(rng.sample(range(n), 2)))
        elif extra == 2:  # a self-loop
            v = rng.randrange(n)
            edges.append((v, v))
        elif extra == 3 and edges:  # a parallel edge
            edges.append(rng.choice(edges))
        elif extra == 4 and n > 1:  # a few random edges
            edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))]
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        graph = Graph(n, edges, multigraph=True)
        forest = is_forest(n, edges)
        kinds[forest] += 1
        if forest:
            assert euler_tour(graph).size == 2 * len(edges)
        else:
            with pytest.raises(StructureError):
                euler_tour(graph)
    assert min(kinds.values()) > 100


def test_euler_tour_single_edge():
    tour = euler_tour(Graph(2, [(0, 1)]))
    assert tour.size == 2
    assert tour.succ.tolist() == [1, 0]  # a->b then b->a, closing


def test_euler_tour_path_visits_each_edge_twice():
    tour = euler_tour(Graph(3, [(0, 1), (1, 2)]))
    assert tour.size == 4
    # Follow successors from any edge: back to start in exactly size steps.
    e = 0
    for _ in range(tour.size):
        e = tour.succ[e]
    assert e == 0


def test_euler_tour_closed_per_tree_random():
    g = gen_random_forest(300, 3, seed=2)
    tour = euler_tour(g)
    assert tour.size == 2 * g.m
    seen = set()
    for start in range(tour.size):
        if start in seen:
            continue
        e = start
        steps = 0
        while True:
            seen.add(e)
            e = tour.succ[e]
            steps += 1
            if e == start:
                break
        # One closed tour of length 2(tree size - 1) per tree.
        assert steps % 2 == 0
    assert seen == set(range(tour.size))


def test_root_forest_single_edge():
    g = Graph(2, [(0, 1)])
    rooted = root_forest(g, roots=[0], config=cfg_for(g))
    assert rooted.parent.tolist() == [0, 0]
    assert rooted.roots.tolist() == [0]


def test_root_forest_star():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    rooted = root_forest(g, roots=[0], config=cfg_for(g))
    assert rooted.parent.tolist() == [0, 0, 0, 0, 0]


def test_root_forest_forward_before_reverse():
    g = gen_random_forest(120, 2, seed=5)
    rooted = root_forest(g, config=cfg_for(g, seed=5))
    for e in range(0, rooted.tour.size, 2):
        fwd = e if rooted.forward[e] else e + 1
        rev = fwd ^ 1
        assert rooted.rank[fwd] < rooted.rank[rev]


def test_root_forest_errors():
    g = Graph(4, [(0, 1), (2, 3)])
    cfg = cfg_for(g)
    with pytest.raises(ValueError, match="roots must include one vertex of every tree"):
        root_forest(g, roots=[0], config=cfg)  # second tree uncovered
    with pytest.raises(ValueError, match="two roots were given inside one tree"):
        root_forest(g, roots=[0, 1, 2], config=cfg)  # two roots in one tree
    with pytest.raises(ValueError, match="two roots were given inside one tree"):
        root_forest(g, roots=[2, 2, 0], config=cfg)  # one root given twice
    with pytest.raises(ValueError, match="root 9 not in the forest"):
        root_forest(g, roots=[0, 9], config=cfg)  # out of range
    # Both faults at once: the uncovered tree is reported first.
    with pytest.raises(ValueError, match="roots must include one vertex of every tree"):
        root_forest(g, roots=[0, 1], config=cfg)
    # Roots are a 1-d batch of integer ids; an empty batch passes that check.
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for bad in ([1.7], [True], [[0]]):
        with pytest.raises(TypeError, match="root ids must be a 1-d integer array"):
            root_forest(path, roots=bad, config=cfg_for(path))
    with pytest.raises(ValueError, match="roots must include one vertex of every tree"):
        root_forest(path, roots=[], config=cfg_for(path))
    empty = Graph(0, [])
    assert root_forest(empty, roots=[], config=cfg_for(empty)).roots.tolist() == []


def test_root_forest_matches_dfs_oracle():
    for seed in range(8):
        g = gen_random_forest(150, 1 + seed % 3, seed=seed)
        cfg = cfg_for(g, seed=seed)
        rooted = root_forest(g, config=cfg)
        for root in rooted.roots:
            members = [v for v in range(g.n) if rooted.tree_of[v] == root]
            parent, _, _ = seq_dfs_tree(g, root)
            got = {(v, rooted.parent[v]) for v in members}
            want = {(v, parent[v]) for v in members}
            assert got == want


def test_subtree_sizes_path_and_star():
    path = Graph(3, [(0, 1), (1, 2)])
    rooted = root_forest(path, roots=[0], config=cfg_for(path))
    assert rooted.sizes.tolist() == [3, 2, 1]
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    rooted = root_forest(star, roots=[0], config=cfg_for(star))
    assert rooted.sizes.tolist() == [4, 1, 1, 1]


def test_preorder_path_and_singleton():
    single = Graph(1, [])
    rooted = root_forest(single, roots=[0], config=cfg_for(single))
    assert rooted.preorder.tolist() == [0]
    path = Graph(3, [(0, 1), (1, 2)])
    rooted = root_forest(path, roots=[0], config=cfg_for(path))
    assert rooted.preorder.tolist() == [0, 1, 2]


def test_annotations_match_dfs_oracle_random():
    for seed in range(8):
        g = gen_random_forest(200, 1 + seed % 2, seed=seed + 50)
        cfg = cfg_for(g, seed=seed)
        rooted = root_forest(g, config=cfg)
        pn, sizes = rooted.preorder, rooted.sizes
        for root in rooted.roots:
            parent, want_pn, want_sizes = seq_dfs_tree(g, root)
            members = [v for v in range(g.n) if rooted.tree_of[v] == root]
            assert sorted(pn[v] for v in members) == list(range(len(members)))
            for v in members:
                assert pn[v] == want_pn[v]
                assert sizes[v] == want_sizes[v]


def test_preorder_interval_identity():
    # Subtree preorder values fill [PN(v), PN(v) + size(v) - 1] exactly.
    g = gen_random_forest(150, 1, seed=9)
    cfg = cfg_for(g, seed=9)
    rooted = root_forest(g, config=cfg)
    pn, sizes = rooted.preorder, rooted.sizes
    children: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for v in range(g.n):
        p = rooted.parent[v]
        if p != v:
            children[p].append(v)

    def subtree(v):
        out = [v]
        stack = [v]
        while stack:
            x = stack.pop()
            for c in children[x]:
                out.append(c)
                stack.append(c)
        return out

    for v in range(g.n):
        values = sorted(pn[u] for u in subtree(v))
        assert values == list(range(pn[v], pn[v] + sizes[v]))


def _highest_vertex_roots(g):
    labeling, _ = forest_connectivity(g, cfg_for(g))
    best = {}
    for v, label in enumerate(labeling.label.tolist()):
        best[label] = max(best.get(label, v), v)
    return sorted(best.values())


def test_subtree_min_max_queries():
    g = gen_random_forest(120, 2, seed=3)
    _check_subtree_min_max(g, root_forest(g, config=cfg_for(g, seed=3)))
    # The layout offsets skip edgeless trees, and roots other than each
    # tree's lowest vertex start its preorder elsewhere.
    g = gen_random_forest(150, 12, seed=17)
    assert sum(1 for v in g.adjacency() if not v) >= 2
    _check_subtree_min_max(g, root_forest(g, roots=_highest_vertex_roots(g), config=cfg_for(g, seed=3)))


def _check_subtree_min_max(g, rooted):
    rng = random.Random(0)
    values = [rng.randint(-1000, 1000) for _ in range(g.n)]
    smm = SubtreeMinMax(rooted, values, values)
    children: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for v in range(g.n):
        p = rooted.parent[v]
        if p != v:
            children[p].append(v)
    for root in rooted.roots.tolist():
        _, want_pn, want_sizes = seq_dfs_tree(g, root)
        for v in want_pn:
            assert (rooted.preorder[v], rooted.sizes[v]) == (want_pn[v], want_sizes[v])

    def subtree_values(v):
        out = [values[v]]
        stack = [v]
        while stack:
            x = stack.pop()
            for c in children[x]:
                out.append(values[c])
                stack.append(c)
        return out

    for v, got in zip(range(g.n), zip(*smm.query(range(g.n)))):
        vals = subtree_values(v)
        assert got == (min(vals), max(vals))
    # Singleton and root specials.
    leaves = [v for v in range(g.n) if not children[v]]
    lo, hi = smm.query([leaves[0]])
    assert (lo.tolist(), hi.tolist()) == ([values[leaves[0]]], [values[leaves[0]]])


def test_subtree_query_rejects_non_vertices_uncharged():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rooted = root_forest(g, roots=[0], config=cfg_for(g))
    smm = SubtreeMinMax(rooted, [5, 6, 7, 8], [5, 6, 7, 8])
    for bad in ([-1], [4]):
        with pytest.raises(ValueError, match="vertex"):
            smm.query(bad)
    for bad in ([1.5], [True], [[0]]):
        with pytest.raises(TypeError, match="vertex ids must be a 1-d integer array"):
            smm.query(bad)
    assert _charged(rooted.simulators, "rmq-query") == (0, 0)
    assert [a.tolist() for a in smm.query([])] == [[], []]
    assert _charged(rooted.simulators, "rmq-query") == (1, 0)


def test_subtree_min_max_needs_one_value_per_vertex():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rooted = root_forest(g, roots=[0], config=cfg_for(g))
    for min_values, max_values in (([1] * 5, [1] * 4), ([1] * 3, [1] * 4), ([1] * 4, [1] * 3)):
        with pytest.raises(ValueError, match="max values for 4 vertices"):
            SubtreeMinMax(rooted, min_values, max_values)


def test_forest_connectivity_matches_oracle():
    for seed in range(10):
        g = gen_random_forest(180, 1 + seed % 4, seed=seed)
        labeling, res = forest_connectivity(g, cfg_for(g, seed=seed))
        assert compare_labelings(labeling, uf_components(g)).match
        # Labels are the component minima.
        for v in range(g.n):
            assert labeling.label[v] <= v
    # Edgeless forest labels itself.
    g = Graph(5, [])
    labeling, _ = forest_connectivity(g, cfg_for(g))
    assert labeling.label.tolist() == list(range(5))


def _charged(simulators, label):
    metrics = [m for s in simulators for m in s.metrics if m.charged and m.label == label]
    return len(metrics), sum(m.total_communication for m in metrics)


def test_tour_prefix_charged_once_per_forest():
    # 24 trees, several of them isolated vertices.
    g = gen_random_forest(60, 24, seed=4)
    assert sum(1 for v in g.adjacency() if not v) >= 2
    cfg = cfg_for(g, seed=4, epsilon=0.4)
    rooted = root_forest(g, config=cfg)
    assert len(rooted.roots) == 24
    assert _charged(rooted.simulators, "tour-prefix") == (math.ceil(1 / 0.4), 2 * rooted.tour.size)


def test_subtree_batch_query_is_one_round():
    g = gen_random_forest(200, 5, seed=8)
    rooted = root_forest(g, config=cfg_for(g, seed=8))
    values = list(range(g.n))
    smm = SubtreeMinMax(rooted, values, values)
    before = _charged(rooted.simulators, "rmq-query")
    smm.query(range(37))
    after = _charged(rooted.simulators, "rmq-query")
    assert (after[0] - before[0], after[1] - before[1]) == (1, 2 * 37)


def test_bc_annotation_rounds_do_not_grow_with_n():
    counts = []
    for n in (500, 4000):
        g = gen_random_graph(n, 3 * n, seed=n)
        bc = with_leader_retries(
            lambda s: bc_labeling(g, ModelConfig(n=n, m=3 * n, epsilon=0.5, seed=s)), n
        )
        labels = ("rmq-query", "rmq-build", "tour-prefix")
        counts.append([_charged(bc.simulators, label)[0] for label in labels])
    assert counts[0] == counts[1] == [1, 2, 2]


def test_root_forest_rejects_uncovered_isolated_vertex():
    # Vertex 2 has no edges and is not a root; this used to loop forever.
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="one vertex of every tree"):
        root_forest(g, roots=[0], config=cfg_for(g))
