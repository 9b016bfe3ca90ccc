import itertools
import random

import numpy as np

from ampcsim.biconnectivity import (
    articulation_points,
    bc_labeling,
    bc_pipeline,
    bridges,
    critical_set,
    two_edge_components,
)
from ampcsim.connectivity import spanning_forest
from ampcsim.graphs import Graph, gen_random_graph
from ampcsim.harness import _edge_tuples
from ampcsim.oracles import (
    compare_labelings,
    tarjan_bridges_aps,
    two_edge_component_oracle,
    uf_components,
)
from ampcsim.runtime import ModelConfig
from ampcsim.trees import SubtreeMinMax, root_forest


def cfg_for(g, seed=0):
    return ModelConfig(n=g.n, m=max(1, g.m), epsilon=0.5, seed=seed)


def assert_edge_set(edges, m):
    """Sorted, duplicate-free int64 indices into an m-edge graph."""
    assert edges.dtype == np.int64
    assert (np.diff(edges) > 0).all()
    assert ((edges >= 0) & (edges < m)).all()


def connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        if uf_components(g).component_count() == 1:
            yield g


def test_cycle_has_no_bridges():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    bc = bc_labeling(g, cfg_for(g))
    assert bridges(bc).tolist() == []
    assert bc.critical.tolist() == []


def test_path_all_edges_bridge():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    bc = bc_labeling(g, cfg_for(g))
    assert _edge_tuples(g, bridges(bc)) == {(0, 1), (1, 2), (2, 3)}
    assert articulation_points(bc).tolist() == [1, 2]


def test_triangle_plus_pendant():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    bc = bc_labeling(g, cfg_for(g))
    assert _edge_tuples(g, bridges(bc)) == {(2, 3)}
    assert articulation_points(bc).tolist() == [2]


def test_two_triangles_sharing_a_vertex():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bc = bc_labeling(g, cfg_for(g))
    assert bridges(bc).tolist() == []
    assert articulation_points(bc).tolist() == [2]


def test_tree_every_edge_bridge_every_vertex_singleton():
    g = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    bc = bc_labeling(g, cfg_for(g))
    assert _edge_tuples(g, bridges(bc)) == {(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)}
    labels = two_edge_components(g, cfg_for(g))
    assert labels.component_count() == 6


def test_bridgeless_graph_single_2ecc():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    labels = two_edge_components(g, cfg_for(g))
    assert labels.component_count() == 1


def test_bridges_equal_critical_set():
    # The labeling of the graph minus the critical set separates the
    # endpoints of exactly the critical tree edges, so it agrees with the
    # critical set that ``bridges`` returns.
    for seed in range(10):
        g = gen_random_graph(60, 90, seed=seed)
        bc = bc_labeling(g, cfg_for(g, seed=seed))
        label = bc.labels.label
        child = np.flatnonzero(bc.rooted.enter >= 0)
        cut = label[child] != label[bc.rooted.parent[child]]
        assert np.array_equal(np.sort(bc.tree[bc.rooted.enter[child[cut]] >> 1]), bc.critical)


def test_critical_interval_matches_subtree_scan_oracle():
    # Direct semantics: critical iff every non-tree edge incident to v's
    # subtree stays inside v's preorder interval.
    for seed in range(8):
        g = gen_random_graph(40, 60, seed=seed + 3)
        bc = bc_labeling(g, cfg_for(g, seed=seed))
        pn, sizes = bc.rooted.preorder, bc.rooted.sizes
        parent = bc.rooted.parent
        tree_of = bc.rooted.tree_of
        critical = _edge_tuples(g, bc.critical)
        non_tree = list(zip(np.delete(g.src, bc.tree).tolist(), np.delete(g.dst, bc.tree).tolist()))
        for v in range(g.n):
            p = parent[v]
            if p == v:
                continue

            def in_subtree(x):
                return (
                    tree_of[x] == tree_of[v]
                    and pn[v] <= pn[x] <= pn[v] + sizes[v] - 1
                )

            escapes = any(
                in_subtree(a) != in_subtree(b) for a, b in non_tree
            )
            edge = (min(v, p), max(v, p))
            assert (edge in critical) == (not escapes)


def test_calibration_freezes_unique_convention():
    # Of the four interval conventions (base at the vertex or its parent,
    # interval closing at size-1 or size), only the frozen one -- own base,
    # interval exactly the subtree span -- reproduces the bridge oracle on
    # every connected graph with up to 5 vertices plus a seeded sample of
    # 6-8 vertex graphs. Each convention's candidate set comes from the
    # annotations BCLabeling exposes; its bridges are the tree edges whose
    # endpoints the graph minus the candidate set separates.
    survivors = {
        (parent_base, incl): True
        for parent_base in (False, True)
        for incl in (False, True)
    }

    def check(g, seed):
        bc = bc_labeling(g, cfg_for(g, seed=seed))
        want, _ = tarjan_bridges_aps(g)
        pn, sizes, parent = bc.rooted.preorder, bc.rooted.sizes, bc.rooted.parent
        tree_edges = [(v, parent[v]) for v in range(g.n) if parent[v] != v]
        for parent_base, incl in survivors:
            if not survivors[(parent_base, incl)]:
                continue
            candidates = set()
            for v, p in tree_edges:
                base = pn[p] if parent_base else pn[v]
                span = sizes[v] - (1 if incl else 0)
                if base <= bc.low[v] and bc.high[v] <= base + span:
                    candidates.add((min(v, p), max(v, p)))
            labels = uf_components(Graph(g.n, [e for e in g.edges if e not in candidates]))
            got = {(min(v, p), max(v, p)) for v, p in tree_edges if not labels.same_component(v, p)}
            if got != want:
                survivors[(parent_base, incl)] = False

    for n in range(2, 6):
        for g in connected_graphs(n):
            check(g, seed=1)
    rng = random.Random(2)
    for trial in range(600):
        n = rng.randint(6, 8)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
        check(gen_random_graph(n, m, seed=rng.randrange(1 << 30)), seed=trial)

    assert survivors == {
        (False, True): True,
        (False, False): False,
        (True, True): False,
        (True, False): False,
    }


def test_random_graphs_match_tarjan():
    # 30 simple graphs, then 40 multigraphs: the same kind of graph plus
    # parallel copies of random edges (tree edges among them) and self-loops.
    rng = random.Random(0)
    for trial in range(70):
        n = rng.randint(2, 60)
        m_max = n * (n - 1) // 2
        m = rng.randint(0, min(m_max, 3 * n))
        g = gen_random_graph(n, m, seed=rng.randrange(1 << 30))
        if trial >= 30:
            copies = rng.choices(range(g.m), k=rng.randint(0, g.m // 2)) if g.m else []
            loops = np.array(rng.choices(range(n), k=rng.randint(0, 3)), dtype=np.int64)
            g = Graph.from_arrays(
                n,
                np.concatenate((g.src, g.src[copies], loops)),
                np.concatenate((g.dst, g.dst[copies], loops)),
                multigraph=True,
            )
        cfg = cfg_for(g, seed=trial)
        bc, got_bridges, got_aps, got_2ecc = bc_pipeline(g, cfg)
        want_bridges, want_aps = tarjan_bridges_aps(g)
        assert _edge_tuples(g, got_bridges) == want_bridges
        assert set(got_aps.tolist()) == want_aps
        assert compare_labelings(got_2ecc, two_edge_component_oracle(g, want_bridges)).match


def test_bc_rooting_matches_root_forest_without_roots():
    # Roots read off the spanning-forest labels give the same rooting and
    # annotations as roots picked by forest connectivity.
    for seed in range(6):
        g = gen_random_graph(90, 60 + 10 * seed, seed=seed + 11)
        cfg = cfg_for(g, seed=seed)
        assert uf_components(g).component_count() > 1
        assert 0 in g.degrees()
        bc = bc_labeling(g, cfg)
        forest_edges, _, _ = spanning_forest(g, cfg)
        rooted = root_forest(Graph(g.n, sorted(_edge_tuples(g, forest_edges))), config=cfg)
        pn, sizes = rooted.preorder, rooted.sizes
        bas_min, bas_max = pn.copy(), pn.copy()
        for u, v in zip(np.delete(g.src, forest_edges).tolist(), np.delete(g.dst, forest_edges).tolist()):
            bas_min[u], bas_max[u] = min(bas_min[u], pn[v]), max(bas_max[u], pn[v])
            bas_min[v], bas_max[v] = min(bas_min[v], pn[u]), max(bas_max[v], pn[u])
        low, high = SubtreeMinMax(rooted, bas_min, bas_max).query(range(g.n))
        assert bc.rooted.parent.tolist() == rooted.parent.tolist()
        assert bc.rooted.roots.tolist() == rooted.roots.tolist()
        for got, want in ((bc.rooted.preorder, pn), (bc.rooted.sizes, sizes), (bc.low, low), (bc.high, high)):
            assert got.tolist() == want.tolist()


def test_bc_labeling_runs_no_forest_connectivity():
    # Spanning forest, list ranking and the final connectivity; rooting
    # reads the component minima off the spanning forest's labels.
    g = gen_random_graph(400, 1200, seed=5)
    bc = bc_labeling(g, cfg_for(g, seed=5))
    assert len(bc.simulators) == 3
    # One charged round (one metrics entry) on the spanning-forest simulator.
    component_min = [
        (i, m.total_communication)
        for i, sim in enumerate(bc.simulators)
        for m in sim.metrics
        if m.charged and m.label == "component-min"
    ]
    assert component_min == [(0, g.n)]
    bc, *_ = bc_pipeline(g, cfg_for(g, seed=5))
    assert len(bc.simulators) == 4


def test_articulation_points_counts_its_rounds_once():
    g = gen_random_graph(200, 400, seed=1)
    bc = bc_labeling(g, cfg_for(g, seed=1))
    first = articulation_points(bc)
    rounds = sum(sim.total_rounds() for sim in bc.simulators)
    assert len(bc.simulators) == 4
    assert articulation_points(bc) is first
    assert len(bc.simulators) == 4 and sum(sim.total_rounds() for sim in bc.simulators) == rounds


def test_bc_pipeline_never_builds_edge_tuples(monkeypatch):
    g = gen_random_graph(300, 900, seed=3)

    def forbidden(self):
        raise AssertionError("the bc pipeline built Graph.edges")

    monkeypatch.setattr(Graph, "edges", property(forbidden))
    bc, got_bridges, got_aps, _ = bc_pipeline(g, cfg_for(g, seed=3))
    monkeypatch.undo()
    # Edge sets come out as input edge indices, vertex sets as vertices.
    for edges in (bc.critical, got_bridges):
        assert_edge_set(edges, g.m)
    assert_edge_set(got_aps, g.n)
    assert len(got_bridges) and len(got_aps)
    assert (_edge_tuples(g, got_bridges), set(got_aps.tolist())) == tarjan_bridges_aps(g)
