import math

import numpy as np
import pytest

from ampcsim.contraction import (
    CycleConnResult,
    cycle_conn,
    cycles_of,
    list_ranking,
    orient_cycles,
    orientation_graph,
    rank_lists,
    shrink,
    shrink_iteration_budget,
    two_cycle,
)
from ampcsim.errors import StructureError
from ampcsim.graphs import Graph, gen_cycles, gen_random_forest
from ampcsim.oracles import compare_labelings, seq_list_rank, uf_components
from ampcsim.runtime import MachineContext, ModelConfig
from ampcsim.trees import root_forest


def cycle_config(n, seed=0, epsilon=0.5, **kw):
    return ModelConfig.for_graph(n=n, m=n, epsilon=epsilon, seed=seed, **kw)


def path_successors(n):
    return {i: (i + 1 if i + 1 < n else None) for i in range(n)}


def test_orient_cycles_rejects_non_cycles():
    with pytest.raises(StructureError):
        orient_cycles(Graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(StructureError):
        orient_cycles(Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))


def test_orient_cycles_handles_multigraph_forms():
    succ, pred = orient_cycles(Graph(2, [(0, 1), (0, 1)], multigraph=True))
    assert succ == {0: 1, 1: 0}
    succ, _ = orient_cycles(Graph(1, [(0, 0)], multigraph=True))
    assert succ == {0: 0}
    assert cycles_of(succ) == [[0]]


def test_shrink_forced_hand_trace():
    # Six-cycle with samples forced to {0, 3}: both traversals reconnect the
    # two survivors, leaving a 2-cycle of parallel edges.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    res = shrink(g, delta=0.5, t=1, config=cycle_config(6), sample_sets=[{0, 3}])
    assert res.iteration_sizes == [6, 2]
    assert sorted(res.graph.edges) == [(0, 3), (0, 3)]
    assert res.sample_map[0] == (3, 3)
    assert res.sample_map[3] == (0, 0)


def test_shrink_all_sampled_is_identity():
    g = gen_cycles(12, 1, seed=1)
    res = shrink(g, delta=0.5, t=1, config=cycle_config(12), sample_sets=[set(range(12))])
    assert res.iteration_sizes == [12, 12]
    got = uf_components(res.graph)
    assert compare_labelings(got, uf_components(g)).match


def test_shrink_preserves_components_and_cycle_structure():
    for seed in range(8):
        g = gen_cycles(256, 2 if seed % 2 else 1, seed=seed)
        cfg = cycle_config(256, seed=seed)
        res = shrink(g, delta=cfg.epsilon, t=3, config=cfg)
        before = uf_components(g).component_count()
        # Every level is a union of cycles covering the same components.
        for level in res.levels:
            graph = orientation_graph(level, g.n)
            degrees = {}
            for u, v in graph.edges:
                degrees[u] = degrees.get(u, 0) + 1
                degrees[v] = degrees.get(v, 0) + 1
            assert all(d == 2 for d in degrees.values())
            assert len(cycles_of(level)) == before


def test_shrink_size_bound_desk_scale():
    # After t = ceil(2(1-eps)/eps) iterations the residual should be small.
    n, eps = 2**12, 0.5
    hits = 0
    for seed in range(40):
        g = gen_cycles(n, 1, seed=seed)
        cfg = cycle_config(n, seed=seed, epsilon=eps)
        res = shrink(g, delta=eps, t=shrink_iteration_budget(eps), config=cfg)
        if res.iteration_sizes[-1] <= 8 * n**eps:
            hits += 1
    assert hits >= 36  # >= 90% at this reduced desk scale


def test_two_cycle_trivial_instances():
    cfg = cycle_config(16)
    assert two_cycle(gen_cycles(16, 1, seed=0), cfg).cycles == 1
    assert two_cycle(gen_cycles(16, 2, seed=0), cfg).cycles == 2


def test_two_cycle_seeded_batch():
    n = 2**10
    for seed in range(20):
        pieces = 1 + seed % 2
        cfg = cycle_config(n, seed=seed)
        res = two_cycle(gen_cycles(n, pieces, seed=seed), cfg)
        assert res.cycles == pieces
        assert res.iterations <= shrink_iteration_budget(cfg.epsilon) + 1
        assert res.simulator.violation_count() == 0


def test_cycle_conn_single_cycle_label_is_priority_minimum():
    g = gen_cycles(32, 1, seed=3)
    cfg = cycle_config(32, seed=3)
    res = cycle_conn(g, cfg)
    assert res.labeling.component_count() == 1
    assert compare_labelings(res.labeling, uf_components(g)).match


def test_cycle_conn_disjoint_triangles():
    edges = []
    for k in range(5):
        a = 3 * k
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    g = Graph(15, edges)
    cfg = cycle_config(15, seed=1)
    res = cycle_conn(g, cfg)
    assert res.labeling.component_count() == 5
    assert compare_labelings(res.labeling, uf_components(g)).match


def test_cycle_conn_search_lengths_mean():
    # Direct search phase on an unshrunk cycle: mean length approaches H_k - 1.
    k = 2**10
    harmonic = sum(1.0 / i for i in range(1, k + 1))
    total = 0.0
    seeds = 12
    for seed in range(seeds):
        g = gen_cycles(k, 1, seed=seed)
        res = cycle_conn(g, cycle_config(k, seed=seed), shrink_iterations=0)
        total += sum(res.search_lengths.values()) / k
    assert total / seeds <= 2 * harmonic


def test_list_ranking_trivial():
    cfg = ModelConfig.for_graph(n=1, m=1, epsilon=0.5, seed=0)
    res = list_ranking(np.array([-1]), head=0, config=cfg)
    assert res.ranks.tolist() == [0]


def test_list_ranking_small_matches_scan():
    succ = np.array([1, 2, 3, -1])
    cfg = ModelConfig.for_graph(n=4, m=4, epsilon=0.5, seed=0)
    res = list_ranking(succ, head=0, config=cfg)
    assert np.array_equal(res.ranks, seq_list_rank(succ, 0))
    assert res.ranks.tolist() == [0, 1, 2, 3]


def test_list_ranking_seeded_random_lists():
    import random

    n = 2**12
    for seed in range(6):
        rng = random.Random(seed)
        perm = list(range(n))
        rng.shuffle(perm)
        succ = np.full(n, -1)
        succ[perm[:-1]] = perm[1:]
        cfg = ModelConfig.for_graph(n=n, m=n, epsilon=0.5, seed=seed)
        res = list_ranking(succ, head=perm[0], config=cfg)
        assert np.array_equal(res.ranks, seq_list_rank(succ, perm[0]))
        assert res.iterations <= shrink_iteration_budget(cfg.epsilon) + 1
        # Weight conservation at every level.
        for level_weights in res.weights_per_level:
            assert level_weights.sum() == n
        assert res.simulator.violation_count() == 0


def test_list_ranking_structure_errors():
    cfg = ModelConfig.for_graph(n=4, m=4, epsilon=0.5, seed=0)
    with pytest.raises(StructureError):
        list_ranking(np.array([1, 0]), head=0, config=cfg)
    with pytest.raises(StructureError):
        list_ranking(np.array([1]), head=0, config=cfg)
    with pytest.raises(StructureError):
        list_ranking(np.array([-1, -1]), head=0, config=cfg)
    # A cycle no head enters, and a head outside the elements.
    with pytest.raises(StructureError):
        list_ranking(np.array([-1, 2, 1]), head=0, config=cfg)
    with pytest.raises(StructureError):
        list_ranking(np.array([-1]), head=3, config=cfg)
    with pytest.raises(TypeError):
        list_ranking({0: None}, head=0, config=cfg)


def test_rank_lists_multiple_chains():
    succ = np.array([1, -1, 3, 4, -1, -1])
    cfg = ModelConfig.for_graph(n=6, m=6, epsilon=0.5, seed=2)
    res = rank_lists(succ, heads=[0, 2, 5], config=cfg)
    assert res.ranks.tolist() == [0, 1, 0, 1, 2, 0]


def test_two_cycle_capacity_error_on_many_cycles():
    # Ten disjoint triangles: the per-cycle sampling floor keeps at least
    # one vertex per cycle alive, so a tiny machine budget cannot hold the
    # residual and the mis-set iteration count surfaces as an error.
    from ampcsim.errors import CapacityError
    from ampcsim.runtime import ModelConfig

    edges = []
    for k in range(10):
        a = 3 * k
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    g = Graph(30, edges)
    cfg = ModelConfig.for_graph(n=30, m=30, epsilon=0.3, seed=0, budget_slack=1.0)
    assert cfg.budget_limit < 10
    with pytest.raises(CapacityError):
        two_cycle(g, cfg)


def test_chain_engine_runs_no_machine_programs(monkeypatch):
    # Every level, residual read, search and unwind is a batch round.
    def refuse(*args, **kwargs):
        raise AssertionError("a per-machine program ran")

    monkeypatch.setattr(MachineContext, "__init__", refuse)
    assert two_cycle(gen_cycles(64, 2, seed=0), cycle_config(64)).cycles == 2
    assert cycle_conn(gen_cycles(64, 1, seed=0), cycle_config(64)).labeling.component_count() == 1
    assert list_ranking(np.array([2, -1, 1]), 0, cycle_config(3)).ranks.tolist() == [0, 2, 1]
    forest = gen_random_forest(60, 3, seed=1)
    rooted = root_forest(forest)  # forest connectivity over the tours, then list ranking
    assert len(rooted.simulators) == 2 and len(rooted.forest.roots) == 3
