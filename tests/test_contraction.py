import math

import numpy as np
import pytest

from ampcsim.contraction import (
    CycleConnResult,
    cycle_conn,
    list_ranking,
    orient_cycles,
    rank_lists,
    shrink,
    shrink_iteration_budget,
    two_cycle,
)
from ampcsim.errors import StructureError
from ampcsim.graphs import Graph, gen_cycles, gen_random_forest, gen_random_graph
from ampcsim.mis import maximal_independent_set
from ampcsim.oracles import compare_labelings, seq_list_rank, uf_components
from ampcsim.runtime import BatchRound, MachineContext, ModelConfig
from ampcsim.trees import root_forest


def cycle_config(n, seed=0, epsilon=0.5, **kw):
    return ModelConfig(n=n, m=n, epsilon=epsilon, seed=seed, **kw)


def path_successors(n):
    return {i: (i + 1 if i + 1 < n else None) for i in range(n)}


def dict_orientation(graph):
    """Reference orientation: a per-edge walk over dict incidence lists.
    Each cycle is walked from its first vertex in (src0, dst0, src1, dst1,
    ...) order, leaving it by its lower-indexed edge and every later vertex
    by the incident edge it did not arrive on."""
    incidence = {}
    for idx, (u, v) in enumerate(zip(graph.src.tolist(), graph.dst.tolist())):
        incidence.setdefault(u, []).append((idx, v))
        incidence.setdefault(v, []).append((idx, u))
    for v, inc in incidence.items():
        if len(inc) != 2:
            raise StructureError(f"vertex {v} has degree {len(inc)}, expected 2")
    succ = np.full(graph.n, -1, dtype=np.int64)
    pred = np.full(graph.n, -1, dtype=np.int64)
    for start in incidence:
        if succ[start] >= 0:
            continue
        v, arrived = start, None
        while succ[v] < 0:
            first, second = incidence[v]
            arrived, w = second if first[0] == arrived else first
            succ[v] = w
            pred[w] = v
            v = w
    return succ, pred


def assert_same_orientation(graph):
    try:
        expected = dict_orientation(graph)
    except StructureError as error:
        with pytest.raises(StructureError) as got:
            orient_cycles(graph)
        assert str(got.value) == str(error)
        return
    succ, pred = orient_cycles(graph)
    assert succ.dtype == pred.dtype == np.int64
    assert np.array_equal(succ, expected[0]) and np.array_equal(pred, expected[1])


def test_orient_cycles_rejects_non_cycles():
    for graph in (Graph(3, [(0, 1), (1, 2)]), Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])):
        with pytest.raises(StructureError):
            orient_cycles(graph)
        assert_same_orientation(graph)


def test_orient_cycles_handles_multigraph_forms():
    succ, pred = orient_cycles(Graph(2, [(0, 1), (0, 1)], multigraph=True))
    assert succ.tolist() == [1, 0] and pred.tolist() == [1, 0]
    succ, pred = orient_cycles(Graph(1, [(0, 0)], multigraph=True))
    assert succ.tolist() == [0] and pred.tolist() == [0]
    succ, pred = orient_cycles(Graph(3, [], multigraph=True))
    assert succ.tolist() == pred.tolist() == [-1, -1, -1]


def random_cycle_union(rng, n):
    """Vertices 0..n-1 shuffled and cut into 1-cycles (self-loops),
    2-cycles (parallel edges), longer cycles and isolated vertices; edges
    shuffled, each with a random end first."""
    vertices = rng.permutation(n).tolist()
    edges = []
    while vertices:
        k = min(int(rng.choice([0, 1, 2, 2, 3, 4, 7])), len(vertices))
        if k == 0:
            vertices.pop()
            continue
        cycle, vertices = vertices[:k], vertices[k:]
        edges += [(cycle[j], cycle[(j + 1) % k]) for j in range(k)]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def test_orient_cycles_matches_dict_walk_on_random_cycle_unions():
    rng = np.random.default_rng(12)
    for trial in range(400):
        n = int(rng.integers(1, 25))
        edges = random_cycle_union(rng, n)
        if trial % 4 == 3:
            # Break the degree condition: drop an edge or add one.
            if edges and rng.random() < 0.5:
                edges.pop(int(rng.integers(len(edges))))
            else:
                edges.append((int(rng.integers(n)), int(rng.integers(n))))
        assert_same_orientation(Graph(n, edges, multigraph=True))


def level_graph(level, n):
    """The multigraph of a shrink level: one edge per successor pointer."""
    return Graph.from_arrays(n, level.key_array, level.columns[0], multigraph=True)


def test_shrink_forced_hand_trace():
    # Six-cycle with samples forced to {0, 3}: both traversals reconnect the
    # two survivors, leaving a 2-cycle of parallel edges.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    res = shrink(g, delta=0.5, t=1, config=cycle_config(6), sample_sets=[{0, 3}])
    assert res.iteration_sizes == [6, 2]
    assert sorted(res.graph.edges) == [(0, 3), (0, 3)]
    # Each sample's (successor, weight, predecessor) record at the top level.
    top = res.levels[-1]
    assert top.key_array.tolist() == [0, 3]
    assert list(top.items()) == [(0, (3, 3, 3)), (3, (0, 3, 0))]


def test_shrink_all_sampled_is_identity():
    g = gen_cycles(12, 1, seed=1)
    res = shrink(g, delta=0.5, t=1, config=cycle_config(12), sample_sets=[set(range(12))])
    assert res.iteration_sizes == [12, 12]
    got = uf_components(res.graph)
    assert compare_labelings(got, uf_components(g)).match


def test_shrink_rejects_a_non_integer_sample():
    with pytest.raises(TypeError, match="samples must be a 1-d integer array"):
        shrink(gen_cycles(12, 1, seed=3), delta=0.5, t=1, config=cycle_config(12), sample_sets=[{0, 1.5}])


@pytest.mark.parametrize(
    "sample_sets, named",
    [
        ([{0, 40}], "sample 40 is not alive at level 0"),
        ([{-1, 0}], "sample -1 is not alive at level 0"),
        # 5 is an element, but the first level kept only 0 and 3.
        ([{0, 3}, {0, 5}], "sample 5 is not alive at level 1"),
    ],
)
def test_shrink_names_a_sample_that_is_not_alive(sample_sets, named):
    g = gen_cycles(12, 1, seed=3)
    with pytest.raises(ValueError, match=named):
        shrink(g, delta=0.5, t=len(sample_sets), config=cycle_config(12), sample_sets=sample_sets)


def test_shrink_needs_a_sample_set_per_iteration():
    with pytest.raises(ValueError, match="1 sample sets for 3 iterations"):
        shrink(gen_cycles(12, 1, seed=3), delta=0.5, t=3, config=cycle_config(12), sample_sets=[{0}])


@pytest.mark.parametrize("pieces, samples", [(1, set()), (2, {0})])
def test_shrink_rejects_a_cycle_with_no_sample(pieces, samples):
    # With two cycles, 0 lies on one of them and the other is left bare.
    g = gen_cycles(12, pieces, seed=3)
    with pytest.raises(ValueError, match="a cycle holds no sample"):
        shrink(g, delta=0.5, t=1, config=cycle_config(12), sample_sets=[samples])


def test_shrink_preserves_components_and_cycle_structure():
    for seed in range(8):
        g = gen_cycles(256, 2 if seed % 2 else 1, seed=seed)
        cfg = cycle_config(256, seed=seed)
        res = shrink(g, delta=cfg.epsilon, t=3, config=cfg)
        before = uf_components(g).component_count()
        # Every level is a union of cycles covering the same components.
        for level in res.levels:
            graph = level_graph(level, g.n)
            degrees = {}
            for u, v in graph.edges:
                degrees[u] = degrees.get(u, 0) + 1
                degrees[v] = degrees.get(v, 0) + 1
            assert all(d == 2 for d in degrees.values())
            labels = uf_components(graph).label
            assert len({labels[v] for v in level.key_array.tolist()}) == before
        assert sorted(res.graph.edges) == sorted(level_graph(res.levels[-1], g.n).edges)


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
    cfg = ModelConfig(n=1, m=1, epsilon=0.5, seed=0)
    res = list_ranking(np.array([-1]), head=0, config=cfg)
    assert res.ranks.tolist() == [0]


def test_list_ranking_small_matches_scan():
    succ = np.array([1, 2, 3, -1])
    cfg = ModelConfig(n=4, m=4, epsilon=0.5, seed=0)
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
        cfg = ModelConfig(n=n, m=n, epsilon=0.5, seed=seed)
        res = list_ranking(succ, head=perm[0], config=cfg)
        assert np.array_equal(res.ranks, seq_list_rank(succ, perm[0]))
        assert res.iterations <= shrink_iteration_budget(cfg.epsilon) + 1
        # Weight conservation at every level.
        for level_weights in res.weights_per_level:
            assert level_weights.sum() == n
        assert res.simulator.violation_count() == 0


def test_list_ranking_structure_errors():
    cfg = ModelConfig(n=4, m=4, epsilon=0.5, seed=0)
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


def _random_chains(n, k, seed):
    """A random permutation of 0..n-1 cut into k chains: successor array
    and heads."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    parts = np.split(perm, np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)))
    succ = np.full(n, -1, dtype=np.int64)
    for part in parts:
        succ[part[:-1]] = part[1:]
    return succ, [int(part[0]) for part in parts]


def _headless_cycles():
    rng = np.random.default_rng(5)
    # A head's 1000-element list beside a 5000-element cycle.
    order = rng.permutation(6000)
    long_cycle = np.full(6000, -1, dtype=np.int64)
    long_cycle[order[:999]] = order[1:1000]
    long_cycle[order[1000:]] = np.roll(order[1000:], -1)
    # 500 triangles: 3j -> 3j+1 -> 3j+2 -> 3j.
    x = np.arange(1500)
    return {
        "self-loop": (np.array([0]), []),
        "2-cycle-beside-list": (np.array([1, -1, 3, 2]), [0]),
        "5000-cycle-beside-list": (long_cycle, [int(order[0])]),
        "500-triangles": (x - x % 3 + (x + 1) % 3, []),
    }


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("case", list(_headless_cycles()))
def test_rank_lists_rejects_headless_cycles(case, strict):
    succ, heads = _headless_cycles()[case]
    cfg = ModelConfig(n=len(succ), m=len(succ), epsilon=0.5, seed=3, strict_budget=strict)
    with pytest.raises(StructureError, match="^successor array has elements unreachable from the heads$"):
        rank_lists(succ, heads, cfg)


def test_rank_lists_matches_sequential_ranking_per_chain():
    n = 3000
    for seed in range(3):
        for k in (1, 2, 9, 50):
            succ, heads = _random_chains(n, k, seed)
            res = rank_lists(succ, heads, ModelConfig(n=n, m=n, epsilon=0.5, seed=seed))
            covered = np.zeros(n, dtype=bool)
            for head in heads:
                want = seq_list_rank(succ, head)
                on = want >= 0
                assert np.array_equal(res.ranks[on], want[on])
                covered |= on
            assert covered.all()


def test_unwind_writes_each_level_gap_once_in_key_order(monkeypatch):
    # Every round's buffered keys, to see that none needs a sort to seal.
    buffered = []
    generation = BatchRound._generation

    def recording(self):
        buffered.append(np.concatenate(self._keys) if self._keys else np.empty(0, dtype=np.int64))
        return generation(self)

    monkeypatch.setattr(BatchRound, "_generation", recording)
    n = 5000
    succ, heads = _random_chains(n, 1, seed=11)
    res = list_ranking(succ, heads[0], ModelConfig(n=n, m=n, epsilon=0.5, seed=11))
    it = res.iterations
    assert it >= 2
    stores = res.simulator.stores
    # Levels 0..it, the residual read, then one unwind round per level from
    # level it-1 down to level 0.
    assert len(stores) == 2 * it + 2
    for level in range(it):
        unwound = stores[2 * it + 1 - level]
        keys = np.setdiff1d(res.levels[level].key_array, res.levels[level + 1].key_array)
        assert np.array_equal(unwound.key_array, keys)
        assert len(unwound.columns) == 1
        assert np.array_equal(unwound.columns[0], res.ranks[keys])
    for keys in buffered:
        assert (keys[1:] > keys[:-1]).all()


def test_rank_lists_multiple_chains():
    succ = np.array([1, -1, 3, 4, -1, -1])
    cfg = ModelConfig(n=6, m=6, epsilon=0.5, seed=2)
    res = rank_lists(succ, heads=[0, 2, 5], config=cfg)
    assert res.ranks.tolist() == [0, 1, 0, 1, 2, 0]


def test_rank_lists_rejects_heads_that_are_not_integers():
    succ = np.array([1, -1, 3, -1])
    cfg = ModelConfig(n=4, m=4, epsilon=0.5, seed=0)
    # Once cast, these would rank from element 0, enter element 1 twice,
    # or fail inside numpy.
    for heads in ([0.9], [True], [[0]]):
        with pytest.raises(TypeError, match="heads must be a 1-d integer array"):
            rank_lists(succ, heads, cfg)
    with pytest.raises(TypeError, match="heads must be a 1-d integer array"):
        list_ranking(np.array([-1, 0]), 1.7, cfg)
    with pytest.raises(StructureError, match="head 4 is not an element"):
        rank_lists(succ, [0, 4], cfg)
    assert rank_lists(succ, np.array([2, 0], dtype=np.int32), cfg).ranks.tolist() == [0, 1, 0, 1]


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
    cfg = ModelConfig(n=30, m=30, epsilon=0.3, seed=0, budget_slack=1.0)
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
    rooted = root_forest(forest, config=ModelConfig(n=forest.n, m=forest.m))  # forest connectivity over the tours, then list ranking
    assert len(rooted.simulators) == 2 and len(rooted.roots) == 3
    # MIS runs each iteration as one batch round too.
    g = gen_random_graph(40, 80, seed=2)
    assert maximal_independent_set(g, ModelConfig(n=g.n, m=g.m)).members
