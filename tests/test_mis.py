import math
import tracemalloc

import pytest

from ampcsim.errors import NonTerminationError
from ampcsim.graphs import Graph, gen_random_graph
from ampcsim.mis import (
    IN_MIS,
    NOT_IN_MIS,
    UNKNOWN,
    Permutation,
    iteration_budget,
    lfmis_oracle,
    maximal_independent_set,
    membership_query,
    sorted_adjacency,
    truncated_query,
)
from ampcsim.runtime import ModelConfig


def mis_config(n, m, seed=0, epsilon=0.5):
    return ModelConfig(n=n, m=m, epsilon=epsilon, seed=seed)


def test_permutation_sorts_by_priority():
    perm = Permutation.random(50, seed=1)
    order = perm.order()
    priorities = [perm.priority[v] for v in order]
    assert priorities == sorted(priorities)
    assert sorted(perm.rank) == list(range(50))


def test_from_order_rejects_a_non_permutation():
    # A repeat would leave a vertex missing from the order ranked 0, and an
    # order over too few ids would index past its end.
    for order in ([0, 0, 2], [1, 2]):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation.from_order(order)


def test_lfmis_path_star_triangle():
    path = Graph(3, [(0, 1), (1, 2)])
    assert lfmis_oracle(path, Permutation.from_order([0, 1, 2])) == {0, 2}
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert lfmis_oracle(star, Permutation.from_order([0, 1, 2, 3, 4])) == {0}
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        assert lfmis_oracle(tri, Permutation.from_order(order)) == {order[0]}


def test_membership_isolated_vertex():
    g = Graph(1, [])
    assert membership_query(g, 0, Permutation.from_order([0])) == (1, 1)


def test_membership_edge_hand_values():
    g = Graph(2, [(0, 1)])
    perm = Permutation.from_order([0, 1])
    assert membership_query(g, 0, perm) == (1, 1)
    assert membership_query(g, 1, perm) == (0, 2)


def test_membership_matches_oracle_on_random_graphs():
    for seed in range(10):
        g = gen_random_graph(40, 80, seed=seed)
        perm = Permutation.random(40, seed=seed + 100)
        want = lfmis_oracle(g, perm)
        adj = sorted_adjacency(g, perm)
        for v in range(g.n):
            bit, q = membership_query(g, v, perm, adj)
            assert bit == (1 if v in want else 0)
            assert q >= 1


def test_query_cost_expectation_desk_scale():
    # Mean over random permutations of the summed query counts stays near
    # the m + n guarantee for uniformly random orders.
    g = gen_random_graph(200, 800, seed=5)
    samples = []
    for seed in range(20):
        perm = Permutation.random(g.n, seed=seed)
        adj = sorted_adjacency(g, perm)
        samples.append(sum(membership_query(g, v, perm, adj)[1] for v in range(g.n)))
    mean = sum(samples) / len(samples)
    assert mean <= 1.25 * (g.m + g.n)


def test_truncated_zero_capacity_is_noop():
    g = Graph(2, [(0, 1)])
    perm = Permutation.from_order([0, 1])
    status = [UNKNOWN, UNKNOWN]
    assert truncated_query(g, 1, perm, 0, status) == 0
    assert status == [UNKNOWN, UNKNOWN]


def test_truncated_isolated_vertex():
    g = Graph(1, [])
    status = [UNKNOWN]
    used = truncated_query(g, 0, Permutation.from_order([0]), 1, status)
    assert used == 1 and status[0] == IN_MIS


def test_truncated_edge_hand_trace():
    g = Graph(2, [(0, 1)])
    perm = Permutation.from_order([0, 1])
    status = [UNKNOWN, UNKNOWN]
    used = truncated_query(g, 1, perm, 10, status)
    assert used == 2
    assert status == [IN_MIS, NOT_IN_MIS]


def test_truncated_respects_capacity():
    # A long path queried from the far end runs out of budget unsettled.
    n = 30
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    perm = Permutation.from_order(list(range(n)))
    status = [UNKNOWN] * n
    used = truncated_query(g, n - 1, perm, 5, status)
    assert used >= 5
    assert status[n - 1] == UNKNOWN


def test_truncated_settlements_agree_with_oracle():
    for seed in range(15):
        g = gen_random_graph(30, 60, seed=seed)
        perm = Permutation.random(30, seed=seed + 7)
        want = lfmis_oracle(g, perm)
        status = [UNKNOWN] * g.n
        for v in range(g.n):
            if status[v] == UNKNOWN:
                truncated_query(g, v, perm, 4, status)
        for v, s in enumerate(status):
            if s == IN_MIS:
                assert v in want
            elif s == NOT_IN_MIS:
                assert v not in want


def test_mis_edgeless_single_iteration():
    g = Graph(20, [])
    res = maximal_independent_set(g, mis_config(20, 0))
    assert res.members == set(range(20))
    assert res.iterations == 1


def test_mis_complete_graph():
    n = 50
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    cfg = mis_config(n, g.m, seed=4)
    res = maximal_independent_set(g, cfg)
    first = res.permutation.order()[0]
    assert res.members == {first}


def test_mis_matches_oracle_and_structure():
    for seed in range(25):
        n = 60 + 10 * (seed % 4)
        g = gen_random_graph(n, 3 * n, seed=seed)
        cfg = mis_config(n, g.m, seed=seed)
        res = maximal_independent_set(g, cfg)
        assert res.members == lfmis_oracle(g, res.permutation)
        adj = g.adjacency()
        for u, v in g.edges:
            assert not (u in res.members and v in res.members)
        for v in range(n):
            if v not in res.members:
                assert any(u in res.members for u in adj[v])
        assert res.iterations <= iteration_budget(cfg.epsilon) + 2


def test_mis_preprocessing_is_rank_sorted():
    g = gen_random_graph(50, 120, seed=2)
    multi = Graph(50, [*g.edges, (3, 7), (7, 3), (3, 7), (5, 5)], multigraph=True)
    perm = Permutation.random(50, seed=9)
    for graph in (g, multi):
        adj = sorted_adjacency(graph, perm)
        assert adj == [sorted(neigh, key=perm.rank.__getitem__) for neigh in graph.adjacency()]


def test_mis_monotone_settling():
    g = gen_random_graph(100, 300, seed=11)
    cfg = mis_config(100, 300, seed=11)
    res = maximal_independent_set(g, cfg)
    settled = sum(len(qs) for qs in res.q_per_iteration)
    assert res.iterations >= 1
    # Every iteration recorded queries for at least one vertex it settled.
    for qs in res.q_per_iteration:
        assert qs


def test_mis_nontermination_guard():
    g = Graph(2, [(0, 1)])
    cfg = mis_config(2, 1)
    # Sabotage: capacity comes from n**epsilon which is >= 1, so force the
    # guard by exhausting the iteration cap with an impossible budget.
    with pytest.raises(NonTerminationError):
        # n=2, epsilon small -> capacity floor(2**eps) = 1; a vertex whose
        # first unsettled neighbor ranks lower needs budget 2 to settle, so
        # one of the two vertices settles only via the publish knock-out;
        # with both on one machine it still settles. Instead check the cap
        # logic directly with a tiny capacity override.
        from ampcsim import mis as mis_module

        original = mis_module.truncated_query
        try:
            mis_module.truncated_query = lambda *a, **k: 0
            maximal_independent_set(g, cfg)
        finally:
            mis_module.truncated_query = original


def test_mis_reports_recursion_depth():
    g = gen_random_graph(100, 300, seed=5)
    cfg = mis_config(100, 300, seed=5)
    res = maximal_independent_set(g, cfg)
    assert res.max_recursion_depth >= 1
    # Depth can never exceed the per-vertex capacity.
    assert res.max_recursion_depth <= max(1, int(100**cfg.epsilon))


def test_mis_memory_is_linear_in_input():
    # Traced peak bytes per input element (n + m) stay flat as n grows
    # fourfold; a per-machine copy of the status list would grow them with
    # the machine count.
    per_element = []
    for n in (2**11, 2**13):
        g = gen_random_graph(n, 5 * n, seed=1)
        cfg = mis_config(n, g.m, seed=1)
        tracemalloc.start()
        try:
            maximal_independent_set(g, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_element.append(peak / (n + g.m))
    assert per_element[1] <= 1.2 * per_element[0], per_element
