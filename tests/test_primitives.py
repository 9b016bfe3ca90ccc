import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcsim.graphs import Graph, GraphFormatError
from ampcsim.primitives import RMQIndex, contract_graph


def test_rmq_examples():
    idx = RMQIndex([3, 1, 4, 1, 5])
    lo, hi = idx.query([1, 2, 0], [3, 2, 4])
    assert (lo.tolist(), hi.tolist()) == ([1, 4, 1], [4, 4, 5])
    assert [int(x) for x in idx.query(2, 2)] == [4, 4]


def test_rmq_index_takes_a_separate_max_table():
    lo, hi = RMQIndex([3, 1, 2], max_values=[0, 5, 4]).query([0, 2], [2, 2])
    assert (lo.tolist(), hi.tolist()) == ([1, 2], [5, 4])


def test_rmq_range_errors():
    idx = RMQIndex([1, 2, 3])
    with pytest.raises(IndexError):
        idx.query(2, 3)
    with pytest.raises(IndexError):
        idx.query(-1, 1)
    with pytest.raises(IndexError):
        idx.query(2, 1)
    with pytest.raises(IndexError, match=r"range \[2, 3\]"):
        idx.query([0, 2], [1, 3])


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_rmq_matches_naive_scan(seed):
    rng = random.Random(seed)
    arr = [rng.randint(-100, 100) for _ in range(rng.randint(1, 60))]
    idx = RMQIndex(arr)
    ranges = []
    for _ in range(15):
        i = rng.randrange(len(arr))
        ranges.append((i, rng.randrange(i, len(arr))))
    lo, hi = idx.query(*zip(*ranges))
    assert lo.tolist() == [min(arr[i : j + 1]) for i, j in ranges]
    assert hi.tolist() == [max(arr[i : j + 1]) for i, j in ranges]


def test_contract_triangle_to_point():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    out = contract_graph(g, np.array([0, 0, 0]))
    assert out.m == 0


def test_contract_identity():
    g = Graph(4, [(0, 1), (2, 3)])
    out = contract_graph(g, np.arange(4))
    assert sorted(out.edges) == sorted(g.edges)


def test_contract_missing_vertex_is_domain_error():
    g = Graph(3, [(0, 1)])
    with pytest.raises(KeyError, match="undefined on vertex 2"):
        contract_graph(g, np.array([0, 1]))
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert contract_graph(g, np.array([0, 0, 2, 2])).edges == ((0, 2),)
    with pytest.raises(KeyError, match="undefined on vertex 3"):
        contract_graph(g, np.array([0, 0, 2]))


def test_contract_rejects_representative_out_of_range():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphFormatError, match=r"edge \(1, 3\) out of range for n=3"):
        contract_graph(g, np.array([0, 1, 3]))
    # Only representatives that end up on an edge matter, as before.
    assert contract_graph(g, np.array([0, 0, 0, 7])).m == 0


def test_contract_multigraph_keeps_parallels():
    g = Graph(4, [(0, 1), (2, 3), (0, 3)])
    deduped = contract_graph(g, np.array([0, 1, 0, 1]))
    assert deduped.edges == ((0, 1),)


def test_contract_weighted_keeps_lightest_parallel_edge():
    g = Graph(4, [(0, 1, 5), (2, 3, 2), (0, 3, 9)], weighted=True)
    out = contract_graph(g, np.array([0, 1, 0, 1]))
    assert out.weighted
    assert out.edges == ((0, 1, 2),)


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_contract_matches_set_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 25)
    edges = set()
    for _ in range(rng.randint(0, 40)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    g = Graph(n, sorted(edges))
    f = [rng.randrange(n) for _ in range(n)]
    # Representatives must be chosen inside V; image need not be stable.
    got = contract_graph(g, np.array(f))
    want = {
        (min(f[u], f[v]), max(f[u], f[v]))
        for u, v in edges
        if f[u] != f[v]
    }
    assert set(got.edges) == want
