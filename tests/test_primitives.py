import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcsim.graphs import Graph, GraphFormatError
from ampcsim.primitives import (
    contract_graph,
    mpc_argsort,
    mpc_dedup,
    mpc_filter,
    mpc_predecessor,
    mpc_prefix_sum,
    mpc_sort,
    rmq_build,
    rmq_query,
    rmq_query_max,
)

EPS = 0.5


def test_sort_examples():
    assert mpc_sort([3, 1, 2], epsilon=EPS).value == [1, 2, 3]
    assert mpc_sort([1, 2, 3], epsilon=EPS).value == [1, 2, 3]
    assert mpc_sort([], epsilon=EPS).value == []


def test_sort_charges():
    res = mpc_sort([5, 4], epsilon=0.4)
    assert res.rounds_charged == 3  # ceil(1/0.4)
    assert res.communication_charged >= 2


@given(st.lists(st.integers(-50, 50)))
def test_sort_matches_oracle(xs):
    assert mpc_sort(xs, epsilon=EPS).value == sorted(xs)


def test_sort_stability():
    pairs = [(1, "a"), (0, "b"), (1, "c"), (0, "d")]
    out = mpc_sort(pairs, key=lambda p: p[0], epsilon=EPS).value
    assert out == [(0, "b"), (0, "d"), (1, "a"), (1, "c")]


@given(st.lists(st.integers(-50, 50)))
def test_argsort_matches_sort_and_its_charge(xs):
    keys = np.array(xs, dtype=np.int64)
    got, want = mpc_argsort(keys, epsilon=0.4), mpc_sort(range(len(xs)), key=xs.__getitem__, epsilon=0.4)
    assert got.value.tolist() == want.value
    assert (got.rounds_charged, got.communication_charged) == (want.rounds_charged, want.communication_charged)


def test_filter_examples():
    assert mpc_filter([1, 2, 3, 4], lambda x: x % 2 == 0, epsilon=EPS).value == [2, 4]
    assert mpc_filter([1, 2], lambda x: False, epsilon=EPS).value == []


@given(st.lists(st.integers(-50, 50)))
def test_filter_matches_oracle(xs):
    got = mpc_filter(xs, lambda x: x > 0, epsilon=EPS).value
    assert got == [x for x in xs if x > 0]


def test_prefix_sum_examples():
    out = mpc_prefix_sum([1, 2, 3], lambda a, b: a + b, 0, epsilon=EPS).value
    assert [p for _, p in out] == [0, 1, 3]
    assert out[0][0] == 1
    assert mpc_prefix_sum([], lambda a, b: a + b, 0, epsilon=EPS).value == []


@given(st.lists(st.integers(-100, 100), max_size=80))
def test_prefix_max_matches_running_oracle(xs):
    out = mpc_prefix_sum(xs, max, -(10**9), epsilon=EPS).value
    running = -(10**9)
    for x, prefix in out:
        assert prefix == running
        running = max(running, x)


def test_predecessor_examples():
    assert mpc_predecessor([1, 0, 0, 1, 0], epsilon=EPS).value == [None, 0, 0, 0, 3]
    assert mpc_predecessor([0, 0, 0], epsilon=EPS).value == [None, None, None]
    assert mpc_predecessor([1, 1, 1], epsilon=EPS).value == [None, 0, 1]


@given(st.lists(st.booleans(), max_size=60))
def test_predecessor_matches_scan_oracle(flags):
    flags = [int(f) for f in flags]
    got = mpc_predecessor(flags, epsilon=EPS).value
    for i in range(len(flags)):
        want = next((j for j in range(i - 1, -1, -1) if flags[j]), None)
        assert got[i] == want


def test_dedup_examples():
    assert mpc_dedup(["a", "b", "a"], epsilon=EPS).value == ["a", "b"]
    assert mpc_dedup([1, 2, 3], epsilon=EPS).value == [1, 2, 3]


@given(st.lists(st.integers(0, 20)))
def test_dedup_matches_set_oracle(xs):
    got = mpc_dedup(xs, epsilon=EPS).value
    assert sorted(got) == sorted(set(xs))


def test_rmq_examples():
    idx = rmq_build([3, 1, 4, 1, 5], epsilon=EPS).value
    assert rmq_query(idx, 1, 3).value == 1
    assert rmq_query(idx, 2, 2).value == 4
    assert rmq_query_max(idx, 0, 4).value == 5
    assert rmq_build([3, 1], epsilon=EPS).rounds_charged == 2
    assert rmq_query(idx, 0, 0).rounds_charged == 1


def test_rmq_range_errors():
    idx = rmq_build([1, 2, 3], epsilon=EPS).value
    with pytest.raises(IndexError):
        rmq_query(idx, 2, 3)
    with pytest.raises(IndexError):
        rmq_query(idx, -1, 1)
    with pytest.raises(IndexError):
        rmq_query(idx, 2, 1)


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_rmq_matches_naive_scan(seed):
    rng = random.Random(seed)
    arr = [rng.randint(-100, 100) for _ in range(rng.randint(1, 60))]
    idx = rmq_build(arr, epsilon=EPS).value
    for _ in range(15):
        i = rng.randrange(len(arr))
        j = rng.randrange(i, len(arr))
        assert rmq_query(idx, i, j).value == min(arr[i : j + 1])
        assert rmq_query_max(idx, i, j).value == max(arr[i : j + 1])


def test_contract_triangle_to_point():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    out = contract_graph(g, {0: 0, 1: 0, 2: 0}).value
    assert out.m == 0


def test_contract_identity():
    g = Graph(4, [(0, 1), (2, 3)])
    out = contract_graph(g, {v: v for v in range(4)}).value
    assert sorted(out.edges) == sorted(g.edges)


def test_contract_missing_vertex_is_domain_error():
    g = Graph(3, [(0, 1)])
    with pytest.raises(KeyError):
        contract_graph(g, {0: 0, 1: 1})


def test_contract_rejects_representative_out_of_range():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphFormatError, match=r"edge \(1, 3\) out of range for n=3"):
        contract_graph(g, [0, 1, 3])
    # Only representatives that end up on an edge matter, as before.
    assert contract_graph(g, [0, 0, 0, 7]).value.m == 0


def test_contract_multigraph_keeps_parallels():
    g = Graph(4, [(0, 1), (2, 3), (0, 3)])
    deduped = contract_graph(g, {0: 0, 1: 1, 2: 0, 3: 1}).value
    assert deduped.edges == ((0, 1),)


def test_contract_weighted_keeps_lightest_parallel_edge():
    g = Graph(4, [(0, 1, 5), (2, 3, 2), (0, 3, 9)], weighted=True)
    out = contract_graph(g, {0: 0, 1: 1, 2: 0, 3: 1}).value
    assert out.weighted
    assert out.edges == ((0, 1, 2),)


def test_contract_accepts_list_mapping():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert contract_graph(g, [0, 0, 2, 2]).value.edges == ((0, 2),)
    with pytest.raises(KeyError):
        contract_graph(g, [0, 0, 2])


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
    f = {v: rng.randrange(n) for v in range(n)}
    # Representatives must be chosen inside V; image need not be stable.
    got = contract_graph(g, f).value
    want = {
        (min(f[u], f[v]), max(f[u], f[v]))
        for u, v in edges
        if f[u] != f[v]
    }
    assert set(got.edges) == want


def test_charge_table_constants():
    # sort / filter / prefix / predecessor / dedup / rmq_build charge
    # ceil(1/epsilon) rounds; contraction and rmq queries charge one.
    for eps, rounds in ((0.5, 2), (0.4, 3), (0.66, 2)):
        assert mpc_sort([1], epsilon=eps).rounds_charged == rounds
        assert mpc_filter([1], bool, epsilon=eps).rounds_charged == rounds
        assert mpc_prefix_sum([1], max, 0, epsilon=eps).rounds_charged == rounds
        assert mpc_predecessor([1], epsilon=eps).rounds_charged == rounds
        assert mpc_dedup([1], epsilon=eps).rounds_charged == rounds
        assert rmq_build([1], epsilon=eps).rounds_charged == rounds
    g = Graph(2, [(0, 1)])
    assert contract_graph(g, {0: 0, 1: 0}).rounds_charged == 1
    idx = rmq_build([1, 2], epsilon=0.5).value
    assert rmq_query(idx, 0, 1).rounds_charged == 1
    assert rmq_query_max(idx, 0, 1).rounds_charged == 1


def test_communication_charged_covers_input():
    xs = list(range(100))
    assert mpc_sort(xs, epsilon=0.5).communication_charged >= len(xs)
    assert mpc_filter(xs, bool, epsilon=0.5).communication_charged >= len(xs)
    assert rmq_build(xs, epsilon=0.5).communication_charged >= len(xs)
