import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcsim.graphs import Graph, GraphFormatError
from ampcsim.primitives import (
    contract_graph,
    mpc_argsort,
    mpc_cumsum,
    mpc_dedup,
    mpc_filter,
    mpc_predecessor,
    rmq_build,
)

EPS = 0.5


def _sorted_keys(xs):
    keys = np.array(xs, dtype=np.int64)
    return keys[mpc_argsort(keys, epsilon=EPS).value].tolist()


def test_sort_examples():
    assert _sorted_keys([3, 1, 2]) == [1, 2, 3]
    assert _sorted_keys([1, 2, 3]) == [1, 2, 3]
    assert _sorted_keys([]) == []


def test_sort_charges():
    res = mpc_argsort(np.array([5, 4]), epsilon=0.4)
    assert res.rounds_charged == 3  # ceil(1/0.4)
    assert res.communication_charged >= 2


@given(st.lists(st.integers(-50, 50)))
def test_sort_matches_oracle(xs):
    assert _sorted_keys(xs) == sorted(xs)


def test_sort_stability():
    # Equal keys keep their input order.
    out = mpc_argsort(np.array([1, 0, 1, 0]), epsilon=EPS).value
    assert out.tolist() == [1, 3, 0, 2]


@given(st.lists(st.integers(-50, 50)))
def test_argsort_matches_sort_and_its_charge(xs):
    got = mpc_argsort(np.array(xs, dtype=np.int64), epsilon=0.4)
    assert got.value.tolist() == sorted(range(len(xs)), key=xs.__getitem__)
    assert (got.rounds_charged, got.communication_charged) == (3, 2 * len(xs))


def test_filter_examples():
    assert mpc_filter([1, 2, 3, 4], lambda x: x % 2 == 0, epsilon=EPS).value == [2, 4]
    assert mpc_filter([1, 2], lambda x: False, epsilon=EPS).value == []


@given(st.lists(st.integers(-50, 50)))
def test_filter_matches_oracle(xs):
    got = mpc_filter(xs, lambda x: x > 0, epsilon=EPS).value
    assert got == [x for x in xs if x > 0]


def test_prefix_sum_examples():
    assert mpc_cumsum(np.array([1, 2, 3]), epsilon=EPS).value.tolist() == [0, 1, 3]
    assert mpc_cumsum(np.array([True, False, True]), epsilon=EPS).value.tolist() == [0, 1, 1]
    assert mpc_cumsum(np.zeros(0, dtype=np.int64), epsilon=EPS).value.tolist() == []


@given(st.lists(st.integers(-100, 100), max_size=80))
def test_cumsum_matches_prefix_sum_and_its_charge(xs):
    got = mpc_cumsum(np.array(xs, dtype=np.int64), epsilon=EPS)
    assert got.value.dtype == np.int64 and len(got.value) == len(xs)
    running = 0
    for x, prefix in zip(xs, got.value.tolist()):
        assert prefix == running
        running += x
    assert (got.rounds_charged, got.communication_charged) == (2, 2 * len(xs))


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
    lo, hi = idx.query([1, 2, 0], [3, 2, 4])
    assert (lo.tolist(), hi.tolist()) == ([1, 4, 1], [4, 4, 5])
    assert [int(x) for x in idx.query(2, 2)] == [4, 4]
    assert rmq_build([3, 1], epsilon=EPS).rounds_charged == 2


def test_rmq_build_takes_a_separate_max_table():
    built = rmq_build([3, 1, 2], max_values=[0, 5, 4], epsilon=EPS)
    assert (built.rounds_charged, built.communication_charged) == (2, 3)
    lo, hi = built.value.query([0, 2], [2, 2])
    assert (lo.tolist(), hi.tolist()) == ([1, 2], [5, 4])


def test_rmq_range_errors():
    idx = rmq_build([1, 2, 3], epsilon=EPS).value
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
    idx = rmq_build(arr, epsilon=EPS).value
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


def test_charge_table_constants():
    # sort / filter / prefix / predecessor / dedup / rmq_build charge
    # ceil(1/epsilon) rounds.
    one = np.array([1])
    for eps, rounds in ((0.5, 2), (0.4, 3), (0.66, 2)):
        assert mpc_argsort(one, epsilon=eps).rounds_charged == rounds
        assert mpc_filter([1], bool, epsilon=eps).rounds_charged == rounds
        assert mpc_cumsum(one, epsilon=eps).rounds_charged == rounds
        assert mpc_predecessor([1], epsilon=eps).rounds_charged == rounds
        assert mpc_dedup([1], epsilon=eps).rounds_charged == rounds
        assert rmq_build([1], epsilon=eps).rounds_charged == rounds


def test_communication_charged_covers_input():
    xs = list(range(100))
    assert mpc_argsort(np.array(xs), epsilon=0.5).communication_charged >= len(xs)
    assert mpc_cumsum(np.array(xs), epsilon=0.5).communication_charged >= len(xs)
    assert mpc_filter(xs, bool, epsilon=0.5).communication_charged >= len(xs)
    assert rmq_build(xs, epsilon=0.5).communication_charged >= len(xs)
