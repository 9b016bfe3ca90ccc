import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcsim.graphs import Graph, GraphFormatError, simple_graph
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


def test_contract_rejects_a_mapping_that_is_not_a_1d_int_array():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    for mapping in (np.array([0.5, 0, 2, 2]), np.array([[0, 0], [2, 2]]), [0, 0, 2, 2.0], np.array([True] * 4)):
        with pytest.raises(TypeError, match="contraction mapping must be a 1-d integer array"):
            contract_graph(g, mapping)
    # Any 1-d int array or int list covering the vertices is taken.
    for mapping in (np.array([0, 0, 2, 2], dtype=np.uint8), [0, 0, 2, 2], np.array([0, 0, 2, 2, 9, -1])):
        assert contract_graph(g, mapping).edges == ((0, 2),)


def test_contract_accepts_representatives_out_of_range_on_self_loops_only():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    # Vertices 3 and 4 both go to 9, so their edge is a self-loop and dropped.
    assert contract_graph(g, np.array([0, 2, 2, 9, 9])).edges == ((0, 2),)
    assert contract_graph(g, np.array([0, 2, 2, -1, -1])).edges == ((0, 2),)
    with pytest.raises(GraphFormatError, match=r"^edge \(9, 8\) out of range for n=5$"):
        contract_graph(g, np.array([0, 2, 2, 9, 8]))
    with pytest.raises(GraphFormatError, match=r"^edge \(2, -1\) out of range for n=5$"):
        contract_graph(g, np.array([0, 2, -1, 3, 4]))


def _reference_simple(n, src, dst, weight):
    """simple_graph by the plain formula: drop self-loops, range-check, sort
    the keys min * n + max, keep the first of each run (the lightest
    weight), decode with // and %."""
    proper = src != dst
    src, dst = src[proper], dst[proper]
    if weight is not None:
        weight = weight[proper]
    outside = (np.minimum(src, dst) < 0) | (np.maximum(src, dst) >= n)
    if outside.any():
        i = int(np.argmax(outside))
        raise GraphFormatError(f"edge ({src[i]}, {dst[i]}) out of range for n={n}")
    keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    if weight is not None:
        if len(keys):
            weight = np.minimum.reduceat(weight[order], np.flatnonzero(first))
        weight = weight.astype(np.float64 if weight.dtype.kind == "f" and len(weight) else np.int64)
    keys = keys[first]
    return keys // n, keys % n, weight


def _assert_same_arrays(graph, want):
    for got, expected in zip((graph.src, graph.dst, graph.weight), want):
        if expected is None:
            assert got is None
        else:
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


# Vertex counts around the packing boundaries: ids of 15, 16 and 17 bits,
# and int32 keys (2 * 15 bits) against int64 ones.
@pytest.mark.parametrize("n", [1, 2, 3, 2**15, 2**15 + 1, 2**16 + 1, 100_000])
def test_contract_and_simple_graph_match_the_reference_at_scale(n):
    rng = np.random.default_rng(n)
    m = min(4 * n, 150_000)
    # Every vertex is isolated with probability 1/4; the rest take edges,
    # with self-loops and parallel edges.
    busy = np.flatnonzero(rng.random(n) < 0.75) if n > 3 else np.arange(n)
    src, dst = rng.choice(busy, m), rng.choice(busy, m)
    loops = rng.random(m) < 0.05
    dst[loops] = src[loops]
    touched = np.union1d(src, dst)
    isolated = np.setdiff1d(np.arange(n), touched)
    int_weight = rng.permutation(m).astype(np.int64) - m // 2
    float_weight = (rng.permutation(m) + 0.25) / 3
    for weight in (None, int_weight, float_weight):
        multi = Graph.from_arrays(n, src, dst, weight, multigraph=True)
        _assert_same_arrays(simple_graph(n, src, dst, weight), _reference_simple(n, src, dst, weight))
        mappings = [np.arange(n), rng.integers(0, max(1, n // 7), n), rng.integers(0, n, n)]
        # Exactly k representatives on the vertices with an edge, on both
        # sides of the int32 limit of 2**15; the others keep their own ids.
        for k in (2**15, 2**15 + 1):
            if k <= len(touched):
                mapping = np.arange(n)
                reps = rng.choice(n, k, replace=False)
                order = rng.permutation(touched)
                mapping[order[:k]] = reps
                mapping[order[k:]] = reps[rng.integers(0, k, len(touched) - k)]
                assert len(np.unique(mapping[touched])) == k
                mappings.append(mapping)
        # Out-of-range representatives on isolated vertices are accepted.
        wild = rng.integers(0, max(1, n // 3), n)
        wild[isolated] = rng.choice([-5, n, n + 7], len(isolated))
        mappings.append(np.append(wild, [3, -2]))
        for mapping in mappings:
            rep = mapping[:n]
            want = _reference_simple(n, rep[multi.src], rep[multi.dst], multi.weight)
            _assert_same_arrays(contract_graph(multi, mapping), want)


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
