import hashlib
import io

import numpy as np
import pytest

from ampcsim.graphs import (
    Graph,
    GraphFormatError,
    gen_cycles,
    gen_random_forest,
    gen_random_graph,
    read_graph,
    simple_graph,
    write_graph,
)
from ampcsim.connectivity import connectivity, msf, reduce_small_space, spanning_forest
from ampcsim.contraction import cycle_conn
from ampcsim.oracles import uf_components
from ampcsim.primitives import contract_graph
from ampcsim.runtime import ModelConfig, Simulator
from ampcsim.trees import forest_connectivity, root_forest


def test_graph_rejects_self_loop_and_duplicate():
    with pytest.raises(GraphFormatError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 1), (1, 0)])
    g = Graph(3, [(0, 1), (1, 0)], multigraph=True)
    assert g.m == 2


def test_graph_rejects_duplicate_weights():
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 1, 5), (1, 2, 5)], weighted=True)


def test_adjacency_sorted():
    g = Graph(4, [(2, 0), (0, 3), (0, 1)])
    assert g.adjacency()[0] == [1, 2, 3]


def test_gen_cycles_single():
    g = gen_cycles(4, 1, seed=0)
    assert g.n == 4 and g.m == 4
    assert all(d == 2 for d in g.degrees())


def test_gen_cycles_two_pieces_boundary():
    with pytest.raises(ValueError):
        gen_cycles(4, 2, seed=0)
    with pytest.raises(ValueError):
        gen_cycles(7, 2, seed=0)
    g = gen_cycles(6, 2, seed=0)
    assert uf_components(g).component_count() == 2


def test_gen_cycles_two_pieces_large():
    g = gen_cycles(10**4, 2, seed=3)
    labeling = uf_components(g)
    assert labeling.component_count() == 2
    sizes = {}
    for rep in labeling.label:
        sizes[rep] = sizes.get(rep, 0) + 1
    assert sorted(sizes.values()) == [5000, 5000]


def test_gen_cycles_deterministic():
    assert gen_cycles(64, 2, seed=5).edges == gen_cycles(64, 2, seed=5).edges
    assert gen_cycles(64, 2, seed=5).edges != gen_cycles(64, 2, seed=6).edges


def test_gen_random_graph_examples():
    tri = gen_random_graph(3, 3, seed=0)
    assert sorted(tri.edges) == [(0, 1), (0, 2), (1, 2)]
    assert gen_random_graph(10, 0, seed=0).m == 0
    g = gen_random_graph(100, 300, seed=1)
    assert sum(g.degrees()) == 600
    with pytest.raises(ValueError):
        gen_random_graph(4, 7, seed=0)


def test_gen_random_graph_weighted_distinct():
    g = gen_random_graph(50, 200, seed=2, weighted=True)
    weights = [w for _, _, w in g.edges]
    assert len(set(weights)) == 200
    assert set(weights) == set(range(1, 201))


def test_gen_random_forest():
    assert gen_random_forest(1, 1, seed=0).m == 0
    g = gen_random_forest(5, 1, seed=0)
    assert g.m == 4
    assert uf_components(g).component_count() == 1
    big = gen_random_forest(10**4, 7, seed=9)
    assert big.m == 10**4 - 7
    assert uf_components(big).component_count() == 7


def test_generators_deterministic():
    for gen in (
        lambda s: gen_random_graph(40, 100, seed=s, weighted=True),
        lambda s: gen_random_forest(40, 3, seed=s),
    ):
        assert gen(11).edges == gen(11).edges


def test_file_roundtrip():
    g = gen_random_graph(20, 35, seed=4, weighted=True)
    buf = io.StringIO()
    write_graph(g, buf)
    buf.seek(0)
    back = read_graph(buf)
    assert back.n == g.n and back.edges == g.edges and back.weighted


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 5), (1, 2, -2), (0, 2, 7)],
        [(0, 1, 1.5), (1, 2, 2.0), (0, 2, -3.25)],
    ],
)
def test_file_roundtrip_keeps_int_and_float_weights(edges):
    g = Graph(3, edges, weighted=True)
    buf = io.StringIO()
    write_graph(g, buf)
    buf.seek(0)
    back = read_graph(buf)
    assert back.edges == g.edges and back.weight.dtype == g.weight.dtype


def test_reader_names_a_non_numeric_line():
    with pytest.raises(GraphFormatError, match="bad edge line '0 x'"):
        read_graph(io.StringIO("3 1\n0 x\n"))
    with pytest.raises(GraphFormatError, match="bad edge line '0 1 heavy'"):
        read_graph(io.StringIO("3 1 w\n0 1 heavy\n"))
    with pytest.raises(GraphFormatError, match="bad edge line '0 1 nan'"):
        read_graph(io.StringIO("3 1 w\n0 1 nan\n"))


def test_reader_rejections():
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("3 1\n1 1\n"))
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("3 2\n0 1\n1 0\n"))
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("3 2 w\n0 1 5\n1 2 5\n"))
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO("3 2\n0 1\n"))
    with pytest.raises(GraphFormatError):
        read_graph(io.StringIO(""))
    # Multigraph mode admits what simple mode rejects.
    g = read_graph(io.StringIO("3 2\n0 1\n1 0\n"), multigraph=True)
    assert g.m == 2


@pytest.mark.parametrize(
    "n, edges, weighted, message",
    [
        (3, [(0, 1), (1, 3)], False, "edge (1, 3) out of range for n=3"),
        (3, [(0, 1), (-1, 2)], False, "edge (-1, 2) out of range for n=3"),
        (3, [(0, 1), (2, 2)], False, "self-loop at vertex 2"),
        (3, [(0, 1), (1, 2), (1, 0)], False, "duplicate edge (0, 1)"),
        (3, [(0, 1, 4), (1, 2, 7), (0, 2, 4)], True, "duplicate edge weight 4"),
        # The first offending edge in input order is the one reported.
        (3, [(0, 1), (0, 1), (1, 1), (0, 9)], False, "duplicate edge (0, 1)"),
    ],
)
def test_validator_names_the_offending_item(n, edges, weighted, message):
    with pytest.raises(GraphFormatError) as tuple_error:
        Graph(n, edges, weighted=weighted)
    assert str(tuple_error.value) == message
    columns = list(zip(*edges))
    with pytest.raises(GraphFormatError) as array_error:
        Graph.from_arrays(n, columns[0], columns[1], columns[2] if weighted else None)
    assert str(array_error.value) == message


def test_validator_empty_graph():
    for g in (Graph(0, []), Graph.from_arrays(0, [], [])):
        assert g.n == 0 and g.m == 0
        assert g.edges == () and g.adjacency() == [] and g.degrees() == []
    with pytest.raises(GraphFormatError):
        Graph(-1, [])
    # Every edge column is one-dimensional.
    for columns in (([[0], [1]], [[1], [2]]), ([0, 1], [1, 2], [[3], [4]])):
        with pytest.raises(GraphFormatError, match="1-D"):
            Graph.from_arrays(3, *columns)


def test_edges_keep_input_order_with_min_max_normalisation():
    g = Graph(5, [(4, 1), (0, 2), (3, 0)])
    assert g.edges == ((1, 4), (0, 2), (0, 3))
    assert g.src.tolist() == [1, 0, 0] and g.dst.tolist() == [4, 2, 3]
    same = Graph.from_arrays(5, [4, 0, 3], [1, 2, 0])
    assert same.edges == g.edges
    assert g.adjacency() == [[2, 3], [4], [0], [0], [1]]


def test_integer_weights_round_trip_as_python_ints():
    g = Graph(4, [(0, 1, 7), (3, 2, 1), (1, 2, 4)], weighted=True)
    assert g.weight.dtype == np.int64
    assert all(type(w) is int for _, _, w in g.edges)
    first = io.StringIO()
    write_graph(g, first)
    second = io.StringIO()
    write_graph(read_graph(io.StringIO(first.getvalue())), second)
    assert first.getvalue() == second.getvalue() == "4 3 w\n0 1 7\n2 3 1\n1 2 4\n"


def test_float_weights():
    g = Graph(3, [(0, 1, 0.5), (1, 2, 2)], weighted=True)
    assert g.weight.dtype == np.float64
    assert g.edges == ((0, 1, 0.5), (1, 2, 2.0))
    with pytest.raises(GraphFormatError, match="duplicate edge weight 0.5"):
        Graph.from_arrays(3, [0, 1], [1, 2], [0.5, 0.5])


def test_multigraph_admits_loops_and_parallels_in_both_constructors():
    for g in (
        Graph(2, [(1, 0), (0, 1), (1, 1)], multigraph=True),
        Graph.from_arrays(2, [1, 0, 1], [0, 1, 1], multigraph=True),
    ):
        assert g.edges == ((0, 1), (0, 1), (1, 1))
        assert g.adjacency() == [[1, 1], [0, 0, 1]]
        assert g.degrees() == [2, 3]


# sha256 of repr(list(edges)) for instances drawn before the generators
# were vectorised; equal digests mean the same RNG draws, the same edges in
# the same order and the same Python types. (50, 1225) is the complete
# graph, where the redraw loop runs more than once.
GENERATOR_DIGESTS = [
    (lambda: gen_random_graph(1000, 5000, 7, False), "57475a3b4f98459b150e0ca6ce6c3378a150ce540d5f89ec2d419728fd298364"),
    (lambda: gen_random_graph(2000, 6000, 5, True), "66e68dd514fa572ed30bad2134e674777d776d66b6acd1cef3fb619e4dbd7115"),
    (lambda: gen_random_graph(50, 1225, 2, True), "e18878fcaa6af60d720082bb03e76b85d1798c3aa8f959f9f5e5b7c446ed078c"),
    (lambda: gen_cycles(64, 2, 5), "3eeeface18184c5431302b74cbaaa21074cd3407badf463b303811cbc68f0172"),
    (lambda: gen_random_forest(500, 3, 9), "e16bcfe93058fbcecd73c2ab7c98aa0ddb6d614323f30b4967a3af10b2f93179"),
]


@pytest.mark.parametrize("make, digest", GENERATOR_DIGESTS)
def test_generators_draw_the_golden_graphs(make, digest):
    edges = make().edges
    assert hashlib.sha256(repr(list(edges)).encode()).hexdigest() == digest


# sha256 over the src, dst and weight bytes of gen_random_graph(n, m, seed,
# weighted) for seeds 1 and 7, unweighted then weighted, captured before the
# generator's batches were sorted in place; equal digests mean the same
# arrays and the same RNG state before the weight permutation. The sizes
# run from complete graphs through near saturation to sparse ones.
RANDOM_GRAPH_DIGESTS = {
    (3, 3): "265ce1f6e6843d78f5503194d18dab7299c32e012449b41ced1f727e1a4a2af5",
    (10, 45): "23dc6e4df4e578d3c0bcde236c9355b43bc902e91486b47abe1981fa05549bc0",
    (60, 1770): "8265d166ea6449b0610f800389cfed642543f9b7188c21729b9cff14191d7d66",
    (200, 19000): "fb8d67ed982b3714c5f8ca297669deba80af3545f0252b467511dc205f6c1a65",
    (1024, 4096): "2ecc7595098cdc56151e3e4ddb15725582b8c53cb4bc21e1d3ea8a96118c99f5",
    (8000, 24000): "5c8caacc0bc43ef116bf78c2d5f4d32bcbd3653d7a5a4ab9506cf4b96e28921c",
    (20000, 200000): "70fcde9ea42fac0b45268e9b141d6acd0e26749ad7e98366030c51ed6312269e",
}


@pytest.mark.parametrize("n, m", list(RANDOM_GRAPH_DIGESTS))
def test_gen_random_graph_draws_the_golden_arrays(n, m):
    digest = hashlib.sha256()
    for seed in (1, 7):
        for weighted in (False, True):
            g = gen_random_graph(n, m, seed, weighted)
            digest.update(g.src.tobytes())
            digest.update(g.dst.tobytes())
            if weighted:
                digest.update(g.weight.tobytes())
    assert digest.hexdigest() == RANDOM_GRAPH_DIGESTS[n, m]


@pytest.mark.parametrize("n", [2, 3, 10, 60])
def test_gen_random_graph_with_every_pair_is_complete(n):
    g = gen_random_graph(n, n * (n - 1) // 2, seed=7)
    # Every code 0..n(n-1)/2 - 1 once, in code order: sorted by (u, v).
    assert list(zip(g.src.tolist(), g.dst.tolist())) == [(v, u) for u in range(n) for v in range(u)]


def test_validator_names_a_duplicate_in_edges_sorted_by_larger_endpoint():
    # Sorted by (hi, lo): the duplicate (1, 3) is the fourth edge, and it
    # breaks the strict ascent that proves the other pairs distinct.
    src, dst = [0, 0, 1, 3, 2], [1, 3, 3, 1, 3]
    with pytest.raises(GraphFormatError) as error:
        Graph.from_arrays(4, src, dst)
    assert str(error.value) == "duplicate edge (1, 3)"
    g = Graph.from_arrays(4, src[:3] + src[4:], dst[:3] + dst[4:])
    assert g.src.tolist() == [0, 0, 1, 2] and g.dst.tolist() == [1, 3, 3, 3]
    with pytest.raises(GraphFormatError, match=r"^duplicate edge \(1, 3\)$"):
        Graph.from_arrays(4, [2, 1, 0, 3, 0], [3, 3, 1, 1, 3])


def test_validator_names_a_duplicate_in_edges_sorted_by_smaller_endpoint():
    # Sorted by (lo, hi), as simple_graph emits them: the duplicate (1, 2)
    # is the fourth edge, and it breaks the strict ascent in that order.
    src, dst = [0, 0, 1, 1, 2], [1, 2, 2, 2, 3]
    with pytest.raises(GraphFormatError) as error:
        Graph.from_arrays(4, src, dst)
    assert str(error.value) == "duplicate edge (1, 2)"
    g = Graph.from_arrays(4, src[:3] + src[4:], dst[:3] + dst[4:])
    assert g.src.tolist() == [0, 0, 1, 2] and g.dst.tolist() == [1, 2, 2, 3]
    # Ascending (lo, hi) pairs beyond the first ones checked still prove
    # nothing once a later pair repeats an earlier one out of order.
    lo = np.arange(200) // 4
    hi = lo + 1 + np.arange(200) % 4
    with pytest.raises(GraphFormatError, match=r"^duplicate edge \(0, 1\)$"):
        Graph.from_arrays(60, np.append(lo, 0), np.append(hi, 1))


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3", None])
def test_graph_rejects_a_vertex_count_that_is_not_an_integer(n):
    with pytest.raises(GraphFormatError, match="vertex count must be an integer"):
        Graph(n, [(0, 1)])
    with pytest.raises(GraphFormatError, match="vertex count must be an integer"):
        Graph.from_arrays(n, [], [])


def test_graph_takes_numpy_integer_vertex_counts():
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        g = Graph.from_arrays(n, [0, 1], [1, 2])
        assert g.n == 3 and type(g.n) is int and g.degrees() == [1, 2, 1]
        assert Graph(n, [(0, 2)]).n == 3


def test_builders_leave_their_inputs_alone():
    # simple_graph and contract_graph work in place on their temporaries;
    # none of them may be an input, and no output may share an input's
    # memory.
    rng = np.random.default_rng(5)
    n, m = 40, 300
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    weight = rng.permutation(m).astype(np.int64) + 1
    mapping = rng.integers(0, n // 3, n)
    inputs = {"src": src, "dst": dst, "weight": weight, "mapping": mapping}
    before = {name: array.copy() for name, array in inputs.items()}
    loose = src != dst
    plain = Graph.from_arrays(n, src[loose][:20], dst[loose][:20], multigraph=True)
    copied = Graph.from_arrays(n, plain.src, plain.dst, weight[:20], multigraph=True)
    multi = Graph.from_arrays(n, src, dst, weight, multigraph=True)
    built = {
        "from_arrays": (copied, [plain.src, plain.dst, weight]),
        "simple_graph": (simple_graph(n, src, dst, weight), [src, dst, weight]),
        "contract_graph": (contract_graph(multi, mapping), [multi.src, multi.dst, multi.weight, mapping]),
        "contract_graph unweighted": (contract_graph(plain, mapping), [plain.src, plain.dst, mapping]),
    }
    for name, array in inputs.items():
        assert np.array_equal(array, before[name]), name
    for name, (graph, sources) in built.items():
        assert graph.m > 0, name
        for column in (graph.src, graph.dst, graph.weight):
            if column is not None:
                assert not any(np.shares_memory(column, source) for source in sources), name


def test_results_are_int64_arrays():
    # Labels, merge maps and parent maps pass between stages as int64
    # arrays, with no list round trip.
    def is_int64(x):
        return isinstance(x, np.ndarray) and x.dtype == np.int64

    g = gen_random_graph(300, 600, seed=2)
    cfg = ModelConfig(n=g.n, m=g.m, seed=2)
    weighted = gen_random_graph(300, 600, seed=2, weighted=True)
    forest = gen_random_forest(200, 3, seed=2)
    forest_cfg = ModelConfig(n=forest.n, m=forest.m, seed=2)
    cycles = gen_cycles(64, 2, seed=2)
    labelings = {
        "connectivity": connectivity(g, cfg).labeling,
        "msf": msf(weighted, cfg).labeling,
        "spanning_forest": spanning_forest(g, cfg)[1],
        "forest_connectivity": forest_connectivity(forest, forest_cfg)[0],
        "cycle_conn": cycle_conn(cycles, ModelConfig(n=64, m=64, seed=2)).labeling,
        "uf_components": uf_components(g),
    }
    for name, labeling in labelings.items():
        assert is_int64(labeling.label), name
    assert is_int64(reduce_small_space(g, Simulator(cfg)).mapping)
    rooted = root_forest(forest, config=forest_cfg)
    assert is_int64(rooted.parent) and is_int64(rooted.roots)
    assert rooted.roots.tolist() == np.flatnonzero(rooted.parent == np.arange(forest.n)).tolist()
