import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcsim.connectivity import (
    BudgetSchedule,
    _hook_to_leaders,
    _pointer_map,
    connectivity,
    increase_degree,
    msf,
    msf_increase_degree,
    reduce_small_space,
    shrink_vertices_step,
    spanning_forest,
)
from ampcsim.errors import LeaderContractionError
from ampcsim.graphs import Graph, gen_random_forest, gen_random_graph, resolve_pointers
from ampcsim.biconnectivity import bc_pipeline
from ampcsim.harness import _edge_tuples, with_leader_retries
from ampcsim.mis import maximal_independent_set
from ampcsim.oracles import compare_labelings, kruskal_msf, tarjan_bridges_aps, uf_components
from ampcsim.runtime import MachineContext, ModelConfig, Simulator, item_coins
from ampcsim.trees import SubtreeMinMax, root_forest


def config_for(g, seed=0, epsilon=0.5, **kw):
    return ModelConfig(n=g.n, m=max(g.m, 1), epsilon=epsilon, seed=seed, **kw)


def assert_edge_set(edges, m):
    """Sorted, duplicate-free int64 indices into an m-edge graph."""
    assert edges.dtype == np.int64
    assert (np.diff(edges) > 0).all()
    assert ((edges >= 0) & (edges < m)).all()


def dense_graph(n, m, seed):
    """m chosen >= n ln^2 n so connectivity runs its main loop directly."""
    g = gen_random_graph(n, m, seed=seed)
    assert g.m >= g.n * math.log(g.n) ** 2
    return g


def test_resolve_pointers_chains_and_cycles():
    # 5 -> 3 -> 1 <-> 2, plus 4 -> 4; identity elsewhere.
    hook = np.array([0, 2, 1, 1, 4, 3])
    assert resolve_pointers(hook).tolist() == [0, 1, 1, 1, 4, 1]
    # A longer pointer cycle resolves to its minimum id.
    cycle = np.arange(10)
    cycle[[1, 7, 4, 9]] = [7, 4, 9, 1]
    assert resolve_pointers(cycle).tolist() == [0, 1, 2, 3, 1, 5, 6, 1, 8, 1]


@st.composite
def functional_arrays(draw):
    """Random pointer arrays: each element points at the one before it (long
    tails), at itself (a fixed point) or anywhere (cycles), under a random
    relabeling."""
    n = draw(st.integers(0, 80))
    ptr = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from("tfa"), min_size=n, max_size=n))):
        if kind == "t" and i:
            ptr.append(i - 1)
        elif kind == "f":
            ptr.append(i)
        else:
            ptr.append(draw(st.integers(0, n - 1)))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    relabeled = np.empty(n, dtype=np.int64)
    relabeled[perm] = perm[np.array(ptr, dtype=np.int64)]
    return relabeled


@settings(max_examples=200)
@given(functional_arrays())
def test_resolve_pointers_matches_a_plain_walk(ptr):
    want = []
    for start in range(len(ptr)):
        path, seen, x = [], {}, start
        while x not in seen:
            seen[x] = len(path)
            path.append(x)
            x = int(ptr[x])
        want.append(min(path[seen[x]:]))
    assert resolve_pointers(ptr).tolist() == want


def test_hook_rule_branches_and_lowest_failing_vertex():
    config = ModelConfig(n=64, m=64, seed=5, leader_constant=0.5 / math.log(64))
    tag, d, limit = 0x1D, 1.0, 2
    ids = np.arange(64)
    lead = item_coins(config.seed, tag, ids) < config.leader_constant * math.log(config.n) / d
    (l0, l1), others = ids[lead][:2].tolist(), ids[~lead].tolist()
    a, b, n1, n2, n3, n4, e, f, n5, n6, n7, n8 = others[:12]

    def hooks(edges):
        heads = np.array([u for u, v in edges] + [v for u, v in edges])
        tails = np.array([v for u, v in edges] + [u for u, v in edges])
        vertices, hook = _hook_to_leaders(heads, tails, limit, Simulator(config), d, tag)
        return dict(zip(vertices.tolist(), vertices[hook].tolist()))

    got = hooks([(a, l0), (a, n1), (b, n2), (l1, n3), (l1, n4)])
    assert got == {
        a: l0,  # the lowest leader in reach
        l0: a, n1: a, b: n2, n2: b,  # exhausted: the lowest reached vertex
        l1: l1,  # no leader reached, not exhausted, leads itself
        n3: l1, n4: l1,
    }
    # Not exhausted, no leader reached and not a leader: the lowest such
    # vertex is named, whatever order the pairs come in.
    with pytest.raises(LeaderContractionError, match=f"^vertex {e} reached 2 >= 2 vertices and no leader$"):
        hooks([(f, n7), (f, n8), (e, n5), (e, n6)])


def test_increase_degree_path_becomes_clique():
    g = Graph(5, [(i, i + 1) for i in range(4)])
    out = increase_degree(g, 5, Simulator(config_for(g)))
    assert out.m == 10  # K5


def test_increase_degree_cycle_two_hop():
    n = 100
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    out = increase_degree(g, 4, Simulator(config_for(g)))
    adj = out.adjacency()
    for v in range(n):
        assert len(adj[v]) >= 4
        want = {(v + 1) % n, (v - 1) % n, (v + 2) % n, (v - 2) % n}
        assert want <= set(adj[v])


def test_increase_degree_d1_keeps_simple_graph_unchanged():
    g = gen_random_graph(30, 60, seed=1)
    out = increase_degree(g, 1, Simulator(config_for(g)))
    assert sorted(out.edges) == sorted(g.edges)


def test_increase_degree_query_budget():
    g = dense_graph(100, 3000, seed=2)
    cfg = config_for(g)
    from ampcsim.runtime import Simulator

    sim = Simulator(cfg)
    d = 4
    increase_degree(g, d, sim)
    bfs_round = [m for m in sim.metrics if not m.charged][-1]
    assert sum(bfs_round.queries_per_machine) <= g.n * d * d


def test_connectivity_edgeless_and_single_edge():
    g0 = Graph(5, [])
    res = connectivity(g0, config_for(g0))
    assert res.labeling.component_count() == 5
    g1 = Graph(4, [(1, 3)])
    res = connectivity(g1, config_for(g1))
    assert res.labeling.same_component(1, 3)
    assert res.labeling.component_count() == 3


def test_connectivity_dense_route_matches_oracle():
    for seed in range(6):
        g = dense_graph(80, 2000, seed=seed)
        res = connectivity(g, config_for(g, seed=seed))
        assert compare_labelings(res.labeling, uf_components(g)).match
        assert res.reduction is None
        assert res.simulator.violation_count() == 0


def test_connectivity_sparse_route_matches_oracle():
    for seed in range(8):
        g = gen_random_graph(400, 700, seed=seed)
        res = connectivity(g, config_for(g, seed=seed))
        assert compare_labelings(res.labeling, uf_components(g)).match
        assert res.reduction is not None


def test_connectivity_forest_input():
    g = gen_random_forest(300, 5, seed=3)
    res = connectivity(g, config_for(g, seed=3))
    assert compare_labelings(res.labeling, uf_components(g)).match


def test_budget_schedule_law():
    cfg = ModelConfig(n=10**4, m=10**5, epsilon=0.5, seed=0)
    sched = BudgetSchedule.start(10**4, cfg)
    cap = float(math.floor((10**4) ** (0.5 / 3.0)))
    assert sched.cap == cap
    d = sched.d
    for _ in range(6):
        sched.advance()
        d = min(d**1.4, cap)
        assert sched.history[-1] == d
        assert sched.d <= cap


def test_leader_failure_raises_rare_event():
    # Force an empty leader set: leader_constant ~ 0 makes p ~ 0, and the
    # 60-vertex clique has degree >= d, so hooking must fail.
    g = gen_random_graph(60, 1770, seed=1)  # complete graph
    cfg = config_for(g, leader_constant=1e-12)
    with pytest.raises(LeaderContractionError):
        connectivity(g, cfg)


def test_shrink_vertices_single_edge_merge_frequency():
    g = Graph(2, [(0, 1)])
    merges = 0
    for seed in range(300):
        _, mapping = shrink_vertices_step(g, seed)
        assert mapping[0] == 0
        if mapping[1] == 0:
            merges += 1
        else:
            assert mapping[1] == 1
    assert 0.25 * 300 <= merges <= 0.42 * 300


def test_shrink_vertices_star_collapses():
    # Star with center 0: leaves all point at 0, 0 points at leaf 1; the
    # center has at least two incoming arrows, so lines 3-4 merge the star.
    g = Graph(6, [(0, i) for i in range(1, 6)])
    out, mapping = shrink_vertices_step(g, seed=11)
    assert all(mapping[v] == 0 for v in range(6))
    assert out.m == 0


def _reference_pointer_map(n, us, vs, seed):
    """The six-line merge round as the procedure states it: every array
    over the n vertices, every coin drawn."""
    out = np.full(n, n, dtype=np.int64)
    np.minimum.at(out, us, vs)
    np.minimum.at(out, vs, us)
    active = out < n
    safe_out = np.where(active, out, 0)
    idx = np.arange(n)
    has_out = active & ~(active & (out[safe_out] == idx) & active[safe_out] & (idx < out))
    indeg = np.bincount(out[has_out], minlength=n + 1)[:n]
    has_out &= indeg < 2
    centers = np.bincount(out[has_out], minlength=n + 1)[:n] >= 2
    absorbed = has_out & centers[np.where(has_out, out, 0)]
    has_out &= ~(has_out & absorbed[np.where(has_out, out, 0)]) & ~absorbed
    has_out &= item_coins(seed, 0xE5, np.arange(n, dtype=np.uint64)) >= 2.0 / 3.0
    tails = np.flatnonzero(has_out)
    heads = out[tails]
    deg = np.bincount(tails, minlength=n) + np.bincount(heads, minlength=n)
    lonely = (deg[tails] == 1) & (deg[heads] == 1)
    mapping = np.arange(n)
    merged = np.concatenate((np.flatnonzero(absorbed), tails[lonely]))
    mapping[merged] = out[merged]
    return mapping


def test_pointer_map_matches_the_reference():
    rng = np.random.default_rng(8)
    for trial in range(300):
        n = int(rng.integers(1, 120)) if trial < 290 else int(rng.integers(1000, 20000))
        m = int(rng.integers(0, 4 * n + 1))
        us, vs = rng.integers(0, n, m), rng.integers(0, n, m)
        if trial % 2:
            us, vs = np.minimum(us, vs), np.maximum(us, vs)
        seed = int(rng.integers(0, 2**63))
        got = _pointer_map(n, us, vs, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_pointer_map(n, us, vs, seed)), trial


def test_shrink_vertices_preserves_components():
    for seed in range(10):
        g = gen_random_graph(200, 300, seed=seed)
        out, mapping = shrink_vertices_step(g, seed=seed)
        assert out.m <= g.m
        want = uf_components(g)
        got = uf_components(out)
        for u, v in ((0, 1), (5, 9), (100, 150)):
            assert want.same_component(u, v) == got.same_component(
                mapping[u], mapping[v]
            )


def test_reduce_small_space_forest_preserves_components():
    g = gen_random_forest(500, 4, seed=5)
    cfg = config_for(g, seed=5)
    red = reduce_small_space(g, Simulator(cfg))
    assert red.graph.m <= g.m
    want = uf_components(g).canonical()
    # Components of the reduced graph, pulled back through the mapping.
    reduced_labels = uf_components(red.graph).label
    pulled = [reduced_labels[red.mapping[v]] for v in range(g.n)]
    from ampcsim.graphs import ComponentLabeling

    assert ComponentLabeling(pulled).canonical() == want


def test_reduce_small_space_empty_graph():
    g = Graph(10, [])
    red = reduce_small_space(g, Simulator(config_for(g)))
    assert red.steps == 0
    assert red.mapping.tolist() == list(range(10))


def test_reduce_small_space_shrinks_vertex_count():
    hits = 0
    for seed in range(20):
        g = gen_random_graph(2**11, 2**12, seed=seed)
        red = reduce_small_space(g, Simulator(config_for(g, seed=seed)))
        before = red.non_isolated_history[0]
        after = red.non_isolated_history[-1]
        if after * 4 <= before:
            hits += 1
    assert hits >= 18


def test_msf_increase_degree_triangle():
    g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)], weighted=True)
    centers, _, members, weights = msf_increase_degree(g, 3, Simulator(config_for(g)))
    for v in range(3):
        assert set(weights[centers == v].tolist()) == {1, 2}
        assert {v, *members[centers == v].tolist()} == {0, 1, 2}


def test_msf_increase_degree_d1_degenerate():
    g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)], weighted=True)
    centers, parents, members, weights = msf_increase_degree(g, 1, Simulator(config_for(g)))
    for v in range(3):
        assert {v, *members[centers == v].tolist()} == {v}
        assert parents[centers == v].tolist() == [] and weights[centers == v].tolist() == []


def test_msf_increase_degree_edges_subset_of_msf():
    for seed in range(5):
        g = gen_random_graph(60, 300, seed=seed, weighted=True)
        want = kruskal_msf(g)
        _, parents, members, weights = msf_increase_degree(g, 5, Simulator(config_for(g, seed=seed)))
        for x, u, w in zip(parents.tolist(), members.tolist(), weights.tolist()):
            assert (min(x, u), max(x, u), w) in {
                (min(a, b), max(a, b), w2) for a, b, w2 in want
            }


def test_msf_tree_input_returns_all_edges():
    g = Graph(5, [(0, 1, 3), (1, 2, 1), (2, 3, 9), (3, 4, 4)], weighted=True)
    res = msf(g, config_for(g))
    assert res.forest.tolist() == list(range(g.m))


def test_msf_triangle():
    g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)], weighted=True)
    res = msf(g, config_for(g))
    assert g.weight[res.forest].tolist() == [1, 2]


def _light_loop_multigraph(seed):
    """A weighted multigraph with parallel copies whose self-loops are its
    lightest edges, so each looped vertex's lightest incident edge is a loop."""
    g = gen_random_graph(60, 150, seed=seed)
    rng = np.random.default_rng(300 + seed)
    repeat = rng.integers(0, g.m, 80)
    loops = rng.integers(0, g.n, 20)
    src = np.concatenate((loops, g.src, g.src[repeat]))
    dst = np.concatenate((loops, g.dst, g.dst[repeat]))
    weights = np.concatenate((rng.permutation(20), 20 + rng.permutation(len(src) - 20))) + 1
    return Graph.from_arrays(g.n, src, dst, weights, multigraph=True)


def test_msf_matches_kruskal_randomized():
    # Every input is sparse, so Borůvka steps run; on the multigraphs they
    # must merge along each vertex's lightest edge that is not a loop.
    graphs = [gen_random_graph(300, 900, seed=seed, weighted=True) for seed in range(10)]
    graphs += [_light_loop_multigraph(seed) for seed in range(6)]
    for seed, g in enumerate(graphs):
        res = msf(g, config_for(g, seed=seed))
        want = kruskal_msf(g)
        assert any(m.label == "boruvka-shrink" for m in res.simulator.metrics)
        assert _edge_tuples(g, res.forest) == want
        for batch in res.committed_per_iteration:
            assert _edge_tuples(g, batch) <= want
        assert compare_labelings(res.labeling, uf_components(g)).match


def test_msf_dense_route():
    for seed in range(3):
        g = gen_random_graph(80, 2500, seed=seed, weighted=True)
        res = msf(g, config_for(g, seed=seed))
        assert _edge_tuples(g, res.forest) == kruskal_msf(g)


def test_spanning_forest_counts():
    g = gen_random_graph(100, 300, seed=2)
    comps = uf_components(g).component_count()
    edges, labeling, _ = spanning_forest(g, config_for(g, seed=2))
    assert len(edges) == g.n - comps
    assert compare_labelings(labeling, uf_components(g)).match
    forest = Graph.from_arrays(g.n, g.src[edges], g.dst[edges])
    assert uf_components(forest).component_count() == comps


def test_spanning_forest_is_acyclic_subgraph():
    g = gen_random_graph(50, 200, seed=8)
    edges, _, _ = spanning_forest(g, config_for(g, seed=8))
    assert_edge_set(edges, g.m)
    # Acyclic: edge count equals vertex count minus component count.
    forest = Graph.from_arrays(g.n, g.src[edges], g.dst[edges])
    assert forest.m == g.n - uf_components(forest).component_count()


def test_connectivity_and_msf_never_build_edge_tuples(monkeypatch):
    # Both phases run: the charged shrink, then exploration and contraction.
    g = gen_random_graph(2000, 6000, seed=7)
    w = gen_random_graph(2000, 6000, seed=7, weighted=True)

    def refuse(graph):
        raise AssertionError("the tuple view of the edges was built")

    monkeypatch.setattr(Graph, "edges", property(refuse))
    conn = connectivity(g, config_for(g, seed=7))
    tree = msf(w, config_for(w, seed=7))
    span_edges, _, span = spanning_forest(g, config_for(g, seed=7))
    assert conn.reduction.steps > 0 and conn.iterations > 0
    assert tree.iterations > 0 and span.iterations > 0
    monkeypatch.undo()
    # Edge sets come out as sorted input edge indices, batch by batch too.
    for edges in (tree.forest, *tree.committed_per_iteration, span_edges):
        assert_edge_set(edges, g.m)
    assert len(tree.committed_per_iteration) > 1
    assert compare_labelings(conn.labeling, uf_components(g)).match
    assert _edge_tuples(w, tree.forest) == kruskal_msf(w)


def test_msf_on_float_weights_matches_kruskal():
    # Store records carry weight ranks; everything returned carries the
    # graph's own float weights.
    for seed, (n, m) in enumerate([(300, 900), (120, 5000)]):
        g = gen_random_graph(n, m, seed=seed)
        weights = np.random.default_rng(seed).permutation(g.m) / 3.0 - 17.5
        fg = Graph.from_arrays(g.n, g.src, g.dst, weights)
        res = msf(fg, config_for(fg, seed=seed))
        assert res.iterations > 0
        assert _edge_tuples(fg, res.forest) == kruskal_msf(fg)
        edge_weight = {(u, v): w for u, v, w in zip(fg.src.tolist(), fg.dst.tolist(), weights.tolist())}
        _, parents, members, chosen_weights = msf_increase_degree(fg, 6, Simulator(config_for(fg, seed=seed)))
        chosen = list(zip(parents.tolist(), members.tolist(), chosen_weights.tolist()))
        assert chosen and all(type(w) is float for _, _, w in chosen)
        assert all(edge_weight[min(x, u), max(x, u)] == w for x, u, w in chosen)


def test_explorations_run_no_machine_programs(monkeypatch):
    # BFS and Prim run as lockstep batch rounds. The dense graph takes no
    # vertex shrink, so its exploration rounds carry all the work.
    def refuse(*args, **kwargs):
        raise AssertionError("a per-machine program ran")

    shapes = [(300, 10000, 8), (2000, 6000, 7)]
    graphs = [(gen_random_graph(n, m, seed=s), gen_random_graph(n, m, seed=s, weighted=True)) for n, m, s in shapes]
    small = gen_random_graph(300, 900, seed=3)
    monkeypatch.setattr(MachineContext, "__init__", refuse)
    runs = [
        (
            with_leader_retries(lambda s: connectivity(g, config_for(g, seed=s)), 11),
            with_leader_retries(lambda s: msf(w, config_for(w, seed=s)), 12),
            with_leader_retries(lambda s: spanning_forest(g, config_for(g, seed=s)), 13),
        )
        for g, w in graphs
    ]
    _, got_bridges, got_aps, _ = bc_pipeline(small, config_for(small, seed=3))
    monkeypatch.undo()
    assert runs[0][0].reduction is None and runs[0][0].iterations > 0
    for (g, w), (conn, tree, (_, span_labels, span)) in zip(graphs, runs):
        assert conn.iterations > 0 and tree.iterations > 0 and span.iterations > 0
        assert compare_labelings(conn.labeling, uf_components(g)).match
        assert _edge_tuples(w, tree.forest) == kruskal_msf(w)
        assert compare_labelings(span_labels, uf_components(g)).match
    assert (_edge_tuples(small, got_bridges), set(got_aps.tolist())) == tarjan_bridges_aps(small)


def _reference_bfs(adj, v, d, cap):
    """The first d vertices a plain BFS from v visits, reading one adjacency
    slot per query and stopping after ``cap`` reads; returns them and the
    read count."""
    visited, found, queue, head, reads = {v}, [], [v], 0, 0
    while head < len(queue) and len(found) < d and reads < cap:
        x = queue[head]
        head += 1
        for u in adj[x]:
            reads += 1
            if u not in visited:
                visited.add(u)
                found.append(u)
                queue.append(u)
            if len(found) >= d or reads >= cap:
                break
    return found, reads


def _reference_prim(wadj, v, d, cap):
    """A heapq Prim run from v over weight-sorted ``(weight, neighbor)``
    lists, reading one slot per query: a member's next slot is pushed when
    its current one pops. Stops at d members or ``cap`` reads; returns the
    chosen ``(parent, member, weight)`` edges in order and the read count."""
    members, chosen, reads = {v}, [], 1
    heap = [(wadj[v][0][0], v, 0)]
    while heap and len(members) < d and reads < cap:
        w, x, i = heapq.heappop(heap)
        if i + 1 < len(wadj[x]) and reads < cap:
            reads += 1
            heapq.heappush(heap, (wadj[x][i + 1][0], x, i + 1))
        u = wadj[x][i][1]
        if u in members:
            continue
        members.add(u)
        chosen.append((x, u, w))
        if len(members) >= d or reads >= cap:
            break
        reads += 1
        heapq.heappush(heap, (wadj[u][0][0], u, 0))
    return chosen, reads


def _equivalence_graphs():
    """Small random graphs with distinct weights: simple ones, and
    multigraphs whose parallel edges and self-loops waste reads."""
    for seed in range(4):
        g = gen_random_graph(40, 90, seed=seed)
        yield Graph.from_arrays(g.n, g.src, g.dst, np.random.default_rng(seed).permutation(g.m) + 1)
        rng = np.random.default_rng(100 + seed)
        repeat = rng.integers(0, g.m, 60)
        loops = rng.integers(0, g.n, 12)
        src = np.concatenate((g.src, g.src[repeat], loops))
        dst = np.concatenate((g.dst, g.dst[repeat], loops))
        weights = rng.permutation(len(src)) / 4.0 + 0.5
        yield Graph.from_arrays(g.n, src, dst, weights, multigraph=True)


def test_lockstep_explorations_match_per_vertex_references():
    capped = {"bfs": 0, "prim": 0}
    for case, g in enumerate(_equivalence_graphs()):
        adj = [[] for _ in range(g.n)]
        wadj = [[] for _ in range(g.n)]
        for a, b, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()):
            # Graph.adjacency lists a self-loop once; the weight-sorted
            # slots list every edge from both ends, a self-loop twice.
            adj[a].append(b)
            if a != b:
                adj[b].append(a)
            wadj[a].append((w, b))
            wadj[b].append((w, a))
        adj, wadj = [sorted(a) for a in adj], [sorted(a) for a in wadj]
        starts = [v for v in range(g.n) if adj[v]]
        for d in (1, 2, 3, 5):
            cfg = config_for(g, seed=case)
            # Walkers run in round 2, after the adjacency round.
            ahead = Simulator(cfg)
            with ahead.batch_round():
                pass
            machines = ahead.machines(np.array(starts)).tolist()

            sim = Simulator(cfg)
            grown = increase_degree(g, d, sim)
            want_pairs, want_reads = set(), np.zeros(cfg.machines_P, dtype=np.int64)
            for v, machine in zip(starts, machines):
                found, reads = _reference_bfs(adj, v, d, d * d)
                want_pairs |= {(min(v, u), max(v, u)) for u in found}
                want_reads[machine] += reads
                capped["bfs"] += len(_reference_bfs(adj, v, d, math.inf)[0]) > len(found)
            simple = {(a, b) for a, b in zip(g.src.tolist(), g.dst.tolist()) if a != b}
            simple = {(min(a, b), max(a, b)) for a, b in simple}
            assert set(zip(grown.src.tolist(), grown.dst.tolist())) == simple | want_pairs
            assert sim.metrics[-1].queries_per_machine == want_reads.tolist()

            sim = Simulator(cfg)
            centers, parents, members, weights = msf_increase_degree(g, d, sim)
            got = list(zip(centers.tolist(), parents.tolist(), members.tolist(), weights.tolist()))
            want, want_reads = [], np.zeros(cfg.machines_P, dtype=np.int64)
            for v, machine in zip(starts, machines):
                chosen, reads = _reference_prim(wadj, v, d, d * d)
                want += [(v, *edge) for edge in chosen]
                want_reads[machine] += reads
                capped["prim"] += len(_reference_prim(wadj, v, d, math.inf)[0]) > len(chosen)
            assert got == want
            assert sim.metrics[-1].queries_per_machine == want_reads.tolist()
    # The d*d read cap, not the visit budget, ended some walks early.
    assert capped["bfs"] > 0 and capped["prim"] > 0


def _charges(sim, label):
    """The (rounds, communication) of every charged round under ``label``."""
    metrics = [m for m in sim.metrics if m.charged and m.label == label]
    return len(metrics), sum(m.total_communication for m in metrics)


@pytest.mark.parametrize("epsilon", [0.4, 0.5, 0.66])
def test_bulk_charges_at_their_call_sites(epsilon):
    # Each bulk-synchronous sort, scan or build is charged
    # config.bulk_rounds = ceil(1/epsilon) rounds where it is computed.
    bulk = math.ceil(1 / epsilon)
    weighted = gen_random_graph(400, 600, seed=5, weighted=True)
    cfg = config_for(weighted, seed=5, epsilon=epsilon)
    assert cfg.bulk_rounds == bulk
    forest = msf(weighted, cfg)
    assert _charges(forest.simulator, "weight-sort") == (bulk, 2 * weighted.m)
    # MsfResult keeps no step count: the shrink steps' rounds come in
    # whole charges of bulk rounds each.
    shrink_rounds = _charges(forest.simulator, "boruvka-shrink")[0]
    assert shrink_rounds > 0 and shrink_rounds % bulk == 0

    g = gen_random_graph(400, 600, seed=6)
    conn = with_leader_retries(lambda s: connectivity(g, config_for(g, seed=s, epsilon=epsilon)), 6)
    assert conn.reduction.steps >= 1
    assert _charges(conn.simulator, "vertex-shrink")[0] == bulk * conn.reduction.steps

    mis = maximal_independent_set(g, config_for(g, seed=6, epsilon=epsilon))
    assert _charges(mis.simulator, "adjacency-sort") == (bulk, 2 * g.m)

    tree = gen_random_forest(300, 4, seed=7)
    rooted = root_forest(tree, config_for(tree, seed=7, epsilon=epsilon))
    SubtreeMinMax(rooted, range(tree.n), range(tree.n))
    assert _charges(rooted.simulators[-1], "rmq-build") == (bulk, tree.n)
