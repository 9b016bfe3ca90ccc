"""Golden digests of the exploration layer: every round's (label, charged,
queries per machine, writes per machine), plus the outputs, for
increase_degree, msf_increase_degree, connectivity, msf, spanning_forest
and maximal_independent_set. The graphs are large enough that the
adaptive exploration rounds run on many machines. A change to how these
rounds store the graph or seal their generations must leave all of them
unchanged."""

import hashlib

import numpy as np
import pytest

from ampcsim.connectivity import connectivity, increase_degree, msf, msf_increase_degree, spanning_forest
from ampcsim.graphs import Graph, gen_random_graph
from ampcsim.harness import _edge_tuples, with_leader_retries
from ampcsim.mis import maximal_independent_set
from ampcsim.runtime import ModelConfig, Simulator

GOLDEN = {
    "increase_degree_sparse": "74b6ebe0feccb2f22b1dd5c4",
    "increase_degree_multigraph": "1134800b197e39218a142645",
    "msf_increase_degree_sparse": "648c1a7d19df050bd705b8d1",
    "msf_increase_degree_float": "676f2c315fcb1b5cd2343794",
    "connectivity_sparse": "1c19ea5458ad97391811d4ae",
    "connectivity_dense": "a6cd69793195b67d440d78e2",
    "msf_sparse": "645dc1cf57b00aa6c0061390",
    "msf_dense": "7e6689d675561a35a7030097",
    "spanning_forest_sparse": "e722356b411583355f14bc68",
    "mis_sparse": "ccb869e2bbc743295f489267",
}


def _digest(sim, outputs):
    rounds = [(m.label, m.charged, m.queries_per_machine, m.writes_per_machine) for m in sim.metrics]
    return hashlib.sha256(repr((rounds, outputs)).encode()).hexdigest()[:24]


def cfg(g, seed):
    return ModelConfig(n=g.n, m=g.m, epsilon=0.5, seed=seed)


def sparse(weighted=False):
    return gen_random_graph(2000, 6000, seed=7, weighted=weighted)


def dense(weighted=False):
    # m >= n ln(n)^2, so no vertex shrinking hides the exploration.
    return gen_random_graph(300, 10000, seed=8, weighted=weighted)


def float_weighted():
    g = gen_random_graph(2000, 6000, seed=9)
    weights = np.random.default_rng(9).permutation(g.m) / 7.0 + 0.25
    return Graph.from_arrays(g.n, g.src, g.dst, weights)


def multigraph():
    # Parallel edges and self-loops, which the adjacency slots must list
    # as Graph.adjacency does.
    g = gen_random_graph(400, 800, seed=5)
    src = np.concatenate((g.src, g.src[:100], np.arange(0, 400, 7)))
    dst = np.concatenate((g.dst, g.dst[:100], np.arange(0, 400, 7)))
    return Graph.from_arrays(g.n, src, dst, multigraph=True)


def _increase_degree(name):
    g = {"increase_degree_sparse": sparse, "increase_degree_multigraph": multigraph}[name]()
    c = cfg(g, 3)
    sim = Simulator(c)
    grown = increase_degree(g, 5, sim)
    return _digest(sim, (grown.src.tolist(), grown.dst.tolist()))


def _msf_increase_degree(name):
    g = {"msf_increase_degree_sparse": lambda: sparse(weighted=True),
         "msf_increase_degree_float": float_weighted}[name]()
    c = cfg(g, 4)
    sim = Simulator(c)
    centers, parents, members, weights = msf_increase_degree(g, 6, sim)
    # One (vertex, sorted members, chosen edges) entry per vertex, a vertex
    # that runs no Prim run included.
    runs = {v: [] for v in range(g.n)}
    for v, x, u, w in zip(centers.tolist(), parents.tolist(), members.tolist(), weights.tolist()):
        runs[v].append((x, u, w))
    return _digest(sim, [(v, sorted([v] + [u for _, u, _ in edges]), edges) for v, edges in runs.items()])


def _connectivity(name):
    g = {"connectivity_sparse": sparse, "connectivity_dense": dense}[name]()
    r = with_leader_retries(lambda s: connectivity(g, cfg(g, s)), 11)
    return _digest(r.simulator, (r.labeling.label.tolist(), r.iterations, r.schedule.history))


def _msf(name):
    g = {"msf_sparse": sparse, "msf_dense": dense}[name](weighted=True)
    r = with_leader_retries(lambda s: msf(g, cfg(g, s)), 12)
    return _digest(r.simulator, (sorted(_edge_tuples(g, r.forest)), r.iterations,
                                 [sorted(_edge_tuples(g, b)) for b in r.committed_per_iteration],
                                 r.labeling.label.tolist(), r.schedule.history))


def _spanning_forest(name):
    g = sparse()
    edges, labeling, r = with_leader_retries(lambda s: spanning_forest(g, cfg(g, s)), 13)
    return _digest(r.simulator, (sorted(_edge_tuples(g, edges)), labeling.label.tolist(), r.iterations))


def _mis(name):
    g = sparse()
    r = maximal_independent_set(g, cfg(g, 14))
    return _digest(r.simulator, (sorted(r.members), r.iterations, [sorted(q.items()) for q in r.q_per_iteration],
                                 r.max_recursion_depth))


RUNS = {
    "increase_degree": _increase_degree,
    "msf_increase_degree": _msf_increase_degree,
    "connectivity": _connectivity,
    "msf": _msf,
    "spanning_forest": _spanning_forest,
    "mis": _mis,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exploration_rounds_golden(name):
    run = RUNS[max((p for p in RUNS if name.startswith(p)), key=len)]
    assert run(name) == GOLDEN[name]
