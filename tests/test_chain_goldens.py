"""Golden digests of the chain layer: every round's (label, charged,
queries per machine, writes per machine) and every store generation's
(key, j, value) triples, plus the outputs, for two_cycle, cycle_conn,
shrink, rank_lists, forest_connectivity and root_forest, whose preorder
numbers and subtree sizes are among the outputs. A change to how the engine
runs its walks must leave all of them unchanged."""

import hashlib

import numpy as np
import pytest

from ampcsim.contraction import cycle_conn, rank_lists, shrink, two_cycle
from ampcsim.graphs import Graph, gen_cycles, gen_random_forest
from ampcsim.runtime import ModelConfig
from ampcsim.trees import forest_connectivity, root_forest

GOLDEN = {
    "two_cycle_a": "84d3794ade7983566e79123e",
    "two_cycle_b": "4e30d194ecb696b1a3bd6f50",
    "cycle_conn_a": "f7953d5c9087dd7a9185cb8b",
    "cycle_conn_b": "1eea276a173228ebe69a9939",
    "shrink_t3": "f395e808c1c0dbfcdc479e47",
    "shrink_forced": "dbcb3e1627c31803337b2621",
    "rank_lists_1": "2626c92d006b063115425efc",
    "rank_lists_2": "f749e396d0cac848ce619e96",
    "rank_lists_3": "c09b79c21cceb05b5b36ee7a",
    "rank_lists_4": "c4530ec908476b2cd13f54f0",
    "forest_conn_a": "c987728f0007f2547ba2cb47",
    "forest_conn_b": "7a1596bde0a19b6c692b061f",
    "root_forest_a": "7263d67752944c13f0aedba8",
    "root_forest_b": "1fed02b520817882602eee50",
}


def _store_triples(store):
    seen = {}
    out = []
    for key, value in store.items():
        seen[key] = seen.get(key, 0) + 1
        out.append((key, seen[key], value))
    return sorted(out, key=lambda t: (t[0], t[1]))


def _digest(sims, outputs):
    rounds = [[(m.label, m.charged, m.queries_per_machine, m.writes_per_machine) for m in s.metrics] for s in sims]
    stores = [[_store_triples(g) for g in s.stores] for s in sims]
    return hashlib.sha256(repr((rounds, stores, outputs)).encode()).hexdigest()[:24]


def cfg(n, seed, eps=0.5, m=None):
    return ModelConfig(n=n, m=n if m is None else m, epsilon=eps, seed=seed)


def cycles_with_extras():
    # Two cycles, a triangle, a doubled edge, a self-loop and two isolated
    # vertices.
    base = gen_cycles(150, 2, seed=5)
    edges = list(zip(base.src.tolist(), base.dst.tolist()))
    edges += [(150, 151), (151, 152), (150, 152), (153, 154), (153, 154), (155, 155)]
    return Graph(158, edges, multigraph=True)


def chains(n, k, seed):
    """A random permutation of 0..n-1 cut into k chains: successor array
    and heads."""
    perm = np.random.default_rng(seed).permutation(n)
    cuts = sorted(np.random.default_rng(seed + 100).choice(np.arange(1, n), size=k - 1, replace=False).tolist())
    succ = np.full(n, -1, dtype=np.int64)
    parts = np.split(perm, cuts)
    for part in parts:
        succ[part[:-1]] = part[1:]
    return succ, [int(part[0]) for part in parts]


def _two_cycle(name):
    g, c = {"two_cycle_a": (gen_cycles(400, 2, seed=3), cfg(400, 3)),
            "two_cycle_b": (gen_cycles(300, 1, seed=4), cfg(300, 4, eps=0.4))}[name]
    r = two_cycle(g, c)
    return _digest([r.simulator], (r.cycles, r.iterations, r.residual_vertices))


def _cycle_conn(name):
    kw = {"cycle_conn_a": {}, "cycle_conn_b": dict(shrink_iterations=0)}[name]
    r = cycle_conn(cycles_with_extras(), cfg(158, 6), **kw)
    return _digest([r.simulator], (r.labeling.label.tolist(), sorted(r.search_lengths.items()), r.residual_size))


def _shrink(name):
    if name == "shrink_t3":
        g, c, kw = gen_cycles(256, 2, seed=1), cfg(256, 1), {}
    else:
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        c, kw = cfg(6, 0), dict(sample_sets=[{0, 3, 4}, {0, 3}, {3}])
    r = shrink(g, delta=c.epsilon, t=3, config=c, **kw)
    levels = [sorted(zip(lv.key_array.tolist(), lv.columns[0].tolist())) for lv in r.levels]
    right, _, left = r.levels[-1].columns
    sample_map = sorted(zip(r.levels[-1].key_array.tolist(), zip(left.tolist(), right.tolist())))
    return _digest([r.simulator], (r.iteration_sizes, levels, sample_map, sorted(r.graph.edges)))


def _rank_lists(name):
    k = int(name[-1])
    succ, heads = chains(500, k, seed=k)
    r = rank_lists(succ, heads, cfg(500, k))
    return _digest([r.simulator], (r.ranks.tolist(), r.iterations))


def _forest_conn(name):
    g, seed = {"forest_conn_a": (gen_random_forest(300, 4, seed=2), 2),
               "forest_conn_b": (gen_random_forest(120, 30, seed=8), 8)}[name]
    labeling, r = forest_connectivity(g, cfg(g.n, seed, m=max(1, g.m)))
    return _digest([r.simulator], labeling.label.tolist())


def _root_forest(name):
    g, seed = {"root_forest_a": (gen_random_forest(300, 3, seed=9), 9),
               "root_forest_b": (gen_random_forest(200, 5, seed=10), 10)}[name]
    roots = None
    if name == "root_forest_b":
        # The highest vertex of every tree, not the default lowest.
        lab, _ = forest_connectivity(g, cfg(g.n, seed, m=max(1, g.m)))
        best = {}
        for v, label in enumerate(lab.label):
            best[label] = max(best.get(label, v), v)
        roots = sorted(best.values())
    rooted = root_forest(g, roots=roots, config=cfg(g.n, seed, m=max(1, g.m)))
    pn, sizes = rooted.preorder, rooted.sizes
    return _digest(rooted.simulators, (rooted.parent.tolist(), rooted.rank.tolist(), pn.tolist(), sizes.tolist()))


RUNS = {
    "two_cycle": _two_cycle,
    "cycle_conn": _cycle_conn,
    "shrink": _shrink,
    "rank_lists": _rank_lists,
    "forest_conn": _forest_conn,
    "root_forest": _root_forest,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chain_layer_rounds_and_stores_golden(name):
    run = next(fn for prefix, fn in RUNS.items() if name.startswith(prefix))
    assert run(name) == GOLDEN[name]
