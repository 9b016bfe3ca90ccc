"""Acceptance criteria.

One test per criterion; each prints an `ACCEPTANCE <k> ...: PASS/FAIL`
line (run pytest with -s to see them live) and enforces its stated
runtime limit. The budget criterion aggregates the violation counts of
every run the suite performs, so it is defined last; a session fixture
adds over 100 runs of its own, so it also holds in any order or alone.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from ampcsim.biconnectivity import bc_pipeline
from ampcsim.connectivity import reduce_small_space, shrink_vertices_step
from ampcsim.contraction import (
    cycle_conn,
    list_ranking,
    shrink_iteration_budget,
)
from ampcsim.graphs import ComponentLabeling, Graph, gen_cycles, gen_random_forest, gen_random_graph
from ampcsim.harness import DEFAULT_GRID, ExperimentSpec, contention_sim, run_experiment
from ampcsim.mis import (
    Permutation,
    iteration_budget,
    lfmis_oracle,
    maximal_independent_set,
    membership_query,
    sorted_adjacency,
)
from ampcsim.oracles import (
    compare_labelings,
    kruskal_msf,
    seq_dfs_tree,
    seq_list_rank,
    tarjan_bridges_aps,
    two_edge_component_oracle,
    uf_components,
)
from ampcsim.primitives import (
    contract_graph,
    mpc_dedup,
    mpc_filter,
    mpc_predecessor,
    mpc_prefix_sum,
    mpc_sort,
    rmq_build,
    rmq_query,
    rmq_query_max,
)
from ampcsim.runtime import ModelConfig
from ampcsim.trees import (
    SubtreeMinMax,
    forest_connectivity,
    preorder_and_sizes,
    root_forest,
)

_VIOLATIONS: list[tuple[str, int]] = []


def _criterion(num, name, limit, fn):
    t0 = time.perf_counter()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {num:>2} {name}: {status} ({elapsed:.1f}s)")
    if limit is not None:
        assert elapsed <= limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def _note_violations(label, *sims):
    total = sum(s.violation_count() for s in sims if s is not None)
    _VIOLATIONS.append((label, total))


def test_criterion_01_two_cycle_grid():
    def body():
        for n, eps, pieces in itertools.product(
            DEFAULT_GRID["n"], DEFAULT_GRID["epsilon"], (1, 2)
        ):
            cell_start = time.perf_counter()
            spec = ExperimentSpec(
                algorithm="two-cycle", n=n, epsilon=eps, pieces=pieces,
                trials=DEFAULT_GRID["seeds"], seed=n * 1000 + pieces,
            )
            report = run_experiment(spec)
            assert report.all_correct, f"cell n={n} eps={eps} pieces={pieces}"
            budget = shrink_iteration_budget(eps) + 1
            for record in report.records:
                assert record.detail["iterations"] <= budget
                assert record.detail["residual_vertices"] <= 8 * n**eps
            _VIOLATIONS.append((f"two-cycle-{n}-{eps}-{pieces}", report.summary["violations"]))
            cell_elapsed = time.perf_counter() - cell_start
            assert cell_elapsed <= 60.0, f"cell n={n} eps={eps} took {cell_elapsed:.1f}s"

    _criterion(1, "two-cycle correctness over the default grid", None, body)


def test_criterion_03_mis():
    def body():
        eps = 0.5
        rng = random.Random(31)
        for trial in range(100):
            n = rng.randint(50, 2000)
            m = rng.randint(0, min(10**4, n * (n - 1) // 2, 6 * n))
            g = gen_random_graph(n, m, seed=rng.randrange(1 << 30))
            cfg = ModelConfig.for_graph(n=n, m=max(1, m), epsilon=eps, seed=trial)
            res = maximal_independent_set(g, cfg)
            assert res.members == lfmis_oracle(g, res.permutation)
            adj = g.adjacency()
            for u, v in g.edges:
                assert not (u in res.members and v in res.members)
            for v in range(n):
                assert v in res.members or any(u in res.members for u in adj[v])
            assert res.iterations <= iteration_budget(eps) + 2
            _note_violations("mis", res.simulator)
        # Expected query volume under random orders on a fixed instance.
        g = gen_random_graph(500, 2000, seed=77)
        totals = []
        for perm_seed in range(50):
            perm = Permutation.random(g.n, seed=perm_seed)
            adj = sorted_adjacency(g, perm)
            totals.append(
                sum(membership_query(g, v, perm, adj)[1] for v in range(g.n))
            )
        mean = sum(totals) / len(totals)
        assert mean <= 1.25 * (g.m + g.n), f"mean query volume {mean}"

    _criterion(3, "greedy-order MIS equivalence and query volume", 120.0, body)


def test_criterion_04_connectivity():
    def body():
        spec = ExperimentSpec(
            algorithm="connectivity", n=10**4, m=10**5, epsilon=0.5,
            trials=100, seed=4, space_multiplier=1.0,
        )
        report = run_experiment(spec)
        assert report.all_correct
        for record in report.records:
            assert record.detail["iterations"] <= 12
        _VIOLATIONS.append(("connectivity", report.summary["violations"]))

    _criterion(4, "connectivity equals union-find on 100 instances", 180.0, body)


def test_criterion_05_msf():
    def body():
        spec = ExperimentSpec(
            algorithm="msf", n=5000, m=5 * 10**4, epsilon=0.5, trials=100, seed=5,
        )
        report = run_experiment(spec)
        assert report.all_correct  # includes the committed-subset check
        _VIOLATIONS.append(("msf", report.summary["violations"]))

    _criterion(5, "minimum spanning forest equals the sort-based oracle", 180.0, body)


def test_criterion_06_vertex_shrinking():
    def body():
        hits = 0
        for seed in range(100):
            g = gen_random_graph(2**13, 2**14, seed=seed)
            cfg = ModelConfig.for_graph(n=g.n, m=g.m, epsilon=0.5, seed=seed)
            # Step-by-step component preservation against the oracle.
            want = uf_components(g)
            current, mapping = g, list(range(g.n))
            red = reduce_small_space(g, cfg)
            for step in range(red.steps):
                from ampcsim.runtime import item_hash

                current, f = shrink_vertices_step(current, item_hash(cfg.seed, 0xD0, step))
                mapping = [f[rep] for rep in mapping]
                labels = uf_components(current).label
                pulled = ComponentLabeling([labels[mapping[v]] for v in range(g.n)])
                assert compare_labelings(pulled, want).match, f"seed {seed} step {step}"
            before = red.non_isolated_history[0]
            after = red.non_isolated_history[-1]
            if after * 4 <= before:
                hits += 1
        assert hits >= 90, f"only {hits}/100 seeds shrank by 4x"

    _criterion(6, "vertex shrinking preserves components and reduces 4x", None, body)


def test_criterion_07_list_ranking_and_tree_ops():
    def body():
        rng = random.Random(7)
        for trial in range(100):
            n = 2**13 if trial < 5 else rng.randint(64, 2**13)
            trees = rng.randint(1, 6)
            g = gen_random_forest(n, trees, seed=rng.randrange(1 << 30))
            cfg = ModelConfig.for_graph(n=n, m=max(1, g.m), epsilon=0.5, seed=trial)
            rooted = root_forest(g, config=cfg)
            pn, sizes = preorder_and_sizes(rooted)
            for root in rooted.forest.roots:
                parent, want_pn, want_sizes = seq_dfs_tree(g, root)
                members = [v for v in range(n) if rooted.tree_of[v] == root]
                got_pairs = {(v, rooted.forest.parent[v]) for v in members}
                want_pairs = {(v, parent[v]) for v in members}
                assert got_pairs == want_pairs
                for v in members:
                    assert pn[v] == want_pn[v] and sizes[v] == want_sizes[v]
            # Subtree min/max on sampled vertices.
            values = [rng.randint(-(10**6), 10**6) for _ in range(n)]
            smm = SubtreeMinMax(rooted, pn, sizes, values, values)
            children = {v: [] for v in range(n)}
            for v in range(n):
                p = rooted.forest.parent[v]
                if p != v:
                    children[p].append(v)
            sample = rng.sample(range(n), min(n, 32))
            for v, got in zip(sample, zip(*smm.query(sample))):
                stack, vals = [v], []
                while stack:
                    x = stack.pop()
                    vals.append(values[x])
                    stack.extend(children[x])
                assert got == (min(vals), max(vals))
            _note_violations("tree-ops", *rooted.simulators)
            # Plain list ranking against the sequential scan.
            if trial % 10 == 0:
                size = rng.randint(2, 2**13)
                order = list(range(size))
                rng.shuffle(order)
                succ = np.full(size, -1)
                succ[order[:-1]] = order[1:]
                lcfg = ModelConfig.for_graph(n=size, m=size, epsilon=0.5, seed=trial)
                ranked = list_ranking(succ, order[0], lcfg)
                assert np.array_equal(ranked.ranks, seq_list_rank(succ, order[0]))
                assert ranked.iterations <= shrink_iteration_budget(0.5) + 1
                _note_violations("list-rank", ranked.simulator)

    _criterion(7, "list ranking and tree annotations equal the oracles", 120.0, body)


def test_criterion_08_forest_and_cycle_connectivity():
    def body():
        rng = random.Random(8)
        for trial in range(100):
            n = rng.randint(32, 2**12)
            trees = rng.randint(1, 8)
            g = gen_random_forest(n, min(trees, n), seed=rng.randrange(1 << 30))
            cfg = ModelConfig.for_graph(n=n, m=max(1, g.m), epsilon=0.5, seed=trial)
            labeling, res = forest_connectivity(g, cfg)
            assert compare_labelings(labeling, uf_components(g)).match
            if res is not None:
                _note_violations("forest-conn", res.simulator)
        # Mean one-directional search length on a bare cycle. This
        # measurement deliberately skips the shrink phase, so the
        # priority-minimum vertex walks the whole cycle; the per-machine
        # budget guarantee only covers the real pipeline (searched cycles
        # already shrunk below machine space), so this instrumentation run
        # stays out of the budget roll-up.
        k = 2**12
        harmonic = sum(1.0 / i for i in range(1, k + 1))
        total = 0.0
        for seed in range(50):
            g = gen_cycles(k, 1, seed=seed)
            cfg = ModelConfig.for_graph(n=k, m=k, epsilon=0.5, seed=seed)
            res = cycle_conn(g, cfg, shrink_iterations=0)
            total += sum(res.search_lengths.values()) / k
        mean = total / 50
        assert mean <= 2 * harmonic, f"mean search length {mean:.2f}"
        # The full pipeline on the same cycles does respect budgets.
        for seed in range(5):
            g = gen_cycles(k, 1, seed=seed)
            cfg = ModelConfig.for_graph(n=k, m=k, epsilon=0.5, seed=seed)
            res = cycle_conn(g, cfg)
            assert compare_labelings(res.labeling, uf_components(g)).match
            _note_violations("cycle-conn", res.simulator)

    _criterion(8, "forest/cycle connectivity and search lengths", None, body)


def test_criterion_09_two_edge_connectivity():
    def body():
        rng = random.Random(9)
        for trial in range(200):
            n = rng.randint(2, 2000)
            m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
            g = gen_random_graph(n, m, seed=rng.randrange(1 << 30))
            cfg = ModelConfig.for_graph(n=n, m=max(1, m), epsilon=0.5, seed=trial)
            bc, got_bridges, got_aps, got_labels = bc_pipeline(g, cfg)
            want_bridges, want_aps = tarjan_bridges_aps(g)
            assert got_bridges == want_bridges, f"trial {trial}"
            assert got_aps == want_aps, f"trial {trial}"
            assert compare_labelings(got_labels, two_edge_component_oracle(g, want_bridges)).match
            _note_violations("2ecc", *bc.simulators)
        # Exhaustive: every connected graph on up to 6 labeled vertices.
        checked = 0
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                g = Graph(n, edges)
                if uf_components(g).component_count() != 1:
                    continue
                cfg = ModelConfig.for_graph(n=n, m=max(1, g.m), epsilon=0.5, seed=mask)
                bc, got_bridges, got_aps, got_labels = bc_pipeline(g, cfg)
                want_bridges, want_aps = tarjan_bridges_aps(g)
                assert got_bridges == want_bridges, f"n={n} edges={edges}"
                assert got_aps == want_aps, f"n={n} edges={edges}"
                assert compare_labelings(
                    got_labels, two_edge_component_oracle(g, want_bridges)
                ).match, f"n={n} edges={edges}"
                checked += 1
        assert checked > 26000  # all connected 6-vertex graphs and below

    _criterion(9, "bridges, articulation points, 2ECC equal the oracle", 300.0, body)


def test_criterion_10_contention():
    def body():
        bins, space = 256, 1024
        total = bins * space
        report = contention_sim(total, bins, "adversarial", trials=1000, seed=10)
        within = sum(1 for load in report.max_loads if load <= 4 * space)
        assert within >= 999, f"only {within}/1000 trials within 4S"

    _criterion(10, "adversarial contention stays within 4S", 30.0, body)


def test_criterion_11_primitive_suite():
    def body():
        rng = random.Random(11)
        eps = 0.5
        for _ in range(1000):
            xs = [rng.randint(-999, 999) for _ in range(rng.randint(0, 80))]
            assert mpc_sort(xs, epsilon=eps).value == sorted(xs)
        for _ in range(1000):
            xs = [rng.randint(-999, 999) for _ in range(rng.randint(0, 80))]
            assert mpc_filter(xs, lambda x: x % 3 == 0, epsilon=eps).value == [
                x for x in xs if x % 3 == 0
            ]
        for _ in range(1000):
            xs = [rng.randint(-99, 99) for _ in range(rng.randint(0, 60))]
            got = mpc_prefix_sum(xs, lambda a, b: a + b, 0, epsilon=eps).value
            acc = 0
            for x, prefix in got:
                assert prefix == acc
                acc += x
        for _ in range(1000):
            flags = [rng.randint(0, 1) for _ in range(rng.randint(0, 60))]
            got = mpc_predecessor(flags, epsilon=eps).value
            for i in range(len(flags)):
                want = next((j for j in range(i - 1, -1, -1) if flags[j]), None)
                assert got[i] == want
        for _ in range(1000):
            xs = [rng.randint(0, 30) for _ in range(rng.randint(0, 60))]
            assert sorted(mpc_dedup(xs, epsilon=eps).value) == sorted(set(xs))
        for _ in range(1000):
            arr = [rng.randint(-999, 999) for _ in range(rng.randint(1, 60))]
            idx = rmq_build(arr, epsilon=eps).value
            i = rng.randrange(len(arr))
            j = rng.randrange(i, len(arr))
            assert rmq_query(idx, i, j).value == min(arr[i : j + 1])
            assert rmq_query_max(idx, i, j).value == max(arr[i : j + 1])
        for _ in range(1000):
            n = rng.randint(1, 24)
            seen = set()
            for _ in range(rng.randint(0, 40)):
                u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if u != v:
                    seen.add((min(u, v), max(u, v)))
            g = Graph(n, sorted(seen))
            f = {v: rng.randrange(n) for v in range(n)}
            got = set(contract_graph(g, f).value.edges)
            want = {
                (min(f[u], f[v]), max(f[u], f[v]))
                for u, v in seen
                if f[u] != f[v]
            }
            assert got == want
        # One large case per primitive family.
        big = [rng.randint(-(10**6), 10**6) for _ in range(10**5)]
        assert mpc_sort(big, epsilon=eps).value == sorted(big)
        idx = rmq_build(big, epsilon=eps).value
        assert rmq_query(idx, 10, 99999).value == min(big[10:100000])

    _criterion(11, "primitive suite equals sequential oracles", None, body)


def test_criterion_12_determinism():
    def body(tmpdir="/tmp/ampcsim-determinism"):
        import os

        os.makedirs(tmpdir, exist_ok=True)
        for algorithm, kwargs in (
            ("two-cycle", dict(n=512, pieces=2)),
            ("connectivity", dict(n=300, m=900)),
        ):
            contents = []
            for run in range(2):
                out = os.path.join(tmpdir, f"{algorithm}-{run}.jsonl")
                spec = ExperimentSpec(
                    algorithm=algorithm, trials=5, seed=12, out=out, **kwargs
                )
                run_experiment(spec)
                with open(out, "rb") as fh:
                    contents.append(fh.read())
            assert contents[0] == contents[1]
            assert contents[0]

    _criterion(12, "re-runs produce byte-identical reports", None, body)


@pytest.fixture(scope="session")
def budget_runs():
    """Over 100 runs of their own, across every harness algorithm, recorded
    one per trial in the accumulator, so that the budget criterion is
    exercised whatever order the criteria run in, or when it runs alone."""
    for spec in (
        ExperimentSpec(algorithm="two-cycle", n=512, pieces=2, trials=12, seed=2),
        ExperimentSpec(algorithm="mis", n=256, m=700, trials=12, seed=2),
        ExperimentSpec(algorithm="connectivity", n=256, m=700, trials=12, seed=2),
        ExperimentSpec(algorithm="msf", n=256, m=700, trials=12, seed=2),
        ExperimentSpec(algorithm="spanning-forest", n=256, m=700, trials=12, seed=2),
        ExperimentSpec(algorithm="bridges", n=256, m=500, trials=12, seed=2),
        ExperimentSpec(algorithm="2ecc", n=256, m=500, trials=12, seed=2),
        ExperimentSpec(algorithm="list-rank", n=2048, trials=12, seed=2),
        ExperimentSpec(algorithm="forest-conn", n=2048, trees=3, trials=12, seed=2),
        ExperimentSpec(algorithm="tree-ops", n=512, trees=3, trials=12, seed=2),
    ):
        report = run_experiment(spec)
        assert report.all_correct, spec.algorithm
        _VIOLATIONS.extend((spec.algorithm, record.violations) for record in report.records)
    return _VIOLATIONS


def test_criterion_02_budget_property(budget_runs):
    def body():
        total = sum(count for _, count in _VIOLATIONS)
        offenders = [(label, c) for label, c in _VIOLATIONS if c]
        assert total == 0, f"budget violations: {offenders}"
        assert len(_VIOLATIONS) > 100  # the grid really was exercised

    _criterion(2, "per-machine query budgets hold everywhere", None, body)
