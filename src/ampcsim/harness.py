"""Experiment harness: seeded trial execution with oracle verification,
JSON-line records, CSV summaries, and the weighted balls-in-bins
contention simulation.

Reports are deterministic: re-running a spec (same seed included)
reproduces the JSON lines byte for byte. Wall-clock times therefore live
only in the CSV summary, never in the JSON records.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional, Sequence

import numpy as np

from . import biconnectivity as bc_mod
from . import connectivity as conn_mod
from . import contraction as contr_mod
from . import mis as mis_mod
from . import trees as trees_mod
from .errors import LeaderContractionError
from .graphs import (
    Graph,
    _ascending,
    _rng,
    check_cycles,
    check_forest,
    check_random_graph,
    gen_cycles,
    gen_random_forest,
    gen_random_graph,
)
from .oracles import (
    compare_labelings,
    kruskal_msf,
    seq_dfs_tree,
    seq_list_rank,
    tarjan_bridges_aps,
    two_edge_component_oracle,
    uf_components,
)
from .runtime import ModelConfig, Simulator, item_hash

ALGORITHMS = (
    "two-cycle",
    "mis",
    "connectivity",
    "msf",
    "spanning-forest",
    "forest-conn",
    "list-rank",
    "tree-ops",
    "bridges",
    "2ecc",
)

# The algorithms whose instance is a random graph with m edges; the others
# take no edge count.
GRAPH_ALGORITHMS = ("mis", "connectivity", "msf", "spanning-forest", "bridges", "2ecc")

DEFAULT_GRID = {
    "n": (2**10, 2**12, 2**14),
    "epsilon": (0.4, 0.5, 0.66),
    "seeds": 100,
}


@dataclass(frozen=True)
class ExperimentSpec:
    algorithm: str
    n: int = 1024
    m: int = 0
    epsilon: float = 0.5
    seed: int = 0
    trials: int = 1
    pieces: int = 2
    trees: int = 1
    space_multiplier: float = 1.0
    budget_slack: float = 16.0
    strict_budget: bool = False
    out: Optional[str] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if self.n < 1:
            raise ValueError("n must be positive")
        # The model parameters pass ModelConfig's checks before any trial.
        self.config(trial_seed(self.seed, 0))
        if self.m and self.algorithm not in GRAPH_ALGORITHMS:
            raise ValueError(f"{self.algorithm} takes no edge count m, got m={self.m}")
        # The instance generators' own rules, so that no trial starts on
        # parameters its generator refuses.
        if self.algorithm == "two-cycle":
            check_cycles(self.n, self.pieces)
        elif self.algorithm in ("forest-conn", "tree-ops"):
            check_forest(self.n, self.trees)
        elif self.algorithm in GRAPH_ALGORITHMS:
            check_random_graph(self.n, self.m)

    def config(self, seed: int, n: Optional[int] = None, m: Optional[int] = None) -> ModelConfig:
        return ModelConfig(
            n=self.n if n is None else n,
            m=max(1, self.m if m is None else m),
            epsilon=self.epsilon,
            seed=seed,
            space_multiplier=self.space_multiplier,
            budget_slack=self.budget_slack,
            strict_budget=self.strict_budget,
        )


def trial_seed(spec_seed: int, trial: int) -> int:
    return item_hash(spec_seed, 0x7101, trial) >> 1


def with_leader_retries(fn: Callable[[int], object], seed: int, attempts: int = 5):
    """Retry a contraction run under fresh seeds when leader sampling
    fails (the rare event where a high-degree vertex sees no leader)."""
    for attempt in range(attempts):
        try:
            return fn(seed if attempt == 0 else item_hash(seed, 0xA77, attempt) >> 1)
        except LeaderContractionError:
            if attempt == attempts - 1:
                raise
    raise AssertionError("unreachable")


def _sim_stats(sims: Sequence[Simulator]) -> tuple[int, int, int, int]:
    sims = [s for s in sims if s is not None]
    rounds = sum(s.total_rounds() for s in sims)
    max_q = max((s.max_queries_per_machine() for s in sims), default=0)
    comm = sum(s.total_communication() for s in sims)
    violations = sum(s.violation_count() for s in sims)
    return rounds, max_q, comm, violations


def _run_two_cycle(spec: ExperimentSpec, seed: int):
    g = gen_cycles(spec.n, spec.pieces, seed)
    res = contr_mod.two_cycle(g, spec.config(seed, m=spec.n))
    correct = res.cycles == spec.pieces
    detail = {
        "iterations": res.iterations,
        "residual_vertices": res.residual_vertices,
    }
    return correct, [res.simulator], detail


def _run_mis(spec: ExperimentSpec, seed: int):
    g = gen_random_graph(spec.n, spec.m, seed)
    cfg = spec.config(seed)
    res = mis_mod.maximal_independent_set(g, cfg)
    want = mis_mod.lfmis_oracle(g, res.permutation)
    member = np.zeros(g.n, dtype=bool)
    member[list(res.members)] = True
    independent = not (member[g.src] & member[g.dst]).any()
    # Maximal: every vertex is a member or has a member neighbor.
    covered = member.copy()
    covered[g.src[member[g.dst]]] = True
    covered[g.dst[member[g.src]]] = True
    correct = res.members == want and independent and bool(covered.all())
    detail = {
        "iterations": res.iterations,
        "max_recursion_depth": res.max_recursion_depth,
    }
    return correct, [res.simulator], detail


def _run_connectivity(spec: ExperimentSpec, seed: int):
    g = gen_random_graph(spec.n, spec.m, seed)
    res = with_leader_retries(lambda s: conn_mod.connectivity(g, spec.config(s)), seed)
    correct = compare_labelings(res.labeling, uf_components(g)).match
    return correct, [res.simulator], {"iterations": res.iterations}


def _edge_tuples(g: Graph, edges: np.ndarray) -> set[tuple]:
    """An edge index set in the oracles' form, ``(u, v[, w])`` with u <= v."""
    columns = (g.src, g.dst) if g.weight is None else (g.src, g.dst, g.weight)
    return set(zip(*(column[edges].tolist() for column in columns)))


def _run_msf(spec: ExperimentSpec, seed: int):
    g = gen_random_graph(spec.n, spec.m, seed, weighted=True)
    res = with_leader_retries(lambda s: conn_mod.msf(g, spec.config(s)), seed)
    # Weights are distinct, so an edge set equal to the oracle's names
    # exactly its edges, and a batch inside it commits only MSF edges.
    correct = _edge_tuples(g, res.forest) == kruskal_msf(g) and all(
        np.isin(batch, res.forest).all() for batch in res.committed_per_iteration
    )
    return correct, [res.simulator], {"iterations": res.iterations}


def _run_spanning_forest(spec: ExperimentSpec, seed: int):
    g = gen_random_graph(spec.n, spec.m, seed)
    edges, labeling, res = with_leader_retries(
        lambda s: conn_mod.spanning_forest(g, spec.config(s)), seed
    )
    comps = uf_components(g)
    forest = Graph.from_arrays(g.n, g.src[edges], g.dst[edges])
    correct = (
        edges.dtype == np.int64 and _ascending(edges)
        and ((edges >= 0) & (edges < g.m)).all()
        and forest.m == g.n - comps.component_count()
        and compare_labelings(labeling, comps).match
        and compare_labelings(uf_components(forest), comps).match
    )
    return correct, [res.simulator], {"iterations": res.iterations}


def _run_forest_conn(spec: ExperimentSpec, seed: int):
    g = gen_random_forest(spec.n, spec.trees, seed)
    cfg = spec.config(seed, m=max(1, g.m))
    labeling, res = trees_mod.forest_connectivity(g, cfg)
    correct = compare_labelings(labeling, uf_components(g)).match
    sims = [res.simulator] if res else []
    return correct, sims, {"components": labeling.component_count()}


def _run_list_rank(spec: ExperimentSpec, seed: int):
    order = _rng(seed, 0x1A).permutation(spec.n)
    succ = np.full(spec.n, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    head = int(order[0])
    cfg = spec.config(seed, m=spec.n)
    res = contr_mod.list_ranking(succ, head, cfg)
    correct = np.array_equal(res.ranks, seq_list_rank(succ, head))
    return correct, [res.simulator], {"iterations": res.iterations}


def _run_tree_ops(spec: ExperimentSpec, seed: int):
    g = gen_random_forest(spec.n, spec.trees, seed)
    cfg = spec.config(seed, m=max(1, g.m))
    rooted = trees_mod.root_forest(g, config=cfg)
    rng = _rng(seed, 0x1B)
    values = rng.integers(-(10**6), 10**6, size=g.n)
    smm = trees_mod.SubtreeMinMax(rooted, values, values)

    # Each tree against one DFS from its root; the oracle's dicts share one
    # key order, the tree's preorder. Subtree minima and maxima fold up each
    # tree in reverse preorder, every vertex's into its parent's.
    correct = True
    want_min, want_max = values.tolist(), values.tolist()
    for root in rooted.roots.tolist():
        parent, want_pn, want_sizes = seq_dfs_tree(g, root)
        members = np.fromiter(parent, dtype=np.int64, count=len(parent))
        correct &= (
            np.array_equal(np.sort(members), np.flatnonzero(rooted.tree_of == root))
            and np.array_equal(rooted.parent[members], np.fromiter(parent.values(), dtype=np.int64))
            and np.array_equal(rooted.preorder[members], np.fromiter(want_pn.values(), dtype=np.int64))
            and np.array_equal(rooted.sizes[members], np.fromiter(want_sizes.values(), dtype=np.int64))
        )
        for v, p in reversed(parent.items()):
            want_min[p] = min(want_min[p], want_min[v])
            want_max[p] = max(want_max[p], want_max[v])
    # The trial charges one batch of sampled queries. The check reads every
    # vertex's range off the sealed index, uncharged like the preorder check.
    sample = rng.choice(g.n, size=min(g.n, 64), replace=False)
    got = np.array(smm.query(sample))
    want = np.array([want_min, want_max])
    every = np.array(smm._index.query(smm._first, smm._last))
    correct &= np.array_equal(every, want) and np.array_equal(got, want[:, sample])
    return correct, rooted.simulators, {"trees": len(rooted.roots)}


def _run_bridges(spec: ExperimentSpec, seed: int):
    g = gen_random_graph(spec.n, spec.m, seed)
    bc = with_leader_retries(lambda s: bc_mod.bc_labeling(g, spec.config(s)), seed)
    want_bridges, _ = tarjan_bridges_aps(g)
    correct = _edge_tuples(g, bc_mod.bridges(bc)) == want_bridges
    return correct, list(bc.simulators), {"bridges": len(want_bridges)}


def _run_2ecc(spec: ExperimentSpec, seed: int):
    g = gen_random_graph(spec.n, spec.m, seed)
    bc, got_bridges, got_aps, got_labels = with_leader_retries(
        lambda s: bc_mod.bc_pipeline(g, spec.config(s)), seed
    )
    want_bridges, want_aps = tarjan_bridges_aps(g)
    correct = (
        _edge_tuples(g, got_bridges) == want_bridges
        and set(got_aps.tolist()) == want_aps
        and compare_labelings(got_labels, two_edge_component_oracle(g, want_bridges)).match
    )
    return correct, list(bc.simulators), {"bridges": len(want_bridges)}


_RUNNERS: dict[str, Callable] = {
    "two-cycle": _run_two_cycle,
    "mis": _run_mis,
    "connectivity": _run_connectivity,
    "msf": _run_msf,
    "spanning-forest": _run_spanning_forest,
    "forest-conn": _run_forest_conn,
    "list-rank": _run_list_rank,
    "tree-ops": _run_tree_ops,
    "bridges": _run_bridges,
    "2ecc": _run_2ecc,
}


@dataclass
class TrialRecord:
    algorithm: str
    trial: int
    seed: int
    n: int
    m: int
    epsilon: float
    correct: bool
    rounds: int
    max_queries_per_machine: int
    total_communication: int
    violations: int
    detail: dict
    wall_ms: float = 0.0  # CSV only; kept out of the JSON lines

    def json_line(self) -> str:
        payload = asdict(self)
        payload.pop("wall_ms")
        return json.dumps(payload, sort_keys=True)


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    records: list[TrialRecord]
    summary: dict

    @property
    def all_correct(self) -> bool:
        return all(r.correct for r in self.records)

    def json_lines(self) -> str:
        return "".join(r.json_line() + "\n" for r in self.records)

    def summary_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted(self.summary))
        writer.writeheader()
        writer.writerow(self.summary)
        return buf.getvalue()


def _p99(values: Sequence[int]) -> int:
    ordered = sorted(values)
    idx = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return ordered[idx]


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run all trials, verify each against its oracle, and summarize."""
    runner = _RUNNERS[spec.algorithm]
    records: list[TrialRecord] = []
    for trial in range(spec.trials):
        seed = trial_seed(spec.seed, trial)
        started = time.perf_counter()
        correct, sims, detail = runner(spec, seed)
        wall_ms = (time.perf_counter() - started) * 1000.0
        rounds, max_q, comm, violations = _sim_stats(sims)
        records.append(
            TrialRecord(
                algorithm=spec.algorithm,
                trial=trial,
                seed=seed,
                n=spec.n,
                m=spec.m,
                epsilon=spec.epsilon,
                correct=bool(correct),
                rounds=rounds,
                max_queries_per_machine=max_q,
                total_communication=comm,
                violations=violations,
                detail=detail,
                wall_ms=wall_ms,
            )
        )

    summary = {
        "algorithm": spec.algorithm,
        "trials": spec.trials,
        "correct": sum(int(r.correct) for r in records),
        "mean_rounds": sum(r.rounds for r in records) / len(records),
        "p99_max_queries": _p99([r.max_queries_per_machine for r in records]),
        "violations": sum(r.violations for r in records),
        "n": spec.n,
        "m": spec.m,
        "epsilon": spec.epsilon,
        "seed": spec.seed,
        "wall_ms_total": round(sum(r.wall_ms for r in records), 3),
    }

    report = ExperimentReport(spec=spec, records=records, summary=summary)
    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(report.json_lines())
        with open(spec.out + ".summary.csv", "w") as fh:
            fh.write(report.summary_csv())
    return report


@dataclass
class ContentionReport:
    balls: int
    bins: int
    space: int
    trials: int
    max_loads: list[int]
    exceedance: dict[int, float]

    def summary(self) -> dict:
        return {
            "balls": self.balls,
            "bins": self.bins,
            "space": self.space,
            "trials": self.trials,
            "max_load_max": max(self.max_loads),
            "max_load_mean": sum(self.max_loads) / len(self.max_loads),
            "exceedance": {str(k): v for k, v in self.exceedance.items()},
        }


def contention_weights(total: int, bins: int, profile: str) -> list[int]:
    """Weight profiles for the balls-in-bins experiment.

    uniform: all balls weight 1. adversarial: total/bins balls of weight
    bins, padded with weight-1 balls. single: one ball of weight bins,
    padded with weight-1 balls.
    """
    if profile == "uniform":
        return [1] * total
    if profile == "adversarial":
        heavy = total // bins
        rest = total - heavy * bins
        return [bins] * heavy + [1] * rest
    if profile == "single":
        return [bins] + [1] * (total - bins)
    raise ValueError(f"unknown weight profile {profile!r}")


def contention_sim(
    total: int,
    bins: int,
    profile: str | Sequence[int],
    trials: int,
    seed: int,
) -> ContentionReport:
    """Throw weighted balls into uniform random bins; report the max bin
    load per trial and the rate at which it exceeds multiples of
    S = total/bins. At least one bin, one trial and as many balls as
    bins, so that S is at least 1."""
    if bins < 1 or trials < 1:
        raise ValueError(f"contention needs at least one bin and one trial, got {bins} and {trials}")
    if total < bins:
        raise ValueError(f"{total} balls into {bins} bins leave S = 0; give at least as many balls as bins")
    weights = (
        contention_weights(total, bins, profile)
        if isinstance(profile, str)
        else list(profile)
    )
    if sum(weights) != total:
        raise ValueError(f"weights sum to {sum(weights)}, expected {total}")
    if any(w < 0 or w > bins for w in weights):
        raise ValueError("each weight must lie in [0, bins]")
    space = total // bins
    arr = np.asarray(weights, dtype=np.int64)
    max_loads: list[int] = []
    for trial in range(trials):
        targets = _rng(seed, 0xBB, trial).integers(0, bins, size=len(arr))
        loads = np.bincount(targets, weights=arr, minlength=bins)
        max_loads.append(int(loads.max()))
    exceedance = {
        c: sum(1 for x in max_loads if x > c * space) / trials for c in (1, 2, 3, 4)
    }
    return ContentionReport(
        balls=total,
        bins=bins,
        space=space,
        trials=trials,
        max_loads=max_loads,
        exceedance=exceedance,
    )
