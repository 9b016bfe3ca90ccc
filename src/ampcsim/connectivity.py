"""Leader-contraction connectivity and minimum spanning forest.

MSF runs through the same shrink loop, main loop and hook rule as
connectivity. Instances with m below n * ln(n)**2 first shrink their vertex
count by randomized pointer merges (along minimum-id neighbors, or for MSF
along minimum-weight edges, which join the forest); the merges are
bulk-synchronous and therefore charged like a primitive. Then each phase
explores every vertex's neighborhood up to the budget d (BFS, or for MSF a
local Prim run whose edges join the forest), samples leaders with
probability min(1, c_L * ln n / d), hooks every vertex onto the lowest-id
leader in its reach (else onto its lowest-id reached vertex when the
exploration ran out early), resolves hook chains and cycles to minimum-id
roots, and contracts. Budgets grow as d**1.4 up to n**(epsilon/3).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import LeaderContractionError, NonTerminationError
from .graphs import ComponentLabeling, Graph, pair_keys, simple_graph
from .primitives import contract_graph, mpc_argsort
from .runtime import ModelConfig, Simulator, item_coins, item_hash, partition_to_machines

_MAIN_LOOP_CAP = 64
# Vertex-shrinking is asymptotic machinery; graphs this small go straight
# to the main loop.
_REDUCTION_FLOOR = 32


@dataclass
class BudgetSchedule:
    """Exploration budget d: starts at sqrt(T / n), grows by d**1.4,
    capped at n**(epsilon/3). Kept real-valued; floors apply at use."""

    d: float
    cap: float
    history: list[float] = field(default_factory=list)

    @classmethod
    def start(cls, n_active: int, config: ModelConfig) -> "BudgetSchedule":
        cap = max(2.0, float(math.floor(max(config.n, 2) ** (config.epsilon / 3.0))))
        total = config.space_multiplier * (config.n + config.m)
        d0 = max(2.0, float(math.floor(math.sqrt(total / max(1, n_active)))))
        d = min(d0, cap)
        return cls(d=d, cap=cap, history=[d])

    def advance(self) -> None:
        self.d = min(self.d**1.4, self.cap)
        self.history.append(self.d)

    def exploration_budget(self) -> int:
        return max(2, math.floor(self.d))


def resolve_pointers(hook: dict[int, int]) -> dict[int, int]:
    """Collapse a functional pointer graph to roots.

    Chains follow to their endpoint; each pointer cycle keeps its minimum
    id as the root. Every hop follows a graph edge, so the resolved map
    only merges vertices inside one component.
    """
    result: dict[int, int] = {}
    for start in hook:
        path: list[int] = []
        pos: dict[int, int] = {}
        x = start
        while x not in result and x not in pos:
            pos[x] = len(path)
            path.append(x)
            x = hook[x]
        root = result[x] if x in result else min(path[pos[x] :])
        for y in path:
            result[y] = root
    return result


def _write_adjacency_round(sim: Simulator, graph: Graph, config: ModelConfig, weighted: bool) -> int:
    """Store the graph as (vertex, slot) records; returns the generation.

    Records are spread across machines individually so no machine's write
    load depends on the degree distribution.
    """
    adj = graph.weighted_adjacency() if weighted else graph.adjacency()
    records: list[tuple[tuple[int, int], tuple]] = []
    for v in range(graph.n):
        deg = len(adj[v])
        for i, x in enumerate(adj[v]):
            records.append(((v, i), (x[1], x[0], deg) if weighted else (x, deg)))
    parts = partition_to_machines(range(len(records)), config, sim.round_index + 1)

    def program(ctx):
        for idx in parts[ctx.machine_id]:
            key, value = records[idx]
            ctx.write(key, value)

    sim.run_round(program)
    return sim.round_index


def increase_degree(
    graph: Graph,
    d: int,
    config: ModelConfig,
    sim: Optional[Simulator] = None,
) -> Graph:
    """Add an edge from each vertex to the first d vertices its BFS visits.

    Per-vertex queries are capped at d*d, which the visit limit already
    implies for simple graphs.
    """
    if d < 1:
        raise ValueError("budget d must be >= 1")
    if sim is None:
        sim = Simulator(config)
    gen = _write_adjacency_round(sim, graph, config, weighted=False)
    parts = partition_to_machines(_non_isolated_vertices(graph).tolist(), config, sim.round_index + 1)
    found_sets: dict[int, list[int]] = {}

    def program(ctx):
        for v in parts[ctx.machine_id]:
            visited = {v}
            found: list[int] = []
            queue = [v]
            head = 0
            reads = 0
            cap = d * d
            while head < len(queue) and len(found) < d and reads < cap:
                x = queue[head]
                head += 1
                record = ctx.query((x, 0), generation=gen)
                reads += 1
                if record is None:
                    continue
                u, deg = record
                i = 0
                while True:
                    if u not in visited:
                        visited.add(u)
                        found.append(u)
                        queue.append(u)
                        if len(found) >= d:
                            break
                    i += 1
                    if i >= deg or reads >= cap:
                        break
                    u, deg = ctx.query((x, i), generation=gen)
                    reads += 1
            found_sets[v] = found

    sim.run_round(program)
    tails = np.fromiter((v for v, found in found_sets.items() for _ in found), dtype=np.int64)
    heads = np.fromiter((u for found in found_sets.values() for u in found), dtype=np.int64)
    return simple_graph(graph.n, np.concatenate((graph.src, tails)), np.concatenate((graph.dst, heads)))


def _pointer_map(graph: Graph, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round of the six-line vertex-merging procedure.

    Returns the merge map over all vertices (identity where nothing
    merged) and the pointer edges ``tails[i] -> heads[i]`` along which
    merges happened (each is a graph edge).
    """
    n = graph.n
    mapping = np.arange(n)
    if graph.m == 0:
        return mapping, mapping[:0], mapping[:0]
    us, vs = graph.src, graph.dst

    # Line 1: point every vertex at its minimum-id neighbor.
    out = np.full(n, n, dtype=np.int64)
    np.minimum.at(out, us, vs)
    np.minimum.at(out, vs, us)
    active = out < n
    has_out = active.copy()

    # Line 2: each mutual pair drops one arrow; the smaller id keeps none.
    idx = np.arange(n)
    safe_out = np.where(active, out, 0)
    mutual = active & (out[safe_out] == idx) & active[safe_out]
    has_out &= ~(mutual & (idx < out))

    # Line 3: vertices with two or more incoming arrows drop their own.
    indeg = np.bincount(out[has_out], minlength=n + 1)[:n]
    has_out &= ~(indeg >= 2)

    # Line 4: those vertices absorb all their arrow neighbors; absorbed
    # vertices lose their other incoming arrows too.
    indeg3 = np.bincount(out[has_out], minlength=n + 1)[:n]
    centers = indeg3 >= 2
    absorbed = has_out & centers[np.where(has_out, out, 0)] & active
    # Remove arrows into absorbed vertices, and the absorbed vertices' own.
    points_at_absorbed = has_out & absorbed[np.where(has_out, out, 0)]
    has_out &= ~points_at_absorbed
    has_out &= ~absorbed

    # Line 5: drop each surviving arrow with probability 2/3.
    coins = item_coins(seed, 0xE5, np.arange(n, dtype=np.uint64))
    has_out &= coins >= 2.0 / 3.0

    # Line 6: merge the arrows that ended up isolated on both sides.
    tails = np.flatnonzero(has_out)
    heads = out[tails]
    deg = np.bincount(tails, minlength=n) + np.bincount(heads, minlength=n)
    lonely = (deg[tails] == 1) & (deg[heads] == 1)
    tails = np.concatenate((np.flatnonzero(absorbed), tails[lonely]))
    heads = out[tails]
    mapping[tails] = heads
    return mapping, tails, heads


def shrink_vertices_step(graph: Graph, seed: int) -> tuple[Graph, list[int]]:
    """Apply one vertex-merging round and contract the graph accordingly.

    The mapping covers every vertex (identity where nothing merged) and
    only ever merges along edges, so components are preserved exactly.
    """
    mapping, _, _ = _pointer_map(graph, seed)
    return contract_graph(graph, mapping).value, mapping.tolist()


def _non_isolated_vertices(graph: Graph) -> np.ndarray:
    degree = np.bincount(graph.src, minlength=graph.n) + np.bincount(graph.dst, minlength=graph.n)
    return np.flatnonzero(degree)


def _non_isolated(graph: Graph) -> int:
    return len(_non_isolated_vertices(graph))


def reduction_step_cap(n: int) -> int:
    if n < 4:
        return 4
    return math.ceil(4.0 * math.log2(math.log2(n))) + 4


@dataclass
class ReduceResult:
    graph: Graph
    mapping: list[int]
    steps: int
    non_isolated_history: list[int]


def _is_sparse(graph: Graph) -> bool:
    return graph.m < graph.n * math.log(max(graph.n, 2)) ** 2


def _shrink(
    graph: Graph,
    config: ModelConfig,
    sim: Optional[Simulator],
    step: Callable[[Graph, int], tuple[Graph, list[int] | np.ndarray]],
    tag: int,
    label: str,
) -> ReduceResult:
    """Repeat ``step`` (seeded by ``tag`` and the step index) until the
    non-isolated vertex count falls to n / ceil(log2 n)**2 or the step cap
    runs out. Each step is charged under ``label``."""
    n = graph.n
    mapping = np.arange(n)
    current = graph
    history = [_non_isolated(current)]
    target = max(1, math.ceil(n / max(1, math.ceil(math.log2(max(n, 2)))) ** 2))
    steps = 0
    cap = reduction_step_cap(n)
    rounds = max(1, math.ceil(1.0 / config.epsilon))
    while steps < cap and history[-1] > max(target, _REDUCTION_FLOOR):
        current, f = step(current, item_hash(config.seed, tag, steps))
        mapping = np.asarray(f)[mapping]
        steps += 1
        history.append(_non_isolated(current))
        if sim is not None:
            sim.charge(rounds, history[-2] + 2 * current.m, label)
    return ReduceResult(graph=current, mapping=mapping.tolist(), steps=steps, non_isolated_history=history)


def reduce_small_space(
    graph: Graph,
    config: ModelConfig,
    sim: Optional[Simulator] = None,
) -> ReduceResult:
    """Shrink the non-isolated vertex count by roughly log^2 n with
    repeated pointer-merge steps. Bulk-synchronous, so each step is
    charged rather than traversed."""
    return _shrink(graph, config, sim, shrink_vertices_step, 0xD0, "vertex-shrink")


def _sample_leaders(vertices, config: ModelConfig, d: float, tag: int) -> set[int]:
    p = min(1.0, config.leader_constant * math.log(max(config.n, 2)) / max(d, 1.0))
    if p >= 1.0:
        return set(vertices)
    ids = np.fromiter(vertices, dtype=np.int64)
    return set(ids[item_coins(config.seed, tag, ids) < p].tolist())


def _hook_to_leaders(
    reach: dict[int, Iterable[int]],
    leaders: set[int],
    limit: int,
) -> dict[int, int]:
    """The contraction rule: the lowest-id leader in reach, else the
    lowest-id vertex in reach when the exploration was exhausted (reached
    fewer than ``limit`` others), else fail unless the vertex leads itself."""
    hook: dict[int, int] = {}
    for v, others in reach.items():
        reached_leaders = [u for u in others if u in leaders]
        if reached_leaders:
            hook[v] = min(reached_leaders)
        elif len(others) < limit:
            hook[v] = min(others) if others else v
        elif v in leaders:
            hook[v] = v
        else:
            raise LeaderContractionError(
                f"vertex {v} reached {len(others)} >= {limit} vertices and no leader"
            )
    return hook


def _leader_contract(
    current: Graph,
    mapping: list[int],
    config: ModelConfig,
    sim: Simulator,
    explore: Callable[[Graph, int], tuple[Graph, dict[int, Iterable[int]], int]],
    tag: int,
) -> tuple[list[int], int, BudgetSchedule]:
    """Explore, hook onto sampled leaders and contract until no edge is
    left. ``explore(current, d)`` returns the graph to contract, each
    active vertex's reach (the vertex itself not counted) and the
    exhaustion limit for the hook rule."""
    schedule = BudgetSchedule.start(max(1, _non_isolated(current)), config)
    iterations = 0
    while current.m > 0:
        iterations += 1
        if iterations > _MAIN_LOOP_CAP:
            raise NonTerminationError("contraction loop exceeded its cap")
        d = schedule.exploration_budget()
        grown, reach, limit = explore(current, d)
        leaders = _sample_leaders(reach.keys(), config, schedule.d, (sim.round_index << 8) | tag)
        f = resolve_pointers(_hook_to_leaders(reach, leaders, limit))
        sim.charge(1, 2 * grown.m, "leader-collect")
        current = contract_graph(grown, [f.get(v, v) for v in range(grown.n)]).value
        sim.charge(1, grown.n + 2 * grown.m + 2 * current.m, "contract")
        mapping = [f.get(rep, rep) for rep in mapping]
        sim.charge(1, len(mapping), "map-compose")
        schedule.advance()
    return mapping, iterations, schedule


@dataclass
class ConnectivityResult:
    labeling: ComponentLabeling
    iterations: int
    schedule: Optional[BudgetSchedule]
    reduction: Optional[ReduceResult]
    simulator: Simulator = field(repr=False, default=None)


def connectivity(graph: Graph, config: ModelConfig) -> ConnectivityResult:
    """Component labels by iterated budgeted exploration and contraction."""
    sim = Simulator(config)
    current, mapping, reduction = graph, list(range(graph.n)), None
    if _is_sparse(graph):
        reduction = reduce_small_space(graph, config, sim)
        current, mapping = reduction.graph, reduction.mapping

    def explore(g: Graph, d: int):
        grown = increase_degree(g, d, config, sim)
        adj = grown.adjacency()
        return grown, {v: adj[v] for v in range(grown.n) if adj[v]}, d

    mapping, iterations, schedule = _leader_contract(current, mapping, config, sim, explore, 0x1D)
    return ConnectivityResult(
        labeling=ComponentLabeling(mapping),
        iterations=iterations,
        schedule=schedule,
        reduction=reduction,
        simulator=sim,
    )


@dataclass
class LocalForest:
    """One vertex's budgeted Prim run: visited set and chosen tree edges."""

    center: int
    members: set[int]
    edges: list[tuple[int, int, float]]


def msf_increase_degree(
    graph: Graph,
    d: int,
    config: ModelConfig,
    sim: Optional[Simulator] = None,
) -> dict[int, LocalForest]:
    """Per-vertex Prim runs over weight-sorted adjacency, stopping once the
    local forest reaches d vertices (or the component is exhausted)."""
    if d < 1:
        raise ValueError("budget d must be >= 1")
    if sim is None:
        sim = Simulator(config)
    gen = _write_adjacency_round(sim, graph, config, weighted=True)
    parts = partition_to_machines(_non_isolated_vertices(graph).tolist(), config, sim.round_index + 1)
    forests: dict[int, LocalForest] = {}

    def program(ctx):
        # Heap entries are (weight, x, slot, neighbor, degree of x); every
        # slot decision uses the degree carried by x's records.
        for v in parts[ctx.machine_id]:
            members = {v}
            chosen: list[tuple[int, int, float]] = []
            cap = d * d
            u, w, deg = ctx.query((v, 0), generation=gen)
            reads = 1
            heap = [(w, v, 0, u, deg)]
            while heap and len(members) < d and reads < cap:
                w, x, i, u, deg = heapq.heappop(heap)
                if i + 1 < deg and reads < cap:
                    u2, w2, _ = ctx.query((x, i + 1), generation=gen)
                    reads += 1
                    heapq.heappush(heap, (w2, x, i + 1, u2, deg))
                if u in members:
                    continue
                members.add(u)
                chosen.append((x, u, w))
                if len(members) >= d or reads >= cap:
                    break
                u2, w2, deg2 = ctx.query((u, 0), generation=gen)
                reads += 1
                heapq.heappush(heap, (w2, u, 0, u2, deg2))
            forests[v] = LocalForest(center=v, members=members, edges=chosen)

    sim.run_round(program)
    for v in range(graph.n):
        if v not in forests:
            forests[v] = LocalForest(center=v, members={v}, edges=[])
    return forests


def _min_weight_subgraph(graph: Graph) -> Graph:
    """Each vertex's minimum-weight incident edge, with its weight (weights
    are distinct, so it is unique); all of these belong to the minimum
    spanning forest. Edges come back sorted."""
    heads = np.concatenate((graph.src, graph.dst))
    tails = np.concatenate((graph.dst, graph.src))
    weights = np.concatenate((graph.weight, graph.weight))
    lightest = np.full(graph.n, weights.max(initial=0) + 1, dtype=weights.dtype)
    np.minimum.at(lightest, heads, weights)
    best = weights == lightest[heads]
    return simple_graph(graph.n, heads[best], tails[best], weights[best])


@dataclass
class MsfResult:
    edges: set[tuple[int, int, float]]
    iterations: int
    committed_per_iteration: list[set[tuple[int, int, float]]]
    labeling: ComponentLabeling
    schedule: Optional[BudgetSchedule]
    simulator: Simulator = field(repr=False, default=None)


def msf(graph: Graph, config: ModelConfig) -> MsfResult:
    """The minimum spanning forest of a distinct-weight graph."""
    if not graph.weighted:
        raise ValueError("msf needs a weighted graph")
    sim = Simulator(config)
    sort_charge = mpc_argsort(graph.weight, epsilon=config.epsilon)
    sim.charge(sort_charge.rounds_charged, sort_charge.communication_charged, "weight-sort")

    # Committed edges are named by weight and looked up in weight order.
    by_weight = sort_charge.value
    sorted_weights = graph.weight[by_weight]
    forest: set[tuple[int, int, float]] = set()
    committed: list[set[tuple[int, int, float]]] = []

    def commit(weights) -> None:
        idx = by_weight[np.searchsorted(sorted_weights, np.fromiter(weights, dtype=graph.weight.dtype))]
        batch = set(zip(graph.src[idx].tolist(), graph.dst[idx].tolist(), graph.weight[idx].tolist()))
        forest.update(batch)
        committed.append(batch)

    # Sparse instances: merge along per-vertex minimum-weight edges first.
    def boruvka_step(g: Graph, seed: int):
        pointer_graph = _min_weight_subgraph(g)
        f, tails, heads = _pointer_map(pointer_graph, seed)
        if len(tails):
            keys = pair_keys(g.n, pointer_graph.src, pointer_graph.dst)
            commit(pointer_graph.weight[np.searchsorted(keys, pair_keys(g.n, tails, heads))])
        return contract_graph(g, f).value, f

    current, mapping = graph, list(range(graph.n))
    if _is_sparse(graph):
        reduction = _shrink(graph, config, sim, boruvka_step, 0xB0, "boruvka-shrink")
        current, mapping = reduction.graph, reduction.mapping

    # Prim's budget counts the centre vertex, so the reach limit is d - 1.
    def explore(g: Graph, d: int):
        forests = msf_increase_degree(g, d, config, sim)
        commit(w for local in forests.values() for _, _, w in local.edges)
        reach = {v: local.members - {v} for v, local in forests.items() if len(local.members) > 1}
        return g, reach, d - 1

    mapping, iterations, schedule = _leader_contract(current, mapping, config, sim, explore, 0x2D)
    return MsfResult(
        edges=forest,
        iterations=iterations,
        committed_per_iteration=committed,
        labeling=ComponentLabeling(mapping),
        schedule=schedule,
        simulator=sim,
    )


def spanning_forest(
    graph: Graph, config: ModelConfig
) -> tuple[set[tuple[int, int]], ComponentLabeling, MsfResult]:
    """Spanning forest via seeded distinct weights; also returns the full
    weighted result for callers that need the contraction metadata."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed & ((1 << 64) - 1), spawn_key=(0x5F,))
    )
    weighted = Graph.from_arrays(graph.n, graph.src, graph.dst, rng.permutation(graph.m) + 1)
    result = msf(weighted, config)
    edges = {(u, v) for u, v, _ in result.edges}
    return edges, result.labeling, result
