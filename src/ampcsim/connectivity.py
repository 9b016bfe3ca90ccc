"""Leader-contraction connectivity and minimum spanning forest.

MSF runs through the same shrink loop, main loop and hook rule as
connectivity. Instances with m below n * ln(n)**2 first shrink their vertex
count by randomized pointer merges along minimum-id neighbors (for MSF,
Borůvka's rule: neighbors over every vertex's lightest edge, and the edges
merged along join the forest); the merges are bulk-synchronous and
therefore charged like a primitive. Then each phase
explores every vertex's neighborhood up to the budget d (BFS, or for MSF a
local Prim run whose edges join the forest), one walker per vertex, all
walkers stepping in lockstep through one batch round that gathers every
live walker's next adjacency slot per step, and hands the reach over as
int64 pairs: ``heads[i]`` reached ``tails[i]``. On those arrays it samples
leaders among the active vertices with probability min(1, c_L * ln n / d),
hooks every active vertex onto the lowest-id leader in its reach (else onto
its lowest-id reached vertex when the exploration ran out early), resolves
hook chains and cycles to minimum-id roots with ``resolve_pointers``, and
contracts. Budgets grow as d**1.4 up to n**(epsilon/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import LeaderContractionError, NonTerminationError
from .graphs import ComponentLabeling, Graph, _arcs, _has_edge, _rng, resolve_pointers, simple_graph, slot_keys
from .primitives import contract_graph
from .runtime import ModelConfig, Simulator, item_coins, item_hash

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


def _write_adjacency_round(sim: Simulator, graph: Graph, weighted: bool) -> tuple[int, int, Optional[np.ndarray]]:
    """Store the graph as one record per adjacency slot in one batch round;
    returns the generation, the key stride and, when ``weighted``, the
    weight each weight rank stands for.

    Slot i of vertex v holds ``(neighbor, degree of v)`` in
    ``Graph.adjacency`` order, or ``(neighbor, weight rank, degree of v)``
    by weight, then neighbor; int64 columns hold no float weights, so a
    record names its weight by its index among the distinct weights. The
    key is ``v * stride + i`` (``graphs.slot_keys``), the (v, i) pair packed
    into one int64 as ``pair_keys`` packs an edge, so a walker reads any
    slot with one key and the slot order that BFS's visit order and Prim's
    heap order rely on is part of the key. Records are spread across
    machines individually so no machine's write load depends on the degree
    distribution.
    """
    weights = None
    if weighted:
        heads = np.concatenate((graph.src, graph.dst))
        tails = np.concatenate((graph.dst, graph.src))
        weights, rank = np.unique(graph.weight, return_inverse=True)
        rank = np.concatenate((rank, rank))
        # Weights are distinct, so (head, rank) orders the arcs fully.
        order = np.argsort(heads * len(weights) + rank, kind="stable")
    else:
        heads, tails = _arcs(graph)
        order = np.argsort(heads * graph.n + tails, kind="stable")
    heads = heads[order]
    keys, degree, stride = slot_keys(graph.n, heads)
    columns = [tails[order], rank[order], degree[heads]] if weighted else [tails[order], degree[heads]]
    with sim.batch_round() as rnd:
        rnd.write_many(keys, columns, sim.machines(np.arange(len(keys))))
    return sim.round_index, stride, weights


def increase_degree(graph: Graph, d: int, sim: Simulator) -> Graph:
    """Add an edge from each vertex to the first d vertices its BFS visits.

    Every non-isolated vertex runs one walker, in ascending order, on a
    machine drawn independently and uniformly at random (``sim.machines``).
    The walkers step in lockstep inside one batch round: each step gathers
    the next adjacency slot of every live walker, charged to the walker's
    machine. A walker's queue row is its start followed by the vertices
    found so far, so the visited test compares the read neighbor against its
    own row. Per-walker reads are capped at d*d, which the visit limit
    already implies for simple graphs.
    """
    if d < 1:
        raise ValueError("budget d must be >= 1")
    gen, stride, _ = _write_adjacency_round(sim, graph, weighted=False)
    starts = _non_isolated_vertices(graph)
    machines = sim.machines(starts)
    k = len(starts)
    queue = np.full((k, d + 1), -1, dtype=np.int64)
    queue[:, 0] = starts
    length = np.ones(k, dtype=np.int64)
    head, slot, reads = (np.zeros(k, dtype=np.int64) for _ in range(3))
    live = np.arange(k)
    with sim.batch_round() as rnd:
        while len(live):
            u, degree = rnd.gather(gen, queue[live, head[live]] * stride + slot[live], machines[live])
            reads[live] += 1
            unseen = (queue[live] != u[:, None]).all(axis=1)
            grow = live[unseen]
            queue[grow, length[grow]] = u[unseen]
            length[grow] += 1
            slot[live] += 1
            scanned = live[slot[live] >= degree]
            head[scanned] += 1
            slot[scanned] = 0
            live = live[(length[live] <= d) & (reads[live] < d * d) & (head[live] < length[live])]
    found = length - 1
    tails = np.repeat(starts, found)
    heads = queue[:, 1:][np.arange(d) < found[:, None]]
    return simple_graph(graph.n, np.concatenate((graph.src, tails)), np.concatenate((graph.dst, heads)))


def _pointer_map(n: int, us: np.ndarray, vs: np.ndarray, seed: int) -> np.ndarray:
    """One round of the six-line vertex-merging procedure over the edges
    ``us[i] -- vs[i]`` of an n-vertex graph, repeats allowed. Returns the
    merge map: identity, except that each merged vertex maps to the
    neighbor it merged into along one of the edges. No vertex both merges
    and is merged into, so the map is one level deep.
    """
    # Line 1: point every vertex at its minimum-id neighbor. Vertex n is
    # "no vertex": a vertex without one points there, and every per-vertex
    # array has a slot for it, so any array can be read at ``out``.
    out = np.full(n + 1, n, dtype=np.int64)
    np.minimum.at(out, us, vs)
    np.minimum.at(out, vs, us)
    has_out = out < n

    # Line 2: each mutual pair drops one arrow; the smaller id keeps none.
    idx = np.arange(n + 1)
    has_out &= ~((out[out] == idx) & (idx < out))

    # Line 3: vertices with two or more incoming arrows drop their own.
    has_out &= np.bincount(out[has_out], minlength=n + 1) < 2

    # Line 4: those vertices absorb all their arrow neighbors; absorbed
    # vertices lose their other incoming arrows too.
    centers = np.bincount(out[has_out], minlength=n + 1) >= 2
    absorbed = has_out & centers[out]
    has_out &= ~absorbed[out] & ~absorbed

    # Line 5: drop each surviving arrow with probability 2/3; a coin is a
    # pure function of its vertex, so only the arrows' tails draw one.
    tails = np.flatnonzero(has_out)
    tails = tails[item_coins(seed, 0xE5, tails.astype(np.uint64)) >= 2.0 / 3.0]

    # Line 6: merge the arrows that ended up isolated on both sides.
    heads = out[tails]
    deg = np.bincount(tails, minlength=n) + np.bincount(heads, minlength=n)
    lonely = (deg[tails] == 1) & (deg[heads] == 1)
    tails = np.concatenate((np.flatnonzero(absorbed), tails[lonely]))
    mapping = np.arange(n)
    mapping[tails] = out[tails]
    return mapping


def shrink_vertices_step(graph: Graph, seed: int) -> tuple[Graph, np.ndarray]:
    """Apply one vertex-merging round and contract the graph accordingly.

    The mapping covers every vertex (identity where nothing merged) and
    only ever merges along edges, so components are preserved exactly.
    The mapping is an int64 array over the vertices.
    """
    mapping = _pointer_map(graph.n, graph.src, graph.dst, seed)
    return contract_graph(graph, mapping), mapping


def _non_isolated_vertices(graph: Graph) -> np.ndarray:
    return np.flatnonzero(_has_edge(graph))


def _non_isolated(graph: Graph) -> int:
    return int(np.count_nonzero(_has_edge(graph)))


def reduction_step_cap(n: int) -> int:
    if n < 4:
        return 4
    return math.ceil(4.0 * math.log2(math.log2(n))) + 4


@dataclass
class ReduceResult:
    """The shrunk graph and the merge map onto it: ``mapping[v]`` is the
    vertex of ``graph`` that input vertex v merged into, as an int64 array."""

    graph: Graph
    mapping: np.ndarray
    steps: int
    non_isolated_history: list[int]


def _is_sparse(graph: Graph) -> bool:
    return graph.m < graph.n * math.log(max(graph.n, 2)) ** 2


def _shrink(
    graph: Graph,
    sim: Simulator,
    step: Callable[[Graph, int], tuple[Graph, np.ndarray]],
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
    while steps < cap and history[-1] > max(target, _REDUCTION_FLOOR):
        current, f = step(current, item_hash(sim.config.seed, tag, steps))
        mapping = f[mapping]
        steps += 1
        history.append(_non_isolated(current))
        sim.charge(sim.config.bulk_rounds, history[-2] + 2 * current.m, label)
    return ReduceResult(graph=current, mapping=mapping, steps=steps, non_isolated_history=history)


def reduce_small_space(graph: Graph, sim: Simulator) -> ReduceResult:
    """Shrink the non-isolated vertex count by roughly log^2 n with
    repeated pointer-merge steps. Bulk-synchronous, so each step is
    charged rather than traversed."""
    return _shrink(graph, sim, shrink_vertices_step, 0xD0, "vertex-shrink")


def _hook_to_leaders(
    heads: np.ndarray,
    tails: np.ndarray,
    limit: int,
    sim: Simulator,
    d: float,
    tag: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The contraction rule over reach pairs (``heads[i]`` reached
    ``tails[i]``; every reached vertex is active itself).

    The active vertices, the distinct heads, lead with probability
    min(1, c_L * ln n / d) by the round's coins under ``tag``. Each one
    hooks onto the lowest-id leader in its reach, else onto its lowest-id
    reached vertex when the exploration was exhausted (reached fewer than
    ``limit`` others), else onto itself when it leads; otherwise the lowest
    such vertex fails. Returns the active vertices, ascending, and each one's
    hook as a position among them.
    """
    vertices, owner = np.unique(heads, return_inverse=True)
    k = len(vertices)
    config = sim.config
    p = min(1.0, config.leader_constant * math.log(max(config.n, 2)) / max(d, 1.0))
    leader = np.ones(k, dtype=bool) if p >= 1.0 else sim.coins(tag, vertices) < p
    # Positions order like ids, so the lowest position is the lowest id.
    reached = np.searchsorted(vertices, tails)
    led = leader[reached]
    lowest_leader = np.full(k, k, dtype=np.int64)
    np.minimum.at(lowest_leader, owner[led], reached[led])
    lowest = np.full(k, k, dtype=np.int64)
    np.minimum.at(lowest, owner, reached)
    count = np.bincount(owner, minlength=k)
    fallback = np.where(count < limit, lowest, np.where(leader, np.arange(k), k))
    hook = np.where(lowest_leader < k, lowest_leader, fallback)
    failing = np.flatnonzero(hook == k)
    if len(failing):
        i = failing[0]
        raise LeaderContractionError(f"vertex {vertices[i]} reached {count[i]} >= {limit} vertices and no leader")
    return vertices, hook


def _leader_contract(
    current: Graph,
    mapping: np.ndarray,
    sim: Simulator,
    explore: Callable[[Graph, int], tuple[Graph, np.ndarray, np.ndarray, int]],
    tag: int,
) -> tuple[np.ndarray, int, BudgetSchedule]:
    """Explore, hook onto sampled leaders and contract until no edge is
    left. ``explore(current, d)`` returns the graph to contract, the reach
    as int64 pairs ``(heads, tails)``, where ``heads[i]`` reached
    ``tails[i]`` (the vertex itself not counted), and the exhaustion limit
    for the hook rule. Hooks and their chains resolve among the active
    vertices only, so that work scales with the reach, not with n.
    ``mapping`` is the int64 merge map onto ``current``; the map onto the
    final roots is returned."""
    schedule = BudgetSchedule.start(max(1, _non_isolated(current)), sim.config)
    iterations = 0
    while current.m > 0:
        iterations += 1
        if iterations > _MAIN_LOOP_CAP:
            raise NonTerminationError("contraction loop exceeded its cap")
        d = schedule.exploration_budget()
        grown, heads, tails, limit = explore(current, d)
        vertices, hook = _hook_to_leaders(heads, tails, limit, sim, schedule.d, tag)
        sim.charge(1, 2 * grown.m, "leader-collect")
        rep = np.arange(grown.n)
        rep[vertices] = vertices[resolve_pointers(hook)]
        current = contract_graph(grown, rep)
        sim.charge(1, grown.n + 2 * grown.m + 2 * current.m, "contract")
        mapping = rep[mapping]
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
    current, mapping, reduction = graph, np.arange(graph.n), None
    if _is_sparse(graph):
        reduction = reduce_small_space(graph, sim)
        current, mapping = reduction.graph, reduction.mapping

    def explore(g: Graph, d: int):
        grown = increase_degree(g, d, sim)
        return (grown, *_arcs(grown), d)

    mapping, iterations, schedule = _leader_contract(current, mapping, sim, explore, 0x1D)
    return ConnectivityResult(
        labeling=ComponentLabeling(mapping),
        iterations=iterations,
        schedule=schedule,
        reduction=reduction,
        simulator=sim,
    )


def msf_increase_degree(
    graph: Graph, d: int, sim: Simulator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Budgeted Prim runs over weight-sorted adjacency, one from each
    non-isolated vertex, each stopping once its local forest has d vertices,
    its heap is empty or it has made d*d reads.

    Returns ``(centers, parents, members, weights)``: the run from
    ``centers[i]`` took edge ``(parents[i], members[i])`` of weight
    ``weights[i]``. Runs come by ascending centre, each run's edges in the
    order chosen.

    The runs step in lockstep inside one batch round, every read charged to
    the run's machine. A member has at most one pending heap entry, its next
    unread slot: slot 0 is pushed when it joins and slot i+1 when slot i
    pops. So a run's heap is one row of d columns, column j holding member
    j's entry, and a pop is the row's argmin by ``rank * n + member``: as
    members are distinct, the order of a binary heap of ``(rank, member,
    slot, ...)`` tuples.
    """
    if d < 1:
        raise ValueError("budget d must be >= 1")
    gen, stride, weights = _write_adjacency_round(sim, graph, weighted=True)
    starts = _non_isolated_vertices(graph)
    machines = sim.machines(starts)
    k, n, cap = len(starts), graph.n, d * d
    empty = np.iinfo(np.int64).max
    member = np.full((k, d), -1, dtype=np.int64)
    member[:, 0] = starts
    parent, taken, neighbor, slot, degree = (np.zeros((k, d), dtype=np.int64) for _ in range(5))
    key = np.full((k, d), empty, dtype=np.int64)
    size = np.ones(k, dtype=np.int64)
    reads = np.zeros(k, dtype=np.int64)

    def push(rnd, runs, columns, x, i):
        """Read slot i of member x and make it the heap entry in its column."""
        u, rank, deg = rnd.gather(gen, x * stride + i, machines[runs])
        reads[runs] += 1
        key[runs, columns] = rank * n + x
        neighbor[runs, columns], slot[runs, columns], degree[runs, columns] = u, i, deg

    live = np.arange(k)
    with sim.batch_round() as rnd:
        push(rnd, live, 0, starts, 0)
        while True:
            live = live[(key[live].min(axis=1) < empty) & (size[live] < d) & (reads[live] < cap)]
            if not len(live):
                break
            col = key[live].argmin(axis=1)
            x, i, u, rank = member[live, col], slot[live, col], neighbor[live, col], key[live, col] // n
            more = i + 1 < degree[live, col]
            key[live, col] = empty
            push(rnd, live[more], col[more], x[more], i[more] + 1)
            unseen = (member[live] != u[:, None]).all(axis=1)
            grow, joined, c = live[unseen], u[unseen], size[live[unseen]]
            member[grow, c], parent[grow, c], taken[grow, c] = joined, x[unseen], rank[unseen]
            size[grow] += 1
            go_on = (size[grow] < d) & (reads[grow] < cap)
            push(rnd, grow[go_on], c[go_on], joined[go_on], 0)
    chosen = np.arange(1, d) < size[:, None]
    return (
        np.repeat(starts, size - 1),
        parent[:, 1:][chosen],
        member[:, 1:][chosen],
        weights[taken[:, 1:][chosen]],
    )


def _lightest_edges(graph: Graph) -> np.ndarray:
    """Each vertex's lightest incident edge that is not a self-loop, as an
    index into the graph's edges; a vertex without one has none, and an
    edge lightest at both ends comes twice. Weights are distinct, so the
    choice is unique and belongs to the minimum spanning forest."""
    proper = np.flatnonzero(graph.src != graph.dst)
    ends = np.concatenate((graph.src[proper], graph.dst[proper]))
    edges = np.concatenate((proper, proper))
    weights = graph.weight[edges]
    lightest = np.full(graph.n, weights.max(initial=0) + 1, dtype=weights.dtype)
    np.minimum.at(lightest, ends, weights)
    return edges[weights == lightest[ends]]


@dataclass
class MsfResult:
    """The minimum spanning forest as sorted int64 indices into the input
    graph's ``src``, ``dst`` and ``weight``: the union of
    ``committed_per_iteration``, each shrink step's or exploration's
    commits in the same form."""

    forest: np.ndarray
    iterations: int
    committed_per_iteration: list[np.ndarray]
    labeling: ComponentLabeling
    schedule: Optional[BudgetSchedule]
    simulator: Simulator = field(repr=False, default=None)


def msf(graph: Graph, config: ModelConfig) -> MsfResult:
    """The minimum spanning forest of a distinct-weight graph."""
    if not graph.weighted:
        raise ValueError("msf needs a weighted graph")
    sim = Simulator(config)
    by_weight = np.argsort(graph.weight, kind="stable")
    sim.charge(config.bulk_rounds, 2 * graph.m, "weight-sort")

    # Committed edges are named by weight and looked up in weight order.
    sorted_weights = graph.weight[by_weight]
    committed: list[np.ndarray] = []

    def commit(weights: np.ndarray) -> None:
        committed.append(np.unique(by_weight[np.searchsorted(sorted_weights, weights)]))

    # Sparse instances: merge along per-vertex lightest edges first. The
    # map is one level deep and no two lightest edges are parallel, so the
    # lightest edges between a merged vertex and its target are the merges.
    def boruvka_step(g: Graph, seed: int):
        light = _lightest_edges(g)
        us, vs = g.src[light], g.dst[light]
        f = _pointer_map(g.n, us, vs, seed)
        merged = light[(f[us] == vs) | (f[vs] == us)]
        if len(merged):
            commit(g.weight[merged])
        return contract_graph(g, f), f

    current, mapping = graph, np.arange(graph.n)
    if _is_sparse(graph):
        reduction = _shrink(graph, sim, boruvka_step, 0xB0, "boruvka-shrink")
        current, mapping = reduction.graph, reduction.mapping

    # Prim's budget counts the centre vertex, so the reach limit is d - 1.
    def explore(g: Graph, d: int):
        centers, _, members, weights = msf_increase_degree(g, d, sim)
        commit(weights)
        return g, centers, members, d - 1

    mapping, iterations, schedule = _leader_contract(current, mapping, sim, explore, 0x2D)
    return MsfResult(
        forest=np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *committed])),
        iterations=iterations,
        committed_per_iteration=committed,
        labeling=ComponentLabeling(mapping),
        schedule=schedule,
        simulator=sim,
    )


def spanning_forest(graph: Graph, config: ModelConfig) -> tuple[np.ndarray, ComponentLabeling, MsfResult]:
    """Spanning forest via seeded distinct weights, as sorted indices into the
    input graph's edges; also returns the labels and the full weighted
    result for callers that need the contraction metadata."""
    weights = _rng(config.seed, 0x5F).permutation(graph.m) + 1
    weighted = Graph.from_arrays(graph.n, graph.src, graph.dst, weights, multigraph=graph.multigraph)
    result = msf(weighted, config)
    return result.forest, result.labeling, result
