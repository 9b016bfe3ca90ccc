"""Sample-and-traverse algorithms on disjoint chains: shrink, cycle
counting, cycle connectivity and list ranking, all run by one engine.

A chain is closed (a cycle) or open (a linked list whose last successor is
None). The engine, ``_Chains``, keeps one record per element in the store:
``(successor, weight)`` on open chains and ``(successor, weight,
predecessor)`` on closed ones, where a weight counts the input elements the
record stands for. Every level is one array generation of the store, keyed
by element id. The engine runs three operations, each one batch round:

- level: sample elements with item-keyed coins (every open chain keeps its
  head, and a closed chain that drew no sample keeps its lowest id, so no
  chain vanishes); each sample walks forward to the next sample, adding up
  weights, and writes its new record. On a closed chain each sample also
  walks back to the previous sample: the paper's 2-Cycle contracts
  undirected cycles, where a vertex searches both sides, so contracted
  cycles stay doubly linked. List ranking needs only the forward walk.
- residual read: machine 0 reads each survivor's record once.
- unwind: from the top level down, each survivor reads its record at the
  level below and writes a value to every element of the gap it covered.
  The value passes through a step function: adding weights gives ranks,
  keeping the value spreads a component label.

The walks run in lockstep: all walkers of a round take their next step
together, as one gather from the sealed generation they walk, and a walker
drops out when it reaches a sample. Each gather charges every walker's read
to the machine its start element is hashed to, so every machine is charged
exactly the reads and writes its own sequential walks would make. Sampling
is hash-based and item-keyed, so it does not depend on machine assignment
and costs no queries during traversal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, NonTerminationError, StructureError
from .graphs import ComponentLabeling, Graph
from .runtime import NONE, ArrayGeneration, ModelConfig, Simulator, _machines_of, item_coins


def orient_cycles(graph: Graph) -> tuple[dict[int, int], dict[int, int]]:
    """Fix a traversal orientation (succ, pred) on a disjoint union of cycles.

    Every vertex must have degree exactly 2 counting multiplicity; parallel
    edges form 2-cycles and a self-loop is a legal 1-cycle. Each cycle is
    walked from its first vertex in edge order, leaving every vertex by the
    incident edge it did not arrive on.
    """
    incidence: dict[int, list[tuple[int, int]]] = {}
    for idx, (u, v) in enumerate(zip(graph.src.tolist(), graph.dst.tolist())):
        incidence.setdefault(u, []).append((idx, v))
        incidence.setdefault(v, []).append((idx, u))
    for v, inc in incidence.items():
        if len(inc) != 2:
            raise StructureError(f"vertex {v} has degree {len(inc)}, expected 2")
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    for start in incidence:
        if start in succ:
            continue
        v, arrived = start, None
        while v not in succ:
            first, second = incidence[v]
            arrived, w = second if first[0] == arrived else first
            succ[v] = w
            pred[w] = v
            v = w
    return succ, pred


def cycles_of(succ: dict[int, int]) -> list[list[int]]:
    """Decompose an orientation into its cycles (each listed from min id)."""
    seen: set[int] = set()
    out = []
    for start in succ:
        if start in seen:
            continue
        cyc = [start]
        v = succ[start]
        while v != start:
            cyc.append(v)
            v = succ[v]
        seen.update(cyc)
        pivot = cyc.index(min(cyc))
        out.append(cyc[pivot:] + cyc[:pivot])
    return out


def orientation_graph(succ: dict[int, int], n: int) -> Graph:
    """The multigraph carried by an orientation: one edge per succ pointer."""
    return Graph(n, [(v, w) for v, w in succ.items()], multigraph=True)


def _cycle_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``orient_cycles`` as int64 arrays over the vertices, -1 at a vertex
    on no cycle."""
    succ_map, pred_map = orient_cycles(graph)
    succ = np.full(graph.n, -1, dtype=np.int64)
    pred = np.full(graph.n, -1, dtype=np.int64)
    for out, mapping in ((succ, succ_map), (pred, pred_map)):
        out[np.fromiter(mapping, dtype=np.int64, count=len(mapping))] = np.fromiter(
            mapping.values(), dtype=np.int64, count=len(mapping)
        )
    return succ, pred


def _cycle_minima(succ_rows: np.ndarray) -> np.ndarray:
    """For rows linked into cycles by ``succ_rows``, the lowest row of each
    row's cycle, by pointer jumping."""
    low = np.arange(len(succ_rows))
    jump = succ_rows
    for _ in range(max(1, (len(succ_rows) - 1).bit_length())):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    return low


def _unmarked(ids: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Positions of the ids that are neither NONE nor marked."""
    keep = ids != NONE
    keep[keep] = ~mark[ids[keep]]
    return np.flatnonzero(keep)


class _Chains:
    """Disjoint chains contracted level by level (see the module docstring).

    ``levels[i]`` is store generation i, the records of every element alive
    at level i: the engine's simulator runs its levels before any other
    round. ``ids`` are the elements, sorted; ``succ`` and, on closed chains,
    ``pred`` are aligned with them, with NONE after an open chain's tail.
    ``heads`` are the first elements of open chains.
    """

    def __init__(
        self,
        config: ModelConfig,
        ids: np.ndarray,
        succ: np.ndarray,
        pred: Optional[np.ndarray] = None,
        heads: Optional[np.ndarray] = None,
    ):
        self.config = config
        self.closed = pred is not None
        self.heads = heads
        weight = np.ones(len(ids), dtype=np.int64)
        columns = (succ, weight, pred) if self.closed else (succ, weight)
        self.sim = Simulator(config, initial=ArrayGeneration(0, ids, columns))
        self.levels: list[ArrayGeneration] = [self.sim.store]
        # Element ids lie in 0.._bound-1.
        self._bound = int(self.sim.store.key_array[-1]) + 1 if len(ids) else 0

    @classmethod
    def cycles(cls, config: ModelConfig, succ: np.ndarray, pred: np.ndarray) -> "_Chains":
        """Closed chains from successor and predecessor arrays over element
        ids, -1 at an id on no cycle."""
        on = np.flatnonzero(succ >= 0)
        return cls(config, on, succ[on], pred[on])

    @property
    def top(self) -> ArrayGeneration:
        return self.levels[-1]

    @property
    def iterations(self) -> int:
        return len(self.levels) - 1

    def _marks(self, ids: np.ndarray) -> np.ndarray:
        mark = np.zeros(self._bound, dtype=bool)
        mark[ids] = True
        return mark

    def _sample(self, delta: float) -> np.ndarray:
        ids = self.top.key_array
        probability = min(1.0, max(len(self.levels[0]), 2) ** (-delta / 2.0))
        tag = (self.sim.round_index << 8) | (0x5A if self.closed else 0x1E)
        chosen = item_coins(self.config.seed, tag, ids) < probability
        if self.heads is not None:
            chosen[np.searchsorted(ids, self.heads)] = True
        if self.closed:
            low = _cycle_minima(np.searchsorted(ids, self.top.columns[0]))
            sampled = np.zeros(len(ids), dtype=bool)
            sampled[low[chosen]] = True
            chosen[low[~sampled[low]]] = True
        return ids[chosen]

    def level(self, delta: float, samples: Optional[Iterable[int]] = None) -> None:
        """Contract onto ``samples`` in one round. Unless given, each element
        is sampled with probability n**(-delta/2), n the input size."""
        if samples is None:
            samples = self._sample(delta)
        else:
            samples = np.unique(np.fromiter(samples, dtype=np.int64))
        mark = self._marks(samples)
        machines = _machines_of(samples, self.config, self.sim.round_index + 1)
        with self.sim.batch_round() as rnd:
            record = rnd.gather(None, samples, machines)
            right, weight = record[0], record[1]
            walking = _unmarked(right, mark)
            while len(walking):
                step = rnd.gather(None, right[walking], machines[walking])
                right[walking] = step[0]
                weight[walking] += step[1]
                walking = walking[_unmarked(step[0], mark)]
            columns = (right, weight)
            if self.closed:
                left = record[2]
                walking = np.flatnonzero(~mark[left])
                while len(walking):
                    left[walking] = rnd.gather(None, left[walking], machines[walking])[2]
                    walking = walking[~mark[left[walking]]]
                columns = (right, weight, left)
            rnd.write_many(samples, columns, machines)
        self.levels.append(self.sim.store)

    def residual(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Machine 0 reads every survivor's top-level record once; returns
        the survivors, sorted, and their record columns."""
        survivors = self.top.key_array
        capacity = self.config.budget_limit
        if len(survivors) > capacity:
            raise CapacityError(
                f"residual of {len(survivors)} elements exceeds single-machine "
                f"capacity {capacity}; the iteration count is mis-set"
            )
        with self.sim.batch_round() as rnd:
            record = rnd.gather(self.iterations, survivors, np.zeros(len(survivors), dtype=np.int64))
        return survivors, record

    def unwind(self, values: np.ndarray, step: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        """Extend ``values``, an array indexed by element id, from the top
        level's elements to every element, one round per level: the element
        after x gets step(value of x, weight of x)."""
        for generation in range(self.iterations - 1, -1, -1):
            upper = self.levels[generation + 1].key_array
            mark = self._marks(upper)
            machines = _machines_of(upper, self.config, self.sim.round_index + 1)
            with self.sim.batch_round() as rnd:
                record = rnd.gather(generation, upper, machines)
                walking = _unmarked(record[0], mark)
                x = record[0][walking]
                value = step(values[upper], record[1])[walking]
                machines = machines[walking]
                while len(x):
                    values[x] = value
                    rnd.write_many(x, [value], machines)
                    record = rnd.gather(generation, x, machines)
                    walking = _unmarked(record[0], mark)
                    x = record[0][walking]
                    value = step(value, record[1])[walking]
                    machines = machines[walking]
        return values


@dataclass
class ShrinkResult:
    graph: Graph
    sample_map: dict[int, tuple[int, int]]  # last level: sample -> (left, right)
    iteration_sizes: list[int]
    levels: list[dict[int, int]]          # succ map per level, level 0 = input
    simulator: Simulator = field(repr=False, default=None)


def shrink(
    graph: Graph,
    delta: float,
    t: int,
    config: ModelConfig,
    sample_sets: Optional[Sequence[set[int]]] = None,
) -> ShrinkResult:
    """Contract a union of cycles onto vertex samples for t iterations.

    Each vertex survives with probability n**(-delta/2) per iteration
    (n = initial vertex count); survivors reconnect to the nearest sampled
    vertex in each direction. ``sample_sets`` overrides the per-iteration
    samples, which makes hand traces reproducible.
    """
    chains = _Chains.cycles(config, *_cycle_arrays(graph))
    for i in range(t):
        chains.level(delta, None if sample_sets is None else sample_sets[i])
    levels = [dict(zip(level.key_array.tolist(), level.columns[0].tolist())) for level in chains.levels]
    right, _, left = chains.top.columns
    return ShrinkResult(
        graph=orientation_graph(levels[-1], graph.n),
        sample_map=dict(zip(chains.top.key_array.tolist(), zip(left.tolist(), right.tolist()))) if t else {},
        iteration_sizes=[len(level) for level in levels],
        levels=levels,
        simulator=chains.sim,
    )


def shrink_iteration_budget(epsilon: float) -> int:
    return math.ceil(2.0 * (1.0 - epsilon) / epsilon)


@dataclass
class TwoCycleResult:
    cycles: int
    iterations: int
    residual_vertices: int
    simulator: Simulator = field(repr=False, default=None)


def two_cycle(graph: Graph, config: ModelConfig) -> TwoCycleResult:
    """Count the cycles of a one-or-two-cycle instance.

    Shrinks for ceil(2(1-eps)/eps) iterations, allows one catch-up
    iteration, then solves the residual on a single designated machine.
    """
    chains = _Chains.cycles(config, *_cycle_arrays(graph))
    for _ in range(shrink_iteration_budget(config.epsilon)):
        chains.level(config.epsilon)
    if len(chains.top) > config.budget_limit:
        chains.level(config.epsilon)
    survivors, record = chains.residual()
    return TwoCycleResult(
        cycles=len(np.unique(_cycle_minima(np.searchsorted(survivors, record[0])))),
        iterations=chains.iterations,
        residual_vertices=len(survivors),
        simulator=chains.sim,
    )


@dataclass
class CycleConnResult:
    labeling: ComponentLabeling
    search_lengths: dict[int, int]
    residual_size: int
    simulator: Simulator = field(repr=False, default=None)


def cycle_conn(
    graph: Graph,
    config: ModelConfig,
    shrink_iterations: Optional[int] = None,
) -> CycleConnResult:
    """Label the components of a disjoint union of cycles (see
    ``label_cycles``)."""
    succ, pred = _cycle_arrays(graph)
    return label_cycles(succ, pred, config, shrink_iterations)


def label_cycles(
    succ: np.ndarray,
    pred: np.ndarray,
    config: ModelConfig,
    shrink_iterations: Optional[int] = None,
) -> CycleConnResult:
    """Label the components of oriented cycles: ``succ`` and ``pred`` are
    int64 arrays over elements 0..n-1, -1 at an element on no cycle.

    After shrinking, every surviving vertex searches one direction (its
    successor pointers) until it meets a lower-priority-rank vertex or
    completes the loop; the priority minimum of each cycle becomes the
    representative. Labels are then unwound level by level onto all input
    vertices; an element on no cycle labels itself.
    """
    chains = _Chains.cycles(config, succ, pred)
    if shrink_iterations is None:
        shrink_iterations = math.ceil((2.0 - config.epsilon) / config.epsilon)
    for _ in range(shrink_iterations):
        chains.level(config.epsilon)

    sim = chains.sim
    survivors = chains.top.key_array
    coins = item_coins(config.seed, (sim.round_index << 8) | 0x7C, survivors)
    # Priority rank: by coin, ties broken by id.
    rank = np.zeros(len(succ), dtype=np.int64)
    rank[survivors[np.lexsort((survivors, coins))]] = np.arange(len(survivors))
    machines = _machines_of(survivors, config, sim.round_index + 1)
    stop_at = survivors.copy()
    steps = np.zeros(len(survivors), dtype=np.int64)
    searching = np.arange(len(survivors))
    with sim.batch_round() as rnd:
        while len(searching):
            stop_at[searching] = rnd.gather(None, stop_at[searching], machines[searching])[0]
            steps[searching] += 1
            searching = searching[rank[stop_at[searching]] > rank[survivors[searching]]]

    # Each search stops at a lower rank or at the cycle's rank minimum, which
    # stops at itself, so following stops reaches the representative.
    rep = np.searchsorted(survivors, stop_at)
    while True:
        jumped = rep[rep]
        if np.array_equal(jumped, rep):
            break
        rep = jumped

    labels = np.arange(len(succ))
    labels[survivors] = survivors[rep]
    chains.unwind(labels, lambda label, _weight: label)
    return CycleConnResult(
        labeling=ComponentLabeling(labels.tolist()),
        search_lengths=dict(zip(survivors.tolist(), steps.tolist())),
        residual_size=len(survivors),
        simulator=sim,
    )


@dataclass
class RankedList:
    ranks: np.ndarray                     # int64, indexed by element
    levels: list[ArrayGeneration]         # (successor, weight) records per level
    iterations: int
    simulator: Simulator = field(repr=False, default=None)

    @property
    def weights_per_level(self) -> list[np.ndarray]:
        return [level.columns[1] for level in self.levels]


def _check_chains(successor: np.ndarray, heads: np.ndarray) -> None:
    """Raise StructureError unless ``successor`` links elements 0..n-1 into
    disjoint chains that start at ``heads`` and cover every element."""
    n = len(successor)
    outside = np.flatnonzero((successor < -1) | (successor >= n))
    if len(outside):
        raise StructureError(f"successor {successor[outside[0]]} of element {outside[0]} is not an element")
    outside = heads[(heads < 0) | (heads >= n)]
    if len(outside):
        raise StructureError(f"head {outside[0]} is not an element")
    # Every element is entered once: from its predecessor, or as a head.
    entered = np.bincount(successor[successor >= 0], minlength=n) + np.bincount(heads, minlength=n)
    if (entered > 1).any():
        raise StructureError(f"successor chain revisits element {np.flatnonzero(entered > 1)[0]}")
    if (entered == 0).any():
        raise StructureError("successor array has elements unreachable from the heads")
    # What is left besides chains from the heads are cycles no head enters:
    # jumping to each element's chain end reaches a tail from every element
    # exactly when there are none.
    tail = successor < 0
    end = np.where(tail, np.arange(n), successor)
    for _ in range(n.bit_length() + 1):
        if tail[end].all():
            return
        end = end[end]
    raise StructureError("successor array has elements unreachable from the heads")


def rank_lists(
    successor: np.ndarray,
    heads: Sequence[int],
    config: ModelConfig,
) -> RankedList:
    """Rank every element of one or more disjoint linked chains.

    ``successor`` is an int64 array over elements 0..n-1, -1 at a chain's
    tail. The contraction loop keeps heads sampled at every level, absorbs
    each gap's weight into the sample preceding it, solves the residual
    weighted problem on one machine, and unwinds ranks level by level.
    """
    successor, heads = np.asarray(successor), np.asarray(heads, dtype=np.int64)
    if successor.ndim != 1 or (successor.size and successor.dtype.kind not in "iu"):
        raise TypeError(f"successor must be a 1-d integer array, not {successor.dtype} of shape {successor.shape}")
    successor = successor.astype(np.int64, copy=False)
    _check_chains(successor, heads)
    total = len(successor)
    chains = _Chains(config, np.arange(total), np.where(successor < 0, NONE, successor), heads=heads)
    threshold = max(1, math.ceil(max(total, 2) ** config.epsilon))
    cap = shrink_iteration_budget(config.epsilon) + 1
    while len(chains.top) > threshold and chains.iterations < cap:
        chains.level(config.epsilon)

    # Machine 0 ranks the residual chains from the records it read.
    survivors, (succ, weight) = chains.residual()
    record = dict(zip(survivors.tolist(), zip(succ.tolist(), weight.tolist())))
    residual_ranks: dict[int, int] = {}
    for head in heads.tolist():
        rank, x = 0, head
        while x != NONE:
            residual_ranks[x] = rank
            x, w = record[x]
            rank += w
    ranks = np.zeros(total, dtype=np.int64)
    ranks[list(residual_ranks)] = list(residual_ranks.values())
    chains.unwind(ranks, operator.add)
    return RankedList(
        ranks=ranks,
        levels=chains.levels,
        iterations=chains.iterations,
        simulator=chains.sim,
    )


def list_ranking(
    successor: np.ndarray,
    head: int,
    config: ModelConfig,
) -> RankedList:
    """Rank a single linked list with a known head: ranks[v] = distance
    from the head in original list units. ``successor`` is as for
    ``rank_lists``."""
    result = rank_lists(successor, [head], config)
    if result.ranks[head] != 0:
        raise NonTerminationError("head did not receive rank 0")
    return result
