"""Sample-and-traverse algorithms on disjoint chains: shrink, cycle
counting, cycle connectivity and list ranking, all run by one engine.

A chain is closed (a cycle) or open (a linked list whose last successor is
None). The engine, ``_Chains``, keeps one record per element in the store:
``(successor, weight)`` on open chains and ``(successor, weight,
predecessor)`` on closed ones, where a weight counts the input elements the
record stands for. It runs three operations:

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

Each level is one round and stays queryable as its own store generation.
Sampling is hash-based and item-keyed, so it does not depend on machine
assignment and costs no queries during traversal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapacityError, NonTerminationError, StructureError
from .graphs import ComponentLabeling, Graph
from .runtime import ModelConfig, Simulator, item_coins, partition_to_machines


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


class _Chains:
    """Disjoint chains contracted level by level (see the module docstring).

    ``levels[i]`` maps every element alive at level i to its record, which
    is also its value in store generation i: the engine's simulator runs its
    levels before any other round. The chains are closed when ``pred`` is
    given; ``heads`` are the first elements of open chains.
    """

    def __init__(
        self,
        config: ModelConfig,
        succ: dict[int, Optional[int]],
        pred: Optional[Sequence[int] | dict[int, int]] = None,
        heads: Sequence[int] = (),
    ):
        self.config = config
        self.closed = pred is not None
        self.heads = set(heads)
        if self.closed:
            records = {v: (s, 1, pred[v]) for v, s in succ.items()}
        else:
            records = {v: (s, 1) for v, s in succ.items()}
        self.sim = Simulator(config, initial=records.items())
        self.levels = [records]

    @property
    def top(self) -> dict[int, tuple]:
        return self.levels[-1]

    @property
    def iterations(self) -> int:
        return len(self.levels) - 1

    def _sample(self, delta: float) -> set[int]:
        top = self.top
        probability = min(1.0, max(len(self.levels[0]), 2) ** (-delta / 2.0))
        ids = np.fromiter(top, dtype=np.int64, count=len(top))
        tag = (self.sim.round_index << 8) | (0x5A if self.closed else 0x1E)
        samples = set(ids[item_coins(self.config.seed, tag, ids) < probability].tolist())
        samples |= self.heads
        if self.closed:
            for cycle in cycles_of({v: record[0] for v, record in top.items()}):
                if samples.isdisjoint(cycle):
                    samples.add(cycle[0])
        return samples

    def level(self, delta: float, samples: Optional[set[int]] = None) -> None:
        """Contract onto ``samples`` in one round. Unless given, each element
        is sampled with probability n**(-delta/2), n the input size."""
        if samples is None:
            samples = self._sample(delta)
        parts = partition_to_machines(sorted(samples), self.config, self.sim.round_index + 1)
        closed = self.closed
        records: dict[int, tuple] = {}

        def walk(ctx):
            for v in parts[ctx.machine_id]:
                record = ctx.query(v)
                right, weight = record[0], record[1]
                while right is not None and right not in samples:
                    step = ctx.query(right)
                    right = step[0]
                    weight += step[1]
                if closed:
                    left = record[2]
                    while left not in samples:
                        left = ctx.query(left)[2]
                    records[v] = (right, weight, left)
                else:
                    records[v] = (right, weight)
                ctx.write(v, records[v])

        self.sim.run_round(walk)
        self.levels.append(records)

    def residual(self) -> dict[int, tuple]:
        """Machine 0 reads every survivor's top-level record once."""
        survivors = sorted(self.top)
        capacity = self.config.budget_limit
        if len(survivors) > capacity:
            raise CapacityError(
                f"residual of {len(survivors)} elements exceeds single-machine "
                f"capacity {capacity}; the iteration count is mis-set"
            )
        generation = self.iterations
        records: dict[int, tuple] = {}

        def read(ctx):
            if ctx.machine_id == 0:
                for v in survivors:
                    records[v] = ctx.query(v, generation=generation)

        self.sim.run_round(read)
        return records

    def unwind(self, values: dict[int, int], step: Callable[[int, int], int]) -> dict[int, int]:
        """Extend ``values`` from the top level's elements to every element,
        one round per level: the element after x gets step(value of x,
        weight of x)."""
        for generation in range(self.iterations - 1, -1, -1):
            upper = self.levels[generation + 1]
            parts = partition_to_machines(sorted(upper), self.config, self.sim.round_index + 1)

            def fill(ctx):
                for v in parts[ctx.machine_id]:
                    record = ctx.query(v, generation=generation)
                    x, value = record[0], step(values[v], record[1])
                    while x is not None and x not in upper:
                        values[x] = value
                        ctx.write(x, value)
                        record = ctx.query(x, generation=generation)
                        x, value = record[0], step(value, record[1])

            self.sim.run_round(fill)
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
    succ, pred = orient_cycles(graph)
    chains = _Chains(config, succ, pred)
    for i in range(t):
        chains.level(delta, None if sample_sets is None else set(sample_sets[i]))
    levels = [{v: record[0] for v, record in level.items()} for level in chains.levels]
    return ShrinkResult(
        graph=orientation_graph(levels[-1], graph.n),
        sample_map={v: (record[2], record[0]) for v, record in chains.top.items()} if t else {},
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
    succ, pred = orient_cycles(graph)
    chains = _Chains(config, succ, pred)
    for _ in range(shrink_iteration_budget(config.epsilon)):
        chains.level(config.epsilon)
    if len(chains.top) > config.budget_limit:
        chains.level(config.epsilon)
    residual = chains.residual()
    return TwoCycleResult(
        cycles=len(cycles_of({v: record[0] for v, record in residual.items()})),
        iterations=chains.iterations,
        residual_vertices=len(residual),
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
    succ, pred = orient_cycles(graph)
    return label_cycles(succ, pred, graph.n, config, shrink_iterations)


def label_cycles(
    succ: dict[int, int],
    pred: Sequence[int] | dict[int, int],
    n: int,
    config: ModelConfig,
    shrink_iterations: Optional[int] = None,
) -> CycleConnResult:
    """Label the components of oriented cycles on elements below ``n``.

    After shrinking, every surviving vertex searches one direction (its
    successor pointers) until it meets a lower-priority-rank vertex or
    completes the loop; the priority minimum of each cycle becomes the
    representative. Labels are then unwound level by level onto all input
    vertices; an element on no cycle labels itself.
    """
    chains = _Chains(config, succ, pred)
    if shrink_iterations is None:
        shrink_iterations = math.ceil((2.0 - config.epsilon) / config.epsilon)
    for _ in range(shrink_iterations):
        chains.level(config.epsilon)

    sim = chains.sim
    survivors = sorted(chains.top)
    coins = item_coins(config.seed, (sim.round_index << 8) | 0x7C, survivors).tolist()
    rank = dict(zip(survivors, zip(coins, survivors)))
    parts = partition_to_machines(survivors, config, sim.round_index + 1)
    stop_at: dict[int, int] = {}
    search_lengths: dict[int, int] = {}

    def search(ctx):
        for v in parts[ctx.machine_id]:
            steps = 0
            x = v
            while True:
                x = ctx.query(x)[0]
                steps += 1
                if rank[x] < rank[v] or x == v:
                    break
            stop_at[v] = x
            search_lengths[v] = steps

    sim.run_round(search)

    # Each search stops at a lower rank or at the cycle's rank minimum, so
    # in rank order every stop is labelled before the survivors that name it.
    rep: dict[int, int] = {}
    for v in sorted(survivors, key=rank.__getitem__):
        rep[v] = v if stop_at[v] == v else rep[stop_at[v]]

    labels = chains.unwind(rep, lambda label, _weight: label)
    return CycleConnResult(
        labeling=ComponentLabeling([labels.get(v, v) for v in range(n)]),
        search_lengths=search_lengths,
        residual_size=len(survivors),
        simulator=sim,
    )


@dataclass
class RankedList:
    order: list[int]
    ranks: dict[int, int]
    levels: list[dict[int, tuple[Optional[int], int]]]  # (successor, weight) records
    iterations: int
    simulator: Simulator = field(repr=False, default=None)

    @property
    def weights_per_level(self) -> list[dict[int, int]]:
        return [{v: record[1] for v, record in level.items()} for level in self.levels]


def rank_lists(
    successor: dict[int, Optional[int]],
    heads: Sequence[int],
    config: ModelConfig,
) -> RankedList:
    """Rank every element of one or more disjoint linked chains.

    The contraction loop keeps heads sampled at every level, absorbs each
    gap's weight into the sample preceding it, solves the residual weighted
    problem on one machine, and unwinds ranks level by level.
    """
    total = len(successor)
    seen: set[int] = set()
    for head in heads:
        x: Optional[int] = head
        while x is not None:
            if x in seen:
                raise StructureError("successor chain revisits an element")
            seen.add(x)
            if x not in successor:
                raise StructureError(f"element {x} missing from successor map")
            x = successor[x]
    if len(seen) != total:
        raise StructureError("successor map has elements unreachable from the heads")

    chains = _Chains(config, successor, heads=heads)
    threshold = max(1, math.ceil(max(total, 2) ** config.epsilon))
    cap = shrink_iteration_budget(config.epsilon) + 1
    while len(chains.top) > threshold and chains.iterations < cap:
        chains.level(config.epsilon)

    # Machine 0 ranks the residual chains from the records it read.
    residual = chains.residual()
    ranks: dict[int, int] = {}
    for head in heads:
        rank = 0
        x: Optional[int] = head
        while x is not None:
            ranks[x] = rank
            x, weight = residual[x]
            rank += weight
    chains.unwind(ranks, operator.add)
    return RankedList(
        order=sorted(successor, key=ranks.__getitem__),
        ranks=ranks,
        levels=chains.levels,
        iterations=chains.iterations,
        simulator=chains.sim,
    )


def list_ranking(
    successor: dict[int, Optional[int]],
    head: int,
    config: ModelConfig,
) -> RankedList:
    """Rank a single linked list with a known head: ranks[v] = distance
    from the head in original list units."""
    result = rank_lists(successor, [head], config)
    if result.ranks.get(head) != 0:
        raise NonTerminationError("head did not receive rank 0")
    return result
