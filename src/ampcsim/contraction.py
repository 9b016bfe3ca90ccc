"""Sample-and-traverse algorithms on disjoint chains: shrink, cycle
counting, cycle connectivity and list ranking, all run by one engine.

A chain is closed (a cycle) or open (a linked list whose last successor is
None). Closed chains arrive as int64 successor and predecessor arrays, -1
at an element on no chain: ``orient_cycles`` fixes them for an undirected
union of cycles, and ``trees`` passes an Euler tour's. Open chains arrive
as a successor array and their heads. Every level's records and every
result stay int64 arrays. The engine, ``_Chains``, keeps one record per
element in the store: ``(successor, weight)`` on open chains and
``(successor, weight, predecessor)`` on closed ones, where a weight counts
the input elements the record stands for. Every level is one array
generation of the store, keyed by element id. The engine runs three
operations, each one batch round:

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
  keeping the value spreads a component label. Each level's values are
  written once, at the end of its round, in ascending key order and each
  charged to the machine of the walker that reached it, so sealing the
  level needs no sort. List ranking rejects a cycle that no head enters
  only after unwinding, by a linear certificate on the ranks (see
  ``rank_lists``).

The walks run in lockstep, as ``BatchRound.walk``: all walkers of a round
take their next step together, as one gather from the sealed generation
they walk, and a walker drops out when it reaches a sample. Each gather
charges every walker's read to the machine its start element is hashed to,
so every machine is charged exactly the reads and writes its own
sequential walks would make. Sampling is hash-based and item-keyed, so it
does not depend on machine assignment and costs no queries during traversal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, NonTerminationError, StructureError
from .graphs import ComponentLabeling, Graph, _darts, _int64_array, resolve_pointers
from .runtime import NONE, ArrayGeneration, ModelConfig, Simulator


def orient_cycles(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Fix a traversal orientation on a disjoint union of cycles: int64
    ``succ`` and ``pred`` arrays over the vertices, -1 at a vertex on no
    cycle.

    Every vertex with an edge must have degree exactly 2 counting
    multiplicity; parallel edges form 2-cycles and a self-loop is a legal
    1-cycle. Each edge gives two darts (``graphs._darts``), and a dart
    arriving at a vertex continues by the vertex's other dart out, which
    splits every cycle into its two directions. Each cycle keeps the
    direction holding its lowest dart: it starts at the cycle's first vertex
    in the (src0, dst0, src1, dst1, ...) sequence and leaves it by its
    lower-indexed edge.
    """
    tails, heads, next_dart, _ = _darts(graph)
    degree = np.bincount(tails, minlength=graph.n)
    bad = np.flatnonzero(degree[tails] != 2)
    if len(bad):
        v = tails[bad[0]]
        raise StructureError(f"vertex {v} has degree {degree[v]}, expected 2")
    darts = np.arange(len(tails))
    lowest = resolve_pointers(next_dart)
    kept = darts[lowest < lowest[darts ^ 1]]
    succ = np.full(graph.n, -1, dtype=np.int64)
    pred = np.full(graph.n, -1, dtype=np.int64)
    succ[tails[kept]] = heads[kept]
    pred[heads[kept]] = tails[kept]
    return succ, pred


class _Chains:
    """Disjoint chains contracted level by level (see the module docstring).

    Level i is store generation i, ``sim.stores[i]``, the records of every
    element alive at level i: the engine's simulator runs its ``iterations``
    levels before any other round. ``ids`` are the elements, sorted;
    ``succ`` and, on closed chains, ``pred`` are aligned with them, with NONE
    after an open chain's tail. ``heads`` are the first elements of open
    chains.
    """

    def __init__(
        self,
        config: ModelConfig,
        ids: np.ndarray,
        succ: np.ndarray,
        pred: Optional[np.ndarray] = None,
        heads: Optional[np.ndarray] = None,
    ):
        self.closed = pred is not None
        self.heads = heads
        weight = np.ones(len(ids), dtype=np.int64)
        columns = (succ, weight, pred) if self.closed else (succ, weight)
        self.sim = Simulator(config, initial=ArrayGeneration(ids, columns))
        self.iterations = 0
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
        return self.sim.stores[self.iterations]

    def _stop_at(self, ids: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """A walk's ``stop``: it holds at the elements ``ids`` and at NONE,
        which clips to -1 and so reads the marked last slot."""
        mark = np.zeros(self._bound + 1, dtype=bool)
        mark[ids] = mark[-1] = True
        return lambda _walkers, positions: mark[np.maximum(positions, -1)]

    def _sample(self, delta: float) -> np.ndarray:
        ids = self.top.key_array
        probability = min(1.0, max(len(self.sim.stores[0]), 2) ** (-delta / 2.0))
        chosen = self.sim.coins(0x5A if self.closed else 0x1E, ids) < probability
        if self.heads is not None:
            chosen[np.searchsorted(ids, self.heads)] = True
        if self.closed:
            successor = self.top.columns[0]
            # A level's ids are sorted, distinct and nonnegative, so ids
            # ending at len - 1 are exactly 0..len-1 and the successors
            # already are row positions.
            if len(ids) and ids[-1] != len(ids) - 1:
                successor = np.searchsorted(ids, successor)
            low = resolve_pointers(successor)
            sampled = np.zeros(len(ids), dtype=bool)
            sampled[low[chosen]] = True
            chosen[low[~sampled[low]]] = True
        return ids[chosen]

    def level(self, delta: float, samples: Optional[Iterable[int]] = None) -> None:
        """Contract onto ``samples`` in one round. Unless given, each element
        is sampled with probability n**(-delta/2), n the input size. Given
        samples must be integers alive at this level, at least one on every
        cycle; ValueError names a sample that is not alive."""
        if samples is None:
            samples = self._sample(delta)
        else:
            samples = np.unique(_int64_array("samples", list(samples)))
            dead = samples[~np.isin(samples, self.top.key_array)]
            if len(dead):
                raise ValueError(f"sample {dead[0]} is not alive at level {self.iterations}")
        stop = self._stop_at(samples)
        machines = self.sim.machines(samples)
        with self.sim.batch_round() as rnd:
            # The walks move each sample's pointers on to the next samples
            # in place, so the record read is the record written.
            record = rnd.gather(None, samples, machines)
            weight = record[1]
            for walkers, _, step in rnd.walk(None, record[0], machines, 0, stop):
                weight[walkers] += step[1]
            if self.closed:
                reached, total = int(weight.sum()), len(self.sim.stores[0])
                if reached != total:
                    raise ValueError(f"a cycle holds no sample: the samples reach {reached} of {total} elements")
                for _ in rnd.walk(None, record[2], machines, 2, stop):
                    pass
            rnd.write_many(samples, record, machines)
        self.iterations += 1

    def residual(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Machine 0 reads every survivor's top-level record once; returns
        the survivors, sorted, and their record columns."""
        survivors = self.top.key_array
        capacity = self.sim.config.budget_limit
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
            upper = self.sim.stores[generation + 1].key_array
            machines = self.sim.machines(upper)
            # The machine that writes each element, -1 at an element not
            # written this round.
            writer = np.full(self._bound, -1, dtype=np.int64)
            with self.sim.batch_round() as rnd:
                record = rnd.gather(generation, upper, machines)
                value = step(values[upper], record[1])
                for walkers, x, record in rnd.walk(generation, record[0], machines, 0, self._stop_at(upper)):
                    reached = value[walkers]
                    values[x] = reached
                    writer[x] = machines[walkers]
                    value[walkers] = step(reached, record[1])
                written = np.flatnonzero(writer >= 0)
                rnd.write_many(written, [values[written]], writer[written])
        return values


@dataclass
class ShrinkResult:
    graph: Graph                          # one edge per top-level successor pointer
    iteration_sizes: list[int]
    levels: list[ArrayGeneration]         # (successor, weight, predecessor) records per level
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
    samples, which makes hand traces reproducible; it needs a set for each
    of the t iterations.
    """
    if sample_sets is not None and len(sample_sets) < t:
        raise ValueError(f"{len(sample_sets)} sample sets for {t} iterations")
    chains = _Chains.cycles(config, *orient_cycles(graph))
    for i in range(t):
        chains.level(delta, None if sample_sets is None else sample_sets[i])
    levels = chains.sim.stores[: chains.iterations + 1]
    return ShrinkResult(
        graph=Graph.from_arrays(graph.n, chains.top.key_array, chains.top.columns[0], multigraph=True),
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
    chains = _Chains.cycles(config, *orient_cycles(graph))
    for _ in range(shrink_iteration_budget(config.epsilon)):
        chains.level(config.epsilon)
    if len(chains.top) > config.budget_limit:
        chains.level(config.epsilon)
    survivors, record = chains.residual()
    return TwoCycleResult(
        cycles=len(np.unique(resolve_pointers(np.searchsorted(survivors, record[0])))),
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
    return label_cycles(*orient_cycles(graph), config, shrink_iterations)


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
    coins = sim.coins(0x7C, survivors)
    # Priority rank: by coin, ties broken by id.
    rank = np.zeros(len(succ), dtype=np.int64)
    rank[survivors[np.lexsort((survivors, coins))]] = np.arange(len(survivors))
    machines = sim.machines(survivors)
    steps = np.ones(len(survivors), dtype=np.int64)
    with sim.batch_round() as rnd:
        stop_at = rnd.gather(None, survivors, machines)[0]
        for walkers, _, _ in rnd.walk(None, stop_at, machines, 0, lambda w, at: rank[at] <= rank[survivors[w]]):
            steps[walkers] += 1

    # Each search stops at a lower rank or at the cycle's rank minimum, which
    # stops at itself, so following stops reaches the representative.
    labels = np.arange(len(succ))
    labels[survivors] = survivors[resolve_pointers(np.searchsorted(survivors, stop_at))]
    chains.unwind(labels, lambda label, _weight: label)
    return CycleConnResult(
        labeling=ComponentLabeling(labels),
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


_UNREACHABLE = "successor array has elements unreachable from the heads"


def _check_chains(successor: np.ndarray, heads: np.ndarray) -> None:
    """Raise StructureError unless every successor and head is an element
    of 0..n-1 and every element is entered exactly once: from its
    predecessor, or as a head.

    What these checks let through besides chains from the heads are cycles
    no head enters. Those ``rank_lists`` rejects after unwinding, by its
    rank certificate."""
    n = len(successor)
    outside = np.flatnonzero((successor < -1) | (successor >= n))
    if len(outside):
        raise StructureError(f"successor {successor[outside[0]]} of element {outside[0]} is not an element")
    outside = heads[(heads < 0) | (heads >= n)]
    if len(outside):
        raise StructureError(f"head {outside[0]} is not an element")
    entered = np.bincount(successor[successor >= 0], minlength=n) + np.bincount(heads, minlength=n)
    if (entered > 1).any():
        raise StructureError(f"successor chain revisits element {np.flatnonzero(entered > 1)[0]}")
    if (entered == 0).any():
        raise StructureError(_UNREACHABLE)


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

    Input is checked in O(n) host time: ``_check_chains`` before the
    rounds, then a rank certificate after unwinding. Once every element is
    entered exactly once, the only other shape is a cycle no head enters.
    The engine still ends on one (a walk stops at the next sample, and a
    cycle that drew no sample is never walked), but the ranks cannot step
    by +1 all the way round it, so StructureError is raised unless
    ``ranks[successor[x]] == ranks[x] + 1`` at every x with a successor.
    """
    successor, heads = _int64_array("successor", successor), _int64_array("heads", heads)
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
    linked = np.flatnonzero(successor >= 0)
    if (ranks[successor[linked]] != ranks[linked] + 1).any():
        raise StructureError(_UNREACHABLE)
    return RankedList(
        ranks=ranks,
        levels=chains.sim.stores[: chains.iterations + 1],
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
