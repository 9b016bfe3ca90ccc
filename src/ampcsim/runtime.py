"""Execution core: rounds, the generational key-value store, per-machine
communication budgets, and deterministic seeded randomness.

A computation proceeds in synchronous rounds. During round i every machine
may read the sealed store of round i-1 and buffer writes into round i. The
amount of communication a machine performs in a round is the number of
queries plus the number of writes, and both are budgeted at
``budget_slack * space_S``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Values stored in the DDS are constant-size records of at most this many
# machine words; larger payloads must be split by the caller.
MAX_RECORD_WORDS = 4


class BudgetViolationError(RuntimeError):
    """Raised in strict mode when a machine exceeds its per-round budget."""

    def __init__(self, round_index: int, violations: list[tuple[int, int, int]]):
        self.round_index = round_index
        self.violations = violations
        detail = ", ".join(
            f"machine {mid}: {q} queries / {w} writes" for mid, q, w in violations
        )
        super().__init__(f"budget violation in round {round_index}: {detail}")


class RecordSizeError(ValueError):
    """Raised when a value exceeds the constant-size record limit."""


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def item_hash(seed: int, tag: int, item: int) -> int:
    """Stable 64-bit hash keyed by (seed, tag, item).

    Coin flips for sampling are derived from this hash so outcomes depend on
    the item identity, never on which machine processes the item.
    """
    h = _mix64(seed ^ _GOLDEN)
    h = _mix64(h ^ (tag + _GOLDEN))
    return _mix64(h ^ (item + _GOLDEN))


def item_coin(seed: int, tag: int, item: int) -> float:
    return item_hash(seed, tag, item) / 2.0**64


def item_hashes(seed: int, tag: int, ids) -> np.ndarray:
    """Vectorized item_hash over an array of ids, as uint64.

    Negative ids wrap to their two's complement, as item_hash's masking does.
    """
    x = np.asarray(ids).astype(np.uint64, copy=False)
    h0 = _mix64(seed ^ _GOLDEN)
    h1 = np.uint64(_mix64(h0 ^ (tag + _GOLDEN)))
    x = h1 ^ (x + np.uint64(_GOLDEN))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def item_coins(seed: int, tag: int, ids) -> np.ndarray:
    """Vectorized item_coin over an array of ids."""
    return item_hashes(seed, tag, ids).astype(np.float64) / 2.0**64


def record_words(value: Any) -> int:
    """Size of a value in machine words, for the record-size check."""
    if value is None or isinstance(value, (bool, int, float)):
        return 1
    if isinstance(value, str):
        return max(1, math.ceil(len(value.encode()) / 8))
    if isinstance(value, (tuple, list)):
        return sum(record_words(v) for v in value)
    raise RecordSizeError(f"unsupported record type {type(value).__name__}")


@dataclass(frozen=True)
class ModelConfig:
    """Problem sizes and model parameters for one simulated computation.

    ``space_S`` defaults to ceil(n**epsilon); ``total_T`` is always
    ``space_S * machines_P`` and must cover the input size. With
    ``strict_budget`` a simulator raises on the first budget violation
    instead of only recording it.
    """

    n: int
    m: int
    input_size_N: int
    epsilon: float
    space_S: int
    machines_P: int
    total_T: int
    space_multiplier: float = 1.0
    budget_slack: float = 16.0
    seed: int = 0
    leader_constant: float = 4.0
    strict_budget: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.space_S < 2:
            raise ValueError("space_S must be at least 2")
        if self.machines_P < 1:
            raise ValueError("machines_P must be at least 1")
        if self.total_T != self.space_S * self.machines_P:
            raise ValueError("total_T must equal space_S * machines_P")
        if self.total_T < self.input_size_N:
            raise ValueError("total space must be at least the input size")
        if self.space_multiplier < 1.0:
            raise ValueError("space_multiplier must be >= 1")
        if self.budget_slack < 1.0:
            raise ValueError("budget_slack must be >= 1")
        if not -(1 << 63) <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")

    @classmethod
    def for_graph(
        cls,
        n: int,
        m: int,
        epsilon: float = 0.5,
        seed: int = 0,
        space_multiplier: float = 1.0,
        budget_slack: float = 16.0,
        leader_constant: float = 4.0,
        strict_budget: bool = False,
    ) -> "ModelConfig":
        """Config for a graph input: N = n + m, S = ceil(n**epsilon)."""
        big_n = max(1, n + m)
        space_s = max(2, math.ceil(max(n, 2) ** epsilon))
        machines_p = max(1, math.ceil(space_multiplier * big_n / space_s))
        return cls(
            n=n,
            m=m,
            input_size_N=big_n,
            epsilon=epsilon,
            space_S=space_s,
            machines_P=machines_p,
            total_T=space_s * machines_p,
            space_multiplier=space_multiplier,
            budget_slack=budget_slack,
            seed=seed,
            leader_constant=leader_constant,
            strict_budget=strict_budget,
        )

    @property
    def budget_limit(self) -> int:
        return math.floor(self.budget_slack * self.space_S)


@dataclass
class RoundMetrics:
    """Per-round communication accounting."""

    round: int
    queries_per_machine: list[int]
    writes_per_machine: list[int]
    max_queries: int
    max_writes: int
    total_communication: int
    violations: list[int] = field(default_factory=list)
    charged: bool = False
    label: str = ""

    def as_record(self) -> dict:
        return {
            "round": self.round,
            "max_queries": self.max_queries,
            "max_writes": self.max_writes,
            "total_communication": self.total_communication,
            "machines": len(self.queries_per_machine),
        }


class GenerationalStore:
    """One sealed generation of the distributed data store.

    A multimap from keys to ordered value lists. The value order is fixed
    when the generation is sealed: writes merge in (writing machine id,
    per-machine write sequence) order. Indexed access ``(key, j)`` is
    1-based and defined exactly for 1 <= j <= k.
    """

    def __init__(self, generation: int):
        self.generation = generation
        self._entries: dict[Hashable, list[Any]] = {}
        self._sealed = False

    @classmethod
    def initial(cls, pairs: Iterable[tuple[Hashable, Any]] = ()) -> "GenerationalStore":
        store = cls(0)
        for key, value in pairs:
            store._entries.setdefault(key, []).append(value)
        store._sealed = True
        return store

    @property
    def sealed(self) -> bool:
        return self._sealed

    def get(self, key: Hashable) -> Optional[Any]:
        """First value under ``key``; None for an absent key."""
        vals = self._entries.get(key)
        return vals[0] if vals else None

    def get_indexed(self, key: Hashable, j: int) -> Optional[Any]:
        vals = self._entries.get(key)
        if vals is None or not 1 <= j <= len(vals):
            return None
        return vals[j - 1]

    def count(self, key: Hashable) -> int:
        return len(self._entries.get(key, ()))

    def keys(self):
        return self._entries.keys()

    def items(self):
        for key, vals in self._entries.items():
            for v in vals:
                yield key, v

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def _merge_and_seal(self, buffers: Sequence[list[tuple[Hashable, Any]]]) -> None:
        # Buffers arrive indexed by machine id; iterating them in id order
        # with per-machine sequence order gives the canonical value order.
        assert not self._sealed
        for buf in buffers:
            for key, value in buf:
                self._entries.setdefault(key, []).append(value)
        self._sealed = True


class MachineContext:
    """Per-machine view of one round: metered reads, buffered writes, RNG."""

    def __init__(self, simulator: "Simulator", machine_id: int, round_index: int):
        self._sim = simulator
        self.machine_id = machine_id
        self.round = round_index
        self.query_count = 0
        self.write_count = 0
        self._buffer: list[tuple[Hashable, Any]] = []
        self._rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        """Stream derived from (seed, round, machine_id); identical across runs."""
        if self._rng is None:
            seq = np.random.SeedSequence(
                entropy=self._sim.config.seed & _MASK64,
                spawn_key=(self.round, self.machine_id),
            )
            self._rng = np.random.default_rng(seq)
        return self._rng

    def query(self, key: Hashable, generation: Optional[int] = None) -> Optional[Any]:
        """Read a unique key; an absent key is an empty result, not an error.

        ``generation`` defaults to the previous round's store. Older sealed
        generations stay queryable: algorithms that persist every level in
        the store read them back at the same one-query cost.
        """
        self.query_count += 1
        return self._sim._read_store(generation).get(key)

    def query_indexed(self, key: Hashable, j: int, generation: Optional[int] = None) -> Optional[Any]:
        self.query_count += 1
        return self._sim._read_store(generation).get_indexed(key, j)

    def query_all(self, key: Hashable, generation: Optional[int] = None) -> list[Any]:
        """Read (key, 1), (key, 2), ... until an empty response; costs k+1."""
        out = []
        j = 1
        while True:
            val = self.query_indexed(key, j, generation)
            if val is None:
                return out
            out.append(val)
            j += 1

    def write(self, key: Hashable, value: Any) -> None:
        words = record_words(value)
        if words > MAX_RECORD_WORDS:
            raise RecordSizeError(
                f"value of {words} words exceeds the {MAX_RECORD_WORDS}-word record limit"
            )
        self.write_count += 1
        self._buffer.append((key, value))


class Simulator:
    """Round-by-round executor with metrics and budget accounting.

    Machines execute sequentially but observable behavior (sealed
    generations, metrics) is defined as if they ran concurrently: each
    machine sees only the sealed previous generations and its own buffer.
    """

    def __init__(
        self,
        config: ModelConfig,
        initial: Iterable[tuple[Hashable, Any]] = (),
    ):
        self.config = config
        self.stores: list[GenerationalStore] = [GenerationalStore.initial(initial)]
        self.metrics: list[RoundMetrics] = []
        self.round_index = 0

    @property
    def store(self) -> GenerationalStore:
        """The latest sealed generation."""
        return self.stores[-1]

    def _read_store(self, generation: Optional[int]) -> GenerationalStore:
        store = self.stores[self.round_index if generation is None else generation]
        assert store.sealed
        return store

    def run_round(self, program: Callable[[MachineContext], None]) -> RoundMetrics:
        """Execute ``program`` once per machine and seal the next generation."""
        round_index = self.round_index + 1
        contexts = [
            MachineContext(self, mid, round_index)
            for mid in range(self.config.machines_P)
        ]
        for ctx in contexts:
            program(ctx)
        new_store = GenerationalStore(round_index)
        new_store._merge_and_seal([ctx._buffer for ctx in contexts])
        self.stores.append(new_store)
        self.round_index = round_index

        queries = [ctx.query_count for ctx in contexts]
        writes = [ctx.write_count for ctx in contexts]
        limit = self.config.budget_limit
        violations = [
            mid
            for mid, (q, w) in enumerate(zip(queries, writes))
            if q > limit or w > limit
        ]
        metrics = RoundMetrics(
            round=round_index,
            queries_per_machine=queries,
            writes_per_machine=writes,
            max_queries=max(queries),
            max_writes=max(writes),
            total_communication=sum(queries) + sum(writes),
            violations=violations,
        )
        self.metrics.append(metrics)
        if violations and self.config.strict_budget:
            raise BudgetViolationError(
                round_index,
                [(mid, queries[mid], writes[mid]) for mid in violations],
            )
        return metrics

    def charge(self, rounds: int, communication: int, label: str = "") -> None:
        """Account for a centrally-computed primitive.

        The documented round and communication costs are recorded as if the
        work had been spread uniformly over the machines.
        """
        rounds = max(1, rounds)
        p = self.config.machines_P
        per_round = max(0, communication) // rounds
        for i in range(rounds):
            comm = per_round if i < rounds - 1 else communication - per_round * (rounds - 1)
            per_machine = comm // p
            extra = comm - per_machine * p
            counts = [per_machine + (1 if mid < extra else 0) for mid in range(p)]
            limit = self.config.budget_limit
            violations = [mid for mid, q in enumerate(counts) if q > limit]
            self.metrics.append(
                RoundMetrics(
                    round=self.round_index,
                    queries_per_machine=counts,
                    writes_per_machine=[0] * p,
                    max_queries=max(counts),
                    max_writes=0,
                    total_communication=comm,
                    violations=violations,
                    charged=True,
                    label=label,
                )
            )
            if violations and self.config.strict_budget:
                raise BudgetViolationError(
                    self.round_index, [(mid, counts[mid], 0) for mid in violations]
                )

    def adaptive_rounds(self) -> int:
        return sum(1 for m in self.metrics if not m.charged)

    def total_rounds(self) -> int:
        return len(self.metrics)

    def max_queries_per_machine(self) -> int:
        return max((m.max_queries for m in self.metrics), default=0)

    def total_communication(self) -> int:
        return sum(m.total_communication for m in self.metrics)

    def violation_count(self) -> int:
        return sum(len(m.violations) for m in self.metrics)

    def export_metrics(self, fileobj) -> None:
        """One JSON line per round: round, max_queries, max_writes,
        total_communication, machines."""
        for m in self.metrics:
            fileobj.write(json.dumps(m.as_record(), sort_keys=True) + "\n")


def _machines_of(ids: np.ndarray, config: ModelConfig, round_index: int) -> np.ndarray:
    p = config.machines_P
    if p == 1:
        return np.zeros(len(ids), dtype=np.int64)
    tag = (round_index << 8) | 0x51
    return (item_hashes(config.seed, tag, ids) % np.uint64(p)).astype(np.int64)


def assign_to_machines(items: Iterable[int], config: ModelConfig, round_index: int) -> dict[int, int]:
    """Map each item independently and uniformly at random to a machine.

    Deterministic under a fixed seed; independent of processing order.
    """
    ids = np.fromiter(items, dtype=np.int64)
    return dict(zip(ids.tolist(), _machines_of(ids, config, round_index).tolist()))


def partition_to_machines(
    items: Iterable[int], config: ModelConfig, round_index: int
) -> list[list[int]]:
    """assign_to_machines, grouped into one item list per machine, each in
    input order."""
    ids = np.fromiter(items, dtype=np.int64)
    parts: list[list[int]] = [[] for _ in range(config.machines_P)]
    for item, machine in zip(ids.tolist(), _machines_of(ids, config, round_index).tolist()):
        parts[machine].append(item)
    return parts
