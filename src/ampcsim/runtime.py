"""Execution core: rounds, the generational key-value store, per-machine
communication budgets, and deterministic seeded randomness.

A computation proceeds in synchronous rounds. During round i every machine
may read any sealed generation 0..i-1 of the store (by default i-1) and
buffers its writes into generation i, which is sealed when the round ends.
Writes under one key keep (machine id, per-machine write order), and
``(key, j)`` reads the j-th of them.

Every generation is an ``ArrayGeneration``: int64 keys sorted ascending
plus one int64 column per record field. A record is a scalar (one column)
or a tuple of at most ``MAX_RECORD_WORDS`` fields, each an int or None;
``NONE`` stands for None. Structured keys are packed into one int64 by
their writer, as ``graphs.pair_keys`` packs an edge.

Algorithms run every round as ``with sim.batch_round() as rnd`` and reach
the store through three calls, each read or write charged to the machine
beside it: ``rnd.gather(generation, keys, machines)`` reads every key's
record; ``rnd.walk(generation, at, machines, column, stop)`` moves walkers
along pointer records in lockstep, one gather per step (the AMPC reads
within a round that depend on earlier ones); and
``rnd.write_many(keys, columns, machines)`` buffers one record per key.

``run_round(program)`` is an adapter that tests and the benchmark tracer
bind by name: it calls ``program`` once per machine with a
``MachineContext``, whose ``query``/``query_indexed`` read one record and
whose ``write`` buffers one, and runs as a batch round underneath.

In every round one query costs one unit of its machine's communication and
one write costs one, and both are budgeted at ``budget_slack * space_S`` per
machine and round. A round closes by sealing the new generation; then it,
like a charged round (``Simulator.charge``), is recorded through one path:
per-machine counts go to ``RoundMetrics``, and violations are recorded (and
raised under ``strict_budget``).

Round numbering lives here alone. Generation i is ``sim.stores[i]``, and
``round_index`` is the last sealed one. ``sim.machines(ids)`` hashes each
item to the machine that runs it in the next round, and
``sim.coins(tag, ids)`` draws item-keyed coins keyed on the last sealed
round, so both are fresh after every round that seals a generation. A
charged round seals none, so it advances neither.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Values stored in the DDS are constant-size records of at most this many
# machine words; larger payloads must be split by the caller.
MAX_RECORD_WORDS = 4

# The value an int64 column of an ArrayGeneration holds for None.
NONE = np.iinfo(np.int64).min

_INTS = (int, np.integer)


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


@dataclass(frozen=True)
class ModelConfig:
    """Problem sizes and model parameters for one simulated computation.

    A caller chooses the eight init fields; the sizes follow from them:
    input size N = max(1, n + m), space per machine
    S = max(2, ceil(max(n, 2)**epsilon)), machines
    P = max(1, ceil(space_multiplier * N / S)) and total space T = S * P,
    which covers N. ``budget_limit`` = floor(budget_slack * S) queries and
    as many writes per machine and round. ``bulk_rounds`` =
    max(1, ceil(1/epsilon)) is the round cost of one bulk-synchronous sort
    or prefix sum over the input; a caller computes the primitive with numpy
    and charges ``sim.charge(config.bulk_rounds, communication, label)``.
    With ``strict_budget`` a simulator raises on the first budget violation
    instead of only recording it.
    """

    n: int
    m: int
    epsilon: float = 0.5
    seed: int = 0
    space_multiplier: float = 1.0
    budget_slack: float = 16.0
    leader_constant: float = 4.0
    strict_budget: bool = False
    input_size_N: int = field(init=False)
    space_S: int = field(init=False)
    machines_P: int = field(init=False)
    total_T: int = field(init=False)

    def __post_init__(self):
        for name in ("n", "m", "seed"):
            value = getattr(self, name)
            if not isinstance(value, _INTS) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.n < 0 or self.m < 0:
            raise ValueError(f"sizes must be nonnegative, got n={self.n}, m={self.m}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 1.0 <= self.space_multiplier < math.inf:
            raise ValueError(f"space_multiplier must be finite and >= 1, got {self.space_multiplier}")
        if not 1.0 <= self.budget_slack < math.inf:
            raise ValueError(f"budget_slack must be finite and >= 1, got {self.budget_slack}")
        if not 0.0 < self.leader_constant < math.inf:
            raise ValueError(f"leader_constant must be positive and finite, got {self.leader_constant}")
        if not -(1 << 63) <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        big_n = max(1, self.n + self.m)
        space_s = max(2, math.ceil(max(self.n, 2) ** self.epsilon))
        machines_p = max(1, math.ceil(self.space_multiplier * big_n / space_s))
        object.__setattr__(self, "input_size_N", big_n)
        object.__setattr__(self, "space_S", space_s)
        object.__setattr__(self, "machines_P", machines_p)
        object.__setattr__(self, "total_T", space_s * machines_p)

    @property
    def budget_limit(self) -> int:
        return math.floor(self.budget_slack * self.space_S)

    @property
    def bulk_rounds(self) -> int:
        return max(1, math.ceil(1.0 / self.epsilon))


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


def _int_column(values) -> np.ndarray:
    column = np.asarray(values)
    if column.ndim != 1:
        raise TypeError(f"array generations hold 1-D columns, not {column.ndim}-D")
    if column.size and column.dtype.kind not in "biu":
        raise TypeError(f"array generations hold int64 columns, not {column.dtype}")
    return column.astype(np.int64, copy=False)


class ArrayGeneration:
    """One sealed generation held as columns (see the module docstring).

    ``key_array`` is sorted ascending and may repeat a key; a repeated key's
    values keep their write order, so ``(key, j)`` is its j-th row. Single
    reads return Python values: an int or None for one column, a tuple of
    them for several.
    """

    def __init__(self, keys, columns: Sequence):
        keys = _int_column(keys)
        columns = tuple(_int_column(c) for c in columns)
        if any(len(c) != len(keys) for c in columns):
            raise ValueError("every column needs one value per key")
        if len(keys) and (keys[1:] < keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            keys, columns = keys[order], tuple(c[order] for c in columns)
        self.key_array = keys
        self.columns = columns
        # Keys 0..len-1 exactly: a key is its own row.
        self._dense = len(keys) == 0 or (
            keys[0] == 0 and keys[-1] == len(keys) - 1 and bool((keys[1:] != keys[:-1]).all())
        )

    def gather(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every column at the first row of each key, as new arrays; NONE
        for an absent key."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise TypeError(f"array generations read 1-D keys, not {keys.ndim}-D")
        n = len(self.key_array)
        if self._dense:
            rows, found = keys, (keys >= 0) & (keys < n)
        else:
            rows = np.searchsorted(self.key_array, keys)
            found = rows < n
            found[found] = self.key_array[rows[found]] == keys[found]
        if found.all():
            return tuple(c[rows] for c in self.columns)
        rows = np.where(found, rows, 0)
        return tuple(np.where(found, c[rows] if n else NONE, NONE) for c in self.columns)

    def _span(self, key: int) -> tuple[int, int]:
        """Row range of ``key``; empty for a key no int64 column can hold."""
        if not isinstance(key, _INTS) or not NONE <= key < -NONE:
            return 0, 0
        keys = self.key_array
        return int(keys.searchsorted(key, "left")), int(keys.searchsorted(key, "right"))

    def _value(self, row: int) -> Any:
        values = [None if v == NONE else v for v in [c.item(row) for c in self.columns]]
        return values[0] if len(values) == 1 else tuple(values)

    def get(self, key: int) -> Optional[Any]:
        """First value under ``key``; None for an absent key."""
        if not isinstance(key, _INTS) or not NONE <= key < -NONE:
            return None
        keys = self.key_array
        row = int(keys.searchsorted(key))
        return self._value(row) if row < len(keys) and keys.item(row) == key else None

    def get_indexed(self, key: int, j: int) -> Optional[Any]:
        lo, hi = self._span(key)
        return self._value(lo + j - 1) if 1 <= j <= hi - lo else None

    def items(self) -> Iterator[tuple[int, Any]]:
        columns = [[None if v == NONE else v for v in c.tolist()] for c in self.columns]
        values = columns[0] if len(columns) == 1 else zip(*columns)
        return zip(self.key_array.tolist(), values)

    def __len__(self) -> int:
        return len(self.key_array)


class MachineContext:
    """Per-machine view of one round: metered reads and buffered writes."""

    def __init__(self, simulator: "Simulator", machine_id: int, round_index: int):
        self._sim = simulator
        self.machine_id = machine_id
        self.round = round_index
        self.query_count = 0
        self.write_count = 0
        self._keys: list[int] = []
        self._records: list[tuple] = []

    def query(self, key: int, generation: Optional[int] = None) -> Optional[Any]:
        """Read a unique key; an absent key is an empty result, not an error.

        ``generation`` defaults to the previous round's store. Older sealed
        generations stay queryable: algorithms that persist every level in
        the store read them back at the same one-query cost.
        """
        store = self._sim._read_store(generation)
        self.query_count += 1
        return store.get(key)

    def query_indexed(self, key: int, j: int, generation: Optional[int] = None) -> Optional[Any]:
        store = self._sim._read_store(generation)
        self.query_count += 1
        return store.get_indexed(key, j)

    def write(self, key: int, value: Any) -> None:
        """Buffer ``value`` under ``key``: an int key and an int, None or
        tuple of them as the value. Every write of a round has the same
        number of fields."""
        fields = value if isinstance(value, tuple) else (value,)
        if len(fields) > MAX_RECORD_WORDS:
            raise RecordSizeError(
                f"value of {len(fields)} words exceeds the {MAX_RECORD_WORDS}-word record limit"
            )
        if not isinstance(key, _INTS) or not all(f is None or isinstance(f, _INTS) for f in fields):
            raise TypeError(f"the store holds int keys and int or None fields, not {key!r}: {value!r}")
        self.write_count += 1
        self._keys.append(key)
        self._records.append(fields)


class BatchRound:
    """One round run as array operations (see the module docstring)."""

    def __init__(self, simulator: "Simulator"):
        self._sim = simulator
        p = simulator.config.machines_P
        self.queries = np.zeros(p, dtype=np.int64)
        self.writes = np.zeros(p, dtype=np.int64)
        self._width: Optional[int] = None
        self._keys: list[np.ndarray] = []
        self._columns: list[tuple[np.ndarray, ...]] = []
        self._machines: list[np.ndarray] = []

    def _charge(self, counts: np.ndarray, machines: np.ndarray, size: int) -> None:
        if len(machines) != size:
            raise ValueError(f"{size} keys but {len(machines)} machines")
        per_machine = np.bincount(machines, minlength=len(counts))
        if len(per_machine) > len(counts):
            raise ValueError(f"machine {len(per_machine) - 1} outside 0..{len(counts) - 1}")
        counts += per_machine

    def gather(self, generation: Optional[int], keys: np.ndarray, machines: np.ndarray) -> tuple[np.ndarray, ...]:
        """The columns of every key's first record in ``generation``
        (default: the previous round's), NONE for an absent key; machine
        ``machines[i]`` is charged one query for ``keys[i]``."""
        self._charge(self.queries, machines, len(keys))
        return self._sim._read_store(generation).gather(keys)

    def walk(
        self, generation: Optional[int], at: np.ndarray, machines: np.ndarray, column: int, stop: Callable
    ) -> Iterator[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]]:
        """Walk pointers in lockstep: walker i stands at ``at[i]`` and, until
        ``stop(walkers, positions)`` holds where it stands, reads that record
        of ``generation``, charged to ``machines[i]``, and moves to the
        record's ``column`` field. Each step is one gather and yields
        ``(walkers, positions, records)``: the walkers that read, the
        positions they read and what they read. Then ``at`` takes the new
        positions."""
        walkers = np.flatnonzero(~stop(np.arange(len(at)), at))
        positions, charged = at[walkers], machines[walkers]
        while len(walkers):
            records = self.gather(generation, positions, charged)
            yield walkers, positions, records
            moved = records[column]
            at[walkers] = moved
            going = ~stop(walkers, moved)
            walkers, positions, charged = walkers[going], moved[going], charged[going]

    def write_many(self, keys: np.ndarray, columns: Sequence[np.ndarray], machines: np.ndarray) -> None:
        """Buffer the record ``columns[*][i]`` under ``keys[i]``, written by
        ``machines[i]``. One column writes scalar values. Every write of a
        round has the same number of columns."""
        width = len(columns)
        if width > MAX_RECORD_WORDS:
            raise RecordSizeError(
                f"value of {width} words exceeds the {MAX_RECORD_WORDS}-word record limit"
            )
        if self._width not in (None, width):
            raise ValueError(f"records of {width} columns in a round writing {self._width}")
        keys = _int_column(keys)
        columns = tuple(_int_column(c) for c in columns)
        if any(len(c) != len(keys) for c in columns):
            raise ValueError("every column needs one value per key")
        self._charge(self.writes, machines, len(keys))
        self._width = width
        self._keys.append(keys)
        self._columns.append(columns)
        self._machines.append(np.asarray(machines, dtype=np.int64))

    def _generation(self) -> ArrayGeneration:
        if not self._keys:
            return ArrayGeneration(np.empty(0, dtype=np.int64), ())
        keys = np.concatenate(self._keys)
        columns = [np.concatenate(c) for c in zip(*self._columns)]
        if (keys[1:] > keys[:-1]).all():
            return ArrayGeneration(keys, columns)
        order = np.argsort(keys)
        if (keys[order[1:]] == keys[order[:-1]]).any():
            # Equal keys keep (machine id, per-machine write order).
            order = np.lexsort((np.concatenate(self._machines), keys))
        return ArrayGeneration(keys[order], [c[order] for c in columns])


class Simulator:
    """Round-by-round executor with metrics and budget accounting.

    Machines execute sequentially but observable behavior (sealed
    generations, metrics) is defined as if they ran concurrently: each
    machine sees only the sealed previous generations and its own buffer.
    """

    def __init__(
        self,
        config: ModelConfig,
        initial: Optional[ArrayGeneration] = None,
    ):
        self.config = config
        if initial is None:
            initial = ArrayGeneration([], ())
        elif not isinstance(initial, ArrayGeneration):
            raise TypeError(f"an initial generation is an ArrayGeneration, not {type(initial).__name__}")
        self.stores: list[ArrayGeneration] = [initial]
        self.metrics: list[RoundMetrics] = []

    @property
    def round_index(self) -> int:
        """The last sealed generation."""
        return len(self.stores) - 1

    @property
    def store(self) -> ArrayGeneration:
        """The latest sealed generation."""
        return self.stores[-1]

    def _read_store(self, generation: Optional[int]) -> ArrayGeneration:
        if generation is None:
            return self.stores[self.round_index]
        if not 0 <= generation <= self.round_index:
            raise ValueError(
                f"generation {generation} is not sealed; sealed generations are 0..{self.round_index}"
            )
        return self.stores[generation]

    def run_round(self, program: Callable[[MachineContext], None]) -> RoundMetrics:
        """Execute ``program`` once per machine, as one batch round."""
        with self.batch_round() as rnd:
            contexts = [
                MachineContext(self, mid, self.round_index + 1)
                for mid in range(self.config.machines_P)
            ]
            for ctx in contexts:
                program(ctx)
            rnd.queries += [ctx.query_count for ctx in contexts]
            records = [fields for ctx in contexts for fields in ctx._records]
            if records:
                widths = sorted({len(fields) for fields in records})
                if len(widths) > 1:
                    raise ValueError(f"records of {widths} fields in one round; a round writes one width")
                columns = [[NONE if f is None else f for f in column] for column in zip(*records)]
                machines = np.repeat(np.arange(len(contexts)), [ctx.write_count for ctx in contexts])
                rnd.write_many([key for ctx in contexts for key in ctx._keys], columns, machines)
        return self.metrics[-1]

    @contextmanager
    def batch_round(self) -> Iterator[BatchRound]:
        """Run one round as array operations; it closes when the block ends
        without an exception."""
        batch = BatchRound(self)
        yield batch
        self.stores.append(batch._generation())
        self._record(self.round_index, batch.queries.tolist(), batch.writes.tolist())

    def machines(self, ids) -> np.ndarray:
        """The machine each item runs on in the next round: independent and
        uniform over the machines, deterministic under the seed."""
        p = self.config.machines_P
        if p == 1:
            return np.zeros(len(ids), dtype=np.int64)
        tag = ((self.round_index + 1) << 8) | 0x51
        return (item_hashes(self.config.seed, tag, ids) % np.uint64(p)).astype(np.int64)

    def coins(self, tag: int, ids) -> np.ndarray:
        """Item-keyed coins in [0, 1) under ``tag``, fresh after every round."""
        return item_coins(self.config.seed, (self.round_index << 8) | tag, ids)

    def charge(self, rounds: int, communication: int, label: str) -> None:
        """Account for a centrally-computed primitive.

        The documented round and communication costs are recorded as if the
        work had been spread uniformly over the machines. Charged rounds
        carry the current round index and seal no generation. At least one
        round is charged, no negative communication, and under a nonempty
        phase label.
        """
        if rounds < 1 or communication < 0:
            raise ValueError(f"a charge needs rounds >= 1 and communication >= 0, not {rounds} and {communication}")
        if not label:
            raise ValueError("a charge needs a nonempty phase label")
        p = self.config.machines_P
        per_round = communication // rounds
        for i in range(rounds):
            comm = per_round if i < rounds - 1 else communication - per_round * (rounds - 1)
            per_machine, extra = divmod(comm, p)
            counts = [per_machine + 1] * extra + [per_machine] * (p - extra)
            self._record(self.round_index, counts, [0] * p, charged=True, label=label)

    def _record(
        self, round_index: int, queries: list[int], writes: list[int], charged: bool = False, label: str = ""
    ) -> None:
        """Append one round's metrics, adaptive or charged, recording every
        machine over its budget (and raising under ``strict_budget``)."""
        limit = self.config.budget_limit
        max_queries, max_writes = max(queries), max(writes)
        violations = []
        if max_queries > limit or max_writes > limit:
            violations = [mid for mid, (q, w) in enumerate(zip(queries, writes)) if q > limit or w > limit]
        metrics = RoundMetrics(
            round=round_index,
            queries_per_machine=queries,
            writes_per_machine=writes,
            max_queries=max_queries,
            max_writes=max_writes,
            total_communication=sum(queries) + sum(writes),
            violations=violations,
            charged=charged,
            label=label,
        )
        self.metrics.append(metrics)
        if violations and self.config.strict_budget:
            raise BudgetViolationError(round_index, [(mid, queries[mid], writes[mid]) for mid in violations])

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
