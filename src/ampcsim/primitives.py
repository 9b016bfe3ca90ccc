"""Bulk-synchronous primitive suite: sort, filter, prefix sums, predecessor,
duplicate removal, range min/max queries, and graph contraction.

The primitives compute centrally and charge their documented round and
communication costs; distributing a sort across simulated machines would not
change anything this artifact measures. Charge them into a simulator with
``sim.charge(result.rounds_charged, result.communication_charged, label)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generic, Optional, Sequence, TypeVar

import numpy as np

from .graphs import Graph, simple_graph

T = TypeVar("T")


@dataclass(frozen=True)
class ChargedResult(Generic[T]):
    value: T
    rounds_charged: int
    communication_charged: int


def _bulk_rounds(epsilon: float) -> int:
    return max(1, math.ceil(1.0 / epsilon))


def mpc_sort(
    items: Sequence[T],
    key: Optional[Callable[[T], Any]] = None,
    *,
    epsilon: float,
) -> ChargedResult[list[T]]:
    """Stable sort of N tuples, charged ceil(1/epsilon) rounds."""
    out = sorted(items, key=key)
    return ChargedResult(out, _bulk_rounds(epsilon), 2 * len(items))


def mpc_filter(
    items: Sequence[T],
    predicate: Callable[[T], bool],
    *,
    epsilon: float,
) -> ChargedResult[list[T]]:
    """Order-preserving subsequence where the predicate holds."""
    out = [x for x in items if predicate(x)]
    return ChargedResult(out, _bulk_rounds(epsilon), len(items) + len(out))


def mpc_prefix_sum(
    items: Sequence[T],
    op: Callable[[Any, Any], Any],
    identity: Any,
    *,
    epsilon: float,
) -> ChargedResult[list[tuple[T, Any]]]:
    """Each tuple paired with the exclusive prefix under an associative op."""
    out = []
    acc = identity
    for x in items:
        out.append((x, acc))
        acc = op(acc, x)
    return ChargedResult(out, _bulk_rounds(epsilon), 2 * len(items))


def mpc_predecessor(
    flags: Sequence[int],
    *,
    epsilon: float,
) -> ChargedResult[list[Optional[int]]]:
    """For each position, the nearest strictly preceding position with flag 1."""
    out: list[Optional[int]] = []
    last: Optional[int] = None
    for i, flag in enumerate(flags):
        out.append(last)
        if flag:
            last = i
    return ChargedResult(out, _bulk_rounds(epsilon), 2 * len(flags))


def mpc_dedup(items: Sequence[T], *, epsilon: float) -> ChargedResult[list[T]]:
    """One representative per distinct value, in first-occurrence order."""
    out = list(dict.fromkeys(items))
    return ChargedResult(out, _bulk_rounds(epsilon), len(items) + len(out))


class RMQIndex:
    """Sparse table answering range-minimum and range-maximum queries.

    The max table is built over ``max_values`` when given (of equal length),
    so one index can answer minima of one array and maxima of another.
    """

    def __init__(self, values: Sequence[float], max_values: Optional[Sequence[float]] = None):
        arr = np.asarray(values, dtype=np.float64)
        max_arr = arr if max_values is None else np.asarray(max_values, dtype=np.float64)
        self.length = len(arr)
        levels = max(1, self.length.bit_length())
        self._mins = [arr]
        self._maxs = [max_arr]
        for depth in range(1, levels):
            half = 1 << (depth - 1)
            prev_min, prev_max = self._mins[-1], self._maxs[-1]
            if len(prev_min) <= half:
                break
            self._mins.append(np.minimum(prev_min[:-half], prev_min[half:]))
            self._maxs.append(np.maximum(prev_max[:-half], prev_max[half:]))

    def _check(self, i: int, j: int) -> None:
        if not 0 <= i <= j < self.length:
            raise IndexError(f"range [{i}, {j}] out of bounds for length {self.length}")

    def query_min(self, i: int, j: int) -> float:
        self._check(i, j)
        depth = (j - i + 1).bit_length() - 1
        table = self._mins[depth]
        return float(min(table[i], table[j - (1 << depth) + 1]))

    def query_max(self, i: int, j: int) -> float:
        self._check(i, j)
        depth = (j - i + 1).bit_length() - 1
        table = self._maxs[depth]
        return float(max(table[i], table[j - (1 << depth) + 1]))


def rmq_build(values: Sequence[float], *, epsilon: float) -> ChargedResult[RMQIndex]:
    return ChargedResult(RMQIndex(values), _bulk_rounds(epsilon), max(1, len(values)))


def rmq_query(index: RMQIndex, i: int, j: int) -> ChargedResult[float]:
    """Minimum over the inclusive range [i, j]; one round, O(1) communication.

    Batches of independent queries share the round: charge one round with
    communication equal to the batch size.
    """
    return ChargedResult(index.query_min(i, j), 1, 1)


def rmq_query_max(index: RMQIndex, i: int, j: int) -> ChargedResult[float]:
    return ChargedResult(index.query_max(i, j), 1, 1)


def contract_graph(
    graph: Graph,
    mapping: Sequence[int] | dict[int, int],
) -> ChargedResult[Graph]:
    """Contract each vertex to its representative. One round.

    ``mapping`` must cover every vertex, as a list, an array or a dict.
    The result is ``simple_graph`` of the mapped edges: self-loops are
    dropped and each class of parallel edges keeps one edge, the lightest
    on a weighted graph. Edges come back sorted.
    """
    n = graph.n
    if isinstance(mapping, dict):
        missing = next((v for v in range(n) if v not in mapping), None)
        if missing is None:
            mapping = [mapping[v] for v in range(n)]
    else:
        missing = len(mapping) if len(mapping) < n else None
    if missing is not None:
        raise KeyError(f"contraction mapping undefined on vertex {missing}")
    rep = np.asarray(mapping, dtype=np.int64)[:n]
    out = simple_graph(n, rep[graph.src], rep[graph.dst], graph.weight)
    return ChargedResult(out, 1, graph.n + 2 * graph.m + out.m)
