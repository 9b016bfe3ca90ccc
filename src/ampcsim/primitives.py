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


def mpc_argsort(keys: np.ndarray, *, epsilon: float) -> ChargedResult[np.ndarray]:
    """Stable sort order of an array of keys, charged as ``mpc_sort``."""
    return ChargedResult(np.argsort(keys, kind="stable"), _bulk_rounds(epsilon), 2 * len(keys))


def mpc_cumsum(values: np.ndarray, *, epsilon: float) -> ChargedResult[np.ndarray]:
    """Exclusive prefix sums of an integer or boolean array, as int64;
    the array form of ``mpc_prefix_sum`` under ``+``, charged the same."""
    prefix = np.zeros(len(values), dtype=np.int64)
    np.cumsum(values[:-1], out=prefix[1:])
    return ChargedResult(prefix, _bulk_rounds(epsilon), 2 * len(values))


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
    so one index can answer minima of one array and maxima of another. Row d
    of each table holds the extremum of every window of 2**d values; rows
    are padded to full length, and no query reads the padding.
    """

    def __init__(self, values: Sequence[float], max_values: Optional[Sequence[float]] = None):
        arr = np.asarray(values)
        max_arr = arr if max_values is None else np.asarray(max_values)
        self.length = len(arr)
        levels = max(1, self.length.bit_length())
        self._mins = np.repeat(arr[None], levels, axis=0)
        self._maxs = np.repeat(max_arr[None], levels, axis=0)
        for depth in range(1, levels):
            half = 1 << (depth - 1)
            np.minimum(self._mins[depth - 1, :-half], self._mins[depth - 1, half:], out=self._mins[depth, :-half])
            np.maximum(self._maxs[depth - 1, :-half], self._maxs[depth - 1, half:], out=self._maxs[depth, :-half])

    def query(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """Minimum and maximum over each inclusive range [i, j]; ``i`` and
        ``j`` are equal-length index arrays, or two ints."""
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        bad = (i < 0) | (i > j) | (j >= self.length)
        if bad.any():
            raise IndexError(
                f"range [{i[bad].flat[0]}, {j[bad].flat[0]}] out of bounds for length {self.length}"
            )
        depth = np.frexp(j - i + 1)[1] - 1  # floor(log2(width))
        tail = j - np.left_shift(1, depth) + 1
        return (
            np.minimum(self._mins[depth, i], self._mins[depth, tail]),
            np.maximum(self._maxs[depth, i], self._maxs[depth, tail]),
        )

    def query_min(self, i: int, j: int) -> float:
        return float(self.query(i, j)[0])

    def query_max(self, i: int, j: int) -> float:
        return float(self.query(i, j)[1])


def rmq_build(
    values: Sequence[float], *, epsilon: float, max_values: Optional[Sequence[float]] = None
) -> ChargedResult[RMQIndex]:
    """The ``RMQIndex`` of ``values`` (and ``max_values``), charged
    ceil(1/epsilon) rounds and communication max(1, len) for both tables."""
    return ChargedResult(RMQIndex(values, max_values), _bulk_rounds(epsilon), max(1, len(values)))


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
