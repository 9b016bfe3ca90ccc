"""Bulk-synchronous primitive suite: sort, filter, prefix sums, predecessor,
duplicate removal, range min/max queries, and graph contraction.

The primitives compute centrally and charge their documented round and
communication costs; distributing a sort across simulated machines would not
change anything this artifact measures. Charge them into a simulator with
``sim.charge(result.rounds_charged, result.communication_charged, label)``.
Callers charge contraction and RMQ queries themselves: ``contract_graph``
returns its graph alone, and a batch of ``RMQIndex.query`` ranges is one
round whose communication is the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generic, Optional, Sequence, TypeVar

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


def mpc_argsort(keys: np.ndarray, *, epsilon: float) -> ChargedResult[np.ndarray]:
    """Stable sort order of an array of N keys, charged ceil(1/epsilon)
    rounds and communication 2N."""
    return ChargedResult(np.argsort(keys, kind="stable"), _bulk_rounds(epsilon), 2 * len(keys))


def mpc_cumsum(values: np.ndarray, *, epsilon: float) -> ChargedResult[np.ndarray]:
    """Exclusive prefix sums of an integer or boolean array of N values, as
    int64, charged ceil(1/epsilon) rounds and communication 2N."""
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


def rmq_build(
    values: Sequence[float], *, epsilon: float, max_values: Optional[Sequence[float]] = None
) -> ChargedResult[RMQIndex]:
    """The ``RMQIndex`` of ``values`` (and ``max_values``), charged
    ceil(1/epsilon) rounds and communication max(1, len) for both tables."""
    return ChargedResult(RMQIndex(values, max_values), _bulk_rounds(epsilon), max(1, len(values)))


def contract_graph(graph: Graph, mapping: np.ndarray) -> Graph:
    """Contract each vertex to its representative, ``mapping[v]``, an int
    array that covers every vertex.

    The result is ``simple_graph`` of the mapped edges: self-loops are
    dropped and each class of parallel edges keeps one edge, the lightest
    on a weighted graph. Edges come back sorted.
    """
    if len(mapping) < graph.n:
        raise KeyError(f"contraction mapping undefined on vertex {len(mapping)}")
    rep = np.asarray(mapping, dtype=np.int64)[: graph.n]
    return simple_graph(graph.n, rep[graph.src], rep[graph.dst], graph.weight)
