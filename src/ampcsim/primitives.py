"""Two central primitives numpy does not already provide: a range
minimum/maximum index and graph contraction.

Both compute centrally, and their callers charge them; distributing the work
across simulated machines would not change anything this artifact measures.
Building an ``RMQIndex`` is one bulk-synchronous pass, charged
``sim.charge(config.bulk_rounds, max(1, len), label)``, and a batch of
``RMQIndex.query`` ranges is one round whose communication is the batch
size. ``contract_graph`` returns its graph alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, _collapse, _has_edge, _int64_array, _pair_shift, simple_graph


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


def contract_graph(graph: Graph, mapping: np.ndarray) -> Graph:
    """Contract each vertex to its representative, ``mapping[v]``, a 1-d
    int array that covers every vertex.

    The result is ``simple_graph`` of the mapped edges: self-loops are
    dropped and each class of parallel edges keeps one edge, the lightest
    on a weighted graph. Edges come back sorted by ``(min, max)``.

    Pair keys of ids below k take 2 * bit_length(k - 1) bits, and int32
    keys, whose sort takes half the time of int64 ones, hold them when that
    is at most 31. Vertex ids themselves fit when n does. Otherwise the k
    representatives are renumbered 0..k-1 in O(n), ascending like their
    ids, so that the keys still sort as the vertex pairs do; when the
    representatives of all vertices are too many for int32 keys, only
    those of vertices with an edge are numbered. A representative outside
    0..n-1 is an error only where it ends up on an edge that is not a
    self-loop; ``simple_graph`` then names the first such edge.
    """
    rep = _int64_array("contraction mapping", mapping)
    n = graph.n
    if len(rep) < n:
        raise KeyError(f"contraction mapping undefined on vertex {len(rep)}")
    rep = rep[:n]
    if n and (rep.min() < 0 or rep.max() >= n):
        return simple_graph(n, rep[graph.src], rep[graph.dst], graph.weight)
    shift, ids, table = _pair_shift(n), None, rep
    if 2 * shift > 31:
        used = np.zeros(n, dtype=bool)
        used[rep] = True
        if 2 * _pair_shift(int(np.count_nonzero(used))) > 31:
            used[:] = False
            used[rep[_has_edge(graph)]] = True
        ids = np.flatnonzero(used)
        shift = _pair_shift(len(ids))
        # When only vertices with an edge are numbered, a vertex without one
        # may get a wrong number; no edge reads it.
        table = (np.cumsum(used) - 1)[rep]
        del used
    if 2 * shift <= 31:
        table = table.astype(np.int32)
    return _collapse(n, table[graph.src], table[graph.dst], graph.weight, ids)
