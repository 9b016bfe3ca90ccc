"""Graph data model, seeded instance generators, and the text file format."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """Raised for malformed graph input (files or edge lists)."""


class Graph:
    """Undirected graph on dense vertex ids 0..n-1, optionally weighted.

    Edges are stored as int64 arrays ``src`` and ``dst`` with
    ``src <= dst``, in input order, plus a ``weight`` array on weighted
    graphs (int64 when every weight is an int, float64 otherwise; ``None``
    when unweighted). Simple graphs admit no self-loops and no duplicate
    edges; weighted graphs must have pairwise-distinct weights. Multigraph
    mode lifts the self-loop and duplicate restrictions (contraction
    outputs need both).

    ``Graph(n, edges)`` takes ``(u, v)`` or ``(u, v, w)`` tuples and
    ``Graph.from_arrays`` takes the columns; both run the same validation,
    and neither keeps an input array. The vertex count is an int or a
    numpy integer, not a bool.
    ``edges`` is a read-only tuple of ``(u, v[, w])`` Python tuples, built
    on first use and cached; code that works on whole graphs reads the
    arrays instead.
    """

    __slots__ = ("n", "src", "dst", "weight", "multigraph", "_edges", "_adjacency")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple],
        weighted: bool = False,
        multigraph: bool = False,
    ):
        rows = list(edges)
        short = next((row for row in rows if len(row) < (3 if weighted else 2)), None)
        if short is not None:
            raise GraphFormatError(f"edge {tuple(short)!r} needs {'(u, v, w)' if weighted else '(u, v)'}")
        src = np.array([row[0] for row in rows])
        dst = np.array([row[1] for row in rows])
        weight = np.array([row[2] for row in rows]) if weighted else None
        self._store(n, src, dst, weight, multigraph)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        src,
        dst,
        weight=None,
        multigraph: bool = False,
    ) -> "Graph":
        """The graph whose i-th edge joins ``src[i]`` and ``dst[i]`` (with
        weight ``weight[i]`` when given). Validated like the constructor."""
        graph = cls.__new__(cls)
        graph._store(
            n,
            np.asarray(src),
            np.asarray(dst),
            None if weight is None else np.asarray(weight),
            multigraph,
        )
        return graph

    def _store(
        self,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray],
        multigraph: bool,
        owned: bool = False,
    ) -> None:
        """Validate and keep the columns. ``owned`` columns are new arrays
        with ``src <= dst`` that no caller holds, kept as they are; others
        are copied. Every check runs either way."""
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise GraphFormatError(f"vertex count must be an integer, not {type(n).__name__}")
        n = int(n)
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        if any(column is not None and column.ndim != 1 for column in (src, dst, weight)):
            raise GraphFormatError("edge columns must be 1-D")
        m = len(src)
        if len(dst) != m or (weight is not None and len(weight) != m):
            raise GraphFormatError("edge columns must have equal lengths")
        src, dst = _vertex_ids(src), _vertex_ids(dst)
        if weight is not None:
            if weight.dtype.kind in "iu" or m == 0:
                weight = weight.astype(np.int64, copy=not owned)
            elif weight.dtype.kind == "f":
                weight = weight.astype(np.float64, copy=not owned)
            else:
                raise GraphFormatError("edge weights must be numbers")
        lo, hi = (src, dst) if owned else (np.minimum(src, dst), np.maximum(src, dst))
        # The first offending edge in input order is reported; at one edge
        # the checks rank range, self-loop, duplicate edge, duplicate weight.
        # The range check is two reductions; the mask naming the edge is
        # built only when it fails.
        errors: list[tuple[int, int, str]] = []
        if m and (lo.min() < 0 or hi.max() >= n):
            i = int(np.argmax((lo < 0) | (hi >= n)))
            errors.append((i, 0, f"edge ({src[i]}, {dst[i]}) out of range for n={n}"))
        if not multigraph:
            loops = lo == hi
            if loops.any():
                i = int(np.argmax(loops))
                errors.append((i, 1, f"self-loop at vertex {lo[i]}"))
            del loops
            # Pairs strictly ascending in either endpoint order are distinct;
            # simple_graph emits (lo, hi) order and the generators (hi, lo), so
            # only other input pays the sort.
            i = None if _pairs_ascending(n, lo, hi) else _first_repeat(pair_keys(n, lo, hi))
            if i is not None:
                errors.append((i, 2, f"duplicate edge ({lo[i]}, {hi[i]})"))
        if weight is not None:
            i = None if _ascending(weight) else _first_repeat(weight)
            if i is not None:
                errors.append((i, 3, f"duplicate edge weight {weight[i]}"))
        if errors:
            raise GraphFormatError(min(errors)[2])
        self.n = n
        self.src = lo
        self.dst = hi
        self.weight = weight
        self.multigraph = multigraph
        self._edges: Optional[tuple[tuple, ...]] = None
        self._adjacency: Optional[list[list[int]]] = None

    @property
    def m(self) -> int:
        return len(self.src)

    @property
    def weighted(self) -> bool:
        return self.weight is not None

    @property
    def edges(self) -> tuple[tuple, ...]:
        """``(u, v)`` or ``(u, v, w)`` tuples with ``u <= v``, in input order."""
        if self._edges is None:
            columns = [self.src.tolist(), self.dst.tolist()]
            if self.weight is not None:
                columns.append(self.weight.tolist())
            self._edges = tuple(zip(*columns))
        return self._edges

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists sorted ascending (the fixed rotation order). A
        self-loop lists its vertex once; parallel edges repeat."""
        if self._adjacency is None:
            heads, tails = _arcs(self)
            order = np.argsort(heads * self.n + tails, kind="stable")
            self._adjacency = _split(tails[order].tolist(), np.bincount(heads, minlength=self.n))
        return self._adjacency

    def degrees(self) -> list[int]:
        proper = self.src != self.dst
        degree = np.bincount(self.src, minlength=self.n) + np.bincount(self.dst[proper], minlength=self.n)
        return degree.tolist()

    def __repr__(self) -> str:
        kind = "multigraph" if self.multigraph else "graph"
        return f"<{kind} n={self.n} m={self.m} weighted={self.weighted}>"


def _has_edge(graph: Graph) -> np.ndarray:
    """Mask of the vertices with at least one edge."""
    mask = np.zeros(graph.n, dtype=bool)
    mask[graph.src] = True
    mask[graph.dst] = True
    return mask


def _arcs(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge in both directions, ``heads[i] -> tails[i]``; a self-loop
    once, as ``Graph.adjacency`` lists it."""
    proper = graph.src != graph.dst
    return np.concatenate((graph.src, graph.dst[proper])), np.concatenate((graph.dst, graph.src[proper]))


def _darts(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge i as two darts, 2i from ``src[i]`` to ``dst[i]`` and 2i+1 back:
    each dart's tail and head, its successor, and each vertex's first dart
    out, -1 at a vertex with none.

    A vertex's rotation lists its darts out by ascending head, ties by dart
    index. The successor of u -> v is the dart after v -> u in v's rotation,
    cyclically, so at a vertex of degree 2 it is the other dart out. On any
    multigraph the successors form a permutation of the darts.
    """
    n, size = graph.n, 2 * graph.m
    tails = np.empty(size, dtype=np.int64)
    heads = np.empty(size, dtype=np.int64)
    tails[0::2], tails[1::2] = graph.src, graph.dst
    heads[0::2], heads[1::2] = graph.dst, graph.src
    rotation = np.argsort(tails * n + heads, kind="stable")
    degree = np.bincount(tails, minlength=n)
    start = np.cumsum(degree) - degree
    # slot[d] is d's place in its tail's rotation; the twin of u -> v is
    # v -> u, dart d ^ 1.
    slot = np.empty(size, dtype=np.int64)
    slot[rotation] = np.arange(size) - start[tails[rotation]]
    succ = rotation[start[heads] + (slot[np.arange(size) ^ 1] + 1) % degree[heads]]
    first = np.full(n, -1, dtype=np.int64)
    first[degree > 0] = rotation[start[degree > 0]]
    return tails, heads, succ, first


def _vertex_ids(ids: np.ndarray) -> np.ndarray:
    if len(ids) == 0:
        return np.zeros(0, dtype=np.int64)
    if ids.dtype.kind not in "iu":
        raise GraphFormatError("vertex ids must be integers")
    return ids.astype(np.int64, copy=False)


def _int64_array(name: str, values) -> np.ndarray:
    """``values`` as int64, checked to be a 1-d integer array (an empty one
    of any dtype); TypeError otherwise."""
    values = np.asarray(values)
    if values.ndim != 1 or (values.size and values.dtype.kind not in "iu"):
        raise TypeError(f"{name} must be a 1-d integer array, not {values.dtype} of shape {values.shape}")
    return values.astype(np.int64, copy=False)


def _pair_shift(n: int) -> int:
    """The bits a vertex id below n takes in a packed pair key."""
    return int(max(n - 1, 0)).bit_length()


def _pack(shift: int, major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """``major << shift | minor``, in a new array of the inputs' dtype."""
    keys = np.left_shift(major, shift)
    keys |= minor
    return keys


def pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One int64 per unordered pair of vertex ids below n, ``min << s |
    max`` with s the bit length of n - 1: the keys sort like the ``(min,
    max)`` pairs, as ``min * n + max`` would, and decode with ``>> s`` and
    ``& (1 << s) - 1``."""
    return _pack(_pair_shift(n), np.minimum(u, v), np.maximum(u, v))


def slot_keys(n: int, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Store keys for adjacency lists laid end to end, ``owners`` naming
    each entry's vertex in ascending order: entry i of vertex v's list gets
    ``v * stride + i``. The stride is n, or a multigraph's largest degree
    when that is larger, so no two vertices share a key. Returns the keys,
    the degrees and the stride."""
    degree = np.bincount(owners, minlength=n)
    stride = max(n, int(degree.max(initial=0)))
    slots = np.arange(len(owners)) - (np.cumsum(degree) - degree)[owners]
    return owners * stride + slots, degree, stride


def simple_graph(n: int, src: np.ndarray, dst: np.ndarray, weight: Optional[np.ndarray] = None) -> Graph:
    """The simple graph of the given edges, which may contain self-loops and
    parallel edges: self-loops are dropped and each vertex pair keeps one
    edge, the lightest on weighted input. Edges come back sorted by
    ``(min, max)``: one sort of the pair keys (``pair_keys``), then the
    minimum weight of each run of equal keys."""
    src, dst = _vertex_ids(np.asarray(src)), _vertex_ids(np.asarray(dst))
    return _collapse(n, src, dst, weight, None)


def _collapse(n: int, u: np.ndarray, v: np.ndarray, weight: Optional[np.ndarray], ids: Optional[np.ndarray]) -> Graph:
    """``simple_graph`` of the edges ``u[i] -- v[i]`` on n vertices. u and v
    hold vertex ids when ``ids`` is None; otherwise they hold compact ids,
    and ``ids[c]`` is the vertex of compact id c, ascending, so pairs of
    compact ids sort as their vertex pairs do. Keys are packed in the dtype
    of u and v, which must hold twice the bits of an id and one more.
    Vertex ids are range-checked; compact ids are checked by the caller.
    The inputs are left unchanged, and every m-length temporary is reused
    in place or freed as soon as it is spent."""
    shift = _pair_shift(n if ids is None else len(ids))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loops = lo == hi
    if ids is None and len(lo) and (lo.min() < 0 or hi.max() >= n):
        # Only an edge that is not a self-loop is checked.
        outside = ~loops & ((lo < 0) | (hi >= n))
        if outside.any():
            i = int(np.argmax(outside))
            raise GraphFormatError(f"edge ({u[i]}, {v[i]}) out of range for n={n}")
        lo[loops] = hi[loops] = 0
    keys = lo
    keys <<= shift
    keys |= hi
    del lo, hi
    # Bit 2 * shift, above every pair, marks the self-loops: they sort last
    # and are cut off with no compaction pass.
    dropped = int(np.count_nonzero(loops))
    if dropped:
        keys |= np.left_shift(loops, 2 * shift, dtype=keys.dtype)
    del loops
    if weight is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys = keys[order]
    kept = len(keys) - dropped
    keys = keys[:kept]
    first = _first_of_runs(keys)
    if weight is not None:
        weight = weight[order[:kept]]
        if kept:
            weight = np.minimum.reduceat(weight, np.flatnonzero(first))
        del order
    if not first.all():
        keys = keys[first]
    del first
    lo = np.right_shift(keys, shift, dtype=np.int64)
    hi = np.bitwise_and(keys, (1 << shift) - 1, dtype=np.int64)
    del keys
    if ids is not None:
        lo, hi = ids[lo], ids[hi]
    graph = Graph.__new__(Graph)
    graph._store(n, lo, hi, weight, False, owned=True)
    return graph


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the elements of a sorted array that differ from their
    predecessor: the first of each run of equal values."""
    mask = np.ones(len(ordered), dtype=bool)
    mask[1:] = ordered[1:] != ordered[:-1]
    return mask


# Sorted inputs show their order in their first elements; a proof of
# strict ascent runs over a longer array only when this many pass.
_PROBE = 64


def _ascending(values: np.ndarray) -> bool:
    """Whether ``values`` is strictly ascending, so its values are distinct.
    A long array is tried on its first ``_PROBE`` values first, so that
    most arrays that do not ascend fail without a full pass."""
    head = values[:_PROBE]
    if len(values) > _PROBE and not (head[1:] > head[:-1]).all():
        return False
    return bool((values[1:] > values[:-1]).all())


def _pairs_ascending(n: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the pairs ``(lo[i], hi[i])`` strictly ascend in ``(lo, hi)``
    or in ``(hi, lo)`` order, which proves them distinct, since equal pairs
    give equal keys. An order is packed whole only when the first
    ``_PROBE`` pairs take it."""
    shift = _pair_shift(n)
    for major, minor in ((lo, hi), (hi, lo)):
        if _ascending(_pack(shift, major[:_PROBE], minor[:_PROBE])) and (
            len(major) <= _PROBE or _ascending(_pack(shift, major, minor))
        ):
            return True
    return False


def _absent(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` that do not occur in the sorted array ``ordered``."""
    if not len(ordered):
        return np.ones(len(values), dtype=bool)
    return ordered[np.searchsorted(ordered, values).clip(max=len(ordered) - 1)] != values


def _first_draws(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``draws``, ascending, and the index of each
    one's first occurrence."""
    order = np.argsort(draws)
    ordered = draws[order]
    starts = np.flatnonzero(_first_of_runs(ordered))
    return ordered[starts], np.minimum.reduceat(order, starts)


def _first_repeat(values: np.ndarray) -> Optional[int]:
    """The lowest index whose value occurs at an earlier index, if any; one
    sort, so callers try ``_ascending`` first."""
    if _first_of_runs(np.sort(values)).all():
        return None
    order = np.argsort(values, kind="stable")
    return int(order[~_first_of_runs(values[order])].min())


def _split(flat: list, counts: np.ndarray) -> list[list]:
    """Cut ``flat`` into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [flat[start:end] for start, end in zip([0] + ends[:-1], ends)]


@dataclass
class ComponentLabeling:
    """Component labels: ``label[v]`` is the representative of vertex v's
    component, as an int64 array. The constructor converts any sequence of
    ints once; every algorithm hands over its array as it is."""

    label: np.ndarray

    def __post_init__(self):
        self.label = np.asarray(self.label, dtype=np.int64)

    def canonical(self) -> list[int]:
        """Relabel by first occurrence so representative choice is immaterial."""
        return self.canonical_array().tolist()

    def canonical_array(self) -> np.ndarray:
        """``canonical()`` as an int64 array: each distinct representative
        is renumbered by the rank of its first occurrence."""
        reps, first, which = np.unique(self.label, return_index=True, return_inverse=True)
        rank = np.empty(len(reps), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(reps))
        return rank[which]

    def same_component(self, u: int, v: int) -> bool:
        return bool(self.label[u] == self.label[v])

    def component_count(self) -> int:
        return len(np.unique(self.label))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComponentLabeling):
            return NotImplemented
        return np.array_equal(self.canonical_array(), other.canonical_array())


def resolve_pointers(ptr: np.ndarray) -> np.ndarray:
    """Each element's root under a functional pointer array: the lowest id
    on the cycle its pointer chain ends in, so a fixed point is its own
    root. ``ptr`` is an int64 array over elements 0..n-1.

    Pointer doubling: after k rounds, ``low[i]`` is the lowest id of the
    2**k elements from i on and ``jump[i]`` the element 2**k steps on. With
    2**k > n every jump has left its tail and every window covers its cycle,
    so the root is ``low[jump]``.
    """
    low = np.arange(len(ptr))
    jump = ptr
    for _ in range(len(ptr).bit_length()):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    return low[jump]


def _rng(seed: int, *tags: int) -> np.random.Generator:
    """The generator seeded by ``seed`` (taken mod 2**64) and spawn key
    ``tags``: one independent stream per tag tuple."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed & ((1 << 64) - 1), spawn_key=tags))


def check_cycles(n: int, pieces: int) -> None:
    """Raise ValueError unless n vertices make ``pieces`` equal simple cycles."""
    if pieces not in (1, 2):
        raise ValueError("pieces must be 1 or 2")
    if pieces == 1 and n < 3:
        raise ValueError("a simple cycle needs n >= 3")
    if pieces == 2:
        if n % 2:
            raise ValueError("two equal cycles need even n")
        if n < 6:
            raise ValueError("two simple cycles need n >= 6")


def gen_cycles(n: int, pieces: int, seed: int) -> Graph:
    """A vertex-permuted single n-cycle, or two disjoint n/2-cycles."""
    check_cycles(n, pieces)
    order = _rng(seed, 0xC1).permutation(n)
    bounds = [(0, n)] if pieces == 1 else [(0, n // 2), (n // 2, n)]
    nxt = np.concatenate([lo + (np.arange(lo, hi) - lo + 1) % (hi - lo) for lo, hi in bounds])
    return Graph.from_arrays(n, order, order[nxt])


def check_random_graph(n: int, m: int) -> None:
    """Raise ValueError unless a simple graph on n vertices has m edges."""
    limit = n * (n - 1) // 2
    if not 0 <= m <= limit:
        raise ValueError(f"m={m} infeasible for n={n} (max {limit})")


def gen_random_graph(n: int, m: int, seed: int, weighted: bool = False) -> Graph:
    """Uniform simple graph with m edges; weights are a seeded permutation
    of 1..m when requested, so they are distinct by construction.

    Edge (v, u), v < u, is the code u(u-1)/2 + v in 0..n(n-1)/2 - 1. Codes
    are drawn in batches of max(64, 1.3 * need) while fewer than m are
    chosen, and each batch keeps its first ``need`` distinct codes not
    chosen before, in draw order (all of them if it has fewer). Edges come
    out sorted by code, that is by (u, v).

    No batch is argsorted whole. Its first ``need`` draws are sorted in
    place; dropping repeats and codes chosen before leaves the fresh codes
    first drawn there, and all of them are kept, since there are at most
    ``need`` and each is drawn before any code first drawn later. When m is
    far below n(n-1)/2 few of those draws repeat, and the shortfall is
    topped up from the draws that follow, in chunks that double in size:
    each chunk finds its codes' first draws by an argsort and keeps, in
    draw order, those not kept or chosen before, up to the shortfall.
    Chunk by chunk this is the rule above, so the kept codes, and with them
    the later batches, the edges and the weight permutation, are exactly
    those of one first-occurrence pass over each whole batch. Doubling
    keeps a batch that needs many chunks (near saturation) at
    O(batch log batch); topping up by the shortfall alone and sorting again
    would be quadratic there.
    """
    check_random_graph(n, m)
    limit = n * (n - 1) // 2
    rng = _rng(seed, 0x47)
    chosen = np.zeros(0, dtype=np.int64)  # sorted
    while len(chosen) < m:
        need = m - len(chosen)
        draw = rng.integers(0, limit, size=max(64, int(need * 1.3)))
        head = draw[:need]
        head.sort()
        kept = head[_first_of_runs(head)]
        if len(chosen):
            kept = kept[_absent(chosen, kept)]
        topped = np.zeros(0, dtype=np.int64)  # sorted
        short = need - len(kept)
        start, size = need, short
        while short and start < len(draw):
            codes, first = _first_draws(draw[start : start + size])
            fresh = _absent(chosen, codes) & _absent(kept, codes) & _absent(topped, codes)
            codes, first = codes[fresh], first[fresh]
            if len(codes) > short:
                codes = codes[first <= np.partition(first, short - 1)[short - 1]]
            topped = np.sort(np.concatenate((topped, codes)))
            short -= len(codes)
            start, size = start + size, 2 * size
        del draw, head
        if len(kept) or len(topped):  # near saturation most batches keep none
            chosen = np.concatenate((chosen, kept, topped))
            # Three sorted runs: the stable sort (timsort) merges them.
            chosen.sort(kind="stable")
        del kept, topped
    # Decode code c into the pair v < u with c = u(u-1)/2 + v: the codes of
    # u lie in [u(u-1)/2, u(u+1)/2), found by one search of the sorted codes.
    vertices = np.arange(n)
    triangle = vertices * (vertices - 1) // 2
    u = np.repeat(vertices, np.diff(np.searchsorted(chosen, triangle), append=m))
    v = chosen  # decoded in place
    v -= triangle[u]
    weights = rng.permutation(m) + 1 if weighted else None
    return Graph.from_arrays(n, v, u, weights)


def check_forest(n: int, trees: int) -> None:
    """Raise ValueError unless n vertices make ``trees`` trees."""
    if not 1 <= trees <= n:
        raise ValueError(f"need 1 <= trees <= n, got trees={trees} for n={n}")


def gen_random_forest(n: int, trees: int, seed: int) -> Graph:
    """Random-attachment forest with exactly ``trees`` components."""
    check_forest(n, trees)
    rng = _rng(seed, 0xF0)
    order = rng.permutation(n)
    # Vertex i attaches to a uniform earlier vertex; one draw per i, as
    # rng.integers(0, i) would make them one at a time.
    attach = np.arange(trees, n)
    parents = rng.integers(0, attach) if len(attach) else attach
    return Graph.from_arrays(n, order[attach], order[parents])


def write_graph(graph: Graph, fileobj) -> None:
    header = f"{graph.n} {graph.m}"
    if graph.weighted:
        header += " w"
    fileobj.write(header + "\n")
    for edge in graph.edges:
        fileobj.write(" ".join(str(x) for x in edge) + "\n")


def _weight(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        weight = float(text)
    if not math.isfinite(weight):
        raise ValueError(f"weight {text!r} is not finite")
    return weight


def read_graph(fileobj, multigraph: bool = False) -> Graph:
    """Parse the plain-text format: first line "n m [w]", then one edge per
    line. A weight is read as an int when its literal is an integer and as
    a finite float otherwise. Self-loops and duplicates are rejected outside
    multigraph mode; duplicate weights are always rejected."""
    lines = [ln.strip() for ln in fileobj if ln.strip()]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) not in (2, 3):
        raise GraphFormatError(f"bad header {lines[0]!r}")
    weighted = len(head) == 3 and head[2] == "w"
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != (3 if weighted else 2):
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            edge = (int(parts[0]), int(parts[1]))
            if weighted:
                edge += (_weight(parts[2]),)
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}") from exc
        edges.append(edge)
    return Graph(n, edges, weighted=weighted, multigraph=multigraph)
