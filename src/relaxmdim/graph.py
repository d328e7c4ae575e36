"""Immutable undirected graphs, BFS distance matrices, identification vectors,
equivalence partitions and verification of k-relaxed resolving sets.

Vertices are always the contiguous integers 0..n-1. Everything in this module
is a pure function of immutable inputs; :class:`Graph` and
:class:`DistanceMatrix` are safe to share across threads.

A :class:`Graph` is stored as one sorted, read-only CSR pair (row offsets
and the concatenated neighbour lists) and nothing else. The parser, the
samplers' integer pair arrays and parent arrays (in ``trees``) and induced
subgraphs write the two arrays from one sort of pair keys or one gather;
:meth:`Graph.from_edges` checks a hand-written edge list edge by edge into
neighbour sets first. The peel and the component labels work on the arrays
a round at a time, and the Python loops (BFS and the pendant-forest walk)
read them through memoryviews.

All-pairs distances split each component into its 2-core and the trees
hanging off it. The core's distances come from a bit-parallel multi-source
BFS (64 sources per machine word), run over blocks of sources so that its
memory grows with the block and not with the square of the core, or from
scipy's Dijkstra when the core's diameter is too large for it; each block
writes its sources' rows straight into the matrix, and every other row
follows from a parent row in one vectorized step. scipy is imported only by
that fallback. The matrix is
stored in the narrowest signed integer dtype that holds an upper bound on
the diameter. Distances are defined on connected graphs only: a
disconnected graph, or a matrix larger than physical memory, is refused
before the matrix is allocated, so every :class:`DistanceMatrix` holds
finite, nonnegative hop counts.

Statistics need only the sum and the maximum of the distances, so
:func:`graph_stats` reduces the same core search block by block of sources
and level by level, or Dijkstra's rows block by block, and adds the pendant
trees in closed form; it stores no matrix.
Partitions and the resolving check read a :class:`Metric`: one key per
vertex, equal exactly when the identification vectors are, and the widest
block, the largest distance between two vertices with equal vectors. A
matrix keys a vertex by its row of sensor distances; a tree metric
(``trees.TreeMetric``) keys it by its nearest vertex on the smallest
subtree holding the sensors and its distance to that vertex, and finds the
widest block from branch heights, with no distance columns at all.
"""

from __future__ import annotations

import io
import os
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain
from typing import Iterable, Iterator, Protocol, Sequence, TextIO

import numpy as np

#: The entry of a :func:`bfs_distances` row for a vertex the BFS never
#: reaches. No :class:`DistanceMatrix` holds it.
UNREACHABLE = -1

#: Largest double-sweep eccentricity of a 2-core for which all-pairs distances
#: run the bit-parallel BFS; above it the core goes to scipy's Dijkstra. A BFS
#: level costs O((n + m) * n / 64) word operations, so the BFS loses to
#: Dijkstra's O(n * (m + n log n)) once the levels number a few hundred.
BIT_BFS_MAX_LEVELS = 256

# CSR entries per block of Graph.edges(): a block's row ids, flags and two
# lists of Python ints take about 80 bytes an entry, 1.3 MB in all.
_EDGE_BLOCK = 1 << 14

# Most rows in a block of Dijkstra rows.
_ROW_BLOCK = 1024

# Largest number of entries in a block of Dijkstra rows (scipy returns them
# as float64).
_BLOCK_ENTRIES = 1 << 22

#: An ordered sequence of distinct vertex ids acting as sensors.
SensorSet = Sequence[int]


class TooLargeError(RuntimeError):
    """Raised when a computation is refused on resource grounds: an
    exhaustive search over too many vertices, a distance matrix or a
    sample larger than physical memory, or a conditioned tree size that
    rejection sampling does not reach."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph stored as one sorted, read-only CSR pair.

    The neighbours of vertex v are ``indices[indptr[v]:indptr[v + 1]]``,
    ascending. The two intp arrays are the only stored form, and every read
    of the graph goes to them. Invariants: adjacency is symmetric, has no
    self-loops and no duplicate neighbors. Use :meth:`from_edges` to
    construct with validation.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @classmethod
    def from_adjacency(cls, rows: Sequence[Sequence[int]]) -> "Graph":
        """The graph whose row v lists the neighbours of v, as given: nothing
        is checked (see :meth:`validate`)."""
        indptr = np.array([0, *accumulate(map(len, rows))], dtype=np.intp)
        return cls(indptr, np.array([*chain.from_iterable(rows)], dtype=np.intp))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices)

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def m(self) -> int:
        return self.indices.size // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, ordered by u and
        then by v. The pairs are made a block of rows at a time, so only one
        block's lists of Python ints are held."""
        return chain.from_iterable(self._edge_blocks())

    def _edge_blocks(self) -> Iterator[Iterator[tuple[int, int]]]:
        """The edges of :meth:`edges`, one block of rows at a time."""
        for rows, nbrs in self._entry_blocks():
            up = rows < nbrs
            yield zip(rows[up].tolist(), nbrs[up].tolist())

    def _entry_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The CSR entries as arrays of (row ids, neighbours), one block of
        rows at a time: as many rows as hold at most ``_EDGE_BLOCK`` entries
        together, or one row alone if it holds more."""
        indptr, indices = self.indptr, self.indices
        lo = 0
        while lo < self.n:
            hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + _EDGE_BLOCK, side="right")) - 1)
            yield np.repeat(np.arange(lo, hi), np.diff(indptr[lo : hi + 1])), indices[indptr[lo] : indptr[hi]]
            lo = hi

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on vertices 0..n-1, rejecting loops and duplicates:
        one neighbour set per vertex, in input order, so the error raised
        names the first bad edge."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls.from_adjacency([sorted(s) for s in nbrs])

    def validate(self) -> None:
        """Re-check all structural invariants; raises ValueError on violation."""
        n, indptr, indices = self.n, self.indptr, self.indices
        if n < 0 or indptr[0] != 0 or indptr[-1] != indices.size or (np.diff(indptr) < 0).any():
            raise ValueError("row offsets do not split the neighbour list")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        for bad, message in (
            ((indices < 0) | (indices >= n), "neighbor {v} of {u} out of range"),
            (indices == rows, "self-loop at vertex {u}"),
            # the first entry of a row that is not above the one before it
            (np.concatenate(([False], (rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1]))),
             "adjacency of {u} not sorted/deduplicated"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(message.format(u=int(rows[i]), v=int(indices[i])))
        # rows ascend and so do their entries, so the keys u * n + v are sorted
        # already; the graph is symmetric iff the keys v * n + u are the same
        forward = rows * n + indices
        reverse = np.sort(indices * n + rows)
        missing = forward != reverse
        if missing.any():
            i = int(np.argmax(missing))
            raise ValueError(f"asymmetric edge ({int(rows[i])}, {int(indices[i])})")


def _pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The keys ``src * n + dst`` of the pairs {u[i], v[i]} in both
    orientations, sorted: row src of a graph, in order, with its entries.
    They are made and sorted in one int64 buffer, with no second array of
    the same length."""
    if n * n >= 1 << 63:  # past int64
        raise TooLargeError(f"pair keys of {n} vertices overflow int64")
    m = len(u)
    key = np.empty(2 * m, dtype=np.int64)
    key[:m], key[m:] = u, v
    key *= max(n, 1)
    key[:m] += v
    key[m:] += u
    key.sort()
    return key


def _graph_from_keys(n: int, key: np.ndarray) -> Graph:
    """The graph on vertices 0..n-1 whose directed pairs have the sorted,
    distinct keys ``src * n + dst`` (see :func:`_pair_keys`). The buffer
    ``key`` becomes the graph's ``indices``, overwritten in place."""
    indptr = np.searchsorted(key, np.arange(0, n * n + 1, max(n, 1)))
    np.remainder(key, max(n, 1), out=key)
    return Graph(indptr, key)


def _row_sums(g: Graph, values: np.ndarray) -> np.ndarray:
    """The sum of ``values`` (one per CSR entry of ``g``: booleans or vertex
    ids) over each row, as intp: one ``reduceat`` at the rows' starts, with
    no array as long as the entries made. The rows that start at the end of
    the entries are left out of it, and every empty row reads 0."""
    indptr = g.indptr
    sums = np.zeros(g.n, dtype=np.intp)
    inside = int(np.searchsorted(indptr[:-1], values.size))  # rows that start before the end
    if inside:
        np.add.reduceat(values, indptr[:inside], dtype=np.intp, out=sums[:inside])
        sums[indptr[1:] == indptr[:-1]] = 0  # reduceat reads one entry of an empty row
    return sums


def _graph_from_pairs(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph on vertices 0..n-1 with the undirected edges {u[i], v[i]}:
    :meth:`Graph.from_edges` on integer arrays.

    One sort of the pair keys (see :func:`_pair_keys`) gives the CSR arrays.
    ``from_edges``' three checks run on the arrays: an id out of range, a
    self-loop, and a repeated pair (equal neighbouring keys). When one fails,
    ``from_edges`` itself reads the pairs, so the error raised names the
    first bad edge in input order, with its message.
    """
    key = _pair_keys(n, u, v)
    u = np.asarray(u)
    v = np.asarray(v)
    outside = u.size and (min(int(u.min()), int(v.min())) < 0 or max(int(u.max()), int(v.max())) >= n)
    if outside or bool((u == v).any()) or bool((key[1:] == key[:-1]).any()):
        Graph.from_edges(n, zip(u.tolist(), v.tolist()))
    return _graph_from_keys(n, key)


def _erase_loops_and_repeats(n: int, u: np.ndarray, v: np.ndarray) -> tuple[Graph, int, int]:
    """The graph on vertices 0..n-1 with the undirected edges {u[i], v[i]},
    self-loops and repeated pairs erased, and how many of each were erased.
    One sort of the pair keys (see :func:`_pair_keys`) puts each row in
    order and counts the rest: a loop's keys are the multiples of n + 1, and
    a repeated pair repeats its two keys. The kept keys are moved to the
    front of the same buffer a block at a time, and the buffer is cut to
    them, so no second array of keys is made."""
    key = _pair_keys(n, u, v)
    at = loops = 0
    for lo in range(0, key.size, _KEY_BLOCK):
        part = key[lo : lo + _KEY_BLOCK]
        proper = part % (n + 1) != 0
        loops += part.size - int(np.count_nonzero(proper))
        # the first of each run of equal keys; runs may cross the block's start
        proper[1:] &= part[1:] != part[:-1]
        if lo:
            proper[0] &= part[0] != key[lo - 1]
        part = part[proper]
        key[at : at + part.size] = part
        at += part.size
    size = key.size
    if at < size:
        key.resize(at, refcheck=False)  # only this function holds the buffer
    return _graph_from_keys(n, key), loops // 2, (size - loops - at) // 2


# Characters of whole lines the parser reads and splits at a time: one
# str.splitlines per batch, not per line, parses as fast as splitting the
# whole text, in about 0.5 MB.
_PARSE_BATCH = 1 << 16

# Keys per block of the in-place erasure: its remainders, flags and kept
# keys take at most 18 bytes a key, about 1.2 MB.
_KEY_BLOCK = 1 << 16


@dataclass(frozen=True)
class LoadResult:
    """Outcome of parsing an edge list: the graph, the id-to-label mapping and
    how many duplicate edges / self-loops were dropped."""

    graph: Graph
    labels: tuple[str, ...]
    duplicate_edges: int
    self_loops: int


def load_edge_list(source: str | TextIO) -> LoadResult:
    """Parse a whitespace-separated edge list into a :class:`Graph`.

    Each non-comment line holds two tokens (integer or string endpoints);
    ``#`` starts a comment. Tokens are mapped to contiguous ids 0..n-1 in
    first-appearance order. Duplicate edges and self-loops are dropped and
    counted. A malformed line raises ValueError with its line number.

    A stream is read in batches of whole lines of about ``_PARSE_BATCH``
    characters, and a string as a stream over it; each batch is split by
    ``str.splitlines``, so lines end where the whole text's ``splitlines``
    would end them. A dict maps the tokens to ids, which go into one array
    of 8 bytes an endpoint: no token list and no whole text is held.
    :func:`_erase_loops_and_repeats` builds the graph after the dict is
    dropped.
    """
    stream = source if hasattr(source, "read") else io.StringIO(source)
    batches = iter(partial(stream.readlines, _PARSE_BATCH), [])
    ids: dict[str, int] = {}
    ends = array("q")
    for lineno, raw in enumerate(chain.from_iterable("".join(b).splitlines() for b in batches), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if len(tokens) == 2:
            ends.append(ids.setdefault(tokens[0], len(ids)))
            ends.append(ids.setdefault(tokens[1], len(ids)))
        elif tokens:
            raise ValueError(f"line {lineno}: expected two endpoint tokens, got {len(tokens)}")
    labels = tuple(ids)
    del ids
    flat = np.frombuffer(ends, dtype=np.int64)
    graph, loops, repeats = _erase_loops_and_repeats(len(labels), flat[0::2], flat[1::2])
    return LoadResult(graph, labels, repeats, loops)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from ``source`` to every vertex (UNREACHABLE if none)."""
    indptr, indices = memoryview(g.indptr), memoryview(g.indices)
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in indices[indptr[u] : indptr[u + 1]]:
            if dist[w] == UNREACHABLE:
                dist[w] = du
                queue.append(w)
    return dist


def _component_labels(g: Graph) -> np.ndarray:
    """Each vertex's component, named by its smallest vertex, as an intp
    array: hooking and pointer jumping (Shiloach & Vishkin 1982) on arrays.

    The labels form a forest in which every vertex points at a smaller
    vertex or at itself, a root. The first round reads the CSR rows: each
    vertex hooks onto its smallest neighbour, the first of its sorted row,
    when that one is smaller, and pointer jumping makes every tree a star.
    The edges between two stars are then listed once, as (smaller root,
    larger root), a block of rows at a time. Each later round hooks every
    larger root onto the smallest root it is paired with, jumps the hooked
    roots to their new roots and drops the pairs that now lie in one tree,
    until none is left. A last jump takes every vertex to its root. A
    component's smallest vertex never hooks, so it is the root.

    Hooking onto the smallest partner bounds the rounds by O(log n): a root
    left unhooked is smaller than all its partners, and one left unhooked
    in the next round as well has absorbed a root hooked in this one, so
    the roots of a component after two rounds number at most the roots
    hooked in the first, and r_{t+2} <= r_t - r_{t+1}. Hooking onto any
    partner instead can merge one pair a round: O(n^2) on a spider whose
    legs end at the smallest ids.
    """
    indptr, indices = g.indptr, g.indices
    label = np.arange(g.n)
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    smallest = indices[indptr[rows]]
    hooked = smallest < rows
    rows = rows[hooked]
    label[rows] = smallest[hooked]
    _jump(label, rows)
    small_parts, large_parts = [], []
    for rows, nbrs in g._entry_blocks():
        a, b = label[rows], label[nbrs]
        cross = a < b  # each edge between two stars once
        small_parts.append(a[cross])
        large_parts.append(b[cross])
    small = np.concatenate(small_parts) if small_parts else label[:0]
    large = np.concatenate(large_parts) if large_parts else label[:0]
    del small_parts, large_parts
    while small.size:
        key = large * g.n + small
        key.sort()  # by root, its smallest partner first
        roots = key // g.n
        first = np.ones(key.size, dtype=bool)
        np.not_equal(roots[1:], roots[:-1], out=first[1:])
        roots = roots[first]
        label[roots] = key[first] - roots * g.n
        _jump(label, roots)
        a, b = label[small], label[large]
        cross = a != b
        a, b = a[cross], b[cross]
        small, large = np.minimum(a, b), np.maximum(a, b)
    _jump(label, np.flatnonzero(label[label] != label))
    return label


def _jump(label: np.ndarray, moving: np.ndarray) -> None:
    """Pointer jumping on the vertices ``moving`` of a label forest, in
    place: each one's label is replaced by its label's label, and a vertex
    leaves once it points at a root. A moving vertex ends at its root when
    every vertex on its chain that is not moving points at a root."""
    while moving.size:
        up = label[moving]
        top = label[up]
        label[moving] = top
        moving = moving[top != up]


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending,
    ordered by smallest contained vertex: the vertices in order of their
    labels (see :func:`_component_labels`), cut at each label's count."""
    label = _component_labels(g)
    members = np.argsort(label, kind="stable").tolist()
    sizes = np.bincount(label)
    ends = list(accumulate(sizes[sizes > 0].tolist()))
    return [members[a:b] for a, b in zip([0, *ends[:-1]], ends)]


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled to 0..len-1 in ascending
    original-id order. Returns (subgraph, new-id -> original-id map)."""
    index = np.full(g.n, -1, dtype=np.intp)
    index[np.asarray(vertices, dtype=np.intp)] = 0
    keep = np.flatnonzero(index == 0)
    index[keep] = np.arange(keep.size)
    starts = g.indptr[keep]
    bounds = np.zeros(keep.size + 1, dtype=np.intp)
    np.cumsum(g.indptr[keep + 1] - starts, out=bounds[1:])
    # the kept rows' entries, row after row
    at = np.repeat(starts - bounds[:-1], np.diff(bounds))
    at += np.arange(bounds[-1])
    nbrs = index[g.indices[at]]
    inside = nbrs >= 0
    # index is increasing on keep, so every relabeled row stays sorted
    indptr = np.concatenate(([0], np.cumsum(inside)))[bounds]
    return Graph(indptr, nbrs[inside]), tuple(keep.tolist())


def largest_connected_component(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the largest component (ties: smallest contained
    original id), relabeled contiguously. Returns (subgraph, relabel map);
    a connected graph is its own largest component."""
    if g.n == 0:
        raise ValueError("empty graph has no connected component")
    label = _component_labels(g)
    if not label.any():
        return g, tuple(range(g.n))
    sizes = np.bincount(label)
    best = np.flatnonzero(sizes == sizes.max())[0]  # the first largest: smallest min-id
    return induced_subgraph(g, np.flatnonzero(label == best))


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path hop counts of a connected graph.

    Every entry is a finite, nonnegative distance: a matrix with a negative
    entry, such as UNREACHABLE, raises ValueError.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.size and int(self.matrix.min()) < 0:
            raise ValueError(
                "a distance matrix holds the nonnegative distances of a connected "
                "graph; apply largest_connected_component first"
            )
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def d(self, u: int, v: int) -> int:
        return int(self.matrix[u, v])

    @cached_property
    def diameter(self) -> int:
        """Largest distance (0 for the empty/one-vertex graph)."""
        if self.n == 0:
            return 0
        return int(self.matrix.max())

    def profile_keys(self, sensors: Sequence[int]) -> np.ndarray:
        """Each vertex's row of distances to the sensors, as one raw-bytes key."""
        rows = np.ascontiguousarray(self.matrix[:, sensors])
        return rows.view(np.dtype((np.void, rows.itemsize * len(sensors)))).ravel()

    def widest_block(self, sensors: Sequence[int]) -> int:
        """The largest distance within one block of vertices sharing an
        identification vector, from each shared block's submatrix (0 if
        none); with no sensors, the diameter, read with no matrix copy."""
        if not sensors:
            return self.diameter
        order, sizes = _profile_runs(self, sensors)
        shared = sizes > 1
        blocks = _runs_as_blocks(order[np.repeat(shared, sizes)], sizes[shared])
        return max((int(self.matrix[b[:, None], b].max()) for b in map(np.array, blocks)), default=0)


class Metric(Protocol):
    """What the labelling helper and the resolving check read of a graph's
    distances: a key per vertex that stands for its identification vector,
    and the widest block those vectors leave. :class:`DistanceMatrix` and
    ``trees.TreeMetric`` answer both."""

    @property
    def n(self) -> int: ...

    def profile_keys(self, sensors: Sequence[int]) -> np.ndarray:
        """One sortable key per vertex for a nonempty sensor set: two keys
        are equal iff the two identification vectors are."""
        ...

    def widest_block(self, sensors: Sequence[int]) -> int:
        """The largest distance between two vertices with the same
        identification vector (the diameter for no sensors)."""
        ...


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Hop counts between all vertex pairs of a connected graph, as a
    read-only matrix.

    One BFS from vertex 0 comes first. If it misses a vertex, the graph is
    disconnected and ValueError is raised, naming largest_connected_component
    (``--lcc`` on the command line). Otherwise twice its eccentricity
    bounds the diameter, and the dtype is the narrowest signed integer one
    holding that bound (see :func:`distance_dtype`). A matrix larger than
    physical memory raises :class:`TooLargeError`. Both refusals come before
    the n x n allocation.

    Peeling the vertices of degree <= 1 leaves the 2-core. The core's own
    distances come from a bit-parallel multi-source BFS, or from scipy's
    Dijkstra when the core's diameter exceeds BIT_BFS_MAX_LEVELS. A peeled
    vertex x hangs from one core vertex a(x) at depth h(x), so a core row u
    reads d(u, x) = d(u, a(x)) + h(x). In DFS preorder, each peeled vertex
    then takes its parent's row plus one, minus two on its own subtree. A
    tree starts from vertex 0, whose row is the depth. Trees and paths thus
    cost O(n^2), the size of the output.
    """
    n = g.n
    dtype = distance_dtype(2 * _eccentricity_of_0(g) if n else 0)
    _refuse_beyond_memory(n * n * dtype.itemsize, f"all-pairs distances of {n} vertices as {dtype} need")
    out = np.empty((n, n), dtype=dtype)
    if n:
        _component_distances(g, out)
    return DistanceMatrix(out)


def distance_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype holding 0..``bound``. No distance
    is negative; the dtype stays signed, as readers of the matrix expect."""
    return np.min_scalar_type(-bound - 1)


def _physical_memory() -> int:
    """Bytes of physical memory: the most any one refused allocation may take."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _refuse_beyond_memory(need: int, what: str) -> None:
    """Raise :class:`TooLargeError` when ``need`` bytes exceed physical
    memory, read at the call, so a patched :func:`_physical_memory` reaches
    every caller: the distance matrix, the BFS bitsets, greedy's pair list
    and the samplers. ``what`` opens the message and names the bytes."""
    limit = _physical_memory()
    if need > limit:
        raise TooLargeError(f"{what} {need / 1e9:.1f} GB, more than the {limit / 1e9:.1f} GB of physical memory")


def _eccentricity_of_0(g: Graph) -> int:
    """The eccentricity of vertex 0 of a nonempty graph. A disconnected graph
    raises ValueError naming the way out."""
    dist = bfs_distances(g, 0)
    if UNREACHABLE in dist:
        raise _disconnected()
    return max(dist)


def _disconnected() -> ValueError:
    """The refusal of a disconnected graph, naming the way out."""
    return ValueError(
        "graph is not connected; distances are defined on connected graphs "
        "only: apply largest_connected_component first (--lcc on the command line)"
    )


@dataclass(frozen=True)
class _PendantForest:
    """A connected graph split into its 2-core and the trees hanging off it,
    or a tree rooted at vertex 0.

    ``core`` lists the core vertices ascending (empty for a tree). Every
    other vertex x has a parent one step closer to the core, a depth h(x)
    and an anchor a(x), the core vertex its tree hangs from; core vertices
    and a tree's root are their own anchors at depth 0. ``preorder`` is a
    DFS preorder in which each core vertex comes before the trees hanging
    from it, so every subtree is a contiguous run of ``size`` vertices.
    """

    core: list[int]
    parent: list[int]
    depth: list[int]
    anchor: list[int]
    preorder: list[int]

    @cached_property
    def size(self) -> list[int]:
        """Each subtree's vertex count, summed on first read."""
        size, parent = [1] * len(self.parent), self.parent
        for v in reversed(self.preorder):
            if parent[v] >= 0:
                size[parent[v]] += size[v]
        return size


def _pendant_forest(g: Graph, core: list[int]) -> _PendantForest:
    """The rooted walk of all-pairs distances and the statistics: from the
    2-core ``core`` of a connected graph into the trees hanging off it, or
    from vertex 0 of a tree when ``core`` is empty. Each vertex is marked
    as it is pushed, so on a graph with a cycle off the core the walk ends
    early, its preorder short."""
    n = g.n
    indptr, indices = memoryview(g.indptr), memoryview(g.indices)
    parent = [-1] * n
    depth = [0] * n
    anchor = [-1] * n
    seen = [False] * n
    stack = list(core) or [0]
    for v in stack:
        seen[v] = True
        anchor[v] = v
    preorder: list[int] = []
    while stack:
        v = stack.pop()
        preorder.append(v)
        d, a = depth[v] + 1, anchor[v]
        for w in indices[indptr[v] : indptr[v + 1]]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                depth[w] = d
                anchor[w] = a
                stack.append(w)
    return _PendantForest(core, parent, depth, anchor, preorder)


def _unpeeled(n: int, rounds: list[list[int]]) -> list[int]:
    """The vertices of 0..n-1 that no round of a peel removed, ascending."""
    alive = np.ones(n, dtype=bool)
    alive[np.fromiter(chain.from_iterable(rounds), dtype=np.intp)] = False
    return np.flatnonzero(alive).tolist()


def _core_graph(g: Graph, core: list[int]) -> Graph:
    """The 2-core ``core`` of ``g`` as a graph: ``g`` itself when no tree
    hangs off it, with no copy of its arrays."""
    return g if len(core) == g.n else induced_subgraph(g, core)[0]


def _component_distances(g: Graph, out: np.ndarray) -> None:
    """Write the distances of a connected graph with n >= 1 into ``out``,
    whose dtype holds its diameter."""
    n = g.n
    forest = _pendant_forest(g, np.flatnonzero(_peel(g, None)[0] == 0).tolist())
    core = forest.core
    if core:
        core_ids = np.array(core)
        where = np.empty(n, dtype=np.intp)
        where[core_ids] = np.arange(len(core))
        # a core row reads column x at x's anchor, plus x's depth
        blocks = _core_rows(_core_graph(g, core), out.dtype, where[forest.anchor])
        depth_col = np.array(forest.depth, dtype=out.dtype)
        for rows, block in blocks:
            if len(core) < n:
                block += depth_col
            out[core_ids[rows]] = block
    else:
        out[0] = forest.depth
    preorder, parent, size = forest.preorder, forest.parent, forest.size
    pre = np.array(preorder, dtype=np.intp)
    for i, v in enumerate(preorder):
        p = parent[v]
        if p < 0:
            continue
        row = out[v]
        # at most the diameter plus one: the bound is even and the dtype's
        # maximum odd, so this fits
        np.add(out[p], 1, out=row)
        row[pre[i : i + size[v]]] -= 2


def _needs_dijkstra(core: Graph) -> bool:
    """Whether the bit-parallel BFS on a connected graph of minimum degree
    >= 2 would run too many levels.

    It runs L levels, L the largest eccentricity. A double sweep (the
    eccentricity of the vertex farthest from vertex 0) gives a lower bound e
    with e <= L <= 2e that is usually exact; above BIT_BFS_MAX_LEVELS the
    core goes to scipy's Dijkstra.
    """
    return _double_sweep(core) > BIT_BFS_MAX_LEVELS


def _double_sweep(g: Graph) -> int:
    """The eccentricity of the vertex farthest from vertex 0 of a nonempty
    connected graph: at least half its diameter, and on a tree the
    diameter itself."""
    dist = bfs_distances(g, 0)
    return max(bfs_distances(g, dist.index(max(dist))))


def _core_rows(core: Graph, dtype: np.dtype, columns: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Distances of a connected graph of minimum degree >= 2, as blocks of
    (row ids, rows in ``dtype``): entry (i, x) of a block is the distance
    from vertex ``rows[i]`` to vertex ``columns[x]``."""
    engine = _dijkstra_rows if _needs_dijkstra(core) else _bit_bfs_rows
    return engine(core, dtype, columns)


# Source words per block of the bit-parallel BFS: 64 * _BLOCK_WORDS sources
# search together, in bitsets of 32 * n * _BLOCK_WORDS bytes. Fewer words pay
# the per-level array calls more often; more words leave the cache. On the
# largest component of rgg(5000, 1.5, seed=7) (48 levels; best of 3 on a
# 2-core x86-64 host), 4, 8, 16 and 32 words took 0.56, 0.50, 0.46 and 0.55 s
# for the statistics and 0.57, 0.53, 0.52 and 0.65 s for all-pairs distances:
# 8 words is about as fast as 16, in half the memory.
_BLOCK_WORDS = 8

_Levels = Iterator[tuple[np.ndarray, np.ndarray]]


def _bit_bfs(core: Graph) -> tuple[np.ndarray, Iterator[tuple[slice, _Levels]]]:
    """Multi-source BFS from every vertex (Then et al., VLDB 2014), over
    blocks of ``_BLOCK_WORDS`` source words, 64 sources a word.

    Returns ``order`` and an iterator over the blocks, each the slice of
    source words it covers and an iterator over its levels 1, 2, ..., L, L
    the largest eccentricity of its own sources. Row i of a level belongs to
    vertex ``order[i]`` and holds two bitsets over the block's sources, one
    uint64 word per source word: bit t of word j is source 64 * (start + j)
    + t, so bits stand for vertex ids, and bits past n stay clear. They are
    the sources that reached the row at the last level (``frontier``) and
    those that have not reached it yet (``unvisited``). A level is ``next =
    OR of the neighbours' frontiers, AND unvisited``. With rows sorted by
    degree, neighbour slot s is one ``take`` and one in-place OR on the
    prefix of rows of degree > s. Level d yields (``next``, ``unvisited``)
    before ``next`` leaves ``unvisited``: the sources at distance exactly d,
    and at distance d or more. Both are overwritten by the next level, and
    the search drops a block's arrays before it makes the next block's. Cost:
    O(L * (n + m) * n / 64) word operations. The four bitset arrays of a
    block take 32 * n * min(_BLOCK_WORDS, ceil(n / 64)) bytes; more than
    physical memory raises :class:`TooLargeError` before they are allocated.
    """
    n = core.n
    words = (n + 63) // 64
    width = min(_BLOCK_WORDS, words)
    _refuse_beyond_memory(4 * n * width * 8, f"the bit-parallel BFS of a {n}-vertex 2-core needs")
    indptr, indices = core.indptr, core.indices
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    starts = indptr[order]
    above = n - np.cumsum(np.bincount(degree))[:-1]  # rows of degree > s, per slot s
    slots = [rank[indices[starts[:k] + s]] for s, k in enumerate(above.tolist())]

    def levels(lo: int, hi: int) -> _Levels:
        sources = np.arange(64 * lo, min(n, 64 * hi))
        frontier = np.zeros((n, hi - lo), dtype=np.uint64)
        bit = np.left_shift(np.uint64(1), (sources & 63).astype(np.uint64))
        frontier[rank[sources], (sources >> 6) - lo] = bit
        unvisited = ~frontier
        if hi == words:
            unvisited[:, -1] &= _source_mask(np.ones(n, dtype=bool))[-1]
        nxt = np.empty_like(frontier)
        scratch = np.empty_like(frontier)
        while True:
            # mode "clip" writes straight into out; the default "raise" buffers
            np.take(frontier, slots[0], axis=0, out=nxt, mode="clip")
            for slot in slots[1:]:
                k = len(slot)
                np.take(frontier, slot, axis=0, out=scratch[:k], mode="clip")
                np.bitwise_or(nxt[:k], scratch[:k], out=nxt[:k])
            np.bitwise_and(nxt, unvisited, out=nxt)
            if not nxt.any():
                return
            yield nxt, unvisited
            np.bitwise_xor(unvisited, nxt, out=unvisited)
            frontier, nxt = nxt, frontier

    spans = [slice(lo, min(words, lo + width)) for lo in range(0, words, width)]
    return order, ((span, levels(span.start, span.stop)) for span in spans)


def _source_mask(flags: np.ndarray) -> np.ndarray:
    """The bitset over the sources of :func:`_bit_bfs` holding those flagged."""
    words = (flags.size + 63) // 64
    packed = np.zeros(words * 8, dtype=np.uint8)
    bits = np.packbits(flags, bitorder="little")
    packed[: bits.size] = bits
    return packed.view("<u8").astype(np.uint64)


def _bit_bfs_rows(core: Graph, dtype: np.dtype, columns: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The distances of :func:`_bit_bfs` as :func:`_core_rows` gives them,
    64 sources at a time: the sources of one word are a block's rows, and
    the distances are symmetric, so row s reads column x off BFS row
    ``columns[x]``, bit s.

    A block of the search keeps its distances as bit-planes (plane b holds
    bit b of every distance) and unpacks them after its last level, word by
    word and byte by byte, reading only the planes' rows of ``columns``.
    """
    n = core.n
    order, blocks = _bit_bfs(core)
    at = np.empty(n, dtype=np.intp)
    at[order] = np.arange(n)
    at = at[columns]  # the BFS row of each column
    width = dtype.itemsize
    for words, levels in blocks:
        planes: list[np.ndarray] = []
        for level, (_, unvisited) in enumerate(levels, start=1):
            # bit b of a distance d is the parity of the multiples of 2**b in
            # 1..d, and d >= level holds exactly on the bits still unvisited,
            # so plane b flips there at every level that 2**b divides
            for b in range((level & -level).bit_length()):
                if b == len(planes):
                    planes.append(unvisited.copy())
                else:
                    np.bitwise_xor(planes[b], unvisited, out=planes[b])
        for j in range(words.stop - words.start):
            first = 64 * (words.start + j)
            count = min(64, n - first)
            block = np.zeros((at.size, count), dtype=dtype)
            # byte i of every entry: plane b is bit b % 8 of byte b // 8
            entry_bytes = block.view(np.uint8).reshape(at.size, count, width)
            for b, plane in enumerate(planes):
                bytes_ = plane[at, j].astype("<u8", copy=False).view(np.uint8).reshape(at.size, 8)
                bits = np.unpackbits(bytes_, axis=1, count=count, bitorder="little")
                np.left_shift(bits, b % 8, out=bits)
                i = b // 8 if sys.byteorder == "little" else width - 1 - b // 8
                np.bitwise_or(entry_bytes[:, :, i], bits, out=entry_bytes[:, :, i])
            yield np.arange(first, first + count), block.T


def _dijkstra_rows(core: Graph, dtype: np.dtype, columns: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """scipy's unweighted Dijkstra over blocks of sources (imported lazily),
    as :func:`_core_rows` gives them."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = core.n
    indices = core.indices
    adj = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, core.indptr), shape=(n, n))
    step = max(1, min(_ROW_BLOCK, _BLOCK_ENTRIES // n))
    for start in range(0, n, step):
        rows = np.arange(start, min(n, start + step))
        # the adjacency is symmetric, so the directed search is the undirected one
        dist = shortest_path(adj, method="D", directed=True, unweighted=True, indices=rows)
        yield rows, dist.astype(dtype)[:, columns]


def _check_sensors(n: int, sensors: SensorSet) -> list[int]:
    s = list(sensors)
    if len(set(s)) != len(s):
        raise ValueError("sensor set contains duplicates")
    for v in s:
        if not 0 <= v < n:
            raise ValueError(f"sensor {v} out of range for n={n}")
    return s


def identification_vector(dm: DistanceMatrix, u: int, sensors: SensorSet) -> tuple[int, ...]:
    """Distances from ``u`` to each sensor, in sensor order. Empty sensor set
    gives the empty vector (all vertices equivalent)."""
    s = _check_sensors(dm.n, sensors)
    if not 0 <= u < dm.n:
        raise ValueError(f"vertex {u} out of range")
    return tuple(int(dm.matrix[u, v]) for v in s)


@dataclass(frozen=True)
class EquivalencePartition:
    """Vertices grouped by identical identification vector.

    ``blocks`` partition 0..n-1, each sorted ascending and ordered by their
    smallest member. ``alpha`` is the largest block size and
    ``non_resolved_count`` the number of vertices in blocks of size > 1.
    """

    blocks: tuple[tuple[int, ...], ...]
    alpha: int
    non_resolved_count: int

    def histogram(self) -> dict[int, int]:
        """Block-size histogram, singletons excluded."""
        hist: dict[int, int] = {}
        for b in self.blocks:
            if len(b) > 1:
                hist[len(b)] = hist.get(len(b), 0) + 1
        return hist


def _profile_runs(dm: Metric, sensors: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Vertices grouped by identification vector: every vertex, ordered so
    that each group is one ascending run, and the length of each run. One
    stable sort of the metric's keys puts equal vectors next to each other,
    in vertex order."""
    n = dm.n
    if not sensors:
        return np.arange(n), np.array([n] if n else [], dtype=np.intp)
    keys = dm.profile_keys(sensors)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return order, np.diff(starts, append=n)


def _runs_as_blocks(order: np.ndarray, sizes: np.ndarray) -> list[tuple[int, ...]]:
    """The runs of ``order`` of lengths ``sizes`` as tuples of Python ints,
    ordered by smallest (first) member."""
    members = order.tolist()
    ends = list(accumulate(sizes.tolist()))
    blocks = [tuple(members[a:b]) for a, b in zip([0, *ends[:-1]], ends)]
    blocks.sort()
    return blocks


def equivalence_partition(dm: Metric, sensors: SensorSet) -> EquivalencePartition:
    """Group vertices by identification vector with respect to ``sensors``.
    ``dm`` is a :class:`DistanceMatrix` or a ``trees.TreeMetric``."""
    blocks = tuple(_runs_as_blocks(*_profile_runs(dm, _check_sensors(dm.n, sensors))))
    if not blocks:
        return EquivalencePartition((), 0, 0)
    alpha = max(len(b) for b in blocks)
    non_resolved = sum(len(b) for b in blocks if len(b) > 1)
    return EquivalencePartition(blocks, alpha, non_resolved)


def is_k_relaxed_resolving(dm: Metric, sensors: SensorSet, k: int) -> bool:
    """True iff any two vertices sharing an identification vector are within
    graph distance ``k``; ``dm`` (a :class:`DistanceMatrix` or a
    ``trees.TreeMetric``) is connected by construction."""
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    return dm.widest_block(_check_sensors(dm.n, sensors)) <= k


def peel_degree_le1(g: Graph, rounds: int | None = None) -> list[list[int]]:
    """Iteratively remove all vertices of degree <= 1, one batch per round.

    With ``rounds=None`` peeling runs to the fixpoint and only non-empty
    rounds are recorded; with an explicit count, exactly that many rounds are
    recorded (possibly empty). Returns the removed vertices per round, each
    batch ascending.

    A round's batch is exactly the vertices whose degree fell to <= 1 during
    the previous round (Batagelj & Zaversnik 2003). Each round is a few
    array operations on the batch: every vertex keeps its degree and the id
    sum of its neighbours still there, so a vertex of degree 1 names its one
    neighbour, and removing the batch updates both arrays at those
    neighbours only. The batches are the vertices grouped by the round that
    removed them, in one stable sort; rounds that fit in 8 or 16 bits are
    cast to them first, for which numpy's stable sort is a radix sort.
    """
    if rounds == 0:
        return []
    removed_in = _peel(g, rounds)[0]
    removed_in = removed_in.astype(np.min_scalar_type(int(removed_in.max(initial=0))))
    order = np.argsort(removed_in, kind="stable").tolist()
    ends = np.cumsum(np.bincount(removed_in, minlength=1 + max(rounds or 0, 0))).tolist()
    return [order[start:end] for start, end in zip(ends, ends[1:])]


# From the first peel round of fewer vertices than this, the peel goes on one
# vertex at a time in Python: a vectorized round costs a dozen array calls, as
# much as a Python step for each of this many vertices, so long thin tails (a
# path peels two vertices a round) stay linear in Python.
_SCALAR_BATCH = 8


def _peel(
    g: Graph, rounds: int | None, pinned: Sequence[int] = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The peel behind :func:`peel_degree_le1`, for at most ``rounds``
    rounds (to the fixpoint when None), never removing a ``pinned`` vertex.
    Returns three arrays: the int32 round that removed each vertex, counted
    from 1, or 0 for a vertex left; and the degree and the neighbours' id
    sum of each vertex left, in the graph the vertices left induce. A vertex
    removed at degree 1 keeps the id of the neighbour it hung from as its
    sum. All-pairs distances, the statistics and the tree layer (the exact
    solve, the tree metric and the rooted tree) call it directly, so the
    benchmark's traced count of the public function's rounds covers only
    explicit peels.

    The Python tail reads and writes the arrays through memoryviews, so no
    list of per-vertex ints is made."""
    n = g.n
    pinned = np.asarray(pinned, dtype=np.intp)
    degree = np.diff(g.indptr)
    degree[pinned] += n + 1  # never falls to 1
    nbr_sum = _row_sums(g, g.indices)
    removed_in = np.zeros(n, dtype=np.int32)
    batch = np.flatnonzero(degree <= 1)
    done = 0
    while len(batch) and (rounds is None or done < rounds):
        if len(batch) < _SCALAR_BATCH:
            _peel_tail(degree, nbr_sum, removed_in, batch.tolist(), done, rounds)
            break
        done += 1
        removed_in[batch] = done
        leaf = batch[degree[batch] == 1]
        nbr = nbr_sum[leaf]
        live = removed_in[nbr] == 0
        leaf, nbr = leaf[live], nbr[live]
        np.subtract.at(degree, nbr, 1)
        np.subtract.at(nbr_sum, nbr, leaf)
        nbr = nbr[degree[nbr] <= 1]
        nbr.sort()
        batch = nbr[np.concatenate(([True], nbr[1:] != nbr[:-1]))] if nbr.size else nbr
    degree[pinned] -= n + 1
    return removed_in, degree, nbr_sum


def _peel_tail(
    degree: np.ndarray,
    nbr_sum: np.ndarray,
    removed_in: np.ndarray,
    batch: list[int],
    done: int,
    rounds: int | None,
) -> None:
    """The rounds of :func:`_peel` from a batch below ``_SCALAR_BATCH`` on,
    after ``done`` rounds and up to ``rounds`` in all, one vertex at a time
    on memoryviews of its arrays."""
    degree_of, sum_of, removed_at = memoryview(degree), memoryview(nbr_sum), memoryview(removed_in)
    while batch and (rounds is None or done < rounds):
        done += 1
        for v in batch:
            removed_at[v] = done
        nxt = []
        for v in batch:
            w = sum_of[v]
            if degree_of[v] == 1 and not removed_at[w]:  # a neighbour in the batch goes with it
                degree_of[w] -= 1
                sum_of[w] -= v
                if degree_of[w] == 1:  # fell from 2: joins the next batch once
                    nxt.append(w)
        batch = sorted(nxt)


@dataclass(frozen=True)
class GraphStats:
    """Structural summary: order, size, mean degree, exact diameter, mean
    shortest-path length and the 1-shell size (vertices outside the 2-core)."""

    n: int
    m: int
    avg_degree: float
    diameter: int
    avg_spl: float
    shell1_size: int

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "avg_degree": self.avg_degree,
            "diameter": self.diameter,
            "avg_spl": self.avg_spl,
            "shell1_size": self.shell1_size,
        }


def graph_stats(g: Graph) -> GraphStats:
    """Exact statistics of a connected graph, without a distance matrix.

    A disconnected graph (one with a nonzero component label, see
    :func:`_component_labels`) raises ValueError naming
    largest_connected_component. The peel to the fixpoint (:func:`_peel`)
    leaves the 2-core, and the 1-shell, every other vertex, hangs off it as
    trees. For a core vertex a, write w(a) for the number of vertices of its
    tree (a included), H(a) for the sum of their depths and D(a) for the
    largest. Over ordered pairs, the distances sum to

    * 2 * sum over the trees' edges of s * (w - s), s the side away from the
      core (pairs within one tree);
    * plus 2 * sum over a of H(a) * (n - w(a)) (the depths of pairs in two
      trees);
    * plus sum over a, b of w(a) * w(b) * d(a, b) (the core).

    The diameter is the larger of the trees' own diameters and the largest
    D(a) + d(a, b) + D(b) over core vertices a != b. A tree hangs from vertex
    0 and keeps only the first term, twice its Wiener index. The core terms
    are reduced level by level from the bit-parallel BFS, or block by block
    from Dijkstra's rows. The integer sum equals the matrix sum, so
    ``avg_spl`` is the same float as the matrix would give.
    """
    if g.n == 0:
        raise ValueError("statistics of the empty graph are undefined")
    n = g.n
    if _component_labels(g).any():
        raise _disconnected()
    core = np.flatnonzero(_peel(g, None)[0] == 0).tolist()
    total, diameter = _distance_sum_and_diameter(g, _pendant_forest(g, core))
    return GraphStats(
        n=n,
        m=g.m,
        avg_degree=2.0 * g.m / n,
        diameter=diameter,
        avg_spl=0.0 if n == 1 else float(total) / (n * (n - 1)),
        shell1_size=n - len(core),
    )


def _distance_sum_and_diameter(g: Graph, forest: _PendantForest) -> tuple[int, int]:
    """The sum over ordered pairs and the largest of the distances of a
    connected graph (see :func:`graph_stats`)."""
    n = g.n
    parent, anchor, size = forest.parent, forest.anchor, forest.size
    weight = np.bincount(anchor, minlength=n)  # w(a) at each anchor
    w = weight.tolist()
    height = [0] * n  # of each vertex's subtree in its tree
    pairs = 0
    diameter = 0
    for v in reversed(forest.preorder):
        p = parent[v]
        if p < 0:
            continue
        s = size[v]
        pairs += s * (w[anchor[v]] - s)
        # the longest path turning at p: its highest child so far, then v
        h = height[v] + 1
        diameter = max(diameter, height[p] + h)
        height[p] = max(height[p], h)
    total = 2 * pairs
    if forest.core:
        ids = np.array(forest.core)
        wc = weight[ids].astype(np.int64)
        depth_sum = np.bincount(anchor, weights=forest.depth, minlength=n)[ids].astype(np.int64)
        total += 2 * int(depth_sum @ (n - wc))
        core_sum, core_diameter = _core_sum_and_diameter(
            _core_graph(g, forest.core), wc, np.array(height)[ids]
        )
        total += core_sum
        diameter = max(diameter, core_diameter)
    return total, diameter


def _core_sum_and_diameter(core: Graph, w: np.ndarray, far: np.ndarray) -> tuple[int, int]:
    """For a connected graph of minimum degree >= 2: the sum over ordered
    pairs a, b of w[a] * w[b] * d(a, b), and the largest far[a] + d(a, b) +
    far[b] over a != b.

    Dijkstra's row blocks are reduced as they arrive. The bit-parallel BFS
    is reduced per block of sources and per level d, without unpacking a
    distance: the block's sources at distance d or more from a row's vertex
    are its ``unvisited`` bits, so the sum adds, per row, the row's weight
    times the weight of those bits, which is sum over j of 2**j *
    popcount(unvisited & B_j), B_j the sources whose weight has bit j set.
    The sources at distance exactly d are the row's ``next`` bits; per
    distinct value f of ``far``, the rows meeting the sources of that value
    give candidates far[row] + d + f. A value that cannot beat the best so
    far is skipped. The masks B_j and those of ``far`` are bitsets over all
    sources, read a block's words at a time.
    """
    if _needs_dijkstra(core):
        total = diameter = 0
        for rows, block in _dijkstra_rows(core, distance_dtype(core.n), np.arange(core.n)):
            total += int(w[rows] @ (block @ w))
            reach = block + far
            reach[np.arange(rows.size), rows] = -1  # a vertex and itself are no pair
            diameter = max(diameter, int((reach.max(axis=1) + far[rows]).max()))
        return total, diameter
    n = core.n
    order, blocks = _bit_bfs(core)
    row_w, row_far = w[order], far[order]
    weight_bits = [_source_mask((w >> j) & 1 == 1) for j in range(int(w.max()).bit_length())]
    values = np.unique(far)[::-1].tolist()
    far_masks = [(f, _source_mask(far == f)) for f in values]
    top = values[0]
    total = diameter = 0
    for words, levels in blocks:
        masked = np.empty((n, words.stop - words.start), dtype=np.uint64)
        counts = np.empty(masked.shape, dtype=np.uint8)
        for level, (reached, unvisited) in enumerate(levels, start=1):
            for j, mask in enumerate(weight_bits):
                np.bitwise_count(np.bitwise_and(unvisited, mask[words], out=masked), out=counts)
                total += int(counts.sum(axis=1, dtype=np.int64) @ row_w) << j
            for f, mask in far_masks:  # descending
                if top + level + f <= diameter:
                    break
                hit = np.bitwise_and(reached, mask[words], out=masked).any(axis=1)
                if hit.any():
                    diameter = max(diameter, int(row_far[hit].max()) + level + f)
    return total, diameter
