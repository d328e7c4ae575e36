"""Immutable undirected graphs, BFS distance matrices, identification vectors,
equivalence partitions and verification of k-relaxed resolving sets.

Vertices are always the contiguous integers 0..n-1. Everything in this module
is a pure function of immutable inputs; :class:`Graph` and
:class:`DistanceMatrix` are safe to share across threads.

All-pairs distances split each component into its 2-core and the trees
hanging off it. The core's distances come from a bit-parallel multi-source
BFS (64 sources per machine word), or from scipy's Dijkstra when the core's
diameter is too large for it; every other row follows from a parent row in
one vectorized step. scipy is imported only by that fallback. The matrix is
stored in the narrowest signed integer dtype that holds an upper bound on
the diameter. Distances are defined on connected graphs only: a
disconnected graph, or a matrix larger than physical memory, is refused
before the matrix is allocated, so every :class:`DistanceMatrix` holds
finite, nonnegative hop counts.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

#: The entry of a :func:`bfs_distances` row for a vertex the BFS never
#: reaches. No :class:`DistanceMatrix` holds it.
UNREACHABLE = -1

#: Largest double-sweep eccentricity of a 2-core for which all-pairs distances
#: run the bit-parallel BFS; above it the core goes to scipy's Dijkstra. A BFS
#: level costs O((n + m) * n / 64) word operations, so the BFS loses to
#: Dijkstra's O(n * (m + n log n)) once the levels number a few hundred.
BIT_BFS_MAX_LEVELS = 256

# Rows per block when core distances are unpacked, computed and expanded.
_ROW_BLOCK = 1024

#: An ordered sequence of distinct vertex ids acting as sensors.
SensorSet = Sequence[int]


class TooLargeError(RuntimeError):
    """Raised when a computation is refused on resource grounds: an
    exhaustive search over too many vertices, a distance matrix larger than
    physical memory, or a conditioned tree size that rejection sampling
    does not reach."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph given by per-vertex sorted adjacency tuples.

    Invariants: adjacency is symmetric, has no self-loops and no duplicate
    neighbors. Use :meth:`from_edges` to construct with validation.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @cached_property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> list[int]:
        return list(map(len, self.adjacency))

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on vertices 0..n-1, rejecting loops and duplicates."""
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
        return cls(tuple(tuple(sorted(s)) for s in nbrs))

    def validate(self) -> None:
        """Re-check all structural invariants; raises ValueError on violation."""
        for u, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"adjacency of {u} not sorted/deduplicated")
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise ValueError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if u not in self.adjacency[v]:
                    raise ValueError(f"asymmetric edge ({u}, {v})")


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
    """
    text = source.read() if hasattr(source, "read") else source
    ids: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []
    duplicates = 0
    loops = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(
                f"line {lineno}: expected two endpoint tokens, got {len(tokens)}"
            )
        uid = [ids.setdefault(tok, len(ids)) for tok in tokens]
        u, v = uid
        if u == v:
            loops += 1
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            duplicates += 1
            continue
        edges.add(key)
        order.append(key)
    graph = Graph.from_edges(len(ids), order)
    return LoadResult(graph, tuple(ids), duplicates, loops)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from ``source`` to every vertex (UNREACHABLE if none)."""
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du + 1
                queue.append(w)
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending,
    ordered by smallest contained vertex."""
    seen = [False] * g.n
    adjacency = g.adjacency
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for u in comp:  # the list is the BFS queue
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        components.append(sorted(comp))
    return components


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled to 0..len-1 in ascending
    original-id order. Returns (subgraph, new-id -> original-id map)."""
    index = np.full(g.n, -1, dtype=np.intp)
    index[np.fromiter(vertices, dtype=np.intp)] = 0
    keep = np.flatnonzero(index == 0)
    index[keep] = np.arange(keep.size)
    rows = [g.adjacency[v] for v in keep.tolist()]
    bounds = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.intp, count=len(rows)), out=bounds[1:])
    nbrs = index[np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(bounds[-1]))]
    inside = nbrs >= 0
    # index is increasing on keep, so every relabeled row stays sorted
    cuts = np.concatenate(([0], np.cumsum(inside)))[bounds].tolist()
    flat = nbrs[inside].tolist()
    adjacency = tuple(tuple(flat[a:b]) for a, b in zip(cuts, cuts[1:]))
    return Graph(adjacency), tuple(keep.tolist())


def largest_connected_component(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the largest component (ties: smallest contained
    original id), relabeled contiguously. Returns (subgraph, relabel map)."""
    if g.n == 0:
        raise ValueError("empty graph has no connected component")
    components = connected_components(g)
    best = max(components, key=len)  # first maximal one: smallest min-id
    return induced_subgraph(g, best)


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
    ecc = 0
    if n:
        dist = bfs_distances(g, 0)
        if UNREACHABLE in dist:
            raise ValueError(
                "graph is not connected; distances are defined on connected graphs "
                "only: apply largest_connected_component first (--lcc on the command line)"
            )
        ecc = max(dist)
    dtype = distance_dtype(2 * ecc)
    limit = _physical_memory()
    if n * n * dtype.itemsize > limit:
        raise TooLargeError(
            f"all-pairs distances of {n} vertices need {n * n * dtype.itemsize / 1e9:.1f} GB "
            f"as {dtype}, more than the {limit / 1e9:.1f} GB of physical memory"
        )
    out = np.empty((n, n), dtype=dtype)
    if n:
        _component_distances(g, out)
    return DistanceMatrix(out)


def distance_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype holding 0..``bound``. No distance
    is negative; the dtype stays signed, as readers of the matrix expect."""
    return np.min_scalar_type(-bound - 1)


def _physical_memory() -> int:
    """Bytes of physical memory: the largest distance matrix allocated."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _component_distances(g: Graph, out: np.ndarray) -> None:
    """Write the distances of a connected graph with n >= 1 into ``out``,
    whose dtype holds its diameter."""
    n = g.n
    adjacency = g.adjacency
    alive = [True] * n
    for batch in _peel(g, None):
        for v in batch:
            alive[v] = False
    core = [v for v in range(n) if alive[v]]
    # the peeled forest in DFS preorder, so every subtree is a contiguous run
    parent = [-1] * n
    depth = [0] * n
    anchor = list(range(n))
    preorder: list[int] = []
    stack = [(w, u) for u in core for w in adjacency[u] if not alive[w]] if core else [(0, -1)]
    while stack:
        v, p = stack.pop()
        preorder.append(v)
        if p >= 0:
            parent[v] = p
            depth[v] = depth[p] + 1
            anchor[v] = anchor[p]
        stack.extend((w, v) for w in adjacency[v] if w != p and not alive[w])
    size = [1] * n
    for v in reversed(preorder):
        if parent[v] >= 0 and not alive[parent[v]]:
            size[parent[v]] += size[v]

    if core:
        core_ids = np.array(core)
        where = np.empty(n, dtype=np.intp)
        where[core_ids] = np.arange(len(core))
        anchor_col = where[anchor]
        depth_col = np.array(depth, dtype=out.dtype)
        for rows, block in _core_rows(induced_subgraph(g, core)[0], out.dtype):
            if len(core) < n:  # core columns are anchor columns plus depth
                block = block[:, anchor_col]
                block += depth_col
            out[core_ids[rows]] = block
    else:
        out[0] = depth
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


def _core_rows(core: Graph, dtype: np.dtype) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Distances of a connected graph of minimum degree >= 2, as blocks of
    (row ids, rows in ``dtype``).

    The bit-parallel BFS runs L levels, L the largest eccentricity. A double
    sweep (the eccentricity of the vertex farthest from vertex 0) gives a
    lower bound e with e <= L <= 2e that is usually exact. The BFS runs when
    e is at most BIT_BFS_MAX_LEVELS, and scipy's Dijkstra otherwise.
    """
    dist = bfs_distances(core, 0)
    sweep = max(bfs_distances(core, dist.index(max(dist))))
    if sweep > BIT_BFS_MAX_LEVELS:
        return _dijkstra_rows(core, dtype)
    return _bit_bfs_rows(core, dtype)


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(degrees, row offsets, concatenated neighbor lists) of ``g``."""
    degree = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=g.n)
    indptr = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    indices = np.fromiter(
        (w for nbrs in g.adjacency for w in nbrs), dtype=np.intp, count=int(indptr[-1])
    )
    return degree, indptr, indices


def _bit_bfs_rows(core: Graph, dtype: np.dtype) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Multi-source BFS from every vertex at once (Then et al., VLDB 2014).

    Row i belongs to vertex ``order[i]`` and holds two bitsets over the
    sources, ceil(n/64) uint64 words each: the sources that reached it at the
    last level (``frontier``) and those that have not reached it yet
    (``unvisited``). A level is ``next = OR of the neighbours' frontiers, AND
    unvisited``. With rows sorted by degree, neighbour slot s is one ``take``
    and one in-place OR on the prefix of rows of degree > s. Distances are
    kept as bit-planes (plane b holds bit b of every distance), unpacked once
    at the end, byte by byte, into blocks of rows in ``dtype``. Cost:
    O(L * (n + m) * n / 64) word operations for L levels.
    """
    n = core.n
    words = (n + 63) // 64
    degree, indptr, indices = _csr(core)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    starts = indptr[order]
    above = n - np.cumsum(np.bincount(degree))[:-1]  # rows of degree > s, per slot s
    slots = [rank[indices[starts[:k] + s]] for s, k in enumerate(above.tolist())]

    frontier = np.zeros((n, words), dtype=np.uint64)
    frontier[np.arange(n), order >> 6] = np.left_shift(np.uint64(1), (order & 63).astype(np.uint64))
    unvisited = ~frontier
    nxt = np.empty_like(frontier)
    scratch = np.empty_like(frontier)
    planes: list[np.ndarray] = []
    level = 0
    while True:
        level += 1
        # bit b of a distance d is the parity of the multiples of 2**b in
        # 1..d, and d >= level holds exactly on the bits still unvisited, so
        # plane b flips there at every level that 2**b divides
        for b in range((level & -level).bit_length()):
            if b == len(planes):
                planes.append(unvisited.copy())
            else:
                np.bitwise_xor(planes[b], unvisited, out=planes[b])
        # mode "clip" writes straight into out; the default "raise" buffers
        np.take(frontier, slots[0], axis=0, out=nxt, mode="clip")
        for slot in slots[1:]:
            k = len(slot)
            np.take(frontier, slot, axis=0, out=scratch[:k], mode="clip")
            np.bitwise_or(nxt[:k], scratch[:k], out=nxt[:k])
        np.bitwise_and(nxt, unvisited, out=nxt)
        if not nxt.any():
            break
        np.bitwise_xor(unvisited, nxt, out=unvisited)
        frontier, nxt = nxt, frontier
    del frontier, unvisited, nxt, scratch
    width = dtype.itemsize
    for start in range(0, n, _ROW_BLOCK):
        stop = min(n, start + _ROW_BLOCK)
        block = np.zeros((stop - start, n), dtype=dtype)
        # byte j of every entry: plane b is bit b % 8 of byte b // 8
        entry_bytes = block.view(np.uint8).reshape(stop - start, n, width)
        for b, plane in enumerate(planes):
            bytes_ = plane[start:stop].astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(bytes_, axis=1, count=n, bitorder="little")
            np.left_shift(bits, b % 8, out=bits)
            j = b // 8 if sys.byteorder == "little" else width - 1 - b // 8
            np.bitwise_or(entry_bytes[:, :, j], bits, out=entry_bytes[:, :, j])
        yield order[start:stop], block


def _dijkstra_rows(core: Graph, dtype: np.dtype) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """scipy's unweighted Dijkstra over blocks of sources (imported lazily)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = core.n
    _, indptr, indices = _csr(core)
    adj = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    for start in range(0, n, _ROW_BLOCK):
        rows = np.arange(start, min(n, start + _ROW_BLOCK))
        # the adjacency is symmetric, so the directed search is the undirected one
        dist = shortest_path(adj, method="D", directed=True, unweighted=True, indices=rows)
        yield rows, dist.astype(dtype)


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


def _profile_blocks(dm: DistanceMatrix, sensors: list[int]) -> list[tuple[int, ...]]:
    """Vertices grouped by identification vector: each block ascending, blocks
    ordered by smallest member. Rows are compared as raw bytes in one sort."""
    n = dm.n
    if not sensors:
        return [tuple(range(n))] if n else []
    rows = np.ascontiguousarray(dm.matrix[:, sensors])
    keys = rows.view(np.dtype((np.void, rows.itemsize * len(sensors)))).ravel()
    order = np.argsort(keys, kind="stable")  # equal rows stay in vertex order
    keys = keys[order]
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    order = order.tolist()
    blocks = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    blocks.sort()  # by first, i.e. smallest, member
    return blocks


def equivalence_partition(dm: DistanceMatrix, sensors: SensorSet) -> EquivalencePartition:
    """Group vertices by identification vector with respect to ``sensors``."""
    blocks = tuple(_profile_blocks(dm, _check_sensors(dm.n, sensors)))
    if not blocks:
        return EquivalencePartition((), 0, 0)
    alpha = max(len(b) for b in blocks)
    non_resolved = sum(len(b) for b in blocks if len(b) > 1)
    return EquivalencePartition(blocks, alpha, non_resolved)


def is_k_relaxed_resolving(dm: DistanceMatrix, sensors: SensorSet, k: int) -> bool:
    """True iff any two vertices sharing an identification vector are within
    graph distance ``k``; ``dm`` is connected by construction."""
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    for block in _profile_blocks(dm, _check_sensors(dm.n, sensors)):
        if len(block) > 1 and int(dm.matrix[np.ix_(block, block)].max()) > k:
            return False
    return True


def peel_degree_le1(g: Graph, rounds: int | None = None) -> list[list[int]]:
    """Iteratively remove all vertices of degree <= 1, one batch per round.

    With ``rounds=None`` peeling runs to the fixpoint and only non-empty
    rounds are recorded; with an explicit count, exactly that many rounds are
    recorded (possibly empty). Returns the removed vertices per round, each
    batch ascending.

    Queue-driven (Batagelj & Zaversnik 2003): a round's batch is exactly the
    vertices whose degree fell to <= 1 during the previous round, so the
    whole peel costs O(n + m) plus sorting each batch.
    """
    return _peel(g, rounds)


def _peel(g: Graph, rounds: int | None) -> list[list[int]]:
    """The peel behind :func:`peel_degree_le1`. All-pairs distances call it
    directly to find the 2-core, so the benchmark's traced count of the public
    function's rounds covers only explicit peels."""
    degree = g.degrees()
    alive = [True] * g.n
    batch = [v for v, d in enumerate(degree) if d <= 1]
    removed_per_round: list[list[int]] = []
    while rounds is None or len(removed_per_round) < rounds:
        if rounds is None and not batch:
            break
        for v in batch:
            alive[v] = False
        nxt = []
        for v in batch:
            for w in g.adjacency[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:  # fell from 2: joins the next batch once
                        nxt.append(w)
        removed_per_round.append(batch)
        nxt.sort()
        batch = nxt
    return removed_per_round


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


def graph_stats(g: Graph, dm: DistanceMatrix | None = None) -> GraphStats:
    """Exact statistics from all-pairs BFS; requires a connected graph."""
    if g.n == 0:
        raise ValueError("statistics of the empty graph are undefined")
    if dm is None:
        dm = all_pairs_distances(g)
    n = g.n
    if n == 1:
        avg_spl = 0.0
    else:
        avg_spl = float(dm.matrix.sum(dtype=np.int64)) / (n * (n - 1))
    shell1 = sum(len(batch) for batch in peel_degree_le1(g))
    return GraphStats(
        n=n,
        m=g.m,
        avg_degree=2.0 * g.m / n,
        diameter=dm.diameter,
        avg_spl=avg_spl,
        shell1_size=shell1,
    )
