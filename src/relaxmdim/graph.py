"""Immutable undirected graphs, BFS distance matrices, identification vectors,
equivalence partitions and verification of k-relaxed resolving sets.

Vertices are always the contiguous integers 0..n-1. Everything in this module
is a pure function of immutable inputs; :class:`Graph` and
:class:`DistanceMatrix` are safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, TextIO

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

#: Sentinel distance for unreachable vertex pairs.
UNREACHABLE = -1

#: An ordered sequence of distinct vertex ids acting as sensors.
SensorSet = Sequence[int]


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
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

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
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        components.append(sorted(comp))
    return components


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled to 0..len-1 in ascending
    original-id order. Returns (subgraph, new-id -> original-id map)."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    adjacency = tuple(
        tuple(index[w] for w in g.adjacency[v] if w in index) for v in keep
    )
    return Graph(adjacency), tuple(keep)


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
    """All-pairs shortest-path hop counts; UNREACHABLE marks disconnected pairs."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def d(self, u: int, v: int) -> int:
        return int(self.matrix[u, v])

    @cached_property
    def connected(self) -> bool:
        return not bool(np.any(self.matrix == UNREACHABLE))

    @cached_property
    def diameter(self) -> int:
        """Largest finite distance (0 for the empty/one-vertex graph)."""
        if self.n == 0:
            return 0
        return int(self.matrix.max())


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every source, computed in one vectorized C pass."""
    n = g.n
    if n == 0:
        return DistanceMatrix(np.zeros((0, 0), dtype=np.int32))
    rows = []
    cols = []
    for u, v in g.edges():
        rows += (u, v)
        cols += (v, u)
    adj = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    dist = shortest_path(adj, method="D", directed=False, unweighted=True)
    out = np.where(np.isinf(dist), UNREACHABLE, dist).astype(np.int32)
    return DistanceMatrix(out)


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
    graph distance ``k``. Requires a connected graph (fails fast otherwise)."""
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    if not dm.connected:
        raise ValueError(
            "k-relaxed resolving sets are defined on connected graphs; "
            "extract the largest connected component first"
        )
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
    if not dm.connected:
        raise ValueError(
            "graph is disconnected; apply largest_connected_component first"
        )
    n = g.n
    if n == 1:
        avg_spl = 0.0
    else:
        avg_spl = float(dm.matrix.sum()) / (n * (n - 1))
    shell1 = sum(len(batch) for batch in peel_degree_le1(g))
    return GraphStats(
        n=n,
        m=g.m,
        avg_degree=2.0 * g.m / n,
        diameter=dm.diameter,
        avg_spl=avg_spl,
        shell1_size=shell1,
    )
