"""Slow references for all-pairs distances, peeling, down-stemming and
identification-vector grouping: the straightforward versions the library
replaced.

All-pairs distances are one breadth-first search per source. Induced
subgraphs relabel through a dict. Each peeling
round rescans every vertex, so peeling a path of n vertices costs
Theta(n^2); vertices are grouped through a dict keyed by distance-row
tuples; the resolving check and the brute-force search run on that grouping.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from relaxmdim import Graph, RootedTree
from relaxmdim.graph import bfs_distances


def bfs_distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs distances as one :func:`bfs_distances` row per source."""
    return np.array([bfs_distances(g, s) for s in range(g.n)], dtype=np.int32).reshape(g.n, g.n)


def dict_induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled in ascending id order
    through a dict. Returns (subgraph, new-id -> original-id map)."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    adjacency = tuple(
        tuple(index[w] for w in g.adjacency[v] if w in index) for v in keep
    )
    return Graph(adjacency), tuple(keep)


def round_scan_peel(g: Graph, rounds: int | None = None) -> list[list[int]]:
    """Remove all vertices of degree <= 1 per round, found by a full scan.

    ``rounds=None`` runs to the fixpoint and records only non-empty rounds;
    an explicit count records exactly that many rounds (possibly empty).
    """
    n = g.n
    degree = g.degrees()
    alive = [True] * n
    removed_per_round: list[list[int]] = []
    r = 0
    while rounds is None or r < rounds:
        batch = [v for v in range(n) if alive[v] and degree[v] <= 1]
        if rounds is None and not batch:
            break
        for v in batch:
            alive[v] = False
        for v in batch:
            for w in g.adjacency[v]:
                if alive[w]:
                    degree[w] -= 1
        removed_per_round.append(batch)
        r += 1
    return removed_per_round


def round_scan_down_stem(t: RootedTree, r: int) -> tuple[int, ...]:
    """Survivors of ``r`` rounds that each remove the non-root vertices of
    degree <= 1, found by a full scan."""
    g = t.graph
    degree = g.degrees()
    alive = [True] * g.n
    for _ in range(r):
        batch = [v for v in range(g.n) if alive[v] and v != t.root and degree[v] <= 1]
        if not batch:
            break
        for v in batch:
            alive[v] = False
        for v in batch:
            for w in g.adjacency[v]:
                if alive[w]:
                    degree[w] -= 1
    return tuple(v for v in range(g.n) if alive[v])


def dict_blocks(matrix: np.ndarray, sensors) -> tuple[tuple[int, ...], ...]:
    """Vertices grouped by their row of distances to ``sensors``; blocks
    ascending, ordered by smallest member."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, row in enumerate(matrix[:, list(sensors)].tolist()):
        groups.setdefault(tuple(row), []).append(v)
    return tuple(sorted((tuple(b) for b in groups.values()), key=lambda b: b[0]))


def dict_is_k_resolved(matrix: np.ndarray, sensors, k: int) -> bool:
    """Every group of equal distance rows has diameter <= k."""
    if not sensors:
        return int(matrix.max()) <= k
    for block in dict_blocks(matrix, sensors):
        idx = list(block)
        if len(idx) > 1 and int(matrix[np.ix_(idx, idx)].max()) > k:
            return False
    return True


def dict_brute_force_md(matrix: np.ndarray, k: int) -> tuple[int, tuple[int, ...]]:
    """Smallest, then lexicographically first, set passing :func:`dict_is_k_resolved`."""
    n = matrix.shape[0]
    for size in range(n + 1):
        for comb in combinations(range(n), size):
            if dict_is_k_resolved(matrix, comb, k):
                return size, comb
    raise AssertionError("full vertex set always resolves")
