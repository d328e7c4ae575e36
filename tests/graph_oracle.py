"""Slow references for graph building, all-pairs distances, statistics,
peeling, down-stemming, identification-vector grouping, rooted trees from
parent arrays, leaf-path walks and the exact tree solver: the straightforward
versions the library replaced.

The builders make per-vertex adjacency tuples, as the library did before a
graph was stored as CSR arrays, and the other references read a graph's
rows as such tuples (:func:`rows`): edge sets and sorted rows for
``from_edges`` and the edge-list parser, one sort of pair keys turned into
tuples for integer pair arrays, and a tree's children with the parent
merged in. The queue peel decrements neighbour degrees vertex by vertex, and
the cut-sum leaf walk decrements them again for every peeled vertex.

All-pairs distances are one breadth-first search per source, and the
statistics are read off that matrix. Components are one breadth-first
search from each vertex no earlier search reached. The bit-parallel BFS runs every source
at once, in n x n/64-word bitsets, where the library runs blocks of
sources. Induced
subgraphs relabel through a dict. Each peeling
round rescans every vertex, so peeling a path of n vertices costs
Theta(n^2); vertices are grouped through a dict keyed by distance-row
tuples; the resolving check and the brute-force search run on that grouping.
The tuple partition groups a metric's keys by one stable sort, as the
library does, but makes every run a tuple, sorts the tuples and counts
alpha, the non-resolved vertices and the histogram (by first appearance)
over them; a matrix's widest block makes each shared block an array.
The rooted walks are the three the library had before one walk replaced
them: the tree metric's DFS from vertex 0, the rooted tree's BFS from its
root, and the DFS of the pendant trees that steps to every neighbour but the
one it came from.
A parent array becomes a rooted tree through ``Graph.from_edges`` and its set
checks, and leaf paths are walked through ``Graph.degree`` calls, or one
leaf at a time on lists of degrees and neighbour sums. The exact tree solver
rebuilds the r-stem as a relabelled subgraph, walks it there and maps the
witness back to input ids, or walks the stem's leaves one at a time in the
input tree.
"""

from __future__ import annotations

import sys
from itertools import accumulate, chain, combinations
from typing import Iterable, Iterator, NamedTuple

import numpy as np
import pytest

from relaxmdim import Graph, GraphStats, RootedTree, TreeMDReport, stem_r
from relaxmdim.graph import _row_sums, _source_mask, bfs_distances


def rows(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours as a tuple of Python ints, cut from the CSR
    arrays."""
    bounds, flat = g.indptr.tolist(), g.indices.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def tuple_edges(adjacency) -> Iterator[tuple[int, int]]:
    """Each edge of a tuple adjacency once, as (u, v) with u < v, row by row."""
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            if u < v:
                yield u, v


def assert_matches_tuples(g: Graph, adjacency) -> None:
    """``g`` is the graph of the tuple ``adjacency`` in every read: its
    rows, n, m, the degrees and the edges (of Python ints), the order of the
    edges and equality; its CSR arrays are read-only and pass validation."""
    assert rows(g) == adjacency
    assert all(type(w) is int for edge in g.edges() for w in edge)
    assert (g.n, g.m) == (len(adjacency), sum(map(len, adjacency)) // 2)
    assert g.degrees() == [len(row) for row in adjacency]
    assert all(type(d) is int for d in g.degrees())
    assert list(g.edges()) == list(tuple_edges(adjacency))
    assert g == Graph.from_adjacency(adjacency)
    for array in (g.indptr, g.indices):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0
    g.validate()


def set_from_edges(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """The adjacency tuples of the graph on 0..n-1 with ``edges``, built
    through one neighbour set per vertex; a bad edge raises the same
    ValueError as ``Graph.from_edges``."""
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
    return tuple(tuple(sorted(s)) for s in nbrs)


def tuple_graph_from_pairs(n: int, u: np.ndarray, v: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The adjacency tuples of the graph with the valid edges {u[i], v[i]}:
    one sort of the keys ``src * n + dst`` in both orientations, cut into
    rows of Python ints."""
    src = np.concatenate((u, v)).astype(np.int64)
    key = np.sort(src * max(n, 1) + np.concatenate((v, u)))
    rows, cols = np.divmod(key, max(n, 1))
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    flat = cols.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))


def set_load_edge_list(text: str) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...], int, int]:
    """(adjacency tuples, labels, duplicate edges, self-loops) of an edge
    list, parsed line by line into neighbour sets."""
    ids: dict[str, int] = {}
    nbrs: list[set[int]] = []
    duplicates = loops = 0
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        u, v = [ids.setdefault(tok, len(ids)) for tok in tokens]
        while len(nbrs) < len(ids):
            nbrs.append(set())
        if u == v:
            loops += 1
        elif v in nbrs[u]:
            duplicates += 1
        else:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return tuple(tuple(sorted(s)) for s in nbrs), tuple(ids), duplicates, loops


def tuple_tree(parents) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(adjacency tuples, children tuples) of a valid parent list: each
    vertex's children in id order, and its row the children with the parent
    merged in."""
    kids: list[list[int]] = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p >= 0:
            kids[p].append(v)
    rows = []
    for p, c in zip(parents, kids):
        rows.append(tuple(sorted(c + [p])) if p >= 0 else tuple(c))
    return tuple(rows), tuple(map(tuple, kids))


def queue_peel(g: Graph, rounds: int | None = None) -> list[list[int]]:
    """The peel of ``peel_degree_le1`` driven by a queue: a round's batch is
    the vertices whose degree fell to 1 while the one before was removed,
    found vertex by vertex over the adjacency tuples."""
    adjacency = rows(g)
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
            for w in adjacency[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:  # fell from 2: joins the next batch once
                        nxt.append(w)
        removed_per_round.append(batch)
        nxt.sort()
        batch = nxt
    return removed_per_round


def cut_sum_leaf_groups(g: Graph, removed: Iterable[int] = ()) -> tuple[list[int], dict[int, list[int]]]:
    """``trees._leaf_groups`` with its degrees and cut sums updated vertex
    by vertex: every removed vertex decrements its neighbours' degrees and
    adds its id to their cut sums."""
    adjacency = rows(g)
    degree = g.degrees()
    cut = [0] * g.n
    for v in removed:
        degree[v] = 0
        for w in adjacency[v]:
            degree[w] -= 1
            cut[w] += v
    leaves = [v for v, d in enumerate(degree) if d == 1]
    groups: dict[int, list[int]] = {}
    for leaf in leaves:
        prev, cur = leaf, sum(adjacency[leaf]) - cut[leaf]
        while degree[cur] == 2:
            prev, cur = cur, sum(adjacency[cur]) - cut[cur] - prev
        if degree[cur] > 2:
            groups.setdefault(cur, []).append(leaf)
    return leaves, groups


def bfs_distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs distances as one :func:`bfs_distances` row per source."""
    return np.array([bfs_distances(g, s) for s in range(g.n)], dtype=np.int32).reshape(g.n, g.n)


def matrix_graph_stats(g: Graph) -> GraphStats:
    """Statistics of a connected graph from its full distance matrix: the
    mean of the off-diagonal entries, their maximum and the 1-shell of a
    round-scan peel."""
    matrix = bfs_distance_matrix(g)
    n = g.n
    return GraphStats(
        n=n,
        m=g.m,
        avg_degree=2.0 * g.m / n,
        diameter=int(matrix.max()),
        avg_spl=0.0 if n == 1 else float(matrix.sum(dtype=np.int64)) / (n * (n - 1)),
        shell1_size=sum(map(len, round_scan_peel(g))),
    )


def bfs_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending,
    ordered by smallest contained vertex: a breadth-first search from each
    vertex not yet seen, its list the queue."""
    indptr, indices = memoryview(g.indptr), memoryview(g.indices)
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for u in comp:
            for w in indices[indptr[u] : indptr[u + 1]]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        components.append(sorted(comp))
    return components


def dict_induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled in ascending id order
    through a dict. Returns (subgraph, new-id -> original-id map)."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    nbrs = rows(g)
    adjacency = tuple(
        tuple(index[w] for w in nbrs[v] if w in index) for v in keep
    )
    return Graph.from_adjacency(adjacency), tuple(keep)


def round_scan_peel(g: Graph, rounds: int | None = None) -> list[list[int]]:
    """Remove all vertices of degree <= 1 per round, found by a full scan.

    ``rounds=None`` runs to the fixpoint and records only non-empty rounds;
    an explicit count records exactly that many rounds (possibly empty).
    """
    n = g.n
    adjacency = rows(g)
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
            for w in adjacency[v]:
                if alive[w]:
                    degree[w] -= 1
        removed_per_round.append(batch)
        r += 1
    return removed_per_round


def round_scan_down_stem(t: RootedTree, r: int) -> tuple[int, ...]:
    """Survivors of ``r`` rounds that each remove the non-root vertices of
    degree <= 1, found by a full scan."""
    g = t.graph
    adjacency = rows(g)
    degree = g.degrees()
    alive = [True] * g.n
    for _ in range(r):
        batch = [v for v in range(g.n) if alive[v] and v != t.root and degree[v] <= 1]
        if not batch:
            break
        for v in batch:
            alive[v] = False
        for v in batch:
            for w in adjacency[v]:
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


class TuplePartition(NamedTuple):
    blocks: tuple[tuple[int, ...], ...]
    alpha: int
    non_resolved_count: int
    histogram: dict[int, int]


def tuple_partition(metric, sensors) -> TuplePartition:
    """``equivalence_partition`` as it was when every block became a tuple:
    the runs of one stable sort of the metric's keys made tuples and sorted
    by smallest member, and the counts taken by loops over the tuples."""
    if metric.n == 0:
        return TuplePartition((), 0, 0, {})
    keys = metric.profile_keys(list(sensors))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    members = order.tolist()
    ends = list(accumulate(np.diff(starts, append=metric.n).tolist()))
    blocks = sorted(tuple(members[a:b]) for a, b in zip([0, *ends[:-1]], ends))
    histogram: dict[int, int] = {}
    for b in blocks:
        if len(b) > 1:
            histogram[len(b)] = histogram.get(len(b), 0) + 1
    shared = sum(len(b) for b in blocks if len(b) > 1)
    return TuplePartition(tuple(blocks), max(len(b) for b in blocks), shared, histogram)


def tuple_widest_block(matrix: np.ndarray, blocks) -> int:
    """The largest entry of the submatrix of any block of two or more, each
    block made an array (0 if none)."""
    return max((int(matrix[b[:, None], b].max()) for b in map(np.array, blocks) if b.size > 1), default=0)


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


def edge_list_rooted_tree(parents, root: int = 0) -> RootedTree:
    """A rooted tree from a parent array that is known to be one, built
    through ``Graph.from_edges``."""
    n = len(parents)
    g = Graph.from_edges(n, [(parents[v], v) for v in range(n) if v != root])
    return RootedTree(g, root, tuple(parents))


def degree_call_leaf_groups(g: Graph) -> tuple[list[int], dict[int, list[int]]]:
    """The leaves (ascending), and the leaves grouped by the first vertex of
    degree >= 3 on their leaf path; leaves of path components are in no
    group."""
    adjacency = rows(g)
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    groups: dict[int, list[int]] = {}
    for leaf in leaves:
        prev, cur = -1, leaf
        while g.degree(cur) <= 2:
            nxt = [w for w in adjacency[cur] if w != prev]
            if not nxt:
                cur = -1  # ran off the far end: component is a path
                break
            prev, cur = cur, nxt[0]
        if cur >= 0:
            groups.setdefault(cur, []).append(leaf)
    return leaves, groups


def subgraph_exact_tree_md(g: Graph, k: int) -> TreeMDReport:
    """The exact k-relaxed dimension report of a tree, with r = k // 2: the
    r-stem as a subgraph relabelled in ascending id order, its leaves and
    exterior major vertices from :func:`degree_call_leaf_groups`, and the
    witness (all but the smallest leaf of each group, or the smaller end of
    a path stem) mapped back through the relabel map."""
    r = k // 2
    removed = {v for batch in round_scan_peel(g, rounds=min(r, g.n)) for v in batch}
    sub, to_original = dict_induced_subgraph(g, [v for v in range(g.n) if v not in removed])
    if sub.n <= 1 + k % 2:
        return TreeMDReport(k, r, 0, 0, False, 0, ())
    leaves, groups = degree_call_leaf_groups(sub)
    sigma, ex = len(leaves), len(groups)
    if ex == 0:
        return TreeMDReport(k, r, sigma, ex, True, 1, (to_original[leaves[0]],))
    witness = sorted(to_original[leaf] for group in groups.values() for leaf in group[1:])
    assert sigma - ex == len(witness)
    return TreeMDReport(k, r, sigma, ex, False, sigma - ex, tuple(witness))


def list_walk_leaf_groups(g: Graph, removed: Iterable[int] = ()) -> tuple[list[int], dict[int, list[int]]]:
    """The leaves (ascending) of ``g`` less the distinct vertices
    ``removed``, and the leaves grouped by the first vertex of degree >= 3
    on their leaf path; leaves of path components are in no group. The
    degrees and neighbour id sums come from two array passes, and each leaf
    path is walked on their lists, one leaf at a time."""
    left = np.ones(g.n, dtype=bool)
    left[np.fromiter(removed, dtype=np.intp)] = False
    kept = left[g.indices]
    degree = np.where(left, _row_sums(g.indptr, kept), 0)
    leaves = np.flatnonzero(degree == 1).tolist()
    degree, nbr_sum = degree.tolist(), _row_sums(g.indptr, np.where(kept, g.indices, 0)).tolist()
    groups: dict[int, list[int]] = {}
    for leaf in leaves:
        prev, cur = leaf, nbr_sum[leaf]
        while degree[cur] == 2:
            prev, cur = cur, nbr_sum[cur] - prev
        if degree[cur] > 2:  # degree 1: the far end of a path component
            groups.setdefault(cur, []).append(leaf)
    return leaves, groups


def walk_count_sigma_ex(g: Graph) -> tuple[int, int]:
    """(leaves, exterior major vertices) from :func:`list_walk_leaf_groups`."""
    leaves, groups = list_walk_leaf_groups(g)
    return len(leaves), len(groups)


def walk_exact_tree_md(g: Graph, k: int) -> TreeMDReport:
    """The exact k-relaxed dimension report of a tree, with r = k // 2: the
    r-stem from ``stem_r``, and its leaves grouped by
    :func:`list_walk_leaf_groups` on the input tree less the peeled
    vertices; the witness is all but the smallest leaf of each group, or
    the smallest leaf of a path stem."""
    r = k // 2
    st = stem_r(g, min(r, g.n))
    if len(st.survivors) <= 1 + k % 2:
        return TreeMDReport(k, r, 0, 0, False, 0, ())
    leaves, groups = list_walk_leaf_groups(g, chain.from_iterable(st.removed_per_round))
    sigma, ex = len(leaves), len(groups)
    if ex == 0:
        return TreeMDReport(k, r, sigma, ex, True, 1, (leaves[0],))
    witness = sorted(leaf for group in groups.values() for leaf in group[1:])
    return TreeMDReport(k, r, sigma, ex, False, sigma - ex, tuple(witness))


def unblocked_bit_bfs(core: Graph) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The multi-source BFS of ``graph._bit_bfs`` from every source at once:
    ``order`` and the levels 1, 2, ..., L of all sources, each (``next``,
    ``unvisited``) in n x ceil(n/64)-word bitsets (bit s of word s // 64 is
    source s), so its bitsets grow as n * n."""
    n = core.n
    words = (n + 63) // 64
    indptr, indices = core.indptr, core.indices
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    starts = indptr[order]
    above = n - np.cumsum(np.bincount(degree))[:-1]  # rows of degree > s, per slot s
    slots = [rank[indices[starts[:k] + s]] for s, k in enumerate(above.tolist())]

    def levels() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        frontier = np.zeros((n, words), dtype=np.uint64)
        bit = np.left_shift(np.uint64(1), (order & 63).astype(np.uint64))
        frontier[np.arange(n), order >> 6] = bit
        unvisited = ~frontier
        unvisited[:, -1] &= _source_mask(np.ones(n, dtype=bool))[-1]
        nxt = np.empty_like(frontier)
        while True:
            nxt[:] = frontier[slots[0]]
            for slot in slots[1:]:
                nxt[: len(slot)] |= frontier[slot]
            nxt &= unvisited
            if not nxt.any():
                return
            yield nxt, unvisited
            unvisited ^= nxt
            frontier, nxt = nxt, frontier

    return order, levels()


def unblocked_bit_bfs_rows(core: Graph, dtype: np.dtype, columns: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``graph._bit_bfs_rows`` on :func:`unblocked_bit_bfs`: every
    distance kept as bit-planes over all sources until the last level, then
    unpacked for all rows at once, as core rows read at ``columns``."""
    n = core.n
    order, levels = unblocked_bit_bfs(core)
    planes: list[np.ndarray] = []
    for level, (_, unvisited) in enumerate(levels, start=1):
        for b in range((level & -level).bit_length()):
            if b == len(planes):
                planes.append(unvisited.copy())
            else:
                planes[b] ^= unvisited
    width = dtype.itemsize
    block = np.zeros((n, n), dtype=dtype)
    entry_bytes = block.view(np.uint8).reshape(n, n, width)
    for b, plane in enumerate(planes):
        bits = np.unpackbits(plane.astype("<u8").view(np.uint8), axis=1, count=n, bitorder="little")
        j = b // 8 if sys.byteorder == "little" else width - 1 - b // 8
        entry_bytes[:, :, j] |= bits << (b % 8)
    rows = np.empty_like(block)
    rows[order] = block  # row i of the search is vertex order[i]
    yield np.arange(n), rows[:, columns]


def unblocked_core_sum_and_diameter(core: Graph, w: np.ndarray, far: np.ndarray) -> tuple[int, int]:
    """``graph._core_sum_and_diameter`` reduced level by level from
    :func:`unblocked_bit_bfs`, with no early exit: the sum of w[a] * w[b] *
    d(a, b) over ordered pairs, and the largest far[a] + d(a, b) + far[b]
    over a != b."""
    order, levels = unblocked_bit_bfs(core)
    row_w, row_far = w[order], far[order]
    weight_bits = [_source_mask((w >> j) & 1 == 1) for j in range(int(w.max()).bit_length())]
    far_masks = [(int(f), _source_mask(far == f)) for f in np.unique(far)]
    total = diameter = 0
    for level, (reached, unvisited) in enumerate(levels, start=1):
        for j, mask in enumerate(weight_bits):
            counts = np.bitwise_count(unvisited & mask).sum(axis=1, dtype=np.int64)
            total += int(counts @ row_w) << j
        for f, mask in far_masks:
            hit = (reached & mask).any(axis=1)
            if hit.any():
                diameter = max(diameter, int(row_far[hit].max()) + level + f)
    return total, diameter


def dfs_tree_walk(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """(preorder, parent, depth) of a DFS of a tree from vertex 0: each
    vertex marked as it is pushed, its neighbours pushed in ascending
    order."""
    adjacency = rows(g)
    parent = [-1] * g.n
    depth = [0] * g.n
    seen = [False] * g.n
    seen[0] = True
    preorder: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        preorder.append(v)
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append(w)
    return preorder, parent, depth


def walk_profile_keys(g: Graph, sensors) -> np.ndarray:
    """The tree metric's profile keys p * n + a (p a vertex's nearest vertex
    on the smallest subtree holding the distinct, nonempty ``sensors``, a its
    distance to p) from the DFS of :func:`dfs_tree_walk` from vertex 0: one
    pass counts the sensors in each subtree, and the subtrees holding them
    all are a chain from the root down to the deepest, which is on the
    spanning subtree; the chain above it projects to that vertex, and a
    vertex in a subtree holding no sensor is one step below its parent."""
    n = g.n
    preorder, parent, _ = dfs_tree_walk(g)
    held = [0] * n
    for v in sensors:
        held[v] = 1
    for v in preorder[:0:-1]:  # children before parents
        held[parent[v]] += held[v]
    full = [v for v in preorder if held[v] == len(sensors)]
    key = list(range(0, n * n, n))  # a vertex on the subtree is its own p
    top = full[-1]
    for a, v in enumerate(reversed(full)):
        key[v] = top * n + a
    for v in preorder:
        if not held[v]:
            key[v] = key[parent[v]] + 1
    return np.array(key, dtype=np.int64)


def bfs_parents(g: Graph, root: int) -> list[int]:
    """Every vertex's parent in a tree rooted at ``root``, by a BFS."""
    adjacency = rows(g)
    parent = [-1] * g.n
    order = [root]
    seen = [False] * g.n
    seen[root] = True
    for u in order:
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                order.append(w)
    return parent


def pendant_dfs(g: Graph, rounds) -> tuple[list[int], ...]:
    """(core, parent, depth, anchor, preorder, size) of the trees a full
    peel removed, in ``rounds``: a DFS from the core's edges into them, or
    from vertex 0 when nothing is left, that steps to every neighbour but
    the one it came from. ``preorder`` lists the non-core vertices only,
    and a core vertex's size is 1."""
    n = g.n
    adjacency = rows(g)
    alive = [True] * n
    for batch in rounds:
        for v in batch:
            alive[v] = False
    core = [v for v in range(n) if alive[v]]
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
    return core, parent, depth, anchor, preorder, size
