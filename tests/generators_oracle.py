"""Slow references for the generators: the batched conditioned branching-tree
sampler, the stack decode of a depth-first offspring sequence, the
min-heap Pruefer decode of the uniform tree, the preferential-attachment
tree built through ``Graph.from_edges``, the configuration model erased
through a Python set of edge tuples, and the random geometric graph found
by a Python loop over the pairs of neighboring grid cells.

The batched sampler draws 256-row blocks of offspring counts through
``Generator.choice`` and accepts the first row in the first block whose
counts sum to n - 1; the refusal point is rounded up to whole blocks. The
rotation and the decode are the ones the library had when it used this draw.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from relaxmdim import Graph, OffspringDistribution, RootedTree
from relaxmdim.generators import _critical_tilt, _zipf_sampler
from relaxmdim.graph import largest_connected_component


def batched_gw_tree_conditioned(
    n: int, xi: OffspringDistribution, seed: int, max_attempts: int | None = None
) -> RootedTree:
    """Exact sample of a branching-process tree conditioned on n vertices,
    drawn in blocks of rows."""
    if n < 1:
        raise ValueError("need at least one vertex")
    pmf = np.asarray(xi.pmf, dtype=float)
    pmf = pmf / pmf.sum()
    rng = np.random.default_rng(seed)
    if n == 1:
        return RootedTree.from_parents([-1])
    pmf = _critical_tilt(pmf)
    sigma = math.sqrt(max(float((np.arange(pmf.size) ** 2) @ pmf) - 1.0, 1e-6))
    if max_attempts is None:
        max_attempts = 200 + int(100 * sigma * math.sqrt(2 * math.pi * n))
    batch = max(1, min(256, 4_000_000 // n))
    attempts = 0
    counts = None
    while attempts < max_attempts:
        block = rng.choice(pmf.size, size=(batch, n), p=pmf)
        sums = block.sum(axis=1)
        hits = np.flatnonzero(sums == n - 1)
        if hits.size:
            used = int(hits[0]) + 1
            attempts += used
            counts = block[hits[0]]
            break
        attempts += batch
    if counts is None:
        raise RuntimeError(
            f"conditioning rejected {attempts} draws without hitting total "
            f"progeny {n}; offspring support may make this size unreachable"
        )
    # rotate so every strict prefix of the depth-first walk stays nonnegative
    walk = np.cumsum(counts) - np.arange(1, n + 1)
    pivot = int(np.argmin(walk))
    rotated = np.concatenate([counts[pivot + 1 :], counts[: pivot + 1]])
    parents = [-1] * n
    stack = [(0, int(rotated[0]))]  # (vertex, children still to attach)
    for child in range(1, n):
        while stack and stack[-1][1] == 0:
            stack.pop()
        vertex, left = stack[-1]
        parents[child] = vertex
        stack[-1] = (vertex, left - 1)
        stack.append((child, int(rotated[child])))
    return RootedTree.from_parents(parents)


def stack_depth_first_parents(counts) -> list[int]:
    """Parent list of the plane tree with depth-first offspring ``counts``:
    each vertex becomes a child of the deepest open vertex with a child
    slot left, found on a stack of vertex ids."""
    left = list(counts)
    parents = [-1] * len(left)
    stack = [0]  # vertices that may still get children; left[v] slots remain
    for child in range(1, len(left)):
        while left[stack[-1]] == 0:
            stack.pop()
        vertex = stack[-1]
        parents[child] = vertex
        left[vertex] -= 1
        stack.append(child)
    return parents


def heap_uniform_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree: the same Pruefer codes, decoded by popping the
    smallest leaf from a heap, built through ``Graph.from_edges``."""
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = np.random.default_rng(seed)
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def edge_list_ba_tree(n: int, seed: int) -> Graph:
    """Preferential-attachment tree: the same anchor draws, built through
    ``Graph.from_edges`` and its set checks."""
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = np.random.default_rng(seed)
    edges = [(0, 1)]
    stubs = [0, 1]  # one entry per unit of degree
    for t in range(2, n):
        anchor = stubs[int(rng.integers(len(stubs)))]
        edges.append((anchor, t))
        stubs.append(anchor)
        stubs.append(t)
    return Graph.from_edges(n, edges)


def set_configuration_model(n: int, seed: int) -> tuple[Graph, int, int]:
    """Configuration model with the same degree and matching draws, loops
    and multi-edges erased through a set of edge tuples; returns the largest
    component and the numbers of loops and multi-edges erased."""
    if n < 4:
        raise ValueError("need at least four vertices")
    rng = np.random.default_rng(seed)
    draw = _zipf_sampler(n)
    degrees = 2 + draw(rng, n)
    while int(degrees.sum()) % 2 == 1:
        degrees[-1] = 2 + int(draw(rng, 1)[0])
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    proper = lo != hi
    n_loops = int((~proper).sum())
    unique = {(int(a), int(b)) for a, b in zip(lo[proper], hi[proper])}
    n_multi = int(proper.sum()) - len(unique)
    component, _ = largest_connected_component(Graph.from_edges(n, sorted(unique)))
    return component, n_loops, n_multi


def loop_rgg(n: int, radius_factor: float, seed: int) -> Graph:
    """Random geometric graph from the same points: a dict of grid cells of
    side equal to the radius, and a Python loop over the pairs of points in
    neighboring cells."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if not radius_factor >= 0:
        raise ValueError("radius_factor must be nonnegative")
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    radius = radius_factor * math.sqrt(math.log(n) / (n * math.pi))
    if radius <= 0.0:
        return Graph.from_edges(n, [])
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(points):
        cells.setdefault((int(x / radius), int(y / radius)), []).append(i)
    r2 = radius * radius
    edges = []
    for (cx, cy), members in cells.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                other = cells.get((cx + dx, cy + dy))
                if other is None:
                    continue
                for i in members:
                    xi, yi = points[i]
                    for j in other:
                        if j <= i:
                            continue
                        dxv = xi - points[j, 0]
                        dyv = yi - points[j, 1]
                        if dxv * dxv + dyv * dyv <= r2:
                            edges.append((i, j))
    return Graph.from_edges(n, edges)
