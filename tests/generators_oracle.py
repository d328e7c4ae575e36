"""Slow references for the generators: the batched conditioned branching-tree
sampler, the stack decode of a depth-first offspring sequence and the
min-heap Pruefer decode of the uniform tree.

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
from relaxmdim.generators import _critical_tilt


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
