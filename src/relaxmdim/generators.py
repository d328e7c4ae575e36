"""Seeded samplers for the experiment graph families.

Every generator is a pure function of its parameters and a 64-bit seed. The
RNG is numpy's default PCG64 stream (``np.random.default_rng(seed)``), which
is portable across platforms; replicate-level sub-streams are derived as
``seed + replicate_index``.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, TooLargeError, largest_connected_component
from .gw import OffspringDistribution
from .trees import RootedTree

log = logging.getLogger(__name__)

MODELS = ("ba-tree", "gw-tree", "config-model", "rgg", "uniform-tree")


@dataclass(frozen=True)
class GeneratorConfig:
    """Fully determines one sampled graph: model tag, size, seed, parameters."""

    model: str
    n: int
    seed: int
    offspring: OffspringDistribution | None = None
    radius_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    def sample(self) -> "Graph | RootedTree":
        if self.model == "ba-tree":
            return ba_tree(self.n, self.seed)
        if self.model == "uniform-tree":
            return uniform_tree(self.n, self.seed)
        if self.model == "gw-tree":
            xi = self.offspring or OffspringDistribution.poisson(1.0)
            return gw_tree_conditioned(self.n, xi, self.seed)
        if self.model == "config-model":
            return configuration_model(self.n, self.seed)
        return rgg(self.n, self.radius_factor, self.seed)


def ba_tree(n: int, seed: int) -> Graph:
    """Preferential-attachment tree: vertex t >= 2 picks its anchor with
    probability proportional to current degree, starting from the edge 0-1."""
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


def uniform_tree(n: int, seed: int) -> Graph:
    """Uniform sample over the n^(n-2) labeled trees via a random sequence
    of attachment codes (Pruefer decoding)."""
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


def _critical_tilt(pmf: np.ndarray) -> np.ndarray:
    """Exponentially tilt a pmf to unit mean.

    Conditioned on the offspring counts summing to n-1 the tilted and
    original sequences have identical distributions (the tilt contributes the
    same factor to every sequence with the same sum), so sampling from the
    tilted pmf changes nothing but the acceptance rate of the rejection step.
    """
    mean = float(np.arange(pmf.size) @ pmf)
    if abs(mean - 1.0) < 1e-9:
        return pmf
    j = np.arange(pmf.size)
    if pmf[0] <= 0 or pmf.size < 2 or float(pmf[1:].sum()) <= 0:
        raise ValueError("offspring distribution cannot be tilted to unit mean")

    def tilted_mean(theta: float) -> float:
        w = pmf * theta**j
        return float((j * w).sum() / w.sum())

    lo, hi = 1e-12, 1.0
    if mean < 1.0:
        # subcritical: push mass up; finite support guarantees a crossing
        # unless everything sits on {0, 1}
        if pmf[2:].sum() <= 0:
            raise ValueError("offspring distribution cannot be tilted to unit mean")
        lo, hi = 1.0, 2.0
        while tilted_mean(hi) < 1.0:
            hi *= 2.0
            if hi > 1e9:  # pragma: no cover
                raise ValueError("tilting failed to bracket the critical point")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tilted_mean(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    w = pmf * (0.5 * (lo + hi)) ** j
    return w / w.sum()


def gw_tree_conditioned(n: int, xi: OffspringDistribution, seed: int) -> RootedTree:
    """Exact sample of a branching-process tree conditioned on n vertices.

    Each attempt draws one row of n iid offspring counts by inverse cdf,
    ``cdf.searchsorted(rng.random(n), side="right")`` (the arithmetic and the
    stream of ``rng.choice(pmf.size, size=n, p=pmf)``), and the first row
    that sums to n-1 is kept. It is rotated at the first minimum of the
    associated lattice walk (the unique rotation that is a valid depth-first
    encoding) and decoded into a tree. Non-unit-mean distributions are
    tilted to the critical equivalent first; the conditioned law is
    unchanged and rejection stays feasible. After exactly
    ``200 + int(100 * sigma * sqrt(2 * pi * n))`` rejected rows, about 100
    times the expected count, the size is taken as unreachable and
    :class:`TooLargeError` is raised.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    pmf = np.asarray(xi.pmf, dtype=float)
    pmf = pmf / pmf.sum()
    rng = np.random.default_rng(seed)
    if n == 1:
        return RootedTree.from_parents([-1])
    pmf = _critical_tilt(pmf)
    sigma = math.sqrt(max(float((np.arange(pmf.size) ** 2) @ pmf) - 1.0, 1e-6))
    max_attempts = 200 + int(100 * sigma * math.sqrt(2 * math.pi * n))
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    for _ in range(max_attempts):
        counts = cdf.searchsorted(rng.random(n), side="right")
        if int(counts.sum()) == n - 1:
            break
    else:
        raise TooLargeError(
            f"conditioning rejected {max_attempts} draws without hitting total "
            f"progeny {n}; offspring support may make this size unreachable"
        )
    # rotate so every strict prefix of the depth-first walk stays nonnegative
    walk = np.cumsum(counts) - np.arange(1, n + 1)
    pivot = int(np.argmin(walk))
    left = np.concatenate([counts[pivot + 1 :], counts[: pivot + 1]]).tolist()
    parents = [-1] * n
    stack = [0]  # vertices that may still get children; left[v] slots remain
    for child in range(1, n):
        while left[stack[-1]] == 0:
            stack.pop()
        vertex = stack[-1]
        parents[child] = vertex
        left[vertex] -= 1
        stack.append(child)
    return RootedTree.from_parents(parents)


def _zipf_sampler(n: int):
    """Inverse-CDF sampler for Zipf(2.5) on support 1..n-3."""
    support = np.arange(1, n - 2, dtype=float)
    weights = support**-2.5
    cdf = np.cumsum(weights) / weights.sum()
    cdf[-1] = 1.0

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        return 1 + np.searchsorted(cdf, rng.random(size), side="right")

    return draw


def configuration_model(n: int, seed: int) -> Graph:
    """Configuration model with iid degrees 2 + Zipf(2.5), uniform stub
    matching, self-loops and multi-edges erased, largest component returned.

    An odd degree total is repaired by resampling the last degree only.
    """
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
    if n_loops or n_multi:
        log.debug(
            "configuration model erased %d self-loops and %d multi-edges",
            n_loops,
            n_multi,
        )
    g = Graph.from_edges(n, sorted(unique))
    component, _ = largest_connected_component(g)
    return component


def rgg(n: int, radius_factor: float, seed: int) -> Graph:
    """Random geometric graph on the unit square.

    Points are the first draw from the stream (``rng.random((n, 2))``); two
    vertices are adjacent when their Euclidean distance is at most
    ``radius_factor * sqrt(log(n) / (n * pi))``. Neighbor search uses a
    uniform grid with cells of side equal to the radius.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if radius_factor < 0:
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
