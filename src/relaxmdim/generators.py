"""Seeded samplers for the experiment graph families.

Every generator is a pure function of its parameters and a 64-bit seed. The
RNG is numpy's default PCG64 stream (``np.random.default_rng(seed)``), which
is portable across platforms; replicate-level sub-streams are derived as
``seed + replicate_index``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

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
    """Uniform sample over the n^(n-2) labeled trees: n - 2 uniform codes
    decoded as a Pruefer sequence.

    The decode is the linear-time one. A pointer sweeps the ids upward for
    the next leaf, and a code that becomes a leaf below the pointer is used
    at once, so each step joins the smallest current leaf to its code, as a
    min-heap decode does. Vertex n - 1 is never the smallest leaf, so the
    joins form a parent array rooted at it, which
    :meth:`RootedTree.from_parents` checks and turns into the graph.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, n, size=n - 2)
    degree = (np.bincount(seq, minlength=n) + 1).tolist()
    parent = [-1] * n
    ptr = leaf = degree.index(1)
    for x in seq.tolist():
        parent[leaf] = x
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent[leaf] = n - 1
    return RootedTree.from_parents(parent, n - 1).graph


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


@lru_cache(maxsize=64)
def _tilted_cdf(pmf: tuple[float, ...]) -> tuple[np.ndarray, float]:
    """The inverse-cdf table of a law's critical tilt, and the tilted law's
    standard deviation, cached per offspring pmf: the tilt's bisection costs
    about a millisecond, far more than drawing a small tree. The table is
    read-only because every caller shares it."""
    tilted = np.asarray(pmf, dtype=float)
    tilted = _critical_tilt(tilted / tilted.sum())
    sigma = math.sqrt(max(float((np.arange(tilted.size) ** 2) @ tilted) - 1.0, 1e-6))
    cdf = np.cumsum(tilted)
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf, sigma


# A row whose largest draw reaches at most _MAX_COUNTED_THRESHOLDS cdf
# thresholds is summed by one (thresholds x n) boolean comparison: about
# 0.45 ns per threshold and draw, against about 23 ns per draw for the binary
# search. Rows of long-support laws reach too many thresholds and go through
# searchsorted.
_MAX_COUNTED_THRESHOLDS = 32


def _row_sum(cdf: np.ndarray, u: np.ndarray) -> int:
    """``cdf.searchsorted(u, side="right").sum()`` without the per-draw
    binary search. A draw counts one for every threshold ``cdf[j] <= u_i``,
    so the total is the number of (threshold, draw) pairs with
    ``cdf[j] <= u_i``, taken over the thresholds at most ``max(u)``; the
    integer is the same."""
    reached = int(cdf.searchsorted(u.max(), side="right"))
    if reached <= _MAX_COUNTED_THRESHOLDS:
        return int(np.count_nonzero(cdf[:reached, None] <= u))
    return int(cdf.searchsorted(u, side="right").sum())


def _depth_first_parents(counts: np.ndarray) -> np.ndarray:
    """Parent array of the plane tree whose offspring counts, in depth-first
    order, are ``counts`` (a Lukasiewicz word: each strict prefix sums to at
    least its length). Vertex ids are depth-first ranks, so every parent id
    is below its child's.

    With the walk W_j = sum over t < j of (c_t - 1), vertex j opens its c_j
    child slots at the levels W_j .. W_j + c_j - 1, and vertex i >= 1 fills
    the slot at level W_i opened last before it (its parent is the last
    j < i with W_j <= W_i). The walk steps down by at most one, so at every
    level openings and fillings alternate in time, and the k-th vertex at a
    level is the child of the k-th slot's owner there. Two stable sorts by
    level pair them; the levels lie in 0..n-1, so for n below 2^16 they are
    radix sorts.
    """
    n = counts.size
    owner = np.repeat(np.arange(n), counts)  # owner of slot s = 0..n-2
    levels = np.min_scalar_type(n)
    # slot s of owner j sits at level W_j + s - (slots opened before j) = s - j
    slot_level = (np.arange(n - 1) - owner).astype(levels)
    vertex_level = (np.cumsum(counts[:-1]) - np.arange(1, n)).astype(levels)  # W_1 .. W_{n-1}
    parents = np.empty(n, dtype=np.intp)
    parents[0] = -1
    parents[np.argsort(vertex_level, kind="stable") + 1] = owner[
        np.argsort(slot_level, kind="stable")
    ]
    return parents


def gw_tree_conditioned(n: int, xi: OffspringDistribution, seed: int) -> RootedTree:
    """Exact sample of a branching-process tree conditioned on n vertices.

    Each attempt draws one row of n uniforms, ``rng.random(n)``, whose
    inverse-cdf offspring counts ``cdf.searchsorted(u, side="right")`` are
    the arithmetic and the stream of ``rng.choice(pmf.size, size=n,
    p=pmf)``, and the first row whose counts sum to n-1 is kept (Devroye,
    SIAM J. Comput. 2012). The test needs only the sum, which comes from
    comparing the row with the cdf thresholds up to its largest draw; only
    the kept row is searched. The row is rotated at the first minimum of its
    lattice walk, the unique rotation that is a depth-first encoding
    (the cycle lemma, Dwass 1969), and decoded by two stable sorts of the
    walk's levels; vertex ids are depth-first ranks, so the parent array
    proves itself a tree in one vectorized check.

    Non-unit-mean distributions are tilted to the critical equivalent
    first, once per law; the conditioned law is unchanged and rejection
    stays feasible. After exactly ``200 + int(100 * sigma * sqrt(2 * pi *
    n))`` rejected rows, about 100 times the expected count, the size is
    taken as unreachable and :class:`TooLargeError` is raised.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    if n == 1:
        return RootedTree.from_parents([-1])
    cdf, sigma = _tilted_cdf(tuple(xi.pmf))
    max_attempts = 200 + int(100 * sigma * math.sqrt(2 * math.pi * n))
    for _ in range(max_attempts):
        u = rng.random(n)
        if _row_sum(cdf, u) == n - 1:
            break
    else:
        raise TooLargeError(
            f"conditioning rejected {max_attempts} draws without hitting total "
            f"progeny {n}; offspring support may make this size unreachable"
        )
    counts = cdf.searchsorted(u, side="right")
    walk = np.cumsum(counts) - np.arange(1, n + 1)
    pivot = int(np.argmin(walk))
    rotated = np.concatenate((counts[pivot + 1 :], counts[: pivot + 1]))
    return RootedTree.from_parents(_depth_first_parents(rotated))


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
