"""Seeded samplers for the experiment graph families.

Every generator is a pure function of its parameters and a 64-bit seed. The
RNG is numpy's default PCG64 stream (``np.random.default_rng(seed)``), which
is portable across platforms; replicate-level sub-streams are derived as
``seed + replicate_index``.

Each sampler first checks a lower bound on the bytes its own arrays take
for n vertices, and refuses a size beyond physical memory with
:class:`~relaxmdim.graph.TooLargeError` before it allocates anything.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache

import numpy as np

from .graph import (
    Graph,
    TooLargeError,
    _erase_loops_and_repeats,
    _graph_from_pairs,
    _jump,
    _refuse_beyond_memory,
    largest_connected_component,
)
from .gw import OffspringDistribution
from .trees import RootedTree, _parent_graph

log = logging.getLogger(__name__)


def _refuse_sample(n: int, bytes_per_vertex: int) -> None:
    """Refuse a sample of n vertices at ``bytes_per_vertex``, a lower bound
    on what the sampler's own arrays hold per vertex."""
    _refuse_beyond_memory(n * bytes_per_vertex, f"a sample of {n} vertices needs at least")


def ba_tree(n: int, seed: int) -> Graph:
    """Preferential-attachment tree: vertex t >= 2 picks its anchor with
    probability proportional to current degree, starting from the edge 0-1.

    The anchors are drawn from a list with one stub per unit of degree:
    stub 0 is vertex 0, stub 2i + 1 is vertex i + 1, and stub 2i (i >= 1)
    is the anchor of vertex i + 1. Vertex t draws stub ``rng.integers(2t -
    2)``, all of them in one call over the array of bounds, which numpy
    draws element by element as it draws the scalar calls in turn. Stub 0
    and the odd stubs name their vertex at once. An even stub 2i > 0 points
    at vertex i + 1, whose anchor it takes: the pending vertices and their
    targets form a forest whose roots are the vertices with a named anchor,
    and pointer jumping (``graph._jump``) takes each pending vertex to its
    root. Each vertex's anchor is its parent, with a smaller id, so the
    parent array rooted at 0 is a tree, turned into the graph without an
    edge set as :meth:`RootedTree.from_parents` does."""
    if n < 2:
        raise ValueError("need at least two vertices")
    _refuse_sample(n, 24)  # the stubs, which become the parents, and the pointers, then the pair keys
    parent = np.zeros(n, dtype=np.int64)
    parent[2:] = np.random.default_rng(seed).integers(0, np.arange(2, 2 * n - 2, 2))
    pending = np.flatnonzero(parent % 2 == 0)
    pending = pending[parent[pending] > 0]
    parent += 1
    parent //= 2  # the named vertex, or for an even stub 2i the i of vertex i + 1
    via = np.arange(n)  # a pending vertex's target, every other vertex itself
    via[pending] = parent[pending] + 1
    _jump(via, pending)
    parent[pending] = parent[via[pending]]
    del via, pending  # before the graph is built
    parent[0] = -1
    return _parent_graph(parent, 0)


def uniform_tree(n: int, seed: int) -> Graph:
    """Uniform sample over the n^(n-2) labeled trees: n - 2 uniform codes
    decoded as a Pruefer sequence.

    The decode is the linear-time one. A pointer sweeps the ids upward for
    the next leaf, and a code that becomes a leaf below the pointer is used
    at once, so each step joins the smallest current leaf to its code, as a
    min-heap decode does. Vertex n - 1 is never the smallest leaf, so the
    joins form a parent array rooted at it, checked and turned into the
    graph as :meth:`RootedTree.from_parents` does.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    _refuse_sample(n, 24)  # the int64 codes, their counts and the parents
    rng = np.random.default_rng(seed)
    return _parent_graph(_pruefer_parents(rng.integers(0, n, size=n - 2)), n - 1)


def _pruefer_parents(seq: np.ndarray) -> np.ndarray:
    """The parent array, rooted at n - 1, of the Pruefer code ``seq`` of a
    tree on n = len(seq) + 2 vertices, by the linear-time decode of
    :func:`uniform_tree`. Memoryviews read and write the arrays as Python
    ints, so no list of per-vertex ints is made, and they go with this
    call's frame."""
    n = seq.size + 2
    degree = np.bincount(seq, minlength=n)
    degree += 1
    parent = np.empty(n, dtype=np.intp)
    degree_of, parent_of = memoryview(degree), memoryview(parent)
    ptr = leaf = int(np.argmax(degree == 1))
    for x in memoryview(seq):
        parent_of[leaf] = x
        degree_of[x] -= 1
        if degree_of[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree_of[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent_of[leaf] = n - 1
    parent_of[n - 1] = -1
    return parent


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
    _refuse_sample(n, 16)  # a row of float64 uniforms and its int64 counts
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

    An odd degree total is repaired by resampling the last degree only. The
    matched pairs' loops and multi-edges are erased as the edge-list parser
    erases them (``graph._erase_loops_and_repeats``).
    """
    if n < 4:
        raise ValueError("need at least four vertices")
    _refuse_sample(n, 24)  # the Zipf table's support, weights and cdf
    rng = np.random.default_rng(seed)
    draw = _zipf_sampler(n)
    degrees = 2 + draw(rng, n)
    while int(degrees.sum()) % 2 == 1:
        degrees[-1] = 2 + int(draw(rng, 1)[0])
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    g, n_loops, n_multi = _erase_loops_and_repeats(n, stubs[0::2], stubs[1::2])
    if n_loops or n_multi:
        log.debug(
            "configuration model erased %d self-loops and %d multi-edges",
            n_loops,
            n_multi,
        )
    component, _ = largest_connected_component(g)
    return component


def rgg(n: int, radius_factor: float, seed: int) -> Graph:
    """Random geometric graph on the unit square.

    Points are the first draw from the stream (``rng.random((n, 2))``); two
    vertices are adjacent when their Euclidean distance is at most
    ``radius_factor * sqrt(log(n) / (n * pi))``, tested in float64 as
    ``dx*dx + dy*dy <= r*r``.

    Neighbor search puts the points in a uniform grid of c x c cells, c the
    smaller of 1 / radius and sqrt(n), so each cell is at least as wide as
    the radius and the grid holds at most about n cells for any radius. The
    points are sorted by cell once, and a cell-start table, the cumulative
    count of points per cell, gives every cell's run of sorted points. Each
    point's candidates are the later points of its own cell and every point
    of the forward half of its 3 x 3 neighbourhood (the cells right of it,
    and the three above it), so each pair of points in touching cells is
    tested once; no pair is visited in Python. The candidates are listed
    and tested for ``_RGG_CHUNK`` sorted points at a time. When they would
    need more than physical memory all at once, :class:`TooLargeError` is
    raised before any is listed.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if not radius_factor >= 0:
        raise ValueError("radius_factor must be nonnegative")
    _refuse_sample(n, 16)  # two float64 coordinates per point
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    radius = radius_factor * math.sqrt(math.log(n) / (n * math.pi))
    if radius <= 0.0:
        return Graph.from_edges(n, [])
    cells = max(1, int(min(1.0 / radius, math.isqrt(n))))
    cell = np.minimum((points * cells).astype(np.int64), cells - 1)
    # an empty column past each row of cells and an empty row past the last,
    # so no forward offset wraps into another row or runs off the table
    width = cells + 1
    key = cell[:, 0] * width + cell[:, 1]
    start = np.zeros(width * width + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=width * width), out=start[1:])
    order = np.argsort(key, kind="stable")
    key = key[order]
    xs, ys = points[order, 0], points[order, 1]
    # candidate runs of sorted positions, one row per kind: the later points
    # of the own cell, then the cells at (0, +1), (+1, -1), (+1, 0), (+1, +1)
    pos = np.arange(n)
    lo = np.stack([pos + 1] + [start[key + step] for step in (1, width - 1, width, width + 1)])
    hi = np.stack([start[key + step + 1] for step in (0, 1, width - 1, width, width + 1)])
    count = hi - lo
    candidates = int(count.sum())
    what = f"a random geometric graph of {n} vertices has {candidates} candidate pairs, which need"
    _refuse_beyond_memory(candidates * _CANDIDATE_BYTES, what)
    near_i, near_j = [], []
    for a in range(0, n, _RGG_CHUNK):
        b = min(n, a + _RGG_CHUNK)
        runs = count[:, a:b].ravel()
        i = np.repeat(np.tile(pos[a:b], 5), runs)
        j = np.repeat(lo[:, a:b].ravel() - np.cumsum(runs) + runs, runs)
        j += np.arange(j.size)
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        near = dx * dx + dy * dy <= radius * radius
        near_i.append(i[near])
        near_j.append(j[near])
    # the candidate tables and each list of kept pairs go before the next
    # array is made: the graph's build is the sampler's peak
    del lo, hi, count
    u = order[np.concatenate(near_i)]
    del near_i
    v = order[np.concatenate(near_j)]
    del near_j
    return _graph_from_pairs(n, u, v)


# Sorted points whose candidate pairs are listed and tested together: only
# one chunk's candidates are held at a time, beside the pairs kept so far.
# rgg(5000, 1.5) (about 28 candidates a point) peaks under tracemalloc at
# 1.9, 2.0 and 2.4 MB with chunks of 128, 256 and 512 points, and takes
# 5.4, 4.9 and 4.8 ms (median of 15 on a 2-core x86-64 host): 256 holds
# little more than 128, at the speed of 512.
_RGG_CHUNK = 256


# Bytes per RGG candidate pair: the two int64 positions, the two float64
# differences, and the two float64 squares the distance test holds with
# them. Candidates are tested a chunk at a time, so this is now the
# worst-case cost of the pairs kept, when every candidate is kept.
_CANDIDATE_BYTES = 48
