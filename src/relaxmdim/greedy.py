"""Greedy set-cover approximation of the k-relaxed metric dimension.

Pairs of active vertices (all, or the targets of greedy_resolve_within) more
than ``k`` apart must be split by a sensor at different distances from their
ends; each round computes every candidate's exact gain and picks the first
argmax, the largest gain with the smallest id. A pair is open iff its ends
share a class of the partition the chosen sensors induce (Hauptmann, Schmied
& Viehmann 2012), so a gain is the same-class pairs, minus those the
candidate's row leaves together (a bincount over (class, distance rank)
keys), minus the close (<= k) same-class pairs it splits: work = |close| + m
+ bins per candidate and round. The open pairs are listed once fewer than
work, or once work >= 2 * the last gain: a gain never grows, so at least
open / last gain rounds remain, while a listed pair is read about twice per
candidate. With the pairs listed, each gain is counted once; after a pick,
the pairs it separated are subtracted, or, if they were more than half, the
rest are recounted, so a listed pair is read O(1) times per candidate.
Gains are counted in cache-sized blocks: splits as uint8 counts of at most
255 pairs a block into reused buffers, pairs left together as (sum of
squared counts - m) / 2 over keys added into one reused intp workspace.
Close pairs are counted from the symmetric matrix (none at k = 0), then
pairs are listed as int32 indices a block of rows at a time; the close pairs
are never listed when round one lists the open ones. So working memory is
the pair list (8 bytes a pair, refused beyond physical memory before it is
made) and one block: the ranks are the matrix itself, viewed as unsigned,
and greedy_resolve_within gathers its targets' rows once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import DistanceMatrix, _check_sensors, _refuse_beyond_memory

_BATCH_ELEMENTS = 1 << 18  # entries per block: a block's buffers stay in cache
_Mask = Callable[[int, int], np.ndarray]  # (lo, hi) -> rows lo..hi - 1 of an m x m boolean mask


@dataclass(frozen=True)
class GreedyTrace:
    """Per-pick log: chosen sensor, pairs newly covered, pairs remaining."""

    sensors: tuple[int, ...]
    newly_covered: tuple[int, ...]
    remaining: tuple[int, ...]

    def rows(self) -> list[dict]:
        return [
            {"pick_index": i, "sensor": s, "newly_covered": c, "remaining": r}
            for i, (s, c, r) in enumerate(zip(self.sensors, self.newly_covered, self.remaining))
        ]


def _dense_ranks(block: np.ndarray) -> tuple[np.ndarray, int]:
    """Keys in [0, width): BFS distances (< n) viewed, without a copy, as the
    unsigned integers of their width; other values by rank."""
    top = int(block.max()) if block.size else 0
    if block.dtype.kind in "iu" and top < block.shape[0]:
        return block.view(f"u{block.itemsize}"), top + 1
    values, keys = np.unique(block, return_inverse=True)
    width = max(1, values.size)
    return keys.reshape(block.shape).astype(np.min_scalar_type(width - 1)), width


def _pairs_left_together(keys: np.ndarray, bins: int) -> np.ndarray:
    """Per row of the intp ``keys`` (values in [0, bins)), the pairs of equal
    entries. ``keys`` is a workspace: each row is offset in place."""
    rows, m = keys.shape
    keys += np.arange(0, rows * bins, bins)[:, None]
    counts = np.bincount(keys.ravel(), minlength=rows * bins).reshape(rows, bins)
    return (np.einsum("ij,ij->i", counts, counts) - m) // 2  # sum of c(c-1)/2 over the bins


def _split(columns: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per candidate (column), how many of the pairs (u, v) its row splits."""
    n = columns.shape[1]
    split = np.zeros(n, dtype=np.int64)
    # at most 255 rows a block, so a block's uint8 counts cannot overflow
    step = max(1, min(u.size, 255, _BATCH_ELEMENTS // n))
    a, b = np.empty((step, n), columns.dtype), np.empty((step, n), columns.dtype)
    differ, part = np.empty((step, n), dtype=bool), np.empty(n, dtype=np.uint8)
    for i in range(0, u.size, step):
        rows = min(step, u.size - i)
        np.take(columns, u[i : i + rows], axis=0, out=a[:rows], mode="clip")
        np.take(columns, v[i : i + rows], axis=0, out=b[:rows], mode="clip")
        np.not_equal(a[:rows], b[:rows], out=differ[:rows])
        split += np.add.reduce(differ[:rows].view(np.uint8), axis=0, dtype=np.uint8, out=part)
    return split


def _count_close(close: _Mask, m: int, k: int) -> int:
    """How many pairs of the m active vertices are within distance k: the
    entries of the symmetric close mask, less its diagonal, halved, counted a
    block of rows at a time. At k = 0 there are none: distinct vertices are
    never at distance 0."""
    if k == 0:
        return 0
    step = max(1, _BATCH_ELEMENTS // max(1, m))
    return (sum(int(np.count_nonzero(close(lo, lo + step))) for lo in range(0, m, step)) - m) // 2


def _upper_pairs(mask: _Mask, m: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` pairs the mask holds, in row-major order, as int32 arrays
    filled a block of rows at a time: :class:`TooLargeError` before they are
    allocated if they and a block's workspace exceed physical memory."""
    _refuse_beyond_memory(8 * (count + _BATCH_ELEMENTS), f"greedy's {count} vertex pairs need")
    u, v = np.empty(count, dtype=np.int32), np.empty(count, dtype=np.int32)
    step, at = max(1, _BATCH_ELEMENTS // max(1, m)), 0
    for lo in range(0, m if count else 0, step):
        r, c = np.nonzero(np.triu(mask(lo, lo + step), lo + 1))
        u[at : at + r.size], v[at : at + r.size] = r + lo, c
        at += r.size
    return u, v


def _greedy(dm: DistanceMatrix, active: np.ndarray | None, k: int) -> GreedyTrace:
    """Cover the pairs of ``active`` vertices (None: all) more than k apart."""
    # the active vertices' rows (by symmetry, their columns), gathered once
    rows, cols = (dm.matrix, slice(None)) if active is None else (dm.matrix[active], active)
    ranks, width = _dense_ranks(rows.T)  # candidate rows
    columns = np.ascontiguousarray(ranks.T)  # a pair reads two rows of this: ``rows`` unless ranked
    ranks = columns if active is None else ranks  # symmetric: candidate rows in memory order
    n, m = ranks.shape
    labels = np.zeros(m, dtype=np.intp)  # class of each active vertex
    bins, same = width, m * (m - 1) // 2  # (class, rank) keys; same-class pairs
    close = lambda lo, hi: rows[lo:hi, cols] <= k
    size, u, v = _count_close(close, m, k), None, None  # the close same-class pairs, listed when used...
    listed = False  # ...or, once listed, the open ones
    open_count = last = same - size
    trace: tuple[list[int], ...] = ([], [], [])  # sensor, gain, pairs left
    while open_count > 0:
        work = size + m + bins  # per candidate, the cost of a partition round
        if not listed and (open_count < work or work >= 2 * last):
            open_pairs = lambda lo, hi: (labels[lo:hi, None] == labels) & ~close(lo, hi)
            u, v = _upper_pairs(open_pairs, m, open_count)
            listed, gain = True, _split(columns, u, v)
        elif not listed:
            # a block's intp keys and counts take at most 2 * _BATCH_ELEMENTS bytes
            keys, step = labels * width, max(1, _BATCH_ELEMENTS // (4 * (m + bins)))
            if u is None:  # bins only grow, so the first round's blocks are the largest
                u, v = _upper_pairs(close, m, size)
                workspace = np.empty((min(n, step), m), dtype=np.intp)
            gain = same - _split(columns, u, v)
            for j in range(0, n, step):
                block = workspace[: min(step, n - j)]
                np.add(keys, ranks[j : j + step], out=block)
                gain[j : j + step] -= _pairs_left_together(block, bins)
        best = int(np.argmax(gain))  # the first maximum: ties go to the smallest id
        last = int(gain[best])
        assert last > 0  # any open pair {u, v} is covered by u itself
        open_count -= last
        for column, value in zip(trace, (best, last, open_count)):
            column.append(value)
        row = columns[:, best]
        keep = row[u] == row[v]
        recount = listed and 2 * last > u.size  # it separated most listed pairs
        if listed and not recount:  # subtract the pairs it separated
            gain -= _split(columns, u[~keep], v[~keep])
        elif not listed:
            labels = np.unique(labels * width + row, return_inverse=True)[1].reshape(m)
            sizes = np.bincount(labels)
            bins, same = sizes.size * width, int((sizes * (sizes - 1)).sum()) // 2
        u, v = u[keep], v[keep]
        if recount:  # count the rest afresh, on the list compacted once
            gain = _split(columns, u, v)
        size = u.size
        assert open_count == (size if listed else same - size), "gain disagrees with the partition"
    return GreedyTrace(*map(tuple, trace))


def greedy_k_resolving_set(dm: DistanceMatrix, k: int) -> tuple[tuple[int, ...], GreedyTrace]:
    """Greedy k-relaxed resolving set for a connected graph.

    Termination is guaranteed because the full vertex set distinguishes every
    pair. When ``k`` reaches the diameter the universe is empty and the empty
    set is returned.
    """
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    trace = _greedy(dm, None, k)
    return trace.sensors, trace


def greedy_resolve_within(dm: DistanceMatrix, targets: Sequence[int]) -> tuple[int, ...]:
    """Sensors (drawn from all vertices) giving distinct identification
    vectors to every pair inside ``targets``."""
    t = _check_sensors(dm.n, list(dict.fromkeys(targets)))
    if not t:
        raise ValueError("targets must be nonempty")
    # distinct vertices are at distance > 0, so k = 0 keeps every target pair
    return _greedy(dm, np.array(sorted(t), dtype=np.intp), 0).sensors
