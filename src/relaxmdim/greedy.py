"""Greedy set-cover approximation of the k-relaxed metric dimension.

Pairs of active vertices (all, or the targets of greedy_resolve_within) more
than ``k`` apart must be split by a sensor at different distances from their
ends; each round picks the largest gain, ties to the smallest id. A pair is
open iff its ends share a class of the partition the chosen sensors induce
(Hauptmann, Schmied & Viehmann 2012), so a gain is the same-class pairs,
minus those the candidate's row leaves together (a bincount over (class,
distance rank) keys, or a sort when bins are many), minus the close (<= k)
same-class pairs it splits: O(m + |close|). Once fewer, the open pairs are
listed and scanned instead. Gains never grow, so stale gains are upper bounds
(Minoux 1978): candidates are re-evaluated in descending (bound, -id) order in
doubling batches until no bound beats the best fresh (gain, -id), the exact
maximum with its smallest-id tie-break. A round costs its evaluations, an
O(n log n) sort and an O(m log m + |close|) or O(|open|) update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import DistanceMatrix, _check_sensors

_BATCH_ELEMENTS = 1_000_000  # workspace cap for one evaluation batch
_BINS_PER_KEY = 8  # (class, rank) bins per active vertex counted by bincount
# Batches past n / _FULL_PASS candidates or _BATCH_ELEMENTS elements, and all
# rounds reading at most _FULL_PASS_ELEMENTS, read whole rows: far cheaper.
_FULL_PASS, _FULL_PASS_ELEMENTS = 8, 1 << 16


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
    """Keys in [0, width): BFS distances (< n) as they are, others by rank."""
    if block.size and block.max() < block.shape[0]:
        keys, width = block, int(block.max()) + 1
    else:
        values, keys = np.unique(block, return_inverse=True)
        keys, width = keys.reshape(block.shape), max(1, values.size)
    return keys.astype(np.min_scalar_type(width - 1)), width


def _pairs_left_together(keys: np.ndarray, bins: int) -> np.ndarray:
    """Per row of ``keys`` (values in [0, bins)), the pairs of equal entries."""
    rows, m = keys.shape
    if bins <= _BINS_PER_KEY * m:
        counts = np.bincount((keys + np.arange(rows)[:, None] * bins).ravel(), minlength=rows * bins)
        return (counts * (counts - 1)).reshape(rows, bins).sum(axis=1) // 2
    ordered, pos = np.sort(keys, axis=1), np.arange(m)
    run_start = np.where(np.diff(ordered, axis=1, prepend=-1) != 0, pos, 0)
    return (pos - np.maximum.accumulate(run_start, axis=1)).sum(axis=1)


def _greedy(dm: DistanceMatrix, active: np.ndarray | None, k: int) -> GreedyTrace:
    """Cover the pairs of ``active`` vertices (None: all) more than k apart."""
    block = dm.matrix if active is None else dm.matrix[:, active]  # candidate rows
    local = block if active is None else block[active]
    n, m = block.shape
    ranks, width = _dense_ranks(block)
    columns = np.ascontiguousarray(ranks.T)  # a pair reads two rows of this
    labels = np.zeros(m, dtype=np.int64)  # class of each active vertex
    bins, same = width, m * (m - 1) // 2  # (class, rank) keys; same-class pairs
    u, v = np.nonzero(np.triu(local <= k, 1))  # the close same-class pairs...
    listed = False  # ...or, once listed, the open ones
    open_count = same - u.size
    bound = np.full(n, open_count, dtype=np.int64)
    trace: tuple[list[int], ...] = ([], [], [])  # sensor, gain, pairs left

    def gains(cands: np.ndarray) -> np.ndarray:
        everyone = cands.size * _FULL_PASS > n  # then read whole rows
        sub = columns if everyone else columns[:, cands]
        step = max(1, _BATCH_ELEMENTS // sub.shape[1])
        split = np.zeros(sub.shape[1], dtype=np.int64)
        for i in range(0, u.size, step):
            split += (sub[u[i : i + step]] != sub[v[i : i + step]]).sum(axis=0)
        split = split[cands] if everyone else split
        if listed:
            return split
        step = max(1, _BATCH_ELEMENTS // count_work)
        for j in range(0, cands.size, step):
            split[j : j + step] += _pairs_left_together(labels * width + ranks[cands[j : j + step]], bins)
        return same - split

    while open_count > 0:
        count_work = m + min(bins, _BINS_PER_KEY * m)
        if not listed and open_count < u.size + count_work:
            u, v = np.nonzero(np.triu((labels[:, None] == labels) & (local > k), 1))
            listed = True
        work = 2 * u.size + (0 if listed else m)
        # no stale gains before the first pick; small rounds take one batch
        lazy = trace[0] and n * work > _FULL_PASS_ELEMENTS
        cap = min(n // _FULL_PASS, _BATCH_ELEMENTS // work) if lazy else 0
        order = np.argsort(-bound, kind="stable")  # descending (bound, -id)
        best, gain, start, size = -1, 0, 0, 1
        # until no stale bound can beat the best fresh (gain, -id)
        while start < n and (bound[order[start]], -order[start]) > (gain, -best):
            size = size if size <= cap else n - start
            cands = order[start : start + size]
            bound[cands] = fresh = gains(cands)
            i = np.lexsort((cands, -fresh))[0]  # the batch's best (gain, -id)
            if (fresh[i], -cands[i]) > (gain, -best):
                best, gain = int(cands[i]), int(fresh[i])
            start, size = start + size, 2 * size
        assert gain > 0  # any open pair {u, v} is covered by u itself
        open_count -= gain
        for column, value in zip(trace, (best, gain, open_count)):
            column.append(value)
        row = columns[:, best]
        keep = row[u] == row[v]
        u, v = u[keep], v[keep]
        if not listed:
            labels = np.unique(labels * width + row, return_inverse=True)[1].reshape(m)
            sizes = np.bincount(labels)
            bins, same = sizes.size * width, int((sizes * (sizes - 1)).sum()) // 2
        assert open_count == (u.size if listed else same - u.size), "gain disagrees with the partition"
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
