"""Pair-scan greedy: the slow reference the partition engine is tested against.

The universe is the explicit list of unordered vertex pairs still to
distinguish; each round scans every candidate against every open pair and
picks the maximum coverage, ties to the smallest vertex id. A round costs
Theta(n * |open pairs|), which is why the library no longer uses it.

The lazy engine below is the library's previous ``_greedy``, kept verbatim as
a fast oracle: stale gains are upper bounds (Minoux 1978), so candidates are
re-evaluated in descending (bound, -id) order in doubling batches until no
bound beats the best fresh (gain, -id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from relaxmdim import DistanceMatrix, GreedyTrace
from relaxmdim.graph import _check_sensors
from relaxmdim.greedy import _dense_ranks

# Workspace cap for the per-round candidate scan (bytes of gathered rows).
_SCAN_BYTES = 64_000_000


@dataclass(frozen=True)
class PairUniverse:
    """Dense enumeration of the unordered vertex pairs still to distinguish."""

    left: np.ndarray
    right: np.ndarray

    @property
    def size(self) -> int:
        return int(self.left.size)

    @classmethod
    def relaxed_pairs(cls, dm: DistanceMatrix, k: int) -> "PairUniverse":
        """All pairs at distance strictly greater than ``k``."""
        iu, iv = np.triu_indices(dm.n, 1)
        mask = dm.matrix[iu, iv] > k
        return cls(iu[mask].astype(np.intp), iv[mask].astype(np.intp))

    @classmethod
    def pairs_within(cls, dm: DistanceMatrix, targets: Sequence[int]) -> "PairUniverse":
        """All pairs inside ``targets`` (no distance filter)."""
        t = np.asarray(sorted(set(targets)), dtype=np.intp)
        if t.size < 2:
            return cls(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        iu, iv = np.triu_indices(t.size, 1)
        return cls(t[iu], t[iv])


def greedy_cover(dm: DistanceMatrix, universe: PairUniverse) -> GreedyTrace:
    n = dm.n
    matrix = dm.matrix
    left, right = universe.left, universe.right
    covered = np.zeros(universe.size, dtype=bool)
    picks: list[int] = []
    newly: list[int] = []
    remaining: list[int] = []
    while True:
        open_idx = np.flatnonzero(~covered)
        if open_idx.size == 0:
            break
        ul = left[open_idx]
        ur = right[open_idx]
        chunk = max(1, min(n, _SCAN_BYTES // (4 * max(1, open_idx.size))))
        best_sensor = -1
        best_count = 0
        for start in range(0, n, chunk):
            rows = matrix[start : start + chunk]
            counts = (rows[:, ul] != rows[:, ur]).sum(axis=1)
            top = int(counts.argmax())
            if int(counts[top]) > best_count:
                best_count = int(counts[top])
                best_sensor = start + top
        # every pair {u, v} is covered by u itself, so progress is guaranteed
        assert best_sensor >= 0
        hit = matrix[best_sensor, ul] != matrix[best_sensor, ur]
        covered[open_idx[hit]] = True
        picks.append(best_sensor)
        newly.append(best_count)
        remaining.append(int(open_idx.size - best_count))
    return GreedyTrace(tuple(picks), tuple(newly), tuple(remaining))


def oracle_k_resolving_set(dm: DistanceMatrix, k: int) -> GreedyTrace:
    return greedy_cover(dm, PairUniverse.relaxed_pairs(dm, k))


def oracle_resolve_within(dm: DistanceMatrix, targets: Sequence[int]) -> tuple[int, ...]:
    return greedy_cover(dm, PairUniverse.pairs_within(dm, targets)).sensors


_BATCH_ELEMENTS = 1_000_000  # workspace cap for one evaluation batch
_BINS_PER_KEY = 8  # (class, rank) bins per active vertex counted by bincount
# Batches past n / _FULL_PASS candidates or _BATCH_ELEMENTS elements, and all
# rounds reading at most _FULL_PASS_ELEMENTS, read whole rows: far cheaper.
_FULL_PASS, _FULL_PASS_ELEMENTS = 8, 1 << 16


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


def lazy_k_resolving_set(dm: DistanceMatrix, k: int) -> GreedyTrace:
    return _greedy(dm, None, k)


def lazy_resolve_within(dm: DistanceMatrix, targets: Sequence[int]) -> tuple[int, ...]:
    t = sorted(_check_sensors(dm.n, list(dict.fromkeys(targets))))
    return _greedy(dm, np.array(t, dtype=np.intp), 0).sensors
