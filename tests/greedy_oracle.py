"""Pair-scan greedy: the slow reference the partition engine is tested against.

The universe is the explicit list of unordered vertex pairs still to
distinguish; each round scans every candidate against every open pair and
picks the maximum coverage, ties to the smallest vertex id. A round costs
Theta(n * |open pairs|), which is why the library no longer uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from relaxmdim import DistanceMatrix, GreedyTrace

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
