"""Per-k references for the two-step curve and the greedy sweep: one greedy
solve at every k, and every candidate class priced by greedy_resolve_within,
as the library did before it read odd k from k - 1 on bipartite graphs and
priced the classes of two and three vertices in closed form."""

from __future__ import annotations

from typing import Iterable

from relaxmdim import (
    DistanceMatrix,
    Graph,
    SweepRecord,
    TwoStepResult,
    all_pairs_distances,
    equivalence_partition,
    greedy_k_resolving_set,
    greedy_resolve_within,
)


def two_step_per_class(g: Graph, k: int, dm: DistanceMatrix) -> TwoStepResult:
    phase1, _ = greedy_k_resolving_set(dm, k)
    prices, worst, max_s2 = [], (), 0
    for block in equivalence_partition(dm, phase1).blocks:
        if len(block) < 2:
            continue
        s2 = greedy_resolve_within(dm, block)
        prices.append((block, len(s2)))
        if len(s2) > max_s2:
            max_s2, worst = len(s2), block
    return TwoStepResult(k, phase1, tuple(prices), worst, max_s2, len(phase1) + max_s2)


def qstar_curve_per_k(g: Graph, k_max: int) -> list[TwoStepResult]:
    dm = all_pairs_distances(g)
    return [two_step_per_class(g, k, dm) for k in range(k_max + 1)]


def greedy_sweep_per_k(g: Graph, k_values: Iterable[int]) -> list[SweepRecord]:
    dm, n, records = all_pairs_distances(g), g.n, []
    for k in k_values:
        sensors, _ = greedy_k_resolving_set(dm, k)
        part = equivalence_partition(dm, sensors)
        records.append(
            SweepRecord(
                k=k,
                sensors=len(sensors),
                sensor_fraction=len(sensors) / n,
                non_resolved_ratio=part.non_resolved_count / n,
                alpha=part.alpha,
                alpha_fraction=part.alpha / n,
                class_histogram=part.histogram(),
            )
        )
    return records
