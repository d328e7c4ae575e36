"""Sensor-placement evaluation: relaxation sweeps and the two-step procedure.

A sweep reports, per relaxation level k, the sensor budget and how much
ambiguity it leaves (non-resolved vertices, largest candidate class). The
two-step procedure first places a k-relaxed set, then prices the worst-case
follow-up placement needed to pin the target down inside its candidate class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .graph import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    equivalence_partition,
)
from .greedy import greedy_k_resolving_set, greedy_resolve_within
from .trees import TreeMetric, exact_tree_md

Resolver = Literal["exact-tree", "greedy"]

SWEEP_CSV_HEADER = "k,sensors,sensor_fraction,non_resolved_ratio,alpha,alpha_fraction"


@dataclass(frozen=True)
class SweepRecord:
    """One relaxation level of a sweep."""

    k: int
    sensors: int
    sensor_fraction: float
    non_resolved_ratio: float
    alpha: int
    alpha_fraction: float
    class_histogram: dict[int, int]

    def csv_row(self) -> str:
        return "{},{},{!r},{!r},{},{!r}".format(
            self.k,
            self.sensors,
            self.sensor_fraction,
            self.non_resolved_ratio,
            self.alpha,
            self.alpha_fraction,
        )


def _greedy_fields(g: Graph, dm: DistanceMatrix, k: int) -> dict:
    sensors, trace = greedy_k_resolving_set(dm, k)
    return {"k": k, "size": len(sensors), "witness": list(sensors), "trace": trace.rows()}


# Each resolver: the metric its partitions and its witness check read, and
# the fields it reports from a solve at k (the sensors are "witness"). Both
# look this module's names up when called, so a wrapped or patched binding
# here sees every call, from a sweep and from the command line's mdim.
_RESOLVERS = {
    "exact-tree": (lambda g: TreeMetric(g), lambda g, metric, k: exact_tree_md(g, k).as_dict()),
    "greedy": (lambda g: all_pairs_distances(g), _greedy_fields),
}


def sweep_metrics(
    g: Graph, k_values: Sequence[int], resolver: Resolver = "greedy"
) -> list[SweepRecord]:
    """Compute a resolving set per k and the induced ambiguity metrics.

    ``resolver="exact-tree"`` uses the constructive tree witness, and its
    partitions read one :class:`TreeMetric`, which refuses other inputs
    (:class:`~relaxmdim.trees.IncompatibleMethodError`) before any distance
    is computed. ``"greedy"`` works on any connected graph. Any other
    resolver, or a negative k, raises ValueError before the metric is built.
    """
    if resolver not in _RESOLVERS:
        raise ValueError(f"unknown resolver {resolver!r}; choose one of {', '.join(_RESOLVERS)}")
    if any(k < 0 for k in k_values):
        raise ValueError("relaxation parameter k must be nonnegative")
    n = g.n
    if n == 0:
        raise ValueError("sweep of the empty graph is undefined")
    metric_of, solve = _RESOLVERS[resolver]
    metric = metric_of(g)
    records = []
    for k in k_values:
        sensors = solve(g, metric, k)["witness"]
        part = equivalence_partition(metric, sensors)
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


@dataclass(frozen=True)
class TwoStepResult:
    """Worst-case sensor budget of the two-step strategy at one k.

    ``phase1`` is the k-relaxed set; each non-singleton candidate class is
    priced by the greedy set resolving it; ``qstar`` adds the worst class's
    price to the phase-1 budget.
    """

    k: int
    phase1: tuple[int, ...]
    class_prices: tuple[tuple[tuple[int, ...], int], ...]
    worst_class: tuple[int, ...]
    max_s2: int
    qstar: int

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "phase1": list(self.phase1),
            "phase1_size": len(self.phase1),
            "max_s2": self.max_s2,
            "qstar": self.qstar,
            "worst_class": list(self.worst_class),
        }


def two_step_qstar(
    g: Graph, k: int, dm: DistanceMatrix | None = None
) -> TwoStepResult:
    """Phase-1 greedy k-relaxed set plus the worst-case phase-2 price.

    Iteration is over distinct candidate classes (vertices in one class share
    the same phase-2 requirement); singleton classes cost nothing. Ties on
    the worst class go to the one containing the smallest vertex id. A
    negative k is refused before any distance is computed.
    """
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    if dm is None:
        dm = all_pairs_distances(g)
    phase1, _ = greedy_k_resolving_set(dm, k)
    part = equivalence_partition(dm, phase1)
    prices: list[tuple[tuple[int, ...], int]] = []
    worst: tuple[int, ...] = ()
    max_s2 = 0
    for block in part.blocks:  # ordered by smallest member: ties resolved
        if len(block) < 2:
            continue
        s2 = greedy_resolve_within(dm, block)
        prices.append((block, len(s2)))
        if len(s2) > max_s2:
            max_s2 = len(s2)
            worst = block
    return TwoStepResult(
        k=k,
        phase1=phase1,
        class_prices=tuple(prices),
        worst_class=worst,
        max_s2=max_s2,
        qstar=len(phase1) + max_s2,
    )


def qstar_curve(g: Graph, k_max: int, dm: DistanceMatrix | None = None) -> list[TwoStepResult]:
    """Two-step prices for k = 0..k_max (0 <= k_max <= the diameter), on
    ``dm`` if the caller has the matrix already; a negative k_max is
    refused before any distance is computed."""
    if k_max < 0:
        raise ValueError(f"k_max {k_max} is negative")
    if dm is None:
        dm = all_pairs_distances(g)
    if k_max > dm.diameter:
        raise ValueError(f"k_max {k_max} exceeds the diameter {dm.diameter}")
    return [two_step_qstar(g, k, dm) for k in range(k_max + 1)]
