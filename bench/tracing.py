"""Spans and counters recorded from the benchmark's side of the public API.

:func:`instrumented` wraps the public functions listed in :data:`TRACED`
at every ``relaxmdim`` module attribute that binds them (``cli``,
``localization`` and ``trees`` import many of them by name), records one
span per call, and restores the originals on exit. Spans stay in memory;
:func:`layer_metrics` turns them into per-layer self times, call counts and
the counters of :data:`COUNTERS`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

# layer (relaxmdim module) -> public functions timed as spans
TRACED = {
    "graph": (
        "load_edge_list",
        "largest_connected_component",
        "all_pairs_distances",
        "graph_stats",
        "peel_degree_le1",
        "equivalence_partition",
        "is_k_relaxed_resolving",
    ),
    "greedy": ("greedy_k_resolving_set", "greedy_resolve_within"),
    "trees": ("exact_tree_md", "stem_r", "is_tree", "tree_diameter", "count_sigma_ex", "is_path_graph"),
    "localization": ("qstar_curve", "two_step_qstar", "sweep_metrics"),
    "generators": ("gw_tree_conditioned", "uniform_tree", "ba_tree", "configuration_model", "rgg"),
    "gw": ("poisson_closed_form",),
}


def _greedy_set(args, kwargs, result) -> dict:
    sensors, trace = result
    initial = trace.newly_covered[0] + trace.remaining[0] if sensors else 0
    return {"greedy.rounds": len(sensors), "greedy.initial_pairs": initial}


def _within(args, kwargs, result) -> dict:
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    return {"greedy.within_targets": len(set(targets))}


# span name -> counters computed from a call's arguments and result
COUNTERS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "greedy.greedy_k_resolving_set": _greedy_set,
    "greedy.greedy_resolve_within": _within,
    "graph.all_pairs_distances": lambda a, kw, dm: {"graph.apsp_result_mb": dm.matrix.nbytes / 1e6},
    "graph.peel_degree_le1": lambda a, kw, rounds: {"graph.peel_rounds": len(rounds)},
    "localization.two_step_qstar": lambda a, kw, res: {"localization.phase2_classes": len(res.class_prices)},
    "trees.exact_tree_md": lambda a, kw, report: {"trees.md_sum": report.md},
}

# counters that must repeat exactly from run to run on the same seed
DETERMINISTIC = (
    "greedy.rounds",
    "greedy.initial_pairs",
    "greedy.within_targets",
    "graph.all_pairs_distances.calls",
    "graph.peel_rounds",
    "localization.phase2_classes",
    "trees.md_sum",
    "cli.out_bytes",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    job: str


class Tracer:
    """In-memory span and counter recorder for one pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            tracer.counters.update(count(args, kwargs, result))
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap every :data:`TRACED` function wherever a ``relaxmdim`` module
    binds it; the originals are put back on exit, even after an error."""
    patches = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "relaxmdim" or n.startswith("relaxmdim.")]
    for layer, names in TRACED.items():
        home = importlib.import_module(f"relaxmdim.{layer}")
        for name in names:
            original = getattr(home, name)
            wrapper = _wrap(tracer, f"{layer}.{name}", original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        patches.append((module, attr, original, wrapper))
    try:
        for module, attr, _, wrapper in patches:
            setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original, _ in patches:
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time (``<span>.s``) and call count (``<span>.calls``) per span
    name, plus the recorded counters."""
    totals: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        totals[f"{span.name}.s"] += own
        totals[f"{span.name}.calls"] += 1
    totals.update(tracer.counters)
    return dict(totals)
