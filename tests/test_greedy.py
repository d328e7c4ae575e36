"""greedy module: the partition engine against the pair-scan oracle, greedy
picks, approximation behavior."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaxmdim.greedy as engine
from relaxmdim import (
    DistanceMatrix,
    Graph,
    GreedyTrace,
    TwoStepResult,
    all_pairs_distances,
    ba_tree,
    brute_force_md,
    configuration_model,
    count_sigma_ex,
    greedy_k_resolving_set,
    greedy_resolve_within,
    is_k_relaxed_resolving,
    largest_connected_component,
    qstar_curve,
    rgg,
    two_step_qstar,
)

from conftest import (
    connected_graphs,
    path_graph,
    random_connected_graph,
    star_graph,
    unicyclic_graph,
)
from greedy_oracle import (
    PairUniverse,
    lazy_k_resolving_set,
    lazy_resolve_within,
    oracle_k_resolving_set,
    oracle_resolve_within,
)


class TestPairUniverse:
    def test_relaxed_pairs_filter(self):
        dm = all_pairs_distances(path_graph(4))
        u = PairUniverse.relaxed_pairs(dm, 1)
        pairs = set(zip(u.left.tolist(), u.right.tolist()))
        assert pairs == {(0, 2), (0, 3), (1, 3)}

    def test_pairs_within(self):
        dm = all_pairs_distances(path_graph(5))
        u = PairUniverse.pairs_within(dm, [4, 0, 2])
        pairs = set(zip(u.left.tolist(), u.right.tolist()))
        assert pairs == {(0, 2), (0, 4), (2, 4)}


class TestGreedyResolvingSet:
    def test_empty_universe_at_diameter(self):
        g = random_connected_graph(12, 4, seed=0)
        dm = all_pairs_distances(g)
        sensors, trace = greedy_k_resolving_set(dm, dm.diameter)
        assert sensors == ()
        assert trace.sensors == ()

    def test_empty_graph_has_nothing_to_cover(self):
        g = Graph.from_adjacency(())
        assert greedy_k_resolving_set(all_pairs_distances(g), 0) == ((), GreedyTrace((), (), ()))
        empty = TwoStepResult(k=0, phase1=(), class_prices=(), worst_class=(), max_s2=0, qstar=0)
        assert two_step_qstar(g, 0) == empty
        assert qstar_curve(g, 0) == [empty]

    def test_path_needs_one_endpoint(self):
        dm = all_pairs_distances(path_graph(4))
        sensors, _ = greedy_k_resolving_set(dm, 0)
        assert sensors == (0,)

    def test_output_verifies(self):
        for seed in range(8):
            g = random_connected_graph(14, 5, seed)
            dm = all_pairs_distances(g)
            for k in range(dm.diameter + 1):
                sensors, _ = greedy_k_resolving_set(dm, k)
                assert is_k_relaxed_resolving(dm, sensors, k)

    def test_trace_invariants(self):
        g = random_connected_graph(15, 6, seed=3)
        dm = all_pairs_distances(g)
        sensors, trace = greedy_k_resolving_set(dm, 0)
        universe = PairUniverse.relaxed_pairs(dm, 0).size
        assert sum(trace.newly_covered) == universe
        assert trace.remaining[-1] == 0
        assert all(a > b for a, b in zip(trace.remaining, trace.remaining[1:]))
        assert trace.sensors == sensors

    def test_deterministic(self):
        g = random_connected_graph(20, 8, seed=5)
        dm = all_pairs_distances(g)
        assert greedy_k_resolving_set(dm, 1) == greedy_k_resolving_set(dm, 1)

    def test_valid_for_any_larger_relaxation(self):
        g = random_connected_graph(14, 5, seed=7)
        dm = all_pairs_distances(g)
        sensors, _ = greedy_k_resolving_set(dm, 1)
        for k in range(1, dm.diameter + 1):
            assert is_k_relaxed_resolving(dm, sensors, k)

    def test_negative_k_rejected(self):
        dm = all_pairs_distances(path_graph(3))
        with pytest.raises(ValueError):
            greedy_k_resolving_set(dm, -1)

    def test_approximation_bound_small(self):
        for seed in range(6):
            g = unicyclic_graph(10, seed)
            dm = all_pairs_distances(g)
            bound_factor = 1 + math.log(g.n * (g.n - 1) / 2)
            for k in range(dm.diameter):
                optimum, _ = brute_force_md(g, k, dm)
                sensors, _ = greedy_k_resolving_set(dm, k)
                assert len(sensors) <= bound_factor * optimum

    def test_trace_rows_schema(self):
        dm = all_pairs_distances(path_graph(4))
        _, trace = greedy_k_resolving_set(dm, 0)
        rows = trace.rows()
        assert rows[0] == {
            "pick_index": 0,
            "sensor": 0,
            "newly_covered": 6,
            "remaining": 0,
        }


class TestGreedyResolveWithin:
    def test_single_target_needs_nothing(self):
        dm = all_pairs_distances(path_graph(5))
        assert greedy_resolve_within(dm, [3]) == ()

    def test_two_star_leaves_need_one_leaf_sensor(self):
        dm = all_pairs_distances(star_graph(4))
        sensors = greedy_resolve_within(dm, [1, 2])
        assert len(sensors) == 1
        assert sensors[0] in (1, 2)

    def test_full_vertex_targets_match_k0_greedy(self):
        g = random_connected_graph(13, 4, seed=9)
        dm = all_pairs_distances(g)
        full = greedy_resolve_within(dm, range(g.n))
        k0, _ = greedy_k_resolving_set(dm, 0)
        assert full == k0

    def test_union_separates_targets(self):
        g = random_connected_graph(16, 5, seed=11)
        dm = all_pairs_distances(g)
        targets = [1, 4, 8, 13]
        sensors = greedy_resolve_within(dm, targets)
        cols = dm.matrix[np.ix_(targets, list(sensors))]
        vectors = {tuple(row) for row in cols.tolist()}
        assert len(vectors) == len(targets)

    def test_empty_targets_rejected(self):
        dm = all_pairs_distances(path_graph(3))
        with pytest.raises(ValueError):
            greedy_resolve_within(dm, [])


class TestGreedyOnTrees:
    def test_ba_tree_matches_exact_dimension_and_odd_even(self):
        # large preferential-attachment tree: greedy hits the exact dimension
        # at k=0 and the consecutive even/odd sizes coincide
        g = ba_tree(1000, seed=20)
        dm = all_pairs_distances(g)
        sigma, ex = count_sigma_ex(g)
        s0, _ = greedy_k_resolving_set(dm, 0)
        assert len(s0) == sigma - ex
        s2, _ = greedy_k_resolving_set(dm, 2)
        s3, _ = greedy_k_resolving_set(dm, 3)
        assert len(s2) == len(s3)


class TestAgainstPairScanOracle:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(connected_graphs())
    def test_same_sensors_and_trace_at_every_k(self, g):
        dm = all_pairs_distances(g)
        for k in range(dm.diameter + 1):
            expected = oracle_k_resolving_set(dm, k)
            sensors, trace = greedy_k_resolving_set(dm, k)
            assert (sensors, trace) == (expected.sensors, expected)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(connected_graphs(), st.data())
    def test_resolve_within_random_targets(self, g, data):
        dm = all_pairs_distances(g)
        for _ in range(3):
            # unsorted, with duplicates
            targets = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n))
            expected = oracle_resolve_within(dm, targets)
            assert greedy_resolve_within(dm, targets) == expected

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(connected_graphs(max_n=12))
    def test_never_below_brute_force(self, g):
        dm = all_pairs_distances(g)
        for k in range(dm.diameter + 1):
            optimum, _ = brute_force_md(g, k, dm)
            assert len(greedy_k_resolving_set(dm, k)[0]) >= optimum

    def test_larger_graphs_match(self):
        for g in (ba_tree(300, seed=4), random_connected_graph(250, 60, seed=8)):
            dm = all_pairs_distances(g)
            for k in (0, 1, 3):
                assert greedy_k_resolving_set(dm, k)[1] == oracle_k_resolving_set(dm, k)


class TestAgainstLazyOracle:
    @pytest.mark.parametrize(
        "make, ks",
        [
            (lambda: ba_tree(1000, seed=1), (0, 2, 4)),
            # at k = 6 round one lists the open pairs: the close ones never are
            (lambda: configuration_model(1000, seed=1), (0, 2, 4, 6)),
            (lambda: largest_connected_component(rgg(1000, 1.5, seed=1))[0], (0, 2)),
        ],
        ids=["ba-tree", "configuration-model", "rgg-lcc"],
    )
    def test_same_traces_on_n1000_graphs(self, make, ks):
        # the previous lazy-bound engine gives the same picks, gains and counts
        dm = all_pairs_distances(make())
        for k in ks:
            assert greedy_k_resolving_set(dm, k)[1] == lazy_k_resolving_set(dm, k)
        targets = np.random.default_rng(0).choice(dm.n, dm.n // 2, replace=False).tolist()
        assert greedy_resolve_within(dm, targets) == lazy_resolve_within(dm, targets)


def recorded_columns(monkeypatch) -> list:
    """Every ``columns`` array greedy's ``_split`` reads, call by call."""
    split, seen = engine._split, []

    def recording_split(columns, u, v):
        seen.append(columns)
        return split(columns, u, v)

    monkeypatch.setattr(engine, "_split", recording_split)
    return seen


class TestCountKeys:
    def test_dense_and_sorted_counts_agree(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 12, size=(7, 30))
        expected = [sum(c * (c - 1) // 2 for c in Counter(row).values()) for row in keys.tolist()]
        assert engine._pairs_left_together(keys, 12).tolist() == expected
        assert engine._pairs_left_together(keys, 10**6).tolist() == expected

    def test_scaled_distances_are_refused(self):
        # greedy keys a row by its distances as they are, so a matrix of
        # values n or more, which no graph's hop counts reach, never gets in
        dm = all_pairs_distances(random_connected_graph(14, 5, seed=0))
        with pytest.raises(ValueError, match="hop counts 0..13 "):
            DistanceMatrix(dm.matrix.astype(np.int64) * 32768)

    def test_within_keys_are_the_gathered_rows_viewed_unsigned(self, monkeypatch):
        # the targets' rows are gathered once, and keyed with no second copy
        dm = all_pairs_distances(random_connected_graph(14, 5, seed=0))
        seen = recorded_columns(monkeypatch)
        greedy_resolve_within(dm, range(6))
        assert seen and all(c is seen[0] for c in seen)
        assert seen[0].dtype == np.uint8 and np.array_equal(seen[0], dm.matrix[:6])


def spider_303():
    """A path 0..299 with a leg 150-300 and a two-edge leg 150-301-302:
    diameter 299, so the distance ranks are uint16."""
    edges = [(i, i + 1) for i in range(299)] + [(150, 300), (150, 301), (301, 302)]
    return Graph.from_edges(303, edges)


class TestWideRanks:
    def test_uint16_ranks_through_split(self, monkeypatch):
        dm = all_pairs_distances(spider_303())
        assert dm.matrix.dtype == np.int16
        split, pairs = engine._split, []

        def counting_split(columns, u, v):
            assert columns.dtype == np.uint16
            pairs.append(u.size)
            return split(columns, u, v)

        monkeypatch.setattr(engine, "_split", counting_split)
        assert greedy_k_resolving_set(dm, 0)[0] == (0, 151, 300)
        assert greedy_k_resolving_set(dm, 1)[0] == (0, 151, 300)
        assert greedy_k_resolving_set(dm, 3)[0] == (0, 151)
        assert max(pairs) > 0
        targets = np.random.default_rng(0).choice(dm.n, dm.n // 2, replace=False).tolist()
        assert greedy_resolve_within(dm, targets) == oracle_resolve_within(dm, targets)


class TestBlocks:
    @staticmethod
    def plain_split(columns, u, v):
        return (columns[u] != columns[v]).sum(axis=0)

    @pytest.mark.parametrize(
        "rows, candidates, pairs",
        [(40, 3, 200_000), (40, 9, 0), (50, 1000, 1000), (30, 5, 1000)],
        ids=["crosses-uint16-cap", "no-pairs", "partial-last-block", "crosses-uint8-cap"],
    )
    def test_split_matches_plain_count(self, rows, candidates, pairs):
        rng = np.random.default_rng(rows + candidates + pairs)
        columns = rng.integers(0, 4, size=(rows, candidates)).astype(np.uint8)
        u, v = (rng.integers(0, rows, size=pairs).astype(np.int32) for _ in range(2))
        # blocks of at most 255 rows: every case but no-pairs ends on a partial block
        assert pairs % min(255, engine._BATCH_ELEMENTS // candidates) != 0 or pairs == 0
        split = engine._split(columns, u, v)
        assert split.dtype == np.int64
        assert split.tolist() == self.plain_split(columns, u, v).tolist()

    def test_split_counts_past_the_uint16_range(self):
        # one candidate splits every pair: 200 000 > 65535 in its total
        columns = np.array([[0, 0], [0, 1]], dtype=np.uint8)
        u, v = np.zeros(200_000, dtype=np.int32), np.ones(200_000, dtype=np.int32)
        assert engine._split(columns, u, v).tolist() == [0, 200_000]

    @pytest.mark.parametrize("batch", [1, 7, 4096])
    def test_upper_pairs_match_nonzero(self, batch, monkeypatch):
        monkeypatch.setattr(engine, "_BATCH_ELEMENTS", batch)
        mask = np.random.default_rng(batch).random((37, 37)) < 0.4
        rows = lambda lo, hi: mask[lo:hi].copy()  # a new array, as the engine's masks are
        u, v = engine._upper_pairs(rows, 37, int(np.count_nonzero(np.triu(mask, 1))))
        eu, ev = np.nonzero(np.triu(mask, 1))
        assert u.dtype == v.dtype == np.int32
        assert (u.tolist(), v.tolist()) == (eu.tolist(), ev.tolist())

    @pytest.mark.parametrize("batch", [1, 7, 4096])
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(g=connected_graphs(), data=st.data())
    def test_traces_match_lazy_oracle_at_any_block_size(self, batch, g, data):
        dm = all_pairs_distances(g)
        targets = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_BATCH_ELEMENTS", batch)
            for k in range(dm.diameter + 1):
                assert greedy_k_resolving_set(dm, k)[1] == lazy_k_resolving_set(dm, k)
            assert greedy_resolve_within(dm, targets) == lazy_resolve_within(dm, targets)


class TestWorkingMemory:
    """tracemalloc peaks of one call beyond its matrix, per vertex pair: the
    former engine's matrix copies and n x n masks took 5.6 to 21 bytes."""

    @staticmethod
    def peak_per_pair(call, n):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (n * (n - 1) / 2)

    @pytest.mark.parametrize(
        "make, ks, bound",
        [
            (lambda: ba_tree(2000, seed=1), (0, 2), 1.0),
            (lambda: largest_connected_component(rgg(2000, 1.5, seed=1))[0], (0,), 1.0),
            # round one lists the open pairs, never the close ones
            (lambda: largest_connected_component(configuration_model(2000, seed=1))[0], (6,), 2.0),
        ],
        ids=["ba-tree", "rgg-lcc", "configuration-model"],
    )
    def test_greedy_k_resolving_set(self, make, ks, bound):
        dm = all_pairs_distances(make())
        for k in ks:
            assert self.peak_per_pair(lambda: greedy_k_resolving_set(dm, k), dm.n) <= bound

    def test_greedy_resolve_within_every_second_vertex(self):
        # the targets' rows, gathered once, take one byte per vertex pair
        dm = all_pairs_distances(ba_tree(2000, seed=1))
        assert self.peak_per_pair(lambda: greedy_resolve_within(dm, range(0, dm.n, 2)), dm.n) <= 3.0

    def test_ranks_are_a_view_of_the_matrix(self, monkeypatch):
        dm = all_pairs_distances(ba_tree(300, seed=1))
        seen = recorded_columns(monkeypatch)
        for k in (0, 2):
            greedy_k_resolving_set(dm, k)
        assert seen and all(np.shares_memory(c, dm.matrix) for c in seen)
        assert dm.diameter == int(dm.matrix.max())
