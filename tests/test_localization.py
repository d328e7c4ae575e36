"""localization module: sweeps and the two-step worst-case budget."""

from __future__ import annotations

from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from relaxmdim import (
    Graph,
    all_pairs_distances,
    brute_force_md,
    greedy_k_resolving_set,
    greedy_resolve_within,
    largest_connected_component,
    qstar_curve,
    rgg,
    sweep_metrics,
    two_step_qstar,
    uniform_tree,
)
from relaxmdim import localization

from conftest import (
    bipartite_graphs,
    connected_graphs,
    cycle_graph,
    full_m_ary_tree,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from localization_oracle import greedy_sweep_per_k, qstar_curve_per_k


class TestSweep:
    def test_k0_row_fully_resolved(self):
        g = random_connected_graph(20, 6, seed=0)
        rec = sweep_metrics(g, [0])[0]
        assert rec.non_resolved_ratio == 0.0
        assert rec.alpha == 1

    def test_diameter_row_all_merged(self):
        g = random_connected_graph(15, 4, seed=1)
        dm = all_pairs_distances(g)
        rec = sweep_metrics(g, [dm.diameter])[0]
        assert rec.sensors == 0
        assert rec.alpha == g.n

    def test_full_binary_exact_sweep(self):
        g = full_m_ary_tree(2, 3)
        records = sweep_metrics(g, [0, 2], resolver="exact-tree")
        assert [rec.sensors for rec in records] == [4, 2]

    def test_exact_resolver_rejects_cycles(self):
        with pytest.raises(ValueError, match="acyclic"):
            sweep_metrics(cycle_graph(5), [0], resolver="exact-tree")

    def test_unknown_resolver_refused_by_name(self):
        with pytest.raises(ValueError, match="unknown resolver 'exact_tree'; choose one of exact-tree, greedy"):
            sweep_metrics(uniform_tree(20, 1), [0], resolver="exact_tree")

    @pytest.mark.parametrize("resolver, solver", [("exact-tree", "exact_tree_md"), ("greedy", "greedy_k_resolving_set")])
    def test_solver_read_from_module_globals_per_k(self, resolver, solver, monkeypatch):
        # a wrapper bound at the module's attribute sees every per-k call
        calls = []
        original = getattr(localization, solver)

        def counted(*args):
            calls.append(args[-1])
            return original(*args)

        monkeypatch.setattr(localization, solver, counted)
        sweep_metrics(full_m_ary_tree(2, 3), [0, 1, 2], resolver=resolver)
        # on a bipartite graph greedy takes k = 1's record from its k = 0 solve
        assert calls == ([0, 1, 2] if resolver == "exact-tree" else [0, 2])
        if resolver == "greedy":  # an odd cycle is not bipartite: every k is solved
            calls.clear()
            sweep_metrics(cycle_graph(7), [0, 1, 2], resolver=resolver)
            assert calls == [0, 1, 2]

    def test_histogram_mass_equals_non_resolved(self):
        g = random_connected_graph(30, 8, seed=2)
        for rec in sweep_metrics(g, [1, 2, 3]):
            mass = sum(size * count for size, count in rec.class_histogram.items())
            assert mass == round(rec.non_resolved_ratio * g.n)

    def test_exact_tree_sensor_counts_non_increasing(self):
        from relaxmdim import uniform_tree, tree_diameter

        g = uniform_tree(40, seed=3)
        ks = list(range(tree_diameter(g) + 1))
        counts = [rec.sensors for rec in sweep_metrics(g, ks, resolver="exact-tree")]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_exact_tree_sweep_reads_no_matrix(self, monkeypatch):
        from relaxmdim import equivalence_partition, exact_tree_md, localization, uniform_tree

        g = uniform_tree(120, seed=4)
        ks = range(12)
        dm = all_pairs_distances(g)
        witnesses = [exact_tree_md(g, k).witness for k in ks]

        def refuse(*args, **kwargs):
            raise AssertionError("all_pairs_distances called")

        monkeypatch.setattr(localization, "all_pairs_distances", refuse)
        records = sweep_metrics(g, ks, resolver="exact-tree")
        assert [rec.k for rec in records] == list(ks)
        for rec, witness in zip(records, witnesses):
            part = equivalence_partition(dm, witness)
            assert rec.sensors == len(witness)
            assert rec.non_resolved_ratio == part.non_resolved_count / g.n
            assert rec.alpha == part.alpha
            assert rec.class_histogram == part.histogram()

    @pytest.mark.parametrize("resolver", ["exact-tree", "greedy"])
    def test_k_values_from_a_generator(self, resolver):
        g = uniform_tree(30, 1)
        records = sweep_metrics(g, (k for k in range(3)), resolver)
        assert records == sweep_metrics(g, [0, 1, 2], resolver)
        assert [rec.k for rec in records] == [0, 1, 2]

    def test_csv_row_format(self):
        rec = sweep_metrics(path_graph(4), [0])[0]
        fields = rec.csv_row().split(",")
        assert fields[0] == "0"
        assert int(fields[1]) == rec.sensors


class TestTwoStep:
    def test_k0_needs_no_second_phase(self):
        g = random_connected_graph(18, 5, seed=4)
        dm = all_pairs_distances(g)
        result = two_step_qstar(g, 0, dm)
        s0, _ = greedy_k_resolving_set(dm, 0)
        assert result.max_s2 == 0
        assert result.qstar == len(s0)

    def test_star_worst_case_matches_brute_force(self):
        # K_{1,5}: at k = diameter the first phase is empty and the second
        # phase must fully separate all six vertices
        g = star_graph(5)
        result = two_step_qstar(g, 2)
        assert result.phase1 == ()
        assert result.qstar == brute_force_md(g, 0)[0] == 4

    def test_beyond_diameter_equals_zero_relaxed_size(self):
        g = random_connected_graph(16, 5, seed=6)
        dm = all_pairs_distances(g)
        result = two_step_qstar(g, dm.diameter, dm)
        s0, _ = greedy_k_resolving_set(dm, 0)
        assert result.qstar == len(s0)

    def test_union_separates_every_class(self):
        g = random_connected_graph(25, 7, seed=7)
        dm = all_pairs_distances(g)
        result = two_step_qstar(g, 2, dm)
        from relaxmdim import greedy_resolve_within

        for block, size in result.class_prices:
            s2 = greedy_resolve_within(dm, block)
            assert len(s2) == size
            joined = result.phase1 + tuple(s for s in s2 if s not in result.phase1)
            cols = dm.matrix[np.ix_(list(block), list(joined))]
            assert len({tuple(row) for row in cols.tolist()}) == len(block)

    def test_worst_class_attains_max(self):
        g = random_connected_graph(25, 6, seed=8)
        result = two_step_qstar(g, 3)
        if result.class_prices:
            assert result.max_s2 == max(size for _, size in result.class_prices)
            assert (result.worst_class, result.max_s2) in result.class_prices

    def test_as_dict_includes_worst_class(self):
        d = two_step_qstar(star_graph(5), 2).as_dict()
        assert set(d) == {"k", "phase1", "phase1_size", "max_s2", "qstar", "worst_class"}
        assert d["worst_class"] == [0, 1, 2, 3, 4, 5]


class TestQstarCurve:
    def test_endpoints_and_lower_bounds(self):
        g = random_connected_graph(20, 6, seed=9)
        dm = all_pairs_distances(g)
        curve = qstar_curve(g, dm.diameter)
        s0, _ = greedy_k_resolving_set(dm, 0)
        assert curve[0].qstar == len(s0)
        assert curve[-1].qstar == len(s0)
        for res in curve:
            assert res.qstar >= max(len(res.phase1), res.max_s2)

    def test_reuses_the_callers_matrix(self, monkeypatch):
        from relaxmdim import localization

        g = random_connected_graph(20, 6, seed=9)
        dm = all_pairs_distances(g)
        expected = qstar_curve(g, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("all_pairs_distances called")

        monkeypatch.setattr(localization, "all_pairs_distances", refuse)
        assert qstar_curve(g, 3, dm) == expected

    def test_k_max_beyond_diameter_rejected(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="diameter"):
            qstar_curve(g, 10)


class TestOddFromEven:
    """On a bipartite graph every vertex splits every pair at odd distance,
    so greedy at an odd k below the diameter repeats k - 1."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(bipartite_graphs())
    def test_sensors_and_traces_at_k_and_k_minus_1(self, g):
        dm = all_pairs_distances(g)
        assert localization._bipartite(g, dm) == (g.n >= 2)
        for k in range(1, dm.diameter, 2):
            sensors, trace = greedy_k_resolving_set(dm, k)
            below, below_trace = greedy_k_resolving_set(dm, k - 1)
            at_k = int(np.count_nonzero(np.triu(dm.matrix == k, 1)))
            assert sensors == below
            assert trace.remaining == below_trace.remaining
            assert trace.newly_covered[1:] == below_trace.newly_covered[1:]
            assert trace.newly_covered[0] == below_trace.newly_covered[0] - at_k

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(connected_graphs())
    def test_bipartite_check_matches_networkx(self, g):
        nxg = nx.Graph(list(g.edges()))
        nxg.add_nodes_from(range(g.n))
        expected = g.n >= 2 and nx.is_bipartite(nxg)
        assert localization._bipartite(g, all_pairs_distances(g)) == expected

    @pytest.mark.parametrize(
        "make",
        [
            lambda: full_m_ary_tree(2, 4),
            lambda: uniform_tree(60, seed=2),
            lambda: grid_graph(4, 6),
            lambda: cycle_graph(12),
            lambda: cycle_graph(11),
            lambda: random_connected_graph(40, 12, seed=3),
            lambda: largest_connected_component(rgg(120, 1.5, seed=4))[0],
            lambda: path_graph(4),  # diameter 3: k = 3 leaves nothing to cover, k = 2 does
            lambda: path_graph(2),
            lambda: path_graph(1),
        ],
        ids=["binary-tree", "uniform-tree", "grid", "even-cycle", "odd-cycle", "chords", "rgg-lcc",
             "odd-diameter-path", "edge", "one-vertex"],
    )
    def test_curve_and_sweep_match_the_per_k_loop(self, make):
        g = make()
        diameter = all_pairs_distances(g).diameter
        assert qstar_curve(g, diameter) == qstar_curve_per_k(g, diameter)
        ks = list(range(diameter + 2))
        assert sweep_metrics(g, ks) == greedy_sweep_per_k(g, ks)
        # k before k - 1, odd k with no k - 1, and repeats
        ks = [3, 2, 1, 0, 1, 5, 5, 4, diameter + 1, diameter]
        assert sweep_metrics(g, ks) == greedy_sweep_per_k(g, ks)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(bipartite_graphs(max_n=30))
    def test_curve_matches_the_per_k_loop_on_bipartite_graphs(self, g):
        diameter = all_pairs_distances(g).diameter
        assert qstar_curve(g, diameter) == qstar_curve_per_k(g, diameter)
        assert sweep_metrics(g, range(diameter + 1)) == greedy_sweep_per_k(g, range(diameter + 1))

    def test_empty_graph(self):
        g = Graph.from_adjacency(())
        assert qstar_curve(g, 0) == qstar_curve_per_k(g, 0)
        with pytest.raises(ValueError, match="empty"):
            sweep_metrics(g, [0, 1])

    def test_odd_k_of_a_bipartite_curve_is_not_solved(self, monkeypatch):
        calls = []
        original = localization.two_step_qstar

        def counted(g, k, dm=None):
            calls.append(k)
            return original(g, k, dm)

        monkeypatch.setattr(localization, "two_step_qstar", counted)
        qstar_curve(path_graph(6), 5)  # diameter 5: k = 5 covers nothing, k = 4 does
        assert calls == [0, 2, 4, 5]


class TestSmallClassPrices:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_connected_graph(12, 3, seed=0),
            lambda: random_connected_graph(11, 8, seed=1),
            lambda: uniform_tree(12, seed=2),
            lambda: star_graph(6),
            lambda: cycle_graph(9),
            lambda: grid_graph(3, 4),
        ],
        ids=["chords", "dense-chords", "tree", "star", "odd-cycle", "grid"],
    )
    def test_every_pair_and_triple_against_greedy(self, make):
        dm = all_pairs_distances(make())
        for pair in combinations(range(dm.n), 2):
            assert len(greedy_resolve_within(dm, pair)) == 1
        triples = list(combinations(range(dm.n), 3))
        prices = list(localization._triple_prices(dm, triples))
        assert prices == [len(greedy_resolve_within(dm, t)) for t in triples]

    def test_no_triples(self):
        assert list(localization._triple_prices(all_pairs_distances(path_graph(3)), [])) == []

    def test_only_larger_classes_call_greedy(self, monkeypatch):
        g = random_connected_graph(40, 10, seed=5)
        dm = all_pairs_distances(g)
        expected = qstar_curve_per_k(g, dm.diameter)
        sizes = []
        original = localization.greedy_resolve_within

        def counted(dm, targets):
            sizes.append(len(targets))
            return original(dm, targets)

        monkeypatch.setattr(localization, "greedy_resolve_within", counted)
        assert [two_step_qstar(g, k, dm) for k in range(dm.diameter + 1)] == expected
        assert all(size > 3 for size in sizes)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: qstar_curve(g, -1),
        lambda g: two_step_qstar(g, -1),
        lambda g: sweep_metrics(g, [0, -1], resolver="greedy"),
        lambda g: sweep_metrics(g, [-1], resolver="exact-tree"),
    ],
    ids=["qstar_curve", "two_step_qstar", "sweep-greedy", "sweep-exact-tree"],
)
def test_negative_k_refused_before_any_distance(call, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("distances computed for a negative k")

    monkeypatch.setattr(localization, "all_pairs_distances", refuse)
    monkeypatch.setattr(localization, "TreeMetric", refuse)
    with pytest.raises(ValueError, match="negative"):
        call(path_graph(5))
