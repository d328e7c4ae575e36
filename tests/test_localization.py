"""localization module: sweeps and the two-step worst-case budget."""

from __future__ import annotations

import numpy as np
import pytest

from relaxmdim import (
    all_pairs_distances,
    brute_force_md,
    greedy_k_resolving_set,
    qstar_curve,
    sweep_metrics,
    two_step_qstar,
    uniform_tree,
)
from relaxmdim import localization

from conftest import (
    cycle_graph,
    full_m_ary_tree,
    path_graph,
    random_connected_graph,
    star_graph,
)


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
