"""generators module: determinism, exactness of the conditioned sampler,
structural statistics of each family."""

from __future__ import annotations

import itertools
import logging
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from relaxmdim import (
    OffspringDistribution,
    ba_tree,
    configuration_model,
    exact_tree_md,
    graph_stats,
    gw_tree_conditioned,
    is_tree,
    rgg,
    uniform_tree,
)
from relaxmdim import generators, graph
from relaxmdim.generators import (
    _MAX_COUNTED_THRESHOLDS,
    _critical_tilt,
    _depth_first_parents,
    _row_sum,
    _tilted_cdf,
    _zipf_sampler,
)
from relaxmdim.graph import TooLargeError, bfs_distances

from generators_oracle import (
    batched_gw_tree_conditioned,
    edge_list_ba_tree,
    heap_uniform_tree,
    loop_rgg,
    set_configuration_model,
    stack_depth_first_parents,
)

# offspring laws of the differential tests; all but the first are tilted
LAWS = {
    "poisson1": OffspringDistribution.poisson(1.0),
    "geometric0.6": OffspringDistribution.geometric(0.6),
    "poisson3": OffspringDistribution.poisson(3.0),
    "pmf": OffspringDistribution.from_pmf([0.3, 0.4, 0.2, 0.1]),
}
# half the mass on 0, the rest spread over 1..199: after the tilt, rows
# reaching the far thresholds take the searchsorted path
LONG_SUPPORT = OffspringDistribution.from_pmf([0.5] + [0.5 / 199] * 199)
# tree size -> seeds 0..count-1 compared against the batched oracle
ORACLE_SEEDS = {1: 5, 2: 150, 3: 150, 4: 150, 60: 60, 137: 40, 1000: 12}


class TestBATree:
    def test_minimal(self):
        g = ba_tree(2, seed=0)
        assert list(g.edges()) == [(0, 1)]

    def test_large_instance_is_tree(self):
        g = ba_tree(1000, seed=1)
        assert g.m == 999
        assert is_tree(g)

    def test_deterministic(self):
        a = ba_tree(200, seed=42)
        b = ba_tree(200, seed=42)
        assert a == b
        c = ba_tree(200, seed=43)
        assert c != a

    @pytest.mark.parametrize("seed", range(4))
    def test_same_graph_as_edge_list_build(self, seed):
        for n in range(2, 301):
            g = ba_tree(n, seed)
            assert g == edge_list_ba_tree(n, seed), n
            assert is_tree(g)

    @pytest.mark.parametrize("n, seed, rejected", [(3, 5, 0), (5000, 120, 1), (20000, 36, 1)])
    def test_same_graph_as_edge_list_build_past_rejected_draws(self, n, seed, rejected):
        # the scalar calls rng.integers(2t - 2) use up n - 2 + rejected
        # 32-bit draws of the stream, and so does one call over the array
        # of bounds 2t - 2
        stream = np.random.default_rng(seed).integers(0, 1 << 32, size=n - 1 + rejected)
        rng = np.random.default_rng(seed)
        for t in range(2, n):
            rng.integers(2 * t - 2)
        assert rng.integers(0, 1 << 32) == stream[-1]
        rng = np.random.default_rng(seed)
        rng.integers(0, np.arange(2, 2 * n - 2, 2))
        assert rng.integers(0, 1 << 32) == stream[-1]
        assert ba_tree(n, seed) == edge_list_ba_tree(n, seed)

    def test_same_graph_as_edge_list_build_beyond_2_to_the_16_vertices(self):
        # 70 000 vertices: the bounds 2t - 2 pass 2^17
        assert ba_tree(70_000, 0) == edge_list_ba_tree(70_000, 0)

    def test_100000_vertices_in_little_memory(self):
        # the stubs become the parents, drawn in one call, and one array of
        # pointers resolves the anchors; both the bounds and the pointers
        # are gone before the parent array's graph build, the peak: 4.8 MB,
        # 48 bytes a vertex; the refusal's 24 bytes a vertex stay below it
        tracemalloc.start()
        try:
            g = ba_tree(100_000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 99_999
        assert 24 * 100_000 < peak < 72 * 100_000, peak


class TestUniformTree:
    def test_n2(self):
        assert list(uniform_tree(2, 0).edges()) == [(0, 1)]

    def test_n3_uniform_over_labeled_trees(self):
        # the three labeled trees on {0,1,2} are identified by their center
        counts = Counter()
        for seed in range(3000):
            g = uniform_tree(3, seed)
            center = next(v for v in range(3) if g.degree(v) == 2)
            counts[center] += 1
        expected = 1000
        sigma = math.sqrt(3000 * (1 / 3) * (2 / 3))
        for v in range(3):
            assert abs(counts[v] - expected) <= 3 * sigma

    def test_leaf_fraction_near_inverse_e(self):
        fractions = []
        for seed in range(5):
            g = uniform_tree(2000, seed)
            fractions.append(sum(1 for v in range(2000) if g.degree(v) == 1) / 2000)
        assert abs(np.mean(fractions) - 1 / math.e) < 0.02

    def test_dimension_density_matches_limit(self):
        values = [exact_tree_md(uniform_tree(2000, seed), 0).md / 2000 for seed in range(3)]
        assert abs(np.mean(values) - 0.1408) < 0.02

    def test_deterministic(self):
        assert uniform_tree(50, 7) == uniform_tree(50, 7)

    def test_same_graph_as_heap_decode(self):
        for n in range(2, 201):
            for seed in range(4):
                assert uniform_tree(n, seed) == heap_uniform_tree(n, seed), (n, seed)
        assert uniform_tree(100_000, 11) == heap_uniform_tree(100_000, 11)

    def test_100000_vertices_in_little_memory(self):
        # the codes, their counts and the parents are arrays the decode reads
        # through memoryviews, and the pair keys are one buffer that becomes
        # the graph's indices: 5.0 to 5.8 MB, of which the graph keeps 2.4; the
        # lists of the decode and the keys' copies took 7.2 MB
        tracemalloc.start()
        try:
            g = uniform_tree(100_000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 99_999
        assert peak < 64 * 100_000, peak


class TestConditionedGWTree:
    def test_single_vertex(self):
        t = gw_tree_conditioned(1, OffspringDistribution.poisson(1.0), seed=0)
        assert t.n == 1
        assert t.root == 0

    def test_exact_size_and_offspring_sum(self):
        xi = OffspringDistribution.poisson(1.0)
        for seed in range(5):
            t = gw_tree_conditioned(137, xi, seed)
            assert t.n == 137
            assert is_tree(t.graph)
            assert sum(len(c) for c in t.children) == 136

    def test_supercritical_is_tilted_not_rejected(self):
        t = gw_tree_conditioned(400, OffspringDistribution.poisson(3.0), seed=3)
        assert t.n == 400

    def test_subcritical_is_tilted(self):
        t = gw_tree_conditioned(150, OffspringDistribution.geometric(0.6), seed=4)
        assert t.n == 150

    def test_unreachable_size_reports_attempts(self, monkeypatch):
        # support {0, 2} can only produce odd total progeny; sigma = 1, so the
        # bound is 200 + int(100 * sqrt(2 * pi * 4)) = 701 rows
        rows = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, size):
                rows.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        xi = OffspringDistribution.from_pmf([0.5, 0.0, 0.5])
        with pytest.raises(RuntimeError, match="rejected 701 draws"):
            gw_tree_conditioned(4, xi, seed=0)
        assert rows == [4] * 701

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("n", sorted(ORACLE_SEEDS))
    def test_same_trees_as_batched_oracle(self, n, law):
        xi = LAWS[law]
        for seed in range(ORACLE_SEEDS[n]):
            got = gw_tree_conditioned(n, xi, seed).parent
            assert got == batched_gw_tree_conditioned(n, xi, seed).parent, seed

    @pytest.mark.parametrize(
        "law, seed", [("poisson1", 0), ("geometric0.6", 0), ("poisson3", 6)]
    )
    def test_same_tree_as_oracle_past_its_first_block(self, law, seed):
        # each of these n = 2000 trees is accepted after more than the
        # oracle's 256-row first block (288, 390 and 293 rows)
        xi = LAWS[law]
        got = gw_tree_conditioned(2000, xi, seed).parent
        assert got == batched_gw_tree_conditioned(2000, xi, seed).parent

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_one_row_draw_is_the_choice_stream(self, law):
        pmf = np.asarray(LAWS[law].pmf, dtype=float)
        pmf = _critical_tilt(pmf / pmf.sum())
        cdf = np.cumsum(pmf)
        cdf /= cdf[-1]
        rows, n = 37, 53
        block = np.random.default_rng(5).choice(pmf.size, size=(rows, n), p=pmf)
        rng = np.random.default_rng(5)
        for row in block:
            assert np.array_equal(cdf.searchsorted(rng.random(n), side="right"), row)

    @pytest.mark.parametrize("law", sorted(LAWS) + ["long-support"])
    def test_row_sum_is_the_searchsorted_sum(self, law):
        # rows whose largest draw sits on, just below or just above each
        # threshold, filled with exact cdf values and their neighbours
        xi = LAWS.get(law, LONG_SUPPORT)
        cdf, _ = _tilted_cdf(xi.pmf)
        edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        rng = np.random.default_rng(3)
        paths = set()
        for top in (*cdf, *np.nextafter(cdf, 0.0), *np.nextafter(cdf, 1.0)):
            pool = edges[edges <= top]
            row = np.concatenate([rng.choice(pool, size=100), rng.random(100) * top, [top]])
            assert _row_sum(cdf, row) == int(cdf.searchsorted(row, side="right").sum())
            paths.add(int(cdf.searchsorted(top, side="right")) > _MAX_COUNTED_THRESHOLDS)
        assert paths == ({False, True} if law == "long-support" else {False})

    def test_depth_first_decode_matches_stack_decode(self):
        # every depth-first offspring sequence with up to 6 vertices
        for n in range(2, 7):
            for counts in itertools.product(range(n), repeat=n):
                if sum(counts) == n - 1 and all(
                    sum(counts[: i + 1]) >= i + 1 for i in range(n - 1)
                ):
                    got = _depth_first_parents(np.array(counts)).tolist()
                    assert got == stack_depth_first_parents(counts), counts
        # random ones, rotated by the cycle lemma; 70 000 levels need 32 bits
        rng = np.random.default_rng(0)
        for n in (50, 1000, 70_000):
            counts = np.bincount(rng.integers(0, n, size=n - 1), minlength=n)
            pivot = int(np.argmin(np.cumsum(counts) - np.arange(1, n + 1)))
            counts = np.roll(counts, -(pivot + 1))
            assert _depth_first_parents(counts).tolist() == stack_depth_first_parents(counts.tolist())

    def test_tilt_runs_once_per_law(self, monkeypatch):
        tilts = []
        real = generators._critical_tilt

        def counting_tilt(pmf):
            tilts.append(pmf.size)
            return real(pmf)

        monkeypatch.setattr(generators, "_critical_tilt", counting_tilt)
        _tilted_cdf.cache_clear()
        xi = LAWS["geometric0.6"]
        for seed in range(5):
            gw_tree_conditioned(8, xi, seed)
        assert len(tilts) == 1
        cdf, _ = _tilted_cdf(xi.pmf)
        pmf = np.asarray(xi.pmf, dtype=float)
        expected = np.cumsum(real(pmf / pmf.sum()))
        expected /= expected[-1]
        assert cdf.tobytes() == expected.tobytes()
        assert not cdf.flags.writeable

    def test_deterministic(self):
        xi = OffspringDistribution.poisson(1.0)
        a = gw_tree_conditioned(60, xi, seed=9)
        b = gw_tree_conditioned(60, xi, seed=9)
        assert a.parent == b.parent

    def test_shape_frequencies_match_enumeration(self):
        # all valid depth-first offspring sequences for 4 vertices, weighted
        # by the product of Poisson(1) masses, conditioned on total progeny
        n = 4
        weight = {}
        for counts in itertools.product(range(n), repeat=n):
            if sum(counts) != n - 1:
                continue
            if any(sum(counts[: i + 1]) - (i + 1) < 0 for i in range(n - 1)):
                continue
            weight[counts] = math.prod(1 / math.factorial(c) for c in counts)
        total = sum(weight.values())
        exact = {seq: w / total for seq, w in weight.items()}
        assert len(exact) == 5  # Catalan(3) rooted ordered trees

        xi = OffspringDistribution.poisson(1.0)
        samples = 100_000
        observed = Counter()
        for seed in range(samples):
            t = gw_tree_conditioned(n, xi, seed=seed)
            observed[tuple(len(t.children[v]) for v in range(n))] += 1
        assert set(observed) <= set(exact)
        for seq, p in exact.items():
            sigma = math.sqrt(samples * p * (1 - p))
            assert abs(observed[seq] - samples * p) <= 3 * sigma, (seq, observed[seq], samples * p)


class TestCriticalTilt:
    def test_identity_when_critical(self):
        pmf = np.asarray(OffspringDistribution.poisson(1.0).pmf)
        pmf = pmf / pmf.sum()
        tilted = _critical_tilt(pmf)
        assert np.allclose(pmf, tilted)

    def test_tilted_poisson_is_unit_poisson(self):
        # tilting Poisson(lam) by theta gives Poisson(lam * theta)
        pmf = np.asarray(OffspringDistribution.poisson(3.0).pmf)
        pmf = pmf / pmf.sum()
        tilted = _critical_tilt(pmf)
        unit = np.asarray(OffspringDistribution.poisson(1.0).pmf)
        k = min(tilted.size, unit.size)
        assert np.allclose(tilted[:k], unit[:k], atol=1e-9)

    def test_leafless_distribution_rejected(self):
        with pytest.raises(ValueError):
            _critical_tilt(np.asarray([0.0, 0.5, 0.5]))


class TestConfigurationModel:
    def test_zipf_support(self):
        draw = _zipf_sampler(1000)
        rng = np.random.default_rng(0)
        values = draw(rng, 10_000)
        assert values.min() >= 1
        assert values.max() <= 997

    def test_deterministic(self):
        a = configuration_model(300, seed=5)
        b = configuration_model(300, seed=5)
        assert a == b

    def test_statistics_near_reference(self):
        g = configuration_model(1000, seed=11)
        stats = graph_stats(g)
        assert stats.n > 950  # erasure rarely disconnects more than a few
        assert 3.4 < stats.avg_degree < 4.2
        assert stats.shell1_size <= 3

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            configuration_model(3, seed=0)

    @pytest.mark.parametrize("n", [4, 5, 800, 4000])
    def test_same_graph_and_erasures_as_set_oracle(self, n, caplog):
        caplog.set_level(logging.DEBUG, logger=generators.__name__)
        for seed in range(10):
            caplog.clear()
            g = configuration_model(n, seed)
            expected, loops, multi = set_configuration_model(n, seed)
            assert g == expected, seed
            # the debug line is logged only when something was erased
            logged = [r.args for r in caplog.records if "erased" in r.getMessage()]
            assert logged == ([(loops, multi)] if loops or multi else []), seed


class TestRGG:
    def test_radius_zero_gives_empty_graph(self):
        assert rgg(100, 0.0, seed=0).m == 0

    def test_deterministic(self):
        assert rgg(300, 1.5, seed=8) == rgg(300, 1.5, seed=8)

    def test_grid_matches_brute_force(self):
        # regenerate the same points (first draw of the stream) and compare
        # against the quadratic-time adjacency
        for n, seed in ((200, 1), (300, 2)):
            g = rgg(n, 1.5, seed=seed)
            points = np.random.default_rng(seed).random((n, 2))
            radius = 1.5 * math.sqrt(math.log(n) / (n * math.pi))
            diffs = points[:, None, :] - points[None, :, :]
            dist2 = (diffs**2).sum(axis=2)
            expected = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if dist2[i, j] <= radius * radius
            }
            assert set(g.edges()) == expected

    def test_average_degree_near_reference(self):
        g = rgg(1000, 1.5, seed=3)
        assert 13.5 < 2 * g.m / g.n < 15.7

    def test_mostly_connected_at_factor_1_5(self):
        connected = 0
        for seed in range(100):
            g = rgg(1000, 1.5, seed=seed)
            if bfs_distances(g, 0).count(-1) == 0:
                connected += 1
        assert connected >= 95

    # (5000, 1e6) is left out: its complete graph has 12.5 million edges, over
    # a gigabyte in the loop oracle's edge list and neighbour sets, and the
    # oracle takes about half a minute per seed
    @pytest.mark.parametrize(
        "n, factor",
        [c for c in itertools.product([2, 3, 50, 800, 5000], [0.3, 1.5, 3, 1e6]) if c != (5000, 1e6)],
    )
    def test_same_graph_as_loop_oracle(self, n, factor):
        for seed in range(10):
            g = rgg(n, factor, seed)
            assert g == loop_rgg(n, factor, seed), seed
            if factor == 1e6:  # one cell holds every point
                assert g.m == n * (n - 1) // 2

    def test_tiny_radius_needs_no_cell_overflow(self):
        # cells as narrow as this radius would need ids far past int64
        for seed in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = rgg(5000, 1e-300, seed)
            assert g.m == 0
            assert g == loop_rgg(5000, 1e-300, seed)

    def test_one_shell_small(self):
        # seed 4 gives a connected graph; graph_stats refuses any other
        assert graph_stats(rgg(1000, 1.5, seed=4)).shell1_size <= 3


def test_trees_peel_away_entirely():
    from relaxmdim.graph import peel_degree_le1

    for g in (ba_tree(500, seed=0), uniform_tree(500, seed=0)):
        assert sum(len(b) for b in peel_degree_le1(g)) == 500


class TestMemoryRefusal:
    """The samplers refuse through the one rule in ``graph``, so a limit
    patched there reaches them as it reaches all-pairs distances."""

    @pytest.mark.parametrize(
        "sample",
        [
            lambda: ba_tree(50, 0),
            lambda: uniform_tree(50, 1),
            lambda: gw_tree_conditioned(50, OffspringDistribution.poisson(1.0), 0),
            lambda: configuration_model(50, 0),
            lambda: rgg(50, 1.5, 0),
        ],
        ids=["ba-tree", "uniform-tree", "gw-tree", "config-model", "rgg"],
    )
    def test_each_sampler_refuses_beyond_a_patched_limit(self, sample, monkeypatch):
        monkeypatch.setattr(graph, "_physical_memory", lambda: 0)
        with pytest.raises(TooLargeError, match="physical memory"):
            sample()

    def test_rgg_candidates_refused_beyond_a_patched_limit(self, monkeypatch):
        # 50 points pass the 16-byte-a-point bound; at this radius all 1225
        # pairs are candidates, 48 bytes each
        monkeypatch.setattr(graph, "_physical_memory", lambda: 50 * 16)
        with pytest.raises(TooLargeError, match="1225 candidate pairs, .* physical memory"):
            rgg(50, 1e6, 0)
