"""graph module: loader, distances, partitions, verification, statistics."""

from __future__ import annotations

import io
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from relaxmdim import (
    Graph,
    TooLargeError,
    all_pairs_distances,
    equivalence_partition,
    graph_stats,
    identification_vector,
    is_k_relaxed_resolving,
    largest_connected_component,
    load_edge_list,
)
from relaxmdim import graph
from relaxmdim.graph import (
    UNREACHABLE,
    DistanceMatrix,
    bfs_distances,
    connected_components,
    induced_subgraph,
    peel_degree_le1,
)

from conftest import (
    connected_graphs,
    cycle_graph,
    ladder_graph,
    path_graph,
    random_connected_graph,
    random_trees,
    sparse_graphs,
    star_graph,
)
from graph_oracle import (
    bfs_distance_matrix,
    dict_blocks,
    dict_induced_subgraph,
    dict_is_k_resolved,
    round_scan_peel,
)

# trees, unicyclic and sparse connected graphs, and disconnected sparse
# graphs with isolated vertices
ANY_GRAPH = st.one_of(random_trees(), connected_graphs(), sparse_graphs())
CONNECTED_GRAPH = st.one_of(random_trees(), connected_graphs())

# the refusal of a disconnected graph names the way out
DISCONNECTED = r"not connected.*largest_connected_component.*--lcc on the command line"


@contextmanager
def no_matrix_allocation() -> Iterator[None]:
    """Make ``np.empty`` and ``np.full`` raise inside the block."""

    def no_allocation(*args, **kwargs):
        raise AssertionError("matrix allocated")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph.np, "empty", no_allocation)
        mp.setattr(graph.np, "full", no_allocation)
        yield


def assert_refused_unallocated(g: Graph) -> None:
    """``all_pairs_distances(g)`` refuses ``g`` as disconnected before it
    allocates any array."""
    with no_matrix_allocation(), pytest.raises(ValueError, match=DISCONNECTED):
        all_pairs_distances(g)


@st.composite
def graph_and_sensors(draw, graphs=ANY_GRAPH):
    """A graph and a list of distinct sensors in arbitrary order (maybe empty)."""
    g = draw(graphs)
    return g, draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n))


class TestLoadEdgeList:
    def test_two_edge_path(self):
        res = load_edge_list("0 1\n1 2")
        assert res.graph.n == 3
        assert res.graph.m == 2
        assert sorted(res.graph.degrees()) == [1, 1, 2]

    def test_duplicate_edge_collapsed(self):
        res = load_edge_list("a b\nb a\n# c")
        assert res.graph.n == 2
        assert res.graph.m == 1
        assert res.duplicate_edges == 1
        assert res.labels == ("a", "b")

    def test_self_loop_dropped_and_counted(self):
        res = load_edge_list("x x\nx y")
        assert res.graph.m == 1
        assert res.self_loops == 1

    def test_first_appearance_ids(self):
        res = load_edge_list("b a\na c")
        assert res.labels == ("b", "a", "c")

    def test_inline_comment(self):
        res = load_edge_list("0 1  # the only edge\n\n")
        assert res.graph.m == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list("0 1\n0 1 2")

    def test_accepts_stream(self):
        res = load_edge_list(io.StringIO("0 1\n1 2"))
        assert res.graph.n == 3


class TestLargestComponent:
    def test_connected_graph_identity(self):
        g = path_graph(5)
        sub, mapping = largest_connected_component(g)
        assert sub.n == 5
        assert mapping == (0, 1, 2, 3, 4)

    def test_picks_larger_component(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        sub, mapping = largest_connected_component(g)
        assert sub.n == 3
        assert mapping == (0, 1, 2)

    def test_tie_broken_by_smallest_id(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        sub, mapping = largest_connected_component(g)
        assert mapping == (0, 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            largest_connected_component(Graph.from_edges(0, []))


@st.composite
def graph_and_vertex_list(draw):
    """A tree, sparse connected or disconnected graph and an unsorted vertex
    list with duplicates (maybe empty)."""
    g = draw(ANY_GRAPH)
    return g, draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))


class TestInducedSubgraph:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(graph_and_vertex_list())
    def test_matches_dict_relabel(self, case):
        g, vertices = case
        sub, mapping = induced_subgraph(g, vertices)
        ref_sub, ref_mapping = dict_induced_subgraph(g, vertices)
        assert sub.adjacency == ref_sub.adjacency
        assert mapping == ref_mapping
        assert all(type(v) is int for v in mapping)
        assert all(type(w) is int for nbrs in sub.adjacency for w in nbrs)

    def test_whole_graph_and_empty_list(self):
        g = random_connected_graph(30, 10, seed=4)
        assert induced_subgraph(g, range(g.n)) == (g, tuple(range(g.n)))
        assert induced_subgraph(g, []) == (Graph(()), ())


class TestDistances:
    def test_path_endpoints(self):
        dm = all_pairs_distances(path_graph(4))
        assert dm.d(0, 3) == 3

    def test_star_leaves(self):
        dm = all_pairs_distances(star_graph(2))
        assert dm.d(1, 2) == 2

    def test_cycle(self):
        dm = all_pairs_distances(cycle_graph(4))
        assert dm.d(0, 2) == 2
        assert dm.d(0, 1) == 1

    def test_disconnected_sentinel(self):
        # the sentinel marks BFS rows; a matrix with it is never built
        g = Graph.from_edges(3, [(0, 1)])
        assert bfs_distances(g, 0) == [0, 1, UNREACHABLE]
        assert_refused_unallocated(g)

    def test_hand_built_negative_entry_refused(self):
        with pytest.raises(ValueError, match="largest_connected_component"):
            DistanceMatrix(np.array([[0, 1, -1], [1, 0, -1], [-1, -1, 0]], dtype=np.int8))
        dm = DistanceMatrix(np.array([[0, 1], [1, 0]], dtype=np.int8))
        assert dm.diameter == 1 and not dm.matrix.flags.writeable
        assert DistanceMatrix(np.empty((0, 0), dtype=np.int8)).diameter == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matrix_properties(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(int(rng.integers(2, 30)), int(rng.integers(0, 10)), seed)
        mat = all_pairs_distances(g).matrix
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)
        # d(u,v) == 1 exactly on edges
        ones = {(u, v) for u in range(g.n) for v in range(g.n) if u < v and mat[u, v] == 1}
        assert ones == set(g.edges())

    def test_triangle_inequality_random_triples(self):
        g = random_connected_graph(40, 20, seed=3)
        mat = all_pairs_distances(g).matrix
        rng = np.random.default_rng(0)
        triples = rng.integers(0, g.n, size=(1000, 3))
        u, v, w = triples[:, 0], triples[:, 1], triples[:, 2]
        assert np.all(mat[u, w] <= mat[u, v] + mat[v, w])

    def test_bfs_matches_matrix(self):
        g = random_connected_graph(25, 5, seed=9)
        mat = all_pairs_distances(g).matrix
        for src in range(0, g.n, 5):
            assert bfs_distances(g, src) == mat[src].tolist()


def _with_edges(g: Graph, n: int, extra: list[tuple[int, int]]) -> Graph:
    """``g`` on ``n >= g.n`` vertices with the ``extra`` edges added."""
    return Graph.from_edges(n, [*g.edges(), *extra])


def _cycle_with_pendant_trees() -> Graph:
    """A 6-cycle 0..5 with a path, a star and a branching tree hanging off
    three of its vertices, ids interleaved so no tree is a contiguous range."""
    pendant = [(0, 6), (6, 9), (9, 12), (2, 7), (2, 10), (2, 13), (4, 8), (8, 11), (8, 14), (14, 15)]
    return _with_edges(cycle_graph(6), 16, pendant)


def _long_cycle_with_pendant() -> Graph:
    """A 600-cycle with a three-vertex star hanging off vertex 5."""
    return _with_edges(cycle_graph(600), 603, [(5, 600), (600, 601), (600, 602)])


class TestAllPairsDistances:
    """The peel, the bit-parallel BFS or Dijkstra on the 2-core and the row
    recurrence, against one BFS per source."""

    @staticmethod
    def contract_dtype(oracle: np.ndarray) -> np.dtype:
        """The narrowest signed dtype holding twice the eccentricity of
        vertex 0."""
        bound = 2 * int(oracle[0].max()) if oracle.size else 0
        return np.min_scalar_type(-bound - 1)

    @classmethod
    def check(cls, g: Graph, oracle: np.ndarray | None = None) -> np.dtype:
        mat = all_pairs_distances(g).matrix
        oracle = bfs_distance_matrix(g) if oracle is None else oracle
        assert mat.dtype == cls.contract_dtype(oracle)
        assert not mat.flags.writeable
        assert np.array_equal(mat, oracle)
        return mat.dtype

    # no explain phase: its line tracer makes a failing example's shrink,
    # with a 200-source BFS oracle per run, take minutes instead of seconds
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=150,
        phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
    )
    @given(st.one_of(random_trees(200), connected_graphs(200), sparse_graphs(200)))
    def test_matches_bfs_oracle(self, g):
        oracle = bfs_distance_matrix(g)
        if (oracle == UNREACHABLE).any():
            assert_refused_unallocated(g)
            return
        # every 2-core to the bit-parallel BFS, then every one to Dijkstra
        for max_levels in (g.n, -1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph, "BIT_BFS_MAX_LEVELS", max_levels)
                self.check(g, oracle)

    @pytest.mark.parametrize("n,extra", [(63, 40), (64, 64), (65, 30), (130, 90), (200, 400)])
    def test_multi_word_bitsets(self, n, extra):
        # one word, one full word, one bit over, and partial last words
        self.check(random_connected_graph(n, extra, seed=n))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_smallest_graphs(self, n):
        self.check(path_graph(n))

    def test_pendant_trees_on_a_cycle(self):
        self.check(_cycle_with_pendant_trees())
        self.check(_with_edges(cycle_graph(5), 6, [(2, 5)]))  # one pendant leaf

    def test_isolated_vertices_and_mixed_components(self):
        # isolated 0, 3 and 9; a pendant-tree-on-cycle component; a tree
        g = Graph.from_edges(
            14, [(1, 4), (4, 7), (7, 1), (7, 10), (10, 13), (2, 5), (5, 8), (5, 11), (11, 6), (6, 12)]
        )
        assert_refused_unallocated(g)
        assert_refused_unallocated(Graph.from_edges(5, []))
        for comp in connected_components(g):
            self.check(induced_subgraph(g, comp)[0])

    @staticmethod
    def block_dtypes(monkeypatch, engine: str, refused: str) -> set:
        """Record the dtype of every block the ``engine`` yields, and make the
        ``refused`` engine raise."""
        seen = set()
        inner = getattr(graph, engine)

        def spy(core, dtype):
            for rows, block in inner(core, dtype):
                seen.add(block.dtype)
                yield rows, block

        def refuse(core, dtype):
            raise AssertionError(f"{refused} run")

        monkeypatch.setattr(graph, engine, spy)
        monkeypatch.setattr(graph, refused, refuse)
        return seen

    @pytest.mark.parametrize(
        "g",
        [cycle_graph(600), ladder_graph(300), _long_cycle_with_pendant()],
        ids=["cycle600", "ladder300", "cycle600-pendant"],
    )
    def test_wide_cores_take_dijkstra(self, g, monkeypatch):
        seen = self.block_dtypes(monkeypatch, "_dijkstra_rows", "_bit_bfs_rows")
        assert self.check(g) == np.int16
        assert seen == {np.dtype(np.int16)}

    @pytest.mark.parametrize(
        "g,dtype",
        [(cycle_graph(40), np.int8), (ladder_graph(100), np.int16), (_cycle_with_pendant_trees(), np.int8)],
        ids=["cycle40", "ladder100", "cycle-pendant"],
    )
    def test_narrow_cores_take_bit_bfs(self, g, dtype, monkeypatch):
        seen = self.block_dtypes(monkeypatch, "_bit_bfs_rows", "_dijkstra_rows")
        assert self.check(g) == dtype
        assert seen == {np.dtype(dtype)}

    @pytest.mark.parametrize(
        "g",
        [cycle_graph(600), _long_cycle_with_pendant()],
        ids=["cycle600", "cycle600-pendant"],
    )
    def test_bit_bfs_past_one_byte(self, g, monkeypatch):
        # 300 levels: bit-plane 8 lands in the high byte of each int16
        monkeypatch.setattr(graph, "BIT_BFS_MAX_LEVELS", g.n)
        seen = self.block_dtypes(monkeypatch, "_bit_bfs_rows", "_dijkstra_rows")
        assert self.check(g) == np.int16
        assert seen == {np.dtype(np.int16)}

    @pytest.mark.parametrize("n,dtype", [(64, np.int8), (65, np.int16)])
    def test_path_at_the_int8_edge(self, n, dtype):
        # vertex 0 is an end: bound 2 * (n - 1), 126 fits int8 and 128 does not
        assert self.check(path_graph(n)) == dtype

    @pytest.mark.parametrize(
        "bound,dtype",
        [(0, np.int8), (126, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32), (2**31 - 1, np.int32)],
    )
    def test_bound_to_dtype(self, bound, dtype):
        assert graph.distance_dtype(bound) == dtype

    def test_disconnected_int8(self):
        # a 4-path, a triangle and an isolated vertex: refused; the path alone is int8
        g = Graph.from_edges(8, [(0, 2), (2, 4), (4, 6), (1, 3), (3, 5), (5, 1)])
        assert_refused_unallocated(g)
        lcc, mapping = largest_connected_component(g)
        assert mapping == (0, 2, 4, 6)
        assert self.check(lcc) == np.int8
        assert all_pairs_distances(lcc).diameter == 3
        empty = all_pairs_distances(path_graph(0)).matrix
        assert empty.shape == (0, 0) and empty.dtype == np.int8

    def test_refused_above_physical_memory(self, monkeypatch):
        g = path_graph(65)  # int16: 65 * 65 * 2 bytes
        monkeypatch.setattr(graph, "_physical_memory", lambda: 65 * 65 * 2)
        assert all_pairs_distances(g).matrix.nbytes == 65 * 65 * 2
        monkeypatch.setattr(graph, "_physical_memory", lambda: 65 * 65 * 2 - 1)
        with no_matrix_allocation(), pytest.raises(TooLargeError, match="physical memory"):
            all_pairs_distances(g)

    def test_does_not_call_public_peel(self, monkeypatch):
        # benchmark tracing counts the public peel's rounds
        def refuse(*args, **kwargs):
            raise AssertionError("public peel_degree_le1 called")

        monkeypatch.setattr(graph, "peel_degree_le1", refuse)
        self.check(_cycle_with_pendant_trees())
        self.check(path_graph(7))


class TestIdentificationVectors:
    def test_path_single_sensor(self):
        dm = all_pairs_distances(path_graph(4))
        assert identification_vector(dm, 2, (0,)) == (2,)

    def test_sensor_has_zero_own_coordinate(self):
        dm = all_pairs_distances(cycle_graph(5))
        for s in range(5):
            sensors = tuple(dict.fromkeys((1, s, 3)))
            vec = identification_vector(dm, s, sensors)
            assert vec[sensors.index(s)] == 0

    def test_cycle_hand_bfs(self):
        # C4 with sensors (0, 1): vertex 3 sits at distances (1, 2)
        dm = all_pairs_distances(cycle_graph(4))
        assert identification_vector(dm, 3, (0, 1)) == (1, 2)

    def test_empty_sensor_set(self):
        dm = all_pairs_distances(path_graph(3))
        assert identification_vector(dm, 1, ()) == ()


class TestEquivalencePartition:
    def test_all_vertices_are_singletons(self):
        g = random_connected_graph(12, 4, seed=1)
        dm = all_pairs_distances(g)
        part = equivalence_partition(dm, tuple(range(g.n)))
        assert part.alpha == 1
        assert all(len(b) == 1 for b in part.blocks)

    def test_empty_sensor_set_single_block(self):
        dm = all_pairs_distances(path_graph(6))
        part = equivalence_partition(dm, ())
        assert part.blocks == (tuple(range(6)),)
        assert part.alpha == 6

    def test_cycle_hand_partition(self):
        dm = all_pairs_distances(cycle_graph(4))
        part = equivalence_partition(dm, (0,))
        assert part.blocks == ((0,), (1, 3), (2,))
        assert part.alpha == 2
        assert part.non_resolved_count == 2

    def test_blocks_partition_vertex_set(self):
        g = random_connected_graph(20, 6, seed=4)
        dm = all_pairs_distances(g)
        part = equivalence_partition(dm, (0, 3))
        seen = [v for b in part.blocks for v in b]
        assert sorted(seen) == list(range(g.n))
        assert len(seen) == len(set(seen))

    def test_sensors_land_in_singletons(self):
        g = random_connected_graph(15, 3, seed=5)
        dm = all_pairs_distances(g)
        part = equivalence_partition(dm, (2, 7, 11))
        for s in (2, 7, 11):
            block = next(b for b in part.blocks if s in b)
            assert block == (s,)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_adding_sensor_refines(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(int(rng.integers(3, 25)), int(rng.integers(0, 8)), seed)
        dm = all_pairs_distances(g)
        base = tuple(sorted(rng.choice(g.n, size=min(3, g.n), replace=False).tolist()))
        extra = int(rng.integers(0, g.n))
        if extra in base:
            return
        coarse = equivalence_partition(dm, base)
        fine = equivalence_partition(dm, base + (extra,))
        coarse_lookup = {}
        for i, b in enumerate(coarse.blocks):
            for v in b:
                coarse_lookup[v] = i
        for block in fine.blocks:
            assert len({coarse_lookup[v] for v in block}) == 1

    def test_histogram_excludes_singletons(self):
        dm = all_pairs_distances(cycle_graph(4))
        part = equivalence_partition(dm, (0,))
        assert part.histogram() == {2: 1}

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(graph_and_sensors(CONNECTED_GRAPH))
    def test_blocks_match_dict_grouping(self, case):
        g, sensors = case
        dm = all_pairs_distances(g)
        part = equivalence_partition(dm, sensors)
        expected = dict_blocks(dm.matrix, sensors)
        assert part.blocks == expected
        assert part.alpha == max(len(b) for b in expected)
        assert part.non_resolved_count == sum(len(b) for b in expected if len(b) > 1)


class TestIsKRelaxedResolving:
    def test_cycle_k2_true(self):
        dm = all_pairs_distances(cycle_graph(4))
        assert is_k_relaxed_resolving(dm, (0,), 2)

    def test_cycle_k1_false(self):
        dm = all_pairs_distances(cycle_graph(4))
        assert not is_k_relaxed_resolving(dm, (0,), 1)

    def test_empty_set_at_diameter(self):
        g = random_connected_graph(14, 4, seed=8)
        dm = all_pairs_distances(g)
        assert is_k_relaxed_resolving(dm, (), dm.diameter)

    def test_k0_iff_all_singletons(self):
        g = random_connected_graph(16, 5, seed=12)
        dm = all_pairs_distances(g)
        for sensors in [(0,), (0, 1), (0, 5, 9), tuple(range(g.n))]:
            part = equivalence_partition(dm, sensors)
            singles = all(len(b) == 1 for b in part.blocks)
            assert is_k_relaxed_resolving(dm, sensors, 0) == singles

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone_in_k(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(int(rng.integers(3, 20)), int(rng.integers(0, 6)), seed)
        dm = all_pairs_distances(g)
        sensors = (0,)
        flags = [is_k_relaxed_resolving(dm, sensors, k) for k in range(dm.diameter + 1)]
        # once true, stays true
        assert all(b or not a for a, b in zip(flags, flags[1:]))

    def test_disconnected_fails_fast(self):
        # no distance matrix of a disconnected graph exists to check against
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match=DISCONNECTED):
            is_k_relaxed_resolving(all_pairs_distances(g), (0,), 1)
        with pytest.raises(ValueError, match="connected"):
            is_k_relaxed_resolving(DistanceMatrix(bfs_distance_matrix(g)), (0,), 1)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(graph_and_sensors(CONNECTED_GRAPH))
    def test_matches_dict_check_at_every_k(self, case):
        g, sensors = case
        dm = all_pairs_distances(g)
        for k in range(dm.diameter + 1):
            assert is_k_relaxed_resolving(dm, sensors, k) == dict_is_k_resolved(dm.matrix, sensors, k)


class TestGraphStats:
    def test_path4(self):
        stats = graph_stats(path_graph(4))
        assert stats.diameter == 3
        assert stats.shell1_size == 4
        assert stats.m == 3
        assert stats.avg_degree == pytest.approx(1.5)

    def test_cycle_has_empty_shell(self):
        assert graph_stats(cycle_graph(4)).shell1_size == 0

    def test_avg_spl_path3(self):
        # pairs: (0,1)=1 (1,2)=1 (0,2)=2 -> mean 4/3
        assert graph_stats(path_graph(3)).avg_spl == pytest.approx(4 / 3)

    def test_disconnected_directs_to_lcc(self):
        with pytest.raises(ValueError, match="largest_connected_component"):
            graph_stats(Graph.from_edges(3, [(0, 1)]))

    @pytest.mark.parametrize(
        "g",
        [path_graph(30), path_graph(100), Graph.from_edges(60, [(0, v) for v in range(1, 60)])],
        ids=["path30-int8", "path100-int16", "star60-int8"],
    )
    def test_distance_sum_past_the_matrix_dtype(self, g):
        oracle = bfs_distance_matrix(g)
        dm = all_pairs_distances(g)
        assert int(oracle.sum()) > np.iinfo(dm.matrix.dtype).max
        stats = graph_stats(g, dm)
        assert stats.avg_spl == float(oracle.sum(dtype=np.int64)) / (g.n * (g.n - 1))
        assert stats.diameter == int(oracle.max())

    def test_as_dict_keys(self):
        d = graph_stats(path_graph(4)).as_dict()
        assert set(d) == {"n", "m", "avg_degree", "diameter", "avg_spl", "shell1_size"}


class TestPeeling:
    def test_star_two_rounds(self):
        rounds = peel_degree_le1(star_graph(3))
        assert rounds == [[1, 2, 3], [0]]

    def test_fixed_rounds_pad_with_empty(self):
        rounds = peel_degree_le1(cycle_graph(4), rounds=2)
        assert rounds == [[], []]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(ANY_GRAPH)
    def test_matches_round_scan(self, g):
        for rounds in (None, 0, 1, 2, 5, 50):
            assert peel_degree_le1(g, rounds) == round_scan_peel(g, rounds)

    def test_long_path_peels_from_both_ends(self):
        # 10001 rounds: a rescan of all 20001 vertices per round took seconds
        rounds = peel_degree_le1(path_graph(20001))
        assert len(rounds) == 10001
        assert rounds[-1] == [10000]
        assert all(batch == [i, 20000 - i] for i, batch in enumerate(rounds[:-1]))


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_validate_roundtrip(self):
        g = random_connected_graph(10, 3, seed=2)
        g.validate()
