"""graph module: loader, distances, partitions, verification, statistics."""

from __future__ import annotations

import io
import random
import sys
import tracemalloc
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from relaxmdim import (
    Graph,
    RootedTree,
    TooLargeError,
    TreeMetric,
    all_pairs_distances,
    equivalence_partition,
    graph_stats,
    identification_vector,
    is_k_relaxed_resolving,
    ba_tree,
    configuration_model,
    exact_tree_md,
    largest_connected_component,
    load_edge_list,
    rgg,
    uniform_tree,
)
from relaxmdim import graph, trees
from relaxmdim.graph import (
    UNREACHABLE,
    DistanceMatrix,
    bfs_distances,
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
    spider_graph,
    star_graph,
)
from graph_oracle import (
    assert_matches_tuples,
    bfs_components,
    bfs_distance_matrix,
    bfs_parents,
    dfs_tree_walk,
    dict_blocks,
    dict_induced_subgraph,
    dict_is_k_resolved,
    matrix_graph_stats,
    pendant_dfs,
    queue_peel,
    round_scan_peel,
    rows,
    set_from_edges,
    set_load_edge_list,
    tuple_edges,
    tuple_graph_from_pairs,
    tuple_partition,
    tuple_widest_block,
    unblocked_bit_bfs_rows,
    unblocked_core_sum_and_diameter,
    walk_profile_keys,
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

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_a_string_and_a_file_parse_alike(self, data):
        # labels, duplicate and loop counts, comments and every separator
        # str.splitlines knows, read in batches of any size; a malformed
        # line, if drawn, is named by the same number from both, the one
        # the whole text's splitlines gives it
        batch = data.draw(st.sampled_from([1, 2, 7, graph._PARSE_BATCH]))
        lines = data.draw(edge_list_texts()).split("\n")
        if data.draw(st.booleans()):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(("x", "1 2 3", "a b c # d"))))
        ends = data.draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
        text = "".join(line + end for line, end in zip(lines, ends))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_PARSE_BATCH", batch)
            got = [parse_or_error(text), parse_or_error(file_of(text))]
        assert got[0] == got[1]
        if isinstance(got[0], str):
            sizes = [len(raw.split("#")[0].split()) for raw in text.splitlines()]
            bad = 1 + next(i for i, size in enumerate(sizes) if size not in (0, 2))
            assert got[0].startswith(f"line {bad}:")
        else:
            adjacency, labels, duplicates, loops = set_load_edge_list(text)
            assert got[0] == (adjacency, labels, duplicates, loops)

    def test_a_file_on_disk_parses_as_its_text(self, tmp_path):
        text = "a b\r\nb c\rc a # back\x0cd d\n\n# done\x85a b\u2028e a"
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            assert parse_or_error(handle) == parse_or_error(text)
        assert parse_or_error(text) == (((1, 2, 4), (0, 2), (0, 1), (), (0,)), ("a", "b", "c", "d", "e"), 1, 1)
        path.write_bytes(b"a b\r\n\x0cb c d\n")
        with open(path, encoding="utf-8") as handle, pytest.raises(ValueError, match="^line 3:"):
            load_edge_list(handle)

    def test_a_file_peak_holds_no_token_list_and_no_text(self, tmp_path):
        # beyond the result (labels and arrays), the parse holds the dict
        # of labels, 16 bytes of ids a line and one batch of lines; a list
        # of both tokens of every line took about 126 bytes a line more,
        # and the whole text 14 more (29.4 MB at 100 000 lines, against an
        # 8.7 MB result)
        lines = 100_000
        path = tmp_path / "path.txt"
        path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(lines)), encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                res = load_edge_list(handle)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        kept = sys.getsizeof(res.labels) + sum(map(sys.getsizeof, res.labels))
        kept += res.graph.indptr.nbytes + res.graph.indices.nbytes
        assert res.graph.m == lines
        assert peak < kept + 80 * lines, (peak, kept)


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

    @staticmethod
    def check(g: Graph) -> None:
        """Components, the largest one and the tree check against the BFS
        oracle: ties go to the component with the smallest min-id."""
        expected = bfs_components(g)
        smallest = [0] * g.n  # each vertex's label: its component's smallest vertex
        for comp in expected:
            for v in comp:
                smallest[v] = comp[0]
        assert graph._component_labels(g).tolist() == smallest
        assert trees.is_tree(g) == (g.m == g.n - 1 and len(expected) == 1)
        if g.n:
            best = max(expected, key=len)  # the first largest
            assert largest_connected_component(g) == dict_induced_subgraph(g, best)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ANY_GRAPH)
    def test_matches_the_bfs_oracle(self, g):
        self.check(g)

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 1000])
    def test_paths_in_any_id_order(self, n, order):
        ids = {"sorted": np.arange(n), "reversed": np.arange(n)[::-1],
               "shuffled": np.random.default_rng(n).permutation(n)}[order]
        g = graph._graph_from_pairs(n, ids[:-1], ids[1:])
        self.check(g)
        # two copies side by side, and isolated vertices between them
        twice = graph._graph_from_pairs(2 * n + 3, np.concatenate((ids[:-1], ids[:-1] + n + 3)),
                                        np.concatenate((ids[1:], ids[1:] + n + 3)))
        self.check(twice)

    @pytest.mark.parametrize("leaves", [0, 1, 2, 40])
    def test_stars_and_isolated_vertices(self, leaves):
        self.check(star_graph(leaves))
        for hub in (0, leaves):  # the hub first or last
            self.check(Graph.from_edges(leaves + 3, [(hub, v) for v in range(leaves + 1) if v != hub]))

    def test_two_vertices(self):
        self.check(Graph.from_edges(2, []))
        self.check(Graph.from_edges(2, [(0, 1)]))

    @staticmethod
    def spider(k: int) -> Graph:
        """Legs hub-x_i-z_i-L_i on ids L_i = i, hub k, z_i = k+1+i and
        x_i = 2k+1+i: the first round leaves the hub and every L_i as
        roots, with the hub paired with every L_i."""
        leg = np.arange(k)
        hub, z, x = np.full(k, k), leg + k + 1, leg + 2 * k + 1
        return graph._graph_from_pairs(3 * k + 1, np.concatenate((hub, x, z)), np.concatenate((x, z, leg)))

    def test_spider_labelled_in_logarithmically_many_rounds(self, monkeypatch):
        # a root hooked onto any one of its partners, rather than the
        # smallest, merges one leg a round here: about k rounds
        rounds = 0
        real = graph._jump

        def counted(label, moving):
            nonlocal rounds
            rounds += 1
            real(label, moving)

        monkeypatch.setattr(graph, "_jump", counted)
        g = self.spider(10_000)
        assert not graph._component_labels(g).any()
        # a first jump, one per round and a last one; the roots left at
        # least shrink like Fibonacci numbers downwards
        assert rounds <= 2 + np.log(g.n) / np.log((1 + 5**0.5) / 2), rounds
        self.check(g)

    def test_connected_graph_is_its_own_component(self):
        g = ba_tree(300, seed=2)
        sub, mapping = largest_connected_component(g)
        assert sub is g and mapping == tuple(range(300))

    def test_100000_vertices_in_little_memory(self):
        # the labels take about one graph's worth of arrays; the induced
        # subgraph's gathers and relabelled copy take about three more
        g = rgg(100_000, 1.0, seed=2)
        graph_bytes = g.indptr.nbytes + g.indices.nbytes
        tracemalloc.start()
        try:
            sub, _ = largest_connected_component(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 99_000 < sub.n < g.n  # the rgg is disconnected
        assert peak < 5 * graph_bytes, (peak, graph_bytes)


class TestJump:
    """graph._jump with step counts against the tree metric's walk, and with
    a round cap on parent arrays that may hold cycles."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(random_trees(), st.data())
    def test_steps_give_the_tree_metric_keys(self, g, data):
        sensors = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
        expected = walk_profile_keys(g, sensors)
        # the sensors' subtree are the roots; every other vertex points one
        # step toward it, along a BFS from a sensor
        on = expected == np.arange(g.n) * g.n
        label = np.array(bfs_parents(g, sensors[0]))
        label[on] = np.flatnonzero(on)
        steps = (~on).astype(np.int64)
        graph._jump(label, np.flatnonzero(~on), steps)
        assert np.array_equal(label * g.n + steps, expected)

    @staticmethod
    def capped(parent: np.ndarray, root: int) -> np.ndarray:
        """Every vertex's ancestor after the tree check's capped jumps."""
        label = parent.copy()
        label[root] = root
        graph._jump(label, np.flatnonzero(np.arange(label.size) != root), rounds=label.size.bit_length())
        return label

    @pytest.mark.parametrize(
        "parent, lost",
        [
            ([-1, 2, 1, 1], 3),  # a 2-cycle, and a vertex hanging from it
            ([-1, 0, 2, 2], 2),  # a self-parent, and a vertex hanging from it
            ([-1, *range(2, 100), 1], 99),  # a 99-cycle: odd, so it never becomes a star
            ([-1, *range(2, 65), 1, 0], 64),  # a 64-cycle: it collapses to self-parents
        ],
        ids=["two-cycle", "self-parent", "long-odd-cycle", "power-of-two-cycle"],
    )
    def test_cycles_never_reach_the_root(self, parent, lost):
        parent = np.array(parent)
        assert np.count_nonzero(self.capped(parent, 0) != 0) == lost
        with pytest.raises(ValueError, match=f"{lost} of {parent.size} vertices lie on cycles"):
            trees._array_tree(parent, 0)

    @pytest.mark.parametrize("root", [0, 99_999])
    def test_100000_vertex_path_reaches_either_end(self, root):
        # depth 99 999 needs all 17 = n.bit_length() rounds
        v = np.arange(100_000)
        parent = v - 1 if root == 0 else v + 1
        parent[root] = -1
        assert (self.capped(parent, root) == root).all()
        assert trees._array_tree(parent, root).m == 99_999


class TestGraphFromPairs:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(ANY_GRAPH, st.integers(0, 2**32 - 1))
    def test_matches_from_edges(self, g, seed):
        # the edges in a shuffled order, each in a random orientation
        rng = random.Random(seed)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
        rng.shuffle(edges)
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        got = graph._graph_from_pairs(g.n, pairs[:, 0], pairs[:, 1])
        assert got == Graph.from_edges(g.n, edges)
        assert all(type(w) is int for edge in got.edges() for w in edge)

    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            (3, [(0, 1), (1, 3)], "edge (1, 3) out of range for n=3"),
            (3, [(0, 1), (-1, 2)], "edge (-1, 2) out of range for n=3"),
            (0, [(0, 0)], "edge (0, 0) out of range for n=0"),
            (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
            (3, [(0, 1), (1, 2), (1, 0)], "duplicate edge (1, 0)"),
            # the first bad edge in input order is the one named
            (4, [(0, 1), (2, 3), (3, 2), (1, 1), (0, 9)], "duplicate edge (3, 2)"),
            (4, [(0, 1), (1, 1), (1, 0), (0, 9)], "self-loop at vertex 1"),
        ],
    )
    def test_refuses_with_the_from_edges_message(self, n, pairs, message):
        with pytest.raises(ValueError) as expected:
            Graph.from_edges(n, pairs)
        assert str(expected.value) == message
        u, v = np.array(pairs, dtype=np.int64).T
        with pytest.raises(ValueError) as got:
            graph._graph_from_pairs(n, u, v)
        assert str(got.value) == message

    def test_no_pairs(self):
        none = np.empty(0, dtype=np.int64)
        assert graph._graph_from_pairs(0, none, none) == Graph.from_adjacency(())
        assert graph._graph_from_pairs(3, none, none) == Graph.from_adjacency(((), (), ()))

    def test_refuses_keys_past_int64(self):
        none = np.empty(0, dtype=np.int64)
        with pytest.raises(TooLargeError, match="overflow int64"):
            graph._graph_from_pairs(2**32, none, none)


@st.composite
def graph_and_vertex_list(draw):
    """A tree, sparse connected or disconnected graph and an unsorted vertex
    list with duplicates (maybe empty)."""
    g = draw(ANY_GRAPH)
    return g, draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))


LABELS = st.one_of(st.integers(-3, 99).map(str), st.text("abxyz_.-", min_size=1, max_size=3))

# every line boundary of str.splitlines, and the two-character "\r\n"
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def file_of(text: str) -> io.TextIOWrapper:
    """``text`` as ``open(path, encoding="utf-8")`` would read it from a
    file: a text stream over its bytes, newlines translated."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def parse_or_error(source) -> tuple | str:
    """(rows, labels, duplicates, loops) of a parse, or its error message."""
    try:
        res = load_edge_list(source)
    except ValueError as exc:
        return str(exc)
    return rows(res.graph), res.labels, res.duplicate_edges, res.self_loops


@st.composite
def edge_list_texts(draw):
    """An edge list with integer and string labels, comment and blank lines,
    inline comments, repeated and reversed edges and self-loops; a label that
    appears only in loops is an isolated vertex."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=20, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=50))
    pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=10))] if pairs else []
    lines = []
    for u, v in pairs:
        lines.append(draw(st.sampled_from((f"{u} {v}", f"  {u}\t{v}  # note", f"{u} {v}#"))))
        lines += draw(st.lists(st.sampled_from(("", "# a comment", "   ", "#")), max_size=1))
    return "\n".join(lines)


class TestCSRStorage:
    """Every builder of the CSR arrays against the tuple builder it replaced."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(edge_list_texts())
    def test_parser_matches_the_set_parser(self, text):
        res = load_edge_list(text)
        adjacency, labels, duplicates, loops = set_load_edge_list(text)
        assert_matches_tuples(res.graph, adjacency)
        assert (res.labels, res.duplicate_edges, res.self_loops) == (labels, duplicates, loops)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(ANY_GRAPH, st.integers(0, 2**32 - 1))
    def test_pair_builders_match_the_tuple_builders(self, g, seed):
        rng = random.Random(seed)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
        rng.shuffle(edges)
        assert_matches_tuples(Graph.from_edges(g.n, edges), set_from_edges(g.n, edges))
        u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        assert_matches_tuples(graph._graph_from_pairs(g.n, u, v), tuple_graph_from_pairs(g.n, u, v))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(graph_and_vertex_list())
    def test_induced_subgraph_matches_the_dict_relabel(self, case):
        g, vertices = case
        assert_matches_tuples(induced_subgraph(g, vertices)[0], rows(dict_induced_subgraph(g, vertices)[0]))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(ANY_GRAPH)
    def test_peel_matches_both_oracles_at_every_round_count(self, g):
        for rounds in [*range(g.n + 1), None]:
            assert peel_degree_le1(g, rounds) == round_scan_peel(g, rounds) == queue_peel(g, rounds)

    @pytest.mark.parametrize("batch", [1, 8, 10**9], ids=["all-vectorized", "default", "all-scalar"])
    def test_peel_is_the_same_at_any_scalar_cut(self, batch, monkeypatch):
        monkeypatch.setattr(graph, "_SCALAR_BATCH", batch)
        for seed in range(20):
            g = random_connected_graph(80, seed % 7, seed)
            for rounds in (None, 1, 3, 80):
                assert peel_degree_le1(g, rounds) == round_scan_peel(g, rounds)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(edge_list_texts(), st.sampled_from([1, 2, 3, 7]))
    def test_parser_erases_alike_in_blocks_of_any_size(self, text, block):
        # a run of equal keys may cross from one block into the next
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_KEY_BLOCK", block)
            res = load_edge_list(text)
        adjacency, labels, duplicates, loops = set_load_edge_list(text)
        assert_matches_tuples(res.graph, adjacency)
        assert (res.labels, res.duplicate_edges, res.self_loops) == (labels, duplicates, loops)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(ANY_GRAPH, st.sampled_from([1, 2, 3, 7, 1 << 14]))
    def test_edges_come_alike_in_blocks_of_any_size(self, g, block):
        # a row with more entries than a block is a block of its own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_EDGE_BLOCK", block)
            edges = list(g.edges())
        assert edges == list(tuple_edges(rows(g)))
        assert all(type(w) is int for edge in edges for w in edge)

    @pytest.mark.parametrize("m", [10_000, 200_000])
    def test_edges_peak_at_one_block(self, m):
        # all the pairs as two lists of Python ints took 10.6 MB at 100 000
        # edges; a block of _EDGE_BLOCK entries takes about 80 bytes each
        g = graph._graph_from_pairs(m + 1, np.arange(m), np.arange(1, m + 1))
        tracemalloc.start()
        try:
            count = sum(1 for _ in g.edges())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == m
        assert peak < 100 * graph._EDGE_BLOCK, peak

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(ANY_GRAPH)
    def test_row_sums_match_the_rows(self, g):
        # empty rows at the start, inside and at the end read 0
        ids, flags = graph._row_sums(g.indptr, g.indices), graph._row_sums(g.indptr, g.indices % 2 == 1)
        assert ids.dtype == flags.dtype == np.intp
        assert ids.tolist() == [sum(row) for row in rows(g)]
        assert flags.tolist() == [sum(w % 2 for w in row) for row in rows(g)]

    def test_rows_are_read_off_the_arrays(self):
        g = Graph.from_edges(4, [(2, 0), (0, 1), (3, 0)])
        assert g.indptr.tolist() == [0, 3, 4, 5, 6]
        assert g.indices.tolist() == [1, 2, 3, 0, 0, 0]
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3)]

    def test_graphs_keep_only_their_arrays(self):
        # every reader walks the CSR arrays and caches no second form; a
        # tree keeps its tree check beside them
        only = {"indptr", "indices", trees._IS_TREE}
        for g in (rgg(400, 1.5, seed=2), configuration_model(300, seed=1), uniform_tree(300, seed=3)):
            sub = largest_connected_component(g)[0]
            all_pairs_distances(sub)
            graph_stats(sub)
            assert set(g.__dict__) <= only and set(sub.__dict__) <= only
        tree = ba_tree(300, seed=5)
        TreeMetric(tree)
        RootedTree.from_graph(tree, 7)
        all_pairs_distances(tree)
        graph_stats(tree)
        assert set(tree.__dict__) == only

    @pytest.mark.parametrize(
        "indptr, indices, message",
        [
            ([0, 1, 1], [2], "neighbor 2 of 0 out of range"),
            ([0, 1, 2], [0, 0], "self-loop at vertex 0"),
            ([0, 2, 3, 4], [2, 1, 0, 0], "adjacency of 0 not sorted/deduplicated"),
            ([0, 1, 1], [1], "asymmetric edge (0, 1)"),
            ([0, 2, 1], [1, 0], "row offsets"),
        ],
    )
    def test_validate_names_the_fault(self, indptr, indices, message):
        bad = Graph(np.array(indptr, dtype=np.intp), np.array(indices, dtype=np.intp))
        with pytest.raises(ValueError) as raised:
            bad.validate()
        assert str(raised.value).startswith(message)


class TestInducedSubgraph:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(graph_and_vertex_list())
    def test_matches_dict_relabel(self, case):
        g, vertices = case
        sub, mapping = induced_subgraph(g, vertices)
        ref_sub, ref_mapping = dict_induced_subgraph(g, vertices)
        assert sub == ref_sub
        assert mapping == ref_mapping
        assert all(type(v) is int for v in mapping)
        assert all(type(w) is int for edge in sub.edges() for w in edge)

    def test_whole_graph_and_empty_list(self):
        g = random_connected_graph(30, 10, seed=4)
        assert induced_subgraph(g, range(g.n)) == (g, tuple(range(g.n)))
        assert induced_subgraph(g, []) == (Graph.from_adjacency(()), ())


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

    def test_hand_built_entries_are_integer_hop_counts(self):
        # no path in an n-vertex graph has n edges or more
        path = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int8)
        assert DistanceMatrix(path).diameter == 2
        with pytest.raises(ValueError, match="hop counts 0..2 "):
            DistanceMatrix(np.array([[0, 3, 2], [3, 0, 1], [2, 1, 0]], dtype=np.int8))
        with pytest.raises(ValueError, match="integer"):
            DistanceMatrix(path.astype(np.float64))

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


@st.composite
def cores_with_pendant_trees(draw) -> Graph:
    """A cycle of 3 to 260 vertices (up to five words of sources) with
    random chords as the 2-core, and trees of different sizes and depths
    hanging off some of its vertices: paths, or trees whose vertices join
    any earlier one. The ids are shuffled, so the core's weights and
    heights are neither uniform nor ordered by id."""
    c = draw(st.integers(3, 260))
    edges = {(min(i, (i + 1) % c), max(i, (i + 1) % c)) for i in range(c)}
    for _ in range(draw(st.integers(0, c // 8))):
        u, v = draw(st.lists(st.integers(0, c - 1), min_size=2, max_size=2, unique=True))
        edges.add((min(u, v), max(u, v)))
    n = c
    for _ in range(draw(st.integers(1, 6))):
        members = [draw(st.integers(0, c - 1))]
        deep = draw(st.booleans())
        for _ in range(draw(st.integers(1, 40))):
            parent = members[-1] if deep else members[draw(st.integers(0, len(members) - 1))]
            edges.add((parent, n))
            members.append(n)
            n += 1
    ids = draw(st.permutations(range(n)))
    return Graph.from_edges(n, sorted((ids[u], ids[v]) for u, v in edges))


# one word per block, an odd count that splits five words 3 + 2, and one
# block of every word
BLOCK_WORDS = (1, 3, 10**6)


class TestBlockedBitBFS:
    """The bit-parallel BFS over blocks of sources against the unblocked
    engine, and the memory it takes."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(cores_with_pendant_trees())
    def test_statistics_match_the_unblocked_engine(self, g):
        engine = graph._core_sum_and_diameter
        cores = []

        def compare(core, w, far):
            expected = unblocked_core_sum_and_diameter(core, w, far)
            for words in BLOCK_WORDS:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(graph, "_BLOCK_WORDS", words)
                    assert engine(core, w, far) == expected, words
            cores.append(core.n)
            return expected

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_core_sum_and_diameter", compare)
            graph_stats(g)
        assert len(cores) == 1

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(cores_with_pendant_trees())
    def test_distances_match_the_unblocked_engine(self, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_bit_bfs_rows", unblocked_bit_bfs_rows)
            expected = all_pairs_distances(g).matrix
        for words in BLOCK_WORDS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph, "_BLOCK_WORDS", words)
                assert np.array_equal(all_pairs_distances(g).matrix, expected), words

    @staticmethod
    def rgg_component() -> Graph:
        g, _ = largest_connected_component(rgg(4000, 1.5, seed=1))
        assert g.n - graph_stats(g).shell1_size >= 2000  # the core searched
        return g

    @staticmethod
    def traced_peak(fn, *args) -> tuple[object, int]:
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_statistics_peak_grows_with_the_block_not_the_core(self):
        # at most 12 words per vertex and block word, plus 1 MB; the
        # unblocked bitsets alone took n * n / 2 bytes, 8 MB here
        g = self.rgg_component()
        _, peak = self.traced_peak(graph_stats, g)
        assert peak <= 12 * 8 * g.n * graph._BLOCK_WORDS + (1 << 20), peak

    def test_distances_peak_at_the_result_plus_10_mb(self):
        # each 64 sources' rows go straight into the matrix; every bit-plane
        # of every source took about as much as the int8 result
        g = self.rgg_component()
        dm, peak = self.traced_peak(all_pairs_distances, g)
        assert peak <= dm.matrix.nbytes + 10 * 2**20, peak - dm.matrix.nbytes


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
        label = graph._component_labels(g)
        for root in np.unique(label):
            self.check(induced_subgraph(g, np.flatnonzero(label == root))[0])

    @staticmethod
    def block_dtypes(monkeypatch, engine: str, refused: str) -> set:
        """Record the dtype of every block the ``engine`` yields, and make the
        ``refused`` engine raise."""
        seen = set()
        inner = getattr(graph, engine)

        def spy(core, dtype, columns):
            for rows, block in inner(core, dtype, columns):
                seen.add(block.dtype)
                yield rows, block

        def refuse(core, dtype, columns):
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


def assert_runs_match_tuples(metric, matrix: np.ndarray, sensors) -> None:
    """A partition of ``metric`` and its widest block against the tuple
    partition; ``matrix`` is the distance matrix of the same graph."""
    part = equivalence_partition(metric, sensors)
    expected = tuple_partition(metric, sensors)
    assert part.blocks == expected.blocks
    assert part.order.tolist() == [v for block in expected.blocks for v in block]
    assert part.sizes.tolist() == [len(block) for block in expected.blocks]
    assert part.alpha == expected.alpha
    assert part.non_resolved_count == expected.non_resolved_count
    assert part.histogram() == expected.histogram
    assert list(part.histogram()) == sorted(expected.histogram)
    assert metric.widest_block(sensors) == tuple_widest_block(matrix, expected.blocks)


@st.composite
def sensor_sets(draw, n: int):
    """Distinct sensors in arbitrary order, as a list or an intp array."""
    sensors = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return np.array(sensors, dtype=np.intp) if draw(st.booleans()) else sensors


class TestPartitionRuns:
    """Partitions kept as sorted runs, against the tuple-building oracle."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(connected_graphs(), st.data())
    def test_matrix_runs_match_the_tuples(self, g, data):
        dm = all_pairs_distances(g)
        assert_runs_match_tuples(dm, dm.matrix, data.draw(sensor_sets(g.n)))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(random_trees(), st.data())
    def test_tree_runs_match_the_tuples(self, g, data):
        sensors = data.draw(sensor_sets(g.n))
        assert_runs_match_tuples(TreeMetric(g), all_pairs_distances(g).matrix, sensors)

    @pytest.mark.parametrize("metric_of", [TreeMetric, all_pairs_distances], ids=["tree", "matrix"])
    @pytest.mark.parametrize(
        "g, sensors",
        [
            (path_graph(1), []),
            (path_graph(1), [0]),
            (path_graph(2), []),
            (path_graph(2), [1]),
            (path_graph(2), [1, 0]),
            (path_graph(9), []),
            (path_graph(9), [0]),
            (path_graph(9), [4]),
            (star_graph(6), [1, 2, 3, 4, 5]),
            (spider_graph([1, 1, 2, 2]), [0]),
            (uniform_tree(40, seed=3), list(range(39, -1, -1))),
            (uniform_tree(40, seed=3), np.arange(40)),
        ],
        ids=["n1-none", "n1-all", "n2-none", "n2-one", "n2-all", "path-none", "path-end", "path-middle",
             "star-resolved", "spider", "all-singletons", "array"],
    )
    def test_edge_cases_match_the_tuples(self, metric_of, g, sensors):
        assert_runs_match_tuples(metric_of(g), all_pairs_distances(g).matrix, sensors)

    def test_shapes_of_the_runs(self):
        # the empty sensor set leaves one run; a resolving set leaves n runs
        # of one, so no block is shared; the spider's histogram ascends,
        # though its larger class comes first
        g = spider_graph([1, 1, 2, 2])
        dm = all_pairs_distances(g)
        none, resolved = equivalence_partition(dm, []), equivalence_partition(dm, [1, 2, 3])
        assert none.sizes.tolist() == [g.n] and none.order.tolist() == list(range(g.n))
        assert resolved.sizes.tolist() == [1] * g.n and resolved.histogram() == {}
        assert (resolved.alpha, resolved.non_resolved_count, dm.widest_block([1, 2, 3])) == (1, 0, 0)
        part = equivalence_partition(dm, [0])
        assert part.blocks == ((0,), (1, 2, 3, 5), (4, 6))
        assert list(part.histogram().items()) == [(2, 1), (4, 1)]
        assert part == equivalence_partition(TreeMetric(g), np.array([0])) and part != none

    @pytest.mark.parametrize("metric_of", [TreeMetric, all_pairs_distances], ids=["tree", "matrix"])
    def test_reads_leave_the_blocks_unbuilt(self, metric_of):
        g = uniform_tree(300, seed=4)
        metric = metric_of(g)
        sensors = list(exact_tree_md(g, 2).witness)
        part = equivalence_partition(metric, sensors)
        assert part.alpha > 1 and part.non_resolved_count > 0 and part.histogram()
        assert is_k_relaxed_resolving(metric, sensors, 2)
        assert "blocks" not in part.__dict__
        assert part.blocks == tuple_partition(metric, sensors).blocks
        assert "blocks" in part.__dict__

    def test_sweep_step_at_100000_vertices_in_little_memory(self):
        # a partition of the exact-tree witness and its three reads, as one
        # sweep step takes them: 132-159 bytes a vertex when every block was
        # a tuple, about 50 as runs; measured after one warm-up call, so
        # that no first-call allocation counts
        g = uniform_tree(10**5, 1)
        metric = TreeMetric(g)

        def step(sensors):
            part = equivalence_partition(metric, sensors)
            return part.alpha, part.non_resolved_count, part.histogram()

        step([0])
        for k in (0, 2, 4):
            sensors = list(exact_tree_md(g, k).witness)
            tracemalloc.start()
            try:
                step(sensors)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * g.n, (k, peak / g.n)


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
        assert not is_k_relaxed_resolving(dm, (), dm.diameter - 1)

    def test_empty_set_copies_no_matrix(self):
        # the one block of every vertex took a copy of the whole matrix,
        # 18.2 MB for this tree's 18 MB matrix
        dm = all_pairs_distances(uniform_tree(3000, seed=1))
        tracemalloc.start()
        try:
            assert dm.widest_block([]) == int(dm.matrix.max())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dm.matrix.nbytes // 100, peak

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
        with pytest.raises(ValueError, match=DISCONNECTED):
            graph_stats(Graph.from_edges(3, [(0, 1)]))

    # no explain phase, as in TestAllPairsDistances.test_matches_bfs_oracle
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=150,
        phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
    )
    @given(st.one_of(random_trees(150), connected_graphs(150)))
    def test_matches_matrix_oracle(self, g):
        # trees, unicyclic and sparse graphs with pendant trees; every 2-core
        # to the bit-parallel BFS, then every one to Dijkstra
        expected = matrix_graph_stats(g)
        for max_levels in (g.n, -1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph, "BIT_BFS_MAX_LEVELS", max_levels)
                assert graph_stats(g) == expected

    @pytest.mark.parametrize(
        "g",
        [
            _cycle_with_pendant_trees(),
            # 70-vertex cycle (two words, a partial last one) with a 300-leaf
            # star (weights of 9 bits) and a 40-path, on opposite sides
            _with_edges(
                cycle_graph(70),
                411,
                [(0, v) for v in range(70, 370)] + [(35, 370)] + [(v, v + 1) for v in range(370, 410)],
            ),
            # a 3-path on every vertex of a 7-cycle: every level finds a
            # longer pair than the one before
            _with_edges(
                cycle_graph(7),
                28,
                [e for c in range(7) for e in ((c, 7 + 3 * c), (7 + 3 * c, 8 + 3 * c), (8 + 3 * c, 9 + 3 * c))],
            ),
            _long_cycle_with_pendant(),  # Dijkstra without any patch
            ladder_graph(40),
            random_connected_graph(300, 30, seed=5),
        ],
        ids=["pendant-trees", "heavy-and-deep", "equal-depths", "long-cycle", "ladder", "sparse300"],
    )
    def test_pendant_weights_and_depths(self, g):
        assert graph_stats(g) == matrix_graph_stats(g)

    @pytest.mark.parametrize(
        "g",
        [path_graph(30), path_graph(100), Graph.from_edges(60, [(0, v) for v in range(1, 60)])],
        ids=["path30-int8", "path100-int16", "star60-int8"],
    )
    def test_distance_sum_past_the_matrix_dtype(self, g):
        oracle = bfs_distance_matrix(g)
        assert int(oracle.sum()) > np.iinfo(all_pairs_distances(g).matrix.dtype).max
        stats = graph_stats(g)
        assert stats.avg_spl == float(oracle.sum(dtype=np.int64)) / (g.n * (g.n - 1))
        assert stats.diameter == int(oracle.max())

    def test_no_public_peel_and_no_matrix(self, monkeypatch):
        # the benchmark's traced peel rounds count only explicit peels, and
        # the statistics peel through the private graph._peel
        def refuse(*args, **kwargs):
            raise AssertionError("public peel or distance matrix")

        monkeypatch.setattr(graph, "peel_degree_le1", refuse)
        monkeypatch.setattr(graph, "_component_distances", refuse)
        monkeypatch.setattr(graph, "_bit_bfs_rows", refuse)
        g = _cycle_with_pendant_trees()
        assert graph_stats(g) == matrix_graph_stats(g)

    def test_core_bitsets_above_physical_memory(self, monkeypatch):
        # the 6-cycle core's four bitset arrays take 4 * 6 * 8 bytes
        g = _cycle_with_pendant_trees()
        monkeypatch.setattr(graph, "_physical_memory", lambda: 4 * 6 * 8)
        assert graph_stats(g) == matrix_graph_stats(g)
        monkeypatch.setattr(graph, "_physical_memory", lambda: 4 * 6 * 8 - 1)
        with pytest.raises(TooLargeError, match="physical memory"):
            graph_stats(g)
        assert graph_stats(path_graph(9)).diameter == 8  # a tree has no core

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

    def test_no_rounds_build_no_arrays(self):
        # the degree and neighbour-sum arrays of a 100 000-vertex tree took
        # 3.2 MB
        g = uniform_tree(100_000, seed=1)
        tracemalloc.start()
        try:
            assert peel_degree_le1(g, 0) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(ANY_GRAPH, st.sampled_from([None, 0, 1, 2, 3, 5]), st.sampled_from([1, 8, 10**9]))
    def test_peel_hands_over_the_degrees_and_sums_of_what_is_left(self, g, rounds, cut):
        # at every vertex left, the degree and neighbour id sum in the
        # graph the survivors induce, at any scalar cut
        expected = round_scan_peel(g, rounds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_SCALAR_BATCH", cut)
            removed_in, degree, nbr_sum = graph._peel(g, rounds)
        assert removed_in.dtype == np.int32
        for r, batch in enumerate(expected, start=1):
            assert np.flatnonzero(removed_in == r).tolist() == batch
        left = set(graph._unpeeled(g.n, expected))
        assert np.flatnonzero(removed_in == 0).tolist() == sorted(left)
        for v in left:
            nbrs = [w for w in rows(g)[v] if w in left]
            assert (degree[v], nbr_sum[v]) == (len(nbrs), sum(nbrs))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(random_trees(), st.data(), st.sampled_from([1, 8, 10**9]))
    def test_pinned_peel_leaves_the_sensors_subtree(self, g, data, cut):
        # on a tree, a peel that never removes a sensor leaves the smallest
        # subtree holding them; every other vertex keeps the neighbour it was
        # removed from as its sum (its parent toward that subtree), and its
        # round is one more than its children's latest
        sensors = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=5, unique=True))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_SCALAR_BATCH", cut)
            removed_in, degree, nbr_sum = graph._peel(g, None, sensors)
        dist = bfs_distance_matrix(g)
        spanned = [v for v in range(g.n) if any(dist[s, v] + dist[v, t] == dist[s, t] for s in sensors for t in sensors)]
        assert np.flatnonzero(removed_in == 0).tolist() == spanned
        for v in spanned:
            nbrs = [w for w in rows(g)[v] if w in spanned]
            assert (degree[v], nbr_sum[v]) == (len(nbrs), sum(nbrs))
        toward = np.min(dist[:, spanned], axis=1)
        for v in np.flatnonzero(removed_in).tolist():
            parent = int(nbr_sum[v])
            assert parent in rows(g)[v] and toward[parent] == toward[v] - 1
            children = [w for w in rows(g)[v] if w != parent]
            assert removed_in[v] == 1 + max((int(removed_in[w]) for w in children), default=0)

    @pytest.mark.parametrize("g", [path_graph(100_000), uniform_tree(100_000, seed=1)], ids=["path", "uniform"])
    def test_full_peel_holds_its_arrays_and_no_lists(self, g):
        # the removal rounds, degrees and neighbour sums, 20 bytes a vertex,
        # and one round's arrays; the Python tail's three lists of per-vertex
        # ints took 9.6 MB on the path and 11.3 MB on the uniform tree
        tracemalloc.start()
        try:
            removed_in = graph._peel(g, None)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert removed_in.all()
        assert peak < 36 * g.n, peak

    def test_long_path_peels_from_both_ends(self):
        # 10001 rounds: a rescan of all 20001 vertices per round took seconds
        rounds = peel_degree_le1(path_graph(20001))
        assert len(rounds) == 10001
        assert rounds[-1] == [10000]
        assert all(batch == [i, 20000 - i] for i, batch in enumerate(rounds[:-1]))


class TestRootedWalk:
    """graph._pendant_forest, the rooted walk of all-pairs distances and the
    statistics, against a DFS, a BFS and the pendant DFS. A tree is walked
    from vertex 0; a walk from another root is checked on the tree with
    that root's id swapped with 0."""

    @staticmethod
    def check(g: Graph) -> None:
        rounds = round_scan_peel(g)
        core = graph._unpeeled(g.n, rounds)
        walk = graph._pendant_forest(g, core)
        core_, parent, depth, anchor, preorder, size = pendant_dfs(g, rounds)
        assert (walk.core, walk.parent, walk.depth, walk.anchor) == (core_, parent, depth, anchor)
        # the walk lists each core vertex before the trees hanging from it
        in_core = set(core)
        assert [v for v in walk.preorder if v not in in_core] == preorder
        assert sorted(walk.preorder) == list(range(g.n))
        assert [walk.size[v] for v in preorder] == [size[v] for v in preorder]
        assert all(walk.size[a] == anchor.count(a) for a in core)
        if not core:
            assert (walk.preorder, walk.parent, walk.depth) == dfs_tree_walk(g)
            assert walk.parent == bfs_parents(g, 0)

    @staticmethod
    def rooted_at(g: Graph, root: int) -> Graph:
        """``g`` with the ids 0 and ``root`` swapped."""
        ids = list(range(g.n))
        ids[0], ids[root] = root, 0
        return Graph.from_edges(g.n, [(ids[u], ids[v]) for u, v in g.edges()])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(random_trees(), st.data())
    def test_trees_from_any_root(self, g, data):
        self.check(self.rooted_at(g, data.draw(st.integers(0, g.n - 1))))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(cores_with_pendant_trees())
    def test_cores_with_pendant_trees(self, g):
        self.check(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_ba_trees_with_chords(self, seed):
        rng = random.Random(seed)
        edges = set(ba_tree(300, seed).edges())
        for _ in range(seed):  # seed 0 keeps the tree
            u, v = sorted(rng.sample(range(300), 2))
            edges.add((u, v))
        self.check(Graph.from_edges(300, sorted(edges)))

    @pytest.mark.parametrize("n", [60, 800])
    def test_configuration_model_components(self, n):
        for seed in range(4):
            self.check(largest_connected_component(configuration_model(n, seed))[0])

    @pytest.mark.parametrize(
        "g",
        [path_graph(1), path_graph(2), path_graph(9), star_graph(6)],
        ids=["n1", "n2", "path", "star"],
    )
    def test_small_trees_from_every_root(self, g):
        for root in range(g.n):
            self.check(self.rooted_at(g, root))


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_edges_that_are_not_pairs(self):
        # read edge by edge: a 3-tuple is never cut into other pairs
        with pytest.raises(ValueError, match="unpack"):
            Graph.from_edges(4, [(0, 1, 2), (3, 0, 2)])
        with pytest.raises(ValueError, match="unpack"):
            Graph.from_edges(4, [(0, 1), (1, 2, 3)])
        with pytest.raises(TypeError):
            Graph.from_edges(2, [("0", "1")])

    def test_validate_roundtrip(self):
        g = random_connected_graph(10, 3, seed=2)
        g.validate()
