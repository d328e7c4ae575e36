"""trees module: stemming, exact dimension, subtree counters, brute force."""

from __future__ import annotations

import tracemalloc
from itertools import chain, combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxmdim import (
    IncompatibleMethodError,
    Graph,
    RootedTree,
    TooLargeError,
    all_pairs_distances,
    brute_force_md,
    count_sigma_ex,
    down_stem_vertices,
    equivalence_partition,
    exact_tree_md,
    is_k_relaxed_resolving,
    is_path_graph,
    is_tree,
    stem,
    stem_r,
    subtree_property_counts,
    tree_diameter,
    uniform_tree,
)
from relaxmdim import graph, trees
from relaxmdim.graph import _component_labels, _row_sums, induced_subgraph, peel_degree_le1

from conftest import (
    connected_graphs,
    cycle_graph,
    full_m_ary_tree,
    path_graph,
    random_trees,
    sparse_graphs,
    spider_graph,
    star_graph,
    unicyclic_graph,
)
from graph_oracle import (
    assert_matches_tuples,
    bfs_parents,
    cut_sum_leaf_groups,
    degree_call_leaf_groups,
    dict_brute_force_md,
    edge_list_rooted_tree,
    list_walk_leaf_groups,
    round_scan_down_stem,
    subgraph_exact_tree_md,
    tuple_tree,
    walk_count_sigma_ex,
    walk_exact_tree_md,
    walk_profile_keys,
)

# n = 1, n = 2, stars, paths and spiders: the edge cases of the stem rules
SMALL_TREES = [
    path_graph(1),
    path_graph(2),
    *(star_graph(leaves) for leaves in range(2, 7)),
    *(path_graph(n) for n in range(3, 10)),
    spider_graph([1, 1, 2]),
    spider_graph([2, 2, 2]),
    spider_graph([3, 1, 2]),
    spider_graph([4, 4, 1, 1]),
    spider_graph([5, 3, 3]),
]


# spiders whose equal legs walk in step, more of them than the scalar cut
EQUAL_LEG_SPIDERS = [spider_graph([legs] * count) for legs, count in ((1, 9), (2, 8), (3, 12), (6, 10))]


def relabelled(g: Graph, rng) -> Graph:
    """``g`` with its vertex ids shuffled."""
    ids = list(range(g.n))
    rng.shuffle(ids)
    return Graph.from_edges(g.n, [(ids[u], ids[v]) for u, v in g.edges()])


def leaf_groups(g: Graph, removed=None) -> tuple[list[int], dict[int, list[int]]]:
    """``trees._leaf_owners`` on ``g`` less ``removed`` (nothing removed
    when None), as the oracles give it: the leaves, and each owner's leaves
    in ascending order. The degrees and neighbour sums there come from two
    passes over the CSR entries, so ``removed`` may be any vertex set."""
    removed_in = np.zeros(g.n, dtype=np.int32)  # as the peel marks them
    if removed is not None:
        removed_in[np.array(removed, dtype=np.intp)] = 1
    alive = removed_in == 0
    kept = alive[g.indices]
    degree = np.where(alive, _row_sums(g, kept), 0)
    leaves, owner = trees._leaf_owners(removed_in, degree, _row_sums(g, np.where(kept, g.indices, 0)))
    groups: dict[int, list[int]] = {}
    for leaf, major in zip(leaves.tolist(), owner.tolist()):
        if major >= 0:
            groups.setdefault(major, []).append(leaf)
    return leaves.tolist(), groups


@st.composite
def parent_arrays(draw, max_n: int = 60):
    """A random tree as (parent array, root). Half the time the ids are
    shuffled, so a parent's id need not be below its child's."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.permutations(range(n))) if draw(st.booleans()) else list(range(n))
    parent = [-1] * n
    for v in range(1, n):
        parent[ids[v]] = ids[draw(st.integers(0, v - 1))]
    return parent, ids[0]


# ---------------------------------------------------------------- predicates


def test_is_tree():
    assert is_tree(path_graph(4))
    assert is_tree(Graph.from_edges(1, []))
    assert not is_tree(cycle_graph(4))
    assert not is_tree(Graph.from_edges(3, [(0, 1)]))


def test_is_path_graph():
    assert is_path_graph(path_graph(5))
    assert is_path_graph(Graph.from_edges(1, []))  # single-vertex convention
    assert is_path_graph(Graph.from_edges(2, [(0, 1)]))
    assert not is_path_graph(star_graph(3))
    assert not is_path_graph(cycle_graph(4))


def test_tree_diameter():
    assert tree_diameter(path_graph(6)) == 5
    assert tree_diameter(star_graph(4)) == 2
    assert tree_diameter(spider_graph([2, 2, 2])) == 4
    assert tree_diameter(Graph.from_edges(1, [])) == 0


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]),
        cycle_graph(4),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)]),
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)]),
    ],
    ids=["forest", "4-cycle", "cycle-with-pendant-path", "cycle-with-pendant-path-and-isolated-vertex"],
)
def test_tree_diameter_refuses_non_trees(g):
    # a double sweep from vertex 0 read 1 on the forest, the diameter of
    # one component; the peel's rounds alone would read -2 on the 4-cycle.
    # The last graph has n - 1 edges, so only the peel refuses it.
    with pytest.raises(IncompatibleMethodError, match="connected acyclic"):
        tree_diameter(g)


def test_tree_diameter_of_the_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        tree_diameter(Graph.from_edges(0, []))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(random_trees(), st.data())
def test_rooted_tree_parents_from_any_root(g, data):
    root = data.draw(st.integers(0, g.n - 1))
    assert list(RootedTree.from_graph(g, root).parent) == bfs_parents(g, root)


def test_tree_reads_run_no_walk_and_no_bfs(monkeypatch):
    # every read of a tree's shape comes from the peel: the tree metric,
    # the rooted tree, its heights and the diameter, each on a fresh copy
    # of the graph, so that no earlier answer is kept on it
    tree = uniform_tree(300, 4)

    def fresh() -> Graph:
        return Graph(tree.indptr.copy(), tree.indices.copy())

    witness = list(exact_tree_md(tree, 2).witness)

    def reads() -> list:
        metric = trees.TreeMetric(fresh())
        rooted = RootedTree.from_graph(fresh(), 7)
        return [
            metric.profile_keys(witness).tolist(),
            metric.widest_block(witness),
            rooted.parent,
            down_stem_vertices(rooted, 2),
            subtree_property_counts(rooted, 2),
            tree_diameter(fresh()),
        ]

    expected = reads()

    def refuse(*args):
        raise AssertionError("a tree read walked the tree")

    monkeypatch.setattr(graph, "_pendant_forest", refuse)
    monkeypatch.setattr(graph, "bfs_distances", refuse)
    assert reads() == expected


class TestFromParents:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(parent_arrays())
    def test_same_tree_as_edge_list_build(self, case):
        parent, root = case
        for given_as in (parent, np.array(parent)):
            t = RootedTree.from_parents(given_as, root)
            assert t == edge_list_rooted_tree(parent, root)
            assert all(type(v) is int for v in t.parent + tuple(chain.from_iterable(t.graph.edges())))
            assert is_tree(t.graph)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(parent_arrays())
    def test_arrays_match_the_tuple_tree(self, case):
        parent, root = case
        t = RootedTree.from_parents(np.array(parent), root)
        adjacency, children = tuple_tree(parent)
        assert_matches_tuples(t.graph, adjacency)
        assert t.children == children
        assert all(type(c) is int for kids in t.children for c in kids)
        assert RootedTree.from_graph(t.graph, root).children == children

    @pytest.mark.parametrize(
        "parents, root, message",
        [
            ([-1, 2, 3, 1], 0, "not a tree: 3 of 4 vertices"),
            ([-1, 1], 0, "not a tree: 1 of 2"),
            ([-1, -1, 0], 0, "parent -1 of vertex 1"),
            ([-1, 5], 0, "parent 5 of vertex 1"),
            ([1, -1], 0, "the root's parent must be -1"),
            ([-1], 1, "root 1 out of range"),
        ],
    )
    def test_rejects_non_trees(self, parents, root, message):
        with pytest.raises(ValueError, match=message):
            RootedTree.from_parents(parents, root)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.integers(-1, 7), min_size=1, max_size=8), st.data())
    def test_accepts_exactly_the_trees(self, values, data):
        n = len(values)
        root = data.draw(st.integers(0, n - 1))
        parent = [min(v, n - 1) for v in values]
        parent[root] = -1
        try:
            edges = [(parent[v], v) for v in range(n) if v != root]
            expected = all(p >= 0 for p, _ in edges) and is_tree(Graph.from_edges(n, edges))
        except ValueError:  # self-loop or an edge given twice
            expected = False
        if expected:
            assert RootedTree.from_parents(parent, root) == edge_list_rooted_tree(parent, root)
        else:
            with pytest.raises(ValueError):
                RootedTree.from_parents(parent, root)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.integers(-2, 9), min_size=1, max_size=8), st.data())
    def test_list_and_array_builds_agree(self, values, data):
        # from_parents builds trees below trees._ARRAY_TREE_MIN vertices on
        # lists, the rest on arrays: the same graph or the same error
        root = data.draw(st.integers(0, len(values) - 1))
        parent = list(values)
        parent[root] = -1
        outcomes = []
        for build in (trees._list_tree, lambda p, r: trees._array_tree(np.array(p, dtype=np.intp), r)):
            try:
                outcomes.append(build(parent, root))
            except ValueError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]


# ------------------------------------------------------------------ stemming


class TestStem:
    def test_star_leaves_removed(self):
        res = stem(star_graph(3))
        assert res.survivors == (0,)

    def test_path4_midpoints_survive(self):
        res = stem(path_graph(4))
        assert res.survivors == (1, 2)

    def test_cycle_unchanged(self):
        res = stem(cycle_graph(4))
        assert res.survivors == (0, 1, 2, 3)
        assert res.removed_per_round == ((),)

    def test_r0_is_identity(self):
        g = spider_graph([3, 1, 2])
        res = stem_r(g, 0)
        assert res.survivors == tuple(range(g.n))
        assert induced_subgraph(g, res.survivors) == (g, res.survivors)
        assert res.removed_per_round == ()

    def test_full_binary_one_round(self):
        g = full_m_ary_tree(2, 3)
        sub, _ = induced_subgraph(g, stem_r(g, 1).survivors)
        assert sub.n == 7  # height-2 binary tree
        assert is_tree(sub)

    def test_cycle_with_pendant_path(self):
        # 4-cycle 0..3 plus the path 0-4-5-6; three rounds eat the path
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)])
        res = stem_r(g, 3)
        assert res.survivors == (0, 1, 2, 3)
        assert res.removed_per_round == ((6,), (5,), (4,))

    def test_round_semantics(self):
        res = stem_r(path_graph(5), 2)
        assert res.removed_per_round == ((0, 4), (1, 3))
        assert res.survivors == (2,)

    def test_emptied_flag(self):
        res = stem_r(path_graph(3), 2)
        assert res.emptied
        assert res.survivors == ()

    def test_stem_never_removes_cycle_vertices(self):
        for seed in range(10):
            g = unicyclic_graph(12, seed)
            dm = all_pairs_distances(g)
            # cycle vertices = the 2-core here
            from relaxmdim.graph import peel_degree_le1

            removed = {v for batch in peel_degree_le1(g) for v in batch}
            core = set(range(g.n)) - removed
            assert core  # unicyclic graphs always keep their cycle
            for r in range(1, 6):
                assert core <= set(stem_r(g, r).survivors)
            del dm


class TestDownStem:
    def test_rooted_path_end(self):
        t = RootedTree.from_graph(path_graph(3), root=0)
        assert down_stem_vertices(t, 2) == (0,)

    def test_root_degree_two_matches_stem(self):
        # rooted at a spider center the root never becomes a leaf
        g = spider_graph([2, 2])
        t = RootedTree.from_graph(g, root=0)
        for r in range(4):
            assert set(down_stem_vertices(t, r)) == set(stem_r(g, r).survivors) | {0}

    def test_non_root_survival_is_subtree_height(self):
        # literal peeling agrees with the height characterization
        rng = np.random.default_rng(5)
        for seed in range(20):
            n = int(rng.integers(2, 40))
            g = uniform_tree(n, seed)
            t = RootedTree.from_graph(g, root=0)
            order = [0]
            for u in order:  # a BFS over the children
                order.extend(t.children[u])
            height = [0] * n
            for v in reversed(order):
                if t.children[v]:
                    height[v] = 1 + max(height[c] for c in t.children[v])
            for r in range(0, 6):
                expected = tuple(
                    v for v in range(n) if v == 0 or height[v] >= r
                )
                assert down_stem_vertices(t, r) == expected

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(random_trees(), st.data())
    def test_matches_round_scan_at_any_root(self, g, data):
        t = RootedTree.from_graph(g, root=data.draw(st.integers(0, g.n - 1)))
        for r in range(8):
            assert down_stem_vertices(t, r) == round_scan_down_stem(t, r)

    def test_difference_with_stem_is_path(self):
        for seed in range(30):
            n = int(np.random.default_rng(seed).integers(2, 60))
            g = uniform_tree(n, seed)
            t = RootedTree.from_graph(g, root=0)
            for r in range(0, 6):
                down = set(down_stem_vertices(t, r))
                up = set(stem_r(g, r).survivors)
                assert up <= down
                diff = down - up
                if diff:
                    sub, _ = induced_subgraph(g, sorted(diff))
                    assert is_path_graph(sub)


# -------------------------------------------------------- sigma / ex counter


class TestCountSigmaEx:
    def test_star(self):
        assert count_sigma_ex(star_graph(4)) == (4, 1)

    def test_path_has_no_major_vertex(self):
        assert count_sigma_ex(path_graph(5)) == (2, 0)

    def test_spider_three_legs(self):
        assert count_sigma_ex(spider_graph([2, 2, 2])) == (3, 1)

    def test_cycle(self):
        assert count_sigma_ex(cycle_graph(5)) == (0, 0)

    def test_two_major_vertices(self):
        # H-shape: two centers joined, two leaves each
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
        assert count_sigma_ex(g) == (4, 2)


# ------------------------------------------------------------- exact md


class TestExactTreeMD:
    @pytest.mark.parametrize("k", [0, 2, 5, 40])
    def test_two_bfs_per_solve(self, k, monkeypatch):
        # one search, the tree check (a component labelling): the stem's
        # size tells whether k >= diameter
        calls = []

        def counting_labels(g):
            calls.append(g)
            return _component_labels(g)

        monkeypatch.setattr(trees, "_component_labels", counting_labels)
        exact_tree_md(spider_graph([3, 1, 4, 2]), k)
        assert len(calls) == 1

    def test_repeated_solves_share_one_bfs(self, monkeypatch):
        # the tree check (a component labelling) is kept on the graph; a
        # graph built from a parent array is known to be a tree without one
        calls = []

        def counting_labels(g):
            calls.append(g)
            return _component_labels(g)

        monkeypatch.setattr(trees, "_component_labels", counting_labels)
        g = spider_graph([3, 1, 4, 2])
        for k in range(9):
            exact_tree_md(g, k)
        assert len(calls) == 1
        exact_tree_md(RootedTree.from_parents([-1, 0, 0, 1]).graph, 0)
        exact_tree_md(uniform_tree(30, seed=2), 2)
        assert len(calls) == 1

    def test_huge_k_peels_at_most_n_rounds(self, monkeypatch):
        asked = []
        peel = trees._peel

        def bounded_peel(g, rounds, *args):
            asked.append(rounds)
            assert rounds <= g.n, f"{rounds} peel rounds asked of {g.n} vertices"
            return peel(g, rounds, *args)

        monkeypatch.setattr(trees, "_peel", bounded_peel)
        rep = exact_tree_md(uniform_tree(1000, seed=3), 10**9)
        assert (rep.r, rep.md, rep.witness) == (5 * 10**8, 0, ())
        assert asked == [1000]

    def test_stem_size_rule_on_every_small_tree(self):
        # k >= diameter iff the min(k // 2, n)-stem has at most 1 + k % 2
        # vertices, on every non-isomorphic tree with n <= 10 and k <= D + 3
        cases = 0
        for n in range(1, 11):
            for t in nx.nonisomorphic_trees(n):
                g = Graph.from_edges(n, list(t.edges()))
                diameter = tree_diameter(g)
                for k in range(diameter + 4):
                    small = len(stem_r(g, min(k // 2, n)).survivors) <= 1 + k % 2
                    assert small == (k >= diameter), (sorted(t.edges()), k)
                    assert (exact_tree_md(g, k).md == 0) == (k >= diameter)
                    cases += 1
        assert cases == 1792

    def test_full_binary_h3_k0(self):
        rep = exact_tree_md(full_m_ary_tree(2, 3), 0)
        assert (rep.sigma_r, rep.ex_r, rep.md) == (8, 4, 4)

    def test_full_binary_h3_k2(self):
        rep = exact_tree_md(full_m_ary_tree(2, 3), 2)
        assert rep.md == 2
        assert rep.md == exact_tree_md(full_m_ary_tree(2, 3), 0).md // 2

    def test_path4_k2_line_stem(self):
        rep = exact_tree_md(path_graph(4), 2)
        assert rep.is_line
        assert rep.md == 1
        assert rep.md == brute_force_md(path_graph(4), 2)[0]

    def test_spider_at_diameter(self):
        g = spider_graph([2, 2, 2])
        rep = exact_tree_md(g, 4)
        assert rep.md == 0
        assert rep.witness == ()

    def test_cycle_rejected(self):
        with pytest.raises(IncompatibleMethodError, match="acyclic"):
            exact_tree_md(cycle_graph(5), 0)

    def test_witness_verifies_with_matching_cardinality(self):
        for seed in range(15):
            g = uniform_tree(int(np.random.default_rng(seed).integers(3, 40)), seed)
            dm = all_pairs_distances(g)
            diam = tree_diameter(g)
            for k in range(diam + 2):
                rep = exact_tree_md(g, k)
                assert len(rep.witness) == rep.md
                assert is_k_relaxed_resolving(dm, rep.witness, k)

    def test_monotone_in_k(self):
        for seed in range(10):
            g = uniform_tree(30, seed + 100)
            values = [exact_tree_md(g, k).md for k in range(tree_diameter(g) + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_odd_even_equality(self):
        for seed in range(15):
            g = uniform_tree(int(np.random.default_rng(seed).integers(4, 50)), seed + 7)
            diam = tree_diameter(g)
            for r in range(0, (diam - 1) // 2):
                if 2 * r + 1 < diam:
                    assert exact_tree_md(g, 2 * r).md == exact_tree_md(g, 2 * r + 1).md

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(random_trees())
    def test_one_walk_matches_separate_counts(self, g):
        # sigma, ex and is_line as the stem's own counters and path test give
        # them; a path stem's witness is its smaller-id end
        for k in range(tree_diameter(g)):
            rep = exact_tree_md(g, k)
            sub, to_original = induced_subgraph(g, stem_r(g, k // 2).survivors)
            assert (rep.sigma_r, rep.ex_r) == count_sigma_ex(sub)
            assert rep.is_line == is_path_graph(sub) == (rep.ex_r == 0)
            if rep.is_line:
                ends = [v for v in range(sub.n) if sub.degree(v) <= 1]
                assert rep.witness == (min(to_original[v] for v in ends),)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.one_of(random_trees(), connected_graphs(), sparse_graphs()))
    def test_leaf_walk_matches_degree_calls(self, g):
        assert leaf_groups(g) == degree_call_leaf_groups(g)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.one_of(random_trees(), connected_graphs(), sparse_graphs()), st.data())
    def test_leaf_walk_less_removed_matches_the_induced_subgraph(self, g, data):
        # removed: the peel at a random depth, or any vertex subset in any
        # order; the walk on g less removed answers in g's ids what the walk
        # of the relabelled subgraph answers in its own
        if data.draw(st.booleans()):
            depth = data.draw(st.integers(0, 8))
            removed = list(chain.from_iterable(peel_degree_le1(g, rounds=depth)))
        else:
            removed = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
        sub, to_original = induced_subgraph(g, sorted(set(range(g.n)) - set(removed)))
        leaves, groups = degree_call_leaf_groups(sub)
        expected_groups = {
            to_original[major]: [to_original[v] for v in group] for major, group in groups.items()
        }
        got_leaves, got_groups = leaf_groups(g, removed)
        assert got_leaves == [to_original[v] for v in leaves]
        assert got_groups == expected_groups

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.one_of(random_trees(), connected_graphs(), sparse_graphs()), st.data())
    def test_leaf_walk_matches_the_cut_sum_walk(self, g, data):
        # the array passes give the degrees and neighbour sums that the
        # former walk kept up to date vertex by vertex
        depth = data.draw(st.integers(0, g.n))
        removed = list(chain.from_iterable(peel_degree_le1(g, rounds=depth)))
        assert leaf_groups(g, removed) == cut_sum_leaf_groups(g, removed)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.one_of(random_trees(), connected_graphs(), sparse_graphs()), st.data())
    def test_array_walk_matches_the_list_walk_at_any_scalar_cut(self, g, data):
        # every walk on arrays, the default cut, and every walk in Python
        depth = data.draw(st.integers(0, g.n))
        removed = list(chain.from_iterable(peel_degree_le1(g, rounds=depth)))
        expected = list_walk_leaf_groups(g, removed)
        for cut in (1, trees._SCALAR_BATCH, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(trees, "_SCALAR_BATCH", cut)
                assert leaf_groups(g, removed) == expected, cut

    def test_sampled_trees_are_solved_on_their_arrays(self):
        # neither the samplers nor the solver keep a second form of the graph
        for g in (uniform_tree(2000, seed=4), RootedTree.from_parents([-1, 0, 0, 1, 1, 2]).graph):
            for k in range(6):
                exact_tree_md(g, k)
            assert set(g.__dict__) == {"indptr", "indices", trees._IS_TREE}

    def test_100000_vertex_path_matches_the_subgraph_solver(self):
        n = 100_000
        g = path_graph(n)
        for k in range(4):
            assert exact_tree_md(g, k) == subgraph_exact_tree_md(g, k), k
        # the r-stem is the path r .. n - 1 - r, until k reaches the diameter
        for k in (2_000, 99_997, 99_998, n - 1, n, 10**9):
            r = k // 2
            expected = (
                trees.TreeMDReport(k, r, 2, 0, True, 1, (r,))
                if k < n - 1
                else trees.TreeMDReport(k, r, 0, 0, False, 0, ())
            )
            assert exact_tree_md(g, k) == expected, k

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.one_of(
            random_trees(),
            st.builds(relabelled, st.sampled_from(SMALL_TREES), st.randoms(use_true_random=False)),
        )
    )
    def test_report_matches_the_subgraph_solver(self, g):
        # every field, at every k up to one past the diameter
        for k in range(tree_diameter(g) + 2):
            assert exact_tree_md(g, k) == subgraph_exact_tree_md(g, k), k

    @pytest.mark.parametrize("g", SMALL_TREES)
    def test_report_matches_the_subgraph_solver_on_small_trees(self, g):
        for k in range(tree_diameter(g) + 2):
            assert exact_tree_md(g, k) == subgraph_exact_tree_md(g, k), k

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.one_of(
            random_trees(120),
            st.builds(uniform_tree, st.integers(2, 300), st.integers(0, 2**32 - 1)),
            st.builds(
                relabelled,
                st.sampled_from(SMALL_TREES + EQUAL_LEG_SPIDERS),
                st.randoms(use_true_random=False),
            ),
        )
    )
    def test_array_solve_matches_the_walk_oracle(self, g):
        # every field, witness included, at every k up to one past the
        # diameter, with the walks on arrays, at the default cut and in Python
        expected = [walk_exact_tree_md(g, k) for k in range(tree_diameter(g) + 2)]
        for cut in (1, trees._SCALAR_BATCH, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(trees, "_SCALAR_BATCH", cut)
                assert [exact_tree_md(g, k) for k in range(len(expected))] == expected, cut
                assert count_sigma_ex(g) == walk_count_sigma_ex(g), cut

    @pytest.mark.parametrize("g", SMALL_TREES + EQUAL_LEG_SPIDERS)
    def test_array_solve_matches_the_walk_oracle_on_small_trees(self, g):
        for k in range(tree_diameter(g) + 2):
            assert exact_tree_md(g, k) == walk_exact_tree_md(g, k), k
        assert count_sigma_ex(g) == walk_count_sigma_ex(g)

    def test_100000_vertex_uniform_tree_solves_in_little_memory(self):
        # the stem's mask, degrees and neighbour sums are arrays: no list
        # of per-vertex ints is held beside the peel's rounds
        g = uniform_tree(100_000, seed=5)
        for k in (0, 2, 4, 8, 16):
            tracemalloc.start()
            try:
                exact_tree_md(g, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6_000_000, (k, peak)

    @pytest.mark.parametrize("k", [0, 16])
    def test_solve_walks_the_peels_own_arrays(self, k):
        # the peel keeps no rounds and hands its degrees and neighbour sums
        # to the walk, which makes no pass of its own over the CSR entries:
        # 3.5 MB at k = 0 and 3.2 MB at k = 16, against 3.7 and 5.0 MB with
        # the rounds listed and two more passes
        g = uniform_tree(100_000, seed=5)
        tracemalloc.start()
        try:
            exact_tree_md(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * g.n, peak

    def test_report_json_schema(self):
        d = exact_tree_md(path_graph(4), 0).as_dict()
        assert set(d) == {"k", "r", "sigma_r", "ex_r", "is_line", "md", "witness"}


# ---------------------------------------------------------------- tree metric


# shallow trees with shuffled ids, uniform trees (diameter about sqrt(n)),
# paths and stars
METRIC_TREES = st.one_of(
    random_trees(200),
    st.builds(uniform_tree, st.integers(2, 200), st.integers(0, 2**32 - 1)),
    st.builds(path_graph, st.integers(1, 40)),
    st.builds(star_graph, st.integers(1, 40)),
)


class TestTreeMetric:
    """TreeMetric against the DistanceMatrix of the same tree."""

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(METRIC_TREES, st.randoms(use_true_random=False))
    def test_partitions_and_checks_match_the_matrix(self, g, rng):
        dm = all_pairs_distances(g)
        metric = trees.TreeMetric(g)
        for k in range(dm.diameter + 2):
            witness = list(exact_tree_md(g, k).witness)
            short = witness[:]
            if short:
                short.pop(rng.randrange(len(short)))
            planted = rng.sample(range(g.n), rng.randint(0, min(g.n, 12)))
            single = [rng.randrange(g.n)]
            for sensors in (witness, short, planted, [], single):
                assert equivalence_partition(metric, sensors) == equivalence_partition(dm, sensors)
                expected = is_k_relaxed_resolving(dm, sensors, k)
                assert is_k_relaxed_resolving(metric, sensors, k) == expected
            assert is_k_relaxed_resolving(metric, witness, k)
        assert equivalence_partition(metric, []).blocks == (tuple(range(g.n)),)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(METRIC_TREES, st.randoms(use_true_random=False))
    def test_widest_block_matches_the_matrix(self, g, rng):
        dm = all_pairs_distances(g)
        metric = trees.TreeMetric(g)
        for k in range(dm.diameter + 2):
            witness = list(exact_tree_md(g, k).witness)
            planted = rng.sample(range(g.n), rng.randint(0, min(g.n, 12)))
            for sensors in (witness, witness[1:], planted):
                assert metric.widest_block(sensors) == dm.widest_block(sensors), (k, sensors)

    def test_widest_block_of_every_sensor_set_of_small_trees(self):
        graphs = [path_graph(1)] + [uniform_tree(n, seed) for n in range(2, 11) for seed in range(3)]
        for g in graphs:
            dm = all_pairs_distances(g)
            metric = trees.TreeMetric(g)
            for size in range(g.n + 1):
                for sensors in combinations(range(g.n), size):
                    assert metric.widest_block(sensors) == dm.widest_block(sensors), sensors

    @pytest.mark.parametrize(
        "g, sensors, widest",
        [
            (path_graph(1), [], 0),
            (path_graph(1), [0], 0),
            (path_graph(2), [], 1),
            (path_graph(9), [], 8),
            (path_graph(9), [0], 0),
            (path_graph(9), [4], 8),
            (path_graph(9), [3], 6),
            (path_graph(10), [], 9),
            (star_graph(6), [], 2),
            (star_graph(6), [0], 2),
            (star_graph(6), [1], 2),
            (star_graph(6), [1, 2, 3, 4], 2),
            (star_graph(6), [1, 2, 3, 4, 5], 0),
            (spider_graph([4, 4, 4]), [], 8),
            (spider_graph([4, 4, 4]), [0], 8),
            (spider_graph([4, 4, 4]), [1], 8),
            (spider_graph([3, 3, 3, 3]), [4], 6),
            (spider_graph([3, 3, 3, 3]), list(range(13)), 0),
            (uniform_tree(40, seed=1), list(range(40)), 0),
        ],
    )
    def test_widest_block_of_named_trees(self, g, sensors, widest):
        assert trees.TreeMetric(g).widest_block(sensors) == widest
        assert all_pairs_distances(g).widest_block(sensors) == widest

    @pytest.mark.parametrize("metric_of", [trees.TreeMetric, all_pairs_distances], ids=["tree", "matrix"])
    @pytest.mark.parametrize("g", [path_graph(1), path_graph(2), uniform_tree(50, 1)], ids=["n1", "n2", "n50"])
    def test_no_sensors_leave_one_block(self, metric_of, g):
        # every vertex has the empty vector: n equal int64 keys, one block,
        # and the widest block is the diameter, from a list or an array
        metric = metric_of(g)
        for none in ([], (), np.array([], dtype=np.intp)):
            keys = metric.profile_keys(none)
            assert keys.dtype == np.int64 and keys.shape == (g.n,)
            assert np.all(keys == keys[0])
            assert metric.widest_block(none) == tree_diameter(g)
        assert equivalence_partition(metric, []).blocks == (tuple(range(g.n)),)

    @pytest.mark.parametrize("metric_of", [trees.TreeMetric, all_pairs_distances], ids=["tree", "matrix"])
    @pytest.mark.parametrize(
        "g, sensors",
        [(path_graph(1), [0]), (uniform_tree(50, 1), [7]), (uniform_tree(50, 1), [0, 17, 42]), (star_graph(6), [1, 2])],
        ids=["n1", "one", "three", "star"],
    )
    def test_sensor_ids_in_a_numpy_array(self, metric_of, g, sensors):
        metric = metric_of(g)
        ids = np.array(sensors)
        assert metric.widest_block(ids) == metric.widest_block(sensors)
        assert np.array_equal(metric.profile_keys(ids), metric.profile_keys(sensors))
        assert equivalence_partition(metric, ids) == equivalence_partition(metric, sensors)

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_check_holds_one_peel(self, k):
        # the peel's rounds, degrees and neighbour sums, and one round's
        # arrays: 35 bytes a vertex; the keys, the blocks and the sparse
        # table of LCA depths took 123, 159 and 187
        g = uniform_tree(10**5, 2)
        witness = exact_tree_md(g, k).witness
        tracemalloc.start()
        try:
            assert is_k_relaxed_resolving(trees.TreeMetric(g), witness, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45 * g.n, peak

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.one_of(random_trees(), METRIC_TREES), st.randoms(use_true_random=False))
    def test_keys_match_the_walk(self, g, rng):
        metric = trees.TreeMetric(g)
        for k in range(tree_diameter(g) + 2):
            witness = list(exact_tree_md(g, k).witness)
            planted = rng.sample(range(g.n), rng.randint(1, min(g.n, 12)))
            for sensors in (witness, planted, [rng.randrange(g.n)], list(range(g.n))):
                if sensors:
                    assert np.array_equal(metric.profile_keys(sensors), walk_profile_keys(g, sensors)), sensors

    @pytest.mark.parametrize(
        "g",
        [path_graph(1), path_graph(2), path_graph(7), star_graph(1), star_graph(6)],
        ids=["n1", "n2", "path", "star1", "star"],
    )
    def test_keys_of_every_sensor_set_of_paths_and_stars(self, g):
        metric = trees.TreeMetric(g)
        for size in range(1, g.n + 1):
            for sensors in combinations(range(g.n), size):
                assert np.array_equal(metric.profile_keys(sensors), walk_profile_keys(g, sensors)), sensors

    @pytest.mark.parametrize("sensors", ["k0", "k2", "k8", "one", "all"])
    def test_keys_of_a_100000_vertex_tree(self, sensors):
        g = uniform_tree(10**5, 2)
        if sensors[0] == "k":
            sensors = list(exact_tree_md(g, int(sensors[1:])).witness)
        else:
            sensors = [4321] if sensors == "one" else list(range(g.n))
        assert np.array_equal(trees.TreeMetric(g).profile_keys(sensors), walk_profile_keys(g, sensors))

    @pytest.mark.parametrize("k", [0, 2, 8])
    def test_keys_hold_one_peel(self, k):
        # the peel's rounds and neighbour sums, and the jumps' steps and
        # moving vertices: 31 to 37 bytes a vertex; the walk from vertex 0
        # and its per-vertex lists took 106 on the first call and 59 after
        g = uniform_tree(10**5, 2)
        metric = trees.TreeMetric(g)
        witness = list(exact_tree_md(g, k).witness)
        tracemalloc.start()
        try:
            metric.profile_keys(witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 55 * g.n, peak

    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(4),
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)]),
            Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)]),
            Graph.from_edges(0, []),
        ],
        ids=["cycle", "triangle-and-isolated-vertex", "isolated-root-and-triangle", "empty"],
    )
    def test_refuses_non_trees(self, g):
        with pytest.raises(ValueError, match="connected acyclic"):
            trees.TreeMetric(g)


# ---------------------------------------------------------------- brute force


class TestBruteForce:
    def test_path_is_dimension_one(self):
        assert brute_force_md(path_graph(4), 0) == (1, (0,))

    def test_star_k0(self):
        md, witness = brute_force_md(star_graph(3), 0)
        assert md == 2

    def test_cycle_k1(self):
        md, _ = brute_force_md(cycle_graph(4), 1)
        assert md == 2

    def test_k_at_diameter_gives_empty(self):
        assert brute_force_md(star_graph(3), 2) == (0, ())

    def test_refuses_large_input(self):
        with pytest.raises(TooLargeError):
            brute_force_md(path_graph(15), 0)

    def test_witness_is_lexicographically_first(self):
        md, witness = brute_force_md(cycle_graph(5), 0)
        assert md == 2
        assert witness == (0, 1)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(connected_graphs(max_n=9))
    def test_matches_dict_check_search(self, g):
        dm = all_pairs_distances(g)
        for k in range(dm.diameter + 1):
            assert brute_force_md(g, k, dm) == dict_brute_force_md(dm.matrix, k)


# --------------------------------------------------- subtree property counts


def _literal_subtree_counts(t: RootedTree, r: int) -> tuple[int, int]:
    """Reference implementation straight from the definitions: extract every
    subtree, down-stem it literally, inspect the root's surviving branches."""
    g = t.graph
    nl = 0
    ne = 0
    for v in range(t.n):
        descend = [v]
        for u in descend:
            descend.extend(t.children[u])
        sub, mapping = induced_subgraph(g, descend)
        sub_root = mapping.index(v)
        sub_tree = RootedTree.from_graph(sub, sub_root)
        from relaxmdim.graph import bfs_distances

        if max(bfs_distances(sub, sub_root)) == r:
            nl += 1
        survivors = set(down_stem_vertices(sub_tree, r))
        kids = [c for c in sub_tree.children[sub_root] if c in survivors]
        if len(kids) >= 2:
            for c in kids:
                # a line "to a leaf" descends from the branch root: every
                # vertex on it keeps at most one surviving child
                cur = c
                is_line = True
                while True:
                    nxt = [x for x in sub_tree.children[cur] if x in survivors]
                    if len(nxt) > 1:
                        is_line = False
                        break
                    if not nxt:
                        break
                    cur = nxt[0]
                if is_line:
                    ne += 1
                    break
    return nl, ne


class TestSubtreeProperties:
    def test_rooted_path_r0(self):
        t = RootedTree.from_graph(path_graph(3), root=0)
        assert subtree_property_counts(t, 0) == (1, 0)

    def test_nl_at_r0_counts_childless(self):
        for seed in range(8):
            g = uniform_tree(20, seed + 50)
            t = RootedTree.from_graph(g, root=0)
            nl, _ = subtree_property_counts(t, 0)
            assert nl == sum(1 for v in range(t.n) if not t.children[v])

    def test_three_line_branches_one_junction(self):
        # root 0 - 1; 1 has three children (2, 3, 4), each with a length-2
        # chain below: exactly three height-2 subtrees and one junction
        # whose down-stemmed branches are single-vertex lines
        edges = [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (5, 6), (3, 7), (7, 8), (4, 9), (9, 10)]
        t = RootedTree.from_graph(Graph.from_edges(11, edges), root=0)
        assert subtree_property_counts(t, 2) == (3, 1)
        assert _literal_subtree_counts(t, 2) == (3, 1)

    def test_matches_literal_definition(self):
        rng = np.random.default_rng(77)
        for seed in range(25):
            n = int(rng.integers(2, 35))
            t = RootedTree.from_graph(uniform_tree(n, seed), root=int(rng.integers(n)))
            for r in range(0, 5):
                assert subtree_property_counts(t, r) == _literal_subtree_counts(t, r)

    def test_counting_lemma_small(self):
        for seed in range(20):
            g = uniform_tree(int(np.random.default_rng(seed).integers(2, 40)), seed)
            t = RootedTree.from_graph(g, root=0)
            for r in range(0, 5):
                nl, ne = subtree_property_counts(t, r)
                md = exact_tree_md(g, 2 * r).md
                assert abs(md - (nl - ne)) <= 1


# -------------------------------------------- oracle equivalence (sampled)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_closed_form_matches_brute_force_on_random_trees(seed):
    # exhaustive coverage up to 9 vertices lives in the acceptance suite;
    # this samples the 10..11 range as well
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    g = uniform_tree(n, seed) if n > 1 else Graph.from_edges(1, [])
    diam = tree_diameter(g)
    for k in range(diam):
        assert exact_tree_md(g, k).md == brute_force_md(g, k)[0]
