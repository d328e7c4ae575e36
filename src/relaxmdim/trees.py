"""Exact relaxed metric dimension on trees.

The machinery: iterated stemming (leaf pruning), root-preserving
down-stemming, leaf / exterior-major-vertex counting, the closed-form
dimension of a tree with a constructive witness, per-vertex subtree property
counters, and an exhaustive brute-force oracle for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .graph import (
    UNREACHABLE,
    DistanceMatrix,
    Graph,
    TooLargeError,
    all_pairs_distances,
    bfs_distances,
    induced_subgraph,
    is_k_relaxed_resolving,
    peel_degree_le1,
)


# where is_tree keeps its answer in a Graph's instance dict
_IS_TREE = "_is_tree"


class IncompatibleMethodError(ValueError):
    """Requested method cannot be applied to the given input."""


def is_tree(g: Graph) -> bool:
    """Connected and acyclic (a single vertex counts).

    The answer is kept on the immutable graph, beside its cached edge count,
    so a graph pays for at most one BFS, and a graph built from a parent
    array for none."""
    known = g.__dict__.get(_IS_TREE)
    if known is None:
        known = g.n > 0 and g.m == g.n - 1 and UNREACHABLE not in bfs_distances(g, 0)
        g.__dict__[_IS_TREE] = known
    return known


def is_path_graph(g: Graph) -> bool:
    """True for a simple path; by convention a single vertex is a path."""
    return is_tree(g) and max(g.degrees()) <= 2


def tree_diameter(g: Graph) -> int:
    """Diameter of a tree via double BFS (undefined on non-trees)."""
    if g.n == 0:
        raise ValueError("empty graph")
    dist = bfs_distances(g, 0)
    return max(bfs_distances(g, dist.index(max(dist))))


@dataclass(frozen=True)
class RootedTree:
    """A tree with a distinguished root, parents and children oriented away
    from it. ``parent[root] == -1``; children lists are sorted."""

    graph: Graph
    root: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    to_original: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    @classmethod
    def from_graph(
        cls, g: Graph, root: int = 0, to_original: tuple[int, ...] | None = None
    ) -> "RootedTree":
        if not is_tree(g):
            raise ValueError("input graph is not a tree")
        if not 0 <= root < g.n:
            raise ValueError(f"root {root} out of range")
        parent = [-1] * g.n
        order = [root]
        seen = [False] * g.n
        seen[root] = True
        for u in order:
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    order.append(w)
        children: list[list[int]] = [[] for _ in range(g.n)]
        for v, p in enumerate(parent):
            if p >= 0:
                children[p].append(v)
        return cls(g, root, tuple(parent), tuple(tuple(sorted(c)) for c in children), to_original)

    @classmethod
    def from_parents(cls, parents: Sequence[int], root: int = 0) -> "RootedTree":
        """Build from a parent array: ``parents[root] == -1`` and every other
        entry is a vertex id. A list or an integer array; the tree holds
        Python ints either way.

        Raises ValueError unless the array is a tree on all its vertices, in
        O(n). With root 0, ``parents[v] < v`` for every other v is proof
        enough (the conditioned sampler's decode gives such labels);
        otherwise a walk of the children from the root must reach every
        vertex. Each vertex's adjacency is its children with its parent
        merged in; no edge set is built.
        """
        parent = np.asarray(parents, dtype=np.intp)
        n = parent.size
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range for n={n}")
        if parent[root] != -1:
            raise ValueError(f"parents[{root}] is {parent[root]}, but the root's parent must be -1")
        outside = np.flatnonzero((parent < 0) | (parent >= n))
        if outside.size > 1:
            v = int(outside[outside != root][0])
            raise ValueError(f"parent {parent[v]} of vertex {v} is not a vertex id for n={n}")
        plist = parent.tolist()
        children = _children(plist)
        if not (root == 0 and bool((parent[1:] < np.arange(1, n)).all())):
            reached = [root]
            for u in reached:
                reached.extend(children[u])
            if len(reached) < n:
                raise ValueError(
                    f"parent array is not a tree: {n - len(reached)} of {n} vertices "
                    f"lie on cycles that never reach root {root}"
                )
        return cls(_tree_graph(plist, children), root, tuple(plist), children)

    def topo_order(self) -> list[int]:
        """Vertices with every parent before its children (BFS from root)."""
        order = [self.root]
        for u in order:
            order.extend(self.children[u])
        return order


def _children(parent: list[int]) -> tuple[tuple[int, ...], ...]:
    """Every vertex's children, ascending, from a parent list whose root
    holds -1 and every other entry a vertex id."""
    kids: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    return tuple(map(tuple, kids))


def _tree_graph(parent: list[int], children: tuple[tuple[int, ...], ...]) -> Graph:
    """The graph of a tree given by a valid parent list and its sorted
    children: each adjacency row is the children with the parent merged in."""
    rows = []
    for p, kids in zip(parent, children):
        if p < 0:
            rows.append(kids)
        elif not kids or p < kids[0]:
            rows.append((p, *kids))
        else:
            rows.append(tuple(sorted((p, *kids))))
    g = Graph(tuple(rows))
    g.__dict__[_IS_TREE] = True
    return g


@dataclass(frozen=True)
class StemResult:
    """Survivors of iterated degree-<=1 pruning.

    ``survivors`` are original ids (ascending); ``subgraph`` is the induced
    graph relabeled 0..len-1 with ``to_original`` mapping back; round ``i`` of
    ``removed_per_round`` holds exactly the degree-<=1 vertices of the
    previous round's survivor graph.
    """

    survivors: tuple[int, ...]
    subgraph: Graph
    to_original: tuple[int, ...]
    removed_per_round: tuple[tuple[int, ...], ...]

    @property
    def emptied(self) -> bool:
        return not self.survivors


def stem_r(g: Graph, r: int) -> StemResult:
    """Apply ``r`` rounds of stemming (vertices of degree 0/1 removed each
    round); ``r = 0`` is the identity."""
    if r < 0:
        raise ValueError("stemming rounds must be nonnegative")
    if r == 0:
        ids = tuple(range(g.n))
        return StemResult(ids, g, ids, ())
    rounds = peel_degree_le1(g, rounds=r)
    alive = np.ones(g.n, dtype=bool)
    alive[np.fromiter(chain.from_iterable(rounds), dtype=np.intp)] = False
    subgraph, to_original = induced_subgraph(g, np.flatnonzero(alive).tolist())
    return StemResult(to_original, subgraph, to_original, tuple(tuple(b) for b in rounds))


def stem(g: Graph) -> StemResult:
    """One stemming round; idempotent on graphs of minimum degree >= 2."""
    return stem_r(g, 1)


def _subtree_heights(t: RootedTree) -> list[int]:
    """Height of every vertex's downward subtree (0 for a childless vertex)."""
    height = [0] * t.n
    for v in reversed(t.topo_order()):
        if t.children[v]:
            height[v] = 1 + max(height[c] for c in t.children[v])
    return height


def down_stem_vertices(t: RootedTree, r: int) -> tuple[int, ...]:
    """Surviving vertex ids after ``r`` rounds of down-stemming: each round
    removes the non-root vertices of degree <= 1, the root always stays.

    A non-root vertex still has a child after round i - 1 exactly when its
    subtree height is at least i, so the survivors are the root and the
    vertices of subtree height >= ``r``.
    """
    if r < 0:
        raise ValueError("down-stemming rounds must be nonnegative")
    height = _subtree_heights(t)
    return tuple(v for v in range(t.n) if v == t.root or height[v] >= r)


def down_stem_r(t: RootedTree, r: int) -> RootedTree:
    """The down-stem as a rooted tree, relabeled with a map to original ids."""
    survivors = down_stem_vertices(t, r)
    subgraph, to_original = induced_subgraph(t.graph, survivors)
    new_root = to_original.index(t.root)
    return RootedTree.from_graph(subgraph, new_root, to_original)


def _leaf_groups(g: Graph) -> tuple[list[int], dict[int, list[int]]]:
    """The leaves (ascending), and the leaves grouped by their closest major
    vertex (degree >= 3), i.e. by the exterior major vertex owning their leaf
    path. Leaves on path components have no major vertex and are in no
    group."""
    adjacency = g.adjacency
    degree = g.degrees()
    leaves = [v for v, d in enumerate(degree) if d == 1]
    groups: dict[int, list[int]] = {}
    for leaf in leaves:
        prev, cur = leaf, adjacency[leaf][0]
        while degree[cur] == 2:
            a, b = adjacency[cur]
            prev, cur = cur, (b if a == prev else a)
        if degree[cur] > 2:  # degree 1: the far end of a path component
            groups.setdefault(cur, []).append(leaf)
    return leaves, groups


def count_sigma_ex(g: Graph) -> tuple[int, int]:
    """(number of leaves, number of exterior major vertices) of ``g``.

    An exterior major vertex has degree >= 3 and at least one attached leaf
    path (a chain of degree-2 vertices ending in a leaf).
    """
    leaves, groups = _leaf_groups(g)
    return len(leaves), len(groups)


@dataclass(frozen=True)
class TreeMDReport:
    """Exact k-relaxed dimension of a tree with a verifiable witness.

    ``md`` is 0 when ``k`` reaches the diameter, 1 when the r-stem is a path,
    and otherwise the stem's leaf count minus its exterior-major count. The
    witness always verifies and has cardinality ``md``.
    """

    k: int
    r: int
    sigma_r: int
    ex_r: int
    is_line: bool
    md: int
    witness: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "sigma_r": self.sigma_r,
            "ex_r": self.ex_r,
            "is_line": self.is_line,
            "md": self.md,
            "witness": list(self.witness),
        }


def exact_tree_md(g: Graph, k: int) -> TreeMDReport:
    """Exact k-relaxed metric dimension of a tree, with witness.

    Odd relaxations reduce to the even case one below (sensors on a tree
    always separate vertices at odd distances), so only r = floor(k/2)
    stemming rounds matter. The witness keeps, for every exterior major
    vertex of the r-stem, all but the smallest-id leaf of its leaf paths; for
    a path stem (the only trees without an exterior major vertex) it is the
    smaller-id endpoint. One walk of the stem's leaf paths gives all of it.

    The r-stem of a tree of diameter D has diameter D - 2r, or is empty, so
    k >= D (and md = 0) exactly when the stem has at most 1 + k % 2
    vertices; the tree check, kept on the graph, is the only BFS. The tree
    is gone after n rounds, so the stem is taken at min(r, n) of them.
    """
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    if not is_tree(g):
        raise IncompatibleMethodError("exact_tree_md requires a connected acyclic input")
    r = k // 2
    st = stem_r(g, min(r, g.n))
    if len(st.survivors) <= 1 + k % 2:
        return TreeMDReport(k, r, 0, 0, False, 0, ())
    leaves, groups = _leaf_groups(st.subgraph)
    sigma, ex = len(leaves), len(groups)
    if ex == 0:
        # to_original ascends, so the smallest endpoint maps to the smallest id
        w = st.to_original[leaves[0]]
        return TreeMDReport(k, r, sigma, ex, True, 1, (w,))
    # groups list their leaves ascending and to_original ascends, so each
    # group's first leaf is the one with the smallest original id
    to_original = st.to_original
    witness = sorted(to_original[leaf] for group in groups.values() for leaf in group[1:])
    md = sigma - ex
    assert md == len(witness)
    return TreeMDReport(k, r, sigma, ex, False, md, tuple(witness))


def subtree_property_counts(t: RootedTree, r: int) -> tuple[int, int]:
    """Count the two per-vertex subtree properties used to approximate the
    stem's leaf and exterior-major counts.

    NL counts vertices whose downward subtree has height exactly ``r``. NE
    counts vertices that, after ``r`` rounds of down-stemming their subtree,
    still have at least two children and at least one child branch that is a
    downward path (a single vertex counts as a path).

    A non-root vertex survives round i of down-stemming exactly when its
    subtree height is at least i, so both properties reduce to one
    bottom-up pass over subtree heights.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = t.n
    order = t.topo_order()
    height = _subtree_heights(t)
    surviving = [
        [c for c in t.children[v] if height[c] >= r] for v in range(n)
    ]
    line_down = [False] * n
    for v in reversed(order):
        kids = surviving[v]
        if not kids:
            line_down[v] = True
        elif len(kids) == 1:
            line_down[v] = line_down[kids[0]]
    nl = sum(1 for v in range(n) if height[v] == r)
    ne = sum(
        1
        for v in range(n)
        if len(surviving[v]) >= 2 and any(line_down[c] for c in surviving[v])
    )
    return nl, ne


def brute_force_md(
    g: Graph, k: int, dm: DistanceMatrix | None = None
) -> tuple[int, tuple[int, ...]]:
    """Minimum k-relaxed resolving set by exhaustive enumeration.

    Subsets are tried in increasing size and lexicographic order within each
    size, so the witness is canonical. Refuses graphs with more than 14
    vertices.
    """
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    if g.n > 14:
        raise TooLargeError(
            f"brute-force search refused for n={g.n} > 14 (exponential cost)"
        )
    if g.n == 0:
        raise ValueError("empty graph")
    if dm is None:
        dm = all_pairs_distances(g)
    for size in range(g.n + 1):
        for comb in combinations(range(g.n), size):
            if is_k_relaxed_resolving(dm, comb, k):
                return size, comb
    raise AssertionError("full vertex set always resolves")  # pragma: no cover
