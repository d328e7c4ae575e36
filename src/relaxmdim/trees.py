"""Exact relaxed metric dimension on trees.

The machinery: iterated stemming (leaf pruning), root-preserving
down-stemming, leaf / exterior-major-vertex counting, the closed-form
dimension of a tree with a constructive witness, a tree metric that
partitions and verifies sensor sets without the n x n distance matrix,
per-vertex subtree property counters, and an exhaustive brute-force oracle
for small graphs. Stems are vertex sets of the input graph: every vertex id
here is an input id, and no stem is rebuilt as a graph of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .graph import (
    DistanceMatrix,
    Graph,
    TooLargeError,
    _graph_from_keys,
    _pair_keys,
    _SCALAR_BATCH,
    _component_labels,
    _double_sweep,
    _peel,
    _pendant_forest,
    _unpeeled,
    all_pairs_distances,
    distance_dtype,
    is_k_relaxed_resolving,
    peel_degree_le1,
)


# where is_tree keeps its answer in a Graph's instance dict
_IS_TREE = "_is_tree"

#: Largest graph :func:`brute_force_md` searches.
BRUTE_FORCE_MAX_N = 14


class IncompatibleMethodError(ValueError):
    """Requested method cannot be applied to the given input."""


def is_tree(g: Graph) -> bool:
    """Connected and acyclic (a single vertex counts).

    A graph of n - 1 edges is a tree iff its component labels are all 0
    (see ``graph._component_labels``). The answer is kept on the immutable
    graph, so a graph pays for at most one labelling, and a graph built from
    a parent array or checked by a :class:`TreeMetric` for none."""
    known = g.__dict__.get(_IS_TREE)
    if known is None:
        known = g.n > 0 and g.m == g.n - 1 and not _component_labels(g).any()
        g.__dict__[_IS_TREE] = known
    return known


def is_path_graph(g: Graph) -> bool:
    """True for a simple path; by convention a single vertex is a path."""
    return is_tree(g) and max(g.degrees()) <= 2


def tree_diameter(g: Graph) -> int:
    """Diameter of a tree via double BFS (undefined on non-trees)."""
    if g.n == 0:
        raise ValueError("empty graph")
    return _double_sweep(g)


class TreeMetric:
    """The hop distances of a tree without the n x n matrix.

    It answers the two reads the labelling helper and the resolving check
    make of a :class:`~relaxmdim.graph.DistanceMatrix` (see
    :class:`~relaxmdim.graph.Metric`), so ``equivalence_partition`` and
    ``is_k_relaxed_resolving`` take either.

    The one rooted walk (``graph._pendant_forest``) from vertex 0 gives the
    preorder, the parents and the depths. It is the tree check: a graph of
    n - 1 edges is a tree iff the walk reaches all n vertices. A non-tree
    raises :class:`IncompatibleMethodError`, and a tree keeps the answer
    for :func:`is_tree`, which then runs no BFS.

    * Profile keys come from T_S, the smallest subtree holding the sensors
      S: two vertices have the same identification vector iff they have the
      same nearest vertex p on T_S and the same distance a to it. (For
      x != y, a sensor leaves them at equal distance iff the x-y path has
      even length and the sensor's projection onto it is the path's
      midpoint z; all of S does iff T_S avoids both branches at z toward x
      and y, which is equal (p, a).) A vertex's key is p * n + a, from two
      passes over the preorder: one counting the sensors in each subtree,
      one assigning the keys, in O(n) time and memory.
    * Block diameters come from a double sweep in each block: the vertex
      farthest from the block's first member is an end of a longest path
      in the block, which holds on any tree metric. A pair's distance is
      depth(u) + depth(v) - 2 depth(lca). For pre(u) < pre(v) the lca's
      depth is one less than the smallest depth over preorder positions
      pre(u) + 1 .. pre(v), a range minimum read from a sparse table in O(1)
      (Bender & Farach-Colton 2000, on the preorder instead of the Euler
      tour). The table takes O(n log n) and is built on the first request.
    """

    def __init__(self, g: Graph) -> None:
        n = g.n
        refusal = "a tree metric needs a connected acyclic graph"
        if g.m != n - 1:  # the empty graph too
            raise IncompatibleMethodError(refusal)
        walk = _pendant_forest(g, [], 0)
        if len(walk.preorder) < n:  # n - 1 edges but disconnected: a cycle elsewhere
            raise IncompatibleMethodError(refusal)
        g.__dict__[_IS_TREE] = True
        self.n = n
        self._preorder = walk.preorder
        self._parent = walk.parent
        self._pre = np.empty(n, dtype=np.intp)
        self._pre[walk.preorder] = np.arange(n)
        self._depth = np.array(walk.depth, dtype=np.intp)

    def profile_keys(self, sensors: Sequence[int]) -> np.ndarray:
        """p * n + a for each vertex, where p is its nearest vertex on the
        sensors' spanning subtree and a its distance to p; the sensors are
        distinct and at least one."""
        n, preorder, parent = self.n, self._preorder, self._parent
        held = [0] * n  # sensors in each subtree
        for v in sensors:
            held[v] = 1
        for v in preorder[:0:-1]:  # children before parents
            held[parent[v]] += held[v]
        # The subtrees holding every sensor are those of a chain from the
        # root down to top, the deepest of them, which is on the spanning
        # subtree; the chain above it projects to top.
        full = [v for v in preorder if held[v] == len(sensors)]
        key = list(range(0, n * n, n))  # a vertex on the subtree is its own p
        top = full[-1]
        for a, v in enumerate(reversed(full)):
            key[v] = top * n + a
        for v in preorder:
            if not held[v]:  # off the subtree, below its parent
                key[v] = key[parent[v]] + 1
        return np.array(key, dtype=np.int64)

    def block_diameters(self, blocks: Sequence[Sequence[int]]) -> np.ndarray:
        """The largest distance within each block, in block order."""
        if not blocks:
            return np.zeros(0, dtype=np.intp)
        members = np.fromiter(chain.from_iterable(blocks), dtype=np.intp)
        sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
        starts = np.zeros(len(blocks), dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        dist = self._distances(np.repeat(members[starts], sizes), members)
        farthest = np.flatnonzero(dist == np.repeat(np.maximum.reduceat(dist, starts), sizes))
        ends = members[farthest[np.searchsorted(farthest, starts)]]
        return np.maximum.reduceat(self._distances(np.repeat(ends, sizes), members), starts)

    def _distances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """d(u[i], v[i]) for every i, through the lca's depth."""
        pu, pv = self._pre[u], self._pre[v]
        hi = np.maximum(pu, pv)
        lo = np.minimum(np.minimum(pu, pv) + 1, hi)  # u == v reads a dummy range
        level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(range length))
        table = self._range_minima
        lca = np.minimum(table[level, lo], table[level, hi - (1 << level) + 1]) - 1
        dist = self._depth[u] + self._depth[v] - 2 * lca
        dist[pu == pv] = 0
        return dist

    @cached_property
    def _range_minima(self) -> np.ndarray:
        """Row j, position i: the smallest depth at preorder positions
        i .. i + 2**j - 1 (zero where that runs past the end)."""
        n = self.n
        dtype = distance_dtype(2 * int(self._depth.max()))  # 2 * lca fits too
        table = np.zeros((max(1, n.bit_length()), n), dtype=dtype)
        table[0] = self._depth[self._preorder]
        for j in range(1, table.shape[0]):
            half = 1 << (j - 1)
            m = n - 2 * half + 1
            np.minimum(table[j - 1, :m], table[j - 1, half : half + m], out=table[j, :m])
        return table


@dataclass(frozen=True)
class RootedTree:
    """A tree with a distinguished root, parents and children oriented away
    from it. ``parent[root] == -1``; children lists are sorted and derived
    from the parents on first read. The graph holds only its CSR arrays."""

    graph: Graph
    root: int
    parent: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's children, ascending, from one pass over the
        parents (in Python: the sampled trees are often tiny, and a few
        array calls would cost more than the pass)."""
        kids: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(v)
        return tuple(map(tuple, kids))

    @classmethod
    def from_graph(cls, g: Graph, root: int = 0) -> "RootedTree":
        if not is_tree(g):
            raise ValueError("input graph is not a tree")
        if not 0 <= root < g.n:
            raise ValueError(f"root {root} out of range")
        return cls(g, root, tuple(_pendant_forest(g, [], root).parent))

    @classmethod
    def from_parents(cls, parents: Sequence[int], root: int = 0) -> "RootedTree":
        """Build from a parent array: ``parents[root] == -1`` and every other
        entry is a vertex id. A list or an integer array; the tree holds
        Python ints either way.

        Raises ValueError unless the array is a tree on all its vertices;
        see :func:`_parent_graph`. No edge set is built.
        """
        parent = np.asarray(parents, dtype=np.intp)
        return cls(_parent_graph(parent, root), root, tuple(parent.tolist()))

    def topo_order(self) -> list[int]:
        """Vertices with every parent before its children (BFS from root)."""
        order = [self.root]
        for u in order:
            order.extend(self.children[u])
        return order


# Parent arrays of fewer vertices than this are checked and turned into a
# graph on Python lists: on a few vertices the dozen array calls of the
# vectorized build cost more than the loops.
_ARRAY_TREE_MIN = 64


def _parent_graph(parent: np.ndarray, root: int) -> Graph:
    """The graph of an integer parent array, ``parent[root] == -1``, known
    to be a tree: :func:`_array_tree`, or :func:`_list_tree` for trees of a
    few vertices, which are often sampled by the thousand. Raises ValueError
    unless the array is a tree on all its vertices."""
    n = parent.size
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    if parent[root] != -1:
        raise ValueError(f"parents[{root}] is {parent[root]}, but the root's parent must be -1")
    g = _array_tree(parent, root) if n >= _ARRAY_TREE_MIN else _list_tree(parent.tolist(), root)
    g.__dict__[_IS_TREE] = True
    return g


def _not_a_vertex(parent: int, v: int, n: int) -> ValueError:
    return ValueError(f"parent {parent} of vertex {v} is not a vertex id for n={n}")


def _cyclic(lost: int, n: int, root: int) -> ValueError:
    return ValueError(
        f"parent array is not a tree: {lost} of {n} vertices "
        f"lie on cycles that never reach root {root}"
    )


def _array_tree(parent: np.ndarray, root: int) -> Graph:
    """The graph of the parent array (root entry -1), or ValueError unless it
    is a tree: :meth:`RootedTree.from_parents` on arrays. With root 0,
    ``parent[v] < v`` for every other v is proof enough; otherwise pointer
    jumping, every vertex's ancestor replaced by that ancestor's ancestor,
    reaches the root from every vertex within log2(n) + 1 rounds exactly
    when the array is a tree. The CSR arrays come from one sort of the
    (parent, child) pair keys."""
    n = parent.size
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    if child.size < n - 1 or (child.size and int(up.max()) >= n):
        outside = np.flatnonzero((parent < 0) | (parent >= n))
        v = int(outside[outside != root][0])
        raise _not_a_vertex(int(parent[v]), v, n)
    if not (root == 0 and bool((up < child).all())):
        ancestor = parent.copy()
        ancestor[root] = root
        for _ in range(n.bit_length()):
            ancestor = ancestor[ancestor]
        lost = int(np.count_nonzero(ancestor != root))
        del ancestor  # before the pair keys are made
        if lost:
            raise _cyclic(lost, n, root)
    return _graph_from_keys(n, _pair_keys(n, up, child))


def _list_tree(parent: list[int], root: int) -> Graph:
    """:func:`_array_tree` on a short parent list, in Python: the tree check
    walks the children from the root, and each adjacency row is the
    children with the parent merged in."""
    n = len(parent)
    kids: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if v != root:
            if not 0 <= p < n:
                raise _not_a_vertex(p, v, n)
            kids[p].append(v)
    reached = [root]
    for u in reached:
        reached.extend(kids[u])
    if len(reached) < n:
        raise _cyclic(n - len(reached), n, root)
    return Graph.from_adjacency([row if p < 0 else sorted((p, *row)) for p, row in zip(parent, kids)])


@dataclass(frozen=True)
class StemResult:
    """Survivors of iterated degree-<=1 pruning, as vertex ids of the input
    graph.

    ``survivors`` ascend; round ``i`` of ``removed_per_round`` holds exactly
    the degree-<=1 vertices of the graph the earlier rounds left, ascending.
    The stem as a graph of its own is ``induced_subgraph(g, survivors)``.
    """

    survivors: tuple[int, ...]
    removed_per_round: tuple[tuple[int, ...], ...]

    @property
    def emptied(self) -> bool:
        return not self.survivors


def stem_r(g: Graph, r: int) -> StemResult:
    """Apply ``r`` rounds of stemming (vertices of degree 0/1 removed each
    round); ``r = 0`` is the identity."""
    if r < 0:
        raise ValueError("stemming rounds must be nonnegative")
    rounds = peel_degree_le1(g, rounds=r)
    return StemResult(tuple(_unpeeled(g.n, rounds)), tuple(map(tuple, rounds)))


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


def _leaf_owners(alive: np.ndarray, degree: np.ndarray, nbr_sum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leaves (ascending) of the graph a peel left (see ``graph._peel``,
    which gives the three arrays: the mask ``alive`` of the vertices left,
    and each one's degree and neighbours' id sum there), and the owner of
    each: the exterior major vertex (degree >= 3 there) that ends its leaf
    path, or -1 for a leaf of a path component. All ids are the input's.

    A leaf's one neighbour is its neighbour sum, and the vertex after a
    degree-2 vertex is the sum less the vertex the walk came from. All the
    walks step together on arrays until fewer than the peel's
    ``_SCALAR_BATCH`` are still going; those few go on in Python, as the
    peel's last rounds do, so the two leaves of a long path walk it in
    linear time.
    """
    leaves = np.flatnonzero((degree == 1) & alive)
    end = np.empty(leaves.size, dtype=np.intp)  # the first vertex of degree != 2
    walks = np.arange(leaves.size)
    prev, cur = leaves, nbr_sum[leaves]
    while walks.size >= _SCALAR_BATCH:
        going = degree[cur] == 2
        done = ~going
        end[walks[done]] = cur[done]
        walks, prev, cur = walks[going], cur[going], nbr_sum[cur[going]] - prev[going]
    # memoryviews read the arrays as Python ints, without a list of them
    degree_of, sum_of = memoryview(degree), memoryview(nbr_sum)
    for i, p, c in zip(walks.tolist(), prev.tolist(), cur.tolist()):
        while degree_of[c] == 2:
            p, c = c, sum_of[c] - p
        end[i] = c
    return leaves, np.where(degree[end] > 2, end, -1)


def _exterior_groups(leaves: np.ndarray, owner: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of exterior major vertices among the leaves' owners, and
    the witness leaves: all but the smallest-id leaf of each owner,
    ascending. One sort by (owner, leaf) puts each owner's leaves together,
    smallest first."""
    major = owner >= 0
    leaves, owner = leaves[major], owner[major]
    order = np.lexsort((leaves, owner))
    owner = owner[order]
    first = np.ones(owner.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    return int(np.count_nonzero(first)), np.sort(leaves[order[~first]])


def count_sigma_ex(g: Graph) -> tuple[int, int]:
    """(number of leaves, number of exterior major vertices) of ``g``.

    An exterior major vertex has degree >= 3 and at least one attached leaf
    path (a chain of degree-2 vertices ending in a leaf).
    """
    leaves, owner = _leaf_owners(*_peel(g, 0))
    return leaves.size, _exterior_groups(leaves, owner)[0]


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
    smaller-id endpoint. One walk of the stem's leaf paths, on the degrees
    and neighbour sums the peel leaves, gives all of it in input ids; the
    peel keeps only its mask and those two arrays.

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
    alive, degree, nbr_sum = _peel(g, min(r, g.n))
    if np.count_nonzero(alive) <= 1 + k % 2:
        return TreeMDReport(k, r, 0, 0, False, 0, ())
    leaves, owner = _leaf_owners(alive, degree, nbr_sum)
    sigma = leaves.size
    ex, witness = _exterior_groups(leaves, owner)
    if ex == 0:
        return TreeMDReport(k, r, sigma, ex, True, 1, (int(leaves[0]),))
    md = sigma - ex
    assert md == witness.size
    return TreeMDReport(k, r, sigma, ex, False, md, tuple(witness.tolist()))


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
    size, so the witness is canonical. Refuses graphs with more than
    BRUTE_FORCE_MAX_N vertices before it reads or computes a distance.
    """
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    if g.n > BRUTE_FORCE_MAX_N:
        raise TooLargeError(
            f"brute-force search refused for n={g.n} > {BRUTE_FORCE_MAX_N} (exponential cost)"
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
