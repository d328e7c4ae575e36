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
from itertools import combinations
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
    _jump,
    _peel,
    _unpeeled,
    all_pairs_distances,
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
    a parent array or checked by a :class:`TreeMetric` or
    :func:`tree_diameter` for none."""
    known = g.__dict__.get(_IS_TREE)
    if known is None:
        known = g.n > 0 and g.m == g.n - 1 and not _component_labels(g).any()
        g.__dict__[_IS_TREE] = known
    return known


def is_path_graph(g: Graph) -> bool:
    """True for a simple path; by convention a single vertex is a path."""
    return is_tree(g) and max(g.degrees()) <= 2


def tree_diameter(g: Graph) -> int:
    """Diameter of a tree, from its peel (see :func:`_peeled_diameter`); a
    graph that is not a tree raises :class:`IncompatibleMethodError`."""
    if g.n == 0:
        raise ValueError("empty graph")
    return _peeled_diameter(g, "tree_diameter requires a connected acyclic input")


def _peeled_diameter(g: Graph, refusal: str) -> int:
    """The diameter of a tree from the peel to the fixpoint
    (``graph._peel``): 2R - 2 after R rounds, plus 1 if the last round
    removed two vertices. The peel is the tree check: a graph of n - 1
    edges is a tree iff the peel removes every vertex, since a cycle is
    never peeled. Anything else raises :class:`IncompatibleMethodError`
    with ``refusal``, and a tree keeps the answer for :func:`is_tree`,
    which then labels no components."""
    if g.m != g.n - 1:  # the empty graph too
        raise IncompatibleMethodError(refusal)
    removed_in = _peel(g, None)[0]
    if not removed_in.all():  # n - 1 edges but disconnected: a cycle elsewhere
        raise IncompatibleMethodError(refusal)
    g.__dict__[_IS_TREE] = True
    last = int(removed_in.max())
    return 2 * last - 2 + int(np.count_nonzero(removed_in == last) == 2)


class TreeMetric:
    """The hop distances of a tree without the n x n matrix.

    It answers the two reads the labelling helper and the resolving check
    make of a :class:`~relaxmdim.graph.DistanceMatrix` (see
    :class:`~relaxmdim.graph.Metric`), so ``equivalence_partition`` and
    ``is_k_relaxed_resolving`` take either.

    Each read is one peel (``graph._peel``), and the constructor's is the
    tree check (see :func:`_peeled_diameter`).

    * Profile keys come from T_S, the smallest subtree holding the sensors
      S: two vertices have the same identification vector iff they have the
      same nearest vertex p on T_S and the same distance a to it. (For
      x != y, a sensor leaves them at equal distance iff the x-y path has
      even length and the sensor's projection onto it is the path's
      midpoint z; all of S does iff T_S avoids both branches at z toward x
      and y, which is equal (p, a).) A peel that never removes a sensor
      leaves T_S, and removes every other vertex toward its parent, the
      neighbour it hung from. A vertex's key is p * n + a: pointer jumping
      (Shiloach & Vishkin 1982) follows the parents to T_S and adds up the
      steps, in O(log n) array rounds and O(n) memory.
    * The widest block comes from branch heights. Peel the tree without
      ever removing a sensor: T_S is what is left, and a vertex off it
      removed in round r heads a branch of height r - 1 hanging toward its
      parent, the neighbour it was removed from. Two vertices of one block
      hang off T_S at p at distance a; if their paths part at z, they are
      2 (a - d(p, z)) apart, and a branch of height H holds a vertex at
      every depth up to H. So the widest block is 2 h2, h2 the largest
      second-largest removal round among the children of one vertex.
    """

    def __init__(self, g: Graph) -> None:
        self._diameter = _peeled_diameter(g, "a tree metric needs a connected acyclic graph")
        self.n = g.n
        self._graph = g

    def profile_keys(self, sensors: Sequence[int]) -> np.ndarray:
        """p * n + a for each vertex, where p is its nearest vertex on the
        sensors' spanning subtree and a its distance to p; the sensors are
        distinct. A vertex on the subtree is its own p, at a = 0; every
        other one starts at its parent, one step away, and each jump adds
        the steps of the vertex jumped to. No sensors leave no subtree, and
        every vertex the same empty vector: n equal int64 keys."""
        if len(sensors) == 0:
            return np.zeros(self.n, dtype=np.int64)
        removed_in, up = _peel(self._graph, None, sensors)[::2]
        off = removed_in > 0
        del removed_in
        up[~off] = np.flatnonzero(~off)
        a = off.astype(np.int32)
        _jump(up, np.flatnonzero(off), a)
        up *= self.n
        up += a
        return up

    def widest_block(self, sensors: Sequence[int]) -> int:
        """The largest distance between two vertices with the same
        identification vector: the diameter for no sensors, else 2 h2.
        Sorting the removed vertices by (parent, round) puts each vertex's
        children together, latest last; a child followed by a sibling is
        one a sibling outlasts, and h2 is the latest such round."""
        if len(sensors) == 0:
            return self._diameter
        removed_in, _, parent = _peel(self._graph, None, sensors)
        removed = removed_in > 0
        shift = int(removed_in.max()).bit_length()
        key = parent[removed] << shift
        key |= removed_in[removed]
        key.sort()
        outlasted = (key[1:] ^ key[:-1]) < (1 << shift)  # the same parent next
        key &= (1 << shift) - 1  # the rounds
        return 2 * int(key[:-1][outlasted].max(initial=0))


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
        # with the root pinned, every other vertex's neighbour sum is its parent
        parent = _peel(g, None, [root])[2]
        parent[root] = -1
        return cls(g, root, tuple(parent.tolist()))

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
    jumping (``graph._jump``), every vertex's ancestor replaced by that
    ancestor's ancestor, reaches the root from every vertex within
    log2(n) + 1 rounds exactly when the array is a tree. The CSR arrays
    come from one sort of the (parent, child) pair keys."""
    n = parent.size
    child = np.flatnonzero(parent >= 0)
    if child.size < n - 1 or int(parent.max()) >= n:
        outside = np.flatnonzero((parent < 0) | (parent >= n))
        v = int(outside[outside != root][0])
        raise _not_a_vertex(int(parent[v]), v, n)
    if not (root == 0 and bool((parent[child] < child).all())):
        ancestor = parent.copy()
        ancestor[root] = root
        _jump(ancestor, child, rounds=n.bit_length())
        lost = int(np.count_nonzero(ancestor != root))
        del ancestor  # before the pair keys are made
        if lost:
            raise _cyclic(lost, n, root)
    return _graph_from_keys(n, _pair_keys(n, parent[child], child))


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


def _subtree_heights(t: RootedTree) -> np.ndarray:
    """Height of every vertex's downward subtree (0 for a childless vertex),
    as an int32 array: the peel that pins the root removes every other
    vertex in the round after its tallest child's, or in round 1, and the
    root's height is the last round."""
    height = _peel(t.graph, None, [t.root])[0] - 1
    height[t.root] = height.max() + 1
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
    survives = _subtree_heights(t) >= r
    survives[t.root] = True
    return tuple(np.flatnonzero(survives).tolist())


def _leaf_owners(removed_in: np.ndarray, degree: np.ndarray, nbr_sum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leaves (ascending) of the graph a peel left (see ``graph._peel``,
    which gives the three arrays: the round that removed each vertex, 0 for
    the vertices left, and each one's degree and neighbours' id sum there),
    and the owner of each: the exterior major vertex (degree >= 3 there)
    that ends its leaf path, or -1 for a leaf of a path component. All ids
    are the input's.

    A leaf's one neighbour is its neighbour sum, and the vertex after a
    degree-2 vertex is the sum less the vertex the walk came from. All the
    walks step together on arrays until fewer than the peel's
    ``_SCALAR_BATCH`` are still going; those few go on in Python, as the
    peel's last rounds do, so the two leaves of a long path walk it in
    linear time.
    """
    leaves = np.flatnonzero((degree == 1) & (removed_in == 0))
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
    peel keeps only its removal rounds and those two arrays.

    The r-stem of a tree of diameter D has diameter D - 2r, or is empty, so
    k >= D (and md = 0) exactly when the stem has at most 1 + k % 2
    vertices; the tree check, kept on the graph, is the only component
    labelling. The tree is gone after n rounds, so the stem is taken at
    min(r, n) of them.
    """
    if k < 0:
        raise ValueError("relaxation parameter k must be nonnegative")
    if not is_tree(g):
        raise IncompatibleMethodError("exact_tree_md requires a connected acyclic input")
    r = k // 2
    removed_in, degree, nbr_sum = _peel(g, min(r, g.n))
    if g.n - np.count_nonzero(removed_in) <= 1 + k % 2:
        return TreeMDReport(k, r, 0, 0, False, 0, ())
    leaves, owner = _leaf_owners(removed_in, degree, nbr_sum)
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
    subtree height is at least i, so both properties reduce to one pass over
    the vertices in ascending height, every child before its parent.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = t.n
    height = _subtree_heights(t).tolist()
    surviving = [
        [c for c in t.children[v] if height[c] >= r] for v in range(n)
    ]
    line_down = [False] * n
    for v in sorted(range(n), key=height.__getitem__):
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
