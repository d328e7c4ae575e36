"""Shared graph builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from relaxmdim import Graph, uniform_tree


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def ladder_graph(rungs: int) -> Graph:
    """Two paths of ``rungs`` vertices (0..rungs-1 and rungs..2*rungs-1)
    joined rung by rung."""
    edges = [(i, i + rungs) for i in range(rungs)]
    edges += [(i, i + 1) for i in range(rungs - 1)]
    edges += [(i + rungs, i + rungs + 1) for i in range(rungs - 1)]
    return Graph.from_edges(2 * rungs, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex r * cols + c at row r, column c."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph.from_edges(rows * cols, edges)


def star_graph(leaves: int) -> Graph:
    """Center 0 with the given number of leaves."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider_graph(leg_lengths: list[int]) -> Graph:
    """Center 0 with one path of each requested length attached."""
    edges = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def full_m_ary_tree(m: int, h: int) -> Graph:
    """Complete m-ary tree of height h, ids assigned level by level."""
    n = (m ** (h + 1) - 1) // (m - 1)
    return Graph.from_edges(n, [((i - 1) // m, i) for i in range(1, n)])


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """A uniform tree plus extra random chords: connected, possibly cyclic."""
    tree = uniform_tree(n, seed)
    rng = np.random.default_rng(seed + 1)
    edges = set(tree.edges())
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 50 * extra_edges + 100:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
        attempts += 1
    return Graph.from_edges(n, sorted(edges))


def unicyclic_graph(n: int, seed: int) -> Graph:
    """A uniform tree with exactly one extra chord."""
    tree = uniform_tree(n, seed)
    rng = np.random.default_rng(seed + 10_000)
    existing = set(tree.edges())
    while True:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in existing:
            return Graph.from_edges(n, sorted(existing | {(u, v)}))


@st.composite
def connected_graphs(draw, max_n: int = 60):
    """A random tree, unicyclic graph or sparse connected graph."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    kind = draw(st.sampled_from(("tree", "unicyclic", "sparse")))
    chords = {"tree": 0, "unicyclic": 1, "sparse": draw(st.integers(0, n // 4))}[kind]
    for _ in range(chords if n >= 3 else 0):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


@st.composite
def random_trees(draw, max_n: int = 60):
    """A random tree whose vertex ids are shuffled, so ids carry no depth."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(ids[draw(st.integers(0, v - 1))], ids[v]) for v in range(1, n)])


@st.composite
def sparse_graphs(draw, max_n: int = 60):
    """At most n/2 random edges on n vertices: usually disconnected, with
    isolated vertices."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2))
    return Graph.from_edges(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))


@st.composite
def bipartite_graphs(draw, max_n: int = 60):
    """A random tree, a grid or an even cycle: connected and bipartite."""
    kind = draw(st.sampled_from(("tree", "grid", "even-cycle")))
    if kind == "tree":
        return draw(random_trees(max_n))
    if kind == "grid":
        rows = draw(st.integers(1, 7))
        return grid_graph(rows, draw(st.integers(1, max(1, max_n // rows))))
    return cycle_graph(2 * draw(st.integers(2, max_n // 2)))
