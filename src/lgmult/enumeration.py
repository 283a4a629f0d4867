"""Isomorphism-free enumeration of small connected graphs.

Graphs are generated by vertex augmentation: every connected graph on
n vertices arises from a connected graph on n-1 vertices by adding one
vertex joined to a nonempty neighbor set, because every connected graph
has a vertex whose removal keeps it connected.  Duplicates are rejected
through a canonical form: the lexicographically least adjacency
bitstring over the leaf orderings of an individualization-refinement
search, with twin vertices branched only once.

The same machinery serves the capped generators: deleting a non-cut
vertex never increases the cyclomatic number, so connected graphs with
at most ``max_c`` independent cycles are closed under the augmentation
when the new vertex gets at most ``max_c - c + 1`` neighbors.  Trees
(``max_c = 0``) refine quickly enough that 13 vertices stay cheap.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .graphs import Graph, build_graph

MAX_ENUM_VERTICES = 10
MAX_TREE_VERTICES = 13
MAX_CAPPED_VERTICES = 11

#: Connected simple graphs per vertex count, used as enumeration fixtures.
CONNECTED_COUNTS = {
    1: 1,
    2: 1,
    3: 2,
    4: 6,
    5: 21,
    6: 112,
    7: 853,
    8: 11117,
}

#: Isomorphism classes of trees per vertex count.
TREE_COUNTS = {
    1: 1,
    2: 1,
    3: 1,
    4: 2,
    5: 3,
    6: 6,
    7: 11,
    8: 23,
    9: 47,
    10: 106,
    11: 235,
    12: 551,
    13: 1301,
}

#: Connected graphs with exactly one independent cycle, per vertex count.
UNICYCLIC_COUNTS = {
    3: 1,
    4: 2,
    5: 5,
    6: 13,
    7: 33,
    8: 89,
    9: 240,
    10: 657,
    11: 1806,
}


def _refine(adj: tuple[int, ...], colors: tuple[int, ...]) -> tuple[int, ...]:
    """Iterate neighbor-multiset color refinement to a fixed point."""
    n = len(adj)
    while True:
        signatures = []
        for v in range(n):
            mask = adj[v]
            nb = []
            while mask:
                low = mask & -mask
                nb.append(colors[low.bit_length() - 1])
                mask ^= low
            nb.sort()
            signatures.append((colors[v], tuple(nb)))
        ranks = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new = tuple(ranks[s] for s in signatures)
        if new == colors:
            return colors
        colors = new


def _leaf_key(adj: tuple[int, ...], colors: tuple[int, ...]) -> bytes:
    """Adjacency upper triangle packed under the discrete color order."""
    n = len(adj)
    order = sorted(range(n), key=colors.__getitem__)
    bits = 0
    count = 0
    for i in range(n):
        row = adj[order[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | ((row >> order[j]) & 1)
            count += 1
    return bytes([n]) + bits.to_bytes((count + 7) // 8 or 1, "big")


def canonical_key(g: Graph) -> bytes:
    """Canonical byte string; equal exactly for isomorphic graphs.

    Runs an individualization-refinement search.  The target cell at
    each node is chosen by cell size then color, which is invariant
    under relabeling, and every vertex of the cell is branched on, so
    the set of leaf orderings (and hence the minimum leaf string) is
    an isomorphism invariant.  Vertices of a cell whose neighborhoods
    agree off the pair are swapped by an automorphism and explored
    once.
    """
    n = g.vertex_count
    if n == 0:
        return b"\x00"
    adj_list = [0] * n
    for u, v in g.edges:
        adj_list[u] |= 1 << v
        adj_list[v] |= 1 << u
    adj = tuple(adj_list)

    best: bytes | None = None

    def search(colors: tuple[int, ...]) -> None:
        nonlocal best
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for color in sorted(cells):
            cell = cells[color]
            if len(cell) > 1 and (
                target is None or len(cell) < len(target)
            ):
                target = cell
        if target is None:
            key = _leaf_key(adj, colors)
            if best is None or key < best:
                best = key
            return
        reps: list[int] = []
        for v in target:
            for u in reps:
                if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                    break
            else:
                reps.append(v)
        for v in reps:
            bumped = tuple(
                (colors[w], 1 if w == v else 0) for w in range(n)
            )
            ranks = {s: i for i, s in enumerate(sorted(set(bumped)))}
            search(_refine(adj, tuple(ranks[s] for s in bumped)))

    search(_refine(adj, (0,) * n))
    if best is None:
        raise AssertionError("canonical search reached no leaf")
    return best


def _augment(parent: Graph, sizes: range) -> Iterator[Graph]:
    """All extensions of parent by one new vertex with a neighbor set."""
    n = parent.vertex_count
    for k in sizes:
        for subset in combinations(range(n), k):
            edges = list(parent.edges) + [(v, n) for v in subset]
            yield build_graph(n + 1, edges)


@lru_cache(maxsize=None)
def _connected_level(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (build_graph(1, []),)
    found: dict[bytes, Graph] = {}
    for parent in _connected_level(n - 1):
        for g in _augment(parent, range(1, n)):
            key = canonical_key(g)
            if key not in found:
                found[key] = g
    return tuple(found[k] for k in sorted(found))


@lru_cache(maxsize=None)
def _capped_level(n: int, max_c: int) -> tuple[Graph, ...]:
    if n == 1:
        return (build_graph(1, []),)
    found: dict[bytes, Graph] = {}
    for parent in _capped_level(n - 1, max_c):
        c = parent.edge_count - parent.vertex_count + 1
        top = min(parent.vertex_count, max_c - c + 1)
        for g in _augment(parent, range(1, top + 1)):
            key = canonical_key(g)
            if key not in found:
                found[key] = g
    return tuple(found[k] for k in sorted(found))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs."""
    if not (1 <= n <= MAX_ENUM_VERTICES):
        raise ValueError(
            f"built-in enumeration covers 1..{MAX_ENUM_VERTICES} vertices,"
            f" got {n}; ingest a graph6 file for larger orders"
        )
    yield from _connected_level(n)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees."""
    if not (1 <= n <= MAX_TREE_VERTICES):
        raise ValueError(
            f"tree enumeration covers 1..{MAX_TREE_VERTICES} vertices, got {n}"
        )
    yield from _capped_level(n, 0)


def enumerate_capped(n: int, max_c: int) -> Iterator[Graph]:
    """Connected graphs with cyclomatic number at most max_c."""
    if max_c < 0:
        raise ValueError(f"max_c must be nonnegative, got {max_c}")
    limit = MAX_TREE_VERTICES if max_c == 0 else MAX_CAPPED_VERTICES
    if not (1 <= n <= limit):
        raise ValueError(
            f"capped enumeration covers 1..{limit} vertices at"
            f" max_c={max_c}, got {n}"
        )
    yield from _capped_level(n, max_c)
