"""Isomorph-free enumeration of small connected graphs by canonical deletion.

Every connected graph on n >= 2 vertices has a vertex whose deletion
keeps it connected (a non-cut vertex).  The generator follows McKay's
canonical construction path (B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26 (1998) 306-324): it walks the tree of
connected graphs rooted at the one-vertex graph depth first, joins a
new vertex v to every nonempty neighbor set of each node, and keeps the
child only if

1. v is a canonical deletable vertex: among the non-cut vertices it is
   least by (degree, sorted neighbor degrees), then by its
   color-refinement cell, then by its rooted canonical key; and
2. the child rooted at v is new among the accepted children of this
   parent.

Isomorphic children that pass (1) have isomorphic parents, and parents
are pairwise non-isomorphic by induction, so both come from the same
parent, where (2) keeps one.  One walk gives every order up to n: each
graph is yielded before its children, so the orders interleave, and
nothing outlives its parent, so no level is held in memory.

Deleting a non-cut vertex never increases the cyclomatic number, so the
connected graphs with at most ``max_c`` independent cycles are closed
under canonical deletion, and a capped walk only gives the new vertex
at most ``max_c - c + 1`` neighbors.  Trees are ``max_c = 0``.  The
largest order depends on the cap: MAX_ENUM_VERTICES with no cap,
MAX_TREE_VERTICES for trees and MAX_CAPPED_VERTICES otherwise.

Canonical keys come from an individualization-refinement search: the
lexicographically least adjacency string over the leaf orderings,
with twin vertices branched only once.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .graphs import Graph, build_graph

MAX_ENUM_VERTICES = 10
MAX_TREE_VERTICES = 13
MAX_CAPPED_VERTICES = 11


def _neighbors(adj: tuple[int, ...]) -> list[list[int]]:
    """Neighbor lists of bitmask rows."""
    n = len(adj)
    return [[w for w in range(n) if row >> w & 1] for row in adj]


def _refine(nbrs: list[list[int]], colors: tuple[int, ...]) -> tuple[int, ...]:
    """Iterate neighbor-multiset color refinement to a fixed point.

    A vertex's signature packs its color above the multiset of its
    neighbors' colors, which is held as counts in digits of ``width``
    bits.  The new colors are ranks of sorted signatures, so they refine
    the old colors in the same order and do not depend on the labeling;
    the fixed point is reached when the number of colors stops growing."""
    n = len(nbrs)
    width = n.bit_length()
    classes = len(set(colors))
    while True:
        digit = [1 << width * c for c in colors]
        signatures = [
            sum(map(digit.__getitem__, nb), c << width * n)
            for c, nb in zip(colors, nbrs)
        ]
        distinct = sorted(set(signatures))
        if len(distinct) == classes:
            return colors
        ranks = {s: i for i, s in enumerate(distinct)}
        colors = tuple([ranks[s] for s in signatures])
        classes = len(distinct)


def _leaf_key(adj: tuple[int, ...], colors: tuple[int, ...]) -> bytes:
    """Adjacency upper triangle, a byte per pair, under the discrete
    color order."""
    order = sorted(range(len(adj)), key=colors.__getitem__)
    return bytes([adj[u] >> w & 1 for i, u in enumerate(order) for w in order[i + 1 :]])


def _canonical(adj: tuple[int, ...], colors: tuple[int, ...]) -> bytes:
    """Canonical byte string of a vertex-colored graph given by bitmask
    rows and colors ranked 0..k-1; equal exactly for color-preserving
    isomorphic graphs.

    The target cell at each node of the search is chosen by cell size
    then color, which is invariant under relabeling, and every vertex of
    the cell is branched on, so the set of leaf orderings (and hence the
    minimum leaf string) is an isomorphism invariant.  Vertices of a
    cell whose neighborhoods agree off the pair are swapped by an
    automorphism and explored once.  Refinement keeps the color order,
    so every leaf lists the given colors in sorted order; that list
    heads the key, or an edge colored (0, 0) and (0, 1) would share one.
    """
    n = len(adj)
    nbrs = _neighbors(adj)
    best: bytes | None = None

    def search(colors: tuple[int, ...]) -> None:
        nonlocal best
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        split = [(k, c) for c, k in enumerate(sizes) if k > 1]
        if not split:
            key = _leaf_key(adj, colors)
            if best is None or key < best:
                best = key
            return
        cell = min(split)[1]
        reps: list[int] = []
        for v in range(n):
            if colors[v] == cell and all(
                adj[u] & ~(1 << v) != adj[v] & ~(1 << u) for u in reps
            ):
                reps.append(v)
        # v moves just above the rest of its cell, later cells up by one
        shifted = [c + (c > cell) for c in colors]
        for v in reps:
            shifted[v] = cell + 1
            search(_refine(nbrs, tuple(shifted)))
            shifted[v] = cell

    search(_refine(nbrs, colors))
    return bytes(sorted(colors)) + best


def canonical_key(g: Graph) -> bytes:
    """Canonical byte string; equal exactly for isomorphic graphs."""
    adj = [0] * g.vertex_count
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _canonical(tuple(adj), (0,) * g.vertex_count)


def _rooted_key(adj: tuple[int, ...], v: int) -> bytes:
    """Canonical key of the graph with v as its one marked vertex."""
    return _canonical(adj, tuple(int(w == v) for w in range(len(adj))))


def _is_cut(adj: tuple[int, ...], v: int) -> bool:
    """Whether deleting v disconnects the connected graph adj."""
    rest = (1 << len(adj)) - 1 & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & rest & ~seen
        seen |= new
        frontier |= new
    return seen != rest


def _deletion_key(adj: tuple[int, ...]) -> bytes | None:
    """The rooted key at the last vertex v if v is a canonical deletable
    vertex of the connected graph adj, else None.

    Cut-ness is tested only for vertices whose cheap invariant is at
    most v's, and rooted keys are computed only for those still tied
    with v after the refinement cells."""
    n = len(adj)
    v = n - 1
    degs = [row.bit_count() for row in adj]

    def cheap(u: int) -> tuple[int, list[int]]:
        row = adj[u]
        return degs[u], sorted([degs[w] for w in range(n) if row >> w & 1])

    mine = cheap(v)
    ties = []
    for u in range(v):
        if degs[u] > degs[v]:
            continue
        inv = cheap(u)
        if inv > mine or (degs[u] > 1 and _is_cut(adj, u)):
            continue
        if inv < mine:
            return None
        ties.append(u)
    if ties:
        cells = _refine(_neighbors(adj), (0,) * n)
        if any(cells[u] < cells[v] for u in ties):
            return None
        ties = [u for u in ties if cells[u] == cells[v]]
    key = _rooted_key(adj, v)
    if any(_rooted_key(adj, u) < key for u in ties):
        return None
    return key


def _walk(parent: tuple[int, ...], n: int, max_c: int | None) -> Iterator[tuple[int, ...]]:
    """Bitmask rows of parent and of its descendants on at most n
    vertices in the canonical-deletion tree of connected graphs with
    cyclomatic number at most max_c (None: no cap), depth first, each
    graph before its children."""
    yield parent
    m = len(parent)
    if m == n:
        return
    new = 1 << m
    top = m
    if max_c is not None:
        c = sum(row.bit_count() for row in parent) // 2 - m + 1
        top = min(top, max_c - c + 1)
    seen: set[bytes] = set()
    for k in range(1, top + 1):
        for subset in combinations(range(m), k):
            mask = sum(1 << u for u in subset)
            child = tuple(
                row | new if mask >> u & 1 else row for u, row in enumerate(parent)
            ) + (mask,)
            key = _deletion_key(child)
            if key is not None and key not in seen:
                seen.add(key)
                yield from _walk(child, n, max_c)


def _graph(adj: tuple[int, ...]) -> Graph:
    return build_graph(
        len(adj),
        [(u, w) for u, nb in enumerate(_neighbors(adj)) for w in nb if u < w],
    )


def enumerate_connected(
    n: int, max_c: int | None = None, smallest: int | None = None
) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on
    smallest..n vertices (smallest defaults to n) with cyclomatic number
    at most max_c (None: no cap; trees are max_c = 0).

    The graphs come in walk order: the orders interleave, and a graph
    comes after its parent, the graph without its last vertex.  An empty
    range, smallest > n, yields nothing whatever n is."""
    if max_c is not None and max_c < 0:
        raise ValueError(f"max_c must be nonnegative, got {max_c}")
    smallest = n if smallest is None else smallest
    if smallest > n:
        return
    limit = {None: MAX_ENUM_VERTICES, 0: MAX_TREE_VERTICES}.get(max_c, MAX_CAPPED_VERTICES)
    if not (1 <= n <= limit):
        raise ValueError(f"enumeration covers 1..{limit} vertices at max_c={max_c}, got {n}")
    for adj in _walk((0,), n, max_c):
        if len(adj) >= smallest:
            yield _graph(adj)
