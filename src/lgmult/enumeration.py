"""Isomorph-free enumeration of small connected graphs by canonical deletion.

Every connected graph on n >= 2 vertices has a vertex whose deletion
keeps it connected (a non-cut vertex).  The generator follows McKay's
canonical construction path (B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26 (1998) 306-324): it walks the tree of
connected graphs rooted at the one-vertex graph depth first, joins a
new vertex v to neighbor sets of each node, and keeps the child only if

1. v is a canonical deletable vertex: among the non-cut vertices it is
   least by (degree, sorted neighbor degrees), then by its
   color-refinement cell, then by its rooted canonical key; and
2. v's neighbor set is the first of its orbit under the automorphism
   group of the parent, in the order the sets are tried: by size, then
   lexicographically.

Condition 1 accepts one orbit of the child's vertices, so isomorphic
children that pass it have isomorphic parents, and parents are pairwise
non-isomorphic by induction, so both come from the same parent.  There
an isomorphism that maps v to v restricts to an automorphism of the
parent that maps one neighbor set onto the other, and (2) keeps one.
Ties in (1) are settled by orbits (McKay and Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60 (2014) 94-112): a vertex in
v's orbit under the child's automorphism group shares v's rooted key,
so one search for the group, from the refinement cells, leaves rooted
keys only to ties outside that orbit, and a child that passes hands the
generators it found down to its own children.
One walk gives every order up to n: each graph is yielded before its
children, so the orders interleave, and nothing outlives its parent, so
no level is held in memory.

Two cuts keep the sets tried few (McKay, section 3).  Let delta be the
least degree of a non-cut vertex of the parent.  Such a vertex stays
non-cut in the child unless it is v's one neighbor, so (1) fails when v
has k > delta + 1 neighbors or misses a non-cut parent vertex of degree
k - 1, and only the other sets are tried.  The sets of one orbit are
tried once: the automorphism group's generators come from one search
per parent, and the first set of an orbit marks the rest.  Both cuts
map orbits to orbits, so the stream is the one a walk over every set
would give, keeping the first child of each isomorphism class.

Deleting a non-cut vertex never increases the cyclomatic number, so the
connected graphs with at most ``max_c`` independent cycles are closed
under canonical deletion, and a capped walk only gives the new vertex
at most ``max_c - c + 1`` neighbors.  Trees are ``max_c = 0``.  The
largest order depends on the cap: MAX_ENUM_VERTICES with no cap,
MAX_TREE_VERTICES for trees and MAX_CAPPED_VERTICES otherwise.

Canonical keys and automorphisms come from an individualization-
refinement search: the key is the lexicographically least adjacency
string over the leaf orderings, with twin vertices branched only once.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .graphs import Graph

MAX_ENUM_VERTICES = 10
MAX_TREE_VERTICES = 13
MAX_CAPPED_VERTICES = 11


def _refine(nbrs: list[list[int]], colors: tuple[int, ...]) -> tuple[int, ...]:
    """Iterate neighbor-multiset color refinement to a fixed point.

    A vertex's signature packs its color above the multiset of its
    neighbors' colors, which is held as counts in digits of ``width``
    bits.  The new colors are ranks of sorted signatures, so they refine
    the old colors in the same order and do not depend on the labeling;
    the fixed point is reached when the number of colors stops growing,
    and a discrete coloring is one already."""
    n = len(nbrs)
    width = n.bit_length()
    classes = len(set(colors))
    while classes < n:
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
    return colors


def _leaf_order(colors: tuple[int, ...]) -> list[int]:
    """The vertices in the order of a discrete coloring."""
    return sorted(range(len(colors)), key=colors.__getitem__)


def _leaf_key(adj: tuple[int, ...], order: list[int]) -> bytes:
    """Adjacency upper triangle, a byte per pair, in the given order."""
    return bytes([adj[u] >> w & 1 for i, u in enumerate(order) for w in order[i + 1 :]])


def _node(
    adj: tuple[int, ...], nbrs: list[list[int]], colors: tuple[int, ...]
) -> tuple[list[tuple[int, int]], Iterator[tuple[int, ...]]] | None:
    """One node of the search on the colored graph adj: None at a leaf
    (a discrete coloring), else the twin pairs (u, w) of the target cell
    that are not branched on, u being the branched one, and the refined
    coloring of each child, built lazily.

    The target cell is chosen by cell size then color, which is
    invariant under relabeling.  Vertices of the cell whose
    neighborhoods agree off the pair are swapped by an automorphism that
    fixes every other vertex, so only the first of them is branched on.
    A branch moves its vertex just above the rest of its cell, and the
    later cells up by one."""
    n = len(adj)
    sizes = [0] * (max(colors) + 1)
    for c in colors:
        sizes[c] += 1
    split = [(k, c) for c, k in enumerate(sizes) if k > 1]
    if not split:
        return None
    cell = min(split)[1]
    reps: list[int] = []
    twins: list[tuple[int, int]] = []
    for w in range(n):
        if colors[w] == cell:
            twin = next((u for u in reps if adj[u] & ~(1 << w) == adj[w] & ~(1 << u)), None)
            if twin is None:
                reps.append(w)
            else:
                twins.append((twin, w))

    def children() -> Iterator[tuple[int, ...]]:
        shifted = [c + (c > cell) for c in colors]
        for v in reps:
            shifted[v] = cell + 1
            yield _refine(nbrs, tuple(shifted))
            shifted[v] = cell

    return twins, children()


def _least_leaf(adj: tuple[int, ...], nbrs: list[list[int]], colors: tuple[int, ...]) -> bytes:
    """The least leaf string of the search below colors."""
    node = _node(adj, nbrs, colors)
    if node is None:
        return _leaf_key(adj, _leaf_order(colors))
    return min(_least_leaf(adj, nbrs, child) for child in node[1])


def _canonical(adj: tuple[int, ...], nbrs: list[list[int]], colors: tuple[int, ...]) -> bytes:
    """Canonical byte string of a vertex-colored graph given by bitmask
    rows, their neighbor lists and colors ranked 0..k-1; equal exactly
    for color-preserving isomorphic graphs.

    Every vertex of a target cell but twins is branched on, so the set of
    leaf strings, and hence the least, is an isomorphism invariant.
    Refinement keeps the color order, so every leaf lists the given
    colors in sorted order; that list heads the key, or an edge colored
    (0, 0) and (0, 1) would share one.
    """
    return bytes(sorted(colors)) + _least_leaf(adj, nbrs, _refine(nbrs, colors))


def _find_automorphisms(
    adj: tuple[int, ...],
    nbrs: list[list[int]],
    colors: tuple[int, ...],
    first: list,
    gens: list[tuple[int, ...]],
) -> bool:
    """Whether a leaf below colors equals the first leaf, whose string
    and order ``first`` holds once it is reached; appends to gens the
    automorphisms found on the way."""
    n = len(adj)
    node = _node(adj, nbrs, colors)
    if node is None:
        order = _leaf_order(colors)
        key = _leaf_key(adj, order)
        if not first:
            first += key, order
            return True
        if key != first[0]:
            return False
        p = [0] * n
        for u, w in zip(first[1], order):
            p[u] = w
        gens.append(tuple(p))
        return True
    twins, children = node
    for u, w in twins:
        p = list(range(n))
        p[u], p[w] = w, u
        gens.append(tuple(p))
    on_path = not first
    for child in children:
        if _find_automorphisms(adj, nbrs, child, first, gens) and not on_path:
            return True
    return on_path


def _automorphisms(
    adj: tuple[int, ...], nbrs: list[list[int]], cells: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of the graph adj, as vertex
    maps p (u goes to p[u]), from its refinement cells
    ``_refine(nbrs, (0,) * n)``.

    The search is _canonical's.  A leaf whose string equals the first
    leaf's gives the map from the first leaf's order to its own, and a
    twin pair not branched on gives its transposition (B. D. McKay and
    A. Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60
    (2014) 94-112).  Off the first path, a subtree is left at its first
    such leaf.  That is enough: the stabilizer of a node on the first
    path is generated by the next node's stabilizer and one map from the
    next path vertex to each vertex of its orbit, and the twin-pruned
    subtree of a vertex in that orbit still holds a leaf equal to the
    first, or that vertex is a twin of a branched one."""
    gens: list[tuple[int, ...]] = []
    _find_automorphisms(adj, nbrs, cells, [], gens)
    return gens


def canonical_key(g: Graph) -> bytes:
    """Canonical byte string; equal exactly for isomorphic graphs."""
    adj = [0] * g.vertex_count
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _canonical(tuple(adj), g.adj, (0,) * g.vertex_count)


def _rooted_key(adj: tuple[int, ...], nbrs: list[list[int]], v: int) -> bytes:
    """Canonical key of the graph with v as its one marked vertex."""
    return _canonical(adj, nbrs, tuple(int(w == v) for w in range(len(adj))))


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


def _image(mask: int, p: tuple[int, ...]) -> int:
    """The vertex set mask under the vertex map p."""
    image = 0
    while mask:
        low = mask & -mask
        image |= 1 << p[low.bit_length() - 1]
        mask ^= low
    return image


def _orbit(mask: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The orbit of the vertex set mask under the group gens generate."""
    orbit = {mask}
    frontier = [mask]
    for s in frontier:
        for p in gens:
            t = _image(s, p)
            if t not in orbit:
                orbit.add(t)
                frontier.append(t)
    return orbit


def _is_canonical_deletion(
    adj: tuple[int, ...], nbrs: list[list[int]]
) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Whether the last vertex v is a canonical deletable vertex of the
    connected graph adj with neighbor lists nbrs, and the generators of
    its automorphism group if the test searched for them, else None.

    Cut-ness is tested only for vertices whose cheap invariant is at
    most v's.  If some vertex is still tied with v after the refinement
    cells, one search from those cells gives the automorphism group, and
    a tie in v's orbit shares v's rooted key, so rooted keys are
    computed only for ties outside that orbit."""
    n = len(adj)
    v = n - 1
    degs = [len(nb) for nb in nbrs]

    def cheap(u: int) -> tuple[int, list[int]]:
        return degs[u], sorted([degs[w] for w in nbrs[u]])

    mine = cheap(v)
    ties = []
    for u in range(v):
        if degs[u] > degs[v]:
            continue
        inv = cheap(u)
        if inv > mine or (degs[u] > 1 and _is_cut(adj, u)):
            continue
        if inv < mine:
            return False, None
        ties.append(u)
    if not ties:
        return True, None
    cells = _refine(nbrs, (0,) * n)
    if any(cells[u] < cells[v] for u in ties):
        return False, None
    ties = [u for u in ties if cells[u] == cells[v]]
    if not ties:
        return True, None
    gens = _automorphisms(adj, nbrs, cells)
    orbit = _orbit(1 << v, gens)
    rest = [_rooted_key(adj, nbrs, u) for u in ties if 1 << u not in orbit]
    return not rest or min(rest) >= _rooted_key(adj, nbrs, v), gens


def _walk(
    parent: tuple[int, ...], nbrs: list[list[int]], gens: list[tuple[int, ...]] | None,
    n: int, max_c: int | None,
) -> Iterator[list[list[int]]]:
    """Neighbor lists nbrs of the graph with bitmask rows parent and of
    its descendants on at most n vertices in the canonical-deletion tree
    of connected graphs with cyclomatic number at most max_c (None: no
    cap), depth first, each graph before its children.  gens generate
    Aut(parent), or are None if not yet found.  A child's lists are its
    parent's with the new vertex appended."""
    yield nbrs
    m = len(parent)
    if m == n:
        return
    degs = [len(nb) for nb in nbrs]
    non_cut = [u for u in range(m) if degs[u] <= 1 or not _is_cut(parent, u)]
    top = min(m, min(degs[u] for u in non_cut) + 1)
    if max_c is not None:
        c = sum(degs) // 2 - m + 1
        top = min(top, max_c - c + 1)
    if gens is None:
        gens = _automorphisms(parent, nbrs, _refine(nbrs, (0,) * m))
    tried: set[int] = set()
    new = 1 << m
    for k in range(1, top + 1):
        must = [u for u in non_cut if degs[u] == k - 1]
        if len(must) > k:
            continue
        base = sum(1 << u for u in must)
        free = [u for u in range(m) if not base >> u & 1]
        for extra in combinations(free, k - len(must)):
            mask = base + sum(1 << u for u in extra)
            if mask in tried:
                continue
            tried |= _orbit(mask, gens)
            child = tuple(
                row | new if mask >> u & 1 else row for u, row in enumerate(parent)
            ) + (mask,)
            child_nbrs = [nb + [m] if mask >> u & 1 else nb for u, nb in enumerate(nbrs)]
            child_nbrs.append([u for u in range(m) if mask >> u & 1])
            canonical, child_gens = _is_canonical_deletion(child, child_nbrs)
            if canonical:
                yield from _walk(child, child_nbrs, child_gens, n, max_c)


def _graph(nbrs: list[list[int]]) -> Graph:
    """The Graph of sorted neighbor lists, built directly: they are
    symmetric and loop-free, so the edges need no validation."""
    # from a list: tuple() over a generator grows the tuple by resizing,
    # which left the peak RSS of the n <= 8 walk 1.6 MB higher
    edges = [(u, w) for u, nb in enumerate(nbrs) for w in nb if u < w]
    return Graph(len(nbrs), tuple(edges), tuple(map(tuple, nbrs)))


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
    for nbrs in _walk((0,), [[]], None, n, max_c):
        if len(nbrs) >= smallest:
            yield _graph(nbrs)
