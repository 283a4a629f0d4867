"""Undirected simple graphs with the structural bookkeeping the toolkit needs.

Vertices are 0..n-1, edges are stored as normalized (u, v) pairs with u < v,
and the edge id is the position in the edge list.  Everything downstream
(line graphs, certificates, the verifier) leans on that id stability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

# Entries kept by each of the four memo tables keyed on a graph:
# graphs.summarize, linegraph.line_graph, spectra.char_poly and
# certify.pendant_cycle_decompose, which holds the recognizer's Shape.  The
# checks of one graph reuse a handful of entries, so this covers every reuse
# while a long sweep's memory stays bounded.
GRAPH_CACHE_SIZE = 1024


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class InvalidVertex(GraphError):
    pass


class InvalidEdge(GraphError):
    """Loop edges and other malformed pairs."""


class DuplicateEdge(GraphError):
    pass


class Disconnected(GraphError):
    """Raised by operations whose statements assume a connected graph."""


class NotAPendantPath(GraphError):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Graph:
    """Immutable simple graph.

    Build through build_graph(); the constructor assumes already-validated
    input.  ``adj[v]`` is a sorted tuple of neighbors.

    Graphs key the memo tables, so the hash of (vertex_count, edges) is
    computed once, at construction.  Equality compares vertex_count and
    edges only: adj is a function of the two.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.vertex_count, self.edges)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]


def build_graph(vertex_count: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Validate and construct a Graph; edge ids follow the input order."""
    if vertex_count < 0:
        raise InvalidVertex(f"negative vertex count {vertex_count}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    nbrs: list[list[int]] = [[] for _ in range(vertex_count)]
    for pair in edge_list:
        u, v = pair
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise InvalidVertex(f"edge {pair} has an endpoint outside 0..{vertex_count - 1}")
        if u == v:
            raise InvalidEdge(f"loop edge at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"edge {e} given twice")
        seen.add(e)
        edges.append(e)
        nbrs[u].append(v)
        nbrs[v].append(u)
    adj = tuple(tuple(sorted(a)) for a in nbrs)
    return Graph(vertex_count, tuple(edges), adj)


@dataclass(frozen=True)
class StructureSummary:
    connected: bool
    cyclomatic: int
    pendant_count: int
    pendant_vertices: tuple[int, ...]
    is_cycle: bool


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.vertex_count
    out: list[list[int]] = []
    for s in range(g.vertex_count):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    return len(components(g)) == 1


def bfs_distances(g: Graph, *sources: int) -> list[int | None]:
    """Distances from the nearest of the sources; None marks the vertices
    no source reaches, and every vertex when no source is given."""
    dist: list[int | None] = [None] * g.vertex_count
    for s in sources:
        dist[s] = 0
    frontier = list(sources)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] is None:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def biconnected_blocks(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Blocks (maximal biconnected pieces) as sorted vertex tuples, in sorted
    order; an isolated vertex is a block of its own.  One iterative low-link
    pass per component (Hopcroft and Tarjan, Algorithm 447), which the
    recognizer, the bridge readers and the line-graph block structure share.
    A frame walks ``g.adj`` and skips the vertex it was reached from: a Graph
    has no loops or repeated edges, so that vertex names the tree edge and no
    edge ids are needed.  A block is a vertex set, so the pass keeps a stack
    of vertices, not of edges: when a child v of p closes a block, the block
    is p with the vertices pushed from v on.  Not memoized: blocks are
    seldom asked for twice."""
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    blocks: list[tuple[int, ...]] = []
    vstack: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        if not g.adj[root]:
            blocks.append((root,))
            continue
        stack = [(root, -1, iter(g.adj[root]))]
        while stack:
            v, p, nbrs = stack[-1]
            for w in nbrs:
                if w == p:
                    continue
                if disc[w] == -1:
                    vstack.append(w)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if p == -1:
                    continue
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    comp = [p]
                    while True:
                        w = vstack.pop()
                        comp.append(w)
                        if w == v:
                            break
                    blocks.append(tuple(sorted(comp)))
    return tuple(sorted(blocks))


def bridges(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The bridges, as the two-vertex blocks, in sorted order."""
    return tuple(b for b in biconnected_blocks(g) if len(b) == 2)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def summarize(g: Graph) -> StructureSummary:
    """Connectivity, the cyclomatic number, the pendant vertices and whether
    g is a cycle, from the degrees and one traversal of the components.

    The cyclomatic number is |E| - |V| + (number of components), which is the
    usual c(G) whenever the graph is connected.  Results are memoized; Graph
    is immutable so this is safe.
    """
    degs = g.degrees()
    n = g.vertex_count
    comps = len(components(g))
    connected = comps <= 1
    pend = tuple(v for v, d in enumerate(degs) if d == 1)
    return StructureSummary(
        connected=connected,
        cyclomatic=g.edge_count - n + comps,
        pendant_count=len(pend),
        pendant_vertices=pend,
        is_cycle=connected and n >= 3 and all(d == 2 for d in degs),
    )


def multiplicity_bound(g: Graph) -> int:
    """2c(G) + p(G) - 1, the bound on every eigenvalue multiplicity of L(G)
    for a connected non-cycle G."""
    s = summarize(g)
    return 2 * s.cyclomatic + s.pendant_count - 1


def pendant_paths(g: Graph) -> list[tuple[int, ...]]:
    """All maximal pendant paths of a connected graph, each listed from its
    free end, in order of the free end.

    Walks from each degree-1 vertex through degree-2 vertices until a vertex
    of degree >= 3; that vertex keeps degree >= 2 after the deletion.  Paths
    and cycles have no such vertex, hence no pendant path.
    """
    if not is_connected(g):
        raise Disconnected("pendant_paths needs a connected graph")
    out: list[tuple[int, ...]] = []
    for leaf in range(g.vertex_count):
        if g.degree(leaf) != 1:
            continue
        seq = [leaf]
        prev, cur = leaf, g.adj[leaf][0]
        while g.degree(cur) == 2:
            seq.append(cur)
            a, b = g.adj[cur]
            prev, cur = cur, (b if a == prev else a)
        if g.degree(cur) >= 3:
            out.append(tuple(seq))
    return out


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Induced subgraph on ``keep``, relabeled densely in vertex order."""
    kept = sorted(set(keep))
    relabel = {old: new for new, old in enumerate(kept)}
    edges = [
        (relabel[u], relabel[v])
        for (u, v) in g.edges
        if u in relabel and v in relabel
    ]
    return build_graph(len(kept), edges)


def delete_pendant_path(g: Graph, p: tuple[int, ...]) -> Graph:
    """Remove a pendant path returned by pendant_paths; ids are compacted."""
    if tuple(p) not in pendant_paths(g):
        raise NotAPendantPath(f"{p!r} is not a maximal pendant path of this graph")
    return induced_subgraph(g, set(range(g.vertex_count)) - set(p))


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Graph minus one edge; vertex ids unchanged, edge ids re-packed."""
    u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    if (u, v) not in g.edges:
        raise InvalidEdge(f"edge {e} not in graph")
    return build_graph(g.vertex_count, [f for f in g.edges if f != (u, v)])
