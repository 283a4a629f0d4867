"""Undirected simple graphs with the structural bookkeeping the toolkit needs.

Vertices are 0..n-1, edges are stored as normalized (u, v) pairs with u < v,
and the edge id is the position in the edge list.  Everything downstream
(line graphs, certificates, the verifier) leans on that id stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

# Entries kept by each memo table keyed on a graph (summarize, line_graph,
# char_poly, the squarefree classes, the pendant-cycle decomposition and
# the pendant distances).  The checks of one graph reuse a handful of
# entries, so this covers every reuse while a long sweep's memory stays
# bounded.
GRAPH_CACHE_SIZE = 1024


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class InvalidVertex(GraphError):
    pass


class InvalidEdge(GraphError):
    """Loop edges and other malformed pairs."""


class DuplicateEdge(GraphError):
    pass


class Unreachable(GraphError):
    """Raised by distance() when the endpoints are in different components."""


class Disconnected(GraphError):
    """Raised by operations whose statements assume a connected graph."""


class NotAPendantPath(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.

    Build through build_graph(); the constructor assumes already-validated
    input.  ``adj[v]`` is a sorted tuple of neighbors.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]

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
    major_vertices: tuple[int, ...]
    bridges: tuple[tuple[int, int], ...]
    cut_vertices: tuple[int, ...]
    cyclic_blocks: tuple[tuple[int, ...], ...]
    is_cycle: bool
    is_path: bool
    is_tree: bool


class PendantPath(NamedTuple):
    """Maximal hanging path, listed from the free end toward the attachment."""

    vertices: tuple[int, ...]
    attachment: int


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


def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """Distances from source; None marks unreachable vertices."""
    dist: list[int | None] = [None] * g.vertex_count
    dist[source] = 0
    frontier = [source]
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


def distance(g: Graph, u: int, v: int) -> int:
    """Shortest-path length; raises Unreachable across components."""
    if not (0 <= u < g.vertex_count) or not (0 <= v < g.vertex_count):
        raise InvalidVertex(f"vertex pair ({u}, {v}) out of range")
    d = bfs_distances(g, u)[v]
    if d is None:
        raise Unreachable(f"no path between {u} and {v}")
    return d


def biconnected_blocks(g: Graph) -> list[tuple[int, ...]]:
    """Blocks (maximal biconnected pieces) as sorted vertex tuples, in sorted
    order; an isolated vertex is a block of its own.  One iterative
    low-link traversal per component."""
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    parent_edge = [-1] * n
    # incidence: edge ids per vertex, to skip only the tree edge we came by
    inc: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(g.edges):
        inc[u].append(eid)
        inc[v].append(eid)
    blocks: list[tuple[int, ...]] = []
    estack: list[tuple[int, int]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        if not inc[root]:
            blocks.append((root,))
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(inc[v]):
                stack[-1] = (v, i + 1)
                eid = inc[v][i]
                if eid == parent_edge[v]:
                    continue
                a, b = g.edges[eid]
                w = b if a == v else a
                if disc[w] == -1:
                    estack.append((v, w))
                    parent_edge[w] = eid
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                elif disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        comp: set[int] = set()
                        while estack:
                            x, y = estack.pop()
                            comp.add(x)
                            comp.add(y)
                            if (x, y) == (p, v):
                                break
                        blocks.append(tuple(sorted(comp)))
    blocks.sort()
    return blocks


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def summarize(g: Graph) -> StructureSummary:
    """Connectivity, cyclomatic number, pendant/major vertices, and the
    bridges, cut vertices and cyclic blocks (3+ vertices) read off the blocks.

    The cyclomatic number is |E| - |V| + (number of components), which is the
    usual c(G) whenever the graph is connected.  Results are memoized; Graph
    is immutable so this is safe.
    """
    degs = g.degrees()
    comps = components(g)
    connected = len(comps) <= 1
    c = g.edge_count - g.vertex_count + len(comps)
    pend = tuple(v for v, d in enumerate(degs) if d == 1)
    major = tuple(v for v, d in enumerate(degs) if d >= 3)
    n = g.vertex_count
    # a bridge is a two-vertex block; a cut vertex lies in two or more blocks
    blocks = biconnected_blocks(g)
    in_blocks = [0] * n
    for b in blocks:
        for v in b:
            in_blocks[v] += 1
    is_cycle = connected and n >= 3 and all(d == 2 for d in degs)
    is_path = connected and (n == 1 or (len(pend) == 2 and not major))
    is_tree = connected and c == 0
    return StructureSummary(
        connected=connected,
        cyclomatic=c,
        pendant_count=len(pend),
        pendant_vertices=pend,
        major_vertices=major,
        bridges=tuple(b for b in blocks if len(b) == 2),
        cut_vertices=tuple(v for v in range(n) if in_blocks[v] >= 2),
        cyclic_blocks=tuple(b for b in blocks if len(b) >= 3),
        is_cycle=is_cycle,
        is_path=is_path,
        is_tree=is_tree,
    )


def multiplicity_bound(g: Graph) -> int:
    """2c(G) + p(G) - 1, the bound on every eigenvalue multiplicity of L(G)
    for a connected non-cycle G."""
    s = summarize(g)
    return 2 * s.cyclomatic + s.pendant_count - 1


def pendant_paths(g: Graph) -> list[PendantPath]:
    """All maximal pendant paths of a connected graph.

    Walks from each degree-1 vertex through degree-2 vertices until a vertex
    of degree >= 3; that vertex is the attachment and keeps degree >= 2 after
    the deletion.  Paths and cycles have no attachment, hence no pendant path.
    """
    if not is_connected(g):
        raise Disconnected("pendant_paths needs a connected graph")
    out: list[PendantPath] = []
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
            out.append(PendantPath(tuple(seq), cur))
    out.sort(key=lambda p: p.vertices[0])
    return out


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep`` with dense relabeling; returns old->new map."""
    kept = sorted(set(keep))
    relabel = {old: new for new, old in enumerate(kept)}
    edges = [
        (relabel[u], relabel[v])
        for (u, v) in g.edges
        if u in relabel and v in relabel
    ]
    return build_graph(len(kept), edges), relabel


def delete_pendant_path(g: Graph, p: PendantPath) -> tuple[Graph, dict[int, int]]:
    """Remove a pendant path returned by pendant_paths; ids are compacted."""
    if tuple(p) not in {tuple(q) for q in pendant_paths(g)}:
        raise NotAPendantPath(f"{p!r} is not a maximal pendant path of this graph")
    keep = set(range(g.vertex_count)) - set(p.vertices)
    return induced_subgraph(g, keep)


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Graph minus one edge; vertex ids unchanged, edge ids re-packed."""
    u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    if (u, v) not in g.edges:
        raise InvalidEdge(f"edge {e} not in graph")
    return build_graph(g.vertex_count, [f for f in g.edges if f != (u, v)])
