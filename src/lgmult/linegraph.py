"""Line graphs and the block vocabulary of line graphs of trees.

The line graph has one vertex per edge of the base graph, with adjacency
exactly when two base edges share an endpoint.  For a tree T, L(T) is a
block graph: every block is a clique, every cutpoint lies in exactly two
blocks, and the vertices corresponding to pendant edges of T are the
external vertices.  The certifier's tree conditions are phrased through
distances between vertices and blocks of L(T), so ``block_structure``
computes those too: one multi-source BFS out of each major block gives
every distance the classification and the conditions read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    Graph,
    GraphError,
    bfs_distances,
    biconnected_blocks,
    build_graph,
    is_connected,
    Disconnected,
    GRAPH_CACHE_SIZE,
)


class EmptyGraph(GraphError):
    """The line graph of an edgeless graph has no vertices."""


@dataclass(frozen=True)
class LineGraphMap:
    """L(G) for the G given to ``line_graph``; line vertex i is edge i of G."""

    line: Graph


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def line_graph(g: Graph) -> LineGraphMap:
    """Construct L(g); raises EmptyGraph when g has no edges."""
    m = g.edge_count
    if m == 0:
        raise EmptyGraph("line graph needs at least one base edge")
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for eid, (u, v) in enumerate(g.edges):
        incident[u].append(eid)
        incident[v].append(eid)
    line_edges: set[tuple[int, int]] = set()
    for ids in incident:
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = ids[i], ids[j]
                line_edges.add((a, b) if a < b else (b, a))
    return LineGraphMap(line=build_graph(m, sorted(line_edges)))


@dataclass(frozen=True)
class BlockStructure:
    """Biconnected decomposition with the tree-condition vocabulary.

    Blocks are vertex tuples sorted internally and listed by smallest
    member.  A vertex lying in two or more blocks is internal, otherwise
    external.  Major blocks have >= 3 vertices; a major block of order s
    counts as external when at least s-1 external vertices have it among
    their nearest major blocks (ties all count), or when it is the only
    major block.  The distances the tree conditions read are kept as sets:
    d(v, B) for every external vertex v and external block B, and the
    least distance between every two distinct major blocks.
    """

    major_blocks: tuple[tuple[int, ...], ...]
    external_vertices: tuple[int, ...]
    external_blocks: tuple[tuple[int, ...], ...]
    vertex_block_distances: frozenset[int]
    block_block_distances: frozenset[int]


def block_structure(lt: Graph) -> BlockStructure:
    """Blocks of a connected graph plus the major/external classification,
    from one multi-source BFS out of each major block."""
    if not is_connected(lt):
        raise Disconnected("block structure is defined here for connected graphs")
    blocks = biconnected_blocks(lt)
    containing: list[int] = [0] * lt.vertex_count
    for b in blocks:
        for v in b:
            containing[v] += 1
    external = tuple(v for v in range(lt.vertex_count) if containing[v] <= 1)
    major = tuple(b for b in blocks if len(b) >= 3)
    # to_block[i][v] = d(v, major[i])
    to_block = [bfs_distances(lt, *b) for b in major]
    ext = list(range(len(major)))
    if len(major) > 1:
        # how many external vertices have each major block among their nearest
        nearest = [0] * len(major)
        for v in external:
            best = min(d[v] for d in to_block)
            for i, d in enumerate(to_block):
                nearest[i] += d[v] == best
        ext = [i for i in ext if nearest[i] >= len(major[i]) - 1]
    return BlockStructure(
        major_blocks=major,
        external_vertices=external,
        external_blocks=tuple(major[i] for i in ext),
        vertex_block_distances=frozenset(to_block[i][v] for i in ext for v in external),
        block_block_distances=frozenset(
            min(to_block[i][u] for u in major[j]) for i in range(len(major)) for j in range(i)
        ),
    )
