import math

import pytest
from hypothesis import given, settings

from conftest import cut_vertices, cycle, is_path, path, spider, star
from lgmult.enumeration import canonical_key, enumerate_connected
from lgmult.graphs import GraphError, bfs_distances, biconnected_blocks, build_graph, summarize
from lgmult.linegraph import (
    EmptyGraph,
    NoSecondBlock,
    block_block_distance,
    block_structure,
    line_graph,
)
from test_graphs import connected_graphs


def vertex_block_distance(lt, v, b):
    return min(bfs_distances(lt, v)[u] for u in b)


def test_line_graph_of_path_and_cycle():
    m = line_graph(path(4))
    assert is_path(m.line) and m.line.vertex_count == 3
    m = line_graph(cycle(5))
    assert summarize(m.line).is_cycle and m.line.vertex_count == 5


def test_line_graph_of_star_is_triangle():
    m = line_graph(star(3))
    assert m.line.vertex_count == 3 and m.line.edge_count == 3


def test_line_graph_adjacency_is_shared_endpoint():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    m = line_graph(g)
    for u in range(m.line.vertex_count):
        for v in range(u + 1, m.line.vertex_count):
            e, f = g.edges[u], g.edges[v]  # line vertex i is base edge i
            shares = len(set(e) & set(f)) == 1
            assert m.line.has_edge(u, v) == shares


def test_line_graph_rejects_edgeless():
    with pytest.raises(EmptyGraph):
        line_graph(build_graph(3, []))


def test_line_graph_isomorphism_families():
    for n in range(3, 51):
        assert canonical_key(line_graph(cycle(n)).line) == canonical_key(cycle(n))
    for n in range(3, 51):
        assert canonical_key(line_graph(path(n)).line) == canonical_key(path(n - 1))


def test_block_structure_triangle():
    lt = line_graph(star(3)).line
    bs = block_structure(lt)
    assert len(biconnected_blocks(lt)) == 1
    assert bs.major_blocks == bs.external_blocks == biconnected_blocks(lt)
    assert sorted(bs.external_vertices) == [0, 1, 2]


def test_block_structure_spider_legs_two():
    lt = line_graph(spider(3, 2)).line
    bs = block_structure(lt)
    majors = [b for b in bs.major_blocks]
    assert len(majors) == 1 and len(majors[0]) == 3
    assert len(bs.external_vertices) == 3
    for v in bs.external_vertices:
        assert vertex_block_distance(lt, v, majors[0]) == 1


def test_block_structure_path_has_no_major_block():
    lt = line_graph(path(5)).line
    bs = block_structure(lt)
    assert list(bs.major_blocks) == []
    assert all(len(b) == 2 for b in biconnected_blocks(lt))


def test_vertex_block_distance_long_leg():
    lt = line_graph(spider(3, 5)).line
    bs = block_structure(lt)
    (major,) = bs.major_blocks
    assert max(vertex_block_distance(lt, v, major) for v in bs.external_vertices) == 4
    for v in major:
        assert vertex_block_distance(lt, v, major) == 0


def test_block_block_distance_examples():
    # double spider: two degree-3 centers joined by a three-edge path
    g = build_graph(
        8,
        [(0, 1), (0, 2), (3, 6), (3, 7), (0, 4), (4, 5), (5, 3)],
    )
    lt = line_graph(g).line
    bs = block_structure(lt)
    b1, b2 = bs.major_blocks
    assert block_block_distance(lt, b1, b2) == 2

    lt2 = line_graph(spider(3, 2)).line
    bs2 = block_structure(lt2)
    shared = [b for b in biconnected_blocks(lt2) if set(b) & set(bs2.major_blocks[0])]
    touching = [b for b in shared if b != bs2.major_blocks[0]]
    assert block_block_distance(lt2, touching[0], bs2.major_blocks[0]) == 0

    with pytest.raises(NoSecondBlock):
        (triangle,) = biconnected_blocks(line_graph(star(3)).line)
        block_block_distance(line_graph(star(3)).line, triangle, triangle)


def test_block_block_distance_is_the_min_pairwise_distance():
    # every pair of distinct blocks of L(T), for every tree on 3..9 vertices,
    # against the min over all vertex pairs of single-source distances
    pairs = 0
    for t in enumerate_connected(9, max_c=0, smallest=3):
        lt = line_graph(t).line
        dist = [bfs_distances(lt, v) for v in range(lt.vertex_count)]
        blocks = biconnected_blocks(lt)
        for b1 in blocks:
            for b2 in blocks:
                if b1 != b2:
                    want = min(dist[u][v] for u in b1 for v in b2)
                    assert block_block_distance(lt, b1, b2) == want, (t.edges, b1, b2)
                    pairs += 1
    assert pairs > 0
    # a block with itself, and two blocks in different components
    with pytest.raises(NoSecondBlock):
        block_block_distance(line_graph(path(4)).line, (0, 1), (1, 0))
    two_edges = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="different components"):
        block_block_distance(two_edges, (0, 1), (2, 3))


def test_tree_line_graph_block_laws():
    # blocks of L(T) are cliques; every cutpoint lies in exactly two blocks;
    # external vertices biject with pendant edges (= pendant vertices once
    # n >= 3; P_2 has two pendant vertices sharing its single pendant edge)
    assert len(block_structure(line_graph(path(2)).line).external_vertices) == 1
    for t in enumerate_connected(10, max_c=0, smallest=3):
        lt = line_graph(t).line
        bs = block_structure(lt)
        blocks = biconnected_blocks(lt)
        for b in blocks:
            for i, u in enumerate(b):
                for v in b[i + 1 :]:
                    assert lt.has_edge(u, v)
        for cut in cut_vertices(lt):
            assert sum(1 for b in blocks if cut in b) == 2
        assert len(bs.external_vertices) == summarize(t).pendant_count


@settings(max_examples=60)
@given(connected_graphs(max_n=8))
def test_line_graph_edge_count_formula(g):
    m = line_graph(g) if g.edge_count else None
    if m is None:
        return
    expected = sum(math.comb(g.degree(v), 2) for v in range(g.vertex_count))
    assert m.line.edge_count == expected
