import math

import pytest
from hypothesis import given, settings

from conftest import cut_vertices, cycle, is_path, path, spider, star
from lgmult.enumeration import canonical_key, enumerate_connected
from lgmult.graphs import GraphError, bfs_distances, biconnected_blocks, build_graph, summarize
from lgmult import certify, linegraph
from lgmult.linegraph import EmptyGraph, block_structure, line_graph
from lgmult.spectra import candidate_pairs
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


def test_block_distance_sets_examples():
    # double spider: two degree-3 centers joined by a three-edge path
    g = build_graph(
        8,
        [(0, 1), (0, 2), (3, 6), (3, 7), (0, 4), (4, 5), (5, 3)],
    )
    bs = block_structure(line_graph(g).line)
    assert len(bs.major_blocks) == 2 and bs.block_block_distances == {2}
    assert bs.external_blocks == bs.major_blocks and bs.vertex_block_distances == {0, 3}

    # one major block: no pair of blocks, every leg one edge past the triangle
    bs = block_structure(line_graph(spider(3, 2)).line)
    assert bs.block_block_distances == frozenset() and bs.vertex_block_distances == {1}
    # a path has no major block, so both sets are empty
    bs = block_structure(line_graph(path(5)).line)
    assert bs.vertex_block_distances == bs.block_block_distances == frozenset()


def test_block_distance_sets_are_the_brute_force_minima():
    # every tree on 3..9 vertices: the external blocks and both distance sets
    # from single-source distances out of every vertex of L(T)
    checked = 0
    for t in enumerate_connected(9, max_c=0, smallest=3):
        lt = line_graph(t).line
        dist = [bfs_distances(lt, v) for v in range(lt.vertex_count)]
        bs = block_structure(lt)
        major, external = bs.major_blocks, bs.external_vertices
        to = {b: [min(dist[v][u] for u in b) for v in range(lt.vertex_count)] for b in major}
        nearest = {v: [b for b in major if to[b][v] == min(to[c][v] for c in major)] for v in external}
        ext = [b for b in major if len(major) == 1 or sum(b in nearest[v] for v in external) >= len(b) - 1]
        assert bs.external_blocks == tuple(ext), t.edges
        assert bs.vertex_block_distances == {to[b][v] for b in ext for v in external}, t.edges
        pairs = {min(dist[u][v] for u in x for v in y) for x in major for y in major if x != y}
        assert bs.block_block_distances == pairs, t.edges
        checked += len(major) > 1
    assert checked > 0


def test_block_side_runs_one_bfs_per_major_block_and_none_per_lambda(monkeypatch):
    # block_structure runs one BFS out of each major block; the conditions at
    # every (2k, odd b) candidate run none
    calls = []
    real = linegraph.bfs_distances

    def spy(g, *sources):
        calls.append(sources)
        return real(g, *sources)

    monkeypatch.setattr(linegraph, "bfs_distances", spy)
    monkeypatch.setattr(certify, "bfs_distances", spy)
    for t in enumerate_connected(9, max_c=0, smallest=3):
        calls.clear()
        bs = block_structure(line_graph(t).line)
        assert calls == list(bs.major_blocks), t.edges
        calls.clear()
        for lam in candidate_pairs(t.edge_count):
            if lam.a % 2 == 0 and lam.b % 2:
                certify.theorem31_conditions(bs, lam)
        assert calls == [], t.edges


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
