import itertools
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from conftest import cut_vertices, cycle, cycle_plus_pendant, is_path, is_tree, neighbors, path, spider, star
from lgmult.enumeration import _graph, enumerate_connected
from lgmult.graphs import (
    DuplicateEdge,
    InvalidEdge,
    InvalidVertex,
    NotAPendantPath,
    bfs_distances,
    biconnected_blocks,
    bridges,
    build_graph,
    components,
    delete_edge,
    delete_pendant_path,
    induced_subgraph,
    is_connected,
    pendant_paths,
    summarize,
)


def test_build_graph_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    s = summarize(g)
    assert s.cyclomatic == 1 and s.pendant_count == 0 and s.is_cycle


def test_build_graph_star():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    s = summarize(g)
    assert s.pendant_count == 3 and s.cyclomatic == 0 and s.connected
    assert is_tree(g) and not is_path(g)
    assert cut_vertices(g) == {0}


def test_build_graph_rejects_bad_edges():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidEdge):
        build_graph(3, [(1, 1)])
    with pytest.raises(InvalidVertex):
        build_graph(3, [(0, 3)])


def test_summarize_two_triangles_sharing_a_vertex():
    # |V|=5, |E|=6, so c = 6-5+1 = 2; the shared vertex is the one cutpoint
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    s = summarize(g)
    assert s.cyclomatic == 2 and s.pendant_count == 0
    assert cut_vertices(g) == {2}
    assert not s.is_cycle and not is_tree(g)


_DISCONNECTED = (
    build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),
    build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)]),
)


def test_bridges_and_cut_vertices_match_deletion():
    # reference definitions: deleting a bridge or a cut vertex adds a component;
    # bridges(g) are the two-vertex blocks, cut vertices lie in >= 2 blocks
    graphs = list(enumerate_connected(7, smallest=1)) + list(_DISCONNECTED)
    for g in graphs:
        base = len(components(g))
        everyone = set(range(g.vertex_count))
        bridges_by_deletion = [e for e in g.edges if len(components(delete_edge(g, e))) > base]
        cuts = [
            v
            for v in range(g.vertex_count)
            if len(components(induced_subgraph(g, everyone - {v}))) > base
        ]
        assert bridges(g) == tuple(sorted(bridges_by_deletion))
        assert sorted(cut_vertices(g)) == cuts


def _blocks_by_brute_force(g):
    """The maximal vertex sets inducing a connected subgraph with no cut
    vertex; a two-vertex set needs its edge, and an isolated vertex is a
    block of its own, since no larger set contains it."""

    def connected(vs):
        return len(components(induced_subgraph(g, vs))) == 1

    def is_block(vs):
        return connected(vs) and (len(vs) <= 2 or all(connected(vs - {v}) for v in vs))

    found = [
        frozenset(vs)
        for k in range(1, g.vertex_count + 1)
        for vs in itertools.combinations(range(g.vertex_count), k)
        if is_block(set(vs))
    ]
    return tuple(sorted(tuple(sorted(b)) for b in found if not any(b < c for c in found)))


def test_blocks_match_brute_force_reference():
    # isolated vertices 0 and 6 beside a triangle with a pendant edge, and an edge
    isolated = build_graph(8, [(1, 2), (2, 3), (3, 1), (3, 4), (5, 7)])
    for g in [*enumerate_connected(6, smallest=1), *_DISCONNECTED, isolated]:
        assert biconnected_blocks(g) == _blocks_by_brute_force(g), g.edges


def test_pendant_paths_single_pendant_edge():
    g = cycle_plus_pendant(4)
    assert pendant_paths(g) == [(4,)]


def test_pendant_paths_star():
    # each leg hangs from the center, which keeps degree 2 after deletion
    assert pendant_paths(star(3)) == [(1,), (2,), (3,)]


def test_pendant_paths_empty_on_paths_and_cycles():
    assert pendant_paths(path(5)) == []
    assert pendant_paths(cycle(5)) == []


def test_delete_pendant_path_from_decorated_cycle():
    g = cycle_plus_pendant(4)
    h = delete_pendant_path(g, pendant_paths(g)[0])
    assert summarize(h).is_cycle and h.vertex_count == 4


def test_delete_pendant_path_from_spider():
    g = spider(3, 2)
    h = delete_pendant_path(g, pendant_paths(g)[0])
    assert is_path(h) and h.vertex_count == 5


def test_delete_pendant_path_rejects_foreign_path():
    g = cycle_plus_pendant(4)
    p = pendant_paths(g)[0]
    with pytest.raises(NotAPendantPath):
        delete_pendant_path(cycle(5), p)


def test_induced_subgraph_relabeling():
    g = path(5)
    h = induced_subgraph(g, [3, 1, 2])
    assert h.vertex_count == 3 and h.edges == ((0, 1), (1, 2))


@st.composite
def connected_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda t: (min(t), max(t))
            ).filter(lambda t: t[0] != t[1]),
            max_size=6,
        )
    )
    return build_graph(n, sorted(edges | extra))


@given(connected_graphs())
def test_cyclomatic_number_formula(g):
    s = summarize(g)
    assert is_connected(g)
    assert s.cyclomatic == g.edge_count - g.vertex_count + 1


@given(connected_graphs())
def test_pendant_count_is_degree_one_count(g):
    s = summarize(g)
    assert s.pendant_vertices == tuple(v for v in range(g.vertex_count) if g.degree(v) == 1)
    assert s.pendant_count == len(s.pendant_vertices)


@st.composite
def graphs_with_isolated_vertices(draw, max_n=8):
    """Any simple graph on up to max_n vertices, plus up to two isolated ones."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=12)) if pairs else set()
    return build_graph(n + draw(st.integers(0, 2)), sorted(edges))


@given(graphs_with_isolated_vertices())
def test_summarize_counts_match_components_and_degrees(g):
    s = summarize(g)
    comps = components(g)
    degs = g.degrees()
    assert s.connected == (len(comps) <= 1)
    assert s.cyclomatic == g.edge_count - g.vertex_count + len(comps)
    # the cycle space is the sum of the blocks' cycle spaces
    assert s.cyclomatic == sum(
        sum(u in b and v in b for u, v in g.edges) - len(b) + 1 for b in biconnected_blocks(g)
    )
    assert s.pendant_vertices == tuple(v for v in range(g.vertex_count) if degs[v] == 1)
    assert s.pendant_count == len(s.pendant_vertices)
    assert s.is_cycle == (
        len(comps) == 1 and g.edge_count == g.vertex_count >= 3 and max(degs) == 2
    )


@given(connected_graphs(max_n=7))
def test_distance_symmetric_and_triangular(g):
    n = g.vertex_count
    d = [bfs_distances(g, u) for u in range(n)]
    for u in range(n):
        for v in range(n):
            assert d[u][v] == d[v][u]
            for w in range(n):
                assert d[u][w] <= d[u][v] + d[v][w]


@given(st.data())
def test_multi_source_distances_are_the_min_over_single_sources(data):
    # disconnected graphs and the empty source list included; a vertex no
    # source reaches is None
    g = data.draw(graphs_with_isolated_vertices())
    n = g.vertex_count
    sources = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4 if n else 0))
    singles = [bfs_distances(g, s) for s in sources]
    want = [
        min((d[v] for d in singles if d[v] is not None), default=None)
        for v in range(n)
    ]
    assert bfs_distances(g, *sources) == want


@given(connected_graphs())
def test_path_deletion_bookkeeping(g):
    # removing one maximal pendant path drops p by exactly one and keeps c,
    # provided the remainder is neither a bare path nor a cycle
    paths = pendant_paths(g)
    if not paths:
        return
    before = summarize(g)
    h = delete_pendant_path(g, paths[0])
    after = summarize(h)
    assert after.cyclomatic == before.cyclomatic
    if not is_path(h) and not after.is_cycle:
        assert after.pendant_count == before.pendant_count - 1


def test_graph_hash_and_equality_contract():
    # the memo tables key on graphs: equal graphs hash alike whichever
    # constructor built them, and equality reads vertex_count and edges
    for g in enumerate_connected(6, smallest=1):
        n = g.vertex_count
        rows = [0] * n
        for u, v in g.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        built = build_graph(n, g.edges)
        direct = _graph(neighbors(tuple(rows)))
        assert built is not direct
        assert built == direct and hash(built) == hash(direct)
        copy = pickle.loads(pickle.dumps(built))
        assert copy == built and hash(copy) == hash(built) and copy.adj == built.adj
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert p3 != build_graph(4, [(0, 1), (1, 2)])
    # edge ids are positions, so the edge order is part of the graph
    assert p3 != build_graph(3, [(1, 2), (0, 1)])
    assert p3 != p3.edges and p3 == build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(FrozenInstanceError):
        p3.vertex_count = 4
    assert "_hash" not in repr(p3)
