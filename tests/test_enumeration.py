import hashlib
from collections import Counter
from functools import lru_cache
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cut_vertices, is_tree, neighbors, star
from test_graphs import connected_graphs
from lgmult import enumeration
from lgmult.enumeration import (
    _automorphisms,
    _canonical,
    _graph,
    _image,
    _is_canonical_deletion,
    _is_cut,
    _orbit,
    _refine,
    _rooted_key,
    canonical_key,
    enumerate_connected,
)
from lgmult.graphs import build_graph, induced_subgraph, is_connected, summarize


def otter_tree_counts(max_n):
    """Unlabeled trees on 1..max_n vertices by Otter's formula (R. Otter,
    Ann. Math. 49 (1948) 583-599): t(n) = r(n) - (sum_{i+j=n} r(i) r(j)
    - r(n/2)) / 2, the last term for even n only, over the rooted-tree
    counts r (OEIS A000081) from their Euler-transform recurrence."""
    r = [0, 1]
    for n in range(1, max_n):
        divisor_sums = [sum(d * r[d] for d in range(1, k + 1) if k % d == 0) for k in range(n + 1)]
        r.append(sum(divisor_sums[k] * r[n - k + 1] for k in range(1, n + 1)) // n)
    return {
        n: r[n] - (sum(r[i] * r[n - i] for i in range(1, n)) - (r[n // 2] if n % 2 == 0 else 0)) // 2
        for n in range(1, max_n + 1)
    }


OTTER = otter_tree_counts(13)


def rows(g):
    adj = [0] * g.vertex_count
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def rooted_key(adj, v):
    return _rooted_key(adj, neighbors(adj), v)


def automorphisms(adj):
    nbrs = neighbors(adj)
    return _automorphisms(adj, nbrs, _refine(nbrs, (0,) * len(adj)))


# connected graphs on 1..8 vertices (OEIS A001349)
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# connected unicyclic graphs on 3..9 vertices (OEIS A001429)
UNICYCLIC = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}


@lru_cache(maxsize=None)
def walk(top, max_c=None):
    """Every graph of one walk over the orders 1..top."""
    return tuple(enumerate_connected(top, max_c, smallest=1))


@lru_cache(maxsize=None)
def walk_counts(top, max_c=None, cyclomatic=None):
    """Graphs per order in one walk, those with the given cyclomatic
    number only if one is given."""
    return Counter(
        g.vertex_count for g in walk(top, max_c)
        if cyclomatic is None or summarize(g).cyclomatic == cyclomatic
    )


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)],
)
def test_connected_counts(n, count):
    graphs = list(enumerate_connected(n))
    assert len(graphs) == count == walk_counts(8)[n]
    assert all(summarize(g).connected for g in graphs)


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47), (10, 106), (11, 235), (12, 551), (13, 1301)],
)
def test_tree_counts(n, count):
    trees = list(enumerate_connected(n, max_c=0))
    assert len(trees) == count == OTTER[n] == walk_counts(13, 0)[n]
    assert all(is_tree(t) for t in trees)


@pytest.mark.parametrize(
    "n,count",
    [(3, 1), (4, 2), (5, 5), (6, 13), (7, 33), (8, 89), (9, 240)],
)
def test_unicyclic_counts(n, count):
    unicyclic = [g for g in enumerate_connected(n, max_c=1) if summarize(g).cyclomatic == 1]
    assert len(unicyclic) == count == walk_counts(9, 1, 1)[n]


def test_one_walk_counts_every_order():
    assert walk_counts(8) == CONNECTED
    assert all(summarize(g).connected for g in walk(8))
    assert walk_counts(13, 0) == OTTER
    assert all(is_tree(t) for t in walk(13, 0))
    assert walk_counts(9, 1, 1) == UNICYCLIC


def test_capped_matches_full_enumeration():
    full = {canonical_key(g) for g in walk(7) if summarize(g).cyclomatic <= 2}
    assert {canonical_key(g) for g in walk(7, 2)} == full


CAPS = (None, 0, 1, 2)


def test_no_isomorphic_duplicates():
    # across a whole multi-order stream, not just within one order
    for max_c in CAPS:
        keys = [canonical_key(g) for g in walk(7, max_c)]
        assert len(keys) == len(set(keys))


def test_each_graph_follows_its_parent():
    for max_c in CAPS:
        seen = set()
        for g in walk(7, max_c):
            n = g.vertex_count
            parent = tuple(e for e in g.edges if n - 1 not in e)
            assert n == 1 or (n - 1, parent) in seen
            seen.add((n, g.edges))


@pytest.mark.parametrize("n", range(1, 8))
def test_each_order_of_a_walk_is_the_single_order_call(n):
    for max_c in CAPS:
        alone = {canonical_key(g) for g in enumerate_connected(n, max_c)}
        assert alone == {canonical_key(g) for g in walk(7, max_c) if g.vertex_count == n}


def test_range_guards():
    assert list(enumerate_connected(3, smallest=4)) == []
    assert list(enumerate_connected(12, max_c=0, smallest=13)) == []
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(3, max_c=-1))
    for max_c, cap in ((None, 10), (0, 13), (1, 11), (2, 11)):
        with pytest.raises(ValueError):
            list(enumerate_connected(cap + 1, max_c))
        assert len(list(enumerate_connected(1, max_c))) == 1


def test_canonical_key_separates_same_size_graphs():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_key(p4) != canonical_key(star)


@settings(max_examples=80)
@given(connected_graphs(max_n=8), st.randoms(use_true_random=False))
def test_canonical_key_relabeling_invariant(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    relabeled = build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
    assert canonical_key(relabeled) == canonical_key(g)


def test_rooted_key_separates_star_center_from_leaf():
    adj = rows(star(4))
    assert rooted_key(adj, 0) != rooted_key(adj, 1)
    assert rooted_key(adj, 1) == rooted_key(adj, 4)


def test_colored_key_separates_color_classes():
    # one edge: its leaf string is the same however its ends are colored
    assert _canonical((2, 1), [[1], [0]], (0, 0)) != _canonical((2, 1), [[1], [0]], (0, 1))


# Two K4s joined through a middle vertex: the middle vertex, a cut
# vertex, is the least by (degree, sorted neighbor degrees).
BARBELL = build_graph(
    9,
    [(u, v) for u in range(4) for v in range(u + 1, 4)]
    + [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    + [(3, 4), (4, 5)],
)


@settings(max_examples=60)
@given(connected_graphs(max_n=8) | st.just(BARBELL))
def test_every_connected_graph_has_one_canonical_deletion_orbit(g):
    """Completeness rests on this: with each non-cut vertex moved last in
    turn (the generator's new vertex is never a cut vertex), the deletion
    test accepts some vertex, and the accepted vertices are one whole
    orbit (every vertex with one rooted key)."""
    n = g.vertex_count
    adj = rows(g)
    everyone = set(range(n))
    cuts = cut_vertices(g)
    assert cuts == {v for v in everyone if not is_connected(induced_subgraph(g, everyone - {v}))}
    accepted = set()
    for v in everyone - cuts:
        swap = {v: n - 1, n - 1: v}
        moved = build_graph(n, [(swap.get(a, a), swap.get(b, b)) for a, b in g.edges])
        moved_rows = rows(moved)
        if _is_canonical_deletion(moved_rows, neighbors(moved_rows))[0]:
            accepted.add(v)
    keys = {rooted_key(adj, v) for v in accepted}
    assert len(keys) == 1
    assert accepted == {v for v in range(n) if rooted_key(adj, v) in keys}


@settings(max_examples=60)
@given(connected_graphs(max_n=6), st.randoms(use_true_random=False))
def test_rooted_key_is_an_orbit_invariant(g, rng):
    """Relabeling moves the rooted key with the root, and two roots share
    a key exactly when an automorphism maps one onto the other."""
    n = g.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = rows(build_graph(n, [(perm[u], perm[v]) for u, v in g.edges]))
    adj = rows(g)
    keys = [rooted_key(adj, v) for v in range(n)]
    assert [rooted_key(relabeled, perm[v]) for v in range(n)] == keys
    edges = set(g.edges)
    autos = [
        p for p in permutations(range(n))
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in g.edges)
    ]
    for u in range(n):
        for w in range(n):
            assert (keys[u] == keys[w]) == any(p[u] == w for p in autos)


def automorphism_count(adj):
    """|Aut| by brute force: extend a partial map vertex by vertex while
    it keeps degrees and the adjacency to the vertices already mapped."""
    n = len(adj)

    def extend(p):
        i = len(p)
        if i == n:
            return 1
        return sum(
            extend(p + [w]) for w in range(n)
            if w not in p and adj[w].bit_count() == adj[i].bit_count()
            and all((adj[i] >> j & 1) == (adj[w] >> p[j] & 1) for j in range(i))
        )

    return extend([])


def group_closure(gens, n):
    group = {tuple(range(n))}
    frontier = list(group)
    for g in frontier:
        for p in gens:
            h = tuple(p[g[u]] for u in range(n))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


def assert_generators_give_the_group(adj):
    """The generators are automorphisms, their closure is all of Aut,
    and two vertices share an orbit exactly when their rooted keys agree."""
    n = len(adj)
    edges = {(u, w) for u in range(n) for w in range(n) if adj[u] >> w & 1}
    gens = automorphisms(adj)
    for p in gens:
        assert sorted(p) == list(range(n))
        assert {(p[u], p[w]) for u, w in edges} == edges
    group = group_closure(gens, n)
    assert len(group) == automorphism_count(adj)
    keys = [rooted_key(adj, v) for v in range(n)]
    for u in range(n):
        orbit = {h[u] for h in group}
        assert orbit == {w for w in range(n) if keys[w] == keys[u]}


def test_automorphism_generators_on_every_small_connected_graph():
    for g in walk(7):
        if g.vertex_count <= 6:
            assert_generators_give_the_group(rows(g))


@settings(max_examples=60)
@given(connected_graphs(max_n=8) | st.just(BARBELL), st.randoms(use_true_random=False))
def test_automorphism_generators_on_relabeled_graphs(g, rng):
    n = g.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    assert_generators_give_the_group(rows(build_graph(n, [(perm[u], perm[v]) for u, v in g.edges])))


def test_graph_from_rows_matches_build_graph():
    for g in walk(7):
        adj = rows(g)
        n = len(adj)
        built = build_graph(n, [(u, w) for u in range(n) for w in range(u + 1, n) if adj[u] >> w & 1])
        assert _graph(neighbors(adj)) == built == g
        assert _graph(neighbors(adj)).adj == built.adj


# sha256 over repr((vertex_count, edges)) of each graph of the labelled
# stream enumerate_connected(top, max_c, smallest=1), taken from the walk
# that tried every neighbor set and kept one child per rooted key; the
# degree prefilter and the orbit pruning must leave each stream as it is.
STREAM_DIGESTS = {
    (8, None): "5ae9b0a8d9ddd923ea7e511e42fec1ae72d1d9b237e2d6499470113dce436f7f",
    (10, 2): "0d7a3524f5a52da65edbf5e3687c947fe82a1794972fe6363d7b239a28706d17",
    (9, 1): "53f86cc0b7ee66366883031d351b8ad4dffe186b0c0fe7d8a406cc6ee49e761a",
    (12, 0): "e93719424d3b9bc8e507a95d4b493fa59c54cb76dbe3c28285e5edacf98c5186",
}


@pytest.mark.parametrize("top,max_c", list(STREAM_DIGESTS))
def test_labelled_streams_are_pinned(top, max_c):
    h = hashlib.sha256()
    for g in walk(top, max_c):
        h.update(repr((g.vertex_count, g.edges)).encode())
    assert h.hexdigest() == STREAM_DIGESTS[top, max_c]


def reference_deletion(adj):
    """The deletion test with every tie settled by rooted keys: the last
    vertex v is accepted when no non-cut vertex is less by (degree,
    sorted neighbor degrees, refinement cell), and no vertex tied with
    it on those has a smaller rooted key."""
    nbrs = neighbors(adj)
    v = len(adj) - 1
    cells = _refine(nbrs, (0,) * len(adj))

    def cheap(u):
        return len(nbrs[u]), sorted(len(nbrs[w]) for w in nbrs[u]), cells[u]

    rivals = [u for u in range(v) if not _is_cut(adj, u)]
    if any(cheap(u) < cheap(v) for u in rivals):
        return False
    key = rooted_key(adj, v)
    return all(rooted_key(adj, u) >= key for u in rivals if cheap(u) == cheap(v))


def assert_same_orbits(adj, gens):
    """The maps are automorphisms of adj and give the vertex orbits of
    the group _automorphisms finds."""
    n = len(adj)
    for p in gens:
        assert sorted(p) == list(range(n))
        assert all(_image(adj[u], p) == adj[p[u]] for u in range(n))
    group = automorphisms(adj)
    assert [_orbit(1 << v, gens) for v in range(n)] == [_orbit(1 << v, group) for v in range(n)]


@lru_cache(maxsize=None)
def recorded_walk(top, max_c=None):
    """One walk over the orders 1..top, spied on: each deletion test as
    (child rows, verdict, generators), each node as (rows, carried
    neighbor lists, generators handed down)."""
    tests, nodes = [], []
    walk_, test_ = enumeration._walk, enumeration._is_canonical_deletion

    def walk_spy(parent, nbrs, gens, n, max_c):
        nodes.append((parent, [list(nb) for nb in nbrs], gens))
        return walk_(parent, nbrs, gens, n, max_c)

    def test_spy(adj, nbrs):
        canonical, gens = test_(adj, nbrs)
        tests.append((adj, canonical, gens))
        return canonical, gens

    with mock.patch.object(enumeration, "_walk", walk_spy), mock.patch.object(
        enumeration, "_is_canonical_deletion", test_spy
    ):
        assert len(list(enumerate_connected(top, max_c, smallest=1))) == len(nodes)
    return tests, nodes


def test_orbit_tie_break_agrees_with_every_rooted_key_on_the_walk():
    tests, nodes = recorded_walk(7)
    assert len(tests) > len(nodes)
    for adj, canonical, gens in tests:
        assert canonical == reference_deletion(adj)
        if gens is not None:
            assert_same_orbits(adj, gens)
    handed_down = [(adj, gens) for adj, _, gens in nodes if gens is not None]
    assert handed_down
    for adj, gens in handed_down:
        assert_same_orbits(adj, gens)


@settings(max_examples=60)
@given(connected_graphs(max_n=8) | st.just(BARBELL), st.randoms(use_true_random=False))
def test_orbit_tie_break_agrees_with_every_rooted_key_on_relabeled_graphs(g, rng):
    n = g.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    g = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    for v in set(range(n)) - cut_vertices(g):
        swap = {v: n - 1, n - 1: v}
        adj = rows(build_graph(n, [(swap.get(a, a), swap.get(b, b)) for a, b in g.edges]))
        canonical, gens = _is_canonical_deletion(adj, neighbors(adj))
        assert canonical == reference_deletion(adj)
        if gens is not None:
            assert_same_orbits(adj, gens)


@pytest.mark.parametrize("top,max_c", [(7, None), (10, 0)])
def test_walk_carries_neighbor_lists_and_refine_keeps_discrete_colorings(top, max_c):
    _, nodes = recorded_walk(top, max_c)
    for adj, nbrs, _ in nodes:
        assert nbrs == neighbors(adj)
        for discrete in (tuple(range(len(adj))), tuple(reversed(range(len(adj))))):
            assert _refine(nbrs, discrete) is discrete
