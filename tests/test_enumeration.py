from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import star
from test_graphs import connected_graphs
from lgmult.enumeration import (
    _canonical,
    _deletion_key,
    _rooted_key,
    canonical_key,
    enumerate_capped,
    enumerate_connected,
    enumerate_trees,
)
from lgmult.graphs import Graph, build_graph, summarize


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


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)],
)
def test_connected_counts(n, count):
    graphs = list(enumerate_connected(n))
    assert len(graphs) == count
    assert all(summarize(g).connected for g in graphs)


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47), (10, 106), (11, 235), (12, 551), (13, 1301)],
)
def test_tree_counts(n, count):
    trees = list(enumerate_trees(n))
    assert len(trees) == count == OTTER[n]
    assert all(summarize(t).is_tree for t in trees)


@pytest.mark.parametrize(
    "n,count",
    [(3, 1), (4, 2), (5, 5), (6, 13), (7, 33), (8, 89), (9, 240)],
)
def test_unicyclic_counts(n, count):
    unicyclic = [g for g in enumerate_capped(n, 1) if summarize(g).cyclomatic == 1]
    assert len(unicyclic) == count


def test_capped_matches_full_enumeration():
    for n in range(1, 8):
        full = {canonical_key(g) for g in enumerate_connected(n) if summarize(g).cyclomatic <= 2}
        capped = {canonical_key(g) for g in enumerate_capped(n, 2)}
        assert capped == full


def test_no_isomorphic_duplicates():
    for n in range(1, 8):
        for graphs in (
            enumerate_connected(n),
            enumerate_trees(n),
            enumerate_capped(n, 1),
            enumerate_capped(n, 2),
        ):
            keys = [canonical_key(g) for g in graphs]
            assert len(keys) == len(set(keys))


def test_range_guards():
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_trees(0))
    with pytest.raises(ValueError):
        list(enumerate_capped(3, -1))
    with pytest.raises(ValueError):
        list(enumerate_capped(0, 1))


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
    assert _rooted_key(adj, 0) != _rooted_key(adj, 1)
    assert _rooted_key(adj, 1) == _rooted_key(adj, 4)


def test_colored_key_separates_color_classes():
    # one edge: its leaf string is the same however its ends are colored
    assert _canonical((2, 1), (0, 0)) != _canonical((2, 1), (0, 1))


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
    test accepts some vertex, and only one orbit (one rooted key)."""
    n = g.vertex_count
    keys = set()
    for v in set(range(n)) - set(summarize(g).cut_vertices):
        swap = {v: n - 1, n - 1: v}
        moved = build_graph(n, [(swap.get(a, a), swap.get(b, b)) for a, b in g.edges])
        keys.add(_deletion_key(rows(moved)))
    keys.discard(None)
    assert len(keys) == 1


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
    keys = [_rooted_key(adj, v) for v in range(n)]
    assert [_rooted_key(relabeled, perm[v]) for v in range(n)] == keys
    edges = set(g.edges)
    autos = [
        p for p in permutations(range(n))
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in g.edges)
    ]
    for u in range(n):
        for w in range(n):
            assert (keys[u] == keys[w]) == any(p[u] == w for p in autos)
