import itertools
import math
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cycle, path, star
from lgmult import spectra
from lgmult.certify import optimal_orders
from lgmult.enumeration import enumerate_connected
from lgmult.families import negative_corpus, realize
from lgmult.graphs import bfs_distances, build_graph, summarize
from lgmult.intpoly import IntPoly, div_exact
from lgmult.linegraph import line_graph
from lgmult.spectra import (
    Eigenvalue,
    NonCanonical,
    annihilator_dimension,
    annihilator_dimensions,
    candidate_count,
    candidate_orders,
    candidate_pairs,
    char_poly,
    cycle_char_poly,
    eig_classes,
    line_eig_classes,
    line_multiplicities,
    multiplicity,
    multiplicities_in_poly,
    multiplicity_in_poly,
    numeric_multiplicities,
    numeric_multiplicity,
    numeric_spectrum,
    path_char_poly,
    trig_min_poly,
)
from lgmult.verify import verify_main_theorem
from test_graphs import connected_graphs
from test_verify import CASE_SPECS, _checkable_graphs


def P(coeffs):
    return IntPoly(tuple(coeffs))


def test_eigenvalue_canonicality():
    lam = Eigenvalue(1, 2)
    assert lam.numeric == pytest.approx(0.0)
    assert Eigenvalue(2, 3).numeric == pytest.approx(-1.0)
    for a, b in ((2, 4), (0, 3), (3, 3), (4, 3)):
        with pytest.raises((NonCanonical, ValueError)):
            Eigenvalue(a, b)


def test_eigenvalue_parse():
    assert Eigenvalue.parse("3/7") == Eigenvalue(3, 7)
    with pytest.raises((NonCanonical, ValueError)):
        Eigenvalue.parse("2/4")
    with pytest.raises(ValueError):
        Eigenvalue.parse("nonsense")


def test_trig_min_poly_examples():
    assert trig_min_poly(1, 2) == P([0, 1])
    assert trig_min_poly(2, 3) == P([1, 1])
    assert trig_min_poly(1, 5) == P([-1, -1, 1])
    assert trig_min_poly(1, 4) == P([-2, 0, 1])
    # one polynomial per root order: 1/5 and 3/5 both have order 10
    assert trig_min_poly(1, 5) is trig_min_poly(3, 5)


def test_trig_min_poly_vanishes_at_its_eigenvalue():
    for a, b in ((1, 5), (3, 8), (2, 9), (5, 12)):
        lam = Eigenvalue(a, b)
        psi = lam.minimal_polynomial
        assert psi.is_monic and psi.degree == lam.degree
        val = sum(c * lam.numeric ** i for i, c in enumerate(psi.coeffs))
        assert abs(val) < 1e-9


def test_trig_min_polys_pairwise_coprime():
    # irreducibility within the family: no candidate's minimal polynomial
    # divides another of strictly larger degree
    pool = [lam for lam in candidate_pairs(4) if lam.b <= 10]
    for lo in pool:
        for hi in pool:
            if lo.degree < hi.degree:
                with pytest.raises(ValueError):
                    div_exact(hi.minimal_polynomial, lo.minimal_polynomial)


def test_char_poly_examples():
    assert char_poly(path(2)) == P([-1, 0, 1])
    assert char_poly(cycle(4)) == P([0, 0, -4, 0, 1])
    assert char_poly(star(3)) == P([0, 0, -3, 0, 1])


def test_char_poly_closed_forms():
    # against the matrix route directly: char_poly itself dispatches paths
    # to the closed form
    for k in range(1, 13):
        assert path_char_poly(k) == spectra._char_poly_leverrier(path(k))
        if k >= 3:
            assert cycle_char_poly(k) == spectra._char_poly_leverrier(cycle(k))


def _reference_leverrier(g, diag=()):
    """Faddeev-LeVerrier on X = diag(diag) + A(g) with M kept as a list of
    row lists, one small-int addition per entry: the loop the packed-row
    kernel replaced, kept as its reference."""
    n = g.vertex_count
    adj = g.adj
    diag = diag or (0,) * n
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = []
        for i in range(n):
            nbrs = adj[i]
            if diag[i]:
                row = [diag[i] * v for v in m[i]]
            elif nbrs:
                row, nbrs = list(m[nbrs[0]]), nbrs[1:]
            else:
                row = [0] * n
            for w in nbrs:
                mw = m[w]
                for j in range(n):
                    row[j] += mw[j]
            am.append(row)
        tr = sum(am[i][i] for i in range(n))
        assert tr % k == 0
        c = -(tr // k)
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                am[i][i] += c
            m = am
    return IntPoly(tuple(coeffs))


def assert_kernel_matches_reference(g, with_line_graph=False):
    """The packed-row kernel against the row-list reference on A(g) and
    Q - 2I, and on A(L(g)) when asked."""
    for diag in ((), [d - 2 for d in g.degrees()]):
        assert spectra._char_poly_leverrier(g, diag) == _reference_leverrier(g, diag), diag
    if with_line_graph:
        lg = line_graph(g).line
        assert spectra._char_poly_leverrier(lg) == _reference_leverrier(lg)


def test_packed_leverrier_matches_reference_on_small_graphs():
    for g in enumerate_connected(7, smallest=1):
        assert_kernel_matches_reference(g)


def test_packed_leverrier_matches_reference_on_families():
    for spec in CASE_SPECS:
        assert_kernel_matches_reference(realize(spec), with_line_graph=True)


def test_packed_leverrier_near_the_width_bound():
    # K_n and K_(1,n) have the largest rho' = max(x'_ii + deg i) of the
    # lifted matrix for their order, so their entries come closest to rho'**n
    for n in range(1, 13):
        complete = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        assert_kernel_matches_reference(complete)
        assert_kernel_matches_reference(star(n))


def test_packed_leverrier_past_62_vertices():
    rng = random.Random(11)
    n = 70
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(30)}
    g = build_graph(n, sorted(edges))
    assert_kernel_matches_reference(g)


def _line_char_poly(g):
    """char_poly(L(g)) by the n x n route: R * (x+2)**e, expanded."""
    r, e = spectra._line_spectrum(g)
    return r * P([math.comb(e, i) * 2 ** (e - i) for i in range(e + 1)])


def test_line_char_poly():
    assert _line_char_poly(build_graph(3, [])) == IntPoly.one()
    assert line_eig_classes(build_graph(3, [])) == ()
    for g in (path(5), cycle(4), star(3)):
        assert _line_char_poly(g) == char_poly(line_graph(g).line)


def assert_line_routes_agree(g):
    """The n x n route of Q - 2I against Faddeev-LeVerrier on A(L(g)), and
    every candidate multiplicity read off R against the m x m route."""
    direct = spectra._char_poly_leverrier(line_graph(g).line) if g.edge_count else IntPoly.one()
    assert _line_char_poly(g) == direct
    assert line_eig_classes(g) == eig_classes(direct)
    mults = line_multiplicities(g, [n for n, _ in candidate_orders(g.edge_count)])
    lams = candidate_pairs(g.edge_count)
    assert [mults[lam.n] for lam in lams] == [multiplicity_in_poly(direct, lam) for lam in lams]


def test_line_routes_agree_on_small_graphs_and_families():
    for g in enumerate_connected(7, smallest=1):
        assert_line_routes_agree(g)
    for spec in CASE_SPECS:
        assert_line_routes_agree(realize(spec))


class _Unsettled(Exception):
    """Raised in place of building R, so a call shows the screen alone."""


def _refuse_to_build(g):
    raise _Unsettled


def assert_floors_sound(graphs, exact=True):
    """line_eig_classes(g, k) at every k from 1 to m + 1 against the full
    classes, built once per graph: a floor the screen settles, without
    building R, gives () and has no class at or above it, and with
    ``exact`` every other floor's exact route gives the classes at or
    above it.  Without ``exact`` the screen runs only up to the largest
    multiplicity, since above it () is right on either route."""
    fulls = [line_eig_classes(g) for g in graphs]
    settled = []
    with mock.patch.object(spectra, "_line_spectrum", _refuse_to_build):
        for g, full in zip(graphs, fulls):
            top = g.edge_count + 1 if exact else max((c.multiplicity for c in full), default=0)
            settled.append({})
            for k in range(1, top + 1):
                try:
                    settled[-1][k] = line_eig_classes(g, k)
                except _Unsettled:
                    pass
    for g, full, screened in zip(graphs, fulls, settled):
        for k in range(1, g.edge_count + 2):
            want = tuple(c for c in full if c.multiplicity >= k)
            if k in screened:
                assert screened[k] == want == (), (g, k)
            elif exact:
                assert line_eig_classes(g, k) == want, (g, k)


def test_line_eig_classes_with_a_floor_are_the_classes_at_or_above_it():
    # every floor from 1 to m + 1 meets deg R and e for some graph, so an
    # off-by-one at either floor, or at the gcd-degree floor, shows here;
    # at n = 8 the screen's floors are checked, and the exact route they
    # would otherwise take is the one checked up to n = 7
    corpus = [realize(spec) for spec in (*CASE_SPECS, *negative_corpus(50, 0))]
    assert_floors_sound([*enumerate_connected(7, smallest=1), *corpus])
    assert_floors_sound(list(enumerate_connected(8, smallest=8)), exact=False)


@st.composite
def graphs_with_bipartite_parts(draw):
    """Disjoint unions of isolated vertices, trees, even cycles and
    arbitrary connected graphs, so that m - n < 0 and several factors
    x + 2 (one per bipartite component) both occur."""
    edges, n = [], 0
    for kind in draw(st.lists(st.sampled_from(["vertex", "tree", "even_cycle", "any"]), max_size=4)):
        if kind == "vertex":
            k, part = 1, []
        elif kind == "tree":
            k = draw(st.integers(2, 6))
            part = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
        elif kind == "even_cycle":
            k = 2 * draw(st.integers(2, 3))
            part = [(i, (i + 1) % k) for i in range(k)]
        else:
            g = draw(connected_graphs(max_n=6))
            k, part = g.vertex_count, list(g.edges)
        edges += [(u + n, v + n) for u, v in part]
        n += k
    return build_graph(n, edges)


@settings(max_examples=150)
@given(graphs_with_bipartite_parts())
@example(build_graph(0, []))
@example(build_graph(7, [(0, 1), (1, 2), (3, 4)]))  # m - n = -4, four factors x + 2
@example(build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]))
def test_line_routes_agree_on_disconnected_graphs(g):
    assert_line_routes_agree(g)
    assert_floors_sound([g])
    r, e = spectra._line_spectrum(g)
    assert r(-2) != 0 and e >= 0


def _complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@st.composite
def graphs_with_diagonals(draw):
    g = draw(st.one_of(connected_graphs(), graphs_with_bipartite_parts()))
    n = g.vertex_count
    return g, draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))


@settings(max_examples=150)
@given(graphs_with_diagonals())
@example((build_graph(0, []), []))
# edgeless, lifted by 4 to diag(0, 4, 8): the entry 8**3 = 2**9 fills W
@example((build_graph(3, []), [-4, 0, 4]))
@example((_complete(7), [-6] * 7))  # the largest lift for its order
@example((star(5), [-4, 4, 4, 4, 4, 4]))
def test_packed_leverrier_matches_reference_on_random_diagonals(case):
    g, diag = case
    assert spectra._char_poly_leverrier(g, diag) == _reference_leverrier(g, diag)


def test_back_shift_is_evaluation_at_x_plus_t():
    # det(xI - (X - tI)) = P_X(x + t), so lowering the diagonal by t, which
    # changes the lift the kernel takes, must shift the argument by t
    graphs = (_complete(5), star(4), cycle(6), build_graph(4, [(0, 1)]))
    for g in graphs:
        diag = [d - 2 for d in g.degrees()]
        f = spectra._char_poly_leverrier(g, diag)
        for t in range(-3, 5):
            shifted = spectra._char_poly_leverrier(g, [d - t for d in diag])
            for x in range(-4, 5):
                assert shifted(x) == f(x + t), (g, t, x)


def test_multiplicity_in_poly_skips_a_polynomial_below_the_degree():
    evaluated = []

    class Spy(IntPoly):
        def __call__(self, x):
            evaluated.append(x)
            return super().__call__(x)

    lam = Eigenvalue(1, 7)  # minimal polynomial of degree 3
    for f in (Spy((1, 0, 1)), Spy(lam.minimal_polynomial.coeffs[1:]), Spy(())):
        assert multiplicity_in_poly(f, lam) == 0
    assert evaluated == []
    # at deg f >= deg psi the screens still run
    assert multiplicity_in_poly(Spy(lam.minimal_polynomial.coeffs), lam) == 1
    assert evaluated


def _gf2_rank_of_q(g):
    """Rank of Q = D + A over GF(2), by column pivots on 0/1 lists."""
    n = g.vertex_count
    rows = [[(g.degree(i) if i == j else j in g.adj[i]) % 2 for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(n):
            if r != rank and rows[r][c]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


K44 = build_graph(8, [(i, j) for i in range(4) for j in range(4, 8)])


@settings(max_examples=150)
@given(st.one_of(graphs_with_bipartite_parts(), connected_graphs()))
@example(build_graph(0, []))
@example(path(2))  # A mod 2 has rank 2, Q = [[1, 1], [1, 1]] has rank 1
@example(K44)
def test_gf2_rank_certificate_is_sound(g):
    # the certificate reads rank_2 Q >= t as rank Q >= t, that is e <= m - t
    rank2 = _gf2_rank_of_q(g)
    e = spectra._line_spectrum(g)[1]
    for t in range(g.vertex_count + 2):
        reaches = spectra._gf2_rank_reaches(g, t)
        assert reaches == (rank2 >= t), (g, t)
        assert not reaches or t <= g.edge_count - e, (g, t)


def test_certificate_keeps_a_class_above_the_vertex_count():
    # x + 2 has multiplicity e = 16 - 7 = 9 > n = 8, and rank_2 Q = 2
    x_plus_2 = spectra.EigClass(P([2, 1]), 9)
    assert line_eig_classes(K44, 9) == (x_plus_2,)
    assert line_eig_classes(K44, 10) == ()


def _all_distances(g):
    """Floyd-Warshall distances, None between components."""
    n = g.vertex_count
    d = [[0 if i == j else 1 if g.has_edge(i, j) else math.inf for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return [[None if x == math.inf else x for x in row] for row in d]


def assert_geodesic(g):
    """For every ``need``, the path _geodesic returns is an induced path
    of g, by brute force over its vertex pairs, and a shortest one: from
    a vertex at the eccentricity e of vertex 0 back to 0, or, when
    e + 1 < need <= 2e + 1, from a vertex at the eccentricity of such a
    vertex u back to u."""
    if not g.vertex_count:
        assert spectra._geodesic(g, 1) == []
        return
    d = _all_distances(g)

    def ecc(v):
        return max(x for x in d[v] if x is not None)

    e = ecc(0)
    for need in range(g.vertex_count + 2):
        path = spectra._geodesic(g, need)
        assert len(set(path)) == len(path)
        for i, j in itertools.combinations(range(len(path)), 2):
            assert g.has_edge(path[i], path[j]) == (j == i + 1), (g, need, path)
        u = path[-1]
        if e + 1 < need <= 2 * e + 1:
            assert d[0][u] == e and len(path) - 1 == d[u][path[0]] == ecc(u), (g, need, path)
        else:
            assert u == 0 and len(path) - 1 == d[0][path[0]] == e, (g, need, path)


@settings(max_examples=150)
@given(st.one_of(graphs_with_bipartite_parts(), connected_graphs()))
@example(build_graph(0, []))
@example(build_graph(1, []))
@example(build_graph(5, [(1, 2), (2, 3), (3, 4)]))  # vertex 0 alone, a P4 beside it
def test_geodesic_is_an_induced_shortest_path(g):
    assert_geodesic(g)


def test_geodesic_on_small_graphs_and_families():
    for g in (*enumerate_connected(7, smallest=1), *(realize(spec) for spec in CASE_SPECS)):
        assert_geodesic(g)


def test_screen_leaves_r_to_121_and_370_graphs(monkeypatch):
    # the graphs of the n <= 7 and n <= 8 sweeps whose line spectrum R is
    # built: a GF(2) rank with n < bound left 358 and 1,794
    built = []
    line_spectrum = spectra._line_spectrum

    def spy(g):
        built.append(g)
        return line_spectrum(g)

    monkeypatch.setattr(spectra, "_line_spectrum", spy)
    counts = []
    for max_n in (7, 8):
        built.clear()
        counts.append((verify_main_theorem(max_n).graphs_checked, len(built)))
    assert counts == [(990, 121), (12_106, 370)]


def _integer_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    rows, rank = [list(r) for r in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k, r in enumerate(rows) if r[c]), None)
        if k is None:
            continue
        piv = rows.pop(k)
        rank += 1
        rows = [[piv[c] * a - r[c] * b for a, b in zip(r, piv)] for r in rows]
    return rank


def _is_bipartite(g):
    """Whether connected g 2-colours, by BFS parity."""
    dist = bfs_distances(g, 0)
    return all((dist[u] - dist[v]) % 2 for u, v in g.edges)


def test_partition_graphs_have_nothing_at_the_bound_up_to_8_vertices():
    # a connected non-cycle graph with 3c > n and 2c + p - 1 > n: no order
    # passes the recognizer, every class of R has multiplicity <= deg R =
    # rank Q <= n, and x + 2 has e = m - n + dim ker Q <= c, where dim ker Q
    # counts the bipartite components; c >= 2, so both are below the bound
    checked = 0
    for g in _checkable_graphs(8):
        s = summarize(g)
        n, c = g.vertex_count, s.cyclomatic
        if 3 * c <= n or 2 * c + s.pendant_count - 1 <= n:
            continue
        assert optimal_orders(g) == frozenset(), g
        q = [[g.degree(i) if i == j else int(g.has_edge(i, j)) for j in range(n)] for i in range(n)]
        rank = _integer_rank(q)
        r, e = spectra._line_spectrum(g)
        assert r.degree == rank, g
        assert n - rank == _is_bipartite(g), g
        assert e <= c, g
        checked += 1
    assert checked == 10_320



def test_multiplicity_examples():
    assert multiplicity(cycle(4), Eigenvalue(1, 2)) == 2
    assert multiplicity(path(3), Eigenvalue(1, 4)) == 1
    k3 = cycle(3)
    assert multiplicity(k3, Eigenvalue(2, 3)) == 2


def test_path_membership_law_small():
    # P_k has 2cos(a*pi/b) as a (simple) eigenvalue exactly when k = b-1 (mod b)
    for lam in [Eigenvalue(1, 2), Eigenvalue(2, 3), Eigenvalue(1, 4), Eigenvalue(2, 5)]:
        for k in range(1, 25):
            want = 1 if k % lam.b == lam.b - 1 else 0
            assert multiplicity_in_poly(path_char_poly(k), lam) == want


def test_eig_classes_examples():
    got = eig_classes(char_poly(cycle(4)))
    assert [(c.factor, c.multiplicity) for c in got] == [
        (P([0, 1]), 2),
        (P([-4, 0, 1]), 1),
    ]
    got = eig_classes(char_poly(star(3)))
    assert [(c.factor, c.multiplicity) for c in got] == [
        (P([0, 1]), 2),
        (P([-3, 0, 1]), 1),
    ]
    got = eig_classes(char_poly(path(2)))
    assert [(c.factor, c.multiplicity) for c in got] == [(P([-1, 0, 1]), 1)]


@given(connected_graphs(max_n=7))
def test_eig_class_degrees_sum_to_order(g):
    assert sum(c.factor.degree * c.multiplicity for c in eig_classes(char_poly(g))) == g.vertex_count


def test_candidate_pairs_small_degree():
    assert [(l.a, l.b) for l in candidate_pairs(1)] == [(1, 2), (1, 3), (2, 3)]
    deg2 = {(l.a, l.b) for l in candidate_pairs(3)}
    assert {(1, 5), (2, 5), (3, 5), (4, 5)} <= deg2
    assert all(math.gcd(l.a, l.b) == 1 for l in candidate_pairs(8))
    assert all(l.degree <= 8 for l in candidate_pairs(8))


def test_candidate_count_is_the_number_of_candidate_pairs():
    for m in range(40):
        assert candidate_count(m) == len(candidate_pairs(m)), m


def test_candidate_pairs_sorted_and_monotone():
    small, big = candidate_pairs(2), candidate_pairs(5)
    assert set(small) <= set(big)
    assert list(big) == sorted(big, key=lambda l: (l.b, l.a))


def _phi_table(limit):
    """Euler's phi of 0..limit by sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _group_by_order(lams):
    groups = {}
    for lam in lams:
        groups.setdefault(lam.n, []).append(lam)
    return tuple((n, tuple(group)) for n, group in groups.items())


def _reference_candidate_pairs(max_degree, phi):
    """Every k coprime to each order n <= 8*max_degree**2 + 2 with
    phi(n)/2 <= max_degree, reduced to a/b and sorted by (b, a)."""
    out = []
    for n in range(3, 8 * max_degree * max_degree + 3):
        if phi[n] // 2 <= max_degree:
            for k in range(1, (n + 1) // 2):
                if math.gcd(k, n) == 1:
                    g = math.gcd(2 * k, n)
                    out.append(Eigenvalue(2 * k // g, n // g))
    return tuple(sorted(out, key=lambda e: (e.b, e.a)))


def test_candidates_match_enumerate_sort_group():
    phi = _phi_table(8 * 70 * 70 + 2)
    for m in range(71):
        want = _reference_candidate_pairs(m, phi)
        assert candidate_pairs(m) == want, m
        assert candidate_orders(m) == _group_by_order(want), m
        assert candidate_orders(m) == _group_by_order(candidate_pairs(m)), m


def test_candidate_orders_are_the_small_phi_orders():
    phi = _phi_table(8 * 20 * 20 + 2)
    for m in range(21):
        want = {n for n in range(3, 8 * m * m + 3) if phi[n] <= 2 * m}
        assert {n for n, _ in candidate_orders(m)} == want, m


def test_order_groups_are_shared_across_degrees():
    small, big = dict(candidate_orders(5)), dict(candidate_orders(9))
    assert small[7] is big[7] and small[22] is big[22]


def test_degree_is_half_of_phi():
    for n in range(3, 501):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        lam = Eigenvalue(2, n) if n % 2 else Eigenvalue(1, n // 2)
        assert lam.n == n and lam.degree == phi // 2
    assert Eigenvalue(1, 1000003).degree == 500001


def test_annihilator_dimension_examples():
    c4 = cycle(4)
    lam = Eigenvalue(1, 2)
    assert annihilator_dimension(c4, lam) == multiplicity(c4, lam) == 2
    # a stray positional argument is refused
    with pytest.raises(TypeError):
        annihilator_dimensions(c4, [lam.n], [0])


def test_annihilator_dimension_without_screen_matches():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    for lam in candidate_pairs(5):
        assert spectra._nullity_exact(g, lam.n) == annihilator_dimension(g, lam)


PETERSEN = build_graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
     (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_annihilator_dimensions_match_char_poly():
    for g in enumerate_connected(6, smallest=1):
        lams = candidate_pairs(g.vertex_count)
        f = char_poly(g)
        dims = annihilator_dimensions(g, {lam.n for lam in lams})
        assert [dims[lam.n] for lam in lams] == [multiplicity_in_poly(f, lam) for lam in lams]


@settings(max_examples=40)
@given(connected_graphs(max_n=7))
def test_screened_batch_matches_unscreened(g):
    orders = [n for n, _ in candidate_orders(g.vertex_count)]
    assert annihilator_dimensions(g, orders) == {n: spectra._nullity_exact(g, n) for n in orders}


def test_screen_never_certifies_a_singular_matrix():
    # 0 is a double eigenvalue of C4, 1 an eigenvalue of Petersen (multiplicity 5)
    zero, one = Eigenvalue(1, 2), Eigenvalue(1, 3)
    assert spectra._screen_full_rank(cycle(4), [zero.n]) == set()
    assert spectra._screen_full_rank(PETERSEN, [one.n]) == set()
    # 1 is not an eigenvalue of C4, so that matrix is regular and certified
    assert spectra._screen_full_rank(cycle(4), [zero.n, one.n]) == {one.n}
    assert annihilator_dimension(PETERSEN, one) == 5


def test_orders_too_large_for_int64_take_the_exact_route(monkeypatch):
    lams = candidate_pairs(10)
    want = [multiplicity(PETERSEN, lam) for lam in lams]
    orders = [n for n, _ in candidate_orders(10)]
    monkeypatch.setattr(spectra, "_SCREEN_PRIME_LIMIT", 2)
    assert spectra._screen_full_rank(PETERSEN, orders) == set()
    dims = annihilator_dimensions(PETERSEN, orders)
    assert [dims[lam.n] for lam in lams] == want


def test_screen_blocks_agree_with_one_stack(monkeypatch):
    orders = [n for n, _ in candidate_orders(10)]
    whole = annihilator_dimensions(PETERSEN, orders)
    monkeypatch.setattr(spectra, "_SCREEN_BLOCK_ENTRIES", 1)
    assert annihilator_dimensions(PETERSEN, orders) == whole


def test_exact_route_on_dense_graphs():
    # plain cross-multiplication squares the integers' size at every step
    # on a dense matrix; this 24-vertex case then takes minutes, not 0.1 s
    rng = random.Random(1)
    dense = build_graph(24, [(u, v) for u in range(24) for v in range(u + 1, 24) if rng.random() < 0.5])
    # three 5-cycles, each vertex joined to every vertex of the other two
    edges = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(3) for i in range(5)]
    edges += [(u, v) for u in range(15) for v in range(u + 1, 15) if u // 5 != v // 5]
    joined = build_graph(15, edges)
    lams = [Eigenvalue(1, 2), Eigenvalue(2, 5), Eigenvalue(4, 5), Eigenvalue(1, 7)]
    for g in (dense, joined):
        want = [multiplicity(g, lam) for lam in lams]
        assert [spectra._nullity_exact(g, lam.n) for lam in lams] == want
    # the join keeps each 5-cycle's 2cos(2pi/5) and 2cos(4pi/5), twice each
    assert want == [0, 6, 6, 0]


def test_exact_route_on_cycles_at_nullity_two():
    # the cycle law: an eigenvalue of root order n lies in the spectrum of
    # C_k, twice, exactly when n | k; orders reach degree 4, so the
    # companion blocks reach 4 x 4
    orders = [n for n, _ in candidate_orders(4)]
    assert max(spectra._order_min_poly(n).degree for n in orders) == 4
    for k in range(3, 25):
        got = [spectra._nullity_exact(cycle(k), n) for n in orders]
        assert got == [2 if k % n == 0 else 0 for n in orders]


def test_importing_the_exact_layers_does_not_load_numpy():
    code = "import sys, lgmult.spectra, lgmult.verify; sys.exit('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_numeric_spectrum_examples():
    assert numeric_spectrum(cycle(3)) == pytest.approx([-1, -1, 2])
    assert numeric_spectrum(cycle(4)) == pytest.approx([-2, 0, 0, 2], abs=1e-9)
    assert numeric_spectrum(path(3)) == pytest.approx([-math.sqrt(2), 0, math.sqrt(2)])


def test_numeric_multiplicity_ambiguity_guard():
    lam = Eigenvalue(1, 2)
    assert numeric_multiplicity([0.0, 1.0], lam) == 1
    assert numeric_multiplicity([1e-9, 1.0], lam) == 1
    assert numeric_multiplicity([1e-7, 1.0], lam) is None  # inside the guard band


def test_numeric_batch_matches_the_per_lambda_count():
    for g in enumerate_connected(7, smallest=1):
        spectrum = numeric_spectrum(g)
        want = [numeric_multiplicity(spectrum, lam) for lam in candidate_pairs(g.vertex_count)]
        assert numeric_multiplicities(spectrum, g.vertex_count) == want, g


def _numeric_index(max_degree, a, b):
    return candidate_pairs(max_degree).index(Eigenvalue(a, b))


def test_numeric_batch_edge_cases():
    zero = _numeric_index(4, 1, 2)
    # an entry in the guard band abstains whether it comes before or after
    # one inside the tolerance, and an abstention is not undone
    for spectrum in ([1e-7, 0.0], [0.0, 1e-7], [0.0, 1e-7, -1e-9]):
        assert numeric_multiplicities(spectrum, 4)[zero] is None
    assert numeric_multiplicities([0.0, 1e-9, 1.0], 4)[zero] == 2
    assert numeric_multiplicities([], 4) == [0] * len(candidate_pairs(4))
    # at max_degree 100, 2cos(pi/279) and 2cos(pi/280) lie 9e-7 apart: an
    # entry on the first counts there and abstains at the second, and an
    # entry between them abstains at both
    near, far = _numeric_index(100, 1, 279), _numeric_index(100, 1, 280)
    x, y = Eigenvalue(1, 279).numeric, Eigenvalue(1, 280).numeric
    assert 0 < y - x < spectra._NUMERIC_GAP
    for spectrum, want in (([x], (1, None)), ([(x + y) / 2], (None, None)), ([x, x], (2, None))):
        got = numeric_multiplicities(spectrum, 100)
        assert (got[near], got[far]) == want
        assert got == [numeric_multiplicity(spectrum, lam) for lam in candidate_pairs(100)]


def _multiplicity_by_division(f, n):
    """How often the minimal polynomial of order n divides f, by division alone."""
    psi, count = spectra._order_min_poly(n), 0
    while f.degree >= psi.degree:
        try:
            f = div_exact(f, psi)
        except ValueError:
            break
        count += 1
    return count


def test_poly_batch_matches_one_order_at_a_time():
    polys = [char_poly(g) for g in enumerate_connected(7, smallest=1)]
    for spec in CASE_SPECS:
        g = realize(spec)
        polys += [char_poly(g), spectra._line_spectrum(g)[0]]
    for f in polys:
        orders = [n for n, _ in candidate_orders(max(f.degree, 1))]
        got = multiplicities_in_poly(f, orders)
        assert list(got) == orders
        assert got == {n: multiplicity_in_poly(f, spectra._order_lambdas(n)[0]) for n in orders}
        assert got == {n: _multiplicity_by_division(f, n) for n in orders}


def _full_rank_mod_p(g, n):
    """Whether A - r_n*I has full rank mod p_n, by Gaussian elimination with
    modular inverses, one order at a time."""
    p, r = spectra._specialization_mod_p(n)
    size = g.vertex_count
    rows = [[(int(j in g.adj[i]) - r * (i == j)) % p for j in range(size)] for i in range(size)]
    for c in range(size):
        piv = next((row for row in rows if row[c]), None)
        if piv is None:
            return False
        rows.remove(piv)
        inv = pow(piv[c], p - 2, p)
        rows = [[(a - f * b) % p for a, b in zip(row, piv)] if (f := row[c] * inv) else row for row in rows]
    return True


def test_screen_certifies_exactly_the_full_rank_orders():
    big = realize(CASE_SPECS[2])
    orders = [n for n, _ in candidate_orders(big.vertex_count)]
    step = spectra._SCREEN_BLOCK_ENTRIES // big.vertex_count**2
    assert len(orders) > 2 * step  # three blocks or more
    graphs = [*enumerate_connected(6, smallest=1), PETERSEN, big]
    for g in graphs:
        orders = [n for n, _ in candidate_orders(g.vertex_count)]
        want = {n for n in orders if _full_rank_mod_p(g, n)}
        assert spectra._screen_full_rank(g, orders) == want, g
    assert 0 < len(want) < len(orders)


@settings(max_examples=40)
@given(connected_graphs(max_n=6))
def test_three_route_agreement(g):
    f = char_poly(g)
    spectrum = numeric_spectrum(g)
    for lam in candidate_pairs(g.vertex_count):
        via_poly = multiplicity_in_poly(f, lam)
        assert via_poly == annihilator_dimension(g, lam)
        numeric = numeric_multiplicity(spectrum, lam)
        if numeric is not None:
            assert numeric == via_poly
