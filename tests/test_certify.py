from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cycle, cycle_plus_pendant, is_tree, path, spider, star
from lgmult import certify, spectra, verify
from lgmult.certify import (
    AttachedCycles,
    IsACycle,
    ManyCycles,
    NoQualifyingEdge,
    NotOptimal,
    PathCase,
    ProbeReport,
    RecognizerRules,
    Shape,
    TreeCase,
    TwoCyclesEdge,
    _tree_facts,
    _tree_verdict,
    _verdict,
    certificate_to_json,
    edge_reduction_probe,
    is_optimal,
    lambda_candidates,
    optimal_certificate,
    optimal_orders,
    pendant_cycle_decompose,
    theorem31_conditions,
)
from lgmult.enumeration import enumerate_connected
from lgmult.families import make_B, make_theta, negative_corpus, positive_corpus, realize, two_cycles_edge
from lgmult.graphs import (
    Disconnected,
    bfs_distances,
    biconnected_blocks,
    bridges,
    build_graph,
    delete_edge,
    induced_subgraph,
    is_connected,
    multiplicity_bound,
    summarize,
)
from lgmult.linegraph import EmptyGraph, block_structure, line_graph
from lgmult.spectra import Eigenvalue, candidate_orders, candidate_pairs, multiplicity
from test_graphs import connected_graphs
from test_verify import CASE_SPECS, RULE_IDS, RULE_SETS


def test_lambda_candidates_sized_by_edge_count():
    assert [(l.a, l.b) for l in lambda_candidates(path(2))] == [(1, 2), (1, 3), (2, 3)]
    assert lambda_candidates(star(3)) == list(candidate_pairs(3))


def test_cycle_order_modulus_parity():
    # attached-cycle orders must be divisible by the root order of lambda:
    # b when a is even, 2b when a is odd
    def verdict(g, lam, rules=RecognizerRules()):
        cert = optimal_certificate(g, lam, rules)
        return cert.case_tag if is_optimal(cert) else cert.reason

    assert verdict(two_cycles_edge(3, 3), Eigenvalue(2, 3)) == "TwoCyclesEdge"
    assert verdict(two_cycles_edge(4, 4), Eigenvalue(1, 2)) == "TwoCyclesEdge"
    assert verdict(two_cycles_edge(3, 3), Eigenvalue(1, 2)) == "cycle-orders"
    assert verdict(two_cycles_edge(6, 6), Eigenvalue(1, 3)) == "TwoCyclesEdge"
    assert verdict(two_cycles_edge(3, 3), Eigenvalue(1, 3)) == "cycle-orders"
    halved = RecognizerRules(halve_cycle_modulus=True)
    assert verdict(two_cycles_edge(3, 3), Eigenvalue(1, 3), halved) == "TwoCyclesEdge"


def test_path_certificate_examples():
    cert = optimal_certificate(path(4), Eigenvalue(1, 2))
    assert isinstance(cert, PathCase) and cert.i == 1 and cert.m == 1
    assert isinstance(optimal_certificate(path(4), Eigenvalue(2, 3)), NotOptimal)
    assert isinstance(optimal_certificate(path(5), Eigenvalue(1, 4)), NotOptimal)
    assert isinstance(optimal_certificate(path(4), Eigenvalue(1, 4)), PathCase)


def test_tree_certificate_examples():
    cert = optimal_certificate(star(3), Eigenvalue(2, 3))
    assert isinstance(cert, TreeCase) and cert.k == 1 and cert.q == 1
    assert cert.pendant_count == 3

    cert = optimal_certificate(star(3), Eigenvalue(1, 2))
    assert isinstance(cert, NotOptimal) and cert.reason == "lambda-form"

    cert = optimal_certificate(spider(3, 2), Eigenvalue(2, 5))
    assert isinstance(cert, TreeCase) and cert.k == 1 and cert.q == 2

    # p = 2 routes through the path rule
    assert isinstance(optimal_certificate(path(4), Eigenvalue(1, 2)), PathCase)

    for n in (0, 1):  # no edge, so no line graph to attain a bound
        with pytest.raises(EmptyGraph):
            optimal_certificate(build_graph(n, []), Eigenvalue(2, 3))


def test_theorem31_conditions_examples():
    k3_blocks = block_structure(line_graph(star(3)).line)
    assert theorem31_conditions(k3_blocks, Eigenvalue(2, 3))

    legs2 = block_structure(line_graph(spider(3, 2)).line)
    assert theorem31_conditions(legs2, Eigenvalue(2, 5))
    assert not theorem31_conditions(legs2, Eigenvalue(2, 3))

    with pytest.raises(ValueError):
        theorem31_conditions(k3_blocks, Eigenvalue(1, 2))


def test_decompose_cycle_with_pendant_path():
    # C_4 with a two-edge tail: remainder P_2 on 4, 5, read in G's labels
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
    sh = pendant_cycle_decompose(g)
    assert sh.c == 1 and sh.failure == ""
    assert sh.cycle_orders == (4,)
    assert sh.attachment_pendants == (4,)
    assert sh.tree_vertices == (4, 5)
    assert sh.tree == (2, 1, 0)


def test_decompose_rejects_theta():
    sh = pendant_cycle_decompose(make_theta(2, 2, 2))
    assert sh == Shape(2, "shape:cycles-share-vertices")


def test_decompose_two_triangles_edge_is_special():
    # no remainder: the cycle orders, and no tree part
    sh = pendant_cycle_decompose(two_cycles_edge(3, 3))
    assert sh == Shape(2, cycle_orders=(3, 3))
    assert sh.tree is None


def test_decompose_rejects_shared_cutpoint():
    sh = pendant_cycle_decompose(make_B(4, 1, 4))
    assert sh.failure in ("shape:attachment-degree", "shape:cycles-share-vertices")


def test_decompose_checks_the_attachment_points():
    # two triangles hung from one vertex y = 6 that also has a tree edge:
    # y keeps tree degree 1, so the collision check is the one that fails
    g = build_graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 6), (3, 6), (6, 7)])
    assert pendant_cycle_decompose(g) == Shape(2, "shape:attachment-collision")
    # the cycle's outside neighbour is a leaf of G, so tree degree 0
    assert pendant_cycle_decompose(cycle_plus_pendant(4)) == Shape(1, "shape:attachment-not-tree-pendant")


def test_decompose_reads_a_tree_as_its_own_tree_part():
    assert pendant_cycle_decompose(path(4)) == Shape(0, tree=(2, 3, 0))
    assert pendant_cycle_decompose(spider(3, 2)) == Shape(0, tree=(3, 4, 0))
    assert pendant_cycle_decompose(star(4)) == Shape(0, tree=(4, 2, 0))
    with pytest.raises(IsACycle):
        pendant_cycle_decompose(cycle(4))
    with pytest.raises(Disconnected):
        pendant_cycle_decompose(build_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(EmptyGraph):
        pendant_cycle_decompose(build_graph(1, []))


@given(connected_graphs())
def test_pendant_cycle_decompose_partitions_the_vertices(g):
    s = summarize(g)
    if s.cyclomatic == 0 or s.is_cycle:
        return
    sh = pendant_cycle_decompose(g)
    if sh.failure:
        return
    # c disjoint cycles and the remainder tree cover G
    assert len(sh.cycle_orders) == sh.c
    assert sum(sh.cycle_orders) + len(sh.tree_vertices) == g.vertex_count
    assert set(sh.attachment_pendants) <= set(sh.tree_vertices)


def test_tree_part_read_in_g_equals_the_built_tree():
    # each cycle hangs from one bridge, so G's distances and pendants are the
    # tree's; the n <= 8 walk stops at c = 2, since three pendant cycles and
    # a tree need more vertices
    graphs = list(enumerate_connected(8, smallest=4, max_c=2))
    graphs += [realize(spec) for spec in positive_corpus(200, 0) + negative_corpus(200, 0)]
    checked = 0
    for g in graphs:
        s = summarize(g)
        if s.cyclomatic == 0 or s.is_cycle:
            continue
        sh = pendant_cycle_decompose(g)
        if not sh.tree_vertices:
            continue
        t, _ = induced_subgraph(g, sh.tree_vertices)
        assert is_tree(t)
        assert sh.tree == _tree_facts(t, summarize(t).pendant_vertices), g
        checked += 1
    assert checked >= 216  # 16 from the walk, 200 attached_cycles specs


def test_optimal_certificate_attached_cycle():
    # C_4 joined by an edge to one end of P_2: remainder tree P_2, c=1, p=1
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
    cert = optimal_certificate(g, Eigenvalue(1, 2))
    assert isinstance(cert, AttachedCycles)
    assert cert.cycle_orders == (4,) and cert.c == 1
    assert multiplicity(line_graph(g).line, Eigenvalue(1, 2)) == 2  # = 2c+p-1


def test_bare_pendant_vertex_is_not_a_remainder_tree():
    # C_4 plus a single pendant edge leaves no tree behind the joining edge,
    # so the shape check fails and the exact multiplicity stays below 2c+p-1
    g = cycle_plus_pendant(4)
    cert = optimal_certificate(g, Eigenvalue(1, 2))
    assert isinstance(cert, NotOptimal) and cert.reason.startswith("shape:")
    assert multiplicity(line_graph(g).line, Eigenvalue(1, 2)) == 1


def test_optimal_certificate_two_cycles_edge():
    g = two_cycles_edge(4, 4)
    cert = optimal_certificate(g, Eigenvalue(1, 2))
    assert isinstance(cert, TwoCyclesEdge) and cert.orders == (4, 4)
    assert multiplicity(line_graph(g).line, Eigenvalue(1, 2)) == 3

    cert = optimal_certificate(two_cycles_edge(3, 3), Eigenvalue(2, 3))
    assert isinstance(cert, TwoCyclesEdge)

    cert = optimal_certificate(two_cycles_edge(3, 4), Eigenvalue(2, 3))
    assert isinstance(cert, NotOptimal) and cert.reason == "cycle-orders"


def test_optimal_certificate_b_graph_not_optimal():
    cert = optimal_certificate(make_B(4, 1, 4), Eigenvalue(1, 2))
    assert isinstance(cert, NotOptimal)
    assert cert.reason.startswith("shape:")


def test_optimal_certificate_many_cycles():
    g = build_graph(13, [
        (0, 1), (0, 2), (0, 3),
        (4, 5), (5, 6), (4, 6), (1, 4),
        (7, 8), (8, 9), (7, 9), (2, 7),
        (10, 11), (11, 12), (10, 12), (3, 10),
    ])
    cert = optimal_certificate(g, Eigenvalue(2, 3))
    assert isinstance(cert, ManyCycles)
    assert cert.c == 3 and cert.q == 1 and cert.k == 1
    assert cert.cycle_orders == (3, 3, 3)
    # the theorem's bound: 2c + p - 1 with p = 0
    assert multiplicity(line_graph(g).line, Eigenvalue(2, 3)) == 5


def test_no_order_passes_when_3c_exceeds_n():
    # passing with c >= 1 needs c vertex-disjoint cycles of order >= 3
    graphs = list(enumerate_connected(8, smallest=3))
    graphs += [realize(spec) for spec in positive_corpus(200, 0) + negative_corpus(200, 0)]
    checked = 0
    for g in graphs:
        s = summarize(g)
        if s.is_cycle or 3 * s.cyclomatic <= g.vertex_count:
            continue
        sh = pendant_cycle_decompose(g)
        assert sh.failure, g
        for rules in RULE_SETS:
            assert all(_verdict(sh, n, rules) for n, _ in candidate_orders(g.edge_count)), g
            assert optimal_orders(g, rules) == frozenset(), g
        checked += 1
    assert checked == 11_611  # 11,600 from the walk, 11 from the corpora


def test_optimal_orders_rejects_graphs_out_of_scope():
    # K4 + K1 has 3c = 9 > 5 vertices: the check for that must not answer first
    k4_and_k1 = build_graph(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(Disconnected):
        optimal_orders(k4_and_k1)
    with pytest.raises(IsACycle):
        optimal_orders(cycle(5))
    with pytest.raises(EmptyGraph):
        optimal_orders(build_graph(1, []))


def test_optimal_certificate_rejects_cycles_and_disconnected():
    with pytest.raises(IsACycle):
        optimal_certificate(cycle(5), Eigenvalue(1, 2))
    with pytest.raises(Disconnected):
        optimal_certificate(build_graph(4, [(0, 1), (2, 3)]), Eigenvalue(1, 2))


def test_is_optimal_and_json_shape():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
    cert = optimal_certificate(g, Eigenvalue(1, 2))
    assert is_optimal(cert)
    data = certificate_to_json(cert)
    assert data["case_tag"] == "AttachedCycles"
    assert data["lambda"] == {"a": 1, "b": 2}
    assert data["parameters"]["cycle_orders"] == [4]

    bad = optimal_certificate(g, Eigenvalue(1, 5))
    assert not is_optimal(bad)
    data = certificate_to_json(bad)
    assert data["case_tag"] == "NotOptimal" and "reason" in data


def test_probe_on_optimal_and_non_optimal():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
    zero = Eigenvalue(1, 2).n
    rep = edge_reduction_probe(g, [zero])[zero]
    assert rep.all_ok and rep.mult_drop_ok and rep.sub_optimal_ok and rep.pendant_increment_ok

    assert not edge_reduction_probe(make_B(4, 1, 4), [zero])[zero].all_ok


def test_probe_matches_optimality_on_theta():
    theta = make_theta(2, 2, 2)
    bound = 2 * 2 + 0 - 1
    for lam in lambda_candidates(theta):
        probe = edge_reduction_probe(theta, [lam.n])[lam.n]
        optimal = multiplicity(line_graph(theta).line, lam) == bound
        assert probe.all_ok == optimal


def test_probe_requires_qualifying_edge():
    with pytest.raises(NoQualifyingEdge):
        edge_reduction_probe(path(4), [Eigenvalue(1, 2).n])


def _reference_probe(g, lam):
    """The three reduction conditions at one lambda, on the smallest
    non-bridge edge with an endpoint of degree >= 3, with both
    multiplicities taken on the m x m line graphs."""
    edge = next(
        e for e in sorted(g.edges)
        if is_connected(delete_edge(g, e)) and max(g.degree(e[0]), g.degree(e[1])) >= 3
    )
    reduced = delete_edge(g, edge)
    m_g = multiplicity(line_graph(g).line, lam)
    m_r = multiplicity(line_graph(reduced).line, lam)
    return ProbeReport(
        edge,
        m_g == m_r + 1,
        m_r == multiplicity_bound(reduced),
        summarize(reduced).pendant_count == summarize(g).pendant_count + 1,
    )


def test_probe_matches_the_per_lambda_reference_up_to_6_vertices():
    probed = 0
    for g in enumerate_connected(6, smallest=3):
        s = summarize(g)
        if s.cyclomatic == 0:
            continue
        orders = [n for n, _ in candidate_orders(g.edge_count)]
        if s.is_cycle:
            with pytest.raises(NoQualifyingEdge):
                edge_reduction_probe(g, orders)
            continue
        probes = edge_reduction_probe(g, orders)
        assert list(probes) == orders
        for lam in candidate_pairs(g.edge_count):
            assert probes[lam.n] == _reference_probe(g, lam), (g, lam)
        probed += 1
    assert probed == 125


def test_lemma_probe_reduces_each_graph_once(monkeypatch):
    # one G - e and the two R's of G and G - e per probed graph, for all
    # of its root orders at once
    probe, delete, spectrum = edge_reduction_probe, certify.delete_edge, spectra._line_spectrum
    reductions, spectra_built, per_probe = [], [], []

    def probe_spy(g, orders):
        reductions.clear()
        spectra_built.clear()
        out = probe(g, orders)
        per_probe.append((len(reductions), [h.edge_count for h in spectra_built]))
        return out

    def delete_spy(g, e):
        reductions.append(g)
        return delete(g, e)

    def spectrum_spy(g):
        spectra_built.append(g)
        return spectrum(g)

    monkeypatch.setattr(verify, "edge_reduction_probe", probe_spy)
    monkeypatch.setattr(certify, "delete_edge", delete_spy)
    monkeypatch.setattr(spectra, "_line_spectrum", spectrum_spy)
    assert verify.verify_lemmas(5, samples=20).passed
    assert len(per_probe) > 20
    assert all(reduced == 1 and len(edges) == 2 and edges[0] == edges[1] + 1 for reduced, edges in per_probe)


def test_optimal_graphs_have_no_adjacent_cycle_majors():
    # in every optimal graph with c >= 1, major vertices on a common cycle
    # are pairwise non-adjacent
    for g in enumerate_connected(7, smallest=4):
        s = summarize(g)
        if s.is_cycle or s.cyclomatic < 1:
            continue
        hit = None
        for lam in lambda_candidates(g):
            cert = optimal_certificate(g, lam)
            if is_optimal(cert):
                hit = lam
                break
        if hit is None:
            continue
        cut_edges = set(bridges(g))
        for u, v in g.edges:
            if g.degree(u) >= 3 and g.degree(v) >= 3:
                assert (u, v) in cut_edges


# ---------------------------------------------------------------------------
# the recognizer against a per-call reference


@lru_cache(maxsize=None)
def _all_pendant_pair_distances(t):
    pend = summarize(t).pendant_vertices
    return tuple(bfs_distances(t, u)[v] for i, u in enumerate(pend) for v in pend[i + 1 :])


def _reference_tree(t, lam, rules):
    """The tree rule as a scan over every pendant pair, once per lambda."""
    s = summarize(t)
    ds = _all_pendant_pair_distances(t)
    if s.pendant_count == 2:
        m = lam.b - 1
        if ds[0] % (m + 1) == (m - rules.path_residue_shift) % (m + 1):
            return PathCase(lam=lam, i=lam.a, m=m)
        return NotOptimal(lam=lam, reason="tree-congruence")
    if lam.a % 2:
        return NotOptimal(lam=lam, reason="lambda-form")
    q = (lam.b - 1) // 2
    want = (2 * q - rules.tree_residue_shift) % lam.b
    if all(d % lam.b == want for d in ds):
        return TreeCase(lam=lam, k=lam.a // 2, q=q, pendant_count=s.pendant_count)
    return NotOptimal(lam=lam, reason="tree-congruence")


def _reference_certificate(g, lam, rules):
    """optimal_certificate with every graph fact looked up again for each
    lambda, in the fixed checking order."""
    if g.vertex_count == 0 or g.edge_count == 0:
        raise EmptyGraph("no edge")
    s = summarize(g)
    if not s.connected:
        raise Disconnected("disconnected")
    if s.is_cycle:
        raise IsACycle("cycle")
    c = s.cyclomatic
    if c == 0:
        return _reference_tree(g, lam, rules)
    if c >= 3 and lam.a % 2:
        return NotOptimal(lam=lam, reason="lambda-form")
    failure = pendant_cycle_decompose(g).failure
    if failure:
        return NotOptimal(lam=lam, reason=failure)
    # the cycles are the cyclic blocks; the tree part is what they leave
    blocks = tuple(b for b in biconnected_blocks(g) if len(b) >= 3)
    orders = tuple(len(b) for b in blocks)
    mod = max(1, lam.n // 2) if rules.halve_cycle_modulus else lam.n
    if any(o % mod for o in orders):
        return NotOptimal(lam=lam, reason="cycle-orders")
    covered = {v for b in blocks for v in b}
    tree_vertices = tuple(v for v in range(g.vertex_count) if v not in covered)
    if not tree_vertices:
        return TwoCyclesEdge(lam=lam, orders=tuple(sorted(orders)))
    tree, _ = induced_subgraph(g, tree_vertices)
    if not is_optimal(_reference_tree(tree, lam, rules)):
        return NotOptimal(lam=lam, reason="tree-congruence")
    if summarize(tree).pendant_count < c:
        return NotOptimal(lam=lam, reason="pendant-deficit")
    if c <= 2:
        pendants = tuple(next(w for v in b for w in g.adj[v] if w not in b) for b in blocks)
        return AttachedCycles(
            lam=lam, tree_vertices=tree_vertices, cycle_orders=orders,
            attachment_pendants=pendants, c=c,
        )
    return ManyCycles(
        lam=lam, tree_vertices=tree_vertices, cycle_orders=orders, c=c,
        q=(lam.b - 1) // 2, k=lam.a // 2,
    )


def _outcome(fn, *args):
    """The certificate (equal certificates have the same type, fields and
    certificate_to_json) or the name of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc).__name__


@lru_cache(maxsize=None)
def _recognizer_corpus():
    graphs = list(enumerate_connected(7, smallest=1))
    graphs += [realize(spec) for spec in CASE_SPECS]
    return tuple(graphs + [realize(spec) for spec in negative_corpus(50, 0)])


@pytest.mark.parametrize("rules", RULE_SETS, ids=RULE_IDS)
def test_optimal_certificate_matches_the_per_call_reference(rules):
    for g in _recognizer_corpus():
        s = summarize(g)
        optimal = set()
        for lam in lambda_candidates(g) or [Eigenvalue(1, 2)]:
            want = _outcome(_reference_certificate, g, lam, rules)
            assert _outcome(optimal_certificate, g, lam, rules) == want, (g, lam)
            if not isinstance(want, str) and is_optimal(want):
                optimal.add(lam.n)
        if s.connected and not s.is_cycle and g.edge_count > 0:
            assert optimal_orders(g, rules) == optimal, g


@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=12),
    st.integers(2, 40),
    st.integers(0, 39),
    st.booleans(),
)
def test_residue_form_matches_the_all_pairs_test(ds, b, w, path_rule):
    # every d = w (mod b)  <=>  b | gcd(d - d0) and d0 = w (mod b)
    w %= b
    if path_rule:
        lam, rules = Eigenvalue(1, b), RecognizerRules(path_residue_shift=b - 1 - w)
    else:
        b += 1 - b % 2  # the tree rule needs lambda = (2k, 2q+1)
        w %= b
        lam, rules = Eigenvalue(2, b), RecognizerRules(tree_residue_shift=b - 1 - w)
    p = 2 if path_rule else 3
    verdict = _tree_verdict((p, ds[0], gcd(*(d - ds[0] for d in ds))), lam.n, rules)
    assert (verdict == "") == all(d % b == w for d in ds)
