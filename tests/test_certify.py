import pytest
from hypothesis import given

from conftest import cycle, cycle_plus_pendant, path, spider, star
from lgmult.certify import (
    AttachedCycles,
    CycleDecomposition,
    DecompositionFailure,
    IsACycle,
    ManyCycles,
    NoQualifyingEdge,
    NotAPath,
    NotATree,
    NotOptimal,
    PathCase,
    TreeCase,
    TwoCyclesEdge,
    certificate_to_json,
    cycle_order_modulus,
    edge_reduction_probe,
    is_optimal,
    lambda_candidates,
    optimal_certificate,
    path_certificate,
    pendant_cycle_decompose,
    theorem31_conditions,
    tree_certificate,
)
from lgmult.families import make_B, make_theta, two_cycles_edge
from lgmult.graphs import Disconnected, build_graph, summarize
from lgmult.linegraph import block_structure, line_graph
from lgmult.spectra import Eigenvalue, candidate_pairs, multiplicity
from test_graphs import connected_graphs


def test_lambda_candidates_sized_by_edge_count():
    assert [(l.a, l.b) for l in lambda_candidates(path(2))] == [(1, 2), (1, 3), (2, 3)]
    assert lambda_candidates(star(3)) == list(candidate_pairs(3))


def test_cycle_order_modulus_parity():
    assert cycle_order_modulus(Eigenvalue(2, 3)) == 3
    assert cycle_order_modulus(Eigenvalue(1, 2)) == 4
    assert cycle_order_modulus(Eigenvalue(1, 3)) == 6


def test_path_certificate_examples():
    cert = path_certificate(path(4), Eigenvalue(1, 2))
    assert isinstance(cert, PathCase) and cert.i == 1 and cert.m == 1
    assert isinstance(path_certificate(path(4), Eigenvalue(2, 3)), NotOptimal)
    assert isinstance(path_certificate(path(5), Eigenvalue(1, 4)), NotOptimal)
    assert isinstance(path_certificate(path(4), Eigenvalue(1, 4)), PathCase)
    with pytest.raises(NotAPath):
        path_certificate(star(3), Eigenvalue(1, 2))


def test_tree_certificate_examples():
    cert = tree_certificate(star(3), Eigenvalue(2, 3))
    assert isinstance(cert, TreeCase) and cert.k == 1 and cert.q == 1
    assert cert.pendant_count == 3

    cert = tree_certificate(star(3), Eigenvalue(1, 2))
    assert isinstance(cert, NotOptimal) and cert.reason == "lambda-form"

    cert = tree_certificate(spider(3, 2), Eigenvalue(2, 5))
    assert isinstance(cert, TreeCase) and cert.k == 1 and cert.q == 2

    # p = 2 routes through the path rule
    assert isinstance(tree_certificate(path(4), Eigenvalue(1, 2)), PathCase)

    with pytest.raises(NotATree):
        tree_certificate(cycle(4), Eigenvalue(1, 2))


def test_theorem31_conditions_examples():
    k3_blocks = block_structure(line_graph(star(3)).line)
    assert theorem31_conditions(k3_blocks, Eigenvalue(2, 3))

    legs2 = block_structure(line_graph(spider(3, 2)).line)
    assert theorem31_conditions(legs2, Eigenvalue(2, 5))
    assert not theorem31_conditions(legs2, Eigenvalue(2, 3))

    with pytest.raises(ValueError):
        theorem31_conditions(k3_blocks, Eigenvalue(1, 2))


def test_decompose_cycle_with_pendant_path():
    # C_4 with a two-edge tail: remainder is P_2
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
    dec = pendant_cycle_decompose(g)
    assert isinstance(dec, CycleDecomposition)
    assert summarize(dec.tree).is_path and dec.tree.vertex_count == 2
    (att,) = dec.attachments
    assert att.order == 4 and att.tree_pendant == 4 and att.joining_edge == (0, 4)


def test_decompose_rejects_theta():
    theta = make_theta(2, 2, 2)
    dec = pendant_cycle_decompose(theta)
    assert isinstance(dec, DecompositionFailure)
    assert dec.reason == "cycles-share-vertices"


def test_decompose_two_triangles_edge_is_special():
    dec = pendant_cycle_decompose(two_cycles_edge(3, 3))
    assert isinstance(dec, DecompositionFailure)
    assert dec.reason == "two-cycles-edge"
    assert dec.cycle_orders == (3, 3)


def test_decompose_rejects_shared_cutpoint():
    dec = pendant_cycle_decompose(make_B(4, 1, 4))
    assert isinstance(dec, DecompositionFailure)
    assert dec.reason in ("attachment-degree", "cycles-share-vertices")


@given(connected_graphs())
def test_pendant_cycle_decompose_cycles_are_disjoint(g):
    s = summarize(g)
    if s.cyclomatic == 0 or s.is_cycle:
        return
    dec = pendant_cycle_decompose(g)
    if isinstance(dec, DecompositionFailure):
        return
    seen: set[int] = set()
    for att in dec.attachments:
        assert seen.isdisjoint(att.cycle_vertices)
        seen.update(att.cycle_vertices)


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
    rep = edge_reduction_probe(g, Eigenvalue(1, 2))
    assert rep.all_ok and rep.mult_drop_ok and rep.sub_optimal_ok and rep.pendant_increment_ok

    rep = edge_reduction_probe(make_B(4, 1, 4), Eigenvalue(1, 2))
    assert not rep.all_ok


def test_probe_matches_optimality_on_theta():
    theta = make_theta(2, 2, 2)
    bound = 2 * 2 + 0 - 1
    for lam in lambda_candidates(theta):
        probe = edge_reduction_probe(theta, lam)
        optimal = multiplicity(line_graph(theta).line, lam) == bound
        assert probe.all_ok == optimal


def test_probe_requires_qualifying_edge():
    with pytest.raises(NoQualifyingEdge):
        edge_reduction_probe(path(4), Eigenvalue(1, 2))


def test_optimal_graphs_have_no_adjacent_cycle_majors():
    # in every optimal graph with c >= 1, major vertices on a common cycle
    # are pairwise non-adjacent
    from lgmult.enumeration import enumerate_connected

    for n in range(4, 8):
        for g in enumerate_connected(n):
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
            majors = set(s.major_vertices)
            bridges = set(s.bridges)
            for u, v in g.edges:
                if u in majors and v in majors:
                    assert (u, v) in bridges
