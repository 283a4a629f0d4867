import pytest

from conftest import cycle, path, star
from lgmult.certify import RecognizerRules
from lgmult.families import FamilySpec, realize, two_cycles_edge
from lgmult.graphs import build_graph, induced_subgraph
from lgmult.linegraph import line_graph
from lgmult.spectra import Eigenvalue, multiplicity
from lgmult.verify import (
    LEMMA_NAMES,
    cross_check,
    cross_check_detail,
    check_graph,
    verify_block_agreement,
    verify_congruence_laws,
    verify_graphs,
    verify_lemmas,
    verify_main_theorem,
)


def test_main_theorem_small_sweep():
    report = verify_main_theorem(5)
    assert report.passed
    # 1 + 2 + 6 + 21 connected graphs on 2..5 vertices, minus C_3, C_4, C_5
    assert report.graphs_checked == 27
    assert report.bound_violations == []
    assert report.equivalence_failures == []
    assert report.lambda_form_failures == []


def test_check_graph_reports_on_graphs_past_62_vertices():
    # graph6 needs its long form for this 80-vertex path
    report = check_graph(realize(FamilySpec("path", (1, 40), {"t": 2})))
    assert report.graphs_checked == 1
    assert report.passed


def test_main_theorem_rejects_tiny_range():
    with pytest.raises(ValueError):
        verify_main_theorem(1)


def test_verify_graphs_skips_cycles_and_disconnected():
    two_parts = build_graph(4, [(0, 1), (2, 3)])
    report = verify_graphs([cycle(5), two_parts, path(3)])
    assert report.graphs_checked == 1
    assert report.passed


@pytest.mark.parametrize(
    "rules,max_n",
    [
        (RecognizerRules(path_residue_shift=1), 2),
        (RecognizerRules(tree_residue_shift=1), 4),
        (RecognizerRules(halve_cycle_modulus=True), 6),
    ],
)
def test_mutated_recognizers_are_caught(rules, max_n):
    report = verify_main_theorem(max_n, rules, stop_after=1)
    assert not report.passed
    assert len(report.equivalence_failures) >= 1
    failure = report.equivalence_failures[0]
    assert failure.multiplicity != failure.bound or failure.verdict != "optimal"


def test_unmutated_rules_survive_the_same_range():
    assert verify_main_theorem(6, stop_after=1).passed


def test_lemma_sweep_small():
    report = verify_lemmas(max_n=5, samples=40, seed=0)
    assert report.passed
    assert set(report.lemma_failures) <= set(LEMMA_NAMES)
    # bridge skips happen whenever a sampled composite has no bridge edge
    assert all(count >= 0 for count in report.lemma_skips.values())


def test_path_absorption_direct_instance():
    # gluing a 3-vertex path onto a leaf of the star equals deleting that leaf
    lam = Eigenvalue(2, 3)
    h = star(3)
    w = 3
    edges = list(h.edges) + [(w, 4), (4, 5)]
    glued = build_graph(6, edges)
    host_minus, _ = induced_subgraph(h, [x for x in range(4) if x != w])
    assert multiplicity(glued, lam) == multiplicity(host_minus, lam) == 0


def test_cross_check_known_graphs():
    assert cross_check(build_graph(3, [(0, 1), (1, 2), (2, 0)]))
    petersen = build_graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
         (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert cross_check(petersen)
    big_line = line_graph(two_cycles_edge(4, 4)).line
    assert cross_check(big_line)
    assert multiplicity(big_line, Eigenvalue(1, 2)) == 3
    assert cross_check_detail(big_line) == []


def test_reports_are_deterministic():
    first = verify_main_theorem(4).to_json_dict()
    second = verify_main_theorem(4).to_json_dict()
    first.pop("elapsed")
    second.pop("elapsed")
    assert first == second


def test_worker_env_does_not_change_results(monkeypatch):
    serial = verify_main_theorem(4).to_json_dict()
    monkeypatch.setenv("LGMULT_WORKERS", "2")
    parallel = verify_main_theorem(4).to_json_dict()
    serial.pop("elapsed")
    parallel.pop("elapsed")
    assert serial == parallel


def test_report_serialization_shapes():
    report = verify_main_theorem(4)
    payload = report.to_json_dict()
    assert payload["passed"] is True
    assert payload["graphs_checked"] == report.graphs_checked
    table = report.summary_table()
    assert "PASS" in table and "graphs checked" in table


def test_congruence_laws_small():
    assert verify_congruence_laws(max_path=40, max_cycle=24, max_b=6) == []


def test_block_agreement_small():
    assert verify_block_agreement(8) == []
