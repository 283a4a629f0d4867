import hashlib
import json
import os
import sys
from functools import lru_cache

import pytest

from conftest import cycle, path, star
from lgmult import verify
from lgmult.certify import DEFAULT_RULES, RecognizerRules, is_optimal, optimal_certificate
from lgmult.enumeration import MAX_ENUM_VERTICES, MAX_TREE_VERTICES, enumerate_connected
from lgmult.families import FamilySpec, realize, two_cycles_edge
from lgmult.graphio import from_graph6, to_graph6
from lgmult.graphs import build_graph, induced_subgraph, multiplicity_bound, summarize
from lgmult.intpoly import div_exact
from lgmult.linegraph import line_graph
from lgmult.spectra import (
    Eigenvalue,
    candidate_orders,
    candidate_pairs,
    char_poly,
    eig_classes,
    multiplicity,
    multiplicity_in_poly,
)
from lgmult.verify import (
    LEMMA_NAMES,
    BoundViolation,
    EquivalenceFailure,
    LambdaFormFailure,
    VerificationReport,
    _verdict_string,
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


def test_main_theorem_checks_the_order_cap_before_sweeping(monkeypatch):
    def refuse(n, **kwargs):
        raise AssertionError(f"enumerated n = {n} before checking the cap")

    monkeypatch.setattr(verify, "enumerate_connected", refuse)
    with pytest.raises(ValueError, match="graph6"):
        verify_main_theorem(MAX_ENUM_VERTICES + 1)


def _refuse(*args):
    raise AssertionError("checked a graph before checking the cap")


def test_lemmas_check_the_order_cap_before_sweeping(monkeypatch):
    monkeypatch.setattr(verify, "_check_path_deletion", _refuse)
    with pytest.raises(ValueError, match="max_n"):
        verify_lemmas(MAX_ENUM_VERTICES + 1, samples=0)


def test_block_agreement_checks_the_order_cap_before_sweeping(monkeypatch):
    monkeypatch.setattr(verify, "block_structure", _refuse)
    with pytest.raises(ValueError, match="max_n"):
        verify_block_agreement(MAX_TREE_VERTICES + 1)


def test_check_graph_encodes_graph6_only_for_a_failure(monkeypatch):
    def refuse(g):
        raise AssertionError("check_graph encoded a graph that passed")

    monkeypatch.setattr(verify, "to_graph6", refuse)
    for g in (path(5), star(4), two_cycles_edge(4, 4), *_checkable_graphs(5)):
        assert check_graph(g).passed


def test_check_graph_certifies_only_a_mismatched_order(monkeypatch):
    def refuse(g, lam, rules):
        raise AssertionError("check_graph built a certificate for a graph that passed")

    monkeypatch.setattr(verify, "optimal_certificate", refuse)
    graphs = _checkable_graphs(6)
    assert sum(check_graph(g).passed for g in graphs) == len(graphs) == 138
    # a mutated recognizer disagrees somewhere, and only there is a certificate built
    with pytest.raises(AssertionError, match="built a certificate"):
        verify_graphs(graphs, RecognizerRules(path_residue_shift=1))


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
    report = verify_main_theorem(max_n, rules)
    assert not report.passed
    assert len(report.equivalence_failures) >= 1
    failure = report.equivalence_failures[0]
    assert failure.multiplicity != failure.bound or failure.verdict != "optimal"
    # the failure names its graph, although check_graph encodes it only then
    assert to_graph6(from_graph6(failure.graph6)) == failure.graph6


def test_unmutated_rules_survive_the_same_range():
    assert verify_main_theorem(6).passed


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
    assert cross_check_detail(build_graph(3, [(0, 1), (1, 2), (2, 0)])) == []
    petersen = build_graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
         (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert cross_check_detail(petersen) == []
    big_line = line_graph(two_cycles_edge(4, 4)).line
    assert cross_check_detail(big_line) == []
    assert multiplicity(big_line, Eigenvalue(1, 2)) == 3


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


def test_worker_count_is_clamped_to_the_cpu_count(monkeypatch):
    # reads the environment only; no pool is started
    cpus = os.cpu_count() or 1
    for value, want in (("20000", cpus), ("2", min(2, cpus)), ("0", 1), ("-3", 1), ("two", 1)):
        monkeypatch.setenv("LGMULT_WORKERS", value)
        assert verify._worker_count() == want, value
    monkeypatch.delenv("LGMULT_WORKERS")
    assert verify._worker_count() == 1


def test_report_serialization_shapes():
    report = verify_main_theorem(4)
    payload = report.to_json_dict()
    assert payload["passed"] is True
    assert payload["graphs_checked"] == report.graphs_checked
    table = report.summary_table()
    assert "PASS" in table and "graphs checked" in table


def test_failure_records_serialize_field_by_field():
    # no passing sweep emits a bound violation or a lambda-form failure, so
    # no pinned digest covers their JSON: pin its keys, order and types here
    records = (
        BoundViolation("C~", (1, 0, -3), 4, 3),
        EquivalenceFailure("C{", Eigenvalue(1, 5), "NotOptimal:tree-congruence", 1, 2),
        LambdaFormFailure("C^", (1, 1, -1), 2, (1, -1)),
    )
    assert [list(r.to_json_dict().items()) for r in records] == [
        [("graph6", "C~"), ("factor", [1, 0, -3]), ("multiplicity", 4), ("bound", 3)],
        [
            ("graph6", "C{"),
            ("lambda", {"a": 1, "b": 5}),
            ("verdict", "NotOptimal:tree-congruence"),
            ("multiplicity", 1),
            ("bound", 2),
        ],
        [("graph6", "C^"), ("factor", [1, 1, -1]), ("multiplicity", 2), ("residual", [1, -1])],
    ]


def test_a_failing_lemma_order_gives_one_record_per_lambda(monkeypatch):
    # raise G's line multiplicity at root order 10 (1/5 and 3/5) on the paw
    # only; the corpus checks compare per order and write per lambda, in
    # (b, a) order, skipping 2/5 and 4/5 of order 5 between them
    real = verify.line_multiplicities

    def doctored(g, orders):
        out = real(g, orders)
        if to_graph6(g) == "C{":
            out[10] += 2
        return out

    monkeypatch.setattr(verify, "line_multiplicities", doctored)
    failures = verify_lemmas(4, samples=0).to_json_dict()["lemma_failures"]
    lams = [{"a": 1, "b": 5}, {"a": 3, "b": 5}]
    assert failures["path_deletion"] == [
        {"lemma": "path_deletion", "graph6": "C{", "lambda": lam, "with_path": 2, "without_path": 0}
        for lam in lams
    ]
    probe = {"edge": [0, 1], "mult_drop_ok": False, "sub_optimal_ok": False, "pendant_increment_ok": True}
    assert failures["probe_equivalence"] == [
        {"lemma": "probe_equivalence", "graph6": "C{", "lambda": lam, "optimal": True, "probe": probe}
        for lam in lams
    ]
    assert failures["bridge"] == failures["path_absorption"] == []


def test_a_failing_nullity_order_gives_one_record_per_lambda(monkeypatch):
    # P_4 has 2cos(k*pi/5), k = 1..4, each once; a nullity one too high at
    # root order 10 disagrees at 1/5 and 3/5 only
    real = verify.annihilator_dimensions

    def doctored(g, orders):
        out = real(g, orders)
        out[10] += 1
        return out

    monkeypatch.setattr(verify, "annihilator_dimensions", doctored)
    assert cross_check_detail(path(4)) == [
        {"lambda": {"a": a, "b": 5}, "polynomial": 1, "nullity": 2, "numeric": 1} for a in (1, 3)
    ]


def test_congruence_laws_small():
    assert verify_congruence_laws(max_path=40, max_cycle=24, max_b=6) == []


def test_block_agreement_small():
    assert verify_block_agreement(8) == []


RULE_SETS = (
    DEFAULT_RULES,
    RecognizerRules(path_residue_shift=1),
    RecognizerRules(tree_residue_shift=1),
    RecognizerRules(halve_cycle_modulus=True),
)
RULE_IDS = ("default", "path_residue_shift", "tree_residue_shift", "halve_cycle_modulus")

# sha256 of the indented JSON report, elapsed aside, of verify_main_theorem(7)
# under each of RULE_SETS, with its count of equivalence failures
PINNED_REPORTS_7 = (
    (0, "cc773dd16ad54b068f7902a194f7eec8c500a5f675965ac72ea5844b3b8ba721"),
    (52, "acb0e7ead44dbbd1f4e580e5cbc4856a72a6d4b337c29d7cf7741c92220f9cc1"),
    (9, "6d5394220e68a00d8ee2d0491d2b207f624a2eb4b77effc443da8f80fff5ecac"),
    (7, "718736ee1f387d17d238fdc4d80b93ed28ed58d0b3835d3e8cecfb8150987153"),
)


@pytest.mark.parametrize("rules, pinned", zip(RULE_SETS, PINNED_REPORTS_7), ids=RULE_IDS)
def test_report_bytes_are_pinned(rules, pinned):
    payload = verify_main_theorem(7, rules).to_json_dict()
    payload.pop("elapsed")
    digest = hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()
    assert (len(payload["equivalence_failures"]), digest) == pinned


# one realized positive spec per structural case
CASE_SPECS = (
    FamilySpec("path", (1, 4), {"t": 3}),
    FamilySpec("tree", (2, 5), {"legs": 3, "steps": 4}, seed=1),
    FamilySpec("attached_cycles", (2, 5), {"tree": "spider", "legs": 3, "r": 1, "multiples": [1, 2]}),
    FamilySpec("two_cycles_edge", (1, 3), {"n1": 6, "n2": 12}),
    FamilySpec("attached_cycles", (2, 3), {"tree": "spider", "legs": 4, "r": 1, "multiples": [1] * 4}),
)


@lru_cache(maxsize=None)
def _checkable_graphs(max_n):
    """The connected non-cycle graphs on 2..max_n vertices, enumerated
    once for the tests that share them."""
    return tuple(g for g in enumerate_connected(max_n, smallest=2) if not summarize(g).is_cycle)


def _reference_check_graph(g, rules):
    """check_graph as a per-candidate scan: one certificate and one
    multiplicity for every lambda, without grouping by root order."""
    report = VerificationReport()
    s = summarize(g)
    if not s.connected or s.is_cycle or g.edge_count == 0:
        return report
    report.graphs_checked = 1
    g6 = to_graph6(g)
    line = line_graph(g).line
    bound = multiplicity_bound(g)
    line_poly = char_poly(line)
    for cls in eig_classes(line_poly):
        if cls.multiplicity > bound:
            report.bound_violations.append(
                BoundViolation(g6, cls.factor.coeffs, cls.multiplicity, bound)
            )
        if cls.multiplicity == bound:
            residual = cls.factor
            for lam in candidate_pairs(residual.degree):
                psi = lam.minimal_polynomial
                if psi.degree > residual.degree:
                    continue
                if residual(2) % psi(2) == 0:
                    try:
                        residual = div_exact(residual, psi)
                    except ValueError:
                        pass
                if residual.degree == 0:
                    break
            if residual.degree > 0:
                report.lambda_form_failures.append(
                    LambdaFormFailure(g6, cls.factor.coeffs, cls.multiplicity, residual.coeffs)
                )
    for lam in candidate_pairs(g.edge_count):
        cert = optimal_certificate(g, lam, rules)
        mult = multiplicity_in_poly(line_poly, lam)
        report.candidates_checked += 1
        if is_optimal(cert) != (mult == bound):
            report.equivalence_failures.append(
                EquivalenceFailure(g6, lam, _verdict_string(cert), mult, bound)
            )
    return report


def _without_elapsed(report):
    payload = report.to_json_dict()
    payload.pop("elapsed")
    return payload


@pytest.mark.parametrize("rules", RULE_SETS, ids=RULE_IDS)
def test_certificate_verdict_is_shared_by_each_root_order(rules):
    # check_graph decides once per order, and certifies only the first lambda of a mismatch
    for g in _checkable_graphs(7):
        for _, lams in candidate_orders(g.edge_count):
            first = _verdict_string(optimal_certificate(g, lams[0], rules))
            for lam in lams[1:]:
                assert _verdict_string(optimal_certificate(g, lam, rules)) == first, (
                    to_graph6(g), lam, rules,
                )


@pytest.mark.parametrize("rules", RULE_SETS, ids=RULE_IDS)
def test_check_graph_matches_the_per_candidate_scan(rules):
    graphs = [*_checkable_graphs(7), *(realize(spec) for spec in CASE_SPECS)]
    for g in graphs:
        assert _without_elapsed(check_graph(g, rules)) == _without_elapsed(
            _reference_check_graph(g, rules)
        ), (to_graph6(g), rules)


def test_case_specs_attain_the_bound():
    tags = set()
    for spec in CASE_SPECS:
        g = realize(spec)
        cert = optimal_certificate(g, spec.eigenvalue)
        assert is_optimal(cert)
        assert multiplicity(line_graph(g).line, spec.eigenvalue) == multiplicity_bound(g)
        tags.add(cert.case_tag)
    assert tags == {"PathCase", "TreeCase", "AttachedCycles", "TwoCyclesEdge", "ManyCycles"}


def test_check_graph_never_builds_the_line_graph(monkeypatch):
    sample = [*_checkable_graphs(7)][::25]
    sample.append(realize(CASE_SPECS[3]))  # two_cycles_edge, at the bound at 1/3 and 2/3
    sample.append(build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 3)]))  # optimal at no lambda
    rule_sets = (DEFAULT_RULES, RecognizerRules(halve_cycle_modulus=True))
    want = [_without_elapsed(_reference_check_graph(g, rules)) for g in sample for rules in rule_sets]
    assert want[-2]["passed"] and not want[-2]["equivalence_failures"]
    assert any(w["equivalence_failures"] for w in want)  # the mutation reads a multiplicity off R

    def refuse(g):
        raise AssertionError("check_graph built a line graph")

    for name, module in list(sys.modules.items()):
        if name.startswith("lgmult") and getattr(module, "line_graph", None) is line_graph:
            monkeypatch.setattr(module, "line_graph", refuse)
    got = [_without_elapsed(check_graph(g, rules)) for g in sample for rules in rule_sets]
    assert got == want
