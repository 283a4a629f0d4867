"""Acceptance gate: eight exhaustive checks at desk scale.

Each test prints one pass/fail line.  The first three share a single
sweep of all connected non-cycle graphs on up to eight vertices, so the
whole module stays inside the fifteen-minute single-core budget.
"""

import hashlib
import json
import sys

import pytest

from lgmult.certify import RecognizerRules, is_optimal, lambda_candidates, optimal_certificate
from lgmult.enumeration import enumerate_connected
from lgmult.families import negative_corpus, positive_corpus, realize
from lgmult.graphs import summarize
from lgmult.linegraph import line_graph
from lgmult.spectra import multiplicity
from lgmult.verify import (
    cross_check_detail,
    verify_block_agreement,
    verify_congruence_laws,
    verify_graphs,
    verify_lemmas,
    verify_main_theorem,
)

NUMERIC_TOLERANCE = 1e-8
MINUTES = 60.0

pytestmark = pytest.mark.acceptance

EXPECTED_TAGS = {
    "path": {"PathCase"},
    "spider": {"TreeCase"},
    "tree": {"TreeCase"},
    "attached_cycles": {"AttachedCycles", "ManyCycles"},
    "two_cycles_edge": {"TwoCyclesEdge"},
}


def announce(label: str, ok: bool) -> None:
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    assert ok, f"criterion {label} failed"


@pytest.fixture(scope="session")
def full_sweep():
    return verify_main_theorem(8)


def test_criterion_1_bound(full_sweep):
    ok = (
        full_sweep.bound_violations == []
        and full_sweep.graphs_checked == 12106
        and full_sweep.candidates_checked == 5_175_040
        and full_sweep.elapsed <= 15 * MINUTES
    )
    announce("1 multiplicity bound on all connected non-cycle graphs n <= 8", ok)


def test_criterion_2_equivalence(full_sweep):
    ok = full_sweep.equivalence_failures == []

    tree_report = verify_graphs(enumerate_connected(13, max_c=0, smallest=9))
    ok = ok and tree_report.passed

    low_cycle_stream = (
        g for g in enumerate_connected(11, max_c=2, smallest=9) if summarize(g).cyclomatic in (1, 2)
    )
    low_cycle_report = verify_graphs(low_cycle_stream)
    ok = ok and low_cycle_report.passed
    announce("2 certificate equivalence, plus trees n <= 13 and c <= 2 graphs n <= 11", ok)


def test_criterion_3_lambda_form(full_sweep):
    announce("3 bound-attaining eigenvalues all have the trig form", full_sweep.lambda_form_failures == [])


# sha256 of the indented JSON report of verify_main_theorem(8), elapsed
# aside, as for the pinned n <= 7 reports of test_verify.py
PINNED_SWEEP_REPORT_8 = "694a58ea9fe2841f737024975d6c8450b8c964d66bf1592d49112f5165044997"


def test_sweep_report_bytes_are_pinned(full_sweep):
    payload = full_sweep.to_json_dict()
    payload.pop("elapsed")
    assert hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest() == PINNED_SWEEP_REPORT_8


@pytest.fixture(scope="module")
def lemma_report():
    return verify_lemmas(max_n=7, samples=1000, seed=0)


def test_criterion_4_lemma_suite(lemma_report):
    congruence_failures = verify_congruence_laws(max_path=200, max_cycle=120, max_b=12)
    announce("4 congruence laws and reduction identities", congruence_failures == [] and lemma_report.passed)


# sha256 of the indented JSON report, elapsed aside, as for the pinned sweep
# reports of test_verify.py; 8,916 of its bridge pairs are skips
PINNED_LEMMA_REPORT = "6b01e594b48bfc0532ee0dbc115b2b8ef206185ee7271d1a3e0560281ddbc1f9"


def test_lemma_report_bytes_are_pinned(lemma_report):
    payload = lemma_report.to_json_dict()
    payload.pop("elapsed")
    assert payload["lemma_skips"] == {"bridge": 8916}
    assert hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest() == PINNED_LEMMA_REPORT


def test_criterion_5_oracle_agreement():
    disagreements = 0
    for g in enumerate_connected(8, smallest=2):
        disagreements += len(cross_check_detail(g))
    announce("5 polynomial, nullity, and numeric multiplicities agree", disagreements == 0)


def test_criterion_6_block_conditions():
    announce("6 block-distance and pendant-pair conditions agree on trees n <= 13", verify_block_agreement(13) == [])


def test_criterion_7_generator_soundness():
    ok = True
    for spec in positive_corpus(per_case=200, seed=0):
        g = realize(spec)
        cert = optimal_certificate(g, spec.eigenvalue)
        if not is_optimal(cert) or cert.case_tag not in EXPECTED_TAGS[spec.case]:
            ok = False
            break
        s = summarize(g)
        bound = 2 * s.cyclomatic + s.pendant_count - 1
        if multiplicity(line_graph(g).line, spec.eigenvalue) != bound:
            ok = False
            break
    if ok:
        for spec in negative_corpus(per_case=200, seed=0):
            g = realize(spec)
            if any(is_optimal(optimal_certificate(g, lam)) for lam in lambda_candidates(g)):
                ok = False
                break
    announce("7 family generators certify and attain the bound; negatives never do", ok)


def test_criterion_8_mutation_sensitivity():
    mutations = (
        RecognizerRules(path_residue_shift=1),
        RecognizerRules(tree_residue_shift=1),
        RecognizerRules(halve_cycle_modulus=True),
    )
    ok = all(
        len(verify_main_theorem(7, rules).equivalence_failures) >= 1
        for rules in mutations
    )
    announce("8 single-constant recognizer mutations are caught", ok)
