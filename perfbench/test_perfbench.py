"""Tests of the benchmark itself: every check rejects a wrong answer, and
the tracer survives a layer the program does not have.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools

import pytest

import layers
import speed
import workloads
from lgmult import certify, enumeration, families, spectra, verify
from lgmult.certify import RecognizerRules
from lgmult.intpoly import IntPoly
from lgmult.verify import VerificationReport

MUTANT = RecognizerRules(path_residue_shift=1)


def small_corpus() -> list:
    return families.positive_corpus(4, 0) + families.negative_corpus(4, 0)


def test_sweep_check_passes_and_rejects_a_mutated_recognizer():
    outcome = workloads.Outcome(graphs=0, intervals=[], result=verify.verify_main_theorem(5))
    assert workloads.check_sweep(5, outcome, seed=1) == []
    outcome.result = verify.verify_main_theorem(5, MUTANT)
    assert any("equivalence_failures" in p for p in workloads.check_sweep(5, outcome, seed=1))


def test_sweep_check_rejects_a_wrong_graph_count():
    report = verify.verify_main_theorem(5)
    report.graphs_checked -= 1
    outcome = workloads.Outcome(graphs=0, intervals=[], result=report)
    assert any("want 27" in p for p in workloads.check_sweep(5, outcome, seed=1))


def test_generators_check_passes_on_the_program():
    specs = small_corpus()
    outcome = workloads.run_generators(specs)
    assert outcome.failed == 0
    assert workloads.check_generators(specs, outcome, seed=1) == []


def test_generators_check_rejects_a_mutated_recognizer(monkeypatch):
    monkeypatch.setattr(
        certify,
        "optimal_certificate",
        functools.partial(certify.optimal_certificate, rules=MUTANT),
    )
    specs = small_corpus()
    problems = workloads.check_generators(specs, workloads.run_generators(specs), seed=1)
    assert any(p.startswith("path") and "certificate NotOptimal" in p for p in problems)


def test_generators_check_rejects_an_off_by_one_multiplicity(monkeypatch):
    real = spectra.multiplicity
    monkeypatch.setattr(spectra, "multiplicity", lambda g, lam: real(g, lam) + 1)
    specs = small_corpus()
    problems = workloads.check_generators(specs, workloads.run_generators(specs), seed=1)
    assert any("want 2c + p - 1" in p for p in problems)
    assert any("numpy counts" in p for p in problems)


def test_generators_check_rejects_a_certified_negative():
    specs = families.negative_corpus(1, 0)
    outcome = workloads.run_generators(specs)
    g, _, _ = outcome.result[0]
    outcome.result[0] = (g, certify.PathCase(lam=spectra.Eigenvalue(1, 2), i=1, m=1), None)
    problems = workloads.check_generators(specs, outcome, seed=1)
    assert any(p.startswith("negative") for p in problems)


def test_families_check_rejects_an_off_by_one_multiplicity(monkeypatch):
    graphs = workloads.setup_families(seed=1)
    clean = VerificationReport(graphs_checked=len(graphs))
    outcome = workloads.Outcome(graphs=len(graphs), intervals=[], result=clean)
    assert workloads.check_families(graphs, outcome, seed=1) == []
    real = spectra.multiplicity
    monkeypatch.setattr(spectra, "multiplicity", lambda g, lam: real(g, lam) - 1)
    problems = workloads.check_families(graphs, outcome, seed=1)
    positives = [s for s in workloads.FAMILY_SPECS if s.case not in workloads.NEGATIVE_CASES]
    assert sum("multiplicity" in p for p in problems) == len(positives)


def test_oracle_check_rejects_disagreement_and_a_missing_graph():
    graphs = workloads.setup_oracle(seed=1)
    outcome = workloads.Outcome(graphs=len(graphs), intervals=[], result=[[] for _ in graphs])
    assert workloads.check_oracle(graphs, outcome, seed=1) == []
    outcome.result[-1] = [{"lambda": {"a": 1, "b": 2}, "polynomial": 1, "nullity": 0}]
    assert any("routes disagree" in p for p in workloads.check_oracle(graphs, outcome, seed=1))
    outcome.result = outcome.result[1:]
    problems = workloads.check_oracle(graphs[1:], outcome, seed=1)
    assert any("OEIS A001349 says 1" in p for p in problems)


def test_char_poly_check_rejects_a_wrong_coefficient():
    triangle_poly = IntPoly((-2, -3, 0, 1))  # x^3 - 3x - 2
    assert workloads.poly_problems(triangle_poly, 3, 3, "K3") == []
    assert workloads.poly_problems(IntPoly((-2, -2, 0, 1)), 3, 3, "K3")
    assert workloads.poly_problems(IntPoly((-2, -3, 1, 1)), 3, 3, "K3")
    assert workloads.poly_problems(IntPoly((-3, 0, 1)), 3, 3, "K3")


def test_numeric_recount_counts_and_abstains():
    star = workloads.eigenvalues(4, [(0, 1), (0, 2), (0, 3)])  # 0, 0, +-sqrt(3)
    assert workloads.numeric_count(star, 1, 2) == 2
    assert workloads.numeric_count(star + 5e-7, 1, 2) is None


def test_missing_layer_is_a_missing_metric():
    tracer = layers.Tracer(layers.LAYERS + ("spectra.no_such_layer", "nomodule.f"))
    tracer.install()
    try:
        verify.verify_main_theorem(4)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert "spectra.no_such_layer.calls" not in metrics
    assert "nomodule.f.self_s" not in metrics
    assert metrics["verify.check_graph.calls"] == 1 + 2 + 6
    assert metrics["enumeration.graphs"] == 1 + 2 + 6
    assert metrics["cache.char_poly.currsize"] >= 1


def test_tracer_nests_spans_and_restores_the_program():
    original = spectra.char_poly
    tracer = layers.Tracer()
    tracer.install()
    assert verify.char_poly is not original and spectra.char_poly is verify.char_poly
    try:
        report = verify.verify_graphs(enumeration.enumerate_connected(5))
    finally:
        tracer.uninstall()
    assert verify.char_poly is original and spectra.char_poly is original
    metrics = tracer.metrics()
    spans = tracer.spans
    roots = [i for i in range(0, len(spans), 4) if spans[i + 1] == 0]
    root_time = sum(spans[i + 3] - spans[i + 2] for i in roots) / 1e9
    self_time = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_time == pytest.approx(root_time, rel=1e-9)
    assert metrics["verify.check_graph.calls"] == report.graphs_checked + 1
    assert metrics["intpoly.div_exact.failed"] <= metrics["intpoly.div_exact.calls"]
    assert metrics["trace.spans"] == len(spans) // 4


def test_speed_scale_leaves_out_the_probe_and_divides_by_the_factor():
    speed.reset()
    a = speed.clock()
    for _ in range(3):
        speed.sample()
    b = speed.clock()
    scale = speed.Scale()
    assert len(set(scale.factors)) == 1  # three samples, one window
    probe = sum(end - start for start, end in zip(scale.starts, scale.ends))
    assert scale(a, b) == pytest.approx((b - a - probe) / scale.factors[0])
    assert scale(scale.starts[1], scale.ends[1]) == 0
    assert scale.median_factor(a, b) == scale.factors[0]
    speed.reset()


def test_queries_record_their_intervals():
    outcome = workloads.run_queries([1, 2], lambda item: item)
    (a1, b1), (a2, b2) = outcome.intervals
    assert a1 <= b1 <= a2 <= b2
