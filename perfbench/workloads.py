"""The four benchmark workloads: inputs, timed work and correctness checks.

Every workload is a closed loop in one process: each query starts when
the previous one has returned.  ``setup(seed)`` builds the inputs,
``run(inputs)`` is the timed work and returns an Outcome, and
``check(inputs, outcome, seed)`` returns a list of problems, empty when
the outputs are correct.  The checks compare against counts and
properties computed here, apart from the program: OEIS A001349, the
coefficients of a characteristic polynomial read off the degrees, the
bound 2c + p - 1 counted from the edge list, and numpy eigenvalues of a
line graph built here.

The program is reached through its modules (``certify.optimal_certificate``
rather than an imported name), so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import random
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import speed
from lgmult import certify, enumeration, families, linegraph, spectra, verify
from lgmult.families import FamilySpec

# Connected graphs on n unlabeled vertices, n = 1..7 (OEIS A001349).
A001349 = (1, 1, 2, 6, 21, 112, 853)

SWEEP_MAX_N = 7
ORACLE_MAX_N = 7
GENERATOR_PER_CASE = 600
POLY_SAMPLE = 40

# Numeric recount: an eigenvalue within TOL of lambda counts, one between
# TOL and GAP makes the recount abstain (as the program's numeric route).
TOL = 1e-8
GAP = 1e-6

# Realized family graphs on 40..62 vertices: every positive case, then the
# negative B and theta shapes.  62 is the largest order graph6 writes in
# its short form, which check_graph needs.
FAMILY_SPECS = (
    FamilySpec("path", (3, 10), {"t": 5}),
    FamilySpec("path", (1, 7), {"t": 6}),
    FamilySpec("path", (2, 9), {"t": 6}),
    FamilySpec("spider", (2, 7), {"legs": 4, "r": 1}),
    FamilySpec("spider", (2, 5), {"legs": 4, "r": 2}),
    FamilySpec("spider", (2, 9), {"legs": 4, "r": 1}),
    FamilySpec("tree", (4, 9), {"legs": 3, "steps": 6}, seed=3),
    FamilySpec("tree", (2, 7), {"legs": 4, "steps": 6}, seed=1),
    FamilySpec("tree", (2, 5), {"legs": 3, "steps": 14}, seed=2),
    FamilySpec("attached_cycles", (1, 4), {"tree": "path", "t": 5, "multiples": [3]}),
    FamilySpec("attached_cycles", (2, 5), {"tree": "spider", "legs": 3, "r": 2, "multiples": [1]}),
    FamilySpec("attached_cycles", (2, 3), {"tree": "path", "t": 8, "multiples": [4, 5]}),
    FamilySpec("attached_cycles", (2, 5), {"tree": "spider", "legs": 3, "r": 1, "multiples": [2, 2]}),
    FamilySpec("attached_cycles", (2, 5), {"tree": "spider", "legs": 4, "r": 1, "multiples": [1] * 4}),
    FamilySpec("attached_cycles", (2, 3), {"tree": "spider", "legs": 5, "r": 1, "multiples": [2] * 5}),
    FamilySpec("two_cycles_edge", (1, 3), {"n1": 30, "n2": 30}),
    FamilySpec("two_cycles_edge", (2, 7), {"n1": 21, "n2": 28}),
    FamilySpec("two_cycles_edge", (1, 4), {"n1": 24, "n2": 16}),
    FamilySpec("B", None, {"l": 17, "x": 12, "k": 19}),
    FamilySpec("B", None, {"l": 20, "x": 1, "k": 21}),
    FamilySpec("B", None, {"l": 23, "x": 5, "k": 27}),
    FamilySpec("theta", None, {"k": 15, "x": 20, "l": 18}),
    FamilySpec("theta", None, {"k": 1, "x": 25, "l": 30}),
    FamilySpec("theta", None, {"k": 10, "x": 14, "l": 20}),
)

NEGATIVE_CASES = ("B", "theta")


@dataclass
class Outcome:
    """What one round's timed work produced."""

    graphs: int
    intervals: list[tuple[float, float]]
    failed: int = 0
    result: Any = None
    notes: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], Any]
    run: Callable[[Any], Outcome]
    check: Callable[[Any, Outcome, int], list[str]]


@contextmanager
def timed_calls(module: Any, name: str) -> Iterator[list[tuple[float, float]]]:
    """Record when every call to ``module.name`` started and ended."""
    fn = getattr(module, name)
    intervals: list[tuple[float, float]] = []
    clock = speed.clock

    def timed(*args: Any, **kwargs: Any) -> Any:
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            intervals.append((start, clock()))

    setattr(module, name, timed)
    try:
        yield intervals
    finally:
        setattr(module, name, fn)


# ---------------------------------------------------------------------------
# reference computations, made apart from the program


def degrees(g: Any) -> list[int]:
    deg = [0] * g.vertex_count
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def is_cycle(g: Any) -> bool:
    return g.vertex_count >= 3 and g.edge_count == g.vertex_count and all(
        d == 2 for d in degrees(g)
    )


def bound(g: Any) -> int:
    """2c + p - 1 for a connected graph, from its edge list."""
    c = g.edge_count - g.vertex_count + 1
    p = sum(1 for d in degrees(g) if d == 1)
    return 2 * c + p - 1


def poly_problems(poly: Any, order: int, edges: int, label: str) -> list[str]:
    """A graph's characteristic polynomial has degree = order, no
    x^(order-1) term and -edges at x^(order-2)."""
    c = poly.coeffs
    if poly.degree != order or c[-1] != 1:
        return [f"{label}: char_poly degree {poly.degree}, want monic {order}"]
    if order >= 1 and c[order - 1] != 0:
        return [f"{label}: char_poly x^{order - 1} coefficient {c[order - 1]}, want 0"]
    if order >= 2 and c[order - 2] != -edges:
        return [f"{label}: char_poly x^{order - 2} coefficient {c[order - 2]}, want {-edges}"]
    return []


def line_poly_problems(g: Any) -> list[str]:
    """char_poly(L(G)): L(G) has m vertices and sum C(deg v, 2) edges."""
    poly = spectra.char_poly(linegraph.line_graph(g).line)
    line_edges = sum(d * (d - 1) // 2 for d in degrees(g))
    return poly_problems(poly, g.edge_count, line_edges, f"L(G) of n={g.vertex_count}")


def line_edges(g: Any) -> list[tuple[int, int]]:
    """Edges of L(G), built here: edges i < j of G sharing an endpoint."""
    by_vertex: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(g.edges):
        by_vertex.setdefault(u, []).append(i)
        by_vertex.setdefault(v, []).append(i)
    return sorted({(i, j) for inc in by_vertex.values() for i in inc for j in inc if i < j})


def eigenvalues(order: int, edges: list[tuple[int, int]]) -> Any:
    import numpy as np

    adj = np.zeros((order, order))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    return np.linalg.eigvalsh(adj)


def numeric_count(eigs: Any, a: int, b: int) -> int | None:
    """How many eigenvalues equal 2cos(a*pi/b); None when one lies in the
    guard band, where rounding could miscount."""
    dist = abs(eigs - 2.0 * math.cos(math.pi * a / b))
    if ((dist > TOL) & (dist < GAP)).any():
        return None
    return int((dist <= TOL).sum())


def expected_tag(spec: FamilySpec) -> str:
    if spec.case == "path":
        return "PathCase"
    if spec.case in ("spider", "tree"):
        return "TreeCase"
    if spec.case == "two_cycles_edge":
        return "TwoCyclesEdge"
    return "AttachedCycles" if len(spec.params["multiples"]) <= 2 else "ManyCycles"


def report_problems(report: Any, label: str) -> list[str]:
    out = []
    for name in ("bound_violations", "equivalence_failures", "lambda_form_failures"):
        items = getattr(report, name)
        if items:
            out.append(f"{label}: {len(items)} {name}, first {items[0]}")
    return out


def count_problems(graphs_by_order: dict[int, list[Any]], orders: range) -> list[str]:
    out = []
    for n in orders:
        got = len(graphs_by_order.get(n, []))
        if got != A001349[n - 1]:
            out.append(f"{got} connected graphs on {n} vertices, OEIS A001349 says {A001349[n - 1]}")
    return out


def sample(items: list[Any], k: int, seed: int) -> list[Any]:
    return random.Random(seed).sample(items, min(k, len(items)))


# ---------------------------------------------------------------------------
# sweep: verify_main_theorem over every connected non-cycle graph, n <= 7


def setup_sweep(seed: int) -> int:
    return SWEEP_MAX_N


def run_sweep(max_n: int) -> Outcome:
    with timed_calls(verify, "check_graph") as intervals:
        report = verify.verify_main_theorem(max_n)
    return Outcome(graphs=report.graphs_checked, intervals=intervals, result=report)


def check_sweep(max_n: int, outcome: Outcome, seed: int) -> list[str]:
    report = outcome.result
    problems = report_problems(report, "sweep")
    by_order = {n: list(enumeration.enumerate_connected(n)) for n in range(1, max_n + 1)}
    problems += count_problems(by_order, range(1, max_n + 1))
    for n in range(3, max_n + 1):
        cycles = sum(1 for g in by_order[n] if is_cycle(g))
        if cycles != 1:
            problems.append(f"{cycles} cycles among the graphs on {n} vertices")
    want = sum(A001349[n - 1] - (n >= 3) for n in range(2, max_n + 1))
    if report.graphs_checked != want:
        problems.append(f"sweep checked {report.graphs_checked} graphs, want {want}")
    checked = [g for n in range(2, max_n + 1) for g in by_order[n] if not is_cycle(g)]
    for g in sample(checked, POLY_SAMPLE, seed):
        problems += line_poly_problems(g)
    return problems


# ---------------------------------------------------------------------------
# families: verify_graphs on large realized family graphs


def setup_families(seed: int) -> list[Any]:
    return [families.realize(spec) for spec in FAMILY_SPECS]


def run_families(graphs: list[Any]) -> Outcome:
    with timed_calls(verify, "check_graph") as intervals:
        report = verify.verify_graphs(graphs)
    return Outcome(graphs=report.graphs_checked, intervals=intervals, result=report)


def check_families(graphs: list[Any], outcome: Outcome, seed: int) -> list[str]:
    report = outcome.result
    problems = report_problems(report, "families")
    if report.graphs_checked != len(graphs):
        problems.append(f"families checked {report.graphs_checked} of {len(graphs)} graphs")
    for spec, g in zip(FAMILY_SPECS, graphs):
        label = f"{spec.case} {spec.params}"
        problems += line_poly_problems(g)
        if spec.case in NEGATIVE_CASES:
            continue
        lam = spec.eigenvalue
        cert = certify.optimal_certificate(g, lam)
        if cert.case_tag != expected_tag(spec):
            problems.append(f"{label}: certificate {cert.case_tag}, want {expected_tag(spec)}")
        mult = spectra.multiplicity(linegraph.line_graph(g).line, lam)
        if mult != bound(g):
            problems.append(f"{label}: multiplicity {mult} at {lam}, want {bound(g)}")
    return problems


# ---------------------------------------------------------------------------
# generators: seeded positive and negative specs, one query each


def setup_generators(seed: int) -> list[FamilySpec]:
    return families.positive_corpus(GENERATOR_PER_CASE, seed) + families.negative_corpus(
        GENERATOR_PER_CASE, seed
    )


def query(spec: FamilySpec) -> tuple[Any, Any, int | None]:
    """realize, then the recognizer and the multiplicity at the spec's
    lambda; a negative spec has no lambda, so the recognizer runs over
    every candidate and the certificate kept is the first optimal one."""
    g = families.realize(spec)
    if spec.case in NEGATIVE_CASES:
        certs = (certify.optimal_certificate(g, lam) for lam in certify.lambda_candidates(g))
        return g, next((c for c in certs if certify.is_optimal(c)), None), None
    lam = spec.eigenvalue
    cert = certify.optimal_certificate(g, lam)
    return g, cert, spectra.multiplicity(linegraph.line_graph(g).line, lam)


def run_queries(items: list[Any], fn: Callable[[Any], Any]) -> Outcome:
    intervals: list[tuple[float, float]] = []
    results: list[Any] = []
    failed = 0
    clock = speed.clock
    for item in items:
        start = clock()
        try:
            results.append(fn(item))
        except Exception as exc:  # a failed query is counted, the loop goes on
            if not failed:
                traceback.print_exc()
            failed += 1
            results.append(exc)
        intervals.append((start, clock()))
    return Outcome(graphs=len(items) - failed, intervals=intervals, failed=failed, result=results)


def run_generators(specs: list[FamilySpec]) -> Outcome:
    return run_queries(specs, query)


def check_generators(specs: list[FamilySpec], outcome: Outcome, seed: int) -> list[str]:
    problems: list[str] = []
    positives = []
    abstained = 0
    for spec, res in zip(specs, outcome.result):
        if isinstance(res, Exception):
            continue
        g, cert, mult = res
        label = f"{spec.case} {spec.lam} {spec.params} seed={spec.seed}"
        if spec.case in NEGATIVE_CASES:
            if cert is not None:
                problems.append(f"negative {label} certified as {cert.case_tag}")
            continue
        positives.append(g)
        if not certify.is_optimal(cert) or cert.case_tag != expected_tag(spec):
            problems.append(f"{label}: certificate {cert.case_tag}, want {expected_tag(spec)}")
        if mult != bound(g):
            problems.append(f"{label}: multiplicity {mult}, want 2c + p - 1 = {bound(g)}")
        recount = numeric_count(eigenvalues(g.edge_count, line_edges(g)), *spec.lam)
        if recount is None:
            abstained += 1
        elif recount != mult:
            problems.append(f"{label}: multiplicity {mult}, numpy counts {recount}")
    for g in sample(positives, POLY_SAMPLE, seed):
        problems += line_poly_problems(g)
    outcome.notes["numeric_abstained"] = abstained
    return problems


# ---------------------------------------------------------------------------
# oracle: the three multiplicity routes on every connected graph, n <= 7


def setup_oracle(seed: int) -> list[Any]:
    return [g for n in range(1, ORACLE_MAX_N + 1) for g in enumeration.enumerate_connected(n)]


def run_oracle(graphs: list[Any]) -> Outcome:
    return run_queries(graphs, verify.cross_check_detail)


def check_oracle(graphs: list[Any], outcome: Outcome, seed: int) -> list[str]:
    by_order: dict[int, list[Any]] = {}
    for g in graphs:
        by_order.setdefault(g.vertex_count, []).append(g)
    problems = count_problems(by_order, range(1, ORACLE_MAX_N + 1))
    abstained = 0
    for g, res in zip(graphs, outcome.result):
        if isinstance(res, Exception):
            continue
        if res:
            problems.append(f"routes disagree on n={g.vertex_count} {g.edges}: {res[0]}")
        eigs = eigenvalues(g.vertex_count, list(g.edges))
        for lam in spectra.candidate_pairs(g.vertex_count):
            if numeric_count(eigs, lam.a, lam.b) is None:
                abstained += 1
    for g in sample(graphs, POLY_SAMPLE, seed):
        problems += poly_problems(spectra.char_poly(g), g.vertex_count, g.edge_count, f"n={g.vertex_count}")
    outcome.notes["numeric_abstained"] = abstained
    return problems


WORKLOADS = {
    "sweep": Workload(setup_sweep, run_sweep, check_sweep),
    "families": Workload(setup_families, run_families, check_families),
    "generators": Workload(setup_generators, run_generators, check_generators),
    "oracle": Workload(setup_oracle, run_oracle, check_oracle),
}
