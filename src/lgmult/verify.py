"""Exhaustive and randomized checking of the multiplicity bound, the
recognizer equivalence, and the reduction identities.

The harness keeps the two sides of every equivalence independent: graph
multiplicities always come from the exact polynomial engine, never from
the recognizer, and the recognizer's verdicts are never consulted when
computing a multiplicity.  Failures are collected as data rather than
raised, so a full sweep always produces a report.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Sequence

from .certify import (
    DEFAULT_RULES,
    NotOptimal,
    RecognizerRules,
    edge_reduction_probe,
    optimal_certificate,
    optimal_orders,
    theorem31_conditions,
)
from .enumeration import MAX_ENUM_VERTICES, MAX_TREE_VERTICES, enumerate_connected
from .graphio import to_graph6
from .graphs import (
    Graph,
    bridges,
    build_graph,
    components,
    delete_edge,
    delete_pendant_path,
    induced_subgraph,
    multiplicity_bound,
    pendant_paths,
    summarize,
)
from .intpoly import div_exact
from .linegraph import block_structure, line_graph
from .spectra import (
    Eigenvalue,
    _order_lambdas,
    annihilator_dimensions,
    candidate_count,
    candidate_orders,
    candidate_pairs,
    char_poly,
    cycle_char_poly,
    line_eig_classes,
    line_multiplicities,
    multiplicity,
    multiplicities_in_poly,
    multiplicity_in_poly,
    numeric_multiplicities,
    numeric_spectrum,
    path_char_poly,
)

LEMMA_NAMES = (
    "path_deletion",
    "bridge",
    "path_absorption",
    "probe_equivalence",
)


def _lam_json(lam: Eigenvalue) -> dict[str, int]:
    return {"a": lam.a, "b": lam.b}


class _FailureRecord:
    """A failure of the main sweep; its JSON is its fields in order, with
    ``lam`` written as "lambda": {"a", "b"} and tuples as lists."""

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "lambda" if k == "lam" else k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(self).items()
        }


@dataclass(frozen=True)
class BoundViolation(_FailureRecord):
    graph6: str
    factor: tuple[int, ...]
    multiplicity: int
    bound: int


@dataclass(frozen=True)
class EquivalenceFailure(_FailureRecord):
    graph6: str
    lam: Eigenvalue
    verdict: str
    multiplicity: int
    bound: int


@dataclass(frozen=True)
class LambdaFormFailure(_FailureRecord):
    graph6: str
    factor: tuple[int, ...]
    multiplicity: int
    residual: tuple[int, ...]


@dataclass(frozen=True)
class LemmaFailure:
    lemma: str
    detail: dict[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        return {"lemma": self.lemma, **self.detail}


@dataclass
class VerificationReport:
    graphs_checked: int = 0
    candidates_checked: int = 0
    bound_violations: list[BoundViolation] = field(default_factory=list)
    equivalence_failures: list[EquivalenceFailure] = field(default_factory=list)
    lambda_form_failures: list[LambdaFormFailure] = field(default_factory=list)
    lemma_failures: dict[str, list[LemmaFailure]] = field(default_factory=dict)
    lemma_skips: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return (
            not self.bound_violations
            and not self.equivalence_failures
            and not self.lambda_form_failures
            and all(not v for v in self.lemma_failures.values())
        )

    def merge(self, other: "VerificationReport") -> None:
        self.graphs_checked += other.graphs_checked
        self.candidates_checked += other.candidates_checked
        self.bound_violations.extend(other.bound_violations)
        self.equivalence_failures.extend(other.equivalence_failures)
        self.lambda_form_failures.extend(other.lambda_form_failures)
        for name, items in other.lemma_failures.items():
            self.lemma_failures.setdefault(name, []).extend(items)
        for name, count in other.lemma_skips.items():
            self.lemma_skips[name] = self.lemma_skips.get(name, 0) + count
        self.elapsed += other.elapsed

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "graphs_checked": self.graphs_checked,
            "candidates_checked": self.candidates_checked,
            "bound_violations": [v.to_json_dict() for v in self.bound_violations],
            "equivalence_failures": [
                v.to_json_dict() for v in self.equivalence_failures
            ],
            "lambda_form_failures": [
                v.to_json_dict() for v in self.lambda_form_failures
            ],
            "lemma_failures": {
                name: [v.to_json_dict() for v in items]
                for name, items in sorted(self.lemma_failures.items())
            },
            "lemma_skips": dict(sorted(self.lemma_skips.items())),
            "elapsed": self.elapsed,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def summary_table(self) -> str:
        rows = [
            ("graphs checked", str(self.graphs_checked)),
            ("candidate pairs checked", str(self.candidates_checked)),
            ("bound violations", str(len(self.bound_violations))),
            ("equivalence failures", str(len(self.equivalence_failures))),
            ("lambda-form failures", str(len(self.lambda_form_failures))),
        ]
        for name in sorted(self.lemma_failures):
            rows.append(
                (f"{name} failures", str(len(self.lemma_failures[name])))
            )
        for name in sorted(self.lemma_skips):
            rows.append((f"{name} skips", str(self.lemma_skips[name])))
        rows.append(("elapsed seconds", f"{self.elapsed:.2f}"))
        rows.append(("result", "PASS" if self.passed else "FAIL"))
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


def _verdict_string(cert: Any) -> str:
    if isinstance(cert, NotOptimal):
        return f"NotOptimal:{cert.reason}"
    return cert.case_tag


def check_graph(
    g: Graph, rules: RecognizerRules = DEFAULT_RULES
) -> VerificationReport:
    """Run the bound, equivalence, and eigenvalue-form checks on one
    connected non-cycle graph with at least one edge.

    Both sides of the equivalence are sets of root orders n, since every
    lambda of one order shares its minimal polynomial and its verdict.
    The multiplicity side collects the orders whose minimal polynomial
    divides the squarefree class of multiplicity ``bound``, which holds
    exactly when every lambda of that order attains the bound.  The
    recognizer side is ``optimal_orders``, which reads no multiplicity.
    Only an order where the two sets disagree gets a certificate and its
    multiplicity counted, and yields one failure per lambda; the other
    candidates are only counted, per edge count.  The classes come from
    the n x n route of ``line_eig_classes``, so L(G) is never built, and
    only those of multiplicity >= ``bound``, since a class below it is
    neither a violation nor at the bound; an interlacing screen on an
    induced path of G, with a rank of Q over GF(2), mostly shows that none
    is, before any polynomial is built.  Only a failing graph has
    disagreeing orders; they read their multiplicities off one R, so the
    full polynomial of L(G) is never built.
    """
    report = VerificationReport()
    s = summarize(g)
    if not s.connected or s.is_cycle or g.edge_count == 0:
        return report
    report.graphs_checked = 1
    bound = multiplicity_bound(g)

    at_bound: set[int] = set()
    for cls in line_eig_classes(g, bound):
        if cls.multiplicity > bound:
            report.bound_violations.append(
                BoundViolation(to_graph6(g), cls.factor.coeffs, cls.multiplicity, bound)
            )
        if cls.multiplicity == bound:
            residual = cls.factor
            for n, lams in candidate_orders(residual.degree):
                psi = lams[0].minimal_polynomial
                if psi.degree > residual.degree:
                    continue
                if residual(2) % psi(2) == 0:
                    try:
                        residual = div_exact(residual, psi)
                    except ValueError:
                        continue
                    at_bound.add(n)
                if residual.degree == 0:
                    break
            if residual.degree > 0:
                report.lambda_form_failures.append(
                    LambdaFormFailure(
                        to_graph6(g), cls.factor.coeffs, cls.multiplicity, residual.coeffs
                    )
                )

    report.candidates_checked = candidate_count(g.edge_count)
    disagree = optimal_orders(g, rules) ^ at_bound
    if disagree:
        mults = line_multiplicities(g, disagree)
        g6 = to_graph6(g)
        for n in disagree:
            lams = _order_lambdas(n)
            cert = optimal_certificate(g, lams[0], rules)
            report.equivalence_failures.extend(
                EquivalenceFailure(g6, lam, _verdict_string(cert), mults[n], bound)
                for lam in lams
            )
    report.equivalence_failures.sort(key=lambda f: (f.lam.b, f.lam.a))
    return report


def verify_graphs(
    graphs: Iterable[Graph], rules: RecognizerRules = DEFAULT_RULES
) -> VerificationReport:
    """Check every connected non-cycle graph in the stream, in stream
    order, in this process.

    Cycles, disconnected graphs, and edgeless graphs are skipped.
    """
    report = VerificationReport()
    started = time.monotonic()
    for g in graphs:
        report.merge(check_graph(g, rules))
    report.elapsed = time.monotonic() - started
    return report


def verify_main_theorem(
    max_n: int, rules: RecognizerRules = DEFAULT_RULES
) -> VerificationReport:
    """Sweep all connected non-cycle graphs on 2..max_n vertices."""
    if not (2 <= max_n <= MAX_ENUM_VERTICES):
        raise ValueError(
            f"max_n must be in 2..{MAX_ENUM_VERTICES}, got {max_n};"
            " ingest a graph6 file for larger orders"
        )
    return verify_graphs(enumerate_connected(max_n, smallest=2), rules)


# ---------------------------------------------------------------------------
# reduction identities


def _record(report: VerificationReport, name: str, detail: dict[str, Any]) -> None:
    report.lemma_failures.setdefault(name, []).append(LemmaFailure(name, detail))


def _skip(report: VerificationReport, name: str) -> None:
    report.lemma_skips[name] = report.lemma_skips.get(name, 0) + 1


def _check_path_deletion(
    report: VerificationReport, g: Graph, lams: Sequence[Eigenvalue], m_g: dict[int, int]
) -> None:
    """Deleting a pendant path drops the line-graph multiplicity by at
    most one.  ``m_g`` is line_multiplicities of g at the root orders of
    ``lams``; the check runs per order, and a failing order gives one
    record per lambda."""
    paths = pendant_paths(g)
    if not paths:
        return
    h = delete_pendant_path(g, paths[0])
    m_h = line_multiplicities(h, m_g)
    failing = {n for n, m in m_g.items() if m > m_h[n] + 1}
    for lam in lams:
        if lam.n in failing:
            _record(
                report,
                "path_deletion",
                {
                    "graph6": to_graph6(g),
                    "lambda": _lam_json(lam),
                    "with_path": m_g[lam.n],
                    "without_path": m_h[lam.n],
                },
            )


def _check_bridge(
    report: VerificationReport, g: Graph, lams: Sequence[Eigenvalue]
) -> None:
    """Bridge identity: if lam is an eigenvalue of the u-side whose
    multiplicity drops by one when u is removed, then removing the far
    endpoint v raises the whole graph's multiplicity by one.  The four
    multiplicities are found once per root order of ``lams``; pairs where
    the hypothesis fails are counted as skips, one per lambda."""
    cut_edges = bridges(g)
    if not cut_edges:
        return
    by_order = {lam.n: lam for lam in lams}
    f_g = char_poly(g)
    for u, v in cut_edges:
        cut = components(delete_edge(g, (u, v)))
        for a, b in ((u, v), (v, u)):
            side_vertices = next(c for c in cut if a in c)
            side = induced_subgraph(g, side_vertices)
            side_minus = induced_subgraph(g, [w for w in side_vertices if w != a])
            minus_b = induced_subgraph(g, [w for w in range(g.vertex_count) if w != b])
            f_side = char_poly(side)
            f_side_minus = char_poly(side_minus)
            f_minus_b = char_poly(minus_b)
            held, failing = set(), set()
            for n, lam in by_order.items():
                m_side = multiplicity_in_poly(f_side, lam)
                if m_side == 0 or m_side != multiplicity_in_poly(f_side_minus, lam) + 1:
                    continue
                held.add(n)
                if multiplicity_in_poly(f_minus_b, lam) != multiplicity_in_poly(f_g, lam) + 1:
                    failing.add(n)
            for lam in lams:
                if lam.n not in held:
                    _skip(report, "bridge")
                elif lam.n in failing:
                    _record(
                        report,
                        "bridge",
                        {
                            "graph6": to_graph6(g),
                            "bridge": [a, b],
                            "lambda": _lam_json(lam),
                        },
                    )


def _check_path_absorption(
    report: VerificationReport, h: Graph, w: int, t: int, lam: Eigenvalue
) -> None:
    """Gluing a path of t*b vertices onto w by one end leaves the
    multiplicity equal to that of the host minus w."""
    extra = t * lam.b - 1
    edges = list(h.edges)
    prev = w
    for i in range(extra):
        edges.append((prev, h.vertex_count + i))
        prev = h.vertex_count + i
    glued = build_graph(h.vertex_count + extra, edges)
    host_minus = induced_subgraph(h, [x for x in range(h.vertex_count) if x != w])
    m_glued = multiplicity(glued, lam)
    m_host = multiplicity(host_minus, lam)
    if m_glued != m_host:
        _record(
            report,
            "path_absorption",
            {
                "graph6": to_graph6(h),
                "vertex": w,
                "t": t,
                "lambda": _lam_json(lam),
                "glued": m_glued,
                "host_minus_vertex": m_host,
            },
        )


def _check_probe_equivalence(
    report: VerificationReport, g: Graph, lams: Sequence[Eigenvalue], mults: dict[int, int]
) -> None:
    """Optimality holds exactly when all three edge-reduction conditions
    hold, for connected non-cycle graphs with a cycle.  ``mults`` is
    line_multiplicities of g at the root orders of ``lams``; the check
    runs per order, and a failing order gives one record per lambda."""
    s = summarize(g)
    if not s.connected or s.is_cycle or s.cyclomatic == 0:
        return
    bound = multiplicity_bound(g)
    probes = edge_reduction_probe(g, mults)
    failing = {n for n, probe in probes.items() if (mults[n] == bound) != probe.all_ok}
    for lam in lams:
        if lam.n in failing:
            probe = probes[lam.n]
            _record(
                report,
                "probe_equivalence",
                {
                    "graph6": to_graph6(g),
                    "lambda": _lam_json(lam),
                    "optimal": mults[lam.n] == bound,
                    "probe": {
                        "edge": list(probe.edge),
                        "mult_drop_ok": probe.mult_drop_ok,
                        "sub_optimal_ok": probe.sub_optimal_ok,
                        "pendant_increment_ok": probe.pendant_increment_ok,
                    },
                },
            )


def _random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(i), i) for i in range(1, n)]


def _random_connected(
    rng: random.Random, n: int, extra_edges: int
) -> Graph:
    edges = set(_random_tree(rng, n))
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(non_edges)
    edges.update(non_edges[:extra_edges])
    return build_graph(n, sorted(edges))


def _sample_candidates(
    rng: random.Random, degree: int, count: int
) -> list[Eigenvalue]:
    pool = list(candidate_pairs(degree))
    if len(pool) <= count:
        return pool
    return sorted(rng.sample(pool, count), key=lambda e: (e.b, e.a))


def verify_lemmas(
    max_n: int = 7, samples: int = 1000, seed: int = 0
) -> VerificationReport:
    """Check the four reduction identities on the enumerated corpus and
    on seeded random composites.

    The corpus part sweeps every candidate eigenvalue; each composite
    samples at most 25 candidates so a thousand samples per identity
    stay affordable on one core.
    """
    if max_n > MAX_ENUM_VERTICES:
        raise ValueError(f"max_n must be at most {MAX_ENUM_VERTICES}, got {max_n}")
    report = VerificationReport()
    started = time.monotonic()
    rng = random.Random(seed)
    small_pool = [lam for lam in candidate_pairs(6) if lam.b <= 6]

    for g in enumerate_connected(max_n, smallest=2):
        lams = candidate_pairs(g.edge_count)
        mults = line_multiplicities(g, [n for n, _ in candidate_orders(g.edge_count)])
        _check_path_deletion(report, g, lams, mults)
        _check_probe_equivalence(report, g, lams, mults)
        report.graphs_checked += 1
        if g.vertex_count <= 6:
            _check_bridge(report, g, small_pool)
        if g.vertex_count <= 5:
            for w in range(g.vertex_count):
                for lam in small_pool:
                    if lam.b <= 4:
                        _check_path_absorption(report, g, w, 1, lam)

    for _ in range(samples):
        g = _random_connected(rng, rng.randint(4, 9), rng.randint(0, 2))
        while not pendant_paths(g):
            g = _random_connected(rng, rng.randint(4, 9), rng.randint(0, 2))
        lams = _sample_candidates(rng, g.edge_count, 25)
        _check_path_deletion(report, g, lams, line_multiplicities(g, {lam.n for lam in lams}))

    for _ in range(samples):
        g = _random_connected(rng, rng.randint(3, 9), rng.randint(0, 2))
        while not bridges(g):
            g = _random_connected(rng, rng.randint(3, 9), rng.randint(0, 2))
        _check_bridge(report, g, [rng.choice(small_pool)])

    for _ in range(samples):
        h = _random_connected(rng, rng.randint(2, 8), rng.randint(0, 2))
        _check_path_absorption(
            report,
            h,
            rng.randrange(h.vertex_count),
            rng.randint(1, 2),
            rng.choice(small_pool),
        )

    for _ in range(samples):
        g = _random_connected(rng, rng.randint(4, 9), rng.randint(1, 2))
        while summarize(g).is_cycle:
            g = _random_connected(rng, rng.randint(4, 9), rng.randint(1, 2))
        lams = _sample_candidates(rng, g.edge_count, 25)
        _check_probe_equivalence(report, g, lams, line_multiplicities(g, {lam.n for lam in lams}))

    for name in LEMMA_NAMES:
        report.lemma_failures.setdefault(name, [])
    report.elapsed = time.monotonic() - started
    return report


def verify_congruence_laws(
    max_path: int = 200, max_cycle: int = 120, max_b: int = 12
) -> list[dict[str, Any]]:
    """Exact eigenvalue-membership laws for paths and cycles.

    For lam = (a, b): paths P_k contain lam exactly when k = b-1 (mod b),
    always with multiplicity one; cycles C_k contain it with multiplicity
    two exactly when b divides k (a even) or 2b divides k (a odd).  Both
    laws and the multiplicities depend on lam only through its root order,
    so each order is checked once; a failing order gives its records to
    every lambda of that order, in (b, a) order, paths before cycles.
    """
    paths = {k: path_char_poly(k) for k in range(1, max_path + 1)}
    cycles = {k: cycle_char_poly(k) for k in range(3, max_cycle + 1)}

    def order_failures(lam: Eigenvalue) -> list[tuple[str, int, int, int]]:
        out = []
        for k, f in paths.items():
            expected = 1 if k % lam.b == lam.b - 1 else 0
            got = multiplicity_in_poly(f, lam)
            if got != expected:
                out.append(("path", k, expected, got))
        for k, f in cycles.items():
            expected = 2 if k % lam.n == 0 else 0
            got = multiplicity_in_poly(f, lam)
            if got != expected:
                out.append(("cycle", k, expected, got))
        return out

    lams = [
        Eigenvalue(a, b)
        for b in range(2, max_b + 1)
        for a in range(1, b)
        if math.gcd(a, b) == 1
    ]
    failures: list[dict[str, Any]] = []
    by_order: dict[int, list[tuple[str, int, int, int]]] = {}
    for lam in lams:
        if lam.n not in by_order:
            by_order[lam.n] = order_failures(lam)
        failures.extend(
            {"shape": shape, "k": k, "lambda": _lam_json(lam),
             "expected": expected, "got": got}
            for shape, k, expected, got in by_order[lam.n]
        )
    return failures


def verify_block_agreement(max_n: int = 13) -> list[dict[str, Any]]:
    """Compare the line-graph block-distance conditions with the tree
    pendant-pair congruence on every tree with at least three pendants.

    Both sides read lambda = (2k, b) only through its odd root order b, so
    each is found once per odd order of candidate_orders(|E(T)|): the block
    side at the order's first lambda, the pendant side from one
    ``optimal_orders`` per tree.  A disagreeing order gives one record per
    lambda, in (b, a) order.
    """
    if max_n > MAX_TREE_VERTICES:
        raise ValueError(f"max_n must be at most {MAX_TREE_VERTICES}, got {max_n}")
    failures: list[dict[str, Any]] = []
    for t in enumerate_connected(max_n, max_c=0, smallest=4):
        if summarize(t).pendant_count < 3:
            continue
        blocks = block_structure(line_graph(t).line)
        optimal = optimal_orders(t)
        for n, lams in candidate_orders(t.edge_count):
            if n % 2 == 0:
                continue
            via_blocks = theorem31_conditions(blocks, lams[0])
            via_pendants = n in optimal
            if via_blocks != via_pendants:
                failures.extend(
                    {
                        "graph6": to_graph6(t),
                        "lambda": _lam_json(lam),
                        "block_conditions": via_blocks,
                        "pendant_congruence": via_pendants,
                    }
                    for lam in lams
                )
    return failures


def cross_check_detail(g: Graph) -> list[dict[str, Any]]:
    """Disagreements between the polynomial, nullity, and numeric
    multiplicity routes over every candidate eigenvalue of g.

    The numeric route abstains (returns None) when a spectrum value
    lands inside the guard band between the counting tolerance and the
    minimum-gap threshold; an abstention is not a disagreement.
    """
    failures: list[dict[str, Any]] = []
    if g.vertex_count == 0:
        return failures
    orders = [n for n, _ in candidate_orders(g.vertex_count)]
    via_polys = multiplicities_in_poly(char_poly(g), orders)
    via_nullities = annihilator_dimensions(g, orders)
    via_numerics = numeric_multiplicities(numeric_spectrum(g), g.vertex_count)
    for lam, via_numeric in zip(candidate_pairs(g.vertex_count), via_numerics):
        n = lam.n
        via_poly, via_nullity = via_polys[n], via_nullities[n]
        if via_poly != via_nullity or (
            via_numeric is not None and via_numeric != via_poly
        ):
            failures.append(
                {
                    "lambda": _lam_json(lam),
                    "polynomial": via_poly,
                    "nullity": via_nullity,
                    "numeric": via_numeric,
                }
            )
    return failures
