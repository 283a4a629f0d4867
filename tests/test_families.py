import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_tree, path as path_graph
from lgmult.certify import is_optimal, lambda_candidates, optimal_certificate
from lgmult.families import (
    CASE_TAGS,
    DuplicateAttachment,
    FamilySpec,
    NotPendant,
    attach_cycles,
    make_B,
    make_congruent_path,
    make_congruent_spider,
    make_congruent_tree,
    make_theta,
    negative_corpus,
    positive_corpus,
    random_negative_spec,
    random_positive_spec,
    realize,
    two_cycles_edge,
)
from lgmult.graphio import to_graph6
from lgmult.graphs import bfs_distances, build_graph, summarize
from lgmult.linegraph import line_graph
from lgmult.spectra import Eigenvalue, multiplicity


def test_congruent_path_orders():
    assert make_congruent_path(Eigenvalue(1, 2), 2).vertex_count == 4
    assert make_congruent_path(Eigenvalue(2, 3), 1).vertex_count == 3
    assert make_congruent_path(Eigenvalue(1, 4), 1).vertex_count == 4
    with pytest.raises(ValueError):
        make_congruent_path(Eigenvalue(1, 2), 0)


def test_congruent_spider_shapes():
    s = make_congruent_spider(Eigenvalue(2, 3), 3, 0)
    assert s.vertex_count == 4 and summarize(s).pendant_count == 3  # K_{1,3}

    s = make_congruent_spider(Eigenvalue(2, 5), 3, 0)
    assert s.vertex_count == 7  # three legs of length 2

    s = make_congruent_spider(Eigenvalue(2, 3), 4, 1)
    assert s.vertex_count == 17  # four legs of length 4
    pend = summarize(s).pendant_vertices
    assert all(bfs_distances(s, u)[v] % 3 == 2 for u, v in itertools.combinations(pend, 2))

    with pytest.raises(ValueError):
        make_congruent_spider(Eigenvalue(2, 3), 2, 0)
    with pytest.raises(ValueError):
        make_congruent_spider(Eigenvalue(1, 2), 3, 0)  # needs the (2k, 2q+1) form


@settings(max_examples=60)
@given(
    st.sampled_from([(2, 3), (2, 5), (4, 5), (2, 7), (6, 7), (2, 9)]),
    st.integers(3, 5),
    st.integers(0, 6),
    st.integers(0, 10_000),
)
def test_congruent_tree_pendant_pairs(ab, legs, steps, seed):
    lam = Eigenvalue(*ab)
    t = make_congruent_tree(lam, legs, steps, seed)
    s = summarize(t)
    assert is_tree(t) and s.pendant_count >= 3
    q = (lam.b - 1) // 2
    pend = s.pendant_vertices
    for u, v in itertools.combinations(pend, 2):
        assert bfs_distances(t, u)[v] % lam.b == (2 * q) % lam.b


def test_attach_cycles_examples():
    p2 = build_graph(2, [(0, 1)])
    g = attach_cycles(p2, [1], [4])
    s = summarize(g)
    assert (s.cyclomatic, s.pendant_count) == (1, 1)

    k13 = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    g = attach_cycles(k13, [1, 2, 3], [3, 3, 3])
    s = summarize(g)
    assert (s.cyclomatic, s.pendant_count) == (3, 0)

    g = attach_cycles(p2, [0, 1], [4, 4])
    s = summarize(g)
    assert (s.cyclomatic, s.pendant_count) == (2, 0)


def test_attach_cycles_errors():
    p3 = path_graph(3)
    with pytest.raises(NotPendant):
        attach_cycles(p3, [1], [4])  # middle vertex has degree 2
    with pytest.raises(DuplicateAttachment):
        attach_cycles(p3, [0, 0], [3, 3])
    with pytest.raises(ValueError):
        attach_cycles(p3, [0], [2])  # cycles need order >= 3
    with pytest.raises(ValueError):
        attach_cycles(p3, [0, 2], [3])  # length mismatch


def test_two_cycles_edge_spectra():
    g = two_cycles_edge(4, 4)
    assert multiplicity(line_graph(g).line, Eigenvalue(1, 2)) == 3
    assert is_optimal(optimal_certificate(g, Eigenvalue(1, 2)))

    g = two_cycles_edge(3, 3)
    assert is_optimal(optimal_certificate(g, Eigenvalue(2, 3)))
    assert multiplicity(line_graph(g).line, Eigenvalue(2, 3)) == 3

    g = two_cycles_edge(3, 4)
    bound = 3
    for lam in lambda_candidates(g):
        assert not is_optimal(optimal_certificate(g, lam))
        assert multiplicity(line_graph(g).line, lam) < bound


def test_b_and_theta_shapes():
    b = make_B(3, 1, 3)
    assert (b.vertex_count, b.edge_count) == (5, 6)
    assert summarize(b).cyclomatic == 2

    b = make_B(3, 4, 5)
    assert (b.vertex_count, b.edge_count) == (10, 11)  # 3 + 4 + 5 minus shared path ends

    th = make_theta(1, 2, 2)
    assert (th.vertex_count, th.edge_count) == (4, 5)

    with pytest.raises(ValueError):
        make_theta(1, 1, 1)
    with pytest.raises(ValueError):
        make_B(2, 1, 3)


def test_family_spec_json_round_trip():
    spec = FamilySpec("attached_cycles", (2, 3), {"tree": "spider", "legs": 3, "r": 0, "multiples": [1, 1]}, seed=7)
    for encoded in (spec.to_json_dict(), {"case": "attached_cycles", "lambda": "2/3", "params": spec.params, "seed": 7}):
        again = FamilySpec.from_json_dict(encoded)
        assert again.case == spec.case and again.eigenvalue == Eigenvalue(2, 3)
        assert to_graph6(realize(again)) == to_graph6(realize(spec))
    with pytest.raises(ValueError):
        FamilySpec("no-such-case", (1, 2), {})


def test_generators_deterministic():
    positive_cases = [c for c in CASE_TAGS if c not in ("B", "theta")]
    for case in positive_cases:
        for seed in (0, 1, 99):
            a = realize(random_positive_spec(case, seed))
            b = realize(random_positive_spec(case, seed))
            assert to_graph6(a) == to_graph6(b)
    assert random_negative_spec("B", 5) == random_negative_spec("B", 5)
    with pytest.raises(ValueError):
        random_positive_spec("B", 0)


def test_corpora_realize_to_the_pinned_graphs():
    # 4,200 specs over seeds 0..2, every certified and bicyclic case
    g6 = [to_graph6(realize(spec)) for s in range(3) for spec in positive_corpus(200, s) + negative_corpus(200, s)]
    assert len(g6) == 4200
    digest = hashlib.sha256("\n".join(g6).encode()).hexdigest()
    assert digest == "6b51d46d6907942673f1ef4c64956c39ca6cd3cb37efbbb94ba0ed8a786dcb12"


def test_realize_names_a_missing_parameter_and_fills_host_defaults():
    for case, lam, params, name in (
        ("path", (1, 3), {}, "t"),
        ("spider", (2, 3), {"r": 1}, "legs"),
        ("attached_cycles", (2, 3), {}, "multiples"),
        ("two_cycles_edge", None, {"n1": 3}, "n2"),
        ("B", None, {"l": 3, "k": 4}, "x"),
        ("theta", None, {"x": 2, "l": 3}, "k"),
    ):
        with pytest.raises(ValueError, match=f"missing parameter '{name}'"):
            realize(FamilySpec(case, lam, params))
    # a host path is one period long, a host spider or tree has three legs
    lam = Eigenvalue(2, 3)
    for tree, host in (
        ("path", make_congruent_path(lam, 1)),
        ("spider", make_congruent_spider(lam, 3, 0)),
        ("tree", make_congruent_tree(lam, 3, 0, 0)),
    ):
        g = realize(FamilySpec("attached_cycles", (2, 3), {"tree": tree, "multiples": [1]}))
        pendant = min(v for v in range(host.vertex_count) if host.degree(v) == 1)
        assert to_graph6(g) == to_graph6(attach_cycles(host, [pendant], [3])), tree


def test_positive_corpus_certifies():
    for spec in positive_corpus(per_case=5, seed=3):
        g = realize(spec)
        assert is_optimal(optimal_certificate(g, spec.eigenvalue))


def test_negative_corpus_never_certifies():
    for spec in negative_corpus(per_case=5, seed=3):
        g = realize(spec)
        for lam in lambda_candidates(g):
            assert not is_optimal(optimal_certificate(g, lam))
