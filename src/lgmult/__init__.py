"""Exact spectral toolkit for line-graph eigenvalue multiplicities.

Connected graphs that are not cycles obey the bound
m_{L(G)}(lambda) <= 2c(G) + p(G) - 1 on every adjacency eigenvalue of
their line graph, where c counts independent cycles and p counts
pendant vertices.  This package decides when the bound is attained,
produces structured certificates, generates the extremal families, and
verifies the characterization exhaustively on small graphs with exact
integer arithmetic.
"""

from .certify import (
    AttachedCycles,
    DEFAULT_RULES,
    ManyCycles,
    NotOptimal,
    OptimalityCertificate,
    PathCase,
    RecognizerRules,
    TreeCase,
    TwoCyclesEdge,
    certificate_to_json,
    edge_reduction_probe,
    is_optimal,
    lambda_candidates,
    optimal_certificate,
    theorem31_conditions,
)
from .enumeration import canonical_key, enumerate_connected
from .families import (
    DuplicateAttachment,
    FamilySpec,
    NotPendant,
    attach_cycles,
    make_B,
    make_congruent_path,
    make_congruent_spider,
    make_congruent_tree,
    make_theta,
    realize,
    two_cycles_edge,
)
from .graphio import from_edge_text, from_graph6, to_edge_text, to_graph6
from .graphs import Graph, GraphError, build_graph, summarize
from .linegraph import BlockStructure, LineGraphMap, block_structure, line_graph
from .spectra import (
    EigClass,
    Eigenvalue,
    annihilator_dimension,
    annihilator_dimensions,
    candidate_pairs,
    char_poly,
    eig_classes,
    multiplicity,
    trig_min_poly,
)
from .verify import (
    VerificationReport,
    verify_graphs,
    verify_lemmas,
    verify_main_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AttachedCycles",
    "BlockStructure",
    "DEFAULT_RULES",
    "DuplicateAttachment",
    "EigClass",
    "Eigenvalue",
    "FamilySpec",
    "Graph",
    "GraphError",
    "LineGraphMap",
    "ManyCycles",
    "NotOptimal",
    "NotPendant",
    "OptimalityCertificate",
    "PathCase",
    "RecognizerRules",
    "TreeCase",
    "TwoCyclesEdge",
    "VerificationReport",
    "annihilator_dimension",
    "annihilator_dimensions",
    "attach_cycles",
    "build_graph",
    "candidate_pairs",
    "canonical_key",
    "certificate_to_json",
    "char_poly",
    "edge_reduction_probe",
    "eig_classes",
    "enumerate_connected",
    "from_edge_text",
    "from_graph6",
    "is_optimal",
    "lambda_candidates",
    "line_graph",
    "block_structure",
    "make_B",
    "make_congruent_path",
    "make_congruent_spider",
    "make_congruent_tree",
    "make_theta",
    "multiplicity",
    "optimal_certificate",
    "realize",
    "summarize",
    "theorem31_conditions",
    "to_edge_text",
    "to_graph6",
    "trig_min_poly",
    "two_cycles_edge",
    "verify_graphs",
    "verify_lemmas",
    "verify_main_theorem",
    "__version__",
]
