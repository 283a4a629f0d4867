"""Structural certificates for line-graph eigenvalue optimality.

A connected non-cycle graph G whose line graph attains the multiplicity
bound 2c(G) + p(G) - 1 at lambda falls into one of five shapes: a path with
the right pendant distance, a tree with >= 3 pendants and congruent pendant
distances, a tree with one or two congruent pendant cycles attached, two
congruent cycles joined by an edge, or a tree with >= 3 congruent pendant
cycles.  Lambda enters these conditions only through its root order n, so
``_verdict`` states them once, per order, on the graph's lambda-free Shape,
which ``pendant_cycle_decompose`` computes once per graph in G's own labels:
``optimal_orders`` gives the orders that pass, and ``optimal_certificate``
the certificate naming the shape, or NotOptimal with the first failed
condition.

RecognizerRules exists for the test harness: it shifts the congruence
constants so the verifier can prove the equivalence checks would catch a
mis-stated condition.  Production callers use the defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import ClassVar, Iterable, Union

from .graphs import (
    GRAPH_CACHE_SIZE,
    Disconnected,
    Graph,
    GraphError,
    bfs_distances,
    biconnected_blocks,
    bridges,
    delete_edge,
    multiplicity_bound,
    summarize,
)
from .linegraph import BlockStructure, EmptyGraph, block_block_distance
from .spectra import Eigenvalue, candidate_orders, candidate_pairs, line_multiplicities


class IsACycle(GraphError):
    """Cycles are outside the optimality characterization."""


class NoQualifyingEdge(GraphError):
    """No cycle edge incident to a major vertex exists."""


@dataclass(frozen=True)
class RecognizerRules:
    """Congruence-constant overrides used only by mutation-sensitivity tests.

    path_residue_shift lowers the required pendant-distance residue m of the
    path case by that amount; tree_residue_shift does the same to the 2q of
    the tree case; halve_cycle_modulus halves the cycle-order modulus.
    """

    path_residue_shift: int = 0
    tree_residue_shift: int = 0
    halve_cycle_modulus: bool = False


DEFAULT_RULES = RecognizerRules()


# ---------------------------------------------------------------------------
# certificate types


@dataclass(frozen=True)
class PathCase:
    """Case: G is a path, pendant distance m (mod m+1), lambda = (i, m+1)."""

    lam: Eigenvalue
    i: int
    m: int
    case_tag: ClassVar[str] = "PathCase"


@dataclass(frozen=True)
class TreeCase:
    """Case: G a tree with p >= 3 pendants, all pendant pairs at distance
    2q (mod 2q+1), lambda = (2k, 2q+1)."""

    lam: Eigenvalue
    k: int
    q: int
    pendant_count: int
    case_tag: ClassVar[str] = "TreeCase"


@dataclass(frozen=True)
class AttachedCycles:
    """Case: one or two congruent pendant cycles joined to distinct pendant
    vertices of a tree whose own line graph is optimal."""

    lam: Eigenvalue
    tree_vertices: tuple[int, ...]
    cycle_orders: tuple[int, ...]
    attachment_pendants: tuple[int, ...]
    c: int
    case_tag: ClassVar[str] = "AttachedCycles"


@dataclass(frozen=True)
class TwoCyclesEdge:
    """Case: two congruent cycles joined by a single edge, no tree part."""

    lam: Eigenvalue
    orders: tuple[int, int]
    case_tag: ClassVar[str] = "TwoCyclesEdge"


@dataclass(frozen=True)
class ManyCycles:
    """Case: c >= 3 pendant cycles of order divisible by 2q+1 joined to
    distinct pendants of a tree, lambda = (2k, 2q+1)."""

    lam: Eigenvalue
    tree_vertices: tuple[int, ...]
    cycle_orders: tuple[int, ...]
    c: int
    q: int
    k: int
    case_tag: ClassVar[str] = "ManyCycles"


@dataclass(frozen=True)
class NotOptimal:
    """The graph-lambda pair fails the characterization; reason names the
    first violated condition in the fixed checking order lambda-form,
    shape:<detail>, cycle-orders, tree-congruence, pendant-deficit."""

    lam: Eigenvalue
    reason: str
    case_tag: ClassVar[str] = "NotOptimal"


OptimalityCertificate = Union[
    PathCase, TreeCase, AttachedCycles, TwoCyclesEdge, ManyCycles, NotOptimal
]


def is_optimal(cert: OptimalityCertificate) -> bool:
    return not isinstance(cert, NotOptimal)


def certificate_to_json(cert: OptimalityCertificate) -> dict:
    fields = asdict(cert)
    out: dict = {"case_tag": cert.case_tag, "lambda": fields.pop("lam")}
    if isinstance(cert, NotOptimal):
        out["reason"] = cert.reason
    else:
        out["parameters"] = {
            k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()
        }
    return out


# ---------------------------------------------------------------------------
# candidate eigenvalues


def lambda_candidates(g: Graph) -> list[Eigenvalue]:
    """Canonical eigenvalues whose minimal-polynomial degree fits inside
    the line graph's order |V(L(G))| = |E(G)|, sorted by (b, a)."""
    return list(candidate_pairs(g.edge_count))


# ---------------------------------------------------------------------------
# tree-side certificates


def _tree_facts(g: Graph, pend: tuple[int, ...]) -> tuple[int, int, int]:
    """(p, d0, gap) for a tree with at least one edge, given its pendants
    and a graph g that holds it with the same distances: the pendant count,
    one pendant-pair distance d0, and the gcd of d - d0 over all pendant
    pairs.  Every pendant-pair distance is w (mod b) exactly when b | gap
    and d0 = w (mod b)."""
    ds: list[int] = []
    for idx, u in enumerate(pend):
        dist = bfs_distances(g, u)
        ds.extend(dist[v] for v in pend[idx + 1 :])
    return len(pend), ds[0], gcd(*(d - ds[0] for d in ds))


def _tree_verdict(tree: tuple[int, int, int], n: int, rules: RecognizerRules) -> str:
    """The path rule at p = 2 (distance m (mod m+1), lambda = (i, m+1)) and
    the all-pendant-pairs rule at p >= 3 (distance 2q (mod 2q+1), lambda =
    (2k, 2q+1)), on the (p, d0, gap) of ``_tree_facts`` at root order n."""
    p, d0, gap = tree
    if p > 2 and n % 2 == 0:
        return "lambda-form"
    b = n if n % 2 else n // 2
    shift = rules.path_residue_shift if p == 2 else rules.tree_residue_shift
    if gap % b or d0 % b != (b - 1 - shift) % b:
        return "tree-congruence"
    return ""


def theorem31_conditions(lt_blocks: BlockStructure, lam: Eigenvalue) -> bool:
    """Block-distance congruences on L(T) for lambda = (2k, 2q+1): every
    (external block, external vertex) pair has d(v,B)+1 = q (mod 2q+1), and
    every pair of distinct major blocks is at distance 2q (mod 2q+1).
    Vacuous quantifiers count as satisfied."""
    if lam.a % 2 or lam.b % 2 == 0:
        raise ValueError(f"block conditions are stated for pairs (2k, 2q+1), got {lam}")
    q = (lam.b - 1) // 2
    mod = lam.b
    lt = lt_blocks.graph
    for v in lt_blocks.external_vertices:
        dist = bfs_distances(lt, v)
        for b in lt_blocks.external_blocks:
            if (min(dist[u] for u in b) + 1) % mod != q:
                return False
    return all(
        block_block_distance(lt, x, y) % mod == 2 * q
        for x, y in combinations(lt_blocks.major_blocks, 2)
    )


# ---------------------------------------------------------------------------
# the lambda-free shape


@dataclass(frozen=True)
class Shape:
    """The lambda-free facts of a graph that the recognizer reads, in G's
    labels: c, the "shape:<reason>" of a graph that is not a tree plus
    pendant cycles ("" otherwise), the cycle orders, the remainder tree's
    vertices, the pendants the cycles hang from, and (p, d0, gap) of the
    tree part (G itself when c = 0, None for two cycles and an edge)."""

    c: int
    failure: str = ""
    cycle_orders: tuple[int, ...] = ()
    tree_vertices: tuple[int, ...] = ()
    attachment_pendants: tuple[int, ...] = ()
    tree: tuple[int, int, int] | None = None


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def pendant_cycle_decompose(g: Graph) -> Shape:
    """The Shape of a connected non-cycle graph with an edge: a tree, or a
    remainder tree plus pendant cycles joined to distinct tree pendants.

    Works per biconnected block: every block on >= 3 vertices must be an
    induced cycle with exactly one vertex touching the rest of the graph,
    that vertex of total degree 3, and the cycle's outside neighbor must be
    a pendant vertex of the remainder, distinct per cycle.  Each cycle then
    hangs from one bridge, so distances within the remainder are G's and
    its pendants are G's plus the attachment points: the tree part is read
    in G, with no subgraph built.
    """
    if g.vertex_count == 0 or g.edge_count == 0:
        raise EmptyGraph("optimality needs a graph with at least one edge")
    s = summarize(g)
    if not s.connected:
        raise Disconnected("optimality is defined for connected graphs")
    if s.is_cycle:
        raise IsACycle("cycles are outside the characterization")
    c = s.cyclomatic
    if c == 0:
        return Shape(c, tree=_tree_facts(g, s.pendant_vertices))
    cyclic = tuple(b for b in biconnected_blocks(g) if len(b) >= 3)
    if any(sum(u in b and v in b for u, v in g.edges) > len(b) for b in map(set, cyclic)):
        return Shape(c, "shape:cycles-share-vertices")
    # each cyclic block is now a single induced cycle
    targets: list[int] = []
    covered: set[int] = set()
    for b in cyclic:
        majors = [v for v in b if g.degree(v) > 2]
        if len(majors) > 1:
            return Shape(c, "shape:cycle-multiple-majors")
        if len(majors) == 0:
            raise AssertionError("cycle block with no outside contact in a connected non-cycle graph")
        u = majors[0]
        if g.degree(u) != 3:
            return Shape(c, "shape:attachment-degree")
        targets.append(next(w for w in g.adj[u] if w not in b))
        covered.update(b)
    orders = tuple(len(b) for b in cyclic)
    remainder = tuple(v for v in range(g.vertex_count) if v not in covered)
    if not remainder:
        if len(cyclic) == 2:
            return Shape(c, cycle_orders=tuple(sorted(orders)))
        raise AssertionError("empty remainder is only reachable with two cycles")
    # y's degree in the remainder is its degree in G less the cycles at y
    if any(y in covered or g.degree(y) - targets.count(y) != 1 for y in targets):
        return Shape(c, "shape:attachment-not-tree-pendant")
    if len(set(targets)) != len(targets):
        return Shape(c, "shape:attachment-collision")
    pend = tuple(sorted({*s.pendant_vertices, *targets}))
    return Shape(c, "", orders, remainder, tuple(targets), _tree_facts(g, pend))


# ---------------------------------------------------------------------------
# the main dispatch


def _verdict(sh: Shape, n: int, rules: RecognizerRules) -> str:
    """"" when every lambda of root order n (n odd: a even and b = n; n
    even: a odd and b = n/2) is optimal, else the first failed condition
    in NotOptimal's fixed order."""
    c = sh.c
    if c == 0:
        return _tree_verdict(sh.tree, n, rules)
    if c >= 3 and n % 2 == 0:
        return "lambda-form"
    if sh.failure:
        return sh.failure
    mod = max(1, n // 2) if rules.halve_cycle_modulus else n
    if gcd(*sh.cycle_orders) % mod:
        return "cycle-orders"
    if sh.tree is None:
        return ""
    if _tree_verdict(sh.tree, n, rules):
        return "tree-congruence"
    if sh.tree[0] < c:
        return "pendant-deficit"
    return ""


def optimal_certificate(
    g: Graph, lam: Eigenvalue, rules: RecognizerRules = DEFAULT_RULES
) -> OptimalityCertificate:
    """Decide whether (g, lambda) matches one of the five optimal shapes.

    ``_verdict`` decides at the root order of lambda from the graph's Shape,
    looked up once in ``pendant_cycle_decompose``; an optimal pair gets the
    one certificate its shape allows (c = 0, remainder emptiness and
    c <= 2 / c >= 3 are mutually exclusive).  Only the parameters lam, i
    and k carry a itself.
    """
    sh = pendant_cycle_decompose(g)
    reason = _verdict(sh, lam.n, rules)
    if reason:
        return NotOptimal(lam, reason)
    if sh.tree is None:
        return TwoCyclesEdge(lam, sh.cycle_orders)
    c, p = sh.c, sh.tree[0]
    if c == 0:
        if p == 2:
            return PathCase(lam, lam.a, lam.b - 1)
        return TreeCase(lam, lam.a // 2, (lam.b - 1) // 2, p)
    if c <= 2:
        return AttachedCycles(lam, sh.tree_vertices, sh.cycle_orders, sh.attachment_pendants, c)
    return ManyCycles(lam, sh.tree_vertices, sh.cycle_orders, c, (lam.b - 1) // 2, lam.a // 2)


def optimal_orders(g: Graph, rules: RecognizerRules = DEFAULT_RULES) -> frozenset[int]:
    """The root orders of candidate_pairs(|E(G)|) at which every lambda is
    optimal: ``_verdict`` once per order, with no certificate built.  A
    graph in scope with 3c > |V(G)| has no c vertex-disjoint cycles of
    order >= 3, so no order passes and its Shape is never built; a graph
    out of scope raises from ``pendant_cycle_decompose``."""
    s = summarize(g)
    if s.connected and not s.is_cycle and 3 * s.cyclomatic > g.vertex_count:
        return frozenset()
    sh = pendant_cycle_decompose(g)
    return frozenset(n for n, _ in candidate_orders(g.edge_count) if not _verdict(sh, n, rules))


# ---------------------------------------------------------------------------
# the edge-reduction probe


@dataclass(frozen=True)
class ProbeReport:
    edge: tuple[int, int]
    mult_drop_ok: bool
    sub_optimal_ok: bool
    pendant_increment_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.mult_drop_ok and self.sub_optimal_ok and self.pendant_increment_ok


def edge_reduction_probe(g: Graph, orders: Iterable[int]) -> dict[int, ProbeReport]:
    """Evaluate the three reduction conditions at the eigenvalues of each
    root order in ``orders``, keyed by order, on the smallest cycle edge e
    incident to a major vertex: m_{L(G)} = m_{L(G-e)} + 1, the deleted
    graph's line graph attains its own bound (read literally even when G-e
    degenerates to a cycle), and p(G-e) = p(G) + 1.  The edge, G-e, the R
    of G and of G-e, the bound of G-e and the pendant increment are found
    once for all of ``orders``.

    Their conjunction is equivalent to optimality of (g, lambda).
    """
    s = summarize(g)
    cut_edges = set(bridges(g))
    degs = g.degrees()
    edge = next(
        (e for e in sorted(g.edges) if e not in cut_edges and max(degs[e[0]], degs[e[1]]) >= 3),
        None,
    )
    if edge is None:
        raise NoQualifyingEdge("no cycle edge incident to a major vertex")
    reduced = delete_edge(g, edge)
    bound = multiplicity_bound(reduced)
    pendant_ok = summarize(reduced).pendant_count == s.pendant_count + 1
    m_g = line_multiplicities(g, orders)
    m_r = line_multiplicities(reduced, m_g)
    return {
        n: ProbeReport(edge, m == m_r[n] + 1, m_r[n] == bound, pendant_ok)
        for n, m in m_g.items()
    }
