"""Structural certificates for line-graph eigenvalue optimality.

A connected non-cycle graph G whose line graph attains the multiplicity
bound 2c(G) + p(G) - 1 at lambda falls into one of five shapes: a path with
the right pendant distance, a tree with >= 3 pendants and congruent pendant
distances, a tree with one or two congruent pendant cycles attached, two
congruent cycles joined by an edge, or a tree with >= 3 congruent pendant
cycles.  The functions here decide which (if any) applies and give back a
certificate naming the shape, or NotOptimal with the first failed condition.

RecognizerRules exists for the test harness: it shifts the congruence
constants so the verifier can prove the equivalence checks would catch a
mis-stated condition.  Production callers use the defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import ClassVar, Union

from .graphs import (
    GRAPH_CACHE_SIZE,
    Disconnected,
    Graph,
    GraphError,
    bfs_distances,
    biconnected_blocks,
    delete_edge,
    induced_subgraph,
    multiplicity_bound,
    summarize,
)
from .linegraph import BlockStructure, EmptyGraph, block_block_distance
from .spectra import Eigenvalue, candidate_pairs, line_char_poly, multiplicity_in_poly


class NotAPath(GraphError):
    pass


class NotATree(GraphError):
    pass


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


def cycle_order_modulus(lam: Eigenvalue, rules: RecognizerRules = DEFAULT_RULES) -> int:
    """Required divisor of attached-cycle orders: the root order of lambda,
    b when a is even and 2b when a is odd."""
    return max(1, lam.n // 2) if rules.halve_cycle_modulus else lam.n


# ---------------------------------------------------------------------------
# tree-side certificates


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _pendant_pair_distances(t: Graph) -> tuple[int, ...]:
    pend = summarize(t).pendant_vertices
    out = []
    for idx, u in enumerate(pend):
        dist = bfs_distances(t, u)
        for v in pend[idx + 1 :]:
            out.append(dist[v])
    return tuple(out)


def path_certificate(
    t: Graph, lam: Eigenvalue, rules: RecognizerRules = DEFAULT_RULES
) -> OptimalityCertificate:
    """Case decision for paths: pendant distance m (mod m+1) with
    lambda = (i, m+1)."""
    s = summarize(t)
    if not s.is_path or s.pendant_count != 2:
        raise NotAPath("path certificate needs a path on at least two vertices")
    m = lam.b - 1
    (d,) = _pendant_pair_distances(t)
    if d % (m + 1) == (m - rules.path_residue_shift) % (m + 1):
        return PathCase(lam=lam, i=lam.a, m=m)
    return NotOptimal(lam=lam, reason="tree-congruence")


def tree_certificate(
    t: Graph, lam: Eigenvalue, rules: RecognizerRules = DEFAULT_RULES
) -> OptimalityCertificate:
    """Case decision for trees: the path rule at p = 2, the all-pendant-pairs
    congruence at p >= 3 (which needs lambda = (2k, 2q+1))."""
    s = summarize(t)
    if not s.connected or s.cyclomatic != 0:
        raise NotATree("tree certificate needs a connected acyclic graph")
    if t.vertex_count == 1:
        raise EmptyGraph("single-vertex tree has an empty line graph")
    if s.pendant_count == 2:
        return path_certificate(t, lam, rules)
    if lam.a % 2:
        return NotOptimal(lam=lam, reason="lambda-form")
    q = (lam.b - 1) // 2
    mod = lam.b
    want = (2 * q - rules.tree_residue_shift) % mod
    if all(d % mod == want for d in _pendant_pair_distances(t)):
        return TreeCase(lam=lam, k=lam.a // 2, q=q, pendant_count=s.pendant_count)
    return NotOptimal(lam=lam, reason="tree-congruence")


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
    majors = lt_blocks.major_blocks
    for i in range(len(majors)):
        for j in range(i + 1, len(majors)):
            if block_block_distance(lt, majors[i], majors[j]) % mod != 2 * q:
                return False
    return True


# ---------------------------------------------------------------------------
# pendant-cycle decomposition


@dataclass(frozen=True)
class CycleAttachment:
    cycle_vertices: tuple[int, ...]
    order: int
    joining_edge: tuple[int, int]
    tree_pendant: int


@dataclass(frozen=True)
class CycleDecomposition:
    """G written as tree plus pendant cycles: ``tree`` is the remainder with
    vertices relabeled densely, tree_map sends original labels into it, and
    each attachment records one cycle with its joining edge (original
    labels, major vertex first)."""

    tree: Graph
    tree_map: dict[int, int]
    attachments: tuple[CycleAttachment, ...]


@dataclass(frozen=True)
class DecompositionFailure:
    reason: str
    cycle_orders: tuple[int, ...] = ()


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def pendant_cycle_decompose(
    g: Graph,
) -> CycleDecomposition | DecompositionFailure:
    """Split a connected non-cycle graph with c >= 1 into a remainder tree
    plus pendant cycles joined to distinct tree pendants.

    Works per biconnected block: every block on >= 3 vertices must be an
    induced cycle with exactly one vertex touching the rest of the graph,
    that vertex of total degree 3, and the cycle's outside neighbor must be
    a pendant vertex of the remainder, distinct per cycle.  The two-cycles
    -plus-edge shape (empty remainder) is reported as a failure with reason
    "two-cycles-edge" so the caller can route it to its own case.
    """
    s = summarize(g)
    if not s.connected:
        raise Disconnected("decomposition needs a connected graph")
    if s.cyclomatic < 1:
        raise GraphError("decomposition needs at least one cycle")
    if s.is_cycle:
        raise IsACycle("a bare cycle does not decompose")
    blocks = biconnected_blocks(g)
    cyclic = [b for b in blocks if len(b) >= 3]
    edge_count_in = {b: 0 for b in cyclic}
    bset = {b: set(b) for b in cyclic}
    for u, v in g.edges:
        for b in cyclic:
            if u in bset[b] and v in bset[b]:
                edge_count_in[b] += 1
    for b in cyclic:
        if edge_count_in[b] > len(b):
            return DecompositionFailure("cycles-share-vertices")
    # each cyclic block is now a single induced cycle
    attachments = []
    covered: set[int] = set()
    for b in cyclic:
        majors = [v for v in b if g.degree(v) > 2]
        if len(majors) > 1:
            return DecompositionFailure("cycle-multiple-majors")
        if len(majors) == 0:
            raise AssertionError("cycle block with no outside contact in a connected non-cycle graph")
        u = majors[0]
        if g.degree(u) != 3:
            return DecompositionFailure("attachment-degree")
        outside = [w for w in g.adj[u] if w not in bset[b]]
        attachments.append((b, u, outside[0]))
        covered.update(b)
    remainder = [v for v in range(g.vertex_count) if v not in covered]
    orders = tuple(sorted(len(b) for b, _, _ in attachments))
    if not remainder:
        if len(cyclic) == 2:
            return DecompositionFailure("two-cycles-edge", orders)
        raise AssertionError("empty remainder is only reachable with two cycles")
    targets = [y for _, _, y in attachments]
    if any(y in covered for y in targets):
        return DecompositionFailure("attachment-not-tree-pendant")
    tree, relabel = induced_subgraph(g, remainder)
    tdeg = tree.degrees()
    for y in targets:
        if tdeg[relabel[y]] != 1:
            return DecompositionFailure("attachment-not-tree-pendant")
    if len(set(targets)) != len(targets):
        return DecompositionFailure("attachment-collision")
    att = tuple(
        CycleAttachment(
            cycle_vertices=b,
            order=len(b),
            joining_edge=(u, y),
            tree_pendant=y,
        )
        for (b, u, y) in attachments
    )
    return CycleDecomposition(tree=tree, tree_map=relabel, attachments=att)


# ---------------------------------------------------------------------------
# the main dispatch


def optimal_certificate(
    g: Graph, lam: Eigenvalue, rules: RecognizerRules = DEFAULT_RULES
) -> OptimalityCertificate:
    """Decide whether (g, lambda) matches one of the five optimal shapes.

    The case conditions (c = 0, remainder emptiness, the c <= 2 / c >= 3
    split) are mutually exclusive, so at most one shape matches.

    The verdict (optimal or not, the case tag, the NotOptimal reason) reads
    lambda only through a % 2 and b, under any RecognizerRules.  The root
    order n = Eigenvalue.n fixes both (n odd: a even and b = n; n even: a
    odd and b = n/2), so every lambda of one order gets the same verdict;
    ``verify.check_graph`` certifies one lambda per order on that basis.
    Only the certificate's own parameters (lam, i, k) carry a itself.
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
        return tree_certificate(g, lam, rules)
    if c >= 3 and lam.a % 2:
        return NotOptimal(lam=lam, reason="lambda-form")
    dec = pendant_cycle_decompose(g)
    mod = cycle_order_modulus(lam, rules)
    if isinstance(dec, DecompositionFailure):
        if dec.reason != "two-cycles-edge":
            return NotOptimal(lam=lam, reason=f"shape:{dec.reason}")
        if any(o % mod for o in dec.cycle_orders):
            return NotOptimal(lam=lam, reason="cycle-orders")
        n1, n2 = dec.cycle_orders
        return TwoCyclesEdge(lam=lam, orders=(n1, n2))
    orders = tuple(a.order for a in dec.attachments)
    if any(o % mod for o in orders):
        return NotOptimal(lam=lam, reason="cycle-orders")
    tree_cert = tree_certificate(dec.tree, lam, rules)
    if isinstance(tree_cert, NotOptimal):
        return NotOptimal(lam=lam, reason="tree-congruence")
    if summarize(dec.tree).pendant_count < c:
        return NotOptimal(lam=lam, reason="pendant-deficit")
    tree_vertices = tuple(sorted(v for v in range(g.vertex_count) if v in dec.tree_map))
    pendants = tuple(a.tree_pendant for a in dec.attachments)
    if c <= 2:
        return AttachedCycles(
            lam=lam,
            tree_vertices=tree_vertices,
            cycle_orders=orders,
            attachment_pendants=pendants,
            c=c,
        )
    return ManyCycles(
        lam=lam,
        tree_vertices=tree_vertices,
        cycle_orders=orders,
        c=c,
        q=(lam.b - 1) // 2,
        k=lam.a // 2,
    )


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


def edge_reduction_probe(g: Graph, lam: Eigenvalue) -> ProbeReport:
    """Evaluate the three reduction conditions on the smallest cycle edge
    incident to a major vertex: m_{L(G)} = m_{L(G-e)} + 1, the deleted
    graph's line graph attains its own bound (read literally even when G-e
    degenerates to a cycle), and p(G-e) = p(G) + 1.

    Their conjunction is equivalent to optimality of (g, lambda).
    """
    s = summarize(g)
    bridges = set(s.bridges)
    degs = g.degrees()
    edge = None
    for e in sorted(g.edges):
        if e in bridges:
            continue
        u, v = e
        if degs[u] >= 3 or degs[v] >= 3:
            edge = e
            break
    if edge is None:
        raise NoQualifyingEdge("no cycle edge incident to a major vertex")
    reduced = delete_edge(g, edge)
    m_g = multiplicity_in_poly(line_char_poly(g), lam)
    m_r = multiplicity_in_poly(line_char_poly(reduced), lam)
    return ProbeReport(
        edge=edge,
        mult_drop_ok=(m_g == m_r + 1),
        sub_optimal_ok=(m_r == multiplicity_bound(reduced)),
        pendant_increment_ok=(summarize(reduced).pendant_count == s.pendant_count + 1),
    )
