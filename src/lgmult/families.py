"""Constructors for the graph families the recognizer certifies.

Each generator builds one shape from the characterization: congruent
paths, congruent spiders and trees, trees with cycles attached at
pendant vertices, two cycles joined by an edge, and the two bicyclic
shapes B(l, x, k) and theta(k, x, l).  A ``FamilySpec`` packages a
generator call as data so corpora can be described in JSON and
reproduced exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from .graphs import Graph, GraphError, build_graph
from .spectra import Eigenvalue, candidate_pairs


class NotPendant(GraphError):
    """An attachment vertex does not have degree one in the host tree."""


class DuplicateAttachment(GraphError):
    """The same vertex was named twice as an attachment point."""


def _integer(value: Any, name: str) -> int:
    """An integer read from a spec; a bool or a non-integral number is
    rejected rather than truncated by int()."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_even_odd(lam: Eigenvalue) -> tuple[int, int]:
    """Split lam = (2k, 2q+1) and return (k, q), rejecting other forms."""
    if lam.a % 2 != 0 or lam.b % 2 != 1:
        raise ValueError(
            f"need numerator even and denominator odd, got {lam}"
        )
    return lam.a // 2, (lam.b - 1) // 2


def make_congruent_path(lam: Eigenvalue, t: int) -> Graph:
    """Path on t*b vertices, so the end-to-end distance is b-1 mod b."""
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    n = t * lam.b
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def make_congruent_spider(lam: Eigenvalue, legs: int, r: int) -> Graph:
    """Spider whose legs all have length q + r*(2q+1) edges.

    Any two leaf-to-leaf distances are then 2q + 2r(2q+1), which is
    2q mod (2q+1).  Requires lam = (2k, 2q+1) and legs >= 3.
    """
    _, q = _require_even_odd(lam)
    if legs < 3:
        raise ValueError(f"need at least 3 legs, got {legs}")
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    length = q + r * (2 * q + 1)
    edges: list[tuple[int, int]] = []
    n = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return build_graph(n, edges)


def make_congruent_tree(lam: Eigenvalue, legs: int = 3, steps: int = 0, seed: int = 0) -> Graph:
    """Random tree whose leaf pairs all sit at distance 2q mod (2q+1).

    Grows a spider with ``legs`` legs of length q, then applies
    ``steps`` random operations: either extend a leaf outward by
    2q+1 edges, or hang a fresh length-q branch on a vertex whose
    depth is a multiple of 2q+1.  Both keep every leaf at depth
    q mod (2q+1) and every branching vertex at depth 0 mod (2q+1),
    which forces the pairwise leaf congruence.
    """
    _, q = _require_even_odd(lam)
    if legs < 3:
        raise ValueError(f"need at least 3 legs, got {legs}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    rng = random.Random(seed)
    period = 2 * q + 1

    edges: list[tuple[int, int]] = []
    depth: list[int] = [0]
    leaves: list[int] = []
    n = 1

    def grow_chain(start: int, count: int) -> int:
        nonlocal n
        prev = start
        for _ in range(count):
            edges.append((prev, n))
            depth.append(depth[prev] + 1)
            prev = n
            n += 1
        return prev

    for _ in range(legs):
        leaves.append(grow_chain(0, q))

    for _ in range(steps):
        if rng.random() < 0.5:
            idx = rng.randrange(len(leaves))
            leaves[idx] = grow_chain(leaves[idx], period)
        else:
            anchors = [v for v in range(n) if depth[v] % period == 0]
            v = anchors[rng.randrange(len(anchors))]
            leaves.append(grow_chain(v, q))

    return build_graph(n, edges)


def attach_cycles(
    t: Graph, pendants: Sequence[int], orders: Sequence[int]
) -> Graph:
    """Join a new cycle to each listed pendant vertex of the tree.

    Each cycle contributes its own vertices plus one joining edge
    from its vertex 0 to the pendant, so the pendant keeps degree 2
    in the result and the cycle gains a single degree-3 vertex.
    """
    if len(pendants) != len(orders):
        raise ValueError(
            f"{len(pendants)} attachment points but {len(orders)} orders"
        )
    seen: set[int] = set()
    for v in pendants:
        if not (0 <= v < t.vertex_count):
            raise NotPendant(f"vertex {v} is not in the host graph")
        if t.degree(v) != 1:
            raise NotPendant(f"vertex {v} has degree {t.degree(v)}, not 1")
        if v in seen:
            raise DuplicateAttachment(f"vertex {v} named twice")
        seen.add(v)
    for k in orders:
        if k < 3:
            raise ValueError(f"cycle order must be at least 3, got {k}")

    edges = list(t.edges)
    n = t.vertex_count
    for v, k in zip(pendants, orders):
        base = n
        for j in range(k):
            edges.append((base + j, base + (j + 1) % k))
        edges.append((base, v))
        n += k
    return build_graph(n, edges)


def two_cycles_edge(n1: int, n2: int) -> Graph:
    """Disjoint cycles of the two given orders plus one joining edge."""
    if n1 < 3 or n2 < 3:
        raise ValueError(f"cycle orders must be at least 3, got {n1}, {n2}")
    edges = [(i, (i + 1) % n1) for i in range(n1)]
    edges += [(n1 + i, n1 + (i + 1) % n2) for i in range(n2)]
    edges.append((0, n1))
    return build_graph(n1 + n2, edges)


def make_B(l: int, x: int, k: int) -> Graph:
    """Two cycles C_l and C_k joined by a path of x vertices.

    The path's end vertices are cycle vertices, so x = 1 means the
    cycles share a vertex and x = 2 means they are joined by an edge.
    """
    if l < 3 or k < 3:
        raise ValueError(f"cycle orders must be at least 3, got {l}, {k}")
    if x < 1:
        raise ValueError(f"path must have at least 1 vertex, got {x}")
    edges = [(i, (i + 1) % l) for i in range(l)]
    if x == 1:
        second = [0] + list(range(l, l + k - 1))
        n = l + k - 1
    else:
        second = list(range(l + x - 2, l + x - 2 + k))
        n = l + x - 2 + k
        chain = [0] + list(range(l, l + x - 2)) + [second[0]]
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    edges += [(second[i], second[(i + 1) % k]) for i in range(k)]
    return build_graph(n, edges)


def make_theta(k: int, x: int, l: int) -> Graph:
    """Three internally disjoint paths of k, x, l edges between two hubs.

    At most one of the lengths may be 1, otherwise the shape would
    need a repeated edge.
    """
    lengths = (k, x, l)
    if any(v < 1 for v in lengths):
        raise ValueError(f"path lengths must be at least 1, got {lengths}")
    if sum(1 for v in lengths if v == 1) > 1:
        raise ValueError(
            f"at most one of the three lengths may be 1, got {lengths}"
        )
    edges: list[tuple[int, int]] = []
    n = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return build_graph(n, edges)


CASE_TAGS = (
    "path",
    "spider",
    "tree",
    "attached_cycles",
    "two_cycles_edge",
    "B",
    "theta",
)


@dataclass(frozen=True)
class FamilySpec:
    """Data description of one generator call.

    ``case`` picks the constructor, ``lam`` is the target eigenvalue
    as a pair (omitted for shapes that need none), ``params`` holds
    the constructor arguments, and ``seed`` feeds the random tree
    grower.  Realizing the same spec twice gives the same graph.
    """

    case: str
    lam: tuple[int, int] | None = None
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.case not in CASE_TAGS:
            raise ValueError(f"unknown family case {self.case!r}")

    @property
    def eigenvalue(self) -> Eigenvalue:
        if self.lam is None:
            raise ValueError(f"family case {self.case!r} carries no eigenvalue")
        return Eigenvalue(*self.lam)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"case": self.case, "params": dict(self.params)}
        if self.lam is not None:
            out["lambda"] = {"a": self.lam[0], "b": self.lam[1]}
        if self.seed:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_json_dict(cls, data: Any) -> "FamilySpec":
        if not isinstance(data, dict):
            raise ValueError(f"family spec must be a JSON object, got {data!r}")
        lam = None
        if "lambda" in data:
            raw = data["lambda"]
            if isinstance(raw, dict):
                lam = (_integer(raw["a"], "lambda a"), _integer(raw["b"], "lambda b"))
            elif isinstance(raw, str):
                e = Eigenvalue.parse(raw)
                lam = (e.a, e.b)
            elif isinstance(raw, list) and len(raw) == 2:
                lam = (_integer(raw[0], "lambda a"), _integer(raw[1], "lambda b"))
            else:
                raise ValueError(f"lambda must be {{a, b}}, 'a/b' or [a, b], got {raw!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, got {params!r}")
        return cls(
            case=data["case"],
            lam=lam,
            params=dict(params),
            seed=_integer(data.get("seed", 0), "seed"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FamilySpec":
        return cls.from_json_dict(json.loads(text))


def _param(params: dict[str, Any], name: str, default: int | None = None) -> int:
    """params[name], else the default, read as an integer; a parameter
    with neither raises a ValueError naming it."""
    if name not in params and default is None:
        raise ValueError(f"missing parameter {name!r}")
    return _integer(params.get(name, default), name)


def _congruent(kind: str, lam: Eigenvalue, p: dict[str, Any], seed: int) -> Graph:
    """The congruent path, spider or tree named by kind, from params p."""
    if kind == "path":
        return make_congruent_path(lam, _param(p, "t"))
    if kind == "spider":
        return make_congruent_spider(lam, _param(p, "legs"), _param(p, "r", 0))
    if kind == "tree":
        return make_congruent_tree(lam, _param(p, "legs", 3), _param(p, "steps", 0), seed)
    raise ValueError(f"unknown host tree kind {kind!r}")


def realize(spec: FamilySpec) -> Graph:
    """Build the graph a FamilySpec describes."""
    p = spec.params
    if spec.case in ("path", "spider", "tree"):
        return _congruent(spec.case, spec.eigenvalue, p, spec.seed)
    if spec.case == "attached_cycles":
        host = {"t": 1, "legs": 3, **p}
        tree = _congruent(p.get("tree", "spider"), spec.eigenvalue, host, spec.seed)
        pendants = [v for v in range(tree.vertex_count) if tree.degree(v) == 1]
        if "multiples" not in p:
            raise ValueError("missing parameter 'multiples'")
        multiples = [_integer(m, "multiples") for m in p["multiples"]]
        if len(multiples) > len(pendants):
            raise ValueError(
                f"{len(multiples)} cycles but only {len(pendants)} pendants"
            )
        orders = [m * spec.eigenvalue.n for m in multiples]
        return attach_cycles(tree, pendants[: len(multiples)], orders)
    if spec.case == "two_cycles_edge":
        return two_cycles_edge(_param(p, "n1"), _param(p, "n2"))
    if spec.case == "B":
        return make_B(_param(p, "l"), _param(p, "x"), _param(p, "k"))
    if spec.case == "theta":
        return make_theta(_param(p, "k"), _param(p, "x"), _param(p, "l"))
    raise AssertionError(f"unhandled case {spec.case!r}")


def _lambda_pool(
    rng: random.Random, even_odd_only: bool, max_b: int
) -> tuple[int, int]:
    """Draw a small canonical eigenvalue pair, optionally (even, odd) form."""
    pool = [
        (lam.a, lam.b)
        for lam in candidate_pairs(6)
        if lam.b <= max_b
        and (not even_odd_only or (lam.a % 2 == 0 and lam.b % 2 == 1))
    ]
    return pool[rng.randrange(len(pool))]


def random_positive_spec(case: str, seed: int) -> FamilySpec:
    """Seeded spec for one of the five certified shapes.

    ``case`` is one of path, spider, tree, attached_cycles (covering
    both the one-or-two-cycle and the many-cycle variants), or
    two_cycles_edge.  Sizes are capped so the exact multiplicity of
    the line graph stays cheap to compute on one core.
    """
    rng = random.Random(str(("positive", case, seed)))
    if case == "path":
        lam = _lambda_pool(rng, even_odd_only=False, max_b=9)
        return FamilySpec("path", lam, {"t": rng.randint(1, 4)})
    if case == "spider":
        lam = _lambda_pool(rng, even_odd_only=True, max_b=7)
        return FamilySpec(
            "spider", lam, {"legs": rng.randint(3, 4), "r": rng.randint(0, 1)}
        )
    if case == "tree":
        lam = _lambda_pool(rng, even_odd_only=True, max_b=7)
        return FamilySpec(
            "tree",
            lam,
            {"legs": rng.randint(3, 4), "steps": rng.randint(0, 4)},
            seed=seed,
        )
    if case == "attached_cycles":
        count = rng.randint(1, 4)
        multiples = [rng.randint(1, 2) if count <= 2 else 1 for _ in range(count)]
        if count <= 2 and rng.random() < 0.4:
            lam = _lambda_pool(rng, even_odd_only=False, max_b=5)
            tree: dict[str, Any] = {"tree": "path", "t": rng.randint(1, 2)}
            if count == 1 and rng.random() < 0.5:
                # A single cycle may hang off a branching congruent tree.
                lam = _lambda_pool(rng, even_odd_only=True, max_b=5)
                tree = {"tree": "spider", "legs": 3, "r": 0}
        else:
            lam = _lambda_pool(rng, even_odd_only=True, max_b=5)
            legs = max(3, count)
            tree = {"tree": "spider", "legs": legs, "r": rng.randint(0, 1)}
        params = dict(tree)
        params["multiples"] = multiples
        return FamilySpec("attached_cycles", lam, params, seed=seed)
    if case == "two_cycles_edge":
        lam = _lambda_pool(rng, even_odd_only=False, max_b=5)
        modulus = Eigenvalue(*lam).n
        return FamilySpec(
            "two_cycles_edge",
            lam,
            {
                "n1": modulus * rng.randint(1, 2),
                "n2": modulus * rng.randint(1, 2),
            },
        )
    raise ValueError(f"no positive family case named {case!r}")


def random_negative_spec(case: str, seed: int) -> FamilySpec:
    """Seeded B or theta spec that fails the cycle-order congruences.

    The two cycle orders are chosen coprime, so no candidate modulus
    3 or larger divides both and the certificate is NotOptimal at
    every candidate eigenvalue.  The theta shapes fail already on
    shape grounds; their parameters are unconstrained.
    """
    rng = random.Random(str(("negative", case, seed)))
    if case == "B":
        while True:
            l = rng.randint(3, 9)
            k = rng.randint(3, 9)
            if l != k and math.gcd(l, k) == 1:
                break
        return FamilySpec("B", None, {"l": l, "x": rng.randint(1, 5), "k": k})
    if case == "theta":
        while True:
            lengths = [rng.randint(1, 6) for _ in range(3)]
            if sum(1 for v in lengths if v == 1) <= 1:
                break
        return FamilySpec(
            "theta",
            None,
            {"k": lengths[0], "x": lengths[1], "l": lengths[2]},
        )
    raise ValueError(f"no negative family case named {case!r}")


def positive_corpus(per_case: int, seed: int = 0) -> list[FamilySpec]:
    """per_case seeded specs for each certified shape, in a fixed order."""
    cases = ("path", "spider", "tree", "attached_cycles", "two_cycles_edge")
    return [
        random_positive_spec(case, seed * 10_000 + i)
        for case in cases
        for i in range(per_case)
    ]


def negative_corpus(per_case: int, seed: int = 0) -> list[FamilySpec]:
    """per_case seeded broken-congruence specs for each bicyclic shape."""
    return [
        random_negative_spec(case, seed * 10_000 + i)
        for case in ("B", "theta")
        for i in range(per_case)
    ]
