"""Exact adjacency spectra: characteristic polynomials, eigenvalue classes,
multiplicities of 2cos(a*pi/b), and kernel dimensions over the field Q(lambda).

The eigenvalues of interest are lambda = 2*cos(a*pi/b) in (-2, 2) with
gcd(a, b) = 1 and 1 <= a < b.  Writing lambda = z + 1/z for the root of
unity z = exp(i*pi*a/b) of order n (n = 2b for odd a, n = b for even a),
the minimal polynomial of lambda over Q comes out of the n-th cyclotomic
polynomial by the substitution y = x + 1/x.  All multiplicity statements
are settled by exact integer arithmetic on characteristic polynomials;
floating point only ever appears in the explicitly numeric routines.

The spectrum of a line graph L(G) is read off the n x n matrix
Q - 2I = (D - 2I) + A of G itself, never off the m x m matrix A(L(G)).
With B the vertex-edge incidence matrix, B B^T = Q = D + A and
B^T B = A(L(G)) + 2I share their nonzero eigenvalues, so
P_L(G)(x) = (x+2)^(m-n) * det(xI - (Q - 2I)) (Cvetkovic, Rowlinson and
Simic, Spectral Generalizations of Line Graphs, LMS Lecture Notes 314,
2004, ch. 1).  One power-sum pass of degree n (traces of the powers of
Q - 2I, lifted to be non-negative) and one squarefree split of degree n
serve L(G), with the factor x + 2 carried apart; a multiplicity at a
lambda in (-2, 2) never needs that factor.
A caller that asks only for the classes of multiplicity at least k is
mostly served, when G has an induced path on at least n - k + 2
vertices, by Cauchy interlacing and a rank of Q over GF(2), with no
polynomial built.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Sequence

from .graphs import GRAPH_CACHE_SIZE, Graph, bfs_distances, components
from .intpoly import (
    IntPoly,
    compress_palindrome,
    cyclotomic,
    div_exact,
    squarefree_decomposition,
)


class NonCanonical(ValueError):
    """Eigenvalue parameters outside the canonical range (coprime, 1 <= a < b)."""


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class Eigenvalue:
    """The algebraic number 2*cos(a*pi/b) in canonical form."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (1 <= self.a < self.b):
            raise NonCanonical(f"need 1 <= a < b, got ({self.a}, {self.b})")
        if math.gcd(self.a, self.b) != 1:
            raise NonCanonical(f"({self.a}, {self.b}) is not in lowest terms")

    @property
    def n(self) -> int:
        """Order of the root of unity exp(i*pi*a/b)."""
        return 2 * self.b if self.a % 2 else self.b

    @property
    def degree(self) -> int:
        """phi(n)/2, the degree of the minimal polynomial."""
        ps = _prime_factors(self.n)
        return self.n // math.prod(ps) * math.prod(p - 1 for p in ps) // 2

    @property
    def numeric(self) -> float:
        return 2.0 * math.cos(math.pi * self.a / self.b)

    @property
    def minimal_polynomial(self) -> IntPoly:
        return trig_min_poly(self.a, self.b)

    @classmethod
    def parse(cls, text: str) -> Eigenvalue:
        parts = text.split("/")
        if len(parts) != 2:
            raise NonCanonical(f"eigenvalue must be written a/b, got {text!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise NonCanonical(f"non-integer eigenvalue parameters in {text!r}") from exc
        return cls(a, b)

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


@lru_cache(maxsize=None)
def _order_min_poly(n: int) -> IntPoly:
    """Minimal polynomial of w + 1/w over Q for a primitive n-th root of
    unity w, monic in Z[y]; built once per order."""
    return compress_palindrome(cyclotomic(n))


@lru_cache(maxsize=None)
def trig_min_poly(a: int, b: int) -> IntPoly:
    """Minimal polynomial of 2*cos(a*pi/b) over Q, monic in Z[y]; it depends
    only on the root order n, so (a, b) pairs of one order share it."""
    return _order_min_poly(Eigenvalue(a, b).n)


@lru_cache(maxsize=None)
def _order_lambdas(n: int) -> tuple[Eigenvalue, ...]:
    """The eigenvalues 2*cos(2*pi*k/n) of root order n, for k coprime to n
    with 1 <= k < n/2, by increasing a: (2k, n) for odd n and (k, n/2)
    for even n (k is then odd)."""
    g = 2 - n % 2  # gcd(2k, n)
    ks = range(1, (n + 1) // 2)
    return tuple(Eigenvalue(2 * k // g, n // g) for k in ks if math.gcd(k, n) == 1)


def _orders_of_small_phi(limit: int) -> list[int]:
    """Every n >= 1 with phi(n) <= limit, by a depth-first walk over prime
    powers.  A prime p dividing n has p - 1 <= phi(n), so the primes up
    to limit + 1 suffice, and phi(n * p**e) grows with p."""
    primes = [p for p in range(2, limit + 2) if _is_prime(p)]
    out: list[int] = []

    def walk(n: int, phi: int, start: int) -> None:
        out.append(n)
        for i, p in enumerate(primes[start:], start):
            q, f = n * p, phi * (p - 1)
            if f > limit:
                break
            while f <= limit:
                walk(q, f, i + 1)
                q, f = q * p, f * p

    walk(1, 1, 0)
    return out


@lru_cache(maxsize=None)
def candidate_orders(max_degree: int) -> tuple[tuple[int, tuple[Eigenvalue, ...]], ...]:
    """The root orders n >= 3 with phi(n)/2 <= max_degree, each with its
    eigenvalues (one tuple per order, shared across every max_degree), by
    first appearance in (b, a) order: an even n starts b = n/2 at a = 1,
    ahead of the odd order n = b."""
    orders = [n for n in _orders_of_small_phi(2 * max_degree) if n >= 3]
    orders.sort(key=lambda n: (n // 2, 0) if n % 2 == 0 else (n, 1))
    return tuple((n, _order_lambdas(n)) for n in orders)


@lru_cache(maxsize=None)
def candidate_pairs(max_degree: int) -> tuple[Eigenvalue, ...]:
    """All canonical eigenvalues whose minimal polynomial has degree at
    most max_degree, sorted by (b, a): candidate_orders(max_degree)
    flattened and sorted once."""
    lams = [lam for _, group in candidate_orders(max_degree) for lam in group]
    return tuple(sorted(lams, key=lambda e: (e.b, e.a)))


@lru_cache(maxsize=None)
def candidate_count(max_degree: int) -> int:
    """len(candidate_pairs(max_degree)), summed over candidate_orders without
    building the sorted tuple."""
    return sum(len(lams) for _, lams in candidate_orders(max_degree))


# ---------------------------------------------------------------------------
# characteristic polynomials


def path_char_poly(k: int) -> IntPoly:
    """Characteristic polynomial of the path on k vertices (k >= 0)."""
    if k < 0:
        raise ValueError("negative path order")
    prev, cur = IntPoly.one(), IntPoly.x()
    if k == 0:
        return prev
    x = IntPoly.x()
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


def cycle_char_poly(k: int) -> IntPoly:
    """Characteristic polynomial of the cycle on k >= 3 vertices."""
    if k < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {k}")
    return path_char_poly(k) - path_char_poly(k - 2) - IntPoly.constant(2)


def _char_poly_leverrier(g: Graph, diag: Sequence[int] = ()) -> IntPoly:
    """Characteristic polynomial of X = diag(diag) + A(g) from the power
    sums of a non-negative matrix (an empty ``diag`` gives A(g)).

    Lifting the diagonal by t = max(0, -min(diag)) makes X' = X + tI
    non-negative.  Row i of X'**k is packed into the one integer
    sum_j X'**k[i][j] * 2**(W*j) (Kronecker substitution), so row i of the
    next power, x'_ii times row i plus the rows of i's neighbours, is a few
    big-int additions.  With rho' = max_i (x'_ii + deg i), no entry of
    X'**k exceeds rho'**k, since each row sum of X' @ M is at most rho'
    times the largest of M; so W = bitlen(rho'**n) holds every digit, and
    p_k = tr(X'**k) sums digit i of row i.  Newton's identities
    k*c_k = -(p_k + sum_(j<k) c_j * p_(k-j)) give the coefficient c_k of
    x**(n-k) (L. Csanky, SIAM J. Comput. 5 (1976) 618-623), and the Taylor
    shift P_X(x) = P_X'(x + t) undoes the lift.
    """
    n = g.vertex_count
    t = max(0, -min(diag, default=0))
    diag = [d + t for d in diag] if diag else [0] * n
    rho = max((d + len(a) for d, a in zip(diag, g.adj)), default=0)
    width = max(1, (rho**n).bit_length())
    mask, shifts = (1 << width) - 1, range(0, width * n, width)
    rows, coeffs, sums = [1 << s for s in shifts], [1], []
    for k in range(1, n + 1):
        new = []
        for d, row, nbrs in zip(diag, rows, g.adj):
            acc = row if d == 1 else d * row
            for w in nbrs:
                acc += rows[w]
            new.append(acc)
        rows = new
        sums.append(sum((r >> s) & mask for r, s in zip(rows, shifts)))
        acc = sum(c * p for c, p in zip(coeffs, reversed(sums)))
        if acc % k:
            raise AssertionError(f"power sums not divisible at Newton step {k}")
        coeffs.append(-(acc // k))
    coeffs.reverse()
    for i in range(n if t else 0):
        for j in range(n - 1, i - 1, -1):
            coeffs[j] += t * coeffs[j + 1]
    return IntPoly(tuple(coeffs))


def _is_path(g: Graph) -> bool:
    return (
        g.edge_count == g.vertex_count - 1
        and all(d <= 2 for d in g.degrees())
        and len(components(g)) == 1
    )


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def char_poly(g: Graph) -> IntPoly:
    """Characteristic polynomial of the adjacency matrix, monic in Z[x].

    A path takes its closed form (much cheaper than the matrix route on
    long paths); any other graph, connected or not, goes through the
    power sums of A (no lift needed), exact on any graph.  Memoized on the
    immutable Graph.
    """
    if _is_path(g):
        return path_char_poly(g.vertex_count)
    return _char_poly_leverrier(g)


_X_PLUS_2 = IntPoly((2, 1))


def _line_spectrum(g: Graph) -> tuple[IntPoly, int]:
    """(R, e) with char_poly(L(g)) = R * (x+2)**e and R(-2) != 0; not
    memoized, since a sweep meets each graph once.

    R is det(xI - (Q - 2I)), from the power sums of Q - 2I lifted by
    t = max(0, 2 - least degree), with every factor x + 2 divided out;
    e is m - n plus the number divided out (the bipartite components of
    g, each isolated vertex included).  A path keeps its closed form,
    since L(P_n) = P_(n-1) has no eigenvalue -2.
    """
    if _is_path(g):
        return path_char_poly(g.edge_count), 0
    r = _char_poly_leverrier(g, [d - 2 for d in g.degrees()])
    e = g.edge_count - g.vertex_count
    while r(-2) == 0:
        r = div_exact(r, _X_PLUS_2)
        e += 1
    return r, e


def _gf2_rank_reaches(g: Graph, target: int) -> bool:
    """Whether Q = D + A of g has rank at least ``target`` over GF(2).

    XOR elimination on bitmask rows: row i is the neighbour mask of i,
    plus bit i when deg i is odd, reduced by the rows kept so far (each
    kept row lacks the leading bit of every earlier one).  It stops as
    soon as ``target`` rows are kept.
    """
    if target <= 0:
        return True
    kept: list[int] = []
    for i, nbrs in enumerate(g.adj):
        row = sum(1 << w for w in nbrs) | (len(nbrs) & 1) << i
        for k in kept:
            row = min(row, row ^ k)
        if row:
            kept.append(row)
            if len(kept) >= target:
                return True
    return False


def _farthest(dist: list[int | None]) -> tuple[int, int]:
    """(v, d): the first vertex v at the largest distance d that dist
    reaches."""
    if None in dist:
        dist = [-1 if x is None else x for x in dist]
    d = max(dist)
    return dist.index(d), d


def _geodesic(g: Graph, need: int) -> list[int]:
    """A shortest path of g from a double-sweep BFS, with at least
    ``need`` vertices when the sweep finds one.  The first sweep, from
    vertex 0, reaches a farthest vertex u at distance d.  The path from u
    back to 0 is returned when it is long enough, or when even the
    diameter, at most 2d, falls short; otherwise the second sweep, from
    u, gives the path from a vertex farthest from u back to u.  A shortest
    path is an induced path, since a chord would shorten it.  On
    disconnected input it stays in the component of vertex 0; [] for the
    empty graph."""
    if not g.vertex_count:
        return []
    dist = bfs_distances(g, 0)
    v, d = _farthest(dist)
    if d + 1 < need <= 2 * d + 1:
        dist = bfs_distances(g, v)
        v, d = _farthest(dist)
    path = [v]
    for d in range(d - 1, -1, -1):
        for w in g.adj[v]:
            if dist[w] == d:
                break
        path.append(w)
        v = w
    return path


# ---------------------------------------------------------------------------
# multiplicities and eigenvalue classes


@lru_cache(maxsize=None)
def _order_screen(n: int) -> tuple[IntPoly, int, int, int]:
    """The minimal polynomial psi of root order n, with deg psi, psi(2)
    and psi(-3)."""
    psi = _order_min_poly(n)
    return psi, psi.degree, psi(2), psi(-3)


def multiplicities_in_poly(f: IntPoly, orders: Iterable[int]) -> dict[int, int]:
    """The multiplicity as a root of f of the eigenvalues of each root
    order in ``orders``, keyed by order, by exact division (0 where
    deg f < deg psi).

    Cheap integer screens come before any division: if psi | f then
    psi(t) | f(t) at every integer t, and psi(t) != 0 for |t| >= 2
    because all roots of psi lie in (-2, 2).  f(2) and f(-3) are taken
    once for all the orders, and only once some psi has degree <= deg f.
    """
    out: dict[int, int] = {}
    degree, f2, f3 = f.degree, None, None
    for n in orders:
        psi, d, psi2, psi3 = _order_screen(n)
        out[n] = 0
        if d > degree:
            continue
        if f2 is None:
            f2, f3 = f(2), f(-3)
        if f2 and f2 % psi2 or f3 and f3 % psi3:
            continue
        h = f
        while not h.is_zero and h.degree >= d:
            try:
                h = div_exact(h, psi)
            except ValueError:
                break
            out[n] += 1
    return out


def multiplicity_in_poly(f: IntPoly, lam: Eigenvalue) -> int:
    """Multiplicity of lam as a root of f: multiplicities_in_poly at the
    root order of lam alone."""
    return multiplicities_in_poly(f, [lam.n])[lam.n]


def multiplicity(g: Graph, lam: Eigenvalue) -> int:
    """Multiplicity of 2*cos(a*pi/b) as an adjacency eigenvalue of g."""
    return multiplicity_in_poly(char_poly(g), lam)


def line_multiplicities(g: Graph, orders: Iterable[int]) -> dict[int, int]:
    """The multiplicity in L(g) of the eigenvalues of each root order in
    ``orders``, keyed by order; every eigenvalue of one order shares its
    minimal polynomial, and so its multiplicity.  Read off R alone: every
    lambda lies in (-2, 2), so its minimal polynomial is coprime to x + 2
    and divides char_poly(L(g)) = R * (x+2)**e exactly as often as it
    divides R.  R is built once, and L(g) itself is never built."""
    return multiplicities_in_poly(_line_spectrum(g)[0], orders)


@dataclass(frozen=True)
class EigClass:
    """A squarefree factor of the characteristic polynomial with its
    multiplicity; the factor collects every irreducible appearing exactly
    that many times."""

    factor: IntPoly
    multiplicity: int


def _class_key(c: EigClass) -> tuple[int, int, tuple[int, ...]]:
    return (-c.multiplicity, c.factor.degree, c.factor.coeffs)


def eig_classes(f: IntPoly, at_least: int = 1) -> tuple[EigClass, ...]:
    """Squarefree split of f, only the classes of multiplicity >= at_least,
    sorted by descending multiplicity, then degree, then coefficients."""
    classes = [EigClass(h, m) for h, m in squarefree_decomposition(f, at_least)]
    classes.sort(key=_class_key)
    return tuple(classes)


def line_eig_classes(g: Graph, at_least: int = 1) -> tuple[EigClass, ...]:
    """The classes of eig_classes(char_poly(L(g))) with multiplicity
    >= at_least, from the squarefree split of R (degree at most n) alone:
    x + 2 has multiplicity exactly e in R * (x+2)**e, so it joins the class
    of multiplicity e when e >= at_least.  A class h of R with
    multiplicity k has k * deg h <= deg R, so R is split only when
    deg R >= at_least.

    Before R is built, the answer is () when g has an induced path on
    s >= n - at_least + 2 vertices and the rank of Q = D + A over GF(2) is
    at least m - at_least + 1.  On an induced path S the principal
    submatrix (Q - 2I)[S] is irreducible tridiagonal, so its eigenvalues
    are simple, and by Cauchy interlacing an eigenvalue of Q - 2I of
    multiplicity k is one of (Q - 2I)[S] with multiplicity at least
    k - (n - s).  So every class of R has multiplicity <= n - s + 1 <
    at_least (s = 1, any one vertex, is the case n < at_least).  x + 2
    has multiplicity e = m - rank Q, and a nonzero r x r minor of Q mod 2
    is a nonzero integer minor, so rank Q >= rank_2 Q and e <= m - rank_2 Q
    < at_least.  The tests run by cost: an induced path holds at most two
    pendant vertices, so s <= n - max(p - 2, 0) rules out a long enough
    path for free (every tree at the bound 2c + p - 1 = p - 1); then a
    geodesic from a double-sweep BFS, which often needs one sweep; then
    the rank.  The screen reads g alone, and a graph it does not settle
    takes the exact route above."""
    n = g.vertex_count
    need = n - at_least + 2
    capped = need <= 1 or (
        n - max(g.degrees().count(1) - 2, 0) >= need and len(_geodesic(g, need)) >= need
    )
    if capped and _gf2_rank_reaches(g, g.edge_count - at_least + 1):
        return ()
    r, e = _line_spectrum(g)
    classes = eig_classes(r, at_least) if r.degree >= at_least else ()
    if not e or e < at_least:
        return classes
    factors = {c.multiplicity: c.factor for c in classes}
    factors[e] = factors.get(e, IntPoly.one()) * _X_PLUS_2
    return tuple(sorted((EigClass(f, k) for k, f in factors.items()), key=_class_key))


# ---------------------------------------------------------------------------
# numeric cross-check route


def numeric_spectrum(g: Graph) -> list[float]:
    """Adjacency eigenvalues by dense symmetric numerics, ascending."""
    import numpy as np

    if g.vertex_count == 0:
        return []
    a = np.zeros((g.vertex_count, g.vertex_count))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return [float(x) for x in np.linalg.eigvalsh(a)]


# Entries within _NUMERIC_TOL of lambda count; one between _NUMERIC_TOL
# and _NUMERIC_GAP, where rounding could miscount, makes the count abstain.
_NUMERIC_TOL = 1e-8
_NUMERIC_GAP = 1e-6


def numeric_multiplicity(spectrum: Sequence[float], lam: Eigenvalue) -> int | None:
    """Count spectrum entries within _NUMERIC_TOL of lam; None when some
    entry falls in the guard band below _NUMERIC_GAP."""
    target = lam.numeric
    count = 0
    for x in spectrum:
        d = abs(x - target)
        if d <= _NUMERIC_TOL:
            count += 1
        elif d < _NUMERIC_GAP:
            return None
    return count


@lru_cache(maxsize=None)
def _numeric_table(max_degree: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The values lam.numeric of candidate_pairs(max_degree), ascending,
    with the index of each in candidate_pairs."""
    pairs = candidate_pairs(max_degree)
    index = sorted(range(len(pairs)), key=lambda i: pairs[i].numeric)
    return tuple(pairs[i].numeric for i in index), tuple(index)


def numeric_multiplicities(spectrum: Sequence[float], max_degree: int) -> list[int | None]:
    """numeric_multiplicity(spectrum, lam) for each lam of
    candidate_pairs(max_degree), in that order.  Only a candidate within
    _NUMERIC_GAP of an entry can count it or abstain over it, so each
    entry bisects the sorted table for the candidates within
    2*_NUMERIC_GAP of it; an abstention is final, as it is per lambda."""
    values, index = _numeric_table(max_degree)
    counts: list[int | None] = [0] * len(values)
    for x in spectrum:
        lo = bisect_left(values, x - 2 * _NUMERIC_GAP)
        for j in range(lo, bisect_right(values, x + 2 * _NUMERIC_GAP, lo)):
            i, d = index[j], abs(x - values[j])
            if d <= _NUMERIC_TOL:
                count = counts[i]
                counts[i] = None if count is None else count + 1
            elif d < _NUMERIC_GAP:
                counts[i] = None
    return counts


# ---------------------------------------------------------------------------
# kernel dimension over Q(lambda)


@lru_cache(maxsize=None)
def _specialization_mod_p(n: int) -> tuple[int, int]:
    """A prime p = 1 (mod n) and a residue r with Psi(r) = 0 (mod p).

    r is w + 1/w for a primitive n-th root of unity w in F_p, mirroring the
    definition of the eigenvalue itself, so the substitution y -> r is a ring
    map Z[y]/(Psi) -> F_p.
    """
    p = (1 << 20) // n * n + 1
    while not _is_prime(p):
        p += n
    qs = _prime_factors(n)
    rng = random.Random(n)
    while True:
        a = rng.randrange(2, p - 1)
        w = pow(a, (p - 1) // n, p)
        if w != 1 and all(pow(w, n // q, p) != 1 for q in qs):
            break
    r = (w + pow(w, p - 2, p)) % p
    if _order_min_poly(n).eval_mod(r, p):
        raise AssertionError(f"specialization {r} mod {p} is not a root of Psi_{n}")
    return p, r


# The screen multiplies residues mod p in int64, so a product must stay
# below 2**63: p below 2**31 keeps p*p below 2**62.  Orders whose prime
# is too large skip the screen and take the exact route.
_SCREEN_PRIME_LIMIT = 1 << 31
# int64 entries per stacked block of the screen, which bounds its memory
_SCREEN_BLOCK_ENTRIES = 1 << 16


@lru_cache(maxsize=64)
def _screen_specs(orders: tuple[int, ...], prime_limit: int) -> tuple[Any, Any, Any]:
    """The orders n of ``orders`` whose prime p_n is below prime_limit,
    with p_n (shaped to broadcast over a stack of matrices) and r_n, as
    int64 arrays."""
    import numpy as np

    specs = [(n, *_specialization_mod_p(n)) for n in orders]
    table = np.array([s for s in specs if s[1] < prime_limit], dtype=np.int64).reshape(-1, 3)
    return table[:, 0], table[:, 1, None, None], table[:, 2, None]


def _screen_full_rank(g: Graph, orders: list[int]) -> set[int]:
    """The orders n at which A - r_n*I has full rank mod p_n.

    Full rank mod p forces full rank over Q(lambda) (the ring map
    Z[y]/(Psi) -> F_p cannot raise rank), hence kernel dimension zero; an
    order the screen leaves out proves nothing.  The matrices of all orders
    are stacked and eliminated together, fraction-free, so no modular
    inverse is needed, and with no row swaps.  Entries lie in [0, p), so
    the argmax of column c is a nonzero entry when the column has one; it
    is the pivot, and every row becomes pivot*row - row[c]*pivot_row
    (mod p) right of column c.  That zeroes the pivot row, so no later
    column picks it again, and a matrix has full rank exactly when every
    column finds a nonzero entry.
    """
    import numpy as np

    all_ids, all_p, all_r = _screen_specs(tuple(orders), _SCREEN_PRIME_LIMIT)
    size = g.vertex_count
    diag = np.arange(size)
    base = np.zeros((size, size), dtype=np.int64)
    u, v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    base[u, v] = base[v, u] = 1
    step = max(1, _SCREEN_BLOCK_ENTRIES // (size * size))
    certified: set[int] = set()
    for lo in range(0, len(all_ids), step):
        ids, p = all_ids[lo : lo + step], all_p[lo : lo + step]
        mats = np.repeat(base[None], len(ids), axis=0)
        mats[:, diag, diag] -= all_r[lo : lo + step]
        mats %= p
        k = np.arange(len(ids))
        for c in range(size):
            col = mats[:, :, c]
            piv = col.argmax(axis=1)
            pivot = col[k, piv]
            if not pivot.all():
                found = pivot != 0
                ids, p, mats, piv, pivot = ids[found], p[found], mats[found], piv[found], pivot[found]
                if not len(ids):
                    break
                k, col = k[: len(ids)], mats[:, :, c]
            rest = mats[:, :, c + 1 :]
            acc = pivot[:, None, None] * rest
            acc -= col[:, :, None] * mats[k, piv, None, c + 1 :]
            np.remainder(acc, p, out=rest)
        certified.update(ids.tolist())
    return certified


def _nullity_exact(g: Graph, n: int) -> int:
    """Kernel dimension over Q(lambda) of A - lambda*I for the
    eigenvalues of root order n, as the rank of one integer matrix.

    With d = deg(Psi_n) and C the companion matrix of Psi_n (u -> y*u on
    the basis 1, y, ..., y^(d-1)), A - lambda*I acting on Q(lambda)^v =
    Q^(vd) is M = A (x) I_d - I_v (x) C.  A is symmetric and Psi_n has
    distinct roots, so ker M is the sum of the eigenspaces of A at the d
    conjugates of lambda, which share one dimension: dim_Q ker M =
    d * nullity.  Rows go vertex by vertex and columns power by power
    (column s*v + j is y^s at vertex j); any order gives the same rank,
    and this one ran 3 to 5 times faster than vertex-major columns on
    Petersen and G(40, 1/2).

    Fraction-free elimination: each row with a nonzero entry f in the
    pivot column becomes p*row - f*pivot_row over the content of its
    entries; the other rows stay.  Each row is then the primitive integer
    multiple of its exact Schur-complement row, whose entries times the
    pivot minor are minors of M, so they stay within Hadamard's bound
    rather than doubling in length at every step.
    """
    psi = _order_min_poly(n).coeffs
    d = len(psi) - 1
    v = g.vertex_count
    size = v * d
    rows = []
    for i, nbrs in enumerate(g.adj):
        for s in range(d):
            row = [0] * size
            for j in nbrs:
                row[s * v + j] = 1
            if s:
                row[(s - 1) * v + i] = -1
            row[(d - 1) * v + i] += psi[s]
            rows.append(row)
    rank = 0
    for c in range(size):
        piv = next((k for k, row in enumerate(rows) if row[c]), None)
        if piv is None:
            continue
        pivot_row = rows.pop(piv)
        p = pivot_row[c]
        rank += 1
        for k, row in enumerate(rows):
            f = row[c]
            if f:
                row = [p * a - f * b for a, b in zip(row, pivot_row)]
                content = math.gcd(*row)
                rows[k] = [a // content for a in row] if content > 1 else row
    nullity, rest = divmod(size - rank, d)
    if rest:
        raise AssertionError(f"dim ker M = {size - rank} is not a multiple of deg(Psi_{n})")
    return nullity


def annihilator_dimensions(g: Graph, orders: Iterable[int]) -> dict[int, int]:
    """Kernel dimension over Q(lambda) of A - lambda*I, that is the
    eigenvalue multiplicity of lambda, for the eigenvalues of each root
    order in ``orders``, keyed by order, computed without reference to the
    characteristic polynomial.

    Conjugate eigenvalues share the kernel dimension: a modular screen
    certifies the frequent full-rank orders together, and every other
    order goes through _nullity_exact, the rank of one integer matrix of
    size vertex_count * deg(Psi).
    """
    orders = list(orders)
    if not g.vertex_count:
        return dict.fromkeys(orders, 0)
    full_rank = _screen_full_rank(g, orders)
    return {n: 0 if n in full_rank else _nullity_exact(g, n) for n in orders}


def annihilator_dimension(g: Graph, lam: Eigenvalue) -> int:
    """The entry of annihilator_dimensions at the root order of lam: the
    single-lambda name, which perfbench/layers.py traces."""
    return annihilator_dimensions(g, [lam.n])[lam.n]
