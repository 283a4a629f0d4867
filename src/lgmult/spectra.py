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
2004, ch. 1).  One Faddeev-LeVerrier pass of degree n and one squarefree
split of degree n then serve L(G), with the factor x + 2 carried apart;
a multiplicity at a lambda in (-2, 2) never needs that factor.
A caller that asks only for the classes of multiplicity at least k > n
is mostly served by a rank of Q over GF(2), with no polynomial built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .graphs import GRAPH_CACHE_SIZE, Graph, components
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
    """Characteristic polynomial of X = diag(diag) + A(g) by Faddeev-LeVerrier
    over plain integers (an empty ``diag`` is the zero diagonal, so A(g)).

    Row i of M is packed into the one integer sum_j M[i][j] * 2**(W*j)
    (Kronecker substitution), so row i of X @ M, x_ii times row i plus the
    rows of i's neighbours, costs a few big-int additions.  With
    rho = max_i (|x_ii| + deg i), |c_j| <= C(n, j) * rho**j bounds every
    entry of every X @ M by 2**n * rho**n, so W = n + n*bitlen(rho) + 2
    keeps each below 2**(W-1): digit i of row i, the diagonal entry, then
    reads off exactly once 2**(W-1) is added to each of digits 0..i.
    """
    n = g.vertex_count
    diag = diag or (0,) * n
    rho = max((abs(d) + len(a) for d, a in zip(diag, g.adj)), default=0)
    width = n + n * rho.bit_length() + 2
    mask, half = (1 << width) - 1, 1 << (width - 1)
    units = [1 << (width * i) for i in range(n)]
    offsets = [half * ((u << width) - 1) // mask for u in units]  # half in digits 0..i
    coeffs, rows = [0] * n + [1], units
    for k in range(1, n + 1):
        new = []
        for d, row, nbrs in zip(diag, rows, g.adj):
            acc = d * row
            for w in nbrs:
                acc += rows[w]
            new.append(acc)
        reads = zip(new, offsets, range(0, width * n, width))
        tr = sum(((r + o) >> s) & mask for r, o, s in reads) - n * half
        if tr % k:
            raise AssertionError("trace not divisible in Leverrier step")
        c = -(tr // k)
        coeffs[n - k] = c
        rows = [r + c * u for r, u in zip(new, units)] if c else new
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
    long paths); every other graph, connected or not, goes through
    Faddeev-LeVerrier, which is exact on any graph.  Memoized on the
    immutable Graph.
    """
    if _is_path(g):
        return path_char_poly(g.vertex_count)
    return _char_poly_leverrier(g)


_X_PLUS_2 = IntPoly((2, 1))


def _line_spectrum(g: Graph) -> tuple[IntPoly, int]:
    """(R, e) with char_poly(L(g)) = R * (x+2)**e and R(-2) != 0; not
    memoized, since a sweep meets each graph once.

    R is det(xI - (Q - 2I)) with every factor x + 2 divided out, and e is
    m - n plus the number divided out (the bipartite components of g, each
    isolated vertex included).  A path keeps its closed form, since
    L(P_n) = P_(n-1) has no eigenvalue -2.
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


# ---------------------------------------------------------------------------
# multiplicities and eigenvalue classes


def multiplicity_in_poly(f: IntPoly, lam: Eigenvalue) -> int:
    """Multiplicity of lam as a root of f, by repeated exact division."""
    psi = lam.minimal_polynomial
    # cheap integer screens before attempting real division: if psi | f
    # then psi(t) | f(t) at every integer t, and psi(t) != 0 for |t| >= 2
    # because all roots of psi lie in (-2, 2)
    for t in (2, -3):
        ft = f(t)
        if ft and ft % psi(t):
            return 0
    count = 0
    while not f.is_zero and f.degree >= psi.degree:
        try:
            f = div_exact(f, psi)
        except ValueError:
            break
        count += 1
    return count


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
    r = _line_spectrum(g)[0]
    return {n: multiplicity_in_poly(r, _order_lambdas(n)[0]) for n in orders}


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

    Before R is built, the answer is () when n < at_least and the rank of
    Q = D + A over GF(2) is at least m - at_least + 1.  A class of R has
    multiplicity <= deg R <= n < at_least.  x + 2 has multiplicity
    e = m - rank Q, and a nonzero r x r minor of Q mod 2 is a nonzero
    integer minor, so rank Q >= rank_2 Q and e <= m - rank_2 Q < at_least.
    A graph this does not settle takes the exact route above."""
    if g.vertex_count < at_least and _gf2_rank_reaches(g, g.edge_count - at_least + 1):
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


def _screen_full_rank(g: Graph, orders: list[int]) -> set[int]:
    """The orders n at which A - r_n*I has full rank mod p_n.

    Full rank mod p forces full rank over Q(lambda) (the ring map
    Z[y]/(Psi) -> F_p cannot raise rank), hence kernel dimension zero; an
    order the screen leaves out proves nothing.  The matrices of all orders
    are stacked and eliminated together, fraction-free, so no modular
    inverse is needed.
    """
    import numpy as np

    specs = [(n, *_specialization_mod_p(n)) for n in orders]
    specs = [s for s in specs if s[1] < _SCREEN_PRIME_LIMIT]
    size = g.vertex_count
    diag = np.arange(size)
    base = np.zeros((size, size), dtype=np.int64)
    for j in range(size):
        base[list(g.adj[j]), j] = 1
    step = max(1, _SCREEN_BLOCK_ENTRIES // (size * size))
    certified: set[int] = set()
    for lo in range(0, len(specs), step):
        block = specs[lo : lo + step]
        ids = np.array([n for n, _, _ in block])
        p = np.array([q for _, q, _ in block], dtype=np.int64)
        mats = np.repeat(base[None], len(block), axis=0)
        mats[:, diag, diag] -= np.array([r for _, _, r in block])[:, None]
        mats %= p[:, None, None]
        for c in range(size):
            nonzero = mats[:, c:, c] != 0
            found = nonzero.any(axis=1)
            if not found.all():
                mats, p, ids, nonzero = mats[found], p[found], ids[found], nonzero[found]
                if not len(ids):
                    break
            k = np.arange(len(ids))
            piv = nonzero.argmax(axis=1) + c
            mats[k, c], mats[k, piv] = mats[k, piv], mats[k, c].copy()
            pivot_row = mats[:, c, c + 1 :]
            pivot = mats[:, c, c][:, None, None]
            factor = mats[:, c + 1 :, c][:, :, None]
            rest = mats[:, c + 1 :, c + 1 :]
            rest[...] = (pivot * rest - factor * pivot_row[:, None, :]) % p[:, None, None]
        certified.update(int(n) for n in ids)
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
