"""Exact adjacency spectra: characteristic polynomials, eigenvalue classes,
multiplicities of 2cos(a*pi/b), and kernel dimensions over the field Q(lambda).

The eigenvalues of interest are lambda = 2*cos(a*pi/b) in (-2, 2) with
gcd(a, b) = 1 and 1 <= a < b.  Writing lambda = z + 1/z for the root of
unity z = exp(i*pi*a/b) of order n (n = 2b for odd a, n = b for even a),
the minimal polynomial of lambda over Q comes out of the n-th cyclotomic
polynomial by the substitution y = x + 1/x.  All multiplicity statements
are settled by exact integer arithmetic on characteristic polynomials;
floating point only ever appears in the explicitly numeric routines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .graphs import Graph, components, induced_subgraph
from .intpoly import (
    IntPoly,
    compress_palindrome,
    cyclotomic,
    div_exact,
    divides,
    squarefree_decomposition,
)


class NonCanonical(ValueError):
    """Eigenvalue parameters outside the canonical range (coprime, 1 <= a < b)."""


# Euler's phi of 0..len-1 by sieve, regrown (at least doubled) on demand
_PHI: list[int] = [0, 1]


def _totients(limit: int) -> list[int]:
    """Euler's phi for every integer up to at least limit."""
    if len(_PHI) <= limit:
        size = max(limit + 1, 2 * len(_PHI))
        phi = list(range(size))
        for p in range(2, size):
            if phi[p] == p:  # p prime
                for k in range(p, size, p):
                    phi[k] -= phi[k] // p
        _PHI[:] = phi
    return _PHI


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
        return _totients(self.n)[self.n] // 2

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
def candidate_pairs(max_degree: int) -> tuple[Eigenvalue, ...]:
    """All canonical eigenvalues whose minimal polynomial has degree
    at most max_degree, sorted by (b, a).

    Enumerated through the root-of-unity order n: the eigenvalues with
    minimal polynomial of degree phi(n)/2 are 2*cos(2*pi*k/n) for k coprime
    to n, and reducing 2k/n gives back the canonical a/b.  Since
    phi(n) >= sqrt(n/2), orders beyond 8*max_degree^2 cannot qualify.
    """
    if max_degree < 1:
        return ()
    limit = 8 * max_degree * max_degree + 2
    phi = _totients(limit)
    out: list[Eigenvalue] = []
    for n in range(3, limit + 1):
        if phi[n] // 2 > max_degree:
            continue
        for k in range(1, (n + 1) // 2):
            if math.gcd(k, n) == 1:
                g = math.gcd(2 * k, n)
                out.append(Eigenvalue((2 * k) // g, n // g))
    out.sort(key=lambda e: (e.b, e.a))
    return tuple(out)


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


def _char_poly_forest(g: Graph) -> IntPoly:
    """Rooted product formula, iterative so deep paths are fine."""
    x = IntPoly.x()
    f: dict[int, IntPoly] = {}
    sub: dict[int, IntPoly] = {}  # product of the children's f
    visited = [False] * g.vertex_count
    result = IntPoly.one()
    for root in range(g.vertex_count):
        if visited[root]:
            continue
        order: list[int] = []
        parent: dict[int, int] = {root: -1}
        stack = [root]
        visited[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for w in g.adj[v]:
                if not visited[w]:
                    visited[w] = True
                    parent[w] = v
                    stack.append(w)
        for v in reversed(order):
            children = [w for w in g.adj[v] if w != parent[v]]
            if not children:
                f[v] = x
                sub[v] = IntPoly.one()
                continue
            fs = [f[c] for c in children]
            k = len(fs)
            pre = [IntPoly.one()] * (k + 1)
            for i in range(k):
                pre[i + 1] = pre[i] * fs[i]
            suf = [IntPoly.one()] * (k + 1)
            for i in range(k - 1, -1, -1):
                suf[i] = fs[i] * suf[i + 1]
            total = pre[k]
            acc = x * total
            for i, c in enumerate(children):
                acc = acc - sub[c] * (pre[i] * suf[i + 1])
            f[v] = acc
            sub[v] = total
        result = result * f[root]
    return result


def _char_poly_leverrier(g: Graph) -> IntPoly:
    """Faddeev-LeVerrier over plain integers; A is 0/1 so A @ M is row sums."""
    n = g.vertex_count
    adj = g.adj
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = []
        for i in range(n):
            nbrs = adj[i]
            if not nbrs:
                am.append([0] * n)
                continue
            row = list(m[nbrs[0]])
            for w in nbrs[1:]:
                mw = m[w]
                for j in range(n):
                    row[j] += mw[j]
            am.append(row)
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise AssertionError("trace not divisible in Leverrier step")
        c = -(tr // k)
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                am[i][i] += c
            m = am
    return IntPoly(tuple(coeffs))


@lru_cache(maxsize=None)
def char_poly(g: Graph) -> IntPoly:
    """Characteristic polynomial of the adjacency matrix, monic in Z[x].

    Dispatches on structure: closed forms for paths and cycles, the rooted
    product rule for forests, matrix arithmetic otherwise; disconnected
    graphs multiply over components.  Memoized on the immutable Graph.
    """
    if g.vertex_count == 0:
        return IntPoly.one()
    comps = components(g)
    if len(comps) > 1:
        acc = IntPoly.one()
        for comp in comps:
            sub, _ = induced_subgraph(g, comp)
            acc = acc * char_poly(sub)
        return acc
    n = g.vertex_count
    degs = g.degrees()
    if g.edge_count == n - 1:
        if all(d <= 2 for d in degs):
            return path_char_poly(n)
        return _char_poly_forest(g)
    if n >= 3 and all(d == 2 for d in degs):
        return cycle_char_poly(n)
    return _char_poly_leverrier(g)


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


@dataclass(frozen=True)
class EigClass:
    """A squarefree factor of the characteristic polynomial with its
    multiplicity; the factor collects every irreducible appearing exactly
    that many times."""

    factor: IntPoly
    multiplicity: int


def eig_classes_from_poly(f: IntPoly) -> list[EigClass]:
    classes = [
        EigClass(h, m) for h, m in squarefree_decomposition(f) if h.degree > 0
    ]
    classes.sort(key=lambda c: (-c.multiplicity, c.factor.degree, c.factor.coeffs))
    return classes


@lru_cache(maxsize=None)
def _eig_classes_cached(g: Graph) -> tuple[EigClass, ...]:
    return tuple(eig_classes_from_poly(char_poly(g)))


def eig_classes(g: Graph) -> list[EigClass]:
    """Squarefree split of char_poly(g), sorted by descending multiplicity,
    then degree, then coefficients."""
    return list(_eig_classes_cached(g))


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


def numeric_multiplicity(
    spectrum: Sequence[float],
    lam: Eigenvalue,
    tol: float = 1e-8,
    gap: float = 1e-6,
) -> int | None:
    """Count spectrum entries within tol of lam; None when some entry falls
    in the ambiguous band between tol and gap, where rounding could miscount."""
    target = lam.numeric
    count = 0
    for x in spectrum:
        d = abs(x - target)
        if d <= tol:
            count += 1
        elif d < gap:
            return None
    return count


# ---------------------------------------------------------------------------
# kernel dimension over Q(lambda)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


@lru_cache(maxsize=None)
def _specialization_mod_p(n: int) -> tuple[int, int]:
    """A prime p = 1 (mod n) and a residue r with Psi(r) = 0 (mod p).

    r is w + 1/w for a primitive n-th root of unity w in F_p, mirroring the
    definition of the eigenvalue itself, so the substitution y -> r is a ring
    map Z[y]/(Psi) -> F_p.
    """
    p = (1 << 20) // n * n + 1
    while not _is_probable_prime(p):
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


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Row-echelon rank of an integer matrix mod p (rows are mutated)."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col] % p, p - 2, p)
        prow = [(v * inv) % p for v in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col] % p
                rows[i] = [(v - c * pv) % p for v, pv in zip(rows[i], prow)]
        rank += 1
        if rank == ncols:
            break
    return rank


def _certify_full_rank_mod_p(g: Graph, lam: Eigenvalue, cols: list[int]) -> bool:
    """True when the lambda-specialized matrix has full column rank mod p,
    which forces full column rank over Q(lambda) (a ring map cannot raise
    rank), hence kernel dimension zero."""
    p, r = _specialization_mod_p(lam.n)
    rows = []
    for i in range(g.vertex_count):
        row = []
        nbrs = set(g.adj[i])
        for j in cols:
            v = 1 if j in nbrs else 0
            if i == j:
                v -= r
            row.append(v % p)
        rows.append(row)
    return _rank_mod_p(rows, p) == len(cols)


def _frac_poly_divmod(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Division with remainder in Q[y]; trailing zeros are not kept tidy."""
    deg_b = len(b) - 1
    while deg_b >= 0 and b[deg_b] == 0:
        deg_b -= 1
    if deg_b < 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    deg_r = len(r) - 1
    while deg_r >= 0 and r[deg_r] == 0:
        deg_r -= 1
    q = [Fraction(0)] * max(deg_r - deg_b + 1, 1)
    inv_lead = 1 / b[deg_b]
    while deg_r >= deg_b:
        c = r[deg_r] * inv_lead
        q[deg_r - deg_b] = c
        for i in range(deg_b + 1):
            r[deg_r - deg_b + i] -= c * b[i]
        deg_r -= 1
        while deg_r >= 0 and r[deg_r] == 0:
            deg_r -= 1
    return q, r[: deg_b] if deg_b > 0 else []


class _QLambda:
    """Arithmetic in Q(lambda) = Q[y]/(Psi); elements are Fraction tuples of
    length deg(Psi)."""

    def __init__(self, psi: IntPoly) -> None:
        self.psi = tuple(psi.coeffs)
        self.d = psi.degree
        self.zero = (Fraction(0),) * self.d
        one = [Fraction(0)] * self.d
        one[0] = Fraction(1)
        self.one = tuple(one)
        lam = [Fraction(0)] * max(self.d, 2)
        lam[1] = Fraction(1)
        self.lam = self._reduce(lam)

    def _reduce(self, cs: list[Fraction]) -> tuple[Fraction, ...]:
        d = self.d
        psi = self.psi
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                for j in range(d):
                    cs[i - d + j] -= c * psi[j]
                cs[i] = Fraction(0)
        out = cs[:d]
        while len(out) < d:
            out.append(Fraction(0))
        return tuple(out)

    def from_int(self, v: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.d
        out[0] = Fraction(v)
        return tuple(out)

    def mul(self, e1: Sequence[Fraction], e2: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * (2 * self.d - 1)
        for i, c1 in enumerate(e1):
            if c1:
                for j, c2 in enumerate(e2):
                    if c2:
                        out[i + j] += c1 * c2
        return self._reduce(out)

    def sub(self, e1: Sequence[Fraction], e2: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(a - b for a, b in zip(e1, e2))

    def is_zero(self, e: Sequence[Fraction]) -> bool:
        return all(c == 0 for c in e)

    def inv(self, e: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Extended Euclid against Psi; Psi irreducible makes every nonzero
        residue invertible."""
        a = [Fraction(c) for c in self.psi]
        b = list(e)
        s_a: list[Fraction] = [Fraction(0)]
        s_b: list[Fraction] = [Fraction(1)]
        while True:
            deg_b = len(b) - 1
            while deg_b >= 0 and b[deg_b] == 0:
                deg_b -= 1
            if deg_b < 0:
                raise ZeroDivisionError("inverting zero in Q(lambda)")
            if deg_b == 0:
                inv_c = 1 / b[0]
                return self._reduce([c * inv_c for c in s_b])
            q, r = _frac_poly_divmod(a, b)
            # s_new = s_a - q * s_b
            prod = [Fraction(0)] * (len(q) + len(s_b))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s_b):
                        prod[i + j] += qc * sc
            s_new = [Fraction(0)] * max(len(s_a), len(prod))
            for i, c in enumerate(s_a):
                s_new[i] += c
            for i, c in enumerate(prod):
                s_new[i] -= c
            a, b = b, r
            s_a, s_b = s_b, s_new


def annihilator_dimension(
    g: Graph,
    lam: Eigenvalue,
    dropped: Iterable[int] = (),
    use_screen: bool = True,
) -> int:
    """Kernel dimension over Q(lambda) of the column submatrix of A - lambda*I
    keeping the columns outside ``dropped``.

    With nothing dropped this equals the eigenvalue multiplicity of lambda,
    computed without reference to the characteristic polynomial.  A sound
    modular screen settles the frequent full-rank case quickly; anything the
    screen cannot certify goes through exact field elimination.
    """
    drop = set(dropped)
    for v in drop:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"dropped vertex {v} out of range")
    cols = [j for j in range(g.vertex_count) if j not in drop]
    if not cols:
        return 0
    if use_screen and _certify_full_rank_mod_p(g, lam, cols):
        return 0
    field = _QLambda(lam.minimal_polynomial)
    lam_elem = field.lam
    rows = []
    for i in range(g.vertex_count):
        nbrs = set(g.adj[i])
        row = []
        for j in cols:
            e = field.from_int(1 if j in nbrs else 0)
            if i == j:
                e = field.sub(e, lam_elem)
            row.append(e)
        rows.append(row)
    rank = 0
    ncols = len(cols)
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if not field.is_zero(rows[i][col]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            if field.is_zero(rows[i][col]):
                continue
            factor = field.mul(rows[i][col], inv)
            rows[i] = [
                field.sub(rows[i][j], field.mul(factor, rows[rank][j]))
                for j in range(ncols)
            ]
        rank += 1
    return ncols - rank
