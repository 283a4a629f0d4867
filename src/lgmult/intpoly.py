"""Dense univariate polynomials over the integers, exact throughout.

Coefficients are stored ascending (coeffs[i] multiplies x**i) with trailing
zeros stripped, so the zero polynomial is the empty tuple.  Everything the
spectral layer needs lives here: exact division, primitive-PRS gcd, Yun
squarefree decomposition, cyclotomic polynomials, and the palindrome
compression that turns a reciprocal polynomial in x into one in x + 1/x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = self.coeffs
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def one() -> IntPoly:
        return IntPoly((1,))

    @staticmethod
    def x() -> IntPoly:
        return IntPoly((0, 1))

    @staticmethod
    def constant(c: int) -> IntPoly:
        return IntPoly((c,))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(tuple(out))

    def scale(self, k: int) -> IntPoly:
        return IntPoly(tuple(k * c for c in self.coeffs))

    def shift(self, k: int) -> IntPoly:
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, p: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def derivative(self) -> IntPoly:
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> IntPoly:
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        c = self.content()
        if self.leading < 0:
            c = -c
        return IntPoly(tuple(v // c for v in self.coeffs))


def div_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f/g when the division is exact over the integers.

    Raises ValueError when g does not divide f (nonzero remainder or a
    fractional coefficient along the way).
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return f
    if f.degree < g.degree:
        raise ValueError("not divisible: quotient would have negative degree")
    rem = list(f.coeffs)
    gc = g.coeffs
    lc = gc[-1]
    qdeg = f.degree - g.degree
    q = [0] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        top = rem[k + g.degree]
        if top % lc:
            raise ValueError("not divisible: fractional quotient coefficient")
        c = top // lc
        q[k] = c
        if c:
            for i, gc_i in enumerate(gc):
                rem[k + i] -= c * gc_i
    if any(rem):
        raise ValueError("not divisible: nonzero remainder")
    return IntPoly(tuple(q))


def pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder: remainder of lc(g)^(deg f - deg g + 1) * f by g."""
    if g.is_zero:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    rem = f
    lc = g.leading
    steps = f.degree - g.degree + 1
    if steps <= 0:
        return f
    for _ in range(steps):
        if rem.is_zero or rem.degree < g.degree:
            rem = rem.scale(lc)
            continue
        c = rem.leading
        shift = rem.degree - g.degree
        rem = rem.scale(lc) - g.scale(c).shift(shift)
    return rem


def gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over the integers, positive leading coefficient."""
    a, b = f, g
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    if a.degree < b.degree:
        a, b = b, a
    a, b = a.primitive(), b.primitive()
    while not b.is_zero:
        r = pseudo_rem(a, b).primitive()
        a, b = b, r
    return a


_SQUAREFREE_PRIME = (1 << 30) - 35  # residues fit one digit of a Python int


def _gcd_degree_mod(f: IntPoly, g: IntPoly, p: int) -> int:
    """Degree of gcd(f mod p, g mod p) in F_p[x], by Euclid on residue lists."""
    a, b = [c % p for c in f.coeffs], [c % p for c in g.coeffs]
    while b:
        if not b[-1]:
            b.pop()
            continue
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, top = a.pop() * inv % p, len(a) - len(b) + 1
            for i, c in enumerate(b[:-1]):
                a[top + i] = (a[top + i] - q * c) % p
        a, b = b, a
    while a and not a[-1]:
        a.pop()
    return len(a) - 1


def squarefree_decomposition(f: IntPoly, at_least: int = 1) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm: pairs (factor, multiplicity), factors pairwise
    coprime, keeping only the multiplicities >= at_least.

    Only factors of positive degree are reported.  For monic input every
    reported factor is monic, and with at_least <= 1 the product of
    factor**multiplicity recovers the input.

    For monic f, let d be the degree of gcd(f mod p, f' mod p) for a prime
    p, and D = gcd(f, f') over Q.  D is monic in Z[x] (Gauss), and D mod p,
    monic of degree deg D, divides both reductions, so d >= deg D.  A
    factor h of multiplicity k gives h**(k-1) | D, so deg D >= k - 1.
    Hence d < at_least - 1 leaves no pair to report, and d = 0 makes f
    squarefree, [(f, 1)], both without Yun (D. Y. Y. Yun, "On square-free
    decomposition algorithms", SYMSAC 1976).
    """
    if f.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if f.degree == 0:
        return []
    if f.is_monic:
        gcd_degree = _gcd_degree_mod(f, f.derivative(), _SQUAREFREE_PRIME)
        if gcd_degree < at_least - 1:
            return []
        if gcd_degree == 0:
            return [(f, 1)]
    out: list[tuple[IntPoly, int]] = []
    d = gcd(f, f.derivative())
    b = div_exact(f, d)
    c = div_exact(f.derivative(), d)
    z = c - b.derivative()
    i = 1
    while b.degree > 0:
        h = gcd(b, z)
        if h.degree > 0:
            if i >= at_least:
                out.append((h, i))
            b = div_exact(b, h)
            z = div_exact(z, h)
        z = z - b.derivative()
        i += 1
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, monic over the integers."""
    if n < 1:
        raise ValueError(f"cyclotomic polynomial wants n >= 1, got {n}")
    f = IntPoly((-1,) + (0,) * (n - 1) + (1,))  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            f = div_exact(f, cyclotomic(d))
    return f


def compress_palindrome(f: IntPoly) -> IntPoly:
    """For reciprocal f of even degree 2k, the g with f = x^k * g(x + 1/x).

    Uses the Chebyshev-like basis s_j(y) = x^j + x^-j evaluated at
    y = x + 1/x: s_0 = 2, s_1 = y, s_{j+1} = y*s_j - s_{j-1}.
    """
    if f.is_zero or f.degree % 2:
        raise ValueError("palindrome compression needs even positive degree")
    k = f.degree // 2
    c = f.coeffs
    if any(c[i] != c[f.degree - i] for i in range(k)):
        raise ValueError("polynomial is not reciprocal")
    y = IntPoly.x()
    s_prev, s_cur = IntPoly.constant(2), y
    g = IntPoly.constant(c[k])
    for j in range(1, k + 1):
        g = g + s_cur.scale(c[k + j])
        s_prev, s_cur = s_cur, y * s_cur - s_prev
    return g


def poly_to_json(f: IntPoly) -> list[str]:
    """Ascending coefficients as decimal strings (safe for huge values)."""
    return [str(c) for c in f.coeffs]
