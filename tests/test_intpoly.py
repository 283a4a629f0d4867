import math
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from lgmult import intpoly, spectra
from lgmult.graphs import multiplicity_bound
from lgmult.intpoly import (
    IntPoly,
    compress_palindrome,
    cyclotomic,
    div_exact,
    gcd,
    poly_to_json,
    squarefree_decomposition,
)
from test_verify import _checkable_graphs


def P(coeffs):
    return IntPoly(tuple(coeffs))


def test_constructors_and_queries():
    f = P([1, 0, -3, 2])
    assert f.degree == 3 and f.leading == 2 and not f.is_monic
    assert P([0, 0]).is_zero and P([0, 0]).degree == -1
    assert IntPoly.x() == P([0, 1])
    assert IntPoly.one()(17) == 1


def test_arithmetic_and_eval():
    f, g = P([1, 2]), P([-1, 1])
    assert f * g == P([-1, -1, 2])
    assert f + g == P([0, 3])
    assert (f - f).is_zero
    assert f(3) == 7
    assert P([2, 4, 6]).content() == 2
    assert P([2, 4, 6]).primitive() == P([1, 2, 3])
    assert P([0, 0, 1]).derivative() == P([0, 2])


def test_shift_multiplies_by_power_of_x():
    f = P([1, -1, 1])
    assert f.shift(2) == P([0, 0, 1, -1, 1])
    assert f.shift(0) == f
    assert IntPoly(()).shift(3).is_zero


def test_div_exact_and_divides():
    f = P([-1, 0, 1])  # (x-1)(x+1)
    assert div_exact(f, P([1, 1])) == P([-1, 1])
    with pytest.raises(ValueError):
        div_exact(f, P([1, 0, 1]))
    with pytest.raises(ZeroDivisionError):
        div_exact(f, IntPoly(()))


def test_gcd_examples():
    f = P([-1, 0, 1]) * P([2, 1])
    g = P([-1, 1]) * P([2, 1])
    assert gcd(f, g) == P([-2, 1, 1])  # (x-1)(x+2)


def test_cyclotomic_small_orders():
    assert cyclotomic(1) == P([-1, 1])
    assert cyclotomic(2) == P([1, 1])
    assert cyclotomic(4) == P([1, 0, 1])
    assert cyclotomic(10) == P([1, -1, 1, -1, 1])
    assert cyclotomic(12) == P([1, 0, -1, 0, 1])


def test_cyclotomic_product_recovers_xn_minus_1():
    for n in (6, 12, 15):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        lhs = math.prod((cyclotomic(d) for d in divisors), start=IntPoly.one())
        rhs = P([-1] + [0] * (n - 1) + [1])
        assert lhs == rhs


def test_compress_palindrome_recovers_chebyshev_like_identity():
    # psi(y) with y = x + 1/x satisfies x^(deg psi) psi(x + 1/x) = f(x)
    for n in (5, 8, 12):
        f = cyclotomic(n)
        psi = compress_palindrome(f)
        assert psi.degree == f.degree // 2
        for x in (2, 3, -2):
            lhs = sum(
                c * (x * x + 1) ** i * x ** (psi.degree - i)
                for i, c in enumerate(psi.coeffs)
            )
            assert lhs == f(x)


def _pow(p, e):
    out = IntPoly.one()
    for _ in range(e):
        out = out * p
    return out


def test_squarefree_decomposition_reconstructs():
    f = P([1, 1]) * _pow(P([-1, 1]), 2) * _pow(P([-2, 0, 1]), 3)
    parts = squarefree_decomposition(f)
    rebuilt = math.prod((_pow(p, e) for p, e in parts), start=IntPoly.one())
    assert rebuilt.primitive() == f.primitive()
    assert {e for _, e in parts} == {1, 2, 3}


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(P)
nonzero_polys = small_polys.filter(lambda f: not f.is_zero)


@given(nonzero_polys, nonzero_polys)
def test_product_division_round_trip(f, g):
    assert div_exact(f * g, g) == f


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(f, g):
    d = gcd(f, g)
    # div_exact raises unless d divides exactly
    assert div_exact(f, d) * d == f
    assert div_exact(g, d) * d == g


def _yun(f):
    """squarefree_decomposition with the mod-p screen switched off: a gcd
    degree of deg f passes neither floor, so every f goes through Yun."""
    with mock.patch.object(intpoly, "_gcd_degree_mod", lambda f, g, p: f.degree):
        return squarefree_decomposition(f)


monic_polys = st.lists(st.integers(-4, 4), max_size=4).map(lambda c: P(c + [1]))


@given(nonzero_polys)
def test_screened_split_equals_yun(f):
    assert squarefree_decomposition(f) == _yun(f)


@given(monic_polys, monic_polys)
def test_screened_split_equals_yun_on_monic_products(f, g):
    for h in (f * g, f * f * g):
        assert squarefree_decomposition(h) == _yun(h)


@given(monic_polys, monic_polys, st.integers(1, 8))
def test_floored_split_equals_filtered_yun(f, g, k):
    for h in (f * g, f * f * g, f * f * f * g):
        assert squarefree_decomposition(h, k) == [(q, m) for q, m in _yun(h) if m >= k]
        d = intpoly._gcd_degree_mod(h, h.derivative(), intpoly._SQUAREFREE_PRIME)
        assert d >= gcd(h, h.derivative()).degree


def test_gcd_degree_mod_examples():
    p = intpoly._SQUAREFREE_PRIME
    assert intpoly._gcd_degree_mod(P([-1, 0, 1]), P([1, 1]), p) == 1
    assert intpoly._gcd_degree_mod(P([-1, 0, 1]), P([2, 1]), p) == 0
    assert intpoly._gcd_degree_mod(P([1, 1]) * P([1, 1]) * P([3, 1]), P([1, 2, 1]), p) == 2
    # mod 3, x^2 + 1 and x^2 + 3x + 4 are one polynomial
    assert intpoly._gcd_degree_mod(P([1, 0, 1]), P([4, 3, 1]), 3) == 2
    # g vanishes mod 3, and so does the leading coefficient of f
    assert intpoly._gcd_degree_mod(P([1, 0, 1, 3]), P([3]), 3) == 2
    assert intpoly._gcd_degree_mod(P([3]), P([3]), 3) == -1


def test_screen_settles_the_squarefree_line_spectra_up_to_7_vertices():
    degrees = []
    screen = intpoly._gcd_degree_mod

    def spy(*args):
        degrees.append(screen(*args))
        return degrees[-1]

    rs = [spectra._line_spectrum(g)[0] for g in _checkable_graphs(7)]
    with mock.patch.object(intpoly, "_gcd_degree_mod", spy):
        for r in rs:
            assert squarefree_decomposition(r) == _yun(r)
    assert (len(rs), len(degrees), degrees.count(0)) == (990, 990, 607)
    assert sum(all(m == 1 for _, m in _yun(r)) for r in rs) == 607


def test_floors_leave_ten_line_spectra_to_yun_up_to_7_vertices(monkeypatch):
    # one entry [at_least, gcd degree, reached Yun] per split that
    # line_eig_classes asks for, uncached, under check_graph's floor; the
    # graphs the GF(2) rank settles never build their spectrum
    splits, spectra_built = [], []
    split, screen, integer_gcd = spectra.eig_classes, intpoly._gcd_degree_mod, intpoly.gcd
    line_spectrum = spectra._line_spectrum

    def spectrum_spy(g):
        spectra_built.append(g)
        return line_spectrum(g)

    def split_spy(f, at_least=1):
        splits.append([at_least, None, False])
        return split(f, at_least)

    def screen_spy(*args):
        splits[-1][1] = screen(*args)
        return splits[-1][1]

    def gcd_spy(*args):
        splits[-1][2] = True
        return integer_gcd(*args)

    monkeypatch.setattr(spectra, "_line_spectrum", spectrum_spy)
    monkeypatch.setattr(spectra, "eig_classes", split_spy)
    monkeypatch.setattr(intpoly, "_gcd_degree_mod", screen_spy)
    monkeypatch.setattr(intpoly, "gcd", gcd_spy)
    graphs = _checkable_graphs(7)
    for g in graphs:
        spectra.line_eig_classes(g, multiplicity_bound(g))
    passed = [s for s in splits if s[1] == 0]
    skipped = [s for s in splits if 0 < s[1] < s[0] - 1]
    yun = [s for s in splits if s[1] >= s[0] - 1 and s[1] > 0]
    assert not any(s[2] for s in passed + skipped) and all(s[2] for s in yun)
    settled_by_rank = len(graphs) - len(spectra_built)
    settled_by_degree = len(spectra_built) - len(splits)
    assert (settled_by_rank, settled_by_degree) == (632, 6)
    assert (len(passed), len(skipped), len(yun)) == (247, 95, 10)


def test_screen_needs_a_monic_polynomial(monkeypatch):
    # mod 2, (2x + 1)**2 = 4x^2 + 4x + 1 reduces to 1 and its derivative to
    # 0, which are coprime; only the monic guard sends it through Yun
    monkeypatch.setattr(intpoly, "_SQUAREFREE_PRIME", 2)
    assert squarefree_decomposition(P([1, 4, 4])) == [(P([1, 2]), 2)]


def test_poly_json_round_trip():
    f = P([10 ** 30, -2, 0, 7])
    data = poly_to_json(f)
    assert data == [str(10 ** 30), "-2", "0", "7"]
