"""Intersections, colons and monomial-heavy Groebner bases against an
independent sympy computation.

Small random ideals of Q[x1, x2, y1, y2, z1, z2] (at most three generators
of degree <= 2) are drawn by hypothesis, derandomized so every run checks
the same examples. sympy intersects by eliminating t from t*I + (1-t)*J in
lex order and computes each principal colon I:(g) as (I ∩ (g))/g; both
sides are then compared as reduced grevlex bases. Each comparison also
runs with the reduced bases of I and J computed first, so that the
eliminations start from them as blocks of known Groebner bases.

Buchberger's algorithm pairs no two monomials, so on inputs that are mostly
monomials, the link ideals and sums of links at n = 4, 5 and random
binomial-plus-monomial ideals of Q[x1, x2, y1, y2, z1, z2], its reduced
basis is compared with the reference path without criteria and with
sympy's.

The colons of `links` and `section2`, each a colon by one minor that a
containment test certifies, are compared at n = 4 and 5 with sympy's colon
by every minor; so are, at n = 4, the full family's colon, which the paper
says is the sum of the links, and the colon of the random probe's first
seed-0 matrix, which the probe says is the sum of its omitted-column
colons.
"""

import random

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import HealthCheck, given, settings, strategies as st

from detlink.checks import _colon_by_minors
from detlink.families import (chain_ideal, gens_a, generic_residual, link_ideal,
                              minor_pair, minors_ideal, standard_ring, sub_a,
                              sum_links_ideal)
from detlink.groebner import Budget, Ideal, reduced_groebner_basis
from detlink.idealops import height, intersect, quotient, sum_ideals
from detlink.rings import Ring

R = Ring(2)
SYMS = sympy.symbols(R.names)
T = sympy.Symbol("t")

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _poly(terms):
    d = {}
    for positions, c in terms:
        m = R.monomial([positions.count(p) for p in range(R.nvars)])
        d[m] = d.get(m, 0) + c
    return R.poly(d)


# A term is a list of one or two variable positions and a small coefficient.
_terms = st.tuples(st.lists(st.integers(0, R.nvars - 1), min_size=1, max_size=2),
                   st.integers(-3, 3).filter(bool))
_polys = st.lists(_terms, min_size=1, max_size=3).map(_poly).filter(bool)
_ideals = st.lists(_polys, min_size=1, max_size=3).map(lambda gs: Ideal(R, gs))


def _with_basis(I):
    I.groebner()
    return I


_cached_ideals = _ideals.map(_with_basis)
_linear = st.lists(st.tuples(st.lists(st.integers(0, R.nvars - 1),
                                      min_size=1, max_size=1),
                             st.integers(-3, 3).filter(bool)),
                   min_size=1, max_size=2).map(_poly).filter(bool)


@st.composite
def _product_colons(draw):
    """I = (a*b, c*d) and J = (a, c): the principal colons I:(a) and I:(c)
    are usually incomparable, so the colon must intersect them."""
    a, b, c, d = (draw(_linear) for _ in range(4))
    return Ideal(R, [a * b, c * d]), Ideal(R, [a, c])


@st.composite
def _redundant_colons(draw):
    """J = (g1, g2, g1*h): the colon so far lies in I:(g1), which lies in
    I:(g1*h), so the colon by the third generator is always skipped."""
    g1, g2, h = draw(_polys), draw(_polys), draw(_linear)
    return draw(_ideals), Ideal(R, [g1, g2, g1 * h])


def _to_sympy(f, syms=SYMS):
    out = sympy.Integer(0)
    for c, m in f.terms:
        mono = sympy.Mul(*(s ** e for s, e in zip(syms, m.exps)))
        out += sympy.Rational(c.numerator, c.denominator) * mono
    return out


def _sympy_intersection(F, G, syms=SYMS):
    gb = sympy.groebner([T * f for f in F] + [(1 - T) * g for g in G],
                        T, *syms, order="lex")
    return [e for e in gb.exprs if not e.has(T)]


def _sympy_colon(F, G, syms=SYMS):
    out = None
    for g in G:
        part = []
        for w in _sympy_intersection(F, [g], syms):
            q, r = sympy.div(w, g, *syms)
            assert r == 0
            part.append(q)
        out = part if out is None else _sympy_intersection(out, part, syms)
    return out


def _canonical(exprs, syms=SYMS):
    gb = sympy.groebner(exprs, *syms, order="grevlex")
    return {sympy.expand(e / sympy.Poly(e, *syms).LC(order="grevlex"))
            for e in gb.exprs}


def _mine(ideal, syms=SYMS):
    return {sympy.expand(_to_sympy(g, syms)) for g in ideal.groebner()}


@settings(SETTINGS, max_examples=60)
@given(_ideals, _ideals)
def test_intersect_matches_sympy(I, J):
    theirs = _sympy_intersection([_to_sympy(f) for f in I.gens],
                                 [_to_sympy(g) for g in J.gens])
    assert _mine(intersect(I, J)) == _canonical(theirs)


@settings(SETTINGS, max_examples=40)
@given(_ideals, _ideals)
def test_quotient_matches_sympy(I, J):
    theirs = _sympy_colon([_to_sympy(f) for f in I.gens],
                          [_to_sympy(g) for g in J.gens])
    assert _mine(quotient(I, J)) == _canonical(theirs)


@settings(SETTINGS, max_examples=40)
@given(_product_colons())
def test_quotient_of_products_matches_sympy(case):
    I, J = case
    theirs = _sympy_colon([_to_sympy(f) for f in I.gens],
                          [_to_sympy(g) for g in J.gens])
    assert _mine(quotient(I, J)) == _canonical(theirs)


@settings(SETTINGS, max_examples=30)
@given(_redundant_colons())
def test_quotient_with_redundant_generator_matches_sympy(case):
    I, J = case
    theirs = _sympy_colon([_to_sympy(f) for f in I.gens],
                          [_to_sympy(g) for g in J.gens])
    assert _mine(quotient(I, J)) == _canonical(theirs)


@settings(SETTINGS, max_examples=40)
@given(_cached_ideals, _cached_ideals)
def test_intersect_of_cached_bases_matches_sympy(I, J):
    assert I.has_cached_basis() and J.has_cached_basis()
    theirs = _sympy_intersection([_to_sympy(f) for f in I.gens],
                                 [_to_sympy(g) for g in J.gens])
    assert _mine(intersect(I, J)) == _canonical(theirs)


@settings(SETTINGS, max_examples=30)
@given(_cached_ideals, _cached_ideals)
def test_quotient_of_cached_bases_matches_sympy(I, J):
    theirs = _sympy_colon([_to_sympy(f) for f in I.gens],
                          [_to_sympy(g) for g in J.gens])
    assert _mine(quotient(I, J)) == _canonical(theirs)


@settings(SETTINGS, max_examples=30)
@given(_product_colons())
def test_quotient_of_products_from_cached_bases_matches_sympy(case):
    I, J = case
    I.groebner(), J.groebner()
    theirs = _sympy_colon([_to_sympy(f) for f in I.gens],
                          [_to_sympy(g) for g in J.gens])
    assert _mine(quotient(I, J)) == _canonical(theirs)


def _assert_basis_matches(gens):
    """The reduced basis of gens equals the reference path's and sympy's."""
    basis = reduced_groebner_basis(gens)
    assert basis == reduced_groebner_basis(gens, criteria=False)
    syms = sympy.symbols(gens[0].ring.names)
    assert ({sympy.expand(_to_sympy(g, syms)) for g in basis}
            == _canonical([_to_sympy(f, syms) for f in gens], syms))


@pytest.mark.parametrize("n", (4, 5))
def test_link_bases_match_sympy(n):
    # n - 1 binomials and 2^(n-2) monomials per link; n binomials and all
    # the links' monomials in their sum.
    for I in [link_ideal(n, i) for i in range(1, n + 1)] + [sum_links_ideal(n)]:
        _assert_basis_matches(I.gens)


@pytest.mark.parametrize("n", (4, 5))
def test_link_colons_match_sympy(n):
    # Each link colon and the chain's, as links and section2 compute them
    # (a colon by one minor, certified), against sympy's colon by every
    # minor.
    syms = sympy.symbols(standard_ring(n).names)
    minors = minors_ideal(n)
    colons = [(sub_a(n, i), minor_pair(n, i)) for i in range(1, n + 1)]
    for I, pair in colons + [(chain_ideal(n), (n, 1))]:
        theirs = _sympy_colon([_to_sympy(f, syms) for f in I.gens],
                              [_to_sympy(g, syms) for g in minors.gens], syms)
        mine = _colon_by_minors(I, pair, lambda: minors, Budget())
        assert _mine(mine, syms) == _canonical(theirs, syms)


def _sympy_colon_basis(I, J, syms):
    """sympy's reduced basis of I : J, by its colon fold."""
    return _canonical(_sympy_colon([_to_sympy(f, syms) for f in I.gens],
                                   [_to_sympy(g, syms) for g in J.gens], syms),
                      syms)


def test_full_family_colon_matches_sympy():
    # (g_1..g_4) : I_2, by quotient's fold, against sympy's colon by every
    # minor and against the sum of the links.
    syms = sympy.symbols(standard_ring(4).names)
    theirs = _sympy_colon_basis(gens_a(4), minors_ideal(4), syms)
    assert _mine(quotient(gens_a(4), minors_ideal(4)), syms) == theirs
    assert _mine(sum_links_ideal(4), syms) == theirs


def test_probe_colon_matches_sympy():
    # The first matrix of the seed-0 probe stream that passes the height
    # filter, drawn as the probe draws it: its colon and the sum of its
    # omitted-column colons against sympy's colon by every minor.
    rng = random.Random("0/random-specialization")
    while True:
        B = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(6)]
        aB, I = generic_residual(4, B)
        Q = quotient(aB, I)
        if height(Q) == 4:
            break
    parts = [quotient(Ideal(aB.ring, aB.gens[:i] + aB.gens[i + 1:]), I)
             for i in range(4)]
    syms = sympy.symbols(aB.ring.names)
    theirs = _sympy_colon_basis(aB, I, syms)
    assert _mine(Q, syms) == theirs
    assert _mine(sum_ideals(*parts), syms) == theirs


_binomials = st.lists(_terms, min_size=2, max_size=2).map(_poly).filter(
    lambda f: len(f.terms) == 2)
_monomials = st.lists(st.integers(0, R.nvars - 1), min_size=1, max_size=2).map(
    lambda positions: _poly([(positions, 1)]))


@settings(SETTINGS, max_examples=60)
@given(st.tuples(st.lists(_binomials, min_size=1, max_size=3),
                 st.lists(_monomials, min_size=2, max_size=6)).flatmap(
                     lambda parts: st.permutations(parts[0] + parts[1])))
def test_binomial_and_monomial_bases_match_sympy(gens):
    _assert_basis_matches(gens)
