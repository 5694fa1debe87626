"""The kernel's first-divisor memo and the certificate's pair filter and
chain criterion against references that have none of them.

Small polynomials in the first four variables of a grevlex and an
elimination ring are drawn by hypothesis, derandomized so every run checks
the same examples; so few variables make repeated monomials, shared
divisors and non-Groebner inputs common.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from detlink.groebner import (Budget, BudgetExceeded, _IntReducer, _packing,
                              _prim_from_poly, divide, is_groebner_basis,
                              reduced_groebner_basis, s_polynomial)
from detlink.rings import ELIM_BLOCK, Ring

from reference import lcm

RINGS = (Ring(2), Ring(2, 1, ELIM_BLOCK))
NVARS = 4

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])


def _poly(ring, terms):
    d = {}
    for positions, c in terms:
        m = ring.monomial([positions.count(p) for p in range(ring.space.nvars)])
        d[m] = d.get(m, 0) + c
    return ring.poly(d)


def _polys(ring):
    """Nonzero polynomials of degree <= 3 with at most three terms."""
    term = st.tuples(st.lists(st.integers(0, NVARS - 1), max_size=3),
                     st.integers(-3, 3).filter(bool))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: _poly(ring, terms)).filter(bool)


def _first_divisor(m, lms, guard):
    """Index of the first leading monomial that divides m, or None."""
    return next((i for i, lm in enumerate(lms) if not (m - lm) & guard), None)


@st.composite
def _interleavings(draw):
    """A ring and a list of ("append" | "reduce", polynomial) steps."""
    ring = draw(st.sampled_from(RINGS))
    steps = draw(st.lists(st.tuples(st.sampled_from(("append", "reduce")), _polys(ring)),
                          min_size=1, max_size=12))
    return ring, steps


@SETTINGS
@given(_interleavings())
def test_memo_matches_a_memo_free_scan(drawn):
    ring, steps = drawn
    packing = _packing(ring.order)
    guard = packing.guard
    reducer = _IntReducer(packing)
    divisors = reducer.divisors
    appended = []
    for op, f in steps:
        prim = _prim_from_poly(f, packing)
        if op == "append":
            reducer.append(prim)
            appended.append(prim)
            continue
        # Within one reduce the leading term strictly descends, so a reducer
        # with a fresh memo never consults it: it is a memo-free scan.
        fresh = _IntReducer(packing)
        for divisor in appended:
            fresh.append(divisor)
        assert reducer.reduce(dict(prim)) == fresh.reduce(dict(prim))
        for m, idx in divisors.memo.items():
            first = _first_divisor(m, divisors.lms, guard)
            if idx >= 0:
                assert idx == first
            else:
                assert ~idx <= len(divisors.lms)
                assert first is None or first >= ~idx


def test_memo_pinned():
    R = Ring(2)
    x, y, z = R.x(1), R.y(1), R.z(1)
    packing = _packing(R.order)
    reducer = _IntReducer(packing)
    reducer.append(_prim_from_poly(x ** 2, packing))
    xy = dict(_prim_from_poly(x * y, packing))
    (m, _), = xy.items()
    assert reducer.reduce(dict(xy)) == xy
    assert reducer.divisors.memo[m] == ~1
    # The miss is resolved by a divisor appended later: x*y -> x*z.
    reducer.append(_prim_from_poly(y - z, packing))
    assert reducer.reduce(dict(xy)) == dict(_prim_from_poly(x * z, packing))
    assert reducer.divisors.memo[m] == 1
    # A later divisor that also divides x*y does not displace the hit.
    reducer.append(_prim_from_poly(x * y - z ** 2, packing))
    assert reducer.reduce(dict(xy)) == dict(_prim_from_poly(x * z, packing))
    assert reducer.divisors.memo[m] == 1


def _reference_certificate(polys):
    """Every pair, sorted by (lcm, i, j) in the ring's order, divided with
    exact rational arithmetic; the first nonzero remainder fails."""
    key = polys[0].ring.order.key
    pairs = sorted((key(lcm(polys[i].terms[0].mono, polys[j].terms[0].mono)), i, j)
                   for i in range(len(polys)) for j in range(i + 1, len(polys)))
    for _, i, j in pairs:
        rem = divide(s_polynomial(polys[i], polys[j]), polys).remainder
        if rem:
            return False, (i + 1, j + 1), rem
    return True, None, None


@st.composite
def _candidates(draw):
    ring = draw(st.sampled_from(RINGS))
    return draw(st.lists(_polys(ring), min_size=2, max_size=5))


@SETTINGS
@given(_candidates())
def test_certificate_matches_brute_force(polys):
    assert tuple(is_groebner_basis(polys)) == _reference_certificate(polys)


@st.composite
def _redundant_bases(draw):
    """A reduced basis of a drawn ideal with monomial multiples of its
    non-monomials added, so the chain criterion has elements k to use; in
    half the draws one multiple is changed by a drawn polynomial, which
    makes most of those candidates fail."""
    ring = draw(st.sampled_from(RINGS))
    gens = draw(st.lists(_polys(ring), min_size=2, max_size=3))
    try:
        basis = list(reduced_groebner_basis(gens, budget=Budget(max_pairs=200)))
    except BudgetExceeded:
        assume(False)
    non_monomials = [f for f in basis if len(f.terms) > 1]
    assume(non_monomials)
    monomial = st.lists(st.integers(0, NVARS - 1), min_size=1, max_size=2).map(
        lambda positions: _poly(ring, [(positions, 1)]))
    extra = draw(st.lists(st.tuples(monomial, st.sampled_from(non_monomials)),
                          min_size=1, max_size=4))
    polys = basis + [m * f for m, f in extra]
    if draw(st.booleans()):
        k = draw(st.integers(len(basis), len(polys) - 1))
        polys[k] = polys[k] + draw(_polys(ring))
    polys = [f for f in polys if f]
    assume(len(polys) >= 2)
    return draw(st.permutations(polys))


@SETTINGS
@given(_redundant_bases())
def test_certificate_with_redundant_elements_matches_brute_force(polys):
    assert tuple(is_groebner_basis(polys)) == _reference_certificate(polys)
