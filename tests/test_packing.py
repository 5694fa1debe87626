"""Packed-integer monomials of the reduction kernel.

The kernel holds a monomial as one int: the order key in the high fields,
the exponent vector in the low ones, a guard bit on top of every 16-bit
field. Random exponent vectors, drawn by hypothesis (derandomized), check
the packing against `Monomial` arithmetic and against the naive grevlex
and elimination comparators of `tests/reference.py`, on the grevlex layout
of Ring(2) and on elimination layouts, where a block of variables on top
is compared first. No ring has an elimination order: `_intersect_prims`
builds its layout (one variable t above the ring's 3n) from the variable
count alone, and these are the tests of that layout. Past 2^15 the kernel
must raise, never wrap, in each block separately.
"""

import heapq
from fractions import Fraction
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from detlink import groebner
from detlink.groebner import (LIMIT, Budget, BudgetExceeded, GBStats,
                              _groebner_prims, _IntReducer, _packing,
                              _prim_from_dict, _prim_from_poly, divide,
                              is_groebner_basis, reduced_groebner_basis,
                              s_polynomial)
from detlink.rings import Monomial, Ring

from conftest import random_nonzero_poly
from reference import div, divides, is_coprime, lcm, naive_elim_block

# (variable count, elimination block size): the grevlex layout of Ring(2),
# the elimination layouts of `_intersect_prims` over Ring(2) and Ring(3),
# and one with a block of two.
LAYOUTS = ((6, 0), (7, 1), (10, 1), (11, 2))

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=300,
                    suppress_health_check=[HealthCheck.too_slow])

# Mostly small exponents, so that ties and divisibility are common, and a
# few large ones; a sum of two vectors stays below the limit in every block.
_exponent = st.one_of(st.integers(0, 3), st.integers(0, LIMIT // 32))


@st.composite
def _monomials(draw, count):
    nvars, head = draw(st.sampled_from(LAYOUTS))
    vectors = [draw(st.lists(_exponent, min_size=nvars, max_size=nvars))
               for _ in range(count)]
    return _packing(nvars, head), head, [Monomial(tuple(v)) for v in vectors]


@SETTINGS
@given(_monomials(1))
def test_pack_round_trips(drawn):
    packing, _, (a,) = drawn
    assert packing.unpack(packing.pack(a)) == a


@SETTINGS
@given(_monomials(2))
def test_int_order_is_the_ring_order(drawn):
    # The int order is the naive comparator's; on the grevlex layout that
    # is also Ring(2)'s order.
    packing, head, (a, b) = drawn
    pa, pb = packing.pack(a), packing.pack(b)
    assert (pa > pb) - (pa < pb) == naive_elim_block(a.exps, b.exps, head)
    assert (pa == pb) == (a == b)
    if packing is _packing(Ring(2).nvars):
        assert (pa < pb) == (a.key < b.key)


@SETTINGS
@given(_monomials(2))
def test_sum_is_product(drawn):
    packing, _, (a, b) = drawn
    assert packing.pack(a) + packing.pack(b) == packing.pack(a.mul(b))


@SETTINGS
@given(_monomials(2))
def test_guard_test_is_divisibility(drawn):
    packing, _, (a, b) = drawn
    pa, pb = packing.pack(a), packing.pack(b)
    assert (not (pb - pa) & packing.guard) == divides(a, b)
    assert (not (pa - pb) & packing.guard) == divides(b, a)
    # A multiple is divisible whatever the draw.
    assert not (packing.pack(a.mul(b)) - pa) & packing.guard


@SETTINGS
@given(_monomials(2))
def test_lcm_and_coprimality(drawn):
    packing, _, (a, b) = drawn
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.lcm(pa, pb) == packing.pack(lcm(a, b))
    assert (not packing.support(pa) & packing.support(pb)) == is_coprime(a, b)


@st.composite
def _near_limit_monomials(draw):
    """Monomials whose block degrees range up to 2^15 - 1, the most `pack`
    accepts."""
    nvars, head = draw(st.sampled_from(LAYOUTS))
    exps = []
    for width in (head, nvars - head):
        room, block = LIMIT - 1, []
        for _ in range(width):
            e = draw(st.one_of(st.integers(0, min(3, room)), st.integers(0, room),
                               st.just(room)))
            block.append(e)
            room -= e
        exps += draw(st.permutations(block))
    return _packing(nvars, head), Monomial(tuple(exps))


@SETTINGS
@given(st.one_of(_monomials(1).map(lambda d: (d[0], d[2][0])), _near_limit_monomials()))
def test_degree_is_total_degree(drawn):
    packing, a = drawn
    assert packing.degree(packing.pack(a)) == a.deg


@pytest.mark.parametrize("coeff", [1, -3, Fraction(5, 7)])
def test_one_term_prim_is_the_general_prim(coeff):
    # The prim of c*m is m with coefficient 1: the general path's integer
    # scaling and content division, done here by `_prim_from_dict`, give
    # the same. A monomial past the limit still raises.
    R = Ring(2)
    packing = _packing(R.nvars)
    m = R.monomial((2, 0, 1, 0, 0, 3))
    c = Fraction(coeff)
    prim = _prim_from_poly(R.from_monomial(m, c), packing)
    assert prim == _prim_from_dict({packing.pack(m): c.numerator})
    assert prim == ((packing.pack(m), 1),)
    past = R.from_monomial(R.monomial((LIMIT, 0, 0, 0, 0, 0)), c)
    with pytest.raises(OverflowError, match="2\\^15"):
        _prim_from_poly(past, packing)


@pytest.mark.parametrize("nvars, head", [layout for layout in LAYOUTS if layout[1]])
def test_each_block_degree_is_guarded(nvars, head):
    # Each block has its own limit: both blocks at 2^15 - 1 pack, and
    # degree, lcm and unpack stay exact; 2^15 in either block, by pack or by
    # lcm, raises.
    packing, top = _packing(nvars, head), LIMIT - 1

    def mono(fields):
        exps = [0] * nvars
        for pos, e in fields.items():
            exps[pos] = e
        return Monomial(tuple(exps))

    both = mono({0: top, head: top})
    packed = packing.pack(both)
    assert packing.unpack(packed) == both and packing.degree(packed) == 2 * top
    assert packing.lcm(packed, packing.pack(mono({0: 1, head: 1}))) == packed
    for pos in (0, head):
        with pytest.raises(OverflowError, match="2\\^15"):
            packing.pack(mono({pos: LIMIT}))
    # The first variable of each block against the last one of that block.
    for first, last in ((0, head - 1), (head, nvars - 1)):
        if first == last:
            continue
        a, b = packing.pack(mono({first: top})), packing.pack(mono({last: 1}))
        with pytest.raises(OverflowError, match="2\\^15"):
            packing.lcm(a, b)


def test_pair_sugars_by_hand(monkeypatch):
    # Sugars of f1 = t^2 - x1^3, f2 = t*y1 - z1, f3 = x1^3*y1 - z1^2 are
    # their largest degrees 3, 2, 4; under the elimination order over
    # Ring(2) their leading monomials t^2, t*y1, x1^3*y1 have degrees 2, 2, 4.
    packing = _packing(7, 1)

    def m(t=0, x1=0, y1=0, z1=0):
        """The packed monomial; t is variable 0, then Ring(2)'s x1..z2."""
        return packing.pack(Monomial((t, x1, 0, y1, 0, z1, 0)))

    pushed = []

    def heappush(heap, entry):
        sugar, lcm, i, j, _ = entry
        pushed.append((sugar, lcm, i, j))
        heapq.heappush(heap, entry)

    monkeypatch.setattr(groebner, "heapq",
                        SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
    gens = [_prim_from_dict({m(t=2): 1, m(x1=3): -1}),
            _prim_from_dict({m(t=1, y1=1): 1, m(z1=1): -1}),
            _prim_from_dict({m(x1=3, y1=1): 1, m(z1=2): -1})]
    basis = _groebner_prims(gens, packing)
    assert pushed[:4] == [
        # (f1, f2): lcm t^2*y1 of degree 3; max(3 + 3 - 2, 2 + 3 - 2) = 4.
        (4, m(t=2, y1=1), 0, 1),
        # (f2, f3): lcm t*x1^3*y1 of degree 5; max(2 + 5 - 2, 4 + 5 - 4) = 5.
        (5, m(t=1, x1=3, y1=1), 1, 2),
        # (f1, f2) reduces to h = t*z1 - z1^2, of degree 2 but sugar 4, the
        # pair's. (f2, h): lcm t*y1*z1, max(2 + 3 - 2, 4 + 3 - 2) = 5;
        # (f1, h): lcm t^2*z1, max(3 + 3 - 2, 4 + 3 - 2) = 5. (f3, h) is
        # dropped: its lcm is a multiple of t*y1*z1.
        (5, m(t=1, y1=1, z1=1), 1, 3),
        (5, m(t=2, z1=1), 0, 3),
    ]
    assert _prim_from_dict({m(t=1, z1=1): 1, m(z1=2): -1}) in basis
    monkeypatch.undo()
    assert basis == _groebner_prims(gens, packing, criteria=False)


class TestLimit:
    def test_input_past_the_limit_rejected(self):
        R = Ring(2)
        x1, x2 = R.x(1), R.x(2)
        big = x1 ** (LIMIT // 2) * x1 ** (LIMIT // 2)       # degree 2^15
        with pytest.raises(OverflowError, match="2\\^15"):
            divide(big, [x2 - x1])
        with pytest.raises(OverflowError, match="2\\^15"):
            divide(x2, [big - x2])
        with pytest.raises(OverflowError, match="2\\^15"):
            reduced_groebner_basis([big - x2])

    def test_division_near_the_limit(self):
        R = Ring(2)
        x1, x2 = R.x(1), R.x(2)
        h, f = x1 ** 20000 * x2, x2 - x1 ** 20000
        q, r = divide(h, [f])
        assert q == (-x2,) and r == x2 ** 2
        assert q[0] * f + r == h
        top, f = x1 ** (LIMIT - 1), x1 ** 8191 - x2
        q, r = divide(top, [f])
        assert q[0] * f + r == top
        assert r == x1 ** 3 * x2 ** 4

    def test_product_past_the_limit_rejected(self):
        # Under the elimination order over Ring(2), reducing t^700 by
        # t - x1^50 raises the x-block degree by 50 per step, past 2^15 after
        # 656 steps.
        packing = _packing(7, 1)

        def m(t=0, x1=0):
            return packing.pack(Monomial((t, x1) + (0,) * 5))

        reducer = _IntReducer(packing)
        reducer.append(_prim_from_dict({m(t=1): 1, m(x1=50): -1}))
        assert reducer.reduce({m(t=600): 1}) == {m(x1=30000): 1}
        with pytest.raises(OverflowError, match="2\\^15"):
            reducer.reduce({m(t=700): 1})
        # t^700 lies in (t - x1^50, x1^20000), but the first divisor keeps
        # matching while t remains, so the terms pass x1^32768 on the way;
        # the reduction must raise, not answer.
        reducer.append(_prim_from_dict({m(x1=20000): 1}))
        with pytest.raises(OverflowError, match="2\\^15"):
            reducer.reduce({m(t=700): 1})

    def test_basis_near_the_limit(self):
        R = Ring(2)
        x1, y1, z1 = R.x(1), R.y(1), R.z(1)
        # The pair of x1^32766 - z1 and y1 - z1 has lcm x1^32766*y1, of
        # degree 2^15 - 1, the largest that packs.
        top = x1 ** (LIMIT - 2)
        assert reduced_groebner_basis([top - y1, top - z1]) == (top - z1, y1 - z1)
        # With one more x1 that pair is coprime and its product, x1^32767*y1,
        # is past the limit; the product criterion drops it without an lcm.
        top = x1 * top
        assert reduced_groebner_basis([top - y1, top - z1]) == (top - z1, y1 - z1)
        # A pair that is not coprime still needs its lcm, x1^32767*y1 here.
        for criteria in (True, False):
            with pytest.raises(OverflowError, match="2\\^15"):
                reduced_groebner_basis([top - y1, x1 * y1 - z1], criteria=criteria)

    def test_dropped_pair_past_the_limit(self):
        # k = x1*y1 - z1^2 and its multiples by x1^19999 and by y1^19999.
        # When the second multiple joins, its lcm with the first,
        # x1^20000*y1^20000, is past the limit, but the criterion M drops
        # that pair (its lcm with k, x1*y1^20000, divides it) before its
        # order key is built. The reference path without criteria builds
        # every pair's key and raises.
        R = Ring(2)
        x1, y1, z1 = R.x(1), R.y(1), R.z(1)
        k = x1 * y1 - z1 ** 2
        gens = [k, x1 ** 19999 * k, y1 ** 19999 * k]
        stats = GBStats()
        assert reduced_groebner_basis(gens, stats=stats) == (k,)
        assert (stats.pairs_pushed, stats.discarded_chain) == (2, 1)
        with pytest.raises(OverflowError, match="2\\^15"):
            reduced_groebner_basis(gens, criteria=False)

    def test_skipped_certificate_pair_past_the_limit(self):
        # k = x1*y1 - z1^2 and its multiples by x1^20000 and by y1^20000
        # form a Groebner basis. The multiples' pair has lcm
        # x1^20001*y1^20001, past the limit, but the chain criterion skips
        # it by k while the pairs are built, so it gets no order key and
        # costs nothing: only the two pairs of k with a multiple count.
        R = Ring(2)
        x1, y1, z1 = R.x(1), R.y(1), R.z(1)
        k = x1 * y1 - z1 ** 2
        polys = [k, x1 ** 20000 * k, y1 ** 20000 * k]
        budget = Budget()
        assert is_groebner_basis(polys, budget=budget).ok
        assert budget.pairs == 2
        # No cap builds the skipped pair's key: below 2 the cap raises
        # BudgetExceeded, never OverflowError.
        for cap in range(4):
            budget = Budget(max_pairs=cap)
            if cap < 2:
                with pytest.raises(BudgetExceeded):
                    is_groebner_basis(polys, budget=budget)
            else:
                assert is_groebner_basis(polys, budget=budget).ok

    def test_walked_certificate_pair_past_the_limit(self):
        # Without k nothing skips the multiples' pair: it is walked, and its
        # order key is past the limit.
        R = Ring(2)
        x1, y1, z1 = R.x(1), R.y(1), R.z(1)
        k = x1 * y1 - z1 ** 2
        with pytest.raises(OverflowError, match="2\\^15"):
            is_groebner_basis([x1 ** 20000 * k, y1 ** 20000 * k])

    def test_lcm_past_the_limit_rejected(self):
        R = Ring(2)
        x1, x2, y1, z1 = R.x(1), R.x(2), R.y(1), R.z(1)
        packing = _packing(R.nvars)
        a, b = (packing.pack(f.terms[0].mono) for f in (x1 ** 20000, x2 ** 20000))
        with pytest.raises(OverflowError, match="2\\^15"):
            packing.lcm(a, b)
        # Coprime leading monomials: the product criterion needs no lcm, but
        # the reference path without criteria builds every pair's.
        gens = [x1 ** 20000 - y1, x2 ** 20000 - z1]
        assert reduced_groebner_basis(gens) == tuple(gens)
        with pytest.raises(OverflowError, match="2\\^15"):
            reduced_groebner_basis(gens, criteria=False)
        gens = [x1 ** 20000 * x2 - y1, x2 ** 20000 * x1 - z1]
        for criteria in (True, False):
            with pytest.raises(OverflowError, match="2\\^15"):
                reduced_groebner_basis(gens, criteria=criteria)
        with pytest.raises(OverflowError, match="2\\^15"):
            s_polynomial(x1 ** 20000 * x2, x2 ** 20000 * x1)

    def test_small_inputs_match_monomial_arithmetic(self, rng):
        # The S-polynomial through packed monomials equals the textbook
        # cancellation combination computed with Monomial arithmetic.
        R = Ring(2)
        for _ in range(40):
            f = random_nonzero_poly(R, rng, terms=3, max_exp=3)
            g = random_nonzero_poly(R, rng, terms=3, max_exp=3)
            (cf, mf), (cg, mg) = f.terms[0], g.terms[0]
            m = lcm(mf, mg)
            expected = (cg * R.from_monomial(div(m, mf)) * f
                        - cf * R.from_monomial(div(m, mg)) * g)
            assert s_polynomial(f, g) == expected
