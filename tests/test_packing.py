"""Packed-integer monomials of the reduction kernel.

The kernel holds a monomial as one int: the order key in the high fields,
the exponent vector in the low ones, a guard bit on top of every 16-bit
field. Random exponent vectors, drawn by hypothesis (derandomized), check
the packing against `Monomial` arithmetic and `MonomialOrder.key` on a
grevlex ring and an elimination ring. Past 2^15 the kernel must raise,
never wrap.
"""

import heapq
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from detlink import groebner
from detlink.groebner import (LIMIT, Budget, BudgetExceeded, GBStats, Ideal,
                              _packing, divide, is_groebner_basis, member,
                              reduced_groebner_basis, s_polynomial)
from detlink.rings import ELIM_BLOCK, Ring

from conftest import random_nonzero_poly
from reference import div, divides, is_coprime, lcm

RINGS = (Ring(2), Ring(2, 1, ELIM_BLOCK), Ring(3, 2, ELIM_BLOCK))

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=300,
                    suppress_health_check=[HealthCheck.too_slow])

# Mostly small exponents, so that ties and divisibility are common, and a
# few large ones; a sum of two vectors stays below the limit in every block.
_exponent = st.one_of(st.integers(0, 3), st.integers(0, LIMIT // 32))


@st.composite
def _monomials(draw, count):
    ring = draw(st.sampled_from(RINGS))
    vectors = [draw(st.lists(_exponent, min_size=ring.space.nvars,
                             max_size=ring.space.nvars)) for _ in range(count)]
    return ring, [ring.monomial(v) for v in vectors]


@SETTINGS
@given(_monomials(1))
def test_pack_round_trips(drawn):
    ring, (a,) = drawn
    packing = _packing(ring.order)
    assert packing.unpack(packing.pack(a)) == a


@SETTINGS
@given(_monomials(2))
def test_int_order_is_the_ring_order(drawn):
    ring, (a, b) = drawn
    pack, key = _packing(ring.order).pack, ring.order.key
    assert (pack(a) < pack(b)) == (key(a) < key(b))
    assert (pack(a) == pack(b)) == (a == b)


@SETTINGS
@given(_monomials(2))
def test_sum_is_product(drawn):
    ring, (a, b) = drawn
    packing = _packing(ring.order)
    assert packing.pack(a) + packing.pack(b) == packing.pack(a.mul(b))


@SETTINGS
@given(_monomials(2))
def test_guard_test_is_divisibility(drawn):
    ring, (a, b) = drawn
    packing = _packing(ring.order)
    pa, pb = packing.pack(a), packing.pack(b)
    assert (not (pb - pa) & packing.guard) == divides(a, b)
    assert (not (pa - pb) & packing.guard) == divides(b, a)
    # A multiple is divisible whatever the draw.
    assert not (packing.pack(a.mul(b)) - pa) & packing.guard


@SETTINGS
@given(_monomials(2))
def test_lcm_and_coprimality(drawn):
    ring, (a, b) = drawn
    packing = _packing(ring.order)
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.lcm(pa, pb) == packing.pack(lcm(a, b))
    assert (not packing.support(pa) & packing.support(pb)) == is_coprime(a, b)


@st.composite
def _near_limit_monomials(draw):
    """Monomials whose block degrees range up to 2^15 - 1, the most `pack`
    accepts."""
    ring = draw(st.sampled_from(RINGS))
    head = ring.space.elim_count
    exps = []
    for width in (head, ring.space.nvars - head):
        room, block = LIMIT - 1, []
        for _ in range(width):
            e = draw(st.one_of(st.integers(0, min(3, room)), st.integers(0, room),
                               st.just(room)))
            block.append(e)
            room -= e
        exps += draw(st.permutations(block))
    return ring, ring.monomial(exps)


@SETTINGS
@given(st.one_of(_monomials(1).map(lambda d: (d[0], d[1][0])), _near_limit_monomials()))
def test_degree_is_total_degree(drawn):
    ring, a = drawn
    packing = _packing(ring.order)
    assert packing.degree(packing.pack(a)) == a.deg


def test_pair_sugars_by_hand(monkeypatch):
    # Sugars of f1 = t1^2 - x1^3, f2 = t1*y1 - z1, f3 = x1^3*y1 - z1^2 are
    # their largest degrees 3, 2, 4; under the elimination order their
    # leading monomials t1^2, t1*y1, x1^3*y1 have degrees 2, 2, 4.
    E = Ring(2, 1, ELIM_BLOCK)
    t1, x1, y1, z1 = E.t(1), E.x(1), E.y(1), E.z(1)
    packing = _packing(E.order)
    pushed = []

    def heappush(heap, entry):
        sugar, lcm, i, j, _ = entry
        pushed.append((sugar, packing.unpack(lcm), i, j))
        heapq.heappush(heap, entry)

    monkeypatch.setattr(groebner, "heapq",
                        SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
    gens = [t1 ** 2 - x1 ** 3, t1 * y1 - z1, x1 ** 3 * y1 - z1 ** 2]
    basis = reduced_groebner_basis(gens)

    def mono(f):
        return f.terms[0].mono

    assert pushed[:4] == [
        # (f1, f2): lcm t1^2*y1 of degree 3; max(3 + 3 - 2, 2 + 3 - 2) = 4.
        (4, mono(t1 ** 2 * y1), 0, 1),
        # (f2, f3): lcm t1*x1^3*y1 of degree 5; max(2 + 5 - 2, 4 + 5 - 4) = 5.
        (5, mono(t1 * x1 ** 3 * y1), 1, 2),
        # (f1, f2) reduces to h = t1*z1 - z1^2, of degree 2 but sugar 4, the
        # pair's. (f2, h): lcm t1*y1*z1, max(2 + 3 - 2, 4 + 3 - 2) = 5;
        # (f1, h): lcm t1^2*z1, max(3 + 3 - 2, 4 + 3 - 2) = 5. (f3, h) is
        # dropped: its lcm is a multiple of t1*y1*z1.
        (5, mono(t1 * y1 * z1), 1, 3),
        (5, mono(t1 ** 2 * z1), 0, 3),
    ]
    assert t1 * z1 - z1 ** 2 in basis
    monkeypatch.undo()
    assert basis == reduced_groebner_basis(gens, criteria=False)


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
        # Under the elimination order, reducing t1^700 by t1 - x1^50 raises
        # the x-block degree by 50 per step, past 2^15 after 656 steps.
        E = Ring(2, 1, ELIM_BLOCK)
        t1, x1 = E.t(1), E.x(1)
        q, r = divide(t1 ** 600, [t1 - x1 ** 50])
        assert r == x1 ** 30000
        with pytest.raises(OverflowError, match="2\\^15"):
            divide(t1 ** 700, [t1 - x1 ** 50])
        # t1^700 lies in (t1 - x1^50, x1^20000), but the first divisor keeps
        # matching while t1 remains, so the terms pass x1^32768 on the way;
        # membership must raise, not answer.
        I = Ideal(E, [t1 - x1 ** 50, x1 ** 20000])
        with pytest.raises(OverflowError, match="2\\^15"):
            member(t1 ** 700, I)

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
        # When x1*y1^20000 joins x1*y1 and x1^20000*y1, its lcm with the
        # second, x1^20000*y1^20000, is past the limit, but the criterion M
        # drops that pair (x1*y1^20000, its lcm with the first, divides it)
        # before its order key is built. The reference path without
        # criteria builds every pair's key and raises.
        R = Ring(2)
        x1, y1 = R.x(1), R.y(1)
        gens = [x1 * y1, x1 ** 20000 * y1, x1 * y1 ** 20000]
        stats = GBStats()
        assert reduced_groebner_basis(gens, stats=stats) == (x1 * y1,)
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
        packing = _packing(R.order)
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
