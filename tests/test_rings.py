"""Polynomial core: orders, arithmetic, text format, substitution."""

from fractions import Fraction

import pytest

from detlink.rings import ELIM_BLOCK, Ring, Term, VarSpace, multidegree, substitute
from detlink.families import delta, g_generator, standard_ring

from conftest import random_monomial, random_poly


def naive_grevlex(a, b):
    """Independent comparator: degree first, then last nonzero difference."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def naive_elim_block(a, b, e):
    head = naive_grevlex(a[:e], b[:e])
    return head if head else naive_grevlex(a[e:], b[e:])


class TestVarSpace:
    def test_layout(self):
        sp = VarSpace(4, 2)
        assert sp.nvars == 14
        assert sp.pos("t", 1) == 0
        assert sp.pos("x", 1) == 2
        assert sp.pos("y", 4) == 9
        assert sp.pos("z", 4) == 13
        assert sp.var_name(2) == "x1"
        assert sp.var_name(13) == "z4"

    def test_width_floor(self):
        with pytest.raises(ValueError):
            VarSpace(1)

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            VarSpace(4).pos("t", 1)
        with pytest.raises(ValueError):
            VarSpace(4).pos("x", 5)


class TestOrder:
    def test_pinned_comparisons(self):
        R = standard_ring(4)
        m = lambda f: f.terms[0].mono
        x2y1 = m(R.x(2) * R.y(1))
        x1y2 = m(R.x(1) * R.y(2))
        assert R.order.compare(x2y1, x1y2) == 1
        assert R.order.compare(x1y2, x1y2) == 0
        assert R.order.compare(m(R.x(1) ** 2), m(R.x(1) * R.y(1))) == 1

    def test_matches_naive_oracle(self, rng):
        R = Ring(3)
        for _ in range(2000):
            a = random_monomial(R, rng)
            b = random_monomial(R, rng)
            assert R.order.compare(a, b) == naive_grevlex(a.exps, b.exps)

    def test_elim_block_matches_naive_oracle(self, rng):
        R = Ring(2, elim_count=2, kind=ELIM_BLOCK)
        for _ in range(2000):
            a = random_monomial(R, rng)
            b = random_monomial(R, rng)
            assert R.order.compare(a, b) == naive_elim_block(a.exps, b.exps, 2)

    def test_axioms_on_random_triples(self, rng):
        # Totality, antisymmetry, transitivity, multiplicativity, 1-minimality.
        R = Ring(2)
        one = R.monomial({})
        for order in (R.order, Ring(2, 1, ELIM_BLOCK).order):
            ringe = Ring(2, 1, ELIM_BLOCK) if order.kind == ELIM_BLOCK else R
            for _ in range(10_000):
                a = random_monomial(ringe, rng)
                b = random_monomial(ringe, rng)
                c = random_monomial(ringe, rng)
                ab, ba = order.compare(a, b), order.compare(b, a)
                assert ab == -ba
                assert (ab == 0) == (a == b)
                if ab >= 0 and order.compare(b, c) >= 0:
                    assert order.compare(a, c) >= 0
                if ab:
                    assert order.compare(a.mul(c), b.mul(c)) == ab
                if a.deg:
                    assert order.compare(a, ringe.monomial({})) == 1

    def test_elim_block_dominates_main(self, rng):
        R = Ring(2, elim_count=1, kind=ELIM_BLOCK)
        t = R.monomial({0: 1})
        for _ in range(200):
            m = random_monomial(R, rng)
            if m.exps[0] == 0:
                assert R.order.compare(t, m) == 1


class TestArithmetic:
    def test_additive_inverse_and_identity(self, rng):
        R = standard_ring(4)
        for _ in range(50):
            f = random_poly(R, rng)
            assert f + (-f) == R.zero
            assert f * R.one == f
            assert f * delta(1, 2, 4) * 0 == R.zero

    def test_ring_axioms_random(self, rng):
        R = Ring(2)
        for _ in range(120):
            f, g, h = (random_poly(R, rng, terms=3) for _ in range(3))
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_canonical_form_unique(self, rng):
        R = Ring(2)
        for _ in range(60):
            f = random_poly(R, rng)
            rebuilt = R.poly({m: c for c, m in f.terms})
            assert rebuilt.terms == f.terms

    def test_terms_strictly_descending_and_nonzero(self, rng):
        R = Ring(2)
        key = R.order.key
        for _ in range(60):
            f = random_poly(R, rng)
            keys = [key(m) for _, m in f.terms]
            assert keys == sorted(keys, reverse=True)
            assert len(set(keys)) == len(keys)
            assert all(c != 0 for c, _ in f.terms)

    def test_power(self):
        R = standard_ring(4)
        f = R.x(1) + R.y(1)
        assert f ** 0 == R.one
        assert f ** 3 == f * f * f

    def test_pluecker_exchange_identities(self):
        # x_{j+1} d(i,j) + x_i d(j,j+1) = x_j d(i,j+1), same with y's.
        for n in (4, 5, 6):
            R = standard_ring(n)
            for i in range(1, n):
                for j in range(i + 1, n):
                    lhs_x = R.x(j + 1) * delta(i, j, n) + R.x(i) * delta(j, j + 1, n)
                    assert lhs_x == R.x(j) * delta(i, j + 1, n)
                    lhs_y = R.y(j + 1) * delta(i, j, n) + R.y(i) * delta(j, j + 1, n)
                    assert lhs_y == R.y(j) * delta(i, j + 1, n)

    def test_pinned_minor_combination(self):
        R = standard_ring(4)
        lhs = R.x(3) * delta(1, 2, 4) + R.x(1) * delta(2, 3, 4)
        assert lhs == R.x(2) * delta(1, 3, 4)

    def test_cross_ring_rejected(self):
        with pytest.raises(ValueError):
            Ring(3).x(1) + Ring(4).x(1)


class TestLeadingTerm:
    def test_pinned(self):
        R = standard_ring(4)
        d31 = delta(3, 1, 4)
        assert d31.leading_term() == Term(Fraction(1), (R.x(3) * R.y(1)).terms[0].mono)
        assert R.x(1).leading_term().mono == R.x(1).terms[0].mono
        g2 = g_generator(4, 2)
        assert g2.leading_term().mono == (R.z(2) * R.x(3) * R.y(1)).terms[0].mono

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            standard_ring(4).zero.leading_term()


class TestMultidegree:
    def test_pinned(self):
        R = standard_ring(4)
        assert multidegree(delta(1, 2, 4)) == (1, 1, 0)
        assert multidegree(R.zero) == "zero"
        assert multidegree(R.x(1) + R.y(1) * R.y(2)) is None
        from detlink.families import m_ij
        assert multidegree(R.from_monomial(m_ij(4, 1, 4))) == (1, 1, 3)

    def test_blockwise(self):
        R = standard_ring(4)
        f = R.x(1) * R.y(2) * R.z(3) ** 2
        assert multidegree(f) == (1, 1, 2)


class TestSubstitute:
    def test_identity_map(self, rng):
        R = standard_ring(4)
        for _ in range(20):
            f = random_poly(R, rng)
            images = {name: R.var(name) for name in R.names}
            assert substitute(f, images) == f

    def test_ring_homomorphism(self, rng):
        R = Ring(2)
        S = Ring(3)
        images = {name: random_poly(S, rng, terms=2, max_exp=1)
                  for name in R.names}
        for _ in range(30):
            f = random_poly(R, rng, terms=3, max_exp=1)
            g = random_poly(R, rng, terms=3, max_exp=1)
            assert (substitute(f * g, images)
                    == substitute(f, images) * substitute(g, images))
            assert (substitute(f + g, images)
                    == substitute(f, images) + substitute(g, images))

    def test_column_shift_specialization(self):
        # Column-shift map: last column zero, y-row shifted one left.
        n = 5
        R = standard_ring(n)
        images = {f"z{i}": R.z(i) for i in range(1, n + 1)}
        images.update({f"x{i}": R.x(i) for i in range(1, n)})
        images[f"x{n}"] = R.zero
        images["y1"] = R.zero
        images.update({f"y{i}": R.x(i - 1) for i in range(2, n + 1)})
        image_gens = [substitute(delta(t, t + 1, n), images) for t in range(1, n)]
        expected = [R.x(1) ** 2]
        expected += [R.x(i) ** 2 - R.x(i - 1) * R.x(i + 1) for i in range(2, n - 1)]
        expected += [R.x(n - 1) ** 2]
        assert image_gens == expected

    def test_unmapped_variable_rejected(self):
        R = standard_ring(4)
        with pytest.raises(ValueError, match="not mapped"):
            substitute(R.x(1) * R.y(2), {"x1": R.x(1)})


class TestTextFormat:
    def test_pinned_strings(self):
        R = standard_ring(4)
        assert str(delta(1, 2, 4)) == "-x2*y1 + x1*y2"
        assert str(R.zero) == "0"
        assert str(R.one * Fraction(-3, 4)) == "-3/4"
        assert str(R.x(1) ** 2 * R.z(3) * 2) == "2*x1^2*z3"

    def test_round_trip_random(self, rng):
        for ring in (standard_ring(4), Ring(2, elim_count=1, kind=ELIM_BLOCK)):
            for _ in range(200):
                f = random_poly(ring, rng)
                assert ring.parse(str(f)) == f

    def test_parse_unnormalized(self):
        R = standard_ring(4)
        assert R.parse("x1 + x1") == 2 * R.x(1)
        assert R.parse("x1*x1*y2^2") == R.x(1) ** 2 * R.y(2) ** 2
        assert R.parse("x1 - x1") == R.zero

    def test_parse_rejects_garbage(self):
        R = standard_ring(4)
        for bad in ("", "x9", "t1", "x1^", "q2", "1..2", "x1 +", "1/0",
                    "x1 - 3/0*y2"):
            with pytest.raises(ValueError):
                R.parse(bad)

    def test_elim_variable_prints(self):
        R = Ring(2, elim_count=1, kind=ELIM_BLOCK)
        f = R.t(1) * R.x(1) - R.one
        assert str(f) == "x1*t1 - 1"
        assert R.parse(str(f)) == f
