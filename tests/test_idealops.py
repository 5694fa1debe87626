"""Intersection, colon, dimension/height, minimal primes of monomial ideals."""

import itertools

import pytest

from detlink import idealops
from detlink.families import (chain_ideal, delta, gens_a, minors_ideal,
                              standard_ring, sum_links_ideal)
from detlink.graphs import (SimpleGraph, _candidate_primes, minimal_primes_bei,
                            replay_avoidance_argument)
from detlink.groebner import (Budget, BudgetExceeded, Ideal, _multiples_in,
                              ideal_equal, initial_ideal, member)
from detlink.idealops import (dimension, height, intersect, minimal_primes_squarefree,
                              quotient, quotient_by_poly, sum_ideals)
from detlink.rings import Ring

from conftest import random_nonzero_poly, random_poly


def exhaustive_monomial_dimension(supports, nvars):
    """Largest variable subset containing no generator's support."""
    for r in range(nvars, -1, -1):
        for S in itertools.combinations(range(nvars), r):
            sset = set(S)
            if all(not set(sup) <= sset for sup in supports):
                return r
    raise AssertionError("unit ideal reached the oracle")


class TestIntersect:
    def test_pinned(self):
        R = standard_ring(4)
        x1, y1 = R.x(1), R.y(1)
        assert list(intersect(Ideal(R, [x1]), Ideal(R, [y1])).gens) == [x1 * y1]
        got = intersect(Ideal(R, [x1 ** 2]), Ideal(R, [x1 * y1]))
        assert list(got.gens) == [x1 ** 2 * y1]
        I = Ideal(R, [delta(1, 2, 4), delta(2, 3, 4)])
        assert ideal_equal(intersect(I, I), I)

    def test_zero_ideal(self):
        R = standard_ring(4)
        I = Ideal(R, [R.x(1)])
        assert intersect(I, Ideal(R, [])).gens == ()

    def test_contained_in_both(self, rng):
        R = Ring(2)
        for _ in range(10):
            I = Ideal(R, [random_nonzero_poly(R, rng, terms=2, max_exp=1)])
            J = Ideal(R, [random_nonzero_poly(R, rng, terms=2, max_exp=1)])
            W = intersect(I, J)
            assert all(member(g, I) and member(g, J) for g in W.gens)

    def test_membership_cross_check(self, rng):
        # member(p, intersect(I,J)) iff member(p,I) and member(p,J).
        R = Ring(2)
        pairs = [
            (Ideal(R, [R.x(1) * R.y(1), R.x(2) ** 2]), Ideal(R, [R.x(1) ** 2])),
            (Ideal(R, [delta(1, 2, 2), R.z(1) * R.x(1)]),
             Ideal(R, [R.x(1) * R.y(2), R.z(2)])),
        ]
        for I, J in pairs:
            W = intersect(I, J)
            hits = 0
            for k in range(50):
                p = random_poly(R, rng, terms=3)
                if k % 3 == 1 and I.gens:
                    p = p * I.gens[k % len(I.gens)]
                elif k % 3 == 2 and W.gens:
                    p = p * W.gens[k % len(W.gens)]
                both = member(p, I) and member(p, J)
                assert member(p, W) == both
                hits += both
            assert hits > 0


class TestQuotient:
    def test_pinned(self):
        R = standard_ring(4)
        x1, y1 = R.x(1), R.y(1)
        Q = quotient(Ideal(R, [x1 ** 2, x1 * y1]), Ideal(R, [x1]))
        assert ideal_equal(Q, Ideal(R, [x1, y1]))
        I = Ideal(R, [delta(1, 2, 4), delta(3, 4, 4)])
        assert ideal_equal(quotient(I, Ideal(R, [R.one])), I)

    def test_preconditions(self):
        R = standard_ring(4)
        I = Ideal(R, [R.x(1)])
        with pytest.raises(ValueError):
            quotient_by_poly(I, R.zero)
        with pytest.raises(ValueError):
            quotient(I, Ideal(R, []))

    def test_containments_random_and_family_ideals(self, rng):
        R = Ring(2)
        cases = []
        for _ in range(6):
            I = Ideal(R, [random_nonzero_poly(R, rng, terms=2, max_exp=1)
                          for _ in range(2)])
            J = Ideal(R, [random_nonzero_poly(R, rng, terms=2, max_exp=1)])
            cases.append((I, J))
        R4 = standard_ring(4)
        cases.append((chain_ideal(4), minors_ideal(4)))
        cases.append((gens_a(4), minors_ideal(4)))
        for I, J in cases:
            Q = quotient(I, J)
            assert all(member(g, Q) for g in I.gens)          # I <= I:J
            for qg in Q.gens:                                  # (I:J) * J <= I
                assert all(member(qg * jg, I) for jg in J.gens)
        I4 = minors_ideal(4)
        assert ideal_equal(quotient(I4, Ideal(R4, [R4.one])), I4)   # I : R = I

    def test_nested_principal_colons_skip_intersection(self, monkeypatch):
        # (x1):(y1) = (x1) is mapped into (x1) by z1 and y1 + z1, so only the
        # colon by y1 is computed. (x1^2, x1*y1):(x1) = (x1, y1) is not
        # mapped into I by y1, and (x1^2, x1*y1):(y1) = (x1) lies inside it:
        # two colons, no intersection. (x1*y1, x2*y2):(x1) = (y1, x2*y2) and
        # (x1*y1, x2*y2):(x2) = (y2, x1*y1) are incomparable: one intersection.
        R = standard_ring(4)
        x1, y1, z1, x2, y2 = R.x(1), R.y(1), R.z(1), R.x(2), R.y(2)
        cases = [(Ideal(R, [x1]), Ideal(R, [y1, z1, y1 + z1]), [y1], 0),
                 (Ideal(R, [x1 ** 2, x1 * y1]), Ideal(R, [x1, y1]), [x1, y1], 0),
                 (Ideal(R, [x1 * y1, x2 * y2]), Ideal(R, [x1, x2]), [x1, x2], 1)]
        for I, J, colons, intersections in cases:
            parts = {g: quotient_by_poly(I, g) for g in J.gens}
            explicit = parts[J.gens[0]]
            for g in J.gens[1:]:
                explicit = intersect(explicit, parts[g])
            computed, calls = [], []
            monkeypatch.setattr(idealops, "quotient_by_poly",
                                lambda I, g, budget=None: computed.append(g) or parts[g])
            monkeypatch.setattr(idealops, "intersect",
                                lambda *args: calls.append(args) or intersect(*args))
            Q = quotient(I, J)
            monkeypatch.undo()
            assert computed == colons
            assert len(calls) == intersections
            assert Q.groebner() == explicit.groebner()
            assert Q.gens == explicit.gens


class TestMultiplesIn:
    """`_multiples_in(g, hs, I)` against all(member(g*h, I) for h in hs)."""

    def test_matches_member(self, rng):
        R = Ring(2)
        cases = []
        for _ in range(8):
            I = Ideal(R, [random_nonzero_poly(R, rng, terms=2, max_exp=1)
                          for _ in range(2)])
            g = random_nonzero_poly(R, rng, terms=2, max_exp=1)
            cases.append((I, g))
        cases += [(chain_ideal(4), g) for g in minors_ideal(4).gens[:2]]
        cases += [(gens_a(4), g) for g in minors_ideal(4).gens[:2]]
        seen = set()
        for I, g in cases:
            ring = I.ring
            colon = list(quotient_by_poly(I, g).groebner())
            for hs in (colon, colon + [random_nonzero_poly(ring, rng, terms=2)],
                       [random_nonzero_poly(ring, rng, terms=3)]):
                want = all(member(g * h, I) for h in hs)
                assert _multiples_in(g, hs, I) == want
                seen.add(want)
        assert seen == {True, False}

    def test_edge_ideals(self):
        R = Ring(2)
        x1, y1 = R.x(1), R.y(1)
        zero, unit = Ideal(R, []), Ideal(R, [R.one])
        assert _multiples_in(x1, [], zero)
        assert not _multiples_in(x1, [y1], zero)
        assert not _multiples_in(R.one, [R.one], zero)
        assert _multiples_in(x1, [y1, x1 - 2 * y1], unit)
        assert _multiples_in(x1, [], Ideal(R, [y1]))
        # The x1*y1 terms of (x1 + y1)(x1 - y1) cancel.
        assert _multiples_in(x1 + y1, [x1 - y1], Ideal(R, [x1 ** 2 - y1 ** 2]))

    def test_expired_deadline(self):
        R = Ring(2)
        gens = (R.x(1) * R.y(1),)
        I = Ideal.with_basis(R, gens, gens)
        with pytest.raises(BudgetExceeded):
            _multiples_in(R.x(1), [R.y(1)], I, Budget(timeout_secs=0))
        assert _multiples_in(R.x(1), [R.y(1)], I, Budget(timeout_secs=60))


class TestSumProduct:
    def test_pinned(self):
        R = standard_ring(4)
        I = Ideal(R, [R.x(1)])
        assert ideal_equal(sum_ideals(I, Ideal(R, [])), I)

    def test_sum_dedupes(self):
        R = standard_ring(4)
        I = Ideal(R, [R.x(1), R.y(2)])
        assert len(sum_ideals(I, I).gens) == 2


class TestDimensionHeight:
    def test_pinned_heights(self):
        R = standard_ring(4)
        assert height(Ideal(R, [R.x(1), R.y(1)])) == 2
        assert height(minors_ideal(4)) == 3
        for n in (4, 5, 6):
            assert height(chain_ideal(n)) == n - 1

    def test_zero_ideal_dimension(self):
        R = standard_ring(4)
        assert dimension(Ideal(R, [])) == 12

    def test_unit_ideal_rejected(self):
        R = standard_ring(4)
        with pytest.raises(ValueError, match="improper"):
            dimension(Ideal(R, [R.one]))
        with pytest.raises(ValueError, match="improper"):
            dimension(Ideal(R, [R.x(1), R.x(1) - R.one]))

    def test_monomial_dimension_matches_exhaustive_oracle(self, rng):
        R = Ring(2)  # six variables
        for _ in range(60):
            gens = []
            for _ in range(rng.randint(1, 4)):
                vec = [0] * 6
                for _ in range(rng.randint(1, 3)):
                    vec[rng.randrange(6)] += rng.randint(1, 2)
                if any(vec):
                    gens.append(R.from_monomial(R.monomial(vec)))
            if not gens:
                continue
            I = Ideal(R, gens)
            supports = [g.terms[0].mono.support() for g in I.groebner()]
            assert dimension(I) == exhaustive_monomial_dimension(supports, 6)

    def test_height_monotone_under_sum(self, rng):
        R = Ring(2)
        for _ in range(10):
            I = Ideal(R, [random_nonzero_poly(R, rng, terms=2, max_exp=1)])
            J = Ideal(R, [random_nonzero_poly(R, rng, terms=2, max_exp=1)])
            S = sum_ideals(I, J)
            try:
                hs = height(S)
            except ValueError:
                continue  # sum can be improper
            assert hs >= max(height(I), height(J))


class TestDeadline:
    def test_expired_deadline_stops_cover_walks(self):
        # The basis is cached, so the deadline can only fire in the vertex
        # cover walks of dimension and minimal_primes_squarefree.
        R = Ring(2)
        gens = (R.x(1) * R.y(1), R.x(2) * R.z(2))
        I = Ideal.with_basis(R, gens, gens)
        with pytest.raises(BudgetExceeded) as excinfo:
            height(I, Budget(timeout_secs=0))
        assert excinfo.traceback[-2].name == "walk"
        with pytest.raises(BudgetExceeded) as excinfo:
            minimal_primes_squarefree(I, Budget(timeout_secs=0))
        assert excinfo.traceback[-2].name == "walk"
        assert height(I, Budget(timeout_secs=60)) == 2
        assert len(minimal_primes_squarefree(I, Budget(timeout_secs=60))) == 4

    def test_expired_deadline_stops_prime_walks(self):
        # The combinatorial prime walks behind verify_res_int visit every
        # vertex subset; they take the check's budget.
        path = SimpleGraph.path(4)
        with pytest.raises(BudgetExceeded):
            minimal_primes_bei(path, Budget(timeout_secs=0))
        for walk in (_candidate_primes, replay_avoidance_argument):
            with pytest.raises(BudgetExceeded):
                walk(5, Budget(timeout_secs=0))
        assert minimal_primes_bei(path, Budget(timeout_secs=60)) == minimal_primes_bei(path)
        assert replay_avoidance_argument(5, Budget(timeout_secs=60))


class TestMinimalPrimes:
    def test_pinned(self):
        R = standard_ring(4)
        got = minimal_primes_squarefree(Ideal(R, [R.x(1) * R.y(1)]))
        assert set(got) == {frozenset({"x1"}), frozenset({"y1"})}
        got2 = minimal_primes_squarefree(
            Ideal(R, [R.x(1) * R.x(2), R.x(2) * R.x(3)]))
        assert set(got2) == {frozenset({"x2"}), frozenset({"x1", "x3"})}

    def test_defining_property_of_outputs(self, rng):
        R = Ring(2)
        for _ in range(25):
            gens = []
            for _ in range(rng.randint(1, 4)):
                vec = [0] * 6
                for _ in range(rng.randint(1, 3)):
                    vec[rng.randrange(6)] = 1
                if any(vec):
                    gens.append(R.from_monomial(R.monomial(vec)))
            if not gens:
                continue
            I = Ideal(R, gens)
            supports = [set(g.terms[0].mono.support()) for g in I.groebner()]
            if not supports:
                continue
            for prime in minimal_primes_squarefree(I):
                positions = {R._pos_by_name[name] for name in prime}
                assert all(sup & positions for sup in supports)
                for v in positions:
                    smaller = positions - {v}
                    assert not all(sup & smaller for sup in supports)

    def test_non_squarefree_rejected(self):
        R = standard_ring(4)
        with pytest.raises(ValueError):
            minimal_primes_squarefree(Ideal(R, [R.x(1) ** 2]))

    def test_initial_of_sum_links_is_squarefree(self):
        init = initial_ideal(sum_links_ideal(4))
        primes = minimal_primes_squarefree(init)
        assert primes  # computable, and every cover hits every support
