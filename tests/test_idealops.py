"""Intersection, colon, dimension and height."""

import itertools
import random

import pytest

from detlink import groebner, idealops
from detlink.checks import run_checks
from detlink.families import (M_polys, chain_ideal, delta, gens_a,
                              generic_residual, minors_ideal, set_G,
                              standard_ring, sub_a)
from detlink.graphs import _minimal_primes, _minimal_sets, replay_avoidance_argument
from detlink.groebner import (Budget, BudgetExceeded, GBStats, Ideal,
                              _first_prim_product_outside, ideal_equal, member)
from detlink.idealops import (dimension, height, intersect, quotient,
                              quotient_by_poly, sum_ideals)
from detlink.rings import Ring

from conftest import (assert_fold_order_free, assert_matches_all_products,
                      count_gb_stats, random_nonzero_poly, random_poly)
from reference import groebner_basis_ideal, support


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

    def test_embedding_keeps_the_order(self, rng):
        # intersect passes each cached basis G as a block, which needs
        # in(t*g) = t*in(g): the extended order must rank t-free monomials
        # as the ring does. Embedded prims must stay descending, as
        # intersect embeds them.
        for ring in (Ring(2), Ring(3)):
            nvars = ring.nvars
            packing, epacking = groebner._packing(nvars), groebner._packing(nvars + 1, 1)
            for _ in range(100):
                f = random_nonzero_poly(ring, rng, terms=6)
                prim = groebner._prim_from_poly(f, packing)
                lifted = [epacking.with_key((m & packing.exp_mask) << groebner.FIELD)
                          for m, _ in prim]
                assert lifted == sorted(lifted, reverse=True)

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

    def test_fold_eliminates_where_g_out_leaves_I(self, monkeypatch):
        # The colon so far, out, starts as (1), and each generator g with
        # g*out not in I runs one elimination: out <- (I ∩ g*out) / g. The
        # generators are visited by ascending leading monomial, ties in the
        # order given, so z1 < y1 < x2 < x1. (x1):(z1) = (x1) is mapped into
        # (x1) by y1 and y1 + z1, so only z1 eliminates. (x1^2, x1*y1):(y1)
        # = (x1) is mapped into I by x1: one elimination. (x1*y1, x2*y2):(x2)
        # = (y2, x1*y1) is not mapped into I by x1: two eliminations. (0):J
        # is (0) after its first generator, and no product with (0) leaves
        # I. (x1, y1^2):(y1) = (x1, y1) is mapped into I by x1: one
        # elimination. J = (1) gives I, and a J inside I leaves the unit
        # ideal.
        R = standard_ring(4)
        x1, y1, z1, x2, y2 = R.x(1), R.y(1), R.z(1), R.x(2), R.y(2)
        cases = [(Ideal(R, [x1]), [y1, z1, y1 + z1], [z1]),
                 (Ideal(R, [x1 ** 2, x1 * y1]), [x1, y1], [y1]),
                 (Ideal(R, [x1 * y1, x2 * y2]), [x1, x2], [x2, x1]),
                 (Ideal(R, []), [x1, y1], [y1]),
                 (Ideal(R, [x1, y1 ** 2]), [x1, y1], [y1]),
                 (Ideal(R, [x1 ** 2, x1 * y1]), [R.one], [R.one]),
                 (Ideal(R, [x1, y1]), [x1, y1 - x1], [])]
        packing = groebner._packing(R.nvars)
        for I, gens, eliminating in cases:
            tested, eliminated = [], []
            first_outside = idealops._first_prim_product_outside
            intersect_prims = idealops._intersect_prims
            monkeypatch.setattr(idealops, "_first_prim_product_outside",
                                lambda gs, *args: tested.append(gs[0])
                                or first_outside(gs, *args))
            monkeypatch.setattr(idealops, "_intersect_prims",
                                lambda *args: eliminated.append(tested[-1])
                                or intersect_prims(*args))
            Q = quotient(I, Ideal(R, gens))
            monkeypatch.undo()
            assert eliminated == [groebner._prim_from_poly(g, packing)
                                  for g in eliminating]
            assert len(tested) == len(gens)
            assert tested == sorted(tested, key=lambda g: g[0][0])
            # The intersection of the principal colons I:(g), each found
            # as (I ∩ (g)) / g with the public intersect and divide.
            explicit = None
            for g in gens:
                W = intersect(I, Ideal(R, [g]))
                part = Ideal(R, [groebner.divide(w, [g]).quotients[0]
                                 for w in W.gens])
                explicit = part if explicit is None else intersect(explicit, part)
            assert Q.groebner() == explicit.groebner()
            assert Q.gens == explicit.groebner()
            assert quotient_by_poly(I, gens[0]).groebner() == (
                quotient(I, Ideal(R, gens[:1])).groebner())


def _full_family(n):
    return groebner_basis_ideal(standard_ring(n), set_G(n))


def _probe_draws(count):
    # The first draws of `detlink verify --n 4 --seed 0`'s probe stream.
    rng = random.Random("0/random-specialization")
    return [generic_residual(4, [[rng.randint(-50, 50) for _ in range(4)]
                                 for _ in range(6)])
            for _ in range(count)]


FOLD_CASES = {
    "links n=4": lambda: [(sub_a(4, i), minors_ideal(4)) for i in range(1, 5)],
    "links n=5": lambda: [(sub_a(5, i), minors_ideal(5)) for i in range(1, 6)],
    "chain(5) : I_2": lambda: [(chain_ideal(5), minors_ideal(5))],
    "full family n=5": lambda: [(_full_family(5), minors_ideal(5))],
    "probe draws 1, 2 of seed 0": lambda: _probe_draws(2),
}


class TestFoldOrder:
    """The fold's order changes its cost, not its result: `quotient`
    matches the fold in the order given, under five orders of J."""

    @pytest.mark.parametrize("case", FOLD_CASES)
    def test_matches_given_order_fold(self, case):
        for I, J in FOLD_CASES[case]():
            assert_fold_order_free(I, J.gens)

    # The pass totals below sum every Buchberger run, reduced bases and
    # eliminations alike.

    def test_colon_pass_totals_pinned(self, monkeypatch):
        total = count_gb_stats(monkeypatch)
        reports = run_checks(5, ["links", "section2", "sum-equals-colon"], seed=0)
        assert [r.status for r in reports] == ["pass"] * 3
        # links and section2 each run one elimination per colon (one minor,
        # certified; see `checks._colon_by_minors`), sum-equals-colon the
        # fold over all minors.
        assert total == GBStats(pairs_pushed=1249, pairs_processed=1150,
                                discarded_coprime=150, discarded_chain=6048,
                                zero_reductions=919, basis_added=231)

    def test_probe_pass_totals_pinned(self, monkeypatch):
        # The first seed-0 matrix passes the height filter at its first draw.
        total = count_gb_stats(monkeypatch)
        (aB, I), = _probe_draws(1)
        Q = quotient(aB, I)
        assert height(Q) == 4
        parts = [quotient(Ideal(aB.ring, aB.gens[:i] + aB.gens[i + 1:]), I)
                 for i in range(4)]
        assert ideal_equal(Q, sum_ideals(*parts))
        assert total == GBStats(pairs_pushed=371, pairs_processed=336,
                                discarded_coprime=1, discarded_chain=1259,
                                zero_reductions=230, basis_added=106)


def _probe_colons(count):
    # Each probe matrix's colon Q = aB : I and its four parts, as the probe
    # computes them.
    cases = []
    for aB, I in _probe_draws(count):
        cases.append((aB, I))
        cases += [(Ideal(aB.ring, aB.gens[:k] + aB.gens[k + 1:]), I)
                  for k in range(len(aB.gens))]
    return cases


KEPT_CASES = {
    "links n=4": FOLD_CASES["links n=4"],
    "links n=5": FOLD_CASES["links n=5"],
    "chain(5) : I_2": FOLD_CASES["chain(5) : I_2"],
    "probe matrices 1, 2 of seed 0": lambda: _probe_colons(2),
}


class TestKeptSkipTest:
    """The skip test multiplies g only into the kept part of out: the
    elements outside I + (the kept elements before them). It decides as
    the test on every element of out does."""

    @pytest.mark.parametrize("case", KEPT_CASES)
    def test_matches_all_products_fold(self, case):
        for I, J in KEPT_CASES[case]():
            assert_matches_all_products(I, J)

    def test_probe_kept_counts_pinned(self, monkeypatch):
        # The first seed-0 matrix: each colon runs one elimination, then
        # skip-tests its other generators on the kept part of the result.
        seen = []
        real = idealops._kept_part

        def recording(I, out, budget=None):
            kept = real(I, out, budget)
            seen.append((len(kept), len(out)))
            return kept

        monkeypatch.setattr(idealops, "_kept_part", recording)
        (aB, I), *parts = _probe_colons(1)
        quotient(aB, I)
        assert seen == [(12, 16)]
        seen.clear()
        for sub, _ in parts:
            quotient(sub, I)
        assert seen == [(3, 9)] * 4

    def test_principal_colon_forms_no_kept_part(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kept part formed")

        monkeypatch.setattr(idealops, "_kept_part", refuse)
        I = minors_ideal(4)
        for g in gens_a(4).gens:
            quotient_by_poly(I, g)


class TestExactQuotient:
    """`_exact_quotient(g, f, guard)` on prims, against `divide`."""

    def test_matches_divide_on_multiples(self, rng):
        R = Ring(2)
        packing = groebner._packing(R.nvars)
        for _ in range(20):
            f = random_nonzero_poly(R, rng, terms=3)
            q = random_nonzero_poly(R, rng, terms=3)
            g = q * f
            got = idealops._exact_quotient(groebner._prim_from_poly(g, packing),
                                           groebner._prim_from_poly(f, packing),
                                           packing.guard)
            exact = groebner.divide(g, [f])
            assert not exact.remainder
            # The prim of the exact quotient: content 1, positive leading term.
            assert got == groebner._prim_from_poly(exact.quotients[0], packing)

    def test_inexact_division_raises(self):
        R = Ring(2)
        packing = groebner._packing(R.nvars)
        x1, y1 = R.x(1), R.y(1)

        def quotient(g, f):
            return idealops._exact_quotient(groebner._prim_from_poly(g, packing),
                                            groebner._prim_from_poly(f, packing),
                                            packing.guard)

        assert quotient(x1 * y1 + 2 * y1 ** 2, x1 + 2 * y1) == (
            groebner._prim_from_poly(y1, packing))
        # in(f) = x1 divides x1*y1, but lc(f) = 2 does not divide 1.
        with pytest.raises(ArithmeticError, match="non-exact"):
            quotient(x1 * y1, 2 * x1 + y1)
        # in(f) = x1 does not divide y1.
        with pytest.raises(ArithmeticError, match="non-exact"):
            quotient(y1, x1)


def _first_outside_by_member(gs, hs, I):
    """The first (a, b), row-major, with gs[a]*hs[b] not in I, by `member`."""
    return next(((a, b) for a, g in enumerate(gs) for b, h in enumerate(hs)
                 if not member(g * h, I)), None)


def _prims(fs):
    """The prims of Polynomials of one ring, packed once each; () for 0."""
    return [groebner._prim_from_poly(f, groebner._packing(f.ring.nvars))
            if f else () for f in fs]


def _first_outside(gs, hs, I, budget=None):
    """`_first_prim_product_outside` on the prims of gs and hs."""
    return _first_prim_product_outside(_prims(gs), _prims(hs), I, budget)


class TestMultiplesIn:
    """`_first_prim_product_outside(gs, hs, I)` against a scan of
    member(g*h, I)."""

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
            extra = random_nonzero_poly(ring, rng, terms=2)
            for gs, hs in (([g], colon), ([g], colon + [extra]),
                           ([g], [random_nonzero_poly(ring, rng, terms=3)]),
                           ([g, extra, g], colon),
                           ([extra, ring.zero, g], colon + [ring.zero])):
                want = _first_outside_by_member(gs, hs, I)
                assert _first_outside(gs, hs, I) == want
                seen.add(want if want is None or want == (0, 0) else "later")
        assert seen == {None, (0, 0), "later"}

    def test_monomials_times_minors(self):
        # The containment of sum-equals-colon, with a multiplier list that
        # fails only at its end.
        n = 4
        ring = standard_ring(n)
        a_full = _full_family(n)
        minors = minors_ideal(n).gens
        monos = [p for i in range(1, n + 1) for p in M_polys(n, i)]
        assert _first_outside(monos, minors, a_full) is None
        bad = monos + [ring.x(1), ring.y(2)]
        want = _first_outside_by_member(bad, minors, a_full)
        assert want is not None and want[0] == len(monos)
        assert _first_outside(bad, minors, a_full) == want

    def test_edge_ideals(self):
        R = Ring(2)
        x1, y1 = R.x(1), R.y(1)
        zero, unit = Ideal(R, []), Ideal(R, [R.one])
        assert _first_outside([x1], [], zero) is None
        assert _first_outside([], [x1], zero) is None
        assert _first_outside([x1], [y1], zero) == (0, 0)
        assert _first_outside([R.one], [R.one], zero) == (0, 0)
        assert _first_outside([x1], [y1, x1 - 2 * y1], unit) is None
        assert _first_outside([x1], [], Ideal(R, [y1])) is None
        assert _first_outside([y1, x1], [y1, x1], Ideal(R, [x1])) == (0, 0)
        assert _first_outside([x1, y1], [y1, y1], Ideal(R, [x1])) == (1, 0)
        # Row-major: x1*x2 comes before y1*y1.
        assert _first_outside([x1, y1], [y1, R.x(2)],
                              Ideal(R, [x1 * y1])) == (0, 1)
        # The x1*y1 terms of (x1 + y1)(x1 - y1) cancel.
        assert _first_outside([x1 + y1], [x1 - y1],
                              Ideal(R, [x1 ** 2 - y1 ** 2])) is None
        # A zero factor gives the zero product, which lies in every ideal.
        assert _first_outside([R.zero], [y1], Ideal(R, [x1])) is None
        assert _first_outside([R.zero], [y1], zero) is None
        assert _first_outside([y1], [R.zero, y1], Ideal(R, [x1])) == (0, 1)

    def test_packs_each_factor_once(self, monkeypatch):
        # The factors come packed, once each: the products are formed on
        # them, and nothing is packed again, whatever the verdict.
        R = Ring(2)
        I = Ideal(R, [R.x(2)])
        I._reducer()
        gs, hs = _prims([R.x(1), R.z(1)]), _prims([R.y(1), R.y(2), R.z(2)])
        multiples = _prims([R.x(2), R.x(2) * R.y(1)])
        packed = []
        prim = groebner._prim_from_poly
        monkeypatch.setattr(groebner, "_prim_from_poly",
                            lambda f, packing: packed.append(f) or prim(f, packing))
        assert _first_prim_product_outside(gs, hs, I) == (0, 0)
        assert _first_prim_product_outside(gs, multiples, I) is None
        assert packed == []

    def test_expired_deadline(self):
        R = Ring(2)
        I = Ideal(R, [R.x(1) * R.y(1)])
        I.groebner()
        with pytest.raises(BudgetExceeded):
            _first_outside([R.x(1)], [R.y(1)], I, Budget(timeout_secs=0))
        assert _first_outside([R.x(1)], [R.y(1)], I,
                              Budget(timeout_secs=60)) is None


class TestSumProduct:
    def test_pinned(self):
        R = standard_ring(4)
        I = Ideal(R, [R.x(1)])
        assert ideal_equal(sum_ideals(I, Ideal(R, [])), I)

    def test_sum_dedupes(self):
        R = standard_ring(4)
        I = Ideal(R, [R.x(1), R.y(2)])
        assert len(sum_ideals(I, I).gens) == 2

    def test_sum_keeps_first_occurrences_in_order(self):
        R = standard_ring(4)
        x1, y2, z3, x4 = R.x(1), R.y(2), R.z(3), R.x(4)
        I, J, K = (Ideal(R, [x1, y2]), Ideal(R, [z3, x1, x4]),
                   Ideal(R, [x4, y2, z3, x1 * y2]))
        assert sum_ideals(I, J, K).gens == (x1, y2, z3, x4, x1 * y2)


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

    def test_dimension_of_a_packed_result_builds_no_polynomials(self):
        # A colon carries its reduced basis packed; dimension reads the
        # leading monomials there and leaves its Polynomials unbuilt.
        Q = quotient(sub_a(4, 1), minors_ideal(4))
        assert Q._basis is None
        assert height(Q) == 3
        assert Q._basis is None
        J = Ideal(Q.ring, Q.gens)
        J.groebner()
        assert J._basis_prims is None and height(J) == 3

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
            supports = [support(g.terms[0].mono) for g in I.groebner()]
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
    # An expired deadline, and a cap of no units of work.
    LIMITS = ({"timeout_secs": 0}, {"max_pairs": 0})

    def test_expired_deadline_stops_cover_walks(self):
        # The basis is cached, so the budget can only run out in the vertex
        # cover walk of dimension, whose nodes tick it.
        R = Ring(2)
        I = Ideal(R, [R.x(1) * R.y(1), R.x(2) * R.z(2)])
        I.groebner()
        for limit in self.LIMITS:
            with pytest.raises(BudgetExceeded) as excinfo:
                height(I, Budget(**limit))
            names = [f.name for f in excinfo.traceback]
            assert names[names.index("tick") - 1] == "walk"
        assert height(I, Budget(timeout_secs=60)) == 2

    def test_expired_deadline_stops_prime_walks(self):
        # The prime walk behind verify_res_int takes the check's budget: each
        # subset T ticks it in _minimal_primes, each node of the backtracking
        # over S in _minimal_sets.
        walks = ((lambda b: list(_minimal_sets([1, 2, 3, 4, 5], frozenset(), b)),
                  "_minimal_sets"),
                 (lambda b: list(_minimal_primes(5, b)), "_minimal_primes"),
                 (lambda b: replay_avoidance_argument(5, b), "_minimal_primes"))
        for limit in self.LIMITS:
            for walk, ticker in walks:
                with pytest.raises(BudgetExceeded) as excinfo:
                    walk(Budget(**limit))
                names = [f.name for f in excinfo.traceback]
                assert names[names.index("tick") - 1] == ticker
        assert len(list(_minimal_sets([1, 2, 3, 4, 5], frozenset(),
                                      Budget(timeout_secs=60)))) == 5
        assert replay_avoidance_argument(5, Budget(timeout_secs=60))
