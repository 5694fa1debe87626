"""Division, S-polynomials, Buchberger, basis predicates."""

from fractions import Fraction

import pytest

from detlink import groebner
from detlink.families import (G_union_M, delta, gens_a, minors_ideal, set_G,
                              standard_ring, sub_a, sum_links_ideal)
from detlink.groebner import (Budget, BudgetExceeded, GBStats, Ideal,
                              divide, ideal_equal, is_groebner_basis, member, minimal_generators,
                              reduced_groebner_basis, s_polynomial)
from detlink.rings import Ring

from conftest import (elimination_input, random_monomial, random_nonzero_poly,
                      random_poly)
import reference
from reference import div, divides, groebner_basis_ideal, m_ij


class TestDivide:
    def test_single_reduction_step(self):
        # The first-match rule with the chain minor: its leading monomial is
        # x2*y1, so dividing x2*y1 leaves the trailing monomial x1*y2.
        R = standard_ring(4)
        d21 = delta(2, 1, 4)
        res = divide(R.x(2) * R.y(1), [d21])
        assert res.quotients[0] == R.one
        assert res.remainder == R.x(1) * R.y(2)
        # The transposed orientation reduces nothing: x2*y1 cannot divide x1*y2.
        res2 = divide(R.x(1) * R.y(2), [R.x(1) * R.y(2) - R.x(2) * R.y(1)])
        assert res2.quotients[0] == R.zero
        assert res2.remainder == R.x(1) * R.y(2)

    def test_self_division(self, rng):
        R = standard_ring(4)
        for _ in range(20):
            f = random_nonzero_poly(R, rng)
            assert divide(f, [f]).remainder == R.zero

    def test_pinned_minor_identity(self):
        R = standard_ring(4)
        res = divide(R.x(2) * delta(1, 3, 4), [delta(1, 2, 4), delta(2, 3, 4)])
        assert res.remainder == R.zero

    def test_empty_divisor_list(self):
        R = standard_ring(4)
        f = R.x(1) + R.y(2)
        res = divide(f, [])
        assert res.quotients == ()
        assert res.remainder == f

    def test_zero_divisor_rejected(self):
        R = standard_ring(4)
        with pytest.raises(ValueError):
            divide(R.x(1), [R.zero])

    def test_contract_on_random_samples(self, rng):
        # h = h' + sum h_i f_i; no remainder monomial reducible; degree bound.
        R = Ring(2)
        for _ in range(300):
            h = random_nonzero_poly(R, rng, terms=5)
            divisors = [random_nonzero_poly(R, rng, terms=3)
                        for _ in range(rng.randint(1, 3))]
            quotients, rem = divide(h, divisors)
            rebuilt = rem
            for q, f in zip(quotients, divisors):
                rebuilt = rebuilt + q * f
            assert rebuilt == h
            lead_mons = [f.terms[0].mono for f in divisors]
            for _, m in rem.terms:
                assert not any(divides(lm, m) for lm in lead_mons)
            top = h.terms[0].mono.key
            for q, f in zip(quotients, divisors):
                if q:
                    assert (q * f).terms[0].mono.key <= top


    def test_long_division_with_rational_divisors(self):
        # Non-monic rational divisors and a dividend that needs more than 32
        # reduction steps: the integer kernel divides a common content of 7
        # out of its working polynomial after step 32, and the quotients must
        # still be the exact rational ones the textbook algorithm produces.
        R = Ring(2)
        divisors = [R.parse("5/7*x2 - 2*y1"),
                    R.parse("-2/7*x1^2*z2 - 5/7*y2*z1"),
                    R.parse("-6/5*y1 + 9/2*z2")]
        h = R.parse("-6/49*x1^3*x2^3*y1*y2^2*z2^2 - 5/7*x2^4*y1^2*y2^2*z2^2"
                    " - 24/35*x1^3*x2^5*y1 - 5/7*x1^3*y2^2*z1^2*z2^2"
                    " - 4*x2^6*y1^2 - 4*x1^3*x2^2*z1^2 + 6/7*y2^2*z2^2 + 24/5*x2^2")
        quotients, rem = divide(h, divisors)
        assert sum(len(q) for q in quotients) > 32
        rebuilt = rem
        for q, f in zip(quotients, divisors):
            rebuilt = rebuilt + q * f
        assert rebuilt == h
        assert (quotients, rem) == _textbook_divide(h, divisors)


def _textbook_divide(h, divisors):
    """Division over Q with the first-match rule, one term at a time."""
    ring = h.ring
    p = {m: c for c, m in h.terms}
    quotients = [{} for _ in divisors]
    rem = {}
    while p:
        m = max(p, key=lambda mono: mono.key)
        c = p.pop(m)
        for qd, f in zip(quotients, divisors):
            lc, lm = f.terms[0]
            if divides(lm, m):
                u = div(m, lm)
                qd[u] = qd.get(u, 0) + c / lc
                for fc, fm in f.terms[1:]:
                    mm = u.mul(fm)
                    p[mm] = p.get(mm, 0) - c / lc * fc
                    if not p[mm]:
                        del p[mm]
                break
        else:
            rem[m] = c
    return tuple(ring.poly(q) for q in quotients), ring.poly(rem)


def test_division_and_s_polynomials_keep_their_terms(rng):
    # The kernel's packed dicts come back term for term as the canonical
    # Polynomials the ring builds, with Fraction coefficients.
    R = Ring(2)
    for _ in range(200):
        h = random_nonzero_poly(R, rng, terms=5)
        divisors = [random_nonzero_poly(R, rng, terms=3)
                    for _ in range(rng.randint(1, 3))]
        quotients, rem = divide(h, divisors)
        want_q, want_rem = _textbook_divide(h, divisors)
        f, g = divisors[0], h
        (cf, mf), (cg, mg) = f.terms[0], g.terms[0]
        m = reference.lcm(mf, mg)
        s = (cg * R.from_monomial(div(m, mf)) * f
             - cf * R.from_monomial(div(m, mg)) * g)
        for got, want in zip((*quotients, rem, s_polynomial(f, g)),
                             (*want_q, want_rem, s)):
            assert got.terms == want.terms
            assert all(type(c) is Fraction for c, _ in got.terms)


class TestSPolynomial:
    def test_pinned(self):
        R = standard_ring(4)
        x, y = R.x(1), R.y(1)
        assert s_polynomial(x * x - y, x * y) == -(y ** 2)
        f = delta(1, 2, 4) * R.z(3) + R.x(4)
        assert s_polynomial(f, f) == R.zero
        # Two monomials always cancel exactly.
        assert s_polynomial(R.x(1) * R.y(2), R.y(2) * R.z(1)) == R.zero

    def test_zero_rejected(self):
        R = standard_ring(4)
        with pytest.raises(ValueError):
            s_polynomial(R.zero, R.x(1))


class TestBuchberger:
    def test_pinned_toy(self):
        R = standard_ring(4)
        x, y = R.x(1), R.y(1)
        basis = reduced_groebner_basis([x * x - y, x * y])
        assert basis == (x * x - y, x * y, y ** 2)

    def test_principal_ideal(self):
        R = standard_ring(4)
        f = 7 * delta(1, 2, 4)
        assert reduced_groebner_basis([f]) == (delta(1, 2, 4).monic(),)

    def test_family_basis_matches_candidate(self):
        for n in (4, 5):
            computed = reduced_groebner_basis(gens_a(n).gens)
            assert computed == groebner_basis_ideal(
                standard_ring(n), set_G(n)).groebner()
            assert len(computed) == 3 * n - 4

    def test_output_is_groebner_and_idempotent(self, rng):
        R = Ring(2)
        for _ in range(25):
            gens = [random_nonzero_poly(R, rng, terms=3, max_exp=2)
                    for _ in range(rng.randint(1, 3))]
            basis = reduced_groebner_basis(gens)
            assert is_groebner_basis(basis).ok
            assert reduced_groebner_basis(basis) == basis

    def test_permutation_invariance(self, rng):
        R = standard_ring(4)
        gens = list(gens_a(4).gens) + [delta(1, 3, 4)]
        expected = reduced_groebner_basis(gens)
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert reduced_groebner_basis(shuffled) == expected

    def test_criteria_do_not_change_result(self, rng):
        R = Ring(2)
        for _ in range(15):
            gens = [random_nonzero_poly(R, rng, terms=3, max_exp=2)
                    for _ in range(rng.randint(1, 3))]
            with_criteria = reduced_groebner_basis(gens, criteria=True)
            without = reduced_groebner_basis(gens, criteria=False)
            assert with_criteria == without

    def test_criteria_do_not_change_elimination_result(self, rng):
        R = Ring(2)
        for _ in range(12):
            fs = [random_nonzero_poly(R, rng, terms=2, max_exp=2)
                  for _ in range(rng.randint(1, 2))]
            gs = [random_nonzero_poly(R, rng, terms=2, max_exp=2)
                  for _ in range(rng.randint(1, 2))]
            gens = elimination_input(fs, gs)
            assert (groebner._groebner_prims(*gens, criteria=True)
                    == groebner._groebner_prims(*gens, criteria=False))

    def test_criteria_equivalence_on_families(self):
        for n in (4, 5, 6):
            gens = gens_a(n).gens
            assert (reduced_groebner_basis(gens, criteria=True)
                    == reduced_groebner_basis(gens, criteria=False))
        gens = elimination_input(gens_a(4).gens, minors_ideal(4).gens)
        assert (groebner._groebner_prims(*gens, criteria=True)
                == groebner._groebner_prims(*gens, criteria=False))

    def test_budget_exceeded(self):
        budget = Budget(max_pairs=2)
        with pytest.raises(BudgetExceeded):
            reduced_groebner_basis(gens_a(4).gens, budget=budget)

    def test_expired_deadline_stops_one_long_reduction(self):
        # The basis is cached, so no pair is ever counted: only the kernel's
        # deadline check, every 32 reduction steps, can stop this call.
        R = Ring(2)
        x1, x2 = R.x(1), R.x(2)
        I = Ideal(R, [x1 - x2])
        I.groebner()
        f = x1 ** 100 - x2 ** 100
        budget = Budget(timeout_secs=0)
        with pytest.raises(BudgetExceeded, match="timeout") as excinfo:
            member(f, I, budget)
        assert excinfo.traceback[-2].name == "reduce"
        assert budget.pairs == 0
        assert member(f, I, Budget(timeout_secs=60))

    def test_budget_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            Budget(max_pairs=-1)
        with pytest.raises(ValueError):
            Budget(timeout_secs=-0.5)

    def test_stats_populated(self):
        stats = GBStats()
        basis = reduced_groebner_basis(gens_a(4).gens, stats=stats)
        assert stats.pairs_processed > 0
        assert len(basis) == 8

    def test_elimination_counts_pinned(self):
        # The first elimination of the n = 5 link colon:
        # t*sub_a(5, 1) + (1 - t)*(delta(1, 2)), behind intersect.
        stats = GBStats()
        basis = groebner._groebner_prims(
            *elimination_input(sub_a(5, 1).gens, [delta(1, 2, 5)]), stats=stats)
        assert stats == GBStats(pairs_pushed=72, pairs_processed=69,
                                discarded_coprime=0, discarded_chain=121,
                                zero_reductions=54, basis_added=15)
        assert len(basis) == 20

    def test_elimination_counts_pinned_from_a_basis(self):
        # The same elimination from sub's reduced basis, as `quotient` now
        # starts it: t*G with G the 7 elements of sub's basis, first as plain
        # generators, then as a block whose inner pairs are not pushed.
        prims, packing = elimination_input(sub_a(5, 1).groebner(), [delta(1, 2, 5)])
        plain, blocked = GBStats(), GBStats()
        basis = groebner._groebner_prims(prims, packing, stats=plain)
        assert groebner._groebner_prims(prims, packing, stats=blocked,
                                        blocks=[0] * 7 + [1]) == basis
        assert plain == GBStats(pairs_pushed=79, pairs_processed=70,
                                discarded_coprime=0, discarded_chain=127,
                                zero_reductions=57, basis_added=13)
        assert blocked == GBStats(pairs_pushed=61, pairs_processed=58,
                                  discarded_coprime=0, discarded_chain=139,
                                  zero_reductions=45, basis_added=13)
        assert len(basis) == 20

    def test_monomials_form_no_pair(self):
        # The S-polynomial of two monomials is 0: three monomials push no
        # pair and count no discarded one, and the third's lcm with the
        # second, x1^20000*y1^20000, past the packing limit, is never formed.
        R = Ring(2)
        x1, y1 = R.x(1), R.y(1)
        for gens, basis in (([x1 * y1, x1 ** 2, y1 ** 3], (y1 ** 3, x1 ** 2, x1 * y1)),
                            ([x1 * y1, x1 ** 20000 * y1, x1 * y1 ** 20000], (x1 * y1,))):
            stats = GBStats()
            assert reduced_groebner_basis(gens, stats=stats) == basis
            assert stats == GBStats()

    def test_stats_count_reduced_pairs(self):
        # Every processed pair is an S-polynomial reduced to zero or added;
        # the criteria must spare work on a family that has redundant pairs.
        with_criteria, without = GBStats(), GBStats()
        reduced_groebner_basis(gens_a(5).gens, stats=with_criteria)
        reduced_groebner_basis(gens_a(5).gens, criteria=False, stats=without)
        for stats in (with_criteria, without):
            assert (stats.pairs_processed
                    == stats.zero_reductions + stats.basis_added)
        assert with_criteria.pairs_processed < without.pairs_processed
        assert without.discarded_coprime == without.discarded_chain == 0

    def test_family_counts_pinned(self):
        # The counts of the scalable family workloads: Buchberger on a(n)
        # with and without the criteria and on the sum of links, and the
        # certificate walk of G u M, whose pairs_processed is the number of
        # pairs it reduces. A change to pair installation or to the walk
        # must leave them alone.
        columns = ("pairs_processed", "discarded_coprime", "discarded_chain",
                   "zero_reductions", "basis_size")
        expected = {
            (4, "gb-a"): (13, 6, 9, 9, 8),
            (4, "gb-a-nocriteria"): (28, 0, 0, 24, 8),
            (4, "gb-sum-links"): (35, 8, 68, 33, 18),
            (4, "certificate-G-M"): (71, 0, 0, 0, 24),
            (5, "gb-a"): (22, 15, 18, 16, 11),
            (5, "gb-a-nocriteria"): (55, 0, 0, 49, 11),
            (5, "gb-sum-links"): (89, 22, 280, 85, 29),
            (5, "certificate-G-M"): (158, 0, 0, 0, 51),
            (6, "gb-a"): (33, 28, 30, 25, 14),
            (6, "gb-a-nocriteria"): (91, 0, 0, 83, 14),
            (6, "gb-sum-links"): (193, 42, 942, 187, 42),
            (6, "certificate-G-M"): (325, 0, 0, 0, 110),
        }
        for (n, task), counts in expected.items():
            if task == "certificate-G-M":
                GM, budget = G_union_M(n), Budget()
                assert is_groebner_basis(GM, budget=budget).ok
                got = (budget.pairs, 0, 0, 0, len(GM))
            else:
                gens = (sum_links_ideal(n) if task == "gb-sum-links"
                        else gens_a(n)).gens
                stats = GBStats()
                basis = reduced_groebner_basis(
                    gens, criteria=task != "gb-a-nocriteria", stats=stats)
                got = (stats.pairs_processed, stats.discarded_coprime,
                       stats.discarded_chain, stats.zero_reductions, len(basis))
            assert dict(zip(columns, got)) == dict(zip(columns, counts)), (n, task)

    def test_foreign_order_rejected(self):
        # Polynomials keep their terms in grevlex, the one order, so any
        # other order would silently pick wrong leading terms.
        R = Ring(2)
        x1, x2 = R.x(1), R.x(2)
        f, g = x1 ** 2 + x2, x1 * x2 + x1
        for order in (Ring(3), R, "lex"):
            with pytest.raises(ValueError):
                is_groebner_basis([f, g], order)
        assert is_groebner_basis([f, g], None) == is_groebner_basis([f, g])

    def test_cross_ring_input_rejected(self):
        # Ring(2) into Ring(3) used to fail in the packing.
        R2, R3 = Ring(2), Ring(3)
        f, g = R2.x(1), R3.x(1)
        I = Ideal(R3, [g])
        for call in (lambda: member(f, I), lambda: member(R2.zero, I),
                     lambda: divide(f, [g]), lambda: divide(g, [f]),
                     lambda: reduced_groebner_basis([g, f]),
                     lambda: is_groebner_basis([g, f])):
            with pytest.raises(ValueError, match="expected Ring"):
                call()

    def test_ideal_wrapper_caches(self):
        I = gens_a(4)
        # The zero polynomial is a member without a basis.
        assert member(I.ring.zero, I)
        assert not I.has_cached_basis()
        basis = I.groebner()
        assert I.has_cached_basis()
        assert I.groebner() is basis
        assert basis == reduced_groebner_basis(I.gens)

    def test_membership_packs_the_basis_once(self, monkeypatch):
        # Every member call shares the ideal's packed divisor list, and a
        # basis built from prims keeps them, so only the arguments are
        # converted.
        from detlink import groebner
        calls = []
        original = groebner._prim_from_poly

        def counted(f, packing):
            calls.append(f)
            return original(f, packing)

        I = gens_a(4)
        basis = I.groebner()
        monkeypatch.setattr(groebner, "_prim_from_poly", counted)
        assert all(member(g, I) for g in basis)
        assert not member(I.ring.x(1), I)
        assert len(calls) == len(basis) + 1
        assert I.has_cached_basis()
        fresh = Ideal(I.ring, I.gens)
        assert member(basis[0], fresh) and fresh.has_cached_basis()

    def test_generator_from_another_ring_rejected(self):
        R2, R3 = Ring(2), Ring(3)
        with pytest.raises(ValueError, match="different ring"):
            Ideal(R2, [R2.x(1), R3.x(1)])

    def test_ideal_from_prims_matches_a_computed_basis(self, rng):
        # An ideal built from its packed reduced basis answers as the ideal
        # of the same basis that computes it, and builds its Polynomials
        # only when asked.
        R = standard_ring(4)
        packing = groebner._packing(R.nvars)
        for gens in (gens_a(4).gens, minors_ideal(4).gens, (R.one,),
                     (R.x(1) ** 2 - R.y(1), R.x(1) * R.y(2))):
            basis = reduced_groebner_basis(gens)
            packed = Ideal._from_prims(
                R, [groebner._prim_from_poly(f, packing) for f in basis])
            plain = Ideal(R, basis)
            plain.groebner()
            assert packed.has_cached_basis() and plain.has_cached_basis()
            assert packed._gens is None and packed._basis is None
            assert repr(packed) == repr(plain)
            assert packed.gens == plain.gens == basis
            assert packed.groebner() == plain.groebner() == basis
            for _ in range(10):
                f = random_poly(R, rng, terms=3)
                if rng.random() < 0.5:
                    f = f * basis[rng.randrange(len(basis))]
                assert member(f, packed) == member(f, plain)

    def test_cache_invariant_mutual_membership(self):
        # The cached basis is monic, interreduced, and generates the same
        # ideal as the stored generators.
        R = standard_ring(4)
        for I in (gens_a(4), minors_ideal(4)):
            basis = I.groebner()
            lead = [b.terms[0].mono for b in basis]
            for idx, b in enumerate(basis):
                assert b.terms[0].coeff == 1
                others = lead[:idx] + lead[idx + 1:]
                assert all(not divides(lm, m) for lm in others
                           for _, m in b.terms)
            fresh = Ideal(R, I.gens)
            assert all(member(b, fresh) for b in basis)
            from_basis = Ideal(R, basis)
            assert all(member(g, from_basis) for g in I.gens)


def _count_units(monkeypatch) -> list:
    """A list that grows by one per unit a certificate does: each
    `_IntReducer.reduce` call, and each two-term walk that reaches a
    verdict (a walk that meets a divisor it does not take hands its pair
    to `reduce`, which counts it)."""
    calls = []
    reduce, walk = groebner._IntReducer.reduce, groebner._two_term_walk

    def walking(*args):
        zero = walk(*args)
        if zero is not None:
            calls.append(1)
        return zero

    monkeypatch.setattr(groebner._IntReducer, "reduce",
                        lambda self, p: calls.append(1) or reduce(self, p))
    monkeypatch.setattr(groebner, "_two_term_walk", walking)
    return calls


def _count_divisions(monkeypatch) -> list:
    """A list that grows by one per `divide` call, which runs its own loop,
    not `_IntReducer.reduce`."""
    calls, divide = [], groebner.divide
    monkeypatch.setattr(groebner, "divide", lambda *args: calls.append(1) or divide(*args))
    return calls


def _skipped_before_the_witness() -> list:
    """A set whose certificate skips (1, 4) by k = 2 between the passing
    (2, 4) and the failing (2, 3)."""
    R = Ring(2)
    x1, y1, y2, z1, z2 = R.x(1), R.y(1), R.y(2), R.z(1), R.z(2)
    f = 3 * y1 - 2 * z2
    return [x1 * z2, f, y1 * y2 * z1 * f + 9 * x1, y1 * z2 * f]


class TestCertificate:
    def test_pinned_failure_witness(self):
        R = standard_ring(4)
        x, y = R.x(1), R.y(1)
        cert = is_groebner_basis([x * x - y, x * y])
        assert not cert.ok
        assert cert.witness == (1, 2)
        assert cert.remainder == -(y ** 2)

    def test_family_certificates(self):
        for n in (4, 5, 6):
            assert is_groebner_basis(set_G(n)).ok

    def test_zero_input_rejected(self):
        R = standard_ring(4)
        with pytest.raises(ValueError):
            is_groebner_basis([R.zero])

    def test_mutated_candidate_detected(self):
        # Flipping one sign in the candidate set must break the certificate.
        R = standard_ring(4)
        G = set_G(4)
        lead = G[2].terms[0].coeff * R.from_monomial(G[2].terms[0].mono)
        G[2] = G[2] - 2 * lead
        cert = is_groebner_basis(G)
        assert not cert.ok
        assert cert.witness is not None
        assert cert.remainder

    def test_redundant_bases_pass(self, rng):
        # Redundant elements give the chain criterion its k: reduced bases
        # with multiples of their elements added (G u M(n) is in the next
        # test).
        R = Ring(2)
        for _ in range(6):
            basis = list(reduced_groebner_basis(
                [random_nonzero_poly(R, rng, terms=3, max_exp=1) for _ in range(3)]))
            extra = [R.from_monomial(random_monomial(R, rng)) * rng.choice(basis)
                     for _ in range(3)]
            assert is_groebner_basis(basis + extra).ok

    def test_chain_criterion_counts(self, monkeypatch):
        # Pairs walked or reduced on G u M(n), n = 4, 5, 6, out of
        # 134 / 440 / 1,311 pairs the certificate reaches; only they count
        # against the budget, and a cap one below that count raises.
        calls = _count_units(monkeypatch)
        for n, reduced in ((4, 71), (5, 158), (6, 325)):
            G = G_union_M(n)
            calls.clear()
            budget = Budget()
            assert is_groebner_basis(G, budget=budget).ok
            assert budget.pairs == len(calls) == reduced
            with pytest.raises(BudgetExceeded):
                is_groebner_basis(G, budget=Budget(max_pairs=reduced - 1))

    def test_skipped_pair_before_the_witness(self, monkeypatch):
        # The walk passes (2, 4), skips (1, 4) by k = 2, then fails at
        # (2, 3), the first failing pair in (lcm, i, j) order.
        polys = _skipped_before_the_witness()
        x1 = polys[0].ring.x(1)
        calls, divisions = _count_units(monkeypatch), _count_divisions(monkeypatch)
        budget = Budget()
        cert = is_groebner_basis(polys, budget=budget)
        assert not cert.ok and cert.witness == (2, 3)
        # The certificate's two reductions, and the exact division of the
        # witness in `divide`'s own loop.
        assert len(calls) == 2
        assert len(divisions) == 1
        # The two coprime pairs and the skipped (1, 4) are free; the
        # reduced (2, 4) and (2, 3) count.
        assert budget.pairs == 2
        with pytest.raises(BudgetExceeded):
            is_groebner_basis(polys, budget=Budget(max_pairs=1))
        assert cert.remainder == -27 * x1
        assert cert.remainder == divide(s_polynomial(polys[1], polys[2]), polys).remainder

    def test_expired_deadline_stops_the_pair_build(self):
        # The deadline is checked once per element while the pairs are
        # built, before the first pair is walked.
        budget = Budget(timeout_secs=0)
        with pytest.raises(BudgetExceeded, match="timeout"):
            is_groebner_basis(G_union_M(8), budget=budget)
        assert budget.pairs == 0

    def test_budget_counts_reduced_pairs(self):
        # Every reduced pair counts; monomial-monomial, coprime and skipped
        # pairs are never reduced and cost nothing.
        for G, reduced in ((set_G(4), 13), (G_union_M(4), 71)):
            budget = Budget()
            assert is_groebner_basis(G, budget=budget).ok
            assert budget.pairs == reduced < len(G) * (len(G) - 1) // 2
            with pytest.raises(BudgetExceeded):
                is_groebner_basis(G, budget=Budget(max_pairs=reduced - 1))

    def test_one_unit_per_reduction(self, monkeypatch):
        # A certificate charges one unit per S-polynomial it reduces or
        # follows by a two-term walk; a failing one also divides its
        # witness exactly, uncharged.
        calls, divisions = _count_units(monkeypatch), _count_divisions(monkeypatch)
        for polys in (G_union_M(4), G_union_M(5), G_union_M(6),
                      _skipped_before_the_witness()):
            calls.clear()
            divisions.clear()
            budget = Budget()
            cert = is_groebner_basis(polys, budget=budget)
            assert budget.pairs == len(calls)
            assert len(divisions) == (not cert.ok)

    def test_cap_of_the_walked_pairs_passes_n10(self):
        # G u M(10) has 2,586 elements and 3,342,405 pairs, past the default
        # cap; its walk reduces 6,373 of them.
        G = G_union_M(10)
        budget = Budget(max_pairs=6_373)
        assert is_groebner_basis(G, budget=budget).ok
        assert budget.pairs == 6_373


class TestMembershipPredicates:
    def test_member_pinned(self):
        R = standard_ring(4)
        a4 = gens_a(4)
        m13 = R.from_monomial(m_ij(4, 1, 3))
        assert member(m13 * delta(1, 2, 4), a4)
        assert not member(R.x(1), a4)
        assert member(R.zero, a4)

    def test_normal_form_iff_member(self, rng):
        # The normal form is the remainder on division by the reduced basis.
        R = Ring(2)
        gens = [random_nonzero_poly(R, rng, terms=2) for _ in range(2)]
        I = Ideal(R, gens)
        for _ in range(40):
            f = random_poly(R, rng)
            assert (divide(f, I.groebner()).remainder == R.zero) == member(f, I)

    def test_combination_is_member(self, rng):
        R = standard_ring(4)
        I = gens_a(4)
        for _ in range(20):
            f = sum((random_poly(R, rng, terms=2) * g for g in I.gens), R.zero)
            assert member(f, I)

    def test_ideal_equal(self, rng):
        R = standard_ring(4)
        I = minors_ideal(4)
        assert ideal_equal(I, I)
        J = Ideal(R, list(I.gens) + [R.x(2) * delta(1, 3, 4)])
        assert ideal_equal(I, J)
        assert not ideal_equal(I, gens_a(4))
        # ideal_equal compares cached bases as tuples, which holds because
        # every cached basis is THE reduced basis in descending order: a
        # shuffled reduced basis and G, a Groebner basis that is not
        # reduced, each generate (g_1..g_4).
        shuffled = list(gens_a(4).groebner())
        rng.shuffle(shuffled)
        assert shuffled != list(gens_a(4).groebner())
        for gens in (shuffled, set_G(4)):
            assert ideal_equal(Ideal(R, gens), gens_a(4))
            assert ideal_equal(gens_a(4), Ideal(R, gens))

    def test_initial_ideal_of_minors(self):
        # The minors form a Groebner basis; the leading monomials of the
        # reduced basis are the squarefree staircase.
        R = standard_ring(4)
        init = {f.terms[0].mono for f in minors_ideal(4).groebner()}
        expected = {(R.x(j) * R.y(i)).terms[0].mono for i in range(1, 5)
                    for j in range(i + 1, 5)}
        assert init == expected
        assert all(m.is_squarefree() for m in init)

    def test_repeated_calls_agree_with_a_fresh_ideal(self, rng):
        # member calls on one Ideal share its first-divisor memo; a fresh
        # Ideal per call starts with an empty one.
        R = standard_ring(4)
        I = gens_a(4)
        polys = [random_poly(R, rng, terms=3) for _ in range(15)]
        polys += [f * g for f, g in zip(polys, I.gens)]
        for _ in range(2):
            for f in polys:
                assert member(f, I) == member(f, Ideal(R, I.gens))
        assert I._divisors.memo


class TestWellDefinedness:
    def test_initial_ideal_independent_of_generators(self):
        # Same ideal through different generating sets: identical staircase.
        R = standard_ring(4)
        a = gens_a(4).groebner()
        b = Ideal(R, set_G(4)).groebner()
        assert {f.terms[0].mono for f in a} == {f.terms[0].mono for f in b}

    def test_normal_form_independent_of_basis_order(self, rng):
        # The remainder on division by a Groebner basis does not depend on
        # the order of its divisors.
        R = standard_ring(4)
        basis = list(gens_a(4).groebner())
        shuffled = basis[:]
        rng.shuffle(shuffled)
        for _ in range(20):
            f = random_poly(R, rng)
            assert divide(f, basis).remainder == divide(f, shuffled).remainder


class TestAgainstSympyOracle:
    """Independent recomputation of reduced bases by a foreign engine."""

    sympy = pytest.importorskip("sympy")

    def _canonical_sets(self, ring, mine, theirs_exprs):
        sympy = self.sympy
        syms = sympy.symbols(ring.names)
        ns = dict(zip(ring.names, syms))

        def canon(expr):
            # sympy normalizes over ZZ (primitive), we normalize monic.
            lc = sympy.Poly(expr, *syms).LC(order="grevlex")
            return sympy.expand(expr / lc)

        to_sympy = lambda f: sympy.sympify(str(f).replace("^", "**"), ns)
        return ({canon(to_sympy(g)) for g in mine},
                {canon(e) for e in theirs_exprs})

    def test_reduced_basis_matches(self, rng):
        sympy = self.sympy
        R = Ring(2)
        syms = sympy.symbols(R.names)
        ns = dict(zip(R.names, syms))
        to_sympy = lambda f: sympy.sympify(str(f).replace("^", "**"), ns)
        for _ in range(12):
            gens = [random_nonzero_poly(R, rng, terms=3, max_exp=2)
                    for _ in range(rng.randint(1, 3))]
            mine = reduced_groebner_basis(gens)
            theirs = sympy.groebner([to_sympy(g) for g in gens],
                                    *syms, order="grevlex")
            got, expected = self._canonical_sets(R, mine, theirs.exprs)
            assert got == expected

    def test_normal_form_matches(self, rng):
        # The remainder against a Groebner basis is unique, so it must agree
        # with sympy's division by sympy's own reduced basis.
        sympy = self.sympy
        R = Ring(2)
        syms = sympy.symbols(R.names)
        ns = dict(zip(R.names, syms))
        to_sympy = lambda f: sympy.sympify(str(f).replace("^", "**"), ns)
        for _ in range(8):
            gens = [random_nonzero_poly(R, rng, terms=3, max_exp=2)
                    for _ in range(rng.randint(1, 3))]
            I = Ideal(R, gens)
            theirs = sympy.groebner([to_sympy(g) for g in gens],
                                    *syms, order="grevlex")
            for _ in range(5):
                f = random_poly(R, rng, terms=6, max_exp=3)
                _, expected = sympy.reduced(to_sympy(f), theirs.exprs, *syms,
                                            order="grevlex")
                got = divide(f, I.groebner()).remainder
                assert sympy.expand(to_sympy(got) - expected) == 0

    def test_family_basis_matches(self):
        sympy = self.sympy
        R = standard_ring(4)
        syms = sympy.symbols(R.names)
        ns = dict(zip(R.names, syms))
        to_sympy = lambda f: sympy.sympify(str(f).replace("^", "**"), ns)
        mine = reduced_groebner_basis(gens_a(4).gens)
        theirs = sympy.groebner([to_sympy(g) for g in gens_a(4).gens],
                                *syms, order="grevlex")
        got, expected = self._canonical_sets(R, mine, theirs.exprs)
        assert got == expected


class TestMinimalGenerators:
    def test_pinned(self):
        R = standard_ring(4)
        x = R.x(1)
        assert minimal_generators(Ideal(R, [x, x ** 2])) == (x,)

    def test_minors_already_minimal(self):
        assert len(minimal_generators(minors_ideal(5))) == 10

    def test_degree_multiset_is_invariant(self, rng):
        R = standard_ring(4)
        gens = list(minors_ideal(4).gens)
        bloated = gens + [R.x(1) * gens[0] + R.y(2) * gens[3], R.z(1) * gens[2]]
        for _ in range(4):
            rng.shuffle(bloated)
            trimmed = minimal_generators(Ideal(R, bloated))
            assert sorted(g.total_degree() for g in trimmed) == [2] * 6

    def test_inhomogeneous_rejected(self):
        R = standard_ring(4)
        with pytest.raises(ValueError):
            minimal_generators(Ideal(R, [R.x(1) + R.one]))
