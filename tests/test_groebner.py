"""Division, S-polynomials, Buchberger, basis predicates."""

import pytest

from detlink.families import (G_union_M, delta, gens_a, m_ij, minors_ideal, set_G,
                              standard_ring)
from detlink.groebner import (Budget, BudgetExceeded, GBStats, Ideal,
                              divide, ideal_equal, initial_ideal, interreduce,
                              is_groebner_basis, is_squarefree_monomial_ideal,
                              member, minimal_generators, normal_form,
                              reduced_groebner_basis, s_polynomial)
from detlink.idealops import _embed
from detlink.rings import ELIM_BLOCK, MonomialOrder, Ring

from conftest import random_nonzero_poly, random_poly


def _intersection_input(fs, gs):
    """t*f and (1-t)*g in the elimination ring, as `intersect` builds them."""
    E = Ring(fs[0].ring.n, 1, ELIM_BLOCK)
    t = E.t(1)
    return ([t * _embed(f, E) for f in fs]
            + [(E.one - t) * _embed(g, E) for g in gs])


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
        key = R.order.key
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
                assert not any(lm.divides(m) for lm in lead_mons)
            top = key(h.terms[0].mono)
            for q, f in zip(quotients, divisors):
                if q:
                    assert key((q * f).terms[0].mono) <= top


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
    key = ring.order.key
    p = h.as_dict()
    quotients = [{} for _ in divisors]
    rem = {}
    while p:
        m = max(p, key=key)
        c = p.pop(m)
        for qd, f in zip(quotients, divisors):
            lc, lm = f.terms[0]
            if lm.divides(m):
                u = m.div(lm)
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
            assert computed == interreduce(set_G(n))
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
            gens = _intersection_input(fs, gs)
            assert (reduced_groebner_basis(gens, criteria=True)
                    == reduced_groebner_basis(gens, criteria=False))

    def test_criteria_equivalence_on_families(self):
        for n in (4, 5, 6):
            gens = gens_a(n).gens
            assert (reduced_groebner_basis(gens, criteria=True)
                    == reduced_groebner_basis(gens, criteria=False))
        gens = _intersection_input(gens_a(4).gens, minors_ideal(4).gens)
        assert (reduced_groebner_basis(gens, criteria=True)
                == reduced_groebner_basis(gens, criteria=False))

    def test_budget_exceeded(self):
        budget = Budget(max_pairs=2)
        with pytest.raises(BudgetExceeded):
            reduced_groebner_basis(gens_a(4).gens, budget=budget)

    def test_expired_deadline_stops_one_long_reduction(self):
        # The basis is cached, so no pair is ever counted: only the kernel's
        # deadline check, every 32 reduction steps, can stop this call.
        R = Ring(2)
        x1, x2 = R.x(1), R.x(2)
        I = Ideal.with_basis(R, [x1 - x2], (x1 - x2,))
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

    def test_foreign_order_rejected(self):
        # Polynomials keep their terms in the ring's order, so a different
        # order would silently pick wrong leading terms.
        R = Ring(2, 1)
        E = MonomialOrder(R.space, ELIM_BLOCK)
        x1, x2, t1 = R.x(1), R.x(2), R.t(1)
        f, g = x1 ** 2 + t1, t1 * x2 + x1
        with pytest.raises(ValueError):
            divide(t1 * x2, [f], E)
        with pytest.raises(ValueError):
            s_polynomial(f, g, E)
        with pytest.raises(ValueError):
            reduced_groebner_basis([f, g], E)
        with pytest.raises(ValueError):
            interreduce([f, g], E)
        with pytest.raises(ValueError):
            is_groebner_basis([f, g], E)
        assert divide(t1 * x2, [f], R.order) == divide(t1 * x2, [f])

    def test_cross_ring_input_rejected(self):
        # Ring(2) into Ring(3) used to fail in the packing; Ring(2, 1) into
        # its elimination twin, same variable count, used to answer.
        R2, R3 = Ring(2), Ring(3)
        P, E = Ring(2, 1), Ring(2, 1, ELIM_BLOCK)
        for f, g in ((R2.x(1), R3.x(1)), (P.t(1), E.t(1))):
            I = Ideal(g.ring, [g])
            for call in (lambda: member(f, I), lambda: normal_form(f, I),
                         lambda: member(f.ring.zero, I),
                         lambda: divide(f, [g]), lambda: divide(g, [f]),
                         lambda: reduced_groebner_basis([g, f]),
                         lambda: is_groebner_basis([g, f]),
                         lambda: interreduce([g, f])):
                with pytest.raises(ValueError, match="expected Ring"):
                    call()
        assert member(E.t(1), Ideal(E, [E.t(1)]))

    def test_ideal_wrapper_caches(self):
        I = gens_a(4)
        assert not I.has_cached_basis()
        basis = I.groebner()
        assert I.has_cached_basis()
        assert I.groebner() is basis
        assert basis == reduced_groebner_basis(I.gens)

    def test_membership_packs_the_basis_once(self, monkeypatch):
        # member and normal_form share the ideal's packed divisor list, so
        # after the first call only the argument is converted.
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
        assert not normal_form(basis[0], I)
        assert len(calls) == 2 * len(basis) + 1
        assert I.has_cached_basis()
        fresh = Ideal(I.ring, I.gens)
        assert member(basis[0], fresh) and fresh.has_cached_basis()

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
                assert all(not lm.divides(m) for lm in others
                           for _, m in b.terms)
            fresh = Ideal(R, I.gens)
            assert all(member(b, fresh) for b in basis)
            from_basis = Ideal(R, basis)
            assert all(member(g, from_basis) for g in I.gens)


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

    def test_budget_counts_every_pair(self):
        # Skipped pairs (monomial-monomial or coprime) count as well, all at
        # once before any reduction.
        for G in (set_G(4), G_union_M(4)):
            total = len(G) * (len(G) - 1) // 2
            budget = Budget()
            assert is_groebner_basis(G, budget=budget).ok
            assert budget.pairs == total
            with pytest.raises(BudgetExceeded):
                is_groebner_basis(G, budget=Budget(max_pairs=total - 1))


class TestMembershipPredicates:
    def test_member_pinned(self):
        R = standard_ring(4)
        a4 = gens_a(4)
        m13 = R.from_monomial(m_ij(4, 1, 3))
        assert member(m13 * delta(1, 2, 4), a4)
        assert not member(R.x(1), a4)
        assert member(R.zero, a4)

    def test_normal_form_iff_member(self, rng):
        R = Ring(2)
        gens = [random_nonzero_poly(R, rng, terms=2) for _ in range(2)]
        I = Ideal(R, gens)
        for _ in range(40):
            f = random_poly(R, rng)
            assert (normal_form(f, I) == R.zero) == member(f, I)

    def test_combination_is_member(self, rng):
        R = standard_ring(4)
        I = gens_a(4)
        for _ in range(20):
            f = sum((random_poly(R, rng, terms=2) * g for g in I.gens), R.zero)
            assert member(f, I)

    def test_ideal_equal(self):
        R = standard_ring(4)
        I = minors_ideal(4)
        assert ideal_equal(I, I)
        J = Ideal(R, list(I.gens) + [R.x(2) * delta(1, 3, 4)])
        assert ideal_equal(I, J)
        assert not ideal_equal(I, gens_a(4))

    def test_initial_ideal_of_minors(self):
        # The minors form a Groebner basis; initial ideal is the staircase.
        R = standard_ring(4)
        init = initial_ideal(minors_ideal(4))
        expected = {(R.x(j) * R.y(i)).terms for i in range(1, 5)
                    for j in range(i + 1, 5)}
        assert {g.terms for g in init.gens} == expected
        assert is_squarefree_monomial_ideal(init)

    def test_squarefree_detection(self):
        R = standard_ring(4)
        assert is_squarefree_monomial_ideal(Ideal(R, [R.x(1) * R.y(2)]))
        assert not is_squarefree_monomial_ideal(Ideal(R, [R.x(1) ** 2]))
        # Not monomial at all:
        assert not is_squarefree_monomial_ideal(Ideal(R, [R.x(1) + R.y(1)]))

    def test_repeated_calls_agree_with_a_fresh_ideal(self, rng):
        # member and normal_form on one Ideal share its first-divisor memo;
        # a fresh Ideal per call starts with an empty one.
        R = standard_ring(4)
        I = gens_a(4)
        polys = [random_poly(R, rng, terms=3) for _ in range(15)]
        polys += [f * g for f, g in zip(polys, I.gens)]
        for _ in range(2):
            for f in polys:
                assert normal_form(f, I) == normal_form(f, Ideal(R, I.gens))
                assert member(f, I) == member(f, Ideal(R, I.gens))
        assert I._divisors.memo


class TestWellDefinedness:
    def test_initial_ideal_independent_of_generators(self):
        # Same ideal through different generating sets: identical staircase.
        R = standard_ring(4)
        a = initial_ideal(gens_a(4))
        b = initial_ideal(Ideal(R, set_G(4)))
        assert {g.terms for g in a.gens} == {g.terms for g in b.gens}

    def test_normal_form_independent_of_basis_order(self, rng):
        R = standard_ring(4)
        basis = list(gens_a(4).groebner())
        I = Ideal.with_basis(R, basis, tuple(basis))
        shuffled = basis[:]
        rng.shuffle(shuffled)
        J = Ideal.with_basis(R, shuffled, tuple(shuffled))
        for _ in range(20):
            f = random_poly(R, rng)
            assert normal_form(f, I) == normal_form(f, J)


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
                assert sympy.expand(to_sympy(normal_form(f, I)) - expected) == 0

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
