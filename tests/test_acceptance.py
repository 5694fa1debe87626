"""Acceptance suite: one test per criterion, exact equalities throughout.

Every expected value is either a frozen hand derivation, a certified
Groebner computation, or an independent oracle recomputation; timing
targets are asserted where stated.
"""

import itertools
import random
import time
import detlink.families as fam
from detlink.checks import (_random_qualifying_binomials, check_identities,
                            check_random_specialization, run_checks)
from detlink.graphs import verify_res_int
from detlink.groebner import (Budget, Ideal, _polynomials, divide,
                              ideal_equal, is_groebner_basis, member,
                              minimal_generators, reduced_groebner_basis,
                              s_polynomial)
from detlink.idealops import dimension, height, intersect, quotient, sum_ideals
from detlink.rings import Ring

from conftest import random_nonzero_poly, random_poly
from reference import divides, groebner_basis_ideal, support, xyz_monomial
from test_idealops import exhaustive_monomial_dimension


def _report(number: int, label: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2} [{label}]: {verdict} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_groebner_certificate_of_family_basis():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5, 6, 7):
        ok = ok and is_groebner_basis(fam.set_G(n)).ok
    for n, bound in ((4, 5.0), (5, 120.0)):
        t_n = time.perf_counter()
        computed = reduced_groebner_basis(fam.gens_a(n).gens)
        ok = ok and computed == groebner_basis_ideal(
            fam.standard_ring(n), fam.set_G(n)).groebner()
        ok = ok and (time.perf_counter() - t_n) < bound
    _report(1, "family basis certificate + recomputation", ok,
            time.perf_counter() - t0)


def test_criterion_02_groebner_certificate_of_sum_basis():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5, 6):
        ok = ok and is_groebner_basis(fam.G_union_M(n)).ok
    t7 = time.perf_counter()
    ok = ok and is_groebner_basis(fam.G_union_M(7)).ok
    ok = ok and (time.perf_counter() - t7) < 60.0
    _report(2, "sum-of-links basis certificate n=4..7", ok,
            time.perf_counter() - t0)


def test_criterion_03_each_link_equals_monomial_description():
    t0 = time.perf_counter()
    I = fam.minors_ideal(4)
    ok = True
    for i in range(1, 5):
        Q = quotient(fam.sub_a(4, i), I)
        ok = ok and ideal_equal(Q, fam.link_ideal(4, i))
    _report(3, "links via colon at n=4", ok, time.perf_counter() - t0)


def test_criterion_04_sum_of_links_equals_colon():
    t0 = time.perf_counter()
    ok = ideal_equal(quotient(fam.gens_a(4), fam.minors_ideal(4)),
                     fam.sum_links_ideal(4))
    # Cheap containment direction for every n <= 7.
    for n in (4, 5, 6, 7):
        ring = fam.standard_ring(n)
        a_full = groebner_basis_ideal(ring, fam.set_G(n))
        minors = fam.minors_ideal(n).gens
        for i in range(1, n + 1):
            for mono in fam.M_polys(n, i):
                ok = ok and all(member(mono * d, a_full) for d in minors)
    _report(4, "colon equals sum of links + containment n<=7", ok,
            time.perf_counter() - t0)


def test_criterion_05_chain_link_generators():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5):
        chain, link = fam.chain_link(n)
        Q = quotient(chain, fam.minors_ideal(n))
        ok = ok and ideal_equal(Q, link)
        degrees = sorted(g.total_degree() for g in minimal_generators(Q))
        ok = ok and degrees == sorted([2] * (n - 1) + [n - 2] * (n - 1))
    _report(5, "chain link generators and degree multiset n=4,5", ok,
            time.perf_counter() - t0)


def test_criterion_06_heights():
    t0 = time.perf_counter()
    ok = all(height(fam.chain_ideal(n)) == n - 1 for n in (4, 5))
    ok = ok and verify_res_int(4)
    minors = fam.minors_ideal(4)
    for i in range(1, 5):
        ok = ok and height(sum_ideals(minors, fam.link_ideal(4, i))) >= 4
    _report(6, "regular sequence, residual and geometric heights", ok,
            time.perf_counter() - t0)


def test_criterion_07_sum_of_links_is_reduced():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5):
        basis = fam.sum_links_ideal(n).groebner()
        ok = ok and all(f.terms[0].mono.is_squarefree() for f in basis)
    _report(7, "squarefree initial ideal n=4,5", ok, time.perf_counter() - t0)


def test_criterion_08_automorphism_tables():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 9):
        chain = {fam.delta(t, t + 1, n).monic().terms for t in range(1, n)}
        for case_i in range(1, n + 1):
            t_case = time.perf_counter()
            perm = fam.phi_permutation(n, case_i)
            images = {
                fam.apply_permutation(
                    perm, fam.delta(*fam.minor_pair(n, k), n)).monic().terms
                for k in range(1, n + 1) if k != case_i}
            ok = ok and images == chain
            ok = ok and (time.perf_counter() - t_case) < 1.0
    _report(8, "automorphism tables n=4..8, all cases", ok,
            time.perf_counter() - t0)


def test_criterion_09_identity_suite():
    t0 = time.perf_counter()
    ok = True
    # Exhaustive containment of X_K Y_L delta(i,j) in the chain for n <= 6.
    for n in (4, 5, 6):
        ring = fam.standard_ring(n)
        chain = fam.chain_ideal(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                window = list(range(i + 1, j))
                for r in range(len(window) + 1):
                    for K in itertools.combinations(window, r):
                        L = [v for v in window if v not in K]
                        mono = xyz_monomial(ring, xs=K, ys=L)
                        f = ring.from_monomial(mono) * fam.delta(i, j, n)
                        ok = ok and member(f, chain)
    # Telescoping identities and chain recurrences, exactly, for n <= 7;
    # the identities check also re-verifies the leading-term bounds.
    rng = random.Random("acceptance/identities")
    for n in (4, 5, 6, 7):
        status, witness = check_identities(n, rng, Budget())
        ok = ok and status == "pass"
    # Binomial S-pair reduction on 500 qualifying random pairs, drawn as
    # packed prims and divided as Polynomials.
    ring = fam.standard_ring(4)
    rng = random.Random("acceptance/binomial-pairs")
    for _ in range(500):
        f, g = _polynomials(ring, _random_qualifying_binomials(ring, rng))
        ok = ok and not divide(s_polynomial(f, g), [f, g]).remainder
    _report(9, "identity suite", ok, time.perf_counter() - t0)


def test_criterion_10_randomized_specialization_probe():
    t0 = time.perf_counter()
    rng = random.Random("acceptance/main-probe")
    status, witness = check_random_specialization(4, rng, Budget())
    ok = status == "pass" and witness is None
    _report(10, "randomized specialization probe, 5 matrices at n=4", ok,
            time.perf_counter() - t0)


def test_criterion_11_oracle_equivalences():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random("acceptance/oracles")
    # Division contract on 10^3 random samples.
    R = Ring(2)
    for _ in range(1000):
        h = random_nonzero_poly(R, rng, terms=5)
        divisors = [random_nonzero_poly(R, rng, terms=3)
                    for _ in range(rng.randint(1, 3))]
        quotients, rem = divide(h, divisors)
        rebuilt = rem
        for q, f in zip(quotients, divisors):
            rebuilt = rebuilt + q * f
        ok = ok and rebuilt == h
        lead = [f.terms[0].mono for f in divisors]
        ok = ok and all(not any(divides(lm, m) for lm in lead)
                        for _, m in rem.terms)
        top = h.terms[0].mono.key
        ok = ok and all((q * f).terms[0].mono.key <= top
                        for q, f in zip(quotients, divisors) if q)
    # Intersection vs membership conjunction, 50 probes per ideal pair.
    pairs = [
        (Ideal(R, [R.x(1) * R.y(1), R.x(2) ** 2]), Ideal(R, [R.x(1) ** 2])),
        (Ideal(R, [fam.delta(1, 2, 2)]), Ideal(R, [R.z(1), R.x(1) * R.y(2)])),
        (Ideal(R, [R.x(1) + R.y(1), R.z(2)]), Ideal(R, [R.x(1) - R.y(2)])),
    ]
    for I, J in pairs:
        W = intersect(I, J)
        for k in range(50):
            p = random_poly(R, rng, terms=3)
            if k % 3 == 1 and I.gens:
                p = p * I.gens[k % len(I.gens)]
            elif k % 3 == 2 and W.gens:
                p = p * W.gens[k % len(W.gens)]
            ok = ok and member(p, W) == (member(p, I) and member(p, J))
    # Monomial dimension vs exhaustive subset search on <= 6 variables.
    for _ in range(100):
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
        ok = ok and dimension(I) == exhaustive_monomial_dimension(supports, 6)
    _report(11, "division/intersection/dimension oracles", ok,
            time.perf_counter() - t0)


def test_full_check_run_passes_at_n4():
    # End-to-end: the CLI-level registry agrees with the criteria above.
    reports = run_checks(4, ["gb-a", "gb-sum", "links", "section2",
                             "sum-equals-colon", "heights", "automorphisms",
                             "reduced"], seed=1)
    assert all(r.status == "pass" for r in reports)
