"""Named verification checks with budgets, seeds and reproducible reports.

Each check re-derives one of the verified facts at a given width n and
reports pass/fail with a witness on failure. Verdicts and witnesses are
deterministic for a fixed (n, selection, seed, budget); elapsed times are
measured and therefore not part of the reproducibility contract.

The widest n at which a whole check runs lives in one table, WIDTHS; past
its width a check is reported as skipped. Budgets bound the cost of a check
but never decide whether it runs. Gates on single steps inside a check,
such as the full colon equality of sum-equals-colon, stay in the check
itself.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import families as fam
from .graphs import verify_res_int
from .groebner import (Budget, BudgetExceeded, GBStats, Ideal, divide,
                       ideal_equal, initial_ideal, interreduce,
                       is_groebner_basis, is_squarefree_monomial_ideal, member,
                       minimal_generators, reduced_groebner_basis, s_polynomial)
from .idealops import height, quotient, sum_ideals
from .rings import Monomial, Polynomial, Ring

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
BUDGET = "budget-exceeded"
SKIPPED = "skipped"


@dataclass
class CheckReport:
    name: str
    n: int
    status: str
    elapsed_ms: float
    witness: Optional[str]
    seed: int
    max_pairs: int
    timeout_secs: Optional[float]

    def to_json_obj(self, include_timing: bool = True) -> dict:
        obj = {"name": self.name, "status": self.status}
        if include_timing:
            obj["elapsed_ms"] = round(self.elapsed_ms, 3)
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


def report_document(reports: Sequence[CheckReport], n: int, seed: int,
                    include_timing: bool = True) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "seed": seed,
        "checks": [r.to_json_obj(include_timing) for r in reports],
    }


def report_json(reports: Sequence[CheckReport], n: int, seed: int,
                include_timing: bool = True) -> str:
    return json.dumps(report_document(reports, n, seed, include_timing),
                      indent=2, sort_keys=True)


# -- individual checks -------------------------------------------------------
# Each check returns (status, witness) and may raise BudgetExceeded.


def _fmt(f: Polynomial) -> str:
    return f.ring.format(f)


def check_gb_a(n: int, rng: random.Random,
               budget: Budget) -> tuple[str, Optional[str]]:
    """Certificate that the extended generator set is a Groebner basis of
    (g_1..g_n); for n <= 5 the basis is additionally recomputed from the
    bare generators and compared."""
    G = fam.set_G(n)
    cert = is_groebner_basis(G, budget=budget)
    if not cert.ok:
        return FAIL, (f"S-pair {cert.witness} of the candidate set leaves "
                      f"remainder {_fmt(cert.remainder)}")
    if n <= 5:
        computed = reduced_groebner_basis(fam.gens_a(n).gens, budget=budget)
        expected = interreduce(G)
        if computed != expected:
            return FAIL, "recomputed reduced basis differs from the candidate set"
    return PASS, None


def check_gb_sum(n: int, rng: random.Random,
                 budget: Budget) -> tuple[str, Optional[str]]:
    """Certificate that G plus every attached monomial set is a Groebner
    basis of the sum of the n links."""
    cert = is_groebner_basis(fam.G_union_M(n), budget=budget)
    if not cert.ok:
        return FAIL, (f"S-pair {cert.witness} leaves remainder "
                      f"{_fmt(cert.remainder)}")
    return PASS, None


def check_links(n: int, rng: random.Random,
                budget: Budget) -> tuple[str, Optional[str]]:
    """Colon computation of each link equals its monomial description."""
    I = fam.minors_ideal(n)
    for i in range(1, n + 1):
        Q = quotient(fam.sub_a(n, i), I, budget)
        C = fam.link_ideal(n, i)
        if not ideal_equal(Q, C, budget):
            return FAIL, f"link {i}: colon ideal differs from the monomial description"
    return PASS, None


def check_section2(n: int, rng: random.Random,
                   budget: Budget) -> tuple[str, Optional[str]]:
    """Link of the consecutive-minor chain: colon equality and the
    minimal-generator degree multiset (n-1 quadrics, n-1 of degree n-2)."""
    chain, link = fam.chain_link(n)
    Q = quotient(chain, fam.minors_ideal(n), budget)
    if not ideal_equal(Q, link, budget):
        return FAIL, "colon of the chain differs from chain + canonical monomials"
    degrees = sorted(g.total_degree() for g in minimal_generators(Q, budget))
    expected = sorted([2] * (n - 1) + [n - 2] * (n - 1))
    if degrees != expected:
        return FAIL, f"minimal generator degrees {degrees} != {expected}"
    return PASS, None


def check_sum_equals_colon(n: int, rng: random.Random,
                           budget: Budget) -> tuple[str, Optional[str]]:
    """Containment of every monomial-times-minor in (g_1..g_n), plus the
    full colon equality with the sum of links for n <= 5."""
    ring = fam.standard_ring(n)
    G = fam.set_G(n)
    cert = is_groebner_basis(G, budget=budget)
    if not cert.ok:
        return FAIL, "extended generator set failed its own certificate"
    a_full = Ideal.with_basis(ring, fam.gens_a(n).gens, interreduce(G))
    minors = fam.minors_ideal(n)
    for i in range(1, n + 1):
        for m in fam.M_set(n, i):
            mono = ring.from_monomial(m)
            for d in minors.gens:
                if not member(mono * d, a_full, budget):
                    return FAIL, (f"containment fails: ({_fmt(mono)}) * "
                                  f"({_fmt(d)}) is not in the full family")
    if n > 5:
        return PASS, None
    Q = quotient(a_full, minors, budget)
    if not ideal_equal(Q, fam.sum_links_ideal(n), budget):
        return FAIL, "colon of the full family differs from the sum of links"
    return PASS, None


def check_heights(n: int, rng: random.Random,
                  budget: Budget) -> tuple[str, Optional[str]]:
    """Height facts: the chain is a regular sequence of length n-1, the
    full family is a residual intersection, and every link is geometric."""
    h = height(fam.chain_ideal(n), budget)
    if h != n - 1:
        return FAIL, f"height of the chain is {h}, expected {n - 1}"
    if not verify_res_int(n, budget):
        return FAIL, "height(J_n + (g_n)) < n or the avoidance replay failed"
    if n <= 5:
        minors = fam.minors_ideal(n)
        for i in range(1, n + 1):
            hi = height(sum_ideals(minors, fam.link_ideal(n, i)), budget)
            if hi < n:
                return FAIL, f"height(I + J_{i}) = {hi} < {n}"
    return PASS, None


def check_automorphisms(n: int, rng: random.Random,
                        budget: Budget) -> tuple[str, Optional[str]]:
    """Each omitted-generator family maps onto the consecutive chain, up to
    sign, under its index automorphism."""
    target = {fam.delta(t, t + 1, n).monic().terms for t in range(1, n)}
    for case_i in range(1, n + 1):
        perm = fam.phi_permutation(n, case_i)
        images = set()
        for k in range(1, n + 1):
            if k == case_i:
                continue
            a, b = fam.minor_pair(n, k)
            images.add(fam.apply_permutation(perm, fam.delta(a, b, n)).monic().terms)
        if images != target:
            return FAIL, f"case {case_i}: images do not cover the chain"
    return PASS, None


def _telescoping_first(n: int, i: int, j: int, ring: Ring,
                       g1: dict) -> tuple[Polynomial, list[Polynomial], Monomial]:
    lhs_coeff = fam.xyz_monomial(ring,
                                 xs=[v for v in range(1, j) if v != i],
                                 zs=range(1, j))
    lhs = ring.from_monomial(lhs_coeff) * fam.delta(j, i, n)
    summands = []
    for k in range(i, j):
        c = fam.xyz_monomial(ring, xs=range(k + 2, j + 1), zs=range(k + 1, j))
        summands.append(ring.from_monomial(c) * g1[k])
    lead = fam.xyz_monomial(ring, xs=[v for v in range(1, j + 1) if v != i],
                            ys=[i], zs=range(1, j))
    return lhs, summands, lead


def _telescoping_second(n: int, i: int, j: int, ring: Ring,
                        g2: dict) -> tuple[Polynomial, list[Polynomial], Monomial]:
    lhs_coeff = fam.xyz_monomial(ring,
                                 ys=[v for v in range(j + 1, n + 1) if v != i],
                                 zs=range(j + 1, n + 1))
    lhs = ring.from_monomial(lhs_coeff) * fam.delta(i, j, n)
    summands = []
    for k in range(j + 1, i + 1):
        c = fam.xyz_monomial(ring, ys=range(j, k - 1), zs=range(j + 1, k))
        summands.append(ring.from_monomial(c) * g2[k])
    lead = fam.xyz_monomial(ring, xs=[i],
                            ys=[v for v in range(j, n + 1) if v != i],
                            zs=range(j + 1, n + 1))
    return lhs, summands, lead


def _random_qualifying_binomials(ring: Ring, rng: random.Random):
    """Binomial pair whose leading-monomial gcd divides both trailing terms."""
    nv = ring.space.nvars
    key = ring.order.key

    def mono():
        vec = [0] * nv
        for _ in range(rng.randint(1, 3)):
            vec[rng.randrange(nv)] += 1
        return ring.monomial(vec)

    while True:
        c = mono()
        u1, v1 = mono(), mono()
        if not u1.is_coprime(v1):
            continue
        u2, v2 = mono(), mono()
        cf = Fraction(rng.choice([1, 2, 3, -1, -2]))
        cg = Fraction(rng.choice([1, 2, 3, -1, -2]))
        f = ring.poly({c.mul(u1): Fraction(1), c.mul(u2): -cf})
        g = ring.poly({c.mul(v1): Fraction(1), c.mul(v2): -cg})
        if len(f.terms) != 2 or len(g.terms) != 2:
            continue
        if f == g:
            continue
        if key(f.terms[0].mono) != key(c.mul(u1)) or key(g.terms[0].mono) != key(c.mul(v1)):
            continue
        gcd = f.terms[0].mono.gcd(g.terms[0].mono)
        if gcd.divides(f.terms[1].mono) and gcd.divides(g.terms[1].mono):
            return f, g


def check_identities(n: int, rng: random.Random,
                     budget: Budget) -> tuple[str, Optional[str]]:
    """Exact identity suite: exhaustive monomial-times-minor membership in
    the chain (n <= 6), both telescoping identities with their leading-term
    bounds, the corrected chain recurrences, and the binomial S-pair
    reduction property on random qualifying pairs."""
    ring = fam.standard_ring(n)
    key = ring.order.key
    if n <= 6:
        chain = fam.chain_ideal(n)
        chain.groebner(budget)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                window = list(range(i + 1, j))
                for r in range(len(window) + 1):
                    for K in itertools.combinations(window, r):
                        L = [v for v in window if v not in K]
                        mono = fam.xyz_monomial(ring, xs=K, ys=L)
                        f = ring.from_monomial(mono) * fam.delta(i, j, n)
                        if not member(f, chain, budget):
                            return FAIL, (f"X_K Y_L delta({i},{j}) escapes the "
                                          f"chain for K={K}")
    g1, g2 = fam.chain_g(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs, summands, lead = _telescoping_first(n, i, j, ring, g1)
            if sum(summands, ring.zero) != lhs:
                return FAIL, f"first telescoping identity fails at (i,j)=({i},{j})"
            if lhs.terms[0].mono != lead:
                return FAIL, f"leading monomial of first identity wrong at ({i},{j})"
            if any(key(s.terms[0].mono) > key(lead) for s in summands):
                return FAIL, f"summand exceeds leading monomial at ({i},{j})"
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            lhs, summands, lead = _telescoping_second(n, i, j, ring, g2)
            if sum(summands, ring.zero) != lhs:
                return FAIL, f"second telescoping identity fails at (i,j)=({i},{j})"
            if lhs.terms[0].mono != lead:
                return FAIL, f"leading monomial of second identity wrong at ({i},{j})"
            if any(key(s.terms[0].mono) > key(lead) for s in summands):
                return FAIL, f"summand exceeds leading monomial at ({i},{j})"
    for i in range(1, n - 1):
        lt = ring.from_monomial(
            fam.xyz_monomial(ring, xs=list(range(1, i)) + [i + 1], zs=range(1, i + 1)))
        rec = (lt * fam.g_generator(n, i + 1)
               - ring.z(i + 1) * ring.x(i + 2) * g1[i])
        if rec != g1[i + 1]:
            return FAIL, f"first chain recurrence fails at i={i}"
    for j in range(3, n + 1):
        lt = ring.from_monomial(
            fam.xyz_monomial(ring, ys=[j - 1] + list(range(j + 1, n + 1)),
                             zs=range(j, n + 1)))
        rec = (lt * fam.g_generator(n, j - 1)
               - ring.z(j - 1) * ring.y(j - 2) * g2[j])
        if rec != g2[j - 1]:
            return FAIL, f"second chain recurrence fails at j={j}"
    trials = 500 if n == 4 else 50
    for _ in range(trials):
        f, g = _random_qualifying_binomials(ring, rng)
        rem = divide(s_polynomial(f, g), [f, g]).remainder
        if rem:
            return FAIL, (f"S({_fmt(f)}, {_fmt(g)}) does not reduce to zero "
                          f"against the pair")
    return PASS, None


def check_reduced(n: int, rng: random.Random,
                  budget: Budget) -> tuple[str, Optional[str]]:
    """The initial ideal of the sum of links is squarefree (so the sum of
    links is reduced)."""
    init = initial_ideal(fam.sum_links_ideal(n), budget)
    if not is_squarefree_monomial_ideal(init, budget):
        return FAIL, "initial ideal of the sum of links is not squarefree"
    return PASS, None


def check_random_specialization(n: int, rng: random.Random,
                                budget: Budget) -> tuple[str, Optional[str]]:
    """Randomized probe: for surviving random integer matrices B, the colon
    of the specialized family equals the sum of the colons of its
    omitted-column subfamilies."""
    r = n * (n - 1) // 2
    matrices_checked = 0
    while matrices_checked < 5:
        accepted = None
        for _ in range(10):
            B = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(r)]
            aB, I = fam.generic_residual(n, B)
            Q = quotient(aB, I, budget)
            if height(Q, budget) == n:
                accepted = (B, aB, I, Q)
                break
        if accepted is None:
            return FAIL, "no random matrix passed the height filter in 10 draws"
        B, aB, I, Q = accepted
        parts = []
        for i in range(n):
            sub = Ideal(aB.ring, [aB.gens[k] for k in range(n) if k != i])
            parts.append(quotient(sub, I, budget))
        if not ideal_equal(Q, sum_ideals(*parts), budget):
            return FAIL, f"specialized colon differs from sum of links for B={B}"
        matrices_checked += 1
    return PASS, None


CHECKS: dict[str, Callable] = {
    "gb-a": check_gb_a,
    "gb-sum": check_gb_sum,
    "links": check_links,
    "section2": check_section2,
    "sum-equals-colon": check_sum_equals_colon,
    "heights": check_heights,
    "automorphisms": check_automorphisms,
    "identities": check_identities,
    "reduced": check_reduced,
    "random-specialization": check_random_specialization,
}

ALL_CHECKS = tuple(CHECKS)

# The widest n at which a check runs; a check not listed runs at every n.
WIDTHS: dict[str, int] = {
    "links": 5,
    "section2": 5,
    "sum-equals-colon": 7,
    "heights": 6,
    "reduced": 6,
    "random-specialization": 4,
}


def run_checks(n: int, selection: Iterable[str] | str = "all", seed: int = 0,
               max_pairs: Optional[int] = None,
               timeout_secs: Optional[float] = None,
               stretch: bool = False) -> list[CheckReport]:
    """Run the selected checks at width n with per-check fresh budgets.

    Selection is "all" or an iterable of check names; reports come back in
    the canonical registry order. A check at an n past its WIDTHS entry is
    reported as skipped. Each check draws randomness from its own seeded
    stream, so verdicts and witnesses are reproducible.

    `stretch` is ignored. It is still accepted because callers pass it,
    among them the colon-n5 workload of perfbench.
    """
    if n < 4:
        raise ValueError(f"checks need n >= 4, got {n}")
    if selection == "all":
        names = list(ALL_CHECKS)
    elif isinstance(selection, str):
        raise ValueError(f'selection must be "all" or a list of check names, '
                         f'not the string {selection!r}')
    else:
        names = list(selection)
        unknown = [s for s in names if s not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        names = [name for name in ALL_CHECKS if name in names]
        if not names:
            raise ValueError("no checks selected")
    reports = []
    for name in names:
        rng = random.Random(f"{seed}/{name}")
        budget = Budget(max_pairs, timeout_secs)
        width = WIDTHS.get(name, n)
        t0 = time.perf_counter()
        if n > width:
            status, witness = SKIPPED, f"runs for n <= {width}"
        else:
            try:
                status, witness = CHECKS[name](n, rng, budget)
            except BudgetExceeded as exc:
                status, witness = BUDGET, str(exc)
        elapsed = (time.perf_counter() - t0) * 1000.0
        reports.append(CheckReport(
            name=name, n=n, status=status, elapsed_ms=elapsed, witness=witness,
            seed=seed, max_pairs=budget.max_pairs, timeout_secs=timeout_secs))
    return reports


# -- benchmark rows ----------------------------------------------------------


def bench(n_min: int, n_max: int,
          max_pairs: Optional[int] = None,
          timeout_secs: Optional[float] = None) -> list[dict]:
    """Timing and pair-count rows for the scalable Groebner workloads."""
    if n_min < 4:
        raise ValueError(f"bench needs n_min >= 4, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"empty width range {n_min}..{n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        for task, gens, criteria in (
                ("gb-a", fam.gens_a(n).gens, True),
                ("gb-a-nocriteria", fam.gens_a(n).gens, False),
                ("gb-sum-links", fam.sum_links_ideal(n).gens, True)):
            stats = GBStats()
            budget = Budget(max_pairs, timeout_secs)
            t0 = time.perf_counter()
            status, basis = "ok", ()
            try:
                basis = reduced_groebner_basis(gens, budget=budget,
                                               criteria=criteria, stats=stats)
            except BudgetExceeded:
                status = BUDGET
            rows.append({
                "n": n, "task": task, "status": status,
                "pairs_processed": stats.pairs_processed,
                "discarded_coprime": stats.discarded_coprime,
                "discarded_chain": stats.discarded_chain,
                "zero_reductions": stats.zero_reductions,
                "basis_size": len(basis),
                "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
            })
        GM = fam.G_union_M(n)
        budget = Budget(max_pairs, timeout_secs)
        t0 = time.perf_counter()
        status = "ok"
        try:
            ok = is_groebner_basis(GM, budget=budget).ok
            if not ok:
                status = "fail"
        except BudgetExceeded:
            status = BUDGET
        rows.append({
            "n": n, "task": "certificate-G-M", "status": status,
            "pairs_processed": budget.pairs,
            "discarded_coprime": 0, "discarded_chain": 0,
            "zero_reductions": 0, "basis_size": len(GM),
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        })
    return rows
