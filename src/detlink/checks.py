"""Named verification checks with budgets, seeds and reproducible reports.

Each check re-derives one of the verified facts at a given width n and
reports pass/fail with a witness on failure. Verdicts and witnesses are
deterministic for a fixed (n, selection, seed, budget); elapsed times are
measured and therefore not part of the reproducibility contract.

The budget is the one bound on a check's cost: a check runs at every n and
either finishes or reports budget-exceeded once its units of work (see
`Budget`) run out. The one exception is the random probe, whose cost is
coefficient growth rather than units of work: past n = 4 it reports
itself skipped. Gates on single steps inside a check, such as the full
colon equality of sum-equals-colon, stay in the check itself.

Within one `run_checks` call, facts that several checks rely on are
derived once (`_shared`): the chain proof of each width, the packed prims
and the certificate of G = set_G(n), and the core of the monomial sets. A
check that finds one already derived is charged the units it took, so its
verdict and its units do not depend on which other checks ran; its elapsed
time does, since the shared work lands on the first check that needs it.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from . import families as fam
from .graphs import verify_res_int
from .groebner import (Budget, BudgetExceeded, GBCertificate, Ideal,
                       _Divisors, _IntReducer, _Packing, _add_scaled,
                       _certificate_prims,
                       _first_prim_product_outside,
                       _interreduce, _packing, _polynomials,
                       _prim_from_poly,
                       _spoly, _two_term_walk, ideal_equal, is_groebner_basis,
                       minimal_generators, reduced_groebner_basis)
from .idealops import _kept_part, height, quotient, sum_ideals
from .rings import Polynomial, Ring

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

    def to_json_obj(self) -> dict:
        obj = {"name": self.name, "status": self.status,
               "elapsed_ms": round(self.elapsed_ms, 3)}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


def report_document(reports: Sequence[CheckReport], n: int, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "seed": seed,
        "checks": [r.to_json_obj() for r in reports],
    }


def report_json(reports: Sequence[CheckReport], n: int, seed: int) -> str:
    return json.dumps(report_document(reports, n, seed), indent=2, sort_keys=True)


# -- individual checks -------------------------------------------------------
# Each check returns (status, witness) and may raise BudgetExceeded.


def _fmt(f: Polynomial) -> str:
    return f.ring.format(f)


T = TypeVar("T")

# The memo of the running `run_checks` call: key -> (result, units). None
# outside it, where nothing is memoized.
_memo: Optional[dict] = None


def _shared(key, budget: Budget, compute: Callable[[], T]) -> T:
    """compute(), derived once per `run_checks` call for each key. A later
    call with the key gets the same result and is charged the units that
    computing it took (`Budget.charge`), so a check's verdict and units do
    not depend on which checks ran before it. A key holds every value the
    computation reads that a check may have corrupted. A computation that
    raises stores nothing; results are shared, and no check modifies
    them."""
    memo = _memo
    if memo is None:
        return compute()
    if key in memo:
        result, units = memo[key]
        budget.charge(units)
        return result
    before = budget.pairs
    result = compute()
    memo[key] = result, budget.pairs - before
    return result


def _proven_chain(n: int, budget: Budget) -> tuple[Optional[str], list[Polynomial]]:
    """`_chain_proof(n, budget)`. It reads only n and the chain accessors
    of `families`, the same for every check in one call, so n is its key."""
    return _shared(("chain", n), budget, lambda: _chain_proof(n, budget))


def _prims(G: Sequence[Polynomial], budget: Budget) -> tuple:
    """The prims of G's elements, none of them zero, in order, in the
    packing of G's ring."""
    return _shared(("prims", tuple(G)), budget, lambda: tuple(
        _prim_from_poly(g, _packing(g.ring.nvars)) for g in G))


def _certificate(G: list[Polynomial], budget: Budget) -> GBCertificate:
    """`is_groebner_basis(G)`."""
    return _shared(("certificate", tuple(G)), budget,
                   lambda: is_groebner_basis(G, budget=budget))


def _packed_monomials(n: int, budget: Budget) -> tuple[int, ...]:
    """The monomials of M_1, ..., M_n, in turn, as the packed monomials of
    `families._packed_monomial_sets`, the one form of the monomial sets
    the checks read. The deadline is checked first, so an expired budget
    stops a check before the sets are built; then the sets' size is held
    against the units left, and the deadline checked again while they
    grow."""
    budget.check_deadline()
    return tuple(itertools.chain.from_iterable(
        fam._packed_monomial_sets(n, budget)))


def _shared_core(G: Sequence[Polynomial], monos: tuple[int, ...],
                 budget: Budget) -> Optional[list[int]]:
    """`_core(G, monos)`."""
    return _shared(("core", tuple(G), monos), budget,
                   lambda: _core(G, monos, budget))


# The witness of a set_G(n) that is not the set `_chain_proof` proves.
_UNPROVEN_G = ("extended generator set is not g_1..g_n followed by the "
               "proven chain elements")


def _chain_proof(n: int, budget: Budget) -> tuple[Optional[str], list[Polynomial]]:
    """Proof that the 2n - 4 chain elements of G lie in (g_1..g_n): None and
    the set it proves, g_1..g_n followed by g_{1,2}..g_{1,n-1} and
    g_{2,n}..g_{n-1,n}, which set_G(n) must equal for (G) = (g_1..g_n);
    or the witness of the first step that fails and no set. The first chain
    starts at g_1 and the second at g_n, and the chain recurrences give
    each next element from the one before and a g:
    g_{1,i+1} = X Z g_{i+1} - z_{i+1} x_{i+2} g_{1,i} and
    g_{j-1,n} = Y Z g_{j-1} - z_{j-1} y_{j-2} g_{j,n}.
    The recurrences are checked on the packed terms of the g's and both
    chains, all scaled by one integer (`_packed_terms`). Each recurrence is
    linear in them, so it holds there exactly when it holds on the
    Polynomials: a chain element off by a scalar fails it. The deadline is
    checked once per recurrence."""
    g1, g2 = fam.chain_g(n)
    gs = [fam.g_generator(n, i) for i in range(1, n + 1)]
    if (g1[1], g2[n]) != (gs[0], gs[-1]):
        return "a chain does not start at g_1 or g_n", []
    packed = _packed_terms([*gs, *g1.values(), *g2.values()],
                           _packing(3 * n))
    tg = dict(zip(range(1, n + 1), packed))
    t1 = dict(zip(g1, packed[n:]))
    t2 = dict(zip(g2, packed[n + len(g1):]))
    mono = functools.partial(fam._packed_xyz, n)

    def fails(lt: int, g: tuple, m: int, before: tuple, after: tuple) -> bool:
        """Whether lt * g - m * before differs from after."""
        d: dict = {}
        _add_scaled(d, g, lt, 1)
        _add_scaled(d, before, m, -1)
        _add_scaled(d, after, 0, -1)
        return bool(d)

    for i in range(1, n - 1):
        budget.check_deadline()
        if fails(mono(xs=[*range(1, i), i + 1], zs=range(1, i + 1)), tg[i + 1],
                 mono(xs=[i + 2], zs=[i + 1]), t1[i], t1[i + 1]):
            return f"first chain recurrence fails at i={i}", []
    for j in range(3, n + 1):
        budget.check_deadline()
        if fails(mono(ys=[j - 1, *range(j + 1, n + 1)], zs=range(j, n + 1)),
                 tg[j - 1], mono(ys=[j - 2], zs=[j - 1]), t2[j], t2[j - 1]):
            return f"second chain recurrence fails at j={j}", []
    return None, [*gs, *(g1[i] for i in range(2, n)), *(g2[j] for j in range(2, n))]


def check_gb_a(n: int, rng: random.Random,
               budget: Budget) -> tuple[str, Optional[str]]:
    """Certificate that the extended generator set G is a Groebner basis of
    (g_1..g_n): G passes Buchberger's criterion, and it is g_1..g_n plus
    chain elements that lie in (g_1..g_n) by the chain recurrences."""
    witness, proven = _proven_chain(n, budget)
    if witness is not None:
        return FAIL, witness
    G = fam.set_G(n)
    cert = _certificate(G, budget)
    if not cert.ok:
        return FAIL, (f"S-pair {cert.witness} of the candidate set leaves "
                      f"remainder {_fmt(cert.remainder)}")
    if G != proven:
        return FAIL, _UNPROVEN_G
    return PASS, None


def _core(G: Sequence[Polynomial], monos: Sequence[int],
          budget: Budget) -> Optional[list[int]]:
    """The core of monos, packed monomials of G's ring: the ones no leading
    monomial of G divides, in their order in monos, when every other one
    has remainder 0 on division by G + core; None otherwise, and when G
    holds a zero. A remainder of 0 proves membership in (G + core)
    whatever the divisor order, so all of monos then lies in (G + core).

    Each rest monomial is divided by G + core under the first-divisor rule
    of `_IntReducer`, whose first step the split has already found, by the
    walk `groebner._two_term_walk` that the certificate and the product
    tests share. A monomial stays one term, and the walk keeps the
    monomials it proved members of (G + core): the divisor list is fixed
    once the rest is split, so a later walk stops at one of them, and its
    verdict is `_IntReducer.reduce`'s. A walk that meets a divisor it does
    not take (not a monomial or a binomial with coefficients 1 and ±1) is
    left to `_IntReducer.reduce` from its rest monomial. The deadline is
    checked once per element of monos while they are split, and once per
    step of a walk."""
    if not all(G):
        return None
    packing = _packing(G[0].ring.nvars)
    guard = packing.guard
    divisors = _Divisors(_prims(G, budget))
    g_lms = divisors.lms[:]
    core, rest, firsts = [], [], []
    for m in monos:
        budget.check_deadline()
        for idx, lm in enumerate(g_lms):
            if not (m - lm) & guard:
                rest.append(m)
                firsts.append(idx)
                break
        else:
            core.append(m)
            divisors.append(((m, 1),))
    proven: set[int] = set()
    reducer = None
    for m, idx in zip(rest, firsts):
        if m in proven:
            continue
        zero = _two_term_walk(m, 1, 0, 0, divisors, guard, proven, budget, idx)
        if zero is None:
            reducer = reducer or _IntReducer(packing, divisors, budget)
            zero = not reducer.reduce({m: 1})
        if not zero:
            return None
    return core


def check_gb_sum(n: int, rng: random.Random,
                 budget: Budget) -> tuple[str, Optional[str]]:
    """Certificate that G plus every attached monomial set is a Groebner
    basis of the sum of the n links.

    Fast path: G plus the core of the monomials (`_core`) passes
    Buchberger's criterion, and every other monomial reduces to 0 by it.
    Then (G ∪ M) = (G + core) and in(G + core) ⊆ in(G ∪ M), so G ∪ M is a
    Groebner basis too (Becker & Weispfenning, Thm 5.35 and 5.48). The
    criterion on G + core is G's own certificate (`_certificate`), shared
    with gb-a and sum-equals-colon, and then the walk over only the pairs
    the core adds (`_certificate_prims` with known = |G|, on G's prims and
    the core's packed monomials). Its verdict and first failing pair are
    those of the certificate of G + core, and, the core being monomials,
    G's units plus the walk's are that certificate's: a pass charges
    them.

    Without a core, or when G or the core's pairs fail, the certificate
    walks G ∪ M itself, and its verdict and witness, with indices into
    G ∪ M, are the check's. Whenever G + core is a Groebner basis, so is
    G ∪ M, so the fast path changes no verdict. A failure charges the
    certificates tried before the full walk, and the full walk: a G
    that fails its own certificate is charged that certificate's units,
    and a Groebner basis G with failing core pairs all of G's certificate.
    These units on failing paths are not the full walk's, so under a cap
    on units such a run can report budget-exceeded where the full walk
    alone would fail. G ∪ M is G = set_G(n) followed by the monomials of
    `_packed_monomials`, and only on the full walk do monomials become
    Polynomials."""
    G = fam.set_G(n)
    monos = _packed_monomials(n, budget)
    core = _shared_core(G, monos, budget)
    if (core is not None and _certificate(G, budget).ok and _certificate_prims(
            [*_prims(G, budget), *(((m, 1),) for m in core)],
            _packing(G[0].ring.nvars), budget, known=len(G)) is None):
        return PASS, None
    cert = is_groebner_basis([*G, *fam._monomials(n, monos)], budget=budget)
    if not cert.ok:
        return FAIL, (f"S-pair {cert.witness} leaves remainder "
                      f"{_fmt(cert.remainder)}")
    return PASS, None


def _colon_by_minors(I: Ideal, pair: tuple[int, int],
                     minors: Callable[[], Ideal], budget: Budget) -> Ideal:
    """I : I_2, with I_2 = minors() the ideal of the 2x2 minors of I's
    ring, by the colon I : (delta) for the one minor delta of pair,
    certified.

    I_2 contains delta, so I : (delta) contains I : I_2. The certificate
    is the reverse inclusion, (I : (delta)) * I_2 ⊆ I, by the colon fold's
    own skip test: the kept part of the basis of I : (delta)
    (`idealops._kept_part`) times every minor reduces to 0 by I's basis
    (`_first_prim_product_outside`). When a product escapes, the colon is
    the fold over all minors, `quotient(I, minors())`. Either way the
    result is I : I_2 with its reduced basis, which is unique, so the
    certified colon has the fold's basis. minors() is called once, after
    the colon by delta."""
    delta = Ideal._from_terms(I.ring, [fam._minor_terms(I.ring.n, *pair)])
    Q = quotient(I, delta, budget)
    kept = _kept_part(I, Q._packed_basis(budget), budget)
    I2 = minors()
    if _first_prim_product_outside(kept, I2._packed_gens(), I, budget) is None:
        return Q
    return quotient(I, I2, budget)


def check_links(n: int, rng: random.Random,
                budget: Budget) -> tuple[str, Optional[str]]:
    """Colon computation of each link equals its monomial description.

    The link J_i is a_i : I_2, with a_i = (g_1..ĝ_i..g_n) and I_2 the
    ideal of the 2x2 minors. Each colon is computed as a_i : (delta_i),
    one elimination, with delta_i the minor of g_i's pair
    (`families.minor_pair`), and certified (`_colon_by_minors`):
    delta_i lies in I_2, so a_i : (delta_i) ⊇ a_i : I_2, and the
    certificate (a_i : (delta_i)) * I_2 ⊆ a_i gives the reverse inclusion.
    It is expected to hold, since a_i is a complete intersection inside
    the prime I_2: then a_i = I_2 ∩ J_i and a_i : (delta_i) =
    J_i : (delta_i), which is J_i when delta_i is a nonzerodivisor on
    R/J_i. The check never assumes that; where the certificate fails,
    the colon is the fold over all minors. The minors' ideal is built
    once, when the first certificate needs it, and shared by every
    link. The budget bounds the monomial sets before the first link's
    description reads them (`families._packed_monomial_sets`)."""
    minors = functools.cache(lambda: fam.minors_ideal(n))
    for i in range(1, n + 1):
        Q = _colon_by_minors(fam.sub_a(n, i), fam.minor_pair(n, i), minors, budget)
        if i == 1:
            fam._packed_monomial_sets(n, budget)
        C = fam.link_ideal(n, i)
        if not ideal_equal(Q, C, budget):
            return FAIL, f"link {i}: colon ideal differs from the monomial description"
    return PASS, None


def check_section2(n: int, rng: random.Random,
                   budget: Budget) -> tuple[str, Optional[str]]:
    """Link of the consecutive-minor chain: colon equality and the
    minimal-generator degree multiset (n-1 quadrics, n-1 of degree n-2).

    The colon of the chain by I_2 is computed as its colon by delta(1, n)
    and certified, by the argument of `check_links`: delta(1, n) lies in
    I_2, the certificate gives the reverse inclusion, and it is expected
    to hold, since the chain is a complete intersection inside I_2 and
    delta(1, n), whose variables no monomial of the link contains, is
    expected to be a nonzerodivisor on R/link."""
    chain, link = fam.chain_link(n)
    Q = _colon_by_minors(chain, (n, 1), lambda: fam.minors_ideal(n), budget)
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
    full colon equality with the sum of links for n <= 5. Membership is
    decided by the extended generator set G, which its certificate shows
    to be a Groebner basis and `_chain_proof` shows to generate (g_1..g_n).

    Fast path: every monomial reduces to 0 by G plus the core of the
    monomials (`_core`), and each core monomial times each minor lies in
    (g_1..g_n). Then M ⊆ (G) + (core), and G ⊆ (g_1..g_n), so every
    monomial times every minor lies in (g_1..g_n). Otherwise every product
    is tested, and the witness is the first escaping one in row-major
    order. The monomials are those of `_packed_monomials`, and the
    products are formed on packed terms."""
    witness, proven = _proven_chain(n, budget)
    if witness is not None:
        return FAIL, witness
    ring = fam.standard_ring(n)
    G = fam.set_G(n)
    cert = _certificate(G, budget)
    if not cert.ok:
        return FAIL, "extended generator set failed its own certificate"
    if G != proven:
        return FAIL, _UNPROVEN_G
    a_full = Ideal._from_prims(ring, _interreduce(
        _prims(G, budget), _packing(ring.nvars), budget))
    minors = fam.minors_ideal(n)
    monos = _packed_monomials(n, budget)
    core = _shared_core(G, monos, budget)
    outside = None
    if core is None or _first_prim_product_outside(
            [((m, 1),) for m in core], minors._packed_gens(), a_full,
            budget) is not None:
        outside = _first_prim_product_outside(
            [((m, 1),) for m in monos], minors._packed_gens(), a_full, budget)
    if outside is not None:
        mono, = fam._monomials(n, [monos[outside[0]]])
        i, j = list(itertools.combinations(range(1, n + 1), 2))[outside[1]]
        return FAIL, (f"containment fails: ({_fmt(mono)}) * "
                      f"({_fmt(fam.delta(i, j, n))}) is not in the full family")
    if n > 5:
        return PASS, None
    Q = quotient(a_full, minors, budget)
    if not ideal_equal(Q, fam.sum_links_ideal(n), budget):
        return FAIL, "colon of the full family differs from the sum of links"
    return PASS, None


def check_heights(n: int, rng: random.Random,
                  budget: Budget) -> tuple[str, Optional[str]]:
    """Height facts: the chain is a regular sequence of length n-1, the
    full family is a residual intersection, and for n <= 5 every link is
    geometric (height(I_2 + J_i) >= n for each i)."""
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
    sign, under its index automorphism; a family whose minor pairs form no
    path has none, and fails."""
    target = {fam.delta(t, t + 1, n).monic().terms for t in range(1, n)}
    for case_i in range(1, n + 1):
        budget.check_deadline()
        try:
            perm = fam.phi_permutation(n, case_i)
        except ValueError as exc:
            return FAIL, f"case {case_i}: {exc}"
        images = set()
        for k in range(1, n + 1):
            if k == case_i:
                continue
            a, b = fam.minor_pair(n, k)
            images.add(fam.apply_permutation(perm, fam.delta(a, b, n)).monic().terms)
        if images != target:
            return FAIL, f"case {case_i}: images do not cover the chain"
    return PASS, None


def _scale(polys: Sequence[Polynomial]) -> int:
    """The lcm of the denominators of every coefficient of polys."""
    return lcm(*(c.denominator for f in polys for c, _ in f.terms))


def _packed_terms(polys: Sequence[Polynomial], packing: _Packing) -> list[tuple]:
    """The terms of each of polys, in order, as (packed monomial, int)
    pairs: every coefficient times the lcm of the denominators of all of
    polys (`_scale`), so they are the polys times one common integer."""
    den = _scale(polys)
    pack = packing.pack
    return [tuple((pack(m), c.numerator * (den // c.denominator))
                  for c, m in f.terms) for f in polys]


def _telescoping_identities(n: int, ring: Ring, g1: dict, g2: dict) -> Iterator[tuple]:
    """Both telescoping identities at every pair, first identity first:
    (name, i, j, lhs, summands, lead), where lhs and each summand are a
    product (packed cofactor, packed terms) and lead is the packed monomial
    that must lead lhs and bound every summand. The first identity is
    X_{[1,j-1]-i} Z_{[1,j-1]} delta(j,i)
        = sum_{k=i}^{j-1} X_{[k+2,j]} Z_{[k+1,j-1]} g_{1,k}, i < j,
    led by X_{[1,j]-i} y_i Z_{[1,j-1]}; the second is
    Y_{[j+1,n]-i} Z_{[j+1,n]} delta(i,j)
        = sum_{k=j+1}^{i} Y_{[j,k-2]} Z_{[j+1,k-1]} g_{k,n}, i > j,
    led by x_i Y_{[j,n]-i} Z_{[j+1,n]}. The chains are scaled by one
    integer (`_packed_terms`), and each identity's minor, the packed terms
    of `families._minor_terms` with coefficients +-1, is scaled by the
    same integer when its identity comes up; that keeps every identity and
    every bound."""
    packing = _packing(ring.nvars)
    mono = functools.partial(fam._packed_xyz, n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chains = [*g1.values(), *g2.values()]
    den, packed = _scale(chains), _packed_terms(chains, packing)
    t1 = dict(zip(g1, packed))
    t2 = dict(zip(g2, packed[len(g1):]))

    def minor(a: int, b: int) -> tuple:
        """delta(a, b), a > b, the minor both identities take, scaled."""
        return tuple((m, c * den) for m, c in fam._minor_terms(n, a, b))

    for i, j in pairs:
        lhs = (mono(xs=[v for v in range(1, j) if v != i], zs=range(1, j)),
               minor(j, i))
        summands = [(mono(xs=range(k + 2, j + 1), zs=range(k + 1, j)), t1[k])
                    for k in range(i, j)]
        lead = mono(xs=[v for v in range(1, j + 1) if v != i], ys=[i],
                    zs=range(1, j))
        yield "first", i, j, lhs, summands, lead
    for j, i in pairs:
        lhs = (mono(ys=[v for v in range(j + 1, n + 1) if v != i],
                    zs=range(j + 1, n + 1)), minor(i, j))
        summands = [(mono(ys=range(j, k - 1), zs=range(j + 1, k)), t2[k])
                    for k in range(j + 1, i + 1)]
        lead = mono(xs=[i], ys=[v for v in range(j, n + 1) if v != i],
                    zs=range(j + 1, n + 1))
        yield "second", i, j, lhs, summands, lead


def _telescoping_witness(identities: Iterable[tuple],
                         budget: Budget) -> Optional[str]:
    """The witness of the first of `_telescoping_identities` that fails,
    or None. An identity holds when its summands minus its lhs, added into
    one dict of exact integers, cancel; its leading-term bounds are packed
    comparisons, which are comparisons in the order. The deadline is
    checked once per identity."""
    for name, i, j, (u, lhs), summands, lead in identities:
        budget.check_deadline()
        d: dict = {}
        for v, terms in summands:
            _add_scaled(d, terms, v, 1)
        _add_scaled(d, lhs, u, -1)
        if d:
            return f"{name} telescoping identity fails at (i,j)=({i},{j})"
        if u + lhs[0][0] != lead:
            return f"leading monomial of {name} identity wrong at ({i},{j})"
        if any(v + terms[0][0] > lead for v, terms in summands):
            return f"summand exceeds leading monomial at ({i},{j})"
    return None


def _random_qualifying_binomials(ring: Ring, rng: random.Random) -> tuple:
    """Binomial pair whose leading-monomial gcd divides both trailing terms,
    by construction, as prims of ring's packing: f = c*(u1 - a*u2) and
    g = c*(v1 - b*v2) with u1 > u2 and v1 > v2 of any degrees, v1 and v2
    free of u1's variables, so gcd(in f, in g) = c. Packed monomials
    multiply by adding and compare as the order does, so c*u1 > c*u2 and
    the terms are built in order; the lead coefficient 1 makes the
    content 1."""
    units = fam._packed_variables(ring.n)

    def mono(variables):
        drawn = [rng.choice(variables) for _ in range(rng.randint(1, 3))]
        return sum(units[v] for v in drawn), drawn

    def binomial(variables):
        while True:
            (u2, _), (u1, drawn) = sorted((mono(variables), mono(variables)),
                                          key=lambda m: m[0])
            if u1 != u2:
                a = rng.choice([1, 2, 3, -1, -2])
                return ((c + u1, 1), (c + u2, -a)), drawn

    all_vars = range(ring.nvars)
    c, _ = mono(all_vars)
    f, used = binomial(all_vars)
    g, _ = binomial([v for v in all_vars if v not in used])
    return f, g


def check_identities(n: int, rng: random.Random,
                     budget: Budget) -> tuple[str, Optional[str]]:
    """Exact identity suite: the corrected chain recurrences, exhaustive
    monomial-times-minor membership in the chain (n <= 6), on the packed
    window products of `families._window_products`, both telescoping
    identities with their leading-term bounds, on packed monomials
    (`_telescoping_witness`), and the binomial S-pair reduction property
    on random qualifying pairs."""
    witness, _ = _proven_chain(n, budget)
    if witness is not None:
        return FAIL, witness
    ring = fam.standard_ring(n)
    packing = _packing(ring.nvars)
    if n <= 6:
        chain = fam.chain_ideal(n)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            # The products X_K Y_L by the size of K, then lexicographically.
            products = sorted(fam._window_products(n, range(i + 1, j)),
                              key=lambda p: (len(p[0]), p[0]))
            outside = _first_prim_product_outside(
                [((m, 1),) for _, m in products],
                [_prim_from_poly(fam.delta(i, j, n), packing)], chain, budget)
            if outside is not None:
                return FAIL, (f"X_K Y_L delta({i},{j}) escapes the "
                              f"chain for K={products[outside[0]][0]}")
    witness = _telescoping_witness(
        _telescoping_identities(n, ring, *fam.chain_g(n)), budget)
    if witness is not None:
        return FAIL, witness
    # The pairs are drawn and reduced as packed primitive polynomials;
    # only a failing pair becomes Polynomials, for its witness.
    for _ in range(500 if n == 4 else 50):
        budget.check_deadline()
        pf, pg = _random_qualifying_binomials(ring, rng)
        lcm = packing.lcm(pf[0][0], pg[0][0])
        if _IntReducer(packing, _Divisors((pf, pg))).reduce(_spoly(pf, pg, lcm)):
            f, g = _polynomials(ring, (pf, pg))
            return FAIL, (f"S({_fmt(f)}, {_fmt(g)}) does not reduce to zero "
                          f"against the pair")
    return PASS, None


def _certified_sum_basis(n: int, budget: Budget) -> Optional[tuple[Polynomial, ...]]:
    """The reduced basis of the sum of links, computed from G + core
    (`_core`), with G = set_G(n) and the monomials of `_packed_monomials`
    as in gb-sum; None when the facts of this call do not prove that
    G + core generates the sum of links. They do when the chain proof
    holds and G is the set it proves, so (G) = (g_1..g_n); when the core
    exists, so every monomial lies in (G + core) and (G + core) =
    (G) + (monomials); and when the sum of links has exactly g_1..g_n and
    the monomials as its generators, each up to a nonzero scalar, which
    generates the same ideal: their packed prims are the same set."""
    witness, proven = _proven_chain(n, budget)
    if witness is not None:
        return None
    G = fam.set_G(n)
    if G != proven:
        return None
    monos = _packed_monomials(n, budget)
    expected = {*_prims(G, budget)[:n], *(((m, 1),) for m in monos)}
    if set(fam.sum_links_ideal(n)._packed_gens()) != expected:
        return None
    core = _shared_core(G, monos, budget)
    if core is None:
        return None
    return reduced_groebner_basis([*G, *fam._monomials(n, core)],
                                  budget=budget)


def check_reduced(n: int, rng: random.Random,
                  budget: Budget) -> tuple[str, Optional[str]]:
    """The initial ideal of the sum of links is squarefree (so the sum of
    links is reduced): every leading monomial of its reduced basis is.

    Fast path: the reduced basis from G + core (`_certified_sum_basis`),
    which generates the same ideal and so has the same reduced basis.
    Otherwise Buchberger's algorithm runs on the sum of links' own
    generators."""
    basis = _certified_sum_basis(n, budget)
    if basis is None:
        basis = fam.sum_links_ideal(n).groebner(budget)
    if not all(f.terms[0].mono.is_squarefree() for f in basis):
        return FAIL, "initial ideal of the sum of links is not squarefree"
    return PASS, None


def check_random_specialization(n: int, rng: random.Random,
                                budget: Budget) -> tuple[str, Optional[str]]:
    """Randomized probe: for surviving random integer matrices B, the colon
    of the specialized family equals the sum of the colons of its
    omitted-column subfamilies. Its cost is coefficient growth, not units
    of work, so it runs for n = 4 only and reports itself skipped past
    it."""
    if n > 4:
        return SKIPPED, "runs for n <= 4"
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


def run_checks(n: int, selection: Iterable[str] | str = "all", seed: int = 0,
               max_pairs: Optional[int] = None,
               timeout_secs: Optional[float] = None,
               stretch: bool = False) -> list[CheckReport]:
    """Run the selected checks at width n with per-check fresh budgets.

    Selection is "all" or an iterable of check names; reports come back in
    the canonical registry order. Each check draws randomness from its own
    seeded stream, so verdicts and witnesses are reproducible. The facts
    the checks share are derived once per call (`_shared`).

    `stretch` is ignored. It is still accepted because callers pass it,
    among them the colon-n5 timing workload.
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
    global _memo
    reports = []
    outer, _memo = _memo, {}
    try:
        for name in names:
            rng = random.Random(f"{seed}/{name}")
            budget = Budget(max_pairs, timeout_secs)
            t0 = time.perf_counter()
            try:
                status, witness = CHECKS[name](n, rng, budget)
            except BudgetExceeded as exc:
                status, witness = BUDGET, str(exc)
            elapsed = (time.perf_counter() - t0) * 1000.0
            reports.append(CheckReport(
                name=name, n=n, status=status, elapsed_ms=elapsed,
                witness=witness, seed=seed, max_pairs=budget.max_pairs,
                timeout_secs=timeout_secs))
    finally:
        _memo = outer
    return reports
