"""Division algorithm, S-polynomials, Buchberger's algorithm with
Gebauer-Moller pair installation, and Buchberger's criterion.

All reductions are exact over Q and run in one fraction-free kernel on
primitive integer representatives (a divisor or basis element may be
rescaled freely). Division is deterministic: the first divisor (by list
position) whose leading monomial divides the current leading monomial is
always used. `divide` rebuilds its exact rational quotients and remainder
from the scalar the kernel accumulates along the way. Every function works
in the ring's own order; an `order` argument that differs is rejected.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .rings import Monomial, MonomialOrder, Polynomial, Ring, Term


class BudgetExceeded(RuntimeError):
    """A pair-count or wall-clock budget ran out mid-computation."""


class Budget:
    """Shared resource budget: S-pair count cap plus optional deadline."""

    DEFAULT_MAX_PAIRS = 1_000_000

    __slots__ = ("max_pairs", "timeout_secs", "pairs", "_deadline")

    def __init__(self, max_pairs: Optional[int] = None,
                 timeout_secs: Optional[float] = None):
        self.max_pairs = self.DEFAULT_MAX_PAIRS if max_pairs is None else max_pairs
        self.timeout_secs = timeout_secs
        self.pairs = 0
        self._deadline = (time.monotonic() + timeout_secs
                          if timeout_secs is not None else None)

    def tick(self) -> None:
        self.pairs += 1
        if self.pairs > self.max_pairs:
            raise BudgetExceeded(f"pair budget of {self.max_pairs} exhausted")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(f"timeout of {self.timeout_secs}s exhausted")


@dataclass
class GBStats:
    """Work counters of one `reduced_groebner_basis` call.

    pairs_pushed: pairs installed in the pair heap.
    pairs_processed: S-polynomials reduced, one budget tick each; always
        zero_reductions + basis_added.
    discarded_coprime: new pairs dropped at installation because their
        leading monomials are coprime (product criterion).
    discarded_chain: pairs dropped by the other Gebauer-Moller criteria,
        at installation (M, F) or later by a new element (B_k).
    zero_reductions: S-polynomials that reduced to zero.
    basis_added: S-polynomials whose nonzero remainder joined the basis.
    """

    pairs_pushed: int = 0
    pairs_processed: int = 0
    discarded_coprime: int = 0
    discarded_chain: int = 0
    zero_reductions: int = 0
    basis_added: int = 0
    final_size: int = 0
    elapsed_ms: float = 0.0


class DivisionResult(NamedTuple):
    quotients: tuple[Polynomial, ...]
    remainder: Polynomial


class GBCertificate(NamedTuple):
    """Outcome of Buchberger's criterion; witness indices are 1-based."""

    ok: bool
    witness: Optional[tuple[int, int]]
    remainder: Optional[Polynomial]

    def __bool__(self) -> bool:
        return self.ok


def _ring_order(ring: Ring, order: Optional[MonomialOrder]) -> MonomialOrder:
    """The ring's own order; an explicit `order` must equal it, since every
    polynomial keeps its terms sorted in the ring's order."""
    if order is not None and order != ring.order:
        raise ValueError(f"{order!r} is not the order of {ring!r}")
    return ring.order


# -- primitive integer layer ------------------------------------------------
# A "prim" polynomial is a tuple of (Monomial, int) pairs, descending in the
# active order, integer content 1 and positive leading coefficient. Every
# reduction runs here: a divisor or a basis element may be rescaled freely,
# and `divide` recovers its exact quotients from the tracked scalar.


def _prim_from_poly(f: Polynomial):
    den = 1
    for c, _ in f.terms:
        d = c.denominator
        den = den * d // _igcd(den, d)
    vals = [c.numerator * (den // c.denominator) for c, _ in f.terms]
    g = 0
    for v in vals:
        g = _igcd(g, v)
    if vals[0] < 0:
        g = -g
    return tuple((m, v // g) for v, (_, m) in zip(vals, f.terms))


def _prim_from_dict(d: dict, key):
    g = 0
    for v in d.values():
        g = _igcd(g, v)
    items = sorted(d.items(), key=lambda mv: key(mv[0]), reverse=True)
    if items[0][1] < 0:
        g = -g
    return tuple((m, v // g) for m, v in items)


def _poly_from_prim(prim, ring: Ring) -> Polynomial:
    return Polynomial(ring, tuple(Term(Fraction(c), m) for m, c in prim))


def _monic_from_prim(prim, ring: Ring) -> Polynomial:
    lc = prim[0][1]
    return Polynomial(ring, tuple(Term(Fraction(c, lc), m) for m, c in prim))


def _spoly(a, b) -> dict:
    """S(a, b) = lc(b)*(in(b)/gcd)*a - lc(a)*(in(a)/gcd)*b in dict form, for
    descending (Monomial, coefficient) sequences."""
    ma, ca = a[0]
    mb, cb = b[0]
    g = ma.gcd(mb)
    ua, ub = mb.div(g), ma.div(g)
    d: dict = {}
    for m, c in a:
        mm = m.mul(ua)
        nc = d.get(mm, 0) + cb * c
        if nc:
            d[mm] = nc
        elif mm in d:
            del d[mm]
    for m, c in b:
        mm = m.mul(ub)
        nc = d.get(mm, 0) - ca * c
        if nc:
            d[mm] = nc
        elif mm in d:
            del d[mm]
    return d


def _content_reduce(p: dict, rem: dict) -> int:
    """Divide p and rem by their common integer content; returns it."""
    g = 0
    for v in p.values():
        g = _igcd(g, v)
    for v in rem.values():
        g = _igcd(g, v)
    if g > 1:
        for k in p:
            p[k] //= g
        for k in rem:
            rem[k] //= g
    return g


class _IntReducer:
    """Fraction-free division: remainders are correct up to a scalar.

    The divisor used for a term is always the first one (by list position)
    whose leading monomial divides it. After `track`, the reducer also keeps
    the scalar with p_int = scale * p_exact and the exact quotient of each
    divisor; the prim appended for divisor i is ratios[i] times divisor i.
    """

    __slots__ = ("order", "divs", "quotients", "scale", "ratios", "_first")

    def __init__(self, order: MonomialOrder):
        self.order = order
        self.divs = []
        self.quotients = None

    def append(self, prim) -> None:
        lm, lc = prim[0]
        self.divs.append((lm, lc, prim[1:]))

    def track(self, scale: Fraction, ratios: Sequence[Fraction]) -> None:
        """Record exact quotients from the next reduce, whose argument is
        scale times the exact dividend."""
        self.scale = scale
        self.ratios = ratios
        self.quotients = [{} for _ in ratios]
        self._first = {}
        for idx, (lm, _, _) in enumerate(self.divs):
            self._first.setdefault(lm, idx)

    def reduce(self, p: dict) -> dict:
        """Remainder of some positive rational multiple of p; mutates p."""
        key = self.order.key
        divs = self.divs
        quotients = self.quotients
        rem: dict[Monomial, int] = {}
        steps = 0
        while p:
            m = max(p, key=key)
            c = p.pop(m)
            for lm, lc, tail in divs:
                if lm.divides(m):
                    g = _igcd(c, lc)
                    mult = lc // g
                    q = c // g
                    if mult != 1:
                        for k in p:
                            p[k] *= mult
                        for k in rem:
                            rem[k] *= mult
                    u = m.div(lm)
                    if quotients is not None:
                        self.scale *= mult
                        idx = self._first[lm]
                        qd = quotients[idx]
                        qd[u] = qd.get(u, 0) + q * self.ratios[idx] / self.scale
                    for tm, tc in tail:
                        mm = u.mul(tm)
                        nc = p.get(mm, 0) - q * tc
                        if nc:
                            p[mm] = nc
                        elif mm in p:
                            del p[mm]
                    steps += 1
                    if not steps & 31:
                        g = _content_reduce(p, rem)
                        if quotients is not None and g > 1:
                            self.scale /= g
                    break
            else:
                rem[m] = c
        return rem


def divide(h: Polynomial, divisors: Sequence[Polynomial],
           order: Optional[MonomialOrder] = None) -> DivisionResult:
    """Multivariate division h = remainder + sum(quotients[i] * divisors[i]).

    The remainder contains no monomial divisible by any divisor's leading
    monomial, and in(h) >= in(quotients[i] * divisors[i]) whenever the
    quotient is nonzero.
    """
    ring = h.ring
    reducer = _IntReducer(_ring_order(ring, order))
    ratios = []
    for f in divisors:
        if not f:
            raise ValueError("zero divisor")
        prim = _prim_from_poly(f)
        reducer.append(prim)
        ratios.append(prim[0][1] / f.terms[0].coeff)
    p, scale = {}, Fraction(1)
    if h:
        prim = _prim_from_poly(h)
        p, scale = dict(prim), prim[0][1] / h.terms[0].coeff
    reducer.track(scale, ratios)
    rem = reducer.reduce(p)
    scale = reducer.scale
    return DivisionResult(tuple(ring._from_dict(q) for q in reducer.quotients),
                          ring._from_dict({m: c / scale for m, c in rem.items()}))


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: Optional[MonomialOrder] = None) -> Polynomial:
    """The cancellation combination of f and g (gcd taken with coefficient 1)."""
    if not f or not g:
        raise ValueError("S-polynomial of zero")
    f._check_ring(g)
    _ring_order(f.ring, order)
    return f.ring._from_dict(_spoly([(m, c) for c, m in f.terms],
                                    [(m, c) for c, m in g.terms]))


def reduced_groebner_basis(polys: Iterable[Polynomial],
                           order: Optional[MonomialOrder] = None,
                           budget: Optional[Budget] = None,
                           criteria: bool = True,
                           stats: Optional[GBStats] = None) -> tuple[Polynomial, ...]:
    """Buchberger's algorithm with normal pair selection.

    Pairs are processed by ascending lcm in the active order. Unless
    criteria=False (every pair is then reduced), pairs are installed the
    Gebauer-Moller way (J. Symb. Comput. 6, 1988; Becker-Weispfenning
    5.5): when an element h joins the basis, a pending pair (a, b) is
    dropped if in(h) divides lcm(a, b) and lcm(a, b) differs from both
    lcm(a, h) and lcm(b, h) (B_k); of the new pairs (i, h), those whose lcm
    is a proper multiple of another new pair's lcm are dropped (M), one
    pair is kept per lcm (F), and none if one of them has coprime leading
    monomials. An element whose leading monomial in(h) divides gets no new
    pairs but stays a reducer. Returns THE reduced Groebner basis (monic,
    interreduced, sorted by descending leading monomial), which is unique
    for the order.
    """
    t0 = time.perf_counter()
    polys = [f for f in polys if f]
    if not polys:
        return ()
    ring = polys[0].ring
    order = _ring_order(ring, order)
    budget = budget or Budget()
    stats = stats if stats is not None else GBStats()
    key = order.key

    G = []
    lms: list[Monomial] = []
    active: list[int] = []      # elements that still get new pairs
    heap: list[list] = []       # [key(lcm), i, j, lcm]; lcm is None once dropped
    reducer = _IntReducer(order)

    def install(prim) -> None:
        j = len(G)
        lm = prim[0][0]
        G.append(prim)
        lms.append(lm)
        reducer.append(prim)
        if not criteria:
            for i in range(j):
                lcm = lms[i].lcm(lm)
                heapq.heappush(heap, [key(lcm), i, j, lcm])
                stats.pairs_pushed += 1
            return
        with_h = [lmi.lcm(lm) for lmi in lms[:j]]
        for entry in heap:
            lcm = entry[3]
            if (lcm is not None and lm.divides(lcm)
                    and lcm != with_h[entry[1]] and lcm != with_h[entry[2]]):
                entry[3] = None
                stats.discarded_chain += 1
        by_lcm: dict[Monomial, list[int]] = {}
        for i in active:
            by_lcm.setdefault(with_h[i], []).append(i)
        minimal: list[Monomial] = []
        for lcm in sorted(by_lcm, key=lambda m: m.deg):
            group = by_lcm[lcm]
            if any(m.divides(lcm) for m in minimal):
                stats.discarded_chain += len(group)
                continue
            minimal.append(lcm)
            coprime = sum(1 for i in group if lms[i].is_coprime(lm))
            if coprime:
                stats.discarded_coprime += coprime
                stats.discarded_chain += len(group) - coprime
                continue
            stats.discarded_chain += len(group) - 1
            heapq.heappush(heap, [key(lcm), group[0], j, lcm])
            stats.pairs_pushed += 1
        active[:] = [i for i in active if not lm.divides(lms[i])]
        active.append(j)

    seen = set()
    for f in polys:
        prim = _prim_from_poly(f)
        if prim not in seen:
            seen.add(prim)
            install(prim)

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        if lcm is None:
            continue
        budget.tick()
        stats.pairs_processed += 1
        rem = reducer.reduce(_spoly(G[i], G[j]))
        if not rem:
            stats.zero_reductions += 1
            continue
        install(_prim_from_dict(rem, key))
        stats.basis_added += 1

    basis = interreduce([_poly_from_prim(p, ring) for p in G], order)
    stats.final_size = len(basis)
    stats.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return basis


def interreduce(basis: Sequence[Polynomial],
                order: Optional[MonomialOrder] = None) -> tuple[Polynomial, ...]:
    """Monic minimal tail-reduced form of a Groebner basis.

    Applied to any Groebner basis of an ideal this yields THE reduced
    basis: elements whose leading monomial is divisible by another's are
    dropped, the rest are tail-reduced against each other.
    """
    polys = [f for f in basis if f]
    if not polys:
        return ()
    ring = polys[0].ring
    order = _ring_order(ring, order)
    key = order.key
    prims = sorted((_prim_from_poly(f) for f in polys), key=lambda p: key(p[0][0]))
    kept = []
    for prim in prims:
        lm = prim[0][0]
        if not any(other[0][0].divides(lm) for other in kept):
            kept.append(prim)
    for idx in range(len(kept)):
        reducer = _IntReducer(order)
        for other in kept[:idx] + kept[idx + 1:]:
            reducer.append(other)
        kept[idx] = _prim_from_dict(reducer.reduce(dict(kept[idx])), key)
    kept.sort(key=lambda p: key(p[0][0]), reverse=True)
    return tuple(_monic_from_prim(p, ring) for p in kept)


def is_groebner_basis(polys: Sequence[Polynomial],
                      order: Optional[MonomialOrder] = None,
                      budget: Optional[Budget] = None) -> GBCertificate:
    """Buchberger's criterion: every S-pair must reduce to 0 against polys.

    Pairs of monomials have S-polynomial 0 and pairs with coprime leading
    monomials always reduce to 0; both are skipped. On failure the result
    carries the offending (1-based) pair and its exact nonzero remainder.
    """
    polys = list(polys)
    if not polys or any(not f for f in polys):
        raise ValueError("is_groebner_basis needs nonzero polynomials")
    ring = polys[0].ring
    order = _ring_order(ring, order)
    budget = budget or Budget()
    key = order.key
    prims = [_prim_from_poly(f) for f in polys]
    lms = [p[0][0] for p in prims]
    pairs = sorted(
        ((key(lms[i].lcm(lms[j])), i, j)
         for i in range(len(polys)) for j in range(i + 1, len(polys))),
        key=lambda t: t[0])
    reducer = _IntReducer(order)
    for prim in prims:
        reducer.append(prim)
    for _, i, j in pairs:
        budget.tick()
        if len(prims[i]) == 1 and len(prims[j]) == 1:
            continue
        if lms[i].is_coprime(lms[j]):
            continue
        if reducer.reduce(_spoly(prims[i], prims[j])):
            exact = divide(s_polynomial(polys[i], polys[j]), polys, order)
            return GBCertificate(False, (i + 1, j + 1), exact.remainder)
    return GBCertificate(True, None, None)


class Ideal:
    """Generator list with an optional cached reduced Groebner basis.

    The cache is write-once and tagged by the ring's order; generators are
    stored as given (zeroes dropped).
    """

    __slots__ = ("ring", "gens", "_basis")

    def __init__(self, ring: Ring, gens: Iterable[Polynomial] = ()):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self.ring = ring
        self.gens = gens
        self._basis: Optional[tuple[Polynomial, ...]] = None

    @classmethod
    def with_basis(cls, ring: Ring, gens: Iterable[Polynomial],
                   basis: tuple[Polynomial, ...]) -> "Ideal":
        ideal = cls(ring, gens)
        ideal._basis = basis
        return ideal

    def groebner(self, budget: Optional[Budget] = None) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._basis = reduced_groebner_basis(self.gens, self.ring.order,
                                                 budget=budget)
        return self._basis

    def has_cached_basis(self) -> bool:
        return self._basis is not None

    def __repr__(self) -> str:
        inner = ", ".join(self.ring.format(g) for g in self.gens)
        return f"Ideal({inner})"


def normal_form(f: Polynomial, I: Ideal,
                budget: Optional[Budget] = None) -> Polynomial:
    """Remainder of f against the reduced Groebner basis of I."""
    return divide(f, I.groebner(budget), I.ring.order).remainder


def member(f: Polynomial, I: Ideal, budget: Optional[Budget] = None) -> bool:
    """Ideal membership: the normal form of f against I vanishes."""
    if not f:
        return True
    basis = I.groebner(budget)
    if not basis:
        return False
    reducer = _IntReducer(I.ring.order)
    for g in basis:
        reducer.append(_prim_from_poly(g))
    return not reducer.reduce(dict(_prim_from_poly(f)))


def ideal_equal(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> bool:
    """Mutual membership of generators."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    return (all(member(g, J, budget) for g in I.gens)
            and all(member(g, I, budget) for g in J.gens))


def initial_ideal(I: Ideal, budget: Optional[Budget] = None) -> Ideal:
    """Ideal of leading monomials of the reduced Groebner basis."""
    ring = I.ring
    gens = tuple(ring.from_monomial(f.terms[0].mono) for f in I.groebner(budget))
    return Ideal.with_basis(ring, gens, gens)


def is_squarefree_monomial_ideal(I: Ideal, budget: Optional[Budget] = None) -> bool:
    basis = I.groebner(budget)
    return all(len(f.terms) == 1 and f.terms[0].mono.is_squarefree()
               for f in basis)


def minimal_generators(I: Ideal, budget: Optional[Budget] = None) -> tuple[Polynomial, ...]:
    """Trim a homogeneous generating set to a minimal one.

    A generator is dropped iff it lies in the ideal of the remaining ones;
    the size and degree multiset of the result are invariants of I.
    """
    for g in I.gens:
        if not g.is_homogeneous():
            raise ValueError("minimal_generators needs homogeneous generators")
    ring = I.ring
    key = ring.order.key
    gens = sorted((g.monic() for g in I.gens),
                  key=lambda g: (g.total_degree(), key(g.terms[0].mono)))
    deduped: list[Polynomial] = []
    for g in gens:
        if g not in deduped:
            deduped.append(g)
    kept: list[Polynomial] = []
    for g in deduped:
        # Ascending degree order: only generators of degree <= deg(g) can
        # witness g's redundancy, and those are exactly the kept ones.
        if kept and member(g, Ideal(ring, kept), budget):
            continue
        kept.append(g)
    return tuple(kept)
