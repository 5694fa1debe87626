"""Division algorithm, S-polynomials, Buchberger's algorithm with sugar
pair selection and Gebauer-Moller pair installation, and Buchberger's
criterion.

All reductions are exact over Q and run in one fraction-free kernel on
primitive integer representatives (a divisor or basis element may be
rescaled freely). Division is deterministic: the first divisor (by list
position) whose leading monomial divides the current leading monomial is
always used. `divide` rebuilds its exact rational quotients and remainder
from the scalar the kernel accumulates along the way. Every function works
in the ring's own order; an `order` argument that differs is rejected.

Inside the kernel and all through Buchberger's algorithm a monomial is one
packed int: 16-bit fields, each topped by a guard bit, hold the exponent
vector and, above it, a linear packing of the order key, so a product is
an add, the order is int comparison and divisibility is one subtract and
AND. An exponent or block degree must stay below 2^15; past it the kernel
raises OverflowError instead of wrapping. `Monomial` objects are built only
where polynomials enter or leave. An `Ideal` packs its reduced basis once,
on first use, for every later membership test and normal form.

Each divisor list comes with a memo from a packed monomial to the index of
its first divisor (or to how many divisors are known not to divide it).
Divisor lists only grow at their end, so a memo entry never goes stale:
the Buchberger loop keeps one memo for its whole run, and an `Ideal` keeps
one next to its packed basis for all its `member` and `normal_form` calls.
The certificate `is_groebner_basis` builds and sorts the lcms of only the
pairs it reduces; monomial-monomial and coprime pairs are counted against
the budget without an lcm.

Buchberger's loop takes the pair of least sugar first, a degree that the
elimination t*I + (1-t)*J behind every intersection would otherwise lack:
that input is not homogeneous, and popping the least lcm there lets
high-degree remainders into the basis early, where they breed more pairs.
On homogeneous input sugar is the degree, and the order is the normal one.
"""

from __future__ import annotations

import heapq
import struct
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd as _igcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .rings import ELIM_BLOCK, Monomial, MonomialOrder, Polynomial, Ring, Term


class BudgetExceeded(RuntimeError):
    """A pair-count or wall-clock budget ran out mid-computation."""


class Budget:
    """Shared resource budget: S-pair count cap plus optional deadline."""

    DEFAULT_MAX_PAIRS = 1_000_000

    __slots__ = ("max_pairs", "timeout_secs", "pairs", "_deadline")

    def __init__(self, max_pairs: Optional[int] = None,
                 timeout_secs: Optional[float] = None):
        if max_pairs is not None and max_pairs < 0:
            raise ValueError(f"pair budget must be >= 0, got {max_pairs}")
        if timeout_secs is not None and not timeout_secs >= 0:
            raise ValueError(f"timeout must be >= 0 seconds, got {timeout_secs}")
        self.max_pairs = self.DEFAULT_MAX_PAIRS if max_pairs is None else max_pairs
        self.timeout_secs = timeout_secs
        self.pairs = 0
        self._deadline = (time.monotonic() + timeout_secs
                          if timeout_secs is not None else None)

    def tick(self, count: int = 1) -> None:
        """Count `count` pairs against the cap, then check the deadline."""
        self.pairs += count
        if self.pairs > self.max_pairs:
            raise BudgetExceeded(f"pair budget of {self.max_pairs} exhausted")
        self.check_deadline()

    def check_deadline(self) -> None:
        """Raise once the deadline has passed; counts nothing. Long loops
        that reduce no pairs call this."""
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


# -- packed monomials -------------------------------------------------------
# Inside the kernel a monomial is one int (Monagan-Pearce, J. Symb. Comput.
# 46, 2011). Every field is FIELD bits wide and its top bit is a guard, so
# a field holds values below LIMIT = 2^15. The low nvars fields hold the
# exponent vector (position i in field i); the high nvars fields hold the
# order key as a linear packing: for grevlex the prefix sums
# (deg, deg - e_N, deg - e_N - e_{N-1}, ..., e_1) from the top field down,
# for elim-block one such run per block, the elimination block on top.
# Products are then sums, comparison in the order is int comparison, and
# a divides b iff (b - a) & guard == 0: a field where a exceeds b borrows
# into its guard bit. A sum of two packed monomials cannot carry out of a
# field, so an exponent or block degree past the limit shows as a set
# guard bit and is rejected, never wrapped.

FIELD = 16
LIMIT = 1 << (FIELD - 1)


def _overflow() -> OverflowError:
    return OverflowError(
        f"exponent or block degree reaches 2^{FIELD - 1} = {LIMIT}, "
        "the limit of packed monomials")


class _Packing:
    """The packed layout of one ring order's monomials."""

    __slots__ = ("guard", "exp_guard", "_exp_mask", "_ones", "_shift",
                 "_top", "_runs", "_head", "_fmt", "_nbytes")

    def __init__(self, order: MonomialOrder):
        nvars = order.space.nvars
        head = order.space.elim_count if order.kind == ELIM_BLOCK else 0

        def ones(k):
            return sum(1 << (FIELD * i) for i in range(k))

        def mask(k):
            return (1 << (FIELD * k)) - 1

        # (source field, width, destination field) per run; elim-block puts
        # the elimination run above the main one.
        runs = ((0, head, nvars - head), (head, nvars - head, 0)) if head else ((0, nvars, 0),)
        self._runs = tuple((FIELD * src, mask(width), ones(width), FIELD * dest)
                           for src, width, dest in runs)
        self._head = head
        self._shift = FIELD * nvars
        self._top = FIELD * (nvars - 1)
        self._exp_mask = mask(nvars)
        self._ones = ones(nvars)
        self.exp_guard = self._ones << (FIELD - 1)
        self.guard = self.exp_guard | (self.exp_guard << self._shift)
        self._fmt = f"<{nvars}H"
        self._nbytes = 2 * nvars

    def _with_key(self, e: int) -> int:
        key = 0
        for src, mask, ones, dest in self._runs:
            key |= (((e >> src) & mask) * ones & mask) << dest
        return (key << self._shift) | e

    def pack(self, m: Monomial) -> int:
        exps = m.exps
        head = sum(exps[:self._head])
        if head >= LIMIT or m.deg - head >= LIMIT:
            raise _overflow()
        return self._with_key(int.from_bytes(struct.pack(self._fmt, *exps), "little"))

    def unpack(self, m: int) -> Monomial:
        if m & self.guard:
            raise _overflow()
        return Monomial(struct.unpack(
            self._fmt, (m & self._exp_mask).to_bytes(self._nbytes, "little")))

    def lcm(self, a: int, b: int) -> int:
        ea, eb = a & self._exp_mask, b & self._exp_mask
        # 0xFFFF in each field where eb >= ea (no borrow: the guard is set).
        pick = ((((eb | self.exp_guard) - ea) & self.exp_guard) >> (FIELD - 1)) * 0xFFFF
        out = self._with_key((eb & pick) | (ea & ~pick))
        if out & self.guard:
            raise _overflow()
        return out

    def degree(self, m: int) -> int:
        """Total degree of a valid packed monomial, by one SWAR horizontal
        sum: times _ones, field k of the product holds e_0 + ... + e_k, and
        the top exponent field the whole sum. It cannot carry: every partial
        sum is at most the total degree, and with each of at most two block
        degrees below 2^15 (`pack` and `lcm` reject more) that is below
        2^16, the width of a field."""
        return ((m & self._exp_mask) * self._ones >> self._top) & 0xFFFF

    def support(self, m: int) -> int:
        """Guard bits of the variables m contains: a and b are coprime iff
        support(a) & support(b) == 0."""
        return (((m & self._exp_mask) | self.exp_guard) - self._ones) & self.exp_guard


@lru_cache(maxsize=32)
def _packing(order: MonomialOrder) -> _Packing:
    return _Packing(order)


# -- primitive integer layer ------------------------------------------------
# A "prim" polynomial is a tuple of (packed monomial, int) pairs, descending
# in the ring's order, integer content 1 and positive leading coefficient.
# Every reduction runs here: a divisor or a basis element may be rescaled
# freely, and `divide` recovers its exact quotients from the tracked scalar.
# Monomial objects appear only where polynomials enter or leave.


def _prim_from_poly(f: Polynomial, packing: _Packing):
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
    pack = packing.pack
    return tuple((pack(m), v // g) for v, (_, m) in zip(vals, f.terms))


def _prim_from_dict(d: dict):
    g = 0
    for v in d.values():
        g = _igcd(g, v)
    items = sorted(d.items(), reverse=True)
    if items[0][1] < 0:
        g = -g
    return tuple((m, v // g) for m, v in items)


def _poly_from_dict(d: dict, ring: Ring, packing: _Packing) -> Polynomial:
    unpack = packing.unpack
    return Polynomial(ring, tuple(Term(Fraction(c), unpack(m))
                                  for m, c in sorted(d.items(), reverse=True)))


def _monic_from_prim(prim, ring: Ring, packing: _Packing) -> Polynomial:
    lc = prim[0][1]
    unpack = packing.unpack
    return Polynomial(ring, tuple(Term(Fraction(c, lc), unpack(m)) for m, c in prim))


def _spoly(a, b, lcm: int) -> dict:
    """S(a, b) = lc(b)*(lcm/in(a))*a - lc(a)*(lcm/in(b))*b in dict form, for
    descending (packed monomial, coefficient) sequences."""
    ma, ca = a[0]
    mb, cb = b[0]
    ua, ub = lcm - ma, lcm - mb
    d: dict = {}
    for m, c in a:
        mm = m + ua
        nc = d.get(mm, 0) + cb * c
        if nc:
            d[mm] = nc
        elif mm in d:
            del d[mm]
    for m, c in b:
        mm = m + ub
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


class _Divisors:
    """An append-only divisor list with its first-divisor memo.

    Divisor i has leading monomial lms[i] and is stored as
    divs[i] = (lc, tail). The memo maps a packed monomial to the index
    of its first divisor, or, for a monomial no divisor divides, to ~k after
    a scan of the first k divisors. Divisors are only ever appended, so a
    stored index stays the first match and a stored miss rescans only the
    divisors appended since.
    """

    __slots__ = ("lms", "divs", "memo")

    def __init__(self):
        self.lms: list[int] = []
        self.divs: list = []
        self.memo: dict[int, int] = {}

    def append(self, prim) -> None:
        lm, lc = prim[0]
        self.lms.append(lm)
        self.divs.append((lc, prim[1:]))


class _IntReducer:
    """Fraction-free division: remainders are correct up to a scalar.

    The divisor used for a term is always the first one (by list position)
    whose leading monomial divides it. After `track`, the reducer also keeps
    the scalar with p_int = scale * p_exact and the exact quotient of each
    divisor; the prim appended for divisor i is ratios[i] times divisor i.
    With a budget, its deadline is checked every 32 steps.

    The divisors and their first-divisor memo live in a `_Divisors`, which
    says why the memo stays exact. The Buchberger loop keeps one reducer,
    and so one memo, for its whole run; every reducer an `Ideal` hands out
    shares the `_Divisors` it built from its reduced basis.
    """

    __slots__ = ("packing", "divisors", "budget", "quotients", "scale", "ratios")

    def __init__(self, packing: _Packing, divisors: Optional[_Divisors] = None,
                 budget: Optional[Budget] = None):
        self.packing = packing
        self.divisors = _Divisors() if divisors is None else divisors
        self.budget = budget
        self.quotients = None

    def append(self, prim) -> None:
        self.divisors.append(prim)

    def track(self, scale: Fraction, ratios: Sequence[Fraction]) -> None:
        """Record exact quotients from the next reduce, whose argument is
        scale times the exact dividend."""
        self.scale = scale
        self.ratios = ratios
        self.quotients = [{} for _ in ratios]

    def reduce(self, p: dict) -> dict:
        """Remainder of some positive rational multiple of p; mutates p."""
        guard = self.packing.guard
        lms, divs, memo = self.divisors.lms, self.divisors.divs, self.divisors.memo
        quotients = self.quotients
        budget = self.budget
        rem: dict[int, int] = {}
        steps = 0
        while p:
            m = max(p)
            c = p.pop(m)
            if m & guard:
                raise _overflow()
            idx = memo.get(m, -1)
            if idx < 0:
                start = ~idx
                for lm in islice(lms, start, None) if start else lms:
                    if not (m - lm) & guard:
                        # Equal leading monomials divide alike, so the first
                        # equal one from `start` on is the one just found.
                        idx = lms.index(lm, start)
                        break
                else:
                    memo[m] = ~len(lms)
                    rem[m] = c
                    continue
                memo[m] = idx
            lc, tail = divs[idx]
            u = m - lms[idx]
            g = _igcd(c, lc)
            mult = lc // g
            q = c // g
            if mult != 1:
                for k in p:
                    p[k] *= mult
                for k in rem:
                    rem[k] *= mult
            if quotients is not None:
                self.scale *= mult
                qd = quotients[idx]
                qd[u] = qd.get(u, 0) + q * self.ratios[idx] / self.scale
            for tm, tc in tail:
                mm = u + tm
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
                if budget is not None:
                    budget.check_deadline()
        return rem


def divide(h: Polynomial, divisors: Sequence[Polynomial],
           order: Optional[MonomialOrder] = None) -> DivisionResult:
    """Multivariate division h = remainder + sum(quotients[i] * divisors[i]).

    The remainder contains no monomial divisible by any divisor's leading
    monomial, and in(h) >= in(quotients[i] * divisors[i]) whenever the
    quotient is nonzero.
    """
    ring = h.ring
    packing = _packing(_ring_order(ring, order))
    reducer = _IntReducer(packing)
    ratios = []
    for f in divisors:
        if not f:
            raise ValueError("zero divisor")
        f._check_ring(ring)
        prim = _prim_from_poly(f, packing)
        reducer.append(prim)
        ratios.append(prim[0][1] / f.terms[0].coeff)
    p, scale = {}, Fraction(1)
    if h:
        prim = _prim_from_poly(h, packing)
        p, scale = dict(prim), prim[0][1] / h.terms[0].coeff
    reducer.track(scale, ratios)
    rem = reducer.reduce(p)
    scale = reducer.scale
    return DivisionResult(
        tuple(_poly_from_dict(q, ring, packing) for q in reducer.quotients),
        _poly_from_dict({m: c / scale for m, c in rem.items()}, ring, packing))


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: Optional[MonomialOrder] = None) -> Polynomial:
    """The cancellation combination of f and g (gcd taken with coefficient 1)."""
    if not f or not g:
        raise ValueError("S-polynomial of zero")
    g._check_ring(f.ring)
    packing = _packing(_ring_order(f.ring, order))
    pack = packing.pack
    a = [(pack(m), c) for c, m in f.terms]
    b = [(pack(m), c) for c, m in g.terms]
    return _poly_from_dict(_spoly(a, b, packing.lcm(a[0][0], b[0][0])),
                           f.ring, packing)


def reduced_groebner_basis(polys: Iterable[Polynomial],
                           order: Optional[MonomialOrder] = None,
                           budget: Optional[Budget] = None,
                           criteria: bool = True,
                           stats: Optional[GBStats] = None) -> tuple[Polynomial, ...]:
    """Buchberger's algorithm with sugar pair selection.

    Pairs are processed by ascending (sugar, lcm, i, j), lcm in the active
    order (Giovini, Mora, Niesi, Robbiano & Traverso, "One sugar cube,
    please", ISSAC 1991). An input element's sugar is its largest total
    degree; a pair's is max(s_i + deg(lcm) - deg(in g_i), s_j + deg(lcm) -
    deg(in g_j)), and a nonzero remainder keeps the sugar of its pair. On
    homogeneous input sugar is the true degree; the module docstring says
    why the non-homogeneous eliminations need it.

    Unless criteria=False (every pair is then reduced), pairs are installed
    the Gebauer-Moller way (J. Symb. Comput. 6, 1988; Becker-Weispfenning
    5.5), which is valid for any selection strategy: when an element h
    joins the basis, a pending pair (a, b) is dropped if in(h) divides
    lcm(a, b) and lcm(a, b) differs from both lcm(a, h) and lcm(b, h)
    (B_k); of the new pairs (i, h), those whose lcm is a proper multiple of
    another new pair's lcm are dropped (M), one pair is kept per lcm (F),
    and none if one of them has coprime leading monomials. A coprime pair's
    lcm is the product of its leading monomials; one past the packing limit
    can neither equal nor divide a valid lcm, so it is dropped without
    raising. An element whose leading monomial in(h) divides gets no new
    pairs but stays a reducer. Returns THE reduced Groebner basis (monic,
    interreduced, sorted by descending leading monomial), which is unique
    for the order, whatever the selection. Everything between the input
    and the interreduced output runs on packed monomials.
    """
    polys = [f for f in polys if f]
    if not polys:
        return ()
    ring = polys[0].ring
    for f in polys:
        f._check_ring(ring)
    packing = _packing(_ring_order(ring, order))
    budget = budget or Budget()
    stats = stats if stats is not None else GBStats()
    guard = packing.guard
    lcm_of = packing.lcm
    degree = packing.degree

    G = []
    lms: list[int] = []
    supports: list[int] = []
    excess: list[int] = []      # sugar minus the degree of the leading monomial
    active: list[int] = []      # elements that still get new pairs
    heap: list[list] = []       # [sugar, lcm, i, j, lcm]; the last lcm is None once dropped
    reducer = _IntReducer(packing, budget=budget)

    def push(lcm: int, i: int, j: int) -> None:
        sugar = degree(lcm) + max(excess[i], excess[j])
        heapq.heappush(heap, [sugar, lcm, i, j, lcm])
        stats.pairs_pushed += 1

    def install(prim, sugar: int) -> None:
        j = len(G)
        lm = prim[0][0]
        G.append(prim)
        lms.append(lm)
        support = packing.support(lm)
        supports.append(support)
        excess.append(sugar - degree(lm))
        reducer.append(prim)
        if not criteria:
            for i in range(j):
                push(lcm_of(lms[i], lm), i, j)
            return
        # A coprime lcm is the product, a sum of packed monomials; past the
        # limit it has a guard bit set instead of raising.
        with_h = [lmi + lm if not si & support else lcm_of(lmi, lm)
                  for lmi, si in zip(lms[:j], supports)]
        for entry in heap:
            lcm = entry[4]
            if (lcm is not None and not (lcm - lm) & guard
                    and lcm != with_h[entry[2]] and lcm != with_h[entry[3]]):
                entry[4] = None
                stats.discarded_chain += 1
        by_lcm: dict[int, list[int]] = {}
        for i in active:
            lcm = with_h[i]
            if lcm & guard:
                # A coprime product past the limit: it can neither equal
                # nor divide a valid lcm, so M and F need not see it.
                stats.discarded_coprime += 1
            else:
                by_lcm.setdefault(lcm, []).append(i)
        minimal: list[int] = []
        # Ascending in the order, so every proper divisor of an lcm comes first.
        for lcm in sorted(by_lcm):
            group = by_lcm[lcm]
            if any(not (lcm - m) & guard for m in minimal):
                stats.discarded_chain += len(group)
                continue
            minimal.append(lcm)
            coprime = sum(1 for i in group if not supports[i] & support)
            if coprime:
                stats.discarded_coprime += coprime
                stats.discarded_chain += len(group) - coprime
                continue
            stats.discarded_chain += len(group) - 1
            push(lcm, group[0], j)
        active[:] = [i for i in active if (lms[i] - lm) & guard]
        active.append(j)

    seen = set()
    for f in polys:
        prim = _prim_from_poly(f, packing)
        if prim not in seen:
            seen.add(prim)
            install(prim, max(degree(m) for m, _ in prim))

    while heap:
        sugar, _, i, j, lcm = heapq.heappop(heap)
        if lcm is None:
            continue
        budget.tick()
        stats.pairs_processed += 1
        rem = reducer.reduce(_spoly(G[i], G[j], lcm))
        if not rem:
            stats.zero_reductions += 1
            continue
        install(_prim_from_dict(rem), sugar)
        stats.basis_added += 1

    return tuple(_monic_from_prim(p, ring, packing)
                 for p in _interreduce(G, packing, budget))


def _interreduce(prims, packing: _Packing, budget: Optional[Budget] = None) -> list:
    """Minimal tail-reduced prims of a Groebner basis, descending by leading
    monomial."""
    guard = packing.guard
    kept = []
    for prim in sorted(prims, key=lambda p: p[0][0]):
        lm = prim[0][0]
        if all((lm - other[0][0]) & guard for other in kept):
            kept.append(prim)
    # Only a smaller leading monomial can divide a term of an element, so
    # each element, in ascending order, is reduced by the ones before it and
    # then joins them; the reduced basis is unique, so this is the result.
    reducer = _IntReducer(packing, budget=budget)
    for idx, prim in enumerate(kept):
        kept[idx] = _prim_from_dict(reducer.reduce(dict(prim)))
        reducer.append(kept[idx])
    kept.sort(key=lambda p: p[0][0], reverse=True)
    return kept


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
    for f in polys:
        f._check_ring(ring)
    packing = _packing(_ring_order(ring, order))
    kept = _interreduce([_prim_from_poly(f, packing) for f in polys], packing)
    return tuple(_monic_from_prim(p, ring, packing) for p in kept)


def is_groebner_basis(polys: Sequence[Polynomial],
                      order: Optional[MonomialOrder] = None,
                      budget: Optional[Budget] = None) -> GBCertificate:
    """Buchberger's criterion: every S-pair must reduce to 0 against polys.

    Pairs of monomials have S-polynomial 0 and pairs with coprime leading
    monomials always reduce to 0; both are skipped, and their lcms are
    never built. Every pair counts against the budget: the skipped ones in
    one step before any reduction, the others as they are reduced, in
    ascending (lcm, i, j) order. On failure the result carries the first
    offending (1-based) pair in that order and its exact nonzero remainder.
    """
    polys = list(polys)
    if not polys or any(not f for f in polys):
        raise ValueError("is_groebner_basis needs nonzero polynomials")
    ring = polys[0].ring
    for f in polys:
        f._check_ring(ring)
    order = _ring_order(ring, order)
    packing = _packing(order)
    budget = budget or Budget()
    prims = [_prim_from_poly(f, packing) for f in polys]
    lms = [p[0][0] for p in prims]
    supports = [packing.support(m) for m in lms]
    lcm_of = packing.lcm
    n = len(prims)
    # A monomial's S-polynomial with another monomial is 0, so it pairs
    # only with the non-monomials.
    non_monomials = [j for j in range(n) if len(prims[j]) > 1]
    pairs = []
    for i in range(n):
        lm, support = lms[i], supports[i]
        partners = (range(i + 1, n) if len(prims[i]) > 1
                    else non_monomials[bisect_right(non_monomials, i):])
        pairs.extend((lcm_of(lm, lms[j]), i, j)
                     for j in partners if support & supports[j])
    pairs.sort()
    skipped = n * (n - 1) // 2 - len(pairs)
    if skipped:
        budget.tick(skipped)
    reducer = _IntReducer(packing, budget=budget)
    for prim in prims:
        reducer.append(prim)
    for lcm, i, j in pairs:
        budget.tick()
        if reducer.reduce(_spoly(prims[i], prims[j], lcm)):
            exact = divide(s_polynomial(polys[i], polys[j]), polys, order)
            return GBCertificate(False, (i + 1, j + 1), exact.remainder)
    return GBCertificate(True, None, None)


class Ideal:
    """Generator list with an optional cached reduced Groebner basis.

    The cache is write-once and tagged by the ring's order, and so is the
    packed divisor list built from it for membership and normal forms;
    generators are stored as given (zeroes dropped).
    """

    __slots__ = ("ring", "gens", "_basis", "_divisors")

    def __init__(self, ring: Ring, gens: Iterable[Polynomial] = ()):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self.ring = ring
        self.gens = gens
        self._basis: Optional[tuple[Polynomial, ...]] = None
        self._divisors: Optional[_Divisors] = None

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

    def _reducer(self, budget: Optional[Budget] = None) -> _IntReducer:
        """A reducer by the reduced basis. The packed divisor list is built
        once, on first use, and shared by every later reducer together with
        its first-divisor memo."""
        packing = _packing(self.ring.order)
        if self._divisors is None:
            reducer = _IntReducer(packing)
            for g in self.groebner(budget):
                reducer.append(_prim_from_poly(g, packing))
            self._divisors = reducer.divisors
        return _IntReducer(packing, self._divisors, budget)

    def __repr__(self) -> str:
        inner = ", ".join(self.ring.format(g) for g in self.gens)
        return f"Ideal({inner})"


def normal_form(f: Polynomial, I: Ideal,
                budget: Optional[Budget] = None) -> Polynomial:
    """Remainder of f against the reduced Groebner basis of I."""
    f._check_ring(I.ring)
    reducer = I._reducer(budget)
    if not f:
        return f
    packing = reducer.packing
    prim = _prim_from_poly(f, packing)
    # The basis is monic, so the prim of divisor i is lc_i times it.
    reducer.track(prim[0][1] / f.terms[0].coeff,
                  [Fraction(lc) for lc, _ in reducer.divisors.divs])
    rem = reducer.reduce(dict(prim))
    return _poly_from_dict({m: c / reducer.scale for m, c in rem.items()},
                           I.ring, packing)


def member(f: Polynomial, I: Ideal, budget: Optional[Budget] = None) -> bool:
    """Ideal membership: the normal form of f against I vanishes."""
    f._check_ring(I.ring)
    if not f:
        return True
    reducer = I._reducer(budget)
    if not reducer.divisors.lms:
        return False
    return not reducer.reduce(dict(_prim_from_poly(f, reducer.packing)))


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
