"""Division algorithm, S-polynomials, Buchberger's algorithm with sugar
pair selection and Gebauer-Moller pair installation, and Buchberger's
criterion.

All reductions are exact over Q and run in one fraction-free kernel on
primitive integer representatives (a divisor or basis element may be
rescaled freely). Division is deterministic: the first divisor (by list
position) whose leading monomial divides the current leading monomial is
always used. `divide` rebuilds its exact rational quotients and remainder
from the scalar the kernel accumulates along the way. Every function works
in grevlex, the one order of every ring, in which each polynomial keeps
its terms sorted; `is_groebner_basis` still takes an `order` argument and
rejects anything but None.

Inside the kernel and all through Buchberger's algorithm a monomial is one
packed int: 16-bit fields, each topped by a guard bit, hold the exponent
vector and, above it, a linear packing of the order key, so a product is
an add, the order is int comparison and divisibility is one subtract and
AND. An exponent or block degree must stay below 2^15; past it the kernel
raises OverflowError instead of wrapping. `Monomial` objects are built only
where polynomials enter or leave. An `Ideal` packs its generators and its
reduced basis once, on first use; one made from packed results (`idealops`)
or from packed generator terms (`families`) builds its `Polynomial`s only
when asked.

Each divisor list comes with a memo from a packed monomial to the index of
its first divisor (or to how many divisors are known not to divide it).
Divisor lists only grow at their end, so a memo entry never goes stale:
the Buchberger loop keeps one memo for its whole run, and an `Ideal` keeps
one next to its packed basis for all its `member` calls.
The Gebauer-Moller criteria of Buchberger's loop and the chain test of
the certificate compare pair lcms only by divisibility and equality,
which the exponent fields decide alone. Both therefore form an lcm on the
exponent fields (a SWAR pick inlined from `_Packing.lcm`) and build its
order key only where an order is needed: for a pair pushed on the heap,
or for a pair the certificate reduces. Two monomials never pair, since
their S-polynomial is 0: Buchberger's loop pairs a new monomial only with
the non-monomials and only tests which active monomials it retires, and
in the certificate monomial-monomial and coprime pairs are free and get
no lcm. The certificate applies Buchberger's chain
criterion in the Gebauer-Moller form, searching the non-monomial elements
for the middle element k, while it builds the pairs, since the test does
not depend on the walk's order; only the pairs it keeps are keyed, sorted
and reduced. It still reports the first failing pair in (lcm, i, j) order;
`_certificate_prims`, the one walk on packed prims behind
`is_groebner_basis`, says why that pair is never one the criterion skips,
and why a walk told that a prefix of its input is a Groebner basis may
skip the pairs inside that prefix. The S-polynomial of a binomial and a
monomial is one term, which the certificate follows by a one-term walk
(`_one_term_walk`, which `checks._core` uses too) instead of a reduction.
One unit of work is one S-polynomial reduced or walked, by Buchberger's
algorithm or by the certificate; a pair either of them drops unreduced
is free.

Products tested for membership in an ideal (the skip test of `quotient`,
and the containments of the verifier's checks) go through
`_first_prim_product_outside`, which forms them on packed monomials.

Buchberger's loop takes the pair of least sugar first, a degree that the
elimination t*I + (1-t)*J behind every intersection would otherwise lack:
that input is not homogeneous, and popping the least lcm there lets
high-degree remainders into the basis early, where they breed more pairs.
On homogeneous input sugar is the degree, and the order is the normal one.

The loop may start from inputs known to form Groebner bases: the
eliminations of `idealops` pass each side's Groebner basis, times t or
1 - t, as a block, and no pair inside a block is pushed, since each has a
standard representation already. Nor is a pair of a new t-free element
with a block element: the t-free element lies in both sides' ideals, so
that pair too has a standard representation by the block (`_groebner_prims`
says why the criteria stay sound). An elimination interreduces only the
elements whose leading monomial is free of t.
"""

from __future__ import annotations

import heapq
import struct
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .rings import Monomial, Polynomial, Ring, Term


class BudgetExceeded(RuntimeError):
    """A pair-count or wall-clock budget ran out mid-computation."""


class Budget:
    """Shared resource budget: a cap on units of work plus an optional
    deadline. A unit is an S-polynomial reduced (by Buchberger's algorithm
    or a certificate) or followed by a certificate's one-term walk, or a
    node of a combinatorial walk; `pairs` counts them and `max_pairs` caps
    them."""

    DEFAULT_MAX_PAIRS = 1_000_000

    __slots__ = ("max_pairs", "timeout_secs", "pairs", "_deadline")

    def __init__(self, max_pairs: Optional[int] = None,
                 timeout_secs: Optional[float] = None):
        if max_pairs is not None and max_pairs < 0:
            raise ValueError(f"work budget must be >= 0, got {max_pairs}")
        if timeout_secs is not None and not timeout_secs >= 0:
            raise ValueError(f"timeout must be >= 0 seconds, got {timeout_secs}")
        self.max_pairs = self.DEFAULT_MAX_PAIRS if max_pairs is None else max_pairs
        self.timeout_secs = timeout_secs
        self.pairs = 0
        self._deadline = (time.monotonic() + timeout_secs
                          if timeout_secs is not None else None)

    def tick(self) -> None:
        """Count one unit of work against the cap, then check the deadline."""
        self.pairs += 1
        if self.pairs > self.max_pairs:
            raise BudgetExceeded(f"work budget of {self.max_pairs} units exhausted")
        self.check_deadline()

    def charge(self, units: int) -> None:
        """Count units of work at once, as that many ticks would: raise
        where the tick past the cap would, with the count it would leave;
        then check the deadline, also for 0 units."""
        if self.pairs + units > self.max_pairs:
            self.pairs = self.max_pairs + 1
            raise BudgetExceeded(f"work budget of {self.max_pairs} units exhausted")
        self.pairs += units
        self.check_deadline()

    def check_deadline(self) -> None:
        """Raise once the deadline has passed; counts nothing. Loops whose
        steps are not units of work call this: reduction steps, steps of
        one-term walks, product tests, the rows of the certificate's pair
        build, Buchberger's input installs, the splits of the monomial
        sets' window products, and the steps of the `identities` and
        `automorphisms` checks."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(f"timeout of {self.timeout_secs}s exhausted")


@dataclass
class GBStats:
    """Work counters of one `reduced_groebner_basis` call.

    With the criteria on, two monomials never form a pair, since their
    S-polynomial is 0, and no count includes such a pair.

    pairs_pushed: pairs installed in the pair heap.
    pairs_processed: S-polynomials reduced, one budget tick each; always
        zero_reductions + basis_added.
    discarded_coprime: new pairs dropped at installation because their
        leading monomials are coprime (product criterion).
    discarded_chain: pairs dropped by the other Gebauer-Moller criteria,
        at installation (M, F; a new monomial's new pairs are those with
        the non-monomials) or later by a new element (B_k); new pairs
        inside an input block known to be a Groebner basis; and, in an
        elimination, new pairs of a t-free element with a block element
        (`_groebner_prims` says why both have standard representations).
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


# -- packed monomials -------------------------------------------------------
# Inside the kernel a monomial is one int (Monagan-Pearce, J. Symb. Comput.
# 46, 2011). Every field is FIELD bits wide and its top bit is a guard, so
# a field holds values below LIMIT = 2^15. The low nvars fields hold the
# exponent vector (position i in field i); the high nvars fields hold the
# order key as a linear packing: for grevlex the prefix sums
# (deg, deg - e_N, deg - e_N - e_{N-1}, ..., e_1) from the top field down.
# The elimination block of `_intersect_prims` (its variable t in field 0)
# gets a run of its own on top, and the ring's grevlex run sits below it.
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
    """The packed layout of monomials in nvars variables: grevlex when head
    is 0, else the block order that compares the first head variables (the
    elimination block) by grevlex first and the rest by grevlex after."""

    __slots__ = ("guard", "exp_guard", "exp_mask", "ones", "_shift",
                 "_top", "_runs", "_head", "_fmt", "_nbytes")

    def __init__(self, nvars: int, head: int = 0):
        def ones(k):
            return sum(1 << (FIELD * i) for i in range(k))

        def mask(k):
            return (1 << (FIELD * k)) - 1

        # (source field, width, destination field) per run; the elimination
        # run goes above the main one.
        runs = ((0, head, nvars - head), (head, nvars - head, 0)) if head else ((0, nvars, 0),)
        self._runs = tuple((FIELD * src, mask(width), ones(width), FIELD * dest)
                           for src, width, dest in runs)
        self._head = head
        self._shift = FIELD * nvars
        self._top = FIELD * (nvars - 1)
        self.exp_mask = mask(nvars)
        self.ones = ones(nvars)
        self.exp_guard = self.ones << (FIELD - 1)
        self.guard = self.exp_guard | (self.exp_guard << self._shift)
        self._fmt = f"<{nvars}H"
        self._nbytes = 2 * nvars

    def with_key(self, e: int) -> int:
        """The packed monomial with exponent fields e, its order key above."""
        key = 0
        for src, mask, ones, dest in self._runs:
            key |= (((e >> src) & mask) * ones & mask) << dest
        return (key << self._shift) | e

    def pack(self, m: Monomial) -> int:
        exps = m.exps
        head = sum(exps[:self._head])
        if head >= LIMIT or m.deg - head >= LIMIT:
            raise _overflow()
        return self.with_key(int.from_bytes(struct.pack(self._fmt, *exps), "little"))

    def unpack(self, m: int) -> Monomial:
        if m & self.guard:
            raise _overflow()
        return Monomial(struct.unpack(
            self._fmt, (m & self.exp_mask).to_bytes(self._nbytes, "little")))

    def lcm(self, a: int, b: int) -> int:
        """lcm of valid packed monomials by a SWAR pick on the exponent
        fields: field k of (eb | guards) - ea is 2^15 + eb_k - ea_k, with
        no borrow between fields; its guard bit is set where eb_k >= ea_k,
        and there its low 15 bits, eb_k - ea_k, are added to ea. The
        Buchberger loop and the certificate inline this pick."""
        ea = a & self.exp_mask
        d = ((b & self.exp_mask) | self.exp_guard) - ea
        g = d & self.exp_guard
        out = self.with_key(ea + (d & (g - (g >> (FIELD - 1)))))
        if out & self.guard:
            raise _overflow()
        return out

    def degree(self, m: int) -> int:
        """Total degree of a valid packed monomial, by one SWAR horizontal
        sum: times ones, field k of the product holds e_0 + ... + e_k, and
        the top exponent field the whole sum. It cannot carry: every partial
        sum is at most the total degree, and with each of at most two block
        degrees below 2^15 (`pack` and `lcm` reject more) that is below
        2^16, the width of a field."""
        return ((m & self.exp_mask) * self.ones >> self._top) & 0xFFFF

    def support(self, m: int) -> int:
        """Guard bits of the variables m contains: a and b are coprime iff
        support(a) & support(b) == 0."""
        return (((m & self.exp_mask) | self.exp_guard) - self.ones) & self.exp_guard


@lru_cache(maxsize=32)
def _packing(nvars: int, head: int = 0) -> _Packing:
    return _Packing(nvars, head)


# -- primitive integer layer ------------------------------------------------
# A "prim" polynomial is a tuple of (packed monomial, int) pairs, descending
# in the ring's order, integer content 1 and positive leading coefficient.
# Every reduction runs here: a divisor or a basis element may be rescaled
# freely, and `divide` recovers its exact quotients from the tracked scalar.
# Monomial objects appear only where polynomials enter or leave.


def _prim_from_poly(f: Polynomial, packing: _Packing):
    if len(f.terms) == 1:
        # The prim of c*m is m with coefficient 1, for any nonzero c.
        return ((packing.pack(f.terms[0].mono), 1),)
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
    return _prim_from_terms(sorted(d.items(), reverse=True))


def _prim_from_terms(terms):
    """The prim of nonzero packed terms with integer coefficients, in
    descending order."""
    g = 0
    for _, v in terms:
        g = _igcd(g, v)
    if terms[0][1] < 0:
        g = -g
    return tuple((m, v // g) for m, v in terms)


def _polynomials(ring: Ring, packed: Iterable) -> tuple[Polynomial, ...]:
    """Polynomials of ring from packed terms, in order: each entry of
    packed is a sequence of (packed monomial, nonzero rational) pairs,
    descending in the ring's order."""
    unpack = _packing(ring.nvars).unpack
    return tuple(Polynomial(ring, tuple(Term(Fraction(c), unpack(m))
                                        for m, c in terms))
                 for terms in packed)


def _monic_from_prims(prims, ring: Ring) -> tuple[Polynomial, ...]:
    """The monic polynomials of prims of ring's packing, each keeping its
    prim in `_prim` for `Ideal._packed_basis`."""
    unpack = _packing(ring.nvars).unpack
    out = []
    for p in prims:
        f = Polynomial(ring, tuple(Term(Fraction(c, p[0][1]), unpack(m)) for m, c in p))
        f._prim = p
        out.append(f)
    return tuple(out)


def _add_scaled(d: dict, terms, u: int, k: int) -> None:
    """d += k * x^u * terms for packed terms, dropping the zeroes."""
    for m, c in terms:
        mm = m + u
        nc = d.get(mm, 0) + k * c
        if nc:
            d[mm] = nc
        elif mm in d:
            del d[mm]


def _product(a, b) -> dict:
    """a*b in dict form, for packed (monomial, coefficient) sequences."""
    d: dict = {}
    for m, c in a:
        _add_scaled(d, b, m, c)
    return d


def _spoly(a, b, lcm: int) -> dict:
    """S(a, b) = lc(b)*(lcm/in(a))*a - lc(a)*(lcm/in(b))*b in dict form, for
    descending (packed monomial, coefficient) sequences."""
    (ma, ca), (mb, cb) = a[0], b[0]
    d: dict = {}
    _add_scaled(d, a, lcm - ma, cb)
    _add_scaled(d, b, lcm - mb, -ca)
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

    def __init__(self, prims=()):
        self.lms: list[int] = [p[0][0] for p in prims]
        self.divs: list = [(p[0][1], p[1:]) for p in prims]
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
                # Scan from where the last miss stopped; the first hit is kept.
                for idx in range(~idx, len(lms)):
                    if not (m - lms[idx]) & guard:
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


def _one_term_walk(m: int, divisors: _Divisors, guard: int, proven: set,
                   budget: Budget, idx: int = -1) -> Optional[bool]:
    """Whether the packed monomial m has remainder 0 on division by
    divisors under the first-divisor rule of `_IntReducer`: True or False,
    or None once the walk meets a divisor of three or more terms, which
    leaves the verdict to `_IntReducer.reduce`. idx, if given, is the index
    of m's first divisor.

    While the divisors it meets have at most two terms, a one-term dividend
    stays one term: a binomial lm + t takes c*m to c'*(m / lm)*t, and a
    monomial divisor takes it to 0. So only the monomial is followed, step
    for step as `_IntReducer.reduce` would, and the verdict is its verdict:
    False at a monomial no divisor divides, True at a monomial divisor. A
    walk that ends at 0 proves each monomial on it a member, and they join
    `proven`. For a fixed divisor list every walk through a proven monomial
    goes on as that one did, to 0, so a walk stops there too. The deadline
    is checked once per step, and a monomial past the packing limit raises
    OverflowError, as in `_IntReducer.reduce`."""
    lms, divs = divisors.lms, divisors.divs
    walk = []
    while m not in proven:
        budget.check_deadline()
        if m & guard:
            raise _overflow()
        if idx < 0:
            for idx, lm in enumerate(lms):
                if not (m - lm) & guard:
                    break
            else:
                return False
        walk.append(m)
        tail = divs[idx][1]
        if not tail:
            break
        if len(tail) > 1:
            return None
        m += tail[0][0] - lms[idx]
        idx = -1
    proven.update(walk)
    return True


def divide(h: Polynomial, divisors: Sequence[Polynomial]) -> DivisionResult:
    """Multivariate division h = remainder + sum(quotients[i] * divisors[i]).

    The remainder contains no monomial divisible by any divisor's leading
    monomial, and in(h) >= in(quotients[i] * divisors[i]) whenever the
    quotient is nonzero.
    """
    ring = h.ring
    packing = _packing(ring.nvars)
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
    *quotients, remainder = _polynomials(ring, [
        *(sorted(q.items(), reverse=True) for q in reducer.quotients),
        sorted(((m, c / scale) for m, c in rem.items()), reverse=True)])
    return DivisionResult(tuple(quotients), remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The cancellation combination of f and g (gcd taken with coefficient 1)."""
    if not f or not g:
        raise ValueError("S-polynomial of zero")
    g._check_ring(f.ring)
    packing = _packing(f.ring.nvars)
    pack = packing.pack
    a = [(pack(m), c) for c, m in f.terms]
    b = [(pack(m), c) for c, m in g.terms]
    d = _spoly(a, b, packing.lcm(a[0][0], b[0][0]))
    return _polynomials(f.ring, [sorted(d.items(), reverse=True)])[0]


def reduced_groebner_basis(polys: Iterable[Polynomial],
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
    and none if one of them has coprime leading monomials. The criteria
    compare lcms on their exponent fields; a pair's lcm gets its order key,
    and with it the check against the packing limit, only when the pair is
    pushed, so a pair the criteria drop never raises OverflowError. A
    coprime pair whose product is past the limit is dropped by the product
    criterion. An element whose leading monomial in(h) divides gets no new
    pairs but stays a reducer. Two monomials have S-polynomial 0, so a new
    monomial h forms pairs only with the active non-monomials, and only
    those pairs are grouped for M and F: a pair of monomials needs no
    reduction, and leaving it out of the groups only drops fewer pairs, each
    for the reason the full criteria give, while the active monomials cost
    h one divisibility test each. Returns THE reduced Groebner basis (monic,
    interreduced, sorted by descending leading monomial), which is unique
    for the order, whatever the selection. Everything between the input
    and the interreduced output runs on packed monomials, in
    `_groebner_prims`.
    """
    polys = [f for f in polys if f]
    if not polys:
        return ()
    ring = polys[0].ring
    for f in polys:
        f._check_ring(ring)
    packing = _packing(ring.nvars)
    prims = [_prim_from_poly(f, packing) for f in polys]
    return _monic_from_prims(_groebner_prims(prims, packing, budget, criteria, stats), ring)


def _groebner_prims(prims, packing: _Packing, budget: Optional[Budget] = None,
                    criteria: bool = True, stats: Optional[GBStats] = None,
                    blocks: Optional[Sequence] = None, eliminate: int = 0) -> list:
    """The reduced Groebner basis of nonzero prims as interreduced prims,
    descending by leading monomial; `reduced_groebner_basis` says how.

    `eliminate`, if nonzero, masks the exponent fields of variables that
    the order eliminates. Only the basis elements whose leading monomial
    is free of them are then interreduced and returned: under such an
    order they are free of those variables throughout and form a Groebner
    basis of the elimination ideal, and a leading monomial that meets the
    mask divides none of their terms, so interreducing them alone gives
    the reduced basis of the elimination ideal.

    The deadline is checked once per input installed, before the first
    pair is reduced.

    `blocks`, if given, labels each input prim with a block, or with None.
    The inputs that share a label must form a Groebner basis of the ideal
    they generate, in this packing's order (the eliminations of `idealops`
    pass a Groebner basis times t or times 1 - t). Every S-pair inside such
    a block then reduces to zero by the block, so it has a standard
    representation and needs no reduction (Gebauer & Moller, J. Symb.
    Comput. 6, 1988; Becker-Weispfenning 5.5). With the criteria on, when
    an input of a block is installed no pair with an earlier member of its
    block is pushed: a group of new pairs with one lcm that holds such a
    member is dropped whole, as F keeps one pair per lcm and that one is
    already represented, and its pairs count as discarded_chain. B_k, M
    and F still run over all active elements, so a member of the same
    block may still witness M or F; that is sound because its pair with
    the new element has a standard representation, as a reduced pair has.
    Remainders belong to no block.

    With `eliminate` as well, the blocks whose leading monomials meet the
    mask must be those `_intersect_prims` builds: t*G_A and (t-1)*G_B, with
    G_A and G_B Groebner bases of ideals A and B, the elimination ideal
    being tA + (1-t)B. Every t-free element w of it lies in A ∩ B. Let p
    be in G_A or G_B and l = lcm(in p, in w); the pair's lcm is t*l.
    - For p in G_A: S(t*p, w) = t*S(p, w), and S(p, w) lies in A, so it
      has a standard representation by G_A; times t, one by t*G_A below
      t*l.
    - For p in G_B: with a standard representation S(p, w) = sum q_k p_k
      by G_B, S((t-1)*p, w) = sum q_k (t-1)*p_k - c*(l / in w)*w for the
      scalar c = lc(p), and every term is below t*l.
    So with the criteria on, when a t-free element is installed, a group
    of new pairs with one lcm that holds a block element whose leading
    monomial meets the mask is dropped whole, as for a same-block member,
    and its pairs count as discarded_chain. No unblocked element (block
    None) and no t-free element sets this off. criteria=False ignores
    `blocks` and stays the reference path.
    """
    budget = budget or Budget()
    stats = stats if stats is not None else GBStats()
    guard, exp_mask, exp_guard = packing.guard, packing.exp_mask, packing.exp_guard
    with_key = packing.with_key
    degree = packing.degree
    top = FIELD - 1

    G = []
    lms: list[int] = []
    exps: list[int] = []        # the exponent fields of lms
    supports: list[int] = []
    excess: list[int] = []      # sugar minus the degree of the leading monomial
    active: list[int] = []      # elements that still get new pairs
    # The non-monomials among them while monomials are installed in a row,
    # else None.
    active_polys: Optional[list[int]] = None
    origin: list = []           # the input block of each element, or None
    # [sugar, lcm, i, j, the exponent fields of lcm or None once dropped]
    heap: list[list] = []
    reducer = _IntReducer(packing, budget=budget)

    def push(lcm: int, i: int, j: int) -> None:
        if lcm & guard:
            raise _overflow()
        sugar = degree(lcm) + max(excess[i], excess[j])
        heapq.heappush(heap, [sugar, lcm, i, j, lcm & exp_mask])
        stats.pairs_pushed += 1

    def install(prim, sugar: int, block=None) -> None:
        nonlocal active, active_polys
        j = len(G)
        lm = prim[0][0]
        e = lm & exp_mask
        support = packing.support(lm)
        G.append(prim)
        origin.append(block)
        lms.append(lm)
        exps.append(e)
        supports.append(support)
        excess.append(sugar - degree(lm))
        reducer.append(prim)
        if not criteria:
            for i in range(j):
                push(packing.lcm(lms[i], lm), i, j)
            return
        # lcm(in(g_i), in(h)) on the exponent fields alone, by the SWAR
        # pick of `_Packing.lcm`; a field stays below 2^15, so none overflows.
        # It is formed only where a criterion needs it: for a pending pair
        # whose lcm in(h) divides, and for each active element.
        eg = e | exp_guard
        chain = coprime_dropped = 0
        for entry in heap:
            lcm = entry[4]
            if lcm is None or (lcm - e) & exp_guard:
                continue
            ei = exps[entry[2]]
            d = eg - ei
            g = d & exp_guard
            if lcm == ei + (d & (g - (g >> top))):
                continue
            ei = exps[entry[3]]
            d = eg - ei
            g = d & exp_guard
            if lcm == ei + (d & (g - (g >> top))):
                continue
            entry[4] = None
            chain += 1
        # One pass over h's partners groups them by lcm, as
        # lcm -> [first i, size, coprime count, represented flag], and keeps
        # those whose leading monomial in(h) does not divide, i.e. whose lcm
        # with in(h) is not their own leading monomial. A pair is
        # represented when i is in h's block, or when h is t-free and i is
        # a block element with t in its leading monomial. The S-polynomial
        # of two monomials is 0, so a monomial h pairs only with the active
        # non-monomials, and no active monomial witnesses M or F for it.
        monomial = len(prim) == 1
        if monomial and active_polys is None:
            active_polys = [i for i in active if len(G[i]) > 1]
        groups: dict[int, list] = {}
        kept = []
        blocked = block is not None
        t_free = eliminate and not lm & eliminate
        for i in (active_polys if monomial else active):
            ei = exps[i]
            d = eg - ei
            g = d & exp_guard
            lcm = ei + (d & (g - (g >> top)))
            if lcm != ei:
                kept.append(i)
            coprime = not supports[i] & support
            if coprime and (lms[i] + lm) & guard:
                # A coprime product past the limit, in the order key: it
                # can neither equal nor divide a valid lcm, so M and F need
                # not see it.
                coprime_dropped += 1
                continue
            represented = ((blocked and origin[i] == block)
                           or (t_free and origin[i] is not None and lms[i] & eliminate))
            group = groups.get(lcm)
            if group is None:
                groups[lcm] = [i, 1, coprime, represented]
            else:
                group[1] += 1
                group[2] += coprime
                group[3] = group[3] or represented
        minimal: list[int] = []
        survivors = []
        # A proper divisor has no larger exponent field, so it is the
        # smaller int: ascending, every proper divisor of an lcm comes first.
        for lcm in sorted(groups):
            i, size, coprime, represented = groups[lcm]
            for m in minimal:
                if not (lcm - m) & exp_guard:
                    chain += size
                    break
            else:
                minimal.append(lcm)
                if coprime:
                    coprime_dropped += coprime
                    chain += size - coprime
                elif represented:
                    chain += size
                else:
                    chain += size - 1
                    survivors.append((with_key(lcm), i))
        stats.discarded_chain += chain
        stats.discarded_coprime += coprime_dropped
        # In term order, so the heap's layout does not depend on the int
        # order of the exponent fields the groups were visited in.
        for lcm, i in sorted(survivors):
            push(lcm, i, j)
        if monomial:
            # kept holds the partners in(h) does not divide. The active
            # monomials were no partners: one divisibility test each keeps
            # those in(h) does not divide.
            active_polys = kept
            kept = [i for i in active if (exps[i] - e) & exp_guard]
        else:
            active_polys = None
        kept.append(j)
        active = kept

    seen = set()
    for prim, block in zip(prims, blocks or [None] * len(prims)):
        if prim not in seen:
            budget.check_deadline()
            seen.add(prim)
            install(prim, max(degree(m) for m, _ in prim), block)

    while heap:
        sugar, lcm, i, j, live = heapq.heappop(heap)
        if live is None:
            continue
        budget.tick()
        stats.pairs_processed += 1
        rem = reducer.reduce(_spoly(G[i], G[j], lcm))
        if not rem:
            stats.zero_reductions += 1
            continue
        install(_prim_from_dict(rem), sugar)
        stats.basis_added += 1

    if eliminate:
        G = [f for f in G if not f[0][0] & eliminate]
    return _interreduce(G, packing, budget)


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


def is_groebner_basis(polys: Sequence[Polynomial],
                      order: None = None,
                      budget: Optional[Budget] = None) -> GBCertificate:
    """Buchberger's criterion: every S-pair must reduce to 0 against polys.

    The walk runs on packed prims, in `_certificate_prims`, which says
    which pairs it skips and reduces, what it charges and why the pair it
    reports is the first failing one in (lcm, i, j) order. On failure the
    result carries that pair, 1-based, and its exact nonzero remainder by
    `divide`, the only place `Polynomial`s are built. The deadline is
    also checked once per element while the input is packed.

    `order` is kept for callers that pass the budget positionally; any
    value but None raises ValueError, since every ring has the one order.
    """
    polys = list(polys)
    if not polys or any(not f for f in polys):
        raise ValueError("is_groebner_basis needs nonzero polynomials")
    ring = polys[0].ring
    for f in polys:
        f._check_ring(ring)
    if order is not None:
        raise ValueError(f"{order!r} is not the order of {ring!r}")
    packing = _packing(ring.nvars)
    budget = budget or Budget()
    prims = []
    for f in polys:
        budget.check_deadline()
        prims.append(_prim_from_poly(f, packing))
    failing = _certificate_prims(prims, packing, budget)
    if failing is None:
        return GBCertificate(True, None, None)
    i, j = failing
    exact = divide(s_polynomial(polys[i], polys[j]), polys)
    return GBCertificate(False, (i + 1, j + 1), exact.remainder)


def _certificate_prims(prims, packing: _Packing, budget: Budget,
                       known: int = 0) -> Optional[tuple[int, int]]:
    """Buchberger's criterion on nonzero prims of one packing: None when
    every S-pair it must reduce reduces to 0 by the prims, else the first
    failing (0-based) pair (i, j) in (lcm, i, j) order.

    Pairs of monomials have S-polynomial 0 and pairs with coprime leading
    monomials always reduce to 0; both are skipped, and their lcms are
    never built. Of the other pairs, Buchberger's chain criterion (in the
    Gebauer-Moller form, J. Symb. Comput. 6, 1988) skips a pair (i, j)
    when some non-monomial element k has in(k) | lcm(i, j) while
    lcm(i, k) and lcm(j, k) both differ from lcm(i, j). Both lcms then
    properly divide lcm(i, j), and
    S(i, j) = c * (lcm(i, j) / lcm(i, k)) * S(i, k)
            + c' * (lcm(i, j) / lcm(j, k)) * S(j, k)
    has a representation below lcm(i, j) once S(i, k) and S(j, k) have
    ones below their lcms; by induction on the lcm, prims is a Groebner
    basis if every pair that is not skipped reduces to 0. The test
    lcm(i, k) != lcm(i, j) reads: the cofactors lcm/in(i) and lcm/in(k)
    share a variable. The cofactors of i and j never do, so the two tests
    also rule out k = i and k = j. Only the non-monomials are searched for
    k: they are few in the family bases, and a search over all elements
    skips a few more pairs but costs more than it saves.

    The test depends only on the exponent fields of the lcms and on the
    fixed list of non-monomials, not on the order pairs are walked in, so
    it runs while the pairs are built. Only the pairs it keeps get an
    order key, with its check against the packing limit, and are sorted
    and reduced in ascending (lcm, i, j) order; a skipped pair is dropped.
    The walk is the one that keys and sorts every pair and skips by the
    criterion as it goes, and the criterion never hides its first failing
    pair. Until the walk meets a nonzero remainder, every pair it passed,
    reduced or skipped, has a representation below its lcm. The descent
    in the proof of Buchberger's criterion then reduces any polynomial
    with a representation below the current lcm to 0, by any choice of
    divisors; so every pair the walk skipped, and every pair with a
    smaller lcm, reduces to 0. The first nonzero remainder of the walk is
    therefore the first in (lcm, i, j) order.

    `known` > 0 says that prims[:known] is a Groebner basis, for instance
    one that passed this walk: no pair with both indices below `known` is
    built or reduced. Each such pair has a standard representation by
    prims[:known], so by the descent above the full walk would reduce it
    to 0 wherever it met it before a failure. The pairs left are the full
    walk's other pairs, kept by the same chain test (whose elements k are
    the same) and reduced in the same order by the same divisors; so the
    verdict and the failing pair are the full walk's. When prims[known:]
    are monomials, as the core of `checks._core` is, the chain test keeps
    the same pairs inside prims[:known] as prims[:known]'s own walk does;
    a pass then charges the full walk's units minus that walk's.

    A kept pair of a binomial lm + t and a monomial, in either index
    order, has the one-term S-polynomial c * (lcm / lm) * t. It is not
    reduced but followed by `_one_term_walk`, whose verdict is the
    reduction's, so the verdict and the failing pair do not change. The
    divisors are fixed, so a monomial that one such walk proved stays
    proven for every later pair. A walk that meets a divisor of three or
    more terms hands its pair back to `_IntReducer.reduce`.

    Each pair reduced or walked counts one unit against the budget, as a
    reduction does in Buchberger's algorithm; skipped, monomial and
    coprime pairs are free, as discarded pairs are there. A kept pair
    whose lcm is past the packing limit raises OverflowError; a skipped
    one never gets an order key. The deadline is checked once per element
    while the pairs are built, once after the kept pairs are sorted, once
    per pair reduced or walked, and once per step of a one-term walk.
    """
    guard, exp_mask, exp_guard = packing.guard, packing.exp_mask, packing.exp_guard
    ones, with_key = packing.ones, packing.with_key
    exps = [p[0][0] & exp_mask for p in prims]
    supports = [packing.support(m) for m in exps]
    n = len(prims)
    # A monomial's S-polynomial with another monomial is 0, so it pairs
    # only with the non-monomials.
    non_monomials = [j for j in range(n) if len(prims[j]) > 1]
    chain = [exps[k] for k in non_monomials]
    kept = []
    for i in range(n):
        budget.check_deadline()
        ei, support = exps[i], supports[i]
        eg = ei | exp_guard
        first = max(i + 1, known)
        partners = (range(first, n) if len(prims[i]) > 1
                    else non_monomials[bisect_left(non_monomials, first):])
        for j in partners:
            if not support & supports[j]:
                continue
            # The SWAR pick of `_Packing.lcm` on the exponent fields, then
            # the supports of the cofactors lcm/in(i), lcm/in(j) and
            # lcm/in(k): a field is nonzero iff adding 2^15 - 1 sets its
            # guard bit.
            ej = exps[j]
            d = eg - ej
            g = d & exp_guard
            e = ej + (d & (g - (g >> (FIELD - 1))))
            si = (((e - ei) | exp_guard) - ones) & exp_guard
            sj = (((e - ej) | exp_guard) - ones) & exp_guard
            for ek in chain:
                d = e - ek
                if not d & exp_guard:
                    sk = ((d | exp_guard) - ones) & exp_guard
                    if sk & si and sk & sj:
                        break
            else:
                lcm = with_key(e)
                if lcm & guard:
                    raise _overflow()
                kept.append((lcm, i, j))
    kept.sort()
    budget.check_deadline()
    divisors = _Divisors(prims)
    reducer = _IntReducer(packing, divisors, budget)
    proven: set[int] = set()
    for lcm, i, j in kept:
        budget.tick()
        a, b = prims[i], prims[j]
        zero = None
        if len(a) + len(b) == 3:
            # A binomial and a monomial: S = c * (lcm / lm) * t.
            lm, t = (a if len(a) == 2 else b)
            zero = _one_term_walk(lcm - lm[0] + t[0], divisors, guard,
                                  proven, budget)
        if zero is None:
            zero = not reducer.reduce(_spoly(a, b, lcm))
        if not zero:
            return i, j
    return None


class Ideal:
    """Generator list with an optional cached reduced Groebner basis.

    The cache is write-once and holds only THE reduced basis, monic and in
    descending order of leading monomials, next to its packed form and the
    divisor list for membership; `ideal_equal` compares cached packed bases
    as tuples and relies on that. It is filled in two ways: `groebner()`
    computes it, and `_from_prims` receives a basis the kernel has already
    reduced. Generators are stored as given (zeroes dropped); an ideal made
    by `_from_terms` keeps them as packed terms, and one made by
    `_from_prims` has its packed basis as generators. Either builds its
    `Polynomial` generators only when `.gens` is read, and the former packs
    its terms into prims only when `_packed_gens` is first called.
    """

    __slots__ = ("ring", "_gens", "_terms", "_basis", "_gen_prims",
                 "_basis_prims", "_divisors")

    def __init__(self, ring: Ring, gens: Iterable[Polynomial] = ()):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self.ring = ring
        self._gens: Optional[tuple[Polynomial, ...]] = gens
        self._basis: Optional[tuple[Polynomial, ...]] = None
        self._terms = self._gen_prims = self._basis_prims = None
        self._divisors: Optional[_Divisors] = None

    @classmethod
    def _from_prims(cls, ring: Ring, prims) -> "Ideal":
        """The ideal with reduced basis `prims`, descending by leading monomial."""
        ideal = cls(ring)
        ideal._gens = None
        ideal._gen_prims = ideal._basis_prims = tuple(prims)
        return ideal

    @classmethod
    def _from_terms(cls, ring: Ring, terms) -> "Ideal":
        """The ideal generated by `terms`, each the packed terms of one
        generator, descending, with integer coefficients; empty ones are
        dropped."""
        ideal = cls(ring)
        ideal._gens, ideal._terms = None, tuple(t for t in terms if t)
        return ideal

    @property
    def gens(self) -> tuple[Polynomial, ...]:
        if self._gens is None and self._terms is not None:
            self._gens = _polynomials(self.ring, self._terms)
        return self.groebner() if self._gens is None else self._gens

    def groebner(self, budget: Optional[Budget] = None) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._basis = (reduced_groebner_basis(self.gens, budget=budget)
                           if self._basis_prims is None
                           else _monic_from_prims(self._basis_prims, self.ring))
        return self._basis

    def has_cached_basis(self) -> bool:
        return self._basis is not None or self._basis_prims is not None

    def _packed_gens(self) -> tuple:
        if self._gen_prims is None:
            packing = _packing(self.ring.nvars)
            self._gen_prims = (
                tuple(map(_prim_from_terms, self._terms)) if self._terms is not None
                else tuple(_prim_from_poly(g, packing) for g in self.gens))
        return self._gen_prims

    def _packed_basis(self, budget: Optional[Budget] = None) -> tuple:
        if self._basis_prims is None:
            # Every cached basis comes out of `_monic_from_prims`.
            self._basis_prims = tuple(g._prim for g in self.groebner(budget))
        return self._basis_prims

    def _reducer(self, budget: Optional[Budget] = None) -> _IntReducer:
        """A reducer by the reduced basis. The packed divisor list is built
        once, on first use, and shared by every later reducer together with
        its first-divisor memo."""
        packing = _packing(self.ring.nvars)
        if self._divisors is None:
            self._divisors = _Divisors(self._packed_basis(budget))
        return _IntReducer(packing, self._divisors, budget)

    def __repr__(self) -> str:
        inner = ", ".join(self.ring.format(g) for g in self.gens)
        return f"Ideal({inner})"


def member(f: Polynomial, I: Ideal, budget: Optional[Budget] = None) -> bool:
    """Ideal membership: the normal form of f against I vanishes."""
    f._check_ring(I.ring)
    if not f:
        return True
    reducer = I._reducer(budget)
    if not reducer.divisors.lms:
        return False
    return not reducer.reduce(dict(_prim_from_poly(f, reducer.packing)))


def _first_prim_product_outside(gs: Sequence, hs: Sequence, I: Ideal,
                                budget: Optional[Budget] = None
                                ) -> Optional[tuple[int, int]]:
    """The first (a, b), in row-major order, whose product gs[a]*hs[b] is
    not in I, or None when every product lies in I. The factors are prims
    of I's ring. A product is formed by adding packed monomials and reduced
    by I's basis, and the deadline is checked once per product. A zero
    factor, the empty prim, gives the zero product, which lies in I."""
    reducer = I._reducer(budget)
    for a, g in enumerate(gs):
        for b, h in enumerate(hs):
            if budget is not None:
                budget.check_deadline()
            if reducer.reduce(_product(g, h)):
                return a, b
    return None


def ideal_equal(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> bool:
    """Equality of the packed reduced bases, which are unique and whose
    prims are canonical. J's basis is computed first, then I's."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    J._packed_basis(budget)
    return I._packed_basis(budget) == J._packed_basis(budget)


def minimal_generators(I: Ideal, budget: Optional[Budget] = None) -> tuple[Polynomial, ...]:
    """Trim a homogeneous generating set to a minimal one.

    A generator is dropped iff it lies in the ideal of the remaining ones;
    the size and degree multiset of the result are invariants of I.
    """
    for g in I.gens:
        if not g.is_homogeneous():
            raise ValueError("minimal_generators needs homogeneous generators")
    ring = I.ring
    gens = sorted((g.monic() for g in I.gens),
                  key=lambda g: (g.total_degree(), g.terms[0].mono.key))
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
