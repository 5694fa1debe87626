"""The kernel's first-divisor memo and the certificate's pair filter, chain
criterion and two-term walks against references that have none of them; the
certificate's budget charges under every cap against a walk that keys and
sorts every pair and charges one unit per pair it divides; the walk that
skips the pairs inside a known Groebner basis against the full walk; the
walks of `checks._core` against full reductions; and `_two_term_walk`
itself against `_IntReducer.reduce` on lists of monomials and binomials
with coefficients 1 and ±1, Groebner bases or not.

Small polynomials in the first four variables are drawn by hypothesis,
derandomized so every run checks the same examples; so few variables make
repeated monomials, shared divisors and non-Groebner inputs common. The
certificate runs on the grevlex ring Q[x1, x2, y1, y2, z1, z2]; the memo
also runs on prims of the elimination layout of `_intersect_prims`, which
the eliminations' reducers use, and there the reducer that scans only the
t-free divisors for a t-free monomial is checked against the full scan on
the inputs `intersect` eliminates t from.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from detlink import checks, groebner
from detlink.families import G_union_M
from detlink.groebner import (Budget, BudgetExceeded, _IntReducer,
                              _certificate_prims, _packing, _prim_from_dict,
                              _prim_from_poly, divide,
                              is_groebner_basis, reduced_groebner_basis,
                              s_polynomial)
from detlink.rings import Monomial, Ring

import reference
from conftest import elimination_input
from reference import divides, is_coprime, lcm

R = Ring(2)
# (variable count, elimination block size): R's grevlex layout and the
# elimination layout over it.
LAYOUTS = ((6, 0), (7, 1))
NVARS = 4

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])


def _poly(terms):
    d = {}
    for positions, c in terms:
        m = R.monomial([positions.count(p) for p in range(R.nvars)])
        d[m] = d.get(m, 0) + c
    return R.poly(d)


def _terms_of(max_terms):
    return st.lists(st.tuples(st.lists(st.integers(0, NVARS - 1), max_size=3),
                              st.integers(-3, 3).filter(bool)),
                    min_size=1, max_size=max_terms)


_terms = _terms_of(3)
# Nonzero polynomials of degree <= 3 with at most three terms.
_polys = _terms.map(_poly).filter(bool)
# The same with at most two terms.
_short_polys = _terms_of(2).map(_poly).filter(bool)
# Monomials of degree 1 to 3.
_monomials = st.lists(st.integers(0, NVARS - 1), min_size=1, max_size=3).map(
    lambda positions: _poly([(positions, 1)]))


def _prim(packing, nvars, terms):
    """The prim of the polynomial with these terms, or None for 0."""
    d = {}
    for positions, c in terms:
        m = packing.pack(Monomial(tuple(positions.count(p) for p in range(nvars))))
        d[m] = d.get(m, 0) + c
    d = {m: c for m, c in d.items() if c}
    return _prim_from_dict(d) if d else None


def _first_divisor(m, lms, guard):
    """Index of the first leading monomial that divides m, or None."""
    return next((i for i, lm in enumerate(lms) if not (m - lm) & guard), None)


@st.composite
def _interleavings(draw):
    """A packing and a list of ("append" | "reduce", prim) steps."""
    nvars, head = draw(st.sampled_from(LAYOUTS))
    packing = _packing(nvars, head)
    prims = _terms.map(lambda terms: _prim(packing, nvars, terms)).filter(bool)
    steps = draw(st.lists(st.tuples(st.sampled_from(("append", "reduce")), prims),
                          min_size=1, max_size=12))
    return packing, steps


@SETTINGS
@given(_interleavings())
def test_memo_matches_a_memo_free_scan(drawn):
    packing, steps = drawn
    guard = packing.guard
    reducer = _IntReducer(packing)
    divisors = reducer.divisors
    appended = []
    for op, prim in steps:
        if op == "append":
            reducer.append(prim)
            appended.append(prim)
            continue
        # Within one reduce the leading term strictly descends, so a reducer
        # with a fresh memo never consults it: it is a memo-free scan.
        fresh = _IntReducer(packing)
        for divisor in appended:
            fresh.append(divisor)
        assert reducer.reduce(dict(prim)) == fresh.reduce(dict(prim))
        for m, idx in divisors.memo.items():
            first = _first_divisor(m, divisors.lms, guard)
            if idx >= 0:
                assert idx == first
            else:
                assert ~idx <= len(divisors.lms)
                assert first is None or first >= ~idx


T = 0xFFFF     # the exponent field of t, variable 0 of the elimination layout


@st.composite
def _elimination_runs(draw):
    """The input `intersect` eliminates t from, for small drawn sides, and
    a list of steps over it: ("pair", i, j), the S-polynomial of two
    divisors so far, as Buchberger's loop reduces them; ("reduce", prim)
    and ("append", prim) for prims of the elimination layout, with t or
    without."""
    fs = draw(st.lists(_polys, min_size=1, max_size=3))
    gs = draw(st.lists(_polys, min_size=1, max_size=3))
    prims, packing = elimination_input(fs, gs)
    drawn = _terms.map(lambda terms: _prim(packing, R.nvars + 1, terms)).filter(bool)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("pair"), st.integers(0, 30), st.integers(0, 30)),
        st.tuples(st.sampled_from(("reduce", "append")), drawn)),
        min_size=1, max_size=12))
    return packing, prims, steps


@SETTINGS
@given(_elimination_runs())
def test_t_free_scan_matches_the_full_scan(drawn):
    # An elimination's reducer scans only the divisors free of t for a
    # t-free monomial. Against a reducer that scans every divisor, on the
    # same divisors appended in the same order, every remainder and every
    # memo entry must agree, hits with the first divisor of a linear scan
    # and misses with the divisors scanned, after appends as well.
    packing, prims, steps = drawn
    guard = packing.guard
    masked = _IntReducer(packing, groebner._Divisors(prims, eliminate=T))
    full = _IntReducer(packing, groebner._Divisors(prims))
    divisors = list(prims)

    def append(prim):
        masked.append(prim)
        full.append(prim)
        divisors.append(prim)

    for step in steps:
        if step[0] == "append":
            append(step[1])
            continue
        if step[0] == "pair":
            a, b = divisors[step[1] % len(divisors)], divisors[step[2] % len(divisors)]
            p = groebner._spoly(a, b, packing.lcm(a[0][0], b[0][0]))
        else:
            p = dict(step[1])
        rem = masked.reduce(dict(p))
        assert rem == full.reduce(dict(p))
        if rem:
            append(_prim_from_dict(rem))
        lms = masked.divisors.lms
        assert masked.divisors.free == [i for i, lm in enumerate(lms) if not lm & T]
        assert masked.divisors.memo == full.divisors.memo
        for m, idx in masked.divisors.memo.items():
            first = _first_divisor(m, lms, guard)
            if idx >= 0:
                assert idx == first
            else:
                assert first is None or first >= ~idx


def test_memo_pinned():
    x, y, z = R.x(1), R.y(1), R.z(1)
    packing = _packing(R.nvars)
    reducer = _IntReducer(packing)
    reducer.append(_prim_from_poly(x ** 2, packing))
    xy = dict(_prim_from_poly(x * y, packing))
    (m, _), = xy.items()
    assert reducer.reduce(dict(xy)) == xy
    assert reducer.divisors.memo[m] == ~1
    # The miss is resolved by a divisor appended later: x*y -> x*z.
    reducer.append(_prim_from_poly(y - z, packing))
    assert reducer.reduce(dict(xy)) == dict(_prim_from_poly(x * z, packing))
    assert reducer.divisors.memo[m] == 1
    # A later divisor that also divides x*y does not displace the hit.
    reducer.append(_prim_from_poly(x * y - z ** 2, packing))
    assert reducer.reduce(dict(xy)) == dict(_prim_from_poly(x * z, packing))
    assert reducer.divisors.memo[m] == 1


def _reference_certificate(polys):
    """Every pair, sorted by (lcm, i, j) in the ring's order, divided with
    exact rational arithmetic; the first nonzero remainder fails."""
    pairs = sorted((lcm(polys[i].terms[0].mono, polys[j].terms[0].mono).key, i, j)
                   for i in range(len(polys)) for j in range(i + 1, len(polys)))
    for _, i, j in pairs:
        rem = divide(s_polynomial(polys[i], polys[j]), polys).remainder
        if rem:
            return False, (i + 1, j + 1), rem
    return True, None, None


# Exactly two terms.
_binomials = _terms_of(2).map(_poly).filter(lambda f: len(f.terms) == 2)
# Three linear terms: the leading variable divides many monomials.
_linear_trinomials = st.lists(
    st.tuples(st.lists(st.integers(0, NVARS - 1), min_size=1, max_size=1),
              st.integers(-3, 3).filter(bool)),
    min_size=3, max_size=3).map(_poly).filter(lambda f: len(f.terms) == 3)


@st.composite
def _binomials_and_monomials(draw):
    """Binomials and monomials, now and then with a linear trinomial, in a
    drawn order, so a pair of a binomial and a monomial comes in either
    index order and its S-polynomial is followed by a one-term walk. Most
    of these sets fail. In half the draws the set is replaced by its
    reduced basis plus elements m*f + c*g of its ideal (m a monomial or 1,
    f and g in the basis), most of which then pass; those of three or more
    terms are the divisors a walk hands to the reducer."""
    polys = (draw(st.lists(_binomials, min_size=1, max_size=3))
             + draw(st.lists(_monomials, min_size=1, max_size=3))
             + draw(st.lists(_linear_trinomials, max_size=1)))
    if draw(st.booleans()):
        try:
            basis = list(reduced_groebner_basis(polys, budget=Budget(max_pairs=200)))
        except BudgetExceeded:
            assume(False)
        element = st.sampled_from(basis)
        combos = draw(st.lists(st.tuples(st.one_of(st.just(R.one), _monomials),
                                         element, element, st.integers(-2, 2)),
                               max_size=3))
        polys = basis + [f for f in (m * f + c * g for m, f, g, c in combos) if f]
    assume(len(polys) >= 2)
    return draw(st.permutations(polys))


def _walk_cases():
    """Sets whose certificate walks a binomial-monomial pair first: x1*x2
    before x1*y1 - x2*y2, S-polynomial -x2^2*y2. With x2^2 the walk ends at
    0; with nothing dividing x2^2*y2 it fails there; with the trinomial
    x2^2 - y1*y2 + 2*y1^2 it meets a divisor of three terms and hands the
    pair to the reducer."""
    x1, x2, y1, y2 = R.x(1), R.x(2), R.y(1), R.y(2)
    f, m = x1 * y1 - x2 * y2, x1 * x2
    return [[m, f, x2 ** 2], [m, f], [m, f, x2 ** 2 - y1 * y2 + 2 * y1 ** 2]]


@settings(SETTINGS, max_examples=300)
@given(st.one_of(st.lists(_polys, min_size=2, max_size=5),
                 _binomials_and_monomials()))
def test_certificate_matches_brute_force(polys):
    assert tuple(is_groebner_basis(polys)) == _reference_certificate(polys)


@pytest.mark.parametrize("case", range(3))
def test_certificate_walks_pinned(case, monkeypatch):
    polys = _walk_cases()[case]
    verdicts = []
    walk = groebner._two_term_walk
    monkeypatch.setattr(groebner, "_two_term_walk",
                        lambda *args: verdicts.append(walk(*args)) or verdicts[-1])
    assert tuple(is_groebner_basis(polys)) == _reference_certificate(polys)
    assert verdicts[0] is (True, False, None)[case]


@st.composite
def _redundant_bases(draw):
    """A reduced basis of a drawn ideal with monomial multiples of its
    non-monomials added, so the chain criterion has elements k to use; in
    half the draws one multiple is changed by a drawn polynomial, which
    makes most of those candidates fail."""
    gens = draw(st.lists(_polys, min_size=2, max_size=3))
    try:
        basis = list(reduced_groebner_basis(gens, budget=Budget(max_pairs=200)))
    except BudgetExceeded:
        assume(False)
    non_monomials = [f for f in basis if len(f.terms) > 1]
    assume(non_monomials)
    monomial = st.lists(st.integers(0, NVARS - 1), min_size=1, max_size=2).map(
        lambda positions: _poly([(positions, 1)]))
    extra = draw(st.lists(st.tuples(monomial, st.sampled_from(non_monomials)),
                          min_size=1, max_size=4))
    polys = basis + [m * f for m, f in extra]
    if draw(st.booleans()):
        k = draw(st.integers(len(basis), len(polys) - 1))
        polys[k] = polys[k] + draw(_polys)
    polys = [f for f in polys if f]
    assume(len(polys) >= 2)
    return draw(st.permutations(polys))


@SETTINGS
@given(_redundant_bases())
def test_certificate_with_redundant_elements_matches_brute_force(polys):
    assert tuple(is_groebner_basis(polys)) == _reference_certificate(polys)


def _reference_walk(polys, budget):
    """The certificate walk that keys and sorts every pair it sees: each
    pair that is not a pair of monomials and whose leading monomials share
    a variable, in (lcm, i, j) order with the lcm compared by
    `Monomial.key`. One that the chain criterion skips is passed over
    free; the others tick the budget and are divided exactly."""
    lms = [f.terms[0].mono for f in polys]
    chain = [lms[k] for k, f in enumerate(polys) if len(f) > 1]
    pairs = sorted((lcm(lms[i], lms[j]).key, i, j)
                   for i in range(len(polys)) for j in range(i + 1, len(polys))
                   if (len(polys[i]) > 1 or len(polys[j]) > 1)
                   and not is_coprime(lms[i], lms[j]))
    for _, i, j in pairs:
        m = lcm(lms[i], lms[j])
        if any(divides(k, m) and lcm(lms[i], k) != m and lcm(lms[j], k) != m
               for k in chain):
            continue
        budget.tick()
        rem = divide(s_polynomial(polys[i], polys[j]), polys).remainder
        if rem:
            return False, (i + 1, j + 1), rem
    return True, None, None


def _capped(walk, polys, cap):
    """(result or "budget-exceeded", units charged) of a walk under a cap."""
    budget = Budget(max_pairs=cap)
    try:
        result = tuple(walk(polys, budget))
    except BudgetExceeded:
        result = "budget-exceeded"
    return result, budget.pairs


def _assert_same_under_every_cap(polys):
    budget = Budget()
    _reference_walk(polys, budget)
    for cap in range(budget.pairs + 2):
        assert (_capped(lambda p, b: is_groebner_basis(p, budget=b), polys, cap)
                == _capped(_reference_walk, polys, cap))


@settings(SETTINGS, max_examples=80)
@given(_redundant_bases())
def test_budget_contract_under_every_cap(polys):
    # The certificate keys and sorts only the pairs the chain criterion
    # keeps; verdict, witness, remainder and the units charged, or the
    # cap's BudgetExceeded, must be those of the walk over every pair,
    # which charges one unit per pair it divides.
    # About half the draws pass and half fail, and the criterion skips
    # pairs in about half, some of them before the witness.
    _assert_same_under_every_cap(polys)


def test_budget_contract_under_every_cap_pinned():
    # A skipped pair before the witness (the walk passes (2, 4), skips
    # (1, 4) by k = 2 and fails at (2, 3): 2 units), and a passing set with
    # most pairs skipped, G u M(4): 71 of the 134 pairs walked are reduced,
    # and only they are charged.
    x1, y1, y2, z1, z2 = R.x(1), R.y(1), R.y(2), R.z(1), R.z(2)
    f = 3 * y1 - 2 * z2
    _assert_same_under_every_cap([x1 * z2, f, y1 * y2 * z1 * f + 9 * x1, y1 * z2 * f])
    _assert_same_under_every_cap(G_union_M(4))


@st.composite
def _bases_and_monomials(draw):
    """A reduced Groebner basis of a drawn ideal followed by drawn monomials,
    which make it fail its certificate in about a third of the draws."""
    gens = draw(st.lists(_polys, min_size=1, max_size=3))
    try:
        basis = list(reduced_groebner_basis(gens, budget=Budget(max_pairs=200)))
    except BudgetExceeded:
        assume(False)
    return basis, draw(st.lists(_monomials, min_size=1, max_size=4))


@SETTINGS
@given(_bases_and_monomials())
def test_walk_past_a_known_basis_matches_the_full_walk(drawn):
    # The walk that skips the pairs inside the known basis fails at the full
    # certificate's pair, or passes with it; on a pass the basis's own
    # units and the walk's add up to the full certificate's.
    basis, monomials = drawn
    packing = _packing(R.nvars)
    prims = [_prim_from_poly(f, packing) for f in basis + monomials]
    own, walk, full = Budget(), Budget(), Budget()
    assert is_groebner_basis(basis, budget=own).ok
    failing = _certificate_prims(prims, packing, walk, known=len(basis))
    cert = is_groebner_basis(basis + monomials, budget=full)
    assert cert.witness == (None if failing is None
                            else (failing[0] + 1, failing[1] + 1))
    if cert.ok:
        assert own.pairs + walk.pairs == full.pairs


def _packed_core(G, monos):
    """`checks._core` on Polynomial monomials; its core as Polynomials."""
    packing = _packing(R.nvars)
    core = checks._core(G, [_prim_from_poly(f, packing)[0][0] for f in monos],
                        Budget())
    if core is None:
        return None
    return [R.from_monomial(packing.unpack(m)) for m in core]


@SETTINGS
@given(st.lists(st.one_of(_short_polys, _short_polys, _polys), min_size=1,
                max_size=5),
       st.lists(_monomials, min_size=1, max_size=12))
def test_core_walks_match_full_reductions(G, monos):
    # `_core` follows one-term walks by their monomial and stops at one an
    # earlier walk took to 0; the reference reduces every rest monomial in
    # full with `_IntReducer`. Drawn divisors are mostly monomials and
    # binomials, now and then a trinomial, which `_core` hands to the
    # reducer.
    assert _packed_core(G, monos) == reference.core(G, monos, Budget())


def test_core_walks_pinned(monkeypatch):
    x1, x2, y1, y2, z1, z2 = R.x(1), R.x(2), R.y(1), R.y(2), R.z(1), R.z(2)
    calls = []
    reduce = _IntReducer.reduce
    monkeypatch.setattr(_IntReducer, "reduce",
                        lambda self, p: calls.append(dict(p)) or reduce(self, p))
    G = [x1 * x2 - y1 * y2, y1 * y2 - z1 * z2, x2 ** 3 - y1 * y2 * z2 - z1 ** 2 * z2]
    # z1 is core. x1*x2 -> y1*y2 -> z1*z2 -> 0 by z1 proves all three, so
    # the rest monomial y1*y2 takes no step, and x1*x2*y2 stops after one
    # at y1*y2^2 ... -> 0. Only x2^3, whose divisor has three terms, is
    # reduced by the reducer.
    monos = [x1 * x2, z1, y1 * y2, x1 * x2 * y2, x2 ** 3]
    assert _packed_core(G, monos) == [z1]
    assert calls == [{_prim_from_poly(x2 ** 3, _packing(R.nvars))[0][0]: 1}]
    assert reference.core(G, monos, Budget()) == [z1]
    # Without the core monomial z1, the walk of x1*x2 ends at z1*z2, which
    # no divisor divides: no core.
    calls.clear()
    assert _packed_core(G, [x1 * x2, y1 * y2]) is None
    assert not calls


# Binomials with coefficients 1 and ±1: with the monomials, the divisors
# `_two_term_walk` takes.
_unit_binomials = st.tuples(_monomials, _monomials, st.sampled_from((1, -1))).map(
    lambda drawn: drawn[0] + drawn[2] * drawn[1]).filter(lambda f: len(f.terms) == 2)


@st.composite
def _unit_divisors(draw):
    """Monomials and binomials with coefficients 1 and ±1 in a drawn order,
    where the first divisor of a monomial is often not its only one; in
    half the draws the reduced basis of their ideal, in a drawn order. In
    a third of the draws one divisor the walk does not take, a binomial
    with other coefficients or a trinomial, joins at a drawn place."""
    polys = draw(st.lists(st.one_of(_unit_binomials, _unit_binomials, _monomials),
                          min_size=1, max_size=6))
    if draw(st.booleans()):
        try:
            basis = reduced_groebner_basis(polys, budget=Budget(max_pairs=200))
        except BudgetExceeded:
            assume(False)
        polys = draw(st.permutations(basis))
    if draw(st.integers(0, 2)) == 0:
        odd = draw(st.one_of(_binomials.filter(lambda f: abs(f.terms[1].coeff)
                                               != abs(f.terms[0].coeff)),
                             _linear_trinomials))
        polys.insert(draw(st.integers(0, len(polys))), odd)
    return polys


def _takes(prim) -> bool:
    """Whether prim is a divisor `_two_term_walk` takes."""
    return len(prim) == 1 or (len(prim) == 2 and prim[0][1] == 1
                              and prim[1][1] in (1, -1))


@SETTINGS
@given(_unit_divisors(), st.lists(st.tuples(_short_polys, st.booleans()),
                                  min_size=1, max_size=6))
def test_two_term_walks_match_the_reducer(divisors, dividends):
    # One divisor list and one proven set for every dividend, as the
    # certificate and the product tests keep them; the terms come in either
    # order. Each verdict is that of a reducer of its own. The walk hands a
    # dividend back only where it meets a divisor it does not take.
    packing = _packing(R.nvars)
    prims = [_prim_from_poly(f, packing) for f in divisors]
    shared, proven = groebner._Divisors(prims), set()
    for f, swap in dividends:
        prim = _prim_from_poly(f, packing)
        (a, ca), (b, cb) = prim if len(prim) == 2 else (prim[0], (0, 0))
        if swap and cb:
            a, ca, b, cb = b, cb, a, ca
        zero = groebner._two_term_walk(a, ca, b, cb, shared, packing.guard,
                                       proven, Budget())
        want = not _IntReducer(packing, groebner._Divisors(prims)).reduce(dict(prim))
        if zero is None:
            assert not all(map(_takes, prims))
        else:
            assert zero == want


def test_two_term_walks_pinned(monkeypatch):
    x1, x2, y1, y2, z1, z2 = R.x(1), R.x(2), R.y(1), R.y(2), R.z(1), R.z(2)
    packing = _packing(R.nvars)

    def walk(divisors, *terms, proven=None):
        """The walk of the one-term polynomials terms, added, by divisors."""
        prims = [_prim_from_poly(d, packing) for d in divisors]
        packed = [(packing.pack(f.terms[0].mono), int(f.terms[0].coeff)) for f in terms]
        (a, ca), (b, cb) = packed if len(packed) == 2 else (packed[0], (0, 0))
        return groebner._two_term_walk(a, ca, b, cb, groebner._Divisors(prims),
                                       packing.guard,
                                       set() if proven is None else proven, Budget())

    # x1*x2 -> y1*y2 meets -y1*y2 and they cancel.
    assert walk([x1 * x2 - y1 * y2], x1 * x2, -y1 * y2) is True
    # x1*x2 + y1*y2 -> 2*y1*y2, which no divisor divides.
    assert walk([x1 * x2 - y1 * y2], x1 * x2, y1 * y2) is False
    # ... unless y1 divides it: the monomial divisor drops the merged term.
    assert walk([x1 * x2 - y1 * y2, y1], x1 * x2, y1 * y2) is True
    # The larger term x1*x2 is dropped by x1, then z1*z2 escapes.
    assert walk([x1, y1 * y2 - z1 * z2], z1 * z2, x1 * x2) is False
    # The first divisor decides: x1 - y1 before x1 - z1 takes x1*z2 to
    # y1*z2, which nothing divides, though x1 - z1 would take it to z1*z2.
    assert walk([x1 - y1, x1 - z1, z1], x1 * z2) is False
    assert walk([x1 - z1, x1 - y1, z1], x1 * z2) is True
    # A one-term walk to 0 proves the monomials it met; a walk through
    # one of them stops there.
    proven = set()
    assert walk([x1 - y1, y1 - z1, z1], x1 * x2, proven=proven) is True
    assert {packing.unpack(m) for m in proven} == {
        (x1 * x2).terms[0].mono, (y1 * x2).terms[0].mono, (z1 * x2).terms[0].mono}
    # Divisors the walk does not take: a coefficient 2, a trinomial.
    assert walk([x1 - 2 * y1], x1 * z2) is None
    assert walk([x1 - y1 - z1], x1 * z2) is None
    assert walk([x2, x1 - y1 - z1], x1 * z2, x2) is None


@SETTINGS
@given(_unit_divisors().filter(lambda polys: len(polys) >= 2))
def test_certificate_of_unit_binomials_matches_brute_force(polys):
    # Pairs of two binomials and of a binomial and a monomial are walked,
    # with two terms or one.
    assert tuple(is_groebner_basis(polys)) == _reference_certificate(polys)
