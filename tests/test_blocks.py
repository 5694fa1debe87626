"""Eliminations that start from known Groebner bases.

`_groebner_prims` takes a private `blocks` argument: inputs that share a
label form a Groebner basis, and no pair inside such a block is pushed.
The reduced basis is unique, so with blocks the result must equal the
result without them and that of the reference path without criteria, and
its t-free part must be what `_groebner_prims` returns, interreduced: with
`eliminate` it returns the minimal elements whose leading monomial is free
of t, not tail-reduced, which must have the reduced t-free part's leading
monomials.
Inputs: the eliminations t*G + (1-t)*G' that `intersect` runs on the
paper's families, with G and G' reduced bases; those that the colon fold
runs for the link colons, with G the reduced basis of I and G' = g times
the reduced basis of the colon so far; and small random ideals drawn by
hypothesis (derandomized), of degree at most 2 so that the reference path
stays fast. On the same random ideals, the colon fold must give one result
whatever the order of the generators it visits.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from detlink import idealops
from detlink.families import (chain_ideal, delta, gens_a, generic_residual,
                              minors_ideal, sub_a)
from detlink.groebner import (GBStats, Ideal, _groebner_prims,
                              _interreduce, _monic_from_prims, _packing,
                              _prim_from_dict, is_groebner_basis,
                              reduced_groebner_basis)
from detlink.idealops import quotient, quotient_by_poly
from detlink.rings import Monomial, Ring

from conftest import (assert_fold_order_free, assert_matches_all_products,
                      elimination_input)


T = 0xFFFF     # the exponent field of t, variable 0 of the elimination layout


def assert_minimal_basis_of(raw, reduced, packing):
    """raw, an output of `_groebner_prims(..., eliminate=T)`, is a minimal
    basis: no leading monomial of it divides another's. Its leading
    monomials are those of the reduced basis `reduced`, and interreduced
    it is `reduced`."""
    lms = [f[0][0] for f in raw]
    assert all((a - b) & packing.guard
               for i, a in enumerate(lms) for j, b in enumerate(lms) if i != j)
    assert sorted(lms, reverse=True) == [f[0][0] for f in reduced]
    assert _interreduce(raw, packing) == reduced


def _all_agree(basis_f, basis_g, labels=(0, 1)):
    """Run t*basis_f + (1-t)*basis_g with the sides as blocks labels[0] and
    labels[1] (None: plain generators), without blocks and without
    criteria, and keep only the t-free part with blocks; returns the stats
    with and without blocks."""
    prims, packing = elimination_input(basis_f, basis_g)
    blocks = [labels[0]] * len(basis_f) + [labels[1]] * len(basis_g)
    plain, blocked = GBStats(), GBStats()
    want = _groebner_prims(prims, packing, stats=plain)
    assert _groebner_prims(prims, packing, stats=blocked, blocks=blocks) == want
    assert _groebner_prims(prims, packing, criteria=False, blocks=blocks) == want
    assert_minimal_basis_of(_groebner_prims(prims, packing, blocks=blocks, eliminate=T),
                            [f for f in want if not f[0][0] & T], packing)
    return plain, blocked


def _colon_parts():
    # Two principal colons of the minors.
    minors = minors_ideal(4)
    return tuple(quotient_by_poly(minors, g).groebner() for g in gens_a(4).gens[:2])


def _probe_family():
    # The first draw of `detlink verify --n 4 --seed 0`'s probe stream.
    rng = random.Random("0/random-specialization")
    aB, I = generic_residual(4, [[rng.randint(-50, 50) for _ in range(4)]
                                 for _ in range(6)])
    return aB.groebner(), I.groebner()[:1]


FAMILY_CASES = {
    "sub_a(5, 1) and delta(1, 2)": lambda: (sub_a(5, 1).groebner(), [delta(1, 2, 5)]),
    "a(4) and the minors": lambda: (gens_a(4).groebner(), minors_ideal(4).groebner()),
    "two colon parts": _colon_parts,
    "probe family and one minor": _probe_family,
}


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_family_eliminations_agree(case):
    plain, blocked = _all_agree(*FAMILY_CASES[case]())
    for stats in (plain, blocked):
        assert stats.pairs_processed == stats.zero_reductions + stats.basis_added
    assert blocked.pairs_processed <= plain.pairs_processed


_FOLDS = {}


def _fold_eliminations(n):
    """The two sides of every elimination the colon fold runs for the link
    colons sub_a(n, i) : I_2, i = 1..n, as polynomials: I_2's reduced
    basis and g times the reduced basis of the colon so far."""
    if n not in _FOLDS:
        recorded = []
        real = idealops._intersect_prims

        def spy(ring, sides, based, budget=None):
            recorded.append(tuple(_monic_from_prims(side, ring) for side in sides))
            return real(ring, sides, based, budget)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(idealops, "_intersect_prims", spy)
            for i in range(1, n + 1):
                quotient(sub_a(n, i), minors_ideal(n))
        _FOLDS[n] = recorded
    return _FOLDS[n]


@pytest.mark.parametrize("n", [4, 5])
def test_fold_products_are_groebner_bases(n):
    # in(g*h) = in(g)*in(h), so g times a Groebner basis is one: the fold
    # may pass it as a block.
    eliminations = _fold_eliminations(n)
    assert any(len(g_out) > 1 for _, g_out in eliminations)
    for _, g_out in eliminations:
        assert is_groebner_basis(g_out)


@pytest.mark.parametrize("n", [4, 5])
def test_fold_eliminations_agree(n):
    for basis, g_out in _fold_eliminations(n):
        plain, blocked = _all_agree(basis, g_out)
        assert blocked.pairs_processed <= plain.pairs_processed


def test_fold_counts_pinned(monkeypatch):
    # chain(5) : I_2 runs three eliminations, each from I_2's reduced basis
    # and g times the colon so far as two blocks, with the minors g visited
    # by ascending leading monomial. Summed over the three; with g*out as
    # plain generators 77 pairs would be pushed.
    calls, total = [], GBStats()
    real = idealops._groebner_prims

    def counting(*args, **kwargs):
        stats = GBStats()
        out = real(*args, stats=stats, **kwargs)
        calls.append(stats)
        for name in vars(stats):
            setattr(total, name, getattr(total, name) + getattr(stats, name))
        return out

    monkeypatch.setattr(idealops, "_groebner_prims", counting)
    assert len(quotient(chain_ideal(5), minors_ideal(5)).groebner()) == 8
    assert len(calls) == 3
    assert total == GBStats(pairs_pushed=76, pairs_processed=73,
                            discarded_coprime=0, discarded_chain=267,
                            zero_reductions=51, basis_added=22)


def test_criteria_off_ignores_blocks():
    prims, packing = elimination_input(gens_a(4).groebner(), minors_ideal(4).groebner())
    plain, blocked = GBStats(), GBStats()
    _groebner_prims(prims, packing, criteria=False, stats=plain)
    _groebner_prims(prims, packing, criteria=False, stats=blocked,
                    blocks=[0] * len(prims))
    assert plain == blocked


def test_t_free_rule_spares_unblocked_elements():
    # f = t*x1 - y1 enters unblocked and w = x1 after it; w is t-free and
    # in(f) holds t, but no block represents their S-pair, -y1, which is
    # the only way to y1. The elimination ideal of (f, w) is (x1, y1).
    ring = Ring(2)
    packing = _packing(ring.nvars + 1, 1)

    def lift(f, k):
        """t^k * f, of integer coefficients, as packed terms of the
        elimination layout."""
        return [(packing.pack(Monomial((k,) + m.exps)), int(c)) for c, m in f.terms]

    x1, y1 = ring.x(1), ring.y(1)
    prims = [_prim_from_dict(dict(lift(x1, 1) + lift(-y1, 0))),
             _prim_from_dict(dict(lift(x1, 0)))]
    want = [_prim_from_dict(dict(lift(f, 0))) for f in (x1, y1)]
    assert_minimal_basis_of(_groebner_prims(prims, packing, criteria=False, eliminate=T),
                            want, packing)
    for blocks in (None, [None, None]):
        assert_minimal_basis_of(
            _groebner_prims(prims, packing, blocks=blocks, eliminate=T), want, packing)


R = Ring(2)
SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])


def _poly(terms):
    d = {}
    for positions, c in terms:
        m = R.monomial([positions.count(p) for p in range(R.nvars)])
        d[m] = d.get(m, 0) + c
    return R.poly(d)


# Terms of degree 0 to 2, so that most draws are not homogeneous.
_terms = st.tuples(st.lists(st.integers(0, R.nvars - 1), max_size=2),
                   st.integers(-3, 3).filter(bool))
_polys = st.lists(_terms, min_size=1, max_size=3).map(_poly).filter(bool)
_gens = st.lists(_polys, min_size=1, max_size=3)


@SETTINGS
@given(_gens, _gens)
def test_random_eliminations_agree(F, G):
    _all_agree(reduced_groebner_basis(F), reduced_groebner_basis(G))


@SETTINGS
@given(_gens, _gens)
def test_random_eliminations_with_one_plain_side_agree(F, G):
    # One side cached, the other plain generators, as `intersect` passes an
    # ideal without a cached basis: a new t-free element drops its pairs
    # with the cached side's block only.
    _all_agree(reduced_groebner_basis(F), G, (0, None))
    _all_agree(F, reduced_groebner_basis(G), (None, 1))


@SETTINGS
@given(_gens, _gens)
def test_random_colons_are_order_free(F, G):
    assert_fold_order_free(Ideal(R, F), G)


@SETTINGS
@given(_gens, _gens)
def test_random_colons_match_all_products_fold(F, G):
    assert_matches_all_products(Ideal(R, F), Ideal(R, G))


@SETTINGS
@given(_gens)
def test_random_single_block_agrees(F):
    # A non-basis side enters as plain generators next to a block.
    basis = reduced_groebner_basis(F)
    prims, packing = elimination_input(basis, F)
    blocks = [0] * len(basis) + [None] * len(F)
    assert (_groebner_prims(prims, packing, blocks=blocks)
            == _groebner_prims(prims, packing))
