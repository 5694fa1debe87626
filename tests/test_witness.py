"""The certificate's failure witness against a brute-force reference.

`is_groebner_basis` walks the pairs in (lcm, i, j) order, skips pairs by
the chain criterion and reports the first pair whose S-polynomial leaves
a nonzero remainder. The reference here reduces every pair that is not a
pair of monomials and whose leading monomials share a variable, in the
same order with the lcm compared by `Monomial.key`, with no
criterion, and returns the first nonzero remainder. Both must name the
same pair with the same remainder. Inputs are drawn by hypothesis,
derandomized: small sets over `Ring(2)`, and G u M(4) with one element
perturbed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from detlink.families import G_union_M, standard_ring
from detlink.groebner import divide, is_groebner_basis, s_polynomial
from detlink.rings import Ring

from reference import is_coprime, lcm

R = Ring(2)
SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _reference(polys):
    """(1-based witness, remainder) of the first failing pair, or None."""
    lms = [f.terms[0].mono for f in polys]
    pairs = sorted(
        (lcm(lms[i], lms[j]).key, i, j)
        for i in range(len(polys)) for j in range(i + 1, len(polys))
        if (len(polys[i]) > 1 or len(polys[j]) > 1)
        and not is_coprime(lms[i], lms[j]))
    for _, i, j in pairs:
        rem = divide(s_polynomial(polys[i], polys[j]), polys).remainder
        if rem:
            return (i + 1, j + 1), rem
    return None


def _assert_same_witness(polys):
    cert = is_groebner_basis(polys)
    expected = _reference(polys)
    if expected is None:
        assert cert.ok and cert.witness is None and cert.remainder is None
    else:
        assert not cert.ok
        assert (cert.witness, cert.remainder) == expected


def _poly(ring, terms):
    d = {}
    for positions, c in terms:
        m = ring.monomial([positions.count(p) for p in range(ring.nvars)])
        d[m] = d.get(m, 0) + c
    return ring.poly(d)


# A term is up to three variable positions and a small coefficient.
_terms = st.tuples(st.lists(st.integers(0, R.nvars - 1), max_size=3),
                   st.integers(-3, 3).filter(bool))
_polys = st.lists(_terms, min_size=1, max_size=3).map(
    lambda terms: _poly(R, terms)).filter(bool)


@SETTINGS
@given(st.lists(_polys, min_size=2, max_size=5))
def test_small_sets_match_reference(polys):
    _assert_same_witness(polys)


GM4 = G_union_M(4)
R4 = standard_ring(4)
_terms4 = st.tuples(st.lists(st.integers(0, R4.nvars - 1), max_size=3),
                    st.integers(-2, 2).filter(bool))


@settings(SETTINGS, max_examples=25)
@given(st.integers(0, len(GM4) - 1), st.lists(_terms4, min_size=1, max_size=2))
def test_perturbed_family_matches_reference(index, terms):
    polys = list(GM4)
    perturbed = polys[index] + _poly(R4, terms)
    if perturbed:
        polys[index] = perturbed
        _assert_same_witness(polys)
