"""Sugar pair selection against normal selection.

`reduced_groebner_basis` pops pairs by (sugar, lcm, i, j). With
`_Packing.degree` patched to return 0 every sugar is 0, and the heap
orders pairs by lcm alone: the normal strategy. Reduced bases are unique,
so both selections must return the same basis, as must the reference path
without criteria. Inputs: the paper's homogeneous families, the
non-homogeneous elimination input t*aB + (1-t)*(f) of one probe matrix,
and small random ideals drawn by hypothesis (derandomized) as in
`tests/test_differential.py`, both as they are and embedded in t*I +
(1-t)*J.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from detlink.families import G_union_M, gens_a, generic_residual
from detlink.groebner import (GBStats, _groebner_prims, _Packing,
                              reduced_groebner_basis)
from detlink.rings import Ring

from conftest import elimination_input


def _normal_selection(monkeypatch, gb, *args, **kwargs):
    """gb(*args, **kwargs) with every sugar 0."""
    with monkeypatch.context() as patch:
        patch.setattr(_Packing, "degree", lambda self, m: 0)
        return gb(*args, **kwargs)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_family_bases_agree(n, monkeypatch):
    gens = gens_a(n).gens
    assert reduced_groebner_basis(gens) == _normal_selection(
        monkeypatch, reduced_groebner_basis, gens)


def test_sum_family_bases_agree(monkeypatch):
    gens = G_union_M(4)
    assert reduced_groebner_basis(gens) == _normal_selection(
        monkeypatch, reduced_groebner_basis, gens)


def test_probe_elimination_agrees(monkeypatch):
    # The first draw of `detlink verify --n 4 --seed 0`'s probe stream, and
    # the intersection of its family with the first minor.
    rng = random.Random("0/random-specialization")
    B = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(6)]
    aB, I = generic_residual(4, B)
    gens = elimination_input(aB.gens, I.gens[:1])
    sugar, normal = GBStats(), GBStats()
    basis = _groebner_prims(*gens, stats=sugar)
    assert basis == _normal_selection(monkeypatch, _groebner_prims, *gens, stats=normal)
    # The input is not homogeneous, so the two selections differ in work.
    assert sugar.pairs_processed != normal.pairs_processed


R = Ring(2)
SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


def _poly(terms):
    d = {}
    for positions, c in terms:
        m = R.monomial([positions.count(p) for p in range(R.nvars)])
        d[m] = d.get(m, 0) + c
    return R.poly(d)


# Terms of degree 0 to 3, so that most draws are not homogeneous.
_terms = st.tuples(st.lists(st.integers(0, R.nvars - 1), max_size=3),
                   st.integers(-3, 3).filter(bool))
_polys = st.lists(_terms, min_size=1, max_size=3).map(_poly).filter(bool)
_gens = st.lists(_polys, min_size=1, max_size=3)


@SETTINGS
@given(_gens)
def test_random_bases_agree(monkeypatch, gens):
    basis = reduced_groebner_basis(gens)
    assert basis == _normal_selection(monkeypatch, reduced_groebner_basis, gens)
    assert basis == reduced_groebner_basis(gens, criteria=False)


@SETTINGS
@given(_gens, _gens)
def test_random_eliminations_agree(monkeypatch, F, G):
    gens = elimination_input(F, G)
    basis = _groebner_prims(*gens)
    assert basis == _normal_selection(monkeypatch, _groebner_prims, *gens)
    assert basis == _groebner_prims(*gens, criteria=False)
