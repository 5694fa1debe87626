import functools
import inspect
import random
from fractions import Fraction

import pytest

from detlink import groebner, idealops
from detlink.groebner import (GBStats, Ideal, _packing, _prim_from_dict,
                              _prim_from_poly)
from detlink.rings import Monomial, Ring
from reference import quotient_all_products, quotient_in_order


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_monomial(ring: Ring, rng: random.Random, max_exp: int = 3) -> Monomial:
    nv = ring.nvars
    vec = [0] * nv
    for _ in range(rng.randint(0, 4)):
        vec[rng.randrange(nv)] += rng.randint(0, max_exp)
    return ring.monomial(vec)


def random_poly(ring: Ring, rng: random.Random, terms: int = 4, max_exp: int = 2):
    d = {}
    for _ in range(rng.randint(1, terms)):
        m = random_monomial(ring, rng, max_exp)
        d[m] = d.get(m, Fraction(0)) + Fraction(rng.randint(-6, 6),
                                                rng.choice([1, 1, 1, 2, 3]))
    return ring.poly(d)


def random_nonzero_poly(ring: Ring, rng: random.Random, terms: int = 4,
                        max_exp: int = 2):
    while True:
        f = random_poly(ring, rng, terms, max_exp)
        if f:
            return f


def elimination_input(fs, gs):
    """The input `intersect` eliminates t from, as prims and their packing:
    t*f for f in fs and (1-t)*g for g in gs, in the layout of
    `_intersect_prims`, t as variable 0 above the ring's variables. Each
    term is lifted through its `Monomial`, not by the kernel's shifts."""
    nvars = fs[0].ring.nvars
    packing, epacking = _packing(nvars), _packing(nvars + 1, 1)

    def lift(f, k):
        """t^k * f as packed terms."""
        return [(epacking.pack(Monomial((k,) + packing.unpack(m).exps)), c)
                for m, c in _prim_from_poly(f, packing)]

    prims = [_prim_from_dict(dict(lift(f, 1))) for f in fs]
    prims += [_prim_from_dict(dict(lift(g, 0) + [(m, -c) for m, c in lift(g, 1)]))
              for g in gs]
    return prims, epacking


def fold_orders(gens):
    """gens in the order given, reversed, and in three seeded shuffles."""
    gens = list(gens)
    return [gens, gens[::-1]] + [random.Random(seed).sample(gens, len(gens))
                                 for seed in range(3)]


def assert_fold_order_free(I, gens) -> None:
    """I : (gens) by `quotient` equals the given-order fold of `reference`
    under each of `fold_orders`, and `quotient` under each order too."""
    ring = I.ring
    want = idealops.quotient(I, Ideal(ring, gens)).gens
    for order in fold_orders(gens):
        assert quotient_in_order(I, order).gens == want
        assert idealops.quotient(I, Ideal(ring, order)).gens == want


def assert_matches_all_products(I, J) -> None:
    """`quotient(I, J)` runs the eliminations of `reference`'s all-products
    fold, as many, and gives its result: the skip test on the kept part of
    out makes the same decisions as the test on all of out."""
    want, eliminations = quotient_all_products(I, J)
    calls = []
    real = idealops._intersect_prims

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(idealops, "_intersect_prims", counting)
        got = idealops.quotient(I, J)
    assert got.gens == want.gens
    assert len(calls) == eliminations


def count_gb_stats(monkeypatch) -> GBStats:
    """GBStats summed over every `_groebner_prims` call from now on, both
    the reduced bases of `groebner` and the eliminations of `idealops`."""
    real = groebner._groebner_prims
    signature = inspect.signature(real)
    total = GBStats()

    @functools.wraps(real)
    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        stats = bound.arguments.get("stats")
        if stats is None:
            bound.arguments["stats"] = stats = GBStats()
        before = dict(vars(stats))
        out = real(*bound.args, **bound.kwargs)
        for name, count in before.items():
            setattr(total, name, getattr(total, name) + getattr(stats, name) - count)
        return out

    monkeypatch.setattr(groebner, "_groebner_prims", counting)
    monkeypatch.setattr(idealops, "_groebner_prims", counting)
    return total
