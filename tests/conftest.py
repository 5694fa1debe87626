import random
from fractions import Fraction

import pytest

from detlink.groebner import _packing, _prim_from_dict, _prim_from_poly
from detlink.rings import Monomial, Ring


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
