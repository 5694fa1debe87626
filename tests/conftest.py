import random
from fractions import Fraction

import pytest

from detlink.idealops import _elim_ring
from detlink.rings import Monomial, Ring


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_monomial(ring: Ring, rng: random.Random, max_exp: int = 3) -> Monomial:
    nv = ring.space.nvars
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
    """t*f for f in fs and (1-t)*g for g in gs in the elimination ring: the
    input `intersect` eliminates t from, with t as variable 0."""
    E = _elim_ring(fs[0].ring)
    t = E.t(1)

    def embed(f):
        return E.poly({E.monomial((0,) + m.exps): c for c, m in f.terms})

    return [t * embed(f) for f in fs] + [(E.one - t) * embed(g) for g in gs]
