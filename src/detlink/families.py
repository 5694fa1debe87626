"""Constructors for the explicit ideal families under verification.

Everything lives in the standard grevlex ring Q[x_1..x_n, y_1..y_n,
z_1..z_n]: the 2x2 minors of the generic 2xn matrix, the consecutive-minor
chain and its link, the n binomial generator families with their omitted-
index subfamilies, the squarefree monomial sets attached to each family,
the extended generator sets whose Groebner property is certified, the index
automorphisms that carry each subfamily onto the chain, and rational matrix
specializations of the full minor list.

Each family is built once per width, by a private cached builder, as a
tuple of Polynomials, which are never modified in place. The monomial
sets are the exception: `_packed_monomial_sets` builds them as the
kernel's packed monomials, the only form of them the checks read.
`Polynomial` monomials are built from it
(`_monomial_sets`) only for the public views over the sets: M_polys,
G_union_M, link_ideal and sum_links_ideal. The public constructors are
views: each call returns a fresh list, dict or Ideal over the builders'
tuples, so a caller may mutate what it gets. No Ideal is cached: an Ideal
caches its reduced basis, and a shared one would let one check's basis
decide what the next check computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .groebner import Ideal, _packing
from .rings import Monomial, Polynomial, Ring, Term


@lru_cache(maxsize=None)
def standard_ring(n: int) -> Ring:
    """Shared grevlex ring for width n."""
    return Ring(n)


def xyz_monomial(ring: Ring, xs: Iterable[int] = (), ys: Iterable[int] = (),
                 zs: Iterable[int] = ()) -> Monomial:
    """Squarefree product of the named x-, y- and z-variables."""
    exps = {}
    for block, idxs in (("x", xs), ("y", ys), ("z", zs)):
        for i in idxs:
            pos = ring.pos(block, i)
            if pos in exps:
                raise ValueError(f"repeated index {i} in block {block}")
            exps[pos] = 1
    return ring.monomial(exps)


def window_products(ring: Ring, window: Sequence[int], zs: Iterable[int] = ()
                    ) -> list[tuple[tuple[int, ...], Monomial]]:
    """Every X_K * Y_L * Z with (K, L) a two-set partition of the window.

    Returns (K, monomial) pairs, K by size and then lexicographically; Z is
    the squarefree product of the z-variables named in zs.
    """
    zs = tuple(zs)
    return [(K, xyz_monomial(ring, xs=K, ys=[v for v in window if v not in K],
                             zs=zs))
            for r in range(len(window) + 1)
            for K in itertools.combinations(window, r)]


def _require_width(n: int) -> None:
    if n < 4:
        raise ValueError(f"this family needs n >= 4, got {n}")


def _index(n: int, i: int) -> int:
    """Position i - 1 of the i-th generator or link, 1 <= i <= n, n >= 4."""
    _require_width(n)
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for n={n}")
    return i - 1


def _link(n: int, i: int) -> tuple[tuple[int, int], tuple[int, ...],
                                   tuple[int, ...]]:
    """Index data of the i-th link: the minor pair of g_i (larger index
    first), the x/y index window (every index outside that pair) and the
    z-set (every index but i)."""
    _index(n, i)
    if i == 1:
        pair = (2, 1)
    elif i == n:
        pair = (n, n - 1)
    else:
        pair = (i + 1, i - 1)
    span = range(1, n + 1)
    return (pair, tuple(v for v in span if v not in pair),
            tuple(v for v in span if v != i))


# -- builders: each family once per width, as tuples -------------------------


@lru_cache(maxsize=None)
def _minors(n: int) -> tuple[tuple[Polynomial, ...], ...]:
    """delta(i, j) in row i - 1, column j - 1, for 1 <= i, j <= n, built
    from its two terms x_i*y_j and -x_j*y_i in the ring's order."""
    ring = standard_ring(n)
    one = Fraction(1)
    xy = [[ring.monomial({ring.pos("x", i): 1, ring.pos("y", j): 1})
           for j in range(1, n + 1)] for i in range(1, n + 1)]

    def minor(i: int, j: int) -> Polynomial:
        if i == j:
            return ring.zero
        u, v = Term(one, xy[i][j]), Term(-one, xy[j][i])
        return Polynomial(ring, (u, v) if u.mono.key > v.mono.key else (v, u))

    return tuple(tuple(minor(i, j) for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _generators(n: int) -> tuple[Polynomial, ...]:
    """g_1, ..., g_n: z_i times the minor of link i's pair."""
    z, rows = standard_ring(n).z, _minors(n)
    pairs = [_link(n, i)[0] for i in range(1, n + 1)]
    return tuple(z(i) * rows[a - 1][b - 1] for i, (a, b) in enumerate(pairs, 1))


@lru_cache(maxsize=None)
def _chains(n: int) -> tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]:
    """(g_{1,1}, ..., g_{1,n-1}) and (g_{2,n}, ..., g_{n,n})."""
    _require_width(n)
    ring, rows = standard_ring(n), _minors(n)

    def times(xs=(), ys=(), zs=()):
        return ring.from_monomial(xyz_monomial(ring, xs, ys, zs))

    first = tuple(times(xs=range(1, j), zs=range(1, j + 1)) * rows[j][j - 1]
                  for j in range(1, n))
    second = tuple(times(ys=range(j + 1, n + 1), zs=range(j, n + 1))
                   * rows[j - 1][j - 2] for j in range(2, n + 1))
    return first, second


@lru_cache(maxsize=None)
def _packed_variables(n: int) -> tuple[int, ...]:
    """The variables of the width-n ring as packed monomials of its order,
    by exponent position: x_1..x_n, y_1..y_n, z_1..z_n."""
    nvars = 3 * n
    pack = _packing(nvars).pack
    return tuple(pack(Monomial(tuple(int(p == q) for p in range(nvars))))
                 for q in range(nvars))


def _packed_xyz(n: int, xs: Iterable[int] = (), ys: Iterable[int] = (),
                zs: Iterable[int] = ()) -> int:
    """`xyz_monomial` as a packed monomial, without its checks: indices are
    distinct and in [1, n]. Packed monomials multiply by adding, so the
    product of squarefree variables is their sum."""
    v = _packed_variables(n)
    return (sum(v[i - 1] for i in xs) + sum(v[n + i - 1] for i in ys)
            + sum(v[2 * n + i - 1] for i in zs))


@lru_cache(maxsize=None)
def _packed_monomial_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """M_1, ..., M_n as packed monomials of the ring's order, each in
    descending order.

    Each monomial is the z-part of its link plus x_k or y_k for each k of
    the window. The products are squarefree, so no field reaches the
    packing limit, and packed ints compare as the order does.
    """
    v = _packed_variables(n)
    out = []
    for i in range(1, n + 1):
        _, window, zs = _link(n, i)
        monos = [_packed_xyz(n, zs=zs)]
        for k in window:
            x, y = v[k - 1], v[n + k - 1]
            monos = [m + u for m in monos for u in (x, y)]
        out.append(tuple(sorted(monos, reverse=True)))
    return tuple(out)


def _monomials(ring: Ring, packed: Iterable[int]) -> tuple[Polynomial, ...]:
    """Packed monomials of ring's order as monomial Polynomials, in order."""
    unpack, one = _packing(ring.nvars).unpack, Fraction(1)
    return tuple(Polynomial(ring, (Term(one, unpack(m)),)) for m in packed)


@lru_cache(maxsize=None)
def _monomial_sets(n: int) -> tuple[tuple[Polynomial, ...], ...]:
    """M_1, ..., M_n as monomial Polynomials, each in descending order."""
    ring = standard_ring(n)
    return tuple(_monomials(ring, ms) for ms in _packed_monomial_sets(n))


@lru_cache(maxsize=None)
def _chain_link_monomials(n: int) -> tuple[Polynomial, ...]:
    """X_{[2,j-1]} * Y_{[j,n-1]} for j in [2, n]."""
    ring = standard_ring(n)
    return tuple(ring.from_monomial(xyz_monomial(ring, xs=range(2, j),
                                                 ys=range(j, n)))
                 for j in range(2, n + 1))


# -- the public constructors: fresh views over the builders ------------------


def delta(i: int, j: int, n: int) -> Polynomial:
    """The 2x2 minor x_i*y_j - x_j*y_i; zero on the diagonal."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"minor indices ({i},{j}) out of range for n={n}")
    return _minors(n)[i - 1][j - 1]


def minors_ideal(n: int) -> Ideal:
    """All C(n,2) minors delta(i,j) for i < j."""
    rows = _minors(n)
    return Ideal(standard_ring(n), [rows[i][j] for i in range(n)
                                    for j in range(i + 1, n)])


def g_generator(n: int, i: int) -> Polynomial:
    """g_1 = z_1*delta(2,1), g_n = z_n*delta(n,n-1), else g_i = z_i*delta(i+1,i-1)."""
    return _generators(n)[_index(n, i)]


def gens_a(n: int) -> Ideal:
    """The full n-generator family (g_1, ..., g_n)."""
    return Ideal(standard_ring(n), _generators(n))


def sub_a(n: int, i: int) -> Ideal:
    """The family with g_i omitted."""
    k, gs = _index(n, i), _generators(n)
    return Ideal(standard_ring(n), gs[:k] + gs[k + 1:])


def M_polys(n: int, i: int) -> list[Polynomial]:
    """All 2^(n-2) monomials X_K * Y_L * Z attached to the i-th link, as
    monomial Polynomials in descending order.

    K and L run over the two-set partitions of the index window; the
    z-part is the full squarefree z-product with z_i omitted.
    """
    return list(_monomial_sets(n)[_index(n, i)])


def link_ideal(n: int, i: int) -> Ideal:
    """The i-th link presented by its proven generators: sub_a(n,i) + M_polys(n,i)."""
    k, gs = _index(n, i), _generators(n)
    return Ideal(standard_ring(n), gs[:k] + gs[k + 1:] + _monomial_sets(n)[k])


def chain_g(n: int) -> tuple[dict[int, Polynomial], dict[int, Polynomial]]:
    """The two telescoping generator chains.

    Returns ({j: g_{1,j}} for 1 <= j <= n-1, {j: g_{j,n}} for 2 <= j <= n);
    g_{1,1} coincides with g_1 and g_{n,n} with g_n.
    """
    first, second = _chains(n)
    return dict(enumerate(first, 1)), dict(enumerate(second, 2))


def set_G(n: int) -> list[Polynomial]:
    """The 3n-4 element extended generator set: g's plus both chains."""
    first, second = _chains(n)
    return [*_generators(n), *first[1:], *second[:-1]]


def G_union_M(n: int) -> list[Polynomial]:
    """set_G(n) followed by every M_polys(n, i) monomial, i = 1..n in turn.

    This order fixes the 1-based witness indices of a certificate on the set.
    """
    return set_G(n) + list(itertools.chain.from_iterable(_monomial_sets(n)))


def sum_links_ideal(n: int) -> Ideal:
    """Sum of all n link ideals: (g_1..g_n) plus every M_polys monomial."""
    monomials = itertools.chain.from_iterable(_monomial_sets(n))
    return Ideal(standard_ring(n), [*_generators(n), *monomials])


def chain_ideal(n: int) -> Ideal:
    """Consecutive-minor chain (delta(1,2), delta(2,3), ..., delta(n-1,n))."""
    rows = _minors(n)
    return Ideal(standard_ring(n), [rows[t - 1][t] for t in range(1, n)])


def chain_link(n: int) -> tuple[Ideal, Ideal]:
    """The consecutive-minor chain and its link.

    The link adds one squarefree monomial per bidegree, canonically the
    prefix/suffix products X_{[2,j-1]} * Y_{[j,n-1]} for j in [2, n].
    """
    _require_width(n)
    chain = chain_ideal(n)
    return chain, Ideal(chain.ring, chain.gens + _chain_link_monomials(n))


@dataclass(frozen=True)
class IndexPermutation:
    """Bijection of [1, n] acting on x- and y-indices simultaneously."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(1, self.n + 1)):
            raise ValueError(f"not a bijection of [1,{self.n}]: {self.image}")

    def __call__(self, i: int) -> int:
        return self.image[i - 1]


def apply_permutation(perm: IndexPermutation, f: Polynomial) -> Polynomial:
    """Relabel x- and y-indices of f by the permutation; z's stay fixed."""
    n = f.ring.n
    if perm.n != n:
        raise ValueError("permutation width does not match the ring")
    moved = {}
    for i in range(1, n + 1):
        j = perm(i)
        moved[i - 1] = j - 1
        moved[n + i - 1] = n + j - 1
    d = {}
    for c, m in f.terms:
        vec = [0] * f.ring.nvars
        for pos, exp in enumerate(m.exps):
            if exp:
                vec[moved.get(pos, pos)] = exp
        d[Monomial(tuple(vec))] = c
    return f.ring._from_dict(d)


def phi_permutation(n: int, case_i: int) -> IndexPermutation:
    """Index automorphism carrying the family without g_{case_i} onto the chain.

    Up to sign, the images of the remaining minors exhaust the consecutive
    minors delta(t, t+1), 1 <= t <= n-1. The formula branches on case_i in
    {1, 2, n-1, n} and, in between, on the parity of case_i.
    """
    _index(n, case_i)
    img = [0] * (n + 1)
    if case_i == n:
        if n % 2:
            m = (n + 1) // 2
            for i in range(1, n + 1):
                img[i] = m + (i - 1) // 2 if i % 2 else m - i // 2
        else:
            m = n // 2
            for i in range(1, n + 1):
                img[i] = m - (i - 1) // 2 if i % 2 else m + i // 2
    elif case_i == n - 1:
        img[n] = n
        if n % 2:
            m = (n - 1) // 2
            for i in range(1, n):
                img[i] = m - (i - 1) // 2 if i % 2 else m + i // 2
        else:
            m = n // 2
            for i in range(1, n):
                img[i] = m + (i - 1) // 2 if i % 2 else m - i // 2
    elif case_i == 1:
        for i in range(1, n + 1):
            img[i] = 1 + (i - 1) // 2 if i % 2 else n + 1 - i // 2
    elif case_i == 2:
        img[1] = 1
        for i in range(2, n + 1):
            img[i] = n + 1 - (i - 1) // 2 if i % 2 else 1 + i // 2
    elif case_i % 2 == 0:
        k = case_i // 2
        for j in range(1, n + 1):
            if j % 2:
                img[j] = n - k + (j + 1) // 2 if j <= case_i - 1 else (j + 1) // 2 - k
            else:
                img[j] = n - k + 1 - j // 2
    else:
        k = (case_i - 1) // 2
        for j in range(1, n + 1):
            if j % 2 == 0:
                img[j] = n - k + j // 2 if j <= case_i - 1 else j // 2 - k
            else:
                img[j] = n - k - (j - 1) // 2
    return IndexPermutation(n, tuple(img[1:]))


def minor_pair(n: int, i: int) -> tuple[int, int]:
    """Index pair of the minor inside g_i (larger index first)."""
    return _link(n, i)[0]


def minor_list(n: int) -> list[Polynomial]:
    """All C(n,2) minors in the specialization order.

    The first n are the minors of g_1..g_n; the remaining ones are
    delta(b, a) for the unused pairs a < b, sorted lexicographically by
    (a, b). Every entry is monic.
    """
    _require_width(n)
    pairs = [minor_pair(n, i) for i in range(1, n + 1)]
    used = {frozenset(p) for p in pairs}
    rest = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
            if frozenset((a, b)) not in used]
    pairs += [(b, a) for a, b in sorted(rest)]
    return [delta(a, b, n) for a, b in pairs]


def generic_residual(n: int, B: Sequence[Sequence[int | Fraction]]) -> tuple[Ideal, Ideal]:
    """Specialized generator matrix product: a_j = sum_i B[i][j] * minor_i.

    B must be r x n with r = C(n,2) and exact rational entries. Returns
    (the specialized ideal, the full minors ideal).
    """
    _require_width(n)
    r = n * (n - 1) // 2
    if len(B) != r or any(len(row) != n for row in B):
        raise ValueError(f"matrix must be {r}x{n}")
    ring = standard_ring(n)
    gs = minor_list(n)
    a = []
    for j in range(n):
        acc = ring.zero
        for i in range(r):
            acc = acc + gs[i] * Fraction(B[i][j])
        a.append(acc)
    return Ideal(ring, a), Ideal(ring, gs)
