"""Constructors for the explicit ideal families under verification.

Everything lives in the standard grevlex ring Q[x_1..x_n, y_1..y_n,
z_1..z_n]: the 2x2 minors of the generic 2xn matrix, the consecutive-minor
chain and its link, the n binomial generator families with their omitted-
index subfamilies, the squarefree monomial sets attached to each family,
the extended generator sets whose Groebner property is certified, the index
automorphisms that carry each subfamily onto the chain, and rational matrix
specializations of the full minor list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .groebner import Ideal
from .rings import Monomial, Polynomial, Ring


@lru_cache(maxsize=None)
def standard_ring(n: int) -> Ring:
    """Shared grevlex ring for width n."""
    return Ring(n)


def _rng_list(a: int, b: int) -> list[int]:
    """Integer interval [a, b]; empty when a > b."""
    return list(range(a, b + 1))


def xyz_monomial(ring: Ring, xs: Iterable[int] = (), ys: Iterable[int] = (),
                 zs: Iterable[int] = ()) -> Monomial:
    """Squarefree product of the named x-, y- and z-variables."""
    space = ring.space
    exps = {}
    for block, idxs in (("x", xs), ("y", ys), ("z", zs)):
        for i in idxs:
            pos = space.pos(block, i)
            if pos in exps:
                raise ValueError(f"repeated index {i} in block {block}")
            exps[pos] = 1
    return ring.monomial(exps)


def delta(i: int, j: int, n: int) -> Polynomial:
    """The 2x2 minor x_i*y_j - x_j*y_i; zero on the diagonal."""
    ring = standard_ring(n)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"minor indices ({i},{j}) out of range for n={n}")
    if i == j:
        return ring.zero
    return ring.x(i) * ring.y(j) - ring.x(j) * ring.y(i)


def minors_ideal(n: int) -> Ideal:
    """All C(n,2) minors delta(i,j) for i < j."""
    return Ideal(standard_ring(n), [delta(i, j, n) for i in range(1, n + 1)
                                    for j in range(i + 1, n + 1)])


def _require_width(n: int) -> None:
    if n < 4:
        raise ValueError(f"this family needs n >= 4, got {n}")


def g_generator(n: int, i: int) -> Polynomial:
    """g_1 = z_1*delta(2,1), g_n = z_n*delta(n,n-1), else g_i = z_i*delta(i+1,i-1)."""
    _require_width(n)
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return standard_ring(n).z(i) * delta(*minor_pair(n, i), n)


def gens_a(n: int) -> Ideal:
    """The full n-generator family (g_1, ..., g_n)."""
    return Ideal(standard_ring(n), [g_generator(n, i) for i in range(1, n + 1)])


def sub_a(n: int, i: int) -> Ideal:
    """The family with g_i omitted."""
    _require_width(n)
    if not 1 <= i <= n:
        raise ValueError(f"omitted index {i} out of range for n={n}")
    return Ideal(standard_ring(n), [g_generator(n, k)
                                    for k in range(1, n + 1) if k != i])


def m_ij(n: int, i: int, j: int) -> Monomial:
    """The distinguished squarefree monomial m_{i,j} of the i-th link."""
    _require_width(n)
    ring = standard_ring(n)
    if i == 1:
        if not 3 <= j <= n + 1:
            raise ValueError(f"m_(1,j) needs 3 <= j <= {n + 1}")
        return xyz_monomial(ring, xs=_rng_list(3, j - 1), ys=_rng_list(j, n),
                            zs=_rng_list(2, n))
    if i == n:
        if not 1 <= j <= n - 1:
            raise ValueError(f"m_({n},j) needs 1 <= j <= {n - 1}")
        return xyz_monomial(ring, xs=_rng_list(1, j - 1), ys=_rng_list(j, n - 2),
                            zs=_rng_list(1, n - 1))
    if not 2 <= i <= n - 1:
        raise ValueError(f"row index {i} out of range for n={n}")
    if not 1 <= j <= n + 1:
        raise ValueError(f"m_({i},j) needs 1 <= j <= {n + 1}")
    cut = {i - 1, i + 1}
    return xyz_monomial(ring,
                        xs=[v for v in _rng_list(1, j - 1) if v not in cut],
                        ys=[v for v in _rng_list(j, n) if v not in cut],
                        zs=[v for v in _rng_list(1, n) if v != i])


def m_ij_range(n: int, i: int) -> list[int]:
    """Valid second indices of m_{i,j}."""
    _require_width(n)
    if i == 1:
        return _rng_list(3, n + 1)
    if i == n:
        return _rng_list(1, n - 1)
    if not 2 <= i <= n - 1:
        raise ValueError(f"row index {i} out of range for n={n}")
    return _rng_list(1, n + 1)


def M_set(n: int, i: int) -> list[Monomial]:
    """All 2^(n-2) monomials X_K * Y_L * Z attached to the i-th link.

    K and L run over the two-set partitions of the index window; the
    z-part is the full squarefree z-product with z_i omitted.
    """
    _require_width(n)
    ring = standard_ring(n)
    if i == 1:
        base, zs = _rng_list(3, n), _rng_list(2, n)
    elif i == n:
        base, zs = _rng_list(1, n - 2), _rng_list(1, n - 1)
    elif 2 <= i <= n - 1:
        base = [v for v in _rng_list(1, n) if v not in (i - 1, i + 1)]
        zs = [v for v in _rng_list(1, n) if v != i]
    else:
        raise ValueError(f"row index {i} out of range for n={n}")
    out = []
    for r in range(len(base) + 1):
        for K in itertools.combinations(base, r):
            L = [v for v in base if v not in K]
            out.append(xyz_monomial(ring, xs=K, ys=L, zs=zs))
    key = ring.order.key
    out.sort(key=key, reverse=True)
    return out


def link_ideal(n: int, i: int) -> Ideal:
    """The i-th link presented by its proven generators: sub_a(n,i) + M_set(n,i)."""
    ring = standard_ring(n)
    return Ideal(ring, list(sub_a(n, i).gens)
                 + [ring.from_monomial(m) for m in M_set(n, i)])


def chain_g(n: int) -> tuple[dict[int, Polynomial], dict[int, Polynomial]]:
    """The two telescoping generator chains.

    Returns ({j: g_{1,j}} for 1 <= j <= n-1, {j: g_{j,n}} for 2 <= j <= n);
    g_{1,1} coincides with g_1 and g_{n,n} with g_n.
    """
    _require_width(n)
    ring = standard_ring(n)
    first = {}
    for j in range(1, n):
        coeff = xyz_monomial(ring, xs=_rng_list(1, j - 1), zs=_rng_list(1, j))
        first[j] = ring.from_monomial(coeff) * delta(j + 1, j, n)
    second = {}
    for j in range(2, n + 1):
        coeff = xyz_monomial(ring, ys=_rng_list(j + 1, n), zs=_rng_list(j, n))
        second[j] = ring.from_monomial(coeff) * delta(j, j - 1, n)
    return first, second


def set_G(n: int) -> list[Polynomial]:
    """The 3n-4 element extended generator set: g's plus both chains."""
    first, second = chain_g(n)
    out = [g_generator(n, i) for i in range(1, n + 1)]
    out += [first[j] for j in range(2, n)]
    out += [second[j] for j in range(2, n)]
    return out


def G_union_M(n: int) -> list[Polynomial]:
    """set_G(n) followed by every M_set(n, i) monomial, i = 1..n in turn.

    This order fixes the 1-based witness indices of a certificate on the set.
    """
    ring = standard_ring(n)
    out = set_G(n)
    for i in range(1, n + 1):
        out += [ring.from_monomial(m) for m in M_set(n, i)]
    return out


def sum_links_ideal(n: int) -> Ideal:
    """Sum of all n link ideals: (g_1..g_n) plus every M_set monomial."""
    ring = standard_ring(n)
    gens = [g_generator(n, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        gens += [ring.from_monomial(m) for m in M_set(n, i)]
    return Ideal(ring, gens)


def chain_ideal(n: int) -> Ideal:
    """Consecutive-minor chain (delta(1,2), delta(2,3), ..., delta(n-1,n))."""
    return Ideal(standard_ring(n), [delta(t, t + 1, n) for t in range(1, n)])


def chain_link(n: int) -> tuple[Ideal, Ideal]:
    """The consecutive-minor chain and its link.

    The link adds one squarefree monomial per bidegree, canonically the
    prefix/suffix products X_{[2,j-1]} * Y_{[j,n-1]} for j in [2, n].
    """
    _require_width(n)
    ring = standard_ring(n)
    chain = chain_ideal(n)
    mons = [xyz_monomial(ring, xs=_rng_list(2, j - 1), ys=_rng_list(j, n - 1))
            for j in range(2, n + 1)]
    link = Ideal(ring, list(chain.gens) + [ring.from_monomial(m) for m in mons])
    return chain, link


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

    @classmethod
    def identity(cls, n: int) -> "IndexPermutation":
        return cls(n, tuple(range(1, n + 1)))


def apply_permutation(perm: IndexPermutation, f: Polynomial) -> Polynomial:
    """Relabel x- and y-indices of f by the permutation; z's stay fixed."""
    space = f.ring.space
    if perm.n != space.n:
        raise ValueError("permutation width does not match the ring")
    e, n = space.elim_count, space.n
    moved = {}
    for i in range(1, n + 1):
        j = perm(i)
        moved[e + i - 1] = e + j - 1
        moved[e + n + i - 1] = e + n + j - 1
    d = {}
    for c, m in f.terms:
        vec = [0] * space.nvars
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
    _require_width(n)
    if not 1 <= case_i <= n:
        raise ValueError(f"case index {case_i} out of range for n={n}")
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
    if i == 1:
        return (2, 1)
    if i == n:
        return (n, n - 1)
    return (i + 1, i - 1)


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
