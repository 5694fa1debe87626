"""Constructors for the explicit ideal families under verification.

Everything lives in the standard grevlex ring Q[x_1..x_n, y_1..y_n,
z_1..z_n]: the 2x2 minors of the generic 2xn matrix, the consecutive-minor
chain and its link, the n binomial generator families with their omitted-
index subfamilies, the squarefree monomial sets attached to each family,
the extended generator sets whose Groebner property is certified, the index
automorphisms that carry each subfamily onto the chain, and rational matrix
specializations of the full minor list.

Every family is built one way, on packed terms of the ring's order. A
monomial is a sum of packed variables (`_packed_variables`), since packed
monomials multiply by adding; a polynomial is the two packed terms of a
minor (`_minor_terms`), shifted by a monomial or accumulated with rational
weights; and one converter (`_polynomials`) makes Polynomials of them.
Nothing here runs the ring's arithmetic or builds a Monomial through the
ring, except `apply_permutation`, which relabels any polynomial.

Each family is built once, by a private cached builder: a minor per entry
(`_minor`), so a caller builds only the minors it reads, and every other
family per width, as a tuple of Polynomials, which are never modified in
place. The checks read the monomial sets as packed monomials
(`_packed_monomial_sets`). The public constructors are views: each call
returns a fresh list, dict or Ideal over the builders' tuples, so a caller
may mutate what it gets. No Ideal is cached: an Ideal caches its reduced
basis, and a shared one would let one check's basis decide what the next
check computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .groebner import Budget, Ideal, _add_scaled, _packing
from .rings import Monomial, Polynomial, Ring, Term


@lru_cache(maxsize=None)
def standard_ring(n: int) -> Ring:
    """Shared grevlex ring for width n."""
    return Ring(n)


def _require_width(n: int) -> None:
    if n < 4:
        raise ValueError(f"this family needs n >= 4, got {n}")


def _index(n: int, i: int) -> int:
    """Position i - 1 of the i-th generator or link, 1 <= i <= n, n >= 4."""
    _require_width(n)
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for n={n}")
    return i - 1


def _pair(n: int, i: int) -> tuple[int, int]:
    """The minor pair of g_i, larger index first: (i + 1, i - 1), clamped
    to [1, n], so (2, 1) for g_1 and (n, n - 1) for g_n."""
    return min(i + 1, n), max(i - 1, 1)


def _link(n: int, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index data of the i-th link: the x/y index window (every index
    outside the minor pair of g_i) and the z-set (every index but i)."""
    _index(n, i)
    pair = _pair(n, i)
    span = range(1, n + 1)
    return (tuple(v for v in span if v not in pair),
            tuple(v for v in span if v != i))


# -- packed terms: monomials, minors and window products --------------------


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
    """The squarefree product of the named x-, y- and z-variables as a
    packed monomial; the indices of each block are distinct and in [1, n].
    Packed monomials multiply by adding, so the product is the sum of its
    variables."""
    v = _packed_variables(n)
    return (sum(v[i - 1] for i in xs) + sum(v[n + i - 1] for i in ys)
            + sum(v[2 * n + i - 1] for i in zs))


def _minor_terms(n: int, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """delta(i, j) = x_i*y_j - x_j*y_i as packed terms in descending order;
    () on the diagonal."""
    if i == j:
        return ()
    v = _packed_variables(n)
    u, w = v[i - 1] + v[n + j - 1], v[j - 1] + v[n + i - 1]
    return ((u, 1), (w, -1)) if u > w else ((w, -1), (u, 1))


def _window_products(n: int, window: Sequence[int], zs: Iterable[int] = (),
                     budget: Optional[Budget] = None
                     ) -> list[tuple[tuple[int, ...], int]]:
    """Every X_K * Y_L * Z with (K, L) a two-set partition of the window, as
    (K, packed monomial) pairs in descending order of the monomials; Z is
    the squarefree product of the z-variables named in zs.

    The products are split once per k of the window, largest k first, into
    the ones with x_k and the ones with y_k. That is descending order: two
    products of the window differ last at y_k for the largest k on which
    they differ, and the one with x_k there is the larger. The deadline of
    budget, if given, is checked before each split, since the products
    double at each."""
    v = _packed_variables(n)
    products = [((), _packed_xyz(n, zs=zs))]
    for k in reversed(window):
        if budget is not None:
            budget.check_deadline()
        x, y, head = v[k - 1], v[n + k - 1], (k,)
        products = [p for K, m in products
                    for p in ((head + K, m + x), (K, m + y))]
    return products


# The packed monomial sets by width: a dict, not an lru_cache, so that calls
# with different budgets share one build.
_packed_sets: dict[int, tuple[tuple[int, ...], ...]] = {}


def _packed_monomial_sets(n: int, budget: Optional[Budget] = None
                          ) -> tuple[tuple[int, ...], ...]:
    """M_1, ..., M_n as packed monomials of the ring's order, each in
    descending order: the window products of each link, times its z-part.
    The products are squarefree, so no field reaches the packing limit, and
    packed ints compare as the order does.

    The sets are built once per width. The deadline of budget, if given,
    is checked once per window index while they grow
    (`_window_products`); a build it stops keeps nothing."""
    if n not in _packed_sets:
        _require_width(n)
        links = (_link(n, i) for i in range(1, n + 1))
        _packed_sets[n] = tuple(
            tuple(m for _, m in _window_products(n, window, zs, budget))
            for window, zs in links)
    return _packed_sets[n]


def _minor_pairs(n: int) -> list[tuple[int, int]]:
    """The index pair (a, b) of each entry delta(a, b) of `minor_list`."""
    _require_width(n)
    pairs = [_pair(n, i) for i in range(1, n + 1)]
    used = {frozenset(p) for p in pairs}
    return pairs + [(b, a) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                    if frozenset((a, b)) not in used]


# -- builders: Polynomials from packed terms, cached -------------------------


def _polynomials(n: int, packed: Iterable) -> tuple[Polynomial, ...]:
    """Polynomials of the width-n ring from packed terms, in order: each
    entry of packed is a sequence of (packed monomial, nonzero rational)
    pairs, descending in the ring's order."""
    ring, unpack = standard_ring(n), _packing(3 * n).unpack
    return tuple(Polynomial(ring, tuple(Term(Fraction(c), unpack(m))
                                        for m, c in terms))
                 for terms in packed)


def _monomials(n: int, packed: Iterable[int]) -> tuple[Polynomial, ...]:
    """Packed monomials of the width-n ring as monomial Polynomials, in
    order."""
    return _polynomials(n, (((m, 1),) for m in packed))


def _times_minors(n: int, factors: Iterable[tuple[int, tuple[int, int]]]
                  ) -> tuple[Polynomial, ...]:
    """u * delta(a, b) for each (packed monomial u, (a, b)) of factors: the
    minor's packed terms shifted by u, which keeps their order."""
    return _polynomials(n, (
        tuple((m + u, c) for m, c in _minor_terms(n, a, b))
        for u, (a, b) in factors))


@lru_cache(maxsize=None)
def _minor(n: int, i: int, j: int) -> Polynomial:
    """delta(i, j) for 1 <= i, j <= n."""
    return _polynomials(n, [_minor_terms(n, i, j)])[0]


@lru_cache(maxsize=None)
def _generators(n: int) -> tuple[Polynomial, ...]:
    """g_1, ..., g_n: z_i times the minor of g_i's pair."""
    _require_width(n)
    z = _packed_variables(n)[2 * n:]
    return _times_minors(n, [(z[i - 1], _pair(n, i)) for i in range(1, n + 1)])


@lru_cache(maxsize=None)
def _chains(n: int) -> tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]:
    """(g_{1,1}, ..., g_{1,n-1}) and (g_{2,n}, ..., g_{n,n}):
    g_{1,j} = X_{[1,j-1]} Z_{[1,j]} delta(j+1, j) and
    g_{j,n} = Y_{[j+1,n]} Z_{[j,n]} delta(j, j-1). Each monomial factor is
    the one before it times two variables: the first chain's go up from
    z_1 at j = 1, the second chain's down from z_n at j = n."""
    _require_width(n)
    v = _packed_variables(n)
    x, y, z = v[:n], v[n:2 * n], v[2 * n:]
    ups = itertools.accumulate((x[j - 2] + z[j - 1] for j in range(2, n)),
                               initial=z[0])
    downs = itertools.accumulate((y[j] + z[j - 1] for j in range(n - 1, 1, -1)),
                                 initial=z[n - 1])
    first = _times_minors(n, zip(ups, [(j + 1, j) for j in range(1, n)]))
    second = _times_minors(n, zip(downs, [(j, j - 1) for j in range(n, 1, -1)]))
    return first, second[::-1]


@lru_cache(maxsize=None)
def _monomial_sets(n: int) -> tuple[tuple[Polynomial, ...], ...]:
    """M_1, ..., M_n as monomial Polynomials, each in descending order."""
    return tuple(_monomials(n, ms) for ms in _packed_monomial_sets(n))


@lru_cache(maxsize=None)
def _chain_link_monomials(n: int) -> tuple[Polynomial, ...]:
    """X_{[2,j-1]} * Y_{[j,n-1]} for j in [2, n]."""
    return _monomials(n, [
        _packed_xyz(n, xs=range(2, j), ys=range(j, n)) for j in range(2, n + 1)])


# -- the public constructors: fresh views over the builders ------------------


def delta(i: int, j: int, n: int) -> Polynomial:
    """The 2x2 minor x_i*y_j - x_j*y_i; zero on the diagonal."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"minor indices ({i},{j}) out of range for n={n}")
    return _minor(n, i, j)


def minors_ideal(n: int) -> Ideal:
    """All C(n,2) minors delta(i,j) for i < j."""
    return Ideal(standard_ring(n), [_minor(n, i, j) for i in range(1, n + 1)
                                    for j in range(i + 1, n + 1)])


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
    return Ideal(standard_ring(n), [_minor(n, t, t + 1) for t in range(1, n)])


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


def minor_pair(n: int, i: int) -> tuple[int, int]:
    """Index pair of the minor inside g_i (larger index first)."""
    _index(n, i)
    return _pair(n, i)


def _path(n: int, omit: int) -> list[int]:
    """[1, n] in the order of the path that the minor pairs of every g_k
    but g_omit form (`minor_pair`), from the path's smaller end.

    The walk starts at the smallest index that one pair holds and steps
    along the one pair that leads on, never back; it takes n - 1 steps,
    one per pair. Each index it reaches then lies in at most two pairs, so
    it never returns to an index, and n - 1 pairs that join n indices in a
    row are that path. Raises ValueError when the pairs form no path.
    """
    near: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for k in range(1, n + 1):
        if k != omit:
            a, b = minor_pair(n, k)
            near[a].append(b)
            near[b].append(a)
    order = [v for v, vs in near.items() if len(vs) == 1][:1]
    while order and len(order) < n:
        step = [v for v in near[order[-1]] if v not in order[-2:-1]]
        if len(step) != 1:
            break
        order += step
    if len(order) < n:
        raise ValueError(f"the minor pairs of the g_k with k != {omit} are "
                         f"not a path on [1, {n}]")
    return order


def phi_permutation(n: int, case_i: int) -> IndexPermutation:
    """Index automorphism carrying the family without g_{case_i} onto the chain.

    The minor pairs of that family form a path on [1, n] (`_path`); the
    automorphism numbers it 1..n, from its smaller end, or from its other
    end when 2 < case_i < n - 1. Each pair then becomes a consecutive pair
    (t, t + 1), so up to sign the images of the remaining minors exhaust
    the consecutive minors delta(t, t+1), 1 <= t <= n-1.
    """
    _index(n, case_i)
    order = _path(n, case_i)
    if 2 < case_i < n - 1:
        order.reverse()
    image = [0] * n
    for t, v in enumerate(order, 1):
        image[v - 1] = t
    return IndexPermutation(n, tuple(image))


def minor_list(n: int) -> list[Polynomial]:
    """All C(n,2) minors in the specialization order.

    The first n are the minors of g_1..g_n; the remaining ones are
    delta(b, a) for the unused pairs a < b, sorted lexicographically by
    (a, b). Every entry is monic.
    """
    return [_minor(n, a, b) for a, b in _minor_pairs(n)]


def generic_residual(n: int, B: Sequence[Sequence[int | Fraction]]) -> tuple[Ideal, Ideal]:
    """Specialized generator matrix product: a_j = sum_i B[i][j] * minor_i.

    B must be r x n with r = C(n,2) and exact rational entries. Returns
    (the specialized ideal, the full minors ideal). Each a_j accumulates
    the minors' packed terms.
    """
    pairs = _minor_pairs(n)
    if len(B) != len(pairs) or any(len(row) != n for row in B):
        raise ValueError(f"matrix must be {len(pairs)}x{n}")
    minors = [_minor_terms(n, a, b) for a, b in pairs]
    a = []
    for j in range(n):
        acc: dict = {}
        for row, terms in zip(B, minors):
            _add_scaled(acc, terms, 0, Fraction(row[j]))
        a.append(sorted(acc.items(), reverse=True))
    ring = standard_ring(n)
    return Ideal(ring, _polynomials(n, a)), Ideal(ring, minor_list(n))
