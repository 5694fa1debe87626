"""Independent references the tests compare detlink against.

The verifier runs none of these. The tests check the kernel's packed
monomials against the monomial arithmetic and the naive grevlex and
elimination comparators on exponent tuples here, and build their
textbook division and certificate references with them.
`substitute` and `multidegree` check the families under specializations
and pin their degrees; `m_ij` and `m_ij_range` are the paper's
distinguished monomials of each link, which the tests find among the
link's monomial set. `xyz_monomial` and `window_products` form the
squarefree products of named variables by `Ring.monomial`, and
`monomial_sets` builds every link's monomial set from them and
`Monomial.key`, with no packed monomials, for the families' packed
builder to match. `check_gb_sum_full` and
`check_sum_equals_colon_full` are the two checks as they were before they
certified from the core of the monomial sets: the first walks all of
G ∪ M, the second tests every monomial times every minor, each product
reduced by `_IntReducer.reduce` (`first_product_outside`), never walked.
`check_reduced_full` is `reduced` as it was before it took its basis from
G + core: Buchberger's algorithm on the sum of links' generators. The
checks must agree with them on status and witness. The full walks read
the monomial sets where the checks do, from the packed builder
`families._packed_monomial_sets`, and build `Polynomial`s from them
(`packed_monomials`). `core` and
`random_qualifying_binomials` are the core of the monomial sets and the
random binomial pairs of `identities` as they were computed on
`Polynomial`s, before the checks drew and split them as packed
monomials. `minors` builds every
minor by polynomial arithmetic, x_i*y_j - x_j*y_i, for the families'
packed minors to match; `generators`, `chains`, `chain_link_monomials`
and `generic_residual` build the other families the same way, by ring
arithmetic on `xyz_monomial` and the minors, for the packed builders of
`families` to match. `telescoping_identities` and
`telescoping_witness` are the telescoping part of `identities` as it was
before it ran on packed monomials: `Polynomial` products, their sum
compared with the left-hand side, and `Monomial.key` comparisons.
`quotient_in_order` is the colon fold visiting J's generators in the
order given, as it ran before `quotient` sorted them by leading monomial;
`quotient` must match it under any order. `quotient_all_products` is the
fold in `quotient`'s order with the skip test as it ran before it used
only the kept part of out: g times every element of out's basis.
`quotient` must match its result and its number of eliminations; its
skip test reduces every product too.
`groebner_basis_ideal` is the ideal of a Groebner basis holding the
reduced basis interreduced from it, the way `sum-equals-colon` builds
(g_1..g_n) from set_G(n). `phi_permutation` is the paper's index
automorphism of each omitted-generator family by six hand-derived index
cases, as `families` spelled it out before it numbered the path of the
family's minor pairs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import le as _le, sub as _sub
from typing import Iterable, Mapping, Optional, Sequence, Union

import detlink.families as fam
from detlink.checks import FAIL, PASS, _UNPROVEN_G, _chain_proof, _fmt
from detlink.families import _link, minor_pair, standard_ring
from detlink.groebner import (Budget, Ideal, _Divisors, _IntReducer,
                              _interreduce, _packing,
                              _prim_from_dict, _prim_from_poly, _product,
                              ideal_equal, is_groebner_basis)
from detlink.idealops import _exact_quotient, _intersect_prims, quotient
from detlink.rings import Monomial, Polynomial, Ring, Scalar, Term


# -- monomial arithmetic ----------------------------------------------------


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


def naive_grevlex(a, b) -> int:
    """1, 0 or -1 as exponent tuple a is above, equal to or below b in
    grevlex: degree first, then the last nonzero difference."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def naive_elim_block(a, b, head: int) -> int:
    """`naive_grevlex` on the first head entries (the elimination block),
    then on the rest."""
    return naive_grevlex(a[:head], b[:head]) or naive_grevlex(a[head:], b[head:])



def divides(a: Monomial, b: Monomial) -> bool:
    """Whether a divides b."""
    if a.deg > b.deg:
        return False
    return all(map(_le, a.exps, b.exps))


def div(a: Monomial, b: Monomial) -> Monomial:
    """Exact quotient a / b; raises if not divisible."""
    out = tuple(map(_sub, a.exps, b.exps))
    if any(e < 0 for e in out):
        raise ValueError(f"{b!r} does not divide {a!r}")
    return Monomial(out, a.deg - b.deg)


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return Monomial(tuple(map(max, a.exps, b.exps)))


def gcd(a: Monomial, b: Monomial) -> Monomial:
    return Monomial(tuple(map(min, a.exps, b.exps)))


def is_coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(min, a.exps, b.exps))


def support(m: Monomial) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(m.exps) if e)


# -- polynomials ------------------------------------------------------------


def multidegree(f: Polynomial):
    """Common (deg_x, deg_y, deg_z) of all terms.

    Returns the triple when f is multihomogeneous, the string "zero" for
    the zero polynomial, and None when the terms disagree.
    """
    if not f.terms:
        return "zero"
    n = f.ring.n
    seen = None
    for _, m in f.terms:
        exps = m.exps
        d = (sum(exps[:n]), sum(exps[n:2 * n]), sum(exps[2 * n:]))
        if seen is None:
            seen = d
        elif seen != d:
            return None
    return seen


def substitute(f: Polynomial,
               images: Mapping[str, Union[Polynomial, Scalar]]) -> Polynomial:
    """Ring-homomorphism image of f under a variable name -> value map.

    Every variable occurring in f must be mapped; values may live in a
    different ring (the target ring is that of the first polynomial image,
    else f's own ring).
    """
    target = next((v.ring for v in images.values() if isinstance(v, Polynomial)),
                  f.ring)
    coerced: dict[str, Polynomial] = {}
    for name, v in images.items():
        p = v if isinstance(v, Polynomial) else target.const(v)
        if p.ring != target:
            raise ValueError("substitution images live in different rings")
        coerced[name] = p

    names = f.ring.names
    out = target.zero
    for c, m in f.terms:
        part = target.const(c)
        for pos, exp in enumerate(m.exps):
            if not exp:
                continue
            img = coerced.get(names[pos])
            if img is None:
                raise ValueError(f"variable {names[pos]!r} occurs in f but is not mapped")
            part = part * img ** exp
        out = out + part
    return out


# -- the distinguished monomials of each link --------------------------------


def m_ij_range(n: int, i: int) -> list[int]:
    """Valid second indices of m_{i,j}."""
    _link(n, i)     # rejects i outside [1, n]
    if i == 1:
        return list(range(3, n + 2))
    if i == n:
        return list(range(1, n))
    return list(range(1, n + 2))


def m_ij(n: int, i: int, j: int) -> Monomial:
    """The distinguished squarefree monomial m_{i,j} of the i-th link:
    X over the window below j, Y over the window from j on, and Z."""
    window, zs = _link(n, i)
    js = m_ij_range(n, i)
    if j not in js:
        raise ValueError(f"m_({i},j) needs {js[0]} <= j <= {js[-1]}")
    return xyz_monomial(standard_ring(n), xs=[v for v in window if v < j],
                        ys=[v for v in window if v >= j], zs=zs)


def minors(n: int) -> list[list[Polynomial]]:
    """delta(i, j) = x_i*y_j - x_j*y_i in row i - 1, column j - 1, by
    ring arithmetic; zero on the diagonal."""
    ring = standard_ring(n)
    x, y = ring.x, ring.y
    return [[x(i) * y(j) - x(j) * y(i) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def generators(n: int) -> list[Polynomial]:
    """g_1, ..., g_n as z_i times the minor of g_i's pair, by ring
    arithmetic."""
    ring, rows = standard_ring(n), minors(n)
    out = []
    for i in range(1, n + 1):
        a, b = minor_pair(n, i)
        out.append(ring.z(i) * rows[a - 1][b - 1])
    return out


def chains(n: int) -> tuple[list[Polynomial], list[Polynomial]]:
    """(g_{1,1}, ..., g_{1,n-1}) and (g_{2,n}, ..., g_{n,n}), each a
    monomial times a minor, by ring arithmetic:
    g_{1,j} = X_{[1,j-1]} Z_{[1,j]} delta(j+1, j) and
    g_{j,n} = Y_{[j+1,n]} Z_{[j,n]} delta(j, j-1)."""
    ring, rows = standard_ring(n), minors(n)

    def times(xs=(), ys=(), zs=()):
        return ring.from_monomial(xyz_monomial(ring, xs, ys, zs))

    first = [times(xs=range(1, j), zs=range(1, j + 1)) * rows[j][j - 1]
             for j in range(1, n)]
    second = [times(ys=range(j + 1, n + 1), zs=range(j, n + 1))
              * rows[j - 1][j - 2] for j in range(2, n + 1)]
    return first, second


def chain_link_monomials(n: int) -> list[Polynomial]:
    """X_{[2,j-1]} * Y_{[j,n-1]} for j in [2, n], from `xyz_monomial`."""
    ring = standard_ring(n)
    return [ring.from_monomial(xyz_monomial(ring, xs=range(2, j),
                                            ys=range(j, n)))
            for j in range(2, n + 1)]


def generic_residual(n: int, B: Sequence[Sequence]) -> list[Polynomial]:
    """a_j = sum_i B[i][j] * minor_i over `families.minor_list(n)`, folded
    one minor at a time by ring arithmetic."""
    ring, gs = standard_ring(n), fam.minor_list(n)
    out = []
    for j in range(n):
        acc = ring.zero
        for i, g in enumerate(gs):
            acc = acc + g * Fraction(B[i][j])
        out.append(acc)
    return out


def monomial_sets(n: int) -> list[list[Polynomial]]:
    """M_1, ..., M_n: every X_K * Y_L * Z of the i-th link's window, as
    monomial Polynomials sorted descending by `Monomial.key`."""
    ring = standard_ring(n)
    out = []
    for i in range(1, n + 1):
        window, zs = _link(n, i)
        monos = sorted((m for _, m in window_products(ring, window, zs)),
                       key=lambda m: m.key, reverse=True)
        out.append([ring.from_monomial(m) for m in monos])
    return out


# -- the full walks of two checks --------------------------------------------
# They look the families up on the module, as the checks do, so a test that
# corrupts a family corrupts it for both.


def groebner_basis_ideal(ring: Ring, G) -> Ideal:
    """The ideal of the Groebner basis G, holding the reduced basis
    interreduced from G, as `sum-equals-colon` builds (g_1..g_n) from
    set_G(n)."""
    packing = _packing(ring.nvars)
    return Ideal._from_prims(ring, _interreduce(
        [_prim_from_poly(g, packing) for g in G], packing))


def packed_monomials(n: int) -> list[Polynomial]:
    """The monomials of `families._packed_monomial_sets(n)`, M_1 to M_n in
    turn, as monomial Polynomials."""
    ring = standard_ring(n)
    unpack = _packing(ring.nvars).unpack
    return [ring.from_monomial(unpack(m))
            for ms in fam._packed_monomial_sets(n) for m in ms]


def check_gb_sum_full(n: int, budget: Budget) -> tuple[str, Optional[str]]:
    """`gb-sum` by the certificate on all of G ∪ M."""
    cert = is_groebner_basis(fam.set_G(n) + packed_monomials(n), budget=budget)
    if not cert.ok:
        return FAIL, (f"S-pair {cert.witness} leaves remainder "
                      f"{_fmt(cert.remainder)}")
    return PASS, None


def check_reduced_full(n: int, budget: Budget) -> tuple[str, Optional[str]]:
    """`reduced` by Buchberger's algorithm on the sum of links."""
    basis = fam.sum_links_ideal(n).groebner(budget)
    if not all(f.terms[0].mono.is_squarefree() for f in basis):
        return FAIL, "initial ideal of the sum of links is not squarefree"
    return PASS, None


def check_sum_equals_colon_full(n: int,
                                budget: Budget) -> tuple[str, Optional[str]]:
    """`sum-equals-colon` with every monomial times every minor tested."""
    witness, proven = _chain_proof(n, budget)
    if witness is not None:
        return FAIL, witness
    ring = fam.standard_ring(n)
    G = fam.set_G(n)
    if not is_groebner_basis(G, budget=budget).ok:
        return FAIL, "extended generator set failed its own certificate"
    if G != proven:
        return FAIL, _UNPROVEN_G
    a_full = groebner_basis_ideal(ring, G)
    minors = fam.minors_ideal(n)
    monos = packed_monomials(n)
    packing = _packing(ring.nvars)
    outside = first_product_outside(
        [_prim_from_poly(f, packing) for f in monos], minors._packed_gens(),
        a_full, budget)
    if outside is not None:
        a, b = outside
        return FAIL, (f"containment fails: ({_fmt(monos[a])}) * "
                      f"({_fmt(minors.gens[b])}) is not in the full family")
    if n > 5:
        return PASS, None
    Q = quotient(a_full, minors, budget)
    if not ideal_equal(Q, fam.sum_links_ideal(n), budget):
        return FAIL, "colon of the full family differs from the sum of links"
    return PASS, None


# -- the core of the monomial sets and the random binomials on Polynomials --


def core(G: Sequence[Polynomial], monos: Sequence[Polynomial],
         budget: Budget) -> Optional[list[Polynomial]]:
    """The core of monos by G, as `checks._core` defines it, on
    Polynomials: the monos whose leading monomial no leading monomial of
    G divides, in order, when every other one has remainder 0 on division
    by G + core; None otherwise, and when G or monos holds a zero."""
    if not all(G):
        return None
    packing = _packing(G[0].ring.nvars)
    guard = packing.guard
    divisors = _Divisors([_prim_from_poly(g, packing) for g in G])
    lms = divisors.lms[:]
    found, rest = [], []
    for f in monos:
        budget.check_deadline()
        if not f:
            return None
        prim = _prim_from_poly(f, packing)
        m = prim[0][0]
        if any(not (m - lm) & guard for lm in lms):
            rest.append(prim)
        else:
            found.append(f)
            divisors.append(prim)
    reducer = _IntReducer(packing, divisors, budget)
    for prim in rest:
        budget.check_deadline()
        if reducer.reduce(dict(prim)):
            return None
    return found


def random_qualifying_binomials(ring: Ring, rng: random.Random
                                ) -> tuple[Polynomial, Polynomial]:
    """The binomial pair of `checks._random_qualifying_binomials`, with the
    same draws from rng, as Polynomials built on Monomials and ordered by
    `Monomial.key`: f = c*(u1 - a*u2), g = c*(v1 - b*v2), v1 and v2 free
    of u1's variables."""
    one = Fraction(1)

    def mono(variables):
        vec = [0] * ring.nvars
        for _ in range(rng.randint(1, 3)):
            vec[rng.choice(variables)] += 1
        return Monomial(vec)

    def binomial(variables):
        while True:
            u2, u1 = sorted((mono(variables), mono(variables)), key=lambda m: m.key)
            if u1 != u2:
                a = Fraction(rng.choice([1, 2, 3, -1, -2]))
                return Polynomial(ring, (Term(one, c.mul(u1)),
                                         Term(-a, c.mul(u2)))), u1

    all_vars = range(ring.nvars)
    c = mono(all_vars)
    f, u1 = binomial(all_vars)
    g, _ = binomial([v for v in all_vars if not u1.exps[v]])
    return f, g


# -- the colon fold in a given order ----------------------------------------


def first_product_outside(gs, hs, I: Ideal, budget: Optional[Budget] = None
                          ) -> Optional[tuple[int, int]]:
    """The first (a, b), row-major, whose product of the prims gs[a] and
    hs[b] has a nonzero remainder by `_IntReducer.reduce` on I's reduced
    basis, or None: `groebner._first_prim_product_outside` with every
    product reduced."""
    reducer = _IntReducer(_packing(I.ring.nvars), _Divisors(I._packed_basis(budget)),
                          budget)
    return next(((a, b) for a, g in enumerate(gs) for b, h in enumerate(hs)
                 if reducer.reduce(_product(g, h))), None)


def _all_products_fold(I: Ideal, prims) -> tuple[Ideal, int]:
    """I : (prims) by the colon fold over the prims in the order given,
    testing g times every element of out's basis; with the number of
    eliminations it ran."""
    ring = I.ring
    packing = _packing(ring.nvars)
    out, eliminations = [((0, 1),)], 0
    for g in prims:
        if first_product_outside([g], out, I) is None:
            continue
        g_out = [_prim_from_dict(_product(g, h)) for h in out]
        meet = _intersect_prims(ring, (I._packed_basis(), g_out), (True, True))
        eliminations += 1
        out = _interreduce([_exact_quotient(w, g, packing.guard) for w in meet],
                           packing)
    return Ideal._from_prims(ring, out), eliminations


def quotient_in_order(I: Ideal, gens) -> Ideal:
    """I : (gens) by the colon fold over the nonzero polynomials gens in
    the order given: out starts as the unit ideal, and each g with
    g*out not in I sets out to (I ∩ g*out) / g."""
    return _all_products_fold(I, Ideal(I.ring, gens)._packed_gens())[0]


def quotient_all_products(I: Ideal, J: Ideal) -> tuple[Ideal, int]:
    """I : J by the colon fold as `quotient` runs it, J's generators by
    ascending leading monomial, but with the skip test g*out ⊆ I formed on
    every element of out's basis; with the number of eliminations run."""
    return _all_products_fold(I, sorted(J._packed_gens(), key=lambda g: g[0][0]))


# -- the telescoping identities on Polynomials -------------------------------


def telescoping_first(n: int, i: int, j: int, ring: Ring,
                      g1: dict) -> tuple[Polynomial, list[Polynomial], Monomial]:
    lhs_coeff = xyz_monomial(ring, xs=[v for v in range(1, j) if v != i],
                             zs=range(1, j))
    lhs = ring.from_monomial(lhs_coeff) * fam.delta(j, i, n)
    summands = []
    for k in range(i, j):
        c = xyz_monomial(ring, xs=range(k + 2, j + 1), zs=range(k + 1, j))
        summands.append(ring.from_monomial(c) * g1[k])
    lead = xyz_monomial(ring, xs=[v for v in range(1, j + 1) if v != i],
                        ys=[i], zs=range(1, j))
    return lhs, summands, lead


def telescoping_second(n: int, i: int, j: int, ring: Ring,
                       g2: dict) -> tuple[Polynomial, list[Polynomial], Monomial]:
    lhs_coeff = xyz_monomial(ring,
                             ys=[v for v in range(j + 1, n + 1) if v != i],
                             zs=range(j + 1, n + 1))
    lhs = ring.from_monomial(lhs_coeff) * fam.delta(i, j, n)
    summands = []
    for k in range(j + 1, i + 1):
        c = xyz_monomial(ring, ys=range(j, k - 1), zs=range(j + 1, k))
        summands.append(ring.from_monomial(c) * g2[k])
    lead = xyz_monomial(ring, xs=[i],
                        ys=[v for v in range(j, n + 1) if v != i],
                        zs=range(j + 1, n + 1))
    return lhs, summands, lead


def telescoping_identities(n: int, g1: dict, g2: dict) -> list[tuple]:
    """Both identities at every pair, in the order `identities` checks
    them: (name, i, j, lhs, summands, lead)."""
    ring = standard_ring(n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return ([("first", i, j, *telescoping_first(n, i, j, ring, g1))
             for i, j in pairs]
            + [("second", i, j, *telescoping_second(n, i, j, ring, g2))
               for j, i in pairs])


def telescoping_witness(identities) -> Optional[str]:
    """The witness of the first failing identity, or None."""
    for name, i, j, lhs, summands, lead in identities:
        if sum(summands, lhs.ring.zero) != lhs:
            return f"{name} telescoping identity fails at (i,j)=({i},{j})"
        if lhs.terms[0].mono != lead:
            return f"leading monomial of {name} identity wrong at ({i},{j})"
        if any(s.terms[0].mono.key > lead.key for s in summands):
            return f"summand exceeds leading monomial at ({i},{j})"
    return None


# -- the index automorphisms by cases ----------------------------------------


def phi_permutation(n: int, case_i: int) -> fam.IndexPermutation:
    """The paper's index automorphism carrying the family without g_{case_i}
    onto the chain, by its six hand-derived index cases: case_i in
    {1, 2, n-1, n} and, in between, the parity of case_i."""
    if n < 4 or not 1 <= case_i <= n:
        raise ValueError(f"no case {case_i} for n={n}")
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
    return fam.IndexPermutation(n, tuple(img[1:]))
