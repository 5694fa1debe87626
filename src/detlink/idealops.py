"""Ideal-level operations: intersection and colon via elimination,
dimension and height through initial ideals.

Intersections use the one-variable trick: eliminate t from t*I + (1-t)*J
with t added above the ring's variables, under the block order that ranks
t above the ring's grevlex order. The variable t exists only in the
packing of `_intersect_prims`, never as a ring. The minimal t-free
elements of the elimination basis form a Groebner basis of the
intersection; interreduced once, in the ring's packing, they are its
reduced grevlex basis, so results carry their Groebner basis for free. A
side that is a known Groebner basis (a cached reduced basis) enters as a
block, and the elimination reduces no pair inside it. A colon I : J is a
fold over the generators g of J, by ascending leading monomial, with one
elimination per step: the colon so far, out, becomes (I ∩ g*out) / g,
whose minimal basis is divided by g and interreduced once, and a g with
g*out ⊆ I is skipped. The skip test multiplies g only into the kept part
of out, the elements outside I plus the kept ones before them. Both run
on packed prims (see `groebner`) throughout, so embedding, multiplying by
t and stripping t are shifts and adds; results build `Polynomial`s on
use.

Dimension is nvars minus the minimum vertex cover of the supports of the
initial ideal's generators, found by branch and bound; a greedy set of
pairwise-disjoint edges bounds each node's cover from below.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .groebner import (FIELD, Budget, Ideal, _add_scaled, _Divisors,
                       _first_prim_product_outside, _groebner_prims,
                       _interreduce, _IntReducer, _packing, _prim_from_dict,
                       _product)
from .rings import Polynomial, Ring


def intersect(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> Ideal:
    """Generators of the intersection of I and J, via elimination of t.

    Each side enters as its cached reduced basis G when it has one, else
    as its generators. In the extended ring t*G and (1-t)*G are Groebner
    bases of what they generate: in(t*g) = t*in(g), and in((1-t)*g) =
    t*in(g) in any monomial order, since t*in(g) is a multiple of in(g)
    and so exceeds every other term, provided the extended order ranks the
    t-free monomials as the ring's order does. It does: t is the whole
    elimination block, and below it the ring's grevlex order runs
    unchanged. Each cached basis therefore enters `_groebner_prims` as a
    block, whose inner pairs are not reduced; a single generator is a
    block of its own. The elimination itself runs in `_intersect_prims`,
    whose minimal basis of the intersection is interreduced here, once,
    into the reduced basis the result holds.
    """
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    based = [K.has_cached_basis() for K in (I, J)]
    sides = [K._packed_basis(budget) if cached else K._packed_gens()
             for K, cached in zip((I, J), based)]
    packing = _packing(I.ring.nvars)
    return Ideal._from_prims(I.ring, _interreduce(
        _intersect_prims(I.ring, sides, based, budget), packing, budget))


def _intersect_prims(ring: Ring, sides, based, budget: Optional[Budget] = None) -> list:
    """A minimal Groebner basis, as prims of `ring`'s packing, of the
    intersection of the ideals that the prim lists sides[0] and sides[1]
    of `ring` generate; based[k] says that sides[k] is a Groebner basis,
    which then enters as a block. The elimination runs in the packing of
    the ring's variables plus t, with t the whole elimination block on
    top, so `_groebner_prims` returns the minimal t-free elements of the
    elimination basis, not tail-reduced; `_interreduce` makes them the
    reduced basis. Terms move between the layouts by `_embed` and
    `_strip`."""
    if not sides[0] or not sides[1]:
        return []
    nvars = ring.nvars
    epacking = _packing(nvars + 1, 1)
    t = epacking.with_key(1)
    gens = [tuple((m + t, c) for m, c in _embed(f, nvars)) for f in sides[0]]
    gens += [_prim_from_dict(dict(g + [(m + t, -c) for m, c in g]))
             for g in (_embed(f, nvars) for f in sides[1])]
    blocks = [k if based[k] else None for k in (0, 1) for _ in sides[k]]
    return [_strip(f, nvars)
            for f in _groebner_prims(gens, epacking, budget, blocks=blocks,
                                     eliminate=0xFFFF)]


# The elimination layout of `_intersect_prims` over nvars variables puts t
# in field 0 and keeps the ring's grevlex run unchanged below t's one-field
# run of the order key. So a monomial moves between the layouts by shifts:
# its exponent fields move up one field, past t's, and its order key up one
# field, to sit below t's key field, which is 0 for a t-free monomial.


def _embed(f, nvars: int) -> list:
    """The terms of f, packed terms of the nvars-variable ring, in the
    elimination layout."""
    key = FIELD * nvars
    mask = (1 << key) - 1
    return [(((m >> key) << (key + FIELD)) | ((m & mask) << FIELD), c) for m, c in f]


def _strip(f, nvars: int) -> tuple:
    """The terms of f, packed terms of the elimination layout over nvars
    variables that are free of t, in the ring's layout: `_embed`'s
    inverse."""
    key = FIELD * nvars
    emask = (1 << (key + FIELD)) - 1
    return tuple((((m >> (key + FIELD)) << key) | ((m & emask) >> FIELD), c)
                 for m, c in f)


def _exact_quotient(g, f, guard: int) -> tuple:
    """The prim g / f of prims g and f. By Gauss's lemma the quotient of
    two primitive polynomials is primitive, so every step divides exactly;
    a coefficient that lc(f) does not divide, or a monomial that in(f) does
    not divide, raises ArithmeticError."""
    (lm, lc), tail = f[0], f[1:]
    p, q = dict(g), []
    while p:
        m = max(p)
        u = m - lm
        c, r = divmod(p.pop(m), lc)
        if r or u & guard:
            raise ArithmeticError("non-exact division in colon computation")
        q.append((u, c))
        _add_scaled(p, tail, u, -c)
    return tuple(q)


def _kept_part(I: Ideal, out, budget: Optional[Budget] = None) -> list:
    """The elements of the prims out, by ascending leading monomial, that
    do not lie in I + (the elements kept before them). Each is reduced by
    I's reduced basis followed by the remainders kept so far: a zero
    remainder proves membership for any divisor list, and a nonzero one
    joins the divisors."""
    packing = _packing(I.ring.nvars)
    reducer = _IntReducer(packing, _Divisors(I._packed_basis(budget)), budget)
    kept = []
    for h in reversed(out):
        rem = reducer.reduce(dict(h))
        if rem:
            reducer.append(_prim_from_dict(rem))
            kept.append(h)
    return kept


def _colon(I: Ideal, gens, budget: Optional[Budget] = None) -> Ideal:
    """I : (gens) for nonzero prims gens of I's ring; `quotient` says how.
    The prims are visited by ascending leading monomial, which packed ints
    compare as grevlex; ties keep the order given. The skip test runs on
    the kept part of out (`_kept_part`), formed after an elimination and
    only once a later generator is tested; the starting out = (1) is
    tested whole. Each step interreduces once: the quotients by g of the
    minimal basis that `_intersect_prims` returns."""
    ring = I.ring
    packing = _packing(ring.nvars)
    out = kept = [((0, 1),)]   # the packed constant 1: the unit ideal's reduced basis
    for g in sorted(gens, key=lambda g: g[0][0]):
        if kept is None:
            kept = _kept_part(I, out, budget)
        if _first_prim_product_outside([g], kept, I, budget) is None:
            continue
        g_out = [_prim_from_dict(_product(g, h)) for h in out]
        meet = _intersect_prims(ring, (I._packed_basis(budget), g_out),
                                (True, True), budget)
        out = _interreduce([_exact_quotient(w, g, packing.guard) for w in meet],
                           packing, budget)
        kept = None
    return Ideal._from_prims(ring, out)


def quotient_by_poly(I: Ideal, f: Polynomial,
                     budget: Optional[Budget] = None) -> Ideal:
    """Colon ideal I : (f) = (I ∩ (f)) / f, by the fold of `quotient` over
    the one generator f."""
    if not f:
        raise ValueError("colon by the zero polynomial")
    return _colon(I, Ideal(I.ring, (f,))._packed_gens(), budget)


def quotient(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> Ideal:
    """Colon ideal I : J by a fold over the generators g of J, one
    elimination per generator at most.

    The colon so far, out, starts as the unit ideal. Since
    I : (J' + (g)) = (I : J') ∩ (I : g) and I ∩ g*out = g*(out ∩ (I : g)),
    each step sets out to (I ∩ g*out) / g: every element of the minimal
    Groebner basis of I ∩ g*out that `_intersect_prims` returns is
    divisible by g, and as in(g*h) = in(g)*in(h), their exact quotients
    by g are a minimal Groebner basis of out ∩ (I : g), which one
    interreduction turns into its reduced basis. The elimination starts
    from two blocks of known Groebner basis (see `intersect`): I's reduced
    basis, and g times out's reduced basis, whose S-pairs are g times
    those of out's basis. A
    generator g with g*out ⊆ I changes nothing, since out ⊆ I : (g), and
    is skipped. The test needs no product g*h for an h of out's basis that
    lies in I + (k_1, ..., k_s) for other elements k_j of it: then
    g*h ∈ g*I + (g*k_1, ..., g*k_s) ⊆ I once every g*k_j is. So out's
    basis is visited by ascending leading monomial, each element is reduced
    by I's reduced basis followed by the remainders kept so far, and only
    the elements with a nonzero remainder are kept; a zero remainder proves
    membership whatever the divisors. The test multiplies g into the kept
    elements and reduces each product by I's basis, which it computes on
    first use. It decides as the test on all of out would, so the result
    does not change.

    The generators are visited by ascending leading monomial. Any order is
    correct: each step keeps out ⊇ I : J, and after the last generator
    out is the intersection of all I : (g), which is I : J; its reduced
    basis is unique, so the result does not depend on the order. The
    order sets the cost. In a generic colon by 2x2 minors most steps are
    skipped, and which minor is eliminated first decides how large the
    elimination is: the minor with the smallest leading monomial is built
    from the last variables, which in(I) tends to avoid (Bayer & Stillman,
    1987), and gave the cheapest elimination on every probe colon tried.
    """
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    if not J._packed_gens():
        raise ValueError("colon by the zero ideal")
    return _colon(I, J._packed_gens(), budget)


def sum_ideals(*ideals: Ideal) -> Ideal:
    """Generator concatenation, deduplicated."""
    if not ideals:
        raise ValueError("sum of no ideals")
    ring = ideals[0].ring
    for I in ideals:
        if I.ring != ring:
            raise ValueError("ideals from different rings")
    return Ideal(ring, dict.fromkeys(g for I in ideals for g in I.gens))


# -- dimension of monomial ideals ------------------------------------------


def _support_edges(supports: Iterable[tuple[int, ...]]) -> list[frozenset[int]]:
    """Inclusion-minimal supports; any cover of these covers all."""
    edges = sorted({frozenset(s) for s in supports}, key=lambda e: (len(e), sorted(e)))
    kept: list[frozenset[int]] = []
    for e in edges:
        if not any(k <= e for k in kept):
            kept.append(e)
    return kept


def _min_cover_size(edges: list[frozenset[int]],
                    budget: Optional[Budget] = None) -> int:
    """Minimum vertex cover of a hypergraph, by branch and bound; each node
    ticks the budget once. A node is pruned when its cover so far plus a
    greedy set of pairwise-disjoint remaining edges reaches the best cover
    found: each of those edges needs a cover vertex of its own."""
    best = [sum(len(e) for e in edges)]

    def walk(remaining: list[frozenset[int]], size: int) -> None:
        if budget is not None:
            budget.tick()
        bound, hit = size, set()
        for e in remaining:
            if hit.isdisjoint(e):
                hit |= e
                bound += 1
        if bound >= best[0]:
            return
        if not remaining:
            best[0] = size
            return
        edge = min(remaining, key=len)
        for v in sorted(edge):
            rest = [e for e in remaining if v not in e]
            walk(rest, size + 1)

    walk(edges, 0)
    return best[0]


def dimension(I: Ideal, budget: Optional[Budget] = None) -> int:
    """Krull dimension of R/I, via the initial ideal.

    Groebner deformation preserves dimension; for a monomial ideal the
    dimension is the size of the largest variable subset containing no
    generator's support, i.e. nvars minus the minimum vertex cover of the
    support hypergraph. The supports are read off the packed leading
    monomials of I's reduced basis.
    """
    nvars = I.ring.nvars
    mask = _packing(nvars).exp_mask
    leads = [f[0][0] & mask for f in I._packed_basis(budget)]
    if not leads:
        return nvars
    if not all(leads):
        raise ValueError("improper ideal")
    edges = _support_edges(tuple(v for v in range(nvars) if m >> (FIELD * v) & 0xFFFF)
                           for m in leads)
    return nvars - _min_cover_size(edges, budget)


def height(I: Ideal, budget: Optional[Budget] = None) -> int:
    """Codimension: total variable count minus dimension."""
    return I.ring.nvars - dimension(I, budget)

