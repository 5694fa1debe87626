"""Ideal-level operations: intersection and colon via elimination,
dimension and height through initial ideals.

Intersections use the one-variable trick: eliminate t from t*I + (1-t)*J
under the block elimination order. The t-free part of the reduced
elimination basis is the reduced grevlex basis of the intersection, so
results carry their Groebner basis for free. A side that has a cached
reduced basis enters as that basis, and the elimination reduces no pair
inside it. A colon I : J intersects the principal colons I : (g) over
generators g of J, and skips each g with g*out ⊆ I for the colon so far,
out, since then out ⊆ I : (g); when J has two or more generators it
computes I's reduced basis first, so every principal colon starts from
it. Both run on packed prims (see `groebner`) throughout, so embedding,
multiplying by t and stripping t are shifts and adds; results build
`Polynomial`s on use.

Dimension is nvars minus the minimum vertex cover of the supports of the
initial ideal's generators, found by branch and bound; a greedy set of
pairwise-disjoint edges bounds each node's cover from below.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .groebner import (FIELD, Budget, Ideal, _add_scaled,
                       _first_prim_product_outside, _groebner_prims,
                       _interreduce, _packing, _prim_from_dict)
from .rings import ELIM_BLOCK, Polynomial, Ring


def _elim_ring(ring: Ring) -> Ring:
    """Fresh ring with one extra elimination variable above everything."""
    return Ring(ring.space.n, ring.space.elim_count + 1, ELIM_BLOCK)


def intersect(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> Ideal:
    """Generators of the intersection of I and J, via elimination of t.

    Each side enters as its cached reduced basis G when it has one, else
    as its generators. In the extended ring t*G and (1-t)*G are Groebner
    bases of what they generate: in(t*g) = t*in(g), and in((1-t)*g) =
    t*in(g) in any monomial order, since t*in(g) is a multiple of in(g)
    and so exceeds every other term, provided the extended order ranks the
    t-free monomials as the ring's order does. It does unless the ring is
    grevlex with elimination variables: on a grevlex ring without them t
    is the whole elimination block, and on an elim-block ring t joins the
    block, whose grevlex comparison of (0, e_1..e_k) is that of
    (e_1..e_k). There each cached basis enters `_groebner_prims` as a
    block, whose inner pairs are not reduced; a single generator is a
    block of its own. A grevlex ring with elimination variables is
    extended to a block order that ranks t_1..t_k above the rest: its
    prims are re-sorted, no block is passed, and the t-free part of the
    result is turned into the ring's reduced basis by one more Groebner
    basis.
    """
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    based = [K.has_cached_basis() for K in (I, J)]
    sides = [K._packed_basis(budget) if cached else K._packed_gens()
             for K, cached in zip((I, J), based)]
    if not sides[0] or not sides[1]:
        return Ideal(ring, ())
    packing, epacking = _packing(ring.order), _packing(_elim_ring(ring).order)
    t, mask = epacking.with_key(1), packing.exp_mask
    agree = ring.order.kind == ELIM_BLOCK or not ring.space.elim_count

    def embed(f) -> list:
        # t is variable 0, the lowest field: every exponent moves up one field.
        return [(epacking.with_key((m & mask) << FIELD), c) for m, c in f]

    gens = [tuple((m + t, c) for m, c in embed(f)) for f in sides[0]]
    if not agree:
        gens = [_prim_from_dict(dict(f)) for f in gens]
    gens += [_prim_from_dict(dict(g + [(m + t, -c) for m, c in g]))
             for g in map(embed, sides[1])]
    blocks = [k if agree and based[k] else None for k in (0, 1) for _ in sides[k]]
    kept = []
    for f in _groebner_prims(gens, epacking, budget, blocks=blocks):
        if f[0][0] & 0xFFFF:
            continue
        # On a ring that already has elimination variables the block order
        # may fail to rank every t-containing monomial above the t-free
        # ones; a kept element must then be checked t-free throughout to
        # keep the elimination sound.
        if any(m & 0xFFFF for m, _ in f):
            raise ArithmeticError(
                "elimination is inconclusive over this extended ring")
        kept.append(tuple((packing.with_key((m & epacking.exp_mask) >> FIELD), c)
                          for m, c in f))
    if not agree:
        kept = _groebner_prims([_prim_from_dict(dict(f)) for f in kept],
                               packing, budget)
    return Ideal._from_prims(ring, kept)


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


def quotient_by_poly(I: Ideal, f: Polynomial,
                     budget: Optional[Budget] = None) -> Ideal:
    """Colon ideal I : (f), computed as intersect(I, (f)) divided by f."""
    if not f:
        raise ValueError("colon by the zero polynomial")
    F, packing = Ideal(I.ring, (f,)), _packing(I.ring.order)
    W = intersect(I, F, budget)
    quots = [_exact_quotient(g, F._packed_gens()[0], packing.guard)
             for g in W._packed_basis(budget)]
    return Ideal._from_prims(I.ring, _interreduce(quots, packing, budget))


def quotient(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> Ideal:
    """Colon ideal I : J as the intersection of I : (g) over generators of J.

    Since g*out ⊆ I implies out ⊆ I : (g), a generator g that maps the
    reduced basis of the colon so far, out, into I can shrink nothing; its
    principal colon is not computed. Otherwise I : (g) is computed, and
    when it lies inside out it is the result without an intersection. Both
    tests form products of packed bases; the first reduces by I's basis.
    So when J has two or more generators, I's reduced basis is computed
    before the first principal colon, not only for the first test: every
    principal colon then embeds that basis as a block of known Groebner
    basis (see `intersect`) instead of I's generators, and computes it
    no more.
    """
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    if not J.gens:
        raise ValueError("colon by the zero ideal")
    one = ((0, 1),)     # the packed constant 1: no exponents, no key
    if len(J.gens) > 1:
        I._packed_basis(budget)
    out = quotient_by_poly(I, J.gens[0], budget)
    for g, gp in zip(J.gens[1:], J._packed_gens()[1:]):
        if _first_prim_product_outside([gp], out._packed_basis(budget), I, budget) is None:
            continue
        part = quotient_by_poly(I, g, budget)
        if _first_prim_product_outside([one], part._packed_basis(budget), out, budget) is None:
            out = part
        else:
            out = intersect(out, part, budget)
    return out


def sum_ideals(*ideals: Ideal) -> Ideal:
    """Generator concatenation, deduplicated."""
    if not ideals:
        raise ValueError("sum of no ideals")
    ring = ideals[0].ring
    gens: list[Polynomial] = []
    for I in ideals:
        if I.ring != ring:
            raise ValueError("ideals from different rings")
        for g in I.gens:
            if g and g not in gens:
                gens.append(g)
    return Ideal(ring, gens)


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
    nvars = I.ring.space.nvars
    mask = _packing(I.ring.order).exp_mask
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
    return I.ring.space.nvars - dimension(I, budget)

