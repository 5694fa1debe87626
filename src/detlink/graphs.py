"""The residual-intersection height fact and its graph-level replay.

Each of g_1..g_{n-1} is z_i times the minor delta_i of an edge of a graph
on [n], so every minimal prime of (g_1..g_{n-1}) is (z_T) + P_S(G_T): the
z's of a subset T of [1, n-1] plus a prime of the binomial edge ideal of
the graph G_T of the other edges. P_S(G_T) holds x_i, y_i for i in S and
every minor on each connected component of G_T away from S.

The replay requires G_∅ to be a path on [n], and checks this once per
n. Every G_T is then a subgraph of a path, so a forest, and in a forest
the minimal primes of a binomial edge ideal have a local description
(Herzog, Hibi, Hreinsdóttir, Kahle & Rauh, Adv. Appl. Math. 45, 2010,
Cor. 3.9): P_S is minimal iff every s in S has at least two neighbours
outside S. So the replay lists the minimal primes directly; it builds and
compares no other prime.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from . import families
from .families import g_generator, link_ideal, standard_ring
from .groebner import Budget, Ideal
from .idealops import height, sum_ideals


def _path(n: int) -> tuple[list[int], dict[int, int]]:
    """G_∅ in path order from n - 1, and the gap of each of its edges.

    Edge i, the minor of g_i for i in [1, n-1], joins order[gap[i]] and
    order[gap[i] + 1]. The order is the walk `families._path(n, n)`.
    Raises ValueError unless G_∅ is a path on [n] with an end at n - 1.
    """
    order = families._path(n, n)
    if order[0] != n - 1:
        raise ValueError(f"the path of g_1..g_{n - 1} has no end at {n - 1}")
    at = {v: k for k, v in enumerate(order)}
    return order, {i: min(at[v] for v in families.minor_pair(n, i))
                   for i in range(1, n)}


def _minimal_sets(order: list[int], cut: frozenset[int],
                  budget: Optional[Budget] = None) -> Iterator[frozenset[int]]:
    """Every S with P_S minimal for the path `order` less its edges at the
    gaps in `cut` (the edge at gap k joins order[k] and order[k + 1]).

    The rule of Cor. 3.9 in a forest: each s in S has two neighbours
    outside S. On a subgraph of a path that means S is a set of pairwise
    non-adjacent vertices of degree 2. Backtracking lists them: each node
    is one such set, extended only by vertices past its last one and not
    adjacent to it, and ticks the budget once.
    """
    inner = [k for k in range(1, len(order) - 1)
             if k - 1 not in cut and k not in cut]
    stack: list[tuple[int, ...]] = [()]
    while stack:
        S = stack.pop()
        if budget is not None:
            budget.tick()
        yield frozenset(order[k] for k in S)
        after = S[-1] + 2 if S else 0
        stack.extend(S + (k,) for k in inner if k >= after)


def _components(order: list[int], cut: frozenset[int],
                S: frozenset[int]) -> dict[int, int]:
    """Each vertex outside S to the index of its component away from S of
    the path `order` less its edges at the gaps in `cut`."""
    comp, idx = {}, 0
    for k, v in enumerate(order):
        if k - 1 in cut or v in S:
            idx += 1
        if v not in S:
            comp[v] = idx
    return comp


def _in_prime(a: int, b: int, S: frozenset[int], comp: dict[int, int]) -> bool:
    """Whether delta(a, b) lies in P_S: a or b is in S, or they share a
    component away from S."""
    return a in S or b in S or comp[a] == comp[b]


def _minimal_primes(n: int, budget: Optional[Budget] = None
                    ) -> Iterator[tuple[frozenset[int], frozenset[int], dict[int, int]]]:
    """The minimal primes (z_T) + P_S(G_T) of (g_1..g_{n-1}), as triples
    (T, S, components of G_T away from S as in `_components`).

    S follows the rule of `_minimal_sets` for G_T. T follows its own
    rule: the pair (T, S) is minimal iff no minor delta_i with i in T lies
    in P_S(G_T). If delta_i lies in P_S(G_T) for some i in T, then adding
    edge i back to G_T leaves the components away from S unchanged, so
    (T ∖ {i}, S) gives a smaller prime that still holds every g_j.
    Conversely, a smaller prime from (T', S') needs T' ⊆ T. Every
    i in T ∖ T' is an edge of G_T', so delta_i lies in P_S'(G_T'), which
    lies in P_S(G_T). Hence T' = T, and minimality of P_S for G_T settles
    the rest. Each T ticks the budget once, as does each node of the
    backtracking over S.
    """
    order, gap = _path(n)
    for r in range(n):
        for T in itertools.combinations(range(1, n), r):
            if budget is not None:
                budget.tick()
            cut = frozenset(gap[i] for i in T)
            for S in _minimal_sets(order, cut, budget):
                comp = _components(order, cut, S)
                if not any(_in_prime(order[gap[i]], order[gap[i] + 1], S, comp)
                           for i in T):
                    yield frozenset(T), S, comp


def replay_avoidance_argument(n: int, budget: Optional[Budget] = None) -> bool:
    """Graph-level reason the last generator avoids every minimal prime but one.

    Every minimal prime of (g_1..g_{n-1}) other than the full minor ideal
    must avoid the last generator g_n = z_n * delta(n, n-1): its z-part
    never contains z_n, so it would need the minor, which forces n or n-1
    into S or into a common component; the only candidate with n, n-1 in a
    common component and empty T, S is the full minor ideal itself.
    """
    found_full = False
    for T, S, comp in _minimal_primes(n, budget):
        if _in_prime(n, n - 1, S, comp):
            if T or S:
                return False
            found_full = True
    return found_full


def verify_res_int(n: int, budget: Optional[Budget] = None) -> bool:
    """Height bound making the full family a residual intersection.

    Checks height(J_n + (g_n)) >= n where J_n is the link missing the last
    generator, taken at every n from its monomial description
    (`link_ideal(n, n)`), which the links check proves equal to the colon.
    The combinatorial avoidance argument is replayed as well; its walks
    tick the budget, which bounds it.
    """
    if n < 4:
        raise ValueError(f"residual intersection check needs n >= 4, got {n}")
    J_n = link_ideal(n, n)
    g_n = Ideal(standard_ring(n), [g_generator(n, n)])
    return (height(sum_ideals(J_n, g_n), budget) >= n
            and replay_avoidance_argument(n, budget))
