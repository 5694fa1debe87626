"""Simple graphs, binomial edge ideals, and their combinatorial primes.

A prime of a binomial edge ideal is cut out by a vertex subset S: the
variables x_i, y_i for i in S plus the complete-graph minors on each
connected component of the restriction to the remaining vertices. Heights
and inclusions of these primes are combinatorial, which gives an
independent route to the height facts used by the verifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .families import (delta, g_generator, link_ideal, minor_pair, minors_ideal,
                       standard_ring, sub_a)
from .groebner import Budget, Ideal
from .idealops import height, quotient, sum_ideals
from .rings import Polynomial


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices [1, n]; no loops, no multiple edges."""

    n: int
    edges: frozenset[frozenset[int]]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        out = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            out.add(frozenset((a, b)))
        return cls(n, frozenset(out))

    @classmethod
    def path(cls, n: int) -> "SimpleGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(1, n)])

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        return cls.from_edges(n, itertools.combinations(range(1, n + 1), 2))

    def edge_pairs(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    def components(self, removed: frozenset[int] = frozenset()) -> list[frozenset[int]]:
        """Connected components of the restriction away from `removed`."""
        alive = [v for v in range(1, self.n + 1) if v not in removed]
        adj = {v: set() for v in alive}
        for e in self.edges:
            a, b = tuple(e)
            if a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        seen: set[int] = set()
        comps = []
        for start in alive:
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v] - comp)
            seen |= comp
            comps.append(frozenset(comp))
        return comps


def edge_ideal(G: SimpleGraph) -> Ideal:
    """Binomial edge ideal: one minor delta(i,j) per edge {i,j}."""
    return Ideal(standard_ring(G.n), [delta(a, b, G.n) for a, b in G.edge_pairs()])


@dataclass(frozen=True)
class PrimePS:
    """Combinatorial prime of a binomial edge ideal.

    Cut out by S: the variables x_i, y_i for i in S, plus all minors on
    each connected component of the graph restricted away from S.
    """

    graph: SimpleGraph
    S: frozenset[int]
    components: tuple[frozenset[int], ...] = field(init=False)

    def __post_init__(self):
        comps = tuple(sorted(self.graph.components(self.S), key=sorted))
        object.__setattr__(self, "components", comps)

    def ideal(self) -> Ideal:
        n = self.graph.n
        ring = standard_ring(n)
        gens: list[Polynomial] = []
        for i in sorted(self.S):
            gens += [ring.x(i), ring.y(i)]
        for comp in self.components:
            for a, b in itertools.combinations(sorted(comp), 2):
                gens.append(delta(a, b, n))
        return Ideal(ring, gens)

    def height_formula(self) -> int:
        """2|S| plus (size - 1) summed over components."""
        return 2 * len(self.S) + sum(len(c) - 1 for c in self.components)

    def contains(self, other: "PrimePS") -> bool:
        """Ideal containment other <= self, decided combinatorially.

        x_i, y_i lie in self iff i is in self.S; a minor delta(a,b) lies in
        self iff a or b is in self.S or a, b share a component.
        """
        if not other.S <= self.S:
            return False
        comp_of = {}
        for idx, comp in enumerate(self.components):
            for v in comp:
                comp_of[v] = idx
        for comp in other.components:
            for a, b in itertools.combinations(sorted(comp), 2):
                if a in self.S or b in self.S:
                    continue
                if comp_of.get(a) != comp_of.get(b):
                    return False
        return True


def prime_PS(G: SimpleGraph, S: Iterable[int]) -> PrimePS:
    return PrimePS(G, frozenset(S))


def minimal_primes_bei(G: SimpleGraph,
                       budget: Optional[Budget] = None) -> list[PrimePS]:
    """Inclusion-minimal primes among all P_S(G). With a budget, its
    deadline is checked once per candidate subset S."""
    candidates = [prime_PS(G, S)
                  for r in range(G.n + 1)
                  for S in itertools.combinations(range(1, G.n + 1), r)]
    minimal = []
    for p in candidates:
        if budget is not None:
            budget.check_deadline()
        if any(p.contains(q) and not q.contains(p) for q in candidates):
            continue
        if any(q.S == p.S for q in minimal):
            continue
        minimal.append(p)
    return minimal


# -- the residual-intersection height fact -----------------------------------


def _graph_without_generator(n: int) -> SimpleGraph:
    """Graph of the minors inside g_1..g_{n-1}: a path with endpoints n-1, n."""
    return SimpleGraph.from_edges(n, [minor_pair(n, i) for i in range(1, n)])


def _candidate_primes(n: int, budget: Optional[Budget] = None
                      ) -> list[tuple[frozenset[int], PrimePS]]:
    """Minimal primes of (g_1..g_{n-1}) as pairs (T, P_S).

    Each generator is z_i times a minor, so a minimal prime picks a subset
    T of [1, n-1] whose z's it contains and a minimal prime of the edge
    ideal of the remaining minors. Containment is componentwise: z-parts by
    subset, minor parts combinatorially. With a budget, its deadline is
    checked once per subset T and once per candidate (T, P_S).
    """
    out: list[tuple[frozenset[int], PrimePS]] = []
    for r in range(n):
        for T in itertools.combinations(range(1, n), r):
            if budget is not None:
                budget.check_deadline()
            Tset = frozenset(T)
            G_T = SimpleGraph.from_edges(
                n, [minor_pair(n, i) for i in range(1, n) if i not in Tset])
            for p in minimal_primes_bei(G_T, budget):
                out.append((Tset, p))
    minimal = []
    for T1, p1 in out:
        if budget is not None:
            budget.check_deadline()
        dominated = False
        for T2, p2 in out:
            if (T2, p2.S) == (T1, p1.S):
                continue
            if T2 <= T1 and p1.contains(p2) and not (T1 <= T2 and p2.contains(p1)):
                dominated = True
                break
        if not dominated:
            minimal.append((T1, p1))
    return minimal


def replay_avoidance_argument(n: int, budget: Optional[Budget] = None) -> bool:
    """Graph-level reason the last generator avoids every minimal prime but one.

    Every minimal prime of (g_1..g_{n-1}) other than the full minor ideal
    must avoid the last generator g_n = z_n * delta(n, n-1): its z-part
    never contains z_n, so it would need the minor, which forces n or n-1
    into S or into a common component; the only candidate with n, n-1 in a
    common component and empty T, S is the full minor ideal itself.
    """
    found_full = False
    for T, p in _candidate_primes(n, budget):
        in_S = (n in p.S) or (n - 1 in p.S)
        same_comp = any({n, n - 1} <= comp for comp in p.components)
        if in_S:
            return False
        if same_comp:
            if T or p.S:
                return False
            found_full = True
    return found_full


def verify_res_int(n: int, budget: Optional[Budget] = None) -> bool:
    """Height bound making the full family a residual intersection.

    Checks height(J_n + (g_n)) >= n where J_n is the link missing the last
    generator; J_n is computed by the colon at n = 4 and from its proven
    monomial description otherwise. For n <= 6 the combinatorial avoidance
    argument is replayed as well.
    """
    if n < 4:
        raise ValueError(f"residual intersection check needs n >= 4, got {n}")
    if n == 4:
        J_n = quotient(sub_a(n, n), minors_ideal(n), budget)
    else:
        J_n = link_ideal(n, n)
    g_n = Ideal(standard_ring(n), [g_generator(n, n)])
    if height(sum_ideals(J_n, g_n), budget) < n:
        return False
    if n <= 6 and not replay_avoidance_argument(n, budget):
        return False
    return True
