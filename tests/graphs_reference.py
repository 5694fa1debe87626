"""Brute-force reference for the combinatorial primes of binomial edge ideals.

Simple graphs, binomial edge ideals, and the primes P_S(G) of every vertex
subset S, compared pairwise to keep the inclusion-minimal ones. The tests
use these as the oracle for the local rules of `detlink.graphs`, and check
their heights and containments against Groebner computations.

A prime of a binomial edge ideal is cut out by a vertex subset S: the
variables x_i, y_i for i in S plus the complete-graph minors on each
connected component of the restriction to the remaining vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from detlink.families import delta, minor_pair, standard_ring
from detlink.groebner import Budget, Ideal
from detlink.rings import Polynomial


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
    # Each vertex outside S to the index of its component; derived from
    # the fields above, so left out of comparison.
    _component_of: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        comps = tuple(sorted(self.graph.components(self.S), key=sorted))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_component_of",
                           {v: idx for idx, comp in enumerate(comps) for v in comp})

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
        self iff a or b is in self.S or a, b share a component. So every
        component of other, less self.S, must lie in one component of self.
        """
        if not other.S <= self.S:
            return False
        comp_of = self._component_of
        for comp in other.components:
            home = None     # the component of self that comp has met so far
            for v in comp:
                idx = comp_of.get(v)
                if idx is not None and idx != home:
                    if home is not None:
                        return False
                    home = idx
        return True


def prime_PS(G: SimpleGraph, S: Iterable[int]) -> PrimePS:
    return PrimePS(G, frozenset(S))


def minimal_primes_bei(G: SimpleGraph,
                       budget: Optional[Budget] = None) -> list[PrimePS]:
    """Inclusion-minimal primes among all P_S(G). With a budget, each
    candidate subset S ticks it once."""
    candidates = [prime_PS(G, S)
                  for r in range(G.n + 1)
                  for S in itertools.combinations(range(1, G.n + 1), r)]
    minimal = []
    for p in candidates:
        if budget is not None:
            budget.tick()
        if any(p.contains(q) and not q.contains(p) for q in candidates):
            continue
        if any(q.S == p.S for q in minimal):
            continue
        minimal.append(p)
    return minimal


def _graph_without_generator(n: int, T: frozenset[int]) -> SimpleGraph:
    """Graph of the minors inside g_i for i in [1, n-1] outside T; for
    empty T, a path with endpoints n-1, n."""
    return SimpleGraph.from_edges(
        n, [minor_pair(n, i) for i in range(1, n) if i not in T])


def _candidate_primes(n: int, budget: Optional[Budget] = None
                      ) -> list[tuple[frozenset[int], PrimePS]]:
    """Minimal primes of (g_1..g_{n-1}) as pairs (T, P_S).

    Each generator is z_i times a minor, so a minimal prime picks a subset
    T of [1, n-1] whose z's it contains and a minimal prime of the edge
    ideal of the remaining minors. Containment is componentwise: z-parts by
    subset, minor parts combinatorially. With a budget, each subset T and
    each candidate (T, P_S) ticks it once.
    """
    out: list[tuple[frozenset[int], PrimePS]] = []
    for r in range(n):
        for T in itertools.combinations(range(1, n), r):
            if budget is not None:
                budget.tick()
            Tset = frozenset(T)
            for p in minimal_primes_bei(_graph_without_generator(n, Tset), budget):
                out.append((Tset, p))
    minimal = []
    for T1, p1 in out:
        if budget is not None:
            budget.tick()
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
