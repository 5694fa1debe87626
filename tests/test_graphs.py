"""Binomial edge ideals, combinatorial primes, residual-intersection heights.

The brute-force primes of `graphs_reference` are the oracle for the local
rules by which `detlink.graphs` lists the minimal primes directly."""

import itertools
import random

import pytest

from detlink.families import delta, minors_ideal
from detlink import families
from detlink.graphs import (replay_avoidance_argument, verify_res_int,
                            _minimal_primes, _minimal_sets, _path)
from detlink.groebner import ideal_equal, member
from detlink.idealops import height

from graphs_reference import (SimpleGraph, edge_ideal, minimal_primes_bei,
                              prime_PS, _candidate_primes, _graph_without_generator)


class TestSimpleGraph:
    def test_constructors(self):
        P = SimpleGraph.path(4)
        assert P.edge_pairs() == [(1, 2), (2, 3), (3, 4)]
        K = SimpleGraph.complete(4)
        assert len(K.edges) == 6

    def test_no_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(4, [(2, 2)])

    def test_components(self):
        G = SimpleGraph.from_edges(5, [(1, 2), (3, 4)])
        comps = sorted(G.components(), key=sorted)
        assert comps == [frozenset({1, 2}), frozenset({3, 4}), frozenset({5})]
        comps2 = sorted(G.components(frozenset({2})), key=sorted)
        assert comps2 == [frozenset({1}), frozenset({3, 4}), frozenset({5})]


class TestEdgeIdeal:
    def test_pinned(self):
        G = SimpleGraph.from_edges(4, [(1, 2)])
        assert list(edge_ideal(G).gens) == [delta(1, 2, 4)]
        assert ideal_equal(edge_ideal(SimpleGraph.complete(4)), minors_ideal(4))

    def test_chain_graph_is_path(self):
        from detlink.families import chain_ideal
        G = SimpleGraph.path(5)
        assert ideal_equal(edge_ideal(G), chain_ideal(5))


class TestPrimePS:
    def test_single_edge_minimal_primes(self):
        G = SimpleGraph.from_edges(4, [(1, 2)])
        primes = minimal_primes_bei(G)
        assert len(primes) == 1
        assert primes[0].S == frozenset()

    def test_path4_minimal_primes(self):
        primes = minimal_primes_bei(SimpleGraph.path(4))
        assert sorted(sorted(p.S) for p in primes) == [[], [2], [3]]

    def test_complete_graph_unique_minimal_prime(self):
        primes = minimal_primes_bei(SimpleGraph.complete(4))
        assert len(primes) == 1
        assert ideal_equal(primes[0].ideal(), minors_ideal(4))

    def test_every_prime_contains_edge_ideal(self):
        G = SimpleGraph.path(5)
        E = edge_ideal(G)
        for r in range(3):
            for S in itertools.combinations(range(1, 6), r):
                P = prime_PS(G, S)
                assert all(member(g, P.ideal()) for g in E.gens)

    def test_height_formula_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.choice([2, 3, 4, 5])
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.5]
            G = SimpleGraph.from_edges(n, edges)
            S = frozenset(v for v in range(1, n + 1) if rng.random() < 0.25)
            P = prime_PS(G, S)
            assert P.height_formula() == height(P.ideal())

    def test_containment_combinatorics_vs_groebner(self):
        G = SimpleGraph.path(4)
        subsets = [frozenset(), frozenset({2}), frozenset({3}), frozenset({2, 3})]
        for S1 in subsets:
            for S2 in subsets:
                P1, P2 = prime_PS(G, S1), prime_PS(G, S2)
                combinatorial = P2.contains(P1)
                groebner = all(member(g, P2.ideal()) for g in P1.ideal().gens)
                assert combinatorial == groebner

    def test_containment_matches_minor_pairs(self):
        # The componentwise test against the definition: every x_i, y_i and
        # every minor of other lies in self. Over every pair of subsets of
        # three graphs on five vertices.
        def by_minors(P1, P2):
            return P2.S <= P1.S and all(
                a in P1.S or b in P1.S
                or any({a, b} <= comp for comp in P1.components)
                for comp in P2.components
                for a, b in itertools.combinations(sorted(comp), 2))

        for G in (SimpleGraph.path(5), SimpleGraph.complete(5),
                  SimpleGraph.from_edges(5, [(1, 2), (2, 3), (4, 5)])):
            primes = [prime_PS(G, S) for r in range(6)
                      for S in itertools.combinations(range(1, 6), r)]
            for P1 in primes:
                for P2 in primes:
                    assert P1.contains(P2) == by_minors(P1, P2)

    def test_component_map_left_out_of_comparison(self):
        G = SimpleGraph.path(4)
        P = prime_PS(G, {2})
        assert P._component_of == {1: 0, 3: 1, 4: 1}
        assert P == prime_PS(G, [2]) and hash(P) == hash(prime_PS(G, [2]))
        assert "_component_of" not in repr(P)


class TestResidualIntersection:
    def test_without_last_generator_graph(self):
        G = _graph_without_generator(5, frozenset())
        assert G.edge_pairs() == [(1, 2), (1, 3), (2, 4), (3, 5)]
        comps = G.components()
        assert comps == [frozenset({1, 2, 3, 4, 5})]

    def test_path_order(self):
        assert _path(5) == ([4, 2, 1, 3, 5], {3: 0, 1: 1, 2: 2, 4: 3})
        for n in range(4, 10):
            order, gap = _path(n)
            assert sorted(order) == list(range(1, n + 1))
            assert (order[0], order[-1]) == (n - 1, n)
            assert {i: frozenset(order[k:k + 2]) for i, k in gap.items()} == {
                i: frozenset(families.minor_pair(n, i)) for i in range(1, n)}

    def test_path_precondition_checked(self, monkeypatch):
        # A star is a forest but no path; a cycle is no forest. The walk
        # refuses both before it lists any prime.
        star = {1: (1, 2), 2: (1, 3), 3: (1, 4), 4: (1, 5)}
        cycle = {1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 1)}
        for pairs in (star, cycle):
            monkeypatch.setattr(families, "minor_pair", lambda n, i: pairs[i])
            with pytest.raises(ValueError):
                next(_minimal_primes(5))

    def test_minimal_sets_match_oracle(self):
        # The S rule against the generate-then-filter primes on every
        # subgraph of the path 1 - 2 - ... - n; the edge at gap k joins
        # k + 1 and k + 2.
        for n in range(1, 8):
            order = list(range(1, n + 1))
            for r in range(n):
                for cut in itertools.combinations(range(n - 1), r):
                    G = SimpleGraph.from_edges(
                        n, [(k + 1, k + 2) for k in range(n - 1) if k not in cut])
                    got = list(_minimal_sets(order, frozenset(cut)))
                    assert len(got) == len(set(got))
                    assert set(got) == {p.S for p in minimal_primes_bei(G)}

    def test_minimal_primes_match_oracle(self):
        counts = []
        for n in range(4, 9):
            got = [(T, S) for T, S, _ in _minimal_primes(n)]
            assert len(got) == len(set(got))
            assert set(got) == {(T, p.S) for T, p in _candidate_primes(n)}
            counts.append(len(got))
        assert counts == [12, 29, 70, 169, 408]

    def test_replay(self):
        for n in range(4, 12):
            assert replay_avoidance_argument(n)

    def test_verify_res_int(self):
        assert verify_res_int(4)          # height via the actual colon
        assert verify_res_int(5)          # height via the proven description
        assert verify_res_int(7)          # the replay runs at every n

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_res_int(3)
