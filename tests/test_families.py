"""The explicit ideal families: minors, generator chains, monomial sets,
index automorphisms, matrix specializations."""

import itertools
import random
from fractions import Fraction

import pytest

import detlink.families as fam
from detlink.families import (G_union_M, IndexPermutation, M_polys,
                              apply_permutation, chain_g, chain_ideal, delta,
                              g_generator, gens_a, generic_residual, link_ideal,
                              minor_list, minor_pair, minors_ideal,
                              phi_permutation, chain_link, set_G, standard_ring,
                              sub_a, sum_links_ideal)
from detlink.groebner import (Budget, BudgetExceeded, Ideal, _packing,
                              ideal_equal, member)
from detlink.idealops import height, quotient

import reference
from reference import (m_ij, m_ij_range, minors, monomial_sets, multidegree,
                       substitute, xyz_monomial)


def leading_monomials(polys):
    return [p.terms[0].mono for p in polys]


class TestDelta:
    def test_pinned(self):
        R = standard_ring(4)
        assert delta(1, 2, 4) == R.x(1) * R.y(2) - R.x(2) * R.y(1)
        assert delta(3, 3, 4) == R.zero
        assert delta(2, 1, 4) == -delta(1, 2, 4)
        assert multidegree(delta(1, 2, 4)) == (1, 1, 0)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            delta(0, 2, 4)
        with pytest.raises(ValueError):
            delta(1, 5, 4)


class TestMinors:
    def test_counts(self):
        assert len(minors_ideal(4).gens) == 6
        assert len(minors_ideal(5).gens) == 10

    def test_height_is_n_minus_1(self):
        assert height(minors_ideal(4)) == 3

    def test_minors_minimally_generate(self):
        from detlink.groebner import minimal_generators
        assert len(minimal_generators(minors_ideal(5))) == 10

    @pytest.mark.parametrize("n", range(2, 10))
    def test_term_built_minors_match_the_arithmetic(self, n):
        # Each minor is built from its two packed terms; `reference.minors`
        # forms x_i*y_j - x_j*y_i by ring arithmetic. Terms compare in order.
        expected = minors(n)
        assert ([[fam._minor(n, i, j).terms for j in range(1, n + 1)]
                 for i in range(1, n + 1)]
                == [[f.terms for f in row] for row in expected])


class TestGeneratorFamily:
    def test_pinned_g2(self):
        R = standard_ring(4)
        assert g_generator(4, 2) == R.z(2) * (R.x(3) * R.y(1) - R.x(1) * R.y(3))

    def test_leading_monomials(self):
        # z_i * x_{i+1} * y_{i-1} for middle indices.
        for n in (4, 5):
            R = standard_ring(n)
            for i in range(2, n):
                lead = (R.z(i) * R.x(i + 1) * R.y(i - 1)).terms[0].mono
                assert g_generator(n, i).terms[0].mono == lead

    def test_sub_family_size(self):
        for i in range(1, 6):
            assert len(sub_a(5, i).gens) == 4

    def test_contained_in_minors(self):
        I = minors_ideal(4)
        assert all(member(g, I) for g in gens_a(4).gens)

    def test_width_floor(self):
        with pytest.raises(ValueError):
            gens_a(3)

    @pytest.mark.parametrize("i", [0, 6, 9, -1])
    def test_index_range(self, i):
        # No index outside [1, n] names a pair or wraps to another member.
        for make in (minor_pair, g_generator, sub_a, link_ideal, M_polys,
                     m_ij_range, phi_permutation):
            with pytest.raises(ValueError):
                make(5, i)


class TestMonomialFamilies:
    def test_pinned_m_ij(self):
        R = standard_ring(4)
        assert m_ij(4, 1, 3) == xyz_monomial(R, ys=[3, 4], zs=[2, 3, 4])
        assert m_ij(4, 4, 2) == xyz_monomial(R, xs=[1], ys=[2], zs=[1, 2, 3])
        assert multidegree(R.from_monomial(m_ij(4, 1, 4))) == (1, 1, 3)

    def test_pinned_M_set(self):
        R = standard_ring(4)
        zpart = [1, 3, 4]
        expected = {xyz_monomial(R, ys=[2, 4], zs=zpart),
                    xyz_monomial(R, xs=[2], ys=[4], zs=zpart),
                    xyz_monomial(R, xs=[4], ys=[2], zs=zpart),
                    xyz_monomial(R, xs=[2, 4], zs=zpart)}
        assert set(leading_monomials(M_polys(4, 2))) == expected

    def test_sizes_and_squarefree(self):
        for n in (4, 5, 6):
            for i in range(1, n + 1):
                ms = leading_monomials(M_polys(n, i))
                assert len(ms) == 2 ** (n - 2)
                assert all(m.is_squarefree() for m in ms)

    def test_index_coincidences(self):
        for n in (4, 5, 6):
            for i in range(2, n):
                assert m_ij(n, i, i) == m_ij(n, i, i - 1)
                assert m_ij(n, i, i + 1) == m_ij(n, i, i + 2)

    def test_every_m_ij_in_M_set(self):
        for n in (4, 5):
            for i in range(1, n + 1):
                ms = set(leading_monomials(M_polys(n, i)))
                distinct = {m_ij(n, i, j) for j in m_ij_range(n, i)}
                assert distinct <= ms
                assert len(distinct) == n - 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            m_ij(4, 1, 2)
        with pytest.raises(ValueError):
            m_ij(4, 4, 4)
        with pytest.raises(ValueError):
            m_ij(4, 2, 6)


class TestChains:
    def test_pinned_values(self):
        R = standard_ring(4)
        first, second = chain_g(4)
        assert first[2] == R.x(1) * R.z(1) * R.z(2) * delta(3, 2, 4)
        assert second[3] == R.y(4) * R.z(3) * R.z(4) * delta(3, 2, 4)

    def test_end_coincidences(self):
        for n in (4, 5, 6):
            first, second = chain_g(n)
            assert first[1] == g_generator(n, 1)
            assert second[n] == g_generator(n, n)

    def test_set_G_size(self):
        for n in (4, 5, 6, 7):
            assert len(set_G(n)) == 3 * n - 4
        assert len(set(p.terms for p in set_G(5))) == 11  # all distinct


class TestSection2:
    def test_pinned_chain_and_monomials(self):
        R = standard_ring(4)
        chain, link = chain_link(4)
        assert list(chain.gens) == [delta(1, 2, 4), delta(2, 3, 4), delta(3, 4, 4)]
        extras = [g for g in link.gens if g not in chain.gens]
        assert extras == [R.y(2) * R.y(3), R.x(2) * R.y(3), R.x(2) * R.x(3)]

    def test_monomial_bidegrees_distinct(self):
        for n in (4, 5, 6):
            _, link = chain_link(n)
            extras = [g for g in link.gens if len(g.terms) == 1]
            bidegs = [multidegree(g)[:2] for g in extras]
            assert len(set(bidegs)) == n - 1

    def test_colon_equals_link(self):
        chain, link = chain_link(4)
        assert ideal_equal(quotient(chain, minors_ideal(4)), link)


class TestAutomorphisms:
    def test_pinned_case_n5(self):
        perm = phi_permutation(5, 5)
        assert perm.image == (3, 2, 4, 1, 5)
        image = apply_permutation(perm, delta(2, 1, 5))
        assert image == delta(2, 3, 5)  # consecutive minor at m-1, m for m=3

    def test_identity_application(self):
        R = standard_ring(4)
        f = gens_a(4).gens[1] * R.x(1) + R.y(2) ** 3
        assert apply_permutation(IndexPermutation(4, (1, 2, 3, 4)), f) == f

    def test_pinned_case_n4_first(self):
        perm = phi_permutation(4, 1)
        images = {apply_permutation(perm, delta(*minor_pair(4, k), 4)).monic()
                  for k in (2, 3, 4)}
        chain = {delta(t, t + 1, 4).monic() for t in (1, 2, 3)}
        assert images == chain

    def test_all_cases_cover_chain(self):
        for n in range(4, 9):
            chain = {delta(t, t + 1, n).monic().terms for t in range(1, n)}
            for case_i in range(1, n + 1):
                perm = phi_permutation(n, case_i)
                images = {
                    apply_permutation(perm, delta(*minor_pair(n, k), n)).monic().terms
                    for k in range(1, n + 1) if k != case_i}
                assert images == chain, (n, case_i)

    def test_z_variables_fixed(self):
        R = standard_ring(5)
        perm = phi_permutation(5, 3)
        f = R.z(2) * R.x(1)
        image = apply_permutation(perm, f)
        assert image == R.z(2) * R.x(perm(1))

    def test_bad_case_rejected(self):
        with pytest.raises(ValueError):
            phi_permutation(5, 0)
        with pytest.raises(ValueError):
            IndexPermutation(3, (1, 1, 2))

    def test_numbered_path_is_the_case_formula(self):
        # The paper's six index cases, for every family at n = 4..40.
        for n in range(4, 41):
            for case_i in range(1, n + 1):
                assert (phi_permutation(n, case_i)
                        == reference.phi_permutation(n, case_i)), (n, case_i)

    def test_path_of_each_family(self):
        assert fam._path(5, 5) == [4, 2, 1, 3, 5]
        assert fam._path(5, 1) == [1, 3, 5, 4, 2]
        for n in range(4, 10):
            for omit in range(1, n + 1):
                order = fam._path(n, omit)
                assert sorted(order) == list(range(1, n + 1))
                assert order[0] < order[-1]
                steps = {frozenset(order[k:k + 2]) for k in range(n - 1)}
                assert steps == {frozenset(minor_pair(n, k))
                                 for k in range(1, n + 1) if k != omit}

    def test_subfamilies_are_regular_sequences_after_z_one(self):
        # Setting every z to 1 turns each omitted-index family into n-1
        # minors of height n-1 (a regular sequence of that length).
        for n in (4, 5):
            R = standard_ring(n)
            images = {name: R.var(name) for name in R.names}
            images.update({f"z{i}": R.one for i in range(1, n + 1)})
            for i in range(1, n + 1):
                minors = [substitute(g, images) for g in sub_a(n, i).gens]
                assert height(Ideal(R, minors)) == n - 1


class TestChainRecurrences:
    def test_pinned_instance(self):
        # n=4, i=1: x2*z1*g_2 - z2*x3*g_{1,1} equals x1*z1*z2*delta(3,2),
        # which is g_{1,2}.
        R = standard_ring(4)
        first, _ = chain_g(4)
        lhs = (R.x(2) * R.z(1) * g_generator(4, 2)
               - R.z(2) * R.x(3) * first[1])
        assert lhs == R.x(1) * R.z(1) * R.z(2) * delta(3, 2, 4)
        assert lhs == first[2]

    def test_second_family_pinned_instance(self):
        # n=4, j=3: y2*y4*z3*z4*g_2 - z2*y1*g_{3,4} = g_{2,4}.
        R = standard_ring(4)
        _, second = chain_g(4)
        lhs = (R.y(2) * R.y(4) * R.z(3) * R.z(4) * g_generator(4, 2)
               - R.z(2) * R.y(1) * second[3])
        assert lhs == second[2]


class TestGenericResidual:
    def test_identity_pattern_recovers_family(self):
        R = standard_ring(4)
        B = [[1 if i == j else 0 for j in range(4)] for i in range(6)]
        aB, I = generic_residual(4, B)
        images = {name: R.var(name) for name in R.names}
        images.update({f"z{i}": R.one for i in range(1, 5)})
        expected = [substitute(g, images) for g in gens_a(4).gens]
        assert list(aB.gens) == expected
        assert ideal_equal(I, minors_ideal(4))

    def test_zero_matrix(self):
        # Degenerate specialization: the zero ideal, rejected downstream by
        # its height.
        aB, _ = generic_residual(4, [[0] * 4 for _ in range(6)])
        assert aB.gens == ()
        assert height(aB) == 0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            generic_residual(4, [[1] * 4 for _ in range(5)])

    def test_minor_order_documented(self):
        # First n entries follow the generator family; the rest are the
        # unused pairs sorted lexicographically, larger index first.
        R = standard_ring(4)
        gs = minor_list(4)
        assert gs[:4] == [delta(2, 1, 4), delta(3, 1, 4), delta(4, 2, 4),
                          delta(4, 3, 4)]
        assert gs[4:] == [delta(4, 1, 4), delta(3, 2, 4)]
        assert all(g.terms[0].coeff == 1 for g in gs)


class TestLinkIdeals:
    def test_link_ideal_gens(self):
        L = link_ideal(4, 2)
        assert len(L.gens) == 3 + 4

    def test_sum_links_gens(self):
        S = sum_links_ideal(4)
        assert len(S.gens) == 4 + 16


class TestPackedMonomialSets:
    """The monomial sets are built as sums of packed variables; the
    `window_products` construction of `reference.monomial_sets` is the
    oracle. Their order fixes the 1-based witness indices of a certificate
    on G u M(n), so it is compared too, term for term."""

    def test_matches_the_oracle(self):
        for n in range(4, 10):
            expected = monomial_sets(n)
            for i in range(1, n + 1):
                assert ([f.terms for f in M_polys(n, i)]
                        == [f.terms for f in expected[i - 1]])
            flat = [f for ms in expected for f in ms]
            assert ([f.terms for f in G_union_M(n)]
                    == [f.terms for f in set_G(n) + flat])
            assert sum_links_ideal(n).gens == gens_a(n).gens + tuple(flat)
            gs = gens_a(n).gens
            for i in range(1, n + 1):
                assert (link_ideal(n, i).gens
                        == gs[:i - 1] + gs[i:] + tuple(expected[i - 1]))

    def test_a_stopped_build_keeps_nothing(self, monkeypatch):
        # The deadline stops the build while the sets grow; the next build
        # starts afresh, and every later call gets the sets it built.
        monkeypatch.setattr(fam, "_packed_sets", {})
        with pytest.raises(BudgetExceeded, match="timeout"):
            fam._packed_monomial_sets(6, Budget(timeout_secs=0))
        sets = fam._packed_monomial_sets(6, Budget())
        assert [len(ms) for ms in sets] == [16] * 6
        assert fam._packed_monomial_sets(6) is sets


class TestPackedBuilders:
    """Every family built from packed terms matches its oracle in
    `reference`, built by ring arithmetic, term for term."""

    @pytest.mark.parametrize("n", range(4, 10))
    def test_generators(self, n):
        assert ([f.terms for f in fam._generators(n)]
                == [f.terms for f in reference.generators(n)])

    @pytest.mark.parametrize("n", range(4, 10))
    def test_chains(self, n):
        assert ([[f.terms for f in chain] for chain in fam._chains(n)]
                == [[f.terms for f in chain] for chain in reference.chains(n)])

    @pytest.mark.parametrize("n", range(4, 10))
    def test_chain_link_monomials(self, n):
        assert ([f.terms for f in fam._chain_link_monomials(n)]
                == [f.terms for f in reference.chain_link_monomials(n)])

    @pytest.mark.parametrize("n", range(4, 10))
    def test_generic_residual(self, n):
        rng = random.Random(f"generic-residual/{n}")
        r = n * (n - 1) // 2
        for _ in range(3):
            B = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  if rng.random() < 0.7 else 0 for _ in range(n)]
                 for _ in range(r)]
            aB, I = generic_residual(n, B)
            expected = [f for f in reference.generic_residual(n, B) if f]
            assert [f.terms for f in aB.gens] == [f.terms for f in expected]
            assert I.gens == tuple(minor_list(n))

    @pytest.mark.parametrize("n", range(4, 10))
    def test_window_products(self, n):
        R = standard_ring(n)
        unpack = _packing(R.nvars).unpack
        for i in range(1, n + 1):
            window, zs = fam._link(n, i)
            got = fam._window_products(n, window, zs)
            expected = reference.window_products(R, window, zs)
            assert ([(K, unpack(m)) for K, m in got]
                    == sorted(expected, key=lambda km: km[1].key, reverse=True))


class TestBuiltOncePerWidth:
    """Families are built once per width; every call returns fresh values."""

    def test_mutating_a_result_changes_no_later_call(self):
        n = 5
        views = {
            "set_G": lambda: set_G(n),
            "G_union_M": lambda: G_union_M(n),
            "M_polys": lambda: M_polys(n, 2),
            "chain_g": lambda: chain_g(n),
        }
        before = {name: view() for name, view in views.items()}
        for name in ("set_G", "G_union_M", "M_polys"):
            got = views[name]()
            got.reverse()
            got.pop()
            got.append(got[0])
        first, second = chain_g(n)
        first[1], second[n] = second[n], first[1]
        del first[2]
        assert {name: view() for name, view in views.items()} == before
        gens = link_ideal(n, 2).gens
        with pytest.raises(AttributeError):
            gens.append(gens[0])
        assert link_ideal(n, 2).gens == gens

    def test_every_ideal_is_fresh(self):
        makers = [minors_ideal, gens_a, sum_links_ideal, chain_ideal,
                  lambda n: sub_a(n, 2), lambda n: link_ideal(n, 2),
                  lambda n: chain_link(n)[0], lambda n: chain_link(n)[1]]
        for make in makers:
            first = make(4)
            first.groebner()
            second = make(4)
            assert second is not first
            assert second._basis is None and second._basis_prims is None

    def test_builders_call_no_public_constructor(self, monkeypatch):
        # A patched public constructor cannot leak into a cached family.
        def refuse(*args):
            raise AssertionError("a builder called a public constructor")

        for name in ("delta", "minors_ideal", "g_generator", "gens_a", "sub_a",
                     "M_polys", "link_ideal", "chain_g", "set_G", "G_union_M",
                     "sum_links_ideal", "chain_ideal", "chain_link",
                     "minor_pair", "minor_list"):
            monkeypatch.setattr(fam, name, refuse)
        builders = (fam._minor, fam._generators, fam._chains,
                    fam._monomial_sets, fam._chain_link_monomials)
        for build in builders:
            build.cache_clear()
        for build in builders[1:]:
            assert build(6) is build(6)
        for i, j in itertools.product(range(1, 7), repeat=2):
            assert fam._minor(6, i, j) is fam._minor(6, i, j)
