"""Verifier orchestration: reports, reproducibility, CLI."""

import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import detlink.checks as checks
import detlink.families as fam
from detlink.checks import report_document, report_json, run_checks
from detlink.cli import FAMILIES, main
from detlink.groebner import (Budget, BudgetExceeded, Ideal, _add_scaled,
                              _certificate_prims, _packing, _polynomials,
                              _prim_from_poly, divide, ideal_equal,
                              is_groebner_basis, member, s_polynomial)
from detlink.idealops import quotient

import reference
from reference import (check_gb_sum_full, check_reduced_full,
                       check_sum_equals_colon_full, divides, gcd,
                       groebner_basis_ideal, packed_monomials,
                       telescoping_identities, telescoping_witness)

FAST = ["gb-a", "gb-sum", "heights", "automorphisms", "reduced"]


def _untimed(reports, n, seed):
    """The report document without the elapsed times, which vary."""
    doc = report_document(reports, n, seed)
    for entry in doc["checks"]:
        entry.pop("elapsed_ms")
    return doc


class TestRunChecks:
    def test_fast_checks_pass_at_n4(self):
        reports = run_checks(4, FAST, seed=1)
        assert [r.status for r in reports] == ["pass"] * len(reports)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            run_checks(3, "all")

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_checks(4, ["gb-a", "nonsense"])

    def test_string_selection_rejected(self):
        # A bare name is a string, not a list of names.
        with pytest.raises(ValueError, match="'gb-a'"):
            run_checks(4, "gb-a")

    def test_canonical_order(self):
        reports = run_checks(4, ["heights", "gb-a"], seed=0)
        assert [r.name for r in reports] == ["gb-a", "heights"]

    def test_skip_tiers(self):
        # Only the probe has a width; past it the probe is skipped.
        report = run_checks(5, ["random-specialization"])[0]
        assert report.status == "skipped"
        assert report.witness == "runs for n <= 4"

    @pytest.mark.parametrize("name, n", [
        ("links", 6), ("section2", 6), ("heights", 7), ("reduced", 7),
        ("sum-equals-colon", 8)])
    def test_formerly_gated_checks_run(self, name, n):
        # One width past the limit each check had before budgets bounded it.
        assert run_checks(n, [name])[0].status == "pass"

    def test_ignored_stretch_changes_no_verdict(self):
        # The colon steps run at n = 5 without a budget, and the ignored
        # stretch argument changes no verdict.
        selection = ["links", "sum-equals-colon"]
        reports = run_checks(5, selection)
        assert [r.status for r in reports] == ["pass", "pass"]
        docs = [_untimed(run_checks(5, selection, stretch=stretch), 5, 0)
                for stretch in (False, True)]
        assert docs[0] == docs[1] == _untimed(reports, 5, 0)

    def test_reports_reproducible(self):
        selection = ["gb-a", "identities"]
        a = run_checks(5, selection, seed=7)
        b = run_checks(5, selection, seed=7)
        assert _untimed(a, 5, 7) == _untimed(b, 5, 7)

    def test_budget_exceeded_status(self):
        reports = run_checks(4, ["gb-a"], max_pairs=2)
        assert reports[0].status == "budget-exceeded"
        assert "budget" in reports[0].witness

    @pytest.mark.parametrize("name, n", [("identities", 7), ("automorphisms", 5)])
    def test_expired_deadline_stops_unit_free_checks(self, name, n):
        # These checks count no units of work; their loops check the
        # deadline instead.
        report, = run_checks(n, [name], timeout_secs=0)
        assert report.status == "budget-exceeded"
        assert "timeout" in report.witness

    def test_expired_deadline_stops_the_chain_proof(self):
        with pytest.raises(BudgetExceeded):
            checks._chain_proof(6, Budget(timeout_secs=0))
        assert checks._chain_proof(6, Budget(timeout_secs=60))[0] is None

    def test_deadline_stops_wide_checks(self):
        # At n = 300 the chain proof and the automorphism images each take
        # longer than the deadline; both checks stop soon after it.
        t0 = time.perf_counter()
        reports = run_checks(300, ["gb-a", "automorphisms"], timeout_secs=0.5)
        assert [r.status for r in reports] == ["budget-exceeded"] * 2
        assert all("timeout" in r.witness for r in reports)
        assert all(r.elapsed_ms < 5000 for r in reports)
        assert time.perf_counter() - t0 < 15

    def test_deadline_stops_the_sets_and_the_installs(self):
        # At n = 300 the monomial sets would hold 300 * 2^298 monomials,
        # more than the units gb-sum has left, so it stops before building
        # them; heights' Buchberger run installs 299 minors before its first
        # pair, and the colons of links and section2 start by one minor
        # each, with the 44,850 minors left unbuilt.
        reports = run_checks(300, ["gb-sum", "heights", "links", "section2"],
                             timeout_secs=0.5)
        assert [r.status for r in reports] == ["budget-exceeded"] * 4
        assert reports[0].witness == "work budget of 1000000 units exhausted"
        assert all("timeout" in r.witness for r in reports[1:])
        assert all(r.elapsed_ms < 1500 for r in reports)

    def test_units_left_stop_the_sets_without_a_deadline(self):
        # 22 * 2^20 monomials exceed the default cap: each check that reads
        # the monomial sets stops before they are built.
        names = ["gb-sum", "sum-equals-colon", "heights", "reduced"]
        t0 = time.perf_counter()
        reports = run_checks(22, names)
        assert [(r.status, r.witness) for r in reports] == [
            ("budget-exceeded", "work budget of 1000000 units exhausted")] * 4
        assert time.perf_counter() - t0 < 10

    @pytest.mark.parametrize("name", ["links", "heights"])
    def test_budget_reads_the_sets_first(self, monkeypatch, name):
        # links and heights read the monomial sets with their budget before
        # any link's description reads them without one.
        budgets = []
        original = fam._packed_monomial_sets
        monkeypatch.setattr(fam, "_packed_monomial_sets", lambda n, budget=None: (
            budgets.append(budget) or original(n, budget)))
        assert run_checks(5, [name])[0].status == "pass"
        assert isinstance(budgets[0], Budget) and None in budgets

    def test_deadline_comes_before_the_telescoping_minors(self):
        # The 44,850 minors of n = 300 are built as their identities come up.
        report, = run_checks(300, ["identities"], timeout_secs=1)
        assert report.status == "budget-exceeded"
        assert report.elapsed_ms < 2000

    @pytest.mark.parametrize("pairs", [
        {1: (2, 3), 2: (1, 2), 3: (1, 3), 4: (1, 4), 5: (1, 5)},
        {1: (1, 5), 2: (1, 2), 3: (2, 3), 4: (3, 4), 5: (4, 1)}])
    def test_automorphisms_need_a_path(self, monkeypatch, pairs):
        # Without g_1 the pairs form a star around 1, or a cycle with 5 left
        # out: no numbering of [1, 5] makes them the chain.
        monkeypatch.setattr(checks.fam, "minor_pair", lambda n, i: pairs[i])
        assert checks.check_automorphisms(5, random.Random(0), Budget()) == (
            "fail", "case 1: the minor pairs of the g_k with k != 1 are not "
                    "a path on [1, 5]")

    def test_mutated_family_detected(self, monkeypatch):
        original = fam.set_G

        def corrupted(n):
            G = original(n)
            R = fam.standard_ring(n)
            lead = G[1].terms[0].coeff * R.from_monomial(G[1].terms[0].mono)
            G[1] = G[1] - 2 * lead
            return G

        monkeypatch.setattr(checks.fam, "set_G", corrupted)
        report = run_checks(4, ["gb-a"], seed=1)[0]
        assert report.status == "fail"
        assert "S-pair" in report.witness


    def test_containment_witness(self, monkeypatch):
        # x1 joins M_2 and x1 * delta(1, 2) escapes the full family; the
        # witness names the first escaping product in (i, m, minor) order.
        R = fam.standard_ring(4)
        _extend_M(monkeypatch, _packed(R.x(1)))
        a_full = groebner_basis_ideal(R, fam.set_G(4))
        first = next((mono, d) for mono in packed_monomials(4)
                     for d in fam.minors_ideal(4).gens
                     if not member(mono * d, a_full))
        report = run_checks(4, ["sum-equals-colon"])[0]
        assert report.status == "fail"
        assert report.witness == (f"containment fails: ({R.format(first[0])}) * "
                                  f"({R.format(first[1])}) is not in the full family")
        assert report.witness.startswith("containment fails: (x1) * ")

    def test_reduced_detects_a_square(self, monkeypatch):
        # Only the leading monomials of the reduced basis decide: x1^2 and
        # x1^2 + y1 fail, x1*y2 and x1 + y1 (led by x1) pass. No replaced
        # sum of links is generated by G + core, so each takes the fallback.
        R = fam.standard_ring(4)
        x1, y1, y2 = R.x(1), R.y(1), R.y(2)
        for gens, status in (([x1 * y2], "pass"), ([x1 ** 2], "fail"),
                             ([x1 ** 2 + y1], "fail"), ([x1 + y1], "pass")):
            monkeypatch.setattr(checks.fam, "sum_links_ideal",
                                lambda n, gens=gens: Ideal(R, gens))
            assert _reduced_falls_back(4)[0] == status
            report = run_checks(4, ["reduced"])[0]
            assert report.status == status
            if status == "fail":
                assert report.witness == ("initial ideal of the sum of links "
                                          "is not squarefree")

    def test_chain_membership_witness(self, monkeypatch):
        # A chain without its last generator: the witness names the first
        # X_K Y_L delta(i, j) outside it, in the order of the exhaustive scan.
        original = fam.chain_ideal
        monkeypatch.setattr(checks.fam, "chain_ideal",
                            lambda n: Ideal(fam.standard_ring(n), original(n).gens[:-1]))
        R = fam.standard_ring(4)
        chain = checks.fam.chain_ideal(4)
        first = next(
            (i, j, K) for i in range(1, 5) for j in range(i + 1, 5)
            for r in range(j - i) for K in itertools.combinations(range(i + 1, j), r)
            if not member(R.from_monomial(reference.xyz_monomial(
                R, xs=K, ys=[v for v in range(i + 1, j) if v not in K]))
                * fam.delta(i, j, 4), chain))
        report = run_checks(4, ["identities"])[0]
        assert report.status == "fail"
        i, j, K = first
        assert report.witness == f"X_K Y_L delta({i},{j}) escapes the chain for K={K}"

    @pytest.mark.parametrize("chain, k, witness", [
        (0, 3, "first chain recurrence fails at i=2"),
        (1, 2, "second chain recurrence fails at j=3"),
        (0, 1, "a chain does not start at g_1 or g_n"),
        (1, 4, "a chain does not start at g_1 or g_n")])
    def test_chain_recurrence_witness(self, monkeypatch, chain, k, witness):
        # One chain element doubled: it leaves (g_1..g_n) as far as the
        # recurrences can tell, so every check that relies on the chain
        # lying in (g_1..g_n) fails with the recurrence witness.
        original = fam.chain_g

        def doubled(n):
            chains = original(n)
            chains[chain][k] = 2 * chains[chain][k]
            return chains

        monkeypatch.setattr(checks.fam, "chain_g", doubled)
        reports = run_checks(4, ["gb-a", "sum-equals-colon", "identities"])
        assert [(r.status, r.witness) for r in reports] == [("fail", witness)] * 3

    @pytest.mark.parametrize("n", [4, 6])
    def test_element_outside_the_chains_witness(self, monkeypatch, n):
        # x1 joins G: G still passes its certificate, as a basis of an ideal
        # larger than (g_1..g_n), and the chains still pass their recurrences,
        # so only tying G to g_1..g_n and the proven chain elements fails it.
        original = fam.set_G
        monkeypatch.setattr(checks.fam, "set_G",
                            lambda n: original(n) + [fam.standard_ring(n).x(1)])
        assert is_groebner_basis(checks.fam.set_G(n)).ok
        reports = run_checks(n, ["gb-a", "sum-equals-colon"])
        assert [(r.status, r.witness) for r in reports] == [
            ("fail", "extended generator set is not g_1..g_n followed by the "
                     "proven chain elements")] * 2


class TestWorkCounts:
    # Units of `heights` at n = 7: the S-polynomials of its height bases,
    # every node of the cover walks, and every subset T and backtracking
    # node of the prime walk.
    HEIGHTS_7 = 1_153
    SCRIPT = ("import random; from detlink.checks import check_heights; "
              "from detlink.groebner import Budget; budget = Budget(); "
              "check_heights(7, random.Random('0/heights'), budget); "
              "print(budget.pairs)")

    def test_heights_units_pinned(self):
        budget = Budget()
        assert checks.check_heights(7, random.Random("0/heights"), budget) == (
            "pass", None)
        assert budget.pairs == self.HEIGHTS_7
        with pytest.raises(BudgetExceeded):
            checks.check_heights(7, random.Random("0/heights"),
                                 Budget(max_pairs=self.HEIGHTS_7 - 1))

    def test_heights_units_independent_of_hash_seed(self):
        src = str(pathlib.Path(checks.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert int(out) == self.HEIGHTS_7


def _packed(f):
    """The packed leading monomial of f."""
    return _packing(f.ring.nvars).pack(f.terms[0].mono)


def _split(n):
    """set_G(n) and the packed monomials of M_1, ..., M_n, as the checks
    read them."""
    return fam.set_G(n), checks._packed_monomials(n, Budget())


def _extend_M(monkeypatch, m):
    """The packed monomial m joins M_2 in the packed sets, the one form of
    the monomial sets the checks read."""
    original = fam._packed_monomial_sets
    monkeypatch.setattr(checks.fam, "_packed_monomial_sets",
                        lambda n, budget=None: tuple(
        ms + (m,) if i == 1 else ms for i, ms in enumerate(original(n))))


def _drop_M(monkeypatch, m):
    """The packed monomial m leaves the packed sets."""
    original = fam._packed_monomial_sets
    monkeypatch.setattr(checks.fam, "_packed_monomial_sets",
                        lambda n, budget=None: tuple(
        tuple(u for u in ms if u != m) for ms in original(n)))


def _agree_with_the_full_walks(n):
    """gb-sum and sum-equals-colon give the full walks' status and witness,
    and return them."""
    got = [checks.check_gb_sum(n, random.Random(0), Budget()),
           checks.check_sum_equals_colon(n, random.Random(0), Budget())]
    assert got == [check_gb_sum_full(n, Budget()),
                   check_sum_equals_colon_full(n, Budget())]
    return got


class TestCoreCertificate:
    # |G + core| and the units of a passing gb-sum, n = 4..9: the core's
    # certificate; reducing the rest by G + core charges nothing.
    SIZES = (20, 31, 44, 59, 76, 95)
    UNITS = (63, 126, 225, 370, 571, 838)

    def test_core_sizes_and_units_pinned(self):
        for n, size, units in zip(range(4, 10), self.SIZES, self.UNITS):
            G, monos = _split(n)
            core = checks._core(G, monos, Budget())
            assert len(G) + len(core) == size
            budget = Budget()
            assert checks.check_gb_sum(n, random.Random(0), budget) == ("pass", None)
            assert budget.pairs == units
        # A cap one below the fast path's units stops the check.
        report, = run_checks(6, ["gb-sum"], max_pairs=self.UNITS[2] - 1)
        assert report.status == "budget-exceeded"

    def test_core_is_what_no_leading_monomial_of_G_divides(self):
        G, monos = _split(5)
        core = checks._core(G, monos, Budget())
        lms = [g.terms[0].mono for g in G]
        unpack = _packing(G[0].ring.nvars).unpack
        assert core == [m for m in monos
                        if not any(divides(lm, unpack(m)) for lm in lms)]

    @pytest.mark.parametrize("n", range(4, 10))
    def test_core_agrees_with_the_polynomial_core(self, n):
        # The packed core is the Polynomial one's leading monomials, in
        # order, and neither charges a unit.
        G, monos = _split(n)
        packed, polys = Budget(), Budget()
        core = checks._core(G, monos, packed)
        want = reference.core(G, packed_monomials(n), polys)
        assert core == [_packed(f) for f in want]
        assert packed.pairs == polys.pairs

    @pytest.mark.parametrize("corrupt", ["drop", "x1", "zero"])
    def test_corrupted_cores_agree(self, corrupt):
        # A core monomial and a rest monomial dropped, in turn; x1 added to
        # the monomials, where it is core; a zero element of G, where
        # there is no core.
        G, monos = _split(5)
        R = G[0].ring
        unpack = _packing(R.nvars).unpack
        core = checks._core(G, monos, Budget())
        if corrupt == "drop":
            rest = next(m for m in monos if m not in core)
            cases = [(G, [u for u in monos if u != m]) for m in (core[0], rest)]
        elif corrupt == "x1":
            cases = [(G, [*monos, _packed(R.x(1))])]
        else:
            cases = [([*G[:2], R.zero, *G[2:]], monos)]
        for G, monos in cases:
            got = checks._core(G, monos, Budget())
            want = reference.core(
                G, [R.from_monomial(unpack(m)) for m in monos], Budget())
            assert got == (None if want is None else [_packed(f) for f in want])
        if corrupt == "x1":
            assert got[-1] == _packed(R.x(1))
        elif corrupt == "zero":
            assert got is None

    @pytest.mark.parametrize("n", range(4, 8))
    def test_agrees_with_the_full_walks(self, n):
        assert _agree_with_the_full_walks(n) == [("pass", None)] * 2

    def test_escaping_monomial(self, monkeypatch):
        # x1 joins M_2 in the packed sets. It is core, so sum-equals-colon
        # tests every product and names the first escaping one; G ∪ M plus
        # x1 is still a Groebner basis, of a larger ideal.
        R = fam.standard_ring(4)
        _extend_M(monkeypatch, _packed(R.x(1)))
        assert _packed(R.x(1)) in checks._core(*_split(4), Budget())
        gb_sum, colon = _agree_with_the_full_walks(4)
        assert gb_sum == ("pass", None) and colon[0] == "fail"
        assert colon[1].startswith("containment fails: (x1) * ")

    def test_escaping_rest_monomial(self, monkeypatch):
        # x1 * in(g_1) joins M_2: in(g_1) divides it, and its remainder by
        # G + core is not 0, so both checks test every element.
        R = fam.standard_ring(4)
        m = R.x(1) * R.from_monomial(fam.g_generator(4, 1).terms[0].mono)
        _extend_M(monkeypatch, _packed(m))
        assert checks._core(*_split(4), Budget()) is None
        gb_sum, colon = _agree_with_the_full_walks(4)
        assert colon[0] == "fail"
        assert colon[1].startswith(f"containment fails: ({R.format(m)}) * ")

    def test_corrupted_generator(self, monkeypatch):
        # The tail of G[1] times z1: a monomial it divides no longer reduces
        # to 0 by G + core, so gb-sum walks G ∪ M; sum-equals-colon fails
        # on the certificate of G.
        original = fam.set_G

        def corrupted(n):
            G = original(n)
            R = fam.standard_ring(n)
            lead = G[1].terms[0].coeff * R.from_monomial(G[1].terms[0].mono)
            G[1] = lead + (G[1] - lead) * R.z(1)
            return G

        monkeypatch.setattr(checks.fam, "set_G", corrupted)
        assert checks._core(*_split(4), Budget()) is None
        assert [s for s, _ in _agree_with_the_full_walks(4)] == ["fail"] * 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_dropped_core_monomial(self, monkeypatch, n):
        # Each core monomial dropped in turn from both lists. Some drops
        # leave a Groebner basis; others fail, by G + core's certificate or
        # by a rest monomial that no longer reduces to 0, and then the
        # checks fall back to the full walks. The sum of links loses the
        # monomial too, so the colon equality holds only where the smaller
        # sum is still the colon of the full family.
        G, monos = _split(n)
        Q = quotient(fam.gens_a(n), fam.minors_ideal(n))
        verdicts, colons = set(), set()
        for m in checks._core(G, monos, Budget()):
            with monkeypatch.context() as patch:
                _drop_M(patch, m)
                gb_sum, colon = _agree_with_the_full_walks(n)
                equal = ideal_equal(Q, fam.sum_links_ideal(n))
            assert colon == (("pass", None) if equal else (
                "fail", "colon of the full family differs from the sum of links"))
            verdicts.add(gb_sum[0])
            colons.add(colon[0])
        assert verdicts == colons == {"pass", "fail"}


def _relative_walk(G, core, budget):
    """The walk over the pairs the core adds to G (`_certificate_prims`
    with known = |G|), as gb-sum runs it, with its failing pair 1-based."""
    packing = _packing(G[0].ring.nvars)
    prims = [*(_prim_from_poly(g, packing) for g in G), *(((m, 1),) for m in core)]
    failing = _certificate_prims(prims, packing, budget, known=len(G))
    return None if failing is None else (failing[0] + 1, failing[1] + 1)


class TestRelativeCertificate:
    """gb-sum certifies G + core from G's shared certificate and a walk over
    only the pairs the core adds (`_certificate_prims` with known = |G|)."""

    @pytest.mark.parametrize("n", range(4, 10))
    def test_units_add_up_to_the_full_certificate(self, n):
        G, monos = _split(n)
        core = checks._core(G, monos, Budget())
        own, walk, full = Budget(), Budget(), Budget()
        assert is_groebner_basis(G, budget=own).ok
        assert _relative_walk(G, core, walk) is None
        assert is_groebner_basis([*G, *fam._monomials(n, core)], budget=full).ok
        assert own.pairs + walk.pairs == full.pairs == TestCoreCertificate.UNITS[n - 4]

    @pytest.mark.parametrize("n", [4, 5])
    def test_failing_walk_names_the_full_certificates_pair(self, n):
        # G is a Groebner basis; each core monomial dropped in turn from the
        # core alone. Where G + core then fails its certificate, the walk
        # over the pairs the core adds fails at the same pair.
        G, monos = _split(n)
        core = checks._core(G, monos, Budget())
        failures = 0
        for k in range(len(core)):
            less = core[:k] + core[k + 1:]
            cert = is_groebner_basis([*G, *fam._monomials(n, less)])
            assert _relative_walk(G, less, Budget()) == cert.witness
            failures += not cert.ok
        assert failures

    def test_failing_core_pairs_charge_all_of_G(self, monkeypatch):
        # Each core monomial dropped in turn from the monomial sets at n = 4.
        # Where gb-sum then fails with a core, it charges all of G's
        # certificate, the core's pairs up to the failing one, and the full
        # walk on G ∪ M; without a core, the full walk alone.
        G, monos = _split(4)
        own = Budget()
        assert is_groebner_basis(G, budget=own).ok
        failing = []
        for m in checks._core(G, monos, Budget()):
            with monkeypatch.context() as patch:
                _drop_M(patch, m)
                less = checks._core(*_split(4), Budget())
                budget = Budget()
                status, _ = checks.check_gb_sum(4, random.Random(0), budget)
            if status == "pass":
                continue
            walk, full = Budget(), Budget()
            assert not is_groebner_basis(
                [*G, *fam._monomials(4, [u for u in monos if u != m])],
                budget=full).ok
            if less is None:
                assert budget.pairs == full.pairs
            else:
                assert _relative_walk(G, less, walk) is not None
                assert budget.pairs == own.pairs + walk.pairs + full.pairs
            failing.append((less is not None, budget.pairs))
        assert failing == [(False, 1), (True, 21), (False, 2), (True, 33),
                           (True, 52), (False, 4), (True, 64), (False, 5)]

    def test_g_outside_its_certificate_takes_the_full_walk(self, monkeypatch):
        # G = (x1 - y1, x1 - z1) is no Groebner basis: S = z1 - y1. With the
        # monomials y1 and z1, both core, G ∪ M = G + core is one, so gb-sum
        # passes by the full walk, charged on top of G's failing certificate.
        R = fam.standard_ring(4)
        x1, y1, z1 = R.x(1), R.y(1), R.z(1)
        G = [x1 - y1, x1 - z1]
        monkeypatch.setattr(checks.fam, "set_G", lambda n: list(G))
        monkeypatch.setattr(checks.fam, "_packed_monomial_sets",
                            lambda n, budget=None: ((_packed(y1), _packed(z1)),))
        own, full = Budget(), Budget()
        assert not is_groebner_basis(G, budget=own).ok
        assert is_groebner_basis([*G, y1, z1], budget=full).ok
        assert checks._core(*_split(4), Budget()) == [_packed(y1), _packed(z1)]
        budget = Budget()
        assert checks.check_gb_sum(4, random.Random(0), budget) == ("pass", None)
        assert budget.pairs == own.pairs + full.pairs
        assert check_gb_sum_full(4, Budget()) == ("pass", None)


def _reduced_falls_back(n):
    """reduced takes no basis from G + core at width n, and its status and
    witness are those of Buchberger's algorithm on the sum of links."""
    assert checks._certified_sum_basis(n, Budget()) is None
    got = checks.check_reduced(n, random.Random(0), Budget())
    assert got == check_reduced_full(n, Budget())
    return got


class TestReducedFromTheCore:
    """`reduced` reads its leading monomials off the reduced basis of
    G + core when the chain proof, the core and the generators of the sum
    of links prove that G + core generates the sum of links; otherwise
    it runs Buchberger's algorithm on the sum of links, as
    `reference.check_reduced_full` does."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_basis_and_verdict_agree_with_buchberger(self, n):
        assert (checks._certified_sum_basis(n, Budget())
                == fam.sum_links_ideal(n).groebner())
        assert (checks.check_reduced(n, random.Random(0), Budget())
                == check_reduced_full(n, Budget()) == ("pass", None))

    @pytest.mark.parametrize("n", [4, 6])
    def test_an_element_outside_the_chains_falls_back(self, monkeypatch, n):
        # x1 joins G, and G + core would generate more than the sum of links.
        original = fam.set_G
        monkeypatch.setattr(checks.fam, "set_G",
                            lambda n: original(n) + [fam.standard_ring(n).x(1)])
        assert _reduced_falls_back(n) == ("pass", None)

    def test_an_unproven_chain_element_falls_back(self, monkeypatch):
        # x1^2 replaces g_{1,2}; g_1..g_n and the monomials still match the
        # sum of links, so only the tie of G to the proven set refuses it.
        original = fam.set_G

        def replaced(n):
            G = original(n)
            G[n] = fam.standard_ring(n).x(1) ** 2
            return G

        monkeypatch.setattr(checks.fam, "set_G", replaced)
        assert _reduced_falls_back(4) == ("pass", None)

    def test_no_core_falls_back(self, monkeypatch):
        monkeypatch.setattr(checks, "_core", lambda G, monos, budget: None)
        assert _reduced_falls_back(4) == ("pass", None)

    @pytest.mark.parametrize("n", [4, 5])
    def test_a_dropped_monomial_falls_back(self, monkeypatch, n):
        # Once a core monomial and once a rest one leave the sum of links:
        # the monomials no longer match its generators, so the fast path
        # refuses both, whatever ideal G + core then generates.
        G, monos = _split(n)
        core = checks._core(G, monos, Budget())
        rest = next(m for m in monos if m not in core)
        original = fam.sum_links_ideal
        for m in (core[0], rest):
            mono, = fam._monomials(n, [m])
            with monkeypatch.context() as patch:
                patch.setattr(checks.fam, "sum_links_ideal", lambda n: Ideal(
                    fam.standard_ring(n), [g for g in original(n).gens if g != mono]))
                assert len(checks.fam.sum_links_ideal(n).gens) == n + len(monos) - 1
                assert _reduced_falls_back(n) == ("pass", None)


def _quotient_calls(monkeypatch):
    """The generator count of J in each `quotient(I, J)` call the checks
    make from now on, in order."""
    calls = []
    real = checks.quotient

    def recording(I, J, budget=None):
        calls.append(len(J._packed_gens()))
        return real(I, J, budget)

    monkeypatch.setattr(checks, "quotient", recording)
    return calls


def _fold(I, n):
    """The packed reduced basis of I : I_2 by the fold over all minors."""
    return quotient(I, fam.minors_ideal(n))._packed_basis()


class TestColonByOneMinor:
    """links and section2 compute each colon by I_2 as the colon by one
    minor and certify it (`checks._colon_by_minors`), falling back to the
    fold over all minors; either way the basis is the fold's."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_link_bases_equal_the_fold(self, n):
        minors = fam.minors_ideal(n)
        for i in range(1, n + 1):
            got = checks._colon_by_minors(fam.sub_a(n, i), fam.minor_pair(n, i),
                                          lambda: minors, Budget())
            assert got._packed_basis() == _fold(fam.sub_a(n, i), n)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_chain_basis_equals_the_fold(self, n):
        got = checks._colon_by_minors(fam.chain_ideal(n), (n, 1),
                                      lambda: fam.minors_ideal(n), Budget())
        assert got._packed_basis() == _fold(fam.chain_ideal(n), n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_only_the_links_own_minor_certifies(self, monkeypatch, n):
        # Each link's colon by each minor in turn, delta(1, 3) for link 1
        # among them. Only the minor of g_i's pair certifies, after one
        # colon; every other one fails the certificate and falls back to
        # the fold over all minors. Each gives the fold's basis.
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        calls = _quotient_calls(monkeypatch)
        for i in range(1, n + 1):
            fold = _fold(fam.sub_a(n, i), n)
            own = tuple(sorted(fam.minor_pair(n, i)))
            for pair in pairs:
                calls.clear()
                got = checks._colon_by_minors(fam.sub_a(n, i), pair,
                                              lambda: fam.minors_ideal(n), Budget())
                assert got._packed_basis() == fold
                assert calls == ([1] if pair == own else [1, len(pairs)])

    @pytest.mark.parametrize("star", range(6))
    def test_one_escaping_product_falls_back(self, monkeypatch, star):
        # I = delta* times each other minor of n = 4, and delta the next
        # minor after delta*: I : (delta) = (delta*), and of the products
        # of delta* with the minors only delta* * delta* escapes I. So
        # the certificate must test every minor to refuse it.
        R = fam.standard_ring(4)
        pairs = list(itertools.combinations(range(1, 5), 2))
        minors = [fam.delta(a, b, 4) for a, b in pairs]
        I = Ideal(R, [minors[star] * m for k, m in enumerate(minors) if k != star])
        pair = pairs[(star + 1) % 6]
        alone = quotient(I, Ideal(R, [fam.delta(*pair, 4)]))
        assert alone.groebner() == (minors[star].monic(),)
        calls = _quotient_calls(monkeypatch)
        got = checks._colon_by_minors(Ideal(R, I.gens), pair,
                                      lambda: fam.minors_ideal(4), Budget())
        assert calls == [1, 6]
        assert got._packed_basis() == _fold(Ideal(R, I.gens), 4)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_fast_path_pinned(self, monkeypatch, n):
        # One colon by one minor per link and one for the chain; a fallback
        # would add a colon by all the minors. Each check builds the minors'
        # ideal once.
        calls = _quotient_calls(monkeypatch)
        built = []
        original = fam.minors_ideal
        monkeypatch.setattr(checks.fam, "minors_ideal",
                            lambda n: built.append(n) or original(n))
        reports = run_checks(n, ["links", "section2"])
        assert [r.status for r in reports] == ["pass", "pass"]
        assert calls == [1] * (n + 1)
        assert built == [n, n]

    def test_minors_wait_for_the_first_certificate(self, monkeypatch):
        # At n = 300 the first colon by one minor outlasts the deadline, so
        # neither check builds the 44,850 minors.
        _refuse(monkeypatch, "minors_ideal")
        reports = run_checks(300, ["links", "section2"], timeout_secs=0.5)
        assert [r.status for r in reports] == ["budget-exceeded"] * 2

    @pytest.mark.parametrize("corrupt", ["drop", "x1"])
    def test_corrupted_link_keeps_its_witness(self, monkeypatch, corrupt):
        # The first monomial of M_2 dropped, or x1 added to M_2: link 2 is
        # the first whose colon by the fold differs from its description.
        n = 5
        if corrupt == "drop":
            _drop_M(monkeypatch, fam._packed_monomial_sets(n)[1][0])
        else:
            _extend_M(monkeypatch, _packed(fam.standard_ring(n).x(1)))
        first = next(i for i in range(1, n + 1) if _fold(fam.sub_a(n, i), n)
                     != fam.link_ideal(n, i)._packed_basis())
        assert first == 2
        assert checks.check_links(n, random.Random(0), Budget()) == (
            "fail", "link 2: colon ideal differs from the monomial description")

    def test_corrupted_chain_link_keeps_its_witness(self, monkeypatch):
        # The chain's link loses its last monomial.
        original = fam.chain_link

        def shortened(n):
            chain, link = original(n)
            return chain, Ideal(link.ring, link.gens[:-1])

        monkeypatch.setattr(checks.fam, "chain_link", shortened)
        assert checks.check_section2(5, random.Random(0), Budget()) == (
            "fail", "colon of the chain differs from chain + canonical monomials")


def _refuse(monkeypatch, *names):
    """Make each named builder of `families` raise when called."""
    for name in names:
        def refuse(n, *args, name=name):
            raise AssertionError(f"families.{name}({n}) was called")
        monkeypatch.setattr(checks.fam, name, refuse)


class TestPackedMonomialSets:
    """The checks read the monomial sets as packed monomials and build
    `Polynomial` monomials (`families._monomials`) only for a witness, a
    fallback or the core handed to `reduced_groebner_basis`."""

    # The default-tier selections at n = 7 and 8, as the certify-n6-8
    # benchmark workload runs them.
    DEFAULT_TIER = {
        7: ("gb-a", "gb-sum", "sum-equals-colon", "automorphisms", "identities"),
        8: ("gb-a", "gb-sum", "automorphisms", "identities")}

    @pytest.mark.parametrize("n", [7, 8])
    def test_default_tier_builds_no_polynomial_sets(self, monkeypatch, n):
        _refuse(monkeypatch, "_monomials")
        reports = run_checks(n, self.DEFAULT_TIER[n])
        assert [r.status for r in reports] == ["pass"] * len(reports)

    def test_deadline_comes_before_the_sets(self, monkeypatch):
        # An expired budget stops every check that reads the sets before
        # they are built, in either form; at n = 16 the packed sets alone
        # hold 262,144 monomials.
        _refuse(monkeypatch, "_monomials", "_packed_monomial_sets")
        selection = ["gb-sum", "sum-equals-colon", "reduced"]
        reports = run_checks(16, selection, timeout_secs=0)
        assert [r.status for r in reports] == ["budget-exceeded"] * 3
        assert all("timeout" in r.witness for r in reports)


# The checks that share the chain proof, the certificate of G or the core;
# under "all", gb-sum derives the core before sum-equals-colon and reduced.
SHARED = ("gb-a", "gb-sum", "sum-equals-colon", "identities", "reduced")


def _recorded_run(monkeypatch, n, selection, max_pairs=None):
    """{check: (status, witness, units)} for the SHARED checks of one
    run_checks call; units are read off each check's own budget."""
    budgets = {}
    with monkeypatch.context() as patch:
        for name in SHARED:
            def recording(n, rng, budget, check=checks.CHECKS[name], name=name):
                budgets[name] = budget
                return check(n, rng, budget)
            patch.setitem(checks.CHECKS, name, recording)
        reports = run_checks(n, selection, max_pairs=max_pairs)
    return {r.name: (r.status, r.witness, budgets[r.name].pairs)
            for r in reports if r.name in SHARED}


class TestSharedFacts:
    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_alone_as_under_all(self, monkeypatch, n):
        # A check charges the units of a shared fact whether it derives
        # the fact or finds it derived, so it reports the same verdict,
        # witness and units alone as among all checks, and a cap one unit
        # short stops it either way. A check with no units, such as
        # identities here, has no cap to test.
        together = _recorded_run(monkeypatch, n, "all")
        for name in SHARED:
            status, witness, units = together[name]
            assert (status, witness) == ("pass", None)
            assert _recorded_run(monkeypatch, n, [name]) == {name: together[name]}
            if units:
                for selection in ([name], "all"):
                    capped = _recorded_run(monkeypatch, n, selection, units - 1)
                    assert capped[name][0] == "budget-exceeded"

    @pytest.mark.parametrize("n", [4, 6])
    def test_set_G_packed_once_per_call(self, monkeypatch, n):
        # The core, gb-sum's walk over the core's pairs, sum-equals-colon's
        # interreduction and reduced's generator match share one packing of
        # G; the certificate packs G in the kernel, which is not counted.
        packed = []
        original = checks._prim_from_poly
        monkeypatch.setattr(checks, "_prim_from_poly",
                            lambda f, packing: packed.append(f) or original(f, packing))
        selection = ["gb-a", "gb-sum", "sum-equals-colon", "reduced"]
        assert [r.status for r in run_checks(n, selection)] == ["pass"] * 4
        assert packed == fam.set_G(n)

    def test_memo_lives_for_one_call(self, monkeypatch):
        selection = ["gb-a", "sum-equals-colon", "identities"]
        assert [r.status for r in run_checks(6, selection)] == ["pass"] * 3
        assert checks._memo is None
        # The chain proof is keyed by n alone, so a corrupted chain that
        # still passed would show a proof outliving its call.
        original_G, original_chains = fam.set_G, fam.chain_g
        monkeypatch.setattr(checks.fam, "set_G",
                            lambda n: original_G(n) + [fam.standard_ring(n).x(1)])
        assert [(r.status, r.witness) for r in run_checks(6, selection[:2])] == [
            ("fail", checks._UNPROVEN_G)] * 2

        def doubled(n):
            chains = original_chains(n)
            chains[0][3] = 2 * chains[0][3]
            return chains

        monkeypatch.setattr(checks.fam, "chain_g", doubled)
        assert [(r.status, r.witness) for r in run_checks(6, selection)] == [
            ("fail", "first chain recurrence fails at i=2")] * 3

    def test_keys_hold_what_each_check_read(self, monkeypatch):
        # x1 joins M_2 in the packed sets only while sum-equals-colon runs:
        # gb-sum derives the core of the true sets first, and
        # sum-equals-colon must not find that core under its own monomials.
        R = fam.standard_ring(4)
        check = checks.CHECKS["sum-equals-colon"]

        def reading_x1(n, rng, budget):
            with monkeypatch.context() as patch:
                _extend_M(patch, _packed(R.x(1)))
                return check(n, rng, budget)

        monkeypatch.setitem(checks.CHECKS, "sum-equals-colon", reading_x1)
        alone = run_checks(4, ["sum-equals-colon"])
        together = run_checks(4, ["gb-sum", "sum-equals-colon"])
        assert together[0].status == "pass"
        assert (together[1].status, together[1].witness) == (
            alone[0].status, alone[0].witness)
        assert alone[0].witness.startswith("containment fails: (x1) * ")

    def test_shared_charges_the_recorded_units(self, monkeypatch):
        def compute(budget):
            budget.tick()
            budget.tick()
            return "fact"

        monkeypatch.setattr(checks, "_memo", {})
        # A computation that raises stores nothing.
        capped = Budget(max_pairs=1)
        with pytest.raises(BudgetExceeded):
            checks._shared("k", capped, lambda: compute(capped))
        assert checks._memo == {}
        budget = Budget()
        assert checks._shared("k", budget, lambda: compute(budget)) == "fact"
        assert checks._memo == {"k": ("fact", 2)}
        hit = Budget()
        assert checks._shared("k", hit, lambda: pytest.fail("recomputed")) == "fact"
        assert hit.pairs == 2
        with pytest.raises(BudgetExceeded, match="work budget of 1 units"):
            checks._shared("k", Budget(max_pairs=1), lambda: pytest.fail("recomputed"))

    def test_charge_raises_where_ticks_would(self):
        for units in range(5):
            ticked, charged = Budget(max_pairs=3), Budget(max_pairs=3)
            ticked.pairs = charged.pairs = 1
            outcomes = []
            for budget, step in ((ticked, lambda b: [b.tick() for _ in range(units)]),
                                 (charged, lambda b: b.charge(units))):
                try:
                    step(budget)
                    outcomes.append(("ok", budget.pairs))
                except BudgetExceeded as exc:
                    outcomes.append((str(exc), budget.pairs))
            assert outcomes[0] == outcomes[1]
        # The deadline is checked even for no units.
        with pytest.raises(BudgetExceeded, match="timeout"):
            Budget(timeout_secs=0).charge(0)


def _pack_identities(identities):
    """Polynomial identities in the packed form of
    `checks._telescoping_identities`: each product with cofactor 1, every
    identity scaled by its own lcm of denominators."""
    packing = _packing(identities[0][3].ring.nvars)
    out = []
    for name, i, j, lhs, summands, lead in identities:
        lhs_terms, *terms = checks._packed_terms([lhs, *summands], packing)
        out.append((name, i, j, (0, lhs_terms), [(0, t) for t in terms],
                    packing.pack(lead)))
    return out


def _expand(product) -> dict:
    d = {}
    u, terms = product
    _add_scaled(d, terms, u, 1)
    return d


def _drop_summand(lhs, summands, lead):
    return lhs, summands[:-1]


def _times_x1(lhs, summands, lead):
    x1 = lhs.ring.x(1)
    return lhs * x1, [s * x1 for s in summands]


def _cancelling_pair(lhs, summands, lead):
    h = lhs.ring.from_monomial(lead) * lhs.ring.x(1)
    return lhs, [*summands, h, -h]


class TestTelescoping:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_packed_identities_match_the_oracle(self, n):
        chains = fam.chain_g(n)
        packed = list(checks._telescoping_identities(n, fam.standard_ring(n), *chains))
        oracle = telescoping_identities(n, *chains)
        assert len(packed) == len(oracle) == n * (n - 1)
        for got, want in zip(packed, _pack_identities(oracle)):
            assert got[:3] == want[:3] and got[5] == want[5]
            assert _expand(got[3]) == _expand(want[3])
            assert [_expand(s) for s in got[4]] == [_expand(s) for s in want[4]]
        assert checks._telescoping_witness(packed, Budget()) is None
        assert telescoping_witness(oracle) is None

    @pytest.mark.parametrize("k, corrupt, witness", [
        (3, _drop_summand, "first telescoping identity fails at (i,j)=(1,5)"),
        (12, _times_x1, "leading monomial of second identity wrong at (4,1)"),
        (15, _cancelling_pair, "summand exceeds leading monomial at (4,2)")])
    def test_corrupted_identity(self, k, corrupt, witness):
        # Identity k corrupted three ways, one per witness: a summand
        # dropped; lhs and summands times x1, which keeps the identity but
        # not its leading monomial; and h - h added, with h above the lead.
        identities = telescoping_identities(5, *fam.chain_g(5))
        name, i, j, lhs, summands, lead = identities[k]
        identities[k] = (name, i, j, *corrupt(lhs, summands, lead), lead)
        assert telescoping_witness(identities) == witness
        assert checks._telescoping_witness(_pack_identities(identities),
                                           Budget()) == witness

    def test_fractional_chain_element(self):
        # g_{1,3} / 2: every input is scaled by 2, and the identities
        # through g_{1,3} fail as on Polynomials.
        g1, g2 = fam.chain_g(5)
        g1[3] = g1[3] * Fraction(1, 2)
        ring = fam.standard_ring(5)
        got = checks._telescoping_witness(
            checks._telescoping_identities(5, ring, g1, g2), Budget())
        assert got == telescoping_witness(telescoping_identities(5, g1, g2))
        assert got == "first telescoping identity fails at (i,j)=(1,4)"

    def test_packed_terms_share_one_scale(self):
        R = fam.standard_ring(4)
        f, g = R.x(1) - R.y(2), R.z(1)
        packing = _packing(R.nvars)
        assert checks._packed_terms([f * Fraction(1, 2), g * Fraction(2, 3)],
                                    packing) == checks._packed_terms(
            [f * 3, g * 4], packing)


def _binomials(ring, rng):
    """`checks._random_qualifying_binomials` as Polynomials."""
    return _polynomials(ring, checks._random_qualifying_binomials(ring, rng))


class TestQualifyingBinomials:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_draw_qualifies(self, n):
        # Each pair meets the hypothesis under which S(f, g) reduces to zero
        # against (f, g), with no draw rejected; equal-degree pairs occur.
        ring = fam.standard_ring(n)
        rng = random.Random(f"qualifying-binomials/{n}")
        homogeneous = 0
        for _ in range(200):
            f, g = _binomials(ring, rng)
            assert len(f) == len(g) == 2 and f != g
            c = gcd(f.terms[0].mono, g.terms[0].mono)
            assert divides(c, f.terms[1].mono) and divides(c, g.terms[1].mono)
            assert not divide(s_polynomial(f, g), [f, g]).remainder
            homogeneous += f.is_homogeneous() and g.is_homogeneous()
        assert homogeneous > 0

    @pytest.mark.parametrize("n, draws", [(4, 500), (8, 50)])
    def test_same_pairs_as_on_polynomials(self, n, draws):
        # The packed draws make the rng calls of the Polynomial ones, in
        # order, so the same pairs come out and the streams stay in step.
        ring = fam.standard_ring(n)
        for seed in range(3):
            packed, polys = random.Random(seed), random.Random(seed)
            for _ in range(draws):
                assert _binomials(ring, packed) == \
                    reference.random_qualifying_binomials(ring, polys)
            assert packed.random() == polys.random()

    def test_nonzero_remainder_fails_identities(self, monkeypatch):
        # A pair that does not qualify: S(f, g) = -y1^2 is its own remainder,
        # so identities fails on the first draw and names the pair.
        R = fam.standard_ring(4)
        f, g = R.x(1) ** 2 - R.y(1), R.x(1) * R.y(1)
        assert divide(s_polynomial(f, g), [f, g]).remainder == -R.y(1) ** 2
        packing = _packing(R.nvars)
        monkeypatch.setattr(checks, "_random_qualifying_binomials", lambda ring, rng: (
            _prim_from_poly(f, packing), _prim_from_poly(g, packing)))
        report, = run_checks(4, ["identities"])
        assert (report.status, report.witness) == (
            "fail", f"S({R.format(f)}, {R.format(g)}) does not reduce to zero "
                    f"against the pair")


class TestReportFormat:
    def test_json_schema(self):
        reports = run_checks(4, ["gb-a", "automorphisms"], seed=3)
        doc = json.loads(report_json(reports, 4, 3))
        assert doc["schema_version"] == 1
        assert doc["n"] == 4
        assert doc["seed"] == 3
        assert len(doc["checks"]) == 2
        for entry in doc["checks"]:
            assert set(entry) <= {"name", "status", "elapsed_ms", "witness"}
            assert entry["status"] in {"pass", "fail", "budget-exceeded", "skipped"}

    def test_witness_present_on_fail(self, monkeypatch):
        original = fam.set_G

        def corrupted(n):
            G = original(n)
            R = fam.standard_ring(n)
            lead = G[0].terms[0].coeff * R.from_monomial(G[0].terms[0].mono)
            G[0] = G[0] - 2 * lead
            return G

        monkeypatch.setattr(checks.fam, "set_G", corrupted)
        for report in run_checks(4, ["gb-a", "gb-sum"], seed=1):
            assert report.status == "fail"
            assert report.witness


class TestCLI:
    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--n", "4", "--checks", "gb-a,automorphisms"]) == 0
        out = capsys.readouterr().out
        assert "gb-a" in out and "pass" in out

    def test_verify_json_document(self, capsys):
        assert main(["verify", "--n", "4", "--checks", "gb-a",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][0]["name"] == "gb-a"

    def test_verify_budget_failure_exit(self, capsys):
        code = main(["verify", "--n", "4", "--checks", "gb-a",
                     "--budget-pairs", "2"])
        assert code == 1

    def test_verify_all_skipped_exit(self, tmp_path, capsys):
        # The report is printed and written; the exit status says that
        # nothing was checked.
        target = tmp_path / "report.json"
        assert main(["verify", "--n", "5", "--checks",
                     "random-specialization", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: none of the selected checks runs at n = 5\n"
        assert captured.out.count("skipped") == 1
        assert [c["status"] for c in json.loads(target.read_text())["checks"]] == [
            "skipped"]
        assert main(["verify", "--n", "5", "--checks",
                     "gb-a,random-specialization"]) == 0

    def test_budget_flags_select_no_checks(self, capsys):
        statuses = []
        for extra in ([], ["--timeout-secs", "600"]):
            assert main(["verify", "--n", "5", "--checks", "links",
                         "--format", "json", *extra]) == 0
            doc = json.loads(capsys.readouterr().out)
            statuses.append([c["status"] for c in doc["checks"]])
        assert statuses == [["pass"], ["pass"]]

    def test_verify_rejects_small_n(self, capsys):
        assert main(["verify", "--n", "3", "--checks", "gb-a"]) == 2

    def test_verify_rejects_empty_selection(self, capsys):
        for checks in ("", ","):
            assert main(["verify", "--n", "4", "--checks", checks]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert captured.out == ""

    def test_show_rejects_small_n(self, capsys):
        assert main(["show", "--family", "G", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        for family in FAMILIES:
            for n in (-1, 0, 1):
                assert main(["show", "--family", family, "--n", str(n)]) == 2
                captured = capsys.readouterr()
                assert captured.err.startswith("error: ")
                assert captured.out == ""

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["verify", "--n", "4", "--checks", "automorphisms",
                     "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["checks"][0]["status"] == "pass"

    def test_module_entry_point(self):
        # `python -m detlink` runs the same command line as `detlink`.
        src = str(pathlib.Path(checks.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-m", "detlink", "show",
                              "--family", "chain", "--n", "4"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0
        assert len(run.stdout.strip().splitlines()) == 3

    def test_show_families(self, capsys):
        assert main(["show", "--family", "chain", "--n", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert main(["show", "--family", "G", "--n", "5"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 11

    def _assert_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        return captured

    def test_negative_budgets_rejected(self, capsys):
        for flag in ("--budget-pairs", "--timeout-secs"):
            captured = self._assert_usage_error(
                ["verify", "--n", "4", "--checks", "gb-a", flag, "-1"], capsys)
            assert captured.out == ""

    def test_budget_flags_documented(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--budget-pairs BUDGET_PAIRS cap per check on units of work" in out
        assert "--timeout-secs TIMEOUT_SECS wall-clock cap per check" in out

    def test_bench_subcommand_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice" in captured.err and "bench" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unwritable_output_rejected(self, tmp_path, capsys):
        # The results still reach stdout; only the file is missing.
        missing = str(tmp_path / "no-such-dir" / "out")
        captured = self._assert_usage_error(
            ["verify", "--n", "4", "--checks", "automorphisms", "--out", missing],
            capsys)
        assert "automorphisms" in captured.out
