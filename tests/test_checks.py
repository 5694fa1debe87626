"""Verifier orchestration: reports, reproducibility, CLI."""

import json

import pytest

import detlink.checks as checks
import detlink.families as fam
from detlink.checks import bench, report_document, report_json, run_checks
from detlink.cli import main

FAST = ["gb-a", "gb-sum", "heights", "automorphisms", "reduced"]


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
        by_name = {r.name: r for r in run_checks(6, ["links", "section2",
                                                     "random-specialization"])}
        assert by_name["links"].status == "skipped"
        assert by_name["section2"].status == "skipped"
        assert by_name["random-specialization"].status == "skipped"
        # Widest n of each gated check.
        widths = {"links": 5, "section2": 5, "sum-equals-colon": 7,
                  "heights": 6, "reduced": 6, "random-specialization": 4}
        assert checks.WIDTHS == widths
        for name, width in widths.items():
            report = run_checks(width + 1, [name])[0]
            assert report.status == "skipped", name
            assert report.witness == f"runs for n <= {width}"

    def test_stretch_gates_n5_colon(self):
        # The colon steps run at n = 5 without a budget, and the ignored
        # stretch argument changes no verdict.
        selection = ["links", "sum-equals-colon"]
        reports = run_checks(5, selection)
        assert [r.status for r in reports] == ["pass", "pass"]
        docs = [report_document(run_checks(5, selection, stretch=stretch), 5, 0,
                                include_timing=False)
                for stretch in (False, True)]
        assert docs[0] == docs[1] == report_document(reports, 5, 0,
                                                     include_timing=False)

    def test_reports_reproducible(self):
        selection = ["gb-a", "identities"]
        a = run_checks(5, selection, seed=7)
        b = run_checks(5, selection, seed=7)
        doc_a = report_document(a, 5, 7, include_timing=False)
        doc_b = report_document(b, 5, 7, include_timing=False)
        assert doc_a == doc_b

    def test_budget_exceeded_status(self):
        reports = run_checks(4, ["gb-a"], max_pairs=2)
        assert reports[0].status == "budget-exceeded"
        assert "budget" in reports[0].witness

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


class TestBench:
    def test_rows_grow_monotonically(self):
        rows = bench(4, 6)
        gb_a = [r for r in rows if r["task"] == "gb-a"]
        assert len(gb_a) == 3
        pairs = [r["pairs_processed"] for r in gb_a]
        assert pairs == sorted(pairs) and pairs[0] < pairs[-1]
        assert all(r["status"] == "ok" for r in rows)

    def test_certificate_rows_present(self):
        rows = bench(4, 4)
        tasks = {r["task"] for r in rows}
        assert {"gb-a", "gb-a-nocriteria", "gb-sum-links", "certificate-G-M"} <= tasks

    def test_budget_exceeded_rows_marked(self):
        rows = bench(4, 4, max_pairs=3)
        assert any(r["status"] == "budget-exceeded" for r in rows)
        # A Groebner row whose budget ran out is still timed.
        gb_rows = [r for r in rows if r["task"] != "certificate-G-M"
                   and r["status"] == "budget-exceeded"]
        assert gb_rows
        for r in gb_rows:
            assert r["elapsed_ms"] > 0
            assert r["basis_size"] == 0


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
        assert main(["verify", "--n", "9", "--checks",
                     "links,random-specialization", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: none of the selected checks runs at n = 9\n"
        assert captured.out.count("skipped") == 2
        assert [c["status"] for c in json.loads(target.read_text())["checks"]] == [
            "skipped", "skipped"]
        assert main(["verify", "--n", "9", "--checks", "gb-a,links"]) == 0

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

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["verify", "--n", "4", "--checks", "automorphisms",
                     "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["checks"][0]["status"] == "pass"

    def test_show_families(self, capsys):
        assert main(["show", "--family", "chain", "--n", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert main(["show", "--family", "G", "--n", "5"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 11

    def test_bench_budget_flags(self, capsys):
        assert main(["bench", "--n-min", "4", "--n-max", "4",
                     "--budget-pairs", "3"]) == 0
        assert "budget-exceeded" in capsys.readouterr().out
        assert main(["bench", "--n-min", "4", "--n-max", "4",
                     "--timeout-secs", "60"]) == 0
        assert "budget-exceeded" not in capsys.readouterr().out

    def _assert_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        return captured

    def test_bench_rejects_small_n(self, capsys):
        captured = self._assert_usage_error(["bench", "--n-min", "3"], capsys)
        assert captured.out == ""

    def test_bench_rejects_empty_range(self, capsys):
        captured = self._assert_usage_error(
            ["bench", "--n-min", "5", "--n-max", "4"], capsys)
        assert captured.out == ""

    def test_negative_budgets_rejected(self, capsys):
        for command in (["verify", "--n", "4", "--checks", "gb-a"],
                        ["bench", "--n-min", "4", "--n-max", "4"]):
            for flag in ("--budget-pairs", "--timeout-secs"):
                captured = self._assert_usage_error([*command, flag, "-1"], capsys)
                assert captured.out == ""

    def test_unwritable_output_rejected(self, tmp_path, capsys):
        # The results still reach stdout; only the file is missing.
        missing = str(tmp_path / "no-such-dir" / "out")
        captured = self._assert_usage_error(
            ["bench", "--n-min", "4", "--n-max", "4", "--csv", missing], capsys)
        assert captured.out.startswith("n,task,status")
        captured = self._assert_usage_error(
            ["verify", "--n", "4", "--checks", "automorphisms", "--out", missing],
            capsys)
        assert "automorphisms" in captured.out

    def test_bench_csv(self, tmp_path, capsys):
        target = tmp_path / "bench.csv"
        assert main(["bench", "--n-min", "4", "--n-max", "4",
                     "--csv", str(target)]) == 0
        rows = target.read_text().strip().splitlines()
        assert rows[0].startswith("n,task,status")
        assert len(rows) >= 4
