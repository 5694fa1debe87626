"""Command-line verifier: run checks, print families, benchmark the engine."""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Optional, Sequence

from . import families as fam
from .checks import (ALL_CHECKS, BUDGET, FAIL, SKIPPED, bench, report_json,
                     run_checks)


def _family_lines(family: str, n: int) -> list[str]:
    ring = fam.standard_ring(n)
    if family == "minors":
        return [ring.format(g) for g in fam.minors_ideal(n).gens]
    if family == "a":
        return [ring.format(g) for g in fam.gens_a(n).gens]
    if family == "G":
        return [ring.format(g) for g in fam.set_G(n)]
    if family == "M":
        out = []
        for i in range(1, n + 1):
            for m in fam.M_set(n, i):
                out.append(f"M_{i}: {ring.format(ring.from_monomial(m))}")
        return out
    if family == "chain":
        return [ring.format(g) for g in fam.chain_ideal(n).gens]
    if family == "link":
        _, link = fam.chain_link(n)
        return [ring.format(g) for g in link.gens]
    raise ValueError(f"unknown family {family!r}")


def _error(message) -> int:
    """Report bad input on stderr; the exit status is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_rows(fh, rows: list[dict]) -> None:
    writer = csv.DictWriter(fh, fieldnames=[
        "n", "task", "status", "pairs_processed", "discarded_coprime",
        "discarded_chain", "zero_reductions", "basis_size", "elapsed_ms"])
    writer.writeheader()
    writer.writerows(rows)


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """Budgets apply per check, or per row of `bench`."""
    parser.add_argument("--budget-pairs", type=int, default=None,
                        help="cap on S-polynomials reduced, certificate pairs "
                             "included")
    parser.add_argument("--timeout-secs", type=float, default=None,
                        help="wall-clock cap in seconds")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="detlink",
        description="Verify links and residual intersections of 2xn minor ideals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--n", type=int, required=True, help="matrix width (>= 4)")
    p_verify.add_argument("--checks", default="all",
                          help=f"comma list or 'all'; known: {', '.join(ALL_CHECKS)}")
    p_verify.add_argument("--seed", type=int, default=0)
    _add_budget_flags(p_verify)
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--out", default=None, help="also write the report here")

    p_show = sub.add_parser("show", help="print an ideal family")
    p_show.add_argument("--family", required=True,
                        choices=["minors", "a", "G", "M", "link", "chain"])
    p_show.add_argument("--n", type=int, required=True)

    p_bench = sub.add_parser("bench", help="benchmark the Groebner engine")
    p_bench.add_argument("--n-min", type=int, default=4)
    p_bench.add_argument("--n-max", type=int, default=6)
    p_bench.add_argument("--csv", default=None, help="write rows to this CSV file")
    _add_budget_flags(p_bench)

    args = parser.parse_args(argv)

    if args.command == "show":
        try:
            lines = _family_lines(args.family, args.n)
        except ValueError as exc:
            return _error(exc)
        for line in lines:
            print(line)
        return 0

    if args.command == "bench":
        try:
            rows = bench(args.n_min, args.n_max, max_pairs=args.budget_pairs,
                         timeout_secs=args.timeout_secs)
        except ValueError as exc:
            return _error(exc)
        _write_rows(sys.stdout, rows)
        if args.csv:
            try:
                with open(args.csv, "w", newline="") as fh:
                    _write_rows(fh, rows)
            except OSError as exc:
                return _error(f"cannot write {args.csv}: {exc.strerror or exc}")
        return 0

    selection = "all" if args.checks == "all" else [
        s.strip() for s in args.checks.split(",") if s.strip()]
    try:
        reports = run_checks(args.n, selection, seed=args.seed,
                             max_pairs=args.budget_pairs,
                             timeout_secs=args.timeout_secs)
    except ValueError as exc:
        return _error(exc)

    payload = report_json(reports, args.n, args.seed)
    if args.format == "json":
        print(payload)
    else:
        for r in reports:
            line = f"{r.name:24s} {r.status:16s} {r.elapsed_ms:10.1f} ms"
            if r.witness:
                line += f"  [{r.witness}]"
            print(line)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            return _error(f"cannot write {args.out}: {exc.strerror or exc}")
    if all(r.status == SKIPPED for r in reports):
        return _error(f"none of the selected checks runs at n = {args.n}")
    bad = [r for r in reports if r.status in (FAIL, BUDGET)]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
