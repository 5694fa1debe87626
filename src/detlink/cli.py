"""Command-line verifier: run checks and print families."""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from . import families as fam
from .checks import ALL_CHECKS, BUDGET, FAIL, SKIPPED, report_json, run_checks


# The families `show --family` prints, one line per entry; the keys are its
# choices.
FAMILIES: dict[str, Callable[[int], Sequence[object]]] = {
    "minors": lambda n: fam.minors_ideal(n).gens,
    "a": lambda n: fam.gens_a(n).gens,
    "G": lambda n: fam.set_G(n),
    "M": lambda n: [f"M_{i}: {p}" for i, ms in enumerate(fam._packed_monomial_sets(n), 1)
                    for p in fam._monomials(n, ms)],
    "link": lambda n: fam.chain_link(n)[1].gens,
    "chain": lambda n: fam.chain_ideal(n).gens,
}


def _error(message) -> int:
    """Report bad input on stderr; the exit status is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


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
    p_verify.add_argument("--budget-pairs", type=int, default=None,
                          help="cap per check on units of work: S-polynomials "
                               "reduced (by Buchberger's algorithm or a "
                               "certificate) and nodes of combinatorial walks")
    p_verify.add_argument("--timeout-secs", type=float, default=None,
                          help="wall-clock cap per check in seconds")
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--out", default=None, help="also write the report here")

    p_show = sub.add_parser("show", help="print an ideal family")
    p_show.add_argument("--family", required=True, choices=list(FAMILIES))
    p_show.add_argument("--n", type=int, required=True)

    args = parser.parse_args(argv)

    if args.command == "show":
        try:
            lines = FAMILIES[args.family](args.n)
        except ValueError as exc:
            return _error(exc)
        for line in lines:
            print(line)
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
