"""The benchmark's workloads: fixed work per pass, run through detlink's API.

A pass is one workload's whole work in a fresh interpreter. `setup` builds
the inputs, `run` makes the calls and returns one verdict unit per check
(verify workloads) or per matrix (probe). Every unit has a known answer:
each selected check must return `pass`, and the probe equality must hold.

Why each workload was chosen, and which layer metric should move which
end-to-end metric on it, is tabled in perfbench/README.md.
"""

from __future__ import annotations

import random
import time

from detlink import checks, families, groebner, idealops

COLON_N = 5
COLON_CHECKS = ("links", "section2", "sum-equals-colon")
COLON_MAX_PAIRS = 1_000_000

# The checks that run (and must pass) at each width in the default tier,
# i.e. `detlink verify --n <n>` without a budget flag.
CERTIFY_CHECKS = {
    6: ("gb-a", "gb-sum", "sum-equals-colon", "heights", "automorphisms",
        "identities", "reduced"),
    7: ("gb-a", "gb-sum", "sum-equals-colon", "automorphisms", "identities"),
    8: ("gb-a", "gb-sum", "automorphisms", "identities"),
}

# Every check some workload runs, in registry order (checks.<check>.wall_s).
CHECKS_RUN = tuple(c for c in checks.ALL_CHECKS
                   if c in COLON_CHECKS or any(c in v for v in CERTIFY_CHECKS.values()))

PROBE_N = 4
PROBE_PASSES = 3          # most matrices per run, one per pass
PROBE_DRAWS = 10          # draws allowed per matrix, as in the check
PROBE_ENTRY = 50          # entries are drawn from [-50, 50], as in the check


def _unit(name: str, ok: bool, start: float, end: float,
          detail: str = "") -> dict:
    """A verdict unit; start and end are perf_counter stamps."""
    return {"name": name, "ok": ok, "seconds": end - start, "start": start,
            "end": end, "detail": detail}


def _check_units(n: int, names, reports, t0: float) -> list[dict]:
    """Units of the checks `names` from the reports of one run_checks call
    that started at perf_counter t0. The checks run back to back in report
    order, so each one's stamps follow from the elapsed times before it."""
    spans = {}
    for r in reports:
        spans[r.name] = (r, t0, t0 + r.elapsed_ms / 1000.0)
        t0 = spans[r.name][2]
    units = []
    for name in names:
        r, start, end = spans.get(name, (None, t0, t0))
        status = r.status if r is not None else "missing"
        units.append(_unit(f"{name}@n={n}", status == checks.PASS, start, end,
                           status if status != checks.PASS else ""))
    return units


class ColonN5:
    name = "colon-n5"
    units_per_pass = len(COLON_CHECKS)
    passes = None             # repeat identical passes until the run's time is used

    def setup(self, seed: int, cursor: int):
        return families.standard_ring(COLON_N)

    def run(self, state) -> tuple[list[dict], int]:
        t0 = time.perf_counter()
        reports = checks.run_checks(COLON_N, COLON_CHECKS, seed=0,
                                    max_pairs=COLON_MAX_PAIRS, stretch=True)
        return _check_units(COLON_N, COLON_CHECKS, reports, t0), 0


class CertifyN6to8:
    name = "certify-n6-8"
    units_per_pass = sum(len(v) for v in CERTIFY_CHECKS.values())
    passes = None

    def setup(self, seed: int, cursor: int):
        return [families.standard_ring(n) for n in CERTIFY_CHECKS]

    def run(self, state) -> tuple[list[dict], int]:
        units = []
        for n, names in CERTIFY_CHECKS.items():
            t0 = time.perf_counter()
            units += _check_units(n, names, checks.run_checks(n, names, seed=0), t0)
        return units, 0


class ProbeN4:
    """One matrix per pass. Matrices come from the stream of
    `detlink verify --n 4 --seed <seed>`: r x n integer matrices drawn row
    by row, and a draw is kept when the height filter passes. The cursor
    is the number of draws earlier passes used; accepting a draw consumes
    no randomness, so each pass replays the stream up to its cursor and
    continues exactly where the previous pass stopped."""

    name = "probe-n4"
    units_per_pass = 1
    passes = PROBE_PASSES

    def setup(self, seed: int, cursor: int):
        rng = random.Random(f"{seed}/random-specialization")
        r = PROBE_N * (PROBE_N - 1) // 2

        def draw():
            return [[rng.randint(-PROBE_ENTRY, PROBE_ENTRY) for _ in range(PROBE_N)]
                    for _ in range(r)]

        for _ in range(cursor):
            draw()
        B = draw()
        return [(B, *families.generic_residual(PROBE_N, B))], draw, cursor

    def run(self, state) -> tuple[list[dict], int]:
        candidates, draw, cursor = state
        budget = groebner.Budget()
        t0 = time.perf_counter()
        accepted = None
        for k in range(PROBE_DRAWS):
            if k == len(candidates):
                B = draw()
                candidates.append((B, *families.generic_residual(PROBE_N, B)))
            B, aB, I = candidates[k]
            Q = idealops.quotient(aB, I, budget)
            if idealops.height(Q, budget) == PROBE_N:
                accepted = (B, aB, I, Q)
                break
        cursor += k + 1
        name = f"matrix@draw={cursor - 1}"
        if accepted is None:
            return [_unit(name, False, t0, time.perf_counter(),
                          "no draw passed the height filter")], cursor
        B, aB, I, Q = accepted
        parts = []
        for i in range(PROBE_N):
            sub = groebner.Ideal(aB.ring, [aB.gens[j] for j in range(PROBE_N)
                                           if j != i])
            parts.append(idealops.quotient(sub, I, budget))
        ok = groebner.ideal_equal(Q, idealops.sum_ideals(*parts), budget)
        return [_unit(name, ok, t0, time.perf_counter(),
                      "" if ok else f"colon differs from sum for B={B}")], cursor


WORKLOADS = {w.name: w for w in (ColonN5(), ProbeN4(), CertifyN6to8())}
