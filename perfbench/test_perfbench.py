"""Self-tests of the benchmark: deterministic traced counts, the verdict
gate, an independent check against sympy, and refusal to run without the
source tree.

    python3 -m pytest -q perfbench/test_perfbench.py      (about 2 minutes)
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _traced_counts(workload: str, hashseed: str, tmp_path) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", "0", "--spawned", repr(time.monotonic()),
         "--trace-out", str(tmp_path / f"trace-{hashseed}.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(u["ok"] for u in out["units"])
    return out["counts"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_across_runs_and_hash_seeds(workload, tmp_path):
    first = _traced_counts(workload, "0", tmp_path)
    assert first["groebner.gb.calls"] > 0
    assert _traced_counts(workload, "1", tmp_path) == first
    if workload != workloads.ProbeN4.name:    # the slowest; two runs suffice
        assert _traced_counts(workload, "0", tmp_path) == first


def test_benchmark_json_names_what_run_py_prints():
    import re
    from tracer import Tracer
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    traced = set(Tracer().layer_metrics())
    traced |= {f"checks.{c}.wall_s" for c in workloads.CHECKS_RUN}
    traced.add("trace.overhead_ratio")
    assert {m["name"] for m in bench["per_layer"]} == traced
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_verdicts_count_skips_failures_and_digest_mismatches():
    expected = {"colon-n5": "a" * 64}
    verdicts = run.Verdicts(workloads.WORKLOADS["colon-n5"], 0, expected)
    units = [{"name": "links@n=5", "ok": True, "seconds": 1.0, "detail": ""},
             {"name": "section2@n=5", "ok": False, "seconds": 0.0,
              "detail": "skipped"},
             {"name": "sum-equals-colon@n=5", "ok": True, "seconds": 1.0,
              "detail": ""}]
    verdicts.add_pass({"units": units, "digest": "a" * 64}, 0)
    assert (verdicts.attempted, len(verdicts.failures)) == (4, 1)
    verdicts.add_pass({"units": units[:1], "digest": "b" * 64}, 0)
    assert (verdicts.attempted, len(verdicts.failures)) == (6, 2)
    verdicts.add_pass({"error": "worker exited 1"}, 0)
    assert (verdicts.attempted, len(verdicts.failures)) == (10, 6)


def test_check_units_fail_on_skipped_or_missing_checks():
    from detlink.checks import CheckReport
    report = CheckReport(name="links", n=6, status="skipped", elapsed_ms=0.1,
                         witness=None, seed=0, max_pairs=1, timeout_secs=None)
    units = workloads._check_units(6, ("links", "heights"), [report], 0.0)
    assert [u["ok"] for u in units] == [False, False]
    assert [u["detail"] for u in units] == ["skipped", "missing"]


def test_calibration_converts_each_stretch_at_its_own_speed():
    import speed
    probe = speed.SpeedProbe()
    ref = speed.REF_LOOP_S
    # Loops of 1 ms start at t = 0, 1, 2 and 3 s, then loops of 2 ms
    # (half speed) start at 4, 5 and 6 s.
    probe.samples = [(t, t + 0.001) for t in (0.0, 1.0, 2.0, 3.0)]
    probe.samples += [(t, t + 0.002) for t in (4.0, 5.0, 6.0)]
    probe.t_called, probe.t_start, probe.t_end = -0.5, 0.001, 6.0
    probe._index()
    # The smoothed loop time is 1 ms through t = 3 and 2 ms from t = 4 on;
    # the stretch 3-4 s runs at their mean.
    fast, slow, mid = ref / 0.001, ref / 0.002, ref / 0.0015
    expected = 2.997 * fast + 0.999 * mid + 1.996 * slow
    assert abs(probe.calibrated() - expected) < 1e-9
    assert abs(probe.calibrated(4.5, 5.5) - (0.498 * slow + 0.5 * slow)) < 1e-9
    assert abs(probe.lead_in(-1.5) - 1.0 * fast) < 1e-9


def test_probe_colon_agrees_with_sympy():
    """The first probe matrix of seed 0: the reduced basis of the
    specialized family equals sympy's, and every generator of its colon by
    the minors, times every minor, reduces to zero in sympy."""
    sympy = pytest.importorskip("sympy")
    from detlink import families, groebner, idealops

    ring = families.standard_ring(workloads.PROBE_N)
    syms = sympy.symbols(ring.names)

    def to_sympy(f):
        return sympy.Poly(sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[s ** e for s, e in zip(syms, m.exps)])
            for c, m in f.terms), *syms)

    rng = random.Random("0/random-specialization")
    B = [[rng.randint(-workloads.PROBE_ENTRY, workloads.PROBE_ENTRY)
          for _ in range(workloads.PROBE_N)] for _ in range(6)]
    aB, minors = families.generic_residual(workloads.PROBE_N, B)
    G = sympy.groebner([to_sympy(g).as_expr() for g in aB.gens], *syms,
                       order="grevlex", domain="QQ")
    ours = {to_sympy(g).monic() for g in groebner.reduced_groebner_basis(aB.gens)}
    assert ours == {sympy.Poly(e, *syms).monic() for e in G.exprs}

    Q = idealops.quotient(aB, minors)
    assert len(Q.gens) > len(aB.gens)
    for q in Q.groebner():
        for m in minors.gens:
            assert G.reduce((to_sympy(q) * to_sympy(m)).as_expr())[1] == 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "colon-n5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
