"""detlink benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload colon-n5 --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout (it needs `src/detlink`). Load is
closed-loop: one client, one single-threaded worker process at a time.
Every pass starts a fresh interpreter (perfbench/worker.py) that imports
detlink, builds its inputs and runs the workload once, so no cached basis
carries over between passes.

--trace 0  runs passes until --seconds is used (identical ones, or, for
           the probe, at most PROBE_PASSES over successive inputs), with
           a set-up-only spawn after each pass and more at the end until
           there are SETUP_SAMPLES set-up times, and reports each
           end-to-end metric as its median over its samples. Wall times
           are reported raw and calibrated to a reference host speed
           (speed.py); only the calibrated ones are bounded.
--trace 1  runs the first pass twice, untraced and traced, and reports the
           per-layer metrics of the traced pass, the per-check times of the
           untraced one and the tracing overhead (traced over untraced
           wall_s).

Every verdict is checked against its known answer, and the digest of each
pass's result bases against perfbench/expected.json. Metric lines go to
stdout and the last line is one JSON object; the full record, with the
environment stamp, is written to perfbench/out/. `--record` stores the
digests of a run without failures in perfbench/expected.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0           # every worker is killed past this point

# The bounded metrics. The times are calibrated: converted to a reference
# host speed (speed.py). The raw times are printed too, as RAW metrics.
END_TO_END = {"wall_s": "s", "setup_s": "s", "slowest_unit_s": "s",
              "peak_rss_mb": "MB"}
RAW = {"raw_wall_s": "s", "raw_setup_s": "s", "raw_slowest_unit_s": "s"}


def _env_stamp(seed: int) -> dict:
    sha = "unknown"
    try:
        # The ceiling keeps git from searching the directories above.
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "seed": seed, "loadavg_start": os.getloadavg()}


def _spawn(workload: str, seed: int, deadline: float, cursor: int = 0,
           trace_out=None, setup_only=False, calibrate=False) -> dict:
    """One worker pass; a crash or timeout comes back as {"error": ...}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--cursor", str(cursor)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    if calibrate:
        cmd.append("--calibrate")
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


class Verdicts:
    """Verdicts against their known answers, for fail_ratio.

    A pass's verdicts are its units plus the digest of its result bases.
    Passes over the same inputs share an index and must share a digest;
    where expected.json records one for that index, it must match too.
    """

    def __init__(self, workload, seed: int, expected: dict):
        self.workload = workload
        recorded = expected.get(workload.name)
        if workload.passes is None:
            self.recorded = [recorded] if recorded else []
        else:
            self.recorded = (recorded or {}).get(str(seed), [])
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}

    def add_pass(self, result: dict, index: int) -> None:
        if "error" in result:
            self.attempted += self.workload.units_per_pass + 1
            self.failures += [result["error"]] * (self.workload.units_per_pass + 1)
            return
        for unit in result["units"]:
            self.attempted += 1
            if not unit["ok"]:
                self.failures.append(f"{unit['name']}: {unit['detail']}")
        self.attempted += 1
        got = result["digest"]
        want = self.digests.setdefault(index, got)
        if index < len(self.recorded):
            want = self.recorded[index]
        if got != want:
            self.failures.append(f"pass {index}: result digest {got[:16]} "
                                 f"differs from {want[:16]}")

    def record(self, expected: dict, seed: int) -> None:
        digests = [self.digests[i] for i in sorted(self.digests)]
        if self.workload.passes is None:
            expected[self.workload.name] = digests[0]
        else:
            expected.setdefault(self.workload.name, {})[str(seed)] = digests


def run_timed(args, workload, verdicts: Verdicts, start: float) -> dict:
    deadline = start + RUN_LIMIT_S
    passes, setups = [], []
    cursor = 0

    def setup_only() -> bool:
        result = _spawn(workload.name, args.seed, deadline, setup_only=True,
                        calibrate=True)
        if "error" in result:
            verdicts.add_pass(result, 0)
            return False
        setups.append(result)
        return True

    while True:
        t0 = time.monotonic()
        result = _spawn(workload.name, args.seed, deadline, cursor,
                        calibrate=True)
        index = len(passes) if workload.passes else 0
        verdicts.add_pass(result, index)
        if "error" in result:
            break
        passes.append(result)
        setups.append(result)
        cursor = result["cursor"]
        # Set-up samples are spread over the run, so one slow spell of the
        # machine affects few of them.
        if not setup_only():
            break
        if workload.passes and len(passes) == workload.passes:
            break
        if (time.monotonic() - start) + (time.monotonic() - t0) > args.seconds:
            break
    while passes and len(setups) < SETUP_SAMPLES and setup_only():
        pass
    if not passes:
        return {}
    samples = {
        "wall_s": [p["cal_wall_s"] for p in passes],
        "setup_s": [s["cal_setup_s"] for s in setups],
        "slowest_unit_s": [max(u["cal_seconds"] for u in p["units"])
                           for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "raw_wall_s": [p["wall_s"] for p in passes],
        "raw_setup_s": [s["setup_s"] for s in setups],
        "raw_slowest_unit_s": [max(u["seconds"] for u in p["units"])
                               for p in passes],
    }
    units = {**END_TO_END, **RAW}
    return {name: {**_summary(vals), "unit": units[name], "samples": vals}
            for name, vals in samples.items()}


def run_traced(args, workload, verdicts: Verdicts, start: float,
               check_names) -> tuple[dict, dict]:
    deadline = start + RUN_LIMIT_S
    plain = _spawn(workload.name, args.seed, deadline)
    verdicts.add_pass(plain, 0)
    trace_file = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
    traced = _spawn(workload.name, args.seed, deadline, trace_out=trace_file)
    verdicts.add_pass(traced, 0)
    if "error" in plain or "error" in traced:
        return {}, {}
    metrics = {}
    for name, value in traced["layers"].items():
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else
                "bit" if name.endswith("_bits") else "count")
        metrics[name] = {"value": value, "unit": unit}
    per_check = dict.fromkeys(check_names, 0.0)
    for unit in plain["units"]:
        check = unit["name"].split("@", 1)[0]
        if check in per_check:
            per_check[check] += unit["seconds"]
    for check, seconds in per_check.items():
        metrics[f"checks.{check}.wall_s"] = {"value": seconds, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": traced["wall_s"] / plain["wall_s"], "unit": "ratio"}
    extra = {"counts": traced["counts"],
             "untraced_wall_s": plain["wall_s"],
             "traced_wall_s": traced["wall_s"],
             "trace_file": os.path.relpath(trace_file, ROOT)}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the result digests in perfbench/expected.json")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "detlink", "__init__.py")):
        print("error: run from the root of a detlink source checkout "
              "(src/detlink not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    start = time.monotonic()
    env = _env_stamp(args.seed)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    verdicts = Verdicts(workload, args.seed, expected)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        metrics, extra = run_traced(args, workload, verdicts, start,
                                    workloads.CHECKS_RUN)
    else:
        metrics, extra = run_timed(args, workload, verdicts, start), {}
    env["loadavg_end"] = os.getloadavg()
    if not metrics:
        for failure in verdicts.failures:
            print(f"failure: {failure}", file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1

    fail_ratio = len(verdicts.failures) / verdicts.attempted
    for key, value in env.items():
        print(f"env {key} {value}")
    for name, m in metrics.items():
        if "median" in m:
            print(f"{name} {m['median']:.6g} {m['unit']} "
                  f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
        else:
            print(f"{name} {m['value']:.6g} {m['unit']}")
    for key in ("untraced_wall_s", "traced_wall_s", "trace_file"):
        if key in extra:
            print(f"{key} {extra[key]}")
    print(f"fail_ratio {fail_ratio:.6g} ({len(verdicts.failures)} of "
          f"{verdicts.attempted} verdicts)")
    for failure in verdicts.failures:
        print(f"failure: {failure}")

    if args.record and not verdicts.failures:
        verdicts.record(expected, args.seed)
        with open(EXPECTED, "w") as fh:
            json.dump(expected, fh, indent=2, sort_keys=True)
            fh.write("\n")

    record = {"workload": workload.name, "trace": args.trace, "env": env,
              "attempted": verdicts.attempted, "failures": verdicts.failures,
              "fail_ratio": fail_ratio, "digests": verdicts.digests,
              "metrics": metrics, **extra}
    with open(os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not verdicts.failures,
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failures),
        "metrics": {name: {"value": m["median"] if "median" in m else m["value"],
                           "unit": m["unit"]}
                    for name, m in metrics.items() if name not in RAW},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
