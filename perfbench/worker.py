"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload colon-n5 --seed 0 --spawned <t>
        [--cursor N] [--trace-out FILE] [--calibrate] [--setup-only]

`--spawned` is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared between processes), so setup_s covers
interpreter start, `import detlink` and input construction. With
`--trace-out` the public functions are traced (see tracer.py) and the spans
are written to FILE after the pass. `--cursor` is where in its input
stream the pass starts (see workloads.ProbeN4); the pass prints where the
next one starts. With `--calibrate` the pass and each of its units also
get a calibrated time, converted to a reference host speed (see speed.py).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import sys
import time

from speed import SETUP_PERIOD_S, SpeedProbe


def _install_capture():
    """Keep the result bases for the digest: every quotient's basis, and
    every Groebner basis computed outside a quotient. Only references are
    kept here; hashing happens after the timed region."""
    from detlink import groebner, idealops
    from tracer import rebind

    captured = []
    depth = [0]
    quotient, gb = idealops.quotient, groebner.reduced_groebner_basis

    def captured_quotient(I, J, budget=None):
        depth[0] += 1
        try:
            out = quotient(I, J, budget)
        finally:
            depth[0] -= 1
        if not depth[0]:
            captured.append(out.groebner())
        return out

    def captured_gb(*args, **kwargs):
        out = gb(*args, **kwargs)
        if not depth[0]:
            captured.append(out)
        return out

    for new, old in ((captured_quotient, quotient), (captured_gb, gb)):
        functools.update_wrapper(new, old)
        rebind(old, new)
    return captured


def digest(bases) -> str:
    h = hashlib.sha256()
    for basis in bases:
        h.update(b"[")
        for f in basis:
            h.update(repr([(m.exps, c.numerator, c.denominator)
                           for c, m in f.terms]).encode())
        h.update(b"]")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--cursor", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.calibrate:
        setup_probe = SpeedProbe(SETUP_PERIOD_S)
        setup_probe.start()
    # detlink and everything that imports it load here, inside set-up.
    from tracer import Tracer
    from workloads import WORKLOADS
    captured = _install_capture()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.cursor)
    t_setup = time.monotonic()
    out = {"setup_s": t_setup - args.spawned}
    if args.calibrate:
        setup_probe.stop()
        out["cal_setup_s"] = (setup_probe.lead_in(args.spawned)
                              + setup_probe.calibrated())
    if not args.setup_only:
        probe = SpeedProbe() if args.calibrate else None
        if probe is not None:
            probe.start()
        t0 = time.perf_counter()
        units, out["cursor"] = workload.run(state)
        out["wall_s"] = time.perf_counter() - t0
        if probe is not None:
            probe.stop()
            out["cal_wall_s"] = probe.calibrated()
            for unit in units:
                unit["cal_seconds"] = probe.calibrated(unit["start"], unit["end"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["units"] = units
        out["digest"] = digest(captured)
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            out["counts"] = tracer.layer_counts()
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
