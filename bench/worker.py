"""One workload in one process; started by run.py, not by hand.

Protocol on standard output: a line `READY` once set-up is done (imports,
fixtures, and on products-warm the table build), then, unless
--setup-only, one JSON line with the raw measurements.

--trace 0: whole rounds of operations are repeated for --seconds, with
tracing off, while a SIGALRM handler samples the host's speed
(calibrate.py); each operation's time is given without the samples, and
scaled to the reference host speed.  --trace 1: one round with tracing
off, then the tracer is installed and a fresh instance of the workload
(same seed) runs its set-up and one round again; the difference of the two
rounds' times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "qcartan", "__init__.py")):
        raise SystemExit("no qcartan sources under %s" % SRC)
    sys.path[:0] = [SRC, BENCH]
    import qcartan
    if not os.path.abspath(qcartan.__file__).startswith(SRC + os.sep):
        raise SystemExit("qcartan was imported from outside the checkout")


def _rounds(work, seconds: float, once: bool, problems: list):
    """Whole rounds.  Each is checked right after it and its outputs are let
    go, so memory does not grow with the number of rounds.  Another round
    starts only if, at the pace of the last one, the rounds' elapsed time
    stays within `seconds`; the checks do not count towards it.  Returns
    the operations, each round's operations, each round's elapsed time and
    the time the checks took."""
    ops, rounds, times, check_s = [], [], [], 0.0
    while True:
        r0 = perf_counter()
        batch = work.round()
        times.append(perf_counter() - r0)
        rounds.append(batch)
        c0 = perf_counter()
        problems += work.check(batch)
        check_s += perf_counter() - c0
        for op in batch:
            op.keep = None
        ops += batch
        if once or sum(times) + times[-1] > seconds:
            problems += work.finish()
            return ops, rounds, times, check_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    ns = ap.parse_args(argv)

    _import_program()
    from calibrate import Sampler
    from workloads import WORKLOADS
    work = WORKLOADS[ns.workload](ns.seed, ns.smoke)
    work.setup()
    print("READY", flush=True)
    if ns.setup_only:
        return 0

    problems = []
    if ns.trace:
        ops, rounds, times, check_s = _rounds(work, ns.seconds, True,
                                              problems)
        raw = scaled = {id(o): o.seconds for o in ops}
        kernel_s = []
    else:
        with Sampler() as speed:
            ops, rounds, times, check_s = _rounds(work, ns.seconds, False,
                                                  problems)
        spans = {id(o): (o.start, o.start + o.seconds) for o in ops}
        raw = {k: speed.raw_s(*v) for k, v in spans.items()}
        scaled = {k: speed.scaled_s(*v) for k, v in spans.items()}
        kernel_s = speed.took
    round_s = [sum(raw[id(o)] for o in batch) for batch in rounds]
    round_scaled_s = [sum(scaled[id(o)] for o in batch) for batch in rounds]
    out = {"round_s": round_s, "round_scaled_s": round_scaled_s,
           "check_s": check_s, "kernel_s": kernel_s,
           "ops": [[o.label, raw[id(o)], scaled[id(o)], o.failed, o.problem]
                   for o in ops],
           "latency_s": [raw[id(o)] for o in ops] if work.PER_OP_LATENCY
           else round_s,
           "latency_scaled_s": [scaled[id(o)] for o in ops]
           if work.PER_OP_LATENCY else round_scaled_s}
    if ns.trace:
        from tracing import Tracer
        tracer = Tracer()
        traced_work = WORKLOADS[ns.workload](ns.seed, ns.smoke)
        tracer.install()
        try:
            traced_work.setup()
            r0 = perf_counter()
            traced_ops = traced_work.round()
            traced_s = perf_counter() - r0
        finally:
            tracer.uninstall()
        problems += traced_work.check(traced_ops) + traced_work.finish()
        if [o.failed for o in traced_ops] != [o.failed for o in ops]:
            problems.append("traced and untraced rounds fail differently")
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = (traced_s - times[0], "s")
        out["layers"] = layers
        if ns.trace_file:
            tracer.dump(ns.trace_file, {"workload": ns.workload,
                                        "seed": ns.seed,
                                        "untraced_round_s": times[0],
                                        "traced_round_s": traced_s})
    out["problems"] = problems
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
