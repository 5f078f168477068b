"""The qcartan benchmark: three workloads, end to end and per layer.

    python3 bench/run.py --workload aiii-suite --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload all --smoke     # tiny sizes, all checks

Run from the root of a checkout; the program is imported from its `src/`.
Each workload runs in its own single-threaded child process (worker.py).
Set-up is timed from the parent, from spawning the child to its READY line,
so it covers interpreter start-up, imports and fixtures.  The child is
started three to seven times (seven while set-up is cheap); the last one
goes on to the timed phase, and the median set-up time is reported.  The
time metrics are scaled to the reference host speed, which this process
samples during set-up and the worker during its timed phase
(calibrate.py); the raw times are printed beside them.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Raw measurements and traces go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter, sleep

from calibrate import REF_KERNEL_S, WINDOW_S, Sampler

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("aiii-suite", "cartan-families", "products-warm")
CHILD_TIMEOUT_S = 170.0
SETUP_BUDGET_S = 2.0


class BenchError(Exception):
    pass


def _spawn(args: list, env: dict, deadline: float):
    """Start a worker; return (seconds to READY, the same scaled to the
    reference speed, the process).  The speed is sampled for WINDOW_S
    before the start and not during the set-up: samples taken beside it
    share a vCPU with it half of the time and read twice as slow then."""
    with Sampler() as speed:
        sleep(WINDOW_S)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + args
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError("worker set-up failed: %r" % line)
        if perf_counter() > deadline:
            raise BenchError("worker set-up ran past the deadline")
    except BaseException:
        _stop(proc)
        raise
    return ready, ready * speed.factor(speed.at[0], t0), proc


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def _finish(proc, deadline: float, result: bool = True):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past %.0f s" % CHILD_TIMEOUT_S)
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    if not result:
        return None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _p90(xs: list) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8] \
        if len(xs) > 1 else xs[0]


def run_workload(ns, name: str) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (name, ns.seed, ns.trace,
                                   "-smoke" if ns.smoke else "")
    args = ["--workload", name, "--seed", str(ns.seed),
            "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    if ns.smoke:
        args.append("--smoke")
    if ns.trace:
        args += ["--trace-file", os.path.join(OUT, tag + ".trace.json")]
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    env["PYTHONPATH"] = ""
    deadline = perf_counter() + CHILD_TIMEOUT_S
    setups, setups_scaled = [], []
    # at least three set-ups, up to seven while they stay cheap; the last
    # one goes on to the timed phase
    while not ns.trace and not ns.smoke and len(setups) < 6 and \
            (len(setups) < 2 or sum(setups) < SETUP_BUDGET_S):
        ready, scaled, proc = _spawn(args + ["--setup-only"], env, deadline)
        setups.append(ready)
        setups_scaled.append(scaled)
        _finish(proc, deadline, result=False)
    ready, scaled, proc = _spawn(args, env, deadline)
    setups.append(ready)
    setups_scaled.append(scaled)
    raw = _finish(proc, deadline)
    raw["setup_s"] = setups
    raw["setup_scaled_s"] = setups_scaled
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(raw, fh, indent=1)

    ops = raw["ops"]
    failed = sum(1 for o in ops if o[3])

    def times(setup, rounds, lat):
        return {"setup_s": statistics.median(setup),
                "wall_s": statistics.fmean(rounds),
                "op_p50_s": statistics.median(lat),
                "op_p90_s": _p90(lat)}

    unscaled = {}
    if ns.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in raw["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": "s"} for k, v in times(
            setups_scaled, raw["round_scaled_s"],
            raw["latency_scaled_s"]).items()}
        metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
        unscaled = times(setups, raw["round_s"], raw["latency_s"])
        unscaled["kernel_s"] = statistics.median(raw["kernel_s"])
    for label, _, _, op_failed, problem in ops:
        if op_failed:
            print("failed: %s: %s" % (label, problem))
    for problem in raw["problems"]:
        print("WRONG: %s" % problem)
    print("%s: %d operations in %d rounds, %d failed"
          % (name, len(ops), len(raw["round_s"]), failed))
    for k, m in metrics.items():
        print("  %-34s %14.6f %s" % (k, m["value"], m["unit"]))
    if unscaled:
        print("  unscaled (kernel reference %.3f s):" % REF_KERNEL_S)
        for k, v in unscaled.items():
            print("  %-34s %14.6f s" % (k, v))
    return {"correct": not raw["problems"], "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one round, every check on")
    ns = ap.parse_args(argv)
    if ns.smoke:
        ns.seconds = 0
    if not os.path.isfile(os.path.join(ROOT, "src", "qcartan",
                                       "__init__.py")):
        print("error: run from a qcartan checkout: no src/qcartan",
              file=sys.stderr)
        return 2
    names = WORKLOADS if ns.workload == "all" else (ns.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(ns, name)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if ns.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[ns.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
