"""Self-tests of the benchmark: the oracle rejects wrong outputs, every
workload runs at a tiny size with all checks on, and the per-layer counts do
not depend on the interpreter's hash seed.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

from qcartan.coideal import CoidealParams, q_comm             # noqa: E402
from qcartan.involutions import build_involution              # noqa: E402
from qcartan.qfield import QRat                               # noqa: E402
from qcartan.uqalgebra import Algebra                         # noqa: E402

from calibrate import REF_KERNEL_S, Sampler                  # noqa: E402
from oracle import TensorSquare, commute, mat_mul             # noqa: E402


def _run(args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench",
                                                        "run.py")] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)


def test_oracle_is_a_representation():
    alg = Algebra("A", 3)
    rho = TensorSquare(3).rho
    q = alg.q
    gens = [alg.E(1), alg.F(2), alg.E(3), alg.F(1), alg.Ki(2, -1),
            alg.E(2).scale(q)]
    for a in gens:
        for b in gens:
            x, y = a * b + b, b * a * a
            assert rho(x * y) == mat_mul(rho(x), rho(y))


def test_oracle_accepts_h_prime_and_rejects_bare_bracket():
    """At n = 4 the bracket [B_3, B_2]_q without its torus term, used as
    H'_2 with H'_1 built from it, does not commute on V (x) V."""
    inv = build_involution("AIII", 4, 2)
    par = CoidealParams(inv, Algebra(inv.rd))
    rho = TensorSquare(4).rho
    q = par.algebra.q
    assert commute(rho(par.h_prime(1)), rho(par.h_prime(2)))
    bare = q_comm(par.B(3), par.B(2), q)
    h1 = q_comm(par.B(4), q_comm(bare, par.B(1), q), q)
    assert not commute(rho(h1), rho(bare))


def test_oracle_rejects_perturbed_product():
    """Changing one coefficient of a product by 1 is seen on V (x) V, for
    every term except F2 E1 E1, which acts as zero there: E1^2 lands on
    v1 (x) v1, which F2 kills."""
    alg = Algebra("A", 2)
    rho = TensorSquare(2).rho
    a = alg.E(1) * alg.F(2) + alg.Ki(1)
    b = alg.F(1) * alg.E(2) + alg.E(1)
    ab = a * b
    expected = mat_mul(rho(a), rho(b))
    assert rho(ab) == expected
    unseen = []
    for t, c in ab.terms.items():
        bad = dict(ab.terms)
        bad[t] = c + QRat((1,))
        if rho(type(ab)(alg, bad)) == expected:
            unseen.append(t)
    assert len(ab.terms) == 6
    assert unseen == [((2,), alg.rd.zero(), (1, 1))]


def test_sampler_takes_out_its_own_time_and_scales():
    speed = Sampler()
    speed.at = [1.0, 1.1, 1.2, 5.0]
    speed.took = [0.003, 0.006, 0.003, 0.003]
    assert abs(speed.raw_s(1.0, 1.25) - (0.25 - 0.012)) < 1e-12
    # the samples from 0.5 s before to 0.5 s after: a mean of 4 ms
    assert abs(speed.factor(1.0, 1.25) - REF_KERNEL_S / 0.004) < 1e-12
    # no sample in the window: the nearest one
    assert abs(speed.factor(3.0, 3.1) - REF_KERNEL_S / 0.003) < 1e-12
    with Sampler() as live:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.35:
            pass
        t1 = perf_counter()
    assert len(live.at) >= 2
    assert 0 < live.own_s(t0, t1) < t1 - t0
    assert abs(live.raw_s(t0, t1) + live.own_s(t0, t1) - (t1 - t0)) < 1e-9


def test_smoke_every_workload():
    for trace in ("0", "1"):
        out = _run(["--workload", "all", "--smoke", "--trace", trace])
        assert out.returncode == 0, out.stderr
        results = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(results) == {"aiii-suite", "cartan-families",
                                "products-warm"}
        for res in results.values():
            assert res["correct"] and res["failed"] == 0
            assert res["attempted"] >= 2


def test_layer_counts_repeat_under_hash_seeds():
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = _run(["--workload", "cartan-families", "--smoke",
                    "--trace", "1"], env=env)
        assert out.returncode == 0, out.stderr
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["qfield.qrat_new"] > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(["--workload", "products-warm", "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip()
