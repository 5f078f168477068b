"""CLI byte-identity: the sha256 of stdout and the exit code of 571 commands.

The commands are `theta-system` and `classical-cartan`, text and `--json`,
on every `pair_cases.py` case; `cartan`, text and `--json`, on the twelve
pairs of the benchmark's `cartan-families` workload; `verify all --pair
AIII --n 2..5`, text and `--json`; and three `normal-form` expressions in
A2.  Each runs in-process through `qcartan.cli.main`, in this order, and is
compared with `tests/golden/cli_digest.json`.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_digest.py

and names the changed commands in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest
from pair_cases import ALL_CASES

from qcartan.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_digest.json"

# the cartan-families pairs of bench/workloads.py
CARTAN_PAIRS = (("AI", 4, None), ("AIII", 4, 1), ("BI", 2, 1), ("BI", 3, 1),
                ("BI", 3, 2), ("BI", 3, 3), ("CI", 2, None), ("CII-1", 3, 2),
                ("DI-3", 4, None), ("DIII-1", 4, None), ("EI", None, None),
                ("G", None, None))

NORMAL_FORMS = ("phiP(F1 E2 Ki1 + q^2 F2 F1)", "phi(kappa(F1 E2))",
                "sigma(T1(E2))")


def _pair_args(pair, n, r) -> list:
    args = ["--pair", pair]
    if n is not None:
        args += ["--n", str(n)]
    if r is not None:
        args += ["--r", str(r)]
    return args


def commands() -> list:
    out = []
    for case in ALL_CASES:
        for cmd in ("theta-system", "classical-cartan"):
            out.append([cmd] + _pair_args(*case))
            out.append([cmd] + _pair_args(*case) + ["--json"])
    for pair in CARTAN_PAIRS:
        out.append(["cartan"] + _pair_args(*pair))
        out.append(["cartan"] + _pair_args(*pair) + ["--json"])
    for n in range(2, 6):
        out.append(["verify", "all", "--pair", "AIII", "--n", str(n)])
        out.append(["verify", "all", "--pair", "AIII", "--n", str(n),
                    "--json"])
    for expr in NORMAL_FORMS:
        out.append(["normal-form", "--family", "A", "--rank", "2",
                    "--expr", expr])
    return out


def digest(args) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(args)
    return {"sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            "exit": rc}


def test_command_list():
    cmds = commands()
    assert len(cmds) == 571
    assert len({" ".join(c) for c in cmds}) == 571


@pytest.mark.slow
def test_cli_digests_match_golden():
    golden = json.loads(GOLDEN.read_text())
    cmds = commands()
    assert [g["args"] for g in golden] == cmds
    mismatched = [" ".join(c) for c, g in zip(cmds, golden)
                  if digest(c) != {"sha256": g["sha256"], "exit": g["exit"]}]
    assert not mismatched


if __name__ == "__main__":
    GOLDEN.write_text("[\n%s\n]\n" % ",\n".join(
        json.dumps({"args": c, **digest(c)}) for c in commands()))
