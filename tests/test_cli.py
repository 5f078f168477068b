import json
import random
import sys
import time
from fractions import Fraction

import pytest

from qcartan import cli
from qcartan.cli import main
from qcartan.exprparse import MAX_NESTING, Evaluator, parse_expr, render_ast
from qcartan.uqalgebra import Algebra


def run(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_parse_examples():
    ast = parse_expr("B2 B1 - q B1 B2")
    assert ast[0] == "sum" and len(ast[1]) == 2
    prod = ast[1][0][1]
    assert prod == ("prod", (("gen", "B", 2), ("gen", "B", 1)))
    ast = parse_expr("[B3,[B2,B1]_q]_q")
    assert ast[0] == "comm" and ast[2][0] == "comm"
    assert parse_expr("kappa(E1)") == ("func", "kappa", ("gen", "E", 1))


def test_parse_errors():
    with pytest.raises(SyntaxError):
        parse_expr("E1 +")
    with pytest.raises(SyntaxError):
        parse_expr("@")
    with pytest.raises(SyntaxError):
        parse_expr("[E1 E2]")


def _random_ast(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            ("num", Fraction(rng.randint(1, 5), rng.randint(1, 3))),
            ("q",),
            ("gen", rng.choice("EF"), rng.randint(1, 2)),
            ("K1", rng.randint(1, 2), rng.choice([1, -1])),
            ("K", (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))),
        ])
    kind = rng.choice(["sum", "prod", "comm", "func", "pow", "ad"])
    if kind == "sum":
        return ("sum", tuple((rng.choice("+-"), _random_ast(rng, depth - 1))
                             for _ in range(2)))
    if kind == "prod":
        return ("prod", tuple(_random_ast(rng, depth - 1) for _ in range(2)))
    if kind == "comm":
        return ("comm", _random_ast(rng, depth - 1),
                _random_ast(rng, depth - 1), ("q",))
    if kind == "func":
        return ("func", rng.choice(["kappa", "sigma", "phi", "phiP"]),
                _random_ast(rng, depth - 1))
    if kind == "pow":
        return ("pow", ("gen", "F", rng.randint(1, 2)), rng.randint(1, 3))
    return ("ad", (("gen", "E", rng.randint(1, 2)),),
            _random_ast(rng, depth - 1))


def test_render_parse_roundtrip():
    # parse-render-parse is stable on parsed trees
    rng = random.Random(99)
    for _ in range(100):
        text = render_ast(_random_ast(rng))
        first = parse_expr(text)
        second = parse_expr(render_ast(first))
        assert second == first


def test_roundtrip_evaluates_equal():
    rng = random.Random(3)
    alg = Algebra("A", 2)
    ev = Evaluator(alg)
    for _ in range(25):
        ast = _random_ast(rng, depth=2)
        text = render_ast(ast)
        assert ev.run(parse_expr(text)) == ev.run(ast)


def test_normal_form_command(capsys):
    rc, out = run(["normal-form", "--family", "A", "--rank", "2",
                   "--expr", "E1 F1"], capsys)
    assert rc == 0
    assert "F1 E1" in out
    rc, out = run(["normal-form", "--family", "A", "--rank", "2",
                   "--expr", "E1 F1", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["terms"]


def test_equal_command(capsys):
    rc, _ = run(["equal", "--family", "A", "--rank", "2",
                 "--lhs", "E1 F1 - F1 E1",
                 "--rhs", "(Ki1 - Ki-1) (q - q^-1)^-1"], capsys)
    assert rc == 0
    rc, _ = run(["equal", "--family", "A", "--rank", "2",
                 "--lhs", "E1", "--rhs", "F1"], capsys)
    assert rc == 1


def test_equal_json(capsys):
    rc, out = run(["equal", "--family", "A", "--rank", "2", "--json",
                   "--lhs", "E1 F1 - F1 E1",
                   "--rhs", "(Ki1 - Ki-1) (q - q^-1)^-1"], capsys)
    assert rc == 0
    assert json.loads(out) == {"equal": True}
    rc, out = run(["equal", "--family", "A", "--rank", "2", "--json",
                   "--lhs", "E1", "--rhs", "F1"], capsys)
    assert rc == 1
    data = json.loads(out)
    assert data["equal"] is False
    _, diff = run(["normal-form", "--family", "A", "--rank", "2", "--json",
                   "--expr", "E1 - F1"], capsys)
    assert data["difference"] == json.loads(diff)


def test_equal_section82(capsys):
    rc, _ = run([
        "equal", "--pair", "AIII", "--n", "2",
        "--lhs", "B2 B1 - q B1 B2 - (q^-1 K[1,-1] - K[-1,1]) (q - q^-1)^-1"
                 " - (1+q)^-1",
        "--rhs", "(F2 F1 - q F1 F2) + q^-2 (E1 E2 - q E2 E1) K[-1,-1]"
                 " + (1+q)^-1 (K[-1,-1] - 1) + (q^-1 - q) F1 E1 Ki-2"],
        capsys)
    assert rc == 0


def _count_algebras(monkeypatch) -> list:
    built = []
    init = Algebra.__init__

    def counting(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(Algebra, "__init__", counting)
    return built


@pytest.mark.parametrize("lhs, rhs, rc_want", [
    ("B1 B2 B3 B4", "B1 B2 B3 B4", 0),
    ("B1 B2", "B2 B1", 1),
])
def test_equal_builds_one_session(capsys, monkeypatch, lhs, rhs, rc_want):
    session = ["--pair", "AIII", "--n", "4"]
    built = _count_algebras(monkeypatch)
    rc, out = run(["equal"] + session + ["--lhs", lhs, "--rhs", rhs], capsys)
    assert len(built) == 1
    assert rc == rc_want
    if rc_want == 0:
        assert out == "equal\n"
    else:
        _, diff = run(["normal-form"] + session
                      + ["--expr", "%s - (%s)" % (lhs, rhs)], capsys)
        assert out == "different\ndifference: " + diff


@pytest.mark.parametrize("session", [
    ["--pair", "AII", "--n", "3"],
    ["--pair", "EIV"],
    ["--pair", "DI-1", "--n", "4", "--r", "1"],
])
def test_cartan_on_empty_gamma_theta(capsys, session):
    rc, out = run(["cartan"] + session, capsys)
    assert (rc, out) == (0, "Gamma_theta is empty, so there is no H_j\n")
    rc, out = run(["cartan"] + session + ["--json"], capsys)
    assert (rc, json.loads(out)) == (0, [])


@pytest.mark.parametrize("j", ["1", "2"])
def test_cartan_j_on_empty_gamma_theta(capsys, j):
    assert main(["cartan", "--pair", "AII", "--n", "3", "--j", j]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "error: Gamma_theta is empty, so there is no H_%s\n" % j


def test_theta_system_command(capsys):
    rc, out = run(["theta-system", "--pair", "AIII", "--n", "5", "--r", "2",
                   "--json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["cases"] == [3, 3]
    assert all(data["checks"].values())


def test_theta_system_json_reports_built_pair(capsys):
    # an alias resolves to its family, and the rank a label fixes is filled in
    rc, out = run(["theta-system", "--pair", "AIV", "--n", "3", "--json"],
                  capsys)
    assert rc == 0
    data = json.loads(out)
    assert (data["pair"], data["n"], data["r"]) == ("AIII", 3, 1)
    _, bare = run(["theta-system", "--pair", "EI", "--json"], capsys)
    _, ranked = run(["theta-system", "--pair", "EI", "--n", "6", "--json"],
                    capsys)
    assert bare == ranked
    assert json.loads(bare)["n"] == 6


def test_classical_command(capsys):
    rc, out = run(["classical-cartan", "--pair", "BI", "--n", "3", "--r", "3"],
                  capsys)
    assert rc == 0
    assert "pass" in out


def test_member_command(capsys):
    rc, _ = run(["member", "--pair", "AIII", "--n", "2", "--expr", "B1"],
                capsys)
    assert rc == 0
    rc, _ = run(["member", "--pair", "AIII", "--n", "2", "--expr", "F1"],
                capsys)
    assert rc == 1


def test_member_json(capsys):
    rc, out = run(["member", "--pair", "AIII", "--n", "2", "--json",
                   "--expr", "B1"], capsys)
    assert (rc, json.loads(out)) == (0, {"member": True})
    rc, out = run(["member", "--pair", "AIII", "--n", "2", "--json",
                   "--expr", "F1"], capsys)
    assert (rc, json.loads(out)) == (1, {"member": False})


def test_cartan_command(capsys):
    rc, out = run(["cartan", "--pair", "AIII", "--n", "2", "--j", "1",
                   "--json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data[0]["checks"]["kappa_pairing"]


class _RecordingStdout:
    """A stdout that logs its writes and flushes in order."""

    def __init__(self, events):
        self.events = events

    def write(self, text):
        self.events.append(("write", text))
        return len(text)

    def flush(self):
        self.events.append(("flush",))


def test_cartan_flushes_each_h_before_the_next(capsys, monkeypatch):
    # a run killed while H_{j+1} is computed keeps H_1..H_j in its output
    args = ["cartan", "--pair", "AIII", "--n", "3"]
    _, want = run(args, capsys)
    events = []
    element = cli.cartan_element

    def recording(par, ts, j):
        events.append(("call", j))
        return element(par, ts, j)

    monkeypatch.setattr(cli, "cartan_element", recording)
    monkeypatch.setattr(sys, "stdout", _RecordingStdout(events))
    assert main(args) == 0
    monkeypatch.undo()
    calls = [k for k, e in enumerate(events) if e[0] == "call"]
    assert [events[k][1] for k in calls] == [1, 2]
    for start, end in zip(calls, calls[1:] + [len(events)]):
        block = events[start + 1:end]
        assert block[0][1].startswith("H_") and block[-1] == ("flush",)
    assert "".join(e[1] for e in events if e[0] == "write") == want


def test_verify_command(capsys):
    rc, _ = run(["verify", "all", "--pair", "AIII", "--n", "2"], capsys)
    assert rc == 0


def test_verify_command_even_rank(capsys):
    rc, _ = run(["verify", "all", "--pair", "AIII", "--n", "4"], capsys)
    assert rc == 0


@pytest.mark.parametrize("args", [
    ["verify", "suite", "--pair", "BI", "--n", "3", "--r", "1"],
    ["verify", "suite", "--pair", "AIII", "--n", "4", "--r", "1"],
    ["verify", "all", "--pair", "AI", "--n", "3"],
])
def test_verify_suite_outside_family_exit_code(capsys, args):
    # the Cartan suite is defined only for AIII/AIV with pi_theta empty;
    # other pairs are refused before any section runs
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 1.0
    got = capsys.readouterr()
    assert got.out == ""
    assert "pi_theta empty" in got.err


@pytest.mark.parametrize("args", [
    ["--pair", "AIV", "--n", "5", "--r", "3"],
    ["--pair", "EI", "--n", "4", "--r", "9"],
    ["--pair", "EI", "--n", "4"],
    ["--pair", "EI", "--r", "1"],
] + [["--pair", label, "--n", n, "--r", "1"] for label, n in (
    ("AI", "3"), ("AII", "3"), ("CI", "3"), ("CII-2", "4"), ("DI-2", "4"),
    ("DI-3", "4"), ("DIII-1", "4"), ("DIII-2", "5"))])
def test_parameters_the_pair_does_not_take_exit_code(capsys, args):
    assert main(["theta-system", *args]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n", ["3", "5"])
def test_alias_runs_as_its_family(capsys, n):
    # AIV(n) is AIII(n, 1): the same checks, the theta ones included
    rc, alias = run(["classical-cartan", "--pair", "AIV", "--n", n, "--json"],
                    capsys)
    assert rc == 0
    rc, family = run(["classical-cartan", "--pair", "AIII", "--n", n, "--r",
                      "1", "--json"], capsys)
    assert rc == 0
    alias, family = json.loads(alias), json.loads(family)
    assert list(alias["checks"]) == list(family["checks"])
    assert "theta_fixes_basis" in alias["checks"]
    assert alias == family


def test_verify_suite_aiv(capsys):
    rc, _ = run(["verify", "suite", "--pair", "AIV", "--n", "2"], capsys)
    assert rc == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["normal-form"])
    assert exc.value.code == 2


def test_bad_expression_exit_code(capsys):
    rc = main(["normal-form", "--family", "A", "--rank", "2",
               "--expr", "E9"])
    assert rc == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "session.cfg"
    cfg.write_text("pair = AIII\nn = 2\nr = 1\n")
    rc, _ = run(["member", "--config", str(cfg), "--expr", "B1"], capsys)
    assert rc == 0


@pytest.mark.parametrize("text", [
    "n = two\n",                   # not an integer
    "pair = AIII\nN = 1\n",        # unknown key (q = v^N is gone)
    "pair = AIII\ncolour = red\n",  # unknown key
    "pair = AIII\nn 2\n",          # no '='
])
def test_bad_config_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "session.cfg"
    cfg.write_text(text)
    rc = main(["member", "--config", str(cfg), "--expr", "B1"])
    assert rc == 2
    assert "config line" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    rc = main(["member", "--config", str(tmp_path / "absent.cfg"),
               "--expr", "B1"])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["normal-form", "--expr", "E1"],
    ["cartan", "--family", "A", "--rank", "2"],
    ["member", "--family", "A", "--rank", "2", "--expr", "E1"],
])
def test_missing_session_exit_code(capsys, args):
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("j", ["0", "2"])
def test_cartan_index_out_of_range_exit_code(capsys, j):
    # AIII(2,1) has one system root, so only --j 1 names an H_j
    assert main(["cartan", "--pair", "AIII", "--n", "2", "--j", j]) == 2
    assert "--j must lie in 1..1" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["normal-form", "--family", "A", "--rank", "2", "--N", "2",
     "--expr", "E1"],
    ["cartan", "--pair", "AIII", "--n", "2", "--verify"],
    ["classical-cartan", "--pair", "AI", "--n", "2", "--verify"],
])
def test_removed_options_are_usage_errors(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


@pytest.mark.parametrize("expr", ["K[1/2,0] E2", "E2 K[1/2,0]"])
def test_k_exponent_outside_weight_lattice(capsys, expr):
    rc = main(["normal-form", "--family", "A", "--rank", "2",
               "--expr", expr])
    assert rc == 2
    assert "weight lattice" in capsys.readouterr().err


def test_k_exponent_in_weight_lattice(capsys):
    # the fundamental weight (2/3, 1/3) of A2 pairs integrally with every
    # coroot, so q^((mu, alpha_1)) = q is an integer power
    rc, out = run(["normal-form", "--family", "A", "--rank", "2",
                   "--expr", "E1 K[2/3,1/3]"], capsys)
    assert rc == 0
    assert out == "q^-1 K[2/3,1/3] E1\n"


@pytest.mark.parametrize("expr", ["1/0", "K[1/0,0]", "(q - q)^-1"])
def test_zero_denominator_exit_code(capsys, expr):
    rc = main(["normal-form", "--family", "A", "--rank", "2",
               "--expr", expr])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--family", "A", "--rank", "2", "--expr", "T5(E1)"],
    ["--family", "A", "--rank", "2", "--expr", "Tinv3(F1)"],
    ["--family", "A", "--rank", "2", "--expr", "T0(E1)"],
    ["--pair", "AIII", "--n", "3", "--expr", "T4(B1)"],
])
def test_braid_index_out_of_range_exit_code(capsys, args):
    assert main(["normal-form"] + args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# (opening, closing) of each construct the nesting bound covers
_NESTINGS = {"paren": ("(", ")"), "bracket": ("[", ", E1]"),
             "kappa": ("kappa(", ")"), "ad": ("ad E1 (", ")"),
             "T": ("T1(", ")"), "neg": ("-", "")}


@pytest.mark.parametrize("kind, depth", [
    ("paren", 400), ("neg", 1500),
    *((kind, MAX_NESTING + 1) for kind in _NESTINGS)])
def test_deep_nesting_exit_code(capsys, kind, depth):
    # the factor one level past the bound starts at its opening
    opening, closing = _NESTINGS[kind]
    rc = main(["normal-form", "--family", "A", "--rank", "2",
               "--expr=" + opening * depth + "E1" + closing * depth])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: nesting deeper than %d at position %d\n" \
        % (MAX_NESTING, (MAX_NESTING + 1) * len(opening))


@pytest.mark.parametrize("kind", ["paren", "bracket", "kappa", "neg"])
def test_nesting_at_the_bound_evaluates(capsys, kind):
    opening, closing = _NESTINGS[kind]
    rc = main(["normal-form", "--family", "A", "--rank", "2", "--expr=" +
               opening * MAX_NESTING + "E1" + closing * MAX_NESTING])
    assert rc == 0
    assert capsys.readouterr().out.strip()
