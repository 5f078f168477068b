"""Command-line surface: parse expressions, run the verification suites."""

from __future__ import annotations

import argparse
import json
import sys

from .classical import cayley_on_triple, verify_classical_cartan
from .coideal import (CoidealParams, cartan_element, require_suite_pair,
                      verify_cartan_suite)
from .exprparse import Evaluator, parse_expr
from .involutions import (PAIR_LABELS, build_involution,
                          format_symbolic_basis, gamma_theta,
                          verify_theta_system)
from .uqalgebra import Algebra


def _session_args(p: argparse.ArgumentParser, plain: bool = False):
    """--pair (required unless `plain`), --n, --r and --json; with `plain`
    a plain root system (--family with --rank) may stand in for --pair."""
    where = p.add_mutually_exclusive_group() if plain else p
    where.add_argument("--pair", choices=sorted(PAIR_LABELS),
                       required=not plain, help="symmetric pair label")
    if plain:
        where.add_argument("--family", help="plain root-system family A..G")
        p.add_argument("--rank", type=int, help="plain root-system rank")
    p.add_argument("--n", type=int, help="rank")
    p.add_argument("--r", type=int, help="pair parameter r, when applicable")
    p.add_argument("--json", action="store_true", help="emit JSON")


def _params(ns) -> CoidealParams:
    return CoidealParams(build_involution(ns.pair, ns.n, ns.r))


def _algebra(ns) -> tuple[Algebra, CoidealParams | None]:
    if ns.pair and ns.rank is None:
        par = _params(ns)
        return par.algebra, par
    if ns.family is None or ns.rank is None or ns.n is not None \
            or ns.r is not None:
        raise ValueError("give --pair with --n/--r, or --family with --rank")
    return Algebra(ns.family, ns.rank), None


def _print_checks(checks: dict):
    for k, v in checks.items():
        print("  %-40s %s" % (k, "pass" if v else "FAIL"))


def cmd_normal_form(ns) -> int:
    alg, par = _algebra(ns)
    val = Evaluator(alg, par).run(parse_expr(ns.expr))
    if ns.json:
        print(json.dumps(val.to_json()))
    else:
        print(alg.render(val))
    return 0


def cmd_equal(ns) -> int:
    alg, par = _algebra(ns)     # one session for both sides
    lhs, rhs = (Evaluator(alg, par).run(parse_expr(text))
                for text in (ns.lhs, ns.rhs))
    same = lhs == rhs
    if ns.json:
        out = {"equal": same}
        if not same:
            out["difference"] = (lhs - rhs).to_json()
        print(json.dumps(out))
    else:
        print("equal" if same else "different")
        if not same:
            print("difference:", alg.render(lhs - rhs))
    return 0 if same else 1


def cmd_theta_system(ns) -> int:
    ts = gamma_theta(ns.pair, ns.n, ns.r)
    report = verify_theta_system(ts)
    if ns.json:
        inv = ts.involution
        print(json.dumps({
            "pair": inv.pair, "n": inv.params[0], "r": inv.params[1],
            "betas": [[str(c) for c in e.beta] for e in ts.entries],
            "alpha_beta": [e.alpha_beta for e in ts.entries],
            "alpha_beta_prime": [e.alpha_beta_prime for e in ts.entries],
            "cases": [e.case for e in ts.entries],
            "checks": report,
        }))
    else:
        for j, e in enumerate(ts.entries, start=1):
            coords = ",".join(str(c) for c in e.beta)
            print("beta_%d = (%s)  alpha=%d alpha'=%d case %d"
                  % (j, coords, e.alpha_beta, e.alpha_beta_prime, e.case))
        _print_checks(report)
    return 0 if all(report.values()) else 1


def cmd_classical_cartan(ns) -> int:
    ts = gamma_theta(ns.pair, ns.n, ns.r)
    out = verify_classical_cartan(ts)
    if ns.json:
        print(json.dumps({"checks": out["checks"],
                          "signs": [str(s) for s in out["signs"]],
                          "basis": format_symbolic_basis(ts)}))
    else:
        for line in format_symbolic_basis(ts):
            print("  " + line)
        _print_checks(out["checks"])
    return 0 if all(out["checks"].values()) else 1


def cmd_cartan(ns) -> int:
    ts = gamma_theta(ns.pair, ns.n, ns.r)
    par = CoidealParams(ts.involution)
    if ns.j is not None and not ts.entries:
        raise ValueError("Gamma_theta is empty, so there is no H_%d" % ns.j)
    if ns.j is not None and not 1 <= ns.j <= len(ts.entries):
        raise ValueError("--j must lie in 1..%d" % len(ts.entries))
    js = range(1, len(ts.entries) + 1) if ns.j is None else [ns.j]
    if not ts.entries and not ns.json:
        print("Gamma_theta is empty, so there is no H_j")
    ok = True
    payload = []
    for j in js:
        rep = cartan_element(par, ts, j)
        ok = ok and rep.ok()
        if ns.json:
            payload.append({"j": j, "H": rep.H.to_json(),
                            "s": rep.s_scalar.to_json(),
                            "checks": rep.checks})
        else:
            print("H_%d = %s" % (j, par.algebra.render(rep.H)))
            _print_checks(rep.checks)
            sys.stdout.flush()      # a killed run keeps the H_j it finished
    if ns.json:
        print(json.dumps(payload))
    return 0 if ok else 1


def cmd_member(ns) -> int:
    par = _params(ns)
    val = Evaluator(par.algebra, par).run(parse_expr(ns.expr))
    inside = par.membership(val)
    if ns.json:
        print(json.dumps({"member": inside}))
    else:
        print("member" if inside else "not a member")
    return 0 if inside else 1


def cmd_verify(ns) -> int:
    ts = gamma_theta(ns.pair, ns.n, ns.r)
    if ns.what in ("all", "suite"):
        require_suite_pair(ts.involution)
    ok = True
    results = {}
    if ns.what in ("all", "tables"):
        rep = verify_theta_system(ts)
        results["theta_system"] = rep
        ok = ok and all(rep.values())
    if ns.what in ("all", "classical"):
        if ts.rd.family in "ABCD":
            rep = verify_classical_cartan(ts)["checks"]
            results["classical_cartan"] = rep
            ok = ok and all(rep.values())
        results["cayley"] = cayley_on_triple()
        ok = ok and all(results["cayley"].values())
    if ns.what in ("all", "suite"):
        par = CoidealParams(ts.involution)
        rep = verify_cartan_suite(par, ts, deep=not ns.shallow)
        flat = {k: v for k, v in rep.items()
                if isinstance(v, bool)}
        results["cartan_suite"] = flat
        ok = ok and all(flat.values())
    if ns.json:
        print(json.dumps(results))
    else:
        for section, rep in results.items():
            print(section)
            _print_checks(rep)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcartan",
        description="Exact computations in quantum symmetric pair coideal "
                    "subalgebras and their Cartan subalgebras")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normal-form", help="canonical form of an expression")
    _session_args(p, plain=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("equal", help="decide equality of two expressions")
    _session_args(p, plain=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("theta-system",
                       help="print and verify the strongly orthogonal system")
    _session_args(p)
    p.set_defaults(func=cmd_theta_system)

    p = sub.add_parser("classical-cartan",
                       help="matrix-level fixed-part Cartan verification")
    _session_args(p)
    p.set_defaults(func=cmd_classical_cartan)

    p = sub.add_parser("cartan", help="construct and verify Cartan elements")
    _session_args(p)
    p.add_argument("--j", type=int)
    p.set_defaults(func=cmd_cartan)

    p = sub.add_parser("member", help="coideal subalgebra membership")
    _session_args(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("what", choices=["all", "tables", "classical", "suite"])
    _session_args(p)
    p.add_argument("--shallow", action="store_true",
                   help="skip the per-root Cartan element checks")
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.pair == "AIII" and ns.r is None and ns.n:
            ns.r = (ns.n + 1) // 2    # the pi_theta-empty member of the family
        return ns.func(ns)
    except (ValueError, SyntaxError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
