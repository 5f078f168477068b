"""The benchmark's three workloads.

Each workload has a set-up, a round of operations that the timed phase
repeats, and checks made after the timed phase against computations made
apart from the normal-form engine.  An operation gives a record: its
start, seconds, failed, what went wrong, and the outputs kept for the
checks.  The two cold workloads run the fixed inputs the paper's claims
are about, in a fixed order, so their seed changes nothing; products-warm
draws its operands from the seed.

Calls into qcartan go through module attributes (`coideal.cartan_element`),
so the tracer's wrappers, installed after this module is imported, see them.
"""

from __future__ import annotations

import random
import traceback
from fractions import Fraction
from time import perf_counter

from qcartan import (classical, coideal, exprparse, involutions, qfield,
                     rootsys, uqalgebra)

from oracle import TensorSquare, commute, mat_mul

# process-wide memos of rootsys, emptied before every cold operation
_COLD_CACHES = [rootsys.build_root_data.cache_clear,
                rootsys._positive_set.cache_clear,
                rootsys._root_set.cache_clear,
                rootsys._longest_word.cache_clear]


def _cold():
    for clear in _COLD_CACHES:
        clear()


class Op:
    __slots__ = ("label", "start", "seconds", "failed", "problem", "keep")

    def __init__(self, label, start, seconds, failed, problem, keep):
        self.label, self.start, self.seconds = label, start, seconds
        self.failed, self.problem, self.keep = failed, problem, keep


def _timed(label, fn) -> Op:
    """Run one operation.  `fn` returns (ok, keep).  Any exception fails the
    operation and is recorded, so one fault does not hide the other
    operations' numbers; RecursionError means the operation needs more than
    Python's default recursion limit."""
    t0 = perf_counter()
    try:
        ok, keep = fn()
        problem = None if ok else "the engine's own checks failed"
    except RecursionError:
        ok, keep, problem = False, None, "RecursionError at the default limit"
    except Exception as exc:
        ok, keep = False, None
        problem = "".join(traceback.format_exception_only(exc)).strip()
    seconds = perf_counter() - t0
    return Op(label, t0, seconds, not ok, problem, keep)


# ---------------------------------------------------------------------------
# aiii-suite: `qcartan verify all --pair AIII --n n`, cold, n = 3, 4, 5

class AiiiSuite:
    """The theta-system and classical tables, and checks (a)-(h) of
    verify_cartan_suite with deep=True, each n in a fresh session."""

    name = "aiii-suite"
    PER_OP_LATENCY = False  # three unequal operations: latency is per round

    def __init__(self, seed: int, smoke: bool = False):
        self.ns = (3, 4) if smoke else (3, 4, 5)

    def setup(self):
        pass

    def _op(self, n):
        _cold()
        r = (n + 1) // 2
        ts = involutions.gamma_theta("AIII", n, r)
        ok = all(involutions.verify_theta_system(ts).values())
        ok = ok and all(classical.verify_classical_cartan(ts)["checks"]
                        .values())
        ok = ok and all(classical.cayley_on_triple().values())
        inv = involutions.build_involution("AIII", n, r)
        par = coideal.CoidealParams(inv, uqalgebra.Algebra(inv.rd))
        rep = coideal.verify_cartan_suite(par, ts, deep=True)
        ok = ok and all(v for v in rep.values() if isinstance(v, bool))
        return ok, (par, rep)

    def round(self) -> list:
        return [_timed("AIII n=%d" % n, lambda n=n: self._op(n))
                for n in self.ns]

    def check(self, ops: list) -> list:
        """H'_j commute pairwise on V (x) V, and so do the H_j."""
        problems = []
        for op in ops:
            if op.failed:
                continue
            par, rep = op.keep
            n = par.algebra.rd.rank
            rho = TensorSquare(n).rho
            r = (n + 1) // 2
            hps = [rho(par.h_prime(j)) for j in range(1, r + 1)]
            hs = [rho(rep["cartan_reports"][j].H) for j in range(1, r + 1)]
            for kind, mats in (("H'", hps), ("H", hs)):
                if not _pairwise_commute(mats):
                    problems.append("%s: the %s_j do not commute on V(x)V"
                                    % (op.label, kind))
        return problems

    def finish(self) -> list:
        return []


def _pairwise_commute(mats) -> bool:
    return all(commute(a, b) for i, a in enumerate(mats)
               for b in mats[i + 1:])


# ---------------------------------------------------------------------------
# cartan-families: every H_j with its CartanReport, cold, across types

FAMILIES = (("AI", 4, None), ("AIII", 4, 1), ("BI", 2, 1), ("BI", 3, 1),
            ("BI", 3, 2), ("BI", 3, 3), ("CI", 2, None), ("CII-1", 3, 2),
            ("DI-3", 4, None), ("DIII-1", 4, None), ("EI", None, None),
            ("G", None, None))
SMOKE_FAMILIES = (("AI", 3, None), ("BI", 2, 1), ("CI", 2, None),
                  ("G", None, None))
# BI(3,1): the X part of H_1 has a simple pole at q = 1, so H_1 is not in
# the integral form and specialization_valuations fails, on every seed
KNOWN_FAILURES = {("BI", 3, 1): {"specialization_valuations"}}


def _pair_label(pair) -> str:
    name, n, r = pair
    args = ",".join(str(x) for x in (n, r) if x is not None)
    return "%s(%s)" % (name, args) if args else name


class CartanFamilies:
    """For each pair, every H_j with its full report, then [H_a, H_b] = 0."""

    name = "cartan-families"
    PER_OP_LATENCY = False

    def __init__(self, seed: int, smoke: bool = False):
        self.pairs = SMOKE_FAMILIES if smoke else FAMILIES

    def setup(self):
        pass

    def _op(self, pair):
        _cold()
        inv = involutions.build_involution(*pair)
        ts = involutions.gamma_theta(*pair)
        par = coideal.CoidealParams(inv, uqalgebra.Algebra(inv.rd))
        reps = [coideal.cartan_element(par, ts, j)
                for j in range(1, len(ts.entries) + 1)]
        hs = [rep.H for rep in reps]
        commuting = all(a * b == b * a for i, a in enumerate(hs)
                        for b in hs[i + 1:])
        return all(rep.ok() for rep in reps), (pair, reps, commuting)

    def round(self) -> list:
        out = []
        for pair in self.pairs:
            op = _timed(_pair_label(pair), lambda p=pair: self._op(p))
            if op.failed and op.keep is not None:
                failing = {k for rep in op.keep[1]
                           for k, v in rep.checks.items() if not v}
                op.problem = "fails " + ", ".join(sorted(failing))
                if failing == KNOWN_FAILURES.get(pair):
                    op.problem += " (known)"
            out.append(op)
        return out

    def check(self, ops: list) -> list:
        """The engine's commutation of each pair's H_j, and for type A the
        same commutation of their matrices on V (x) V."""
        problems = []
        for op in ops:
            if op.keep is None:
                continue
            pair, reps, commuting = op.keep
            if not commuting:
                problems.append("%s: the H_j do not commute" % op.label)
            if op.failed:
                continue
            rd = reps[0].H.alg.rd
            if rd.family == "A":
                rho = TensorSquare(rd.rank).rho
                if not _pairwise_commute([rho(rep.H) for rep in reps]):
                    problems.append("%s: the H_j do not commute on V(x)V"
                                    % op.label)
        return problems

    def finish(self) -> list:
        return []


# ---------------------------------------------------------------------------
# products-warm: (ab)c = a(bc) on A4 tables built in set-up

COEFFS = ("", "", "q ", "q^-1 ", "q^2 ", "2/3 ", "-3 q^-2 ", "5/2 q ",
          "(1 + q^2) ", "(q - 1/2) ")


def operand_shapes(rng: random.Random) -> list:
    """One to three terms, each (number of E's, number of F's, K kind) with
    at most two E's, at most two F's and at most one K."""
    return [(rng.randint(0, 2), rng.randint(0, 2), rng.randrange(4))
            for _ in range(rng.randint(1, 3))]


def operand(rng: random.Random, rank: int, shapes: list) -> str:
    """An operand of the given shape: indices, K's, coefficients, signs and
    the order of the letters in each term come from `rng`."""
    terms = []
    for n_e, n_f, kind in shapes:
        letters = ["E%d" % rng.randint(1, rank) for _ in range(n_e)]
        letters += ["F%d" % rng.randint(1, rank) for _ in range(n_f)]
        if kind == 1:
            letters.append("Ki%d" % rng.randint(1, rank))
        elif kind == 2:
            letters.append("Ki-%d" % rng.randint(1, rank))
        elif kind == 3:
            letters.append("K[%s]" % ",".join(
                str(rng.randint(-1, 1)) for _ in range(rank)))
        rng.shuffle(letters)
        word = " ".join(letters)
        coeff = rng.choice(COEFFS)
        terms.append((coeff + word).strip() or "1")
    out = terms[0]
    for t in terms[1:]:
        out += rng.choice((" + ", " - ")) + t
    return out


def _hand_relations(alg, rank: int) -> list:
    """(lhs text, rhs element) pairs with right-hand sides written out:
    E_iF_j - F_jE_i = delta_ij (K_i - K_i^{-1})/(q - q^{-1}) and the
    quantum Serre relations, on both sides."""
    zero = alg.zero()
    inv_qq = qfield.QRat((0, 1), (-1, 0, 1))        # q/(q^2 - 1)

    def k(i, s):
        return tuple(Fraction(s if j == i else 0) for j in range(1, rank + 1))

    out = []
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            rhs = zero
            if i == j:
                rhs = uqalgebra.Element(alg, {((), k(i, 1), ()): inv_qq,
                                              ((), k(i, -1), ()): -inv_qq})
            out.append(("E%d F%d - F%d E%d" % (i, j, j, i), rhs))
            if i == j:
                continue
            for g in "EF":
                if abs(i - j) == 1:
                    text = ("{g}{i} {g}{i} {g}{j} - (q + q^-1) {g}{i} {g}{j} "
                            "{g}{i} + {g}{j} {g}{i} {g}{i}")
                else:
                    text = "{g}{i} {g}{j} - {g}{j} {g}{i}"
                out.append((text.format(g=g, i=i, j=j), zero))
    return out


class ProductsWarm:
    """Parse three seeded operands and decide (ab)c = a(bc)."""

    name = "products-warm"
    PER_OP_LATENCY = True

    def __init__(self, seed: int, smoke: bool = False):
        self.rank = 2 if smoke else 4
        self.height = 6
        # every round, on every seed, has the same operand shapes, so the
        # seed varies the operands but not how much work a round is
        fixed = random.Random(0)
        self.shapes = [[operand_shapes(fixed) for _ in range(3)]
                       for _ in range(5 if smoke else 25)]
        self.rng = random.Random(seed)

    def setup(self):
        self.alg = uqalgebra.Algebra("A", self.rank)
        for w in rootsys.weights_up_to_height(self.alg.rd, self.height):
            self.alg.ws.space(w)
        self.spaces = len(self.alg.ws._spaces)

    def _op(self, texts):
        alg = self.alg
        a, b, c = (exprparse.Evaluator(alg).run(exprparse.parse_expr(t))
                   for t in texts)
        lhs = (a * b) * c
        return lhs == a * (b * c), (texts, a, b, c, lhs)

    def round(self) -> list:
        out = []
        for shapes in self.shapes:
            texts = tuple(operand(self.rng, self.rank, sh) for sh in shapes)
            out.append(_timed(" | ".join(texts),
                              lambda t=texts: self._op(t)))
        return out

    def check(self, ops: list) -> list:
        """No weight space built after set-up, and
        rho((ab)c) = rho(a)rho(b)rho(c) on V (x) V."""
        problems = []
        alg = self.alg
        if len(alg.ws._spaces) != self.spaces:
            problems.append("the timed phase built %d weight spaces"
                            % (len(alg.ws._spaces) - self.spaces))
            self.spaces = len(alg.ws._spaces)
        rho = TensorSquare(self.rank).rho
        for op in ops:
            if op.failed:
                problems.append("%s: (ab)c != a(bc)" % op.label)
                continue
            texts, a, b, c, lhs = op.keep
            if rho(lhs) != mat_mul(mat_mul(rho(a), rho(b)), rho(c)):
                problems.append("%s: rho((ab)c) != rho(a)rho(b)rho(c)"
                                % op.label)
        return problems

    def finish(self) -> list:
        """The hand-written defining relations."""
        problems = []
        alg = self.alg
        for text, rhs in _hand_relations(alg, self.rank):
            lhs = exprparse.Evaluator(alg).run(exprparse.parse_expr(text))
            if lhs != rhs:
                problems.append("relation %s fails" % text)
        return problems


WORKLOADS = {w.name: w for w in (AiiiSuite, CartanFamilies, ProductsWarm)}
