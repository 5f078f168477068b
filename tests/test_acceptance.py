"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import random

import pytest
from conftest import shared_algebra, shared_params
from pair_cases import ALL_CASES

from qcartan.classical import verify_classical_cartan
from qcartan.coideal import cartan_element, q_comm, verify_cartan_suite
from qcartan.involutions import gamma_theta, verify_theta_system
from qcartan.linalg import Echelon, kernel_basis
from qcartan.qfield import ONE
from qcartan.rootsys import kostant_partition_count, weights_up_to_height


def report(name, ok):
    print("ACCEPTANCE %-34s %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


def test_criterion_01_rank_one_identity():
    par = shared_params("AIII", 2, 1)
    alg = par.algebra
    q = alg.q
    B1, B2 = par.B(1), par.B(2)
    K, Kinv = alg.K((1, -1)), alg.K((-1, 1))
    c = (ONE + q).inverse()
    lhs = B2 * B1 - (B1 * B2).scale(q) \
        - (K.scale(q ** -1) - Kinv).scale((q - q ** -1).inverse()) \
        - alg.scalar(c)
    rhs = (alg.F(2) * alg.F(1) - (alg.F(1) * alg.F(2)).scale(q)) \
        + ((alg.E(1) * alg.E(2) - (alg.E(2) * alg.E(1)).scale(q))
           * alg.K((-1, -1))).scale(q ** -2) \
        + (alg.K((-1, -1)) - alg.one()).scale(c) \
        + (alg.F(1) * alg.E(1) * alg.Ki(2, -1)).scale(q ** -1 - q)
    report("1 rank-one Cartan identity", lhs == rhs)


def test_criterion_02_rank_two_identity():
    par = shared_params("AIII", 3, 2)
    alg = par.algebra
    q = alg.q
    B = par.B
    inner = q_comm(B(2), B(1), q)
    H2 = q_comm(B(3), inner, q) + B(2) * alg.K((1, 0, -1))
    F = alg.F(2) * alg.F(1) - (alg.F(1) * alg.F(2)).scale(q)
    E = alg.E(1) * alg.E(2) - (alg.E(2) * alg.E(1)).scale(q)
    Y = alg.F(3) * F - (F * alg.F(3)).scale(q)
    EE = alg.E(2) * alg.E(3) - (alg.E(3) * alg.E(2)).scale(q)
    X = (alg.E(1) * EE - (EE * alg.E(1)).scale(q)) * alg.K((-1, -1, -1))
    rhs = Y + X - (F * alg.E(1) * alg.Ki(3, -1)).scale(q - q ** -1) \
        - (alg.F(1) * E * alg.Ki(3, -1) * alg.Ki(2, -1)).scale(
            q * (q - q ** -1))
    report("2 rank-two Cartan identity", H2 == rhs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_03_generator_relations(n):
    par = shared_params("AIII", n, (n + 1) // 2)
    alg = par.algebra
    rd = alg.rd
    q = alg.q
    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            p_i, p_j = n - i + 1, n - j + 1
            Bi, Bj = par.B(i), par.B(j)
            if rd.cartan[i - 1][j - 1] == 0:
                rhs = alg.zero()
                if p_i == j:
                    rhs = (alg.Ki(p_i) * alg.Ki(i, -1)
                           - alg.Ki(p_i, -1) * alg.Ki(i)).scale(
                               (q - q ** -1).inverse())
                ok = ok and (Bi * Bj - Bj * Bi == rhs)
            else:
                lhs = Bi * Bi * Bj - (Bi * Bj * Bi).scale(q + q ** -1) \
                    + Bj * Bi * Bi
                if i == p_i:
                    rhs = Bj.scale(q)
                elif i == p_j:
                    rhs = ((alg.Ki(p_i) * alg.Ki(i, -1)).scale(q ** -2)
                           + (alg.Ki(p_i, -1) * alg.Ki(i)).scale(q)) * Bi
                    rhs = rhs.scale(-(q + q ** -1))
                else:
                    rhs = alg.zero()
                ok = ok and (lhs == rhs)
    report("3 generator relations n=%d" % n, ok)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_04_h_prime_commutativity(n):
    par = shared_params("AIII", n, (n + 1) // 2)
    r = (n + 1) // 2
    hp = {j: par.h_prime(j) for j in range(1, r + 1)}
    ok = True
    for j in range(1, r + 1):
        for k in range(j + 1, r + 1):
            ok = ok and (hp[j] * hp[k] - hp[k] * hp[j]).is_zero()
    report("4 nested generators commute n=%d" % n, ok)


def test_criterion_05_theta_system_tables():
    ok = True
    for label, n, r in ALL_CASES:
        rep = verify_theta_system(gamma_theta(label, n, r))
        if not all(rep.values()):
            ok = False
    report("5 structure tables (%d pairs)" % len(ALL_CASES), ok)


def test_criterion_06_classical_cartans():
    cases = []
    for n in range(1, 6):
        cases.append(("AI", n, None))
    for n in (3, 5):
        cases.append(("AII", n, None))
    for n in range(2, 6):
        for r in range(1, (n + 1) // 2 + 1):
            cases.append(("AIII", n, r))
    for n in range(2, 5):
        for r in range(1, n + 1):
            cases.append(("BI", n, r))
        cases.append(("CI", n, None))
        for r in range(2, n, 2):
            cases.append(("CII-1", n, r))
    cases += [("CII-2", 4, None), ("DI-1", 4, 1), ("DI-1", 4, 2),
              ("DI-2", 4, None), ("DI-3", 4, None), ("DIII-1", 4, None)]
    ok = True
    for label, n, r in cases:
        out = verify_classical_cartan(gamma_theta(label, n, r))
        if not all(out["checks"].values()):
            ok = False
    report("6 classical Cartan checks (%d pairs)" % len(cases), ok)


def test_criterion_07_dimension_oracle():
    ok = True
    for fam, n, maxht in [("A", 4, 7), ("B", 2, 5), ("C", 2, 5),
                          ("G", 2, 5)]:
        alg = shared_algebra(fam, n)
        for beta in weights_up_to_height(alg.rd, maxht):
            if len(alg.ws.space(beta)) != \
                    kostant_partition_count(alg.rd, beta):
                ok = False
    report("7 weight-space dimension oracle", ok)


def test_criterion_08_uniqueness_of_lifts():
    ok = True
    for n in range(2, 6):
        r = (n + 1) // 2
        par = shared_params("AIII", n, r)
        alg = par.algebra
        ts = gamma_theta("AIII", n, r)
        for j, entry in enumerate(ts.entries, start=1):
            if entry.case not in (2, 3):
                continue
            supp = sorted(alg.rd.support(entry.beta))
            pi_p = tuple(s for s in supp
                         if s not in (entry.alpha_beta,
                                      entry.alpha_beta_prime))
            basis = alg.centralizer_basis(entry.beta, pi_p)
            nu_idx = entry.alpha_beta
            nu = alg.rd.fundamental_weights[nu_idx - 1]
            shift = tuple(b - 2 * c for b, c in zip(entry.beta, nu))
            span = Echelon()
            for x in alg.ad_span("-", entry.beta,
                                 alg.K(tuple(-2 * c for c in nu))):
                span.add(x.terms)
            cols = [span.residual(dict((x * alg.K(shift)).terms))
                    for x in basis]
            cut = kernel_basis(cols)
            if len(cut) != 1:
                ok = False
                continue
            y = alg.zero()
            for idx, c in cut[0].items():
                y = y + basis[idx].scale(c)
            if alg.lex_normalize(y) != par.lift_Y(ts, j):
                ok = False
        # the AI table at these ranks consists of simple roots only
        tsa = gamma_theta("AI", n)
        if any(e.case in (2, 3) for e in tsa.entries):
            ok = False
    report("8 uniqueness of lower lifts", ok)


def test_criterion_09_symmetry_laws():
    import itertools

    from qcartan.uqalgebra import LusztigT
    a3 = shared_algebra("A", 3)
    q = a3.q
    ok = True
    x = a3.F(2) * a3.F(1) * a3.E(1) * a3.Ki(1)
    ok = ok and a3.kappa(a3.kappa(x)) == x
    gens = [a3.E(1), a3.F(2), a3.Ki(1), a3.E(2) * a3.F(3)]
    for a, b in itertools.product(gens, repeat=2):
        ok = ok and a3.sigma(a * b) == a3.sigma(b) * a3.sigma(a)
    kt = a3.K((1, 0, -1))
    for word in [(1,), (2, 1), (3, 2, 1)]:
        for k in (1, 2, 3):
            m = len(word)
            lhs = a3.kappa(a3.ad_word([("E", i) for i in word],
                                      a3.E(k) * kt))
            rhs = a3.ad_word([("F", i) for i in word],
                             kt * a3.F(k) * a3.Ki(k)).scale((-1) ** m)
            ok = ok and lhs == rhs
    a4 = shared_algebra("A", 4)
    for chain in [(1, 2), (1, 2, 3), (1, 2, 3, 4)]:
        m = len(chain) - 1
        fac = (-(a4.q ** -1)) ** m
        rev = tuple(reversed(chain[1:]))
        lhs = a4.ad_word([("E", i) for i in chain[:-1]], a4.E(chain[-1]))
        rhs = a4.phi(a4.ad_word([("E", i) for i in rev],
                                a4.E(chain[0]))).scale(fac)
        ok = ok and lhs == rhs
        lhs = a4.ad_word([("F", i) for i in chain[:-1]],
                         a4.F(chain[-1]) * a4.Ki(chain[-1]))
        rhs = a4.phi_prime(a4.ad_word(
            [("F", i) for i in rev],
            a4.F(chain[0]) * a4.Ki(chain[0]))).scale(fac)
        ok = ok and lhs == rhs
    T = LusztigT(a3)
    for xg in [a3.E(1), a3.F(2), a3.Ki(1)]:
        lhs = T.apply(1, 1, T.apply(2, 1, T.apply(1, 1, xg)))
        rhs = T.apply(2, 1, T.apply(1, 1, T.apply(2, 1, xg)))
        ok = ok and lhs == rhs
        ok = ok and a3.sigma(T.apply(1, 1, a3.sigma(xg))) == \
            T.apply(1, -1, xg)
        ok = ok and T.apply(1, -1, T.apply(1, 1, xg)) == xg
    report("9 symmetry laws", ok)


def test_criterion_10_completion_roundtrip():
    rng = random.Random(41)
    ok = True
    count = 0
    while count < 20:
        n = rng.choice((2, 3, 4))
        par = shared_params("AIII", n, (n + 1) // 2)
        alg = par.algebra
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4)))
        target = alg.one()
        for t in word:
            target = target * alg.F(t)
        if target.is_zero():
            continue
        count += 1
        done = par.complete_to_projection(target)
        ok = ok and par.project(done) == target
        ok = ok and par.membership(done)
        ok = ok and not par.membership(target)
    report("10 completion and membership", ok)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_11_specialization(n):
    par = shared_params("AIII", n, (n + 1) // 2)
    ts = gamma_theta("AIII", n, (n + 1) // 2)
    rep = verify_cartan_suite(par, ts, deep=False)
    ok = rep["specialization"]
    signs = rep["specialization_signs"]
    ok = ok and all(v is not None for pair in signs.values() for v in pair)
    report("11 specialization at q=1 n=%d" % n, ok)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_12_cartan_structure(n):
    par = shared_params("AIII", n, (n + 1) // 2)
    ts = gamma_theta("AIII", n, (n + 1) // 2)
    ok = True
    for j in range(1, len(ts.entries) + 1):
        rep = cartan_element(par, ts, j)
        if not rep.ok():
            ok = False
    report("12 Cartan element structure n=%d" % n, ok)
