import gc
import json
import pathlib
import random
import weakref

import pytest
from conftest import recursion_headroom, shared_params

from qcartan.classical import matrix_root_vector
from qcartan.coideal import (CoidealParams, _torus_span, cartan_element,
                             q_comm, specialize_to_matrix,
                             verify_cartan_suite)
from qcartan.exprparse import Evaluator, parse_expr
from qcartan.involutions import build_involution, gamma_theta
from qcartan.linalg import Echelon, kernel_basis, vec_ratio
from qcartan.qfield import ONE, QRat, qvar
from qcartan.uqalgebra import Algebra

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_theta_q_images():
    par = shared_params("AIII", 3, 1)
    alg = par.algebra
    q = alg.q
    got = par.theta_q_FK(1)
    assert got == alg.E(2) * alg.E(3) - (alg.E(3) * alg.E(2)).scale(q ** -1)
    # highest weight vector: killed by ad E_j over pi_theta
    assert alg.ad_E(2, got).is_zero()
    par = shared_params("AIII", 3, 2)
    assert par.theta_q_FK(1) == par.algebra.E(3)
    par = shared_params("AII", 3)
    got = par.theta_q_FK(2)
    alg = par.algebra
    assert alg.ad_E(1, got).is_zero() and alg.ad_E(3, got).is_zero()
    assert {got.ad_weight(t) for t in got.terms} == \
        {alg.rd.weight((1, 1, 1))}
    par = shared_params("BI", 2, 1)
    got = par.theta_q_FK(1)
    assert par.algebra.ad_E(2, got).is_zero()
    assert {got.ad_weight(t) for t in got.terms} == \
        {par.algebra.rd.weight((1, 2))}
    with pytest.raises(ValueError):
        shared_params("AIII", 3, 1).theta_q_FK(2)


def test_generators():
    par = shared_params("AIII", 3, 2)
    alg = par.algebra
    assert par.B(1) == alg.F(1) + alg.E(3) * alg.Ki(1, -1)
    assert par.B(2) == alg.F(2) + alg.E(2) * alg.Ki(2, -1)
    # pi_theta index gives the plain F
    par2 = shared_params("AIII", 5, 2)
    assert par2.B(3) == par2.algebra.F(3)
    # a nonzero s parameter on the allowed middle node
    sigma = qvar() + ONE
    par3 = shared_params("AIII", 3, 2, s={2: sigma})
    assert par3.B(2) == alg.F(2) + alg.E(2) * alg.Ki(2, -1) + \
        alg.Ki(2, -1).scale(sigma)
    with pytest.raises(ValueError):
        shared_params("AIII", 3, 2, s={1: ONE})


def test_q_commutator(a2):
    q = a2.q
    assert q_comm(a2.E(1), a2.F(1), ONE) == \
        (a2.Ki(1) - a2.Ki(1, -1)).scale((q - q ** -1).inverse())
    x = a2.F(1) * a2.E(2)
    assert q_comm(x, x, ONE).is_zero()
    par = shared_params("AIII", 2, 1)
    torus = (a2.K((1, -1)).scale(q ** -1) - a2.K((-1, 1))).scale(
        (q - q ** -1).inverse())
    assert par.h_prime(1) == q_comm(par.B(2), par.B(1), q) - torus


def test_long_completion_without_recursion():
    # the completion expands by Horner's rule, one loop over the factor
    # prefixes; in AII(3) B_1 = F_1, so an 80-letter word is its own image
    par = shared_params("AII", 3)
    alg = par.algebra
    word = (1,) * 80
    target = alg.from_terms([((word, alg.rd.zero(), ()), ONE)])
    with recursion_headroom(50):
        completed = par.complete_to_projection(target)
        image = alg.substitute(target, par.B, alg.K, alg.E)
    assert completed == target
    assert image == target


def test_finished_session_is_freed_without_gc():
    # no reference cycle keeps a finished session's tables alive: the
    # session caches its T_i images as term dicts, not as Elements
    inv = build_involution("AIII", 3, 1)
    par = CoidealParams(inv, Algebra(inv.rd))
    alg = par.algebra
    gc.disable()
    try:
        par.complete_to_projection(alg.F(1) * alg.F(2))
        Evaluator(alg, par).run(parse_expr("T1(B2) + Tinv2(E1 F3)"))
        refs = [weakref.ref(par), weakref.ref(alg)]
        del par, alg
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_t_theta_generators():
    par = shared_params("AIII", 3, 2)
    assert par.t_theta_generators() == [par.algebra.K((1, 0, -1))]


def _rank_one_rhs(alg):
    """Right-hand side of the rank-one Cartan identity in U_q(sl_3)."""
    q = alg.q
    c = (ONE + q).inverse()
    return (alg.F(2) * alg.F(1) - (alg.F(1) * alg.F(2)).scale(q)) \
        + ((alg.E(1) * alg.E(2) - (alg.E(2) * alg.E(1)).scale(q))
           * alg.K((-1, -1))).scale(q ** -2) \
        + (alg.K((-1, -1)) - alg.one()).scale(c) \
        + (alg.F(1) * alg.E(1) * alg.Ki(2, -1)).scale(q ** -1 - q)


def test_section82_identity():
    par = shared_params("AIII", 2, 1)
    alg = par.algebra
    q = alg.q
    B1, B2 = par.B(1), par.B(2)
    K = alg.K((1, -1))
    Kinv = alg.K((-1, 1))
    c = (ONE + q).inverse()
    H = q_comm(B2, B1, q) \
        - (K.scale(q ** -1) - Kinv).scale((q - q ** -1).inverse()) \
        - alg.scalar(c)
    assert H == _rank_one_rhs(alg)


def test_section83_identity():
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
    assert H2 == rhs
    # kappa pairs the extreme parts
    assert vec_ratio(X.terms, alg.kappa(Y).terms) is not None


def test_h_prime_recursion_and_cases():
    par = shared_params("AIII", 3, 2)
    assert par.h_prime(2) == par.B(2)
    par4 = shared_params("AIII", 4, 2)
    alg = par4.algebra
    q = alg.q
    got = par4.h_prime(2)
    torus = (alg.K((0, 1, -1, 0)).scale(q ** -1)
             - alg.K((0, -1, 1, 0))).scale((q - q ** -1).inverse())
    assert got == q_comm(par4.B(3), par4.B(2), q) - torus
    lw, comp = alg.l_weight_min(got)
    assert comp == alg.F(3) * alg.F(2) - (alg.F(2) * alg.F(3)).scale(q)
    with pytest.raises(ValueError):
        par4.h_prime(3)


def test_h_prime_is_built_once_per_session(monkeypatch):
    # H'_j nests H'_{j+1}: with the session's memo, the suite's H'_1..H'_3
    # at n = 5 take two q-commutators per j below the middle, 4 in all
    # (6 when each H'_j rebuilt the ones it nests)
    from qcartan import coideal
    inv = build_involution("AIII", 5, 3)
    par = CoidealParams(inv, Algebra(inv.rd))
    calls = []

    def counted(*args):
        calls.append(args)
        return q_comm(*args)

    monkeypatch.setattr(coideal, "q_comm", counted)
    hps = {j: par.h_prime(j) for j in range(1, 4)}
    assert len(calls) == 4
    assert all(par.h_prime(j) is hps[j] for j in hps)
    assert hps[3] == par.B(3)


def test_completion_and_membership():
    par = shared_params("AIII", 2, 1)
    alg = par.algebra
    q = alg.q
    tgt = alg.F(2) * alg.F(1) - (alg.F(1) * alg.F(2)).scale(q)
    got = par.complete_to_projection(tgt)
    K = alg.K((1, -1))
    expect = q_comm(par.B(2), par.B(1), q) - \
        (K.scale(q ** -1) - alg.K((-1, 1))).scale((q - q ** -1).inverse())
    assert got == expect
    assert par.project(got) == tgt
    assert par.complete_to_projection(alg.F(1)) == par.B(1)
    # F_i for a pi_theta index completes to itself
    par5 = shared_params("AIII", 5, 2)
    assert par5.complete_to_projection(par5.algebra.F(3)) == \
        par5.algebra.F(3)
    assert par.membership(par.B(1))
    assert not par.membership(alg.F(1))
    assert par.membership(K)
    with pytest.raises(ValueError):
        par.complete_to_projection(alg.E(1))


def test_completion_stops_when_the_defect_never_vanishes(monkeypatch):
    # a projection that kills every expansion leaves the defect at the
    # target forever; the loop must give up, not spin
    base = shared_params("AIII", 2, 1)
    par = CoidealParams(base.involution, base.algebra)
    alg = par.algebra
    tgt = alg.F(1)
    monkeypatch.setattr(par, "project",
                        lambda x: tgt if x is tgt else alg.zero())
    with pytest.raises(AssertionError, match="failed to terminate"):
        par.complete_to_projection(tgt)


def test_completion_gives_up_when_the_defect_degree_does_not_drop(
        monkeypatch):
    # the same stuck projection: the first round already leaves the
    # defect's filtration degree where it was, so one substitution is all
    # the loop may make before it refuses
    base = shared_params("AIII", 2, 1)
    par = CoidealParams(base.involution, base.algebra)
    alg = par.algebra
    tgt = alg.F(1)
    monkeypatch.setattr(par, "project",
                        lambda x: tgt if x is tgt else alg.zero())
    calls = []
    substitute = alg.substitute
    monkeypatch.setattr(alg, "substitute",
                        lambda *a: calls.append(a) or substitute(*a))
    with pytest.raises(AssertionError, match="failed to terminate"):
        par.complete_to_projection(tgt)
    assert len(calls) == 1


def test_completion_random_targets():
    rng = random.Random(2026)
    for n in (2, 3, 4):
        par = shared_params("AIII", n, (n + 1) // 2)
        alg = par.algebra
        for _ in range(7):
            word = tuple(rng.randint(1, n)
                         for _ in range(rng.randint(1, 4)))
            target = alg.one()
            for t in word:
                target = target * alg.F(t)
            if target.is_zero():
                continue
            done = par.complete_to_projection(target)
            assert par.project(done) == target
            assert par.membership(done)
            assert not par.membership(target)


def test_lift_cases():
    # case 1
    par = shared_params("AIII", 3, 2)
    ts = gamma_theta("AIII", 3, 2)
    assert par.lift_Y(ts, 2) == par.algebra.F(2)
    # case 3 equals the nested double commutator, normalized
    alg = par.algebra
    q = alg.q
    F = alg.F(2) * alg.F(1) - (alg.F(1) * alg.F(2)).scale(q)
    nested = alg.F(3) * F - (F * alg.F(3)).scale(q)
    assert par.lift_Y(ts, 1) == alg.lex_normalize(nested)
    # case 4 (type-B tail): commutes with nothing extra, specializes to the
    # nested classical bracket up to sign
    parb = shared_params("BI", 2, 1)
    tsb = gamma_theta("BI", 2, 1)
    Y = parb.lift_Y(tsb, 1)
    ratio = vec_ratio(specialize_to_matrix(parb.algebra, Y, "-"),
                      matrix_root_vector("B", 2, tsb.entries[0].beta, -1))
    assert ratio is not None and ratio != 0
    # case 2 and case 5 lifts exist and are weight vectors
    parc = shared_params("CII-1", 3, 2)
    tsc = gamma_theta("CII-1", 3, 2)
    Y5 = parc.lift_Y(tsc, 1)
    assert {Y5.ad_weight(t) for t in Y5.terms} == \
        {tuple(-c for c in tsc.entries[0].beta)}
    parci = shared_params("CI", 2)
    tsci = gamma_theta("CI", 2)
    Y2 = parci.lift_Y(tsci, 1)
    assert {Y2.ad_weight(t) for t in Y2.terms} == \
        {tuple(-c for c in tsci.entries[0].beta)}


def test_lift_commutes_with_strongly_orthogonal():
    par = shared_params("AIII", 4, 2)
    ts = gamma_theta("AIII", 4, 2)
    alg = par.algebra
    for j, entry in enumerate(ts.entries, start=1):
        Y = par.lift_Y(ts, j)
        for s in alg.rd.strorth_simples(entry.beta):
            for g in (alg.E(s), alg.F(s), alg.Ki(s)):
                assert (g * Y - Y * g).is_zero()


def test_lifts_pairwise_commute_and_independent():
    par = shared_params("AIII", 4, 2)
    ts = gamma_theta("AIII", 4, 2)
    alg = par.algebra
    lifts = [par.lift_Y(ts, j) for j in (1, 2)]
    assert (lifts[0] * lifts[1] - lifts[1] * lifts[0]).is_zero()
    # monomials of degree <= 2 in the lifts are linearly independent
    from qcartan.linalg import Echelon
    ech = Echelon()
    monos = [alg.one(), lifts[0], lifts[1], lifts[0] * lifts[0],
             lifts[0] * lifts[1], lifts[1] * lifts[1]]
    for mel in monos:
        assert ech.add(dict(mel.terms))[0]


def test_type_b_pair():
    par = shared_params("BI", 2, 1)
    ts = gamma_theta("BI", 2, 1)
    X, Y = par.type_b_pair(ts.entries[0].beta, 1, 2)
    assert not X.is_zero() and not Y.is_zero()
    assert par.membership(X + Y)
    ratio = vec_ratio(Y.terms, par.algebra.kappa(X).terms)
    assert ratio is not None and ratio != 0
    parb = shared_params("BI", 3, 1)
    tsb = gamma_theta("BI", 3, 1)
    X, Y = parb.type_b_pair(tsb.entries[0].beta, 1, 3)
    assert parb.membership(X + Y)
    assert vec_ratio(Y.terms, parb.algebra.kappa(X).terms) is not None


def test_cartan_element_case1():
    par = shared_params("AIII", 3, 2)
    ts = gamma_theta("AIII", 3, 2)
    rep = cartan_element(par, ts, 2)
    alg = par.algebra
    assert rep.H == par.B(2)
    assert rep.X == alg.E(2) * alg.Ki(2, -1)
    assert rep.C.is_zero()
    assert rep.s_scalar == QRat.from_int(0)
    assert rep.ok(), rep.checks
    # with the s parameter switched on, H = B_2 - s_2
    sigma = qvar()
    pars = shared_params("AIII", 3, 2, s={2: sigma})
    reps = cartan_element(pars, ts, 2)
    assert reps.H == pars.B(2) - pars.algebra.scalar(sigma)
    assert reps.s_scalar == sigma
    assert reps.ok(), reps.checks


def test_cartan_element_n3_matches_worked_example():
    par = shared_params("AIII", 3, 2)
    ts = gamma_theta("AIII", 3, 2)
    alg = par.algebra
    q = alg.q
    rep = cartan_element(par, ts, 1)
    assert rep.ok(), rep.checks
    B = par.B
    inner = q_comm(B(2), B(1), q)
    H2 = q_comm(B(3), inner, q) + B(2) * alg.K((1, 0, -1))
    ratio = vec_ratio(H2.terms, rep.H.terms)
    assert ratio is not None and ratio != 0


def test_cartan_reports_other_families():
    for label, n, r in [("BI", 2, 1), ("BI", 3, 2), ("CI", 2, None),
                        ("CII-1", 3, 2), ("AI", 2, None), ("AI", 4, None),
                        ("G", None, None)]:
        par = shared_params(label, n, r)
        ts = gamma_theta(label, n, r)
        hs = []
        for j in range(1, len(ts.entries) + 1):
            rep = cartan_element(par, ts, j)
            assert rep.ok(), (label, n, r, j, rep.checks)
            hs.append(rep.H)
        for a in range(len(hs)):
            for b in range(a + 1, len(hs)):
                assert (hs[a] * hs[b] - hs[b] * hs[a]).is_zero(), \
                    (label, n, r, a + 1, b + 1)


def _ad_span_by_layers(alg, side, beta, k_start) -> list:
    """The ad-span searched breadth-first, one height layer at a time, each
    new layer trimmed to an independent set in the order it was found."""
    rd = alg.rd
    act = alg.ad_F if side == "-" else alg.ad_E
    layers = {rd.zero(): [k_start]}
    order = [rd.zero()]
    for _ in range(sum(beta)):
        new_order = []
        for w in order:
            for i in range(1, rd.rank + 1):
                nw = w[:i - 1] + (w[i - 1] + 1,) + w[i:]
                if any(a > b for a, b in zip(nw, beta)):
                    continue
                if nw not in layers:
                    layers[nw] = []
                    new_order.append(nw)
                layers[nw].extend(y for x in layers[w] if (y := act(i, x)))
        for nw in new_order:
            ech = Echelon()
            layers[nw] = [x for x in layers[nw] if ech.add(x.terms)[0]]
        order = new_order
    return layers.get(beta, [])


@pytest.mark.parametrize("pair,n,r", [
    ("CII-1", 3, 2), ("BI", 3, 2), ("DIII-1", 4, None), ("G", None, None),
    ("EI", None, None)])
def test_ad_span_matches_layer_search(pair, n, r):
    # the same basis in the same order, which membership tests read
    par = shared_params(pair, n, r)
    alg, rd = par.algebra, par.algebra.rd
    for entry in gamma_theta(pair, n, r).entries:
        nu = rd.fundamental_weights[entry.alpha_beta - 1]
        start = alg.K(tuple(-2 * c for c in nu))
        for side in "-+":
            assert alg.ad_span(side, entry.beta, start) == \
                _ad_span_by_layers(alg, side, entry.beta, start), \
                (entry.beta, side)


def test_case5_membership_goes_through_ad_F_alpha_prime():
    # CII-1(3,2): beta = (1,2,1), alpha = 2, alpha' = 1.  The plain
    # ad-span at beta is 2-dimensional and the alpha'-span a line inside it,
    # so the alpha' step is what tells them apart
    par = shared_params("CII-1", 3, 2)
    ts = gamma_theta("CII-1", 3, 2)
    alg, rd = par.algebra, par.algebra.rd
    j, entry = next((j, e) for j, e in enumerate(ts.entries, start=1)
                    if e.case == 5)
    beta, ab, abp = entry.beta, entry.alpha_beta, entry.alpha_beta_prime
    assert (beta, ab, abp) == ((1, 2, 1), 2, 1)
    nu = rd.fundamental_weights[ab - 1]
    start = alg.K(tuple(-2 * c for c in nu))
    plain = alg.ad_span("-", beta, start)
    rest = tuple(b - a for b, a in zip(beta, rd.simple(abp)))
    through = Echelon()
    for y in alg.ad_span("-", rest, start):
        through.add(alg.ad_F(abp, y).terms)
    assert len(plain) == 2 and len(through) == 1
    assert not through.contains(plain[0].terms)
    shift = tuple(2 * c - b for b, c in zip(beta, nu))
    x = plain[0] * alg.K(shift)
    assert alg.ad_submodule_membership(x, ab, "-")
    assert not alg.ad_submodule_membership(x, ab, "-", abp)
    rep = cartan_element(par, ts, j)
    assert rep.checks["Y_through_ad_F_alpha_prime"]
    assert alg.ad_submodule_membership(rep.Y, ab, "-", abp)
    words = alg.weight_space_elements(beta)
    assert len(words) == 7
    assert not any(alg.ad_submodule_membership(w, ab, "-", abp)
                   for w in words)


def test_specialization_failure_keeps_reason():
    # BI(3,1) is the one pair whose Cartan element fails the q = 1 check
    # (its X part has a pole at q = 1); the report keeps the reason
    par = shared_params("BI", 3, 1)
    ts = gamma_theta("BI", 3, 1)
    rep = cartan_element(par, ts, 1)
    assert rep.checks["specialization_valuations"] is False
    assert "valuation" in rep.scalars["specialization_error"]


def test_deg_f_of_b_words():
    rng = random.Random(5)
    par = shared_params("AIII", 4, 2)
    alg = par.algebra
    for _ in range(20):
        word = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        bw = alg.one()
        for t in word:
            bw = bw * par.B(t)
        if bw.is_zero():
            continue
        assert alg.filtration_degree(bw) == len(word)
        # the coarse biweight expansion: B_J - F_J has l-weights above -beta
        fw = alg.one()
        for t in word:
            fw = fw * alg.F(t)
        diff = bw - fw
        beta = alg.ws.word_weight(word)
        for t in diff.terms:
            lam = alg.ws.word_weight(t[0])
            assert alg.rd.dominance_leq(lam, beta) and lam != beta


def test_suite_odd_ranks():
    for n in (2, 3):
        par = shared_params("AIII", n, (n + 1) // 2)
        ts = gamma_theta("AIII", n, (n + 1) // 2)
        rep = verify_cartan_suite(par, ts)
        flat = {k: v for k, v in rep.items() if isinstance(v, bool)}
        assert all(flat.values()), flat


def test_torus_span_recovers_planted_coefficients():
    # AIII(5,3): T_theta holds K_mu for mu = a_1 - a_5 and a_2 - a_4, and
    # W_1, W_2, W_3 = F_3 lie at the distinct weights beta_1, beta_2, beta_3
    par = shared_params("AIII", 5, 3)
    alg = par.algebra
    q = alg.q
    mu1, mu2 = (1, 0, 0, 0, -1), (0, 1, 0, -1, 0)
    assert all(par.involution.apply(mu) == mu for mu in (mu1, mu2))
    ws = {k: par.w_lowest(k) for k in (1, 2, 3)}
    assert ws[3] == alg.F(3)
    t = {1: alg.K(mu1).scale(q) + alg.scalar(2),
         2: alg.K(mu2).scale(q ** -2 + ONE) - alg.K((1, 1, 0, -1, -1)),
         3: alg.K(tuple(-c for c in mu1)),
         0: alg.K(mu1).scale(3) - alg.one()}
    x = t[0]
    for k, w in ws.items():
        x = x + w * t[k]
    gens = {k: (w, w) for k, w in ws.items()}
    assert _torus_span(par, gens, x) == t
    assert _torus_span(par, {}, t[0]) == {0: t[0]}
    # the solve of check (h): H'_k in place of W_k, in AIII(3,2)
    par3 = shared_params("AIII", 3, 2)
    alg3 = par3.algebra
    t3 = {1: alg3.K((1, 0, -1)).scale(q) + alg3.one(),
          2: alg3.K((-1, 0, 1)), 0: alg3.scalar(q)}
    x3 = t3[0] + par3.h_prime(1) * t3[1] + par3.h_prime(2) * t3[2]
    gens3 = {k: (par3.h_prime(k), par3.w_lowest(k)) for k in (1, 2)}
    assert _torus_span(par3, gens3, x3) == t3


def test_torus_span_refuses_terms_outside():
    par = shared_params("AIII", 5, 3)
    alg = par.algebra
    ws = {k: par.w_lowest(k) for k in (1, 2, 3)}
    gens = {k: (w, w) for k, w in ws.items()}
    mu1, nu = (1, 0, 0, 0, -1), (1, 0, 0, 0, 0)
    assert par.involution.apply(nu) != nu
    x = ws[2] * alg.K(mu1) + ws[3] + alg.one()
    assert _torus_span(par, gens, x) is not None
    for extra in (alg.F(3) * alg.K(nu),           # W_3 K_nu, nu not fixed
                  ws[2] * alg.K(nu),               # W_2 K_nu, nu not fixed
                  alg.F(1) * alg.K(mu1),           # no W at weight a_1
                  alg.K(nu),                       # torus, nu not fixed
                  alg.F(3) * alg.E(1),             # E-word at W_3's weight
                  alg.E(2) * alg.K(mu1),           # E-word in the remainder
                  alg.F(2) * alg.F(3) * alg.F(4)):  # not along W_2
        assert _torus_span(par, gens, x + extra) is None, extra


def _pair_name(label, n, r):
    args = ",".join(str(x) for x in (n, r) if x is not None)
    return "%s(%s)" % (label, args) if args else label


def _cartan_case(label, n, r, j, *marks):
    return pytest.param(label, n, r, j, marks=marks,
                        id="%s-%d" % (_pair_name(label, n, r), j))


def _centralizer_by_e_and_f(alg, beta, subset):
    """The centralizer by its definition: the common kernel of ad E_j and
    ad F_j for every j in subset."""
    rd = alg.rd
    if any(rd.inner(beta, rd.simple(j)) for j in subset):
        return []
    vectors = alg.weight_space_elements(beta)
    columns = [{(g, j, t): c for j in subset
                for g, act in (("E", alg.ad_E), ("F", alg.ad_F))
                for t, c in act(j, x).terms.items()}
               for x in vectors]
    out = []
    for combo in kernel_basis(columns):
        x = alg.zero()
        for idx, c in combo.items():
            x = x + vectors[idx].scale(c)
        out.append(alg.lex_normalize(x))
    return out


@pytest.mark.parametrize("label,n,r", [
    pytest.param(*pair, marks=marks, id=_pair_name(*pair))
    for *pair, marks in (
        ("BI", 3, 2, ()), ("BI", 3, 3, ()), ("CI", 2, None, ()),
        ("CII-1", 3, 2, ()), ("DI-3", 4, None, ()), ("DIII-1", 4, None, ()),
        ("EI", None, None, ()), ("G", None, None, ()),
        ("CII-1", 4, 2, ()), ("CII-2", 4, None, ()), ("DI-1", 4, 2, ()),
        ("DIII-2", 5, None, pytest.mark.slow))])
def test_centralizer_matches_e_and_f_oracle(label, n, r):
    # the kernel of ad E_j alone is the whole centralizer at every case-2
    # and case-5 entry, with the (beta, pi') that lift_Y asks for
    ts = gamma_theta(label, n, r)
    alg = shared_params(label, n, r).algebra
    rd = alg.rd
    asked = 0
    for entry in ts.entries:
        beta, ab = entry.beta, entry.alpha_beta
        if entry.case == 5:
            beta = tuple(b - c for b, c in
                         zip(beta, rd.simple(entry.alpha_beta_prime)))
        elif entry.case != 2:
            continue
        subset = tuple(s for s in sorted(rd.support(beta)) if s != ab)
        got = alg.centralizer_basis(beta, subset)
        assert len(got) == 1
        assert got == _centralizer_by_e_and_f(alg, beta, subset)
        asked += 1
    assert asked == 1


@pytest.mark.parametrize("label,n,r,j", [
    _cartan_case("CII-2", 4, None, 2), _cartan_case("DI-1", 4, 2, 1),
    _cartan_case("DI-2", 4, None, 1), _cartan_case("DI-3", 4, None, 2),
    _cartan_case("DIII-1", 4, None, 2), _cartan_case("DIII-2", 5, None, 2),
    _cartan_case("EI", None, None, 4), _cartan_case("EII", None, None, 4),
    _cartan_case("EIII", None, None, 2), _cartan_case("EV", None, None, 3),
    _cartan_case("EVI", None, None, 4), _cartan_case("EVIII", None, None, 4),
    _cartan_case("FI", None, None, 4),
    _cartan_case("EVII", None, None, 3, pytest.mark.slow),
    _cartan_case("EIX", None, None, 4, pytest.mark.slow),
    _cartan_case("CII-2", 4, None, 1, pytest.mark.slow)])
def test_exceptional_cartan_element(label, n, r, j):
    # one small-beta H_j per label whose full report is long or untested,
    # pinned to the canonical form in tests/golden/cartan_elements.json
    ts = gamma_theta(label, n, r)
    rep = cartan_element(CoidealParams(ts.involution), ts, j)
    assert rep.ok(), rep.checks
    assert rep.Y and rep.X
    want = json.loads((GOLDEN / "cartan_elements.json").read_text())
    assert rep.H.to_json() == want["%s j=%d" % (_pair_name(label, n, r), j)]


@pytest.mark.slow
@pytest.mark.parametrize("label,n,r", [
    pytest.param(*pair, id=_pair_name(*pair))
    for pair in (("CII-1", 4, 2), ("CII-2", 4, None), ("DIII-2", 5, None))])
def test_full_cartan_report(label, n, r):
    # every H_j of the pair with its full report, as `qcartan cartan` runs
    # them; their case-2 lifts build weight spaces of dimension 25 to 55
    ts = gamma_theta(label, n, r)
    par = CoidealParams(ts.involution)
    for j in range(1, len(ts.entries) + 1):
        rep = cartan_element(par, ts, j)
        assert rep.ok(), (j, rep.checks)


def test_golden_h_prime():
    for n in (2, 3):
        par = shared_params("AIII", n, (n + 1) // 2)
        payload = {
            "n": n,
            "h_prime": [par.h_prime(j).to_json()
                        for j in range(1, (n + 1) // 2 + 1)],
        }
        want = json.loads((GOLDEN / ("h_prime_n%d.json" % n)).read_text())
        assert payload == want
    # the n = 2 golden value is the rank-one identity's Cartan element
    # shifted by its constant 1/(1+q)
    par = shared_params("AIII", 2, 1)
    alg = par.algebra
    assert par.h_prime(1) == \
        _rank_one_rhs(alg) + alg.scalar((ONE + alg.q).inverse())
