import gc
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from conftest import shared_algebra

import qcartan
from qcartan.coideal import CoidealParams
from qcartan.involutions import build_involution
from qcartan.linalg import Echelon, _accumulate, add_scaled, kernel_basis
from qcartan.qfield import (MEMOS, ONE, QRat, gauss_binomial, q_power,
                            qvar)
from qcartan.rootsys import weights_up_to_height
from qcartan.uqalgebra import Algebra, Element


def test_reduce_serre_to_zero(a2):
    q = a2.q
    x = a2.F(1) * a2.F(1) * a2.F(2) \
        - (a2.F(1) * a2.F(2) * a2.F(1)).scale(q + q ** -1) \
        + a2.F(2) * a2.F(1) * a2.F(1)
    assert x.is_zero()


def test_basis_words(a2):
    assert a2.ws.space((1, 1)) == ((1, 2), (2, 1))
    assert a2.ws.space((2, 1)) == ((1, 1, 2), (1, 2, 1))
    # F2 F1 is its own reduction (a basis word in a 2-dim space)
    assert a2.F(2) * a2.F(1) == a2.from_terms(
        [(((2, 1), a2.rd.zero(), ()), ONE)])


def test_defining_relations(a2):
    q = a2.q
    lhs = a2.E(1) * a2.F(1)
    rhs = a2.F(1) * a2.E(1) + \
        (a2.Ki(1) - a2.Ki(1, -1)).scale((q - q ** -1).inverse())
    assert lhs == rhs
    assert a2.Ki(1) * a2.E(2) == (a2.E(2) * a2.Ki(1)).scale(q ** -1)
    # the exchange identity fixing the q-conventions
    lhs = a2.E(1) * a2.F(1) * a2.Ki(1) \
        - (a2.F(1) * a2.Ki(1) * a2.E(1)).scale(q ** -2)
    rhs = (a2.K((2, 0)) - a2.one()).scale((q - q ** -1).inverse())
    assert lhs == rhs


def test_nonsimply_laced_relation():
    b2 = shared_algebra("B", 2)
    q = b2.q
    # q_2 = q for the short root, q_1 = q^2 for the long one
    lhs = b2.E(1) * b2.F(1)
    rhs = b2.F(1) * b2.E(1) + \
        (b2.Ki(1) - b2.Ki(1, -1)).scale((q ** 2 - q ** -2).inverse())
    assert lhs == rhs


@pytest.mark.parametrize("family, rank", [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_exchange_matches_position_formula(family, rank):
    # E_v F_j - F_j E_v = sum over the positions p with v_p = j of
    # (q^-(a_j, wt v_<p) K_j - q^(a_j, wt v_<p) K_j^-1) E_{v minus p}
    # / (q_j - q_j^-1), with E_{v minus p} formed from E generators only
    alg = shared_algebra(family, rank)
    rd = alg.rd
    for ht in (1, 2, 3):
        for wt in itertools.product(range(ht + 1), repeat=rank):
            if sum(wt) != ht:
                continue
            for v in alg.ws.space(wt):
                e_v = alg.from_terms([(((), rd.zero(), v), ONE)])
                for j in range(1, rank + 1):
                    qj = alg.q_i(j)
                    fac = (qj - qj.inverse()).inverse()
                    want = alg.F(j) * e_v
                    prefix = [0] * rank
                    for p, letter in enumerate(v):
                        if letter == j:
                            ip = rd.inner(rd.simple(j), tuple(prefix))
                            rest = alg.one()
                            for t in v[:p] + v[p + 1:]:
                                rest = rest * alg.E(t)
                            torus = alg.Ki(j).scale(q_power(-ip)) \
                                - alg.Ki(j, -1).scale(q_power(ip))
                            want = want + (torus * rest).scale(fac)
                        prefix[letter - 1] += 1
                    assert e_v * alg.F(j) == want, (v, j)


def test_associativity_random(a2):
    rng = random.Random(42)
    gens = [a2.E(1), a2.E(2), a2.F(1), a2.F(2), a2.Ki(1), a2.Ki(2, -1),
            a2.K((1, -1)), a2.E(1) * a2.F(2) + a2.Ki(2)]
    for _ in range(100):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_dimension_oracle_small():
    from qcartan.rootsys import kostant_partition_count, weights_up_to_height
    for fam, n, h in [("A", 3, 5), ("B", 2, 4), ("G", 2, 4)]:
        alg = shared_algebra(fam, n)
        for beta in weights_up_to_height(alg.rd, h):
            got = len(alg.ws.space(beta))
            assert got == kostant_partition_count(alg.rd, beta)


def _naive_reduce_table(rd, weight):
    """Independent oracle: row-reduce the padded Serre relations over the
    free words of the given weight, pivoting on the lex-greatest word."""
    q = qvar()
    n = rd.rank

    class RevWord(tuple):
        def __lt__(self, other):
            return tuple(self) > tuple(other)

    def words_of(wt):
        letters = []
        for i, c in enumerate(wt):
            letters += [i + 1] * int(c)
        return sorted(set(itertools.permutations(letters)))

    ech = Echelon()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            nn = 1 - rd.cartan[i - 1][j - 1]
            rel = {}
            for s in range(nn + 1):
                w = (i,) * (nn - s) + (j,) + (i,) * s
                coef = gauss_binomial(nn, s, rd.d[i - 1]) * \
                    (ONE if s % 2 == 0 else -ONE)
                rel[w] = rel.get(w, coef * 0) + coef if w in rel else coef
            relwt = [0] * n
            relwt[i - 1] += nn
            relwt[j - 1] += 1
            rem = tuple(a - b for a, b in zip(weight, relwt))
            if any(c < 0 for c in rem):
                continue
            for w1 in words_of(rem):
                for cut in range(len(w1) + 1):
                    vec = {}
                    for w, c in rel.items():
                        key = RevWord(w1[:cut] + w + w1[cut:])
                        vec[key] = vec[key] + c if key in vec else c
                    ech.add(vec)
    return ech


def test_reduction_against_naive_oracle():
    for fam, n, weights in [
            ("A", 3, [(1, 1, 1), (2, 1, 0), (1, 2, 1)]),
            ("B", 2, [(1, 2), (2, 2)]),
            ("G", 2, [(2, 1), (3, 1)])]:
        alg = shared_algebra(fam, n)
        rd = alg.rd
        for wt in weights:
            ech = _naive_reduce_table(rd, wt)
            letters = []
            for i, c in enumerate(wt):
                letters += [i + 1] * c
            for word in set(itertools.permutations(letters)):
                naive = ech.residual({type(next(iter(ech.rows)))(word): ONE}) \
                    if ech.rows else {word: ONE}
                naive = {tuple(k): v for k, v in naive.items()}
                mine = alg.ws.reduce_word(word)
                # compare by pushing the naive basis words through the engine
                acc = {}
                for bw, c in naive.items():
                    for ew, cc in alg.ws.reduce_word(bw).items():
                        acc[ew] = acc.get(ew, c * 0) + c * cc \
                            if ew in acc else c * cc
                acc = {k: v for k, v in acc.items() if v}
                assert acc == {k: v for k, v in mine.items() if v}


def test_ad_action(a2):
    q = a2.q
    assert a2.ad_word([("Ki", 1)], a2.F(2)) == a2.F(2).scale(q)
    lamw = (2, 1)
    coef = ONE - q_power(a2.rd.inner(a2.rd.weight(lamw), a2.rd.simple(1)))
    lhs = a2.ad_F(1, a2.K(tuple(-x for x in lamw)))
    rhs = (a2.F(1) * a2.Ki(1) * a2.K(tuple(-x for x in lamw))).scale(coef)
    assert lhs == rhs
    assert a2.ad_E(1, a2.E(2)) == \
        a2.E(1) * a2.E(2) - (a2.E(2) * a2.E(1)).scale(q ** -1)


def test_ad_walk_takes_one_string_per_letter(a3):
    # each string is as long as |<mu, alpha_j^vee>| at the weight reached:
    # one letter each for (2, 3) from alpha_1, and from -alpha_1 on the
    # F side
    assert a3.ad_walk("+", a3.E(1), (2, 3)) == \
        a3.ad_E(3, a3.ad_E(2, a3.E(1)))
    fk = a3.F(1) * a3.Ki(1)
    assert a3.ad_walk("-", fk, (2, 3)) == a3.ad_F(3, a3.ad_F(2, fk))
    # <alpha_1, alpha_1^vee> = 2 has the wrong sign for an E-string
    with pytest.raises(AssertionError, match="wrong sign"):
        a3.ad_walk("+", a3.E(1), (1,))
    with pytest.raises(ValueError, match="weight vector"):
        a3.ad_walk("+", a3.E(1) + a3.E(2), (3,))


def test_ad_counit_characterizes_commutant(a2):
    # (ad E_i)a = 0, (ad F_i)a = 0, (ad K_i)a = a  iff  a commutes with all
    x = a2.K((1, -1)) * a2.K((-1, 1))  # the identity
    assert a2.ad_E(1, x).is_zero() and a2.ad_F(1, x).is_zero()
    assert a2.ad_word([("Ki", 1)], x) == x


def test_biweight_components(a2):
    q = a2.q
    c = (ONE + q).inverse()
    H = (a2.F(2) * a2.F(1) - (a2.F(1) * a2.F(2)).scale(q)) \
        + ((a2.E(1) * a2.E(2) - (a2.E(2) * a2.E(1)).scale(q))
           * a2.K((-1, -1))).scale(q ** -2) \
        + (a2.K((-1, -1)) - a2.one()).scale(c) \
        + (a2.F(1) * a2.E(1) * a2.Ki(2, -1)).scale(q ** -1 - q)
    comps = a2.biweight_components(H)
    keys = {(tuple(map(int, a)), tuple(map(int, b))) for a, b in comps}
    assert keys == {((-1, -1), (0, 0)), ((0, 0), (1, 1)), ((0, 0), (0, 0)),
                    ((-1, 0), (1, 0))}
    assert sum(comps.values(), a2.zero()) == H
    assert a2.biweight_components(a2.Ki(1, -1)) == \
        {((Fraction(0),) * 2, (Fraction(0),) * 2): a2.Ki(1, -1)}
    single = a2.F(1) * a2.Ki(1) * a2.E(2)
    (key, val), = a2.biweight_components(single).items()
    assert tuple(map(int, key[0])) == (-1, 0)
    assert tuple(map(int, key[1])) == (0, 1)


def test_l_weight_min(a2):
    q = a2.q
    c = (ONE + q).inverse()
    H = (a2.F(2) * a2.F(1) - (a2.F(1) * a2.F(2)).scale(q)) \
        + ((a2.E(1) * a2.E(2) - (a2.E(2) * a2.E(1)).scale(q))
           * a2.K((-1, -1))).scale(q ** -2) \
        + (a2.K((-1, -1)) - a2.one()).scale(c) \
        + (a2.F(1) * a2.E(1) * a2.Ki(2, -1)).scale(q ** -1 - q)
    lw, comp = a2.l_weight_min(H)
    assert tuple(map(int, lw)) == (-1, -1)
    assert comp == a2.F(2) * a2.F(1) - (a2.F(1) * a2.F(2)).scale(q)
    lw, comp = a2.l_weight_min(a2.Ki(1))
    assert tuple(map(int, lw)) == (0, 0)
    # the unique dominance-minimal l-weight of F1 + F2F1
    lw, comp = a2.l_weight_min(a2.F(1) + a2.F(2) * a2.F(1))
    assert tuple(map(int, lw)) == (-1, -1)
    assert comp == a2.F(2) * a2.F(1)
    with pytest.raises(ValueError):
        a2.l_weight_min(a2.zero())


def test_filtration_degree(a2):
    assert a2.filtration_degree(a2.Ki(1, -1)) == 1
    assert a2.filtration_degree(a2.F(1) * a2.Ki(1)) == 0
    assert a2.filtration_degree(a2.E(1)) == 0
    assert a2.filtration_degree(a2.F(1) * a2.F(2)) == 2
    with pytest.raises(ValueError):
        a2.filtration_degree(a2.zero())


def test_projection(a2):
    project = CoidealParams(build_involution("AIII", 2, 1), a2).project
    q = a2.q
    B1 = a2.F(1) + a2.E(2) * a2.Ki(1, -1)
    B2 = a2.F(2) + a2.E(1) * a2.Ki(2, -1)
    assert project(B1) == a2.F(1)
    K = a2.K((1, -1))
    assert project(K) == K
    assert project(a2.Ki(1, -1)).is_zero()
    H1p = B2 * B1 - (B1 * B2).scale(q)
    got = project(H1p)
    expect = a2.F(2) * a2.F(1) - (a2.F(1) * a2.F(2)).scale(q) + \
        (K.scale(q ** -1) - a2.K((-1, 1))).scale((q - q ** -1).inverse())
    assert got == expect
    assert project(got) == got
    # linearity
    x, y = a2.F(1) * a2.E(2), a2.K((1, -1)) * a2.F(2)
    assert project(x + y.scale(q)) == \
        project(x) + project(y).scale(q)


def test_centralizer_basis(a3):
    basis = a3.centralizer_basis((0, 1, 0), ())
    assert len(basis) == 1 and basis[0] == a3.F(2)
    # orthogonality hypotheses satisfied: a case-2-style line in B2
    b2b = shared_algebra("B", 2)
    basis = b2b.centralizer_basis((1, 2), (1,))
    assert len(basis) == 1
    # non-orthogonal subset gives nothing
    assert shared_algebra("A", 2).centralizer_basis((1, 1), (1,)) == []


def test_ad_kernel_zero_column(a3):
    # ad E1 kills F3, so its one column is empty and kernel_basis gives it
    # the int coefficient 1; the kernel vector must still carry a QRat
    # coefficient
    kern = a3.ad_kernel([a3.F(3)], [1])
    assert kern == [a3.F(3)]
    (coeff,) = kern[0].terms.values()
    assert isinstance(coeff, QRat) and coeff == ONE


def test_twisted_commutator_lines(a2):
    # the weight space at alpha1+alpha2 carries unique lines for the
    # one-sided q-commutation conditions F1 Y = q^{+-1} Y F1
    q = a2.q
    vecs = a2.weight_space_elements((1, 1))
    for s, expect_coeff in [(q, -(q ** -1)), (q ** -1, -q)]:
        cols = [dict((a2.F(1) * x - (x * a2.F(1)).scale(s)).terms)
                for x in vecs]
        kern = kernel_basis(cols)
        assert len(kern) == 1
        y = a2.zero()
        for idx, c in kern[0].items():
            y = y + vecs[idx].scale(c)
        y = a2.lex_normalize(y)
        assert y == a2.from_terms([
            (((1, 2), a2.rd.zero(), ()), ONE),
            (((2, 1), a2.rd.zero(), ()), expect_coeff)])


def test_ad_submodule_membership(a2):
    q = a2.q
    x = a2.F(2) * a2.F(1) - (a2.F(1) * a2.F(2)).scale(q)
    assert a2.ad_submodule_membership(x, 1, "-")
    y = a2.F(1) * a2.F(2) - (a2.F(2) * a2.F(1)).scale(q)
    assert not a2.ad_submodule_membership(y, 1, "-")
    assert a2.ad_submodule_membership(a2.zero(), 1, "-")
    with pytest.raises(ValueError):
        a2.ad_submodule_membership(a2.F(1) + a2.F(2), 1, "-")


def test_integral_form(a2):
    q = a2.q
    assert a2.in_integral_form(a2.F(1) + a2.E(2) * a2.Ki(1, -1))
    good = (a2.K((1, -1)).scale(q ** -1) - a2.K((-1, 1))).scale(
        (q - q ** -1).inverse())
    assert a2.in_integral_form(good)
    assert not a2.in_integral_form(a2.Ki(1).scale((q - ONE).inverse()))
    assert not a2.in_integral_form(a2.F(1).scale((q - ONE).inverse()))


def test_serialization(a2):
    x = a2.F(1) * a2.E(2) * a2.K((1, -1)) + a2.one().scale(a2.q)
    js = x.to_json()
    assert set(js) == {"terms"}
    terms = js["terms"]
    assert terms == sorted(terms, key=lambda t: (t["f"], t["k"], t["e"]))
    rebuilt = a2.from_terms(
        [((tuple(t["f"]),
           tuple(Fraction(s) for s in t["k"]),
           tuple(t["e"])), QRat.from_json(t["c"])) for t in terms])
    assert rebuilt == x


@pytest.mark.parametrize("family, rank", [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)])
def test_root_lattice_weights_are_int_tuples(family, rank):
    alg = shared_algebra(family, rank)
    rd = alg.rd

    def ints(w):
        return type(w) is tuple and all(type(c) is int for c in w)

    assert all(ints(beta) for beta in rd.positive_roots)
    assert all(ints(rd.simple(i)) for i in range(1, rank + 1))
    assert ints(rd.zero())
    assert ints(alg.ws.word_weight((1, 2, 1, rank)))
    x = alg.F(2) * alg.E(1) * alg.E(rank) + alg.F(1) * alg.F(2)
    assert all(ints(x.ad_weight(t)) for t in x.terms)
    # weight() keeps a Fraction only for a coordinate off the integers
    assert ints(rd.weight([Fraction(2)] + [0] * (rank - 1)))
    assert type(rd.weight([Fraction(1, 2)] + [0] * (rank - 1))[0]) is Fraction


def test_k_exponent_outside_weight_lattice_raises(a2):
    half = (Fraction(1, 2), 0)
    with pytest.raises(ValueError, match="outside the weight lattice"):
        a2.K(half) * a2.E(2)
    with pytest.raises(ValueError, match="outside the weight lattice"):
        a2.E(2) * a2.K(half)
    x = a2.E(1) * a2.K((Fraction(2, 3), Fraction(1, 3)))
    assert a2.render(x) == "q^-1 K[2/3,1/3] E1"


def test_new_algebra_empties_the_qfield_memos(a2):
    x = a2.E(1) * a2.F(1) * a2.E(1)
    assert x.terms and any(memo.cache_info().currsize for memo in MEMOS)
    Algebra("B", 2)
    assert not any(memo.cache_info().currsize for memo in MEMOS)


_SESSIONS_SCRIPT = """
import contextlib, io, json
from qcartan.cli import main

def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(args)
    return rc, out.getvalue()

verify = ["verify", "all", "--pair", "AIII", "--n", "3", "--json"]
first = run(verify)
run(["cartan", "--pair", "BI", "--n", "3", "--r", "2"])
print(json.dumps([first, run(verify)]))
"""


def test_session_output_does_not_depend_on_earlier_sessions():
    # memos are emptied per Algebra, so an earlier session's entries cannot
    # reach a later one; run in a fresh process so the first run is first
    src = os.path.dirname(os.path.dirname(qcartan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _SESSIONS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    first, later = json.loads(proc.stdout)
    assert first[0] == 0 and first == later
    assert json.loads(first[1])["cartan_suite"]


# -- the letter-by-letter product, kept as the oracle of Algebra.mul ----------

def _oracle_times_F(alg, terms, j):
    rd, ws = alg.rd, alg.ws
    alpha = rd.simple(j)
    out = {}
    for (u, mu, v), c in terms.items():
        base = c * q_power(-rd.inner(mu, alpha))
        for b, cb in ws.reduce_word(u + (j,)).items():
            _accumulate(out, (b, mu, v), base * cb)
        a_v, b_v = ws.commutator(j, v)
        ca = -c * q_power(rd.inner(alpha, ws.word_weight(v))
                          - rd.inner(alpha, alpha))
        mu_a = tuple(m - a for m, a in zip(mu, alpha))
        for w, cw in a_v.items():
            _accumulate(out, (u, mu_a, w), ca * cw)
        mu_b = tuple(m + a for m, a in zip(mu, alpha))
        for w, cw in b_v.items():
            _accumulate(out, (u, mu_b, w), -c * cw)
    return out


def _oracle_times_K(alg, terms, nu, coeff):
    out = {}
    for (u, mu, v), c in terms.items():
        fac = q_power(-alg.rd.inner(nu, alg.ws.word_weight(v)))
        _accumulate(out, (u, tuple(m + x for m, x in zip(mu, nu)), v),
                    c * fac * coeff)
    return out


def _oracle_times_E(alg, terms, k):
    out = {}
    for (u, mu, v), c in terms.items():
        for b, cb in alg.ws.reduce_word(v + (k,)).items():
            _accumulate(out, (u, mu, b), c * cb)
    return out


def _oracle_mul(alg, a_terms, b_terms):
    total = {}
    for (u2, mu2, v2), c2 in b_terms.items():
        cur = a_terms
        for j in u2:
            cur = _oracle_times_F(alg, cur, j)
        cur = _oracle_times_K(alg, cur, mu2, c2)
        for k in v2:
            cur = _oracle_times_E(alg, cur, k)
        for t, c in cur.items():
            _accumulate(total, t, c)
    return total


def _oracle_factor(alg, rng):
    """1-3 terms, each at most two F's, one K and two E's, multiplied out
    by the oracle so that its words are basis words."""
    n = alg.rd.rank
    terms = {}
    for _ in range(rng.randint(1, 3)):
        term = {((), alg.rd.zero(), ()): q_power(rng.randint(-2, 2))
                * QRat.coerce(rng.choice([1, -1, 2, 3]))}
        letters = [alg.F(rng.randint(1, n)) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            letters.append(alg.Ki(rng.randint(1, n), rng.choice([1, -1])))
        letters += [alg.E(rng.randint(1, n)) for _ in range(rng.randint(0, 2))]
        for g in letters:
            term = _oracle_mul(alg, term, g.terms)
        add_scaled(terms, term)
    return terms


@pytest.mark.parametrize("family, rank", [
    ("A", 3), ("B", 2), ("C", 3), ("G", 2)])
def test_product_matches_letter_by_letter_oracle(family, rank):
    alg = shared_algebra(family, rank)
    ws = alg.ws
    rng = random.Random("%s%d" % (family, rank))
    with_e = 0
    for _ in range(40):
        a, b = _oracle_factor(alg, rng), _oracle_factor(alg, rng)
        with_e += any(v for _, _, v in a)
        got = alg.mul(Element(alg, a), Element(alg, b)).terms
        assert got == _oracle_mul(alg, a, b)
        # every word of the result is a basis word of its weight
        for u, _, v in got:
            assert u in ws.space(ws.word_weight(u))
            assert v in ws.space(ws.word_weight(v))
    assert with_e >= 10


def _shared_prefix_factor(alg, rng, pool):
    """3-6 terms whose F- and E-words are basis words drawn from `pool`, so
    that F-words recur and share prefixes, each at a K-shift in
    {-1, 0, 1}^rank."""
    n = alg.rd.rank
    return {(rng.choice(pool), tuple(rng.randint(-1, 1) for _ in range(n)),
             rng.choice(pool)):
            q_power(rng.randint(-2, 2)) * QRat.coerce(rng.choice([1, -2, 3]))
            for _ in range(rng.randint(3, 6))}


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 2), ("G", 2)])
def test_product_forms_each_F_prefix_once(monkeypatch, family, rank):
    # mul forms a * F_p once per distinct prefix p of b's F-words, and
    # agrees with the letter-by-letter oracle, which redoes every prefix
    # for every term of b
    alg = Algebra(family, rank)
    ws = alg.ws
    pool = [w for beta in weights_up_to_height(alg.rd, 3)
            for w in ws.space(beta)] + [()]
    rng = random.Random("prefix %s%d" % (family, rank))
    calls = []
    times_F = alg._times_F

    def counted(terms, j):
        calls.append(j)
        return times_F(terms, j)

    monkeypatch.setattr(alg, "_times_F", counted)
    shared = 0
    for _ in range(25):
        a = _shared_prefix_factor(alg, rng, pool)
        b = _shared_prefix_factor(alg, rng, pool)
        del calls[:]
        got = alg.mul(Element(alg, a), Element(alg, b)).terms
        assert got == _oracle_mul(alg, a, b)
        prefixes = {u[:k] for u, _, _ in b for k in range(1, len(u) + 1)}
        assert len(calls) == len(prefixes)
        shared += len(prefixes) < sum(len(u) for u, _, _ in b)
    assert shared >= 5


def test_session_memos_die_with_their_algebra():
    # the product's memos are built over the session's root data and
    # weight spaces and hold no Element, so no reference cycle keeps a
    # finished session, or its memos, alive until a full gc
    gc.disable()
    try:
        alg = Algebra("B", 2)
        x = alg.E(2) * alg.K((1, -1)) * alg.E(1) * alg.F(1) * alg.F(2)
        memos = (alg._exchange, alg._k_shift, alg._k_past_e)
        assert x.terms and all(m.cache_info().currsize for m in memos)
        del memos
        ref = weakref.ref(alg)
        del alg, x
        assert ref() is None
    finally:
        gc.enable()


def test_from_terms_reduces_free_words(a2):
    # F2F2F1 and E2E1E1 are not basis words: the bases at 2a2 + a1 and
    # 2a1 + a2 are the lex-least words 122, 212 and 112, 121
    assert a2.ws.space((1, 2)) == ((1, 2, 2), (2, 1, 2))
    assert a2.ws.space((2, 1)) == ((1, 1, 2), (1, 2, 1))
    free = a2.from_terms([(((2, 2, 1), a2.rd.zero(), (2, 1, 1)), ONE)])
    want = a2.one()
    for g in [a2.F(2), a2.F(2), a2.F(1), a2.E(2), a2.E(1), a2.E(1)]:
        want = want * g
    assert free == want
    assert len(free.terms) == 4
