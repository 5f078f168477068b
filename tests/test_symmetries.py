import itertools
import random

import pytest
from conftest import shared_algebra

from qcartan.linalg import _accumulate
from qcartan.qfield import q_int, q_power
from qcartan.uqalgebra import Element, LusztigT

_LUSZTIG = {}


def lusztig(alg):
    if alg.rd not in _LUSZTIG:
        _LUSZTIG[alg.rd] = LusztigT(alg)
    return _LUSZTIG[alg.rd]


def test_kappa_on_generators(a2):
    assert a2.kappa(a2.E(1)) == a2.F(1) * a2.Ki(1)
    assert a2.kappa(a2.F(1)) == a2.Ki(1, -1) * a2.E(1)
    assert a2.kappa(a2.K((1, -1))) == a2.K((1, -1))


def test_kappa_involution(a2):
    for x in [a2.F(2) * a2.F(1) * a2.E(1) * a2.Ki(1),
              a2.E(1) * a2.E(2) + a2.F(1) * a2.Ki(2, -1)]:
        assert a2.kappa(a2.kappa(x)) == x


def test_kappa_antihomomorphism(a2):
    gens = [a2.E(1), a2.F(2), a2.Ki(1), a2.E(2) * a2.F(1), a2.K((1, -1))]
    for a, b in itertools.product(gens, repeat=2):
        assert a2.kappa(a * b) == a2.kappa(b) * a2.kappa(a)
        assert a2.sigma(a * b) == a2.sigma(b) * a2.sigma(a)


def test_sigma_on_generators(a2):
    assert a2.sigma(a2.Ki(1) * a2.E(2)) == a2.E(2) * a2.Ki(1, -1)
    assert a2.sigma(a2.E(1)) == a2.E(1)
    assert a2.sigma(a2.F(1)) == a2.F(1)


def test_phi_maps(a2):
    q = a2.q
    gens = [a2.E(1), a2.F(2), a2.Ki(1), a2.F(1) * a2.E(2)]
    for a, b in itertools.product(gens, repeat=2):
        assert a2.phi(a * b) == a2.phi(a) * a2.phi(b)
        assert a2.phi_prime(a * b) == a2.phi_prime(a) * a2.phi_prime(b)
    assert a2.phi(a2.one().scale(q)) == a2.one().scale(q ** -1)
    assert a2.phi(a2.Ki(1)) == a2.Ki(1, -1)
    assert a2.phi_prime(a2.F(1) * a2.Ki(1)) == a2.F(1) * a2.Ki(1)
    assert a2.phi_prime(a2.Ki(1, -1) * a2.E(1)) == a2.Ki(1, -1) * a2.E(1)


def _phi_prime_closed_form(alg, a):
    """phi' term by term: F_u K_mu E_v goes to
    q^(-2 sum_{t<s} (a_{u_t}, a_{u_s}) + 2 sum_{t<s} (a_{v_s}, a_{v_t}))
    F_u K_{2 wt(u) - mu - 2 wt(v)} E_v, its coefficient at q^{-1}."""
    rd = alg.rd
    out = {}
    for (u, mu, v), c in a.terms.items():
        fac = 0
        for s in range(1, len(u)):
            for t in range(s):
                fac -= 2 * rd.inner(rd.simple(u[t]), rd.simple(u[s]))
        for s in range(1, len(v)):
            for t in range(s):
                fac += 2 * rd.inner(rd.simple(v[s]), rd.simple(v[t]))
        lam_u, lam_v = alg.ws.word_weight(u), alg.ws.word_weight(v)
        mu2 = tuple(2 * x - m - 2 * y for x, m, y in zip(lam_u, mu, lam_v))
        _accumulate(out, (u, mu2, v), c.substitute_inverse() * q_power(fac))
    return Element(alg, out)


def _random_element(alg, rng, terms=3, length=3):
    n = alg.rd.rank
    gens = [g for i in range(1, n + 1)
            for g in (alg.E(i), alg.F(i), alg.Ki(i), alg.Ki(i, -1))]
    out = alg.zero()
    for _ in range(terms):
        x = alg.scalar(q_power(rng.randint(-2, 2)) + q_int(rng.randint(1, 3)))
        for _ in range(rng.randint(0, length)):
            x = x * rng.choice(gens)
        out = out + x
    return out


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_phi_prime_matches_closed_form(family, rank):
    alg = shared_algebra(family, rank)
    rng = random.Random(17)
    for _ in range(25):
        x = _random_element(alg, rng)
        assert alg.phi_prime(x) == _phi_prime_closed_form(alg, x)
    q = alg.q
    assert alg.phi_prime(alg.scalar(q)) == alg.scalar(q ** -1)
    for i in range(1, rank + 1):
        fk, ke = alg.F(i) * alg.Ki(i), alg.Ki(i, -1) * alg.E(i)
        assert alg.phi_prime(fk) == fk and alg.phi_prime(ke) == ke
        assert alg.phi_prime(alg.Ki(i)) == alg.Ki(i, -1)
    for _ in range(10):
        a, b = _random_element(alg, rng, 2, 2), _random_element(alg, rng, 2, 2)
        assert alg.phi_prime(a * b) == alg.phi_prime(a) * alg.phi_prime(b)
        assert alg.phi_prime(alg.phi_prime(a)) == a


def test_kappa_ad_chain_identity(a3):
    # kappa((ad E_{i1}..E_{im}) E_k K) = (-1)^m (ad F_{i1}..F_{im})(K F_k K_k)
    kt = a3.K((1, 0, -1))
    for word in [(1,), (2, 1), (1, 2), (3, 2, 1), (2, 3, 1)]:
        for k in (1, 2, 3):
            m = len(word)
            lhs = a3.kappa(a3.ad_word([("E", i) for i in word],
                                      a3.E(k) * kt))
            rhs = a3.ad_word([("F", i) for i in word],
                             kt * a3.F(k) * a3.Ki(k)).scale((-1) ** m)
            assert lhs == rhs


def test_adjacent_chain_identities(a4):
    # under the weight conventions here the adjacent-chain identities carry
    # the scalar (-1/q)^m on both the E- and the FK-side
    q = a4.q
    for chain in [(1, 2), (2, 3), (1, 2, 3), (2, 3, 4), (1, 2, 3, 4),
                  (4, 3, 2, 1)]:
        m = len(chain) - 1
        fac = (-(q ** -1)) ** m
        rev = tuple(reversed(chain[1:]))
        lhs = a4.ad_word([("E", i) for i in chain[:-1]], a4.E(chain[-1]))
        rhs = a4.phi(a4.ad_word([("E", i) for i in rev],
                                a4.E(chain[0]))).scale(fac)
        assert lhs == rhs
        lhs = a4.ad_word([("F", i) for i in chain[:-1]],
                         a4.F(chain[-1]) * a4.Ki(chain[-1]))
        rhs = a4.phi_prime(a4.ad_word([("F", i) for i in rev],
                                      a4.F(chain[0]) * a4.Ki(chain[0]))
                           ).scale(fac)
        assert lhs == rhs


def test_lusztig_inverse(a2):
    T = lusztig(a2)
    for x in [a2.E(1), a2.E(2), a2.F(1), a2.F(2), a2.Ki(1), a2.K((1, -1))]:
        assert T.apply(1, -1, T.apply(1, +1, x)) == x
        assert T.apply(1, +1, T.apply(1, -1, x)) == x


def test_lusztig_braid_a2(a2):
    T = lusztig(a2)
    for x in [a2.E(1), a2.F(2), a2.Ki(1), a2.E(2), a2.F(1)]:
        lhs = T.apply(1, 1, T.apply(2, 1, T.apply(1, 1, x)))
        rhs = T.apply(2, 1, T.apply(1, 1, T.apply(2, 1, x)))
        assert lhs == rhs


def test_lusztig_braid_a3(a3):
    T = lusztig(a3)
    for x in [a3.E(1), a3.F(3), a3.Ki(2)]:
        assert T.apply(1, 1, T.apply(3, 1, x)) == \
            T.apply(3, 1, T.apply(1, 1, x))
        lhs = T.apply(2, 1, T.apply(3, 1, T.apply(2, 1, x)))
        rhs = T.apply(3, 1, T.apply(2, 1, T.apply(3, 1, x)))
        assert lhs == rhs


def test_lusztig_braid_b2():
    b2 = shared_algebra("B", 2)
    T = lusztig(b2)
    for x in [b2.E(1), b2.E(2), b2.F(1)]:
        lhs = T.apply(1, 1, T.apply(2, 1, T.apply(1, 1, T.apply(2, 1, x))))
        rhs = T.apply(2, 1, T.apply(1, 1, T.apply(2, 1, T.apply(1, 1, x))))
        assert lhs == rhs


def test_sigma_conjugation(a2):
    T = lusztig(a2)
    for x in [a2.E(1), a2.E(2), a2.F(1), a2.F(2), a2.Ki(1)]:
        assert a2.sigma(T.apply(1, 1, a2.sigma(x))) == T.apply(1, -1, x)


def test_lusztig_is_automorphism(a2):
    T = lusztig(a2)
    gens = [a2.E(1), a2.F(2), a2.Ki(1), a2.E(2)]
    for a, b in itertools.product(gens, repeat=2):
        assert T.apply(1, 1, a * b) == T.apply(1, 1, a) * T.apply(1, 1, b)


def test_lusztig_lowest_weight_property(a3):
    # T_w^{-1}(F_1) for w the longest element of the {2,3}-subsystem is a
    # lowest weight vector: (ad F_2)(Y K_beta) = 0 at beta = a1+a2+a3
    T = lusztig(a3)
    word = a3.rd.longest_word((2, 3))
    Y = T.apply_word(word, a3.F(1), direction=-1)
    beta = a3.rd.weight((1, 1, 1))
    YK = Y * a3.K(beta)
    assert a3.ad_F(2, YK).is_zero()
    assert {Y.ad_weight(t) for t in Y.terms} == \
        {tuple(-c for c in beta)}
    # and agrees with the nested q-commutator form up to normalization
    q = a3.q
    inner = a3.F(2) * a3.F(1) - (a3.F(1) * a3.F(2)).scale(q)
    nested = a3.F(3) * inner - (inner * a3.F(3)).scale(q)
    assert a3.lex_normalize(Y) == a3.lex_normalize(nested)
