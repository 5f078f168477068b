import itertools
import random

import pytest
from conftest import shared_algebra, shared_params

from qcartan.involutions import gamma_theta
from qcartan.linalg import _accumulate, add_scaled
from qcartan.qfield import q_factorial, q_int, q_power
from qcartan.uqalgebra import Element, lusztig_T_images


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


def _substitute_by_terms(alg, a, f, k, e, anti=False):
    """The per-term substitution: each term's factor images multiplied
    left to right (right to left if anti), K_0 included."""
    out: dict = {}
    for (u, mu, v), c in a.terms.items():
        factors = [f(t) for t in u] + [k(mu)] + [e(t) for t in v]
        acc = alg.scalar(c)
        for g in (reversed(factors) if anti else factors):
            acc = acc * g
        add_scaled(out, acc.terms)
    return Element(alg, out)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("G", 2)])
def test_horner_substitution_matches_per_term(family, rank):
    alg = shared_algebra(family, rank)
    rng = random.Random(23)
    mu = tuple(range(1, rank + 1))
    xs = [alg.zero(), alg.scalar(alg.q + q_int(2)),
          alg.K(mu).scale(alg.q), alg.K(mu) + alg.Ki(1, -1) * alg.E(rank)]
    xs += [_random_element(alg, rng) for _ in range(6)]
    kappa = (lambda t: alg.Ki(t, -1) * alg.E(t), alg.K,
             lambda t: alg.F(t) * alg.Ki(t))
    sigma = (alg.F, lambda nu: alg.K(tuple(-m for m in nu)), alg.E)
    for x in xs:
        assert alg.kappa(x) == _substitute_by_terms(alg, x, *kappa, True)
        assert alg.sigma(x) == _substitute_by_terms(alg, x, *sigma, True)
        for i in range(1, rank + 1):
            for d in (1, -1):
                img = lusztig_T_images(alg, i, d)
                want = _substitute_by_terms(
                    alg, x, lambda t: img[("F", t)],
                    lambda nu: alg.K(alg.rd.reflect(i, nu)),
                    lambda t: img[("E", t)])
                assert alg.lusztig.apply(i, d, x) == want


@pytest.mark.parametrize("pair,n,r",
                         [("AIII", 4, 1), ("BI", 3, 2), ("CII-1", 3, 2)])
def test_completion_expansion_matches_per_term(pair, n, r):
    # the completion's F_i -> B_i expansion on each lift Y_j
    par = shared_params(pair, n, r)
    alg = par.algebra
    ts = gamma_theta(pair, n, r)
    for j in range(1, len(ts.entries) + 1):
        y = par.lift_Y(ts, j)
        assert alg.substitute(y, par.B, alg.K, alg.E) == \
            _substitute_by_terms(alg, y, par.B, alg.K, alg.E)


def test_substitution_makes_one_product_per_prefix(a3, monkeypatch):
    # sigma's images are single generators, so every product is Horner's
    # gen(x) * rest, one per distinct non-empty prefix of the reversed words
    x = (a3.F(1) * a3.F(2) + a3.F(2) * a3.F(1) + a3.F(3)) * \
        a3.K((1, 0, -1)) * (a3.E(1) * a3.E(2) + a3.E(2))
    x = x + a3.E(2) * a3.E(1) + a3.F(3) * a3.E(2) + a3.one()
    prefixes = set()
    for u, mu, v in x.terms:
        word = [("F", t) for t in u] + [("K", mu)] * any(mu) + \
            [("E", t) for t in v]
        word.reverse()
        prefixes.update(tuple(word[:n]) for n in range(1, len(word) + 1))
    calls = []
    mul = a3.mul
    monkeypatch.setattr(a3, "mul", lambda a, b: calls.append(1) or mul(a, b))
    got = a3.sigma(x)
    assert len(calls) == len(prefixes)
    monkeypatch.undo()
    assert got == _substitute_by_terms(
        a3, x, a3.F, lambda nu: a3.K(tuple(-m for m in nu)), a3.E, True)


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
    T = a2.lusztig
    for x in [a2.E(1), a2.E(2), a2.F(1), a2.F(2), a2.Ki(1), a2.K((1, -1))]:
        assert T.apply(1, -1, T.apply(1, +1, x)) == x
        assert T.apply(1, +1, T.apply(1, -1, x)) == x


def _divided(alg, gen, i, s):
    out = alg.one()
    for _ in range(s):
        out = out * gen(i)
    return out.scale(q_factorial(s, alg.rd.d[i - 1]).inverse())


def _explicit_inverse_images(alg, i):
    """T_i^{-1} on E_j and F_j by Lusztig's sums, with the divided-power
    exponents of the T_i sums swapped."""
    qi = alg.q_i(i)
    img = {("E", i): (alg.Ki(i, -1) * alg.F(i)).scale(-1),
           ("F", i): (alg.E(i) * alg.Ki(i)).scale(-1)}
    for j in range(1, alg.rd.rank + 1):
        if j == i:
            continue
        r = -alg.rd.cartan[i - 1][j - 1]
        e = f = alg.zero()
        for s in range(r + 1):
            e = e + (_divided(alg, alg.E, i, s) * alg.E(j)
                     * _divided(alg, alg.E, i, r - s)).scale((-qi ** -1) ** s)
            f = f + (_divided(alg, alg.F, i, r - s) * alg.F(j)
                     * _divided(alg, alg.F, i, s)).scale((-qi) ** s)
        img[("E", j)], img[("F", j)] = e, f
    return img


@pytest.mark.parametrize("family,rank",
                         [("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)])
def test_inverse_images_match_the_explicit_sums(family, rank):
    # lusztig_T_images reads T_i^{-1} as sigma T_i sigma on every generator
    alg = shared_algebra(family, rank)
    for i in range(1, rank + 1):
        assert lusztig_T_images(alg, i, -1) == _explicit_inverse_images(alg, i)


def test_lusztig_braid_a2(a2):
    T = a2.lusztig
    for x in [a2.E(1), a2.F(2), a2.Ki(1), a2.E(2), a2.F(1)]:
        lhs = T.apply(1, 1, T.apply(2, 1, T.apply(1, 1, x)))
        rhs = T.apply(2, 1, T.apply(1, 1, T.apply(2, 1, x)))
        assert lhs == rhs


def test_lusztig_braid_a3(a3):
    T = a3.lusztig
    for x in [a3.E(1), a3.F(3), a3.Ki(2)]:
        assert T.apply(1, 1, T.apply(3, 1, x)) == \
            T.apply(3, 1, T.apply(1, 1, x))
        lhs = T.apply(2, 1, T.apply(3, 1, T.apply(2, 1, x)))
        rhs = T.apply(3, 1, T.apply(2, 1, T.apply(3, 1, x)))
        assert lhs == rhs


def test_lusztig_braid_b2():
    b2 = shared_algebra("B", 2)
    T = b2.lusztig
    for x in [b2.E(1), b2.E(2), b2.F(1)]:
        lhs = T.apply(1, 1, T.apply(2, 1, T.apply(1, 1, T.apply(2, 1, x))))
        rhs = T.apply(2, 1, T.apply(1, 1, T.apply(2, 1, T.apply(1, 1, x))))
        assert lhs == rhs


def test_sigma_conjugation(a2):
    T = a2.lusztig
    for x in [a2.E(1), a2.E(2), a2.F(1), a2.F(2), a2.Ki(1)]:
        assert a2.sigma(T.apply(1, 1, a2.sigma(x))) == T.apply(1, -1, x)


def test_lusztig_is_automorphism(a2):
    T = a2.lusztig
    gens = [a2.E(1), a2.F(2), a2.Ki(1), a2.E(2)]
    for a, b in itertools.product(gens, repeat=2):
        assert T.apply(1, 1, a * b) == T.apply(1, 1, a) * T.apply(1, 1, b)


def test_lusztig_lowest_weight_property(a3):
    # T_w^{-1}(F_1) for w the longest element of the {2,3}-subsystem is a
    # lowest weight vector: (ad F_2)(Y K_beta) = 0 at beta = a1+a2+a3
    T = a3.lusztig
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
