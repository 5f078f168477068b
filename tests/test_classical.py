import random
from fractions import Fraction

import pytest

from qcartan.classical import (bracket, cayley_on_triple, chevalley_matrices,
                               matrix_root_vector, mmul, unit,
                               verify_classical_cartan)
from qcartan.involutions import gamma_theta
from qcartan.linalg import add_scaled
from qcartan.rootsys import build_root_data

REALIZATIONS = [("A", n) for n in range(1, 6)] + \
    [("B", n) for n in range(2, 5)] + [("C", n) for n in range(2, 5)] + \
    [("D", 4)]


def test_sl2_matrix_units():
    e, f, h = chevalley_matrices("A", 1)
    assert e[0] == unit(0, 1)
    assert f[0] == unit(1, 0)
    assert h[0] == add_scaled(unit(0, 0), unit(1, 1), -1)


def _dense(m, size):
    return [[m.get((i, j), 0) for j in range(size)] for i in range(size)]


def _dense_product(a, b):
    size = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(size))
             for j in range(size)] for i in range(size)]


def _random_matrix(rng, size):
    # sparse, with small entries of both signs, so products often cancel
    return {(i, j): Fraction(rng.choice((-2, -1, 1, 3)))
            for i in range(size) for j in range(size) if rng.random() < 0.4}


def test_sparse_product_matches_dense_triple_loop():
    rng = random.Random(20240607)
    cancelled = 0
    for _ in range(300):
        size = rng.randint(1, 6)
        a, b = _random_matrix(rng, size), _random_matrix(rng, size)
        da, db = _dense(a, size), _dense(b, size)
        ab, ba = _dense_product(da, db), _dense_product(db, da)
        assert _dense(mmul(a, b), size) == ab
        assert _dense(bracket(a, b), size) == \
            [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
        for m in (mmul(a, b), mmul(b, a), bracket(a, b)):
            assert all(m.values()), "a zero entry is stored"
        cancelled += any(not x and any(da[i][k] and db[k][j]
                                       for k in range(size))
                         for i, row in enumerate(ab)
                         for j, x in enumerate(row))
    assert cancelled > 20
    # (E_00 - E_01)(E_00 + E_10): its one possible entry cancels
    x = add_scaled(unit(0, 0), unit(0, 1), -1)
    y = {(0, 0): Fraction(1), (1, 0): Fraction(1)}
    assert mmul(x, y) == {} and bracket(x, x) == {}


@pytest.mark.parametrize("family,rank", REALIZATIONS)
def test_serre_presentation(family, rank):
    rd = build_root_data(family, rank)
    e, f, h = chevalley_matrices(family, rank)
    for i in range(rank):
        assert bracket(e[i], f[i]) == h[i]
        for j in range(rank):
            if i == j:
                continue
            assert not bracket(e[i], f[j])
            a = rd.cartan[i][j]
            assert bracket(h[i], e[j]) == add_scaled({}, e[j], a)
            assert bracket(h[i], f[j]) == add_scaled({}, f[j], -a)
            x, y = e[j], f[j]
            for _ in range(1 - a):
                x, y = bracket(e[i], x), bracket(f[i], y)
            assert not x and not y


def test_c2_long_root_action():
    e, f, h = chevalley_matrices("C", 2)
    assert bracket(h[1], e[1]) == add_scaled({}, e[1], 2)


def test_matrix_root_vectors():
    rd = build_root_data("A", 3)
    m = matrix_root_vector("A", 3, rd.weight((1, 1, 0)))
    assert list(m) == [(0, 2)] and abs(m[0, 2]) == 1
    m = matrix_root_vector("A", 3, rd.weight((1, 1, 1)), -1)
    assert list(m) == [(3, 0)] and abs(m[3, 0]) == 1
    assert matrix_root_vector("A", 3, rd.simple(2)) == \
        chevalley_matrices("A", 3)[0][1]
    with pytest.raises(ValueError):
        matrix_root_vector("A", 3, rd.weight((1, 0, 1)))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 4), ("A", 4)])
def test_root_vectors_are_weight_vectors(family, rank):
    rd = build_root_data(family, rank)
    e, f, h = chevalley_matrices(family, rank)
    for beta in rd.positive_roots:
        for sign in (+1, -1):
            m = matrix_root_vector(family, rank, beta, sign)
            for i in range(rank):
                val = sign * rd.pairing(beta, i)
                assert bracket(h[i], m) == add_scaled({}, m, Fraction(val))


CLASSICAL_PAIRS = []
for n in range(1, 6):
    CLASSICAL_PAIRS.append(("AI", n, None))
for n in (3, 5):
    CLASSICAL_PAIRS.append(("AII", n, None))
for n in range(2, 6):
    for r in range(1, (n + 1) // 2 + 1):
        CLASSICAL_PAIRS.append(("AIII", n, r))
for n in range(2, 5):
    for r in range(1, n + 1):
        CLASSICAL_PAIRS.append(("BI", n, r))
    CLASSICAL_PAIRS.append(("CI", n, None))
for n in (3, 4):
    for r in range(2, n, 2):
        CLASSICAL_PAIRS.append(("CII-1", n, r))
CLASSICAL_PAIRS += [("CII-2", 4, None), ("DI-1", 4, 1), ("DI-1", 4, 2),
                    ("DI-2", 4, None), ("DI-3", 4, None), ("DIII-1", 4, None)]


@pytest.mark.parametrize("label,n,r", CLASSICAL_PAIRS)
def test_classical_cartan(label, n, r):
    out = verify_classical_cartan(gamma_theta(label, n, r))
    assert all(out["checks"].values()), out["checks"]


def test_classical_cartan_examples():
    out = verify_classical_cartan(gamma_theta("AIII", 3, 2))
    assert out["checks"]["dimension"]
    assert out["checks"]["theta_fixes_basis"]
    out = verify_classical_cartan(gamma_theta("AI", 2))
    assert out["checks"]["pairwise_commuting"]
    out = verify_classical_cartan(gamma_theta("BI", 3, 3))
    assert out["checks"]["dimension"]


def test_aiii_case3_strong_orthogonality_brackets():
    # the classical content of the uniqueness corollary: f_{-beta_j}
    # commutes with the sl2 triples of strongly orthogonal simple roots
    for n, r in [(3, 2), (4, 2), (5, 3)]:
        ts = gamma_theta("AIII", n, r)
        rd = ts.rd
        e, f, h = chevalley_matrices("A", n)
        for entry in ts.entries:
            if entry.case != 3:
                continue
            fb = matrix_root_vector("A", n, entry.beta, -1)
            for s in rd.strorth_simples(entry.beta):
                assert not bracket(e[s - 1], fb)
                assert not bracket(f[s - 1], fb)


def test_cayley_transform():
    checks = cayley_on_triple()
    assert all(checks.values()), checks
