from fractions import Fraction

import pytest

from qcartan.classical import (bracket, cayley_on_triple, chevalley_matrices,
                               is_zero, matrix_root_vector, mscale, msub,
                               unit, verify_classical_cartan)
from qcartan.involutions import gamma_theta
from qcartan.rootsys import build_root_data

REALIZATIONS = [("A", n) for n in range(1, 6)] + \
    [("B", n) for n in range(2, 5)] + [("C", n) for n in range(2, 5)] + \
    [("D", 4)]


def test_sl2_matrix_units():
    e, f, h = chevalley_matrices("A", 1)
    assert e[0] == unit(2, 0, 1)
    assert f[0] == unit(2, 1, 0)
    assert h[0] == msub(unit(2, 0, 0), unit(2, 1, 1))


@pytest.mark.parametrize("family,rank", REALIZATIONS)
def test_serre_presentation(family, rank):
    rd = build_root_data(family, rank)
    e, f, h = chevalley_matrices(family, rank)
    for i in range(rank):
        assert is_zero(msub(bracket(e[i], f[i]), h[i]))
        for j in range(rank):
            if i == j:
                continue
            assert is_zero(bracket(e[i], f[j]))
            a = rd.cartan[i][j]
            assert is_zero(msub(bracket(h[i], e[j]), mscale(e[j], a)))
            assert is_zero(msub(bracket(h[i], f[j]), mscale(f[j], -a)))
            x, y = e[j], f[j]
            for _ in range(1 - a):
                x, y = bracket(e[i], x), bracket(f[i], y)
            assert is_zero(x) and is_zero(y)


def test_c2_long_root_action():
    e, f, h = chevalley_matrices("C", 2)
    assert is_zero(msub(bracket(h[1], e[1]), mscale(e[1], 2)))


def test_matrix_root_vectors():
    rd = build_root_data("A", 3)
    m = matrix_root_vector("A", 3, rd.weight((1, 1, 0)))
    nz = [(i, j) for i in range(4) for j in range(4) if m[i][j]]
    assert nz == [(0, 2)] and abs(m[0][2]) == 1
    m = matrix_root_vector("A", 3, rd.weight((1, 1, 1)), -1)
    nz = [(i, j) for i in range(4) for j in range(4) if m[i][j]]
    assert nz == [(3, 0)] and abs(m[3][0]) == 1
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
                assert is_zero(msub(bracket(h[i], m),
                                    mscale(m, Fraction(val))))


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
                assert is_zero(bracket(e[s - 1], fb))
                assert is_zero(bracket(f[s - 1], fb))


def test_cayley_transform():
    checks = cayley_on_triple()
    assert all(checks.values()), checks
