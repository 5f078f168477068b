"""Products of the engine against the benchmark's V (x) V oracle.

`bench/oracle.py` maps an element of U_q(sl_{n+1}) to its exact matrix on
V (x) V at q = 2, reading only the terms and coefficients of the element.
So rho(ab) = rho(a) rho(b) checks the normal-form product independently of
the engine's own tables.  Importing it here also keeps the names the
benchmark reads from the engine (such as `Algebra.npow`) in working order.
"""

import os
import random
import sys

import pytest

from qcartan.qfield import ONE
from qcartan.uqalgebra import Algebra, Element

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

from oracle import TensorSquare, mat_mul  # noqa: E402


def _random_element(alg, rng):
    """A sum of two monomials in E_i, F_i, K_i^{+-1} with small coefficients."""
    n = alg.rd.rank
    out = alg.zero()
    for _ in range(2):
        mono = alg.scalar(rng.randint(1, 3)).scale(alg.q ** rng.randint(-1, 1))
        for _ in range(rng.randint(1, 3)):
            kind, i = rng.choice("EFK"), rng.randint(1, n)
            gen = alg.Ki(i, rng.choice((1, -1))) if kind == "K" else \
                (alg.E(i) if kind == "E" else alg.F(i))
            mono = mono * gen
        out = out + mono
    return out


@pytest.mark.parametrize("rank", [2, 3])
def test_products_match_tensor_square(rank):
    rng = random.Random(1000 + rank)
    alg = Algebra("A", rank)
    rho = TensorSquare(rank).rho
    for _ in range(10):
        a, b = _random_element(alg, rng), _random_element(alg, rng)
        assert rho(a * b) == mat_mul(rho(a), rho(b))


def test_oracle_sees_a_wrong_coefficient():
    # E_1 F_1 = F_1 E_1 + (K_1 - K_1^{-1})/(q - q^{-1}); changing any one
    # coefficient of that normal form by 1 breaks rho(E_1) rho(F_1)
    alg = Algebra("A", 2)
    rho = TensorSquare(2).rho
    ef = alg.E(1) * alg.F(1)
    expected = mat_mul(rho(alg.E(1)), rho(alg.F(1)))
    assert rho(ef) == expected and len(ef.terms) == 3
    for t, c in ef.terms.items():
        bad = dict(ef.terms)
        bad[t] = c + ONE
        assert rho(Element(alg, bad)) != expected
