import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcartan.qfield import (ONE, QRat, ZERO, format_qrat, gauss_binomial,
                            q_int, q_power, qvar)

q = qvar()


def rand_qrat(rng, deg=4):
    num = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, deg)))
    den = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, deg)))
    if not any(num):
        num = (1,)
    if not any(den):
        den = (1, 1)
    return QRat(num, den)


def test_gcd_normalization():
    assert (q ** 2 - ONE) / (q - ONE) == q + ONE
    assert format_qrat((q ** 2 - ONE) / (q - ONE)) == "q + 1"


def test_field_inverse():
    a = q - q ** -1
    assert a * a.inverse() == ONE


def test_inverse_times_poly():
    assert (ONE - q ** 2) / (q - q ** -1) == -q


def test_canonical_idempotent():
    raw = QRat((0, 2, 2), (0, 0, -4))
    again = QRat(raw.num, raw.den)
    assert raw == again
    assert raw.den[-1] > 0


def test_distributivity_and_evaluation():
    rng = random.Random(20260810)
    x = Fraction(3, 2)

    def regular(*vals):
        try:
            return [v.eval_at(x) for v in vals]
        except ZeroDivisionError:
            return None

    for _ in range(200):
        a, b = rand_qrat(rng), rand_qrat(rng)
        c = rand_qrat(rng)
        assert (a + b) * c == a * c + b * c
        for got, ref in ((a + b, lambda x, y: x + y),
                         (a - b, lambda x, y: x - y),
                         (a * b, lambda x, y: x * y)):
            vals = regular(a, b, got)
            if vals is None:
                continue
            av, bv, gv = vals
            assert gv == ref(av, bv)
        vals = regular(a, b)
        if vals and vals[1]:
            div = regular(a / b)
            if div is not None:
                assert div[0] == vals[0] / vals[1]


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_substitute_inverse_examples():
    assert (q + q ** -1).substitute_inverse() == q + q ** -1
    assert (q ** 2).substitute_inverse() == q ** -2
    z = (ONE - q) / (ONE + q)
    assert z.substitute_inverse() == (q - ONE) / (q + ONE)
    # evaluation oracle: x(1/v) at v=2 equals x at v=1/2
    assert z.substitute_inverse().eval_at(2) == z.eval_at(Fraction(1, 2))


def test_substitute_inverse_involution():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_qrat(rng)
        assert a.substitute_inverse().substitute_inverse() == a


def test_eval_at_one():
    assert ((q ** 2 - q) / (q - ONE)).eval_at_one() == (0, Fraction(1))
    assert (q - q ** -1).inverse().eval_at_one() == (-1, None)
    assert ((ONE + q) * (q - ONE) ** 2).eval_at_one() == (2, Fraction(0))


def test_eval_at_one_order_multiplicative():
    rng = random.Random(11)
    for _ in range(60):
        a, b = rand_qrat(rng), rand_qrat(rng)
        assert (a * b).eval_at_one()[0] == \
            a.eval_at_one()[0] + b.eval_at_one()[0]


def test_gauss_binomial_values():
    assert gauss_binomial(2, 1) == q + q ** -1
    assert gauss_binomial(5, 0) == ONE
    assert gauss_binomial(3, 1) == q ** 2 + ONE + q ** -2


def test_gauss_binomial_recurrence_oracle():
    # product formula against the Pascal-type recurrence in q^d
    for d in (1, 2):
        qd = q ** d
        for m in range(1, 7):
            for k in range(m + 1):
                recur = ZERO
                if k == 0 or k == m:
                    recur = ONE
                else:
                    recur = gauss_binomial(m - 1, k - 1, d) * qd ** (m - k) \
                        + gauss_binomial(m - 1, k, d) * qd ** (-k)
                assert gauss_binomial(m, k, d) == recur
                assert gauss_binomial(m, k, d) == gauss_binomial(m, m - k, d)


def test_gauss_binomial_range_error():
    with pytest.raises(ValueError):
        gauss_binomial(3, 4)
    with pytest.raises(ValueError):
        gauss_binomial(3, -1)


def test_fractional_power_guard():
    assert q_power(Fraction(4, 2)) == QRat.v_power(2)
    with pytest.raises(ValueError):
        q_power(Fraction(1, 2))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
       st.lists(st.integers(-9, 9), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_roundtrip_json(numc, denc):
    if not any(denc):
        denc = [1]
    if not any(numc):
        numc = [0]
    a = QRat(tuple(numc), tuple(denc))
    assert QRat.from_json(a.to_json()) == a


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=50, deadline=None)
def test_q_power_additivity(a, b):
    assert q_power(a) * q_power(b) == q_power(a + b)


def test_q_int_symmetry():
    for m in range(1, 6):
        assert q_int(m).substitute_inverse() == q_int(m)
