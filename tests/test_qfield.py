import random
from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcartan import qfield
from qcartan.qfield import (MEMOS, ONE, QRat, ZERO, _trim, clear_memos,
                            format_qrat, gauss_binomial, padd, pcontent,
                            pdivexact, pgcd, pmul, q_int, q_power, qvar)

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
    with pytest.raises(ZeroDivisionError):
        ZERO / ZERO


def test_inverse_is_the_canonical_swap():
    rng = random.Random(20261019)
    negative_lead = 0
    for _ in range(300):
        x = rand_qrat(rng)
        if not x:
            continue
        negative_lead += x.num[-1] < 0
        inv = x.inverse()
        want = QRat(x.den, x.num)
        assert (inv.num, inv.den) == (want.num, want.den)
        assert x / x == ONE and ONE / x == inv
    assert negative_lead > 50


def test_product_with_one_skips_the_memo():
    clear_memos()
    x = q - q ** -1
    size = qfield._mul.cache_info().currsize
    assert x * QRat((1,)) is x and QRat((5,), (5,)) * x is x
    assert qfield._mul.cache_info().currsize == size
    assert x * -ONE == -x and qfield._mul.cache_info().currsize == size + 1


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
    assert q_power(Fraction(4, 2)) == QRat((0, 0, 1))
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


def test_untrimmed_input_is_trimmed():
    a = QRat((1, 0, 0), (2, 0))
    assert a == QRat((1,), (2,))
    assert (a.num, a.den) == ((1,), (2,))
    assert QRat([0, 3, 0], [0, 6]) == QRat((1,), (2,))
    assert QRat.from_int(0) == ZERO
    assert (ZERO.num, ZERO.den) == ((), (1,))
    assert QRat((0, 0), (5,)) == ZERO


def test_substitute_inverse_canonicalises_v_divisible_input():
    # v^2 -> v^-2, v/(1 + v) -> 1/(1 + v), (v^3 - v)/v^2 -> (1 - v^2)/v
    cases = [(QRat((0, 0, 1)), QRat((1,), (0, 0, 1))),
             (QRat((0, 1), (1, 1)), QRat((1,), (1, 1))),
             (QRat((0, -1, 0, 1), (0, 0, 1)), QRat((1, 0, -1), (0, 1)))]
    for x, want in cases:
        got = x.substitute_inverse()
        assert (got.num, got.den) == (want.num, want.den)
        assert got.den[-1] > 0 and len(pgcd(got.num, got.den)) == 1
        assert got.substitute_inverse() == x


# ---------------------------------------------------------------------------
# integer polynomial helpers

def vpow(k):
    return (0,) * k + (1,)


def test_trim_keeps_trimmed_tuples():
    t = (3, 0, -1)
    assert _trim(t) is t and _trim(()) == ()
    assert _trim([3, 0, -1, 0, 0]) == t and _trim((0, 0)) == ()
    # a product of trimmed polynomials needs no trim
    rng = random.Random(3)
    for _ in range(200):
        a = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 5)))
        b = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 5)))
        a, b = _trim(a), _trim(b)
        assert pmul(a, b) == _trim(pmul(a, b))
        assert pmul(a, b) == () or pmul(a, b)[-1] == a[-1] * b[-1]


def test_pdivexact_integer_quotient():
    a = pmul((3, -2, 5), (1, 4, -1, 2))
    assert pdivexact(a, (1, 4, -1, 2)) == (3, -2, 5)
    assert pdivexact(a, (3, -2, 5)) == (1, 4, -1, 2)
    assert pdivexact((6, 4), (2,)) == (3, 2)
    assert pdivexact((), (1, 1)) == ()
    assert all(type(c) is int for c in pdivexact(a, (3, -2, 5)))


def test_pdivexact_raises_when_inexact():
    with pytest.raises(ArithmeticError):
        pdivexact((1, 0, 1), (1, 1))        # nonzero remainder
    with pytest.raises(ArithmeticError):
        pdivexact((1, 1), (1, 0, 1))        # divisor of higher degree
    with pytest.raises(ArithmeticError):
        pdivexact((1, 1), (2,))             # exact over Q, not over Z
    with pytest.raises(ArithmeticError):
        pdivexact((1, 2, 1), (2, 2))        # (v + 1) / 2


def test_pgcd_splits_powers_of_v():
    one_v = (1, 1)
    a = pmul(vpow(3), one_v)
    b = pmul(vpow(2), pmul(one_v, one_v))
    assert pgcd(a, b) == pmul(vpow(2), one_v)
    assert pgcd(vpow(5), vpow(2)) == vpow(2)
    assert pgcd(pmul(vpow(4), (2, 1)), (2, 3, 1)) == (2, 1)


def test_pgcd_coprime_and_constant():
    assert pgcd((1, 1), (-1, 1)) == (1,)
    assert pgcd((1, 1, 1), (1, 0, 1)) == (1,)
    assert pgcd((6,), (2, 4)) == (1,)
    assert pgcd((0, 0, 4, 6), (-3,)) == (1,)
    assert pgcd((-4, -6), ()) == (2, 3)


polys = st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(
    lambda c: tuple(c[:max((i + 1 for i, x in enumerate(c) if x),
                           default=0)]))
nonzero_polys = polys.filter(bool)
# cyclotomic and v-adic factors the engine's denominators are made of
FACTORS = ((0, 1), (-1, 1), (1, 0, 1), (1, 1, 1), (1, 0, -1, 0, 0, 0, 1))
planted = st.lists(st.sampled_from(FACTORS), max_size=3)


def _times(p, factors):
    for f in factors:
        p = pmul(p, f)
    return p


@given(nonzero_polys, nonzero_polys, planted)
@settings(max_examples=150, deadline=None)
def test_pgcd_primitive_common_divisor(a, b, common):
    a, b = _times(a, common), _times(b, common)
    g = pgcd(a, b)
    assert pcontent(g) == 1 and g[-1] > 0
    # pdivexact raises unless the division is exact
    assert pgcd(pdivexact(a, g), pdivexact(b, g)) == (1,)
    pdivexact(g, _times((1,), common))      # the planted factors divide g


def _assert_canonical(x):
    if not x.num:
        assert (x.num, x.den) == ((), (1,))
        return
    assert pgcd(x.num, x.den) == (1,)
    assert _igcd(pcontent(x.num), pcontent(x.den)) == 1
    assert x.den[-1] > 0


qrats = st.tuples(polys, nonzero_polys, planted).map(
    lambda t: QRat(_times(t[0], t[2]), _times(t[1], t[2])))


@given(qrats, qrats)
@settings(max_examples=150, deadline=None)
def test_canonical_after_arithmetic(a, b):
    _assert_canonical(a)
    _assert_canonical(a + b)
    _assert_canonical(a * b)
    if b:
        _assert_canonical(a / b)


def _poly_of(expr, v):
    import sympy
    return tuple(Fraction(int(c.p), int(c.q))
                 for c in reversed(sympy.Poly(expr, v).all_coeffs()))


@given(nonzero_polys, nonzero_polys, planted, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_canonical_form_matches_sympy_cancel(a, b, common, k):
    sympy = pytest.importorskip("sympy")
    v = sympy.Symbol("v")
    common = list(common) + [vpow(1)] * k
    num, den = _times(a, common), _times(b, common)
    x = QRat(num, den)

    def expr(p):
        return sum(c * v ** i for i, c in enumerate(p))

    n, d = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    n, d = _poly_of(n, v), _poly_of(d, v)
    # the joint primitive form with positive leading denominator coefficient
    scale = lcm(*(c.denominator for c in n + d))
    n = [int(c * scale) for c in n]
    d = [int(c * scale) for c in d]
    g = _igcd(*n, *d) * (1 if d[-1] > 0 else -1)
    assert x.num == tuple(c // g for c in n)
    assert x.den == tuple(c // g for c in d)


# -- the per-session memos of +, *, / and q_power ----------------------------

# operands as callers pass them: zero, v-divisible, and with a negative
# leading denominator coefficient before canonicalisation
raw_qrats = st.tuples(polys, nonzero_polys, planted, st.integers(0, 2),
                      st.booleans()).map(
    lambda t: QRat(_times(t[0], list(t[2]) + [vpow(t[3])]),
                   pneg_if(t[4], _times(t[1], t[2]))))


def pneg_if(flag, p):
    return tuple(-c for c in p) if flag else p


def _fresh(a, b) -> dict:
    """The three results, canonicalised from scratch without a memo."""
    out = {"+": QRat(padd(pmul(a.num, b.den), pmul(b.num, a.den)),
                     pmul(a.den, b.den)),
           "*": QRat(pmul(a.num, b.num), pmul(a.den, b.den))}
    if b:
        out["/"] = QRat(pmul(a.num, b.den), pmul(a.den, b.num))
    return out


def _memoised(a, b) -> dict:
    out = {"+": a + b, "*": a * b}
    if b:
        out["/"] = a / b
    return out


@given(st.lists(st.tuples(raw_qrats, raw_qrats), min_size=1, max_size=8),
       st.lists(st.integers(-12, 12), max_size=8), st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_memoised_arithmetic_matches_fresh(pairs, exponents, bound):
    # a small bound makes the memos evict often, so results are read both
    # as hits and after their entries were evicted; maxsize cannot change
    # on a live cache, so the test rebinds the memos to small ones
    saved = qfield._add, qfield._mul, qfield.q_power
    qfield._add, qfield._mul, qfield.q_power = small = tuple(
        lru_cache(maxsize=bound)(memo.__wrapped__) for memo in saved)
    try:
        clear_memos()
        rounds = []
        for _ in range(2):
            rounds.append([])
            for a, b in pairs:
                rounds[-1].append(_memoised(a, b))
                assert all(memo.cache_info().currsize <= bound
                           for memo in small)
        for (a, b), first, again in zip(pairs, *rounds):
            want = _fresh(a, b)
            assert first == want and again == want
            for x in first.values():
                _assert_canonical(x)
        for e in exponents + exponents:
            assert qfield.q_power(e) == saved[2].__wrapped__(e) == \
                qfield.q_power(Fraction(e))
            assert all(memo.cache_info().currsize <= bound for memo in small)
    finally:
        qfield._add, qfield._mul, qfield.q_power = saved
        clear_memos()


def test_memo_returns_the_canonical_result_it_stored():
    clear_memos()
    a, b = QRat((0, 2), (-2, 0, 2)), QRat((1, 1), (0, 1))
    assert (a.num, a.den) == ((0, 1), (-1, 0, 1))
    assert a * b is a * b and a + b is a + b and a / b is a / b
    assert q_power(-3) is q_power(-3)
    assert a * ZERO is ZERO and ZERO / b is ZERO
    clear_memos()
    assert all(not memo.cache_info().currsize for memo in MEMOS)
    assert a * b == QRat(pmul(a.num, b.num), pmul(a.den, b.den))


def test_memos_stay_within_their_bound():
    clear_memos()
    rng = random.Random(20261018)
    xs = [rand_qrat(rng) for _ in range(60)]
    for a in xs:
        for b in xs:
            a * b + b
            a / b
        q_power(rng.randint(-3000, 3000))
        assert all(memo.cache_info().currsize <= qfield.MEMO_BOUND
                   for memo in MEMOS)
    clear_memos()


def test_hot_entry_survives_a_flood():
    # a full memo evicts its least recently used entry, so a product read
    # again every few hundred others keeps the QRat built on its miss
    clear_memos()
    a, b = q + ONE, q - ONE
    ab = a * b
    for k in range(3 * qfield.MEMO_BOUND):
        QRat((k + 2,)) * a
        if k % 300 == 0:
            assert a * b is ab
    assert a * b is ab
    clear_memos()
