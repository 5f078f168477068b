"""linalg against dense Fraction arithmetic written here.

Seeded random matrices up to 7x7 with planted dependent columns, zero
columns and exact cancellations; the dense rank comes from a Gaussian
elimination over lists that shares no code with linalg.
"""

import random
from fractions import Fraction

from qcartan.linalg import Echelon, add_scaled, kernel_basis


def _sparse(col):
    return {i: x for i, x in enumerate(col) if x}


def _dense_rank(vectors):
    m = [list(v) for v in vectors]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_columns(rng):
    """(columns, kinds): each column random, zero, or a combination of up
    to three earlier ones (whose entries may cancel to zero)."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    cols, kinds = [], []
    for _ in range(ncols):
        kind = rng.choice(("random", "random", "zero", "planted"))
        if kind == "planted" and cols:
            col = [Fraction(0)] * nrows
            for c in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
                f = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
                col = [a + f * b for a, b in zip(col, c)]
        elif kind == "zero":
            col = [Fraction(0)] * nrows
        else:
            kind = "random"
            col = [_entry(rng) for _ in range(nrows)]
        cols.append(col)
        kinds.append(kind)
    return cols, kinds


def test_add_scaled_matches_dense_arithmetic():
    rng = random.Random(20171)
    cancelled = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        a = [_entry(rng) for _ in range(n)]
        c = rng.choice((None, Fraction(0), Fraction(rng.randint(1, 4),
                                                    rng.choice((-3, -1, 2)))))
        b = [_entry(rng) for _ in range(n)]
        if c:
            # plant exact cancellations: a_i + c b_i = 0
            b = [-x / c if x and rng.random() < 0.4 else y
                 for x, y in zip(a, b)]
        factor = 1 if c is None else c
        want = _sparse([x + factor * y for x, y in zip(a, b)])
        cancelled += len(_sparse(a).keys() | _sparse(b).keys()) - len(want)
        out = _sparse(a)
        got = add_scaled(out, _sparse(b), c)
        assert got is out
        assert got == want
        assert all(got.values())
    assert cancelled > 100


def test_echelon_rank_and_kernel_match_dense():
    rng = random.Random(2017)
    seen = {"random": 0, "zero": 0, "planted": 0}
    for _ in range(300):
        cols, kinds = _random_columns(rng)
        for k in kinds:
            seen[k] += 1
        rank = _dense_rank(cols)

        ech = Echelon()
        for col in cols:
            ech.add(_sparse(col))
        assert len(ech) == rank

        # column j is dependent exactly when it leaves the rank unchanged
        dependent = [j for j in range(len(cols))
                     if _dense_rank(cols[:j + 1]) == _dense_rank(cols[:j])]
        rels = kernel_basis([_sparse(col) for col in cols])
        assert len(rels) == len(cols) - rank
        assert [max(rel) for rel in rels] == dependent
        for rel in rels:
            assert rel[max(rel)] == 1
            assert all(rel.values())
            total = [sum((rel.get(j, 0) * cols[j][i]
                          for j in range(len(cols))), Fraction(0))
                     for i in range(len(cols[0]))]
            assert not any(total)
    assert min(seen.values()) > 50


def test_add_reports_new_and_relation():
    ech = Echelon(track=True)
    assert ech.add({0: Fraction(1), 1: Fraction(2)}) == (True, None)
    assert ech.add({1: Fraction(3)}) == (True, None)
    # v2 = v0 - (2/3) v1, so the relation is v2 - v0 + (2/3) v1 = 0
    is_new, rel = ech.add({0: Fraction(1)})
    assert not is_new
    assert rel == {2: 1, 0: -1, 1: Fraction(2, 3)}
    assert Echelon().add({0: Fraction(1)}) == (True, None)
    plain = Echelon()
    plain.add({0: Fraction(1)})
    assert plain.add({0: Fraction(5)}) == (False, None)
