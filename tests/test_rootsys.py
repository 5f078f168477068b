import pytest

from qcartan.rootsys import (build_root_data, kostant_partition_count,
                             weights_up_to_height)

TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2),
         ("C", 3), ("D", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]


def test_positive_root_examples():
    a2 = build_root_data("A", 2)
    assert set(a2.positive_roots) == {a2.weight(w) for w in
                                      [(1, 0), (0, 1), (1, 1)]}
    g2 = build_root_data("G", 2)
    assert g2.is_positive_root(g2.weight((3, 1)))
    assert g2.is_positive_root(g2.weight((3, 2)))
    assert len(g2.positive_roots) == 6
    b2 = build_root_data("B", 2)
    assert set(b2.positive_roots) == {b2.weight(w) for w in
                                      [(1, 0), (0, 1), (1, 1), (1, 2)]}


def test_invalid_type():
    with pytest.raises(ValueError):
        build_root_data("E", 5)
    with pytest.raises(ValueError):
        build_root_data("H", 3)


def test_inner_products():
    a2 = build_root_data("A", 2)
    assert a2.inner(a2.simple(1), a2.simple(2)) == -1
    a3 = build_root_data("A", 3)
    assert a3.inner(a3.simple(1), a3.simple(3)) == 0
    b2 = build_root_data("B", 2)
    long_sum = b2.weight((1, 2))
    assert b2.inner(long_sum, long_sum) == 4
    assert b2.inner(b2.simple(1), b2.simple(1)) == 4
    assert b2.inner(b2.simple(2), b2.simple(2)) == 2


def test_inner_dimension_mismatch():
    a2 = build_root_data("A", 2)
    with pytest.raises(ValueError):
        a2.inner((1,), (1, 0))


# every root system build_root_data accepts, up to rank 8
ROOT_SYSTEMS = [("A", n) for n in range(1, 9)] + \
    [(fam, n) for fam in "BC" for n in range(2, 9)] + \
    [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8),
                                        ("F", 4), ("G", 2)]


def _accepted(fam, n):
    try:
        build_root_data(fam, n)
    except ValueError:
        return False
    return True


def test_fundamental_weights():
    assert [(fam, n) for fam in "ABCDEFG" for n in range(9)
            if _accepted(fam, n)] == sorted(ROOT_SYSTEMS)
    for fam, n in ROOT_SYSTEMS:
        rd = build_root_data(fam, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expect = rd.d[j - 1] if i == j else 0
                assert rd.inner(rd.fundamental_weights[i - 1],
                                rd.simple(j)) == expect


def test_strong_orthogonality():
    a3 = build_root_data("A", 3)
    assert a3.is_strongly_orthogonal(a3.simple(1), a3.simple(3))
    c2 = build_root_data("C", 2)
    # orthogonal but the sum is a root
    assert c2.inner(c2.simple(1), c2.weight((1, 1))) == 0
    assert not c2.is_strongly_orthogonal(c2.simple(1), c2.weight((1, 1)))
    a2 = build_root_data("A", 2)
    assert not a2.is_strongly_orthogonal(a2.simple(1), a2.simple(2))
    with pytest.raises(ValueError):
        a2.is_strongly_orthogonal(a2.weight((2, 0)), a2.simple(1))


def test_strong_orthogonality_symmetric():
    for fam, n in [("A", 3), ("B", 3), ("C", 3), ("G", 2)]:
        rd = build_root_data(fam, n)
        for b in rd.positive_roots:
            for c in rd.positive_roots:
                assert rd.is_strongly_orthogonal(b, c) == \
                    rd.is_strongly_orthogonal(c, b)
        for b in rd.positive_roots:
            orth = {i for i in range(1, n + 1)
                    if not rd.inner(b, rd.simple(i))}
            assert rd.strorth_simples(b) <= orth


def test_weyl_reflections():
    a2 = build_root_data("A", 2)
    assert a2.reflect(1, a2.simple(2)) == a2.weight((1, 1))
    assert a2.reflect(2, a2.simple(2)) == a2.weight((0, -1))
    assert a2.weyl_longest((), a2.simple(2)) == a2.simple(2)


def test_weyl_longest():
    a2 = build_root_data("A", 2)
    assert a2.weyl_longest((1, 2), a2.simple(1)) == a2.weight((0, -1))
    a3 = build_root_data("A", 3)
    assert a3.weyl_longest((2, 3), a3.simple(1)) == a3.weight((1, 1, 1))


def test_longest_element_involution_and_negation():
    # w(pi')_0 squares to the identity and flips the subsystem's positives
    for fam, maxn in [("A", 6), ("B", 4), ("C", 4), ("D", 6)]:
        lo = {"A": 1, "B": 2, "C": 2, "D": 4}[fam]
        for n in range(lo, maxn + 1):
            rd = build_root_data(fam, n)
            subsets = [tuple(range(1, n + 1)), (1,), tuple(range(2, n + 1))]
            if n >= 3:
                subsets.append((1, 3))
            for sub in subsets:
                for i in range(1, n + 1):
                    lam = rd.simple(i)
                    assert rd.weyl_longest(sub, rd.weyl_longest(sub, lam)) \
                        == lam
                for beta in rd.positive_roots:
                    if rd.support(beta) <= set(sub):
                        img = rd.weyl_longest(sub, beta)
                        assert rd.is_positive_root(
                            tuple(-c for c in img))


def test_reflection_closure():
    for fam, n in TYPES:
        rd = build_root_data(fam, n)
        for i in range(1, n + 1):
            neg = tuple(-c for c in rd.simple(i))
            for beta in rd.positive_roots:
                img = rd.reflect(i, beta)
                assert rd.is_positive_root(img) or img == neg


def test_weight_stats():
    a3 = build_root_data("A", 3)
    lam = a3.weight((1, 1, 1))
    assert a3.support(lam) == {1, 2, 3} and a3.height(lam) == 3
    assert a3.height_tau(lam, (1, 3)) == 2
    zero = a3.zero()
    assert (a3.support(zero), a3.height(zero), a3.height_tau(zero, (1,))) \
        == (frozenset(), 0, 0)
    c3 = build_root_data("C", 3)
    beta = c3.weight((2, 2, 1))
    assert c3.is_positive_root(beta)
    assert c3.height(beta) == 5


def test_kostant_counts():
    a2 = build_root_data("A", 2)
    assert kostant_partition_count(a2, a2.weight((1, 1))) == 2
    assert kostant_partition_count(a2, a2.weight((2, 1))) == 2
    assert kostant_partition_count(a2, a2.weight((0, 0))) == 1
    assert kostant_partition_count(a2, a2.weight((-1, 0))) == 0
    b2 = build_root_data("B", 2)
    # beta = a1 + 2a2: {a1+2a2}, {a1+a2, a2}, {a1, a2, a2} -> 3
    assert kostant_partition_count(b2, b2.weight((1, 2))) == 3


def test_weights_up_to_height():
    a2 = build_root_data("A", 2)
    ws = list(weights_up_to_height(a2, 2))
    assert a2.weight((1, 1)) in ws and a2.weight((2, 0)) in ws
    assert a2.zero() not in ws
