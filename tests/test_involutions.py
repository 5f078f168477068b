import itertools

import pytest

from qcartan.involutions import (GammaEntry, ThetaSystem, build_involution,
                                 classify_case, classical_cartan_symbolic,
                                 delta_theta, format_symbolic_basis,
                                 gamma_theta, max_strongly_orthogonal,
                                 verify_theta_system)

ALL_CASES = []
for n in range(1, 9):
    ALL_CASES.append(("AI", n, None))
for n in (3, 5, 7):
    ALL_CASES.append(("AII", n, None))
for n in range(2, 9):
    for r in range(1, (n + 1) // 2 + 1):
        ALL_CASES.append(("AIII", n, r))
for n in range(2, 9):
    for r in range(1, n + 1):
        ALL_CASES.append(("BI", n, r))
for n in range(2, 9):
    ALL_CASES.append(("CI", n, None))
for n in range(3, 9):
    for r in range(2, n, 2):
        ALL_CASES.append(("CII-1", n, r))
for n in (4, 6, 8):
    ALL_CASES.append(("CII-2", n, None))
for n in range(4, 9):
    for r in range(1, n - 1):
        ALL_CASES.append(("DI-1", n, r))
    ALL_CASES.append(("DI-2", n, None))
    ALL_CASES.append(("DI-3", n, None))
for n in (4, 6, 8):
    ALL_CASES.append(("DIII-1", n, None))
for n in (5, 7):
    ALL_CASES.append(("DIII-2", n, None))
for label in ("EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII",
              "EIX", "FI", "FII", "G"):
    ALL_CASES.append((label, None, None))


def test_aiii_images():
    inv = build_involution("AIII", 3, 2)
    rd = inv.rd
    assert inv.apply(rd.simple(1)) == rd.weight((0, 0, -1))
    assert inv.apply(rd.simple(2)) == rd.weight((0, -1, 0))
    assert inv.apply(rd.simple(3)) == rd.weight((-1, 0, 0))
    assert inv.pi_theta == frozenset()
    assert inv.p == (3, 2, 1)


def test_ai_and_aii_images():
    inv = build_involution("AI", 4)
    rd = inv.rd
    for i in range(1, 5):
        assert inv.apply(rd.simple(i)) == tuple(-c for c in rd.simple(i))
    assert inv.pi_theta == frozenset()
    inv = build_involution("AII", 3)
    rd = inv.rd
    assert inv.pi_theta == frozenset({1, 3})
    assert inv.apply(rd.simple(2)) == rd.weight((-1, -1, -1))


def test_invalid_parameters():
    with pytest.raises(ValueError):
        build_involution("AIII", 3, 3)
    with pytest.raises(ValueError):
        build_involution("AII", 4)
    with pytest.raises(ValueError):
        build_involution("CII-1", 4, 3)
    with pytest.raises(ValueError):
        build_involution("XX", 2)


def test_delta_theta_examples():
    inv = build_involution("AI", 3)
    assert set(delta_theta(inv)) == set(inv.rd.positive_roots)
    inv = build_involution("AII", 3)
    assert delta_theta(inv) == ()
    inv = build_involution("AIII", 3, 2)
    rd = inv.rd
    assert set(delta_theta(inv)) == {rd.weight((0, 1, 0)),
                                     rd.weight((1, 1, 1))}


def test_gamma_examples():
    ts = gamma_theta("G", 2)
    rd = ts.rd
    assert [e.beta for e in ts.entries] == [rd.weight((2, 1)), rd.simple(2)]
    assert ts.entries[0].alpha_beta == 1

    ts = gamma_theta("EIII")
    rd = ts.rd
    assert [e.beta for e in ts.entries] == [
        rd.weight((1, 2, 2, 3, 2, 1)), rd.weight((1, 0, 1, 1, 1, 1))]

    ts = gamma_theta("AIII", 3, 2)
    rd = ts.rd
    assert [e.beta for e in ts.entries] == [rd.weight((1, 1, 1)),
                                            rd.simple(2)]
    assert ts.entries[0].case == 3
    assert (ts.entries[0].alpha_beta, ts.entries[0].alpha_beta_prime) == (1, 3)
    assert ts.entries[1].case == 1

    ts = gamma_theta("FII")
    assert [tuple(map(int, e.beta)) for e in ts.entries] == [(1, 2, 3, 2)]

    ts = gamma_theta("EIX")
    assert len(ts.entries) == 4
    assert ts.entries[3].beta == ts.rd.simple(7)


def test_aliases():
    assert gamma_theta("AIV", 5).entries == gamma_theta("AIII", 5, 1).entries
    assert gamma_theta("BII", 3).entries == gamma_theta("BI", 3, 1).entries
    assert gamma_theta("DII", 5).entries == gamma_theta("DI-1", 5, 1).entries


@pytest.mark.parametrize("label,n,r", ALL_CASES)
def test_tables_verify(label, n, r):
    ts = gamma_theta(label, n, r)
    report = verify_theta_system(ts)
    assert all(report.values()), \
        [k for k, v in report.items() if not v]


def test_classify_examples():
    assert classify_case(gamma_theta("AIII", 3, 2), 1) == 3
    ts = gamma_theta("CII-1", 6, 4)
    assert all(classify_case(ts, j) == 5 for j in range(1, len(ts) + 1))
    ts = gamma_theta("BI", 5, 3)
    assert [classify_case(ts, j) for j in range(1, len(ts) + 1)] == [2, 1, 4]
    ts = gamma_theta("BI", 5, 5)  # r = n odd: the last root degenerates
    assert classify_case(ts, len(ts)) == 1


def test_classify_case_mults():
    for label, n, r in ALL_CASES:
        ts = gamma_theta(label, n, r)
        for e in ts.entries:
            assert e.beta[e.alpha_beta - 1] in (1, 2)


def test_corrupted_system_fails():
    ts = gamma_theta("AIII", 3, 2)
    bad = ThetaSystem(ts.involution,
                      (GammaEntry(ts.rd.weight((1, 1, 0)), 1, 3, 3),
                       ts.entries[1]))
    report = verify_theta_system(bad)
    assert not report["theta_negates_each_beta"]
    assert not report["pairwise_strongly_orthogonal"]


def test_symbolic_basis():
    ts = gamma_theta("AIII", 3, 2)
    basis = classical_cartan_symbolic(ts)
    assert len(basis) == 3
    assert basis[0] == ("h", {1: 1, 3: -1})
    assert [k for k, _ in basis] == ["h", "e+f", "e+f"]
    assert format_symbolic_basis(ts)[0] == "h_1 -h_3"

    ts = gamma_theta("AI", 2)
    assert classical_cartan_symbolic(ts) == [("e+f", ts.rd.simple(1))]

    ts = gamma_theta("FII")
    basis = classical_cartan_symbolic(ts)
    assert len(basis) == 4
    assert basis[:3] == [("h", {1: 1}), ("h", {2: 1}), ("h", {3: 1})]


# rank of the fixed subalgebra k of each exceptional real form (Helgason,
# Table V); it equals dim h^theta plus the maximum strongly orthogonal size
EXCEPTIONAL_RANK_K = {"EI": 4, "EII": 6, "EIII": 6, "EIV": 4, "EV": 7,
                      "EVI": 7, "EVII": 7, "EVIII": 8, "EIX": 8, "FI": 4,
                      "FII": 4, "G": 2}


def _strongly_orthogonal_set(rd, roots):
    return all(rd.is_strongly_orthogonal(a, b)
               for a, b in itertools.combinations(roots, 2))


def test_rank_data_consistency():
    for label, n, r in ALL_CASES:
        ts = gamma_theta(label, n, r)
        inv = ts.involution
        rd = inv.rd
        top = max_strongly_orthogonal(inv)
        assert len(ts.entries) == top, (label, n, r)
        if label in EXCEPTIONAL_RANK_K:
            assert inv.dim_h_theta() + top == EXCEPTIONAL_RANK_K[label]
        if rd.rank <= 4:
            # brute force over subsets of Delta_theta
            delta = delta_theta(inv)
            assert any(_strongly_orthogonal_set(rd, s)
                       for s in itertools.combinations(delta, top))
            assert not any(_strongly_orthogonal_set(rd, s)
                           for s in itertools.combinations(delta, top + 1))
    assert len(gamma_theta("EII").entries) == 4
    assert len(gamma_theta("EVI").entries) == 4
