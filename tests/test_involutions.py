import itertools
import json
import pathlib

import pytest

from pair_cases import ALL_CASES

from qcartan.involutions import (PAIR_LABELS, GammaEntry, ThetaSystem,
                                 build_involution, classical_cartan_symbolic,
                                 delta_theta, format_symbolic_basis,
                                 gamma_theta, max_strongly_orthogonal,
                                 verify_theta_system)

PINNED = {(row["pair"], row["n"], row["r"]): row for row in json.loads(
    (pathlib.Path(__file__).parent / "golden" / "pair_tables.json")
    .read_text())}


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


# each label's parameters at the edges of its bounds: the admitted ones, then
# one step past each bound (and an r where the label takes none)
EXCEPTIONAL_RANKS = {"EI": 6, "EII": 6, "EIII": 6, "EIV": 6, "EV": 7,
                     "EVI": 7, "EVII": 7, "EVIII": 8, "EIX": 8, "FI": 4,
                     "FII": 4, "G": 2}
EDGES = {
    "AI": ([(1, None)], [(0, None), (1, 1)]),
    "AII": ([(3, None)], [(1, None), (4, None), (3, 1)]),
    "AIII": ([(1, 1), (5, 1), (5, 3)], [(0, 1), (5, 0), (5, 4), (5, None)]),
    "AIV": ([(1, None), (5, 1)], [(0, None), (5, 0), (5, 2)]),
    "BI": ([(2, 1), (4, 4)], [(1, 1), (4, 0), (4, 5), (4, None)]),
    "BII": ([(2, None), (2, 1)], [(1, None), (2, 0), (2, 2)]),
    "CI": ([(2, None)], [(1, None), (2, 1)]),
    "CII-1": ([(3, 2), (6, 4)],
              [(2, 2), (6, 0), (6, 3), (6, 6), (6, None)]),
    "CII-2": ([(4, None)], [(2, None), (5, None), (4, 1)]),
    "DI-1": ([(4, 1), (6, 4)], [(3, 1), (6, 0), (6, 5), (6, None)]),
    "DII": ([(4, None), (4, 1)], [(3, None), (4, 0), (4, 2)]),
    "DI-2": ([(4, None)], [(3, None), (4, 1)]),
    "DI-3": ([(4, None)], [(3, None), (4, 1)]),
    "DIII-1": ([(4, None)], [(2, None), (5, None), (4, 1)]),
    "DIII-2": ([(5, None)], [(3, None), (6, None), (5, 1)]),
    **{label: ([(None, None), (rank, None)],
               [(rank - 1, None), (rank + 1, None), (None, 1)])
       for label, rank in EXCEPTIONAL_RANKS.items()},
}


@pytest.mark.parametrize("label", sorted(EDGES))
def test_parameter_bounds(label):
    admitted, refused = EDGES[label]
    for n, r in admitted:
        gamma_theta(label, n, r)
    for n, r in refused:
        with pytest.raises(ValueError):
            gamma_theta(label, n, r)


def test_every_label_has_bounds():
    assert sorted(EDGES) == sorted(PAIR_LABELS)


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
    inv = build_involution("AIV", 5)
    assert (inv.pair, inv.params) == ("AIII", (5, 1))
    assert build_involution("BII", 3, 1).pair == "BI"
    assert build_involution("EI").params == (6, None)


@pytest.mark.parametrize("label,n,r", ALL_CASES)
def test_matches_pinned_tables(label, n, r):
    ts = gamma_theta(label, n, r)
    inv, row = ts.involution, PINNED[label, n, r]
    assert [list(w) for w in inv.images] == row["images"]
    assert sorted(inv.pi_theta) == row["pi_theta"]
    assert list(inv.p) == row["p"]
    assert [sorted(span.items()) for span in inv.h_theta] == \
        [[tuple(t) for t in span] for span in row["h_theta"]]
    assert sorted(inv.s_subset) == row["s_subset"]
    assert [[list(e.beta), e.alpha_beta, e.alpha_beta_prime, e.case]
            for e in ts.entries] == row["gamma"]


@pytest.mark.parametrize("label,n,r", ALL_CASES)
def test_tables_verify(label, n, r):
    ts = gamma_theta(label, n, r)
    report = verify_theta_system(ts)
    assert all(report.values()), \
        [k for k, v in report.items() if not v]


def test_classify_examples():
    assert gamma_theta("AIII", 3, 2).entries[0].case == 3
    ts = gamma_theta("CII-1", 6, 4)
    assert all(e.case == 5 for e in ts.entries)
    ts = gamma_theta("BI", 5, 3)
    assert [e.case for e in ts.entries] == [2, 1, 4]
    ts = gamma_theta("BI", 5, 5)  # r = n odd: the last root degenerates
    assert ts.entries[-1].case == 1


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
            assert len(inv.h_theta) + top == EXCEPTIONAL_RANK_K[label]
        if rd.rank <= 4:
            # brute force over subsets of Delta_theta
            delta = delta_theta(inv)
            assert any(_strongly_orthogonal_set(rd, s)
                       for s in itertools.combinations(delta, top))
            assert not any(_strongly_orthogonal_set(rd, s)
                           for s in itertools.combinations(delta, top + 1))
    assert len(gamma_theta("EII").entries) == 4
    assert len(gamma_theta("EVI").entries) == 4
