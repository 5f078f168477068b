"""Weight-space tables: the golden oracle and the evaluation-point guard.

`tests/golden/weight_tables.json` holds the basis words and reduction
coordinates of every weight space of G2 and B3 up to height 5, as the
full-width exact elimination built them.  Regenerate it (only for an
intended change, named in CHANGES.md) with

    PYTHONPATH=src python tests/test_weightspaces.py
"""

import json
import pathlib

import pytest
from conftest import recursion_headroom

from qcartan import weightspaces
from qcartan.linalg import Echelon
from qcartan.qfield import ONE
from qcartan.rootsys import (build_root_data, kostant_partition_count,
                             weights_up_to_height)
from qcartan.weightspaces import WeightSpaces

GOLDEN = pathlib.Path(__file__).parent / "golden" / "weight_tables.json"
TABLES = (("G", 2), ("B", 3))
MAX_HEIGHT = 5


def spanning(ws: WeightSpaces, weight: tuple) -> list:
    """(i, b) for each spanning word (i,) + b at `weight`, b a basis word
    one simple root lower, in lex order."""
    return [(i, low) for i in range(1, len(weight) + 1) if weight[i - 1]
            for low in ws.space(
                weight[:i - 1] + (weight[i - 1] - 1,) + weight[i:])]


def tables(family: str, rank: int) -> list:
    rd = build_root_data(family, rank)
    ws = WeightSpaces(rd)
    out = []
    for weight in sorted(weights_up_to_height(rd, MAX_HEIGHT)):
        out.append({
            "weight": list(weight),
            "basis": [list(w) for w in ws.space(weight)],
            "coords": [[i, list(low),
                        [[list(w), c.to_json()] for w, c in
                         sorted(ws.reduce_word((i,) + low).items())]]
                       for i, low in spanning(ws, weight)]})
    return out


def all_tables() -> dict:
    return {"%s%d" % fr: tables(*fr) for fr in TABLES}


def _golden(family: str, rank: int) -> list:
    return json.loads(GOLDEN.read_text())["%s%d" % (family, rank)]


@pytest.mark.parametrize("family,rank", TABLES)
def test_tables_match_golden(family, rank):
    assert tables(family, rank) == _golden(family, rank)


def _failures(monkeypatch) -> list:
    """The _BadPoint messages raised while the test runs."""
    failures = []
    solve = weightspaces._solve

    def spy(vectors, v0):
        try:
            return solve(vectors, v0)
        except weightspaces._BadPoint as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setattr(weightspaces, "_solve", spy)
    return failures


# a primitive cube root of unity mod P, where [3]_q = 0
CUBE_ROOT = pow(37, (weightspaces.P - 1) // 3, weightspaces.P)


# the ids keep the names these cases had when each raised one message
@pytest.mark.parametrize("bad,reasons", [
    # 1/(q^d - q^{-d}) has the denominator v^{2d} - 1
    pytest.param(1, {"a denominator vanishes"},
                 id="1-a denominator vanishes at 1"),
    # an independent word of B3 looks dependent: its support at that point
    # need not span it on the pivots, and if it does, the check off the
    # pivots fails
    pytest.param(CUBE_ROOT, {"the exact solve disagrees",
                             "a relation fails off the pivots"},
                 id="%d-a relation fails off the pivots" % CUBE_ROOT),
])
def test_bad_point_is_redrawn(monkeypatch, bad, reasons):
    monkeypatch.setattr(weightspaces, "POINTS", (bad,) + weightspaces.POINTS)
    failures = _failures(monkeypatch)
    assert tables("B", 3) == _golden("B", 3)
    assert failures
    assert {f.split(" at ")[0] for f in failures} == reasons


@pytest.mark.parametrize("drop,reasons", [
    # the first basis word becomes dependent on nothing: on the remaining
    # pivots it is nonzero, or zero and then nonzero off them; words whose
    # supports hold it may be refused first, in the same two ways
    (min, {"the exact solve disagrees", "a relation fails off the pivots"}),
    # the last one becomes dependent on every earlier basis word, which
    # span it on their own pivots, so only the check off them sees it
    (max, {"a relation fails off the pivots"})])
def test_dropped_independent_word_is_caught(monkeypatch, drop, reasons):
    # the choice at the first point loses one independent vector, which
    # turns into a dependent one with a support of earlier basis vectors;
    # the exact steps must refuse every such choice, and the next point
    # repairs it
    choose = weightspaces._choose
    dropped = []

    def lossy(vectors, v0):
        chosen, supports = choose(vectors, v0)
        if v0 == weightspaces.POINTS[0] and chosen:
            num = drop(chosen)
            del chosen[num]
            supports[num] = [m for m in chosen if m < num]
            dropped.append(v0)
        return chosen, supports

    monkeypatch.setattr(weightspaces, "_choose", lossy)
    failures = _failures(monkeypatch)
    assert tables("G", 2) == _golden("G", 2)
    assert dropped and len(failures) == len(dropped)
    assert {f.split(" at ")[0] for f in failures} == reasons


# a weight whose build solves a support of size at least 2: B3 has them
# from height 4, G2 only from height 6, above the golden tables
@pytest.mark.parametrize("family,rank,top", [
    pytest.param("G", 2, (4, 2), id="G-2"),
    pytest.param("B", 3, (1, 2, 1), id="B-3")])
def test_lossy_support_is_caught(monkeypatch, family, rank, top):
    # the choice at the first point loses the last member of one support of
    # size at least 2, as a coefficient vanishing at v0 would; the basis on
    # the pivot keys is invertible, so the word is not in the span of what
    # is left, and the exact solve refuses the point
    rd = build_root_data(family, rank)
    want = WeightSpaces(rd)
    want.space(top)
    choose = weightspaces._choose
    dropped = []

    def lossy(vectors, v0):
        chosen, supports = choose(vectors, v0)
        if v0 == weightspaces.POINTS[0]:
            for support in supports.values():
                if len(support) >= 2:
                    del support[-1]
                    dropped.append(v0)
                    break
        return chosen, supports

    monkeypatch.setattr(weightspaces, "_choose", lossy)
    failures = _failures(monkeypatch)
    assert tables(family, rank) == _golden(family, rank)
    got = WeightSpaces(rd)
    got.space(top)
    assert got._spaces == want._spaces
    assert got._reduce_memo == want._reduce_memo
    assert dropped and len(failures) == len(dropped)
    assert {f.split(" at ")[0] for f in failures} == {
        "the exact solve disagrees"}


def _full_solve(vectors, v0):
    """The relations by one tracked elimination of every vector over all
    pivot keys, in spanning order: the reference for `_solve`."""
    chosen, _ = weightspaces._choose(vectors, v0)
    pivots = set(chosen.values())
    ech = Echelon(track=True)
    relations = {}
    for num, vec in enumerate(vectors):
        is_new, rel = ech.add({k: c for k, c in vec.items() if k in pivots})
        assert is_new == (num in chosen)
        if not is_new:
            del rel[num]
            relations[num] = {m: -c for m, c in rel.items()}
    return relations


@pytest.mark.parametrize("family,rank,top", [
    ("G", 2, 5), ("B", 3, 5), ("A", 4, 5), ("F", 4, (1, 2, 2, 1))])
def test_solve_matches_full_elimination(monkeypatch, family, rank, top):
    # every weight up to height `top`, or below the weight `top`, is solved
    # both ways at the first point, and the relations agree dict for dict
    solve = weightspaces._solve
    solved = []

    def both(vectors, v0):
        got = solve(vectors, v0)
        assert got == _full_solve(vectors, v0)
        solved.append(v0)
        return got

    monkeypatch.setattr(weightspaces, "_solve", both)
    rd = build_root_data(family, rank)
    ws = WeightSpaces(rd)
    weights = ([top] if isinstance(top, tuple)
               else list(weights_up_to_height(rd, top)))
    for weight in weights:
        ws.space(weight)
    assert solved == [weightspaces.POINTS[0]] * (len(ws._spaces) - 1)


@pytest.mark.parametrize("family,rank,height", [
    ("A", 4, 6), ("B", 3, 6), ("C", 3, 6), ("D", 4, 6), ("F", 4, 6),
    ("G", 2, 7),
    pytest.param("A", 5, 7, marks=pytest.mark.slow),
    pytest.param("E", 6, 6, marks=pytest.mark.slow)])
def test_leading_words_match_the_full_solve(family, rank, height):
    # the oracle finds no leading word, so it solves every spanning word;
    # the tables agree, and the memo on every word the oracle writes (the
    # build also memoizes the lower suffixes its relations reduce)
    rd = build_root_data(family, rank)
    fast, full = WeightSpaces(rd), WeightSpaces(rd)
    full._serre = {}
    for weight in weights_up_to_height(rd, height):
        fast.space(weight)
        full.space(weight)
    assert fast._spaces == full._spaces
    assert fast._ab == full._ab
    for word, coords in full._reduce_memo.items():
        assert fast._reduce_memo[word] == coords, word
    # every relation short enough was read, its leading word checked
    assert all(lead in full._reduce_memo for lead in fast._serre
               if len(lead) <= height)


@pytest.mark.parametrize("family,rank", [("A", 2), ("G", 2)])
def test_leading_words_are_not_solved(monkeypatch, family, rank):
    # each build hands `_solve` exactly its spanning words that lead no
    # Serre relation, and no leading word is a basis word of the full solve
    rd = build_root_data(family, rank)
    ws, full = WeightSpaces(rd), WeightSpaces(rd)
    full._serre = {}
    solve, build = weightspaces._solve, WeightSpaces._build
    building, sizes = [], {}

    def spy_build(self, weight, expected):
        building.append(weight)
        return build(self, weight, expected)

    def spy_solve(vectors, v0):
        sizes[building[-1]] = len(vectors)
        return solve(vectors, v0)

    monkeypatch.setattr(WeightSpaces, "_build", spy_build)
    monkeypatch.setattr(weightspaces, "_solve", spy_solve)
    weights = [w for w in weights_up_to_height(rd, 6) if any(w)]
    for weight in weights:
        ws.space(weight)
    monkeypatch.undo()
    derived = 0
    for weight in weights:
        words = [(i,) + low for i, low in spanning(ws, weight)]
        leading = [w for w in words
                   if any(w[:len(lead)] == lead for lead in ws._serre)]
        assert not set(leading) & set(full.space(weight))
        assert sizes[weight] == len(words) - len(leading)
        derived += len(leading)
    assert derived


def test_build_checks_the_kostant_count(monkeypatch):
    # `space` hands each build its count from one Kostant walk; a count off
    # by one, given directly or by the walk, fails the build
    rd = build_root_data("B", 2)
    weight = (1, 2)
    n = kostant_partition_count(rd, weight)
    ws = WeightSpaces(rd)
    ws.space((1, 1))
    ws.space((0, 2))
    for wrong in (n - 1, n + 1):
        with pytest.raises(AssertionError, match="Kostant count"):
            ws._build(weight, wrong)
    assert ws._build(weight, n) == WeightSpaces(rd).space(weight)

    def off_by_one(rd, beta, counts):
        got = kostant_partition_count(rd, beta, counts)
        counts[beta] += 1
        return got

    monkeypatch.setattr(weightspaces, "kostant_partition_count", off_by_one)
    with pytest.raises(AssertionError, match="Kostant count"):
        WeightSpaces(rd).space(weight)


def test_negative_weight_is_refused():
    ws = WeightSpaces(build_root_data("A", 2))
    with pytest.raises(ValueError):
        ws.space((1, -1))
    assert not ws._spaces


def test_high_weight_builds_without_recursion():
    # the tables are built bottom-up, so a height-60 space needs no more
    # stack than a height-1 one
    ws = WeightSpaces(build_root_data("A", 1))
    with recursion_headroom(50):
        assert ws.space((60,)) == ((1,) * 60,)
    assert len(ws._spaces) == 61


def test_spanning_words_are_stored_once():
    # the build writes each spanning word's coordinates into the reduction
    # memo, so reducing a spanning word reads that very dict and stores no
    # second copy
    for family, rank in TABLES:
        rd = build_root_data(family, rank)
        ws = WeightSpaces(rd)
        weights = list(weights_up_to_height(rd, MAX_HEIGHT))
        for weight in weights:
            ws.space(weight)
        words = [(i,) + low for weight in weights
                 for i, low in spanning(ws, weight)]
        stored = dict(ws._reduce_memo)
        for word in words:
            assert ws.reduce_word(word) is stored[word]
        assert len(ws._reduce_memo) == len(stored)


def test_long_word_reduces_without_recursion():
    # reduce_word peels letters in a loop, so an 80-letter word needs no
    # more stack than a short one; every suffix is memoized, and a second
    # call is a memo hit
    ws = WeightSpaces(build_root_data("A", 1))
    word = (1,) * 80
    with recursion_headroom(50):
        assert ws.reduce_word(word) == {word: ONE}
    assert set(ws._reduce_memo) == {word[k:] for k in range(81)}
    assert ws.reduce_word(word) is ws._reduce_memo[word]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_tables(), indent=None) + "\n")
