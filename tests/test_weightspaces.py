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
from qcartan.qfield import ONE
from qcartan.rootsys import build_root_data, weights_up_to_height
from qcartan.weightspaces import WeightSpaces

GOLDEN = pathlib.Path(__file__).parent / "golden" / "weight_tables.json"
TABLES = (("G", 2), ("B", 3))
MAX_HEIGHT = 5


def spanning(ws: WeightSpaces, weight: tuple) -> list:
    """(i, b) for each spanning word (i,) + b at `weight`, b a basis word
    one simple root lower, in lex order."""
    return [(i, low) for i in range(1, len(weight) + 1) if weight[i - 1]
            for low in ws.basis_words(
                weight[:i - 1] + (weight[i - 1] - 1,) + weight[i:])]


def tables(family: str, rank: int) -> list:
    rd = build_root_data(family, rank)
    ws = WeightSpaces(rd)
    out = []
    for weight in sorted(weights_up_to_height(rd, MAX_HEIGHT)):
        out.append({
            "weight": list(weight),
            "basis": [list(w) for w in ws.basis_words(weight)],
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


@pytest.mark.parametrize("bad,reason", [
    # 1/(q^d - q^{-d}) has the denominator v^{2d} - 1
    (1, "a denominator vanishes at 1"),
    # a primitive cube root of unity, where [3]_q = 0 and an independent
    # word of B3 looks dependent; only the check off the pivots sees it
    (pow(37, (weightspaces.P - 1) // 3, weightspaces.P),
     "a relation fails off the pivots"),
])
def test_bad_point_is_redrawn(monkeypatch, bad, reason):
    monkeypatch.setattr(weightspaces, "POINTS", (bad,) + weightspaces.POINTS)
    failures = _failures(monkeypatch)
    assert tables("B", 3) == _golden("B", 3)
    assert failures
    assert all(f.startswith(reason) for f in failures)


@pytest.mark.parametrize("drop,reasons", [
    # losing the first pivot leaves later basis vectors dependent on the
    # remaining pivots, or their relations fail off them
    (min, {"the exact solve disagrees", "a relation fails off the pivots"}),
    # losing the last one makes that vector look dependent
    (max, {"a relation fails off the pivots"})])
def test_dropped_independent_word_is_caught(monkeypatch, drop, reasons):
    # the choice at the first point loses one independent vector; the exact
    # steps must refuse every such choice, and the next point repairs it
    choose = weightspaces._choose
    dropped = []

    def lossy(vectors, v0):
        chosen = choose(vectors, v0)
        if v0 == weightspaces.POINTS[0] and chosen:
            del chosen[drop(chosen)]
            dropped.append(v0)
        return chosen

    monkeypatch.setattr(weightspaces, "_choose", lossy)
    failures = _failures(monkeypatch)
    assert tables("G", 2) == _golden("G", 2)
    assert dropped and len(failures) == len(dropped)
    assert {f.split(" at ")[0] for f in failures} == reasons


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
