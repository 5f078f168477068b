"""Canonical bases of the U^+/U^- weight spaces.

The quantum Serre quotient is computed by weight-graded linear algebra, one
weight space at a time.  Asking for a space builds it bottom-up: every
missing weight below it, lowest height first (`rootsys.weights_below`), so
each build reads the spaces one simple root lower from the table and nothing
recurses.  One Kostant walk up to the weight asked for
(`rootsys.kostant_partition_count`) gives each build the dimension it must
reach.  A weight space is spanned by generator-times-lower-basis words;
dependencies among those are detected through the commutator maps [E_k, -],
which are injective on U^- in negative weights (the nondegeneracy of the
standard pairing).  Both signs share these tables because the E- and F-side
Serre relations are identical.

Words are tuples of 1-based simple-root indices; basis words are the
lex-least spanning words, one canonical choice per weight space.  Each fact
is stored once, in one of three flat tables:

- `_spaces`: weight -> basis words in lex order, written by `space`;
- `_ab`: (k, basis word) -> (A, B), written by `_build`, read through
  `commutator`, and by `_build` itself for the lower basis words;
- `_reduce_memo`: word -> basis coordinates.  `_build` writes each spanning
  word (a generator times a basis word one simple root lower), so any free
  word reduces by peeling letters from the left; `reduce_word` writes the
  words it reduces.

Each spanning word's stacked commutator vector is computed exactly, and the
dependencies among them are found in three steps:

1. Choose over F_P, P = 2^61 - 1: the vectors are evaluated at a point v0
   and reduced greedily in spanning order, each row keeping its
   combination of vector numbers mod P.  This decides the basis words, one
   pivot key per basis word (dim keys of about 3.7 dim) and, for each
   dependent word, the support of its relation: the earlier basis words in
   it at v0.
2. Solve exactly on the support: the support vectors and the dependent
   word, restricted to the pivot keys, are reduced by one small
   `linalg.Echelon`, which gives the word's relation over Q(v).
3. Check each relation exactly on every key.

The result is exact whatever v0 is.  Independence at a point implies
independence over Q(v), so the basis words chosen at v0 are independent,
and every dependent word carries a relation over earlier basis words
checked on all keys; together they give the lex-least basis.  A bad point
can only make a word look dependent, or a coefficient vanish and drop a
word from a support.  Then step 2 finds the word outside the span of its
support on the pivot keys, step 3 fails, or else a denominator vanishes at
v0; in each case the weight is rebuilt at the next point of POINTS.
"""

from __future__ import annotations

from .linalg import Echelon, add_scaled
from .qfield import ONE, q_power
from .rootsys import RootData, kostant_partition_count

P = (1 << 61) - 1
# tried in order; 37 is a primitive root mod P, so 37**k has multiplicative
# order at least (P - 1)/16 and no quantum integer vanishes at any of them
POINTS = tuple(pow(37, k, P) for k in range(1, 17))


class _BadPoint(Exception):
    """The evaluation point cannot choose this weight's basis."""


def _choose(vectors: list, v0: int) -> tuple:
    """Greedy echelon of the vectors at v = v0 mod P, in order.  Returns
    (chosen, supports): chosen maps the number of each vector found
    independent to its pivot key, and supports maps the number of each
    dependent one to the numbers of the earlier independent vectors in its
    relation at v0, in increasing order."""
    values: dict = {}   # QRat, keyed by its (num, den) -> value at v0

    def at(x):
        got = values.get(x)
        if got is None:
            top = bot = 0
            for c in reversed(x.num):
                top = (top * v0 + c) % P
            for c in reversed(x.den):
                bot = (bot * v0 + c) % P
            if not bot:
                raise _BadPoint("a denominator vanishes at %d" % v0)
            got = values[x] = top * pow(bot, -1, P) % P
        return got

    def subtract(out, vec, c):
        # out -= c * vec mod P, in place, keeping no zero entries
        for k, x in vec.items():
            y = (out.get(k, 0) - c * x) % P
            if y:
                out[k] = y
            else:
                del out[k]

    rows: dict = {}     # pivot key -> (row, combination), 1 at the pivot
    chosen = {}
    supports = {}
    for num, vec in enumerate(vectors):
        red = {}
        for k, x in vec.items():
            c = at(x)
            if c:
                red[k] = c
        combo = {num: 1}
        for pivot in sorted(rows):
            c = red.get(pivot)
            if c:
                row, row_combo = rows[pivot]
                subtract(red, row, c)
                subtract(combo, row_combo, c)
        if red:
            pivot = min(red)
            inv = pow(red[pivot], -1, P)
            rows[pivot] = ({k: x * inv % P for k, x in red.items()},
                           {m: x * inv % P for m, x in combo.items()})
            chosen[num] = pivot
        else:
            del combo[num]
            supports[num] = sorted(combo)
    return chosen, supports


def _solve(vectors: list, v0: int) -> dict:
    """The relation of each dependent vector over the earlier independent
    ones, as {number: {earlier number: coefficient}}, exact over Q(v).

    The basis, one pivot key per basis vector and each relation's support
    are chosen at v0.  Each relation is solved exactly on its support,
    restricted to the pivot keys, and then checked exactly on every key.
    Raises _BadPoint when a denominator vanishes at v0 or v0 hides an
    independence or a member of a support.
    """
    chosen, supports = _choose(vectors, v0)
    pivots = set(chosen.values())
    relations = {}
    for num, support in supports.items():
        ech = Echelon(track=True)
        # only the last add, the word's own, is read
        for m in support + [num]:
            is_new, rel = ech.add(
                {k: c for k, c in vectors[m].items() if k in pivots})
        if is_new:
            raise _BadPoint("the exact solve disagrees at %d" % v0)
        del rel[len(support)]
        residual = dict(vectors[num])
        for i, c in rel.items():
            add_scaled(residual, vectors[support[i]], c)
        if residual:
            raise _BadPoint("a relation fails off the pivots at %d" % v0)
        # vec = -(sum of the support vectors in its relation)
        relations[num] = {support[i]: -c for i, c in rel.items()}
    return relations


class WeightSpaces:
    """Grow-only cache of weight-space bases and reduction tables."""

    def __init__(self, rd: RootData):
        self.rd = rd
        self._spaces: dict[tuple, tuple] = {}
        self._ab: dict[tuple, tuple] = {}
        self._reduce_memo: dict[tuple, dict] = {
            w: {w: ONE} for w in [()] + [(i,) for i in range(1, rd.rank + 1)]}
        self._qafac = [None] + [
            (q_power(rd.d[i]) - q_power(-rd.d[i])).inverse()
            for i in range(rd.rank)]
        simple = {k: rd.simple(k) for k in range(1, rd.rank + 1)}
        # (k, i) -> q^{-(alpha_k, alpha_i)}
        self._qpair = {(k, i): q_power(-rd.inner(ak, ai))
                       for k, ak in simple.items() for i, ai in simple.items()}

    # -- space construction ----------------------------------------------
    def space(self, weight: tuple) -> tuple:
        """The basis words at `weight`, building it and every missing weight
        below it first, lowest height first, so that `_build` finds each
        space one simple root lower already in the tables.  One Kostant
        walk up to `weight` gives every build its expected dimension."""
        got = self._spaces.get(weight)
        if got is None:
            if any(c < 0 for c in weight):
                raise ValueError("weight not in the positive cone: %r"
                                 % (weight,))
            # one Kostant walk counts every weight below, lowest first
            counts: dict = {}
            kostant_partition_count(self.rd, weight, counts)
            for low, dim in counts.items():
                if low not in self._spaces:
                    self._spaces[low] = self._build(low, dim)
            got = self._spaces[weight]
        return got

    def dimension(self, weight: tuple) -> int:
        return len(self.space(weight))

    def basis_words(self, weight: tuple) -> tuple:
        return self.space(weight)

    def _build(self, weight: tuple, expected: int) -> tuple:
        """The basis words at `weight`, checked to number `expected` (its
        Kostant count); writes the (A, B) of each into `_ab` and every
        spanning word's basis coordinates into `_reduce_memo`."""
        rd = self.rd
        n = rd.rank
        if not any(weight):
            self._ab.update(((k, ()), ({}, {})) for k in range(1, n + 1))
            return ((),)

        # i -> coefficient of the K_i term of [E_i, F_i y] for y of weight
        # `weight - alpha_i`; the spanning words come out in lex order
        lowers = {}
        spanning = []
        for i in range(1, n + 1):
            if weight[i - 1]:
                low = weight[:i - 1] + (weight[i - 1] - 1,) + weight[i:]
                lowers[i] = self._qafac[i] * q_power(
                    -rd.inner(rd.simple(i), low))
                spanning.extend((i,) + b for b in self._spaces[low])
        memo = self._reduce_memo

        # commutator data: [E_k, x] = A_k(x) K_k + K_k^{-1} B_k(x)
        def psi(word):
            i = word[0]
            b = word[1:]
            parts = {}
            stacked = {}
            for k in range(1, n + 1):
                if k not in lowers:
                    parts[k] = ({}, {})
                    continue
                a_b, b_b = self._ab[k, b]     # b's space is built
                # F_i * (lower A/B parts), pushed into basis coords of wk
                av, bv = {}, {}
                for lw, c in a_b.items():
                    add_scaled(av, memo[(i,) + lw], c)
                fac = self._qpair[k, i]
                for lw, c in b_b.items():
                    add_scaled(bv, memo[(i,) + lw], c * fac)
                if k == i:
                    add_scaled(av, {b: lowers[i]})
                    add_scaled(bv, {b: -self._qafac[k]})
                parts[k] = (av, bv)
                for lw, c in av.items():
                    stacked[("A", k, lw)] = c
                for lw, c in bv.items():
                    stacked[("B", k, lw)] = c
            return stacked, parts

        found = [psi(word) for word in spanning]
        vectors = [stacked for stacked, _ in found]
        for v0 in POINTS:
            try:
                relations = _solve(vectors, v0)
                break
            except _BadPoint:
                continue
        else:
            raise AssertionError("no evaluation point certified %r"
                                 % (weight,))
        dim = len(spanning) - len(relations)
        if dim != expected:
            raise AssertionError(
                "weight space dimension %d != Kostant count %d at %r"
                % (dim, expected, weight))
        basis = []
        for num, word in enumerate(spanning):
            rel = relations.get(num)
            if rel is None:
                basis.append(word)
                rel = {num: ONE}
                self._ab.update(((k, word), ab)
                                for k, ab in found[num][1].items())
            memo[word] = {spanning[m]: c for m, c in rel.items()}
        return tuple(basis)

    def commutator(self, k: int, word: tuple) -> tuple:
        """(A, B) with [E_k, F_w] = A K_k + K_k^{-1} B for a basis word w, in
        basis coordinates one alpha_k lower; read on E-words (E_i <-> F_i,
        K_mu -> K_{-mu}) it gives [F_k, E_w] = A K_k^{-1} + K_k B.  The
        engine's only E-F relation: Algebra.mul reads it, and _build reads
        `_ab` itself for the lower basis words it has just built."""
        self.space(self.word_weight(word))
        return self._ab[k, word]

    # -- word reduction ----------------------------------------------------
    def reduce_word(self, word: tuple) -> dict:
        """Express a free word in basis coordinates (a shared dict).  Builds
        the word's weight, and with it every weight below, once; then peels
        letters from the left onto its longest memoized suffix, reading
        each generator-times-basis word from the memo, memoizing each."""
        word = tuple(word)
        memo = self._reduce_memo
        got = memo.get(word)
        if got is not None:
            return got
        self.space(self.word_weight(word))
        k = 0
        while word[k:] not in memo:
            k += 1
        out = memo[word[k:]]
        for i in range(k - 1, -1, -1):
            rest, out = out, {}
            for b, c in rest.items():
                add_scaled(out, memo[(word[i],) + b], c)
            memo[word[i:]] = out
        return out

    def word_weight(self, word: tuple) -> tuple:
        weight = [0] * self.rd.rank
        for t in word:
            weight[t - 1] += 1
        return tuple(weight)
