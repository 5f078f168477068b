"""Canonical bases of the U^+/U^- weight spaces.

The quantum Serre quotient is computed by weight-graded linear algebra, one
weight space at a time and inductively in height.  A weight space is spanned
by generator-times-lower-basis words; dependencies among those are detected
through the commutator maps [E_k, -], which are injective on U^- in negative
weights (the nondegeneracy of the standard pairing).  Both signs share these
tables because the E- and F-side Serre relations are identical.

Words are tuples of 1-based simple-root indices; the stored reduction data
expresses every generator-times-basis product in basis coordinates, so any
free word reduces by peeling letters from the left.  Basis words are the
lex-least spanning words, giving one canonical choice per weight space.
"""

from __future__ import annotations

from .linalg import Echelon, add_scaled
from .qfield import ONE, q_power
from .rootsys import RootData, kostant_partition_count


class _Space:
    __slots__ = ("basis", "coords", "ab")

    def __init__(self, basis, coords, ab):
        self.basis = basis      # tuple of basis words, lex order
        self.coords = coords    # (i, lower_word) -> {basis_word: QRat}
        self.ab = ab            # (k, basis_word) -> (A_vec, B_vec) dicts


class WeightSpaces:
    """Grow-only cache of weight-space bases and reduction tables."""

    def __init__(self, rd: RootData):
        self.rd = rd
        self._spaces: dict[tuple, _Space] = {}
        self._reduce_memo: dict[tuple, dict] = {}
        self._qafac = [None] + [
            (q_power(rd.d[i]) - q_power(-rd.d[i])).inverse()
            for i in range(rd.rank)]
        simple = {k: rd.simple(k) for k in range(1, rd.rank + 1)}
        # (k, i) -> q^{-(alpha_k, alpha_i)}
        self._qpair = {(k, i): q_power(-rd.inner(ak, ai))
                       for k, ak in simple.items() for i, ai in simple.items()}

    # -- space construction ----------------------------------------------
    def space(self, weight: tuple) -> _Space:
        got = self._spaces.get(weight)
        if got is None:
            got = self._build(weight)
            self._spaces[weight] = got
        return got

    def dimension(self, weight: tuple) -> int:
        return len(self.space(weight).basis)

    def basis_words(self, weight: tuple) -> tuple:
        return self.space(weight).basis

    def _build(self, weight: tuple) -> _Space:
        rd = self.rd
        n = rd.rank
        if any(c < 0 for c in weight):
            raise ValueError("weight not in the positive cone: %r" % (weight,))
        ht = sum(weight)
        if ht == 0:
            return _Space(((),), {}, {(k, ()): ({}, {})
                                      for k in range(1, n + 1)})

        # i -> (coefficient of the K_i term of [E_i, F_i y], space of y)
        # for y of weight `weight - alpha_i`
        lowers = {}
        for i in range(1, n + 1):
            if weight[i - 1]:
                low = tuple(c - (1 if j == i - 1 else 0)
                            for j, c in enumerate(weight))
                g = self._qafac[i] * q_power(-rd.inner(rd.simple(i), low))
                lowers[i] = (g, self.space(low))

        spanning = sorted((i,) + b for i, (_, sp) in lowers.items()
                          for b in sp.basis)

        # commutator data: [E_k, x] = A_k(x) K_k + K_k^{-1} B_k(x)
        ab_new: dict = {}

        def psi(word):
            i = word[0]
            b = word[1:]
            g = lowers[i][0]
            out_a, out_b = {}, {}
            stacked = {}
            for k in range(1, n + 1):
                if k not in lowers:
                    out_a[k], out_b[k] = {}, {}
                    continue
                spk = lowers[k][1]
                a_b, b_b = self.commutator(k, b)
                # F_i * (lower A/B parts), pushed into basis coords of wk
                av, bv = {}, {}
                for lw, c in a_b.items():
                    add_scaled(av, spk.coords[(i, lw)], c)
                fac = self._qpair[k, i]
                for lw, c in b_b.items():
                    add_scaled(bv, spk.coords[(i, lw)], c * fac)
                if k == i:
                    add_scaled(av, {b: g})
                    add_scaled(bv, {b: -self._qafac[k]})
                out_a[k], out_b[k] = av, bv
                for lw, c in av.items():
                    stacked[("A", k, lw)] = c
                for lw, c in bv.items():
                    stacked[("B", k, lw)] = c
            return stacked, out_a, out_b

        ech = Echelon(track=True)
        basis = []
        coords = {}
        for num, word in enumerate(spanning):
            stacked, out_a, out_b = psi(word)
            is_new, rel = ech.add(stacked)
            key = (word[0], word[1:])
            if is_new:
                basis.append(word)
                coords[key] = {word: ONE}
                for k in range(1, n + 1):
                    ab_new[(k, word)] = (out_a[k], out_b[k])
            else:
                # word = -(sum of the earlier words in its relation)
                coords[key] = {spanning[m]: -c for m, c in rel.items()
                               if m != num}
        sp = _Space(tuple(basis), coords, ab_new)

        expected = kostant_partition_count(rd, weight)
        if len(basis) != expected:
            raise AssertionError(
                "weight space dimension %d != Kostant count %d at %r"
                % (len(basis), expected, weight))
        return sp

    def commutator(self, k: int, word: tuple) -> tuple:
        """(A, B) with [E_k, F_w] = A K_k + K_k^{-1} B for a basis word w, in
        basis coordinates one alpha_k lower; read on E-words (E_i <-> F_i,
        K_mu -> K_{-mu}) it gives [F_k, E_w] = A K_k^{-1} + K_k B.  The
        engine's only E-F relation: _build and Algebra.mul both read it."""
        return self.space(self.word_weight(word)).ab[(k, word)]

    # -- word reduction ----------------------------------------------------
    def reduce_word(self, word: tuple) -> dict:
        """Express a free word in canonical basis coordinates."""
        word = tuple(word)
        if len(word) <= 1:
            return {word: ONE}
        got = self._reduce_memo.get(word)
        if got is not None:
            return got
        i = word[0]
        rest = self.reduce_word(word[1:])
        sp = self.space(self.word_weight(word))
        out: dict = {}
        for b, c in rest.items():
            add_scaled(out, sp.coords[(i, b)], c)
        self._reduce_memo[word] = out
        return out

    def word_weight(self, word: tuple) -> tuple:
        weight = [0] * self.rd.rank
        for t in word:
            weight[t - 1] += 1
        return tuple(weight)
