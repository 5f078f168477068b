"""Finite root systems of types A-G.

Weights are tuples in the simple-root basis: int coordinates on the root
lattice, and Fractions only for weights off it (fundamental weights,
coroots, fractional K-exponents).  Inner products
follow the convention that short roots have squared length 2, so
(alpha_i, alpha_j) = d_j * a_ji with a the Cartan matrix and d the
symmetrizers.  Simple-root labelling is Bourbaki's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .linalg import kernel_basis

Weight = tuple  # of ints, or of Fractions off the root lattice

_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _cartan_matrix(family: str, n: int) -> list[list[int]]:
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j], a[j][i] = aij, aji

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if family == "B" and n >= 2:
            link(n - 2, n - 1, -1, -2)   # alpha_n short
        if family == "C" and n >= 2:
            link(n - 2, n - 1, -2, -1)   # alpha_n long
    elif family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7(-8)), node 2 hangs off 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for x, y in zip(chain, chain[1:]):
            link(x, y)
        link(1, 3)
    elif family == "F":
        link(0, 1)
        link(1, 2, -1, -2)   # alpha_1, alpha_2 long
        link(2, 3)
    elif family == "G":
        link(0, 1, -3, -1)   # alpha_1 short, alpha_2 long
    else:
        raise ValueError("unknown family %r" % family)
    return a


def _symmetrizers(family: str, n: int) -> tuple[int, ...]:
    if family == "B":
        return tuple([2] * (n - 1) + [1])
    if family == "C":
        return tuple([1] * (n - 1) + [2])
    if family == "F":
        return (2, 2, 1, 1)
    if family == "G":
        return (1, 3)
    return tuple([1] * n)


@dataclass(frozen=True)
class RootData:
    """Cartan data plus the enumerated positive roots of a finite type."""

    family: str
    rank: int
    cartan: tuple
    d: tuple
    positive_roots: tuple = field(default=(), compare=False)
    fundamental_weights: tuple = field(default=(), compare=False)

    # -- inner product ------------------------------------------------
    def inner(self, lam: Weight, mu: Weight):
        if len(lam) != self.rank or len(mu) != self.rank:
            raise ValueError("weight length does not match rank")
        total = 0
        for i, ci in enumerate(lam):
            if ci:
                for j, cj in enumerate(mu):
                    if cj:
                        total += ci * cj * self.d[j] * self.cartan[j][i]
        return total

    def pairing(self, lam: Weight, i: int):
        """<lam, alpha_i^vee> = 2(lam, alpha_i)/(alpha_i, alpha_i)."""
        return sum(self.cartan[i][j] * c for j, c in enumerate(lam) if c)

    # -- basic weight helpers ------------------------------------------
    def zero(self) -> Weight:
        return (0,) * self.rank

    def simple(self, i: int) -> Weight:
        if not 1 <= i <= self.rank:
            raise ValueError("simple root index out of range")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def weight(self, coords) -> Weight:
        """coords as a Weight: an int for each integral coordinate, a
        Fraction for the others."""
        w = tuple(f.numerator if (f := Fraction(c)).denominator == 1 else f
                  for c in coords)
        if len(w) != self.rank:
            raise ValueError("weight length does not match rank")
        return w

    def is_root(self, w: Weight) -> bool:
        return w in self._root_set

    def is_positive_root(self, w: Weight) -> bool:
        return w in self._positive_set

    @property
    def _positive_set(self):
        return _positive_set(self)

    @property
    def _root_set(self):
        return _root_set(self)

    # -- Weyl group ------------------------------------------------------
    def reflect(self, i: int, lam: Weight) -> Weight:
        c = self.pairing(lam, i - 1)
        if not c:
            return lam
        out = list(lam)
        out[i - 1] -= c
        return tuple(out)

    def longest_word(self, subset) -> tuple[int, ...]:
        """A reduced word for w(pi')_0, found by the descent algorithm.

        The word (i_1, ..., i_k) means w0 = s_{i_k} ... s_{i_1} acting as
        lam -> s_{i_k}(... s_{i_1}(lam)).
        """
        subset = tuple(sorted(subset))
        return _longest_word(self, subset)

    def weyl_longest(self, subset, lam: Weight) -> Weight:
        for i in self.longest_word(subset):
            lam = self.reflect(i, lam)
        return lam

    # -- statistics -------------------------------------------------------
    def support(self, lam: Weight) -> frozenset:
        return frozenset(i + 1 for i, c in enumerate(lam) if c)

    def height(self, lam: Weight):
        return sum(lam)

    def height_tau(self, lam: Weight, tau):
        tau = set(tau)
        return sum(c for i, c in enumerate(lam) if i + 1 in tau)

    # -- orthogonality ------------------------------------------------------
    def is_strongly_orthogonal(self, beta: Weight, gamma: Weight) -> bool:
        if not (self.is_positive_root(beta) and self.is_positive_root(gamma)):
            raise ValueError("strong orthogonality is defined for positive roots")
        if self.inner(beta, gamma):
            return False
        return not self.is_root(tuple(b + c for b, c in zip(beta, gamma)))

    def strorth_simples(self, beta: Weight) -> frozenset:
        return frozenset(
            i for i in range(1, self.rank + 1)
            if self.is_strongly_orthogonal(beta, self.simple(i)))

    def dominance_leq(self, lam: Weight, mu: Weight) -> bool:
        """lam <= mu in the standard order: mu - lam in Q^+(pi)."""
        return all((d := m - l) >= 0 and d.denominator == 1
                   for l, m in zip(lam, mu))


def _valid(family: str, rank: int) -> bool:
    lo = {"A": 1, "B": 2, "C": 2, "D": 4, "F": 4, "G": 2}
    if family == "E":
        return rank in (6, 7, 8)
    if family in ("F", "G"):
        return rank == lo[family]
    return rank >= lo.get(family, 1)


@lru_cache(maxsize=None)
def build_root_data(family: str, rank: int) -> RootData:
    """Construct Cartan data, positive roots and fundamental weights."""
    if not _valid(family, rank):
        raise ValueError("invalid type %s%d" % (family, rank))
    cartan = tuple(tuple(r) for r in _cartan_matrix(family, rank))
    d = _symmetrizers(family, rank)
    rd = RootData(family, rank, cartan, d)

    # positive roots by closure along root strings, height by height
    simple = [rd.simple(i) for i in range(1, rank + 1)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(rank):
                p = 0
                cur = tuple(b - s for b, s in zip(beta, simple[i]))
                while any(cur) and cur in roots:
                    p += 1
                    cur = tuple(b - s for b, s in zip(cur, simple[i]))
                if p - rd.pairing(beta, i) > 0:
                    new = tuple(b + s for b, s in zip(beta, simple[i]))
                    if new not in roots:
                        roots.add(new)
                        nxt.append(new)
        layer = nxt
    positive = tuple(sorted(roots, key=lambda w: (sum(w), w)))
    if len(positive) != _POSITIVE_ROOT_COUNTS[family](rank):
        raise AssertionError("positive root count mismatch for %s%d"
                             % (family, rank))

    # fundamental weights: (nu_i, alpha_j) = delta_ij d_j
    fund = tuple(_solve_fundamental(rd, i) for i in range(rank))

    object.__setattr__(rd, "positive_roots", positive)
    object.__setattr__(rd, "fundamental_weights", fund)
    return rd


def _solve_fundamental(rd: RootData, i: int) -> Weight:
    # x with sum_k x_k (alpha_k, alpha_j) = delta_ij d_j is -c_k / c_n for
    # the one kernel vector c of the columns (alpha_k, alpha_j)_j and the
    # right-hand side
    n = rd.rank
    cols = [{j: Fraction(rd.d[j] * rd.cartan[j][k]) for j in range(n)
             if rd.cartan[j][k]} for k in range(n)]
    (c,) = kernel_basis(cols + [{i: Fraction(rd.d[i])}])
    return tuple(-c.get(k, Fraction(0)) / c[n] for k in range(n))


@lru_cache(maxsize=None)
def _positive_set(rd: RootData) -> frozenset:
    return frozenset(rd.positive_roots)


@lru_cache(maxsize=None)
def _root_set(rd: RootData) -> frozenset:
    neg = [tuple(-c for c in w) for w in rd.positive_roots]
    return frozenset(rd.positive_roots) | frozenset(neg)


@lru_cache(maxsize=None)
def _longest_word(rd: RootData, subset: tuple) -> tuple[int, ...]:
    if not subset:
        return ()
    # descent on 2 rho', the sum of the subsystem's positive roots
    sub = set(subset)
    cur = rd.zero()
    for beta in rd.positive_roots:
        if rd.support(beta) <= sub:
            cur = tuple(a + b for a, b in zip(cur, beta))
    word = []
    while True:
        for i in sorted(sub):
            if rd.inner(cur, rd.simple(i)) > 0:
                cur = rd.reflect(i, cur)
                word.append(i)
                break
        else:
            break
    n_pos = sum(1 for beta in rd.positive_roots if rd.support(beta) <= sub)
    if len(word) != n_pos:
        raise AssertionError("descent did not reach the longest element")
    return tuple(word)


def kostant_partition_count(rd: RootData, beta: Weight) -> int:
    """Number of multisets of positive roots summing to beta (independent
    enumeration; the oracle for PBW weight-space dimensions)."""
    roots = rd.positive_roots

    def count(target, idx):
        if not any(target):
            return 1
        if idx == len(roots):
            return 0
        r = roots[idx]
        total = 0
        cur = target
        while True:
            total += count(cur, idx + 1)
            cur = tuple(a - b for a, b in zip(cur, r))
            if any(c < 0 for c in cur):
                break
        return total

    if any(c < 0 or c.denominator != 1 for c in beta):
        return 0
    return count(beta, 0)


def weights_up_to_height(rd: RootData, maxht: int):
    """All nonzero beta in Q^+(pi) with ht(beta) <= maxht."""
    rng = range(maxht + 1)
    for coords in itertools.product(rng, repeat=rd.rank):
        h = sum(coords)
        if 0 < h <= maxht:
            yield rd.weight(coords)
