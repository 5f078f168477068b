"""Maximally split involutions and their strongly orthogonal systems.

Each irreducible symmetric pair is encoded as data: the action of theta on
the simple roots, the fixed subset pi_theta, the diagram permutation p, a
maximum strongly orthogonal theta-system with distinguished simple roots and
case tags, and the spanning set of the fixed Cartan part.  Verification of
all structural conditions is algorithmic and lives in verify_theta_system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootsys import RootData, Weight, build_root_data


@dataclass(frozen=True)
class GammaEntry:
    beta: Weight
    alpha_beta: int
    alpha_beta_prime: int
    case: int


@dataclass(frozen=True)
class Involution:
    rd: RootData
    pair: str
    params: tuple
    images: tuple          # images[i-1] = theta(alpha_i) as a Weight
    pi_theta: frozenset
    p: tuple               # 1-based permutation; p[i-1] = p(i)
    h_theta: tuple         # spanning coroot combinations, dicts {i: coeff}
    s_subset: frozenset    # the table of simple roots allowed nonzero s_i

    def apply(self, lam: Weight) -> Weight:
        out = [0] * self.rd.rank
        for i, c in enumerate(lam):
            if c:
                for j, v in enumerate(self.images[i]):
                    out[j] += c * v
        return tuple(out)

    def dim_h_theta(self) -> int:
        return len(self.h_theta)

    def validate(self):
        """Check the defining invariants of a maximally split involution."""
        rd = self.rd
        n = rd.rank
        for i in range(1, n + 1):
            a = rd.simple(i)
            if self.apply(self.apply(a)) != a:
                raise AssertionError("theta is not an involution at alpha_%d" % i)
            if (self.apply(a) == a) != (i in self.pi_theta):
                raise AssertionError("pi_theta mismatch at alpha_%d" % i)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                a, b = rd.simple(i), rd.simple(j)
                if rd.inner(self.apply(a), self.apply(b)) != rd.inner(a, b):
                    raise AssertionError("theta does not preserve the form")
        if sorted(self.p) != list(range(1, n + 1)):
            raise AssertionError("p is not a permutation")
        for i in range(1, n + 1):
            if i in self.pi_theta:
                continue
            diff = tuple(-c for c in self.apply(rd.simple(i)))
            diff = tuple(d - s for d, s in
                         zip(diff, rd.simple(self.p[i - 1])))
            if any(c < 0 or c.denominator != 1 for c in diff) or \
                    not rd.support(diff) <= self.pi_theta:
                raise AssertionError("permutation condition fails at alpha_%d" % i)
        # h_theta entries must be theta-fixed directions of the Cartan part
        for span in self.h_theta:
            lam = _coroot_combo_weight(rd, span)
            if self.apply(lam) != lam:
                raise AssertionError("h_theta entry not fixed: %r" % (span,))


@dataclass(frozen=True)
class ThetaSystem:
    involution: Involution
    entries: tuple  # of GammaEntry

    @property
    def rd(self) -> RootData:
        return self.involution.rd

    def __len__(self):
        return len(self.entries)


def _coroot_combo_weight(rd: RootData, span: dict) -> Weight:
    # h_i corresponds to the coroot alpha_i^vee = alpha_i/d_i on the dual side
    out = [0] * rd.rank
    for i, c in span.items():
        out[i - 1] += Fraction(c, rd.d[i - 1])
    return tuple(out)


# ---------------------------------------------------------------------------
# the encoded pair tables

def _chain(rd, one_at, two_from, two_to, tail=()):
    c = [0] * rd.rank
    c[one_at - 1] = 1
    for k in range(two_from, two_to + 1):
        c[k - 1] = 2
    for k in tail:
        c[k - 1] += 1
    return rd.weight(c)


def _neg(rd, coords):
    return tuple(-c for c in rd.weight(coords))


def _sumroots(rd, idxs):
    c = [0] * rd.rank
    for k in idxs:
        c[k - 1] += 1
    return rd.weight(c)


def _pair_table(pair: str, n: int | None, r: int | None):
    """Return (family, rank, images, pi_theta, p, gamma, h_theta, S)."""
    if pair in ("AIV",):
        pair, r = "AIII", 1
    if pair == "BII":
        pair, r = "BI", 1
    if pair == "DII":
        pair, r = "DI-1", 1

    if pair == "AI":
        if n is None or n < 1:
            raise ValueError("AI requires rank n >= 1")
        rd = build_root_data("A", n)
        images = [_neg(rd, rd.simple(i)) for i in range(1, n + 1)]
        gamma = [GammaEntry(rd.simple(2 * j - 1), 2 * j - 1, 2 * j - 1, 1)
                 for j in range(1, (n + 1) // 2 + 1)]
        return rd, images, frozenset(), tuple(range(1, n + 1)), gamma, (), frozenset()

    if pair == "AII":
        if n is None or n < 3 or n % 2 == 0:
            raise ValueError("AII requires odd rank n >= 3")
        rd = build_root_data("A", n)
        images = []
        for i in range(1, n + 1):
            if i % 2 == 1:
                images.append(rd.simple(i))
            else:
                images.append(_neg(rd, _sumroots(rd, (i - 1, i, i + 1))))
        h = tuple({i: 1} for i in range(1, n + 1, 2))
        return (rd, images, frozenset(range(1, n + 1, 2)),
                tuple(range(1, n + 1)), [], h, frozenset())

    if pair == "AIII":
        if n is None or r is None or not 1 <= r <= (n + 1) // 2:
            raise ValueError("AIII requires 1 <= r <= (n+1)/2")
        rd = build_root_data("A", n)
        p = tuple(n - i + 1 for i in range(1, n + 1))
        images = []
        for i in range(1, n + 1):
            if r + 1 <= i <= n - r:
                images.append(rd.simple(i))
            elif i == r:
                images.append(_neg(rd, _sumroots(rd, range(r + 1, n - r + 2))
                                   if r < n - r + 1 else rd.simple(r)))
            elif i == n - r + 1 and i != r:
                images.append(_neg(rd, _sumroots(rd, range(r, n - r + 1))))
            else:
                images.append(_neg(rd, rd.simple(n - i + 1)))
        gamma = []
        for j in range(1, r + 1):
            beta = _sumroots(rd, range(j, n - j + 2))
            if j == n - j + 1:
                gamma.append(GammaEntry(beta, j, j, 1))
            else:
                gamma.append(GammaEntry(beta, j, n - j + 1, 3))
        h = tuple({j: 1} for j in range(r + 1, n - r + 1)) + \
            tuple({i: 1, n - i + 1: -1} for i in range(1, r + 1)
                  if i != n - i + 1)
        s_set = frozenset({r}) if n % 2 == 1 and r == (n + 1) // 2 else frozenset()
        return rd, images, frozenset(range(r + 1, n - r + 1)), p, gamma, h, s_set

    if pair == "BI":
        if n is None or r is None or not 1 <= r <= n or n < 2:
            raise ValueError("BI requires 1 <= r <= n, n >= 2")
        rd = build_root_data("B", n)
        images = []
        for i in range(1, n + 1):
            if i >= r + 1:
                images.append(rd.simple(i))
            elif i <= r - 1 or r == n:
                images.append(_neg(rd, rd.simple(i)))
            else:
                images.append(_neg(rd, _chain(rd, r, r + 1, n)))
        gamma = []
        half = (r - 1) // 2 if r % 2 else r // 2
        for j in range(1, half + 1):
            gamma.append(GammaEntry(_chain(rd, 2 * j - 1, 2 * j, n),
                                    2 * j, 2 * j, 2))
            gamma.append(GammaEntry(rd.simple(2 * j - 1),
                                    2 * j - 1, 2 * j - 1, 1))
        if r % 2 == 1:
            beta = _sumroots(rd, range(r, n + 1))
            if r == n:
                gamma.append(GammaEntry(beta, n, n, 1))
            else:
                gamma.append(GammaEntry(beta, r, n, 4))
        h = tuple({i: 1} for i in range(r + 1, n + 1))
        return rd, images, frozenset(range(r + 1, n + 1)), \
            tuple(range(1, n + 1)), gamma, h, frozenset()

    if pair == "CI":
        if n is None or n < 2:
            raise ValueError("CI requires rank n >= 2")
        rd = build_root_data("C", n)
        images = [_neg(rd, rd.simple(i)) for i in range(1, n + 1)]
        gamma = [GammaEntry(_chain(rd, n, j, n - 1), j, j, 2)
                 for j in range(1, n)]
        gamma.append(GammaEntry(rd.simple(n), n, n, 1))
        return (rd, images, frozenset(), tuple(range(1, n + 1)), gamma, (),
                frozenset({n}))

    if pair == "CII-1":
        if n is None or r is None or not (2 <= r <= n - 1 and r % 2 == 0):
            raise ValueError("CII-1 requires even r with 2 <= r <= n-1")
        rd = build_root_data("C", n)
        pith = frozenset(list(range(1, r, 2)) + list(range(r + 1, n + 1)))
        images = []
        for i in range(1, n + 1):
            if i in pith:
                images.append(rd.simple(i))
            elif i < r:
                images.append(_neg(rd, _sumroots(rd, (i - 1, i, i + 1))))
            else:
                images.append(_neg(rd, _chain(rd, r, r + 1, n - 1,
                                              tail=(r - 1, n))))
        gamma = [GammaEntry(_chain(rd, 2 * j - 1, 2 * j, n - 1, tail=(n,)),
                            2 * j, 2 * j - 1, 5)
                 for j in range(1, r // 2 + 1)]
        h = tuple({i: 1} for i in range(1, r, 2)) + \
            tuple({i: 1} for i in range(r + 1, n + 1))
        return rd, images, pith, tuple(range(1, n + 1)), gamma, h, frozenset()

    if pair == "CII-2":
        if n is None or n < 4 or n % 2:
            raise ValueError("CII-2 requires even rank n >= 4")
        rd = build_root_data("C", n)
        pith = frozenset(range(1, n, 2))
        images = []
        for i in range(1, n + 1):
            if i in pith:
                images.append(rd.simple(i))
            elif i < n:
                images.append(_neg(rd, _sumroots(rd, (i - 1, i, i + 1))))
            else:
                images.append(_neg(rd, _sumroots(rd, (n - 1, n - 1, n))))
        t = n // 2
        gamma = [GammaEntry(_chain(rd, 2 * j - 1, 2 * j, n - 1, tail=(n,)),
                            2 * j, 2 * j - 1, 5)
                 for j in range(1, t)]
        gamma.append(GammaEntry(_sumroots(rd, (n - 1, n)), n, n - 1, 4))
        h = tuple({i: 1} for i in range(1, n, 2))
        return rd, images, pith, tuple(range(1, n + 1)), gamma, h, frozenset()

    if pair == "DI-1":
        if n is None or r is None or not 1 <= r <= n - 2 or n < 4:
            raise ValueError("DI-1 requires 1 <= r <= n-2, n >= 4")
        rd = build_root_data("D", n)
        images = []
        for i in range(1, n + 1):
            if i >= r + 1:
                images.append(rd.simple(i))
            elif i <= r - 1:
                images.append(_neg(rd, rd.simple(i)))
            else:
                images.append(_neg(rd, _chain(rd, r, r + 1, n - 2,
                                              tail=(n - 1, n))))
        gamma = []
        if r % 2 == 1:
            for j in range(1, (r - 1) // 2 + 1):
                gamma.append(GammaEntry(
                    _chain(rd, 2 * j, 2 * j + 1, n - 2, tail=(n - 1, n)),
                    2 * j + 1, 2 * j + 1, 2))
                gamma.append(GammaEntry(rd.simple(2 * j), 2 * j, 2 * j, 1))
        else:
            for j in range(1, r // 2 + 1):
                gamma.append(GammaEntry(
                    _chain(rd, 2 * j - 1, 2 * j, n - 2, tail=(n - 1, n)),
                    2 * j, 2 * j, 2))
                gamma.append(GammaEntry(rd.simple(2 * j - 1),
                                        2 * j - 1, 2 * j - 1, 1))
        h = tuple({i: 1} for i in range(r + 1, n + 1))
        return rd, images, frozenset(range(r + 1, n + 1)), \
            tuple(range(1, n + 1)), gamma, h, frozenset()

    if pair == "DI-2":
        if n is None or n < 4:
            raise ValueError("DI-2 requires rank n >= 4")
        rd = build_root_data("D", n)
        p = list(range(1, n + 1))
        p[n - 2], p[n - 1] = n, n - 1
        images = [_neg(rd, rd.simple(p[i - 1])) for i in range(1, n + 1)]
        gamma = []
        if n % 2 == 1:
            t = (n - 1) // 2
            for j in range(1, t + 1):
                start = 2 * j - 1
                beta = _chain(rd, start, start + 1, n - 2, tail=(n - 1, n))
                if j < t:
                    gamma.append(GammaEntry(beta, 2 * j, 2 * j, 2))
                else:
                    gamma.append(GammaEntry(beta, n - 1, n, 3))
                gamma.append(GammaEntry(rd.simple(2 * j - 1),
                                        2 * j - 1, 2 * j - 1, 1))
        else:
            t = (n - 2) // 2
            for j in range(1, t + 1):
                start = 2 * j
                beta = _chain(rd, start, start + 1, n - 2, tail=(n - 1, n))
                if j < t:
                    gamma.append(GammaEntry(beta, 2 * j + 1, 2 * j + 1, 2))
                else:
                    gamma.append(GammaEntry(beta, n - 1, n, 3))
                gamma.append(GammaEntry(rd.simple(2 * j), 2 * j, 2 * j, 1))
        h = ({n - 1: 1, n: -1},)
        return rd, images, frozenset(), tuple(p), gamma, h, frozenset()

    if pair == "DI-3":
        if n is None or n < 4:
            raise ValueError("DI-3 requires rank n >= 4")
        rd = build_root_data("D", n)
        images = [_neg(rd, rd.simple(i)) for i in range(1, n + 1)]
        gamma = []
        if n % 2 == 1:
            t = (n - 1) // 2
            for j in range(1, t):
                gamma.append(GammaEntry(
                    _chain(rd, 2 * j, 2 * j + 1, n - 2, tail=(n - 1, n)),
                    2 * j + 1, 2 * j + 1, 2))
                gamma.append(GammaEntry(rd.simple(2 * j), 2 * j, 2 * j, 1))
            gamma.append(GammaEntry(rd.simple(n), n, n, 1))
            gamma.append(GammaEntry(rd.simple(n - 1), n - 1, n - 1, 1))
        else:
            t = n // 2
            for j in range(1, t):
                gamma.append(GammaEntry(
                    _chain(rd, 2 * j - 1, 2 * j, n - 2, tail=(n - 1, n)),
                    2 * j, 2 * j, 2))
                gamma.append(GammaEntry(rd.simple(2 * j - 1),
                                        2 * j - 1, 2 * j - 1, 1))
            gamma.append(GammaEntry(rd.simple(n - 1), n - 1, n - 1, 1))
            gamma.append(GammaEntry(rd.simple(n), n, n, 1))
        return (rd, images, frozenset(), tuple(range(1, n + 1)), gamma, (),
                frozenset())

    if pair == "DIII-1":
        if n is None or n < 4 or n % 2:
            raise ValueError("DIII-1 requires even rank n >= 4")
        rd = build_root_data("D", n)
        pith = frozenset(range(1, n, 2))
        images = []
        for i in range(1, n + 1):
            if i in pith:
                images.append(rd.simple(i))
            elif i < n:
                images.append(_neg(rd, _sumroots(rd, (i - 1, i, i + 1))))
            else:
                images.append(_neg(rd, rd.simple(n)))
        gamma = [GammaEntry(_chain(rd, 2 * j - 1, 2 * j, n - 2,
                                   tail=(n - 1, n)), 2 * j, 2 * j, 2)
                 for j in range(1, n // 2)]
        gamma.append(GammaEntry(rd.simple(n), n, n, 1))
        h = tuple({i: 1} for i in range(1, n, 2))
        return rd, images, pith, tuple(range(1, n + 1)), gamma, h, \
            frozenset({n})

    if pair == "DIII-2":
        if n is None or n < 5 or n % 2 == 0:
            raise ValueError("DIII-2 requires odd rank n >= 5")
        rd = build_root_data("D", n)
        pith = frozenset(range(1, n - 1, 2))
        p = list(range(1, n + 1))
        p[n - 2], p[n - 1] = n, n - 1
        images = []
        for i in range(1, n + 1):
            if i in pith:
                images.append(rd.simple(i))
            elif i <= n - 3:
                images.append(_neg(rd, _sumroots(rd, (i - 1, i, i + 1))))
            elif i == n - 1:
                images.append(_neg(rd, _sumroots(rd, (n - 2, n))))
            else:
                images.append(_neg(rd, _sumroots(rd, (n - 2, n - 1))))
        t = (n - 1) // 2
        gamma = [GammaEntry(_chain(rd, 2 * j - 1, 2 * j, n - 2,
                                   tail=(n - 1, n)), 2 * j, 2 * j, 2)
                 for j in range(1, t)]
        gamma.append(GammaEntry(_sumroots(rd, (n - 2, n - 1, n)),
                                n - 1, n, 3))
        h = tuple({i: 1} for i in range(1, n - 1, 2)) + ({n - 1: 1, n: -1},)
        return rd, images, pith, tuple(p), gamma, h, frozenset()

    if pair in ("EI", "EV", "EVIII"):
        rank = {"EI": 6, "EV": 7, "EVIII": 8}[pair]
        rd = build_root_data("E", rank)
        images = [_neg(rd, rd.simple(i)) for i in range(1, rank + 1)]
        g8 = [
            ((2, 3, 4, 6, 5, 4, 3, 2), 8, 2),
            ((2, 2, 3, 4, 3, 2, 1, 0), 1, 2),
            ((0, 1, 1, 2, 2, 2, 1, 0), 6, 2),
            ((0, 0, 0, 0, 0, 0, 1, 0), 7, 1),
            ((0, 1, 1, 2, 1, 0, 0, 0), 4, 2),
            ((0, 0, 0, 0, 1, 0, 0, 0), 5, 1),
            ((0, 0, 1, 0, 0, 0, 0, 0), 3, 1),
            ((0, 1, 0, 0, 0, 0, 0, 0), 2, 1),
        ]
        start = {"EVIII": 0, "EV": 1, "EI": 4}[pair]
        gamma = []
        for coords, ab, case in g8[start:]:
            beta = rd.weight(coords[:rank])
            gamma.append(GammaEntry(beta, ab, ab, case))
        return (rd, images, frozenset(), tuple(range(1, rank + 1)), gamma,
                (), frozenset())

    if pair == "EII":
        rd = build_root_data("E", 6)
        p = (6, 2, 5, 4, 3, 1)
        images = [_neg(rd, rd.simple(p[i - 1])) for i in range(1, 7)]
        gamma = [
            GammaEntry(rd.weight((1, 2, 2, 3, 2, 1)), 2, 2, 2),
            GammaEntry(rd.weight((1, 0, 1, 1, 1, 1)), 1, 6, 3),
            GammaEntry(rd.weight((0, 0, 1, 1, 1, 0)), 3, 5, 3),
            GammaEntry(rd.simple(4), 4, 4, 1),
        ]
        h = ({1: 1, 6: -1}, {3: 1, 5: -1})
        return rd, images, frozenset(), p, gamma, h, frozenset()

    if pair == "EIII":
        rd = build_root_data("E", 6)
        p = (6, 2, 5, 4, 3, 1)
        images = [
            _neg(rd, rd.weight((0, 0, 1, 1, 1, 1))),
            _neg(rd, rd.weight((0, 1, 1, 2, 1, 0))),
            rd.simple(3), rd.simple(4), rd.simple(5),
            _neg(rd, rd.weight((1, 0, 1, 1, 1, 0))),
        ]
        gamma = [
            GammaEntry(rd.weight((1, 2, 2, 3, 2, 1)), 2, 2, 2),
            GammaEntry(rd.weight((1, 0, 1, 1, 1, 1)), 1, 6, 3),
        ]
        h = ({3: 1}, {4: 1}, {5: 1}, {1: 1, 6: -1})
        return rd, images, frozenset({3, 4, 5}), p, gamma, h, frozenset()

    if pair == "EIV":
        rd = build_root_data("E", 6)
        images = [
            _neg(rd, rd.weight((1, 1, 2, 2, 1, 0))),
            rd.simple(2), rd.simple(3), rd.simple(4), rd.simple(5),
            _neg(rd, rd.weight((0, 1, 1, 2, 2, 1))),
        ]
        h = ({2: 1}, {3: 1}, {4: 1}, {5: 1})
        return (rd, images, frozenset({2, 3, 4, 5}), tuple(range(1, 7)),
                [], h, frozenset())

    if pair == "EVI":
        rd = build_root_data("E", 7)
        images = [
            _neg(rd, rd.simple(1)), rd.simple(2), _neg(rd, rd.simple(3)),
            _neg(rd, rd.weight((0, 1, 0, 1, 1, 0, 0))),
            rd.simple(5),
            _neg(rd, rd.weight((0, 0, 0, 0, 1, 1, 1))),
            rd.simple(7),
        ]
        gamma = [
            GammaEntry(rd.weight((2, 2, 3, 4, 3, 2, 1)), 1, 1, 2),
            GammaEntry(rd.weight((0, 1, 1, 2, 2, 2, 1)), 6, 6, 2),
            GammaEntry(rd.weight((0, 1, 1, 2, 1, 0, 0)), 4, 4, 2),
            GammaEntry(rd.simple(3), 3, 3, 1),
        ]
        h = ({2: 1}, {5: 1}, {7: 1})
        return (rd, images, frozenset({2, 5, 7}), tuple(range(1, 8)), gamma,
                h, frozenset())

    if pair == "EVII":
        rd = build_root_data("E", 7)
        images = [
            _neg(rd, rd.weight((1, 1, 2, 2, 1, 0, 0))),
            rd.simple(2), rd.simple(3), rd.simple(4), rd.simple(5),
            _neg(rd, rd.weight((0, 1, 1, 2, 2, 1, 0))),
            _neg(rd, rd.simple(7)),
        ]
        gamma = [
            GammaEntry(rd.weight((2, 2, 3, 4, 3, 2, 1)), 1, 1, 2),
            GammaEntry(rd.weight((0, 1, 1, 2, 2, 2, 1)), 6, 6, 2),
            GammaEntry(rd.simple(7), 7, 7, 1),
        ]
        h = ({2: 1}, {3: 1}, {4: 1}, {5: 1})
        return (rd, images, frozenset({2, 3, 4, 5}), tuple(range(1, 8)),
                gamma, h, frozenset({7}))

    if pair == "EIX":
        rd = build_root_data("E", 8)
        images = [
            _neg(rd, rd.weight((1, 1, 2, 2, 1, 0, 0, 0))),
            rd.simple(2), rd.simple(3), rd.simple(4), rd.simple(5),
            _neg(rd, rd.weight((0, 1, 1, 2, 2, 1, 0, 0))),
            _neg(rd, rd.simple(7)), _neg(rd, rd.simple(8)),
        ]
        gamma = [
            GammaEntry(rd.weight((2, 3, 4, 6, 5, 4, 3, 2)), 8, 8, 2),
            GammaEntry(rd.weight((2, 2, 3, 4, 3, 2, 1, 0)), 1, 1, 2),
            GammaEntry(rd.weight((0, 1, 1, 2, 2, 2, 1, 0)), 6, 6, 2),
            GammaEntry(rd.simple(7), 7, 7, 1),
        ]
        h = ({2: 1}, {3: 1}, {4: 1}, {5: 1})
        return (rd, images, frozenset({2, 3, 4, 5}), tuple(range(1, 9)),
                gamma, h, frozenset())

    if pair == "FI":
        rd = build_root_data("F", 4)
        images = [_neg(rd, rd.simple(i)) for i in range(1, 5)]
        gamma = [
            GammaEntry(rd.weight((2, 3, 4, 2)), 1, 1, 2),
            GammaEntry(rd.weight((0, 1, 2, 2)), 4, 4, 2),
            GammaEntry(rd.weight((0, 1, 2, 0)), 3, 3, 2),
            GammaEntry(rd.simple(2), 2, 2, 1),
        ]
        return (rd, images, frozenset(), (1, 2, 3, 4), gamma, (), frozenset())

    if pair == "FII":
        rd = build_root_data("F", 4)
        images = [
            rd.simple(1), rd.simple(2), rd.simple(3),
            _neg(rd, rd.weight((1, 2, 3, 1))),
        ]
        # eps_1 is orthogonal (not strongly) to alpha_3 = eps_4 as well, so
        # the second distinguished root is alpha_3
        gamma = [GammaEntry(rd.weight((1, 2, 3, 2)), 4, 3, 2)]
        h = ({1: 1}, {2: 1}, {3: 1})
        return rd, images, frozenset({1, 2, 3}), (1, 2, 3, 4), gamma, h, \
            frozenset()

    if pair == "G":
        rd = build_root_data("G", 2)
        images = [_neg(rd, rd.simple(i)) for i in (1, 2)]
        gamma = [
            GammaEntry(rd.weight((2, 1)), 1, 1, 2),
            GammaEntry(rd.simple(2), 2, 2, 1),
        ]
        return rd, images, frozenset(), (1, 2), gamma, (), frozenset()

    raise ValueError("unknown symmetric pair label %r" % pair)


PAIR_LABELS = ("AI", "AII", "AIII", "AIV", "BI", "BII", "CI", "CII-1",
               "CII-2", "DI-1", "DII", "DI-2", "DI-3", "DIII-1", "DIII-2",
               "EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII",
               "EIX", "FI", "FII", "G")


def gamma_theta(pair: str, n: int | None = None,
                r: int | None = None) -> ThetaSystem:
    """The encoded maximum strongly orthogonal theta-system of the pair."""
    rd, images, pith, p, gamma, h, s_set = _pair_table(pair, n, r)
    inv = Involution(rd, pair, (n, r), tuple(images), pith, tuple(p),
                     tuple(h), s_set)
    inv.validate()
    return ThetaSystem(inv, tuple(gamma))


def build_involution(pair: str, n: int | None = None,
                     r: int | None = None) -> Involution:
    """The maximally split involution of the named irreducible pair."""
    return gamma_theta(pair, n, r).involution


def delta_theta(inv: Involution) -> tuple:
    """All positive roots sent to their negatives by theta."""
    return tuple(b for b in inv.rd.positive_roots
                 if inv.apply(b) == tuple(-c for c in b))


def max_strongly_orthogonal(inv: Involution) -> int:
    """The size of a largest strongly orthogonal subset of Delta_theta.

    A clique search over bitsets.  Orthogonal roots are linearly
    independent and Delta_theta lies in the (-1)-eigenspace of theta, whose
    dimension (rank - trace theta)/2 bounds the answer; the search stops as
    soon as it reaches that bound.
    """
    rd = inv.rd
    roots = delta_theta(inv)
    bound = (rd.rank - sum(inv.images[i][i] for i in range(rd.rank))) // 2
    adj = [sum(1 << k for k, g in enumerate(roots)
               if rd.is_strongly_orthogonal(b, g)) for b in roots]
    best = 0

    def grow(size, cand):
        nonlocal best
        best = max(best, size)
        while cand and best < bound and size + cand.bit_count() > best:
            k = cand.bit_length() - 1
            cand ^= 1 << k
            grow(size + 1, cand & adj[k])

    grow(0, (1 << len(roots)) - 1)
    return best


# ---------------------------------------------------------------------------
# verification

def _w_beta(rd: RootData, entry: GammaEntry):
    supp = rd.support(entry.beta)
    return tuple(sorted(supp - {entry.alpha_beta, entry.alpha_beta_prime}))


def classify_case(ts: ThetaSystem, j: int) -> int:
    """Recompute the structural case of beta_j from the shape equations."""
    rd, inv = ts.rd, ts.involution
    entry = ts.entries[j - 1]
    beta, ab, abp = entry.beta, entry.alpha_beta, entry.alpha_beta_prime
    sa, sap = rd.simple(ab), rd.simple(abp)
    supp = rd.support(beta)
    wb = _w_beta(rd, entry)

    def wsum(*parts):
        out = rd.zero()
        for x in parts:
            out = tuple(a + b for a, b in zip(out, x))
        return out

    got = None
    case2_shape = beta == wsum(sa, rd.weyl_longest(
        tuple(sorted(supp - {ab})), sa))
    if beta == sa and ab == abp:
        got = 1
    elif ab == abp and case2_shape:
        got = 2
    elif ab != abp and beta == wsum(sap, rd.weyl_longest(wb, sa)):
        same_len = rd.inner(sa, sa) == rd.inner(sap, sap)
        if same_len and abp == inv.p[ab - 1] and \
                beta == rd.weyl_longest(tuple(sorted(supp - {ab})), sa):
            got = 3
        elif not same_len and \
                beta == rd.weyl_longest(tuple(sorted(supp - {abp})), sap):
            got = 4
    if got is None and ab != abp and abp in inv.pi_theta and \
            beta == wsum(sap, sa, rd.weyl_longest(wb, sa)):
        got = 5
    if got is None and ab != abp and abp in inv.pi_theta and \
            not rd.inner(beta, sap) and case2_shape:
        # FII-style: alpha' is the second distinguished root but the shape
        # collapses to the doubled-multiplicity form
        got = 2
    if got is None:
        raise ValueError("no structural case matches beta_%d" % j)
    if got != entry.case:
        raise ValueError("case tag mismatch at beta_%d: table %d, shape %d"
                         % (j, entry.case, got))
    return got


def verify_theta_system(ts: ThetaSystem) -> dict:
    """Run every named structural condition; returns a report of booleans."""
    rd, inv = ts.rd, ts.involution
    checks: dict[str, bool] = {}
    entries = ts.entries

    ok_neg = all(inv.apply(e.beta) == tuple(-c for c in e.beta)
                 for e in entries)
    checks["theta_negates_each_beta"] = ok_neg

    ok = all(rd.is_positive_root(e.beta) for e in entries)
    checks["betas_are_positive_roots"] = ok

    ok = True
    for a in range(len(entries)):
        for b in range(a + 1, len(entries)):
            if not rd.is_strongly_orthogonal(entries[a].beta, entries[b].beta):
                ok = False
    checks["pairwise_strongly_orthogonal"] = ok

    # (i) Supp(beta_i) strongly orthogonal to beta_j for i > j
    ok = True
    for jj in range(len(entries)):
        for ii in range(jj + 1, len(entries)):
            for s in rd.support(entries[ii].beta):
                if not rd.is_strongly_orthogonal(entries[jj].beta,
                                                 rd.simple(s)):
                    ok = False
    checks["later_supports_strongly_orthogonal"] = ok

    # (ii) Supp(beta) minus the distinguished roots
    ok = True
    for e in entries:
        for s in rd.support(e.beta) - {e.alpha_beta, e.alpha_beta_prime}:
            if not rd.is_strongly_orthogonal(e.beta, rd.simple(s)):
                ok = False
    checks["inner_support_strongly_orthogonal"] = ok

    # (iii) theta restricts to an involution on each support
    ok = True
    for e in entries:
        supp = rd.support(e.beta)
        for s in supp:
            if not rd.support(inv.apply(rd.simple(s))) <= supp:
                ok = False
    checks["theta_stabilizes_supports"] = ok

    # (iv) -w0 of Orth(beta) within the support permutes pi_theta there
    # (the form the commutation machinery needs; pi_theta cap Supp always
    # lies inside Orth(beta) because theta negates beta)
    ok = True
    for e in entries:
        supp = rd.support(e.beta)
        inner = inv.pi_theta & supp
        worth = tuple(sorted(s for s in supp
                             if not rd.inner(e.beta, rd.simple(s))))
        for s in inner:
            img = tuple(-c for c in rd.weyl_longest(worth, rd.simple(s)))
            if not (rd.is_positive_root(img)
                    and rd.support(img) <= inner and rd.height(img) == 1):
                ok = False
    checks["minus_w_beta_permutes_pi_theta"] = ok

    ok = True
    for jidx in range(1, len(entries) + 1):
        try:
            classify_case(ts, jidx)
        except ValueError:
            ok = False
    checks["case_shape_equations"] = ok

    checks["maximality_size"] = (
        len(entries) == max_strongly_orthogonal(inv))
    return checks


def classical_cartan_symbolic(ts: ThetaSystem) -> list:
    """Symbolic basis of the fixed-part Cartan subalgebra: the encoded
    coroot span plus one e+f pair per system root."""
    out = [("h", dict(span)) for span in ts.involution.h_theta]
    out += [("e+f", e.beta) for e in ts.entries]
    return out


def format_symbolic_basis(ts: ThetaSystem) -> list[str]:
    rd = ts.rd
    out = []
    for kind, data in classical_cartan_symbolic(ts):
        if kind == "h":
            parts = []
            for i in sorted(data):
                c = data[i]
                parts.append(("%+d*h_%d" % (c, i)) if abs(c) != 1 else
                             ("+h_%d" % i if c > 0 else "-h_%d" % i))
            s = " ".join(parts).lstrip("+")
            out.append(s)
        else:
            coords = ",".join(str(c) for c in data)
            out.append("e[%s] + f[-(%s)]" % (coords, coords))
    return out
