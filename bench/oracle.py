"""A representation oracle: V (x) V for U_q(sl_{n+1}) at a fixed generic q.

V is the vector representation, E_i -> e_{i,i+1}, F_i -> e_{i+1,i} and
K_mu diagonal with K_mu v_a = q^{(mu, eps_a)} v_a.  The tensor square uses the
coproducts that match the engine's adjoint action,

    Delta(E_i) = E_i (x) 1 + K_i (x) E_i,
    Delta(F_i) = F_i (x) K_i^{-1} + 1 (x) F_i,
    Delta(K_mu) = K_mu (x) K_mu.

An engine element is mapped term by term, F-word * K_mu * E-word, with its
coefficients evaluated exactly at q.  Only `Element.terms` and `QRat.eval_at`
are read, so no normal-form arithmetic of the engine enters the matrices.
V alone is not enough: the old bare bracket [B_3, B_2]_q used as H'_2 at
n = 4 commutes with H'_1 on V but not on V (x) V.

Matrices are sparse: dict row -> dict col -> Fraction, with no zero entries.
"""

from __future__ import annotations

from fractions import Fraction

Q_POINT = Fraction(2)


def mat_mul(a: dict, b: dict) -> dict:
    out = {}
    for r, row in a.items():
        acc = {}
        for k, x in row.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def mat_add(a: dict, b: dict, scale=1) -> dict:
    """a + scale * b."""
    out = {r: dict(row) for r, row in a.items()}
    for r, row in b.items():
        acc = out.setdefault(r, {})
        for c, y in row.items():
            v = acc.get(c, 0) + scale * y
            if v:
                acc[c] = v
            else:
                acc.pop(c, None)
        if not acc:
            del out[r]
    return out


def commute(a: dict, b: dict) -> bool:
    return mat_mul(a, b) == mat_mul(b, a)


class TensorSquare:
    """V (x) V of U_q(sl_{rank+1}), evaluated at q = Q_POINT."""

    def __init__(self, rank: int, q: Fraction = Q_POINT):
        self.rank = rank
        self.q = Fraction(q)
        self.m = rank + 1                       # dim V
        self.dim = self.m * self.m
        self._f_words = {(): self._identity()}
        self._e_words = {(): self._identity()}

    # -- V ---------------------------------------------------------------
    def _eps(self, mu, a: int) -> int:
        """(mu, eps_a) for mu in simple-root coordinates, a = 0..rank."""
        up = mu[a] if a < self.rank else 0
        down = mu[a - 1] if a > 0 else 0
        return up - down

    def _k_diag_v(self, mu) -> list:
        return [self.q ** self._eps(mu, a) for a in range(self.m)]

    def _identity(self) -> dict:
        return {r: {r: Fraction(1)} for r in range(self.dim)}

    def _index(self, a: int, b: int) -> int:
        return a * self.m + b

    # -- generators on V (x) V --------------------------------------------
    def _simple(self, i: int) -> tuple:
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def gen_E(self, i: int) -> dict:
        # E_i (x) 1 + K_i (x) E_i; E_i maps v_{i} to v_{i-1} (0-based)
        k = self._k_diag_v(self._simple(i))
        out = {}
        for a in range(self.m):
            for b in range(self.m):
                col = self._index(a, b)
                if a == i:
                    out.setdefault(self._index(a - 1, b), {})[col] = \
                        Fraction(1)
                if b == i:
                    row = out.setdefault(self._index(a, b - 1), {})
                    row[col] = row.get(col, 0) + k[a]
        return out

    def gen_F(self, i: int) -> dict:
        # F_i (x) K_i^{-1} + 1 (x) F_i; F_i maps v_{i-1} to v_i (0-based)
        kinv = self._k_diag_v(tuple(-c for c in self._simple(i)))
        out = {}
        for a in range(self.m):
            for b in range(self.m):
                col = self._index(a, b)
                if a == i - 1:
                    out.setdefault(self._index(a + 1, b), {})[col] = kinv[b]
                if b == i - 1:
                    row = out.setdefault(self._index(a, b + 1), {})
                    row[col] = row.get(col, 0) + 1
        return out

    def k_diag(self, mu) -> list:
        kv = self._k_diag_v(mu)
        return [kv[a] * kv[b] for a in range(self.m) for b in range(self.m)]

    def _word(self, memo: dict, gen, word: tuple) -> dict:
        got = memo.get(word)
        if got is None:
            got = mat_mul(self._word(memo, gen, word[:-1]), gen(word[-1]))
            memo[word] = got
        return got

    # -- elements ------------------------------------------------------------
    def rho(self, x) -> dict:
        """The matrix of an engine element (type A, q = v)."""
        alg = x.alg
        if alg.rd.family != "A" or alg.rd.rank != self.rank or alg.npow != 1:
            raise ValueError("the oracle represents U_q(sl_%d) at N = 1"
                             % (self.rank + 1))
        out: dict = {}
        for (u, mu, v), c in x.terms.items():
            if any(Fraction(m).denominator != 1 for m in mu):
                raise ValueError("K-exponent outside the root lattice")
            mu = tuple(int(m) for m in mu)
            kd = self.k_diag(mu)
            left = self._word(self._f_words, self.gen_F, tuple(u))
            left = {r: {k: y * kd[k] for k, y in row.items()}
                    for r, row in left.items()}
            term = mat_mul(left, self._word(self._e_words, self.gen_E,
                                            tuple(v)))
            out = mat_add(out, term, c.eval_at(self.q))
        return out
