"""Exact matrix realizations of the classical Lie algebras.

These serve as the brute-force oracle for the quantum layer: Chevalley
generators for types A-D, one root vector e_beta or f_{-beta} per positive
root (the target every q = 1 specialization is compared with), the
commutativity and dimension check for the fixed-part Cartan construction,
and the Cayley transform check inside an sl2-triple over Q(sqrt 2).

A matrix is a `linalg` sparse vector: a dict {(row, col): entry} that
stores no zero entry, so sums, scalings, rank and proportionality are the
vector operations and a matrix is zero exactly when it is empty.
"""

from __future__ import annotations

from fractions import Fraction

from .involutions import ThetaSystem, max_strongly_orthogonal
from .linalg import Echelon, _accumulate, add_scaled, vec_ratio
from .rootsys import build_root_data

Matrix = dict  # {(row, col): entry}, no zero entries


def unit(i: int, j: int, c=1) -> Matrix:
    return {(i, j): Fraction(c)}


def mmul(a: Matrix, b: Matrix) -> Matrix:
    """The product ab, over Q or over Q(sqrt 2)."""
    rows: dict = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    out: Matrix = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            _accumulate(out, (i, j), x * y)
    return out


def bracket(a: Matrix, b: Matrix) -> Matrix:
    return add_scaled(mmul(a, b), mmul(b, a), -1)


# ---------------------------------------------------------------------------
# Chevalley generators

def chevalley_matrices(family: str, rank: int):
    """Generators (e, f, h) of the standard realization; types A-D."""
    n = rank
    if family == "A":
        e = [unit(i, i + 1) for i in range(n)]
        f = [unit(i + 1, i) for i in range(n)]
    elif family == "B":
        # indices: 0 is the middle coordinate, 1..n and n+1..2n (= 1'..n')
        def pr(i):
            return n + i
        e, f = [], []
        for i in range(1, n):
            e.append(add_scaled(unit(i, i + 1), unit(pr(i + 1), pr(i), -1)))
            f.append(add_scaled(unit(i + 1, i), unit(pr(i), pr(i + 1), -1)))
        e.append(add_scaled(unit(n, 0), unit(0, pr(n), -1)))
        f.append(add_scaled(unit(0, n, 2), unit(pr(n), 0, -2)))
    elif family == "C":
        def pr(i):
            return n + i - 1
        e, f = [], []
        for i in range(1, n):
            e.append(add_scaled(unit(i - 1, i), unit(pr(i + 1), pr(i), -1)))
            f.append(add_scaled(unit(i, i - 1), unit(pr(i), pr(i + 1), -1)))
        e.append(unit(n - 1, pr(n)))
        f.append(unit(pr(n), n - 1))
    elif family == "D":
        def pr(i):
            return n + i - 1
        e, f = [], []
        for i in range(1, n):
            e.append(add_scaled(unit(i - 1, i), unit(pr(i + 1), pr(i), -1)))
            f.append(add_scaled(unit(i, i - 1), unit(pr(i), pr(i + 1), -1)))
        e.append(add_scaled(unit(n - 2, pr(n)), unit(n - 1, pr(n - 1), -1)))
        f.append(add_scaled(unit(pr(n), n - 2), unit(pr(n - 1), n - 1, -1)))
    else:
        raise ValueError("no matrix realization for family %r" % family)
    h = [bracket(ei, fi) for ei, fi in zip(e, f)]
    return e, f, h


def matrix_root_vector(family: str, rank: int, beta, sign: int = +1) -> Matrix:
    """Root vector e_beta (sign=+1) or f_{-beta} (sign=-1) by left-nested
    brackets, peeling the largest simple-root index whose removal leaves a
    root."""
    rd = build_root_data(family, rank)
    e, f, h = chevalley_matrices(family, rank)
    gens = e if sign > 0 else f
    if not rd.is_positive_root(beta):
        raise ValueError("not a positive root: %r" % (beta,))

    def build(b):
        if rd.height(b) == 1:
            return gens[next(i for i, c in enumerate(b) if c)]
        for k in range(rd.rank - 1, -1, -1):
            if b[k]:
                rest = tuple(c - (1 if j == k else 0) for j, c in enumerate(b))
                if rd.is_positive_root(rest):
                    return bracket(gens[k], build(rest))
        raise AssertionError("no peelable index for %r" % (b,))

    out = build(beta)
    if not out:
        raise AssertionError("vanishing root vector for %r" % (beta,))
    return out


# ---------------------------------------------------------------------------
# theta on type-A matrices

def _theta_matrix_map(ts: ThetaSystem):
    """The involution realized on sl(n+1) for AI and AIII pairs (AIV
    included, as AIII with r = 1); None for every other pair."""
    inv = ts.involution
    fam, n = inv.rd.family, inv.rd.rank
    if fam != "A":
        return None
    if inv.pair == "AI":
        return lambda x: {(j, i): -c for (i, j), c in x.items()}
    if inv.pair == "AIII":
        # conjugation by the permutation swapping i - 1 and n + 1 - i, i <= r
        r = inv.params[1]
        perm = list(range(n + 1))
        for i in range(1, r + 1):
            perm[i - 1], perm[n + 1 - i] = perm[n + 1 - i], perm[i - 1]
        return lambda x: {(perm[i], perm[j]): c for (i, j), c in x.items()}
    return None


def verify_classical_cartan(ts: ThetaSystem) -> dict:
    """Instantiate the symbolic fixed-part Cartan basis as matrices and check
    commutativity, linear independence, and (type A) theta-fixedness."""
    inv = ts.involution
    rd = inv.rd
    fam, n = rd.family, rd.rank
    if fam not in "ABCD":
        raise ValueError("matrix oracle limited to classical types")
    e, f, h = chevalley_matrices(fam, n)
    checks: dict[str, bool] = {}
    theta = _theta_matrix_map(ts)

    def h_combo(span):
        out = {}
        for i, c in span.items():
            add_scaled(out, h[i - 1], Fraction(c))
        return out

    basis = [h_combo(span) for span in inv.h_theta]
    signs = []
    sign_ok = True
    for entry in ts.entries:
        eb = matrix_root_vector(fam, n, entry.beta, +1)
        fb = matrix_root_vector(fam, n, entry.beta, -1)
        # the normalization theta(e_beta) = f_{-beta} holds up to a
        # recorded scalar in this realization; with none, e_beta + f_{-beta}
        ratio = Fraction(1) if theta is None else vec_ratio(theta(eb), fb)
        sign_ok = sign_ok and ratio is not None
        signs.append(ratio)
        basis.append(add_scaled(dict(eb), fb, ratio))
    if theta is not None:
        checks["theta_maps_e_to_f_line"] = sign_ok
        checks["theta_fixes_basis"] = sign_ok and all(
            theta(x) == x for x in basis)

    ok = True
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if bracket(basis[i], basis[j]):
                ok = False
    checks["pairwise_commuting"] = ok

    ech = Echelon()
    for x in basis:
        ech.add(x)
    checks["dimension"] = (len(ech) == inv.dim_h_theta() + len(ts.entries))
    checks["expected_dimension_matches_rank"] = (
        len(ech) == inv.dim_h_theta() + max_strongly_orthogonal(inv))
    return {"checks": checks, "signs": signs}


# ---------------------------------------------------------------------------
# the Cayley transform check over Q(sqrt 2)

class Sqrt2:
    """a + b*sqrt(2) with exact rational components."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return Sqrt2(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Sqrt2(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __mul__(self, o):
        return Sqrt2(self.a * o.a + 2 * self.b * o.b,
                     self.a * o.b + self.b * o.a)

    def inverse(self):
        d = self.a * self.a - 2 * self.b * self.b
        if not d:
            raise ZeroDivisionError
        return Sqrt2(self.a / d, -self.b / d)

    def __truediv__(self, o):
        return self * o.inverse()

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        return "(%s + %s*sqrt2)" % (self.a, self.b)


def _s2mat(rows):
    return {(i, j): x if isinstance(x, Sqrt2) else Sqrt2(x)
            for i, row in enumerate(rows) for j, x in enumerate(row) if x}


def _s2trace(m):
    return sum((x for (i, j), x in m.items() if i == j), Sqrt2(0))


def cayley_on_triple() -> dict:
    """Exact check of the Cayley rotation in the sl2-triple of a root.

    All roots share the same 2x2 triple picture, so the check is carried out
    once, there: R = exp((pi/4)(f - e)) has entries in Q(sqrt 2), conjugates h to
    e + f, and fixes the centralizer of the triple.
    """
    half = Sqrt2(0, Fraction(1, 2))     # sqrt(2)/2 = cos(pi/4) = sin(pi/4)
    r = _s2mat([[half, -half], [half, half]])
    rinv = _s2mat([[half, half], [-half, half]])
    hm = _s2mat([[1, 0], [0, -1]])
    ef = _s2mat([[0, 1], [1, 0]])
    axis = _s2mat([[0, -1], [1, 0]])
    centre = _s2mat([[3, 0], [0, 3]])
    return {
        "rotation_is_orthogonal": mmul(r, rinv) == _s2mat([[1, 0], [0, 1]]),
        "sends_h_to_e_plus_f": mmul(mmul(r, hm), rinv) == ef,
        "fixes_rotation_axis": mmul(mmul(r, axis), rinv) == axis,
        "fixes_centralizer": mmul(mmul(r, centre), rinv) == centre,
        "trace_preserved": _s2trace(ef) == _s2trace(hm) and
                           _s2trace(mmul(ef, ef)) == _s2trace(mmul(hm, hm)),
    }
