"""Exact matrix realizations of the classical Lie algebras.

These serve as the brute-force oracle for the quantum layer: Chevalley
generators for types A-D, one root vector e_beta or f_{-beta} per positive
root (the target every q = 1 specialization is compared with), the
commutativity and dimension check for the fixed-part Cartan construction,
and the Cayley transform check inside an sl2-triple over Q(sqrt 2).
"""

from __future__ import annotations

from fractions import Fraction

from .involutions import ThetaSystem, max_strongly_orthogonal
from .linalg import Echelon, vec_ratio
from .rootsys import build_root_data

Matrix = tuple  # of tuples of Fractions


def zeros(n: int) -> Matrix:
    return tuple((Fraction(0),) * n for _ in range(n))


def unit(n: int, i: int, j: int, c=1) -> Matrix:
    return tuple(tuple(Fraction(c) if (a, b) == (i, j) else Fraction(0)
                       for b in range(n)) for a in range(n))


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mscale(a: Matrix, c) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def msub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mmul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col) if x and y)
                       for col in bt) for row in a)


def bracket(a: Matrix, b: Matrix) -> Matrix:
    return msub(mmul(a, b), mmul(b, a))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_vec(a: Matrix) -> dict:
    """Flatten to a sparse coordinate vector for rank computations."""
    return {(i, j): x for i, row in enumerate(a)
            for j, x in enumerate(row) if x}


# ---------------------------------------------------------------------------
# Chevalley generators

def chevalley_matrices(family: str, rank: int):
    """Generators (e, f, h) of the standard realization; types A-D."""
    n = rank
    if family == "A":
        m = n + 1
        e = [unit(m, i, i + 1) for i in range(n)]
        f = [unit(m, i + 1, i) for i in range(n)]
    elif family == "B":
        # indices: 0 is the middle coordinate, 1..n and n+1..2n (= 1'..n')
        m = 2 * n + 1

        def pr(i):
            return n + i
        e, f = [], []
        for i in range(1, n):
            e.append(madd(unit(m, i, i + 1), unit(m, pr(i + 1), pr(i), -1)))
            f.append(madd(unit(m, i + 1, i), unit(m, pr(i), pr(i + 1), -1)))
        e.append(madd(unit(m, n, 0), unit(m, 0, pr(n), -1)))
        f.append(madd(unit(m, 0, n, 2), unit(m, pr(n), 0, -2)))
    elif family == "C":
        m = 2 * n

        def pr(i):
            return n + i - 1
        e, f = [], []
        for i in range(1, n):
            e.append(madd(unit(m, i - 1, i), unit(m, pr(i + 1), pr(i), -1)))
            f.append(madd(unit(m, i, i - 1), unit(m, pr(i), pr(i + 1), -1)))
        e.append(unit(m, n - 1, pr(n)))
        f.append(unit(m, pr(n), n - 1))
    elif family == "D":
        m = 2 * n

        def pr(i):
            return n + i - 1
        e, f = [], []
        for i in range(1, n):
            e.append(madd(unit(m, i - 1, i), unit(m, pr(i + 1), pr(i), -1)))
            f.append(madd(unit(m, i, i - 1), unit(m, pr(i), pr(i + 1), -1)))
        e.append(madd(unit(m, n - 2, pr(n)), unit(m, n - 1, pr(n - 1), -1)))
        f.append(madd(unit(m, pr(n), n - 2), unit(m, pr(n - 1), n - 1, -1)))
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
    if is_zero(out):
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
    m = n + 1
    if inv.pair == "AI":
        return lambda x: mscale(transpose(x), -1)
    if inv.pair == "AIII":
        r = inv.params[1]
        perm = list(range(m))
        for i in range(1, r + 1):
            perm[i - 1], perm[m - i] = perm[m - i], perm[i - 1]
        pm = tuple(tuple(Fraction(1 if perm[a] == b else 0)
                         for b in range(m)) for a in range(m))
        return lambda x: mmul(mmul(pm, x), pm)
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
        out = zeros(len(h[0]))
        for i, c in span.items():
            out = madd(out, mscale(h[i - 1], Fraction(c)))
        return out

    basis = [h_combo(span) for span in inv.h_theta]
    signs = []
    sign_ok = True
    for entry in ts.entries:
        eb = matrix_root_vector(fam, n, entry.beta, +1)
        fb = matrix_root_vector(fam, n, entry.beta, -1)
        if theta is not None:
            img = theta(eb)
            # the normalization theta(e_beta) = f_{-beta} holds up to a
            # recorded scalar in this realization
            ratio = vec_ratio(mat_vec(img), mat_vec(fb))
            if ratio is None:
                sign_ok = False
                basis.append(madd(eb, fb))
                signs.append(None)
            else:
                basis.append(madd(eb, mscale(fb, ratio)))
                signs.append(ratio)
        else:
            basis.append(madd(eb, fb))
            signs.append(Fraction(1))
    if theta is not None:
        checks["theta_maps_e_to_f_line"] = sign_ok
        checks["theta_fixes_basis"] = sign_ok and all(
            theta(x) == x for x in basis)

    ok = True
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not is_zero(bracket(basis[i], basis[j])):
                ok = False
    checks["pairwise_commuting"] = ok

    ech = Echelon()
    for x in basis:
        ech.add(mat_vec(x))
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
    return tuple(tuple(x if isinstance(x, Sqrt2) else Sqrt2(x) for x in row)
                 for row in rows)


def _s2mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(
        _s2sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _s2sum(items):
    out = Sqrt2(0)
    for x in items:
        out = out + x
    return out


def cayley_on_triple() -> dict:
    """Exact check of the Cayley rotation in the sl2-triple of a root.

    All roots share the same 2x2 triple picture, so the check is carried out
    once, there: R = exp((pi/4)(f - e)) has entries in Q(sqrt 2), conjugates h to
    e + f, and fixes the centralizer of the triple.
    """
    half = Sqrt2(0, Fraction(1, 2))     # sqrt(2)/2 = cos(pi/4) = sin(pi/4)
    r = _s2mat([[half, -half], [half, half]])
    rinv = _s2mat([[half, half], [-half, half]])
    e = _s2mat([[0, 1], [0, 0]])
    f = _s2mat([[0, 0], [1, 0]])
    hm = _s2mat([[1, 0], [0, -1]])
    conj = _s2mul(_s2mul(r, hm), rinv)
    ef = _s2mat([[0, 1], [1, 0]])
    checks = {
        "rotation_is_orthogonal": _s2mul(r, rinv) == _s2mat([[1, 0], [0, 1]]),
        "sends_h_to_e_plus_f": conj == ef,
        "fixes_rotation_axis": _s2mul(_s2mul(r, _s2mat([[0, -1], [1, 0]])),
                                      rinv) == _s2mat([[0, -1], [1, 0]]),
        "fixes_centralizer": _s2mul(_s2mul(r, _s2mat([[3, 0], [0, 3]])),
                                    rinv) == _s2mat([[3, 0], [0, 3]]),
        "trace_preserved": _s2sum(ef[i][i] for i in range(2)) ==
                           _s2sum(hm[i][i] for i in range(2)) and
                           _s2sum(_s2mul(ef, ef)[i][i] for i in range(2)) ==
                           _s2sum(_s2mul(hm, hm)[i][i] for i in range(2)),
    }
    return checks
