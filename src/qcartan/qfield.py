"""Exact rational functions in the deformation parameter.

Every scalar in the engine is an element of Q(q); the engine only forms
integer powers of q, since every exponent is a pairing (weight, root).
The variable is stored as v = q (the JSON form records "var": "v").
Polynomials are tuples of ints in ascending degree; a QRat is canonical:
the polynomial gcd of numerator and denominator is 1, the integer contents
are coprime, and the denominator has positive leading coefficient.
Canonical form makes equality structural.

Canonicalisation works in Z[v] alone. The gcd splits off the power of v
before its pseudo-remainder sequence, and the cofactors come from exact
integer division (Gauss's lemma: dividing by a primitive gcd leaves
integer quotients), so no Fraction is formed on the arithmetic path.
Division multiplies by the inverse, which swaps numerator and denominator
and fixes the sign: a canonical pair stays canonical, so it takes no gcd.

Within one engine session the same few thousand operand pairs recur, so
`+`, `*` and `q_power` remember their canonical results (memo
functions; Michie, Nature 218, 1968) in `functools.lru_cache`s.  A hit
returns the QRat already built, which is safe because a QRat is immutable
and its canonical form is unique.  Each memo holds at most MEMO_BOUND
entries and, when full, evicts its least recently used one, so the hot
entries stay whatever other traffic passes through; `clear_memos()`
empties all of them, and every `uqalgebra.Algebra` calls it when it is
built, so each session starts empty.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd


# ---------------------------------------------------------------------------
# integer polynomial helpers (tuples, ascending degree, no trailing zeros)

def _trim(coeffs) -> tuple:
    if type(coeffs) is tuple and (not coeffs or coeffs[-1]):
        return coeffs
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)   # trimmed: for trimmed a, b, lc(a) lc(b) != 0


def pshift(a: tuple, k: int) -> tuple:
    """Multiply by v**k (k >= 0)."""
    if not a:
        return ()
    return (0,) * k + tuple(a)


def pcontent(a: tuple) -> int:
    return _igcd(*a)


def pprimitive(a: tuple) -> tuple:
    """Divide out the content; force a positive leading coefficient."""
    if not a:
        return ()
    g = pcontent(a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def _pseudo_rem(a: tuple, b: tuple) -> tuple:
    # lc(b)**(deg a - deg b + 1) * a  mod  b, over the integers
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    r = list(a)
    for i in range(da, db - 1, -1):
        coef = r[i]
        if coef:
            for j in range(len(r)):
                r[j] *= lc
            for j in range(db + 1):
                r[i - db + j] -= coef * b[j]
    return _trim(r)


def pgcd(a: tuple, b: tuple) -> tuple:
    """gcd in Z[v], primitive with a positive leading coefficient.

    The power of v splits off first: gcd(v^i a', v^j b') is
    v^min(i, j) gcd(a', b') when a'(0) and b'(0) are nonzero. The primitive
    PRS (Knuth, TAOCP vol. 2, 4.6.1) runs only on the parts prime to v,
    and stops as soon as either part is a constant.
    """
    if not a or not b:
        return pprimitive(a or b)
    i = next(k for k, c in enumerate(a) if c)
    j = next(k for k, c in enumerate(b) if c)
    a, b = a[i:], b[j:]
    if len(a) > 1 and len(b) > 1:
        a, b = pprimitive(a), pprimitive(b)
        while len(b) > 1:
            a, b = b, pprimitive(_pseudo_rem(a, b))
        if not b:
            return pshift(a, min(i, j))
    return pshift((1,), min(i, j))


def pdivexact(a: tuple, b: tuple) -> tuple:
    """The quotient a / b, which must be exact over Z.

    Raises ArithmeticError when the remainder is nonzero or the quotient
    has a coefficient outside Z.
    """
    if not a:
        return ()
    db = len(b) - 1
    lc, low = b[-1], b[:-1]
    rem = list(a)
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c, r = divmod(rem[i], lc)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            out[i - db] = c
            for j, bj in enumerate(low, i - db):
                rem[j] -= c * bj
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(out)


def peval(a: tuple, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def _mult_at_one(a: tuple) -> tuple[int, tuple]:
    """Multiplicity of (v - 1) in a, plus the cofactor."""
    m = 0
    while a and sum(a) == 0:
        a = pdivexact(a, (-1, 1))
        m += 1
    return m, a


# ---------------------------------------------------------------------------

class QRat:
    """Canonical rational function in v."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=(1,)):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), (1,)
            self._hash = None
            return
        g = pgcd(num, den)
        if len(g) > 1:
            if any(g[:-1]):
                num = pdivexact(num, g)
                den = pdivexact(den, g)
            else:           # g = v^k: drop k zero low coefficients
                num, den = num[len(g) - 1:], den[len(g) - 1:]
        cn, cd = pcontent(num), pcontent(den)
        c = _igcd(cn, cd)
        if den[-1] < 0:
            c = -c
        if c != 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        self.num, self.den = num, den
        self._hash = None

    # construction -----------------------------------------------------
    @staticmethod
    def from_int(k: int) -> "QRat":
        return QRat((k,))

    @staticmethod
    def from_fraction(x) -> "QRat":
        x = Fraction(x)
        return QRat((x.numerator,), (x.denominator,))

    # predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    __bool__ = lambda self: bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return _add(self.num, self.den, other.num, other.den)

    def __neg__(self):
        q = QRat.__new__(QRat)
        q.num, q.den, q._hash = pneg(self.num), self.den, None
        return q

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.num or not other.num:
            return ZERO
        if other.num == other.den:      # only 1 has num == den
            return self
        if self.num == self.den:
            return other
        return _mul(self.num, self.den, other.num, other.den)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self) -> "QRat":
        num, den = self.den, self.num
        if not den:
            raise ZeroDivisionError("inverse of zero")
        if den[-1] < 0:
            num, den = pneg(num), pneg(den)
        q = QRat.__new__(QRat)
        q.num, q.den, q._hash = num, den, None
        return q

    def __pow__(self, k: int) -> "QRat":
        if k < 0:
            return self.inverse() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # coefficient symmetries ---------------------------------------------
    def substitute_inverse(self) -> "QRat":
        """Replace v by 1/v (so q by 1/q), re-canonicalized."""
        if not self.num:
            return ZERO
        dn, dd = len(self.num) - 1, len(self.den) - 1
        num = tuple(reversed(self.num))
        den = tuple(reversed(self.den))
        if dd >= dn:
            num = pshift(num, dd - dn)
        else:
            den = pshift(den, dn - dd)
        return QRat(num, den)

    def eval_at_one(self):
        """Order of vanishing at v=1 and the limit value when defined.

        Returns (order, value): order = mult_(v-1)(num) - mult_(v-1)(den);
        value is a Fraction when order >= 0 (0 for strictly positive order)
        and None for a pole.
        """
        if not self.num:
            return (0, Fraction(0))
        mn, rn = _mult_at_one(self.num)
        md, rd = _mult_at_one(self.den)
        order = mn - md
        if order < 0:
            return (order, None)
        if order > 0:
            return (order, Fraction(0))
        return (0, Fraction(sum(rn), sum(rd)))

    def eval_at(self, x) -> Fraction:
        x = Fraction(x)
        d = peval(self.den, x)
        if d == 0:
            raise ZeroDivisionError("pole at the evaluation point")
        return peval(self.num, x) / d

    # io ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"num": list(self.num), "den": list(self.den), "var": "v"}

    @staticmethod
    def from_json(obj) -> "QRat":
        return QRat(tuple(obj["num"]), tuple(obj["den"]))

    def __repr__(self):
        return "QRat(%s)" % format_qrat(self)


ZERO = QRat(())
ONE = QRat((1,))


def qvar() -> QRat:
    """The deformation parameter q."""
    return q_power(1)


# ---------------------------------------------------------------------------
# per-session memos of canonical results, keyed by the operands' tuples

MEMO_BOUND = 1024


@lru_cache(maxsize=MEMO_BOUND)
def _add(an: tuple, ad: tuple, bn: tuple, bd: tuple) -> QRat:
    if ad == bd:
        return QRat(padd(an, bn), ad)
    return QRat(padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd))


@lru_cache(maxsize=MEMO_BOUND)
def _mul(an: tuple, ad: tuple, bn: tuple, bd: tuple) -> QRat:
    return QRat(pmul(an, bn), pmul(ad, bd))


@lru_cache(maxsize=MEMO_BOUND)
def q_power(exponent) -> QRat:
    """q**e as an element of Q(q); e must be an integer."""
    e = Fraction(exponent)
    if e.denominator != 1:
        raise ValueError("q**%s is not an integral power of q" % exponent)
    k = e.numerator
    if k >= 0:
        return QRat(pshift((1,), k))
    return QRat((1,), pshift((1,), -k))


MEMOS = (_add, _mul, q_power)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def q_int(m: int, d: int = 1) -> QRat:
    """Quantum integer [m] in q**d: (q**(dm) - q**(-dm)) / (q**d - q**(-d))."""
    if m == 0:
        return ZERO
    qd = q_power(d)
    return (qd ** m - qd ** (-m)) / (qd - qd ** (-1))


def q_factorial(m: int, d: int = 1) -> QRat:
    out = ONE
    for k in range(2, m + 1):
        out = out * q_int(k, d)
    return out


def gauss_binomial(m: int, k: int, d: int = 1) -> QRat:
    """Gaussian binomial [m choose k] in q**d, a symmetric Laurent polynomial."""
    if k < 0 or k > m:
        raise ValueError("gauss_binomial requires 0 <= k <= m")
    out = ONE
    for i in range(1, k + 1):
        out = out * q_int(m - k + i, d) / q_int(i, d)
    return out


# ---------------------------------------------------------------------------
# rendering

def _monomial_str(coef: int, power: int, sym: str) -> str:
    if power == 0:
        return str(coef)
    if power == 1:
        head = sym
    else:
        head = "%s^%d" % (sym, power)
    if coef == 1:
        return head
    if coef == -1:
        return "-" + head
    return "%d*%s" % (coef, head)


def _poly_str(p: tuple, shift: int, sym: str) -> str:
    terms = []
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            terms.append(_monomial_str(p[i], i + shift, sym))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def format_qrat(x: QRat) -> str:
    """Render as a Laurent polynomial or a quotient of two in q."""
    if not x.num:
        return "0"
    # pull a denominator monomial q**k into negative powers of the numerator
    num, den = x.num, x.den
    nz = next(i for i, c in enumerate(den) if c)

    def render(p, shift):
        lo = next(i for i, c in enumerate(p) if c)
        return _poly_str(p[lo:], lo + shift, "q")

    top = render(num, -nz)
    bot = render(den[nz:], 0)
    if bot == "1":
        return top
    topp = top if ("+" not in top and " - " not in top) else "(%s)" % top
    botp = bot if ("+" not in bot and " - " not in bot and "^" not in bot
                   and "*" not in bot) else "(%s)" % bot
    return "%s/%s" % (topp, botp)
