"""The quantized enveloping algebra engine.

Elements are kept in triangular normal form: each term is
F-word * K-exponent * E-word with the words in canonical weight-space basis
coordinates, so equality is structural.  Conventions:

    K_mu x K_{-mu} = q^((mu, wt x)) x          for x of weight wt
    E_i F_j - F_j E_i = delta_ij (K_i - K_i^-1)/(q_i - q_i^-1)
    (ad E_i) a = E_i a - K_i a K_i^-1 E_i
    (ad F_i) a = F_i a K_i - a F_i K_i

with q_i = q^{d_i}.  These reproduce the exchange identity
E_i F_i K_i - q^-2 F_i K_i E_i = -(q - q^-1)^-1 (1 - K_i^2) in simply laced
types and the printed coideal relations; the braid/automorphism tests pin
them down further.  Coefficients lie in Q(q) and every power of q the engine
forms is an integer.

A product a * b forms a * F_p once for each distinct prefix p of b's
F-words.  Each weight-level factor of a product (the exchange pair of
(j, v), the K-shift of (mu, j), the q-power of K_mu past E_v) is computed
once per session, by `functools.lru_cache` memos that each `Algebra` builds
over its own root data and weight spaces, so they die with it.  The two
keyed by K-exponents hold at most MEMO_BOUND entries each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product

from .linalg import Echelon, _accumulate, add_scaled, kernel_basis
from .qfield import (MEMO_BOUND, ONE, QRat, clear_memos, format_qrat,
                     q_factorial, q_power, signed_sum)
from .rootsys import RootData, build_root_data, weights_below
from .weightspaces import WeightSpaces

Term = tuple  # (f_word, k_exp, e_word)


class Element:
    """A U_q(g) element in canonical triangular form."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "Algebra", terms: dict):
        self.alg = alg
        self.terms = terms

    # -- ring structure ---------------------------------------------------
    def __add__(self, other):
        return Element(self.alg, add_scaled(dict(self.terms), other.terms))

    def __neg__(self):
        return Element(self.alg, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Element":
        c = QRat.coerce(c)
        if not c:
            return self.alg.zero()
        return Element(self.alg, {t: v * c for t, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.alg.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    __bool__ = lambda self: bool(self.terms)

    # -- structure readers --------------------------------------------------
    def ad_weight(self, term: Term):
        u, _, v = term
        ws = self.alg.ws
        return tuple(b - a for a, b in zip(ws.word_weight(u),
                                           ws.word_weight(v)))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        return "<%s>" % self.alg.render(self)

    def to_json(self) -> dict:
        out = []
        for (u, mu, v), c in self.sorted_terms():
            out.append({"f": list(u), "k": [str(x) for x in mu],
                        "e": list(v), "c": c.to_json()})
        return {"terms": out}


class Algebra:
    """Engine session over a fixed root datum."""

    npow = 1    # q = v; the V (x) V oracle in bench/ checks it

    def __init__(self, rd_or_family, rank: int | None = None):
        if isinstance(rd_or_family, RootData):
            rd = rd_or_family
        else:
            rd = build_root_data(rd_or_family, rank)
        self.rd = rd
        self.ws = WeightSpaces(rd)
        self.q = q_power(1)
        # (i, direction) -> T_i images as term dicts: cached Elements would
        # hold the session in a cycle that keeps its tables until a full gc
        self._t_images: dict = {}
        # memos of the product's weight-level factors, over rd and ws alone
        # for the same reason; the K-keyed ones are bounded, as a warm
        # session meets ever new K-exponents
        self._exchange = lru_cache(maxsize=None)(partial(_exchange, self.ws))
        self._k_shift = lru_cache(maxsize=MEMO_BOUND)(partial(_k_shift, rd))
        self._k_past_e = lru_cache(maxsize=MEMO_BOUND)(
            partial(_k_past_e, self.ws))
        clear_memos()       # each engine session starts with empty memos

    # -- constructors -----------------------------------------------------
    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return self.scalar(ONE)

    def scalar(self, c) -> Element:
        c = QRat.coerce(c)
        if not c:
            return self.zero()
        return Element(self, {((), self.rd.zero(), ()): c})

    def E(self, i: int) -> Element:
        self._check_index(i)
        return Element(self, {((), self.rd.zero(), (i,)): ONE})

    def F(self, i: int) -> Element:
        self._check_index(i)
        return Element(self, {((i,), self.rd.zero(), ()): ONE})

    def K(self, mu) -> Element:
        """K_mu for mu in the weight lattice (an int weight always is)."""
        rd = self.rd
        mu = rd.weight(mu)
        if any(isinstance(c, Fraction) for c in mu) and \
                any(rd.pairing(mu, i).denominator != 1 for i in range(rd.rank)):
            raise ValueError("K-exponent %s is outside the weight lattice"
                             % ",".join(str(c) for c in mu))
        return Element(self, {((), mu, ()): ONE})

    def Ki(self, i: int, power: int = 1) -> Element:
        self._check_index(i)
        return self.K(tuple((power if j == i - 1 else 0)
                            for j in range(self.rd.rank)))

    def q_i(self, i: int) -> QRat:
        return q_power(self.rd.d[i - 1])

    @property
    def lusztig(self) -> "LusztigT":
        return LusztigT(self)

    def _check_index(self, i: int):
        if not 1 <= i <= self.rd.rank:
            raise ValueError("generator index %d out of range" % i)

    def from_terms(self, items) -> Element:
        """The element with these (term, coefficient) pairs, whose F- and
        E-words may be free: the one place where words are reduced to the
        weight-space bases."""
        out: dict = {}
        for (u, mu, v), c in items:
            e_v = self.ws.reduce_word(v)
            for b, cb in self.ws.reduce_word(u).items():
                cb = c * cb
                for w, cw in e_v.items():
                    _accumulate(out, (b, mu, w), cb * cw)
        return Element(self, out)

    # -- multiplication -----------------------------------------------------
    def _times_F(self, terms: dict, j: int) -> dict:
        """terms * F_j, with j appended to each F-word unreduced.  The
        table's [E_j, F_v] = A K_j + K_j^{-1} B, read on E-words, gives
        E_v F_j = F_j E_v - A K_j^{-1} - K_j B, and
        A K_j^{-1} = q^((alpha_j, wt v - alpha_j)) K_j^{-1} A."""
        exchange, k_shift = self._exchange, self._k_shift
        out: dict = {}
        for (u, mu, v), c in terms.items():
            q_mu, mu_a, mu_b = k_shift(mu, j)
            _accumulate(out, (u + (j,), mu, v), c * q_mu)
            a_v, b_v, q_v = exchange(j, v)
            if a_v:
                ca = -c * q_v
                for w, cw in a_v.items():
                    _accumulate(out, (u, mu_a, w), ca * cw)
            if b_v:
                for w, cw in b_v.items():
                    _accumulate(out, (u, mu_b, w), -c * cw)
        return out

    def mul(self, a: Element, b: Element) -> Element:
        """Move b's F-words left past a's E-words, then join the K's and
        E-words (E_v K_mu = q^(-(mu, wt v)) K_mu E_v) and reduce once.
        a * F_p is formed once for each prefix p of b's F-words, from
        a * F_p' for p = p' + (j,), shared by every term of b that has it."""
        k_past_e = self._k_past_e
        left = {(): a.terms}            # F-word prefix p -> a * F_p
        for u2, _, _ in b.terms:
            for n in range(len(u2)):
                if u2[:n + 1] not in left:
                    left[u2[:n + 1]] = self._times_F(left[u2[:n]], u2[n])

        def joined():
            for (u2, mu2, v2), c2 in b.terms.items():
                for (u, mu, v), c in left[u2].items():
                    if v and any(mu2):
                        c = c * k_past_e(mu2, v)
                    yield ((u, tuple(m + x for m, x in zip(mu, mu2)),
                            v + v2), c * c2)
        return self.from_terms(joined())

    # -- adjoint action -------------------------------------------------------
    def conjugate_K(self, a: Element, mu, power: int = 1) -> Element:
        """K_mu a K_mu^{-1} (power=+1) or K_mu^{-1} a K_mu (power=-1)."""
        rd = self.rd
        mu = rd.weight(mu)
        out = {}
        for t, c in a.terms.items():
            w = a.ad_weight(t)
            out[t] = c * q_power(power * rd.inner(mu, w))
        return Element(self, out)

    def ad_E(self, i: int, a: Element) -> Element:
        return self.E(i) * a - self.conjugate_K(a, self.rd.simple(i)) * self.E(i)

    def ad_F(self, i: int, a: Element) -> Element:
        return q_comm(self.F(i), a) * self.Ki(i)

    def ad_word(self, gens, a: Element) -> Element:
        """(ad g_1 g_2 ... g_m) a, rightmost generator acting first; each
        g is ("E"|"F"|"Ki"|"Ki-", i), the expression language's symbols."""
        for kind, i in reversed(list(gens)):
            if kind == "E":
                a = self.ad_E(i, a)
            elif kind == "F":
                a = self.ad_F(i, a)
            elif kind in ("Ki", "Ki-"):
                a = self.conjugate_K(a, self.rd.simple(i),
                                     +1 if kind == "Ki" else -1)
            else:
                raise ValueError("unknown adjoint generator %r"
                                 % ((kind, i),))
        return a

    def ad_walk(self, side: str, x: Element, word) -> Element:
        """The extremal vector reached from the weight vector x by one string
        per letter j of word, in order: (ad X_j)^n with n = |<mu,
        alpha_j^vee>| at the ad-weight mu reached, then mu -> s_j(mu);
        X = E (side '+', where <mu, alpha_j^vee> <= 0) or F (side '-',
        where it is >= 0).  Raises AssertionError on a string of the wrong
        sign, or if the end vector is zero or lies off the weight
        s_{word[-1]} ... s_{word[0]}(wt x)."""
        mus = {x.ad_weight(t) for t in x.terms}
        if len(mus) != 1:
            raise ValueError("the ad walk starts at a nonzero weight vector")
        mu, = mus
        kind, sign = ("E", -1) if side == "+" else ("F", 1)
        letters = []
        for j in word:
            n = sign * self.rd.pairing(mu, j - 1)
            if n < 0:
                raise AssertionError("the alpha_%d-string at %s has the "
                                     "wrong sign for side %s" % (j, mu, side))
            letters += [(kind, j)] * n
            mu = self.rd.reflect(j, mu)
        y = self.ad_word(letters[::-1], x)
        if not y or any(y.ad_weight(t) != mu for t in y.terms):
            raise AssertionError("the ad walk does not end at a weight "
                                 "vector of weight %s" % (mu,))
        return y

    # -- (anti)automorphisms ---------------------------------------------------
    def substitute(self, a: Element, f, k, e, anti: bool = False) -> Element:
        """The image of a under the (anti)homomorphism sending F_t to f(t),
        K_mu to k(mu) and E_t to e(t), where k must send 0 to 1: K_0 is
        skipped.  By Horner's rule, longest factor prefix first: rest[p],
        the image of what follows the prefix p summed over the terms whose
        factors (reversed if anti) extend p, costs one gen(x) * rest[p+x]."""
        gen = {"F": f, "K": k, "E": e}
        rest: dict = {}
        for (u, mu, v), c in a.terms.items():
            word = [("F", t) for t in u] + [("K", mu)] * any(mu) + \
                [("E", t) for t in v]
            word = tuple(word[::-1] if anti else word)
            for n in range(len(word)):
                rest.setdefault(word[:n], {})
            rest.setdefault(word, {})[((), self.rd.zero(), ())] = c
        for p in sorted(rest, key=len, reverse=True)[:-1]:
            kind, x = p[-1]
            add_scaled(rest[p[:-1]],
                       (gen[kind](x) * Element(self, rest.pop(p))).terms)
        return Element(self, rest.get((), {}))

    def kappa(self, a: Element) -> Element:
        """The quantum Chevalley antiautomorphism."""
        return self.substitute(a, lambda t: self.Ki(t, -1) * self.E(t),
                               self.K, lambda t: self.F(t) * self.Ki(t),
                               anti=True)

    def sigma(self, a: Element) -> Element:
        """The antiautomorphism fixing E_i, F_i and inverting the K's."""
        return self.substitute(
            a, self.F, lambda mu: self.K(tuple(-m for m in mu)), self.E,
            anti=True)

    def phi(self, a: Element) -> Element:
        """Automorphism over q -> q^{-1} fixing E_i, F_i, inverting K's."""
        out: dict = {}
        for (u, mu, v), c in a.terms.items():
            _accumulate(out, (u, tuple(-m for m in mu), v),
                        c.substitute_inverse())
        return Element(self, out)

    def phi_prime(self, a: Element) -> Element:
        """Automorphism over q -> q^{-1} fixing F_iK_i and K_i^{-1}E_i.

        It is kappa phi kappa: both are automorphisms over q -> q^{-1} that
        agree on F_iK_i, K_i^{-1}E_i and K_mu."""
        return self.kappa(self.phi(self.kappa(a)))

    # -- gradings ---------------------------------------------------------------
    def biweight_components(self, a: Element) -> dict:
        out: dict = {}
        for t, c in a.terms.items():
            u, mu, v = t
            key = (tuple(-x for x in self.ws.word_weight(u)),
                   self.ws.word_weight(v))
            out.setdefault(key, {})[t] = c
        return {k: Element(self, d) for k, d in out.items()}

    def l_weight_min(self, a: Element):
        """One minimal l-weight together with its full component."""
        if a.is_zero():
            raise ValueError("zero element has no l-weight")
        lams = {}
        for t, c in a.terms.items():
            lam = self.ws.word_weight(t[0])
            lams.setdefault(lam, {})[t] = c
        keys = list(lams)
        minimal = []
        for lam in keys:
            if not any(lam2 != lam and self.rd.dominance_leq(lam, lam2)
                       for lam2 in keys):
                minimal.append(lam)
        lam = max(minimal)  # deterministic lex tie-break
        return (tuple(-c for c in lam), Element(self, lams[lam]))

    def filtration_degree(self, a: Element):
        """max over terms of ht(f-word weight) - ht(K-exponent)."""
        if a.is_zero():
            raise ValueError("zero element has no filtration degree")
        return max(len(t[0]) - self.rd.height(t[1]) for t in a.terms)

    # -- subspace computations -------------------------------------------------
    def weight_space_elements(self, beta) -> list[Element]:
        """The basis words of U^-_{-beta} as elements."""
        return [Element(self, {(w, self.rd.zero(), ()): ONE})
                for w in self.ws.space(self.rd.weight(beta))]

    def centralizer_basis(self, beta, subset) -> list[Element]:
        """Basis of the centralizer of U_{pi'}, pi' = subset, in U^-_{-beta}:
        empty unless (beta, alpha_j) = 0 for all j in pi', and otherwise the
        common kernel of the ad E_j.  Such an x is a weight-0 highest-weight
        vector for ad U_{q_j}(sl_2), on which ad F_j is locally nilpotent (a
        q-skew derivation, nilpotent on each F_i by the Serre relations), so
        x spans a trivial module and (ad F_j) x = 0 as well."""
        rd = self.rd
        beta = rd.weight(beta)
        for j in subset:
            if rd.inner(beta, rd.simple(j)):
                return []
        return self.ad_kernel(self.weight_space_elements(beta), subset)

    def ad_kernel(self, vectors, subset) -> list[Element]:
        """Lex-normalized basis of the combinations of vectors killed by
        ad E_j for every j in subset."""
        columns = [{(j, t): c for j in subset
                    for t, c in self.ad_E(j, x).terms.items()}
                   for x in vectors]
        out = []
        for combo in kernel_basis(columns):
            # a zero column's own coefficient is the int 1
            x: dict = {}
            for idx, c in combo.items():
                add_scaled(x, vectors[idx].terms, QRat.coerce(c))
            out.append(self.lex_normalize(Element(self, x)))
        return out

    def lex_normalize(self, x: Element) -> Element:
        if x.is_zero():
            return x
        t0 = min(x.terms)
        return x.scale(x.terms[t0].inverse())

    def ad_span(self, side: str, beta, k_start: Element) -> list[Element]:
        """A basis of the span of (ad X_w) k_start over words of weight beta,
        X = F (side '-') or E (side '+'), found weight by weight from below:
        at w, ad X_i for i = rank, ..., 1 on the basis kept at w - alpha_i."""
        rd = self.rd
        act = self.ad_F if side == "-" else self.ad_E
        target = rd.weight(beta)
        spans = {rd.zero(): [k_start]}
        for w in weights_below(target)[1:]:
            ech = Echelon()
            keep = spans[w] = []
            for i in range(rd.rank, 0, -1):
                low = w[:i - 1] + (w[i - 1] - 1,) + w[i:]
                for x in spans.get(low, ()):
                    y = act(i, x)
                    if y and ech.add(y.terms)[0]:
                        keep.append(y)
        return spans.get(target, [])

    def ad_submodule_membership(self, x: Element, nu_index: int,
                                sign: str = "-", alpha_prime=None) -> bool:
        """x K_{beta - 2 nu} in (ad U^{sign}) K_{-2 nu}, for homogeneous x of
        weight -beta (sign '-') or in G^+_beta (sign '+').  With alpha_prime
        the span is that of (ad X_{alpha'})(ad U^{sign}_{beta - alpha'})
        K_{-2 nu}, X = F (sign '-') or E (sign '+')."""
        if x.is_zero():
            return True
        rd = self.rd
        ws = [x.ad_weight(t) for t in x.terms]
        if len(set(ws)) != 1:
            raise ValueError("ad-submodule membership needs a weight vector")
        beta = ws[0] if sign == "+" else tuple(-c for c in ws[0])
        if any(c < 0 for c in beta):
            raise ValueError("weight outside the positive cone")
        nu = rd.fundamental_weights[nu_index - 1]
        shift = tuple(b - 2 * c for b, c in zip(beta, nu))
        start = self.K(tuple(-2 * c for c in nu))
        if alpha_prime is None:
            ys = self.ad_span(sign, beta, start)
        else:
            rest = tuple(b - a for b, a in zip(beta, rd.simple(alpha_prime)))
            act = self.ad_F if sign == "-" else self.ad_E
            ys = [act(alpha_prime, y)
                  for y in self.ad_span(sign, rest, start)]
        span = Echelon()
        for y in ys:
            span.add(y.terms)
        return span.contains((x * self.K(shift)).terms)

    # -- rendering ----------------------------------------------------------------
    def render_term(self, term: Term) -> str:
        u, mu, v = term
        parts = [" ".join("F%d" % t for t in u)]
        if any(mu):
            parts.append("K[%s]" % ",".join(str(c) for c in mu))
        parts.append(" ".join("E%d" % t for t in v))
        s = " ".join(p for p in parts if p)
        return s if s else "1"

    def render(self, a: Element) -> str:
        bits = []
        for t, c in a.sorted_terms():
            coef = format_qrat(c)
            mono = self.render_term(t)
            if mono == "1":
                piece = coef
            elif coef == "1":
                piece = mono
            elif coef == "-1":
                piece = "-" + mono
            else:
                if "+" in coef or (" - " in coef) or "/" in coef:
                    coef = "(%s)" % coef
                piece = "%s %s" % (coef, mono)
            bits.append(piece)
        return signed_sum(bits)

    # -- specialization ---------------------------------------------------------
    def in_integral_form(self, a: Element) -> bool:
        """Membership in the specialization ring at q = 1.

        Word-decorated terms need coefficients without a pole at q = 1; the
        pure torus part may combine poles, so it is expanded exactly in the
        variables (K_i - 1), whose coefficient of a degree-e monomial may
        carry a pole of order up to |e| (each (K_i-1)/(q-1) is integral).
        """
        from math import comb
        torus = {}
        for (u, mu, v), c in a.terms.items():
            if u or v:
                if c.eval_at_one()[0] < 0:
                    return False
            else:
                if any(x.denominator != 1 for x in mu):
                    raise ValueError("integral form needs root-lattice "
                                     "K-exponents")
                torus[self.rd.weight(mu)] = c
        if not torus:
            return True
        n = self.rd.rank
        shift = [max(0, -min(mu[i] for mu in torus)) for i in range(n)]
        coeffs: dict = {}
        for mu, c in torus.items():
            exps = [m + s for m, s in zip(mu, shift)]
            for e in product(*(range(m + 1) for m in exps)):
                w = 1
                for ei, mi in zip(e, exps):
                    w *= comb(mi, ei)
                _accumulate(coeffs, tuple(e), c * QRat.coerce(w))
        for e, g in coeffs.items():
            if g and g.eval_at_one()[0] < -sum(e):
                return False
        return True


def _exchange(ws: WeightSpaces, j: int, v: tuple) -> tuple:
    """(A, B, q^(d_j(<wt v, alpha_j^vee> - 2))) for E_v F_j: the table's
    [E_j, F_v] = A K_j + K_j^{-1} B and the factor A K_j^{-1} picks up."""
    rd = ws.rd
    a_v, b_v = ws.commutator(j, v)
    q_v = q_power(rd.d[j - 1] * (rd.pairing(ws.word_weight(v), j - 1) - 2))
    return a_v, b_v, q_v


def _k_shift(rd: RootData, mu, j: int) -> tuple:
    """(q^(-d_j <mu, alpha_j^vee>), mu - alpha_j, mu + alpha_j): K_mu F_j
    = q^(-(mu, alpha_j)) F_j K_mu, and the K-exponents of E_v F_j's terms."""
    alpha = rd.simple(j)
    return (q_power(-rd.d[j - 1] * rd.pairing(mu, j - 1)),
            tuple(m - a for m, a in zip(mu, alpha)),
            tuple(m + a for m, a in zip(mu, alpha)))


def _k_past_e(ws: WeightSpaces, mu, v: tuple) -> QRat:
    """q^(-(mu, wt v)), with E_v K_mu = q^(-(mu, wt v)) K_mu E_v."""
    return q_power(-ws.rd.inner(mu, ws.word_weight(v)))


def q_comm(a: Element, b: Element, scale=ONE) -> Element:
    """The q-commutator [a, b]_scale = ab - scale ba."""
    return a * b - (b * a).scale(scale)


# -- Lusztig automorphisms -----------------------------------------------------

def _divided_power(alg: Algebra, gen, i: int, s: int) -> Element:
    out = alg.one()
    for _ in range(s):
        out = out * gen(i)
    return out.scale(q_factorial(s, alg.rd.d[i - 1]).inverse())


def lusztig_T_images(alg: Algebra, i: int, direction: int = +1) -> dict:
    """Images of every E_j and F_j under T_i (direction=+1) or T_i^{-1}.
    T_i^{-1} = sigma T_i sigma, and sigma fixes each E_j and F_j, so the
    T_i^{-1} images are the sigma-images of the T_i images."""
    alg._check_index(i)
    rd = alg.rd
    qi = alg.q_i(i)
    img = {("E", i): (alg.F(i) * alg.Ki(i)).scale(-1),
           ("F", i): (alg.Ki(i, -1) * alg.E(i)).scale(-1)}
    for j in range(1, rd.rank + 1):
        if j == i:
            continue
        r = -rd.cartan[i - 1][j - 1]
        se, sf = {}, {}
        for s in range(r + 1):
            sign = ONE if s % 2 == 0 else -ONE
            add_scaled(se, (_divided_power(alg, alg.E, i, r - s) * alg.E(j)
                            * _divided_power(alg, alg.E, i, s)).terms,
                       sign * qi ** (-s))
            add_scaled(sf, (_divided_power(alg, alg.F, i, s) * alg.F(j)
                            * _divided_power(alg, alg.F, i, r - s)).terms,
                       sign * qi ** s)
        img[("E", j)] = Element(alg, se)
        img[("F", j)] = Element(alg, sf)
    if direction < 0:
        img = {g: alg.sigma(x) for g, x in img.items()}
    return img


class LusztigT:
    """T_i as an automorphism by `Algebra.substitute`."""

    def __init__(self, alg: Algebra):
        self.alg = alg

    def apply(self, i: int, direction: int, a: Element) -> Element:
        alg = self.alg
        if (i, direction) not in alg._t_images:
            img = lusztig_T_images(alg, i, direction)
            alg._t_images[i, direction] = {g: x.terms for g, x in img.items()}
        img = alg._t_images[i, direction]
        return alg.substitute(a, lambda t: Element(alg, img[("F", t)]),
                              lambda mu: alg.K(alg.rd.reflect(i, mu)),
                              lambda t: Element(alg, img[("E", t)]))

    def apply_word(self, word, a: Element, direction: int = +1) -> Element:
        """T_w for w = s_{word[0]} ... s_{word[-1]} as a reduced expression
        (direction=-1 gives T_w^{-1})."""
        seq = list(word) if direction > 0 else list(reversed(list(word)))
        for i in reversed(seq):
            a = self.apply(i, direction, a)
        return a
