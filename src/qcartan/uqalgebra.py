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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .linalg import Echelon, _accumulate, add_scaled, kernel_basis
from .qfield import ONE, QRat, format_qrat, q_factorial, q_power
from .rootsys import RootData, build_root_data
from .weightspaces import WeightSpaces

Term = tuple  # (f_word, k_exp, e_word)


def _as_qrat(c) -> QRat:
    if isinstance(c, QRat):
        return c
    if isinstance(c, int):
        return QRat.from_int(c)
    if isinstance(c, Fraction):
        return QRat.from_fraction(c)
    raise TypeError("cannot coerce %r to a coefficient" % (c,))


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
        c = _as_qrat(c)
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

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
        self._ef_memo: dict = {}
        self.q = q_power(1)

    # -- constructors -----------------------------------------------------
    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return self.scalar(ONE)

    def scalar(self, c) -> Element:
        c = _as_qrat(c)
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

    def _check_index(self, i: int):
        if not 1 <= i <= self.rd.rank:
            raise ValueError("generator index %d out of range" % i)

    def from_terms(self, items) -> Element:
        out: dict = {}
        for t, c in items:
            _accumulate(out, t, _as_qrat(c))
        return Element(self, out)

    # -- multiplication -----------------------------------------------------
    def _ef_pass(self, v: tuple, j: int):
        """Rewrite E_v F_j as F_j E_v plus K_j^{+-1}-decorated shorter words."""
        key = (v, j)
        got = self._ef_memo.get(key)
        if got is not None:
            return got
        rd = self.rd
        out = []
        qj = self.q_i(j)
        fac = (qj - qj.inverse()).inverse()
        prefix_weight = [0] * rd.rank
        for p, letter in enumerate(v):
            if letter == j:
                ip = rd.inner(rd.simple(j), tuple(prefix_weight))
                rest = v[:p] + v[p + 1:]
                out.append((+1, q_power(-ip) * fac, rest))
                out.append((-1, -(q_power(ip) * fac), rest))
            prefix_weight[letter - 1] += 1
        self._ef_memo[key] = out
        return out

    def _times_F(self, terms: dict, j: int) -> dict:
        rd = self.rd
        alpha = rd.simple(j)
        out: dict = {}
        for (u, mu, v), c in terms.items():
            base = c * q_power(-rd.inner(mu, alpha))
            for b, cb in self.ws.reduce_word(u + (j,)).items():
                _accumulate(out, (b, mu, v), base * cb)
            for sgn, cf, rest in self._ef_pass(v, j):
                mu2 = tuple(m + sgn * a for m, a in zip(mu, alpha))
                cc = c * cf
                if len(rest) <= 1:
                    _accumulate(out, (u, mu2, rest), cc)
                else:
                    for b2, cb2 in self.ws.reduce_word(rest).items():
                        _accumulate(out, (u, mu2, b2), cc * cb2)
        return out

    def _times_K(self, terms: dict, nu, coeff=ONE) -> dict:
        rd = self.rd
        out: dict = {}
        for (u, mu, v), c in terms.items():
            wv = self.ws.word_weight(v)
            fac = q_power(-rd.inner(nu, wv)) if v else ONE
            t = (u, tuple(m + x for m, x in zip(mu, nu)), v)
            _accumulate(out, t, c * fac * coeff)
        return out

    def _times_E(self, terms: dict, k: int) -> dict:
        out: dict = {}
        for (u, mu, v), c in terms.items():
            for b, cb in self.ws.reduce_word(v + (k,)).items():
                _accumulate(out, (u, mu, b), c * cb)
        return out

    def mul(self, a: Element, b: Element) -> Element:
        total: dict = {}
        for (u2, mu2, v2), c2 in b.terms.items():
            cur = a.terms
            for j in u2:
                cur = self._times_F(cur, j)
            if any(mu2) or c2 != ONE:
                cur = self._times_K(cur, mu2, c2)
            for k in v2:
                cur = self._times_E(cur, k)
            for t, c in cur.items():
                _accumulate(total, t, c)
        return Element(self, total)

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
        return self.F(i) * a * self.Ki(i) - a * self.F(i) * self.Ki(i)

    def ad_K(self, i: int, power: int, a: Element) -> Element:
        return self.conjugate_K(a, self.rd.simple(i), power)

    def ad_generator(self, gen, a: Element) -> Element:
        kind, i = gen
        if kind == "E":
            return self.ad_E(i, a)
        if kind == "F":
            return self.ad_F(i, a)
        if kind == "K":
            return self.ad_K(i, +1, a)
        if kind == "K-":
            return self.ad_K(i, -1, a)
        raise ValueError("unknown adjoint generator %r" % (gen,))

    def ad_word(self, gens, a: Element) -> Element:
        """(ad g_1 g_2 ... g_m) a, rightmost generator acting first."""
        for gen in reversed(list(gens)):
            a = self.ad_generator(gen, a)
        return a

    # -- (anti)automorphisms ---------------------------------------------------
    def substitute(self, a: Element, f, k, e, anti: bool = False) -> Element:
        """The image of a under the (anti)homomorphism sending F_t to f(t),
        K_mu to k(mu) and E_t to e(t), applied term by term."""
        out: dict = {}
        for (u, mu, v), c in a.terms.items():
            factors = [f(t) for t in u] + [k(mu)] + [e(t) for t in v]
            acc = self.scalar(c)
            for g in (reversed(factors) if anti else factors):
                acc = acc * g
            add_scaled(out, acc.terms)
        return Element(self, out)

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

    def apply_symmetry(self, kind: str, a: Element) -> Element:
        table = {"kappa": self.kappa, "sigma": self.sigma, "phi": self.phi,
                 "phiP": self.phi_prime}
        if kind not in table:
            raise ValueError("unknown symmetry %r" % kind)
        return table[kind](a)

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

    # -- the coideal projection ---------------------------------------------------
    def project_P(self, a: Element, inv) -> Element:
        """Projection onto U^- M^+ T_theta along the complement."""
        pith = inv.pi_theta
        keep = {}
        for t, c in a.terms.items():
            u, mu, v = t
            if all(x in pith for x in v) and inv.apply(mu) == mu:
                keep[t] = c
        return Element(self, keep)

    # -- subspace computations -------------------------------------------------
    def weight_space_elements(self, sign: str, beta) -> list[Element]:
        out = []
        for w in self.ws.basis_words(self.rd.weight(beta)):
            if sign == "-":
                out.append(Element(self, {(w, self.rd.zero(), ()): ONE}))
            else:
                out.append(Element(self, {((), self.rd.zero(), w): ONE}))
        return out

    def centralizer_basis(self, sign: str, beta, subset) -> list[Element]:
        """Basis of the U_{pi'}-centralizer inside the U^{sign} weight space."""
        rd = self.rd
        beta = rd.weight(beta)
        for j in subset:
            if rd.inner(beta, rd.simple(j)):
                return []
        return self.ad_kernel(self.weight_space_elements(sign, beta),
                              [(g, j) for j in subset for g in "EF"])

    def ad_kernel(self, vectors, gens) -> list[Element]:
        """Lex-normalized basis of the combinations of vectors killed by
        ad g for every g in gens (generators as ad_generator takes them)."""
        columns = [{(g, t): c for g in gens
                    for t, c in self.ad_generator(g, x).terms.items()}
                   for x in vectors]
        out = []
        for combo in kernel_basis(columns):
            # a zero column's own coefficient is the int 1
            x: dict = {}
            for idx, c in combo.items():
                add_scaled(x, vectors[idx].terms, _as_qrat(c))
            out.append(self.lex_normalize(Element(self, x)))
        return out

    def lex_normalize(self, x: Element) -> Element:
        if x.is_zero():
            return x
        t0 = min(x.terms)
        return x.scale(x.terms[t0].inverse())

    def ad_span(self, side: str, beta, k_start: Element) -> list[Element]:
        """A basis of the span of (ad X_w) k_start over words of weight beta,
        X = F (side '-') or E (side '+'), found layer by layer in weight."""
        rd = self.rd
        target = rd.weight(beta)
        layers = {rd.zero(): [k_start]}
        order = [rd.zero()]
        for _ in range(sum(target)):
            new_order = []
            for w in order:
                for i in range(1, rd.rank + 1):
                    nw = list(w)
                    nw[i - 1] += 1
                    nw = tuple(nw)
                    if any(a > b for a, b in zip(nw, target)):
                        continue
                    if nw not in layers:
                        layers[nw] = []
                        new_order.append(nw)
                    act = self.ad_F if side == "-" else self.ad_E
                    for x in layers[w]:
                        y = act(i, x)
                        if y:
                            layers[nw].append(y)
            # trim each new layer to an independent set
            for nw in new_order:
                ech = Echelon()
                keep = []
                for x in layers[nw]:
                    if ech.add(x.terms)[0]:
                        keep.append(x)
                layers[nw] = keep
            order = new_order
            if not order:
                break
        return layers.get(target, [])

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
            gen = ("F" if sign == "-" else "E", alpha_prime)
            ys = [self.ad_generator(gen, y)
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
        if a.is_zero():
            return "0"
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
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

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
                _accumulate(coeffs, tuple(e), c * _as_qrat(w))
        for e, g in coeffs.items():
            if g and g.eval_at_one()[0] < -sum(e):
                return False
        return True

    def specialize_words(self, a: Element):
        """q -> 1, K -> 1: list of (f_word, e_word, Fraction) triples."""
        out = []
        for (u, mu, v), c in a.terms.items():
            order, value = c.eval_at_one()
            if order < 0:
                raise ValueError("negative valuation at q = 1")
            if value:
                out.append((u, v, value))
        return out


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
    """Images of all generators under T_i (direction=+1) or T_i^{-1}."""
    rd = alg.rd
    qi = alg.q_i(i)
    img = {("E", i): (alg.F(i) * alg.Ki(i)).scale(-1),
           ("F", i): (alg.Ki(i, -1) * alg.E(i)).scale(-1)}
    if direction < 0:
        # T_i^{-1} = sigma T_i sigma
        img = {g: alg.sigma(x) for g, x in img.items()}
    for j in range(1, rd.rank + 1):
        if j == i:
            continue
        r = -rd.cartan[i - 1][j - 1]
        se, sf = {}, {}
        for s in range(r + 1):
            sign = ONE if s % 2 == 0 else -ONE
            a, b = (r - s, s) if direction > 0 else (s, r - s)
            add_scaled(se, (_divided_power(alg, alg.E, i, a) * alg.E(j)
                            * _divided_power(alg, alg.E, i, b)).terms,
                       sign * qi ** (-s))
            add_scaled(sf, (_divided_power(alg, alg.F, i, b) * alg.F(j)
                            * _divided_power(alg, alg.F, i, a)).terms,
                       sign * qi ** s)
        img[("E", j)] = Element(alg, se)
        img[("F", j)] = Element(alg, sf)
    return img


class LusztigT:
    """T_i as an algebra automorphism applied term by term."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self._images: dict = {}

    def _image(self, i: int, direction: int):
        key = (i, direction)
        if key not in self._images:
            self._images[key] = lusztig_T_images(self.alg, i, direction)
        return self._images[key]

    def apply(self, i: int, direction: int, a: Element) -> Element:
        alg = self.alg
        img = self._image(i, direction)
        return alg.substitute(a, lambda t: img[("F", t)],
                              lambda mu: alg.K(alg.rd.reflect(i, mu)),
                              lambda t: img[("E", t)])

    def apply_word(self, word, a: Element, direction: int = +1) -> Element:
        """T_w for w = s_{word[0]} ... s_{word[-1]} as a reduced expression
        (direction=-1 gives T_w^{-1})."""
        seq = list(word) if direction > 0 else list(reversed(list(word)))
        for i in reversed(seq):
            a = self.apply(i, direction, a)
        return a
