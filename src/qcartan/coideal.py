"""Quantum symmetric pair coideal subalgebras and their Cartan elements.

Builds the generators B_i = F_i + theta_q(F_i K_i) K_i^{-1} + s_i K_i^{-1},
the projection-completion algorithm (F_i -> B_i on each projection defect,
by `Algebra.substitute`), membership testing, the lifts of the lower root
vectors for all five structural cases, and the quantum Cartan elements H_j
together with the full verification suite.

Scalar conventions: theta_q(F_i K_i) is normalized so its lex-least word has
coefficient 1, and the parameters c_i of the paper are all 1.  The s_i
default to 0, which for pi_theta empty gives the generators
B_i = F_i + E_{p(i)} K_i^{-1} used in the rank-one and rank-two worked
examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classical import chevalley_matrices, matrix_root_vector, mmul
from .involutions import Involution, ThetaSystem
from .linalg import add_scaled, vec_ratio
from .qfield import QRat, ZERO
from .uqalgebra import Algebra, Element, q_comm


@dataclass
class CoidealParams:
    """A coideal subalgebra session: involution plus parameter choices."""

    involution: Involution
    algebra: Algebra = None
    s: dict = field(default_factory=dict)

    def __post_init__(self):
        inv = self.involution
        if self.algebra is None:
            self.algebra = Algebra(inv.rd)
        self.s = {i: QRat.coerce(val) for i, val in self.s.items()}
        for i in range(1, inv.rd.rank + 1):
            if i not in inv.pi_theta:
                self.s.setdefault(i, ZERO)
        for i, val in self.s.items():
            if val and i not in inv.s_subset:
                raise ValueError(
                    "s_%d must vanish: alpha_%d is not in the S table" % (i, i))
            if val and val.eval_at_one()[0] < 0:
                raise ValueError("s_%d has a pole at q = 1" % i)
        self._B: dict = {}
        self._h_prime: dict = {}

    # -- theta_q on the F_i K_i generators ---------------------------------
    def theta_q_FK(self, i: int) -> Element:
        """Highest-weight vector of the (ad M)-module generated by E_{p(i)},
        at weight theta(-alpha_i) = w_X(alpha_{p(i)}), normalized with
        lex-least coefficient 1: the ad-E walk from the lowest-weight
        vector E_{p(i)} along a reduced word of w_X."""
        inv, alg = self.involution, self.algebra
        if i in inv.pi_theta:
            raise ValueError("theta_q(F_i K_i) is built for alpha_i "
                             "outside pi_theta")
        word = alg.rd.longest_word(inv.pi_theta)
        return alg.lex_normalize(alg.ad_walk("+", alg.E(inv.p[i - 1]), word))

    # -- generators -----------------------------------------------------------
    def B(self, i: int) -> Element:
        if i in self._B:
            return self._B[i]
        inv, alg = self.involution, self.algebra
        if i in inv.pi_theta:
            out = alg.F(i)
        else:
            out = alg.F(i) + self.theta_q_FK(i) * alg.Ki(i, -1)
            if self.s[i]:
                out = out + alg.Ki(i, -1).scale(self.s[i])
        self._B[i] = out
        return out

    def t_theta_generators(self) -> list[Element]:
        """Generators of the theta-fixed torus T_theta: K_mu with
        mu = sum c_i alpha_i for each combination {i: c_i} of h_theta."""
        alg = self.algebra
        rank = alg.rd.rank
        return [alg.K(tuple(span.get(i, 0) for i in range(1, rank + 1)))
                for span in self.involution.h_theta]

    # -- completion against the projection -------------------------------------
    def project(self, x: Element) -> Element:
        """Projection onto U^- M^+ T_theta along the complement."""
        inv = self.involution
        pith = inv.pi_theta
        keep = {}
        for t, c in x.terms.items():
            u, mu, v = t
            if all(y in pith for y in v) and inv.apply(mu) == mu:
                keep[t] = c
        return Element(self.algebra, keep)

    def complete_to_projection(self, target: Element) -> Element:
        """The unique b in B_theta with P(b) = target: add the image of the
        projection defect target - P(b) under F_i -> B_i, K_mu and E_i
        fixed (one `Algebra.substitute`, whose k = alg.K sends 0 to 1),
        and take P of that step off the defect, P being linear, until the
        defect vanishes.  Each round must lower the defect's filtration
        degree; the first round that does not raises AssertionError."""
        alg = self.algebra
        if self.project(target) != target:
            raise ValueError("completion target must lie in U^- M^+ T_theta")
        b = alg.zero()
        defect, degree = target, None
        while not defect.is_zero():
            d = alg.filtration_degree(defect)
            if degree is not None and d >= degree:
                raise AssertionError(
                    "completion failed to terminate: the defect's filtration "
                    "degree went from %d to %d" % (degree, d))
            degree = d
            step = alg.substitute(defect, self.B, alg.K, alg.E)
            b = b + step
            defect = defect - self.project(step)
        return b

    def membership(self, x: Element) -> bool:
        return self.complete_to_projection(self.project(x)) == x

    # -- lifts of the lower root vectors ----------------------------------------
    def lift_Y(self, ts: ThetaSystem, j: int) -> Element:
        """The distinguished element of U^-_{-beta_j}; construction by case."""
        alg = self.algebra
        rd = alg.rd
        entry = ts.entries[j - 1]
        beta, case = entry.beta, entry.case
        ab, abp = entry.alpha_beta, entry.alpha_beta_prime
        if case == 1:
            return alg.F(ab)
        if case == 2:
            return self._centralizer_line(beta, ab)
        k_minus_beta = alg.K(tuple(-c for c in beta))
        if case == 3:
            # beta = w(alpha_beta), w the longest element on Supp beta - ab
            word = rd.longest_word(rd.support(beta) - {ab})
            y = alg.ad_walk("-", alg.F(ab) * alg.Ki(ab), word) * k_minus_beta
        elif case == 4:
            y = self._ad_F_chain(alg.F(ab), beta, ab, abp)
        elif case == 5:
            beta_p = tuple(b - c for b, c in zip(beta, rd.simple(abp)))
            y = alg.ad_F(abp, self._centralizer_line(beta_p, ab)
                         * alg.K(beta_p)) * k_minus_beta
        else:
            raise ValueError("unknown case tag %r" % case)
        return alg.lex_normalize(y)

    def _centralizer_line(self, beta, ab: int) -> Element:
        """The centralizer of U_{Supp beta - alpha_ab} in U^-_{-beta};
        raises AssertionError unless it is a line."""
        alg = self.algebra
        basis = alg.centralizer_basis(
            beta, tuple(sorted(alg.rd.support(beta) - {ab})))
        if len(basis) != 1:
            raise AssertionError("centralizer at weight %s is %d-dimensional"
                                 % (",".join(map(str, beta)), len(basis)))
        return basis[0]

    def _ad_F_chain(self, head: Element, beta, ab: int, abp: int) -> Element:
        """(ad F_{c_m} ... ad F_{c_2})(head K_{c_1}) K_{-beta}, where
        c_1 = alpha_beta, ..., c_m = alpha'_beta is the support of beta in
        Bourbaki order, from alpha_beta to the short root alpha'_beta."""
        alg = self.algebra
        chain = sorted(alg.rd.support(beta), reverse=ab > abp)
        if (chain[0], chain[-1]) != (ab, abp):
            raise AssertionError("the support of beta does not run from "
                                 "alpha_%d to alpha_%d" % (ab, abp))
        y = head * alg.Ki(ab)
        for t in chain[1:]:
            y = alg.ad_F(t, y)
        return y * alg.K(tuple(-c for c in beta))

    def type_b_pair(self, beta, ab: int, abp: int):
        """Paired upper/lower root vectors (X, Y) with X + Y in B_theta,
        from the ad-F-chain applied to the generator at the chain head."""
        alg = self.algebra
        rd = alg.rd
        if not rd.support(beta) - {ab} <= self.involution.pi_theta:
            raise ValueError("type-B pair needs the chain tail inside "
                             "pi_theta")
        u = self._ad_F_chain(self.B(ab), beta, ab, abp)
        comps = alg.biweight_components(u)
        zero = rd.zero()
        x = comps.get((zero, tuple(beta)), alg.zero())
        y = comps.get((tuple(-c for c in beta), zero), alg.zero())
        if (x + y) != u:
            raise AssertionError("unexpected extra biweights in type-B pair")
        return x, y

    # -- the H' generators of the rank-one family ---------------------------------
    def h_prime(self, j: int) -> Element:
        """Nested q-commutator generators for the pi_theta-empty A family.

        With r = ceil(n/2), the middle generator is H'_r = B_r for odd n and

            H'_r = [B_{r+1}, B_r]_q
                   - (q^{-1} K_{a_r - a_{r+1}} - K_{a_{r+1} - a_r})/(q - q^{-1})

        for even n: the torus term of the rank-one Cartan identity, with no
        constant term.  Below the middle,
        H'_j = [B_{n-j+1}, [H'_{j+1}, B_j]_q]_q.
        """
        alg = self.algebra
        n = alg.rd.rank
        r = (n + 1) // 2
        if not 1 <= j <= r:
            raise ValueError("h_prime index out of range")
        if j in self._h_prime:
            return self._h_prime[j]
        q = alg.q
        if j == r and n % 2 == 1:
            out = self.B(r)
        elif j == r:
            torus = (alg.Ki(r) * alg.Ki(r + 1, -1)).scale(q ** -1) \
                - alg.Ki(r, -1) * alg.Ki(r + 1)
            out = q_comm(self.B(r + 1), self.B(r), q) \
                - torus.scale((q - q ** -1).inverse())
        else:
            inner = q_comm(self.h_prime(j + 1), self.B(j), q)
            out = q_comm(self.B(n - j + 1), inner, q)
        self._h_prime[j] = out
        return out

    def w_lowest(self, j: int) -> Element:
        """W_j: the nested q-commutator of the plain F's."""
        alg = self.algebra
        n = alg.rd.rank
        q = alg.q
        out = alg.F(j)
        for t in range(j + 1, n - j + 2):
            out = q_comm(alg.F(t), out, q)
        return out


# ---------------------------------------------------------------------------
# Cartan elements and their verification


@dataclass
class CartanReport:
    j: int
    H: Element
    Y: Element
    C: Element
    X: Element
    s_scalar: QRat
    checks: dict
    scalars: dict

    def ok(self) -> bool:
        return all(self.checks.values())


def cartan_element(params: CoidealParams, ts: ThetaSystem,
                   j: int) -> CartanReport:
    """Construct H_j = X + C + s(K_{-beta}-1) + Y and verify its structure."""
    alg = params.algebra
    rd = alg.rd
    inv = params.involution
    entry = ts.entries[j - 1]
    beta = entry.beta
    minus_beta = tuple(-c for c in beta)
    zero = rd.zero()

    y_lift = params.lift_Y(ts, j)
    completed = params.complete_to_projection(y_lift)

    # normalize the (0,0) part, where alone H differs, to s(K_{-beta} - 1)
    comps = alg.biweight_components(completed)
    part00 = comps.get((zero, zero), alg.zero())
    s_scalar = part00.terms.get(((), minus_beta, ()), ZERO)
    const = part00.terms.get(((), zero, ()), ZERO)
    H = completed - alg.scalar(const + s_scalar)
    Y = comps.get((minus_beta, zero), alg.zero())
    X = comps.get((zero, tuple(beta)), alg.zero())
    s_part = part00 - alg.scalar(const + s_scalar)
    C = H - Y - X - s_part

    checks: dict = {}
    scalars: dict = {"s": s_scalar, "constant": const}

    # P restricted to B_theta kills K_{-beta} (theta negates beta), so the
    # projection of H is the lift minus the s constant
    checks["projection_is_lift"] = \
        params.project(H) == Y - alg.scalar(s_scalar)

    # (i) part locations
    checks["Y_in_lower_weight_space"] = all(
        t[1] == zero and not t[2] for t in Y.terms)
    checks["X_in_upper_part"] = all(
        t[1] == minus_beta and not t[0] for t in X.terms)
    checks["s_part_shape"] = s_part == alg.K(minus_beta).scale(s_scalar) \
        - alg.scalar(s_scalar)
    tau = {entry.alpha_beta, inv.p[entry.alpha_beta - 1]}
    supp = rd.support(beta)
    ok = True
    for (u, mu, v), c in C.terms.items():
        wu = alg.ws.word_weight(u)
        wv = alg.ws.word_weight(v)
        if rd.height_tau(wu, tau) != 1 or rd.height_tau(wv, tau) != 1:
            ok = False
        if not (set(u) | set(v)) <= supp:
            ok = False
    checks["C_in_middle_space"] = ok
    checks["Y_matches_lift"] = alg.lex_normalize(Y) == y_lift if Y else False

    # (ii) ad-submodule membership
    checks["Y_in_ad_submodule"] = alg.ad_submodule_membership(
        Y, entry.alpha_beta, "-")
    checks["X_in_ad_submodule"] = alg.ad_submodule_membership(
        X, entry.alpha_beta, "+")
    if entry.case == 5:
        checks["Y_through_ad_F_alpha_prime"] = alg.ad_submodule_membership(
            Y, entry.alpha_beta, "-", entry.alpha_beta_prime)

    # (iii) commutation with the strongly orthogonal part and with T_theta
    pij = sorted(rd.strorth_simples(beta))
    ok_xy = True
    for sdx in pij:
        for g in (alg.E(sdx), alg.F(sdx), alg.Ki(sdx)):
            if (g * X - X * g) or (g * Y - Y * g):
                ok_xy = False
    checks["X_Y_commute_with_strorth"] = ok_xy
    ok_h = True
    for sdx in pij:
        if sdx in inv.pi_theta:
            gens = [alg.E(sdx), alg.F(sdx), alg.Ki(sdx)]
        elif rd.support(inv.apply(rd.simple(sdx))) <= set(pij) | inv.pi_theta:
            gens = [params.B(sdx)]
        else:
            gens = []
        for g in gens:
            if g * H != H * g:
                ok_h = False
    for t in params.t_theta_generators():
        if t * H != H * t:
            ok_h = False
    checks["H_commutes_with_coideal_part"] = ok_h

    # kappa-pairing: kappa(Y) proportional to X
    ratio = vec_ratio(X.terms, alg.kappa(Y).terms)
    checks["kappa_pairing"] = ratio is not None
    scalars["kappa_ratio"] = ratio

    # specialization against the classical oracle
    if rd.family in "ABCD":
        checks.update(_specialization_checks(alg, entry, Y, X, scalars))
    return CartanReport(j, H, Y, C, X, s_scalar, checks, scalars)


def specialize_to_matrix(alg: Algebra, x: Element, side: str):
    """q -> 1, K -> 1 evaluation of a pure F-part (side '-') or E-part
    (side '+') as an exact matrix in the classical realization."""
    rd = alg.rd
    e, f, h = chevalley_matrices(rd.family, rd.rank)
    gens = f if side == "-" else e
    out = {}
    for (u, mu, v), c in x.terms.items():
        order, val = c.eval_at_one()
        if order < 0:
            raise ValueError("negative valuation at q = 1")
        if not val:
            continue
        word = u if side == "-" else v
        if not word:
            raise ValueError("scalar term in a pure-word specialization")
        m = gens[word[0] - 1]
        for t in word[1:]:
            m = mmul(m, gens[t - 1])
        add_scaled(out, m, val)
    return out


def _specialization_ratio(alg: Algebra, x: Element, beta, sign: int):
    """The scalar r with x|_{q=1} = r f_{-beta} (sign -1) or r e_beta
    (sign +1) in the classical realization, or None if there is none."""
    rd = alg.rd
    xmat = specialize_to_matrix(alg, x, "-" if sign < 0 else "+")
    return vec_ratio(xmat, matrix_root_vector(rd.family, rd.rank, beta, sign))


def _specialization_checks(alg: Algebra, entry, Y: Element, X: Element,
                           scalars: dict) -> dict:
    out = {}
    try:
        ry = _specialization_ratio(alg, Y, entry.beta, -1)
        out["Y_specializes_to_root_vector"] = ry is not None
        scalars["Y_specialization_ratio"] = ry
        rx = _specialization_ratio(alg, X, entry.beta, +1)
        out["X_specializes_to_root_vector"] = rx is not None
        scalars["X_specialization_ratio"] = rx
    except ValueError as exc:
        out["specialization_valuations"] = False
        scalars["specialization_error"] = str(exc)
    return out


# ---------------------------------------------------------------------------
# the full suite for the pi_theta-empty A family


def require_suite_pair(inv: Involution):
    """Raise ValueError unless inv is the AIII/AIV pair with pi_theta empty,
    the one family verify_cartan_suite is defined for."""
    n = inv.rd.rank
    if inv.rd.family != "A" or inv.pi_theta or \
            inv.p != tuple(range(n, 0, -1)):
        raise ValueError("the Cartan suite needs an AIII/AIV pair with "
                         "pi_theta empty")


def verify_cartan_suite(params: CoidealParams, ts: ThetaSystem,
                        deep: bool = True) -> dict:
    """Checks (a)-(h) for AIII/AIV with pi_theta empty."""
    alg = params.algebra
    rd = alg.rd
    inv = params.involution
    require_suite_pair(inv)
    n = rd.rank
    r = (n + 1) // 2
    q = alg.q
    p = lambda i: n - i + 1
    report: dict = {}

    # (a) the defining relations of the generators
    ok = True
    for i in range(1, n + 1):
        for jj in range(1, n + 1):
            if i == jj:
                continue
            a = rd.cartan[i - 1][jj - 1]
            Bi, Bj = params.B(i), params.B(jj)
            if a == 0:
                lhs = Bi * Bj - Bj * Bi
                rhs = alg.zero()
                if p(i) == jj:
                    kp = alg.Ki(p(i)) * alg.Ki(i, -1)
                    km = alg.Ki(p(i), -1) * alg.Ki(i)
                    rhs = (kp - km).scale((q - q ** -1).inverse())
                ok = ok and lhs == rhs
            else:
                lhs = Bi * Bi * Bj - (Bi * Bj * Bi).scale(q + q ** -1) \
                    + Bj * Bi * Bi
                if i == p(i):
                    rhs = Bj.scale(q)
                elif i == p(jj):
                    kp = alg.Ki(p(i)) * alg.Ki(i, -1)
                    km = alg.Ki(p(i), -1) * alg.Ki(i)
                    rhs = ((kp.scale(q ** -2) + km.scale(q)) * Bi
                           ).scale(-(q + q ** -1))
                else:
                    rhs = alg.zero()
                ok = ok and lhs == rhs
    report["generator_relations"] = ok

    hps = {j: params.h_prime(j) for j in range(1, r + 1)}
    ws = {j: params.w_lowest(j) for j in range(1, r + 1)}

    # (b) pairwise commutativity
    report["h_prime_pairwise_commute"] = all(
        (hps[a_] * hps[b_] - hps[b_] * hps[a_]).is_zero()
        for a_ in range(1, r + 1) for b_ in range(a_ + 1, r + 1))

    # (c) commutation with T_theta
    tgens = params.t_theta_generators()
    report["h_prime_commute_with_torus"] = all(
        (t * hps[j] - hps[j] * t).is_zero()
        for j in range(1, r + 1) for t in tgens)

    # (d) P(H'_j) - W_j lies in the span of lower W's over T_theta
    ok = True
    for j in range(1, r + 1):
        resid = params.project(hps[j]) - ws[j]
        lower = {k: (ws[k], ws[k]) for k in ws if k > j}
        if _torus_span(params, lower, resid) is None:
            ok = False
    report["projection_in_torus_span"] = ok

    # (e) minimal l-weight component
    ok = True
    for j in range(1, r + 1):
        lw, comp = alg.l_weight_min(hps[j])
        if lw != tuple(-c for c in ts.entries[j - 1].beta) or comp != ws[j]:
            ok = False
    report["lowest_component_is_w"] = ok

    # (f) specialization of the extreme biweight parts
    ok = True
    details = {}
    for j in range(1, r + 1):
        beta = ts.entries[j - 1].beta
        if not alg.in_integral_form(hps[j]):
            ok = False
            continue
        comps = alg.biweight_components(hps[j])
        low = comps.get((tuple(-c for c in beta), rd.zero()), alg.zero())
        high = comps.get((rd.zero(), beta), alg.zero())
        ratio_f = _specialization_ratio(alg, low, beta, -1)
        ratio_e = _specialization_ratio(alg, high, beta, +1)
        details[j] = (ratio_f, ratio_e)
        if ratio_f not in (1, -1) or ratio_e not in (1, -1):
            ok = False
    report["specialization"] = ok
    report["specialization_signs"] = details

    # (g) per-root Cartan reports
    if deep:
        reps = {}
        ok = True
        for j in range(1, r + 1):
            rep = cartan_element(params, ts, j)
            reps[j] = rep
            if not rep.ok():
                ok = False
        report["cartan_elements"] = ok
        report["cartan_reports"] = reps

        # (h) each H_j lies in the T_theta-span of H'_j, ..., H'_r
        ok = True
        sols = {}
        for j in range(1, r + 1):
            gens = {k: (hps[k], ws[k]) for k in hps if k >= j}
            sol = _torus_span(params, gens, reps[j].H)
            sols[j] = sol
            if sol is None:
                ok = False
        report["h_in_h_prime_span"] = ok
        report["h_prime_coefficients"] = sols
    return report


def _torus_span(params: CoidealParams, gens: dict, x: Element):
    """Solve x = sum_k g_k t_k + t_0 with t_k, t_0 in T_theta by peeling.

    gens = {k: (g_k, W_k)} with W_k the minimal l-weight component of g_k,
    a pure F-element; the W_k have distinct weights, so in increasing k the
    component of the remainder at W_k's l-weight fixes t_k, one K-exponent
    at a time.  Returns {k: t_k, 0: t_0} or None.
    """
    alg = params.algebra
    fixed = lambda mu: params.involution.apply(mu) == mu
    resid = dict(x.terms)
    sol = {}
    for k in sorted(gens):
        if not resid:
            break
        g, wk = gens[k]
        lw = alg.ws.word_weight(min(wk.terms)[0])
        groups: dict = {}
        for (u, mu, v), c in resid.items():
            if alg.ws.word_weight(u) == lw:
                if v:
                    return None
                groups.setdefault(mu, {})[u] = c
        if not groups:
            continue
        base = {t[0]: c for t, c in wk.terms.items()}
        coeff: dict = {}
        for mu, vec in groups.items():
            ratio = vec_ratio(vec, base)
            if ratio is None or not fixed(mu):
                return None
            add_scaled(coeff, alg.K(mu).terms, ratio)
        sol[k] = Element(alg, coeff)
        add_scaled(resid, (-(g * sol[k])).terms)
    # the remainder must be a torus polynomial with theta-fixed exponents
    if any(u or v or not fixed(mu) for u, mu, v in resid):
        return None
    sol[0] = Element(alg, resid)
    return sol
