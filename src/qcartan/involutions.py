"""Maximally split involutions and their strongly orthogonal systems.

Each irreducible symmetric pair is entered as its Satake data only: the
family, the admissible rank and r, the fixed subset pi_theta, whether the
diagram permutation p is the diagram flip, and the s-subset.  The rest is
derived when a pair is built: theta on the simple roots, the spanning set of
the fixed Cartan part, and a maximum strongly orthogonal theta-system by
Kostant and Sugiura's cascade, with its distinguished simple roots and the
case each shape equation assigns.  A short override list keeps the tables'
choice where it differs from the cascade.  Verification of all structural
conditions is algorithmic and lives in verify_theta_system.
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
    case: int               # 1-5; 0 when no shape equation holds


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

    def validate(self):
        """Check the invariants the Satake derivation does not make true by
        construction: theta is an involution, preserves the form, and fixes
        each h_theta direction."""
        rd = self.rd
        n = rd.rank
        for i in range(1, n + 1):
            a = rd.simple(i)
            if self.apply(self.apply(a)) != a:
                raise AssertionError("theta is not an involution at alpha_%d" % i)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                a, b = rd.simple(i), rd.simple(j)
                if rd.inner(self.apply(a), self.apply(b)) != rd.inner(a, b):
                    raise AssertionError("theta does not preserve the form")
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


def _coroot_combo_weight(rd: RootData, span: dict) -> Weight:
    # h_i corresponds to the coroot alpha_i^vee = alpha_i/d_i on the dual side
    out = [0] * rd.rank
    for i, c in span.items():
        out[i - 1] += Fraction(c, rd.d[i - 1])
    return tuple(out)


# ---------------------------------------------------------------------------
# Satake data: the only hand-entered description of a pair

def _odd(hi):
    return range(1, hi + 1, 2)


def _none(n, r):
    return ()


# label: (family, admissible n, admissible r or None, pi_theta, p is the
# diagram flip, s-subset), for the classical labels (Araki 1962; Helgason,
# ch. X, Table VI).  The s-subset is entered, not derived: a Letzter-type
# parity rule misses AI(1), BI(2,2), DIII-1 and EVII.
_CLASSICAL = {
    "AI": ("A", lambda n: n >= 1, None, _none, False, _none),
    "AII": ("A", lambda n: n >= 3 and n % 2, None,
            lambda n, r: _odd(n), False, _none),
    "AIII": ("A", lambda n: n >= 1, lambda n: range(1, (n + 1) // 2 + 1),
             lambda n, r: range(r + 1, n - r + 1), True,
             lambda n, r: (r,) if 2 * r == n + 1 else ()),
    "BI": ("B", lambda n: n >= 2, lambda n: range(1, n + 1),
           lambda n, r: range(r + 1, n + 1), False, _none),
    "CI": ("C", lambda n: n >= 2, None, _none, False, lambda n, r: (n,)),
    "CII-1": ("C", lambda n: n >= 3, lambda n: range(2, n, 2),
              lambda n, r: (*_odd(r - 1), *range(r + 1, n + 1)), False,
              _none),
    "CII-2": ("C", lambda n: n >= 4 and n % 2 == 0, None,
              lambda n, r: _odd(n - 1), False, _none),
    "DI-1": ("D", lambda n: n >= 4, lambda n: range(1, n - 1),
             lambda n, r: range(r + 1, n + 1), False, _none),
    "DI-2": ("D", lambda n: n >= 4, None, _none, True, _none),
    "DI-3": ("D", lambda n: n >= 4, None, _none, False, _none),
    "DIII-1": ("D", lambda n: n >= 4 and n % 2 == 0, None,
               lambda n, r: _odd(n - 1), False, lambda n, r: (n,)),
    "DIII-2": ("D", lambda n: n >= 5 and n % 2, None,
               lambda n, r: _odd(n - 2), True, _none),
}

# label: (family, rank, pi_theta, p is the diagram flip, s-subset)
_EXCEPTIONAL = {
    "EI": ("E", 6, (), False, ()),
    "EII": ("E", 6, (), True, ()),
    "EIII": ("E", 6, (3, 4, 5), True, ()),
    "EIV": ("E", 6, (2, 3, 4, 5), False, ()),
    "EV": ("E", 7, (), False, ()),
    "EVI": ("E", 7, (2, 5, 7), False, ()),
    "EVII": ("E", 7, (2, 3, 4, 5), False, (7,)),
    "EVIII": ("E", 8, (), False, ()),
    "EIX": ("E", 8, (2, 3, 4, 5), False, ()),
    "FI": ("F", 4, (), False, ()),
    "FII": ("F", 4, (1, 2, 3), False, ()),
    "G": ("G", 2, (), False, ()),
}

# the rank-one-r members of a family under their own names
_ALIASES = {"AIV": "AIII", "BII": "BI", "DII": "DI-1"}

PAIR_LABELS = (*_CLASSICAL, *_ALIASES, *_EXCEPTIONAL)


def _satake(pair: str, n: int | None, r: int | None):
    """(label, rank, r, family, pi_theta, flip, s-subset) with the alias
    resolved; ValueError unless the label takes n and r."""
    if pair not in PAIR_LABELS:
        raise ValueError("unknown symmetric pair label %r" % pair)
    label, ok = pair, False
    if pair in _ALIASES and r in (None, 1):
        label, r = _ALIASES[pair], 1
    if label in _EXCEPTIONAL:
        family, rank, pi, flip, s = _EXCEPTIONAL[label]
        ok = n in (None, rank) and r is None
    elif label in _CLASSICAL:
        family, n_ok, r_range, pi, flip, s = _CLASSICAL[label]
        rank = n
        ok = n is not None and n_ok(n) and (
            r is None if r_range is None else r in r_range(n))
        if ok:
            pi, s = pi(n, r), s(n, r)
    if not ok:
        raise ValueError("%s does not take n = %s, r = %s" % (pair, n, r))
    return label, rank, r, family, frozenset(pi), flip, frozenset(s)


def _diagram_flip(family: str, n: int) -> tuple:
    """The nontrivial diagram automorphism (n-1 <-> n in type D)."""
    if family == "D":
        return (*range(1, n - 1), n, n - 1)
    if family == "E":
        return (6, 2, 5, 4, 3, 1)
    return tuple(range(n, 0, -1))


def build_involution(pair: str, n: int | None = None,
                     r: int | None = None) -> Involution:
    """The maximally split involution of the named irreducible pair, from
    its Satake diagram: theta(alpha_i) = alpha_i on pi_theta and
    -w_X(alpha_p(i)) off it, w_X the longest element of W(pi_theta);
    h_theta is spanned by the h_i on pi_theta and h_i - h_p(i) off it."""
    label, rank, r, family, pith, flip, s_set = _satake(pair, n, r)
    rd = build_root_data(family, rank)
    p = _diagram_flip(family, rank) if flip else tuple(range(1, rank + 1))
    images = tuple(
        rd.simple(i) if i in pith else
        tuple(-c for c in rd.weyl_longest(pith, rd.simple(p[i - 1])))
        for i in range(1, rank + 1))
    h = tuple({i: 1} for i in sorted(pith)) + tuple(
        {i: 1, p[i - 1]: -1} for i in range(1, rank + 1)
        if i not in pith and i < p[i - 1])
    inv = Involution(rd, label, (rank, r), images, pith, p, h, s_set)
    inv.validate()
    return inv


# ---------------------------------------------------------------------------
# Gamma_theta: the Kostant-Sugiura cascade

def _components(rd: RootData, nodes) -> list:
    """Connected components of the Dynkin subdiagram on nodes, ordered by
    their smallest index."""
    left, out = set(nodes), []
    while left:
        comp, grow = set(), [min(left)]
        while grow:
            i = grow.pop()
            comp.add(i)
            grow += [j for j in left - comp if rd.cartan[i - 1][j - 1]]
        left -= comp
        out.append(frozenset(comp))
    return out


def _cascade(inv: Involution, nodes) -> list:
    """Per component of nodes, the highest root of Delta_theta supported
    there, then the same on the component's simple roots strongly
    orthogonal to it."""
    rd, delta, out = inv.rd, delta_theta(inv), []

    def grow(nodes):
        for comp in _components(rd, nodes):
            roots = [b for b in delta if rd.support(b) <= comp]
            if roots:
                beta = max(roots, key=rd.height)
                out.append(beta)
                grow(comp & rd.strorth_simples(beta))

    grow(nodes)
    return out


# Where the tables fix another maximal system than the cascade: label ->
# (rd, cascade) -> the betas in table order.  One more rule belongs here:
# gamma_theta runs the type D cascade on nodes 2..n when that reaches the
# same size, which settles DI-1 with odd r, DI-2 and DI-3.
_OVERRIDES = {
    "AI": lambda rd, c: [rd.simple(i) for i in _odd(rd.rank)],
    # odd n: alpha_n before alpha_(n-1)
    "DI-3": lambda rd, c: c[:-2] + c[:-3:-1] if rd.rank % 2 else c,
    "EI": lambda rd, c: [(0, 1, 1, 2, 1, 0), rd.simple(5), rd.simple(3),
                         rd.simple(2)],
    # order only: alpha_7 before the D4 block, which ends alpha_5, 3, 2
    "EV": lambda rd, c: c[:2] + [c[6], c[2], c[5], c[4], c[3]],
    "EVIII": lambda rd, c: c[:3] + [c[7], c[3], c[6], c[5], c[4]],
    "G": lambda rd, c: [(2, 1), rd.simple(2)],
}


def _distinguished(inv: Involution, beta: Weight) -> tuple:
    """(alpha_beta, alpha'_beta): the simple roots of Supp(beta) not
    strongly orthogonal to beta; of two, alpha' is the one in pi_theta,
    else the higher index."""
    near = sorted(inv.rd.support(beta) - inv.rd.strorth_simples(beta))
    if len(near) == 1:
        return near[0], near[0]
    a, b = near
    return (b, a) if a in inv.pi_theta else (a, b)


def gamma_theta(pair: str, n: int | None = None,
                r: int | None = None) -> ThetaSystem:
    """The maximum strongly orthogonal theta-system of the pair."""
    inv = build_involution(pair, n, r)
    rd = inv.rd
    nodes = range(1, rd.rank + 1)
    betas = _cascade(inv, nodes)
    if rd.family == "D":    # see _OVERRIDES
        alt = _cascade(inv, nodes[1:])
        if len(alt) == len(betas):
            betas = alt
    if inv.pair in _OVERRIDES:
        betas = [rd.weight(b) for b in _OVERRIDES[inv.pair](rd, betas)]
    entries = []
    for beta in betas:
        ab, abp = _distinguished(inv, beta)
        entries.append(GammaEntry(beta, ab, abp,
                                  _shape_case(inv, beta, ab, abp) or 0))
    return ThetaSystem(inv, tuple(entries))


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

def _shape_case(inv: Involution, beta: Weight, ab: int, abp: int):
    """The structural case (1-5) whose shape equation beta satisfies with
    distinguished roots alpha_ab, alpha_abp, or None."""
    rd = inv.rd
    sa, sap = rd.simple(ab), rd.simple(abp)
    supp = rd.support(beta)
    wb = tuple(sorted(supp - {ab, abp}))

    def wsum(*parts):
        out = rd.zero()
        for x in parts:
            out = tuple(a + b for a, b in zip(out, x))
        return out

    case2_shape = beta == wsum(sa, rd.weyl_longest(
        tuple(sorted(supp - {ab})), sa))
    if beta == sa and ab == abp:
        return 1
    if ab == abp and case2_shape:
        return 2
    if ab != abp and beta == wsum(sap, rd.weyl_longest(wb, sa)):
        same_len = rd.inner(sa, sa) == rd.inner(sap, sap)
        if same_len and abp == inv.p[ab - 1] and \
                beta == rd.weyl_longest(tuple(sorted(supp - {ab})), sa):
            return 3
        if not same_len and \
                beta == rd.weyl_longest(tuple(sorted(supp - {abp})), sap):
            return 4
    if ab != abp and abp in inv.pi_theta:
        if beta == wsum(sap, sa, rd.weyl_longest(wb, sa)):
            return 5
        if not rd.inner(beta, sap) and case2_shape:
            # FII-style: alpha' is the second distinguished root but the
            # shape collapses to the doubled-multiplicity form
            return 2
    return None


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

    checks["case_shape_equations"] = all(
        _shape_case(inv, e.beta, e.alpha_beta, e.alpha_beta_prime) == e.case
        for e in entries)

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
