"""Expression language for algebra elements.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor ('*'? factor)*              juxtaposition or '*' multiplies
    factor := atom ('^' int)?
    atom   := number | number '/' number | 'q' | gen
            | '[' expr ',' expr ']' ('_' atom)?  q-commutator
            | func '(' expr ')'                  kappa|sigma|phi|phiP|T<i>|Tinv<i>
            | 'ad' gen+ '(' expr ')'
            | '(' expr ')'
    gen    := ('E'|'F'|'B') int | 'K' '[' rat (',' rat)* ']'
            | 'Ki' int | 'Ki-' int

Errors carry the token position.  B-generators need a coideal session.
Brackets, function, `ad` and `T` arguments and the prefix '-' all recurse
through `factor`, which refuses to nest deeper than MAX_NESTING.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import add_scaled
from .qfield import ZERO
from .uqalgebra import Element, q_comm

MAX_NESTING = 200

_TOKEN = re.compile(r"""
    (?P<GEN>(?:Ki-|Ki|Tinv|T|[EFB])(?=\d))
  | (?P<NAME>kappa|sigma|phiP|phi|ad|q|K)
  | (?P<NUM>\d+)
  | (?P<SYM>[\^\+\-\*/\(\)\[\],_])
  | (?P<WS>\s+)
""", re.VERBOSE)


def tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise SyntaxError("unexpected character %r at position %d"
                              % (text[pos], pos))
        kind = m.lastgroup
        if kind != "WS":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("END", "", pos))
    return out


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0      # factors open around the current one

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        k, v, pos = self.toks[self.i]
        if kind is not None and k != kind or \
                value is not None and v != value:
            raise SyntaxError("expected %s at position %d, got %r"
                              % (value or kind, pos, v or "end"))
        self.i += 1
        return k, v, pos

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "END":
            raise SyntaxError("trailing input at position %d" % self.peek()[2])
        return node

    def expr(self):
        items = [("+", self.term())]
        while self.peek()[:2] in (("SYM", "+"), ("SYM", "-")):
            _, op, _ = self.take()
            items.append((op, self.term()))
        if len(items) == 1 and items[0][0] == "+":
            return items[0][1]
        return ("sum", tuple(items))

    def term(self):
        factors = [self.factor()]
        while True:
            k, v, _ = self.peek()
            if k in ("NUM", "GEN", "NAME") or k == "SYM" and v in "([":
                factors.append(self.factor())
            elif k == "SYM" and v == "*":
                self.take()
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return ("prod", tuple(factors))

    def factor(self):
        if self.depth > MAX_NESTING:
            raise SyntaxError("nesting deeper than %d at position %d"
                              % (MAX_NESTING, self.peek()[2]))
        self.depth += 1
        node = self.atom()
        self.depth -= 1
        if self.peek()[:2] == ("SYM", "^"):
            self.take()
            sign = 1
            if self.peek()[:2] == ("SYM", "-"):
                self.take()
                sign = -1
            _, v, _ = self.take("NUM")
            node = ("pow", node, sign * int(v))
        return node

    def rational(self) -> Fraction:
        sign = 1
        if self.peek()[:2] == ("SYM", "-"):
            self.take()
            sign = -1
        _, v, _ = self.take("NUM")
        num = int(v)
        den = 1
        if self.peek()[:2] == ("SYM", "/"):
            self.take()
            _, d, pos = self.take("NUM")
            den = int(d)
            if not den:
                raise SyntaxError("zero denominator at position %d" % pos)
        return Fraction(sign * num, den)

    def gen_atom(self):
        k, v, pos = self.peek()
        if k == "GEN" and v not in ("T", "Tinv"):
            self.take()
            return ("gen", v, int(self.take("NUM")[1]))
        if k == "NAME" and v == "K":
            self.take()
            self.take("SYM", "[")
            coords = [self.rational()]
            while self.peek()[:2] == ("SYM", ","):
                self.take()
                coords.append(self.rational())
            self.take("SYM", "]")
            return ("K", tuple(coords))
        return None

    def atom(self):
        k, v, pos = self.peek()
        if k == "NUM":
            return ("num", self.rational())
        if k == "SYM" and v == "-":
            self.take()
            return ("neg", self.factor())
        if k == "SYM" and v == "(":
            self.take()
            node = self.expr()
            self.take("SYM", ")")
            return node
        if k == "SYM" and v == "[":
            self.take()
            a = self.expr()
            self.take("SYM", ",")
            b = self.expr()
            self.take("SYM", "]")
            scale = ("num", Fraction(1))
            if self.peek()[:2] == ("SYM", "_"):
                self.take()
                scale = self.factor()
            return ("comm", a, b, scale)
        if k == "NAME" and v == "q":
            self.take()
            return ("q",)
        if k == "GEN" and v in ("T", "Tinv"):
            self.take()
            idx = int(self.take("NUM")[1])
            self.take("SYM", "(")
            arg = self.expr()
            self.take("SYM", ")")
            return ("lusztig", idx, +1 if v == "T" else -1, arg)
        if k == "NAME" and v in ("kappa", "sigma", "phi", "phiP"):
            self.take()
            self.take("SYM", "(")
            arg = self.expr()
            self.take("SYM", ")")
            return ("func", v, arg)
        if k == "NAME" and v == "ad":
            self.take()
            gens = []
            while True:
                g = self.gen_atom()
                if g is None:
                    break
                gens.append(g)
            if not gens:
                raise SyntaxError("ad needs at least one generator "
                                  "at position %d" % pos)
            self.take("SYM", "(")
            arg = self.expr()
            self.take("SYM", ")")
            return ("ad", tuple(gens), arg)
        g = self.gen_atom()
        if g is not None:
            return g
        raise SyntaxError("unexpected token %r at position %d" % (v, pos))


def parse_expr(text: str):
    return Parser(text).parse()


class Evaluator:
    """Evaluates an AST against an engine session (and optional coideal)."""

    def __init__(self, algebra, params=None):
        self.alg = algebra
        self.params = params

    def run(self, node):
        alg = self.alg
        kind = node[0]
        if kind == "num":
            return alg.scalar(node[1])
        if kind == "q":
            return alg.scalar(alg.q)
        if kind == "neg":
            return -self.run(node[1])
        if kind == "sum":
            out: dict = {}
            for op, item in node[1]:
                val = self.run(item)
                add_scaled(out, (val if op == "+" else -val).terms)
            return Element(alg, out)
        if kind == "prod":
            out = self.run(node[1][0])
            for item in node[1][1:]:
                out = out * self.run(item)
            return out
        if kind == "pow":
            base = self.run(node[1])
            n = node[2]
            if n < 0:
                sc = self._as_scalar(base)
                if not sc:
                    raise ValueError("cannot invert a zero scalar")
                base, n = alg.scalar(sc.inverse()), -n
            out = alg.one()
            for _ in range(n):
                out = out * base
            return out
        if kind == "gen":
            sym, idx = node[1], node[2]
            if sym == "E":
                return alg.E(idx)
            if sym == "F":
                return alg.F(idx)
            if sym in ("Ki", "Ki-"):
                return alg.Ki(idx, 1 if sym == "Ki" else -1)
            if self.params is None:
                raise ValueError("B-generators need a symmetric pair session")
            return self.params.B(idx)
        if kind == "K":
            return alg.K(node[1])
        if kind == "comm":
            a, b = self.run(node[1]), self.run(node[2])
            return q_comm(a, b, self._as_scalar(self.run(node[3])))
        if kind == "func":
            table = {"kappa": alg.kappa, "sigma": alg.sigma, "phi": alg.phi,
                     "phiP": alg.phi_prime}
            if node[1] not in table:
                raise ValueError("unknown symmetry %r" % node[1])
            return table[node[1]](self.run(node[2]))
        if kind == "lusztig":
            return alg.lusztig.apply(node[1], node[2], self.run(node[3]))
        if kind == "ad":
            arg = self.run(node[2])
            if any(g[0] != "gen" or g[1] == "B" for g in node[1]):
                raise ValueError("ad words take E/F/Ki generators")
            return alg.ad_word([g[1:] for g in node[1]], arg)
        raise ValueError("unknown AST node %r" % (node,))

    def _as_scalar(self, x):
        terms = x.terms
        if not terms:
            return ZERO
        if len(terms) != 1:
            raise ValueError("expected a scalar expression")
        (t, c), = terms.items()
        if t[0] or t[2] or any(t[1]):
            raise ValueError("expected a scalar expression")
        return c


def render_ast(node) -> str:
    kind = node[0]
    if kind == "num":
        f = node[1]
        return str(f) if f.denominator != 1 else str(f.numerator)
    if kind == "q":
        return "q"
    if kind == "neg":
        return "-%s" % render_ast(node[1])
    if kind == "sum":
        parts = []
        for op, item in node[1]:
            s = render_ast(item)
            if not parts:
                parts.append(s if op == "+" else "-%s" % s)
            else:
                parts.append("%s %s" % (op, s))
        return " ".join(parts)
    if kind == "prod":
        return " ".join(_paren(x) for x in node[1])
    if kind == "pow":
        return "%s^%d" % (_paren(node[1]), node[2])
    if kind == "gen":
        return "%s%d" % (node[1], node[2])
    if kind == "K":
        return "K[%s]" % ",".join(str(c) for c in node[1])
    if kind == "comm":
        out = "[%s, %s]" % (render_ast(node[1]), render_ast(node[2]))
        if node[3] != ("num", Fraction(1)):
            out += "_%s" % _paren(node[3])
        return out
    if kind == "func":
        return "%s(%s)" % (node[1], render_ast(node[2]))
    if kind == "lusztig":
        return "%s%d(%s)" % ("T" if node[2] > 0 else "Tinv", node[1],
                             render_ast(node[3]))
    if kind == "ad":
        return "ad %s (%s)" % (" ".join(render_ast(g) for g in node[1]),
                               render_ast(node[2]))
    raise ValueError(kind)


def _paren(node):
    if node[0] in ("sum", "neg"):
        return "(%s)" % render_ast(node)
    return render_ast(node)
