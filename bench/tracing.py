"""Layer tracing from outside the program.

`Tracer.install()` wraps the public functions and methods of every qcartan
layer module, and the arithmetic dunders of its classes, in place; nothing
under `src/` is edited and `uninstall()` restores every original.  A call
that enters a region from another region opens a span; a call made from
inside the same region does not, so its time stays in the enclosing span.
A region is a layer, or a named part of one (table building and word
reduction in `weightspaces`, products, ad-spans and Lusztig automorphisms
in `uqalgebra`, lifts, completion and checks in `coideal`, Kostant counts
in `rootsys`).

Spans stay in memory.  The qfield layer alone opens hundreds of thousands
of them in one round, so they are aggregated as they close, per call edge
(caller region, callee region, function): count, total time and self time,
where self time is the span's duration minus the durations of its child
spans.  `dump()` writes the edges out at the end of a run.

Calls inside a layer's own module (for example `pmul` inside `QRat`) are
not calls into the layer and are not wrapped, except the few that feed a
counter (`pgcd`, `WeightSpaces._build`).
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from time import perf_counter

LAYERS = ("qfield", "linalg", "rootsys", "weightspaces", "uqalgebra",
          "coideal", "exprparse", "involutions", "classical")

# (layer, qualified name) -> region, where a layer is split into parts
SUBREGIONS = {
    ("weightspaces", "WeightSpaces.space"): "weightspaces.build",
    ("weightspaces", "WeightSpaces.dimension"): "weightspaces.build",
    ("weightspaces", "WeightSpaces.basis_words"): "weightspaces.build",
    ("weightspaces", "WeightSpaces._build"): "weightspaces.build",
    ("weightspaces", "WeightSpaces.reduce_word"): "weightspaces.reduce",
    ("uqalgebra", "Algebra.mul"): "uqalgebra.mul",
    ("uqalgebra", "Algebra.ad_span"): "uqalgebra.ad_span",
    ("uqalgebra", "Algebra.ad_submodule_membership"): "uqalgebra.ad_span",
    ("uqalgebra", "lusztig_T_images"): "uqalgebra.lusztig",
    ("uqalgebra", "LusztigT.apply"): "uqalgebra.lusztig",
    ("uqalgebra", "LusztigT.apply_word"): "uqalgebra.lusztig",
    ("coideal", "CoidealParams.lift_Y"): "coideal.lift",
    ("coideal", "CoidealParams.complete_to_projection"): "coideal.completion",
    ("coideal", "CoidealParams.membership"): "coideal.completion",
    ("coideal", "cartan_element"): "coideal.checks",
    ("coideal", "verify_cartan_suite"): "coideal.checks",
    ("rootsys", "kostant_partition_count"): "rootsys.kostant",
}

# private methods wrapped because a counter needs them
PRIVATE = {("weightspaces", "WeightSpaces._build")}

DUNDERS = {"__init__", "__post_init__", "__add__", "__sub__", "__mul__",
           "__rmul__", "__truediv__", "__neg__", "__pow__"}



class Tracer:
    def __init__(self):
        self.stack = [[sys.intern("bench"), perf_counter(), 0.0]]
        self.self_s: dict = {}          # region -> self time
        self.incl_s: dict = {}          # region -> time with children
        self.active: dict = {}          # region -> open spans
        self.edges: dict = {}           # (caller, region, fn) -> [n, t, self]
        self.counts = {
            "qrat_new": 0, "pgcd_calls": 0, "den_deg_max": 0,
            "echelon_adds": 0, "echelon_new": 0,
            "kostant_calls": 0, "spaces_built": 0, "max_height": 0,
            "reduce_word_calls": 0, "reduce_lookups": 0, "reduce_hits": 0,
            "mul_calls": 0, "mul_terms_out": 0, "completion_calls": 0,
        }
        self._saved: list = []          # (owner, name, original)

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, fn, region: str, name: str, hook=None):
        region = sys.intern(region)     # regions are compared by identity
        stack, active = self.stack, self.active
        self_s, incl_s, edges = self.self_s, self.incl_s, self.edges

        def traced(*args, **kw):
            top = stack[-1]
            if top[0] is region:
                out = fn(*args, **kw)
                if hook is not None:
                    hook(args, out)
                return out
            frame = [region, perf_counter(), 0.0]
            stack.append(frame)
            depth = active.get(region, 0)
            active[region] = depth + 1
            try:
                out = fn(*args, **kw)
            finally:
                stack.pop()
                active[region] = depth
                dur = perf_counter() - frame[1]
                own = dur - frame[2]
                top[2] += dur
                self_s[region] = self_s.get(region, 0.0) + own
                if not depth:
                    incl_s[region] = incl_s.get(region, 0.0) + dur
                key = (top[0], region, name)
                rec = edges.get(key)
                if rec is None:
                    edges[key] = [1, dur, own]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += own
            if hook is not None:
                hook(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _hooks(self) -> dict:
        c = self.counts

        def qrat_new(args, out):
            c["qrat_new"] += 1
            deg = len(args[0].den) - 1
            if deg > c["den_deg_max"]:
                c["den_deg_max"] = deg

        def echelon_add(args, out):
            c["echelon_adds"] += 1
            if out[0]:
                c["echelon_new"] += 1

        def kostant(args, out):
            c["kostant_calls"] += 1

        def build(args, out):
            c["spaces_built"] += 1
            h = sum(args[1])
            if h > c["max_height"]:
                c["max_height"] = h

        def mul(args, out):
            c["mul_calls"] += 1
            c["mul_terms_out"] += len(out.terms)

        def completion(args, out):
            c["completion_calls"] += 1

        return {
            ("qfield", "QRat.__init__"): qrat_new,
            ("linalg", "Echelon.add"): echelon_add,
            ("rootsys", "kostant_partition_count"): kostant,
            ("weightspaces", "WeightSpaces._build"): build,
            ("uqalgebra", "Algebra.mul"): mul,
            ("coideal", "CoidealParams.complete_to_projection"): completion,
        }

    def _wrap_reduce_word(self, fn):
        # the memo is consulted before the call, so count lookups here
        c = self.counts
        inner = self._wrap(fn, "weightspaces.reduce",
                           "WeightSpaces.reduce_word")

        def reduce_word(ws, word):
            c["reduce_word_calls"] += 1
            if len(word) > 1:
                c["reduce_lookups"] += 1
                if tuple(word) in ws._reduce_memo:
                    c["reduce_hits"] += 1
            return inner(ws, word)

        reduce_word.__wrapped__ = fn
        return reduce_word

    def _set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        mods = {layer: importlib.import_module("qcartan." + layer)
                for layer in LAYERS}
        package = importlib.import_module("qcartan")
        hooks = self._hooks()
        wrapped_fns = {}                # original function -> wrapper
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and \
                        obj.__module__ == mod.__name__ and \
                        not name.startswith("_"):
                    region = SUBREGIONS.get((layer, name), layer)
                    wrapped_fns[obj] = self._wrap(
                        obj, region, "%s.%s" % (layer, name),
                        hooks.get((layer, name)))
                elif isinstance(obj, type) and \
                        obj.__module__ == mod.__name__ and \
                        not name.startswith("_"):
                    self._wrap_class(layer, obj, hooks)
        # rebind module-level functions wherever they are imported
        for layer, mod in list(mods.items()) + [("qcartan", package)]:
            for name, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                wrapper = wrapped_fns.get(obj)
                # qfield's own calls to its polynomial helpers are hot
                # internals, not calls into the layer
                home = obj.__module__ == mod.__name__
                if wrapper is not None and not (home and layer == "qfield"):
                    self._set(mod, name, wrapper)
        # pgcd is called only from inside qfield: count it there
        qf = mods["qfield"]
        pgcd = qf.pgcd
        c = self.counts

        def counted_pgcd(a, b):
            c["pgcd_calls"] += 1
            return pgcd(a, b)

        self._set(qf, "pgcd", counted_pgcd)
        return self

    def _wrap_class(self, layer: str, cls, hooks: dict):
        for name, attr in list(vars(cls).items()):
            qual = "%s.%s" % (cls.__name__, name)
            if name.startswith("_") and name not in DUNDERS and \
                    (layer, qual) not in PRIVATE:
                continue
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            if not isinstance(fn, types.FunctionType):
                continue
            if qual == "WeightSpaces.reduce_word":
                wrapper = self._wrap_reduce_word(fn)
            else:
                region = SUBREGIONS.get((layer, qual), layer)
                wrapper = self._wrap(fn, region, "%s.%s" % (layer, qual),
                                     hooks.get((layer, qual)))
            self._set(cls, name, staticmethod(wrapper) if static else wrapper)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict:
        c, s, inc = self.counts, self.self_s, self.incl_s

        def layer_self(prefix):
            return sum(v for k, v in s.items()
                       if k == prefix or k.startswith(prefix + "."))

        adds = c["echelon_adds"]
        lookups = c["reduce_lookups"]
        return {
            "qfield.qrat_new": (c["qrat_new"], "count"),
            "qfield.pgcd_calls": (c["pgcd_calls"], "count"),
            "qfield.den_deg_max": (c["den_deg_max"], "count"),
            "qfield.self_s": (layer_self("qfield"), "s"),
            "linalg.echelon_adds": (adds, "count"),
            "linalg.independent_ratio": (
                c["echelon_new"] / adds if adds else 0.0, "ratio"),
            "linalg.self_s": (layer_self("linalg"), "s"),
            "rootsys.kostant_calls": (c["kostant_calls"], "count"),
            "rootsys.kostant_s": (inc.get("rootsys.kostant", 0.0), "s"),
            "weightspaces.spaces_built": (c["spaces_built"], "count"),
            "weightspaces.max_height": (c["max_height"], "count"),
            "weightspaces.build_self_s": (
                s.get("weightspaces.build", 0.0), "s"),
            "weightspaces.reduce_word_calls": (c["reduce_word_calls"],
                                               "count"),
            "weightspaces.reduce_hit_ratio": (
                c["reduce_hits"] / lookups if lookups else 0.0, "ratio"),
            "uqalgebra.mul_calls": (c["mul_calls"], "count"),
            "uqalgebra.mul_terms_out": (c["mul_terms_out"], "count"),
            "uqalgebra.mul_self_s": (s.get("uqalgebra.mul", 0.0), "s"),
            "uqalgebra.ad_span_s": (inc.get("uqalgebra.ad_span", 0.0), "s"),
            "uqalgebra.lusztig_s": (inc.get("uqalgebra.lusztig", 0.0), "s"),
            "coideal.lift_s": (inc.get("coideal.lift", 0.0), "s"),
            "coideal.completion_calls": (c["completion_calls"], "count"),
            "coideal.completion_s": (inc.get("coideal.completion", 0.0), "s"),
            "coideal.checks_s": (s.get("coideal.checks", 0.0), "s"),
            "exprparse.eval_s": (layer_self("exprparse"), "s"),
        }

    def dump(self, path: str, extra: dict):
        edges = [{"caller": k[0], "region": k[1], "fn": k[2], "calls": v[0],
                  "total_s": v[1], "self_s": v[2]}
                 for k, v in sorted(self.edges.items(),
                                    key=lambda kv: -kv[1][2])]
        with open(path, "w") as fh:
            json.dump({"counts": self.counts, "self_s": self.self_s,
                       "inclusive_s": self.incl_s, "edges": edges,
                       **extra}, fh, indent=1, sort_keys=True)
