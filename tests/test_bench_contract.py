"""Every qcartan name the benchmark reaches resolves.

`bench/tracing.py` wraps functions by (layer, qualified name), and
`bench/workloads.py` calls into the layers through module attributes
(`coideal.cartan_element`).  A rename in `src/` that drops one of those
names fails here, in the tier-1 suite, not only when the benchmark runs.
"""

import ast
import importlib
import os
import sys
from fractions import Fraction

from qcartan import linalg, rootsys
from qcartan.uqalgebra import Algebra
from qcartan.weightspaces import WeightSpaces

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

from tracing import PRIVATE, SUBREGIONS, Tracer  # noqa: E402


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _workload_references() -> set:
    """(module, dotted attribute) for each `module.attr...` chain in
    bench/workloads.py whose head is a qcartan module it imports."""
    with open(os.path.join(BENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "qcartan"
               for alias in node.names}
    refs = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in modules:
            refs.add(("qcartan." + node.id, ".".join(reversed(parts))))
    return refs


def test_traced_names_resolve():
    names = set(SUBREGIONS) | PRIVATE | set(Tracer()._hooks())
    assert len(names) >= 19
    for layer, qual in sorted(names):
        assert callable(_resolve("qcartan." + layer, qual)), (layer, qual)


def test_workload_references_resolve():
    refs = _workload_references()
    # chains such as rootsys.build_root_data.cache_clear count once, by
    # their first attribute
    assert len({(mod, dotted.split(".")[0]) for mod, dotted in refs}) >= 18
    for mod, dotted in sorted(refs):
        _resolve(mod, dotted)


def test_oracle_reads_npow():
    # bench/oracle.py refuses an algebra whose npow is not 1
    assert Algebra.npow == 1


def test_tracer_counts_and_restores():
    # the tracer's hooks read Echelon.add's result as (is_new, ...) and
    # WeightSpaces._build's first argument as the weight
    add = linalg.Echelon.add
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._saved)
        assert linalg.Echelon.add is not add
        ws = WeightSpaces(rootsys.build_root_data("A", 2))
        for weight in ((1, 2), (2, 1)):
            ws.space(weight)
        linalg.kernel_basis([{0: Fraction(1)}, {0: Fraction(2)}, {}])
    finally:
        tracer.uninstall()
    c = tracer.counts
    assert c["echelon_adds"] > 0 and c["echelon_new"] > 0
    assert c["spaces_built"] > 0 and c["max_height"] == 3
    assert linalg.Echelon.add is add
    for owner, name, original in wrapped:
        assert owner.__dict__[name] is original, (owner, name)


def test_space_builds_exactly_the_weights_below():
    # products-warm counts the A4 spaces built in set-up and checks that
    # its timed phase builds none, so `space` must build what lies below
    # the weight it is asked for and nothing more
    rd = rootsys.build_root_data("A", 4)
    ws = WeightSpaces(rd)
    ws.space((1, 2, 0, 1))
    assert set(ws._spaces) == set(rootsys.weights_below((1, 2, 0, 1)))
    for w in rootsys.weights_up_to_height(rd, 6):
        ws.space(w)
    assert len(ws._spaces) == 210
