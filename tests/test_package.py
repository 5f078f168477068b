import ast
import importlib
import pathlib
import sys

import qcartan
from qcartan import qfield
from qcartan.uqalgebra import Algebra

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

from workloads import _COLD_CACHES  # noqa: E402


def test_all_names_resolve_once():
    names = qcartan.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qcartan, name), name


def _modules():
    src = pathlib.Path(qcartan.__file__).parent
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def _used_names(tree) -> set:
    """Every identifier a module reads: names, attributes and the names it
    imports from elsewhere."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_import_is_used():
    for stem, tree in _modules().items():
        if stem == "__init__":
            continue
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in reads, "%s imports %s unused" % (stem, name)


def test_every_private_definition_is_referenced():
    """Private module-level functions and classes, and private methods in
    a class body, are each referenced somewhere in `src/`."""
    modules = _modules()
    used = set().union(*map(_used_names, modules.values()))
    for stem, tree in modules.items():
        defs = list(tree.body)
        defs += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body]
        for node in defs:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_") and not node.name.startswith("__"):
                assert node.name in used, "%s.%s is never referenced" % (
                    stem, node.name)


def _is_lru_cache(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "lru_cache" or \
        isinstance(node, ast.Attribute) and node.attr == "lru_cache"


def _session_memos(tree) -> list:
    """The attributes `self.x = lru_cache(...)(...)` that
    `Algebra.__init__` assigns: memos built anew for each session."""
    out = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name == "Algebra"):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and \
                        any(map(_is_lru_cache, ast.walk(node.value))):
                    (target,) = node.targets
                    assert isinstance(target, ast.Attribute) and \
                        target.value.id == "self"
                    out.append(target.attr)
    return out


def test_every_lru_cache_is_emptied():
    """Each `lru_cache` in `src/` either decorates a module-level function
    that `qfield.clear_memos()` (through MEMOS) or the benchmark's cold
    start (`_COLD_CACHES`) empties, or is built anew for each session in
    `Algebra.__init__`.  So no process-wide memo carries one cold
    operation's results into the next unseen."""
    emptied = set(qfield.MEMOS) | {clear.__self__ for clear in _COLD_CACHES}
    found, session = 0, []
    for stem, tree in _modules().items():
        uses = sum(map(_is_lru_cache, ast.walk(tree)))
        memos = [node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and any(_is_lru_cache(getattr(d, "func", d))
                         for d in node.decorator_list)]
        session += _session_memos(tree)
        assert uses == len(memos) + len(_session_memos(tree)), \
            "%s uses lru_cache other than on a module-level function " \
            "or per session" % stem
        module = importlib.import_module("qcartan." + stem)
        for name in memos:
            assert getattr(module, name) in emptied, \
                "%s.%s is a memo that nothing empties" % (stem, name)
        found += len(memos)
    assert found == len(emptied)
    first, second = Algebra("A", 1), Algebra("A", 1)
    assert session
    for name in session:
        assert getattr(first, name) is not getattr(second, name)
        assert not getattr(first, name).cache_info().currsize
