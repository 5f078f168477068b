import ast
import pathlib

import qcartan


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
