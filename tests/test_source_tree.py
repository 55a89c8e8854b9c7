"""The package keeps no dead names: every import is used, every private helper is called.

An AST scan of src/skewlab/*.py: a name a module imports must appear in that module,
and a module-level private name or a private method must be referenced somewhere in
the package other than at its own definition.  Tests do not count as references.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skewlab"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _loads(tree):
    """Every name a tree reads: Name loads, attribute names and names imported from modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, unused


def test_every_private_helper_is_referenced():
    modules = _modules()
    referenced = set().union(*map(_loads, modules.values()))
    unreferenced = []
    for module, tree in modules.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        unreferenced += [f"{module}: {name}" for name in defined
                         if _private(name) and name not in referenced]
    assert not unreferenced, unreferenced
