"""Guard on the package surface: every export exists, the package re-exports all, no helper is orphaned."""

import ast
import importlib
import pathlib

import blocktri

LIBRARY = ("commutators", "decompose", "krylov", "linalg", "matio", "operators", "triangular")


def test_module_exports_exist():
    for name in LIBRARY:
        module = importlib.import_module(f"blocktri.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)


def test_package_exports_union_of_modules():
    union = set()
    for name in LIBRARY:
        union.update(importlib.import_module(f"blocktri.{name}").__all__)
    assert len(blocktri.__all__) == len(set(blocktri.__all__))
    assert set(blocktri.__all__) == union
    assert all(hasattr(blocktri, attr) for attr in blocktri.__all__)


def test_no_orphaned_private_helpers():
    # every module-level private name (_x, not dunder) must be read somewhere
    # in the package; a definition alone does not count
    defined = []
    used = set()
    for path in sorted(pathlib.Path(blocktri.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path.name, name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = [(mod, name) for mod, name in defined if name.startswith("_") and not name.endswith("__")]
    assert private
    orphans = [f"{mod}:{name}" for mod, name in private if name not in used]
    assert not orphans, orphans
