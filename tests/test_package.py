"""Guard on the package surface: every export exists, the package re-exports all, no helper is
orphaned, and results hand out read-only arrays."""

import ast
import dataclasses
import importlib
import pathlib

import numpy as np
import pytest

import blocktri
from helpers import random_complex

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


def _held_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _held_arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _held_arrays(getattr(value, f.name))


def test_results_hold_read_only_arrays(tmp_path):
    rng = np.random.default_rng(5)
    t = random_complex(9, 9, rng)
    path = tmp_path / "t.json"
    blocktri.write_matrix(t, path)
    decomposition = blocktri.decompose(t)
    op = blocktri.operator_from_matrix(decomposition.conjugated, decomposition.schedule)
    cert = blocktri.simultaneous_triangularize(np.diag([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 6.0]))
    assert cert.witness_unitary is not None
    results = {
        "SchurForm": blocktri.schur(t, order="modulus"),
        "TridiagResult": blocktri.block_tridiagonalize([t, random_complex(9, 9, rng)]),
        "witness_unitary": cert.witness_unitary,
        "DecompositionResult": decomposition,
        "DiagonalSplit": blocktri.diagonal_part(decomposition),
        "read_matrix": blocktri.read_matrix(path),
        "BlockTridiagOperator": [
            [op.diag_block(n), op.upper_block(n), op.lower_block(n)] for n in range(1, op.levels)
        ],
    }
    for name, result in results.items():
        arrays = list(_held_arrays(result))
        assert arrays, name
        for arr in arrays:
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
