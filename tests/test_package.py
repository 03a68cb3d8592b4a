"""Guard on the public surface: every export exists and the package re-exports all."""

import importlib

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
