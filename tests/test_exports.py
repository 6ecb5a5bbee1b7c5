"""The package's public surface: bevlane.__all__ and __init__'s imports agree.

A name deleted from a module but left in __init__ fails at import; one
left only in __all__, or imported but not listed, fails here.
"""

import ast
from pathlib import Path

import bevlane


def _imported_names() -> set[str]:
    tree = ast.parse(Path(bevlane.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_exported_name_is_a_package_attribute():
    assert [name for name in bevlane.__all__ if not hasattr(bevlane, name)] == []
    assert len(set(bevlane.__all__)) == len(bevlane.__all__)


def test_every_public_import_is_exported():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert sorted(public - set(bevlane.__all__)) == []
