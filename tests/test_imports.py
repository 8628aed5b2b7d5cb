"""Every name that a module of the library or of the tests imports is used
in that module.  The package's ``__init__.py`` is skipped, since what it
imports it re-exports."""

import ast
import glob
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = sorted(
    glob.glob(os.path.join(HERE, "..", "src", "fibcat", "*.py"))
    + glob.glob(os.path.join(HERE, "*.py"))
)


def unused_imports(source):
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in imported if name not in used]


def test_the_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\nsys.exit()\n"
    assert unused_imports(source) == ["os", "c"]


def test_every_import_is_used():
    found = {}
    for path in SOURCES:
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as f:
            names = unused_imports(f.read())
        if names:
            found[os.path.relpath(path, os.path.join(HERE, ".."))] = names
    assert len(SOURCES) > 10
    assert found == {}
