"""Every module-level import of a package module is read by some name in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "observeprice"


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}), ids=lambda p: p.name)
def test_no_module_level_import_goes_unused(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__"]
    imported = {(alias.asname or alias.name).partition(".")[0] for n in imports for alias in n.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
