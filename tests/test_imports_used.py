"""Every name a package module imports is used in that module.

No linter runs on the package, so this standard-library check stands in
for an unused-import rule: an import that nothing reads is dead code.
"""

import ast
from pathlib import Path

import pytest

# __init__.py imports the public names to re-export them; test_public_surface pins those
MODULES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src" / "squeezedzeno")
                 .glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []
