"""The runtime is the standard library alone: no module of the package imports
a third-party package, and pyproject.toml declares no dependency."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"multicolor", "__future__"}


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "multicolor").glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        foreign = {n for n in absolute_imports(tree) if n.split(".")[0] not in ALLOWED}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_project_declares_no_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    assert "dependencies = []" in text.splitlines()
