"""numpy is the package's only runtime dependency (``pyproject.toml``)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "powgame"


def test_every_absolute_import_is_stdlib_or_numpy():
    imported = []  # (file, top-level module) of every absolute import
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module.split(".")[0]))
    assert ("model.py", "numpy") in imported  # the walk sees the imports
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert [(name, top) for name, top in imported if top not in allowed] == []
