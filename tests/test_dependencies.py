"""What the package imports and exports.

numpy is its only runtime dependency (``pyproject.toml``), ``validate``
takes nothing from the package but ``model``, and ``powgame`` exports
exactly the ``__all__`` lists of the submodules it star-imports.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import powgame

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


def test_validate_imports_only_the_model_from_the_package():
    # the oracle stays independent of the solver it checks: no back-end, no
    # search, no driver
    tree = ast.parse((SRC / "validate.py").read_text())
    relative = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == ["model"]


def test_powgame_exports_exactly_its_submodules_all():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    starred = [node.module for node in imports if [alias.name for alias in node.names] == ["*"]]
    # besides the star imports, only those submodules themselves are bound
    named = [
        (getattr(node, "level", 0), getattr(node, "module", None), alias.name)
        for node in imports for alias in node.names if alias.name != "*"
    ]
    assert sorted(named) == sorted((1, None, name) for name in starred)
    assert "cli" not in starred
    # no public name is written out: the only strings are the docstring and the version
    strings = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert strings == [ast.get_docstring(tree, clean=False), powgame.__version__]
    modules = [importlib.import_module(f"powgame.{name}") for name in starred]
    names = [name for module in modules for name in module.__all__]
    assert powgame.__all__ == names and len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(powgame, name) is getattr(module, name), (module.__name__, name)


def test_importing_powgame_leaves_the_cli_unimported():
    code = "import sys, powgame; print('powgame.cli' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=SRC.parent
    )
    assert result.stdout == "False\n"


def test_importing_the_cli_leaves_concurrent_futures_unimported():
    # run_validate imports its worker pool when it runs: concurrent.futures
    # pulls in logging, which every verb would otherwise pay for at start-up
    code = "import sys, powgame.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=SRC.parent
    )
    assert result.stdout == "[]\n"
