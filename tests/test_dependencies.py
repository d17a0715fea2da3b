"""What the package imports and exports.

numpy is its only runtime dependency (``pyproject.toml``), and only
``validate``'s sampling and scoring and the CVaR witness check load it, when
first called: importing the package and the CLI, ``solve`` and ``sweep``
never do.  ``validate`` takes nothing from the package but ``model``, and
``powgame`` exports exactly the ``__all__`` lists of the submodules it
star-imports.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import powgame

SRC = Path(__file__).parent.parent / "src" / "powgame"
CONFIGS = sorted((SRC.parent.parent / "configs").glob("*.json"))


def test_every_absolute_import_is_stdlib_or_numpy():
    imported = []  # (file, top-level module) of every absolute import
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module.split(".")[0]))
    assert ("validate.py", "numpy") in imported  # the walk sees the imports, in functions too
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


def test_solve_and_sweep_never_load_numpy_and_validate_loads_it(tmp_path):
    # imported as benchmarks/run.py imports it, then every config solved in
    # every mode and swept; numpy is loaded only once validate samples
    code = f"""
import sys
import powgame.cli, powgame.validate
from powgame.cli import main
for config in {[str(path) for path in CONFIGS]!r}:
    assert main(["solve", "--config", config, "--out", {str(tmp_path)!r}, "--mode", "all"]) == 0
    assert main(["sweep", "--config", config, "--out", {str(tmp_path)!r}, "--axis", "epsilon"]) == 0
print("numpy" in sys.modules)
assert main(["validate", "--config", config, "--out", {str(tmp_path)!r}, "--mode", "det"]) == 0
print("numpy" in sys.modules)
"""
    assert len(CONFIGS) >= 3
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=SRC.parent
    )
    assert result.stdout == "False\nTrue\n"
