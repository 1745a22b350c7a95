"""Every entry point that ``pyproject.toml`` declares must import, and no
module of the package or of the tests imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
# The package's __init__ imports only to re-export.
CHECKED_MODULES = sorted(
    p for p in [*(ROOT / "src" / "yawbench").glob("*.py"), *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def declared_entry_points(project: dict) -> list[str]:
    """The ``module:attr`` targets of the console, GUI and plugin entry points."""
    groups = [project.get("scripts", {}), project.get("gui-scripts", {}), *project.get("entry-points", {}).values()]
    return [target for group in groups for target in group.values()]


def resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module.strip())
    for name in attr.strip().split(".") if attr.strip() else ():
        obj = getattr(obj, name)
    return obj


def test_every_declared_entry_point_resolves():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for target in declared_entry_points(project):
        assert callable(resolve(target)), target


def test_a_dangling_entry_point_is_caught():
    project = tomllib.loads('[project.scripts]\nyawbench = "yawbench.no_such_module:main"\n')["project"]
    assert declared_entry_points(project) == ["yawbench.no_such_module:main"]
    with pytest.raises(ModuleNotFoundError):
        resolve("yawbench.no_such_module:main")


def unused_imports(source: str) -> list[str]:
    """Names a module binds by an import and never reads.

    A name read only inside a string annotation (``"CycleTrace"``) counts as
    read; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported: dict[str, None] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(dict.fromkeys(a.asname or a.name.partition(".")[0] for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(dict.fromkeys(a.asname or a.name for a in node.names))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                for c in ast.walk(ann) if ann is not None else ():
                    if isinstance(c, ast.Constant) and isinstance(c.value, str):
                        used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", CHECKED_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import inf, nan as missing\nfrom x import Kept\n"
        "def f(a: 'Kept') -> int:\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "inf", "missing"]
