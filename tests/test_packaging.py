"""Every entry point that ``pyproject.toml`` declares must import, no
module of the package, the tests or the bench imports a name it never uses,
the package declares its records through ``power.Record`` alone and compiles
no generated code when imported, every public function and class of the
package has a caller in a program, and each name of the package has one
import path: the module defining it."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE_INIT = ROOT / "src" / "yawbench" / "__init__.py"
# The package's __init__ imports its modules only to load them, so it reads none of them.
PACKAGE_MODULES = sorted(p for p in PACKAGE_INIT.parent.glob("*.py") if p != PACKAGE_INIT)
MODULE_NAMES = [p.stem for p in PACKAGE_MODULES]
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
CHECKED_MODULES = sorted([*PACKAGE_MODULES, *TEST_MODULES, *(ROOT / "bench").rglob("*.py")])


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


DATACLASS_MAKERS = {"dataclass", "make_dataclass"}


def dataclass_uses(source: str) -> list[int]:
    """Lines of ``source`` that read ``dataclass`` or ``make_dataclass`` outside a class ``Record``."""
    tree = ast.parse(source)
    inside = {id(n) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "Record"
              for n in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in inside and (
        (isinstance(node, ast.Name) and node.id in DATACLASS_MAKERS)
        or (isinstance(node, ast.Attribute) and node.attr in DATACLASS_MAKERS)))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_records_are_declared_through_record_alone(path):
    assert dataclass_uses(path.read_text()) == []


def test_a_dataclass_outside_record_is_caught():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass, fields\n"
        "class Record:\n    def __init_subclass__(cls):\n        dataclass(cls, init=False)\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n"
        "@dataclasses.dataclass\nclass B:\n    pass\n"
        "C = dataclasses.make_dataclass('C', [])\nprint(fields(A))\n"
    )
    assert dataclass_uses(source) == [6, 9, 12]


# Prints the source texts that a fresh ``import yawbench`` passes to ``exec``.
WATCH_EXEC = """
import builtins, json
import numpy  # loaded first, so only the package's own import is watched
texts, real_exec = [], builtins.exec
def watched(source, *args, **kwargs):
    if isinstance(source, str):
        texts.append(source)
    return real_exec(source, *args, **kwargs)
builtins.exec = watched
import yawbench
builtins.exec = real_exec
print(json.dumps(texts))
"""


def generated_functions(texts: list[str]) -> list[str]:
    """The functions defined by source texts given to ``exec``. Dataclass wraps the methods it
    generates for a class in one ``__create_fn__``, which Python 3.13 execs even when empty."""
    return [node.name for text in texts for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name != "__create_fn__"]


def test_import_compiles_no_generated_code():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", WATCH_EXEC], capture_output=True, text=True, env=env, check=True)
    texts = json.loads(out.stdout)
    assert generated_functions(texts) == []  # @dataclass(frozen=True) compiled 64 across the twelve records
    if sys.version_info < (3, 13):
        assert texts == []


def test_generated_code_is_caught():
    texts = ["def __create_fn__(_type_x):\n def __init__(self, x: _type_x):\n  self.x = x\n return __init__",
             "def __create_fn__():\n\n return ()"]
    assert generated_functions(texts) == ["__init__"]


def unreferenced_definitions(source: str, programs: list[str], entry_points: list[str] = ()) -> list[str]:
    """Public top-level functions and classes of ``source`` that nothing reads.

    A definition counts as read where ``source`` or one of ``programs`` names
    it outside its own body: as a name, an attribute, a dotted string (the
    bench's trace targets, such as ``"YawEnv.step"``), or an attribute of an
    entry point's ``module:attr`` target.
    """
    tree = ast.parse(source)
    defined = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    inside = {id(n): name for name, node in defined.items() for n in ast.walk(node)}
    read = {part for target in entry_points for part in target.partition(":")[2].split(".")}
    for i, text in enumerate([source, *programs]):
        for node in ast.walk(tree if i == 0 else ast.parse(text)):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = node.value.split(".") if node.value.replace(".", "_").isidentifier() else []
            else:
                continue
            read.update(name for name in names if i > 0 or inside.get(id(node)) != name)
    return [name for name in defined if name not in read]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_public_definition_has_a_caller(path):
    programs = [p.read_text() for p in [*PACKAGE_MODULES, *sorted((ROOT / "bench").rglob("*.py"))] if p != path]
    entry_points = declared_entry_points(tomllib.loads(PYPROJECT.read_text())["project"])
    assert unreferenced_definitions(path.read_text(), programs, entry_points) == []


def test_an_unreferenced_definition_is_caught():
    source = (
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Traced:\n    def step(self): return Traced()\n"
        "class Unused: pass\n"
        "def _private(): pass\n"
        "def main(): pass\n"
    )
    programs = ["import m\nm.used()\nTARGETS = ('Traced.step',)\n"]
    assert unreferenced_definitions(source, programs) == ["recursive", "Unused", "main"]
    assert unreferenced_definitions(source, programs, ["m:main"]) == ["recursive", "Unused"]


def top_level_definitions(source: str) -> set[str]:
    """Names a module defines at its top level: functions, classes and assigned names, not imports."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return defined


def root_bindings(source: str) -> list[str]:
    """The names the top level of a package's ``__init__`` binds, by definition, assignment or import."""
    tree = ast.parse(source)
    imported = [a.asname or a.name.partition(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names]
    return sorted({*top_level_definitions(source), *imported})


def test_the_package_root_binds_only_its_modules():
    assert root_bindings(PACKAGE_INIT.read_text()) == ["__version__", *MODULE_NAMES]
    package = importlib.import_module("yawbench")
    assert sorted(name for name in vars(package) if not name.startswith("__")) == MODULE_NAMES


def test_a_re_export_from_the_package_root_is_caught():
    source = '"""Doc."""\n__version__ = "1"\nfrom . import env, ppo\nfrom .env import YawEnv\nimport numpy as np\n'
    assert root_bindings(source) == ["YawEnv", "__version__", "env", "np", "ppo"]


def second_hand_imports(source: str, definitions: dict[str, set[str]]) -> list[str]:
    """The package names ``source`` reaches other than through the module defining them.

    ``definitions`` maps each module of the package to its top-level
    definitions. A ``from yawbench import x`` must name a module, a
    ``from yawbench.m import x`` a definition of ``m``, and a ``yawbench.x``
    read (also through ``import yawbench as yb``) a module.
    """
    tree = ast.parse(source)
    roots = {a.asname or "yawbench" for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names
             if a.name == "yawbench" or (a.asname is None and a.name.startswith("yawbench."))}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "yawbench":
            module = node.module.partition(".")[2]
            allowed = definitions.get(module, set()) if module else definitions
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in allowed]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in roots
              and node.attr not in definitions):
            found.append(f"yawbench.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_package_name_is_imported_from_its_module(path):
    definitions = {p.stem: top_level_definitions(p.read_text()) for p in PACKAGE_MODULES}
    assert second_hand_imports(path.read_text(), definitions) == []


def test_a_second_hand_import_is_caught():
    definitions = {
        "env": top_level_definitions("from .power import wrap_angle\nOBS: int = 3\nclass YawEnv:\n    pass\n"),
        "power": {"wrap_angle"},
    }
    assert definitions["env"] == {"OBS", "YawEnv"}
    source = (
        "import yawbench\nimport yawbench.env\nimport yawbench as yb\nimport yawbench.power as power_module\n"
        "from yawbench import env, YawEnv\nfrom yawbench.env import OBS, wrap_angle\n"
        "from yawbench.power import wrap_angle as wrap\n"
        "def f():\n    from yawbench.env.sub import x\n"
        "    return yawbench.env.YawEnv, yawbench.wrap_angle, yb.power, yb.OBS, power_module.wrap_angle\n"
    )
    assert second_hand_imports(source, definitions) == [
        "yawbench.OBS", "yawbench.YawEnv", "yawbench.env.sub.x", "yawbench.env.wrap_angle", "yawbench.wrap_angle",
    ]
